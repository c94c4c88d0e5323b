"""Locate the other Python interpreters the package accepts, for the
tests that run code under them."""

import shutil
import subprocess
from pathlib import Path


def find_python(version):
    """A working Python `version` ("3.12") from PATH or pyenv's versions,
    or None."""
    candidates = [shutil.which(f"python{version}")]
    if shutil.which("pyenv"):
        root = subprocess.run(["pyenv", "root"], capture_output=True,
                              text=True).stdout.strip()
        candidates += sorted(Path(root).glob(
            f"versions/{version}*/bin/python{version}"))
    probe = f"import sys; print(sys.version.startswith('{version}.'))"
    for exe in filter(None, candidates):
        try:
            out = subprocess.run([exe, "-c", probe], capture_output=True,
                                 text=True, timeout=60)
        except OSError:
            continue
        if out.stdout.strip() == "True":
            return str(exe)
    return None

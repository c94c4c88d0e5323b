"""List the functions of src/fibresplit that no command and no acceptance
gate reaches.

    python tools/reach.py

Every fibresplit command runs in this process, with default arguments,
on each config that tools/compare_outputs.py digests (its _configs(), so
both scripts run the same matrix); then pytest runs the acceptance
gates, tests/test_acceptance.py, in this process too.  Both run under
sys.setprofile, which sees every call of Python code.  A function is a
def in src/fibresplit, methods and nested functions included (a lambda
or a comprehension is part of the def that holds it); it is reached
when the profiler sees a call of its code.  The script prints each
unreached function as file:line name, then their count, the number of
distinct source lines they span and the line total of src/fibresplit.
It imports only the standard library, the package, compare_outputs and
pytest (for the gates).
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fibresplit"


def functions():
    """{(file, first line, name): the lines it spans} for every def of the
    package, keyed as its code object reports itself."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                out[(str(path), first, node.name)] = \
                    range(first, node.end_lineno + 1)
    return out


def _run_commands():
    from compare_outputs import _configs
    from fibresplit import cli

    with tempfile.TemporaryDirectory() as tmp:
        for cfg in _configs():
            for command in cli.COMMANDS:
                out_dir = os.path.join(tmp, cfg.stem, command)
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.main([command, "--config", str(cfg),
                              "--out-dir", out_dir])


def _run_gates():
    import pytest

    return pytest.main([str(ROOT / "tests" / "test_acceptance.py"), "-q",
                        "-p", "no:cacheprovider"])


def main():
    sys.path.insert(0, str(ROOT / "src"))
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _run_commands()
        status = _run_gates()
    finally:
        sys.setprofile(None)
    if status != 0:
        print(f"acceptance gates failed (pytest exit {status})")
        return 1
    reached = {(c.co_filename, c.co_firstlineno, c.co_name) for c in seen}
    unreached = {key: lines for key, lines in functions().items()
                 if key not in reached}
    for path, first, name in sorted(unreached):
        print(f"{Path(path).relative_to(ROOT)}:{first} {name}")
    spanned = {(path, line) for (path, _, _), lines in unreached.items()
               for line in lines}
    total = sum(len(path.read_text().splitlines())
                for path in PACKAGE.glob("*.py"))
    print(f"{len(unreached)} functions unreached, spanning {len(spanned)} "
          f"distinct lines, of {total} lines in src/fibresplit")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""INI model configs: parsing, schema validation, object construction.

Format: `[section]` headers and `key = value` lines, `#` comments.
Expressions go in double quotes, arrays are bracketed comma lists (nesting
allowed, entries may be numbers or quoted expressions), bare values are
numbers or true/false.  Unknown sections and keys are rejected.
"""

import configparser
import hashlib
import math

from .bundle import BundleChart
from .errors import DimensionMismatch, ParseError
from .exprs import VarContext, compile_field
from .lagrangian import LagrangianSpec
from .nonholonomic import AffineConstraintSpec
from .reduction import ActionSpec, MagneticModel
from .splitting import SplittingSpec

_FIXED_KEYS = {
    "bundle": {"base_dim", "fibre_dim", "slit_eps"},
    "lagrangian": {"L", "homogeneity"},
    "action": {"K", "C"},
    "constraints": {"A", "A0"},
    "magnetic": {"g", "k", "V", "A_i", "A_alpha", "Upsilon", "Kcurv", "C"},
    "simulation": {"t0", "t1", "dt", "ic", "seed", "samples", "box"},
}

_SIM_DEFAULTS = {"t0": 0.0, "t1": 1.0, "dt": 1e-3, "ic": None,
                 "seed": 42, "samples": 200, "box": 1.0}


def _parse_value(text, where):
    """One config value: quoted expression, number, bool, or nested list."""
    pos = 0
    text = text.strip()

    def error(msg):
        raise ParseError(f"{where}: {msg}")

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos] in " \t":
            pos += 1

    def atom():
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            error("missing value")
        ch = text[pos]
        if ch == "[":
            pos += 1
            items = []
            skip_ws()
            if pos < len(text) and text[pos] == "]":
                pos += 1
                return items
            while True:
                items.append(atom())
                skip_ws()
                if pos < len(text) and text[pos] == ",":
                    pos += 1
                    continue
                if pos < len(text) and text[pos] == "]":
                    pos += 1
                    return items
                error("expected ',' or ']' in list")
        if ch == '"':
            end = text.find('"', pos + 1)
            if end < 0:
                error("unterminated quote")
            out = text[pos + 1:end]
            pos = end + 1
            return out
        start = pos
        while pos < len(text) and text[pos] not in ",]\t ":
            pos += 1
        tok = text[start:pos]
        if tok == "true":
            return True
        if tok == "false":
            return False
        try:
            return float(tok)
        except ValueError:
            error(f"cannot read value {tok!r} (expressions need double "
                  f"quotes)")

    out = atom()
    skip_ws()
    if pos != len(text):
        error(f"trailing input after value: {text[pos:]!r}")
    return out


def _expr(value, where):
    """Coerce a parsed entry to an expression source string."""
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return repr(value)
    raise ParseError(f"{where}: expected an expression or number")


def _expr_grid(value, where):
    if isinstance(value, list):
        return [_expr_grid(v, where) for v in value]
    return _expr(value, where)


def _float_grid(value, where):
    if isinstance(value, list):
        return [_float_grid(v, where) for v in value]
    if isinstance(value, float):
        return value
    raise ParseError(f"{where}: expected numbers")


def _finite_list(value, where):
    """A flat list of numbers; nan and inf are rejected, as no state can
    start from them."""
    if not all(isinstance(v, float) for v in value):
        raise ParseError(f"{where}: expected numbers")
    if not all(map(math.isfinite, value)):
        raise ParseError(f"{where}: entries must be finite")
    return value


def _need_float(sec, key, value):
    if not isinstance(value, float):
        raise ParseError(f"[{sec}] {key}: expected a number")
    return value


def _need_int(sec, key, value):
    v = _need_float(sec, key, value)
    if not v.is_integer():  # false for inf and nan too
        raise ParseError(f"[{sec}] {key}: expected an integer")
    return int(v)


class ModelConfig:
    """Validated config: raw section/key values plus model builders."""

    def __init__(self, path, sha256, sections):
        self.path = path
        self.sha256 = sha256
        self.sections = sections
        if "bundle" not in sections:
            raise ParseError("missing required section [bundle]")
        b = sections["bundle"]
        if "base_dim" not in b or "fibre_dim" not in b:
            raise ParseError("[bundle] needs base_dim and fibre_dim")
        self.n = _need_int("bundle", "base_dim", b["base_dim"])
        self.m = _need_int("bundle", "fibre_dim", b["fibre_dim"])
        self._check_dynamic_keys()

    def _check_dynamic_keys(self):
        if "splitting" in self.sections:
            want = {f"h{a+1}" for a in range(self.m)}
            got = set(self.sections["splitting"])
            if got != want:
                raise DimensionMismatch(
                    f"[splitting] must define exactly {sorted(want)}, "
                    f"got {sorted(got)}")
        if "curve" in self.sections:
            want = {f"x{i+1}" for i in range(self.n)} | {"y0"}
            got = set(self.sections["curve"])
            if got != want:
                raise DimensionMismatch(
                    f"[curve] must define exactly {sorted(want)}, "
                    f"got {sorted(got)}")

    def has(self, name):
        return name in self.sections

    def require(self, name):
        if name not in self.sections:
            raise ParseError(f"this command needs a [{name}] section")
        return self.sections[name]

    def chart(self):
        b = self.sections["bundle"]
        slit = _need_float("bundle", "slit_eps", b.get("slit_eps", 1e-6))
        return BundleChart(self.n, self.m, slit)

    def splitting(self, chart):
        sec = self.require("splitting")
        sources = [_expr(sec[f"h{a+1}"], f"[splitting] h{a+1}")
                   for a in range(self.m)]
        return SplittingSpec.from_expressions(chart, sources)

    def lagrangian(self, chart):
        sec = self.require("lagrangian")
        if "L" not in sec:
            raise ParseError("[lagrangian] needs key L")
        flag = sec.get("homogeneity")
        # a bool is no number here, though True == 1
        if flag is not None and not (type(flag) is float and flag == 2.0):
            raise ParseError(f"[lagrangian] homogeneity: only the degree 2 "
                             f"can be declared, got {flag!r}")
        return LagrangianSpec.from_expression(
            chart, _expr(sec["L"], "[lagrangian] L"),
            homogeneity_flag=flag)

    def base_lagrangian(self, chart):
        """The [lagrangian] L read as a base-level function of (x, v)."""
        sec = self.require("lagrangian")
        if "L" not in sec:
            raise ParseError("[lagrangian] needs key L")
        ctx = VarContext([("base", list(chart.x_names)),
                          ("base_velocity", list(chart.v_names))])
        src = _expr(sec["L"], "[lagrangian] L")
        return compile_field(src, ctx, label=src, slit_eps=chart.slit_eps)

    def action(self, chart):
        sec = self.require("action")
        if "K" not in sec:
            raise ParseError("[action] needs key K")
        K = _expr_grid(sec["K"], "[action] K")
        C = None
        if "C" in sec:
            C = _float_grid(sec["C"], "[action] C")
        return ActionSpec.from_expressions(chart, K, C)

    def constraints(self, chart):
        sec = self.require("constraints")
        for key in ("A", "A0"):
            if key not in sec:
                raise ParseError(f"[constraints] needs key {key}")
        return AffineConstraintSpec.from_expressions(
            chart, _expr_grid(sec["A"], "[constraints] A"),
            _expr_grid(sec["A0"], "[constraints] A0"))

    def magnetic(self):
        sec = self.require("magnetic")

        def grid(key):
            if key not in sec:
                return None
            return _expr_grid(sec[key], f"[magnetic] {key}")

        k = C = None
        if "k" in sec:
            k = _float_grid(sec["k"], "[magnetic] k")
        if "C" in sec:
            C = _float_grid(sec["C"], "[magnetic] C")
        return MagneticModel.from_expressions(
            self.n, self.m, g=grid("g"), k=k,
            V=_expr(sec.get("V", 0.0), "[magnetic] V"),
            A_base=grid("A_i"), A_fibre=grid("A_alpha"),
            upsilon=grid("Upsilon"), Kcurv=grid("Kcurv"), C=C)

    def simulation(self):
        out = dict(_SIM_DEFAULTS)
        sec = self.sections.get("simulation", {})
        for key, value in sec.items():
            if key == "ic":
                if not isinstance(value, list):
                    raise ParseError("[simulation] ic: expected a list")
                out["ic"] = _finite_list(value, "[simulation] ic")
            elif key in ("seed", "samples"):
                out[key] = _need_int("simulation", key, value)
            else:
                out[key] = _need_float("simulation", key, value)
        return out

    def curve(self, chart):
        sec = self.require("curve")
        sources = [_expr(sec[f"x{i+1}"], f"[curve] x{i+1}")
                   for i in range(self.n)]
        ctx = VarContext([("time", ["t"])])
        fields = [compile_field(s, ctx, label=s) for s in sources]
        y0 = sec["y0"]
        if not isinstance(y0, list):
            raise ParseError("[curve] y0: expected a list")
        y0 = _finite_list(y0, "[curve] y0")
        if len(y0) != self.m:
            raise DimensionMismatch(f"[curve] y0 must have length {self.m}")

        def base_curve(t):
            jets = [f.jet_lists([t]) for f in fields]
            return ([val for val, _, _ in jets],
                    [grad[0] for _, grad, _ in jets])

        return base_curve, y0


def load_config(path):
    cp = configparser.RawConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",),
        delimiters=("=",), strict=True)
    cp.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc}")
    try:
        cp.read_string(raw, source=str(path))
    except configparser.ParsingError as exc:
        line = exc.errors[0][0] if getattr(exc, "errors", None) else None
        raise ParseError(f"config syntax error: {exc}", line)
    except (configparser.DuplicateOptionError,
            configparser.DuplicateSectionError) as exc:
        raise ParseError(str(exc), getattr(exc, "lineno", None))
    except configparser.Error as exc:
        raise ParseError(f"config error: {exc}")

    sections = {}
    for sec in cp.sections():
        if sec not in _FIXED_KEYS and sec not in ("splitting", "curve"):
            raise ParseError(f"unknown section [{sec}]")
        known = _FIXED_KEYS.get(sec)
        body = {}
        for key, value in cp.items(sec):
            if known is not None and key not in known:
                raise ParseError(f"[{sec}] unknown key '{key}'")
            body[key] = _parse_value(value, f"[{sec}] {key}")
        sections[sec] = body
    digest = hashlib.sha256(raw.encode("utf-8")).hexdigest()
    return ModelConfig(str(path), digest, sections)

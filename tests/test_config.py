import hashlib

import numpy as np
import pytest

from fibresplit.config import load_config
from fibresplit.errors import (DimensionMismatch, ParseError,
                               UnknownIdentifier)

FULL = """\
[bundle]
base_dim = 1
fibre_dim = 1
slit_eps = 1e-6

[lagrangian]
L = "0.5*v1^2 + 0.5*w1^2 + w1*v1^2"
homogeneity = 2.0

[splitting]
h1 = "x1*v1 + 0.3"

[curve]
x1 = "sin(t)"
y0 = [0.2]

[action]
K = [["1"]]
C = [[[0.0]]]

[constraints]
A = [["2"]]
A0 = ["0"]

[magnetic]
g = [["1"]]
k = [[2.0]]
V = "0.5*x1^2"
A_alpha = ["6"]

[simulation]
t0 = 0.0
t1 = 2.0        # horizon
dt = 0.001
ic = [0.0, 0.0, 0.5, -0.25]
seed = 7
samples = 40
"""


def write(tmp_path, text, name="model.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def load(tmp_path, text, name="model.ini"):
    return load_config(write(tmp_path, text, name))


def test_full_config_builds_every_object(tmp_path):
    cfg = load(tmp_path, FULL)
    assert (cfg.n, cfg.m) == (1, 1)
    chart = cfg.chart()
    assert chart.slit_eps == 1e-6

    L = cfg.lagrangian(chart)
    assert L.homogeneity_flag == 2.0
    assert abs(L.field.value(np.array([0.0, 0.0, 1.0, 0.0])) - 0.5) < 1e-15

    h = cfg.splitting(chart)
    assert abs(h.h_values([2.0], [0.0], [0.5])[0] - 1.3) < 1e-15

    act = cfg.action(chart)
    assert act.K_matrix([0.1], [0.2])[0][0] == 1.0

    con = cfg.constraints(chart)
    assert np.array_equal(con.reconstruct_w([0.0], [0.0], [0.5]), [-1.0])

    model = cfg.magnetic()
    assert model.k == [[2.0]]
    assert abs(model.V.value(np.array([2.0])) - 2.0) < 1e-15

    curve, y0 = cfg.curve(chart)
    assert np.array_equal(y0, [0.2])
    x, xdot = curve(0.3)
    assert abs(x[0] - np.sin(0.3)) < 1e-15
    assert abs(xdot[0] - np.cos(0.3)) < 1e-15

    sim = cfg.simulation()
    assert sim["t1"] == 2.0 and sim["dt"] == 1e-3
    assert sim["seed"] == 7 and sim["samples"] == 40
    assert sim["box"] == 1.0  # untouched default
    assert np.array_equal(sim["ic"], [0.0, 0.0, 0.5, -0.25])


def test_simulation_defaults(tmp_path):
    cfg = load(tmp_path, "[bundle]\nbase_dim = 1\nfibre_dim = 1\n")
    sim = cfg.simulation()
    assert sim == {"t0": 0.0, "t1": 1.0, "dt": 1e-3, "ic": None,
                   "seed": 42, "samples": 200, "box": 1.0}


def test_sha256_matches_file_bytes(tmp_path):
    p = write(tmp_path, FULL)
    cfg = load_config(p)
    want = hashlib.sha256(p.read_bytes()).hexdigest()
    assert cfg.sha256 == want
    assert load_config(p).sha256 == want


def test_base_lagrangian_rejects_fibre_variables(tmp_path):
    cfg = load(tmp_path, FULL)
    with pytest.raises(UnknownIdentifier):
        cfg.base_lagrangian(cfg.chart())
    ok = load(tmp_path, """\
[bundle]
base_dim = 1
fibre_dim = 1

[lagrangian]
L = "0.5*v1^2 - 0.5*x1^2"
""", name="base.ini")
    field = ok.base_lagrangian(ok.chart())
    assert abs(field.value(np.array([1.0, 0.0])) + 0.5) < 1e-15


def test_require_names_the_missing_section(tmp_path):
    cfg = load(tmp_path, "[bundle]\nbase_dim = 1\nfibre_dim = 1\n")
    with pytest.raises(ParseError, match=r"needs a \[splitting\] section"):
        cfg.require("splitting")


def test_unknown_section_and_key(tmp_path):
    with pytest.raises(ParseError, match=r"unknown section \[extra\]"):
        load(tmp_path, "[bundle]\nbase_dim = 1\nfibre_dim = 1\n[extra]\n")
    with pytest.raises(ParseError, match="unknown key 'Q'"):
        load(tmp_path, "[bundle]\nbase_dim = 1\nfibre_dim = 1\nQ = 3\n")


def test_bundle_section_required(tmp_path):
    with pytest.raises(ParseError, match=r"\[bundle\]"):
        load(tmp_path, "[simulation]\nt1 = 2.0\n")
    with pytest.raises(ParseError, match="base_dim"):
        load(tmp_path, "[bundle]\nfibre_dim = 1\n")
    with pytest.raises(ParseError, match="integer"):
        load(tmp_path, "[bundle]\nbase_dim = 1.5\nfibre_dim = 1\n")


def test_splitting_keys_must_match_fibre_dim(tmp_path):
    with pytest.raises(DimensionMismatch, match=r"\['h1', 'h2'\]"):
        load(tmp_path, "[bundle]\nbase_dim = 1\nfibre_dim = 2\n"
                       '[splitting]\nh1 = "v1"\n')


def test_curve_keys_must_match_base_dim(tmp_path):
    with pytest.raises(DimensionMismatch, match="curve"):
        load(tmp_path, "[bundle]\nbase_dim = 2\nfibre_dim = 1\n"
                       '[curve]\nx1 = "t"\ny0 = [0.0]\n')


def test_curve_y0_validation(tmp_path):
    cfg = load(tmp_path, "[bundle]\nbase_dim = 1\nfibre_dim = 2\n"
                         '[curve]\nx1 = "t"\ny0 = [0.0]\n')
    with pytest.raises(DimensionMismatch, match="length 2"):
        cfg.curve(cfg.chart())
    cfg2 = load(tmp_path, "[bundle]\nbase_dim = 1\nfibre_dim = 1\n"
                          '[curve]\nx1 = "t"\ny0 = 0.0\n', name="c2.ini")
    with pytest.raises(ParseError, match="expected a list"):
        cfg2.curve(cfg2.chart())


def test_duplicate_key_reports_line(tmp_path):
    with pytest.raises(ParseError) as err:
        load(tmp_path, "[bundle]\nbase_dim = 1\nbase_dim = 2\n"
                       "fibre_dim = 1\n")
    assert "base_dim" in str(err.value)


def test_value_parse_errors(tmp_path):
    head = "[bundle]\nbase_dim = 1\nfibre_dim = 1\n"
    with pytest.raises(ParseError, match="double quotes"):
        load(tmp_path, head + "[splitting]\nh1 = x1*v1\n")
    with pytest.raises(ParseError, match="unterminated"):
        load(tmp_path, head + '[splitting]\nh1 = "x1*v1\n')
    with pytest.raises(ParseError, match="trailing"):
        load(tmp_path, head + "[simulation]\nt1 = 1.0 2.0\n")
    with pytest.raises(ParseError, match="',' or ']'"):
        load(tmp_path, head + "[simulation]\nic = [1.0, 2.0\n")


def test_simulation_value_types(tmp_path):
    head = "[bundle]\nbase_dim = 1\nfibre_dim = 1\n"
    cfg = load(tmp_path, head + "[simulation]\nic = 0.5\n")
    with pytest.raises(ParseError, match="expected a list"):
        cfg.simulation()
    cfg2 = load(tmp_path, head + '[simulation]\nic = ["v1"]\n',
                name="c2.ini")
    with pytest.raises(ParseError, match="expected numbers"):
        cfg2.simulation()
    cfg3 = load(tmp_path, head + "[simulation]\nseed = 2.5\n", name="c3.ini")
    with pytest.raises(ParseError, match="integer"):
        cfg3.simulation()


def test_inline_comments_and_bools(tmp_path):
    cfg = load(tmp_path, "[bundle]\nbase_dim = 1  # spatial\n"
                         "fibre_dim = 1\n")
    assert cfg.n == 1

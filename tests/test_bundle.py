import numpy as np
import pytest

from fibresplit.bundle import (BundleChart, DerivedField, SecondTangentPoint,
                               TangentPointM, VectorField,
                               canonical_flip, complete_lift, lie_bracket,
                               mu, tangent_map, vertical_endomorphism,
                               vertical_lift)
from fibresplit.errors import (BasePointMismatch, DimensionMismatch,
                               DomainError)
from fibresplit.exprs import VarContext, compile_field, parse
from fibresplit.splitting import (SplittingSpec, project_horizontal,
                                  project_vertical)


def chart(n=2, m=1):
    return BundleChart(n, m)


def field_m(ch, src):
    ctx = ch.ctx_point()
    return compile_field(parse(src), ctx, label=src)


def rand_stp(ch, rng):
    n, m = ch.n, ch.m
    r = rng.uniform(-1.0, 1.0, 4 * (n + m))
    k = n + m
    return SecondTangentPoint(ch, r[:n], r[n:k], r[k:k + n], r[k + n:2 * k],
                              r[2 * k:2 * k + n], r[2 * k + n:3 * k],
                              r[3 * k:3 * k + n], r[3 * k + n:])


def test_chart_names_and_contexts():
    ch = chart(2, 3)
    assert ch.x_names == ["x1", "x2"]
    assert ch.y_names == ["y1", "y2", "y3"]
    assert ch.v_names == ["v1", "v2"]
    assert ch.w_names == ["w1", "w2", "w3"]
    assert ch.ctx_tangent().names == ch.x_names + ch.y_names \
        + ch.v_names + ch.w_names


@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
def test_slit_eps_must_be_positive_and_finite(eps):
    # the slit radius is written into generated kernel source
    with pytest.raises(ValueError, match="positive"):
        BundleChart(1, 1, eps)


def test_point_length_validation():
    ch = chart()
    with pytest.raises(DimensionMismatch):
        TangentPointM(ch, [0.0], [0.0], [0.0, 0.0], [0.0])
    t = TangentPointM(ch, [1, 2], [3], [4, 5], [6])
    assert list(t.as_array()) == [1, 2, 3, 4, 5, 6]
    assert list(mu(t).as_array()) == [1, 2, 3, 4, 5]


def test_canonical_flip_is_involution():
    ch = chart()
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = rand_stp(ch, rng)
        assert canonical_flip(canonical_flip(s)).as_array() == s.as_array()
        f = canonical_flip(s)
        assert np.array_equal(f.v, s.X) and np.array_equal(f.X, s.v)
        assert np.array_equal(f.W, s.W)


def test_vertical_endomorphism_squares_to_zero():
    ch = chart()
    rng = np.random.default_rng(4)
    for _ in range(20):
        s = rand_stp(ch, rng)
        S1 = vertical_endomorphism(s)
        assert not any(S1.X) and not any(S1.Y)
        assert np.array_equal(S1.V, s.X) and np.array_equal(S1.W, s.Y)
        S2 = vertical_endomorphism(S1)
        assert not any(S2.upper())


def test_vertical_endomorphism_is_the_vertical_lift_of_the_first_block():
    ch = chart()
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = rand_stp(ch, rng)
        lifted = vertical_lift(s, TangentPointM(ch, s.x, s.y, s.X, s.Y))
        assert vertical_endomorphism(s).as_array() == lifted.as_array()


def test_vertical_lift_base_point_guard():
    ch = chart()
    at = TangentPointM(ch, [1, 2], [3], [0, 0], [0])
    vec = TangentPointM(ch, [1, 2], [3], [5, 6], [7])
    lifted = vertical_lift(at, vec)
    assert np.array_equal(lifted.V, [5, 6]) and np.array_equal(lifted.W, [7])
    moved = TangentPointM(ch, [9, 2], [3], [5, 6], [7])
    with pytest.raises(BasePointMismatch):
        vertical_lift(at, moved)


def test_complete_lift_blocks():
    # Z = (y1, -x2, x1*y1) on n=2, m=1
    ch = chart()
    Z = VectorField(ch, [field_m(ch, s) for s in ("y1", "-x2", "x1*y1")])
    at = TangentPointM(ch, [1.0, 2.0], [3.0], [0.5, -0.5], [0.25])
    s = complete_lift(Z, at)
    assert np.allclose(s.X, [3.0, -2.0])
    assert np.allclose(s.Y, [1.0 * 3.0])
    # (V, W) = DZ . (v, w): row grads of Z against (0.5, -0.5, 0.25)
    assert np.allclose(s.V, [0.25, 0.5])
    assert np.allclose(s.W, [3.0 * 0.5 + 1.0 * 0.25])


def test_lie_bracket_antisymmetry_and_known_value():
    ch = BundleChart(2, 1)
    ctx = VarContext([("base", ["x1", "x2"])])

    def vf(*src):
        return VectorField(ch, [compile_field(parse(s), ctx, label=s)
                                for s in src])

    # [d/dx1, x1 d/dx2] = d/dx2
    Z1 = vf("1", "0")
    Z2 = vf("0", "x1")
    br = lie_bracket(Z1, Z2)
    x = np.array([0.3, -0.8])
    assert np.allclose(br.values(x), [0.0, 1.0])
    rev = lie_bracket(Z2, Z1)
    assert np.allclose(br.values(x), -np.array(rev.values(x)))


def test_lie_bracket_jacobi_identity():
    ch = BundleChart(2, 1)
    ctx = VarContext([("base", ["x1", "x2"])])

    def vf(*src):
        return VectorField(ch, [compile_field(parse(s), ctx, label=s)
                                for s in src])

    A = vf("x2", "x1^2")
    B = vf("sin(x1)", "x2")
    C = vf("x1*x2", "1")
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.uniform(-0.7, 0.7, 2)
        total = (np.array(lie_bracket(A, lie_bracket(B, C)).values(x))
                 + lie_bracket(B, lie_bracket(C, A)).values(x)
                 + lie_bracket(C, lie_bracket(A, B)).values(x))
        # bracket values and first derivatives are exact; the nested
        # outer bracket uses one FD hessian, so allow that noise
        assert np.abs(total).max() < 1e-8


def test_vector_field_lives_where_its_component_count_says():
    ch = chart(2, 1)
    ctx = VarContext([("base", ch.x_names)])

    def on_base(*src):
        return VectorField(ch, [compile_field(parse(s), ctx, label=s)
                                for s in src])

    def on_total(*src):
        return VectorField(ch, [field_m(ch, s) for s in src])

    # n = 2 components of x: [d/dx1, x1 d/dx2] = d/dx2 on N
    br = lie_bracket(on_base("1", "0"), on_base("0", "x1"))
    assert [c.arity for c in br.components] == [2, 2]
    assert np.allclose(br.values([0.3, -0.8]), [0.0, 1.0])
    # n + m = 3 components of (x, y): [d/dx1, x1 d/dy1] = d/dy1 on M
    br = lie_bracket(on_total("1", "0", "0"), on_total("0", "0", "x1"))
    assert [c.arity for c in br.components] == [3, 3, 3]
    assert np.allclose(br.values([0.3, -0.8, 0.5]), [0.0, 0.0, 1.0])
    with pytest.raises(DimensionMismatch, match="different spaces"):
        lie_bracket(on_base("1", "0"), on_total("1", "0", "0"))
    for k in (1, 4):
        names = VarContext([("base", [f"q{i+1}" for i in range(k)])])
        with pytest.raises(DimensionMismatch,
                           match=f"need 2 or 3 component fields, got {k}"):
            VectorField(ch, [compile_field(parse("q1"), names)] * k)
    with pytest.raises(DimensionMismatch, match="arity 3, expected 2"):
        VectorField(ch, [field_m(ch, "y1"), field_m(ch, "x1")])


def test_liouville_family_decomposition():
    # the dilation fields are vertical lifts of the point's velocity and of
    # its images under the splitting's projections
    ch = chart(1, 1)
    spec = SplittingSpec.from_expressions(ch, ["x1*v1 + 0.2"])
    at = TangentPointM(ch, [0.5], [1.0], [2.0], [3.0])
    total = vertical_lift(at, at)
    hor = vertical_lift(at, project_horizontal(spec, at))
    ver = vertical_lift(at, project_vertical(spec, at))
    at_rest = TangentPointM(ch, at.x, at.y, [0.0], at.w)
    zero = vertical_lift(at, project_horizontal(spec, at_rest))
    assert np.allclose(total.V, [2.0]) and np.allclose(total.W, [3.0])
    assert np.allclose(hor.W, [0.5 * 2.0 + 0.2])
    assert np.allclose(ver.V, [0.0]) and np.allclose(ver.W, [3.0 - 1.2])
    assert np.allclose(zero.V, [0.0]) and np.allclose(zero.W, [0.2])
    # total = horizontal + vertical on the upper block
    assert np.allclose(total.upper(), np.array(hor.upper()) + ver.upper())


def test_derived_field_jet_matches_smooth_reference():
    # vg from the closed form of f = sin(a)*b; FD hessian should land 1e-6
    def vg(q):
        a, b = q
        return np.sin(a) * b, np.array([np.cos(a) * b, np.sin(a)])

    f = DerivedField(2, vg, label="sin(a)*b")
    ctx = VarContext([("base", ["a", "b"])])
    ref = compile_field(parse("sin(a)*b"), ctx)
    q = np.array([0.6, -1.3])
    jf, jr = f.jet(q), ref.jet(q)
    assert abs(jf.value - jr.value) < 1e-15
    assert np.abs(np.subtract(jf.gradient, jr.gradient)).max() < 1e-15
    assert np.abs(np.subtract(jf.hessian, jr.hessian)).max() < 1e-7


def test_derived_field_vg_lists_skip_the_differenced_hessian():
    calls = []

    def vg(q):
        calls.append(q)
        a, b = np.array(q)
        return np.sin(a) * b, np.array([np.cos(a) * b, b / a])

    f = DerivedField(2, vg, label="vg")
    val, grad = f.vg_lists([0.6, -1.3])
    assert len(calls) == 1
    jet = f.jet_lists([0.6, -1.3])
    assert len(calls) == 2 + 2 * 2
    assert (val, grad) == jet[:2] and type(val) is float
    # checked as jet() checks them
    with np.errstate(divide="ignore"), \
            pytest.raises(DomainError, match="non-finite"):
        f.vg_lists([0.0, 1.0])
    with pytest.raises(DimensionMismatch):
        f.vg_lists([0.6])


def test_tangent_map_of_linear_map_is_exact():
    # map (x,y,v,w) -> (2x, y + x, v, w - v) on n=m=1; DF constant
    ch = chart(1, 1)
    ctx = ch.ctx_tangent()

    def f(src):
        return compile_field(parse(src), ctx, label=src)

    fields = [f("2*x1"), f("y1 + x1"), f("v1"), f("w1 - v1")]
    rng = np.random.default_rng(6)
    s = rand_stp(ch, rng)
    out = tangent_map(fields, s)
    x, y, X, Y, V, W = map(np.array, (s.x, s.y, s.X, s.Y, s.V, s.W))
    assert np.allclose(out.x, 2 * x)
    assert np.allclose(out.y, y + x)
    assert np.allclose(out.X, 2 * X)
    assert np.allclose(out.Y, Y + X)
    assert np.allclose(out.W, W - V)

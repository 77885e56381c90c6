"""Connection, curvature, and derived-tensor tests.

Expected component tables are frozen as generator dictionaries and expanded
through the symmetry-orbit helper; every comparison is a randomized
high-precision zero test of engine-minus-expected.
"""

import random
from fractions import Fraction

import mpmath
import pytest

import helpers
from helpers import chart_parse, expected_array
from warpcurv import expr as ex
from warpcurv.cli import build_chart, fixture_path, load_manifest
from warpcurv.curvature import (
    CurvatureBundle, bundle, christoffel, covariant_hessian, derived_tensors,
    ricci_scalar, riemann,
)
from warpcurv.tensor import (
    ChartError, TensorField, gaussian, is_generalized_curvature, metric_inverse,
)


def _all_idx(n, rank):
    idx = [()]
    for _ in range(rank):
        idx = [t + (i,) for t in idx for i in range(n)]
    return idx


def _diffs(field, expected):
    out = []
    for t in _all_idx(field.chart.n, field.rank):
        want = expected
        for i in t:
            want = want[i]
        out.append(ex.sub(field.comp(t), want))
    return out


# ---------------------------------------------------------------------------
# Christoffel symbols


def test_polar_connection_components():
    c = helpers.polar_chart()
    p = chart_parse(c)
    gam = christoffel(c)
    assert c.is_zero(ex.sub(gam[0][1][1], p("-r")))
    assert c.is_zero(ex.sub(gam[1][0][1], p("1/r")))
    assert gam[0][0][0] == ex.const(0)
    assert gam[1][1][1] == ex.const(0)


def test_flat_connection_vanishes():
    c = helpers.flat_chart(3)
    gam = christoffel(c)
    assert all(gam[k][i][j] == ex.const(0)
               for k in range(3) for i in range(3) for j in range(3))


def test_segment_connection_component(base_c):
    p = chart_parse(base_c)
    gam = christoffel(base_c)
    want = p("-a*(1 + x1)/(1 + a*(1 + x1)^2)")
    d = ex.sub(gam[0][0][0], want)
    assert base_c.is_zero(d)
    assert base_c.is_zero(d, params={"a": Fraction(3, 7)})


def test_connection_symmetric_in_lower_pair(ex2_c):
    gam = christoffel(ex2_c)
    for k in range(4):
        for i in range(4):
            for j in range(i + 1, 4):
                assert gam[k][i][j] is gam[k][j][i]


# ---------------------------------------------------------------------------
# Riemann tensor


def test_flat_curvature_vanishes():
    R = riemann(helpers.flat_chart(3))
    assert all(R.comp(t) == ex.const(0) for t in _all_idx(3, 4))


EX2_R = {
    "1212": "-exp(x1)/(1 + 2*exp(x1))",
    "1313": "-exp(x1)/(1 + 2*exp(x1))",
    "1414": "-exp(x1)/(1 + 2*exp(x1))",
    "2323": "-exp(2*x1)/(1 + 2*exp(x1))",
    "2424": "-exp(2*x1)/(1 + 2*exp(x1))",
    "3434": "-exp(2*x1)/(1 + 2*exp(x1))",
}


def test_conformally_flat_chart_curvature(ex2_c):
    want = expected_array(4, 4, EX2_R, chart_parse(ex2_c))
    assert all(ex2_c.is_zero_many(_diffs(riemann(ex2_c), want)))


EX2_S = [
    ["3*exp(x1)/(1 + 2*exp(x1))^2", "0", "0", "0"],
    ["0", "exp(x1)/(1 + 2*exp(x1))", "0", "0"],
    ["0", "0", "exp(x1)/(1 + 2*exp(x1))", "0"],
    ["0", "0", "0", "exp(x1)/(1 + 2*exp(x1))"],
]


def test_conformally_flat_chart_ricci_and_scalar(ex2_c):
    p = chart_parse(ex2_c)
    S, kappa = ricci_scalar(ex2_c)
    assert S.sym == "sym2"
    diffs = [ex.sub(S.comps[i][j], p(EX2_S[i][j])) for i in range(4) for j in range(4)]
    assert all(ex2_c.is_zero_many(diffs))
    want_k = p("6*exp(x1)*(1 + exp(x1))/(1 + 2*exp(x1))^3")
    assert ex2_c.is_zero(ex.sub(kappa, want_k))


FIBER_R = {
    "1212": "-exp(2*x1)*x4^2",
    "1213": "-exp(2*x1)",
    "1414": "-exp(2*x1)",
    "2323": "-exp(4*x1)",
    "2424": "exp(2*x1)*(exp(2*x1)*x4^2 - 1)",
    "2434": "exp(4*x1)",
}


def test_null_direction_fiber_curvature(fiber_c):
    want = expected_array(4, 4, FIBER_R, chart_parse(fiber_c))
    assert all(fiber_c.is_zero_many(_diffs(riemann(fiber_c), want)))


FIBER_S = [
    ["3", "0", "0", "0"],
    ["0", "1 - 3*exp(2*x1)*x4^2", "-3*exp(2*x1)", "0"],
    ["0", "-3*exp(2*x1)", "0", "0"],
    ["0", "0", "0", "-3*exp(2*x1)"],
]


def test_null_direction_fiber_ricci_and_scalar(fiber_c):
    p = chart_parse(fiber_c)
    S, kappa = ricci_scalar(fiber_c)
    diffs = [ex.sub(S.comps[i][j], p(FIBER_S[i][j])) for i in range(4) for j in range(4)]
    assert all(fiber_c.is_zero_many(diffs))
    assert fiber_c.is_zero(ex.sub(kappa, ex.const(-12)))


WARPED5_R = {
    "1212": "a*(1 + x1)^2/(1 + a*(1 + x1)^2)",
    "1313": "-a*exp(2*x2)*(1 + x1)^2*x5^2/(1 + a*(1 + x1)^2)",
    "1314": "-a*exp(2*x2)*(1 + x1)^2/(1 + a*(1 + x1)^2)",
    "1515": "-a*exp(2*x2)*(1 + x1)^2/(1 + a*(1 + x1)^2)",
    "2323": "a*exp(2*x2)*(1 + x1)^4*x5^2",
    "2324": "a*exp(2*x2)*(1 + x1)^4",
    "2525": "a*exp(2*x2)*(1 + x1)^4",
    "3434": "a*exp(4*x2)*(1 + x1)^4",
    "3545": "-a*exp(4*x2)*(1 + x1)^4",
    "3535": "-exp(2*x2)*(1 + x1)^2*(a*exp(2*x2)*(1 + x1)^2*x5^2 + 1)",
}


def test_warped_five_chart_curvature(warped5_c):
    want = expected_array(5, 4, WARPED5_R, chart_parse(warped5_c))
    diffs = _diffs(riemann(warped5_c), want)
    assert all(warped5_c.is_zero_many(diffs))
    assert all(warped5_c.is_zero_many(diffs, params={"a": Fraction(3, 7)}))


WARPED5_S = {
    (0, 0): "4*a/(1 + a*(1 + x1)^2)",
    (1, 1): "-4*a*(1 + x1)^2",
    (2, 2): "4*a*exp(2*x2)*(1 + x1)^2*x5^2 + 1",
    (2, 3): "4*a*exp(2*x2)*(1 + x1)^2",
    (3, 2): "4*a*exp(2*x2)*(1 + x1)^2",
    (4, 4): "4*a*exp(2*x2)*(1 + x1)^2",
}


def test_warped_five_chart_ricci_and_scalar(warped5_c):
    p = chart_parse(warped5_c)
    S, kappa = ricci_scalar(warped5_c)
    diffs = [ex.sub(S.comps[i][j], p(WARPED5_S.get((i, j), "0")))
             for i in range(5) for j in range(5)]
    assert all(warped5_c.is_zero_many(diffs))
    dk = ex.sub(kappa, p("20*a"))
    assert warped5_c.is_zero(dk)
    assert warped5_c.is_zero(dk, params={"a": Fraction(-2)})


def test_curvature_symmetries_hold(ex2_c, fiber_c):
    assert is_generalized_curvature(riemann(ex2_c))
    assert is_generalized_curvature(riemann(fiber_c))


def test_warped_first_bianchi(warped5_c):
    d = riemann(warped5_c).comps
    defects = []
    for (i, j, k) in _all_idx(5, 3):
        for l in range(5):
            defects.append(ex.add(d[i][j][k][l], d[j][k][i][l], d[k][i][j][l]))
    assert all(warped5_c.is_zero_many(defects))


# ---------------------------------------------------------------------------
# Covariant Hessian


def test_hessian_flat_bilinear():
    c = helpers.flat_chart(2)
    p = chart_parse(c)
    H = covariant_hessian(c, p("x1*x2"))
    assert H.sym == "sym2"
    assert H.comps[0][0] == ex.const(0)
    assert H.comps[0][1] == ex.const(1)
    assert H.comps[1][0] == ex.const(1)
    assert H.comps[1][1] == ex.const(0)


def test_hessian_on_segment(base_c):
    p = chart_parse(base_c)
    H = covariant_hessian(base_c, p("(1 + x1)^2"))
    want = p("(2 + 4*a*(1 + x1)^2)/(1 + a*(1 + x1)^2)")
    assert base_c.is_zero(ex.sub(H.comps[0][0], want))


def test_hessian_of_constant_vanishes(ex2_c):
    H = covariant_hessian(ex2_c, ex.const(5))
    assert all(H.comps[i][j] == ex.const(0) for i in range(4) for j in range(4))


# ---------------------------------------------------------------------------
# Derived tensors


def test_bundle_tensors_are_memoized_properties():
    # perfbench/tracer.py replaces a property's getter with a timed wrapper,
    # so the memo must live in the getter, not in the descriptor
    for name in ("gamma", "R", "S", "kappa", "K", "C", "W", "P"):
        assert isinstance(vars(CurvatureBundle)[name], property), name
    b = bundle(helpers.aniso3_chart())
    assert b.R is b.R and b.kappa is b.kappa and b.P is b.P


def test_derived_tensors_require_three_dimensions():
    c = helpers.polar_chart()
    with pytest.raises(ChartError):
        derived_tensors(bundle(c))
    with pytest.raises(ChartError):
        bundle(c).C


def test_conformal_tensor_is_trace_free(ex2_c):
    C = bundle(ex2_c).C
    gi = metric_inverse(ex2_c).comps
    traces = []
    for j in range(4):
        for k in range(4):
            traces.append(ex.add(*[
                ex.mul(gi[i][l], C.comps[i][j][k][l])
                for i in range(4) for l in range(4)]))
    assert all(ex2_c.is_zero_many(traces))


def test_derived_family_symmetries(ex2_c):
    b = bundle(ex2_c)
    d = derived_tensors(b)
    assert set(d) == {"C", "W", "K", "P"}
    assert is_generalized_curvature(d["C"])
    assert is_generalized_curvature(d["W"])
    assert is_generalized_curvature(d["K"])
    assert not is_generalized_curvature(d["P"])


def test_constant_curvature_weyl_vanishes(sphere3_c):
    W = bundle(sphere3_c).W
    assert all(sphere3_c.is_zero_many([W.comp(t) for t in _all_idx(3, 4)]))


def test_warped_scalar_is_constant_and_weyl_shifts(warped5_c):
    b = bundle(warped5_c)
    p = chart_parse(warped5_c)
    assert warped5_c.is_zero(ex.sub(b.kappa, p("20*a")))
    G = gaussian(warped5_c)
    a = p("a")
    diffs = [
        ex.sub(b.W.comp(t), ex.sub(b.R.comp(t), ex.mul(a, G.comp(t))))
        for t in _all_idx(5, 4)
    ]
    assert all(warped5_c.is_zero_many(diffs))


def test_projective_term_wiring(ex2_c):
    b = bundle(ex2_c)
    p = chart_parse(ex2_c)
    # hand value for indices (1,2,2,1): R_1221 - (1/2) S_22 g_11
    want = p("exp(x1)/(1 + 2*exp(x1)) - exp(x1)/2")
    assert ex2_c.is_zero(ex.sub(b.P.comps[0][1][1][0], want))
    g = ex2_c.metric
    S = b.S.comps
    rng = random.Random(11)
    for _ in range(20):
        i, j, k, l = (rng.randrange(4) for _ in range(4))
        direct = ex.sub(
            b.R.comps[i][j][k][l],
            ex.mul(ex.const(Fraction(1, 2)),
                   ex.sub(ex.mul(S[j][k], g[i][l]), ex.mul(S[i][k], g[j][l]))))
        assert ex2_c.is_zero(ex.sub(b.P.comps[i][j][k][l], direct))


def test_bundle_results_are_cached(ex2_c):
    b = bundle(ex2_c)
    assert bundle(ex2_c) is b
    assert b.C is b.C
    assert christoffel(ex2_c) is christoffel(ex2_c)
    assert riemann(ex2_c) is riemann(ex2_c)


# ---------------------------------------------------------------------------
# Finite-difference reconstruction from metric samples


def _close_enough(a, b, tol="1e-5"):
    t = mpmath.mpf(tol)
    return abs(a - b) <= t * (1 + abs(a))


def test_connection_matches_finite_differences(ex2_c):
    gam = christoffel(ex2_c)
    pts = ex2_c.sample_points(5, seed=20240601)
    for pt in pts:
        pe = ex.PointEval(pt, dps=60)
        fd = helpers.fd_christoffel(ex2_c, pt)
        with mpmath.workdps(60):
            for k in range(4):
                for i in range(4):
                    for j in range(4):
                        got = helpers.to_mpf(pe.eval(gam[k][i][j]))
                        assert _close_enough(got, fd[k][i][j])


def test_curvature_matches_finite_differences(ex2_c):
    R = riemann(ex2_c)
    pts = ex2_c.sample_points(5, seed=20240602)
    for pt in pts:
        pe = ex.PointEval(pt, dps=60)
        fd = helpers.fd_riemann(ex2_c, pt)
        with mpmath.workdps(60):
            for t in _all_idx(4, 4):
                got = helpers.to_mpf(pe.eval(R.comp(t)))
                i, j, k, l = t
                assert _close_enough(got, fd[i][j][k][l])


# ---------------------------------------------------------------------------
# An independent oracle: SymPy differentiates the manifest's metric entries,
# and Gamma, R, S and kappa are contracted numerically at 60 digits.


def _sympy_metric(sympy, path):
    """(coords, symmetric sympy metric) read straight from a chart manifest."""
    coords, entries = None, {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    for line in lines:
        key, _, value = line.split("#")[0].partition("=")
        toks = key.split()
        if toks == ["coords"]:
            coords = value.split()
        elif toks[:1] == ["g"]:
            i, j = int(toks[1]) - 1, int(toks[2]) - 1
            entries[i, j] = entries[j, i] = value.strip().replace("^", "**")
    syms = sympy.symbols(coords)
    names = dict(zip(coords, syms))
    g = sympy.Matrix(len(coords), len(coords),
                     lambda i, j: sympy.sympify(entries.get((i, j), "0"),
                                                locals=names))
    return syms, g


def _sympy_curvature(sympy, syms, g, point):
    """Gamma[k][i][j], R[i][j][k][l], S[j][k] and kappa at `point`.

    R_ijkl = -g(R(d_i, d_j) d_k, d_l) with R(X,Y) = [nabla_X, nabla_Y] -
    nabla_[X,Y], the README convention: kappa = -2 and S = -g on the unit
    2-sphere.
    """
    n = len(syms)
    rng = range(n)
    subs = {s: sympy.Rational(point[str(s)].numerator, point[str(s)].denominator)
            for s in syms}

    def num(e):
        return mpmath.mpf(str(sympy.N(e.subs(subs), 70)))

    dg = [[[sympy.diff(g[i, j], syms[d]) for d in rng] for j in rng] for i in rng]
    G = mpmath.matrix([[num(g[i, j]) for j in rng] for i in rng])
    Gi = G ** -1
    d1 = [[[num(dg[i][j][d]) for d in rng] for j in rng] for i in rng]
    d2 = [[[[num(sympy.diff(dg[i][j][d], syms[e])) for e in rng] for d in rng]
           for j in rng] for i in rng]
    # d_e g^{kl} = -g^{ka} (d_e g_ab) g^{bl}
    dGi = [[[-sum(Gi[k, a] * d1[a][b][e] * Gi[b, l] for a in rng for b in rng)
             for e in rng] for l in rng] for k in rng]

    def first(i, j, l):                             # d_i g_jl + d_j g_il - d_l g_ij
        return d1[j][l][i] + d1[i][l][j] - d1[i][j][l]

    def first_d(i, j, l, e):
        return d2[j][l][i][e] + d2[i][l][j][e] - d2[i][j][l][e]

    gam = [[[sum(Gi[k, l] * first(i, j, l) for l in rng) / 2 for j in rng]
            for i in rng] for k in rng]
    dgam = [[[[sum(dGi[k][l][e] * first(i, j, l) + Gi[k, l] * first_d(i, j, l, e)
                   for l in rng) / 2 for e in rng] for j in rng] for i in rng]
            for k in rng]
    R = [[[[-sum(G[l, m] * (dgam[m][j][k][i] - dgam[m][i][k][j]
                            + sum(gam[e][j][k] * gam[m][i][e]
                                  - gam[e][i][k] * gam[m][j][e] for e in rng))
                 for m in rng)
            for l in rng] for k in rng] for j in rng] for i in rng]
    S = [[sum(Gi[i, l] * R[i][j][k][l] for i in rng for l in rng) for k in rng]
         for j in rng]
    kappa = sum(Gi[j, k] * S[j][k] for j in rng for k in rng)
    return gam, R, S, kappa


def _flat_values(arr):
    if isinstance(arr, list):
        return [v for a in arr for v in _flat_values(a)]
    return [arr]


def test_sympy_unit_sphere_anchors():
    sympy = pytest.importorskip("sympy")
    syms, g = _sympy_metric(sympy, fixture_path("sphere2.mf"))
    with mpmath.workdps(60):
        _, _, S, kappa = _sympy_curvature(sympy, syms, g,
                                          {"t1": Fraction(2, 3), "t2": Fraction(1, 5)})
        assert abs(kappa + 2) < mpmath.mpf(10) ** -50
        gs = [[1, 0], [0, mpmath.sin(mpmath.mpf(2) / 3) ** 2]]
        assert all(abs(S[j][k] + gs[j][k]) < mpmath.mpf(10) ** -50
                   for j in range(2) for k in range(2))


@pytest.mark.parametrize("name", ["sphere2.mf", "aniso3.mf", "ex1_fiber.mf"])
def test_curvature_matches_sympy_oracle(name):
    sympy = pytest.importorskip("sympy")
    path = fixture_path(name)
    chart = build_chart(load_manifest(path))
    syms, g = _sympy_metric(sympy, path)
    b = bundle(chart)
    engine = {"Gamma": b.gamma, "R": b.R.comps, "S": b.S.comps, "kappa": b.kappa}
    for pt in chart.sample_points(2, seed=7):
        pe = ex.PointEval(pt)
        with mpmath.workdps(60):
            gam, R, S, kappa = _sympy_curvature(sympy, syms, g, pt)
            for key, want in (("Gamma", gam), ("R", R), ("S", S),
                              ("kappa", kappa)):
                got = [helpers.to_mpf(pe.eval(e)) for e in _flat_values(engine[key])]
                want = _flat_values(want)
                scale = max([abs(w) for w in want] + [mpmath.mpf(1)])
                worst = max(abs(a - w) for a, w in zip(got, want)) / scale
                assert worst <= mpmath.mpf(10) ** -30, (name, key, pt)

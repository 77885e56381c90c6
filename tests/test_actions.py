"""Derivation-action and Tachibana-operator tests.

Engine outputs are checked three ways: against an independent naive numeric
loop oracle on small polynomial charts, against frozen six-index component
tables expanded by symmetry orbits, and against structural identities that
tie the two operators together.
"""

import random
from fractions import Fraction
from itertools import product as iproduct

import mpmath
import pytest

import helpers
from helpers import chart_parse, expected_array
from warpcurv import expr as ex
from warpcurv.actions import (
    cached_derivation, cached_tachibana, derivation_action, derivation_comps,
    deszcz_ratio, tachibana, tachibana_comps,
)
from warpcurv.curvature import bundle
from warpcurv.tensor import (
    Chart, ChartError, TensorField, _OrbitField, gaussian, pair_rep, pair_reps)


def _all_idx(n, rank):
    return list(iproduct(range(n), repeat=rank))


def _get(arr, idx):
    for i in idx:
        arr = arr[i]
    return arr


def _num_nested(arr, rank, pe):
    if rank == 0:
        return helpers.to_mpf(pe.eval(arr))
    return [_num_nested(a, rank - 1, pe) for a in arr]


def _poly_chart():
    return Chart(
        ("x1", "x2", "x3"),
        [["2 + x1^2", "x1*x2/8", "0"],
         ["x1*x2/8", "3 + x2^2", "x2*x3/8"],
         ["0", "x2*x3/8", "4 + x3^2"]])


def _random_sym2(rng, chart, depth=2):
    n = chart.n
    comps = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = helpers.random_expr(rng, chart.coords, depth)
            comps[i][j] = comps[j][i] = e
    return TensorField(chart, (0, 2), comps, sym="sym2")


def _random_four(rng, chart, depth=1):
    n = chart.n
    comps = [[[[helpers.random_expr(rng, chart.coords, depth)
                for _ in range(n)] for _ in range(n)]
              for _ in range(n)] for _ in range(n)]
    return TensorField(chart, (0, 4), comps)


# ---------------------------------------------------------------------------
# Naive numeric loop oracles


def _naive_derivation(gn, Dn, Hn, rank):
    n = len(gn)
    gi = mpmath.matrix(gn) ** -1
    dup = [[[[sum(gi[t, s] * Dn[u][v][i][s] for s in range(n))
              for i in range(n)] for v in range(n)] for u in range(n)]
           for t in range(n)]
    out = {}
    for idx in iproduct(range(n), repeat=rank):
        for u in range(n):
            for v in range(n):
                acc = mpmath.mpf(0)
                for m in range(rank):
                    for t in range(n):
                        jdx = idx[:m] + (t,) + idx[m + 1:]
                        acc += dup[t][u][v][idx[m]] * _get(Hn, jdx)
                out[idx + (u, v)] = -acc
    return out


def _naive_tachibana(An, Hn, rank):
    n = len(An)
    out = {}
    for idx in iproduct(range(n), repeat=rank):
        for u in range(n):
            for v in range(n):
                acc = mpmath.mpf(0)
                for m in range(rank):
                    jv = idx[:m] + (v,) + idx[m + 1:]
                    ju = idx[:m] + (u,) + idx[m + 1:]
                    acc += An[u][idx[m]] * _get(Hn, jv)
                    acc -= An[v][idx[m]] * _get(Hn, ju)
                out[idx + (u, v)] = acc
    return out


def _assert_matches_naive(chart, engine, naive_at):
    pts = chart.sample_points(3, seed=424242)
    with mpmath.workdps(50):
        tol = mpmath.mpf("1e-40")
        for pt in pts:
            pe = ex.PointEval(pt)
            gn = _num_nested(chart.metric, 2, pe)
            want = naive_at(gn, pe)
            scale = max((abs(x) for x in want.values()), default=mpmath.mpf(0))
            for idx, w in want.items():
                got = helpers.to_mpf(pe.eval(engine.comp(idx)))
                assert abs(got - w) <= tol * (1 + scale)


def test_derivation_matches_naive_loops():
    c = _poly_chart()
    rng = random.Random(7)
    b = bundle(c)
    cases = [
        (b.R, b.S),
        (b.R, b.R),
        (_random_four(rng, c), b.S),
        (_random_four(rng, c), b.R),
    ]
    for D, H in cases:
        out = derivation_action(D, H)
        assert out.valence == (0, H.rank + 2)

        def naive(gn, pe, D=D, H=H):
            Dn = _num_nested(D.comps, 4, pe)
            Hn = _num_nested(H.comps, H.rank, pe)
            return _naive_derivation(gn, Dn, Hn, H.rank)

        _assert_matches_naive(c, out, naive)


def test_tachibana_matches_naive_loops():
    c = _poly_chart()
    rng = random.Random(8)
    b = bundle(c)
    cases = [
        (c.metric_field(), b.R),
        (b.S, b.R),
        (_random_sym2(rng, c), b.S),
    ]
    for A, H in cases:
        out = tachibana(A, H)
        assert out.valence == (0, H.rank + 2)

        def naive(gn, pe, A=A, H=H):
            An = _num_nested(A.comps, 2, pe)
            Hn = _num_nested(H.comps, H.rank, pe)
            return _naive_tachibana(An, Hn, H.rank)

        _assert_matches_naive(c, out, naive)


def test_componentwise_builders_match_dense():
    # the same trees, node for node, at any tuples in any order
    c = _poly_chart()
    b = bundle(c)
    rng = random.Random(9)
    for build, comps, A, H in (
            (derivation_action, derivation_comps, b.R, b.S),
            (derivation_action, derivation_comps, b.R, b.R),
            (tachibana, tachibana_comps, c.metric_field(), b.R),
            (tachibana, tachibana_comps, b.S, b.S)):
        dense = build(A, H)
        tuples = _all_idx(3, H.rank + 2)
        rng.shuffle(tuples)
        got = comps(A, H, tuples)
        assert all(e is dense.comp(t) for e, t in zip(got, tuples))


@pytest.mark.parametrize("name", ["aniso3.mf", "ex1_fiber.mf", "ex2_warped.mf"])
def test_bundle_orbit_actions_match_dense(name):
    # the bundle memo stores the actions of a curvature-type H at orbit
    # representatives; every component it gives equals the dense builder's
    from warpcurv.cli import _scaffold, fixture_path, load_manifest
    c, _, _ = _scaffold(load_manifest(fixture_path(name)), 7, 8)
    b = bundle(c)
    g = c.metric_field()
    diffs = []
    for memo, build, A, H, an, hn in (
            (cached_derivation, derivation_action, b.R, b.R, "R", "R"),
            (cached_tachibana, tachibana, g, b.R, "g", "R"),
            (cached_tachibana, tachibana, b.S, b.R, "S", "R"),
            (cached_derivation, derivation_action, b.W, b.R, "W", "R"),
            (cached_derivation, derivation_action, b.P, b.R, "P", "R"),
            (cached_derivation, derivation_action, b.R, b.C, "R", "C"),
            (cached_tachibana, tachibana, g, b.C, "g", "C")):
        orbit = memo(b, an, hn)
        assert isinstance(orbit, _OrbitField)
        dense = build(A, H)
        diffs += [ex.sub(orbit.comp(t), dense.comp(t)) for t in _all_idx(c.n, 6)]
    assert all(c.is_zero_many(diffs))


def _actions_on_s(b):
    """(memo field, dense oracle) of R.S, Q(g,S), Q(S,S), and of W.S and
    P.S from dimension 3 on."""
    g = b.chart.metric_field()
    pairs = [(cached_derivation(b, "R", "S"), derivation_action(b.R, b.S)),
             (cached_tachibana(b, "g", "S"), tachibana(g, b.S)),
             (cached_tachibana(b, "S", "S"), tachibana(b.S, b.S))]
    if b.chart.n >= 3:
        pairs += [(cached_derivation(b, d, "S"), derivation_action(getattr(b, d), b.S))
                  for d in ("W", "P")]
    return pairs


@pytest.mark.parametrize("name", ["sphere2.mf", "hyper2.mf", "sphere.mf",
                                  "aniso3.mf", "ex1_fiber.mf", "ex2_warped.mf"])
def test_bundle_pair_actions_match_dense(name):
    # the bundle memo stores the actions of an H tagged sym2 at i <= j,
    # u < v; every component it gives equals the dense builder's
    from warpcurv.cli import _scaffold, fixture_path, load_manifest
    c, _, _ = _scaffold(load_manifest(fixture_path(name)), 7, 8)
    b = bundle(c)
    n = c.n
    pairs = _actions_on_s(b)
    assert len(pairs) == (5 if n >= 3 else 3)
    diffs = []
    for field, dense in pairs:
        assert isinstance(field, _OrbitField) and field.sym == "pair"
        assert list(field.tuples()) == list(pair_reps(n))
        assert len(field.stored()) == n * (n + 1) // 2 * n * (n - 1) // 2
        diffs += [ex.sub(field.comp(t), dense.comp(t)) for t in _all_idx(n, 4)]
    assert all(c.is_zero_many(diffs))
    # an H tagged none (P) has no pair symmetry: its actions stay dense
    if n >= 3:
        for field in (cached_derivation(b, "R", "P"), cached_tachibana(b, "g", "P")):
            assert not isinstance(field, _OrbitField)
            assert len(list(field.tuples())) == n ** field.rank


def test_dense_actions_on_s_have_the_pair_symmetry():
    # on a polynomial chart every component is rational: each dense
    # component is, exactly, its representative's times the sign of
    # pair_rep, and 0 where u = v
    c = _poly_chart()
    b = bundle(c)
    pairs = _actions_on_s(b)
    for pt in c.sample_points(3, seed=2024):
        pe = ex.PointEval(pt)
        for field, dense in pairs:
            for t in _all_idx(3, 4):
                sign, rep = pair_rep(t)
                got = pe.eval(dense.comp(t))
                assert type(got) is Fraction
                assert got == (sign * pe.eval(dense.comp(rep)) if sign else 0), t
                assert pe.eval(field.comp(t)) == got, t


def test_operand_validation():
    c = _poly_chart()
    c2 = helpers.flat_chart(3)
    b = bundle(c)
    with pytest.raises(ChartError):
        derivation_action(b.R, bundle(c2).R)
    with pytest.raises(ChartError):
        derivation_action(b.S, b.R)
    with pytest.raises(ChartError):
        tachibana(_random_four(random.Random(1), c), b.R)


# ---------------------------------------------------------------------------
# Frozen component tables


FIBER_RR = {
    "122414": "exp(2*x1)",
    "142412": "-exp(2*x1)",
    "232424": "exp(4*x1)",
    "242423": "-2*exp(4*x1)",
}

FIBER_QGR = {
    "122414": "-exp(2*x1)",
    "142412": "exp(2*x1)",
    "232424": "-exp(4*x1)",
    "242423": "2*exp(4*x1)",
}

FIBER_QSR = {
    "121223": "-2*exp(2*x1)",
    "121424": "-exp(2*x1)",
    "122312": "exp(2*x1)",
    "122414": "3*exp(2*x1)",
    "142412": "-2*exp(2*x1)",
    "232424": "2*exp(4*x1)",
    "242423": "-4*exp(4*x1)",
}

EX2_PATTERN = {
    "122313": 1, "122414": 1, "132312": -1, "133414": 1, "142412": -1,
    "143413": -1,
}


def _pattern_gens(scale_str):
    return {key: (f"({scale_str})" if sgn > 0 else f"-({scale_str})")
            for key, sgn in EX2_PATTERN.items()}


def _table_diffs(field, gens):
    want = expected_array(field.chart.n, 6, gens, chart_parse(field.chart))
    return [ex.sub(field.comp(t), _get(want, t))
            for t in _all_idx(field.chart.n, 6)]


def test_fiber_action_tables(fiber_c):
    b = bundle(fiber_c)
    rr = cached_derivation(b, "R", "R")
    assert all(fiber_c.is_zero_many(_table_diffs(rr, FIBER_RR)))
    qgr = cached_tachibana(b, "g", "R")
    assert all(fiber_c.is_zero_many(_table_diffs(qgr, FIBER_QGR)))
    qsr = cached_tachibana(b, "S", "R")
    assert all(fiber_c.is_zero_many(_table_diffs(qsr, FIBER_QSR)))


def test_fiber_last_pair_antisymmetry(fiber_c):
    # the dense builders: the orbit storage of the bundle's actions relies
    # on this symmetry
    b = bundle(fiber_c)
    rr = derivation_action(b.R, b.R).comps
    qgr = tachibana(fiber_c.metric_field(), b.R).comps
    defects = []
    for t in _all_idx(4, 4):
        for u in range(4):
            for v in range(u, 4):
                a = _get(rr, t + (u, v))
                bb = _get(rr, t + (v, u))
                defects.append(ex.add(a, bb))
                a = _get(qgr, t + (u, v))
                bb = _get(qgr, t + (v, u))
                defects.append(ex.add(a, bb))
    assert all(fiber_c.is_zero_many(defects))


def test_conformal_chart_action_tables(ex2_c):
    b = bundle(ex2_c)
    X = "exp(2*x1)*(exp(x1) - 1)/(1 + 2*exp(x1))^3"
    Y = "exp(x1)*(exp(x1) - 1)"
    rr = cached_derivation(b, "R", "R")
    assert all(ex2_c.is_zero_many(_table_diffs(rr, _pattern_gens(X))))
    qgr = cached_tachibana(b, "g", "R")
    assert all(ex2_c.is_zero_many(_table_diffs(qgr, _pattern_gens(Y))))
    qsr = cached_tachibana(b, "S", "R")
    assert all(ex2_c.is_zero_many(_table_diffs(qsr, _pattern_gens(X))))


def test_conformal_chart_projective_action(ex2_c):
    # engine value: P.R = R.R - (1/2) Q(S,R) = (1/2) X * pattern here
    b = bundle(ex2_c)
    pr = cached_derivation(b, "P", "R")
    half_x = "exp(2*x1)*(exp(x1) - 1)/(2*(1 + 2*exp(x1))^3)"
    assert all(ex2_c.is_zero_many(_table_diffs(pr, _pattern_gens(half_x))))


def test_projective_action_identity(ex2_c, fiber_c):
    for c in (ex2_c, fiber_c):
        b = bundle(c)
        pr = cached_derivation(b, "P", "R")
        rr = cached_derivation(b, "R", "R")
        qsr = cached_tachibana(b, "S", "R")
        f = ex.const(Fraction(1, c.n - 2))
        diffs = [
            ex.sub(pr.comp(t), ex.sub(rr.comp(t), ex.mul(f, qsr.comp(t))))
            for t in _all_idx(c.n, 6)
        ]
        assert all(c.is_zero_many(diffs))


@pytest.mark.parametrize("chart", ["ex2_c", "fiber_c", "sphere3_c"])
def test_decomposed_actions_match_dense_derivation(request, chart):
    # cached_derivation builds W.H and P.H as R.H - coef Q(A,H), never W
    # or P; the dense derivation by b.W and b.P is the oracle, at every
    # six-index tuple for H = R and every four-index tuple for H = S
    c = request.getfixturevalue(chart)
    b = bundle(c)
    diffs = []
    for dname in ("W", "P"):
        for hname, rank in (("R", 6), ("S", 4)):
            got = cached_derivation(b, dname, hname)
            assert got.valence == (0, rank)
            dense = derivation_action(getattr(b, dname), getattr(b, hname))
            diffs += [ex.sub(got.comp(t), dense.comp(t))
                      for t in _all_idx(c.n, rank)]
    assert len(diffs) == 2 * (c.n ** 6 + c.n ** 4)
    assert all(c.is_zero_many(diffs))


def test_decomposed_actions_need_dimension_three():
    b = bundle(helpers.flat_chart(2))
    for dname in ("W", "P"):
        for hname in ("R", "S"):
            with pytest.raises(ChartError, match="dimension >= 3"):
                cached_derivation(b, dname, hname)


def test_raise_first_runs_once_per_tensor(monkeypatch, ex2_c):
    # the dense and the orbit R.S and R.R read one raised R
    from warpcurv import actions
    raised = []
    original = actions.raise_first

    def spy(D):
        raised.append(D)
        return original(D)

    monkeypatch.setattr(actions, "raise_first", spy)
    c = Chart(ex2_c.coords, ex2_c.metric, ex2_c.params, ex2_c.box)
    b = bundle(c)
    for hname in ("R", "S"):
        cached_derivation(b, "R", hname)
        derivation_action(b.R, getattr(b, hname))
    cached_derivation(b, "P", "R")
    cached_derivation(b, "W", "S")
    assert raised == [b.R]


# ---------------------------------------------------------------------------
# Structural identities


def test_metric_wedge_annihilates_metric(ex2_c):
    out = derivation_action(gaussian(ex2_c), ex2_c.metric_field())
    assert all(ex2_c.is_zero_many([out.comp(t) for t in _all_idx(4, 4)]))


def test_metric_tachibana_annihilates_gaussian(ex2_c):
    out = tachibana(ex2_c.metric_field(), gaussian(ex2_c))
    assert all(ex2_c.is_zero_many([out.comp(t) for t in _all_idx(4, 6)]))


def test_gaussian_derivation_equals_metric_tachibana(ex2_c):
    b = bundle(ex2_c)
    gr = derivation_action(b.G, b.R)
    qgr = cached_tachibana(b, "g", "R")
    diffs = [ex.sub(gr.comp(t), qgr.comp(t)) for t in _all_idx(4, 6)]
    assert all(ex2_c.is_zero_many(diffs))


# ---------------------------------------------------------------------------
# Tachibana kernel vs pointwise linear dependence


def test_tachibana_kernel_is_linear_dependence():
    from warpcurv.tensor import linear_dependence_check

    c = helpers.flat_chart(3)
    rng = random.Random(99)
    pts = c.sample_points(8)
    for trial in range(50):
        E = _random_sym2(rng, c)
        if trial % 2 == 0:
            rho = helpers.random_expr(rng, c.coords, 2)
            if trial == 0:
                rho = ex.const(0)
            A = TensorField(
                c, (0, 2),
                [[ex.mul(rho, E.comps[i][j]) for j in range(3)] for i in range(3)],
                sym="sym2")
        else:
            A = _random_sym2(rng, c)
        q = tachibana(A, E)
        qzero = all(c.is_zero_many([q.comp(t) for t in _all_idx(3, 4)]))
        dep = all(linear_dependence_check(A, E, pt)["dependent"] for pt in pts)
        assert qzero == dep
        if trial % 2 == 0:
            assert qzero


# ---------------------------------------------------------------------------
# Deszcz sectional ratio


def _rand_vec(rng, n):
    return tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n))


def _rand_plane_pair(rng, n):
    while True:
        v, w, x, y = (_rand_vec(rng, n) for _ in range(4))
        m1 = [v[i] * w[j] - v[j] * w[i] for i in range(n) for j in range(i + 1, n)]
        m2 = [x[i] * y[j] - x[j] * y[i] for i in range(n) for j in range(i + 1, n)]
        if any(m1) and any(m2):
            return (v, w), (x, y)


def test_deszcz_ratio_on_conformal_chart(ex2_c):
    b = bundle(ex2_c)
    pt = {"x1": Fraction(1), "x2": Fraction(1, 2), "x3": Fraction(2, 3),
          "x4": Fraction(1, 3)}
    rng = random.Random(314)
    with mpmath.workdps(50):
        want = mpmath.e / (2 * mpmath.e + 1) ** 3
        pi1, pi2 = _rand_plane_pair(rng, 4)
        res = deszcz_ratio(b, pt, pi1, pi2)
        assert res["defined"]
        assert abs(res["ratio"] - want) <= mpmath.mpf("1e-40") * (1 + abs(want))


def test_deszcz_ratio_plane_independence(ex2_c):
    b = bundle(ex2_c)
    pt = {"x1": Fraction(5, 4), "x2": Fraction(1), "x3": Fraction(1, 2),
          "x4": Fraction(7, 4)}
    rng = random.Random(1618)
    ratios = []
    with mpmath.workdps(50):
        for _ in range(10):
            pi1, pi2 = _rand_plane_pair(rng, 4)
            res = deszcz_ratio(b, pt, pi1, pi2)
            assert res["defined"]
            ratios.append(res["ratio"])
        base = ratios[0]
        assert all(abs(r - base) <= mpmath.mpf("1e-20") * abs(base) for r in ratios)


def test_deszcz_ratio_matches_full_loop_oracle(ex2_c, sphere3_c):
    # the nonzero-weight tuples, listed once, give the terms of the loop over
    # all n^6 tuples in its order: every number is the same bits
    cases = []
    rng = random.Random(1618)
    pt = {"x1": Fraction(5, 4), "x2": Fraction(1), "x3": Fraction(1, 2),
          "x4": Fraction(7, 4)}
    cases += [(ex2_c, pt, *_rand_plane_pair(rng, 4)) for _ in range(10)]
    e = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    cases.append((ex2_c, pt, (e[0], e[1]), (e[0], e[2])))
    pt3 = {"t1": Fraction(1), "t2": Fraction(1, 2), "t3": Fraction(3, 2)}
    cases.append((sphere3_c, pt3, ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 0, 1))))
    defined = 0
    for chart, point, pi1, pi2 in cases:
        b = bundle(chart)
        got = deszcz_ratio(b, point, pi1, pi2)
        want = helpers.deszcz_ratio_loop(b, point, pi1, pi2)
        assert got["defined"] == want["defined"]
        defined += got["defined"]
        for key in ("numerator", "denominator", "ratio"):
            if want[key] is None:
                assert got[key] is None
            else:
                assert got[key]._mpf_ == want[key]._mpf_, key
    assert defined == 10


def test_deszcz_ratio_undefined_cases(ex2_c, sphere3_c):
    b = bundle(ex2_c)
    pt = {"x1": Fraction(1), "x2": Fraction(1), "x3": Fraction(1),
          "x4": Fraction(1)}
    e1 = (1, 0, 0, 0)
    e2 = (0, 1, 0, 0)
    e3 = (0, 0, 1, 0)
    # coordinate-plane pair: the denominator component vanishes identically
    res = deszcz_ratio(b, pt, (e1, e2), (e1, e3))
    assert not res["defined"]
    assert res["ratio"] is None

    b3 = bundle(sphere3_c)
    pt3 = {"t1": Fraction(1), "t2": Fraction(1, 2), "t3": Fraction(3, 2)}
    res3 = deszcz_ratio(b3, pt3, ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 0, 1)))
    assert not res3["defined"]


def test_deszcz_ratio_rejects_degenerate_span(ex2_c):
    b = bundle(ex2_c)
    pt = {"x1": Fraction(1), "x2": Fraction(1), "x3": Fraction(1),
          "x4": Fraction(1)}
    v = (1, 2, 0, 0)
    with pytest.raises(ValueError):
        deszcz_ratio(b, pt, (v, (2, 4, 0, 0)), ((1, 0, 0, 0), (0, 0, 1, 0)))

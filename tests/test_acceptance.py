"""End-to-end acceptance checks, one marked group per shipped guarantee.

Every test here carries a `criterion(k)` marker; the terminal summary hook in
conftest folds the outcomes into one verdict line per criterion.  The groups
pin, in order: the Lorentzian fiber chart listings with its constant-ratio
identity; the five-dimensional warped family sweep; the conformally flat
chart listings with closed-form condition scalars and the rank-1 fit; warped
block formulas against direct computation with six candidate scalar pairs;
the algebraic property suites; the trichotomy, dichotomy, and Ricci-block
repair checks; and symbolic differentiation against central differences.

Reference entries known to be defective are kept as strict expected
failures, each next to a passing companion that pins the corrected value and
the exact size of the discrepancy.
"""

import random
from fractions import Fraction
from itertools import product as iproduct

import mpmath
import pytest

import helpers
from helpers import chart_parse
from warpcurv import expr as ex
from warpcurv.actions import (
    cached_derivation, cached_tachibana, derivation_action, deszcz_ratio,
    tachibana,
)
from warpcurv.conditions import check_identity, fit_pseudosymmetry
from warpcurv.curvature import bundle, derived_tensors
from warpcurv.expr import zero_threshold
from warpcurv.tensor import (
    TensorField, gaussian, is_generalized_curvature, linear_dependence_check,
)
from warpcurv.warped import (
    LABEL_T, assemble_product, auxiliaries, block_actions, block_curvature,
    dichotomy_check, trichotomy_report, verify_conditions,
)


def _idx(table):
    # 1-based listing keys to 0-based component tuples
    return {tuple(i - 1 for i in k): v for k, v in table.items()}


def _all6(n):
    return list(iproduct(range(n), repeat=6))


def _m(v):
    if isinstance(v, Fraction):
        return mpmath.mpf(v.numerator) / v.denominator
    return mpmath.mpf(v)


# ---------------------------------------------------------------------------
# Criterion 1: Lorentzian fiber chart listings and R.R = -Q(g,R)

FIBER_R = {
    (1, 2, 1, 3): "-exp(2*x1)",
    (1, 4, 1, 4): "-exp(2*x1)",
    (2, 3, 2, 3): "-exp(4*x1)",
    (2, 4, 3, 4): "exp(4*x1)",
    (1, 2, 1, 2): "-exp(2*x1)*x4^2",
    (2, 4, 2, 4): "exp(2*x1)*(exp(x1)*x4 - 1)*(exp(x1)*x4 + 1)",
}

FIBER_S = {
    (1, 1): "3",
    (2, 3): "-3*exp(2*x1)",
    (4, 4): "-3*exp(2*x1)",
}

# reference table entry and its sign-corrected reading
FIBER_S22_LISTED = "-3*exp(2*x1)*x4^2 - 1"
FIBER_S22_TRUE = "1 - 3*exp(2*x1)*x4^2"


@pytest.mark.criterion(1)
def test_fiber_listed_curvature_and_scalar(fiber_c):
    b = bundle(fiber_c)
    P = chart_parse(fiber_c)
    diffs = [ex.sub(b.R.comp(t), P(s)) for t, s in _idx(FIBER_R).items()]
    diffs += [ex.sub(b.S.comps[i][j], P(s))
              for (i, j), s in _idx(FIBER_S).items()]
    diffs.append(ex.add(b.kappa, ex.const(12)))
    assert all(fiber_c.is_zero_many(diffs, trials=8))


@pytest.mark.criterion(1)
@pytest.mark.xfail(strict=True, reason="reference fiber Ricci entry (2,2) "
                   "carries a sign defect on its constant term")
def test_fiber_listed_ricci_2_2(fiber_c):
    b = bundle(fiber_c)
    P = chart_parse(fiber_c)
    assert fiber_c.is_zero(ex.sub(b.S.comps[1][1], P(FIBER_S22_LISTED)))


@pytest.mark.criterion(1)
def test_fiber_ricci_2_2_corrected(fiber_c):
    b = bundle(fiber_c)
    P = chart_parse(fiber_c)
    assert fiber_c.is_zero(ex.sub(b.S.comps[1][1], P(FIBER_S22_TRUE)))


@pytest.mark.criterion(1)
def test_fiber_constant_ratio_identity(fiber_c):
    # R.R = -Q(g,R), every six-index component, 8 points, 50 digits
    b = bundle(fiber_c)
    rr = cached_derivation(b, "R", "R")
    qgr = cached_tachibana(b, "g", "R")
    diffs = [ex.add(rr.comp(t), qgr.comp(t)) for t in _all6(4)]
    assert all(fiber_c.is_zero_many(diffs, trials=8))


# ---------------------------------------------------------------------------
# Criterion 2: five-dimensional warped family, a in {0, 1, -2, 3/7}

AVALS = (0, 1, Fraction(-2), Fraction(3, 7))

_DEN = "(a*x1^2 + 2*a*x1 + a + 1)"
_E2, _E4 = "exp(2*x2)", "exp(4*x2)"
_U2, _U4 = "(x1 + 1)^2", "(x1 + 1)^4"

WARPED_RR = {
    (1, 3, 3, 5, 1, 5): f"a*{_E2}*{_U2}/{_DEN}",
    (1, 5, 3, 5, 1, 3): f"-a*{_E2}*{_U2}/{_DEN}",
    (2, 3, 3, 5, 2, 5): f"-a*{_E2}*{_U4}",
    (2, 5, 3, 5, 2, 3): f"a*{_E2}*{_U4}",
    (3, 4, 3, 5, 3, 5): f"-a*{_E4}*{_U4}",
    (3, 5, 3, 5, 3, 4): f"2*a*{_E4}*{_U4}",
}

WARPED_QGR = {
    (1, 3, 3, 5, 1, 5): f"{_E2}*{_U2}/{_DEN}",
    (1, 5, 3, 5, 1, 3): f"-{_E2}*{_U2}/{_DEN}",
    (2, 3, 3, 5, 2, 5): f"-{_E2}*{_U4}",
    (2, 5, 3, 5, 2, 3): f"{_E2}*{_U4}",
    (3, 4, 3, 5, 3, 5): f"-{_E4}*{_U4}",
    (3, 5, 3, 5, 3, 4): f"2*{_E4}*{_U4}",
}

WARPED_QSR = {
    (1, 2, 1, 3, 2, 3): f"-a*{_U2}/{_DEN}",
    (1, 2, 2, 3, 1, 3): f"a*{_U2}/{_DEN}",
    (1, 3, 1, 3, 3, 4): f"-2*a*{_E2}*{_U2}/{_DEN}",
    (1, 3, 1, 5, 3, 5): f"-a*{_E2}*{_U2}/{_DEN}",
    (1, 3, 3, 4, 1, 3): f"a*{_E2}*{_U2}/{_DEN}",
    (1, 3, 3, 5, 1, 5): f"4*a*{_E2}*{_U2}/{_DEN}",
    (1, 5, 3, 5, 1, 3): f"-3*a*{_E2}*{_U2}/{_DEN}",
    (2, 3, 2, 3, 3, 4): f"2*a*{_E2}*{_U4}",
    (2, 3, 2, 5, 3, 5): f"a*{_E2}*{_U4}",
    (2, 3, 3, 4, 2, 3): f"-a*{_E2}*{_U4}",
    (2, 3, 3, 5, 2, 5): f"-4*a*{_E2}*{_U4}",
    (2, 5, 3, 5, 2, 3): f"3*a*{_E2}*{_U4}",
    (3, 4, 3, 5, 3, 5): f"-3*a*{_E4}*{_U4}",
    (3, 5, 3, 5, 3, 4): f"6*a*{_E4}*{_U4}",
}


@pytest.mark.criterion(2)
def test_warped_family_sweep_and_listings(warped5_c):
    b = bundle(warped5_c)
    P = chart_parse(warped5_c)
    rr = cached_derivation(b, "R", "R")
    qgr = cached_tachibana(b, "g", "R")
    qsr = cached_tachibana(b, "S", "R")
    wr = cached_derivation(b, "W", "R")
    dk = ex.sub(b.kappa, ex.mul(ex.const(20), ex.Param("a")))
    ap = ex.Param("a")
    pseudo = [ex.sub(rr.comp(t), ex.mul(ap, qgr.comp(t))) for t in _all6(5)]
    concirc = [wr.comp(t) for t in _all6(5)]
    listed = []
    for tensor, table in ((rr, WARPED_RR), (qgr, WARPED_QGR),
                          (qsr, WARPED_QSR)):
        listed += [ex.sub(tensor.comp(t), P(s))
                   for t, s in _idx(table).items()]
    for v in AVALS:
        pv = {"a": Fraction(v)}
        assert warped5_c.is_zero(dk, params=pv)
        assert all(warped5_c.is_zero_many(listed, trials=4, params=pv))
        assert all(warped5_c.is_zero_many(pseudo, trials=3, params=pv))
        assert all(warped5_c.is_zero_many(concirc, trials=3, params=pv))


# ---------------------------------------------------------------------------
# Criterion 3: conformally flat 4-chart listings, condition scalars, fit

_Q = "(2*exp(x1) + 1)"

EX2_R = {
    (1, 2, 1, 2): f"-exp(x1)/{_Q}",
    (1, 3, 1, 3): f"-exp(x1)/{_Q}",
    (1, 4, 1, 4): f"-exp(x1)/{_Q}",
    (2, 3, 2, 3): f"-exp(2*x1)/{_Q}",
    (2, 4, 2, 4): f"-exp(2*x1)/{_Q}",
    (3, 4, 3, 4): f"-exp(2*x1)/{_Q}",
}

EX2_S = {
    (1, 1): f"3*exp(x1)/{_Q}^2",
    (2, 2): f"exp(x1)/{_Q}",
    (3, 3): f"exp(x1)/{_Q}",
    (4, 4): f"exp(x1)/{_Q}",
}

EX2_KAPPA = "6*exp(x1)*(1 + exp(x1))/(1 + 2*exp(x1))^3"

# projective value chain: every entry is a signed multiple of this coefficient
_P0 = "(-(exp(2*x1) - exp(x1))/(6*exp(x1) + 3))"

EX2_P = {
    (1, 2, 2, 1): f"2*{_P0}",
    (1, 3, 3, 1): f"2*{_P0}",
    (1, 4, 4, 1): f"2*{_P0}",
    (2, 3, 2, 3): _P0,
    (2, 3, 3, 2): f"-{_P0}",
    (2, 4, 2, 4): _P0,
    (2, 4, 4, 2): f"-{_P0}",
    (3, 4, 3, 4): _P0,
    (3, 4, 4, 3): f"-{_P0}",
}

# six-index orbit pattern shared by all four action tables
EX2_PATTERN = (
    ((1, 2, 2, 3, 1, 3), 1), ((1, 2, 2, 4, 1, 4), 1),
    ((1, 3, 2, 3, 1, 2), -1), ((1, 3, 3, 4, 1, 4), 1),
    ((1, 4, 2, 4, 1, 2), -1), ((1, 4, 3, 4, 1, 3), -1),
)

EX2_RR_VAL = "exp(2*x1)*(exp(x1) - 1)/(2*exp(x1) + 1)^3"
EX2_QGR_VAL = "exp(x1)*(exp(x1) - 1)"
EX2_QSR_VAL = EX2_RR_VAL
EX2_PR_VAL = "2*exp(2*x1)*(exp(x1) - 1)/(3*(2*exp(x1) + 1)^3)"

COND_I_L1 = "exp(x1)/(1 + 2*exp(x1))^3"
COND_II_L_LISTED = "2*exp(x1)/(3*(1 + 2*exp(x1))^3)"
COND_II_L_TRUE = "exp(x1)/(2*(1 + 2*exp(x1))^3)"
COND_III_L2 = "1 - exp(-x1)*(1 + 2*exp(x1))^3"


def _classical_projective(chart):
    """Projective tensor with the 1/(n-1) trace normalization."""
    b = bundle(chart)
    n = chart.n
    s, g, r = b.S.comps, chart.metric, b.R.comps
    f = ex.const(Fraction(1, n - 1))
    comps = [[[[ex.sub(r[i][j][k][l],
                       ex.mul(f, ex.sub(ex.mul(s[j][k], g[i][l]),
                                        ex.mul(s[i][k], g[j][l]))))
               for l in range(n)] for k in range(n)]
              for j in range(n)] for i in range(n)]
    return TensorField(chart, (0, 4), comps)


def _pattern_diffs(chart, tensor, val, scale=None):
    P = chart_parse(chart)
    v = P(val)
    if scale is not None:
        v = ex.mul(ex.const(scale), v)
    out = []
    for idx, sgn in EX2_PATTERN:
        t = tuple(i - 1 for i in idx)
        want = v if sgn == 1 else ex.neg(v)
        out.append(ex.sub(tensor.comp(t), want))
    return out


@pytest.mark.criterion(3)
def test_conformal_chart_curvature_listings(ex2_c):
    b = bundle(ex2_c)
    P = chart_parse(ex2_c)
    diffs = [ex.sub(b.R.comp(t), P(s)) for t, s in _idx(EX2_R).items()]
    diffs += [ex.sub(b.S.comps[i][j], P(s))
              for (i, j), s in _idx(EX2_S).items()]
    diffs.append(ex.sub(b.kappa, P(EX2_KAPPA)))
    assert all(ex2_c.is_zero_many(diffs, trials=8))


@pytest.mark.criterion(3)
@pytest.mark.xfail(strict=True, reason="reference projective entries follow "
                   "the 1/(n-1) trace convention; the engine normalizes by "
                   "1/(n-2)")
def test_conformal_chart_projective_listing(ex2_c):
    b = bundle(ex2_c)
    P = chart_parse(ex2_c)
    diffs = [ex.sub(b.P.comp(t), P(s)) for t, s in _idx(EX2_P).items()]
    assert all(ex2_c.is_zero_many(diffs, trials=8))


@pytest.mark.criterion(3)
def test_conformal_chart_projective_listing_classical_convention(ex2_c):
    pcl = _classical_projective(ex2_c)
    P = chart_parse(ex2_c)
    diffs = [ex.sub(pcl.comp(t), P(s)) for t, s in _idx(EX2_P).items()]
    assert all(ex2_c.is_zero_many(diffs, trials=8))


@pytest.mark.criterion(3)
def test_conformal_chart_action_listings(ex2_c):
    b = bundle(ex2_c)
    diffs = _pattern_diffs(ex2_c, cached_derivation(b, "R", "R"), EX2_RR_VAL)
    diffs += _pattern_diffs(ex2_c, cached_tachibana(b, "g", "R"), EX2_QGR_VAL)
    diffs += _pattern_diffs(ex2_c, cached_tachibana(b, "S", "R"), EX2_QSR_VAL)
    assert all(ex2_c.is_zero_many(diffs, trials=8))


@pytest.mark.criterion(3)
@pytest.mark.xfail(strict=True, reason="reference P.R table inherits the "
                   "1/(n-1) projective convention; engine values are exactly "
                   "3/4 of it")
def test_conformal_chart_projective_action_listing(ex2_c):
    b = bundle(ex2_c)
    diffs = _pattern_diffs(ex2_c, cached_derivation(b, "P", "R"), EX2_PR_VAL)
    assert all(ex2_c.is_zero_many(diffs, trials=8))


@pytest.mark.criterion(3)
def test_conformal_chart_projective_action_diagnosis(ex2_c):
    b = bundle(ex2_c)
    pr = cached_derivation(b, "P", "R")
    scaled = _pattern_diffs(ex2_c, pr, EX2_PR_VAL, scale=Fraction(3, 4))
    assert all(ex2_c.is_zero_many(scaled, trials=8))
    pcl_r = derivation_action(_classical_projective(ex2_c), b.R)
    exact = _pattern_diffs(ex2_c, pcl_r, EX2_PR_VAL)
    assert all(ex2_c.is_zero_many(exact, trials=8))


@pytest.mark.criterion(3)
def test_conformal_chart_condition_scalars(ex2_c):
    b = bundle(ex2_c)
    first = check_identity("R.R = L1 Q(g,R)", b, scalars={"L1": COND_I_L1})
    assert first["holds"] and not first["vacuous"]
    ricci = check_identity("R.R = Q(S,R)", b)
    assert ricci["holds"] and not ricci["vacuous"]
    combined = check_identity("R.R = L1 Q(g,R) + L2 Q(S,R)", b,
                              scalars={"L1": "1", "L2": COND_III_L2})
    assert combined["holds"] and not combined["vacuous"]


@pytest.mark.criterion(3)
@pytest.mark.xfail(strict=True, reason="reference closed form for the P.R "
                   "ratio is 4/3 of the engine value")
def test_conformal_chart_projective_ratio_listed_scalar(ex2_c):
    out = check_identity("P.R = L1 Q(g,R)", bundle(ex2_c),
                         scalars={"L1": COND_II_L_LISTED})
    assert out["holds"]


@pytest.mark.criterion(3)
def test_conformal_chart_projective_ratio_engine_scalar(ex2_c):
    out = check_identity("P.R = L1 Q(g,R)", bundle(ex2_c),
                         scalars={"L1": COND_II_L_TRUE})
    assert out["holds"] and not out["vacuous"]


@pytest.mark.criterion(3)
def test_conformal_chart_fit_rank_one_zero_residual(ex2_c):
    rep = fit_pseudosymmetry(bundle(ex2_c), ex2_c.sample_points(8))
    assert rep.rank == 1
    assert rep.family is True
    assert rep.trivial is False
    with mpmath.workdps(50):
        for rec in map(helpers.record_mpfs, rep.records):
            assert rec["residual"] <= zero_threshold(rec["data_scale"])


# ---------------------------------------------------------------------------
# Criterion 4: block formulas vs direct computation; verdict agreement

L1_EX2 = COND_I_L1
L2_EX2 = COND_III_L2


@pytest.mark.criterion(4)
def test_block_formulas_match_direct(ex1_spec, ex2_spec, fs_spec, cf_spec,
                                     warped5_c, ex2_c):
    cases = (
        (ex2_spec, ex2_c, 4),
        (fs_spec, assemble_product(fs_spec), 4),
        (cf_spec, assemble_product(cf_spec), 4),
        (ex1_spec, warped5_c, 3),
    )
    for spec, ref, trials in cases:
        b = bundle(ref)
        curv = block_curvature(spec)
        acts = block_actions(spec)
        n = spec.n
        diffs = [ex.sub(b.R.comp(t), curv["R"].comp(t))
                 for t in iproduct(range(n), repeat=4)]
        diffs += [ex.sub(b.S.comps[i][j], curv["S"].comps[i][j])
                  for i in range(n) for j in range(n)]
        diffs.append(ex.sub(b.kappa, curv["kappa"]))
        assert all(ref.is_zero_many(diffs, trials=trials))
        for key, names, fn in (("RR", ("R", "R"), cached_derivation),
                               ("QgR", ("g", "R"), cached_tachibana),
                               ("QSR", ("S", "R"), cached_tachibana)):
            direct = fn(b, *names)
            d6 = [ex.sub(direct.comp(t), acts[key].comp(t))
                  for t in _all6(n)]
            assert all(ref.is_zero_many(d6, trials=trials)), key


@pytest.mark.criterion(4)
def test_condition_verdicts_agree_with_direct_defect(ex1_spec, ex2_spec,
                                                     fs_spec, cf_spec,
                                                     warped5_c, ex2_c):
    # six candidate pairs; the two all-zero rows are deliberately wrong
    pairs = [
        (ex2_spec, ex2_c, L1_EX2, "0", True, 4),
        (ex2_spec, ex2_c, "1", L2_EX2, True, 4),
        (ex2_spec, ex2_c, "0", "0", False, 4),
        (fs_spec, assemble_product(fs_spec), "0", "1", True, 4),
        (cf_spec, assemble_product(cf_spec), "0", "0", False, 4),
        (ex1_spec, warped5_c, "1", "0", True, 3),
    ]
    for spec, ref, L1, L2, expected, trials in pairs:
        out = verify_conditions(spec, L1, L2, trials=trials)
        b = bundle(ref)
        P = chart_parse(ref)
        l1, l2 = P(L1), P(L2)
        rr = cached_derivation(b, "R", "R")
        qg = cached_tachibana(b, "g", "R")
        qs = cached_tachibana(b, "S", "R")
        d = [ex.sub(rr.comp(t), ex.add(ex.mul(l1, qg.comp(t)),
                                       ex.mul(l2, qs.comp(t))))
             for t in _all6(spec.n)]
        direct_zero = all(ref.is_zero_many(d, trials=trials))
        assert out["all_hold"] == expected
        assert direct_zero == expected


# ---------------------------------------------------------------------------
# Criterion 5: algebraic property suites


@pytest.mark.criterion(5)
def test_curvature_symmetry_suite(ex2_c, fiber_c, warped5_c, sphere3_c):
    # first-pair antisymmetry, pair exchange, and the first Bianchi identity
    for chart in (ex2_c, fiber_c, warped5_c, sphere3_c):
        b = bundle(chart)
        d = derived_tensors(b)
        for tensor in (b.R, b.G, d["C"], d["W"], d["K"]):
            assert is_generalized_curvature(tensor)


@pytest.mark.criterion(5)
def test_projective_tensor_lacks_curvature_symmetries(ex2_c):
    assert not is_generalized_curvature(bundle(ex2_c).P)


def _random_sym2(rng, chart, depth=2):
    n = chart.n
    comps = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = helpers.random_expr(rng, chart.coords, depth)
            comps[i][j] = comps[j][i] = e
    return TensorField(chart, (0, 2), comps, sym="sym2")


@pytest.mark.criterion(5)
def test_tachibana_kernel_equals_linear_dependence_50_pairs():
    c = helpers.flat_chart(3)
    rng = random.Random(24601)
    pts = c.sample_points(6)
    for trial in range(50):
        E = _random_sym2(rng, c)
        if trial % 2 == 0:
            rho = helpers.random_expr(rng, c.coords, 2)
            A = TensorField(
                c, (0, 2),
                [[ex.mul(rho, E.comps[i][j]) for j in range(3)]
                 for i in range(3)],
                sym="sym2")
        else:
            A = _random_sym2(rng, c)
        q = tachibana(A, E)
        qzero = all(c.is_zero_many(
            [q.comp(t) for t in iproduct(range(3), repeat=4)]))
        dep = all(linear_dependence_check(A, E, pt)["dependent"]
                  for pt in pts)
        assert qzero == dep
        if trial % 2 == 0:
            assert qzero


@pytest.mark.criterion(5)
def test_metric_tachibana_annihilates_gaussian(ex2_c, fiber_c, sphere3_c):
    for chart in (ex2_c, fiber_c, sphere3_c):
        out = tachibana(chart.metric_field(), gaussian(chart))
        assert all(chart.is_zero_many([out.comp(t)
                                       for t in _all6(chart.n)]))


@pytest.mark.criterion(5)
def test_projective_action_decomposition(ex2_c, fiber_c, warped5_c,
                                         sphere3_c):
    # P.R agrees with R.R - (1/(n-2)) Q(S,R) componentwise
    for chart in (ex2_c, fiber_c, warped5_c, sphere3_c):
        b = bundle(chart)
        n = chart.n
        pr = cached_derivation(b, "P", "R")
        rr = cached_derivation(b, "R", "R")
        qsr = cached_tachibana(b, "S", "R")
        f = ex.const(Fraction(1, n - 2))
        diffs = [ex.sub(pr.comp(t),
                        ex.sub(rr.comp(t), ex.mul(f, qsr.comp(t))))
                 for t in _all6(n)]
        trials = 3 if n == 5 else 4
        assert all(chart.is_zero_many(diffs, trials=trials))


def _rand_vec(rng, n):
    return tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                 for _ in range(n))


def _rand_plane_pair(rng, n):
    while True:
        v, w, x, y = (_rand_vec(rng, n) for _ in range(4))
        m1 = [v[i] * w[j] - v[j] * w[i]
              for i in range(n) for j in range(i + 1, n)]
        m2 = [x[i] * y[j] - x[j] * y[i]
              for i in range(n) for j in range(i + 1, n)]
        if any(m1) and any(m2):
            return (v, w), (x, y)


@pytest.mark.criterion(5)
def test_deszcz_ratio_plane_independent_10_pairs(ex2_c):
    b = bundle(ex2_c)
    pt = {"x1": Fraction(5, 4), "x2": Fraction(1), "x3": Fraction(1, 2),
          "x4": Fraction(7, 4)}
    rng = random.Random(8128)
    ratios = []
    with mpmath.workdps(50):
        for _ in range(10):
            pi1, pi2 = _rand_plane_pair(rng, 4)
            res = deszcz_ratio(b, pt, pi1, pi2)
            assert res["defined"]
            ratios.append(res["ratio"])
        base = ratios[0]
        assert all(abs(r - base) <= mpmath.mpf("1e-20") * abs(base)
                   for r in ratios)


# ---------------------------------------------------------------------------
# Criterion 6: trichotomy, dichotomy, and the Ricci-block repair


@pytest.mark.criterion(6)
def test_trichotomy_segment_family(ex1_spec):
    out = trichotomy_report(ex1_spec, "a", trials=4)
    assert out["labels"] == [LABEL_T]
    assert out["all_covered"]
    assert all(r["label"] == LABEL_T for r in out["records"])


@pytest.mark.criterion(6)
def test_dichotomy_unit_scalar_reports_einstein_fiber(ex2_spec):
    out = dichotomy_check(ex2_spec, "1", trials=4)
    assert out["fiber_einstein"] is True


@pytest.mark.criterion(6)
def test_ricci_block_repair_discriminates(cf_spec):
    """The base block of Q(S,R) needs S + qT; the (1-q)S reading fails."""
    prod = assemble_product(cf_spec)
    b = bundle(prod)
    direct = cached_tachibana(b, "S", "R")
    acts = block_actions(cf_spec)
    base_t = list(iproduct(range(cf_spec.p), repeat=6))
    engine = [ex.sub(direct.comp(t), acts["QSR"].comp(t)) for t in base_t]
    assert all(prod.is_zero_many(engine, trials=4))
    bb = bundle(cf_spec.base)
    aux = auxiliaries(cf_spec)
    q = cf_spec.q
    qsr_bar = cached_tachibana(bb, "S", "R")
    qtr_bar = tachibana(aux.T, bb.R)
    repaired = [ex.sub(direct.comp(t),
                       ex.add(qsr_bar.comp(t),
                              ex.mul(ex.const(q), qtr_bar.comp(t))))
                for t in base_t]
    assert all(prod.is_zero_many(repaired, trials=4))
    # the unrepaired combination scales the base Ricci term by (1 - q); at
    # q = 1 it predicts a vanishing base block, refuted by the direct values
    assert q == 1
    assert not all(prod.is_zero_many([direct.comp(t) for t in base_t],
                                     trials=4))


# ---------------------------------------------------------------------------
# Criterion 7: symbolic derivative vs central finite differences


@pytest.mark.criterion(7)
def test_diff_matches_central_differences_100_pairs():
    rng = random.Random(0xACCE55)
    coords = ("x1", "x2", "x3")
    checked = 0
    with mpmath.workdps(50):
        h = mpmath.mpf("1e-6")
        while checked < 100:
            e = helpers.random_expr(rng, coords, depth=3)
            v = rng.choice(coords)
            pt = helpers.rational_points(rng, coords, 1)[0]
            exact = _m(ex.evaluate(ex.diff(e, v), pt))
            up, dn = dict(pt), dict(pt)
            up[v] = _m(up[v]) + h
            dn[v] = _m(dn[v]) - h
            fd = (_m(ex.evaluate(e, up)) - _m(ex.evaluate(e, dn))) / (2 * h)
            assert abs(exact - fd) <= mpmath.mpf("1e-6") * (1 + abs(exact))
            checked += 1
    assert checked == 100

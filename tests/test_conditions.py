"""Identity-catalog and scalar-fitting tests."""

from fractions import Fraction
from itertools import product as iproduct

import mpmath
import pytest

import helpers
from warpcurv import expr as ex
from warpcurv.actions import cached_derivation, cached_tachibana
from warpcurv.conditions import (
    CATALOG, ConditionReport, check_identity, constant_type_check,
    einstein_check, fit_pseudosymmetry, pair_admissible, pair_residual,
)
from warpcurv.curvature import bundle
from warpcurv.tensor import ChartError

L_EX2 = "exp(x1)/(1 + 2*exp(x1))^3"


def test_catalog_row_names():
    assert list(CATALOG) == [
        "R.R = 0", "R.R = L1 Q(g,R)", "R.R = L2 Q(S,R)", "R.R = Q(S,R)",
        "W.R = 0", "W.R = L2 Q(S,R)", "P.R = 0", "P.R = L1 Q(g,R)",
        "R.S = 0", "R.C = L Q(g,C)", "R.S = L Q(g,S)", "R.P = L Q(g,P)",
        "P.S = L2 Q(g,S)", "R.R = L1 Q(g,R) + L2 Q(S,R)",
    ]
    for row in CATALOG.values():
        assert row.name in str(CATALOG)
        assert (row.qualifier == "none") == (not row.parametric)


# ---------------------------------------------------------------------------
# check_identity verdicts


def test_conformal_chart_curvature_rows(ex2_c):
    b = bundle(ex2_c)
    v = check_identity("R.R = L1 Q(g,R)", b, {"L1": L_EX2})
    assert v["holds"] and not v["vacuous"] and v["points_excluded"] == 0
    assert v["qualifier"] == "Q(g,R) != 0"
    assert check_identity("R.R = Q(S,R)", b)["holds"]
    v3 = check_identity("R.R = L1 Q(g,R) + L2 Q(S,R)", b,
                        {"L1": 1, "L2": "1 - exp(-x1)*(1 + 2*exp(x1))^3"})
    assert v3["holds"] and not v3["vacuous"]
    assert not check_identity("R.R = 0", b)["holds"]
    assert not check_identity("W.R = 0", b)["holds"]
    assert not check_identity("R.S = 0", b)["holds"]


def test_conformal_chart_ricci_and_projective_rows(ex2_c):
    b = bundle(ex2_c)
    assert check_identity("R.S = L Q(g,S)", b, {"L": L_EX2})["holds"]
    assert check_identity("P.S = L2 Q(g,S)", b, {"L2": L_EX2})["holds"]
    assert check_identity("R.P = L Q(g,P)", b, {"L": L_EX2})["holds"]
    assert not check_identity("R.S = L Q(g,S)", b, {"L": 1})["holds"]


def test_projective_row_scalar_discrimination(ex2_c):
    # the engine value of P.R fixes the scalar at e^x/(2 phi^3)
    b = bundle(ex2_c)
    assert check_identity(
        "P.R = L1 Q(g,R)", b,
        {"L1": "exp(x1)/(2*(1 + 2*exp(x1))^3)"})["holds"]
    assert not check_identity(
        "P.R = L1 Q(g,R)", b,
        {"L1": "2*exp(x1)/(3*(1 + 2*exp(x1))^3)"})["holds"]
    assert not check_identity("P.R = 0", b)["holds"]


def test_conformally_flat_weyl_row_is_vacuous(ex2_c):
    b = bundle(ex2_c)
    assert all(ex2_c.is_zero_many(
        [b.C.comp(t) for t in iproduct(range(4), repeat=4)]))
    v = check_identity("R.C = L Q(g,C)", b, {"L": 0})
    assert v["holds"] and v["vacuous"] and v["points_excluded"] == 8


def test_warped_chart_rows(warped5_c):
    b = bundle(warped5_c)
    assert check_identity("W.R = 0", b)["holds"]
    assert check_identity("R.R = L1 Q(g,R)", b, {"L1": "a"})["holds"]
    assert not check_identity("R.S = 0", b)["holds"]


def test_constant_curvature_chart_semisymmetry(sphere3_c):
    b = bundle(sphere3_c)
    v0 = check_identity("R.R = 0", b)
    assert v0["holds"] and not v0["vacuous"]
    # catalog consistency: pseudosymmetry with L1 = 0 cannot fail afterwards;
    # here the qualifier excludes every point since Q(g,R) vanishes
    v1 = check_identity("R.R = L1 Q(g,R)", b, {"L1": 0})
    assert v1["holds"] and v1["vacuous"] and v1["points_excluded"] == 8


def test_check_identity_errors(ex2_c):
    b = bundle(ex2_c)
    with pytest.raises(ValueError):
        check_identity("R.R = L3 Q(T,R)", b)
    with pytest.raises(ValueError):
        check_identity("R.R = L1 Q(g,R)", b)


def test_concircular_row_equals_scaled_metric_row(ex2_c):
    b = bundle(ex2_c)
    wr = cached_derivation(b, "W", "R")
    rr = cached_derivation(b, "R", "R")
    qgr = cached_tachibana(b, "g", "R")
    coef = ex.mul(ex.const(Fraction(1, 12)), b.kappa)
    diffs = [ex.sub(wr.comp(t),
                    ex.sub(rr.comp(t), ex.mul(coef, qgr.comp(t))))
             for t in iproduct(range(4), repeat=6)]
    assert all(ex2_c.is_zero_many(diffs))


# ---------------------------------------------------------------------------
# fit_pseudosymmetry


def test_fit_conformal_chart_reports_family(ex2_c):
    b = bundle(ex2_c)
    p = helpers.chart_parse(ex2_c)
    rep = fit_pseudosymmetry(b, ex2_c.sample_points(6))
    assert isinstance(rep, ConditionReport)
    assert rep.rank == 1 and rep.family and not rep.trivial
    with mpmath.workdps(50):
        for rec in map(helpers.record_mpfs, rep.records):
            assert rec["rank"] == 1
            assert rec["residual"] <= mpmath.mpf("1e-30") * (1 + rec["data_scale"])
            assert len(rec["nullspace"]) == 1
            pt = rec["point"]
            assert pair_admissible(b, pt, p(L_EX2), 0)
            assert pair_admissible(b, pt, 0, 1)
            assert not pair_admissible(b, pt, 1, 0)
            a0, b0 = rec["nullspace"][0]
            assert pair_admissible(b, pt, rec["L1"] + a0, rec["L2"] + b0)


def test_fit_at_degenerate_point(ex2_c):
    # where the common factor e^x - 1 vanishes all three tensors are zero,
    # the design rank drops to 0 and every pair becomes admissible
    b = bundle(ex2_c)
    pt = {"x1": Fraction(0), "x2": Fraction(1), "x3": Fraction(1, 2),
          "x4": Fraction(1)}
    rep = fit_pseudosymmetry(b, [pt] * 5)
    assert rep.rank == 0 and rep.trivial
    assert pair_admissible(b, pt, Fraction(1, 27), 0)
    assert pair_admissible(b, pt, 0, 1)


def test_fit_warped_chart_unique_pair(warped5_c):
    b = bundle(warped5_c)
    pts = warped5_c.sample_points(5, params={"a": Fraction(2)})
    rep = fit_pseudosymmetry(b, pts)
    assert rep.rank == 2 and not rep.family and not rep.trivial
    with mpmath.workdps(50):
        for rec in map(helpers.record_mpfs, rep.records):
            assert rec["rank"] == 2 and rec["nullspace"] == []
            assert abs(rec["L1"] - 2) <= mpmath.mpf("1e-30")
            assert abs(rec["L2"]) <= mpmath.mpf("1e-30")
            assert rec["residual"] <= mpmath.mpf("1e-30") * (1 + rec["data_scale"])


def test_fit_snaps_what_the_digits_do_not_decide():
    # data scale about 2: a coefficient or residual of 1e-45 is rounding
    # noise and reads exact 0; one of 1e-20 is data and is kept
    one, zero = ex.MP.one._mpf_, ex.MP.zero._mpf_
    two = (2 * ex.MP.one)._mpf_
    w, q1, q2 = [1, 1, 1], [one, zero, zero], [zero, one, zero]
    for small, kept in ((ex.MP.mpf("1e-45")._mpf_, False),
                        (ex.MP.mpf("1e-20")._mpf_, True)):
        rec = ex.ls2(w, q1, q2, [two, small, zero])
        assert rec["L1"] == two and (rec["L2"] == small if kept else rec["L2"] == zero)
        assert rec["residual"] == zero
        rec = ex.ls2(w, q1, q2, [two, one, small])
        assert rec["L1"] == two and rec["L2"] == one
        assert rec["residual"] == small if kept else rec["residual"] == zero


def test_fit_flat_chart_trivial():
    c = helpers.flat_chart(3)
    b = bundle(c)
    with pytest.raises(ValueError):
        fit_pseudosymmetry(b, c.sample_points(4))
    rep = fit_pseudosymmetry(b, c.sample_points(5))
    assert rep.trivial and rep.rank == 0 and rep.max_residual == ex.fzero
    assert constant_type_check(rep)


def test_constant_type_verdicts(ex2_c, warped5_c):
    rep2 = fit_pseudosymmetry(bundle(ex2_c), ex2_c.sample_points(6))
    assert not constant_type_check(rep2)
    b5 = bundle(warped5_c)
    repm1 = fit_pseudosymmetry(b5, warped5_c.sample_points(5, params={"a": Fraction(-1)}))
    assert constant_type_check(repm1)
    with mpmath.workdps(50):
        assert all(abs(r["L1"] + 1) <= mpmath.mpf("1e-30")
                   for r in map(helpers.record_mpfs, repm1.records))


def test_pair_admissible_string_candidates(ex2_c):
    # a string candidate is parsed into a temporary tree; its verdict must
    # match the one for the same candidate given as a live expression
    b = bundle(ex2_c)
    p = helpers.chart_parse(ex2_c)
    for pt in ex2_c.sample_points(3):
        assert pair_admissible(b, pt, L_EX2, "0")
        assert pair_admissible(b, pt, p(L_EX2), ex.const(0))


def test_undeclared_candidate_rejected_before_evaluation(ex2_c, monkeypatch):
    b = bundle(ex2_c)
    pt = ex2_c.sample_points(1)[0]
    pair_residual(b, pt, 0, 0)  # builds every table the checks below use

    def no_eval(self, e):
        raise AssertionError("evaluated before the candidate was checked")

    # every evaluation walks the tree; eval and exact zeros skip eval_scaled
    monkeypatch.setattr(ex.PointEval, "eval_scaled", no_eval)
    monkeypatch.setattr(ex.PointEval, "_walk", no_eval)
    bad = ex.mul(ex.Coord("y9"), ex.Coord("x1"))
    with pytest.raises(ChartError, match="y9"):
        check_identity("R.R = L1 Q(g,R)", b, {"L1": bad})
    with pytest.raises(ChartError, match="y9"):
        pair_residual(b, pt, bad, 0)


def test_pair_residual_reports_scale(ex2_c):
    b = bundle(ex2_c)
    pt = ex2_c.sample_points(1)[0]
    out = pair_residual(b, pt, 0, 0)
    assert out["residual"] > 0 and out["scale"] > 0


# ---------------------------------------------------------------------------
# Einstein check


def test_einstein_verdicts(sphere3_c, ex2_c, fiber_c):
    assert einstein_check(bundle(sphere3_c))
    assert not einstein_check(bundle(ex2_c))
    assert not einstein_check(bundle(fiber_c))

"""Warped-product blocks against the direct computation on the assembled chart.

Every block formula is exercised componentwise: curvature-level tensors over
all n^4 indices, the three six-index systems over all n^6.  Condition checks,
pointwise trichotomy labels, and the flat-base/Einstein-fiber dichotomy are
pinned on a roster of products whose verdicts were fixed in advance.
"""

from fractions import Fraction
from itertools import product as iproduct

import mpmath
import pytest

import helpers
from warpcurv import actions, cli, conditions, tensor, warped
from warpcurv import expr as ex
from warpcurv.actions import cached_derivation, cached_tachibana, tachibana
from warpcurv.conditions import fit_pseudosymmetry, pair_admissible
from warpcurv.curvature import bundle
from warpcurv.tensor import Chart, ChartError, orbit_reps
from warpcurv.warped import (
    LABEL_BASE, LABEL_FIBER, LABEL_NONE, LABEL_T, WarpedSpec, assemble_product,
    auxiliaries, block_actions, block_curvature, dichotomy_check,
    trichotomy_report, verify_conditions,
)

AVALS = (0, 1, Fraction(-2), Fraction(3, 7))
L1_EX2 = "exp(x1)/(1 + 2*exp(x1))^3"
L2_EX2 = "1 - exp(-x1)*(1 + 2*exp(x1))^3"


@pytest.fixture(scope="module")
def ex1a0_spec():
    # a = 0 flattens the base segment and turns off T entirely
    return WarpedSpec(helpers.ex1_base_chart(0), helpers.ex1_fiber_chart(),
                      "(1 + x1)^2")


@pytest.fixture(scope="module")
def rpflat_spec():
    return WarpedSpec(helpers.flat_chart(2), helpers.aniso3_chart(), 1)


def test_spec_validation_errors():
    with pytest.raises(ChartError, match="collide"):
        WarpedSpec(Chart(("x1", "x3"), [[1, 0], [0, 1]]),
                   helpers.flat_chart(1), 1)
    with pytest.raises(ChartError, match="positive"):
        WarpedSpec(helpers.flat_chart(2), helpers.flat_chart(1), "-1")
    with pytest.raises(ChartError, match="positive"):
        WarpedSpec(helpers.flat_chart(2), helpers.flat_chart(1), "x1 - 5")
    # the warp must be a function of base coordinates only
    with pytest.raises(ChartError):
        WarpedSpec(helpers.flat_chart(2), helpers.flat_chart(1), "x3")
    base = Chart(("x1",), [["b"]], params={"b": 3})
    fib = Chart(("y1",), [["b"]], params={"b": 2})
    with pytest.raises(ChartError, match="conflicting"):
        WarpedSpec(base, fib, 1)


def test_fiber_relabeling_map(ex1_spec, ex2_spec, fs_spec):
    assert ex1_spec.fiber_map == {"x1": "x2", "x2": "x3", "x3": "x4",
                                  "x4": "x5"}
    assert ex2_spec.fiber_map == {"x1": "x2", "x2": "x3", "x3": "x4"}
    assert fs_spec.fiber_map == {"t1": "x3", "t2": "x4"}
    assert assemble_product(fs_spec).coords == ("x1", "x2", "x3", "x4")


def test_product_metric_matches_reference_charts(ex1_spec, ex2_spec,
                                                 warped5_c, ex2_c):
    for spec, ref in ((ex1_spec, warped5_c), (ex2_spec, ex2_c)):
        prod = assemble_product(spec)
        assert prod.coords == ref.coords
        diffs = [ex.sub(prod.metric[i][j], ref.metric[i][j])
                 for i in range(ref.n) for j in range(ref.n)]
        assert all(ref.is_zero_many(diffs, trials=4))


def test_unwarped_product_keeps_fiber_block(rp_spec):
    prod = assemble_product(rp_spec)
    p, n = rp_spec.p, rp_spec.n
    for i in range(rp_spec.q):
        for j in range(rp_spec.q):
            d = ex.sub(prod.metric[p + i][p + j], rp_spec.fiber.metric[i][j])
            assert prod.is_zero(d, trials=4)
    for a in range(p):
        for al in range(p, n):
            assert isinstance(prod.metric[a][al], ex.Const)
            assert prod.metric[a][al].value == 0


def test_auxiliaries_closed_forms(ex2_spec, fs_spec, cf_spec):
    cases = [
        (ex2_spec, {(0, 0): "exp(x1)/(1 + 2*exp(x1))^2"},
         "exp(x1)/(1 + 2*exp(x1))^3", "exp(2*x1)/(1 + 2*exp(x1))^3",
         "-exp(x1)/(1 + 2*exp(x1))"),
        (fs_spec, {(0, 0): "1/4"}, "1/4", "1/4", "-exp(x1)/2"),
        (cf_spec, {(0, 0): "1/4", (1, 1): "exp(2*x1)/2", (2, 2): "exp(4*x1)"},
         "7/4", "1/4", "-7*exp(x1)/4"),
    ]
    for spec, tdiag, s_tr, s_delta, s_omega in cases:
        aux = auxiliaries(spec)
        P = helpers.chart_parse(spec.base)
        diffs = []
        for a in range(spec.p):
            for b in range(spec.p):
                want = tdiag.get((a, b)) or tdiag.get((b, a)) or "0"
                diffs.append(ex.sub(aux.T.comps[a][b], P(want)))
        diffs += [ex.sub(aux.trT, P(s_tr)),
                  ex.sub(aux.Delta, P(s_delta)),
                  ex.sub(aux.Omega, P(s_omega))]
        assert all(spec.base.is_zero_many(diffs))


def test_auxiliaries_segment_param_sweep(ex1_spec):
    aux = auxiliaries(ex1_spec)
    P = helpers.chart_parse(ex1_spec.base)
    diffs = [
        ex.sub(aux.T.comps[0][0], P("a/(1 + a*(1 + x1)^2)")),
        ex.sub(aux.trT, P("a")),
        ex.sub(aux.Delta, P("(1 + a*(1 + x1)^2)/(1 + x1)^2")),
        ex.sub(aux.Omega, P("-3 - 4*a*(1 + x1)^2")),
    ]
    for v in AVALS:
        assert all(ex1_spec.base.is_zero_many(diffs,
                                              params={"a": Fraction(v)}))


def test_auxiliaries_vanish_for_constant_warp(rp_spec):
    aux = auxiliaries(rp_spec)
    comps = [aux.T.comps[a][b] for a in range(2) for b in range(2)]
    comps += [aux.trT, aux.Delta, aux.Omega]
    assert all(rp_spec.base.is_zero_many(comps, trials=4))


def _curvature_diffs(spec, ref):
    b = bundle(ref)
    curv = block_curvature(spec)
    n = spec.n
    diffs = [ex.sub(b.R.comp(t), curv["R"].comp(t))
             for t in iproduct(range(n), repeat=4)]
    diffs += [ex.sub(b.S.comps[i][j], curv["S"].comps[i][j])
              for i in range(n) for j in range(n)]
    diffs.append(ex.sub(b.kappa, curv["kappa"]))
    return diffs


def test_block_curvature_matches_direct(ex2_spec, fs_spec, cf_spec, ex2_c):
    for spec, ref in ((ex2_spec, ex2_c),
                      (fs_spec, assemble_product(fs_spec)),
                      (cf_spec, assemble_product(cf_spec))):
        assert all(ref.is_zero_many(_curvature_diffs(spec, ref), trials=4))


def test_block_curvature_matches_direct_5dim(ex1_spec, warped5_c):
    diffs = _curvature_diffs(ex1_spec, warped5_c)
    assert all(warped5_c.is_zero_many(diffs, trials=3))


def test_scalar_curvature_linear_in_segment_parameter(ex1_spec):
    kap = block_curvature(ex1_spec)["kappa"]
    d = ex.sub(kap, ex.mul(ex.const(20), ex.Param("a")))
    prod = assemble_product(ex1_spec)
    for v in AVALS:
        assert prod.is_zero(d, params={"a": Fraction(v)})


_SYSTEMS = (("RR", "R", "R", cached_derivation),
            ("QgR", "g", "R", cached_tachibana),
            ("QSR", "S", "R", cached_tachibana))


def _assert_actions_match(spec, ref, trials):
    b = bundle(ref)
    acts = block_actions(spec)
    n = spec.n
    for key, xa, xb, fn in _SYSTEMS:
        direct = fn(b, xa, xb)
        diffs = [ex.sub(direct.comp(t), acts[key].comp(t))
                 for t in iproduct(range(n), repeat=6)]
        assert all(ref.is_zero_many(diffs, trials=trials)), key


def test_block_actions_match_direct(ex2_spec, fs_spec, cf_spec, ex2_c):
    for spec, ref in ((ex2_spec, ex2_c),
                      (fs_spec, assemble_product(fs_spec)),
                      (cf_spec, assemble_product(cf_spec))):
        _assert_actions_match(spec, ref, trials=4)


def test_block_actions_match_direct_5dim(ex1_spec, warped5_c):
    _assert_actions_match(ex1_spec, warped5_c, trials=3)


def test_direct_actions_have_the_orbit_symmetries(ex2_c, fs_spec, cf_spec):
    """The orbit-only oracle relies on comp(sigma t) = sign(sigma) comp(t)."""
    syms = helpers.index_symmetries6()[1:]          # all but the identity
    for ref in (ex2_c, assemble_product(fs_spec), assemble_product(cf_spec)):
        b = bundle(ref)
        n = ref.n
        repeated = [t for t in iproduct(range(n), repeat=6)
                    if t[0] == t[1] or t[2] == t[3] or t[4] == t[5]]
        for _, xa, xb, fn in _SYSTEMS:
            direct = fn(b, xa, xb)
            diffs = [ex.sub(direct.comp(tuple(r[i] for i in perm)),
                            ex.mul(ex.const(sign), direct.comp(r)))
                     for r in orbit_reps(n, 6) for perm, sign in syms]
            diffs += [direct.comp(t) for t in repeated]
            assert all(ref.is_zero_many(diffs, trials=3)), (ref.coords, xa, xb)


def test_dense_base_and_fiber_tables_have_the_orbit_symmetries(
        ex2_spec, fs_spec, cf_spec):
    """`_Ctx` keeps these tables at orbit representatives only."""
    syms = helpers.index_symmetries6()[1:]          # all but the identity
    for spec in (ex2_spec, fs_spec, cf_spec):
        for name, table in helpers.dense_block_tables(spec).items():
            chart, n = table.chart, table.chart.n
            diffs = [ex.sub(table.comp(tuple(r[i] for i in perm)),
                            ex.mul(ex.const(sign), table.comp(r)))
                     for r in orbit_reps(n, 6) for perm, sign in syms]
            diffs += [table.comp(t) for t in iproduct(range(n), repeat=6)
                      if t[0] == t[1] or t[2] == t[3] or t[4] == t[5]]
            assert all(chart.is_zero_many(diffs, trials=3)), (spec.n, name)


def _count_calls(monkeypatch, name):
    """Patch warped.<name>, an entry builder, to record the index tuple of
    each call; returns the list of tuples."""
    calls = []
    orig = getattr(warped, name)

    def counting(*args):
        calls.append(args[-1])
        return orig(*args)

    monkeypatch.setattr(warped, name, counting)
    return calls


def test_block_actions_build_one_entry_per_orbit(monkeypatch, ex2_spec,
                                                 ex1_spec):
    calls = _count_calls(monkeypatch, "_entry6")
    for spec, count in ((ex2_spec, 126), (ex1_spec, 550)):
        monkeypatch.delitem(spec._cache, ("block_actions",), raising=False)
        calls.clear()
        acts = block_actions(spec)
        assert calls == list(orbit_reps(spec.n, 6))
        assert len(calls) == count
        assert sorted(acts) == ["QSR", "QgR", "RR"]


def test_warped_verify_evaluates_block_formulas_at_representatives_only(
        monkeypatch):
    """The six- and four-index block formulas run once per product orbit:
    the conditions read the assembled entries instead of evaluating them
    again, and R's blocks are stored per rank-4 orbit."""
    calls6 = _count_calls(monkeypatch, "_entry6")
    calls4 = _count_calls(monkeypatch, "_entry4")
    for name, points, n in (("ex2_warped.mf", 3, 4), ("fs_warped.mf", 3, 4),
                            ("cf_warped.mf", 3, 4), ("ex1_warped.mf", 2, 5)):
        calls6.clear()
        calls4.clear()
        cli.warped_verify_report(cli.fixture_path(name), points=points, seed=7)
        assert calls6 == list(orbit_reps(n, 6)), name
        assert calls4 == list(orbit_reps(n, 4)), name


def test_warped_verify_calls_mul_on_no_literal_zero(monkeypatch):
    """Block diagonal metrics make most products of the contractions 0:
    every builder skips them (`expr.sum_products`, `expr.product`), so no
    mul call of a warped-verify run gets a literal-0 factor.  The totals
    pin the remaining calls; the dense builders made 4 309, 3 772, 4 555
    and 15 881, of which 24 473 had a literal-0 factor."""
    calls = []
    monkeypatch.setattr(ex, "mul", helpers.counting_mul(calls))
    totals = {}
    for name, points in (("ex2_warped.mf", 3), ("fs_warped.mf", 3),
                         ("cf_warped.mf", 3), ("ex1_warped.mf", 2)):
        calls.clear()
        cli.warped_verify_report(cli.fixture_path(name), points=points, seed=7)
        assert not any(calls), name
        totals[name] = len(calls)
    assert totals == {"ex2_warped.mf": 334, "fs_warped.mf": 373,
                      "cf_warped.mf": 470, "ex1_warped.mf": 2861}


def test_warped_verify_resolves_oracle_tuples_from_a_table(monkeypatch):
    """The oracle's `flatten()` of the block R reads each tuple's sign and
    representative from `tensor._orbit_signs`, built once per (n, rank),
    and conditions (I)-(III) order the first two pairs of their increasing
    tuples inline, so a roster command calls `orbit_rep` nowhere.  Resolving
    every flattened tuple took 283, 289, 301 and 721 calls, and the
    conditions' tuples 27, 33, 45 and 96."""
    for n in (4, 5):
        tensor._orbit_signs(n, 4)  # the tables, built before counting
    calls = []
    orbit_rep = tensor.orbit_rep

    def spy(idx):
        calls.append(idx)
        return orbit_rep(idx)

    for mod in (actions, cli, conditions, tensor, warped):
        if getattr(mod, "orbit_rep", None) is orbit_rep:
            monkeypatch.setattr(mod, "orbit_rep", spy)
    totals = {}
    for name, points in (("ex2_warped.mf", 3), ("fs_warped.mf", 3),
                         ("cf_warped.mf", 3), ("ex1_warped.mf", 2)):
        calls.clear()
        cli.warped_verify_report(cli.fixture_path(name), points=points, seed=7)
        totals[name] = len(calls)
    assert totals == {"ex2_warped.mf": 0, "fs_warped.mf": 0,
                      "cf_warped.mf": 0, "ex1_warped.mf": 0}


def test_verify_conditions_reuses_the_block_entries(monkeypatch, ex2_spec):
    """Another (L1, L2) on the same spec builds no block entry again."""
    verify_conditions(ex2_spec, 0, 0, trials=3, seed=7)
    calls = _count_calls(monkeypatch, "_entry6")
    got = verify_conditions(ex2_spec, 3, "x1", trials=3, seed=7)
    assert calls == []
    assert got["failed"]


def test_conditions_read_block_entries_at_sign_plus_one():
    """(I)-(III) read the block entries at each tuple's orbit representative
    with no sign: each index pair of their tuples increases, so every sign
    is +1, and the representative, which `Conditions` computes inline by
    ordering the first two pairs, is `orbit_rep(t)[1]`.  Checked on every
    tuple of every bundled warped fixture through the defect built there."""
    total = 0
    for name in ("ex2_warped.mf", "fs_warped.mf", "cf_warped.mf", "ex1_warped.mf",
                 "product.mf"):
        spec = cli.build_spec(cli.load_manifest(cli.fixture_path(name)))
        p, q = spec.p, spec.q
        L1, L2 = ex.const(3), ex.Coord(spec.base.coords[0])
        cond = warped.Conditions(spec, L1, L2)
        acts = warped.block_actions(spec)
        rr, qg, qs = acts["RR"], acts["QgR"], acts["QSR"]
        # (I) at the base's rank-6 representatives, (II) at a < b, (III) at be < ga
        want = (len(list(orbit_reps(p, 6))) + p * (p - 1) // 2 * p * p * q * q
                + p * p * q * (q - 1) // 2 * q * q)
        seen = 0
        for family in ("I", "II", "III"):
            tuples, defects, _ = cond._families[family]
            for t, defect in zip(tuples, defects, strict=True):
                sign, r = tensor.orbit_rep(t)
                assert sign == 1, (name, family, t)
                assert defect is ex.sub(rr.reps[r], ex.sum_products(
                    ((L1, qg.reps[r]), (L2, qs.reps[r])))), (name, family, t)
            seen += len(tuples)
        assert seen == want, name
        total += seen
    assert total


def test_warped_verify_builds_no_dense_product_action(monkeypatch):
    """No dense six-index action is built, on the product or on a factor."""
    runs = (("ex2_warped.mf", 3), ("fs_warped.mf", 3), ("cf_warped.mf", 3),
            ("ex1_warped.mf", 2))
    want = [cli.warped_verify_report(cli.fixture_path(name), points=points,
                                     seed=7) for name, points in runs]
    for fn in ("derivation_action", "tachibana"):
        orig = getattr(actions, fn)

        def guarded(A, H, orig=orig):
            if H.rank == 4:
                raise AssertionError(f"dense rank-6 action on {A.chart.coords}")
            return orig(A, H)

        for mod in (actions, warped, cli, conditions):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, guarded)
    got = [cli.warped_verify_report(cli.fixture_path(name), points=points,
                                    seed=7) for name, points in runs]
    assert got == want


def test_warped_verify_validates_each_chart_once(monkeypatch):
    """Base, fiber and product are validated once each; the renamed fiber
    samples the fiber's values at the same seed and is not checked again."""
    validated = []
    orig = Chart._validate

    def counting(self):
        validated.append(self.coords)
        orig(self)

    monkeypatch.setattr(Chart, "_validate", counting)
    code, _ = cli.warped_verify_report(cli.fixture_path("ex2_warped.mf"),
                                       points=3, seed=7)
    assert code == 0
    assert validated == [("x1",), ("x1", "x2", "x3"), ("x1", "x2", "x3", "x4")]


# (spec fixture, L1, L2): rows that fail each of (I)-(V) somewhere
WITNESS_ROWS = [
    ("rp_spec", 0, 0), ("rp_spec", 1, "x1"),
    ("ex2_spec", 0, 0), ("ex2_spec", 3, "x1"),
    ("cf_spec", 0, 0), ("cf_spec", "x1", 2),
    ("fs_spec", 1, 0), ("fs_spec", 0, "x1 + 2"),
    ("ex1_spec", 0, 0), ("ex1_spec", "x1", 1),
]


@pytest.mark.parametrize("name,L1,L2", WITNESS_ROWS)
def test_orbit_conditions_match_dense_reference(request, name, L1, L2):
    """Verdicts and witnesses, index and defect expression, match the dense loops."""
    spec = request.getfixturevalue(name)
    got = verify_conditions(spec, L1, L2, trials=3, seed=7)
    want = helpers.dense_verify_conditions(spec, L1, L2, trials=3, seed=7)
    assert got == want


def test_witness_rows_cover_every_condition(request):
    failed = set()
    for name, L1, L2 in WITNESS_ROWS:
        spec = request.getfixturevalue(name)
        failed.update(verify_conditions(spec, L1, L2, trials=3, seed=7)["failed"])
    assert failed == {"I", "II", "III", "IV", "V"}


def test_verify_conditions_roster(ex1_spec, ex2_spec, fs_spec, cf_spec,
                                  rp_spec, ex1a0_spec):
    roster = [
        (ex1_spec, 1, 0, [], True, False),
        (ex2_spec, L1_EX2, 0, [], True, True),
        (ex2_spec, 1, L2_EX2, [], False, True),
        (ex2_spec, 0, 0, ["III"], True, True),
        (fs_spec, 0, 1, [], False, True),
        (cf_spec, 0, 0, ["I", "II"], True, True),
        (ex1a0_spec, 0, 0, [], True, False),
        (rp_spec, 0, 0, ["V"], True, False),
    ]
    for spec, L1, L2, failed, ivb, ivf in roster:
        out = verify_conditions(spec, L1, L2, trials=4)
        assert out["failed"] == failed
        assert out["all_hold"] == (not failed)
        assert out["IV_base_factor_zero"] == ivb
        assert out["IV_fiber_factor_zero"] == ivf
        assert out["corollary_ii"] == (spec is not cf_spec)


def test_conditions_match_direct_defect(ex1_spec, ex2_spec, fs_spec, cf_spec,
                                        warped5_c, ex2_c):
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
        P = helpers.chart_parse(ref)
        l1, l2 = P(L1), P(L2)
        rr = cached_derivation(b, "R", "R")
        qg = cached_tachibana(b, "g", "R")
        qs = cached_tachibana(b, "S", "R")
        d = [ex.sub(rr.comp(t), ex.add(ex.mul(l1, qg.comp(t)),
                                       ex.mul(l2, qs.comp(t))))
             for t in iproduct(range(spec.n), repeat=6)]
        direct_zero = all(ref.is_zero_many(d, trials=trials))
        assert out["all_hold"] == expected
        assert direct_zero == expected


def test_base_block_ricci_combination_sign(cf_spec):
    """The base block of Q(S,R) on the product needs S + qT, not (1-q) S."""
    prod = assemble_product(cf_spec)
    b = bundle(prod)
    direct = cached_tachibana(b, "S", "R")
    base_t = list(iproduct(range(cf_spec.p), repeat=6))
    bb = bundle(cf_spec.base)
    aux = auxiliaries(cf_spec)
    q = cf_spec.q
    qsr_bar = cached_tachibana(bb, "S", "R")
    qtr_bar = tachibana(aux.T, bb.R)
    diffs = [ex.sub(direct.comp(t),
                    ex.add(qsr_bar.comp(t),
                           ex.mul(ex.const(q), qtr_bar.comp(t))))
             for t in base_t]
    assert all(prod.is_zero_many(diffs, trials=4))
    # with q = 1 the (1-q)-scaled alternative is identically zero, yet the
    # true base block is not
    assert q == 1
    assert not all(prod.is_zero_many([direct.comp(t) for t in base_t],
                                     trials=4))


def test_scalar_coefficients_must_be_base_functions(ex2_spec):
    with pytest.raises(ValueError, match="base coordinates"):
        verify_conditions(ex2_spec, "exp(x2)", 0, trials=2)
    with pytest.raises(ValueError, match="base coordinates"):
        trichotomy_report(ex2_spec, "x3", trials=2)
    with pytest.raises(ValueError, match="base coordinates"):
        dichotomy_check(ex2_spec, "x4", trials=2)


def test_trichotomy_labels(ex1_spec, ex2_spec, fs_spec, rp_spec, rpflat_spec):
    cases = [
        (ex1_spec, "a", LABEL_T),
        (ex2_spec, L1_EX2, LABEL_T),
        (ex2_spec, 0, LABEL_FIBER),
        (fs_spec, "1/4", LABEL_FIBER),
        (rpflat_spec, 5, LABEL_BASE),
        (rpflat_spec, 0, LABEL_T),
    ]
    for spec, L1, label in cases:
        rep = trichotomy_report(spec, L1, trials=6)
        assert rep["labels"] == [label]
        assert rep["all_covered"]
        assert all(r["label"] == label for r in rep["records"])
    rep = trichotomy_report(rp_spec, 5, trials=6)
    assert rep["labels"] == [LABEL_NONE]
    assert not rep["all_covered"]


def test_dichotomy_branches(ex2_spec, fs_spec, cf_spec, rp_spec):
    assert dichotomy_check(ex2_spec, 1, trials=4) == {
        "base_flat": True, "fiber_einstein": True}
    assert dichotomy_check(fs_spec, 1, trials=4) == {
        "base_flat": True, "fiber_einstein": True}
    assert dichotomy_check(cf_spec, 1, trials=4) == {
        "base_flat": False, "fiber_einstein": True}
    assert dichotomy_check(rp_spec, 1, trials=4) == {
        "base_flat": False, "fiber_einstein": False}
    with pytest.raises(ValueError, match="consistency violation"):
        dichotomy_check(rp_spec, 1, conditions_hold=True, trials=4)
    with pytest.raises(ValueError, match="vanishes"):
        dichotomy_check(ex2_spec, 0, trials=4)


def test_fit_recovers_ricci_coefficient_on_sphere_fiber_product(fs_spec):
    prod = assemble_product(fs_spec)
    b = bundle(prod)
    pts = prod.sample_points(6)
    rep = fit_pseudosymmetry(b, pts)
    assert rep.rank == 2 and not rep.trivial and not rep.family
    with mpmath.workdps(50):
        for rec in map(helpers.record_mpfs, rep.records):
            assert abs(rec["L1"]) < mpmath.mpf("1e-30")
            assert abs(rec["L2"] - 1) < mpmath.mpf("1e-30")
    assert pair_admissible(b, pts[0], 0, 1)
    assert not pair_admissible(b, pts[0], 1, 0)

"""Charts, tensor fields, metric inverse, Kulkarni-Nomizu, symmetry tests."""

import ast
import hashlib
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from warpcurv import actions, cli, conditions, curvature, warped
from warpcurv import expr as ex
from warpcurv import tensor as tensor_mod
from warpcurv.expr import Const, is_zero, parse
from warpcurv.tensor import (
    Chart, ChartError, TensorField,
    gaussian, is_generalized_curvature, kulkarni_nomizu,
    linear_dependence_check, metric_inverse, orbit_rep, orbit_reps,
    orbit_size, raise_first, _orbit_field,
)

import helpers


def euclid(n):
    coords = tuple(f"x{i+1}" for i in range(n))
    g = [[ex.const(1 if i == j else 0) for j in range(n)] for i in range(n)]
    return Chart(coords, g)


def ex2_chart():
    coords = ("x1", "x2", "x3", "x4")
    phi = "(1+2*exp(x1))"
    rows = []
    for i in range(4):
        rows.append([phi if i == j else "0" for j in range(4)])
    return Chart(coords, rows)


def ex1_fiber_chart():
    coords = ("x1", "x2", "x3", "x4")
    e2 = "exp(2*x1)"
    g = [
        ["-1", "0", "0", "0"],
        ["0", f"{e2}*x4^2", e2, "0"],
        ["0", e2, "0", "0"],
        ["0", "0", "0", e2],
    ]
    return Chart(coords, g)


def sym2_field(chart, entries):
    return TensorField(chart, (0, 2), entries, sym="sym2")


# ----------------------------------------------------------------------- chart

def test_chart_accepts_indefinite_symmetric_metric():
    c = ex1_fiber_chart()
    assert c.n == 4
    assert c.metric[1][2] == c.metric[2][1]


def test_chart_rejects_asymmetric_metric():
    with pytest.raises(ChartError, match=r"not symmetric at \(1,2\)"):
        Chart(("x1", "x2"), [["1", "x1"], ["0", "1"]])
    with pytest.raises(ChartError, match=r"not symmetric at \(2,3\)"):
        Chart(("x1", "x2", "x3"), [["1", "x2", "0"], ["x1*x2/x1", "1", "x3"],
                                   ["0", "x3^2", "1"]])


def test_chart_zero_tests_only_distinct_symmetric_entries(monkeypatch):
    calls = []
    real = tensor_mod.is_zero_many
    monkeypatch.setattr(tensor_mod, "is_zero_many",
                        lambda exprs, *a, **k: calls.append(exprs) or real(exprs, *a, **k))
    Chart(("x1", "x2", "x3"), [["1", "x1", "0"], ["x1", "2", "x2"],
                               ["0", "x2", "3"]])
    assert calls == []
    # equal entries spelled apart are distinct nodes, still zero-tested
    Chart(("x1", "x2"), [["1", "x1 + x2"], ["x2 + x1", "1"]])
    assert len(calls) == 1


def test_chart_off_diagonal_undefined_everywhere():
    with pytest.raises(ChartError, match="undefined everywhere"):
        Chart(("x1", "x2"), [["1", "log(x1 - 5)"], ["log(x1 - 5)", "1"]])


def test_chart_rejects_degenerate_metric():
    with pytest.raises(ChartError):
        Chart(("x1", "x2"), [["1", "0"], ["0", "0"]])


def test_chart_rejects_rank2_metric_at_any_ambient_precision():
    # g = u u^T + v v^T has rank 2 on a 3-chart; at 15 digits its sampled
    # determinant is rounding noise well above the zero threshold
    u = ("exp(x1)", "log(x2 + 1)", "sin(x3) + 2")
    v = ("x2", "cos(x1) + 3", "exp(x3)/7")
    g = [[f"({u[i]})*({u[j]}) + ({v[i]})*({v[j]})" for j in range(3)]
         for i in range(3)]
    for dps in (15, 50):
        with mpmath.workdps(dps), pytest.raises(ChartError, match="metric degenerate"):
            Chart(("x1", "x2", "x3"), g)


def test_chart_one_dimensional():
    c = Chart(("x1",), [["1/(1+a*(1+x1)^2)"]], params={"a": Fraction(2)})
    assert c.n == 1
    assert c.params["a"] == Fraction(2)


def test_chart_string_entries_use_declared_names():
    with pytest.raises(ChartError):
        Chart(("x1",), [["b*x1"]])  # b undeclared


def test_chart_sample_points_deterministic_and_boxed():
    c = Chart(("x1", "x2"), [["1", "0"], ["0", "1"]],
              box={"x1": (Fraction(1, 2), Fraction(3, 2))})
    pts = c.sample_points(6)
    assert pts == c.sample_points(6)
    assert len(pts) == 6
    for p in pts:
        assert Fraction(1, 2) <= p["x1"] <= Fraction(3, 2)
        assert Fraction(1, 3) <= p["x2"] <= 2


def test_tensorfield_extent_validation():
    c = euclid(2)
    with pytest.raises(ChartError):
        TensorField(c, (0, 2), [[Const(1)]])


def test_tensorfield_sym2_validation():
    c = euclid(2)
    with pytest.raises(ChartError):
        sym2_field(c, [[ex.const(0), ex.const(1)], [ex.const(2), ex.const(0)]])


# ------------------------------------------------------------- metric inverse

def test_inverse_identity_metric():
    c = euclid(3)
    gi = metric_inverse(c)
    for i in range(3):
        for j in range(3):
            assert gi.comps[i][j] == Const(1 if i == j else 0)


def test_inverse_conformal_diagonal():
    c = ex2_chart()
    gi = metric_inverse(c)
    want = parse("1/(1+2*exp(x1))", coords=c.coords)
    for i in range(4):
        assert c.is_zero(ex.sub(gi.comps[i][i], want))
        for j in range(4):
            if i != j:
                assert c.is_zero(gi.comps[i][j])


def test_inverse_contracts_to_identity_on_offdiagonal_metric():
    c = ex1_fiber_chart()
    gi = metric_inverse(c)
    for i in range(4):
        for j in range(4):
            acc = ex.add(*[ex.mul(gi.comps[i][k], c.metric[k][j]) for k in range(4)])
            target = ex.const(1 if i == j else 0)
            assert c.is_zero(ex.sub(acc, target))


def test_inverse_contracts_to_identity_on_banded_six_chart():
    c = helpers.banded_chart(6)
    gi = metric_inverse(c).comps
    prods = [ex.sub(ex.add(*[ex.mul(gi[i][k], c.metric[k][j]) for k in range(6)]),
                    ex.const(1 if i == j else 0))
             for i in range(6) for j in range(6)]
    assert all(c.is_zero_many(prods))


# sha256 of the str of every inverse-metric entry, row-major and joined by
# newlines, on the banded charts, fixed before minors were shared
BANDED_INVERSE_SHA256 = {
    6: "1ee89c21d015205114ef03221985ec42933ccbacf388c3d85dde1832fb2fbc5b",
    7: "6a51b493b9a3931a430a681693e6b353dff0d2bd73622de4c3abe0e8b6783faf",
}


@pytest.mark.parametrize("n", sorted(BANDED_INVERSE_SHA256))
def test_banded_inverse_entries_unchanged(n):
    gi = metric_inverse(helpers.banded_chart(n)).comps
    text = "\n".join(str(e) for row in gi for e in row)
    assert hashlib.sha256(text.encode()).hexdigest() == BANDED_INVERSE_SHA256[n]


def test_cofactor_inverse_expands_each_minor_once(monkeypatch):
    # Laplace expansion without reuse made 623 521 calls at n = 8
    from warpcurv import tensor
    calls = []
    expand = tensor._det_expr

    def counted(*args):
        calls.append(args[1:3])
        return expand(*args)

    monkeypatch.setattr(tensor, "_det_expr", counted)
    metric_inverse(helpers.banded_chart(8))
    assert len(calls) <= 2 ** 8 * 8
    assert len(set(calls)) == len(calls)


def test_inverse_six_dimensional_constant_diagonal():
    coords = tuple(f"x{i+1}" for i in range(6))
    g = [[f"{i+1}" if i == j else "0" for j in range(6)] for i in range(6)]
    c = Chart(coords, g)
    gi = metric_inverse(c)
    for i in range(6):
        assert gi.comps[i][i] == Const(Fraction(1, i + 1))


# ------------------------------------------------------- Kulkarni-Nomizu and G

def test_kn_identity_metric_component():
    c = euclid(2)
    gg = kulkarni_nomizu(c.metric_field(), c.metric_field())
    # indices are 0-based internally; [0][1][1][0] is the 1221 component
    assert gg.comps[0][1][1][0] == Const(2)


def test_kn_commutes_and_is_curvature_like():
    rng = random.Random(5)
    c = euclid(3)
    A = sym2_field(c, _random_sym2(rng, c))
    E = sym2_field(c, _random_sym2(rng, c))
    ae = kulkarni_nomizu(A, E)
    ea = kulkarni_nomizu(E, A)
    for idx in _all_idx(3, 4):
        assert c.is_zero(ex.sub(_at(ae, idx), _at(ea, idx)))
    assert is_generalized_curvature(ae)


def test_kn_against_bruteforce_loops():
    rng = random.Random(11)
    c = euclid(3)
    A = sym2_field(c, _random_sym2(rng, c))
    E = sym2_field(c, _random_sym2(rng, c))
    ae = kulkarni_nomizu(A, E)
    a = A.comps
    e = E.comps
    for (i, j, k, l) in _all_idx(3, 4):
        want = ex.add(
            ex.mul(a[i][l], e[j][k]),
            ex.mul(a[j][k], e[i][l]),
            ex.neg(ex.mul(a[i][k], e[j][l])),
            ex.neg(ex.mul(a[j][l], e[i][k])),
        )
        assert c.is_zero(ex.sub(ae.comps[i][j][k][l], want))


def test_gaussian_is_half_wedge_and_curvature_like():
    c = ex2_chart()
    G = gaussian(c)
    gg = kulkarni_nomizu(c.metric_field(), c.metric_field())
    for idx in _all_idx(4, 4):
        assert c.is_zero(ex.sub(ex.mul(ex.const(2), _at(G, idx)), _at(gg, idx)))
    assert is_generalized_curvature(G)
    want = parse("(1+2*exp(x1))^2", coords=c.coords)
    assert c.is_zero(ex.sub(G.comps[0][1][1][0], want))


def test_gaussian_flat_component():
    c = euclid(2)
    G = gaussian(c)
    assert G.comps[0][1][1][0] == Const(1)


# ------------------------------------------------------------------ raising

def test_raise_first_identity_metric_reindexes():
    rng = random.Random(3)
    c = euclid(3)
    D = TensorField(c, (0, 4),
                    [[[[ex.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                        for _ in range(3)] for _ in range(3)]
                      for _ in range(3)] for _ in range(3)])
    Dup = raise_first(D)
    for (i, j, k, l) in _all_idx(3, 4):
        assert Dup.comps[l][i][j][k] == D.comps[i][j][k][l]


def test_raise_then_lower_round_trip():
    c = ex1_fiber_chart()
    G = gaussian(c)
    Gup = raise_first(G)
    for (i, j, k, l) in _all_idx(4, 4):
        back = ex.add(*[ex.mul(c.metric[l][m], Gup.comps[m][i][j][k]) for m in range(4)])
        assert c.is_zero(ex.sub(back, G.comps[i][j][k][l]))


def test_raised_gaussian_acts_as_metric_wedge():
    c = ex2_chart()
    Gup = raise_first(gaussian(c)).comps
    g = c.metric
    rng = random.Random(9)
    X = [ex.const(Fraction(rng.randint(-3, 3))) for _ in range(4)]
    Y = [ex.const(Fraction(rng.randint(-3, 3))) for _ in range(4)]
    Z = [ex.const(Fraction(rng.randint(-3, 3))) for _ in range(4)]
    for l in range(4):
        lhs = ex.add(*[
            ex.mul(Gup[l][i][j][k], X[i], Y[j], Z[k])
            for i in range(4) for j in range(4) for k in range(4)
        ])
        gyz = ex.add(*[ex.mul(g[j][k], Y[j], Z[k]) for j in range(4) for k in range(4)])
        gxz = ex.add(*[ex.mul(g[i][k], X[i], Z[k]) for i in range(4) for k in range(4)])
        rhs = ex.sub(ex.mul(gyz, X[l]), ex.mul(gxz, Y[l]))
        assert c.is_zero(ex.sub(lhs, rhs))


# ------------------------------------------------- generalized curvature test

def test_zero_tensor_is_generalized_curvature():
    c = euclid(3)
    z = TensorField(c, (0, 4), _zeros(3, 4))
    assert is_generalized_curvature(z)


def test_symmetric_product_fails_antisymmetry():
    c = euclid(2)
    g = c.metric
    comps = [[[[ex.mul(g[i][j], g[k][l]) for l in range(2)] for k in range(2)]
              for j in range(2)] for i in range(2)]
    D = TensorField(c, (0, 4), comps)
    assert not is_generalized_curvature(D)


def test_perturbed_gaussian_fails():
    c = euclid(3)
    G = gaussian(c)
    comps = [[[[G.comps[i][j][k][l] for l in range(3)] for k in range(3)]
              for j in range(3)] for i in range(3)]
    comps[0][1][0][1] = ex.add(comps[0][1][0][1], ex.const(1))
    D = TensorField(c, (0, 4), comps)
    assert not is_generalized_curvature(D)


# ------------------------------------------------------------ dependence check

def test_dependence_scaled_pair():
    rng = random.Random(21)
    c = euclid(3)
    E = sym2_field(c, _random_sym2(rng, c))
    A = sym2_field(c, [[ex.mul(ex.const(3), E.comps[i][j]) for j in range(3)]
                       for i in range(3)])
    pt = c.sample_points(1)[0]
    res = linear_dependence_check(A, E, pt)
    assert res["dependent"]
    assert abs(res["ratio"] - 3) < 1e-18


def test_dependence_rejects_nonparallel():
    c = euclid(2)
    A = sym2_field(c, [["x1", "0"], ["0", "x2"]])
    res = linear_dependence_check(A, c.metric_field(), c.sample_points(1)[0])
    assert not res["dependent"]
    assert res["ratio"] is None


def test_dependence_zero_tensor():
    c = euclid(2)
    Z = sym2_field(c, _zeros(2, 2))
    E = c.metric_field()
    res = linear_dependence_check(Z, E, c.sample_points(1)[0])
    assert res["dependent"] and res["ratio"] is None


# ------------------------------------------------------------------- helpers

def _zeros(n, rank):
    if rank == 0:
        return ex.const(0)
    return [_zeros(n, rank - 1) for _ in range(n)]


def _all_idx(n, rank):
    if rank == 1:
        return [(i,) for i in range(n)]
    return [t + (i,) for t in _all_idx(n, rank - 1) for i in range(n)]


def _at(field, idx):
    v = field.comps
    for i in idx:
        v = v[i]
    return v


def _random_sym2(rng, chart):
    n = chart.n
    base = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = helpers.random_expr(rng, chart.coords, depth=2)
            base[i][j] = e
            base[j][i] = e
    return base


# ----------------------------------------------------------------- orbits

@pytest.mark.parametrize("n,rank,count", [(4, 4, 21), (5, 4, 55),
                                          (4, 6, 126), (5, 6, 550)])
def test_orbit_reps_partition_the_index_tuples(n, rank, count):
    from itertools import product as iproduct
    reps = list(orbit_reps(n, rank))
    assert len(reps) == count
    assert reps == sorted(set(reps))
    syms = [(perm[:rank], sign) for perm, sign in helpers.index_symmetries6()
            if rank == 6 or perm[4:] == (4, 5)]
    assert len(syms) == (16 if rank == 6 else 8)
    seen = set()
    for r in reps:
        orbit = {}
        for perm, sign in syms:
            t = tuple(r[i] for i in perm)
            assert orbit.setdefault(t, sign) == sign
        assert min(orbit) == r and orbit_size(r) == len(orbit)
        for t, sign in orbit.items():
            assert orbit_rep(t) == (sign, r)
        seen.update(orbit)
    for t in iproduct(range(n), repeat=rank):
        repeated = any(t[k] == t[k + 1] for k in range(0, rank, 2))
        assert (t not in seen) == repeated
        if repeated:
            assert orbit_rep(t) == (0, None)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_orbit_sizes_count_the_tuples_without_repeated_pairs(n):
    # the weights of the (L1, L2) fit: each tuple with no repeated index
    # in a pair is counted once
    for rank in (4, 6):
        total = sum(orbit_size(r) for r in orbit_reps(n, rank))
        assert total == (n * (n - 1)) ** (rank // 2)


def test_orbit_field_components():
    c = euclid(3)
    reps = {r: parse(f"x1 + {k}", coords=c.coords)
            for k, r in enumerate(orbit_reps(3, 6))}
    field = _orbit_field(c, (0, 6), reps)
    r = (0, 1, 0, 2, 1, 2)
    assert field.comp(r) is reps[r]
    assert field.comp((0, 2, 1, 0, 1, 2)) is ex.neg(reps[r])
    assert field[(2, 0, 1, 0, 1, 2)] is reps[r]
    assert field.comp((0, 1, 0, 2, 1, 1)) is ex.ZERO
    flat = field.flatten()
    assert len(flat) == 3 ** 6 and flat[0] is ex.ZERO
    assert list(field.tuples()) == list(orbit_reps(3, 6))


# ---------------------------------------------------------------------------
# The one memo of derived data


def _cache_accesses(tree):
    """`._cache` accesses outside `_cache = {}` initializers and `_cached`."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_cached":
            allowed.update(id(n) for n in ast.walk(node))
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.value, ast.Dict) and not node.value.keys):
            allowed.add(id(node.targets[0]))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_cache"
            and id(node) not in allowed]


def test_only_the_memo_touches_an_object_cache():
    # every per-object cache is written by tensor._cached alone; a
    # hand-written `if key not in obj._cache` block is a second memo
    src = Path(tensor_mod.__file__).resolve().parent
    offenders = {path.name: lines for path in sorted(src.glob("*.py"))
                 for lines in [_cache_accesses(ast.parse(path.read_text()))]
                 if lines}
    assert offenders == {}
    text = "def f(spec):\n    if 'k' not in spec._cache:\n        pass\n"
    assert _cache_accesses(ast.parse(text)) == [2]


def test_memoized_builders_build_once(monkeypatch):
    built = []

    def counting(owner, name):
        orig = getattr(owner, name)

        def run(*args):
            built.append((name, id(args[0])))
            return orig(*args)
        monkeypatch.setattr(owner, name, run)

    counting(tensor_mod, "_cofactor_inverse")     # once per chart
    counting(curvature, "CurvatureBundle")        # once per chart
    counting(warped, "_Ctx")                      # once per spec
    spec = cli.build_spec(cli.load_manifest(cli.fixture_path("ex2_warped.mf")))
    prod = warped.assemble_product(spec)
    b = curvature.bundle(prod)
    builders = [
        prod.metric_field, lambda: metric_inverse(prod),
        lambda: gaussian(prod), lambda: curvature.bundle(prod),
        *(lambda name=name: getattr(b, name)
          for name in ("gamma", "R", "S", "kappa", "K", "C", "W", "P")),
        lambda: actions.cached_derivation(b, "R", "R"),
        lambda: actions.cached_derivation(b, "R", "S"),
        lambda: actions.cached_tachibana(b, "g", "R"),
        lambda: actions.cached_tachibana(b, "S", "R"),
        lambda: conditions._fit_vectors(b),
        *(lambda fn=fn: fn(spec) for fn in (
            warped.assemble_product, warped.auxiliaries, warped._ctx,
            warped.block_curvature, warped.block_actions)),
    ]
    first = [build() for build in builders]
    assert sorted(set(built)) == sorted(built)
    assert [name for name, _ in built].count("_Ctx") == 1
    caches = [dict(obj._cache) for obj in (prod, b, spec)]
    count = len(built)
    again = [build() for build in builders]
    assert all(x is y for x, y in zip(first, again))
    assert len(built) == count
    assert [obj._cache for obj in (prod, b, spec)] == caches

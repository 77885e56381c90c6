"""Expression trees: parsing, printing, differentiation, evaluation, zero test."""

import gc
import hashlib
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from warpcurv import expr as ex
from warpcurv.expr import (
    Add, Const, Coord, Div, Exp, Mul, Neg, Param, Pow,
    DomainError, EvalError, InconclusiveError, ParseError,
    DEFAULT_SEED, evaluate, diff, free_coords, free_params, is_zero,
    parse, rename, sample_box_points, to_str,
)

from warpcurv.cli import build_chart, fixture_path, load_manifest
from warpcurv.curvature import bundle
from warpcurv.tensor import Chart, orbit_reps

import helpers

XY = ("x1", "x2")


def p(text, coords=XY, params=()):
    return parse(text, coords=coords, params=params)


# ---------------------------------------------------------------------- parse

def test_parse_power_plus_one_shape():
    e = p("x1^2 + 1")
    assert isinstance(e, Add)
    pw, one = e.terms
    assert isinstance(pw, Pow) and pw.exponent == 2
    assert isinstance(pw.base, Coord) and pw.base.name == "x1"
    assert one == Const(Fraction(1))


def test_parse_warping_factor_shape():
    e = p("(1+2*exp(x1))")
    assert isinstance(e, Add)
    one, twoexp = e.terms
    assert one == Const(Fraction(1))
    assert isinstance(twoexp, Mul)
    c, expo = twoexp.factors
    assert c == Const(Fraction(2))
    assert isinstance(expo, Exp)


def test_parse_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        p("x1 + * 2")
    assert err.value.offset == 5


def test_parse_unknown_identifier():
    with pytest.raises(ParseError) as err:
        p("x1 + b")
    assert "b" in str(err.value)
    assert err.value.offset == 5


def test_parse_declared_parameter():
    e = p("a*x1", params=("a",))
    assert isinstance(e, Mul)
    assert isinstance(e.factors[0], Param)


def test_parse_rational_literals():
    assert p("3/7") == Const(Fraction(3, 7))
    assert p("-3/7") == Const(Fraction(-3, 7))
    assert p("2^10") == Const(Fraction(1024))


def test_parse_nesting_cap():
    deep = ex.MAX_NESTING
    assert p("(" * deep + "x1" + ")" * deep) == Coord("x1")
    with pytest.raises(ParseError) as err:
        p("exp(" * (deep + 1) + "x1" + ")" * (deep + 1))
    assert err.value.offset == 4 * deep + 3   # the first '(' past the cap
    assert "nested" in str(err.value)


def test_parse_division_chain_cap():
    # x1/x1/.../x1 nests left, one Div per '/'; the chain counts as nesting
    deep = ex.MAX_NESTING
    e = p("/".join(["x1"] * (deep + 1)))
    for _ in range(deep):
        assert isinstance(e, Div)
        e = e.num
    assert e == Coord("x1")
    with pytest.raises(ParseError) as err:
        p("/".join(["x1"] * (deep + 2)))
    assert err.value.offset == 3 * (deep + 1) - 1   # the '/' past the cap
    assert "divisions nested" in str(err.value)
    # quotients that fold to a constant add no level
    assert p("2" + "/2" * (3 * deep)) == Const(Fraction(2, 2 ** (3 * deep)))
    # parentheses and divisions share one cap
    with pytest.raises(ParseError):
        p("(" * deep + "x1/x1" + ")" * deep)


def test_parse_exponent_forms():
    assert p("x1^(-1)").exponent == -1
    assert p("x1^(1/2)").exponent == Fraction(1, 2)
    assert p("x1^-2").exponent == -2
    # unparenthesized fractional exponent binds as division
    e = p("x1^1/2")
    assert isinstance(e, Div)


def test_parse_no_power_chains():
    with pytest.raises(ParseError):
        p("x1^2^3")


def test_parse_unary_minus():
    e = p("-x1*x2")
    assert isinstance(e, Neg) and isinstance(e.child, Mul)
    e = p("-x1+x2")
    assert isinstance(e, Add) and isinstance(e.terms[0], Neg)
    assert p("x1*(-x2)") == ex.mul(Coord("x1"), ex.neg(Coord("x2")))
    with pytest.raises(ParseError):
        p("x1*-x2")


def test_parse_unbalanced_parens():
    with pytest.raises(ParseError):
        p("(x1+1")
    with pytest.raises(ParseError):
        p("x1)")


def test_parse_empty_input():
    with pytest.raises(ParseError):
        p("   ")


# ------------------------------------------------------------- print round-trip

ROUND_TRIP_SOURCES = [
    "x1^2 + 1",
    "(1+2*exp(x1))",
    "-x1*x2 + 3/7",
    "6*exp(x1)*(1+exp(x1))/(1+2*exp(x1))^3",
    "sin(x1)^2 + cos(x1)^2 - 1",
    "x1^(-3/2)*log(2+x2^2)",
    "-(x1 + x2)",
    "x1/(x2*x1)",
    "(x1/x2)/(1+x1)",
    "1/3*x1 - 2*x2",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_print_parse_fixpoint(src):
    t1 = p(src)
    t2 = p(to_str(t1))
    assert t1 == t2
    assert is_zero(ex.sub(t1, t2), coords=XY)


def test_print_goldens():
    assert to_str(p("x1-x2")) == "x1 - x2"
    assert to_str(p("2*(x1+1)^2")) == "2*(x1 + 1)^2"
    assert to_str(p("-(x1+x2)")) == "-(x1 + x2)"
    assert to_str(p("x1^(-1)")) == "x1^(-1)"
    assert to_str(p("x1*(-x2)")) == "x1*(-x2)"



# ------------------------------------------------------ printing shared nodes

def _shared_dag(depth):
    """x1, then e -> (e + 1)*(e + 2): each level uses the one below twice."""
    e = Coord("x1")
    for _ in range(depth):
        e = ex.mul(ex.add(e, ex.const(1)), ex.add(e, ex.const(2)))
    return e


def _pullback_chart():
    """Euclidean metric pulled back through y_i = x_i + sum_{k<i} c_ik x_k^2.

    Flat, with curvature trees that swell before they cancel.
    """
    n = 3
    c = {(1, 0): Fraction(257, 256), (2, 0): Fraction(261, 256),
         (2, 1): Fraction(265, 256)}
    g = [[None] * n for _ in range(n)]
    for j in range(n):
        a = sum(4 * c[i, j] ** 2 for i in range(j + 1, n))
        g[j][j] = f"1 + {a}*x{j + 1}^2" if a else "1"
        for k in range(j + 1, n):
            b = sum(4 * c[i, j] * c[i, k] for i in range(k + 1, n))
            g[j][k] = g[k][j] = (f"{2 * c[k, j]}*x{j + 1}"
                                 + (f" + {b}*x{j + 1}*x{k + 1}" if b else ""))
    return Chart(("x1", "x2", "x3"), g)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_print_shared_dag_pinned():
    # 2^16 copies of x1 in the text, 33 distinct nodes in the tree
    text = to_str(_shared_dag(16))
    assert len(text) == 983027
    assert _sha256(text) == (
        "98df235f6328b3ae6af5a11e4f6ee37e0cbaf33d55288358229211ccf216e48d")
    e = _shared_dag(12)
    assert p(to_str(e)) == e


def test_print_pullback_kappa_pinned():
    chart = _pullback_chart()
    kappa = bundle(chart).kappa
    text = str(kappa)
    assert len(text) == 451142
    assert _sha256(text) == (
        "7648428882b13b3e314cda6a7dcb771743b1e814f41e7409de8d31a34450fc10")
    assert parse(text, coords=chart.coords) == kappa


def test_print_matches_plain_printer():
    rng = random.Random(5)
    for _ in range(300):
        e = helpers.random_expr(rng, XY, depth=rng.randint(1, 5))
        shared = ex.add(ex.mul(e, ex.neg(e)),
                        ex.sub(e, ex.div(e, ex.add(ex.const(1), ex.pow_(e, 2)))),
                        ex.neg(ex.add(e, Coord("x2"))), ex.exp_(ex.neg(e)))
        for t in (e, shared):
            assert to_str(t) == helpers.plain_to_str(t)


def test_print_memo_released_after_last_use():
    e = _shared_dag(6)
    r = ex._Printer(ex._shape(e)[0])
    # e_1 .. e_5 have two parents each; x1 is a leaf, rendered in place
    assert sorted(r._uses_left.values()) == [2] * 5
    out = []
    r._sum(e, out)
    assert "".join(out) == helpers.plain_to_str(e)
    assert r._uses_left == {} and r._memo == {}


def _tree_size(e):
    """Nodes of `e` expanded as a tree, counted naively."""
    return 1 + sum(_tree_size(c) for c in ex._children(e))


_DAG_STEPS = (
    (2, ex.add), (2, ex.mul), (2, ex.sub), (2, ex.div), (1, ex.neg),
    (1, ex.exp_), (1, ex.log_), (1, ex.sin_), (1, ex.cos_),
    (1, lambda a: ex.pow_(a, 2)), (1, lambda a: ex.pow_(a, Fraction(-1, 3))),
    (3, ex.add), (3, ex.mul),
)


def _dag_strategy(st, names=("x1", "x2")):
    """Expressions built step by step from a pool that every step adds to
    and draws its operands from, so subtrees are shared at random."""
    leaves = [Coord(n) for n in names] + [Param("a")] + [
        ex.const(Fraction(k, d)) for k, d in ((-3, 1), (2, 1), (5, 7), (-1, 2))]

    @st.composite
    def dags(draw):
        pool = list(leaves)
        for _ in range(draw(st.integers(1, 14))):
            arity, step = draw(st.sampled_from(_DAG_STEPS))
            args = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(arity)]
            try:
                pool.append(step(*args))
            except ex.ExprError:
                pass
        return pool[-1]

    return dags()


def test_printed_size_is_counted_over_the_dag():
    """`_shape`'s O(DAG) tree size matches a naive recursive count, and its
    parent counts match the children lists of the distinct nodes."""
    rng = random.Random(11)
    trees = [_shared_dag(d) for d in range(8)]
    for _ in range(200):
        e = helpers.random_expr(rng, XY, depth=rng.randint(0, 5))
        trees += [e, ex.add(ex.mul(e, ex.neg(e)), ex.div(e, ex.add(ex.const(1), ex.pow_(e, 2))))]
    for e in trees:
        parents, size = ex._shape(e)
        assert size == _tree_size(e)
        want, todo = {}, [e]
        seen = set()
        while todo:
            node = todo.pop()
            if node in seen:
                continue
            seen.add(node)
            for c in ex._children(node):
                if not isinstance(c, ex._LEAVES):
                    want[c] = want.get(c, 0) + 1
                    todo.append(c)
        assert parents == want
    # size(e_k) = 5 + 2 size(e_(k-1)) and size(x1) = 1, over 3k + 1 DAG nodes
    assert ex._shape(_shared_dag(40))[1] == 6 * 2 ** 40 - 5


def test_print_budget_refuses_before_any_piece(monkeypatch):
    e = _shared_dag(10)
    size = _tree_size(e)
    monkeypatch.setattr(ex, "MAX_PRINTED_NODES", size)
    assert str(ex.to_pieces(e)) == helpers.plain_to_str(e)
    monkeypatch.setattr(ex, "MAX_PRINTED_NODES", size - 1)

    def no_printer(*args):
        raise AssertionError("rendering began over the budget")

    monkeypatch.setattr(ex, "_Printer", no_printer)
    for render in (ex.to_pieces, to_str, str):
        with pytest.raises(ex.PrintBudgetError) as err:
            render(e)
        assert err.value.size == size
        assert f"{size} tree nodes" in str(err.value)
        assert f"budget of {size - 1}" in str(err.value)
    assert issubclass(ex.PrintBudgetError, ex.ExprError)
    # a tree of 2^41 copies of x1 is refused at once
    monkeypatch.undo()
    with pytest.raises(ex.PrintBudgetError):
        ex.to_pieces(_shared_dag(40))


def test_pieces_match_plain_printer_on_shared_dags():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=300, derandomize=True, deadline=None,
                  suppress_health_check=list(hyp.HealthCheck))
    @hyp.given(_dag_strategy(hyp.strategies))
    def check(e):
        t = ex.to_pieces(e)
        assert type(t) is ex.Text and all(type(p) is str for p in t)
        assert str(t) == to_str(e) == helpers.plain_to_str(e)

    check()


def test_shared_text_is_one_piece_object():
    """A node with several parents is one str object at each of its uses,
    and the number of pieces follows the DAG, not the text."""
    e = _shared_dag(14)
    t = ex.to_pieces(e)
    below = ex._children(ex._children(e)[0])[0]          # e_13, used twice
    assert ex._shape(e)[0][below] == 2
    uses = [p for p in t if p == helpers.plain_to_str(below)]
    assert len(uses) == 2 and uses[0] is uses[1]
    # the text doubles with each level; the pieces stay as many
    assert len(str(t)) > 2 ** 14 and len(t) == len(ex.to_pieces(_shared_dag(3)))
    kappa = bundle(_pullback_chart()).kappa
    dag = len(ex._shape(kappa)[0])
    t = ex.to_pieces(kappa)
    assert len(str(t)) == 451142
    assert len(t) < dag < len(str(t)) // 100
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=100, derandomize=True, deadline=None,
                  suppress_health_check=list(hyp.HealthCheck))
    @hyp.given(_dag_strategy(hyp.strategies))
    def check(e):
        parents, _ = ex._shape(e)
        edges = sum(len(ex._children(c)) for c in parents) + len(ex._children(e))
        assert len(ex.to_pieces(e)) <= 3 * (len(parents) + edges) + 2

    check()


# ---------------------------------------------------------------- constructors

def test_constant_folding():
    assert ex.add(ex.const(2), ex.const(3)) == Const(Fraction(5))
    assert ex.mul(ex.const(0), Coord("x1")) == Const(Fraction(0))
    assert ex.mul(Coord("x1"), ex.const(1)) == Coord("x1")
    assert ex.add(Coord("x1")) == Coord("x1")
    assert ex.pow_(ex.const(2), 10) == Const(Fraction(1024))
    assert ex.exp_(ex.const(0)) == Const(Fraction(1))
    assert ex.log_(ex.const(1)) == Const(Fraction(0))


def test_power_merging():
    x = Coord("x1")
    assert ex.pow_(ex.pow_(x, 2), 3) == Pow(x, Fraction(6))
    assert ex.pow_(ex.pow_(x, Fraction(1, 2)), 2) == x
    nested = ex.pow_(ex.pow_(x, 2), Fraction(1, 2))
    assert isinstance(nested, Pow) and isinstance(nested.base, Pow)


def test_exponent_budget():
    # exact evaluation raises int pairs to the exponent, so a power over
    # MAX_EXPONENT is refused when built: after merging, before folding
    x = Coord("x1")
    top = ex.MAX_EXPONENT
    assert ex.pow_(x, top) == Pow(x, Fraction(top))
    assert ex.pow_(x, -top) == Pow(x, Fraction(-top))
    assert ex.pow_(x, Fraction(2 * top + 1, 3)) == Pow(x, Fraction(2 * top + 1, 3))
    assert p(f"2^{top}") == Const(Fraction(2) ** top)
    over = [lambda: ex.pow_(x, top + 1), lambda: ex.pow_(x, -top - 1),
            lambda: ex.pow_(x, Fraction(2 * top + 1, 2)),
            lambda: ex.pow_(ex.pow_(x, top), 2), lambda: ex.pow_(ex.const(3), top + 1),
            lambda: p(f"x1^{top + 1}"), lambda: p(f"(x1^{top})^{top}"),
            lambda: p("3^99999999"), lambda: ex.diff(ex.pow_(x, -top), "x1")]
    for build in over:
        with pytest.raises(ex.ExponentBudgetError) as err:
            build()
        assert f"over the budget of {top} (MAX_EXPONENT)" in str(err.value)
        assert abs(err.value.exponent) > top
    assert issubclass(ex.ExponentBudgetError, ex.ExprError)


def test_exact_power_budget():
    # (n/d)^k is refused when max(bit_length(n), bit_length(d)) |k| exceeds
    # MAX_EXACT_BITS, both when a constant is folded and when a rational
    # value is raised at a point; a point is never skipped for it
    top = ex.MAX_EXACT_BITS
    k = ex.MAX_EXPONENT
    under = 2 ** (top // k - 1)  # top // k bits
    over = 2 ** (top // k)
    x = Coord("x1")
    assert ex.pow_(Const(under), k) == Const(Fraction(under) ** k)
    assert ex.pow_(Const(Fraction(1, under)), -k) == Const(Fraction(under) ** k)
    assert ex.PointEval({"x1": Fraction(1, under)}).eval(ex.pow_(x, -k)) == under ** k
    for build in (lambda: ex.pow_(Const(over), k), lambda: ex.pow_(Const(-over), -k),
                  lambda: ex.pow_(Const(Fraction(1, over)), k),
                  lambda: p(f"x1*({over})^{k}")):
        with pytest.raises(ex.ExactBudgetError) as err:
            build()
        assert err.value.bits == (top // k + 1) * k > top
        assert f"over the budget of {top} (MAX_EXACT_BITS)" in str(err.value)
    for value in (Fraction(over), Fraction(-1, over), Fraction(over, 3)):
        with pytest.raises(ex.ExactBudgetError):
            ex.PointEval({"x1": value}).eval(ex.pow_(x, -k))
    with pytest.raises(ex.ExactBudgetError):
        ex.is_zero_many([ex.pow_(ex.add(x, ex.ONE), k)], ["x1"],
                        box={"x1": (over, over + 1)}, trials=2)
    assert issubclass(ex.ExactBudgetError, ex.ExprError)
    assert not issubclass(ex.ExactBudgetError, DomainError)


def test_division_by_literal_zero_rejected():
    with pytest.raises(DomainError):
        ex.div(Coord("x1"), ex.const(0))


# --------------------------------------------------------------- hash-consing

def test_equal_trees_are_one_object():
    s = "exp(x1)*(x2 - 1/3)^(1/2) + sin(x1/x2)"
    assert p(s) is p(s)
    assert Const(Fraction(2, 4)) is Const(Fraction(1, 2))
    assert Const(0) is ex.ZERO
    assert ex.is_literal_zero(Const(Fraction(0, 5)))
    # no new folding: a - a keeps its two terms
    x = Coord("x1")
    assert ex.sub(x, x) is Add((x, Neg(x)))


def test_equality_is_identity():
    assert ex.Expr.__eq__ is object.__eq__
    assert ex.Expr.__hash__ is object.__hash__
    for cls in (ex.Expr, Const, Coord, Param, Add, Mul, Pow, Neg, Div, Exp):
        assert "_key" not in vars(cls) and "__init__" not in vars(cls)
    assert not hasattr(ex.PointEval({}), "_roots")


def test_intern_table_shrinks_after_bundle_dropped():
    gc.collect()
    before = len(ex._NODES)
    # coordinate names no other test uses, so every node is new
    u = ("u1", "u2", "u3")
    chart = Chart(u, [["1 + u2^2", "0", "0"], ["0", "exp(u1)", "u3"],
                      ["0", "u3", "2 + sin(u1)"]])
    bundle(chart).kappa
    grown = len(ex._NODES)
    del chart
    gc.collect()
    assert grown > before + 100
    assert len(ex._NODES) <= before


def test_rational_fields_key_by_value():
    # a rational field enters the key as its lowest-terms integers
    x = Coord("x1")
    assert ex.neg(Const(Fraction(3, 4))) is Const(Fraction(-3, 4))
    assert Pow(x, 2) is Pow(x, Fraction(4, 2))


def test_rebuilt_node_survives_its_predecessors_callback():
    gc.collect()
    key = (Coord, "w_rebuilt")  # a name no other test uses
    node = Coord("w_rebuilt")
    dead = ex._NODES[key]
    callback = dead.__callback__  # cleared once the ref dies
    del node
    gc.collect()
    assert dead() is None and key not in ex._NODES
    rebuilt = Coord("w_rebuilt")
    # the dead ref's callback, run late, must leave the rebuilt entry alone
    callback(dead)
    assert ex._NODES[key]() is rebuilt
    assert [k for k, r in ex._NODES.items() if r() is rebuilt] == [key]
    assert Coord("w_rebuilt") is rebuilt


def test_intern_table_holds_only_live_nodes():
    keep = p("exp(x1)*(x2 - 1/3)^(1/2) + sin(x1/x2)")
    p("x1^3 - 5/7"), diff(keep, "x1")  # built and dropped
    gc.collect()
    for key, ref in ex._NODES.items():
        assert ref.key is key and ref() is not None
    assert keep is p("exp(x1)*(x2 - 1/3)^(1/2) + sin(x1/x2)")


_ORACLE_CONSTS = (ex.ZERO, ex.ONE, Const(-1), Const(2), Const(-3), Const(Fraction(-3, 4)),
                  Const(Fraction(5, 2)), Const(Fraction(1, 3)))
_ORACLE_EXPONENTS = (0, 1, 2, 3, -1, -2, Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2),
                     Fraction(2, 3))


def _oracle_outcomes(op, args):
    """(engine, oracle) outcomes of one constructor call: (node, None), or
    (None, message) when it raises DomainError."""
    def outcome(ctor):
        try:
            return ctor(*args), None
        except DomainError as err:
            return None, str(err)

    return outcome(getattr(ex, op)), outcome(getattr(helpers.SeedConstructors, op))


def test_smart_constructors_match_seed_oracle_on_pairs():
    # every constructor on every pair of a pool of leaves and small nodes
    x = Coord("x1")
    pool = _ORACLE_CONSTS + (x, Param("a"), Neg(x), Add((x, Const(2))),
                             Mul((Const(-3), x)), Pow(x, Fraction(1, 2)), Div(x, Coord("x2")))
    calls = [("neg", (a,)) for a in pool]
    calls += [("pow_", (a, e)) for a in pool for e in _ORACLE_EXPONENTS]
    calls += [(op, (a, b)) for op in ("add", "mul", "div") for a in pool for b in pool]
    for op, args in calls:
        got, want = _oracle_outcomes(op, args)
        assert got[0] is want[0] and got[1] == want[1], (op, args)


def test_smart_constructors_match_seed_oracle():
    """`add`, `mul`, `neg`, `div` and `pow_` return the very node that the
    Fraction-folding constructors of `helpers.SeedConstructors` return, or
    raise DomainError where they do, on random operand mixes."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    exponents = st.sampled_from(_ORACLE_EXPONENTS)
    leaves = st.sampled_from(_ORACLE_CONSTS + (Coord("x1"), Coord("x2"), Param("a")))
    operands = st.recursive(leaves, lambda kids: st.one_of(
        kids.map(Neg),
        st.lists(kids, min_size=2, max_size=3).map(Add),
        st.lists(kids, min_size=2, max_size=3).map(Mul),
        st.tuples(kids, exponents).map(lambda be: Pow(*be)),
        st.tuples(kids, kids).map(lambda nd: Div(*nd)),
    ), max_leaves=6)

    @hyp.settings(max_examples=400, derandomize=True, deadline=None,
                  suppress_health_check=list(hyp.HealthCheck))
    @hyp.given(st.sampled_from(("add", "mul", "neg", "div", "pow_")),
               st.lists(operands, min_size=1, max_size=4), exponents)
    def check(op, args, exponent):
        if op == "neg":
            args = args[:1]
        elif op == "div":
            args = (args * 2)[:2]
        elif op == "pow_":
            args = [args[0], exponent]
        got, want = _oracle_outcomes(op, args)
        assert got[0] is want[0] and got[1] == want[1], (op, args)

    check()


def test_rr_table_nodes_distinct_by_structure():
    # the dense R.R table of ex1_fiber: 7452 identity-distinct and 1826
    # structure-distinct nodes before interning
    from warpcurv.actions import derivation_action
    from warpcurv.cli import build_chart, fixture_path, load_manifest
    chart = build_chart(load_manifest(fixture_path("ex1_fiber.mf")))
    b = bundle(chart)
    rr = derivation_action(b.R, b.R)
    assert helpers.count_nodes(rr.flatten()) == (1826, 1826)


# ------------------------------------------------------------------------ diff

def test_diff_power_rule():
    assert is_zero(ex.sub(diff(p("x1^2"), "x1"), p("2*x1")), coords=XY)


def test_diff_exp_chain():
    assert is_zero(ex.sub(diff(p("exp(2*x2)"), "x2"), p("2*exp(2*x2)")), coords=XY)


def test_diff_square_at_point():
    d = diff(p("(x1+1)^2"), "x1")
    v = evaluate(d, {"x1": Fraction(1)})
    assert v == Fraction(4) and isinstance(v, Fraction)


def test_diff_quotient_and_trig():
    e = p("sin(x1)/cos(x1)")
    want = p("1/cos(x1)^2")
    assert is_zero(ex.sub(diff(e, "x1"), want), coords=XY)
    assert is_zero(ex.sub(diff(p("log(2+x1^2)"), "x1"), p("2*x1/(2+x1^2)")), coords=XY)


def test_diff_wrt_param_free_name_is_zero():
    assert diff(p("x1^3"), "x2") == Const(Fraction(0))
    assert diff(p("a", params=("a",), coords=()), "x1") == Const(Fraction(0))


def test_diff_fractional_power():
    e = diff(p("x1^(1/2)"), "x1")
    want = p("1/2*x1^(-1/2)")
    assert is_zero(ex.sub(e, want), coords=XY)


def test_diff_vs_central_difference_100_pairs():
    rng = random.Random(0xC0FFEE)

    def m(v):
        if isinstance(v, Fraction):
            return mpmath.mpf(v.numerator) / v.denominator
        return mpmath.mpf(v)

    checked = 0
    with mpmath.workdps(50):
        h = mpmath.mpf("1e-6")
        while checked < 100:
            e = helpers.random_expr(rng, XY, depth=3)
            v = rng.choice(XY)
            pt = helpers.rational_points(rng, XY, 1)[0]
            exact = m(evaluate(diff(e, v), pt))
            up = dict(pt)
            dn = dict(pt)
            up[v] = m(up[v]) + h
            dn[v] = m(dn[v]) - h
            fd = (m(evaluate(e, up)) - m(evaluate(e, dn))) / (2 * h)
            assert abs(exact - fd) <= mpmath.mpf("1e-6") * (1 + abs(exact))
            checked += 1
    assert checked == 100


# ------------------------------------------------------------------------ eval

def test_eval_rational_fast_path():
    v = evaluate(p("x1^2/3"), {"x1": Fraction(1, 2)})
    assert isinstance(v, Fraction) and v == Fraction(1, 12)


def test_eval_scalar_curvature_value_at_zero():
    e = p("6*exp(x1)*(1+exp(x1))/(1+2*exp(x1))^3")
    v = evaluate(e, {"x1": Fraction(0)})
    with mpmath.workdps(50):
        assert abs(v - mpmath.mpf(4) / 9) < mpmath.mpf("1e-45")


def test_eval_zero_expr():
    assert evaluate(Const(Fraction(0)), {}) == 0


def test_eval_matches_high_precision_reference():
    with mpmath.workdps(50):
        v = evaluate(p("exp(x1)"), {"x1": Fraction(1)})
        assert abs(v - mpmath.e) < mpmath.mpf("1e-48")


def test_eval_unbound_variable():
    with pytest.raises(EvalError):
        evaluate(p("x1+x2"), {"x1": Fraction(1)})


def test_eval_domain_violations():
    with pytest.raises(DomainError):
        evaluate(p("1/x1"), {"x1": Fraction(0)})
    with pytest.raises(DomainError):
        evaluate(p("log(x1)"), {"x1": Fraction(-1)})
    with pytest.raises(DomainError):
        evaluate(p("x1^(-1)"), {"x1": Fraction(0)})
    with pytest.raises(DomainError):
        evaluate(p("x1^(1/2)"), {"x1": Fraction(-1)})


def test_point_eval_memo_ignores_freed_trees():
    # each parsed tree is garbage after its evaluation; a later tree may
    # reuse its addresses and must still get its own value
    pe = ex.PointEval({"x1": Fraction(1, 2)})
    for k in range(200):
        assert pe.eval(p(f"x1 + {k}")) == Fraction(1, 2) + k


# ----------------------------------------------------------------------- judge

def test_judge_snaps_exact_zero():
    v = ex.PointEval({"x1": Fraction(1, 3)}).judge(p("x1 - 1/3"))
    assert isinstance(v, ex.MP.mpf) and v == 0


def test_judge_threshold_boundary():
    # x1 - x1 + c equals c exactly, with largest intermediate magnitude
    # m = |x1| = 3, so the threshold is 1e-30 * (1 + 3)
    pe = ex.PointEval({"x1": Fraction(3)})
    x = Coord("x1")
    edge = Fraction(4, 10**30)
    under = ex.add(x, ex.neg(x), Const(edge * (1 - Fraction(1, 10**12))))
    over = ex.add(x, ex.neg(x), Const(edge * (1 + Fraction(1, 10**12))))
    assert pe.judge(under) == 0
    with mpmath.workdps(50):
        assert pe.judge(over) == ex.to_mpf(edge * (1 + Fraction(1, 10**12)))


def test_judge_domain_error_propagates():
    with pytest.raises(DomainError):
        ex.PointEval({"x1": Fraction(1)}).judge(p("log(x1 - 1)"))


def test_judge_independent_of_ambient_precision():
    pe = ex.PointEval({"x1": Fraction(3)})
    x = Coord("x1")
    value = Fraction(4, 10**30) * (1 + Fraction(1, 10**20))
    e = ex.add(x, ex.neg(x), Const(value))
    with mpmath.workdps(50):
        exact = ex.to_mpf(value)
    for dps in (15, 30, 80):
        with mpmath.workdps(dps):
            v = pe.judge(e)
        assert v == exact


def test_judged_makes_no_mpf(monkeypatch):
    # judged reads a value and its scale from the memo as tuples: with no
    # mpmath context to be had, the zero test of R still runs
    charts = [build_chart(load_manifest(fixture_path(name)))
              for name in ("sphere.mf", "ex1_fiber.mf")]
    comps = [[bundle(c).R.comp(t) for t in orbit_reps(c.n, 4)] for c in charts]

    def no_context(dps):
        raise AssertionError("an mpmath context was built")

    monkeypatch.setattr(ex, "_context", no_context)
    for chart, exprs in zip(charts, comps):
        test = ex.ZeroTest(exprs)
        ex.sweep(chart.sample_points(4, 7), [test])
        verdicts = test.result()
        assert not all(verdicts), chart.coords
    with pytest.raises(AssertionError, match="context was built"):
        ex.PointEval({"x1": Fraction(1, 3)}).eval(p("exp(x1)"))


def test_mag_gt_matches_mpf_gt():
    """`mag_gt` gives `mpf_gt`'s answer on nonnegative tuples: random
    values, pairs of equal exp + bc, powers of two and their neighbours at
    the working precision, and zero."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    from mpmath.libmp import from_man_exp, fzero, mpf_gt
    prec = ex.MP._prec_rounding[0]
    seen = {"zero": 0, "tied order": 0, "equal": 0, "power of two": 0, "other": 0}

    def near_power(k, step):
        # 2^k, or its neighbour `step` units in the last place away
        if step < 0:
            return from_man_exp((1 << prec) + step, k - prec)
        return from_man_exp((1 << (prec - 1)) + step, k - prec + 1)

    exps = st.integers(-300, 300)
    value = st.one_of(
        st.just(fzero),
        st.builds(from_man_exp, st.integers(1, (1 << prec) - 1), exps),
        st.builds(near_power, exps, st.integers(-2, 2)))

    @st.composite
    def pairs(draw):
        s = draw(value)
        if s[1] and draw(st.booleans()):
            # the same binary order as s, so the mantissas decide
            man = draw(st.integers(1, (1 << prec) - 1) | st.just(s[1]))
            return s, from_man_exp(man, s[2] + s[3] - man.bit_length())
        return s, draw(value)

    @hyp.settings(max_examples=600, derandomize=True, deadline=None,
                  suppress_health_check=list(hyp.HealthCheck))
    @hyp.given(pairs())
    def check(pair):
        s, t = pair
        assert ex.mag_gt(s, t) == mpf_gt(s, t), pair
        assert ex.mag_gt(t, s) == mpf_gt(t, s), pair
        if not s[1] or not t[1]:
            seen["zero"] += 1
        elif s == t:
            seen["equal"] += 1
        elif s[2] + s[3] == t[2] + t[3]:
            seen["tied order"] += 1
        elif s[1] == 1 or t[1] == 1:
            seen["power of two"] += 1
        else:
            seen["other"] += 1

    check()
    assert min(seen.values()) > 20, seen


def test_mag_gt_decides_zero_on_ints(monkeypatch):
    """Zero against zero or a nonzero value is decided without `mpf_gt`;
    only a special operand (inf, nan) reaches it, with its answer."""
    from mpmath.libmp import finf, fnan, from_man_exp, fzero, mpf_gt
    nonzero = [from_man_exp(1, -1100), from_man_exp(3, -7), from_man_exp(1, 0),
               from_man_exp((1 << 166) - 1, 40)]
    specials = [finf, fnan]
    calls = []

    def counting(s, t):
        calls.append((s, t))
        return mpf_gt(s, t)

    monkeypatch.setattr(ex, "mpf_gt", counting)
    values = [fzero, *nonzero, *specials]
    for s in values:
        for t in values:
            calls.clear()
            assert ex.mag_gt(s, t) == mpf_gt(s, t), (s, t)
            assert len(calls) == (s in specials or t in specials), (s, t)


def test_judged_decides_as_the_exact_formula_near_the_threshold():
    """`judged` snaps to zero exactly when `|t| <= 1e-30 (1 + m)` in mpf
    arithmetic, for values 0 to 4 binary orders on each side of that bound
    and at its neighbours, with m below and above 1.  In `a + b*c` with
    c = 0 the value is a and the scale max(|a|, |b|)."""
    fzero = ex.fzero
    MP = ex.MP
    e = p("a + b*c", params=("a", "b", "c"))
    ulp = MP.mpf(2) ** (1 - MP.prec)
    tol = MP.mpf(ex._ZERO_TOL)
    zero = nonzero = 0
    for b in (0, MP.mpf(1) / 3, 1, MP.mpf(3) * 2 ** 10, MP.mpf("1e60"),
              MP.mpf(2) ** 200):
        bound = tol * (1 + abs(MP.mpf(b)))
        for j in range(-4, 5):
            for f in (1, 1 - ulp, 1 + ulp, MP.mpf(3) / 4, MP.mpf(3) / 2):
                for sign in (1, -1):
                    a = sign * bound * f * MP.mpf(2) ** j
                    env = {"a": a, "b": MP.mpf(b), "c": Fraction(0)}
                    want = helpers.MpfPointEval(env).judge(e)
                    got = ex.PointEval(env).judged(e)
                    if want == 0:
                        assert got is fzero, (b, j, f, sign)
                        zero += 1
                    else:
                        assert got == want._mpf_, (b, j, f, sign)
                        nonzero += 1
    assert zero > 100 and nonzero > 100, (zero, nonzero)


# ------------------------------------------- tuple kernel vs mpf evaluator

def _pool_trees(rng, size=40):
    """Random nodes built from a growing pool, so later nodes share earlier
    subtrees; rational and transcendental leaves, fractional powers and
    divisions.  Function arguments are shallow so values stay moderate."""
    pool = [(Coord("x1"), 0), (Coord("x2"), 0), (Param("a"), 0)]
    pool += [(Const(Fraction(rng.randint(-7, 7), rng.randint(1, 4))), 0)
             for _ in range(3)]
    for _ in range(size):
        (a, da), (b, db) = rng.choice(pool), rng.choice(pool)
        depth = max(da, db) + 1
        op = rng.choice(("add", "mul", "div", "neg", "pow", "root",
                         "exp", "log", "sin", "cos"))
        if op == "add":
            node = ex.Add((a, b, rng.choice(pool)[0]))
        elif op == "mul":
            node = ex.Mul((a, b))
        elif op == "div":
            node = ex.Div(a, b)
        elif op == "neg":
            node = ex.Neg(a)
        elif op == "pow":
            node = ex.Pow(a, rng.choice((-3, -1, 2, 3)))
        elif op == "root":
            node = ex.Pow(a, rng.choice((Fraction(1, 2), Fraction(-3, 2),
                                         Fraction(2, 3), Fraction(1, 3))))
        elif da > 2:
            continue
        else:
            node = {"exp": ex.Exp, "log": ex.Log, "sin": ex.Sin,
                    "cos": ex.Cos}[op](a)
        pool.append((node, depth))
    return [node for node, _ in pool]


def _outcome(pe, method, e):
    try:
        return getattr(pe, method)(e)
    except DomainError:
        return "DomainError"


def _same_number(a, b):
    if type(a) is Fraction or type(b) is Fraction:
        return type(a) is type(b) and a == b
    return a._mpf_ == b._mpf_


@pytest.mark.parametrize("dps", [50, 60])
def test_tuple_kernel_matches_mpf_evaluator(dps):
    rng = random.Random(dps)
    defined = undefined = 0
    for _ in range(12):
        nodes = _pool_trees(rng)
        for pt in helpers.rational_points(rng, XY, 2):
            pt["a"] = Fraction(rng.randint(-5, 5), 3)
            new, ref = ex.PointEval(pt, dps), helpers.MpfPointEval(pt, dps)
            for e in nodes:
                got, want = _outcome(new, "eval_scaled", e), _outcome(ref, "eval_scaled", e)
                if want == "DomainError":
                    assert got == want, e
                    undefined += 1
                    continue
                defined += 1
                assert _same_number(got[0], want[0]), e
                assert got[1]._mpf_ == want[1]._mpf_, e
                assert _same_number(new.judge(e), ref.judge(e)), e
    assert defined > 500 and undefined > 20


@pytest.mark.parametrize("dps", [50, 60])
def test_tuple_kernel_matches_mpf_evaluator_in_either_visit_order(dps):
    # rational subtrees are rounded only when their scale is read: roots
    # judged or evaluated first leave their subtrees unrounded, and a
    # subtree rounded later, or first, must give the same bits either way
    rng = random.Random(100 + dps)
    checked = 0
    for _ in range(12):
        nodes = _pool_trees(rng)
        for pt in helpers.rational_points(rng, XY, 2):
            pt["a"] = Fraction(rng.randint(-5, 5), 3)
            ref = helpers.MpfPointEval(pt, dps)
            want = {e: _outcome(ref, "eval_scaled", e) for e in nodes}
            roots_first, subtrees_first = (ex.PointEval(pt, dps),
                                           ex.PointEval(pt, dps))
            for e in reversed(nodes):
                judged = _outcome(roots_first, "judge", e)
                value = _outcome(roots_first, "eval", e)
                if want[e] == "DomainError":
                    assert judged == value == "DomainError", e
                    continue
                assert _same_number(judged, ref.judge(e)), e
                assert _same_number(value, want[e][0]), e
            for e in nodes:
                for pe in (roots_first, subtrees_first):
                    got = _outcome(pe, "eval_scaled", e)
                    if want[e] == "DomainError":
                        assert got == "DomainError", e
                        continue
                    assert _same_number(got[0], want[e][0]), e
                    assert got[1]._mpf_ == want[e][1]._mpf_, e
                    checked += 1
            for e in reversed(nodes):
                if want[e] != "DomainError":
                    assert _same_number(subtrees_first.judge(e), ref.judge(e)), e
                    assert _same_number(subtrees_first.eval(e), want[e][0]), e
    assert checked > 1000


def test_judging_a_flat_rational_chart_rounds_nothing(monkeypatch):
    # every R and S component and kappa of the pulled-back chart is an
    # exact 0 at a rational point, so no judge reads a scale and nothing is
    # rounded
    b = bundle(_pullback_chart())
    comps = [e for e in b.R.flatten() + b.S.flatten() + [b.kappa]
             if not ex.is_literal_zero(e)]
    assert len(comps) > 10
    rounded = []
    original = ex.PointEval._round

    def counting(self, v):
        rounded.append(v)
        return original(self, v)

    monkeypatch.setattr(ex.PointEval, "_round", counting)
    for pt in b.chart.sample_points(3, 7):
        pe = ex.PointEval(pt)
        assert all(pe.judge(e) == 0 for e in comps)
    assert rounded == []
    # the counter sees a judge that reads a scale
    ex.PointEval({"x1": Fraction(1, 3)}).judge(p("x1 + 1"))
    assert rounded


def test_judging_swell3_makes_no_fraction_arithmetic(tmp_path, monkeypatch):
    # the exact path combines ints: judging every R and S component and
    # kappa of the swelling n = 3 chart calls no Fraction operator
    swell = helpers.perfbench_module("swell")
    path = tmp_path / "swell3.mf"
    path.write_text(swell.manifest_text(3, 7), encoding="utf-8")
    b = bundle(build_chart(load_manifest(str(path))))
    comps = [e for e in b.R.flatten() + b.S.flatten() + [b.kappa]
             if not ex.is_literal_zero(e)]
    assert len(comps) > 10
    points = b.chart.sample_points(3, 7)
    calls = []
    for name in ("__add__", "__mul__", "__truediv__", "__pow__", "__neg__"):
        def counting(self, *args, _name=name, _original=getattr(Fraction, name)):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(Fraction, name, counting)
    for pt in points:
        pe = ex.PointEval(pt)
        assert all(pe.judge(e) == 0 for e in comps)
    assert calls == []
    # the counters see Fraction arithmetic
    v = -(Fraction(1, 2) + Fraction(1, 3)) ** 2
    assert calls == ["__add__", "__pow__", "__neg__"] and v == Fraction(-25, 36)


# ------------------------------------------- exact path vs plain Fractions

_BIG = Fraction(3 ** 140 + 1, 2 ** 230 + 7)  # 223-bit numerator, 231-bit denominator


def _fraction_value(e, env, memo):
    """Value of `e` by plain Fraction arithmetic, or None where the engine's
    value is inexact: below an inexact leaf or a function, or a root of a
    positive base.  Raises DomainError where the rational path does."""
    if e in memo:
        return memo[e]
    cls = type(e)
    kids = [_fraction_value(k, env, memo) for k in ex._children(e)]
    if cls is Const:
        v = e.value
    elif cls in (Coord, Param):
        v = env[e.name] if isinstance(env[e.name], Fraction) else None
    elif any(k is None for k in kids) or isinstance(e, ex._Func):
        v = None
    elif cls is Add:
        v = sum(kids, Fraction(0))
    elif cls is Mul:
        v = math.prod(kids, start=Fraction(1))
    elif cls is Neg:
        v = -kids[0]
    elif cls is Div:
        if kids[1] == 0:
            raise DomainError("division by zero")
        v = kids[0] / kids[1]
    else:
        b, x = kids[0], e.exponent
        if b == 0 and x < 0:
            raise DomainError("zero base with negative exponent")
        if x.denominator == 1:
            v = b ** x.numerator
        elif b < 0:
            raise DomainError("negative base with fractional exponent")
        else:
            v = b if b == 0 else None
    memo[e] = v
    return v


def _exact_path_pools(st):
    """Growing pools of shared nodes built with the raw node classes, so no
    constant is folded: Add and Mul of 2-11 operands drawn from rational
    and inexact nodes, Neg, Div by negative and zero values, integer powers
    of negative bases, roots of zero, and exp at and just past MAX_EXP_ARG.
    The rationals include operands above 200 bits that cancel in a
    product or a sum.  Each node's weight bounds its bits, so that no
    product of products grows without bound."""
    x1, x2 = Coord("x1"), Coord("x2")
    edge = Fraction(ex.MAX_EXP_ARG)
    exact = [x1, x2, Neg(x2), Const(0), Const(1), Const(-3), Const(Fraction(2, 7)),
             Const(_BIG), Const(-_BIG), Const(1 / _BIG), Add((x1, Neg(x1))),
             Mul((Const(_BIG), x2)), Const(edge), Const(-edge),
             Const(edge + Fraction(1, 2 ** 200))]
    inexact = [Param("a"), ex.Sin(x1), ex.Cos(x2), ex.Exp(Neg(x1))]

    def weight(e):
        v = e.value if type(e) is Const else Fraction(1)
        return max(abs(v.numerator), v.denominator).bit_length() + 8

    @st.composite
    def pools(draw):
        pool = exact + inexact
        weights = [weight(e) for e in pool]

        def pick(budget):
            cands = [i for i, w in enumerate(weights) if w <= max(budget, 16)]
            i = cands[draw(st.integers(0, len(cands) - 1))]
            return pool[i], weights[i]

        for _ in range(draw(st.integers(1, 12))):
            op = draw(st.sampled_from(("add", "mul", "add", "mul", "neg", "div",
                                       "pow", "root", "exp")))
            if op in ("add", "mul"):
                kids, w = [], 0
                for _ in range(draw(st.integers(2, 11))):
                    k, kw = pick(3000 - w)
                    kids.append(k)
                    w += kw
                node = (Add if op == "add" else Mul)(kids)
            elif op == "div":
                (a, aw), (b, bw) = pick(1500), pick(1500)
                node, w = Div(a, b), aw + bw
            elif op == "pow":
                k = draw(st.sampled_from((-3, -2, -1, 0, 2, 3)))
                a, aw = pick(1000)
                node, w = Pow(a, k), max(abs(k), 1) * aw
            else:
                a, w = pick(3000)
                if op == "neg":
                    node = Neg(a)
                elif op == "root":
                    node = Pow(a, draw(st.sampled_from(
                        (Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)))))
                else:
                    node = ex.Exp(a)
            pool.append(node)
            weights.append(w)
        return pool

    return pools()


def _outcome_or_error(f, e):
    try:
        return f(e)
    except DomainError as err:
        return ("DomainError", str(err))


def _failed(outcome):
    return type(outcome) is tuple and type(outcome[0]) is str


def _same_outcome(got, want):
    if _failed(want) or _failed(got):
        return got == want
    return _same_number(got, want)


def test_exact_path_matches_plain_fractions_and_mpf_evaluator():
    """`eval` of a rational node equals plain Fraction arithmetic; values,
    magnitudes, verdicts and DomainError messages match `MpfPointEval` bit
    for bit, whether roots or subtrees are visited first."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    coord = st.fractions(-3, 3, max_denominator=64)
    seen = {"rational": 0, "inexact": 0, "undefined": 0}

    @hyp.settings(max_examples=300, derandomize=True, deadline=None,
                  suppress_health_check=list(hyp.HealthCheck))
    @hyp.given(_exact_path_pools(st), coord, coord, st.sampled_from((50, 60)))
    def check(pool, x1, x2, dps):
        env = {"x1": x1, "x2": x2, "a": ex.MP.mpf(2) / 3}
        ref = helpers.MpfPointEval(env, dps)
        want = {e: _outcome_or_error(ref.eval_scaled, e) for e in pool}
        verdict = {e: _outcome_or_error(ref.judge, e) for e in pool}
        memo = {}
        plain = {e: _outcome_or_error(lambda e: _fraction_value(e, env, memo), e)
                 for e in pool}
        roots_first, subtrees_first = ex.PointEval(env, dps), ex.PointEval(env, dps)
        values = {}
        for e in reversed(pool):
            judged = _outcome_or_error(roots_first.judge, e)
            value = values[e] = _outcome_or_error(roots_first.eval, e)
            assert _same_outcome(judged, verdict[e]), e
            if _failed(want[e]):
                assert value == want[e], e
                seen["undefined"] += 1
            elif plain[e] is None:
                assert _same_number(value, want[e][0]), e
                seen["inexact"] += 1
            else:
                assert type(value) is Fraction and value == plain[e], e
                seen["rational"] += 1
        for e in pool:
            for pe in (subtrees_first, roots_first):
                got = _outcome_or_error(pe.eval_scaled, e)
                if _failed(want[e]):
                    assert got == want[e], e
                    continue
                assert _same_number(got[0], want[e][0]), e
                assert got[1]._mpf_ == want[e][1]._mpf_, e
        for e in reversed(pool):
            assert _same_outcome(_outcome_or_error(subtrees_first.judge, e),
                                 verdict[e]), e
            assert _same_outcome(_outcome_or_error(subtrees_first.eval, e),
                                 values[e]), e

    check()
    assert min(seen.values()) > 100, seen


DOMAIN_CASES = [
    "log(x1 - 1)", "log(-x1)", "log(sin(x1 - x1))", "log(-exp(x1))",
    "1/(x1 - 1)", "x1/sin(x1 - 1)",
    "(x1 - 1)^(-1)", "sin(x1 - 1)^(-2)",
    "(-x1)^(1/2)", "(x1 - 2)^(3/2)", "sin(-x1)^(1/3)",
    "exp(4294967297*x1)", "exp(4294967296*exp(x1))", "exp(exp(exp(exp(x1 + 4))))",
]


@pytest.mark.parametrize("text", DOMAIN_CASES)
def test_tuple_kernel_domain_errors_match_mpf_evaluator(text):
    e = p(text)
    for dps in (50, 60):
        env = {"x1": Fraction(1), "x2": Fraction(1)}
        with pytest.raises(DomainError):
            ex.PointEval(env, dps).eval_scaled(e)
        with pytest.raises(DomainError):
            helpers.MpfPointEval(env, dps).eval_scaled(e)


def test_tuple_kernel_exp_bound_is_inclusive():
    # |argument| == MAX_EXP_ARG is still defined, as a Fraction and as an mpf
    for text in ("exp(4294967296*x1)", "exp(-4294967296*x1)",
                 "exp(4294967296*exp(x1 - 1))", "exp(-4294967296*cos(x1 - 1))"):
        env = {"x1": Fraction(1)}
        got = ex.PointEval(env).eval_scaled(p(text))
        want = helpers.MpfPointEval(env).eval_scaled(p(text))
        assert (got[0]._mpf_, got[1]._mpf_) == (want[0]._mpf_, want[1]._mpf_)


@pytest.mark.parametrize("dps", [15, 50, 80])
def test_point_eval_rounds_fractions_as_mpf_division(dps):
    # _round takes an exact (p, q) pair; it must round as mpf(p) / mpf(q) does
    rng = random.Random(dps)
    ctx = ex._context(dps)
    pe = ex.PointEval({}, dps)
    vals = [Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(2, 7),
            Fraction(10 ** 120 + 1, 3), Fraction(-(10 ** 119) - 7, 10 ** 118 + 3),
            Fraction(1, 10 ** 120 + 9), Fraction(3 ** 400, 2 ** 600 + 1)]
    vals += [Fraction(rng.randint(-10 ** k, 10 ** k), rng.randint(1, 10 ** j))
             for k in (1, 20, 60, 120) for j in (1, 20, 60, 120)
             for _ in range(50)]
    for v in vals:
        assert pe._round((v.numerator, v.denominator)) == ex._as_mpf(ctx, v)._mpf_, v


def test_point_eval_returns_context_numbers():
    for dps in (50, 60):
        pe = ex.PointEval({"x1": Fraction(2, 3)}, dps)
        v, m = pe.eval_scaled(p("x1 + exp(x1)"))
        ctx = ex._context(dps)
        assert type(v) is ctx.mpf and type(m) is ctx.mpf
        v, m = pe.eval_scaled(p("x1^2 - 1"))
        assert v == Fraction(-5, 9) and type(m) is ctx.mpf
        assert type(pe.judge(p("x1^2 - 1"))) is ctx.mpf


# --------------------------------------------------------------------- is_zero

def test_is_zero_pythagorean():
    assert is_zero(p("sin(x1)^2 + cos(x1)^2 - 1"), coords=XY)


def test_is_zero_rejects_nonidentity():
    assert not is_zero(p("exp(x1) - 1 - x1"), coords=XY)


def test_is_zero_reflexive_on_random_trees():
    rng = random.Random(7)
    for _ in range(5):
        e = helpers.random_expr(rng, XY, depth=3)
        assert is_zero(ex.sub(e, e), coords=XY)


def test_is_zero_inconclusive_when_domain_empty():
    with pytest.raises(InconclusiveError):
        is_zero(p("log(-1-x1^2)"), coords=XY)


def test_is_zero_threshold_boundary():
    tiny = Const(Fraction(1, 10**31))
    small = Const(Fraction(1, 10**29))
    assert is_zero(tiny, coords=XY)
    assert not is_zero(small, coords=XY)


def test_is_zero_deterministic_and_seed_insensitive_verdict():
    e = p("(x1+x2)^2 - x1^2 - 2*x1*x2 - x2^2")
    assert is_zero(e, coords=XY, seed=DEFAULT_SEED)
    assert is_zero(e, coords=XY, seed=1234)
    assert not is_zero(p("x1 - x2"), coords=XY, seed=DEFAULT_SEED)
    assert not is_zero(p("x1 - x2"), coords=XY, seed=1234)


def test_is_zero_with_parameters():
    e = p("a*(x1+1)^2 - a*x1^2 - 2*a*x1 - a", params=("a",))
    assert is_zero(e, coords=XY, params={"a": Fraction(3, 7)})


# ------------------------------------------------------------------- utilities

def test_rename():
    e = p("x1 + exp(x2)")
    r = rename(e, {"x1": "x3", "x2": "x4"})
    assert r == parse("x3 + exp(x4)", coords=("x3", "x4"))


def test_free_names():
    e = p("a*x1 + exp(x2)", params=("a",))
    assert free_coords(e) == {"x1", "x2"}
    assert free_params(e) == {"a"}


def test_sample_box_points_deterministic():
    box = {"x1": (Fraction(1, 3), Fraction(2)), "x2": (Fraction(1, 2), Fraction(1))}
    a = sample_box_points(XY, box, 8, DEFAULT_SEED, params={"a": Fraction(2)})
    b = sample_box_points(XY, box, 8, DEFAULT_SEED, params={"a": Fraction(2)})
    assert a == b and len(a) == 8
    for pt in a:
        assert Fraction(1, 3) <= pt["x1"] <= 2
        assert Fraction(1, 2) <= pt["x2"] <= 1
        assert pt["a"] == Fraction(2)
    c = sample_box_points(XY, box, 8, 99)
    assert c != [{k: v for k, v in pt.items() if k != "a"} for pt in a]


def test_sample_box_points_match_fraction_formula():
    """The int formula over the common denominator gives the points of
    lo + (hi - lo) * Fraction(r, 1024), Fractions in lowest terms, for any
    box (ints, Fractions, reversed or missing bounds), seed and parameters."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    bound = st.one_of(st.integers(-50, 50),
                      st.fractions(min_value=-50, max_value=50, max_denominator=10**6))
    coords = ("x1", "x2", "x3")

    @hyp.settings(max_examples=300, derandomize=True, deadline=None)
    @hyp.given(st.dictionaries(st.sampled_from(coords), st.tuples(bound, bound)),
               st.integers(0, 8), st.integers(0, 2 ** 64),
               st.one_of(st.none(), st.dictionaries(st.sampled_from(("a", "b")), bound)))
    def check(box, k, seed, params):
        got = sample_box_points(coords, box, k, seed, params=params)
        want = helpers.sample_box_points_fractions(coords, box, k, seed, params=params)
        assert got == want
        assert all(type(v) is Fraction for pt in got for v in pt.values())

    check()


# ------------------------------------------------------------ one copy of each

SRC = Path(ex.__file__).resolve().parent
FRACTION_TO_MPF = re.compile(r"\.numerator\)\s*/\s*(?:mpmath|MP)\.mpf\(")
LITERAL_ZERO = re.compile(
    r"isinstance\(\s*\w+\s*,\s*(?:\w+\.)?Const\s*\)\s*and\s*\w+\.value\s*==\s*0\b")


def test_numeric_helpers_live_only_in_expr():
    # expr.to_mpf and expr.is_literal_zero are the only copies; other
    # modules must call them instead of spelling the test out again
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "expr.py":
            continue
        text = path.read_text()
        for pattern in (FRACTION_TO_MPF, LITERAL_ZERO):
            offenders += [f"{path.name}: {m.group(0)}" for m in pattern.finditer(text)]
    assert offenders == []
    text = (SRC / "expr.py").read_text()
    assert len(FRACTION_TO_MPF.findall(text)) == 1
    assert len(LITERAL_ZERO.findall(text)) == 1


MPMATH_USE = re.compile(r"\bworkdps\b|^\s*(?:import|from)\s+mpmath\b", re.M)


def test_mpmath_lives_only_in_expr():
    # the precision is carried by expr.MP's numbers, so no other module
    # imports mpmath or sets a working precision
    offenders = [f"{path.name}: {m.group(0).strip()}"
                 for path in sorted(SRC.glob("*.py")) if path.name != "expr.py"
                 for m in MPMATH_USE.finditer(path.read_text())]
    assert offenders == []


# ------------------------------------------------- dense kernels vs mpf oracles

def _kernel_numbers(st):
    """(tuple, mpf) pairs of one number: exact zeros, small signed ints (so
    magnitudes tie), Fractions rounded as `PointEval` rounds a rational
    value, and inexact square roots.  The tuple feeds the kernel, the mpf
    its oracle."""
    pe = ex.PointEval({})

    def exact(v):
        return pe.rounded(ex.const(v)), ex.to_mpf(v)

    def root(v):
        x = ex.MP.sqrt(ex.to_mpf(abs(v)))
        x = x if v > 0 else -x
        return x._mpf_, x

    return st.one_of(st.just(Fraction(0)).map(exact),
                     st.integers(-3, 3).map(lambda k: exact(Fraction(k))),
                     st.fractions(-7, 7, max_denominator=10**30).map(exact),
                     st.fractions(-7, 7, max_denominator=50).filter(bool).map(root))


def test_numeric_det_matches_mpf_oracle():
    """`numeric_det` on tuples gives the bits of the mpf-object kernel it
    replaced: det, scale and the degenerate verdict, at n <= 6 with exact
    zeros, zero pivots, ties in pivot magnitude and negative entries."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    num = _kernel_numbers(st)
    seen = {"zero det": 0, "noise det": 0, "tied pivot": 0, "regular": 0}

    @st.composite
    def matrices(draw):
        n = draw(st.integers(1, 6))
        rows = [draw(st.lists(num, min_size=n, max_size=n)) for _ in range(n)]
        if n > 1 and draw(st.booleans()):
            # a multiple of the first row: singular, so a pivot cancels to 0
            # or, under an inexact factor, to rounding noise
            c = draw(st.sampled_from((1, -2, ex.MP.mpf(1) / 3, ex.MP.sqrt(2))))
            rows[draw(st.integers(1, n - 1))] = [((x * c)._mpf_, x * c)
                                                 for _, x in rows[0]]
        return rows

    @hyp.settings(max_examples=300, derandomize=True, deadline=None,
                  suppress_health_check=list(hyp.HealthCheck))
    @hyp.given(matrices())
    def check(rows):
        got = ex.numeric_det([[t for t, _ in row] for row in rows])
        det, scale = helpers.numeric_det_mpf([[x for _, x in row] for row in rows])
        assert got == (det._mpf_, scale._mpf_)
        degenerate = abs(det) <= ex.zero_threshold(scale)
        assert ex.negligible(*got) == degenerate
        first = [abs(row[0][1]) for row in rows]
        seen["tied pivot"] += max(first) > 0 and first.count(max(first)) > 1
        seen["zero det" if not det else "noise det" if degenerate else "regular"] += 1

    check()
    assert min(seen.values()) > 15, seen


def test_ls2_matches_mpf_oracle():
    """`ls2` on judged tuples gives the bits of the mpf-object fit it
    replaced (L1, L2, residual, rank, nullspace, data_scale) in each branch:
    rank 0, either column alone, collinear columns on both sides of the
    REL_TOL edge, rank 2, and zero vectors."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    MP = ex.MP
    num = _kernel_numbers(st).map(lambda pair: pair[1])
    seen = {}

    @st.composite
    def cases(draw):
        m = draw(st.integers(1, 8))
        w = draw(st.lists(st.sampled_from((1, 3, 8, 16)), min_size=m, max_size=m))
        q1, q2, r = (draw(st.lists(num, min_size=m, max_size=m)) for _ in range(3))
        shape = draw(st.sampled_from(("free", "no columns", "no q1", "no q2",
                                      "tiny q1", "tiny q2", "collinear", "edge",
                                      "zero r", "exact fit")))
        if shape in ("no columns", "no q1"):
            q1 = [MP.zero] * m
        if shape in ("no columns", "no q2"):
            q2 = [MP.zero] * m
        if shape == "tiny q1":
            q1 = [x * MP.mpf("1e-25") for x in q1]
        if shape == "tiny q2":
            q2 = [x * MP.mpf("1e-25") for x in q2]
        if shape in ("collinear", "edge"):
            c = draw(num) or MP.one
            if shape == "edge":
                # q2 = c q1 + y, y orthogonal to q1 and sized so that the
                # sine of the angle is f * REL_TOL
                f = draw(st.sampled_from(("0.5", "0.99", "1.01", "2")))
                d = sum(k * a * b for k, a, b in zip(w, q1, q2))
                n11 = sum(k * a * a for k, a in zip(w, q1))
                y = [b - (d / n11 if n11 else 0) * a for a, b in zip(q1, q2)]
                ny = MP.sqrt(sum(k * b * b for k, b in zip(w, y)))
                s = (MP.mpf(f) * ex.REL_TOL * abs(c) * MP.sqrt(n11) / ny
                     if ny else MP.zero)
                q2 = [c * a + s * b for a, b in zip(q1, y)]
            else:
                q2 = [c * a for a in q1]
        if shape == "zero r":
            r = [MP.zero] * m
        if shape == "exact fit":
            a, b = draw(num), draw(num)
            r = [a * x + b * y for x, y in zip(q1, q2)]
        return shape, w, q1, q2, r

    def same(g, v):
        # ls2 gives tuples where the oracle gives mpfs, and the same ints
        if isinstance(v, MP.mpf):
            return type(g) is tuple and g == v._mpf_
        return type(g) is type(v) and g == v

    @hyp.settings(max_examples=400, derandomize=True, deadline=None,
                  suppress_health_check=list(hyp.HealthCheck))
    @hyp.given(cases())
    def check(case):
        shape, w, q1, q2, r = case
        want = helpers.ls2_mpf(w, q1, q2, r)
        got = ex.ls2(w, *([x._mpf_ for x in v] for v in (q1, q2, r)))
        assert sorted(got) == sorted(want)
        for key in ("L1", "L2", "residual", "data_scale", "rank"):
            assert same(got[key], want[key]), key
        assert len(got["nullspace"]) == len(want["nullspace"])
        for gv, wv in zip(got["nullspace"], want["nullspace"]):
            assert all(same(g, v) for g, v in zip(gv, wv))
        null = want["nullspace"]
        branch = {0: "rank 0", 2: "rank 2"}.get(want["rank"])
        if branch is None:
            branch = ("only q2" if null[0][0] is MP.one
                      else "only q1" if null[0][0] is MP.zero else "collinear")
        seen[branch] = seen.get(branch, 0) + 1
        if shape == "edge":
            seen["edge, " + branch] = seen.get("edge, " + branch, 0) + 1

    check()
    for branch in ("rank 0", "only q1", "only q2", "collinear", "rank 2",
                   "edge, collinear", "edge, rank 2"):
        assert seen.get(branch, 0) > 5, seen

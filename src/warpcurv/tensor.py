"""Charts and valence-typed component tensors over them.

A Chart is a coordinate system with a symmetric, non-degenerate metric whose
entries are expression trees, plus declared parameters (with rational test
values) and a per-coordinate sampling box for the randomized zero test.

TensorFields are dense nested component arrays, built row-major by
`_table`; dense indexing keeps cross-checks against independent loop oracles
trivial.  The exception is every action the engine builds for itself on a
curvature-type or a symmetric tensor (`actions._orbit_table`): the catalog
and fit actions of a bundle and the warped product's block, base and fiber
ones, six-index and four-index alike.  They store one component per orbit
of their index symmetry group and give the rest by sign: a six-index action
of a curvature-type tensor at the `orbit_reps` of the curvature group, a
four-index action of a symmetric one at the `pair_reps`, i <= j and u < v.
Readers that go through `tuples()` and `stored()` serve either storage.
Derived data (g^-1 and G of a chart, a bundle's tensors and actions, a
warped spec's blocks) is built once, by the memo `_cached`.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import product as iproduct

from . import expr as ex
from .expr import (
    DEFAULT_SEED, DomainError, Expr, PointEval, is_zero_many, parse,
    sample_box_points,
)


class ChartError(Exception):
    pass


def excerpt(text):
    """`text`, a str or an `expr.Text`, as a str cut to 70 characters ending
    in '...' when it is longer; only the pieces that the cut reaches are
    read, ropes included."""
    head = ""
    for piece in (text,) if isinstance(text, str) else ex.strs(text):
        head += piece[:71 - len(head)]
        if len(head) > 70:
            return head[:67] + "..."
    return head


def point_str(pt, coords):
    """A sample point's coordinates as reports print them: 'x1 = 1/2, x2 = 3'."""
    return ", ".join(f"{c} = {pt[c]}" for c in coords)


def _as_expr(entry, coords, params):
    if isinstance(entry, Expr):
        bad_c = ex.free_coords(entry) - set(coords)
        bad_p = ex.free_params(entry) - set(params)
        if bad_c or bad_p:
            raise ChartError(f"undeclared names in entry: {sorted(bad_c | bad_p)}")
        return entry
    if isinstance(entry, (int, Fraction)):
        return ex.const(entry)
    if isinstance(entry, str):
        try:
            return parse(entry, coords=coords, params=params)
        except ex.ParseError as err:
            raise ChartError(f"bad expression {excerpt(repr(entry))}: {err}") from None
    raise ChartError(f"unsupported entry type: {type(entry).__name__}")


def _cached(build):
    """build(obj, *args), kept in obj._cache[(build's name, *args)]; a plain
    function of build's name, which perfbench's tracer rebinds and wraps."""
    @functools.wraps(build)
    def get(obj, *args):
        key = (build.__name__, *args)
        if key not in obj._cache:
            obj._cache[key] = build(obj, *args)
        return obj._cache[key]
    return get


class Chart:
    """Coordinates + metric + parameters + sampling box."""

    def __init__(self, coords, metric, params=None, box=None):
        coords = tuple(coords)
        if not coords or len(set(coords)) != len(coords):
            raise ChartError("coordinates must be non-empty and distinct")
        self.coords = coords
        self.n = len(coords)
        self.params = {k: Fraction(v) for k, v in (params or {}).items()}
        if set(self.params) & set(coords):
            raise ChartError("parameter names collide with coordinates")
        self.box = dict(box or {})
        if len(metric) != self.n or any(len(row) != self.n for row in metric):
            raise ChartError(f"metric must be {self.n}x{self.n}")
        pnames = tuple(self.params)
        self.metric = [
            [_as_expr(entry, coords, pnames) for entry in row] for row in metric
        ]
        self._cache = {}
        self._validate()

    # -- sampling ----------------------------------------------------------

    def sample_points(self, k=8, seed=DEFAULT_SEED, params=None):
        return sample_box_points(self.coords, self.box, k, seed,
                                 params={**self.params, **(params or {})})

    def is_zero(self, e, trials=8, seed=DEFAULT_SEED, params=None):
        return self.is_zero_many([e], trials, seed, params)[0]

    def is_zero_many(self, exprs, trials=8, seed=DEFAULT_SEED, params=None):
        return is_zero_many(exprs, self.coords, box=self.box,
                            params={**self.params, **(params or {})},
                            trials=trials, seed=seed)

    # -- validation --------------------------------------------------------

    def _validate(self):
        for i in range(self.n):
            for j in range(i + 1, self.n):
                # nodes are interned: equal entries are one node, symmetric
                # without a test
                if self.metric[i][j] is self.metric[j][i]:
                    continue
                d = ex.sub(self.metric[i][j], self.metric[j][i])
                try:
                    if not self.is_zero(d):
                        raise ChartError(f"metric not symmetric at ({i + 1},{j + 1})")
                except ex.InconclusiveError:
                    raise ChartError("metric symmetry check inconclusive") from None
        pts = self.sample_points()
        valid = 0
        for pt in pts:
            pe = PointEval(pt)
            try:
                mat = [[pe.rounded(entry) for entry in row] for row in self.metric]
            except DomainError:
                continue
            valid += 1
            if ex.negligible(*ex.numeric_det(mat)):
                raise ChartError("metric degenerate at sampled point "
                                 + point_str(pt, self.coords))
        if valid == 0:
            raise ChartError("metric undefined everywhere on the sampling box")

    # -- derived fields ----------------------------------------------------

    @_cached
    def metric_field(self):
        return _field(self, (0, 2), self.metric, sym="sym2")


def _chart(coords, metric, params, box):
    """A Chart the engine derived from a validated one, stored as given.

    Its caller answers for what `Chart.__init__` would check: renaming a
    chart's coordinates, its box with them, keeps the sample values and
    the symmetry verdicts, so the renamed chart needs no second check.
    """
    c = object.__new__(Chart)
    c.coords, c.n, c.params, c.box = tuple(coords), len(coords), dict(params), dict(box)
    c.metric = metric
    c._cache = {}
    return c


class TensorField:
    """Dense component tensor on a chart.

    valence is a (contravariant, covariant) pair; comps is a nested list with
    one level per index.  sym is an advisory tag.  This constructor is the
    boundary for outside callers: it checks the valence and the extents,
    parses string entries against the chart's names, and zero-tests the
    symmetry of components tagged "sym2".  Tensors the engine builds come
    from `_field`, which checks nothing; the tests assert their symmetries.
    "curvature" is checked on demand via is_generalized_curvature.
    """

    VALENCES = {(0, 2), (0, 4), (0, 6), (1, 3), (2, 0)}

    def __init__(self, chart, valence, comps, sym="none"):
        if tuple(valence) not in self.VALENCES:
            raise ChartError(f"unsupported valence {valence}")
        self.chart = chart
        self.valence = tuple(valence)
        self.rank = sum(self.valence)
        self.sym = sym
        pnames = tuple(chart.params)
        self.comps = self._coerce(comps, self.rank, chart.coords, pnames)
        if sym == "sym2":
            if self.rank != 2:
                raise ChartError("sym2 tag requires a rank-2 tensor")
            n = chart.n
            defects = [ex.sub(self.comps[i][j], self.comps[j][i])
                       for i in range(n) for j in range(i + 1, n)]
            if defects and not all(chart.is_zero_many(defects)):
                raise ChartError("components tagged sym2 are not symmetric")

    def _coerce(self, comps, depth, coords, pnames):
        if depth == 0:
            # trees the engine built are trusted; outside input is checked
            return comps if isinstance(comps, Expr) else _as_expr(comps, coords, pnames)
        if not isinstance(comps, (list, tuple)) or len(comps) != self.chart.n:
            raise ChartError("component array extent mismatch")
        return [self._coerce(c, depth - 1, coords, pnames) for c in comps]

    def comp(self, idx):
        v = self.comps
        for i in idx:
            v = v[i]
        return v

    def __getitem__(self, idx):
        return self.comp(idx)

    def tuples(self):
        """The index tuples of the stored components, in row-major order."""
        return iproduct(range(self.chart.n), repeat=self.rank)

    def flatten(self):
        return [self.comp(t) for t in iproduct(range(self.chart.n), repeat=self.rank)]

    def stored(self):
        """The components at `tuples()`, in that order."""
        return self.flatten()


def _table(n, rank, fn):
    """Nested lists, `rank` deep and n wide, holding fn(i1, ..., i_rank) at
    each index tuple; fn is called in row-major order."""
    out = [fn(*t) for t in iproduct(range(n), repeat=rank)]
    for _ in range(rank - 1):
        out = [out[i:i + n] for i in range(0, len(out), n)]
    return out


def _field(chart, valence, comps, sym="none"):
    """A TensorField the engine built from a validated chart, stored as given."""
    t = object.__new__(TensorField)
    t.chart, t.valence, t.rank, t.sym, t.comps = chart, valence, sum(valence), sym, comps
    return t


class _OrbitField(TensorField):
    """A tensor stored at the representatives of its index symmetry orbits.

    The tag names the group: "curvature" for the curvature group
    (`orbit_reps(n, rank)`, `orbit_rep`), "pair" for a four-index tensor
    symmetric in its first pair and antisymmetric in its last (`pair_reps`,
    `pair_rep`).  `reps` maps each representative to its component.  Any
    other component is the representative's up to the sign the group's rep
    function gives, and literal 0 where an antisymmetric pair repeats an
    index; `flatten` reads those signs from the table `_orbit_signs`.
    """

    def comp(self, idx):
        sign, rep = (pair_rep if self.sym == "pair" else orbit_rep)(idx)
        if not sign:
            return ex.ZERO
        v = self.reps[rep]
        return v if sign > 0 else ex.neg(v)

    def flatten(self):
        reps, neg, zero = self.reps, ex.neg, ex.ZERO
        return [reps[rep] if sign > 0 else neg(reps[rep]) if sign else zero
                for sign, rep in _orbit_signs(self.chart.n, self.rank, self.sym)]

    def tuples(self):
        return iter(self.reps)

    def stored(self):
        return list(self.reps.values())


def _orbit_field(chart, valence, reps, sym="curvature"):
    """An engine-built _OrbitField over `reps` (representative -> component)
    of the group that `sym` names."""
    t = object.__new__(_OrbitField)
    t.chart, t.valence, t.rank, t.sym, t.reps = chart, valence, sum(valence), sym, reps
    return t


def _require_same_chart(*fields):
    charts = {id(f.chart) for f in fields}
    if len(charts) != 1:
        raise ChartError("tensor fields live on different charts")


def _require(field, valence):
    if field.valence != valence:
        raise ChartError(f"expected valence {valence}, got {field.valence}")


# ---------------------------------------------------------------------------
# Metric inverse


@_cached
def metric_inverse(chart):
    """Inverse metric as a (2,0) field, by exact cofactors at every n."""
    return _cofactor_inverse(chart)


def _det_expr(g, rows, cols, memo):
    """Determinant of g on rows x cols (index tuples) by Laplace expansion
    along the first row.  `memo` keeps each minor by (rows, cols), so one
    met again, here or in another cofactor, is expanded only once."""
    if len(rows) == 1:
        return g[rows[0]][cols[0]]
    acc = []
    for k, c in enumerate(cols):
        term = g[rows[0]][c]
        # a literal-0 entry's minor is not expanded; the 0 stays in the sum
        if term is not ex.ZERO:
            sub = (rows[1:], cols[:k] + cols[k + 1:])
            if sub not in memo:
                memo[sub] = _det_expr(g, *sub, memo)
            term = ex.product(term, memo[sub])
        acc.append(term if k % 2 == 0 else ex.neg(term))
    return ex.add(*acc)


def _cofactor_inverse(chart):
    g = chart.metric
    n = chart.n
    full, memo = tuple(range(n)), {}
    det = _det_expr(g, full, full, memo)

    def entry(i, j):
        minor = (full[:j] + full[j + 1:], full[:i] + full[i + 1:])
        if minor not in memo:
            memo[minor] = _det_expr(g, *minor, memo) if n > 1 else ex.const(1)
        cof = memo[minor]
        return ex.div(cof if (i + j) % 2 == 0 else ex.neg(cof), det)
    return _field(chart, (2, 0), _table(n, 2, entry), sym="sym2")


# ---------------------------------------------------------------------------
# Kulkarni-Nomizu product and the Gaussian tensor


def kulkarni_nomizu(A, E):
    """(A ^ E)_ijkl = A_il E_jk + A_jk E_il - A_ik E_jl - A_jl E_ik."""
    _require_same_chart(A, E)
    _require(A, (0, 2))
    _require(E, (0, 2))
    a = A.comps
    e = E.comps
    comps = _table(A.chart.n, 4, lambda i, j, k, l: ex.sum_products(
        ((a[i][l], e[j][k]), (a[j][k], e[i][l])),
        negate=((a[i][k], e[j][l]), (a[j][l], e[i][k]))))
    return _field(A.chart, (0, 4), comps, sym="curvature")


@_cached
def gaussian(chart):
    """G = (1/2) g ^ g, i.e. G_ijkl = g_il g_jk - g_ik g_jl."""
    g = chart.metric
    comps = _table(chart.n, 4, lambda i, j, k, l: ex.sum_products(
        ((g[i][l], g[j][k]),), negate=((g[i][k], g[j][l]),)))
    return _field(chart, (0, 4), comps, sym="curvature")


# ---------------------------------------------------------------------------
# Symmetry orbits of curvature-type index tuples
#
# A (0,4) curvature-type tensor is antisymmetric in each index pair and
# symmetric under exchanging the two pairs; the (0,6) actions D.H and Q(A,H)
# of such an H add a third antisymmetric pair.  Each orbit of that group
# (order 8 on four indices, 16 on six) with no repeated index inside a pair
# has one representative: i1 < i2, i3 < i4, (i1, i2) <= (i3, i4), u < v.


def orbit_reps(n, rank):
    """The representatives for rank 4 or 6, in lexicographic order.

    Each is the lexicographically smallest tuple of its orbit.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    tails = [()] if rank == 4 else pairs
    for a, pi in enumerate(pairs):
        for pj in pairs[a:]:
            for tail in tails:
                yield (*pi, *pj, *tail)


def orbit_size(rep):
    """How many index tuples the representative `rep` stands for."""
    return (1 if rep[:2] == rep[2:4] else 2) << len(rep) // 2


def _orbit_signs(n, rank, sym="curvature"):
    """`orbit_rep` (`pair_rep` when sym is "pair") of every index tuple of
    the rank over n, in row-major order; built once per (n, rank, sym)."""
    return _signs(n, rank, sym)


@functools.cache
def _signs(n, rank, sym):
    rep = pair_rep if sym == "pair" else orbit_rep
    return tuple(rep(t) for t in iproduct(range(n), repeat=rank))


def orbit_rep(idx):
    """(sign, representative) of a rank-4 or rank-6 index tuple.

    The component at idx is sign times the one at the representative; the
    sign is 0, and the representative None, when a pair repeats an index.
    """
    sign = 1
    pairs = []
    for k in range(0, len(idx), 2):
        i, j = idx[k], idx[k + 1]
        if i == j:
            return 0, None
        if i > j:
            i, j = j, i
            sign = -sign
        pairs.append((i, j))
    if pairs[1] < pairs[0]:
        pairs[0], pairs[1] = pairs[1], pairs[0]
    return sign, tuple(x for pr in pairs for x in pr)


# The four-index actions D.S and Q(A,S) of a symmetric S, by a D
# antisymmetric in its first pair and a symmetric A, are symmetric in their
# first pair and antisymmetric in their last.  Each orbit of that group
# (order 4) with u != v has one representative: i <= j, u < v.


def pair_reps(n):
    """The representatives (i, j, u, v), i <= j and u < v, in lexicographic
    order: n(n+1)/2 * n(n-1)/2 of them."""
    for i in range(n):
        for j in range(i, n):
            for u in range(n):
                for v in range(u + 1, n):
                    yield (i, j, u, v)


def pair_rep(idx):
    """(sign, representative) of a four-index tuple under the pair group;
    (0, None) when u = v."""
    i, j, u, v = idx
    if u == v:
        return 0, None
    if i > j:
        i, j = j, i
    return (1, (i, j, u, v)) if u < v else (-1, (i, j, v, u))


# ---------------------------------------------------------------------------
# Index raising and symmetry classification


def raise_first(D):
    """Associated (1,3) tensor: D^l_ijk = g^lm D_ijkm."""
    _require(D, (0, 4))
    chart = D.chart
    gi = metric_inverse(chart).comps
    n = chart.n
    d = D.comps
    comps = _table(n, 4, lambda l, i, j, k: ex.sum_products(zip(gi[l], d[i][j][k])))
    return _field(chart, (1, 3), comps)


def is_generalized_curvature(D, trials=8, seed=DEFAULT_SEED):
    """True iff D is antisymmetric in its first pair, symmetric under pair
    exchange, and satisfies the first Bianchi identity (all under the zero
    test).  Antisymmetry in the last pair follows from these."""
    _require(D, (0, 4))
    n = D.chart.n
    d = D.comps
    defects = []
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                for l in range(n):
                    defects.append(ex.add(d[i][j][k][l], d[j][i][k][l]))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    defects.append(ex.sub(d[i][j][k][l], d[k][l][i][j]))
                    defects.append(ex.add(d[i][j][k][l], d[j][k][i][l], d[k][i][j][l]))
    return all(D.chart.is_zero_many(defects, trials=trials, seed=seed))


# ---------------------------------------------------------------------------
# Pointwise linear dependence


def linear_dependence_check(A, E, point):
    """Are the flattened component vectors of A and E parallel at `point`?

    Returns {"dependent": bool, "ratio": value or None}; the ratio r satisfies
    A = r E and is only reported when both tensors are nonzero there.
    """
    _require_same_chart(A, E)
    if A.valence != E.valence:
        raise ChartError("valence mismatch")
    pe = PointEval(point)
    dependent, ratio = ex.parallel_ratio([pe.rounded(c) for c in A.flatten()],
                                         [pe.rounded(c) for c in E.flatten()])
    return {"dependent": dependent, "ratio": ratio}

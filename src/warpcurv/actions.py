"""The two (0,k+2) operators built from a curvature-type tensor.

derivation_action turns a (0,4) tensor D into the endomorphism-valued form
D(X,Y) by raising its first slot and lets it act as a derivation on (0,k)
tensors.  tachibana does the same with the metric-wedge endomorphism X ^_A Y
of a symmetric (0,2) tensor A.  Both accept k in {2, 4} and build every
component; derivation_comps and tachibana_comps build the same ones, term
for term, at chosen index tuples only.  By a D antisymmetric in its first
pair (or a symmetric A), the action of an H tagged "curvature" has the 16
index symmetries of `tensor.orbit_reps`, and the action of an H tagged
"sym2" is symmetric in its first pair and antisymmetric in its last
(`tensor.pair_reps`), so `_orbit_table` builds either at one tuple per
orbit: 126 of 4 096 at n = 4 for H = R, 60 of 256 for H = S.
cached_derivation and cached_tachibana keep a bundle's own actions that
way, in the one memo `tensor._cached`; only an H with no such symmetry (P)
gets the dense builders.

The concircular and projective tensors are R less a multiple of the wedge
tensor E(A)_ijkl = A_jk g_il - A_ik g_jl of a symmetric A:
W = R - kappa/(n(n-1)) E(g), where E(g) = G, and P = R - 1/(n-2) E(S).
The derivation by E(A) is Q(A,.), and D.H is linear in D, so
cached_derivation builds W.H and P.H from the bundle's R.H, Q(g,H) and
Q(S,H), component by component, and never W or P themselves:

    W.H = R.H - kappa/(n(n-1)) Q(g,H),    P.H = R.H - 1/(n-2) Q(S,H).

`derivation_action(b.W, H)` and `derivation_action(b.P, H)` give the same
tensors from the dense derivation; the tests use them as the oracle.
"""

from __future__ import annotations

from fractions import Fraction

from . import expr as ex
from .expr import ZERO, PointEval
from .tensor import (
    ChartError, TensorField, _cached, _field, _orbit_field, _OrbitField, _table,
    orbit_reps, pair_reps, raise_first)


def _check_pair(D_valence_ok, D, H):
    if not D_valence_ok:
        raise ChartError("first operand has the wrong valence")
    if H.valence not in {(0, 2), (0, 4)}:
        raise ChartError("H must be a (0,2) or (0,4) tensor")
    if D.chart is not H.chart:
        raise ChartError("operands live on different charts")


@_cached
def _raised_terms(chart, D):
    """The nonzero (s, D^s_{u v i}) of raise_first(D), listed at [u][v][i];
    built once per tensor D on its chart."""
    n, dup = chart.n, raise_first(D).comps
    return [[[[(s, dup[s][u][v][i]) for s in range(n) if dup[s][u][v][i] is not ZERO]
              for i in range(n)] for v in range(n)] for u in range(n)]


def _derivation_fn(D, H):
    """The function (i1..ik, u, v) -> (D.H) at that index tuple."""
    _check_pair(D.valence == (0, 4), D, H)
    raised = _raised_terms(D.chart, D)

    def comp(*t):
        # one index list per component: slot m is set to each raised index
        # s in turn, then restored
        *j, u, v = t
        row = raised[u][v]
        terms = []
        for m, im in enumerate(t[:-2]):
            for s, c in row[im]:
                j[m] = s
                hv = H.comp(j)
                if hv is not ZERO:
                    terms.append(ex.mul(c, hv))
            j[m] = im
        return ex.neg(ex.add(*terms))
    return comp


def _tachibana_fn(A, H):
    """The function (i1..ik, u, v) -> Q(A,H) at that index tuple."""
    _check_pair(A.valence == (0, 2) and A.sym == "sym2", A, H)
    a = A.comps

    def comp(*t):
        # one index list per component, as in `_derivation_fn`
        *j, u, v = t
        terms = []
        for m, im in enumerate(t[:-2]):
            au = a[u][im]
            if au is not ZERO:
                j[m] = v
                hv = H.comp(j)
                if hv is not ZERO:
                    terms.append(ex.mul(au, hv))
            av = a[v][im]
            if av is not ZERO:
                j[m] = u
                hu = H.comp(j)
                if hu is not ZERO:
                    terms.append(ex.neg(ex.mul(av, hu)))
            j[m] = im
        return ex.add(*terms)
    return comp


def derivation_comps(D: TensorField, H: TensorField, tuples) -> list:
    """(D.H) at the index tuples (i1..ik, u, v) given, in their order."""
    fn = _derivation_fn(D, H)
    return [fn(*t) for t in tuples]


def tachibana_comps(A: TensorField, H: TensorField, tuples) -> list:
    """Q(A,H) at the index tuples (i1..ik, u, v) given, in their order."""
    fn = _tachibana_fn(A, H)
    return [fn(*t) for t in tuples]


def derivation_action(D: TensorField, H: TensorField) -> TensorField:
    """(D.H)_{i1..ik u v} = -sum_m D^t_{u v i_m} H_{i1.. t ..ik}."""
    n, rank = D.chart.n, H.rank + 2
    return _field(D.chart, (0, rank), _table(n, rank, _derivation_fn(D, H)))


def tachibana(A: TensorField, H: TensorField) -> TensorField:
    """Q(A,H)_{i1..ik u v} = sum_m [A_{u i_m} H(..v..) - A_{v i_m} H(..u..)]."""
    n, rank = A.chart.n, H.rank + 2
    return _field(A.chart, (0, rank), _table(n, rank, _tachibana_fn(A, H)))


_ORBIT_TAGS = ("curvature", "sym2")  # an H whose actions `_orbit_table` builds


def _orbit_table(comps_fn, A, H):
    """The action comps_fn(A, H, ...) of an H tagged "curvature" (six
    indices) or "sym2" (four) at the representatives of its orbits."""
    n = A.chart.n
    if H.sym == "curvature":
        reps, sym = list(orbit_reps(n, 6)), "curvature"
    else:
        reps, sym = list(pair_reps(n)), "pair"
    comps = comps_fn(A, H, reps)
    return _orbit_field(A.chart, (0, H.rank + 2), dict(zip(reps, comps)), sym)


# ---------------------------------------------------------------------------
# Per-bundle memo of the actions of the bundle's own tensors


@_cached
def cached_derivation(b, dname: str, hname: str) -> TensorField:
    """D.H of the bundle's tensors; each D (R, W, C, K, P) is antisymmetric
    in its first pair.  W.H and P.H are R.H - coef Q(A,H) (module
    docstring); ChartError below dimension 3, as for W and P."""
    if dname in ("W", "P"):
        n = b._need_dim3()
        if dname == "W":
            aname, coef = "g", ex.product(ex.const(Fraction(1, n * (n - 1))), b.kappa)
        else:
            aname, coef = "S", ex.const(Fraction(1, n - 2))
        rh = cached_derivation(b, "R", hname)
        q = cached_tachibana(b, aname, hname)
        if isinstance(rh, _OrbitField):
            return _orbit_field(b.chart, rh.valence, {
                t: ex.sum_products(lead=(v,), negate=((coef, q.reps[t]),))
                for t, v in rh.reps.items()}, rh.sym)
        return _field(b.chart, rh.valence, _table(n, rh.rank, lambda *t: ex.sum_products(
            lead=(rh.comp(t),), negate=((coef, q.comp(t)),))))
    D, H = getattr(b, dname), getattr(b, hname)
    return (_orbit_table(derivation_comps, D, H) if H.sym in _ORBIT_TAGS
            else derivation_action(D, H))


@_cached
def cached_tachibana(b, aname: str, hname: str) -> TensorField:
    """Q(A,H) of the bundle's tensors."""
    A, H = getattr(b, aname), getattr(b, hname)
    return (_orbit_table(tachibana_comps, A, H) if H.sym in _ORBIT_TAGS
            else tachibana(A, H))


# ---------------------------------------------------------------------------
# Deszcz sectional ratio


def _exact_vec(vec, n):
    v = [Fraction(x) for x in vec]
    if len(v) != n:
        raise ValueError("plane vector has the wrong dimension")
    return v


def _span_rank2(v, w):
    n = len(v)
    return any(v[i] * w[j] - v[j] * w[i] for i in range(n) for j in range(i + 1, n))


def deszcz_ratio(b, point, pi1, pi2):
    """Pointwise ratio (R.R)/(Q(g,R)) on the plane pair (pi1, pi2).

    Each plane is a pair of exact-rational spanning vectors.  Returns a dict
    with "defined", "ratio", "numerator", "denominator"; the ratio is None
    when the Tachibana denominator vanishes within the zero-test tolerance
    (curvature-degenerate plane pair).
    """
    n = b.chart.n
    v, w = (_exact_vec(x, n) for x in pi1)
    x, y = (_exact_vec(t, n) for t in pi2)
    if not _span_rank2(v, w) or not _span_rank2(x, y):
        raise ValueError("degenerate plane span")
    rr = cached_derivation(b, "R", "R")
    qgr = cached_tachibana(b, "g", "R")
    # the index tuples whose six plane weights are all nonzero, in
    # lexicographic order, each with its weight as a running product
    terms = [((), Fraction(1))]
    for vec in (v, w, v, w, x, y):
        terms = [(idx + (i,), wt * c) for idx, wt in terms
                 for i, c in enumerate(vec) if c]
    num, den, ratio = ex.weighted_ratio(
        PointEval(point), [wt for _, wt in terms],
        [rr.comp(idx) for idx, _ in terms], [qgr.comp(idx) for idx, _ in terms])
    mpf = ex.as_mpf
    return {"defined": ratio is not None, "ratio": None if ratio is None else mpf(ratio),
            "numerator": mpf(num), "denominator": mpf(den)}

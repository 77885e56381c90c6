"""Levi-Civita connection, curvature tensors, and the derived (0,4) family.

The lowering orientation and the Ricci contraction slot are fixed once,
globally, so that the bundled reference charts reproduce their recorded
component tables: with this choice the round unit 2-sphere has scalar
curvature -2 and an Einstein metric satisfies S = (kappa/n) g unchanged.
"""

from __future__ import annotations

from fractions import Fraction

from . import expr as ex
from . import tensor
from .tensor import (
    Chart, ChartError, TensorField, _field, _table, gaussian, kulkarni_nomizu,
    metric_inverse)

# global lowering orientation; see module docstring
LOWERING_SIGN = -1


def _cached(build):
    """`tensor._cached` as a plain property (perfbench's tracer wraps its getter)."""
    return property(tensor._cached(build))


class CurvatureBundle:
    """Connection plus curvature data for one chart (`bundle(chart)`), each
    built on first access and then kept in `_cache`, by `tensor._cached`.

    gamma is the (1,2) Christoffel array gamma[k][i][j]; R the lowered (0,4)
    curvature; S the Ricci tensor; kappa the scalar curvature; g the metric.
    G, C, W, K, P are the derived family (n >= 3 required for the last
    four); C, W, K and P are each R or K plus a scalar times a (0,4) table
    (`_combine`).  `_cache` also holds the action tables and fit vectors
    built from them.
    `diff` differentiates through one memo per coordinate, so a subtree
    shared by several entries (the g^-1 cofactors in every Gamma entry) is
    differentiated once per bundle.
    """

    def __init__(self, chart: Chart):
        self.chart = chart
        self._cache = {}
        self._dmemo = {c: {} for c in chart.coords}

    def diff(self, e, name):
        """d e / d name through the bundle's memo for coordinate `name`."""
        return ex.diff(e, name, self._dmemo[name])

    # -- connection --------------------------------------------------------

    @_cached
    def gamma(self):
        c = self.chart
        n = c.n
        g = c.metric
        gi = metric_inverse(c).comps
        dg = [[[self.diff(g[i][j], d) for j in range(n)] for i in range(n)]
              for d in c.coords]
        half = ex.const(Fraction(1, 2))
        gam = [[[None] * n for _ in range(n)] for _ in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(i, n):
                    terms = [
                        ex.mul(gi[k][l],
                               ex.add(dg[i][j][l], dg[j][i][l], ex.neg(dg[l][i][j])))
                        for l in range(n)
                    ]
                    val = ex.mul(half, ex.add(*terms))
                    gam[k][i][j] = val
                    gam[k][j][i] = val
        return gam

    # -- curvature ---------------------------------------------------------

    @_cached
    def R(self):
        c = self.chart
        n = c.n
        g = c.metric
        gam = self.gamma
        dgam = [[[[self.diff(gam[m][i][j], d) for j in range(n)] for i in range(n)]
                 for m in range(n)] for d in c.coords]
        comps = [[[[ex.const(0)] * n for _ in range(n)] for _ in range(n)]
                 for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    ups = []
                    for m in range(n):
                        quad = [ex.mul(gam[e][j][k], gam[m][i][e]) for e in range(n)]
                        quad += [ex.neg(ex.mul(gam[e][i][k], gam[m][j][e])) for e in range(n)]
                        ups.append(ex.add(dgam[i][m][j][k], ex.neg(dgam[j][m][i][k]), *quad))
                    for l in range(n):
                        low = ex.add(*[ex.mul(g[l][m], ups[m]) for m in range(n)])
                        val = ex.neg(low) if LOWERING_SIGN < 0 else low
                        comps[i][j][k][l] = val
                        comps[j][i][k][l] = ex.neg(val)
        return _field(c, (0, 4), comps, sym="curvature")

    @_cached
    def S(self):
        n = self.chart.n
        gi = metric_inverse(self.chart).comps
        r = self.R.comps
        comps = _table(n, 2, lambda j, k: ex.add(
            *[ex.mul(gi[i][l], r[i][j][k][l]) for i in range(n) for l in range(n)]))
        return _field(self.chart, (0, 2), comps, sym="sym2")

    @_cached
    def kappa(self):
        n = self.chart.n
        gi = metric_inverse(self.chart).comps
        s = self.S.comps
        return ex.add(*[ex.mul(gi[j][k], s[j][k]) for j in range(n) for k in range(n)])

    # -- derived family ----------------------------------------------------

    @property
    def g(self):
        return self.chart.metric_field()

    @property
    def G(self):
        return gaussian(self.chart)

    def _need_dim3(self):
        """The dimension n; ChartError below 3, where 1/(n-2) is undefined."""
        if self.chart.n < 3:
            raise ChartError("derived tensors require dimension >= 3")
        return self.chart.n

    def _combine(self, a, op, coef, b, sym="curvature"):
        """The (0,4) field op(a, coef * b), componentwise over tables a, b."""
        comps = _table(self.chart.n, 4, lambda i, j, k, l: op(
            a[i][j][k][l], ex.mul(coef, b[i][j][k][l])))
        return _field(self.chart, (0, 4), comps, sym=sym)

    @_cached
    def K(self):
        n = self._need_dim3()
        gs = kulkarni_nomizu(self.chart.metric_field(), self.S).comps
        return self._combine(self.R.comps, ex.sub, ex.const(Fraction(1, n - 2)), gs)

    @_cached
    def C(self):
        n = self._need_dim3()
        coef = ex.mul(ex.const(Fraction(1, (n - 1) * (n - 2))), self.kappa)
        return self._combine(self.K.comps, ex.add, coef, self.G.comps)

    @_cached
    def W(self):
        n = self._need_dim3()
        coef = ex.mul(ex.const(Fraction(1, n * (n - 1))), self.kappa)
        return self._combine(self.R.comps, ex.sub, coef, self.G.comps)

    @_cached
    def P(self):
        n = self._need_dim3()
        g = self.chart.metric
        s = self.S.comps
        sg = _table(n, 4, lambda i, j, k, l: ex.sub(
            ex.mul(s[j][k], g[i][l]), ex.mul(s[i][k], g[j][l])))
        return self._combine(self.R.comps, ex.sub, ex.const(Fraction(1, n - 2)), sg,
                             sym="none")


@tensor._cached
def bundle(chart: Chart) -> CurvatureBundle:
    return CurvatureBundle(chart)


def christoffel(chart: Chart):
    return bundle(chart).gamma


def riemann(chart: Chart) -> TensorField:
    return bundle(chart).R


def ricci_scalar(chart: Chart):
    b = bundle(chart)
    return b.S, b.kappa


def derived_tensors(b: CurvatureBundle) -> dict:
    return {"C": b.C, "W": b.W, "K": b.K, "P": b.P}


def covariant_hessian(chart: Chart, phi) -> TensorField:
    """Second covariant derivative of a scalar: phi_{a,b} = d_a d_b phi - Gamma^c_ab d_c phi."""
    if isinstance(phi, str):
        phi = ex.parse(phi, coords=chart.coords, params=tuple(chart.params))
    bun = bundle(chart)
    gam = bun.gamma
    n = chart.n
    dphi = [bun.diff(phi, d) for d in chart.coords]
    comps = _table(n, 2, lambda a, b: ex.add(
        bun.diff(dphi[a], chart.coords[b]),
        *[ex.neg(ex.mul(gam[e][a][b], dphi[e])) for e in range(n)]))
    return _field(chart, (0, 2), comps, sym="sym2")

"""Levi-Civita connection, curvature tensors, and the derived (0,4) family.

The lowering orientation and the Ricci contraction slot are fixed once,
globally, so that the bundled reference charts reproduce their recorded
component tables: with this choice the round unit 2-sphere has scalar
curvature -2 and an Einstein metric satisfies S = (kappa/n) g unchanged.
"""

from __future__ import annotations

from fractions import Fraction

from . import expr as ex
from .tensor import (
    Chart, ChartError, TensorField, _field, gaussian, kulkarni_nomizu, metric_inverse)

# global lowering orientation; see module docstring
LOWERING_SIGN = -1


class CurvatureBundle:
    """Connection plus curvature data for one chart, computed lazily.

    gamma is the (1,2) Christoffel array gamma[k][i][j]; R the lowered (0,4)
    curvature; S the Ricci tensor; kappa the scalar curvature.  G, C, W, K, P
    are built on first access (n >= 3 required for the last four).
    """

    def __init__(self, chart: Chart):
        self.chart = chart
        self._d = {}

    # -- connection --------------------------------------------------------

    @property
    def gamma(self):
        if "gamma" in self._d:
            return self._d["gamma"]
        c = self.chart
        n = c.n
        g = c.metric
        gi = metric_inverse(c).comps
        dg = [[[ex.diff(g[i][j], d) for j in range(n)] for i in range(n)]
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
        self._d["gamma"] = gam
        return gam

    # -- curvature ---------------------------------------------------------

    @property
    def R(self):
        if "R" in self._d:
            return self._d["R"]
        c = self.chart
        n = c.n
        g = c.metric
        gam = self.gamma
        dgam = [[[[ex.diff(gam[m][i][j], d) for j in range(n)] for i in range(n)]
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
        out = _field(c, (0, 4), comps, sym="curvature")
        self._d["R"] = out
        return out

    @property
    def S(self):
        if "S" in self._d:
            return self._d["S"]
        c = self.chart
        n = c.n
        gi = metric_inverse(c).comps
        r = self.R.comps
        comps = [[
            ex.add(*[ex.mul(gi[i][l], r[i][j][k][l]) for i in range(n) for l in range(n)])
            for k in range(n)] for j in range(n)]
        out = _field(c, (0, 2), comps, sym="sym2")
        self._d["S"] = out
        return out

    @property
    def kappa(self):
        if "kappa" in self._d:
            return self._d["kappa"]
        c = self.chart
        n = c.n
        gi = metric_inverse(c).comps
        s = self.S.comps
        out = ex.add(*[ex.mul(gi[j][k], s[j][k]) for j in range(n) for k in range(n)])
        self._d["kappa"] = out
        return out

    # -- derived family ----------------------------------------------------

    @property
    def G(self):
        return gaussian(self.chart)

    def _need_dim3(self):
        if self.chart.n < 3:
            raise ChartError("derived tensors require dimension >= 3")

    @property
    def K(self):
        if "K" not in self._d:
            self._need_dim3()
            c = self.chart
            n = c.n
            gs = kulkarni_nomizu(c.metric_field(), self.S).comps
            f = ex.const(Fraction(1, n - 2))
            r = self.R.comps
            comps = [[[[ex.sub(r[i][j][k][l], ex.mul(f, gs[i][j][k][l]))
                        for l in range(n)] for k in range(n)]
                      for j in range(n)] for i in range(n)]
            self._d["K"] = _field(c, (0, 4), comps, sym="curvature")
        return self._d["K"]

    @property
    def C(self):
        if "C" not in self._d:
            self._need_dim3()
            c = self.chart
            n = c.n
            coef = ex.mul(ex.const(Fraction(1, (n - 1) * (n - 2))), self.kappa)
            kc = self.K.comps
            gc = self.G.comps
            comps = [[[[ex.add(kc[i][j][k][l], ex.mul(coef, gc[i][j][k][l]))
                        for l in range(n)] for k in range(n)]
                      for j in range(n)] for i in range(n)]
            self._d["C"] = _field(c, (0, 4), comps, sym="curvature")
        return self._d["C"]

    @property
    def W(self):
        if "W" not in self._d:
            self._need_dim3()
            c = self.chart
            n = c.n
            coef = ex.mul(ex.const(Fraction(1, n * (n - 1))), self.kappa)
            r = self.R.comps
            gc = self.G.comps
            comps = [[[[ex.sub(r[i][j][k][l], ex.mul(coef, gc[i][j][k][l]))
                        for l in range(n)] for k in range(n)]
                      for j in range(n)] for i in range(n)]
            self._d["W"] = _field(c, (0, 4), comps, sym="curvature")
        return self._d["W"]

    @property
    def P(self):
        if "P" not in self._d:
            self._need_dim3()
            c = self.chart
            n = c.n
            g = c.metric
            s = self.S.comps
            f = ex.const(Fraction(1, n - 2))
            r = self.R.comps
            comps = [[[[
                ex.sub(r[i][j][k][l],
                       ex.mul(f, ex.sub(ex.mul(s[j][k], g[i][l]),
                                        ex.mul(s[i][k], g[j][l]))))
                for l in range(n)] for k in range(n)]
                for j in range(n)] for i in range(n)]
            self._d["P"] = _field(c, (0, 4), comps)
        return self._d["P"]


def bundle(chart: Chart) -> CurvatureBundle:
    if "bundle" not in chart._cache:
        chart._cache["bundle"] = CurvatureBundle(chart)
    return chart._cache["bundle"]


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
    gam = bundle(chart).gamma
    n = chart.n
    dphi = [ex.diff(phi, d) for d in chart.coords]
    comps = [[
        ex.add(ex.diff(dphi[a], chart.coords[b]),
               *[ex.neg(ex.mul(gam[e][a][b], dphi[e])) for e in range(n)])
        for b in range(n)] for a in range(n)]
    return _field(chart, (0, 2), comps, sym="sym2")

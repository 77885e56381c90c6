"""Identity catalog, pointwise scalar fitting, and classification verdicts.

The catalog rows are the named semisymmetric / pseudosymmetric-type
conditions.  Parametric rows carry defining-set qualifiers: sample points
where every qualifying Tachibana tensor vanishes are excluded from the
verdict (the scalar is unconstrained there) and counted in the report.

Fitting is two-stage by design: fit_pseudosymmetry reports numeric (L1, L2)
per point to guide the user, while check_identity confirms a supplied
closed-form candidate under the randomized zero test.
"""

from __future__ import annotations

from fractions import Fraction

from . import expr as ex
from .actions import cached_derivation, cached_tachibana
from .expr import (
    DEFAULT_SEED, DomainError, InconclusiveError, PointEval, fzero,
    is_literal_zero, mag_gt, zero_threshold,
)
from .tensor import _as_expr, _cached, orbit_reps, orbit_size


class CatalogRow:
    """A named condition D.H = sum of scalar * Q(A, H') terms."""

    def __init__(self, name, lhs, rhs=()):
        self.name = name
        self.lhs = lhs         # (D name, H name) for the derivation action
        self.rhs = rhs         # ((scalar key or None, (A name, H name)), ...)

    @property
    def parametric(self):
        return any(key is not None for key, _ in self.rhs)

    @property
    def needs_dim3(self):
        """True when the row reads C, W, K or P, defined only for n >= 3."""
        names = {*self.lhs, *(x for _, pair in self.rhs for x in pair)}
        return not names.isdisjoint("CWKP")

    @property
    def qualifier(self):
        quals = [f"Q({a},{h}) != 0" for key, (a, h) in self.rhs if key is not None]
        return " or ".join(quals) if quals else "none"


def _rows():
    rows = [
        CatalogRow("R.R = 0", ("R", "R")),
        CatalogRow("R.R = L1 Q(g,R)", ("R", "R"), (("L1", ("g", "R")),)),
        CatalogRow("R.R = L2 Q(S,R)", ("R", "R"), (("L2", ("S", "R")),)),
        CatalogRow("R.R = Q(S,R)", ("R", "R"), ((None, ("S", "R")),)),
        CatalogRow("W.R = 0", ("W", "R")),
        CatalogRow("W.R = L2 Q(S,R)", ("W", "R"), (("L2", ("S", "R")),)),
        CatalogRow("P.R = 0", ("P", "R")),
        CatalogRow("P.R = L1 Q(g,R)", ("P", "R"), (("L1", ("g", "R")),)),
        CatalogRow("R.S = 0", ("R", "S")),
        CatalogRow("R.C = L Q(g,C)", ("R", "C"), (("L", ("g", "C")),)),
        CatalogRow("R.S = L Q(g,S)", ("R", "S"), (("L", ("g", "S")),)),
        CatalogRow("R.P = L Q(g,P)", ("R", "P"), (("L", ("g", "P")),)),
        CatalogRow("P.S = L2 Q(g,S)", ("P", "S"), (("L2", ("g", "S")),)),
        CatalogRow("R.R = L1 Q(g,R) + L2 Q(S,R)", ("R", "R"),
                   (("L1", ("g", "R")), ("L2", ("S", "R")))),
    ]
    return {r.name: r for r in rows}


CATALOG = _rows()


class ConditionReport:
    """Per-point (L1, L2) fit records and the rank, residual and type verdicts;
    their numbers are libmp tuples (see `expr.ls2`)."""

    def __init__(self, records, rank, max_residual, family, trivial,
                 points_invalid=0):
        self.records = records
        self.rank = rank
        self.max_residual = max_residual
        self.family = family
        self.trivial = trivial
        # sample points where a component is undefined
        self.points_invalid = points_invalid


def _scalar_expr(val, chart):
    """A candidate scalar as an expression; names are checked against chart."""
    if not isinstance(val, (ex.Expr, str)):
        val = Fraction(val)
    return _as_expr(val, chart.coords, tuple(chart.params))


# ---------------------------------------------------------------------------
# check_identity


class IdentityCheck:
    """Verdict of one catalog row, fed one evaluator per sample point.

    The row's defects and qualifiers are built at construction (ValueError
    for an unknown row or a missing candidate scalar); `visit(pe)` judges
    them at pe's point and `result()` gives the verdict dict, as
    `expr.ZeroTest` does for its expressions.
    """

    def __init__(self, name, b, scalars=None):
        if name not in CATALOG:
            raise ValueError(f"unknown identity name: {name!r}")
        self._name = name
        self._row = row = CATALOG[name]
        scalars = dict(scalars or {})
        lhs = cached_derivation(b, *row.lhs)
        rhs = []
        quals = []
        for key, (an, hn) in row.rhs:
            q = cached_tachibana(b, an, hn)
            if key is None:
                coef = ex.const(1)
            else:
                if key not in scalars:
                    raise ValueError(f"identity {name!r} needs a candidate for {key}")
                coef = _scalar_expr(scalars[key], b.chart)
                quals.append(q)
            rhs.append((coef, q))
        # a row's fields share their H, hence the tuples they store
        idxs = list(lhs.tuples())
        self._defects = []
        for t in idxs:
            acc = lhs.comp(t)
            for coef, q in rhs:
                qc = q.comp(t)
                if not is_literal_zero(qc):
                    acc = ex.sub(acc, ex.mul(coef, qc))
            if not is_literal_zero(acc):
                self._defects.append(acc)
        self._quals = [[c for c in (q.comp(t) for t in idxs) if not is_literal_zero(c)]
                       for q in quals]
        self._checked = self._excluded = self._invalid = 0
        self._holds = True

    def visit(self, pe):
        judged = pe.judged
        try:
            if self._quals and all(judged(c) is fzero for comps in self._quals
                                   for c in comps):
                self._excluded += 1
                return
            if any(judged(d) is not fzero for d in self._defects):
                self._holds = False
        except DomainError:
            self._invalid += 1
            return
        self._checked += 1

    def result(self):
        if self._checked + self._excluded == 0:
            raise InconclusiveError("no sample point was domain-valid")
        return {
            "name": self._name,
            "holds": self._holds,
            "vacuous": self._checked == 0,
            "points_checked": self._checked,
            "points_excluded": self._excluded,
            "points_invalid": self._invalid,
            "qualifier": self._row.qualifier,
        }


def check_identity(name, b, scalars=None, trials=8, seed=DEFAULT_SEED):
    """Verdict dict for one catalog row on a curvature bundle."""
    check = IdentityCheck(name, b, scalars)
    ex.sweep(b.chart.sample_points(trials, seed), [check])
    return check.result()


# ---------------------------------------------------------------------------
# Pointwise least squares for R.R = L1 Q(g,R) + L2 Q(S,R)


@_cached
def _fit_vectors(b):
    """(orbit_size, R.R, Q(g,R), Q(S,R)) at each orbit representative where
    a column is not literal zero; the columns share the orbits' signs."""
    cols = (cached_derivation(b, "R", "R"), cached_tachibana(b, "g", "R"),
            cached_tachibana(b, "S", "R"))
    vecs = [(orbit_size(t), *(c.comp(t) for c in cols))
            for t in orbit_reps(b.chart.n, 6)]
    return [v for v in vecs if not all(is_literal_zero(e) for e in v[1:])]


class PseudosymmetryFit:
    """Least-squares (L1, L2) of R.R = L1 Q(g,R) + L2 Q(S,R), fed one
    evaluator per sample point.

    Built for `npoints` points (ValueError below 5); `visit(pe)` fits at
    pe's point, skipping it when a component is undefined there, and
    `result()` gives the ConditionReport, with the skipped points counted
    in points_invalid; InconclusiveError when no point was domain-valid.
    """

    def __init__(self, b, npoints):
        if npoints < 5:
            raise ValueError("need at least 5 sample points")
        self._vecs = _fit_vectors(b)
        self._w = [v[0] for v in self._vecs]
        self._records = []
        self._visited = 0

    def visit(self, pe):
        self._visited += 1
        # cancellation residue below the scaled zero threshold is noise,
        # not data; judged() snaps it to an exact zero
        judged = pe.judged
        try:
            r = [judged(er) for _, er, _, _ in self._vecs]
            q1 = [judged(eg) for _, _, eg, _ in self._vecs]
            q2 = [judged(es) for _, _, _, es in self._vecs]
        except DomainError:
            return
        rec = ex.ls2(self._w, q1, q2, r)
        rec["point"] = pe.point
        self._records.append(rec)

    def result(self) -> ConditionReport:
        records = self._records
        if not records:
            raise InconclusiveError("no sample point was domain-valid")
        worst = records[0]["residual"]
        for rec in records[1:]:
            if mag_gt(rec["residual"], worst):
                worst = rec["residual"]
        return ConditionReport(
            records=records, rank=max(rec["rank"] for rec in records),
            max_residual=worst,
            family=all(rec["rank"] < 2 for rec in records),
            # a data scale is a magnitude: it is 0 iff its mantissa is
            trivial=not any(rec["data_scale"][1] for rec in records),
            points_invalid=self._visited - len(records))


def fit_pseudosymmetry(b, points) -> ConditionReport:
    """Least-squares (L1, L2) of R.R = L1 Q(g,R) + L2 Q(S,R) at each point
    (see `PseudosymmetryFit`)."""
    fit = PseudosymmetryFit(b, len(points))
    ex.sweep(points, [fit])
    return fit.result()


def pair_residual(b, point, L1, L2):
    """Residual of a specific (L1, L2) candidate at one point.

    L1/L2 may be numbers or expressions (evaluated at the point).  Returns
    {"residual", "scale"}; the pair is admissible when the residual is below
    the zero-test threshold for that scale.
    """
    chart = b.chart
    pe = PointEval(point)

    def val(x):
        if isinstance(x, (ex.Expr, str)):
            return pe.rounded(_scalar_expr(x, chart))
        return ex.to_mpf(x)._mpf_

    l1, l2 = val(L1), val(L2)
    w, r, q1, q2 = [], [], [], []
    for k, er, eg, es in _fit_vectors(b):
        w.append(k)
        r.append(pe.rounded(er))
        q1.append(pe.rounded(eg))
        q2.append(pe.rounded(es))
    res, scale = ex.fit_residual(w, q1, q2, r, l1, l2)
    return {"residual": res, "scale": scale}


def pair_admissible(b, point, L1, L2):
    out = pair_residual(b, point, L1, L2)
    return out["residual"] <= zero_threshold(out["scale"])


# ---------------------------------------------------------------------------
# Einstein and constant-type checks


def einstein_defects(b):
    """The components of S - (kappa/n) g."""
    n = b.chart.n
    coef = ex.mul(ex.const(Fraction(1, n)), b.kappa)
    return [ex.sub(b.S.comps[i][j], ex.mul(coef, b.chart.metric[i][j]))
            for i in range(n) for j in range(n)]


def einstein_check(b, trials=8, seed=DEFAULT_SEED):
    """True iff S = (kappa/n) g under the randomized zero test."""
    return all(b.chart.is_zero_many(einstein_defects(b), trials=trials, seed=seed))


def constant_type_check(report: ConditionReport):
    """True iff the fitted pair is the same constant at every sampled point."""
    recs = report.records
    if not recs:
        return True
    return ex.rows_constant([(r["L1"], r["L2"]) for r in recs])

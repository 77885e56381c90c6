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

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct

from . import expr as ex
from .actions import cached_derivation, cached_tachibana
from .expr import (
    DEFAULT_SEED, MP, REL_TOL, DomainError, InconclusiveError, PointEval,
    is_literal_zero, to_mpf, zero_threshold,
)
from .tensor import _as_expr


@dataclass(frozen=True)
class CatalogRow:
    name: str
    lhs: tuple                 # (D name, H name) for the derivation action
    rhs: tuple = ()            # ((scalar key or None, (A name, H name)), ...)

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


@dataclass
class ConditionReport:
    records: list
    rank: int
    max_residual: object
    family: bool
    trivial: bool
    points_invalid: int = 0    # sample points where a component is undefined
    verdicts: dict = field(default_factory=dict)


def _scalar_expr(val, chart):
    """A candidate scalar as an expression; names are checked against chart."""
    if not isinstance(val, (ex.Expr, str)):
        val = Fraction(val)
    return _as_expr(val, chart.coords, tuple(chart.params))


# ---------------------------------------------------------------------------
# check_identity


def check_identity(name, b, scalars=None, trials=8, seed=DEFAULT_SEED):
    """Verdict dict for one catalog row on a curvature bundle."""
    if name not in CATALOG:
        raise ValueError(f"unknown identity name: {name!r}")
    row = CATALOG[name]
    scalars = dict(scalars or {})
    chart = b.chart
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
            coef = _scalar_expr(scalars[key], chart)
            quals.append(q)
        rhs.append((coef, q))
    idxs = list(iproduct(range(chart.n), repeat=lhs.rank))
    defects = []
    for t in idxs:
        acc = lhs.comp(t)
        for coef, q in rhs:
            qc = q.comp(t)
            if not is_literal_zero(qc):
                acc = ex.sub(acc, ex.mul(coef, qc))
        if not is_literal_zero(acc):
            defects.append(acc)
    qual_comps = [[c for c in (q.comp(t) for t in idxs) if not is_literal_zero(c)]
                  for q in quals]
    checked = excluded = invalid = 0
    holds = True
    for pt in chart.sample_points(trials, seed):
        pe = PointEval(pt)
        try:
            if quals and all(pe.judge(c) == 0 for comps in qual_comps
                             for c in comps):
                excluded += 1
                continue
            if any(pe.judge(d) != 0 for d in defects):
                holds = False
        except DomainError:
            invalid += 1
            continue
        checked += 1
    if checked + excluded == 0:
        raise InconclusiveError("no sample point was domain-valid")
    return {
        "name": name,
        "holds": holds,
        "vacuous": checked == 0,
        "points_checked": checked,
        "points_excluded": excluded,
        "points_invalid": invalid,
        "qualifier": row.qualifier,
    }


# ---------------------------------------------------------------------------
# Pointwise least squares for R.R = L1 Q(g,R) + L2 Q(S,R)


def _fit_vectors(b):
    if "fit_vectors" not in b._d:
        rr = cached_derivation(b, "R", "R")
        qg = cached_tachibana(b, "g", "R")
        qs = cached_tachibana(b, "S", "R")
        n = b.chart.n
        triples = []
        for t in iproduct(range(n), repeat=6):
            er, eg, es = rr.comp(t), qg.comp(t), qs.comp(t)
            # entries identically zero in all three columns cannot affect
            # the normal equations; skip them
            if is_literal_zero(er) and is_literal_zero(eg) and is_literal_zero(es):
                continue
            triples.append((er, eg, es))
        b._d["fit_vectors"] = triples
    return b._d["fit_vectors"]


def _norm(v):
    return MP.sqrt(sum(x * x for x in v))


def _ls2(q1, q2, r):
    n1, n2, nr = _norm(q1), _norm(q2), _norm(r)
    scale = max(n1, n2, nr)
    zero = MP.zero
    if scale == 0:
        return {"L1": zero, "L2": zero, "residual": zero, "rank": 0,
                "nullspace": [(1, 0), (0, 1)], "data_scale": scale}
    col1 = n1 > REL_TOL * scale
    col2 = n2 > REL_TOL * scale
    if not col1 and not col2:
        return {"L1": zero, "L2": zero, "residual": nr, "rank": 0,
                "nullspace": [(1, 0), (0, 1)], "data_scale": scale}
    dot = sum(a * c for a, c in zip(q1, q2))
    gram = n1 * n1 * n2 * n2 - dot * dot
    parallel = (not col1) or (not col2) or (
        MP.sqrt(max(gram, zero)) <= REL_TOL * n1 * n2)
    if parallel:
        if not col1:
            L1, L2 = zero, sum(a * c for a, c in zip(q2, r)) / (n2 * n2)
            null = [(MP.one, zero)]
        elif not col2:
            L1, L2 = sum(a * c for a, c in zip(q1, r)) / (n1 * n1), zero
            null = [(zero, MP.one)]
        else:
            rho = dot / (n1 * n1)
            t = sum(a * c for a, c in zip(q1, r)) / (n1 * n1)
            L1 = t / (1 + rho * rho)
            L2 = rho * L1
            null = [(-rho, MP.one)]
        rank = 1
    else:
        det = gram
        d1 = sum(a * c for a, c in zip(q1, r))
        d2 = sum(a * c for a, c in zip(q2, r))
        L1 = (d1 * n2 * n2 - d2 * dot) / det
        L2 = (n1 * n1 * d2 - dot * d1) / det
        null = []
        rank = 2
    res = _norm([rv - L1 * a - L2 * c for a, c, rv in zip(q1, q2, r)])
    return {"L1": L1, "L2": L2, "residual": res, "rank": rank,
            "nullspace": null, "data_scale": scale}


def fit_pseudosymmetry(b, points) -> ConditionReport:
    """Least-squares (L1, L2) of R.R = L1 Q(g,R) + L2 Q(S,R) at each point.

    Points where a component is undefined are skipped and counted in
    points_invalid; InconclusiveError when no point is domain-valid.
    """
    if len(points) < 5:
        raise ValueError("need at least 5 sample points")
    triples = _fit_vectors(b)
    records = []
    trivial = True
    for pt in points:
        # cancellation residue below the scaled zero threshold is noise,
        # not data; judge() snaps it to an exact zero
        pe = PointEval(pt)
        try:
            r = [pe.judge(er) for er, _, _ in triples]
            q1 = [pe.judge(eg) for _, eg, _ in triples]
            q2 = [pe.judge(es) for _, _, es in triples]
        except DomainError:
            continue
        rec = _ls2(q1, q2, r)
        rec["point"] = pt
        records.append(rec)
        if rec["data_scale"] > 0:
            trivial = False
    if not records:
        raise InconclusiveError("no sample point was domain-valid")
    rank = max(rec["rank"] for rec in records)
    max_res = max(rec["residual"] for rec in records)
    family = all(rec["rank"] < 2 for rec in records)
    return ConditionReport(records=records, rank=rank, max_residual=max_res,
                           family=family, trivial=trivial,
                           points_invalid=len(points) - len(records))


def pair_residual(b, point, L1, L2):
    """Residual of a specific (L1, L2) candidate at one point.

    L1/L2 may be numbers or expressions (evaluated at the point).  Returns
    {"residual", "scale"}; the pair is admissible when the residual is below
    the zero-test threshold for that scale.
    """
    chart = b.chart
    triples = _fit_vectors(b)
    pe = PointEval(point)

    def val(x):
        if isinstance(x, (ex.Expr, str)):
            return to_mpf(pe.eval(_scalar_expr(x, chart)))
        return to_mpf(x)

    l1, l2 = val(L1), val(L2)
    res = scale = MP.zero
    for er, eg, es in triples:
        rv = to_mpf(pe.eval(er))
        g1 = to_mpf(pe.eval(eg))
        g2 = to_mpf(pe.eval(es))
        res += (rv - l1 * g1 - l2 * g2) ** 2
        for s in (abs(rv), abs(l1 * g1), abs(l2 * g2)):
            if s > scale:
                scale = s
    return {"residual": MP.sqrt(res), "scale": scale}


def pair_admissible(b, point, L1, L2):
    out = pair_residual(b, point, L1, L2)
    return out["residual"] <= zero_threshold(out["scale"])


# ---------------------------------------------------------------------------
# Einstein and constant-type checks


def einstein_check(b, trials=8, seed=DEFAULT_SEED):
    """True iff S = (kappa/n) g under the randomized zero test."""
    c = b.chart
    n = c.n
    coef = ex.mul(ex.const(Fraction(1, n)), b.kappa)
    diffs = [ex.sub(b.S.comps[i][j], ex.mul(coef, c.metric[i][j]))
             for i in range(n) for j in range(n)]
    return all(c.is_zero_many(diffs, trials=trials, seed=seed))


def constant_type_check(report: ConditionReport):
    """True iff the fitted pair is the same constant at every sampled point."""
    recs = report.records
    if not recs:
        return True
    vals = [(to_mpf(r["L1"]), to_mpf(r["L2"])) for r in recs]
    scale = max(max(abs(a), abs(c)) for a, c in vals)
    a0, c0 = vals[0]
    tol = REL_TOL * (1 + scale)
    return all(abs(a - a0) <= tol and abs(c - c0) <= tol for a, c in vals)

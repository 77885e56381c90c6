"""Warped-product charts built from a base, a fiber, and a warping function.

The metric is block diagonal: the base block is untouched, the fiber block is
scaled by f(base).  Every curvature-level and action-level tensor of the
product then decomposes into closed-form blocks over base and fiber data.
This module computes those blocks, assembles them into full product tensors
(the direct computation on the assembled chart is the oracle they are tested
against), and checks the five block conditions (I)-(V) that characterize
R.R = L1 Q(g,R) + L2 Q(S,R) on such a product, together with the associated
trichotomy and dichotomy classification of where the conditions can hold.

Every check builds its expressions up front and lists its `visitors` as
(chart, visitor) pairs, the chart being "base", "fiber" or "product";
`sweep_charts` sweeps each chart once, so all checks of a `warped-verify`
run, its oracle included, share one evaluator per sample point.

The six-index tensors R.R, Q(g,R) and Q(S,R) are antisymmetric in each index
pair and symmetric under exchanging the first two pairs.  Their blocks are
therefore built, and the conditions judged, at one index tuple per orbit of
those symmetries (`tensor.orbit_reps`) wherever a block keeps them; the
other components follow by sign.  The base and fiber six-index actions the
blocks read are likewise stored at their orbit representatives only.

Index bookkeeping: product coordinates are the base coordinates followed by
the fiber coordinates renamed x{p+1}..x{n}.  Reports carry both labelings.
"""

from __future__ import annotations

from itertools import product as iproduct

from . import expr as ex
from .actions import (
    _orbit_table, derivation_action, derivation_comps, tachibana, tachibana_comps)
from .conditions import einstein_defects
from .curvature import bundle, covariant_hessian
from .expr import DEFAULT_SEED, DomainError, PointEval, fzero, is_literal_zero
from .tensor import (
    Chart, ChartError, _as_expr, _cached, _chart, _field, _orbit_field,
    _table, gaussian, metric_inverse, orbit_reps, point_str,
)

LABEL_T = "T = L1 g"
LABEL_FIBER = "fiber-Einstein"
LABEL_BASE = "base-flat"
LABEL_NONE = "none"

CONDITION_NAMES = ("I", "II", "III", "IV", "V")


class WarpedSpec:
    """A base chart, a fiber chart (renamed into product coordinates), and f.

    f must be a base-coordinate expression, positive on the base sampling
    box.  The renamed fiber coordinate x{p+alpha} corresponds to the fiber's
    alpha-th original coordinate; `fiber_map` records the correspondence.
    """

    def __init__(self, base, fiber, f):
        self.base = base
        self.p = base.n
        self.q = fiber.n
        self.n = self.p + self.q
        self.f = _as_expr(f, base.coords, tuple(base.params))
        mapping = {fiber.coords[i]: f"x{self.p + i + 1}" for i in range(fiber.n)}
        new_names = tuple(mapping[c] for c in fiber.coords)
        clash = set(new_names) & set(base.coords)
        if clash:
            raise ChartError(f"renamed fiber coordinates collide with base: {sorted(clash)}")
        self.fiber_map = mapping
        for k, v in fiber.params.items():
            if k in base.params and base.params[k] != v:
                raise ChartError(f"parameter {k!r} has conflicting values")
        self.params = dict(fiber.params)
        self.params.update(base.params)
        fmetric = [[ex.rename(fiber.metric[i][j], mapping) for j in range(fiber.n)]
                   for i in range(fiber.n)]
        fbox = {mapping.get(k, k): v for k, v in fiber.box.items()}
        # the renamed fiber samples the fiber's values at the same seed, so
        # the fiber's own validation stands for it
        self.fiber = _chart(new_names, fmetric, fiber.params, fbox)
        self._check_f_positive()
        self._cache = {}

    def _check_f_positive(self):
        valid = 0
        for pt in self.base.sample_points():
            pe = PointEval(pt)
            try:
                t = pe.rounded(self.f)
            except DomainError:
                continue
            valid += 1
            # rounding keeps a rational's sign: the value is positive iff its
            # tuple has sign 0 and lies above zero
            if t[0] or not ex.mag_gt(t, fzero):
                raise ChartError(f"warping function must be positive on the box, got "
                                 f"{pe.value_str(self.f)} at "
                                 f"{point_str(pt, self.base.coords)}")
        if valid == 0:
            raise ChartError("warping function not evaluable on the sampling box")


def make_spec(base, fiber, f):
    return WarpedSpec(base, fiber, f)


@_cached
def assemble_product(spec):
    """Product chart: base block as-is, fiber block scaled by f, mixed zero."""
    p, q, n = spec.p, spec.q, spec.n
    rows = [[ex.const(0) for _ in range(n)] for _ in range(n)]
    for i in range(p):
        for j in range(p):
            rows[i][j] = spec.base.metric[i][j]
    for i in range(q):
        for j in range(q):
            rows[p + i][p + j] = ex.mul(spec.f, spec.fiber.metric[i][j])
    coords = tuple(spec.base.coords) + tuple(spec.fiber.coords)
    box = dict(spec.base.box)
    box.update(spec.fiber.box)
    return Chart(coords, rows, params=spec.params, box=box)


class WarpedAux:
    """The warping function's auxiliary tensors and scalars on the base."""

    def __init__(self, T, trT, Delta, Omega, T2, Traised):
        self.T = T              # (1/2f)(Hess f - (1/2f) df x df), sym2 on base
        self.trT = trT
        self.Delta = Delta      # |df|^2 / 4f^2
        self.Omega = Omega      # -f((q-1) Delta + tr T)
        self.T2 = T2            # T^t_a T_ts, sym2 on base
        self.Traised = Traised  # T^t_s = gbar^{ta} T_as


@_cached
def auxiliaries(spec):
    b = spec.base
    p, q, f = spec.p, spec.q, spec.f
    H = covariant_hessian(b, f)
    fa = [ex.diff(f, c) for c in b.coords]
    inv2f = ex.div(ex.const(1), ex.mul(ex.const(2), f))
    T = [[ex.mul(inv2f, ex.sub(H.comps[a][c], ex.mul(inv2f, ex.mul(fa[a], fa[c]))))
          for c in range(p)] for a in range(p)]
    gi = metric_inverse(b).comps
    trT = ex.add(*[ex.mul(gi[a][c], T[a][c]) for a in range(p) for c in range(p)])
    Delta = ex.mul(ex.div(ex.const(1), ex.mul(ex.const(4), ex.mul(f, f))),
                   ex.add(*[ex.mul(gi[a][c], ex.mul(fa[a], fa[c]))
                            for a in range(p) for c in range(p)]))
    Omega = ex.neg(ex.mul(f, ex.add(ex.mul(ex.const(q - 1), Delta), trT)))
    Traised = [[ex.add(*[ex.mul(gi[t][a], T[a][s]) for a in range(p)])
                for s in range(p)] for t in range(p)]
    T2 = [[ex.add(*[ex.mul(Traised[t][a], T[t][s]) for t in range(p)])
           for s in range(p)] for a in range(p)]
    return WarpedAux(
        T=_field(b, (0, 2), T, sym="sym2"),
        trT=trT, Delta=Delta, Omega=Omega,
        T2=_field(b, (0, 2), T2, sym="sym2"),
        Traised=Traised,
    )


# ---------------------------------------------------------------------------
# Shared block context


class _Ctx:
    """Bundles plus every base/fiber action tensor the block formulas use.

    The six-index actions are read only at orbit representatives, so they
    are built there (`actions._orbit_table`); the four-index ones are dense.
    """

    def __init__(self, spec, aux):
        p, q = spec.p, spec.q
        bb = bundle(spec.base)
        fb = bundle(spec.fiber)
        self.bb, self.fb = bb, fb
        T = aux.T.comps
        self.Shat = [[ex.add(bb.S.comps[a][c], ex.mul(ex.const(q), T[a][c]))
                      for c in range(p)] for a in range(p)]
        self.Scheck = [[ex.sub(fb.S.comps[al][be],
                               ex.mul(aux.Omega, spec.fiber.metric[al][be]))
                        for be in range(q)] for al in range(q)]
        ShatF = _field(spec.base, (0, 2), self.Shat, sym="sym2")
        self.RRb = _orbit_table(derivation_comps, bb.R, bb.R)
        self.QgRb = _orbit_table(tachibana_comps, bb.g, bb.R)
        self.QSRhat = _orbit_table(tachibana_comps, ShatF, bb.R)
        self.RTb = derivation_action(bb.R, aux.T)
        self.QgTb = tachibana(bb.g, aux.T)
        self.QSTb = tachibana(bb.S, aux.T)
        self.RRf = _orbit_table(derivation_comps, fb.R, fb.R)
        self.QgRf = _orbit_table(tachibana_comps, fb.g, fb.R)
        self.QSRf = _orbit_table(tachibana_comps, fb.S, fb.R)
        self.QgSf = tachibana(fb.g, fb.S)
        self.Gf = gaussian(spec.fiber)
        self.QSGf = _orbit_table(tachibana_comps, fb.S, self.Gf)
        fD = ex.mul(spec.f, aux.Delta)
        self.RfDG = _table(q, 4, lambda a, b, c, d: ex.add(
            fb.R.comps[a][b][c][d], ex.mul(fD, self.Gf.comps[a][b][c][d])))


@_cached
def _ctx(spec):
    return _Ctx(spec, auxiliaries(spec))


def _normalize6(t, p):
    """Sort a six-index tuple into block-canonical form.

    Within the first and third pairs a fiber index may precede a base index;
    swapping costs a sign (pair antisymmetry).  The first two pairs may be
    exchanged freely.  Returns (signature, normalized pairs, sign) where the
    signature counts fiber indices per pair.
    """
    pairs = [[t[0], t[1]], [t[2], t[3]], [t[4], t[5]]]
    sign = 1
    norm = []
    for i, j in pairs:
        ci = (i >= p) + (j >= p)
        if ci == 1 and i >= p:
            i, j = j, i
            sign = -sign
        norm.append((ci, i, j))
    if norm[0][0] > norm[1][0]:
        norm[0], norm[1] = norm[1], norm[0]
    sig = (norm[0][0], norm[1][0], norm[2][0])
    return sig, norm, sign


def _entry6(spec, aux, c, t):
    """One component of the block-assembled (R.R, Q(g,R), Q(S,R))."""
    p, q, f = spec.p, spec.q, spec.f
    sig, norm, sign = _normalize6(t, p)
    sgn = ex.const(sign)
    gt = spec.fiber.metric
    gb = spec.base.metric
    T = aux.T.comps

    def fi(i):
        return i - p

    if sig == (0, 0, 0):
        idx = tuple(x for pr in norm for x in pr[1:])
        return tuple(ex.mul(sgn, src.comp(idx))
                     for src in (c.RRb, c.QgRb, c.QSRhat))

    if sig == (1, 1, 0):
        a, al = norm[0][1], fi(norm[0][2])
        b, be = norm[1][1], fi(norm[1][2])
        s, u = norm[2][1], norm[2][2]
        return tuple(ex.mul(ex.const(-sign), f, gt[al][be], src.comp((a, b, s, u)))
                     for src in (c.RTb, c.QgTb, c.QSTb))

    if sig == (0, 1, 1):
        a, b = norm[0][1], norm[0][2]
        d, al = norm[1][1], fi(norm[1][2])
        s, et = norm[2][1], fi(norm[2][2])
        acc = ex.const(0)
        for tt in range(p):
            acc = ex.add(acc, ex.mul(aux.Traised[tt][s], c.bb.R.comps[a][b][d][tt]))
        rr = ex.sub(ex.sub(ex.mul(T[a][s], T[b][d]),
                           ex.mul(T[a][d], T[b][s])), acc)
        qg = ex.sub(ex.sub(ex.mul(gb[a][s], T[b][d]),
                           ex.mul(gb[b][s], T[a][d])),
                    c.bb.R.comps[a][b][d][s])
        qs = ex.sub(ex.mul(c.Shat[a][s], T[b][d]),
                    ex.mul(c.Shat[b][s], T[a][d]))
        return (ex.mul(sgn, f, gt[al][et], rr),
                ex.mul(sgn, f, gt[al][et], qg),
                ex.mul(sgn, ex.sub(ex.mul(f, gt[al][et], qs),
                                   ex.mul(c.bb.R.comps[a][b][d][s],
                                          c.Scheck[al][et]))))

    if sig == (1, 2, 1):
        a, al = norm[0][1], fi(norm[0][2])
        be, ga = fi(norm[1][1]), fi(norm[1][2])
        s, et = norm[2][1], fi(norm[2][2])
        G = c.Gf.comps[et][al][be][ga]
        RfDG = c.RfDG[et][al][be][ga]
        rr = ex.sub(ex.mul(f, T[a][s], RfDG),
                    ex.mul(f, f, aux.T2.comps[a][s], G))
        coef = ex.sub(ex.mul(aux.Delta, gb[a][s]), T[a][s])
        qg = ex.add(ex.mul(f, gb[a][s], c.fb.R.comps[et][al][be][ga]),
                    ex.mul(f, f, coef, G))
        core = ex.sub(ex.mul(gt[al][ga], c.Scheck[be][et]),
                      ex.mul(gt[al][be], c.Scheck[ga][et]))
        qs = ex.add(ex.mul(f, c.Shat[a][s], RfDG), ex.mul(f, T[a][s], core))
        return ex.mul(sgn, rr), ex.mul(sgn, qg), ex.mul(sgn, qs)

    if sig == (1, 1, 2):
        a, al = norm[0][1], fi(norm[0][2])
        b, be = norm[1][1], fi(norm[1][2])
        mu, et = fi(norm[2][1]), fi(norm[2][2])
        return (ex.ZERO, ex.ZERO,
                ex.mul(sgn, f, T[a][b], c.QgSf.comp((al, be, mu, et))))

    if sig == (2, 2, 2):
        idx = tuple(fi(x) for pr in norm for x in pr[1:])
        qg = c.QgRf.comp(idx)
        inner = ex.add(ex.sub(c.QSRf.comp(idx), ex.mul(aux.Omega, qg)),
                       ex.mul(f, aux.Delta, c.QSGf.comp(idx)))
        return (ex.mul(sgn, ex.add(ex.mul(f, c.RRf.comp(idx)),
                                   ex.mul(f, f, aux.Delta, qg))),
                ex.mul(sgn, f, f, qg),
                ex.mul(sgn, f, inner))

    return ex.ZERO, ex.ZERO, ex.ZERO


def _entry4(spec, aux, c, t):
    """One component of the block-assembled curvature tensor."""
    p, f = spec.p, spec.f
    i, j, k, l = t
    m = [x >= p for x in t]
    if not any(m):
        return c.bb.R.comps[i][j][k][l]
    if all(m):
        a, b, d, e = (x - p for x in t)
        return ex.mul(f, c.RfDG[a][b][d][e])
    if m[0] != m[1] and m[2] != m[3]:
        sign = 1
        a, al = (i, j) if not m[0] else (j, i)
        if m[0]:
            sign = -sign
        b, be = (k, l) if not m[2] else (l, k)
        if m[2]:
            sign = -sign
        return ex.mul(ex.const(-sign), f, aux.T.comps[a][b],
                      spec.fiber.metric[al - p][be - p])
    return ex.const(0)


@_cached
def block_curvature(spec):
    """Assembled curvature tensor, Ricci tensor, and scalar from the blocks."""
    aux = auxiliaries(spec)
    c = _ctx(spec)
    prod = assemble_product(spec)
    p, q, n = spec.p, spec.q, spec.n
    R = _table(n, 4, lambda *t: _entry4(spec, aux, c, t))

    def ricci(i, j):
        if i < p and j < p:
            return c.Shat[i][j]
        if i >= p and j >= p:
            return c.Scheck[i - p][j - p]
        return ex.const(0)

    kappa = ex.add(c.bb.kappa, ex.div(c.fb.kappa, spec.f),
                   ex.mul(ex.const(q),
                          ex.add(ex.mul(ex.const(q - 1), aux.Delta),
                                 ex.mul(ex.const(2), aux.trT))))
    return {
        "R": _field(prod, (0, 4), R),
        "S": _field(prod, (0, 2), _table(n, 2, ricci), sym="sym2"),
        "kappa": kappa,
    }


@_cached
def block_actions(spec):
    """Assembled R.R, Q(g,R), Q(S,R) on the product chart from the blocks.

    Each system's block formula is evaluated once per symmetry orbit
    representative (`orbit_reps(n, 6)`: 126 tuples at n = 4, 550 at n = 5,
    against n^6).  The returned fields give any component on demand as
    plus or minus its representative's, and literal 0 where an
    antisymmetric pair repeats an index.
    """
    aux = auxiliaries(spec)
    c = _ctx(spec)
    prod = assemble_product(spec)
    reps = list(orbit_reps(spec.n, 6))
    cols = zip(*(_entry6(spec, aux, c, t) for t in reps))
    return {system: _orbit_field(prod, (0, 6), dict(zip(reps, col)))
            for system, col in zip(("RR", "QgR", "QSR"), cols)}


# ---------------------------------------------------------------------------
# Checks


def sweep_charts(spec, visitors, trials=8, seed=DEFAULT_SEED):
    """Sweep the base, fiber and product charts once each at (trials, seed);
    at each point, the visitors of that chart share one evaluator."""
    for role, chart in (("base", spec.base), ("fiber", spec.fiber),
                        ("product", assemble_product(spec))):
        mine = [v for r, v in visitors if r == role]
        if mine:
            ex.sweep(chart.sample_points(trials, seed), mine)


def _base_scalar(spec, val, what):
    try:
        e = _as_expr(val, assemble_product(spec).coords, tuple(spec.params))
    except ChartError as err:
        raise ChartError(f"{what}: {err}") from None
    bad = ex.free_coords(e) - set(spec.base.coords)
    if bad:
        raise ValueError(f"{what} may only use base coordinates, found {sorted(bad)}")
    return e


class Defects:
    """Named families of defects, each zero-tested on its chart by its own
    `ZeroTest`.  `verdicts()` reads them in the order added: whether each
    vanishes, and for a failed family given its index tuples, the witness
    (the first failing tuple, 1-based, and its defect)."""

    def __init__(self):
        self.visitors = []
        self._families = {}     # name -> (index tuples or None, defects, test)

    def add(self, name, chart, defects, tuples=None):
        test = ex.ZeroTest(defects)
        self._families[name] = tuples, defects, test
        self.visitors.append((chart, test))

    def verdicts(self):
        holds, witnesses = {}, {}
        for name, (tuples, defects, test) in self._families.items():
            zero = test.result()
            holds[name] = all(zero)
            if not holds[name] and tuples is not None:
                k = zero.index(False)
                witnesses[name] = {"index": tuple(i + 1 for i in tuples[k]),
                                   "defect": defects[k]}
        return holds, witnesses


class Conditions(Defects):
    """The five block conditions for R.R = L1 Q(g,R) + L2 Q(S,R), for base
    scalar expressions L1 and L2.

    (I) is the base-block equation, (II) and (III) the two mixed-block
    equations, (IV) the vanishing of L2 T Q(gf,Sf) decided per factor, and
    (V) the fiber-block equation.  Verdicts are claims over the sampling
    box only.  The corollary equation R.T = L1 Q(g,T) + L2 Q(S,T) on the
    base is reported alongside.  For every failed equation, "witnesses"
    records one offending component (1-based index and defect expression).
    """

    def __init__(self, spec, L1, L2):
        super().__init__()
        aux = auxiliaries(spec)
        c = _ctx(spec)
        p, q, f = spec.p, spec.q, spec.f

        def combo(t):
            rr, qg, qs = _entry6(spec, aux, c, t)
            return ex.sub(rr, ex.add(ex.mul(L1, qg), ex.mul(L2, qs)))

        # Each list is in the order of the dense loop over its block, keeping
        # one tuple per orbit of the index symmetries the block shares; the
        # first failing tuple, hence the witness, is the dense loop's.
        tup = list(orbit_reps(p, 6))
        self.add("I", "base",
                 [ex.sub(c.RRb.comp(t),
                         ex.add(ex.mul(L1, c.QgRb.comp(t)),
                                ex.mul(L2, c.QSRhat.comp(t)))) for t in tup], tup)

        tup = [(a, b, d_, al + p, s, et + p)
               for a, b, d_, s in iproduct(range(p), repeat=4) if a < b
               for al, et in iproduct(range(q), repeat=2)]
        self.add("II", "product", [combo(t) for t in tup], tup)

        tup = [(a, al + p, be + p, ga + p, s, et + p)
               for a, s in iproduct(range(p), repeat=2)
               for al, be, ga, et in iproduct(range(q), repeat=4) if be < ga]
        self.add("III", "product", [combo(t) for t in tup], tup)

        # product of a base factor and a fiber factor vanishes iff one factor
        # does; the factors report no witness
        self.add("IV_base_factor_zero", "base",
                 [ex.mul(L2, aux.T.comps[a][b]) for a in range(p) for b in range(p)])
        self.add("IV_fiber_factor_zero", "fiber",
                 [c.QgSf.comp(t) for t in iproduct(range(q), repeat=4)])

        c1 = ex.sub(ex.mul(f, ex.sub(L1, aux.Delta)), ex.mul(L2, aux.Omega))
        c2 = ex.mul(L2, f, aux.Delta)
        tup = list(orbit_reps(q, 6))
        # witness indices are reported in product labels, hence the +p shift
        self.add("V", "product",
                 [ex.sub(c.RRf.comp(t),
                         ex.add(ex.add(ex.mul(c1, c.QgRf.comp(t)),
                                       ex.mul(L2, c.QSRf.comp(t))),
                                ex.mul(c2, c.QSGf.comp(t)))) for t in tup],
                 [tuple(i + p for i in t) for t in tup])

        tup = list(iproduct(range(p), repeat=4))
        self.add("corollary_ii", "base",
                 [ex.sub(c.RTb.comp(t),
                         ex.add(ex.mul(L1, c.QgTb.comp(t)),
                                ex.mul(L2, c.QSTb.comp(t)))) for t in tup], tup)

    def result(self):
        out, witnesses = self.verdicts()
        out["witnesses"] = witnesses
        out["IV"] = out["IV_base_factor_zero"] or out["IV_fiber_factor_zero"]
        out["failed"] = [k for k in CONDITION_NAMES if not out[k]]
        out["all_hold"] = not out["failed"]
        return out


class Trichotomy:
    """Pointwise labels: T = L1 g, fiber-Einstein, base-flat, or none.

    The three defining sets can overlap; the label reports the first match
    in that order.  A "none" label flags a point where the union hypothesis
    fails on the sampled box.  A product point where any of the three is
    undefined is skipped.
    """

    def __init__(self, spec, L1):
        aux = auxiliaries(spec)
        bb, fb = bundle(spec.base), bundle(spec.fiber)
        p, q = spec.p, spec.q
        kq = ex.div(fb.kappa, ex.const(q))
        self._sets = {
            "T_matches": [ex.sub(aux.T.comps[a][b], ex.mul(L1, spec.base.metric[a][b]))
                          for a in range(p) for b in range(p)],
            "fiber_einstein": [ex.sub(fb.S.comps[al][be],
                                      ex.mul(kq, spec.fiber.metric[al][be]))
                               for al in range(q) for be in range(q)],
            "base_flat": [e for t in iproduct(range(p), repeat=4)
                          for e in [bb.R.comp(t)] if not is_literal_zero(e)],
        }
        self._records = []
        self.visitors = [("product", self)]

    def visit(self, pe):
        rec = {"point": pe.point}
        judged = pe.judged
        try:
            for key, comps in self._sets.items():
                rec[key] = all(judged(e) is fzero for e in comps)
        except DomainError:
            return
        if rec["T_matches"]:
            rec["label"] = LABEL_T
        elif rec["fiber_einstein"]:
            rec["label"] = LABEL_FIBER
        elif rec["base_flat"]:
            rec["label"] = LABEL_BASE
        else:
            rec["label"] = LABEL_NONE
        self._records.append(rec)

    def result(self):
        records = self._records
        labels = sorted({r["label"] for r in records})
        return {
            "records": records,
            "labels": labels,
            "all_covered": bool(records) and LABEL_NONE not in labels,
        }


class Dichotomy(Defects):
    """Which branch holds when L2 is nowhere zero: flat base or Einstein fiber.

    The check itself visits the base points to judge L2; `result()` raises
    ValueError at the first where L2 vanishes, or when L2 was nowhere
    evaluable.  If the caller claims the five conditions hold, at least one
    branch must come out true; otherwise a consistency violation is raised
    rather than returned.
    """

    def __init__(self, spec, L2):
        super().__init__()
        self._L2, self._coords = L2, spec.base.coords
        self._l2_zero = []      # (point, whether L2 is zero) at valid points
        self.visitors.append(("base", self))
        self.add("base_flat", "base", [bundle(spec.base).R.comp(t)
                                       for t in iproduct(range(spec.p), repeat=4)])
        self.add("fiber_einstein", "fiber", einstein_defects(bundle(spec.fiber)))

    def visit(self, pe):
        try:
            self._l2_zero.append((pe.point, pe.judged(self._L2) is fzero))
        except DomainError:
            pass

    def result(self, conditions_hold=False):
        for pt, zero in self._l2_zero:
            if zero:
                raise ValueError("L2 vanishes on the sampling box at "
                                 + point_str(pt, self._coords))
        if not self._l2_zero:
            raise ValueError("L2 not evaluable on the sampling box")
        out, _ = self.verdicts()
        if conditions_hold and not (out["base_flat"] or out["fiber_einstein"]):
            raise ValueError(
                "consistency violation: conditions claimed to hold but the base "
                "is not flat and the fiber is not Einstein on the sampled box")
        return out


def verify_conditions(spec, L1, L2, trials=8, seed=DEFAULT_SEED):
    """`Conditions` at (trials, seed); L1 and L2 may also be strings."""
    check = Conditions(spec, _base_scalar(spec, L1, "L1"),
                       _base_scalar(spec, L2, "L2"))
    sweep_charts(spec, check.visitors, trials, seed)
    return check.result()


def trichotomy_report(spec, L1, trials=8, seed=DEFAULT_SEED):
    """`Trichotomy` at (trials, seed); L1 may also be a string."""
    check = Trichotomy(spec, _base_scalar(spec, L1, "L1"))
    sweep_charts(spec, check.visitors, trials, seed)
    return check.result()


def dichotomy_check(spec, L2, conditions_hold=False, trials=8, seed=DEFAULT_SEED):
    """`Dichotomy` at (trials, seed); L2 may also be a string.  The same
    check serves the constant-L2 specializations (L2 = 1 and L2 = 1/(n-2))."""
    check = Dichotomy(spec, _base_scalar(spec, L2, "L2"))
    sweep_charts(spec, check.visitors, trials, seed)
    return check.result(conditions_hold)

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
pair and symmetric under exchanging the first two pairs.  Their block
formulas (`_entry6`) are therefore evaluated once each, by `block_actions`,
at one index tuple per orbit of those symmetries (`tensor.orbit_reps`); the
other components follow by sign.  Conditions (I)-(III) read these assembled
entries, judged at one tuple per orbit wherever a block keeps the
symmetries.  The curvature tensor's blocks (`_entry4`) are likewise stored
per rank-4 orbit, and the base and fiber six-index actions the blocks read
at their orbit representatives.

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
from .expr import DEFAULT_SEED, DomainError, PointEval, fzero
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
                positive = pe.positive(self.f)
            except DomainError:
                continue
            valid += 1
            if not positive:
                raise ChartError(f"warping function must be positive on the box, got "
                                 f"{pe.value_str(self.f)} at "
                                 f"{point_str(pt, self.base.coords)}")
        if valid == 0:
            raise ChartError("warping function not evaluable on the sampling box")


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
            rows[p + i][p + j] = ex.product(spec.f, spec.fiber.metric[i][j])
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
    dfdf = [[ex.product(fa[a], fa[c]) for c in range(p)] for a in range(p)]
    T = [[ex.product(inv2f, ex.sum_products(lead=(H.comps[a][c],),
                                            negate=((inv2f, dfdf[a][c]),)))
          for c in range(p)] for a in range(p)]
    gi = metric_inverse(b).comps
    trT = ex.sum_products(pr for a in range(p) for pr in zip(gi[a], T[a]))
    Delta = ex.product(ex.div(ex.const(1), ex.mul(ex.const(4), ex.mul(f, f))),
                       ex.sum_products(pr for a in range(p) for pr in zip(gi[a], dfdf[a])))
    Omega = ex.neg(ex.product(f, ex.add(ex.product(ex.const(q - 1), Delta), trT)))
    Traised = [[ex.sum_products((gi[t][a], T[a][s]) for a in range(p))
                for s in range(p)] for t in range(p)]
    T2 = [[ex.sum_products((Traised[t][a], T[t][s]) for t in range(p))
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
    """Bundles plus every base/fiber tensor the block formulas use.

    `_entry6` and `_entry4` read it at product orbit representatives only.
    The six-index actions are read at base or fiber orbit representatives,
    so they are built there (`actions._orbit_table`); the four-index ones
    are dense.
    """

    def __init__(self, spec, aux):
        p, q = spec.p, spec.q
        bb = bundle(spec.base)
        fb = bundle(spec.fiber)
        self.bb, self.fb = bb, fb
        T = aux.T.comps
        cq = ex.const(q)
        self.Shat = [[ex.sum_products(((cq, T[a][c]),), lead=(bb.S.comps[a][c],))
                      for c in range(p)] for a in range(p)]
        self.Scheck = [[ex.sum_products(lead=(fb.S.comps[al][be],),
                                        negate=((aux.Omega, spec.fiber.metric[al][be]),))
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
        fD = ex.product(spec.f, aux.Delta)
        self.RfDG = _table(q, 4, lambda a, b, c, d: ex.sum_products(
            ((fD, self.Gf.comps[a][b][c][d]),), lead=(fb.R.comps[a][b][c][d],)))


@_cached
def _ctx(spec):
    return _Ctx(spec, auxiliaries(spec))


def _normalize6(t, p):
    """Group an orbit representative's index pairs by block.

    A representative has i < j in each pair, so a mixed pair already lists
    its base index first.  The first two pairs are exchanged, freely, when
    the first holds more fiber indices.  Returns (signature, pairs) where
    the signature counts fiber indices per pair and each pair is
    (count, i, j).
    """
    norm = [((i >= p) + (j >= p), i, j) for i, j in (t[0:2], t[2:4], t[4:6])]
    if norm[0][0] > norm[1][0]:
        norm[0], norm[1] = norm[1], norm[0]
    return tuple(pr[0] for pr in norm), norm


def _entry6(spec, aux, c, t):
    """The components of the block-assembled (R.R, Q(g,R), Q(S,R)) at an
    orbit representative t; `block_actions` is the only caller."""
    p, f = spec.p, spec.f
    sig, norm = _normalize6(t, p)
    gt = spec.fiber.metric
    gb = spec.base.metric
    T = aux.T.comps

    def fi(i):
        return i - p

    if sig == (0, 0, 0):
        return tuple(src.reps[t] for src in (c.RRb, c.QgRb, c.QSRhat))

    if sig == (1, 1, 0):
        a, al = norm[0][1], fi(norm[0][2])
        b, be = norm[1][1], fi(norm[1][2])
        s, u = norm[2][1], norm[2][2]
        return tuple(ex.neg(ex.product(f, gt[al][be], src.comp((a, b, s, u))))
                     for src in (c.RTb, c.QgTb, c.QSTb))

    if sig == (0, 1, 1):
        a, b = norm[0][1], norm[0][2]
        d, al = norm[1][1], fi(norm[1][2])
        s, et = norm[2][1], fi(norm[2][2])
        R = c.bb.R.comps[a][b][d]
        g = gt[al][et]
        rr = qg = qs = ex.ZERO
        if g is not ex.ZERO:
            acc = ex.ZERO
            for tt in range(p):
                if aux.Traised[tt][s] is not ex.ZERO and R[tt] is not ex.ZERO:
                    acc = ex.add(acc, ex.mul(aux.Traised[tt][s], R[tt]))
            rr = ex.sub(ex.sum_products(((T[a][s], T[b][d]),),
                                        negate=((T[a][d], T[b][s]),)), acc)
            qg = ex.sub(ex.sum_products(((gb[a][s], T[b][d]),),
                                        negate=((gb[b][s], T[a][d]),)), R[s])
            qs = ex.sum_products(((c.Shat[a][s], T[b][d]),),
                                 negate=((c.Shat[b][s], T[a][d]),))
        return (ex.product(f, g, rr), ex.product(f, g, qg),
                ex.sum_products(lead=(ex.product(f, g, qs),),
                                negate=((R[s], c.Scheck[al][et]),)))

    if sig == (1, 2, 1):
        a, al = norm[0][1], fi(norm[0][2])
        be, ga = fi(norm[1][1]), fi(norm[1][2])
        s, et = norm[2][1], fi(norm[2][2])
        G = c.Gf.comps[et][al][be][ga]
        RfDG = c.RfDG[et][al][be][ga]
        rr = ex.sub(ex.product(f, T[a][s], RfDG),
                    ex.product(f, f, aux.T2.comps[a][s], G))
        coef = ex.sub(ex.product(aux.Delta, gb[a][s]), T[a][s])
        qg = ex.add(ex.product(f, gb[a][s], c.fb.R.comps[et][al][be][ga]),
                    ex.product(f, f, coef, G))
        core = ex.sum_products(((gt[al][ga], c.Scheck[be][et]),),
                               negate=((gt[al][be], c.Scheck[ga][et]),))
        qs = ex.add(ex.product(f, c.Shat[a][s], RfDG), ex.product(f, T[a][s], core))
        return rr, qg, qs

    if sig == (1, 1, 2):
        a, al = norm[0][1], fi(norm[0][2])
        b, be = norm[1][1], fi(norm[1][2])
        mu, et = fi(norm[2][1]), fi(norm[2][2])
        return ex.ZERO, ex.ZERO, ex.product(f, T[a][b], c.QgSf.comp((al, be, mu, et)))

    if sig == (2, 2, 2):
        idx = tuple(x - p for x in t)
        qg = c.QgRf.reps[idx]
        inner = ex.add(ex.sum_products(lead=(c.QSRf.reps[idx],), negate=((aux.Omega, qg),)),
                       ex.product(f, aux.Delta, c.QSGf.reps[idx]))
        return (ex.add(ex.product(f, c.RRf.reps[idx]), ex.product(f, f, aux.Delta, qg)),
                ex.product(f, f, qg),
                ex.product(f, inner))

    return ex.ZERO, ex.ZERO, ex.ZERO


def _entry4(spec, aux, c, t):
    """The component of the block-assembled curvature tensor at a rank-4
    orbit representative t, whose mixed pairs list the base index first."""
    p, f = spec.p, spec.f
    i, j, k, l = t
    m = [x >= p for x in t]
    if not any(m):
        return c.bb.R.comps[i][j][k][l]
    if all(m):
        a, b, d, e = (x - p for x in t)
        return ex.product(f, c.RfDG[a][b][d][e])
    if m[0] != m[1] and m[2] != m[3]:
        return ex.neg(ex.product(f, aux.T.comps[i][k], spec.fiber.metric[j - p][l - p]))
    return ex.ZERO


@_cached
def block_curvature(spec):
    """Assembled curvature tensor, Ricci tensor, and scalar from the blocks."""
    aux = auxiliaries(spec)
    c = _ctx(spec)
    prod = assemble_product(spec)
    p, q, n = spec.p, spec.q, spec.n
    R = {t: _entry4(spec, aux, c, t) for t in orbit_reps(n, 4)}

    def ricci(i, j):
        if i < p and j < p:
            return c.Shat[i][j]
        if i >= p and j >= p:
            return c.Scheck[i - p][j - p]
        return ex.const(0)

    kappa = ex.add(c.bb.kappa, ex.div(c.fb.kappa, spec.f),
                   ex.product(ex.const(q),
                              ex.sum_products(((ex.const(q - 1), aux.Delta),
                                               (ex.const(2), aux.trT)))))
    return {
        "R": _orbit_field(prod, (0, 4), R),
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
        acts = block_actions(spec)
        rr, qg, qs = acts["RR"], acts["QgR"], acts["QSR"]
        p, q, f = spec.p, spec.q, spec.f

        def combo(t):
            # each pair of every (I)-(III) tuple increases, so the sign is +1
            # and the orbit representative only orders the first two pairs
            r = t if t[:2] <= t[2:4] else (*t[2:4], *t[:2], *t[4:])
            return ex.sub(rr.reps[r],
                          ex.sum_products(((L1, qg.reps[r]), (L2, qs.reps[r]))))

        # (I)-(III) read the assembled block entries.  Each list is in the
        # order of the dense loop over its block, keeping one tuple per orbit
        # of the index symmetries the block shares; the first failing tuple,
        # hence the witness, is the dense loop's.
        tup = list(orbit_reps(p, 6))
        self.add("I", "base", [combo(t) for t in tup], tup)

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
                 [ex.product(L2, aux.T.comps[a][b]) for a in range(p) for b in range(p)])
        self.add("IV_fiber_factor_zero", "fiber",
                 [c.QgSf.comp(t) for t in iproduct(range(q), repeat=4)])

        c1 = ex.sum_products(((f, ex.sub(L1, aux.Delta)),), negate=((L2, aux.Omega),))
        c2 = ex.product(L2, f, aux.Delta)

        def fiber_rhs(t):
            """(c1 Q(g,R_F) + L2 Q(S_F,R_F)) + c2 Q(S_F,G_F), summed in that nesting."""
            inner = ex.sum_products(((c1, c.QgRf.reps[t]), (L2, c.QSRf.reps[t])))
            return ex.sum_products(((c2, c.QSGf.reps[t]),), lead=(inner,))

        tup = list(orbit_reps(q, 6))
        # witness indices are reported in product labels, hence the +p shift
        self.add("V", "product", [ex.sub(c.RRf.reps[t], fiber_rhs(t)) for t in tup],
                 [tuple(i + p for i in t) for t in tup])

        tup = list(iproduct(range(p), repeat=4))
        self.add("corollary_ii", "base",
                 [ex.sub(c.RTb.comp(t), ex.sum_products(((L1, c.QgTb.comp(t)),
                                                         (L2, c.QSTb.comp(t)))))
                  for t in tup], tup)

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
            "T_matches": [ex.sum_products(lead=(aux.T.comps[a][b],),
                                          negate=((L1, spec.base.metric[a][b]),))
                          for a in range(p) for b in range(p)],
            "fiber_einstein": [ex.sum_products(lead=(fb.S.comps[al][be],),
                                               negate=((kq, spec.fiber.metric[al][be]),))
                               for al in range(q) for be in range(q)],
            "base_flat": [e for t in iproduct(range(p), repeat=4)
                          for e in [bb.R.comp(t)] if e is not ex.ZERO],
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

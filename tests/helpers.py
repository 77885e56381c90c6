"""Shared test utilities: random expression trees and symmetry-orbit tables."""

import importlib.util
import random
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import mpmath

from warpcurv import expr as ex


def random_expr(rng, coords, depth=3):
    """A random expression that is domain-safe on positive boxes.

    log is only applied to 2 + (...)^2 and denominators are 1 + (...)^2,
    so any point with positive rational coordinates evaluates cleanly.
    """
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return ex.Coord(rng.choice(coords))
        return ex.const(Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
    op = rng.choice(["add", "mul", "pow", "neg", "div", "exp", "log", "sin", "cos"])
    a = random_expr(rng, coords, depth - 1)
    if op == "add":
        return ex.add(a, random_expr(rng, coords, depth - 1))
    if op == "mul":
        return ex.mul(a, random_expr(rng, coords, depth - 1))
    if op == "pow":
        return ex.pow_(a, rng.randint(1, 3))
    if op == "neg":
        return ex.neg(a)
    if op == "div":
        den = ex.add(ex.const(1), ex.pow_(random_expr(rng, coords, depth - 1), 2))
        return ex.div(a, den)
    if op == "exp":
        # keep magnitudes sane for finite differencing
        return ex.exp_(ex.div(a, ex.const(4)))
    if op == "log":
        return ex.log_(ex.add(ex.const(2), ex.pow_(a, 2)))
    if op == "sin":
        return ex.sin_(a)
    return ex.cos_(a)


def rational_points(rng, coords, k, lo=Fraction(1, 3), hi=Fraction(2)):
    pts = []
    for _ in range(k):
        pts.append({c: lo + (hi - lo) * Fraction(rng.randint(0, 1024), 1024) for c in coords})
    return pts


# ---------------------------------------------------------------------------
# Plain recursive printer: the rendering rules of `expr.to_str` applied to
# the expanded tree, with no memo.  An oracle for the memoized renderer.

def _p_number(v):
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _p_factor(f, first):
    if isinstance(f, (ex.Add, ex.Neg)):
        paren = True
    elif isinstance(f, ex.Const):
        paren = f.value < 0 or (f.value.denominator != 1 and not first)
    else:
        paren = isinstance(f, ex.Div) and not first
    return "(" + plain_to_str(f) + ")" if paren else _p_atom(f)


def _p_atom(e):
    if isinstance(e, ex.Const):
        return _p_number(e.value)
    if isinstance(e, (ex.Coord, ex.Param)):
        return e.name
    if isinstance(e, ex._Func):
        return f"{e.fname}({plain_to_str(e.child)})"
    if isinstance(e, ex.Pow):
        b = e.base
        if isinstance(b, (ex.Add, ex.Mul, ex.Div, ex.Neg, ex.Pow)) or (
                isinstance(b, ex.Const) and (b.value < 0 or b.value.denominator != 1)):
            bs = "(" + plain_to_str(b) + ")"
        else:
            bs = _p_atom(b)
        k = e.exponent
        if k.denominator == 1 and k >= 0:
            return f"{bs}^{k.numerator}"
        return f"{bs}^({_p_number(k)})"
    if isinstance(e, ex.Mul):
        return "*".join(_p_factor(f, i == 0) for i, f in enumerate(e.factors))
    if isinstance(e, ex.Div):
        left, right = e.num, e.den
        if isinstance(left, (ex.Add, ex.Neg)) or (isinstance(left, ex.Const) and left.value < 0):
            ls = "(" + plain_to_str(left) + ")"
        else:
            ls = _p_atom(left)
        naked = isinstance(right, (ex.Coord, ex.Param, ex._Func, ex.Pow)) or (
            isinstance(right, ex.Const) and right.value >= 0 and right.value.denominator == 1)
        rs = _p_atom(right) if naked else "(" + plain_to_str(right) + ")"
        return f"{ls}/{rs}"
    raise TypeError(f"unexpected node in factor position: {type(e).__name__}")


def _p_negated(c):
    return "(" + plain_to_str(c) + ")" if isinstance(c, ex.Add) else _p_atom(c)


def _p_signed_term(t):
    if isinstance(t, ex.Neg):
        return "-" + _p_negated(t.child)
    if isinstance(t, ex.Const) and t.value < 0:
        return "-" + _p_number(-t.value)
    if isinstance(t, ex.Add):
        return "(" + plain_to_str(t) + ")"
    return _p_atom(t)


def plain_to_str(e):
    if not isinstance(e, ex.Add):
        return _p_signed_term(e)
    parts = [_p_signed_term(e.terms[0])]
    for t in e.terms[1:]:
        if isinstance(t, ex.Neg):
            parts.append(" - " + _p_negated(t.child))
        elif isinstance(t, ex.Const) and t.value < 0:
            parts.append(" - " + _p_number(-t.value))
        else:
            parts.append(" + " + _p_signed_term(t))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Evaluator on mpf objects: the rules of `expr.PointEval` computed with mpf
# operators and context functions instead of raw libmp tuples.  An oracle for
# the tuple kernel; its values and magnitudes must match bit for bit.

class MpfPointEval:
    def __init__(self, env, dps=ex.DPS):
        self.env = {k: Fraction(v) if isinstance(v, int) else v for k, v in env.items()}
        self._ctx = ex._context(dps)
        self._memo = {}
        self._tol = self._ctx.mpf(ex._ZERO_TOL)

    def _mpf(self, v):
        return ex._as_mpf(self._ctx, v)

    def eval_scaled(self, e):
        return self._walk(e)

    def judge(self, e):
        v, m = self.eval_scaled(e)
        v = self._mpf(v)
        return v if abs(v) > self._tol * (1 + m) else self._ctx.zero

    def _mag(self, v):
        return abs(self._mpf(v))

    def _add(self, a, b):
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a + b
        return self._mpf(a) + self._mpf(b)

    def _mul(self, a, b):
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a * b
        return self._mpf(a) * self._mpf(b)

    def _div(self, a, b):
        if b == 0:
            raise ex.DomainError("division by zero")
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a / b
        return self._mpf(a) / self._mpf(b)

    def _pow(self, b, e):
        if b == 0 and e < 0:
            raise ex.DomainError("zero base with negative exponent")
        if e.denominator == 1:
            k = int(e)
            return b ** k if isinstance(b, Fraction) else self._mpf(b) ** k
        if b < 0:
            raise ex.DomainError("negative base with fractional exponent")
        if b == 0 and isinstance(b, Fraction):
            return Fraction(0)
        return self._ctx.power(self._mpf(b), self._mpf(e))

    def _walk(self, e):
        hit = self._memo.get(e)
        if hit is not None:
            return hit
        if isinstance(e, ex.Const):
            v = e.value
            out = (v, self._mag(v))
        elif isinstance(e, (ex.Coord, ex.Param)):
            try:
                v = self.env[e.name]
            except KeyError:
                raise ex.EvalError(f"unbound variable {e.name!r}") from None
            out = (v, self._mag(v))
        elif isinstance(e, (ex.Add, ex.Mul)):
            is_add = isinstance(e, ex.Add)
            v = Fraction(0 if is_add else 1)
            m = self._ctx.zero
            for t in e.terms if is_add else e.factors:
                tv, tm = self._walk(t)
                v = self._add(v, tv) if is_add else self._mul(v, tv)
                if tm > m:
                    m = tm
            mg = self._mag(v)
            out = (v, m if m > mg else mg)
        elif isinstance(e, ex.Neg):
            cv, cm = self._walk(e.child)
            out = (-cv, cm)
        elif isinstance(e, ex.Div):
            nv, nm = self._walk(e.num)
            dv, dm = self._walk(e.den)
            v = self._div(nv, dv)
            out = (v, max(nm, dm, self._mag(v)))
        elif isinstance(e, ex.Pow):
            bv, bm = self._walk(e.base)
            v = self._pow(bv, e.exponent)
            out = (v, max(bm, self._mag(v)))
        elif isinstance(e, ex._Func):
            cv, cm = self._walk(e.child)
            if isinstance(e, ex.Log) and cv <= 0:
                raise ex.DomainError("log of non-positive value")
            if isinstance(e, ex.Exp) and abs(cv) > ex.MAX_EXP_ARG:
                raise ex.DomainError("exp argument too large")
            v = getattr(self._ctx, e.fname)(self._mpf(cv))
            out = (v, max(cm, abs(v)))
        else:
            raise TypeError(f"cannot evaluate {e!r}")
        self._memo[e] = out
        return out


# ---------------------------------------------------------------------------
# The dense kernels on mpf objects: chart validation's determinant and the
# (L1, L2) fit as first written, with mpf operators and `MP.sqrt`.  Oracles
# for `expr.numeric_det` and `expr.ls2`, which compute on libmp tuples and
# must match these bit for bit.

def numeric_det_mpf(mat):
    """LU determinant with partial pivoting; returns (det, max intermediate)."""
    MP = ex.MP
    n = len(mat)
    a = [row[:] for row in mat]
    det = MP.one
    scale = max((abs(x) for row in a for x in row), default=MP.zero)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return MP.zero, scale
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c2 in range(col, n):
                a[r][c2] -= f * a[col][c2]
                if abs(a[r][c2]) > scale:
                    scale = abs(a[r][c2])
    if abs(det) > scale:
        scale = abs(det)
    return det, scale


def ls2_mpf(w, q1, q2, r):
    """Least-squares (L1, L2) minimizing |r - L1 q1 - L2 q2| at one point,
    where |v|^2 = sum_k w[k] v[k]^2, on mpfs of MP."""
    MP, REL_TOL = ex.MP, ex.REL_TOL

    def dot(a, c):
        return sum(k * x * y for k, x, y in zip(w, a, c))

    n1, n2, nr = (MP.sqrt(dot(v, v)) for v in (q1, q2, r))
    scale = max(n1, n2, nr)
    zero = MP.zero
    col1 = n1 > REL_TOL * scale
    col2 = n2 > REL_TOL * scale
    d12 = dot(q1, q2)
    gram = n1 * n1 * n2 * n2 - d12 * d12
    if not col1 and not col2:
        L1 = L2 = zero
        null = [(1, 0), (0, 1)]
        rank = 0
    elif (not col1) or (not col2) or MP.sqrt(max(gram, zero)) <= REL_TOL * n1 * n2:
        if not col1:
            L1, L2 = zero, dot(q2, r) / (n2 * n2)
            null = [(MP.one, zero)]
        elif not col2:
            L1, L2 = dot(q1, r) / (n1 * n1), zero
            null = [(zero, MP.one)]
        else:
            rho = d12 / (n1 * n1)
            L1 = dot(q1, r) / (n1 * n1) / (1 + rho * rho)
            L2 = rho * L1
            null = [(-rho, MP.one)]
        rank = 1
    else:
        d1, d2 = dot(q1, r), dot(q2, r)
        L1 = (d1 * n2 * n2 - d2 * d12) / gram
        L2 = (n1 * n1 * d2 - d12 * d1) / gram
        null = []
        rank = 2
    e = [rv - L1 * a - L2 * c for a, c, rv in zip(q1, q2, r)]
    res = MP.sqrt(dot(e, e))
    tol = ex.zero_threshold(scale)
    return {"L1": zero if abs(L1) * n1 < tol else L1,
            "L2": zero if abs(L2) * n2 < tol else L2,
            "residual": zero if res <= tol else res, "rank": rank,
            "nullspace": null, "data_scale": scale}


def record_mpfs(rec):
    """A fit record of `expr.ls2`, whose numbers are libmp tuples, with each
    tuple made an mpf of MP, as `ls2_mpf` gives them (a rank-0 nullspace
    keeps its ints)."""
    make = ex.MP.make_mpf
    out = dict(rec)
    for key in ("L1", "L2", "residual", "data_scale"):
        out[key] = make(rec[key])
    out["nullspace"] = [tuple(v if type(v) is int else make(v) for v in vec)
                        for vec in rec["nullspace"]]
    return out


def sample_box_points_fractions(coords, box, k, seed, params=None):
    """`expr.sample_box_points` as first written, with Fraction arithmetic
    on every value: lo + (hi - lo) * Fraction(r, 1024).  An oracle for the
    version that computes over the common denominator in ints."""
    box = box or {}
    rng = random.Random(seed)
    pts = []
    for _ in range(k):
        env = {}
        for c in coords:
            lo, hi = box.get(c, ex.DEFAULT_BOX)
            lo = Fraction(lo)
            hi = Fraction(hi)
            env[c] = lo + (hi - lo) * Fraction(rng.randint(0, 1024), 1024)
        if params:
            env.update({k2: Fraction(v) for k2, v in params.items()})
        pts.append(env)
    return pts


def deszcz_ratio_loop(b, point, pi1, pi2):
    """`actions.deszcz_ratio` as first written: every one of the n^6 index
    tuples visited, its plane weight multiplied out per contraction.  An
    oracle for the version that lists the nonzero-weight tuples once; both
    sum the same terms in the same order, so their numbers are equal bits."""
    from warpcurv.actions import cached_derivation, cached_tachibana

    MP, n = ex.MP, b.chart.n
    v, w = ([Fraction(t) for t in vec] for vec in pi1)
    x, y = ([Fraction(t) for t in vec] for vec in pi2)
    rr = cached_derivation(b, "R", "R")
    qgr = cached_tachibana(b, "g", "R")
    pe = ex.PointEval(point)
    weights = (v, w, v, w, x, y)

    def contract(field):
        total = scale = MP.zero
        for idx in iproduct(*(range(n),) * 6):
            wt = Fraction(1)
            for slot, i in enumerate(idx):
                wt *= weights[slot][i]
                if wt == 0:
                    break
            if wt == 0:
                continue
            e = field.comp(idx)
            if ex.is_literal_zero(e):
                continue
            val, sub = pe.eval_scaled(e)
            wtm = ex.to_mpf(wt)
            term = ex.to_mpf(val) * wtm
            total += term
            for s in (abs(term), sub * abs(wtm)):
                if s > scale:
                    scale = s
        return total, scale

    num, s1 = contract(rr)
    den, s2 = contract(qgr)
    if abs(den) <= ex.zero_threshold(max(s1, s2)):
        return {"defined": False, "ratio": None,
                "numerator": num, "denominator": den}
    return {"defined": True, "ratio": num / den,
            "numerator": num, "denominator": den}


# ---------------------------------------------------------------------------
# Smart constructors as first written: zero, one and sign decided by Fraction
# comparisons and constants folded by Fraction arithmetic.  An oracle for
# `expr.add`, `mul`, `neg`, `div` and `pow_`, which decide them by identity
# and by integers; on the same operands both must return the same node.

class SeedConstructors:
    @classmethod
    def add(cls, *terms):
        flat = []
        for t in terms:
            if isinstance(t, ex.Add):
                flat.extend(t.terms)
            else:
                flat.append(t)
        out = []
        const_pos = None
        acc = Fraction(0)
        for t in flat:
            if isinstance(t, ex.Const):
                if t is ex.ZERO and const_pos is not None:
                    continue
                acc += t.value
                if const_pos is None:
                    const_pos = len(out)
                    out.append(None)  # placeholder
            else:
                out.append(t)
        if const_pos is not None:
            if acc == 0 and len(out) > 1:
                out.pop(const_pos)
            else:
                out[const_pos] = ex.Const(acc)
        if not out:
            return ex.ZERO
        if len(out) == 1:
            return out[0]
        return ex.Add(out)

    @classmethod
    def mul(cls, *factors):
        coeff = 1
        rest = []
        for f in factors:
            for g in f.factors if isinstance(f, ex.Mul) else (f,):
                if isinstance(g, ex.Const):
                    if g is ex.ZERO:
                        return ex.ZERO
                    coeff *= g.value
                else:
                    rest.append(g)
        sign = 1
        if coeff < 0:
            sign = -1
            coeff = -coeff
        if not rest:
            core = ex.Const(coeff)
        else:
            items = rest if coeff == 1 else [ex.Const(coeff)] + rest
            core = items[0] if len(items) == 1 else ex.Mul(items)
        return cls.neg(core) if sign < 0 else core

    @classmethod
    def neg(cls, x):
        if isinstance(x, ex.Const):
            return ex.Const(-x.value)
        if isinstance(x, ex.Neg):
            return x.child
        return ex.Neg(x)

    @classmethod
    def div(cls, a, b):
        if isinstance(b, ex.Const):
            if b.value == 0:
                raise ex.DomainError("division by literal zero")
            if isinstance(a, ex.Const):
                return ex.Const(a.value / b.value)
            if b.value < 0:
                return cls.neg(cls.div(a, ex.Const(-b.value)))
            if b.value == 1:
                return a
        if a is ex.ZERO:
            return ex.ZERO
        if isinstance(a, ex.Const) and a.value < 0:
            return cls.neg(cls.div(ex.Const(-a.value), b))
        if isinstance(a, ex.Neg):
            return cls.neg(cls.div(a.child, b))
        if isinstance(b, ex.Neg):
            return cls.neg(cls.div(a, b.child))
        return ex.Div(a, b)

    @classmethod
    def pow_(cls, base, exponent):
        e = Fraction(exponent)
        if e == 1:
            return base
        if e == 0:
            return ex.ONE
        if isinstance(base, ex.Const):
            v = base.value
            if e.denominator == 1:
                if v == 0 and e < 0:
                    raise ex.DomainError("zero base with negative exponent")
                return ex.Const(v ** int(e))
            if v == 0:
                if e > 0:
                    return ex.ZERO
                raise ex.DomainError("zero base with negative exponent")
            if v == 1:
                return ex.ONE
        if isinstance(base, ex.Pow) and e.denominator == 1:
            return cls.pow_(base.base, base.exponent * e)
        return ex.Pow(base, e)


# ---------------------------------------------------------------------------
# Node counter: distinct objects against distinct structures, computed from
# the fields alone, so it does not rely on how nodes compare.

def count_nodes(roots):
    """(distinct by identity, distinct by structure) nodes reachable from roots."""
    cls = {}          # id(node) -> structural class; roots keep nodes alive
    classes = {}
    for root in roots:
        todo = [(root, False)]
        while todo:
            node, ready = todo.pop()
            if id(node) in cls:
                continue
            kids = ex._children(node)
            if not ready:
                todo.append((node, True))
                todo.extend((k, False) for k in kids)
                continue
            label = [getattr(node, f) for f in ("value", "name", "exponent")
                     if hasattr(node, f)]
            key = (type(node).__name__, *label, *(cls[id(k)] for k in kids))
            cls[id(node)] = classes.setdefault(key, len(classes))
    return len(cls), len(classes)


# ---------------------------------------------------------------------------
# Reference charts used across the test modules.  These mirror the bundled
# fixture manifests; tests build them directly to stay independent of the CLI.

def chart_parse(chart):
    pnames = tuple(chart.params)
    return lambda s: ex.parse(s, coords=chart.coords, params=pnames)


def flat_chart(n):
    from warpcurv.tensor import Chart
    coords = tuple(f"x{i + 1}" for i in range(n))
    return Chart(coords, [[1 if i == j else 0 for j in range(n)] for i in range(n)])


def banded_chart(n):
    """n-chart with g_ii = i + 2 + x_i^2 and g_i,i+1 = x_i x_(i+1) / 7."""
    from warpcurv.tensor import Chart
    coords = tuple(f"x{i + 1}" for i in range(n))

    def entry(i, j):
        if i == j:
            return f"{i + 3} + x{i + 1}^2"
        if abs(i - j) == 1:
            return f"x{i + 1}*x{j + 1}/7"
        return "0"
    return Chart(coords, [[entry(i, j) for j in range(n)] for i in range(n)])


def polar_chart():
    from warpcurv.tensor import Chart
    return Chart(("r", "th"), [["1", "0"], ["0", "r^2"]])


def sphere3_chart():
    """Round unit 3-sphere patch; the sampling box keeps both angles in (0, pi)."""
    from warpcurv.tensor import Chart
    return Chart(
        ("t1", "t2", "t3"),
        [["1", "0", "0"],
         ["0", "sin(t1)^2", "0"],
         ["0", "0", "sin(t1)^2*sin(t2)^2"]])


def ex2_chart():
    """Conformally flat 4-chart: g = (1 + 2 e^{x1}) * identity."""
    from warpcurv.tensor import Chart
    phi = "1 + 2*exp(x1)"
    return Chart(("x1", "x2", "x3", "x4"),
                 [[phi if i == j else "0" for j in range(4)] for i in range(4)])


def ex1_base_chart(a=1):
    """One-dimensional base segment with metric (1 + a(1+x1)^2)^(-1) dx1^2."""
    from warpcurv.tensor import Chart
    return Chart(("x1",), [["1/(1 + a*(1 + x1)^2)"]], params={"a": a})


def ex1_fiber_chart():
    """Lorentzian 4-fiber with a null direction; E abbreviates e^{2 x1}."""
    from warpcurv.tensor import Chart
    e2 = "exp(2*x1)"
    return Chart(
        ("x1", "x2", "x3", "x4"),
        [["-1", "0", "0", "0"],
         ["0", f"{e2}*x4^2", e2, "0"],
         ["0", e2, "0", "0"],
         ["0", "0", "0", e2]])


def ex2_base_chart():
    """One-dimensional base whose metric coefficient doubles as the warp."""
    from warpcurv.tensor import Chart
    return Chart(("x1",), [["1 + 2*exp(x1)"]])


def sphere2_chart():
    """Round unit 2-sphere patch."""
    from warpcurv.tensor import Chart
    return Chart(("t1", "t2"), [["1", "0"], ["0", "sin(t1)^2"]])


def aniso3_chart():
    """Curved 3-chart with two distinct exponential factors; not Einstein."""
    from warpcurv.tensor import Chart
    return Chart(("x1", "x2", "x3"),
                 [["1", "0", "0"],
                  ["0", "exp(2*x1)", "0"],
                  ["0", "0", "exp(4*x1)"]])


def hyper2_chart():
    """Hyperbolic 2-chart: dx1^2 + e^{2 x1} dx2^2."""
    from warpcurv.tensor import Chart
    return Chart(("x1", "x2"), [["1", "0"], ["0", "exp(2*x1)"]])


def ex1_warped_chart(a=1):
    """Direct 5-chart for the segment-times-fiber warped product, f = (1+x1)^2."""
    from warpcurv.tensor import Chart
    F = "(1 + x1)^2"
    E = "exp(2*x2)"
    rows = [["0"] * 5 for _ in range(5)]
    rows[0][0] = "1/(1 + a*(1 + x1)^2)"
    rows[1][1] = f"-{F}"
    rows[2][2] = f"{F}*{E}*x5^2"
    rows[2][3] = rows[3][2] = f"{F}*{E}"
    rows[4][4] = f"{F}*{E}"
    return Chart(("x1", "x2", "x3", "x4", "x5"), rows, params={"a": a})


# ---------------------------------------------------------------------------
# Finite-difference reconstruction of the connection and curvature directly
# from metric samples.  Used as an independent numerical oracle against the
# symbolic pipeline.  Step sizes are Fractions so shifted points stay exact.

def to_mpf(v):
    if isinstance(v, Fraction):
        return mpmath.mpf(v.numerator) / mpmath.mpf(v.denominator)
    return mpmath.mpf(v)


def _num_metric(chart, env, dps):
    pe = ex.PointEval(env, dps=dps)
    return [[to_mpf(pe.eval(entry)) for entry in row] for row in chart.metric]


def fd_christoffel(chart, env, h=Fraction(1, 10**15), dps=60):
    n = chart.n
    with mpmath.workdps(dps):
        hh = to_mpf(h)
        dg = []
        for c in chart.coords:
            up = dict(env)
            dn = dict(env)
            up[c] = env[c] + h
            dn[c] = env[c] - h
            gp = _num_metric(chart, up, dps)
            gm = _num_metric(chart, dn, dps)
            dg.append([[(gp[i][j] - gm[i][j]) / (2 * hh) for j in range(n)]
                       for i in range(n)])
        g0 = mpmath.matrix(_num_metric(chart, env, dps))
        gi = g0 ** -1
        gamma = [[[
            sum(gi[k, l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                for l in range(n)) / 2
            for j in range(n)] for i in range(n)] for k in range(n)]
    return gamma


def fd_riemann(chart, env, h=Fraction(1, 10**8), h_inner=Fraction(1, 10**15), dps=60):
    """Lowered curvature from nested finite differences of the metric alone."""
    n = chart.n
    with mpmath.workdps(dps):
        hh = to_mpf(h)
        dgam = []
        for c in chart.coords:
            up = dict(env)
            dn = dict(env)
            up[c] = env[c] + h
            dn[c] = env[c] - h
            gp = fd_christoffel(chart, up, h=h_inner, dps=dps)
            gm = fd_christoffel(chart, dn, h=h_inner, dps=dps)
            dgam.append([[[(gp[m][i][j] - gm[m][i][j]) / (2 * hh)
                          for j in range(n)] for i in range(n)] for m in range(n)])
        g0 = _num_metric(chart, env, dps)
        gam = fd_christoffel(chart, env, h=h_inner, dps=dps)
        R = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    up = [dgam[i][m][j][k] - dgam[j][m][i][k]
                          + sum(gam[e][j][k] * gam[m][i][e]
                                - gam[e][i][k] * gam[m][j][e] for e in range(n))
                          for m in range(n)]
                    for l in range(n):
                        # lowering orientation matches the engine convention
                        R[i][j][k][l] = -sum(g0[l][m] * up[m] for m in range(n))
    return R


# ---------------------------------------------------------------------------
# Symmetry-orbit closure for frozen component tables.
#
# Curvature-type (0,4) tensors: antisymmetric in (1,2) and (3,4), symmetric
# under pair exchange.  The (0,6) outputs of the derivation and Tachibana
# operators inherit those symmetries in their first four slots and are
# antisymmetric in the last pair.  Frozen tables list one generator per orbit;
# these helpers expand them to full dense arrays.

def _close(entries, gens):
    table = dict(entries)
    frontier = list(table)
    while frontier:
        nxt = []
        for idx in frontier:
            val_sign_base = table[idx]
            for gen in gens:
                jdx, sgn = gen(idx)
                v = (val_sign_base[0], val_sign_base[1] * sgn)
                if jdx not in table:
                    table[jdx] = v
                    nxt.append(jdx)
                else:
                    have = table[jdx]
                    if have[0] != v[0] or have[1] != v[1]:
                        raise AssertionError(f"orbit conflict at {jdx}")
        frontier = nxt
    return table


def _gens4():
    return [
        lambda t: ((t[1], t[0], t[2], t[3]), -1),
        lambda t: ((t[0], t[1], t[3], t[2]), -1),
        lambda t: ((t[2], t[3], t[0], t[1]), +1),
    ]


def _gens6():
    return [
        lambda t: ((t[1], t[0], t[2], t[3], t[4], t[5]), -1),
        lambda t: ((t[0], t[1], t[3], t[2], t[4], t[5]), -1),
        lambda t: ((t[2], t[3], t[0], t[1], t[4], t[5]), +1),
        lambda t: ((t[0], t[1], t[2], t[3], t[5], t[4]), -1),
    ]


def expected_array(n, rank, generators, parse_fn):
    """Dense expected array from {index-string: expression-string} generators.

    Index strings are 1-based digit strings, e.g. "122414".  Unlisted entries
    are zero.  Returns a nested list of Expr.
    """
    entries = {}
    for key, sval in generators.items():
        idx = tuple(int(ch) - 1 for ch in key)
        assert len(idx) == rank
        entries[idx] = (sval, +1)
    gens = _gens4() if rank == 4 else _gens6()
    table = _close(entries, gens)
    zero = parse_fn("0")

    def build(prefix):
        if len(prefix) == rank:
            hit = table.get(prefix)
            if hit is None:
                return zero
            e = parse_fn(hit[0])
            return e if hit[1] > 0 else ex.neg(e)
        return [build(prefix + (i,)) for i in range(n)]

    return build(())


# ---------------------------------------------------------------------------
# Dense base and fiber six-index actions, built with the dense builders over
# every index tuple: the tables `warped._Ctx` keeps at orbit representatives.

def dense_block_tables(spec):
    """{name: dense TensorField} for the rank-6 tables of the block formulas."""
    from warpcurv.actions import derivation_action, tachibana
    from warpcurv.curvature import bundle
    from warpcurv.tensor import TensorField, gaussian
    from warpcurv.warped import auxiliaries

    T = auxiliaries(spec).T.comps
    bb, fb = bundle(spec.base), bundle(spec.fiber)
    p = spec.p
    shat = TensorField(spec.base, (0, 2),
                       [[ex.add(bb.S.comps[a][c], ex.mul(ex.const(spec.q), T[a][c]))
                         for c in range(p)] for a in range(p)], sym="sym2")
    return {
        "RRb": derivation_action(bb.R, bb.R),
        "QgRb": tachibana(spec.base.metric_field(), bb.R),
        "QSRhat": tachibana(shat, bb.R),
        "RRf": derivation_action(fb.R, fb.R),
        "QgRf": tachibana(spec.fiber.metric_field(), fb.R),
        "QSRf": tachibana(fb.S, fb.R),
        "QSGf": tachibana(fb.S, gaussian(spec.fiber)),
    }


# ---------------------------------------------------------------------------
# Conditions (I)-(V) over every index tuple of each block, in the dense loop
# order: a reference for `warped.verify_conditions`, which keeps one tuple per
# symmetry orbit.  Verdicts, `failed` and witnesses must match it.

def dense_verify_conditions(spec, L1, L2, trials=8, seed=ex.DEFAULT_SEED):
    from warpcurv import warped as w

    L1 = w._base_scalar(spec, L1, "L1")
    L2 = w._base_scalar(spec, L2, "L2")
    aux = w.auxiliaries(spec)
    c = w._ctx(spec)
    d = dense_block_tables(spec)
    prod = w.assemble_product(spec)
    p, q, f = spec.p, spec.q, spec.f
    out = {"witnesses": {}}

    def combo(t):
        rr, qg, qs = w._entry6(spec, aux, c, t)
        return ex.sub(rr, ex.add(ex.mul(L1, qg), ex.mul(L2, qs)))

    def judge(name, chart, tuples, exprs):
        flags = chart.is_zero_many(exprs, trials=trials, seed=seed)
        out[name] = all(flags)
        if not out[name]:
            k = flags.index(False)
            out["witnesses"][name] = {
                "index": tuple(i + 1 for i in tuples[k]),
                "defect": exprs[k],
            }

    tup = list(iproduct(range(p), repeat=6))
    judge("I", spec.base, tup,
          [ex.sub(d["RRb"].comp(t), ex.add(ex.mul(L1, d["QgRb"].comp(t)),
                                           ex.mul(L2, d["QSRhat"].comp(t))))
           for t in tup])
    tup = [(a, b, d_, al + p, s, et + p)
           for a, b, d_, s in iproduct(range(p), repeat=4)
           for al, et in iproduct(range(q), repeat=2)]
    judge("II", prod, tup, [combo(t) for t in tup])
    tup = [(a, al + p, be + p, ga + p, s, et + p)
           for a, s in iproduct(range(p), repeat=2)
           for al, be, ga, et in iproduct(range(q), repeat=4)]
    judge("III", prod, tup, [combo(t) for t in tup])
    base_zero = all(spec.base.is_zero_many(
        [ex.mul(L2, aux.T.comps[a][b]) for a in range(p) for b in range(p)],
        trials=trials, seed=seed))
    fiber_zero = all(spec.fiber.is_zero_many(
        [c.QgSf.comp(t) for t in iproduct(range(q), repeat=4)],
        trials=trials, seed=seed))
    out["IV"] = base_zero or fiber_zero
    out["IV_base_factor_zero"] = base_zero
    out["IV_fiber_factor_zero"] = fiber_zero
    c1 = ex.sub(ex.mul(f, ex.sub(L1, aux.Delta)), ex.mul(L2, aux.Omega))
    c2 = ex.mul(L2, f, aux.Delta)
    tup = list(iproduct(range(q), repeat=6))
    judge("V", prod, [tuple(i + p for i in t) for t in tup],
          [ex.sub(d["RRf"].comp(t),
                  ex.add(ex.add(ex.mul(c1, d["QgRf"].comp(t)),
                                ex.mul(L2, d["QSRf"].comp(t))),
                         ex.mul(c2, d["QSGf"].comp(t)))) for t in tup])
    tup = list(iproduct(range(p), repeat=4))
    judge("corollary_ii", spec.base, tup,
          [ex.sub(c.RTb.comp(t), ex.add(ex.mul(L1, c.QgTb.comp(t)),
                                        ex.mul(L2, c.QSTb.comp(t))))
           for t in tup])
    out["failed"] = [k for k in w.CONDITION_NAMES if not out[k]]
    out["all_hold"] = not out["failed"]
    return out


# ---------------------------------------------------------------------------
# The 16 index symmetries of a (0,6) action of a curvature-type tensor: swap
# inside each of the three pairs (sign -1 each) and exchange the first two
# pairs (sign +1).

def index_symmetries6():
    """[(permutation of the six slots, sign)], identity included."""
    out = []
    for s1, s2, s3, x in iproduct((0, 1), repeat=4):
        pairs = [(1, 0) if s1 else (0, 1), (3, 2) if s2 else (2, 3),
                 (5, 4) if s3 else (4, 5)]
        if x:
            pairs[0], pairs[1] = pairs[1], pairs[0]
        out.append((tuple(i for pr in pairs for i in pr), (-1) ** (s1 + s2 + s3)))
    return out


def perfbench_module(name):
    """A module of the repository's perfbench directory, e.g. "swell"."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

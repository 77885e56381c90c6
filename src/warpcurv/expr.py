"""Scalar expression trees with exact differentiation and high-precision evaluation.

Grammar (infix, standard precedence, `^` binds tightest, no power chains):

    expr     := ['-'] term { ('+'|'-') term }
    term     := factor { ('*'|'/') factor }
    factor   := base ['^' exponent]
    base     := integer | ident | '(' expr ')' | func '(' expr ')'
    func     := 'exp' | 'log' | 'sin' | 'cos'
    exponent := ['-'] integer | '(' ['-'] integer ['/' integer] ')'

Identifiers must be declared coordinates or parameters.  Rational literals are
written with '/' and fold to exact constants.  Fractional exponents require
parentheses; an unparenthesized `x^1/2` is `(x^1)/2` by precedence.

Nodes are hash-consed: constructing a node equal to a live one returns that
node, so equal trees are one object and equality is identity.  The intern
table `_NODES` is a plain dict from a node's key to a `_Ref` of the node: a
`weakref.ref` subclass with one slot, `key`, built by the C constructor.
The key is the class and the fields, with a rational field entered as its
(numerator, denominator) ints, so a lookup hashes and compares only ints,
strings and node identities.  When a node dies its ref's callback removes
the entry, unless a rebuilt node holds the key by then.  The smart
constructors fold constants: they decide zero, one and sign by identity
(`is ZERO`, `is ONE`) or by the sign of a numerator, and do Fraction
arithmetic only when two constants fold into one.  Three common shapes skip
the folding loop and are interned at once: `mul` of two factors neither a
Mul nor a Const, `add` of two or more terms none an Add or a Const, and
`neg` of a node neither a Neg nor a Const.

Constants are exact rationals throughout.  Evaluation uses an exact rational
fast path when the tree is rational and otherwise raw libmp tuples at
DPS = 50 significant digits, so the ambient `mpmath.mp` precision changes
no value and no verdict.  Inside `PointEval` an exact value is a
(numerator, denominator) pair of ints in lowest terms and an inexact one a
libmp tuple, combined by a fixed-precision kernel on its ints (`_add`,
`_sub`, `_mul`, `_div`, all rounding through `_nearest`) that returns the
tuples of libmp's `round_nearest` arithmetic, which the mpf operators call,
bit for bit; a rational subtree is rounded only when its scale is read,
by the kernel's `_rational`.  The dense kernels
compute on tuples too (`numeric_det`, `ls2`, `residual`, `weighted_ratio`
and the dependence and constancy checks), and `num_str` prints a tuple as
`MP.nstr` prints its mpf.  This module is the only one that knows how
numbers are represented: a number becomes a tuple only in `_to_tuple`, a
tuple becomes an mpf only in `_as_mpf` (public at DPS as `to_tuple` and
`as_mpf`), and no other module does arithmetic on numbers or reads a
tuple's fields.  Every function that returns mpfs (`PointEval.eval` and
`eval_scaled`, `evaluate`, `to_mpf`, `parallel_ratio`, `zero_threshold`,
and elsewhere `deszcz_ratio`, `pair_residual` and `linear_dependence_check`)
computes on tuples and makes its mpfs at return.  The engine needs only
two modules of mpmath's `libmp` subpackage, `libmpf` and `libelefun` (with
the `backend` and `libintmath` they import), which it imports from the
private package `warpcurv._libmp` that `_load_libmp` makes of libmp's
directory, running neither `mpmath/__init__` nor libmp's; mpmath itself
is loaded by the first mpf made (`MP` and `REL_TOL` come from a module
`__getattr__`), which no command makes.

The zero test samples deterministic rational points from a box (default
[1/3, 2] per coordinate; the CLI draws at most MAX_POINTS per test) and
accepts `|value| <= 1e-30 * (1 + m)` where m is the largest intermediate
magnitude seen while evaluating.  A point where an exp argument exceeds
MAX_EXP_ARG in magnitude is undefined, like one outside the domain of log.
The magnitude of a tuple is the tuple with sign 0, and a normalized tuple
(0, man, exp, bc) lies in [2^(exp+bc-1), 2^(exp+bc)), so `mag_gt` orders
two magnitudes by exp + bc and only a tie compares the aligned mantissas,
with the answer `mpf_gt` gives; `largest` picks the largest with it.
Point evaluation keeps only m's binary order, the int exp + bc of the
largest magnitude, which is the largest exp + bc of the subtree's nonzero
values.  The zero test's verdict is decided on orders when powers of two
separate |value| from the bound, and by the mpf formula itself otherwise,
with m computed from the memo (`PointEval._magnitude`) only then.

`PointEval.judged` is the one place where a sampled value is judged zero:
every per-component verdict (the zero test, the identity catalog, the (L1,
L2) fit, the warped-product conditions) is built on it, and `ZeroTest`
folds its verdicts over the sample points.  Every check is a visitor like
it, and `sweep` feeds the visitors of one chart one shared evaluator per
sample point; an aggregate is judged by `negligible`.

Parsed text is capped at MAX_NESTING levels, counting both parentheses and
chained divisions.  A power whose exponent, after (x^a)^b is merged to
x^(ab), exceeds MAX_EXPONENT in magnitude raises `ExponentBudgetError`:
exact evaluation raises integer pairs to that power, and reducing them
costs about its square in time.  Nested powers still multiply, and so do
sums and products of powers, so an exact value n/d over MAX_EXACT_BITS bits
raises `ExactBudgetError` (an ExprError that is not a DomainError, so the
point is not skipped and the command fails as on malformed input), both
when the constructors fold constants and when `PointEval` computes a
rational value: a power (n/d)^k before it is taken, when max(bit_length(n),
bit_length(d)) * |k| exceeds the budget, and a sum, product or quotient as
soon as its numerator or denominator does, before the gcd that reduces it.

Printing: `to_pieces(e)` gives the text of `e` as a `Text`, a rope of str
and Text pieces, and `to_str(e)` joins it; the text parses back to an equal
tree.  The text grows with `e` expanded as a tree, which can be
exponentially larger than its DAG.  So one pass over the DAG first counts
each node's parents and the size of the expanded tree, and a tree of more
than MAX_PRINTED_NODES nodes raises `PrintBudgetError` before any piece is
made.  A node with several parents is then rendered once, and that one
piece object is placed at each of its uses: a joined str when its text is
shorter than _ROPE_BELOW characters, else a rope of its own runs of short
text, joined, and of the longer shared texts inside it, by reference.  So
each character is copied about once, and the text held and the pieces
number O(DAG), however long the text.  Ropes nest as deep as the DAG, so
`strs`, and every reader of a Text, flattens them with an explicit stack.
"""

from __future__ import annotations

import os
import random
import sys
from fractions import Fraction
from itertools import groupby, repeat
from importlib.machinery import ModuleSpec, PathFinder
from importlib.util import module_from_spec
from math import gcd
from weakref import ref as _weakref


def _load_libmp():
    """mpmath's `libmp` directory as the private package `warpcurv._libmp`,
    whose modules are then imported one by one.

    Only mpmath's directory is looked up, so `mpmath/__init__` (its
    contexts, functions, calculus, matrices, ...) does not run, and neither
    does libmp's own `__init__`, which would import `libmpc`, `libmpi`,
    `gammazeta` and `libhyper` too: the engine imports `libmpf` and
    `libelefun`, which pull in only `backend` and `libintmath`.  The private
    copy is used even when mpmath is loaded, so that `fzero` is one object
    whatever the import order, and mpmath's own `mpmath.libmp` is left
    alone.  Its tuples are plain ints, so they pass freely between the two
    copies.
    """
    name = "warpcurv._libmp"
    lib = sys.modules.get(name)
    if lib is None:
        found = PathFinder.find_spec("mpmath")
        if found is None or not found.submodule_search_locations:
            raise ImportError("warpcurv needs mpmath", name="mpmath")
        where = os.path.join(found.submodule_search_locations[0], "libmp")
        spec = ModuleSpec(name, None, is_package=True)
        spec.submodule_search_locations.append(where)
        lib = sys.modules[name] = module_from_spec(spec)
    return lib


_load_libmp()
from ._libmp.libelefun import (  # noqa: E402  (loaded just above)
    mpf_cos, mpf_exp, mpf_log, mpf_pow, mpf_sin)
from ._libmp.libmpf import (  # noqa: E402
    dps_to_prec, fone, from_int, from_str, fzero, mpf_abs, mpf_add, mpf_div,
    mpf_eq, mpf_gt, mpf_le, mpf_lt, mpf_mul, mpf_neg, mpf_pow_int, mpf_sqrt,
    round_nearest, to_str as _libmp_str)

sys.setrecursionlimit(max(sys.getrecursionlimit(), 100000))

DEFAULT_SEED = 0xC0FFEE
DEFAULT_BOX = (Fraction(1, 3), Fraction(2))
DPS = 50  # significant digits of every evaluation and verdict
_ZERO_TOL = "1e-30"
_GRID = 1024  # denominator of sampled rational offsets
MAX_NESTING = 1000  # nesting levels accepted by the parser
MAX_PRINTED_NODES = 2 ** 28  # tree nodes a printed expression may expand to
_ROPE_BELOW = 1 << 12  # characters; a longer shared text is a rope, see _Printer
MAX_EXP_ARG = 2 ** 32  # largest |argument| of exp at which a point is defined
MAX_POINTS = 10_000  # sample points a command may draw per zero test
MAX_EXPONENT = 1000  # largest |exponent| of a power node
MAX_EXACT_BITS = 2 ** 18  # largest bit size of an exact value, see _check_exact
_REL_TOL = "1e-20"  # relative tolerance of dependence and constancy
_CONTEXTS = {}
_PRECISIONS = {}  # dps -> (precision in bits, rounding, tuple of 1e-30)
_NODES = {}  # intern key -> _Ref of the live node; see Expr


def _precision(dps):
    """(prec, rounding, tuple of 1e-30) at `dps` digits, made once per `dps`:
    the `_prec_rounding` and `mpf(_ZERO_TOL)._mpf_` of `_context(dps)`,
    without building it."""
    p = _PRECISIONS.get(dps)
    if p is None:
        prec = dps_to_prec(dps)
        p = _PRECISIONS[dps] = (prec, round_nearest,
                                from_str(_ZERO_TOL, prec, round_nearest))
    return p


def _context(dps):
    """The mpmath context of `dps` significant digits, made once per `dps`.

    Only the functions that return mpfs call it, so mpmath itself is loaded
    on the first such call."""
    ctx = _CONTEXTS.get(dps)
    if ctx is None:
        import mpmath
        ctx = _CONTEXTS[dps] = mpmath.MPContext()
        ctx.dps = dps
    return ctx


def __getattr__(name):
    """`MP`, the mpmath context at DPS digits, and `REL_TOL`, its mpf of
    1e-20, made on first use.  Every mpf the public functions return is an
    mpf of MP: its arithmetic and its functions run at DPS digits whatever
    mpmath.mp is."""
    if name == "MP":
        value = _context(DPS)
    elif name == "REL_TOL":
        value = as_mpf(_REL)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset


class EvalError(ExprError):
    pass


class DomainError(ExprError):
    pass


class InconclusiveError(ExprError):
    pass


class PrintBudgetError(ExprError):
    """An expression whose text would exceed MAX_PRINTED_NODES tree nodes."""

    def __init__(self, size):
        super().__init__(f"printed form would have {size} tree nodes, over the "
                         f"budget of {MAX_PRINTED_NODES} (MAX_PRINTED_NODES)")
        self.size = size


class ExponentBudgetError(ExprError):
    """A power whose exponent exceeds MAX_EXPONENT in magnitude."""

    def __init__(self, exponent):
        super().__init__(f"exponent {exponent} is over the budget of "
                         f"{MAX_EXPONENT} (MAX_EXPONENT)")
        self.exponent = exponent


class ExactBudgetError(ExprError):
    """An exact value that would exceed MAX_EXACT_BITS bits."""

    def __init__(self, bits):
        super().__init__(f"exact value of about {bits} bits is over the budget "
                         f"of {MAX_EXACT_BITS} (MAX_EXACT_BITS)")
        self.bits = bits


def _check_exact(n, d, k):
    """Raise ExactBudgetError when (n/d)^k, about max(bit_length(n),
    bit_length(d)) * |k| bits, exceeds MAX_EXACT_BITS (k = 1: n/d itself)."""
    bits = max(n.bit_length(), d.bit_length()) * abs(k)
    if bits > MAX_EXACT_BITS:
        raise ExactBudgetError(bits)


def _folded(v):
    """Const(v) for a Fraction `v` that two constants folded into."""
    _check_exact(v.numerator, v.denominator, 1)
    return Const(v)


# ---------------------------------------------------------------------------
# Node types


class _Ref(_weakref):
    """The intern table's weak reference to a node, with the node's key in
    its one slot.  The C constructor builds it and the key is set after, so
    no Python-level `__new__` or `__init__` runs, as one does for `KeyedRef`."""

    __slots__ = ("key",)


def _forget(ref, nodes=_NODES):
    """Callback of a dead node's ref: drop its entry unless rebuilt since."""
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


def _intern(cls, key, fields):
    """The live node entered under `key`, else a new `cls` node of `fields`."""
    ref = _NODES.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = object.__new__(cls)
    for name, value in zip(cls._fields, fields):
        setattr(node, name, value)
    ref = _NODES[key] = _Ref(node, _forget)
    ref.key = key
    return node


def _intern1(cls, key, value):
    """`_intern` for a `cls` of one field, set to `value` through its slot."""
    ref = _NODES.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = object.__new__(cls)
    cls._set(node, value)
    ref = _NODES[key] = _Ref(node, _forget)
    ref.key = key
    return node


class Expr:
    """An immutable, hash-consed node: equal trees are one object.

    Constructing a node whose class and fields match a live node returns
    that node, so equality and hashing are identity (the `object` defaults)
    and memos keyed by node are sound.  The table maps the key
    (class, *fields) to a `_Ref` of the node, a weak reference whose one
    slot holds the key, a rational field entering the key as its numerator
    and denominator, so no lookup hashes or compares a Fraction.  Nodes are
    held weakly and die with the last tree that uses them; the dying node's
    callback deletes its entry only while the entry is still its own ref, so
    a node rebuilt under the same key stays.  A subclass lists its `_fields` and at most normalizes them
    before `_intern`; a hot one-field class (Const, Add, Mul, Neg) goes
    through `_intern1`, which sets the field through the slot's setter.
    """

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        return _intern(cls, (cls, *fields), fields)

    def __str__(self):
        return to_str(self)

    def __repr__(self):
        return f"<{type(self).__name__} {to_str(self)}>"


class Const(Expr):
    __slots__ = _fields = ("value",)

    def __new__(cls, value):
        if type(value) is not Fraction:
            value = Fraction(value)
        return _intern1(cls, (cls, value.numerator, value.denominator), value)


class Coord(Expr):
    __slots__ = _fields = ("name",)


class Param(Expr):
    __slots__ = _fields = ("name",)


class Add(Expr):
    __slots__ = _fields = ("terms",)

    def __new__(cls, terms):
        terms = tuple(terms)
        return _intern1(cls, (cls, terms), terms)


class Mul(Expr):
    __slots__ = _fields = ("factors",)

    def __new__(cls, factors):
        factors = tuple(factors)
        return _intern1(cls, (cls, factors), factors)


class Pow(Expr):
    __slots__ = _fields = ("base", "exponent")

    def __new__(cls, base, exponent):
        if type(exponent) is not Fraction:
            exponent = Fraction(exponent)
        return _intern(cls, (cls, base, exponent.numerator, exponent.denominator),
                       (base, exponent))


class Neg(Expr):
    __slots__ = _fields = ("child",)

    def __new__(cls, child):
        return _intern1(cls, (cls, child), child)


class Div(Expr):
    __slots__ = _fields = ("num", "den")


class _Func(Expr):
    __slots__ = _fields = ("child",)
    fname = "?"


class Exp(_Func):
    __slots__ = ()
    fname = "exp"


class Log(_Func):
    __slots__ = ()
    fname = "log"


class Sin(_Func):
    __slots__ = ()
    fname = "sin"


class Cos(_Func):
    __slots__ = ()
    fname = "cos"


_FUNC_CLASSES = {"exp": Exp, "log": Log, "sin": Sin, "cos": Cos}

for _cls in (Const, Add, Mul, Neg):
    _cls._set = vars(_cls)[_cls._fields[0]].__set__  # the setter `_intern1` calls
del _cls

ZERO = Const(0)
ONE = Const(1)


def is_literal_zero(e):
    """True iff `e` is the constant 0, without evaluating.

    Nodes are interned, so `isinstance(e, Const) and e.value == 0` holds
    exactly when `e is ZERO`.
    """
    return e is ZERO


# ---------------------------------------------------------------------------
# Smart constructors.  Simplification is deliberately limited to constant
# folding, 0/1 absorption, and power merging; nothing downstream relies on it.
#
# The zero-slot rule: `add` puts the folded constant of its terms in the
# slot of the first Const it meets, a literal 0 included, and drops it there
# when it folds to 0.  So add(0, x2*x1 + 3, 1/3) is 10/3 + x2*x1, while
# add(x2*x1 + 3, 1/3) is x2*x1 + 10/3: a 0 term can move the constant.  Only
# the first Const-or-0 sets the slot, so a caller that skips zero terms
# (`sum_products`) keeps one 0 where it skipped the first, and none at all
# when no term follows it.
#
# The three shapes the module docstring lists are interned at once: each is
# the very node the general loop returns.


def const(v):
    return Const(v)


def add(*terms):
    if len(terms) > 1:
        for t in terms:
            cls = type(t)
            if cls is Add or cls is Const:
                break
        else:
            return _intern1(Add, (Add, terms), terms)
    out = []
    c = pos = None  # the constant term so far, and its place in `out`
    for t in terms:
        for u in t.terms if type(t) is Add else (t,):
            if type(u) is not Const:
                out.append(u)
            elif c is None:
                c, pos = u, len(out)
                out.append(u)
            elif u is not ZERO:
                c = u if c is ZERO else _folded(c.value + u.value)
    if c is not None:
        if c is ZERO and len(out) > 1:
            del out[pos]
        else:
            out[pos] = c
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(out)


def mul(*factors):
    if len(factors) == 2:
        a, b = factors
        ca, cb = type(a), type(b)
        if ca is not Const and ca is not Mul and cb is not Const and cb is not Mul:
            return _intern1(Mul, (Mul, factors), factors)
    c = ONE  # the product of the constant factors
    rest = []
    for f in factors:
        for g in f.factors if type(f) is Mul else (f,):
            if type(g) is not Const:
                rest.append(g)
            elif g is ZERO:
                return ZERO
            elif g is not ONE:
                c = g if c is ONE else _folded(c.value * g.value)
    negative = c is not ONE and c.value.numerator < 0
    if negative:
        c = neg(c)
    if not rest:
        core = c
    elif c is ONE:
        core = rest[0] if len(rest) == 1 else Mul(rest)
    else:
        core = Mul([c] + rest)
    return neg(core) if negative else core


def neg(x):
    cls = type(x)
    if cls is Neg:
        return x.child
    if cls is not Const:
        return _intern1(Neg, (Neg, x), x)
    if x is ZERO:
        return x
    v = x.value
    ref = _NODES.get((Const, -v.numerator, v.denominator))
    node = None if ref is None else ref()
    return Const(-v) if node is None else node


def sub(a, b):
    return add(a, neg(b))


def product(*factors):
    """mul(*factors), the same node; literal 0, without calling mul, when a
    factor is literal 0."""
    return ZERO if ZERO in factors else mul(*factors)


def sum_products(pairs=(), lead=(), negate=()):
    """add(*lead, *[mul(a, b) for a, b in pairs],
    *[neg(mul(a, b)) for a, b in negate]): the same node, built without
    calling mul on a pair with a literal-0 factor.

    Such a pair's product is 0.  It is skipped, as the sparse sums of
    GiNaC's `expairseq` skip zero coefficients, but the first one leaves a
    0 at its place when a term follows it (the zero-slot rule above).
    Every node in `lead` and every factor must be one the constructors
    built.
    """
    terms = list(lead)
    gap = None  # the place of the first skipped product
    for a, b in pairs:
        if a is ZERO or b is ZERO:
            if gap is None:
                gap = len(terms)
        else:
            terms.append(mul(a, b))
    for a, b in negate:
        if a is ZERO or b is ZERO:
            if gap is None:
                gap = len(terms)
        else:
            terms.append(neg(mul(a, b)))
    if gap is not None and gap < len(terms):
        terms.insert(gap, ZERO)
    # a node the constructors built is its own sum
    return terms[0] if len(terms) == 1 else add(*terms)


def div(a, b):
    if type(b) is Const:
        if b is ZERO:
            raise DomainError("division by literal zero")
        if b is ONE:
            return a
        if type(a) is Const:
            return _folded(a.value / b.value)
        if b.value.numerator < 0:
            return neg(div(a, neg(b)))
    if a is ZERO:
        return ZERO
    if type(a) is Const and a.value.numerator < 0:
        return neg(div(neg(a), b))
    if type(a) is Neg:
        return neg(div(a.child, b))
    if type(b) is Neg:
        return neg(div(a, b.child))
    return Div(a, b)


def pow_(base, exponent):
    e = exponent if type(exponent) is Fraction else Fraction(exponent)
    n, d = e.numerator, e.denominator
    if type(base) is Pow and d == 1:
        return pow_(base.base, base.exponent * n)
    # checked after merging and before folding, so that (x^a)^b and c^b
    # are refused too: exact evaluation raises int pairs to n
    if abs(n) > MAX_EXPONENT * d:
        raise ExponentBudgetError(e)
    if d == 1 and n == 1:
        return base
    if d == 1 and n == 0:
        return ONE
    if type(base) is Const:
        if base is ZERO and n < 0:
            raise DomainError("zero base with negative exponent")
        if d == 1:
            v = base.value
            _check_exact(v.numerator, v.denominator, n)
            return Const(v ** n)
        if base is ZERO or base is ONE:
            return base
    return Pow(base, e)


def exp_(x):
    if is_literal_zero(x):
        return ONE
    return Exp(x)


def log_(x):
    if type(x) is Const:
        if x is ONE:
            return ZERO
        if x.value.numerator <= 0:
            raise DomainError("log of non-positive constant")
    return Log(x)


def sin_(x):
    if is_literal_zero(x):
        return ZERO
    return Sin(x)


def cos_(x):
    if is_literal_zero(x):
        return ONE
    return Cos(x)


# ---------------------------------------------------------------------------
# Parsing


def _tokenize(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("IDENT", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("END", "", n))
    return toks


class _Parser:
    def __init__(self, toks, coords, params):
        self.toks = toks
        self.pos = 0
        self.coords = coords
        self.params = params
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def accept(self, kind):
        if self.toks[self.pos][0] == kind:
            return self.take()
        return None

    def fail(self, message):
        tok = self.peek()
        if tok[0] == "END":
            raise ParseError(message + ", got end of input", tok[2])
        raise ParseError(message + f", got {tok[1]!r}", tok[2])

    def deeper(self, tok, what):
        """Enter one more nesting level, opened by the token `tok`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"{what} nested deeper than {MAX_NESTING} levels", tok[2])

    def nested(self, paren):
        """The expression inside the '(' token `paren`, up to its ')'."""
        self.deeper(paren, "parentheses")
        inner = self.expr()
        if not self.accept(")"):
            self.fail("expected ')'")
        self.depth -= 1
        return inner

    def expr(self):
        items = []
        if self.accept("-"):
            items.append(neg(self.term()))
        else:
            items.append(self.term())
        while True:
            if self.accept("+"):
                items.append(self.term())
            elif self.accept("-"):
                items.append(neg(self.term()))
            else:
                break
        return add(*items)

    def term(self):
        # a chain of divisions nests left (Div(Div(a, b), c)), one level per
        # quotient that does not fold to a constant
        outer = self.depth
        cur = self.factor()
        while True:
            if self.accept("*"):
                cur = mul(cur, self.factor())
            elif self.accept("/"):
                slash = self.toks[self.pos - 1]
                rhs = self.factor()
                if is_literal_zero(rhs):
                    raise ParseError("division by zero literal", self.toks[self.pos - 1][2])
                cur = div(cur, rhs)
                if not isinstance(cur, Const):
                    self.deeper(slash, "divisions")
            else:
                break
        self.depth = outer
        return cur

    def factor(self):
        b = self.base()
        if self.accept("^"):
            return pow_(b, self.exponent())
        return b

    def base(self):
        tok = self.peek()
        if tok[0] == "INT":
            self.take()
            return Const(int(tok[1]))
        if tok[0] == "IDENT":
            self.take()
            name = tok[1]
            if name in _FUNC_CLASSES:
                paren = self.accept("(")
                if paren is None:
                    self.fail(f"expected '(' after {name}")
                inner = self.nested(paren)
                ctor = {"exp": exp_, "log": log_, "sin": sin_, "cos": cos_}[name]
                try:
                    return ctor(inner)
                except DomainError as err:
                    raise ParseError(str(err), tok[2]) from None
            if name in self.coords:
                return Coord(name)
            if name in self.params:
                return Param(name)
            raise ParseError(
                f"unknown identifier {name!r} (not a coordinate or declared parameter)",
                tok[2],
            )
        paren = self.accept("(")
        if paren is not None:
            return self.nested(paren)
        self.fail("expected a number, identifier, or '('")

    def exponent(self):
        tok = self.peek()
        if tok[0] == "INT":
            self.take()
            return Fraction(int(tok[1]))
        if tok[0] == "-":
            self.take()
            t2 = self.accept("INT")
            if t2 is None:
                self.fail("expected integer after '-' in exponent")
            return Fraction(-int(t2[1]))
        if tok[0] == "(":
            self.take()
            sign = -1 if self.accept("-") else 1
            t2 = self.accept("INT")
            if t2 is None:
                self.fail("expected integer in exponent")
            num = sign * int(t2[1])
            den = 1
            if self.accept("/"):
                t3 = self.accept("INT")
                if t3 is None:
                    self.fail("expected denominator integer in exponent")
                den = int(t3[1])
                if den == 0:
                    raise ParseError("zero denominator in exponent", t3[2])
            if not self.accept(")"):
                self.fail("expected ')' in exponent")
            return Fraction(num, den)
        self.fail("expected an integer or rational exponent")


def parse(text, coords=(), params=()):
    """Parse `text` into an Expr; identifiers must appear in coords/params."""
    toks = _tokenize(text)
    p = _Parser(toks, frozenset(coords), frozenset(params))
    try:
        e = p.expr()
    except DomainError as err:
        raise ParseError(str(err), p.peek()[2]) from None
    tok = p.peek()
    if tok[0] != "END":
        raise ParseError(f"unexpected {tok[1]!r}", tok[2])
    return e


# ---------------------------------------------------------------------------
# Printing (round-trips through parse structurally)


def _fmt_number(v):
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def _needs_parens_as_factor(f, first):
    if isinstance(f, (Add, Neg)):
        return True
    if isinstance(f, Const):
        if f.value < 0:
            return True
        return f.value.denominator != 1 and not first
    if isinstance(f, Div):
        return not first
    return False


_LEAVES = (Const, Coord, Param)


def _children(e):
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Div):
        return (e.num, e.den)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Neg, _Func)):
        return (e.child,)
    return ()


def _shape(root):
    """(parents, size): the parent count of each non-leaf node below `root`
    and the number of nodes of `root` expanded as a tree.

    One iterative post-order pass over the distinct nodes: a node is
    expanded once, when first popped, and its size is summed from its
    children's once they are done, so the pass is O(DAG) however large the
    tree it stands for.
    """
    parents = {}
    size = {}
    stack = [(root, False)]
    while stack:
        e, done = stack.pop()
        if done:
            n = 1
            for c in _children(e):
                n += size.get(c, 1)  # a leaf is one node and is not entered
            size[e] = n
        elif e not in size:
            stack.append((e, True))
            for c in _children(e):
                if not isinstance(c, _LEAVES):
                    parents[c] = parents.get(c, 0) + 1
                    stack.append((c, False))
    return parents, size[root]


class Text(tuple):
    """An expression's text as a rope: a tuple of pieces, each a str or a
    Text, whose texts in order make up this one; `str(t)` joins them.

    A piece may be shared, by reference, with other positions of the same
    Text, at any depth (see `to_pieces`), so the text a Text stands for can
    be far longer than the characters it holds.  `size` is its length in
    characters, `flat` says that every piece is a str, and `plain` that
    every character is printable ASCII other than '"' and '\\', which JSON
    keeps as it is (False when not known).  A Text is read through
    `strs(t)`, and joined only where the whole text is wanted as one string.
    """

    def __new__(cls, pieces=(), plain=False, flat=None):
        t = super().__new__(cls, pieces)
        if flat is None:
            flat = all(type(p) is str for p in t)
        t.size = sum(map(len, t)) if flat else sum(
            len(p) if type(p) is str else p.size for p in t)
        t.flat, t.plain = flat, plain
        return t

    def __str__(self):
        return "".join(self if self.flat else strs(self))


def strs(pieces):
    """The str pieces of `pieces`, a Text or a sequence of strs and Texts,
    in order, with every Text among them flattened.  Ropes nest as deep as
    the DAG they print, so the walk keeps its own stack."""
    stack = [iter(pieces)]
    while stack:
        for p in stack[-1]:
            if type(p) is not str:
                stack.append(iter(p))
                break
            yield p
        else:
            stack.pop()


def is_plain(s):
    """Whether `s` is printable ASCII other than '"' and '\\': a string of
    only these is its own JSON text.  Each test scans `s` without copying."""
    return s.isascii() and s.isprintable() and '"' not in s and "\\" not in s


class _Printer:
    """Appends the pieces of one tree's text to output lists, for to_pieces.

    `_text(e, out)` appends the text of a non-leaf node, except that a
    Neg's text is its operand as a negated term shows it, without the '-'.
    A node with several parents is rendered once into a list of its own and
    then appended by reference at each of its uses; the memo keeps its text
    from the first use until the last, then drops it.  That text is one
    joined str when it is shorter than _ROPE_BELOW characters and holds no
    rope, and otherwise a rope: a `Text` of its runs of strs, each joined,
    and the ropes between them, which are not copied.  Any other node is
    rendered straight into its parent's list.  `_ropes` counts the ropes
    appended so far and `_names` holds the Coord and Param names printed.
    """

    def __init__(self, parents):
        self._uses_left = {c: k for c, k in parents.items() if k > 1}
        self._memo = {}
        self._ropes = 0
        self._names = set()

    def _text(self, e, out):
        left = self._uses_left.get(e)
        if left is None:
            self._render(e, out)
            return
        if left == 1:
            del self._uses_left[e]
            s = self._memo.pop(e)
        else:
            self._uses_left[e] = left - 1
            s = self._memo.get(e)
            if s is None:
                s = self._memo[e] = self._shared(e)
        if type(s) is not str:
            self._ropes += 1
        out.append(s)

    def _shared(self, e):
        """The text of a node with several parents, as a str or a rope."""
        ropes = self._ropes
        sub = []
        self._render(e, sub)
        if self._ropes == ropes:
            s = "".join(sub)
            return s if len(s) < _ROPE_BELOW else Text((s,), self.plain(), True)
        pieces = []
        for is_str, run in groupby(sub, lambda p: type(p) is str):
            if is_str:
                pieces.append("".join(run))
            else:
                pieces += run
        return Text(pieces, self.plain(), False)

    def plain(self):
        """Whether every name printed so far is plain (see `Text`)."""
        return all(map(is_plain, self._names))

    def _render(self, e, out):
        if isinstance(e, Neg):
            c = e.child
            if isinstance(c, Add):
                self._paren(c, out)
            else:
                self._atom(c, out)
        elif isinstance(e, Add):
            self._terms(e, out)
        else:
            self._compound(e, out)

    def _paren(self, e, out):
        out.append("(")
        self._sum(e, out)
        out.append(")")

    def _sum(self, e, out):
        if isinstance(e, Add):
            self._text(e, out)
        else:
            self._signed_term(e, out)

    def _atom(self, e, out):
        if isinstance(e, Const):
            out.append(_fmt_number(e.value))
        elif isinstance(e, (Coord, Param)):
            self._names.add(e.name)
            out.append(e.name)
        elif isinstance(e, (Add, Neg)):
            raise TypeError(f"unexpected node in factor position: {type(e).__name__}")
        else:
            self._text(e, out)

    def _factor(self, f, first, out):
        if _needs_parens_as_factor(f, first):
            self._paren(f, out)
        else:
            self._atom(f, out)

    def _compound(self, e, out):
        if isinstance(e, _Func):
            out.append(e.fname)
            self._paren(e.child, out)
        elif isinstance(e, Pow):
            self._pow(e, out)
        elif isinstance(e, Mul):
            first = True
            for f in e.factors:
                if not first:
                    out.append("*")
                self._factor(f, first, out)
                first = False
        elif isinstance(e, Div):
            self._div(e, out)
        else:
            raise TypeError(f"unexpected node in factor position: {type(e).__name__}")

    def _pow(self, e, out):
        b = e.base
        if isinstance(b, (Add, Mul, Div, Neg, Pow)) or (
            isinstance(b, Const) and (b.value < 0 or b.value.denominator != 1)
        ):
            self._paren(b, out)
        else:
            self._atom(b, out)
        exp = e.exponent
        if exp.denominator == 1 and exp >= 0:
            out.append(f"^{exp.numerator}")
        else:
            out.append(f"^({_fmt_number(exp)})")

    def _div(self, e, out):
        left = e.num
        if isinstance(left, (Add, Neg)) or (isinstance(left, Const) and left.value < 0):
            self._paren(left, out)
        else:
            self._atom(left, out)
        out.append("/")
        right = e.den
        if (isinstance(right, (Coord, Param, _Func, Pow))
                or (isinstance(right, Const) and right.value >= 0
                    and right.value.denominator == 1)):
            self._atom(right, out)
        else:
            self._paren(right, out)

    def _signed_term(self, t, out):
        """A term in leading position; a leading '-' applies to the whole term."""
        if isinstance(t, Neg):
            out.append("-")
            self._text(t, out)
        elif isinstance(t, Const) and t.value < 0:
            out.append("-" + _fmt_number(-t.value))
        elif isinstance(t, Add):
            self._paren(t, out)
        else:
            self._atom(t, out)

    def _terms(self, e, out):
        terms = e.terms
        self._signed_term(terms[0], out)
        for t in terms[1:]:
            if isinstance(t, Neg):
                out.append(" - ")
                self._text(t, out)
            elif isinstance(t, Const) and t.value < 0:
                out.append(" - " + _fmt_number(-t.value))
            else:
                out.append(" + ")
                self._signed_term(t, out)


def to_pieces(e):
    """The text of `e` as a `Text`; it parses back to an equal tree.

    Raises `PrintBudgetError`, before any piece is made, when `e` expanded
    as a tree has more than MAX_PRINTED_NODES nodes.  A node with several
    parents is one piece, the same object at each of its uses: a str when
    its text is shorter than _ROPE_BELOW characters, a rope otherwise (see
    `_Printer`), so the pieces and the characters held number O(DAG) however
    long the text.  The Text is `plain` when every Coord and Param name in
    it is printable ASCII other than '"' and '\\'.
    """
    parents, size = _shape(e)
    if size > MAX_PRINTED_NODES:
        raise PrintBudgetError(size)
    out = []
    printer = _Printer(parents)
    printer._sum(e, out)
    return Text(out, printer.plain(), not printer._ropes)


def to_str(e):
    """The text of `e` as one str: `to_pieces(e)` joined."""
    return str(to_pieces(e))


# ---------------------------------------------------------------------------
# Differentiation (exact)


def diff(e, name, memo=None):
    """d e / d name.  `memo` maps nodes to their derivatives in `name`; a
    caller that differentiates many trees in the same name passes one dict,
    so shared subtrees are differentiated once."""
    if memo is None:
        memo = {}
    hit = memo.get(e)
    if hit is not None:
        return hit
    if isinstance(e, (Const, Param)):
        out = ZERO
    elif isinstance(e, Coord):
        out = ONE if e.name == name else ZERO
    elif isinstance(e, Add):
        out = add(*[diff(t, name, memo) for t in e.terms])
    elif isinstance(e, Mul):
        pieces = []
        fs = e.factors
        for i in range(len(fs)):
            d = diff(fs[i], name, memo)
            if is_literal_zero(d):
                continue
            pieces.append(mul(*fs[:i], d, *fs[i + 1:]))
        out = add(*pieces)
    elif isinstance(e, Neg):
        out = neg(diff(e.child, name, memo))
    elif isinstance(e, Div):
        du = diff(e.num, name, memo)
        dv = diff(e.den, name, memo)
        out = div(sum_products(((du, e.den),), negate=((e.num, dv),)), pow_(e.den, 2))
    elif isinstance(e, Pow):
        db = diff(e.base, name, memo)
        x = e.exponent
        out = ZERO if db is ZERO else mul(Const(x), pow_(e.base, x - 1), db)
    elif isinstance(e, Exp):
        out = product(e, diff(e.child, name, memo))
    elif isinstance(e, Log):
        out = div(diff(e.child, name, memo), e.child)
    elif isinstance(e, Sin):
        out = product(cos_(e.child), diff(e.child, name, memo))
    elif isinstance(e, Cos):
        out = neg(product(sin_(e.child), diff(e.child, name, memo)))
    else:
        raise TypeError(f"cannot differentiate {e!r}")
    memo[e] = out
    return out


# ---------------------------------------------------------------------------
# Name utilities


def _walk_names(e, coords, params, seen):
    if e in seen:
        return
    seen.add(e)
    if isinstance(e, Coord):
        coords.add(e.name)
    elif isinstance(e, Param):
        params.add(e.name)
    for c in _children(e):
        _walk_names(c, coords, params, seen)


def free_coords(e):
    coords, params = set(), set()
    _walk_names(e, coords, params, set())
    return coords


def free_params(e):
    coords, params = set(), set()
    _walk_names(e, coords, params, set())
    return params


def rename(e, mapping, _memo=None):
    """Rename coordinate/parameter leaves according to `mapping`."""
    if _memo is None:
        _memo = {}
    hit = _memo.get(e)
    if hit is not None:
        return hit
    if isinstance(e, Const):
        out = e
    elif isinstance(e, Coord):
        out = Coord(mapping.get(e.name, e.name))
    elif isinstance(e, Param):
        out = Param(mapping.get(e.name, e.name))
    elif isinstance(e, Add):
        out = add(*[rename(t, mapping, _memo) for t in e.terms])
    elif isinstance(e, Mul):
        out = mul(*[rename(f, mapping, _memo) for f in e.factors])
    elif isinstance(e, Pow):
        out = pow_(rename(e.base, mapping, _memo), e.exponent)
    elif isinstance(e, Neg):
        out = neg(rename(e.child, mapping, _memo))
    elif isinstance(e, Div):
        out = div(rename(e.num, mapping, _memo), rename(e.den, mapping, _memo))
    elif isinstance(e, _Func):
        out = _FUNC_CLASSES[e.fname](rename(e.child, mapping, _memo))
    else:
        raise TypeError(f"cannot rename {e!r}")
    _memo[e] = out
    return out


# ---------------------------------------------------------------------------
# Evaluation


# The fixed-precision kernel.  Every inexact value is a libmp tuple (sign,
# man, exp, bc) rounded to nearest, ties to even, at the working precision:
# man is odd (or the tuple is zero or special) and bc is its bit count.  The
# sum, difference, product and quotient of two regular tuples are computed
# here on their ints and rounded by `_nearest`, which is libmp's `normalize`
# at `round_nearest` with the bit count taken by `int.bit_length`; each
# result is the tuple that libmp's `mpf_add`, `mpf_sub`, `mpf_mul` and
# `mpf_div` return, bit for bit, without their generic normalization and
# rounding-mode dispatch; a zero operand (x + 0, 0 - t, x * 0, 0 / t) is
# answered here too.  libmp keeps a special (inf, nan) operand, division by
# zero, a sum whose operands lie so far apart that `mpf_add` perturbs the
# larger one instead of shifting it, and powers, exp, log, sin, cos, sqrt
# and printing.

_PREC, _RND, _TOL = _precision(DPS)


def _nearest(sign, man, exp, prec):
    """The libmp tuple of (-1)^sign * man * 2^exp, for an int man > 0,
    rounded half to even to `prec` bits and stripped of trailing zero bits:
    what libmp's `normalize` returns at `round_nearest`."""
    bc = man.bit_length()
    n = bc - prec
    if n > 0:
        h = man >> (n - 1)  # the kept bits and the first dropped one
        if h & 1 and (h & 2 or man & ((1 << (n - 1)) - 1)):
            man = (h >> 1) + 1
        else:
            man = h >> 1
        exp += n
        bc = prec
    if not man & 1:
        z = (man & -man).bit_length() - 1
        man >>= z
        exp += z
        bc = man.bit_length()
    return sign, man, exp, bc


def _add(s, t, prec=_PREC, sub=0):
    """s + t (s - t when `sub` is 1) of libmp tuples at `prec`, as `mpf_add`
    gives it: the operands aligned to the smaller exponent, summed as signed
    ints and rounded; with a zero operand it is the other operand, rounded
    to prec bits if it has more.  A special operand, and operands more than
    100 exponents and prec + 4 binary orders apart (which `mpf_add`
    perturbs), go to libmp."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not sman or not tman:
        # a zero operand (man 0, exp 0) leaves the other one, rounded
        if sman:
            if not texp:
                return s if sbc <= prec else _nearest(ssign, sman, sexp, prec)
        elif tman:
            if not sexp:
                tsign ^= sub
                return (tsign, tman, texp, tbc) if tbc <= prec else _nearest(tsign, tman, texp, prec)
        elif not sexp and not texp:
            return fzero
        return mpf_add(s, t, prec, round_nearest, sub)
    off = sexp - texp
    if off > 100 and off + sbc - tbc > prec + 4 or off < -100 and tbc - sbc - off > prec + 4:
        return mpf_add(s, t, prec, round_nearest, sub)
    if ssign:
        sman = -sman
    if tsign ^ sub:
        tman = -tman
    if off >= 0:
        man, exp = (sman << off) + tman, texp
    else:
        man, exp = sman + (tman << -off), sexp
    if man > 0:
        return _nearest(0, man, exp, prec)
    return _nearest(1, -man, exp, prec) if man else fzero


def _sub(s, t, prec=_PREC):
    """s - t of libmp tuples at `prec`, as `mpf_sub` gives it."""
    return _add(s, t, prec, 1)


def _mul(s, t, prec=_PREC):
    """s * t of libmp tuples at `prec`, as `mpf_mul` gives it: fzero when
    an operand is zero and neither is special; a special operand goes to
    libmp."""
    man = s[1] * t[1]
    if man:
        return _nearest(s[0] ^ t[0], man, s[2] + t[2], prec)
    if (s[1] or not s[2]) and (t[1] or not t[2]):
        return fzero
    return mpf_mul(s, t, prec, round_nearest)


def _div(s, t, prec=_PREC):
    """s / t of libmp tuples at `prec`, as `mpf_div` gives it: the mantissas'
    quotient to at least prec + 5 bits, with one more bit set when the
    remainder is not zero (the sticky bit), so it rounds as the exact
    quotient does.  0 / t is fzero for a regular t; a zero t or a special
    operand goes to libmp, which raises ZeroDivisionError for t = 0."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not sman or not tman:
        if tman and not sexp:
            return fzero
        return mpf_div(s, t, prec, round_nearest)
    extra = prec - sbc + tbc + 5
    if extra < 5:
        extra = 5
    quot, rem = divmod(sman << extra, tman)
    if rem:
        quot = quot << 1 | 1
        extra += 1
    return _nearest(ssign ^ tsign, quot, sexp - texp - extra, prec)


def _rational(n, d, prec=_PREC):
    """n/d, ints in lowest terms with d > 0, as a libmp tuple at `prec`,
    rounded as `mpf(n) / mpf(d)` rounds it: n and d are rounded to `prec`
    bits first, as `from_int` rounds them, and then divided."""
    if not n:
        return fzero
    return _div(_nearest(1 if n < 0 else 0, abs(n), 0, prec), _nearest(0, d, 0, prec), prec)


def _to_tuple(v, dps):
    """`v`, an int, a Fraction or another real number, as a libmp tuple at
    `dps` digits: the one conversion of a number to a tuple.  A rational is
    rounded by `_rational`; any other number is read as `mpf(v)` reads it."""
    if isinstance(v, (int, Fraction)):
        return _rational(v.numerator, v.denominator, _precision(dps)[0])
    return _context(dps).mpf(v)._mpf_


def _as_mpf(t, dps):
    """The libmp tuple `t` as an mpf of the context of `dps` digits: the one
    conversion of a tuple to an mpf."""
    return _context(dps).make_mpf(t)


def to_tuple(v):
    """A number as a libmp tuple at DPS digits (`_to_tuple`)."""
    return _to_tuple(v, DPS)


def as_mpf(t):
    """A libmp tuple as an mpf of `MP` (`_as_mpf`)."""
    return _as_mpf(t, DPS)


def to_mpf(v):
    """An exact Fraction or a number as an mpf of `MP`, at DPS digits."""
    return as_mpf(to_tuple(v))


def num_str(t, digits=20):
    """The libmp tuple `t` in decimal to `digits` significant digits, the
    text `MP.nstr` gives for its mpf; `str` of an mpf is `num_str(t, DPS)`."""
    return _libmp_str(t, digits)


_MPF_FUNCS = {Exp: mpf_exp, Log: mpf_log, Sin: mpf_sin, Cos: mpf_cos}
_MAX_EXP_MPF = from_int(MAX_EXP_ARG)
_NO_ORDER = float("-inf")  # the order of zero, below every exp + bc
_SPECIAL_ORDER = float("inf")  # the order of inf and nan, above every exp + bc


def mag_gt(s, t):
    """`mpf_gt(s, t)` for nonnegative libmp tuples, decided on their ints.

    A normalized tuple (0, man, exp, bc) lies in [2^(exp+bc-1), 2^(exp+bc)),
    so unequal sums exp + bc order the two values, and equal sums are
    settled by the mantissas aligned to the smaller exponent.  Zero,
    fzero = (0, 0, 0, 0), lies below every nonzero value and not above
    zero; only a special operand (man 0, exp != 0: inf or nan) goes to
    `mpf_gt` itself.  The magnitude of a tuple rounded at the working
    precision is (0, man, exp, bc), so callers take it without `mpf_abs`.
    """
    _, sm, se, sb = s
    _, tm, te, tb = t
    if sm and tm:
        a, b = se + sb, te + tb
        if a != b:
            return a > b
        return sm << (se - te) > tm if se >= te else sm > tm << (te - se)
    if sm:
        if not te:
            return True
    elif not se and (tm or not te):
        return False
    return mpf_gt(s, t)


def _reduced(n, d):
    """The pair (n, d), d > 0, in lowest terms; ExactBudgetError, before
    the gcd, when n or d has more than MAX_EXACT_BITS bits."""
    _check_exact(n, d, 1)
    g = gcd(n, d)
    return (n, d) if g == 1 else (n // g, d // g)


class PointEval:
    """Memoizing evaluator bound to one point (shared across expressions).

    `judged`, `rounded`, `positive` and `value_str` give a value at this
    point as a tuple, a verdict or text, and the engine reads only those;
    `eval` and `eval_scaled` (with the largest intermediate magnitude in
    the subtree, which scales the zero test's tolerance) give an exact
    Fraction or an mpf of the context of `dps` digits, made at return by
    `_as_mpf`.  Precision and tolerance come from `_precision(dps)`.

    The memo entry of a rational node is a tuple (numerator, denominator)
    of ints in lowest terms, with a positive denominator; a rational Add or
    Mul combines its children's ints and reduces once.  Lowest terms
    matter: `_round` rounds the numerator and the denominator separately,
    as `to_tuple` rounds a Fraction, so an unreduced pair of more than DPS
    digits could round to other bits.  The entry of an inexact node is a
    list [tuple, order]: a libmp tuple at this precision and the binary
    order of the largest magnitude in its subtree, the largest exp + bc of
    its nodes' nonzero values, an int (`_NO_ORDER`, -inf, when all are
    zero; `_SPECIAL_ORDER`, +inf, below an inf or nan input).  Their
    sums, products and quotients are the kernel's (`_add`, `_mul` and
    `_div`, rounding through `_nearest`), which returns the tuples of
    libmp's `round_nearest` arithmetic bit for bit, so every value is
    bit-identical to mpf arithmetic; libmp itself combines a special
    operand and a sum of operands too far apart to shift (which
    `mpf_add` perturbs), and takes powers and exp, log, sin and cos.  The
    entry's type tells the two kinds apart.  A rational subtree stays
    unrounded until something reads its scale: an inexact operand beside
    it in a sum or product, a division, power or function that needs its
    tuple, `eval_scaled`, or `judged` of a nonzero value.  `_settled` then
    rounds it and its subtree once, with the formulas an inexact node
    follows, and keeps (tuple, order) in `_exact`; judging an exact 0 rounds
    nothing.  `judged` brackets |value| and 1e-30 * (1 + m) between powers
    of two read off their orders and takes the exact mpf formula only when
    the brackets overlap, so every verdict is the formula's; only then, and
    for `eval_scaled` and `weighted_ratio`, does `_magnitude` compute m
    itself from the memo, with `mag_gt`.  The memo is keyed by node:
    nodes are interned, so a subtree shared by several expressions is
    evaluated once, and the memo keeps its keys alive for as long as it
    lives.  An exp argument beyond MAX_EXP_ARG in magnitude makes the point
    undefined (DomainError) before libmp is called.  `point` is the env
    the evaluator was built for.
    """

    def __init__(self, env, dps=DPS):
        self.point = env
        self._dps = dps
        self._prec, self._rnd, self._tol = _precision(dps)
        self._tol_order = self._tol[2] + self._tol[3]
        self._env = {}  # name -> the memo entry of a leaf bound to it
        for k, v in env.items():
            if isinstance(v, (int, Fraction)):
                self._env[k] = (v.numerator, v.denominator)
            else:
                t = _to_tuple(v, dps)
                self._env[k] = [t, t[2] + t[3] if t[1] else _NO_ORDER if t == fzero
                                else _SPECIAL_ORDER]
        self._memo = {}
        self._exact = {}  # settled rational node -> (tuple, order)
        self._magnitudes = {}  # node -> largest intermediate magnitude, see _magnitude

    def eval_scaled(self, e):
        """(value, largest intermediate magnitude) of `e` at this point."""
        return self.eval(e), _as_mpf(self._scaled(e)[1], self._dps)

    def _scaled(self, e):
        """`eval_scaled(e)` as (tuple, magnitude tuple), a rational rounded."""
        h = self._walk(e)
        return self._settled(e)[0] if type(h) is tuple else h[0], self._magnitude(e)

    def eval(self, e):
        """Value of `e` at this point, without its magnitude."""
        h = self._walk(e)
        return Fraction(*h) if type(h) is tuple else _as_mpf(h[0], self._dps)

    def judged(self, e):
        """Value of `e` here as a raw libmp tuple, the object `fzero` when
        it is judged zero.

        The value is judged zero when `|value| <= 1e-30 * (1 + m)`, m being
        the largest intermediate magnitude; "nonzero" is `judged(e) is not
        fzero`.  An exact 0 holds for every m, so its scale is not computed.
        Raises DomainError when `e` is undefined at this point.
        """
        h = self._walk(e)
        if type(h) is tuple:
            if not h[0]:
                return fzero
            t, o = self._settled(e)
        else:
            t, o = h
        if t[1]:
            # |t| lies in [2^(a-1), 2^a) and tol (1 + m) in [2^(b-2), 2^(b+1)]
            # (1 + m in [2^(k-1), 2^(k+1)], k = max(1, m's order o)), so
            # orders two or more apart decide; closer ones take the exact
            # formula.  Below an inf or nan input o is +inf, and a finite t
            # there has m inf or nan, a bound no value exceeds
            a = t[2] + t[3]
            b = self._tol_order + (o if o > 1 else 1)
            if a >= b + 3:
                return t
            if a <= b - 2:
                return fzero
        elif t == fzero:
            return fzero
        prec = self._prec
        bound = _mul(self._tol, _add(self._magnitude(e), fone, prec), prec)
        return t if mpf_gt(mpf_abs(t, prec, self._rnd), bound) else fzero

    def rounded(self, e):
        """Value of `e` here as a raw libmp tuple, unjudged; a rational value
        is rounded as `to_tuple` rounds its Fraction."""
        h = self._walk(e)
        return self._round(h) if type(h) is tuple else h[0]

    def positive(self, e):
        """True iff the value of `e` here is above zero (an exact one: > 0)."""
        h = self._walk(e)
        return h[0] > 0 if type(h) is tuple else mpf_gt(h[0], fzero)

    def value_str(self, e):
        """`str(self.eval(e))`, without making an mpf: an exact value as its
        Fraction, an inexact one to this evaluator's digits."""
        h = self._walk(e)
        return str(Fraction(*h)) if type(h) is tuple else num_str(h[0], self._dps)

    def _round(self, v):
        """`_rational` of `v`, an exact (numerator, denominator) pair in
        lowest terms, at this precision."""
        return _rational(v[0], v[1], self._prec)

    def _settled(self, e):
        """(tuple, order) of `e`, a walked rational node, as `_walk` gives
        them for an inexact one; rounded, with the subtree, on the first
        request.  Rounding to nearest is symmetric, so the tuple of a Neg is
        also the negated tuple of its child."""
        s = self._exact.get(e)
        if s is None:
            t = self._round(self._memo[e])
            o = t[2] + t[3] if t[1] else _NO_ORDER
            cls = type(e)
            if not (cls is Const or cls is Coord or cls is Param):
                ko = self._largest(_children(e))
                if ko > o:
                    o = ko
            s = self._exact[e] = (t, o)
        return s

    def _largest(self, kids):
        """Largest order of the rational nodes `kids`, settled in order."""
        settled = self._settled
        o = _NO_ORDER
        for k in kids:
            ko = settled(k)[1]
            if ko > o:
                o = ko
        return o

    def _magnitude(self, e):
        """The largest intermediate magnitude m of the walked node `e`, a
        tuple: the first largest `mag_gt` magnitude of its subtree's values,
        folded as children left to right and then the node's own |value|.
        Its order is the memo's; only the zero test near its threshold,
        `eval_scaled` and `weighted_ratio` read m itself.  Memoized."""
        m = self._magnitudes.get(e)
        if m is not None:
            return m
        mag = self._magnitude
        h = self._memo[e]
        exact = type(h) is tuple
        t = self._settled(e)[0] if exact else h[0]
        mg = (0, t[1], t[2], t[3])
        cls = type(e)
        kids = _children(e)
        if exact or cls is Add or cls is Mul:
            # the children left to right, then |t|, which wins a tie
            m = mg
            if kids:
                m = mag(kids[0])
                for k in kids[1:]:
                    km = mag(k)
                    if mag_gt(km, m):
                        m = km
                if not mag_gt(m, mg):
                    m = mg
        elif cls is Neg:
            m = mag(e.child)
        elif cls is Div:
            nm, dm = mag(e.num), mag(e.den)
            m = dm if mag_gt(dm, nm) else nm
            m = mg if mag_gt(mg, m) else m
        elif kids:  # a power or a function
            km = mag(kids[0])
            m = mg if mag_gt(mg, km) else km
        else:  # an inexact variable
            m = mpf_abs(t, self._prec, self._rnd)
        self._magnitudes[e] = m
        return m

    def _walk(self, e):
        """The memo entry of `e`: a (numerator, denominator) tuple when the
        subtree is rational, else a [tuple, order] list."""
        hit = self._memo.get(e)
        if hit is not None:
            return hit
        walk = self._walk
        prec, rnd = self._prec, self._rnd
        cls = type(e)
        if cls is Add or cls is Mul:
            # the accumulator starts from the first child: x + 0 and x * 1
            # are x exactly at full precision.  A child's memo hit is read
            # here, without a call.
            kids, combine = (e.factors, _mul) if cls is Mul else (e.terms, _add)
            get = self._memo.get
            it = iter(kids)
            k = next(it)
            kv = v = get(k) or walk(k)
            if type(v) is tuple:
                # rational operands: their ints are combined unreduced up to
                # the first inexact one, or to the end and then reduced once;
                # each step is held to MAX_EXACT_BITS (`_check_exact`'s test
                # inlined), so no gcd below sees larger ints
                n, d = v
                top = MAX_EXACT_BITS
                if cls is Add:
                    for k in it:
                        kv = get(k) or walk(k)
                        if type(kv) is not tuple:
                            break
                        kn, kd = kv
                        if kd == d:
                            n += kn
                        else:
                            n, d = n * kd + kn * d, d * kd
                        if n.bit_length() > top or d.bit_length() > top:
                            _check_exact(n, d, 1)
                else:
                    for k in it:
                        kv = get(k) or walk(k)
                        if type(kv) is not tuple:
                            break
                        kn, kd = kv
                        n *= kn
                        d *= kd
                        if n.bit_length() > top or d.bit_length() > top:
                            _check_exact(n, d, 1)
                if type(kv) is tuple:
                    g = gcd(n, d)
                    out = self._memo[e] = (n, d) if g == 1 else (n // g, d // g)
                    return out
                # the first inexact operand: the rational prefix is rounded
                # once, as one value, and its children settled; nodes are
                # interned, so the first position of k is j
                j = 1 if k is kids[1] else kids.index(k)
                if j == 1:
                    t, o = self._exact.get(kids[0]) or self._settled(kids[0])
                else:
                    t, o = self._round(_reduced(n, d)), self._largest(kids[:j])
                kt, ko = kv
                t = combine(t, kt, prec)
                if ko > o:
                    o = ko
            else:
                t, o = v
            for k in it:
                kv = get(k) or walk(k)
                if type(kv) is tuple:
                    kv = self._exact.get(k) or self._settled(k)
                kt, ko = kv
                t = combine(t, kt, prec)
                if ko > o:
                    o = ko
            if t[1]:
                ko = t[2] + t[3]
                if ko > o:
                    o = ko
            out = [t, o]
        elif cls is Neg:
            c = walk(e.child)
            if type(c) is tuple:
                out = (-c[0], c[1])
            else:
                # mpf_neg of a normalized nonzero tuple with bc <= prec, as
                # every value here is, flips the sign and nothing else
                ct = c[0]
                out = [(1 - ct[0], ct[1], ct[2], ct[3]) if ct[1] else mpf_neg(ct, prec, rnd),
                       c[1]]
        elif cls is Const:
            v = e.value
            out = (v.numerator, v.denominator)
        elif cls is Coord or cls is Param:
            try:
                out = self._env[e.name]
            except KeyError:
                raise EvalError(f"unbound variable {e.name!r}") from None
        elif cls is Div:
            n, d = walk(e.num), walk(e.den)
            if type(n) is tuple and type(d) is tuple:
                if not d[0]:
                    raise DomainError("division by zero")
                if d[0] < 0:
                    out = _reduced(-n[0] * d[1], -n[1] * d[0])
                else:
                    out = _reduced(n[0] * d[1], n[1] * d[0])
            else:
                nt, no = self._settled(e.num) if type(n) is tuple else n
                dt, do = self._settled(e.den) if type(d) is tuple else d
                if mpf_eq(dt, fzero):
                    raise DomainError("division by zero")
                t = _div(nt, dt, prec)
                o = do if do > no else no
                if t[1] and t[2] + t[3] > o:
                    o = t[2] + t[3]
                out = [t, o]
        elif cls is Pow:
            b = walk(e.base)
            x = e.exponent
            xn, xd = x.numerator, x.denominator
            if type(b) is tuple and (xd == 1 or b[0] <= 0):
                bn, bd = b
                if not bn and xn < 0:
                    raise DomainError("zero base with negative exponent")
                if bn < 0 and xd != 1:
                    raise DomainError("negative base with fractional exponent")
                if xd != 1:
                    out = b  # a zero base
                else:
                    _check_exact(bn, bd, xn)
                    if xn >= 0:
                        out = (bn ** xn, bd ** xn)
                    else:
                        n, d = bd ** -xn, bn ** -xn
                        out = (-n, -d) if d < 0 else (n, d)
            else:
                bt, o = self._settled(e.base) if type(b) is tuple else b
                if mpf_eq(bt, fzero) and xn < 0:
                    raise DomainError("zero base with negative exponent")
                if xd == 1:
                    t = mpf_pow_int(bt, xn, prec, rnd)
                elif mpf_lt(bt, fzero):
                    raise DomainError("negative base with fractional exponent")
                else:
                    t = mpf_pow(bt, self._round((xn, xd)), prec, rnd)
                if t[1] and t[2] + t[3] > o:
                    o = t[2] + t[3]
                out = [t, o]
        else:
            f = _MPF_FUNCS.get(cls)
            if f is None:
                raise TypeError(f"cannot evaluate {e!r}")
            c = walk(e.child)
            ct, o = self._settled(e.child) if type(c) is tuple else c
            if cls is Log and not mpf_gt(ct, fzero):
                raise DomainError("log of non-positive value")
            # a rational just above the bound may round onto it: compare it exactly
            if cls is Exp and (abs(c[0]) > MAX_EXP_ARG * c[1] if type(c) is tuple
                               else mag_gt((0, ct[1], ct[2], ct[3]), _MAX_EXP_MPF)):
                raise DomainError("exp argument too large")
            t = f(ct, prec, rnd)
            if t[1] and t[2] + t[3] > o:
                o = t[2] + t[3]
            out = [t, o]
        self._memo[e] = out
        return out


def evaluate(e, env):
    """Evaluate at a point; exact Fraction when possible, else an mpf of MP."""
    return PointEval(env).eval(e)


# ---------------------------------------------------------------------------
# Dense kernels on raw libmp tuples
#
# Chart validation's determinant, the (L1, L2) fit, a candidate pair's
# residual, the Deszcz ratio's sums and the dependence and constancy checks
# compute on tuples at DPS, as `PointEval` does.  Each step is the kernel's
# `_add`, `_sub`, `_mul` or `_div`, which return the tuple of the libmp
# function the mpf operator calls (an int k times x is x times the exact
# tuple of k, rounded once, as `mpf_mul_int` rounds it), so every result is
# bit-identical to the same formula written with mpfs of MP.  A term with an
# exact-zero factor is skipped: a product with 0 is 0, and adding 0 to a
# normalized tuple returns it.  The largest magnitude (a
# scale, a pivot) is picked by `largest`, with `mag_gt`, which answers as
# `mpf_gt`.  Reports print the tuples themselves (`num_str`), and a verdict
# against the zero threshold is `negligible`.

_REL = from_str(_REL_TOL, _PREC, _RND)


def _threshold(scale):
    """The tuple of `zero_threshold(scale)` for a tuple `scale`."""
    return _mul(_TOL, _add(scale, fone))


def negligible(v, scale):
    """True iff `|v| <= zero_threshold(scale)`, for tuples `v` and `scale`."""
    return mpf_le(mpf_abs(v, _PREC, _RND), _threshold(scale))


def largest(values):
    """The magnitude of the first of `values`, libmp tuples, of largest
    magnitude, fzero for none: a later one replaces it only when `mag_gt`
    puts it strictly above.  A magnitude is the tuple with sign 0."""
    m = fzero
    for x in values:
        ax = (0, x[1], x[2], x[3])
        if mag_gt(ax, m):
            m = ax
    return m


def numeric_det(mat):
    """LU determinant of a square matrix of tuples, with partial pivoting.

    Returns (det, scale): scale is the largest magnitude of an entry, of an
    intermediate or of det.  A column's pivot is its first entry of largest
    magnitude below the diagonal, and det is fzero at a zero pivot.  A row
    whose multiplier is 0 keeps its entries, which the scale has seen.
    """
    n = len(mat)
    a = [row[:] for row in mat]
    det = fone
    scale = largest(x for row in a for x in row)
    for col in range(n):
        mags = [(0, x[1], x[2], x[3]) for x in (row[col] for row in a[col:])]
        piv = col + mags.index(largest(mags))
        if mpf_eq(a[piv][col], fzero):
            return fzero, scale
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = mpf_neg(det, _PREC, _RND)
        top = a[col]
        p = top[col]
        det = _mul(det, p)
        for r in range(col + 1, n):
            row = a[r]
            if mpf_eq(row[col], fzero):
                continue
            f = _div(row[col], p)
            for c2 in range(col, n):
                row[c2] = _sub(row[c2], _mul(f, top[c2]))
            scale = largest((scale, *row[col:]))
    return det, largest((scale, det))


def dot(a, c, w=None):
    """sum_k w[k] a[k] c[k] of tuples, with int weights `w` (none: all 1,
    and 1 * x is x), summed in order as `sum` sums mpfs."""
    s = fzero
    for k, x, y in zip(repeat(1) if w is None else w, a, c):
        if x != fzero and y != fzero:
            s = _add(s, _mul(x if k == 1 else _mul(x, from_int(k)), y))
    return s


def norm(v, w=None):
    """sqrt(dot(v, v, w)), the weighted Euclidean norm of tuples."""
    return mpf_sqrt(dot(v, v, w), _PREC, _RND)


def _above(n, scale):
    """True iff `n > REL_TOL * scale`: a norm that is not negligible."""
    return mpf_gt(n, _mul(_REL, scale))


def _gram(n1, n2, d12):
    """(gram, parallel) of two vectors of norms n1, n2 and dot product d12:
    gram = n1^2 n2^2 - d12^2, and parallel when sqrt(max(gram, 0)) is
    within REL_TOL n1 n2."""
    gram = _sub(_mul(_mul(_mul(n1, n1), n2), n2), _mul(d12, d12))
    root = mpf_sqrt(fzero if mpf_gt(fzero, gram) else gram, _PREC, _RND)
    return gram, mpf_le(root, _mul(_mul(_REL, n1), n2))


def residual(w, q1, q2, r, c1, c2):
    """(|r - c1 q1 - c2 q2| in the weighted norm, the largest |r[k]|,
    |c1 q1[k]| and |c2 q2[k]|) of tuples."""
    e = []
    terms = []
    for a, c, rv in zip(q1, q2, r):
        p1 = _mul(c1, a)
        p2 = _mul(c2, c)
        if p1 == fzero and p2 == fzero:
            e.append(rv)
        else:
            e.append(_sub(_sub(rv, p1), p2))
        terms += (rv, p1, p2)
    return norm(e, w), largest(terms)


def ls2(w, q1, q2, r):
    """Least-squares (L1, L2) minimizing |r - L1 q1 - L2 q2| at one point,
    where |v|^2 = sum_k w[k] v[k]^2: entry k stands for w[k] components.

    `q1`, `q2` and `r` are judged tuples, `w` ints.  L1, L2 and the residual
    are reported only as far as the 50 digits decide them: each snaps to an
    exact 0 when its share of the data (|L_k| |q_k|, or the residual
    itself) is within the zero threshold of the data scale, so no rounding
    noise of the sums reaches a report.  The record's numbers are tuples,
    an exact zero being `fzero`, except a rank-0 nullspace of ints.
    """
    n1, n2, nr = norm(q1, w), norm(q2, w), norm(r, w)
    scale = largest((n1, n2, nr))
    col1, col2 = _above(n1, scale), _above(n2, scale)
    d12 = dot(q1, q2, w)
    gram, parallel = _gram(n1, n2, d12)
    if not col1 and not col2:
        L1 = L2 = fzero
        null = [(1, 0), (0, 1)]
        rank = 0
    elif not col1 or not col2 or parallel:
        if not col1:
            L1, L2 = fzero, _div(dot(q2, r, w), _mul(n2, n2))
            null = [(fone, fzero)]
        elif not col2:
            L1, L2 = _div(dot(q1, r, w), _mul(n1, n1)), fzero
            null = [(fzero, fone)]
        else:
            rho = _div(d12, _mul(n1, n1))
            L1 = _div(_div(dot(q1, r, w), _mul(n1, n1)),
                      _add(_mul(rho, rho), fone))
            L2 = _mul(rho, L1)
            null = [(mpf_neg(rho, _PREC, _RND), fone)]
        rank = 1
    else:
        d1, d2 = dot(q1, r, w), dot(q2, r, w)
        L1 = _div(_sub(_mul(_mul(d1, n2), n2), _mul(d2, d12)), gram)
        L2 = _div(_sub(_mul(_mul(n1, n1), d2), _mul(d12, d1)), gram)
        null = []
        rank = 2
    res = residual(w, q1, q2, r, L1, L2)[0]
    tol = _threshold(scale)
    return {"L1": fzero if mpf_lt(_mul(mpf_abs(L1, _PREC, _RND), n1), tol) else L1,
            "L2": fzero if mpf_lt(_mul(mpf_abs(L2, _PREC, _RND), n2), tol) else L2,
            "residual": fzero if mpf_le(res, tol) else res, "rank": rank,
            "nullspace": null, "data_scale": scale}


def parallel_ratio(va, vb):
    """(dependent, ratio) of two vectors of tuples: dependent when either
    norm is negligible beside the other or they are parallel within
    REL_TOL; ratio, an mpf r with va = r vb, only when neither is
    negligible and they are parallel, else None."""
    na, nb = norm(va), norm(vb)
    scale = largest((na, nb))
    if not _above(na, scale) or not _above(nb, scale):
        return True, None
    d = dot(va, vb)
    if not _gram(na, nb, d)[1]:
        return False, None
    return True, as_mpf(_div(d, _mul(nb, nb)))


def rows_constant(rows):
    """True iff every row of tuples equals the first entrywise within
    REL_TOL * (1 + the largest magnitude in `rows`)."""
    scale = largest(x for row in rows for x in row)
    tol = _mul(_REL, _add(scale, fone))
    first = rows[0]
    return all(mpf_le(mpf_abs(_sub(x, x0), _PREC, _RND), tol)
               for row in rows for x, x0 in zip(row, first))


def weighted_ratio(pe, weights, nums, dens):
    """(numerator, denominator, ratio) tuples of sum_k w_k a_k / sum_k w_k b_k
    at pe's point, for rational weights w_k and expressions a_k (`nums`) and
    b_k (`dens`); the ratio is None when the denominator is negligible beside
    the larger scale of the two sums, a sum's scale being the largest
    |w_k a_k| and m_k |w_k| of its terms (m_k: the largest intermediate
    magnitude of a_k).  Terms are summed in order; a literal 0 adds none."""
    wts = [to_tuple(w) for w in weights]

    def contract(exprs):
        total = scale = fzero
        for e, w in zip(exprs, wts):
            if e is ZERO:
                continue
            t, m = pe._scaled(e)
            term = _mul(t, w)
            total = _add(total, term)
            scale = largest((scale, term, _mul(m, (0, w[1], w[2], w[3]))))
        return total, scale

    (num, s1), (den, s2) = contract(nums), contract(dens)
    if negligible(den, largest((s1, s2))):
        return num, den, None
    return num, den, _div(num, den)


# ---------------------------------------------------------------------------
# Sampling and the zero test


def sample_box_points(coords, box, k, seed, params=None):
    """Deterministic rational sample points from a per-coordinate box.

    Returns a list of env dicts (coordinates plus fixed parameter values).
    Missing box entries fall back to DEFAULT_BOX.  Coordinate c takes
    lo + (hi - lo) r / _GRID for a random int r in [0, _GRID], computed
    over the common denominator lo_d hi_d _GRID in ints: one Fraction per
    value, which reduces it.
    """
    box = box or {}
    rng = random.Random(seed)
    # per coordinate (lo_n hi_d _GRID, hi_n lo_d - lo_n hi_d, denominator)
    spans = []
    for c in coords:
        lo, hi = box.get(c, DEFAULT_BOX)
        lo, hi = Fraction(lo), Fraction(hi)
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        spans.append((c, ln * hd * _GRID, hn * ld - ln * hd, ld * hd * _GRID))
    fixed = {k2: Fraction(v) for k2, v in (params or {}).items()}
    pts = []
    for _ in range(k):
        env = {c: Fraction(a + b * rng.randint(0, _GRID), d) for c, a, b, d in spans}
        env.update(fixed)
        pts.append(env)
    return pts


def zero_threshold(scale):
    """Tolerance of the zero test for an aggregate of magnitude `scale` (a
    number, read as `to_tuple` reads it), as an mpf of MP.

    The engine judges with `PointEval.judged` and `negligible` instead.
    """
    return as_mpf(_threshold(to_tuple(scale)))


def is_zero(e, coords=None, box=None, params=None, trials=8, seed=DEFAULT_SEED):
    """Randomized high-precision zero test of one expression; see is_zero_many."""
    if coords is None:
        coords = tuple(sorted(free_coords(e)))
    return is_zero_many([e], coords, box, params, trials, seed)[0]


class ZeroTest:
    """Componentwise zero test of `exprs`, fed one evaluator per sample point.

    `visit(pe)` judges at pe's point every expression not yet found
    nonzero, skipping those undefined there; `result()` gives the verdicts.
    An expression is zero iff every domain-valid visited point judges it
    zero; a literal 0 is zero and valid without sampling.  A caller that
    evaluates more at each point shares the evaluator (and its memo) with
    the test.
    """

    def __init__(self, exprs):
        self._zero = [True] * len(exprs)
        self._valid = [is_literal_zero(e) for e in exprs]
        self._sampled = [(i, e) for i, e in enumerate(exprs) if not self._valid[i]]

    def visit(self, pe):
        zero, valid, judged = self._zero, self._valid, pe.judged
        for i, e in self._sampled:
            if zero[i]:
                try:
                    zero[i] = judged(e) is fzero
                except DomainError:
                    continue
                valid[i] = True

    def undefined(self):
        """One boolean per expression: True iff no visited point defined it."""
        return [z and not v for z, v in zip(self._zero, self._valid)]

    def result(self):
        """One boolean per expression; InconclusiveError if some expression
        had no domain-valid point."""
        if any(self.undefined()):
            raise InconclusiveError("all sampled points violated domain constraints")
        return self._zero


def sweep(points, visitors):
    """Feed every visitor one shared evaluator per point, point by point, so
    that only one evaluator (and its memo) is alive at a time."""
    for pt in points:
        pe = PointEval(pt)
        for v in visitors:
            v.visit(pe)


def is_zero_many(exprs, coords, box=None, params=None, trials=8, seed=DEFAULT_SEED):
    """Componentwise zero test sharing sample points and evaluation memo.

    Returns a list of booleans, one per expression.  Raises
    InconclusiveError if some expression had no domain-valid point.
    """
    test = ZeroTest(exprs)
    sweep(sample_box_points(coords, box, trials, seed, params=params), [test])
    return test.result()

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
table `_NODES` is a plain dict from a node's key to a `weakref.KeyedRef` of
the node.  The key is the class and the fields, with a rational field
entered as its (numerator, denominator) ints, so a lookup hashes and
compares only ints, strings and node identities.  When a node dies its
ref's callback removes the entry, unless a rebuilt node holds the key by
then.  The smart constructors fold constants: they decide zero, one and
sign by identity (`is ZERO`, `is ONE`) or by the sign of a numerator, and
do Fraction arithmetic only when two constants fold into one.

Constants are exact rationals throughout.  Evaluation uses an exact rational
fast path when the tree is rational and otherwise mpfs of `MP`, one mpmath
context at DPS = 50 significant digits: every number the engine makes
carries that precision, so no caller sets one and the ambient `mpmath.mp`
precision changes no value and no verdict.  Inside `PointEval` the inexact
values are raw `mpmath.libmp` tuples at that precision, combined by the libmp
functions the mpf operators call, and become mpfs only when returned.

The zero test samples deterministic rational points from a box (default
[1/3, 2] per coordinate) and accepts `|value| <= 1e-30 * (1 + m)` where m
is the largest intermediate magnitude seen while evaluating.  A point where
an exp argument exceeds MAX_EXP_ARG in magnitude is undefined, like one
outside the domain of log.

`PointEval.judge` is the one place where a sampled value is judged zero:
every per-component verdict (the zero test, the identity catalog, the
(L1, L2) fit, the warped-product conditions) is built on it, and
`ZeroTest` folds its verdicts over the sample points.  This module
also owns the mpmath contexts, the single Fraction-to-mpf conversion
(`to_mpf`, at any context `_as_mpf`) and the single literal-zero predicate
(`is_literal_zero`).  Parsed text is capped at MAX_NESTING levels, counting
both parentheses and chained divisions.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from operator import add as _fraction_add, mul as _fraction_mul
from weakref import KeyedRef

import mpmath
from mpmath.libmp import (
    fone, from_int, fzero, mpf_abs, mpf_add, mpf_cos, mpf_div, mpf_eq, mpf_exp,
    mpf_gt, mpf_log, mpf_lt, mpf_mul, mpf_neg, mpf_pow, mpf_pow_int, mpf_sin)

sys.setrecursionlimit(max(sys.getrecursionlimit(), 100000))

DEFAULT_SEED = 0xC0FFEE
DEFAULT_BOX = (Fraction(1, 3), Fraction(2))
DPS = 50  # significant digits of every evaluation and verdict
_ZERO_TOL = "1e-30"
_GRID = 1024  # denominator of sampled rational offsets
MAX_NESTING = 1000  # nesting levels accepted by the parser
MAX_EXP_ARG = 2 ** 32  # largest |argument| of exp at which a point is defined
_CONTEXTS = {}
_NODES = {}  # intern key -> KeyedRef of the live node; see Expr


def _context(dps):
    """The mpmath context of `dps` significant digits, made once per `dps`."""
    ctx = _CONTEXTS.get(dps)
    if ctx is None:
        ctx = _CONTEXTS[dps] = mpmath.MPContext()
        ctx.dps = dps
    return ctx


# Every number the engine makes is an mpf of MP: its arithmetic and its
# functions (MP.sqrt, MP.nstr, ...) run at DPS digits whatever mpmath.mp is.
MP = _context(DPS)
REL_TOL = MP.mpf("1e-20")  # relative tolerance of dependence and constancy


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


# ---------------------------------------------------------------------------
# Node types


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
    _NODES[key] = KeyedRef(node, _forget, key)
    return node


class Expr:
    """An immutable, hash-consed node: equal trees are one object.

    Constructing a node whose class and fields match a live node returns
    that node, so equality and hashing are identity (the `object` defaults)
    and memos keyed by node are sound.  The table maps the key
    (class, *fields) to a `KeyedRef` of the node, a rational field entering
    the key as its numerator and denominator, so no lookup hashes or
    compares a Fraction.  Nodes are held weakly and die with the last tree
    that uses them; the dying node's callback deletes its entry only while
    the entry is still its own ref, so a node rebuilt under the same key
    stays.  A subclass lists its `_fields` and at most normalizes them
    before `_intern`.
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
        return _intern(cls, (cls, value.numerator, value.denominator), (value,))


class Coord(Expr):
    __slots__ = _fields = ("name",)


class Param(Expr):
    __slots__ = _fields = ("name",)


class Add(Expr):
    __slots__ = _fields = ("terms",)

    def __new__(cls, terms):
        terms = tuple(terms)
        return _intern(cls, (cls, terms), (terms,))


class Mul(Expr):
    __slots__ = _fields = ("factors",)

    def __new__(cls, factors):
        factors = tuple(factors)
        return _intern(cls, (cls, factors), (factors,))


class Pow(Expr):
    __slots__ = _fields = ("base", "exponent")

    def __new__(cls, base, exponent):
        if type(exponent) is not Fraction:
            exponent = Fraction(exponent)
        return _intern(cls, (cls, base, exponent.numerator, exponent.denominator),
                       (base, exponent))


class Neg(Expr):
    __slots__ = _fields = ("child",)


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


def const(v):
    return Const(v)


def add(*terms):
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
                c = u if c is ZERO else Const(c.value + u.value)
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
    c = ONE  # the product of the constant factors
    rest = []
    for f in factors:
        for g in f.factors if type(f) is Mul else (f,):
            if type(g) is not Const:
                rest.append(g)
            elif g is ZERO:
                return ZERO
            elif g is not ONE:
                c = g if c is ONE else Const(c.value * g.value)
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
        return Neg(x)
    if x is ZERO:
        return x
    v = x.value
    ref = _NODES.get((Const, -v.numerator, v.denominator))
    node = None if ref is None else ref()
    return Const(-v) if node is None else node


def sub(a, b):
    return add(a, neg(b))


def div(a, b):
    if type(b) is Const:
        if b is ZERO:
            raise DomainError("division by literal zero")
        if b is ONE:
            return a
        if type(a) is Const:
            return Const(a.value / b.value)
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
    if d == 1 and n == 1:
        return base
    if d == 1 and n == 0:
        return ONE
    if type(base) is Const:
        if base is ZERO and n < 0:
            raise DomainError("zero base with negative exponent")
        if d == 1:
            return Const(base.value ** n)
        if base is ZERO or base is ONE:
            return base
    if type(base) is Pow and d == 1:
        return pow_(base.base, base.exponent * n)
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


class _Renderer:
    """Renders one tree for one to_str call, each distinct node once.

    `_text(e)` is the text of a non-leaf node, except that a Neg's text is
    its operand as a negated term shows it, without the '-'.  Rendering a
    parent asks for the text of each of its non-leaf children exactly once,
    so the text of a node with k parents is kept in the memo from its first
    use until the k-th, then dropped.
    """

    def __init__(self, root):
        parents = {}
        stack = [root]
        while stack:
            for c in _children(stack.pop()):
                if isinstance(c, _LEAVES):
                    continue
                if c in parents:
                    parents[c] += 1
                else:
                    parents[c] = 1
                    stack.append(c)
        self._uses_left = {k: v for k, v in parents.items() if v > 1}
        self._memo = {}

    def _text(self, e):
        left = self._uses_left.get(e)
        if left is None:
            return self._render(e)
        if left == 1:
            del self._uses_left[e]
            return self._memo.pop(e)
        self._uses_left[e] = left - 1
        s = self._memo.get(e)
        if s is None:
            s = self._memo[e] = self._render(e)
        return s

    def _render(self, e):
        if isinstance(e, Neg):
            c = e.child
            return "(" + self._text(c) + ")" if isinstance(c, Add) else self._fmt_atom(c)
        if isinstance(e, Add):
            return self._fmt_terms(e)
        return self._fmt_compound(e)

    def _fmt_sum(self, e):
        if isinstance(e, Add):
            return self._text(e)
        return self._fmt_signed_term(e)

    def _fmt_atom(self, e):
        if isinstance(e, Const):
            return _fmt_number(e.value)
        if isinstance(e, (Coord, Param)):
            return e.name
        if isinstance(e, (Add, Neg)):
            raise TypeError(f"unexpected node in factor position: {e!r}")
        return self._text(e)

    def _fmt_factor(self, f, first):
        if _needs_parens_as_factor(f, first):
            return "(" + self._fmt_sum(f) + ")"
        return self._fmt_atom(f)

    def _fmt_compound(self, e):
        if isinstance(e, _Func):
            return f"{e.fname}({self._fmt_sum(e.child)})"
        if isinstance(e, Pow):
            return self._fmt_pow(e)
        if isinstance(e, Mul):
            return "*".join(self._fmt_factor(f, i == 0) for i, f in enumerate(e.factors))
        if isinstance(e, Div):
            return self._fmt_div(e)
        raise TypeError(f"unexpected node in factor position: {e!r}")

    def _fmt_pow(self, e):
        b = e.base
        if isinstance(b, (Add, Mul, Div, Neg, Pow)) or (
            isinstance(b, Const) and (b.value < 0 or b.value.denominator != 1)
        ):
            bs = "(" + self._fmt_sum(b) + ")"
        else:
            bs = self._fmt_atom(b)
        exp = e.exponent
        if exp.denominator == 1 and exp >= 0:
            return f"{bs}^{exp.numerator}"
        return f"{bs}^({_fmt_number(exp)})"

    def _fmt_div(self, e):
        left = e.num
        if isinstance(left, (Add, Neg)) or (isinstance(left, Const) and left.value < 0):
            ls = "(" + self._fmt_sum(left) + ")"
        else:
            ls = self._fmt_atom(left)
        right = e.den
        naked = (
            isinstance(right, (Coord, Param, _Func, Pow))
            or (isinstance(right, Const) and right.value >= 0 and right.value.denominator == 1)
        )
        rs = self._fmt_atom(right) if naked else "(" + self._fmt_sum(right) + ")"
        return f"{ls}/{rs}"

    def _fmt_signed_term(self, t):
        """Render a term in leading position; leading '-' applies to the whole term."""
        if isinstance(t, Neg):
            return "-" + self._text(t)
        if isinstance(t, Const) and t.value < 0:
            return "-" + _fmt_number(-t.value)
        if isinstance(t, Add):
            return "(" + self._text(t) + ")"
        return self._fmt_atom(t)

    def _fmt_terms(self, e):
        parts = [self._fmt_signed_term(e.terms[0])]
        for t in e.terms[1:]:
            if isinstance(t, Neg):
                parts.append(" - " + self._text(t))
            elif isinstance(t, Const) and t.value < 0:
                parts.append(" - " + _fmt_number(-t.value))
            else:
                parts.append(" + " + self._fmt_signed_term(t))
        return "".join(parts)


def to_str(e):
    """The text of `e`; it parses back to an equal tree.

    The renderer first counts the parents of every distinct node, then walks
    each distinct node once: the text of a node with several parents is
    memoized from its first use and dropped after its last parent's, and
    the renderer and its memo live only for this call.
    """
    return _Renderer(e)._fmt_sum(e)


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
        out = div(sub(mul(du, e.den), mul(e.num, dv)), pow_(e.den, 2))
    elif isinstance(e, Pow):
        db = diff(e.base, name, memo)
        x = e.exponent
        out = ZERO if db is ZERO else mul(Const(x), pow_(e.base, x - 1), db)
    elif isinstance(e, Exp):
        out = mul(e, diff(e.child, name, memo))
    elif isinstance(e, Log):
        out = div(diff(e.child, name, memo), e.child)
    elif isinstance(e, Sin):
        out = mul(cos_(e.child), diff(e.child, name, memo))
    elif isinstance(e, Cos):
        out = neg(mul(sin_(e.child), diff(e.child, name, memo)))
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


def _as_mpf(MP, v):
    """`v`, an exact Fraction or a number, as an mpf of the context `MP`."""
    if isinstance(v, Fraction):
        return MP.mpf(v.numerator) / MP.mpf(v.denominator)
    return MP.mpf(v)


def to_mpf(v):
    """An exact Fraction or a number as an mpf of `MP`, at DPS digits."""
    return _as_mpf(MP, v)


_MPF_FUNCS = {Exp: mpf_exp, Log: mpf_log, Sin: mpf_sin, Cos: mpf_cos}
_MAX_EXP_MPF = from_int(MAX_EXP_ARG)


class PointEval:
    """Memoizing evaluator bound to one point (shared across expressions).

    Values are exact Fractions when the subtree is rational, otherwise mpfs
    of the mpmath context of `dps` digits (`MP` at the default DPS), so
    the ambient `mpmath.mp` precision never enters.  Each value comes with
    the largest intermediate magnitude in its subtree so zero tests can
    scale their tolerance.

    Inside, the walk computes on raw `mpmath.libmp` tuples (`_mpf_`) at
    the context's precision and rounding, calling the libmp functions the
    mpf operators call, so every value is bit-identical to mpf arithmetic.
    A memo entry is (value, its tuple, magnitude tuple): a rational node is
    rounded to its tuple once and kept next to its exact value, and mpfs
    are made only for the values that `eval`, `eval_scaled` and `judge`
    return.  The memo is keyed by node: nodes are interned, so a subtree
    shared by several expressions is evaluated once, and the memo keeps its
    keys alive for as long as it lives.  An exp argument beyond
    MAX_EXP_ARG in magnitude makes the point undefined (DomainError) before
    mpmath is called.
    """

    def __init__(self, env, dps=DPS):
        self.env = {}
        for k, v in env.items():
            if isinstance(v, int):
                v = Fraction(v)
            self.env[k] = v
        self._ctx = _context(dps)
        self._prec, self._rnd = self._ctx._prec_rounding
        self._memo = {}
        self._tol = self._ctx.mpf(_ZERO_TOL)._mpf_

    def eval_scaled(self, e):
        """(value, largest intermediate magnitude) of `e` at this point."""
        v, _, m = self._walk(e)
        make = self._ctx.make_mpf
        return (v if type(v) is Fraction else make(v)), make(m)

    def eval(self, e):
        return self.eval_scaled(e)[0]

    def judge(self, e):
        """Value of `e` here as an mpf, snapped to exact 0 when it is zero.

        The value is judged zero when `|value| <= 1e-30 * (1 + m)`, m being
        the largest intermediate magnitude; "nonzero" is `judge(e) != 0`.
        Raises DomainError when `e` is undefined at this point.
        """
        _, m = self.eval_scaled(e)
        t = self._memo[e][1]  # the tuple eval_scaled just stored
        prec, rnd = self._prec, self._rnd
        bound = mpf_mul(self._tol, mpf_add(m._mpf_, fone, prec, rnd), prec, rnd)
        if mpf_gt(mpf_abs(t, prec, rnd), bound):
            return self._ctx.make_mpf(t)
        return self._ctx.zero

    def _round(self, v):
        """The tuple of `v`, an exact Fraction or a number, at this precision.

        A Fraction is rounded as `_as_mpf` rounds it, numerator and
        denominator first and then their quotient, without making mpfs."""
        if type(v) is Fraction:
            prec, rnd = self._prec, self._rnd
            return mpf_div(from_int(v.numerator, prec, rnd),
                           from_int(v.denominator, prec, rnd), prec, rnd)
        return _as_mpf(self._ctx, v)._mpf_

    def _walk(self, e):
        """(value, its tuple, magnitude tuple) of `e`; the value is a Fraction
        when the subtree is rational, else the tuple itself."""
        hit = self._memo.get(e)
        if hit is not None:
            return hit
        walk = self._walk
        prec, rnd = self._prec, self._rnd
        cls = type(e)
        if cls is Add or cls is Mul:
            # the accumulator starts from the first child: x + 0 and x * 1
            # are x exactly at full precision
            if cls is Add:
                kids, exact, inexact = iter(e.terms), _fraction_add, mpf_add
            else:
                kids, exact, inexact = iter(e.factors), _fraction_mul, mpf_mul
            v, t, m = walk(next(kids))
            for k in kids:
                kv, kt, km = walk(k)
                if type(v) is Fraction and type(kv) is Fraction:
                    v = exact(v, kv)
                    t = None
                else:
                    if t is None:
                        t = self._round(v)
                    v = t = inexact(t, kt, prec, rnd)
                if mpf_gt(km, m):
                    m = km
            if t is None:
                t = self._round(v)
            mg = mpf_abs(t, prec, rnd)
            out = (v, t, m if mpf_gt(m, mg) else mg)
        elif cls is Neg:
            cv, ct, cm = walk(e.child)
            # rounding to nearest is symmetric, so for a Fraction this is
            # also the tuple of -cv
            t = mpf_neg(ct, prec, rnd)
            out = (-cv if type(cv) is Fraction else t, t, cm)
        elif cls is Const or cls is Coord or cls is Param:
            if cls is Const:
                v = e.value
            else:
                try:
                    v = self.env[e.name]
                except KeyError:
                    raise EvalError(f"unbound variable {e.name!r}") from None
            t = self._round(v)
            out = (v if type(v) is Fraction else t, t, mpf_abs(t, prec, rnd))
        elif cls is Div:
            nv, nt, nm = walk(e.num)
            dv, dt, dm = walk(e.den)
            if mpf_eq(dt, fzero):
                raise DomainError("division by zero")
            if type(nv) is Fraction and type(dv) is Fraction:
                v = nv / dv
                t = self._round(v)
            else:
                v = t = mpf_div(nt, dt, prec, rnd)
            mg = mpf_abs(t, prec, rnd)
            m = dm if mpf_gt(dm, nm) else nm
            out = (v, t, mg if mpf_gt(mg, m) else m)
        elif cls is Pow:
            bv, bt, bm = walk(e.base)
            x = e.exponent
            if mpf_eq(bt, fzero) and x < 0:
                raise DomainError("zero base with negative exponent")
            if x.denominator == 1:
                if type(bv) is Fraction:
                    v = bv ** x.numerator
                    t = self._round(v)
                else:
                    v = t = mpf_pow_int(bt, x.numerator, prec, rnd)
            elif mpf_lt(bt, fzero):
                raise DomainError("negative base with fractional exponent")
            elif type(bv) is Fraction and bv == 0:
                v, t = bv, bt
            else:
                v = t = mpf_pow(bt, self._round(x), prec, rnd)
            mg = mpf_abs(t, prec, rnd)
            out = (v, t, mg if mpf_gt(mg, bm) else bm)
        else:
            f = _MPF_FUNCS.get(cls)
            if f is None:
                raise TypeError(f"cannot evaluate {e!r}")
            cv, ct, cm = walk(e.child)
            if cls is Log and not mpf_gt(ct, fzero):
                raise DomainError("log of non-positive value")
            # a Fraction just above the bound may round onto it: compare it exactly
            if cls is Exp and (abs(cv) > MAX_EXP_ARG if type(cv) is Fraction
                               else mpf_gt(mpf_abs(ct, prec, rnd), _MAX_EXP_MPF)):
                raise DomainError("exp argument too large")
            t = f(ct, prec, rnd)
            mg = mpf_abs(t, prec, rnd)
            out = (t, t, mg if mpf_gt(mg, cm) else cm)
        self._memo[e] = out
        return out


def evaluate(e, env):
    """Evaluate at a point; exact Fraction when possible, else an mpf of MP."""
    return PointEval(env).eval(e)


# ---------------------------------------------------------------------------
# Sampling and the zero test


def sample_box_points(coords, box, k, seed, params=None):
    """Deterministic rational sample points from a per-coordinate box.

    Returns a list of env dicts (coordinates plus fixed parameter values).
    Missing box entries fall back to DEFAULT_BOX.
    """
    box = box or {}
    rng = random.Random(seed)
    pts = []
    for _ in range(k):
        env = {}
        for c in coords:
            lo, hi = box.get(c, DEFAULT_BOX)
            lo = Fraction(lo)
            hi = Fraction(hi)
            env[c] = lo + (hi - lo) * Fraction(rng.randint(0, _GRID), _GRID)
        if params:
            env.update({k2: Fraction(v) for k2, v in params.items()})
        pts.append(env)
    return pts


def zero_threshold(scale):
    """Tolerance of the zero test for an aggregate of magnitude `scale`.

    Per-component verdicts go through `PointEval.judge` instead.
    """
    return MP.mpf(_ZERO_TOL) * (1 + scale)


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
        zero, valid = self._zero, self._valid
        for i, e in self._sampled:
            if zero[i]:
                try:
                    zero[i] = pe.judge(e) == 0
                except DomainError:
                    continue
                valid[i] = True

    def result(self):
        """One boolean per expression; InconclusiveError if some expression
        had no domain-valid point."""
        if any(z and not v for z, v in zip(self._zero, self._valid)):
            raise InconclusiveError("all sampled points violated domain constraints")
        return self._zero


def is_zero_many(exprs, coords, box=None, params=None, trials=8, seed=DEFAULT_SEED):
    """Componentwise zero test sharing sample points and evaluation memo.

    A `ZeroTest` visits the sampled points one at a time, so only one
    evaluation memo is alive.  Returns a list of booleans, one per
    expression.  Raises InconclusiveError if some expression had no
    domain-valid point.
    """
    test = ZeroTest(exprs)
    for pt in sample_box_points(coords, box, trials, seed, params=params):
        test.visit(PointEval(pt))
    return test.result()

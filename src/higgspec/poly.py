"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is stored in one canonical form: a positive rational content
num / den in lowest terms times a primitive integer polynomial, a dict from
exponent vectors to ints whose gcd is one (the zero polynomial has an empty
dict).  Mathematical equality of polynomials therefore coincides with
equality of (content, dict).  Leading terms, normalisation and serialisation
all use the graded lexicographic order.  The public views (``terms``,
``content``, ``leading_coefficient``, ...) give ``Fraction`` values; no
arithmetic kernel builds one.

Floating point is rejected everywhere; the scalar field is Q.

A product of primitive polynomials is primitive (Gauss's lemma), so a
multiply multiplies the contents and the integer parts and needs no gcd pass;
a sum brings both operands to a common content and takes one gcd.
Multiplication, division and the gcd pack each exponent vector into one int
(_pack, _unpack).  The one division, _div_packed, is a heap division on
those ints; exact_div runs it on the primitive parts, which is exact over Q
by Gauss's lemma.  The gcd is the heuristic integer gcd GCDHEU (Char, Geddes
& Gonnet, J. Symb. Comput. 7, 1989), one variable at a time (Liao & Fateman,
ISSAC 1995), the one gcd route, and _div_packed checks every answer it
gives; when it gives up at its image cap _HEU_MAX_BITS, the gcd raises
DegreeCapExceeded.  The quotients of those checks are the gcd's cofactors:
poly_gcd(p1, ..., pk) returns (g, p1/g, ..., pk/g), with the rational
contents carried, so g * (pi/g) == pi exactly.  Zero operands get zero
cofactors, and the gcd of zeros alone is zero.  The squarefree
decomposition (Yun's algorithm) and the covector normalisation of the
spectral layer take their quotients from these cofactors.  Parsed
polynomials are capped at total degree MAX_PARSED_DEGREE.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Mapping
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add

from .errors import DegreeCapExceeded, DivisionFailure, ZeroPolynomial, _typed

# Largest total degree a parsed polynomial may have.  Work in the squarefree
# decomposition (one pass per multiplicity) and the size of the gcd's
# evaluation images grow with the degree, so larger input is refused at once.
MAX_PARSED_DEGREE = 1024

_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")


def _rational_parts(text: str):
    """(p, q) of the one rational grammar of configs: [+-]?digits(/digits)?, q != 0."""
    m = _RATIONAL_RE.match(text)
    if m is None:
        raise ValueError(f"bad rational {text!r}: expected p or p/q")
    num, den = m.groups()
    den = int(den or 1)
    if not den:
        raise ValueError(f"bad rational {text!r}: zero denominator")
    return int(num), den


def _coerce_coeff(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int) and not isinstance(c, bool):
        return Fraction(c)
    raise TypeError(f"coefficients must be Fraction or int, got {type(c).__name__}")


def _is_scalar(c):
    return isinstance(c, (int, Fraction)) and not isinstance(c, bool)


def frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Nonnegative gcd on Q: gcd(p/q, r/s) = gcd(p*s, r*q) / (q*s)."""
    if not a:
        return abs(b)
    if not b:
        return abs(a)
    return Fraction(
        math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


def _grlex_key(e):
    return (sum(e), e)


def _lowest(num, den):
    g = math.gcd(num, den)
    return (num // g, den // g) if g > 1 else (num, den)


# -- packed integer polynomials --------------------------------------------------
#
# The multiply, gcd and division kernels run on dicts mapping an int key to an
# int coefficient.  A key packs an exponent vector w bits per variable, the
# first variable highest, so keys add as monomials multiply and compare as the
# exponent vectors do in lex order.


def _pack(ints, w):
    """ints with every exponent vector packed into w-bit fields."""
    keys = []
    for e in ints:
        k = 0
        for x in e:
            k = (k << w) | x
        keys.append(k)
    return dict(zip(keys, ints.values()))


def _unpack(ints, n, w):
    """ints with packed keys of n fields of w bits turned back into tuples; zeros are dropped.

    Charts have at most four variables, and those key layouts are spelled
    out: a tuple display is several times faster than a loop over shifts.
    """
    m = (1 << w) - 1
    items = ints.items()
    if n == 1:
        return {(k,): v for k, v in items if v}
    if n == 2:
        return {(k >> w, k & m): v for k, v in items if v}
    w2, w3 = 2 * w, 3 * w
    if n == 3:
        return {(k >> w2, k >> w & m, k & m): v for k, v in items if v}
    if n == 4:
        return {(k >> w3, k >> w2 & m, k >> w & m, k & m): v for k, v in items if v}
    shifts = range(w * (n - 1), -1, -w)
    return {tuple([(k >> s) & m for s in shifts]): v for k, v in items if v}


def _pack_pair(a, b):
    """(packed a, packed b, w, guard): every field gets a spare top bit, set in guard."""
    w = max(map(max, (*a._ints, *b._ints))).bit_length() + 1
    guard = sum(1 << (w * i + w - 1) for i in range(a.nvars))
    return _pack(a._ints, w), _pack(b._ints, w), w, guard


def _box(f, n, w):
    """Per-field maxima of f's exponents, packed."""
    mask = (1 << w) - 1
    box = 0
    for s in range(w * (n - 1), -1, -w):
        box = (box << w) | max([(k >> s) & mask for k in f])
    return box


def _div_packed(a, b, n, w, guard):
    """Divide a by b in Z[x], for packed int dicts: (quotient, divides).

    Heap division (Johnson 1974; Monagan & Pearce, J. Symb. Comput. 2011):
    keys compare as integers in lex order, so the largest remainder key is
    the leading term, and a heap holds the remainder keys.  Every field has
    a spare top bit (guard): a quotient exponent that would go negative, or
    past deg a - deg b, clears it, and the division fails at once, as it
    does when a leading coefficient of b does not divide one of the
    remainder.  On failure the quotient is the partial one reached so far.
    """
    q = {}
    room = (_box(a, n, w) | guard) - _box(b, n, w)
    if room & guard != guard:
        return q, False
    room ^= guard
    lb = max(b)
    cb = b[lb]
    rest = [(k, c) for k, c in b.items() if k != lb]
    r = dict(a)
    heap = [-k for k in r]
    heapify(heap)
    while heap:
        k = -heappop(heap)
        c = r.pop(k)
        if not c:
            continue
        m = (k | guard) - lb
        if m & guard != guard:
            return q, False
        m ^= guard
        if ((room | guard) - m) & guard != guard:
            return q, False
        qc, rem = divmod(c, cb)
        if rem:
            return q, False
        q[m] = qc
        # keys m + kb all lie below k: nothing popped comes back
        for kb, c2 in rest:
            kk = m + kb
            old = r.get(kk)
            if old is None:
                r[kk] = -qc * c2
                heappush(heap, -kk)
            else:
                r[kk] = old - qc * c2
    return q, True


# -- term kernels ----------------------------------------------------------------
#
# All operate on integer parts (dicts mapping exponent tuples to nonzero ints)
# and never mutate their arguments: a Poly's dict may be shared by others.


def _combine(a, ka, b, kb):
    """ka * a + kb * b for integer parts a, b and nonzero ints ka, kb."""
    out = {e: v * ka for e, v in a.items()} if ka != 1 else dict(a)
    get = out.get
    for e, v in b.items():
        s = get(e, 0) + v * kb
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _mul_ints(a, b, n):
    """Product of two nonempty integer parts in n variables.

    When the shorter operand has at most two terms, each term pair is formed
    directly: packing both operands would cost more than it saves.  Otherwise
    each operand is packed (_pack), with w wide enough for any exponent of
    the product; a monomial product is then one int add, and the inner loop
    touches ints only (Monagan & Pearce, CASC 2007).
    """
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= 2:
        out = {}
        get = out.get
        for ea, va in a.items():
            for eb, vb in b.items():
                e = tuple(map(add, ea, eb))
                c = get(e, 0) + va * vb
                if c:
                    out[e] = c
                else:
                    del out[e]
        return out
    w = (max(map(sum, a)) + max(map(sum, b))).bit_length()
    pa = _pack(a, w)
    pb = list(_pack(b, w).items())
    acc = {}
    get = acc.get
    for ka, va in pa.items():
        for kb, vb in pb:
            k = ka + kb
            acc[k] = get(k, 0) + va * vb
    return _unpack(acc, n, w)


class _Terms(Mapping):
    """Read-only view of a Poly's terms: exponent tuple -> Fraction.

    Length, iteration and membership read the integer part only; a
    coefficient becomes a Fraction when it is looked up.
    """

    __slots__ = ("_p",)

    def __init__(self, p):
        self._p = p

    def __len__(self):
        return len(self._p._ints)

    def __iter__(self):
        return iter(self._p._ints)

    def __contains__(self, e):
        return e in self._p._ints

    def __getitem__(self, e):
        p = self._p
        return Fraction(p._ints[e] * p._num, p._den)

    def __repr__(self):
        return repr(dict(self.items()))


class Poly:
    """Canonical multivariate polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "_ints", "_num", "_den", "_hash")

    def __init__(self, nvars: int, terms=None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean = {}
        for e, c in (terms or {}).items():
            e = tuple(e)
            if len(e) != nvars:
                raise ValueError(f"exponent vector {e} has length {len(e)}, expected {nvars}")
            if any((not isinstance(k, int)) or k < 0 for k in e):
                raise ValueError(f"exponents must be nonnegative integers: {e}")
            c = _coerce_coeff(c)
            if c:
                prev = clean.get(e)
                if prev is None:
                    clean[e] = c
                else:
                    s = prev + c
                    if s:
                        clean[e] = s
                    else:
                        del clean[e]
        den = math.lcm(*[c.denominator for c in clean.values()])
        ints = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self._set(nvars, *_primitive_split(ints, 1, den))

    def _set(self, nvars, ints, num, den):
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _raw(cls, nvars, ints, num=1, den=1):
        # internal: ints primitive with no zero value, num / den > 0 in lowest terms
        self = object.__new__(cls)
        self._set(nvars, ints, num, den)
        return self

    @classmethod
    def _make(cls, nvars, ints, num=1, den=1):
        # internal: num / den * ints for any int dict with no zero value, num, den > 0
        self = object.__new__(cls)
        self._set(nvars, *_primitive_split(ints, num, den))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def terms(self) -> Mapping:
        """Read-only mapping exponent tuple -> nonzero Fraction coefficient."""
        return _Terms(self)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls._raw(nvars, {})

    @classmethod
    def one(cls, nvars):
        return cls._raw(nvars, {(0,) * nvars: 1})

    @classmethod
    def constant(cls, nvars, c):
        c = _coerce_coeff(c)
        if not c:
            return cls._raw(nvars, {})
        return cls._raw(nvars, {(0,) * nvars: 1 if c > 0 else -1}, abs(c.numerator), c.denominator)

    @classmethod
    def variable(cls, nvars, i):
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for nvars={nvars}")
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls._raw(nvars, {e: 1})

    # -- predicates and views ----------------------------------------------

    def is_zero(self):
        return not self._ints

    def is_constant(self):
        t = self._ints
        return not t or (len(t) == 1 and not any(next(iter(t))))

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(next(iter(self._ints.values())) * self._num, self._den)

    def total_degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self._ints:
            return -1
        return max(map(sum, self._ints))

    def degree_in(self, v):
        if not self._ints:
            return -1
        return max(e[v] for e in self._ints)

    def leading_exponent(self):
        if not self._ints:
            raise ZeroPolynomial("zero polynomial has no leading term")
        return max(self._ints, key=_grlex_key)

    def leading_coefficient(self) -> Fraction:
        return Fraction(self._ints[self.leading_exponent()] * self._num, self._den)

    def content(self) -> Fraction:
        """Nonnegative gcd of all coefficients (0 for the zero polynomial).

        Over Q this is gcd(numerators) / lcm(denominators): the stored
        content, since the integer part has gcd one.
        """
        if not self._ints:
            return Fraction(0)
        return Fraction(self._num, self._den)

    def primitive(self):
        """Split off the signed rational content.

        Returns ``(content, prim)`` with ``content * prim == self``, ``prim``
        of content one and positive leading coefficient.
        """
        if self.is_zero():
            return Fraction(0), self
        prim = _prim(self)
        sign = 1 if prim._ints is self._ints else -1
        return Fraction(sign * self._num, self._den), prim

    # -- arithmetic ---------------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError(f"nvars mismatch: {self.nvars} vs {other.nvars}")
            return other
        if _is_scalar(other):
            return Poly.constant(self.nvars, other)
        return None

    def _plus(self, other, sign):
        """self + sign * other."""
        if not other._ints:
            return self
        if not self._ints:
            return other if sign > 0 else -other
        na, da, nb, db = self._num, self._den, other._num, other._den
        if na == nb and da == db:
            g, den, ka, kb = na, da, 1, sign
        else:
            g, den = math.gcd(na, nb), math.lcm(da, db)
            ka, kb = na // g * (den // da), sign * (nb // g) * (den // db)
        return Poly._make(self.nvars, _combine(self._ints, ka, other._ints, kb), g, den)

    def __add__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return other._plus(self, -1)

    def _scaled(self, p, q):
        """self * p / q for ints p and q > 0: only the content changes, and the signs if p < 0."""
        if not p or not self._ints:
            return Poly._raw(self.nvars, {})
        ints = self._ints
        if p < 0:
            p = -p
            ints = {e: -v for e, v in ints.items()}
        num, den = _lowest(self._num * p, self._den * q)
        return Poly._raw(self.nvars, ints, num, den)

    def __mul__(self, other):
        if _is_scalar(other):
            if isinstance(other, int):
                return self._scaled(other, 1)
            return self._scaled(other.numerator, other.denominator)
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        if not self._ints or not other._ints:
            return Poly._raw(self.nvars, {})
        num, den = _lowest(self._num * other._num, self._den * other._den)
        # Gauss's lemma: the product of primitive integer parts is primitive
        return Poly._raw(self.nvars, _mul_ints(self._ints, other._ints, self.nvars), num, den)

    __rmul__ = __mul__

    def __neg__(self):
        return Poly._raw(self.nvars, {e: -v for e, v in self._ints.items()}, self._num, self._den)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Poly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def partial(self, v):
        """Partial derivative with respect to variable v."""
        out = {}
        for e, c in self._ints.items():
            k = e[v]
            if k:
                out[e[:v] + (k - 1,) + e[v + 1 :]] = c * k
        return Poly._make(self.nvars, out, self._num, self._den)

    def evaluate(self, point):
        """The value at a point of ints and Fractions, exactly, summed on ints.

        With d the lcm of the point's denominators, x_i = a_i / d and D the
        total degree, a term c x^e is c a^e d^(D - |e|) / d^D.  Any other
        coordinate, a float, a str or a bool, is a TypeError.
        """
        point = [_typed("point coordinate", x, int, Fraction) for x in point]
        if len(point) != self.nvars:
            raise ValueError("point length must equal nvars")
        d = math.lcm(*[x.denominator for x in point])
        a = [x.numerator * (d // x.denominator) for x in point]
        top = max(self.total_degree(), 0)
        total = sum([c * d ** (top - sum(e)) * math.prod(map(pow, a, e)) for e, c in self._ints.items()])
        return Fraction(total * self._num, self._den * d**top)

    def lift(self, extra=1):
        """Adjoin `extra` fresh trailing variables (used for charpoly in lambda)."""
        pad = (0,) * extra
        ints = {e + pad: c for e, c in self._ints.items()}
        return Poly._raw(self.nvars + extra, ints, self._num, self._den)

    # -- equality, ordering helpers ----------------------------------------

    def __eq__(self, other):
        if _is_scalar(other):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self._num == other._num
            and self._den == other._den
            and self.nvars == other.nvars
            and self._ints == other._ints
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.nvars, self._num, self._den, frozenset(self._ints.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self._ints)

    def __repr__(self):
        return f"Poly({self.nvars}, {self.to_text()!r})"

    # -- serialization ------------------------------------------------------

    def _sorted_parts(self):
        """(exponents, p, q) per term, p / q the coefficient in lowest terms, descending grlex."""
        ints, num, den = self._ints, self._num, self._den
        keys = sorted(ints, key=_grlex_key, reverse=True)
        if den == 1:
            return [(e, ints[e] * num, 1) for e in keys]
        return [(e, *_lowest(ints[e] * num, den)) for e in keys]

    def to_text(self) -> str:
        if not self._ints:
            return "0"
        parts = []
        for e, p, q in self._sorted_parts():
            factors = [str(p) if q == 1 else f"{p}/{q}"]
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(f"x{i + 1}")
                elif k > 1:
                    factors.append(f"x{i + 1}^{k}")
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    @classmethod
    def from_text(cls, text: str, nvars: int, *, pieces=None) -> "Poly":
        """Parse ``c * x1^2 * x3 + ...``; repeated monomials are merged, zeros dropped.

        ``pieces`` is a memo raw `*`-piece -> _parse_piece(piece, nvars).  A
        caller that parses many texts in the same nvars passes one memo to
        all of them, so each distinct piece goes through its regex once.
        """
        if pieces is None:
            pieces = {}
        parsed = []
        body = text.strip()
        if not body:
            raise ValueError("empty polynomial text")
        for raw_term in body.split("+"):
            if not raw_term.strip():
                raise ValueError(f"empty term in {text!r}")
            num = den = 1
            exps = [0] * nvars
            for piece in raw_term.split("*"):
                got = pieces.get(piece)
                if got is None:
                    got = pieces[piece] = _parse_piece(piece, nvars)
                v, p, q = got
                if v is None:
                    num *= p
                    den *= q
                else:
                    exps[v] += p
            parsed.append((tuple(exps), num, den))
        # over the common denominator every coefficient is an int, and
        # repeated monomials merge by integer addition
        den = math.lcm(*[q for _, _, q in parsed])
        ints = {}
        for e, p, q in parsed:
            ints[e] = ints.get(e, 0) + p * (den // q)
        ints = {e: c for e, c in ints.items() if c}
        return _degree_capped(cls._make(nvars, ints, 1, den))

    def to_tree(self):
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The tree {"nvars": n, "terms": [{"den": q, "exps": [...], "num": p}, ...]} as canonical JSON text.

        Keys are sorted, there are no spaces, terms come in descending grlex
        order and each p / q is in lowest terms.  to_tree parses this text.
        """
        terms = ",".join(
            f'{{"den":{q},"exps":[{",".join(map(str, e))}],"num":{p}}}' for e, p, q in self._sorted_parts()
        )
        return f'{{"nvars":{self.nvars},"terms":[{terms}]}}'

    @classmethod
    def from_tree(cls, tree) -> "Poly":
        terms = {}
        for t in tree["terms"]:
            e = tuple(t["exps"])
            terms[e] = terms.get(e, Fraction(0)) + Fraction(t["num"], t["den"])
        return _degree_capped(cls(tree["nvars"], terms))


def _parse_piece(piece, nvars):
    """One `*`-piece of a term: (variable index, exponent, None) or (None, p, q) for p / q."""
    piece = piece.strip()
    # only a piece starting with "x" can be a variable
    m = _VAR_RE.match(piece) if piece[:1] == "x" else None
    if m is None:
        return (None, *_rational_parts(piece))
    idx = int(m.group(1)) - 1
    if not 0 <= idx < nvars:
        raise ValueError(f"variable x{idx + 1} out of range for nvars={nvars}")
    return idx, int(m.group(2) or 1), None


def _primitive_split(ints, num, den):
    """(primitive ints, content num', den') with num' / den' * ints' == num / den * ints."""
    if not ints:
        return ints, 1, 1
    g = math.gcd(*ints.values())
    if g != 1:
        ints = {e: v // g for e, v in ints.items()}
        num *= g
    return (ints, *_lowest(num, den))


def _degree_capped(p: Poly) -> Poly:
    d = p.total_degree()
    if d > MAX_PARSED_DEGREE:
        raise DegreeCapExceeded(f"total degree {d} exceeds cap {MAX_PARSED_DEGREE}")
    return p


# -- division ---------------------------------------------------------------


def exact_div(a: Poly, b: Poly) -> Poly:
    """Exact quotient a / b in the polynomial ring.

    A constant b just scales a.  Otherwise the primitive integer parts are
    packed and divided by _div_packed, and the quotient is content(a) /
    content(b) times theirs, itself primitive by Gauss's lemma.  This is
    exact over Q: a primitive b divides a over Q iff it divides over Z.
    When b does not divide a, :class:`DivisionFailure` carries the witness
    a - q*b, q the partial quotient reached; the witness is nonzero and b
    divides a minus it.
    """
    if a.nvars != b.nvars:
        raise ValueError(f"nvars mismatch: {a.nvars} vs {b.nvars}")
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return Poly.zero(a.nvars)
    if b.is_constant():
        sign = next(iter(b._ints.values()))
        return a._scaled(sign * b._den, b._num)
    n = a.nvars
    fa, fb, w, guard = _pack_pair(a, b)
    fq, divides = _div_packed(fa, fb, n, w, guard)
    num, den = _lowest(a._num * b._den, a._den * b._num)
    if not divides:
        raise DivisionFailure(a - Poly._make(n, _unpack(fq, n, w), num, den) * b)
    return Poly._raw(n, _unpack(fq, n, w), num, den)


# -- gcd ---------------------------------------------------------------------


def _prim(p: Poly) -> Poly:
    """The primitive part of a nonzero p: content one, positive leading coefficient."""
    if p._num != 1 or p._den != 1:
        p = Poly._raw(p.nvars, p._ints)
    return -p if p._ints[p.leading_exponent()] < 0 else p


# Largest evaluation image, in bits, GCDHEU builds before it gives up:
# math.gcd on two 2^20-bit ints takes seconds, on 2^22-bit ints half a minute.
_HEU_MAX_BITS = 1 << 20


def _heu_eval(f, xi, shift, low):
    """f with its top field set to xi; the other fields keep their packed keys."""
    pw = [1]
    for _ in range(max(f) >> shift):
        pw.append(pw[-1] * xi)
    out = {}
    get = out.get
    for k, c in f.items():
        lk = k & low
        out[lk] = get(lk, 0) + c * pw[k >> shift]
    return {k: c for k, c in out.items() if c}


def _heu_interpolate(h, xi, shift, cap):
    """The polynomial whose balanced xi-adic digits are h's coefficients.

    Digit i of every coefficient becomes the coefficient of (top field)^i;
    None once the top degree would pass cap, which no divisor reaches.
    """
    out = {}
    half = xi >> 1
    i = 0
    while h:
        if i > cap:
            return None
        rest = {}
        for k, c in h.items():
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[(i << shift) | k] = d
            c = (c - d) // xi
            if c:
                rest[k] = c
        h = rest
        i += 1
    return out


def _heu_gcd(f, g, n, w, guard):
    """GCDHEU on nonzero int dicts with n packed fields of w bits: (h, f/h, g/h).

    h is a gcd in Z[x], up to sign, and f/h and g/h are its cofactors, the
    quotients of the two trial divisions that accept h (None for n == 0,
    where there are no fields); None once the next evaluation image would
    pass _HEU_MAX_BITS.  The top field is evaluated at xi, the remaining
    fields recurse (Liao & Fateman), and the candidate is interpolated from
    the balanced xi-adic digits of the image gcd (Char, Geddes & Gonnet).
    It is accepted only if its primitive part divides both operands
    exactly, and then it is the gcd, because xi > 2 min(|f|, |g|) + 2: were the gcd h k with k nonconstant, k(xi)
    would be a constant of size at most xi/2 (the digit bound), yet a
    divisor of f has its roots in x0 below 1 + |f| in size, so either
    |k(xi)| > xi/2 or a coefficient of k in the other variables vanishes
    at xi, which the same root bound forbids.  Otherwise xi grows at least
    2.6-fold and the next point is tried, so the loop ends at the image cap.
    """
    if n == 0:
        # only the image recursion gets here, and it reads h alone; dividing
        # the images, the largest ints of the gcd, would cost a quarter of a
        # dense 4-variable gcd
        return {0: math.gcd(f[0], g[0])}, None, None
    shift = w * (n - 1)
    low = (1 << shift) - 1
    cap = max(max(f), max(g)) >> shift
    if not cap:
        return _heu_gcd(f, g, n - 1, w, guard & low)
    c = math.gcd(*f.values(), *g.values())
    if c > 1:
        f = {k: v // c for k, v in f.items()}
        g = {k: v // c for k, v in g.items()}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 3
    while xi.bit_length() * cap <= _HEU_MAX_BITS:
        ff = _heu_eval(f, xi, shift, low)
        gg = _heu_eval(g, xi, shift, low)
        if ff and gg:
            image = _heu_gcd(ff, gg, n - 1, w, guard & low)
            if image is None:
                return None
            h = _heu_interpolate(image[0], xi, shift, cap)
            if h:
                hc = math.gcd(*h.values())
                h = {k: v // hc for k, v in h.items()}
                qf, ok = _div_packed(f, h, n, w, guard)
                if ok:
                    qg, ok = _div_packed(g, h, n, w, guard)
                    if ok:
                        return {k: v * c for k, v in h.items()}, qf, qg
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def poly_gcd(*polys: Poly):
    """(g, p1/g, ..., pk/g): the gcd in Q[x1..xn] of p1..pk and every cofactor.

    g is the frac_gcd of the operands' rational contents times their
    primitive gcd, with a positive grlex-leading coefficient.  Each cofactor
    is exact, its rational content carried, so g * (pi/g) == pi.  Zero
    operands drop out: their cofactors are 0, gcd(a, 0) is (a with a
    positive leading coefficient, +-1, 0), and gcd(0, ..., 0) is all zeros.
    No operand, or operands in different numbers of variables, raise
    ValueError.

    The operands are taken in turn, g_k = gcd(g_(k-1), p_k), to the last:
    a constant g_k still meets the contents of the later operands, on the
    shortcut for constants.  There is one
    route, the heuristic integer gcd GCDHEU (Char, Geddes & Gonnet, J. Symb.
    Comput. 7, 1989; one variable at a time after Liao & Fateman, ISSAC
    1995) on the packed primitive integer parts, whose gcd is primitive too;
    its accepting trial divisions give both cofactors, so every answer is
    checked and costs no division of its own.  Earlier cofactors are
    rescaled by g_(k-1)/g_k when that is not 1.  When GCDHEU gives up at its
    image cap, _HEU_MAX_BITS, :class:`DegreeCapExceeded` is raised.
    """
    if not polys:
        raise ValueError("gcd of no polynomials")
    n = polys[0].nvars
    for p in polys:
        if p.nvars != n:
            raise ValueError(f"nvars mismatch: {n} vs {p.nvars}")
    one, unit = {(0,) * n: 1}, Poly.one(n)
    first = g = None
    cofactors = []
    for b in polys:
        if not b._ints:
            cofactors.append(b)
            continue
        if g is None:
            first = g = b
            cofactors.append(unit)
            continue
        a = g
        A, B = a._ints, b._ints
        if a.is_constant() or b.is_constant():
            h, qa, qb = one, A, B
        elif A == B:
            h, qa, qb = A, one, one
        elif len(A) == 1 and len(B) == 1:
            ((ea, sa),) = A.items()
            ((eb, sb),) = B.items()
            e = tuple(map(min, ea, eb))
            h = {e: 1}
            qa = {tuple(x - y for x, y in zip(ea, e)): sa}
            qb = {tuple(x - y for x, y in zip(eb, e)): sb}
        elif not any(a.degree_in(v) > 0 and b.degree_in(v) > 0 for v in range(n)):
            # a factor of both can only involve shared variables
            h, qa, qb = one, A, B
        else:
            fa, fb, w, guard = _pack_pair(a, b)
            got = _heu_gcd(fa, fb, n, w, guard)
            if got is None:
                raise DegreeCapExceeded(f"gcd: evaluation image past the cap of {_HEU_MAX_BITS} bits")
            h, qa, qb = (_unpack(x, n, w) for x in got)
        if h[max(h, key=_grlex_key)] < 0:
            h, qa, qb = ({e: -v for e, v in x.items()} for x in (h, qa, qb))
        num, den = math.gcd(a._num, b._num), math.lcm(a._den, b._den)
        g = Poly._raw(n, h, num, den)
        ka = _lowest(a._num * den, a._den * num)
        if qa != one or ka != (1, 1):
            # g shrank: the earlier cofactors grow by a/g, a scalar when it is constant
            shrink = Poly._raw(n, qa, *ka)
            by = Fraction(*ka) if qa == one else shrink
            cofactors = [shrink if q is unit else q * by for q in cofactors]
        cofactors.append(Poly._raw(n, qb, *_lowest(b._num * den, b._den * num)))
    if g is None:
        return (polys[0], *cofactors)
    if g is first and g._ints[g.leading_exponent()] < 0:
        # one nonzero operand, the gcd itself up to sign
        g, cofactors = -g, [-q for q in cofactors]
    return (g, *cofactors)


# -- squarefree decomposition -------------------------------------------------


class SquarefreeDecomposition:
    """content * prod f_i^{m_i} with squarefree, pairwise coprime, primitive f_i.

    One factor per multiplicity class; callers needing a finer splitting
    declare their own component list.
    """

    __slots__ = ("content", "factors")

    def __init__(self, content: Fraction, factors):
        self.content = Fraction(_typed("content", content, int, Fraction))
        self.factors = tuple((f, _typed("multiplicity", m, int)) for f, m in factors)

    def reconstruct(self, nvars=None) -> Poly:
        if self.factors:
            nvars = self.factors[0][0].nvars
        if nvars is None:
            raise ValueError("nvars needed to reconstruct a constant")
        out = Poly.constant(nvars, self.content)
        for f, m in self.factors:
            out = out * f**m
        return out

    def multiplicities(self):
        return tuple(m for _, m in self.factors)

    def __eq__(self, other):
        if not isinstance(other, SquarefreeDecomposition):
            return NotImplemented
        return self.content == other.content and self.factors == other.factors

    def __repr__(self):
        fs = ", ".join(f"({f.to_text()})^{m}" for f, m in self.factors)
        return f"SquarefreeDecomposition({self.content}, [{fs}])"


def _yun(p: Poly) -> dict:
    """The multiplicity classes of a primitive nonconstant p: {m: product of its factors of multiplicity m}.

    Yun's algorithm (Yun, SYMSAC 1976) in the first variable v of positive
    degree, in the multivariate form of sympy's dmp_sqf_list.  With
    (g, b, c) the gcd of p and dp/dv and its cofactors, each step sets
    d = c - db/dv and (a_i, b, c) to the gcd of b and d and its cofactors,
    until b is constant: a_i is the product of the factors of p of
    multiplicity i that involve v.  Every quotient is a gcd cofactor, so
    each step is one gcd.  What p keeps free of v, its content in v, is
    g / prod a_i^(i-1); it is formed only when the classes miss some of p's
    total degree, and its classes, found in the other variables, are merged
    in by product.
    """
    v = next(v for v in range(p.nvars) if p.degree_in(v) > 0)
    g, b, c = poly_gcd(p, p.partial(v))
    classes = {}
    degree = 0
    i = 1
    while not b.is_constant():
        a, b, c = poly_gcd(b, c - b.partial(v))
        if not a.is_constant():
            classes[i] = a
            degree += i * a.total_degree()
        i += 1
    if degree < p.total_degree():
        for m, a in classes.items():
            if m > 1:
                g = exact_div(g, a ** (m - 1))
        for m, a in _yun(_prim(g)).items():
            classes[m] = classes[m] * a if m in classes else a
    return classes


def is_squarefree(f: Poly) -> bool:
    if f.is_zero():
        raise ZeroPolynomial("squarefree test of the zero polynomial")
    prim = _prim(f)
    return prim.is_constant() or set(_yun(prim)) == {1}


def squarefree_decompose(f: Poly) -> SquarefreeDecomposition:
    """Multiplicity-class decomposition over characteristic zero.

    f is its signed rational content times its primitive part, and _yun
    splits the primitive part into classes of equal multiplicity, one gcd
    per class; it divides only to split off a content free of its variable.
    The factors come primitive with positive leading coefficients, in
    increasing multiplicity, so the reconstruction is f exactly.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    content, prim = f.primitive()
    if prim.is_constant():
        return SquarefreeDecomposition(content, [])
    classes = _yun(prim)
    return SquarefreeDecomposition(content, [(_prim(classes[m]), m) for m in sorted(classes)])

"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is stored in one canonical form: a positive rational content
num / den in lowest terms times a primitive integer polynomial, a dict from
monomial keys to ints whose gcd is one (the zero polynomial has an empty
dict).  A key packs an exponent vector into one int, _W = 16 bits per
variable, the first variable in the highest field, so keys add as monomials
multiply and compare as exponent vectors do in lex order; as 2^16 = 1 mod
2^16 - 1, a key mod 2^16 - 1 is its total degree.  The top bit of every
field stays zero, so no polynomial formed may pass total degree MAX_DEGREE
= 2^15 - 1: the constructor, the parsers and a product check it before they
pack a key.  Exponent tuples appear only at the edges: the constructor, the
``terms`` view, the writers and the monomial gcd.  Mathematical equality of
polynomials therefore coincides with equality of (content, dict).  Leading
terms, normalisation and serialisation all use the graded lexicographic
order.  The public views (``terms``, ``content``, ``leading_coefficient``,
...) give ``Fraction`` values; no arithmetic kernel builds one.

Floating point is rejected everywhere; the scalar field is Q.

A product of primitive polynomials is primitive (Gauss's lemma), so a
multiply multiplies the contents and the integer parts and needs no gcd pass;
a sum brings both operands to a common content and takes one gcd.  A square,
two operands on one integer part, goes through the squaring path of
_mul_into, which forms each unordered term pair once.  The total degree is
kept on the Poly once known: a product's is the sum of its factors', any
other is computed when first asked for.  det2(a, b, c, d) forms a * b - c *
d in one accumulator, the two contents over one denominator, as the 2x2
minors of the rank test and the entries of the Hitchin map need it.  A
product, alone or inside det2, of more than MAX_TERM_PAIRS term pairs or
past total degree MAX_DEGREE is refused before any pair is formed, and a
division before the quotient term that would take it past that many.  The
one division, _div_packed, is a heap division on the keys; exact_div runs
it on the primitive parts, which is exact over Q by Gauss's lemma.  The gcd
is the heuristic integer gcd GCDHEU (Char, Geddes & Gonnet, J. Symb. Comput.
7, 1989), one variable at a time (Liao & Fateman, ISSAC 1995), the one gcd
route, and _div_packed checks every answer it gives; when it gives up at its
image cap _HEU_MAX_BITS, the gcd raises DegreeCapExceeded.  The quotients of
those checks are the gcd's cofactors: poly_gcd(p1, ..., pk) returns (g,
p1/g, ..., pk/g), with the rational contents carried, so g * (pi/g) == pi
exactly.  Zero operands get zero cofactors, and the gcd of zeros alone is
zero.  The squarefree decomposition (Yun's algorithm) and the covector
normalisation of the spectral layer take their quotients from these
cofactors.  Parsed polynomials are capped at total degree MAX_PARSED_DEGREE
and at MAX_PARSED_TERMS terms.

Text is read a term at a time.  A term's head, the text before its first
`*`, is read by errors._rational_parts, the one rational grammar of configs
([+-]?digits(/digits)?, ASCII digits, checked with str methods and no
regex).  A variable piece, x and ASCII digits with an optional ^ and ASCII
digits, is checked the same way.  The rest of the term is looked up whole
in a memo of `*`-products, raw text -> (key, degree, p, q), which _product
fills from the memo entries of its pieces.  The terms' keys, numerators and
denominators are then merged in bulk over one common denominator.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import mul, or_

from .errors import DegreeCapExceeded, DivisionFailure, InvalidInput, ZeroPolynomial, _rational_parts, _typed

# Largest total degree a parsed polynomial may have.  Work in the squarefree
# decomposition (one pass per multiplicity) and the size of the gcd's
# evaluation images grow with the degree, so larger input is refused at once.
MAX_PARSED_DEGREE = 1024
# Most terms a parsed polynomial may have, counted before they are parsed; the
# largest parsed in the benchmark rounds, selftest and bench stress rows has 1,001.
MAX_PARSED_TERMS = 1 << 20
# Most term pairs one product (len(a) * len(b)) or one division (len(q) * len(b))
# may form, checked before they are formed; the largest product in those runs has 14,700.
MAX_TERM_PAIRS = 1 << 24

# The key layout: _W bits per variable.  Below MAX_DEGREE no field reaches its
# top bit, so a sum of two keys never carries into the next field.
_W = 16
_MASK = (1 << _W) - 1
MAX_DEGREE = _MASK >> 1


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


def _lowest(num, den):
    g = math.gcd(num, den)
    return (num // g, den // g) if g > 1 else (num, den)


# -- keys ------------------------------------------------------------------------


def _key(e):
    """The key of an exponent vector of total degree at most MAX_DEGREE."""
    k = 0
    for x in e:
        k = k << _W | x
    return k


def _exps(k, n):
    """The exponent vector of key k in n variables."""
    return tuple([k >> s & _MASK for s in range(_W * (n - 1), -1, -_W)])


def _lead(ints, n):
    """The grlex-leading key of nonempty ints: (total degree, key) ranks as one int."""
    s = _W * n
    return max([k % _MASK << s | k for k in ints]) & ((1 << s) - 1)


def _variables(ints, n):
    """The set of indices of the variables that occur in ints."""
    spread = reduce(or_, ints, 0)
    return {v for v in range(n) if spread >> _W * (n - 1 - v) & _MASK}


def _box(f, n):
    """Per-field maxima of f's keys."""
    box = 0
    for s in range(_W * (n - 1), -1, -_W):
        box = box << _W | max([k >> s & _MASK for k in f])
    return box


def _div_packed(a, b, n):
    """Divide a by b in Z[x], for int dicts with keys of n fields: (quotient, divides).

    Heap division (Johnson 1974; Monagan & Pearce, J. Symb. Comput. 2011):
    keys compare as integers in lex order, so the largest remainder key is
    the leading term, and a heap holds the remainder keys.  The top bit of
    every field is a guard: a quotient exponent that would go negative, or
    past deg a - deg b, clears it, and the division fails at once, as it
    does when a leading coefficient of b does not divide one of the
    remainder.  On failure the quotient is the partial one reached so far.
    Each quotient term forms a term pair with every term of b, so a quotient
    term that would take len(q) * len(b) past MAX_TERM_PAIRS raises
    DegreeCapExceeded before it forms any.
    """
    q = {}
    guard = (1 << _W * n) // _MASK << (_W - 1)  # the top bit of every field
    room = (_box(a, n) | guard) - _box(b, n)
    if room & guard != guard:
        return q, False
    room ^= guard
    lb = max(b)
    cb = b[lb]
    rest = [(k, c) for k, c in b.items() if k != lb]
    most = MAX_TERM_PAIRS // len(b)  # quotient terms within the cap
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
        if len(q) == most:
            raise DegreeCapExceeded(f"quotient of more than {most} x {len(b)} terms exceeds cap {MAX_TERM_PAIRS} term pairs")
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
# All operate on integer parts (dicts mapping keys to nonzero ints) and never
# mutate their arguments: a Poly's dict may be shared by others.


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


def _mul_into(acc, a, b, s):
    """Add s * a * b into the int dict acc, for nonempty integer parts a, b and a nonzero int s.

    The total degrees of a and b sum to at most MAX_DEGREE.  A monomial
    product is one int add, and the inner loop touches ints only (Monagan &
    Pearce, CASC 2007); s is folded into the outer term.  A square (a is b,
    or equal dicts) forms each unordered term pair once: 2 va vb for i < j
    and va^2 on the diagonal.  Sums that cancel stay in acc as 0.
    """
    get = acc.get
    if a is b or a == b:
        pa = list(a.items())
        for i, (ka, va) in enumerate(pa):
            k = ka + ka
            vs = va * s
            acc[k] = get(k, 0) + vs * va
            vs += vs
            for kb, vb in pa[i + 1 :]:
                k = ka + kb
                acc[k] = get(k, 0) + vs * vb
    else:
        if len(a) > len(b):
            a, b = b, a
        pb = list(b.items())
        for ka, va in a.items():
            va *= s
            for kb, vb in pb:
                k = ka + kb
                acc[k] = get(k, 0) + va * vb
    return acc


def _mul_ints(a, b, s=1):
    """s * a * b for nonempty integer parts a, b and a nonzero int s, as _mul_into forms it."""
    return {k: v for k, v in _mul_into({}, a, b, s).items() if v}


class _Terms(Mapping):
    """Read-only view of a Poly's terms: exponent tuple -> Fraction.

    Length reads the integer part only; an exponent tuple is unpacked as it
    is iterated, and a coefficient becomes a Fraction when it is looked up.
    """

    __slots__ = ("_p",)

    def __init__(self, p):
        self._p = p

    def __len__(self):
        return len(self._p._ints)

    def __iter__(self):
        n = self._p.nvars
        return (_exps(k, n) for k in self._p._ints)

    def __getitem__(self, e):
        p = self._p
        if len(e) == p.nvars and all(0 <= x <= MAX_DEGREE for x in e):
            c = p._ints.get(_key(e))
            if c is not None:
                return Fraction(c * p._num, p._den)
        raise KeyError(e)


class Poly:
    """Canonical multivariate polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "_ints", "_num", "_den", "_deg")

    def __init__(self, nvars: int, terms=None):
        if nvars < 0:
            raise InvalidInput("nvars must be nonnegative")
        clean = {}
        for e, c in (terms or {}).items():
            e = tuple(e)
            if len(e) != nvars:
                raise InvalidInput(f"exponent vector {e} has length {len(e)}, expected {nvars}")
            if any((not isinstance(k, int)) or k < 0 for k in e):
                raise InvalidInput(f"exponents must be nonnegative integers: {e}")
            c = _coerce_coeff(c)
            if c:
                if sum(e) > MAX_DEGREE:
                    raise DegreeCapExceeded(f"total degree {sum(e)} exceeds cap {MAX_DEGREE}")
                k = _key(e)
                clean[k] = clean.get(k, 0) + c
        clean = {k: c for k, c in clean.items() if c}
        den = math.lcm(*[c.denominator for c in clean.values()])
        ints = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
        self._set(nvars, *_primitive_split(ints, 1, den))

    def _set(self, nvars, ints, num, den, deg=None):
        _set_nvars(self, nvars)
        _set_ints(self, ints)
        _set_num(self, num)
        _set_den(self, den)
        _set_deg(self, deg)

    @classmethod
    def _raw(cls, nvars, ints, num=1, den=1, deg=None):
        # internal: ints primitive with no zero value, num / den > 0 in lowest terms,
        # deg their total degree or None when it is not known yet
        self = object.__new__(cls)
        self._set(nvars, ints, num, den, deg)
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
        return cls._raw(nvars, {0: 1})

    @classmethod
    def constant(cls, nvars, c):
        c = _coerce_coeff(c)
        if not c:
            return cls._raw(nvars, {})
        return cls._raw(nvars, {0: 1 if c > 0 else -1}, abs(c.numerator), c.denominator)

    @classmethod
    def variable(cls, nvars, i):
        if not 0 <= i < nvars:
            raise InvalidInput(f"variable index {i} out of range for nvars={nvars}")
        return cls._raw(nvars, {1 << _W * (nvars - 1 - i): 1})

    # -- predicates and views ----------------------------------------------

    def is_zero(self):
        return not self._ints

    def is_constant(self):
        t = self._ints
        return not t or (len(t) == 1 and 0 in t)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise InvalidInput(f"{self} is not constant")
        return Fraction(self._ints[0] * self._num, self._den)

    def total_degree(self):
        """Total degree; -1 for the zero polynomial.  Kept in a slot once known."""
        d = self._deg
        if d is None:
            d = max([k % _MASK for k in self._ints]) if self._ints else -1
            _set_deg(self, d)
        return d

    def leading_coefficient(self) -> Fraction:
        if not self._ints:
            raise ZeroPolynomial("zero polynomial has no leading term")
        return Fraction(self._ints[_lead(self._ints, self.nvars)] * self._num, self._den)

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
                raise InvalidInput(f"nvars mismatch: {self.nvars} vs {other.nvars}")
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
        return Poly._raw(self.nvars, ints, num, den, self._deg)

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
        d = _product_capped(self, other)
        num, den = _lowest(self._num * other._num, self._den * other._den)
        # Gauss's lemma: the product of primitive integer parts is primitive,
        # and the leading forms of a product multiply, so its degree is d
        return Poly._raw(self.nvars, _mul_ints(self._ints, other._ints), num, den, d)

    __rmul__ = __mul__

    def __neg__(self):
        return Poly._raw(self.nvars, {e: -v for e, v in self._ints.items()}, self._num, self._den, self._deg)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise InvalidInput("exponent must be a nonnegative integer")
        out = Poly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def partial(self, v):
        """Partial derivative with respect to variable v: its field of each key goes down by one."""
        s = _W * (self.nvars - 1 - v)
        one = 1 << s
        out = {}
        for k, c in self._ints.items():
            x = k >> s & _MASK
            if x:
                out[k - one] = c * x
        return Poly._make(self.nvars, out, self._num, self._den)

    def evaluate(self, point):
        """The value at a point of ints and Fractions, exactly, summed on ints.

        With d the lcm of the point's denominators, x_i = a_i / d and D the
        total degree, a term c x^e is c d^(D - |e|) a^e / d^D: each
        coefficient is scaled by d^(D - |e|) (when d = 1, D is 0), and the
        fields are set to the a_i one at a time, the first variable first
        (_heu_eval; a sum that cancels stays as a 0 entry, which adds
        nothing to the value).  Any other coordinate, a float, a str or a
        bool, is a TypeError.
        """
        point = [_typed("point coordinate", x, int, Fraction) for x in point]
        if len(point) != self.nvars:
            raise InvalidInput("point length must equal nvars")
        d = math.lcm(*[x.denominator for x in point])
        f, top = self._ints, 0
        if d != 1:
            top = max(self.total_degree(), 0)
            f = {k: c * d ** (top - k % _MASK) for k, c in f.items()}
        s = _W * self.nvars
        for x in point:
            s -= _W
            f = _heu_eval(f, x.numerator * (d // x.denominator), s, (1 << s) - 1)
        return Fraction(f.get(0, 0) * self._num, self._den * d**top)

    def lift(self):
        """Adjoin one fresh trailing variable (used for charpoly in lambda)."""
        ints = {k << _W: c for k, c in self._ints.items()}
        return Poly._raw(self.nvars + 1, ints, self._num, self._den, self._deg)

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
        return hash((self.nvars, self._num, self._den, frozenset(self._ints.items())))

    def __bool__(self):
        return bool(self._ints)

    def __repr__(self):
        return f"Poly({self.nvars}, {self.to_text()!r})"

    # -- serialization ------------------------------------------------------

    def _sorted_parts(self):
        """(key, p, q) per term, p / q the coefficient in lowest terms, descending grlex: by (total degree, key)."""
        ints, num, den, s = self._ints, self._num, self._den, _W * self.nvars
        low = (1 << s) - 1
        ranked = sorted([k % _MASK << s | k for k in ints], reverse=True)
        return [(r & low, *_lowest(ints[r & low] * num, den)) for r in ranked]

    def to_text(self) -> str:
        if not self._ints:
            return "0"
        parts = []
        for k, p, q in self._sorted_parts():
            factors = [str(p) if q == 1 else f"{p}/{q}"]
            for i, x in enumerate(_exps(k, self.nvars)):
                if x == 1:
                    factors.append(f"x{i + 1}")
                elif x > 1:
                    factors.append(f"x{i + 1}^{x}")
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    @classmethod
    def from_text(cls, text: str, nvars: int, *, products=None) -> "Poly":
        """Parse ``c * x1^2 * x3 + ...``; repeated monomials are merged, zeros dropped.

        A term is its head, the text before its first `*`, read as a
        rational, times the product of the rest.  ``products`` is a memo from
        raw `*`-product text to _product(text, nvars, products), which holds
        the products' pieces too; every entry depends on the text and nvars
        alone, so a caller that parses many texts in the same nvars may pass
        one memo to all of them, and must not share it across nvars.  A term
        whose head is no rational (a variable, or blank or bad) is read as
        the product of all its pieces, and its first bad piece raises.  A
        term past MAX_DEGREE is refused before the terms are merged, and the
        merged polynomial past MAX_PARSED_DEGREE after.
        """
        if products is None:
            products = {}
        body = text.strip()
        if not body:
            raise ValueError("empty polynomial text")
        raw_terms = body.split("+")
        _terms_capped(len(raw_terms))
        keys, nums, dens = [], [], []
        top = 0
        for raw_term in raw_terms:
            head, star, tail = raw_term.partition("*")
            try:
                p, q = _rational_parts(head.strip())
            except ValueError:
                p = None  # read outside the handler, so a bad piece raises with no context
            if p is None:
                if not raw_term.strip():
                    raise ValueError(f"empty term in {text!r}")
                k, d, p, q = products.get(raw_term) or _product(raw_term, nvars, products)
            elif star:
                k, d, tp, tq = products.get(tail) or _product(tail, nvars, products)
                p *= tp
                q *= tq
            else:
                k = d = 0
            if d > top:
                top = d
            keys.append(k)
            nums.append(p)
            dens.append(q)
        _degree_capped(top, MAX_DEGREE)
        # over the common denominator every coefficient is an int, and
        # repeated monomials merge by integer addition
        den = math.lcm(*dens)
        if den != 1:
            nums = list(map(mul, nums, map(den.__floordiv__, dens)))
        ints = dict(zip(keys, nums))
        if len(ints) < len(keys):
            ints = {}
            for k, c in zip(keys, nums):
                ints[k] = ints.get(k, 0) + c
        if 0 in ints.values():
            ints = {k: c for k, c in ints.items() if c}
        p = cls._make(nvars, ints, 1, den)
        if top > MAX_PARSED_DEGREE:
            # the terms past the cap may cancel
            _degree_capped(p.total_degree(), MAX_PARSED_DEGREE)
        return p

    def to_tree(self):
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The tree {"nvars": n, "terms": [{"den": q, "exps": [...], "num": p}, ...]} as canonical JSON text.

        Keys are sorted, there are no spaces, terms come in descending grlex
        order and each p / q is in lowest terms.  to_tree parses this text.
        """
        shifts = range(_W * (self.nvars - 1), -1, -_W)
        terms = ",".join([
            f'{{"den":{q},"exps":[{",".join([str(k >> s & _MASK) for s in shifts])}],"num":{p}}}'
            for k, p, q in self._sorted_parts()
        ])
        return f'{{"nvars":{self.nvars},"terms":[{terms}]}}'

    @classmethod
    def from_tree(cls, tree) -> "Poly":
        _terms_capped(len(tree["terms"]))
        terms = {}
        for t in tree["terms"]:
            e = tuple(t["exps"])
            terms[e] = terms.get(e, Fraction(0)) + Fraction(t["num"], t["den"])
        _degree_capped(max(map(sum, terms), default=-1), MAX_DEGREE)
        p = cls(tree["nvars"], terms)
        _degree_capped(p.total_degree(), MAX_PARSED_DEGREE)
        return p


_set_nvars, _set_ints, _set_num, _set_den, _set_deg = (getattr(Poly, s).__set__ for s in Poly.__slots__)


def _product(text, nvars, products):
    """(key, degree, p, q) of a `*`-product text, memoized in products under that text.

    A power of a variable is (its key, its exponent, 1, 1) and a rational
    p / q is (0, 0, p, q); a longer product adds the keys and degrees and
    multiplies the p and q of its pieces.
    """
    pieces = text.split("*")
    if len(pieces) > 1:
        k = d = 0
        p = q = 1
        for piece in pieces:
            pk, pd, pp, pq = products.get(piece) or _product(piece, nvars, products)
            k += pk
            d += pd
            p *= pp
            q *= pq
        got = k, d, p, q
    else:
        piece = text.strip()
        # a variable is x and ASCII digits, then optionally ^ and ASCII digits;
        # any other piece is a rational
        index, caret, exp = piece[1:].partition("^")
        if piece[:1] == "x" and index.isdigit() and index.isascii() and (
                not caret or exp.isdigit() and exp.isascii()):
            idx = int(index) - 1
            if not 0 <= idx < nvars:
                raise ValueError(f"variable x{idx + 1} out of range for nvars={nvars}")
            e = int(exp) if caret else 1
            got = e << _W * (nvars - 1 - idx), e, 1, 1
        else:
            got = (0, 0, *_rational_parts(piece))
    products[text] = got
    return got


def _primitive_split(ints, num, den):
    """(primitive ints, content num', den') with num' / den' * ints' == num / den * ints."""
    if not ints:
        return ints, 1, 1
    g = math.gcd(*ints.values())
    if g != 1:
        ints = {e: v // g for e, v in ints.items()}
        num *= g
    return (ints, *_lowest(num, den))


def _degree_capped(d, limit):
    """Refuse parsed input of total degree d past limit; past MAX_DEGREE it is past MAX_PARSED_DEGREE too."""
    if d > limit:
        raise DegreeCapExceeded(f"total degree {d} exceeds cap {MAX_PARSED_DEGREE}")


def _terms_capped(k):
    if k > MAX_PARSED_TERMS:
        raise DegreeCapExceeded(f"{k} terms exceed cap {MAX_PARSED_TERMS}")


def _product_capped(a, b):
    """The total degree of a * b for nonzero a and b, refused past MAX_TERM_PAIRS or MAX_DEGREE before any pair is formed."""
    if len(a._ints) * len(b._ints) > MAX_TERM_PAIRS:
        raise DegreeCapExceeded(
            f"product of {len(a._ints)} x {len(b._ints)} terms exceeds cap {MAX_TERM_PAIRS} term pairs"
        )
    d = a.total_degree() + b.total_degree()
    if d > MAX_DEGREE:
        raise DegreeCapExceeded(f"product of total degree {d} exceeds cap {MAX_DEGREE}")
    return d


def det2(a: Poly, b: Poly, c: Poly, d: Poly) -> Poly:
    """a * b - c * d, the two products summed in one accumulator.

    Each product with no zero factor is checked as Poly.__mul__ checks it,
    with its messages, and both are checked before any term pair is formed.
    The two contents n1 / d1 and n2 / d2 meet over one denominator, as in a
    sum: with g = gcd(n1, n2) and D = lcm(d1, d2), (n1 / g)(D / d1) A B -
    (n2 / g)(D / d2) C D is accumulated on the integer parts A, B, C, D, and
    the difference is g / D times it.  A product of equal operands takes the
    squaring path of _mul_into.
    """
    n = a.nvars
    if not n == b.nvars == c.nvars == d.nvars:
        raise InvalidInput(f"nvars mismatch: {[p.nvars for p in (a, b, c, d)]}")
    products = [(x, y, sign) for x, y, sign in ((a, b, 1), (c, d, -1)) if x._ints and y._ints]
    degrees = [_product_capped(x, y) for x, y, _ in products]
    contents = [_lowest(x._num * y._num, x._den * y._den) for x, y, _ in products]
    if not products:
        return Poly._raw(n, {})
    if len(products) == 1:
        # primitive by Gauss's lemma, of the degree its check found
        (x, y, sign), = products
        return Poly._raw(n, _mul_ints(x._ints, y._ints, sign), *contents[0], degrees[0])
    (n1, d1), (n2, d2) = contents
    g, den = math.gcd(n1, n2), math.lcm(d1, d2)
    k1, k2 = n1 // g * (den // d1), -(n2 // g) * (den // d2)
    acc = _mul_into(_mul_into({}, a._ints, b._ints, k1), c._ints, d._ints, k2)
    return Poly._make(n, {k: v for k, v in acc.items() if v}, g, den)


# -- division ---------------------------------------------------------------


def exact_div(a: Poly, b: Poly) -> Poly:
    """Exact quotient a / b in the polynomial ring.

    A constant b just scales a.  Otherwise the primitive integer parts are
    divided by _div_packed, and the quotient is content(a) / content(b)
    times theirs, itself primitive by Gauss's lemma.  This is exact over Q:
    a primitive b divides a over Q iff it divides over Z.  When b does not
    divide a, :class:`DivisionFailure` carries the witness a - q*b, q the
    partial quotient reached; the witness is nonzero and b divides a minus
    it.  A quotient of more than MAX_TERM_PAIRS // len(b) terms raises
    DegreeCapExceeded as its next term is reached.
    """
    if a.nvars != b.nvars:
        raise InvalidInput(f"nvars mismatch: {a.nvars} vs {b.nvars}")
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return Poly.zero(a.nvars)
    if b.is_constant():
        sign = b._ints[0]
        return a._scaled(sign * b._den, b._num)
    n = a.nvars
    q, divides = _div_packed(a._ints, b._ints, n)
    num, den = _lowest(a._num * b._den, a._den * b._num)
    if not divides:
        raise DivisionFailure(a - Poly._make(n, q, num, den) * b)
    return Poly._raw(n, q, num, den)


# -- gcd ---------------------------------------------------------------------


def _prim(p: Poly) -> Poly:
    """The primitive part of a nonzero p: content one, positive leading coefficient."""
    if p._num != 1 or p._den != 1:
        p = Poly._raw(p.nvars, p._ints)
    return -p if p._ints[_lead(p._ints, p.nvars)] < 0 else p


# Largest evaluation image, in bits, GCDHEU builds before it gives up:
# math.gcd on two 2^20-bit ints takes seconds, on 2^22-bit ints half a minute.
_HEU_MAX_BITS = 1 << 20


def _heu_eval(f, xi, shift, low):
    """f with its top field set to xi; the other fields keep their keys, and sums that cancel stay as 0."""
    pw = [1]
    for _ in range(max(f, default=0) >> shift):
        pw.append(pw[-1] * xi)
    out = {}
    get = out.get
    for k, c in f.items():
        lk = k & low
        out[lk] = get(lk, 0) + c * pw[k >> shift]
    return out


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


def _heu_gcd(f, g, n):
    """GCDHEU on nonzero int dicts with keys of n fields: (h, f/h, g/h).

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
    shift = _W * (n - 1)
    low = (1 << shift) - 1
    cap = max(max(f), max(g)) >> shift
    if not cap:
        return _heu_gcd(f, g, n - 1)
    c = math.gcd(*f.values(), *g.values())
    if c > 1:
        f = {k: v // c for k, v in f.items()}
        g = {k: v // c for k, v in g.items()}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 3
    while xi.bit_length() * cap <= _HEU_MAX_BITS:
        ff = {k: v for k, v in _heu_eval(f, xi, shift, low).items() if v}
        gg = {k: v for k, v in _heu_eval(g, xi, shift, low).items() if v}
        if ff and gg:
            image = _heu_gcd(ff, gg, n - 1)
            if image is None:
                return None
            h = _heu_interpolate(image[0], xi, shift, cap)
            if h:
                hc = math.gcd(*h.values())
                h = {k: v // hc for k, v in h.items()}
                qf, ok = _div_packed(f, h, n)
                if ok:
                    qg, ok = _div_packed(g, h, n)
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
    InvalidInput.

    The operands are taken in turn, g_k = gcd(g_(k-1), p_k), to the last:
    a constant g_k still meets the contents of the later operands, on the
    shortcut for constants.  There is one
    route, the heuristic integer gcd GCDHEU (Char, Geddes & Gonnet, J. Symb.
    Comput. 7, 1989; one variable at a time after Liao & Fateman, ISSAC
    1995) on the primitive integer parts, whose gcd is primitive too;
    its accepting trial divisions give both cofactors, so every answer is
    checked and costs no division of its own.  Earlier cofactors are
    rescaled by g_(k-1)/g_k when that is not 1.  When GCDHEU gives up at its
    image cap, _HEU_MAX_BITS, :class:`DegreeCapExceeded` is raised.
    """
    if not polys:
        raise InvalidInput("gcd of no polynomials")
    n = polys[0].nvars
    for p in polys:
        if p.nvars != n:
            raise InvalidInput(f"nvars mismatch: {n} vs {p.nvars}")
    one = {0: 1}
    first = g = None
    # None stands for the first nonzero operand's cofactor while it is g / g = 1
    cofactors = []
    for b in polys:
        if not b._ints:
            cofactors.append(b)
            continue
        if g is None:
            first = g = b
            cofactors.append(None)
            continue
        a = g
        A, B = a._ints, b._ints
        if a.is_constant() or b.is_constant():
            h, qa, qb = one, A, B
        elif A == B:
            h, qa, qb = A, one, one
        elif len(A) == 1 and len(B) == 1:
            ((ka, sa),) = A.items()
            ((kb, sb),) = B.items()
            k = _key(map(min, _exps(ka, n), _exps(kb, n)))
            h, qa, qb = {k: 1}, {ka - k: sa}, {kb - k: sb}
        elif not _variables(A, n) & _variables(B, n):
            # a factor of both can only involve shared variables
            h, qa, qb = one, A, B
        else:
            got = _heu_gcd(A, B, n)
            if got is None:
                raise DegreeCapExceeded(f"gcd: evaluation image past the cap of {_HEU_MAX_BITS} bits")
            h, qa, qb = got
        if h[_lead(h, n)] < 0:
            h, qa, qb = ({e: -v for e, v in x.items()} for x in (h, qa, qb))
        num, den = math.gcd(a._num, b._num), math.lcm(a._den, b._den)
        g = Poly._raw(n, h, num, den)
        ka = _lowest(a._num * den, a._den * num)
        if qa != one or ka != (1, 1):
            # g shrank: the earlier nonzero cofactors grow by a/g, a scalar when it is constant
            shrink, by = Poly._raw(n, qa, *ka), None
            for m, q in enumerate(cofactors):
                if q is None:
                    cofactors[m] = shrink
                elif q._ints:
                    by = by or (Fraction(*ka) if qa == one else shrink)
                    cofactors[m] = q * by
        cofactors.append(Poly._raw(n, qb, *_lowest(b._num * den, b._den * num)))
    if g is None:
        return (polys[0], *cofactors)
    sign = 1
    if g is first and g._ints[_lead(g._ints, n)] < 0:
        # one nonzero operand, the gcd itself up to sign; the other cofactors are zero
        g, sign = -g, -1
    return (g, *[Poly._raw(n, {0: sign}) if q is None else q for q in cofactors])


# -- squarefree decomposition -------------------------------------------------


@dataclass(frozen=True, slots=True)
class SquarefreeDecomposition:
    """content * prod f_i^{m_i} with squarefree, pairwise coprime, primitive f_i.

    One factor per multiplicity class; callers needing a finer splitting
    declare their own component list.
    """

    content: Fraction
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "content", Fraction(_typed("content", self.content, int, Fraction)))
        object.__setattr__(self, "factors", tuple((f, _typed("multiplicity", m, int)) for f, m in self.factors))

    def reconstruct(self, nvars=None) -> Poly:
        if self.factors:
            nvars = self.factors[0][0].nvars
        if nvars is None:
            raise InvalidInput("nvars needed to reconstruct a constant")
        out = Poly.constant(nvars, self.content)
        for f, m in self.factors:
            out = out * f**m
        return out

    def multiplicities(self):
        return tuple(m for _, m in self.factors)


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
    v = min(_variables(p._ints, p.nvars))
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

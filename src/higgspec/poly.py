"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a map from exponent vectors to nonzero ``Fraction``
coefficients, kept canonical at all times so that mathematical equality of
polynomials coincides with structural equality of objects.  Leading terms,
normalisation and serialisation all use the graded lexicographic order.

Floating point is rejected everywhere; the scalar field is Q.

Multiplication, division and the gcd run on packed integer polynomials
(_pack, _unpack): a rational content times a primitive integer part, each
exponent vector packed into one int.  The one division, _div_packed, is a
heap division on those ints; exact_div runs it on the primitive parts, which
is exact over Q by Gauss's lemma.  The gcd is the heuristic integer gcd
GCDHEU (Char, Geddes & Gonnet, J. Symb. Comput. 7, 1989), one variable at a
time (Liao & Fateman, ISSAC 1995), and _div_packed checks every answer it
gives; when it gives up, primitive pseudo-remainder sequences answer
instead.  Parsed polynomials are capped at total degree MAX_PARSED_DEGREE.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import add

from .errors import DegreeCapExceeded, DivisionFailure, ZeroPolynomial

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


def _parse_rational(text: str) -> Fraction:
    return Fraction(*_rational_parts(text))


def _coerce_coeff(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int) and not isinstance(c, bool):
        return Fraction(c)
    raise TypeError(f"coefficients must be Fraction or int, got {type(c).__name__}")


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


# -- packed integer polynomials --------------------------------------------------
#
# The multiply, gcd and division kernels run on dicts mapping an int key to an
# int coefficient.  A key packs an exponent vector w bits per variable, the
# first variable highest, so keys add as monomials multiply and compare as the
# exponent vectors do in lex order.


def _pack(t, w):
    """(ints, (num, den)) with t == num / den * ints for a nonzero term dict t.

    ints maps packed exponent vectors to integer coefficients of gcd one;
    the content num / den is gcd(numerators) / lcm(denominators), positive
    and in lowest terms.
    """
    cs = t.values()
    nums = [c.numerator for c in cs]
    dens = [c.denominator for c in cs]
    num, den = math.gcd(*nums), math.lcm(*dens)
    if num > 1 or den > 1:
        nums = [p * (den // q) // num for p, q in zip(nums, dens)]
    keys = []
    for e in t:
        k = 0
        for x in e:
            k = (k << w) | x
        keys.append(k)
    return dict(zip(keys, nums)), (num, den)


def _unpack(ints, n, w, p, q):
    """The term dict of ints * p / q, ints packed in n fields of w bits; zeros are dropped."""
    mask = (1 << w) - 1
    shifts = range(w * (n - 1), -1, -w)
    if p != 1:
        ints = {k: v * p for k, v in ints.items()}
    return {
        tuple([(k >> s) & mask for s in shifts]): Fraction(v, q) if q > 1 else Fraction(v)
        for k, v in ints.items()
        if v
    }


def _pack_pair(a, b):
    """(_pack(a), _pack(b), w, guard): every field gets a spare top bit, set in guard."""
    w = max(map(max, (*a.terms, *b.terms))).bit_length() + 1
    guard = sum(1 << (w * i + w - 1) for i in range(a.nvars))
    return _pack(a.terms, w), _pack(b.terms, w), w, guard


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
# All operate on plain dicts mapping exponent tuples to nonzero Fraction
# coefficients and never mutate their arguments.


def _add_terms(a, b):
    out = dict(a)
    for e, c in b.items():
        prev = out.get(e)
        if prev is None:
            out[e] = c
        else:
            s = prev + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _sub_terms(a, b):
    out = dict(a)
    for e, c in b.items():
        prev = out.get(e)
        if prev is None:
            out[e] = -c
        else:
            s = prev - c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _scale_terms(a, c):
    if not c:
        return {}
    return {e: k * c for e, k in a.items()}


def _mul_terms(a, b):
    """Product of two term dicts.

    When the shorter operand has at most two terms, each term pair is formed
    directly: packing both operands would cost more than it saves.  Otherwise
    each operand is packed (_pack), with w wide enough for any exponent of
    the product; a monomial product is then one int add, and the inner loop
    touches ints only (Monagan & Pearce, CASC 2007).  Keys are unpacked and
    coefficients turned back into Fractions once, at the end.
    """
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= 2:
        out = {}
        for ea, ca in a.items():
            p, q = ca.numerator, ca.denominator
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                c = Fraction(p * cb.numerator, q * cb.denominator)
                prev = out.get(e)
                if prev is not None:
                    c += prev
                    if not c:
                        del out[e]
                        continue
                out[e] = c
        return out
    w = (max(map(sum, a)) + max(map(sum, b))).bit_length()
    pa, (na, da) = _pack(a, w)
    pb, (nb, db) = _pack(b, w)
    pb = list(pb.items())
    p = na * nb
    acc = {}
    get = acc.get
    for ka, va in pa.items():
        va *= p
        for kb, vb in pb:
            k = ka + kb
            acc[k] = get(k, 0) + va * vb
    return _unpack(acc, len(next(iter(a))), w, 1, da * db)


def _eval_terms(a, point):
    total = Fraction(0)
    for e, c in a.items():
        v = c
        for x, k in zip(point, e):
            if k:
                v *= x**k
        total += v
    return total


class Poly:
    """Canonical multivariate polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms", "_hash")

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
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _raw(cls, nvars, terms):
        # internal: terms already canonical (kernel output)
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls._raw(nvars, {})

    @classmethod
    def one(cls, nvars):
        return cls.constant(nvars, 1)

    @classmethod
    def constant(cls, nvars, c):
        c = _coerce_coeff(c)
        return cls._raw(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars, i):
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for nvars={nvars}")
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls._raw(nvars, {e: Fraction(1)})

    @classmethod
    def monomial(cls, nvars, exps, c=1):
        return cls(nvars, {tuple(exps): c})

    # -- predicates and views ----------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and not any(next(iter(self.terms))))

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, v):
        if not self.terms:
            return -1
        return max(e[v] for e in self.terms)

    def leading_exponent(self):
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        return max(self.terms, key=_grlex_key)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_exponent()]

    def content(self) -> Fraction:
        """Nonnegative gcd of all coefficients (0 for the zero polynomial).

        Over Q this is gcd(numerators) / lcm(denominators); a running gcd of 1
        can still drop below 1, so every coefficient is read.
        """
        cs = self.terms.values()
        return Fraction(
            math.gcd(*[c.numerator for c in cs]), math.lcm(*[c.denominator for c in cs])
        )

    def primitive(self):
        """Split off the signed rational content.

        Returns ``(content, prim)`` with ``content * prim == self``, ``prim``
        of content one and positive leading coefficient.
        """
        if self.is_zero():
            return Fraction(0), self
        c = self.content()
        if self.leading_coefficient() < 0:
            c = -c
        if c == 1:
            return c, self
        inv = 1 / c
        return c, Poly._raw(self.nvars, _scale_terms(self.terms, inv))

    # -- arithmetic ---------------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError(f"nvars mismatch: {self.nvars} vs {other.nvars}")
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return Poly.constant(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return Poly._raw(self.nvars, _add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return Poly._raw(self.nvars, _sub_terms(self.terms, other.terms))

    def __rsub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return Poly._raw(self.nvars, _sub_terms(other.terms, self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return Poly._raw(self.nvars, _scale_terms(self.terms, Fraction(other)))
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return Poly._raw(self.nvars, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __neg__(self):
        return Poly._raw(self.nvars, _scale_terms(self.terms, Fraction(-1)))

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
        for e, c in self.terms.items():
            k = e[v]
            if k:
                e2 = e[:v] + (k - 1,) + e[v + 1 :]
                out[e2] = out.get(e2, Fraction(0)) + c * k
        return Poly._raw(self.nvars, {e: c for e, c in out.items() if c})

    def evaluate(self, point):
        point = tuple(Fraction(x) for x in point)
        if len(point) != self.nvars:
            raise ValueError("point length must equal nvars")
        return _eval_terms(self.terms, point)

    def lift(self, extra=1):
        """Adjoin `extra` fresh trailing variables (used for charpoly in lambda)."""
        pad = (0,) * extra
        return Poly._raw(self.nvars + extra, {e + pad: c for e, c in self.terms.items()})

    # -- equality, ordering helpers ----------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Poly({self.nvars}, {self.to_text()!r})"

    # -- serialization ------------------------------------------------------

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = [str(c)]
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(f"x{i + 1}")
                elif k > 1:
                    factors.append(f"x{i + 1}^{k}")
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    @classmethod
    def from_text(cls, text: str, nvars: int) -> "Poly":
        """Parse ``c * x1^2 * x3 + ...``; repeated monomials are merged, zeros dropped."""
        terms = {}
        body = text.strip()
        if not body:
            raise ValueError("empty polynomial text")
        for raw_term in body.split("+"):
            raw_term = raw_term.strip()
            if not raw_term:
                raise ValueError(f"empty term in {text!r}")
            num = den = 1
            exps = [0] * nvars
            for piece in raw_term.split("*"):
                piece = piece.strip()
                # only a piece starting with "x" can be a variable
                m = _VAR_RE.match(piece) if piece[:1] == "x" else None
                if m:
                    idx = int(m.group(1)) - 1
                    if not 0 <= idx < nvars:
                        raise ValueError(f"variable x{idx + 1} out of range for nvars={nvars}")
                    exps[idx] += int(m.group(2) or 1)
                else:
                    p, q = _rational_parts(piece)
                    num *= p
                    den *= q
            e = tuple(exps)
            c = Fraction(num, den)
            prev = terms.get(e)
            terms[e] = c if prev is None else prev + c
        return _degree_capped(cls._raw(nvars, {e: c for e, c in terms.items() if c}))

    def to_tree(self):
        return {
            "nvars": self.nvars,
            "terms": [
                {"exps": list(e), "num": c.numerator, "den": c.denominator}
                for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_tree(cls, tree) -> "Poly":
        terms = {}
        for t in tree["terms"]:
            e = tuple(t["exps"])
            terms[e] = terms.get(e, Fraction(0)) + Fraction(t["num"], t["den"])
        return _degree_capped(cls(tree["nvars"], terms))


def _degree_capped(p: Poly) -> Poly:
    d = p.total_degree()
    if d > MAX_PARSED_DEGREE:
        raise DegreeCapExceeded(f"total degree {d} exceeds cap {MAX_PARSED_DEGREE}")
    return p


# -- division ---------------------------------------------------------------


def exact_div(a: Poly, b: Poly) -> Poly:
    """Exact quotient a / b in the polynomial ring.

    A constant b just scales a.  Otherwise each operand is split into its
    rational content times a primitive integer part, the parts are packed
    and divided by _div_packed, and the quotient is content(a) / content(b)
    times theirs.  This is exact over Q: by Gauss's lemma a primitive b
    divides a over Q iff it divides over Z.  When b does not divide a,
    :class:`DivisionFailure` carries the witness a - q*b, q the partial
    quotient reached; the witness is nonzero and b divides a minus it.
    """
    if a.nvars != b.nvars:
        raise ValueError(f"nvars mismatch: {a.nvars} vs {b.nvars}")
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return Poly.zero(a.nvars)
    if b.is_constant():
        return a * (1 / b.constant_value())
    (fa, (na, da)), (fb, (nb, db)), w, guard = _pack_pair(a, b)
    fq, divides = _div_packed(fa, fb, a.nvars, w, guard)
    q = Poly._raw(a.nvars, _unpack(fq, a.nvars, w, na * db, da * nb))
    if not divides:
        raise DivisionFailure(a - q * b)
    return q


# -- gcd ---------------------------------------------------------------------


def _positive_leading(p: Poly) -> Poly:
    if not p.is_zero() and p.leading_coefficient() < 0:
        return -p
    return p


def _univariate_coeffs(p: Poly, v: int):
    """Coefficients of p viewed in the variable v: map v-degree -> Poly."""
    out = {}
    for e, c in p.terms.items():
        k = e[v]
        e2 = e[:v] + (0,) + e[v + 1 :]
        d = out.setdefault(k, {})
        d[e2] = d.get(e2, Fraction(0)) + c
    return {
        k: Poly._raw(p.nvars, {e: c for e, c in d.items() if c}) for k, d in out.items()
    }


def _content_in(p: Poly, v: int) -> Poly:
    coeffs = list(_univariate_coeffs(p, v).values())
    return reduce(poly_gcd, coeffs)


def _lead_in(p: Poly, v: int) -> Poly:
    d = p.degree_in(v)
    out = {}
    for e, c in p.terms.items():
        if e[v] == d:
            out[e[:v] + (0,) + e[v + 1 :]] = c
    return Poly._raw(p.nvars, out)


def _var_monomial(nvars, v, k):
    e = tuple(k if j == v else 0 for j in range(nvars))
    return Poly._raw(nvars, {e: Fraction(1)})


def _prem(a: Poly, b: Poly, v: int) -> Poly:
    """Pseudo-remainder of a by b in the variable v."""
    db = b.degree_in(v)
    lb = _lead_in(b, v)
    r = a
    while not r.is_zero() and r.degree_in(v) >= db:
        lr = _lead_in(r, v)
        shift = _var_monomial(a.nvars, v, r.degree_in(v) - db)
        r = lb * r - lr * shift * b
    return r


# Evaluation points GCDHEU tries, per variable, before it gives up.
_HEU_ATTEMPTS = 6
# Largest evaluation image, in bits, GCDHEU builds before it gives up.
_HEU_MAX_BITS = 1 << 16


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
    """GCDHEU on nonzero int dicts with n packed fields of w bits.

    Returns a gcd in Z[x], up to sign, or None when every evaluation point
    fails.  The top field is evaluated at xi, the remaining fields recurse
    (Liao & Fateman), and the candidate is interpolated from the balanced
    xi-adic digits of the image gcd (Char, Geddes & Gonnet).  It is
    accepted only if its primitive part divides both operands exactly, and
    then it is the gcd, because xi > 2 min(|f|, |g|) + 2: were the gcd
    h k with k nonconstant, k(xi) would be a constant of size at most xi/2
    (the digit bound), yet a divisor of f has its roots in x0 below 1 + |f|
    in size, so either |k(xi)| > xi/2 or a coefficient of k in the other
    variables vanishes at xi, which the same root bound forbids.
    """
    if n == 0:
        return {0: math.gcd(f[0], g[0])}
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
    for _ in range(_HEU_ATTEMPTS):
        if xi.bit_length() * cap > _HEU_MAX_BITS:
            return None
        ff = _heu_eval(f, xi, shift, low)
        gg = _heu_eval(g, xi, shift, low)
        if ff and gg:
            image = _heu_gcd(ff, gg, n - 1, w, guard & low)
            if image is None:
                return None
            h = _heu_interpolate(image, xi, shift, cap)
            if h:
                hc = math.gcd(*h.values())
                h = {k: v // hc for k, v in h.items()}
                if _div_packed(f, h, n, w, guard)[1] and _div_packed(g, h, n, w, guard)[1]:
                    return {k: v * c for k, v in h.items()}
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _heu_poly_gcd(a: Poly, b: Poly):
    """poly_gcd by GCDHEU on the primitive integer parts, or None if it gives up.

    The operands are packed with _pack_pair; the primitive gcd is turned
    back into Fractions once, times frac_gcd of the contents, with a
    positive grlex-leading coefficient.
    """
    (fa, (na, da)), (fb, (nb, db)), w, guard = _pack_pair(a, b)
    h = _heu_gcd(fa, fb, a.nvars, w, guard)
    if h is None:
        return None
    # frac_gcd of the contents, which are in lowest terms
    g = _unpack(h, a.nvars, w, math.gcd(na, nb), math.lcm(da, db))
    return _positive_leading(Poly._raw(a.nvars, g))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Gcd in Q[x1..xn], rational content included, positive leading coefficient.

    The result is frac_gcd(content a, content b) times the primitive gcd
    with a positive grlex-leading coefficient.  The heuristic integer gcd
    GCDHEU (Char, Geddes & Gonnet, J. Symb. Comput. 7, 1989; one variable
    at a time after Liao & Fateman, ISSAC 1995) computes it on the
    primitive integer parts, and every answer it gives has been checked by
    exact trial division.  If it gives up, primitive pseudo-remainder
    sequences on a common variable, with contents handled recursively,
    answer instead.  gcd(0, 0) = 0.
    """
    if a.nvars != b.nvars:
        raise ValueError(f"nvars mismatch: {a.nvars} vs {b.nvars}")
    if a.is_zero():
        return _positive_leading(b)
    if b.is_zero():
        return _positive_leading(a)
    if a.is_constant() or b.is_constant():
        return Poly.constant(a.nvars, frac_gcd(a.content(), b.content()))
    if a.terms == b.terms:
        return _positive_leading(a)
    if len(a.terms) == 1 and len(b.terms) == 1:
        (ea,) = a.terms
        (eb,) = b.terms
        e = tuple(min(x, y) for x, y in zip(ea, eb))
        return Poly._raw(a.nvars, {e: frac_gcd(a.terms[ea], b.terms[eb])})

    common = [
        v for v in range(a.nvars) if a.degree_in(v) > 0 and b.degree_in(v) > 0
    ]
    if not common:
        # a factor of both can only involve shared variables
        return Poly.constant(a.nvars, frac_gcd(a.content(), b.content()))
    g = _heu_poly_gcd(a, b)
    if g is not None:
        return g
    return _prs_gcd(a, b, common)


def _prs_gcd(a: Poly, b: Poly, common) -> Poly:
    """poly_gcd by primitive pseudo-remainder sequences in a common variable."""
    v = min(common, key=lambda u: min(a.degree_in(u), b.degree_in(u)))

    ca = _content_in(a, v)
    cb = _content_in(b, v)
    pa = exact_div(a, ca)
    pb = exact_div(b, cb)
    cg = poly_gcd(ca, cb)

    f, g = (pa, pb) if pa.degree_in(v) >= pb.degree_in(v) else (pb, pa)
    while True:
        r = _prem(f, g, v)
        if r.is_zero():
            prim = exact_div(g, _content_in(g, v))
            break
        if r.degree_in(v) == 0:
            prim = Poly.one(a.nvars)
            break
        f, g = g, exact_div(r, _content_in(r, v))
    return _positive_leading(cg * prim)


def poly_gcd_many(polys) -> Poly:
    it = iter(polys)
    try:
        g = next(it)
    except StopIteration:
        raise ValueError("gcd of an empty collection")
    for p in it:
        g = poly_gcd(g, p)
        if g.is_constant() and not g.is_zero() and g.constant_value() == 1:
            break
    return _positive_leading(g)


# -- squarefree decomposition -------------------------------------------------


class SquarefreeDecomposition:
    """content * prod f_i^{m_i} with squarefree, pairwise coprime, primitive f_i.

    One factor per multiplicity class; callers needing a finer splitting
    declare their own component list.
    """

    __slots__ = ("content", "factors")

    def __init__(self, content: Fraction, factors):
        self.content = Fraction(content)
        self.factors = tuple((f, int(m)) for f, m in factors)

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


def _squarefree_cofactor(p: Poly) -> Poly:
    """gcd(p, dp/dx1, ..., dp/dxn) for primitive p; constant iff p squarefree."""
    g = p
    for v in range(p.nvars):
        if p.degree_in(v) > 0:
            g = poly_gcd(g, p.partial(v))
            if g.is_constant():
                break
    return g


def is_squarefree(f: Poly) -> bool:
    if f.is_zero():
        raise ZeroPolynomial("squarefree test of the zero polynomial")
    _, prim = f.primitive()
    if prim.is_constant():
        return True
    return _squarefree_cofactor(prim).is_constant()


def squarefree_decompose(f: Poly) -> SquarefreeDecomposition:
    """Multiplicity-class decomposition over characteristic zero.

    Gcd-based: with g = gcd(f, all partials) the quotient f/g is the
    squarefree part, and repeated gcds with g peel off the classes of equal
    multiplicity.  Reconstruction is exact by construction.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    content, prim = f.primitive()
    if prim.is_constant():
        return SquarefreeDecomposition(content, [])
    g = _squarefree_cofactor(prim)
    if g.is_constant():
        return SquarefreeDecomposition(content, [(prim, 1)])
    _, g = g.primitive()
    w = exact_div(prim, g)
    _, w = w.primitive()

    factors = []
    i = 1
    while not w.is_constant():
        y = poly_gcd(w, g)
        _, y = y.primitive()
        fi = exact_div(w, y)
        _, fi = fi.primitive()
        if not fi.is_constant():
            factors.append((fi, i))
        w = y
        if not g.is_constant():
            g = exact_div(g, y)
            _, g = g.primitive()
        i += 1
    return SquarefreeDecomposition(content, factors)

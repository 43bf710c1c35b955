"""Exception types shared across the library, and its one type rule.

Every domain failure derives from :class:`HiggspecError` so callers (and the
CLI) can separate precondition violations from genuine bugs.
"""


def _typed(name, x, *types):
    """x when its type is one of types exactly, so a bool is no int; otherwise a TypeError that names x."""
    if type(x) not in types:
        raise TypeError(f"{name} must be {' or '.join(t.__name__ for t in types)}, got {x!r}")
    return x


class HiggspecError(Exception):
    """Base class for all library-level failures."""


class InvalidInput(HiggspecError, ValueError):
    """A library constructor or method refused an ill-formed value.

    Also a ValueError, so code that catches ValueError (the CLI's decoders
    among it) still catches it.
    """


class DivisionFailure(HiggspecError):
    """Exact polynomial division failed; carries the remainder witness."""

    def __init__(self, remainder):
        super().__init__(f"exact division failed (remainder witness: {remainder})")
        self.remainder = remainder


class ZeroPolynomial(HiggspecError):
    """An operation that requires a nonzero polynomial received zero."""


class DegreeCapExceeded(HiggspecError):
    """Desk-scale cap violated before the work starts.

    Covers chart dimension, matrix size and entry degree, the size of an
    enumeration: sl2r tuples (MAX_SL2R_TUPLES) and tower covers
    (MAX_TOWER_COVERS), the gcd's evaluation images (poly._HEU_MAX_BITS),
    checked before each image is built, the terms of a parsed polynomial
    (poly.MAX_PARSED_TERMS), the term pairs of a product or a division
    (poly.MAX_TERM_PAIRS), a division's checked before each quotient term,
    and the total degree of any polynomial formed (poly.MAX_DEGREE, 2^15 - 1,
    the limit of its packed monomial keys), checked before a key is packed.
    """


class NotRankOne(HiggspecError):
    """A symmetric differential has a nonvanishing 2x2 minor.

    The message is rendered only when asked for: callers that catch the
    witness read ``indices`` and ``minor`` and never format the minor.
    """

    def __init__(self, indices, minor):
        super().__init__(indices, minor)
        self.indices = indices
        self.minor = minor

    def __str__(self):
        i, j, k, l = self.indices
        return f"2x2 minor (rows {i},{j} / cols {k},{l}) is nonzero: {self.minor}"


class ZeroInput(HiggspecError):
    """A nonzero input was required."""


class VerificationFailure(HiggspecError):
    """A result failed the identity it is re-checked against; the message names it."""


class FactorizationInconsistent(HiggspecError):
    """Internal identity S = tau * alpha alpha^T failed after construction."""


class RankUnsupported(HiggspecError):
    """Operation only defined for rank-two Higgs fields."""


class FactorizationMismatch(HiggspecError):
    """Higgs field is not compatible with the supplied rank-one factorization."""


class CayleyHamiltonViolation(HiggspecError):
    """An eta-action matrix does not square to -tau * Id."""


class DimensionMismatch(HiggspecError):
    """Lattice / chart dimensions of the operands disagree."""


class ZeroHiggsUnsupported(HiggspecError):
    """The fixed-point stability criterion requires a nonzero Higgs field."""


class DegreeOrderViolation(HiggspecError):
    """Split descriptions must be ordered with deg L1 >= deg L2."""


class NilpotentDatum(HiggspecError):
    """The Hitchin section is undefined at the origin of the spectral base."""


class InconsistentBranchData(HiggspecError):
    """Declared branch components do not reproduce the covering datum."""


class NotApplicable(HiggspecError):
    """Hypothesis for the requested verdict was declared false by the caller."""


class RankCap(HiggspecError):
    """Companion-field construction is capped at rank five."""


class ParseError(HiggspecError):
    """A config document failed to parse; carries the offending path."""

    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class SchemaError(ParseError):
    """A config document is well-formed but violates the schema."""

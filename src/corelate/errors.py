"""Exception types shared across the library."""


class CorelateError(Exception):
    """Base class for all errors raised by this package."""


class TypeMismatch(CorelateError):
    """Arities or endpoints of morphisms do not line up."""


class RingMismatch(CorelateError):
    """Operands live over different coefficient rings."""


class UnknownRing(CorelateError, ValueError):
    """A ring tag names no ring, or GF(p) is asked for with p not prime."""


class UnknownAmbient(CorelateError, ValueError):
    """No ambient, or no subcategory A of it, goes by the given name."""


class NoSuchMorphism(CorelateError):
    """A morphism is asked for whose kind has no member of the requested
    type, such as an injection 3 -> 2, or a split mono with entries in a
    box that holds none."""


class ZeroInverse(CorelateError):
    """Inversion of zero requested."""


class ZeroDenominator(CorelateError):
    """Rational with denominator zero requested."""


class BadScalar(CorelateError, ValueError):
    """A scalar literal names no element of its ring, such as ``1/2`` for
    the integers or ``x`` for any ring."""


class NotInA(CorelateError):
    """A morphism fails the ambient's distinguished-subcategory test."""


class NotAbelian(CorelateError):
    """Operation requires a matrix ambient over a field."""


class UnknownTheory(CorelateError):
    """No semantic theory registered under the given name."""


class UnknownGenerator(CorelateError):
    """Diagram term uses a generator the theory does not bind."""


class TermSyntaxError(CorelateError):
    """Diagram term source fails to parse.

    Carries the character position of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class TermTypeError(CorelateError):
    """Diagram term is grammatical but ill-typed.

    Carries the two mismatched arities.
    """

    def __init__(self, message, expected, actual):
        super().__init__(f"{message}: {expected} vs {actual}")
        self.expected = expected
        self.actual = actual

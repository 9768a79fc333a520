"""The coefficient rings GF(p), the rationals and the integers, as data.

Scalars are plain Python values interpreted relative to a ring object:
``int`` residues in ``[0, p)`` for ``GF(p)``, ``fractions.Fraction`` for the
rationals, ``int`` for the integers.  A ring is the record the echelon core
reads: its name, its modulus ``p`` (``None`` outside GF(p)), whether it is a
field, and its zero and one (the rationals also share their small
integers); it reads scalars into itself, parses and formats them, and does
no arithmetic of its own.  Python integers are unbounded, so no operation
can overflow.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import BadScalar, UnknownRing, ZeroDenominator, ZeroInverse

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the witnesses above is exact for every n below this
# bound (Sorenson and Webster, Math. Comp. 86, 2017).
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < PRIME_LIMIT.

    Larger n raise :class:`UnknownRing`: no witness set is proven for them.
    """
    if n >= PRIME_LIMIT:
        raise UnknownRing(f"{n} is too large to test for primality (the limit is {PRIME_LIMIT})")
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# an integer literal: an optional sign and ASCII digits, nothing else (no
# underscores, no other scripts' digits, both of which int() accepts)
_NUMERAL = re.compile(r"[+-]?[0-9]+")


def numeral_int(text: str, error: type = BadScalar) -> int:
    """The integer a numeral names, for text that ``_NUMERAL`` matches.

    The interpreter converts at most 4,300 digits by default and raises
    ``ValueError`` beyond; a longer numeral is raised as ``error``, a
    :class:`CorelateError` subclass, so that it is refused as input.
    """
    try:
        return int(text)
    except ValueError:
        raise error(f"a number of {len(text.lstrip('+-'))} digits is too long") from None


def _parse_int(text: str, what: str) -> int:
    """The integer a literal names; anything else is a :class:`BadScalar`
    saying the literal is not ``what``."""
    text = text.strip()
    if not _NUMERAL.fullmatch(text):
        raise BadScalar(f"{text!r} is not {what}")
    return numeral_int(text)


def rational_normalize(n: int, d: int) -> Fraction:
    """Reduced fraction with positive denominator; rejects denominator 0."""
    if d == 0:
        raise ZeroDenominator(f"{n}/0 is not a rational")
    return Fraction(n, d)


class _Fields(NamedTuple):
    name: str
    p: Optional[int]
    is_field: bool


class Ring(_Fields):
    """Common interface of the three coefficient domains.

    A ring is the record ``(name, p, is_field)`` and compares and hashes as
    it, so distinct ``GF(7)`` handles compare equal.  ``p`` is the modulus
    of GF(p) and ``None`` for the integers and the rationals; each subclass
    stores its ``zero`` and ``one`` once.
    """

    __slots__ = ()

    def __repr__(self):
        return f"Ring({self.name})"

    def coerce(self, x):
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, x) -> str:
        return str(x)


class IntegerRing(Ring):
    __slots__ = ()
    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"{x} is not an integer")
            return x.numerator
        return int(x)

    def parse(self, text):
        return _parse_int(text, "an integer")


class RationalRing(Ring):
    """The rationals.  ``integers`` maps each integer n with |n| <= 128 to
    ``Fraction(n)``, built once and shared: ``zero`` and ``one`` are two
    of them, ``coerce`` returns them for small ``int``s, and the entries of
    a linmap Q matrix, built from its integer table when read, take every
    integral one from them."""

    __slots__ = ()
    integers = {n: Fraction(n) for n in range(-128, 129)}
    zero = integers[0]
    one = integers[1]

    def coerce(self, x):
        if type(x) is int and x in self.integers:
            return self.integers[x]
        return Fraction(x)

    def parse(self, text):
        n, slash, d = (part.strip() for part in text.partition("/"))
        if not _NUMERAL.fullmatch(n) or (slash and not _NUMERAL.fullmatch(d)):
            raise BadScalar(f"{text.strip()!r} is not a rational")
        return rational_normalize(numeral_int(n), numeral_int(d) if slash else 1)

    def format(self, x):
        x = Fraction(x)
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"


class PrimeField(Ring):
    __slots__ = ()
    zero = 0
    one = 1

    def coerce(self, x):
        p = self.p
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise ZeroInverse(f"{x} has no image in GF({p})")
            return x.numerator * pow(x.denominator, -1, p) % p
        return int(x) % p

    def parse(self, text):
        return self.coerce(_parse_int(text, f"an integer residue mod {self.p}"))


ZZ = IntegerRing("z", None, False)
QQ = RationalRing("q", None, True)

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        if not is_prime(p):
            raise UnknownRing(f"GF({p}): {p} is not prime")
        _gf_cache[p] = PrimeField(f"gf{p}", p, True)
    return _gf_cache[p]


def parse_ring(tag: str) -> Ring:
    """Ring from a textual tag: ``z``, ``q``, or ``gf<p>``."""
    tag = tag.strip().lower()
    if tag == "z":
        return ZZ
    if tag == "q":
        return QQ
    if tag.startswith("gf") and re.fullmatch("[0-9]+", tag[2:]):
        return GF(numeral_int(tag[2:], UnknownRing))
    raise UnknownRing(f"unknown ring tag {tag!r}")

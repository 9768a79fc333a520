"""Exact scalar arithmetic over GF(p), the rationals, and the integers.

Scalars are plain Python values interpreted relative to a ring object:
``int`` residues in ``[0, p)`` for ``GF(p)``, ``fractions.Fraction`` for the
rationals, ``int`` for the integers.  Python integers are unbounded, so no
operation can overflow.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import NotAUnit, UnknownRing, ZeroDenominator, ZeroInverse


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return (g, u, v) with g = gcd(|a|, |b|) = u*a + v*b."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def is_prime(p: int) -> bool:
    """Trial division up to the integer square root."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    limit = isqrt(p)
    while d <= limit:
        if p % d == 0:
            return False
        d += 2
    return True


def rational_normalize(n: int, d: int) -> Fraction:
    """Reduced fraction with positive denominator; rejects denominator 0."""
    if d == 0:
        raise ZeroDenominator(f"{n}/0 is not a rational")
    return Fraction(n, d)


class Ring:
    """Common interface of the three coefficient domains.

    Subclass instances are value objects: equality and hashing go by ring
    name, so distinct ``GF(7)`` handles compare equal.  ``zero`` and ``one``
    are the ring's constants, stored once.
    """

    name: str
    is_field: bool
    zero: object
    one: object

    def __eq__(self, other):
        return isinstance(other, Ring) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"Ring({self.name})"

    # arithmetic
    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def inv(self, a):
        raise NotImplementedError

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    # conversions
    def coerce(self, x):
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, x) -> str:
        return str(x)


class IntegerRing(Ring):
    name = "z"
    is_field = False
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroInverse("0 has no inverse")
        if a in (1, -1):
            return a
        raise NotAUnit(f"{a} is not a unit in the integers")

    def is_unit(self, a):
        return a in (1, -1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"{x} is not an integer")
            return x.numerator
        return int(x)

    def parse(self, text):
        return int(text)


class RationalRing(Ring):
    name = "q"
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroInverse("0 has no inverse")
        return 1 / Fraction(a)

    def is_unit(self, a):
        return a != 0

    def coerce(self, x):
        return Fraction(x)

    def parse(self, text):
        if "/" in text:
            n, d = text.split("/", 1)
            return rational_normalize(int(n), int(d))
        return Fraction(int(text))

    def format(self, x):
        x = Fraction(x)
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"


class PrimeField(Ring):
    is_field = True
    zero = 0
    one = 1

    def __init__(self, p: int):
        if not is_prime(p):
            raise UnknownRing(f"GF({p}): {p} is not prime")
        self.p = p
        self.name = f"gf{p}"

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroInverse(f"0 has no inverse in GF({self.p})")
        return pow(a, -1, self.p)

    def is_unit(self, a):
        return a % self.p != 0

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroInverse(f"{x} has no image in GF({self.p})")
            return self.mul(x.numerator % self.p, self.inv(x.denominator % self.p))
        return int(x) % self.p

    def parse(self, text):
        return self.coerce(int(text))


ZZ = IntegerRing()
QQ = RationalRing()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def scalar_inv(x, ring: Ring):
    """Multiplicative inverse of x in the given ring (errors on non-units)."""
    return ring.inv(ring.coerce(x))


def parse_ring(tag: str) -> Ring:
    """Ring from a textual tag: ``z``, ``q``, or ``gf<p>``."""
    tag = tag.strip().lower()
    if tag == "z":
        return ZZ
    if tag == "q":
        return QQ
    if tag.startswith("gf") and tag[2:].isdigit():
        return GF(int(tag[2:]))
    raise UnknownRing(f"unknown ring tag {tag!r}")

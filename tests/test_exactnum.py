from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from corelate.errors import BadScalar, CorelateError, UnknownRing, ZeroDenominator, ZeroInverse
from corelate.exactnum import (
    GF,
    QQ,
    ZZ,
    PRIME_LIMIT,
    is_prime,
    parse_ring,
    rational_normalize,
)
from oracle_utils import scalar_inv, scalar_mul


def inv(x, ring):
    """The inverse of the scalar x, read into the ring, by the test
    references' arithmetic: a ring is data and inverts nothing."""
    return scalar_inv(ring, ring.coerce(x))


def test_scalar_inv_identity():
    for ring in (ZZ, QQ, GF(7)):
        assert inv(1, ring) == ring.one


def test_scalar_inv_gf7():
    assert inv(3, GF(7)) == 5
    assert scalar_mul(GF(7), 3, 5) == 1


def test_scalar_inv_integer_nonunit():
    with pytest.raises(ArithmeticError, match="not a unit"):
        inv(2, ZZ)
    assert inv(-1, ZZ) == -1


def test_scalar_inv_zero():
    for ring in (ZZ, QQ, GF(5)):
        with pytest.raises(ZeroInverse):
            inv(0, ring)


@given(st.fractions().filter(lambda x: x != 0))
def test_scalar_inv_involution_rationals(x):
    assert inv(inv(x, QQ), QQ) == x
    assert inv(x, QQ) * x == 1


def test_rational_normalize_examples():
    assert rational_normalize(2, -4) == Fraction(-1, 2)
    assert rational_normalize(0, 7) == Fraction(0, 1)
    assert rational_normalize(6, 4) == Fraction(3, 2)


def test_rational_normalize_zero_denominator():
    with pytest.raises(ZeroDenominator):
        rational_normalize(1, 0)


@given(st.integers(), st.integers().filter(bool), st.integers(), st.integers().filter(bool))
def test_rational_normalize_respects_equality(n, d, n2, d2):
    same = n * d2 == n2 * d
    assert (rational_normalize(n, d) == rational_normalize(n2, d2)) == same


@given(st.integers(), st.integers().filter(bool))
def test_rational_normalize_idempotent(n, d):
    f = rational_normalize(n, d)
    assert rational_normalize(f.numerator, f.denominator) == f
    assert f.denominator > 0


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)
    assert GF(2).p == 2
    assert GF(101).p == 101


def test_bad_ring_tags_raise_unknown_ring():
    for tag in ("gf4", "gf1", "gf", "gfx", "r", ""):
        with pytest.raises(UnknownRing):
            parse_ring(tag)
    with pytest.raises(UnknownRing):
        GF(9)


def test_ring_constants_are_stored_values():
    assert (ZZ.zero, ZZ.one) == (0, 1)
    assert type(QQ.zero) is Fraction and type(QQ.one) is Fraction
    assert (GF(7).zero, GF(7).one) == (0, 1)
    assert QQ.zero is QQ.zero  # stored once, not rebuilt on each read


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 97]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in (0, 1, 4, 9, 15, 49, 91))


def test_is_prime_agrees_with_trial_division_below_1e5():
    sieve = [False, False] + [True] * (10**5 - 2)
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(range(d * d, 10**5, d))
    assert [is_prime(n) for n in range(10**5)] == sieve


def test_is_prime_large_and_strong_pseudoprimes():
    assert is_prime(2**61 - 1) and is_prime(10**18 + 9)
    assert not is_prime((10**9 + 7) * (10**9 + 9)) and not is_prime(3 * (2**61 - 1))
    # the least strong pseudoprimes to the prime bases up to 23, and up to 37
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert PRIME_LIMIT == 3317044064679887385961981  # itself a strong pseudoprime to bases 2..41
    with pytest.raises(UnknownRing):
        is_prime(PRIME_LIMIT)
    with pytest.raises(UnknownRing):
        GF(10**30 + 57)


def test_ring_parsing_and_formatting():
    assert parse_ring("z") is ZZ
    assert parse_ring("q") is QQ
    assert parse_ring("gf5") == GF(5)
    assert QQ.parse("-3/6") == Fraction(-1, 2)
    assert QQ.format(Fraction(3, 2)) == "3/2"
    assert QQ.format(Fraction(4, 2)) == "2"
    assert ZZ.parse("-12") == -12
    assert GF(5).parse("7") == 2


@given(st.sampled_from((2, 3, 5, 7, 101, 2**61 - 1)), st.fractions(), st.integers(0, 2))
@example(7, Fraction(1, 2), 0)  # 2 * 4 = 1 mod 7, so 1/2 reads as 4
@example(2, Fraction(1, 2), 0)  # 1/2 has no image in GF(2)
def test_gf_coerce_fraction(p, y, k):
    # the residue v with v * d = n mod p for x = n/d, which exists exactly
    # when p does not divide d; y / p^k makes that case common
    x = y / p**k
    if x.denominator % p == 0:
        with pytest.raises(ZeroInverse):
            GF(p).coerce(x)
        return
    v = GF(p).coerce(x)
    assert 0 <= v < p
    assert v * x.denominator % p == x.numerator % p


@pytest.mark.parametrize(
    "ring, text",
    [(ZZ, "1/2"), (ZZ, "x"), (QQ, "x"), (QQ, "1/"), (QQ, "1/2/3"), (GF(3), "x"), (GF(3), "1/3")],
)
def test_parse_rejects_non_scalars(ring, text):
    with pytest.raises(BadScalar) as err:
        ring.parse(text)
    assert isinstance(err.value, CorelateError) and isinstance(err.value, ValueError)
    assert "\n" not in str(err.value) and repr(text) in str(err.value)


def test_parse_accepts_scalars():
    assert ZZ.parse("-7") == -7
    assert QQ.parse("-3/6") == Fraction(-1, 2) and QQ.parse("4") == Fraction(4)
    assert GF(3).parse("-1") == 2
    with pytest.raises(ZeroDenominator):
        QQ.parse("1/0")

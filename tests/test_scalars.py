"""Exact scalar arithmetic over prime fields and the rationals."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from projline.scalars import (
    GF,
    QQ,
    FieldElement,
    FieldMismatchError,
    PRIME_BOUND,
    PrimeField,
    RationalField,
    _element,
    is_prime,
)

PRIMES = [2, 3, 5, 7, 11, 13]


def test_is_prime_matches_trial_division_reference():
    limit = 100_000
    reference = {n for n in range(2, limit) if all(n % d for d in range(2, isqrt(n) + 1))}
    assert {n for n in range(limit) if is_prime(n)} == reference


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_is_prime_rejects_strong_pseudoprimes(n):
    """Strong pseudoprimes to the bases 2 to 7 and 2 to 23."""
    assert not is_prime(n)


def test_is_prime_decides_large_primes():
    assert is_prime(2**31 - 1) and is_prime(10**18 + 3) and is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (10**9 + 7))


def test_is_prime_refuses_at_the_bound():
    # The bound is the least strong pseudoprime to all 13 bases.
    assert PRIME_BOUND == 1287836182261 * 2575672364521
    message = f"cannot tell whether {PRIME_BOUND} is prime: the test is exact below {PRIME_BOUND}"
    for call in (is_prime, PrimeField):
        with pytest.raises(ValueError) as exc:
            call(PRIME_BOUND)
        assert str(exc.value) == message
    with pytest.raises(ValueError, match="cannot tell whether"):
        is_prime(PRIME_BOUND + 2)


@pytest.mark.parametrize("n", [0, 1, 4, 6, 9, 15, 343])
def test_prime_field_rejects_nonprime_order(n):
    with pytest.raises(ValueError):
        PrimeField(n)


def test_normalization_and_rendering():
    F = GF(5)
    assert F(7) == F(2)
    assert F(-1) == F(4)
    assert str(F(7)) == "2"
    assert str(F) == "F5"
    assert F.characteristic == 5
    assert [int(str(x)) for x in F.elements()] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("p", PRIMES)
def test_field_axioms_exhaustive(p):
    F = GF(p)
    xs = list(F.elements())
    for a in xs:
        assert a + F.zero() == a
        assert a * F.one() == a
        assert a + (-a) == F.zero()
        if a:
            assert a * a.inv() == F.one()
        for b in xs:
            assert a + b == b + a
            assert a * b == b * a
            for c in xs:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_inverse_frozen_values_mod_7():
    F = GF(7)
    inverses = {1: 1, 2: 4, 3: 5, 4: 2, 5: 3, 6: 6}
    for v, w in inverses.items():
        assert F(v).inv() == F(w)
    with pytest.raises(ZeroDivisionError):
        F(0).inv()


def test_mixed_fields_rejected_ints_coerced():
    a = GF(5)(2)
    with pytest.raises(FieldMismatchError):
        a + GF(7)(1)
    with pytest.raises(FieldMismatchError):
        a * QQ(1)
    with pytest.raises(FieldMismatchError, match="^2 does not belong to F7$"):
        GF(7)(a)
    assert a + 3 == GF(5)(0)
    assert 3 + a == GF(5)(0)
    assert 1 - a == GF(5)(4)
    assert 1 / a == GF(5)(3)


def test_rationals_are_exact():
    assert QQ(Fraction(1, 3)) + QQ(Fraction(1, 6)) == QQ(Fraction(1, 2))
    assert str(QQ(Fraction(-3, 2))) == "-3/2"
    assert QQ.characteristic == 0
    assert str(RationalField()) == "Q"
    with pytest.raises(ZeroDivisionError):
        QQ(0).inv()


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(rationals, rationals)
def test_rational_ops_match_fraction(x, y):
    assert (QQ(x) + QQ(y)).value == x + y
    assert (QQ(x) - QQ(y)).value == x - y
    assert (QQ(x) * QQ(y)).value == x * y
    if y != 0:
        assert (QQ(x) / QQ(y)).value == x / y


@given(st.integers(), st.integers())
def test_prime_field_ops_match_mod_p(a, b):
    F = GF(11)
    assert (F(a) + F(b)).value == (a + b) % 11
    assert (F(a) * F(b)).value == (a * b) % 11
    assert (F(a) - F(b)).value == (a - b) % 11


@pytest.mark.parametrize("field", [GF(7), GF(2**31 - 1), QQ], ids=str)
def test_trusted_elements_equal_canonicalized_ones(field):
    # the trusted constructor, given a canonical value, builds the element
    # that the public constructors build from any value
    raws = [0, 1, 5, -3, 10**12] if field is not QQ else [0, 1, Fraction(-6, 4), 7]
    for raw in raws:
        public = FieldElement(raw, field)
        assert public == field(raw)
        trusted = _element(public.value, field)
        assert trusted == public and hash(trusted) == hash(public)
        assert type(trusted.value) is type(public.value)
        assert field._wrap(raw if field is not QQ else Fraction(raw)) == public
    if field is QQ:
        assert type(FieldElement(3, QQ).value) is Fraction
        assert FieldElement(Fraction(-6, 4), QQ).value == Fraction(-3, 2)
    else:
        assert FieldElement(-1, field).value == field.p - 1
        assert field(field.p + 2).value == 2


def test_raw_ratios_take_one_inverse_and_refuse_zero():
    F = GF(11)
    for num in range(-11, 12):
        for den in range(1, 11):
            assert F._ratio(num, den) == F(num) / F(den)
        for zero in (0, 11, -22):
            with pytest.raises(ZeroDivisionError, match="^zero has no multiplicative inverse$"):
                F._ratio(num, zero)
    assert QQ._ratio(Fraction(1), Fraction(-2)).value == Fraction(-1, 2)
    assert type(QQ._ratio(1, Fraction(3)).value) is Fraction
    with pytest.raises(ZeroDivisionError, match="^zero has no multiplicative inverse$"):
        QQ._ratio(Fraction(1), Fraction(0))
    with pytest.raises(ZeroDivisionError, match="^zero has no multiplicative inverse$"):
        GF(5)(3) / GF(5)(0)


def test_equal_fields_combine_and_floats_are_refused():
    # a field equal to this element's field but not the same object
    # combines; a float never enters, from either side
    a = GF(5)(2)
    assert a + PrimeField(5)(3) == GF(5)(0)
    assert QQ(1) + RationalField()(Fraction(1, 2)) == QQ(Fraction(3, 2))
    for x in (a, QQ(Fraction(1, 3))):
        for op in (
            lambda: x + 2.5,
            lambda: 2.5 + x,
            lambda: 2.5 - x,
            lambda: x * 2.5,
            lambda: 2.5 / x,
            lambda: x / 2.5,
        ):
            with pytest.raises(TypeError):
                op()

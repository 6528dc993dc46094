"""Exact scalar arithmetic over prime fields and the rationals.

Elements are immutable and kept in canonical form: residues in
``[0, p-1]`` for a prime field, fractions in lowest terms with a
positive denominator for the rationals.  Arithmetic never rounds and
never silently mixes fields.  Arithmetic runs on raw values (ints for
F_p, Fractions for Q); a field makes one element of a raw result by
reducing it (``_wrap``) or by one inverse (``_ratio``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Union


class FieldMismatchError(ValueError):
    """Two elements from different fields were combined."""


# Miller-Rabin with these bases is exact below PRIME_BOUND (Sorenson and Webster, 2015).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above PRIME_BOUND."""
    if n >= PRIME_BOUND:
        raise ValueError(f"cannot tell whether {n} is prime: the test is exact below {PRIME_BOUND}")
    if n < 2 or any(n % q == 0 for q in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s  # n - 1 = d * 2^s with d odd
    for a in _BASES:
        # n passes base a when a^d is 1 or one of a^d, a^2d, ..., a^(2^(s-1) d) is -1.
        x = pow(a, d, n)
        if x != 1 and n - 1 not in accumulate(range(s - 1), lambda y, _: y * y % n, initial=x):
            return False
    return True


_NO_INVERSE = "zero has no multiplicative inverse"


class _Field:
    """Each field supplies ``_canonical`` (any value to its raw form), ``_wrap`` and ``_ratio``."""

    def __call__(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatchError(f"{value} does not belong to {self}")
            return value
        return _element(self._canonical(value), self)

    def zero(self) -> "FieldElement":
        return self(0)

    def one(self) -> "FieldElement":
        return self(1)


@dataclass(frozen=True)
class PrimeField(_Field):
    """The field of integers modulo a prime ``p``."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise ValueError(f"field order must be prime, got {self.p!r}")

    @property
    def characteristic(self) -> int:
        return self.p

    def _canonical(self, value) -> int:
        return int(value) % self.p

    def _wrap(self, raw: int) -> "FieldElement":
        return _element(raw % self.p, self)

    def _ratio(self, num: int, den: int) -> "FieldElement":
        if not den % self.p:
            raise ZeroDivisionError(_NO_INVERSE)
        return _element(num * pow(den, -1, self.p) % self.p, self)

    def elements(self) -> Iterator["FieldElement"]:
        for v in range(self.p):
            yield self(v)

    def __str__(self) -> str:
        return f"F{self.p}"


@dataclass(frozen=True)
class RationalField(_Field):
    """The field of rational numbers with arbitrary-precision arithmetic."""

    @property
    def characteristic(self) -> int:
        return 0

    _canonical = staticmethod(Fraction)

    def _wrap(self, raw: Fraction) -> "FieldElement":
        return _element(raw, self)

    def _ratio(self, num: Fraction, den: Fraction) -> "FieldElement":
        if not den:
            raise ZeroDivisionError(_NO_INVERSE)
        return _element(Fraction(num, den), self)

    def __str__(self) -> str:
        return "Q"


Field = Union[PrimeField, RationalField]


def _arith(op):
    """A binary operator of elements: ``op(field, own raw value, other's raw value)``."""

    def method(self, other) -> "FieldElement":
        v = self._coerce(other)
        return v if v is NotImplemented else op(self.field, self.value, v)

    return method


@dataclass(frozen=True, slots=True)
class FieldElement:
    """A scalar in canonical form together with the field it lives in."""

    value: Union[int, Fraction]
    field: Field

    def __post_init__(self) -> None:
        # Canonicalize on construction so equality and hashing are exact.
        object.__setattr__(self, "value", self.field._canonical(self.value))

    def _coerce(self, other):
        """The raw value of ``other`` in this element's field."""
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatchError(
                    f"cannot combine {self} ({self.field}) with {other} ({other.field})"
                )
            return other.value
        if isinstance(other, int):
            return self.field._canonical(other)
        return NotImplemented

    __add__ = __radd__ = _arith(lambda field, a, b: field._wrap(a + b))
    __sub__ = _arith(lambda field, a, b: field._wrap(a - b))
    __rsub__ = _arith(lambda field, a, b: field._wrap(b - a))
    __mul__ = __rmul__ = _arith(lambda field, a, b: field._wrap(a * b))
    __truediv__ = _arith(lambda field, a, b: field._ratio(a, b))
    __rtruediv__ = _arith(lambda field, a, b: field._ratio(b, a))

    def __neg__(self) -> "FieldElement":
        return self.field._wrap(-self.value)

    def inv(self) -> "FieldElement":
        return self.field._ratio(1, self.value)

    def __bool__(self) -> bool:
        return self.value != 0

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"{self.value} in {self.field}"


_set_value = FieldElement.__dict__["value"].__set__
_set_field = FieldElement.__dict__["field"].__set__


def _element(value, field: Field) -> FieldElement:
    """The element of ``field`` with the canonical raw ``value``, skipping ``__post_init__``."""
    element = object.__new__(FieldElement)
    _set_value(element, value)
    _set_field(element, field)
    return element


def GF(p: int) -> PrimeField:
    """Shorthand constructor for a prime field."""
    return PrimeField(p)


QQ = RationalField()

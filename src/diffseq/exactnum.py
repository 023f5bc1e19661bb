"""Exact arithmetic over the rationals and the real quadratic field Q(sqrt5).

Every comparison that feeds a certificate is decided by integer arithmetic.
Numeric estimates may seed a search (floor bracketing), but the returned
value is always confirmed by exact sign tests.

Rationals are stdlib ``fractions.Fraction`` values, which stay in reduced
canonical form (positive denominator, gcd 1) after every operation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rational = Fraction

RationalLike = Union[int, Fraction, str]
NumberLike = Union[int, Fraction, str, "Q5"]


def to_rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, Fraction, or a "p/q" string.

    Decimal float syntax is rejected on purpose: callers must state exact
    values ("21/100", not 0.21).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "." in text or "e" in text or "E" in text:
            raise ValueError(f"exact rational required (got {value!r}); write p/q")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


def rational_str(q: Fraction) -> str:
    """Serialize a rational as the decimal string "p/q"."""
    return f"{q.numerator}/{q.denominator}"


class Q5:
    """An element a + b*sqrt(5) of Q(sqrt5) with rational a, b.

    The representation is unique (Fraction is canonical), so equality is
    componentwise and values are hashable. All predicates (sign, order,
    floor) are exact; no floating point enters any decision.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        object.__setattr__(self, "a", to_rational(a))
        object.__setattr__(self, "b", to_rational(b))

    def __setattr__(self, name, value):
        raise AttributeError("Q5 values are immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def coerce(x: NumberLike) -> "Q5":
        if isinstance(x, Q5):
            return x
        return Q5(to_rational(x), 0)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_integer_triple(self) -> tuple[int, int, int]:
        """Return integers (P, U, L) with L > 0 and value == (P + U*sqrt5)/L."""
        ad, bd = self.a.denominator, self.b.denominator
        L = ad * (bd // math.gcd(ad, bd))
        return self.a.numerator * (L // ad), self.b.numerator * (L // bd), L

    # -- field arithmetic ----------------------------------------------------

    def __add__(self, other: NumberLike) -> "Q5":
        o = Q5.coerce(other)
        return Q5(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: NumberLike) -> "Q5":
        o = Q5.coerce(other)
        return Q5(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: NumberLike) -> "Q5":
        return Q5.coerce(other) - self

    def __neg__(self) -> "Q5":
        return Q5(-self.a, -self.b)

    def __mul__(self, other: NumberLike) -> "Q5":
        o = Q5.coerce(other)
        return Q5(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "Q5":
        """Multiplicative inverse via the conjugate: 1/(a+b*sqrt5) = (a-b*sqrt5)/(a^2-5b^2)."""
        norm = self.a * self.a - 5 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt5)")
        return Q5(self.a / norm, -self.b / norm)

    def __truediv__(self, other: NumberLike) -> "Q5":
        return self * Q5.coerce(other).inverse()

    def __rtruediv__(self, other: NumberLike) -> "Q5":
        return Q5.coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "Q5":
        if not isinstance(n, int):
            raise TypeError("Q5 exponents must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        result, base = Q5(1), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "Q5":
        return Q5(self.a, -self.b)

    # -- exact predicates ----------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}.

        When a and b agree in sign the answer is immediate; for mixed signs
        compare a^2 against 5 b^2 and combine with the sign of a.
        """
        a, b = self.a, self.b
        if b == 0:
            return -1 if a < 0 else (0 if a == 0 else 1)
        if a == 0:
            return -1 if b < 0 else 1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # mixed signs: |a| vs |b|*sqrt5
        d = a * a - 5 * b * b
        if d == 0:
            return 0  # unreachable for b != 0 (sqrt5 is irrational); kept for totality
        return (1 if d > 0 else -1) * (1 if a > 0 else -1)

    def __eq__(self, other) -> bool:
        if isinstance(other, (Q5, int, Fraction)):
            o = Q5.coerce(other)
            return self.a == o.a and self.b == o.b
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b))

    def __lt__(self, other: NumberLike) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: NumberLike) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: NumberLike) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: NumberLike) -> bool:
        return (self - other).sign() >= 0

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    # -- floor / fractional part ---------------------------------------------

    def floor(self) -> int:
        """The unique integer n with n <= x < n+1, confirmed by two sign tests.

        The candidate comes from an integer-sqrt estimate (never from binary
        floats, whose range and precision give out on large inputs); if the
        confirmation ever failed, a certified bracket search would take over.
        """
        if self.b == 0:
            return self.a.numerator // self.a.denominator
        P, U, L = self.as_integer_triple()
        s = math.isqrt(5 * U * U)
        n = (P + s) // L if U > 0 else (P - s - 1) // L
        if (self - n).sign() >= 0 and (self - (n + 1)).sign() < 0:
            return n
        return self._floor_bracket()  # pragma: no cover - estimate is provably exact

    def _floor_bracket(self) -> int:
        # geometric widening to a bracket lo <= x < hi, then bisection
        lo, hi, step = 0, 1, 1
        while (self - lo).sign() < 0:
            lo -= step
            step *= 2
        step = 1
        while (self - hi).sign() >= 0:
            hi += step
            step *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if (self - mid).sign() >= 0:
                lo = mid
            else:
                hi = mid
        return lo

    def frac(self) -> "Q5":
        """Fractional part in [0, 1); x == x.floor() + x.frac() exactly."""
        return self - self.floor()

    # -- conversion / display ------------------------------------------------

    def to_float(self) -> float:
        """Approximate value; display only, never used in decisions."""
        return float(self.a) + float(self.b) * math.sqrt(5.0)

    def __repr__(self) -> str:
        return f"Q5({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt5"

    def to_json(self) -> dict:
        return {"a": rational_str(self.a), "b": rational_str(self.b)}

    @staticmethod
    def from_json(obj: dict) -> "Q5":
        return Q5(to_rational(obj["a"]), to_rational(obj["b"]))


SQRT5 = Q5(0, 1)
PHI = Q5(Fraction(1, 2), Fraction(1, 2))        # (1+sqrt5)/2
PHI_CONJ = Q5(Fraction(1, 2), Fraction(-1, 2))  # (1-sqrt5)/2


def sign(x: NumberLike) -> int:
    """Exact sign of a rational or Q(sqrt5) value."""
    if isinstance(x, Q5):
        return x.sign()
    q = to_rational(x)
    return -1 if q < 0 else (0 if q == 0 else 1)


def floor_int(x: NumberLike) -> int:
    if isinstance(x, Q5):
        return x.floor()
    q = to_rational(x)
    return q.numerator // q.denominator


def frac(x: NumberLike):
    """Fractional part {x} = x - floor(x), preserving the input's number type."""
    if isinstance(x, Q5):
        return x.frac()
    q = to_rational(x)
    return q - (q.numerator // q.denominator)


def dist_nearest_int(x: NumberLike):
    """Distance to the nearest integer: min({x}, 1 - {x}), in [0, 1/2]."""
    f = frac(x)
    g = 1 - f
    if isinstance(f, Q5):
        return f if (f - g).sign() <= 0 else g
    return min(f, g)


class RatInterval:
    """A closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: RationalLike, hi: RationalLike):
        lo, hi = to_rational(lo), to_rational(hi)
        if lo > hi:
            raise ValueError(f"empty interval: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("RatInterval values are immutable")

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: RationalLike) -> bool:
        q = to_rational(x)
        return self.lo <= q <= self.hi

    def contains_interval(self, other: "RatInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __eq__(self, other) -> bool:
        if isinstance(other, RatInterval):
            return self.lo == other.lo and self.hi == other.hi
        return NotImplemented

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"RatInterval({self.lo!r}, {self.hi!r})"

    def to_json(self) -> dict:
        return {"lo": rational_str(self.lo), "hi": rational_str(self.hi)}

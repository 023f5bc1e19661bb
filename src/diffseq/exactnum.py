"""Exact arithmetic over the rationals and the real quadratic field Q(sqrt5).

Every order, floor and fractional-part decision is made by one integer
kernel: ``sign5(A, B)`` is the sign of A + B*sqrt5 and ``floor5(P, U, L)``
is floor((P + U*sqrt5)/L), both for integers; ``Q5.sign()`` is the only
order on a value. Loops put their values over one common denominator
(``integer_triples``) and call the kernel on integers, building no ``Q5``
object per step; the window routine returns the fractional part it tested.

Rationals are stdlib ``fractions.Fraction`` values, which stay in reduced
canonical form (positive denominator, gcd 1) after every operation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

RationalLike = Union[int, Fraction, str]
NumberLike = Union[int, Fraction, str, "Q5"]

_RATIONAL_TEXT = re.compile("-?[0-9]+(/[0-9]+)?")


def to_rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, Fraction, or a "p/q" string.

    A string must be ASCII digits with an optional leading minus and an
    optional "/q", the gapset schema's pattern, matched in full: no decimal
    point or exponent ("21/100", not 0.21), no sign "+", underscore,
    surrounding space or non-ASCII digit.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):  # JSON true is no number
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_TEXT.fullmatch(value):
            raise ValueError(f"exact rational required (got {value!r}); write p/q")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


def rational_str(q: Fraction) -> str:
    """Serialize a rational as the decimal string "p/q"."""
    return f"{q.numerator}/{q.denominator}"


# -- the integer kernel ------------------------------------------------------------


def sign5(A: int, B: int) -> int:
    """Exact sign of A + B*sqrt5 for integers A, B, in {-1, 0, +1}.

    When A and B agree in sign the answer is immediate. Otherwise A^2 is
    compared with 5*B^2, which are never equal because sqrt5 is irrational.
    """
    if A >= 0 and B >= 0:
        return 1 if A or B else 0
    if A <= 0 and B <= 0:
        return -1
    return 1 if (A * A > 5 * B * B) == (A > 0) else -1


def floor5(P: int, U: int, L: int) -> int:
    """floor((P + U*sqrt5)/L) for integers P, U and L > 0.

    With s = isqrt(5*U^2), |U|*sqrt5 lies strictly between s and s + 1 when
    U != 0. So P + U*sqrt5 lies strictly between the consecutive integers
    P + s and P + s + 1 (U > 0) or P - s - 1 and P - s (U < 0), and no
    multiple of L lies strictly between two consecutive integers: the floor
    of the quotient is the floor of the lower integer divided by L.
    """
    s = math.isqrt(5 * U * U)
    return (P + s) // L if U >= 0 else (P - s - 1) // L


class Q5:
    """An element a + b*sqrt(5) of Q(sqrt5) with rational a, b.

    The representation is unique (Fraction is canonical), so equality is
    componentwise and values are hashable. ``sign()`` is the one order
    primitive and is exact; no floating point enters any decision.
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

    def as_integer_triple(self) -> tuple[int, int, int]:
        """Return integers (P, U, L) with L > 0 and value == (P + U*sqrt5)/L."""
        L, [(P, U)] = integer_triples(self)
        return P, U, L

    # -- arithmetic ----------------------------------------------------------

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

    # -- exact predicates ----------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        P, U, _ = self.as_integer_triple()
        return sign5(P, U)

    def __eq__(self, other) -> bool:
        if isinstance(other, (Q5, int, Fraction)) and not isinstance(other, bool):
            o = Q5.coerce(other)
            return self.a == o.a and self.b == o.b
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    # -- conversion / display ------------------------------------------------

    def __repr__(self) -> str:
        return f"Q5({self.a!r}, {self.b!r})"

    def to_json(self) -> dict:
        return {"a": rational_str(self.a), "b": rational_str(self.b)}


SQRT5 = Q5(0, 1)
PHI = Q5(Fraction(1, 2), Fraction(1, 2))        # (1+sqrt5)/2
PHI_CONJ = Q5(Fraction(1, 2), Fraction(-1, 2))  # (1-sqrt5)/2


def integer_triples(*values: NumberLike) -> tuple[int, list[tuple[int, int]]]:
    """Put values over one common denominator L > 0.

    Returns L and one pair (P, U) per value, with value == (P + U*sqrt5)/L.
    """
    qs = [Q5.coerce(v) for v in values]
    L = math.lcm(*(q.a.denominator for q in qs), *(q.b.denominator for q in qs))
    return L, [
        (q.a.numerator * (L // q.a.denominator), q.b.numerator * (L // q.b.denominator))
        for q in qs
    ]


def _first_outside(
    alpha: NumberLike, seq: Iterable[int], lo: NumberLike, hi: NumberLike, closed: bool
) -> Optional[tuple[int, Q5]]:
    """(s, {alpha*s}) for the first s in seq with {alpha*s} outside the window, or None.

    The window is [lo, hi] when ``closed`` and (lo, hi) otherwise. Each
    element costs one floor and two sign calls of the integer kernel, and
    the fractional part returned is the one they tested.
    """
    L, ((P, U), (lp, lu), (hp, hu)) = integer_triples(alpha, lo, hi)
    # inside iff sign({alpha*s} - lo) >= least and sign({alpha*s} - hi) <= most
    least, most = (0, 0) if closed else (1, -1)
    for s in seq:
        A, B = P * s, U * s
        A -= floor5(A, B, L) * L  # {alpha*s} = (A + B*sqrt5)/L
        if sign5(A - lp, B - lu) < least or sign5(A - hp, B - hu) > most:
            return s, Q5(Fraction(A, L), Fraction(B, L))
    return None


@dataclass(frozen=True)
class RatInterval:
    """A closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo, hi = to_rational(self.lo), to_rational(self.hi)
        if lo > hi:
            raise ValueError(f"empty interval: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains_interval(self, other: "RatInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def to_json(self) -> dict:
        return {"lo": rational_str(self.lo), "hi": rational_str(self.hi)}

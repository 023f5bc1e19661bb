"""Gap sets D of positive integers: definition rules, enumeration, transforms.

A ``GapSetSpec`` is a rule denoting a set of positive integers; a
``GapSetView`` is its materialized, sorted prefix up to a bound. Views are
complete: no member of the denoted set below the bound is missing, and a view
carries its rule's period when the rule has one.

Every rule enumerates through one path: membership bytes over a window of
[0..bound] that one C-level ``compress`` reads out, after a sorted list of
the elements below the window. The sieved kinds (nonmultiples, primes) fill
the window; the listed kinds (fibonacci, even_fibonacci, pell, geometric,
polynomial, explicit) leave it empty and list their elements, since their
bounds may reach 10**40. The transforms and unions act on windows alone: a
shift moves the window, so a set shifted far up holds only its inner bytes,
and a union's listed elements below the window stay a sorted list.

Enumeration makes an int only for the candidates it must test. The one
prime sieve holds the odd numbers alone; the primes themselves are read
through a wheel mod 30, so 8 of every 30 positions become ints, and the
window of a transformed or united primes rule spreads the odd bytes over
[0..bound]. A polynomial's values come from finite differences: d nested
C-level running sums from an n past which p increases, with the integer
values kept by a cycled divisibility mask, and only the few n below it
evaluated one by one.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, cycle, islice, repeat
from typing import Optional, Sequence

from .certs import Certificate
from .exactnum import rational_str, to_rational

# the sieved kinds (primes, nonmultiples) hold one byte per integer up to the
# bound, and a union with a sieved part one per position of its widest sieved
# part; 10x the coloring length cap, so divided(..., d <= 10) still reaches a
# scan at that cap
MAX_SIEVE = 10**8

# the polynomial kind walks p(n) once per n until p passes the bound
MAX_POLY_STEPS = 10**7

# the primes below 31, then the wheel mod 30: the residues 1, 7, 11, 13, 17,
# 19, 23, 29 prime to 30, read from 31 by the steps between them
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
_WHEEL = (1, 7, 11, 13, 17, 19, 23, 29)
_WHEEL_STEPS = (6, 4, 2, 4, 2, 4, 6, 2)

# the recurrence kinds as (a_0, a_1, x, y) with a_{i+2} = x*a_{i+1} + y*a_i;
# geometric(base) is (1, base, base, 0)
_RECURRENCES = {"fibonacci": (1, 2, 1, 1), "even_fibonacci": (2, 8, 4, 1), "pell": (1, 2, 2, 1)}


class SpecValidationError(ValueError):
    """A set definition violates its structural hypotheses."""


def _int(value, what: str) -> int:
    # no silent truncation (4.7 -> 4) or parsing ("4" -> 4); JSON booleans are not integers
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecValidationError(f"{what} must be an integer (got {value!r})")
    return value


def _divisor(d) -> int:
    if _int(d, "divisor") < 1:
        raise SpecValidationError("divisor must be >= 1")
    return d


def _array(obj: dict, key: str) -> list:
    # a JSON string is iterable too: "12" must not read as the elements 1, 2
    value = obj[key]
    if not isinstance(value, list):
        raise SpecValidationError(f"set definition field {key!r} must be an array (got {value!r})")
    return value


def fib_values(count: int) -> list[int]:
    """Fibonacci values f_0..f_count with f_1 = f_2 = 1 (Binet indexing)."""
    vals = [0, 1]
    for _ in range(count - 1):
        vals.append(vals[-1] + vals[-2])
    return vals


@dataclass(frozen=True)
class GapSetView:
    """Sorted, deduplicated elements of a gap set, complete up to ``bound``.

    ``period``, when known, is a period m of the whole set, read from its
    rule: every x >= 1 is an element exactly when x + m is one.
    """

    elements: tuple[int, ...]
    bound: int
    period: Optional[int] = None

    def __post_init__(self):
        els = self.elements
        if not all(map(operator.lt, els, islice(els, 1, None))):
            raise ValueError("view elements must be strictly increasing")
        if els and els[0] < 1:
            raise ValueError("gap set elements must be positive")
        if els and els[-1] > self.bound:
            raise ValueError("element exceeds the view bound")

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def restrict(self, bound: int) -> "GapSetView":
        """The sub-view of elements <= bound (bound must not exceed ours)."""
        if bound > self.bound:
            raise ValueError("cannot extend a view; re-enumerate its defining rule instead")
        cut = bisect.bisect_right(self.elements, bound)
        return GapSetView(self.elements[:cut], bound, self.period)

    def to_json(self) -> dict:
        return {"elements": list(self.elements), "bound": self.bound}


@dataclass(frozen=True)
class GapSetSpec:
    """A rule denoting a set of positive integers.

    Build instances through the classmethod constructors and the transforms;
    they validate the structural hypotheses (e.g. a polynomial rule needs a positive leading
    coefficient and zero constant term).
    """

    kind: str
    base: Optional[int] = None
    m: Optional[int] = None
    coeffs: Optional[tuple[Fraction, ...]] = None
    elements: Optional[tuple[int, ...]] = None
    parts: Optional[tuple["GapSetSpec", ...]] = None
    inner: Optional["GapSetSpec"] = None
    d: Optional[int] = None
    shift: Optional[int] = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def fibonacci(cls) -> "GapSetSpec":
        return cls("fibonacci")

    @classmethod
    def even_fibonacci(cls) -> "GapSetSpec":
        return cls("even_fibonacci")

    @classmethod
    def pell(cls) -> "GapSetSpec":
        return cls("pell")

    @classmethod
    def geometric(cls, base: int) -> "GapSetSpec":
        if _int(base, "geometric base") < 2:
            raise SpecValidationError("geometric base must be >= 2")
        return cls("geometric", base=base)

    @classmethod
    def polynomial(cls, coeffs: Sequence) -> "GapSetSpec":
        """Range of a polynomial, coefficients highest degree first.

        The constant term (last coefficient) must be zero and the leading
        coefficient positive; values that are not positive integers are
        discarded during enumeration.
        """
        try:
            cs = tuple(to_rational(c) for c in coeffs)
        except (TypeError, ValueError) as exc:
            raise SpecValidationError(f"polynomial coefficients: {exc}") from None
        if len(cs) < 2:
            raise SpecValidationError("polynomial needs degree >= 1 plus a constant term")
        if cs[-1] != 0:
            raise SpecValidationError("polynomial constant term must be 0")
        if cs[0] <= 0:
            raise SpecValidationError("polynomial leading coefficient must be positive")
        return cls("polynomial", coeffs=cs)

    @classmethod
    def nonmultiples(cls, m: int) -> "GapSetSpec":
        if _int(m, "nonmultiples modulus") < 1:
            raise SpecValidationError("nonmultiples modulus must be >= 1")
        return cls("nonmultiples", m=m)

    @classmethod
    def primes(cls) -> "GapSetSpec":
        return cls("primes")

    @classmethod
    def explicit(cls, elements: Sequence[int]) -> "GapSetSpec":
        els = tuple(sorted({_int(e, "explicit element") for e in elements}))
        if els and els[0] < 1:
            raise SpecValidationError("explicit elements must be positive integers")
        return cls("explicit", elements=els)

    @classmethod
    def union(cls, parts: Sequence["GapSetSpec"]) -> "GapSetSpec":
        return cls("union", parts=tuple(parts))

    # -- transforms ------------------------------------------------------------

    def divide(self, d: int) -> "GapSetSpec":
        """The set {a/d : a in A, d | a}."""
        d = _divisor(d)
        return self if d == 1 else GapSetSpec("divided", inner=self, d=d)

    def filter_multiples(self, d: int) -> "GapSetSpec":
        """The subset {a in A : d | a}."""
        d = _divisor(d)
        return self if d == 1 else GapSetSpec("multiples_filtered", inner=self, d=d)

    def shifted(self, c: int) -> "GapSetSpec":
        c = _int(c, "shift")
        return self if c == 0 else GapSetSpec("shifted", inner=self, shift=c)

    # -- enumeration -----------------------------------------------------------

    def enumerate(self, bound: int) -> GapSetView:
        """Materialize the denoted set up to ``bound`` (complete, sorted)."""
        if bound < 1:
            raise ValueError("enumeration bound must be >= 1")
        if self.kind == "primes":
            # the primes below 31, then the candidates prime to 30 through the
            # wheel, then the odd positions past its last full block: block
            # j >= 1 of 30j+1..30j+29 holds 8 candidates, and sel[8(j-1)+a] is
            # the odd sieve byte of 30j + _WHEEL[a]. No int is made for a
            # position off the wheel, and only the selector, 8 bytes per 30
            # integers, is held while the tuple is built
            odd = _odd_sieve(bound)
            blocks = max((bound + 1) // 30 - 1, 0)
            sel = bytearray(8 * blocks)
            for a, res in enumerate(_WHEEL):
                at = (30 + res) // 2
                sel[a::8] = odd[at : at + 15 * blocks : 15]
            tail = 30 * blocks + 31
            found = chain(
                _SMALL_PRIMES[: bisect.bisect_right(_SMALL_PRIMES, bound)],
                compress(accumulate(cycle(_WHEEL_STEPS), initial=31), sel),
                compress(range(tail, bound + 1, 2), odd[tail // 2 :]),
            )
            del odd
        else:
            lo, flags, below = self._members(bound)
            found = chain(below, compress(range(lo, lo + len(flags)), flags))
            del flags, below
        elements = tuple(found)
        del found  # no membership bytes are held while the view validates
        return GapSetView(elements, bound, self._period())

    def _period(self) -> Optional[int]:
        """A period m of the denoted set from its rule alone, or None.

        nonmultiples(m) has period m, and a linear polynomial (p/q) n has p,
        since its values are the multiples of p. A union has the lcm of its
        parts' periods, dividing by d gives m / gcd(m, d) and keeping the
        multiples of d gives lcm(m, d). A shift down keeps the inner period;
        a shift up may drop the first members of a class, so it gives None,
        as every other kind does.
        """
        kind = self.kind
        if kind == "nonmultiples":
            return self.m
        if kind == "polynomial":
            return self.coeffs[0].numerator if len(self.coeffs) == 2 else None
        if kind == "union":
            periods = [p._period() for p in self.parts]
            return None if None in periods else math.lcm(*periods)
        if kind not in ("divided", "multiples_filtered", "shifted"):
            return None
        m = self.inner._period()
        if m is None:
            return None
        if kind == "divided":
            return m // math.gcd(m, self.d)
        if kind == "multiples_filtered":
            return math.lcm(m, self.d)
        return m if self.shift <= 0 else None

    def _members(self, bound: int) -> tuple[int, bytearray, list[int]]:
        """The elements <= bound as ``(lo, flags, below)``: ``flags[i]`` is 1
        exactly when lo + i is an element, ``below`` lists the elements
        under lo in increasing order, and no element lies at or above
        lo + len(flags).

        The sieved kinds (nonmultiples, primes) check their bound against
        ``MAX_SIEVE`` and start at lo = 0. The listed kinds give the empty
        window at lo = bound + 1 with every element in ``below``, so no
        bytes are built at bounds up to 10**40. A transform reads its inner
        bytes at the bound it needs (bound * d for a divided kind) and only
        moves, cuts or strides them, so a shift moves lo and builds no zeros.
        Every call builds its own ``below``, so a transform filters, divides
        or shifts the inner list in place and no level holds two lists.
        Every window is empty or ends at bound + 1, so a union ORs its parts'
        bytes over the widest part's window and sets the loose elements that
        fall inside it; the rest join ``below``, and no part is held at more
        than its own size.
        """
        kind = self.kind
        if kind == "nonmultiples":
            _check_sieve(bound)
            # the multiples of m are the positions 0, m, 2m, ...; m past the
            # bound zeroes position 0 alone, with no period of m bytes built
            out = bytearray(b"\x01") * (bound + 1)
            out[:: self.m] = bytearray(len(range(0, bound + 1, self.m)))
            return 0, out, []
        if kind == "primes":
            return 0, _primes_upto(bound), []
        if kind == "union":
            members = [p._members(bound) for p in self.parts]
            # a window that holds no position (a listed part, or a shift past
            # the bound) sets no lo
            windows = [m[:2] for m in members if m[1]]
            lo = min((at for at, _ in windows), default=bound + 1)
            bits = 0
            for at, flags in windows:
                bits |= int.from_bytes(flags, "little") << 8 * (at - lo)
            out = bytearray(bits.to_bytes(bound + 1 - lo, "little"))
            # sorted() merges the parts' increasing runs in C; the loose elements
            # in the window are set in its bytes, and the rest are compacted in
            # place by a write index with repeats dropped, so no second list is held
            loose = sorted(chain.from_iterable(m[2] for m in members))
            kept = 0
            for a in loose:
                if a >= lo:
                    out[a - lo] = 1
                elif not kept or loose[kept - 1] != a:
                    loose[kept] = a
                    kept += 1
            del loose[kept:]
            return lo, out, loose
        if kind == "divided":
            # x is an element when x*d is one; the first x with x*d >= lo
            lo, flags, below = self.inner._members(bound * self.d)
            d = self.d
            first = -(-lo // d)
            return first, flags[first * d - lo :: d], _keep_multiples(below, d, d)
        if kind == "multiples_filtered":
            lo, flags, below = self.inner._members(bound)
            d = self.d
            out = bytearray(len(flags))
            at = -lo % d  # the index of the first multiple of d
            out[at::d] = flags[at::d]
            return lo, out, _keep_multiples(below, d, 1)
        if kind == "shifted":
            c = self.shift
            lo, flags, below = self.inner._members(max(bound - c, 1))
            lo += c
            if lo < 1:
                # positions below 1 hold no element
                del flags[: 1 - lo]
                lo = 1
            # a shift past the bound moves the inner bytes at bound 1 above it
            del flags[max(bound + 1 - lo, 0) :]
            # the inner list is sorted: cut it to the elements landing in 1..bound
            del below[bisect.bisect_right(below, bound - c) :]
            del below[: bisect.bisect_left(below, 1 - c)]
            for i, a in enumerate(below):
                below[i] = a + c
            return lo, flags, below
        return bound + 1, bytearray(), self._listed(bound)

    def _listed(self, bound: int) -> list[int]:
        """The elements <= bound of a listed kind, in increasing order."""
        kind = self.kind
        if kind == "polynomial":
            return self._poly_elements(bound)
        if kind == "explicit":
            return [e for e in self.elements if e <= bound]
        a, b, x, y = (1, self.base, self.base, 0) if kind == "geometric" else _RECURRENCES[kind]
        out = []
        while a <= bound:
            out.append(a)
            a, b = b, x * b + y * a
        return out

    def _poly_elements(self, bound: int) -> list[int]:
        # Horner's rule on integers: with scale = lcm of the denominators,
        # scale*p(n) has integer coefficients, and p(n) is an integer exactly
        # when scale divides it
        cs = self.coeffs
        scale = math.lcm(*(c.denominator for c in cs))
        ints = [c.numerator * (scale // c.denominator) for c in cs]
        top = bound * scale

        def scaled(n: int) -> int:
            val = 0
            for c in ints:
                val = val * n + c
            return val

        # with rest the sum of |lower coefficients|, p increases and
        # p(n) >= lead*n - rest > 1 from n0 = ceil((rest + 1)/lead + 1) on, so
        # the walk ends at the least n >= n0 with p(n) > bound; that n lies in
        # [n0, hi] and is found by bisection before any value is walked
        lead, rest = cs[0], sum(abs(c) for c in cs[1:-1])
        n0 = lo = math.ceil((rest + 1) / lead + 1)
        hi = max(lo, math.floor((bound + rest) / lead) + 1)
        while lo < hi:
            mid = (lo + hi) // 2
            if scaled(mid) > top:
                hi = mid
            else:
                lo = mid + 1
        if lo > MAX_POLY_STEPS:
            raise ValueError(
                f"polynomial needs {lo} values of n to pass bound {bound}, "
                f"above the cap {MAX_POLY_STEPS}"
            )
        # below n0, p may dip and repeat values: each n is evaluated alone
        low = set()
        for n in range(1, n0):
            val = scaled(n)
            if scale <= val <= top and val % scale == 0:
                low.add(val // scale)

        # on [n0, lo), scale*p(n) increases inside (scale, top]: by finite
        # differences, d running sums nested over the constant d-th difference,
        # each started at its difference at n0, give the values with no
        # Python-level step per n
        firsts, diffs = [], [scaled(n) for n in range(n0, n0 + len(ints))]
        while diffs:
            firsts.append(diffs[0])
            diffs = list(map(operator.sub, diffs[1:], diffs))

        def walk():
            vals = repeat(firsts[-1])
            for first in reversed(firsts[:-1]):
                vals = accumulate(vals, initial=first)
            return islice(vals, lo - n0)

        # scale*p(n) mod scale has period scale in n, so one period of
        # divisibility bytes, cycled, keeps the integer values of p
        period = min(scale, lo - n0)
        hits = bytes(map(operator.not_, map(operator.mod, islice(walk(), period), repeat(scale))))
        out = list(map(operator.floordiv, compress(walk(), cycle(hits)), repeat(scale)))
        # every value below n0 lies below the walk: for 1 <= a < n0, with
        # S_i = n0^(i-1) + n0^(i-2)*a + ... + a^(i-1), which grows with i,
        # p(n0) - p(a) >= (n0 - a)(lead*S_d - rest*S_(d-1)) > 0, since
        # S_d >= n0*S_(d-1) and lead*n0 > rest
        out[:0] = sorted(low)
        return out

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        kind = self.kind
        if kind == "geometric":
            return {"kind": kind, "base": self.base}
        if kind == "polynomial":
            return {"kind": kind, "coeffs": [rational_str(c) for c in self.coeffs]}
        if kind == "nonmultiples":
            return {"kind": kind, "m": self.m}
        if kind == "explicit":
            return {"kind": kind, "elements": list(self.elements)}
        if kind == "union":
            return {"kind": kind, "of": [p.to_json() for p in self.parts]}
        if kind in ("divided", "multiples_filtered"):
            return {"kind": kind, "of": self.inner.to_json(), "d": self.d}
        if kind == "shifted":
            return {"kind": kind, "of": self.inner.to_json(), "c": self.shift}
        return {"kind": kind}

    @staticmethod
    def from_json(obj: dict) -> "GapSetSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise SpecValidationError("set definition must be an object with a 'kind'")
        kind = obj["kind"]
        try:
            if kind in ("fibonacci", "even_fibonacci", "pell", "primes"):
                return GapSetSpec(kind)
            if kind == "geometric":
                return GapSetSpec.geometric(obj["base"])
            if kind == "polynomial":
                return GapSetSpec.polynomial(_array(obj, "coeffs"))
            if kind == "nonmultiples":
                return GapSetSpec.nonmultiples(obj["m"])
            if kind == "explicit":
                return GapSetSpec.explicit(_array(obj, "elements"))
            if kind == "union":
                return GapSetSpec.union([GapSetSpec.from_json(p) for p in _array(obj, "of")])
            # the nodes are built as given, so a d of 1 or a c of 0 round-trips
            if kind in ("divided", "multiples_filtered", "shifted"):
                inner = GapSetSpec.from_json(obj["of"])
                if kind == "shifted":
                    return GapSetSpec(kind, inner=inner, shift=_int(obj["c"], "shift"))
                return GapSetSpec(kind, inner=inner, d=_divisor(obj["d"]))
        except KeyError as exc:
            raise SpecValidationError(f"set definition {kind!r} is missing field {exc}") from exc
        raise SpecValidationError(f"unknown gap set kind: {kind!r}")


def _check_sieve(bound: int) -> None:
    if bound > MAX_SIEVE:
        raise ValueError(f"enumeration bound {bound} exceeds the sieve cap {MAX_SIEVE}")


def _odd_sieve(n: int) -> bytearray:
    """The sieve of the odd numbers up to n, n >= 1: ``flags[i]`` is 1
    exactly when 2i + 1 is prime."""
    _check_sieve(n)
    flags = bytearray([1]) * ((n + 1) // 2)
    flags[0] = 0
    for p in range(3, math.isqrt(n) + 1, 2):
        if flags[p // 2]:
            # the odd multiples of p from p*p sit p positions apart; a
            # bytearray of zeros, as assigning bytes would copy them into one first
            start = p * p // 2
            flags[start::p] = bytearray(len(range(start, len(flags), p)))
    return flags


def _primes_upto(n: int) -> bytearray:
    """The prime sieve over [0..n], n >= 1: 1 at each prime, 0 elsewhere."""
    odd = _odd_sieve(n)
    sieve = bytearray(n + 1)
    sieve[1::2] = odd
    if n >= 2:
        sieve[2] = 1
    return sieve


def _keep_multiples(items: list[int], d: int, scale: int) -> list[int]:
    """The multiples of d in ``items``, each divided by ``scale``, compacted
    in place by a write index so that no second list is held."""
    kept = 0
    for a in items:
        if a % d == 0:
            items[kept] = a if scale == 1 else a // scale
            kept += 1
    del items[kept:]
    return items


def growth_certificate(view: GapSetView, rho, start: int = 0) -> Certificate:
    """Check d[i+1] >= rho * d[i] for every consecutive pair from index ``start``.

    ``start`` indexes the element list (0-based); the first checked pair is
    (elements[start], elements[start+1]), so start must lie in
    [0, len(elements) - 2]: a start with no pair after it raises instead of
    passing with nothing checked. Records the first violating pair on
    failure.
    """
    rho = to_rational(rho)
    if rho <= 1:
        raise ValueError("growth ratio must exceed 1")
    els = view.elements
    if not 0 <= start < len(els) - 1:
        raise ValueError(
            f"growth check needs the pair (d[start], d[start+1]) inside the view: "
            f"start is {start} and the view has {len(els)} elements"
        )
    params = {"rho": rational_str(rho), "start": start, "elements": len(els)}
    scope = f"pairs (d[i], d[i+1]) for i in [{start}, {len(els) - 2}]"
    miss = next((i for i in range(start, len(els) - 1) if els[i + 1] < rho * els[i]), None)
    counterexample = None
    if miss is not None:
        counterexample = {"index": miss, "pair": [els[miss], els[miss + 1]]}
    return Certificate("gap-growth-ratio", params, scope, miss is None, counterexample)

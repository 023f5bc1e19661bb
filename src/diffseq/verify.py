"""Exhaustive verification over colored prefixes: longest monochromatic
diffsequences (chains), fixed-gap progressions and the two-term (chromatic
intersectivity) special case, Fibonacci facts proved for every index by
one recurrence walk, exact fractional-part bound scans, and ``Certificate``,
the pass/fail record that every check of the package returns.

A chain scan gives the chain DP's result by one of three exact methods,
chosen from facts of its input; nothing else selects them:

* the residue rule, when the view carries its rule's period m and
  8 m < N. Per (color, residue mod m) it keeps the best length and the
  latest position with it, at O(N |R|) for the residues R of one period;
* mask levels, when the chain is at most 32 / r long (a greedy chain from
  position 1 that is already longer skips them). Level l+1 of a color is
  its mask AND the OR over the gaps of level l shifted, one Python-int
  shift per gap, color and level;
* the DP otherwise, one color class at a time. A position whose previous
  same-colored position lies a gap back and ends a chain as long as the
  class's running maximum takes that maximum plus one in O(1). Otherwise
  its gap loop stops at the first same-colored predecessor whose class
  maximum up to it is below the best length found so far; both are exact
  and, on long chains, decide a position in a few steps in place of |D|.

Progressions and the pair check run on one Python-int mask per color. The
pair check tests the first |D| positions one at a time against a gap mask,
so an early pair costs one shift per position tested after an O(N + |D|)
set-up, and sweeps the gaps only when no pair starts that early.
Both fractional-part bound scans run on the window routine of ``exactnum``
(one ``isqrt`` per element, no ``Q5`` per element), which also gives the
counterexample; a bound or window that would decide a scan without its
elements is refused.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Optional, Sequence

from .colorings import Coloring
from .exactnum import (
    NumberLike,
    PHI,
    PHI_CONJ,
    Q5,
    SQRT5,
    first_outside,
    rational_str,
    to_rational,
)
from .gapsets import GapSetView, fib_values, gap_mask

DIFFSEQUENCE = "diffsequence"
AP = "ap"

# levels x colors the mask-level chain method may compute before it leaves
# the prefix to the DP. Forced past the greedy check, an abandoned attempt on
# the bench chains costs 0.05-0.5 of the cut-off DP on the Fibonacci and
# squares gaps and 3.4-3.9 times it (about 14 ms) on primes at N = 7000,
# where the cut-off DP takes 4 ms; the greedy check skips every one of them.
_LEVEL_BUDGET = 32

# a period counts when it repeats at least this often: the residue rule then
# costs at most 1/8 of the DP
_PERIOD_REPEATS = 8


@dataclass
class Certificate:
    """A machine-checkable pass/fail record.

    A certificate never claims more than what was checked: ``verified_range``
    states the finite scope, or names the periodicity or induction argument
    that covers every index, and only such an argument sets ``every_n``.
    """

    claim: str
    params: dict
    verified_range: str
    passed: bool
    counterexample: Optional[dict] = None
    witnesses: Optional[Any] = None
    notes: str = ""
    components: list[Certificate] = field(default_factory=list)
    every_n: bool = False

    def to_json(self) -> dict:
        out = {
            "claim": self.claim,
            "params": self.params,
            "verified_range": self.verified_range,
            "passed": self.passed,
        }
        if self.every_n:
            out["every_n"] = True
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.witnesses is not None:
            out["witnesses"] = self.witnesses
        if self.notes:
            out["notes"] = self.notes
        if self.components:
            out["components"] = [c.to_json() for c in self.components]
        return out


@dataclass
class ScanResult:
    """Longest monochromatic structure found in a scanned prefix.

    The witness is strictly increasing and monochromatic; consecutive gaps
    lie in the gap set (diffsequence) or all equal one element of it (ap).
    """

    structure: str
    length: int
    witness: list[int]
    scanned: int
    color: Optional[int] = None

    def to_json(self) -> dict:
        # shallow: asdict would copy the witness, some 30,000 positions long
        return dict(vars(self))


def longest_mono_diffseq(coloring: Coloring, view: GapSetView) -> ScanResult:
    """Exact maximum length of a monochromatic chain with gaps in the view.

    The witness is the DP's: it ends at the first position with the longest
    chain, and each step back takes the smallest gap to a predecessor one
    shorter. The method comes from the input: the residue rule when the
    view carries a period m with m * _PERIOD_REPEATS < N, else mask levels
    while the chain stays within the level budget, else the DP.
    """
    n = coloring.n
    gaps = view.below(n)
    word = coloring.colors
    if n == 0:
        return ScanResult(DIFFSEQUENCE, 0, [], 0, None)
    m = view.period
    if m and m * _PERIOD_REPEATS < n:
        witness = _chain_by_residues(word, gaps, n, m, bisect_right(gaps, m))
    else:
        witness = _chain_by_levels(word, coloring.r, gaps, n) or _chain_by_dp(word, gaps, n)
    return ScanResult(DIFFSEQUENCE, len(witness), witness, n, word[witness[-1] - 1])


def _chain_by_residues(word: bytes, gaps: tuple[int, ...], n: int, m: int, j: int) -> list[int]:
    """Chain DP over (color, position mod m) classes when D has period m on
    [1, n-1] and its first j elements are the residues of all of them.

    Position y precedes x exactly when they share a color and (x - y) mod m
    is a residue, so each class keeps only its best length and the latest
    position with it, packed as length * (n + 1) + position: the largest key
    among x's classes gives x's length.
    """
    residues = gaps[:j]
    stride = n + 1
    keys = [0] * ((max(word) + 1) * m)
    length = [0] * stride
    best_len, best_end = 0, 0
    for x in range(1, stride):
        base = word[x - 1] * m
        top = 0
        for s in residues:
            key = keys[base + (x - s) % m]
            if key > top:
                top = key
        best = top // stride + 1
        length[x] = best
        slot = base + x % m
        key = best * stride + x
        if key > keys[slot]:
            keys[slot] = key
        if best > best_len:
            best_len, best_end = best, x
    return _walk_back(word, gaps, length, best_end)


def _chain_by_levels(word: bytes, r: int, gaps: tuple[int, ...], n: int) -> Optional[list[int]]:
    """Chain by mask levels, or None when the chain is longer than
    _LEVEL_BUDGET // r.

    Level l of color c marks the positions of color c that end a chain of
    length >= l: S_1 = m_c and S_{l+1} = m_c & OR_d (S_l << d). The longest
    chain ends at the lowest set bit of the top level, and the walk back
    takes the smallest gap d whose predecessor lies in the level below, as
    the DP's parent does. A greedy chain from position 1 is a lower bound,
    so when it is already too long no level is computed.
    """
    most = _LEVEL_BUDGET // r
    if _greedy_length(word, gaps, n, most + 1) > most:
        return None
    masks = _color_masks(word, r)
    levels = [masks]
    while True:
        top = levels[-1]
        if len(levels) > most:
            return None
        nxt = []
        for mask, s in zip(masks, top):
            grown = 0
            if s:
                for d in gaps:
                    grown |= s << d
            nxt.append(mask & grown)
        if not any(nxt):
            break
        levels.append(nxt)
    end, color = min(((s & -s).bit_length(), c) for c, s in enumerate(top) if s)
    witness = [end]
    for below in reversed(levels[:-1]):
        bits = below[color].to_bytes((n + 7) // 8, "little")
        x = witness[-1]
        for d in gaps:
            y = x - d - 1
            if bits[y >> 3] >> (y & 7) & 1:
                break
        witness.append(x - d)
    witness.reverse()
    return witness


def _greedy_length(word: bytes, gaps: tuple[int, ...], n: int, limit: int) -> int:
    """Length of the chain from position 1 that always takes the smallest gap
    to the same color, counted up to ``limit``."""
    x, color, length = 1, word[0], 1
    while length < limit:
        for d in gaps:
            if x + d > n:
                return length
            if word[x + d - 1] == color:
                x += d
                length += 1
                break
        else:
            return length
    return length


def _walk_back(word: bytes, gaps: tuple[int, ...], length: list[int], end: int) -> list[int]:
    """The DP's witness from its chain lengths: from ``end`` back, each step
    takes the smallest gap to a same-colored predecessor one shorter, which
    is the DP's parent. A step scans no more gaps than it spans, so the
    walk costs O(N)."""
    witness = [end]
    x = end
    while length[x] > 1:
        want, cx = length[x] - 1, word[x - 1]
        for d in gaps:
            y = x - d
            if word[y - 1] == cx and length[y] == want:
                break
        witness.append(y)
        x = y
    witness.reverse()
    return witness


def _chain_by_dp(word: bytes, gaps: tuple[int, ...], n: int) -> list[int]:
    """The DP L(x) = 1 + max L(x-d) over same-colored predecessors, one color
    class at a time, with an O(1) step and an exact cut-off on the gap loop.

    run is the longest chain of x's color ending before x, so top[y] <= run
    for every same-colored y < x. When x - prev is a gap for the previous
    position prev of x's color and L(prev) = run, that bound is met and
    L(x) = run + 1 with no gap loop. Otherwise the gaps run in increasing
    order, so y = x - d decreases, and the loop stops at the first
    same-colored y with top[y] < best, where top[y] is the class's running
    maximum at y: no later y of that color reaches best, so only
    predecessors that could never become the parent are skipped. On long
    chains the step or a few gaps decide a position; on short ones top never
    drops below best and the loop runs all of its O(N |D|). Each class keeps
    its maximum and the first position that reached it, and classes tie on
    the smaller position: the first position with the longest chain.
    """
    colors = b"\0" + word  # position x's color at index x
    is_gap = bytearray(n + 1)
    for d in gaps:
        is_gap[d] = 1
    length = [0] * (n + 1)
    top = [0] * (n + 1)
    best_len, best_end = 0, 0
    for c in set(word):
        table = bytearray(256)
        table[c] = 1
        prev = run = first = 0  # length[0] = 0 = run: a gap from 0 starts a chain
        for x in compress(range(1, n + 1), word.translate(table)):
            if is_gap[x - prev] and length[prev] == run:
                best = run + 1
            else:
                best = 1
                for d in gaps:
                    if d >= x:
                        break
                    y = x - d
                    if colors[y] == c:
                        if length[y] >= best:
                            best = length[y] + 1
                        elif top[y] < best:
                            break
            length[x] = best
            if best > run:
                run, first = best, x
            top[x] = run
            prev = x
        if run > best_len or run == best_len and first < best_end:
            best_len, best_end = run, first
    return _walk_back(word, gaps, length, best_end)


def _color_masks(word: bytes, r: int) -> list[int]:
    """One Python int per color 1..r; bit x-1 is set iff position x has that color."""
    masks = []
    for c in range(1, r + 1):
        table = bytearray(b"0" * 256)
        table[c] = ord("1")
        masks.append(int(word.translate(table)[::-1], 2))
    return masks


def _pair_starts(masks: list[int], d: int) -> int:
    """Bit x-1 is set iff positions x and x+d have the same color."""
    out = 0
    for m in masks:
        out |= m & (m >> d)
    return out


def longest_mono_ap(coloring: Coloring, view: GapSetView) -> ScanResult:
    """Exact maximum length over single-gap progressions a, a+d, a+2d, ...

    Bit-parallel per gap: S_1 marks the starts x of same-colored pairs
    (x, x+d), and S_{l+1} = S_l & (S_l >> d) marks the starts of l+1 such
    steps. The gap's longest progression is one more than the number of
    non-empty rounds, and the lowest bit of the last one is its smallest
    start. The global maximum keeps the smallest gap, then the smallest end.
    """
    n = coloring.n
    gaps = view.below(n)
    word = coloring.colors
    if n == 0:
        return ScanResult(AP, 0, [], 0, None)
    masks = _color_masks(word, coloring.r)
    # with no usable gap a single position is still a 1-term progression
    best_len, best_start, best_gap = 1, 1, 0
    for d in gaps:
        s = _pair_starts(masks, d)
        length, last = 1, 0
        while s:
            length, last = length + 1, s
            s &= s >> d
        if length > best_len:
            best_len, best_gap = length, d
            best_start = (last & -last).bit_length()
    witness = [best_start + i * best_gap for i in range(best_len)]
    return ScanResult(AP, best_len, witness, n, word[best_start - 1])


def chromatically_intersective_check(coloring: Coloring, view: GapSetView) -> ScanResult:
    """Two-term special case: is there a same-colored pair differing by a gap?

    The pair with the smallest first term x, then the smallest gap d, is
    reported. Position x pairs with the set bits of (m >> (x-1)) & G, where m
    is the mask of x's color and G has bit d set for each gap d. The first
    len(gaps) positions are tested that way in order, so an early pair stops
    the scan. A tested position costs one shift and a swept gap costs one per
    color, so past them the same-colored pair starts are ORed over the gaps
    instead, and the lowest set bit is x.
    """
    n = coloring.n
    gaps = view.below(n)
    word = coloring.colors
    if n == 0:
        return ScanResult(DIFFSEQUENCE, 0, [], 0, None)
    masks = _color_masks(word, coloring.r)
    gapmask = gap_mask(gaps)

    def partners(x: int) -> int:
        return (masks[word[x - 1] - 1] >> (x - 1)) & gapmask

    head = len(gaps)
    x = next((x for x in range(1, head + 1) if partners(x)), 0)
    if not x:
        tails = [m >> head for m in masks]
        starts = 0
        for d in gaps:
            starts |= _pair_starts(tails, d)
        if starts:
            x = head + (starts & -starts).bit_length()
    if x:
        found = partners(x)
        d = (found & -found).bit_length() - 1
        return ScanResult(DIFFSEQUENCE, 2, [x, x + d], n, word[x - 1])
    return ScanResult(DIFFSEQUENCE, 1, [1], n, word[0])


# -- Fibonacci facts ---------------------------------------------------------------


def _walk(start: tuple, step, holds, cap: int) -> tuple[Optional[int], int]:
    """Step the pair (x_n, x_(n+1)) from ``start`` until it returns there.

    Returns the first offset i whose x_i fails ``holds``, or None, with the
    number of steps taken. A walk still away from its start after ``cap``
    steps raises, since nothing it met covers the indices it did not reach.
    """
    pair = start
    for steps in range(cap):
        if not holds(pair[0]):
            return steps, steps
        pair = step(pair)
        if pair == start:
            return None, steps + 1
    raise ArithmeticError(f"the walk from {start} did not return within {cap} steps")


def _fib_step(m: int = 0, stride: int = 1):
    """The step (x_n, x_(n+1)) -> (x_(n+stride), x_(n+stride+1)), mod m if m."""

    def step(pair: tuple) -> tuple:
        a, b = pair
        for _ in range(stride):
            a, b = b, a + b
        return (a % m, b % m) if m else (a, b)

    return step


def pisano_period(m: int) -> int:
    """Least period of the Fibonacci sequence modulo m: the length of the
    walk of (f_0, f_1) = (0, 1) mod m."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    return _walk((0, 1), _fib_step(m), lambda x: True, m * m)[1]


FIB_FACTS = (
    "mod8_nonzero",
    "mod4_one",
    "binet_sqrt5",
    "binet_oneplusphi",
    "even_fib_recurrence",
)

_INDUCTION = (
    "every n >= {0} by induction: {1} obeys x_(n+2) = x_(n+1) + x_n and is 0 "
    "at its first two n"
)


def check_fib_fact(fact: str, bound: int = 200) -> Certificate:
    """Prove a registered Fibonacci fact for every index by one walk.

    Each fact is about a sequence with x_(n+2) = x_(n+1) + x_n, whose pair
    (x_n, x_(n+1)) decides it for all n. A residue fact walks the pairs mod
    m; the step is a bijection of the m^2 pairs, so the walk returns to its
    start and meets the residue of every index. An identity walks the
    difference of its two sides, which vanishes for every n exactly when its
    first pair is (0, 0), the pair the step leaves fixed. ``bound`` is
    accepted and read by nothing; the benchmark still passes one.
    """
    f = fib_values(7)
    psi = (Q5(1), PHI_CONJ, PHI_CONJ * PHI_CONJ)
    # psi^n obeys the recurrence, and so do the differences it enters, only
    # because psi^2 = psi + 1
    binet = psi[2] == psi[1] + 1
    table = {
        # claim, first n, (x_n, x_(n+1)) there, the step's modulus (0: none)
        # and stride, what every x_n satisfies (None: x_n = 0), the premise
        # of the recurrence, and the all-n argument
        "mod8_nonzero": (
            "fib-neighbors-sum-nonzero-mod8", 1, (f[0] + f[2], f[1] + f[3]), 8, 1,
            lambda x: x != 0, True,
            "every n >= 1 by periodicity mod 8: the walk of the pairs of "
            "L_n = f_(n-1) + f_(n+1) mod 8 returns to (L_1, L_2) = (1, 3)",
        ),
        "mod4_one": (
            "fib-triple-sum-one-mod4", 0, (f[2], f[3]), 4, 3, lambda x: x == 1, True,
            "every n >= 0 by periodicity mod 4: f_(3n) + f_(3n+1) = f_(3n+2), and the "
            "walk of the pairs (f_(3n+2), f_(3n+3)) mod 4 returns to (1, 2)",
        ),
        "binet_sqrt5": (
            "sqrt5-times-fib-identity", 1,
            tuple(SQRT5 * f[n] - (f[n - 1] + f[n + 1] - 2 * psi[n]) for n in (1, 2)),
            0, 1, None, binet, _INDUCTION.format(1, "sqrt5 f_n - (L_n - 2 psi^n)"),
        ),
        "binet_oneplusphi": (
            "oneplusphi-times-fib-identity", 1,
            tuple((1 + PHI) * f[n] - (f[n] + f[n + 1] - psi[n]) for n in (1, 2)),
            0, 1, None, binet, _INDUCTION.format(1, "(1+phi) f_n - (f_n + f_(n+1) - psi^n)"),
        ),
        "even_fib_recurrence": (
            "even-fib-recurrence", 0, tuple(f[n + 6] - 4 * f[n + 3] - f[n] for n in (0, 1)),
            0, 1, None, True,
            _INDUCTION.format(0, "h_n = f_(n+6) - 4 f_(n+3) - f_n")
            + "; e_k = f_(3k) gives e_(k+2) - 4 e_(k+1) - e_k = h_(3k)",
        ),
    }
    if fact not in table:
        raise ValueError(f"unknown fact id {fact!r}; choose from {', '.join(FIB_FACTS)}")
    claim, first, start, m, stride, holds, premise, scope = table[fact]
    miss, steps = _walk(start, _fib_step(m, stride), holds or (lambda x: not x), m * m or 2)
    params = {"first_n": first, "modulus": m or None, "stride": stride, "steps": steps}
    if not premise:
        counterexample = {"premise": "psi^2 = psi + 1"}
    elif miss is not None:
        counterexample = {"n": first + miss}
    else:
        counterexample = None
    return Certificate(claim, params, scope, counterexample is None, counterexample, every_n=True)


# -- fractional-part bound scans -----------------------------------------------------

DIST_NEAREST = "dist_nearest"
FRAC_WINDOW = "frac_window"


def frac_bound_scan(
    alpha: NumberLike,
    seq: Sequence[int],
    mode: str,
    bound=None,
    window: Optional[tuple] = None,
) -> Certificate:
    """Exact per-element verification of a fractional-part bound.

    mode "dist_nearest": distance of alpha*s to the nearest integer exceeds
    ``bound`` strictly, that is {alpha*s} lies in the open window
    (bound, 1 - bound), with 0 <= bound <= 1/2. mode "frac_window":
    {alpha*s} lies strictly inside (window[0], window[1]), with
    0 <= window[0] <= window[1] <= 1. A bound or window outside those ranges
    would hold for every element, or for none, without testing one, so it is
    refused. The first violation is reported.
    """
    if not seq:
        raise ValueError("empty sequence")
    alpha_q5 = Q5.coerce(alpha)
    params = {"alpha": alpha_q5.to_json()}
    if mode == DIST_NEAREST:
        if bound is None:
            raise ValueError("mode dist_nearest needs a bound")
        lo = to_rational(bound)
        hi = 1 - lo
        if not 0 <= lo <= hi:
            raise ValueError(f"bound must be in [0, 1/2] (got {rational_str(lo)})")
        claim, key = "dist-to-nearest-exceeds", "dist"
        params["bound"] = rational_str(lo)
    elif mode == FRAC_WINDOW:
        if window is None:
            raise ValueError("mode frac_window needs a window")
        lo, hi = to_rational(window[0]), to_rational(window[1])
        if not 0 <= lo <= hi <= 1:
            raise ValueError(
                f"window must satisfy 0 <= lo <= hi <= 1 (got {rational_str(lo)}, {rational_str(hi)})"
            )
        claim, key = "frac-in-open-window", "frac"
        params["window"] = [rational_str(lo), rational_str(hi)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    miss = first_outside(alpha_q5, seq, lo, hi, closed=False)
    counterexample = None
    if miss is not None:
        s, f = miss
        if mode == DIST_NEAREST and (2 * f - 1).sign() > 0:
            f = 1 - f  # the distance to the nearest integer is min(f, 1 - f)
        counterexample = {"element": s, key: f.to_json()}
    return Certificate(
        claim, params, f"all {len(seq)} sequence elements", miss is None, counterexample
    )

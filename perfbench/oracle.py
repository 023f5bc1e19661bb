"""Independent checks for the benchmark's correctness gate.

Nothing here imports diffseq: every expected value is recomputed from the
job's own parameters with plain integers, so a layer is never asked to judge
its own output. A Q(sqrt5) number is a triple (P, U, L) of integers with
L > 0, standing for (P + U*sqrt5)/L. Each check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from operator import itemgetter


# -- exact Q(sqrt5) predicates on integer triples -----------------------------------


def sign5(a: int, b: int) -> int:
    """Sign of a + b*sqrt5 for integers a, b."""
    if a >= 0 and b >= 0:
        return 1 if a or b else 0
    if a <= 0 and b <= 0:
        return -1
    # opposite signs: |a| against |b|*sqrt5, never equal since sqrt5 is irrational
    bigger_a = a * a > 5 * b * b
    return (1 if a > 0 else -1) if bigger_a else (1 if b > 0 else -1)


def floor5(P: int, U: int, L: int) -> int:
    """floor((P + U*sqrt5)/L) for L > 0.

    With s = isqrt(5*U*U) the root lies in (s, s+1) when U != 0, and
    floor((m + t)/L) = floor(m/L) for an integer m and 0 <= t < 1.
    """
    s = math.isqrt(5 * U * U)
    return (P + s) // L if U >= 0 else (P - s - 1) // L


def frac_colors(alpha: tuple[int, int, int], r: int, n: int) -> bytes:
    """Color x = floor(r*{alpha*x}) + 1 = floor(r*alpha*x) - r*floor(alpha*x) + 1."""
    P, U, L = alpha
    return bytes(
        floor5(r * P * x, r * U * x, L) - r * floor5(P * x, U * x, L) + 1
        for x in range(1, n + 1)
    )


def rotation_colors(alpha, x0, cut, n: int) -> bytes:
    """Color 1 iff {x0 + x*alpha} < cut, else 2, for x = 1..n (triples share no L)."""
    (Pa, Ua, La), (P0, U0, L0), (Pc, Uc, Lc) = alpha, x0, cut
    word = bytearray(n)
    for x in range(1, n + 1):
        # x0 + x*alpha over the common denominator L0*La
        P, U, L = P0 * La + x * Pa * L0, U0 * La + x * Ua * L0, L0 * La
        fl = floor5(P, U, L)
        # sign of ({value} - cut) * L * Lc
        below = sign5((P - fl * L) * Lc - Pc * L, U * Lc - Uc * L) < 0
        word[x - 1] = 1 if below else 2
    return bytes(word)


def first_outside(alpha, elements, lo: Fraction, hi: Fraction, closed: bool):
    """First s whose {alpha*s} is not inside the window, or None.

    The window is [lo, hi] when ``closed`` and (lo, hi) otherwise.
    """
    P, U, L = alpha
    for s in elements:
        A = P * s - floor5(P * s, U * s, L) * L  # {alpha*s} = (A + U*s*sqrt5)/L
        above_lo = sign5(lo.denominator * A - lo.numerator * L, lo.denominator * U * s)
        below_hi = sign5(hi.numerator * L - hi.denominator * A, -hi.denominator * U * s)
        inside = (above_lo >= 0 and below_hi >= 0) if closed else (above_lo > 0 and below_hi > 0)
        if not inside:
            return s
    return None


# -- gap sets -------------------------------------------------------------------------


def fibonacci_terms(count: int) -> list[int]:
    """f_1..f_count with f_1 = f_2 = 1."""
    out, a, b = [], 1, 1
    for _ in range(count):
        out.append(a)
        a, b = b, a + b
    return out


def recurrence_upto(a: int, b: int, mult: int, bound: int) -> list[int]:
    """Terms of x' = mult*x + previous starting a, b, up to bound."""
    out = []
    while a <= bound:
        out.append(a)
        a, b = b, mult * b + a
    return out


def prime_flags(bound: int) -> bytearray:
    """flags[x] == 1 iff x is prime, for 0 <= x <= bound (odd-only marking)."""
    flags = bytearray(bound + 1)
    if bound >= 2:
        flags[2] = 1
    flags[3::2] = b"\x01" * len(range(3, bound + 1, 2))
    for p in range(3, math.isqrt(bound) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = bytes(len(range(p * p, bound + 1, 2 * p)))
    return flags


def view_problems(elements, bound: int, member, count: int) -> list[str]:
    """A view is right when it is strictly increasing inside 1..bound, every
    element is a member and it has as many elements as the set has there."""
    problems = []
    if len(elements) != count:
        problems.append(f"view to {bound} has {len(elements)} elements, expected {count}")
    if elements and (elements[0] < 1 or elements[-1] > bound):
        problems.append(f"view to {bound} leaves 1..{bound}")
    if any(a >= b for a, b in zip(elements, elements[1:])):
        problems.append(f"view to {bound} is not strictly increasing")
    stray = next((e for e in elements if not member(e)), None)
    if stray is not None:
        problems.append(f"view to {bound} holds non-member {stray}")
    return problems


def listed_view_problems(elements, bound: int, expected: list[int]) -> list[str]:
    """Compare a view with the complete list of members up to bound."""
    if list(elements) != expected:
        return [f"view to {bound} differs from the {len(expected)} expected elements"]
    return []


# -- chains, progressions, pairs ------------------------------------------------------


def longest_chain(word: bytes, gaps) -> int:
    """Longest monochromatic chain with consecutive differences in ``gaps``.

    Pull recurrence over one reversed array per color: ends[c][n - x] is the
    longest chain of color c ending at x (0 for other colors and for the
    padding that stands for positions <= 0). The getter also reads index 0,
    position x itself, which is still 0, so it returns a tuple even for one gap.
    """
    n = len(word)
    gaps = [d for d in gaps if d < n]
    if not gaps:
        return 1 if n else 0
    reach = max(gaps)
    ends = {c: array("l", [0]) * (n + reach + 1) for c in set(word)}
    views = {c: memoryview(a) for c, a in ends.items()}
    getter = itemgetter(0, *gaps)
    best = 0
    for x in range(1, n + 1):
        c = word[x - 1]
        i = n - x
        length = 1 + max(getter(views[c][i : i + reach + 1]))
        ends[c][i] = length
        if length > best:
            best = length
    return best


def color_masks(word: bytes) -> list[int]:
    """One bit mask per color present; bit x-1 is set iff position x has it."""
    masks = []
    for c in sorted(set(word)):
        table = bytes(0x31 if v == c else 0x30 for v in range(256))
        masks.append(int(word.translate(table)[::-1], 2))
    return masks


def longest_progression(word: bytes, gaps) -> int:
    """Longest monochromatic a, a+d, a+2d, ... with one d from ``gaps``.

    For a color mask S of progression starts of length l, S & (S >> d) keeps
    the starts of length l+1.
    """
    n = len(word)
    gaps = [d for d in gaps if d < n]
    if not gaps:
        return 1 if n else 0
    best = 0
    for mask in color_masks(word):
        for d in gaps:
            s, length = mask, 0
            while s:
                length += 1
                s &= s >> d
            best = max(best, length)
    return best


def has_pair(word: bytes, gaps) -> bool:
    """Is there a same-colored pair at distance d for some d in ``gaps``?"""
    n = len(word)
    return any(m & (m >> d) for m in color_masks(word) for d in gaps if d < n)


def witness_problems(word: bytes, gaps, length: int, witness, color, progression: bool) -> list[str]:
    """A reported longest structure must be a real one of the reported length."""
    gapset = set(gaps)
    w = list(witness)
    problems = []
    if len(w) != length:
        problems.append(f"witness has {len(w)} terms, reported length {length}")
    if any(not 1 <= x <= len(word) for x in w):
        return problems + ["witness leaves the colored prefix"]
    if any(a >= b for a, b in zip(w, w[1:])):
        problems.append("witness is not strictly increasing")
    if any(word[x - 1] != color for x in w):
        problems.append("witness is not monochromatic in the reported color")
    diffs = [b - a for a, b in zip(w, w[1:])]
    if any(d not in gapset for d in diffs):
        problems.append("witness has a difference outside the gap set")
    if progression and len(set(diffs)) > 1:
        problems.append("progression witness changes its gap")
    return problems


def scan_problems(word: bytes, gaps, result: dict, progression: bool) -> list[str]:
    """Witness validity plus agreement with the independent longest length."""
    problems = witness_problems(
        word, gaps, result["length"], result["witness"], result["color"], progression
    )
    exact = longest_progression(word, gaps) if progression else longest_chain(word, gaps)
    if result["length"] != exact:
        problems.append(f"reported length {result['length']}, oracle {exact}")
    return problems


def avoider_problems(word: bytes, gaps, k: int, r: int, size: int) -> list[str]:
    """An avoider has the stated size, colors 1..r and no monochromatic k-chain."""
    problems = []
    if len(word) != size:
        problems.append(f"avoider has length {len(word)}, expected {size}")
    if any(not 1 <= c <= r for c in word):
        problems.append(f"avoider uses a color outside 1..{r}")
    longest = longest_chain(word, gaps)
    if longest >= k:
        problems.append(f"avoider holds a monochromatic {longest}-chain (k = {k})")
    return problems


# -- distance graphs --------------------------------------------------------------------


def chromatic_problems(gaps, n: int, result: dict) -> list[str]:
    """The coloring is proper on [1..n] with at most ``upper`` colors and the
    lower witness (clique or odd cycle) is a real subgraph of that size."""
    gapset = {d for d in gaps if d < n}
    colors = result["coloring"]
    problems = []
    if len(colors) != n:
        return [f"coloring has {len(colors)} entries for n = {n}"]
    if max(colors) > result["upper"] or min(colors) < 1:
        problems.append("coloring uses colors outside 1..upper")
    if any(colors[v - 1] == colors[v + d - 1] for d in gapset for v in range(1, n - d + 1)):
        problems.append("coloring is not proper")
    wit = result["lower_witness"]
    verts = wit["vertices"]
    if wit["kind"] == "clique":
        if len(verts) != result["lower"] and not result["exact"]:
            problems.append("clique size differs from the lower bound")
        if any(abs(a - b) not in gapset for i, a in enumerate(verts) for b in verts[i + 1 :]):
            problems.append("clique witness has a non-edge")
    else:
        ring = list(zip(verts, verts[1:] + verts[:1]))
        if len(verts) % 2 == 0 or any(abs(a - b) not in gapset for a, b in ring):
            problems.append("odd-cycle witness is not an odd cycle")
    if result["lower"] > result["upper"]:
        problems.append("lower bound exceeds upper bound")
    return problems

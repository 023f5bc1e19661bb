"""Scan correctness against brute-force oracles, plus the number-theory facts."""

import importlib.util
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffseq.colorings import (
    Coloring,
    block_coloring,
    frac_coloring,
    preset_coloring,
    residue_coloring,
)
from diffseq.construct import certify_fracs, diffseq_bound_from_eps
from diffseq.exactnum import Q5
from diffseq.gapsets import GapSetSpec, GapSetView, fib_values
from diffseq import verify as verify_module
from diffseq.verify import (
    AP,
    DIFFSEQUENCE,
    DIST_NEAREST,
    FRAC_WINDOW,
    ScanResult,
    check_fib_fact,
    chromatically_intersective_check,
    frac_bound_scan,
    longest_mono_ap,
    longest_mono_diffseq,
    pisano_period,
)


def _assert_valid_witness(result: ScanResult, coloring: Coloring, gaps, ap: bool):
    w = result.witness
    assert len(w) == result.length
    assert all(w[i] < w[i + 1] for i in range(len(w) - 1))
    assert len({coloring.colors[x - 1] for x in w}) <= 1
    diffs = [w[i + 1] - w[i] for i in range(len(w) - 1)]
    assert all(d in gaps for d in diffs)
    if ap:
        assert len(set(diffs)) <= 1


def test_diffseq_scan_examples():
    alternating = Coloring(2, bytes([1, 2] * 5))
    two = GapSetSpec.explicit([2]).enumerate(10)
    result = longest_mono_diffseq(alternating, two)
    assert (result.length, result.witness) == (5, [1, 3, 5, 7, 9])

    one = GapSetSpec.explicit([1]).enumerate(10)
    assert longest_mono_diffseq(alternating, one).length == 1

    blocks = block_coloring(2, 16)
    both = GapSetSpec.explicit([1, 2]).enumerate(16)
    result = longest_mono_diffseq(blocks, both)
    assert result.length == 2
    _assert_valid_witness(result, blocks, {1, 2}, ap=False)


def test_ap_scan_examples():
    ones = Coloring(1, bytes([1] * 10))
    result = longest_mono_ap(ones, GapSetSpec.explicit([3]).enumerate(10))
    assert (result.length, result.witness) == (4, [1, 4, 7, 10])

    alternating = Coloring(2, bytes([1, 2] * 6))
    assert longest_mono_ap(alternating, GapSetSpec.explicit([2]).enumerate(12)).length == 6

    blocks = block_coloring(3, 30)
    result = longest_mono_ap(blocks, GapSetSpec.explicit([2]).enumerate(30))
    assert result.length == 2
    _assert_valid_witness(result, blocks, {2}, ap=True)


def test_pair_check_examples():
    # residue colorings avoid 2-term chains over nonmultiples for every modulus
    for m in (3, 5):
        vm = GapSetSpec.nonmultiples(m).enumerate(40)
        assert chromatically_intersective_check(residue_coloring(m, 40), vm).length == 1

    ones = Coloring(1, bytes([1, 1, 1]))
    result = chromatically_intersective_check(ones, GapSetSpec.explicit([2]).enumerate(3))
    assert (result.length, result.witness) == (2, [1, 3])

    two_tone = Coloring(2, bytes([1, 2]))
    assert chromatically_intersective_check(two_tone, GapSetSpec.explicit([1]).enumerate(2)).length == 1


def test_pair_check_requires_enumeration_to_length():
    # D = {2} enumerated only to 1 looks empty, yet positions 1 and 3 share a color
    truncated = GapSetSpec.explicit([2]).enumerate(1)
    with pytest.raises(ValueError):
        chromatically_intersective_check(residue_coloring(2, 20), truncated)


def _reference_ap(coloring: Coloring, view: GapSetView) -> ScanResult:
    """The per-position run DP the mask kernel replaced."""
    n = coloring.n
    gaps = [d for d in view.elements if d < n]
    word = coloring.colors
    best_len, best_end, best_gap = 0, 0, 0
    for d in gaps:
        run = [0] * (n + 1)
        for x in range(1, n + 1):
            y = x - d
            if y >= 1 and word[y - 1] == word[x - 1]:
                run[x] = run[y] + 1
            else:
                run[x] = 1
            if run[x] > best_len:
                best_len, best_end, best_gap = run[x], x, d
    if best_len == 0 and n >= 1:
        best_len, best_end, best_gap = 1, 1, 0
    witness = [best_end - i * best_gap for i in range(best_len)][::-1]
    color = word[best_end - 1] if best_end else None
    return ScanResult(AP, best_len, witness, n, color)


def _reference_pair(coloring: Coloring, view: GapSetView) -> ScanResult:
    """The position-by-position pair search the mask kernel replaced."""
    n = coloring.n
    gaps = [d for d in view.elements if d < n]
    word = coloring.colors
    for x in range(1, n + 1):
        cx = word[x - 1]
        for d in gaps:
            y = x + d
            if y > n:
                break
            if word[y - 1] == cx:
                return ScanResult(DIFFSEQUENCE, 2, [x, y], n, cx)
    if n == 0:
        return ScanResult(DIFFSEQUENCE, 0, [], 0, None)
    return ScanResult(DIFFSEQUENCE, 1, [1], n, word[0])


def _periodic_gaps(rng: random.Random, n: int) -> tuple[list[int], Optional[int]]:
    """A random residue pattern mod m, listed to past n, sometimes with one
    element added or dropped; with m as its period when no element was."""
    m = rng.randint(1, 12)
    residues = set(rng.sample(range(1, m + 1), rng.randint(1, m)))
    pattern = {d for d in range(1, n + m) if (d - 1) % m + 1 in residues}
    gaps = set(pattern)
    change = rng.randint(1, n + m)
    if rng.random() < 0.2:
        gaps.add(change)
    elif rng.random() < 0.2:
        gaps.discard(change)
    return sorted(gaps), m if gaps == pattern else None


def _view(gaps, n: int, period: Optional[int] = None) -> GapSetView:
    """A view of exactly ``gaps``, complete to at least n (gaps may reach past n)."""
    return GapSetView(tuple(sorted(gaps)), max([n, *gaps]), period)


def test_mask_kernels_match_reference_loops():
    edge_cases = [
        (1, b"", []),  # n = 0, no gap
        (2, b"", [1, 3]),  # n = 0, gaps past the end
        (1, b"\x01", [1]),  # n = 1: every gap reaches past the end
        (1, b"\x01" * 9, []),  # no usable gap: witness [1]
        (1, b"\x01" * 9, [3, 9, 12]),  # r = 1; gaps equal to and past n
        (1, b"\x01" * 5, [3, 4]),  # gap tie: 3 wins over 4, end 4 over 5
        (2, b"\x01\x02" * 4, [2]),  # color tie: color 1 starts first
        (2, b"\x02\x01" * 4, [2]),  # color tie: color 2 starts first
        (3, b"\x01\x02\x03" * 5, [1, 2, 4]),  # no same-colored pair at all
        (2, b"\x02\x02\x01\x01\x01", [1, 2]),  # pair at x = 1 by gap 1 only
        (4, b"\x01\x03\x03\x01", [1, 3]),  # colors 2 and 4 absent
        (4, b"\x01\x02\x03\x02", [1, 2]),  # first pair at the last position tested alone
        (4, b"\x01\x02\x03\x02", [2]),  # first pair just past it, found by the gap sweep
        (4, b"\x01\x02\x03\x04\x03", [1, 2]),  # gap sweep; x pairs by its second gap only
    ]
    rng = random.Random(1729)
    random_cases = []
    for _ in range(600):
        r = rng.randint(1, 4)
        n = rng.randint(0, 60)
        word = bytes(rng.randint(1, r) for _ in range(n))
        random_cases.append((r, word, rng.sample(range(1, 70), rng.randint(0, 8))))
    for _ in range(200):  # periodic gaps, as the chain scan's residue rule sees them
        r = rng.randint(1, 4)
        n = rng.randint(0, 60)
        word = bytes(rng.randint(1, r) for _ in range(n))
        random_cases.append((r, word, _periodic_gaps(rng, n)[0]))
    for r, word, gaps in edge_cases + random_cases:
        coloring, view = Coloring(r, word), _view(gaps, len(word))
        assert longest_mono_ap(coloring, view).to_json() == _reference_ap(coloring, view).to_json()
        assert (
            chromatically_intersective_check(coloring, view).to_json()
            == _reference_pair(coloring, view).to_json()
        )


def test_pair_check_stops_at_an_early_pair(monkeypatch):
    # dense gap set, large prefix: an early pair must not cost a sweep over every gap
    calls = []
    real_pair_starts = verify_module._pair_starts
    monkeypatch.setattr(
        verify_module, "_pair_starts", lambda masks, d: calls.append(d) or real_pair_starts(masks, d)
    )
    n = 200_000
    view = GapSetSpec.nonmultiples(3).enumerate(n)
    rng = random.Random(3)
    two_colored = Coloring(2, bytes(rng.randint(1, 2) for _ in range(n)))
    lone_first = Coloring(2, b"\x02" + b"\x01" * (n - 1))  # position 1 pairs with nothing
    for coloring in (two_colored, lone_first):
        result = chromatically_intersective_check(coloring, view)
        assert result.to_json() == _reference_pair(coloring, view).to_json()
    assert calls == []

    # no pair at all: the positions tested one by one are followed by one sweep
    small = 2000
    primes = GapSetSpec.primes().enumerate(small)
    result = chromatically_intersective_check(residue_coloring(4, small), primes)
    assert (result.length, result.witness) == (1, [1])
    assert calls == list(primes.elements)


def _word(digits: str) -> bytes:
    return bytes(int(c) for c in digits)


def _reference_chain(coloring: Coloring, view: GapSetView) -> ScanResult:
    """The chain DP that the residue rule and mask levels now stand in for."""
    n = coloring.n
    gaps = [d for d in view.elements if d < n]
    word = coloring.colors
    length = [0] * (n + 1)
    parent = [0] * (n + 1)
    best_len, best_end = 0, 0
    for x in range(1, n + 1):
        cx = word[x - 1]
        best, back = 1, 0
        for d in gaps:
            if d >= x:
                break
            y = x - d
            if word[y - 1] == cx and length[y] >= best:
                best, back = length[y] + 1, y
        length[x] = best
        parent[x] = back
        if best > best_len:
            best_len, best_end = best, x
    witness = []
    pos = best_end
    while pos:
        witness.append(pos)
        pos = parent[pos]
    witness.reverse()
    color = word[best_end - 1] if best_end else None
    return ScanResult(DIFFSEQUENCE, best_len, witness, n, color)


@pytest.fixture
def chain_methods(monkeypatch):
    """Which method each chain scan took: "residues", "levels", "dp" after
    the levels ran out of budget, or "dp" directly."""
    calls = []
    for name in ("_chain_by_residues", "_color_masks", "_chain_by_dp"):
        real = getattr(verify_module, name)

        def spy(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(verify_module, name, spy)

    def scan(coloring, view):
        del calls[:]
        result = longest_mono_diffseq(coloring, view)
        if "_chain_by_residues" in calls:
            method = "residues"
        elif "_color_masks" in calls:
            method = "levels, then dp" if "_chain_by_dp" in calls else "levels"
        else:
            method = "dp" if "_chain_by_dp" in calls else "none"
        return result, method

    return scan


def test_chain_kernel_matches_reference_dp(chain_methods):
    # (r, word, gaps, the view's period, the method expected)
    edge_cases = [
        (1, b"", [], None, "none"),  # n = 0
        (2, b"", [1, 3], 2, "none"),  # n = 0, gaps past the end
        (1, b"\x01", [1], None, "levels"),  # n = 1: every gap reaches past the end
        (2, b"\x01\x02" * 4, [], None, "levels"),  # no usable gap: witness [1]
        (1, b"\x01" * 9, [3, 9, 12], None, "levels"),  # r = 1; gaps equal to and past n
        (2, b"\x01\x02\x01\x02\x01", [2, 3], None, "levels"),  # a list carries no period
        (2, b"\x01\x02" * 4, [2], None, "levels"),  # color tie: color 1 ends first
        (2, b"\x02\x01" * 4, [2], None, "levels"),  # color tie: color 2 ends first
        (2, b"\x01\x02" * 30, list(range(2, 60, 2)), 2, "residues"),  # color tie, even gaps
        # residue tie: on the witness, 24's predecessors 22 (residue 2 mod 5)
        # and 21 (residue 3) end chains of the same length; 22 wins
        (2, _word("1122211222221221111211211111211121222211222221112221"),
         [d for d in range(1, 52) if d % 5 in (2, 3)], 5, "residues"),
        (1, b"\x01" * 40, list(range(1, 40, 2)), 2, "residues"),  # r = 1, odd gaps
        (1, b"\x01" * 40, [], 1, "residues"),  # the empty set has period 1
        # a period must fit 8 times below n: 5 * 8 < 41, not < 40
        (2, b"\x01\x02" * 20 + b"\x01", list(range(5, 41, 5)), 5, "residues"),
        (2, b"\x01\x02" * 20, list(range(5, 41, 5)), 5, "levels"),
        # the longest chain, 16 = 32 / r, is the last the level budget allows;
        # position 1's color is alone, so the greedy chain does not skip the levels
        (2, b"\x02" + b"\x01" * 16, [1, 40], None, "levels"),
        (2, b"\x02" + b"\x01" * 17, [1, 40], None, "levels, then dp"),  # one level past it
        (3, b"\x03" + b"\x01" * 10, [1, 40], None, "levels"),  # 10 = 32 // 3
        (3, b"\x03" + b"\x01" * 11, [1, 40], None, "levels, then dp"),
        (2, b"\x01" * 16, [1, 40], None, "levels"),  # the greedy chain from 1 fits the budget
        (2, b"\x01" * 17, [1, 40], None, "dp"),  # the greedy chain from 1 is already too long
    ]
    rng = random.Random(2718)
    random_cases = []
    for _ in range(800):
        r = rng.randint(1, 4)
        n = rng.randint(0, 200)
        kind = rng.random()
        if kind < 0.4:
            gaps, period = _periodic_gaps(rng, n)
        else:
            gaps, period = rng.sample(range(1, 210), rng.randint(0, 6 if kind < 0.7 else 60)), None
        if rng.random() < 0.4:
            word = [rng.randint(1, r) for _ in range(n)]
        else:  # blocks of one color make long chains
            width = rng.randint(1, 8)
            word = [x // width % r + 1 for x in range(n)]
        if n and r > 1 and rng.random() < 0.3:  # position 1's color appears nowhere else
            word = [r] + [min(c, r - 1) for c in word[1:]]
        random_cases.append((r, bytes(word), gaps, period, None))
    taken = Counter()
    for r, word, gaps, period, expected in edge_cases + random_cases:
        coloring, view = Coloring(r, word), _view(gaps, len(word), period)
        result, method = chain_methods(coloring, view)
        assert result.to_json() == _reference_chain(coloring, view).to_json(), (r, word, gaps)
        assert expected in (None, method), (r, word, gaps, method)
        taken[method] += 1
    assert all(taken[m] >= 40 for m in ("residues", "levels", "levels, then dp", "dp")), taken


def _cut_off_skips(coloring: Coloring, view: GapSetView) -> tuple[int, int]:
    """(gap cells the DP's cut-off skips, usable gap cells), from a full scan.

    At x the DP stops at the first same-colored y = x - d whose top[y], the
    longest chain of that color ending at or before y, is below the best
    length found so far; the usable gaps past d are skipped.
    """
    n = coloring.n
    gaps = [d for d in view.elements if d < n]
    word = coloring.colors
    length = [0] * (n + 1)
    top = [0] * (n + 1)
    running = Counter()
    skipped = cells = 0
    for x in range(1, n + 1):
        cx = word[x - 1]
        usable = [d for d in gaps if d < x]
        cells += len(usable)
        best, stop = 1, None
        for i, d in enumerate(usable):
            y = x - d
            if word[y - 1] == cx:
                if stop is None and top[y] < best:
                    stop = i
                best = max(best, length[y] + 1)
        if stop is not None:
            skipped += len(usable) - 1 - stop
        length[x] = best
        running[cx] = max(running[cx], best)
        top[x] = running[cx]
    return skipped, cells


def test_chain_dp_on_short_inputs_matches_reference():
    # the scan sends short chains to other methods, so the DP is called
    # directly; at 12, predecessor 7 makes best 3 and 6 has top 3 (from 4):
    # equal to best is not below it, and 4 then makes best 4
    cases = [(3, _word("211121132331"), [1, 5, 6, 8])]
    rng = random.Random(3141)
    for _ in range(1500):
        r = rng.randint(1, 4)
        n = rng.randint(1, 60)
        word = bytes(rng.randint(1, r) for _ in range(n))
        cases.append((r, word, rng.sample(range(1, 70), rng.randint(0, 10))))
    for r, word, gaps in cases:
        coloring, view = Coloring(r, word), _view(gaps, len(word))
        usable = tuple(d for d in view.elements if d < len(word))
        witness = verify_module._chain_by_dp(word, usable, len(word))
        assert witness == _reference_chain(coloring, view).witness, (r, word, gaps)


def _seeded_alphas(seed: int, count: int) -> list[Q5]:
    """(a + b sqrt5)/c with 5 <= c <= 12, 0 <= a < c and 1 <= b < c."""
    rng = random.Random(seed)
    alphas = []
    for _ in range(count):
        c = rng.randint(5, 12)
        alphas.append(Q5(F(rng.randrange(c), c), F(rng.randint(1, c - 1), c)))
    return alphas


def test_chain_dp_cut_off_matches_reference_dp(chain_methods):
    primes = GapSetSpec.primes()
    squares = GapSetSpec.polynomial([1, 0, 0])
    cases = []
    for r, alpha in zip((2, 3, 4), _seeded_alphas(5, 3)):
        cases.append(("primes, frac", frac_coloring(alpha, r, 1500), primes.enumerate(1500)))
    for r, alpha in zip((2, 3, 4, 3), _seeded_alphas(6, 4)):
        cases.append(("squares, frac", frac_coloring(alpha, r, 3000), squares.enumerate(3000)))
    for width in (2, 3, 7):
        cases.append(("primes, blocks", block_coloring(width, 2000), primes.enumerate(2000)))
    # r colors in blocks of 11 with n a multiple of 11 r: each color's class
    # is color 1's shifted, so every color ties and color 1 ends first; the
    # reversed palette makes color r the winner
    for r in (2, 3, 4):
        word = bytes((x // 11) % r + 1 for x in range(11 * r * 30))
        for w in (word, bytes(r + 1 - c for c in word)):
            cases.append(("tie", Coloring(r, w), primes.enumerate(len(w))))
    # gaps are the primes above 50: three colors in blocks of 40 chain at
    # most once per block, while color 4, every 53rd position, is a chain
    n = 3000
    above_50 = _view([p for p in primes.enumerate(n).elements if p > 50], n)
    rare = bytes(4 if x % 53 == 0 else (x - 1) // 40 % 3 + 1 for x in range(1, n + 1))
    cases.append(("rare color", Coloring(4, rare), above_50))
    # gaps are the primes above 100 and blocks are narrower, so a chain takes
    # one position per block of its color: the length plateaus a little
    # above the level budget 32 // r within each block
    above_100 = _view([p for p in primes.enumerate(n).elements if p > 100], n)
    for r, width in ((2, 85), (3, 90)):
        word = bytes((x - 1) // width % r + 1 for x in range(1, n + 1))
        cases.append(("plateau", Coloring(r, word), above_100))

    for what, coloring, view in cases:
        result, method = chain_methods(coloring, view)
        assert result.to_json() == _reference_chain(coloring, view).to_json(), what
        assert method in ("dp", "levels, then dp"), (what, method)
        skipped, cells = _cut_off_skips(coloring, view)
        assert skipped > cells // 2, (what, skipped, cells)  # 80-98% here
        if what == "tie":
            assert result.color == coloring.colors[0]
        elif what == "rare color":
            counts = Counter(coloring.colors)
            assert result.color == 4 == min(counts, key=counts.get)
        elif what == "plateau":
            budget = verify_module._LEVEL_BUDGET // coloring.r
            assert budget < result.length <= budget + 3


def test_periodic_and_short_chain_scans_skip_the_dp(monkeypatch):
    def no_dp(*args):
        raise AssertionError("the chain DP ran")

    monkeypatch.setattr(verify_module, "_chain_by_dp", no_dp)
    n = 5000
    blocks = longest_mono_diffseq(block_coloring(7, n), GapSetSpec.nonmultiples(3).enumerate(n))
    assert blocks.length == 2501
    n = 200_000
    even_fib = longest_mono_diffseq(
        preset_coloring("oneplusphiover4", n), GapSetSpec.even_fibonacci().enumerate(n)
    )
    assert even_fib.length == 3


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_chain_scan_on_residue_patterns_matches_reference(data):
    m = data.draw(st.integers(1, 12))
    residues = data.draw(st.sets(st.integers(1, m), min_size=1))
    n = data.draw(st.integers(0, 80))
    r = data.draw(st.integers(1, 3))
    word = bytes(data.draw(st.lists(st.integers(1, r), min_size=n, max_size=n)))
    gaps = [d for d in range(1, n + m) if (d - 1) % m + 1 in residues]
    coloring = Coloring(r, word)
    view = _view(gaps, n, m)
    assert longest_mono_diffseq(coloring, view).to_json() == _reference_chain(coloring, view).to_json()


def _load_oracle():
    """perfbench's oracle module: plain-integer checks that never import diffseq."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ap_scan_matches_oracle_on_fibonacci_view():
    oracle = _load_oracle()
    n = 100_000
    coloring = frac_coloring(Q5(0, F(1, 8)), 2, n)
    view = GapSetSpec.fibonacci().enumerate(n)
    result = longest_mono_ap(coloring, view)
    assert result.length == oracle.longest_progression(coloring.colors, view.elements)
    _assert_valid_witness(result, coloring, set(view.elements), ap=True)


def _brute_longest_chain(word, gaps, ap):
    """Enumerate every monochromatic chain by depth-first extension."""
    n = len(word)
    best = 0

    def extend(pos, length, gap_used):
        nonlocal best
        best = max(best, length)
        for d in gaps:
            nxt = pos + d
            if nxt > n:
                break
            if word[nxt - 1] != word[pos - 1]:
                continue
            if ap and gap_used is not None and d != gap_used:
                continue
            extend(nxt, length + 1, d if ap else None)

    for start in range(1, n + 1):
        extend(start, 1, None)
    return best


def test_scans_match_chain_enumeration():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(4, 20)
        r = rng.choice([2, 2, 3])
        word = bytes(rng.randint(1, r) for _ in range(n))
        gaps = sorted(rng.sample(range(1, 7), rng.randint(1, 4)))
        coloring = Coloring(r, word)
        view = GapSetSpec.explicit(gaps).enumerate(n)
        assert longest_mono_diffseq(coloring, view).length == _brute_longest_chain(
            word, gaps, ap=False
        )
        assert longest_mono_ap(coloring, view).length == _brute_longest_chain(
            word, gaps, ap=True
        )


def test_scan_monotone_in_gap_set():
    rng = random.Random(43)
    for _ in range(15):
        n = rng.randint(10, 60)
        word = bytes(rng.randint(1, 2) for _ in range(n))
        coloring = Coloring(2, word)
        small = sorted(rng.sample(range(1, 10), 3))
        large = sorted(set(small) | set(rng.sample(range(1, 10), 3)))
        vs = GapSetSpec.explicit(small).enumerate(n)
        vl = GapSetSpec.explicit(large).enumerate(n)
        assert longest_mono_diffseq(coloring, vl).length >= longest_mono_diffseq(coloring, vs).length
        assert longest_mono_ap(coloring, vl).length >= longest_mono_ap(coloring, vs).length


def test_scan_requires_enumeration_to_length():
    coloring = Coloring(2, bytes([1, 2, 1, 2]))
    with pytest.raises(ValueError):
        longest_mono_diffseq(coloring, GapSetSpec.explicit([1]).enumerate(3))


def test_pisano_periods():
    assert pisano_period(8) == 12
    assert pisano_period(2) == 3
    assert pisano_period(4) == 6
    assert pisano_period(10) == 60
    with pytest.raises(ValueError):
        pisano_period(1)


def test_fib_fact_certificates():
    cert = check_fib_fact("mod8_nonzero", 200)
    assert cert.passed and "periodicity" in cert.verified_range
    assert check_fib_fact("mod4_one", 1000).passed
    assert check_fib_fact("binet_sqrt5", 200).passed
    assert check_fib_fact("binet_oneplusphi", 200).passed
    assert check_fib_fact("even_fib_recurrence", 100).passed
    with pytest.raises(ValueError):
        check_fib_fact("fib_is_even", 10)


def test_frac_bound_scan_examples():
    sqrt5_over_8 = Q5(0, F(1, 8))
    fib = fib_values(200)[1:]
    assert frac_bound_scan(sqrt5_over_8, fib, DIST_NEAREST, bound=F(1, 10)).passed
    assert frac_bound_scan(sqrt5_over_8, fib[:4], DIST_NEAREST, bound=F(16, 100)).passed

    failing = frac_bound_scan(F(1, 2), [2], DIST_NEAREST, bound=F(1, 10))
    assert not failing.passed
    assert failing.counterexample["element"] == 2

    one_plus_phi_over_4 = Q5(F(3, 8), F(1, 8))
    f = fib_values(90)
    evens = [f[3 * n] for n in range(1, 31)]
    assert frac_bound_scan(
        one_plus_phi_over_4, evens, FRAC_WINDOW, window=(F(21, 100), F(31, 100))
    ).passed
    # the window is strict: frac(. * 2) = frac((3+sqrt5)/4) sits near 0.309 < 0.31
    tight = frac_bound_scan(
        one_plus_phi_over_4, [2], FRAC_WINDOW, window=(F(21, 100), F(3, 10))
    )
    assert not tight.passed


def test_failing_frac_bound_scans_keep_their_json():
    # counterexamples pinned from the Q5 loop these scans replaced
    alpha = {"a": "0/1", "b": "1/8"}
    dist = frac_bound_scan(Q5(0, F(1, 8)), fib_values(200)[1:], DIST_NEAREST, bound=F(16, 100))
    assert dist.to_json() == {
        "claim": "dist-to-nearest-exceeds",
        "params": {"alpha": alpha, "bound": "4/25"},
        "verified_range": "all 200 sequence elements",
        "passed": False,
        "counterexample": {"element": 21, "dist": {"a": "6/1", "b": "-21/8"}},
    }
    on_integer = frac_bound_scan(F(1, 2), [1, 2], DIST_NEAREST, bound=F(1, 10))
    assert on_integer.to_json()["counterexample"] == {"element": 2, "dist": {"a": "0/1", "b": "0/1"}}
    f = fib_values(90)
    tight = frac_bound_scan(
        Q5(F(3, 8), F(1, 8)), [f[3 * n] for n in range(1, 31)], FRAC_WINDOW,
        window=(F(21, 100), F(3, 10)),
    )
    assert tight.to_json() == {
        "claim": "frac-in-open-window",
        "params": {"alpha": {"a": "3/8", "b": "1/8"}, "window": ["21/100", "3/10"]},
        "verified_range": "all 30 sequence elements",
        "passed": False,
        "counterexample": {"element": 2, "frac": {"a": "-1/4", "b": "1/4"}},
    }
    # the open window excludes its lower end: {1/8 * 1} = 1/8
    on_lo = frac_bound_scan(F(1, 8), [3, 1], FRAC_WINDOW, window=(F(1, 8), F(1, 2)))
    assert on_lo.to_json()["counterexample"] == {"element": 1, "frac": {"a": "1/8", "b": "0/1"}}
    # and its upper end: {1/8 * 4} = 1/2; a bound of 1/2 or more admits nothing
    assert frac_bound_scan(F(1, 8), [3, 4], FRAC_WINDOW, window=(F(1, 8), F(1, 2))).counterexample["element"] == 4
    assert frac_bound_scan(Q5(0, F(1, 8)), [1], DIST_NEAREST, bound=F(1, 2)).counterexample["element"] == 1
    assert frac_bound_scan(Q5(0, F(1, 8)), [1, 2, 3], DIST_NEAREST, bound=F(-1, 3)).passed


def test_fibonacci_prefix_is_single_chain():
    view = GapSetSpec.fibonacci().enumerate(10**9)
    els = view.elements
    gaps = set(els)
    assert all(els[i + 1] - els[i] in gaps for i in range(len(els) - 1))


def test_window_certificate_bounds_chain_length():
    # whenever the window certificate passes, scans stay under the implied bound
    from diffseq.construct import build_alpha

    deep_alpha = build_alpha([4**i for i in range(12)], 2, 1).alpha
    cases = [
        (Q5(F(3, 8), F(1, 8)), GapSetSpec.even_fibonacci(), F(21, 100), 2, (2_000, 5_000)),
        # 341/1024 was built from 4 recursion steps, so it certifies gaps up to
        # 256 only; {341/1024 * 1024} = 0 falls out of the window beyond that
        (F(341, 1024), GapSetSpec.geometric(4), F(1, 8), 2, (256, 1000)),
        (deep_alpha, GapSetSpec.geometric(4), F(1, 8), 2, (2_000, 5_000)),
    ]
    for alpha, spec, eps, r, lengths in cases:
        for n in lengths:
            view = spec.enumerate(n)
            assert certify_fracs(alpha, view, eps, r).passed
            coloring = frac_coloring(alpha, r, n)
            bound = diffseq_bound_from_eps(r, eps)
            assert longest_mono_diffseq(coloring, view).length < bound

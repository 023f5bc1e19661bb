"""Avoider search against full-enumeration oracles; chromatic bounds; evidence."""

import concurrent.futures
import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from diffseq import search
from diffseq.colorings import MAX_LENGTH, Coloring, residue_coloring
from diffseq.construct import doa_evidence
from diffseq.exactnum import Q5
from diffseq.gapsets import GapSetSpec
from diffseq.search import (
    DELTA,
    UNKNOWN,
    _dfs_deepest,
    chromatic_number_prefix,
    delta,
)
from diffseq.verify import chromatically_intersective_check, longest_mono_diffseq


def _naturals(bound):
    return GapSetSpec.polynomial(["1", "0"]).enumerate(bound)


def _chain_free(word, gaps, k):
    """True when no monochromatic k-term chain with the given gaps exists."""
    n = len(word)
    lengths = [0] * (n + 1)
    for x in range(1, n + 1):
        best = 1
        for d in gaps:
            if d >= x:
                break
            if word[x - d - 1] == word[x - 1] and lengths[x - d] + 1 > best:
                best = lengths[x - d] + 1
        if best >= k:
            return False
        lengths[x] = best
    return True


def _max_avoidable_product_enum(gaps, k, r, budget):
    """Largest n <= budget with an avoider, by enumerating all r^n colorings."""
    best = 0
    for n in range(1, budget + 1):
        found = False
        for word in itertools.product(range(1, r + 1), repeat=n - 1):
            if _chain_free((1,) + word, gaps, k):
                found = True
                break
        if not found:
            return best
        best = n
    return best


def _max_avoidable_bitmask_enum(gaps, k, budget):
    """Two-color oracle: sweep all 2^(n-1) colorings with bit tricks.

    End_j marks positions ending a monochromatic j-term chain inside one
    color class; the earliest k-chain completion caps the avoidable prefix.
    """
    full = (1 << budget) - 1
    best = 0
    for bits in range(1 << (budget - 1)):
        mask = bits << 1  # position 1 pinned to color one
        earliest = budget + 1
        for side in (mask, ~mask & full):
            end = side
            for _ in range(k - 1):
                nxt = 0
                for d in gaps:
                    nxt |= (end << d) & side
                end = nxt
                if not end:
                    break
            if end:
                low = end & -end
                earliest = min(earliest, low.bit_length())
        best = max(best, earliest - 1)
        if best == budget:
            return budget
    return best


def _reference_deepest(gaps, k, r, budget, prefix=b""):
    """The plain search: rejects a color only once a k-term chain is complete.

    Returns (deepest depth, first word in depth-first order at that depth).
    """
    color = bytearray(budget + 2)
    chain = [0] * (budget + 2)
    maxu = [0] * (budget + 2)
    nxt = [1] * (budget + 2)
    start = len(prefix) + 1
    for pos in range(1, start):
        c = prefix[pos - 1]
        color[pos] = c
        best = 1
        for d in gaps:
            if d >= pos:
                break
            y = pos - d
            if color[y] == c and chain[y] >= best:
                best = chain[y] + 1
        chain[pos] = best
        maxu[pos + 1] = max(maxu[pos], c)

    best_depth = len(prefix)
    best_word = bytes(prefix)
    pos = start
    while pos >= start:
        if pos > budget:
            return budget, bytes(color[1 : budget + 1])
        c = nxt[pos]
        if c > min(r, maxu[pos] + 1):
            nxt[pos] = 1
            pos -= 1
            continue
        nxt[pos] = c + 1
        best = 1
        for d in gaps:
            if d >= pos:
                break
            y = pos - d
            if color[y] == c and chain[y] >= best:
                best = chain[y] + 1
                if best >= k:
                    break
        if best >= k:
            continue
        color[pos] = c
        chain[pos] = best
        if pos > best_depth:
            best_depth = pos
            best_word = bytes(color[1 : pos + 1])
        maxu[pos + 1] = max(maxu[pos], c)
        pos += 1
    return best_depth, best_word


class _LazyPool:
    """Stands in for ProcessPoolExecutor: a job runs only when its result is
    read, so a test sees which subtrees the merge asked for."""

    instances: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.submitted = 0
        self.ran = 0
        self.shutdown_args = None
        _LazyPool.instances.append(self)

    def submit(self, fn, *args):
        self.submitted += 1
        pool = self

        class _Future:
            def result(self):
                pool.ran += 1
                return fn(*args)

        return _Future()

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdown_args = (wait, cancel_futures)


@pytest.fixture
def lazy_pool(monkeypatch):
    _LazyPool.instances = []
    # the search imports the pool class from here only when it splits
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _LazyPool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    return _LazyPool


def test_known_small_values():
    v3 = GapSetSpec.nonmultiples(3).enumerate(10)
    result = delta(v3, 2, 2, 10)
    assert (result.verdict, result.value) == (DELTA, 3)
    assert list(result.witness.colors) == [1, 2]

    for r in (2, 3, 4, 5):
        res = delta(_naturals(10), 2, r, 10)
        assert (res.verdict, res.value) == (DELTA, r + 1)


def test_unknown_with_structured_witnesses():
    singles = GapSetSpec.explicit([1]).enumerate(50)
    res = delta(singles, 2, 2, 50)
    assert res.verdict == UNKNOWN and res.value is None
    assert list(res.witness.colors) == [1, 2] * 25  # alternating avoider

    twos = GapSetSpec.explicit([2]).enumerate(40)
    res = delta(twos, 2, 2, 40)
    assert res.verdict == UNKNOWN
    assert list(res.witness.colors) == ([1, 1, 2, 2] * 10)  # block avoider


def test_delta_v3_three_term():
    v3 = GapSetSpec.nonmultiples(3).enumerate(30)
    result = delta(v3, 3, 2, 30)
    assert (result.verdict, result.value) == (DELTA, 7)
    gaps = list(v3.restrict(29))
    # the witness avoids, and the enumeration oracle confirms both sides
    assert _chain_free(tuple(result.witness.colors), gaps, 3)
    assert _max_avoidable_bitmask_enum([d for d in gaps if d < 8], 3, 8) == 6


def test_one_term_convention():
    res = delta(GapSetSpec.explicit([1, 2]).enumerate(5), 1, 2, 5)
    assert (res.verdict, res.value) == (DELTA, 1)
    # the kernel refuses color 1 at position 1 by its threat bit
    assert (res.stats.nodes, res.stats.rejected) == (1, 1)


def test_budget_validation():
    view = GapSetSpec.explicit([1]).enumerate(5)
    for k in (1, 2):  # k = 1 takes the same checks as any other k
        with pytest.raises(ValueError):
            delta(view, k, 2, 0)
        with pytest.raises(ValueError):
            delta(view, k, 2, 9)  # enumerated only to 5
        with pytest.raises(ValueError):
            delta(view, k, 1, 5)


def test_delta_refuses_more_colors_than_bytes_before_searching(monkeypatch):
    # the witness holds one byte per color; r = 256 is refused up front, not
    # after the whole search when the witness is built
    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(search, "_dfs_deepest", no_search)
    view = GapSetSpec.nonmultiples(2).enumerate(50)
    with pytest.raises(ValueError, match=r"r must be in 2\.\.255.*got 256"):
        delta(view, 2, 256, 50)


def test_search_lengths_past_the_coloring_cap_are_refused():
    # the witness is a coloring, so a budget (or n) above MAX_LENGTH is
    # refused before the search allocates its per-position state
    n = MAX_LENGTH + 1
    view = GapSetSpec.explicit([1]).enumerate(n)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            delta(view, 3, 2, n)
        with pytest.raises(ValueError, match=rf"n must be in 1\.\.{MAX_LENGTH} \(got {n}\)"):
            chromatic_number_prefix(view, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_engine_matches_two_color_enumeration():
    rng = random.Random(97)
    for _ in range(12):
        budget = rng.randint(6, 13)
        gaps = sorted(rng.sample(range(1, 7), rng.randint(1, 4)))
        k = rng.choice([2, 3])
        view = GapSetSpec.explicit(gaps).enumerate(budget)
        engine = delta(view, k, 2, budget)
        usable = [d for d in gaps if d < budget]
        oracle_best = _max_avoidable_bitmask_enum(usable, k, budget)
        if engine.verdict == UNKNOWN:
            assert oracle_best == budget
        else:
            assert engine.value == oracle_best + 1


def test_engine_matches_two_color_enumeration_longer_chains():
    rng = random.Random(131)
    for _ in range(10):
        budget = rng.randint(8, 14)
        gaps = sorted(rng.sample(range(1, 6), rng.randint(1, 3)))
        k = rng.choice([4, 5])
        view = GapSetSpec.explicit(gaps).enumerate(budget)
        engine = delta(view, k, 2, budget)
        oracle_best = _max_avoidable_bitmask_enum([d for d in gaps if d < budget], k, budget)
        if engine.verdict == UNKNOWN:
            assert oracle_best == budget
        else:
            assert engine.value == oracle_best + 1


def test_kernel_matches_reference_loop():
    rng = random.Random(211)
    for _ in range(150):
        k = rng.randint(2, 5)
        r = rng.randint(2, 3)
        budget = rng.randint(5, 36)
        gaps = [d for d in sorted(rng.sample(range(1, 16), rng.randint(1, 6))) if d < budget]
        depth, word, stats, _ = _dfs_deepest(gaps, k, r, budget)
        assert (depth, word) == _reference_deepest(gaps, k, r, budget), (gaps, k, r, budget)
        assert stats.rejected <= stats.nodes


def test_kernel_matches_reference_loop_below_a_prefix():
    # subtree jobs place their prefix through the kernel loop, one allowed
    # color per prefix position, before searching below it
    rng = random.Random(223)
    for _ in range(60):
        k = rng.randint(3, 5)
        r = rng.randint(2, 3)
        budget = rng.randint(10, 30)
        gaps = [d for d in sorted(rng.sample(range(1, 12), rng.randint(1, 5))) if d < budget]
        _, _, _, frontier = _dfs_deepest(gaps, k, r, budget, stop_depth=4)
        for prefix in frontier:
            depth, word, _, _ = _dfs_deepest(gaps, k, r, budget, prefix=prefix)
            ref_depth, ref_word = _reference_deepest(gaps, k, r, budget, prefix=prefix)
            assert (depth, word) == (ref_depth, ref_word)


def test_two_color_kernel_matches_the_list_kernel():
    # the list kernel at r = 2 is the reference: every count and the frontier
    # must agree, below prefixes and when a node budget cuts the search short
    rng = random.Random(401)
    cut = 0
    for _ in range(300):
        k = rng.randint(1, 6)
        budget = rng.randint(5, 40)
        gaps = [d for d in sorted(rng.sample(range(1, 16), rng.randint(1, 7))) if d < budget]
        nodes = _dfs_deepest(gaps, k, 2, budget)[2].nodes
        args = [(b"", None, None), (b"", 4, None), (b"", None, rng.randrange(nodes))]
        frontier = _dfs_deepest(gaps, k, 2, budget, stop_depth=4)[3]
        args += [(prefix, None, None) for prefix in frontier[:2]]
        for prefix, stop_depth, max_nodes in args:
            runs = [
                kernel(gaps, k, 2, budget, prefix, stop_depth, max_nodes)
                for kernel in (_dfs_deepest, search._dfs_lists)
            ]
            got, want = (
                (depth, word, (stats.nodes, stats.rejected, stats.pruned, stats.forced), tops)
                for depth, word, stats, tops in runs
            )
            assert got == want, (gaps, k, budget, prefix, stop_depth, max_nodes)
            if max_nodes is not None and got[2][0] > max_nodes and got[0] < budget:
                cut += 1
    assert cut > 100


def test_the_kernel_is_chosen_from_r(monkeypatch):
    # two colors never reach the list kernel; three colors do
    def refuse(*args):
        raise AssertionError("list kernel called")

    monkeypatch.setattr(search, "_dfs_lists", refuse)
    nonmult4 = GapSetSpec.nonmultiples(4).enumerate(40)
    res = delta(nonmult4, 5, 2, 40)
    assert res.stats.forced > 0
    with pytest.raises(AssertionError, match="list kernel called"):
        delta(nonmult4, 3, 3, 40)


def test_one_term_chains_through_max_avoidable():
    res = delta(GapSetSpec.explicit([1, 2]).enumerate(5), 1, 2, 5)
    assert (res.verdict, res.value, res.witness.n) == (DELTA, 1, 0)
    assert _dfs_deepest([1, 2], 1, 2, 5)[:2] == (0, b"")


def test_stats_block():
    v3 = GapSetSpec.nonmultiples(3).enumerate(40)
    res = delta(v3, 4, 2, 40)
    stats = res.to_json()["stats"]
    assert stats["nodes"] == res.nodes > 0
    assert 0 < stats["rejected"] < stats["nodes"]
    assert stats["pruned"] > 0
    assert (stats["split_depth"], stats["frontier"]) == (None, 0)
    assert delta(v3, 4, 2, 40).stats == res.stats  # counts are deterministic


def test_search_counts_are_pinned():
    # k >= 4 runs the chain-length loop at every placement the U mask leaves
    # open; nodes, prunes and forced moves must not move with its shortcuts
    primes = GapSetSpec.primes().enumerate(100)
    squares = GapSetSpec.polynomial([1, 0, 0]).enumerate(100)
    nonmult4 = GapSetSpec.nonmultiples(4).enumerate(100)
    for view, k, r, budget, value, counts in (
        (primes, 7, 2, 100, 33, (208_933, 37_347, 67_120, 156_658)),
        (squares, 5, 2, 100, 56, (107_805, 19_649, 34_254, 81_299)),
        (squares, 3, 2, 100, 21, (119, 34, 26, 174)),
        (nonmult4, 5, 3, 100, 31, (153_726, 56_657, 45_826, 230_995)),
        (nonmult4, 3, 3, 40, 13, (107, 48, 23, 121)),
    ):
        res = delta(view, k, r, budget)
        assert (res.verdict, res.value) == (DELTA, value)
        stats = res.stats
        assert (stats.nodes, stats.rejected, stats.pruned, stats.forced) == counts
        assert _chain_free(res.witness.colors, [d for d in view.elements if d < budget], k)


def test_search_sweep_is_pinned():
    # depth, word, counts and frontier of about 1,200 small searches, prefixes
    # included; the digest was taken on the full-window closure
    rng = random.Random(307)
    digest = hashlib.sha256()
    for _ in range(300):
        k = rng.randint(2, 5)
        r = rng.randint(2, 4)
        budget = rng.randint(8, 40)
        gaps = [d for d in sorted(rng.sample(range(1, 16), rng.randint(2, 7))) if d < budget]
        runs = [_dfs_deepest(gaps, k, r, budget), _dfs_deepest(gaps, k, r, budget, stop_depth=4)]
        runs += [_dfs_deepest(gaps, k, r, budget, prefix) for prefix in runs[1][3][:2]]
        for depth, word, stats, frontier in runs:
            counts = (stats.nodes, stats.rejected, stats.pruned, stats.forced)
            digest.update(repr((depth, word, counts, frontier)).encode())
    assert digest.hexdigest() == "dcd084e6f6d1fd40fa702438e301bc67a82f0366a20ecded972179d0ceb9e08f"


def test_canonical_color_order_keeps_existence_verdict():
    # fully unrestricted enumeration (no canonical order, nothing pinned)
    rng = random.Random(113)
    for _ in range(8):
        n = rng.randint(3, 7)
        r = rng.choice([2, 3])
        k = rng.choice([2, 3])
        gaps = sorted(rng.sample(range(1, 5), rng.randint(1, 3)))
        exists = any(
            _chain_free(word, gaps, k)
            for word in itertools.product(range(1, r + 1), repeat=n)
        )
        view = GapSetSpec.explicit(gaps).enumerate(n)
        engine = delta(view, k, r, n)
        assert exists == (engine.verdict == UNKNOWN)


def test_engine_matches_three_color_enumeration():
    rng = random.Random(101)
    for _ in range(6):
        budget = rng.randint(4, 8)
        gaps = sorted(rng.sample(range(1, 5), rng.randint(1, 3)))
        view = GapSetSpec.explicit(gaps).enumerate(budget)
        engine = delta(view, 2, 3, budget)
        oracle_best = _max_avoidable_product_enum(gaps, 2, 3, budget)
        if engine.verdict == UNKNOWN:
            assert oracle_best == budget
        else:
            assert engine.value == oracle_best + 1


def test_monotone_in_k_and_r():
    v3 = GapSetSpec.nonmultiples(3).enumerate(60)
    values_k = [delta(v3, k, 2, 60).value for k in (1, 2, 3, 4)]
    assert all(v is not None for v in values_k)
    assert values_k == sorted(values_k)
    # for r = 3 the residue coloring avoids forever: undefined shows as unknown
    assert delta(v3, 2, 3, 60).verdict == UNKNOWN
    values_r = [delta(_naturals(12), 2, r, 12).value for r in (2, 3, 4, 5)]
    assert values_r == sorted(values_r)


def test_witness_always_avoids():
    rng = random.Random(103)
    for _ in range(10):
        budget = rng.randint(5, 20)
        gaps = sorted(rng.sample(range(1, 8), rng.randint(1, 4)))
        k = rng.choice([2, 3, 4])
        r = rng.choice([2, 3])
        view = GapSetSpec.explicit(gaps).enumerate(budget)
        res = delta(view, k, r, budget)
        if res.witness is not None and res.witness.n:
            scan = longest_mono_diffseq(res.witness, view.restrict(res.witness.n))
            assert scan.length < k


def _level_coloring(word, gaps, k):
    """x -> (color, length of the longest monochromatic chain ending at x) as
    the class (color - 1) * (k - 1) + length, by a plain chain-length loop."""
    levels = [0] * (len(word) + 1)
    out = bytearray()
    for x in range(1, len(word) + 1):
        c = word[x - 1]
        levels[x] = 1 + max((levels[x - d] for d in gaps if d < x and word[x - d - 1] == c),
                            default=0)
        assert levels[x] < k
        out.append((c - 1) * (k - 1) + levels[x])
    return bytes(out)


def test_avoiders_map_to_proper_colorings():
    # chains to pairs: an r-coloring with no monochromatic k-chain gives a
    # proper r(k-1)-coloring of the distance graph, so Delta(D,k;r) is at most
    # Delta(D,2;r(k-1)); checked without the search's threat masks
    families = [GapSetSpec.primes(), GapSetSpec.polynomial([1, 0, 0]), GapSetSpec.nonmultiples(4)]
    rng = random.Random(127)
    for i in range(60):
        k, r = rng.randint(2, 5), rng.randint(2, 3)
        budget = rng.randint(5, 30)
        if i % 2:
            spec = rng.choice(families)
        else:
            spec = GapSetSpec.explicit(rng.sample(range(1, 9), rng.randint(1, 4)))
        view = spec.enumerate(budget)
        word = delta(view, k, r, budget).witness.colors
        levels = Coloring(r * (k - 1), _level_coloring(word, view.elements, k))
        assert chromatically_intersective_check(levels, view).length < 2


def test_parallel_matches_sequential():
    v3 = GapSetSpec.nonmultiples(3).enumerate(24)
    seq = delta(v3, 4, 2, 24, threads=1)
    par = delta(v3, 4, 2, 24, threads=2)
    assert (seq.verdict, seq.value) == (par.verdict, par.value)
    assert seq.witness.colors == par.witness.colors

    singles = GapSetSpec.explicit([1]).enumerate(30)
    seq = delta(singles, 2, 2, 30, threads=1)
    par = delta(singles, 2, 2, 30, threads=3)
    assert (seq.verdict, par.verdict) == (UNKNOWN, UNKNOWN)
    assert seq.witness.colors == par.witness.colors


def test_parallel_merge_matches_sequential_on_random_instances(lazy_pool):
    rng = random.Random(227)
    for _ in range(25):
        k = rng.randint(2, 5)
        r = rng.randint(2, 3)
        budget = rng.randint(8, 30)
        gaps = sorted(rng.sample(range(1, 12), rng.randint(1, 5)))
        view = GapSetSpec.explicit(gaps).enumerate(budget)
        seq = delta(view, k, r, budget, threads=1)
        par = delta(view, k, r, budget, threads=2)
        assert (seq.verdict, seq.value) == (par.verdict, par.value)
        assert (seq.witness and seq.witness.colors) == (par.witness and par.witness.colors)
    assert sum(pool.ran for pool in lazy_pool.instances) > 25


def test_parallel_stops_reading_subtrees_after_a_full_budget_hit(lazy_pool):
    even = GapSetSpec.even_fibonacci().enumerate(400)
    seq = delta(even, 5, 2, 400, threads=1)
    par = delta(even, 5, 2, 400, threads=2)
    assert seq.verdict == par.verdict == UNKNOWN
    assert seq.witness.colors == par.witness.colors
    (pool,) = lazy_pool.instances
    assert par.stats.frontier == pool.submitted > pool.ran == 1
    assert pool.shutdown_args == (True, True)  # pending subtrees are cancelled


def test_parallel_unknown_on_real_workers():
    # the pool is shut down with the queued subtrees cancelled on a full-budget hit
    even = GapSetSpec.even_fibonacci().enumerate(400)
    seq = delta(even, 5, 2, 400, threads=1)
    par = delta(even, 5, 2, 400, threads=2)
    assert (seq.verdict, par.verdict) == (UNKNOWN, UNKNOWN)
    assert seq.witness.colors == par.witness.colors


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_are_refused(threads):
    view = GapSetSpec.primes().enumerate(20)
    with pytest.raises(ValueError, match=f"threads must be >= 1 \\(got {threads}\\)"):
        delta(view, 3, 2, 20, threads=threads)


def test_threads_clamped_to_cpu_count(lazy_pool):
    v3 = GapSetSpec.nonmultiples(3).enumerate(24)
    res = delta(v3, 4, 2, 24, threads=10**6)
    assert [pool.max_workers for pool in lazy_pool.instances] == [2]
    assert res.stats.split_depth is not None and res.stats.frontier > 0
    assert res.value == delta(v3, 4, 2, 24, threads=1).value


# -- chromatic bounds -----------------------------------------------------------


def _chromatic_by_enumeration(view, n):
    gaps = [d for d in view.elements if d < n]
    for r in range(1, n + 1):
        for word in itertools.product(range(1, r + 1), repeat=n - 1):
            colors = (1,) + word
            if all(
                colors[x - 1] != colors[x + d - 1]
                for x in range(1, n + 1)
                for d in gaps
                if x + d <= n
            ):
                return r
    return n


def test_chromatic_powers_of_two_odd_cycle():
    powers = GapSetSpec.geometric(2).enumerate(12)
    res = chromatic_number_prefix(powers, 12)
    assert res.lower >= 3
    verts = res.lower_witness["vertices"]
    gapset = set(powers.elements)
    if res.lower_witness["kind"] == "clique":
        assert all(
            abs(a - b) in gapset for a, b in itertools.combinations(verts, 2)
        )
    # the classic independent witness: 1, 3, 5 is a triangle (gaps 2, 2, 4)
    assert {2, 4} <= gapset


def test_chromatic_v3_prefix_with_residue_witness():
    v3 = GapSetSpec.nonmultiples(3).enumerate(12)
    res = chromatic_number_prefix(v3, 12)
    assert res.exact and res.value == 3
    residues = residue_coloring(3, 12)
    gaps = [d for d in v3.elements if d < 12]
    assert all(
        residues.colors[x - 1] != residues.colors[x + d - 1]
        for x in range(1, 13)
        for d in gaps
        if x + d <= 12
    )


def test_chromatic_refuses_a_view_short_of_n():
    # enumerated to 10, {1, 50} looks like a path: chi = 2; to 100 the gap 50
    # closes odd cycles (1, 2, ..., 51 and back), so chi = 3
    with pytest.raises(ValueError):
        chromatic_number_prefix(GapSetSpec.explicit([1, 50]).enumerate(10), 100)
    assert chromatic_number_prefix(GapSetSpec.explicit([1, 50]).enumerate(100), 100).value == 3


def test_chromatic_path_and_witness_properness():
    path = GapSetSpec.explicit([1]).enumerate(10)
    res = chromatic_number_prefix(path, 10)
    assert res.exact and res.value == 2
    rng = random.Random(107)
    for _ in range(8):
        n = rng.randint(3, 9)
        gaps = sorted(rng.sample(range(1, 6), rng.randint(1, 3)))
        view = GapSetSpec.explicit(gaps).enumerate(n)
        res = chromatic_number_prefix(view, n)
        usable = [d for d in gaps if d < n]
        assert all(
            res.coloring[x - 1] != res.coloring[x + d - 1]
            for x in range(1, n + 1)
            for d in usable
            if x + d <= n
        )
        assert res.lower <= res.upper
        assert res.exact and res.value == _chromatic_by_enumeration(view, n)


# the table-based bounds that preceded the shifted gap masks: one adjacency
# int of n bits per vertex, kept here as the reference


def _reference_adjacency(gaps, n):
    adj = [0] * (n + 1)
    for v in range(1, n + 1):
        for d in gaps:
            u = v - d
            if u < 1:
                break
            adj[v] |= 1 << u
            adj[u] |= 1 << v
    return adj


def _reference_greedy_coloring(adj, n):
    colors = [0] * (n + 1)
    for v in range(1, n + 1):
        used = 0
        nb = adj[v]
        while nb:
            u = nb & -nb
            i = u.bit_length() - 1
            if i < v:
                used |= 1 << colors[i]
            nb ^= u
        c = 1
        while used >> c & 1:
            c += 1
        colors[v] = c
    return colors


def _reference_greedy_clique(adj, n):
    best = []
    for start in range(1, n + 1):
        clique = [start]
        candidates = adj[start]
        while candidates:
            low = candidates & -candidates
            u = low.bit_length() - 1
            clique.append(u)
            candidates &= adj[u]
        if len(clique) > len(best):
            best = clique
    return sorted(best)


def _reference_odd_cycle(adj, n):
    side = [-1] * (n + 1)
    parent = [0] * (n + 1)
    for root in range(1, n + 1):
        if side[root] != -1:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            nb = adj[v]
            while nb:
                low = nb & -nb
                u = low.bit_length() - 1
                nb ^= low
                if side[u] == -1:
                    side[u] = side[v] ^ 1
                    parent[u] = v
                    stack.append(u)
                elif side[u] == side[v] and u != v:
                    chain_v = []
                    x = v
                    while x:
                        chain_v.append(x)
                        x = parent[x]
                    index_of = {x: i for i, x in enumerate(chain_v)}
                    path_u = []
                    y = u
                    while y not in index_of:
                        path_u.append(y)
                        y = parent[y]
                    return chain_v[: index_of[y] + 1] + path_u[::-1]
    return None


def _reference_bounds(gaps, n):
    """(greedy coloring, lower bound, lower witness, adjacency table)."""
    adj = _reference_adjacency(gaps, n)
    greedy = _reference_greedy_coloring(adj, n)[1:]
    clique = _reference_greedy_clique(adj, n)
    lower = max(len(clique), 1)
    lower_witness = {"kind": "clique", "vertices": clique}
    if lower < 3:
        cycle = _reference_odd_cycle(adj, n)
        if cycle is not None and len(cycle) % 2 == 1:
            lower = 3
            lower_witness = {"kind": "odd_cycle", "vertices": cycle}
    return greedy, lower, lower_witness, adj


def _reference_chromatic(view, n):
    """The table-based greedy and clique/odd-cycle bounds, then a plain
    recursive proper-coloring backtrack in canonical color order for every r
    from the lower bound up; returns ``to_json()`` of the result."""
    greedy, lower, lower_witness, adj = _reference_bounds(
        [d for d in view.elements if d < n], n
    )
    upper = max(greedy, default=1)

    def colorable(kcolors):
        colors = [0] * (n + 1)

        def place(v, used_max):
            if v > n:
                return True
            banned = {colors[u] for u in range(1, v) if adj[v] >> u & 1}
            for c in range(1, min(kcolors, used_max + 1) + 1):
                if c not in banned:
                    colors[v] = c
                    if place(v + 1, max(used_max, c)):
                        return True
            colors[v] = 0
            return False

        return colors[1:] if place(1, 0) else None

    value, coloring = upper, greedy
    for k in range(lower, upper):
        sol = colorable(k)
        if sol is not None:
            value, coloring = k, sol
            break
    return search.ChromaticResult(n, value, value, True, coloring, lower_witness).to_json()


def test_prefix_bounds_match_the_table_reference():
    # greedy coloring, lower bound and witness from shifted gap masks equal
    # the adjacency-table versions, odd-cycle witnesses included
    families = [
        GapSetSpec.primes(),
        GapSetSpec.nonmultiples(3),
        GapSetSpec.polynomial([1, 0, 0]),
        GapSetSpec.fibonacci(),
        GapSetSpec.geometric(2),
        GapSetSpec.nonmultiples(2),  # odd gaps: bipartite, no odd cycle
        GapSetSpec.explicit([2, 3]),  # triangle-free with odd cycles
        GapSetSpec.explicit([100, 150]),
    ]
    kinds = set()
    for spec in families:
        for n in (1, 2, 7, 40, 300):
            gaps = [d for d in spec.enumerate(n).elements if d < n]
            ref = _reference_bounds(gaps, n)[:3]
            assert search._prefix_bounds(gaps, n) == ref, (spec, n)
            kinds.add(ref[2]["kind"])
    rng = random.Random(127)
    for _ in range(320):
        n = rng.randint(1, 120)
        top = rng.choice((6, 20, 130))
        gaps = sorted(rng.sample(range(1, top), rng.randint(1, min(8, top - 1))))
        gaps = [d for d in gaps if d < n]
        ref = _reference_bounds(gaps, n)[:3]
        assert search._prefix_bounds(gaps, n) == ref, (gaps, n)
        kinds.add(ref[2]["kind"])
    assert kinds == {"clique", "odd_cycle"}


def test_chromatic_matches_reference_colorer():
    families = [
        GapSetSpec.primes(),
        GapSetSpec.nonmultiples(3),
        GapSetSpec.nonmultiples(4),
        GapSetSpec.fibonacci(),
        GapSetSpec.geometric(2),
        GapSetSpec.polynomial([1, 0, 0]),
    ]
    rng = random.Random(113)
    for i in range(240):
        n = rng.randint(1, 40)
        if i % 3:
            spec = rng.choice(families)
        else:
            spec = GapSetSpec.explicit(rng.sample(range(1, 13), rng.randint(1, 5)))
        view = spec.enumerate(n)
        assert chromatic_number_prefix(view, n).to_json() == _reference_chromatic(view, n)


def test_chromatic_budget_exhausted_keeps_the_bounds(monkeypatch):
    # the primes minus one on [1..40] have chromatic number 8, found exactly
    # with the full budget after refuting 7 colors in about 4.3M nodes
    monkeypatch.setattr(search, "_CHROMATIC_NODES", 10_000)
    spent = []
    kernel = search._dfs_deepest

    def counting_kernel(*args, **kwargs):
        out = kernel(*args, **kwargs)
        spent.append(out[2].nodes)
        return out

    monkeypatch.setattr(search, "_dfs_deepest", counting_kernel)
    view = GapSetSpec.primes().shifted(-1).enumerate(40)
    res = chromatic_number_prefix(view, 40)
    assert not res.exact and res.value is None
    # the kernel stops at its first backtrack past the budget: at most one
    # descent of n positions with r trials each beyond it
    assert 10_000 < sum(spent) <= 10_000 + 40 * 8
    assert res.lower <= 8 <= res.upper
    gaps = [d for d in view.elements if d < 40]
    assert len(res.coloring) == 40 and max(res.coloring) <= res.upper
    assert all(res.coloring[x - 1] != res.coloring[x + d - 1]
               for d in gaps for x in range(1, 41 - d))


def test_chromatic_pinned_values():
    squares = GapSetSpec.polynomial([1, 0, 0])
    for spec, n, value in ((squares, 57, 4), (squares, 58, 5), (GapSetSpec.primes(), 2000, 4)):
        res = chromatic_number_prefix(spec.enumerate(n), n)
        assert res.exact and res.value == value == res.lower == res.upper


def test_chromatic_search_memory():
    # the peak, 2.0 MB, is the search's per-depth threat masks, cut to
    # budget + 2 bits (3.1 MB uncut, with the old adjacency table held)
    view = GapSetSpec.primes().enumerate(2000)
    tracemalloc.start()
    try:
        res = chromatic_number_prefix(view, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exact and res.value == 4
    assert peak < 2_400_000, peak


def test_prefix_bounds_build_no_table():
    # the bounds read neighbours from the gap mask by shifts: about 24 KB at
    # n = 2000, where a table of n ints of n bits peaked near 0.63 MB
    gaps = [d for d in GapSetSpec.primes().enumerate(2000).elements if d < 2000]
    tracemalloc.start()
    try:
        greedy, lower, _ = search._prefix_bounds(gaps, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (max(greedy), lower) == (12, 4)  # chi = 4 needs the search
    assert peak < 200_000, peak


# -- composite evidence -----------------------------------------------------------


def test_doa_evidence_cases():
    even = GapSetSpec.even_fibonacci().enumerate(10_000)
    cert = doa_evidence(even, Q5(F(3, 8), F(1, 8)), F(21, 100), 2, 10_000)
    assert cert.passed
    assert cert.params["chain_length_bound"] == 4
    assert cert.components[0].passed  # the window certificate rides along

    # the 4-step construction certifies powers of 4 up to 256 only
    geo = GapSetSpec.geometric(4).enumerate(1_000)
    cert = doa_evidence(geo, F(341, 1024), F(1, 8), 2, 1_000)
    assert cert.passed
    assert cert.params["chain_length_bound"] == 5

    ones = GapSetSpec.explicit([1]).enumerate(100)
    cert = doa_evidence(ones, F(1, 2), F(1, 2), 2, 100)
    assert cert.passed
    assert cert.params["chain_length_bound"] == 2

    bad = doa_evidence(GapSetSpec.explicit([2]).enumerate(50), F(1, 2), F(1, 4), 2, 50)
    assert not bad.passed

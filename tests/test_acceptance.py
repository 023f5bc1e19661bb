"""Acceptance suite: every headline criterion at its stated scale.

Each test prints one pass/fail line (run pytest with -s to watch them).
All comparisons are exact; there are no numeric tolerances to tune.
"""

import itertools
import random
import time
from fractions import Fraction as F

from diffseq.colorings import (
    block_coloring,
    complexity,
    frac_coloring,
    residue_coloring,
    rotation_word,
)
from diffseq.construct import build_alpha, certify_fracs, diffseq_bound_from_eps
from diffseq.exactnum import PHI, Q5
from diffseq.gapsets import GapSetSpec, fib_values
from diffseq.search import DELTA, UNKNOWN, chromatic_number_prefix, delta
from diffseq.verify import (
    DIST_NEAREST,
    FRAC_WINDOW,
    check_fib_fact,
    frac_bound_scan,
    longest_mono_ap,
    longest_mono_diffseq,
    pisano_period,
)

SQRT5_OVER_8 = Q5(0, F(1, 8))
ONE_PLUS_PHI_OVER_4 = Q5(F(3, 8), F(1, 8))


def _report(cid: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid}: {detail}"


def test_c01_fib_dist_nearest_bounds():
    started = time.perf_counter()
    fib = fib_values(200)[1:]
    main = frac_bound_scan(SQRT5_OVER_8, fib, DIST_NEAREST, bound=F(1, 10))
    first4 = frac_bound_scan(SQRT5_OVER_8, fib[:4], DIST_NEAREST, bound=F(16, 100))
    ok = main.passed and first4.passed
    _report(
        "C01",
        ok,
        f"dist(sqrt5*f_n/8) > 1/10 for n=1..200 and > 16/100 for n=1..4 "
        f"({time.perf_counter() - started:.2f}s)",
    )


def test_c02_fib_ap_avoidance_at_scale():
    started = time.perf_counter()
    n = 50_000
    coloring = frac_coloring(SQRT5_OVER_8, 2, n)
    scan = longest_mono_ap(coloring, GapSetSpec.fibonacci().enumerate(n))
    _report(
        "C02",
        scan.length <= 5,
        f"longest monochromatic Fibonacci-gap progression on [1..{n}] is "
        f"{scan.length} <= 5 ({time.perf_counter() - started:.2f}s)",
    )


def test_c03_evenfib_window():
    started = time.perf_counter()
    f = fib_values(601)
    evens = [f[3 * k] for k in range(1, 201)]
    cert = frac_bound_scan(
        ONE_PLUS_PHI_OVER_4, evens, FRAC_WINDOW, window=(F(21, 100), F(31, 100))
    )
    _report(
        "C03",
        cert.passed,
        f"frac((1+phi)/4 * f_3n) inside (21/100, 31/100) for n=1..200 "
        f"({time.perf_counter() - started:.2f}s)",
    )


def test_c04_evenfib_diffseq_avoidance_at_scale():
    started = time.perf_counter()
    n = 50_000
    coloring = frac_coloring(ONE_PLUS_PHI_OVER_4, 2, n)
    scan = longest_mono_diffseq(coloring, GapSetSpec.even_fibonacci().enumerate(n))
    _report(
        "C04",
        scan.length <= 3,
        f"longest monochromatic even-Fibonacci chain on [1..{n}] is "
        f"{scan.length} <= 3 ({time.perf_counter() - started:.2f}s)",
    )


def test_c05_modular_facts_periodicity_complete():
    started = time.perf_counter()
    period = pisano_period(8)
    mod8 = check_fib_fact("mod8_nonzero")
    mod4 = check_fib_fact("mod4_one")
    ok = period == 12 and mod8.passed and mod4.passed
    ok = ok and "periodicity" in mod8.verified_range and pisano_period(4) == 6
    _report(
        "C05",
        ok,
        f"pisano(8)={period}; neighbor sums never 0 mod 8 and triple sums 1 mod 4 "
        f"for every n, by periodicity ({time.perf_counter() - started:.2f}s)",
    )


def test_c06_quadratic_field_identities():
    started = time.perf_counter()
    a = check_fib_fact("binet_sqrt5")
    b = check_fib_fact("binet_oneplusphi")
    _report(
        "C06",
        a.passed and b.passed,
        f"sqrt5*f_n and (1+phi)*f_n identities exact for every n >= 1, by induction "
        f"({time.perf_counter() - started:.2f}s)",
    )


def test_c07_even_fib_recurrence_and_filter():
    started = time.perf_counter()
    rec = check_fib_fact("even_fib_recurrence")
    filtered = GapSetSpec.fibonacci().filter_multiples(2).enumerate(1_000_000)
    direct = GapSetSpec.even_fibonacci().enumerate(1_000_000)
    ok = rec.passed and filtered.elements == direct.elements
    _report(
        "C07",
        ok,
        f"e_n = 4e_(n-1) + e_(n-2) for every n, by induction; filtered Fibonacci matches to 1e6 "
        f"({time.perf_counter() - started:.2f}s)",
    )


def test_c08_pipeline_powers_of_four():
    started = time.perf_counter()
    n = 20_000
    q = [4**i for i in range(20)]
    cert = build_alpha(q, 2, 1)
    trace_ok = (
        cert.eps == F(1, 8)
        and cert.z[:4] == [0, 1, 5, 21]
        and cert.intervals[3].lo == F(169, 512)
        and cert.intervals[3].hi == F(43, 128)
    )
    view = GapSetSpec.geometric(4).enumerate(q[-1])
    window = certify_fracs(cert.alpha, view, cert.eps, 2)
    coloring = frac_coloring(cert.alpha, 2, n)
    scan = longest_mono_diffseq(coloring, view.restrict(n))
    bound = diffseq_bound_from_eps(2, cert.eps)
    ok = trace_ok and window.passed and scan.length < 6 and scan.length < bound
    _report(
        "C08",
        ok,
        f"trace prefix z={cert.z[:4]}, I4=[169/512, 43/128]; window certified over "
        f"20 gaps; longest chain {scan.length} < 6 on [1..{n}] "
        f"({time.perf_counter() - started:.2f}s)",
    )


def _max_avoidable_bitmask_enum(gaps, k, budget):
    # full two-coloring sweep, bit-parallel; independent of the search engine
    full = (1 << budget) - 1
    best = 0
    for bits in range(1 << (budget - 1)):
        mask = bits << 1
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
                earliest = min(earliest, (end & -end).bit_length())
        best = max(best, earliest - 1)
        if best == budget:
            return budget
    return best


def test_c09_engine_matches_full_enumeration():
    started = time.perf_counter()
    rng = random.Random(20240813)
    instances = [
        # pinned heavyweights: a delta verdict at the full budget forces the
        # oracle through every one of the 2^(budget-1) colorings
        ([1, 2, 3, 4, 5, 6], 3, 16),
        ([1, 4, 5], 3, 18),
        ([2, 3], 3, 18),
    ]
    for _ in range(50):
        budget = rng.randint(8, 18)
        gaps = sorted(rng.sample(range(1, 7), rng.randint(1, 5)))
        k = rng.choice([2, 3])
        instances.append((gaps, k, budget))
    mismatches = 0
    for gaps, k, budget in instances:
        view = GapSetSpec.explicit(gaps).enumerate(budget)
        engine = delta(view, k, 2, budget)
        oracle = _max_avoidable_bitmask_enum([d for d in gaps if d < budget], k, budget)
        if engine.verdict == UNKNOWN:
            agree = oracle == budget
        else:
            agree = engine.value == oracle + 1
        if not agree:
            mismatches += 1
    _report(
        "C09",
        mismatches == 0,
        f"{len(instances)} instances (r=2, budgets to 18, incl. full-sweep "
        f"cases): engine and 2^N sweep agree ({time.perf_counter() - started:.2f}s)",
    )


def test_c10_known_small_values():
    started = time.perf_counter()
    v3 = GapSetSpec.nonmultiples(3).enumerate(10)
    r1 = delta(v3, 2, 2, 10)
    naturals = GapSetSpec.polynomial(["1", "0"]).enumerate(10)
    pigeonhole = [delta(naturals, 2, r, 10) for r in (2, 3, 4, 5)]
    singles = GapSetSpec.explicit([1]).enumerate(50)
    r3 = delta(singles, 2, 2, 50)
    ok = (
        (r1.verdict, r1.value) == (DELTA, 3)
        and all(res.verdict == DELTA for res in pigeonhole)
        and all(res.value == r + 1 for res, r in zip(pigeonhole, (2, 3, 4, 5)))
        and r3.verdict == UNKNOWN
        and list(r3.witness.colors) == [1, 2] * 25
    )
    _report(
        "C10",
        ok,
        f"forcing lengths: nonmultiples-of-3 pairs at 3; pigeonhole r+1 for "
        f"r=2..5; gap-1 search stays open with the alternating avoider "
        f"({time.perf_counter() - started:.2f}s)",
    )


def test_c11_chromatic_prefix_facts():
    started = time.perf_counter()
    powers = GapSetSpec.geometric(2).enumerate(12)
    res_powers = chromatic_number_prefix(powers, 12)
    gapset = set(powers.elements)
    odd_cycle = [1, 3, 5]
    cycle_edges_ok = all(
        abs(a - b) in gapset for a, b in itertools.combinations(odd_cycle, 2)
    )
    v3 = GapSetSpec.nonmultiples(3).enumerate(12)
    res_v3 = chromatic_number_prefix(v3, 12)
    residues = residue_coloring(3, 12)
    gaps = [d for d in v3.elements if d < 12]
    residue_proper = all(
        residues.colors[x - 1] != residues.colors[x + d - 1]
        for x in range(1, 13)
        for d in gaps
        if x + d <= 12
    )
    ok = (
        res_powers.lower >= 3
        and cycle_edges_ok
        and res_v3.exact
        and res_v3.value == 3
        and residue_proper
    )
    _report(
        "C11",
        ok,
        f"powers-of-2 prefix needs >= 3 colors ({{1,3,5}} is an odd cycle); "
        f"nonmultiples-of-3 prefix on [1..12] has chromatic number 3 with the "
        f"residue witness ({time.perf_counter() - started:.2f}s)",
    )


def test_c12_coloring_family_properties():
    started = time.perf_counter()
    n = 2_000
    block_ok = True
    for m in range(1, 7):
        blocks = block_coloring(m, n)
        view = GapSetSpec.explicit(list(range(1, m + 1))).enumerate(n)
        if longest_mono_diffseq(blocks, view).length > m:
            block_ok = False
        if longest_mono_ap(blocks, view).length > m:
            block_ok = False
    golden = PHI - 1
    word = rotation_word(golden, 0, golden, 10_000)
    sturmian_ok = all(complexity(word, k) == k + 1 for k in range(1, 13))
    _report(
        "C12",
        block_ok and sturmian_ok,
        f"block colorings cap both scans at m for m=1..6 (N={n}); golden "
        f"rotation word has factor counts n+1 for n<=12 on a 1e4 prefix "
        f"({time.perf_counter() - started:.2f}s)",
    )

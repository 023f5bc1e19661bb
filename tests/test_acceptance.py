"""Acceptance suite: every headline criterion at its stated scale.

Each test prints one pass/fail line (run pytest with -s to watch them).
The registered claims run as shipped, through ``run_reproduce("full")``,
and print their claim id; the other criteria print Cnn. All comparisons are
exact; there are no numeric tolerances to tune.
"""

import itertools
import random
import time

from diffseq.colorings import block_coloring, complexity, residue_coloring, rotation_word
from diffseq.exactnum import PHI
from diffseq.gapsets import GapSetSpec
from diffseq.reproduce import CLAIMS, run_reproduce
from diffseq.search import DELTA, UNKNOWN, chromatic_number_prefix, delta
from diffseq.verify import longest_mono_ap, longest_mono_diffseq


def _report(cid: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid}: {detail}"


# each registered claim's parameters at full scale and the scope its
# certificates must give, pinned so that no scale or scope moves unseen
FULL_SCALE = {
    "fib-dist-nearest-bound": ({"terms": 200}, "finite"),
    "fib-ap-avoidance": ({"n": 50_000}, "finite"),
    "evenfib-frac-window": ({"terms": 200}, "finite"),
    "evenfib-diffseq-avoidance": ({"n": 50_000}, "finite"),
    "fib-residue-periods": ({}, "every_n"),
    "quadratic-identities": ({}, "every_n"),
    "evenfib-recurrence-and-filter": ({"filter_bound": 1_000_000}, "finite"),
    "powers-of-4-pipeline": ({"n": 20_000, "steps": 20}, "finite"),
}


def _accept(claim_id: str):
    claim = next(c for c in CLAIMS if c.claim_id == claim_id)
    params, scope = FULL_SCALE[claim_id]
    assert claim.params_for("full") == params
    (outcome,) = run_reproduce("full", claims=(claim,)).outcomes
    checked = "; ".join(
        f"{c.claim} {'held' if c.passed else 'FAILED'} on {c.verified_range}"
        for c in outcome.certificates
    )
    _report(
        claim_id,
        outcome.passed and outcome.scope == scope,
        f"{outcome.scope}: {checked} ({outcome.elapsed:.2f}s)",
    )


def test_acceptance_runs_every_registered_claim():
    assert [c.claim_id for c in CLAIMS] == list(FULL_SCALE)


def test_c01_fib_dist_nearest_bounds():
    _accept("fib-dist-nearest-bound")


def test_c02_fib_ap_avoidance_at_scale():
    _accept("fib-ap-avoidance")


def test_c03_evenfib_window():
    _accept("evenfib-frac-window")


def test_c04_evenfib_diffseq_avoidance_at_scale():
    _accept("evenfib-diffseq-avoidance")


def test_c05_modular_facts_periodicity_complete():
    _accept("fib-residue-periods")


def test_c06_quadratic_field_identities():
    _accept("quadratic-identities")


def test_c07_even_fib_recurrence_and_filter():
    _accept("evenfib-recurrence-and-filter")


def test_c08_pipeline_powers_of_four():
    _accept("powers-of-4-pipeline")


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

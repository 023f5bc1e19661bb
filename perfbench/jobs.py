"""The benchmark's workloads: fixed job lists whose inputs come from a seed.

A job calls the public functions of the diffseq modules, each call wrapped
in a span named after the layer, and returns its outputs. Its check runs
outside the timed interval and judges those outputs only with the pinned
values below and the independent oracle in ``oracle.py``.

The seed draws nothing but the alphas of the seeded scan jobs in ``certify``
and ``dense``, from a bounded family, so every seed gives a run of about the
same size. The search instances and every input size are fixed here.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from diffseq import colorings, construct, gapsets, search, verify
from diffseq.exactnum import Q5
from diffseq.gapsets import GapSetSpec

import oracle
from tracing import Tracer

WORKLOADS = ("certify", "search", "dense")

# Q(sqrt5) constants as integer triples (P, U, L) = (P + U*sqrt5)/L
SQRT5_OVER_8 = (0, 1, 8)
ONE_PLUS_PHI_OVER_4 = (3, 1, 8)
GOLDEN = (-1, 1, 2)  # 1/phi = (sqrt5 - 1)/2
ZERO = (0, 0, 1)

SIZES = {
    "full": {
        "ap_n": 200_000,
        "even_n": 200_000,
        "pipeline_n": 100_000,
        "pipeline_steps": 20,
        "seeded_n": 80_000,
        "fib_terms": 2000,
        "even_terms": 300,
        "fact_bound": 200,
        "rotation_n": 6000,
        "factor_max": 20,
        "primes_to": 5_000_000,
        "squares_to": 250_000_000,
        "composed_to": 500_000,
        "two_class_n": 7000,
        "three_class_n": 40_000,
        "block_n": 5000,
        "block_chain": 2501,
        "pair_n": 8000,
        "chromatic_n": 2000,
        "exact_n": 40,
    },
    "tiny": {
        "ap_n": 3000,
        "even_n": 3000,
        "pipeline_n": 2000,
        "pipeline_steps": 20,
        "seeded_n": 2000,
        "fib_terms": 100,
        "even_terms": 30,
        "fact_bound": 30,
        "rotation_n": 300,
        "factor_max": 10,
        "primes_to": 10_000,
        "squares_to": 100_000,
        "composed_to": 5000,
        "two_class_n": 300,
        "three_class_n": 500,
        "block_n": 500,
        "block_chain": 252,
        "pair_n": 300,
        "chromatic_n": 100,
        "exact_n": 20,
    },
}

# (name, gap set, k, r, budget, pinned least forcing length or None for
# "unknown", whether the instance is also run with 2 workers)
SEARCH_INSTANCES = {
    "full": (
        ("primes_k7_r2", "primes", 7, 2, 100, 33, True),
        ("powers2_k9_r2", "powers2", 9, 2, 100, 67, False),
        ("squares_k5_r2", "squares", 5, 2, 100, 56, False),
        ("nonmult4_k5_r3", "nonmult4", 5, 3, 100, 31, False),
        ("evenfib_k5_r2", "even_fibonacci", 5, 2, 400, None, False),
    ),
    "tiny": (
        ("primes_k4_r2", "primes", 4, 2, 40, 13, True),
        ("powers2_k5_r2", "powers2", 5, 2, 40, 17, False),
        ("squares_k3_r2", "squares", 3, 2, 40, 21, False),
        ("nonmult4_k3_r3", "nonmult4", 3, 3, 40, 13, False),
        ("evenfib_k3_r2", "even_fibonacci", 3, 2, 30, None, False),
    ),
}

# the composed spec of the dense workload; _enumerate_composed holds its oracle membership test
COMPOSED = GapSetSpec.union(
    [
        GapSetSpec.primes().shifted(-1),
        GapSetSpec.geometric(3),
        GapSetSpec.nonmultiples(5).divide(2),
        GapSetSpec.fibonacci().shifted(2),
    ]
)


@dataclass
class Job:
    name: str
    run: Callable[[Tracer], dict]
    check: Callable[[dict], list]


def q5(t: tuple[int, int, int]) -> Q5:
    P, U, L = t
    return Q5(Fraction(P, L), Fraction(U, L))


def seeded_alpha(rng: random.Random) -> tuple[int, int, int]:
    """(a + b*sqrt5)/c with 5 <= c <= 12, 0 <= a < c and 1 <= b < c."""
    c = rng.randint(5, 12)
    return (rng.randrange(c), rng.randint(1, c - 1), c)


# -- spanned calls into the layers ------------------------------------------------------


def enumerate_set(tr: Tracer, spec: GapSetSpec, bound: int) -> gapsets.GapSetView:
    with tr.span("gapsets.enumerate") as counts:
        view = spec.enumerate(bound)
        counts["elements"] = len(view)
    return view


def fib_values(tr: Tracer, count: int) -> list[int]:
    with tr.span("gapsets.enumerate", elements=count + 1):
        return gapsets.fib_values(count)


def frac_coloring(tr: Tracer, alpha, r: int, n: int) -> colorings.Coloring:
    with tr.span("colorings.frac", positions=n):
        return colorings.frac_coloring(alpha, r, n)


def _cells(coloring: colorings.Coloring, view: gapsets.GapSetView) -> int:
    # computed from the inputs: N x |usable D|
    return coloring.n * bisect.bisect_left(view.elements, coloring.n)


def chain_scan(tr: Tracer, coloring, view) -> verify.ScanResult:
    with tr.span("verify.chain", cells=_cells(coloring, view)):
        return verify.longest_mono_diffseq(coloring, view)


def ap_scan(tr: Tracer, coloring, view) -> verify.ScanResult:
    with tr.span("verify.ap", cells=_cells(coloring, view)):
        return verify.longest_mono_ap(coloring, view)


# -- checks shared by the jobs -------------------------------------------------------------


def fib_gaps(bound: int) -> list[int]:
    return oracle.recurrence_upto(1, 2, 1, bound)


def even_fib_gaps(bound: int) -> list[int]:
    return oracle.recurrence_upto(2, 8, 4, bound)


def power_gaps(base: int, bound: int) -> list[int]:
    return [base**i for i in range(bound.bit_length() + 1) if base**i <= bound]


def square_gaps(bound: int) -> list[int]:
    return [i * i for i in range(1, math.isqrt(bound) + 1)]


def nonmultiple_gaps(m: int, bound: int) -> list[int]:
    return [x for x in range(1, bound + 1) if x % m]


def prime_gaps(bound: int) -> list[int]:
    return [x for x, flag in enumerate(oracle.prime_flags(bound)) if flag]


def coloring_problems(coloring, expected: bytes, r: int, what: str) -> list[str]:
    if coloring.r != r or coloring.colors != expected:
        return [f"{what} coloring differs from the oracle"]
    return []


def scan_problems(scan, coloring, gaps, progression: bool, what: str) -> list[str]:
    return [
        f"{what}: {p}"
        for p in oracle.scan_problems(coloring.colors, gaps, scan.to_json(), progression)
    ]


def pinned(ok: bool, text: str) -> list[str]:
    return [] if ok else [f"pinned value: {text}"]


def frac_chain_job(name: str, spec: GapSetSpec, gaps_upto, alpha, r: int, n: int,
                   longest: Optional[int] = None) -> Job:
    """A frac coloring scanned for chains against one gap set; ``longest``
    pins an upper bound on the chain length."""

    def run(tr):
        view = enumerate_set(tr, spec, n)
        coloring = frac_coloring(tr, q5(alpha), r, n)
        return {"view": view, "coloring": coloring, "scan": chain_scan(tr, coloring, view)}

    def check(out):
        gaps = gaps_upto(n)
        coloring, scan = out["coloring"], out["scan"]
        return (
            oracle.listed_view_problems(out["view"].elements, n, gaps)
            + coloring_problems(coloring, oracle.frac_colors(alpha, r, n), r, f"alpha {alpha}")
            + scan_problems(scan, coloring, gaps, False, "chain scan")
            + pinned(longest is None or scan.length <= longest, f"longest chain <= {longest}")
        )

    return Job(name, run, check)


# -- certify ---------------------------------------------------------------------------------


def certify_jobs(rng: random.Random, size: dict) -> list[Job]:
    seeded = [(r, seeded_alpha(rng)) for r in (2, 3)]
    return [
        _sqrt5over8_progressions(size["ap_n"]),
        frac_chain_job("evenfib_chains", GapSetSpec.even_fibonacci(), even_fib_gaps,
                       ONE_PLUS_PHI_OVER_4, 2, size["even_n"], longest=3),
        _powers4_pipeline(size["pipeline_n"], size["pipeline_steps"]),
        _window_certificates(size["fib_terms"], size["even_terms"], size["fact_bound"]),
        _golden_rotation(size["rotation_n"], size["factor_max"]),
        *(frac_chain_job(f"seeded_fib_chains_r{r}", GapSetSpec.fibonacci(), fib_gaps,
                         alpha, r, size["seeded_n"]) for r, alpha in seeded),
    ]


def _sqrt5over8_progressions(n: int) -> Job:
    def run(tr):
        view = enumerate_set(tr, GapSetSpec.fibonacci(), n)
        coloring = frac_coloring(tr, q5(SQRT5_OVER_8), 2, n)
        scan = ap_scan(tr, coloring, view)
        with tr.span("colorings.export", positions=n):
            back = colorings.Coloring.from_json(coloring.to_json())
        return {"view": view, "coloring": coloring, "scan": scan, "export": back}

    def check(out):
        gaps = fib_gaps(n)
        coloring, back = out["coloring"], out["export"]
        return (
            oracle.listed_view_problems(out["view"].elements, n, gaps)
            + coloring_problems(coloring, oracle.frac_colors(SQRT5_OVER_8, 2, n), 2, "sqrt5/8")
            + scan_problems(out["scan"], coloring, gaps, True, "progression scan")
            + pinned(out["scan"].length <= 5, "longest Fibonacci progression <= 5")
            + pinned(back.colors == coloring.colors and back.r == 2, "export round trip")
        )

    return Job("sqrt5over8_progressions", run, check)


def _powers4_pipeline(n: int, steps: int) -> Job:
    """The order the `pipeline` command uses, one span per layer."""
    spec = GapSetSpec.geometric(4)

    def run(tr):
        q = enumerate_set(tr, spec, 4 ** (steps - 1)).elements
        with tr.span("construct.build_alpha", steps=steps):
            alpha_cert = construct.build_alpha(q, 2, 1, steps=steps)
        window_view = enumerate_set(tr, spec, max(n, q[-1]))
        with tr.span("construct.certify", elements=len(window_view)):
            window = construct.certify_fracs(alpha_cert.alpha, window_view, alpha_cert.eps, 2)
        coloring = frac_coloring(tr, alpha_cert.alpha, 2, n)
        view = enumerate_set(tr, spec, n)
        scan = chain_scan(tr, coloring, view)
        return {
            "alpha": alpha_cert,
            "window_view": window_view,
            "window": window,
            "coloring": coloring,
            "view": view,
            "scan": scan,
        }

    def check(out):
        cert, window_view = out["alpha"], out["window_view"]
        alpha = cert.alpha
        triple = (alpha.numerator, 0, alpha.denominator)
        hi = Fraction(1, 2)
        miss = oracle.first_outside(triple, window_view.elements, cert.eps, hi, closed=True)
        iv4 = cert.intervals[3]
        return (
            oracle.listed_view_problems(window_view.elements, window_view.bound,
                                        power_gaps(4, window_view.bound))
            + oracle.listed_view_problems(out["view"].elements, n, power_gaps(4, n))
            + pinned(cert.z[:4] == [0, 1, 5, 21], "z[:4] = [0, 1, 5, 21]")
            + pinned(cert.eps == Fraction(1, 8), "eps = 1/8")
            + pinned((iv4.lo, iv4.hi) == (Fraction(169, 512), Fraction(43, 128)),
                     "fourth interval [169/512, 43/128]")
            + pinned(all(iv.lo <= alpha <= iv.hi for iv in cert.intervals),
                     "alpha inside every nested interval")
            + pinned(out["window"].passed and miss is None, "window [1/8, 1/2] certified")
            + coloring_problems(out["coloring"], oracle.frac_colors(triple, 2, n), 2, "pipeline")
            + scan_problems(out["scan"], out["coloring"], power_gaps(4, n), False, "chain scan")
            + pinned(out["scan"].length < 5, "chain length < 5")
        )

    return Job("powers4_pipeline", run, check)


def _window_certificates(fib_terms: int, even_terms: int, fact_bound: int) -> Job:
    dist_bound = Fraction(1, 10)
    window = (Fraction(21, 100), Fraction(31, 100))

    def run(tr):
        fib = fib_values(tr, fib_terms)[1:]
        f = fib_values(tr, 3 * even_terms + 1)
        evens = [f[3 * i] for i in range(1, even_terms + 1)]
        with tr.span("verify.window", elements=len(fib)):
            dist = verify.frac_bound_scan(q5(SQRT5_OVER_8), fib, verify.DIST_NEAREST, bound=dist_bound)
        with tr.span("verify.window", elements=len(evens)):
            win = verify.frac_bound_scan(q5(ONE_PLUS_PHI_OVER_4), evens, verify.FRAC_WINDOW, window=window)
        facts = []
        for fact in ("binet_sqrt5", "binet_oneplusphi"):
            with tr.span("verify.facts", bound=fact_bound):
                facts.append(verify.check_fib_fact(fact, fact_bound))
        return {"fib": fib, "evens": evens, "dist": dist, "window": win, "facts": facts}

    def check(out):
        fib = oracle.fibonacci_terms(3 * even_terms + 1)
        evens = [fib[3 * i - 1] for i in range(1, even_terms + 1)]
        dist_miss = oracle.first_outside(
            SQRT5_OVER_8, out["fib"], dist_bound, 1 - dist_bound, closed=False
        )
        win_miss = oracle.first_outside(ONE_PLUS_PHI_OVER_4, out["evens"], *window, closed=False)
        return (
            pinned(out["fib"] == oracle.fibonacci_terms(fib_terms), "Fibonacci terms")
            + pinned(out["evens"] == evens, "even Fibonacci terms")
            + pinned(out["dist"].passed and dist_miss is None, "dist(sqrt5/8 f_n, Z) > 1/10")
            + pinned(out["window"].passed and win_miss is None, "(3+sqrt5)/8 window (21/100, 31/100)")
            + pinned(all(c.passed for c in out["facts"]), "both Binet identities hold")
        )

    return Job("window_certificates", run, check)


def _golden_rotation(n: int, factor_max: int) -> Job:
    def run(tr):
        with tr.span("colorings.rotation", positions=n):
            word = colorings.rotation_word(q5(GOLDEN), 0, q5(GOLDEN), n)
        counts = []
        for m in range(1, factor_max + 1):
            with tr.span("colorings.complexity", factor=m):
                counts.append(colorings.complexity(word, m))
        return {"word": word, "complexity": counts}

    def check(out):
        expected = oracle.rotation_colors(GOLDEN, ZERO, GOLDEN, n)
        return coloring_problems(out["word"], expected, 2, "golden rotation") + pinned(
            out["complexity"] == [m + 1 for m in range(1, factor_max + 1)], "p(n) = n + 1"
        )

    return Job("golden_rotation", run, check)


# -- search ----------------------------------------------------------------------------------

SEARCH_SETS = {
    "primes": (GapSetSpec.primes(), prime_gaps),
    "powers2": (GapSetSpec.geometric(2), lambda b: power_gaps(2, b)),
    "squares": (GapSetSpec.polynomial([1, 0, 0]), square_gaps),
    "nonmult4": (GapSetSpec.nonmultiples(4), lambda b: nonmultiple_gaps(4, b)),
    "even_fibonacci": (GapSetSpec.even_fibonacci(), even_fib_gaps),
}


def search_jobs(scale: str) -> list[Job]:
    return [_delta_job(*inst) for inst in SEARCH_INSTANCES[scale]]


def _delta_job(name, set_name, k, r, budget, value, parallel) -> Job:
    spec, oracle_gaps = SEARCH_SETS[set_name]

    def run(tr):
        view = enumerate_set(tr, spec, budget)
        with tr.span("search.delta", workers=1) as counts:
            one = search.delta(view, k, r, budget, threads=1)
            counts["nodes"] = one.nodes
        out = {"view": view, "one": one}
        if parallel:
            with tr.span("search.parallel", workers=2) as counts:
                two = search.delta(view, k, r, budget, threads=2)
                counts["nodes"] = two.nodes
            out["two"] = two
        return out

    def check(out):
        gaps = oracle_gaps(budget)
        one = out["one"]
        problems = oracle.listed_view_problems(out["view"].elements, budget, gaps)
        if value is None:
            problems += pinned(one.verdict == search.UNKNOWN, f"{name} is unknown at budget {budget}")
            size = budget
        else:
            problems += pinned(one.verdict == search.DELTA and one.value == value, f"{name} = {value}")
            size = value - 1
        if one.witness is None:
            problems.append("no avoider witness")
        else:
            problems += oracle.avoider_problems(one.witness.colors, gaps, k, r, size)
        if parallel:
            two = out["two"]
            same = (two.verdict, two.value, two.witness and two.witness.colors) == (
                one.verdict, one.value, one.witness and one.witness.colors)
            problems += pinned(same, "2 workers give the verdict, value and witness of 1")
        return problems

    return Job(name, run, check)


# -- dense -----------------------------------------------------------------------------------


def dense_jobs(rng: random.Random, size: dict) -> list[Job]:
    two_class, three_class = seeded_alpha(rng), seeded_alpha(rng)
    return [
        _enumerate_primes(size["primes_to"]),
        _enumerate_squares(size["squares_to"]),
        _enumerate_composed(size["composed_to"]),
        _primes_two_class(two_class, size["two_class_n"]),
        frac_chain_job("squares_three_class", GapSetSpec.polynomial([1, 0, 0]), square_gaps,
                       three_class, 3, size["three_class_n"]),
        _nonmult3_block7(size["block_n"], size["block_chain"]),
        _primes_residue4_pairs(size["pair_n"]),
        _chromatic_primes(size["chromatic_n"]),
        _chromatic_exact(size["exact_n"]),
    ]


def _enumerate_primes(bound: int) -> Job:
    def run(tr):
        return {"view": enumerate_set(tr, GapSetSpec.primes(), bound)}

    def check(out):
        flags = oracle.prime_flags(bound)
        return oracle.view_problems(out["view"].elements, bound, flags.__getitem__, flags.count(1))

    return Job("enumerate_primes", run, check)


def _enumerate_squares(bound: int) -> Job:
    def run(tr):
        return {"view": enumerate_set(tr, GapSetSpec.polynomial([1, 0, 0]), bound)}

    def check(out):
        def is_square(e):
            return math.isqrt(e) ** 2 == e

        return oracle.view_problems(out["view"].elements, bound, is_square, math.isqrt(bound))

    return Job("enumerate_squares", run, check)


def _enumerate_composed(bound: int) -> Job:
    def run(tr):
        return {"view": enumerate_set(tr, COMPOSED, bound)}

    def check(out):
        flags = oracle.prime_flags(bound + 1)
        powers3 = set(power_gaps(3, bound))
        fib_plus2 = {f + 2 for f in fib_gaps(bound)}

        def member(x):
            return x % 5 != 0 or flags[x + 1] or x in powers3 or x in fib_plus2

        count = sum(1 for x in range(1, bound + 1) if member(x))
        return oracle.view_problems(out["view"].elements, bound, member, count)

    return Job("enumerate_composed", run, check)


def _primes_two_class(alpha: tuple[int, int, int], n: int) -> Job:
    def run(tr):
        view = enumerate_set(tr, GapSetSpec.primes(), n)
        coloring = frac_coloring(tr, q5(alpha), 2, n)
        chain = chain_scan(tr, coloring, view)
        return {"view": view, "coloring": coloring, "chain": chain, "ap": ap_scan(tr, coloring, view)}

    def check(out):
        gaps = prime_gaps(n)
        coloring = out["coloring"]
        return (
            oracle.listed_view_problems(out["view"].elements, n, gaps)
            + coloring_problems(coloring, oracle.frac_colors(alpha, 2, n), 2, f"seeded {alpha}")
            + scan_problems(out["chain"], coloring, gaps, False, "chain scan")
            + scan_problems(out["ap"], coloring, gaps, True, "progression scan")
        )

    return Job("primes_two_class", run, check)


def _nonmult3_block7(n: int, chain_length: int) -> Job:
    def run(tr):
        view = enumerate_set(tr, GapSetSpec.nonmultiples(3), n)
        with tr.span("colorings.block", positions=n):
            coloring = colorings.block_coloring(7, n)
        return {"view": view, "coloring": coloring, "chain": chain_scan(tr, coloring, view)}

    def check(out):
        gaps = nonmultiple_gaps(3, n)
        coloring, chain = out["coloring"], out["chain"]
        expected = bytes(1 if 1 <= x % 14 <= 7 else 2 for x in range(1, n + 1))
        return (
            oracle.listed_view_problems(out["view"].elements, n, gaps)
            + coloring_problems(coloring, expected, 2, "block(7)")
            + [f"chain: {p}" for p in oracle.witness_problems(
                coloring.colors, gaps, chain.length, chain.witness, chain.color, False)]
            + pinned(chain.length == chain_length, f"longest chain = {chain_length}")
        )

    return Job("nonmult3_block7", run, check)


def _primes_residue4_pairs(n: int) -> Job:
    def run(tr):
        view = enumerate_set(tr, GapSetSpec.primes(), n)
        with tr.span("colorings.residue", positions=n):
            coloring = colorings.residue_coloring(4, n)
        with tr.span("verify.pair", cells=_cells(coloring, view)):
            pair = verify.chromatically_intersective_check(coloring, view)
        return {"view": view, "coloring": coloring, "pair": pair}

    def check(out):
        gaps = prime_gaps(n)
        coloring, pair = out["coloring"], out["pair"]
        expected = bytes(x % 4 + 1 for x in range(1, n + 1))
        return (
            oracle.listed_view_problems(out["view"].elements, n, gaps)
            + coloring_problems(coloring, expected, 4, "residue(4)")
            + [f"pair: {p}" for p in oracle.witness_problems(
                coloring.colors, gaps, pair.length, pair.witness, pair.color, False)]
            + pinned(pair.length == 1 and not oracle.has_pair(coloring.colors, gaps),
                     "no same-colored pair at a prime distance")
        )

    return Job("primes_residue4_pairs", run, check)


def _chromatic_primes(n: int) -> Job:
    def run(tr):
        view = enumerate_set(tr, GapSetSpec.primes(), n)
        with tr.span("search.chromatic", vertices=n) as counts:
            result = search.chromatic_number_prefix(view, n)
            counts["exact"] = int(result.exact)
        return {"view": view, "result": result}

    def check(out):
        gaps = prime_gaps(n)
        result = out["result"].to_json()
        return (
            oracle.listed_view_problems(out["view"].elements, n, gaps)
            + oracle.chromatic_problems(gaps, n, result)
            + pinned(result["lower"] <= 4 <= result["upper"], "bounds bracket 4")
        )

    return Job("chromatic_primes", run, check)


def _chromatic_exact(n: int) -> Job:
    cases = (("primes", GapSetSpec.primes(), prime_gaps, 4),
             ("nonmult3", GapSetSpec.nonmultiples(3), lambda b: nonmultiple_gaps(3, b), 3))

    def run(tr):
        out = {}
        for name, spec, _, _ in cases:
            view = enumerate_set(tr, spec, n)
            with tr.span("search.chromatic", vertices=n) as counts:
                result = search.chromatic_number_prefix(view, n)
                counts["exact"] = int(result.exact)
            out[name] = result
        return out

    def check(out):
        problems = []
        for name, _, oracle_gaps, value in cases:
            result = out[name].to_json()
            problems += oracle.chromatic_problems(oracle_gaps(n), n, result)
            problems += pinned(result["exact"] and result["value"] == value,
                               f"chromatic number of {name} on [1..{n}] = {value}")
        return problems

    return Job("chromatic_exact", run, check)


def build_jobs(workload: str, seed: int, scale: str) -> list[Job]:
    """The job list of one workload; the same seed gives the same inputs."""
    rng = random.Random(seed)
    size = SIZES[scale]
    if workload == "certify":
        return certify_jobs(rng, size)
    if workload == "search":
        return search_jobs(scale)
    if workload == "dense":
        return dense_jobs(rng, size)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")

"""One-shot reproduction suite: every headline claim of the library run at a
chosen scale, with a machine-readable report and a human-readable table.

Each claim is registered with exact parameters so a run is reproducible
bit-for-bit; an entry can be copied with altered parameters to build negative
controls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import colorings, construct, gapsets, verify
from .exactnum import Q5
from .gapsets import GapSetSpec

SQRT5_OVER_8 = Q5(0, Fraction(1, 8))
ONE_PLUS_PHI_OVER_4 = Q5(Fraction(3, 8), Fraction(1, 8))


@dataclass
class ClaimOutcome:
    """A claim's verdict and scope, read from its certificates: a claim with
    none checked nothing and fails, and one finite certificate makes it finite."""

    claim_id: str
    description: str
    params: dict
    elapsed: float
    certificates: list[verify.Certificate]

    @property
    def passed(self) -> bool:
        return bool(self.certificates) and all(c.passed for c in self.certificates)

    @property
    def scope(self) -> str:
        every_n = self.certificates and all(c.every_n for c in self.certificates)
        return "every_n" if every_n else "finite"

    def to_json(self) -> dict:
        return {
            "claim": self.claim_id,
            "description": self.description,
            "params": self.params,
            "passed": self.passed,
            "elapsed": round(self.elapsed, 3),
            "scope": self.scope,
            "certificates": [c.to_json() for c in self.certificates],
        }


@dataclass
class ReproReport:
    scale: str
    outcomes: list[ClaimOutcome] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def to_json(self) -> dict:
        return {
            "scale": self.scale,
            "overall": self.overall,
            "claims": [o.to_json() for o in self.outcomes],
        }

    def to_table(self) -> str:
        width = max(len(o.claim_id) for o in self.outcomes) if self.outcomes else 8
        lines = [f"{'claim':<{width}}  verdict  seconds  scope"]
        for o in self.outcomes:
            verdict = "pass" if o.passed else "FAIL"
            failed = ", ".join(c.claim for c in o.certificates if not c.passed)
            line = f"{o.claim_id:<{width}}  {verdict:<7}  {o.elapsed:7.2f}  {o.scope}"
            lines.append(f"{line}  failed: {failed}" if failed else line)
        lines.append(f"overall: {'pass' if self.overall else 'FAIL'}")
        return "\n".join(lines)


@dataclass
class Claim:
    claim_id: str
    description: str
    params_for: Callable[[str], dict]
    runner: Callable[[dict], list[verify.Certificate]]


def _match(claim: str, verified_range: str, expected, found, every_n=False) -> verify.Certificate:
    """A value computed against the one expected; a miss records what was found."""
    miss = None if found == expected else {"found": found}
    params = {"expected": expected}
    return verify.Certificate(claim, params, verified_range, miss is None, miss, every_n=every_n)


def _claim_fib_dist(params: dict) -> list[verify.Certificate]:
    seq = gapsets.fib_values(params["terms"])[1:]
    return [
        verify.frac_bound_scan(SQRT5_OVER_8, seq, verify.DIST_NEAREST, bound=Fraction(1, 10)),
        verify.frac_bound_scan(SQRT5_OVER_8, seq[:4], verify.DIST_NEAREST, bound=Fraction(16, 100)),
    ]


def _scan_runner(scan, spec: GapSetSpec, limit: int, alpha: Q5):
    """The runner of a claim that ``scan`` finds no run of more than ``limit`` terms."""

    def runner(params: dict) -> list[verify.Certificate]:
        n, a = params["n"], params.get("alpha", alpha)
        result = scan(colorings.frac_coloring(a, 2, n), spec.enumerate(n))
        return [verify.Certificate(
            f"longest-mono-{result.structure}-at-most",
            {"alpha": Q5.coerce(a).to_json(), "set": spec.to_json(), "limit": limit},
            f"positions 1..{n}", result.length <= limit, witnesses={"scan": result.to_json()},
        )]

    return runner


def _claim_evenfib_window(params: dict) -> list[verify.Certificate]:
    f = gapsets.fib_values(3 * params["terms"] + 1)
    seq = [f[3 * n] for n in range(1, params["terms"] + 1)]
    window = (Fraction(21, 100), Fraction(31, 100))
    return [verify.frac_bound_scan(ONE_PLUS_PHI_OVER_4, seq, verify.FRAC_WINDOW, window=window)]


def _claim_residue_periods(params: dict) -> list[verify.Certificate]:
    walk = "every n >= 0 by periodicity mod 8: the walk of (f_n, f_(n+1)) mod 8 from (0, 1)"
    pisano = _match("fib-pisano-period-mod8", walk, 12, verify.pisano_period(8), every_n=True)
    return [pisano, verify.check_fib_fact("mod8_nonzero"), verify.check_fib_fact("mod4_one")]


def _claim_quadratic_identities(params: dict) -> list[verify.Certificate]:
    return [verify.check_fib_fact("binet_sqrt5"), verify.check_fib_fact("binet_oneplusphi")]


def _claim_evenfib_recurrence(params: dict) -> list[verify.Certificate]:
    bound = params["filter_bound"]
    direct = GapSetSpec.even_fibonacci().enumerate(bound).elements
    filtered = GapSetSpec.fibonacci().filter_multiples(2).enumerate(bound).elements
    same = _match("even-fib-equals-filtered-fib", f"elements 1..{bound}", direct, filtered)
    return [verify.check_fib_fact("even_fib_recurrence"), same]


def _claim_pipeline(params: dict) -> list[verify.Certificate]:
    n, steps = params["n"], params["steps"]
    growth, cert, evidence = construct.pipeline(GapSetSpec.geometric(4), 2, 1, 0, steps, n)
    i4 = cert.intervals[3]
    trace = {"z": cert.z[:4], "i4": [str(i4.lo), str(i4.hi)], "eps": str(cert.eps)}
    expected = {"z": [0, 1, 5, 21], "i4": ["169/512", "43/128"], "eps": "1/8"}
    return [growth, _match("powers-of-4-trace-prefix", "steps 1..4", expected, trace), evidence]


CLAIMS: tuple[Claim, ...] = (
    Claim(
        "fib-dist-nearest-bound",
        "distance of sqrt5/8 times each Fibonacci number to the nearest integer stays above 1/10",
        lambda scale: {"terms": 100 if scale == "quick" else 200},
        _claim_fib_dist,
    ),
    Claim(
        "fib-ap-avoidance",
        "the two-class sqrt5/8 coloring admits no 6-term fixed-gap Fibonacci progression",
        lambda scale: {"n": 10_000 if scale == "quick" else 50_000},
        _scan_runner(verify.longest_mono_ap, GapSetSpec.fibonacci(), 5, SQRT5_OVER_8),
    ),
    Claim(
        "evenfib-frac-window",
        "fracs of (3+sqrt5)/8 times even Fibonacci numbers stay strictly inside (21/100, 31/100)",
        lambda scale: {"terms": 100 if scale == "quick" else 200},
        _claim_evenfib_window,
    ),
    Claim(
        "evenfib-diffseq-avoidance",
        "the two-class (3+sqrt5)/8 coloring admits no 4-term even-Fibonacci chain",
        lambda scale: {"n": 10_000 if scale == "quick" else 50_000},
        _scan_runner(
            verify.longest_mono_diffseq, GapSetSpec.even_fibonacci(), 3, ONE_PLUS_PHI_OVER_4
        ),
    ),
    Claim(
        "fib-residue-periods",
        "Fibonacci residues mod 8 have period 12; the two modular facts hold for every n",
        lambda scale: {},
        _claim_residue_periods,
    ),
    Claim(
        "quadratic-identities",
        "the sqrt5 and (1+phi) multiplier identities hold exactly in Q(sqrt5) for every n",
        lambda scale: {},
        _claim_quadratic_identities,
    ),
    Claim(
        "evenfib-recurrence-and-filter",
        "even Fibonacci numbers satisfy e(n) = 4e(n-1) + e(n-2) for every n and equal the even-filtered Fibonacci set",
        lambda scale: {"filter_bound": 1_000_000},
        _claim_evenfib_recurrence,
    ),
    Claim(
        "powers-of-4-pipeline",
        "the nested-interval construction on powers of 4 reproduces its trace and the induced coloring avoids long chains",
        lambda scale: {"n": 10_000 if scale == "quick" else 20_000, "steps": 20},
        _claim_pipeline,
    ),
)


def run_reproduce(scale: str, claims: Optional[tuple[Claim, ...]] = None) -> ReproReport:
    """Run the registered claims at the given scale ("quick" or "full")."""
    if scale not in ("quick", "full"):
        raise ValueError("scale must be 'quick' or 'full'")
    report = ReproReport(scale)
    for claim in claims if claims is not None else CLAIMS:
        params = claim.params_for(scale)
        started = time.perf_counter()
        try:
            certificates = claim.runner(params)
        except Exception as exc:  # a crash is a failed claim, not a crashed report
            raised = {"raised": f"{type(exc).__name__}: {exc}"}
            certificates = [verify.Certificate(claim.claim_id, params, "nothing", False, raised)]
        elapsed = time.perf_counter() - started
        report.outcomes.append(
            ClaimOutcome(claim.claim_id, claim.description, params, elapsed, certificates)
        )
    return report

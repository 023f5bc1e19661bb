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

SQRT5_OVER_8 = Q5(0, Fraction(1, 8))
ONE_PLUS_PHI_OVER_4 = Q5(Fraction(3, 8), Fraction(1, 8))


@dataclass
class ClaimOutcome:
    claim_id: str
    description: str
    params: dict
    passed: bool
    elapsed: float
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "claim": self.claim_id,
            "description": self.description,
            "params": self.params,
            "passed": self.passed,
            "elapsed": round(self.elapsed, 3),
            "detail": self.detail,
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
        lines = [f"{'claim':<{width}}  verdict  seconds  detail"]
        for o in self.outcomes:
            verdict = "pass" if o.passed else "FAIL"
            lines.append(f"{o.claim_id:<{width}}  {verdict:<7}  {o.elapsed:7.2f}  {o.detail}")
        lines.append(f"overall: {'pass' if self.overall else 'FAIL'}")
        return "\n".join(lines)


@dataclass
class Claim:
    claim_id: str
    description: str
    params_for: Callable[[str], dict]
    runner: Callable[[dict], tuple[bool, str]]


def _fib_seq(count: int) -> list[int]:
    return gapsets.fib_values(count)[1:]


def _claim_fib_dist(params: dict) -> tuple[bool, str]:
    seq = _fib_seq(params["terms"])
    cert = verify.frac_bound_scan(SQRT5_OVER_8, seq, verify.DIST_NEAREST, bound=Fraction(1, 10))
    cert4 = verify.frac_bound_scan(
        SQRT5_OVER_8, seq[:4], verify.DIST_NEAREST, bound=Fraction(16, 100)
    )
    ok = cert.passed and cert4.passed
    return ok, f"dist > 1/10 on {len(seq)} terms; > 16/100 on the first 4"


def _claim_fib_ap(params: dict) -> tuple[bool, str]:
    n = params["n"]
    alpha = params.get("alpha", SQRT5_OVER_8)
    coloring = colorings.frac_coloring(alpha, 2, n)
    view = gapsets.GapSetSpec.fibonacci().enumerate(n)
    scan = verify.longest_mono_ap(coloring, view)
    return scan.length <= 5, f"longest fixed-gap run {scan.length} (must be <= 5)"


def _claim_evenfib_window(params: dict) -> tuple[bool, str]:
    f = gapsets.fib_values(3 * params["terms"] + 1)
    seq = [f[3 * n] for n in range(1, params["terms"] + 1)]
    cert = verify.frac_bound_scan(
        ONE_PLUS_PHI_OVER_4,
        seq,
        verify.FRAC_WINDOW,
        window=(Fraction(21, 100), Fraction(31, 100)),
    )
    return cert.passed, f"fracs strictly inside (21/100, 31/100) on {len(seq)} terms"


def _claim_evenfib_diffseq(params: dict) -> tuple[bool, str]:
    n = params["n"]
    alpha = params.get("alpha", ONE_PLUS_PHI_OVER_4)
    coloring = colorings.frac_coloring(alpha, 2, n)
    view = gapsets.GapSetSpec.even_fibonacci().enumerate(n)
    scan = verify.longest_mono_diffseq(coloring, view)
    return scan.length <= 3, f"longest chain {scan.length} (must be <= 3)"


def _claim_residue_periods(params: dict) -> tuple[bool, str]:
    period = verify.pisano_period(8)
    c1 = verify.check_fib_fact("mod8_nonzero")
    c2 = verify.check_fib_fact("mod4_one")
    ok = period == 12 and c1.passed and c2.passed
    return ok, f"period mod 8 = {period}; both residue facts hold for every n by periodicity"


def _claim_quadratic_identities(params: dict) -> tuple[bool, str]:
    c1 = verify.check_fib_fact("binet_sqrt5")
    c2 = verify.check_fib_fact("binet_oneplusphi")
    return c1.passed and c2.passed, "both identities exact for every n by induction"


def _claim_evenfib_recurrence(params: dict) -> tuple[bool, str]:
    cert = verify.check_fib_fact("even_fib_recurrence")
    bound = params["filter_bound"]
    filtered = gapsets.GapSetSpec.fibonacci().filter_multiples(2).enumerate(bound)
    direct = gapsets.GapSetSpec.even_fibonacci().enumerate(bound)
    same = filtered.elements == direct.elements
    return cert.passed and same, (
        f"recurrence for every n by induction; filtered view matches to {bound}"
    )


def _claim_pipeline(params: dict) -> tuple[bool, str]:
    n, steps = params["n"], params["steps"]
    spec = gapsets.GapSetSpec.geometric(4)
    q = spec.enumerate(4 ** (steps - 1)).elements
    cert = construct.build_alpha(q, 2, 1, steps=steps)
    trace_ok = (
        cert.z[:4] == [0, 1, 5, 21]
        and cert.intervals[3].lo == Fraction(169, 512)
        and cert.intervals[3].hi == Fraction(43, 128)
        and cert.eps == Fraction(1, 8)
    )
    evidence = construct.doa_evidence(spec.enumerate(max(n, q[-1])), cert.alpha, cert.eps, 2, n)
    ok = trace_ok and evidence.passed
    scan_len = evidence.params["scan_length"]
    return ok, (
        f"trace prefix reproduced; window certified; longest chain {scan_len} "
        f"on [1..{n}] (bound {evidence.params['chain_length_bound']})"
    )


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
        _claim_fib_ap,
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
        _claim_evenfib_diffseq,
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
            passed, detail = claim.runner(params)
        except Exception as exc:  # a crash is a failed claim, not a crashed report
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        report.outcomes.append(
            ClaimOutcome(claim.claim_id, claim.description, params, passed, elapsed, detail)
        )
    return report

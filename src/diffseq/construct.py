"""Nested-interval construction of a rational alpha whose fractional parts
{alpha * q_n} stay inside [eps, (r-1)/r] along a gap sequence that passes
the growth certificate, plus the translation of such a window certificate
into an upper bound on monochromatic diffsequence length, and the
finite-range accessibility evidence that joins the certificate with a chain
scan of the induced fractional-part coloring; ``pipeline`` runs that whole
chain on a gap set.

Everything here is exact: rational arithmetic for the construction, and the
integer Q(sqrt5) kernel of ``exactnum`` for the window certificate, which
checks the closed window [eps, (r-1)/r]. A produced certificate never claims
anything beyond the processed index range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .colorings import check_colors, check_length, frac_coloring
from .exactnum import NumberLike, Q5, RatInterval, first_outside, rational_str, to_rational
from .gapsets import GapSetSpec, GapSetView
from .verify import Certificate, longest_mono_diffseq

# the largest enumeration bound tried when a construction needs more elements
_MAX_BOUND = 10**40


class GrowthConditionError(ValueError):
    """The gap sequence grows too slowly for the nested-interval recursion."""

    def __init__(self, index: int, pair: tuple[int, int], threshold: Fraction):
        self.index = index
        self.pair = pair
        self.threshold = threshold
        super().__init__(
            f"growth {threshold} not satisfied at index {index}: "
            f"{pair[1]} < {threshold} * {pair[0]}"
        )


def growth_factor(r: int, delta) -> Fraction:
    """The required consecutive-ratio floor 2 + 1/(r-1) + delta."""
    if r < 2:
        raise ValueError("need r >= 2")
    delta = to_rational(delta)
    if delta <= 0:
        raise ValueError("need delta > 0")
    return 2 + Fraction(1, r - 1) + delta


def growth_certificate(elements: Iterable[int], rho, start: int = 0) -> Certificate:
    """Check d[i+1] >= rho * d[i] for every consecutive pair from index ``start``.

    ``elements`` is a sequence or a view, indexed 0-based by ``start``; the
    first checked pair is (d[start], d[start+1]), so a start outside
    [0, len(elements) - 2] raises instead of passing with nothing checked.
    Records the first violating pair on failure.
    """
    rho = to_rational(rho)
    if rho <= 1:
        raise ValueError("growth ratio must exceed 1")
    els = tuple(elements)
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


def epsilon_of(r: int, delta) -> Fraction:
    """The window floor delta*(r-1) / (r * (2 + 1/(r-1) + delta))."""
    delta = to_rational(delta)
    return delta * (r - 1) / (r * growth_factor(r, delta))


@dataclass
class AlphaCertificate:
    """Result of the construction: alpha, its enclosure, and per-index verdicts."""

    alpha: Fraction
    enclosure: RatInterval
    eps: Fraction
    eps1: Fraction
    r: int
    steps: int
    q: list[int]
    z: list[int]
    intervals: list[RatInterval]
    verdicts: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "alpha": rational_str(self.alpha),
            "enclosure": self.enclosure.to_json(),
            "eps": rational_str(self.eps),
            "eps1": rational_str(self.eps1),
            "r": self.r,
            "steps": self.steps,
            "q": self.q,
            "trace": [
                {"step": k + 1, "z": self.z[k], "interval": self.intervals[k].to_json()}
                for k in range(self.steps)
            ],
            "verdicts": self.verdicts,
        }


def build_alpha(
    q: Sequence[int],
    r: int,
    delta,
    steps: Optional[int] = None,
    start: int = 0,
) -> AlphaCertificate:
    """Run the nested-interval recursion over q[start : start + steps].

    Requires positive int q with q[n+1] >= (2 + 1/(r-1) + delta) * q[n], decided
    by ``growth_certificate`` (a miss raises GrowthConditionError naming the
    index in q, which is the set index when q is the set).
    Each interval is [(z+eps)/q, (r*z + r-1)/(r*q)]; the next z is the smallest
    integer placing z/q_next in the left subinterval of width 1/q_next. Nesting
    is asserted at every step. The reported alpha is the midpoint of the final
    enclosure, which keeps every verdict strictly interior.

    ``steps`` defaults to the rest of q. The rescaled window floor
    eps1 = eps * q[0] / q[start] also covers the elements before q[start].
    """
    delta = to_rational(delta)
    if steps is None:
        steps = len(q) - start
    if start < 0:
        raise ValueError(f"start must be >= 0 (got {start})")
    if not 1 <= steps <= len(q) - start:
        raise ValueError("steps must be between 1 and len(q)")
    head = q[: start + steps]
    if any(type(v) is not int for v in head):
        raise ValueError("q entries must be integers")
    if any(v < 1 for v in head):
        raise ValueError("q entries must be positive")
    factor = growth_factor(r, delta)
    growth = growth_certificate(head, factor, start) if steps > 1 else None
    if growth and not growth.passed:
        i, (a, b) = growth.counterexample["index"], growth.counterexample["pair"]
        raise GrowthConditionError(i, (a, b), factor)
    q = head[start:]

    eps = epsilon_of(r, delta)
    z = [0]
    intervals = [RatInterval(eps / q[0], Fraction(r - 1, r * q[0]))]
    for n in range(1, steps):
        # the smallest z placing z/q[n] inside the left subinterval of width 1/q[n]
        z_next = math.ceil(q[n] * (z[-1] + eps) / q[n - 1])
        nxt = RatInterval((z_next + eps) / q[n], Fraction(r * z_next + (r - 1), r * q[n]))
        if not intervals[-1].contains_interval(nxt):
            raise RuntimeError(
                f"interval nesting failed at step {n + 1}; unreachable "
                "when the growth hypothesis holds"
            )
        z.append(z_next)
        intervals.append(nxt)

    enclosure = intervals[-1]
    alpha = enclosure.midpoint()
    window_hi = Fraction(r - 1, r)
    verdicts = []
    for n, v in enumerate(q, 1):
        f = alpha * v % 1
        verdict = {"n": n, "q": v, "frac": rational_str(f), "in_window": eps <= f <= window_hi}
        verdicts.append(verdict)
    return AlphaCertificate(
        alpha=alpha,
        enclosure=enclosure,
        eps=eps,
        eps1=eps * head[0] / q[0],
        r=r,
        steps=steps,
        q=list(q),
        z=z,
        intervals=intervals,
        verdicts=verdicts,
    )


def certify_fracs(alpha: NumberLike, view: GapSetView, eps, r: int) -> Certificate:
    """Exact check that {alpha * d} lies in [eps, (r-1)/r] for every enumerated d.

    The certificate scopes its claim to the enumerated range; it says nothing
    about elements beyond the view's bound, and it refuses an empty view.
    """
    eps = to_rational(eps)
    if r < 2:
        raise ValueError("need r >= 2")
    window_hi = Fraction(r - 1, r)
    if not 0 < eps <= window_hi:
        raise ValueError("need 0 < eps <= (r-1)/r")
    if not view:
        raise ValueError("empty view")
    alpha_q5 = Q5.coerce(alpha)
    params = {
        "alpha": alpha_q5.to_json(),
        "eps": rational_str(eps),
        "r": r,
        "window": [rational_str(eps), rational_str(window_hi)],
    }
    scope = f"all {len(view)} enumerated elements up to {view.bound}"
    miss = first_outside(alpha_q5, view, eps, window_hi, closed=True)
    counterexample = None
    if miss is not None:
        counterexample = {"d": miss[0], "frac": miss[1].to_json()}
    return Certificate("fractional-parts-in-window", params, scope, miss is None, counterexample)


def diffseq_bound_from_eps(r: int, eps) -> int:
    """Length ceil(1/(r*eps)) + 1: no monochromatic diffsequence this long can
    exist under an r-class fractional-part coloring whose window floor is eps."""
    eps = to_rational(eps)
    if r < 2:
        raise ValueError("need r >= 2")
    if not 0 < eps <= Fraction(r - 1, r):
        raise ValueError("need 0 < eps <= (r-1)/r")
    return math.ceil(1 / (r * eps)) + 1


def doa_evidence(
    view: GapSetView,
    alpha: NumberLike,
    eps,
    r: int,
    n: int,
) -> Certificate:
    """Finite-range evidence that the gap set is not r-accessible: the window
    certificate on the enumerated elements plus a full scan of the induced
    r-class coloring on [1..n] staying below the implied chain-length bound.

    This is evidence over the checked ranges, not a proof over all of N.
    """
    eps = to_rational(eps)
    window_cert = certify_fracs(alpha, view, eps, r)
    bound = diffseq_bound_from_eps(r, eps)
    coloring = frac_coloring(alpha, r, n)
    scan = longest_mono_diffseq(coloring, view)
    passed = window_cert.passed and scan.length < bound
    return Certificate(
        claim="accessibility-upper-evidence",
        params={
            "alpha": Q5.coerce(alpha).to_json(),
            "eps": rational_str(eps),
            "r": r,
            "chain_length_bound": bound,
            "scan_length": scan.length,
        },
        verified_range=(
            f"window over {len(view)} enumerated gaps up to {view.bound}; "
            f"chain scan over positions 1..{n}"
        ),
        passed=passed,
        witnesses={"scan": scan.to_json()},
        notes=(
            "finite-range evidence that no monochromatic chain reaches the "
            "bound under this coloring; not a statement over all integers"
        ),
        components=[window_cert],
    )


def widened_view(spec: GapSetSpec, start: int, steps: int, bound: int) -> GapSetView:
    """The view of spec at the first of bound, 16*bound, 256*bound, ... that
    holds the elements with 0-based indices start .. start + steps - 1."""
    if start < 0:
        raise ValueError(f"--start must be >= 0 (got {start})")
    need = start + steps
    view = spec.enumerate(bound)
    while len(view) < need:
        bound *= 16
        if bound > _MAX_BOUND:
            raise ValueError(
                f"set has only {len(view)} elements up to {view.bound:.3g}; need {need}"
            )
        view = spec.enumerate(bound)
    return view


def pipeline(
    spec: GapSetSpec, r: int, delta, start: int, steps: int, n: int
) -> tuple[Certificate, AlphaCertificate, Certificate]:
    """The growth, alpha and evidence certificates of the paper's chain over
    the elements start .. start + steps - 1 of ``widened_view(spec, start,
    steps, n)``, with its chain scan on [1..n]; a growth miss raises ValueError."""
    factor = growth_factor(r, delta)
    if steps < 2:
        raise ValueError("pipeline needs --steps >= 2 to check gap growth")
    check_length(n, "-N")  # both refused before the set is enumerated at n
    check_colors(r)
    view = widened_view(spec, start, steps, n)
    cert = build_alpha(view.elements, r, delta, steps, start)
    # it passes, since build_alpha returned
    growth = growth_certificate(view.restrict(cert.q[-1]), factor, start=start)
    # the window covers the constructed elements and the gaps the scan can use,
    # not whatever lies beyond them in the widened view
    evidence = doa_evidence(view.restrict(max(n, cert.q[-1])), cert.alpha, cert.eps1, r, n)
    return growth, cert, evidence

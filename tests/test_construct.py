"""Nested-interval constructor: worked trace, invariants, window certificates."""

from fractions import Fraction as F

import pytest

from diffseq.construct import (
    GrowthConditionError,
    build_alpha,
    certify_fracs,
    diffseq_bound_from_eps,
    doa_evidence,
    epsilon_of,
    growth_factor,
)
from diffseq.exactnum import Q5
from diffseq.gapsets import GapSetSpec, GapSetView


def test_epsilon_formula():
    assert epsilon_of(2, F(1, 2)) == F(1, 14)
    assert epsilon_of(2, 1) == F(1, 8)
    assert epsilon_of(3, 1) == F(4, 21)
    assert growth_factor(2, 1) == 4
    assert growth_factor(3, 1) == F(7, 2)


def _independent_retrace(q, r, delta):
    """Recompute the recursion with the smallest-z rule chosen by linear scan,
    checking the left-subinterval membership and nesting directly."""
    eps = epsilon_of(r, delta)
    z = [0]
    lo, hi = eps / q[0], F(r - 1, r * q[0])
    trace = [(lo, hi)]
    for k in range(1, len(q)):
        left_lo = (z[-1] + eps) / q[k - 1]
        zn = 0
        while F(zn, q[k]) < left_lo:
            zn += 1
        assert F(zn, q[k]) <= left_lo + F(1, q[k])  # lands in the left subinterval
        nlo, nhi = (zn + eps) / q[k], F(r * zn + (r - 1), r * q[k])
        assert lo <= nlo and nhi <= hi
        z.append(zn)
        lo, hi = nlo, nhi
        trace.append((lo, hi))
    return eps, z, trace


def test_worked_trace_powers_of_four():
    q = [1, 4, 16, 64]
    eps, z, trace = _independent_retrace(q, 2, F(1))
    assert eps == F(1, 8)
    assert z == [0, 1, 5, 21]
    assert trace[-1] == (F(169, 512), F(43, 128))

    cert = build_alpha(q, 2, 1)
    assert cert.z == z
    assert cert.enclosure.lo == F(169, 512) and cert.enclosure.hi == F(43, 128)
    assert cert.alpha == F(341, 1024)
    assert [ (iv.lo, iv.hi) for iv in cert.intervals ] == trace
    fracs = [cert.alpha * qq % 1 for qq in q]
    assert fracs == [F(341, 1024), F(85, 256), F(21, 64), F(5, 16)]
    assert all(F(1, 8) <= fv <= F(1, 2) for fv in fracs)
    assert all(v["in_window"] for v in cert.verdicts)


def test_single_step_base_case():
    cert = build_alpha([1, 4], 2, 1, steps=1)
    assert (cert.enclosure.lo, cert.enclosure.hi) == (F(1, 8), F(1, 2))
    assert cert.alpha == F(5, 16)
    assert cert.verdicts[0]["in_window"]


def test_growth_violation_names_index():
    with pytest.raises(GrowthConditionError) as err:
        build_alpha([1, 2], 2, 1)
    assert err.value.index == 0
    assert err.value.pair == (1, 2)
    with pytest.raises(GrowthConditionError) as err:
        build_alpha([1, 4, 17, 60], 2, 1)  # 60 < 4*17
    assert err.value.index == 2


def test_interval_width_and_nesting_invariants():
    for r, delta, base, steps in [(2, F(1), 4, 10), (3, F(1), 8, 8), (2, F(3, 2), 5, 9)]:
        q = [base**i for i in range(steps)]
        cert = build_alpha(q, r, delta)
        eps = cert.eps
        for k, interval in enumerate(cert.intervals):
            assert interval.hi - interval.lo == ((r - 1) - r * eps) / (r * q[k])
            if k:
                assert cert.intervals[k - 1].contains_interval(interval)
        assert cert.enclosure.lo <= cert.alpha <= cert.enclosure.hi
        # a constructed alpha certifies its own q prefix
        view = GapSetView(tuple(q), q[-1])
        assert certify_fracs(cert.alpha, view, eps, r).passed


def test_certify_fracs_examples():
    view = GapSetView((1, 4, 16, 64), 64)
    assert certify_fracs(F(341, 1024), view, F(1, 8), 2).passed

    bad = certify_fracs(F(1, 2), GapSetView((2,), 2), F(1, 4), 2)
    assert not bad.passed
    assert bad.counterexample["d"] == 2
    assert bad.counterexample["frac"] == {"a": "0/1", "b": "0/1"}

    one_plus_phi_over_4 = Q5(F(3, 8), F(1, 8))
    even = GapSetSpec.even_fibonacci().enumerate(10**40)
    cert = certify_fracs(one_plus_phi_over_4, even, F(21, 100), 2)
    assert cert.passed


def test_failing_certify_fracs_keeps_its_json():
    # counterexamples pinned from the Q5 loop this certificate replaced
    golden = certify_fracs(Q5(F(-1, 2), F(1, 2)), GapSetSpec.fibonacci().enumerate(10**6), F(1, 8), 2)
    assert golden.to_json() == {
        "claim": "fractional-parts-in-window",
        "params": {"alpha": {"a": "-1/2", "b": "1/2"}, "eps": "1/8", "r": 2, "window": ["1/8", "1/2"]},
        "verified_range": "all 29 enumerated elements up to 1000000",
        "passed": False,
        "counterexample": {"d": 1, "frac": {"a": "-1/2", "b": "1/2"}},
    }
    # the window is closed: 1/8 and 1/2 (d = 1, 4) pass, 5/8 (d = 5) fails
    ends = certify_fracs(F(1, 8), GapSetView((1, 4, 5), 5), F(1, 8), 2)
    assert ends.to_json() == {
        "claim": "fractional-parts-in-window",
        "params": {"alpha": {"a": "1/8", "b": "0/1"}, "eps": "1/8", "r": 2, "window": ["1/8", "1/2"]},
        "verified_range": "all 3 enumerated elements up to 5",
        "passed": False,
        "counterexample": {"d": 5, "frac": {"a": "5/8", "b": "0/1"}},
    }


def test_certify_fracs_validation():
    view = GapSetView((1,), 1)
    with pytest.raises(ValueError):
        certify_fracs(F(1, 3), view, F(0), 2)
    with pytest.raises(ValueError):
        certify_fracs(F(1, 3), view, F(3, 4), 2)  # above (r-1)/r


def test_empty_view_is_refused():
    # a window certificate over no element would pass with nothing checked
    empty = GapSetSpec.explicit([]).enumerate(10)
    with pytest.raises(ValueError, match="empty view"):
        certify_fracs(F(1, 3), empty, F(1, 8), 2)
    with pytest.raises(ValueError, match="empty view"):
        doa_evidence(empty, F(1, 3), F(1, 8), 2, 10)


def test_diffseq_bound_examples():
    assert diffseq_bound_from_eps(2, F(21, 100)) == 4
    assert diffseq_bound_from_eps(2, F(1, 10)) == 6
    assert diffseq_bound_from_eps(2, F(1, 2)) == 2
    assert diffseq_bound_from_eps(2, F(1, 8)) == 5
    assert diffseq_bound_from_eps(3, F(4, 21)) == 3


def test_tail_rescaling_certifies_full_prefix():
    # build from the tail q_n = d_{n+start} and certify everything below it
    spec = GapSetSpec.geometric(4)
    elements = spec.enumerate(4**9).elements
    start = 3
    q = elements[start:]
    cert = build_alpha(q, 2, 1, first_gap=elements[0])
    assert cert.eps1 == cert.eps * elements[0] / elements[start]
    full_view = GapSetView(elements, 4**9)
    assert certify_fracs(cert.alpha, full_view, cert.eps1, 2).passed


def test_r3_construction_certifies():
    q = [8**i for i in range(8)]
    cert = build_alpha(q, 3, 1)
    assert cert.eps == F(4, 21)
    assert certify_fracs(cert.alpha, GapSetView(tuple(q), q[-1]), cert.eps, 3).passed
    assert diffseq_bound_from_eps(3, cert.eps) == 3

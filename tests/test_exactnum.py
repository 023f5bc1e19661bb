"""Exact field arithmetic: identities, the integer kernel, the window routine
and the fractional parts it reports, and the sign oracle."""

import decimal
import math
import random
from fractions import Fraction as F

import pytest

from diffseq.construct import certify_fracs
from diffseq.exactnum import (
    PHI,
    PHI_CONJ,
    SQRT5,
    Q5,
    RatInterval,
    first_outside,
    floor5,
    floor_sqrt5,
    integer_triples,
    rational_str,
    sign5,
    to_rational,
)
from diffseq.gapsets import GapSetView, fib_values
from diffseq.verify import DIST_NEAREST, FRAC_WINDOW, frac_bound_scan


def test_golden_ratio_identities():
    assert PHI + PHI_CONJ == 1
    assert PHI * PHI_CONJ == -1
    assert Q5(1) + PHI == Q5(F(3, 2), F(1, 2))


def test_sign_examples():
    assert Q5(1, F(-1, 2)).sign() == -1  # sqrt5 > 2
    assert Q5(F(9, 4), -1).sign() == 1  # 81/16 > 5
    assert Q5(0, 0).sign() == 0
    assert Q5(F(-3, 7)).sign() == -1


def test_floor_examples():
    assert floor5(0, 1, 1) == 2  # sqrt5
    assert floor5(0, -1, 1) == -3
    assert floor5(21, 0, 64) == 0
    assert floor5(*(PHI * 100).as_integer_triple()) == 161


def _tested_frac(x):
    # the open window (0, 0) holds nothing, so the routine reports {x * 1}
    return first_outside(x, [1], 0, 0, closed=False)[1]


def test_frac_examples():
    assert _tested_frac(Q5(0, F(1, 8))) == Q5(0, F(1, 8))  # sqrt5/8 is already in [0, 1)
    # 2 * (1 + phi) = 3 + sqrt5 ; floor 5 ; frac = sqrt5 - 2
    assert _tested_frac(Q5(2) * (Q5(1) + PHI)) == Q5(-2, 1)
    assert _tested_frac(F(-7, 3)) == Q5(F(2, 3))
    assert F(7, 3) % 1 == F(1, 3)
    assert F(-7, 3) % 1 == F(2, 3)


def _q5(obj: dict) -> Q5:
    return Q5(to_rational(obj["a"]), to_rational(obj["b"]))


def _scan_dist(x):
    # the open window (1/2, 1/2) holds nothing, so the scan reports the distance of x * 1
    return _q5(frac_bound_scan(x, [1], DIST_NEAREST, bound=F(1, 2)).counterexample["dist"])


def _ref_frac(x: Q5) -> Q5:
    return x - _ref_floor(*x.as_integer_triple())


def _ref_dist(x: Q5) -> Q5:
    # the distance to the nearest integer, min({x}, 1 - {x}), on the reference floor
    f = _ref_frac(x)
    g = 1 - f
    return f if (f - g).sign() <= 0 else g


def test_dist_nearest_examples():
    x = SQRT5 * F(3, 8)
    d = _scan_dist(x)
    assert d == Q5(1, F(-3, 8)) == _ref_dist(x)  # 1 - 3*sqrt5/8
    assert (d - F(16, 100)).sign() > 0  # the tight margin: 0.16147... vs 0.16
    assert frac_bound_scan(x, [1], DIST_NEAREST, bound=F(16, 100)).passed
    assert not frac_bound_scan(x, [1], DIST_NEAREST, bound=F(17, 100)).passed
    assert _scan_dist(F(1, 2)) == F(1, 2)
    assert _scan_dist(F(5, 1)) == 0


def _random_q5(rng, span=50):
    return Q5(
        F(rng.randint(-span, span), rng.randint(1, span)),
        F(rng.randint(-span, span), rng.randint(1, span)),
    )


def test_field_axioms_random():
    rng = random.Random(7)
    for _ in range(300):
        x, y, z = (_random_q5(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x - y) + y == x and x - x == 0


def test_floor_and_frac_contract_random():
    rng = random.Random(13)
    for _ in range(400):
        x = _random_q5(rng, span=10**6)
        P, U, L = x.as_integer_triple()
        n = floor5(P, U, L)
        assert sign5(P - n * L, U) >= 0 > sign5(P - (n + 1) * L, U)
        assert x - _tested_frac(x) == Q5(n)  # the integer part is exact


def test_dist_nearest_properties_random():
    rng = random.Random(17)
    for _ in range(300):
        x = _random_q5(rng)
        d = _scan_dist(x)
        assert d == _scan_dist(-x) == _ref_dist(x)
        assert d.sign() >= 0 and (d - F(1, 2)).sign() <= 0


# 100-digit interval brackets of sqrt5; the oracle never enters the decision path
_S = math.isqrt(5 * 10**200)
_SQRT5_LO = F(_S, 10**100)
_SQRT5_HI = F(_S + 1, 10**100)


def _interval_sign(x: Q5):
    lo = x.a + x.b * (_SQRT5_LO if x.b >= 0 else _SQRT5_HI)
    hi = x.a + x.b * (_SQRT5_HI if x.b >= 0 else _SQRT5_LO)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return None  # interval straddles zero: oracle undecided


def test_sign_matches_highprecision_interval_oracle():
    rng = random.Random(23)
    decided = 0
    for _ in range(10_000):
        x = _random_q5(rng, span=1000)
        expected = 0 if (x.a == 0 and x.b == 0) else _interval_sign(x)
        if expected is None:
            continue
        decided += 1
        assert x.sign() == expected
    assert decided > 9_900  # the bracket is tight enough to decide essentially all


def test_rational_parsing_and_serialization():
    assert to_rational("21/100") == F(21, 100)
    assert to_rational("-3") == -3
    assert rational_str(F(5)) == "5/1"
    with pytest.raises(ValueError):
        to_rational("0.21")
    # only the schema's -?[0-9]+(/[0-9]+)? in full, though Fraction reads these
    for text in ("1_0", "1/2_0", "\u0663", "+1", " 1/2 ", "1/2\n", "1/-2", ""):
        with pytest.raises(ValueError):
            to_rational(text)
    assert to_rational("-0/7") == 0
    assert Q5(F(3, 8), F(-1, 8)).to_json() == {"a": "3/8", "b": "-1/8"}
    with pytest.raises(TypeError):
        to_rational(True)  # a JSON boolean is not the integer 1
    assert Q5(1) != True  # noqa: E712 -- and compares unequal instead of raising


def test_immutability_and_hash():
    x = Q5(1, 2)
    with pytest.raises(AttributeError):
        x.a = F(2)
    assert len({Q5(1, 2), Q5(1, 2), Q5(2, 1)}) == 2
    box = RatInterval(F(1, 8), F(1, 2))
    with pytest.raises(AttributeError):
        box.lo = F(0)
    assert len({box, RatInterval("1/8", "1/2"), RatInterval(0, 1)}) == 2


def test_rat_interval():
    box = RatInterval(F(1, 8), F(1, 2))
    assert box.hi - box.lo == F(3, 8)
    assert box.midpoint() == F(5, 16)
    assert box.contains_interval(RatInterval(F(9, 32), F(3, 8)))
    assert RatInterval("1/8", 1) == RatInterval(F(1, 8), F(1))  # endpoints are coerced
    assert box != (F(1, 8), F(1, 2))
    with pytest.raises(ValueError):
        RatInterval(F(1, 2), F(1, 8))


# -- the integer kernel against a Fraction reference ---------------------------------


def _ref_sign(a: F, b: F) -> int:
    # sign of a + b*sqrt5 by Fraction comparisons alone
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    return (1 if a > 0 else -1) * (1 if a * a > 5 * b * b else -1)


def _ref_floor(P: int, U: int, L: int) -> int:
    # a decimal estimate with enough digits, confirmed by two reference sign
    # tests of x - m = (P - m*L)/L + (U/L)*sqrt5. x may lie as close to an
    # integer as 1/|U| (U = F_n near the multiple L_n of sqrt5), so the digits
    # cover the integer part and as many again
    with decimal.localcontext() as ctx:
        ctx.prec = 2 * max(abs(P), abs(U), L).bit_length() // 3 + 40
        m = int(((P + U * decimal.Decimal(5).sqrt()) / L).to_integral_value(decimal.ROUND_FLOOR))
    assert _ref_sign(F(P - m * L, L), F(U, L)) >= 0 > _ref_sign(F(P - (m + 1) * L, L), F(U, L))
    return m


def _kernel_triples(rng):
    fib = fib_values(2000)
    for _ in range(200):
        yield rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6), rng.randint(1, 10**4)
    for _ in range(60):
        yield rng.randint(-10**9, 10**9), 0, rng.randint(1, 10**6)
    for _ in range(60):
        yield 0, rng.randint(-10**9, 10**9), rng.randint(1, 10**6)
    for _ in range(120):
        # Fibonacci-sized multipliers: F_k * (p + u*sqrt5) sits within about
        # 1/F_k of an integer when p/u approximates -sqrt5, the hard case
        k = rng.randint(1450, 2000)
        m = fib[k] * rng.choice([1, -1, 3, -7])
        p, u = rng.choice(
            [(-5, 2), (5, -2), (1, 1), (-3, 1), (3, -1), (rng.randint(-50, 50), rng.randint(-50, 50))]
        )
        yield m * p + rng.randint(-3, 3), m * u, rng.randint(1, 64)


def test_kernel_matches_fraction_reference():
    rng = random.Random(31)
    big = 0
    for P, U, L in _kernel_triples(rng):
        n = floor5(P, U, L)
        assert n == _ref_floor(P, U, L), (P, U, L)
        assert sign5(P, U) == _ref_sign(F(P), F(U))
        assert sign5(P - n * L, U) >= 0 > sign5(P - (n + 1) * L, U)
        big += max(abs(P), abs(U)).bit_length() > 1000
    assert big >= 100  # the Fibonacci-sized cases really are that large


def test_kernel_edge_cases():
    assert sign5(0, 0) == 0
    assert (sign5(5, 0), sign5(-5, 0), sign5(0, 3), sign5(0, -3)) == (1, -1, 1, -1)
    assert sign5(9, -4) == 1 and sign5(-9, 4) == -1  # 81 > 80
    assert sign5(4, -2) == -1 and sign5(-4, 2) == 1  # 16 < 20
    assert floor5(7, 0, 2) == 3 and floor5(-7, 0, 2) == -4
    assert floor5(0, 1, 1) == 2 and floor5(0, -1, 1) == -3
    assert floor5(-1, 1, 2) == 0  # (sqrt5 - 1)/2 = 0.618...
    assert floor5(0, 8, 1) == 17 and floor5(0, -8, 1) == -18  # 8*sqrt5 = 17.88...
    assert (floor_sqrt5(0), floor_sqrt5(1), floor_sqrt5(-1), floor_sqrt5(-8)) == (0, 2, -3, -18)


def test_integer_triples_share_one_denominator():
    L, pairs = integer_triples(Q5(F(1, 6), F(-3, 4)), F(2, 9), 5)
    assert L == 36
    assert pairs == [(6, -27), (8, 0), (180, 0)]
    assert Q5(F(1, 6), F(-3, 4)).as_integer_triple() == (2, -9, 12)


def _ref_outside(f: Q5, lo: F, hi: F) -> tuple[bool, bool]:
    """Whether f lies outside [lo, hi], and whether it lies outside (lo, hi)."""
    below, above = _ref_sign(f.a - lo, f.b), _ref_sign(f.a - hi, f.b)
    return below < 0 or above > 0, below <= 0 or above >= 0


def _ref_first_outside(alpha, seq, lo: F, hi: F, closed: bool):
    # the Q5 loop the window routine replaced, on the reference floor and sign
    for s in seq:
        f = _ref_frac(Q5.coerce(alpha) * s)
        if _ref_outside(f, lo, hi)[not closed]:
            return s, f
    return None


def test_first_outside_matches_q5_loop_and_endpoints():
    rng = random.Random(37)
    for _ in range(150):
        alpha = _random_q5(rng) if rng.random() < 0.7 else Q5(F(rng.randint(-20, 20), rng.randint(1, 12)))
        lo = F(rng.randint(0, 12), 12)
        hi = lo + F(rng.randint(0, 12), 12)
        seq = [rng.randint(1, 10**6) for _ in range(30)]
        for closed in (True, False):
            expected = _ref_first_outside(alpha, seq, lo, hi, closed)
            assert first_outside(alpha, seq, lo, hi, closed) == expected
    # exact hits on both endpoints: 1/8 * (1, 4) is 1/8 and 1/2
    assert first_outside(F(1, 8), [1, 4, 3], F(1, 8), F(1, 2), closed=True) is None
    assert first_outside(F(1, 8), [3, 1], F(1, 8), F(1, 2), closed=False) == (1, Q5(F(1, 8)))
    assert first_outside(F(1, 8), [3, 4], F(1, 8), F(1, 2), closed=False) == (4, Q5(F(1, 2)))


def test_first_outside_matches_q5_loop_on_fibonacci_terms():
    # F_1..F_2000 reach some 1,400 bits, and {alpha F_n} nears its limits
    # within about 1/F_n; one call per term decides each of them
    fib = fib_values(2000)[1:]
    windows = [(F(1, 10), F(9, 10)), (F(1, 4), F(1, 2)), (F(1, 6), F(5, 6))]
    for alpha in (Q5(0, F(1, 8)), Q5(F(3, 8), F(1, 8)), Q5(F(-1, 3), F(-2, 7))):
        inside = 0
        for s in fib:
            f = _ref_frac(alpha * s)
            for lo, hi in windows:
                for closed, outside in zip((True, False), _ref_outside(f, lo, hi)):
                    expected = (s, f) if outside else None
                    assert first_outside(alpha, [s], lo, hi, closed) == expected, (alpha, s, lo, hi)
                    inside += expected is None
        assert 0 < inside < 2 * len(windows) * len(fib)


def test_first_outside_on_rational_alpha_hits_both_ends():
    # {3s/10} is 3/10 at s = 1 and 11 and 9/10 at s = 3 and 13: exact hits on
    # each end, inside the closed window and outside the open one
    for alpha, lo, hi in ((F(3, 10), F(3, 10), F(9, 10)), (F(-7, 10), F(3, 10), F(9, 10))):
        for s in range(1, 41):
            for closed in (True, False):
                got = first_outside(alpha, [s], lo, hi, closed)
                assert got == _ref_first_outside(alpha, [s], lo, hi, closed), (alpha, s, closed)
        assert first_outside(alpha, [1, 3, 11, 13], lo, hi, closed=True) is None
        assert first_outside(alpha, [3, 1], lo, hi, closed=False) == (3, Q5(F(9, 10)))
        assert first_outside(alpha, [2, 11], lo, hi, closed=False) == (11, Q5(F(3, 10)))


def test_first_outside_refuses_an_irrational_window_end():
    with pytest.raises(TypeError, match="not an exact rational"):
        first_outside(F(1, 8), [1], Q5(0, F(1, 8)), F(1, 2), closed=True)
    with pytest.raises(TypeError, match="not an exact rational"):
        first_outside(F(1, 8), [1], 0, PHI - 1, closed=False)


def test_counterexamples_carry_the_tested_frac():
    # every failing window certificate reports a fractional part f of alpha*s
    # (or, for the distance bound, min(f, 1 - f)) that lies outside its window
    rng = random.Random(41)
    failures = [0, 0, 0]  # per certificate kind, so none is skipped
    for _ in range(300):
        alpha = _random_q5(rng, span=10**3)
        seq = sorted({rng.randint(1, 10**6) for _ in range(8)})
        r = rng.randint(2, 4)
        eps = F(rng.randint(1, 12 * (r - 1)), 12 * r)
        lo = F(rng.randint(0, 11), 12)
        hi = lo + F(rng.randint(1, 12 - 12 * lo.numerator // lo.denominator), 12)
        bound = F(rng.randint(0, 6), 12)
        cases = [
            ("d", "frac", certify_fracs(alpha, GapSetView(tuple(seq), seq[-1]), eps, r), True, eps, F(r - 1, r)),
            ("element", "frac", frac_bound_scan(alpha, seq, FRAC_WINDOW, window=(lo, hi)), False, lo, hi),
            ("element", "dist", frac_bound_scan(alpha, seq, DIST_NEAREST, bound=bound), False, bound, 1 - bound),
        ]
        for i, (at, key, cert, closed, wlo, whi) in enumerate(cases):
            if cert.passed:
                continue
            failures[i] += 1
            s, value = cert.counterexample[at], _q5(cert.counterexample[key])
            f = _ref_frac(alpha * s)
            if key == "dist":
                assert value == _ref_dist(alpha * s)  # min(f, 1 - f)
                assert (value - bound).sign() <= 0  # the distance is not above the bound
                continue
            whole = alpha * s - value
            assert whole.b == 0 and whole.a.denominator == 1
            assert value.sign() >= 0 and (value - 1).sign() < 0
            below, above = (value - wlo).sign(), (value - whi).sign()
            assert (below < 0 or above > 0) if closed else (below <= 0 or above >= 0)
            assert value == f
    assert min(failures) > 150, failures

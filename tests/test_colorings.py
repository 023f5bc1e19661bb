"""Coloring generators and the subword complexity counter."""

import decimal
import random
from fractions import Fraction as F

import pytest

from diffseq import colorings
from diffseq.colorings import (
    Coloring,
    block_coloring,
    complexity,
    frac_coloring,
    preset_coloring,
    residue_coloring,
    rotation_word,
)
from diffseq.exactnum import PHI, Q5, floor5


def test_frac_coloring_examples():
    sqrt5_over_8 = Q5(0, F(1, 8))
    assert frac_coloring(sqrt5_over_8, 2, 1).colors[0] == 1  # frac 0.2795 < 1/2
    assert list(frac_coloring(F(1, 3), 3, 6).colors) == [2, 3, 1, 2, 3, 1]
    assert list(frac_coloring(0, 2, 5).colors) == [1, 1, 1, 1, 1]
    # r names the color bytes, 1..255
    for r in (1, 256):
        with pytest.raises(ValueError, match=rf"^r must be in 2\.\.255.*\(got {r}\)$"):
            frac_coloring(F(1, 3), r, 5)


def test_frac_coloring_boundary_goes_up():
    # frac(1/2 * 1) = 1/2 sits on the class cut and belongs to the upper class
    assert list(frac_coloring(F(1, 2), 2, 4).colors) == [2, 1, 2, 1]
    assert list(frac_coloring(F(1, 4), 4, 4).colors) == [2, 3, 4, 1]


def test_frac_coloring_agrees_between_paths():
    # a rational alpha colors the same given as a Fraction or as a Q5
    alpha = F(7, 19)
    as_q5 = Q5(F(7, 19), 0)
    assert frac_coloring(alpha, 3, 200).colors == frac_coloring(as_q5, 3, 200).colors


def test_block_coloring_examples():
    assert list(block_coloring(2, 8).colors) == [1, 1, 2, 2, 1, 1, 2, 2]
    assert list(block_coloring(1, 4).colors) == [1, 2, 1, 2]
    assert list(block_coloring(3, 6).colors) == [1, 1, 1, 2, 2, 2]
    # one period repeated and cut, against the per-position rule; a block
    # wider than the word included
    for m in (1, 3, 7, 100, 10**9):
        for n in (1, 5, 5000, 77777):
            assert block_coloring(m, n).colors == bytes(
                1 if 1 <= x % (2 * m) <= m else 2 for x in range(1, n + 1)
            ), (m, n)


def test_residue_coloring_examples():
    assert list(residue_coloring(3, 6).colors) == [2, 3, 1, 2, 3, 1]
    assert list(residue_coloring(2, 4).colors) == [2, 1, 2, 1]
    assert list(residue_coloring(5, 5).colors) == [2, 3, 4, 5, 1]
    # one period repeated and cut, against the per-position rule, up to the
    # largest modulus a byte holds
    for m in (2, 3, 7, 100, 255):
        for n in (1, 5, 5000, 77777):
            assert residue_coloring(m, n).colors == bytes(
                x % m + 1 for x in range(1, n + 1)
            ), (m, n)
    for m in (1, 256):
        with pytest.raises(ValueError):
            residue_coloring(m, 5)


def test_rotation_word_examples():
    assert list(rotation_word(F(1, 2), 0, F(1, 2), 4).colors) == [2, 1, 2, 1]
    assert list(rotation_word(0, F(1, 4), F(1, 2), 3).colors) == [1, 1, 1]


GOLDEN_ANGLE = PHI - 1  # (sqrt5 - 1) / 2


def test_golden_rotation_word_prefix():
    # coding of n*(phi-1) with the cut aligned to the angle (Sturmian)
    word = rotation_word(GOLDEN_ANGLE, 0, GOLDEN_ANGLE, 20)
    assert list(word.colors) == [2, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1]


def test_golden_rotation_is_sturmian_on_prefix():
    word = rotation_word(GOLDEN_ANGLE, 0, GOLDEN_ANGLE, 10_000)
    for n in range(1, 9):
        assert complexity(word, n) == n + 1


def test_complexity_examples():
    alternating = Coloring(2, bytes([1, 2] * 10))
    assert complexity(alternating, 2) == 2  # {12, 21}
    assert complexity(Coloring(1, bytes([1] * 10)), 5) == 1
    with pytest.raises(ValueError):
        complexity(alternating, 0)


def test_complexity_refuses_factor_bytes_above_the_cap(monkeypatch):
    # n * (N - n + 1) bytes of factors are sliced; the cap is reached, not passed
    monkeypatch.setattr(colorings, "MAX_FACTOR_BYTES", 12)
    word = Coloring(2, bytes([1, 2] * 3 + [1]))  # N = 7
    assert complexity(word, 2) == 2  # 2 * 6 = 12 bytes
    assert complexity(word, 6) == 2  # 6 * 2 = 12 bytes
    for n in (3, 4, 5):  # 15, 16 and 15 bytes
        with pytest.raises(ValueError) as info:
            complexity(word, n)
        assert str(info.value) == f"factor length {n} slices {n * (8 - n)} bytes, above the cap 12"


def test_periodic_word_has_low_complexity_somewhere():
    # eventual periodicity shows up as p(n) <= n for some n
    word = frac_coloring(F(3, 7), 2, 500)
    assert any(complexity(word, n) <= n for n in range(1, 15))


def test_rational_rotation_periodicity():
    for p, q in [(1, 3), (2, 5), (5, 8)]:
        word = frac_coloring(F(p, q), 2, 6 * q).colors
        assert word[q:] == word[:-q]  # period divides the denominator


def test_prefix_determinism():
    alpha = Q5(F(3, 8), F(1, 8))
    short = frac_coloring(alpha, 2, 50).colors
    long = frac_coloring(alpha, 2, 300).colors
    assert long[:50] == short


def test_presets():
    direct = frac_coloring(Q5(0, F(1, 8)), 2, 64)
    assert preset_coloring("sqrt5over8", 64).colors == direct.colors
    assert preset_coloring("oneplusphiover4", 16).colors == frac_coloring(
        Q5(F(3, 8), F(1, 8)), 2, 16
    ).colors
    assert preset_coloring("goldenrotation", 20).colors == rotation_word(
        GOLDEN_ANGLE, 0, GOLDEN_ANGLE, 20
    ).colors
    with pytest.raises(ValueError):
        preset_coloring("nope", 10)


def test_exports_round_trip():
    word = block_coloring(3, 50)
    again = Coloring.from_json(word.to_json())
    assert again.colors == word.colors and again.r == word.r
    assert word.to_text() == "".join(str(c) for c in word.colors)


def test_length_cap_and_validation():
    with pytest.raises(ValueError):
        block_coloring(2, 10_000_001)
    with pytest.raises(ValueError):
        frac_coloring(F(1, 3), 2, 0)
    with pytest.raises(ValueError):
        Coloring(2, bytes([1, 3]))


# -- the integer-kernel generators against an independent reference -----------------


SQRT5_OVER_8 = Q5(0, F(1, 8))


def _nonneg(t: F, b: F) -> bool:
    # t + b*sqrt5 >= 0 for b != 0, by comparing squares
    if b > 0:
        return t >= 0 or t * t < 5 * b * b
    return t > 0 and t * t > 5 * b * b


def _ge0(value: Q5) -> bool:
    return value.a >= 0 if value.b == 0 else _nonneg(value.a, value.b)


def _ref_floor(value: Q5) -> int:
    # a decimal estimate confirmed by Fraction comparisons (no diffseq floor)
    a, b = value.a, value.b
    if b == 0:
        return a.numerator // a.denominator
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        est = decimal.Decimal(a.numerator) / a.denominator
        est += decimal.Decimal(b.numerator) / b.denominator * decimal.Decimal(5).sqrt()
        m = int(est.to_integral_value(decimal.ROUND_FLOOR))
    assert _nonneg(a - m, b) and not _nonneg(a - m - 1, b)
    return m


def _ref_rotation(alpha, x0, windows, n):
    alpha, x0 = Q5.coerce(alpha), Q5.coerce(x0)
    word = []
    for pos in range(1, n + 1):
        x = x0 + alpha * pos
        f = x - _ref_floor(x)
        word.append(1 if any(_ge0(f - lo) and not _ge0(f - hi) for lo, hi in windows) else 2)
    return word


def test_rotation_word_exact_hits_on_the_cut():
    # rational alpha lands on the cut 1/3 at n = 1, 4, ... and on 0 at n = 3, 6, ...
    word = rotation_word(F(1, 3), 0, F(1, 3), 9)
    assert list(word.colors) == [2, 2, 1] * 3
    assert list(word.colors) == _ref_rotation(F(1, 3), 0, [(0, F(1, 3))], 9)
    # the golden word hits its irrational cut exactly at n = 1: {alpha} = alpha
    golden = rotation_word(GOLDEN_ANGLE, 0, GOLDEN_ANGLE, 500)
    assert golden.colors[0] == 2
    assert list(golden.colors) == _ref_rotation(GOLDEN_ANGLE, 0, [(0, GOLDEN_ANGLE)], 500)


def test_rotation_word_endpoint_hits():
    # {n/4} runs 1/4, 1/2, 3/4, 0: the cut 1/2 (an upper end) and 3/4 fall
    # outside [0, 1/2), the lower end 0 inside
    assert list(rotation_word(F(1, 4), 0, F(1, 2), 8).colors) == [1, 2, 2, 1] * 2
    # irrational cut with the start point placed so that {x0 + alpha} is
    # exactly the cut, then exactly 0
    for start, first in ((GOLDEN_ANGLE - SQRT5_OVER_8, 2), (-SQRT5_OVER_8, 1)):
        word = rotation_word(SQRT5_OVER_8, start, GOLDEN_ANGLE, 300)
        assert word.colors[0] == first
        assert list(word.colors) == _ref_rotation(SQRT5_OVER_8, start, [(0, GOLDEN_ANGLE)], 300)


def test_rotation_word_matches_reference_random():
    rng = random.Random(41)
    for _ in range(40):
        alpha = Q5(
            F(rng.randint(-30, 30), rng.randint(1, 12)), F(rng.randint(-9, 9), rng.randint(1, 12))
        )
        x0 = Q5(F(rng.randint(-9, 9), rng.randint(1, 8)), F(rng.randint(-3, 3), rng.randint(1, 8)))
        cut = Q5(F(rng.randint(1, 11), 12), F(rng.randint(-3, 3), rng.randint(1, 8)))
        cut -= _ref_floor(cut)  # never 0: k/12 is no integer and sqrt5 is irrational
        word = rotation_word(alpha, x0, cut, 120)
        assert list(word.colors) == _ref_rotation(alpha, x0, [(0, cut)], 120)


def test_frac_coloring_matches_reference_near_cuts():
    # (sqrt5 - 1)/2 * F_k is within 1/F_k of an integer, so r*alpha*x at
    # Fibonacci x sits just beside a class cut
    golden = GOLDEN_ANGLE
    fib = [1, 2]
    while fib[-1] < 3000:
        fib.append(fib[-1] + fib[-2])
    for alpha in (golden, -golden, SQRT5_OVER_8, Q5(F(3, 8), F(1, 8)), Q5(F(-7, 3), F(5, 6))):
        for r in (2, 3, 5):
            word = frac_coloring(alpha, r, 3000)
            for x in list(range(1, 200)) + fib[:-1]:
                y = alpha * x
                assert word.colors[x - 1] == _ref_floor(y * r) - r * _ref_floor(y) + 1, (alpha, r, x)
    # a rational alpha given as Q5 lands exactly on the cuts 1/4, 1/2, 3/4
    assert list(frac_coloring(Q5(F(1, 4)), 4, 4).colors) == [2, 3, 4, 1]


def test_from_json_rejects_malformed_rle():
    for bad in (
        {"r": 2, "n": 1, "rle": [["a", 1]]},
        {"r": 2, "n": 1, "rle": 5},
        {"r": 2, "n": 1, "rle": [[1]]},
        {"r": 2, "n": 1, "rle": [[1, 1.0]]},
        {"r": 2, "n": 1, "rle": [[1, True]]},
        {"r": 2, "n": 1, "rle": [[0, 1]]},
        {"r": 2, "n": 2, "rle": [[1, -1], [1, 3]]},
        {"r": 2, "n": 1, "rle": [[1, 10**12]]},
        {"r": "2", "n": 1, "rle": [[1, 1]]},
        {"r": 2, "n": -1, "rle": []},
        {"r": 2, "n": 1, "rle": [[1, 1]], "provenance": 5},
    ):
        with pytest.raises(ValueError):
            Coloring.from_json(bad)


# -- the word construction against the per-position floor5 loop ---------------------


def _ref_frac(alpha, r, n):
    # class floor(r*{alpha*x}) + 1 = floor(r*alpha*x) mod r + 1, one floor5 per position
    P0, U0, L = Q5.coerce(alpha).as_integer_triple()
    rP, rU = r * P0, r * U0
    return bytes([floor5(rP * x, rU * x, L) % r + 1 for x in range(1, n + 1)])


def _frac_alphas(rng):
    alphas = [0, 1, -2, F(1, 10**6), Q5(0, F(1, 10**5)), Q5(0, F(-1, 10**5))]
    # r*alpha an integer for some r in the test
    alphas += [F(k, m) for m in (2, 3, 4, 5, 7, 255) for k in (-1, 1, m + 2)]
    while len(alphas) < 150:
        alphas.append(F(rng.randint(-60, 60), rng.randint(1, 50)))
    while len(alphas) < 300:  # both parts of either sign
        a = F(rng.randint(-30, 30), rng.randint(1, 12))
        alphas.append(Q5(a, F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12))))
    return alphas


def test_frac_coloring_matches_the_per_position_loop():
    # rationals, 0, integer r*alpha, huge partial quotients (1/10^6 and
    # sqrt5/10^5) and random Q(sqrt5) alphas; every prefix length against
    # the reference word
    for alpha in _frac_alphas(random.Random(11)):
        for r in (2, 3, 4, 5, 7, 255):
            ref = _ref_frac(alpha, r, 3000)
            for n in (1, 2, 3, 17, 3000):
                word = frac_coloring(alpha, r, n)
                assert word.colors == ref[:n], (alpha, r, n)
                assert word.provenance == {
                    "generator": "frac", "alpha": Q5.coerce(alpha).to_json(), "r": r, "n": n
                }


def test_frac_coloring_rational_expansion_ending_at_an_odd_index():
    # {r*alpha} = 1/3 = [0; 3] ends at index 1, so the word repeats the
    # standard word of [0; 2, 1], which ends in 10
    for alpha, r in ((F(1, 3), 4), (F(1, 3), 7), (F(2, 3), 2)):
        assert frac_coloring(alpha, r, 300).colors == _ref_frac(alpha, r, 300), (alpha, r)
    assert list(frac_coloring(F(1, 3), 4, 6).colors) == [2, 3, 1] * 2


def test_frac_coloring_at_the_length_cap():
    # spot checks against the decimal reference, where r*alpha*x at a
    # Fibonacci x sits just beside a class cut
    n = 10**7
    fib = [1, 2]
    while fib[-1] < n:
        fib.append(fib[-1] + fib[-2])
    for alpha, r in ((Q5(F(3, 8), F(1, 8)), 2), (GOLDEN_ANGLE, 3)):
        word = frac_coloring(alpha, r, n).colors
        assert len(word) == n
        for x in list(range(1, 201)) + fib[:-1] + [n]:
            y = alpha * x
            assert word[x - 1] == _ref_floor(y * r) - r * _ref_floor(y) + 1, (alpha, r, x)

"""Coloring generators: fractional-part classes, block and residue patterns,
and circle-rotation words, plus subword complexity.

Colorings are materialized words (one byte per position, positions 1..N) so
the scanning layer gets random access. Generation is exact: every floor and
sign is decided by the integer kernel of ``exactnum`` (``floor5``,
``sign5``) on common-denominator integers, never by floats, and no ``Q5``
object is built per position.

A frac coloring is built as a word, with no Python loop over positions. Its
classes are the running sums mod r of a step word, which is 0 followed by
the characteristic word c_theta of theta = {r*alpha}. With the continued
fraction theta = [0; d_1 + 1, d_2, d_3, ...], c_theta is the limit of the
standard words t_-1 = 1, t_0 = 0, t_n = t_(n-1)^(d_n) t_(n-2) (Lothaire,
*Algebraic Combinatorics on Words*, ch. 2, standard and characteristic
Sturmian words). The partial quotients come from ``floor5`` on integer
triples. Each standard word is kept as the bytes of its colors together with
its step sum mod r, so appending a copy is one ``bytes.translate`` by the
running sum, and the copies of a power cycle with period r / gcd(sum, r).
A rational theta has a finite expansion and its word repeats the last
standard word. The residue and block patterns are frac colorings (alpha =
1/m with m classes; alpha = 1/(2m) with 2 classes, read one position
earlier) and take their words from this coder. ``rotation_word`` keeps a
``floor5``/``sign5`` step per position; its word is Sturmian only when the
cut is aligned to the angle. ``check_length`` is the one bound on a length
and ``check_colors`` the one bound on a color count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .exactnum import NumberLike, Q5, floor5, integer_triples, sign5

MAX_LENGTH = 10_000_000  # one byte per position: 10 MB of word at the cap
MAX_FACTOR_BYTES = 10**8  # complexity(n) slices n bytes at each of N - n + 1 positions

_BYTE = [bytes((c,)) for c in range(256)]
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


@dataclass
class Coloring:
    """A finite word over colors {1..r} on positions 1..N."""

    r: int
    colors: bytes
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.r < 1 or self.r > 255:
            raise ValueError("color count must be in 1..255")
        if self.colors.translate(None, bytes(range(1, self.r + 1))):
            bad = [c for c in set(self.colors) if not 1 <= c <= self.r]
            raise ValueError(f"colors outside 1..{self.r}: {bad}")

    @property
    def n(self) -> int:
        return len(self.colors)

    # -- export ----------------------------------------------------------------

    def to_json(self) -> dict:
        """The run-length form; ``json`` writes each ``(color, count)`` run as an array.

        Runs repeat (the sqrt5/8 coloring at the 10^7 cap has 5.59M runs,
        4 of them distinct), so each distinct run is one shared tuple and
        the list holds no object of its own per run.
        """
        rle, seen = [], {}
        if self.colors:
            prev, count = self.colors[0], 0
            # 0 is no color, so the appended 0 ends the last run
            for c in self.colors + b"\0":
                if c == prev:
                    count += 1
                else:
                    run = (prev, count)
                    rle.append(seen.setdefault(run, run))
                    prev, count = c, 1
        return {"r": self.r, "n": self.n, "rle": rle, "provenance": self.provenance}

    @staticmethod
    def from_json(obj: dict) -> "Coloring":
        if not isinstance(obj, dict):
            raise ValueError("coloring JSON must be an object")
        missing = [key for key in ("r", "n", "rle") if key not in obj]
        if missing:
            raise ValueError(f"coloring JSON is missing {', '.join(map(repr, missing))}")
        n, rle = obj["n"], obj["rle"]
        if type(obj["r"]) is not int or type(n) is not int:
            raise ValueError("coloring 'r' and 'n' must be integers")
        if not 0 <= n <= MAX_LENGTH:
            raise ValueError(f"coloring 'n' must be in 0..{MAX_LENGTH}")
        bad_rle = ValueError(
            "coloring 'rle' must be a list of [color, count] runs with integers "
            "1 <= color <= 255 and count >= 1, the counts summing to 'n'"
        )
        if type(rle) is not list:
            raise bad_rle
        word, left = bytearray(), n
        try:
            for color, count in rle:
                # type() rather than isinstance(): JSON true/false parse to bools
                if type(color) is not int or type(count) is not int or not (
                    0 < color < 256 and 0 < count <= left
                ):
                    raise bad_rle
                left -= count
                word += _BYTE[color] * count
        except (TypeError, ValueError):  # also a run that is no [color, count] pair
            raise bad_rle from None
        if left:
            raise ValueError("run-length data does not match the declared length")
        provenance = obj.get("provenance", {})
        if type(provenance) is not dict:
            raise ValueError("coloring 'provenance' must be an object")
        return Coloring(obj["r"], bytes(word), provenance)

    def to_text(self) -> str:
        """One character per position; only for r <= 9."""
        if self.r > 9:
            raise ValueError("text export needs r <= 9")
        return self.colors.translate(_DIGITS).decode()


def check_length(n: int, what: str) -> None:
    """Refuse a length n that is not an int in 1..MAX_LENGTH, naming it
    ``what``: no coloring, and so no witness or scanned prefix, is longer."""
    if type(n) is not int or not 1 <= n <= MAX_LENGTH:
        raise ValueError(f"{what} must be in 1..{MAX_LENGTH} (got {n!r})")


def check_colors(r: int) -> None:
    """Refuse a color count r that is not an int in 2..255, the colors a byte holds."""
    if type(r) is not int or not 2 <= r <= 255:
        raise ValueError(f"r must be in 2..255, the color bytes (got {r!r})")


def frac_coloring(alpha: NumberLike, r: int, n: int) -> Coloring:
    """Color x by which r-th of the unit interval {alpha*x} falls in.

    Class i is the half-open window [(i-1)/r, i/r); an exact hit on a cut
    point i/r therefore lands in the higher class. The class is
    floor(r*alpha*x) mod r + 1. With b = floor(r*alpha) and theta = r*alpha - b
    it is (x*b + floor(x*theta)) mod r + 1, so the word is the running sum
    mod r of the step word 0 c_theta, whose letters 0 and 1 are the steps b
    and b + 1 (c_theta is the characteristic word of theta, see the module
    docstring). The word is assembled from the standard words of theta by
    joining byte strings, one round per partial quotient.
    """
    check_colors(r)
    check_length(n, "coloring length")
    alpha_q5 = Q5.coerce(alpha)
    P, U, L = alpha_q5.as_integer_triple()
    P, U = r * P, r * U
    b = floor5(P, U, L)
    need = n - 1  # letters of c_theta after the leading 0
    colors, pad = bytes(range(1, r + 1)) * 2, bytes(255 - r)

    def shift(k):  # the bytes.translate table adding k (0 <= k < r) to the colors mod r
        return b"\0" + colors[k : k + r] + pad

    # A word over {0, 1} is held as (the colors it gives right after the
    # leading 0, its step sum mod r); a joined word goes on from the first's sum.
    def join(u, v):
        return u[0] + v[0].translate(shift(u[1])), (u[1] + v[1]) % r

    def power(u, d):
        # the sums of the copies of u cycle with period r / gcd(sum, r)
        word, s = u
        cycle = r // gcd(s, r)
        block = b"".join([word.translate(shift(j * s % r)) for j in range(min(d, cycle))])
        if d > cycle:
            reps, rest = divmod(d, cycle)
            block = block * reps + block[: rest * len(word)]
        return block, d * s % r

    older = bytes([(2 * b + 1) % r + 1]), (b + 1) % r  # t_-1 = 1
    old = bytes([2 * b % r + 1]), b % r  # t_0 = 0
    for index, d in enumerate(_standard_exponents(P - b * L, U, L), 1):
        if index > 1 and len(old[0]) >= need:
            break
        # t_index = t_(index-1)^d t_(index-2), with d cut to the copies that reach need
        older, old = old, join(power(old, min(d, -(-need // len(old[0])))), older)
    else:  # rational theta, 0 included: c_theta repeats the last standard word
        old = power(old, -(-need // len(old[0])))
    return Coloring(
        r,
        bytes([b % r + 1]) + old[0][:need],
        {"generator": "frac", "alpha": alpha_q5.to_json(), "r": r, "n": n},
    )


def _standard_exponents(P: int, U: int, L: int):
    """The exponents d_1, d_2, ... of the standard words of theta = (P + U*sqrt5)/L
    in [0, 1), where theta = [0; d_1 + 1, d_2, d_3, ...].

    A rational theta = p/q has a finite expansion, and its step word is
    (0 w 1)^infinity = 0 (w 1 0)^infinity for the lower Christoffel word 0 w 1
    of length q. So the expansion is made to end at an even index, whose
    standard word is w 1 0: [..., a] at an odd index becomes [..., a - 1, 1].
    theta = 0 has no exponents. Each round inverts the
    remainder exactly, 1/theta = L*(P - U*sqrt5) / (P^2 - 5*U^2), and takes
    its floor with ``floor5``.
    """
    index = 0
    while P or U:
        index += 1
        P, U, L = L * P, -L * U, P * P - 5 * U * U
        if L < 0:
            P, U, L = -P, -U, -L
        g = gcd(P, U, L)
        P, U, L = P // g, U // g, L // g
        a = floor5(P, U, L)
        P -= a * L
        d = a - 1 if index == 1 else a
        if P or U or index % 2 == 0:
            yield d
        else:
            yield d - 1
            yield 1


def block_coloring(m: int, n: int) -> Coloring:
    """Two colors in blocks of m: color 1 iff x mod 2m lands in {1..m}: the frac
    coloring of alpha = 1/(2m) with 2 classes, read one position earlier."""
    if m < 1:
        raise ValueError("block width must be >= 1")
    word = frac_coloring(Fraction(1, 2 * m), 2, n).colors
    return Coloring(2, (b"\1" + word)[:n], {"generator": "block", "m": m, "n": n})


def residue_coloring(m: int, n: int) -> Coloring:
    """m colors by residue: position x gets color (x mod m) + 1, the frac
    coloring of alpha = 1/m with m classes."""
    if not 2 <= m <= 255:
        raise ValueError("residue modulus must be in 2..255")
    word = frac_coloring(Fraction(1, m), m, n).colors
    return Coloring(m, word, {"generator": "residue", "m": m, "n": n})


def rotation_word(alpha: NumberLike, x0: NumberLike, cut: NumberLike, n: int) -> Coloring:
    """Binary coding of the rotation x -> x + alpha started at x0.

    Position n gets color 1 iff {x0 + n*alpha} lies in [0, cut); with an
    irrational alpha and the cut aligned to {alpha} this produces a Sturmian
    word.

    The point is kept as integers (P, U) over a common denominator L of
    alpha, x0 and the cut: each step adds alpha, subtracts the floor, and
    tests the cut with one ``sign5`` call.
    """
    check_length(n, "coloring length")
    alpha_q5 = Q5.coerce(alpha)
    x0_q5 = Q5.coerce(x0)
    cut_q5 = Q5.coerce(cut)
    L, ((AP, AU), (P, U), (CP, CU)) = integer_triples(alpha_q5, x0_q5, cut_q5)
    if not (sign5(CP, CU) > 0 and sign5(CP - L, CU) < 0):
        raise ValueError("cut must satisfy 0 < cut < 1")
    word = bytearray(b"\x02") * n
    for pos in range(n):
        P += AP
        U += AU
        P -= floor5(P, U, L) * L  # the point is now {x0 + (pos+1)*alpha}, >= 0
        if sign5(P - CP, U - CU) < 0:
            word[pos] = 1
    prov = {
        "generator": "rotation",
        "alpha": alpha_q5.to_json(),
        "x0": x0_q5.to_json(),
        "n": n,
        "cut": cut_q5.to_json(),
    }
    return Coloring(2, bytes(word), prov)


def complexity(coloring: Coloring, n: int) -> int:
    """Number of distinct contiguous length-n factors of the word, for an
    int n in 1..N (a bool, float or string is refused, not coerced)."""
    if type(n) is not int or not 1 <= n <= coloring.n:
        raise ValueError(f"factor length must be in 1..N (got {n!r})")
    size = n * (coloring.n - n + 1)
    if size > MAX_FACTOR_BYTES:
        raise ValueError(f"factor length {n} slices {size} bytes, above the cap {MAX_FACTOR_BYTES}")
    w = coloring.colors
    return len({w[i : i + n] for i in range(coloring.n - n + 1)})


# -- preset registry ------------------------------------------------------------

_PRESET_PARAMS = {
    # sqrt5/8, two classes: avoids long monochromatic Fibonacci APs
    "sqrt5over8": lambda n: frac_coloring(Q5(0, Fraction(1, 8)), 2, n),
    # (3+sqrt5)/8 = (1+phi)/4, two classes: avoids 4-term even-Fibonacci chains
    "oneplusphiover4": lambda n: frac_coloring(Q5(Fraction(3, 8), Fraction(1, 8)), 2, n),
    # golden rotation with the cut aligned to the angle: Sturmian, p(n) = n+1
    "goldenrotation": lambda n: rotation_word(
        Q5(Fraction(-1, 2), Fraction(1, 2)), 0, Q5(Fraction(-1, 2), Fraction(1, 2)), n
    ),
}

PRESETS = tuple(sorted(_PRESET_PARAMS))


def preset_coloring(name: str, n: int) -> Coloring:
    """Build a registered coloring family at length n."""
    try:
        builder = _PRESET_PARAMS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {', '.join(PRESETS)}")
    coloring = builder(n)
    coloring.provenance["preset"] = name
    return coloring

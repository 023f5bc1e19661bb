"""Coloring generators: fractional-part classes, block and residue patterns,
and circle-rotation words, plus subword complexity.

Colorings are materialized words (one byte per position, positions 1..N) so
the scanning layer gets random access. Generation is exact: class membership
at a boundary is decided by the integer kernel of ``exactnum`` (``floor5``,
``sign5``) on common-denominator integers, never by floats, and no ``Q5``
object is built per position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .exactnum import Q5, floor5, integer_triples, sign5

MAX_LENGTH = 10_000_000  # one byte per position: 10 MB of word at the cap

_BYTE = [bytes((c,)) for c in range(256)]

AlphaLike = Union[int, Fraction, str, Q5]


@dataclass
class Coloring:
    """A finite word over colors {1..r} on positions 1..N."""

    r: int
    colors: bytes
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.r < 1 or self.r > 255:
            raise ValueError("color count must be in 1..255")
        bad = [c for c in set(self.colors) if not 1 <= c <= self.r]
        if bad:
            raise ValueError(f"colors outside 1..{self.r}: {bad}")

    @property
    def n(self) -> int:
        return len(self.colors)

    # -- export ----------------------------------------------------------------

    def to_json(self) -> dict:
        rle, prev, count = [], None, 0
        for c in self.colors:
            if c == prev:
                count += 1
            else:
                if prev is not None:
                    rle.append([prev, count])
                prev, count = c, 1
        if prev is not None:
            rle.append([prev, count])
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
        return "".join(str(c) for c in self.colors)


def _check_length(n: int):
    if n < 1:
        raise ValueError("coloring length must be >= 1")
    if n > MAX_LENGTH:
        raise ValueError(f"coloring length capped at {MAX_LENGTH} (1 byte/position)")


def frac_coloring(alpha: AlphaLike, r: int, n: int) -> Coloring:
    """Color x by which r-th of the unit interval {alpha*x} falls in.

    Class i is the half-open window [(i-1)/r, i/r); an exact hit on a cut
    point i/r therefore lands in the higher class. For an irrational alpha
    the class is floor(r*alpha*x) mod r + 1, one ``floor5`` call per position.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    _check_length(n)
    alpha_q5 = Q5.coerce(alpha)
    P0, U0, L = alpha_q5.as_integer_triple()
    if U0 == 0:
        word = bytearray(n)
        # rational rotation: {alpha*x} = (P0*x mod L)/L
        for x in range(1, n + 1):
            rem = (P0 * x) % L
            word[x - 1] = (r * rem) // L + 1
    else:
        # floor(r*{y}) = floor(r*y) - r*floor(y), which is floor(r*y) mod r
        rP, rU = r * P0, r * U0
        word = bytes(floor5(rP * x, rU * x, L) % r + 1 for x in range(1, n + 1))
    return Coloring(
        r,
        bytes(word),
        {"generator": "frac", "alpha": alpha_q5.to_json(), "r": r, "n": n},
    )


def block_coloring(m: int, n: int) -> Coloring:
    """Two colors in blocks of m: color 1 iff x mod 2m lands in {1..m}."""
    if m < 1:
        raise ValueError("block width must be >= 1")
    _check_length(n)
    half = min(m, n)  # a block longer than the word is cut to it
    word = (b"\1" * half + b"\2" * half) * (n // (2 * half) + 1)
    return Coloring(2, word[:n], {"generator": "block", "m": m, "n": n})


def residue_coloring(m: int, n: int) -> Coloring:
    """m colors by residue: position x gets color (x mod m) + 1."""
    if not 2 <= m <= 255:
        raise ValueError("residue modulus must be in 2..255")
    _check_length(n)
    word = bytes(range(2, m + 1)) + b"\1"  # positions 1..m of each period
    return Coloring(m, (word * (n // m + 1))[:n], {"generator": "residue", "m": m, "n": n})


CutLike = Union[int, Fraction, str, Q5]


def rotation_word(alpha: AlphaLike, x0: AlphaLike, cut: CutLike, n: int) -> Coloring:
    """Binary coding of the rotation x -> x + alpha started at x0.

    Position n gets color 1 iff {x0 + n*alpha} lies in [0, cut); with an
    irrational alpha and the cut aligned to {alpha} this produces a Sturmian
    word.

    The point is kept as integers (P, U) over a common denominator L of
    alpha, x0 and the cut: each step adds alpha, subtracts the floor, and
    tests the cut with one ``sign5`` call.
    """
    _check_length(n)
    alpha_q5 = Q5.coerce(alpha)
    x0_q5 = Q5.coerce(x0)
    cut_q5 = Q5.coerce(cut)
    if not (Q5(0) < cut_q5 < Q5(1)):
        raise ValueError("cut must satisfy 0 < cut < 1")
    L, ((AP, AU), (P, U), (CP, CU)) = integer_triples(alpha_q5, x0_q5, cut_q5)
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
    """Number of distinct contiguous length-n factors of the word."""
    if not 1 <= n <= coloring.n:
        raise ValueError("factor length must be in 1..N")
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

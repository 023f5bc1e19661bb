"""Property test of the two JSON parsers: any JSON value is either refused
with a ValueError or parsed into an object that survives a round trip.

Nothing here enumerates a set, so a parsed spec costs no work however large
its fields are.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from diffseq.colorings import Coloring
from diffseq.gapsets import GapSetSpec

SPEC_KINDS = [
    "fibonacci", "even_fibonacci", "pell", "geometric", "polynomial", "nonmultiples",
    "primes", "explicit", "union", "divided", "multiples_filtered", "shifted", "mystery",
]

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "2", "1/2", "-1/3", "0", "1/0", "0.5", "x"])
    | st.text(max_size=4)
)
junk = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
def mostly(strategy):
    """``strategy`` about three times in four, otherwise junk."""
    return st.integers(0, 3).flatmap(lambda i: junk if i == 3 else strategy)


small = mostly(st.integers(-2, 12))

# spec-shaped objects: each kind with its fields near-valid or junk, plus a
# kind with any subset of the fields, so fields go missing or come in extra
specs = st.deferred(
    lambda: st.one_of(
        st.fixed_dictionaries(
            {"kind": st.sampled_from(SPEC_KINDS)},
            optional={key: small for key in ("base", "m", "d", "c", "elements", "of")},
        ),
        st.fixed_dictionaries(
            {"kind": st.sampled_from(["fibonacci", "even_fibonacci", "pell", "primes"])}
        ),
        st.fixed_dictionaries({"kind": st.just("geometric"), "base": small}),
        st.fixed_dictionaries({"kind": st.just("nonmultiples"), "m": small}),
        st.fixed_dictionaries(
            {
                "kind": st.just("polynomial"),
                "coeffs": mostly(
                    st.lists(small | st.sampled_from(["1/2", "-1/3"]), max_size=3).map(
                        lambda cs: cs + [0]
                    )
                ),
            }
        ),
        st.fixed_dictionaries(
            {"kind": st.just("explicit"), "elements": mostly(st.lists(small, max_size=5))}
        ),
        st.fixed_dictionaries({"kind": st.just("union"), "of": mostly(st.lists(specs, max_size=3))}),
        st.fixed_dictionaries(
            {
                "kind": st.sampled_from(["divided", "multiples_filtered"]),
                "of": mostly(specs),
                "d": small,
            }
        ),
        st.fixed_dictionaries({"kind": st.just("shifted"), "of": mostly(specs), "c": small}),
    )
)


@st.composite
def colorings(draw):
    """Coloring-shaped objects, valid or with one field broken or some missing."""
    runs = draw(st.lists(st.lists(st.integers(1, 4), min_size=2, max_size=2), max_size=5))
    obj = {
        "r": draw(st.integers(1, 5)),  # below the largest color is a bad coloring
        "n": sum(count for _, count in runs),
        "rle": runs,
        "provenance": draw(st.dictionaries(st.text(max_size=4), junk, max_size=3)),
    }
    broken = draw(st.sampled_from([None, "r", "n", "rle", "provenance", "drop"]))
    if broken == "drop":
        obj = {key: obj[key] for key in draw(st.sets(st.sampled_from(sorted(obj))))}
    elif broken == "n":
        obj["n"] = draw(st.sampled_from([obj["n"] + 1, obj["n"] - 1]) | junk)
    elif broken == "rle":
        obj["rle"] = draw(
            st.lists(st.lists(st.integers(-1, 4) | junk, min_size=1, max_size=3), max_size=4) | junk
        )
    elif broken:
        obj[broken] = draw(junk)
    return obj


def _refused_or_round_trips(parse, value):
    try:
        parsed = parse(value)
    except ValueError:  # SpecValidationError is a ValueError
        return
    assert parse(parsed.to_json()) == parsed


@settings(max_examples=300, deadline=None)
@given(st.one_of(specs, junk, colorings()))
def test_spec_parser_refuses_or_round_trips(value):
    _refused_or_round_trips(GapSetSpec.from_json, value)


@settings(max_examples=300, deadline=None)
@given(st.one_of(colorings(), junk, specs))
def test_coloring_parser_refuses_or_round_trips(value):
    _refused_or_round_trips(Coloring.from_json, value)

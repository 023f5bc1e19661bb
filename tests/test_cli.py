"""Command-line surface: round-trips, exit codes, and the reproduction suite."""

import contextlib
import hashlib
import io
import json
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffseq import cli, construct, gapsets, reproduce, search
from diffseq.colorings import MAX_LENGTH, Coloring, preset_coloring
from test_json_properties import specs
from test_schemas import _validate


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_set_command(capsys):
    code, out, _ = _run(capsys, "set", "--set-json", '{"kind":"fibonacci"}', "-N", "15")
    assert code == 0
    payload = json.loads(out)
    assert payload["elements"] == [1, 2, 3, 5, 8, 13]
    assert payload["spec"] == {"kind": "fibonacci"}
    # a periodic set's view carries its period, but the output does not show it
    code, out, _ = _run(capsys, "set", "--set-json", '{"kind":"nonmultiples","m":3}', "-N", "8")
    assert json.loads(out) == {
        "spec": {"kind": "nonmultiples", "m": 3}, "elements": [1, 2, 4, 5, 7, 8], "bound": 8
    }


def test_set_requires_definition(capsys):
    code, _, err = _run(capsys, "set", "-N", "10")
    assert code == 2
    assert "set definition" in err


def test_alpha_command_trace(capsys):
    code, out, _ = _run(
        capsys, "alpha", "--set-json", '{"kind":"geometric","base":4}',
        "--delta", "1", "--steps", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == "341/1024"
    assert payload["eps"] == "1/8"
    assert [t["z"] for t in payload["trace"]] == [0, 1, 5, 21]
    assert payload["trace"][3]["interval"] == {"lo": "169/512", "hi": "43/128"}
    assert all(v["in_window"] for v in payload["verdicts"])


# SHA-256 of the stdout of the README examples, pinned when `alpha` and
# `pipeline` got their shared set-widening helper and when `chromatic` moved
# onto the avoider search: the output must not move. The `pipeline` digest was
# re-pinned when its evidence moved to the view cut at max(-N, last constructed
# element): only the bound in its two `verified_range` strings changed, from
# the widened enumeration's 335544320000 to the last element 4^19 = 274877906944
README_EXAMPLES = [
    (
        ["alpha", "--set-json", '{"kind":"geometric","base":4}', "--delta", "1", "--steps", "20"],
        "46e111e8d936f56a34c42cff14ebb59381c17990b8468d803a30a6d04d7eb9f3",
    ),
    (
        ["pipeline", "--set-json", '{"kind":"geometric","base":4}', "--delta", "1",
         "--steps", "20", "-N", "20000"],
        "6b6458387ea5051c127f085bca307ad9db46ab11563ab14aaf0fb1e9342cb3a4",
    ),
    (
        ["chromatic", "--set-json", '{"kind":"nonmultiples","m":3}', "-N", "12"],
        "b6af872c1f3011ac5336d127235ff5c4e4e41bce00563c7cc98f96fdbad12a8e",
    ),
]


@pytest.mark.parametrize("argv,digest", README_EXAMPLES, ids=["alpha", "pipeline", "chromatic"])
def test_readme_examples_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_alpha_rejects_a_negative_start(capsys):
    # a negative start once sliced the enumeration from its end
    code, out, err = _run(
        capsys, "alpha", "--set-json", '{"kind":"geometric","base":4}',
        "--delta", "1", "--steps", "2", "--start", "-3",
    )
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "--start" in err


def test_alpha_on_a_set_too_small_names_the_count(capsys):
    code, _, err = _run(
        capsys, "alpha", "--set-json", '{"kind":"explicit","elements":[1,4,20]}',
        "--delta", "1", "--steps", "5",
    )
    assert code == 2
    assert err.count("\n") == 1 and "only 3 elements" in err and "need 5" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["alpha", "--delta", "1", "--steps", "2"],
        ["pipeline", "--delta", "1", "--steps", "2", "-N", "100"],
    ],
    ids=["alpha", "pipeline"],
)
def test_sieve_cap_stops_widening(monkeypatch, capsys, argv):
    # the even primes are {2}: widening the bound by 16 never finds a second
    # element, so the sieve cap (lowered here) has to end the search
    monkeypatch.setattr(gapsets, "MAX_SIEVE", 10**5)
    built = []
    real = gapsets._primes_upto

    def recording(n):
        primes = real(n)
        built.append(n)
        return primes

    monkeypatch.setattr(gapsets, "_primes_upto", recording)
    spec = '{"kind":"multiples_filtered","of":{"kind":"primes"},"d":2}'
    code, out, err = _run(capsys, *argv, "--set-json", spec)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "sieve cap" in err
    assert built and max(built) <= 10**5


COMPOSED_JSON = json.dumps({"kind": "union", "of": [
    {"kind": "shifted", "of": {"kind": "primes"}, "c": -1},
    {"kind": "geometric", "base": 3},
    {"kind": "divided", "of": {"kind": "nonmultiples", "m": 5}, "d": 2},
    {"kind": "shifted", "of": {"kind": "fibonacci"}, "c": 2},
]})


@pytest.mark.parametrize(
    "spec, n, digest",
    [
        (COMPOSED_JSON, 500_000, "54cea2af57f5e7c21bedd0f6112193e74656393ac0c29ebd468fca84f945294f"),
        (
            '{"kind":"divided","of":{"kind":"nonmultiples","m":6},"d":4}',
            10_000,
            "a3017461e2819cd8819e1af50ab37c3fad1ec6c2f4de41f027faaedc67422abf",
        ),
        # identity nodes (d = 1, c = 0) are echoed as given, as the
        # transforms' classmethod twins built them
        (
            '{"kind":"divided","of":{"kind":"nonmultiples","m":6},"d":1}',
            1000,
            "e59ff9cbdf5d64a4f0da0adf518b74eb8eb9cf373c7a2168221c8388a1a5a138",
        ),
        (
            '{"kind":"multiples_filtered","of":{"kind":"primes"},"d":1}',
            1000,
            "dc67aadda6e17928271eee194b0fc27dca095d8a2b44c700280428158a63accd",
        ),
        (
            '{"kind":"shifted","of":{"kind":"fibonacci"},"c":0}',
            1000,
            "8cc97aea7db2a8b44aeca3f152b52c275622b5c65e066deac64e455611611356",
        ),
    ],
    ids=["composed", "divided", "divided_d1", "filtered_d1", "shifted_c0"],
)
def test_set_output_is_pinned(capsys, spec, n, digest):
    # SHA-256 of the stdout of `diffseq set` as the per-element generators
    # wrote it, before enumeration went through membership bytes
    code, out, _ = _run(capsys, "set", "--set-json", spec, "-N", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_delta_one_term_chains_are_validated(capsys):
    code, _, err = _run(
        capsys, "delta", "--set-json", '{"kind":"fibonacci"}',
        "-k", "1", "-r", "1", "--budget", "5",
    )
    assert code == 2
    assert "r >= 2" in err


def test_delta_with_too_many_colors_exits_2_before_searching(monkeypatch, capsys):
    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(cli.search, "_dfs_deepest", no_search)
    code, _, err = _run(
        capsys, "delta", "--set-json", '{"kind":"nonmultiples","m":2}',
        "-k", "2", "-r", "256", "--budget", "100000",
    )
    assert code == 2
    assert "r must be in 2..255" in err and "256" in err


def test_delta_refuses_threads_below_one(capsys):
    code, out, err = _run(
        capsys, "delta", "--set-json", '{"kind":"primes"}',
        "-k", "3", "-r", "2", "--budget", "20", "--threads", "-3",
    )
    assert (code, out) == (2, "")
    assert err == "error: threads must be >= 1 (got -3)\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--threads", "0"], "threads must be >= 1 (got 0)"),
        (["-r", "1"], "need k >= 1 and r >= 2"),
        (["-r", "256"], "r must be in 2..255, the color bytes (got 256)"),
        (["-k", "0"], "need k >= 1 and r >= 2"),
    ],
)
def test_delta_arguments_are_refused_before_the_set_is_enumerated(monkeypatch, capsys, flags, message):
    def enumerate(self, bound):
        raise AssertionError(f"enumerated at {bound}")

    monkeypatch.setattr(gapsets.GapSetSpec, "enumerate", enumerate)
    argv = ["delta", "--set-json", '{"kind":"nonmultiples","m":3}', "-k", "3", "-r", "2",
            "--budget", "5000000", *flags]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_search_lengths_past_the_coloring_cap_exit_2(monkeypatch, capsys):
    # the length is refused before the set is enumerated at it
    def enumerate(self, bound):
        raise AssertionError(f"enumerated at {bound}")

    monkeypatch.setattr(gapsets.GapSetSpec, "enumerate", enumerate)
    one = '{"kind":"explicit","elements":[1]}'
    too_long = str(MAX_LENGTH + 1)
    for argv in (
        ["delta", "--set-json", one, "-k", "3", "-r", "2", "--budget", too_long],
        ["chromatic", "--set-json", one, "-N", too_long],
        ["pipeline", "--set-json", one, "--delta", "1/1000", "--steps", "2", "-N", too_long],
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and str(MAX_LENGTH) in err


def test_alpha_rejects_decimal_delta(capsys):
    code, _, err = _run(
        capsys, "alpha", "--set-json", '{"kind":"geometric","base":4}',
        "--delta", "0.5", "--steps", "3",
    )
    assert code == 2
    assert "exact rational" in err


def test_alpha_rejects_zero_denominator(capsys):
    code, _, err = _run(
        capsys, "alpha", "--set-json", '{"kind":"geometric","base":4}',
        "--delta", "1/0", "--steps", "3",
    )
    assert code == 2
    assert "zero denominator" in err and "Traceback" not in err


def test_scan_rejects_coloring_without_rle(tmp_path, capsys):
    broken = tmp_path / "coloring.json"
    broken.write_text(json.dumps({"r": 2, "n": 4}))
    code, _, err = _run(
        capsys, "scan", "--coloring", str(broken), "--set-json", '{"kind":"fibonacci"}',
    )
    assert code == 2
    assert "'rle'" in err


_BAD_RLE = (
    "error: coloring 'rle' must be a list of [color, count] runs with integers "
    "1 <= color <= 255 and count >= 1, the counts summing to 'n'\n"
)


def _scan_file(tmp_path, capsys, payload):
    path = tmp_path / "coloring.json"
    path.write_text(json.dumps(payload))
    return _run(capsys, "scan", "--coloring", str(path), "--set-json", '{"kind":"fibonacci"}')


def test_scan_rejects_rle_with_a_non_integer_color(tmp_path, capsys):
    code, out, err = _scan_file(tmp_path, capsys, {"r": 2, "n": 1, "rle": [["a", 1]]})
    assert code == 2 and out == ""
    assert err == _BAD_RLE


def test_scan_rejects_rle_that_is_not_a_list(tmp_path, capsys):
    code, out, err = _scan_file(tmp_path, capsys, {"r": 2, "n": 1, "rle": 5})
    assert code == 2 and out == ""
    assert err == _BAD_RLE


def test_deeply_nested_input_exits_2(tmp_path, capsys):
    # the json decoder raises RecursionError well below this depth
    depth = 2000
    spec = '{"kind":"shifted","c":1,"of":' * depth + '{"kind":"fibonacci"}' + "}" * depth
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(spec)
    coloring_file = tmp_path / "coloring.json"
    coloring_file.write_text('{"r":2,"n":1,"rle":' + "[" * depth + "]" * depth + "}")
    fib = '{"kind":"fibonacci"}'
    for argv, what in (
        (["set", "--set", str(spec_file), "-N", "10"], "set definition"),
        (["set", "--set-json", spec, "-N", "10"], "set definition"),
        (["scan", "--coloring", str(coloring_file), "--set-json", fib], "coloring file"),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {what} is nested too deeply to parse\n"


def test_set_rejects_fractional_geometric_base(capsys):
    code, _, err = _run(capsys, "set", "--set-json", '{"kind":"geometric","base":4.7}', "-N", "50")
    assert code == 2
    assert err == "error: geometric base must be an integer (got 4.7)\n"


def test_set_rejects_fractional_explicit_element(capsys):
    code, _, err = _run(
        capsys, "set", "--set-json", '{"kind":"explicit","elements":[1.9,3]}', "-N", "5"
    )
    assert code == 2
    assert err == "error: explicit element must be an integer (got 1.9)\n"


def test_set_rejects_explicit_elements_given_as_a_string(capsys):
    code, _, err = _run(
        capsys, "set", "--set-json", '{"kind":"explicit","elements":"12"}', "-N", "5"
    )
    assert code == 2
    assert err == "error: set definition field 'elements' must be an array (got '12')\n"


def test_set_refuses_a_polynomial_walk_above_the_cap(capsys):
    started = time.perf_counter()
    code, _, err = _run(
        capsys, "set", "--set-json", '{"kind":"polynomial","coeffs":["1/20000000","0"]}', "-N", "16"
    )
    assert time.perf_counter() - started < 1
    assert code == 2
    assert err == (
        "error: polynomial needs 320000001 values of n to pass bound 16, above the cap 10000000\n"
    )


def test_pipeline_needs_a_growth_pair(capsys):
    code, out, err = _run(
        capsys, "pipeline", "--set-json", '{"kind":"geometric","base":4}',
        "--delta", "1", "--steps", "1", "-N", "100",
    )
    assert code == 2 and out == ""
    assert "--steps >= 2" in err


def test_color_export_and_scan_round_trip(tmp_path, capsys):
    witness = tmp_path / "coloring.json"
    code, _, _ = _run(
        capsys, "color", "--preset", "sqrt5over8", "-N", "500", "--out", str(witness)
    )
    assert code == 0
    coloring = Coloring.from_json(json.loads(witness.read_text()))
    assert coloring.n == 500

    code, out, _ = _run(
        capsys, "scan", "--coloring", str(witness),
        "--set-json", '{"kind":"fibonacci"}', "--structure", "ap", "--max-k", "5",
    )
    assert code == 0
    assert json.loads(out)["structure"] == "ap"

    # an impossible assertion fails with exit 1
    code, out, _ = _run(
        capsys, "scan", "--coloring", str(witness),
        "--set-json", '{"kind":"fibonacci"}', "--structure", "ap", "--max-k", "1",
    )
    assert code == 1


def test_color_text_format(capsys):
    code, out, _ = _run(
        capsys, "color", "--kind", "block", "-m", "2", "-N", "8", "--format", "text"
    )
    assert code == 0
    assert out.strip() == "11221122"


def test_block_and_residue_colorings_need_a_width(capsys):
    for kind in ("block", "residue"):
        code, _, err = _run(capsys, "color", "--kind", kind, "-N", "8")
        assert code == 2
        assert err.strip() == f"error: --kind {kind} needs -m"


# SHA-256 of the stdout of `color --kind residue|block`, pinned when both
# coders came to take their words from the frac coder: the bytes must not move
RESIDUE_AND_BLOCK = [
    (["residue", "-m", "7", "-N", "40"],
     "da8a041fa8ea51c8f8cc07634938cd2c99011e48813a7c092a7e515a36641013"),
    (["residue", "-m", "255", "-N", "600"],
     "8b8fd8a3cb992e3eb209cf6f17c6d58a3c8e975338069efd4bafa18119b74e8a"),
    (["residue", "-m", "5", "-N", "23", "--format", "text"],
     "43a20654d1721741f1af4d474d3a1679e1535fdd88ecc698f50fe29c0148157b"),
    (["block", "-m", "3", "-N", "50"],
     "c3411c527a01f8250ac448c18f98157732ecf94f924fdbea5c74530058f85371"),
    (["block", "-m", str(10**18), "-N", "20"],
     "aa4f37eeca83f48c96d773d8eeec9b90ebfdee343b2858ebd1da9359acd116ee"),
    (["block", "-m", "4", "-N", "30", "--format", "text"],
     "563653f871bbbf3927d006f65c7fa7940459a7ef0fbbb1e36c6459018b71249a"),
]


@pytest.mark.parametrize("flags,digest", RESIDUE_AND_BLOCK)
def test_residue_and_block_output_is_pinned(capsys, flags, digest):
    code, out, _ = _run(capsys, "color", "--kind", *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_length_refusals_share_one_message(monkeypatch, capsys):
    # every length is checked against the same bound, and the three that size
    # an enumeration are refused before the set is enumerated at them
    def enumerate(self, bound):
        raise AssertionError(f"enumerated at {bound}")

    monkeypatch.setattr(gapsets.GapSetSpec, "enumerate", enumerate)
    for argv, n in (
        (["color", "--kind", "residue", "-m", "3", "-N", "0"], 0),
        (["chromatic", "--set-json", '{"kind":"primes"}', "-N", "0"], 0),
        (["pipeline", "--set-json", '{"kind":"fibonacci"}', "--delta", "1", "--steps", "3",
          "-N", str(MAX_LENGTH + 1)], MAX_LENGTH + 1),
        (["delta", "--set-json", '{"kind":"primes"}', "-k", "3", "-r", "2", "--budget", "0"], 0),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.endswith(f" must be in 1..{MAX_LENGTH} (got {n})\n"), err
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--kind", "frac"], "--kind frac needs --alpha or --alpha-root5"),
        (["--kind", "rotation", "--cut", "1/2"], "--kind rotation needs --alpha or --alpha-root5"),
        (["--kind", "rotation", "--alpha", "1/3"], "--kind rotation needs --cut or --cut-root5"),
        (["--kind", "block", "-m", "2", "--alpha", "1/3"], "--kind block does not read --alpha"),
        (["--kind", "residue", "-m", "2", "-r", "3"], "--kind residue does not read -r"),
        (["--kind", "frac", "--alpha", "1/3", "-m", "2"], "--kind frac does not read -m"),
        (["--kind", "rotation", "--alpha", "1/3", "--cut", "1/2", "-r", "2"],
         "--kind rotation does not read -r"),
        (["--preset", "sqrt5over8", "--x0-root5", "1"], "--preset does not read --x0-root5"),
    ],
)
def test_color_refuses_a_missing_or_unread_flag(capsys, flags, message):
    # a missing angle once read as 0, and a flag the kind does not read was dropped
    code, out, err = _run(capsys, "color", *flags, "-N", "5", "--format", "text")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_color_kinds_read_their_flags(capsys):
    for flags, word in (
        (["--kind", "frac", "--alpha-root5", "1/8"], "12211"),
        (["--kind", "frac", "--alpha", "1/3", "-r", "3"], "23123"),
        # --x0 defaults to 0
        (["--kind", "rotation", "--alpha=-1/2", "--alpha-root5", "1/2", "--cut=-1/2",
          "--cut-root5", "1/2"], "21211"),
    ):
        code, out, _ = _run(capsys, "color", *flags, "-N", "5", "--format", "text")
        assert (code, out) == (0, word + "\n"), flags


def test_color_rotation_flags(capsys):
    code, out, _ = _run(
        capsys, "color", "--kind", "rotation",
        "--alpha=-1/2", "--alpha-root5", "1/2",
        "--x0", "0", "--cut=-1/2", "--cut-root5", "1/2",
        "-N", "10",
    )
    assert code == 0
    payload = json.loads(out)
    word = list(Coloring.from_json(payload).colors)
    assert word == [2, 1, 2, 1, 1, 2, 1, 2, 1, 1]


def test_scan_refuses_a_negative_max_k(capsys):
    # no length is below 0, so a negative bound would fail every coloring with exit 1
    code, out, err = _run(
        capsys, "scan", "--coloring", "preset:sqrt5over8", "-N", "50",
        "--set-json", '{"kind":"fibonacci"}', "--max-k", "-1",
    )
    assert (code, out, err) == (2, "", "error: --max-k must be >= 0 (got -1)\n")


def test_scan_pair_structure(capsys):
    code, out, _ = _run(
        capsys, "scan", "--coloring", "preset:sqrt5over8", "-N", "50",
        "--set-json", '{"kind":"explicit","elements":[1]}', "--structure", "pair",
    )
    assert code == 0
    assert json.loads(out)["length"] == 2


def test_delta_command_with_witness(tmp_path, capsys):
    witness = tmp_path / "avoider.json"
    code, out, _ = _run(
        capsys, "delta", "--set-json", '{"kind":"nonmultiples","m":3}',
        "-k", "2", "-r", "2", "--budget", "10", "--emit-witness", str(witness),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "delta" and payload["value"] == 3
    avoider = Coloring.from_json(json.loads(witness.read_text()))
    assert list(avoider.colors) == [1, 2]


def test_scan_of_an_empty_coloring(tmp_path, capsys):
    # the coloring format admits n = 0, and every scan of it has length 0
    path = tmp_path / "empty.json"
    path.write_text('{"r":2,"n":0,"rle":[]}')
    for structure in ("diffseq", "ap", "pair"):
        code, out, err = _run(
            capsys, "scan", "--coloring", str(path),
            "--set-json", '{"kind":"fibonacci"}', "--structure", structure, "--max-k", "0",
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        _validate("diffseq/scan-result", payload)
        assert (payload["length"], payload["scanned"]) == (0, 0)


def test_delta_writes_the_empty_avoider_of_one_term_chains(tmp_path, capsys):
    witness = tmp_path / "avoider.json"
    code, out, _ = _run(
        capsys, "delta", "--set-json", '{"kind":"fibonacci"}',
        "-k", "1", "-r", "2", "--budget", "5", "--emit-witness", str(witness),
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["value"], payload["witness"]["n"]) == (1, 0)
    assert json.loads(witness.read_text()) == payload["witness"]
    code, out, _ = _run(
        capsys, "scan", "--coloring", str(witness), "--set-json", '{"kind":"fibonacci"}',
    )
    assert code == 0 and json.loads(out)["length"] == 0


_SET_ARGV = ("set", "--set-json", '{"kind":"primes"}', "-N", "5000")
_COLOR_ARGV = ("color", "--preset", "sqrt5over8", "-N", "5000")
_DELTA_ARGV = (
    "delta", "--set-json", '{"kind":"nonmultiples","m":3}', "-k", "3", "-r", "2", "--budget", "40"
)


def _document(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def test_outputs_are_the_indented_json_document(tmp_path, capsys):
    spec = gapsets.GapSetSpec.primes()
    expected = {
        _SET_ARGV: _document({"spec": spec.to_json(), **spec.enumerate(5000).to_json()}),
        _COLOR_ARGV: _document(preset_coloring("sqrt5over8", 5000).to_json()),
    }
    for argv, text in expected.items():
        code, out, _ = _run(capsys, *argv)
        assert code == 0 and out == text, argv[0]
        path = tmp_path / f"{argv[0]}.json"
        code, out, _ = _run(capsys, *argv, "--out", str(path))
        assert code == 0 and out == "" and path.read_text() == text, argv[0]

    view = gapsets.GapSetSpec.nonmultiples(3).enumerate(40)
    witness = _document(search.delta(view, 3, 2, 40).witness.to_json())
    out_path, witness_path = tmp_path / "delta.json", tmp_path / "witness.json"
    for extra in ((), ("--out", str(out_path))):
        code, out, _ = _run(capsys, *_DELTA_ARGV, "--emit-witness", str(witness_path), *extra)
        assert code == 0
        # the search's elapsed time differs between runs, so the result is
        # compared with the indented form of what it says
        text = out_path.read_text() if extra else out
        assert text == _document(json.loads(text))
        assert json.loads(text)["witness"] == json.loads(witness)
        assert witness_path.read_text() == witness


def test_a_failed_write_leaves_no_partial_out_file(tmp_path, capsys, monkeypatch):
    real = Coloring.to_json

    def unencodable(self):
        payload = real(self)
        payload["rle"].append(object())  # json.dump raises after the runs before it
        return payload

    monkeypatch.setattr(Coloring, "to_json", unencodable)
    path = tmp_path / "coloring.json"
    path.write_text("an earlier file\n")
    with pytest.raises(TypeError):
        cli.main([*_COLOR_ARGV, "--out", str(path)])
    assert not path.exists()
    # a symlink is left in place: the file it names is not removed through it
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("")
    link.symlink_to(target)
    with pytest.raises(TypeError):
        cli.main([*_COLOR_ARGV, "--out", str(link)])
    assert link.is_symlink() and target.exists()


def test_a_failed_open_keeps_the_existing_out_file(tmp_path, capsys, monkeypatch):
    # an open that fails has truncated nothing, so the file there survives;
    # open is patched because a read-only mode does not stop a root user
    def refused(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    path = tmp_path / "coloring.json"
    path.write_text("an earlier file\n")
    monkeypatch.setattr(cli, "open", refused, raising=False)
    code, out, err = _run(capsys, *_COLOR_ARGV, "--out", str(path))
    assert code == 2 and out == "" and "Permission denied" in err
    assert path.read_text() == "an earlier file\n"


def test_chromatic_command(capsys):
    code, out, _ = _run(
        capsys, "chromatic", "--set-json", '{"kind":"nonmultiples","m":3}', "-N", "12"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] and payload["value"] == 3


def test_chromatic_on_a_long_prefix_is_exact(capsys):
    # more positions than the interpreter's recursion limit
    code, out, _ = _run(capsys, "chromatic", "--set-json", '{"kind":"primes"}', "-N", "1200")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] and payload["value"] == 4


def test_chromatic_has_no_exact_limit(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["chromatic", "--set-json", '{"kind":"primes"}', "-N", "12", "--exact-limit", "5"])
    assert exc.value.code == 2
    assert "--exact-limit" in capsys.readouterr().err


def test_complexity_command(capsys):
    code, out, _ = _run(
        capsys, "complexity", "--coloring", "preset:goldenrotation", "-N", "2000",
        "--max-n", "6",
    )
    assert code == 0
    counts = json.loads(out)["complexity"]
    assert counts == {"1": 2, "2": 3, "3": 4, "4": 5, "5": 6, "6": 7}


def test_complexity_range_must_be_positive(capsys):
    # a range of no lengths is refused, and --max-n 0 must not fall through to -n
    for max_n in ("0", "-2"):
        code, out, err = _run(
            capsys, "complexity", "--coloring", "preset:goldenrotation", "-N", "20",
            "--max-n", max_n,
        )
        assert (code, out) == (2, "")
        assert err.strip() == f"error: --max-n must be >= 1 (got {max_n})"


def test_a_second_selector_is_refused(tmp_path, capsys):
    # each pair names the same thing twice, and neither wins silently
    coloring = tmp_path / "coloring.json"
    coloring.write_text(json.dumps(preset_coloring("sqrt5over8", 5).to_json()))
    fib = '{"kind":"fibonacci"}'
    for argv, message in (
        (["color", "--preset", "sqrt5over8", "--kind", "residue", "-m", "3", "-N", "5",
          "--format", "text"], "give either --preset or --kind, not both"),
        (["complexity", "--coloring", "preset:goldenrotation", "-N", "100", "-n", "50",
          "--max-n", "2"], "give either a factor length (-n) or a range (--max-n)"),
        (["scan", "--coloring", str(coloring), "--set-json", fib, "-N", "5"],
         "-N sizes presets only; a coloring file has its own length"),
        (["complexity", "--coloring", str(coloring), "-N", "5", "-n", "2"],
         "-N sizes presets only; a coloring file has its own length"),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv
    # without the second selector each command runs
    code, out, _ = _run(capsys, "scan", "--coloring", str(coloring), "--set-json", fib)
    assert code == 0 and json.loads(out)["scanned"] == 5
    code, out, _ = _run(capsys, "complexity", "--coloring", str(coloring), "-n", "2")
    assert code == 0 and json.loads(out)["n"] == 5


def test_complexity_above_the_factor_cap_exits_2(capsys):
    # 10**10 bytes of factors would be sliced; the refusal comes first
    tracemalloc.start()
    try:
        code, out, err = _run(
            capsys, "complexity", "--coloring", "preset:goldenrotation", "-N", "200000",
            "-n", "100000",
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "error: factor length 100000 slices 10000100000 bytes, above the cap 100000000\n"
    assert peak < 5_000_000


def test_pipeline_command_pass_and_growth_error(capsys):
    code, out, _ = _run(
        capsys, "pipeline", "--set-json", '{"kind":"geometric","base":4}',
        "--delta", "1", "--steps", "12", "-N", "2000",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["growth"]["passed"] and payload["evidence"]["passed"]
    assert payload["alpha"]["eps"] == "1/8"

    code, _, err = _run(
        capsys, "pipeline", "--set-json", '{"kind":"fibonacci"}',
        "--delta", "1/2", "--steps", "5", "-N", "100",
    )
    assert code == 2
    assert "7/2" in err  # growth threshold 2 + 1 + 1/2


def test_alpha_and_pipeline_refuse_a_growth_pair_alike(capsys):
    # the pair (3, 5) sits at index 2 of the set, whatever --start slices it
    fib = ["--set-json", '{"kind":"fibonacci"}', "--delta", "1", "--steps", "3", "--start", "2"]
    alpha = _run(capsys, "alpha", *fib)
    pipeline = _run(capsys, "pipeline", *fib, "-N", "100")
    assert alpha == pipeline == (2, "", "error: growth 4 not satisfied at index 2: 5 < 4 * 3\n")
    # one step has no pair to check
    code, out, _ = _run(capsys, "alpha", *fib[:-3], "1", "--start", "2")
    assert code == 0 and json.loads(out)["alpha"]


def test_pipeline_verdict_ignores_elements_past_the_constructed_steps(capsys):
    # the view is widened from 129 by factors of 16 until it holds 15 elements;
    # its 16th, 7^15, lies outside the window but was never constrained by the
    # constructor, so it must not fail the evidence
    code, out, _ = _run(
        capsys, "pipeline", "--set-json", '{"kind":"geometric","base":7}',
        "--delta", "1/1000", "--steps", "15", "-N", "129",
    )
    assert code == 0
    evidence = json.loads(out)["evidence"]
    assert evidence["passed"]
    assert evidence["verified_range"].startswith(f"window over 15 enumerated gaps up to {7 ** 14};")


def test_pipeline_r3(capsys):
    code, out, _ = _run(
        capsys, "pipeline", "--set-json", '{"kind":"geometric","base":8}',
        "-r", "3", "--delta", "1", "--steps", "8", "-N", "1000",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["evidence"]["passed"]
    assert payload["evidence"]["params"]["chain_length_bound"] == 3


def test_pipeline_command_and_claim_run_construct_pipeline(monkeypatch, capsys):
    # both follow a failing evidence certificate from the one shipped pipeline
    real = construct.pipeline

    def failing(*args):
        growth, alpha_cert, evidence = real(*args)
        evidence.passed = False
        return growth, alpha_cert, evidence

    monkeypatch.setattr(construct, "pipeline", failing)
    code, out, _ = _run(
        capsys, "pipeline", "--set-json", '{"kind":"geometric","base":4}',
        "--delta", "1", "--steps", "12", "-N", "2000",
    )
    assert code == 1 and json.loads(out)["evidence"]["passed"] is False
    claim = next(c for c in reproduce.CLAIMS if c.claim_id == "powers-of-4-pipeline")
    report = reproduce.run_reproduce("quick", claims=(claim,))
    assert not report.overall and "FAIL" in report.to_table()


def test_reproduce_quick_and_negative_control(tmp_path, capsys):
    report_file = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, "reproduce", "--scale", "quick", "--json-out", str(report_file)
    )
    assert code == 0
    assert "overall: pass" in out
    payload = json.loads(report_file.read_text())
    assert payload["overall"] and len(payload["claims"]) == len(reproduce.CLAIMS)

    # negative control: rerun one claim with a deliberately wrong angle
    from fractions import Fraction as F

    target = next(c for c in reproduce.CLAIMS if c.claim_id == "fib-ap-avoidance")
    broken = reproduce.Claim(
        target.claim_id,
        target.description,
        lambda scale: {"n": 2000, "alpha": F(1, 3)},
        target.runner,
    )
    report = reproduce.run_reproduce("quick", claims=(broken,))
    assert not report.overall
    assert "FAIL" in report.to_table()


WRITERS = [
    (["set", "--set-json", '{"kind":"fibonacci"}', "-N", "100"], "--out"),
    (["color", "--kind", "block", "-m", "3", "-N", "20", "--format", "text"], "--out"),
    (["color", "--preset", "sqrt5over8", "-N", "50"], "--out"),
    (
        ["delta", "--set-json", '{"kind":"nonmultiples","m":3}', "-k", "2", "-r", "2",
         "--budget", "10"],
        "--emit-witness",
    ),
    (["reproduce", "--scale", "quick"], "--json-out"),
]


@pytest.mark.parametrize(
    "argv, flag", WRITERS, ids=["set", "color_text", "color_json", "witness", "report"]
)
def test_file_outputs_hold_what_stdout_would_print(tmp_path, capsys, monkeypatch, argv, flag):
    # one fixed report: the JSON of a fresh run would differ in its elapsed times
    report = reproduce.ReproReport(
        "quick", [reproduce.ClaimOutcome("claim", "a claim", {"n": 3}, True, 0.25, "ok")]
    )
    monkeypatch.setattr(reproduce, "run_reproduce", lambda scale: report)
    code, printed, _ = _run(capsys, *argv)
    assert code == 0
    if flag == "--emit-witness":
        printed = json.dumps(json.loads(printed)["witness"], indent=2) + "\n"
    elif flag == "--json-out":
        printed = json.dumps(report.to_json(), indent=2) + "\n"
    path = tmp_path / "written"
    assert _run(capsys, *argv, flag, str(path))[0] == 0
    assert printed.endswith("\n") and not printed.endswith("\n\n")
    assert path.read_text() == printed


def _refused_before_work(capsys, argv, path):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    return err


def test_reproduce_refuses_its_report_path_before_running(tmp_path, capsys, monkeypatch):
    def run_reproduce(scale):
        raise AssertionError("the suite ran before the output path was checked")

    monkeypatch.setattr(reproduce, "run_reproduce", run_reproduce)
    path = tmp_path / "missing" / "r.json"
    err = _refused_before_work(capsys, ["reproduce", "--json-out", str(path)], path)
    assert "no such directory" in err
    assert not path.parent.exists()


def test_delta_refuses_a_witness_path_in_a_missing_directory(tmp_path, capsys):
    path = tmp_path / "missing" / "w.json"
    argv = ["delta", "--set-json", '{"kind":"nonmultiples","m":3}', "-k", "2", "-r", "2",
            "--budget", "10", "--emit-witness", str(path)]
    _refused_before_work(capsys, argv, path)
    assert not path.parent.exists()


def test_set_refuses_an_out_path_that_is_a_directory(tmp_path, capsys):
    argv = ["set", "--set-json", '{"kind":"fibonacci"}', "-N", "100", "--out", str(tmp_path)]
    err = _refused_before_work(capsys, argv, tmp_path)
    assert "is a directory" in err
    assert list(tmp_path.iterdir()) == []


def test_invalid_set_json(capsys):
    code, _, err = _run(capsys, "set", "--set-json", '{"kind":"mystery"}', "-N", "5")
    assert code == 2
    assert "unknown" in err


# stdout SHA-256 of chain scans, pinned from the DP before the chain kernel
# chose among the residue rule, mask levels and the DP: the first is the
# README example (mask levels), the second a periodic set (residue rule)
CHAIN_SCANS = [
    (
        ["scan", "--coloring", "preset:oneplusphiover4", "-N", "50000", "--set-json",
         '{"kind":"even_fibonacci"}', "--structure", "diffseq", "--max-k", "3"],
        "b3f4c45ffc5f4a9e2f352f008f0c0089243cd850f46c9a71ddf8f8fa4b2396b5",
    ),
    (
        ["scan", "--coloring", "preset:goldenrotation", "-N", "3000", "--set-json",
         '{"kind":"nonmultiples","m":3}', "--structure", "diffseq"],
        "0539686b4683101521c8ba63224d323319ae096892cfea7542e6750d6aadd324",
    ),
]


@pytest.mark.parametrize("argv,digest", CHAIN_SCANS, ids=["even_fibonacci", "nonmultiples3"])
def test_chain_scan_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _mostly(valid, junk):
    """``valid`` nine times in ten, otherwise ``junk``."""
    return st.integers(0, 9).flatmap(lambda i: junk if i == 0 else valid)


_spec = _mostly(
    st.sampled_from([
        {"kind": "fibonacci"},
        {"kind": "even_fibonacci"},
        {"kind": "pell"},
        {"kind": "primes"},
        {"kind": "nonmultiples", "m": 3},
        {"kind": "geometric", "base": 2},
        {"kind": "polynomial", "coeffs": [1, 0, 0]},
        {"kind": "explicit", "elements": [1, 4, 9]},
        {"kind": "shifted", "of": {"kind": "nonmultiples", "m": 4}, "c": -1},
        {"kind": "divided", "of": {"kind": "nonmultiples", "m": 5}, "d": 2},
        {"kind": "union", "of": [{"kind": "primes"}, {"kind": "geometric", "base": 3}]},
    ]),
    specs,
)
_spec_text = _mostly(_spec.map(json.dumps), st.text(max_size=8))


def _int_text(low, high):
    return _mostly(
        st.integers(low, high).map(str), st.sampled_from(["", "x", "1/2", "1e3", "0x10", "-0"])
    )


_number_text = _int_text(-3, 2000)


@st.composite
def _scan_or_set_argv(draw):
    command = draw(st.sampled_from(["scan", "set"]))
    argv = [command]
    if draw(st.integers(0, 9)):
        argv += ["--set-json", draw(_spec_text)]
    if draw(st.integers(0, 9)):
        argv += ["-N", draw(_number_text)]
    if command == "scan":
        argv += ["--coloring", draw(_mostly(
            st.sampled_from(["preset:sqrt5over8", "preset:oneplusphiover4", "preset:goldenrotation"]),
            st.sampled_from(["preset:nope", "preset:", "no-such-coloring.json"]),
        ))]
        if draw(st.booleans()):
            argv += ["--structure", draw(_mostly(
                st.sampled_from(["diffseq", "ap", "pair"]), st.just("chain")
            ))]
        if draw(st.booleans()):
            argv += ["--max-k", draw(_mostly(st.integers(-2, 6).map(str), st.just("x")))]
    return argv


def _main_outcome(argv):
    """Exit code, stdout and stderr of one CLI call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses malformed flags with exit 2
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=200, deadline=None)
@given(_scan_or_set_argv())
def test_scan_and_set_argv_fuzz(argv):
    # any argv ends in exit 0, 1 or 2 without a traceback, and exit 1 only
    # when a scan's length exceeds --max-k
    code, stdout, stderr = _main_outcome(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in stderr
    if code == 1:
        max_k = int(argv[argv.index("--max-k") + 1])
        assert json.loads(stdout)["length"] > max_k


_presets = _mostly(
    st.sampled_from(["sqrt5over8", "oneplusphiover4", "goldenrotation"]),
    st.sampled_from(["nope", ""]),
)
_rational_text = _mostly(
    st.sampled_from(["0", "1/2", "-3/7", "5", "2/3", "1/1000"]),
    st.sampled_from(["", "x", "1/0", "0.5", "nan", "1e3"]),
)


@st.composite
def _other_command_argv(draw):
    """argv for color, complexity, chromatic and delta, on small inputs only:
    -N <= 2000 for colorings, budget <= 30 on one worker, and -N <= 50 for
    chromatic (squares past about 85 spend its whole node budget, some 12 s)."""
    command = draw(st.sampled_from(["color", "complexity", "chromatic", "delta"]))
    argv = [command]

    def maybe(flag, values):
        if draw(st.integers(0, 9)):
            argv.extend([flag, draw(values)])

    if command == "color":
        if draw(st.booleans()):
            maybe("--preset", _presets)
        else:
            maybe("--kind", _mostly(
                st.sampled_from(["frac", "block", "residue", "rotation"]), st.just("chain")
            ))
        for flag in ("--alpha", "--alpha-root5", "--x0", "--x0-root5", "--cut", "--cut-root5"):
            if draw(st.booleans()):
                argv += [flag, draw(_rational_text)]
        maybe("-r", _int_text(-1, 6))
        maybe("-m", _int_text(-1, 12))
        maybe("-N", _int_text(-3, 2000))
        if draw(st.booleans()):
            argv += ["--format", draw(_mostly(st.sampled_from(["rle", "text"]), st.just("csv")))]
    elif command == "complexity":
        argv += ["--coloring", "preset:" + draw(_presets)]
        maybe("-N", _int_text(-3, 2000))
        if draw(st.booleans()):
            maybe("-n", _int_text(-2, 2100))
        if draw(st.booleans()):
            maybe("--max-n", _int_text(-2, 40))
    else:
        maybe("--set-json", _spec_text)
        if command == "chromatic":
            maybe("-N", _int_text(-3, 50))
        else:
            maybe("-k", _int_text(-1, 6))
            maybe("-r", _int_text(-1, 4))
            maybe("--budget", _int_text(-3, 30))
            argv += ["--threads", "1"]
    return argv


@settings(max_examples=200, deadline=None)
@given(_other_command_argv())
def test_other_commands_argv_fuzz(argv):
    # none of these commands claims anything, so any argv ends in exit 0 or 2
    # without a traceback
    code, _, stderr = _main_outcome(argv)
    assert code in (0, 2), (argv, code)
    assert "Traceback" not in stderr


_growing_spec = st.sampled_from([
    {"kind": "geometric", "base": 4},
    {"kind": "geometric", "base": 7},
    {"kind": "even_fibonacci"},
    {"kind": "pell"},
    {"kind": "explicit", "elements": [1, 5, 30, 200, 1500, 9000]},
    {"kind": "divided", "of": {"kind": "geometric", "base": 6}, "d": 2},
])


@st.composite
def _alpha_or_pipeline_argv(draw):
    """argv for alpha and pipeline on small inputs only: --steps <= 30 and,
    for pipeline, a scan length -N <= 2000."""
    command = draw(st.sampled_from(["alpha", "pipeline"]))
    argv = [command]

    def maybe(flag, values):
        if draw(st.integers(0, 9)):
            argv.extend([flag, draw(values)])

    # mostly sets that grow fast enough for the constructor, and values it takes
    maybe("--set-json", _mostly(_growing_spec.map(json.dumps), _spec_text))
    maybe("--delta", _mostly(st.sampled_from(["1", "1/2", "2/3", "1/1000", "3"]), _rational_text))
    maybe("--steps", _mostly(_int_text(2, 30), _int_text(-2, 1)))
    if draw(st.booleans()):
        maybe("-r", _mostly(_int_text(2, 4), _int_text(-1, 1)))
    if draw(st.booleans()):
        maybe("--start", _mostly(_int_text(0, 6), _int_text(-3, 40)))
    if command == "pipeline":
        maybe("-N", _mostly(_int_text(1, 2000), _int_text(-3, 0)))
    return argv


@settings(max_examples=200, deadline=None)
@given(_alpha_or_pipeline_argv())
def test_alpha_and_pipeline_argv_fuzz(argv):
    # any argv ends in exit 0, 1 or 2 without a traceback, and exit 1 only
    # when pipeline's finite-range evidence fails
    code, stdout, stderr = _main_outcome(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in stderr
    if code == 1:
        assert argv[0] == "pipeline"
        assert json.loads(stdout)["evidence"]["passed"] is False

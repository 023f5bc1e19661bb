"""Command-line surface: set enumeration, the nested-interval constructor,
coloring generation and export, avoidance scans, least-forcing-length search,
chromatic bounds, subword complexity, the end-to-end pipeline, and the
reproduction suite.

Numeric parameters are exact rational strings ("21/100"), never decimals.
Exit codes: 0 success / assertion held, 1 assertion or claim failed,
2 invalid input.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from . import colorings, construct, gapsets, reproduce, search, verify
from .exactnum import Q5, to_rational


@contextlib.contextmanager
def _output(path: Optional[str]):
    """Yield path opened for writing, or stdout when path is None.

    A write that raises leaves no partial file at path. Opening already
    truncated it, so the file is removed, but only a regular file: never a
    symlink, such as /dev/stdout, or a device. An open that fails truncated
    nothing, so it removes nothing.
    """
    if not path:
        yield sys.stdout
        return
    fh = open(path, "w")
    try:
        with fh:
            yield fh
    except BaseException:
        if os.path.isfile(path) and not os.path.islink(path):
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _write(path: Optional[str], text: str) -> None:
    """Write text and a final newline to path, or to stdout when path is None."""
    with _output(path) as fh:
        fh.write(text + "\n")


def _emit(path: Optional[str], payload: dict) -> None:
    """Stream payload as indented JSON, so the document is never one string."""
    with _output(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _check_outputs(args) -> None:
    """Refuse, before any work, an output path that is a directory or lies in a missing one."""
    for flag in ("out", "emit_witness", "json_out"):
        path = getattr(args, flag, None)
        if path and os.path.isdir(path):
            raise ValueError(f"--{flag.replace('_', '-')} {path} is a directory")
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"--{flag.replace('_', '-')} {path}: no such directory")


@contextlib.contextmanager
def _parsing(what: str):
    # the json decoder and the set parser recurse once per level of nesting
    try:
        yield
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply to parse") from None


def _load_spec(args) -> gapsets.GapSetSpec:
    if args.set and args.set_json:
        raise ValueError("give either --set or --set-json, not both")
    if not (args.set or args.set_json):
        raise ValueError("a set definition is required (--set FILE or --set-json JSON)")
    with _parsing("set definition"):
        if args.set:
            with open(args.set) as fh:
                obj = json.load(fh)
        else:
            obj = json.loads(args.set_json)
        return gapsets.GapSetSpec.from_json(obj)


def _number(args, name: str):
    """The exact number --NAME + (--NAME-root5)*sqrt5, 0 when neither is given."""
    rational, root5 = getattr(args, name), getattr(args, name + "_root5")
    a = to_rational(rational) if rational is not None else Fraction(0)
    return a if root5 is None else Q5(a, to_rational(root5))


def _given(args, flag: str) -> bool:
    return getattr(args, flag.lstrip("-").replace("-", "_")) is not None


# per coloring --kind: the flags it reads, and the groups it needs one flag of
_KIND_FLAGS = {
    "frac": (("-r", "--alpha", "--alpha-root5"), [("--alpha", "--alpha-root5")]),
    "block": (("-m",), [("-m",)]),
    "residue": (("-m",), [("-m",)]),
    "rotation": (
        ("--alpha", "--alpha-root5", "--x0", "--x0-root5", "--cut", "--cut-root5"),
        [("--alpha", "--alpha-root5"), ("--cut", "--cut-root5")],
    ),
}
# every flag some kind reads, in a fixed order
_COLOR_FLAGS = tuple(dict.fromkeys(flag for reads, _ in _KIND_FLAGS.values() for flag in reads))


def _load_coloring(args) -> colorings.Coloring:
    source = args.coloring
    if source.startswith("preset:"):
        name = source.split(":", 1)[1]
        if args.n is None:
            raise ValueError("presets need a length: -N")
        return colorings.preset_coloring(name, args.n)
    if args.n is not None:
        raise ValueError("-N sizes presets only; a coloring file has its own length")
    with open(source) as fh, _parsing("coloring file"):
        return colorings.Coloring.from_json(json.load(fh))


# -- subcommands ------------------------------------------------------------------


def _cmd_set(args) -> int:
    spec = _load_spec(args)
    view = spec.enumerate(args.n)
    _emit(args.out, {"spec": spec.to_json(), **view.to_json()})
    return 0


def _cmd_alpha(args) -> int:
    spec = _load_spec(args)
    delta = to_rational(args.delta)
    elements = construct.widened_view(spec, args.start, args.steps, 16).elements
    q = elements[args.start : args.start + args.steps]
    try:
        cert = construct.build_alpha(q, args.r, delta, first_gap=elements[0])
    except construct.GrowthConditionError as exc:  # name the pair by its index in the set
        raise construct.GrowthConditionError(args.start + exc.index, exc.pair, exc.threshold)
    _emit(args.out, cert.to_json())
    return 0


def _cmd_color(args) -> int:
    if args.preset is not None and args.kind is not None:
        raise ValueError("give either --preset or --kind, not both")
    if not (args.preset or args.kind):
        raise ValueError("choose --preset or --kind {frac,block,residue,rotation}")
    # a preset reads none of the kinds' flags
    selector = f"--kind {args.kind}" if args.kind else "--preset"
    reads, needs = _KIND_FLAGS.get(args.kind, ((), []))
    for flag in _COLOR_FLAGS:
        if flag not in reads and _given(args, flag):
            raise ValueError(f"{selector} does not read {flag}")
    for group in needs:
        if not any(_given(args, flag) for flag in group):
            raise ValueError(f"{selector} needs {' or '.join(group)}")
    if args.preset:
        coloring = colorings.preset_coloring(args.preset, args.n)
    elif args.kind == "frac":
        r = 2 if args.r is None else args.r
        coloring = colorings.frac_coloring(_number(args, "alpha"), r, args.n)
    elif args.kind == "block":
        coloring = colorings.block_coloring(args.m, args.n)
    elif args.kind == "residue":
        coloring = colorings.residue_coloring(args.m, args.n)
    else:
        x0, cut = _number(args, "x0"), _number(args, "cut")
        coloring = colorings.rotation_word(_number(args, "alpha"), x0, cut, args.n)
    if args.format == "text":
        _write(args.out, coloring.to_text())
    else:
        _emit(args.out, coloring.to_json())
    return 0


def _cmd_scan(args) -> int:
    if args.max_k is not None and args.max_k < 0:
        raise ValueError(f"--max-k must be >= 0 (got {args.max_k})")
    coloring = _load_coloring(args)
    spec = _load_spec(args)
    # an empty coloring scans no gap, but a set is enumerated to at least 1
    view = spec.enumerate(max(coloring.n, 1))
    if args.structure == "diffseq":
        result = verify.longest_mono_diffseq(coloring, view)
    elif args.structure == "ap":
        result = verify.longest_mono_ap(coloring, view)
    else:
        result = verify.chromatically_intersective_check(coloring, view)
    _emit(args.out, result.to_json())
    if args.max_k is not None and result.length > args.max_k:
        return 1
    return 0


def _cmd_delta(args) -> int:
    spec = _load_spec(args)
    # the arguments are refused before the set is enumerated at the budget
    search.check_delta_args(args.k, args.r, args.budget, args.threads)
    view = spec.enumerate(args.budget)
    result = search.delta(view, args.k, args.r, args.budget, threads=args.threads)
    _emit(args.out, {"set": spec.to_json(), **result.to_json()})
    if args.emit_witness:
        _emit(args.emit_witness, result.witness.to_json())
    return 0


def _cmd_chromatic(args) -> int:
    spec = _load_spec(args)
    colorings.check_length(args.n, "-N")  # refused before the set is enumerated at n
    view = spec.enumerate(args.n)
    result = search.chromatic_number_prefix(view, args.n)
    _emit(args.out, {"set": spec.to_json(), **result.to_json()})
    return 0


def _cmd_complexity(args) -> int:
    if (args.max_n is None) == (args.factor_len is None):
        raise ValueError("give either a factor length (-n) or a range (--max-n)")
    if args.max_n is not None and args.max_n < 1:
        raise ValueError(f"--max-n must be >= 1 (got {args.max_n})")
    coloring = _load_coloring(args)
    lengths = range(1, args.max_n + 1) if args.max_n is not None else [args.factor_len]
    counts = {str(n): colorings.complexity(coloring, n) for n in lengths}
    _emit(args.out, {"n": coloring.n, "complexity": counts})
    return 0


def _cmd_pipeline(args) -> int:
    spec = _load_spec(args)
    growth, alpha_cert, evidence = construct.pipeline(
        spec, args.r, to_rational(args.delta), args.start, args.steps, args.n
    )
    payload = {
        "growth": growth.to_json(),
        "alpha": alpha_cert.to_json(),
        "evidence": evidence.to_json(),
    }
    _emit(args.out, payload)
    return 0 if evidence.passed else 1


def _cmd_reproduce(args) -> int:
    report = reproduce.run_reproduce(args.scale)
    print(report.to_table())
    if args.json_out:
        _emit(args.json_out, report.to_json())
    return 0 if report.overall else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffseq",
        description="exact Ramsey-type computations over gap sets of integers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by subcommands, listed first in their --help
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the output here instead of stdout")
    gap_set = argparse.ArgumentParser(add_help=False)
    gap_set.add_argument("--set", metavar="FILE", help="JSON set definition file")
    gap_set.add_argument("--set-json", metavar="JSON", help="inline JSON set definition")
    build = argparse.ArgumentParser(add_help=False)
    build.add_argument("-r", type=int, default=2, help="number of color classes")
    build.add_argument("--delta", required=True, help="growth slack, exact rational")
    build.add_argument("--steps", type=int, required=True, help="construction steps")
    build.add_argument("--start", type=int, default=0, help="0-based index of the first gap used")
    coloring = argparse.ArgumentParser(add_help=False)
    coloring.add_argument("--coloring", required=True, help="preset:NAME or a run-length JSON file")
    coloring.add_argument("-N", dest="n", type=int, help="length when using a preset")

    def with_set(name, *parents, **kwargs):
        return sub.add_parser(name, parents=[gap_set, out, *parents], **kwargs)

    p = with_set("set", help="enumerate a gap set up to a bound")
    p.add_argument("-N", dest="n", type=int, required=True, help="enumeration bound")
    p.set_defaults(func=_cmd_set)

    p = with_set("alpha", build, help="run the nested-interval constructor over a set")
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("color", parents=[out], help="generate and export a coloring")
    p.add_argument("--preset", help=f"one of: {', '.join(colorings.PRESETS)}")
    p.add_argument("--kind", choices=list(_KIND_FLAGS))
    p.add_argument("--alpha", help="rational part of the rotation/frac angle")
    p.add_argument("--alpha-root5", help="sqrt5 coefficient of the angle")
    p.add_argument("--x0", help="rotation start point, rational part (default 0)")
    p.add_argument("--x0-root5", help="rotation start point, sqrt5 coefficient")
    p.add_argument("--cut", help="rotation cut, rational part")
    p.add_argument("--cut-root5", help="rotation cut, sqrt5 coefficient")
    p.add_argument("-r", type=int, help="number of frac color classes (default 2)")
    p.add_argument("-m", type=int, help="block width / residue modulus")
    p.add_argument("-N", dest="n", type=int, required=True)
    p.add_argument("--format", choices=["rle", "text"], default="rle")
    p.set_defaults(func=_cmd_color)

    p = with_set("scan", coloring, help="longest monochromatic structure in a coloring")
    p.add_argument(
        "--structure", choices=["diffseq", "ap", "pair"], default="diffseq",
        help="chain with gaps in the set, fixed-gap progression, or 2-term check",
    )
    p.add_argument("--max-k", type=int, help="exit 1 if the longest length exceeds this")
    p.set_defaults(func=_cmd_scan)

    p = with_set("delta", help="least prefix length forcing a monochromatic chain")
    p.add_argument("-k", type=int, required=True, help="chain length to force")
    p.add_argument("-r", type=int, required=True, help="number of colors")
    p.add_argument("--budget", type=int, required=True, help="largest prefix to search")
    p.add_argument("--threads", type=int, default=1, help="worker processes, capped at the CPU count")
    p.add_argument("--emit-witness", metavar="FILE", help="write the avoider coloring here")
    p.set_defaults(func=_cmd_delta)

    p = with_set("chromatic", help="chromatic bounds of the prefix distance graph")
    p.add_argument("-N", dest="n", type=int, required=True)
    p.set_defaults(func=_cmd_chromatic)

    p = sub.add_parser(
        "complexity", parents=[out, coloring], help="number of distinct length-n factors"
    )
    p.add_argument("-n", dest="factor_len", type=int, help="factor length")
    p.add_argument("--max-n", type=int, help="report all factor lengths 1..MAX_N")
    p.set_defaults(func=_cmd_complexity)

    p = with_set("pipeline", build, help="growth check, constructor, window certificate, scan")
    p.add_argument("-N", dest="n", type=int, required=True, help="scan length")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("reproduce", help="run the registered claim suite")
    p.add_argument("--scale", choices=["quick", "full"], default="quick")
    p.add_argument("--json-out", metavar="FILE", help="also write the JSON report here")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

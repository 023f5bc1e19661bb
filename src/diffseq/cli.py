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
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from . import colorings, construct, gapsets, reproduce, search, verify
from .exactnum import Q5, to_rational


# the largest enumeration bound tried when a command needs more elements
_MAX_BOUND = 10**40


def _write(path: Optional[str], text: str) -> None:
    """Write text and a final newline to path, or print it when path is None."""
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(path: Optional[str], payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2))


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


def _length(n: int, flag: str) -> int:
    # refused before the set is enumerated at n: no coloring or witness is longer
    if not 1 <= n <= colorings.MAX_LENGTH:
        raise ValueError(f"{flag} must be in 1..{colorings.MAX_LENGTH} (got {n})")
    return n


def _parse_number(rational: Optional[str], root5: Optional[str]):
    """An exact number from its rational part and optional sqrt5 coefficient."""
    a = to_rational(rational) if rational is not None else Fraction(0)
    if root5 is not None:
        return Q5(a, to_rational(root5))
    return a


def _widened_view(
    spec: gapsets.GapSetSpec, start: int, steps: int, bound: int
) -> gapsets.GapSetView:
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


def _load_coloring(args) -> colorings.Coloring:
    source = args.coloring
    if source.startswith("preset:"):
        name = source.split(":", 1)[1]
        if args.n is None:
            raise ValueError("presets need a length: -N")
        return colorings.preset_coloring(name, args.n)
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
    elements = _widened_view(spec, args.start, args.steps, 16).elements
    q = elements[args.start : args.start + args.steps]
    cert = construct.build_alpha(
        q, args.r, delta, steps=args.steps, first_gap=elements[0]
    )
    _emit(args.out, cert.to_json())
    return 0


def _cmd_color(args) -> int:
    if args.preset:
        coloring = colorings.preset_coloring(args.preset, args.n)
    elif args.kind == "frac":
        alpha = _parse_number(args.alpha, args.alpha_root5)
        coloring = colorings.frac_coloring(alpha, args.r, args.n)
    elif args.kind in ("block", "residue") and args.m is None:
        raise ValueError(f"--kind {args.kind} needs -m")
    elif args.kind == "block":
        coloring = colorings.block_coloring(args.m, args.n)
    elif args.kind == "residue":
        coloring = colorings.residue_coloring(args.m, args.n)
    elif args.kind == "rotation":
        alpha = _parse_number(args.alpha, args.alpha_root5)
        x0 = _parse_number(args.x0, args.x0_root5)
        cut = _parse_number(args.cut, args.cut_root5)
        coloring = colorings.rotation_word(alpha, x0, cut, args.n)
    else:
        raise ValueError("choose --preset or --kind {frac,block,residue,rotation}")
    if args.format == "text":
        _write(args.out, coloring.to_text())
    else:
        _emit(args.out, coloring.to_json())
    return 0


def _cmd_scan(args) -> int:
    coloring = _load_coloring(args)
    spec = _load_spec(args)
    view = spec.enumerate(coloring.n)
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
    if args.emit_witness and result.witness is not None:
        _emit(args.emit_witness, result.witness.to_json())
    return 0


def _cmd_chromatic(args) -> int:
    spec = _load_spec(args)
    view = spec.enumerate(_length(args.n, "-N"))
    result = search.chromatic_number_prefix(view, args.n)
    _emit(args.out, {"set": spec.to_json(), **result.to_json()})
    return 0


def _cmd_complexity(args) -> int:
    coloring = _load_coloring(args)
    if args.max_n is None and args.factor_len is None:
        raise ValueError("give a factor length (-n) or a range (--max-n)")
    if args.max_n is not None and args.max_n < 1:
        raise ValueError(f"--max-n must be >= 1 (got {args.max_n})")
    lengths = range(1, args.max_n + 1) if args.max_n is not None else [args.factor_len]
    counts = {str(n): colorings.complexity(coloring, n) for n in lengths}
    _emit(args.out, {"n": coloring.n, "complexity": counts})
    return 0


def _cmd_pipeline(args) -> int:
    spec = _load_spec(args)
    delta = to_rational(args.delta)
    factor = construct.growth_factor(args.r, delta)
    if args.steps < 2:
        raise ValueError("pipeline needs --steps >= 2 to check gap growth")
    view = _widened_view(spec, args.start, args.steps, _length(args.n, "-N"))
    need = args.start + args.steps
    elements = view.elements
    growth = gapsets.growth_certificate(
        gapsets.GapSetView(elements[: need], elements[need - 1]), factor, start=args.start
    )
    if not growth.passed:
        pair = growth.counterexample["pair"]
        raise ValueError(
            f"growth {factor} not satisfied at index {growth.counterexample['index']}: "
            f"{pair[1]} < {factor} * {pair[0]}"
        )
    q = elements[args.start : need]
    alpha_cert = construct.build_alpha(q, args.r, delta, first_gap=elements[0])
    # the window covers the constructed elements and the gaps the scan can use,
    # not whatever lies beyond them in the widened view
    evidence = construct.doa_evidence(
        view.restrict(max(args.n, q[-1])), alpha_cert.alpha, alpha_cert.eps1, args.r, args.n
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
    with_set = functools.partial(sub.add_parser, parents=[gap_set, out])

    p = with_set("set", help="enumerate a gap set up to a bound")
    p.add_argument("-N", dest="n", type=int, required=True, help="enumeration bound")
    p.set_defaults(func=_cmd_set)

    p = with_set("alpha", help="run the nested-interval constructor over a set")
    p.add_argument("-r", type=int, default=2, help="number of color classes")
    p.add_argument("--delta", required=True, help="growth slack, exact rational")
    p.add_argument("--steps", type=int, required=True, help="construction steps")
    p.add_argument("--start", type=int, default=0, help="0-based index of the first gap used")
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("color", parents=[out], help="generate and export a coloring")
    p.add_argument("--preset", help=f"one of: {', '.join(colorings.PRESETS)}")
    p.add_argument("--kind", choices=["frac", "block", "residue", "rotation"])
    p.add_argument("--alpha", help="rational part of the rotation/frac angle")
    p.add_argument("--alpha-root5", help="sqrt5 coefficient of the angle")
    p.add_argument("--x0", help="rotation start point, rational part")
    p.add_argument("--x0-root5", help="rotation start point, sqrt5 coefficient")
    p.add_argument("--cut", help="rotation cut, rational part")
    p.add_argument("--cut-root5", help="rotation cut, sqrt5 coefficient")
    p.add_argument("-r", type=int, default=2)
    p.add_argument("-m", type=int, help="block width / residue modulus")
    p.add_argument("-N", dest="n", type=int, required=True)
    p.add_argument("--format", choices=["rle", "text"], default="rle")
    p.set_defaults(func=_cmd_color)

    p = with_set("scan", help="longest monochromatic structure in a coloring")
    p.add_argument("--coloring", required=True, help="preset:NAME or a run-length JSON file")
    p.add_argument("-N", dest="n", type=int, help="length when using a preset")
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

    p = sub.add_parser("complexity", parents=[out], help="number of distinct length-n factors")
    p.add_argument("--coloring", required=True, help="preset:NAME or a run-length JSON file")
    p.add_argument("-N", dest="n", type=int, help="length when using a preset")
    p.add_argument("-n", dest="factor_len", type=int, help="factor length")
    p.add_argument("--max-n", type=int, help="report all factor lengths 1..MAX_N")
    p.set_defaults(func=_cmd_complexity)

    p = with_set("pipeline", help="growth check, constructor, window certificate, scan")
    p.add_argument("-r", type=int, default=2)
    p.add_argument("--delta", required=True, help="growth slack, exact rational")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--start", type=int, default=0)
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

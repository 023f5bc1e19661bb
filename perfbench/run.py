#!/usr/bin/env python3
"""Run one diffseq benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

A run imports diffseq from ``src/`` of the checkout this file sits in, builds
the workload's job list from the seed, then runs the whole job list again
and again (one job at a time, closed loop) until ``--seconds`` are used up.
The first pass checks every output against pinned values and the oracle;
later passes must reproduce the first pass's outputs exactly. End-to-end
metrics are medians over passes. With ``--trace 1`` passes alternate between
untraced and traced, and the per-layer metrics come from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A readable summary
goes to standard error, and a record of the run (machine facts, every pass,
every problem found, and the spans when traced) to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracing import Tracer, cpu_seconds

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
SETUP_PROBES = 7
MAX_PASSES = 200
CHILD_TIMEOUT = 170

WORKLOADS = ("certify", "search", "dense")
SPAN_NAMES = (
    "gapsets.enumerate",
    "colorings.frac",
    "colorings.rotation",
    "colorings.complexity",
    "colorings.export",
    "colorings.block",
    "colorings.residue",
    "construct.build_alpha",
    "construct.certify",
    "verify.chain",
    "verify.ap",
    "verify.pair",
    "verify.window",
    "verify.facts",
    "search.delta",
    "search.parallel",
    "search.chromatic",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the job list, print 'ready' and exit (set-up probe)")
    return p.parse_args(argv)


def import_sources():
    """Put this checkout's src/ first on the path and insist diffseq comes from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import diffseq
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import diffseq from {src}: {exc}")
    if Path(diffseq.__file__).resolve().parent != src.resolve() / "diffseq":
        raise SystemExit(f"perfbench: diffseq came from {diffseq.__file__}, not from {src}")


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# -- set-up --------------------------------------------------------------------------------


def setup_samples(args) -> list[float]:
    """Seconds from process start to a built job list, for fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT)
        if code != 0 or line.strip() != b"ready":
            raise SystemExit(f"perfbench: set-up probe failed with exit code {code}")
        samples.append(ready - started)
    return samples


# -- passes ----------------------------------------------------------------------------------


def normalize(value):
    """A repr-able form of a job's outputs; run times are left out."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (f.name, normalize(getattr(value, f.name)))
            for f in dataclasses.fields(value)
            if f.name != "elapsed"
        )
    if isinstance(value, dict):
        return tuple((k, normalize(v)) for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(map(normalize, value))
    if isinstance(value, (bytes, bytearray)):
        return hashlib.sha256(value).hexdigest()
    return value


def digest(outputs) -> str:
    return hashlib.sha256(repr(normalize(outputs)).encode()).hexdigest()


@dataclasses.dataclass
class Pass:
    index: int
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    failed: int = 0
    job_walls: dict = dataclasses.field(default_factory=dict)


def run_pass(jobs, tracer, index: int, reference: dict, problems: list) -> Pass:
    """Run the job list once. Only job calls are timed; checks are not."""
    result = Pass(index, tracer.enabled)
    for job in jobs:
        with tracer.job(f"{index}:{job.name}"):
            cpu0 = cpu_seconds()
            start = time.perf_counter()
            try:
                outputs, found = job.run(tracer), []
            except Exception as exc:  # a raising job is a failed job, not a failed run
                outputs, found = None, [f"raised {type(exc).__name__}: {exc}"]
            wall = time.perf_counter() - start
            result.cpu += cpu_seconds() - cpu0
        result.wall += wall
        result.job_walls[job.name] = wall
        if outputs is not None and index == 0:
            try:
                found = job.check(outputs)
            except Exception as exc:
                found = [f"check raised {type(exc).__name__}: {exc}"]
            reference[job.name] = digest(outputs)
        elif outputs is not None and digest(outputs) != reference.get(job.name):
            found = ["outputs differ from the checked first pass"]
        del outputs
        if found:
            result.failed += 1
            problems.extend(f"pass {index} {job.name}: {p}" for p in found)
    return result


def run_passes(jobs, seconds: float, trace: bool):
    """Passes until the next one would overrun ``seconds``; with tracing the
    odd passes are traced, and there is at least one of each kind."""
    passes, tracers, problems, reference = [], [], [], {}
    started = time.perf_counter()
    while len(passes) < MAX_PASSES:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer(traced)
        passes.append(run_pass(jobs, tracer, len(passes), reference, problems))
        if traced:
            tracers.append(tracer)
        used = time.perf_counter() - started
        if len(passes) >= (2 if trace else 1) and used + passes[-1].wall > seconds:
            break
    return passes, tracers, problems


# -- metrics ---------------------------------------------------------------------------------


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass: {name: (value, unit)}."""
    secs, calls = defaultdict(float), defaultdict(int)
    counts = defaultdict(lambda: defaultdict(int))
    for s in spans:
        secs[s.name] += s.seconds
        calls[s.name] += 1
        for key, n in s.counts.items():
            counts[s.name][key] += n
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}_s"] = (secs[name], "s")
        m[f"{name}_calls"] = (calls[name], "count")
    elements = counts["gapsets.enumerate"]["elements"]
    m["gapsets.elements"] = (elements, "count")
    m["gapsets.elements_per_s"] = (ratio(elements, secs["gapsets.enumerate"]), "1/s")
    for name, what in (("colorings.frac", "positions"), ("colorings.rotation", "positions")):
        m[f"{name}_positions_per_s"] = (ratio(counts[name][what], secs[name]), "1/s")
    m["construct.window_elements"] = (counts["construct.certify"]["elements"], "count")
    chain_cells = counts["verify.chain"]["cells"]
    m["verify.chain_cells"] = (chain_cells, "count")
    m["verify.chain_cells_per_s"] = (ratio(chain_cells, secs["verify.chain"]), "1/s")
    m["verify.ap_cells_per_s"] = (ratio(counts["verify.ap"]["cells"], secs["verify.ap"]), "1/s")
    m["verify.window_elements"] = (counts["verify.window"]["elements"], "count")
    nodes = counts["search.delta"]["nodes"]
    m["search.nodes"] = (nodes, "count")
    m["search.nodes_per_s"] = (ratio(nodes, secs["search.delta"]), "1/s")
    # each 2-worker span is paired with the 1-worker span of the same job
    one = {s.job: s for s in spans if s.name == "search.delta"}
    two = [s for s in spans if s.name == "search.parallel"]
    one_secs = sum(one[s.job].seconds for s in two)
    one_nodes = sum(one[s.job].counts["nodes"] for s in two)
    two_secs = sum(s.seconds for s in two)
    m["search.parallel_speedup"] = (ratio(one_secs, two_secs), "ratio")
    m["search.parallel_node_ratio"] = (ratio(sum(s.counts["nodes"] for s in two), one_nodes), "ratio")
    m["search.parallel_cpu_ratio"] = (ratio(sum(s.cpu for s in two), two_secs), "ratio")
    m["search.chromatic_exact"] = (counts["search.chromatic"]["exact"], "count")
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    return {
        name: (statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }


def run_workload(args) -> tuple[dict, dict]:
    """One workload in this process: (result line, record of the run)."""
    from jobs import build_jobs  # imports diffseq, so only after import_sources()

    jobs = build_jobs(args.workload, args.seed, args.scale)
    setup = setup_samples(args)
    passes, tracers, problems = run_passes(jobs, args.seconds, bool(args.trace))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    untraced = [p for p in passes if not p.traced]
    if args.trace:
        layers = [layer_metrics([s for s in t.spans if s.name != "job"]) for t in tracers]
        metrics = median_metrics(layers)
        overhead = statistics.median(p.wall for p in passes if p.traced) - statistics.median(
            p.wall for p in untraced)
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(p.wall for p in untraced), "s"),
            "cpu_s": (statistics.median(p.cpu for p in untraced), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
    failed = sum(p.failed for p in passes)
    attempted = len(jobs) * len(passes)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "jobs": [j.name for j in jobs],
        "setup_samples_s": setup,
        "passes": [dataclasses.asdict(p) for p in passes],
        "fail_ratio": failed / attempted,
        "problems": problems,
        "result": line,
    }
    if args.trace:
        record["spans"] = [s for t in tracers for s in t.to_json()]
    return line, record


def write_record(args, record: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    return path


def summary(workload: str, line: dict) -> list[str]:
    rows = [f"{workload}: fail_ratio {line['failed']}/{line['attempted']} = "
            f"{line['failed'] / line['attempted']:.4g}"]
    rows += [f"  {k:36s} {m['value']:.6g} {m['unit']}" for k, m in line["metrics"].items()]
    return rows


def run_all(args) -> dict:
    """Each workload in a fresh process of its own, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, check=True,
                              timeout=CHILD_TIMEOUT + args.seconds)
        line = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        print("\n".join(summary(workload, line)), flush=True)
        combined["correct"] = combined["correct"] and line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for name, metric in line["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    import_sources()
    if args.setup_only:
        from jobs import build_jobs

        build_jobs(args.workload, args.seed, args.scale)
        print("ready", flush=True)
        return 0
    line, record = run_workload(args)
    path = write_record(args, record)
    print("\n".join(summary(args.workload, line)), file=sys.stderr)
    print(f"  machine {json.dumps(record['machine'])}; record in {path}", file=sys.stderr)
    for problem in record["problems"][:20]:
        print(f"  FAIL {problem}", file=sys.stderr)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

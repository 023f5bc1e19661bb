"""Tests of the benchmark itself, at the tiny input scale.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run

run.import_sources()

import jobs  # noqa: E402  (needs the sources on the path)
import oracle  # noqa: E402
from diffseq import verify  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> dict:
    cmd = [sys.executable, str(Path(run.__file__)), "--scale", "tiny", "--seconds", "0.3", *args]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=run.ROOT, check=True, timeout=120)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def tiny_fail_ratio(workload: str) -> float:
    job_list = jobs.build_jobs(workload, 1, "tiny")
    passes, _, problems = run.run_passes(job_list, 0.0, trace=False)
    return sum(p.failed for p in passes) / (len(job_list) * len(passes))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    line = bench("--workload", workload, "--trace", "0")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert line["correct"] and line["attempted"] >= len(jobs.build_jobs(workload, 1, "tiny"))
    assert line["failed"] / line["attempted"] == 0  # fail_ratio


def test_traced_run_prints_every_per_layer_metric():
    line = bench("--workload", "search", "--trace", "1")
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["search.delta_calls"] == 5 and metrics["search.parallel_calls"] == 1
    assert metrics["search.parallel_node_ratio"] > 0 and metrics["search.nodes"] > 0
    assert metrics["verify.chain_calls"] == 0
    assert line["failed"] == 0


def test_spans_name_layers_and_point_at_their_job():
    tracer = Tracer(True)
    run.run_pass(jobs.build_jobs("certify", 1, "tiny"), tracer, 0, {}, [])
    job_spans = {s.id: s for s in tracer.spans if s.name == "job"}
    layer_spans = [s for s in tracer.spans if s.name != "job"]
    assert {s.name for s in layer_spans} <= set(run.SPAN_NAMES)
    assert all(job_spans[s.parent].job == s.job for s in layer_spans)
    assert all(job_spans[s.parent].start <= s.start <= s.end <= job_spans[s.parent].end
               for s in layer_spans)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_gate_passes_on_the_seed_code(workload):
    assert tiny_fail_ratio(workload) == 0


def test_gate_catches_a_wrong_pinned_value(monkeypatch):
    wrong = [(*inst[:5], inst[5] + 1 if inst[5] else None, inst[6])
             for inst in jobs.SEARCH_INSTANCES["tiny"]]
    monkeypatch.setitem(jobs.SEARCH_INSTANCES, "tiny", tuple(wrong))
    assert tiny_fail_ratio("search") > 0


def test_gate_catches_a_corrupted_witness(monkeypatch):
    real = verify.longest_mono_diffseq

    def corrupted(coloring, view):
        result = real(coloring, view)
        result.witness[-1] += 1
        return result

    monkeypatch.setattr(verify, "longest_mono_diffseq", corrupted)
    assert tiny_fail_ratio("certify") > 0


def test_gate_catches_a_changed_coloring(monkeypatch):
    real = jobs.colorings.frac_coloring

    def shifted(alpha, r, n):
        coloring = real(alpha, r, n)
        coloring.colors = coloring.colors[1:] + coloring.colors[:1]
        return coloring

    monkeypatch.setattr(jobs.colorings, "frac_coloring", shifted)
    assert tiny_fail_ratio("dense") > 0


def test_same_seed_same_inputs_and_seed_moves_only_alphas():
    def outputs(seed):
        return [run.digest(j.run(Tracer(False))) for j in jobs.build_jobs("certify", seed, "tiny")]

    first, again, other = outputs(7), outputs(7), outputs(8)
    assert first == again
    # only the two seeded jobs (the last two) depend on the seed
    assert first[:-2] == other[:-2]
    assert [j.name for j in jobs.build_jobs("dense", 7, "tiny")] == [
        j.name for j in jobs.build_jobs("dense", 8, "tiny")]


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in run.ROOT.joinpath("perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == b""


# -- the oracle against brute force -------------------------------------------------------


def brute_chain(word, gaps):
    n, best = len(word), 0
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            if len({word[x - 1] for x in combo}) == 1 and all(
                    b - a in gaps for a, b in zip(combo, combo[1:])):
                best = size
                break
    return best


def test_oracle_chain_progression_and_pair_match_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 11)
        word = bytes(rng.randint(1, 3) for _ in range(n))
        gaps = sorted(rng.sample(range(1, 12), rng.randint(1, 4)))
        assert oracle.longest_chain(word, gaps) == brute_chain(word, set(gaps))
        ap = max(
            length for a in range(1, n + 1) for d in gaps for length in range(1, n + 1)
            if a + (length - 1) * d <= n
            and len({word[a + i * d - 1] for i in range(length)}) == 1
        )
        assert oracle.longest_progression(word, gaps) == ap
        pair = any(word[x - 1] == word[x + d - 1] for d in gaps for x in range(1, n - d + 1))
        assert oracle.has_pair(word, gaps) == pair


def test_oracle_colors_match_a_float_reference():
    # small inputs, where double precision is far from any cut point
    for P, U, L in ((0, 1, 8), (3, 1, 8), (2, 5, 7), (-1, 1, 2), (4, -3, 11)):
        alpha = (P + U * 5 ** 0.5) / L
        for r in (2, 3):
            expected = bytes(int(r * ((alpha * x) % 1)) + 1 for x in range(1, 200))
            assert oracle.frac_colors((P, U, L), r, 199) == expected
    golden = (5 ** 0.5 - 1) / 2
    expected = bytes(1 if (x * golden) % 1 < golden else 2 for x in range(1, 200))
    assert oracle.rotation_colors(jobs.GOLDEN, jobs.ZERO, jobs.GOLDEN, 199) == expected


def test_oracle_window_check_finds_the_first_miss():
    # {sqrt5/8 * f} for f = 1, 1, 2, 3: 0.2795, 0.2795, 0.559, 0.8385
    fib = oracle.fibonacci_terms(4)
    assert oracle.first_outside((0, 1, 8), fib, Fraction(1, 10), Fraction(9, 10), False) is None
    assert oracle.first_outside((0, 1, 8), fib, Fraction(1, 4), Fraction(1, 2), True) == 2

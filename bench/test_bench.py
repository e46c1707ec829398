"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

They run the smoke mode (tiny inputs), so they take a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def results(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_spec_names_the_workloads_and_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]


def test_smoke_runs_every_workload_untraced_and_traced():
    proc = bench("--workload", "all", "--smoke")
    assert proc.returncode == 0, proc.stderr
    got = results(proc.stdout)
    assert len(got) == 2 * len(WORKLOADS)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    layers = {m["name"] for m in SPEC["per_layer"]}
    for untraced, traced in zip(got[::2], got[1::2]):
        for res in (untraced, traced):
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert set(untraced["metrics"]) == e2e
        assert set(traced["metrics"]) == layers
        assert all(untraced["metrics"][m]["value"] > 0 for m in e2e)


@pytest.mark.parametrize("workload", ["tall-ask", "qbf-ask", "ontology-load"])
def test_traced_counts_repeat_for_a_seed(workload):
    runs = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "5", "--trace", "1", "--smoke")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1])["metrics"])
    for name in ("evaluate.visited", "evaluate.witness_steps", "kb.normal_axioms", "stratify.levels"):
        assert runs[0][name] == runs[1][name]


def test_wrong_answer_is_reported(capsys):
    run.strata = run.import_strata()
    wl = WORKLOADS["tall-ask"]
    inputs = wl.generate(3, wl.smoke_params)
    done = [(k, run.Outcome(not want)) for k, want in enumerate(inputs.expected[:3])]
    bad = run.check(inputs, done, kb_abox=None)
    assert [pos for pos, _ in bad] == [0, 1, 2]


def test_refuses_to_run_without_the_program():
    lonely = BENCH / "out" / "lonely"
    shutil.rmtree(lonely, ignore_errors=True)
    try:
        shutil.copytree(BENCH, lonely / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", lonely)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "chain-batch", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=lonely, timeout=170,
        )
        assert proc.returncode != 0
        assert not results(proc.stdout)
    finally:
        shutil.rmtree(lonely, ignore_errors=True)


@pytest.mark.parametrize("workload", ["tall-ask", "qbf-ask"])
def test_every_seed_gets_half_true_answers(workload):
    wl = WORKLOADS[workload]
    for seed in (1, 2):
        expected = wl.generate(seed, wl.smoke_params).expected
        assert sum(expected) * 2 == len(expected)

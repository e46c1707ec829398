#!/usr/bin/env python3
"""Measure the benchmark's baseline and write bench/record.json.

    python3 bench/baseline.py [--seeds 1,2,...,10] [--workloads a,b] [--sets 2]

For every workload: `--sets` sets of one untraced run per seed.  Each set
gives every end-to-end metric's median, quartiles and spread = (q3 - q1) /
median, checked against a third of the metric's bound in BENCHMARK.json;
each later set's median is compared with the first's (worse_by, a share of
the first median, checked against the bound).  Then one more untraced run of
the first seed (does peak_rss_mb repeat?) and two traced runs of the first
seed (per-layer metrics; do the counts repeat exactly?).  Runs go one at a
time, each in its own process.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = ("evaluate.visited", "evaluate.witness_steps", "kb.normal_axioms",
          "kb.fresh_names", "stratify.levels")

NOTES = {
    "setup_s": "Median of the compiles in a run (parse, normalize, stratify, Evaluator, "
    "saturation pre-check): setup_reps of them before each round plus, on batch "
    "workloads, the round's own compile.  Not 0 on the ask workloads, where every "
    "operation pays it again inside its latency, because an end-to-end metric must "
    "never be 0.",
    "rounds": "An untraced run repeats rounds of the workload's whole operation list until "
    "the time is up, so every round does the same work.  An operation's latency is its "
    "median over the rounds; latency_p50_ms and latency_p90_ms are taken over those, "
    "and ops_per_s is the operation count over the median round's wall time, which on "
    "batch workloads includes the round's compile.",
    "spread": "(q3 - q1) / median of a metric over the seeds of one set; "
    "spread_within_third_of_bound says whether it is below a third of the metric's bound "
    "in BENCHMARK.json in every set.  worse_by is how much worse each later set's median "
    "is than the first's, as a share of the first; within_bound says it is at most the "
    "bound.",
    "failed_frac": "Printed by every run as failed / attempted and carried as the 'failed' "
    "and 'attempted' fields of the result; not an end_to_end metric, because a metric "
    "whose median is 0 has no relative spread or bound.",
    "trace_overhead": "trace.overhead_frac compares the same stage calls with and without "
    "spans, alternating op by op; on ask workloads that is staged_ask, not the CLI, whose "
    "answers are only compared.  The overhead is a few percent at most, so machine noise "
    "can make it negative.",
    "unmeasured_layers": {
        "rewrite": "automaton export (build_automaton, export_automaton) is not on the path "
        "of an ask or a query, so no workload times it",
        "fuzz": "the differential fuzz harness is a test tool, not on the path of an ask "
        "or a query",
        "qbf": "the QBF generator only makes qbf-ask's inputs, outside the timed region",
        "cli": "argument parsing and printing in strata ask are timed inside every ask "
        "latency but have no span of their own",
    },
    "readme_bound": "evaluate.visited_over_bound is the largest visited / (individuals x "
    "(concepts + 2)) of any operation; the README promises at most 1.  A value above 1 "
    "in the traced metrics below contradicts the README; the README is to be fixed by a "
    "later change.",
}


def run(workload, seed, trace, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: {res['attempted']} ops, {wall:.1f} s wall",
          flush=True)
    return {k: v["value"] for k, v in res["metrics"].items()}, wall


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--out", default=str(BENCH / "record.json"))
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = SPEC["run_seconds"]
    spec = {m["name"]: m for m in SPEC["end_to_end"]}
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}

    record = {"run_seconds": seconds, "seeds": seeds, "notes": NOTES, "workloads": {}}
    steady = True
    for name in args.workloads.split(","):
        wl = WORKLOADS[name]
        sets, walls = [], []
        for _ in range(args.sets):
            e2e = {}
            for seed in seeds:
                metrics, wall = run(name, seed, 0, seconds)
                walls.append(wall)
                for k, v in metrics.items():
                    e2e.setdefault(k, []).append(v)
            sets.append(e2e)
        again, _ = run(name, seeds[0], 0, seconds)
        traced = [run(name, seeds[0], 1, seconds)[0] for _ in range(2)]
        stats = {}
        for k, m in spec.items():
            per_set = [summary(e2e[k]) for e2e in sets]
            first = per_set[0]["median"]
            sign = 1 if m["better"] == "lower" else -1
            worse_by = [sign * (s["median"] - first) / first for s in per_set[1:]]
            stats[k] = {
                "sets": per_set,
                "spread_within_third_of_bound": all(s["spread"] < m["bound"] / 3 for s in per_set),
                "worse_by": worse_by,
                "within_bound": all(w <= m["bound"] for w in worse_by),
            }
            steady &= stats[k]["spread_within_third_of_bound"] and stats[k]["within_bound"]
        counts_repeat = all(traced[0][k] == traced[1][k] for k in COUNTS)
        steady &= counts_repeat
        record["workloads"][name] = {
            "kind": wl.kind,
            "why": why[name],
            "layers": list(wl.layers),
            "params": wl.params,
            "setup_reps": wl.setup_reps,
            "trace_ops": wl.trace_ops,
            "end_to_end": stats,
            "max_wall_s": max(walls),
            "repeat_seed": seeds[0],
            "peak_rss_mb_repeat": [sets[0]["peak_rss_mb"][0], again["peak_rss_mb"]],
            "counts_repeat": counts_repeat,
            "traced": traced,
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, w in record["workloads"].items():
        for k, s in w["end_to_end"].items():
            spreads = " ".join(f"{x['spread']:.3f}" for x in s["sets"])
            worse = " ".join(f"{x:+.3f}" for x in s["worse_by"])
            flag = "" if s["spread_within_third_of_bound"] else "  <-- spread above a third of the bound"
            flag += "" if s["within_bound"] else "  <-- median worse than the bound"
            print(f"{name:14s} {k:15s} median {s['sets'][0]['median']:10.4g} "
                  f"spread {spreads} worse_by {worse}{flag}")
        if not w["counts_repeat"]:
            print(f"{name:14s} traced counts differ between two runs of seed {w['repeat_seed']}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

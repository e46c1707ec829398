#!/usr/bin/env python3
"""The strata benchmark: seeded workloads, checked answers, per-layer traces.

Run from the root of a strata checkout:

    python3 bench/run.py --workload chain-batch --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, untraced then traced
    python3 bench/run.py --workload all --smoke       # tiny sizes, a few seconds

One process, one thread, closed loop: each operation starts when the previous
one has returned.  A `batch` workload compiles its KB (parse, normalize,
stratify, Evaluator, saturation pre-check) and then makes one
`Evaluator.collapsed` call per operation; an `ask` workload runs
`strata.cli.main(["ask", ...])` in-process per operation, so every operation
pays the whole pipeline.  Every answer is checked against a reference that
does not use the collapsed engine, and every witness is replayed with
`validate_witness`.

With --trace 0 the run measures for about --seconds, in rounds of the
workload's whole operation list (at least 100 operations, so that at least
ten latencies lie beyond p90), and prints the end-to-end metrics.  With
--trace 1 it runs the workload's fixed list of trace operations untraced and
traced, alternating op by op, with a span around every call into the kb,
stratify, evaluate and saturate layers, and prints the per-layer metrics; the
spans go to bench/out/.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.
A wrong answer or witness prints the operation on stderr and makes the exit
code 1; a checkout without src/strata exits non-zero before printing one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from tracing import Tracer
from workloads import ASK, WORKLOADS, Inputs, Op, saturation_reference

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SMOKE_TRACE_OPS = 20
CHILD_TIMEOUT_S = 900


def import_strata():
    """Import strata from this checkout's src/, never from anywhere else."""
    pkg = ROOT / "src" / "strata"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: {pkg} not found; run the benchmark from a strata checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import strata
    import strata.cli

    if Path(strata.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported strata from {strata.__file__}, not from {pkg}")
    return strata


strata = None  # set by run_one, after the checkout has been checked


# ---------------------------------------------------------------------------
# Calls into the program
# ---------------------------------------------------------------------------


def _plain(_name, fn, *args):
    return fn(*args)


@dataclass
class Compiled:
    abox: object
    tbox: object
    fresh: dict
    heights: dict
    ev: object
    inconsistent: bool


def compile_kb(text: str, call=_plain) -> Compiled:
    """The stages `entails_iq` runs before evaluation, in the same order.

    The generated KBs have no order: section, so the heights always come
    from check_stratification.
    """
    kb = call("kb.parse", strata.parse_kb, text)
    tbox, fresh = call("kb.normalize", strata.normalize, kb.gcis)
    res = call("stratify.check", strata.check_stratification, tbox)
    if not res.accepted:
        raise strata.NotStratifiedError(res.violations)
    ev = call("evaluate.init", strata.Evaluator, tbox, kb.abox, res.height)
    inconsistent = call("saturate.precheck", ev.oracle_inconsistent)
    return Compiled(kb.abox, tbox, fresh, res.height, ev, inconsistent)


@dataclass
class Outcome:
    answer: Optional[bool] = None
    witness: Optional[tuple] = None
    error: Optional[str] = None


_WITNESS_RE = re.compile(r"^witness: (\S+) \{([^}]*)\} / (\S+) -(.+?)-> \{([^}]*)\} / (\S+) (\S+)$")


def parse_witness(lines):
    """Rebuild RunStep objects from the `witness:` lines `strata ask` prints."""

    def symbol(text):
        if text.startswith("aut[") and text.endswith("]?"):
            return strata.AutoTest(text[4:-2])
        if text.endswith("?"):
            return strata.ConceptTest(text[:-1])
        if text.startswith("inv "):
            return strata.RoleStep(strata.Role(text[4:], True))
        return strata.RoleStep(strata.Role(text))

    steps = []
    for line in lines:
        m = _WITNESS_RE.match(line)
        if m is None:
            raise ValueError(f"unreadable witness line {line!r}")
        src, p1, g1, sym, p2, g2, dst = m.groups()
        state = strata.AutState(frozenset(p1.split(",")), g1)
        nxt = strata.AutState(frozenset(p2.split(",")), g2)
        steps.append(strata.RunStep(src, state, symbol(sym), nxt, dst))
    return tuple(steps)


def cli_ask(path: Path, op: Op, witness: bool) -> Outcome:
    """One `strata ask`, in-process, with its output captured and read back."""
    argv = ["ask", str(path), "--query", op.query()] + (["--witness"] if witness else [])
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = strata.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an operation that raises is a failed operation
        return Outcome(error=f"{type(exc).__name__}: {exc}")
    lines = out.getvalue().splitlines()
    answer = next((ln[len("answer: ") :] for ln in lines if ln.startswith("answer: ")), None)
    if rc not in (0, 1) or answer != ("true" if rc == 0 else "false"):
        return Outcome(error=f"exit {rc}, answer {answer}: {err.getvalue().strip()}")
    try:
        steps = parse_witness(ln for ln in lines if ln.startswith("witness: "))
    except ValueError as exc:
        return Outcome(rc == 0, error=str(exc))
    return Outcome(rc == 0, steps or None)


def staged_ask(path: Path, op: Op, witness: bool, counts: "Counts", call=_plain) -> Outcome:
    """The stage functions `strata ask` runs, in order, each through `call`."""
    c = compile_kb(path.read_text(encoding="utf-8"), call)
    counts.add_compile(c)
    if op.ind not in c.abox.asserted:
        raise strata.KbError(f"unknown individual {op.ind!r}")
    if c.inconsistent:
        return Outcome(True)
    answer = counts.collapsed(c, op, call)
    steps = None
    if answer and witness:
        steps = call("evaluate.witness", c.ev.collapsed_witness, op.concept, op.ind)
        counts.witness_steps += len(steps or ())
    return Outcome(answer, steps)


def staged_query(c: Compiled, op: Op, counts: "Counts", call=_plain) -> Outcome:
    return Outcome(counts.collapsed(c, op, call))


def guarded(fn, *args) -> Outcome:
    try:
        return fn(*args)
    except Exception as exc:  # an operation that raises is a failed operation
        return Outcome(error=f"{type(exc).__name__}: {exc}")


class Counts:
    """Layer counters gathered during a traced pass."""

    def __init__(self):
        self.compiles = 0
        self.normal_axioms = 0
        self.fresh_names = 0
        self.levels = 0
        self.visited = 0
        self.worst_over_bound = 0.0
        self.witness_steps = 0

    def add_compile(self, c: Compiled):
        self.compiles += 1
        self.normal_axioms += len(c.tbox.axioms)
        self.fresh_names += len(c.fresh)
        self.levels += max(c.heights.values(), default=0) + 1

    def collapsed(self, c: Compiled, op: Op, call) -> bool:
        before = c.ev.collapsed_visited
        answer = call("evaluate.collapsed", c.ev.collapsed, op.concept, op.ind)
        visited = c.ev.collapsed_visited - before
        self.visited += visited
        bound = len(c.abox.individuals) * (len(c.tbox.concept_names) + 2)
        self.worst_over_bound = max(self.worst_over_bound, visited / bound)
        return answer


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_kbs(inputs: Inputs, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, text in enumerate(inputs.kb_texts):
        paths.append(workdir / f"kb{i:04d}.kb")
        paths[-1].write_text(text, encoding="utf-8")
    return paths


def run_op(wl, inputs, paths, compiled, op) -> Outcome:
    if wl.kind == ASK:
        return cli_ask(paths[op.kb], op, inputs.witness)
    return guarded(lambda: Outcome(compiled.ev.collapsed(op.concept, op.ind)))


def measure(wl, inputs, paths, seconds):
    """Untraced run of about `seconds`: rounds of the whole op list.

    A round runs every operation of the list once, in order; a batch round
    first compiles its KB afresh (counted in the round's time and taken as a
    set-up sample), so that its queries start from cold caches.  Before each
    round `setup_reps` more compiles of the workload's KBs, in turn, are
    timed as set-up samples, so that the samples spread over the whole run.
    Rounds repeat while the last one says the next would end before the
    deadline.  Every round does the same work, so rounds differ only by
    machine noise: an operation's latency is its median over the rounds, the
    percentiles are taken over those, ops_per_s is that of the median round,
    and setup_s is the median set-up sample.  Medians, not minima: on a
    shared machine the speed jumps between a slow and a fast state for
    seconds at a time, and a minimum reports whichever state one lucky
    repetition met.
    """
    ops, texts = inputs.ops, inputs.kb_texts
    deadline = time.perf_counter() + seconds
    setups, done, rounds, lat = [], [], [], [[] for _ in ops]
    last = 0.0  # wall time of the last round and the set-up before it
    while not rounds or time.perf_counter() + last < deadline:
        start = time.perf_counter()
        for _ in range(wl.setup_reps):
            t0 = time.perf_counter()
            compile_kb(texts[len(setups) % len(texts)])
            setups.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        compiled = None
        if wl.kind != ASK:
            compiled = compile_kb(texts[0])
            setups.append(time.perf_counter() - t0)
        for k, op in enumerate(ops):
            t1 = time.perf_counter()
            done.append((k, run_op(wl, inputs, paths, compiled, op)))
            lat[k].append(time.perf_counter() - t1)
        rounds.append(time.perf_counter() - t0)
        last = time.perf_counter() - start
        compiled = None  # let this round's KB go before the next is timed
    per_op = [statistics.median(t) for t in lat]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(ops) / statistics.median(rounds), "1/s"),
        "latency_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(per_op, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print(f"rounds: {len(rounds)} of {len(ops)} operations, setup samples: {len(setups)}")
    return done, metrics, []


def measure_traced(wl, inputs, paths, n_ops, trace_path, meta):
    """The fixed trace operations untraced and traced; per-layer metrics.

    Both sides do the same work, the traced side with a span around every
    layer call: a batch workload compiles its KB once per side and then
    answers one query per operation; an ask workload runs the stages of
    `strata ask` (`staged_ask`) per operation.  The sides take turns going
    first, op by op, so that neither gets the other's warm-up.  On an ask workload every
    operation also goes through `strata.cli.main`, untimed, and both sides
    must answer as the CLI does; on a batch workload the traced side must
    answer as the untraced one.
    """
    ops = inputs.ops[:n_ops]
    tracer, counts, spare = Tracer(), Counts(), Counts()  # spare: the untraced side's
    untraced_s = traced_s = 0.0
    plain_kb = traced_kb = None
    if wl.kind != ASK:
        text = inputs.kb_texts[0]
        compile_kb(text)  # warm-up, so that the first timed side is not the cold one
        t0 = time.perf_counter()
        plain_kb = compile_kb(text)
        t1 = time.perf_counter()
        traced_kb = tracer.root("compile", compile_kb, text, tracer.call)
        t2 = time.perf_counter()
        untraced_s, traced_s = t1 - t0, t2 - t1
        counts.add_compile(traced_kb)
    refs, plain, traced = [], [], []
    for op in ops:
        if wl.kind == ASK:
            path = paths[op.kb]
            refs.append(cli_ask(path, op, inputs.witness))
            untraced_args = (staged_ask, path, op, inputs.witness, spare)
            traced_args = (staged_ask, path, op, inputs.witness, counts, tracer.call)
        else:
            untraced_args = (staged_query, plain_kb, op, spare)
            traced_args = (staged_query, traced_kb, op, counts, tracer.call)
        for side in (0, 1) if len(plain) % 2 == 0 else (1, 0):
            t0 = time.perf_counter()
            if side == 0:
                plain.append(guarded(*untraced_args))
                untraced_s += time.perf_counter() - t0
            else:
                traced.append(guarded(tracer.root, "op", *traced_args))
                traced_s += time.perf_counter() - t0
    tracer.write(trace_path, meta)

    # The traced pass must answer exactly as the untraced pass and the CLI.
    mismatches = [
        (k, f"traced answer {t.answer}, untraced {p.answer}, cli {r.answer}")
        for k, (p, t, r) in enumerate(zip(plain, traced, refs or plain))
        if not p.answer == t.answer == r.answer
    ]
    self_s = tracer.self_seconds()
    layer = {k: self_s.get(k, 0.0) for k in (
        "kb.parse", "kb.normalize", "stratify.check", "evaluate.init",
        "saturate.precheck", "evaluate.collapsed", "evaluate.witness",
    )}
    per_compile = max(counts.compiles, 1)
    metrics = {f"{k}_s": (v, "s") for k, v in layer.items()}
    metrics.update({
        "kb.normal_axioms": (counts.normal_axioms / per_compile, "count"),
        "kb.fresh_names": (counts.fresh_names / per_compile, "count"),
        "stratify.levels": (counts.levels / per_compile, "count"),
        "evaluate.visited": (counts.visited, "count"),
        "evaluate.visited_per_op": (counts.visited / len(ops), "count"),
        "evaluate.visited_over_bound": (counts.worst_over_bound, "ratio"),
        "evaluate.witness_steps": (counts.witness_steps, "count"),
        "evaluate.collapsed_over_saturate": (
            layer["evaluate.collapsed"] / layer["saturate.precheck"], "ratio"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
    })
    return list(enumerate(traced)), metrics, mismatches


def check(inputs: Inputs, done, kb_abox):
    """(position in done, reason) for every outcome that disagrees with its reference."""
    expected = inputs.expected
    if expected is None:
        expected = saturation_reference(inputs)
    bad = []
    for pos, (k, got) in enumerate(done):
        op = inputs.ops[k]
        if got.error:
            bad.append((pos, got.error))
        elif got.answer != expected[k]:
            bad.append((pos, f"answer {got.answer}, expected {expected[k]}"))
        elif inputs.witness and got.answer:
            try:
                strata.validate_witness(got.witness, kb_abox(op.kb), op.ind)
            except strata.KbError as exc:
                bad.append((pos, f"witness rejected: {exc}"))
    return bad


def run_one(args) -> int:
    global strata
    strata = import_strata()

    wl = WORKLOADS[args.workload]
    inputs = wl.generate(args.seed, wl.smoke_params if args.smoke else wl.params)
    gc.freeze()  # the collector need not rescan the benchmark's own inputs
    tag = f"{wl.name}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    workdir = OUT / f"kb-{tag}"
    try:
        paths = write_kbs(inputs, workdir) if wl.kind == ASK else []
        if args.trace:
            n_ops = min(SMOKE_TRACE_OPS if args.smoke else wl.trace_ops, len(inputs.ops))
            meta = {"workload": wl.name, "seed": args.seed, "smoke": args.smoke}
            done, metrics, bad = measure_traced(
                wl, inputs, paths, n_ops, OUT / f"trace-{tag}.json", meta
            )
        else:
            done, metrics, bad = measure(wl, inputs, paths, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    aboxes = {}

    def kb_abox(i):
        if i not in aboxes:
            aboxes[i] = strata.parse_kb(inputs.kb_texts[i]).abox
        return aboxes[i]

    bad += check(inputs, done, kb_abox)
    for pos, reason in bad:
        op = inputs.ops[done[pos][0]]
        print(
            f"FAIL workload={wl.name} seed={args.seed} query={op.query()} kb={op.kb}: {reason}",
            file=sys.stderr,
        )
    failed = len({pos for pos, _ in bad})
    print(f"workload: {wl.name} ({wl.kind}, seed {args.seed}, trace {args.trace})")
    print(f"operations: {len(done)}")
    print(f"failed_frac: {failed / len(done):.6f}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not bad,
        "attempted": len(done),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not bad else 1


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"error: {name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="default: 24, or 1 with --smoke")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 24.0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

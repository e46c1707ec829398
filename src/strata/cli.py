"""Command-line entry point.

Subcommands: check, rewrite, ask, oracle, bench, fuzz.  Output is plain
"key: value" text so runs can be diffed; timing lines only appear with
--timings.  Exit codes: 0 for ok/true/accepted, 1 for false/rejected or a
found counterexample, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .evaluate import compile_kb, entails_iq
from .kb import KbError, ParseError, RESERVED, _is_name, kb_from_normal, normalize_kb, parse_kb
from .qbf import qbf_to_kb, qbf_valid_bruteforce, random_qbf
from .rewrite import build_automaton, export_automaton
from .saturate import oracle_entails
from .stratify import NotStratifiedError, heights_for, verify_preorder
from .fuzz import run_fuzz

_QUERY_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)\(([A-Za-z][A-Za-z0-9_]*)\)$")


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise KbError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise KbError(f"cannot read {path}: not UTF-8 text (line {line})")
    return parse_kb(text)


def _write(path: Path, text: str):
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise KbError(f"cannot write {path}: {exc.strerror}")


def _concept_name(text: str, kb) -> str:
    """`text` read as a concept of `kb` by the KB syntax: a spelling of Top
    or Bot, or a name that is neither a keyword nor a role of `kb`."""
    if text in RESERVED:
        return RESERVED[text]
    if not _is_name(text):
        raise KbError(f"{text!r} is not a concept name")
    if text in kb.role_names():
        raise KbError(f"{text} is a role name, not a concept")
    return text


def _parse_query(text: str, kb):
    """The (concept, individual) of a query `C(a)` over `kb`."""
    m = _QUERY_RE.match(text.strip())
    if not m:
        raise KbError(f"queries look like C(a), got {text!r}")
    return _concept_name(m.group(1), kb), m.group(2)


def _print_heights(heights):
    for name in sorted(heights, key=lambda n: (heights[n], n)):
        print(f"height: {name} {heights[name]}")


def _cmd_check(args) -> int:
    kb = _load(args.kb)
    # compile_kb's stages, run one by one so the fresh names print first
    tbox, fresh = normalize_kb(kb.gcis, kb.abox)
    for name in sorted(fresh):
        print(f"fresh: {name}")
    heights, notes = heights_for(tbox, kb.order, fresh)  # rejection: see main()
    print("result: ACCEPTED")
    print(f"order: {'minimal' if kb.order is None else 'order-section'}")
    for note in notes:
        print(f"note: {note}")
    _print_heights(heights)
    return 0


def _cmd_rewrite(args) -> int:
    kb = _load(args.kb)
    concept = _concept_name(args.for_concept, kb)
    ev = compile_kb(kb.gcis, kb.abox, kb.order, concept)
    nfa = build_automaton(ev.tbox, ev.heights, concept, include_weak=args.include_weak)
    if args.dot:
        _write(Path(args.dot), export_automaton(nfa, "dot"))
    sys.stdout.write(export_automaton(nfa, "text"))
    if args.dot:
        print(f"dot: {args.dot}")
    return 0


def _cmd_ask(args) -> int:
    kb = _load(args.kb)
    concept, ind = _parse_query(args.query, kb)
    result = entails_iq(
        kb.gcis,
        kb.abox,
        concept,
        ind,
        engine=args.engine,
        consistency=args.consistency,
        order=kb.order,
        want_witness=args.witness,
    )
    print(f"answer: {'true' if result.answer else 'false'}")
    print(f"engine: {result.diagnostics['engine']}")
    print(f"consistency-check: {result.diagnostics['consistency']}")
    print(f"inconsistent: {'true' if result.inconsistent else 'false'}")
    print(f"level: {result.diagnostics['level']}")
    if "visited" in result.diagnostics:
        print(f"visited: {result.diagnostics['visited']}")
    hline = " ".join(
        f"{n}={h}" for n, h in sorted(result.heights.items(), key=lambda kv: (kv[1], kv[0]))
    )
    print(f"heights: {hline}")
    if args.timings:
        print(f"elapsed-s: {result.diagnostics['elapsed']:.3f}")
    if args.witness and result.witness:
        for st in result.witness:
            print(
                f"witness: {st.source} {st.state.label()} -{st.symbol}-> "
                f"{st.next_state.label()} {st.target}"
            )
    return 0 if result.answer else 1


def _cmd_oracle(args) -> int:
    kb = _load(args.kb)
    concept, ind = _parse_query(args.ask, kb)
    # no heights: the oracle answers unstratified KBs too
    tbox, _ = normalize_kb(kb.gcis, kb.abox, concept)
    answer, trace = oracle_entails(tbox, kb.abox, concept, ind, want_trace=args.trace)
    print(f"answer: {'true' if answer else 'false'}")
    if args.trace and answer:
        if trace is None:
            print("trace: unavailable (inconsistent KB entails everything)")
        else:
            print(f"steps: {len(trace)}")
            for i, st in enumerate(trace, start=1):
                print(f"step {i}: {st}")
    return 0 if answer else 1


def _cmd_bench(args) -> int:
    if args.kind != "qbf":
        raise KbError(f"unknown benchmark {args.kind!r}")
    if args.count < 0:
        raise KbError(f"count must be at least 0, got {args.count}")
    failures = 0
    emit_dir = Path(args.emit_dir) if args.emit_dir else None
    if emit_dir:
        try:
            emit_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise KbError(f"cannot create {emit_dir}: {exc.strerror}")
    for i in range(args.count):
        formula = random_qbf(args.seed + i, args.n, args.m)
        gen = qbf_to_kb(formula)
        valid = qbf_valid_bruteforce(formula)
        order_ok = not verify_preorder(gen.tbox, gen.heights)
        result = entails_iq(kb_from_normal(gen.tbox, gen.abox).gcis, gen.abox, *gen.query)
        ok = (result.answer == valid) and order_ok
        if not ok:
            failures += 1
        if emit_dir:
            _write(emit_dir / f"case{i:03d}.kb", gen.kb_text())
        print(
            f"case {i:03d}: n={args.n} m={args.m} valid={str(valid).lower()} "
            f"entailed={str(result.answer).lower()} "
            f"order={'ok' if order_ok else 'BAD'} "
            f"status={'OK' if ok else 'FAIL'}"
        )
    print(f"total: {args.count}")
    print(f"failures: {failures}")
    return 0 if failures == 0 else 1


def _cmd_fuzz(args) -> int:
    report = run_fuzz(args.cases, args.seed, jobs=args.jobs)
    print(f"cases: {report.cases}")
    print(f"queries: {report.queries}")
    print(f"disagreements: {len(report.failures)}")
    if report.failures:
        f = report.failures[0]
        print(f"disagreement: case {f.case} (seed {f.seed}) query {f.concept}({f.ind})")
        for engine, ans in sorted(f.answers.items()):
            print(f"answer[{engine}]: {ans}")
        print("kb:")
        sys.stdout.write(f.kb_text)
        return 1
    return 0


def _build_parser():
    p = argparse.ArgumentParser(
        prog="strata",
        description="Stratified-ontology instance checking via nested path automata.",
    )
    p.add_argument("--timings", action="store_true", help="print timing lines")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="decide stratifiability, print heights")
    c.add_argument("kb")
    c.set_defaults(fn=_cmd_check)

    r = sub.add_parser("rewrite", help="build and print the query automaton")
    r.add_argument("kb")
    r.add_argument("--for", dest="for_concept", required=True, metavar="C")
    r.add_argument("--dot", metavar="FILE")
    r.add_argument("--include-weak", action="store_true")
    r.set_defaults(fn=_cmd_rewrite)

    a = sub.add_parser("ask", help="answer an instance query")
    a.add_argument("kb")
    a.add_argument("--query", required=True, metavar="C(a)")
    a.add_argument("--engine", choices=("collapsed", "naive", "oracle"), default="collapsed")
    a.add_argument("--consistency", choices=("oracle", "automaton", "none"), default="oracle")
    a.add_argument("--witness", action="store_true")
    a.set_defaults(fn=_cmd_ask)

    o = sub.add_parser("oracle", help="answer by saturation, optionally with a derivation")
    o.add_argument("kb")
    o.add_argument("--ask", required=True, metavar="C(a)")
    o.add_argument("--trace", action="store_true")
    o.set_defaults(fn=_cmd_oracle)

    b = sub.add_parser("bench", help="generated benchmarks cross-checked by brute force")
    b.add_argument("kind", choices=("qbf",))
    b.add_argument("--n", type=int, default=3)
    b.add_argument("--m", type=int, default=3)
    b.add_argument("--count", type=int, default=100)
    b.add_argument("--seed", type=int, default=7)
    b.add_argument("--emit-dir", dest="emit_dir")
    b.set_defaults(fn=_cmd_bench)

    f = sub.add_parser("fuzz", help="random differential testing of the engines")
    f.add_argument("--cases", type=int, default=1000)
    f.add_argument("--seed", type=int, default=42)
    f.add_argument("--jobs", type=int, default=1)
    f.set_defaults(fn=_cmd_fuzz)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotStratifiedError as exc:
        print("result: REJECTED", file=sys.stdout)
        for v in exc.violations:
            print(f"violation: {v}")
        return 1
    except KbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

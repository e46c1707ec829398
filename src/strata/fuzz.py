"""Randomized differential testing: generated stratified KBs, engine agreement.

The generator draws a random height map first and only emits axioms the map
admits, so every generated TBox is stratified by construction (the checker
and ``verify_preorder`` re-verify both as a free cross-check).  Odd-numbered
cases run on the drawn map as a user order, even ones on the minimal heights.
The harness then runs every (concept, individual) instance query through the
collapsed engine, the faithful product search (with and without premise
weakening), and the saturation oracle, all behind the same consistency
pre-check, and reports any disagreement with a reproducible case seed and
the offending KB verbatim.  With witness validation, every true answer also
has both engines' witnesses validated and the oracle's derivation trace
replayed; a rejected trace is a ``{"trace": message}`` failure.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from random import Random
from typing import Dict, List, Tuple

from .evaluate import Evaluator, validate_witness
from .kb import (
    BOT,
    TOP,
    AboxGraph,
    And,
    ConjSub,
    ExLeft,
    ExRight,
    Exists,
    Gci,
    KbError,
    Role,
    Sub,
    TBox,
    format_kb,
    kb_from_normal,
)
from .saturate import replay_derivation
from .stratify import check_stratification, verify_preorder

# Names are drawn as a prefix of the pool, so a class with few names draws
# the same KBs whatever the pool holds past that prefix.
_CONCEPT_POOL = tuple("ABCDEFGHIJKLMNOP")
_ROLE_POOL = ("r", "s", "t")


def random_stratified_kb(
    rng: Random,
    max_concepts: int = 6,
    max_roles: int = 3,
    max_individuals: int = 10,
    max_gcis: int = 12,
    max_height: int = 3,
) -> Tuple[TBox, AboxGraph, Dict[str, int]]:
    """A random normal-form TBox admitted by a random height map, an ABox,
    and that map.

    Heights are drawn from 0..`max_height`, and at most `max_concepts` names
    (up to 16) from the concept pool.  The map covers every drawn concept
    and role name, including those no axiom uses.
    """
    if not 1 <= max_concepts <= len(_CONCEPT_POOL):
        raise KbError(f"max_concepts must lie between 1 and {len(_CONCEPT_POOL)}")
    names = list(_CONCEPT_POOL[: rng.randint(1, max_concepts)])
    roles = list(_ROLE_POOL[: rng.randint(1, max_roles)])
    h = {v: rng.randint(0, max_height) for v in names + roles}

    def pick_below(bound, pool, strict=False):
        ok = [v for v in pool if (h[v] < bound if strict else h[v] <= bound)]
        return rng.choice(ok) if ok else None

    axioms = []
    target = rng.randint(1, max_gcis)
    for _ in range(target * 6):
        if len(axioms) >= target:
            break
        shape = rng.choices(
            ("sub", "conj", "exr", "exl", "bot"), weights=(25, 20, 20, 25, 10)
        )[0]
        if shape == "sub":
            rhs = rng.choice(names)
            if rng.random() < 0.1:
                axioms.append(Sub(TOP, rhs))
                continue
            lhs = pick_below(h[rhs], names)
            axioms.append(Sub(lhs, rhs))
        elif shape == "conj":
            rhs = rng.choice(names)
            strict = pick_below(h[rhs], names, strict=True)
            if strict is None:
                continue
            other = pick_below(h[rhs], names)
            pair = [strict, other]
            rng.shuffle(pair)
            axioms.append(ConjSub(pair[0], pair[1], rhs))
        elif shape == "exr":
            lhs = TOP if rng.random() < 0.1 else rng.choice(names)
            lo = 0 if lhs == TOP else h[lhs]
            ok_roles = [r for r in roles if h[r] >= lo]
            if not ok_roles:
                continue
            role = rng.choice(ok_roles)
            if rng.random() < 0.3:
                filler = TOP
            else:
                ok_fill = [c for c in names if lo <= h[c] <= h[role]]
                if not ok_fill:
                    continue
                filler = rng.choice(ok_fill)
            axioms.append(ExRight(lhs, Role(role, rng.random() < 0.4), filler))
        elif shape == "exl":
            rhs = rng.choice(names)
            kind = rng.random()
            if kind < 0.3:
                role = pick_below(h[rhs], roles)
                if role is None:
                    continue
                filler = TOP
            elif kind < 0.5:
                role = pick_below(h[rhs], roles)
                if role is None:
                    continue
                filler = rhs
            else:
                filler = pick_below(h[rhs], names, strict=True)
                if filler is None:
                    continue
                role = pick_below(h[filler], roles)
                if role is None:
                    continue
            axioms.append(ExLeft(Role(role, rng.random() < 0.4), filler, rhs))
        else:  # an axiom with Bot on the right: unconstrained by the order
            which = rng.random()
            if which < 0.4:
                axioms.append(Sub(rng.choice(names), BOT))
            elif which < 0.7:
                axioms.append(ConjSub(rng.choice(names), rng.choice(names), BOT))
            else:
                axioms.append(
                    ExLeft(
                        Role(rng.choice(roles), rng.random() < 0.4),
                        TOP if rng.random() < 0.3 else rng.choice(names),
                        BOT,
                    )
                )
    if not axioms:
        axioms.append(Sub(names[0], names[0]))
    tbox = TBox(axioms)

    ninds = rng.randint(1, max_individuals)
    inds = [f"a{i}" for i in range(ninds)]
    concept_asserts = []
    for a in inds:
        for _ in range(rng.randint(0, 2)):
            concept_asserts.append((rng.choice(names), a))
    if rng.random() < 0.04:
        concept_asserts.append((BOT, rng.choice(inds)))
    role_asserts = []
    for _ in range(rng.randint(0, 2 * ninds)):
        role_asserts.append(
            (
                Role(rng.choice(roles), rng.random() < 0.3),
                rng.choice(inds),
                rng.choice(inds),
            )
        )
    abox = AboxGraph(concept_asserts, role_asserts, inds)
    return tbox, abox, h


def random_dllite_tbox(rng: Random, max_names: int = 10):
    """Random core DL-Lite surface axioms: basic concepts are names or
    unqualified existentials; inclusions plus disjointness."""
    n_con = rng.randint(1, max(1, max_names - 2))
    names = [f"A{i}" for i in range(n_con)]
    roles = [f"p{i}" for i in range(rng.randint(1, max(1, max_names - n_con)))]

    def basic():
        kind = rng.random()
        if kind < 0.5:
            return rng.choice(names)
        return Exists(Role(rng.choice(roles), rng.random() < 0.5), TOP)

    gcis = []
    for _ in range(rng.randint(1, 2 * max_names)):
        if rng.random() < 0.3:
            gcis.append(Gci(And(basic(), basic()), BOT))
        else:
            gcis.append(Gci(basic(), basic()))
    return gcis


@dataclass
class FuzzFailure:
    case: int
    seed: int
    concept: str
    ind: str
    answers: dict
    kb_text: str


@dataclass
class FuzzReport:
    cases: int
    queries: int
    failures: List[FuzzFailure]
    witnesses_checked: int = 0
    top_level: int = -1  # the highest level a query was evaluated at

    @property
    def ok(self) -> bool:
        return not self.failures


def _case_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) & 0x7FFFFFFF


def run_case(
    case: int,
    case_seed: int,
    validate_witnesses: bool = False,
    max_concepts: int = 6,
    max_roles: int = 3,
    max_individuals: int = 10,
    max_gcis: int = 12,
    max_height: int = 3,
):
    """One differential case; returns (query count, failures, witness count,
    highest level evaluated).  An odd `case` runs on the drawn height map,
    which reaches levels the minimal heights never do.  The witness count
    covers the two engines' witnesses and the oracle's replayed trace."""
    rng = Random(case_seed)
    tbox, abox, drawn = random_stratified_kb(
        rng, max_concepts, max_roles, max_individuals, max_gcis, max_height
    )
    order = None
    if case % 2:
        order = {v: drawn[v] for v in (*tbox.concept_names, *tbox.role_names)}
    failures = []
    witnesses = 0
    top = -1

    def kb_text():
        heights = sorted(set(order.values())) if order else ()
        levels = [[v for v in order if order[v] == k] for k in heights] or None
        return format_kb(kb_from_normal(tbox, abox, levels))

    def fail(concept, ind, answers):
        failures.append(FuzzFailure(case, case_seed, concept, ind, answers, kb_text()))

    res = check_stratification(tbox)
    if not res.accepted:
        fail("-", "-", {"checker": "rejected"})
        return 0, failures, witnesses, top
    violations = verify_preorder(tbox, drawn)
    if violations:
        fail("-", "-", {"order": violations[0].message})
        return 0, failures, witnesses, top
    ev = Evaluator(tbox, abox, res.height if order is None else order)
    inconsistent = ev.oracle_inconsistent()
    queries = 0
    oracle_check = lambda c, x: ev.oracle(c, x)[0]
    for concept in tbox.concept_names:
        for ind in abox.individuals:
            queries += 1
            if inconsistent:
                continue  # the shared pre-check answers true for every engine
            top = max(top, ev.levels.height(concept))
            answers = {
                "collapsed": ev.collapsed(concept, ind),
                "naive": ev.naive(concept, ind),
                "oracle": ev.oracle(concept, ind)[0],
                "naive_weak": ev.naive(concept, ind, include_weak=True),
            }
            if len(set(answers.values())) != 1:
                fail(concept, ind, answers)
                continue
            if validate_witnesses and answers["collapsed"]:
                try:
                    validate_witness(
                        ev.collapsed_witness(concept, ind), abox, ind, oracle_check
                    )
                    validate_witness(
                        ev.naive_witness(concept, ind), abox, ind, oracle_check
                    )
                except KbError as exc:
                    fail(concept, ind, {"witness": str(exc)})
                    continue
                try:
                    trace = ev.oracle(concept, ind, want_trace=True)[1]
                    if not replay_derivation(tbox, abox, trace, concept, ind):
                        raise KbError(f"the trace does not derive {concept}({ind})")
                except (KbError, AssertionError) as exc:  # the builder asserts its records
                    fail(concept, ind, {"trace": str(exc)})
                    continue
                witnesses += 3
    return queries, failures, witnesses, top


def _pool_case(args):
    case, case_seed, validate_witnesses, limits = args
    return run_case(case, case_seed, validate_witnesses, *limits)


def run_fuzz(
    cases: int,
    seed: int,
    jobs: int = 1,
    validate_witnesses: bool = False,
    max_concepts: int = 6,
    max_roles: int = 3,
    max_individuals: int = 10,
    max_gcis: int = 12,
    max_height: int = 3,
) -> FuzzReport:
    """Run `cases` differential cases; deterministic for a fixed seed.

    `jobs` worker processes share the cases; more than the CPU count is
    refused before any worker starts, as is a negative `cases`.
    """
    if cases < 0:
        raise KbError(f"cases must be at least 0, got {cases}")
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise KbError(f"jobs must lie between 1 and the CPU count {cpus}, got {jobs}")
    limits = (max_concepts, max_roles, max_individuals, max_gcis, max_height)
    work = [(i, _case_seed(seed, i), validate_witnesses, limits) for i in range(cases)]
    if jobs > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(jobs) as pool:
            results = pool.map(_pool_case, work, chunksize=max(1, cases // (8 * jobs)))
    else:
        results = [_pool_case(args) for args in work]
    report = FuzzReport(cases, 0, [])
    for q, fails, wit, top in results:
        report.queries += q
        report.failures.extend(fails)
        report.witnesses_checked += wit
        report.top_level = max(report.top_level, top)
    report.failures.sort(key=lambda f: (f.case, f.concept, f.ind))
    return report

"""Instance-query evaluation over ABoxes.

Three engines answer "does the KB entail C(a)?":

* ``naive``:     faithful product search: breadth-first over pairs of an
                  ABox individual and a state of the automaton ``rewrite``
                  builds, following ``NestedNfa.successors`` where the symbol
                  passes at the current individual: a role step moves along
                  an ABox edge, a concept test needs Top or an assertion, and
                  a nested automaton test recurses through a memo table.  It
                  has no transition schema of its own, so it checks the
                  rewriting itself.
* ``collapsed``: the production path.  Every transition guard and the
                  acceptance condition are monotone in the premise, and at a
                  fixed individual the premise can only ever accumulate the
                  concepts testable there; so states collapse to (individual,
                  goal) pairs with the premise pinned to that label.  The
                  engine reads the automaton's goal moves from
                  ``LevelMap.goal_moves``, where they are written once.
                  Labels grow one level at a time, and they are the
                  engine's one memo.
* ``oracle``:    saturation (see saturate module).

``compile_kb`` is the one front door from a KB to an ``Evaluator``:
normalize with fresh names new to the whole KB, then stratify (or verify a
user-supplied order).  ``entails_iq`` adds the consistency pre-check and
runs the selected engine.  The pre-check defaults to the oracle.  The
experimental ``consistency="automaton"`` check reads asserted Bots directly
(a TBox that never mentions Bot gives its automata no Bot test) and runs the
Bot automaton over the whole TBox from every individual; it agrees with the
oracle on every generated KB the tests try.

True answers come with a run witness replayable against the run conditions:
role steps follow ABox edges, tests hold at a fixed individual in the
ABox-as-interpretation, the first tuple starts at the query individual, and
the last state accepts.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from .kb import (
    BOT,
    TOP,
    AboxGraph,
    KbError,
    TBox,
    normalize_kb,
)
from .rewrite import AutState, AutoTest, ConceptTest, RoleStep, TOP_TEST, _Family
from .saturate import SatResult, oracle_entails, saturate_abox
from .stratify import LevelMap, heights_for

_TOP_BIT = 1
_BOT_BIT = 2


def _assertion_witness(concept, ind):
    """A one-step run for a goal the start individual satisfies outright."""
    if concept == TOP:
        st = AutState(frozenset({TOP}), TOP)
        return RunStep(ind, st, TOP_TEST, st, ind)
    before = AutState(frozenset({TOP}), concept)
    after = AutState(frozenset({TOP, concept}), concept)
    return RunStep(ind, before, ConceptTest(concept), after, ind)


@dataclass(frozen=True)
class RunStep:
    source: str
    state: AutState
    symbol: object
    next_state: AutState
    target: str


RunWitness = Tuple[RunStep, ...]


def _path(parents, hit):
    """(previous node, node, edge label) along the search path to `hit`."""
    path = [hit]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]][0])
    path.reverse()
    return [(prev, cur, parents[cur][1]) for prev, cur in zip(path, path[1:])]


class Evaluator:
    """A compiled KB: engine state shared by many queries over one (TBox,
    ABox) pair.  Everything but the memo tables is fixed at construction: the
    TBox, its heights, fresh names and stratification notes, and the
    ``LevelMap``.
    """

    def __init__(
        self, tbox: TBox, abox: AboxGraph, heights: dict, fresh: dict = None, notes: tuple = ()
    ):
        self.tbox = tbox
        self.abox = abox
        self.heights = heights
        self.fresh = fresh or {}
        self.notes = notes
        self.levels = LevelMap(tbox, heights)
        self._sat: Optional[SatResult] = None
        self._assert_mask: Dict[str, int] = {}
        self._labels: Dict[str, Tuple[int, ...]] = {}  # per individual, by level
        self._memo_naive: Dict[Tuple[str, str, bool], bool] = {}
        self._families: Dict[bool, _Family] = {}
        self.naive_visited = 0
        self.collapsed_visited = 0

    # -- shared plumbing ----------------------------------------------------

    def saturation(self) -> SatResult:
        # the whole-TBox closer every level reads its successor types from
        if self._sat is None:
            self._sat = saturate_abox(self.tbox, self.abox, self.levels.closer)
        return self._sat

    def assert_mask(self, ind: str) -> int:
        m = self._assert_mask.get(ind)
        if m is None:
            m = 0
            bit_of = self.tbox.bit_of
            for c in self.abox.asserted[ind]:
                b = bit_of.get(c)
                if b is not None:
                    m |= 1 << b
            self._assert_mask[ind] = m
        return m

    # -- collapsed engine ----------------------------------------------------

    def label_mask(self, ind: str, n: int) -> int:
        """Top, plus asserted concepts of con(T|n), plus strictly lower
        concepts the rewriting itself establishes at `ind`.  The label at m
        is the one at m-1 plus the names of height m-1 proved at `ind`; a
        loop grows them from the highest stored, storing every level."""
        labels = self._labels.get(ind, ())
        while len(labels) <= n:
            m = len(labels)
            lab = (labels[-1] if m else _TOP_BIT) | self.assert_mask(ind) & self.levels.con_mask(m)
            for c, bit in self.levels.by_height[m - 1] if m else ():
                if self._collapsed_search(c, ind)[0]:
                    lab |= bit
            self._labels[ind] = labels = labels + (lab,)
        return labels[n]

    def collapsed(self, concept: str, ind: str) -> bool:
        """Read off the label one level above `concept`'s height, once it is
        stored; search otherwise."""
        self.abox.require(ind)
        if concept not in (TOP, BOT) and concept in self.tbox.bit_of:
            n = self.levels.height(concept) + 1
            labels = self._labels.get(ind, ())
            if n < len(labels):
                return bool(labels[n] >> self.tbox.bit_of[concept] & 1)
        return self._collapsed_search(concept, ind)[0]

    def _collapsed_search(self, concept: str, ind: str, level: int = None):
        """BFS over (individual, goal) nodes at `level` (by default the
        concept's height); returns (answer, parents, hit)."""
        if concept == TOP:
            return True, None, (ind, TOP)
        if concept not in self.tbox.bit_of:  # only its own assertion helps
            return concept in self.abox.asserted[ind], None, (ind, concept)
        n = self.levels.height(concept) if level is None else level
        neighbors = self.abox.neighbors
        goal_moves = self.levels.goal_moves
        name_of = self.levels.name_of
        bit_of = self.tbox.bit_of
        start = (ind, concept)
        parents = {start: None}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            self.collapsed_visited += 1
            x, goal = node
            lab = self.label_mask(x, n)
            bit = 1 << bit_of[goal]
            if lab & (bit | _BOT_BIT):
                return True, parents, node
            steps, swaps = goal_moves(n, lab, bit)
            succ = []
            for role, name in steps:
                for y in (x,) if role is None else neighbors(x, role):
                    succ.append(((y, name), role))
            while swaps:
                low = swaps & -swaps
                swaps ^= low
                succ.append(((x, name_of[low]), None))
            for node2, role in succ:
                if node2 not in parents:
                    parents[node2] = (node, role)
                    queue.append(node2)
        return False, parents, None

    def collapsed_witness(self, concept: str, ind: str) -> Optional[RunWitness]:
        found, parents, hit = self._collapsed_search(concept, ind)
        if not found:
            return None
        n = self.levels.height(concept)

        def state(node):
            x, goal = node
            return AutState(self.tbox.names_of(self.label_mask(x, n)) | {TOP}, goal)

        if parents is None:
            return (_assertion_witness(concept, ind),)
        steps = []
        for prev, cur, role in _path(parents, hit):
            sym = TOP_TEST if role is None else RoleStep(role)
            steps.append(RunStep(prev[0], state(prev), sym, state(cur), cur[0]))
        if not steps:
            st = state(hit)
            steps.append(RunStep(hit[0], st, TOP_TEST, st, hit[0]))
        return tuple(steps)

    # -- naive engine ---------------------------------------------------------

    def naive(self, concept: str, ind: str, include_weak: bool = False) -> bool:
        self.abox.require(ind)
        key = (concept, ind, include_weak)
        got = self._memo_naive.get(key)
        if got is None:
            got = self._naive_search(concept, ind, include_weak)[0]
            self._memo_naive[key] = got
        return got

    def _automaton(self, concept: str, include_weak: bool):
        """The rewriting automaton of `concept`, from the family the naive
        engine shares per `include_weak` value."""
        family = self._families.get(include_weak)
        if family is None:
            family = self._families[include_weak] = _Family(self.levels, include_weak)
        return family.automaton(concept)

    def _naive_search(self, concept: str, ind: str, include_weak: bool):
        """BFS over (individual, automaton state) product nodes."""
        if concept == TOP:
            return True, None, None
        if concept not in self.tbox.bit_of:
            return concept in self.abox.asserted[ind], None, None
        nfa = self._automaton(concept, include_weak)
        asserted = self.abox.asserted
        neighbors = self.abox.neighbors
        start = (ind, nfa.initial)
        parents = {start: None}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            self.naive_visited += 1
            x, state = node
            if nfa.is_accepting(state):
                return True, parents, node
            for sym, dst in nfa.successors(state):
                moves = neighbors(x, sym.role) if isinstance(sym, RoleStep) else (x,)
                for y in moves:
                    node2 = (y, dst)
                    if node2 in parents:
                        continue
                    if isinstance(sym, ConceptTest):
                        if sym.concept != TOP and sym.concept not in asserted[x]:
                            continue
                    elif isinstance(sym, AutoTest):
                        if not self.naive(sym.concept, x, include_weak):
                            continue
                    parents[node2] = (node, sym)
                    queue.append(node2)
        return False, parents, None

    def naive_witness(self, concept: str, ind: str, include_weak: bool = False):
        found, parents, hit = self._naive_search(concept, ind, include_weak)
        if not found:
            return None
        if parents is None:
            return (_assertion_witness(concept, ind),)
        return tuple(
            RunStep(prev[0], prev[1], sym, cur[1], cur[0])
            for prev, cur, sym in _path(parents, hit)
        )

    # -- oracle + consistency --------------------------------------------------

    def oracle(self, concept: str, ind: str, want_trace: bool = False):
        sat = self.saturation()
        return oracle_entails(
            self.tbox,
            self.abox,
            concept,
            ind,
            want_trace=want_trace,
            sat=sat,
            closer=self.levels.closer,
        )

    def oracle_inconsistent(self) -> bool:
        return self.saturation().inconsistent

    def automaton_inconsistent(self) -> bool:
        """An asserted Bot, or an accepting run of the Bot automaton over the
        whole TBox from some individual; differential-tested against the
        oracle.

        The asserted Bot is read directly: a TBox that never mentions Bot
        gives its automata no Bot test to read it with.
        """
        individuals = self.abox.individuals
        return any(BOT in self.abox.asserted[x] for x in individuals) or any(
            self._collapsed_search(BOT, x, self.levels.max_level)[0] for x in individuals
        )


# ---------------------------------------------------------------------------
# Spec-level entry points
# ---------------------------------------------------------------------------


@dataclass
class IqResult:
    answer: bool
    witness: Optional[RunWitness]
    inconsistent: bool
    heights: dict
    diagnostics: dict = field(default_factory=dict)


def compile_kb(gcis, abox: AboxGraph, order: dict = None, query: str = None) -> Evaluator:
    """The one front door from a KB to an ``Evaluator``: normalize with fresh
    names new to the whole KB and to the `query` concept (``normalize_kb``),
    then take the heights from ``heights_for`` (a user `order`, name ->
    height, completed on the fresh names and verified, or the minimal
    heights)."""
    tbox, fresh = normalize_kb(gcis, abox, query)
    heights, notes = heights_for(tbox, order, fresh)
    return Evaluator(tbox, abox, heights, fresh, notes)


def entails_iq(
    gcis,
    abox: AboxGraph,
    concept: str,
    ind: str,
    engine: str = "collapsed",
    consistency: str = "oracle",
    order: dict = None,
    want_witness: bool = False,
) -> IqResult:
    """The full pipeline: ``compile_kb``, consistency pre-check, evaluate.

    `engine` is one of collapsed/naive/oracle; `consistency` is oracle (the
    default), automaton (experimental), or none.  A user `order` (name ->
    height) is completed on the fresh names and verified.  The diagnostics count,
    under ``closure_contexts``, the type closure contexts the query created:
    the whole-TBox ones its successor types and the pre-check share, plus
    every level's roots (``LevelMap.closure_contexts``).
    """
    t0 = time.perf_counter()
    abox.require(ind)
    ev = compile_kb(gcis, abox, order, concept)

    inconsistent = False
    if consistency == "oracle":
        inconsistent = ev.oracle_inconsistent()
    elif consistency == "automaton":
        inconsistent = ev.automaton_inconsistent()
    elif consistency != "none":
        raise KbError(f"unknown consistency check {consistency!r}")

    diagnostics = {
        "engine": engine,
        "consistency": consistency,
        "fresh_names": tuple(sorted(ev.fresh)),
        "notes": ev.notes,
        "level": ev.levels.height(concept),
    }
    if inconsistent:
        diagnostics["closure_contexts"] = ev.levels.closure_contexts()
        diagnostics["elapsed"] = time.perf_counter() - t0
        return IqResult(True, None, True, ev.heights, diagnostics)

    witness = None
    if engine == "collapsed":
        answer = ev.collapsed(concept, ind)
        if answer and want_witness:
            witness = ev.collapsed_witness(concept, ind)
        diagnostics["visited"] = ev.collapsed_visited
    elif engine == "naive":
        answer = ev.naive(concept, ind)
        if answer and want_witness:
            witness = ev.naive_witness(concept, ind)
        diagnostics["visited"] = ev.naive_visited
    elif engine == "oracle":
        answer, _ = ev.oracle(concept, ind)
        diagnostics["visited"] = 0
    else:
        raise KbError(f"unknown engine {engine!r}")
    diagnostics["closure_contexts"] = ev.levels.closure_contexts()
    diagnostics["elapsed"] = time.perf_counter() - t0
    return IqResult(answer, witness, False, ev.heights, diagnostics)


# ---------------------------------------------------------------------------
# Independent witness validation
# ---------------------------------------------------------------------------


def validate_witness(
    witness: RunWitness,
    abox: AboxGraph,
    start: str,
    nested_check: Callable[[str, str], bool] = None,
) -> None:
    """Replay a run witness against the run conditions; raises KbError.

    Checks: role steps follow ABox edges (two-way), concept tests keep the
    individual fixed and hold in the ABox read as an interpretation (Top
    everywhere, Bot only where asserted), nested tests pass `nested_check`,
    the first tuple starts at the query individual, consecutive tuples chain,
    and the final state accepts.
    """
    if not witness:
        raise KbError("empty witness")
    if witness[0].source != start:
        raise KbError(f"witness starts at {witness[0].source}, not {start}")
    for prev, cur in zip(witness, witness[1:]):
        if prev.target != cur.source or prev.next_state != cur.state:
            raise KbError("witness tuples do not chain")
    for st in witness:
        sym = st.symbol
        if isinstance(sym, RoleStep):
            if not abox.has_edge(st.source, sym.role, st.target):
                raise KbError(f"no ABox edge {sym.role}({st.source}, {st.target})")
        elif isinstance(sym, ConceptTest):
            if st.source != st.target:
                raise KbError("a test must not move")
            if sym.concept != TOP and sym.concept not in abox.asserted[st.source]:
                raise KbError(f"test {sym} fails at {st.source}")
        elif isinstance(sym, AutoTest):
            if st.source != st.target:
                raise KbError("a test must not move")
            if nested_check is None:
                raise KbError("witness uses a nested test but no checker was given")
            if not nested_check(sym.concept, st.source):
                raise KbError(f"nested test {sym} fails at {st.source}")
        else:
            raise KbError(f"unknown symbol {sym!r}")
    last = witness[-1].next_state
    if last.goal not in last.premise and BOT not in last.premise:
        raise KbError(f"final state {last.label()} is not accepting")

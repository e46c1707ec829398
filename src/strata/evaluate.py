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
                  goal bit) pairs with the premise pinned to that label.
                  The engine reads the automaton's goal moves, over bits,
                  from ``LevelMap.goal_moves``, where they are written once;
                  goal bits become names only in a witness.
                  The engine's one memo holds, per individual, the lower
                  names decided there and which of them hold; a query is
                  one search at its level.  A node decides a lower name
                  only when it reads it, that is when the name lies in its
                  goal's cone, by a search at the name's own height: the
                  demand-driven evaluation of magic sets (Bancilhon,
                  Maier, Sagiv, Ullman, PODS 1986).  Lower levels are only
                  read as tests: a search does not expand a goal below its
                  level (see ``_collapsed_search``).  So each level is one
                  linear reachability over (individual, goal bit) pairs: the
                  top query of the n-level tower ``exists r . C_i <=
                  C_{i+1}`` visits (n+1)^2 nodes, not about n^3.
* ``oracle``:    saturation (see saturate module).

``compile_kb`` is the one front door from a KB to an ``Evaluator``:
normalize with fresh names new to the whole KB, then stratify (or verify a
user-supplied order), then adjoin a query name no axiom mentions to the
TBox's signature.  No engine treats such a name, or Top, apart: Top is bit 0
of every label and of every automaton premise, so its search accepts at the
start, and an adjoined name enters no axiom, so only its own assertion
proves it.  An ``Evaluator`` built without ``compile_kb`` has no such name
and raises KbError on it.  ``entails_iq`` adds the consistency pre-check and
runs the selected engine.  The pre-check defaults to the oracle.  The
experimental ``consistency="automaton"`` check reads asserted Bots directly
(a TBox that never mentions Bot gives its automata no Bot test) and searches
Bot from every individual, one level above every axiom; it agrees with the
oracle on every generated KB the tests try.

True answers come with a run witness replayable against the run conditions:
role steps follow ABox edges, tests hold at a fixed individual in the
ABox-as-interpretation, the first tuple starts at the query individual, and
the last state accepts.  The witness is the path of the search that answers,
so ``entails_iq`` runs one search with or without it; a start that accepts
is one ``Top?`` step.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from .kb import (
    BOT,
    BOT_BIT,
    TOP,
    TOP_BIT,
    AboxGraph,
    KbError,
    TBox,
    normalize_kb,
)
from .rewrite import AutState, AutoTest, ConceptTest, RoleStep, TOP_TEST, _Family
from .saturate import SatResult, saturate_abox
from .stratify import LevelMap, heights_for


@dataclass(frozen=True)
class RunStep:
    source: str
    state: AutState
    symbol: object
    next_state: AutState
    target: str


RunWitness = Tuple[RunStep, ...]


def _witness(parents, hit, state, symbol=lambda label: label) -> RunWitness:
    """The run along the search path to `hit`: `state` reads a node's
    automaton state and `symbol` an edge label, where None is a Top? test.
    A path of no edges, a start that accepts, is one Top? test at the hit."""
    path = [hit]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]][0])
    path.reverse()
    edges = [(prev, cur, parents[cur][1]) for prev, cur in zip(path, path[1:])]
    return tuple(
        RunStep(prev[0], state(prev), TOP_TEST if sym is None else symbol(sym), state(cur), cur[0])
        for prev, cur, sym in edges or [(hit, hit, None)]
    )


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
        # per individual, Top plus its asserted names as a mask, and the
        # memo of [lower names decided there, those of them that hold]
        self._asserted: Dict[str, int] = {}
        self._memo: Dict[str, list] = {}
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

    # -- collapsed engine ----------------------------------------------------

    def _asserted_at(self, ind: str) -> int:
        got = self._asserted.get(ind)
        if got is None:
            names = self.abox.asserted[ind] & self.tbox.bit_of.keys()
            got = self._asserted[ind] = self.tbox.mask_of(names) | TOP_BIT
        return got

    def _decide(self, ind: str, need: int) -> None:
        """Decide at `ind` every name of `need` not yet decided there, each
        by its own search at its own height, lowest height first.  A search
        decides lower names at `ind` too, so what is left is read again after
        each one.  Lowest first means each search finds the lower names it
        reads at `ind` already decided, so searches at one individual do not
        nest through every level below: highest first overflowed the stack
        on the 250-level tower of ``tests/test_scale.py``."""
        memo = self._memo.get(ind) or self._memo.setdefault(ind, [0, 0])
        for n, row in enumerate(self.levels.rows):
            todo = need & row
            if not todo:
                continue
            while todo := todo & ~memo[0]:
                low = todo & -todo
                if self._collapsed_search(low, ind, n)[0]:
                    memo[1] |= low
                memo[0] |= low
            need &= ~row
            if not need:
                return

    def label_mask(self, ind: str, n: int) -> int:
        """Top, plus asserted concepts of con(T|n), plus strictly lower
        concepts the rewriting itself establishes at `ind`: the premise the
        automaton's states at `ind` carry at level n.  This decides every
        name below n at `ind`.  A search needs less (see
        ``_collapsed_search``), so it reads the same memo only where it has
        decided it."""
        self._decide(ind, self.levels.below_mask(n))
        return self._premise(ind, n)

    def _premise(self, ind: str, n: int) -> int:
        """What is decided at `ind` for level n: Top, the asserted names of
        con(T|n), and the names below n known to hold there."""
        holds, levels = self._memo.get(ind, (0, 0))[1], self.levels
        return self._asserted_at(ind) & levels.con_mask(n) | holds & levels.below_mask(n)

    def collapsed(self, concept: str, ind: str) -> bool:
        return self._collapsed_query(concept, ind)[1]

    def _collapsed_query(self, concept: str, ind: str):
        """(n, answer, parents, hit) of the search for `concept` at its height n."""
        self.abox.require(ind)
        n = self.levels.height(concept)  # KbError on a name outside the TBox
        return (n, *self._collapsed_search(1 << self.tbox.bit_of[concept], ind, n))

    def _collapsed_search(self, goal_bit: int, ind: str, n: int):
        """BFS over (individual, goal bit) nodes at level n, the goal's
        height (``LevelMap.height``); returns (answer, parents, hit).

        A node (y, g) reads the label of y at the search level n
        (``label_mask``) only on the goal's cone (``LevelMap._cone``), and
        decides only the names it reads.  That is exact.  The cone holds
        every name from which body->head edges reach g or Bot, so a name
        outside it derives only names outside it, at y or at any successor.
        The moves of g read the conjuncts of axioms with head g, which lie
        in the cone, and whether the closure of the premise plus one name
        holds g, which names outside the cone cannot change.  So
        ``goal_moves`` gives the same moves for the premise ``label & cone(g)
        | Top``, and one cache entry serves every individual whose label
        agrees there.  The one exception is the Top swap, which goal_moves
        offers only for the bare premise {Top}; it is dropped when the whole
        label is not bare, and only then is the whole label decided.

        A node (y, g) whose goal lies below the search level n is a leaf:
        it accepts or it is not expanded, so it decides only g at y.  The
        start is never one, since its goal has height n.  The leaf rule is
        sound on a consistent KB.  If an accepting node is reachable from
        (y, g), the level-n search for g from y is true.  That search equals
        ``collapsed(g, y)`` at g's own height, because the axioms T|n adds
        above g reach g only through Bot.  The label at n holds g exactly
        when g is asserted at y or proved there at its own height, so (y, g)
        accepts itself.  On an inconsistent KB a higher level can reach a
        lower goal through Bot, so under ``consistency="none"`` such a KB
        may answer differently from a search that expands every node.
        Bot's own search keeps no leaves (see ``automaton_inconsistent``)."""
        levels = self.levels
        con, below = levels.con_mask(n), levels.below_mask(n)
        leaf = 0 if goal_bit == BOT_BIT else below
        neighbors = self.abox.neighbors
        goal_moves, cones, cone_of = levels.goal_moves, levels._cones, levels._cone
        asserted, memos = self._asserted, self._memo
        start = (ind, goal_bit)
        parents = {start: None}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            self.collapsed_visited += 1
            x, bit = node
            cone = cones.get(bit) or cone_of(bit)
            need = bit if bit & leaf else cone & below
            lab = asserted.get(x) or self._asserted_at(x)
            lab &= con
            if need:
                memo = memos.get(x)
                if memo is None or need & ~memo[0]:
                    self._decide(x, need)
                    memo = memos[x]
                lab |= memo[1] & need
            if lab & (bit | BOT_BIT):
                return True, parents, node
            if bit & leaf:
                continue
            steps, swaps = goal_moves(n, lab & cone | TOP_BIT, bit)
            if swaps & TOP_BIT and (lab != TOP_BIT or self.label_mask(x, n) != TOP_BIT):
                swaps ^= TOP_BIT
            succ = []
            for role, gbit in steps:
                for y in (x,) if role is None else neighbors(x, role):
                    succ.append(((y, gbit), role))
            while swaps:
                low = swaps & -swaps
                swaps ^= low
                succ.append(((x, low), None))
            for node2, role in succ:
                if node2 not in parents:
                    parents[node2] = (node, role)
                    queue.append(node2)
        return False, parents, None

    def collapsed_witness(self, concept: str, ind: str) -> Optional[RunWitness]:
        """The path of the search that answers.  A state's premise is what
        is decided at its individual once the search is done (``_premise``).
        It holds every bit the search read there and is the same at every
        node of one individual, so a test step keeps it."""
        n, found, parents, hit = self._collapsed_query(concept, ind)
        if not found:
            return None
        names_of, name_of = self.tbox.names_of, self.tbox.name_of

        def state(node):
            x, bit = node
            return AutState(names_of(self._premise(x, n)), name_of[bit])

        return _witness(parents, hit, state, RoleStep)

    # -- naive engine ---------------------------------------------------------

    def naive(self, concept: str, ind: str, include_weak: bool = False) -> bool:
        self.abox.require(ind)
        key = (concept, ind, include_weak)
        got = self._memo_naive.get(key)
        if got is None:
            got = self._naive_search(concept, ind, include_weak)[0]
            self._memo_naive[key] = got
        return got

    def automaton(self, concept: str, include_weak: bool = False):
        """The rewriting automaton of `concept`, from the family the naive
        engine and ``strata rewrite`` share per `include_weak` value."""
        family = self._families.get(include_weak)
        if family is None:
            family = self._families[include_weak] = _Family(self.levels, include_weak)
        return family.automaton(concept)

    def _naive_search(self, concept: str, ind: str, include_weak: bool):
        """BFS over (individual, automaton state) product nodes."""
        nfa = self.automaton(concept, include_weak)
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
        self.abox.require(ind)
        found, parents, hit = self._naive_search(concept, ind, include_weak)
        if not found:
            return None
        return _witness(parents, hit, lambda node: node[1])

    # -- oracle + consistency --------------------------------------------------

    def oracle(self, concept: str, ind: str, want_trace: bool = False):
        self.levels.height(concept)  # KbError on a name outside the TBox
        return self.saturation().entails(concept, ind, want_trace)

    def oracle_inconsistent(self) -> bool:
        return self.saturation().inconsistent

    def automaton_inconsistent(self) -> bool:
        """An asserted Bot, or ``collapsed(Bot, x)`` at some individual x.
        Bot's level lies one above every axiom (``LevelMap.height``), so its
        nodes may read names of every height, those of the top one too, and
        its goal moves read the whole TBox.  A node decides only the names
        of its goal's cone, so on a TBox with no Bot axiom each search stops
        at its start node.  Differential-tested against the oracle.

        Bot's search keeps no leaves: it expands every goal it reaches,
        those below its level too.  The leaf rule holds only on a consistent
        KB (see ``_collapsed_search``), and this check exists for the other
        ones.  There, a lower goal expanded with the whole TBox can lead to
        Bot through axioms above the goal's height, which the goal's own
        search, and so the label, never reads.  With leaves, Bot's search
        missed Bot at some individuals of inconsistent fuzz KBs where the
        naive Bot automaton finds it.

        The asserted Bot is read directly: a TBox that never mentions Bot
        gives its automata no Bot test to read it with.
        """
        individuals = self.abox.individuals
        return any(BOT in self.abox.asserted[x] for x in individuals) or any(
            self.collapsed(BOT, x) for x in individuals
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
    heights).  A `query` no axiom mentions is adjoined to the TBox after
    that (``TBox.with_concept``), so the heights and the order's check see
    only the axioms' names; it keeps its order height, else 0."""
    tbox, fresh = normalize_kb(gcis, abox, query)
    heights, notes = heights_for(tbox, order, fresh)
    if query is not None:
        tbox = tbox.with_concept(query)
    return Evaluator(tbox, abox, heights, fresh, notes)


# The engines by name, each mapping an evaluator to its answer search and its
# run-witness search, both read off the evaluator when the entry is called;
# the oracle has no run witness.  The first is the default.
ENGINES = {
    "collapsed": lambda ev: (ev.collapsed, ev.collapsed_witness),
    "naive": lambda ev: (ev.naive, ev.naive_witness),
    "oracle": lambda ev: (lambda c, x: ev.oracle(c, x)[0], None),
}
# The consistency pre-checks by name, each an evaluator's verdict "the KB is
# inconsistent".  The first is the default.
CONSISTENCY_CHECKS = {
    "oracle": lambda ev: ev.oracle_inconsistent(),
    "automaton": lambda ev: ev.automaton_inconsistent(),
    "none": lambda ev: False,
}


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

    `engine` names an entry of ``ENGINES`` and `consistency` one of
    ``CONSISTENCY_CHECKS``; an unknown name raises KbError before any other
    work.  A user `order` (name -> height) is completed on the fresh names
    and verified.
    On an inconsistent KB the answer is true, with no witness and no
    ``visited`` count; otherwise ``visited`` counts the nodes of the
    engine's own search, not the pre-check's.  The diagnostics count, under ``closure_contexts``,
    the type closure contexts the query created: the whole-TBox ones its
    successor types and the pre-check share, plus every level's roots
    (``LevelMap.closure_contexts``).
    """
    t0 = time.perf_counter()
    if engine not in ENGINES:
        raise KbError(f"unknown engine {engine!r}")
    if consistency not in CONSISTENCY_CHECKS:
        raise KbError(f"unknown consistency check {consistency!r}")
    abox.require(ind)
    ev = compile_kb(gcis, abox, order, concept)
    inconsistent = CONSISTENCY_CHECKS[consistency](ev)
    visited = ev.collapsed_visited + ev.naive_visited  # the pre-check's own
    diagnostics = {
        "engine": engine,
        "consistency": consistency,
        "fresh_names": tuple(sorted(ev.fresh)),
        "notes": ev.notes,
        "level": ev.levels.height(concept),
    }
    answer, witness = True, None  # an inconsistent KB entails everything
    if not inconsistent:
        search, witness_search = ENGINES[engine](ev)
        if want_witness and witness_search:  # one search answers and witnesses
            witness = witness_search(concept, ind)
            answer = witness is not None
        else:
            answer = search(concept, ind)
        diagnostics["visited"] = ev.collapsed_visited + ev.naive_visited - visited
    diagnostics["closure_contexts"] = ev.levels.closure_contexts()
    diagnostics["elapsed"] = time.perf_counter() - t0
    return IqResult(answer, witness, inconsistent, ev.heights, diagnostics)


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

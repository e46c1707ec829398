"""Construction of the nested query automaton for a concept name.

For a stratified TBox and a concept name A of height n, ``build_automaton``
yields a nested two-way NFA whose accepting runs over a bare ABox (read as an
interpretation) coincide with entailment of A at the start individual.

States are (premise, goal) pairs: the premise is the set of concept names
already known to hold at the current node, the goal is the single concept
still to be established there.  A state accepts when the goal sits in the
premise, or Bot does.  Every premise holds Top, so Top's automaton accepts
at its initial state.  A query name no axiom mentions is adjoined to the
signature (``TBox.with_concept``); no axiom derives it, so short of Bot its
automaton accepts only through its own data test.  Transitions come from
seven schemas:

  weak   drop one name from the premise           (Top? test; off by default)
  data   read an asserted concept into the premise (B? test)
  sbus   replace the goal along an inclusion axiom (Top? test)
  succ   move to a role successor to prove an existential body (role step)
  anon   swap the goal for one that locally entails it, courtesy of the
         TBox's anonymous models (Top? test)
  noc    peel one conjunct off a conjunction axiom whose other conjunct is
         already in the premise (Top? test)
  aut    delegate a strictly lower concept to its own nested automaton

The four goal moves (sbus, succ, noc, anon) are written once, in
``LevelMap.goal_moves``, which computes them per (level, premise, goal) for
the automaton and the collapsed engine alike, over bits; the automaton adds
weak, data and aut around them and names the goals.  The sbus, succ and noc
steps are the sub, existential-body and conjunction axioms read backwards,
compiled once with the TBox's rules (``TBox.steps``); goal_moves keeps
those of T|n, a noc step only where the premise holds its other conjunct.
Two shortcuts keep the anon closure calls few without changing the set.  If
the premise alone entails the goal, monotonicity makes every candidate
qualify.  Otherwise only names in the goal's dependency cone
are tested: the names from which body->head edges of the whole TBox reach the
goal or Bot (Bot floods every type).  The edges are A->B for ``A <= B``; both
conjuncts to the head of ``A & A2 <= B``; X->B for ``exists r . X <= B``; and
for ``A <= exists r . F``, A->F plus A->B for every ``exists r . X <= B``
(the successor is an r-neighbour of its parent) and every
``exists inv r . X <= B`` (the parent is an inv r-neighbour of the
successor).  The whole TBox has every level's edges, so a name outside the
cone cannot add the goal at any level.

The full state space is exponential in the premise component, so states and
transitions materialize lazily: ``successors`` computes (and memoizes) one
state's transitions, which is all the naive engine walks, and
``states``/``transitions`` force the reachable fragment, which is all the
exports need.  That fragment can still be exponential in con(T|n) (a
conjunction of k names reaches thousands of states for k = 5), so one family
materializes at most ``MAX_STATES`` states and refuses past that.  Weak
transitions add nothing to evaluation (every guard is monotone in the
premise) and are excluded unless asked for; dropping one name at a time
reaches every sub-premise without a transition per subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

from .kb import BOT, BOT_BIT, TOP, KbError, Role, TBox
from .stratify import LevelMap

# The most states one automaton family may materialize; past it the rewriting
# is refused with a KbError (exit 2 from the CLI).  The data schema makes the
# reachable part exponential in con(T|n): one conjunction axiom of 3, 4, 5, 6
# names reaches 174, 840, 3,890, 17,724 states.  The largest families built
# elsewhere: 448 states in the tests, 18,286 for the QBF reduction of one
# variable and one clause (every reduction tried with more variables or
# clauses is refused).
MAX_STATES = 20_000


@dataclass(frozen=True)
class AutState:
    premise: frozenset
    goal: str

    def label(self) -> str:
        inner = ",".join(sorted(self.premise))
        return f"{{{inner}}} / {self.goal}"


@dataclass(frozen=True)
class RoleStep:
    role: Role

    def __str__(self):
        return str(self.role)


@dataclass(frozen=True)
class ConceptTest:
    concept: str

    def __str__(self):
        return f"{self.concept}?"


@dataclass(frozen=True)
class AutoTest:
    concept: str

    def __str__(self):
        return f"aut[{self.concept}]?"


AutSymbol = Union[RoleStep, ConceptTest, AutoTest]

TOP_TEST = ConceptTest(TOP)


class _Family:
    """Shared construction context: one automaton per concept name."""

    def __init__(self, levels: LevelMap, include_weak: bool):
        self.tbox = levels.tbox
        self.levels = levels
        self.include_weak = include_weak
        self.materialized = 0
        self._nfas: Dict[str, "NestedNfa"] = {}

    def automaton(self, concept: str) -> "NestedNfa":
        """The automaton of `concept`, at its height level."""
        got = self._nfas.get(concept)
        if got is None:
            got = self._nfas[concept] = NestedNfa(self, concept, self.levels.height(concept))
        return got


class NestedNfa:
    """The rewriting automaton for one concept name (lazily materialized)."""

    def __init__(self, family: _Family, concept: str, level: int):
        self.family = family
        self.for_concept = concept
        self.level = level
        self.include_weak = family.include_weak
        self.tbox = family.tbox
        levels = family.levels
        self.rules = levels.rules_at(level)
        self.initial = AutState(frozenset({TOP}), concept)
        # alphabet pieces, from the level map's per-height names and con(T|n)
        bot = (BOT,) if levels.con_mask(level) & BOT_BIT else ()
        self.con_names = (TOP, *levels.concepts_at(level), *bot)
        self.lower_names = levels.concepts_at(level - 1)
        self._succ: Dict[AutState, tuple] = {}
        self._states = None
        self._transitions = None

    def nested(self, concept: str) -> "NestedNfa":
        if self.family.levels.height(concept) >= self.level:
            raise KbError(f"no nested automaton for {concept} at level {self.level}")
        return self.family.automaton(concept)

    def is_accepting(self, state: AutState) -> bool:
        return state.goal in state.premise or BOT in state.premise

    def successors(self, state: AutState) -> tuple:
        """All licensed transitions out of `state`, in schema order."""
        got = self._succ.get(state)
        if got is None:
            got = self._succ[state] = self._schemas(state)
        return got

    def _schemas(self, state: AutState) -> tuple:
        out = []
        premise, goal = state.premise, state.goal
        if self.include_weak:
            for c in sorted(premise - {TOP}):
                out.append((TOP_TEST, AutState(premise - {c}, goal)))
        for b in self.con_names:
            out.append((ConceptTest(b), AutState(premise | {b}, goal)))
        bit_of, name_of = self.tbox.bit_of, self.tbox.name_of
        steps, swaps = self.family.levels.goal_moves(
            self.level, self.tbox.mask_of(premise), 1 << bit_of[goal]
        )
        for role, bit in steps:
            if role is None:
                out.append((TOP_TEST, AutState(premise, name_of[bit])))
            else:
                out.append((RoleStep(role), AutState(frozenset({TOP}), name_of[bit])))
        for b in self.con_names:
            if swaps >> bit_of[b] & 1:
                out.append((TOP_TEST, AutState(premise, b)))
        for b in self.lower_names:
            out.append((AutoTest(b), AutState(premise | {b}, goal)))
        # collapse duplicate instances licensed by several schemas
        return tuple(dict.fromkeys(out))

    def materialize(self):
        if self._states is not None:
            return
        family = self.family
        family.materialized += 1
        frontier = [self.initial]
        seen = {self.initial}
        order = [self.initial]
        transitions = []
        while frontier:
            nxt = []
            for st in frontier:
                for sym, dst in self.successors(st):
                    transitions.append((st, sym, dst))
                    if dst not in seen:
                        family.materialized += 1
                        if family.materialized > MAX_STATES:
                            raise KbError(
                                f"the rewriting of {self.for_concept} needs more "
                                f"than {MAX_STATES} automaton states"
                            )
                        seen.add(dst)
                        order.append(dst)
                        nxt.append(dst)
            frontier = nxt
        self._states = tuple(order)
        self._transitions = tuple(transitions)

    @property
    def states(self):
        self.materialize()
        return self._states

    @property
    def transitions(self):
        self.materialize()
        return self._transitions

    @property
    def accepting_states(self):
        return tuple(s for s in self.states if self.is_accepting(s))

    def __repr__(self):
        return f"NestedNfa({self.for_concept}, level={self.level})"


def build_automaton(
    tbox: TBox, heights: dict, concept: str, include_weak: bool = False
) -> NestedNfa:
    """Build the rewriting automaton for `concept` at its height level.

    `heights` must come from an accepted stratification check or a verified
    user order, as ``compile_kb``'s do.  A name no axiom mentions is
    adjoined to the signature as ``compile_kb`` adjoins it
    (``TBox.with_concept``), at its height in `heights` (0 if it has none).
    Bot's automaton sits one level above every axiom (``LevelMap.height``):
    it reads the whole TBox and nests the automaton of every name, so its
    family can pass ``MAX_STATES`` where a low name's stays small.
    """
    levels = LevelMap(tbox.with_concept(concept), heights)
    return _Family(levels, include_weak).automaton(concept)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _family_members(nfa: NestedNfa):
    """The automaton and every nested automaton its reachable part tests."""
    seen = {}
    stack = [nfa]
    while stack:
        cur = stack.pop()
        if cur.for_concept in seen:
            continue
        seen[cur.for_concept] = cur
        used = set()
        for _, sym, _dst in cur.transitions:
            if isinstance(sym, AutoTest):
                used.add(sym.concept)
        for b in sorted(used):
            stack.append(cur.nested(b))
    root_first = [nfa]
    for name in sorted(seen):
        if seen[name] is not nfa:
            root_first.append(seen[name])
    return root_first


def _alphabet_lines(nfa: NestedNfa):
    parts = [f"{c}?" for c in sorted(nfa.con_names)]
    for r in nfa.rules.role_names:
        parts.append(r)
        parts.append(f"inv {r}")
    parts += [f"aut[{c}]?" for c in nfa.lower_names]
    return " ".join(parts)


def export_automaton(nfa: NestedNfa, fmt: str = "text") -> str:
    """Deterministic text or dot rendering of the reachable fragment."""
    if fmt not in ("text", "dot"):
        raise KbError(f"unknown export format {fmt!r}")
    chunks = []  # the lines of each family member
    for member in _family_members(nfa):
        states = member.states
        index = {s: i for i, s in enumerate(states)}
        name = member.for_concept
        if fmt == "text":
            lines = [
                f"automaton: {name}",
                f"level: {member.level}",
                f"alphabet: {_alphabet_lines(member)}",
                f"states: {len(states)}",
            ]
            for i, s in enumerate(states):
                lines.append(f"state {i}: {s.label()}")
            lines.append("initial: 0")
            acc = " ".join(str(index[s]) for s in member.accepting_states)
            lines.append(f"accepting: {acc}")
            for src, sym, dst in sorted(
                member.transitions, key=lambda t: (index[t[0]], str(t[1]), index[t[2]])
            ):
                lines.append(f"transition: {index[src]} {sym} {index[dst]}")
        else:
            lines = [
                f'  subgraph "cluster_{name}" {{',
                f'    label="automaton {name} (level {member.level})";',
            ]
            for i, s in enumerate(states):
                shape = ' peripheries=2' if member.is_accepting(s) else ""
                lines.append(f'    "{name}.{i}" [label="{s.label()}"{shape}];')
            grouped = {}
            for src, sym, dst in member.transitions:
                grouped.setdefault((index[src], index[dst]), []).append(str(sym))
            for (i, j), syms in sorted(grouped.items()):
                label = ", ".join(sorted(set(syms)))
                lines.append(f'    "{name}.{i}" -> "{name}.{j}" [label="{label}"];')
            lines.append("  }")
        chunks.append("\n".join(lines))
    if fmt == "text":
        return "\n\n".join(chunks) + "\n"
    head = ["digraph rewriting {", "  rankdir=LR;", '  node [shape=circle];']
    return "\n".join([*head, *chunks, "}"]) + "\n"

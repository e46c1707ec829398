"""Stratification analysis: the least-heights solver, user-order
verification and completion, and TBox level restriction.
``heights_for`` decides the heights every pipeline stage runs on.  Its
callers are ``compile_kb`` (evaluate module), the one front door from a KB
to an evaluator, and ``strata check``, which prints the fresh names before
a rejection.

A TBox is stratified when some preorder on its concept and role names
satisfies, per axiom shape:

  * ``A <= B``                    A below B.
  * ``A & B <= C``                A and B below C, at least one strictly.
  * ``A <= exists s . D``         A below the role; A below D unless D is Top;
                                  D below the role as well, so the axiom is
                                  already available at the levels that read
                                  the role back.
  * ``exists s . D <= B``         role below D and D strictly below B, unless
                                  D is B itself or Top; with a Top filler the
                                  role sits below B instead.
  * roles and their inverses are interchangeable (one shared vertex).

Axioms with Bot on the right carry no constraint, and Top/Bot never take part
in the order (their height is pinned to 0).

These conditions are written once, as the clause table ``_clauses``; the
solver and the check of a user order both read it, so the checker and the
verifier cannot disagree.

Heights are the pointwise-least solution of the clauses at or above a floor
map (all 0 for the minimal heights, a user order to complete one), so the
computed nesting depth for the rewriting is minimal.  They come from one
pass over the strongly connected components of the ``le``/``lt`` edges in
topological order (Tarjan, SIAM J. Comput. 1972).  For a rejected TBox the
same pass skips the violated clauses, so its heights are the least solution
of the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .kb import (
    BOT,
    TOP,
    ConjSub,
    ExLeft,
    ExRight,
    KbError,
    NormGci,
    Sub,
    TBox,
    axiom_names,
    format_axiom,
    rule_index,
)
from .saturate import TypeCloser


@dataclass(frozen=True)
class Violation:
    kind: str
    axiom: Optional[NormGci]
    message: str

    def __str__(self):
        return self.message


@dataclass
class StratResult:
    accepted: bool
    height: Dict[str, int]
    violations: List[Violation]
    notes: Tuple[str, ...] = ()


_PINNED = frozenset((TOP, BOT))


def _clauses(ax: NormGci):
    """The stratification conditions of one normal axiom, and its note.

    Each clause is ``("le", lo, hi)`` (lo below hi), ``("lt", lo, hi)`` (lo
    strictly below hi) or ``("one", (x1, x2), y)`` (x1 or x2 strictly below
    y).  A role stands for its base name.  Clauses that touch Top or Bot are
    dropped: both sit at height 0 outside the order.
    """
    note = None
    if isinstance(ax, Sub):
        clauses = (("le", ax.lhs, ax.rhs),)
    elif isinstance(ax, ConjSub):
        clauses = (
            ("le", ax.lhs1, ax.rhs),
            ("le", ax.lhs2, ax.rhs),
            ("one", (ax.lhs1, ax.lhs2), ax.rhs),
        )
    elif isinstance(ax, ExRight):
        # The head's level is its role's level: every existential body
        # consuming the role sits at or above it, so the spawning axiom
        # stays visible wherever its successors are read back.
        role = ax.role.name
        clauses = (
            ("le", ax.filler, role),
            ("le", ax.lhs, role),
            ("le", ax.lhs, ax.filler),
        )
    elif isinstance(ax, ExLeft):
        role = ax.role.name
        if ax.rhs in (BOT, TOP):  # not even the role below the filler
            clauses = ()
        elif ax.filler == TOP:
            # A Top filler bounds nothing by itself; keeping the role below
            # the right-hand side keeps the axiom inside the level the
            # rewriting for the right-hand side is built from.
            clauses = (("le", role, ax.rhs),)
            note = (
                "existential premises with a Top filler constrain the role "
                "below the right-hand side"
            )
        elif ax.filler == ax.rhs:
            clauses = (("le", role, ax.filler),)
        else:
            clauses = (("le", role, ax.filler), ("lt", ax.filler, ax.rhs))
    else:
        raise KbError(f"not a normal-form axiom: {ax!r}")
    if not _PINNED.isdisjoint(axiom_names(ax)[0]):
        clauses = tuple(c for c in clauses if not _pinned(c))
    return clauses, note


def _pinned(clause) -> bool:
    kind, lo, hi = clause
    return not _PINNED.isdisjoint((*lo, hi) if kind == "one" else (lo, hi))


def _sccs(vertices, succ):
    """Iterative Tarjan; returns scc id per vertex, ids in topological order."""
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    scc_of = {}
    sccs = []
    counter = [0]

    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(succ.get(root, ())))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    # Tarjan emits components in reverse topological order.
    sccs.reverse()
    for i, comp in enumerate(sccs):
        for v in comp:
            scc_of[v] = i
    return scc_of, sccs


def _cycle_path(lo, hi, succ):
    """A path hi -> ... -> lo in the edge graph (exists when both share an SCC)."""
    frontier = [hi]
    parent = {hi: None}
    while frontier:
        nxt = []
        for v in frontier:
            for w in succ.get(v, ()):
                if w not in parent:
                    parent[w] = v
                    if w == lo:
                        path = [w]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return list(reversed(path))
                    nxt.append(w)
        frontier = nxt
    return [hi, lo]


def check_stratification(tbox: TBox, floors: Optional[Dict[str, int]] = None) -> StratResult:
    """Decide whether any admissible preorder exists; report minimal heights.

    The reflexive-transitive closure of the ``le`` and ``lt`` clauses is the
    smallest candidate preorder, and growing a preorder can only lose
    strictness, so a strict clause that fails there fails everywhere.
    Heights are the least solution of the clauses at or above `floors`
    (name -> height, 0 for a name it leaves out), hence pointwise below any
    admissible height map at or above them.
    """
    vertices = sorted(set(tbox.concept_names) | set(tbox.role_names))
    edges = set()
    strict = []  # the lt and one clauses with their axioms, in axiom order
    notes = set()
    for ax in tbox.axioms:
        clauses, note = _clauses(ax)
        if note:
            notes.add(note)
        for clause in clauses:
            kind, lo, hi = clause
            if kind != "one":
                edges.add((lo, hi))
            if kind != "le":
                strict.append((clause, ax))
    succ = {}
    for lo, hi in sorted(edges):
        succ.setdefault(lo, []).append(hi)
    scc_of, sccs = _sccs(vertices, succ)

    # Per SCC, the strict clauses with their head in it: tuples of the SCCs
    # of the lows, one of which must lie strictly below.  A low inside the
    # head's own SCC cannot, so it drops out; with no low left the clause is
    # violated.
    pulls = [[] for _ in sccs]
    violations = []

    def bad(kind, ax, need):
        violations.append(Violation(kind, ax, f"axiom '{format_axiom(ax)}' needs {need}"))

    for (kind, lo, hi), ax in strict:
        k = scc_of[hi]
        xs = lo if kind == "one" else (lo,)
        lows = tuple(scc_of[x] for x in xs if scc_of[x] != k)
        if lows:
            pulls[k].append(lows)
        elif kind == "lt":
            chain = " <= ".join([lo, *_cycle_path(lo, hi, succ)])
            bad("strict", ax, f"{lo} strictly below {hi}, but the axioms force the cycle {chain}")
        else:
            msg = f"{lo[0]} or {lo[1]} strictly below {hi}, but both are forced into its cycle"
            bad("at-least-one", ax, msg)

    # One pass over the condensation in topological order: an SCC's height
    # is its largest floor or pull, then it pushes its height along the
    # edges out of it.
    floors = floors or {}
    level = [0] * len(sccs)
    for i, comp in enumerate(sccs):
        hi = max(level[i], *(floors.get(v, 0) for v in comp))
        for lows in pulls[i]:
            hi = max(hi, min([level[j] for j in lows]) + 1)
        level[i] = hi
        for v in comp:
            for w in succ.get(v, ()):
                j = scc_of[w]
                if level[j] < hi:
                    level[j] = hi
    heights = {v: level[scc_of[v]] for v in vertices}
    return StratResult(not violations, heights, violations, tuple(sorted(notes)))


class NotStratifiedError(KbError):
    def __init__(self, violations):
        self.violations = violations
        lines = "; ".join(str(v) for v in violations)
        super().__init__(f"TBox is not stratified: {lines}")


def heights_for(
    tbox: TBox, order: Optional[Dict[str, int]] = None, fresh=()
) -> Tuple[Dict[str, int], Tuple[str, ...]]:
    """The heights every pipeline stage runs on, and the checker's notes.

    Without a user `order` (name -> height) these are the minimal heights.
    With one, the order's heights stand, each `fresh` name (the
    normalizer's) it leaves out gets its least height at or above the
    order, and ``verify_preorder`` checks the completed map.  That loses no
    admissible completion: the clauses are monotone, so if one exists, the
    least solution at or above the order equals the order on its own names
    and is admissible itself.  Raises NotStratifiedError listing the
    violations when the map is inadmissible or the TBox unstratified.
    """
    res = check_stratification(tbox, order)
    if order is None:
        if not res.accepted:
            raise NotStratifiedError(res.violations)
        return res.height, res.notes
    heights = dict(order)
    for name in fresh:
        heights.setdefault(name, res.height[name])
    violations = verify_preorder(tbox, heights)
    if violations:
        raise NotStratifiedError(violations)
    return heights, ()


def verify_preorder(tbox: TBox, heights: Dict[str, int]) -> List[Violation]:
    """Check the stratification conditions against a user height map.

    The map induces the total preorder ``x <= y iff h(x) <= h(y)``.  Returns
    the violated clauses (empty means the map is admissible).  A partial or
    negative map is an input error, not a violation.
    """
    vertices = set(tbox.concept_names) | set(tbox.role_names)
    missing = sorted(v for v in vertices if v not in heights)
    if missing:
        raise KbError(f"height map is missing {missing}")
    bad = sorted((v, h) for v, h in heights.items() if h < 0)
    if bad:
        raise KbError(f"negative heights: {bad}")
    for pinned in (TOP, BOT):
        if heights.get(pinned, 0) != 0:
            raise KbError(f"the height of {pinned} is fixed at 0")

    roles = set(tbox.role_names)

    def show(name):
        return f"the role {name}" if name in roles else name

    violations = []

    def bad_clause(ax, msg):
        violations.append(Violation("order", ax, f"axiom '{format_axiom(ax)}': {msg}"))

    for ax in tbox.axioms:
        for kind, lo, hi in _clauses(ax)[0]:
            if kind == "le":
                if heights[lo] > heights[hi]:
                    bad_clause(ax, f"{show(lo)} must lie below {show(hi)}")
            elif kind == "lt":
                if heights[lo] >= heights[hi]:
                    bad_clause(ax, f"{show(lo)} must lie strictly below {show(hi)}")
            elif min(heights[x] for x in lo) >= heights[hi]:
                bad_clause(ax, f"{lo[0]} or {lo[1]} must lie strictly below {hi}")
    return violations


def axiom_level(ax: NormGci, heights: Dict[str, int]) -> int:
    """The height level an axiom lives at: the max height of its names."""
    cnames, rnames = axiom_names(ax)
    level = 0
    for n in cnames:
        if n not in (TOP, BOT):
            level = max(level, heights.get(n, 0))
    for n in rnames:
        level = max(level, heights.get(n, 0))
    return level


def restrict(tbox: TBox, heights: Dict[str, int], n: int) -> TBox:
    """The sub-TBox of axioms whose every name has height at most n.

    ``restrict(T, h, -1)`` is the empty TBox.  The result shares the parent's
    concept-bit indexing so masks stay comparable across levels.  This is the
    paper's T|n as a TBox of its own; the evaluation paths read the same
    axioms through ``LevelMap.rules_at`` instead.
    """
    axioms = [ax for ax in tbox.axioms if axiom_level(ax, heights) <= n]
    return TBox(axioms, share_index_with=tbox)


class LevelRules:
    """T|n's rule views, filtered out of the whole TBox's compiled tuples.

    It offers what the rule kernel, the goal moves and the export read off a
    ``TBox`` (``triggers``, ``body_mask``, ``spawns``, ``by_rhs``,
    ``role_names``, ``mask_of``, ``names_of``), equal to those of
    ``restrict(T, h, n)``, in the same order, without building that TBox.
    A spawn keeps only the existential bodies of T|n in its ``back`` and
    ``fwd`` lists.  The level's signature is ``LevelMap.con_mask``'s.
    """

    def __init__(self, tbox: TBox, level_of: Dict[NormGci, int], n: int):
        def keep(ax):
            return level_of[ax] <= n

        self._tbox, self._keep = tbox, keep
        self.mask_of, self.names_of = tbox.mask_of, tbox.names_of
        subs = [x for x in tbox.subs if keep(x[2])]
        conjs = [x for x in tbox.conjs if keep(x[2])]
        exlefts = [x for x in tbox.exlefts if keep(x[3])]
        heads = [x[:3] for x in tbox.spawns if keep(x[2])]
        self.spawns, self.triggers, self.body_mask = rule_index(subs, conjs, exlefts, heads)
        roles = {x[0].name for x in exlefts} | {x[2].role.name for x in heads}
        self.role_names = tuple(sorted(roles))
        self._rhs: Dict[str, tuple] = {}

    def by_rhs(self, name: str):
        """Axioms of T|n whose right-hand side is exactly `name`."""
        got = self._rhs.get(name)
        if got is None:
            got = self._rhs[name] = tuple(filter(self._keep, self._tbox.by_rhs(name)))
        return got


class LevelMap:
    """Per-level views of a stratified TBox: concept masks, rule views, type
    closers and the goal moves every engine shares.

    ``con(T|n)`` is taken as the TBox concept names of height at most n,
    plus Top, plus Bot from the lowest level whose axioms mention it: a name
    of low height may occur only inside higher-level axioms, yet its tests
    must already be available to the low-level automata.  Every level's mask
    is built at construction, with the names sorted by height.  Each level
    has one view, T|n's rules (``LevelRules``) and closer, built on first
    use; the top level's is ``(tbox, closer)`` from the start.

    Every level's closure shares that whole-TBox ``closer``, which the
    saturation pre-check fills too.  A level-n root fires T|n's rules
    itself and takes each anonymous successor's type from ``closer``.  That
    is exact when the shared type is Bot-free.  Take a rule deriving a name
    X of con(T|n), X not Bot.  The clauses of ``_clauses`` put the head of a
    sub, conj or existential body at the top of its axiom, so the axiom lies
    in T|n and its body reads names of con(T|n).  An existential body reads
    them across a role of height at most n, and a spawn over such a role
    lies in T|n as well (its role tops it).  By induction on the derivation,
    a name of con(T|n) at the root, or at a successor a spawn of T|n
    creates, is derived by T|n's rules alone, from such names.  So a
    Bot-free shared type, read on the names T|n's rules read, is the
    successor's T|n type, and the names above n that the whole TBox adds to
    its seed change nothing.  Bot breaks the induction: a rule above n, say
    a spawn over a high role, can reach a low ``F <= Bot``, and Bot floods
    the whole type.  So a seed whose shared type holds Bot is closed under
    T|n's rules instead, as a context of the level's own closer
    (``TypeCloser`` with ``shared``), where Bot floods a type to con(T|n).
    """

    def __init__(self, tbox: TBox, heights: Dict[str, int]):
        self.tbox = tbox
        self.heights = heights
        self._level_of = {ax: axiom_level(ax, heights) for ax in tbox.axioms}
        self.max_level = max(self._level_of.values(), default=0)
        bot_from = min(
            (n for ax, n in self._level_of.items() if BOT in axiom_names(ax)[0]),
            default=self.max_level + 1,
        )
        self.closer = TypeCloser(tbox)
        self._views = {self.max_level: (tbox, self.closer)}
        self._moves: Dict[Tuple[int, int, int], tuple] = {}
        self._cones: Dict[int, int] = {}
        self._preds: Optional[Dict[int, int]] = None
        # per height, its concept names as (name, bit) pairs, by name; a
        # name ``build_automaton`` adjoins keeps its order height, which may
        # lie above every axiom
        top = max([self.max_level, *(heights.get(c, 0) for c in tbox.concept_names)])
        self.by_height = tuple([] for _ in range(top + 1))
        for c in tbox.concept_names:
            self.by_height[heights.get(c, 0)].append((c, 1 << tbox.bit_of[c]))
        # per level up to the top, con(T|n) as a mask
        masks, mask = [], tbox.top_bit
        for n in range(self.max_level + 1):
            mask |= sum(bit for _, bit in self.by_height[n])
            masks.append(mask | (tbox.bot_bit if n >= bot_from else 0))
        self._con_masks = tuple(masks)
        self.name_of = {1 << b: c for c, b in tbox.bit_of.items()}

    def height(self, name: str) -> int:
        if name in (TOP, BOT):
            return 0
        return self.heights.get(name, 0)

    def _view(self, n: int):
        """T|n's ``(rules, closer)``, built on first use; above the top
        level, the top level's."""
        n = min(n, self.max_level)
        got = self._views.get(n)
        if got is None:
            rules = LevelRules(self.tbox, self._level_of, n)
            closer = TypeCloser(rules, self.con_mask(n), shared=self.closer)
            got = self._views[n] = (rules, closer)
        return got

    def rules_at(self, n: int):
        """T|n's rule views (see ``LevelRules``); at the top level, the whole
        TBox, and at level -1 the empty T|-1."""
        return self._view(n)[0]

    def con_mask(self, n: int) -> int:
        """Bit mask of con(T|n): names of height <= n, Top, Bot-if-present;
        just Top below level 0."""
        return self._con_masks[min(n, self.max_level)] if n >= 0 else self.tbox.top_bit

    def concepts_at(self, n: int):
        """Concept names of height <= n (no Top/Bot), lowest first."""
        return tuple(c for row in self.by_height[: n + 1] for c, _ in row)

    def closer_at(self, n: int) -> TypeCloser:
        """The closer of T|n, whose successor types come from ``closer``;
        Bot floods a type to con(T|n)."""
        return self._view(n)[1]

    def closure_contexts(self) -> int:
        """Contexts the closers hold: the shared ones plus every level's
        roots and Bot-holding seeds."""
        return sum(closer.contexts() for _, closer in self._views.values())

    def goal_moves(self, level: int, premise_mask: int, goal_bit: int):
        """The moves replacing the goal of a (premise, goal) state at
        `level`, as ``(steps, swaps)``, computed once per argument triple.

        `steps` holds (role, name) pairs, in the axiom order of T|level:
        (None, B) for ``B <= goal`` (sbus), (r, F) for
        ``exists r . F <= goal`` (succ, a move to an r-neighbour), and for
        ``B1 & B2 <= goal`` (None, B2) if B1 is in the premise and (None,
        B1) if B2 is (noc).
        `swaps` (anon) holds the bits B of con(T|level) whose addition to
        the premise entails the goal at that level; Top only for the bare
        premise {Top}, since with more in the premise a premise-member swap
        covers a Top swap.  If the premise alone entails the goal, every
        candidate qualifies; otherwise only names outside the premise and
        inside the goal's cone (``_cone``) are tested.  Both shortcuts need
        a premise inside con(T|level), as every premise the engines build
        is: a Bot flood keeps only con(T|level), so the closure is monotone
        on those premises alone.
        """
        key = (level, premise_mask, goal_bit)
        got = self._moves.get(key)
        if got is None:
            rules, closer = self._view(level)
            bit_of = self.tbox.bit_of
            steps = []
            for ax in rules.by_rhs(self.name_of[goal_bit]):
                if isinstance(ax, Sub):
                    steps.append((None, ax.lhs))
                elif isinstance(ax, ExLeft):
                    steps.append((ax.role, ax.filler))
                elif isinstance(ax, ConjSub):
                    if premise_mask >> bit_of[ax.lhs1] & 1:
                        steps.append((None, ax.lhs2))
                    if premise_mask >> bit_of[ax.lhs2] & 1:
                        steps.append((None, ax.lhs1))
            top_bit = self.tbox.top_bit
            candidates = self.con_mask(level)
            if premise_mask != top_bit:
                candidates &= ~top_bit
            if closer.closure_mask(premise_mask) & goal_bit:
                swaps = candidates
            else:
                swaps = 0
                rest = candidates & self._cone(goal_bit) & ~premise_mask
                while rest:
                    low = rest & -rest
                    rest ^= low
                    if closer.closure_mask(premise_mask | low) & goal_bit:
                        swaps |= low
            got = self._moves[key] = (tuple(steps), swaps)
        return got

    def _cone(self, goal_bit: int) -> int:
        """Names from which body->head edges of the whole TBox reach the goal
        or Bot: a superset of what can put the goal into any level's closure."""
        cone = self._cones.get(goal_bit)
        if cone is None:
            preds = self._cone_preds()
            cone = frontier = goal_bit | self.tbox.bot_bit
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                new = preds.get(low, 0) & ~cone
                cone |= new
                frontier |= new
            self._cones[goal_bit] = cone
        return cone

    def _cone_preds(self) -> Dict[int, int]:
        """Per head bit, the mask of names one body->head edge below it."""
        if self._preds is None:
            t = self.tbox
            preds: Dict[int, int] = {}

            def edge(body, head):
                preds[head] = preds.get(head, 0) | body

            for lbit, rbit, _ in t.subs:
                edge(lbit, rbit)
            for lmask, rbit, _ in t.conjs:
                edge(lmask, rbit)
            for _, fbit, rbit, _ in t.exlefts:
                edge(fbit, rbit)
            for lbit, fbit, _, back, fwd, _ in t.spawns:
                edge(lbit, fbit)
                # the new successor is a role-neighbour of its parent, and
                # the parent an inverse-role neighbour of the successor
                for _, rbit, _ in back + fwd:
                    edge(lbit, rbit)
            self._preds = preds
        return self._preds

"""Independent test oracles: a bounded naive chase, brute-force preorder
search, generators for arbitrary (not necessarily stratified) normal-form
TBoxes and for core DL-Lite axioms, the level restriction T|n as a TBox of
its own, and plain scanning versions of the library's fast paths.  These
deliberately re-derive semantics from first principles rather than reusing
the library's fixpoint machinery.
"""

from __future__ import annotations

import itertools
from random import Random

from strata import (
    BOT,
    TOP,
    AboxGraph,
    And,
    ConjSub,
    ExLeft,
    ExRight,
    Exists,
    Gci,
    Role,
    Sub,
    TBox,
    TypeCloser,
)
from strata.kb import TOP_BIT, axiom_names
from strata.stratify import axiom_level


def chase(tbox: TBox, abox: AboxGraph, max_depth: int, node_cap: int = 60000):
    """Breadth-first forward chaining with real anonymous successors.

    Each existential head fires at most once per node; anonymous depth is
    truncated at `max_depth`.  Returns ({node: label set}, inconsistent,
    capped) where `capped` reports whether the node budget stopped growth.
    """
    labels = {a: {TOP} | set(abox.asserted[a]) for a in abox.individuals}
    depth = {a: 0 for a in abox.individuals}
    adj = {}

    def connect(a, role, b):
        adj.setdefault((a, role), set()).add(b)
        adj.setdefault((b, role.invert()), set()).add(a)

    for role, a, b in abox.role_asserts():
        connect(a, role, b)
    spawned = set()
    counter = [0]
    capped = False

    changed = True
    while changed:
        changed = False
        for ax in tbox.axioms:
            if isinstance(ax, Sub):
                for node, lab in labels.items():
                    if (ax.lhs == TOP or ax.lhs in lab) and ax.rhs not in lab:
                        lab.add(ax.rhs)
                        changed = True
            elif isinstance(ax, ConjSub):
                for node, lab in labels.items():
                    if ax.lhs1 in lab and ax.lhs2 in lab and ax.rhs not in lab:
                        lab.add(ax.rhs)
                        changed = True
            elif isinstance(ax, ExLeft):
                for node in list(labels):
                    if ax.rhs in labels[node]:
                        continue
                    for nb in adj.get((node, ax.role), ()):
                        if ax.filler == TOP or ax.filler in labels[nb]:
                            labels[node].add(ax.rhs)
                            changed = True
                            break
            else:  # ExRight
                for node in list(labels):
                    if ax.lhs != TOP and ax.lhs not in labels[node]:
                        continue
                    if (node, ax) in spawned or depth[node] >= max_depth:
                        continue
                    if len(labels) >= node_cap:
                        capped = True
                        continue
                    spawned.add((node, ax))
                    counter[0] += 1
                    child = ("anon", counter[0])
                    labels[child] = {TOP, ax.filler}
                    depth[child] = depth[node] + 1
                    connect(node, ax.role, child)
                    changed = True
    inconsistent = any(BOT in lab for lab in labels.values())
    return labels, inconsistent, capped


def order_admits(tbox: TBox, h) -> bool:
    """Direct check of the stratification clauses against a height map."""

    def g(name):
        return 0 if name in (TOP, BOT) else h[name]

    for ax in tbox.axioms:
        if isinstance(ax, Sub):
            if ax.rhs in (BOT, TOP) or ax.lhs == TOP:
                continue
            if g(ax.lhs) > g(ax.rhs):
                return False
        elif isinstance(ax, ConjSub):
            if ax.rhs == BOT:
                continue
            if g(ax.lhs1) > g(ax.rhs) or g(ax.lhs2) > g(ax.rhs):
                return False
            if min(g(ax.lhs1), g(ax.lhs2)) >= g(ax.rhs):
                return False
        elif isinstance(ax, ExRight):
            if ax.filler != TOP and g(ax.filler) > g(ax.role.name):
                return False
            if ax.lhs == TOP:
                continue
            if g(ax.lhs) > g(ax.role.name):
                return False
            if ax.filler != TOP and g(ax.lhs) > g(ax.filler):
                return False
        elif isinstance(ax, ExLeft):
            if ax.rhs in (BOT, TOP):
                continue
            if ax.filler == TOP:
                if g(ax.role.name) > g(ax.rhs):
                    return False
            else:
                if g(ax.role.name) > g(ax.filler):
                    return False
                if ax.filler != ax.rhs and g(ax.filler) >= g(ax.rhs):
                    return False
    return True


def bruteforce_stratified(tbox: TBox) -> bool:
    """Does any height map admit the TBox?  Total preorders are enough:
    heights read off any admissible preorder are admissible themselves, and
    a strict chain never repeats a name, so values below the vertex count
    suffice."""
    vertices = sorted(set(tbox.concept_names) | set(tbox.role_names))
    if not vertices:
        return True
    for values in itertools.product(range(len(vertices)), repeat=len(vertices)):
        if order_admits(tbox, dict(zip(vertices, values))):
            return True
    return False


def bruteforce_min_heights(tbox: TBox):
    """Pointwise minimum over all admissible height maps (None if none)."""
    vertices = sorted(set(tbox.concept_names) | set(tbox.role_names))
    best = None
    for values in itertools.product(range(max(1, len(vertices))), repeat=len(vertices)):
        h = dict(zip(vertices, values))
        if order_admits(tbox, h):
            if best is None:
                best = dict(h)
            else:
                for v in vertices:
                    best[v] = min(best[v], h[v])
    return best


def random_normal_tbox(rng: Random, max_concepts: int = 3, max_roles: int = 2, max_gcis: int = 8) -> TBox:
    """An arbitrary normal-form TBox; stratified or not."""
    names = ["A", "B", "C", "D", "E"][: rng.randint(1, max_concepts)]
    roles = ["r", "s"][: rng.randint(1, max_roles)]
    axioms = []
    for _ in range(rng.randint(1, max_gcis)):
        shape = rng.randrange(4)
        role = Role(rng.choice(roles), rng.random() < 0.4)
        if shape == 0:
            lhs = TOP if rng.random() < 0.1 else rng.choice(names)
            rhs = BOT if rng.random() < 0.1 else rng.choice(names)
            axioms.append(Sub(lhs, rhs))
        elif shape == 1:
            rhs = BOT if rng.random() < 0.1 else rng.choice(names)
            axioms.append(ConjSub(rng.choice(names), rng.choice(names), rhs))
        elif shape == 2:
            lhs = TOP if rng.random() < 0.1 else rng.choice(names)
            filler = TOP if rng.random() < 0.3 else rng.choice(names)
            axioms.append(ExRight(lhs, role, filler))
        else:
            filler = TOP if rng.random() < 0.3 else rng.choice(names)
            rhs = BOT if rng.random() < 0.1 else rng.choice(names)
            axioms.append(ExLeft(role, filler, rhs))
    return TBox(axioms)


def random_abox(rng: Random, names, roles, max_individuals: int = 4) -> AboxGraph:
    inds = [f"b{i}" for i in range(rng.randint(1, max_individuals))]
    concept_asserts = []
    for a in inds:
        for _ in range(rng.randint(0, 2)):
            concept_asserts.append((rng.choice(names), a))
    role_asserts = []
    for _ in range(rng.randint(0, 2 * len(inds))):
        role_asserts.append(
            (Role(rng.choice(roles), rng.random() < 0.3), rng.choice(inds), rng.choice(inds))
        )
    return AboxGraph(concept_asserts, role_asserts, inds)


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


def restrict(tbox: TBox, heights, n: int) -> TBox:
    """The sub-TBox of axioms whose every name has height at most n.

    ``restrict(T, h, -1)`` is the empty TBox.  The result takes every concept
    name of the parent as an extra concept, so it has the parent's bit index
    and masks stay comparable across levels; its ``signature_mask`` is thus
    the parent's, and ``signature`` gives its own.  This is the paper's T|n
    as a TBox of its own; the library reads the same axioms through
    ``LevelMap.rules_at`` instead.
    """
    axioms = [ax for ax in tbox.axioms if axiom_level(ax, heights) <= n]
    return TBox(axioms, extra_concepts=tbox.concept_names)


def signature(tbox: TBox) -> int:
    """The mask of Top and of every name the axioms of `tbox` mention, Bot
    among them: the signature of the axioms alone."""
    return TOP_BIT | tbox.mask_of(c for ax in tbox.axioms for c in axiom_names(ax)[0])


def closure_names(tbox: TBox, closer: TypeCloser, names) -> frozenset:
    """The names `closer` entails at a node asserted to satisfy `names`,
    read through the bit index of `tbox`."""
    return tbox.names_of(closer.closure_mask(tbox.mask_of(names)))


def level_closer(levels, n: int) -> TypeCloser:
    """The closer of T|n built the direct way: a ``TypeCloser`` of its own
    over the rules of ``restrict(T, h, n)``, in which Bot floods a type to
    con(T|n)."""
    n = min(n, levels.max_level)
    return TypeCloser(restrict(levels.tbox, levels.heights, n).rules, levels.con_mask(n))


def swap_mask_scan(closer: TypeCloser, con_mask: int, premise_mask: int, goal_bit: int) -> int:
    """The anon schema by exhaustive scan: every bit B of con(T|n) (Top only
    for the bare premise {Top}) whose addition to the premise puts the goal
    into the closure `closer` computes for T|n."""
    candidates = con_mask if premise_mask == 1 else con_mask & ~1
    out = 0
    pos = 0
    while candidates >> pos:
        bit = 1 << pos
        if candidates & bit and closer.closure_mask(premise_mask | bit) & goal_bit:
            out |= bit
        pos += 1
    return out


def goal_moves_scan(
    tbox: TBox, closer: TypeCloser, con_mask: int, premise_mask: int, goal_bit: int
):
    """The goal moves by per-axiom dispatch: the sbus, succ and noc steps,
    as (role, goal bit) pairs, of every axiom of T|n with the goal on its
    right, where `tbox` is ``restrict(T, h, n)`` and `closer` the closer of
    T|n that ``level_closer`` builds, plus the swaps ``swap_mask_scan``
    finds."""
    goal = tbox.names_of(goal_bit)
    premise = tbox.names_of(premise_mask)
    bit = tbox.mask_of
    steps = []
    for ax in tbox.axioms:
        if isinstance(ax, ExRight) or ax.rhs not in goal:
            continue
        if isinstance(ax, Sub):
            steps.append((None, bit([ax.lhs])))
        elif isinstance(ax, ExLeft):
            steps.append((ax.role, bit([ax.filler])))
        elif isinstance(ax, ConjSub):
            if ax.lhs1 in premise:
                steps.append((None, bit([ax.lhs2])))
            if ax.lhs2 in premise:
                steps.append((None, bit([ax.lhs1])))
    return tuple(steps), swap_mask_scan(closer, con_mask, premise_mask, goal_bit)


def saturate_per_node(tbox: TBox, abox: AboxGraph):
    """ABox labels by the per-node path: close each individual's label as a
    ``TypeCloser`` context and push existential bodies across asserted edges,
    until nothing changes.  Returns {individual: label mask}."""
    closer = TypeCloser(tbox.rules, tbox.signature_mask)
    labels = {
        a: TOP_BIT | tbox.mask_of(c for c in abox.asserted[a] if c in tbox.bit_of)
        for a in abox.individuals
    }
    changed = True
    while changed:
        changed = False
        for a in abox.individuals:
            new = closer.closure_mask(labels[a])
            if new != labels[a]:
                labels[a] = new
                changed = True
            for role, fbit, rbit, _ in tbox.rules.exlefts:
                if new & fbit:
                    for nb in abox.neighbors(a, role.invert()):
                        if not labels[nb] & rbit:
                            labels[nb] |= rbit
                            changed = True
    return labels


def fire_scan(rules, cur: int, child_of, flood: int) -> int:
    """The rule kernel by rescanning: every sub, conj and spawn of `rules`
    on each pass until a pass adds nothing.  `saturate._fire` must return
    the same mask when `child_of` is monotone in the seed."""
    changed = True
    while changed:
        changed = False
        for lbit, rbit, _ in rules.subs:
            if cur & lbit and not cur & rbit:
                cur |= rbit
                changed = True
        for lmask, rbit, _ in rules.conjs:
            if cur & lmask == lmask and not cur & rbit:
                cur |= rbit
                changed = True
        if child_of is None:
            continue
        for lbit, fbit, _, back, fwd, _ in rules.spawns:
            if not cur & lbit:
                continue
            seed = 1 | fbit
            for f2, r2, _ in back:
                if cur & f2:
                    seed |= r2
            child = child_of(seed)
            if child & 2 and not cur & 2:
                cur |= 2
                changed = True
            for f2, r2, _ in fwd:
                if child & f2 and not cur & r2:
                    cur |= r2
                    changed = True
    return flood if cur & 2 else cur


def abox_reference(concept_asserts, role_asserts, individuals=()):
    """An ABox as plain sets: the (role, a, b) triples of its role
    assertions closed under inversion, and a map from each individual to
    the concept names asserted of it (Top aside).  Every public method of
    ``AboxGraph`` is a scan over these two."""
    concepts = {a: set() for a in individuals}
    for c, a in concept_asserts:
        concepts.setdefault(a, set())
        if c != TOP:
            concepts[a].add(c)
    triples = set()
    for role, a, b in role_asserts:
        concepts.setdefault(a, set())
        concepts.setdefault(b, set())
        triples.add((role, a, b))
        triples.add((role.invert(), b, a))
    return triples, concepts


def sccs_by_reachability(vertices, succ):
    """The strongly connected components as a set of frozensets: the classes
    of mutual reachability, with reachability taken one start at a time."""
    reach = {}
    for v in vertices:
        seen, todo = {v}, [v]
        while todo:
            for w in succ.get(todo.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach[v] = seen
    return {frozenset(w for w in vertices if w in reach[v] and v in reach[w]) for v in vertices}

"""Independent test oracles: a bounded naive chase, brute-force preorder
search, generators for arbitrary (not necessarily stratified) normal-form
TBoxes, and plain scanning versions of the library's fast paths.  These
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
    ConjSub,
    ExLeft,
    ExRight,
    Role,
    Sub,
    TBox,
    TypeCloser,
    restrict,
)


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


def level_closer(levels, n: int) -> TypeCloser:
    """The closer of T|n built the direct way: a ``TypeCloser`` of its own
    over ``restrict(T, h, n)``, in which Bot floods a type to con(T|n)."""
    n = min(n, levels.max_level)
    return TypeCloser(restrict(levels.tbox, levels.heights, n), levels.con_mask(n))


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


def goal_moves_scan(closer: TypeCloser, con_mask: int, premise_mask: int, goal_bit: int):
    """The goal moves by per-axiom dispatch: the sbus, succ and noc steps of
    every axiom of T|n with the goal on its right, where `closer` is the
    closer of T|n that ``level_closer`` builds (its TBox is
    ``restrict(T, h, n)``), plus the swaps ``swap_mask_scan`` finds."""
    tbox = closer.tbox
    goal = next(name for name, pos in tbox.bit_of.items() if 1 << pos == goal_bit)
    steps = []
    for ax in tbox.by_rhs(goal):
        if isinstance(ax, Sub):
            steps.append((None, ax.lhs))
        elif isinstance(ax, ExLeft):
            steps.append((ax.role, ax.filler))
        elif isinstance(ax, ConjSub):
            if ax.lhs1 in tbox.names_of(premise_mask):
                steps.append((None, ax.lhs2))
            if ax.lhs2 in tbox.names_of(premise_mask):
                steps.append((None, ax.lhs1))
    return tuple(steps), swap_mask_scan(closer, con_mask, premise_mask, goal_bit)


def saturate_per_node(tbox: TBox, abox: AboxGraph):
    """ABox labels by the per-node path: close each individual's label as a
    ``TypeCloser`` context and push existential bodies across asserted edges,
    until nothing changes.  Returns {individual: label mask}."""
    closer = TypeCloser(tbox)
    labels = {
        a: tbox.top_bit | tbox.mask_of(c for c in abox.asserted[a] if c in tbox.bit_of)
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
            for role, fbit, rbit, _ in tbox.exlefts:
                if new & fbit:
                    for nb in abox.neighbors(a, role.invert()):
                        if not labels[nb] & rbit:
                            labels[nb] |= rbit
                            changed = True
    return labels


def fire_scan(tbox: TBox, cur: int, child_of, flood: int) -> int:
    """The rule kernel by rescanning: every sub, conj and spawn of the TBox
    on each pass until a pass adds nothing.  `saturate._fire` must return
    the same mask when `child_of` is monotone in the seed."""
    changed = True
    while changed:
        changed = False
        for lbit, rbit, _ in tbox.subs:
            if cur & lbit and not cur & rbit:
                cur |= rbit
                changed = True
        for lmask, rbit, _ in tbox.conjs:
            if cur & lmask == lmask and not cur & rbit:
                cur |= rbit
                changed = True
        if child_of is None:
            continue
        for lbit, fbit, _, back, fwd, _ in tbox.spawns:
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

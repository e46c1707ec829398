"""The trusted-but-slow semantics engine.

Entailment for these knowledge bases is forward rule application: concept
inclusions fire locally, existential heads spawn anonymous successors, and
existential bodies fire back across asserted edges and those successors.
One kernel, ``_fire``, closes a single node's type under those rules, given
the types of the anonymous successors the node spawns; every fixpoint below
calls it:

* ``TypeCloser`` answers "which concept names follow for a single node with
  premise S" as a least fixpoint over contexts.  A context is either a root
  premise or an anonymous successor identified by its seed set; each
  context's type grows monotonically.  Types are integer bit masks over the
  TBox concept signature.  When Bot enters a type, that type becomes the
  full signature (ex falso); global inconsistency is flagged separately.
  Every closer, over the whole TBox's ``Rules`` or over one level's
  (``stratify.LevelMap.closer_at``), closes a new root in one kernel call
  that reads its successors' types as it goes.  Only the contexts that call
  creates start a worklist, which re-evaluates a context whenever one it
  reads grows.  How a successor is read is ``TypeCloser``'s to say.

* ``saturate_abox`` runs the kernel over a whole ABox, treating each
  individual's current label as the parent premise of its anonymous
  successors (whose final types come from a ``TypeCloser``), and pushes
  existential bodies across asserted role edges.  Its ``SatResult`` keeps
  that closer beside the labels and answers queries, with traces, itself
  (``SatResult.entails``).

The kernel looks a rule up only when a bit its body reads is new, through
the trigger index of its ``Rules``, which ``kb.rule_index`` builds with the
rule tuples, for the whole TBox and for each level alike (as ELK does):
per bit, the subs, the conjs and the existential heads ("spawns") whose lhs
or successor seed reads it.  A call is told which bits of the type are new;
by default all are.  The callers then re-run semi-naively: a ``TypeCloser``
worklist re-run starts from a type already closed under sub and conj,
passes no new bits, and so only re-evaluates the spawns, whose successor
types may have grown; ``saturate_abox`` passes only the bits pushed across
edges since the individual was last closed, makes no call at all when no
rule body reads one of them and the label is Bot-free, and pushes only the
existential bodies whose filler is new at the individual.

Both record, for every derived fact, the rule application that first
produced it (a ``TypeCloser`` only when it closes the whole TBox), so a full
derivation (a replayable sequence of single rule applications) can be
reconstructed for any entailed query over a consistent KB.  A record cites
only facts present when it was made: premises already in the type, and
bits already in a successor context's type.  Following records back thus
always ends, at any anonymous depth and even when successor seeds repeat.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Optional

from .kb import (
    BOT_BIT,
    TOP,
    TOP_BIT,
    AboxGraph,
    ConjSub,
    ExLeft,
    ExRight,
    KbError,
    NormGci,
    Rules,
    Sub,
    TBox,
    format_axiom,
)


def _fire(rules: Rules, cur: int, child_of, flood: int, justs=None, _new=None) -> int:
    """Close one node's type `cur` under the sub, conj and existential rules.

    `child_of(seed)` gives the type of the anonymous successor an existential
    head spawns with that seed; without it only sub and conj fire.  When Bot
    enters the type it becomes `flood`.  With a `justs` dict, the rule
    application adding each bit is recorded there, keyed by the bit; bits
    already in `cur` keep the records they have.  Bot, and the bits its
    flood adds, get none: no trace reads a type that holds Bot (see
    ``SatResult.entails``).

    Rules are found through ``rules.triggers``: a rule is looked at only when
    a bit its body reads is new.  `_new` holds the bits of `cur` whose rules
    have not been looked at yet; by default every bit is new.  A spawn is
    queued by its trigger bits and evaluated once after sub and conj
    propagation has settled; none is once Bot is in the type, whose value is
    then `flood` whatever its successors hold.  `_new=0` says that `cur` is
    closed under sub and conj but the successor types `child_of` returns may
    have grown since it was: every spawn whose lhs holds is evaluated again.
    """
    triggers, body, spawns = rules.triggers, rules.body_mask, rules.spawns
    pending = queued = 0
    if not cur & BOT_BIT:
        if _new is None:
            pending = cur & body
        elif _new:
            pending = _new & body
        elif child_of is not None:
            for i, sp in enumerate(spawns):
                if cur & sp[0]:
                    queued |= 1 << i
    while True:
        while pending:
            low = pending & -pending
            pending ^= low
            subs, conjs, smask = triggers[low]
            queued |= smask
            for _, rbit, ax in subs:
                if not cur & rbit:
                    cur |= rbit
                    pending |= rbit & body
                    if justs is not None:
                        justs[rbit] = ("sub", ax)
            for lmask, rbit, ax in conjs:
                if cur & lmask == lmask and not cur & rbit:
                    cur |= rbit
                    pending |= rbit & body
                    if justs is not None:
                        justs[rbit] = ("conj", ax)
        if child_of is None or not queued:
            break
        todo, queued = queued, 0
        while todo and not cur & BOT_BIT:
            low = todo & -todo
            todo ^= low
            lbit, fbit, exr, back, fwd, fwd_mask = spawns[low.bit_length() - 1]
            if not cur & lbit:
                continue
            parent = cur
            seed = TOP_BIT | fbit
            for f2, r2, _ in back:
                if parent & f2:
                    seed |= r2
            child = child_of(seed)
            cur |= child & BOT_BIT
            if not child & fwd_mask:
                continue
            for f2, r2, exl in fwd:
                if child & f2 and not cur & r2:
                    cur |= r2
                    pending |= r2 & body
                    if justs is not None:
                        justs[r2] = ("anon", exr, exl, _seed_pairs(back, parent), seed)
        if not pending or cur & BOT_BIT:
            break
    return flood if cur & BOT_BIT else cur


def _seed_pairs(back, parent: int) -> tuple:
    """The (axiom, filler bit) pairs that put names into a successor's seed."""
    return tuple((exl, f2) for f2, _, exl in back if parent & f2)


class TypeCloser:
    """Entailed concepts of a single node, memoized per premise set.

    `rules` are a whole TBox's ``Rules`` or one level's
    (``stratify.LevelMap.rules_at``).  When Bot enters a type, the type
    becomes `flood_mask` plus Top and Bot: the TBox signature for the whole
    TBox, con(T|n) (``stratify.LevelMap.con_mask``) for a level.

    A new root takes one kernel call, whatever the closer, and reads its
    successors through ``_child_of``.  With a `shared` closer, over a TBox
    that `rules` are a level restriction of, a seed whose shared type is
    Bot-free reads that type: it is final, and agrees with this TBox's type
    on every name a rule here reads (the argument is in
    ``stratify.LevelMap``).  Every other seed reads a context of this
    closer, sub/conj-closed on first read (with `shared`, a rule missing
    from `rules` may be what derives the Bot).  A worklist starts only from
    the contexts the call created.

    A closer built without `shared` closes the whole TBox, and a trace reads
    its contexts; it keeps, per context, the rule application that first
    added each bit (``justs``): at the root, at a new seed, and at every
    worklist re-run.  A level closer keeps none.  An existential record cites
    a successor bit that its context held already, so its own record is
    older: following records back always ends.
    """

    def __init__(self, rules: Rules, flood_mask: int, shared: "TypeCloser" = None):
        self.rules = rules
        self.shared = shared
        self.flood_mask = flood_mask | TOP_BIT | BOT_BIT
        self._vals: Dict[int, int] = {}
        self._rdeps: Dict[int, set] = {}
        self._fresh: list = []  # contexts made since the last worklist started
        self._reading = 0  # the context whose kernel call is reading successors
        self._justs: Optional[Dict[int, dict]] = {} if shared is None else None

    # -- public -----------------------------------------------------------

    def closure_mask(self, mask: int) -> int:
        mask |= TOP_BIT
        got = self._vals.get(mask)
        if got is not None:
            return got
        # a seed equal to `mask` is a context too, re-run from this value
        self._reading = mask
        self._vals[mask] = _fire(
            self.rules, mask, self._child_of, self.flood_mask, self._record(mask)
        )
        if self._fresh:
            self._run_worklist()
        return self._vals[mask]

    def contexts(self) -> int:
        """How many contexts (roots and successor seeds) have a type here."""
        return len(self._vals)

    def justs(self, mask: int) -> dict:
        """Per bit of a context's type, the rule application that first added
        it; the context's own premise bits have none.  Only a closer without
        `shared` keeps them."""
        return self._justs[mask | TOP_BIT]

    # -- fixpoint ---------------------------------------------------------

    def _record(self, mask: int) -> Optional[dict]:
        """Where the context's rule applications go, if this closer keeps them."""
        if self._justs is None:
            return None
        return self._justs.setdefault(mask, {})

    def _child_of(self, seed: int) -> int:
        """The successor reader of the kernel call over `_reading`: a Bot-free
        `shared` type, final; else the seed's context here, made on first
        read (into `_fresh`), with `_reading` as its dependent."""
        shared = self.shared
        if shared is not None:
            v = shared.closure_mask(seed)
            if not v & BOT_BIT:
                return v
        v = self._vals.get(seed)
        if v is None:
            v = _fire(self.rules, seed, None, self.flood_mask, self._record(seed))
            self._vals[seed] = v
            self._fresh.append(seed)
        self._rdeps.setdefault(seed, set()).add(self._reading)
        return v

    def _run_worklist(self):
        """Re-run the contexts kernel calls created (`_fresh`), and every
        context that reads one that grows, until no type grows."""
        fresh = self._fresh
        queue = deque(fresh)
        queued = set(fresh)
        fresh.clear()
        while queue:
            m = queue.popleft()
            queued.discard(m)
            self._reading = m
            before = self._vals[m]
            after = _fire(
                self.rules, before, self._child_of, self.flood_mask, self._record(m), _new=0
            )
            queue.extend(fresh)
            queued.update(fresh)
            fresh.clear()
            if after != before:
                self._vals[m] = after
                # its readers re-run, and a new value means new seeds of its own
                for d in (*self._rdeps.get(m, ()), m):
                    if d not in queued:
                        queue.append(d)
                        queued.add(d)


# ---------------------------------------------------------------------------
# ABox saturation
# ---------------------------------------------------------------------------


@dataclass
class SatResult:
    tbox: TBox
    abox: AboxGraph
    labels: Dict[str, int]
    inconsistent: bool
    bot_at: Optional[str]  # the first individual, in ABox order, whose label holds Bot
    justs: dict  # ind -> {concept bit: rule application}
    closer: TypeCloser  # the whole-TBox closer whose contexts the "anon" records cite

    def entails(self, concept: str, ind: str, want_trace: bool = False):
        """True iff the query is derivable, or the KB is inconsistent
        (everything follows then).  Returns (answer, trace); the trace
        replays per ``replay_derivation`` and is produced only for consistent
        KBs."""
        self.abox.require(ind)
        if self.inconsistent:
            return True, None
        bit = self.tbox.bit_of.get(concept)
        if bit is None:
            answer = concept in self.abox.asserted[ind]
        else:
            answer = bool(self.labels[ind] & (1 << bit))
        if not answer or not want_trace:
            return answer, None
        if concept in self.abox.asserted[ind]:
            return True, []
        builder = _TraceBuilder(self)
        builder.ensure(concept, ind, self.justs[ind])
        return True, builder.steps


def saturate_abox(tbox: TBox, abox: AboxGraph, closer: TypeCloser = None) -> SatResult:
    """Fixpoint labels for every individual, plus the consistency verdict;
    the result keeps `closer` (by default a new whole-TBox one), whose
    contexts its traces read."""
    rules = tbox.rules
    closer = closer or TypeCloser(rules, tbox.signature_mask)
    child_of, flood, body = closer.closure_mask, closer.flood_mask, rules.body_mask
    # one mask per distinct asserted label: most individuals share the empty one
    known, label_of, labels = tbox.bit_of.keys(), {}, {}
    for a, names in abox.asserted.items():
        m = label_of.get(names)
        if m is None:
            m = label_of[names] = TOP_BIT | tbox.mask_of(names & known)
        labels[a] = m
    justs = {a: {} for a in abox.individuals}

    # `exists r . F <= B` holds at every r-neighbour of an F individual,
    # i.e. at its inverse-r neighbours
    pushes, by_filler = [], {}  # by_filler: filler bit -> positions in `pushes`
    for i, (role, fbit, rbit, exl) in enumerate(rules.exlefts):
        pushes.append((abox.adjacency(role.invert()), rbit, exl))
        by_filler[fbit] = by_filler.get(fbit, 0) | 1 << i
    fillers = sum(by_filler)
    queue = deque(abox.individuals)
    queued = set(queue)
    # Semi-naive: per individual, the bits pushed to it since its label was
    # last closed (a label never closed counts as all new), and the label
    # its own pushes were last made from.
    new_bits = dict(labels)
    pushed_from = dict.fromkeys(abox.individuals, 0)

    while queue:
        a = queue.popleft()
        queued.discard(a)
        cur = labels[a]
        # the kernel returns `cur` unchanged unless a rule body reads a new
        # bit or Bot is to flood the label
        if new_bits[a] & body or cur & BOT_BIT:
            cur = labels[a] = _fire(rules, cur, child_of, flood, justs[a], new_bits[a])
        new_bits[a] = 0
        # push existential bodies with a filler new at `a` across asserted
        # edges; older fillers were pushed already, and labels only grow
        fresh, todo = cur & ~pushed_from[a] & fillers, 0
        pushed_from[a] = cur
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            todo |= by_filler[low]
        while todo:
            low = todo & -todo
            todo ^= low
            edges, rbit, exl = pushes[low.bit_length() - 1]
            for nb in edges.get(a, ()):
                if not labels[nb] & rbit:
                    labels[nb] |= rbit
                    new_bits[nb] |= rbit
                    justs[nb][rbit] = ("edge", exl, a)
                    if nb not in queued:
                        queue.append(nb)
                        queued.add(nb)
    bot_at = next((a for a in abox.individuals if labels[a] & BOT_BIT), None)
    return SatResult(tbox, abox, labels, bot_at is not None, bot_at, justs, closer)


# ---------------------------------------------------------------------------
# Oracle entailment with derivation traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivationStep:
    """One rule application: `axiom` fires for `subject`, adding `adds`.

    Assertions are ("concept", name, ind) or ("role", Role, a, b) tuples;
    `uses` lists the assertions the application consumed.
    """

    axiom: NormGci
    subject: str
    adds: tuple
    uses: tuple

    def __str__(self):
        def fmt(x):
            if x[0] == "concept":
                return f"{x[1]}({x[2]})"
            return f"{x[1]}({x[2]}, {x[3]})"

        added = ", ".join(fmt(x) for x in self.adds)
        used = ", ".join(fmt(x) for x in self.uses)
        src = f" using {used}" if used else ""
        return f"apply '{format_axiom(self.axiom)}' at {self.subject}: add {added}{src}"


class _TraceBuilder:
    """Turns the rule applications a ``SatResult`` recorded into steps: its
    per-individual records, and its closer's for the anonymous successors.

    An anonymous successor is materialized once per (node, spawning axiom,
    seed) and reused by every existential record that names the same
    triple: its seed, hence its context and type, is the same each time.
    """

    def __init__(self, sat: SatResult):
        self.tbox = sat.tbox
        self.sat = sat
        self.steps = []
        self.successors = {}  # (node, spawning axiom, seed) -> successor
        self.have_c = set()
        self.have_ind = set(sat.abox.individuals)
        self.counter = 0
        for a in sat.abox.individuals:
            for c in sat.abox.asserted[a]:
                self.have_c.add((c, a))

    def fresh_ind(self):
        while True:
            self.counter += 1
            name = f"n{self.counter}"
            if name not in self.have_ind:
                self.have_ind.add(name)
                return name

    def step(self, axiom, subject, adds, uses):
        self.steps.append(DerivationStep(axiom, subject, tuple(adds), tuple(uses)))
        for x in adds:
            if x[0] == "concept":
                self.have_c.add((x[1], x[2]))

    def ensure(self, c, node, justs):
        """Derive concept c at `node`, whose rule applications `justs` records.
        Each ``_derive`` yields the premises it needs, in order, to a stack
        that stands in for recursion: a derivation may outgrow the recursion
        limit."""
        stack = [self._derive(c, node, justs)]
        while stack:
            need = next(stack[-1], None)
            if need is None:
                stack.pop()
            else:
                stack.append(self._derive(*need))

    def _derive(self, c, node, justs):
        if c == TOP or (c, node) in self.have_c:
            return
        just = justs.get(1 << self.tbox.bit_of[c])
        if just is None:
            raise AssertionError(f"no rule application derives {c} at {node}")
        kind = just[0]
        if kind == "sub":
            ax = just[1]
            yield ax.lhs, node, justs
            self.step(ax, node, [("concept", c, node)], [("concept", ax.lhs, node)])
        elif kind == "conj":
            ax = just[1]
            yield ax.lhs1, node, justs
            yield ax.lhs2, node, justs
            self.step(
                ax,
                node,
                [("concept", c, node)],
                [("concept", ax.lhs1, node), ("concept", ax.lhs2, node)],
            )
        elif kind == "edge":
            ax, nb = just[1], just[2]
            yield ax.filler, nb, self.sat.justs[nb]
            self.step(
                ax,
                node,
                [("concept", c, node)],
                [("role", ax.role, node, nb), ("concept", ax.filler, nb)],
            )
        elif kind == "anon":
            _, exr, exl, seed_pairs, seed = just
            child = self.successors.get((node, exr, seed))
            if child is None:
                child = yield from self._spawn(exr, seed_pairs, node, justs)
                self.successors[node, exr, seed] = child
            yield exl.filler, child, self.sat.closer.justs(seed)
            self.step(
                exl,
                node,
                [("concept", c, node)],
                [("role", exl.role, node, child), ("concept", exl.filler, child)],
            )
        else:
            raise AssertionError(f"unknown justification {just!r}")

    def _spawn(self, exr, seed_pairs, node, justs):
        """Materialize the anonymous successor exr creates below `node`; a
        generator like ``_derive``, returning the successor."""
        yield exr.lhs, node, justs
        child = self.fresh_ind()
        self.step(
            exr,
            node,
            [("role", exr.role, node, child), ("concept", exr.filler, child)],
            [("concept", exr.lhs, node)],
        )
        for exl2, _ in seed_pairs:
            yield exl2.filler, node, justs
            self.step(
                exl2,
                child,
                [("concept", exl2.rhs, child)],
                [("role", exl2.role, child, node), ("concept", exl2.filler, node)],
            )
        return child


def oracle_entails(tbox: TBox, abox: AboxGraph, concept: str, ind: str, want_trace: bool = False):
    """One-shot ``SatResult.entails``: saturate the KB, then answer."""
    abox.require(ind)
    return saturate_abox(tbox, abox).entails(concept, ind, want_trace)


def replay_derivation(tbox: TBox, abox: AboxGraph, steps, concept: str, ind: str) -> bool:
    """Replay a derivation from the initial ABox, checking every step.

    Raises KbError on an invalid step; returns True when the final state
    contains the queried assertion.
    """
    have_c = {(TOP, a) for a in abox.individuals}
    known = set(abox.individuals)
    have_r = set()
    for a in abox.individuals:
        for c in abox.asserted[a]:
            have_c.add((c, a))
    for role, a, b in abox.role_asserts():
        have_r.add((role, a, b))
        have_r.add((role.invert(), b, a))

    def check_concept(c, a):
        if c == TOP:
            if a not in known:
                raise KbError(f"Top({a}) used but {a} never introduced")
            return
        if (c, a) not in have_c:
            raise KbError(f"step uses {c}({a}) before it is derived")

    for st in steps:
        ax = st.axiom
        if isinstance(ax, Sub):
            (kind, c, a), = st.adds
            check_concept(ax.lhs, a)
            if kind != "concept" or c != ax.rhs:
                raise KbError(f"step does not match its axiom: {st}")
            have_c.add((c, a))
        elif isinstance(ax, ConjSub):
            (kind, c, a), = st.adds
            check_concept(ax.lhs1, a)
            check_concept(ax.lhs2, a)
            if kind != "concept" or c != ax.rhs:
                raise KbError(f"step does not match its axiom: {st}")
            have_c.add((c, a))
        elif isinstance(ax, ExRight):
            (rk, role, a, b), (ck, c, b2) = st.adds
            if rk != "role" or ck != "concept" or role != ax.role or c != ax.filler or b2 != b:
                raise KbError(f"step does not match its axiom: {st}")
            check_concept(ax.lhs, a)
            if b in known:
                raise KbError(f"successor {b} is not fresh")
            known.add(b)
            have_r.add((role, a, b))
            have_r.add((role.invert(), b, a))
            have_c.add((c, b))
        elif isinstance(ax, ExLeft):
            (kind, c, a), = st.adds
            if kind != "concept" or c != ax.rhs:
                raise KbError(f"step does not match its axiom: {st}")
            witness = None
            for u in st.uses:
                if u[0] == "role" and u[1] == ax.role and u[2] == a:
                    if (u[1], u[2], u[3]) in have_r:
                        witness = u[3]
            if witness is None:
                raise KbError(f"no role edge supports {st}")
            check_concept(ax.filler, witness)
            have_c.add((c, a))
        else:
            raise KbError(f"unknown axiom in step: {st}")
    return (concept, ind) in have_c or concept == TOP

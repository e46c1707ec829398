"""Knowledge-base data model: concepts, axioms, ABoxes, parsing, normalization.

The text format is line oriented, UTF-8, with ``#`` comments:

    tbox:
    A <= B
    A & B <= C
    A <= exists r . B
    exists inv r . A <= B
    A <= bot
    abox:
    A(a)
    r(a, b)
    order:            # optional; one line per height level, low to high
    A
    B
    C r
    D

Names match ``[A-Za-z][A-Za-z0-9_]*``.  ``Top``/``top`` and ``Bot``/``bot``
are reserved concept spellings, ``exists`` and ``inv`` are keywords.
``inv r`` denotes the inverse of role ``r``.  The parser accepts arbitrary
nesting of ``&``/``exists`` (with parentheses); the normalizer reduces
everything to the four normal-form axiom shapes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Union

TOP = "Top"
BOT = "Bot"

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# Parsing, normalizing, hashing and printing concepts all recurse on their
# structure; this bound keeps every such pass far inside Python's recursion
# limit, so over-deep input is a ParseError rather than a RecursionError.
MAX_NESTING = 100
# the reserved concept spellings, and the concept each one denotes
RESERVED = {"Top": TOP, "top": TOP, "Bot": BOT, "bot": BOT}


class KbError(Exception):
    """Base class for knowledge-base errors."""


class ParseError(KbError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True, order=True)
class Role:
    """A role name, possibly inverted.  ``invert`` is an involution."""

    name: str
    inverted: bool = False

    def invert(self) -> "Role":
        return Role(self.name, not self.inverted)

    def __str__(self) -> str:
        return f"inv {self.name}" if self.inverted else self.name


# Surface concepts.  Plain strings stand for concept names (including the
# reserved "Top"/"Bot"); And/Exists build the two ELI constructors.
@dataclass(frozen=True)
class And:
    lhs: "Concept"
    rhs: "Concept"


@dataclass(frozen=True)
class Exists:
    role: Role
    filler: "Concept"


Concept = Union[str, And, Exists]


@dataclass(frozen=True)
class Gci:
    """A general concept inclusion ``lhs <= rhs`` as written by the user."""

    lhs: Concept
    rhs: Concept


def format_concept(c: Concept, *, parens: bool = False) -> str:
    if isinstance(c, str):
        return c
    if isinstance(c, And):
        text = f"{format_concept(c.lhs, parens=True)} & {format_concept(c.rhs, parens=True)}"
        return f"({text})" if parens else text
    if isinstance(c, Exists):
        inner = c.filler
        if isinstance(inner, And):
            body = f"({format_concept(inner)})"
        else:
            body = format_concept(inner)
        text = f"exists {c.role} . {body}"
        return f"({text})" if parens else text
    raise TypeError(f"not a concept: {c!r}")


# Normal-form axioms: the four shapes every TBox is reduced to.
@dataclass(frozen=True)
class Sub:
    lhs: str  # concept name or Top
    rhs: str  # concept name, Top, or Bot


@dataclass(frozen=True)
class ConjSub:
    lhs1: str  # concept names only
    lhs2: str
    rhs: str  # concept name or Bot


@dataclass(frozen=True)
class ExRight:
    lhs: str  # concept name or Top
    role: Role
    filler: str  # concept name or Top (never Bot)


@dataclass(frozen=True)
class ExLeft:
    role: Role
    filler: str  # concept name or Top
    rhs: str  # concept name or Bot


NormGci = Union[Sub, ConjSub, ExRight, ExLeft]


def format_axiom(ax) -> str:
    if isinstance(ax, Sub):
        return f"{ax.lhs} <= {ax.rhs}"
    if isinstance(ax, ConjSub):
        return f"{ax.lhs1} & {ax.lhs2} <= {ax.rhs}"
    if isinstance(ax, ExRight):
        return f"{ax.lhs} <= exists {ax.role} . {ax.filler}"
    if isinstance(ax, ExLeft):
        return f"exists {ax.role} . {ax.filler} <= {ax.rhs}"
    if isinstance(ax, Gci):
        return f"{format_concept(ax.lhs)} <= {format_concept(ax.rhs)}"
    raise TypeError(f"not an axiom: {ax!r}")


def axiom_names(ax: NormGci):
    """Concept and role names mentioned by a normal-form axiom.

    Returns (concept names incl. Top/Bot, role base names).
    """
    if isinstance(ax, Sub):
        return (ax.lhs, ax.rhs), ()
    if isinstance(ax, ConjSub):
        return (ax.lhs1, ax.lhs2, ax.rhs), ()
    if isinstance(ax, ExRight):
        return (ax.lhs, ax.filler), (ax.role.name,)
    if isinstance(ax, ExLeft):
        return (ax.filler, ax.rhs), (ax.role.name,)
    raise TypeError(f"not a normal-form axiom: {ax!r}")


def rule_index(subs, conjs, exlefts, heads):
    """(spawns, triggers, body_mask) for ``saturate._fire``, over rule tuples
    in axiom order: a ``TBox``'s own, or a level's selection of them.

    `subs` holds (lbit, rbit, axiom), `conjs` (lmask, rbit, axiom), `exlefts`
    (role, fbit, rbit, axiom) and `heads` (lbit, fbit, axiom), one per
    existential head.  A spawn is (lbit, fbit, axiom, back, fwd, fwd_mask):
    `back` lists the existential bodies (fbit, rbit, axiom) the successor
    reads off its parent (over the inverse role), `fwd` those the parent
    reads off it, `fwd_mask` their fillers; its body is its lhs plus every
    `back` filler.  `triggers` maps a one-bit mask to [subs, conjs, mask of
    spawn positions] whose body reads that bit; `body_mask` holds them all.
    """
    # keyed on (name, inverted): hashing a Role dataclass is slow
    by_role, fillers_of = {}, {}
    for role, fbit, rbit, a in exlefts:
        key = (role.name, role.inverted)
        by_role.setdefault(key, []).append((fbit, rbit, a))
        fillers_of[key] = fillers_of.get(key, 0) | fbit
    by_role = {key: tuple(v) for key, v in by_role.items()}
    triggers = {}

    def slots(body):
        while body:
            low = body & -body
            body ^= low
            yield triggers.get(low) or triggers.setdefault(low, [[], [], 0])

    for sub in subs:
        for slot in slots(sub[0]):
            slot[0].append(sub)
    for conj in conjs:
        for slot in slots(conj[0]):
            slot[1].append(conj)
    spawns = []
    for lbit, fbit, a in heads:
        key, inv = (a.role.name, a.role.inverted), (a.role.name, not a.role.inverted)
        for slot in slots(lbit | fillers_of.get(inv, 0)):
            slot[2] |= 1 << len(spawns)
        back, fwd = by_role.get(inv, ()), by_role.get(key, ())
        spawns.append((lbit, fbit, a, back, fwd, fillers_of.get(key, 0)))
    return tuple(spawns), triggers, sum(triggers)


class TBox:
    """An immutable set of normal-form axioms with lookup indexes.

    Concept names are assigned bit positions (Top=bit 0, Bot=bit 1) so that
    sets of concepts can be carried around as integer masks.  A TBox built
    with ``share_index_with`` reuses the parent's bit assignment, which keeps
    masks compatible between a TBox and its height restrictions.
    """

    def __init__(
        self,
        axioms: Iterable[NormGci],
        share_index_with: "TBox" = None,
        extra_concepts: Iterable[str] = (),
    ):
        seen = set()
        ordered = []
        for ax in axioms:
            if ax not in seen:
                seen.add(ax)
                ordered.append(ax)
        self.axioms = tuple(ordered)

        cons, rols = set(extra_concepts), set()
        bot_occurs = False
        for ax in self.axioms:
            cnames, rnames = axiom_names(ax)
            for c in cnames:
                if c == BOT:
                    bot_occurs = True
                elif c != TOP:
                    cons.add(c)
            rols.update(rnames)
        clash = cons & rols
        if clash:
            raise KbError(f"names used both as concept and as role: {sorted(clash)}")
        self.concept_names = tuple(sorted(cons))
        self.role_names = tuple(sorted(rols))
        self.bot_occurs = bot_occurs

        if share_index_with is not None:
            self.bit_of = share_index_with.bit_of
        else:
            self.bit_of = {TOP: 0, BOT: 1}
            for i, c in enumerate(self.concept_names):
                self.bit_of[c] = i + 2
        missing = [c for c in self.concept_names if c not in self.bit_of]
        if missing:
            raise KbError(f"shared index lacks concepts {missing}")
        self._name_of = {b: c for c, b in self.bit_of.items()}

        self.top_bit = 1  # 1 << bit_of[TOP]
        self.bot_bit = 2  # 1 << bit_of[BOT]
        sig = self.top_bit
        for c in self.concept_names:
            sig |= 1 << self.bit_of[c]
        if bot_occurs:
            sig |= self.bot_bit
        self.signature_mask = sig

        # Compiled rule views for the fixpoint engines, in axiom order.
        bit_of = self.bit_of
        subs, conjs, exlefts, heads = [], [], [], []
        for a in self.axioms:
            if isinstance(a, Sub):
                subs.append((1 << bit_of[a.lhs], 1 << bit_of[a.rhs], a))
            elif isinstance(a, ConjSub):
                lmask = 1 << bit_of[a.lhs1] | 1 << bit_of[a.lhs2]
                conjs.append((lmask, 1 << bit_of[a.rhs], a))
            elif isinstance(a, ExLeft):
                exlefts.append((a.role, 1 << bit_of[a.filler], 1 << bit_of[a.rhs], a))
            else:
                heads.append((1 << bit_of[a.lhs], 1 << bit_of[a.filler], a))
        self.subs, self.conjs, self.exlefts = tuple(subs), tuple(conjs), tuple(exlefts)
        self.spawns, self.triggers, self.body_mask = rule_index(subs, conjs, exlefts, heads)

        rhs_index = {}
        for a in self.axioms:
            rhs = getattr(a, "rhs", None)  # ExRight has no rhs concept name
            if rhs is not None:
                rhs_index.setdefault(rhs, []).append(a)
        self._rhs_index = {k: tuple(v) for k, v in rhs_index.items()}

    def by_rhs(self, name: str):
        """Axioms whose right-hand side is exactly `name` (Bot included)."""
        return self._rhs_index.get(name, ())

    def mask_of(self, names: Iterable[str]) -> int:
        m = 0
        for n in names:
            m |= 1 << self.bit_of[n]
        return m

    def names_of(self, mask: int) -> frozenset:
        out = []
        b = 0
        while mask:
            if mask & 1:
                out.append(self._name_of[b])
            mask >>= 1
            b += 1
        return frozenset(out)

    def __eq__(self, other):
        return isinstance(other, TBox) and set(self.axioms) == set(other.axioms)

    def __hash__(self):
        return hash(frozenset(self.axioms))

    def __repr__(self):
        return f"TBox({len(self.axioms)} axioms)"


class AboxGraph:
    """Individuals with concept labels and role adjacency closed under inversion."""

    def __init__(self, concept_asserts=(), role_asserts=(), individuals=()):
        inds = set(individuals)
        asserted = {}
        for c, a in concept_asserts:
            inds.add(a)
            if c != TOP:  # Top holds everywhere; not stored
                asserted.setdefault(a, set()).add(c)
        edges = {}
        for role, a, b in role_asserts:
            inds.add(a)
            inds.add(b)
            edges.setdefault((a, role), set()).add(b)
            edges.setdefault((b, role.invert()), set()).add(a)
        self.individuals = tuple(sorted(inds))
        self.asserted = {a: frozenset(asserted.get(a, ())) for a in self.individuals}
        self._adj = {k: tuple(sorted(v)) for k, v in edges.items()}

    def names(self) -> frozenset:
        """Every name the ABox uses: individuals, concepts and roles."""
        names = set(self.individuals).union(*self.asserted.values())
        names.update(role.name for _, role in self._adj)
        return frozenset(names)

    def require(self, ind: str):
        """Raise KbError unless `ind` is an individual of the ABox."""
        if ind not in self.asserted:
            raise KbError(f"unknown individual {ind!r}")

    def neighbors(self, ind: str, role: Role):
        return self._adj.get((ind, role), ())

    def has_edge(self, a: str, role: Role, b: str) -> bool:
        return b in self._adj.get((a, role), ())

    def role_asserts(self):
        """One canonical (role, a, b) triple per stored edge pair."""
        out = []
        for (a, role), targets in sorted(self._adj.items()):
            if role.inverted:
                continue
            for b in targets:
                out.append((role, a, b))
        return out

    def concept_asserts(self):
        out = []
        for a in self.individuals:
            for c in sorted(self.asserted[a]):
                out.append((c, a))
        return out

    def bare_individuals(self):
        """Individuals that carry no assertion at all (kept via Top(a) lines)."""
        mentioned = set()
        for c, a in self.concept_asserts():
            mentioned.add(a)
        for _, a, b in self.role_asserts():
            mentioned.add(a)
            mentioned.add(b)
        return tuple(x for x in self.individuals if x not in mentioned)

    def __eq__(self, other):
        return (
            isinstance(other, AboxGraph)
            and self.individuals == other.individuals
            and self.asserted == other.asserted
            and self._adj == other._adj
        )

    def __hash__(self):
        return hash((self.individuals, tuple(sorted(self._adj))))

    def __repr__(self):
        return f"AboxGraph({len(self.individuals)} individuals)"


@dataclass
class ParsedKb:
    gcis: tuple
    abox: AboxGraph
    order_levels: Optional[tuple] = None  # tuple of tuples, low to high

    @property
    def order(self) -> Optional[dict]:
        """The `order_levels` as name -> height level."""
        if self.order_levels is None:
            return None
        return {name: h for h, level in enumerate(self.order_levels) for name in level}

    def role_names(self) -> frozenset:
        """The role names the TBox or the ABox uses."""
        names = {role.name for role, _, _ in self.abox.role_asserts()}
        stack = [c for g in self.gcis for c in (g.lhs, g.rhs)]
        while stack:
            c = stack.pop()
            if isinstance(c, And):
                stack += (c.lhs, c.rhs)
            elif isinstance(c, Exists):
                names.add(c.role.name)
                stack.append(c.filler)
        return frozenset(names)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _Tokens:
    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.pos = 0
        self.depth = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        ch = self.text[self.pos]
        if ch.isalpha():
            m = _NAME_RE.match(self.text, self.pos)
            return m.group(0)
        if self.text.startswith("<=", self.pos):
            return "<="
        return ch

    def take(self):
        tok = self.peek()
        if tok is None:
            self.err("unexpected end of line")
        self.pos += len(tok)
        return tok

    def expect(self, what: str):
        tok = self.take()
        if tok != what:
            self.err(f"expected {what!r}, found {tok!r}")

    def col(self) -> int:
        return self.pos + 1

    def enter(self):
        """Open a parenthesis or an exists; the parser recurses once per level."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.err(f"concept nested deeper than {MAX_NESTING} levels")

    def err(self, message: str):
        raise ParseError(message, self.line, self.col())


def _is_name(tok) -> bool:
    return tok is not None and _NAME_RE.fullmatch(tok) is not None and tok not in ("exists", "inv")


class _KindTable:
    """Tracks whether a name is used as a concept, role, or individual."""

    def __init__(self):
        self.kinds = {}

    def use(self, name: str, kind: str, toks: _Tokens):
        prior = self.kinds.get(name)
        if prior is None:
            self.kinds[name] = kind
        elif prior != kind:
            toks.err(f"{name!r} used as {kind} but previously as {prior}")


def _parse_role(toks: _Tokens, kinds: _KindTable) -> Role:
    tok = toks.take()
    inverted = False
    if tok == "inv":
        inverted = True
        tok = toks.take()
    if not _is_name(tok) or tok in RESERVED:
        toks.err(f"expected a role name, found {tok!r}")
    kinds.use(tok, "role", toks)
    return Role(tok, inverted)


def _parse_unary(toks: _Tokens, kinds: _KindTable) -> Concept:
    tok = toks.peek()
    if tok == "(":
        toks.take()
        toks.enter()
        c = _parse_concept(toks, kinds)
        toks.expect(")")
        toks.depth -= 1
        return c
    if tok == "exists":
        toks.take()
        role = _parse_role(toks, kinds)
        toks.expect(".")
        toks.enter()
        c = Exists(role, _parse_unary(toks, kinds))
        toks.depth -= 1
        return c
    if tok in RESERVED:
        toks.take()
        return RESERVED[tok]
    if _is_name(tok):
        toks.take()
        kinds.use(tok, "concept", toks)
        return tok
    toks.err(f"expected a concept, found {tok!r}")


def _parse_concept(toks: _Tokens, kinds: _KindTable) -> Concept:
    c = _parse_unary(toks, kinds)
    while toks.peek() == "&":
        toks.take()
        c = And(c, _parse_unary(toks, kinds))
    return c


def _height(c: Concept) -> int:
    """The depth of a concept's syntax tree, computed without recursion."""
    best = 0
    stack = [(c, 0)]
    while stack:
        node, depth = stack.pop()
        best = max(best, depth)
        if isinstance(node, And):
            stack += [(node.lhs, depth + 1), (node.rhs, depth + 1)]
        elif isinstance(node, Exists):
            stack.append((node.filler, depth + 1))
    return best


def _parse_gci_line(toks: _Tokens, kinds: _KindTable) -> Gci:
    lhs = _parse_concept(toks, kinds)
    toks.expect("<=")
    rhs = _parse_concept(toks, kinds)
    if toks.peek() is not None:
        toks.err(f"trailing input: {toks.peek()!r}")
    # a long flat conjunction parses iteratively but nests one And per '&'
    if max(_height(lhs), _height(rhs)) > MAX_NESTING:
        toks.err(f"concept nested deeper than {MAX_NESTING} levels")
    return Gci(lhs, rhs)


def _parse_assertion_line(toks: _Tokens, kinds: _KindTable):
    tok = toks.take()
    inverted = False
    if tok == "inv":
        inverted = True
        tok = toks.take()
    if not _is_name(tok):  # a reserved spelling is a name here
        toks.err(f"expected a concept or role name, found {tok!r}")
    toks.expect("(")
    first = toks.take()
    if not _is_name(first):
        toks.err(f"expected an individual name, found {first!r}")
    kinds.use(first, "individual", toks)
    nxt = toks.take()
    if nxt == ")":
        if inverted:
            toks.err("'inv' only applies to role assertions")
        concept = RESERVED.get(tok)
        if concept is None:
            concept = tok
            kinds.use(tok, "concept", toks)
        if toks.peek() is not None:
            toks.err(f"trailing input: {toks.peek()!r}")
        return ("concept", concept, first)
    if nxt != ",":
        toks.err(f"expected ',' or ')', found {nxt!r}")
    second = toks.take()
    if not _is_name(second):
        toks.err(f"expected an individual name, found {second!r}")
    kinds.use(second, "individual", toks)
    toks.expect(")")
    if toks.peek() is not None:
        toks.err(f"trailing input: {toks.peek()!r}")
    if tok in RESERVED:
        toks.err(f"{tok!r} is not a role")
    kinds.use(tok, "role", toks)
    role = Role(tok, inverted)
    if inverted:  # store canonically: inv r(a, b) is r(b, a)
        return ("role", role.invert(), second, first)
    return ("role", role, first, second)


def parse_kb(text: str) -> ParsedKb:
    """Parse the text format into surface GCIs, an ABox, and an optional order."""
    kinds = _KindTable()
    gcis = []
    concept_asserts = []
    role_asserts = []
    individuals = []
    order_levels = []
    order_lines = {}  # name -> the order: line that placed it
    seen_sections = set()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = _Tokens(line, lineno)
        if line.rstrip().endswith(":") and line.split(":")[0] in ("tbox", "abox", "order"):
            name = line.split(":")[0]
            if name in seen_sections:
                toks.err(f"duplicate {name}: section")
            seen_sections.add(name)
            section = name
            continue
        if section is None:
            toks.err("content before the first section header")
        if section == "tbox":
            gcis.append(_parse_gci_line(toks, kinds))
        elif section == "abox":
            item = _parse_assertion_line(toks, kinds)
            if item[0] == "concept":
                _, c, a = item
                individuals.append(a)
                if c != TOP:
                    concept_asserts.append((c, a))
            else:
                _, role, a, b = item
                role_asserts.append((role, a, b))
        else:  # order
            level = []
            while toks.peek() is not None:
                col = toks.col()
                tok = toks.take()
                if not _is_name(tok):
                    toks.err(f"expected a name, found {tok!r}")
                if tok in RESERVED:
                    toks.err("Top and Bot have fixed height 0 and never appear in order:")
                if tok in order_lines:
                    raise ParseError(
                        f"{tok!r} is already in order: on line {order_lines[tok]}", lineno, col
                    )
                order_lines[tok] = lineno
                level.append(tok)
            if level:
                order_levels.append(tuple(level))
    abox = AboxGraph(concept_asserts, role_asserts, individuals)
    levels = tuple(order_levels) if "order" in seen_sections else None
    return ParsedKb(tuple(gcis), abox, levels)


def format_kb(kb: ParsedKb) -> str:
    """Render a parsed KB back to the text format (canonical spacing)."""
    lines = ["tbox:"]
    for g in kb.gcis:
        lines.append(format_axiom(g))
    lines.append("abox:")
    for c, a in kb.abox.concept_asserts():
        lines.append(f"{c}({a})")
    for role, a, b in kb.abox.role_asserts():
        lines.append(f"{role.name}({a}, {b})")
    for a in kb.abox.bare_individuals():
        lines.append(f"Top({a})")
    if kb.order_levels is not None:
        lines.append("order:")
        for level in kb.order_levels:
            lines.append(" ".join(level))
    return "\n".join(lines) + "\n"


def kb_from_normal(tbox: TBox, abox: AboxGraph, order_levels=None) -> ParsedKb:
    """Wrap a normal-form TBox as a ParsedKb so it can be printed."""
    gcis = []
    for ax in tbox.axioms:
        if isinstance(ax, Sub):
            gcis.append(Gci(ax.lhs, ax.rhs))
        elif isinstance(ax, ConjSub):
            gcis.append(Gci(And(ax.lhs1, ax.lhs2), ax.rhs))
        elif isinstance(ax, ExRight):
            gcis.append(Gci(ax.lhs, Exists(ax.role, ax.filler)))
        else:
            gcis.append(Gci(Exists(ax.role, ax.filler), ax.rhs))
    if order_levels is not None:
        order_levels = tuple(map(tuple, order_levels))
    return ParsedKb(tuple(gcis), abox, order_levels)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def simplify(c: Concept) -> Concept:
    """Bottom-up simplification: unsatisfiable fillers collapse to Bot,
    Top disappears from conjunctions."""
    if isinstance(c, And):
        lhs, rhs = simplify(c.lhs), simplify(c.rhs)
        if lhs == BOT or rhs == BOT:
            return BOT
        if lhs == TOP:
            return rhs
        if rhs == TOP:
            return lhs
        return And(lhs, rhs)
    if isinstance(c, Exists):
        filler = simplify(c.filler)
        if filler == BOT:
            return BOT
        return Exists(c.role, filler)
    return c


def _is_atomic(c: Concept) -> bool:
    return isinstance(c, str)


class _Normalizer:
    def __init__(self, existing_names):
        self.existing = set(existing_names)
        self.counter = 0
        self.name_for_concept = {}
        self.provenance = {}
        self.emitted = set()
        self.out = []

    def fresh(self, concept: Concept) -> str:
        if concept in self.name_for_concept:
            return self.name_for_concept[concept]
        while True:
            self.counter += 1
            name = f"X{self.counter}"
            if name not in self.existing:
                break
        self.existing.add(name)
        self.name_for_concept[concept] = name
        self.provenance[name] = concept
        return name

    def emit(self, ax: NormGci):
        if ax not in self.emitted:
            self.emitted.add(ax)
            self.out.append(ax)

    def define_neg(self, concept: Concept) -> str:
        """Name a complex concept used on a left-hand side: concept <= X."""
        name = self.fresh(concept)
        key = (concept, "neg")
        if key not in self.emitted:
            self.emitted.add(key)
            self.norm_axiom(concept, name)
        return name

    def define_pos(self, concept: Concept) -> str:
        """Name a complex concept used on a right-hand side: X <= concept."""
        name = self.fresh(concept)
        key = (concept, "pos")
        if key not in self.emitted:
            self.emitted.add(key)
            self.norm_axiom(name, concept)
        return name

    def norm_axiom(self, lhs: Concept, rhs: Concept):
        lhs, rhs = simplify(lhs), simplify(rhs)
        if lhs == BOT or rhs == TOP:
            return  # tautology
        # Decompose the right-hand side first.
        if isinstance(rhs, And):
            self.norm_axiom(lhs, rhs.lhs)
            self.norm_axiom(lhs, rhs.rhs)
            return
        if isinstance(rhs, Exists):
            if not _is_atomic(rhs.filler):
                rhs = Exists(rhs.role, self.define_pos(rhs.filler))
            if not _is_atomic(lhs):
                lhs = self.define_neg(lhs)
            self.emit(ExRight(lhs, rhs.role, rhs.filler))
            return
        # rhs is a name or Bot; take the left-hand side apart.
        if isinstance(lhs, And):
            l1, l2 = lhs.lhs, lhs.rhs
            if not _is_atomic(l1):
                l1 = self.define_neg(l1)
            if not _is_atomic(l2):
                l2 = self.define_neg(l2)
            if l1 == TOP or l2 == TOP or BOT in (l1, l2):
                self.norm_axiom(simplify(And(l1, l2)), rhs)
                return
            self.emit(ConjSub(l1, l2, rhs))
            return
        if isinstance(lhs, Exists):
            filler = lhs.filler
            if not _is_atomic(filler):
                filler = self.define_neg(filler)
            self.emit(ExLeft(lhs.role, filler, rhs))
            return
        self.emit(Sub(lhs, rhs))


def _surface_names(gcis):
    """The concept and role names the GCIs use."""
    names = set()

    def walk(c):
        if isinstance(c, str):
            if c not in (TOP, BOT):
                names.add(c)
        elif isinstance(c, And):
            walk(c.lhs)
            walk(c.rhs)
        else:
            names.add(c.role.name)
            walk(c.filler)

    for g in gcis:
        walk(g.lhs)
        walk(g.rhs)
    return names


def normalize(gcis: Iterable[Gci], reserved: Iterable[str] = ()):
    """Reduce surface GCIs to the four normal-form shapes.

    Returns (TBox, provenance) where provenance maps each fresh concept name
    to the complex subconcept it stands for.  Each distinct complex
    subconcept gets exactly one fresh name; defining axioms are emitted per
    polarity of use.  Fresh names avoid the names of `gcis` and `reserved`,
    where a KB passes its ABox's names (``AboxGraph.names``): the extension is
    conservative only over names it does not reuse.
    """
    gcis = tuple(gcis)
    norm = _Normalizer(_surface_names(gcis).union(reserved))
    for g in gcis:
        norm.norm_axiom(g.lhs, g.rhs)
    return TBox(norm.out), dict(norm.provenance)


def normalize_kb(gcis: Iterable[Gci], abox: AboxGraph, query: Optional[str] = None):
    """``normalize`` for a KB, and for the concept name a query asks about:
    fresh names avoid every ABox name and `query`, so a query never names a
    subconcept the normalizer invented."""
    reserved = abox.names()
    return normalize(gcis, reserved if query is None else reserved | {query})


def as_normal(g: Gci) -> Optional[NormGci]:
    """The NormGci matching a surface GCI's shape, or None if it has none."""
    lhs, rhs = g.lhs, g.rhs
    if isinstance(rhs, str):
        if isinstance(lhs, str):
            return Sub(lhs, rhs)
        if isinstance(lhs, And) and isinstance(lhs.lhs, str) and isinstance(lhs.rhs, str):
            return ConjSub(lhs.lhs, lhs.rhs, rhs)
        if isinstance(lhs, Exists) and isinstance(lhs.filler, str):
            return ExLeft(lhs.role, lhs.filler, rhs)
        return None
    if isinstance(rhs, Exists) and isinstance(rhs.filler, str) and isinstance(lhs, str):
        return ExRight(lhs, rhs.role, rhs.filler)
    return None


def validate_normal_form(axioms) -> list:
    """Check the normal-form invariants; returns (axiom, reason) violations.

    Accepts a TBox, NormGci axioms, or surface Gci values.
    """
    if isinstance(axioms, TBox):
        axioms = axioms.axioms
    violations = []
    for ax in axioms:
        if isinstance(ax, Gci):
            shaped = as_normal(ax)
            if shaped is None:
                violations.append((ax, "not one of the four normal-form shapes"))
                continue
            ax = shaped
        if isinstance(ax, Sub):
            if ax.lhs == BOT:
                violations.append((ax, "Bot on the left-hand side is vacuous"))
        elif isinstance(ax, ConjSub):
            if TOP in (ax.lhs1, ax.lhs2, ax.rhs) or BOT in (ax.lhs1, ax.lhs2):
                violations.append((ax, "Top/Bot may not appear in a conjunction axiom"))
        elif isinstance(ax, ExRight):
            if ax.filler == BOT:
                violations.append((ax, "unsatisfiable filler; normalize first"))
            if ax.lhs == BOT:
                violations.append((ax, "Bot on the left-hand side is vacuous"))
        elif isinstance(ax, ExLeft):
            if ax.filler == BOT:
                violations.append((ax, "unsatisfiable filler; normalize first"))
            if ax.rhs == TOP:
                violations.append((ax, "Top on the right-hand side is vacuous"))
        else:
            violations.append((ax, "not a normal-form axiom"))
    return violations

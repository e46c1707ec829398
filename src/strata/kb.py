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

Names match ``[A-Za-z][A-Za-z0-9_]*``, so they are ASCII: any other letter
is a parse error.  ``Top``/``top`` and ``Bot``/``bot``
are reserved concept spellings, ``exists`` and ``inv`` are keywords.
``inv r`` denotes the inverse of role ``r``.  The parser accepts arbitrary
nesting of ``&``/``exists`` (with parentheses); the normalizer reduces
everything to the four normal-form axiom shapes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Union

TOP = "Top"
BOT = "Bot"
# the bits of Top and Bot in every concept mask: ``TBox`` gives them bits 0
# and 1
TOP_BIT = 1
BOT_BIT = 2

# the one spelling of a name; the tokenizer, `_is_name` and the CLI's query
# pattern are all built from it
NAME_PATTERN = "[A-Za-z][A-Za-z0-9_]*"
_NAME_RE = re.compile(NAME_PATTERN)
_TOKEN_RE = re.compile(rf"\s*(<=|{NAME_PATTERN}|\S)")
# the common assertion line, `[inv] NAME ( NAME [, NAME] )`, spaced as the
# tokens may be; `inv` and the name after it are two tokens only if a space
# parts them
_ASSERTION_RE = re.compile(
    rf"(?:(inv)\s+)?({NAME_PATTERN})\s*\(\s*({NAME_PATTERN})\s*(?:,\s*({NAME_PATTERN})\s*)?\)"
)
# the name-shaped tokens that are keywords, never names
_KEYWORDS = frozenset(("exists", "inv"))
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


class Role(NamedTuple):
    """A role name, possibly inverted.  ``invert`` is an involution.  A
    named tuple, so the ABox adjacency hashes and compares it in C."""

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


def _as_gci(ax) -> Gci:
    """A normal-form axiom as the surface GCI of its shape; a GCI as itself."""
    if isinstance(ax, Gci):
        return ax
    if isinstance(ax, Sub):
        return Gci(ax.lhs, ax.rhs)
    if isinstance(ax, ConjSub):
        return Gci(And(ax.lhs1, ax.lhs2), ax.rhs)
    if isinstance(ax, ExRight):
        return Gci(ax.lhs, Exists(ax.role, ax.filler))
    if isinstance(ax, ExLeft):
        return Gci(Exists(ax.role, ax.filler), ax.rhs)
    raise TypeError(f"not an axiom: {ax!r}")


def format_axiom(ax) -> str:
    g = _as_gci(ax)
    return f"{format_concept(g.lhs)} <= {format_concept(g.rhs)}"


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


class Rules(NamedTuple):
    """The rule tuples of a TBox, or of one level T|n of it, in axiom order,
    with their trigger index: all that the rule kernel
    (``saturate._fire``), the type closers and the export read.

    `subs` holds (lbit, rbit, axiom), `conjs` (lmask, rbit, axiom) and
    `exlefts` (role, fbit, rbit, axiom).  A spawn, one per existential head,
    is (lbit, fbit, axiom, back, fwd, fwd_mask): `back` lists the
    existential bodies (fbit, rbit, axiom) the successor reads off its
    parent (over the inverse role), `fwd` those the parent reads off it,
    `fwd_mask` their fillers; its body is its lhs plus every `back` filler.
    `triggers` maps a one-bit mask to [subs, conjs, mask of spawn positions]
    whose body reads that bit; `body_mask` holds them all.  `role_names` are
    the role names the rules use, sorted.
    """

    subs: tuple
    conjs: tuple
    exlefts: tuple
    spawns: tuple
    triggers: dict
    body_mask: int
    role_names: tuple


def rule_index(subs, conjs, exlefts, heads) -> Rules:
    """The ``Rules`` of rule tuples in axiom order: a ``TBox``'s own, or a
    level's selection of them.  `heads` holds (lbit, fbit, axiom), one per
    existential head; the other three are as ``Rules`` holds them.
    """
    by_role, fillers_of = {}, {}
    for role, fbit, rbit, a in exlefts:
        by_role.setdefault(role, []).append((fbit, rbit, a))
        fillers_of[role] = fillers_of.get(role, 0) | fbit
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
        key, inv = a.role, a.role.invert()
        for slot in slots(lbit | fillers_of.get(inv, 0)):
            slot[2] |= 1 << len(spawns)
        back, fwd = by_role.get(inv, ()), by_role.get(key, ())
        spawns.append((lbit, fbit, a, back, fwd, fillers_of.get(key, 0)))
    roles = {role.name for role, _, _, _ in exlefts} | {a.role.name for _, _, a in heads}
    return Rules(
        tuple(subs),
        tuple(conjs),
        tuple(exlefts),
        tuple(spawns),
        triggers,
        sum(triggers),
        tuple(sorted(roles)),
    )


class TBox:
    """An immutable set of normal-form axioms with lookup indexes.

    Concept names are assigned bit positions (Top=bit 0, Bot=bit 1) so that
    sets of concepts can be carried around as integer masks; `extra_concepts`
    get bits too, though no axiom mentions them.  ``rules`` holds the
    compiled rules, over those bits, and ``steps`` the goal steps: the sub,
    existential-body and conjunction axioms read backwards.  Per head bit,
    ``steps`` lists (role or None, goal bit, need mask, axiom) in axiom
    order: (None, B, 0) for ``B <= g``, (r, F, 0) for ``exists r . F <= g``,
    and (None, B2, need B1) then (None, B1, need B2) for ``B1 & B2 <= g``,
    where a step applies to a premise that holds its need mask.
    """

    def __init__(self, axioms: Iterable[NormGci], extra_concepts: Iterable[str] = ()):
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

        self.bit_of = {TOP: 0, BOT: 1}
        for i, c in enumerate(self.concept_names):
            self.bit_of[c] = i + 2
        self.name_of = {1 << b: c for c, b in self.bit_of.items()}

        sig = TOP_BIT
        for c in self.concept_names:
            sig |= 1 << self.bit_of[c]
        if bot_occurs:
            sig |= BOT_BIT
        self.signature_mask = sig

        bit_of = self.bit_of
        subs, conjs, exlefts, heads, steps = [], [], [], [], {}
        for a in self.axioms:
            if isinstance(a, ExRight):
                heads.append((1 << bit_of[a.lhs], 1 << bit_of[a.filler], a))
                continue
            rbit = 1 << bit_of[a.rhs]
            at = steps.setdefault(rbit, [])
            if isinstance(a, Sub):
                lbit = 1 << bit_of[a.lhs]
                subs.append((lbit, rbit, a))
                at.append((None, lbit, 0, a))
            elif isinstance(a, ConjSub):
                b1, b2 = 1 << bit_of[a.lhs1], 1 << bit_of[a.lhs2]
                conjs.append((b1 | b2, rbit, a))
                at += ((None, b2, b1, a), (None, b1, b2, a))
            else:
                fbit = 1 << bit_of[a.filler]
                exlefts.append((a.role, fbit, rbit, a))
                at.append((a.role, fbit, 0, a))
        self.rules = rule_index(subs, conjs, exlefts, heads)
        self.steps = {head: tuple(v) for head, v in steps.items()}

    def with_concept(self, name: str) -> "TBox":
        """This TBox with `name` adjoined to its signature if no axiom
        mentions it; such a name holds exactly where it is asserted."""
        if name in self.bit_of:
            return self
        return TBox(self.axioms, extra_concepts=(name,))

    def mask_of(self, names: Iterable[str]) -> int:
        m = 0
        for n in names:
            m |= 1 << self.bit_of[n]
        return m

    def names_of(self, mask: int) -> frozenset:
        out = []
        while mask:
            low = mask & -mask
            mask ^= low
            out.append(self.name_of[low])
        return frozenset(out)

    def __repr__(self):
        return f"TBox({len(self.axioms)} axioms)"


# the label of every individual without a concept assertion, shared by all
_NO_NAMES = frozenset()
# the adjacency `neighbors` reads for a role without edges; never written
_NO_EDGES = {}


class AboxGraph:
    """Individuals with concept labels and role adjacency closed under inversion.

    The adjacency is kept per role, ``role -> {individual: neighbours}``,
    with both directions of every edge; each neighbour tuple is sorted and
    free of duplicates.  Every individual without a concept assertion has
    the same empty label object."""

    def __init__(self, concept_asserts=(), role_asserts=(), individuals=()):
        inds = set(individuals)
        asserted = {}
        for c, a in concept_asserts:
            inds.add(a)
            if c != TOP:  # Top holds everywhere; not stored
                names = asserted.get(a)
                if names is None:
                    asserted[a] = {c}
                else:
                    names.add(c)
        # a key's first neighbour is stored as a 1-tuple; a second one turns
        # it into a list, noted in `grown`, which is sorted and deduplicated
        # once at the end
        adj, pairs, grown = {}, {}, []
        for role, a, b in role_asserts:
            pair = pairs.get(role)
            if pair is None:
                pair = pairs[role] = (adj.setdefault(role, {}), adj.setdefault(role.invert(), {}))
            fwd, bwd = pair
            got = fwd.get(a)
            if got is None:
                fwd[a] = (b,)
            else:
                if got.__class__ is tuple:
                    got = fwd[a] = [*got]
                    grown.append((fwd, a))
                got.append(b)
            got = bwd.get(b)
            if got is None:
                bwd[b] = (a,)
            else:
                if got.__class__ is tuple:
                    got = bwd[b] = [*got]
                    grown.append((bwd, b))
                got.append(a)
        for out, a in grown:
            out[a] = tuple(sorted(set(out[a])))
        for out in adj.values():
            inds.update(out)
        self.individuals = tuple(sorted(inds))
        self.asserted = dict.fromkeys(self.individuals, _NO_NAMES)
        for a, names in asserted.items():
            self.asserted[a] = frozenset(names)
        self._adj = adj

    def names(self) -> frozenset:
        """Every name the ABox uses: individuals, concepts and roles."""
        labels = set(self.asserted.values())
        return frozenset(self.individuals).union(*labels, self.role_names())

    def role_names(self) -> frozenset:
        """The role names of the ABox's role assertions."""
        return frozenset(role.name for role in self._adj)

    def require(self, ind: str):
        """Raise KbError unless `ind` is an individual of the ABox."""
        if ind not in self.asserted:
            raise KbError(f"unknown individual {ind!r}")

    def adjacency(self, role: Role) -> dict:
        """The `role` edges as individual -> neighbours; read only."""
        return self._adj.get(role) or {}

    def neighbors(self, ind: str, role: Role):
        return self._adj.get(role, _NO_EDGES).get(ind, ())

    def has_edge(self, a: str, role: Role, b: str) -> bool:
        return b in self.neighbors(a, role)

    def role_asserts(self):
        """One canonical (role, a, b) triple per stored edge pair, ordered by
        a, then role, then b."""
        out = [
            (a, role, b)
            for role, edges in self._adj.items()
            if not role.inverted
            for a, nbs in edges.items()
            for b in nbs
        ]
        out.sort()
        return [(role, a, b) for a, role, b in out]

    def concept_asserts(self):
        return [(c, a) for a, names in self.asserted.items() if names for c in sorted(names)]

    def bare_individuals(self):
        """Individuals that carry no assertion at all (kept via Top(a) lines)."""
        linked = set().union(*self._adj.values())
        return tuple(a for a, names in self.asserted.items() if not names and a not in linked)

    def __eq__(self, other):
        return (
            isinstance(other, AboxGraph)
            and self.individuals == other.individuals
            and self.asserted == other.asserted
            and self._adj == other._adj
        )

    def __repr__(self):
        return f"AboxGraph({len(self.individuals)} individuals)"


def level_heights(order_levels) -> dict:
    """Order levels, lowest first, as name -> height level."""
    return {name: h for h, level in enumerate(order_levels) for name in level}


@dataclass
class ParsedKb:
    gcis: tuple
    abox: AboxGraph
    order_levels: Optional[tuple] = None  # tuple of tuples, low to high

    @property
    def order(self) -> Optional[dict]:
        """The `order_levels` as name -> height level."""
        return None if self.order_levels is None else level_heights(self.order_levels)

    def role_names(self) -> frozenset:
        """The role names the TBox or the ABox uses."""
        return self.abox.role_names().union(_surface_names(self.gcis)[1])


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _Tokens:
    """One line's tokens: ``<=``, a name, or any other non-space character.

    The line is split once; an error's column is worked out only when it is
    raised: the start of the next token after a peek (the line's end if there
    is none), the end of the last token after a take."""

    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.toks = _TOKEN_RE.findall(text) + [None]
        self.i = 0
        self.taken = False  # whether the last move was a take
        self.depth = 0

    def peek(self):
        self.taken = False
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        if tok is None:
            self.err("unexpected end of line")
        self.i += 1
        self.taken = True
        return tok

    def expect(self, what: str):
        tok = self.take()
        if tok != what:
            self.err(f"expected {what!r}, found {tok!r}")

    def name(self, what: str) -> str:
        """Take a name (a reserved spelling counts), or fail naming `what`."""
        tok = self.take()
        if not _is_name(tok):
            self.err(f"expected {what}, found {tok!r}")
        return tok

    def end(self):
        """Fail unless the line has no token left."""
        tok = self.peek()
        if tok is not None:
            self.err(f"trailing input: {tok!r}")

    def enter(self):
        """Open a parenthesis or an exists; the parser recurses once per level."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.err(f"concept nested deeper than {MAX_NESTING} levels")

    def err(self, message: str):
        spans = [m.span(1) for m in _TOKEN_RE.finditer(self.text)]
        if self.taken:
            col = spans[self.i - 1][1] + 1
        elif self.i < len(spans):
            col = spans[self.i][0] + 1
        else:
            col = len(self.text) + 1
        raise ParseError(message, self.line, col)


def _is_name(tok) -> bool:
    return tok is not None and _NAME_RE.fullmatch(tok) is not None and tok not in _KEYWORDS


class _KindTable:
    """Tracks whether a name is used as a concept, role, or individual."""

    def __init__(self):
        self.kinds = {}

    def agrees(self, name: str, kind: str) -> bool:
        """Record `name` as a `kind` if it is new; whether no earlier use made
        it another kind."""
        return self.kinds.setdefault(name, kind) == kind

    def use(self, name: str, kind: str, toks: _Tokens):
        if not self.agrees(name, kind):
            toks.err(f"{name!r} used as {kind} but previously as {self.kinds[name]}")


def _parse_role(toks: _Tokens, kinds: _KindTable) -> Role:
    inverted = toks.peek() == "inv"
    if inverted:
        toks.take()
    tok = toks.name("a role name")
    if tok in RESERVED:
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
    toks.end()
    # a long flat conjunction parses iteratively but nests one And per '&'
    if max(_height(lhs), _height(rhs)) > MAX_NESTING:
        toks.err(f"concept nested deeper than {MAX_NESTING} levels")
    return Gci(lhs, rhs)


def _parse_assertion_line(toks: _Tokens, kinds: _KindTable):
    inverted = toks.peek() == "inv"
    if inverted:
        toks.take()
    tok = toks.name("a concept or role name")
    toks.expect("(")
    first = toks.name("an individual name")
    kinds.use(first, "individual", toks)
    nxt = toks.take()
    if nxt == ")":
        if inverted:
            toks.err("'inv' only applies to role assertions")
        concept = RESERVED.get(tok)
        if concept is None:
            concept = tok
            kinds.use(tok, "concept", toks)
        toks.end()
        return ("concept", concept, first)
    if nxt != ",":
        toks.err(f"expected ',' or ')', found {nxt!r}")
    second = toks.name("an individual name")
    kinds.use(second, "individual", toks)
    toks.expect(")")
    toks.end()
    if tok in RESERVED:
        toks.err(f"{tok!r} is not a role")
    kinds.use(tok, "role", toks)
    role = Role(tok, inverted)
    if inverted:  # store canonically: inv r(a, b) is r(b, a)
        return ("role", role.invert(), second, first)
    return ("role", role, first, second)


def _match_assertion(line: str, kinds: _KindTable, roles: dict):
    """``_parse_assertion_line``'s result for a line that `_ASSERTION_RE`
    matches and that passes that parser's checks, made in its order; None
    for any other line, which the token parser then reads and words the
    error of.  A use this records before it declines is one the token parser
    makes too, so its outcome on the line is unchanged.  `roles` keeps one
    ``Role`` per role name across the lines of a parse."""
    m = _ASSERTION_RE.fullmatch(line)
    if m is None:
        return None
    inverted, tok, first, second = m.groups()
    if tok in _KEYWORDS or first in _KEYWORDS or second in _KEYWORDS:
        return None
    if second is None:
        if not kinds.agrees(first, "individual") or inverted:
            return None
        concept = RESERVED.get(tok)
        if concept is None:
            if not kinds.agrees(tok, "concept"):
                return None
            concept = tok
        return ("concept", concept, first)
    if not (
        kinds.agrees(first, "individual")
        and kinds.agrees(second, "individual")
        and tok not in RESERVED
        and kinds.agrees(tok, "role")
    ):
        return None
    role = roles.get(tok) or roles.setdefault(tok, Role(tok))
    if inverted:  # store canonically: inv r(a, b) is r(b, a)
        return ("role", role, second, first)
    return ("role", role, first, second)


def parse_kb(text: str) -> ParsedKb:
    """Parse the text format into surface GCIs, an ABox, and an optional order."""
    kinds = _KindTable()
    roles = {}
    gcis = []
    concept_asserts = []
    role_asserts = []
    individuals = []
    order_levels = []
    order_lines = {}  # name -> the order: line that placed it
    seen_sections = set()
    section = None
    # break lines only where reading a file in text mode puts a "\n"
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in ("tbox:", "abox:", "order:"):
            name = line[:-1]
            if name in seen_sections:
                raise ParseError(f"duplicate {name}: section", lineno, 1)
            seen_sections.add(name)
            section = name
            continue
        if section is None:
            raise ParseError("content before the first section header", lineno, 1)
        if section == "abox":
            item = _match_assertion(line, kinds, roles) or _parse_assertion_line(
                _Tokens(line, lineno), kinds
            )
            if item[0] == "concept":
                _, c, a = item
                individuals.append(a)
                if c != TOP:
                    concept_asserts.append((c, a))
            else:
                _, role, a, b = item
                role_asserts.append((role, a, b))
            continue
        toks = _Tokens(line, lineno)
        if section == "tbox":
            gcis.append(_parse_gci_line(toks, kinds))
        else:  # order
            level = []
            while (tok := toks.peek()) is not None:
                # a placed name passed the checks below, so this one may come
                # first and point at the name's start
                if tok in order_lines:
                    toks.err(f"{tok!r} is already in order: on line {order_lines[tok]}")
                toks.name("a name")
                if tok in RESERVED:
                    toks.err("Top and Bot have fixed height 0 and never appear in order:")
                order_lines[tok] = lineno
                level.append(tok)
            if level:
                order_levels.append(tuple(level))
    # order: lists concept and role names, checked once the ABox is read
    for tok, lineno in order_lines.items():
        if kinds.kinds.get(tok) == "individual":
            toks = _Tokens(lines[lineno - 1].split("#", 1)[0].strip(), lineno)
            toks.i = toks.toks.index(tok)
            toks.err(f"{tok!r} is an individual name, not a concept or role name")
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
    if order_levels is not None:
        order_levels = tuple(map(tuple, order_levels))
    return ParsedKb(tuple(map(_as_gci, tbox.axioms)), abox, order_levels)


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
        return name

    def emit(self, ax: NormGci):
        if ax not in self.emitted:
            self.emitted.add(ax)
            self.out.append(ax)

    def define(self, concept: Concept, on_rhs: bool) -> str:
        """Name a complex concept: X <= concept where it is used on a
        right-hand side, concept <= X where on a left-hand side."""
        name = self.fresh(concept)
        key = (concept, on_rhs)
        if key not in self.emitted:
            self.emitted.add(key)
            self.norm_axiom(*((name, concept) if on_rhs else (concept, name)))
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
                rhs = Exists(rhs.role, self.define(rhs.filler, True))
            if not _is_atomic(lhs):
                lhs = self.define(lhs, False)
            self.emit(ExRight(lhs, rhs.role, rhs.filler))
            return
        # rhs is a name or Bot; take the left-hand side apart.
        if isinstance(lhs, And):
            l1, l2 = lhs.lhs, lhs.rhs
            if not _is_atomic(l1):
                l1 = self.define(l1, False)
            if not _is_atomic(l2):
                l2 = self.define(l2, False)
            self.emit(ConjSub(l1, l2, rhs))
            return
        if isinstance(lhs, Exists):
            filler = lhs.filler
            if not _is_atomic(filler):
                filler = self.define(filler, False)
            self.emit(ExLeft(lhs.role, filler, rhs))
            return
        self.emit(Sub(lhs, rhs))


def _surface_names(gcis):
    """The concept names (Top and Bot aside) and the role names the GCIs use,
    as two sets."""
    concepts, roles = set(), set()
    stack = [c for g in gcis for c in (g.lhs, g.rhs)]
    while stack:
        c = stack.pop()
        if isinstance(c, str):
            concepts.add(c)
        elif isinstance(c, And):
            stack += (c.lhs, c.rhs)
        else:
            roles.add(c.role.name)
            stack.append(c.filler)
    return concepts - {TOP, BOT}, roles


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
    concepts, roles = _surface_names(gcis)
    norm = _Normalizer(concepts.union(roles, reserved))
    for g in gcis:
        norm.norm_axiom(g.lhs, g.rhs)
    return TBox(norm.out), {name: c for c, name in norm.name_for_concept.items()}


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

"""Adversarial benchmark generator: quantified Boolean formulas to KBs.

A prenex 3-DNF QBF  Q1 x1 ... Qn xn (m1 | ... | mm), each monomial a
conjunction of three literals, reduces to instance checking: the generated
TBox forces a binary assignment tree of depth n below the single ABox
individual, marks each node's branch choices with assignment concepts, marks
satisfied monomials at the leaves, and folds truth back to the root through
per-quantifier axioms (either child suffices for an existential level, both
children are needed for a universal one).  The root query concept holds
exactly when the formula is valid, which makes the generator a cheap source
of hard-but-checkable test cases: a brute-force evaluator settles validity
independently.

Role names carry a copy per tree level purely so the whole signature fits
one linear order; the level order emitted here ties each level marker with
its outgoing roles (the role of a level sits both above the parent marker,
because the parent creates the edge, and below it, because the child reads
the edge backwards, so the two must share a height).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import List, Tuple

from .kb import AboxGraph, ConjSub, ExLeft, ExRight, KbError, Role, Sub, TBox, kb_from_normal, format_kb

EXISTS = "e"
FORALL = "a"


@dataclass(frozen=True)
class Qbf3Dnf:
    """Quantifier prefix over x1..xn plus a 3-DNF matrix.

    `monomials` holds triples of (variable index, polarity); polarity True
    means the positive literal.
    """

    quantifiers: Tuple[str, ...]
    monomials: Tuple[Tuple[Tuple[int, bool], ...], ...]

    def __post_init__(self):
        n = len(self.quantifiers)
        if n < 1 or len(self.monomials) < 1:
            raise KbError("need at least one variable and one monomial")
        for q in self.quantifiers:
            if q not in (EXISTS, FORALL):
                raise KbError(f"bad quantifier {q!r}")
        for mono in self.monomials:
            if len(mono) != 3:
                raise KbError("monomials carry exactly three literals")
            for var, _pol in mono:
                if not 1 <= var <= n:
                    raise KbError(f"literal variable x{var} out of range")

    def __str__(self):
        quants = "".join(
            f"{'E' if q == EXISTS else 'A'}x{i + 1}." for i, q in enumerate(self.quantifiers)
        )
        monos = " | ".join(
            "&".join(("" if pol else "~") + f"x{v}" for v, pol in mono)
            for mono in self.monomials
        )
        return f"{quants} ({monos})"


def random_qbf(seed: int, n: int, m: int) -> Qbf3Dnf:
    """Deterministic random formula: uniform quantifiers, literals, polarities."""
    if n < 1 or m < 1:
        raise KbError("need at least one variable and one monomial")
    rng = Random(seed)
    quants = tuple(rng.choice((EXISTS, FORALL)) for _ in range(n))
    monos = tuple(
        tuple((rng.randint(1, n), rng.random() < 0.5) for _ in range(3)) for _ in range(m)
    )
    return Qbf3Dnf(quants, monos)


def qbf_valid_bruteforce(formula: Qbf3Dnf) -> bool:
    """Validity by exhaustive assignment enumeration (guarded to n <= 20)."""
    n = len(formula.quantifiers)
    if n > 20:
        raise KbError(f"brute force is capped at 20 variables, got {n}")
    monos = formula.monomials

    def matrix(assign):
        return any(all(assign[v] == pol for v, pol in mono) for mono in monos)

    def go(i, assign):
        if i > n:
            return matrix(assign)
        assign[i] = False
        lo = go(i + 1, assign)
        if formula.quantifiers[i - 1] == EXISTS and lo:
            return True
        if formula.quantifiers[i - 1] == FORALL and not lo:
            return False
        assign[i] = True
        return go(i + 1, assign)

    return go(1, {})


@dataclass
class QbfKb:
    formula: Qbf3Dnf
    tbox: TBox
    abox: AboxGraph
    query: Tuple[str, str]  # (concept, individual)
    order_levels: Tuple[Tuple[str, ...], ...]
    families: dict  # family number -> tuple of axioms, mirroring the reduction

    @property
    def heights(self) -> dict:
        """The `order_levels` as name -> height level."""
        return {name: h for h, level in enumerate(self.order_levels) for name in level}

    def kb_text(self) -> str:
        return format_kb(kb_from_normal(self.tbox, self.abox, self.order_levels))


def _level_marker(i):
    return f"L{i}"


def _assign(i, d):
    return f"X{i}_{d}"


def _mono(j, k):
    return f"A{j}_{k}"


def _true_at(i, d=None):
    return f"C{i}_T" if d is None else f"C{i}_T{d}"


def _role(d, i):
    return Role(f"r{d}_{i}")


def qbf_to_kb(formula: Qbf3Dnf) -> QbfKb:
    """The reduction: ABox {L0(a)}, query C0_T(a), twelve axiom families."""
    n = len(formula.quantifiers)
    m = len(formula.monomials)
    fam = {k: [] for k in range(1, 13)}

    for i in range(n):
        for d in (0, 1):
            fam[1].append(ExRight(_level_marker(i), _role(d, i + 1), _level_marker(i + 1)))
            fam[2].append(
                ExLeft(_role(d, i + 1).invert(), _level_marker(i), _assign(i + 1, d))
            )
    # Assignment markers are set where a branch is taken and must be visible
    # at the leaves, so the look-up axioms repeat for every deeper level's
    # role copy (the copies are interchangeable apart from the ordering).
    for i in range(1, n + 1):
        for k in range(i, n + 1):
            for d in (0, 1):
                for b in (0, 1):
                    fam[3].append(ExLeft(_role(d, k).invert(), _assign(i, b), _assign(i, b)))
    for j, mono in enumerate(formula.monomials, start=1):
        (v1, p1), (v2, p2), (v3, p3) = mono
        fam[4 if p1 else 5].append(
            ConjSub(_level_marker(n), _assign(v1, 1 if p1 else 0), _mono(j, 1))
        )
        fam[6 if p2 else 7].append(
            ConjSub(_mono(j, 1), _assign(v2, 1 if p2 else 0), _mono(j, 2))
        )
        fam[8 if p3 else 9].append(
            ConjSub(_mono(j, 2), _assign(v3, 1 if p3 else 0), _true_at(n))
        )
    for i in range(n):
        for d in (0, 1):
            fam[10].append(ExLeft(_role(d, i + 1), _true_at(i + 1), _true_at(i, d)))
        if formula.quantifiers[i] == EXISTS:
            fam[11].append(Sub(_true_at(i, 0), _true_at(i)))
            fam[11].append(Sub(_true_at(i, 1), _true_at(i)))
        else:
            fam[12].append(ConjSub(_true_at(i, 0), _true_at(i, 1), _true_at(i)))

    axioms = [ax for k in range(1, 13) for ax in fam[k]]
    tbox = TBox(axioms)
    abox = AboxGraph(concept_asserts=[(_level_marker(0), "a")])

    levels: List[Tuple[str, ...]] = []
    # Level markers and their roles share one height: a role sits above the
    # marker that creates its edges but below the markers it is read back
    # from, and assignment markers must sit above every role they cross.
    ground = []
    for i in range(n + 1):
        ground.append(_level_marker(i))
    for i in range(1, n + 1):
        ground.append(f"r0_{i}")
        ground.append(f"r1_{i}")
    levels.append(tuple(ground))
    for i in range(1, n + 1):
        levels.append((_assign(i, 0),))
        levels.append((_assign(i, 1),))
    for j in range(1, m + 1):
        levels.append((_mono(j, 1),))
        levels.append((_mono(j, 2),))
    levels.append((_true_at(n),))
    for i in range(n - 1, -1, -1):
        levels.append((_true_at(i, 0),))
        levels.append((_true_at(i, 1),))
        levels.append((_true_at(i),))
    return QbfKb(
        formula,
        tbox,
        abox,
        (_true_at(0), "a"),
        tuple(levels),
        {k: tuple(v) for k, v in fam.items()},
    )

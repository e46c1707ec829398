"""Parsing, printing, normalization, and the normal-form validator."""

import pytest
from hypothesis import example, given, strategies as st
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
    KbError,
    ParseError,
    Role,
    Sub,
    TBox,
    entails_iq,
    format_kb,
    kb_from_normal,
    normalize,
    oracle_entails,
    parse_kb,
    random_stratified_kb,
    validate_normal_form,
)
from strata.cli import main

from oracles import random_abox


def test_parse_minimal_kb():
    kb = parse_kb("tbox:\nA <= B\nabox:\nA(a)\n")
    assert kb.gcis == (Gci("A", "B"),)
    assert kb.abox.individuals == ("a",)
    assert kb.abox.asserted["a"] == frozenset({"A"})


def test_parse_worked_example_axioms():
    kb = parse_kb(
        "tbox:\nA <= B\nA & B <= C\nC <= exists r . Top\nexists r . Top <= D\nabox:\nA(a)\n"
    )
    tbox, fresh = normalize(kb.gcis)
    assert fresh == {}
    assert set(tbox.axioms) == {
        Sub("A", "B"),
        ConjSub("A", "B", "C"),
        ExRight("C", Role("r"), TOP),
        ExLeft(Role("r"), TOP, "D"),
    }


def test_parse_unsatisfiable_filler_becomes_bot():
    kb = parse_kb("tbox:\nA <= exists inv r . bot\nabox:\nA(a)\n")
    assert kb.gcis == (Gci("A", Exists(Role("r", inverted=True), BOT)),)
    tbox, _ = normalize(kb.gcis)
    assert tbox.axioms == (Sub("A", BOT),)


def test_parse_role_assertions_close_under_inversion():
    kb = parse_kb("tbox:\nA <= B\nabox:\nr(a, b)\ninv r(c, d)\n")
    abox = kb.abox
    assert abox.has_edge("a", Role("r"), "b")
    assert abox.has_edge("b", Role("r", inverted=True), "a")
    # inv r(c, d) says d --r--> c
    assert abox.has_edge("d", Role("r"), "c")


def test_parse_order_section():
    kb = parse_kb("tbox:\nA <= B\nabox:\nA(a)\norder:\nA\nB\nC r\nD\n")
    assert kb.order == {"A": 0, "B": 1, "C": 2, "r": 2, "D": 3}
    assert kb.order_levels == (("A",), ("B",), ("C", "r"), ("D",))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_kb("tbox:\nA <= <= B\n")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="duplicate order"):
        parse_kb("tbox:\nA <= B\norder:\nA\norder:\nB\nabox:\nA(a)\n")
    with pytest.raises(ParseError, match="before the first section"):
        parse_kb("A <= B\n")


def test_parse_rejects_a_name_on_two_order_lines(tmp_path, capsys):
    text = "tbox:\nA <= B\nabox:\nA(a)\norder:\nA\nB\nC  B\n"
    with pytest.raises(ParseError, match="'B' is already in order: on line 7") as err:
        parse_kb(text)
    assert (err.value.line, err.value.col) == (8, 4)
    p = tmp_path / "twice.kb"
    p.write_text(text, encoding="utf-8")
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr().err == "error: line 8, col 4: 'B' is already in order: on line 7\n"


OVER_DEEP = {
    "parentheses": "(" * 3000 + "A" + ")" * 3000 + " <= B",
    "exists": "exists r . " * 2000 + "A <= B",
    "conjunction": " & ".join(["A"] * 3000) + " <= B",
}


@pytest.mark.parametrize("shape", sorted(OVER_DEEP))
def test_parse_rejects_over_deep_nesting(shape):
    with pytest.raises(ParseError, match="nested deeper than") as err:
        parse_kb(f"tbox:\n{OVER_DEEP[shape]}\nabox:\nA(a)\n")
    assert err.value.line == 2


def test_nesting_at_the_bound_runs_the_whole_pipeline():
    from strata.kb import MAX_NESTING as n

    conj = " & ".join(f"A{i}" for i in range(n + 1))
    text = (
        "tbox:\n"
        f"{'(' * n}A{')' * n} <= B\n"
        f"{'exists r . ' * n}A <= C\n"
        f"{conj} <= D\n"
        "abox:\nA(a)\nr(a, a)\n" + "".join(f"A{i}(a)\n" for i in range(n + 1))
    )
    kb = parse_kb(text)
    for concept in "BCD":
        res = entails_iq(kb.gcis, kb.abox, concept, "a", want_witness=True)
        assert res.answer and res.witness, concept
        assert oracle_entails(normalize(kb.gcis)[0], kb.abox, concept, "a", want_trace=True)[1]


def test_parse_rejects_kind_conflicts():
    with pytest.raises(ParseError, match="used as concept but previously as role"):
        parse_kb("tbox:\nA <= exists r . B\nr <= B\nabox:\nA(a)\n")
    with pytest.raises(ParseError, match="used as role"):
        parse_kb("tbox:\nA <= B\nabox:\nA(a, b)\n")


def test_parse_comments_and_reserved_spellings():
    kb = parse_kb("tbox:\n# nothing\ntop <= A   # trailing\nabox:\nTop(x)\nbot(y)\n")
    assert kb.gcis == (Gci(TOP, "A"),)
    assert kb.abox.asserted["x"] == frozenset()
    assert kb.abox.asserted["y"] == frozenset({BOT})


# a reserved spelling where a role or an order name goes, and the message
RESERVED_MISUSE = {
    "role in a concept": ("tbox:\nexists Top . A <= B\n", "expected a role name, found 'Top'"),
    "inverse role": ("tbox:\nexists inv bot . A <= B\n", "expected a role name, found 'bot'"),
    "role assertion": ("abox:\ntop(a, b)\n", "'top' is not a role"),
    "order name": ("order:\nA Bot\n", "Top and Bot have fixed height 0 and never appear"),
}


@pytest.mark.parametrize("case", sorted(RESERVED_MISUSE))
def test_reserved_spellings_are_not_roles_or_order_names(case):
    text, message = RESERVED_MISUSE[case]
    with pytest.raises(ParseError, match=message) as err:
        parse_kb(text)
    assert err.value.line == 2


@given(st.integers(0, 10_000))
def test_roundtrip_parse_of_printed_kb(seed):
    tbox, abox, _ = random_stratified_kb(Random(seed))
    text = format_kb(kb_from_normal(tbox, abox))
    back = parse_kb(text)
    tbox2, fresh = normalize(back.gcis)
    assert fresh == {}
    assert set(tbox2.axioms) == set(tbox.axioms)
    assert back.abox == abox


@given(st.integers(0, 10_000))
def test_role_adjacency_is_closed_under_inversion(seed):
    _, abox, _ = random_stratified_kb(Random(seed))
    roles = {role for role, _, _ in abox.role_asserts()}
    for a in abox.individuals:
        for role in roles:
            for b in abox.neighbors(a, role):
                assert a in abox.neighbors(b, role.invert())


def test_roundtrip_preserves_order_section():
    levels = (("A",), ("B", "r"))
    kb = kb_from_normal(
        TBox([ExRight("A", Role("r"), "B")]),
        AboxGraph(concept_asserts=[("A", "a")]),
        levels,
    )
    assert parse_kb(format_kb(kb)).order_levels == levels


def test_roundtrip_keeps_an_empty_order_section():
    kb = kb_from_normal(TBox([Sub("A", "B")]), AboxGraph(concept_asserts=[("A", "a")]), [])
    assert kb.order_levels == () and kb.order == {}
    assert format_kb(kb).endswith("order:\n")
    back = parse_kb(format_kb(kb))
    assert back.order_levels == () and back.order == {}
    assert kb_from_normal(TBox([Sub("A", "B")]), AboxGraph()).order is None


# -- normalization -----------------------------------------------------------


def test_normalize_conjunction_of_existential_premises():
    surface = (Gci(And(Exists(Role("r"), "A"), Exists(Role("s"), "A")), "A"),)
    tbox, fresh = normalize(surface)
    assert set(tbox.axioms) == {
        ExLeft(Role("r"), "A", "X1"),
        ExLeft(Role("s"), "A", "X2"),
        ConjSub("X1", "X2", "A"),
    }
    assert set(fresh) == {"X1", "X2"}


def test_normalize_nested_filler_conjunction():
    surface = (Gci("A", Exists(Role("r"), And("B", "C"))),)
    tbox, fresh = normalize(surface)
    assert set(tbox.axioms) == {
        ExRight("A", Role("r"), "X1"),
        Sub("X1", "B"),
        Sub("X1", "C"),
    }
    assert list(fresh) == ["X1"]


def test_normalize_is_idempotent_on_normal_input(tex):
    tbox, _, _ = tex
    again, fresh = normalize(tuple(g for g in kb_from_normal(tbox, AboxGraph(individuals=["a"])).gcis))
    assert fresh == {}
    assert set(again.axioms) == set(tbox.axioms)


def test_normalize_drops_tautologies_and_collapses_bot():
    surface = (
        Gci(BOT, "A"),
        Gci("A", TOP),
        Gci(Exists(Role("r"), BOT), "B"),
        Gci("A", Exists(Role("r"), BOT)),
    )
    tbox, _ = normalize(surface)
    assert tbox.axioms == (Sub("A", BOT),)


def test_normalize_shares_one_name_per_distinct_subconcept():
    ex = Exists(Role("r"), "A")
    surface = (Gci(And(ex, "B"), "C"), Gci(And(ex, "D"), "E"))
    tbox, fresh = normalize(surface)
    assert len(fresh) == 1


def _definitional_normalize(gcis):
    """Independent normalization for the conservativity check: every complex
    subconcept gets a name defined in both directions."""
    from strata import kb as kbmod

    counter = [0]
    names = {}
    out = []

    def name_of(c):
        if c in names:
            return names[c]
        counter[0] += 1
        x = f"Y{counter[0]}"
        names[c] = x
        if isinstance(c, And):
            l, r = atom(c.lhs), atom(c.rhs)
            out.append(ConjSub(l, r, x))
            out.append(Sub(x, l))
            out.append(Sub(x, r))
        else:
            f = atom(c.filler)
            out.append(ExLeft(c.role, f, x))
            out.append(ExRight(x, c.role, f))
        return x

    def atom(c):
        c = kbmod.simplify(c)
        return c if isinstance(c, str) else name_of(c)

    for g in gcis:
        l, r = kbmod.simplify(g.lhs), kbmod.simplify(g.rhs)
        if l == BOT or r == TOP:
            continue
        out.append(Sub(atom(l), atom(r)))
    return TBox(out)


@given(st.integers(0, 2000))
@example(12)  # X1 and X2 asserted: fresh names blind to the ABox reuse both
@example(13)
def test_normalize_is_conservative_over_original_names(seed):
    rng = Random(seed)
    names = ["A", "B", "C"]
    roles = ["r", "s"]

    def concept(depth):
        kind = rng.random()
        if depth == 0 or kind < 0.5:
            return rng.choice(names + [TOP])
        if kind < 0.75:
            return And(concept(depth - 1), concept(depth - 1))
        return Exists(Role(rng.choice(roles), rng.random() < 0.4), concept(depth - 1))

    gcis = tuple(Gci(concept(2), concept(1)) for _ in range(rng.randint(1, 4)))
    # the ABox also uses the normalizer's first fresh names, which it must skip
    abox = random_abox(rng, names + ["X1", "X2"], roles, 3)
    ours = normalize(gcis, abox.names())[0]
    theirs = _definitional_normalize(gcis)
    for a in abox.individuals:
        for c in names + sorted(abox.names() & {"X1", "X2"}):
            got = oracle_entails(ours, abox, c, a)[0]
            want = oracle_entails(theirs, abox, c, a)[0]
            assert got == want, (c, a, got, want)


# -- validation ---------------------------------------------------------------


def test_validate_accepts_worked_example(tex):
    assert validate_normal_form(tex[0]) == []


def test_validate_flags_top_in_conjunction():
    bad = ConjSub(TOP, "A", "B")
    [(ax, reason)] = validate_normal_form([bad])
    assert ax == bad and "Top" in reason


def test_validate_flags_unsatisfiable_filler():
    bad = ExRight("A", Role("r"), BOT)
    [(ax, reason)] = validate_normal_form([bad])
    assert "normalize first" in reason


def test_validate_flags_non_normal_surface_shapes():
    complexg = Gci(And("A", And("B", "C")), "D")
    [(ax, reason)] = validate_normal_form([complexg])
    assert "normal-form" in reason


def test_tbox_rhs_index_is_consistent(tex):
    tbox, _, _ = tex
    for ax in tbox.axioms:
        rhs = getattr(ax, "rhs", None)
        if rhs is not None:
            assert ax in tbox.by_rhs(rhs)
    for name in (*tbox.concept_names, TOP, BOT):
        for ax in tbox.by_rhs(name):
            assert ax.rhs == name


def test_tbox_rejects_concept_role_clash():
    with pytest.raises(KbError, match="both as concept and as role"):
        TBox([Sub("r", "B"), ExRight("A", Role("r"), "B")])


def test_role_inversion_is_involutive():
    r = Role("r")
    assert r.invert().invert() == r
    assert r.invert() == Role("r", inverted=True)

"""Parsing, printing, normalization, and the normal-form validator."""

import pytest
from hypothesis import example, given, settings, strategies as st
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
from strata.kb import _KindTable, _match_assertion, _parse_assertion_line, _Tokens

from oracles import abox_reference, random_abox


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


# malformed lines and their exact errors, line and column included
PARSE_ERRORS = {
    "tbox:\nA <= B\nabox:\nA\n": "line 4, col 2: unexpected end of line",
    "tbox:\nA <= B C\n": "line 2, col 8: trailing input: 'C'",
    "abox:\ninv A(a)\n": "line 2, col 9: 'inv' only applies to role assertions",
    "abox:\nr(a b)\n": "line 2, col 6: expected ',' or ')', found 'b'",
    # the three line ends a file read in text mode turns into "\n"
    "abox:\r\n\rr(a b)\r": "line 3, col 6: expected ',' or ')', found 'b'",
    # an individual in order:, whichever section comes first
    "tbox:\nA <= B\nabox:\nA(a)\norder:\nA a\nB r\n": (
        "line 6, col 3: 'a' is an individual name, not a concept or role name"
    ),
    "order:\nA  a\nB r\nabox:\nA(a)\n": (
        "line 2, col 4: 'a' is an individual name, not a concept or role name"
    ),
}
# each other character str.splitlines breaks at: on a line of its own it is
# a blank line's whitespace, not a line end, and inside a line it parts two
# tokens
PARSE_ERRORS.update(
    {
        f"abox:\n{ch}\nA(a){ch}B(a)\n": "line 3, col 6: trailing input: 'B'"
        for ch in "\f\v\x1c\x1d\x1e\x85\u2028\u2029"
    }
)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_kb("tbox:\nA <= <= B\n")
    assert err.value.line == 2
    for text, message in PARSE_ERRORS.items():
        with pytest.raises(ParseError) as err:
            parse_kb(text)
        assert str(err.value) == message
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


# a non-ASCII letter in each section: names are ASCII, so the letter is a
# token of its own that the grammar rejects; (KB text, line, col, message)
NON_ASCII = {
    "tbox": ("tbox:\né <= B\nabox:\nB(a)\n", 2, 1, "expected a concept, found 'é'"),
    "abox": ("tbox:\nA <= B\nabox:\nA(é)\n", 4, 4, "expected an individual name, found 'é'"),
    "order": (
        "tbox:\nA <= B\nabox:\nA(a)\norder:\nA é B\n",
        6,
        4,
        "expected a name, found 'é'",
    ),
}


@pytest.mark.parametrize("section", list(NON_ASCII))
def test_a_non_ascii_letter_is_a_parse_error(section, tmp_path, capsys):
    text, line, col, message = NON_ASCII[section]
    with pytest.raises(ParseError) as err:
        parse_kb(text)
    assert (err.value.line, err.value.col) == (line, col)
    p = tmp_path / "non-ascii.kb"
    p.write_text(text, encoding="utf-8")
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr().err == f"error: line {line}, col {col}: {message}\n"


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


_ABOX_INDS = ("a", "b", "c", "d")
_ABOX_ROLES = ("r", "s")


def _check_abox_against_reference(abox, triples, concepts):
    """Every public method of `abox` against a scan of the reference."""
    inds = tuple(sorted(concepts))
    assert abox.individuals == inds
    assert abox.asserted == {a: frozenset(names) for a, names in concepts.items()}
    for role in (Role(n, inv) for n in (*_ABOX_ROLES, "t") for inv in (False, True)):
        edges = {}
        for a in (*inds, "nobody"):
            want = tuple(sorted({b for r, x, b in triples if r == role and x == a}))
            assert abox.neighbors(a, role) == want
            if want:
                edges[a] = want
            for b in inds:
                assert abox.has_edge(a, role, b) == ((role, a, b) in triples)
        assert abox.adjacency(role) == edges
    canonical = sorted((a, r.name, b) for r, a, b in triples if not r.inverted)
    assert abox.role_asserts() == [(Role(n), a, b) for a, n, b in canonical]
    assert abox.concept_asserts() == [(c, a) for a in inds for c in sorted(concepts[a])]
    linked = {x for _, a, b in triples for x in (a, b)}
    bare = tuple(a for a in inds if not concepts[a] and a not in linked)
    assert abox.bare_individuals() == bare
    roles = {r.name for r, _, _ in triples}
    assert abox.role_names() == roles
    assert abox.names() == set(inds).union(*concepts.values(), roles)
    # the canonical lists rebuild the same graph, and one more edge does not
    again = AboxGraph(abox.concept_asserts(), abox.role_asserts(), bare)
    assert again == abox
    extra = (Role("t"), "a", "b")
    assert AboxGraph(abox.concept_asserts(), [*abox.role_asserts(), extra], bare) != abox


_abox_parts = st.tuples(
    st.lists(
        st.tuples(st.sampled_from((TOP, BOT, "A", "B")), st.sampled_from(_ABOX_INDS)),
        max_size=6,
    ),
    st.lists(
        st.builds(
            lambda name, inv, a, b: (Role(name, inv), a, b),
            st.sampled_from(_ABOX_ROLES),
            st.booleans(),
            st.sampled_from(_ABOX_INDS),
            st.sampled_from(_ABOX_INDS),
        ),
        max_size=10,
    ),
    st.lists(st.sampled_from((*_ABOX_INDS, "e")), max_size=3),
)


@given(_abox_parts)
@example(([], [], []))
@example(([(TOP, "a")], [(Role("r"), "b", "b"), (Role("r"), "b", "b")], ["c"]))
def test_abox_graph_matches_the_reference(parts):
    concept_asserts, role_asserts, individuals = parts
    abox = AboxGraph(concept_asserts, role_asserts, individuals)
    _check_abox_against_reference(abox, *abox_reference(*parts))
    # the input's order does not matter
    shuffled = AboxGraph(concept_asserts[::-1], role_asserts[::-1], individuals[::-1])
    assert shuffled == abox


def test_parsed_abox_matches_the_reference():
    text = (
        "abox:\nr(a, b)\nr(a, b)\nr(c, c)\ninv r(d, a)\ninv s(b, a)\n"
        "Top(e)\nA(a)\nA(a)\nBot(f)\n"
    )
    concept_asserts = [(TOP, "e"), ("A", "a"), ("A", "a"), (BOT, "f")]
    role_asserts = [
        (Role("r"), "a", "b"),
        (Role("r"), "a", "b"),
        (Role("r"), "c", "c"),
        (Role("r", True), "d", "a"),
        (Role("s", True), "b", "a"),
    ]
    abox = parse_kb(text).abox
    _check_abox_against_reference(abox, *abox_reference(concept_asserts, role_asserts))
    assert abox.bare_individuals() == ("e",)
    # an individual with no assertion at all, which only the constructor makes
    abox = AboxGraph(concept_asserts, role_asserts, ["g"])
    _check_abox_against_reference(abox, *abox_reference(concept_asserts, role_asserts, ["g"]))
    assert abox.bare_individuals() == ("e", "g")


# tokens of assertion lines: every reserved spelling and keyword, a
# non-ASCII letter, a name that starts with a digit, and names few enough
# that lines clash on their kinds
_HEADS = ("A", "B", "r", "s", "a", "Top", "top", "Bot", "bot", "exists", "inv", "invr", "é", "1a")
_INDS = ("a", "b", "a_1", "A", "r", "Top", "bot", "exists", "inv", "aé", "2b")
_STRAYS = ("inv", "a", "(", ")", ",", ".", "<=", "&", "é")
# what may part two tokens, or none
_SPACES = ("", "", " ", "  ", "\t", "\f", "\xa0", "\u2028")


@st.composite
def _assertion_line(draw):
    toks = ["inv"] if draw(st.booleans()) else []
    toks += [draw(st.sampled_from(_HEADS)), "(", draw(st.sampled_from(_INDS))]
    if draw(st.booleans()):
        toks += [",", draw(st.sampled_from(_INDS))]
    toks.append(")")
    mutation = draw(st.sampled_from(("none", "none", "drop", "insert")))
    at = draw(st.integers(0, len(toks) - 1))
    if mutation == "drop":
        del toks[at]
    elif mutation == "insert":  # at the end too, as trailing input
        toks.insert(at + draw(st.integers(0, 1)), draw(st.sampled_from(_STRAYS)))
    seps = draw(st.lists(st.sampled_from(_SPACES), min_size=len(toks), max_size=len(toks)))
    return "".join(sep + tok for sep, tok in zip(seps, toks))


@settings(max_examples=400)
@given(st.lists(_assertion_line(), min_size=1, max_size=4))
# one case per check the pattern's lines must pass: a keyword in each name
# slot, a reserved role, `inv` on a concept, and each kind use clashing
@example(["exists(a)"])
@example(["A(inv)"])
@example(["r(a, exists)"])
@example(["top(a, b)"])
@example(["inv A(a)"])
@example(["A(a)", "B(A)"])
@example(["A(a)", "a(b)"])
@example(["A(a)", "r(A, b)"])
@example(["A(a)", "r(b, A)"])
@example(["A(a)", "A(b, c)"])
@example(["a(a)"])
@example(["inv r(a, b)", "r(b, a)"])
def test_the_assertion_pattern_agrees_with_the_token_parser(lines):
    """``_match_assertion`` against ``_parse_assertion_line``, the reference,
    in lockstep over the lines of one ABox: where the pattern takes a line,
    the same item and the same kinds; where it declines, the token parser
    reads the line as if the pattern had never seen it.  Then ``parse_kb``
    on the whole text: the same ABox, or the same error at the same place."""
    ref, fast, roles = _KindTable(), _KindTable(), {}
    items, error = [], None
    for lineno, raw in enumerate(lines, start=2):
        line = raw.strip()
        try:
            want = _parse_assertion_line(_Tokens(line, lineno), ref)
        except ParseError as exc:
            want = error = (str(exc), exc.line, exc.col)
        got = _match_assertion(line, fast, roles)
        if got is None:
            try:
                got = _parse_assertion_line(_Tokens(line, lineno), fast)
            except ParseError as exc:
                got = (str(exc), exc.line, exc.col)
        assert got == want, line
        if error is not None:
            break
        assert fast.kinds == ref.kinds
        items.append(want)
    try:
        abox = parse_kb("abox:\n" + "\n".join(lines)).abox
    except ParseError as exc:
        assert (str(exc), exc.line, exc.col) == error
    else:
        assert error is None
        concept_asserts = [(c, a) for kind, c, a, *_ in items if kind == "concept"]
        role_asserts = [item[1:] for item in items if item[0] == "role"]
        assert abox == AboxGraph(concept_asserts, role_asserts)


# lines of the common shape, spaced as the tokens may be; the pattern takes
# each, so the token parser never sees them
COMMON_LINES = {
    "r(a, b)": ("role", Role("r"), "a", "b"),
    "inv r(a, b)": ("role", Role("r"), "b", "a"),
    "inv\tr ( a ,b )": ("role", Role("r"), "b", "a"),
    "r(a,a)": ("role", Role("r"), "a", "a"),
    "A(a)": ("concept", "A", "a"),
    "A\xa0( a_1 )": ("concept", "A", "a_1"),
    "top(a)": ("concept", TOP, "a"),
    "Bot(a)": ("concept", BOT, "a"),
    "invr(a)": ("concept", "invr", "a"),
    "A(Top)": ("concept", "A", "Top"),
}


@pytest.mark.parametrize("line", sorted(COMMON_LINES))
def test_the_assertion_pattern_takes_the_common_line(line):
    assert _match_assertion(line, _KindTable(), {}) == COMMON_LINES[line]


def test_abox_graph_is_unhashable():
    with pytest.raises(TypeError):
        hash(AboxGraph())


def test_roundtrip_preserves_order_section():
    levels = (("A",), ("B", "r"))
    kb = kb_from_normal(
        TBox([ExRight("A", Role("r"), "B")]),
        AboxGraph(concept_asserts=[("A", "a")]),
        levels,
    )
    assert parse_kb(format_kb(kb)).order_levels == levels


def test_roundtrip_of_conjunction_fillers():
    text = "tbox:\nA <= exists r . (B & C)\nexists r . (B & (C & D)) <= E\nabox:\n"
    kb = parse_kb(text)
    assert format_kb(kb) == text
    assert parse_kb(format_kb(kb)) == kb


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
    # a Bot conjunct empties a premise, and a head's filler
    surface = (
        Gci(And("A", BOT), "B"),
        Gci(Exists(Role("r"), And("A", BOT)), "B"),
        Gci("A", Exists(Role("r"), And("B", BOT))),
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


@pytest.mark.parametrize(
    "bad, reason",
    [
        (Sub(BOT, "A"), "Bot on the left-hand side is vacuous"),
        (ExRight(BOT, Role("r"), "A"), "Bot on the left-hand side is vacuous"),
        (ExLeft(Role("r"), BOT, "A"), "unsatisfiable filler; normalize first"),
        (ExLeft(Role("r"), "A", TOP), "Top on the right-hand side is vacuous"),
        ("junk", "not a normal-form axiom"),
    ],
)
def test_validate_flags_vacuous_and_foreign_axioms(bad, reason):
    assert validate_normal_form([bad]) == [(bad, reason)]


def test_validate_accepts_normal_shaped_surface_gcis():
    kb = parse_kb(
        "tbox:\nA <= exists r . (B & C)\nexists inv r . B <= D\nD & A <= E\nE <= F\n"
        "abox:\nA(a)\n"
    )
    tbox, _ = normalize(kb.gcis)
    assert {type(ax) for ax in tbox.axioms} == {Sub, ConjSub, ExRight, ExLeft}
    assert validate_normal_form(kb_from_normal(tbox, kb.abox).gcis) == []


def test_tbox_steps_read_the_axioms_backwards_in_axiom_order():
    r = Role("r")
    axioms = [
        ConjSub("A", "B", "C"),
        Sub("A", "C"),
        ExRight("A", r, "B"),
        ExLeft(r.invert(), "B", "C"),
        ConjSub("A", "A", "B"),
        Sub("B", BOT),
    ]
    tbox = TBox(axioms)
    a, b, c, bot = (tbox.mask_of([x]) for x in ("A", "B", "C", BOT))
    conj, sub, _, exl, twice, to_bot = axioms
    assert tbox.steps == {
        c: (
            (None, b, a, conj),
            (None, a, b, conj),
            (None, a, 0, sub),
            (r.invert(), b, 0, exl),
        ),
        b: ((None, a, a, twice), (None, a, a, twice)),
        bot: ((None, b, 0, to_bot),),
    }


def test_tbox_rejects_concept_role_clash():
    with pytest.raises(KbError, match="both as concept and as role"):
        TBox([Sub("r", "B"), ExRight("A", Role("r"), "B")])


def test_role_inversion_is_involutive():
    r = Role("r")
    assert r.invert().invert() == r
    assert r.invert() == Role("r", inverted=True)

"""Automaton construction and export."""

import pytest
from hypothesis import given, strategies as st
from random import Random

from strata import (
    AutState,
    AutoTest,
    BOT,
    ConceptTest,
    ConjSub,
    ExLeft,
    KbError,
    Role,
    RoleStep,
    TBox,
    TOP,
    TOP_TEST,
    build_automaton,
    check_stratification,
    export_automaton,
    heights_for,
    random_stratified_kb,
)


def _reach_tbox():
    return TBox([ExLeft(Role("r"), "A", "A")])


def test_reachability_automaton_has_exactly_two_states():
    tbox = _reach_tbox()
    nfa = build_automaton(tbox, heights_for(tbox)[0], "A")
    assert len(nfa.states) == 2
    init = AutState(frozenset({TOP}), "A")
    acc = AutState(frozenset({TOP, "A"}), "A")
    assert nfa.initial == init
    assert nfa.accepting_states == (acc,)
    # the fragment the equivalence with r*;A? rests on
    assert (init, RoleStep(Role("r")), init) in nfa.transitions
    assert (init, ConceptTest("A"), acc) in nfa.transitions
    assert (acc, ConceptTest("A"), acc) in nfa.transitions
    assert (acc, TOP_TEST, acc) in nfa.transitions


def test_empty_tbox_automaton_accepts_only_after_reading_the_query():
    nfa = build_automaton(TBox([]), {}, "A")
    assert len(nfa.states) == 2
    acc = AutState(frozenset({TOP, "A"}), "A")
    assert nfa.accepting_states == (acc,)
    into_acc = [(s, sym) for s, sym, d in nfa.transitions if d == acc and s != acc]
    assert into_acc == [(nfa.initial, ConceptTest("A"))]


def test_worked_example_run_transitions_exist(tex):
    tbox, _, heights = tex
    nfa = build_automaton(tbox, heights, "D")
    t = set(nfa.transitions)
    s0 = AutState(frozenset({TOP}), "D")
    s1 = AutState(frozenset({TOP}), "C")
    s2 = AutState(frozenset({TOP, "A"}), "C")
    s3 = AutState(frozenset({TOP, "A"}), "B")
    s4 = AutState(frozenset({TOP, "A"}), "A")
    assert (s0, TOP_TEST, s1) in t  # goal swap licensed by the anonymous part
    assert (s1, ConceptTest("A"), s2) in t  # read A from the ABox
    assert (s2, TOP_TEST, s3) in t  # peel the conjunction A & B <= C
    assert (s3, TOP_TEST, s4) in t  # follow A <= B backwards
    assert nfa.is_accepting(s4)


def test_nested_alphabet_is_strictly_lower(tex):
    tbox, _, heights = tex
    nfa = build_automaton(tbox, heights, "D")
    assert set(nfa.lower_names) == {"A", "B"}  # the height-0 names
    for b in nfa.lower_names:
        assert heights.get(b, 0) < nfa.level
        assert nfa.nested(b).for_concept == b
    with pytest.raises(KbError):
        nfa.nested("C")  # same height as D


@given(st.integers(0, 3000))
def test_alphabet_stratification_everywhere(seed):
    tbox, _, _ = random_stratified_kb(Random(seed), max_gcis=8)
    res = check_stratification(tbox)
    for concept in tbox.concept_names:
        nfa = build_automaton(tbox, res.height, concept)
        for _, sym, _d in nfa.transitions:
            if isinstance(sym, AutoTest):
                assert res.height.get(sym.concept, 0) < res.height.get(concept, 0)


@given(st.integers(0, 3000))
def test_construction_is_deterministic(seed):
    tbox, _, _ = random_stratified_kb(Random(seed), max_concepts=4, max_gcis=6)
    res = check_stratification(tbox)
    for concept in tbox.concept_names[:2]:
        a = build_automaton(tbox, res.height, concept)
        b = build_automaton(tbox, res.height, concept)
        assert a.states == b.states
        assert a.transitions == b.transitions


def test_weak_transitions_only_when_asked():
    tbox = _reach_tbox()
    plain = build_automaton(tbox, heights_for(tbox)[0], "A")
    weak = build_automaton(tbox, heights_for(tbox)[0], "A", include_weak=True)
    assert not plain.include_weak and weak.include_weak
    acc = AutState(frozenset({TOP, "A"}), "A")
    drop = (acc, TOP_TEST, AutState(frozenset({TOP}), "A"))
    assert drop in weak.transitions
    assert drop not in plain.transitions


def test_weak_schema_drops_one_name_per_transition():
    # a state whose premise holds k names has k weak transitions, not 2^k
    tbox = TBox([ConjSub("A", "B", "X"), ConjSub("X", "C", "D")])
    nfa = build_automaton(tbox, heights_for(tbox)[0], "D", include_weak=True)
    for state in nfa.states:
        weak = [
            dst.premise
            for sym, dst in nfa.successors(state)
            if sym == TOP_TEST and dst.goal == state.goal and dst.premise < state.premise
        ]
        assert sorted(weak, key=sorted) == sorted(
            (state.premise - {c} for c in state.premise - {TOP}), key=sorted
        )
    assert max(len(s.premise) for s in nfa.states) >= 4


def test_bot_automaton_is_buildable():
    tbox = TBox([ExLeft(Role("r"), "A", BOT)])
    nfa = build_automaton(tbox, heights_for(tbox)[0], BOT)
    assert nfa.initial.goal == BOT
    syms = {sym for _, sym, _d in nfa.transitions}
    assert RoleStep(Role("r")) in syms  # it hunts the Bot-deriving body


# -- export ---------------------------------------------------------------------


def test_text_export_of_reachability_automaton():
    nfa = build_automaton(_reach_tbox(), {"A": 0, "r": 0}, "A")
    text = export_automaton(nfa, "text")
    assert "automaton: A" in text
    assert "states: 2" in text
    assert "alphabet: A? Top? r inv r" in text
    assert "transition: 0 A? 1" in text
    assert "transition: 0 r 0" in text
    # stable under re-export
    assert text == export_automaton(nfa, "text")


def test_text_export_empty_tbox_has_autotest_free_alphabet():
    nfa = build_automaton(TBox([]), {}, "A")
    text = export_automaton(nfa, "text")
    alphabet = [l for l in text.splitlines() if l.startswith("alphabet:")][0]
    assert "aut[" not in alphabet


def test_text_export_worked_example_lists_lower_autotests(tex):
    tbox, _, heights = tex
    text = export_automaton(build_automaton(tbox, heights, "D"), "text")
    alphabet = [l for l in text.splitlines() if l.startswith("alphabet:")][0]
    assert "aut[A]?" in alphabet and "aut[B]?" in alphabet
    assert "automaton: A" in text  # nested automata are exported too


def test_dot_export_shape():
    nfa = build_automaton(_reach_tbox(), {"A": 0, "r": 0}, "A")
    dot = export_automaton(nfa, "dot")
    assert dot.startswith("digraph")
    assert dot.count("peripheries=2") == 1  # one accepting state
    # grouped edges: both self-loops, the A? edge, and the return step
    assert '"A.0" -> "A.0" [label="Top?, r"];' in dot
    assert '"A.0" -> "A.1" [label="A?"];' in dot
    assert '"A.1" -> "A.1" [label="A?, Top?"];' in dot
    assert '"A.1" -> "A.0" [label="r"];' in dot


def test_dot_export_nests_subgraphs(tex):
    tbox, _, heights = tex
    dot = export_automaton(build_automaton(tbox, heights, "D"), "dot")
    assert 'subgraph "cluster_D"' in dot
    assert 'subgraph "cluster_A"' in dot
    assert "aut[A]?" in dot


def test_unknown_format_rejected():
    with pytest.raises(KbError):
        export_automaton(build_automaton(_reach_tbox(), {"A": 0, "r": 0}, "A"), "xml")

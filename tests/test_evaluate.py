"""The evaluation engines, the pipeline, witnesses, and their validator."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from random import Random

from strata import (
    TOP,
    AboxGraph,
    AutoTest,
    ConceptTest,
    ConjSub,
    Evaluator,
    ExLeft,
    KbError,
    LevelMap,
    NotStratifiedError,
    Role,
    RoleStep,
    TBox,
    build_automaton,
    check_stratification,
    compile_kb,
    entails_iq,
    heights_for,
    normalize,
    parse_kb,
    qbf_to_kb,
    random_qbf,
    random_stratified_kb,
    run_fuzz,
    validate_witness,
)

from conftest import FRESH_QUERY_TEXT, LOW_BOT_TEXT, TEX_TEXT
from oracles import goal_moves_scan, level_closer


def _reach():
    tbox = TBox([ExLeft(Role("r"), "A", "A")])
    heights = check_stratification(tbox).height
    return tbox, heights


def _chain(n, labeled_last=True):
    edges = [(Role("r"), f"a{i}", f"a{i+1}") for i in range(n)]
    asserts = [("A", f"a{n}")] if labeled_last else []
    return AboxGraph(asserts, edges, [f"a{i}" for i in range(n + 1)])


def test_naive_follows_chain_with_three_step_witness():
    tbox, heights = _reach()
    ev = Evaluator(tbox, _chain(2), heights)
    wit = ev.naive_witness("A", "a0")
    assert ev.naive("A", "a0") and len(wit) == 3
    assert [type(s.symbol) for s in wit] == [RoleStep, RoleStep, ConceptTest]


def test_naive_accepts_immediately_on_assertion():
    tbox, heights = _reach()
    ev = Evaluator(tbox, _chain(2), heights)
    wit = ev.naive_witness("A", "a2")
    assert ev.naive("A", "a2") and len(wit) == 1 and wit[0].symbol == ConceptTest("A")


def test_naive_rejects_without_assertions():
    abox = AboxGraph(concept_asserts=[("B", "a")])
    ev = Evaluator(TBox([], extra_concepts=("A",)), abox, {"A": 0})
    assert not ev.naive("A", "a") and ev.naive_witness("A", "a") is None


def test_collapsed_worked_example(tex):
    tbox, abox, heights = tex
    ev = Evaluator(tbox, abox, heights)
    assert ev.collapsed("D", "a")
    assert ev.collapsed("C", "a")


def test_collapsed_long_chain():
    tbox, heights = _reach()
    assert Evaluator(tbox, _chain(10), heights).collapsed("A", "a0")
    assert not Evaluator(tbox, _chain(10, labeled_last=False), heights).collapsed("A", "a0")


def test_collapsed_irrelevant_individual(tex):
    tbox, _, heights = tex
    abox = AboxGraph(concept_asserts=[("A", "a")], individuals=["a", "b"])
    ev = Evaluator(tbox, abox, heights)
    assert not ev.collapsed("D", "b")
    assert ev.collapsed("D", "a")


def test_collapsed_unknown_individual(tex):
    tbox, abox, heights = tex
    with pytest.raises(KbError, match="unknown individual"):
        Evaluator(tbox, abox, heights).collapsed("D", "zz")


# -- pipeline ---------------------------------------------------------------


def test_pipeline_worked_example():
    kb = parse_kb(TEX_TEXT)
    res = entails_iq(kb.gcis, kb.abox, "D", "a")
    assert res.answer and not res.inconsistent
    assert res.diagnostics["engine"] == "collapsed"


def test_readme_library_snippet_runs_on_the_worked_example():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library entry points", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {"text": TEX_TEXT}
    exec(snippet, scope)
    ev, out = scope["ev"], scope["out"]
    assert ev.fresh == {} and len(ev.notes) == 1 and ev.heights["D"] == 1
    assert scope["res"].accepted
    assert ev.collapsed("D", "a") and ev.oracle("D", "a")[0]
    assert out.answer and out.diagnostics["engine"] == "collapsed"


def test_pipeline_counts_closure_contexts():
    kb = parse_kb(TEX_TEXT)
    # the pre-check's successor {Top}, the level-1 root {A, B}, the level-0
    # root {A}
    assert entails_iq(kb.gcis, kb.abox, "D", "a").diagnostics["closure_contexts"] == 3
    kb = parse_kb(LOW_BOT_TEXT)
    res = entails_iq(kb.gcis, kb.abox, "F", "a", consistency="none", order=kb.order)
    assert not res.answer
    # shared: {B} and {F}; level 0: the roots {A}, {A, B}, {A, F}, {A, Bot}
    # and the seed {B}, whose shared type holds Bot
    assert res.diagnostics["closure_contexts"] == 7


def test_pipeline_rejects_unstratifiable_tbox():
    kb = parse_kb("tbox:\nexists r . A & exists s . A <= A\nabox:\nA(a)\n")
    with pytest.raises(NotStratifiedError):
        entails_iq(kb.gcis, kb.abox, "A", "a")


def test_pipeline_ex_falso_via_precheck():
    kb = parse_kb("tbox:\nA <= A\nabox:\nBot(b)\nr(a, b)\n")
    for engine in ("collapsed", "naive", "oracle"):
        res = entails_iq(kb.gcis, kb.abox, "Z", "a", engine=engine)
        assert res.answer and res.inconsistent


def test_pipeline_foreign_concept_is_assertion_only():
    kb = parse_kb("tbox:\nA <= B\nabox:\nA(a)\nQ(b)\n")
    assert not entails_iq(kb.gcis, kb.abox, "Q", "a").answer
    assert entails_iq(kb.gcis, kb.abox, "Q", "b").answer


@pytest.mark.parametrize("engine", ["collapsed", "naive", "oracle"])
def test_pipeline_query_on_the_normalizers_name_is_outside_the_kb(engine):
    kb = parse_kb(FRESH_QUERY_TEXT)
    res = entails_iq(kb.gcis, kb.abox, "X1", "b", engine=engine)
    assert not res.answer and res.diagnostics["fresh_names"] == ("X2",)
    assert entails_iq(kb.gcis, kb.abox, "C", "a", engine=engine).answer
    assert compile_kb(kb.gcis, kb.abox).fresh.keys() == {"X1"}


def test_pipeline_accepts_user_order():
    kb = parse_kb(TEX_TEXT + "order:\nA\nB\nC r\nD\n")
    res = entails_iq(kb.gcis, kb.abox, "D", "a", order=kb.order)
    assert res.answer
    assert res.heights == {"A": 0, "B": 1, "C": 2, "r": 2, "D": 3}


def test_pipeline_rejects_bad_user_order():
    kb = parse_kb(TEX_TEXT)
    with pytest.raises(NotStratifiedError):
        entails_iq(kb.gcis, kb.abox, "D", "a", order={n: 0 for n in ("A", "B", "C", "D", "r")})


def test_experimental_consistency_check_documented_gap():
    # asserted Bot under a TBox that never mentions Bot: the automata have no
    # Bot test to read it with, yet the automaton check agrees with the oracle
    kb = parse_kb("tbox:\nA <= A\nabox:\nBot(b)\nr(a, b)\nA(a)\n")
    with_oracle = entails_iq(kb.gcis, kb.abox, "Z", "a", consistency="oracle")
    with_automaton = entails_iq(kb.gcis, kb.abox, "Z", "a", consistency="automaton")
    assert with_oracle.inconsistent and with_oracle.answer
    assert with_automaton.inconsistent and with_automaton.answer


def test_automaton_consistency_check_sees_derivable_bot():
    kb = parse_kb("tbox:\nA & B <= bot\nabox:\nA(a)\nB(a)\n")
    res = entails_iq(kb.gcis, kb.abox, "A", "a", consistency="automaton")
    assert res.inconsistent


@settings(max_examples=25)
@given(st.integers(0, 100_000))
def test_automaton_consistency_matches_oracle_on_role_connected_kbs(seed):
    tbox, abox, _ = random_stratified_kb(Random(seed), max_gcis=8)
    ev = Evaluator(tbox, abox, heights_for(tbox)[0])
    assert ev.automaton_inconsistent() == ev.oracle_inconsistent()


def test_automaton_consistency_sees_bot_through_an_inverse_role_successor():
    # b gets A from its r-edge to c; A's anonymous inv s-successor then has b
    # as an s-neighbour and derives Bot, so A must lie in Bot's swap cone
    kb = parse_kb(
        "tbox:\nA <= exists inv s . A\nexists s . Top <= Bot\nexists r . D <= A\n"
        "abox:\nr(b, c)\nD(c)\n"
    )
    ev = compile_kb(kb.gcis, kb.abox)
    assert ev.oracle_inconsistent()
    assert ev.automaton_inconsistent()


# -- the anon schema ------------------------------------------------------------


def _asked_moves(ev, concepts, individuals):
    """Every (level, premise, goal) the collapsed and naive engines ask for."""
    asked = set()
    goal_moves = ev.levels.goal_moves

    def recording(level, premise_mask, goal_bit):
        asked.add((level, premise_mask, goal_bit))
        return goal_moves(level, premise_mask, goal_bit)

    ev.levels.goal_moves = recording
    for concept in concepts:
        for ind in individuals:
            ev.collapsed(concept, ind)
            ev.naive(concept, ind)
    ev.automaton_inconsistent()
    del ev.levels.goal_moves
    return asked


def _assert_moves_match_scan(levels, triples):
    closers = {}
    for level, premise_mask, goal_bit in sorted(triples):
        n = min(level, levels.max_level)
        if n not in closers:
            closers[n] = level_closer(levels, n)
        want = goal_moves_scan(closers[n], levels.con_mask(n), premise_mask, goal_bit)
        assert levels.goal_moves(level, premise_mask, goal_bit) == want, (
            level,
            premise_mask,
            goal_bit,
        )


@pytest.mark.parametrize(
    "limits",
    [(3, 2, 4, 6, 3), (6, 3, 10, 12, 3), (4, 2, 5, 14, 3), (6, 3, 16, 10, 3), (16, 3, 10, 24, 8)],
    ids=["tiny", "default", "dense", "wide", "tall"],
)
@settings(max_examples=60)
@given(st.integers(0, 1_000_000))
def test_swap_mask_matches_the_exhaustive_scan(limits, seed):
    tbox, abox, drawn = random_stratified_kb(Random(seed), *limits)
    # odd seeds run on the drawn map as a user order, which reaches the tall
    # strata the minimal heights never do
    ev = Evaluator(tbox, abox, drawn if seed % 2 else heights_for(tbox)[0])
    triples = _asked_moves(ev, tbox.concept_names, abox.individuals)
    levels = ev.levels
    if len(tbox.concept_names) <= 6:
        # small enough to also try every premise the automata can build at a
        # level (Top plus a subset of con(T|n)) against every goal
        goals = [1 << b for b in tbox.bit_of.values()]
        for n in range(levels.max_level + 1):
            rest = levels.con_mask(n) & ~1
            sub = rest
            while True:
                triples.update((n, sub | 1, g) for g in goals)
                if not sub:
                    break
                sub = (sub - 1) & rest
    _assert_moves_match_scan(levels, triples)


def test_goal_moves_peel_the_conjunct_missing_from_the_premise():
    tbox = TBox([ConjSub("A", "B", "C")])
    levels = LevelMap(tbox, check_stratification(tbox).height)
    n, goal = levels.height("C"), tbox.mask_of(["C"])
    assert levels.goal_moves(n, tbox.mask_of([TOP]), goal)[0] == ()
    assert levels.goal_moves(n, tbox.mask_of([TOP, "A"]), goal)[0] == ((None, "B"),)
    assert levels.goal_moves(n, tbox.mask_of([TOP, "B"]), goal)[0] == ((None, "A"),)
    both = levels.goal_moves(n, tbox.mask_of([TOP, "A", "B"]), goal)[0]
    assert both == ((None, "B"), (None, "A"))


@settings(max_examples=10)
@given(st.integers(0, 1_000_000), st.integers(2, 3), st.integers(2, 3))
def test_swap_mask_matches_the_exhaustive_scan_on_qbf_reductions(seed, n, m):
    gen = qbf_to_kb(random_qbf(seed, n, m))
    ev = Evaluator(gen.tbox, gen.abox, gen.heights)
    triples = _asked_moves(ev, [gen.query[0]], [gen.query[1]])
    assert triples
    _assert_moves_match_scan(ev.levels, triples)


# -- engine agreement & witnesses --------------------------------------------


def test_fuzz_evaluates_tall_strata_under_the_drawn_orders():
    # the tall class as scripts/run_fuzz.py runs it; its odd cases use the
    # drawn height map, whose levels the minimal heights (at most 3) miss
    report = run_fuzz(
        40, 42, max_concepts=16, max_individuals=10, max_gcis=24, max_height=8,
        validate_witnesses=True,
    )
    assert report.ok, report.failures[:1]
    assert report.witnesses_checked > 0
    assert report.top_level >= 6


@settings(max_examples=50)
@given(st.integers(0, 1_000_000))
def test_three_engines_agree(seed):
    tbox, abox, _ = random_stratified_kb(Random(seed))
    ev = Evaluator(tbox, abox, heights_for(tbox)[0])
    if ev.oracle_inconsistent():
        return
    for concept in tbox.concept_names:
        for ind in abox.individuals:
            a = ev.collapsed(concept, ind)
            b = ev.naive(concept, ind)
            c = ev.oracle(concept, ind)[0]
            assert a == b == c, (concept, ind, a, b, c)


@settings(max_examples=30)
@given(st.integers(0, 1_000_000))
def test_weak_transitions_change_nothing(seed):
    tbox, abox, _ = random_stratified_kb(Random(seed), max_gcis=8)
    ev = Evaluator(tbox, abox, heights_for(tbox)[0])
    if ev.oracle_inconsistent():
        return
    for concept in tbox.concept_names:
        for ind in abox.individuals:
            assert ev.naive(concept, ind, include_weak=True) == ev.naive(concept, ind)


@settings(max_examples=30)
@given(st.integers(0, 1_000_000))
def test_horn_monotonicity(seed):
    rng = Random(seed)
    tbox, abox, _ = random_stratified_kb(rng, max_individuals=5, max_gcis=8)
    ev = Evaluator(tbox, abox, heights_for(tbox)[0])
    if ev.oracle_inconsistent():
        return
    true_answers = [
        (c, i)
        for c in tbox.concept_names
        for i in abox.individuals
        if ev.collapsed(c, i)
    ]
    # grow the ABox and re-ask
    extra_c = [(rng.choice(tbox.concept_names or ("A",)), rng.choice(abox.individuals))]
    extra_r = [
        (
            Role(rng.choice(tbox.role_names or ("r",))),
            rng.choice(abox.individuals),
            rng.choice(abox.individuals),
        )
    ]
    bigger = AboxGraph(
        abox.concept_asserts() + extra_c,
        abox.role_asserts() + extra_r,
        abox.individuals,
    )
    ev2 = Evaluator(tbox, bigger, heights_for(tbox)[0])
    if ev2.oracle_inconsistent():
        return
    for c, i in true_answers:
        assert ev2.collapsed(c, i)


@settings(max_examples=40)
@given(st.integers(0, 1_000_000))
def test_witnesses_replay_under_the_run_conditions(seed):
    tbox, abox, _ = random_stratified_kb(Random(seed))
    ev = Evaluator(tbox, abox, heights_for(tbox)[0])
    if ev.oracle_inconsistent():
        return
    oracle = lambda c, x: ev.oracle(c, x)[0]
    for concept in tbox.concept_names:
        for ind in abox.individuals:
            if ev.collapsed(concept, ind):
                validate_witness(ev.collapsed_witness(concept, ind), abox, ind, oracle)
                validate_witness(ev.naive_witness(concept, ind), abox, ind, oracle)


@settings(max_examples=40)
@given(st.integers(0, 1_000_000))
def test_engines_agree_under_inflated_user_orders(seed):
    # the fuzz corpus always runs on minimal heights; coarser admissible
    # orders change every level restriction, so exercise those too
    from strata import verify_preorder

    rng = Random(seed)
    tbox, abox, _ = random_stratified_kb(rng)
    minimal = check_stratification(tbox).height
    h = dict(minimal)
    for _ in range(6):
        cand = dict(h)
        cand[rng.choice(sorted(cand))] += rng.randint(1, 2)
        if not verify_preorder(tbox, cand):
            h = cand
    ev_user = Evaluator(tbox, abox, h)
    ev_min = Evaluator(tbox, abox, minimal)
    if ev_min.oracle_inconsistent():
        return
    for c in tbox.concept_names:
        for a in abox.individuals:
            want = ev_min.oracle(c, a)[0]
            assert ev_user.collapsed(c, a) == want
            assert ev_user.naive(c, a) == want


def _assert_witness_follows_automaton(ev, nfa, concept, ind, include_weak=False):
    """Every step of the naive witness, and of the witnesses of its nested
    tests, is a transition of the separately built automaton."""
    transitions = set(nfa.transitions)
    for step in ev.naive_witness(concept, ind, include_weak):
        assert (step.state, step.symbol, step.next_state) in transitions
        if isinstance(step.symbol, AutoTest):
            c = step.symbol.concept
            _assert_witness_follows_automaton(ev, nfa.nested(c), c, step.source, include_weak)


@settings(max_examples=30)
@given(st.integers(0, 1_000_000), st.booleans())
def test_naive_witness_steps_are_real_transitions(seed, include_weak):
    # on the reachability chain and on a random KB, every true answer's
    # witness is a run of the automaton `build_automaton` builds
    tbox, heights = _reach()
    cases = [(tbox, _chain(3), heights)]
    tbox, abox, _ = random_stratified_kb(Random(seed), max_concepts=4, max_gcis=8)
    cases.append((tbox, abox, heights_for(tbox)[0]))
    for tbox, abox, heights in cases:
        ev = Evaluator(tbox, abox, heights)
        for concept in tbox.concept_names:
            nfa = build_automaton(tbox, ev.heights, concept, include_weak=include_weak)
            for ind in abox.individuals:
                if ev.naive(concept, ind, include_weak):
                    _assert_witness_follows_automaton(ev, nfa, concept, ind, include_weak)


def test_validator_rejects_broken_witnesses():
    tbox, heights = _reach()
    abox = _chain(2)
    wit = Evaluator(tbox, abox, heights).naive_witness("A", "a0")
    # break the chain: claim a role edge that is not there
    from strata import RunStep

    forged = (RunStep(wit[0].source, wit[0].state, RoleStep(Role("r")), wit[0].state, "a2"),) + wit[1:]
    with pytest.raises(KbError):
        validate_witness(forged, abox, "a0", lambda c, x: True)
    with pytest.raises(KbError, match="starts at"):
        validate_witness(wit, abox, "a1", lambda c, x: True)


def test_visited_counters_respect_laziness_bounds():
    kb = parse_kb(TEX_TEXT)
    tbox, _ = normalize(kb.gcis)
    heights = check_stratification(tbox).height
    ev = Evaluator(tbox, kb.abox, heights)
    ev.naive("D", "a")
    n_states = None
    nfa = build_automaton(tbox, heights, "D")
    n_states = len(nfa.states)
    assert ev.naive_visited <= len(kb.abox.individuals) * n_states
    ev2 = Evaluator(tbox, kb.abox, heights)
    ev2.collapsed("D", "a")
    assert ev2.collapsed_visited <= len(kb.abox.individuals) * (len(tbox.concept_names) + 2)

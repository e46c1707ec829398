"""The evaluation engines, the pipeline, witnesses, and their validator."""

from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from random import Random

from strata import (
    BOT,
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
    replay_derivation,
    run_case,
    run_fuzz,
    validate_witness,
)
from strata import evaluate, fuzz
from strata.fuzz import SIZE_CLASSES, _case_seed
from strata.stratify import Violation

from conftest import BOT_ABOVE_TEXT, FRESH_QUERY_TEXT, LOW_BOT_TEXT, TEX_TEXT
from oracles import goal_moves_scan, level_closer, restrict


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
    assert scope["answer"] and replay_derivation(ev.tbox, ev.abox, scope["steps"], "D", "a")
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


def test_pipeline_rejects_an_unknown_engine_or_consistency_check(monkeypatch):
    # both names are checked before the individual and before any compile,
    # on a consistent KB, on an inconsistent one and for an unknown individual
    monkeypatch.setattr(evaluate, "compile_kb", lambda *args: pytest.fail("compiled"))
    inconsistent = "tbox:\nA <= Bot\nabox:\nA(a)\n"
    for text, ind in [(TEX_TEXT, "a"), (inconsistent, "a"), (TEX_TEXT, "nobody")]:
        kb = parse_kb(text)
        with pytest.raises(KbError, match="^unknown engine 'fast'$"):
            entails_iq(kb.gcis, kb.abox, "D", ind, engine="fast")
        with pytest.raises(KbError, match="^unknown consistency check 'bogus'$"):
            entails_iq(kb.gcis, kb.abox, "D", ind, consistency="bogus")


def test_pipeline_rejects_unstratifiable_tbox():
    kb = parse_kb("tbox:\nexists r . A & exists s . A <= A\nabox:\nA(a)\n")
    with pytest.raises(NotStratifiedError):
        entails_iq(kb.gcis, kb.abox, "A", "a")


def test_pipeline_ex_falso_via_precheck():
    kb = parse_kb("tbox:\nA <= A\nabox:\nBot(b)\nr(a, b)\n")
    for engine in ("collapsed", "naive", "oracle"):
        res = entails_iq(kb.gcis, kb.abox, "Z", "a", engine=engine)
        assert res.answer and res.inconsistent


FOREIGN_TEXT = "tbox:\nA <= B\nabox:\nA(a)\nQ(b)\n"


@pytest.mark.parametrize(
    "text, concept, true_at",
    [
        (FOREIGN_TEXT, TOP, {"a", "b"}),
        (FOREIGN_TEXT, "Q", {"b"}),
        # an ordered name above every axiom, at a level no axiom reaches
        ("tbox:\nA <= B\nabox:\nA(a)\nZ(b)\norder:\nA B\nZ\n", "Z", {"b"}),
    ],
    ids=["top", "abox-only", "ordered-above"],
)
def test_pipeline_foreign_concept_is_assertion_only(text, concept, true_at):
    """Top holds everywhere and a name no axiom mentions exactly where it is
    asserted, by the ordinary search over the signature ``compile_kb``
    adjoins the name to; an evaluator built without it has no such name."""
    kb = parse_kb(text)
    ev = compile_kb(kb.gcis, kb.abox, kb.order, concept)
    for ind in kb.abox.individuals:
        want = ind in true_at
        for engine in ("collapsed", "naive", "oracle"):
            res = entails_iq(kb.gcis, kb.abox, concept, ind, engine=engine, order=kb.order)
            assert res.answer == want, (engine, ind)
        witnesses = (ev.collapsed_witness(concept, ind), ev.naive_witness(concept, ind))
        if want:
            for witness in witnesses:
                validate_witness(witness, kb.abox, ind)
        else:
            assert witnesses == (None, None)
    plain = compile_kb(kb.gcis, kb.abox, kb.order)
    with pytest.raises(KbError, match="Nowhere"):
        Evaluator(plain.tbox, kb.abox, plain.heights).collapsed("Nowhere", "a")


@pytest.mark.parametrize("engine", ["collapsed", "naive", "oracle"])
def test_pipeline_query_on_the_normalizers_name_is_outside_the_kb(engine):
    kb = parse_kb(FRESH_QUERY_TEXT)
    res = entails_iq(kb.gcis, kb.abox, "X1", "b", engine=engine)
    assert not res.answer and res.diagnostics["fresh_names"] == ("X2",)
    assert entails_iq(kb.gcis, kb.abox, "C", "a", engine=engine).answer
    assert compile_kb(kb.gcis, kb.abox).fresh.keys() == {"X1"}


@pytest.mark.parametrize("engine", tuple(evaluate.ENGINES))
def test_every_engine_rejects_a_name_outside_a_directly_compiled_tbox(engine):
    kb = parse_kb("tbox:\nA <= B\nabox:\nA(a)\nZ(a)\n")
    search, _ = evaluate.ENGINES[engine](compile_kb(kb.gcis, kb.abox))
    for name in ("Z", "Nowhere"):  # asserted in the ABox only, and unknown
        with pytest.raises(KbError, match=f"{name} is not a concept name of the TBox"):
            search(name, "a")
    assert entails_iq(kb.gcis, kb.abox, "Z", "a", engine=engine).answer
    assert not entails_iq(kb.gcis, kb.abox, "Nowhere", "a", engine=engine).answer


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


@settings(max_examples=60)
@given(st.integers(0, 1_000_000))
def test_automaton_consistency_matches_oracle_on_role_connected_kbs(seed):
    # every fuzz class under the minimal heights and the drawn map as the
    # order; the tall class on a third of the seeds only, since its naive Bot
    # automaton nests up to 16 lower ones
    for label, limits in SIZE_CLASSES.items():
        if label == "tall" and seed % 3:
            continue
        tbox, abox, drawn = random_stratified_kb(Random(seed), *limits)
        for heights in (heights_for(tbox)[0], drawn):
            ev = Evaluator(tbox, abox, heights)
            assert ev.automaton_inconsistent() == ev.oracle_inconsistent(), label
            for x in abox.individuals:
                assert ev.collapsed(BOT, x) == ev.naive(BOT, x), (label, x)


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


def test_automaton_consistency_sees_a_bot_whose_conjuncts_share_the_top_height():
    # A and B both have height 0, the top level, so a0's label holds both
    # only one level above every axiom, where Bot is searched
    kb = parse_kb(BOT_ABOVE_TEXT)
    ev = compile_kb(kb.gcis, kb.abox)
    assert ev.levels.max_level == 0 and ev.levels.height(BOT) == 1
    assert ev.oracle_inconsistent()
    assert ev.automaton_inconsistent()
    assert ev.collapsed(BOT, "a0") and ev.naive(BOT, "a0")


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
            closers[n] = restrict(levels.tbox, levels.heights, n), level_closer(levels, n)
        want = goal_moves_scan(*closers[n], levels.con_mask(n), premise_mask, goal_bit)
        assert levels.goal_moves(level, premise_mask, goal_bit) == want, (
            level,
            premise_mask,
            goal_bit,
        )


@pytest.mark.parametrize("limits", list(SIZE_CLASSES.values()), ids=list(SIZE_CLASSES))
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
    a, b = tbox.mask_of(["A"]), tbox.mask_of(["B"])
    assert levels.goal_moves(n, tbox.mask_of([TOP]), goal)[0] == ()
    assert levels.goal_moves(n, tbox.mask_of([TOP, "A"]), goal)[0] == ((None, b),)
    assert levels.goal_moves(n, tbox.mask_of([TOP, "B"]), goal)[0] == ((None, a),)
    both = levels.goal_moves(n, tbox.mask_of([TOP, "A", "B"]), goal)[0]
    assert both == ((None, b), (None, a))


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
    # the tall class as `strata fuzz` runs it; its odd cases use the drawn
    # height map, whose levels the minimal heights (at most 3) miss
    report = run_fuzz(40, 42, 1, SIZE_CLASSES["tall"])
    assert report.ok, report.failures[:1]
    assert report.witnesses_checked > 0
    assert report.top_level >= 6


# two fuzz cases with true answers; case 3 is odd, so its KB text carries the
# drawn heights as an order: section
@pytest.mark.parametrize("case", [0, 3])
def test_run_case_reports_a_flipped_answer_with_its_kb_text(case, monkeypatch):
    collapsed = Evaluator.collapsed
    monkeypatch.setattr(Evaluator, "collapsed", lambda self, c, x: not collapsed(self, c, x))
    queries, failures, witnesses, _ = run_case(case, _case_seed(42, case))
    assert queries > 0 and len(failures) == queries and witnesses == 0
    for f in failures:
        assert (f.case, f.seed) == (case, _case_seed(42, case))
        assert set(f.answers) == {"collapsed", "naive", "oracle", "naive_weak"}
        assert f.answers["naive"] == f.answers["naive_weak"] == f.answers["oracle"]
        assert f.answers["collapsed"] != f.answers["oracle"]
    kb = parse_kb(failures[0].kb_text)
    assert (kb.order_levels is not None) == (case % 2 == 1)
    ev = compile_kb(kb.gcis, kb.abox, kb.order)
    # the printed KB reproduces the case
    assert [ev.oracle(f.concept, f.ind)[0] for f in failures] == [
        f.answers["oracle"] for f in failures
    ]


def test_run_case_reports_a_broken_witness(monkeypatch):
    monkeypatch.setattr(Evaluator, "collapsed_witness", lambda self, c, x: ())
    _, failures, witnesses, _ = run_case(0, _case_seed(42, 0))
    assert failures and witnesses == 0
    assert all(f.answers == {"witness": "empty witness"} for f in failures)


def test_run_case_reports_a_broken_trace(monkeypatch):
    oracle = Evaluator.oracle

    def no_steps(self, c, x, want_trace=False):
        answer, trace = oracle(self, c, x, want_trace)
        return answer, None if trace is None else []

    monkeypatch.setattr(Evaluator, "oracle", no_steps)
    _, failures, _, _ = run_case(0, _case_seed(42, 0))
    assert failures
    for f in failures:
        assert f.answers == {"trace": f"the trace does not derive {f.concept}({f.ind})"}


@pytest.mark.parametrize(
    "target, stub, answers",
    [
        (
            "check_stratification",
            lambda tbox: SimpleNamespace(accepted=False),
            {"checker": "rejected"},
        ),
        (
            "verify_preorder",
            lambda tbox, heights: [Violation("order", None, "a broken drawn map")],
            {"order": "a broken drawn map"},
        ),
    ],
)
def test_run_case_reports_a_rejected_kb(monkeypatch, target, stub, answers):
    monkeypatch.setattr(fuzz, target, stub)
    queries, failures, witnesses, _ = run_case(1, _case_seed(42, 1))
    assert (queries, witnesses) == (0, 0)
    [f] = failures
    assert (f.concept, f.ind, f.answers) == ("-", "-", answers)


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


def _forge(steps, i, **fields):
    """`steps` with the given fields of step i replaced."""
    return (*steps[:i], replace(steps[i], **fields), *steps[i + 1 :])


def _holds(concept, ind):
    return True


# One forged witness per raise site of `validate_witness`: (forgery, nested
# checker, message).  Each edits the naive witness of A(a0) on the chain
# a0 -r-> a1 -r-> a2 with A(a2), whose steps are r, r and the test A? at a2.
FORGED_WITNESSES = {
    "empty": (lambda w: (), _holds, "empty witness"),
    "wrong start": (lambda w: w[1:], _holds, "starts at a1, not a0"),
    "unchained": (lambda w: _forge(w, 1, source="a0"), _holds, "do not chain"),
    "missing edge": (
        lambda w: _forge(w, 0, symbol=RoleStep(Role("r", True))),
        _holds,
        r"no ABox edge inv r\(a0, a1\)",
    ),
    "moving concept test": (lambda w: _forge(w, 2, target="a1"), _holds, "must not move"),
    "moving aut test": (
        lambda w: _forge(w, 2, symbol=AutoTest("A"), target="a1"),
        _holds,
        "must not move",
    ),
    "failing concept test": (
        lambda w: _forge(w, 2, symbol=ConceptTest("B")),
        _holds,
        r"test B\? fails at a2",
    ),
    "nested test, no checker": (
        lambda w: _forge(w, 2, symbol=AutoTest("A")),
        None,
        "no checker was given",
    ),
    "failing nested test": (
        lambda w: _forge(w, 2, symbol=AutoTest("A")),
        lambda c, x: False,
        r"nested test aut\[A\]\? fails at a2",
    ),
    "unknown symbol": (lambda w: _forge(w, 2, symbol="A?"), _holds, r"unknown symbol 'A\?'"),
    "not accepting": (
        lambda w: _forge(w, 2, next_state=w[2].state),
        _holds,
        r"final state \{Top\} / A is not accepting",
    ),
}


@pytest.mark.parametrize("case", list(FORGED_WITNESSES))
def test_validator_rejects_each_forged_witness(case):
    forge, checker, message = FORGED_WITNESSES[case]
    tbox, heights = _reach()
    abox = _chain(2)
    wit = Evaluator(tbox, abox, heights).naive_witness("A", "a0")
    assert [type(s.symbol) for s in wit] == [RoleStep, RoleStep, ConceptTest]
    validate_witness(wit, abox, "a0", checker)
    with pytest.raises(KbError, match=message):
        validate_witness(forge(wit), abox, "a0", checker)


def test_a_goal_below_the_search_level_is_a_leaf():
    """`exists r . A <= A` and `exists r . A <= B` over the r chain a0..a3,
    with no A anywhere: A lies at level 0, B at level 1.  Once every label
    at level 1 is built, the search for B(a0) visits (a0, B) and its step
    (a1, A).  That node fails its accept test and is not expanded, so the
    search does not walk on to (a2, A) and (a3, A): 2 nodes, not 4."""
    r = Role("r")
    tbox = TBox([ExLeft(r, "A", "A"), ExLeft(r, "A", "B")])
    inds = ["a0", "a1", "a2", "a3"]
    abox = AboxGraph([], [(r, x, y) for x, y in zip(inds, inds[1:])], inds)
    ev = Evaluator(tbox, abox, heights_for(tbox)[0])
    assert (ev.levels.height("A"), ev.levels.height("B")) == (0, 1)
    for x in inds:
        ev.label_mask(x, 1)
    ev.collapsed_visited = 0
    assert ev.collapsed("B", "a0") is False
    assert ev.collapsed_visited == 2


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


def test_every_engine_refuses_an_unknown_individual(tex):
    ev = Evaluator(*tex)
    for ask in (ev.collapsed, ev.collapsed_witness, ev.naive, ev.naive_witness):
        with pytest.raises(KbError, match="unknown individual 'zz'"):
            ask("D", "zz")


# -- labels decided on demand over the goal's cone --------------------------------


def _fuzz_kbs(seed, cases):
    """Every size class's first `cases` fuzz KBs at `seed`, as ``run_fuzz``
    draws them: odd cases on the drawn height map, even ones on the minimal
    heights."""
    for label, limits in SIZE_CLASSES.items():
        for i in range(cases):
            tbox, abox, drawn = random_stratified_kb(Random(_case_seed(seed, i)), *limits)
            yield label, tbox, abox, drawn if i % 2 else heights_for(tbox)[0]


def test_a_collapsed_witness_keeps_its_premise_across_every_test_step():
    """A state's premise is what is decided at its individual, so a test
    step, which stays there, keeps it, as the automaton's test steps do."""
    witnesses = 0
    for label, tbox, abox, heights in _fuzz_kbs(7, 200):
        ev = Evaluator(tbox, abox, heights)
        if ev.oracle_inconsistent():
            continue
        for concept in tbox.concept_names:
            for ind in abox.individuals:
                witness = ev.collapsed_witness(concept, ind)
                for step in witness or ():
                    if not isinstance(step.symbol, RoleStep):
                        assert step.state.premise == step.next_state.premise, (label, step)
                witnesses += witness is not None
    assert witnesses == 2824


def test_asking_highest_first_or_lowest_first_gives_the_same_answers():
    for label, tbox, abox, heights in _fuzz_kbs(11, 200):
        answers = []
        for highest_first in (True, False):
            ev = Evaluator(tbox, abox, heights)
            order = sorted(tbox.concept_names, key=ev.levels.height, reverse=highest_first)
            answers.append({(c, x): ev.collapsed(c, x) for c in order for x in abox.individuals})
        assert answers[0] == answers[1], label


# Top <= exists r . A puts G everywhere, and x's label {E, F, Top} holds no
# name of G's cone but Top: the Top swap is offered for the cone's premise
# {Top}, and x must not take it, since its whole label is not bare
BARE_CONE_TEXT = """\
tbox:
Top <= exists r . A
exists r . A <= G
E <= F
abox:
E(x)
r(x, y)
"""


def test_the_top_swap_reads_the_whole_label_not_the_cones():
    kb = parse_kb(BARE_CONE_TEXT)
    ev = compile_kb(kb.gcis, kb.abox)
    answers = {(c, x): ev.collapsed(c, x) for c in ev.tbox.concept_names for x in "xy"}
    assert answers == {(c, x): ev.oracle(c, x)[0] for c, x in answers}
    assert {pair for pair, yes in answers.items() if yes} == {
        ("E", "x"), ("F", "x"), ("G", "x"), ("G", "y")
    }
    steps = [
        (s.source, s.state.label(), str(s.symbol), s.next_state.label(), s.target)
        for s in ev.collapsed_witness("G", "x")
    ]
    assert steps == [("x", "{E,Top} / G", "Top?", "{E,Top} / E", "x")]
    # y's whole label is bare, so there the Top swap stands
    (step,) = ev.collapsed_witness("G", "y")
    assert step.next_state.label() == "{Top} / Top"


def test_a_bot_free_tbox_searches_bot_at_one_node_per_individual():
    r = Role("r")
    tbox = TBox([ExLeft(r, f"C{k}", f"C{k + 1}") for k in range(20)])
    inds = [f"a{i}" for i in range(9)]
    abox = AboxGraph([("C0", "a8")], [(r, x, y) for x, y in zip(inds, inds[1:])], inds)
    ev = Evaluator(tbox, abox, heights_for(tbox)[0])
    assert not ev.automaton_inconsistent()
    assert ev.collapsed_visited == len(inds)

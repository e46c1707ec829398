"""The saturation oracle: type closure, ABox saturation, traces."""

import pytest
from hypothesis import given, settings, strategies as st
from random import Random

from strata import (
    BOT,
    TOP,
    AboxGraph,
    ConjSub,
    ExLeft,
    ExRight,
    KbError,
    Role,
    Sub,
    TBox,
    TypeCloser,
    check_stratification,
    normalize,
    oracle_entails,
    parse_kb,
    random_stratified_kb,
    replay_derivation,
    restrict,
    saturate_abox,
)
from strata.saturate import _fire

from conftest import diamond_kb_text
from oracles import chase, fire_scan, random_abox, random_normal_tbox, saturate_per_node

FUZZ_CLASSES = pytest.mark.parametrize(
    "limits", [(3, 2, 4, 6), (6, 3, 10, 12), (4, 2, 5, 14), (6, 3, 16, 10)],
    ids=["tiny", "default", "dense", "wide"],
)


def test_type_closure_worked_example(tex):
    tbox, _, _ = tex
    got = TypeCloser(tbox).closure({"A"})
    # cross-check by a small chase on the singleton ABox
    labels, incon, capped = chase(tbox, AboxGraph(concept_asserts=[("A", "x")]), 3)
    assert not incon and not capped
    assert got == frozenset(labels["x"]) == frozenset({TOP, "A", "B", "C", "D"})


def test_type_closure_top_alone_stays_top(tex):
    assert TypeCloser(tex[0]).closure({TOP}) == frozenset({TOP})


def test_type_closure_bot_floods_signature():
    tbox = TBox([Sub("A", BOT), Sub("B", "B")])
    got = TypeCloser(tbox).closure({"A"})
    assert got == frozenset({TOP, BOT, "A", "B"})


@settings(max_examples=30)
@given(st.integers(0, 100_000))
def test_type_closure_monotone_extensive_idempotent(seed):
    rng = Random(seed)
    tbox = random_normal_tbox(rng, max_concepts=3, max_roles=2, max_gcis=6)
    names = list(tbox.concept_names)
    s = frozenset(rng.sample(names, rng.randint(0, len(names))))
    s2 = s | frozenset(rng.sample(names, rng.randint(0, len(names))))
    closer = TypeCloser(tbox)
    c1, c2 = closer.closure(s), closer.closure(s2)
    assert s <= c1 and c1 <= c2
    assert closer.closure(c1) == c1


@settings(max_examples=30)
@given(st.integers(0, 100_000))
def test_type_closure_grows_with_the_level(seed):
    rng = Random(seed)
    tbox = random_normal_tbox(rng, max_concepts=3, max_roles=2, max_gcis=6)
    res = check_stratification(tbox)
    if not res.accepted:
        return
    names = list(tbox.concept_names)
    s = frozenset(rng.sample(names, rng.randint(0, len(names))))
    n = rng.randint(0, 2)
    low = TypeCloser(restrict(tbox, res.height, n)).closure(s)
    high = TypeCloser(restrict(tbox, res.height, n + 1)).closure(s)
    assert low <= high


@settings(max_examples=200)
@given(st.integers(0, 1_000_000))
def test_fire_matches_the_scanning_kernel(seed):
    rng = Random(seed)
    tbox = random_normal_tbox(rng, max_concepts=5, max_roles=2, max_gcis=10)
    bits = [1 << b for b in sorted(tbox.bit_of.values())]  # Top and Bot included
    flood = tbox.signature_mask | 3

    def some(p):
        return sum(b for b in bits if b != 2 and rng.random() < p) | (
            2 if rng.random() < 0.05 else 0
        )

    # a successor type is its seed plus a fixed mask per seed bit, so the
    # table is monotone in the seed, as every closure the callers pass is
    extra = {b: some(0.25) for b in bits}

    def child_of(seed):
        out = seed
        for b in bits:
            if seed & b:
                out |= extra[b]
        return out

    start = 1 | some(0.3)
    for table in (None, child_of):
        assert _fire(tbox, start, table, flood) == fire_scan(tbox, start, table, flood)
        # a type closed except for the new bits
        new = some(0.3)
        cur = fire_scan(tbox, start, table, flood) | new
        assert _fire(tbox, cur, table, flood, _new=new) == fire_scan(tbox, cur, table, flood)
    # closed under sub and conj, with successor types not yet read
    cur = fire_scan(tbox, start, None, flood)
    assert _fire(tbox, cur, child_of, flood, _new=0) == fire_scan(tbox, cur, child_of, flood)


@FUZZ_CLASSES
@settings(max_examples=40)
@given(st.integers(0, 1_000_000))
def test_saturation_matches_the_per_node_path_and_its_traces_replay(limits, seed):
    tbox, abox, _ = random_stratified_kb(Random(seed), *limits)
    closer = TypeCloser(tbox)
    sat = saturate_abox(tbox, abox, closer)
    assert sat.labels == saturate_per_node(tbox, abox)
    if sat.inconsistent:
        return
    for a in abox.individuals:
        for c in tbox.concept_names:
            ans, trace = oracle_entails(tbox, abox, c, a, want_trace=True, sat=sat, closer=closer)
            if ans:
                assert replay_derivation(tbox, abox, trace, c, a)


def test_saturate_worked_example(tex):
    tbox, abox, _ = tex
    sat = saturate_abox(tbox, abox)
    assert not sat.inconsistent
    assert sat.entailed("a") == frozenset({TOP, "A", "B", "C", "D"})


def test_saturate_propagates_along_chain():
    tbox = TBox([ExLeft(Role("r"), "A", "A")])
    abox = AboxGraph(
        concept_asserts=[("A", "a3")],
        role_asserts=[(Role("r"), "a1", "a2"), (Role("r"), "a2", "a3")],
    )
    sat = saturate_abox(tbox, abox)
    assert all("A" in sat.entailed(x) for x in ("a1", "a2", "a3"))


def test_saturate_flags_asserted_bot():
    tbox = TBox([], extra_concepts=("Z",))
    abox = AboxGraph(concept_asserts=[(BOT, "b")], role_asserts=[(Role("r"), "a", "b")])
    sat = saturate_abox(tbox, abox)
    assert sat.inconsistent and sat.bot_at == "b"


def test_saturate_detects_anonymous_inconsistency():
    tbox = TBox([ExRight("A", Role("r"), "B"), Sub("B", BOT)])
    sat = saturate_abox(tbox, AboxGraph(concept_asserts=[("A", "a")]))
    assert sat.inconsistent


@settings(max_examples=25)
@given(st.integers(0, 100_000))
def test_saturate_agrees_with_naive_chase(seed):
    rng = Random(seed)
    tbox = random_normal_tbox(rng, max_concepts=3, max_roles=2, max_gcis=6)
    if sum(isinstance(a, ExRight) for a in tbox.axioms) > 2:
        return
    abox = random_abox(rng, list(tbox.concept_names) or ["A"], list(tbox.role_names) or ["r"], 4)
    depth = 2 * 2 ** (len(tbox.concept_names) + 2)
    labels, incon, capped = chase(tbox, abox, depth)
    if capped:
        return
    sat = saturate_abox(tbox, abox)
    assert sat.inconsistent == incon
    if not incon:
        sig = set(tbox.concept_names) | {TOP}
        for a in abox.individuals:
            assert sat.entailed(a) & sig == (labels[a] & sig) | {TOP}


def test_oracle_worked_example_with_trace(tex):
    tbox, abox, _ = tex
    ans, trace = oracle_entails(tbox, abox, "D", "a", want_trace=True)
    assert ans and trace
    assert replay_derivation(tbox, abox, trace, "D", "a")


def test_a_trace_longer_than_the_recursion_limit_replays():
    steps = 1100
    tbox = TBox([Sub(f"C{i}", f"C{i + 1}") for i in range(steps)])
    abox = AboxGraph(concept_asserts=[("C0", "a")])
    ans, trace = oracle_entails(tbox, abox, f"C{steps}", "a", want_trace=True)
    assert ans and len(trace) == steps
    assert [st.axiom for st in trace] == list(tbox.axioms)
    assert replay_derivation(tbox, abox, trace, f"C{steps}", "a")


def test_a_trace_through_anonymous_successors_deeper_than_the_recursion_limit():
    # Q1100(a) needs 1,100 nested anonymous A-successors: the innermost
    # gets Q1 from its own A-successor, and each Q climbs one level up
    depth = 1100
    r = Role("r")
    axioms = [ExRight("A", r, "A"), ExLeft(r, "A", "Q1")]
    axioms += [ExLeft(r, f"Q{i}", f"Q{i + 1}") for i in range(1, depth)]
    tbox = TBox(axioms)
    abox = AboxGraph(concept_asserts=[("A", "a")])
    ans, trace = oracle_entails(tbox, abox, f"Q{depth}", "a", want_trace=True)
    assert ans and len(trace) == 2 * depth
    assert sum(isinstance(st.axiom, ExRight) for st in trace) == depth
    assert replay_derivation(tbox, abox, trace, f"Q{depth}", "a")


def test_a_trace_reuses_each_anonymous_successor():
    # R15 and S15 both read Q15 at the same r-successor of a, and so on down
    kb = parse_kb(diamond_kb_text(16))
    tbox, _ = normalize(kb.gcis)
    ans, trace = oracle_entails(tbox, kb.abox, "Q16", "a", want_trace=True)
    assert ans and len(trace) == 66
    assert sum(isinstance(st.axiom, ExRight) for st in trace) == 17
    assert replay_derivation(tbox, kb.abox, trace, "Q16", "a")


def test_oracle_no_axioms_no_entailment():
    tbox = TBox([], extra_concepts=("A", "B"))
    abox = AboxGraph(concept_asserts=[("A", "a")])
    assert oracle_entails(tbox, abox, "B", "a") == (False, None)


def test_oracle_ex_falso():
    tbox = TBox([])
    abox = AboxGraph(concept_asserts=[(BOT, "b")], role_asserts=[(Role("r"), "a", "b")])
    ans, trace = oracle_entails(tbox, abox, "Z", "a", want_trace=True)
    assert ans and trace is None  # traces only for consistent KBs


def test_oracle_unknown_individual(tex):
    with pytest.raises(KbError, match="unknown individual"):
        oracle_entails(tex[0], tex[1], "A", "nobody")


@settings(max_examples=25)
@given(st.integers(0, 100_000))
def test_oracle_inconsistency_dominance(seed):
    rng = Random(seed)
    tbox = random_normal_tbox(rng, max_concepts=3, max_roles=2, max_gcis=6)
    abox = random_abox(rng, list(tbox.concept_names) or ["A"], list(tbox.role_names) or ["r"], 3)
    sat = saturate_abox(tbox, abox)
    if sat.inconsistent:
        for a in abox.individuals:
            for c in tbox.concept_names:
                assert oracle_entails(tbox, abox, c, a, sat=sat)[0]


@settings(max_examples=40)
@given(st.integers(0, 100_000))
def test_oracle_traces_replay(seed):
    rng = Random(seed)
    tbox = random_normal_tbox(rng, max_concepts=3, max_roles=2, max_gcis=7)
    abox = random_abox(rng, list(tbox.concept_names) or ["A"], list(tbox.role_names) or ["r"], 4)
    closer = TypeCloser(tbox)
    sat = saturate_abox(tbox, abox, closer)
    # the ABox pass and the per-node TypeCloser path reach the same labels
    assert sat.labels == saturate_per_node(tbox, abox)
    assert sat.inconsistent == any(m & 2 for m in sat.labels.values())
    if sat.inconsistent:
        assert sat.labels[sat.bot_at] & 2
        return
    for a in abox.individuals:
        for c in tbox.concept_names:
            ans, trace = oracle_entails(tbox, abox, c, a, want_trace=True, sat=sat, closer=closer)
            if ans:
                assert trace is not None
                assert replay_derivation(tbox, abox, trace, c, a)
                if trace:
                    adds = trace[-1].adds
                    assert ("concept", c, a) in adds


def test_trace_materializes_anonymous_successors(tex):
    tbox, abox, _ = tex
    _, trace = oracle_entails(tbox, abox, "D", "a", want_trace=True)
    spawns = [s for s in trace if isinstance(s.axiom, ExRight)]
    assert spawns, "the worked example needs an anonymous witness"
    assert replay_derivation(tbox, abox, trace, "D", "a")


def test_trace_through_seeded_anonymous_context():
    # the anonymous child both receives a seed from its parent and fires back
    tbox = TBox(
        [
            ExRight("A", Role("r"), "B"),
            ExLeft(Role("r", inverted=True), "A", "C"),  # child of an A-node gets C
            ConjSub("B", "C", "E"),
            ExLeft(Role("r"), "E", "G"),
        ]
    )
    abox = AboxGraph(concept_asserts=[("A", "a")])
    ans, trace = oracle_entails(tbox, abox, "G", "a", want_trace=True)
    assert ans
    assert replay_derivation(tbox, abox, trace, "G", "a")


def test_trace_when_successor_contexts_repeat():
    # every A-node spawns an A-child with the same seed, so the anonymous
    # contexts form a cycle; following the records must still end in a
    # finite derivation (grandchild feeds child feeds root)
    tbox = TBox(
        [
            ExRight("A", Role("r"), "A"),
            ExLeft(Role("r", inverted=True), "A", "P"),
            Sub("P", "Q2"),
            ExLeft(Role("r"), "Q2", "Q"),
            ExLeft(Role("r"), "Q", "G"),
        ]
    )
    abox = AboxGraph(concept_asserts=[("A", "a")])
    ans, trace = oracle_entails(tbox, abox, "G", "a", want_trace=True)
    assert ans
    assert replay_derivation(tbox, abox, trace, "G", "a")
    # the derivation must descend two anonymous levels
    spawns = [s for s in trace if isinstance(s.axiom, ExRight)]
    assert len(spawns) >= 2

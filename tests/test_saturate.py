"""The saturation oracle: type closure, ABox saturation, traces."""

from dataclasses import replace

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
    Gci,
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
    saturate_abox,
)
from strata import saturate
from strata.fuzz import SIZE_CLASSES
from strata.saturate import _fire

from conftest import diamond_kb_text
from oracles import (
    chase,
    closure_names,
    fire_scan,
    random_abox,
    random_normal_tbox,
    restrict,
    saturate_per_node,
    signature,
)

# every fuzz size class but the tall one, which would multiply the test time
FUZZ_CLASSES = pytest.mark.parametrize(
    "limits",
    [v for k, v in SIZE_CLASSES.items() if k != "tall"],
    ids=[k for k in SIZE_CLASSES if k != "tall"],
)


def test_type_closure_worked_example(tex):
    tbox, _, _ = tex
    got = closure_names(tbox, TypeCloser(tbox.rules, tbox.signature_mask), {"A"})
    # cross-check by a small chase on the singleton ABox
    labels, incon, capped = chase(tbox, AboxGraph(concept_asserts=[("A", "x")]), 3)
    assert not incon and not capped
    assert got == frozenset(labels["x"]) == frozenset({TOP, "A", "B", "C", "D"})


def test_type_closure_top_alone_stays_top(tex):
    tbox = tex[0]
    closer = TypeCloser(tbox.rules, tbox.signature_mask)
    assert closure_names(tbox, closer, {TOP}) == frozenset({TOP})


def test_type_closure_bot_floods_signature():
    tbox = TBox([Sub("A", BOT), Sub("B", "B")])
    got = closure_names(tbox, TypeCloser(tbox.rules, tbox.signature_mask), {"A"})
    assert got == frozenset({TOP, BOT, "A", "B"})


def test_a_root_reading_only_closed_successors_takes_one_kernel_call(monkeypatch):
    # B's context is closed before A's root reads it, so the root fires once,
    # with its successor types, and runs no worklist
    tbox = TBox([ExRight("A", Role("r"), "B"), ExLeft(Role("r"), "B", "C")])
    closer = TypeCloser(tbox.rules, tbox.signature_mask)
    closer.closure_mask(tbox.mask_of({"B"}))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return _fire(*args, **kwargs)

    monkeypatch.setattr(saturate, "_fire", counted)
    got = closer.closure_mask(tbox.mask_of({"A"}))
    assert len(calls) == 1
    assert tbox.names_of(got) == {TOP, "A", "C"}


@settings(max_examples=30)
@given(st.integers(0, 100_000))
def test_type_closure_monotone_extensive_idempotent(seed):
    rng = Random(seed)
    tbox = random_normal_tbox(rng, max_concepts=3, max_roles=2, max_gcis=6)
    names = list(tbox.concept_names)
    s = frozenset(rng.sample(names, rng.randint(0, len(names))))
    s2 = s | frozenset(rng.sample(names, rng.randint(0, len(names))))
    closer = TypeCloser(tbox.rules, tbox.signature_mask)
    c1, c2 = closure_names(tbox, closer, s), closure_names(tbox, closer, s2)
    assert s <= c1 and c1 <= c2
    assert closure_names(tbox, closer, c1) == c1


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
    low, high = (
        closure_names(tbox, TypeCloser(t.rules, signature(t)), s)
        for t in (restrict(tbox, res.height, n), restrict(tbox, res.height, n + 1))
    )
    assert low <= high


@settings(max_examples=200)
@given(st.integers(0, 1_000_000))
def test_fire_matches_the_scanning_kernel(seed):
    rng = Random(seed)
    tbox = random_normal_tbox(rng, max_concepts=5, max_roles=2, max_gcis=10)
    bits = [1 << b for b in sorted(tbox.bit_of.values())]  # Top and Bot included
    rules, flood = tbox.rules, tbox.signature_mask | 3

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
        assert _fire(rules, start, table, flood) == fire_scan(rules, start, table, flood)
        # a type closed except for the new bits
        new = some(0.3)
        cur = fire_scan(rules, start, table, flood) | new
        assert _fire(rules, cur, table, flood, _new=new) == fire_scan(rules, cur, table, flood)
    # closed under sub and conj, with successor types not yet read
    cur = fire_scan(rules, start, None, flood)
    assert _fire(rules, cur, child_of, flood, _new=0) == fire_scan(rules, cur, child_of, flood)


@FUZZ_CLASSES
@settings(max_examples=40)
@given(st.integers(0, 1_000_000))
def test_saturation_matches_the_per_node_path_and_its_traces_replay(limits, seed):
    tbox, abox, _ = random_stratified_kb(Random(seed), *limits)
    sat = saturate_abox(tbox, abox)
    assert sat.labels == saturate_per_node(tbox, abox)
    if sat.inconsistent:
        return
    for a in abox.individuals:
        for c in tbox.concept_names:
            ans, trace = sat.entails(c, a, want_trace=True)
            if ans:
                assert replay_derivation(tbox, abox, trace, c, a)


def holding(sat, ind):
    """The names of `sat`'s TBox signature, and Top, that it entails at
    `ind`: one ``entails`` call per name."""
    return {c for c in (TOP, *sat.tbox.concept_names) if sat.entails(c, ind)[0]}


def test_saturate_worked_example(tex):
    tbox, abox, _ = tex
    sat = saturate_abox(tbox, abox)
    assert not sat.inconsistent
    assert holding(sat, "a") == {TOP, "A", "B", "C", "D"}


def test_saturate_propagates_along_chain():
    tbox = TBox([ExLeft(Role("r"), "A", "A")])
    abox = AboxGraph(
        concept_asserts=[("A", "a3")],
        role_asserts=[(Role("r"), "a1", "a2"), (Role("r"), "a2", "a3")],
    )
    sat = saturate_abox(tbox, abox)
    assert all(holding(sat, x) == {TOP, "A"} for x in ("a1", "a2", "a3"))


def test_saturate_flags_asserted_bot():
    tbox = TBox([], extra_concepts=("Z",))
    abox = AboxGraph(concept_asserts=[(BOT, "b")], role_asserts=[(Role("r"), "a", "b")])
    sat = saturate_abox(tbox, abox)
    assert sat.inconsistent and sat.bot_at == "b"


def test_saturate_detects_anonymous_inconsistency():
    tbox = TBox([ExRight("A", Role("r"), "B"), Sub("B", BOT)])
    sat = saturate_abox(tbox, AboxGraph(concept_asserts=[("A", "a")]))
    assert sat.inconsistent


# -- saturation calls the kernel only where a rule body reads a new bit, or
# where Bot is to flood a label; the tests below are the edge cases of that


def _count_kernel_calls(monkeypatch) -> list:
    """The `cur` argument of every later ``_fire`` call, in call order."""
    calls = []

    def fire(rules, cur, *args, **kwargs):
        calls.append(cur)
        return _fire(rules, cur, *args, **kwargs)

    monkeypatch.setattr(saturate, "_fire", fire)
    return calls


def test_saturate_floods_an_asserted_bot_that_no_rule_reads():
    tbox = TBox([Sub("A", "B")])
    abox = AboxGraph(
        [("A", "a"), (BOT, "b"), (BOT, "c")], [(Role("r"), "a", "b")], individuals=["d"]
    )
    sat = saturate_abox(tbox, abox)
    assert sat.inconsistent and sat.bot_at == "b"
    assert sat.labels["b"] == sat.labels["c"] == sat.closer.flood_mask
    assert sat.labels == saturate_per_node(tbox, abox)


def test_saturate_fires_top_rules_at_bare_individuals():
    r = Role("r")
    tbox = TBox([Sub(TOP, "A"), ExRight(TOP, r, "B"), ExLeft(r, "B", "C")])
    for abox in (AboxGraph(individuals=["x"]), parse_kb("abox:\nTop(x)\n").abox):
        sat = saturate_abox(tbox, abox)
        assert holding(sat, "x") == {TOP, "A", "C"}
        assert sat.labels == saturate_per_node(tbox, abox)
        for c in ("A", "C"):
            ans, trace = sat.entails(c, "x", want_trace=True)
            assert ans and replay_derivation(tbox, abox, trace, c, "x")


def test_a_bit_pushed_across_an_edge_fires_a_sub_a_conj_and_a_spawn():
    r, s = Role("r"), Role("s")
    tbox = TBox(
        [
            ExLeft(r, "F", "P"),  # P at a, from F at its r-neighbour b
            Sub("P", "Q"),
            ConjSub("P", "K", "M"),
            ExRight("P", s, "G"),
            ExLeft(s, "G", "N"),
        ]
    )
    abox = AboxGraph([("F", "b"), ("K", "a")], [(r, "a", "b")])
    sat = saturate_abox(tbox, abox)
    assert holding(sat, "a") == {TOP, "K", "P", "Q", "M", "N"}
    kinds = {c: sat.justs["a"][1 << tbox.bit_of[c]][0] for c in "PQMN"}
    assert kinds == {"P": "edge", "Q": "sub", "M": "conj", "N": "anon"}
    assert sat.labels == saturate_per_node(tbox, abox)
    for c in "PQMN":
        ans, trace = sat.entails(c, "a", want_trace=True)
        assert ans and replay_derivation(tbox, abox, trace, c, "a")


def test_saturate_calls_the_kernel_only_where_a_body_reads_a_new_bit(monkeypatch):
    r = Role("r")
    inds = [f"a{i}" for i in range(6)]
    abox = AboxGraph([("B", "a5")], [(r, x, y) for x, y in zip(inds, inds[1:])], inds)
    calls = _count_kernel_calls(monkeypatch)
    # the one rule is an existential body: it fires by pushes, never in the kernel
    sat = saturate_abox(TBox([ExLeft(r, "B", "B")]), abox)
    assert calls == []
    assert all(holding(sat, a) == {TOP, "B"} for a in inds)
    # with B <= C, once per individual, when B arrives there
    tbox = TBox([ExLeft(r, "B", "B"), Sub("B", "C")])
    sat = saturate_abox(tbox, abox)
    assert len(calls) == len(inds)
    assert all(holding(sat, a) == {TOP, "B", "C"} for a in inds)


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
            assert holding(sat, a) == (labels[a] & sig) | {TOP}


def test_oracle_worked_example_with_trace(tex):
    tbox, abox, _ = tex
    ans, trace = oracle_entails(tbox, abox, "D", "a", want_trace=True)
    assert ans and trace
    assert replay_derivation(tbox, abox, trace, "D", "a")


_R = Role("r")
# One forged trace per raise site of `replay_derivation`: (step, its replaced
# fields, message).  Each edits one step of the worked example's trace of D(a):
# A <= B, A & B <= C, C <= exists r . Top (successor n1), exists r . Top <= D.
FORGED_TRACES = {
    "Top before its individual": (
        0,
        dict(axiom=Sub(TOP, "B"), adds=(("concept", "B", "n9"),)),
        r"Top\(n9\) used but n9 never introduced",
    ),
    "fact before it is derived": (
        1,
        dict(axiom=ConjSub("A", "D", "C")),
        r"step uses D\(a\) before it is derived",
    ),
    "sub that does not match": (0, dict(adds=(("concept", "C", "a"),)), "does not match its axiom"),
    "conj that does not match": (1, dict(adds=(("concept", "B", "a"),)), "does not match its axiom"),
    "exists-right that does not match": (
        2,
        dict(adds=(("role", Role("s"), "a", "n1"), ("concept", TOP, "n1"))),
        "does not match its axiom",
    ),
    "exists-left that does not match": (
        3,
        dict(adds=(("concept", "C", "a"),)),
        "does not match its axiom",
    ),
    "successor not fresh": (
        2,
        dict(adds=(("role", _R, "a", "a"), ("concept", TOP, "a"))),
        "successor a is not fresh",
    ),
    "no role edge": (3, dict(uses=(("concept", TOP, "n1"),)), "no role edge supports"),
    "unknown axiom": (0, dict(axiom=Gci("A", "B")), "unknown axiom in step"),
}


@pytest.mark.parametrize("case", list(FORGED_TRACES))
def test_replay_rejects_each_forged_step(tex, case):
    i, fields, message = FORGED_TRACES[case]
    tbox, abox, _ = tex
    trace = oracle_entails(tbox, abox, "D", "a", want_trace=True)[1]
    assert [type(st.axiom) for st in trace] == [Sub, ConjSub, ExRight, ExLeft]
    assert trace[2].adds[0] == ("role", _R, "a", "n1")
    forged = [*trace[:i], replace(trace[i], **fields), *trace[i + 1 :]]
    with pytest.raises(KbError, match=message):
        replay_derivation(tbox, abox, forged, "D", "a")


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
                assert sat.entails(c, a)[0]


@settings(max_examples=40)
@given(st.integers(0, 100_000))
def test_oracle_traces_replay(seed):
    rng = Random(seed)
    tbox = random_normal_tbox(rng, max_concepts=3, max_roles=2, max_gcis=7)
    abox = random_abox(rng, list(tbox.concept_names) or ["A"], list(tbox.role_names) or ["r"], 4)
    sat = saturate_abox(tbox, abox)
    # the ABox pass and the per-node TypeCloser path reach the same labels
    assert sat.labels == saturate_per_node(tbox, abox)
    assert sat.inconsistent == any(m & 2 for m in sat.labels.values())
    if sat.inconsistent:
        assert sat.labels[sat.bot_at] & 2
        return
    for a in abox.individuals:
        for c in tbox.concept_names:
            ans, trace = sat.entails(c, a, want_trace=True)
            if ans:
                assert trace is not None
                assert replay_derivation(tbox, abox, trace, c, a)
                if trace:
                    adds = trace[-1].adds
                    assert ("concept", c, a) in adds


def test_saturation_result_traces_through_its_own_closer():
    # the trace reads the anonymous successor's context from the closer the
    # saturation filled, not from one built afresh
    tbox = TBox([ExRight("A", Role("r"), "B"), ExLeft(Role("r"), "B", "C")])
    abox = AboxGraph(concept_asserts=[("A", "a")])
    sat = saturate_abox(tbox, abox)
    ans, trace = sat.entails("C", "a", want_trace=True)
    assert ans and len(trace) == 2
    assert replay_derivation(tbox, abox, trace, "C", "a")


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

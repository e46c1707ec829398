"""Order constraints, the stratification decision, user orders, restriction."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st
from random import Random

from strata import (
    BOT,
    TOP,
    And,
    LevelMap,
    ConjSub,
    ExLeft,
    ExRight,
    Exists,
    Gci,
    KbError,
    NotStratifiedError,
    Role,
    Sub,
    TBox,
    TypeCloser,
    check_stratification,
    heights_for,
    normalize,
    parse_kb,
    random_stratified_kb,
    saturate_abox,
    verify_preorder,
)
from strata.fuzz import SIZE_CLASSES
from strata.kb import BOT_BIT, axiom_names
from strata.stratify import _clauses, _sccs, axiom_level

from conftest import LOW_BOT_TEXT

from oracles import (
    level_closer,
    bruteforce_min_heights,
    bruteforce_stratified,
    closure_names,
    order_admits,
    random_dllite_tbox,
    random_normal_tbox,
    restrict,
    sccs_by_reachability,
    signature,
)

EX3_HEIGHTS = {"A": 0, "B": 1, "C": 2, "r": 2, "D": 3}


def _tprime():
    surface = (Gci(And(Exists(Role("r"), "A"), Exists(Role("s"), "A")), "A"),)
    return normalize(surface)[0]


def _forced(tbox):
    """The clause table of `tbox` as the solver reads it: the edges of its
    le and lt clauses, and its lt and one clauses in axiom order."""
    clauses = [c for ax in tbox.axioms for c in _clauses(ax)[0]]
    edges = frozenset((lo, hi) for kind, lo, hi in clauses if kind != "one")
    return edges, tuple(c for c in clauses if c[0] != "le")


def test_forced_constraints_worked_example(tex):
    edges, strict = _forced(tex[0])
    # the Top-filler premise pins the role below its consumer, hence r -> D
    assert edges == frozenset({("A", "B"), ("A", "C"), ("B", "C"), ("C", "r"), ("r", "D")})
    assert strict == (("one", ("A", "B"), "C"),)


def test_forced_constraints_separating_tbox():
    edges, strict = _forced(_tprime())
    assert edges == frozenset(
        {("r", "A"), ("s", "A"), ("A", "X1"), ("A", "X2"), ("X1", "A"), ("X2", "A")}
    )
    assert {(lo, hi) for kind, lo, hi in strict if kind == "lt"} == {("A", "X1"), ("A", "X2")}
    assert any(kind == "one" for kind, _, _ in strict)


def test_forced_constraints_empty_tbox():
    assert _forced(TBox([], extra_concepts=("A",))) == (frozenset(), ())


def test_forced_constraints_skip_bot_and_top():
    tbox = TBox(
        [Sub("A", BOT), ConjSub("A", "B", BOT), ExLeft(Role("r"), "A", BOT), Sub(TOP, "B")]
    )
    assert _forced(tbox) == (frozenset(), ())


def test_check_accepts_worked_example(tex):
    tbox, _, _ = tex
    res = check_stratification(tbox)
    assert res.accepted
    assert res.height == {"A": 0, "B": 0, "C": 1, "r": 1, "D": 1}
    assert not res.violations


def test_check_rejects_separating_tbox_with_cycle_report():
    res = check_stratification(_tprime())
    assert not res.accepted
    strict_violations = [v for v in res.violations if v.kind == "strict"]
    assert any("A strictly below X1" in str(v) for v in strict_violations)
    assert any("X1 <= A" in str(v) for v in strict_violations)
    # the least heights of the constraints that still hold: every strict
    # constraint sits inside the A/X1/X2 cycle, so nothing lifts a name
    assert res.height == {"A": 0, "X1": 0, "X2": 0, "r": 0, "s": 0}


def test_sccs_match_mutual_reachability_in_topological_order():
    rng = Random(7)
    for _ in range(3000):
        vertices = [f"v{i}" for i in range(rng.randint(1, 9))]
        succ = {}
        for _ in range(rng.randint(0, 2 * len(vertices))):  # self-loops, repeats
            succ.setdefault(rng.choice(vertices), []).append(rng.choice(vertices))
        rng.shuffle(vertices)
        scc_of, sccs = _sccs(vertices, succ)
        assert {frozenset(c) for c in sccs} == sccs_by_reachability(vertices, succ)
        assert all(scc_of[v] == i for i, comp in enumerate(sccs) for v in comp)
        assert all(scc_of[v] <= scc_of[w] for v, ws in succ.items() for w in ws)


def test_random_stratified_kb_checks_max_concepts():
    for bad in (0, 17):
        with pytest.raises(KbError, match="max_concepts must lie between 1 and 16"):
            random_stratified_kb(Random(0), max_concepts=bad)


def test_check_accepts_single_reachability_axiom():
    tbox = TBox([ExLeft(Role("r"), "A", "A")])
    res = check_stratification(tbox)
    assert res.accepted
    assert res.height == {"A": 0, "r": 0}


def test_check_heights_of_a_tall_tower():
    tbox = TBox([ExLeft(Role("r"), f"C{i}", f"C{i + 1}") for i in range(200)])
    res = check_stratification(tbox)
    assert res.accepted
    assert res.height == {"r": 0, **{f"C{i}": i for i in range(201)}}


def test_check_heights_pass_the_verifier_when_a_clause_touches_bot():
    # not a normal form: the filler Bot takes no part in the order, for the
    # checker and the verifier alike
    tbox = TBox([ExRight("A", Role("r"), BOT), ExLeft(Role("s"), "C", "A")])
    res = check_stratification(tbox)
    assert res.accepted
    assert verify_preorder(tbox, res.height) == []


@given(st.integers(0, 5000))
def test_check_accepts_all_dllite_core(seed):
    gcis = random_dllite_tbox(Random(seed))
    tbox, _ = normalize(gcis)
    assert check_stratification(tbox).accepted


@settings(max_examples=60)
@given(st.integers(0, 100_000))
def test_check_matches_bruteforce_preorder_search(seed):
    tbox = random_normal_tbox(Random(seed), max_concepts=3, max_roles=2, max_gcis=7)
    assert check_stratification(tbox).accepted == bruteforce_stratified(tbox)


@settings(max_examples=40)
@given(st.integers(0, 100_000))
def test_check_heights_are_pointwise_minimal(seed):
    tbox = random_normal_tbox(Random(seed), max_concepts=3, max_roles=1, max_gcis=6)
    res = check_stratification(tbox)
    best = bruteforce_min_heights(tbox)
    if res.accepted:
        assert best is not None
        assert res.height == best
    else:
        assert best is None


# -- verify_preorder -----------------------------------------------------------


def test_verify_accepts_paper_heights(tex):
    assert verify_preorder(tex[0], EX3_HEIGHTS) == []


def test_verify_rejects_all_zero_heights(tex):
    violations = verify_preorder(tex[0], {n: 0 for n in EX3_HEIGHTS})
    assert any("strictly below" in str(v) for v in violations)


def test_verify_reports_each_violated_clause_in_axiom_order():
    tbox = TBox(
        [
            Sub("A", "B"),
            ConjSub("A", "B", "C"),
            ExRight("C", Role("r"), "D"),
            ExLeft(Role("s", True), TOP, "A"),
            ExLeft(Role("q"), "D", "B"),
        ]
    )
    heights = {"A": 2, "B": 1, "C": 1, "D": 2, "r": 0, "s": 3, "q": 3}
    assert [str(v) for v in verify_preorder(tbox, heights)] == [
        "axiom 'A <= B': A must lie below B",
        "axiom 'A & B <= C': A must lie below C",
        "axiom 'A & B <= C': A or B must lie strictly below C",
        "axiom 'C <= exists r . D': D must lie below the role r",
        "axiom 'C <= exists r . D': C must lie below the role r",
        "axiom 'exists inv s . Top <= A': the role s must lie below A",
        "axiom 'exists q . D <= B': the role q must lie below D",
        "axiom 'exists q . D <= B': D must lie strictly below B",
    ]


def test_verify_minimal_heights_pointwise_below_paper_heights(tex):
    res = check_stratification(tex[0])
    assert all(res.height[n] <= EX3_HEIGHTS[n] for n in res.height)


def test_verify_errors_on_partial_or_negative_maps(tex):
    with pytest.raises(KbError, match="missing"):
        verify_preorder(tex[0], {"A": 0})
    with pytest.raises(KbError, match="negative"):
        verify_preorder(tex[0], {**EX3_HEIGHTS, "A": -1})
    with pytest.raises(KbError, match="fixed at 0"):
        verify_preorder(tex[0], {**EX3_HEIGHTS, TOP: 2})


@settings(max_examples=200)
@given(st.integers(0, 100_000))
def test_verify_matches_the_reference_on_arbitrary_maps(seed):
    rng = Random(seed)
    tbox = random_normal_tbox(rng, max_concepts=5, max_roles=2, max_gcis=8)
    names = set(tbox.concept_names) | set(tbox.role_names)
    heights = {n: rng.randint(0, 3) for n in names}
    assert (verify_preorder(tbox, heights) == []) == order_admits(tbox, heights)


@given(st.integers(0, 5000))
def test_verify_accepts_the_checkers_own_heights(seed):
    tbox, _, _ = random_stratified_kb(Random(seed))
    res = check_stratification(tbox)
    assert verify_preorder(tbox, res.height) == []


# -- completing a user order on the fresh names ---------------------------------


def _nested_gcis(rng):
    """One or two surface GCIs over A, B, C and r, s with nested & and
    exists, so that normalization adds fresh names."""
    names, roles = ["A", "B", "C"], ["r", "s"]

    def concept(depth):
        k = rng.random()
        if depth == 0 or k < 0.35:
            return rng.choice(names)
        if k < 0.65:
            return And(concept(depth - 1), concept(depth - 1))
        return Exists(Role(rng.choice(roles), rng.random() < 0.3), concept(depth - 1))

    return [Gci(concept(2), concept(2)) for _ in range(rng.randint(1, 2))]


def test_an_order_of_the_kbs_own_names_completes_to_its_least_admissible_map():
    rng = Random(2026)
    accepted = rejected = 0
    while accepted < 100 or rejected < 100:
        tbox, fresh = normalize(_nested_gcis(rng))
        if not 1 <= len(fresh) <= 3:
            continue
        fresh = sorted(fresh)
        own = sorted((set(tbox.concept_names) | set(tbox.role_names)) - set(fresh))
        order = {n: rng.randint(0, 2) for n in own}
        top = max(order.values(), default=0) + len(fresh)
        completions = []
        for values in itertools.product(range(top + 1), repeat=len(fresh)):
            h = {**order, **dict(zip(fresh, values))}
            if order_admits(tbox, h):
                completions.append(h)
        try:
            got, notes = heights_for(tbox, order, fresh)
        except NotStratifiedError:
            assert not completions
            rejected += 1
            continue
        assert got in completions and notes == ()
        assert all(got[n] <= h[n] for h in completions for n in fresh)
        accepted += 1


# -- restrict -------------------------------------------------------------------


def test_restrict_worked_example_levels(tex):
    tbox, _, heights = tex
    assert set(restrict(tbox, heights, 0).axioms) == {Sub("A", "B")}
    assert set(restrict(tbox, heights, 1).axioms) == set(tbox.axioms)
    assert restrict(tbox, EX3_HEIGHTS, 1).axioms == (Sub("A", "B"),)


def test_restrict_minus_one_is_empty(tex):
    tbox, _, heights = tex
    assert restrict(tbox, heights, -1).axioms == ()


def test_restrict_beyond_max_height_is_identity(tex):
    tbox, _, heights = tex
    assert restrict(tbox, heights, 99).axioms == tbox.axioms


@given(st.integers(0, 5000), st.integers(-1, 4))
def test_restrict_is_monotone(seed, n):
    tbox, _, _ = random_stratified_kb(Random(seed))
    h = check_stratification(tbox).height
    assert set(restrict(tbox, h, n).axioms) <= set(restrict(tbox, h, n + 1).axioms)


def test_restrict_shares_concept_bits(tex):
    tbox, _, heights = tex
    sub = restrict(tbox, heights, 0)
    assert sub.bit_of == tbox.bit_of


# -- level views and level closures ---------------------------------------------

FUZZ_CLASSES = pytest.mark.parametrize(
    "limits", list(SIZE_CLASSES.values()), ids=list(SIZE_CLASSES)
)


def _fuzz_level_map(rng, limits, drawn):
    """A fuzz KB and its ``LevelMap``, on the drawn height map (as odd fuzz
    cases use it, reaching level 8 in the tall class) or the minimal one."""
    tbox, abox, order = random_stratified_kb(rng, *limits)
    h = order if drawn else check_stratification(tbox).height
    return tbox, abox, LevelMap(tbox, h)


@FUZZ_CLASSES
@settings(max_examples=30)
@given(st.integers(0, 1_000_000), st.booleans())
def test_level_rules_equal_those_of_the_restricted_tbox(limits, seed, drawn):
    tbox, _, levels = _fuzz_level_map(Random(seed), limits, drawn)
    for n in range(-1, levels.max_level + 1):
        got, want = levels.rules_at(n), restrict(tbox, levels.heights, n)
        assert got == want.rules
        assert got.role_names == want.role_names
        con = levels.con_mask(n)  # just Top at level -1
        assert bool(con & BOT_BIT) == want.bot_occurs, n
        assert not signature(want) & ~con, n


@FUZZ_CLASSES
@settings(max_examples=30)
@given(st.integers(0, 1_000_000), st.booleans())
def test_level_tables_equal_masks_built_from_the_heights(limits, seed, drawn):
    tbox, _, levels = _fuzz_level_map(Random(seed), limits, drawn)
    height = {c: levels.heights.get(c, 0) for c in tbox.concept_names}
    top = max([levels.max_level, *height.values()])
    assert levels.rows == tuple(
        tbox.mask_of(c for c in height if height[c] == n) for n in range(top + 1)
    )
    # Bot from the lowest level whose axioms mention it, if any does
    bot_from = min(
        (axiom_level(ax, levels.heights) for ax in tbox.axioms if BOT in axiom_names(ax)[0]),
        default=None,
    )
    for n in range(-1, levels.max_level + 2):
        names = sorted((c for c in height if height[c] <= n), key=lambda c: (height[c], c))
        assert levels.concepts_at(n) == tuple(names), n
        bot = BOT_BIT if bot_from is not None and bot_from <= n else 0
        assert levels.con_mask(n) == tbox.mask_of([TOP, *names]) | bot, n
        below = tbox.mask_of(c for c in height if height[c] < n)
        assert levels.below_mask(n) == below, n
        assert levels.rules_at(n) is levels.closer_at(n).rules, n


@FUZZ_CLASSES
@settings(max_examples=30)
@given(st.integers(0, 1_000_000), st.booleans())
def test_level_closures_equal_those_of_the_restricted_tbox(limits, seed, drawn):
    rng = Random(seed)
    tbox, abox, levels = _fuzz_level_map(rng, limits, drawn)
    if rng.random() < 0.5:  # the shared closer filled first, as by the pre-check
        saturate_abox(tbox, abox, levels.closer)
    for n in range(levels.max_level + 1):
        want = level_closer(levels, n)
        con = levels.con_mask(n)
        bits = [1 << b for b in range(con.bit_length()) if con >> b & 1]
        for _ in range(8):
            premise = 1 | sum(b for b in bits if rng.random() < 0.3)
            got = levels.closer_at(n).closure_mask(premise)
            assert got == want.closure_mask(premise), (n, premise)


def test_a_level_root_that_floods_while_it_reads_a_bot_held_seed():
    # at level 0, A & D floods the root while A's r-successor B, whose
    # whole-TBox type holds Bot through the level-1 s-successor, is read;
    # the context that read makes must still close B under T|0 alone
    kb = parse_kb(
        "tbox:\nA <= exists r . B\nB <= exists s . F\nF <= Bot\nA & D <= Bot\n"
        "abox:\norder:\nA B D F r\ns\n"
    )
    tbox, _ = normalize(kb.gcis)
    levels = LevelMap(tbox, heights_for(tbox, kb.order)[0])
    want = level_closer(levels, 0)
    for names in ({"A", "D"}, {"A"}):
        premise = tbox.mask_of(names) | 1
        assert levels.closer_at(0).closure_mask(premise) == want.closure_mask(premise), names


def test_level_closure_stays_free_of_a_bot_only_a_higher_level_reaches():
    kb = parse_kb(LOW_BOT_TEXT)
    tbox, _ = normalize(kb.gcis)
    levels = LevelMap(tbox, heights_for(tbox, kb.order)[0])
    assert closure_names(tbox, levels.closer_at(0), {"A"}) == {"A", TOP}
    # over the whole TBox, A's r-successor B spawns F, and Bot floods
    assert tbox.bot_occurs
    whole = TypeCloser(tbox.rules, tbox.signature_mask)
    assert closure_names(tbox, whole, {"A"}) == {TOP, BOT, *tbox.concept_names}

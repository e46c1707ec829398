"""Acceptance criteria, one test per criterion, with stated budgets pinned.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one line per
criterion.  The differential corpus (criteria 5, 10, 11) is built once per
session.
"""

import time
from random import Random

import pytest

from strata import (
    AboxGraph,
    And,
    BOT,
    Exists,
    Evaluator,
    ExLeft,
    Gci,
    Role,
    TBox,
    check_stratification,
    entails_iq,
    kb_from_normal,
    normalize,
    parse_kb,
    qbf_to_kb,
    qbf_valid_bruteforce,
    random_qbf,
    run_fuzz,
    verify_preorder,
)

from conftest import TEX_TEXT
from oracles import bruteforce_stratified, random_dllite_tbox, random_normal_tbox

CORPUS_CASES = 1000
CORPUS_SEED = 42


def _line(num, text):
    print(f"\ncriterion {num:02d} PASS: {text}")


@pytest.fixture(scope="session")
def corpus():
    """Criteria 5/10/11 share one corpus run: three engines plus the weak
    variant on every query, witnesses validated and the oracle trace
    replayed for every true answer."""
    t0 = time.perf_counter()
    report = run_fuzz(CORPUS_CASES, CORPUS_SEED, jobs=2)
    return report, time.perf_counter() - t0


def test_criterion_01_worked_example_regression():
    t0 = time.perf_counter()
    kb = parse_kb(TEX_TEXT)
    abox = AboxGraph(
        kb.abox.concept_asserts(), kb.abox.role_asserts(), (*kb.abox.individuals, "b")
    )
    for concept, ind, want in (("D", "a", True), ("C", "a", True), ("D", "b", False)):
        for engine in ("collapsed", "naive", "oracle"):
            got = entails_iq(kb.gcis, abox, concept, ind, engine=engine).answer
            assert got == want, (concept, ind, engine)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _line(1, f"worked-example entailments agree across engines ({elapsed:.2f}s)")


def test_criterion_02_separating_tbox():
    t0 = time.perf_counter()
    reach = TBox([ExLeft(Role("r"), "A", "A")])
    assert check_stratification(reach).accepted
    tprime, _ = normalize(
        (Gci(And(Exists(Role("r"), "A"), Exists(Role("s"), "A")), "A"),)
    )
    res = check_stratification(tprime)
    assert not res.accepted
    reported = " ".join(str(v) for v in res.violations)
    assert "A strictly below X1" in reported and "X1 <= A" in reported
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _line(2, f"reachability accepted, two-premise conjunction rejected ({elapsed:.2f}s)")


def test_criterion_03_rpq_equivalence():
    tbox = TBox([ExLeft(Role("r"), "A", "A")])
    heights = check_stratification(tbox).height
    r = Role("r")
    for trial in range(200):
        rng = Random(trial)
        n = rng.randint(1, 200)
        nodes = [f"v{i}" for i in range(n)]
        edges = [(r, rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(0, 3 * n))]
        labeled = {v for v in nodes if rng.random() < 0.15}
        abox = AboxGraph([("A", v) for v in labeled], edges, nodes)
        start = rng.choice(nodes)
        got = Evaluator(tbox, abox, heights).collapsed("A", start)
        seen, frontier, want = {start}, [start], False
        while frontier and not want:
            nxt = []
            for v in frontier:
                if v in labeled:
                    want = True
                    break
                for w in abox.neighbors(v, r):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            else:
                frontier = nxt
                continue
            break
        assert got == want, (trial, start)
    chain = AboxGraph(
        [("A", "c10000")],
        [(r, f"c{i}", f"c{i+1}") for i in range(10000)],
    )
    t0 = time.perf_counter()
    assert Evaluator(tbox, chain, heights).collapsed("A", "c0")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _line(3, f"200 graphs match reachability; 10k chain in {elapsed:.2f}s")


def test_criterion_04_dllite_always_stratified():
    for seed in range(200):
        gcis = random_dllite_tbox(Random(seed))
        tbox, _ = normalize(gcis)
        assert check_stratification(tbox).accepted, seed
    _line(4, "200 random core DL-Lite TBoxes all accepted")


def test_criterion_05_three_engine_differential(corpus):
    report, elapsed = corpus
    engine_mismatch = [
        f
        for f in report.failures
        if len({f.answers.get(k) for k in ("collapsed", "naive", "oracle")}) > 1
        or "witness" in f.answers
        or "checker" in f.answers
    ]
    assert report.cases == CORPUS_CASES
    assert not engine_mismatch, engine_mismatch[:1]
    assert elapsed < 300.0
    _line(5, f"{report.cases} KBs, {report.queries} queries, zero disagreements ({elapsed:.1f}s)")


def test_criterion_06_stratification_bruteforce():
    t0 = time.perf_counter()
    agreements = 0
    for seed in range(500):
        tbox = random_normal_tbox(Random(seed), max_concepts=3, max_roles=2, max_gcis=8)
        assert len(tbox.concept_names) + len(tbox.role_names) <= 5
        got = check_stratification(tbox).accepted
        want = bruteforce_stratified(tbox)
        assert got == want, seed
        agreements += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _line(6, f"{agreements} TBoxes: checker == exhaustive order search ({elapsed:.1f}s)")


def test_criterion_07_qbf_reduction():
    t0 = time.perf_counter()
    for i in range(100):
        rng = Random(1000 + i)
        formula = random_qbf(1000 + i, rng.randint(1, 3), rng.randint(1, 3))
        gen = qbf_to_kb(formula)
        assert verify_preorder(gen.tbox, gen.heights) == [], str(formula)
        got = entails_iq(kb_from_normal(gen.tbox, gen.abox).gcis, gen.abox, *gen.query).answer
        assert got == qbf_valid_bruteforce(formula), str(formula)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _line(7, f"100 QBF reductions match brute force, orders verified ({elapsed:.1f}s)")


def test_criterion_08_paper_order_verification():
    kb = parse_kb(TEX_TEXT)
    tbox, _ = normalize(kb.gcis)
    paper = {"A": 0, "B": 1, "C": 2, "r": 2, "D": 3}
    assert verify_preorder(tbox, paper) == []
    minimal = check_stratification(tbox).height
    assert all(minimal[n] <= paper[n] for n in minimal)
    _line(8, f"published height table verified; minimal {minimal} pointwise below it")


def test_criterion_09_inconsistency_semantics():
    kb = parse_kb("tbox:\nA <= A\nabox:\nBot(b)\nr(a, b)\n")
    queries = [("A", "a"), ("A", "b"), ("Z", "a"), ("Z", "b"), (BOT, "a")]
    # the automaton check agrees with the oracle pre-check, although the TBox
    # never mentions Bot and its automata have no Bot test to read it with
    for concept, ind in queries:
        for engine in ("collapsed", "naive", "oracle"):
            for check in ("oracle", "automaton"):
                res = entails_iq(
                    kb.gcis, kb.abox, concept, ind, engine=engine, consistency=check
                )
                assert res.answer and res.inconsistent, (concept, ind, engine, check)
    _line(9, "both consistency checks answer true everywhere")


def test_criterion_10_weak_irrelevance(corpus):
    report, _ = corpus
    weak_mismatch = [
        f
        for f in report.failures
        if "naive_weak" in f.answers and f.answers["naive_weak"] != f.answers.get("naive")
    ]
    assert not weak_mismatch, weak_mismatch[:1]
    assert report.queries > 10_000
    _line(10, f"premise weakening changed no answer over {report.queries} queries")


def test_criterion_11_witness_validity(corpus):
    report, _ = corpus
    invalid = [f for f in report.failures if "witness" in f.answers or "trace" in f.answers]
    assert not invalid, invalid[:1]
    # two engine witnesses and one oracle trace per true answer
    assert report.witnesses_checked > 3000
    _line(
        11,
        f"{report.witnesses_checked} run witnesses and oracle traces replay under the run conditions",
    )

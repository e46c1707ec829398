"""Data-scale shapes: every answer of the collapsed engine against saturation
and a closed form, a tower deeper than the recursion limit, and the pinned
node counts of answering every query of four shapes."""

import sys
from random import Random

import pytest

from strata import AboxGraph, ConjSub, Evaluator, ExLeft, Role, Sub, TBox, heights_for

R = Role("r")
S = Role("s")


def _chain_edges(n):
    return [(R, f"a{i}", f"a{i + 1}") for i in range(n - 1)]


def _chain_kb(rng, n):
    """An r chain a0 -> a1 -> ... with B flowing backwards from A and D
    forwards; returns the KB and the closed form of every answer."""
    tbox = TBox([ExLeft(R, "B", "B"), ExLeft(R.invert(), "D", "D"), Sub("A", "B")])
    a_at = set(rng.sample(range(n), n // 20))
    d_at = set(rng.sample(range(n), n // 20))
    asserts = [("A", f"a{i}") for i in a_at] + [("D", f"a{i}") for i in d_at]
    abox = AboxGraph(asserts, _chain_edges(n), [f"a{i}" for i in range(n)])
    want = {}
    for i in range(n):
        want["A", f"a{i}"] = i in a_at
        want["B", f"a{i}"] = any(j >= i for j in a_at)  # some A at or after a_i
        want["D", f"a{i}"] = any(j <= i for j in d_at)  # some D at or before a_i
    return tbox, abox, want


def _tower_kb(rng, n, levels):
    """The tower exists r . C_k <= C_{k+1} over an r chain: with one r
    successor each, C_k(a_j) holds iff C0 is asserted at a_{j+k}."""
    tbox = TBox([ExLeft(R, f"C{k}", f"C{k + 1}") for k in range(levels)])
    c0 = {i for i in range(n) if rng.random() < 0.5}
    abox = AboxGraph([("C0", f"a{i}") for i in c0], _chain_edges(n), [f"a{i}" for i in range(n)])
    want = {
        (f"C{k}", f"a{j}"): j + k in c0 for k in range(levels + 1) for j in range(n)
    }
    return tbox, abox, want


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", ["chain", "tower"])
def test_collapsed_matches_saturation_and_the_closed_form(shape, seed):
    rng = Random(seed)
    if shape == "chain":
        tbox, abox, want = _chain_kb(rng, 400)
    else:
        tbox, abox, want = _tower_kb(rng, 60, 20)
    ev = Evaluator(tbox, abox, heights_for(tbox)[0])
    labels = ev.saturation().labels
    pairs = sorted(want)
    # a shuffled order mixes first answers (searches) and later ones, which
    # read labels stored by earlier searches
    rng.shuffle(pairs)
    for c, x in pairs:
        saturated = bool(labels[x] >> tbox.bit_of[c] & 1)
        assert ev.collapsed(c, x) == saturated == want[c, x], (c, x)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_a_tower_deeper_than_the_recursion_limit():
    """Labels and level masks grow upward by loops, not by a recursion over
    levels: 250 levels run under a limit 100 frames above this test's own."""
    levels = 250
    tbox = TBox([ExLeft(R, f"C{k}", f"C{k + 1}") for k in range(levels)])
    # a has an r loop, so C_k holds at a for every k; b and c hold none
    edges = [(R, "a", "a"), (R, "a", "b"), (R, "b", "c")]
    abox = AboxGraph([("C0", "a")], edges, ["a", "b", "c"])
    heights = heights_for(tbox)[0]
    top = f"C{levels}"
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        answers = [Evaluator(tbox, abox, heights).collapsed(top, x) for x in "abc"]
        inconsistent = Evaluator(tbox, abox, heights).automaton_inconsistent()
        levels_map = Evaluator(tbox, abox, heights).levels
        con = levels_map.con_mask(levels_map.height(top))
    finally:
        sys.setrecursionlimit(old)
    assert answers == [True, False, False]
    assert not inconsistent
    assert con == tbox.mask_of(["Top", *tbox.concept_names])


def test_the_100_level_tower_reads_lower_levels_through_the_labels():
    """The top query of the 100-level tower (2n+1 individuals, C0 at every
    even one) from a0 visits (n+1)^2 nodes: a level's search settles a goal
    below it by the label and does not walk down the lower levels again."""
    n = 100
    tbox = TBox([ExLeft(R, f"C{k}", f"C{k + 1}") for k in range(n)])
    inds = [f"a{i}" for i in range(2 * n + 1)]
    abox = AboxGraph([("C0", a) for a in inds[::2]], _chain_edges(2 * n + 1), inds)
    ev = Evaluator(tbox, abox, heights_for(tbox)[0])
    top = f"C{n}"
    assert ev.collapsed(top, "a0") is True
    assert ev.saturation().labels["a0"] >> tbox.bit_of[top] & 1
    assert ev.collapsed_visited == (n + 1) ** 2


def _graph_kb(rng, n):
    """A random graph with cycles: 2n edges over r and s, B flowing back
    over r from A, D forward over s, and E where both meet."""
    tbox = TBox(
        [ExLeft(R, "B", "B"), ExLeft(S.invert(), "D", "D"), Sub("A", "B"), ConjSub("B", "D", "E")]
    )
    inds = [f"a{i}" for i in range(n)]
    edges = [(rng.choice((R, S)), rng.choice(inds), rng.choice(inds)) for _ in range(2 * n)]
    asserts = [(c, x) for x in rng.sample(inds, n // 10) for c in "AD"]
    return tbox, AboxGraph(asserts, edges, inds)


def _tree_kb(rng, n):
    """A binary r tree a1 -> a2, a3, ... with B flowing up from A and D
    flowing down."""
    tbox = TBox([ExLeft(R, "B", "B"), ExLeft(R.invert(), "D", "D"), Sub("A", "B")])
    inds = [f"a{i}" for i in range(1, n + 1)]
    edges = [(R, f"a{i // 2}", f"a{i}") for i in range(2, n + 1)]
    asserts = [("A", x) for x in rng.sample(inds, n // 20)]
    asserts += [("D", x) for x in rng.sample(inds, n // 20)]
    return tbox, AboxGraph(asserts, edges, inds)


# the shapes of the node-count pins, each from (rng, ABox size) to a TBox
# and an ABox
FAMILIES = {
    "chain": lambda rng, n: _chain_kb(rng, n)[:2],
    "graph": _graph_kb,
    "tree": _tree_kb,
    "tower": lambda rng, n: _tower_kb(rng, n, 20)[:2],
}
# per family and ABox size, the nodes the collapsed engine visits to answer
# every (concept, individual) pair on one evaluator in a seeded order; a
# change to any of them is a re-pin
ALL_PAIRS_VISITED = {
    ("chain", 100): 4595,
    ("chain", 200): 13679,
    ("graph", 100): 3596,
    ("graph", 200): 6686,
    ("tree", 127): 1807,
    ("tree", 255): 4151,
    ("tower", 30): 2361,
    ("tower", 60): 4761,
}


@pytest.mark.parametrize("family, n", list(ALL_PAIRS_VISITED))
def test_all_pairs_node_counts_are_pinned(family, n):
    rng = Random(n)
    tbox, abox = FAMILIES[family](rng, n)
    ev = Evaluator(tbox, abox, heights_for(tbox)[0])
    labels = ev.saturation().labels
    pairs = [(c, x) for c in tbox.concept_names for x in abox.individuals]
    rng.shuffle(pairs)
    for c, x in pairs:
        assert ev.collapsed(c, x) == bool(labels[x] >> tbox.bit_of[c] & 1), (c, x)
    assert ev.collapsed_visited == ALL_PAIRS_VISITED[family, n]

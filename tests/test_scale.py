"""Data-scale shapes: every answer of the collapsed engine against saturation
and a closed form, and a tower deeper than the recursion limit."""

import sys
from random import Random

import pytest

from strata import AboxGraph, Evaluator, ExLeft, Role, Sub, TBox, heights_for

R = Role("r")


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

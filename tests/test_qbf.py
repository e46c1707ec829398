"""The QBF benchmark generator and its brute-force cross-check."""

import pytest
from hypothesis import given, settings, strategies as st

from strata import (
    KbError,
    Qbf3Dnf,
    check_stratification,
    entails_iq,
    kb_from_normal,
    qbf_to_kb,
    qbf_valid_bruteforce,
    random_qbf,
    validate_normal_form,
    verify_preorder,
)


def _exists_x1():
    return Qbf3Dnf(("e",), (((1, True), (1, True), (1, True)),))


def _forall_x1():
    return Qbf3Dnf(("a",), (((1, True), (1, True), (1, True)),))


def _forall_exists():
    return Qbf3Dnf(
        ("a", "e"),
        (((1, True), (2, True), (2, True)), ((1, False), (2, False), (2, False))),
    )


def test_bruteforce_validity_on_fixed_formulas():
    assert qbf_valid_bruteforce(_exists_x1())
    assert not qbf_valid_bruteforce(_forall_x1())
    assert qbf_valid_bruteforce(_forall_exists())


def test_bruteforce_guards_variable_count():
    with pytest.raises(KbError, match="capped"):
        qbf_valid_bruteforce(Qbf3Dnf(("e",) * 21, (((1, True), (1, True), (1, True)),)))


def test_formula_wellformedness_checks():
    with pytest.raises(KbError):
        Qbf3Dnf((), (((1, True), (1, True), (1, True)),))
    with pytest.raises(KbError):
        Qbf3Dnf(("e",), ())
    with pytest.raises(KbError):
        Qbf3Dnf(("e",), (((2, True), (1, True), (1, True)),))
    with pytest.raises(KbError):
        Qbf3Dnf(("x",), (((1, True), (1, True), (1, True)),))
    with pytest.raises(KbError, match="exactly three literals"):
        Qbf3Dnf(("e",), (((1, True), (1, True)),))


def test_formula_prints_its_prefix_and_matrix():
    assert str(_forall_exists()) == "Ax1.Ex2. (x1&x2&x2 | ~x1&~x2&~x2)"


def test_random_qbf_is_deterministic():
    a = random_qbf(1, 2, 2)
    b = random_qbf(1, 2, 2)
    assert a == b
    assert random_qbf(2, 2, 2) != a or random_qbf(3, 2, 2) != a


def test_generated_kb_shape_for_single_exists():
    gen = qbf_to_kb(_exists_x1())
    sizes = {k: len(v) for k, v in gen.families.items()}
    n, m = 1, 1
    assert sizes[1] == 2 * n
    assert sizes[2] == 2 * n
    assert sizes[3] == 4 * n  # one look-up axiom per direction and polarity
    assert sizes[4] + sizes[5] == m
    assert sizes[6] + sizes[7] == m
    assert sizes[8] + sizes[9] == m
    assert sizes[10] == 2 * n
    assert sizes[11] == 2  # the single quantifier is existential
    assert sizes[12] == 0
    assert gen.abox.individuals == ("a",)
    assert gen.query == ("C0_T", "a")


def test_generated_kb_passes_all_static_checks():
    for formula in (_exists_x1(), _forall_x1(), _forall_exists()):
        gen = qbf_to_kb(formula)
        assert validate_normal_form(gen.tbox) == []
        assert check_stratification(gen.tbox).accepted
        assert verify_preorder(gen.tbox, gen.heights) == []


def test_reduction_on_fixed_formulas():
    for formula, want in ((_exists_x1(), True), (_forall_x1(), False), (_forall_exists(), True)):
        gen = qbf_to_kb(formula)
        got = entails_iq(kb_from_normal(gen.tbox, gen.abox).gcis, gen.abox, *gen.query).answer
        assert got == want, str(formula)


@settings(max_examples=40)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 3))
def test_reduction_matches_bruteforce(seed, n, m):
    formula = random_qbf(seed, n, m)
    gen = qbf_to_kb(formula)
    assert verify_preorder(gen.tbox, gen.heights) == []
    got = entails_iq(kb_from_normal(gen.tbox, gen.abox).gcis, gen.abox, *gen.query).answer
    assert got == qbf_valid_bruteforce(formula), str(formula)


def test_kb_text_is_self_contained():
    from strata import parse_kb

    gen = qbf_to_kb(_forall_exists())
    kb = parse_kb(gen.kb_text())
    assert kb.order == gen.heights
    got = entails_iq(kb.gcis, kb.abox, gen.query[0], gen.query[1], order=kb.order)
    assert got.answer == qbf_valid_bruteforce(_forall_exists())

"""The command-line surface: exit codes, stable output, file handling."""

import hashlib
import time

import pytest

from strata.cli import main

from conftest import FRESH_QUERY_TEXT, LOW_BOT_TEXT, TEX_TEXT, diamond_kb_text

TPRIME_TEXT = """\
tbox:
exists r . A & exists s . A <= A
abox:
A(a)
"""


@pytest.fixture
def tex_file(tmp_path):
    p = tmp_path / "texample.kb"
    p.write_text(TEX_TEXT, encoding="utf-8")
    return str(p)


@pytest.fixture
def tprime_file(tmp_path):
    p = tmp_path / "tprime.kb"
    p.write_text(TPRIME_TEXT, encoding="utf-8")
    return str(p)


def test_check_accepts_with_height_table(tex_file, capsys):
    assert main(["check", tex_file]) == 0
    out = capsys.readouterr().out
    assert "result: ACCEPTED" in out
    assert "height: A 0" in out and "height: D 1" in out


def test_check_rejects_with_violations(tprime_file, capsys):
    assert main(["check", tprime_file]) == 1
    assert capsys.readouterr().out == (
        "fresh: X1\n"
        "fresh: X2\n"
        "result: REJECTED\n"
        "violation: axiom 'exists r . A <= X1' needs A strictly below X1, but the "
        "axioms force the cycle A <= X1 <= A\n"
        "violation: axiom 'exists s . A <= X2' needs A strictly below X2, but the "
        "axioms force the cycle A <= X2 <= A\n"
        "violation: axiom 'X1 & X2 <= A' needs X1 or X2 strictly below A, but both "
        "are forced into its cycle\n"
    )


def test_check_verifies_order_section(tmp_path, capsys):
    p = tmp_path / "ordered.kb"
    p.write_text(TEX_TEXT + "order:\nA\nB\nC r\nD\n", encoding="utf-8")
    assert main(["check", str(p)]) == 0
    out = capsys.readouterr().out
    assert "order: order-section" in out
    assert "height: r 2" in out


def test_ask_exit_codes(tex_file, capsys):
    assert main(["ask", tex_file, "--query", "D(a)"]) == 0
    assert "answer: true" in capsys.readouterr().out
    assert main(["ask", tex_file, "--query", "D(zz)"]) == 2
    assert main(["ask", tex_file, "--query", "notaquery"]) == 2


def test_ask_false_answer(tmp_path, capsys):
    p = tmp_path / "kb.kb"
    p.write_text("tbox:\nA <= B\nabox:\nB(a)\n", encoding="utf-8")
    assert main(["ask", str(p), "--query", "A(a)"]) == 1
    assert "answer: false" in capsys.readouterr().out


def test_ask_keeps_a_low_level_free_of_a_higher_level_bot(tmp_path, capsys):
    p = tmp_path / "lowbot.kb"
    p.write_text(LOW_BOT_TEXT, encoding="utf-8")
    assert main(["ask", str(p), "--query", "F(a)", "--consistency", "none"]) == 1
    assert "answer: false" in capsys.readouterr().out.splitlines()


def test_ask_engines_and_witness(tex_file, capsys):
    for engine in ("collapsed", "naive", "oracle"):
        assert main(["ask", tex_file, "--query", "D(a)", "--engine", engine]) == 0
    assert main(["ask", tex_file, "--query", "D(a)", "--engine", "naive", "--witness"]) == 0
    out = capsys.readouterr().out
    assert "witness:" in out


def test_ask_output_is_deterministic(tex_file, capsys):
    main(["ask", tex_file, "--query", "D(a)", "--witness"])
    first = capsys.readouterr().out
    main(["ask", tex_file, "--query", "D(a)", "--witness"])
    assert capsys.readouterr().out == first
    assert "elapsed" not in first  # timings are gated
    main(["--timings", "ask", tex_file, "--query", "D(a)"])
    assert "elapsed-s:" in capsys.readouterr().out


def test_ask_unstratifiable_reports_rejection(tprime_file, capsys):
    assert main(["ask", tprime_file, "--query", "A(a)"]) == 1
    assert "result: REJECTED" in capsys.readouterr().out
    # the query is checked before the KB is compiled
    assert main(["ask", tprime_file, "--query", "A(zz)"]) == 2
    assert capsys.readouterr().err == "error: unknown individual 'zz'\n"


ROLES_TEXT = """\
tbox:
A <= exists r . B
abox:
A(a)
s(a, b)
"""


@pytest.mark.parametrize("role", ["r", "s"], ids=["tbox-role", "abox-role"])
@pytest.mark.parametrize("engine", ["collapsed", "naive", "oracle"])
def test_ask_on_a_role_name_is_a_usage_error(tmp_path, capsys, engine, role):
    p = tmp_path / "roles.kb"
    p.write_text(ROLES_TEXT, encoding="utf-8")
    assert main(["ask", str(p), "--query", f"{role}(a)", "--engine", engine]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {role} is a role name, not a concept\n"
    assert captured.out == ""
    assert main(["ask", str(p), "--query", "A(a)", "--engine", engine]) == 0


@pytest.mark.parametrize("role", ["r", "s"], ids=["tbox-role", "abox-role"])
def test_oracle_on_a_role_name_is_a_usage_error(tmp_path, capsys, role):
    p = tmp_path / "roles.kb"
    p.write_text(ROLES_TEXT, encoding="utf-8")
    assert main(["oracle", str(p), "--ask", f"{role}(a)"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {role} is a role name, not a concept\n"
    assert captured.out == ""
    assert main(["oracle", str(p), "--ask", "B(a)"]) == 1


def test_oracle_trace(tex_file, capsys):
    assert main(["oracle", tex_file, "--ask", "D(a)", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "steps: 4" in out
    assert "step 1: apply 'A <= B' at a" in out


def test_oracle_trace_of_a_false_answer(tmp_path, capsys):
    p = tmp_path / "kb.kb"
    p.write_text("tbox:\nA <= B\nabox:\nA(a)\n", encoding="utf-8")
    assert main(["oracle", str(p), "--ask", "Zed(a)", "--trace"]) == 1
    assert capsys.readouterr().out == "answer: false\n"
    p.write_text("tbox:\nA <= Bot\nabox:\nA(a)\n", encoding="utf-8")
    assert main(["oracle", str(p), "--ask", "Zed(a)", "--trace"]) == 0
    assert capsys.readouterr().out == (
        "answer: true\ntrace: unavailable (inconsistent KB entails everything)\n"
    )


# KBs that already use the normalizer's first fresh name X1 for B & D: as an
# ABox concept, which must not feed the fresh name's rules, and as a role
COLLIDING_KBS = {
    "abox-concept": (
        "tbox:\nexists r . (B & D) <= C\nabox:\nr(a, b)\nX1(b)\n",
        False,
        "heights: B=0 D=0 r=0 X2=1 C=2",
    ),
    "role": (
        "tbox:\nexists X1 . (B & D) <= C\nabox:\nX1(a, b)\nB(b)\nD(b)\n",
        True,
        "heights: B=0 D=0 X1=0 X2=1 C=2",
    ),
}
COLLIDING_TRACE = (
    "answer: true\n"
    "steps: 2\n"
    "step 1: apply 'B & D <= X2' at b: add X2(b) using B(b), D(b)\n"
    "step 2: apply 'exists X1 . X2 <= C' at a: add C(a) using X1(a, b), X2(b)\n"
)


@pytest.mark.parametrize("engine", ["collapsed", "naive", "oracle"])
@pytest.mark.parametrize("name", sorted(COLLIDING_KBS))
def test_fresh_names_avoid_every_kb_name(tmp_path, capsys, name, engine):
    text, want, heights = COLLIDING_KBS[name]
    p = tmp_path / "colliding.kb"
    p.write_text(text, encoding="utf-8")
    argv = ["ask", str(p), "--query", "C(a)", "--engine", engine, "--witness"]
    assert main(argv) == (0 if want else 1)
    out = capsys.readouterr().out.splitlines()
    assert f"answer: {str(want).lower()}" in out and heights in out
    assert main(["check", str(p)]) == 0
    assert capsys.readouterr().out.startswith("fresh: X2\nresult: ACCEPTED\n")


@pytest.mark.parametrize("name", sorted(COLLIDING_KBS))
def test_oracle_trace_avoids_every_kb_name(tmp_path, capsys, name):
    text, want, _ = COLLIDING_KBS[name]
    p = tmp_path / "colliding.kb"
    p.write_text(text, encoding="utf-8")
    assert main(["oracle", str(p), "--ask", "C(a)", "--trace"]) == (0 if want else 1)
    assert capsys.readouterr().out == (COLLIDING_TRACE if want else "answer: false\n")


@pytest.fixture
def fresh_query_file(tmp_path):
    p = tmp_path / "fresh.kb"
    p.write_text(FRESH_QUERY_TEXT, encoding="utf-8")
    return str(p)


@pytest.mark.parametrize("engine", ["collapsed", "naive", "oracle"])
def test_ask_on_the_normalizers_name_answers_false(fresh_query_file, capsys, engine):
    argv = ["ask", fresh_query_file, "--engine", engine]
    assert main([*argv, "--query", "X1(b)"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "answer: false" in out and "heights: B=0 D=0 r=0 X2=1 C=2" in out
    assert main([*argv, "--query", "C(a)"]) == 0
    assert "heights: B=0 D=0 r=0 X1=1 C=2" in capsys.readouterr().out.splitlines()


def test_oracle_on_the_normalizers_name_answers_false(fresh_query_file, capsys):
    assert main(["oracle", fresh_query_file, "--ask", "X1(b)", "--trace"]) == 1
    assert capsys.readouterr().out == "answer: false\n"


def test_rewrite_of_the_normalizers_name_is_that_of_a_name_outside(fresh_query_file, capsys):
    assert main(["rewrite", fresh_query_file, "--for", "X1"]) == 0
    fresh = capsys.readouterr().out
    assert main(["rewrite", fresh_query_file, "--for", "Zed"]) == 0
    assert fresh == capsys.readouterr().out.replace("Zed", "X1")


def test_rewrite_of_an_ordered_name_above_every_axiom(tmp_path, capsys):
    # Z occurs in no axiom, so the automaton's level lies above the TBox's top
    p = tmp_path / "above.kb"
    p.write_text("tbox:\nA <= B\nabox:\nZ(a)\norder:\nA B\nZ\n", encoding="utf-8")
    assert main(["rewrite", str(p), "--for", "Z"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["automaton: Z", "level: 1", "alphabet: A? B? Top? Z? aut[A]? aut[B]?"]


# the normalizer names B & C X1, and an order may leave X1 out: it gets the
# least height the clauses allow at or above the order's heights
OWN_ORDER_TEXT = "tbox:\nA <= exists r . (B & C)\nabox:\nA(a)\norder:\n"


def _own_order_file(tmp_path, order):
    p = tmp_path / "own-order.kb"
    p.write_text(OWN_ORDER_TEXT + order, encoding="utf-8")
    return str(p)


def test_check_completes_an_order_of_the_kbs_own_names(tmp_path, capsys):
    assert main(["check", _own_order_file(tmp_path, "A B C r\n")]) == 0
    assert capsys.readouterr().out == (
        "fresh: X1\n"
        "result: ACCEPTED\n"
        "order: order-section\n"
        "height: A 0\n"
        "height: B 0\n"
        "height: C 0\n"
        "height: X1 0\n"
        "height: r 0\n"
    )


@pytest.mark.parametrize("query", ["A(a)", "B(a)"])
@pytest.mark.parametrize("engine", ["collapsed", "naive", "oracle"])
def test_ask_on_an_order_of_the_kbs_own_names(tmp_path, capsys, engine, query):
    p = _own_order_file(tmp_path, "A B C r\n")
    want = main(["oracle", p, "--ask", query])
    capsys.readouterr()
    assert main(["ask", p, "--query", query, "--engine", engine]) == want
    assert "heights: A=0 B=0 C=0 X1=0 r=0" in capsys.readouterr().out.splitlines()


def test_an_order_that_leaves_out_a_kb_name_is_a_usage_error(tmp_path, capsys):
    p = _own_order_file(tmp_path, "A B\nr\n")
    for argv in (["check", p], ["ask", p, "--query", "A(a)"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: height map is missing ['C']\n"


def test_an_order_that_lists_the_fresh_name_keeps_its_heights(tmp_path, capsys):
    assert main(["check", _own_order_file(tmp_path, "A X1\nB C r\n")]) == 0
    assert capsys.readouterr().out == (
        "fresh: X1\n"
        "result: ACCEPTED\n"
        "order: order-section\n"
        "height: A 0\n"
        "height: X1 0\n"
        "height: B 1\n"
        "height: C 1\n"
        "height: r 1\n"
    )


@pytest.mark.parametrize("order", ["A B C\nr X1\n", "B C\nA r\n"], ids=["listed", "completed"])
def test_an_inadmissible_order_reports_its_violations(tmp_path, capsys, order):
    # listed: X1 sits above B and C as given; completed: X1 must sit at or
    # above A, so above B and C as well
    assert main(["check", _own_order_file(tmp_path, order)]) == 1
    assert capsys.readouterr().out == (
        "fresh: X1\n"
        "result: REJECTED\n"
        "violation: axiom 'X1 <= B': X1 must lie below B\n"
        "violation: axiom 'X1 <= C': X1 must lie below C\n"
    )


def test_oracle_trace_longer_than_the_recursion_limit(tmp_path, capsys):
    p = tmp_path / "chain.kb"
    axioms = "".join(f"C{i} <= C{i + 1}\n" for i in range(1100))
    p.write_text(f"tbox:\n{axioms}abox:\nC0(a)\n", encoding="utf-8")
    assert main(["oracle", str(p), "--ask", "C1100(a)", "--trace"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == [
        "answer: true",
        "steps: 1100",
        "step 1: apply 'C0 <= C1' at a: add C1(a) using C0(a)",
    ]
    assert out[-1] == "step 1100: apply 'C1099 <= C1100' at a: add C1100(a) using C1099(a)"


def test_oracle_trace_through_an_anonymous_chain_deeper_than_the_recursion_limit(
    tmp_path, capsys
):
    # Q1100(a) needs a chain of 1,100 anonymous r-successors below a
    p = tmp_path / "deep.kb"
    axioms = "".join(f"exists r . Q{i} <= Q{i + 1}\n" for i in range(1, 1100))
    p.write_text(
        f"tbox:\nA <= exists r . A\nexists r . A <= Q1\n{axioms}abox:\nA(a)\n",
        encoding="utf-8",
    )
    assert main(["oracle", str(p), "--ask", "Q1100(a)", "--trace"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["answer: true", "steps: 2200"]
    assert out[-1].startswith("step 2200: apply 'exists r . Q1099 <= Q1100' at a: add Q1100(a)")


def test_oracle_trace_reuses_each_anonymous_successor(tmp_path, capsys):
    p = tmp_path / "diamond.kb"
    p.write_text(diamond_kb_text(16), encoding="utf-8")
    assert main(["oracle", str(p), "--ask", "Q16(a)", "--trace"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["answer: true", "steps: 66"]
    assert out[-1] == "step 66: apply 'R15 & S15 <= Q16' at a: add Q16(a) using R15(a), S15(a)"


def test_non_utf8_file_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "latin1.kb"
    p.write_bytes("tbox:\nA <= B  # caf\xe9\nabox:\nA(a)\n".encode("latin-1"))
    assert main(["check", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot read {p}: not UTF-8 text (line 2)\n"
    assert captured.out == ""


def test_rewrite_text_and_dot(tmp_path, capsys):
    p = tmp_path / "reach.kb"
    p.write_text("tbox:\nexists r . A <= A\nabox:\nA(a)\n", encoding="utf-8")
    dot = tmp_path / "out.dot"
    assert main(["rewrite", str(p), "--for", "A", "--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    assert "automaton: A" in out and "states: 2" in out
    assert dot.read_text().startswith("digraph")


@pytest.mark.parametrize(
    "name, message",
    [
        ("A B", "'A B' is not a concept name"),
        ("1x", "'1x' is not a concept name"),
        ("exists", "'exists' is not a concept name"),
        ("r", "r is a role name, not a concept"),
        ("s", "s is a role name, not a concept"),
    ],
    ids=["space", "digit", "keyword", "tbox-role", "abox-role"],
)
def test_rewrite_for_a_non_concept_is_a_usage_error(tmp_path, capsys, name, message):
    p = tmp_path / "roles.kb"
    p.write_text(ROLES_TEXT, encoding="utf-8")
    assert main(["rewrite", str(p), "--for", name]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_top_and_bot_spellings_name_top_and_bot(tmp_path, capsys):
    p = tmp_path / "roles.kb"
    p.write_text(ROLES_TEXT, encoding="utf-8")
    assert main(["rewrite", str(p), "--for", "top"]) == 0
    assert capsys.readouterr().out.startswith("automaton: Top\n")
    assert main(["ask", str(p), "--query", "top(b)"]) == 0
    assert "answer: true" in capsys.readouterr().out
    assert main(["ask", str(p), "--query", "exists(a)"]) == 2
    assert capsys.readouterr().err == "error: 'exists' is not a concept name\n"


def _conjunction_kb(tmp_path, k):
    p = tmp_path / f"conj{k}.kb"
    body = " & ".join(f"A{i}" for i in range(k))
    p.write_text(f"tbox:\n{body} <= B\nabox:\nA0(a)\n", encoding="utf-8")
    return str(p)


def test_rewrite_dot_into_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    dot = tmp_path / "missing" / "out.dot"
    assert main(["rewrite", _conjunction_kb(tmp_path, 2), "--for", "B", "--dot", str(dot)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {dot}")
    assert captured.out == ""


def test_rewrite_past_the_state_budget_is_a_usage_error(tmp_path, capsys):
    t0 = time.perf_counter()
    assert main(["rewrite", _conjunction_kb(tmp_path, 8), "--for", "B"]) == 2
    assert time.perf_counter() - t0 < 30.0
    assert "automaton states" in capsys.readouterr().err


def test_rewrite_below_the_state_budget_is_unchanged(tmp_path, capsys):
    assert main(["rewrite", _conjunction_kb(tmp_path, 3), "--for", "B"]) == 0
    out = capsys.readouterr().out
    states = [int(line.split()[1]) for line in out.splitlines() if line.startswith("states:")]
    assert sum(states) == 174
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "40546560292b9a12176d9d12c864c8804ce7567546ccb833ad70f1b6412ad1c1"


def test_bench_qbf_small(capsys, tmp_path):
    emit = tmp_path / "cases"
    assert main(
        ["bench", "qbf", "--n", "2", "--m", "2", "--count", "5", "--seed", "3",
         "--emit-dir", str(emit)]
    ) == 0
    out = capsys.readouterr().out
    assert "failures: 0" in out
    assert len(list(emit.glob("*.kb"))) == 5


@pytest.mark.parametrize("n", ["0", "-1"])
def test_bench_qbf_without_variables_is_a_usage_error(capsys, n):
    assert main(["bench", "qbf", "--n", n, "--count", "2"]) == 2
    assert "error: need at least one variable" in capsys.readouterr().err


def test_bench_qbf_negative_count_is_a_usage_error(capsys):
    assert main(["bench", "qbf", "--count", "-1"]) == 2
    captured = capsys.readouterr()
    assert "error: count must be at least 0" in captured.err
    assert captured.out == ""
    assert main(["bench", "qbf", "--count", "0"]) == 0
    assert capsys.readouterr().out == "total: 0\nfailures: 0\n"


def test_bench_qbf_uncreatable_emit_dir_is_a_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    emit = blocker / "cases"
    assert main(["bench", "qbf", "--count", "1", "--emit-dir", str(emit)]) == 2
    assert f"error: cannot create {emit}" in capsys.readouterr().err


def test_fuzz_negative_cases_is_a_usage_error(capsys):
    from strata import KbError, run_fuzz

    with pytest.raises(KbError, match="cases must be at least 0"):
        run_fuzz(-3, 1)
    assert main(["fuzz", "--cases", "-3"]) == 2
    assert "error: cases must be at least 0" in capsys.readouterr().err
    assert main(["fuzz", "--cases", "0"]) == 0
    assert "cases: 0" in capsys.readouterr().out


def test_fuzz_small(capsys):
    assert main(["fuzz", "--cases", "25", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "cases: 25" in out
    assert "disagreements: 0" in out


def test_fuzz_prints_first_counterexample_verbatim(capsys, monkeypatch):
    from strata import cli
    from strata.fuzz import FuzzFailure, FuzzReport

    fake = FuzzReport(
        cases=3,
        queries=9,
        failures=[
            FuzzFailure(
                case=1,
                seed=424243,
                concept="B",
                ind="a0",
                answers={"collapsed": True, "naive": False, "oracle": True},
                kb_text="tbox:\nA <= B\nabox:\nA(a0)\n",
            )
        ],
    )
    monkeypatch.setattr(cli, "run_fuzz", lambda *a, **k: fake)
    assert main(["fuzz", "--cases", "3", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "disagreement: case 1 (seed 424243) query B(a0)" in out
    assert "answer[naive]: False" in out
    assert "tbox:\nA <= B\nabox:\nA(a0)\n" in out


def test_fuzz_jobs_beyond_cpu_count_start_no_pool(capsys, monkeypatch):
    import multiprocessing
    import os

    from strata import KbError, run_fuzz

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was created")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    too_many = (os.cpu_count() or 1) + 1
    for jobs in (0, too_many):
        with pytest.raises(KbError, match="CPU count"):
            run_fuzz(4, 1, jobs=jobs)
    assert main(["fuzz", "--cases", "4", "--jobs", str(too_many)]) == 2
    assert "CPU count" in capsys.readouterr().err


def test_missing_file_is_a_usage_error(capsys):
    assert main(["check", "/nonexistent/kb.kb"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    ["(" * 3000 + "A" + ")" * 3000 + " <= B", "exists r . " * 2000 + "A <= B"],
    ids=["parentheses", "exists"],
)
def test_over_deep_nesting_is_a_usage_error(tmp_path, capsys, line):
    p = tmp_path / "deep.kb"
    p.write_text(f"tbox:\n{line}\nabox:\nA(a)\n", encoding="utf-8")
    for argv in (["check", str(p)], ["ask", str(p), "--query", "B(a)"]):
        assert main(argv) == 2
        assert "nested deeper than" in capsys.readouterr().err


def test_parse_error_position_reported(tmp_path, capsys):
    p = tmp_path / "bad.kb"
    p.write_text("tbox:\nA <= <= B\n", encoding="utf-8")
    assert main(["check", str(p)]) == 2
    assert "line 2" in capsys.readouterr().err

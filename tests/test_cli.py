import json
import random

import pytest

from nfg import suites
from nfg.cli import EXIT_OK, EXIT_UNEQUAL, EXIT_USAGE, EXIT_VALIDATION, build_parser, main
from nfg.diagrams import pfaffian_factor
from nfg.scalars import rat
from nfg.suites import rand_skew

from test_acceptance import pfaffian_expansion

TRACE_DOC = """
tensor A [2,2] = 1, 2, 3, 4
graph tr { vertex a: A  edge loop(a.1, a.2) }
"""

SKEW_DOC = """
tensor S [4,4] = 0, 1, 2, 3, -1, 0, 4, 5, -2, -4, 0, 6, -3, -5, -6, 0
"""

MAT_DOC = """
tensor M [3,3] = 2, 0, 1, 1, 3, 0, 0, 1, 4
"""

EQ_DOC = """
tensor u [3] = 1, 2, 3
graph g1 { vertex a: u  dangling x(a.1) }
let g2 = 1*g1
let g3 = 2*g1
"""


@pytest.fixture
def doc(tmp_path):
    def write(text, name="doc.nfg"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def test_contract_scalar(doc, capsys):
    assert main(["contract", doc(TRACE_DOC), "tr"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out == {"shape": [], "values": ["5"]}


def test_contract_engines_agree(doc, capsys):
    path = doc(TRACE_DOC)
    assert main(["contract", path, "tr", "--engine", "brute"]) == EXIT_OK
    brute = capsys.readouterr().out
    assert main(["contract", path, "tr", "--engine", "planned"]) == EXIT_OK
    assert capsys.readouterr().out == brute


def test_contract_plan_out(doc, tmp_path, capsys):
    plan_file = tmp_path / "plan.txt"
    assert main(["contract", doc(TRACE_DOC), "tr", "--engine", "planned",
                 "--plan-out", str(plan_file)]) == EXIT_OK
    assert plan_file.exists()
    capsys.readouterr()


def test_equal_exit_codes(doc, capsys):
    path = doc(EQ_DOC)
    assert main(["equal", path, "g1", "g2"]) == EXIT_OK
    assert "equal" in capsys.readouterr().out
    assert main(["equal", path, "g1", "g3"]) == EXIT_UNEQUAL
    assert "unequal" in capsys.readouterr().out


def test_pfaffian(doc, capsys):
    assert main(["pfaffian", doc(SKEW_DOC), "S"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "pfaffian(diagram) = 8" in out
    assert "pfaffian(oracle)  = 8" in out


def test_det(doc, capsys):
    assert main(["det", doc(MAT_DOC), "M"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "det(diagram) = 25" in out
    assert "det(oracle)  = 25" in out


def test_trace(doc, capsys):
    assert main(["trace", doc(MAT_DOC), "M"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "trace(diagram) = 9" in out


def test_plan(doc, capsys):
    assert main(["plan", doc(TRACE_DOC), "tr"]) == EXIT_OK
    assert "estimated cost" in capsys.readouterr().out


def test_verify_suite(capsys):
    assert main(["verify", "lemma3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lemma3-n=10 PASS" in out


@pytest.mark.parametrize("suite,trials", [("prop1", "-1"), ("det-ids", "0")])
def test_verify_rejects_trials_below_one(suite, trials, capsys, monkeypatch):
    monkeypatch.setattr("nfg.suites.run_suite", _must_not_run)
    assert main(["verify", suite, "--trials", trials]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"must be at least 1, got {trials}" in captured.err
    assert captured.out == ""


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nosuchsuite"]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_file(capsys):
    assert main(["contract", "/nonexistent/file.nfg", "g"]) == EXIT_USAGE
    capsys.readouterr()


def test_directory_is_usage(tmp_path, capsys):
    assert main(["contract", str(tmp_path), "g"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err


def test_non_utf8_file_is_usage(tmp_path, capsys):
    path = tmp_path / "latin1.nfg"
    path.write_bytes(b"tensor A [1] = 1 # \xff\n")
    assert main(["contract", str(path), "g"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xff")


def test_parse_error_is_usage(doc, capsys):
    path = doc("tensor A [2] = 1\n", name="bad.nfg")
    assert main(["contract", path, "g"]) == EXIT_USAGE
    assert "parse error" in capsys.readouterr().err


def test_unknown_graph_is_validation(doc, capsys):
    assert main(["contract", doc(TRACE_DOC), "nope"]) == EXIT_VALIDATION
    capsys.readouterr()


def test_no_arguments_is_usage(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_det_rejects_non_square(doc, capsys):
    path = doc("tensor R [2,3] = 1, 2, 3, 4, 5, 6\n", name="rect.nfg")
    assert main(["det", path, "R"]) == EXIT_VALIDATION
    capsys.readouterr()


def test_pfaffian_rejects_non_skew(doc, capsys):
    assert main(["pfaffian", doc(MAT_DOC), "M"]) == EXIT_VALIDATION
    capsys.readouterr()


def _matrix_doc(dim, entry):
    values = ", ".join(str(entry(i, j)) for i in range(dim) for j in range(dim))
    return f"tensor A [{dim},{dim}] = {values}\n"


def _must_not_run(*args, **kwargs):
    raise AssertionError("expensive work ran before the size check")


def test_pfaffian_checks_diagram_limit_before_any_work(doc, capsys, monkeypatch):
    monkeypatch.setattr("nfg.diagrams.levi_civita", _must_not_run)
    monkeypatch.setattr("nfg.cli.exterior_planned", _must_not_run)
    monkeypatch.setattr("nfg.cli.pfaffian_oracle", _must_not_run)
    skew = _matrix_doc(12, lambda i, j: (i + j + 1) * ((i < j) - (i > j)))
    assert main(["pfaffian", doc(skew), "A"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "validation error: dimension 12 exceeds the diagram limit 10\n")


def test_pfaffian_10x10_agrees_with_first_row_expansion(doc, capsys):
    a = rand_skew(random.Random(3), 10)
    vals = a.values()
    skew = _matrix_doc(10, lambda i, j: vals[i * 10 + j])
    assert main(["pfaffian", doc(skew), "A"]) == EXIT_OK
    pf = pfaffian_expansion(a)
    assert capsys.readouterr().out == (
        f"pfaffian(diagram) = {pf}\npfaffian(oracle)  = {pf}\n"
        f"ratio             = {pfaffian_factor(5)}\n")


def test_det_over_epsilon_limit_is_validation_error(doc, capsys, monkeypatch):
    monkeypatch.setattr("nfg.diagrams.levi_civita", _must_not_run)
    monkeypatch.setattr("nfg.cli.det_oracle", _must_not_run)
    big = _matrix_doc(11, lambda i, j: int(i == j))
    assert main(["det", doc(big), "A"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "validation error: dimension 11 exceeds the diagram limit 10\n")


def test_contract_plan_out_refuses_compound(doc, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("nfg.cli.plan_greedy", _must_not_run)
    monkeypatch.setattr("nfg.cli.eval_compound", _must_not_run)
    plan_file = tmp_path / "plan.txt"
    assert main(["contract", doc(EQ_DOC), "g3", "--plan-out", str(plan_file)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "'g3' is a compound" in captured.err
    assert captured.out == ""
    assert not plan_file.exists()


def test_contract_plan_out_to_a_directory_is_a_usage_error(doc, tmp_path, capsys):
    # the plan file cannot be written: one error line and exit 2, not a traceback
    assert main(["contract", doc(TRACE_DOC), "tr", "--plan-out", str(tmp_path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_plan_refuses_compound(doc, capsys, monkeypatch):
    monkeypatch.setattr("nfg.cli.plan_greedy", _must_not_run)
    assert main(["plan", doc(EQ_DOC), "g3"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: plan needs a graph; 'g3' is a compound\n")


def test_parser_is_built_once_and_keeps_nothing_between_calls(doc, tmp_path, capsys,
                                                              monkeypatch):
    """main reuses one parser; flags given to one call are absent from the next."""
    assert build_parser() is build_parser()
    assert main(["--help"]) == EXIT_OK
    help_text = capsys.readouterr().out
    path, plan_file = doc(TRACE_DOC), tmp_path / "plan.txt"
    assert main(["contract", path, "tr", "--plan-out", str(plan_file),
                 "--engine", "brute"]) == EXIT_OK
    first = capsys.readouterr().out
    assert plan_file.exists()
    plan_file.unlink()
    assert main(["contract", path, "tr"]) == EXIT_OK
    assert capsys.readouterr().out == first
    assert not plan_file.exists()

    runs = []
    monkeypatch.setattr("nfg.suites.run_suite",
                        lambda suite, seed, trials: runs.append((suite, seed, trials)) or [])
    assert main(["verify", "lemma2", "--trials", "2", "--seed", "5"]) == EXIT_OK
    assert main(["verify", "lemma2"]) == EXIT_OK
    assert runs == [("lemma2", 5, 2), ("lemma2", suites.DEFAULT_SEED, None)]
    assert main(["--help"]) == EXIT_OK
    assert capsys.readouterr().out == help_text


def test_compare_commands_read_their_routes_at_call_time(doc, capsys, monkeypatch):
    """The parser holds no route of pfaffian/det/trace, so a patched oracle is
    the one that runs even after the parser was built."""
    assert main(["det", doc(MAT_DOC), "M"]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr("nfg.cli.det_oracle", lambda a: rat(1))
    assert main(["det", doc(MAT_DOC), "M"]) == EXIT_UNEQUAL
    assert capsys.readouterr().out == "det(diagram) = 25\ndet(oracle)  = 1\n"


def test_version(capsys):
    assert main(["--version"]) == EXIT_OK
    assert capsys.readouterr().out == "nfg 0.1.0 (exact scalars: fractions.Fraction)\n"


@pytest.mark.parametrize("text, position", [
    ("tensor u [1] = " + "9" * 400 + "\ngraph g { vertex a: u dangling x(a.1) }\n", "1:16"),
    ("tensor u [1] = 1\ngraph g { vertex a: u dangling x(a.1) }\nlet h = " + "9" * 400 + "*g\n",
     "3:9"),
], ids=["value", "coefficient"])
def test_value_beyond_the_largest_float_is_a_parse_error_on_f64(doc, capsys, text, position):
    path = doc(text)
    assert main(["contract", path, "g", "--backend", "f64"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"parse error: {position}: value too large for f64\n")
    assert main(["contract", path, "g"]) == EXIT_OK

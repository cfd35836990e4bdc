import argparse
import inspect
import json
import pathlib
import random
import re

import pytest

from nfg import cli, contraction, dsl, suites
from nfg.cli import EXIT_OK, EXIT_UNEQUAL, EXIT_USAGE, EXIT_VALIDATION, build_parser, main
from nfg.diagrams import pfaffian_factor
from nfg.scalars import rat
from nfg.suites import rand_skew
from nfg.tensor import Tensor

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


def test_contract_takes_no_plan_out(doc, tmp_path, capsys):
    """Plan files are gone: `nfg plan` prints the plan, and `--plan-out` is
    an unknown option, refused before anything is written."""
    plan_file = tmp_path / "plan.txt"
    assert main(["contract", doc(TRACE_DOC), "tr", "--plan-out", str(plan_file)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --plan-out" in err
    assert not plan_file.exists()


def test_equal_exit_codes(doc, capsys):
    path = doc(EQ_DOC)
    assert main(["equal", path, "g1", "g2"]) == EXIT_OK
    assert "equal" in capsys.readouterr().out
    assert main(["equal", path, "g1", "g3"]) == EXIT_UNEQUAL
    assert "unequal" in capsys.readouterr().out


def test_equal_over_unequal_interface_shapes(doc, capsys):
    path = doc("tensor u [2] = 1, 2\ntensor v [3] = 1, 2, 3\n"
               "graph g { vertex a: u  dangling x(a.1) }\n"
               "graph h { vertex b: v  dangling y(b.1) }\n")
    assert main(["equal", path, "g", "h"]) == EXIT_UNEQUAL
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("unequal: interface shapes [2] vs [3]\n", "")


@pytest.mark.parametrize("argv, expected", [
    (["contract", TRACE_DOC, "nope"], "no graph named 'nope' in the document"),
    (["pfaffian", SKEW_DOC, "T"], "no tensor named 'T' in the document"),
], ids=["contract", "pfaffian"])
def test_a_name_missing_from_the_document_is_validation(argv, expected, doc, capsys):
    command, text, name = argv
    assert main([command, doc(text), name]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"validation error: {expected}\n")


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


def test_contract_maps_a_refused_trace_to_validation(doc, capsys, monkeypatch):
    """A trace that pair_contract refuses, reached from the self-loop of
    `nfg contract`, is a validation error (exit 3) whichever axis is bad."""
    original = Tensor.trace_axes
    for shift in (lambda a, b: (a + 5, b), lambda a, b: (a, b + 4)):
        monkeypatch.setattr(Tensor, "trace_axes",
                            lambda self, a, b, shift=shift: original(self, *shift(a, b)))
        assert main(["contract", doc(TRACE_DOC), "tr", "--engine", "planned"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "validation error: axis 5 out of range for rank 2\n"


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


OVERSIZED = pathlib.Path(__file__).parent / "corpus" / "e17_output_size.nfg"


@pytest.mark.parametrize("engine", ["brute", "planned"])
@pytest.mark.parametrize("backend", ["exact", "f64"])
def test_oversized_output_is_one_line_and_exit_3_before_any_kernel(engine, backend, capsys,
                                                                   monkeypatch):
    """Six dangling copies of a 100-entry vector would have 10**12 cells (a
    MemoryError traceback with exit 1 before the output limit); the message
    is the document's expect header."""
    header = OVERSIZED.read_text(encoding="utf-8").split("\n", 1)[0]
    assert header == ("# expect exit 3: the exterior function would have 1000000000000 "
                      "cells, over the limit 16777216")
    monkeypatch.setattr("nfg.contraction.pair_contract", _must_not_run)
    monkeypatch.setattr(Tensor, "nonzeros", _must_not_run)
    argv = ["contract", str(OVERSIZED), "X", "--engine", engine, "--backend", backend]
    assert main(argv) == EXIT_VALIDATION
    message = header.removeprefix("# expect exit 3: ")
    assert capsys.readouterr() == ("", f"validation error: {message}\n")


def test_plan_refuses_compound(doc, capsys, monkeypatch):
    monkeypatch.setattr("nfg.cli.plan_greedy", _must_not_run)
    assert main(["plan", doc(EQ_DOC), "g3"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: plan needs a graph; 'g3' is a compound\n")


def test_parser_is_built_once_and_keeps_nothing_between_calls(doc, capsys, monkeypatch):
    """main reuses one parser; flags given to one call are absent from the next."""
    assert build_parser() is build_parser()
    assert main(["--help"]) == EXIT_OK
    help_text = capsys.readouterr().out
    path, engines = doc(TRACE_DOC), []
    original = cli.eval_compound
    monkeypatch.setattr("nfg.cli.eval_compound",
                        lambda c, engine: engines.append(engine) or original(c, engine))
    assert main(["contract", path, "tr", "--engine", "brute"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["contract", path, "tr"]) == EXIT_OK
    assert capsys.readouterr().out == first
    assert engines == ["brute", "planned"]

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


def test_every_cli_option_is_read_by_its_command():
    """Each argument of each subcommand is read, as args.<dest>, by the
    function the subcommand runs, so none is accepted and then ignored."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, p in sub.choices.items():
        source = inspect.getsource(p.get_default("fn"))
        for action in p._actions:
            if isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
                continue
            if not re.search(rf"\bargs\.{action.dest}\b", source):
                unread.append(f"{name} {'/'.join(action.option_strings) or action.dest}")
    assert unread == []


@pytest.mark.parametrize("argv, code", [
    (["contract", "tr"], EXIT_USAGE),
    (["plan", "tr"], EXIT_USAGE),
    (["equal", "tr", "tr"], EXIT_OK),
    (["trace", "A"], EXIT_OK),
], ids=["contract", "plan", "equal", "trace"])
def test_tol_is_taken_only_by_commands_that_compare(doc, capsys, argv, code):
    command, *names = argv
    assert main([command, doc(TRACE_DOC), *names, "--tol", "1"]) == code
    err = capsys.readouterr().err
    assert ("unrecognized arguments: --tol 1" in err) == (code == EXIT_USAGE)


TOL_NAMES = {"equal": ["tr", "tr"], "det": ["M"], "pfaffian": ["S"], "trace": ["A"]}


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", sorted(TOL_NAMES))
def test_tol_that_inverts_the_comparison_is_refused_before_any_work(capsys, monkeypatch,
                                                                    command, tol):
    """A negative or nan tol refuses equal values, and an infinite one accepts
    any two: each is a usage error before the file is read."""
    monkeypatch.setattr("nfg.cli._load", _must_not_run)
    argv = [command, "doc.nfg", *TOL_NAMES[command], "--backend", "f64", "--tol", tol]
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --tol: must be a finite number >= 0, got {tol}\n" in err


@pytest.mark.parametrize("command", sorted(TOL_NAMES))
def test_tol_zero_is_taken(doc, capsys, command):
    path = doc(TRACE_DOC + SKEW_DOC + MAT_DOC)
    assert main([command, path, *TOL_NAMES[command], "--backend", "f64", "--tol", "0"]) == EXIT_OK
    assert capsys.readouterr().err == ""


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


CORPUS = pathlib.Path(__file__).parent / "corpus"
CORPUS_GRAPHS = [(path, name) for path in sorted(CORPUS.glob("v*.nfg"))
                 for name in dsl.parse(path.read_text(encoding="utf-8")).graphs]


@pytest.mark.parametrize("backend", ["exact", "f64"])
@pytest.mark.parametrize("path, graph", CORPUS_GRAPHS,
                         ids=[f"{path.stem}-{graph}" for path, graph in CORPUS_GRAPHS])
def test_contract_runs_the_plan_that_plan_prints(path, graph, backend, capsys, monkeypatch):
    """`nfg contract` plans once and groups the pairs `nfg plan` prints, in
    order; the pairs after those are the closing join, in id order."""
    argv = [str(path), graph, "--backend", backend]
    assert main(["plan", *argv]) == EXIT_OK
    *lines, cost = capsys.readouterr().out.splitlines()
    assert cost.startswith("estimated cost: ")
    steps = [tuple(line.split(" ")) for line in lines]
    pairs, plans = [], []
    group, plan_greedy = contraction._group, contraction.plan_greedy
    monkeypatch.setattr(contraction, "_group",
                        lambda work, u, v: pairs.append((u, v)) or group(work, u, v))
    monkeypatch.setattr(contraction, "plan_greedy", lambda g: plans.append(g) or plan_greedy(g))
    assert main(["contract", *argv]) == EXIT_OK
    capsys.readouterr()
    assert len(plans) == 1 and pairs[:len(steps)] == steps
    vertices = dsl.parse(path.read_text(encoding="utf-8"), backend).graphs[graph].vertices
    first, *rest = sorted(set(vertices) - {v for _, v in steps}) or [None]
    assert pairs[len(steps):] == [(first, vid) for vid in rest]


def test_every_option_readme_names_is_taken_by_its_command():
    """Each long option of README's `## CLI` synopsis, on a command's lines
    (comments aside), is accepted by that command's parser, and the synopsis
    names exactly the parser's commands."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    named = {}  # command (None for the top level) -> long options on its lines
    for line in block.splitlines():
        line = line.split("#", 1)[0]
        if line.startswith("nfg "):
            command = line.split()[1]
            command = None if command.startswith("-") else command
            named.setdefault(command, set())
        named[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(named) - {None} == set(sub.choices)
    refused = []
    for command, options in named.items():
        p = sub.choices[command] if command else parser
        taken = {s for action in p._actions for s in action.option_strings}
        refused += [f"nfg {command or ''} {option}" for option in sorted(options - taken)]
    assert refused == []

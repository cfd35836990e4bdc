"""CLI output pinned byte for byte: stdout and exit code of each command.

The expected results in ``tests/golden/cli.json`` were recorded before the
alternating-storage kernel existed, so a change to any contraction kernel that
alters a printed value, its formatting or an exit code fails here.  Two rows
were re-recorded with that kernel: the ``--backend f64`` Pfaffian diagram
value of ``m6`` and ``m8``, which it sums in another order, so the last
digits moved (-10.349768518518518 to -10.34976851851852 and
-205.85024691358026 to -205.85024691358032; the exact values are
-44711/4320 and -1667387/8100).  The f64 Pfaffian diagram values of ``m6``,
``m8`` and ``m10`` were re-recorded again when that kernel began to fold its
partner onto the partner's alternating part, which sums in another order:
-10.34976851851852 to -10.349768518518522, -205.85024691358032 to
-205.8502469135802 and 4869.703356481482 to 4869.70335648148 (exact
42074237/8640); ``test_f64_pfaffian_diagram_is_within_4_ulp`` pins them by
their error against the exact rows as well as by their bytes, and
``test_f64_det_diagram_is_within_8_ulp`` pins the f64 determinant diagram
values of ``m4`` to ``m10`` the same way (today's errors are -1.0, +1.37,
-7.76 and -1.44 ulp).  When that
kernel began to read packed storage through shape-only tables, which sum
each output entry in a fixed order of its sorted sets, four f64 diagram
values were re-recorded: ``pfaffian`` on ``m8`` (-205.8502469135802 to
-205.85024691358024) and ``det`` on ``m6`` (-162.78988472222215 to
-162.78988472222218), ``m8`` (91150.26230619215 to 91150.26230619202) and
``m10`` (-43210795.515037194 to -43210795.51503721).  Four more
were re-recorded when the factorial oracles gave way to eliminations, which
round differently: the
``--backend f64`` oracle value of ``pfaffian`` on ``m6`` (-10.349768518518488
to -10.349768518518518) and ``m8`` (-205.85024691358157 to
-205.85024691358024), and of ``det`` on ``m6`` (-162.78988472222207 to
-162.7898847222222) and ``m8`` (91150.26230619207 to 91150.26230619209).
The matrix documents ``tests/golden/m{4,6,8,10}.nfg`` hold seeded rational
matrices: ``S`` skew-symmetric, ``M`` general.  ``det`` on ``m10`` with
``--backend f64`` was re-recorded from exit 1 to exit 0, stdout unchanged,
when ``--tol`` became a mixed bound, ``|a - b| <= tol * max(1, |a|, |b|)``:
both routes are within one ulp of the exact value and differ by 6e-9 on a
value of 4.3e7, which the old absolute bound (1e-9) refused.

The ``verify`` rows run every suite at ``--seed 7 --trials 2`` (about 1 s in
all; ``lemma2`` and ``lemma3`` take no trial count), so a change to the
engines that alters a suite's printed rows fails here.  They were recorded
before the brute engine became a join over nonzero entries.

The ``contract corpus/eNN_*.nfg X`` rows run every error document of the
corpus; each exits 2 with nothing on stdout, and ``tests/test_dsl.py`` pins
each full ``DslError`` message.  They were recorded before the DSL scanner
became one regular expression, except ``e14_superscript``, a traceback with
exit 1 then, and ``e15_long_number``, recorded when a number longer than
``int()``'s string limit became a positioned error (a traceback with exit 1
before).  ``e16_f64_overflow`` fails on ``--backend f64`` only, so it has a
row on each backend: exact answers, and f64 exits 2.  Both were recorded when
a value beyond the largest float became a positioned error on f64 (an
``OverflowError`` traceback with exit 1 before).

The ``plan corpus/vNN.nfg G`` rows print the greedy plan of every graph of
the corpus (compounds have no plan).  They, and every row of
``corpus/v09_planner.nfg`` (parallel edges, a self-loop beside a shared edge,
a dangling edge, two components and a cost tie), were recorded before the
planner stopped keeping an edge-to-endpoints map beside its vertex-to-edges
sets, so a change to the planner that alters a step, its order or the
estimated cost fails here.

The rows of ``corpus/v10_empty.nfg`` (a graph with no vertices, and
compounds of it) were recorded when such a graph began to take its backend
from the document; before, every ``--backend f64`` row of that file exited 3
with ``validation error: float value rejected by the exact backend``.

To re-record after an intended change of output, run
``PYTHONPATH=src python tests/test_cli_golden.py`` from the repository root.
"""

import contextlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from nfg import dsl, suites
from nfg.cli import main

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
GOLDEN_FILE = GOLDEN / "cli.json"
BACKENDS = ("exact", "f64")


def _contract_cases():
    for path in sorted((TESTS / "corpus").glob("v*.nfg")):
        doc = dsl.parse(path.read_text(encoding="utf-8"))
        for name in [*doc.graphs, *doc.compounds]:
            for engine in ("brute", "planned"):
                for backend in BACKENDS:
                    yield ["contract", f"corpus/{path.name}", name,
                           "--engine", engine, "--backend", backend]


def _plan_cases():
    for path in sorted((TESTS / "corpus").glob("v*.nfg")):
        for name in dsl.parse(path.read_text(encoding="utf-8")).graphs:
            yield ["plan", f"corpus/{path.name}", name]


def _error_cases():
    for path in sorted((TESTS / "corpus").glob("e*.nfg")):
        yield ["contract", f"corpus/{path.name}", "X"]
        if path.read_text(encoding="utf-8").startswith("# expect on f64:"):
            yield ["contract", f"corpus/{path.name}", "X", "--backend", "f64"]


def _compare_cases():
    for dim in (4, 6, 8, 10):
        for command, matrix in (("pfaffian", "S"), ("det", "M"), ("trace", "M")):
            for backend in BACKENDS:
                yield [command, f"golden/m{dim}.nfg", matrix, "--backend", backend]


def _verify_cases():
    for suite in sorted(suites.SUITES):
        yield ["verify", suite, "--seed", "7", "--trials", "2"]


CASES = [*_compare_cases(), *_contract_cases(), *_plan_cases(), *_error_cases(),
         *_verify_cases()]


def _run(argv):
    """Exit code and stdout of one in-process CLI call; file paths are under tests/."""
    if argv[0] != "verify":
        argv = [argv[0], str(TESTS / argv[1]), *argv[2:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN_FILE.read_text())) == sorted(" ".join(c) for c in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv):
    expected = json.loads(GOLDEN_FILE.read_text())[" ".join(argv)]
    assert _run(argv) == (expected["exit"], expected["stdout"])


def _diagram_value(argv) -> str:
    return _run(argv)[1].splitlines()[0].split(" = ")[1]


@pytest.mark.parametrize("dim", [4, 6, 8, 10])
def test_f64_pfaffian_diagram_is_within_4_ulp(dim):
    """The f64 rows move with the summation order; their error must not."""
    exact = Fraction(_diagram_value(["pfaffian", f"golden/m{dim}.nfg", "S"]))
    got = float(_diagram_value(["pfaffian", f"golden/m{dim}.nfg", "S", "--backend", "f64"]))
    assert abs(Fraction(got) - exact) <= 4 * Fraction(math.ulp(float(exact)))


@pytest.mark.parametrize("dim", [4, 6, 8, 10])
def test_f64_det_diagram_is_within_8_ulp(dim):
    """The f64 determinant rows are bounded the same way as the Pfaffian rows."""
    exact = Fraction(_diagram_value(["det", f"golden/m{dim}.nfg", "M"]))
    got = float(_diagram_value(["det", f"golden/m{dim}.nfg", "M", "--backend", "f64"]))
    assert abs(Fraction(got) - exact) <= 8 * Fraction(math.ulp(float(exact)))


if __name__ == "__main__":
    record = {" ".join(argv): dict(zip(("exit", "stdout"), _run(argv))) for argv in CASES}
    GOLDEN_FILE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} cases to {GOLDEN_FILE}")

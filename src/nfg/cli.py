"""Command-line interface: contract graphs, compare them, run identity suites.

Exit codes: 0 success/equal/pass, 1 unequal/fail, 2 usage or parse error,
3 validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__, dsl, scalars, suites
from .algebra import eval_compound
from .contraction import exterior_brute, exterior_planned, plan_greedy
from .diagrams import (
    det_diagram,
    det_oracle,
    pfaffian_diagram,
    pfaffian_factor,
    pfaffian_oracle,
    trace_diagram,
    trace_oracle,
)
from .graph import NfgError
from .scalars import EXACT, F64
from .tensor import TensorError

EXIT_OK = 0
EXIT_UNEQUAL = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3


class UsageError(Exception):
    """A well-formed command that cannot apply to what it names (exit 2)."""


def _load(path: str, backend: str) -> dsl.DslDocument:
    try:  # an unreadable file is an OSError, which main reports the same way
        source = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(exc) from exc
    return dsl.parse(source, backend)


def _graph_or_compound(doc: dsl.DslDocument, name: str, graph_for: str = None):
    """The named graph or compound; when graph_for names a command that
    prints a plan, which holds one graph's steps, a compound is refused."""
    if name in doc.graphs:
        return doc.graphs[name]
    if name in doc.compounds:
        if graph_for:
            raise UsageError(f"{graph_for} needs a graph; {name!r} is a compound")
        return doc.compounds[name]
    raise NfgError(f"no graph named {name!r} in the document")


def cmd_contract(args) -> int:
    doc = _load(args.file, args.backend)
    result = eval_compound(_graph_or_compound(doc, args.graph), engine=args.engine)
    print(json.dumps(result.to_obj()))
    return EXIT_OK


def cmd_equal(args) -> int:
    doc = _load(args.file, args.backend)
    a = eval_compound(_graph_or_compound(doc, args.g1), engine=args.engine)
    b = eval_compound(_graph_or_compound(doc, args.g2), engine=args.engine)
    if a.shape != b.shape:
        print(f"unequal: interface shapes {list(a.shape)} vs {list(b.shape)}")
        return EXIT_UNEQUAL
    if a.equal(b, args.tol):
        print("equal")
        return EXIT_OK
    print("unequal")
    return EXIT_UNEQUAL


def _compare_routes(command: str):
    """Diagram builder, engine, oracle and diagram-to-value ratio (None when 1)
    of a comparison command.  Each diagram builder runs every input and size
    check of both routes before it builds anything, and the oracles have no
    size limit.  The names are read when the command runs, not kept in the
    parser, which is built once."""
    return {
        "pfaffian": (pfaffian_diagram, exterior_planned, pfaffian_oracle,
                     lambda a: pfaffian_factor(a.shape[0] // 2)),
        "det": (det_diagram, exterior_planned, det_oracle, None),
        "trace": (trace_diagram, exterior_brute, trace_oracle, None),
    }[command]


def cmd_compare(args) -> int:
    """A matrix function through its diagram and through its oracle; exit 0 iff equal."""
    build, run, oracle, ratio_of = _compare_routes(args.command)
    doc = _load(args.file, args.backend)
    if args.matrix not in doc.tensors:
        raise NfgError(f"no tensor named {args.matrix!r} in the document")
    a = doc.tensors[args.matrix]
    diagram = build(a)  # runs every check of both routes before any work
    via_diagram = run(diagram).get(())
    ratio = ratio_of(a) if ratio_of else None
    if ratio is not None:
        via_diagram = via_diagram / ratio
    via_oracle = oracle(a)
    name = args.command
    print(f"{name}(diagram) = {scalars.format_scalar(a.backend, via_diagram)}")
    print(f"{name}(oracle)  = {scalars.format_scalar(a.backend, via_oracle)}")
    if ratio is not None:
        print(f"{'ratio':<{len(name) + 9}} = {ratio}")
    agree = scalars.scalar_eq(a.backend, via_diagram, via_oracle, args.tol)
    return EXIT_OK if agree else EXIT_UNEQUAL


def cmd_verify(args) -> int:
    rows = suites.run_suite(args.suite, seed=args.seed, trials=args.trials)
    for name, ok, detail in rows:
        print(f"{name} {'PASS' if ok else 'FAIL'} {detail}")
    return EXIT_OK if all(ok for _, ok, _ in rows) else EXIT_UNEQUAL


def cmd_plan(args) -> int:
    doc = _load(args.file, args.backend)
    plan = plan_greedy(_graph_or_compound(doc, args.graph, "plan"))
    sys.stdout.write("".join(f"{u} {v}\n" for u, v in plan.steps))
    print(f"estimated cost: {plan.estimated_cost}")
    return EXIT_OK


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def tolerance(text: str) -> float:
    value = float(text)
    if not 0 <= value < float("inf"):  # nan or < 0 refuses equal values; inf accepts any two
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


@functools.cache  # built on the first call; parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfg",
        description="Normal factor graphs: contraction, comparison, identity suites.",
    )
    exact = scalars.ExactValue
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__} "
                        f"(exact scalars: {exact.__module__}.{exact.__qualname__})")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, engine=True, tol=True):
        p.add_argument("--backend", choices=[EXACT, F64], default=EXACT)
        if tol:  # only the commands that compare two values
            p.add_argument("--tol", type=tolerance, default=1e-9,
                           help="float backend only: values a, b agree when "
                                "|a - b| <= tol * max(1, |a|, |b|)")
        if engine:
            p.add_argument("--engine", choices=["brute", "planned"], default="planned")

    p = sub.add_parser("contract", help="print a graph's exterior function")
    p.add_argument("file")
    p.add_argument("graph")
    common(p, tol=False)
    p.set_defaults(fn=cmd_contract)

    p = sub.add_parser("equal", help="exit 0 iff two exterior functions are equal")
    p.add_argument("file")
    p.add_argument("g1")
    p.add_argument("g2")
    common(p)
    p.set_defaults(fn=cmd_equal)

    for name, what in (("pfaffian", "Pfaffian"), ("det", "determinant"), ("trace", "trace")):
        p = sub.add_parser(name, help=f"{what} via diagram and via oracle")
        p.add_argument("file")
        p.add_argument("matrix")
        common(p, engine=False)
        p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("verify", help="run a named identity suite")
    p.add_argument("suite", choices=sorted(suites.SUITES))
    p.add_argument("--seed", type=int, default=suites.DEFAULT_SEED)
    p.add_argument("--trials", type=positive_int, default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("plan", help="print the greedy contraction plan")
    p.add_argument("file")
    p.add_argument("graph")
    common(p, engine=False, tol=False)
    p.set_defaults(fn=cmd_plan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except dsl.DslError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UsageError) as exc:  # an input it cannot read or use
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NfgError, TensorError, scalars.BackendMismatch) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Fast self-test of the benchmark at tiny sizes.

Runs every workload small (Pfaffian 2n=6, 4-vertex ladders, one suite) with
and without tracing and checks that

* the untraced result names every end-to-end metric of BENCHMARK.json, with
  its unit, and the traced result every per-layer metric;
* a wrong output and an op that raises are each counted as a failure.

Usage, from the repository root: ``python3 perfbench/selftest.py``; exit 0
when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


def tiny_overrides(workloads):
    return {
        "pfaffian-10": {"dim": 6},
        "verify-suites": {"suites": ("fig8",)},
        "dense-exact": {"structures": workloads.DENSE_TINY},
    }


def expected_metrics(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def check(cond, message, problems) -> None:
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        problems.append(message)


def main() -> int:
    bench.import_program()
    import workloads

    tiny = tiny_overrides(workloads)
    problems = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        want = expected_metrics(kind)
        for name, overrides in tiny.items():
            with contextlib.redirect_stdout(io.StringIO()):
                result = bench.run(name, seed=3, seconds=0, trace=trace, **overrides)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace={trace}: every op matches its oracle", problems)
            check(got == want, f"{name} trace={trace}: the {kind} metrics with their units",
                  problems)

    # a wrong answer and a raising op must both count as failures
    for name, overrides in tiny.items():
        inputs, round_fn, check_fn = bench.setup(name, 5, **overrides)
        results = bench.run_ops(inputs, round_fn, 0)
        label, dt, out, err, traced = results[0]
        wrong = {"pfaffian-10": lambda o: o + 1,
                 "verify-suites": lambda o: [(n, rc, t.replace("PASS", "FAIL"), d)
                                             for n, rc, t, d in o],
                 "dense-exact": lambda o: (o[0], o[1].replace('"values": ["', '"values": ["1'))}
        results.append([label, dt, wrong[name](out), None, traced])
        results.append([label, dt, None, "RuntimeError: raised on purpose", traced])
        with contextlib.redirect_stdout(io.StringIO()):
            failed = bench.check_ops(inputs, check_fn, results)
        check(failed == 2, f"{name}: a wrong output and a raised op are 2 failures "
                           f"of {len(results)} (counted {failed})", problems)

    print("self-test " + ("passed" if not problems else f"FAILED: {len(problems)} checks"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

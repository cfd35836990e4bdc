"""Benchmark of the nfg engine: one workload per process, closed loop, one client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each exists is recorded in BENCHMARK.json):

* ``pfaffian-10``   one op = build a seeded rational skew 10x10 matrix, then
  ``pfaffian_diagram``, ``plan_greedy`` and ``exterior_planned``;
* ``verify-suites`` one op = ``nfg verify S --seed N`` in-process for all ten
  suites;
* ``dense-exact``   one op = ``nfg contract FILE G --backend exact`` on a seeded
  document of dense rational networks (ladders, rings, a compound).

Operations run back to back in rounds (a round is every op of the workload
once) until ``--seconds`` have passed; only whole rounds are run.  Every
output is checked afterwards against an oracle that shares no code with
nfg.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics from the traced
ones, plus the tracing overhead.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the environment and every metric with its unit.

The host is a shared VM whose speed moves by 20-40% for minutes at a time as
other tenants load it, longer than a run can afford to last.  So the time
metrics are reference-scaled: a fixed pure-Python loop that shares no code
with nfg is timed every 0.1 s from a timer signal while the ops run (its
time is taken out of the op times), and in blocks around each set-up probe,
and each time is multiplied by ``REF_NOMINAL_S / median(loop time)`` from
the same process.  A change to nfg moves the ops but not the loop; a slower
host moves both.  The raw wall times are printed on the ``wall`` line.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread, as the load model says.  numpy's OpenBLAS would otherwise start
# a thread per core when imported, which also makes set-up time erratic.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
REF_ITERATIONS = 500
REF_WALK = 3000
REF_BLOCK = 10
REF_PERIOD_S = 0.1
# About the median time of ref_loop() on the 2-vCPU Intel Xeon VM, Python
# 3.11, where the bounds of BENCHMARK.json were set.
REF_NOMINAL_S = 0.0024
# 2 MiB that ref_loop reads at random, so the gauge also feels contention
# for the caches; it stays resident and is taken out of peak_rss_mb.
REF_TABLE = array.array("q", range(1 << 18))
STEP_LINES = 12

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def import_program():
    """Import nfg from this checkout's ``src`` and nowhere else."""
    if not (SRC / "nfg" / "__init__.py").is_file():
        raise BenchError(f"no nfg package under {SRC}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import nfg

    if Path(nfg.__file__).resolve().parent != (SRC / "nfg").resolve():
        raise BenchError(f"imported nfg from {nfg.__file__}, not from {SRC}")
    return nfg


def workload_table():
    import workloads as W

    return {
        "pfaffian-10": (W.pfaffian_setup, W.pfaffian_round, W.pfaffian_check, {}),
        "verify-suites": (W.verify_setup, W.verify_round, W.verify_check, {}),
        "dense-exact": (W.dense_setup, W.dense_round, W.dense_check, {}),
    }


def setup(name, seed, workdir=OUT, **overrides):
    """Generate the inputs of one workload (the work ``setup_s`` times)."""
    table = workload_table()
    if name not in table:
        raise BenchError(f"unknown workload {name!r}; choose from {sorted(table)}")
    setup_fn, round_fn, check_fn, kwargs = table[name]
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = setup_fn(seed, workdir=workdir, **{**kwargs, **overrides})
    return inputs, round_fn, check_fn


class _Ratio:
    __slots__ = ("n", "d")

    def __init__(self, n, d):
        self.n, self.d = n, d

    def mul(self, o):
        return _Ratio(self.n * o.n, self.d * o.d)

    def add(self, o):
        return _Ratio(self.n * o.d + o.n * self.d, self.d * o.d)


def ref_loop(n=REF_ITERATIONS, walk=REF_WALK) -> int:
    """Fixed interpreter work that gauges the host's current speed: integer
    and float arithmetic, a dict of tuples, method calls that allocate small
    objects, as exact scalars do, and random reads from REF_TABLE.  It calls
    nothing from nfg."""
    table, acc, x, r = {}, 0, 1.0, _Ratio(0, 1)
    for i in range(n):
        acc = (acc * 31 + i) % 1000003
        x = x * 1.000001 + 0.5
        t = _Ratio(i % 7 - 3, i % 5 + 1).mul(_Ratio(3, 7))
        r = r.add(t)
        if r.d > 1 << 40:
            r = _Ratio(r.n % 97, 1)
        table[i & 255] = (acc, t)
    mask, j = len(REF_TABLE) - 1, 1
    for _ in range(walk):
        j = (j * 1103515245 + 12345) & mask
        acc += REF_TABLE[j]
    return acc


def ref_block(count=REF_BLOCK) -> list:
    """``count`` back-to-back timings of ref_loop."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        ref_loop()
        times.append(time.perf_counter() - t0)
    return times


class SpeedGauge:
    """Times ref_loop every REF_PERIOD_S seconds from a SIGALRM handler, so
    the samples cover the whole measured interval, long ops included, plus a
    block on entry.  ``busy_s`` sums the handler's time, which run_ops takes
    out of the op times."""

    def __init__(self):
        self.samples, self.busy_s = [], 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        ref_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.busy_s += dt

    def __enter__(self):
        self.samples += ref_block()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def setup_probe(name, seed):
    """Seconds to import nfg and generate the inputs, in a fresh interpreter,
    and the median reference-loop time in blocks just before and after.  The
    probe writes its inputs apart, so the measured run's stay intact."""
    refs = ref_block()
    start = time.perf_counter()
    import_program()
    setup(name, seed, workdir=OUT / "probe")
    seconds = time.perf_counter() - start
    refs += ref_block()
    return seconds, statistics.median(refs)


def measure_setup(name, seed, samples=SETUP_SAMPLES):
    """Median raw and median reference-scaled set-up seconds over probes."""
    raw, scaled = [], []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        seconds, ref = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * REF_NOMINAL_S / ref)
    return statistics.median(raw), statistics.median(scaled)


def run_ops(inputs, round_fn, seconds, tracer=None, gauge=None):
    """Closed loop over whole rounds until ``seconds`` have passed.

    With a tracer, even rounds run untraced and odd rounds traced, and at
    least one of each runs.  With a running SpeedGauge, its handler time is
    taken out of each op's time.  Returns [label, seconds, output, error,
    traced]."""

    def busy():
        return gauge.busy_s if gauge else 0.0

    results = []
    start = time.perf_counter()
    r = 0
    while r < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        try:
            for label, thunk in round_fn(inputs, r):
                gc.collect()
                if traced:
                    tracer.op = len(results)
                busy0, t0 = busy(), time.perf_counter()
                try:
                    out, err = thunk(), None
                except Exception as exc:  # a failing op is counted, never fatal
                    out, err = None, f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0 - (busy() - busy0)
                results.append([label, dt, out, err, traced])
        finally:
            if traced:
                tracer.uninstall()
        r += 1
    return results


def check_ops(inputs, check_fn, results) -> int:
    """Check every output against its oracle; return the number failed."""
    failed = 0
    for i, (label, _, out, err, _) in enumerate(results):
        if err is None:
            try:
                if not check_fn(inputs, label, out):
                    err = "output differs from the oracle"
            except Exception as exc:  # an unreadable output is a failed op
                err = f"oracle could not read the output: {type(exc).__name__}: {exc}"
        if err is not None:
            failed += 1
            print(f"FAILED op {i} ({label}): {err}")
    return failed


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nfg) -> dict:
    import numpy

    exact = nfg.scalars.ExactValue
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scalar_type": f"{exact.__module__}.{exact.__qualname__}",
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def report_suite_times(results) -> None:
    """Per-suite medians of verify-suites, timed around each cli.main call."""
    per_suite = {}
    for _, _, out, err, traced in results:
        if err is None and not traced:
            for name, _, _, dt in out:
                per_suite.setdefault(name, []).append(dt)
    for name in sorted(per_suite):
        print(f"verify.{name}_s = {median(per_suite[name]):.6f} s "
              f"(median of {len(per_suite[name])} passes)")


def run(workload, seed, seconds, trace, **overrides) -> dict:
    """Set up, measure and check one workload; print the report lines and
    return the result object.  ``overrides`` shrink the inputs (self-test)."""
    nfg = import_program()
    from tracing import LAYER_UNITS, Tracer, dump, layer_metrics, step_records

    print("env " + json.dumps(environment(nfg), sort_keys=True))
    inputs, round_fn, check_fn = setup(workload, seed, **overrides)
    setup_raw, setup_s = (None, None) if trace else measure_setup(workload, seed)

    if trace:
        tracer = Tracer()
        results = run_ops(inputs, round_fn, seconds, tracer)
    else:
        with SpeedGauge() as gauge:
            results = run_ops(inputs, round_fn, seconds, gauge=gauge)
    failed = check_ops(inputs, check_fn, results)
    plain = [dt for _, dt, _, _, traced in results if not traced]
    print(f"ops {len(results)} ({len(plain)} untraced), failed {failed}, "
          f"failed_frac {failed / len(results):.6f}; closed loop, one client, one thread")
    if workload == "verify-suites":
        report_suite_times(results)

    if trace:
        traced = [dt for _, dt, _, _, t in results if t]
        metrics = layer_metrics(tracer.spans, len(traced))
        metrics["trace.op_p50_s"] = median(traced)
        metrics["trace.overhead_s"] = median(traced) - median(plain)
        units = LAYER_UNITS
        steps = step_records(tracer.spans)
        first = [rec for rec in steps if rec["op"] == steps[0]["op"]] if steps else []
        for rec in first[:STEP_LINES]:
            print("step " + json.dumps(rec, sort_keys=True))
        path = OUT / f"trace-{workload}-s{seed}.json"
        dump(tracer.spans, steps, path)
        print(f"{len(tracer.spans)} spans and {len(steps)} step records written to "
              f"{path.relative_to(ROOT)}; the steps of the first traced op are above")
        print("note: the scalars layer runs inside the kernels and has no span; "
              "its time is inside the kernel spans")
    else:
        ref = median(gauge.samples)
        scale = REF_NOMINAL_S / ref
        print(f"wall setup_s = {setup_raw:.6f} s, ops_per_s = {len(plain) / sum(plain):.6f} 1/s, "
              f"op_p50_s = {median(plain):.6f} s; reference loop median {ref:.6f} s over "
              f"{len(gauge.samples)} samples, nominal {REF_NOMINAL_S} s, so times are scaled "
              f"by {scale:.4f}")
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(plain) / sum(plain) / scale,
            "op_p50_s": median(plain) * scale,
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                            - REF_TABLE.itemsize * len(REF_TABLE)) / 2**20,
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        print("%.9f %.9f" % setup_probe(args.workload, args.seed))
    else:
        print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)

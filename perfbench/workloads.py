"""Workload inputs, operations and independent oracles.

Each workload has three parts:

* ``setup(seed, size, workdir)`` builds the inputs from the seed alone;
* ``round_ops(inputs, r)`` lists the operations of round ``r`` as
  ``(label, thunk)`` pairs; a thunk calls public ``nfg`` functions only and
  returns the raw output;
* ``check(inputs, label, output)`` compares one output with an oracle that
  shares no code with ``nfg``.

Sizes are parameters so that the self-test can run every workload small.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

# Imported by run.py after ``src`` is on sys.path.
import nfg
from nfg import cli, contraction, diagrams

# The ten suites of ``nfg verify`` with the row count each prints at its
# default trial count.  A pass that prints fewer rows has skipped checks.
SUITE_ROWS = {
    "det-ids": 11, "fig8": 1, "fig9": 1, "fig10": 16, "fig11a": 16,
    "fig11b": 4, "lemma2": 6, "lemma3": 10, "prop1": 4, "triple": 1,
}


def rand_frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def capture(argv):
    """Run ``nfg.cli.main`` in-process; return (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# -- pfaffian ------------------------------------------------------------------


def pfaffian_first_row(a) -> Fraction:
    """Pf by expansion along the first row: (2n-1)!! terms, exact.

    Pf(A) = sum_j (-1)^(j+1) a[0][j] Pf(A without rows/cols 0 and j), with j
    counted from 1 among the remaining indices.
    """
    memo = {}

    def pf(idx):
        if not idx:
            return Fraction(1)
        if idx in memo:
            return memo[idx]
        i, rest = idx[0], idx[1:]
        acc = Fraction(0)
        for k, j in enumerate(rest):
            term = a[i][j] * pf(rest[:k] + rest[k + 1:])
            acc += -term if k % 2 else term
        memo[idx] = acc
        return acc

    return pf(tuple(range(len(a))))


def pfaffian_setup(seed: int, dim: int = 10, workdir=None):
    rng = random.Random(seed)
    a = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            a[i][j] = rand_frac(rng)
            a[j][i] = -a[i][j]
    return {"a": a, "dim": dim}


def pfaffian_round(inputs, r):
    a, dim = inputs["a"], inputs["dim"]

    def op():
        t = nfg.Tensor.from_values((dim, dim), [x for row in a for x in row])
        g = diagrams.pfaffian_diagram(t)
        plan = contraction.plan_greedy(g)
        return contraction.exterior_planned(g, plan).get(())

    return [("pfaffian", op)]


def pfaffian_check(inputs, label, out) -> bool:
    n = inputs["dim"] // 2
    expected = math.factorial(n) * 2 ** n * pfaffian_first_row(inputs["a"])
    return Fraction(str(out)) == expected


# -- verify suites -------------------------------------------------------------


def verify_setup(seed: int, suites=tuple(SUITE_ROWS), workdir=None):
    return {"seed": seed, "suites": list(suites)}


def suite_seed(inputs, r: int) -> int:
    return inputs["seed"] * 1000 + r


def verify_round(inputs, r):
    seed = str(suite_seed(inputs, r))

    def op():
        rows = []
        for name in inputs["suites"]:
            start = time.perf_counter()
            rc, text = capture(["verify", name, "--seed", seed])
            rows.append((name, rc, text, time.perf_counter() - start))
        return rows

    return [("verify", op)]


def verify_check(inputs, label, out) -> bool:
    for name, rc, text, _ in out:
        rows = text.splitlines()
        if rc != 0 or len(rows) != SUITE_ROWS[name]:
            return False
        if any(row.split()[1:2] != ["PASS"] for row in rows):
            return False
    return True


# -- dense tensor networks -----------------------------------------------------
#
# A network is a list of vertices (label tuple, shape) plus the dangling
# labels in interface order.  A label used twice on one vertex is a self-loop;
# a label on two vertices is an internal edge; a label used once is dangling.
# Structures are fixed; only the values come from the seed.


def _ladder(rungs: int, a: int, b: int, closed: bool):
    """Two rails of ``rungs`` vertices joined by rungs.  Closed: the rails
    wrap around (all rank 3, scalar result).  Open: each corner vertex gets a
    dangling leg so every vertex is rank 3."""
    verts = []
    span = rungs if closed else rungs - 1
    for i in range(rungs):
        for rail in ("t", "b"):
            labels = []
            if closed or i > 0:
                labels.append(f"{rail}{(i - 1) % rungs}")
            if closed or i < rungs - 1:
                labels.append(f"{rail}{i}")
            labels.append(f"r{i}")
            if not closed and i in (0, rungs - 1):
                labels.append(f"o{rail}{i}")
            verts.append((f"{rail}v{i}", tuple(labels)))
    sizes = {f"{rail}{i}": a for rail in "tb" for i in range(span)}
    sizes.update({f"r{i}": b for i in range(rungs)})
    dangling = [] if closed else [f"ob{rungs - 1}", "ot0", "ob0", f"ot{rungs - 1}"]
    sizes.update({d: b for d in dangling})
    return verts, sizes, dangling


def _ring(k: int, a: int, c: int):
    """Ring of ``k`` rank-3 vertices.  Two opposite legs dangle, one leg ends
    in a rank-3 tadpole (two slots joined by a self-loop), the rest in vectors."""
    verts, sizes = [], {"loop": c}
    for i in range(k):
        verts.append((f"v{i}", (f"e{(i - 1) % k}", f"e{i}", f"l{i}")))
        sizes[f"e{i}"] = a
        sizes[f"l{i}"] = c
        if i == 1:
            verts.append(("tad", ("l1", "loop", "loop")))
        elif i not in (0, k // 2):
            verts.append((f"cap{i}", (f"l{i}",)))
    return verts, sizes, [f"l{k // 2}", "l0"]


DENSE_FULL = {
    "ladder_closed": lambda: _ladder(4, 6, 6, closed=True),
    "ladder_open": lambda: _ladder(6, 5, 4, closed=False),
    "ring_a": lambda: _ring(8, 6, 4),
    "ring_b": lambda: _ring(8, 6, 4),
}
DENSE_TINY = {
    "ladder_closed": lambda: _ladder(2, 2, 2, closed=True),
    "ladder_open": lambda: _ladder(2, 2, 2, closed=False),
    "ring_a": lambda: _ring(4, 2, 2),
    "ring_b": lambda: _ring(4, 2, 2),
}
# The compound ``mix`` = 2*ring_a - 1/3*ring_b goes through algebra.  An odd
# number of op kinds keeps the median op inside one kind's samples.
MIX = ((Fraction(2), "ring_a"), (Fraction(-1, 3), "ring_b"))
OPS = ("ladder_closed", "ladder_open", "ring_a", "ring_b", "mix")


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _network_text(gname, verts, sizes, dangling, rng):
    """DSL statements of one network (a tensor per vertex) and its values."""
    lines, tensors = [], []
    for vname, labels in verts:
        shape = tuple(sizes[lab] for lab in labels)
        vals = [rand_frac(rng) for _ in range(math.prod(shape))]
        lines.append(f"tensor {gname}_{vname} [{','.join(map(str, shape))}] = "
                     + ", ".join(_fmt(v) for v in vals))
        tensors.append((labels, shape, vals))
    lines.append(f"graph {gname} {{")
    lines += [f"  vertex {vname}: {gname}_{vname}" for vname, _ in verts]
    ports = {}
    for vname, labels in verts:
        for slot, lab in enumerate(labels, start=1):
            ports.setdefault(lab, []).append(f"{vname}.{slot}")
    lines += [f"  edge {lab}({ps[0]}, {ps[1]})" for lab, ps in ports.items() if len(ps) == 2]
    lines += [f"  dangling {lab}({ports[lab][0]})" for lab in dangling]
    if dangling:
        lines.append(f"  interface({', '.join(dangling)})")
    lines.append("}")
    return lines, (tensors, dangling)


def dense_setup(seed: int, structures=None, workdir=None):
    """Write one DSL document per op, holding the networks that op reads;
    keep the values for the oracle."""
    rng = random.Random(seed)
    nets, text = {}, {}
    for gname, build in (structures or DENSE_FULL).items():
        text[gname], nets[gname] = _network_text(gname, *build(), rng)
    terms = " ".join(f"{'+' if c > 0 else '-'} {_fmt(abs(c))}*{g}" for c, g in MIX)
    docs = {g: text[g] for g in OPS if g in text}
    docs["mix"] = [line for _, g in MIX for line in text[g]] + \
        [f"let mix = {terms.lstrip('+ ')}"]
    paths = {}
    for label, lines in docs.items():
        paths[label] = str(Path(workdir) / f"dense-s{seed}-{label}.nfg")
        Path(paths[label]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"paths": paths, "nets": nets}


def dense_round(inputs, r):
    return [(g, (lambda g=g: capture(["contract", inputs["paths"][g], g, "--backend", "exact"])))
            for g in OPS]


def contract_network(tensors, dangling, dtype):
    """Pairwise contraction in vertex order with numpy ``tensordot``.

    The accumulator absorbs one vertex at a time, summing every label the two
    share; self-loops are traced with ``np.trace`` before absorption."""
    acc, acc_labels = np.ones((), dtype=dtype), []
    for labels, shape, vals in tensors:
        arr = np.array(vals, dtype=dtype).reshape(shape)
        labels = list(labels)
        for lab in set(labels):
            if labels.count(lab) == 2:
                i = labels.index(lab)
                j = labels.index(lab, i + 1)
                arr = np.trace(arr, axis1=i, axis2=j)
                labels = [x for x in labels if x != lab]
        shared = [lab for lab in labels if lab in acc_labels]
        acc = np.tensordot(acc, arr, axes=([acc_labels.index(s) for s in shared],
                                           [labels.index(s) for s in shared]))
        acc_labels = [x for x in acc_labels if x not in shared] + \
            [x for x in labels if x not in shared]
    return np.transpose(acc, [acc_labels.index(d) for d in dangling])


def _oracle(inputs, label):
    """Expected tensor of one op, computed once per label."""
    cache = inputs.setdefault("oracle", {})
    if label not in cache:
        terms = MIX if label == "mix" else ((Fraction(1), label),)

        cache[label] = np.asarray(sum(c * contract_network(*inputs["nets"][g], object)
                                      for c, g in terms), dtype=object)
    return cache[label]


def dense_check(inputs, label, out) -> bool:
    rc, text = out
    if rc != 0:
        return False
    obj = json.loads(text)
    expected = _oracle(inputs, label)
    if obj["shape"] != list(expected.shape):
        return False
    return [Fraction(v) for v in obj["values"]] == list(expected.ravel())

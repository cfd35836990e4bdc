"""Span recording around the public entry points of each ``nfg`` layer.

``Tracer.install()`` replaces every binding of each traced function, in every
``nfg`` module and in the suite table, with a recorder; ``uninstall()`` puts
the originals back, so untraced operations run the unmodified program.  A
span is ``[name, start, end, end_with_bookkeeping, parent, op, info]``; the
info dict holds counts derived from arguments and results after the clock
stops, and a parent's self time excludes that bookkeeping.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from math import prod
from time import perf_counter

NAME, START, END, END_BOOK, PARENT, OP, INFO = range(7)


def _nnz(t) -> int:
    return len(t.sparse) if t.is_sparse else sum(1 for v in t.dense if v)


def _pair_info(args, kwargs, out):
    """Storage kinds, nnz and multiply-adds of one ``pair_contract`` call.

    Multiply-adds are the products the kernel forms: dense x dense does
    cells(out) * cells(summed axes); sparse x dense does nnz(sparse) *
    cells(dense axes kept); sparse x sparse pairs every two nonzeros that
    agree on the summed axes."""
    f, fa, g, ga = args
    fa, ga = list(fa), list(ga)
    if f.is_sparse and g.is_sparse:
        kind = "sparse_sparse"
        gm = Counter(tuple(k[a] for a in ga) for k in g.sparse)
        madds = sum(gm.get(tuple(k[a] for a in fa), 0) for k in f.sparse)
    elif f.is_sparse or g.is_sparse:
        kind = "sparse_dense"
        sp, dn, dn_axes = (f, g, ga) if f.is_sparse else (g, f, fa)
        madds = len(sp.sparse) * prod(d for i, d in enumerate(dn.shape) if i not in dn_axes)
    else:
        kind = "dense_dense"
        madds = prod(out.shape) * prod(f.shape[a] for a in fa)
    return {
        "kind": kind,
        "shared_axes": [fa, ga],
        "shapes": [list(f.shape), list(g.shape)],
        "storage": ["sparse" if t.is_sparse else "dense" for t in (f, g)],
        "nnz": [_nnz(f), _nnz(g)],
        "out_nnz": _nnz(out),
        "out_cells": prod(out.shape),
        "madds": madds,
    }


def _group_info(args, kwargs, out):
    return {"pair": [args[1], args[2]]}


def _plan_info(args, kwargs, out):
    return {"est": out.estimated_cost, "steps": len(out.steps)}


def _planned_info(args, kwargs, out):
    plan = kwargs.get("plan", args[1] if len(args) > 1 else None)
    return {} if plan is None else {"est": plan.estimated_cost}


def _brute_info(args, kwargs, out):
    return {"assignments": prod(e.alphabet for e in args[0].edges.values())}


def _compound_info(args, kwargs, out):
    terms = getattr(args[0], "terms", None)
    return {"terms": 1 if terms is None else len(terms)}


def _eps_info(args, kwargs, out):
    return {"nnz": len(out.sparse)}


def _parse_info(args, kwargs, out):
    return {"bytes": len(args[0].encode("utf-8"))}


# (module, attribute, span name, info function); a "Class.method" attribute
# is patched on the class.
TRACED = [
    ("builtins", "levi_civita", "builtins.levi_civita", _eps_info),
    ("tensor", "pair_contract", "tensor.pair_contract", _pair_info),
    ("tensor", "Tensor.permute_axes", "tensor.permute_axes", None),
    ("tensor", "Tensor.trace_axes", "tensor.trace_axes", None),
    ("graph", "Nfg.copy", "graph.copy", None),
    ("contraction", "plan_greedy", "contraction.plan_greedy", _plan_info),
    ("contraction", "exterior_planned", "contraction.exterior_planned", _planned_info),
    ("contraction", "exterior_brute", "contraction.exterior_brute", _brute_info),
    ("contraction", "group_vertices", "contraction.group_vertices", _group_info),
    ("algebra", "eval_compound", "algebra.eval_compound", _compound_info),
    ("diagrams", "pfaffian_oracle", "diagrams.pfaffian_oracle", None),
    ("diagrams", "det_oracle", "diagrams.det_oracle", None),
    ("diagrams", "det_cofactor", "diagrams.det_cofactor", None),
    ("dsl", "parse", "dsl.parse", _parse_info),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self._undo = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                span[START] = start
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, out)
            span[END_BOOK] = perf_counter()
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every binding of the traced functions in all nfg modules."""
        mods = [m for k, m in sys.modules.items() if k == "nfg" or k.startswith("nfg.")]
        for mod_name, attr, name, info in TRACED:
            owner = sys.modules[f"nfg.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, orig, info), orig)
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, info)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped, orig)
        table = sys.modules["nfg.suites"].SUITES
        for suite, fn in list(table.items()):
            self._undo.append((table.__setitem__, suite, fn))
            table[suite] = self._wrap(f"suites.{suite}", fn, None)

    def _set(self, owner, key, new, orig) -> None:
        self._undo.append((lambda k, v, o=owner: setattr(o, k, v), key, orig))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        while self._undo:
            setter, key, orig = self._undo.pop()
            setter(key, orig)


# -- per-layer metrics -------------------------------------------------------------

# Every per-layer metric: name -> unit.  Counts and seconds are per traced op.
SUITE_NAMES = ("det-ids", "fig8", "fig9", "fig10", "fig11a", "fig11b",
               "lemma2", "lemma3", "prop1", "triple")
LAYER_UNITS = {
    "builtins.levi_civita.calls": "count/op",
    "builtins.levi_civita.s": "s/op",
    "builtins.levi_civita.nnz": "count/op",
}
for _k in ("sparse_dense", "dense_dense", "sparse_sparse"):
    LAYER_UNITS.update({
        f"tensor.{_k}.calls": "count/op",
        f"tensor.{_k}.s": "s/op",
        f"tensor.{_k}.madds": "count/op",
        f"tensor.{_k}.madds_per_s": "1/s",
    })
LAYER_UNITS.update({
    "tensor.out_nnz": "count/op",
    "tensor.out_fill": "ratio",
    "tensor.permute_axes.s": "s/op",
    "tensor.trace_axes.s": "s/op",
})
for _i in (1, 2, 3):
    LAYER_UNITS.update({
        f"contraction.step{_i}.s": "s/op",
        f"contraction.step{_i}.madds": "count/op",
        f"contraction.step{_i}.out_nnz": "count/op",
    })
LAYER_UNITS.update({
    "contraction.plan_greedy.s": "s/op",
    "contraction.plan.est_over_actual": "ratio",
    "contraction.exterior_brute.calls": "count/op",
    "contraction.exterior_brute.s": "s/op",
    "contraction.exterior_brute.assignments": "count/op",
    "contraction.exterior_brute.assignments_per_s": "1/s",
    "contraction.group_vertices.self_s": "s/op",
    "graph.copy.calls": "count/op",
    "graph.copy.s": "s/op",
    "algebra.eval_compound.calls": "count/op",
    "algebra.eval_compound.terms": "count/op",
    "algebra.eval_compound.self_s": "s/op",
    "diagrams.pfaffian_oracle.s": "s/op",
    "diagrams.det_oracle.s": "s/op",
    "diagrams.det_cofactor.s": "s/op",
    "dsl.parse.calls": "count/op",
    "dsl.parse.s": "s/op",
    "dsl.parse.bytes_per_s": "B/s",
    "cli.main.self_s": "s/op",
})
LAYER_UNITS.update({f"suites.{s}_s": "s/op" for s in SUITE_NAMES})
LAYER_UNITS.update({"trace.op_p50_s": "s", "trace.overhead_s": "s"})


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-layer totals per op, from the recorded spans.

    ``<name>.s`` sums outermost spans only, so a recursive function such as
    ``det_cofactor`` is not counted twice; ``self_s`` subtracts the time
    covered by child spans (including their bookkeeping)."""
    child_time = [0.0] * len(spans)
    outermost = [True] * len(spans)
    for i, sp in enumerate(spans):
        p = sp[PARENT]
        if p >= 0:
            child_time[p] += sp[END_BOOK] - sp[START]
        while p >= 0:
            if spans[p][NAME] == sp[NAME]:
                outermost[i] = False
                break
            p = spans[p][PARENT]

    tot = Counter()
    for i, sp in enumerate(spans):
        name, dur, info = sp[NAME], sp[END] - sp[START], sp[INFO] or {}
        tot[name + ".calls"] += 1
        if outermost[i]:
            tot[name + ".s"] += dur
        tot[name + ".self_s"] += dur - child_time[i]
        for key, val in info.items():
            if isinstance(val, (int, float)):
                tot[f"{name}.{key}"] += val
        if name == "tensor.pair_contract":
            kind = info["kind"]
            tot[f"tensor.{kind}.calls"] += 1
            tot[f"tensor.{kind}.s"] += dur
            tot[f"tensor.{kind}.madds"] += info["madds"]

    # grouping steps: the k-th group_vertices of each planned contraction
    children = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp[PARENT] >= 0:
            children[sp[PARENT]].append(i)
    est = actual = 0
    for i, sp in enumerate(spans):
        if sp[NAME] != "contraction.exterior_planned":
            continue
        kids = [spans[j] for j in children[i]]
        e = (sp[INFO] or {}).get("est")
        if e is None:
            e = sum(k[INFO]["est"] for k in kids if k[NAME] == "contraction.plan_greedy")
        est += e
        groups = [j for j in children[i] if spans[j][NAME] == "contraction.group_vertices"]
        for step, j in enumerate(groups, start=1):
            for k in children[j]:
                pk = spans[k]
                if pk[NAME] != "tensor.pair_contract":
                    continue
                actual += pk[INFO]["madds"]
                if step <= 3:
                    tot[f"contraction.step{step}.s"] += pk[END] - pk[START]
                    tot[f"contraction.step{step}.madds"] += pk[INFO]["madds"]
                    tot[f"contraction.step{step}.out_nnz"] += pk[INFO]["out_nnz"]
        # the final outer products of disconnected parts are contractions too
        actual += sum(k[INFO]["madds"] for k in kids if k[NAME] == "tensor.pair_contract")

    per_op = {k: v / n_ops for k, v in tot.items()}
    m = {k: per_op.get(k, 0.0) for k in LAYER_UNITS}
    for s in SUITE_NAMES:
        m[f"suites.{s}_s"] = per_op.get(f"suites.{s}.s", 0.0)
    for kind in ("sparse_dense", "dense_dense", "sparse_sparse"):
        m[f"tensor.{kind}.madds_per_s"] = _ratio(tot[f"tensor.{kind}.madds"], tot[f"tensor.{kind}.s"])
    m["tensor.out_nnz"] = per_op.get("tensor.pair_contract.out_nnz", 0.0)
    m["tensor.out_fill"] = _ratio(tot["tensor.pair_contract.out_nnz"],
                                  tot["tensor.pair_contract.out_cells"])
    m["contraction.plan.est_over_actual"] = _ratio(est, actual)
    m["contraction.exterior_brute.assignments_per_s"] = _ratio(
        tot["contraction.exterior_brute.assignments"], tot["contraction.exterior_brute.s"])
    m["dsl.parse.bytes_per_s"] = _ratio(tot["dsl.parse.bytes"], tot["dsl.parse.s"])
    return m


def step_records(spans):
    """One record per pair contraction made by a grouping step."""
    out = []
    for sp in spans:
        if sp[NAME] == "tensor.pair_contract" and sp[PARENT] >= 0 \
                and spans[sp[PARENT]][NAME] == "contraction.group_vertices":
            rec = dict(sp[INFO])
            rec.update(op=sp[OP], pair=spans[sp[PARENT]][INFO]["pair"],
                       seconds=sp[END] - sp[START])
            out.append(rec)
    return out


def dump(spans, steps, path) -> None:
    keys = ("name", "start", "end", "end_book", "parent", "op", "info")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": [dict(zip(keys, sp)) for sp in spans], "steps": steps}, fh)

"""Exterior-function evaluation: brute-force oracle, vertex grouping and
splitting, and a greedy pairwise contraction planner.

The brute-force path is the ground truth for everything else.  It is a
literal sum of products over the assignments to the internal and dangling
variables, but it enumerates only those on which every vertex is nonzero: a
backtracking join over each vertex's nonzero entries (the generic-join view
of a sum-product, Ngo-Re-Rudra 2013), walked in blocks of partial
assignments in the order a stack of single ones visits them, sharing no code
with the contraction kernels or the planner.  The planned path replays
pairwise groupings (each one a two-tensor contraction) and exploits sparse
operands, which is what makes the large Levi-Civita diagrams tractable.  One
step function, ``_group``, does every grouping, on a map vertex id -> Vertex;
self-loops are summed out before the first grouping, so no step carries one.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from math import prod
from operator import add
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .graph import Edge, Nfg, NfgError, Vertex
from .tensor import ONE_ENTRY, ZERO_ENTRY, Tensor, _getter, pair_contract


class ContractionPlan(NamedTuple):
    """Ordered pairwise groupings plus an estimated multiply-add count."""

    steps: List[Tuple[str, str]]
    estimated_cost: int = 0

    def to_text(self) -> str:
        return "".join(f"{u} {v}\n" for u, v in self.steps)


# Partial assignments the join extends together; a larger block is split, bounding memory.
_BLOCK = 1024
# The most cells an exterior function may have: 2**24 is a fully dangling eps(8).
MAX_OUTPUT_CELLS = 2 ** 24


def _output_shape(g: Nfg) -> Tuple[int, ...]:
    """g's interface shape, refused before any work if it has too many cells."""
    shape = g.dangling_shape()
    if prod(shape) > MAX_OUTPUT_CELLS:
        raise NfgError(f"the exterior function would have {prod(shape)} cells, "
                       f"over the limit {MAX_OUTPUT_CELLS}")
    return shape


def exterior_brute(g: Nfg) -> Tensor:
    """Z_G as a literal sum of products, over the nonzero entries only.

    A backtracking join: the vertices are visited one at a time, each time
    the one with the smallest estimated fan-out (its nonzero count over the
    alphabet sizes of its edges already bound; ties on the count, then on
    insertion order), and each visit extends the partial assignments by every
    nonzero entry of the vertex that agrees with them on the bound edges,
    found in an index of the entries by those edges.  A self-loop is an
    equality of two slots, so entries whose looped slots differ are dropped.
    The walk is depth first over blocks of partial assignments, each block
    extended a level at a time and split past ``_BLOCK``.  Interior index
    buckets are stored reversed, so assignments complete in the order a
    stack of single ones, each pushing its bucket in order, completes them:
    each output cell sums the same products in the same order, so f64
    results cannot move by a bit.  A product of stored entries (int
    numerators on the exact backend) goes to the cell of its dangling
    values; the vertex denominators' product is the result's denominator.
    An output of more than ``MAX_OUTPUT_CELLS`` cells is refused first.
    """
    g.check_valid()
    shape = _output_shape(g)
    backend = g.backend()
    zero, one = ZERO_ENTRY[backend], ONE_ENTRY[backend]
    if not g.vertices:
        return Tensor((), backend, dense=[one])

    # each vertex as (nonzero count, distinct edge ids, nonzero (values, entry) pairs)
    factors = []
    touching: Dict[str, List[int]] = {}  # edge id -> the vertices it touches
    denom = 1
    for vtx in g.vertices.values():
        tensor, cil = vtx.tensor, vtx.ciliation
        denom *= tensor.denom
        edges = cil
        if len(set(cil)) == len(cil):
            entries = list(tensor.nonzeros())
        else:
            edges = list(dict.fromkeys(cil))
            loops = [(cil.index(eid), slot) for slot, eid in enumerate(cil)
                     if cil.index(eid) != slot]
            distinct = _getter([cil.index(eid) for eid in edges])
            entries = [(distinct(key), v) for key, v in tensor.nonzeros()
                       if all(key[a] == key[b] for a, b in loops)]
        if not entries:
            return Tensor(shape, backend, dense=[zero] * prod(shape), denom=denom)
        for eid in edges:
            touching.setdefault(eid, []).append(len(factors))
        factors.append((len(entries), edges, entries))

    # visiting order, and per visit an index of the entries by the bound edges
    bound: Dict[str, int] = {}  # edge id -> position in the partial assignment
    width = [1] * len(factors)  # per vertex, the product of its bound edges' alphabets
    steps = []
    todo = list(range(len(factors)))
    while todo:
        i = min([(factors[i][0] / width[i], factors[i][0], i) for i in todo])[2]
        todo.remove(i)
        _, edges, entries = factors[i]
        old = [k for k, eid in enumerate(edges) if eid in bound]
        if old:
            get_old = _getter(old)
            get_new = _getter([k for k, eid in enumerate(edges) if eid not in bound])
            index: Dict[tuple, list] = {}
            for key, v in reversed(entries) if todo else entries:
                index.setdefault(get_old(key), []).append((get_new(key), v))
        else:
            index = {(): entries[::-1] if todo else entries}
        steps.append((_getter([bound[edges[k]] for k in old]), index.get))
        for eid in edges:
            if eid not in bound:
                bound[eid] = len(bound)
                for j in touching[eid]:
                    width[j] *= g.edges[eid].alphabet

    *inner, (look, get) = steps
    out: Dict[tuple, object] = {}
    oget = out.get
    dangling_values = _getter([bound[eid] for eid in g.dangling])
    total = zero
    blocks = [(0, [((), one)])]
    while blocks:
        depth, block = blocks.pop()
        if len(block) > _BLOCK:
            blocks += [(depth, block[s:s + _BLOCK])
                       for s in reversed(range(0, len(block), _BLOCK))]
        elif depth < len(inner):
            look_d, get_d = inner[depth]
            block = [(assign + values, term * v) for assign, term in block
                     for values, v in get_d(look_d(assign), ())]
            if block:
                blocks.append((depth + 1, block))
        elif shape:
            for key, t in [(dangling_values(assign + values), term * v)
                           for assign, term in block for values, v in get(look(assign), ())]:
                out[key] = oget(key, zero) + t
        else:
            total = reduce(add, [term * v for assign, term in block
                                 for _, v in get(look(assign), ())], total)

    if not shape:
        return Tensor((), backend, dense=[total], denom=denom)
    return Tensor(shape, backend, sparse=out, denom=denom).to_dense()


def _group(work: Dict[str, Vertex], u: str, v: str) -> List[str]:
    """Merge v into u in a map vertex id -> Vertex, summing out every edge
    they share in one pair contraction; return those edge ids.  The merged
    vertex, a new object, has u's surviving slots in order, then v's."""
    vu, vv = work[u], work.pop(v)
    # an edge id on both ciliations joins u and v, on one slot of each
    shared = [eid for eid in vu.ciliation if eid in vv.ciliation]
    merged = pair_contract(vu.tensor, [vu.ciliation.index(eid) for eid in shared],
                           vv.tensor, [vv.ciliation.index(eid) for eid in shared])
    work[u] = Vertex(merged, [eid for eid in vu.ciliation if eid not in shared] +
                     [eid for eid in vv.ciliation if eid not in shared])
    return shared


def group_vertices(g: Nfg, u: str, v: str) -> Nfg:
    """Replace u and v by one vertex realizing their pairwise contraction,
    which keeps u's id: ``_group`` on a copy of g, which is left unchanged."""
    if u == v:
        raise NfgError("cannot group a vertex with itself")
    for vid in (u, v):
        if vid not in g.vertices:
            raise NfgError(f"unknown vertex {vid!r}")
    g = g.copy()
    for eid in _group(g.vertices, u, v):
        del g.edges[eid]
    return g


def split_vertex(g: Nfg, h: str, f: Tensor, f_slots: Sequence[int],
                 gt: Tensor, g_slots: Sequence[int],
                 shared_alphabets: Sequence[int]) -> Nfg:
    """Replace vertex h by two vertices f and gt whose contraction equals h.

    f's leading axes carry h's edges at f_slots (in order) and its trailing
    axes the new internal edges; gt's leading axes are the new edges followed
    by h's edges at g_slots.  The factorization is checked exactly before
    rewriting, so the exterior function cannot change.
    """
    if h not in g.vertices:
        raise NfgError(f"unknown vertex {h!r}")
    vh = g.vertices[h]
    deg = len(vh.ciliation)
    f_slots = list(f_slots)
    g_slots = list(g_slots)
    if sorted(f_slots + g_slots) != list(range(deg)):
        raise NfgError(f"f_slots {f_slots} and g_slots {g_slots} do not partition 0..{deg - 1}")
    s = len(shared_alphabets)
    if f.rank != len(f_slots) + s or gt.rank != s + len(g_slots):
        raise NfgError("factor ranks do not match the slot partition plus shared edges")
    if list(f.shape[len(f_slots):]) != list(shared_alphabets) or \
            list(gt.shape[:s]) != list(shared_alphabets):
        raise NfgError("shared alphabets do not match factor axis sizes")
    recombined = pair_contract(f, list(range(len(f_slots), f.rank)), gt, list(range(s)))
    target = vh.tensor.permute_axes(f_slots + g_slots)
    if not recombined.equal(target):
        raise NfgError("factorization check failed: <f|g> differs from the vertex tensor")

    g = g.copy()
    base = h
    hf, hg = f"{base}_f", f"{base}_g"
    while hf in g.vertices or hg in g.vertices:
        base += "_"
        hf, hg = f"{base}_f", f"{base}_g"
    del g.vertices[h]
    new_eids = []
    for k, alphabet in enumerate(shared_alphabets):
        eid = g.fresh_edge_id()
        g.edges[eid] = Edge(eid, int(alphabet))
        new_eids.append(eid)
    g.vertices[hf] = Vertex(f, [vh.ciliation[sl] for sl in f_slots] + new_eids)
    g.vertices[hg] = Vertex(gt, new_eids + [vh.ciliation[sl] for sl in g_slots])
    return g


def plan_greedy(g: Nfg) -> ContractionPlan:
    """Repeatedly group the adjacent pair with the cheapest grouping step.

    Each vertex is tracked as its set of edge ids; a pair is adjacent when
    the sets meet.  A step's cost is the product of the alphabet sizes of all
    edges incident on the pair, counting shared edges once.  Ties break on
    the smallest (vertex id, vertex id) pair.  The merged vertex keeps the
    first id and the symmetric difference of the sets: the shared edges are
    summed out, and a self-loop, in one set only, stays.
    """
    g.check_valid()
    incident: Dict[str, Set[str]] = {vid: set(vtx.ciliation) for vid, vtx in g.vertices.items()}
    alphabet = {eid: e.alphabet for eid, e in g.edges.items()}

    steps: List[Tuple[str, str]] = []
    total = 0
    while True:
        candidates = [(prod(alphabet[eid] for eid in incident[u] | incident[v]), u, v)
                      for u, v in combinations(sorted(incident), 2)
                      if not incident[u].isdisjoint(incident[v])]
        if not candidates:
            break
        cost, u, v = min(candidates)
        incident[u] ^= incident.pop(v)
        steps.append((u, v))
        total += cost
    return ContractionPlan(steps, total)


def _without_self_loops(vtx: Vertex) -> Vertex:
    """The vertex with every self-loop summed out, in slot order."""
    cil = vtx.ciliation
    for s1, eid in enumerate(cil):
        if eid in cil[s1 + 1:]:
            s2 = cil.index(eid, s1 + 1)
            return _without_self_loops(Vertex(vtx.tensor.trace_axes(s1, s2),
                                              cil[:s1] + cil[s1 + 1:s2] + cil[s2 + 1:]))
    return vtx


def exterior_planned(g: Nfg, plan: Optional[ContractionPlan] = None) -> Tensor:
    """Replay a grouping plan (greedy by default), then join what is left.

    Every step is checked against the live vertex ids, and the output's
    size against ``MAX_OUTPUT_CELLS``, before the first contraction.  The
    working map vertex id -> Vertex starts with every self-loop summed out:
    a loop sums one variable of one vertex, so it commutes with every
    grouping, and no step need carry its two slots (``_group`` makes no
    loop, as it sums every edge two vertices share).
    ``_group`` replays the plan on that map, with no copy of g and no change
    to it, then joins the rest in id order (summing the edges an incomplete
    plan left), and the axes are reordered to the declared interface.
    """
    if plan is None:
        plan = plan_greedy(g)  # validates g
    else:
        g.check_valid()
    live = set(g.vertices)
    for u, v in plan.steps:
        if u == v or u not in live or v not in live:
            raise NfgError(f"plan step ({u!r}, {v!r}) is not replayable")
        live.remove(v)
    _output_shape(g)
    work = {vid: _without_self_loops(vtx) for vid, vtx in g.vertices.items()}
    for u, v in plan.steps:
        _group(work, u, v)
    if not work:
        backend = g.backend()
        return Tensor((), backend, dense=[ONE_ENTRY[backend]])
    first, *rest = sorted(work)
    for vid in rest:
        _group(work, first, vid)
    root = work[first]
    return root.tensor.permute_axes([root.ciliation.index(eid) for eid in g.dangling])

"""Exterior-function evaluation: brute-force oracle, vertex grouping and
splitting, and a greedy pairwise contraction planner.

The brute-force path is the ground truth for everything else.  It is a
literal sum of products over the assignments to the internal and dangling
variables, but it enumerates only those on which every vertex is nonzero: a
join over each vertex's nonzero entries (the generic-join view of a
sum-product, Ngo-Re-Rudra 2013), compiled per visiting order into generator
expressions, sharing no code with the contraction kernels or the planner.
The planned path replays pairwise groupings (each one a two-tensor
contraction) and exploits sparse operands, which is what makes the large
Levi-Civita diagrams tractable.  One step function, ``_group``, does every
grouping, on a map vertex id -> Vertex; self-loops are summed out before
the first grouping, so no step carries one.
"""

from __future__ import annotations

from functools import cache, reduce
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import prod
from operator import add
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .graph import Edge, Nfg, NfgError, Vertex
from .tensor import ONE_ENTRY, ZERO_ENTRY, Tensor, _getter, _strides, pair_contract


class ContractionPlan(NamedTuple):
    """Ordered pairwise groupings plus an estimated multiply-add count."""

    steps: List[Tuple[str, str]]
    estimated_cost: int = 0


# The most cells an exterior function may have: 2**24 is a fully dangling eps(8).
MAX_OUTPUT_CELLS = 2 ** 24
# Visits per generator expression of a join: CPython compiles a for clause
# by recursing, and some 20,000 visits in one expression overflow its stack.
_STAGE = 256


def _output_shape(g: Nfg) -> Tuple[int, ...]:
    """g's interface shape, refused before any work if it has too many cells."""
    shape = g.dangling_shape()
    if prod(shape) > MAX_OUTPUT_CELLS:
        raise NfgError(f"the exterior function would have {prod(shape)} cells, "
                       f"over the limit {MAX_OUTPUT_CELLS}")
    return shape


@cache
def _wiring(wiring: Tuple[Tuple[int, ...], ...]) -> tuple:
    """A wiring (its edges numbered by first appearance) as kept, which its
    ``_brute_plan`` keys share, and per vertex with a self-loop the slot pairs
    that must agree and the getter of its distinct slots."""
    loops = []
    for cil in wiring:
        pairs = [(cil.index(e), slot) for slot, e in enumerate(cil) if cil.index(e) != slot]
        loops.append(pairs and (pairs, _getter(list(map(cil.index, dict.fromkeys(cil))))))
    return wiring, loops


@cache
def _brute_plan(wiring: Tuple[Tuple[int, ...], ...], *numbers: int) -> tuple:
    """A join's order, its ``_join`` and its dangling strides (sizes over 1),
    given a wiring, then flat, so a key is one tuple, each vertex's nonzero
    count, each edge's alphabet and the interface's edges.  The order is
    popped from a heap of (count / width, count, vertex): widths only grow,
    so a stale entry sorts after its vertex's current one, popped first."""
    edges = [tuple(dict.fromkeys(cil)) for cil in wiring]
    touching: Dict[int, List[int]] = {}  # edge -> the vertices it touches
    for i, vertex_edges in enumerate(edges):
        for e in vertex_edges:
            touching.setdefault(e, []).append(i)
    nv, ne = len(wiring), len(touching)
    counts, alphabets, interface = numbers[:nv], numbers[nv:nv + ne], numbers[nv + ne:]
    width = [1] * nv  # per vertex, the product of its bound edges' alphabets
    heap = [(count / 1, count, i) for i, count in enumerate(counts)]
    heapify(heap)
    order, bound = [], {}  # bound: edge -> its number, as the order first binds it
    while heap:
        i = heappop(heap)[2]
        if width[i]:
            order.append(i)
            width[i] = 0  # visited: an unvisited vertex's width is at least 1
            for e in edges[i]:
                if e not in bound:
                    bound[e] = len(bound)
                    for j in touching[e]:
                        if width[j]:
                            width[j] *= alphabets[e]
                            heappush(heap, (counts[j] / width[j], counts[j], j))
    shape = [alphabets[e] for e in interface]
    st, axes = _strides(shape), [a for a, n in enumerate(shape) if n > 1]  # size 1 adds 0
    join = _join(tuple([tuple(map(bound.get, edges[i])) for i in order]),
                 tuple([bound[interface[a]] for a in axes]))
    return _shared((join, tuple(order), tuple([st[a] for a in axes])))


@cache
def _shared(plan: tuple) -> tuple:
    """The first kept of equal plans, which every ``_brute_plan`` key of them shares."""
    return plan


@cache
def _join(visits: Tuple[Tuple[int, ...], ...], dangling: Tuple[int, ...]):
    """The join of one visiting order, compiled: ``visits`` gives each
    visit's distinct edges and ``dangling`` the interface's (size-1 axes
    left out), each edge numbered as the order first binds it, so no name
    reaches the source.  ``join(f0, ..., one, out, st)`` indexes each
    visit's (key, entry) list by its bound edges, then adds each complete
    assignment's running product into ``out`` at its row-major offset
    (strides ``st``), from generator expressions of ``_STAGE`` visits each,
    chained: their ``for`` clauses, unlike nested statements, nest freely."""
    def tup(xs, bare=False):  # names as a tuple display or target; one name alone if bare
        return xs[0] if bare and len(xs) == 1 else f"({', '.join(xs)}{',' * (len(xs) == 1)})"

    body, clauses, bound = [], [], 0
    for d, edges in enumerate(visits):
        if d and not d % _STAGE:  # the clauses so far yield, to the next stage, what it reads
            later = set(dangling).union(*visits[d:])
            live = tup([f"x{e}" for e in range(bound) if e in later] + [f"t{d - 1}"])
            body.append(f"    s{d} = ({live} {' '.join(clauses)})")
            clauses = [f"for {live} in s{d}"]
        old = [f"x{e}" for e in edges if e < bound]
        new = [f"x{e}" for e in edges if e >= bound]
        bound += len(new)
        item = f"({tup(new, True)}, v{d})" if new else f"v{d}"
        if old:
            body += [f"    i{d} = {{}}", f"    for {tup([f'x{e}' for e in edges])}, v{d} in f{d}: "
                     f"i{d}.setdefault({tup(old, True)}, []).append({item})"]
            clauses.append(f"for {item} in i{d}.get({tup(old, True)}, ())")
        else:
            clauses.append(f"for {tup(new)}, v{d} in f{d}")
        term = f"{f't{d - 1}' if d else 'one'} * v{d}"
        clauses.append(f"for t{d} in ({term},)")
    walk = " ".join(clauses[:-1])  # the last product is summed, not bound
    if dangling:
        offset = " + ".join([f"x{e} * st[{j}]" for j, e in enumerate(dangling)])
        body.append(f"    for k, t in (({offset}, {term}) {walk}): out[k] += t")
    else:
        body.append(f"    out[0] = reduce(add, ({term} {walk}), out[0])")
    params = ", ".join([f"f{d}" for d in range(len(visits))] + ["one", "out", "st"])
    namespace = {"reduce": reduce, "add": add}
    exec(f"def join({params}):\n" + "\n".join(body), namespace)
    return namespace["join"]


def exterior_brute(g: Nfg) -> Tensor:
    """Z_G as a literal sum of products, over the nonzero entries only.

    A join visits the vertices one at a time, each time the one with the
    smallest estimated fan-out (its nonzero count over the alphabet sizes of
    its bound edges; ties on the count, then on insertion order), extending
    an assignment by every nonzero entry that agrees with it on the bound
    edges; a self-loop's two slots must agree.  ``_join`` compiles the walk.
    Interior lists are read reversed, so assignments complete in the order
    a stack of single ones, each pushing its bucket in order, completes
    them: each output cell sums the same products (of int numerators on the
    exact backend) in the same order, so f64 results cannot move by a bit.
    The vertex denominators' product is the result's denominator; an output
    over ``MAX_OUTPUT_CELLS`` cells is refused first.  The order, its
    compiled join and the output strides are kept (``_brute_plan``) per
    wiring (names left out), alphabets, nonzero counts and interface.
    """
    g.check_valid()
    shape = _output_shape(g)
    backend = g.backend()
    zero, one = ZERO_ENTRY[backend], ONE_ENTRY[backend]
    if not g.vertices:
        return Tensor((), backend, dense=[one])

    number: Dict[str, int] = {}  # edge id -> its number, by first appearance
    wiring, loops = _wiring(tuple([tuple([number.setdefault(eid, len(number))
                                          for eid in vtx.ciliation])
                                   for vtx in g.vertices.values()]))
    factors, denom = [], 1  # per vertex, its nonzero (values, entry) pairs
    for vtx, vertex_loops in zip(g.vertices.values(), loops):
        denom *= vtx.tensor.denom
        entries = list(vtx.tensor.nonzeros())
        if vertex_loops:
            pairs, distinct = vertex_loops
            entries = [(distinct(key), v) for key, v in entries
                       if all(key[a] == key[b] for a, b in pairs)]
        if not entries:
            return Tensor(shape, backend, dense=[zero] * prod(shape), denom=denom)
        factors.append(entries)

    alphabets = [g.edges[eid].alphabet for eid in number]
    join, order, st = _brute_plan(wiring, *map(len, factors), *alphabets,
                                  *map(number.get, g.dangling))
    out = [zero] * prod(shape)
    join(*[factors[i][::-1] for i in order[:-1]], factors[order[-1]], one, out, st)
    return Tensor(shape, backend, dense=out, denom=denom)


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
    while f"{base}_f" in g.vertices or f"{base}_g" in g.vertices:
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

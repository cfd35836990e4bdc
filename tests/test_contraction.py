import itertools
import pathlib
import random
import re
import tracemalloc
from functools import reduce
from math import prod
from operator import add
from typing import Dict, List

import pytest

from nfg import contraction, diagrams, dsl, scalars
from nfg import tensor as tensor_module
from nfg.builtins import levi_civita
from nfg.contraction import (
    MAX_OUTPUT_CELLS,
    ContractionPlan,
    exterior_brute,
    exterior_planned,
    group_vertices,
    plan_greedy,
    split_vertex,
)
from nfg.diagrams import (
    check_fig10,
    check_fig11b,
    det_diagram,
    det_oracle,
    pfaffian_diagram,
    pfaffian_factor,
    pfaffian_oracle,
    trace_diagram,
)
from nfg.graph import Nfg, NfgError, Vertex
from nfg.scalars import EXACT, F64
from nfg.suites import rand_mat, rand_skew
from nfg.tensor import ONE_ENTRY, ZERO_ENTRY, Tensor, _getter, pair_contract

from test_tensor import matmul_oracle, to_sparse


def rand_rat(rng: random.Random):
    """A Fraction with numerator rng.randint(-9, 9), then denominator
    rng.randint(1, 9): the draws behind the suites' random inputs."""
    return scalars.rat(rng.randint(-9, 9), rng.randint(1, 9))


def brute_cost(g: Nfg) -> int:
    """Multiplication count of the naive sum of products over every assignment.

    A plan must beat it.  It is not the cost of ``exterior_brute``, which
    enumerates nonzero terms only.
    """
    terms = 1
    for edge in g.edges.values():
        terms *= edge.alphabet
    return max(len(g.vertices) - 1, 1) * terms


def chain_graph(tensors, alphabet):
    """Path graph t0 - t1 - ... with the two end slots dangling."""
    g = Nfg()
    ids = [g.add_vertex(t, f"m{i}") for i, t in enumerate(tensors)]
    for left, right in zip(ids, ids[1:]):
        g.connect((left, 1), (right, 0))
    g.add_dangling((ids[0], 0), name="row")
    g.add_dangling((ids[-1], 1), name="col")
    g.check_valid()
    return g


def test_group_vertices_is_matrix_product():
    rng = random.Random(0)
    a, b = rand_mat(rng, 3, 4), rand_mat(rng, 4, 2)
    g = chain_graph([a, b], 4)
    merged = group_vertices(g, "m0", "m1")
    assert "m1" not in merged.vertices  # merged vertex keeps the first id
    assert merged.vertices["m0"].tensor.equal(matmul_oracle(a, b))
    assert not merged.validate()
    assert exterior_brute(merged).equal(exterior_brute(g))


def test_group_vertices_contracts_all_shared_edges():
    rng = random.Random(1)
    a, b = rand_mat(rng, 3, 3), rand_mat(rng, 3, 3)
    g = Nfg()
    g.add_vertex(a, "a")
    g.add_vertex(b, "b")
    g.connect(("a", 0), ("b", 0))
    g.connect(("a", 1), ("b", 1))
    z = exterior_brute(g)
    merged = group_vertices(g, "a", "b")
    assert len(merged.vertices) == 1
    assert merged.vertices["a"].tensor.rank == 0
    assert exterior_brute(merged).equal(z)


def test_group_requires_distinct_vertices():
    g = trace_diagram(rand_mat(random.Random(2), 2, 2))
    vid = next(iter(g.vertices))
    with pytest.raises(NfgError):
        group_vertices(g, vid, vid)


def test_split_vertex_round_trip():
    rng = random.Random(3)
    a, b = rand_mat(rng, 3, 4), rand_mat(rng, 4, 2)
    g = chain_graph([a, b], 4)
    merged = group_vertices(g, "m0", "m1")
    # open the box back up: ab factors through the shared alphabet 4
    reopened = split_vertex(merged, "m0", a, [0], b, [1], [4])
    assert not reopened.validate()
    assert exterior_brute(reopened).equal(exterior_brute(g))


def test_split_vertex_rejects_wrong_factorization():
    rng = random.Random(4)
    a, b = rand_mat(rng, 2, 2), rand_mat(rng, 2, 2)
    g = chain_graph([a, b], 2)
    merged = group_vertices(g, "m0", "m1")
    wrong = a.scale(2)
    with pytest.raises(NfgError):
        split_vertex(merged, "m0", wrong, [0], b, [1], [2])


def test_exterior_handles_self_loop():
    a = Tensor.from_values((2, 2), [1, 2, 3, 4])
    g = trace_diagram(a)
    assert exterior_brute(g).get(()) == 5
    assert exterior_planned(g).get(()) == 5


def test_greedy_prefers_cheap_pair():
    # path A -(2)- B -(5)- C: grouping (A, B) costs 2*5, grouping (B, C) 2*5*5
    rng = random.Random(5)
    a = rand_mat(rng, 2, 2)
    b = Tensor.from_values((2, 5), range(10))
    c = Tensor.from_values((5, 5), range(25))
    g = Nfg()
    g.add_vertex(a, "A")
    g.add_vertex(b, "B")
    g.add_vertex(c, "C")
    g.connect(("A", 1), ("B", 0))
    g.connect(("B", 1), ("C", 0))
    g.add_dangling(("A", 0))
    g.add_dangling(("C", 1))
    plan = plan_greedy(g)
    assert plan.steps[0] == ("A", "B")
    assert plan.estimated_cost <= brute_cost(g)
    assert exterior_planned(g, plan).equal(exterior_brute(g))


def test_planned_matches_brute_on_pfaffian_diagram():
    g = pfaffian_diagram(rand_skew(random.Random(6), 4))
    assert exterior_planned(g).equal(exterior_brute(g))


def test_planner_cost_below_brute_on_pfaffian_diagram():
    g = pfaffian_diagram(rand_skew(random.Random(7), 6))
    plan = plan_greedy(g)
    assert plan.estimated_cost < brute_cost(g)


# Greedy plans recorded before the planner stopped keeping an edge-to-endpoints
# map beside its vertex-to-edges sets: the steps, their order and the cost.
DET_PLANS = {
    1: ([("a1", "d1"), ("a1", "eps")], 2),
    2: ([("a1", "d1"), ("a1", "eps"), ("a1", "a2"), ("a1", "d2")], 14),
    3: ([("a1", "d1"), ("a2", "d2"), ("a3", "d3"), ("a1", "eps"), ("a1", "a2"),
         ("a1", "a3")], 66),
    4: ([("a1", "d1"), ("a2", "d2"), ("a3", "d3"), ("a4", "d4"), ("a1", "eps"),
         ("a1", "a2"), ("a1", "a3"), ("a1", "a4")], 404),
    5: ([("a1", "d1"), ("a2", "d2"), ("a3", "d3"), ("a4", "d4"), ("a5", "d5"),
         ("a1", "eps"), ("a1", "a2"), ("a1", "a3"), ("a1", "a4"), ("a1", "a5")], 4030),
    6: ([("a1", "d1"), ("a2", "d2"), ("a3", "d3"), ("a4", "d4"), ("a5", "d5"),
         ("a6", "d6"), ("a1", "eps"), ("a1", "a2"), ("a1", "a3"), ("a1", "a4"),
         ("a1", "a5"), ("a1", "a6")], 56202),
}
PFAFFIAN_PLANS = {
    2: ([("a1", "eps")], 4),
    4: ([("a1", "eps"), ("a1", "a2")], 272),
    6: ([("a1", "eps"), ("a1", "a2"), ("a1", "a3")], 47988),
    8: ([("a1", "eps"), ("a1", "a2"), ("a1", "a3"), ("a1", "a4")], 17043520),
    10: ([("a1", "eps"), ("a1", "a2"), ("a1", "a3"), ("a1", "a4"), ("a1", "a5")],
         10101010100),
}


@pytest.mark.parametrize("n", sorted(DET_PLANS))
def test_greedy_plan_of_det_diagram_is_pinned(n):
    plan = plan_greedy(det_diagram(rand_mat(random.Random(n), n, n)))
    assert (plan.steps, plan.estimated_cost) == DET_PLANS[n]


@pytest.mark.parametrize("dim", sorted(PFAFFIAN_PLANS))
def test_greedy_plan_of_pfaffian_diagram_is_pinned(dim):
    plan = plan_greedy(pfaffian_diagram(rand_skew(random.Random(dim), dim)))
    assert (plan.steps, plan.estimated_cost) == PFAFFIAN_PLANS[dim]


def test_greedy_plan_of_planner_corner_cases_is_pinned():
    # the graph of tests/corpus/v09_planner.nfg: a and b share two parallel
    # edges, b has a self-loop beside them, a has a dangling edge, and the
    # ring z - m - c is a second component whose first three pairs tie on cost
    rng = random.Random(9)
    g = Nfg()
    g.add_vertex(_tensor(rng, (2, 2, 2)), "a")
    g.add_vertex(_tensor(rng, (2, 2, 2, 2)), "b")
    for vid in ("z", "m", "c"):
        g.add_vertex(_tensor(rng, (2, 2)), vid)
    g.connect(("a", 1), ("b", 0), name="p1")
    g.connect(("a", 2), ("b", 1), name="p2")
    g.connect(("b", 2), ("b", 3), name="loop")
    g.connect(("z", 1), ("m", 0), name="zm")
    g.connect(("m", 1), ("c", 0), name="mc")
    g.connect(("c", 1), ("z", 0), name="cz")
    g.add_dangling(("a", 0), name="x")
    plan = plan_greedy(g)
    assert (plan.steps, plan.estimated_cost) == ([("c", "m"), ("c", "z"), ("a", "b")], 28)
    assert exterior_planned(g, plan).equal(exterior_brute(g))


def test_exterior_of_disconnected_graph():
    u = Tensor.from_values((2,), [1, 2])
    v = Tensor.from_values((3,), [3, 4, 5])
    g = Nfg()
    g.add_vertex(u, "u")
    g.add_vertex(v, "v")
    g.add_dangling(("u", 0), name="x")
    g.add_dangling(("v", 0), name="y")
    z = exterior_brute(g)
    assert z.shape == (2, 3)
    assert z.get((1, 2)) == 10
    assert exterior_planned(g).equal(z)


def _reshape_split(g, h, rng):
    """Split h exactly: f is a 0/1 tensor flattening h's f_slots into one new
    edge, and g's side holds h's entries, permuted and reshaped to match."""
    t = g.vertices[h].tensor
    slots = list(range(t.rank))
    rng.shuffle(slots)
    cut = rng.randint(1, t.rank - 1)
    f_slots, g_slots = sorted(slots[:cut]), sorted(slots[cut:])
    f_shape = tuple(t.shape[s] for s in f_slots)
    width = 1
    for d in f_shape:
        width *= d
    f_values = [int(flat == col) for flat in range(width) for col in range(width)]
    f = Tensor.from_values(f_shape + (width,), f_values)
    gt = Tensor.from_values((width,) + tuple(t.shape[s] for s in g_slots),
                            t.permute_axes(f_slots + g_slots).values())
    return split_vertex(g, h, f, f_slots, gt, g_slots, [width])


def test_rewrites_rewire_neighbours_and_self_loops():
    from test_acceptance import random_nfg

    rng = random.Random(20261018)
    seen = {"reciliated self-loop": 0, "split self-loop": 0, "split with neighbour": 0}
    for trial in range(50):
        g = random_nfg(rng)
        z = exterior_brute(g)

        def loops(vid):
            cil = g.vertices[vid].ciliation
            return len(cil) != len(set(cil))

        for vid in list(g.vertices):
            order = list(range(len(g.vertices[vid].ciliation)))
            rng.shuffle(order)
            g = g.reciliate(vid, order)
            seen["reciliated self-loop"] += loops(vid)
            assert not g.validate(), f"trial {trial}"
            assert exterior_brute(g).equal(z), f"reciliate trial {trial}"

        wide = sorted(vid for vid, vtx in g.vertices.items() if len(vtx.ciliation) >= 2)
        if not wide:
            continue
        h = rng.choice(wide)
        seen["split self-loop"] += loops(h)
        seen["split with neighbour"] += any(
            vid != h and not set(vtx.ciliation).isdisjoint(g.vertices[h].ciliation)
            for vid, vtx in g.vertices.items())
        g = _reshape_split(g, h, rng)
        assert not g.validate(), f"trial {trial}"
        assert exterior_brute(g).equal(z), f"split trial {trial}"
    assert all(seen.values()), seen


# -- the brute engine against the literal enumeration -------------------------


def literal_exterior(g):
    """Z_G by iterating over all alphabet^E assignments to the edges.

    The brute engine's former body, kept as a test-only route that shares no
    code with the join: for every dangling assignment, every internal
    assignment in lexicographic order adds the product of the stored entries
    it reads; the product of the vertex denominators divides the result.
    """
    g.check_valid()
    backend = g.backend()
    dang = list(g.dangling)
    internal = sorted(eid for eid in g.edges if eid not in g.dangling)
    pos = {eid: i for i, eid in enumerate(dang + internal)}
    sizes = [g.edges[eid].alphabet for eid in dang + internal]
    zero = ZERO_ENTRY[backend]
    factors = []
    denom = 1
    for vtx in g.vertices.values():
        t = vtx.tensor
        denom *= t.denom
        store = t.sparse if t.is_sparse else dict(zip(t.indices(), t.dense))
        factors.append((store, [pos[eid] for eid in vtx.ciliation]))
    nd = len(dang)
    data = []
    for dassign in itertools.product(*(range(s) for s in sizes[:nd])):
        acc = zero
        for iassign in itertools.product(*(range(s) for s in sizes[nd:])):
            assign = dassign + iassign
            term = ONE_ENTRY[backend]
            for store, positions in factors:
                term = term * store.get(tuple(assign[p] for p in positions), zero)
                if not term:
                    break
            acc = acc + term
        data.append(acc)
    if not g.vertices:
        data = [ONE_ENTRY[backend]]
    return Tensor(tuple(sizes[:nd]), backend, dense=data, denom=denom)


def stack_join_exterior(g):
    """Z_G by the brute engine's former walk, kept as a test-only route that
    pins the join order: one partial assignment per stack entry, each
    pushing its index bucket in order, so the last match is extended first.
    Setup, visiting order and index are the engine's, as they were."""
    g.check_valid()
    backend = g.backend()
    zero, one = ZERO_ENTRY[backend], ONE_ENTRY[backend]
    shape = tuple(g.edges[eid].alphabet for eid in g.dangling)
    if not g.vertices:
        return Tensor((), backend, dense=[one])
    factors = []
    denom = 1
    for vtx in g.vertices.values():
        tensor = vtx.tensor
        denom *= tensor.denom
        items = tensor.nonzeros()
        first = {}
        for slot, eid in enumerate(vtx.ciliation):
            first.setdefault(eid, slot)
        loops = [(first[eid], slot) for slot, eid in enumerate(vtx.ciliation)
                 if first[eid] != slot]
        if loops:
            distinct = _getter(list(first.values()))
            entries = [(distinct(key), v) for key, v in items
                       if all(key[a] == key[b] for a, b in loops)]
        else:
            entries = list(items)
        if not entries:
            return Tensor(shape, backend, dense=[zero] * prod(shape), denom=denom)
        factors.append((list(first), entries))

    alphabet = {eid: edge.alphabet for eid, edge in g.edges.items()}
    bound = {}
    steps = []

    def fan_out(i):
        edges, entries = factors[i]
        width = 1
        for eid in edges:
            if eid in bound:
                width *= alphabet[eid]
        return (len(entries) / width, len(entries), i)

    todo = list(range(len(factors)))
    while todo:
        i = min(todo, key=fan_out)
        todo.remove(i)
        edges, entries = factors[i]
        old = [k for k, eid in enumerate(edges) if eid in bound]
        new = [k for k, eid in enumerate(edges) if eid not in bound]
        get_old, get_new = _getter(old), _getter(new)
        index = {}
        for key, v in entries:
            index.setdefault(get_old(key), []).append((get_new(key), v))
        steps.append((_getter([bound[edges[k]] for k in old]), index))
        for k in new:
            bound[edges[k]] = len(bound)

    out = {}
    dangling_values = _getter([bound[eid] for eid in g.dangling])
    last = len(steps) - 1
    stack = [(0, (), one)]
    while stack:
        depth, assign, term = stack.pop()
        look, index = steps[depth]
        matches = index.get(look(assign))
        if not matches:
            continue
        if depth == last:
            for values, v in matches:
                key = dangling_values(assign + values)
                out[key] = out.get(key, zero) + term * v
        else:
            stack.extend((depth + 1, assign + values, term * v) for values, v in matches)
    return Tensor(shape, backend, sparse=out, denom=denom).to_dense()


def on_backend(shape, values, backend):
    """A dense tensor of these rational values on a backend (floats on f64)."""
    if backend == F64:
        values = [float(v) for v in values]
    return Tensor.from_values(shape, values, backend)


def with_storage(g, backend, rng=None, zero_rate=0.0):
    """g over a backend; with rng, each vertex stored dense or sparse at random
    and each of its entries zeroed with probability zero_rate."""
    h = g.copy()
    for vid, vtx in h.vertices.items():
        values = vtx.tensor.values()
        if rng is not None:
            values = [0 if rng.random() < zero_rate else v for v in values]
        t = on_backend(vtx.tensor.shape, values, backend)
        if rng is not None and rng.random() < 0.5:
            t = to_sparse(t)
        h.vertices[vid] = Vertex(t, list(vtx.ciliation))
    return h


def assert_matches_literal(g):
    for backend in (EXACT, F64):
        h = with_storage(g, backend)
        z = exterior_brute(h)
        assert z.shape == h.dangling_shape()
        assert z.equal(literal_exterior(h), tol=1e-12), backend


def test_brute_matches_literal_on_random_graphs():
    from test_acceptance import random_nfg

    rng = random.Random(20261019)
    loops = zeros = 0
    for trial in range(300):
        g = random_nfg(rng)
        loops += any(len(v.ciliation) != len(set(v.ciliation)) for v in g.vertices.values())
        for backend in (EXACT, F64):
            h = with_storage(g, backend, rng, zero_rate=rng.choice([0.0, 0.3, 0.7]))
            z = exterior_brute(h)
            zeros += not any(z.values())
            assert z.equal(literal_exterior(h), tol=1e-12), (trial, backend)
    assert loops and zeros, (loops, zeros)


def _tensor(rng, shape):
    count = 1
    for d in shape:
        count *= d
    return Tensor.from_values(shape, [rand_rat(rng) for _ in range(count)])


def test_brute_two_self_loops_on_one_vertex():
    rng = random.Random(21)
    g = Nfg()
    g.add_vertex(_tensor(rng, (2, 3, 2, 3, 2)), "t")
    g.add_vertex(_tensor(rng, (2, 3)), "m")
    g.connect(("t", 0), ("t", 2))
    g.connect(("t", 3), ("t", 1))
    g.connect(("t", 4), ("m", 0))
    g.add_dangling(("m", 1), name="out")
    assert_matches_literal(g)
    t = g.vertices["t"].tensor
    m = g.vertices["m"].tensor
    for c in range(3):
        expected = sum(t.get((i, j, i, j, k)) * m.get((k, c))
                       for i in range(2) for j in range(3) for k in range(2))
        assert exterior_brute(g).get((c,)) == expected
    # the whole vertex closed on itself: the double trace
    g = Nfg()
    g.add_vertex(_tensor(rng, (3, 2, 2, 3)), "t")
    g.connect(("t", 0), ("t", 3))
    g.connect(("t", 1), ("t", 2))
    assert_matches_literal(g)


def test_brute_rank0_vertices_and_zero_tensors():
    rng = random.Random(22)
    a = _tensor(rng, (2, 3))
    for scalar in (Tensor.from_values((), [rand_rat(rng) or 1]), Tensor.from_values((), [0])):
        g = Nfg()
        g.add_vertex(scalar, "c")
        g.add_vertex(a, "a")
        g.add_dangling(("a", 0))
        g.add_dangling(("a", 1))
        assert_matches_literal(g)
        assert exterior_brute(g).equal(a.scale(scalar.get(())))
    # a dense all-zero tensor and an empty sparse one, each inside a chain
    for zero in (Tensor.from_values((3, 2), [0] * 6), Tensor((3, 2), EXACT, sparse={})):
        g = chain_graph([a, zero], 3)
        assert_matches_literal(g)
        assert not any(exterior_brute(g).values())


def test_brute_empty_graph():
    for g in (Nfg(), Nfg().freeze()):
        z = exterior_brute(g)
        assert z.shape == () and z.get(()) == 1
        assert z.equal(literal_exterior(g))


def test_brute_vertex_with_only_dangling_edges():
    t = _tensor(random.Random(23), (2, 3, 2))
    g = Nfg()
    g.add_vertex(t, "t")
    for slot, name in enumerate("xyz"):
        g.add_dangling(("t", slot), name=name)
    g.set_interface(["y", "z", "x"])
    assert_matches_literal(g)
    assert exterior_brute(g).equal(t.permute_axes([1, 2, 0]))


def test_brute_disconnected_components():
    rng = random.Random(24)
    a, b = rand_mat(rng, 2, 3), rand_mat(rng, 3, 2)
    c = rand_mat(rng, 3, 3)
    u = _tensor(rng, (2,))
    g = Nfg()
    g.add_vertex(a, "a")
    g.add_vertex(b, "b")
    g.add_vertex(c, "c")
    g.add_vertex(u, "u")
    g.connect(("a", 1), ("b", 0))  # a closed matrix cycle: tr(ab)
    g.connect(("b", 1), ("a", 0))
    g.connect(("c", 0), ("c", 1))  # a self-loop alone: tr(c)
    g.add_dangling(("u", 0), name="x")
    assert_matches_literal(g)
    scale = exterior_brute(trace_diagram(matmul_oracle(a, b))).get(()) * \
        exterior_brute(trace_diagram(c)).get(())
    assert exterior_brute(g).equal(u.scale(scale))


@pytest.mark.parametrize("n", range(1, 6))
def test_brute_levi_civita_operands(n):
    rng = random.Random(25 + n)
    for backend in (EXACT, F64):
        # eps(n) against eps(n) on all but one argument (Fig. 8's pattern)
        g = Nfg()
        g.add_vertex(levi_civita(n, backend), "e1")
        g.add_vertex(levi_civita(n, backend), "e2")
        for k in range(n - 1):
            g.connect(("e1", k), ("e2", k))
        g.add_dangling(("e1", n - 1), name="x")
        g.add_dangling(("e2", n - 1), name="y")
        assert exterior_brute(g).equal(literal_exterior(g), tol=1e-12)
        # eps(n) reading a random n x 2 matrix at every argument
        g = Nfg()
        g.add_vertex(levi_civita(n, backend), "eps")
        m = on_backend((n, 2), rand_mat(rng, n, 2).values(), backend)
        for k in range(n):
            g.add_vertex(m, f"m{k}")
            g.connect(("eps", k), (f"m{k}", 0))
            g.add_dangling((f"m{k}", 1))
        assert exterior_brute(g).equal(literal_exterior(g), tol=1e-12)
        if n >= 2:  # a self-loop on epsilon: it alternates, so the trace is zero
            g = Nfg()
            g.add_vertex(levi_civita(n, backend), "eps")
            g.connect(("eps", 0), ("eps", 1))
            for k in range(2, n):
                g.add_dangling(("eps", k))
            z = exterior_brute(g)
            assert z.equal(literal_exterior(g)) and not any(z.values())


def test_brute_pfaffian_2n8_diagram_against_oracle():
    # 8^8 assignments for the literal enumeration; the join reads only the
    # 8! nonzeros of epsilon and the entries of a that agree with them
    a = rand_skew(random.Random(26), 8)
    z = exterior_brute(pfaffian_diagram(a))
    assert z.get(()) == pfaffian_factor(4) * pfaffian_oracle(a)
    assert pfaffian_factor(4) == 24 * 2 ** 4


def test_brute_det_n6_diagram_against_oracle():
    # 6^12 assignments for the literal enumeration
    a = rand_mat(random.Random(27), 6, 6)
    assert exterior_brute(det_diagram(a)).get(()) == det_oracle(a)


# -- the block walk: the stack join's order, bit for bit, in bounded memory ----


def same_bits(a, b):
    """Same shape, backend and denominator, and stored entries of the same
    type and repr each, so that -0.0 and 0.0 differ."""
    return ((a.shape, a.backend, a.denom) == (b.shape, b.backend, b.denom)
            and [(type(x), repr(x)) for x in a.dense] == [(type(x), repr(x)) for x in b.dense])


def _brute_graphs(monkeypatch, check, *args):
    """The graphs a diagrams check hands the brute engine."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(diagrams, "exterior_brute", lambda g: seen.append(g) or exterior_brute(g))
        check(*args)
    return seen


def _join_order_cases(monkeypatch):
    from test_acceptance import random_nfg

    rng = random.Random(20261020)
    for _ in range(60):
        g = random_nfg(rng)
        for backend in (EXACT, F64):
            for zero_rate in (0.0, 0.3, 0.7):
                yield with_storage(g, backend, rng, zero_rate)
    yield from _looped_cases()
    for backend in (EXACT, F64):
        def mat(rows, cols):
            return on_backend((rows, cols), rand_mat(rng, rows, cols).values(), backend)

        for dim in (2, 4, 6):
            yield pfaffian_diagram(on_backend((dim, dim), rand_skew(rng, dim).values(), backend))
        for m, mp in ((1, 1), (2, 3), (4, 2)):
            yield from _brute_graphs(monkeypatch, check_fig10, mat(3, m), mat(3, mp),
                                     mat(3, mp), mat(3, m))
        for m in (1, 3):
            yield from _brute_graphs(monkeypatch, check_fig11b, on_backend(
                (3,), [rand_rat(rng) for _ in range(3)], backend), mat(3, m), mat(3, m))


@pytest.mark.parametrize("block", [None, 1, 2, 3])
def test_brute_matches_stack_join_bit_for_bit(block, monkeypatch):
    """The block walk completes the assignments in the stack join's order, so
    every output entry is the same float (or int) with the same sign of zero;
    small blocks split at every level of the join."""
    import nfg.contraction as contraction

    if block is not None:
        monkeypatch.setattr(contraction, "_BLOCK", block)
    seen = set()
    for g in _join_order_cases(monkeypatch):
        z = exterior_brute(g)
        assert same_bits(z, stack_join_exterior(g)), (block, g.backend(), sorted(g.vertices))
        seen.add((g.backend(), "eps" in g.vertices, bool(z.shape), any(z.values())))
    assert all(len(set(field)) == 2 for field in zip(*seen)), seen  # each kind of case ran


def test_brute_memory_stays_bounded_on_pfaffian_2n8():
    """The walk splits large blocks, so its tracemalloc peak stays near the
    stack join's: under CPython 3.11 about 12.6 MB for the stack join, 15.8 MB
    for blocks of 1,024 and 24 MB for a walk that never splits."""
    g = pfaffian_diagram(rand_skew(random.Random(26), 8))
    tracemalloc.start()
    try:
        exterior_brute(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 18e6, peak


# -- the planned replay: checked first, copies nothing, finishes any prefix ----

CORPUS = pathlib.Path(__file__).parent / "corpus"


def _must_not_run(*args, **kwargs):
    raise AssertionError("a contraction ran before the plan was checked")


def _abc_chain():
    rng = random.Random(30)
    g = Nfg()
    for vid in "abc":
        g.add_vertex(rand_mat(rng, 2, 2), vid)
    g.connect(("a", 1), ("b", 0))
    g.connect(("b", 1), ("c", 0))
    g.add_dangling(("a", 0))
    g.add_dangling(("c", 1))
    return g


@pytest.mark.parametrize("steps", [[("a", "b"), ("b", "c")], [("a", "a")], [("a", "x")]])
def test_plan_is_checked_before_any_contraction(steps, monkeypatch):
    g = _abc_chain()
    monkeypatch.setattr("nfg.contraction.pair_contract", _must_not_run)
    bad = steps[-1]
    with pytest.raises(NfgError, match=re.escape(f"plan step {bad!r} is not replayable")):
        exterior_planned(g, ContractionPlan(steps))


def _dangling_vectors(*sizes):
    """One dangling vector per size, unconnected: an output of prod(sizes) cells."""
    g = Nfg()
    for k, size in enumerate(sizes):
        g.add_dangling((g.add_vertex(Tensor((size,), EXACT, dense=[1] * size), f"v{k}"), 0))
    return g


@pytest.mark.parametrize("engine", [exterior_brute, exterior_planned])
def test_an_output_over_the_limit_is_refused_before_any_vertex_is_read(engine, monkeypatch):
    """2**24 cells, a fully dangling eps(8), is the largest output admitted,
    far above the 2**14 cells of the largest one tier-1 builds; one more is
    refused with no vertex read and no contraction run.  An admitted output
    of 2**24 cells gets as far as its first read or contraction, which the
    stub stops."""
    eps8 = Nfg()
    vid = eps8.add_vertex(levi_civita(8))
    for slot in range(8):
        eps8.add_dangling((vid, slot))
    assert prod(eps8.dangling_shape()) == MAX_OUTPUT_CELLS == 2 ** 24
    monkeypatch.setattr("nfg.contraction.pair_contract", _must_not_run)
    monkeypatch.setattr(Tensor, "nonzeros", _must_not_run)
    with pytest.raises(AssertionError, match="a contraction ran"):
        engine(_dangling_vectors(2 ** 12, 2 ** 12))
    for sizes in ((2 ** 12 + 1, 2 ** 12), (100,) * 6):
        with pytest.raises(NfgError, match=f"^the exterior function would have {prod(sizes)} "
                                           f"cells, over the limit {2 ** 24}$"):
            engine(_dangling_vectors(*sizes))


def test_empty_plan_on_a_connected_chain_is_the_matrix_product():
    rng = random.Random(31)
    a, b = rand_mat(rng, 3, 4), rand_mat(rng, 4, 2)
    z = exterior_planned(chain_graph([a, b], 4), ContractionPlan([]))
    assert z.shape == (3, 2) and z.equal(matmul_oracle(a, b))


def _prefix_cases():
    from test_acceptance import random_nfg

    rng = random.Random(32)
    for _ in range(60):
        g = random_nfg(rng)
        yield g
        yield with_storage(g, F64)
    for n in range(1, 5):
        a = rand_mat(rng, n, n)
        yield det_diagram(a)
        yield det_diagram(on_backend(a.shape, a.values(), F64))
    for dim in (2, 4, 6):
        a = rand_skew(rng, dim)
        yield pfaffian_diagram(a)
        yield pfaffian_diagram(on_backend(a.shape, a.values(), F64))


def test_every_prefix_of_the_greedy_plan_is_finished_in_id_order():
    """A plan that stops early leaves the rest to the id-order join; the
    value is the same (exactly on exact, within 1e-9 on f64)."""
    backends = set()
    for g in _prefix_cases():
        z = exterior_brute(g)
        steps = plan_greedy(g).steps
        for k in range(len(steps) + 1):
            out = exterior_planned(g, ContractionPlan(steps[:k]))
            assert out.shape == z.shape and out.equal(z, tol=1e-9), (k, steps)
        backends.add(g.backend())
    assert backends == {EXACT, F64}


def _snapshot(g):
    """Every vertex object, ciliation, edge and the interface, as they are now."""
    return ([(vid, id(vtx), list(vtx.ciliation)) for vid, vtx in g.vertices.items()],
            dict(g.edges), list(g.dangling))


def test_planned_contraction_copies_and_changes_nothing(monkeypatch):
    copies = []
    original = Nfg.copy
    monkeypatch.setattr(Nfg, "copy", lambda self: copies.append(self) or original(self))
    rng = random.Random(33)
    planner = dsl.parse((CORPUS / "v09_planner.nfg").read_text()).graphs["p"]
    for g in (pfaffian_diagram(rand_skew(rng, 6)), det_diagram(rand_mat(rng, 4, 4)), planner):
        before = _snapshot(g)
        steps = plan_greedy(g).steps
        for plan in (ContractionPlan(steps), None, ContractionPlan(steps[:1])):
            exterior_planned(g, plan)
        assert copies == [] and _snapshot(g) == before
        # the public one-step rewrite makes one copy and leaves its input as it was
        merged = group_vertices(g, *steps[0])
        assert copies == [g] and steps[0][1] not in merged.vertices
        assert _snapshot(g) == before
        copies.clear()


# -- self-loops are summed out before the first grouping step ------------------


def _looped_nfg(rng):
    """A random tree of one to four vertices, each with up to two self-loops
    and maybe a dangling edge, every slot order shuffled (alphabets 1-3)."""
    vids = [f"v{i}" for i in range(rng.randint(1, 4))]
    slots = {vid: [] for vid in vids}  # vid -> the edges on its slots
    edges = []  # edge -> alphabet

    def edge(*ends):
        edges.append(rng.randint(1, 3))
        for vid in ends:
            slots[vid].append(len(edges) - 1)

    for i in range(1, len(vids)):
        edge(vids[rng.randrange(i)], vids[i])
    for vid in vids:
        for _ in range(rng.choice([0, 1, 1, 2])):
            edge(vid, vid)
        if rng.random() < 0.4:
            edge(vid)
    g = Nfg()
    ports = {}  # edge -> its ports
    for vid in vids:
        rng.shuffle(slots[vid])
        g.add_vertex(_tensor(rng, tuple(edges[e] for e in slots[vid])), vid)
        for slot, e in enumerate(slots[vid]):
            ports.setdefault(e, []).append((vid, slot))
    for e in range(len(edges)):
        if len(ports[e]) == 2:
            g.connect(*ports[e])
        else:
            g.add_dangling(ports[e][0])
    g.check_valid()
    return g


def _eps_with_loop(rng, backend):
    """eps(n) with a loop on two of its slots, every other slot read by a
    vector or left dangling."""
    n = rng.randint(2, 4)
    g = Nfg(backend)
    g.add_vertex(levi_civita(n, backend), "eps")
    a, b = rng.sample(range(n), 2)
    g.connect(("eps", a), ("eps", b))
    for slot in sorted(set(range(n)) - {a, b}):
        if rng.random() < 0.5:
            g.add_dangling(("eps", slot))
        else:
            vid = g.add_vertex(on_backend((n,), [rand_rat(rng) for _ in range(n)], backend))
            g.connect(("eps", slot), (vid, 0))
    g.check_valid()
    return g


def _looped_cases():
    rng = random.Random(34)
    for _ in range(80):
        g = _looped_nfg(rng)
        for backend in (EXACT, F64):
            yield with_storage(g, backend, rng, zero_rate=rng.choice([0.0, 0.3]))
    for _ in range(6):
        for backend in (EXACT, F64):
            yield _eps_with_loop(rng, backend)


def _loop_counts(g):
    return {vid: len(vtx.ciliation) - len(set(vtx.ciliation)) for vid, vtx in g.vertices.items()}


def test_planned_matches_brute_on_graphs_with_self_loops():
    """Every prefix of the greedy plan, the empty plan included, leaves some
    looped vertices to the id-order join; the value is the same (exactly on
    exact, within 1e-9 on f64)."""
    seen = set()
    for g in _looped_cases():
        loops = _loop_counts(g)
        z = exterior_brute(g)
        steps = plan_greedy(g).steps
        for plan in [None] + [ContractionPlan(steps[:k]) for k in range(len(steps) + 1)]:
            out = exterior_planned(g, plan)
            assert out.shape == z.shape and out.equal(z, tol=1e-9), (g.backend(), steps)
        if any(loops.values()):
            seen.add("one vertex" if len(loops) == 1 else "tadpole")
        if max(loops.values()) > 1:
            seen.add("two loops on one vertex")
        if "eps" in g.vertices:
            seen.add("loop on eps")
        seen.add(g.backend())
    assert seen == {"one vertex", "tadpole", "two loops on one vertex", "loop on eps",
                    EXACT, F64}, seen


def test_no_grouping_step_carries_a_self_loop(monkeypatch):
    """A recorder on the step contraction: neither operand's vertex has an
    edge id on two slots, also when the plan groups a looped vertex."""
    import nfg.contraction as contraction

    ciliations = {}  # id(tensor) -> (tensor, ciliation) of every vertex a step may read

    def vertex(tensor, ciliation):
        ciliations[id(tensor)] = (tensor, list(ciliation))
        return Vertex(tensor, ciliation)

    def record(f, f_axes, g, g_axes):
        for t in (f, g):
            _, ciliation = ciliations[id(t)]
            assert len(set(ciliation)) == len(ciliation), ciliation
        return pair_contract(f, f_axes, g, g_axes)

    monkeypatch.setattr(contraction, "Vertex", vertex)
    monkeypatch.setattr(contraction, "pair_contract", record)
    looped_steps = 0
    for g in _looped_cases():
        ciliations.clear()
        for vtx in g.vertices.values():
            vertex(vtx.tensor, vtx.ciliation)
        loops = _loop_counts(g)
        plan = plan_greedy(g)
        looped_steps += sum(bool(loops[u] or loops[v]) for u, v in plan.steps)
        exterior_planned(g, plan)
        exterior_planned(g, ContractionPlan([]))
    assert looped_steps


# -- kept wiring plans: the engine against its former self --------------------


def parent_exterior_brute(g):
    """The brute engine as it was before its wiring plans were kept: every
    call reads each vertex, picks the order and builds every getter.  Kept
    verbatim (its docstring aside) as the reference the engine must match
    byte for byte on exact and bit for bit on f64."""
    g.check_valid()
    shape = contraction._output_shape(g)
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
        if len(block) > contraction._BLOCK:
            blocks += [(depth, block[s:s + contraction._BLOCK])
                       for s in reversed(range(0, len(block), contraction._BLOCK))]
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


def _corpus_graphs():
    for path in sorted(CORPUS.glob("v*.nfg")):
        for backend in (EXACT, F64):
            yield from dsl.parse(path.read_text(encoding="utf-8"), backend).graphs.values()


def _mixed_graphs(backend):
    """120 random graphs of mixed storage kinds over a backend; in every
    tenth, one vertex has no nonzero entry."""
    from test_acceptance import random_nfg

    rng = random.Random(3500 + (backend == F64))
    for trial in range(120):
        g = random_nfg(rng, max_alphabet=4, max_degree=4, mixed=True, backend=backend)
        if trial % 10 == 0:
            vid = rng.choice(sorted(g.vertices))
            g.vertices[vid] = Vertex(g.vertices[vid].tensor.scale(0), g.vertices[vid].ciliation)
        yield g


def test_brute_matches_the_parent_engine_byte_for_byte():
    """On every corpus graph, 120 mixed random graphs per backend and the
    looped cases, the result has the parent engine's shape, denominator and
    stored entries, each of the same type and repr (so f64 bits and the sign
    of zero agree)."""
    kinds = set()
    graphs = itertools.chain(_corpus_graphs(), _mixed_graphs(EXACT), _mixed_graphs(F64),
                             _looped_cases())
    for k, g in enumerate(graphs):
        got = exterior_brute(g)
        assert same_bits(got, parent_exterior_brute(g)), (k, g.backend(), sorted(g.vertices))
        kinds.add(g.backend())
        kinds.add("loop" if any(_loop_counts(g).values()) else "no loop")
        kinds.add("zero" if not any(got.dense) else "nonzero")
        kinds.add("empty vertex" if any(not any(True for _ in vtx.tensor.nonzeros())
                                        for vtx in g.vertices.values()) else "full")
    assert kinds == {EXACT, F64, "loop", "no loop", "zero", "nonzero", "empty vertex", "full"}


def _four_kinds(prefix, rng, backend):
    """A dense matrix, a scaled eps(3), a sparse matrix and a dense rank-3
    vertex with a self-loop, two dangling edges, every vertex and edge name
    starting with prefix; all stored entries nonzero, so the nonzero counts,
    hence the visiting order, do not depend on rng."""
    def dense(*shape):
        return on_backend(shape, [rng.randint(1, 9) for _ in range(prod(shape))], backend)

    g = Nfg(backend)
    a = g.add_vertex(dense(3, 3), prefix + "a")
    eps = g.add_vertex(levi_civita(3, backend).scale(rng.randint(1, 9)), prefix + "eps")
    s = g.add_vertex(to_sparse(on_backend((3, 3), [1, 0, 0, 0, 0, rng.randint(1, 9), 0, 2, 0],
                                          backend)), prefix + "s")
    loop = g.add_vertex(dense(3, 3, 3), prefix + "loop")
    g.add_dangling((a, 0), prefix + "x")
    g.connect((a, 1), (eps, 0), prefix + "b")
    g.connect((eps, 1), (s, 0), prefix + "c")
    g.connect((eps, 2), (loop, 2), prefix + "d")
    g.connect((loop, 0), (loop, 1), prefix + "l")
    g.add_dangling((s, 1), prefix + "y")
    return g


def test_a_warm_brute_call_builds_no_getter_and_no_index_tuple(monkeypatch):
    """Once a wiring has been joined, joining it again under other vertex and
    edge names and other entries calls ``_getter`` 0 times, lists no index
    through ``itertools.product`` or ``permutations`` (dense and ``alt``
    vertices are read through kept tables), and keeps nothing new."""
    caches = (contraction._wiring, contraction._join_plan,
              tensor_module._index_table, tensor_module._ordering_table)
    for backend in (EXACT, F64):
        rng = random.Random(35)
        exterior_brute(_four_kinds("", rng, backend))
        g = _four_kinds("other_", rng, backend)
        want = parent_exterior_brute(g)
        warm = [c.cache_info().currsize for c in caches]
        calls = []
        with monkeypatch.context() as m:
            getter = tensor_module._getter
            for owner in (contraction, tensor_module):
                m.setattr(owner, "_getter", lambda idx: calls.append("_getter") or getter(idx))
            for name in ("product", "permutations"):
                m.setattr(itertools, name,
                          lambda *a, f=getattr(itertools, name), name=name: calls.append(name) or f(*a))
            got = exterior_brute(g)
        assert calls == []
        assert [c.cache_info().currsize for c in caches] == warm
        assert same_bits(got, want) and any(got.dense)


import itertools
import pathlib
import random
import re

import pytest

from nfg import dsl
from nfg.builtins import levi_civita
from nfg.contraction import (
    ContractionPlan,
    exterior_brute,
    exterior_planned,
    group_vertices,
    plan_greedy,
    split_vertex,
)
from nfg.diagrams import (
    det_diagram,
    det_oracle,
    matmul_oracle,
    pfaffian_diagram,
    pfaffian_factor,
    pfaffian_oracle,
    trace_diagram,
)
from nfg.graph import Nfg, NfgError, Vertex
from nfg.scalars import EXACT, F64
from nfg.suites import rand_mat, rand_rat, rand_skew
from nfg.tensor import ONE_ENTRY, ZERO_ENTRY, Tensor, pair_contract


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


def test_plan_text_round_trip():
    plan = ContractionPlan(steps=[("a", "b"), ("a", "c")], estimated_cost=42)
    text = plan.to_text()
    back = ContractionPlan.from_text(text)
    assert back.steps == plan.steps


def test_plan_text_ignores_comments_and_blanks():
    text = "# a plan\n\na b\n  a c  \n"
    assert ContractionPlan.from_text(text).steps == [("a", "b"), ("a", "c")]


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
            t = t.to_sparse()
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

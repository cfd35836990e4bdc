import random

import pytest

from nfg.contraction import (
    ContractionPlan,
    brute_cost,
    exterior_brute,
    exterior_planned,
    group_vertices,
    plan_greedy,
    split_vertex,
)
from nfg.diagrams import matmul_oracle, pfaffian_diagram, trace_diagram
from nfg.graph import Nfg, NfgError
from nfg.suites import rand_mat, rand_skew
from nfg.tensor import Tensor


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
            len({p.vertex for p in g.edges[eid].endpoints}) == 2
            for eid in g.vertices[h].ciliation)
        g = _reshape_split(g, h, rng)
        assert not g.validate(), f"trial {trial}"
        assert exterior_brute(g).equal(z), f"split trial {trial}"
    assert all(seen.values()), seen

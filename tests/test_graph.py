import random
import re

import pytest

from nfg.contraction import exterior_brute
from nfg.graph import Edge, FrozenNfgError, Nfg, NfgError, Vertex
from nfg.scalars import F64
from nfg.suites import rand_mat
from nfg.tensor import Tensor

from test_tensor import matmul_oracle


def matmul_graph(a, b, a_row_slot, a_mid_slot, b_mid_slot, b_col_slot):
    """Two matrices joined on one edge; dangling order (row, column)."""
    g = Nfg()
    g.add_vertex(a, "a")
    g.add_vertex(b, "b")
    g.connect(("a", a_mid_slot), ("b", b_mid_slot), name="mid")
    g.add_dangling(("a", a_row_slot), name="r")
    g.add_dangling(("b", b_col_slot), name="c")
    g.check_valid()
    return g


def test_connect_infers_alphabet_and_validates():
    rng = random.Random(0)
    a, b = rand_mat(rng, 2, 3), rand_mat(rng, 3, 2)
    g = matmul_graph(a, b, 0, 1, 0, 1)
    assert g.edges["mid"].alphabet == 3
    assert g.dangling_shape() == (2, 2)


def test_ciliation_quadruple():
    # the four ciliation choices of a two-matrix chain
    rng = random.Random(1)
    a, b = rand_mat(rng, 3, 3), rand_mat(rng, 3, 3)
    at, bt = a.permute_axes([1, 0]), b.permute_axes([1, 0])
    ab = matmul_oracle(a, b)
    cases = [
        (matmul_graph(a, b, 0, 1, 0, 1), ab),                      # A B
        (matmul_graph(a, b, 0, 1, 1, 0), matmul_oracle(a, bt)),    # A B^T
        (matmul_graph(a, b, 1, 0, 1, 0), matmul_oracle(at, bt)),   # A^T B^T
        (matmul_graph(a, b, 1, 0, 0, 1), matmul_oracle(at, b)),    # A^T B
    ]
    for g, expected in cases:
        assert exterior_brute(g).equal(expected)


def test_interface_order_defines_axis_order():
    rng = random.Random(2)
    a, b = rand_mat(rng, 2, 3), rand_mat(rng, 3, 4)
    g = matmul_graph(a, b, 0, 1, 0, 1)
    z = exterior_brute(g)
    g.set_interface(["c", "r"])
    zt = exterior_brute(g)
    assert zt.shape == (4, 2)
    assert zt.equal(z.permute_axes([1, 0]))


def test_set_interface_rejects_non_permutation():
    g = matmul_graph(rand_mat(random.Random(3), 2, 2),
                     rand_mat(random.Random(4), 2, 2), 0, 1, 0, 1)
    with pytest.raises(NfgError):
        g.set_interface(["r"])
    with pytest.raises(NfgError):
        g.set_interface(["r", "mid"])


def test_port_reuse_rejected():
    g = Nfg()
    g.add_vertex(Tensor.from_values((2, 2), [1, 0, 0, 1]), "a")
    g.add_dangling(("a", 0))
    with pytest.raises(NfgError):
        g.add_dangling(("a", 0))


def test_connect_refuses_the_same_port_twice():
    """The second claim of the port refuses it as in use and frees the first."""
    g = Nfg()
    g.add_vertex(Tensor.from_values((2, 2), [1, 0, 0, 1]), "a")
    with pytest.raises(NfgError, match=re.escape("port ('a', 0) already in use")):
        g.connect(("a", 0), ("a", 0), name="l")
    assert g.vertices["a"].ciliation == [None, None] and not g.edges
    g.connect(("a", 0), ("a", 1), name="l")


def test_alphabet_mismatch_rejected():
    g = Nfg()
    g.add_vertex(Tensor.from_values((2,), [1, 0]), "a")
    g.add_vertex(Tensor.from_values((3,), [1, 0, 0]), "b")
    with pytest.raises(NfgError):
        g.connect(("a", 0), ("b", 0))


def test_validate_reports_uncovered_port():
    g = Nfg()
    g.add_vertex(Tensor.from_values((2,), [1, 0]), "a")
    violations = g.validate()
    assert any("uncovered port" in v for v in violations)


def test_validate_reports_mixed_backends():
    g = Nfg()
    g.add_vertex(Tensor.from_values((2,), [1, 0]), "a")
    g.add_vertex(Tensor.from_values((2,), [1.0, 0.0], backend=F64), "b")
    g.connect(("a", 0), ("b", 0))
    assert any("mixed scalar backends" in v for v in g.validate())


def _corrupt(g, kind):
    """Break one invariant of matmul_graph's output by editing its dicts directly."""
    a = g.vertices["a"]
    if kind == "rank":
        g.vertices["a"] = Vertex(Tensor.from_values((2, 3, 1), [0] * 6), a.ciliation)
    elif kind == "uncovered":
        a.ciliation[0] = None
    elif kind == "unknown edge":
        a.ciliation[0] = "nowhere"
    elif kind == "no port":
        g.edges["idle"] = Edge("idle", 2)
    elif kind == "three ports":
        g.vertices["c"] = Vertex(Tensor.from_values((3,), [1, 2, 3]), ["mid"])
    elif kind == "alphabet":
        g.edges["mid"] = Edge("mid", 4)
    elif kind == "missing from interface":
        g.dangling.remove("r")
    elif kind == "internal in interface":
        g.dangling.append("mid")
    elif kind == "unknown in interface":
        g.dangling.append("nowhere")
    elif kind == "listed twice":
        g.dangling.append("r")
    elif kind == "mixed":
        g.vertices["a"] = Vertex(Tensor.from_values((2, 3), [0.5] * 6, backend=F64), a.ciliation)


VIOLATIONS = {
    "rank": "vertex 'a' rank 3 != degree 2",
    "uncovered": "uncovered port ('a', 0)",
    "unknown edge": "vertex 'a' slot 0 names unknown edge 'nowhere'",
    "no port": "edge 'idle' sits on 0 ports",
    "three ports": "edge 'mid' sits on 3 ports",
    "alphabet": "alphabet mismatch on edge 'mid': size 4 vs axis 3 at ('a', 1)",
    "missing from interface": "dangling edge 'r' missing from the interface order",
    "internal in interface": "interface lists non-dangling edge 'mid'",
    "unknown in interface": "interface lists non-dangling edge 'nowhere'",
    "listed twice": "interface lists edge 'r' twice",
    "mixed": "mixed scalar backends: ['exact', 'f64']",
}


@pytest.mark.parametrize("kind", VIOLATIONS)
def test_validate_reports_each_corruption(kind):
    rng = random.Random(8)
    g = matmul_graph(rand_mat(rng, 2, 3), rand_mat(rng, 3, 2), 0, 1, 0, 1)
    _corrupt(g, kind)
    assert VIOLATIONS[kind] in g.validate()
    with pytest.raises(NfgError, match=re.escape(VIOLATIONS[kind])):
        g.check_valid()


def test_freeze_blocks_mutation():
    g = Nfg()
    g.add_vertex(Tensor.from_values((2,), [1, 0]), "a")
    g.freeze()
    with pytest.raises(FrozenNfgError):
        g.add_vertex(Tensor.from_values((2,), [1, 0]), "b")
    h = g.copy()
    h.add_vertex(Tensor.from_values((2,), [1, 0]), "b")  # copies are mutable


def test_reciliate_preserves_exterior():
    rng = random.Random(5)
    a, b = rand_mat(rng, 3, 3), rand_mat(rng, 3, 3)
    g = matmul_graph(a, b, 0, 1, 0, 1)
    z = exterior_brute(g)
    for vid in ("a", "b"):
        g2 = g.reciliate(vid, [1, 0])
        assert not g2.validate()
        assert exterior_brute(g2).equal(z)
    # reciliating both back and forth is still invariant
    g3 = g.reciliate("a", [1, 0]).reciliate("a", [1, 0])
    assert exterior_brute(g3).equal(z)


def test_reciliate_rejects_bad_order():
    g = matmul_graph(rand_mat(random.Random(6), 2, 2),
                     rand_mat(random.Random(7), 2, 2), 0, 1, 0, 1)
    with pytest.raises(NfgError):
        g.reciliate("a", [0, 0])

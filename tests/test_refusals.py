"""Every input refusal that no other test reaches, one row each: the call,
the exact exception type, and its whole message.  Each row builds what it
refuses from small valid parts, so the refusal, not an earlier one, fires."""

import pytest

from nfg.algebra import CompoundNfg
from nfg.builtins import tau
from nfg.contraction import group_vertices, split_vertex
from nfg.diagrams import (
    check_fig10,
    check_fig11b,
    check_triple_product,
    cross_diagram,
    det_diagram,
    insert_delta2,
)
from nfg.graph import Nfg, NfgError
from nfg.scalars import EXACT, F64, BackendMismatch, check_backend, coerce
from nfg.suites import SUITES, run_suite
from nfg.tensor import Tensor, TensorError, pair_contract


def vec(n, backend=EXACT):
    return Tensor.from_values((n,), list(range(1, n + 1)), backend)


def mat(rows, cols):
    return Tensor.from_values((rows, cols), list(range(rows * cols)))


def pair_graph() -> Nfg:
    """Two 2 x 2 matrices a and b joined by edge "e", each with a dangling slot."""
    g = Nfg()
    g.add_vertex(mat(2, 2), "a")
    g.add_vertex(mat(2, 2), "b")
    g.connect(("a", 1), ("b", 0), name="e")
    g.add_dangling(("a", 0), name="x")
    g.add_dangling(("b", 1), name="y")
    return g


def split_a(f, f_slots, gt, g_slots, shared):
    return split_vertex(pair_graph(), "a", f, f_slots, gt, g_slots, shared)


REFUSALS = [
    # tensor.py: construction, comparison, axis surgery and pair contraction
    ("alphabet size", lambda: Tensor((2, 0), EXACT, dense=[]),
     TensorError, "alphabet sizes must be positive integers, got 0"),
    ("no storage", lambda: Tensor((2,), EXACT),
     TensorError, "exactly one of dense/sparse/alt storage must be given"),
    ("two storages", lambda: Tensor((1,), EXACT, dense=[1], sparse={(0,): 1}),
     TensorError, "exactly one of dense/sparse/alt storage must be given"),
    ("dense length", lambda: Tensor((2,), EXACT, dense=[1]),
     TensorError, "dense storage length 1 != element count 2"),
    ("add shapes", lambda: vec(2).add(vec(3)), TensorError, "shape mismatch: [2] vs [3]"),
    ("permutation", lambda: mat(2, 2).permute_axes([0, 0]),
     TensorError, "[0, 0] is not a permutation of the axes"),
    ("axis lists", lambda: pair_contract(vec(2), [0], vec(2), []),
     TensorError, "axis lists must have equal length"),
    ("duplicate axis", lambda: pair_contract(mat(2, 2), [0, 0], mat(2, 2), [0, 1]),
     TensorError, "duplicate axis in [0, 0]"),
    ("contract backends", lambda: pair_contract(vec(2), [0], vec(2, F64), [0]),
     BackendMismatch, "backend mismatch: exact vs f64"),
    # contraction.py: rewrites
    ("group unknown", lambda: group_vertices(pair_graph(), "a", "z"),
     NfgError, "unknown vertex 'z'"),
    ("split unknown", lambda: split_vertex(pair_graph(), "z", vec(2), [0], vec(2), [1], []),
     NfgError, "unknown vertex 'z'"),
    ("split partition", lambda: split_a(vec(2), [0], vec(2), [0], []),
     NfgError, "f_slots [0] and g_slots [0] do not partition 0..1"),
    ("split ranks", lambda: split_a(vec(2), [0], vec(2), [1], [2]),
     NfgError, "factor ranks do not match the slot partition plus shared edges"),
    ("split alphabets", lambda: split_a(mat(2, 3), [0], mat(2, 2), [1], [2]),
     NfgError, "shared alphabets do not match factor axis sizes"),
    # graph.py: ports and rewrites
    ("port vertex", lambda: Nfg().add_dangling(("z", 0)), NfgError, "unknown vertex 'z'"),
    ("port slot", lambda: pair_graph().connect(("a", 2), ("b", 1)),
     NfgError, "slot 2 out of range for vertex 'a' of degree 2"),
    ("reciliate unknown", lambda: pair_graph().reciliate("z", [1, 0]),
     NfgError, "unknown vertex 'z'"),
    # algebra.py, builtins.py, suites.py
    ("empty compound", lambda: CompoundNfg([], ()),
     NfgError, "a compound NFG needs at least one term"),
    ("tau", lambda: tau(0), ValueError, "n must be positive"),
    ("suite", lambda: run_suite("nope"),
     KeyError, f"unknown suite 'nope'; choose from {sorted(SUITES)}"),
    # scalars.py
    ("exact type", lambda: coerce(EXACT, [1]),
     BackendMismatch, "cannot admit list into the exact backend"),
    ("f64 bool", lambda: coerce(F64, True), BackendMismatch, "bool is not a float64 scalar"),
    ("f64 type", lambda: coerce(F64, "1"),
     BackendMismatch, "cannot admit str into the float backend"),
    ("coerce backend", lambda: coerce("f32", 1), ValueError, "unknown backend 'f32'"),
    ("check backend", lambda: check_backend("f32"), ValueError, "unknown backend 'f32'"),
    # diagrams.py
    ("det(ab)", lambda: det_diagram(mat(2, 2), mat(3, 3)),
     NfgError, "alphabet 2 does not match axis size 3 at (\"a1'\", 0)"),
    ("cross", lambda: cross_diagram(vec(3), vec(2)),
     NfgError, "cross product needs two length-3 vectors"),
    ("three rows", lambda: check_fig10(mat(3, 2), mat(2, 2), mat(3, 2), mat(3, 2)),
     NfgError, "fig10 needs rank-2 tensors with 3 rows"),
    ("fig10 columns", lambda: check_fig10(mat(3, 2), mat(3, 2), mat(3, 2), mat(3, 3)),
     NfgError, "fig10 needs the column counts of A,D and of B,C to agree"),
    ("fig11b vector", lambda: check_fig11b(vec(2), mat(3, 2), mat(3, 2)),
     NfgError, "fig11b needs a length-3 vector a1"),
    ("fig11b columns", lambda: check_fig11b(vec(3), mat(3, 2), mat(3, 3)),
     NfgError, "fig11b needs the column counts of B and C to agree"),
    ("triple", lambda: check_triple_product(vec(3), vec(2), vec(3)),
     NfgError, "triple product needs three length-3 vectors"),
    ("delta edge", lambda: insert_delta2(pair_graph(), "z"), NfgError, "unknown edge 'z'"),
]


@pytest.mark.parametrize("call, kind, message", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal_has_its_type_and_message(call, kind, message):
    with pytest.raises(Exception) as exc:
        call()
    assert (type(exc.value), exc.value.args) == (kind, (message,))


def test_split_vertex_picks_ids_that_are_not_taken():
    """The halves of vertex h are h_f and h_g, with h grown by "_" until
    neither is a vertex id already."""
    g = pair_graph()
    g.add_vertex(vec(2), "a_f")
    g.add_vertex(vec(2), "a__g")
    g.connect(("a_f", 0), ("a__g", 0))
    identity = Tensor.from_values((2, 2), [1, 0, 0, 1])
    split = split_vertex(g, "a", mat(2, 2), [0], identity, [1], [2])
    assert sorted(split.vertices) == ["a___f", "a___g", "a__g", "a_f", "b"]
    assert not split.validate()

import re

import pytest

from nfg.builtins import levi_civita
from nfg.scalars import EXACT, F64, BackendMismatch, rat
from nfg.tensor import Tensor, TensorError, pair_contract


def mat(values, rows, cols):
    return Tensor.from_values((rows, cols), values)


def to_sparse(t):
    """t with sparse storage: its nonzero cells over the same denominator."""
    return Tensor(t.shape, t.backend, sparse=dict(t.nonzeros()), denom=t.denom)


def test_from_values_shape_check():
    with pytest.raises(TensorError):
        Tensor.from_values((2, 2), [1, 2, 3])


def test_get_row_major_order():
    t = mat([1, 2, 3, 4, 5, 6], 2, 3)
    assert t.get((0, 0)) == rat(1)
    assert t.get((0, 2)) == rat(3)
    assert t.get((1, 0)) == rat(4)


def test_get_reads_every_cell_and_rejects_bad_indices():
    t = Tensor.from_values((2, 3, 4), range(24))
    cells = list(t.indices())
    for storage in (t, to_sparse(t)):
        assert [storage.get(x) for x in cells] == list(range(24))
        for bad, message in (((1, 2), "index rank 2 != tensor rank 3"),
                             ((1, 2, 3, 0), "index rank 4 != tensor rank 3"),
                             ((0, 3, 0), r"index \[0, 3, 0\] out of bounds for shape \[2, 3, 4\]"),
                             ((-1, 0, 0), r"index \[-1, 0, 0\] out of bounds"),
                             ((0, 0, 4), r"index \[0, 0, 4\] out of bounds")):
            with pytest.raises(TensorError, match=message):
                storage.get(bad)


def test_rank0():
    t = Tensor.from_values((), [rat(7, 2)])
    assert t.get(()) == rat(7, 2)


def test_sparse_dense_round_trip():
    t = to_sparse(mat([0, rat(5), rat(-1, 3), 0], 2, 2))
    d = t.to_dense()
    assert d.get((0, 1)) == rat(5)
    assert d.get((0, 0)) == rat(0)
    s = to_sparse(d)
    assert s.equal(t)
    assert set(s.sparse.keys()) == {(0, 1), (1, 0)}


def test_equal_across_storage():
    a = mat([0, 1, 2, 0], 2, 2)
    b = to_sparse(a)
    assert a.equal(b)
    assert b.equal(a)


def test_scale_add_neg():
    a = mat([1, 2, 3, 4], 2, 2)
    b = a.scale(rat(2))
    assert b.get((1, 1)) == rat(8)
    z = a.add(a.scale(-1))
    assert z.equal(mat([0, 0, 0, 0], 2, 2))


def test_backend_mismatch_on_add():
    a = mat([1, 2, 3, 4], 2, 2)
    b = Tensor.from_values((2, 2), [1.0, 2.0, 3.0, 4.0], backend=F64)
    with pytest.raises(BackendMismatch):
        a.add(b)


def test_permute_axes():
    t = mat([1, 2, 3, 4, 5, 6], 2, 3)
    tt = t.permute_axes([1, 0])
    assert tt.shape == (3, 2)
    for i in range(2):
        for j in range(3):
            assert tt.get((j, i)) == t.get((i, j))


def test_permute_axes_sparse():
    t = to_sparse(mat([0, 0, rat(9), 0, 0, 0], 2, 3))
    tt = t.permute_axes([1, 0])
    assert tt.get((2, 0)) == rat(9)


def test_trace_axes():
    t = mat([1, 2, 3, 4], 2, 2)
    tr = t.trace_axes(0, 1)
    assert tr.shape == ()
    assert tr.get(()) == rat(5)


@pytest.mark.parametrize("sparse", [True, False])
def test_trace_axes_keeps_storage_kind(sparse):
    t = Tensor.from_values((2, 3, 2), list(range(12)))
    t = to_sparse(t) if sparse else t
    tr = t.trace_axes(0, 2)
    assert tr.is_sparse == sparse
    assert tr.values() == [rat(7), rat(11), rat(15)]


def test_trace_axes_of_different_sizes_is_refused_by_pair_contract():
    t = Tensor.from_values((2, 3), list(range(6)))
    with pytest.raises(TensorError, match="paired axes disagree on alphabet size: 3 vs 2"):
        t.trace_axes(0, 1)


@pytest.mark.parametrize("axes", [(5, 0), (0, 5)])
def test_trace_axes_out_of_range_is_refused_by_pair_contract(axes):
    t = Tensor.from_values((2, 2), [1, 2, 3, 4])
    with pytest.raises(TensorError, match="^axis 5 out of range for rank 2$"):
        t.trace_axes(*axes)


def test_pair_contract_matmul():
    a = mat([1, 2, 3, 4], 2, 2)
    b = mat([5, 6, 7, 8], 2, 2)
    ab = pair_contract(a, [1], b, [0])
    assert ab.get((0, 0)) == rat(19)
    assert ab.get((0, 1)) == rat(22)
    assert ab.get((1, 0)) == rat(43)
    assert ab.get((1, 1)) == rat(50)


def test_pair_contract_axis_order():
    # result axes: f's unmatched first, then g's unmatched
    a = Tensor.from_values((2, 3), range(6))
    b = Tensor.from_values((3, 4), range(12))
    out = pair_contract(a, [1], b, [0])
    assert out.shape == (2, 4)


def test_pair_contract_full_dot():
    u = Tensor.from_values((3,), [1, 2, 3])
    v = Tensor.from_values((3,), [4, 5, 6])
    assert pair_contract(u, [0], v, [0]).get(()) == rat(32)


def test_pair_contract_outer_product():
    u = Tensor.from_values((2,), [1, 2])
    v = Tensor.from_values((3,), [3, 4, 5])
    out = pair_contract(u, [], v, [])
    assert out.shape == (2, 3)
    assert out.get((1, 2)) == rat(10)


@pytest.mark.parametrize("sparse_f,sparse_g", [(False, True), (True, False), (True, True)])
def test_pair_contract_storage_irrelevant(sparse_f, sparse_g):
    a = mat([1, 0, 0, 2, 3, 0], 2, 3)
    b = mat([0, 4, 5, 0, 0, 6], 3, 2)
    ref = pair_contract(a, [1], b, [0])
    f = to_sparse(a) if sparse_f else a
    g = to_sparse(b) if sparse_g else b
    assert pair_contract(f, [1], g, [0]).equal(ref)


def test_pair_contract_alphabet_mismatch():
    a = mat([1, 2, 3, 4], 2, 2)
    b = Tensor.from_values((3,), [1, 2, 3])
    with pytest.raises(TensorError):
        pair_contract(a, [1], b, [0])


def test_to_obj_round_trip():
    t = mat([rat(1, 2), 2, 3, rat(-4, 7)], 2, 2)
    obj = t.to_obj()
    assert obj["shape"] == [2, 2]
    assert obj["values"][0] == "1/2"
    back = Tensor.from_values(obj["shape"], obj["values"])
    assert back.equal(t)


def test_f64_equal_tolerance():
    a = Tensor.from_values((2,), [1.0, 2.0], backend=F64)
    b = Tensor.from_values((2,), [1.0 + 1e-12, 2.0], backend=F64)
    assert a.equal(b, tol=1e-9)
    assert not a.equal(b, tol=1e-15)


@pytest.mark.parametrize("backend", [EXACT, F64])
@pytest.mark.parametrize("bad", [0.5, 1.0, "1"])
def test_get_takes_only_int_index_components(backend, bad):
    """A component that is not an int is one TensorError on every storage kind."""
    eps = levi_civita(3, backend)
    kinds = {"alt": eps, "dense": eps.to_dense(),
             "sparse": Tensor((3, 3, 3), backend, sparse=dict(eps.nonzeros()))}
    for index in ((bad, 1, 2), (0, 2, bad)):
        message = f"index {index!r} has a component that is not an int"
        for kind, t in kinds.items():
            with pytest.raises(TensorError, match=f"^{re.escape(message)}$"):
                t.get(index)
            assert t.get((0, 1, 2)) == 1, kind


@pytest.mark.parametrize("shape, key", [
    ((3,), (-1,)),          # below range: values() and get() used to disagree
    ((3,), (3,)),           # just past the last cell
    ((3,), (5,)),           # values() used to raise IndexError
    ((3,), (1, 1)),         # rank 2 on a rank-1 tensor: used to read as cell 1
    ((3,), "ab"),           # not a tuple: values() used to raise TypeError
    ((3,), (1.0,)),         # a float component
    ((3,), (True,)),        # a bool is not an int component
    ((2, 3), (1,)),         # too short
    ((2, 3), (1, 3)),       # out of range on the last axis only
    ((), (0,)),             # a rank-0 tensor's one key is ()
], ids=["negative", "past end", "far past end", "too long", "str", "float", "bool",
         "too short", "last axis", "rank 0"])
@pytest.mark.parametrize("backend", [EXACT, F64])
def test_sparse_storage_refuses_a_key_that_is_not_an_index(shape, key, backend):
    """A sparse key is an in-range int tuple of the tensor's rank; any other
    is one TensorError naming it, even among valid keys."""
    one = 1 if backend == EXACT else 1.0
    good = {(0,) * len(shape): one}
    message = f"sparse key {key!r} is not an index of shape {list(shape)}"
    for sparse in ({key: one}, {**good, key: one}):
        with pytest.raises(TensorError, match=f"^{re.escape(message)}$"):
            Tensor(shape, backend, sparse=sparse)


def test_sparse_storage_takes_every_in_range_key():
    t = Tensor((2, 3), EXACT, sparse={(0, 0): 1, (1, 2): -4, (0, 1): 5})
    assert t.values() == [rat(1), rat(5), 0, 0, 0, rat(-4)]
    assert [t.get((1, 2)), t.get((1, 1))] == [rat(-4), 0]
    assert Tensor((), EXACT, sparse={(): 7}).get(()) == rat(7)
    assert Tensor((3,), EXACT, sparse={}).values() == [0, 0, 0]

"""Fraction-free exact storage: int numerators over one shared denominator.

Every kernel branch is checked exactly against ``exterior_brute`` and against
a direct sum over the rational values, with operands whose denominators
differ; the constructor's admission rules and the value API's lowest-terms
reading are checked on their own.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from nfg.contraction import exterior_brute
from nfg.graph import Nfg
from nfg.scalars import EXACT, F64, BackendMismatch, coerce, rat
from nfg.tensor import Tensor, TensorError, pair_contract

from test_tensor import to_sparse


def rand_tensor(rng, shape, dens, sparse=False, density=0.6):
    """Random rational tensor whose entries draw their denominators from dens."""
    size = 1
    for d in shape:
        size *= d
    values = [rat(rng.randint(-9, 9), rng.choice(dens)) if rng.random() < density else rat(0)
              for _ in range(size)]
    t = Tensor.from_values(shape, values)
    return to_sparse(t) if sparse else t


def naive_contract(f, f_axes, g, g_axes):
    """Sum of products of the rational values, index by index."""
    f_keep = [a for a in range(f.rank) if a not in f_axes]
    g_keep = [a for a in range(g.rank) if a not in g_axes]
    out = []
    for fk in itertools.product(*(range(f.shape[a]) for a in f_keep)):
        for gk in itertools.product(*(range(g.shape[a]) for a in g_keep)):
            acc = Fraction(0)
            for m in itertools.product(*(range(f.shape[a]) for a in f_axes)):
                fi, gi = [0] * f.rank, [0] * g.rank
                for a, v in zip(f_keep, fk):
                    fi[a] = v
                for a, v in zip(f_axes, m):
                    fi[a] = v
                for a, v in zip(g_keep, gk):
                    gi[a] = v
                for a, v in zip(g_axes, m):
                    gi[a] = v
                acc += Fraction(f.get(fi)) * Fraction(g.get(gi))
            out.append(acc)
    return out


def brute_contract(f, f_axes, g, g_axes):
    """The same contraction as a two-vertex NFG evaluated by brute force."""
    nfg = Nfg()
    nfg.add_vertex(f, "f")
    nfg.add_vertex(g, "g")
    for fa, ga in zip(f_axes, g_axes):
        nfg.connect(("f", fa), ("g", ga))
    for a in range(f.rank):
        if a not in f_axes:
            nfg.add_dangling(("f", a))
    for a in range(g.rank):
        if a not in g_axes:
            nfg.add_dangling(("g", a))
    return exterior_brute(nfg)


# (f shape, f axes, g shape, g axes): sparse operand first, dense second
SPARSE_DENSE_CASES = [
    ((3, 2, 3), [1], (2,), [0]),                   # 1 matched axis, dense fully contracted
    ((3, 2, 3), [0], (3, 2), [0]),                 # 1 matched axis, 1 free dense axis
    ((3, 3, 2), [0, 2], (3, 2), [0, 1]),           # 2 matched axes, dense fully contracted
    ((3, 3, 2), [2, 0], (2, 2, 3), [0, 2]),        # 2 matched axes, 1 free dense axis
    ((2, 3, 2, 2), [0, 1, 3], (2, 3, 2), [0, 1, 2]),    # 3 matched axes, fully contracted
    ((2, 3, 2, 2), [3, 1, 0], (2, 2, 3, 2), [0, 2, 1]),  # 3 matched axes, 1 free axis
    ((2, 2, 2, 2), [0, 1, 2, 3], (2, 2, 2, 2), [3, 2, 1, 0]),  # 4 matched, to a scalar
    ((3, 2), [], (2,), []),                        # no matched axes: outer product
]


def check_agrees(f, f_axes, g, g_axes):
    got = pair_contract(f, f_axes, g, g_axes)
    ref = brute_contract(f, f_axes, g, g_axes)
    assert got.shape == ref.shape
    assert got.equal(ref) and ref.equal(got)
    assert got.values() == ref.values() == naive_contract(f, f_axes, g, g_axes)


@pytest.mark.parametrize("sparse_first", [True, False])
@pytest.mark.parametrize("case", SPARSE_DENSE_CASES)
def test_sparse_dense_agrees_with_brute(case, sparse_first):
    rng = random.Random(repr(case))
    fs, fa, gs, ga = case
    sp = rand_tensor(rng, fs, [2, 3, 4], sparse=True)
    dn = rand_tensor(rng, gs, [5, 7, 10])
    assert sp.denom != dn.denom and min(sp.denom, dn.denom) > 1
    if sparse_first:
        check_agrees(sp, fa, dn, ga)
    else:
        check_agrees(dn, ga, sp, fa)


@pytest.mark.parametrize("sparse", [True, False])
@pytest.mark.parametrize("case", SPARSE_DENSE_CASES)
def test_same_storage_pairs_agree_with_brute(case, sparse):
    rng = random.Random(repr(case) + str(sparse))
    fs, fa, gs, ga = case
    f = rand_tensor(rng, fs, [2, 3, 4], sparse=sparse)
    g = rand_tensor(rng, gs, [5, 7, 10], sparse=sparse)
    assert f.denom != g.denom
    check_agrees(f, fa, g, ga)


def test_sparse_dense_result_drops_cancelled_entries():
    sp = to_sparse(Tensor.from_values((2, 2), [rat(1, 2), rat(1, 3), 0, 0]))
    dn = Tensor.from_values((2,), [rat(2, 3), -1])
    out = pair_contract(sp, [1], dn, [0])
    assert out.is_sparse and out.sparse == {}
    assert out.get((0,)) == 0 and out.get((1,)) == 0


@pytest.mark.parametrize("sparse", [True, False])
def test_trace_axes_agrees_with_brute(sparse):
    rng = random.Random(4)
    t = rand_tensor(rng, (3, 2, 3), [3, 4, 6], sparse=sparse)
    assert t.denom > 1
    got = t.trace_axes(0, 2)
    g = Nfg()
    g.add_vertex(t, "t")
    g.connect(("t", 0), ("t", 2))
    g.add_dangling(("t", 1))
    ref = exterior_brute(g)
    assert got.equal(ref)
    assert got.values() == ref.values() == [
        sum((t.get((i, j, i)) for i in range(3)), Fraction(0)) for j in range(2)
    ]


def test_f64_contraction_agrees_with_brute():
    rng = random.Random(8)
    f = Tensor.from_values((3, 2), [rng.uniform(-1, 1) for _ in range(6)], F64)
    g = to_sparse(Tensor.from_values((2, 3), [rng.uniform(-1, 1) for _ in range(6)], F64))
    got = pair_contract(f, [1], g, [0])
    ref = brute_contract(f, [1], g, [0])
    assert got.equal(ref, tol=1e-12)
    assert all(isinstance(v, float) for v in got.values())


# -- value API: lowest terms whatever the stored denominator --------------------


def test_get_and_to_obj_read_lowest_terms_after_scale():
    t = Tensor.from_values((3,), [rat(1, 2), rat(1, 3), 2])
    assert t.denom == 6
    s = t.scale(rat(3, 2))
    assert [s.get((i,)) for i in range(3)] == [rat(3, 4), rat(1, 2), rat(3)]
    assert s.to_obj()["values"] == ["3/4", "1/2", "3"]
    s = t.scale(2)
    assert s.to_obj()["values"] == ["1", "2/3", "4"]
    assert str(s.get((0,))) == "1"


def test_get_and_to_obj_read_lowest_terms_after_add():
    a = Tensor.from_values((2,), [rat(1, 2), rat(1, 6)])
    b = Tensor.from_values((2,), [rat(1, 2), rat(1, 3)])
    s = a.add(b)
    assert s.to_obj()["values"] == ["1", "1/2"]
    assert s.get((0,)) == 1 and str(s.get((1,))) == "1/2"
    sp = to_sparse(a).add(to_sparse(b).scale(-1))
    assert sp.to_obj()["values"] == ["0", "-1/6"]
    assert sp.sparse.keys() == {(1,)}


def test_rational_reads_back_in_lowest_terms():
    assert Tensor.from_values((), [rat(1, 2)]).to_obj()["values"] == ["1/2"]
    assert Tensor.from_values((), [rat(2, 2)]).to_obj()["values"] == ["1"]
    assert Tensor.from_values((), ["4/6"]).get(()) == rat(2, 3)


def test_from_values_stores_numerators_over_the_lcm():
    t = Tensor.from_values((3,), [rat(1, 4), rat(5, 6), 7])
    assert t.denom == 12
    assert t.dense == [3, 10, 84]
    assert all(type(v) is int for v in t.dense)


def two_pass(values):
    """(dense, denom) of exact values read one attribute pass at a time."""
    vals = [Fraction(v) for v in values]
    denom = math.lcm(*[v.denominator for v in vals])
    return [v.numerator * (denom // v.denominator) for v in vals], denom


@pytest.mark.parametrize("values", [
    [rat(1, 4), rat(5, 6), 7],
    [3, -8, 0, 12],
    ["1/3", "-2/9", "5"],
    ["2/4"],
    ["2/4", "6/8"],
    [0],
    [0, 0, 0],
    [2 ** 63 + 1, -(3 ** 50), rat(2 ** 70, 3)],
    [rat(1, 2 ** 64), "7/18446744073709551617", -1],
])
def test_from_values_matches_the_two_pass_formula(values):
    t = Tensor.from_values((len(values),), values)
    assert (t.dense, t.denom) == two_pass(values)
    assert all(type(v) is int for v in t.dense)
    assert t.values() == [Fraction(v) for v in values]


@pytest.mark.parametrize("bad", [True, False, 0.5, 2.0])
def test_from_values_rejects_bool_and_float_on_exact(bad):
    with pytest.raises(BackendMismatch):
        Tensor.from_values((2,), [1, bad])


def test_an_int_beyond_the_largest_float_is_refused_by_f64_only():
    with pytest.raises(BackendMismatch, match="too large for f64"):
        Tensor.from_values((1,), [10 ** 400], F64)
    with pytest.raises(BackendMismatch, match="too large for f64"):
        Tensor.from_values((1,), [1.0], F64).scale(-(10 ** 400))
    t = Tensor.from_values((1,), [10 ** 400])
    assert t.get((0,)) == 10 ** 400 and t.scale(10 ** 400).get((0,)) == 10 ** 800


def test_equal_across_stored_denominators():
    a = Tensor((3,), EXACT, dense=[2, 4, 0], denom=4)
    b = Tensor.from_values((3,), [rat(1, 2), 1, 0])
    assert (a.denom, b.denom) == (4, 2)
    assert a.equal(b) and b.equal(a)
    assert to_sparse(a).equal(b) and a.equal(to_sparse(b))
    assert to_sparse(a).equal(to_sparse(b))
    c = Tensor((3,), EXACT, dense=[2, 4, 1], denom=4)
    assert not c.equal(b) and not to_sparse(b).equal(to_sparse(c))


def test_equal_after_contraction_with_unreduced_denominator():
    u = Tensor.from_values((2,), [rat(1, 2), rat(3, 2)])
    v = Tensor.from_values((2,), [2, rat(2, 3)])
    dot = pair_contract(u, [0], v, [0])
    assert dot.denom == 6
    assert dot.equal(Tensor.from_values((), [2]))
    assert dot.get(()) == 2 and dot.to_obj()["values"] == ["2"]


# -- admission: what exact and f64 storage hold ---------------------------------


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5, True, "1"])
def test_exact_dense_storage_rejects_non_int(bad):
    with pytest.raises(BackendMismatch):
        Tensor((2,), EXACT, dense=[1, bad])


@pytest.mark.parametrize("bad", [Fraction(3), 2.0, False])
def test_exact_sparse_storage_rejects_non_int(bad):
    with pytest.raises(BackendMismatch):
        Tensor((2,), EXACT, sparse={(0,): 1, (1,): bad})


@pytest.mark.parametrize("denom", [0, -3, 2.0, Fraction(2), True, None])
def test_exact_storage_rejects_bad_denominator(denom):
    with pytest.raises(TensorError):
        Tensor((1,), EXACT, dense=[1], denom=denom)


@pytest.mark.parametrize("bad", [1, True, Fraction(1, 2)])
def test_f64_storage_rejects_non_float(bad):
    with pytest.raises(BackendMismatch):
        Tensor((2,), F64, dense=[1.0, bad])


def test_f64_storage_has_no_denominator():
    with pytest.raises(TensorError):
        Tensor((1,), F64, dense=[1.0], denom=2)


def test_exact_backend_rejects_bool():
    with pytest.raises(BackendMismatch):
        coerce(EXACT, True)
    with pytest.raises(BackendMismatch):
        Tensor.from_values((2,), [1, False])
    with pytest.raises(BackendMismatch):
        Tensor((2,), EXACT, sparse={(0,): True})
    with pytest.raises(BackendMismatch):
        Tensor.from_values((1,), [1]).scale(True)


def test_builtins_store_int_signs_over_one():
    from nfg.builtins import delta2, delta_point, levi_civita
    for t in (levi_civita(4), delta2(3), delta_point(3, 2)):
        assert t.denom == 1
        assert set(t.sparse.values()) <= {1, -1}
        assert all(type(v) is int for v in t.sparse.values())
    assert set(map(type, levi_civita(3, F64).sparse.values())) == {float}

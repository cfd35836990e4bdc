import itertools
import random
import re
from fractions import Fraction

import pytest

from nfg import scalars
from nfg.contraction import exterior_brute, exterior_planned
from nfg.diagrams import (
    DiagramBuilder,
    check_cross_chain,
    check_eps_contraction,
    check_fig10,
    check_fig11a,
    check_fig11b,
    check_prop1,
    check_triple_product,
    cross_diagram,
    det_cofactor,
    det_diagram,
    det_oracle,
    matrix_cycle_diagram,
    pfaffian_diagram,
    pfaffian_factor,
    pfaffian_oracle,
    trace_diagram,
    trace_oracle,
)
from nfg.graph import NfgError
from nfg.scalars import EXACT, F64, rat
from nfg.suites import rand_mat, rand_skew, rand_vec
from nfg.tensor import Tensor, inversion_sign

from test_tensor import matmul_oracle, to_sparse


def dot_oracle(u: Tensor, v: Tensor):
    acc = scalars.zero(u.backend)
    for x, y in zip(u.values(), v.values()):
        acc = acc + x * y
    return acc


def cross_oracle(u: Tensor, v: Tensor) -> Tensor:
    """Componentwise cross product of two length-3 vectors."""
    a, b = u.values(), v.values()
    return Tensor.from_values((3,), [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ], u.backend)


def test_trace_diagram():
    rng = random.Random(0)
    a = rand_mat(rng, 4, 4)
    assert exterior_brute(trace_diagram(a)).get(()) == trace_oracle(a)


def test_trace_cyclic():
    rng = random.Random(1)
    a, b = rand_mat(rng, 3, 3), rand_mat(rng, 3, 3)
    assert trace_oracle(matmul_oracle(a, b)) == trace_oracle(matmul_oracle(b, a))
    g = matrix_cycle_diagram([(a, False), (b, False)])
    assert exterior_brute(g).get(()) == trace_oracle(matmul_oracle(a, b))


def test_cross_diagram_matches_oracle():
    u = Tensor.from_values((3,), [1, 2, 3])
    v = Tensor.from_values((3,), [4, 5, 6])
    z = exterior_brute(cross_diagram(u, v))
    assert z.equal(cross_oracle(u, v))
    assert [z.get((i,)) for i in range(3)] == [rat(-3), rat(6), rat(-3)]


def test_cross_anticommutes():
    rng = random.Random(2)
    u, v = rand_vec(rng), rand_vec(rng)
    assert cross_oracle(u, v).equal(cross_oracle(v, u).scale(-1))
    assert dot_oracle(cross_oracle(u, v), u) == rat(0)


def test_eps_contraction_identity():
    assert check_eps_contraction().equal


def test_cross_chain_six_way():
    rng = random.Random(3)
    for _ in range(5):
        u, v, s, w = (rand_vec(rng) for _ in range(4))
        assert check_cross_chain(u, v, s, w).equal


def test_fig10_identity():
    rng = random.Random(4)
    a, d = rand_mat(rng, 3, 2), rand_mat(rng, 3, 2)
    b, c = rand_mat(rng, 3, 3), rand_mat(rng, 3, 3)
    assert check_fig10(a, b, c, d).equal


def test_fig11a_identity():
    rng = random.Random(5)
    a, b = rand_mat(rng, 3, 2), rand_mat(rng, 3, 2)
    c, d = rand_mat(rng, 3, 4), rand_mat(rng, 3, 4)
    assert check_fig11a(a, b, c, d).equal


def test_fig11b_identity():
    rng = random.Random(6)
    a1 = rand_vec(rng)
    b, c = rand_mat(rng, 3, 4), rand_mat(rng, 3, 4)
    assert check_fig11b(a1, b, c).equal


def _columns(t: Tensor):
    m = t.shape[1]
    return [Tensor.from_values((3,), t.values()[j::m]) for j in range(m)]


@pytest.mark.parametrize("m,m2", itertools.product(range(1, 5), repeat=2))
def test_fig10_fig11a_lhs_is_the_literal_sum(m, m2):
    # sum_ij (x1 x x2).(x3 x x4) column by column, with no contraction
    rng = random.Random(10 * m + m2)
    for check, pattern in ((check_fig10, "ijji"), (check_fig11a, "iijj")):
        mats = [rand_mat(rng, 3, m if p == "i" else m2) for p in pattern]
        cols = [_columns(t) for t in mats]
        literal = 0
        for i in range(m):
            for j in range(m2):
                x1, x2, x3, x4 = (c[i if p == "i" else j] for c, p in zip(cols, pattern))
                literal += dot_oracle(cross_oracle(x1, x2), cross_oracle(x3, x4))
        assert check(*mats).lhs.values() == [literal]


@pytest.mark.parametrize("m", range(1, 5))
def test_fig11b_lhs_is_the_literal_sum(m):
    rng = random.Random(m)
    a1, b, c = rand_vec(rng), rand_mat(rng, 3, m), rand_mat(rng, 3, m)
    terms = [cross_oracle(cross_oracle(a1, bi), ci).values()
             for bi, ci in zip(_columns(b), _columns(c))]
    assert check_fig11b(a1, b, c).lhs.values() == [sum(x) for x in zip(*terms)]


def test_det_diagram_matches_oracles():
    rng = random.Random(8)
    for n in range(1, 5):
        a = rand_mat(rng, n, n)
        d = exterior_brute(det_diagram(a)).get(())
        assert d == det_oracle(a)
        assert d == det_cofactor(a)


def test_det_multiplicative_and_transpose():
    rng = random.Random(9)
    a, b = rand_mat(rng, 4, 4), rand_mat(rng, 4, 4)
    assert det_oracle(matmul_oracle(a, b)) == det_oracle(a) * det_oracle(b)
    assert det_oracle(a.permute_axes([1, 0])) == det_oracle(a)


@pytest.mark.parametrize("n", range(1, 6))
def test_det_product_and_transpose_diagrams(n):
    """det_diagram(a, b), each column wire through a then b, is det(ab); the
    det diagram with each a vertex's slots swapped, eps reading a's column,
    is det(a^T).  Both are exact against the oracles, and brute agrees with
    planned for n <= 3."""
    rng = random.Random(90 + n)
    a, b = rand_mat(rng, n, n), rand_mat(rng, n, n)
    transposed = det_diagram(a)
    for j in range(1, n + 1):
        transposed.vertices[f"a{j}"].ciliation.reverse()
    for g, want in ((det_diagram(a, b), det_oracle(matmul_oracle(a, b))),
                    (transposed, det_oracle(a.permute_axes([1, 0])))):
        assert exterior_planned(g).get(()) == want
        if n <= 3:
            assert exterior_brute(g).get(()) == want
    assert det_oracle(matmul_oracle(a, b)) == det_oracle(a) * det_oracle(b) != 0


def test_triple_product():
    rng = random.Random(10)
    a1, a2, a3 = rand_vec(rng), rand_vec(rng), rand_vec(rng)
    assert check_triple_product(a1, a2, a3).equal


def test_pfaffian_small_cases():
    # Pf of [[0, a], [-a, 0]] is a
    a = Tensor.from_values((2, 2), [0, rat(5, 3), rat(-5, 3), 0])
    assert pfaffian_oracle(a) == rat(5, 3)
    s = Tensor.from_values(
        (4, 4),
        [0, 1, 2, 3,
         -1, 0, 4, 5,
         -2, -4, 0, 6,
         -3, -5, -6, 0])
    # Pf = a12*a34 - a13*a24 + a14*a23
    assert pfaffian_oracle(s) == rat(1 * 6 - 2 * 5 + 3 * 4)
    # a12 = 0 forces a row-and-column swap at the first elimination step
    s0 = Tensor.from_values((4, 4), [0 if i in (1, 4) else v for i, v in enumerate(s.values())])
    assert pfaffian_oracle(s0) == rat(-2 * 5 + 3 * 4)
    assert det_oracle(s0) == rat(-2 * 5 + 3 * 4) ** 2


def _skew_with(backend, changes):
    """A 4x4 skew matrix of fractions (floats on f64) with some cells replaced."""
    cells = {(0, 1): rat(1, 2), (0, 2): rat(-2, 3), (0, 3): rat(1, 3),
             (1, 2): rat(5, 7), (1, 3): rat(-4), (2, 3): rat(9, 8)}
    m = [[rat(0)] * 4 for _ in range(4)]
    for (i, j), v in cells.items():
        m[i][j], m[j][i] = v, -v
    for (i, j), v in changes.items():
        m[i][j] = v
    values = [v for row in m for v in row]
    return Tensor.from_values((4, 4), [float(v) for v in values] if backend == F64 else values,
                              backend)


@pytest.mark.parametrize("backend", [EXACT, F64])
def test_pfaffian_names_the_first_cell_that_is_not_skew(backend):
    """Row by row, j >= i: the first (i, j) with a_ij + a_ji != 0 is named,
    by the diagram and the oracle, whatever the tensor's storage."""
    pf = rat(1, 2) * rat(9, 8) - rat(-2, 3) * rat(-4) + rat(1, 3) * rat(5, 7)
    assert scalars.scalar_eq(backend, pfaffian_oracle(_skew_with(backend, {})),
                             pf if backend == EXACT else float(pf), 1e-12)
    for changes, cell in [({(1, 2): rat(5, 6)}, (1, 2)),
                          ({(2, 1): rat(5, 7)}, (1, 2)),
                          ({(3, 3): rat(1, 9)}, (3, 3)),
                          ({(3, 3): rat(1), (3, 0): rat(1, 3)}, (0, 3))]:
        a = _skew_with(backend, changes)
        for t in (a, to_sparse(a)):
            for build in (pfaffian_diagram, pfaffian_oracle):
                with pytest.raises(NfgError, match=re.escape(
                        f"matrix is not skew-symmetric at {cell}")):
                    build(t)


def test_pfaffian_square_is_det():
    """Also beyond the enumerations' reach (2n = 12, 16), where the two
    elimination oracles are the only exact routes and share no code."""
    rng = random.Random(11)
    for dim in (2, 4, 6, 12, 16):
        s = rand_skew(rng, dim)
        assert pfaffian_oracle(s) ** 2 == det_oracle(s) != 0


def test_pfaffian_factor():
    assert pfaffian_factor(1) == 2
    assert pfaffian_factor(2) == 8
    assert pfaffian_factor(3) == 48


def test_prop1_diagram_value():
    rng = random.Random(12)
    s = rand_skew(rng, 4)
    g = pfaffian_diagram(s)
    z = exterior_planned(g).get(())
    assert z == pfaffian_factor(2) * pfaffian_oracle(s)
    assert check_prop1(s, engine="brute").equal
    assert check_prop1(s, engine="planned").equal


def test_prop1_refuses_an_unknown_engine(monkeypatch):
    """eval_compound refuses the engine name before the oracle runs."""
    calls = []

    def _must_not_run(*args):
        calls.append(args)
        raise AssertionError("the oracle ran before the engine name was checked")

    monkeypatch.setattr("nfg.diagrams.pfaffian_oracle", _must_not_run)
    with pytest.raises(ValueError, match="^unknown engine 'brutee'$"):
        check_prop1(rand_skew(random.Random(12), 4), engine="brutee")
    assert calls == []


@pytest.mark.parametrize("backend", [EXACT, F64])
def test_diagram_builder_builds_on_its_backend(backend):
    assert DiagramBuilder(backend).g.backend() == backend


def test_pfaffian_rejects_non_skew():
    a = Tensor.from_values((2, 2), [1, 2, 3, 4])
    with pytest.raises(NfgError):
        pfaffian_diagram(a)
    with pytest.raises(NfgError):
        pfaffian_oracle(a)


def test_pfaffian_rejects_odd_dim():
    a = Tensor.from_values((3, 3), [0, 1, 2, -1, 0, 3, -2, -3, 0])
    with pytest.raises(NfgError):
        pfaffian_diagram(a)


# -- the elimination oracles against literal enumerations ----------------------


def enumerated_pfaffian(a: Tensor):
    """Pf(a) by literal enumeration of S_2n:
    (1 / 2^n n!) sum over sigma of sgn(sigma) prod_i a(sigma(2i-1), sigma(2i))."""
    dim = a.shape[0]
    vals = a.values()
    acc = scalars.zero(a.backend)
    for images in itertools.permutations(range(1, dim + 1)):
        term = scalars.one(a.backend) * inversion_sign(images)
        for i in range(dim // 2):
            term = term * vals[(images[2 * i] - 1) * dim + images[2 * i + 1] - 1]
            if not term:
                break
        acc = acc + term
    return acc / pfaffian_factor(dim // 2)


def permutation_sum_det(a: Tensor):
    """det(a) as the sum over sigma of sgn(sigma) prod_j a(j, sigma(j))."""
    n = a.shape[0]
    vals = a.values()
    acc = scalars.zero(a.backend)
    for images in itertools.permutations(range(1, n + 1)):
        term = scalars.one(a.backend) * inversion_sign(images)
        for j in range(n):
            term = term * vals[j * n + images[j] - 1]
            if not term:
                break
        acc = acc + term
    return acc


def close(backend, x, y) -> bool:
    return x == y if backend == EXACT else abs(x - y) <= 1e-9


def rand_entry(rng, backend):
    """A random scalar, zero about a third of the time to exercise pivoting."""
    if rng.random() < 0.3:
        return 0 if backend == EXACT else 0.0
    if backend == EXACT:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return rng.uniform(-1, 1)


def rand_square(rng, dim, backend, skew=False):
    m = [[rand_entry(rng, backend) for _ in range(dim)] for _ in range(dim)]
    if skew:
        for i in range(dim):
            m[i][i] = 0 * m[i][i]
            for j in range(i):
                m[i][j] = -m[j][i]
        if rng.random() < 0.3:
            m[0][1] = m[1][0] = 0 * m[0][1]  # forces a swap at the first step
    return Tensor.from_values((dim, dim), [x for row in m for x in row], backend)


@pytest.mark.parametrize("backend", [EXACT, F64])
def test_pfaffian_oracle_matches_enumeration(backend):
    rng = random.Random(21)
    for dim, trials in ((2, 10), (4, 20), (6, 20), (8, 1)):
        for _ in range(trials):
            a = rand_square(rng, dim, backend, skew=True)
            assert close(backend, pfaffian_oracle(a), enumerated_pfaffian(a))


@pytest.mark.parametrize("backend", [EXACT, F64])
def test_det_oracle_matches_permutation_sum(backend):
    rng = random.Random(22)
    for n in range(1, 7):
        for _ in range(10):
            a = rand_square(rng, n, backend)
            assert close(backend, det_oracle(a), permutation_sum_det(a))


@pytest.mark.parametrize("backend", [EXACT, F64])
@pytest.mark.parametrize("row", [0, 3])
def test_oracles_on_an_all_zero_row(backend, row):
    a = rand_square(random.Random(23), 6, backend, skew=True)
    vals = [0 * v if row in (i, j) else v
            for (i, j), v in zip(itertools.product(range(6), repeat=2), a.values())]
    z = Tensor.from_values((6, 6), vals, backend)
    assert pfaffian_oracle(z) == 0
    assert det_oracle(z) == 0


@pytest.mark.parametrize("backend", [EXACT, F64])
def test_oracles_on_a_singular_nonzero_matrix(backend):
    u, v = [1, 2, -1, 3, 0, 2], [2, -1, 1, 1, 4, -3]
    cast = Fraction if backend == EXACT else float
    # rank 2: u v^T - v u^T
    a = Tensor.from_values((6, 6), [cast(u[i] * v[j] - v[i] * u[j])
                                    for i in range(6) for j in range(6)], backend)
    assert close(backend, pfaffian_oracle(a), 0)
    assert close(backend, det_oracle(a), 0)


@pytest.mark.parametrize("dim", [2, 4, 8, 12, 16])
def test_pfaffian_of_permuted_block_diagonal(dim):
    """Pf(P B P^T) = sgn(P) prod b_k for B = diag of [[0, b_k], [-b_k, 0]]."""
    rng = random.Random(dim)
    b = [Fraction(rng.randint(1, 9) * rng.choice([-1, 1]), rng.randint(1, 6))
         for _ in range(dim // 2)]
    block = [[Fraction(0)] * dim for _ in range(dim)]
    for k, bk in enumerate(b):
        block[2 * k][2 * k + 1], block[2 * k + 1][2 * k] = bk, -bk
    sigma = list(range(dim))
    rng.shuffle(sigma)
    # (P B P^T)[i][j] = B[sigma(i)][sigma(j)] for the P with P[i][sigma(i)] = 1
    a = Tensor.from_values((dim, dim), [block[sigma[i]][sigma[j]]
                                        for i in range(dim) for j in range(dim)])
    expected = inversion_sign(sigma)
    for bk in b:
        expected *= bk
    assert pfaffian_oracle(a) == expected

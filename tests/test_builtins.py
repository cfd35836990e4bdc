import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from nfg.builtins import delta2, delta_point, levi_civita, tau, tau_swap_count
from nfg.contraction import exterior_brute
from nfg.diagrams import cross_diagram, insert_delta2, trace_diagram
from nfg.graph import Nfg
from nfg.scalars import rat
from nfg.suites import rand_mat, rand_vec
from nfg.tensor import inversion_sign

# A permutation of 1..n is the tuple of its images, p(j) = p[j-1].


def identity(n: int) -> tuple:
    return tuple(range(1, n + 1))


def inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for j, i in enumerate(p, start=1):
        inv[i - 1] = j
    return tuple(inv)


def perm_compose(p: tuple, q: tuple) -> tuple:
    """p after q: (p o q)(j) = p(q(j))."""
    assert len(p) == len(q)
    return tuple(p[q[j] - 1] for j in range(len(p)))


def eps_get(eps, args):
    """Levi-Civita lookup with 1-based arguments."""
    return eps.get(tuple(a - 1 for a in args))


def test_identity_and_inverse():
    p = (3, 1, 2)
    assert perm_compose(p, inverse(p)) == identity(3)
    assert perm_compose(inverse(p), p) == identity(3)


def test_perm_sign_basics():
    assert inversion_sign(identity(4)) == 1
    assert inversion_sign((2, 1, 3)) == -1
    assert inversion_sign((2, 3, 1)) == 1


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
def test_sign_multiplicative(p_img, q_img):
    p, q = tuple(p_img), tuple(q_img)
    assert inversion_sign(perm_compose(p, q)) == inversion_sign(p) * inversion_sign(q)


@pytest.mark.parametrize("n", range(1, 11))
def test_tau_structure(n):
    t = tau(n)
    # tau lives on 2n points: odd inputs go low, even inputs go high
    assert type(t) is tuple and sorted(t) == list(identity(2 * n))
    for k in range(1, n + 1):
        assert t[2 * k - 2] == k
        assert t[2 * k - 1] == 2 * n - (k - 1)
    assert inversion_sign(t) == 1
    assert tau_swap_count(n) == n // 2 + n * (n - 1) // 2
    assert tau_swap_count(n) % 2 == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_levi_civita_values(n):
    eps = levi_civita(n)
    for args in itertools.product(range(1, n + 1), repeat=n):
        expected = 0
        if len(set(args)) == n:
            expected = inversion_sign(args)
        assert eps_get(eps, args) == rat(expected)


@pytest.mark.parametrize("n", range(2, 6))
def test_levi_civita_antisymmetry(n):
    eps = levi_civita(n)
    rng = random.Random(n)
    for _ in range(50):
        args = [rng.randint(1, n) for _ in range(n)]
        i, j = rng.sample(range(n), 2)
        swapped = list(args)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert eps_get(eps, swapped) == -eps_get(eps, args)


def test_levi_civita_sparsity():
    import math
    eps = levi_civita(5)
    assert len(eps.sparse) == math.factorial(5)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_levi_civita_signs_match_perm_sign(n):
    eps = levi_civita(n)
    assert len(eps.sparse) == math.factorial(n)
    for key in itertools.permutations(range(1, n + 1)):
        assert eps_get(eps, key) == inversion_sign(key)


def test_levi_civita_limit():
    with pytest.raises(ValueError):
        levi_civita(11)


def test_delta2_identity_matrix():
    d = delta2(3)
    for i in range(3):
        for j in range(3):
            assert d.get((i, j)) == rat(1 if i == j else 0)


def test_delta_point():
    e2 = delta_point(4, 2)
    assert [e2.get((i,)) for i in range(4)] == [rat(0), rat(1), rat(0), rat(0)]
    with pytest.raises(ValueError):
        delta_point(4, 0)


def test_delta2_insertion_preserves_exterior():
    # splicing an identity vertex into any edge leaves Z unchanged
    rng = random.Random(7)
    a = rand_mat(rng, 3, 3)
    g = trace_diagram(a)
    z = exterior_brute(g)
    for eid in list(g.edges):
        g2 = insert_delta2(g, eid)
        assert not g2.validate()
        assert exterior_brute(g2).equal(z)


def test_delta2_insertion_on_internal_and_dangling_edges():
    rng = random.Random(11)
    u, v = rand_vec(rng), rand_vec(rng)
    h = Nfg()
    h.add_vertex(rand_mat(rng, 3, 2), "a")
    h.add_vertex(u, "u")
    h.connect(("a", 0), ("u", 0), name="inner")
    h.add_dangling(("a", 1), name="out")
    for g in (cross_diagram(u, v), h):
        z = exterior_brute(g)
        assert g.dangling and len(g.edges) > len(g.dangling)
        for eid in list(g.edges):
            g2 = insert_delta2(g, eid)
            assert not g2.validate()
            assert g2.dangling == g.dangling
            assert len(g2.vertices) == len(g.vertices) + 1
            assert exterior_brute(g2).equal(z)

"""Alternating (``alt``) tensor storage against the same tensors written out.

Every check compares an alternating tensor with its explicit sparse
expansion, built here from the definition (value = sign of the sorting
permutation times the entry at the sorted index), so the kernel, the
expansion and the sign rule are each checked against code they do not share.
"""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from nfg import tensor as tensor_module
from nfg.builtins import levi_civita
from nfg.contraction import exterior_planned, plan_greedy
from nfg.diagrams import det_diagram, pfaffian_diagram, pfaffian_factor
from nfg.scalars import EXACT, F64
from nfg.suites import rand_mat, rand_skew
from nfg.tensor import Tensor, TensorError, pair_contract

from test_acceptance import pfaffian_expansion

TOL = 1e-9


def sort_sign(index) -> int:
    """Sign of the permutation that sorts distinct values, by bubble sort."""
    seq, sign = list(index), 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


def entry(rng, backend):
    if backend == EXACT:
        return rng.choice([-1, 1]) * rng.randint(1, 9)
    return rng.uniform(-1, 1)


def rand_alt(rng, rank, n, backend):
    keys = [k for k in itertools.combinations(range(n), rank) if rng.random() < 0.7]
    denom = rng.randint(1, 6) if backend == EXACT else 1
    return Tensor((n,) * rank, backend, alt={k: entry(rng, backend) for k in keys}, denom=denom)


def written_out(t: Tensor) -> Tensor:
    """The same values in explicit sparse storage, from the definition."""
    store = {}
    for index in itertools.product(range(t.shape[0]) if t.shape else [], repeat=t.rank):
        if len(set(index)) == t.rank:
            v = t.alt.get(tuple(sorted(index)))
            if v:
                store[index] = sort_sign(index) * v
    return Tensor(t.shape, t.backend, sparse=store, denom=t.denom)


def rand_partner(rng, shape, backend, kind):
    """A tensor of the given shape in the given storage kind."""
    if kind == "alt":
        return rand_alt(rng, len(shape), shape[0] if shape else 1, backend)
    cells = list(itertools.product(*(range(d) for d in shape)))
    if kind == "dense":
        vals = [entry(rng, backend) if rng.random() < 0.7 else 0 * entry(rng, backend)
                for _ in cells]
        return Tensor(shape, backend, dense=vals)
    return Tensor(shape, backend,
                  sparse={c: entry(rng, backend) for c in cells if rng.random() < 0.5})


def explicit(t: Tensor) -> Tensor:
    return written_out(t) if t.alt is not None else t


def agree(a: Tensor, b: Tensor) -> bool:
    return a.shape == b.shape and a.equal(b, TOL)


def _pair_cases(backend, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        rank, n = rng.randint(0, 5), rng.randint(1, 5)
        alt = rand_alt(rng, rank, n, backend)
        matched = rng.sample(range(rank), rng.randint(0, rank))
        kind = rng.choice(["dense", "sparse", "alt"])
        # mostly fully contracted partners (the alternating kernel), sometimes
        # with kept axes of their own (the sparse join on the expansion)
        extra = 0 if kind == "alt" or rng.random() < 0.7 else rng.randint(1, 2)
        p_rank = len(matched) + extra
        p_axes = rng.sample(range(p_rank), len(matched))
        shape = [n if kind == "alt" else rng.randint(1, 4) for _ in range(p_rank)]
        for a in p_axes:
            shape[a] = n
        partner = rand_partner(rng, tuple(shape), backend, kind)
        yield alt, matched, partner, p_axes, rng.random() < 0.5


@pytest.mark.parametrize("backend", [EXACT, F64])
def test_pair_contract_matches_written_out(backend):
    kernel_runs = 0
    for alt, matched, partner, p_axes, alt_first in _pair_cases(backend, 400, 7):
        if alt_first:
            got = pair_contract(alt, matched, partner, p_axes)
            want = pair_contract(written_out(alt), matched, explicit(partner), p_axes)
        else:
            got = pair_contract(partner, p_axes, alt, matched)
            want = pair_contract(explicit(partner), p_axes, written_out(alt), matched)
        assert agree(got, want)
        if len(p_axes) == partner.rank:
            assert got.alt is not None
            assert agree(written_out(got), want)
            kernel_runs += 1
    assert kernel_runs > 200


@pytest.mark.parametrize("backend", [EXACT, F64])
def test_permute_axes_matches_written_out(backend):
    rng = random.Random(11)
    for _ in range(200):
        alt = rand_alt(rng, rng.randint(0, 5), rng.randint(1, 5), backend)
        order = rng.sample(range(alt.rank), alt.rank)
        got = alt.permute_axes(order)
        assert got.alt is not None
        assert agree(written_out(got), written_out(alt).permute_axes(order))


@pytest.mark.parametrize("backend", [EXACT, F64])
def test_trace_axes_is_the_zero_alternating_tensor(backend):
    rng = random.Random(13)
    for _ in range(200):
        alt = rand_alt(rng, rng.randint(2, 5), rng.randint(1, 5), backend)
        ax1, ax2 = rng.sample(range(alt.rank), 2)
        got = alt.trace_axes(ax1, ax2)
        assert got.alt == {} and got.shape == alt.shape[2:]
        assert agree(got, written_out(alt).trace_axes(ax1, ax2))
    with pytest.raises(TensorError, match="two distinct axes"):
        levi_civita(3).trace_axes(1, 1)


def test_levi_civita_is_one_sorted_entry():
    for n in range(1, 11):
        for backend in (EXACT, F64):
            eps = levi_civita(n, backend)
            assert eps.alt == {tuple(range(n)): 1}
            assert type(eps.alt[tuple(range(n))]) is (int if backend == EXACT else float)
    assert len(levi_civita(7).sparse) == math.factorial(7)
    assert levi_civita(7).sparse == written_out(levi_civita(7)).sparse


@pytest.mark.parametrize("shape, alt", [
    ((3, 2), {(0, 1): 1}),            # two alphabet sizes
    ((3, 3), {(1, 0): 1}),            # not increasing
    ((3, 3), {(1, 1): 1}),            # repeated value
    ((3, 3), {(1, 3): 1}),            # out of range
    ((3, 3), {(1,): 1}),              # wrong length
    ((3, 3), {(0.5, 1): 1}),          # not an int
    ((3, 3), {(True, 2): 1}),         # a bool, not an int
    ((3, 3), {(0, "b"): 1}),          # not comparable with an int
    ((3, 3), {(-1, 2): 1}),           # negative
    ((), {(0,): 1}),                  # a rank-0 tensor's only key is ()
])
def test_alternating_storage_rejects_malformed_input(shape, alt):
    message = ("alternating storage needs one alphabet size" if len(set(shape)) > 1
               else "is not a strictly increasing index")
    with pytest.raises(TensorError, match=message):
        Tensor(shape, EXACT, alt=alt)


def test_alternating_keys_are_checked_key_by_key():
    """Keys are checked together, but a value may drop from one key to the
    next, and a failure names the first bad key in dict order."""
    good = {(2, 3, 4): 1, (0, 1, 2): -2, (1, 3, 4): 5}
    assert Tensor((5,) * 3, EXACT, alt=good).alt == good
    for alt in ({(): 3}, {(4,): 1, (0,): 2}):
        Tensor((5,) * len(next(iter(alt))), EXACT, alt=alt)
    for bad, first in [({(1, 2, 5): 1}, (1, 2, 5)),
                       ({(1, 2): 1}, (1, 2)),
                       ({(3, 2, 4): 1, (0, 0, 1): 1}, (3, 2, 4)),
                       ({(0, 1, 1.0): 1, (4, 3, 2): 1}, (0, 1, 1.0))]:
        with pytest.raises(TensorError, match=re.escape(
                f"alternating key {first!r} is not a strictly increasing index")):
            Tensor((5,) * 3, EXACT, alt={**good, **bad, (0, 2, 4): 1})


def test_dense_partner_is_folded_without_a_sign_per_cell(monkeypatch):
    """A dense partner is folded over sorted sets against one sign table,
    and each set of key positions is signed by its shuffle parity: one
    inversion count per contraction, of the alternating operand's axis order."""
    calls = []
    original = tensor_module.inversion_sign
    monkeypatch.setattr(tensor_module, "inversion_sign",
                        lambda seq: calls.append(tuple(seq)) or original(seq))
    rng = random.Random(23)
    for backend in (EXACT, F64):
        a = rand_alt(rng, 6, 6, backend)
        m = dense_matrix(rng, 6, backend)
        calls.clear()
        got = pair_contract(m, [1, 0], a, [4, 2])
        assert calls == [(4, 2, 0, 1, 3, 5)]
        assert agree(written_out(got), pair_contract(m, [1, 0], written_out(a), [4, 2]))


def dense_matrix(rng, n, backend, symmetric=False):
    rows = [[entry(rng, backend) for _ in range(n)] for _ in range(n)]
    if symmetric:
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return Tensor((n, n), backend, dense=[x for row in rows for x in row])


@pytest.mark.parametrize("backend", [EXACT, F64])
@pytest.mark.parametrize("n", [4, 6])
def test_only_the_alternating_part_of_a_partner_reaches_epsilon(backend, n):
    """eps(n) kills a symmetric partner, so M and (M - M^T) / 2 contract alike."""
    rng = random.Random(n)
    eps = levi_civita(n, backend)
    for axes in ([0, 1], [1, 3], [3, 0]):
        sym = pair_contract(eps, axes, dense_matrix(rng, n, backend, symmetric=True), [0, 1])
        assert sym.alt == {} and sym.shape == (n,) * (n - 2)
        m = dense_matrix(rng, n, backend)
        skew = m.add(m.permute_axes([1, 0]).neg())
        half = Fraction(1, 2) if backend == EXACT else 0.5
        got = pair_contract(eps, axes, m, [0, 1])
        want = pair_contract(eps, axes, skew, [0, 1]).scale(half)
        assert got.alt and agree(written_out(got), explicit(want))


def bareiss_det(a: Tensor):
    """Fraction-exact Bareiss elimination with row swaps."""
    n = a.shape[0]
    vals = a.values()
    m = [vals[i * n:(i + 1) * n] for i in range(n)]
    sign, prev = 1, Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@pytest.mark.parametrize("n", [9, 10])
def test_det_diagram_beyond_the_oracle(n):
    a = rand_mat(random.Random(n), n, n)
    assert exterior_planned(det_diagram(a)).get(()) == bareiss_det(a)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pfaffian_diagram_2n_10(seed):
    a = rand_skew(random.Random(seed), 10)
    z = exterior_planned(pfaffian_diagram(a))
    assert z.get(()) == pfaffian_factor(5) * pfaffian_expansion(a)


def test_epsilon_networks_expand_no_alternating_tensor(monkeypatch):
    """The Pfaffian and determinant diagrams stay alternating at every step;
    only their rank-0 results are written out, when read."""
    expanded = []
    original = tensor_module._expand_alt

    def record(alt, rank):
        expanded.append(rank)
        return original(alt, rank)

    monkeypatch.setattr(tensor_module, "_expand_alt", record)
    rng = random.Random(5)
    for g in (pfaffian_diagram(rand_skew(rng, 10)), det_diagram(rand_mat(rng, 10, 10))):
        z = exterior_planned(g, plan_greedy(g))
        assert z.alt is not None and z.get(()) != 0
    assert expanded and set(expanded) == {0}


def test_alternating_partner_is_read_without_expansion(monkeypatch):
    """An alternating operand that is fully contracted is folded from its
    stored keys, on either side and with its axes in any order."""
    expanded = []
    monkeypatch.setattr(tensor_module, "_expand_alt", lambda alt, rank: expanded.append(rank))
    rng = random.Random(17)
    for backend in (EXACT, F64):
        for _ in range(40):
            n = rng.randint(2, 6)
            rank = rng.randint(1, n)
            m = rng.randint(1, rank)
            alt, partner = rand_alt(rng, rank, n, backend), rand_alt(rng, m, n, backend)
            matched, p_axes = rng.sample(range(rank), m), rng.sample(range(m), m)
            if rng.random() < 0.5:
                got = pair_contract(alt, matched, partner, p_axes)
            else:
                got = pair_contract(partner, p_axes, alt, matched)
            want = pair_contract(written_out(alt), matched, written_out(partner), p_axes)
            assert got.alt is not None and agree(written_out(got), want)
    assert expanded == []


@pytest.mark.parametrize("backend", [EXACT, F64])
def test_scale_add_equal_read_alternating_keys(backend, monkeypatch):
    """scale, add and equal of alternating tensors keep alternating storage
    and give the written-out route's entries, bit for bit on f64."""
    rng = random.Random(19)
    cases = []
    for _ in range(60):
        n = rng.randint(1, 6)
        rank = rng.randint(0, n)
        a, b = rand_alt(rng, rank, n, backend), rand_alt(rng, rank, n, backend)
        lam = rng.choice([0, -1, Fraction(-3, 4), Fraction(5, 2), 3])
        if backend == F64:
            lam = float(lam)
        cases.append((a, b, lam, written_out(a), written_out(b)))
    m = Tensor((6, 6), backend, dense=[entry(rng, backend) for _ in range(36)])
    eps_m = pair_contract(levi_civita(6, backend), [0, 1], m, [0, 1])
    half = Fraction(1, 2) if backend == EXACT else 0.5
    cases.append((eps_m, eps_m.scale(-2), half, written_out(eps_m), written_out(eps_m.scale(-2))))
    expanded = []
    monkeypatch.setattr(tensor_module, "_expand_alt", lambda alt, rank: expanded.append(rank))
    for a, b, lam, wa, wb in cases:
        scaled, summed = a.scale(lam), a.add(b)
        assert scaled.alt is not None and summed.alt is not None
        assert (scaled.alt == {}) == (lam == 0 or not a.alt)
        for got, want in ((scaled, wa.scale(lam)), (summed, wa.add(wb))):
            got = written_out(got)
            assert (got.sparse, got.denom) == (want.sparse, want.denom)
        for x, y in ((a, b), (a, a.scale(1)), (summed, b.add(a)), (scaled, b)):
            assert x.equal(y, TOL) == written_out(x).equal(written_out(y), TOL)
        assert a.equal(a.scale(1)) and summed.equal(b.add(a), TOL)
    assert len(eps_m.scale(half).alt) == len(eps_m.alt) > 0
    assert expanded == []

"""Alternating (``alt``) tensor storage against the same tensors written out.

Alternating storage is packed: a list of C(n, r) entries, one per sorted
r-subset of range(n) in ``itertools.combinations`` order.  Every check
compares an alternating tensor with its explicit sparse expansion, built here
from the definition (value = sign of the sorting permutation times the entry
at the sorted index), so the kernel, the expansion and the sign rule are each
checked against code they do not share.
"""

import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from nfg import tensor as tensor_module
from nfg.builtins import EPS_DEFAULT_LIMIT, levi_civita
from nfg.contraction import exterior_brute, exterior_planned, plan_greedy
from nfg.diagrams import det_diagram, det_oracle, pfaffian_diagram, pfaffian_factor, pfaffian_oracle
from nfg.scalars import EXACT, F64, BackendMismatch
from nfg.suites import rand_mat, rand_skew, run_suite
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
    """A packed alternating tensor with about 70% nonzero entries."""
    zero = 0 if backend == EXACT else 0.0
    entries = [entry(rng, backend) if rng.random() < 0.7 else zero
               for _ in itertools.combinations(range(n), rank)]
    denom = rng.randint(1, 6) if backend == EXACT else 1
    return Tensor((n,) * rank, backend, alt=entries, denom=denom)


def packed(t: Tensor) -> dict:
    """Sorted index -> entry, zeros included, in packed order."""
    n = t.shape[0] if t.shape else 0
    return dict(zip(itertools.combinations(range(n), t.rank), t.alt, strict=True))


def written_out(t: Tensor) -> Tensor:
    """The same values in explicit sparse storage, from the definition."""
    store, entries = {}, packed(t)
    for index in itertools.product(range(t.shape[0]) if t.shape else [], repeat=t.rank):
        if len(set(index)) == t.rank:
            v = entries[tuple(sorted(index))]
            if v:
                store[index] = sort_sign(index) * v
    return Tensor(t.shape, t.backend, sparse=store, denom=t.denom)


def rand_partner(rng, shape, backend, kind):
    """A tensor of the given shape in the given storage kind; exact ones
    over a denominator of 1 to 6."""
    if kind == "alt":
        return rand_alt(rng, len(shape), shape[0] if shape else 1, backend)
    denom = rng.randint(1, 6) if backend == EXACT else 1
    cells = list(itertools.product(*(range(d) for d in shape)))
    if kind == "dense":
        vals = [entry(rng, backend) if rng.random() < 0.7 else 0 * entry(rng, backend)
                for _ in cells]
        return Tensor(shape, backend, dense=vals, denom=denom)
    return Tensor(shape, backend, denom=denom,
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
@pytest.mark.parametrize("kind", ["dense", "sparse", "alt"])
def test_packed_kernel_every_shape(backend, kind):
    """The packed kernel against the written-out contraction for every n <= 6,
    every rank r <= n (and r = n + 1, where nothing is stored, for n <= 4)
    and every number m <= r of contracted axes, with
    the alternating operand's axes in a random order and a partner of each
    storage kind that it fully contracts."""
    rng = random.Random(31)
    for n in range(1, 7):
        for r in range(0, n + 2 if n < 5 else n + 1):
            alt = rand_alt(rng, r, n, backend)
            alt_out = written_out(alt)
            for m in range(0, r + 1):
                matched = rng.sample(range(r), m)
                partner = rand_partner(rng, (n,) * m, backend, kind)
                p_axes = rng.sample(range(m), m)
                got = pair_contract(alt, matched, partner, p_axes)
                want = pair_contract(alt_out, matched, explicit(partner), p_axes)
                assert got.alt is not None and got.denom == alt.denom * partner.denom
                assert agree(written_out(got), want), (n, r, m)


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
        assert got.alt is not None and not any(got.alt) and got.shape == alt.shape[2:]
        assert agree(got, written_out(alt).trace_axes(ax1, ax2))
    with pytest.raises(TensorError, match="two distinct axes"):
        levi_civita(3).trace_axes(1, 1)


def test_levi_civita_is_one_sorted_entry():
    for n in range(1, 11):
        for backend in (EXACT, F64):
            eps = levi_civita(n, backend)
            assert eps.alt == [1] and packed(eps) == {tuple(range(n)): 1}
            assert type(eps.alt[0]) is (int if backend == EXACT else float)
    assert len(levi_civita(7).sparse) == math.factorial(7)
    assert levi_civita(7).sparse == written_out(levi_civita(7)).sparse


@pytest.mark.parametrize("shape, alt", [
    ((3, 2), [1]),                    # two alphabet sizes
    ((3, 3), [1, 2]),                 # C(3, 2) = 3 entries
    ((3, 3), [1, 2, 3, 4]),
    ((3, 3), {(0, 1): 1, (0, 2): 1, (1, 2): 1}),  # a map, the right length
    ((3, 3), (1, 2, 3)),              # a tuple, not a list
    ((), []),                         # a rank-0 tensor has one entry
    ((2, 2, 2), [0]),                 # no 3-subset of range(2): no entry
])
def test_alternating_storage_rejects_malformed_input(shape, alt):
    message = ("alternating storage needs one alphabet size" if len(set(shape)) > 1
               else r"alternating storage is a list of C\(\d+, \d+\) = \d+ entries")
    with pytest.raises(TensorError, match=message):
        Tensor(shape, EXACT, alt=alt)


@pytest.mark.parametrize("backend, bad", [
    (EXACT, Fraction(1, 2)), (EXACT, 0.5), (EXACT, True), (F64, 1), (F64, Fraction(1))])
def test_alternating_storage_rejects_entries_of_another_backend(backend, bad):
    one = 1 if backend == EXACT else 1.0
    with pytest.raises(BackendMismatch):
        Tensor((3, 3), backend, alt=[one, bad, one])


def test_alternating_storage_holds_one_entry_per_sorted_index():
    """Every n and r, r > n included, take exactly C(n, r) entries."""
    for n in range(1, 7):
        for r in range(0, n + 2):
            size = math.comb(n, r)
            t = Tensor((n,) * r, EXACT, alt=list(range(size)))
            assert list(packed(t).values()) == list(range(size))
            for wrong in (size - 1, size + 1):
                if wrong >= 0:
                    with pytest.raises(TensorError, match="alternating storage is a list"):
                        Tensor((n,) * r, EXACT, alt=[1] * wrong)


def test_packed_rank_inverts_combinations_order():
    """``_place`` ranks every k-set of range(n), n <= 10, at its place in
    ``itertools.combinations`` order, signs each ordering of it by its
    inversion parity, and gives (0, 0) to an index that repeats a value."""
    place = tensor_module._place
    for n in range(0, 11):
        for k in range(0, n + 1):
            for i, key in enumerate(itertools.combinations(range(n), k)):
                assert place(key, n) == (i, 1)
                if n <= 6:
                    assert all(place(p, n) == (i, sort_sign(p))
                               for p in itertools.permutations(key))
                if key:
                    assert place(key + key[:1], n) == (0, 0)
                    assert place(key[:1] + key, n) == (0, 0)


def test_get_keeps_no_rank_table():
    """One ``get`` on a rank-8 alternating tensor over n = 16 (12,870 packed
    entries) reads the entry at its sorted index, signed, with a tracemalloc
    peak under 64 KiB: the rank is computed, and no k-set is listed."""
    n, r = 16, 8
    t = Tensor((n,) * r, EXACT, alt=list(range(1, math.comb(n, r) + 1)))
    index = (3, 0, 1, 2, 4, 5, 6, 15)  # three inversions
    want = list(itertools.combinations(range(n), r)).index(tuple(sorted(index))) + 1
    tracemalloc.start()
    try:
        got = t.get(index)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == sort_sign(index) * want and sort_sign(index) == -1
    assert peak < 64 * 1024


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


def per_set_contract(al, al_axes, ot, ot_axes) -> list:
    """The alternating kernel's packed output with a dense partner folded set
    by set: for each sorted m-set K, in packed order, one sum from int 0 of
    every ordering's signed entry, the orderings in permutations order."""
    m, n, r = len(ot_axes), al.shape[0] if al.shape else 0, al.rank
    al_keep = [a for a in range(r) if a not in al_axes]
    base = sort_sign(al_axes + al_keep)
    strides = [math.prod(ot.shape[a + 1:]) for a in ot_axes]
    orderings = [(base * sort_sign(p), [strides[p.index(i)] for i in range(m)])
                 for p in itertools.permutations(range(m))]
    fold = [sum(s * ot.dense[sum(x * y for x, y in zip(k, w))] for s, w in orderings)
            for k in itertools.combinations(range(n), m)]
    src, fold_at = tensor_module._alt_tables(n, r, m)
    zero, count = (0 if al.backend == EXACT else 0.0), math.comb(n, r - m)
    if not src:
        return [zero] * count
    fold += [-v for v in fold]
    prods = [al.alt[i] * fold[j] for i, j in zip(src, fold_at)]
    run = len(src) // count
    return [sum(prods[i:i + run], zero) for i in range(0, len(prods), run)]


@pytest.mark.parametrize("backend", [EXACT, F64])
def test_dense_fold_matches_the_per_set_formula(backend):
    """One gather per ordering folds a dense partner to the per-set sums, bit
    for bit: every n <= 7 and m <= 4 (m = 0 is a rank-0 partner), every
    order of the partner's axes, both argument orders, and partners with
    zeros and, on f64, signed zeros and entries whose sums round."""
    rng = random.Random(43)
    pool = ([0, 0, 1, -1, 7, -(10 ** 20)] if backend == EXACT
            else [0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 1e16, -1e16, 1 / 3])
    runs = 0
    for n in range(1, 8):
        for m in range(0, 5):
            r = rng.randint(m, max(m, n))
            alt = Tensor((n,) * r, backend, alt=[rng.choice(pool) for _ in range(math.comb(n, r))])
            partner = Tensor((n,) * m, backend, dense=[rng.choice(pool) for _ in range(n ** m)])
            matched = rng.sample(range(r), m)
            for p_axes in itertools.permutations(range(m)):
                want = per_set_contract(alt, matched, partner, list(p_axes))
                for got in (pair_contract(alt, matched, partner, p_axes),
                            pair_contract(partner, p_axes, alt, matched)):
                    assert got.alt is not None and len(got.alt) == len(want)
                    if backend == EXACT:
                        assert got.alt == want and all(type(v) is int for v in got.alt)
                    else:
                        assert list(map(repr, got.alt)) == list(map(repr, want)), (n, m, p_axes)
                    runs += 1
    assert runs > 200


@pytest.fixture
def fresh_kernel_caches():
    """The kernel's getter caches, emptied before and after the test, so no
    getter built in it (wrapped, or for a patched block size) outlives it."""
    caches = (tensor_module._alt_blocks, tensor_module._fold_getters)
    for c in caches:
        c.cache_clear()
    yield
    for c in caches:
        c.cache_clear()


@pytest.fixture
def gathers(monkeypatch, fresh_kernel_caches) -> list:
    """(partner kind, m, fold gathers, packed gathers, signed-fold gathers)
    of every alternating-kernel call in the test.  Every gather is a getter
    from ``_getter`` applied to a list, reading a whole list of positions at
    C level (a getter applied to a tuple reads a key); a gather is told apart
    by the list it reads: the dense partner (the fold), the packed operand
    or the signed fold (the product loop).  The kernel's caches start empty,
    so each getter they keep is built by the recording ``_getter``."""
    calls, seqs = [], []
    getter, original = tensor_module._getter, tensor_module._contract_alt

    def recording(indices):
        get = getter(indices)
        return lambda seq: (type(seq) is list and seqs.append(seq)) or get(seq)

    def counted(al, al_axes, al_keep, ot, ot_axes):
        seqs.clear()
        out = original(al, al_axes, al_keep, ot, ot_axes)
        kind = "dense" if ot.dense is not None else "alt" if ot.alt is not None else "sparse"
        folds = sum(s is ot.dense for s in seqs)
        packed = sum(s is al.alt for s in seqs)
        calls.append((kind, len(ot_axes), folds, packed, len(seqs) - folds - packed))
        return out

    monkeypatch.setattr(tensor_module, "_getter", recording)
    monkeypatch.setattr(tensor_module, "_contract_alt", counted)
    return calls


def test_dense_fold_makes_one_gather_per_ordering_at_every_n(gathers):
    """A dense fold costs m! C-level gathers whatever the alphabet n, so no
    Python loop over the C(n, m) sorted sets can come back: eps(n) against a
    rank-m partner for m <= 4 and n up to 10; the 2n = 10 Pfaffian diagram,
    two gathers at each of its five steps; and the n = 10 determinant
    diagram, whose ten steps each fold a sparse column and gather nothing.
    Every one of these steps has at most 4,096 rows, so its product loop
    gathers each operand once."""
    calls = gathers
    rng = random.Random(47)
    for n in (4, 7, 10):
        for m in range(0, 5):
            partner = Tensor((n,) * m, EXACT, dense=[rng.randint(-9, 9) for _ in range(n ** m)])
            pair_contract(levi_civita(n), list(range(m)), partner, list(range(m))[::-1])
            assert calls.pop() == ("dense", m, math.factorial(m), 1, 1)
    z = exterior_planned(pfaffian_diagram(rand_skew(rng, 10)))
    assert z.get(()) != 0 and calls == [("dense", 2, 2, 1, 1)] * 5
    calls.clear()
    z = exterior_planned(det_diagram(rand_mat(rng, 10, 10)))
    assert z.get(()) != 0 and calls == [("sparse", 1, 0, 1, 1)] * 10


def run_of(n, r, m) -> int:
    """Rows per output entry of the alternating kernel: C(n - r + m, m)."""
    return math.comb(n - r + m, m)


@pytest.mark.parametrize("backend", [EXACT, F64])
@pytest.mark.usefixtures("fresh_kernel_caches")
def test_product_blocks_give_the_same_bits(backend, monkeypatch):
    """The product loop gathers blocks of whole output runs, and each output
    entry is still one sum from zero over its run, so block sizes of one run,
    two runs and three runs plus one row (rounded down to whole runs) give
    the per-set formula's bits: exact results by ==, f64 ones by repr, so
    signed zeros count; both argument orders, every order of the partner's
    axes, and steps that end in a partial block."""
    rng = random.Random(53)
    pool = ([0, 0, 1, -1, 7, -(10 ** 20)] if backend == EXACT
            else [0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 1e16, -1e16, 1 / 3])
    split = 0
    for n in range(2, 8):
        for m in range(0, min(n, 3) + 1):
            r = rng.randint(m, n)
            run = run_of(n, r, m)
            alt = Tensor((n,) * r, backend, alt=[rng.choice(pool) for _ in range(math.comb(n, r))])
            partner = Tensor((n,) * m, backend, dense=[rng.choice(pool) for _ in range(n ** m)])
            matched = rng.sample(range(r), m)
            for p_axes in itertools.permutations(range(m)):
                want = per_set_contract(alt, matched, partner, list(p_axes))
                for block in (run, 2 * run, 3 * run + 1):
                    monkeypatch.setattr(tensor_module, "_BLOCK_ROWS", block)
                    for got in (pair_contract(alt, matched, partner, p_axes),
                                pair_contract(partner, p_axes, alt, matched)):
                        if backend == EXACT:
                            assert got.alt == want and all(type(v) is int for v in got.alt)
                        else:
                            assert list(map(repr, got.alt)) == list(map(repr, want)), (n, m, block)
                    split += len(want) % (block // run) != 0
    assert split > 20


def test_product_loop_gathers_each_operand_once_per_block(gathers, monkeypatch):
    """The product loop makes ceil(rows / block) gathers of each operand,
    the block being the largest number of whole runs within _BLOCK_ROWS (at
    least one run): a rank-8 alternating tensor over n = 14 contracted on
    two axes with a dense 14 x 14 has 3,003 outputs of 28 rows, 84,084 rows
    in all."""
    calls = gathers
    rng = random.Random(59)
    n, r, m = 14, 8, 2
    rows, run = math.comb(n, r - m) * run_of(n, r, m), run_of(n, r, m)
    alt = Tensor((n,) * r, EXACT, alt=[rng.randint(-9, 9) for _ in range(math.comb(n, r))])
    partner = Tensor((n, n), EXACT, dense=[rng.randint(-9, 9) for _ in range(n * n)])
    assert (rows, run) == (84084, 28)
    for block in (None, 1, 28, 56, 100, 4096, 10 ** 6):
        if block is not None:
            monkeypatch.setattr(tensor_module, "_BLOCK_ROWS", block)
        step = max(1, tensor_module._BLOCK_ROWS // run) * run
        pair_contract(alt, [3, 5], partner, [0, 1])
        assert calls.pop() == ("dense", 2, 2, -(-rows // step), -(-rows // step)), block


def test_product_loop_memory_stays_bounded_at_n14():
    """Blocks bound what a step holds at once: the tracemalloc peak of the
    84,084-row step above, its blocks kept, is under CPython 3.11 about
    0.18 MB with blocks of 4,096 rows (4.1 MB for one gather of every row
    before blocks), so the bound is 1 MB."""
    rng = random.Random(61)
    n, r = 14, 8
    for backend in (EXACT, F64):
        alt = Tensor((n,) * r, backend,
                     alt=[entry(rng, backend) for _ in range(math.comb(n, r))])
        partner = Tensor((n, n), backend, dense=[entry(rng, backend) for _ in range(n * n)])
        pair_contract(alt, [0, 1], partner, [0, 1])  # the shape's blocks, kept
        tracemalloc.start()
        try:
            out = pair_contract(alt, [0, 1], partner, [0, 1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out.alt) == 3003 and peak <= 1e6, (backend, peak)


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
        assert sym.alt is not None and not any(sym.alt) and sym.shape == (n,) * (n - 2)
        m = dense_matrix(rng, n, backend)
        skew = m.add(m.permute_axes([1, 0]).scale(-1))
        half = Fraction(1, 2) if backend == EXACT else 0.5
        got = pair_contract(eps, axes, m, [0, 1])
        want = pair_contract(eps, axes, skew, [0, 1]).scale(half)
        assert any(got.alt) and agree(written_out(got), explicit(want))


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


@pytest.mark.parametrize("backend", [EXACT, F64])
def test_get_reads_packed_entries(backend, monkeypatch):
    """Every index of eps(1..6) reads the value, and the type, of the
    written-out tensor, with nothing written out."""
    eps = [levi_civita(n, backend) for n in range(1, 7)]
    want = [written_out(t) for t in eps]
    expanded = record_expansions(monkeypatch)
    for t, w in zip(eps, want):
        for index in itertools.product(range(t.rank), repeat=t.rank):
            got, ref = t.get(index), w.get(index)
            assert got == ref and type(got) is type(ref)
    a = rand_alt(random.Random(3), 3, 5, backend)
    for index in itertools.product(range(5), repeat=3):
        got, ref = a.get(index), written_out(a).get(index)
        assert got == ref and type(got) is type(ref)
    for bad, message in [((0, 1), "index rank 2 != tensor rank 3"),
                         ((0, 1, 5), r"index \[0, 1, 5\] out of bounds for shape \[5, 5, 5\]"),
                         ((-1, 1, 1), "out of bounds")]:
        with pytest.raises(TensorError, match=message):
            a.get(bad)
    assert expanded == []


def test_lemma2_suite_writes_out_no_tensor(monkeypatch):
    expanded = record_expansions(monkeypatch)
    assert all(ok for _, ok, _ in run_suite("lemma2"))
    assert expanded == []


def test_epsilon_diagrams_brute_planned_and_oracle_agree(monkeypatch):
    """The Pfaffian (2n <= 8) and determinant (n <= 6) diagrams give one value
    by the brute engine, which enumerates each epsilon vertex's signed
    orderings without writing the tensor out, by the plan, and by the oracle."""
    expanded = record_expansions(monkeypatch)
    rng = random.Random(37)
    cases = [(pfaffian_diagram(a), pfaffian_factor(dim // 2) * pfaffian_oracle(a))
             for dim in (2, 4, 6, 8) for a in [rand_skew(rng, dim)]]
    cases += [(det_diagram(a), det_oracle(a)) for n in range(1, 7) for a in [rand_mat(rng, n, n)]]
    for g, want in cases:
        assert exterior_brute(g).get(()) == want
    assert expanded == []
    for g, want in cases:
        assert exterior_planned(g).get(()) == want


def test_kernel_tables_hold_only_the_shapes_used(monkeypatch):
    """After every epsilon diagram up to the limit, the kernel's kept blocks
    are those of the chains the plans contract, rank r against m = 2
    (Pfaffian) or m = 1 (determinant), at the one block size: at most 3**n
    rows per alphabet n in all, and 5,760 for the 2n = 10 Pfaffian.  Each
    shape's blocks read its table's rows in order, in whole runs."""
    cached, kept = tensor_module._alt_blocks, {}
    cached.cache_clear()
    monkeypatch.setattr(tensor_module, "_alt_blocks",
                        lambda *key: kept.setdefault(key, cached(*key)))
    rng = random.Random(41)
    for n in range(1, EPS_DEFAULT_LIMIT + 1):
        if n % 2 == 0:
            exterior_planned(pfaffian_diagram(rand_skew(rng, n)))
        exterior_planned(det_diagram(rand_mat(rng, n, n)))
    assert cached.cache_info().currsize == len(kept)
    block = tensor_module._BLOCK_ROWS
    pfaffian = {(n, r, 2, block) for n in range(2, 11, 2) for r in range(2, n + 1, 2)}
    det = {(n, r, 1, block) for n in range(1, 11) for r in range(1, n + 1)}
    assert pfaffian <= set(kept) <= pfaffian | det
    rows = {}
    for (n, r, m, _), (run, blocks) in kept.items():
        src = [i for get, _ in blocks for i in get(range(math.comb(n, r)))]
        fold = [j for _, get in blocks for j in get(range(2 * math.comb(n, m)))]
        assert [src, fold] == list(tensor_module._alt_tables(n, r, m))
        assert len(src) == math.comb(n, r) * math.comb(r, m) == run * math.comb(n, r - m)
        assert all(len(get(range(len(src)))) % run == 0 for get, _ in blocks)
        rows[n, m] = rows.get((n, m), 0) + len(src)
    assert rows[10, 2] == 5760
    assert all(rows.get((n, 1), 0) + rows.get((n, 2), 0) <= 3 ** n for n in range(1, 11))


def test_perm_signs_match_inversion_counts():
    """The block recurrence lists, in permutations order, the sign that
    counting each permutation's inversions gives."""
    for rank in range(9):
        assert list(tensor_module._perm_signs(rank)) == list(
            map(tensor_module.inversion_sign, itertools.permutations(range(rank))))


@pytest.fixture
def fresh_read_tables():
    """The per-shape read tables of ``nonzeros``, emptied before and after."""
    caches = (tensor_module._index_table, tensor_module._ordering_table)
    for c in caches:
        c.cache_clear()
    yield caches
    for c in caches:
        c.cache_clear()


def test_read_tables_list_what_the_generators_list(fresh_read_tables):
    """Dense and alternating tensors read through the kept tables (and, past
    _BLOCK_ROWS orderings, through the generators) list the nonzeros that
    itertools lists, in the same order."""
    rng = random.Random(35)
    for shape in [(), (1,), (3,), (2, 3), (3, 1, 2), (4, 4, 4), (16, 16, 16)]:
        t = Tensor.from_values(shape, [rng.randint(-1, 1) for _ in range(math.prod(shape))])
        want = [(k, v) for k, v in zip(itertools.product(*map(range, shape)), t.dense) if v]
        assert list(t.nonzeros()) == want, shape
    for n in range(8):
        for r in range(n + 1):
            t = Tensor((n,) * r, EXACT, alt=[rng.randint(-1, 1) for _ in range(math.comb(n, r))])
            want = [(p, tensor_module.inversion_sign(p) * v)
                    for key, v in zip(itertools.combinations(range(n), r), t.alt) if v
                    for p in itertools.permutations(key)]
            assert list(t.nonzeros()) == want, (n, r)
    index_table, ordering_table = fresh_read_tables
    assert index_table.cache_info().currsize == 7
    assert ordering_table.cache_info().currsize == len({  # rank 0 is read as (0, 0)
        (n * (r > 0), r) for n in range(8) for r in range(n + 1)
        if math.perm(n, r) <= tensor_module._BLOCK_ROWS})


def test_large_tensors_keep_no_read_table(fresh_read_tables):
    """Reading a dense tensor of more than _BLOCK_ROWS cells, or an
    alternating one of more than _BLOCK_ROWS orderings, leaves the table
    caches as they were; a dense tensor of exactly _BLOCK_ROWS cells, and an
    alternating one of fewer orderings (C(8, 4)·4! = 1,680), keep one each."""
    index_table, ordering_table = fresh_read_tables
    big = Tensor((65, 64), EXACT, dense=list(range(65 * 64)))
    assert len(list(big.nonzeros())) == 65 * 64 - 1
    assert len(list(levi_civita(7).nonzeros())) == math.factorial(7) > tensor_module._BLOCK_ROWS
    assert index_table.cache_info().currsize == ordering_table.cache_info().currsize == 0
    assert len(list(Tensor((64, 64), EXACT, dense=[1] * 4096).nonzeros())) == 4096
    assert len(list(Tensor((8,) * 4, EXACT, alt=[1] * 70).nonzeros())) == 70 * 24
    assert index_table.cache_info().currsize == ordering_table.cache_info().currsize == 1


def test_source_ranks_are_one_int_object_per_value_across_shapes():
    """Every shape over one alphabet draws its source ranks from one tuple
    (``_rank_ints``), so across the determinant's (m = 1) and the Pfaffian's
    (m = 2) shapes at n = 12 each rank value is one int object; the tables
    stay alive while their ids are counted, so no id is reused."""
    n = 12
    tables = [tensor_module._alt_tables(n, r, m) for m in (1, 2) for r in range(m, n + 1)]
    ids = {}
    for src, _ in tables:
        for rank in src:
            ids.setdefault(rank, set()).add(id(rank))
    assert sorted(ids) == list(range(math.comb(n, n // 2)))
    assert sum(map(len, ids.values())) == len(ids)


def test_a_warm_pfaffian_builds_no_getter(monkeypatch, fresh_kernel_caches):
    """Once a 2n = 10 Pfaffian diagram has run, running it again builds no
    getter and keeps nothing new: its five steps' blocks and the fold's
    getters are all kept."""
    g = pfaffian_diagram(rand_skew(random.Random(67), 10))
    want = exterior_planned(g).get(())
    caches = (tensor_module._alt_blocks, tensor_module._fold_getters)
    warm = [c.cache_info().currsize for c in caches]
    built, getter = [], tensor_module._getter
    monkeypatch.setattr(tensor_module, "_getter",
                        lambda indices: built.append(indices) or getter(indices))
    assert exterior_planned(g).get(()) == want
    assert built == [] and [c.cache_info().currsize for c in caches] == warm == [5, 1]


def test_a_new_block_size_gets_new_blocks(gathers, monkeypatch):
    """Blocks are kept per block size, so a _BLOCK_ROWS set between two
    calls of one shape gives the new block count, not the kept blocks: the
    2n = 10 Pfaffian's rank-6 step, 210 runs of 15 rows, is one block at
    4,096 rows, 210 at one run and 35 at 100 rows (six runs), and one again
    at 4,096."""
    rng = random.Random(71)
    alt = Tensor((10,) * 6, EXACT, alt=[rng.randint(-9, 9) for _ in range(math.comb(10, 6))])
    partner = Tensor((10, 10), EXACT, dense=[rng.randint(-9, 9) for _ in range(100)])
    want = pair_contract(alt, [0, 1], partner, [0, 1])
    assert gathers.pop() == ("dense", 2, 2, 1, 1)
    for block, count in ((15, 210), (100, 35), (4096, 1)):
        monkeypatch.setattr(tensor_module, "_BLOCK_ROWS", block)
        assert pair_contract(alt, [0, 1], partner, [0, 1]).alt == want.alt
        assert gathers.pop() == ("dense", 2, 2, count, count), block


def test_kernel_cache_of_the_2n10_pfaffian_stays_under_150kb(fresh_kernel_caches):
    """The blocks a 2n = 10 Pfaffian keeps hold one shared int object per
    distinct rank and a pointer per row per operand: about 92 KB for its
    5,760 rows, bounded at 150 KB by tracemalloc, everything else warm."""
    g = pfaffian_diagram(rand_skew(random.Random(73), 10))
    exterior_planned(g)
    tensor_module._alt_blocks.cache_clear()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        exterior_planned(g)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tensor_module._alt_blocks.cache_info().currsize == 5
    assert 5760 * 2 * 8 <= after - before <= 150_000, after - before


@pytest.mark.parametrize("n", [9, 10])
def test_det_diagram_beyond_the_oracle(n):
    a = rand_mat(random.Random(n), n, n)
    assert exterior_planned(det_diagram(a)).get(()) == bareiss_det(a)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pfaffian_diagram_2n_10(seed):
    a = rand_skew(random.Random(seed), 10)
    z = exterior_planned(pfaffian_diagram(a))
    assert z.get(()) == pfaffian_factor(5) * pfaffian_expansion(a)


def record_expansions(monkeypatch) -> list:
    """The rank of every alternating tensor written out from now on: each
    first read of ``Tensor.sparse`` on one."""
    expanded = []
    original = Tensor.sparse.fget

    def record(t):
        if t.alt is not None and t._sparse is None:
            expanded.append(t.rank)
        return original(t)

    monkeypatch.setattr(Tensor, "sparse", property(record))
    return expanded


def test_epsilon_networks_expand_no_alternating_tensor(monkeypatch):
    """The Pfaffian and determinant diagrams stay alternating at every step,
    and ``get`` reads their rank-0 results without writing them out."""
    expanded = record_expansions(monkeypatch)
    rng = random.Random(5)
    for g in (pfaffian_diagram(rand_skew(rng, 10)), det_diagram(rand_mat(rng, 10, 10))):
        z = exterior_planned(g, plan_greedy(g))
        assert z.alt is not None and z.get(()) != 0
    assert expanded == []


def test_alternating_partner_is_read_without_expansion(monkeypatch):
    """An alternating operand that is fully contracted is folded from its
    stored keys, on either side and with its axes in any order."""
    expanded = record_expansions(monkeypatch)
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
def test_hash_join_and_sparse_mix_read_alternating_operands_without_expansion(
        backend, monkeypatch):
    """An alternating operand whose partner keeps axes meets it in the hash
    join, on either side; that join, and ``add`` and ``equal`` of an
    alternating tensor with a sparse one, read its signed orderings as they
    are generated, never written out, and give the written-out route's values."""
    expanded = record_expansions(monkeypatch)
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randint(1, 5)
        rank = rng.randint(1, n)
        alt = rand_alt(rng, rank, n, backend)
        matched = rng.sample(range(rank), rng.randint(0, rank - 1))
        kind = rng.choice(["dense", "sparse", "alt"])
        p_rank = len(matched) + rng.randint(1, 2)
        p_axes = rng.sample(range(p_rank), len(matched))
        shape = [n if kind == "alt" else rng.randint(1, 4) for _ in range(p_rank)]
        for a in p_axes:
            shape[a] = n
        partner = rand_partner(rng, tuple(shape), backend, kind)
        if rng.random() < 0.5:
            got = pair_contract(alt, matched, partner, p_axes)
            want = pair_contract(written_out(alt), matched, explicit(partner), p_axes)
        else:
            got = pair_contract(partner, p_axes, alt, matched)
            want = pair_contract(explicit(partner), p_axes, written_out(alt), matched)
        assert got.alt is None and got.is_sparse and agree(got, want)
        other = written_out(rand_alt(rng, rank, n, backend))
        assert agree(alt.add(other), written_out(alt).add(other))
        assert alt.equal(written_out(alt)) and written_out(alt).equal(alt)
        assert alt.equal(other) == written_out(alt).equal(other)
    assert expanded == []


@pytest.mark.parametrize("backend", [EXACT, F64])
def test_scale_add_equal_read_packed_entries(backend, monkeypatch):
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
    expanded = record_expansions(monkeypatch)
    for a, b, lam, wa, wb in cases:
        scaled, summed = a.scale(lam), a.add(b)
        assert scaled.alt is not None and summed.alt is not None
        assert (not any(scaled.alt)) == (lam == 0 or not any(a.alt))
        for got, want in ((scaled, wa.scale(lam)), (summed, wa.add(wb))):
            got = written_out(got)
            assert (got.sparse, got.denom) == (want.sparse, want.denom)
        for x, y in ((a, b), (a, a.scale(1)), (summed, b.add(a)), (scaled, b)):
            assert x.equal(y, TOL) == written_out(x).equal(written_out(y), TOL)
        assert a.equal(a.scale(1)) and summed.equal(b.add(a), TOL)
    assert [bool(v) for v in eps_m.scale(half).alt] == [bool(v) for v in eps_m.alt]
    assert any(eps_m.alt) and expanded == []

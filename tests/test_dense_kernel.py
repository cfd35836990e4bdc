"""The dense x dense kernel: packed (Kronecker substitution) against plain.

An exact pair that is large enough is contracted by packing the larger kept
side into one int per matched cell; the plain loop forms each output cell as
one sum of products.  ``tensor._PACK_MIN`` sets the size where packing starts:
0 packs every exact pair, a huge value packs none, so the same
``pair_contract`` call runs either branch.
"""

import random
from array import array
from math import prod
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from nfg import tensor
from nfg.scalars import EXACT, F64
from nfg.tensor import Tensor, pair_contract

ALWAYS, NEVER = 0, 10**9

# bounds on |entry|: tiny, 64-bit slots, either side of the 8-byte slot limit
# for small matched sizes, and numerators past 2**64
MAGNITUDES = (1, 9, 2**15, 2**30, 2**31, 2**62, 2**64 + 3, 2**100)


def _contract(pack_min, f, f_axes, g, g_axes):
    saved = tensor._PACK_MIN
    tensor._PACK_MIN = pack_min
    try:
        return pair_contract(f, f_axes, g, g_axes)
    finally:
        tensor._PACK_MIN = saved


def _fill(rng, size, magnitude, zeros):
    return [0 if rng.random() < zeros else rng.randint(-magnitude, magnitude)
            for _ in range(size)]


@st.composite
def dense_pairs(draw):
    """Two exact dense tensors and the axes they share, kept and matched axes
    interleaved in a drawn order, with entries of drawn size and sparsity."""
    matched = draw(st.lists(st.integers(1, 3), max_size=2))  # [] is an outer product
    f_kept = draw(st.lists(st.integers(1, 4), max_size=2))
    g_kept = draw(st.lists(st.integers(1, 4), max_size=2))
    f_order = draw(st.permutations(range(len(f_kept) + len(matched))))
    g_order = draw(st.permutations(range(len(g_kept) + len(matched))))
    f_dims, g_dims = f_kept + matched, g_kept + matched
    f_shape = tuple(f_dims[i] for i in f_order)
    g_shape = tuple(g_dims[i] for i in g_order)
    f_axes = [f_order.index(len(f_kept) + k) for k in range(len(matched))]
    g_axes = [g_order.index(len(g_kept) + k) for k in range(len(matched))]
    rng = draw(st.randoms(use_true_random=False))
    zeros = draw(st.sampled_from((0.0, 0.3, 1.0)))
    f_data = _fill(rng, prod(f_shape), draw(st.sampled_from(MAGNITUDES)), zeros)
    g_data = _fill(rng, prod(g_shape), draw(st.sampled_from(MAGNITUDES)), zeros)
    if draw(st.booleans()):  # one huge entry among the others
        f_data[rng.randrange(len(f_data))] = draw(st.sampled_from((-1, 1))) * 2**200
    f = Tensor(f_shape, EXACT, dense=f_data, denom=draw(st.integers(1, 6)))
    g = Tensor(g_shape, EXACT, dense=g_data)
    return f, f_axes, g, g_axes


@settings(max_examples=150, deadline=None)
@given(dense_pairs())
def test_packed_kernel_matches_plain_loop(pair):
    f, f_axes, g, g_axes = pair
    packed = _contract(ALWAYS, f, f_axes, g, g_axes)
    plain = _contract(NEVER, f, f_axes, g, g_axes)
    assert packed.shape == plain.shape
    assert packed.denom == plain.denom
    assert packed.dense == plain.dense
    assert set(map(type, packed.dense)) <= {int}


def _matrix(rows, cols, values):
    return Tensor((rows, cols), EXACT, dense=list(values))


def _zero_line_cases():
    """Matrix products whose zeros fall on whole rows, columns or operands."""
    rng = random.Random(5)
    f = _fill(rng, 6 * 3, 50, 0.0)
    g = _fill(rng, 3 * 9, 50, 0.0)
    f_zero_row = list(f)
    f_zero_row[3:6] = [0, 0, 0]
    g_zero_col = list(g)
    g_zero_col[4::9] = [0, 0, 0]
    yield "zero row", f_zero_row, g
    yield "zero column", f, g_zero_col
    yield "zero operand", [0] * 18, g
    yield "both zero", [0] * 18, [0] * 27
    yield "huge against zero", [-2**100] * 18, [0] * 27  # entries set the slot width


@pytest.mark.parametrize("name, f_data, g_data", list(_zero_line_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
@pytest.mark.parametrize("transpose", (False, True))
def test_packed_kernel_on_zero_rows_columns_and_operands(name, f_data, g_data, transpose):
    f, g = _matrix(6, 3, f_data), _matrix(3, 9, g_data)
    if transpose:  # the 9 kept cells on f's side: the other orientation
        f, g = g.permute_axes((1, 0)), f.permute_axes((1, 0))
    packed = _contract(ALWAYS, f, [1], g, [0])
    assert packed.dense == _contract(NEVER, f, [1], g, [0]).dense


@pytest.mark.parametrize("f_max, g_max, wide", [
    (2**31, 2**31 - 1, False),   # bound 2**63 - 2**32: 8-byte slots
    (2**31, 2**31, True),        # bound 2**63 exactly: the first wide bound
    (2**32, 2**31, True),
])
@pytest.mark.parametrize("rows, cols", [(8, 12), (12, 8)])
def test_packed_kernel_at_the_8_byte_slot_limit(f_max, g_max, wide, rows, cols):
    """Output cells reach +-bound = f_max * g_max * 2, and L = 2."""
    rng = random.Random(rows)
    f_data = [f_max, f_max, -f_max, -f_max] + [rng.choice((f_max, -f_max, 1 - f_max))
                                               for _ in range(rows * 2 - 4)]
    g_data = [rng.choice((g_max, -g_max, g_max - 1)) for _ in range(2 * cols)]
    g_data[0] = g_data[cols] = g_max
    f, g = _matrix(rows, 2, f_data), _matrix(2, cols, g_data)
    assert (f_max * g_max * 2 >= 2**63) == wide
    packed = _contract(ALWAYS, f, [1], g, [0])
    plain = _contract(NEVER, f, [1], g, [0])
    assert packed.dense == plain.dense
    assert max(map(abs, packed.dense)) == f_max * g_max * 2


@pytest.fixture
def sum_calls(monkeypatch):
    """Count the kernel's calls to the built-in sum."""
    calls = []

    def counting_sum(*args):
        calls.append(1)
        return sum(*args)

    monkeypatch.setattr(tensor, "sum", counting_sum, raising=False)
    return calls


@pytest.mark.parametrize("rows, matched, cols, bits", [
    (36, 6, 36, 15),    # a dense-exact ladder step, 8-byte slots
    (36, 36, 36, 29),   # a dense-exact ladder step over two shared edges
    (96, 6, 24, 70),    # a dense-exact ring step, wide slots, f's side packed
])
def test_dense_exact_sized_contraction_takes_the_packed_path(sum_calls, rows, matched,
                                                             cols, bits):
    """The plain loop makes one sum per output cell; the packed path two per
    kept cell of the smaller side, whatever the slot width."""
    rng = random.Random(bits)
    f = _matrix(rows, matched, _fill(rng, rows * matched, 2**bits, 0.1))
    g = _matrix(matched, cols, _fill(rng, matched * cols, 2**bits, 0.1))
    out = pair_contract(f, [1], g, [0])
    assert len(sum_calls) <= 2 * min(rows, cols) < rows * cols
    sum_calls.clear()
    assert out.dense == _contract(NEVER, f, [1], g, [0]).dense
    assert len(sum_calls) == rows * cols


def test_f64_keeps_the_plain_loop_bit_for_bit(sum_calls):
    """Floats are summed as sum(map(mul, row, col), 0.0), in row order."""
    rng = random.Random(11)
    rows, matched, cols = 36, 6, 36
    f_data = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(rows * matched)]
    g_data = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(matched * cols)]
    out = pair_contract(Tensor((rows, matched), F64, dense=f_data), [1],
                        Tensor((matched, cols), F64, dense=g_data), [0])
    assert len(sum_calls) == rows * cols
    expected = [sum(map(mul, f_data[r * matched:(r + 1) * matched], g_data[c::cols]), 0.0)
                for r in range(rows) for c in range(cols)]
    assert array("d", out.dense).tobytes() == array("d", expected).tobytes()

"""Finite tensors over a scalar backend, dense, sparse or alternating, plus
pair contraction.

The two-tensor contraction here is the workhorse of the whole package: it
realizes the sum over all shared variables of a product of two local
functions, which subsumes tensor, matrix, matrix-vector and dot products.
A tensor has one of three storage kinds:

* ``dense``: a row-major list of every cell;
* ``sparse``: a map from index tuple to nonzero entry;
* ``alt`` (alternating): a map from strictly increasing index tuples to
  nonzero entries, over one alphabet size on every axis.  The value at any
  index is the sign of the permutation that sorts it times the entry at the
  sorted tuple, or zero if the index repeats a value.  The Levi-Civita
  symbol eps(n) is the single entry ``(0, ..., n-1): 1``, so it and every
  intermediate of the epsilon networks stay at C(n, k) entries instead of
  n!/k! (packed antisymmetric storage, as in the Cyclops Tensor Framework).
  An alternating tensor reads as sparse: ``sparse`` expands it once, on
  first use, and keeps the result.

Three kernels do all contractions.  Dense x dense forms each output cell as
one sum of products; on the exact backend, once both sides keep a few cells,
it packs the side that keeps more into one int per matched cell (Kronecker
substitution), so one sum of big-int products yields a whole output row.
Floats keep the plain sums, whose rounding follows the summation order.  An
alternating operand against an operand it fully contracts is an
exterior-algebra update whose result is alternating: for each stored key and
each ordered choice of its values on the matched axes, the other operand's
entry times the sign is added to the entry of the remaining values.  Every
other contraction with a sparse operand is one hash join: each nonzero of
the sparse operand meets the other operand's entries that agree with it on
the matched axes, found in an index by matched positions if the other is
sparse, or at offsets computed from the key if it is dense.  A trace (a
self-loop) is a contraction with the equality indicator delta, which is zero
on an alternating pair of axes.

Exact tensors are stored fraction-free, after Bareiss (1968): every entry is
a Python ``int`` numerator over one positive ``int`` denominator ``denom``
shared by the whole tensor.  The kernels therefore do plain integer
multiply-adds, and a contraction's denominator is the product of its
operands'.  Numerators are not kept in lowest terms; the value API (``get``,
``values``, ``equal``, ``to_obj``) divides at the boundary, where entries are
``fractions.Fraction`` rationals in lowest terms.  ``f64`` tensors store
``float`` entries with ``denom`` fixed at 1, so both backends share every
kernel.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Dict, Iterable, List, Sequence, Tuple

from . import scalars
from .scalars import BackendMismatch, EXACT, ExactValue, F64

Shape = Tuple[int, ...]
Index = Tuple[int, ...]

# the stored zero and one of each backend, and the one type its entries have
ZERO_ENTRY = {EXACT: 0, F64: 0.0}
ONE_ENTRY = {EXACT: 1, F64: 1.0}
_ENTRY_TYPE = {EXACT: int, F64: float}
# An exact dense pair is packed when one side keeps at least _PACK_MIN cells
# and the other twice that, and, if slots are wider than 8 bytes, it sums
# over at least _PACK_MIN matched cells; smaller pairs gain nothing, as
# measured (4 x L x 4, 6 x L x 6, and 16 x 1 x 16 with 70-bit entries).
_PACK_MIN = 4


class TensorError(ValueError):
    pass


def shape_size(shape: Shape) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


def _strides(shape: Shape) -> Tuple[int, ...]:
    acc = 1
    out = []
    for d in reversed(shape):
        out.append(acc)
        acc *= d
    return tuple(reversed(out))


def _offsets(shape: Shape, axes: Sequence[int]) -> List[int]:
    """Row-major offsets, into a tensor of this shape, of every index over `axes`."""
    st = _strides(shape)
    offsets = [0]
    for a in axes:
        offsets = [off + i * st[a] for off in offsets for i in range(shape[a])]
    return offsets


def _cells(shape: Shape, axes: Sequence[int]):
    """(index over `axes`, row-major offset into a tensor of this shape) pairs."""
    return zip(itertools.product(*(range(shape[a]) for a in axes)), _offsets(shape, axes))


def inversion_sign(seq: Sequence[int]) -> int:
    """(-1)**inversions: the sign of the permutation that sorts distinct values."""
    inv = 0
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _expand_alt(alt: dict, rank: int) -> dict:
    """Every nonzero of an alternating tensor, one block of permutations per key."""
    # itertools permutes a sorted key in lexicographic order: m blocks, the
    # r-th led by the r-th item, which precedes r smaller items, followed by
    # the permutations of the rest in the same order; so each block repeats
    # the signs for m-1, negated when r is odd
    signs = [1]
    for m in range(2, rank + 1):
        signs = (signs + [-s for s in signs]) * (m // 2) + signs * (m % 2)
    out = {}
    for key, v in alt.items():
        out.update(zip(itertools.permutations(key), [s * v for s in signs]))
    return out


def _getter(indices: Sequence[int]):
    """Key -> tuple of the given positions, tuple-valued even for 0/1 positions."""
    if len(indices) == 0:
        return lambda key: ()
    if len(indices) == 1:
        k = indices[0]
        return lambda key: (key[k],)
    return itemgetter(*indices)


def _drop_zeros(store: dict) -> dict:
    """Delete zero entries in place: one C-level scan, a second pass only if one is there."""
    if 0 in store.values():
        for k in [k for k, v in store.items() if not v]:
            del store[k]
    return store


def lowest_terms(nums: Sequence[int], dens: Sequence[int]) -> Tuple[list, int]:
    """Int fractions nums[i] / dens[i] (dens positive, in any terms) as
    stored exact entries: int numerators over the lcm of the denominators,
    divided through by their gcd with it when that is not 1, as it is when a
    fraction such as 2/4 comes unreduced.  The result is in lowest terms as a
    whole, so equal values give the same (entries, denom) however written.
    """
    denom = lcm(*dens)
    entries = [n * (denom // d) for n, d in zip(nums, dens)]
    g = gcd(denom, *entries)
    if g != 1:
        denom //= g
        entries = [n // g for n in entries]
    return entries, denom


def _over_common_denominator(backend: str, values: Iterable) -> Tuple[list, int]:
    """Admit values to a backend; return their stored entries and denominator."""
    vals = [scalars.coerce(backend, v) for v in values]
    if backend != EXACT:
        return vals, 1
    return lowest_terms([int(v.numerator) for v in vals], [int(v.denominator) for v in vals])


class Tensor:
    """Immutable multi-dimensional array over one scalar backend.

    ``dense`` (row-major list), ``sparse`` (index tuple -> nonzero entry) or
    ``alt`` (sorted index tuple -> nonzero entry, alternating) holds the
    entries; the value at an index is entry / ``denom``.
    """

    __slots__ = ("shape", "backend", "dense", "alt", "denom", "_sparse")

    def __init__(self, shape: Shape, backend: str, *, dense=None, sparse=None, alt=None,
                 denom: int = 1):
        scalars.check_backend(backend)
        shape = tuple(shape)
        for d in shape:
            if not isinstance(d, int) or d <= 0:
                raise TensorError(f"alphabet sizes must be positive integers, got {d!r}")
        if [dense, sparse, alt].count(None) != 2:
            raise TensorError("exactly one of dense/sparse/alt storage must be given")
        if alt is not None:
            if len(set(shape)) > 1:
                raise TensorError(f"alternating storage needs one alphabet size, got {list(shape)}")
            n = shape[0] if shape else 0
            for key in alt:
                if len(key) != len(shape) or not all(0 <= i < j <= n
                                                     for i, j in zip(key, key[1:] + (n,))):
                    raise TensorError(f"alternating key {key!r} is not a strictly increasing index")
        if dense is not None and len(dense) != shape_size(shape):
            raise TensorError(
                f"dense storage length {len(dense)} != element count {shape_size(shape)}"
            )
        if type(denom) is not int or denom <= 0 or (backend == F64 and denom != 1):
            raise TensorError(
                f"denominator {denom!r} is not a positive int (always 1 for {F64})"
            )
        entry = _ENTRY_TYPE[backend]
        stored = dense if dense is not None else (sparse if alt is None else alt).values()
        stray = set(map(type, stored)) - {entry}
        if stray:
            names = ", ".join(sorted(t.__name__ for t in stray))
            raise BackendMismatch(
                f"{backend} tensors store {entry.__name__} entries, got {names}"
            )
        self.shape = shape
        self.backend = backend
        self.dense = dense
        self._sparse = sparse
        self.alt = alt
        self.denom = denom

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_values(shape: Sequence[int], values: Sequence, backend: str = EXACT) -> "Tensor":
        """Dense tensor from row-major values; each value admitted to the backend."""
        shape = tuple(shape)
        if len(values) != shape_size(shape):
            raise TensorError(
                f"expected {shape_size(shape)} values for shape {list(shape)}, got {len(values)}"
            )
        data, denom = _over_common_denominator(backend, values)
        return Tensor(shape, backend, dense=data, denom=denom)

    @staticmethod
    def from_sparse(shape: Sequence[int], entries: Dict[Index, object], backend: str = EXACT) -> "Tensor":
        shape = tuple(shape)
        keys = [tuple(key) for key in entries]
        for key in keys:
            _check_index(shape, key)
        nums, denom = _over_common_denominator(backend, entries.values())
        return Tensor(shape, backend, sparse={k: v for k, v in zip(keys, nums) if v}, denom=denom)

    @staticmethod
    def zeros(shape: Sequence[int], backend: str = EXACT) -> "Tensor":
        scalars.check_backend(backend)
        shape = tuple(shape)
        return Tensor(shape, backend, dense=[ZERO_ENTRY[backend]] * shape_size(shape))

    # -- basic access ------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def is_sparse(self) -> bool:
        """True for sparse and alternating storage."""
        return self.dense is None

    @property
    def sparse(self):
        """Index tuple -> nonzero entry (None if dense); an alternating tensor
        is expanded on first read, one sign block per stored key, and kept."""
        if self._sparse is None and self.alt is not None:
            self._sparse = _expand_alt(self.alt, self.rank)
        return self._sparse

    def _value(self, entry):
        """A stored entry as a backend scalar (exact: in lowest terms)."""
        if self.backend != EXACT:
            return entry
        return ExactValue(entry) if self.denom == 1 else ExactValue(entry, self.denom)

    def get(self, index: Sequence[int]):
        """Entry at a multi-index; absent sparse keys read as zero."""
        index = tuple(index)
        if self.dense is not None:
            return self._value(self.dense[_checked_offset(self.shape, index)])
        _check_index(self.shape, index)
        return self._value(self.sparse.get(index, ZERO_ENTRY[self.backend]))

    def values(self) -> list:
        """All entries in row-major order, as backend scalars."""
        return [self._value(v) for v in self.to_dense().dense]

    def indices(self) -> Iterable[Index]:
        return itertools.product(*(range(d) for d in self.shape))

    def to_dense(self) -> "Tensor":
        if self.dense is not None:
            return self
        data = [ZERO_ENTRY[self.backend]] * shape_size(self.shape)
        st = _strides(self.shape)
        for key, v in self.sparse.items():
            data[sum(i * s for i, s in zip(key, st))] = v
        return Tensor(self.shape, self.backend, dense=data, denom=self.denom)

    def to_sparse(self) -> "Tensor":
        if self.is_sparse:
            return self
        store = {key: v for key, v in zip(self.indices(), self.dense) if v}
        return Tensor(self.shape, self.backend, sparse=store, denom=self.denom)

    # -- arithmetic --------------------------------------------------------

    def scale(self, lam) -> "Tensor":
        lam = scalars.coerce(self.backend, lam)
        if self.backend == EXACT:
            num, den = int(lam.numerator), int(lam.denominator)
        else:
            num, den = lam, 1
        denom = self.denom * den
        if self.dense is not None:
            return Tensor(self.shape, self.backend, dense=[num * v for v in self.dense], denom=denom)
        if not num:
            return Tensor(self.shape, self.backend, sparse={})
        return Tensor(self.shape, self.backend,
                      sparse={k: num * v for k, v in self.sparse.items()}, denom=denom)

    def add(self, other: "Tensor") -> "Tensor":
        self._check_compatible(other)
        denom = lcm(self.denom, other.denom)
        ma, mb = denom // self.denom, denom // other.denom
        if self.is_sparse and other.is_sparse:
            out = {k: v * ma for k, v in self.sparse.items()}
            oget = out.get
            for k, v in other.sparse.items():
                out[k] = oget(k, 0) + v * mb
            return Tensor(self.shape, self.backend, sparse=_drop_zeros(out), denom=denom)
        a = self.to_dense()
        b = other.to_dense()
        return Tensor(self.shape, self.backend,
                      dense=[x * ma + y * mb for x, y in zip(a.dense, b.dense)], denom=denom)

    def neg(self) -> "Tensor":
        return self.scale(-1 if self.backend == EXACT else -1.0)

    def equal(self, other: "Tensor", tol=None) -> bool:
        """Exact backend compares exactly (tol ignored); float entrywise within
        tol, by ``scalars.scalar_eq``'s mixed bound.

        Entries x/da and y/db are compared as x*db against y*da, so the stored
        denominators need not agree.
        """
        self._check_compatible(other)
        backend = self.backend
        ma, mb = other.denom, self.denom
        if self.is_sparse and other.is_sparse:
            z = ZERO_ENTRY[backend]
            return all(
                scalars.scalar_eq(backend, self.sparse.get(k, z) * ma,
                                  other.sparse.get(k, z) * mb, tol)
                for k in set(self.sparse) | set(other.sparse)
            )
        a = self.to_dense()
        b = other.to_dense()
        return all(scalars.scalar_eq(backend, x * ma, y * mb, tol)
                   for x, y in zip(a.dense, b.dense))

    def _check_compatible(self, other: "Tensor") -> None:
        if self.backend != other.backend:
            raise BackendMismatch(f"backend mismatch: {self.backend} vs {other.backend}")
        if self.shape != other.shape:
            raise TensorError(f"shape mismatch: {list(self.shape)} vs {list(other.shape)}")

    # -- axis surgery ------------------------------------------------------

    def permute_axes(self, order: Sequence[int]) -> "Tensor":
        """New axis k reads old axis order[k]."""
        order = tuple(order)
        if sorted(order) != list(range(self.rank)):
            raise TensorError(f"{list(order)} is not a permutation of the axes")
        new_shape = tuple(self.shape[a] for a in order)
        if self.alt is not None:
            sign = inversion_sign(order)
            return Tensor(new_shape, self.backend, denom=self.denom,
                          alt={k: sign * v for k, v in self.alt.items()})
        if self.is_sparse:
            getk = _getter(order)
            return Tensor(new_shape, self.backend,
                          sparse={getk(k): v for k, v in self.sparse.items()}, denom=self.denom)
        data = self.dense
        new_data = [data[off] for off in _offsets(self.shape, order)]
        return Tensor(new_shape, self.backend, dense=new_data, denom=self.denom)

    def trace_axes(self, ax1: int, ax2: int) -> "Tensor":
        """Sum the diagonal of two equal-sized axes (a self-loop on one vertex).

        This is the pair contraction of both axes with the equality
        indicator delta; the result keeps this tensor's storage kind (an
        alternating tensor traces to zero).
        """
        if ax1 == ax2:
            raise TensorError("trace needs two distinct axes")
        if self.shape[ax1] != self.shape[ax2]:
            raise TensorError("traced axes must share an alphabet size")
        n = self.shape[ax1]
        delta = Tensor((n, n), self.backend,
                       sparse=dict.fromkeys(zip(range(n), range(n)), ONE_ENTRY[self.backend]))
        out = pair_contract(self, [ax1, ax2], delta, [0, 1])
        return out if self.is_sparse else out.to_dense()

    # -- serialization -----------------------------------------------------

    def to_obj(self) -> dict:
        """Row-major {"shape": [...], "values": [...]} with rationals as "p/q"."""
        return {
            "shape": list(self.shape),
            "values": [scalars.format_scalar(self.backend, v) for v in self.values()],
        }

    @staticmethod
    def from_obj(obj: dict, backend: str = EXACT) -> "Tensor":
        values = [scalars.parse_scalar(backend, str(v)) for v in obj["values"]]
        return Tensor.from_values(tuple(obj["shape"]), values, backend)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "dense" if not self.is_sparse else "alt" if self.alt is not None else "sparse"
        return f"Tensor(shape={list(self.shape)}, backend={self.backend}, {kind})"


def _check_index(shape: Shape, index: Index) -> None:
    if len(index) != len(shape):
        raise TensorError(f"index rank {len(index)} != tensor rank {len(shape)}")
    for i, d in zip(index, shape):
        if not (0 <= i < d):
            raise TensorError(f"index {list(index)} out of bounds for shape {list(shape)}")


def _checked_offset(shape: Shape, index: Index) -> int:
    """Row-major offset of a multi-index, bounds-checked in the same pass."""
    off = 0
    if len(index) == len(shape):
        for i, d in zip(index, shape):
            if not 0 <= i < d:
                break
            off = off * d + i
        else:
            return off
    _check_index(shape, index)  # raises the rank or bounds error


def pair_contract(f: Tensor, f_axes: Sequence[int], g: Tensor, g_axes: Sequence[int]) -> Tensor:
    """Sum over all paired axes of the product of entries of f and g.

    Output axes are f's unmatched axes in order, then g's unmatched axes in
    order.  Empty axis lists give the tensor (outer) product.  The entries
    are integer (or float) multiply-adds over the operands' stored entries;
    the result's denominator is the product of theirs.
    """
    f_axes = list(f_axes)
    g_axes = list(g_axes)
    if len(f_axes) != len(g_axes):
        raise TensorError("axis lists must have equal length")
    for t, axes in ((f, f_axes), (g, g_axes)):
        if len(set(axes)) != len(axes):
            raise TensorError(f"duplicate axis in {axes}")
        for a in axes:
            if not (0 <= a < t.rank):
                raise TensorError(f"axis {a} out of range for rank {t.rank}")
    for fa, ga in zip(f_axes, g_axes):
        if f.shape[fa] != g.shape[ga]:
            raise TensorError(
                f"paired axes disagree on alphabet size: {f.shape[fa]} vs {g.shape[ga]}"
            )
    if f.backend != g.backend:
        raise BackendMismatch(f"backend mismatch: {f.backend} vs {g.backend}")

    f_keep = [a for a in range(f.rank) if a not in f_axes]
    g_keep = [a for a in range(g.rank) if a not in g_axes]
    out_shape = tuple([f.shape[a] for a in f_keep] + [g.shape[a] for a in g_keep])
    denom = f.denom * g.denom

    if not (f.is_sparse or g.is_sparse):
        data = _contract_dense_dense(f, f_axes, f_keep, g, g_axes, g_keep)
        return Tensor(out_shape, f.backend, dense=data, denom=denom)
    if f.alt is not None and not g_keep:
        return Tensor(out_shape, f.backend, alt=_contract_alt(f, f_axes, f_keep, g, g_axes),
                      denom=denom)
    if g.alt is not None and not f_keep:
        return Tensor(out_shape, f.backend, alt=_contract_alt(g, g_axes, g_keep, f, f_axes),
                      denom=denom)
    if f.is_sparse:
        store = _contract_sparse(f, f_axes, f_keep, g, g_axes, g_keep, sparse_first=True)
    else:
        store = _contract_sparse(g, g_axes, g_keep, f, f_axes, f_keep, sparse_first=False)
    return Tensor(out_shape, f.backend, sparse=store, denom=denom)


def _contract_dense_dense(f, f_axes, f_keep, g, g_axes, g_keep) -> list:
    """Row-major output cells of a dense pair.

    On ``f64``, and for small exact pairs (see ``_PACK_MIN``), each output
    cell is one C-level sum of matched products.  Otherwise the exact pair
    goes by Kronecker substitution: each matched cell l of the side that
    keeps more cells (P of them) becomes one int P_l holding those P entries
    in w-byte slots, so one sum of products with a kept cell of the other
    side yields P output cells at once.  No entry, and no output cell, is
    larger in size than ``bound``, so w bytes hold it with a sign.  Slots
    are 8 bytes when that suffices, converted at C speed by ``array`` and
    ``memoryview``; wider ones take one int conversion per entry.
    """
    fd, gd = f.dense, g.dense
    f_match, g_match = _offsets(f.shape, f_axes), _offsets(g.shape, g_axes)
    f_base, g_base = _offsets(f.shape, f_keep), _offsets(g.shape, g_keep)
    rows, cols = len(f_base), len(g_base)
    pack = (f.backend == EXACT and min(rows, cols) >= _PACK_MIN
            and max(rows, cols) >= 2 * _PACK_MIN)
    if pack:
        f_max, g_max = max(max(fd), -min(fd)), max(max(gd), -min(gd))
        bound = max(f_max * g_max * len(f_match), f_max, g_max)  # |entry| and |cell|
        pack = bound < 1 << 63 or len(f_match) >= _PACK_MIN
    if not pack:
        zero = ZERO_ENTRY[f.backend]
        g_cols = [[gd[base + m] for m in g_match] for base in g_base]
        data = []
        for base in f_base:
            f_row = [fd[base + m] for m in f_match]
            data.extend(sum(map(mul, f_row, col), zero) for col in g_cols)
        return data
    by_rows = cols >= rows  # pack g, so each row of f yields one row of the output
    pd, p_base, p_match = (gd, g_base, g_match) if by_rows else (fd, f_base, f_match)
    qd, q_base, q_match = (fd, f_base, f_match) if by_rows else (gd, g_base, g_match)
    cells = [pd[base + m] for m in p_match for base in p_base]
    if bound < 1 << 63:
        width, order = 8, sys.byteorder
        raw = array("q", cells).tobytes()
    else:
        width, order = bound.bit_length() // 8 + 1, "little"
        raw = b"".join([x.to_bytes(width, order, signed=True) for x in cells])
    run = width * len(p_base)
    bias = int.from_bytes((1 << (8 * width - 1)).to_bytes(width, order) * len(p_base), order)
    # P_l holds the entries at matched cell l; read unsigned, a run of signed
    # slots becomes that sum through xor with the bias (the top bit of every
    # slot) and back
    packed = [(int.from_bytes(raw[i:i + run], order) ^ bias) - bias
              for i in range(0, len(raw), run)]
    sums = []
    for base in q_base:
        # every slot of sum(q_l * P_l) + bias is a digit in range, so no carry
        # crosses a slot, and the xor reads each slot back as a signed number
        s = sum(map(mul, [qd[base + m] for m in q_match], packed), bias)
        sums.append((s ^ bias).to_bytes(run, order))
    raw = b"".join(sums)
    if width == 8:
        flat = memoryview(raw).cast("q").tolist()
    else:
        flat = [int.from_bytes(raw[i:i + width], order, signed=True)
                for i in range(0, len(raw), width)]
    if by_rows:
        return flat
    data = [0] * (rows * cols)
    for c in range(cols):
        data[c::cols] = flat[c * rows:(c + 1) * rows]
    return data


def _contract_alt(al, al_axes, al_keep, ot, ot_axes) -> dict:
    """Exterior-algebra update of an alternating operand by one it fully contracts.

    A stored key K is sorted, so the sign of a full index made from K depends
    only on which positions of K go to which axes: for each ordered choice of
    positions for the matched axes (the rest fill the kept axes in order) the
    sign is computed once, then every key adds sign * entry * the other
    operand's entry at the chosen values to the entry of the remaining ones.
    """
    if ot.dense is not None:
        data = ot.dense
        lookup = {x: data[off] for x, off in _cells(ot.shape, ot_axes) if data[off]}
    else:
        get_om = _getter(ot_axes)
        lookup = {get_om(k): v for k, v in ot.sparse.items()}
    rank = al.rank
    choices = []
    for chosen in itertools.permutations(range(rank), len(al_axes)):
        rest = [q for q in range(rank) if q not in chosen]
        seq = [0] * rank
        for axis, q in zip(al_axes + al_keep, list(chosen) + rest):
            seq[axis] = q
        choices.append((_getter(chosen), _getter(rest), inversion_sign(seq)))
    out: Dict[Index, object] = {}
    oget, lget = out.get, lookup.get
    for key, val in al.alt.items():
        for get_x, get_rest, sign in choices:
            ov = lget(get_x(key))
            if ov:
                k2 = get_rest(key)
                out[k2] = oget(k2, 0) + sign * val * ov
    return _drop_zeros(out)


def _contract_sparse(sp, sp_axes, sp_keep, ot, ot_axes, ot_keep, sparse_first: bool) -> dict:
    """Hash join: each nonzero of the sparse operand meets the other operand's
    nonzeros that agree with it on the matched axes, found through an index
    of the other's dict items by matched positions if it is sparse, or at
    offsets from the key if it is dense.  Either way they come in the other
    operand's order: dict order, or row-major."""
    get_keep, get_match = _getter(sp_keep), _getter(sp_axes)
    if ot.is_sparse:
        get_om, get_ok = _getter(ot_axes), _getter(ot_keep)
        index: Dict[Index, List[Tuple[Index, object]]] = {}
        for key, val in ot.sparse.items():
            index.setdefault(get_om(key), []).append((get_ok(key), val))

        def partners(key):
            return index.get(get_match(key), ())
    else:
        data, st = ot.dense, _strides(ot.shape)
        match_strides = [st[a] for a in ot_axes]
        kept = list(_cells(ot.shape, ot_keep))

        def partners(key):
            base = sum(map(mul, get_match(key), match_strides))
            return [(okey, v) for okey, off in kept if (v := data[base + off])]
    out: Dict[Index, object] = {}
    oget = out.get
    for key, val in sp.sparse.items():
        cells = partners(key)
        if cells:
            ks = get_keep(key)
            for okey, ov in cells:
                k2 = ks + okey if sparse_first else okey + ks
                out[k2] = oget(k2, 0) + val * ov
    return _drop_zeros(out)

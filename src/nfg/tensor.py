"""Finite tensors over a scalar backend, dense, sparse or alternating, plus
pair contraction.

The two-tensor contraction here is the workhorse of the whole package: it
realizes the sum over all shared variables of a product of two local
functions, which subsumes tensor, matrix, matrix-vector and dot products.
A tensor has one of three storage kinds:

* ``dense``: a row-major list of every cell;
* ``sparse``: a map from index tuple to nonzero entry;
* ``alt`` (alternating): a list of C(n, r) entries, zeros included, one per
  sorted r-subset of ``range(n)`` in ``itertools.combinations`` order, over
  one alphabet size n on every axis of a rank-r tensor.  The value at any
  index is the sign of the permutation that sorts it times the entry at the
  sorted tuple, or zero if the index repeats a value.  The Levi-Civita
  symbol eps(n) is ``[1]``, so it and every intermediate of the epsilon
  networks stay at C(n, k) entries instead of n!/k! (packed antisymmetric
  storage, as in the Cyclops Tensor Framework).  ``get``, ``scale``, ``add``
  and ``equal`` of alternating tensors, ``permute_axes`` and the alternating
  kernel read the packed list (``get`` at a rank computed as a binomial sum,
  with no table), and ``nonzeros`` generates each nonzero set's signed
  orderings (from a table kept per (n, r) when there are at most
  ``_BLOCK_ROWS``; a dense tensor's indices likewise per shape): the hash
  join reads those when an alternating operand meets one with kept axes, as
  do ``add`` and ``equal`` of an alternating tensor with a sparse one.
  Only ``sparse`` writes the tensor out, once, and keeps the result; no code
  in this package reads it, only the benchmark tracer and the tests.

Three kernels do all contractions.  Dense x dense forms each output cell as
one sum of products; on the exact backend, once both sides keep a few cells,
it packs the side that keeps more into one int per matched cell (Kronecker
substitution), so one sum of big-int products yields a whole output row.
Floats keep the plain sums, whose rounding follows the summation order.  An
alternating operand against an operand it fully contracts is an
exterior-algebra update whose result is alternating.  Only the other
operand's alternating part reaches it, so that operand is first folded onto
the sorted sets of its matched values: an alternating one from its packed
list, never written out, a dense one in m! C-level gathers, one per ordering
of its m matched axes.  Each output entry, one per sorted set of the
remaining values, is then one sum of equally many signed products of a
packed entry and a folded one, both read by C-level gathers over blocks of
whole output runs, so what a step holds at once is bounded.  Which ones,
their signs, and the dense gathers' offsets depend on the shape alone, so
the getters that gather them are built once per shape and kept.  Every
other contraction with a sparse operand is one hash join: each nonzero of
the sparse operand meets the other operand's entries that agree with it on
the matched axes, found in an index by matched positions if the other is
sparse, or at offsets computed from the key if it is dense.  A trace (a self-loop) is a
contraction with the equality indicator delta, which is zero on an
alternating pair of axes.

Exact tensors are stored fraction-free, after Bareiss (1968): every entry is
a Python ``int`` numerator over one positive ``int`` denominator ``denom``
shared by the whole tensor.  The kernels therefore do plain integer
multiply-adds, and a contraction's denominator is the product of its
operands'.  Numerators are not kept in lowest terms; ``get``, ``values`` and
``equal`` divide at the boundary, into ``fractions.Fraction`` rationals in
lowest terms, and ``to_obj`` formats each value from its numerator and
``denom`` with one gcd (``exact_texts``).  ``f64`` tensors store ``float``
entries with ``denom`` fixed at 1, so both backends share every kernel.
"""

from __future__ import annotations

import itertools
import operator
import sys
from array import array
from functools import cache
from math import comb, factorial, gcd, lcm, prod
from operator import add, gt, itemgetter, mul, sub
from typing import Dict, Iterable, List, Sequence, Tuple

from . import scalars
from .scalars import BackendMismatch, EXACT, ExactValue, F64

Shape = Tuple[int, ...]
Index = Tuple[int, ...]

# the stored zero and one of each backend, and the one type its entries have
ZERO_ENTRY = {EXACT: 0, F64: 0.0}
ONE_ENTRY = {EXACT: 1, F64: 1.0}
_ENTRY_TYPE = {EXACT: int, F64: float}
_EXACT_ZERO = ExactValue(0)  # the one exact zero that ``get`` and ``values`` return
# An exact dense pair is packed when one side keeps at least _PACK_MIN cells
# and the other twice that, and, if slots are wider than 8 bytes, it sums
# over at least _PACK_MIN matched cells; smaller pairs gain nothing, as
# measured (4 x L x 4, 6 x L x 6, and 16 x 1 x 16 with 70-bit entries).
_PACK_MIN = 4
# The alternating kernel gathers its operands in blocks of whole output runs
# of about this many rows, so a step's transient tuples stay bounded.
_BLOCK_ROWS = 4096


class TensorError(ValueError):
    pass


def _strides(shape: Shape) -> Tuple[int, ...]:
    return tuple(prod(shape[a + 1:]) for a in range(len(shape)))


def _offsets(shape: Shape, axes: Sequence[int]) -> List[int]:
    """Row-major offsets, into a tensor of this shape, of every index over `axes`."""
    st = _strides(shape)
    offsets = [0]
    for a in axes:
        offsets = [off + i * st[a] for off in offsets for i in range(shape[a])]
    return offsets


def inversion_sign(seq: Sequence[int]) -> int:
    """(-1)**inversions: the sign of the permutation that sorts distinct values."""
    return -1 if sum(itertools.starmap(gt, itertools.combinations(seq, 2))) % 2 else 1


@cache
def _perm_signs(rank: int) -> Tuple[int, ...]:
    """The sign of each permutation of a sorted rank-tuple, in the order in
    which ``itertools.permutations`` lists them: block k of m is led by item
    k, so it repeats the signs for m - 1, negated if k is odd."""
    signs = (1,)
    for m in range(2, rank + 1):
        signs = (signs + tuple(map(operator.neg, signs))) * (m // 2) + signs * (m % 2)
    return signs


@cache
def _index_table(shape: Shape) -> Tuple[Index, ...]:
    """Every index of a shape of at most _BLOCK_ROWS cells, in row-major order."""
    return tuple(itertools.product(*map(range, shape)))


@cache
def _ordering_table(n: int, rank: int) -> tuple:
    """Each sorted rank-set's orderings, in packed order (at most _BLOCK_ROWS in all)."""
    return tuple(map(tuple, map(itertools.permutations, itertools.combinations(range(n), rank))))


def _alt_dims(shape: Shape) -> Tuple[int, int]:
    """(alphabet size n, rank r) of alternating storage; n is 0 at rank 0."""
    return (shape[0] if shape else 0), len(shape)


def _signed_orderings(alt: list, n: int, rank: int):
    """(index, entry) of every nonzero of packed alternating storage: each
    nonzero set's orderings, in ``itertools.permutations`` order, signed."""
    signs = _perm_signs(rank)
    orderings = (_ordering_table(n, rank) if comb(n, rank) * len(signs) <= _BLOCK_ROWS
                 else map(itertools.permutations, itertools.combinations(range(n), rank)))
    for keys, v in zip(orderings, alt):
        if v:
            yield from zip(keys, [s * v for s in signs])


def _expand_alt(alt: list, n: int, rank: int) -> dict:
    """An alternating tensor written out: index tuple -> nonzero entry."""
    return dict(_signed_orderings(alt, n, rank))


def _place(index: Sequence[int], n: int) -> Tuple[int, int]:
    """(packed rank, sorting sign) of a k-index over alphabet n, or (0, 0) if
    a value repeats: the rank of sorted values s is C(n, k) - 1 - the sum of
    C(n-1-s[i], k-i), by the combinatorial number system."""
    k = len(index)
    if len(set(index)) < k:
        return 0, 0
    below = sum(map(comb, map((n - 1).__sub__, sorted(index)), range(k, 0, -1)))
    return comb(n, k) - 1 - below, inversion_sign(index)


@cache
def _fold_getters(n: int, strides: Tuple[int, ...]) -> tuple:
    """Per ordering p of m matched axes, in permutations order, its sign and
    a getter of the offset of each sorted m-set K of range(n), in packed
    order, with K[i] on axis p.index(i)."""
    m = len(strides)
    sets = list(itertools.combinations(range(n), m))
    weights = ([strides[p.index(i)] for i in range(m)] for p in itertools.permutations(range(m)))
    offsets = ([sum(map(mul, k, w)) for k in sets] for w in weights)
    return tuple(zip(_perm_signs(m), map(_getter, offsets)))


@cache
def _rank_ints(n: int) -> Tuple[int, ...]:
    """One int object per source rank over alphabet n, each below C(n, n // 2)."""
    return tuple(range(comb(n, n // 2)))


def _alt_tables(n: int, r: int, m: int) -> Tuple[list, list]:
    """The alternating kernel's rows for a rank-r operand over alphabet n
    with m axes contracted, as (source rank, signed fold rank) lists whose
    equal values are one shared int object; a source rank is that object
    for every shape over n (``_rank_ints``).

    For each sorted (r-m)-set D of kept values, in packed order, there are
    C(n-r+m, m) rows, one per sorted m-set F of the values not in D.  The
    source is the packed rank of D | F.  The fold rank is F's, plus C(n, m)
    if the sign is negative, so it indexes the folded entries followed by
    their negations.  Putting F's values on the contracted axes and D's on
    the kept ones takes #{(d, f): d < f} transpositions from sorted order;
    if F holds the j-th values of the complement of D for j in idx, that is
    sum(F) - sum(idx).  One C-level pass per idx lists the rows of every D.
    """
    src, fold = [], []
    if r <= n:
        c = n - r + m
        # the complements of the (r-m)-sets, in packed order; an r-set's
        # packed rank, keyed by its complement (complements reverse the order)
        comps = list(itertools.combinations(range(n), c))[::-1]
        ranks = _rank_ints(n)
        source = dict(zip(itertools.combinations(range(n), n - r), ranks[comb(n, r) - 1::-1]))
        sets = list(itertools.combinations(range(n), m))
        signed = [{f: i + len(sets) * ((sum(f) + p) % 2) for i, f in enumerate(sets)}
                  for p in (0, 1)]
        for idx in itertools.combinations(range(c), m):
            rest = [j for j in range(c) if j not in idx]
            src.append(map(source.__getitem__, map(_getter(rest), comps)))
            fold.append(map(signed[sum(idx) % 2].__getitem__, map(_getter(idx), comps)))
    return tuple(list(itertools.chain.from_iterable(zip(*cols))) for cols in (src, fold))


@cache
def _alt_blocks(n: int, r: int, m: int, block_rows: int) -> Tuple[int, tuple]:
    """What the alternating kernel's product loop reads for this shape: the
    run of rows per output entry and, per block of as many whole runs as fit
    in block_rows (at least one), the getters of its source ranks and of its
    signed fold ranks.  No block when there is no row."""
    src, fold = _alt_tables(n, r, m)
    if not src:
        return 0, ()
    run = len(src) // comb(n, r - m)
    step = (block_rows // run or 1) * run
    return run, tuple((_getter(src[s:s + step]), _getter(fold[s:s + step]))
                      for s in range(0, len(src), step))


def _getter(indices: Sequence[int]):
    """Key -> tuple of the given positions, tuple-valued even for 0/1 positions."""
    if len(indices) == 0:
        return lambda key: ()
    if len(indices) == 1:
        k = indices[0]
        return lambda key: (key[k],)
    return itemgetter(*indices)


def _keys_fit(shape: Shape, keys) -> bool:
    """Whether every key is an int tuple of the shape's rank, in range on
    every axis: C-level passes over the keys' types and lengths, then over
    each axis's types, min and max."""
    if set(map(type, keys)) != {tuple} or set(map(len, keys)) != {len(shape)}:
        return False
    cols = (list(map(itemgetter(a), keys)) for a in range(len(shape)))
    return all(set(map(type, c)) == {int} and min(c) >= 0 and max(c) < d
               for c, d in zip(cols, shape))


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


def exact_texts(entries: Sequence[int], denom: int) -> List[str]:
    """str() of each rational entry / denom, "p" or "p/q" in lowest terms,
    from one gcd per entry, with no rational built."""
    if denom == 1:
        return list(map(str, entries))
    return [f"{n // g}/{denom // g}" if g != denom else str(n // g)
            for n, g in zip(entries, map(gcd, entries, itertools.repeat(denom)))]


class Tensor:
    """Immutable multi-dimensional array over one scalar backend.

    ``dense`` (row-major list), ``sparse`` (index tuple -> nonzero entry) or
    ``alt`` (alternating: one entry per sorted index, in packed order) holds
    the entries; the value at an index is entry / ``denom``.
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
            n, r = _alt_dims(shape)
            if type(alt) is not list or len(alt) != comb(n, r):
                raise TensorError(f"alternating storage is a list of C({n}, {r}) = "
                                  f"{comb(n, r)} entries, one per sorted index")
        if sparse and not _keys_fit(shape, sparse):
            bad = next(k for k in sparse if not _keys_fit(shape, [k]))
            raise TensorError(f"sparse key {bad!r} is not an index of shape {list(shape)}")
        if dense is not None and len(dense) != prod(shape):
            raise TensorError(f"dense storage length {len(dense)} != element count {prod(shape)}")
        if type(denom) is not int or denom <= 0 or (backend == F64 and denom != 1):
            raise TensorError(f"denominator {denom!r} is not a positive int (always 1 for {F64})")
        entry = _ENTRY_TYPE[backend]
        stored = sparse.values() if sparse is not None else dense if alt is None else alt
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
        if len(values) != prod(shape):
            raise TensorError(
                f"expected {prod(shape)} values for shape {list(shape)}, got {len(values)}"
            )
        vals = [scalars.coerce(backend, v) for v in values]
        if backend != EXACT:
            return Tensor(shape, backend, dense=vals)
        data, denom = lowest_terms(*zip(*map(ExactValue.as_integer_ratio, vals)))
        return Tensor(shape, backend, dense=data, denom=denom)

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
        is written out on first read, one sign block per nonzero set, and kept."""
        if self._sparse is None and self.alt is not None:
            self._sparse = _expand_alt(self.alt, *_alt_dims(self.shape))
        return self._sparse

    def nonzeros(self) -> Iterable[Tuple[Index, object]]:
        """(index, entry) of every nonzero entry, in storage order; an
        alternating tensor's are generated as read, not kept."""
        if self.dense is not None:
            return itertools.compress(zip(self.indices(), self.dense), self.dense)
        if self.alt is not None:
            return _signed_orderings(self.alt, *_alt_dims(self.shape))
        return self._sparse.items()

    def _value(self, entry):
        """A stored entry as a backend scalar (exact: in lowest terms)."""
        if self.backend != EXACT:
            return entry
        if not entry:
            return _EXACT_ZERO
        return ExactValue(entry) if self.denom == 1 else ExactValue(entry, self.denom)

    def get(self, index: Sequence[int]):
        """Entry at a multi-index of ints; absent sparse keys, and alternating
        indices that repeat a value, read as zero."""
        try:
            index = tuple(map(operator.index, index))
        except TypeError:
            raise TensorError(f"index {index!r} has a component that is not an int") from None
        if len(index) != self.rank:
            raise TensorError(f"index rank {len(index)} != tensor rank {self.rank}")
        if not all(0 <= i < d for i, d in zip(index, self.shape)):
            raise TensorError(f"index {list(index)} out of bounds for shape {list(self.shape)}")
        if self.dense is not None:
            return self._value(self.dense[sum(map(mul, index, _strides(self.shape)))])
        if self.alt is None:
            return self._value(self._sparse.get(index, ZERO_ENTRY[self.backend]))
        rank, sign = _place(index, _alt_dims(self.shape)[0])
        entry = self.alt[rank] if sign else 0
        return self._value(sign * entry if entry else ZERO_ENTRY[self.backend])

    def values(self) -> list:
        """All entries in row-major order, as backend scalars."""
        return [self._value(v) for v in self.to_dense().dense]

    def indices(self) -> Iterable[Index]:
        small = prod(self.shape) <= _BLOCK_ROWS  # read from a kept table
        return _index_table(self.shape) if small else itertools.product(*map(range, self.shape))

    def to_dense(self) -> "Tensor":
        if self.dense is not None:
            return self
        data = [ZERO_ENTRY[self.backend]] * prod(self.shape)
        st = _strides(self.shape)
        for key, v in self.nonzeros():
            data[sum(i * s for i, s in zip(key, st))] = v
        return Tensor(self.shape, self.backend, dense=data, denom=self.denom)

    # -- arithmetic --------------------------------------------------------

    def scale(self, lam) -> "Tensor":
        lam = scalars.coerce(self.backend, lam)
        if self.backend == EXACT:
            num, den = int(lam.numerator), int(lam.denominator)
        else:
            num, den = lam, 1
        denom = self.denom * den
        kind, (store,) = _stored(self)
        store = ([num * v for v in store] if kind != "sparse"
                 else _drop_zeros({k: num * v for k, v in store.items()}))
        return Tensor(self.shape, self.backend, **{kind: store}, denom=denom)

    def add(self, other: "Tensor") -> "Tensor":
        self._check_compatible(other)
        denom = lcm(self.denom, other.denom)
        ma, mb = denom // self.denom, denom // other.denom
        kind, (sa, sb) = _stored(self, other)
        if kind != "sparse":
            return Tensor(self.shape, self.backend,
                          **{kind: [x * ma + y * mb for x, y in zip(sa, sb)]}, denom=denom)
        out = {k: v * ma for k, v in sa.items()}
        oget = out.get
        for k, v in sb.items():
            out[k] = oget(k, 0) + v * mb
        return Tensor(self.shape, self.backend, sparse=_drop_zeros(out), denom=denom)

    def equal(self, other: "Tensor", tol=None) -> bool:
        """Exact backend compares exactly (tol ignored); float entrywise within
        tol, by ``scalars.scalar_eq``'s mixed bound.

        Entries x/da and y/db are compared as x*db against y*da, so the stored
        denominators need not agree.
        """
        self._check_compatible(other)
        backend = self.backend
        ma, mb = other.denom, self.denom
        kind, (sa, sb) = _stored(self, other)
        if kind != "sparse":
            return all(scalars.scalar_eq(backend, x * ma, y * mb, tol) for x, y in zip(sa, sb))
        z = ZERO_ENTRY[backend]
        return all(
            scalars.scalar_eq(backend, sa.get(k, z) * ma, sb.get(k, z) * mb, tol)
            for k in set(sa) | set(sb)
        )

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
                          alt=[sign * v for v in self.alt])
        if self.is_sparse:
            getk = _getter(order)
            return Tensor(new_shape, self.backend,
                          sparse={getk(k): v for k, v in self.nonzeros()}, denom=self.denom)
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
        n = self.shape[ax1] if 0 <= ax1 < self.rank else 1  # pair_contract refuses ax1
        delta = Tensor((n, n), self.backend,
                       sparse=dict.fromkeys(zip(range(n), range(n)), ONE_ENTRY[self.backend]))
        out = pair_contract(self, [ax1, ax2], delta, [0, 1])
        return out if self.is_sparse else out.to_dense()

    # -- serialization -----------------------------------------------------

    def to_obj(self) -> dict:
        """Row-major {"shape": [...], "values": [...]}: what ``format_scalar``
        makes of ``values()``, formatted from the stored entries."""
        cells = self.to_dense().dense
        texts = exact_texts(cells, self.denom) if self.backend == EXACT else list(map(repr, cells))
        return {"shape": list(self.shape), "values": texts}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "dense" if not self.is_sparse else "alt" if self.alt is not None else "sparse"
        return f"Tensor(shape={list(self.shape)}, backend={self.backend}, {kind})"


def _stored(*ts: Tensor):
    """The tensors' entries in one layout: ("alt", packed lists) if all are
    alternating, else ("sparse", nonzero maps) if all are sparse or
    alternating, else ("dense", row-major lists)."""
    if all(t.alt is not None for t in ts):
        return "alt", [t.alt for t in ts]
    if all(t.is_sparse for t in ts):
        return "sparse", [dict(t.nonzeros()) for t in ts]
    return "dense", [t.to_dense().dense for t in ts]


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


def _contract_alt(al, al_axes, al_keep, ot, ot_axes) -> list:
    """Exterior-algebra update of an alternating operand by one it fully contracts.

    Only the other operand's alternating part reaches the result, so it is
    first folded onto sorted sets: the folded entry at a sorted m-set K is
    the sum, over each ordering x of K read over the matched axes in their
    paired order, of inversion_sign(x) * entry at x.  A dense operand is
    folded one ordering at a time, in permutations order: one getter from
    ``_fold_getters`` reads it at every K into sums that start at int 0, so
    each sum runs in the order a per-set sum would; a sparse one nonzero by
    nonzero, at the set ``_place`` gives.  An alternating operand folds
    without being written out: m! * sign(ot_axes) * its packed entries.  The
    fold also carries the sign of the axis order al_axes + al_keep, so what
    is left is shape-only (``_alt_tables``): each output entry is the sum
    from zero, over its run of rows, of a packed entry times a folded entry
    or its negation.  The rows are read in blocks of as many whole runs as
    fit in _BLOCK_ROWS (at least one), by one getter per operand per block,
    kept per shape and block size (``_alt_blocks``), so a warm call builds
    no getter; a block changes no sum's order, so no bit depends on the size.
    """
    m = len(ot_axes)
    n, r = _alt_dims(al.shape)
    base = inversion_sign(al_axes + al_keep)
    if ot.alt is not None:
        scale = base * factorial(m) * inversion_sign(ot_axes)
        fold = [scale * v for v in ot.alt]
    elif ot.dense is not None:
        st, fold = _strides(ot.shape), [0] * comb(n, m)
        for sign, gather in _fold_getters(n, tuple(map(st.__getitem__, ot_axes))):
            fold = list(map(add if base * sign > 0 else sub, fold, gather(ot.dense)))
    else:
        fold, get_match = [0] * comb(n, m), _getter(ot_axes)
        for key, v in ot.nonzeros():
            rank, sign = _place(get_match(key), n)
            if sign:
                fold[rank] += base * sign * v
    run, blocks = _alt_blocks(n, r, m, _BLOCK_ROWS)
    zero = ZERO_ENTRY[al.backend]
    if not blocks:
        return [zero] * comb(n, r - m)
    fold += [-v for v in fold]
    out = []
    for get_src, get_fold in blocks:
        prods = map(mul, get_src(al.alt), get_fold(fold))
        out += map(sum, zip(*[prods] * run), itertools.repeat(zero))
    return out


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
        for key, val in ot.nonzeros():
            index.setdefault(get_om(key), []).append((get_ok(key), val))

        def partners(key):
            return index.get(get_match(key), ())
    else:
        data, st = ot.dense, _strides(ot.shape)
        match_strides = [st[a] for a in ot_axes]
        kept = list(zip(itertools.product(*(range(ot.shape[a]) for a in ot_keep)),
                        _offsets(ot.shape, ot_keep)))

        def partners(key):
            base = sum(map(mul, get_match(key), match_strides))
            return [(okey, v) for okey, off in kept if (v := data[base + off])]
    out: Dict[Index, object] = {}
    oget = out.get
    for key, val in sp.nonzeros():
        cells = partners(key)
        if cells:
            ks = get_keep(key)
            for okey, ov in cells:
                k2 = ks + okey if sparse_first else okey + ks
                out[k2] = oget(k2, 0) + val * ov
    return _drop_zeros(out)

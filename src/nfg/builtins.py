"""Special tensors and the interleaving permutation.

A permutation is the tuple of its 1-based images over {1..n}, whose sign
``tensor.inversion_sign`` gives.  The Levi-Civita tensor is stored
alternating, as the one entry at (0, ..., n-1), and reads as sparse with its
n! nonzeros out of n**n cells.
"""

from __future__ import annotations

from typing import Tuple

from . import scalars
from .scalars import EXACT
from .tensor import ONE_ENTRY, Tensor

EPS_DEFAULT_LIMIT = 10


def tau(n: int) -> Tuple[int, ...]:
    """The images of the interleaving permutation on 2n elements:
    2k-1 -> k, 2k -> 2n-(k-1)."""
    if n < 1:
        raise ValueError("n must be positive")
    images = [0] * (2 * n)
    for k in range(1, n + 1):
        images[2 * k - 2] = k
        images[2 * k - 1] = 2 * n - (k - 1)
    return tuple(images)


def tau_swap_count(n: int) -> int:
    """Swap count of the construction behind tau: floor(n/2) + n(n-1)/2."""
    return n // 2 + n * (n - 1) // 2


def levi_civita(n: int, backend: str = EXACT) -> Tensor:
    """Rank-n, all axes size n: sign at permutation tuples, zero elsewhere.

    Internally 0-based like every tensor; the value at (p1-1, ..., pn-1) is
    sgn(p) for each permutation p of 1..n.  It is stored alternating, as the
    int (or float) 1 at (0, ..., n-1).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > EPS_DEFAULT_LIMIT:
        raise ValueError(f"n={n} exceeds the Levi-Civita limit {EPS_DEFAULT_LIMIT} (n! storage)")
    scalars.check_backend(backend)
    return Tensor((n,) * n, backend, alt=[ONE_ENTRY[backend]])


def delta2(size: int, backend: str = EXACT) -> Tensor:
    """The equality indicator as a rank-2 tensor: the identity matrix."""
    if size < 1:
        raise ValueError("size must be positive")
    scalars.check_backend(backend)
    one = ONE_ENTRY[backend]
    return Tensor((size, size), backend, sparse={(i, i): one for i in range(size)})


def delta_point(size: int, i: int, backend: str = EXACT) -> Tensor:
    """Point mass at i (1-based): the standard basis vector e_i."""
    if not (1 <= i <= size):
        raise ValueError(f"i={i} out of range 1..{size}")
    scalars.check_backend(backend)
    return Tensor((size,), backend, sparse={(i - 1,): ONE_ENTRY[backend]})

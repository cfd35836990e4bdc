"""Scalar backends: exact rationals and float64 under one commutative-ring contract.

The exact backend is the default everywhere.  Its scalars, as the API takes
and returns them, are ``ExactValue`` rationals, i.e. ``fractions.Fraction``,
which keeps itself in lowest terms with a positive denominator.  Tensors do
not store them: an exact tensor holds ``int`` numerators over one shared
``int`` denominator (see ``nfg.tensor``), so rationals are built only at this
boundary.  The float backend exists for performance experiments only; mixing
backends is always an error, never a silent coercion.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

EXACT = "exact"
F64 = "f64"

BACKENDS = (EXACT, F64)

ExactValue = Fraction
ScalarValue = Union[ExactValue, float]


class BackendMismatch(TypeError):
    """Raised when values from different scalar backends are combined."""


def rat(p, q=1):
    """Exact rational p/q, stored in lowest terms."""
    if isinstance(p, str):
        return Fraction(p) if q == 1 else Fraction(Fraction(p), q)
    return Fraction(p, q)


def zero(backend: str):
    return Fraction(0) if backend == EXACT else 0.0


def one(backend: str):
    return Fraction(1) if backend == EXACT else 1.0


def coerce(backend: str, value) -> ScalarValue:
    """Admit a raw value into a backend, rejecting cross-backend leakage.

    The exact backend accepts ints, rationals, Fractions and "p/q" strings;
    the float backend accepts ints and floats.  Neither accepts ``bool``.
    """
    if backend == EXACT:
        if type(value) is Fraction:
            return value
        if isinstance(value, bool):
            raise BackendMismatch("bool is not an exact scalar")
        if isinstance(value, float):
            raise BackendMismatch("float value rejected by the exact backend")
        if isinstance(value, (int, Fraction, str)):
            try:
                return Fraction(value)
            except ZeroDivisionError:
                raise ValueError(f"exact scalar {value!r} has a zero denominator") from None
        raise BackendMismatch(f"cannot admit {type(value).__name__} into the exact backend")
    if backend == F64:
        if isinstance(value, bool):
            raise BackendMismatch("bool is not a float64 scalar")
        if isinstance(value, (int, float)):
            try:
                return float(value)
            except OverflowError:
                raise BackendMismatch(f"value too large for {F64}") from None
        raise BackendMismatch(f"cannot admit {type(value).__name__} into the float backend")
    raise ValueError(f"unknown backend {backend!r}")


def check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")


def scalar_eq(backend: str, a, b, tol=None) -> bool:
    """Backend-aware comparison: exact is exact, float is within a mixed bound.

    Floats agree when ``|a - b| <= tol * max(1, |a|, |b|)``: an absolute
    bound of tol near zero and a relative one above 1, so two roundings of
    one large value agree whatever its magnitude.
    """
    if backend == EXACT:
        return a == b
    if tol is None:
        tol = 0.0
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def format_scalar(backend: str, value) -> str:
    """Rationals as "p/q" (or "p" for integers), floats in repr decimal."""
    if backend == EXACT:
        return str(value)
    return repr(float(value))

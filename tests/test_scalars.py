import re
from fractions import Fraction

import pytest

from nfg.scalars import (
    BackendMismatch,
    EXACT,
    F64,
    coerce,
    format_scalar,
    rat,
    scalar_eq,
)
from nfg.tensor import Tensor


def test_rat_lowest_terms():
    assert rat(2, 4) == rat(1, 2)
    assert rat(-3, -9) == rat(1, 3)
    assert str(rat(6, 4)) == "3/2"


def test_rat_from_string():
    assert rat("7/3") == rat(7, 3)
    assert rat("-2") == rat(-2)


def test_coerce_exact_accepts_ints_and_strings():
    assert coerce(EXACT, 5) == rat(5)
    assert coerce(EXACT, "1/3") == rat(1, 3)


@pytest.mark.parametrize("text", ["1/0", "-3/0", " 7/0 "])
def test_coerce_exact_refuses_a_zero_denominator_as_a_value_error(text):
    message = f"exact scalar {text!r} has a zero denominator"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc:
        coerce(EXACT, text)
    assert type(exc.value) is ValueError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Tensor.from_values((1,), [text])
    with pytest.raises(ValueError, match="Invalid literal"):  # malformed, as before
        coerce(EXACT, "abc")


def test_coerce_exact_rejects_float():
    with pytest.raises(BackendMismatch):
        coerce(EXACT, 0.5)


def test_coerce_f64_rejects_rational():
    with pytest.raises(BackendMismatch):
        coerce(F64, rat(1, 2))
    assert coerce(F64, 3) == 3.0
    assert isinstance(coerce(F64, 3), float)


def test_scalar_eq_exact_ignores_tolerance():
    a = rat(1, 3)
    b = rat(1, 3) + rat(1, 10**12)
    assert not scalar_eq(EXACT, a, b, tol=1.0)
    assert scalar_eq(EXACT, a, rat(1, 3), tol=0.0)


def test_scalar_eq_f64_uses_tolerance():
    assert scalar_eq(F64, 1.0, 1.0 + 1e-12, tol=1e-9)
    assert not scalar_eq(F64, 1.0, 1.1, tol=1e-9)


def test_scalar_eq_f64_is_relative_for_large_values():
    # the two f64 routes of det on tests/golden/m10.nfg: each within one ulp
    # (7.5e-9) of the exact value, 6e-9 apart
    diagram, oracle = -43210795.515037194, -43210795.5150372
    assert diagram != oracle
    assert scalar_eq(F64, diagram, oracle, tol=1e-9)
    assert not scalar_eq(F64, diagram, diagram * (1 + 1e-8), tol=1e-9)
    # near zero the bound stays absolute
    assert scalar_eq(F64, 1e-10, -1e-10, tol=1e-9)
    assert not scalar_eq(F64, 1e-10, 5e-9, tol=1e-9)


def test_format_parse_round_trip():
    for v in [rat(0), rat(5), rat(-7, 3), rat(22, 7)]:
        assert Fraction(format_scalar(EXACT, v)) == v


def test_coerce_exact_keeps_an_exact_fraction():
    v = rat(22, 7)
    assert coerce(EXACT, v) is v

    class Half(Fraction):
        pass

    w = coerce(EXACT, Half(1, 2))
    assert type(w) is Fraction and w == rat(1, 2)


def test_coerce_f64_refuses_an_int_beyond_the_largest_float():
    for big in (10 ** 400, -(10 ** 400), 2 ** 1024):
        with pytest.raises(BackendMismatch, match="too large for f64"):
            coerce(F64, big)
        assert coerce(EXACT, big) == big
    assert coerce(F64, 2 ** 1023) == 2.0 ** 1023

import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daha_cc1.core import (
    DEFAULT_TOL,
    AmbiguousMatchError,
    Params,
    RootOfUnityError,
    Tolerance,
    ZeroParameterError,
    approx_eq,
    clearly_neq,
    format_scalar,
    match_q_power,
    parse_scalar,
    validate_params,
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
complexes = st.builds(complex, finite, finite)


def test_tolerance_defaults():
    assert DEFAULT_TOL.eq_tol == 1e-9
    assert DEFAULT_TOL.ineq_margin == pytest.approx(1e-6)


@pytest.mark.parametrize("bad", [0.0, -1e-9, 1.0, 2.0])
def test_tolerance_rejects_bad_eq_tol(bad):
    with pytest.raises(ValueError):
        Tolerance(eq_tol=bad)


def test_params_q_is_square_of_q_half():
    p = Params(k0=1, k1=1, u0=1, u1=1, q_half=1 + 2j)
    assert p.q == (1 + 2j) ** 2


@given(complexes)
def test_approx_eq_reflexive(z):
    assert approx_eq(z, z)


@given(complexes, complexes)
def test_approx_eq_symmetric(a, b):
    assert approx_eq(a, b) == approx_eq(b, a)


def test_approx_eq_relative_scaling():
    assert approx_eq(1e12, 1e12 * (1 + 1e-10))
    assert not approx_eq(1e12, 1e12 * (1 + 1e-8))
    assert approx_eq(0.0, 1e-10)


def test_clearly_neq_leaves_a_dead_band():
    # between eq_tol and ineq_margin neither predicate fires
    a, b = 1.0, 1.0 + 1e-8
    assert not approx_eq(a, b)
    assert not clearly_neq(a, b)


def test_match_q_power_finds_unique_exponent():
    q = 1.3 + 0.2j
    assert match_q_power(q**5, q, 0, 10) == 5
    assert match_q_power(q**5 * 1.5, q, 0, 10) is None
    assert match_q_power(q**-2, q, -4, 4) == -2


def test_match_q_power_ambiguous_at_loose_tolerance():
    with pytest.raises(AmbiguousMatchError):
        match_q_power(1.1, 1.1, 0, 5, Tolerance(eq_tol=0.5))


def test_match_q_power_rejects_empty_range():
    with pytest.raises(ValueError):
        match_q_power(1.0, 2.0, 3, 1)


def test_validate_params_accepts_generic(generic_params):
    validate_params(generic_params)


def test_validate_params_rejects_zero():
    p = Params(k0=0.0, k1=1, u0=1, u1=1, q_half=2)
    with pytest.raises(ZeroParameterError):
        validate_params(p)


def test_validate_params_rejects_root_of_unity():
    # q = -1 has order 2
    p = Params(k0=2, k1=3, u0=5, u1=7, q_half=1j)
    with pytest.raises(RootOfUnityError) as exc:
        validate_params(p)
    assert exc.value.m == 2


def test_validate_params_rejects_high_order_root():
    q_half = cmath.exp(1j * cmath.pi / 12)  # q of order 12
    p = Params(k0=2, k1=3, u0=5, u1=7, q_half=q_half)
    with pytest.raises(RootOfUnityError) as exc:
        validate_params(p)
    assert exc.value.m == 12


@pytest.mark.parametrize(
    "text,value",
    [
        ("2", 2 + 0j),
        ("-1.5", -1.5 + 0j),
        ("3e-2", 0.03 + 0j),
        ("i", 1j),
        ("-i", -1j),
        ("2.5i", 2.5j),
        ("1+2i", 1 + 2j),
        ("1.5-0.5i", 1.5 - 0.5j),
        ("(1.5-0.5i)", 1.5 - 0.5j),
        ("-1e3+2e-1i", -1000 + 0.2j),
    ],
)
def test_parse_scalar_literals(text, value):
    assert parse_scalar(text) == value


@pytest.mark.parametrize("bad", ["", "z", "1+2", "1i+2", "++1i"])
def test_parse_scalar_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


@given(complexes)
@settings(max_examples=200)
def test_scalar_round_trip(z):
    back = parse_scalar(format_scalar(z, digits=17))
    assert abs(back - z) <= 1e-12 * max(1.0, abs(z))

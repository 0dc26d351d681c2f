import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daha_cc1 import core
from daha_cc1.core import (
    DEFAULT_TOL,
    ROOTS_BOUND,
    AmbiguousMatchError,
    Params,
    RootOfUnityError,
    Tolerance,
    ZeroParameterError,
    approx_eq,
    clearly_neq,
    compare_arrays,
    decide,
    format_scalar,
    match_q_power,
    parse_scalar,
    validate_params,
)
from daha_cc1.strata import classify_params

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
    assert approx_eq(1e-12, 1e-12 * (1 + 1e-10))
    # the scale is max(|a|, |b|), with no floor: only 0 equals 0
    assert not approx_eq(0.0, 1e-10)
    assert approx_eq(0.0, 0.0)


def test_small_values_compare_relatively():
    # 1e-3 apart, relative to values near 1e-12: not equal, and apart
    a, b = 1e-12, 1e-12 * (1 + 1e-3)
    assert not approx_eq(a, b)
    assert clearly_neq(a, b)
    assert decide(abs(a - b), max(abs(a), abs(b))) is True


@pytest.mark.parametrize("tol", [Tolerance(), Tolerance(eq_tol=1e-4)])
def test_decide_is_the_three_way_form_of_the_pair_comparators(tol):
    for mod in (1e-300, 1e-12, 1.0, 1e12):
        for d in (0.0, 0.1, 1.0, 1e1, 1e3, 2e3, 1e6):
            a, b = mod, mod * (1 + d * tol.eq_tol)
            verdict = decide(abs(a - b), max(abs(a), abs(b)), tol)
            assert verdict is (True if clearly_neq(a, b, tol) else
                               False if approx_eq(a, b, tol) else None), (mod, d)
    # a ratio is decided against scale 1
    assert [decide(x * tol.eq_tol, 1.0, tol) for x in (0.5, 1.0, 2.0, 1e3, 2e3)] == [
        False, False, None, None, True]


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


@pytest.mark.parametrize("q", [0.01, 100.0, 0.01j, -100.0])
def test_match_q_power_is_unique_far_from_the_unit_circle(q):
    # every q^m below 1e-9 used to match every other one
    for m in (0, 1, 5, 10):
        assert match_q_power(q**m, q, 0, 10) == m
        assert match_q_power(q**-m, q, -10, 0) == -m
    assert match_q_power(q**5 * (1 + 1e-3), q, 0, 10) is None


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


def _scalar_order(p):
    """The root-of-unity guard as a loop of scalar comparisons: the first
    m with q^m = 1, None when the powers run out or turn non-finite."""
    power = 1 + 0j
    for m in range(1, ROOTS_BOUND + 1):
        power = power * p.q
        if not cmath.isfinite(power):
            return None
        if approx_eq(power, 1.0, p.tol):
            return m
    return None


def _guard_order(p):
    try:
        validate_params(p)
    except RootOfUnityError as exc:
        return exc.m
    return None


def _unit_params(q_half, **kw):
    return Params(k0=2, k1=3, u0=5, u1=7, q_half=q_half, **kw)


def test_validate_params_pins_the_order_of_every_root_of_unity():
    for m in range(1, 65):
        for k in {1, max(j for j in range(1, m + 1) if math.gcd(j, m) == 1)}:
            p = _unit_params(cmath.exp(1j * math.pi * k / m))  # q = exp(2 pi i k/m)
            assert _guard_order(p) == _scalar_order(p) == m, (k, m)


@pytest.mark.parametrize("eq_tol", [1e-9, 1e-6])
def test_validate_params_near_misses_match_the_scalar_loop(eq_tol):
    tol = Tolerance(eq_tol=eq_tol)
    for m in (1, 2, 3, 12, 64):
        for side in (1, -1):
            for factor, hit in ((1 - 1e-3, True), (1 + 1e-3, False)):
                # q^m = 1 + side * eps, at eps just inside or outside eq_tol
                w = 1 + side * eq_tol * factor
                p = _unit_params(w ** (1 / (2 * m)) * cmath.exp(1j * math.pi / m), tol=tol)
                assert _guard_order(p) == _scalar_order(p) == (m if hit else None), (m, w)


def test_validate_params_stops_at_the_first_non_finite_power():
    # the last q has order ROOTS_BOUND + 1, past the guard's bound
    for q_half in (1e80, 1e10j, 10.0, cmath.exp(1j * math.pi / (ROOTS_BOUND + 1))):
        p = _unit_params(q_half)
        assert _guard_order(p) is _scalar_order(p) is None
    # q finite, |q| past the float range: abs() raises, and so does the guard
    p = _unit_params(cmath.sqrt(complex(1.3e308, 1.3e308)))
    assert cmath.isfinite(p.q)
    for guard in (_scalar_order, validate_params):
        with pytest.raises(OverflowError):
            guard(p)


@pytest.mark.parametrize("q_half", [1e155, 1e160, 1e200, 1e200 + 0j])
def test_validate_params_refuses_a_q_that_overflows(q_half):
    # a float q_half squares to inf without raising; classify must not
    # then read every t^(2s) as equal to -q^m = -inf
    p = _unit_params(q_half)
    assert not cmath.isfinite(p.q)
    with pytest.raises(OverflowError):
        validate_params(p)
    with pytest.raises(OverflowError):
        classify_params(p, 20)


def _loop_powers(q: complex) -> list[complex]:
    """The guard's powers as a loop: q^1, q^2, ... by repeated
    multiplication, up to the first non-finite one."""
    powers, power = [], 1 + 0j
    for _ in range(ROOTS_BOUND):
        power = power * q
        if not cmath.isfinite(power):
            break
        powers.append(power)
    return powers


def test_the_guards_accumulated_powers_are_the_loops_to_the_bit():
    rng = np.random.default_rng(64)
    # |q|^64 at the end of the float range, and |q|^40 there
    edge = 1.7976931348623157e308 ** (1 / ROOTS_BOUND)
    moduli = (0.3, 1 - 1e-7, 1.0, 1 + 1e-7, 3.0, edge * (1 - 1e-9), edge * (1 + 1e-9),
              edge ** (ROOTS_BOUND / 40))
    qs = [cmath.rect(mod, rng.uniform(0, 2 * math.pi)) for mod in moduli for _ in range(40)]
    powers, finite = core._unit_powers(np.array(qs)[:, None])
    prefixes = set()
    for q, row, ok in zip(qs, powers, finite):
        want = _loop_powers(q)
        prefixes.add(len(want))
        assert ok.tolist() == [True] * len(want) + [False] * (ROOTS_BOUND - len(want)), q
        assert row[: len(want)].tobytes() == np.array(want, dtype=complex).tobytes(), q
        # one point alone: the same bits
        alone = core._unit_powers(np.array([[q]]))[0][0]
        assert alone[: len(want)].tobytes() == row[: len(want)].tobytes(), q
    # rows end at the bound and before it
    assert {ROOTS_BOUND, 40} <= prefixes


def _threshold_steps(a: complex, margin: float, part: str) -> list[complex]:
    """Points b that move one part of a until |a - b| passes
    margin * max(|a|, |b|): the last float inside, the first outside,
    and two more floats to either side."""
    def at(x):
        return complex(x, a.imag) if part == "real" else complex(a.real, x)

    def inside(x):
        b = at(x)
        return abs(a - b) <= margin * max(abs(a), abs(b))

    lo = a.real if part == "real" else a.imag
    hi = lo + 4 * margin * abs(a)
    assert inside(lo) and not inside(hi)
    while True:
        mid = lo + (hi - lo) / 2
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    xs = [lo, hi]
    for _ in range(2):
        xs = [np.nextafter(xs[0], -np.inf), *xs, np.nextafter(xs[-1], np.inf)]
    return [at(float(x)) for x in xs]


_MODULI = (1e-300, 1e-12, 4e-10, 3e-7, 1e-3, 0.7, 1.0, 3.0, 1e5, 1e151, 1e200, 1e300)


@pytest.mark.parametrize("tol", [Tolerance(), Tolerance(eq_tol=1e-4), Tolerance(eq_tol=1e-12)])
def test_compare_arrays_agrees_with_the_scalar_comparators(tol):
    rng = np.random.default_rng(12)
    pairs = []
    for mod in _MODULI:
        for phase in (0.0, 0.3, 2.0, -1.2):
            a = cmath.rect(mod, phase)
            for margin in (tol.eq_tol, tol.ineq_margin):
                for part in ("real", "imag"):
                    pairs += [(a, b) for b in _threshold_steps(a, margin, part)]
            # and values around a at every relative distance
            pairs += [(a, a * (1 + d * cmath.rect(1, rng.uniform(0, 6.3))))
                      for d in (0.0, 1e-15, 1e-11, 1e-9, 1e-7, 1e-5, 1e-3, 1.0)]
    inf, nan = float("inf"), float("nan")
    pairs += [(inf, 1.0), (1.0, -inf), (inf, inf), (nan, 1.0), (complex(inf, nan), 2.0),
              (complex(nan, 1.0), complex(2.0, inf)), (0.0, 0.0), (1e-320, -1e-320)]
    a, b = (np.array(col) for col in zip(*pairs))
    eq, apart = compare_arrays(a, b, tol)
    assert eq.tolist() == [approx_eq(x, y, tol) for x, y in pairs]
    assert apart.tolist() == [clearly_neq(x, y, tol) for x, y in pairs]
    # the thresholds were met: both verdicts change along the steps
    assert eq.any() and not eq.all() and apart.any() and not apart.all()
    # broadcast over a grid, as the stratum table uses it
    rows, cols = a[::97], b[::89]
    eq, apart = compare_arrays(rows[:, None], cols[None, :], tol)
    assert eq.tolist() == [[approx_eq(x, y, tol) for y in cols] for x in rows]
    assert apart.tolist() == [[clearly_neq(x, y, tol) for y in cols] for x in rows]


def test_compare_arrays_raises_where_abs_overflows():
    big = complex(1.3e308, 1.3e308)
    with pytest.raises(OverflowError):
        approx_eq(big, 1.0)
    with pytest.raises(OverflowError):
        compare_arrays(np.array([1.0, big]), 1.0)
    # a difference past the float range is an infinite gap, not an error
    far = np.array([1.5e308]), np.array([-1.5e308])
    assert compare_arrays(*far)[0].tolist() == [approx_eq(1.5e308, -1.5e308)]
    assert compare_arrays(*far)[1].tolist() == [clearly_neq(1.5e308, -1.5e308)]


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

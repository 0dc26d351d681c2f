import cmath
import math
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daha_cc1 import cli, core, strata
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
from daha_cc1.roots import enumerate_strict_roots
from daha_cc1.strata import classify_params
from oracles import regex_parse_scalar, signed_format_scalar

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


def test_an_infinite_value_never_reads_equal():
    # |inf - x| = inf is at most eq_tol * inf, but an infinite gap is not
    # equal: at an infinite scale it lies in the band
    inf = math.inf
    assert not approx_eq(complex(inf, 0), 1e300)
    assert not clearly_neq(complex(inf, 0), 1e300)
    assert decide(inf, inf) is None and decide(inf, 1.0) is True
    # two equal infinities have a NaN gap: not equal either
    assert not approx_eq(inf, inf) and not approx_eq(complex(0, -inf), complex(0, -inf))
    # compare_points gives the scalar verdicts in its exact pass and
    # through its filter alike
    pairs = [(complex(inf, 0), 1e300), (1e300, -inf), (complex(0, inf), 1e300j), (inf, 1.0),
             (-inf, -inf), (complex(inf, inf), complex(inf, inf)), (1.0, 1.0), (2.0, 1.0)]
    a, b = (np.array(col) for col in zip(*pairs))
    small, large = 1, core.FILTER_MIN // len(pairs) + 1
    assert small * len(pairs) < core.FILTER_MIN <= large * len(pairs)
    for reps in (small, large):
        eq, apart, over = core.compare_points(np.tile(a, reps)[None], np.tile(b, reps)[None],
                                              DEFAULT_TOL)
        assert eq[0].tolist() == [approx_eq(x, y) for x, y in pairs] * reps
        assert apart[0].tolist() == [clearly_neq(x, y) for x, y in pairs] * reps
        assert not over.any()
    assert eq[0].tolist()[:len(pairs)] == [False] * 6 + [True, False]


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


# -- the guard's closed form against the 64-power pass -----------------------
#
# validation_errors clears a q whose modulus is off the unit circle by the
# closed form (core._cleared) and runs the powers of the others.  At every
# point the outcome must be the scalar loop's and the full pass's.


def _guard_outcome(error):
    return None if error is None else (type(error), str(error), getattr(error, "m", None))


def _scalar_outcome(p):
    """_scalar_order's verdict as validation_errors spells it."""
    try:
        m = _scalar_order(p)
    except OverflowError as exc:
        return _guard_outcome(exc)
    return None if m is None else _guard_outcome(RootOfUnityError(m))


def _full_pass(monkeypatch, points):
    """validation_errors without the closed form: every valid point's
    powers, in one comparison pass."""
    with monkeypatch.context() as m:
        m.setattr(core, "_cleared", lambda q, band: False)
        return core.validation_errors(points)


_GUARD_TOLS = (1e-15, 1e-9, 1e-6, 1e-3, 0.5)


def _guard_tier(eq_tol: float) -> dict[str, list[complex]]:
    """q_half of points by group: |q| a few ulps either side of the
    closed form's edges lo and 1/lo, of the exact pass's own (1 - eq_tol
    and its inverse) and of 2^15; |q| of 1e-300 and one that underflows
    to 0; roots of unity of every order up to ROOTS_BOUND, scaled by 1 +-
    c eq_tol / m; a q whose modulus overflows; and random q."""
    rng = np.random.default_rng(int(-math.log10(eq_tol) * 7))
    phases = [0.0, *rng.uniform(0, 2 * math.pi, 3)]
    lo = (1 - eq_tol - 1e-14) * (1 - 1e-12)

    def near(edge, step):
        return [cmath.sqrt(cmath.rect(edge * (1 + k * step), phase))
                for k in range(-4, 5) for phase in phases]

    ulp = 2.0**-52
    tier = {"lo": near(lo, ulp), "hi": near(1 / lo, ulp), "max": near(2.0**15, ulp),
            "pass": near(1 - eq_tol, 1e-13) + near(1 / (1 - eq_tol), 1e-13)}
    tier["tiny"] = [1e-150, complex(1e-170, 1e-170), cmath.sqrt(complex(1.3e308, 1.3e308))]
    roots = []
    for m in range(1, ROOTS_BOUND + 1):
        for k in {1, int(rng.integers(1, m + 1))}:
            for c in (0.0, 0.5, 1.0, 2.0, -0.5, -1.0, -2.0):
                scale = 1 + c * eq_tol / m
                if scale > 0:
                    roots.append(cmath.exp(1j * math.pi * k / m) * math.sqrt(scale))
    tier["roots"] = roots
    tier["random"] = [cmath.rect(10.0 ** rng.uniform(-2, 3), rng.uniform(0, 2 * math.pi))
                      for _ in range(300)]
    return tier


@pytest.mark.parametrize("eq_tol", _GUARD_TOLS)
def test_the_guards_closed_form_gives_the_64_power_pass(monkeypatch, eq_tol):
    tol = Tolerance(eq_tol=eq_tol)
    tier = {g: [_unit_params(qh, tol=tol) for qh in qhs] for g, qhs in _guard_tier(eq_tol).items()}
    points = [p for group in tier.values() for p in group]
    alone = [_guard_outcome(core.validation_errors([p])[0]) for p in points]
    assert alone == [_scalar_outcome(p) for p in points]
    assert [_guard_outcome(e) for e in _full_pass(monkeypatch, points)] == alone
    assert [_guard_outcome(e) for e in core.validation_errors(points)] == alone
    # each edge of the closed form is met from both sides, the exact
    # pass's edges are left to the pass, and every outcome is reached
    band = core._guard_band(tol)
    for group in ("lo", "hi", "max"):
        assert {core._cleared(p.q, band) for p in tier[group]} == {True, False}, group
    assert not any(core._cleared(p.q, band) for p in tier["pass"])
    assert {o and o[0] for o in alone} == {None, RootOfUnityError, OverflowError}


def test_a_points_guard_outcome_does_not_depend_on_its_batch():
    rng = np.random.default_rng(1616)
    tier = _guard_tier(1e-9)
    qhs = tier["random"][:40] + tier["roots"][::9] + tier["pass"][::4] + tier["tiny"]
    pool = [_unit_params(qh) for qh in qhs]
    pool += [Params(k0=0, k1=3, u0=5, u1=7, q_half=1.3), _unit_params(1e155),
             Params(k0=2, k1=float("inf"), u0=5, u1=7, q_half=cmath.exp(1j * math.pi / 5))]
    alone = [_guard_outcome(core.validation_errors([p])[0]) for p in pool]
    assert {o and o[0] for o in alone} == {None, RootOfUnityError, OverflowError,
                                           ZeroParameterError}
    for _ in range(60):
        at = rng.integers(0, len(pool), 16)
        batch = [_guard_outcome(e) for e in core.validation_errors([pool[i] for i in at])]
        assert batch == [alone[i] for i in at]


def test_a_scan_block_off_the_unit_circle_takes_no_powers(monkeypatch):
    # a block like the benchmark's: 6 planted, 8 generic and 2 points
    # with |q^{1/2}| within 2% of 1
    rng = np.random.default_rng(1616)
    kinds = [k for k, _ in enumerate_strict_roots(6)][::11][:6]
    points = [strata.sample_stratum_params(k, rng) for k in kinds]
    points += [strata.sample_generic_params(rng) for _ in range(8)]
    points += [_unit_params(cmath.rect(mod, 0.7)) for mod in (1.001, 1 / 1.02)]
    calls = []
    unit_powers = core._unit_powers
    monkeypatch.setattr(core, "_unit_powers", lambda q: calls.append(len(q)) or unit_powers(q))
    assert len(strata.classify_points(points, 20)) == 16
    assert calls == []
    # a point on the unit circle takes its powers, and alone
    strata.classify_points(points[:15] + [_unit_params(cmath.exp(0.5j))], 20)
    assert calls == [1]


def test_format_scalar_is_the_signed_spelling():
    parts = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
             2.2250738585072014e-308 / 3, 1e300, -1e300, 1e-300, -1e-300, 1.0, -1.5, 0.1,
             123456789012.5, -1e16, 1.7976931348623157e308]
    values = [complex(a, b) for a in parts for b in parts]
    rng = np.random.default_rng(1212)
    # random bit patterns: NaNs of either sign, subnormals, infinities
    values += [complex(a, b) for a, b in np.frombuffer(rng.bytes(16 * 40_000), dtype=float)
               .reshape(-1, 2).tolist()]
    scaled = rng.normal(size=(40_000, 2)) * 10.0 ** rng.integers(-20, 20, size=(40_000, 1))
    values += [complex(a, b) for a, b in scaled.tolist()]
    assert [z for z in values if format_scalar(z) != signed_format_scalar(z)] == []
    assert format_scalar(complex(1.5, math.nan)) == "1.5-nani"


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


# with subnormal moduli and moduli about 2^1022, where the filter hands
# its cells to the exact pass
_MODULI = (1e-310, 3e-308, 1e-300, 1e-12, 4e-10, 3e-7, 1e-3, 0.7, 1.0, 3.0, 1e5, 1e151,
           1e200, 1e300, 0.999 * 2.0**1022, 1.001 * 2.0**1022)


def _record_exact(monkeypatch) -> list:
    """The broadcast size of each exact pass compare_points makes from
    now on."""
    sizes, exact = [], core._exact

    def recorded(a, b, tol):
        sizes.append(np.broadcast(a, b).size)
        return exact(a, b, tol)

    monkeypatch.setattr(core, "_exact", recorded)
    return sizes


@pytest.mark.parametrize("tol", [Tolerance(), Tolerance(eq_tol=1e-4), Tolerance(eq_tol=1e-12)])
def test_compare_arrays_agrees_with_the_scalar_comparators(tol, monkeypatch):
    exact = _record_exact(monkeypatch)
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
    assert a.size >= core.FILTER_MIN
    eq, apart = compare_arrays(a, b, tol)
    assert eq.tolist() == [approx_eq(x, y, tol) for x, y in pairs]
    assert apart.tolist() == [clearly_neq(x, y, tol) for x, y in pairs]
    # the thresholds were met: both verdicts change along the steps
    assert eq.any() and not eq.all() and apart.any() and not apart.all()
    # the filter decided some cells and sent the rest, the band's
    # (most of the steps) and the out-of-range ones, to the exact pass
    assert 0 < exact[0] < a.size
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


def test_compare_points_marks_only_the_points_that_overflow(monkeypatch):
    """A block of points where some overflow: over[i] is whether point
    i's own compare_arrays raises, and the other points' verdicts are
    their own compare_arrays's."""
    rng = np.random.default_rng(5)
    big, half = complex(1.3e308, 1.3e308), complex(1.2e308, 1.2e308)
    a = rng.normal(size=(40, 3, 4)) + 1j * rng.normal(size=(40, 3, 4))
    b = a[:, :1, :] * (1 + 1e-12)
    a[3, 2, 1] = big                              # |a| overflows
    b[7, 0, 3] = big                              # |b| overflows, at each row of the point
    a[11, 0, 0], b[11, 0, 0] = half, -half / 2.4  # only |a - b| overflows
    a[15, 1, 2], b[15, 0, 2] = 1.5e308, -1.5e308  # a - b leaves the range: no error
    a[19, 0, 0] = complex(float("inf"), 1.0)      # an infinite part: no error
    a[23, :, :] = half                            # large moduli, none past the range
    a[27, 2, 3] = complex(1.0, float("nan"))      # a NaN part: no error
    a[29] = complex("nan")                        # a refused point's row
    a[31] *= 1e-310                               # subnormal moduli
    b[33] *= 1.9 * 2.0**1022                      # about 2^1022, past it and short of it
    a[33] = b[33] * np.array([[1 + 1e-12], [1 + 3e-9], [1.5]])
    # each point's cells tiled, so a point alone takes the exact pass and
    # 16 points the filter
    a, b = np.tile(a, 8), np.tile(b, 8)
    assert a[0].size < core.FILTER_MIN <= a[:16].size
    alone = []
    for ai, bi in zip(a, b):
        try:
            alone.append(compare_arrays(ai, bi))
        except OverflowError:
            alone.append(None)
    exact = _record_exact(monkeypatch)
    # the block, and a 16-point block of it, as the stratum table takes them
    for lo, hi in ((0, 40), (16, 32)):
        eq, apart, over = core.compare_points(a[lo:hi], b[lo:hi], DEFAULT_TOL)
        assert over.tolist() == [v is None for v in alone[lo:hi]]
        for i, v in enumerate(alone[lo:hi]):
            eq_i, apart_i = (np.zeros(eq[i].shape, dtype=bool),) * 2 if v is None else v
            assert (eq[i].tolist(), apart[i].tolist()) == (eq_i.tolist(), apart_i.tolist()), i
        assert eq.any() and apart.any()
        # the filter sent some cells to the exact pass, not the block
        assert 0 < exact.pop() < a[lo:hi].size / 2
    assert [i for i, v in enumerate(alone) if v is None] == [3, 7, 11]
    # a value shared by every point overflows at every point
    assert core.compare_points(a, big, DEFAULT_TOL)[2].all()


def test_numpys_absolute_is_within_a_few_ulps_of_hypot():
    # the filter's band (4,500 ulps) rests on this, from subnormal moduli
    # to the overflow edge
    rng = np.random.default_rng(3)
    exps = rng.integers(-1074, 1024, 200_000)
    re = np.ldexp(rng.uniform(-1, 1, exps.size), exps)
    with np.errstate(all="ignore"):
        im = re * np.ldexp(1.0, rng.integers(-60, 4, exps.size)) * rng.uniform(-1, 1, exps.size)
        fast, exact = np.abs(re + 1j * im), np.hypot(re, im)
    assert (np.isinf(fast) == np.isinf(exact)).all()
    fin = np.isfinite(exact) & (exact > 0)
    assert fin.sum() > 190_000
    assert (np.abs(fast[fin] - exact[fin]) <= 4 * np.spacing(exact[fin])).all()


def test_a_nan_row_sends_only_its_own_cells_to_the_exact_pass(monkeypatch):
    rng = np.random.default_rng(9)
    a = rng.normal(size=(16, 1, 24)) + 1j * rng.normal(size=(16, 1, 24))
    b = rng.normal(size=(16, 21, 1)) + 1j * rng.normal(size=(16, 21, 1))
    a[5] = complex("nan")
    exact = _record_exact(monkeypatch)
    eq, apart, over = core.compare_points(a, b, DEFAULT_TOL)
    assert exact == [21 * 24]
    assert not (eq[5].any() or apart[5].any() or over.any())
    assert apart.sum() == 15 * 21 * 24


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


@given(st.builds(complex, st.floats(allow_nan=False, allow_infinity=False),
                 st.floats(allow_nan=False, allow_infinity=False)))
@settings(max_examples=200)
def test_scalar_round_trip(z):
    # 17 significant digits name every finite double
    assert parse_scalar(f"{z.real:.17g}{z.imag:+.17g}i") == z
    # and the report's 12 digits read back as the same 12 digits
    assert format_scalar(parse_scalar(format_scalar(z))) == format_scalar(z)


def _parsed(parse, text):
    """parse(text) as the hex of both parts, or None when it refuses."""
    try:
        z = parse(text)
    except ValueError:
        return None
    return z.real.hex(), z.imag.hex()


# literals at the edges of the grammar: unit imaginaries, signed zeros,
# overflow and subnormal exponents, and spellings that must be refused
_EDGE_LITERALS = [
    "i", "-i", "+i", "1+i", "1-i", "-2.5-i", "0", "-0", "+0", "-0i", "0-0i", "-0-0i",
    "-0+0i", "1e400", "-1e400", "1e400i", "-1e400-1e400i", "1e-320", "-1e-320i",
    "2.5e-320+1e-320i", "1e308", "1.7976931348623157e308", "5.", ".5", "5.i", ".5i",
    "1E+5i", "1e5+1e-5i", "(1+2i)", " ( 1 + 2 i ) ", "(-i)", "\t7 ", "1\u0661",
    "\u0661+\u0662i", "1+e5i", "e5i", "1e5", "1+2e+5i", "j", "1j", "1+2j", "nan",
    "inf", "-inf", "infi", "nani", "1_0", "1+1_0i", "((1))", "(1", "1)", "", " ", "()",
    "i i", "ii", "1i+2", "++1i", "+-1", "1+-2i", ".", ".i", "e5", "1e", "1e+i", "+",
    "-", "1+", "1+2", "0x10", "1..2", "I", "1+2I",
]
_PIECES = ["", "0", "00", "1", "7", "12", "1.", "3.25", ".5", "0.0", "123456789012345678901"]
_EXPONENTS = ["", "", "e5", "E-3", "e+2", "e400", "e-320", "e-400", "E308", "e-324", "e"]
_NOISE = "ij_+-.eE() 0nanf"


def _random_literal(rng):
    """A literal in or near the grammar: an optional signed real part, an
    optional signed imaginary part (digits optional), some noise, inner
    spaces and parentheses."""
    def number():
        return rng.choice(["", "+", "-"]) + rng.choice(_PIECES) + rng.choice(_EXPONENTS)

    shape = rng.randrange(3)
    text = number() if shape != 1 else ""
    if shape:
        text += rng.choice(["+", "-"] if shape == 2 else ["", "+", "-"])
        text += (rng.choice(_PIECES) + rng.choice(_EXPONENTS)) * rng.randrange(2) + "i"
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(_NOISE) + text[at + rng.randrange(2):]
    if rng.random() < 0.2:
        text = f"({text})"
    if rng.random() < 0.2:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + " " + text[at:]
    return text


def test_parse_scalar_is_the_three_regex_parser_to_the_bit():
    # the same accept or refuse, and the same doubles, signed zeros and
    # infinities included, as the parser the one grammar replaced
    rng = random.Random(1818)
    texts = _EDGE_LITERALS + [_random_literal(rng) for _ in range(40_000)]
    outcomes = [(_parsed(parse_scalar, t), _parsed(regex_parse_scalar, t)) for t in texts]
    assert [t for t, (new, old) in zip(texts, outcomes) if new != old] == []
    accepted = sum(new is not None for new, _ in outcomes)
    assert 0.3 * len(texts) < accepted < 0.7 * len(texts)  # both sides are exercised
    assert _parsed(parse_scalar, "-0-0i") == ("-0x0.0p+0", "-0x0.0p+0")
    assert _parsed(parse_scalar, "-i") == ("0x0.0p+0", "-0x1.0000000000000p+0")


def test_over_a_plain_lines_characters_parse_scalar_is_complex_with_j():
    # what cli._load_points_file's plain path rests on: over the
    # characters of cli._PLAIN_LINE but the comma, complex() with j for i
    # accepts what parse_scalar accepts, to the bit.  Every string of up
    # to 5 of them (0 and 1 for the digits), and the plain random literals
    texts = ["".join(chars) for size in range(6) for chars in product("01.eE+-i", repeat=size)]
    rng = random.Random(1819)
    texts += [t for t in _EDGE_LITERALS + [_random_literal(rng) for _ in range(40_000)]
              if cli._PLAIN_LINE.fullmatch(t) and "," not in t]
    with_j = [_parsed(lambda s: complex(s.replace("i", "j")), t) for t in texts]
    assert [t for t, z in zip(texts, with_j) if z != _parsed(parse_scalar, t)] == []
    assert len(texts) > 50_000 and sum(z is not None for z in with_j) > 10_000


def test_parse_scalar_refuses_a_newline_inside_parentheses():
    # the old anchors let "$" match before a final newline; fullmatch does not
    assert regex_parse_scalar("(1+2i\n)") == 1 + 2j
    with pytest.raises(ValueError, match="cannot parse complex literal"):
        parse_scalar("(1+2i\n)")

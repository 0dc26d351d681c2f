import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daha_cc1.core import Tolerance
from daha_cc1.laurent import (
    InexactDivisionError,
    LaurentPoly,
    WindowMismatchError,
    apply_s0,
    apply_s1,
    build_E,
    build_E_dual,
    canonical_window,
    divide_exact,
    dual_ladder_roots,
    ladder_roots,
    poly_from_roots,
    reduce_mod,
)

coeff = st.builds(
    complex,
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)
polys = st.dictionaries(st.integers(-8, 8), coeff, max_size=6).map(LaurentPoly)
nonzero_polys = polys.filter(lambda f: not f.is_zero())

# divisors with a dominant end coefficient: synthetic division is only
# stable when the pivot end carries a decent share of the mass
small_polys = st.dictionaries(st.integers(-4, 4), coeff, max_size=5).map(
    LaurentPoly
)
divisors = small_polys.filter(
    lambda g: not g.is_zero()
    and max(abs(g.coeff(g.min_degree)), abs(g.coeff(g.max_degree)))
    >= 0.3 * g.norm_inf()
)

Q = (1.2 + 0.3j) ** 2
TOL = Tolerance()


def test_trimming_drops_noise():
    f = LaurentPoly({0: 1.0, 3: 1e-15})
    assert f.support == [0]


def test_degree_queries():
    f = LaurentPoly({-2: 1.0, 5: 2.0})
    assert (f.min_degree, f.max_degree) == (-2, 5)
    assert f.coeff(0) == 0j
    with pytest.raises(ValueError):
        LaurentPoly.zero().min_degree


@given(polys, polys)
def test_addition_commutes(f, g):
    assert f + g == g + f


@given(polys, polys, polys)
def test_multiplication_distributes(f, g, h):
    lhs = f * (g + h)
    rhs = f * g + f * h
    assert lhs.approx_eq(rhs)


@given(polys, st.integers(-5, 5))
def test_shift_is_monomial_multiplication(f, k):
    assert f.shift(k) == f * LaurentPoly.monomial(k)


@given(polys)
def test_s1_is_an_involution(f):
    assert apply_s1(apply_s1(f)) == f


@given(polys)
@settings(max_examples=100)
def test_s0_is_an_involution(f):
    assert apply_s0(apply_s0(f, Q), Q).approx_eq(f)


def test_s0_on_monomial():
    f = apply_s0(LaurentPoly.monomial(3), Q)
    assert f.approx_eq(LaurentPoly({-3: Q**3}))


@given(small_polys.filter(lambda f: not f.is_zero()), divisors)
@settings(max_examples=150)
def test_divide_exact_inverts_multiplication(f, g):
    h = divide_exact(f * g, g, Tolerance(eq_tol=1e-6))
    assert h.approx_eq(f, Tolerance(eq_tol=1e-6))


def test_divide_exact_stable_for_trail_heavy_divisor():
    # the difference-operator denominator 1 - q z^{-2} with |q| > 1 is
    # trailing-dominant; division must stay accurate over a long span
    q = (1.4 + 0.2j) ** 2
    den = LaurentPoly({0: 1.0, -2: -q})
    f = LaurentPoly({d: (0.7 + 0.1j) ** abs(d) for d in range(-10, 11)})
    h = divide_exact(f * den, den)
    assert h.approx_eq(f)


def test_divide_exact_flags_remainder():
    f = LaurentPoly({0: 1.0, 1: 1.0, 2: 1.0})
    g = LaurentPoly({0: 1.0, 1: 1.0})
    with pytest.raises(InexactDivisionError):
        divide_exact(f, g)


def test_divide_by_zero_poly():
    with pytest.raises(ZeroDivisionError):
        divide_exact(LaurentPoly.one(), LaurentPoly.zero())


def test_poly_from_roots_vanishes_at_roots():
    roots = [1.5, -0.5 + 1j, 2j]
    f = poly_from_roots(roots, 1)
    for r in roots:
        assert abs(f(r)) < 1e-9


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_build_E_positive_level(n):
    a, qh = 1.4 - 0.2j, 1.3 + 0.1j
    E = build_E(n, a, qh)
    assert (E.min_degree, E.max_degree) == (-n, n + 1)
    roots = ladder_roots(n, a, qh)
    assert len(roots) == 2 * n + 1
    for r in roots:
        scale = sum(abs(c) * abs(r) ** d for d, c in E.items())
        assert abs(E(r)) < 1e-10 * scale


@pytest.mark.parametrize("n", [1, 2, 3])
def test_build_E_negative_level(n):
    a, qh = 0.8 + 0.5j, 1.3 + 0.1j
    E = build_E(-n, a, qh)
    assert (E.min_degree, E.max_degree) == (-n, n)
    assert len(ladder_roots(-n, a, qh)) == 2 * n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dual_ladder_fixed_by_r_to_q_over_r(n):
    a, qh = 1.1 + 0.7j, 1.2 - 0.4j
    q = qh * qh
    roots = dual_ladder_roots(n, a, qh)
    assert len(roots) == 2 * n
    mapped = sorted((q / r for r in roots), key=lambda z: (z.real, z.imag))
    orig = sorted(roots, key=lambda z: (z.real, z.imag))
    for x, y in zip(mapped, orig):
        assert abs(x - y) < 1e-9
    E = build_E_dual(n, a, qh)
    assert (E.min_degree, E.max_degree) == (-n, n)


def test_canonical_window_has_one_fewer_slot_than_span():
    E = build_E(2, 1.5, 1.3)
    lo, hi = canonical_window(E)
    assert (lo, hi) == (-2, 2)
    assert hi - lo + 1 == E.max_degree - E.min_degree


@pytest.mark.parametrize("j", range(-6, 7))
def test_reduce_mod_is_an_ideal_projection(j):
    E = build_E(2, 1.4 - 0.2j, 1.3 + 0.1j)
    win = canonical_window(E)
    f = LaurentPoly({j: 1.0, j - 3: 0.5j})
    r = reduce_mod(f, E, win)
    if not r.is_zero():
        assert win[0] <= r.min_degree and r.max_degree <= win[1]
    # f - reduce(f) must lie in the ideal: it vanishes at E's roots
    diff = f - r
    for root in ladder_roots(2, 1.4 - 0.2j, 1.3 + 0.1j):
        scale = max(
            1.0, sum(abs(c) * abs(root) ** d for d, c in diff.items())
        )
        assert abs(diff(root)) < 1e-8 * scale


def test_reduce_mod_fixes_window_elements():
    E = build_E(1, 2.0, 1.3)
    win = canonical_window(E)
    f = LaurentPoly({-1: 1.0, 0: 2.0, 1: -3.0})
    assert reduce_mod(f, E, win) == f


def test_reduce_mod_rejects_bad_window():
    E = build_E(1, 2.0, 1.3)
    with pytest.raises(WindowMismatchError):
        reduce_mod(LaurentPoly.one(), E, (-1, 3))


def test_reduce_mod_stats_tracks_growth():
    E = build_E(2, 1.4, 1.3)
    f = E.shift(5)
    r = reduce_mod(f, E, canonical_window(E))
    assert r.norm_inf() < 1e-8 * f.norm_inf()

import cmath
import dataclasses
from functools import lru_cache, partial
from itertools import permutations, product

import numpy as np
import pytest

from daha_cc1 import cli, core, strata
from daha_cc1.core import Params, Tolerance, approx_eq
from daha_cc1.dsbridge import (
    InconsistentRanksError,
    ds_existence_predicate,
    xi_product,
    xi_table,
)
from daha_cc1.rep import build_quotient_rep
from daha_cc1.roots import (
    NonPositiveEntryError,
    RootVector,
    Type1E,
    Type1F,
    Type2,
    enumerate_strict_roots,
    kind_to_str,
    root_of_kind,
)
from daha_cc1.strata import (
    StratumVerdict,
    _Table,
    classify_params,
    random_q_half,
    random_unit,
    sample_generic_params,
    sample_stratum_params,
    sigma_membership,
    signed_product,
    stratum_verdicts,
    verdict_to_json,
)
from oracles import sigma_xi_hits


def test_xi_rows_have_fixed_products(generic_params):
    p = generic_params
    (e1, e2), *rest = xi_table(p)
    # pair 1 is the q^{1/2}T0 factor's: eigenvalue product -q; pairs 2-4: -1
    assert approx_eq(e1 * e2, -p.q)
    for e1, e2 in rest:
        assert approx_eq(e1 * e2, -1.0)


def test_xi_product_rejects_inconsistent_ranks(generic_params):
    with pytest.raises(InconsistentRanksError):
        xi_product(RootVector(1, 2, 0, 0, 0), generic_params)
    # a leg above a0 that is not a leg root
    for vec in (RootVector(0, 2, 0, 0, 0), RootVector(0, 1, 1, 0, 0), RootVector(0, 1, 0, 0, -1)):
        with pytest.raises(InconsistentRanksError):
            xi_product(vec, generic_params)


def test_xi_product_of_a_leg_root_is_minus_t_to_the_minus_two(generic_params):
    p = generic_params
    for g in core.GENERATORS:
        legs = [0, 0, 0, 0]
        legs[g.leg - 1] = 1
        t = getattr(p, g.t)
        assert cmath.isclose(xi_product(RootVector(0, *legs), p), -t**-2, rel_tol=1e-13), g


def test_xi_product_closes_on_stratum(rng):
    for n in range(0, 3):
        kind = Type2(1, -1, -1, 1, n)
        p = sample_stratum_params(kind, rng)
        val = xi_product(root_of_kind(kind), p)
        assert abs(val - 1.0) < 1e-9


def test_xi_product_open_off_stratum(generic_params):
    val = xi_product(RootVector(3, 1, 1, 1, 1), generic_params)
    assert abs(val - 1.0) > 1e-3


def test_one_dimensional_example_classifies(one_dim_params):
    hits = classify_params(one_dim_params, 3)
    assert hits == [(Type2(1, 1, 1, 1, 0), RootVector(1, 0, 0, 0, 0))]


def test_inequality_failure_is_reported():
    # force k0^2 = -q while also meeting the n=2 product equality
    qh = 1.3 + 0.2j
    q = qh * qh
    k0 = cmath.sqrt(-q)
    k1, u0 = 1.7 - 0.4j, 0.6 + 0.9j
    u1 = qh**-5 / (k1 * k0 * u0)
    p = Params(k0=k0, k1=k1, u0=u0, u1=u1, q_half=qh)
    v = sigma_membership(p, Type2(1, 1, 1, 1, 2))
    assert not v.member
    assert "neq.k0.m1" in v.failed_conditions
    assert verdict_to_json(v) == {"member": False, "failed": v.failed_conditions}


def test_equality_failure_is_reported(generic_params):
    v = sigma_membership(generic_params, Type2(1, 1, 1, 1, 1))
    assert not v.member
    assert "eq.product.1" in v.failed_conditions


def test_one_leg_stratum_classifies_exactly(rng):
    kind = Type1E(0, 1, 2)
    p = sample_stratum_params(kind, rng)
    hits = classify_params(p, 4)
    assert (kind, root_of_kind(kind)) in hits
    for other, _ in hits:
        assert other == kind


def test_at_most_one_level_per_sign_vector(rng):
    # q not a root of unity pins the exponent in the product equality
    for _ in range(5):
        p = sample_stratum_params(Type2(-1, 1, 1, -1, 2), rng)
        hits = classify_params(p, 6)
        per_sign = {}
        for kind, _ in hits:
            if isinstance(kind, Type2):
                per_sign.setdefault(kind.signs, []).append(kind.n)
        for levels in per_sign.values():
            assert len(levels) == 1


def test_generic_sampler_avoids_all_strata(rng):
    for _ in range(10):
        p = sample_generic_params(rng)
        assert classify_params(p, 6) == []


@pytest.mark.parametrize(
    "kind", [partial(Type2, 1, 1, 1, 1, -1), partial(Type1E, 0, 1, 0), partial(Type1F, 1, -1, 0)]
)
def test_a_kind_below_its_first_level_is_refused(kind):
    # the point meets t^2 = -q^0 for t = k0, so the equality of
    # T1E[i=0,+;n=0] holds; but that kind names no root, and is refused
    # when it is made
    p = Params(k0=1j, k1=0.7 + 0.2j, u0=1.3 - 0.4j, u1=0.9 + 0.5j, q_half=1.3 + 0.2j)
    with pytest.raises(NonPositiveEntryError):
        sigma_membership(p, kind())
    with pytest.raises(NonPositiveEntryError):
        sigma_membership(p, kind(), table=_Table([p], 3))


@pytest.mark.parametrize(
    "kind", [partial(Type1E, i=2, eps=1, n=1), partial(Type2, 2, 1, 1, 1, 0),
             partial(Type1E, 0, 3, 1), partial(Type1F, 2, 1, 1)]
)
def test_a_kind_whose_fields_name_no_root_is_refused(kind):
    # there is no leg e_2 or f_2, and a sign is +-1
    p = Params(k0=1j, k1=0.7 + 0.2j, u0=1.3 - 0.4j, u1=0.9 + 0.5j, q_half=1.3 + 0.2j)
    with pytest.raises(ValueError, match="names no root"):
        sigma_membership(p, kind())
    with pytest.raises(ValueError, match="names no root"):
        sigma_membership(p, kind(), table=_Table([p], 3))


# points that validate_params refuses: q^7 = 1 with T2[++,++;n=0]'s
# equality solved for u1, an infinite q_half, a finite q_half whose
# square overflows, and a zero k0
_QH7 = cmath.exp(1j * cmath.pi / 7)
REFUSED_POINTS = [
    Params(k0=2, k1=3, u0=5, u1=1 / (30 * _QH7), q_half=_QH7),
    Params(k0=2, k1=3, u0=5, u1=7, q_half=float("inf")),
    Params(k0=2, k1=3, u0=5, u1=7, q_half=1e200),
    Params(k0=0, k1=3, u0=5, u1=7, q_half=1.3 + 0.2j),
]


@pytest.mark.parametrize("p", REFUSED_POINTS, ids=["q7", "inf", "1e200", "k0=0"])
@pytest.mark.parametrize("kind", [Type2(1, 1, 1, 1, 0), Type1E(0, 1, 2)], ids=kind_to_str)
def test_every_stratum_reader_refuses_what_validate_params_refuses(p, kind):
    def raised(read):
        try:
            read()
        except Exception as exc:
            return type(exc), str(exc)
        return None

    expected = raised(lambda: core.validate_params(p))
    assert expected is not None
    readers = {
        "sigma_membership": lambda: sigma_membership(p, kind),
        "stratum_verdicts": lambda: next(stratum_verdicts(p, kind.n)),
        "classify_params": lambda: classify_params(p, kind.n),
        "ds_existence_predicate": lambda: ds_existence_predicate(root_of_kind(kind), p),
        "guarded build": lambda: build_quotient_rep(kind, None, p),
    }
    for name, read in readers.items():
        assert raised(read) == expected, name


def test_stratum_sampler_hits_every_type2_sign(rng):
    for s in product((1, -1), repeat=4):
        kind = Type2(*s, 1)
        p = sample_stratum_params(kind, rng)
        target = p.q_half ** (-3)
        assert approx_eq(signed_product(p, kind.signs), target)
        assert sigma_membership(p, kind).member


# -- oracle: the stratum conditions evaluated kind by kind -----------------
#
# A verbatim copy of the per-kind definition that classify used before the
# conditions moved into one shared per-point table.  The table must give
# the same (member, failed_conditions) for every kind, bit for bit, and
# the same classify output, on planted, generic, near-|q|=1 and boundary
# points.


def _per_kind_clearly_apart(a: complex, b: complex, tol: Tolerance) -> bool:
    return abs(a - b) > tol.ineq_margin * max(abs(a), abs(b))


def _per_kind_sigma_membership(p, k, tol=None):
    tol = tol if tol is not None else p.tol
    q = p.q
    failed: list[str] = []

    if isinstance(k, Type2):
        rhs = p.q_half ** (-1 - 2 * k.n)
        if not approx_eq(signed_product(p, k.signs), rhs, tol):
            failed.append(f"eq.product.{k.n}")
        per_param = (
            ("k0", p.k0, k.eps0),
            ("k1", p.k1, k.eps1),
            ("u0", p.u0, k.del0),
            ("u1", p.u1, k.del1),
        )
        for name, t, s in per_param:
            lhs = t ** (2 * s)
            for m in range((1 + s) // 2, k.n):
                if not _per_kind_clearly_apart(lhs, -(q**m), tol):
                    failed.append(f"neq.{name}.m{m}")
        return StratumVerdict(failed_conditions=failed)

    if isinstance(k, Type1E):
        name, t, s = ("k0", p.k0, k.eps) if k.i == 0 else ("k1", p.k1, k.eps)
    else:
        name, t, s = ("u0", p.u0, k.delta) if k.i == 0 else ("u1", p.u1, k.delta)
    if not approx_eq(t ** (2 * s), -(q**k.n), tol):
        failed.append(f"eq.{name}.n")
    # the product inequality is required for every sign assignment
    for m in range(0, k.n):
        rhs = p.q_half ** (-1 - 2 * m)
        if any(
            not _per_kind_clearly_apart(signed_product(p, signs), rhs, tol)
            for signs in product((1, -1), repeat=4)
        ):
            failed.append(f"neq.product.m{m}")
    return StratumVerdict(failed_conditions=failed)


def _per_kind_classify(verdict_of, n_max):
    """The per-kind classify loop; verdict_of(kind) is the oracle verdict,
    computed once per kind so that n_max 6 and 20 share it."""
    out = []
    for kind, vec in enumerate_strict_roots(n_max):
        if verdict_of(kind).member:
            out.append((kind, vec))
    return out


N_ORACLE = 20
_REAL_KINDS = [k for k, _ in enumerate_strict_roots(N_ORACLE)]
_T_NAMES = ("k0", "k1", "u0", "u1")


def _kinds_at(n):
    """The 16 type-2 kinds, then (n >= 1) the 8 one-leg kinds, of level n."""
    return [k for k in _REAL_KINDS if k.n == n]


def _with(p, **vals):
    return Params(**{**{nm: getattr(p, nm) for nm in (*_T_NAMES, "q_half")}, **vals})


def _solve_product(p, signs, target, free):
    """p with parameter `free` chosen so that signed_product(p, signs) = target."""
    j = _T_NAMES.index(free)
    rest = 1 + 0j
    for i, (nm, s) in enumerate(zip(_T_NAMES, signs)):
        if i != j:
            rest *= s * getattr(p, nm) ** s
    s = signs[j]
    return _with(p, **{free: (target / (rest * s)) ** s})


def _t_on(q, m, s):
    """A t with t^(2s) = -q^m."""
    return cmath.sqrt(-(q**m)) ** s


def _planted_points():
    # each level 0..20 once per group; the families rotate with the level,
    # so all 16 type-2 and all 8 one-leg families appear
    rng = np.random.default_rng(61)
    pts = []
    for n in range(0, N_ORACLE + 1):
        kinds = _kinds_at(n)
        pts.append(sample_stratum_params(kinds[n % 16], rng))
        if n >= 1:
            pts.append(sample_stratum_params(kinds[16 + n % 8], rng))
    return pts


def _generic_points():
    rng = np.random.default_rng(62)
    pts = [sample_generic_params(rng) for _ in range(4)]
    pts += [
        Params(*(random_unit(rng) for _ in range(4)), random_q_half(rng))
        for _ in range(4)
    ]
    return pts


def _near_unit_q_points():
    rng = np.random.default_rng(63)
    pts = []
    for mod in (0.97, 0.99, 0.997, 1.003, 1.01, 1.03):
        qh = mod * cmath.exp(1j * rng.uniform(0.3, 2.8))
        pts.append(Params(*(random_unit(rng) for _ in range(4)), qh))
    return pts


def _boundary_points():
    """Points on or at the margin of an inequality below the level.

    - t^(2s) = -q^m exactly, on a type-2 stratum of a higher level;
    - a signed product equal to q_half^(-1-2m), on a one-leg stratum of a
      higher level;
    - t^(2s) off -q^m by about the inequality margin itself.
    """
    rng = np.random.default_rng(64)
    pts = []
    for n, j, m in ((2, 0, 1), (5, 1, 0), (9, 2, 4), (14, 3, 13), (20, 0, 7), (20, 2, 19)):
        kind = _kinds_at(n)[int(rng.integers(16))]
        p = sample_stratum_params(kind, rng)
        s = kind.signs[j]
        m = max(m, (1 + s) // 2)
        p = _with(p, **{_T_NAMES[j]: _t_on(p.q, m, s)})
        pts.append(_solve_product(p, kind.signs, p.q_half ** (-1 - 2 * n), _T_NAMES[j - 1]))
    for n, m in ((1, 0), (3, 2), (8, 0), (13, 6), (20, 11), (20, 19)):
        kind = _kinds_at(n)[16 + int(rng.integers(8))]
        p = sample_stratum_params(kind, rng)
        fixed = (("k0", "k1") if isinstance(kind, Type1E) else ("u0", "u1"))[kind.i]
        free = next(nm for nm in reversed(_T_NAMES) if nm != fixed)
        signs = tuple(1 - 2 * int(b) for b in rng.integers(0, 2, 4))
        pts.append(_solve_product(p, signs, p.q_half ** (-1 - 2 * m), free))
    margin = Tolerance().ineq_margin
    for n, j, m, factor in ((4, 0, 2, 0.5), (7, 1, 3, 0.499), (7, 1, 3, 0.501),
                            (12, 3, 10, 0.5), (20, 2, 5, 0.4999999), (20, 2, 5, 0.5000001)):
        kind = _kinds_at(n)[int(rng.integers(16))]
        p = sample_stratum_params(kind, rng)
        s = kind.signs[j]
        m = max(m, (1 + s) // 2)
        qm = abs(p.q**m)
        t = _t_on(p.q, m, s) * (1 + factor * margin * max(1.0, qm) / qm)
        p = _with(p, **{_T_NAMES[j]: t})
        pts.append(_solve_product(p, kind.signs, p.q_half ** (-1 - 2 * n), _T_NAMES[j - 1]))
    return pts


def _plant(p, kind):
    """p moved onto the stratum equality of kind: u1 solves a type-2
    product equality, the leg's parameter a one-leg one."""
    if isinstance(kind, Type2):
        return _solve_product(p, kind.signs, p.q_half ** (-1 - 2 * kind.n), "u1")
    g, s = strata.one_leg(kind)
    return _with(p, **{g.t: _t_on(p.q, kind.n, s)})


def _random_point(mod, rng):
    qh = cmath.rect(mod, rng.uniform(0.0, 2 * cmath.pi))
    return Params(*(random_unit(rng) for _ in range(4)), qh)


def _wide_q_points():
    """Planted points at |q^{1/2}| in {0.3, 0.5, 2, 3}, where the q-powers
    of the stratum conditions span many orders of magnitude: for each
    level in turn one type-2 kind and (level >= 1) one one-leg kind."""
    rng = np.random.default_rng(65)
    pts = []
    for mod in (0.3, 0.5, 2.0, 3.0):
        for n in (0, 1, 5, 10, 15, 20):
            p = _random_point(mod, rng)
            kinds = _kinds_at(n)
            pts.append(_plant(p, kinds[int(rng.integers(16))]))
            if n >= 1:
                pts.append(_plant(p, kinds[16 + int(rng.integers(8))]))
    return pts


def _other_tolerance_points():
    """Planted, generic and boundary points under eq_tol from 1e-12 to 1e-4."""
    pts = _planted_points()[::9] + _generic_points()[::3] + _boundary_points()[::4]
    return [
        dataclasses.replace(p, tol=Tolerance(eq_tol=eq_tol))
        for eq_tol in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4)
        for p in pts
    ]


def _as_pair(v):
    return (v.member, list(v.failed_conditions))


def _per_kind_values(p, n):
    """strata._point_values(p, n) as the per-kind expressions, one value
    at a time, in its order: q_half^(-1-2m), -(q^m), the signed products
    by their rows, t^(2s) by theirs."""
    product_rhs = [p.q_half ** (-1 - 2 * m) for m in range(n + 1)]
    neg_q_powers = [-(p.q**m) for m in range(n + 1)]
    values = [signed_product(p, signs) for signs in product((1, -1), repeat=4)]
    values += [getattr(p, name) ** (2 * s) for name in _T_NAMES for s in (1, -1)]
    assert [strata._ROW[k] for k in [*product((1, -1), repeat=4),
                                     *product(_T_NAMES, (1, -1))]] == list(range(24))
    return values + product_rhs + product_rhs + neg_q_powers


def _bits(values):
    """Each value's type and the float.hex of both parts: == hides the
    sign of a zero and fails on NaN."""
    return [(type(z).__name__, float(z.real).hex(), float(z.imag).hex()) for z in values]


def _assert_matches_oracle(p, single_kind_levels):
    oracle = {k: _per_kind_sigma_membership(p, k) for k in _REAL_KINDS}
    for n_max in (6, N_ORACLE):
        assert classify_params(p, n_max) == _per_kind_classify(oracle.__getitem__, n_max)
    shared = [(k, _as_pair(v)) for k, _, v in stratum_verdicts(p, N_ORACLE)]
    assert shared == [(k, _as_pair(oracle[k])) for k in _REAL_KINDS]
    # one table queried from the top level down
    table = _Table([p], N_ORACLE)
    for k in reversed(_REAL_KINDS):
        assert _as_pair(sigma_membership(p, k, table=table)) == _as_pair(oracle[k]), k
    # every compared value is the per-kind expression, to the last bit
    point = strata._point_values(p, N_ORACLE)
    assert _bits(point) == _bits(_per_kind_values(p, N_ORACLE))
    values, product_rhs = point[:24], point[24 : 24 + N_ORACLE + 1]
    neg_q_powers = point[24 + 2 * (N_ORACLE + 1) :]
    # and every cell of the grid that the rule reads is the scalar verdict
    levels = {"products": product_rhs, "t": neg_q_powers}
    for row, value in enumerate(values):
        level_values = levels["products" if row < 16 else "t"]
        assert table.eq_cells[0, row::24].tolist() == [
            approx_eq(value, b, p.tol) for b in level_values
        ]
        assert table.apart_cells[0, row::24].tolist() == [
            _per_kind_clearly_apart(value, b, p.tol) for b in level_values
        ]
    for k in _REAL_KINDS:
        if k.n in single_kind_levels:
            assert _as_pair(sigma_membership(p, k)) == _as_pair(oracle[k]), k
    return oracle


_C = complex
# points whose values hold signed zeros (ints, floats and complex on
# the axes, where each factor's ±1 sets a zero part's sign), NaN, or
# products that underflow to zero and overflow without raising, and
# points whose powers overflow or underflow in ** (|q_half| = 1e-200,
# k0 = 1e200, k0 = 1e-200), which raises, one parameter at a time
_EDGE_POINTS = [
    Params(k0=_C(-0.0, 1.5), k1=_C(0.7, -0.0), u0=_C(-0.0, -2.0), u1=-2.5, q_half=_C(-1.2, -0.0)),
    Params(k0=1, k1=1.5j, u0=-0.5, u1=-2 + 0j, q_half=1.3),
    Params(k0=1.5j, k1=-0.5, u0=-0.5, u1=-0.5j, q_half=1.3),
    Params(k0=2, k1=-3.5, u0=0.5, u1=7, q_half=1.3),
    Params(k0=_C(float("nan"), 1.0), k1=3, u0=5, u1=7, q_half=1.1 + 0.5j),
    Params(k0=_C(0.0, 1e-100), k1=1e-100, u0=_C(1e-100, 1e-100), u1=_C(-1e-100, 0.0),
           q_half=1.3 + 0.2j),
    Params(k0=2, k1=3, u0=5, u1=7, q_half=_C(1e-200, 0.0)),
    Params(k0=2, k1=3, u0=5, u1=7, q_half=1e-200),
    Params(k0=_C(1e200, 0.0), k1=3, u0=5, u1=7, q_half=1.3 + 0.2j),
    Params(k0=1e200, k1=3, u0=5, u1=7, q_half=1.3 + 0.2j),
    Params(k0=_C(0.0, 1e-200), k1=3, u0=5, u1=7, q_half=1.3 + 0.2j),
    Params(k0=2, k1=3, u0=5, u1=7, q_half=_C(1e200, 0.0)),
]


@pytest.mark.parametrize("n", [0, 1, 20])
def test_point_values_are_the_per_kind_expressions_to_the_bit(rng, n):
    def outcome(values):
        try:
            return _bits(values())
        except (OverflowError, ZeroDivisionError) as exc:
            return type(exc), str(exc)

    points = [*_EDGE_POINTS, *(sample_generic_params(rng) for _ in range(4))]
    outcomes = []
    for p in points:
        outcomes.append(outcome(lambda: strata._point_values(p, n)))
        assert outcomes[-1] == outcome(lambda: _per_kind_values(p, n)), p
    # the values held what they were chosen for, and ** raised each way
    values = [v for o in outcomes[:6] for v in o]
    assert {"-0x0.0p+0", "nan", "0x0.0p+0", "inf"} <= {part for v in values for part in v[1:]}
    assert {"int", "float", "complex"} <= {v[0] for v in values}
    assert {o for o in outcomes[6:] if isinstance(o, tuple)} == {
        (OverflowError, "complex exponentiation"),
        (OverflowError, "(34, 'Numerical result out of range')"),
        (ZeroDivisionError, "0.0 to a negative or complex power"),
    }


@pytest.mark.parametrize(
    "points",
    [_planted_points, _generic_points, _near_unit_q_points, _wide_q_points,
     _other_tolerance_points],
    ids=["planted", "generic", "near-unit-q", "wide-q", "other-eq-tol"],
)
def test_shared_table_matches_per_kind_oracle(points):
    for p in points():
        _assert_matches_oracle(p, single_kind_levels={0, 1, 2, 7, N_ORACLE})


def test_shared_table_matches_per_kind_oracle_on_inequality_boundaries():
    neq_points = 0
    for p in _boundary_points():
        oracle = _assert_matches_oracle(p, single_kind_levels=range(N_ORACLE + 1))
        neq_points += any(
            c.startswith("neq.") for v in oracle.values() for c in v.failed_conditions
        )
    # every exact boundary point fails an inequality; the margin points may not
    assert neq_points >= 12


def _leg_equality_points():
    """Random points moved onto a leg equality, one of k0, k1, u0 set to a
    t with t^(+-2) = -q^m, m = 0..n+1, then onto the product equality of a
    type-2 kind of level n <= 6 by u1, at |q^{1/2}| in {0.3, 0.5, 1.3, 2, 3}."""
    rng = np.random.default_rng(66)
    pts = []
    for i in range(90):
        kind = _kinds_at(int(rng.integers(7)))[int(rng.integers(16))]
        p = _random_point((0.3, 0.5, 1.3, 2.0, 3.0)[i % 5], rng)
        name, s = _T_NAMES[int(rng.integers(3))], 1 - 2 * int(rng.integers(2))
        p = _with(p, **{name: _t_on(p.q, int(rng.integers(kind.n + 2)), s)})
        pts.append(_solve_product(p, kind.signs, p.q_half ** (-1 - 2 * kind.n), "u1"))
    return pts


def test_classify_is_sigma_xi_at_generic_and_stratum_points():
    # Crawley-Boevey–Shaw: an irreducible of dim vector alpha exists iff
    # alpha lies in Sigma_xi, decided here by root arithmetic alone
    rng = np.random.default_rng(67)
    for p in _generic_points():
        assert classify_params(p, 6) == sigma_xi_hits(p, 6) == []
    for kind, vec in enumerate_strict_roots(6):
        p = sample_stratum_params(kind, rng)
        hits = sigma_xi_hits(p, 6)
        assert classify_params(p, 6) == hits, kind
        assert (kind, vec) in hits


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_classify_is_sigma_xi_on_leg_equalities():
    for p in _leg_equality_points():
        assert classify_params(p, 6) == sigma_xi_hits(p, 6), p


def _lower_product_points():
    """One-leg stratum points of level n <= 6, each of the 8 families at
    each level, moved by a parameter off the leg so that a random signed
    product equals q_half^(-1-2k) for a k < n, at |q^{1/2}| in {0.3, 0.5,
    1.3, 2, 3}."""
    rng = np.random.default_rng(73)
    pts = []
    for i in range(48):
        kind = _kinds_at(1 + i % 6)[16 + i // 6]
        p = _plant(_random_point((0.3, 0.5, 1.3, 2.0, 3.0)[i % 5], rng), kind)
        free = next(nm for nm in reversed(_T_NAMES) if nm != strata.one_leg(kind)[0].t)
        signs = tuple(1 - 2 * int(b) for b in rng.integers(0, 2, 4))
        pts.append(_solve_product(p, signs, p.q_half ** (-1 - 2 * int(rng.integers(kind.n))), free))
    return pts


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_classify_is_sigma_xi_on_lower_level_products():
    # classify reads all 16 products for a one-leg kind of leg sign s;
    # Sigma_xi reads only the 8 whose sign on that leg is -s
    for p in _lower_product_points():
        assert classify_params(p, 6) == sigma_xi_hits(p, 6), p


@lru_cache(maxsize=1)
def _s4_points() -> tuple:
    """(p, classify hits, Sigma_xi hits) at n_max 6, hits as root vectors,
    at the leg-equality points and at a stratum point of each kind up to
    level 4."""
    rng = np.random.default_rng(74)
    pts = _leg_equality_points() + [sample_stratum_params(k, rng)
                                    for k, _ in enumerate_strict_roots(4)]
    return tuple((p, _hit_vectors(classify_params(p, 6)), _hit_vectors(sigma_xi_hits(p, 6)))
                 for p in pts)


def _hit_vectors(hits) -> set:
    return {vec for _, vec in hits}


@pytest.mark.parametrize("perm", list(permutations(range(4)))[1:], ids=str)
def test_a_leg_permutation_permutes_the_hits(perm):
    """xi^[alpha] depends on each leg only through that leg's own
    eigenvalue pair, so Sigma_xi is S4-equivariant: with (k0, k1, u0, u1)
    permuted by perm (the identity left out), the hits are the hits at p
    with their legs (a1..a4) permuted the same way, by classify as by
    the oracle."""
    for p, classified, oracle in _s4_points():
        moved = _with(p, **{nm: getattr(p, _T_NAMES[j]) for nm, j in zip(_T_NAMES, perm)})
        for got, want in ((classify_params(moved, 6), classified),
                          (sigma_xi_hits(moved, 6), oracle)):
            assert _hit_vectors(got) == {RootVector(v.a0, *(v[1 + j] for j in perm))
                                         for v in want}, (perm, p)


def test_the_rule_names_every_condition_of_every_kind(monkeypatch, generic_params):
    """With every comparison read as neither equal nor clearly apart,
    every kind fails each of its conditions, which no sampled point
    reaches: the table's rule and the per-kind oracle must then name the
    same full list, in the same order, for every kind up to level 20."""
    def undecided(a, b, tol):
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        undecided = np.zeros(shape, dtype=bool)
        return undecided, undecided.copy(), np.zeros(shape[:1], dtype=bool)

    monkeypatch.setattr(strata, "compare_points", undecided)
    monkeypatch.setitem(globals(), "approx_eq", lambda a, b, tol: False)
    monkeypatch.setitem(globals(), "_per_kind_clearly_apart", lambda a, b, tol: False)
    p = generic_params
    shared = {k: v for k, _, v in stratum_verdicts(p, N_ORACLE)}
    conditions = 0
    for k in _REAL_KINDS:
        oracle = _per_kind_sigma_membership(p, k)
        assert oracle.failed_conditions[0].startswith("eq.")
        assert shared[k] == sigma_membership(p, k) == oracle, k
        conditions += len(oracle.failed_conditions)
    # 496 equalities; at level n, the 16 type-2 kinds read 32 legs of
    # sign -1 at n levels and 32 of sign +1 at n - 1 (t^2 from m = 1),
    # and the 8 one-leg kinds the products at n levels
    assert conditions == 496 + sum(32 * n + 32 * max(n - 1, 0) + 8 * n for n in range(21))
    assert classify_params(p, N_ORACLE) == []


# -- the rule matrix's structure --------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 6, N_ORACLE])
def test_a_kind_reads_only_cells_below_its_level(n):
    rule = strata._Rule(n)
    assert rule.reads.shape == (24 * (n + 1),) * 2
    kind_cells, read = rule.reads.nonzero()
    assert rule.kinds[kind_cells].all()
    assert (read // 24 < kind_cells // 24).all()
    assert not rule.reads.flags.writeable and not rule.kinds.flags.writeable


@pytest.mark.parametrize("n", [0, 1, 6, N_ORACLE])
def test_the_kind_mask_is_the_cells_of_the_enumerated_roots(n):
    # within a level, the 16 type-2 kinds take rows 0..15 and the 8
    # one-leg kinds rows 16..23, in enumeration order
    rule = strata._Rule(n)
    cells = {}
    for m in range(n + 1):
        level = [(k, v) for k, v in enumerate_strict_roots(n) if k.n == m]
        cells.update({m * 24 + row: kv for row, kv in enumerate(level)})
    assert np.flatnonzero(rule.kinds).tolist() == sorted(cells)
    assert rule.roots == tuple(cells.get(c) for c in range(24 * (n + 1)))


@pytest.mark.parametrize("n", [0, 1, 6, 19])
def test_a_horizon_is_the_top_left_block_of_horizon_20(n):
    small, large, cells = strata._Rule(n), strata._Rule(N_ORACLE), 24 * (n + 1)
    assert (small.reads == large.reads[:cells, :cells]).all()
    assert (small.kinds == large.kinds[:cells]).all()
    assert small.roots == large.roots[:cells]


# -- planted points far from the unit circle -------------------------------


def _rotating_kinds():
    """Per level 0..20 one type-2 kind and (level >= 1) one one-leg kind;
    the families rotate with the level, so all 24 appear."""
    kinds = []
    for n in range(N_ORACLE + 1):
        kinds.append(_kinds_at(n)[n % 16])
        if n >= 1:
            kinds.append(_kinds_at(n)[16 + n % 8])
    return kinds


@pytest.mark.parametrize("mod", [0.3, 0.5, 2.0, 3.0])
def test_wide_q_planted_points_hit_only_their_kind(mod):
    """Stratum quantities at these moduli reach |q|^(+-40); compared
    relatively, no two of them below 1 pass as equal, so each planted
    point lies on its own stratum and on no other up to level 20."""
    rng = np.random.default_rng(77)
    # every fifth kind: all 24 families and all levels 0..20
    for kind in _REAL_KINDS[::5]:
        p = _plant(_random_point(mod, rng), kind)
        assert [k for k, _ in classify_params(p, N_ORACLE)] == [kind], (mod, kind)


def _flipped(kind, name):
    """The image of kind under t -> -1/t for the parameter `name`: the
    sign of t flips in a type-2 kind and in the one-leg kinds of t."""
    if isinstance(kind, Type2):
        return Type2(*(-s if nm == name else s for nm, s in zip(_T_NAMES, kind.signs)), kind.n)
    g, s = strata.one_leg(kind)
    if g.t != name:
        return kind
    return dataclasses.replace(kind, **{"eps" if isinstance(kind, Type1E) else "delta": -s})


@pytest.mark.parametrize("mod", [0.3, 0.5, 1.3, 2.0, 3.0])
def test_t_to_minus_inverse_t_maps_the_hits(mod):
    """(T - t)(T + 1/t) is symmetric in t and -1/t, so moving one of k0,
    k1, u0, u1 to -1/t maps the classify hits by _flipped."""
    rng = np.random.default_rng(71)
    for kind in _rotating_kinds():
        p = _plant(_random_point(mod, rng), kind)
        hits = {k for k, _ in classify_params(p, N_ORACLE)}
        assert kind in hits, (mod, kind)
        for name in _T_NAMES:
            moved = _with(p, **{name: -1 / getattr(p, name)})
            got = {k for k, _ in classify_params(moved, N_ORACLE)}
            assert got == {_flipped(k, name) for k in hits}, (mod, kind, name)


# -- cross-check: the member mask against the per-kind verdicts ------------
#
# classify_params reads every kind's verdict off one member mask;
# stratum_verdicts and the classify command read them kind by kind.  The
# tier holds the two against each other, exceptions included, on the
# bench's scan batches, planted points over a wide |q|, points near a
# root of unity, points moved about the tolerances, points with a t of
# +-i and points outside the float range.  ``_cross_check_points(seed, scale)`` draws more of
# each at a larger scale.


def _bench_scan_points(seeds):
    from test_rep import _bench_inputs

    inputs = _bench_inputs()
    return [Params(*pt.values) for seed in seeds for b in inputs.scan_batches(seed) for pt in b]


def _wide_planted_points(rng, scale):
    return [
        _plant(_random_point(mod, rng), kind)
        for mod in (0.3, 0.5, 1.3, 2.0, 3.0)
        for kind in _REAL_KINDS[int(rng.integers(11)) :: max(1, 11 // scale)]
    ]


def _near_root_of_unity_points(rng, scale):
    """Every family planted at level m, with q^{1/2} = sqrt((1 + d)^(1/m))
    e^{i pi/m}, so that q^m = 1 + d, just above eq_tol or some way off it."""
    pts = []
    for gap in (2e-9, 5e-8, 5e-7):
        for m in (3, 7, 13, 20) if scale == 1 else range(1, 21):
            qh = cmath.rect(np.sqrt((1 + gap) ** (1 / m)), np.pi / m)
            for kind in _kinds_at(m):
                pts.append(_plant(_with(_random_point(1.0, rng), q_half=qh), kind))
    return pts


def _moved_points(rng, scale):
    """Planted points with the planted equality, or one inequality below
    the level, moved by +-0.5, 1 and 2 times eq_tol or ineq_margin:
    about the edges of approx_eq's and clearly_neq's bands."""
    tol = Tolerance()
    pts = []
    for _ in range(scale):
        for n in range(1, N_ORACLE + 1, 3):
            for f in (0.5, 1.0, 2.0, -0.5, -1.0, -2.0):
                for band in (tol.eq_tol, tol.ineq_margin):
                    step = 1 + f * band * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
                    kind = _kinds_at(n)[int(rng.integers(24))]
                    p = _plant(_random_point(float(rng.uniform(0.5, 2.0)), rng), kind)
                    m = int(rng.integers(n))
                    if isinstance(kind, Type2):
                        pts.append(_with(p, u1=p.u1 * step))
                        # t^(2s) moved off -q^m, t^2 from m = 1 on
                        j = int(rng.integers(4))
                        s = kind.signs[j]
                        m = max(m, (1 + s) // 2)
                        moved = _with(p, **{_T_NAMES[j]: _t_on(p.q, m, s) * step})
                        target, signs, free = p.q_half ** (-1 - 2 * n), kind.signs, _T_NAMES[j - 1]
                    else:
                        leg = strata.one_leg(kind)[0].t
                        pts.append(_with(p, **{leg: getattr(p, leg) * step}))
                        # a signed product moved off its level value at m
                        moved, target = p, p.q_half ** (-1 - 2 * m) * step
                        signs = tuple(1 - 2 * int(b) for b in rng.integers(0, 2, 4))
                        free = next(nm for nm in reversed(_T_NAMES) if nm != leg)
                    if m < n:
                        pts.append(_solve_product(moved, signs, target, free))
    return pts


def _unit_leg_points(rng, scale):
    """Planted points with a t of +-i, so that t^2 = -q^0 and t^-2 = -q^0:
    no inequality compares those, and no one-leg kind has level 0."""
    pts = []
    for kind in _REAL_KINDS[int(rng.integers(9)) :: max(1, 9 // scale)]:
        p = _random_point(1.3, rng)
        j = int(rng.integers(3))  # k0, k1 or u0: u1 solves a type-2 equality
        if not isinstance(kind, Type2) and strata.one_leg(kind)[0].t == _T_NAMES[j]:
            j = (j + 1) % 3
        pts.append(_plant(_with(p, **{_T_NAMES[j]: 1j * (1 - 2 * int(rng.integers(2)))}), kind))
    return pts


def _out_of_range_points(rng, scale):
    """Zero, infinite and NaN parameters, roots of unity, and moduli whose
    powers leave the float range."""
    base = _random_point(1.3, rng)
    pts = []
    for name in (*_T_NAMES, "q_half"):
        for v in (0, "inf", "nan", 1e-200, 1e200, 1e-20, 1e20, 1e-160j):
            pts.append(_with(base, **{name: complex(v)}))
    for _ in range(scale):
        pts += [_with(base, q_half=cmath.rect(1.0, cmath.pi * j / m))
                for m in (2, 3, 5, 7, 32) for j in (1, m - 1)]
        pts += [_with(base, q_half=cmath.rect(mod, float(rng.uniform(0, 6.3))))
                for mod in (1e-9, 1e-6, 1e-4, 1e4, 1e6, 1e9, 1e20)]
    return pts


def _cross_check_points(seed, scale=1):
    rng = np.random.default_rng(seed)
    return [
        *_bench_scan_points(range(1, 1 + 3 * scale)),
        *_wide_planted_points(rng, scale),
        *_near_root_of_unity_points(rng, scale),
        *_moved_points(rng, scale),
        *_unit_leg_points(rng, scale),
        *_out_of_range_points(rng, scale),
    ]


def _outcome(run):
    try:
        return run()
    except Exception as exc:  # the type must match, the message may differ
        return type(exc)


def _per_kind_hits(p, n_max):
    strata.validate_params(p)
    return [(k, v) for k, v, verdict in stratum_verdicts(p, n_max) if verdict.member]


def _command_hits(p, n_max):
    report, _ = cli.cmd_classify(cli.RunConfig(params=p, n_max=n_max), explain=False)
    return [(row["kind"], row["root"]) for row in report["results"]["hits"]]


def _mismatches(p, levels=(0, 6, N_ORACLE)):
    """The mismatches between classify_params and the per-kind verdicts,
    and the classify command, at each n_max in levels; [] when none."""
    bad = []
    for n_max in levels:
        mask = _outcome(lambda: classify_params(p, n_max))
        per_kind = _outcome(lambda: _per_kind_hits(p, n_max))
        command = _outcome(lambda: _command_hits(p, n_max))
        if isinstance(mask, list):
            mask_strs = [(kind_to_str(k), str(v)) for k, v in mask]
        else:
            mask_strs = mask
        if mask != per_kind or mask_strs != command:
            bad.append((p, n_max, mask, per_kind, command))
    return bad


def test_member_mask_matches_the_per_kind_verdicts():
    pts = _cross_check_points(1515)
    bad = [b for p in pts for b in _mismatches(p)]
    assert not bad, bad[:3]
    outcomes = [_outcome(lambda: classify_params(p, N_ORACLE)) for p in pts]
    # the tier reaches hits, misses and refusals
    assert sum(isinstance(o, list) and len(o) >= 1 for o in outcomes) >= 300
    assert sum(o == [] for o in outcomes) >= 100
    assert {o for o in outcomes if isinstance(o, type)} >= {
        core.ZeroParameterError, core.RootOfUnityError, OverflowError
    }


# -- batch independence: a point's outcome is its own ----------------------
#
# classify_points compares the points of a block in one pass; each
# point's hits, or the type of its exception, must be classify_params's
# at that point alone, whatever the points beside it.  Two more points
# raise in a comparison pass: a signed product whose modulus overflows
# from finite parts (the table's), and a q whose modulus does (the
# root-of-unity guard's).


def _compare_overflow_points():
    big = 1.1e102
    return [
        Params(k0=big, k1=big, u0=big, u1=100 + 100j, q_half=1.3 + 0.2j),
        Params(k0=2, k1=3, u0=5, u1=7, q_half=cmath.sqrt(complex(1.3e308, 1.3e308))),
    ]


def _batched(pts, size, n_max):
    outcomes = [o for lo in range(0, len(pts), size)
                for o in strata.classify_points(pts[lo : lo + size], n_max)]
    return [type(o) if isinstance(o, Exception) else o for o in outcomes]


def test_a_points_outcome_does_not_depend_on_its_batch():
    pts = _cross_check_points(1717, scale=2) + _compare_overflow_points()
    pts = [pts[i] for i in np.random.default_rng(1717).permutation(len(pts))]
    for n_max in (0, 6, N_ORACLE):
        alone = [_outcome(lambda: classify_params(p, n_max)) for p in pts]
        for size in (1, 7, 16, len(pts)):
            assert _batched(pts, size, n_max) == alone, (n_max, size)
    # every refusal type is reached
    assert {o for o in alone if isinstance(o, type)} >= {
        core.ZeroParameterError, core.RootOfUnityError, OverflowError, ZeroDivisionError
    }
    for p in _compare_overflow_points():
        with pytest.raises(OverflowError):
            classify_params(p, N_ORACLE)

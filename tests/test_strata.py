import cmath
import dataclasses
from itertools import product

import numpy as np
import pytest

from daha_cc1 import strata
from daha_cc1.core import Params, Tolerance, approx_eq
from daha_cc1.dsbridge import InconsistentRanksError, xi_product, xi_table
from daha_cc1.roots import (
    Imaginary,
    RootVector,
    Type1E,
    Type2,
    enumerate_strict_roots,
    root_of_kind,
)
from daha_cc1.strata import (
    ImaginaryKindError,
    StratumVerdict,
    _StratumConditions,
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


def test_imaginary_kinds_have_no_stratum(generic_params):
    with pytest.raises(ImaginaryKindError):
        sigma_membership(generic_params, Imaginary(1))
    with pytest.raises(ImaginaryKindError):
        sample_stratum_params(Imaginary(1), np.random.default_rng(0))


def test_classify_never_returns_imaginary(rng):
    for _ in range(5):
        p = sample_stratum_params(Type2(1, 1, 1, 1, 1), rng)
        for kind, _ in classify_params(p, 4):
            assert not isinstance(kind, Imaginary)


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
    return abs(a - b) > tol.ineq_margin * max(1.0, abs(a), abs(b))


def _per_kind_sigma_membership(p, k, tol=None):
    tol = tol if tol is not None else p.tol
    if isinstance(k, Imaginary):
        raise ImaginaryKindError("imaginary kinds have no stratum")
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
        return StratumVerdict(member=not failed, failed_conditions=failed)

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
    return StratumVerdict(member=not failed, failed_conditions=failed)


def _per_kind_classify(verdict_of, n_max):
    """The per-kind classify loop; verdict_of(kind) is the oracle verdict,
    computed once per kind so that n_max 6 and 20 share it."""
    out = []
    for kind, vec in enumerate_strict_roots(n_max):
        if isinstance(kind, Imaginary):
            continue
        if verdict_of(kind).member:
            out.append((kind, vec))
    return out


N_ORACLE = 20
_REAL_KINDS = [k for k, _ in enumerate_strict_roots(N_ORACLE) if not isinstance(k, Imaginary)]
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


def _wide_q_points():
    """Planted points at |q^{1/2}| in {0.3, 0.5, 2, 3}, where the q-powers
    of the stratum conditions span many orders of magnitude: for each
    level in turn one type-2 kind and (level >= 1) one one-leg kind."""
    rng = np.random.default_rng(65)
    pts = []
    for mod in (0.3, 0.5, 2.0, 3.0):
        for n in (0, 1, 5, 10, 15, 20):
            qh = cmath.rect(mod, rng.uniform(0.0, 2 * cmath.pi))
            p = Params(*(random_unit(rng) for _ in range(4)), qh)
            kinds = _kinds_at(n)
            kind = kinds[int(rng.integers(16))]
            pts.append(_solve_product(p, kind.signs, qh ** (-1 - 2 * n), "u1"))
            if n >= 1:
                kind = kinds[16 + int(rng.integers(8))]
                name = (("k0", "k1") if isinstance(kind, Type1E) else ("u0", "u1"))[kind.i]
                s = kind.eps if isinstance(kind, Type1E) else kind.delta
                pts.append(_with(p, **{name: _t_on(p.q, n, s)}))
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


def _assert_matches_oracle(p, single_kind_levels):
    oracle = {k: _per_kind_sigma_membership(p, k) for k in _REAL_KINDS}
    for n_max in (6, N_ORACLE):
        assert classify_params(p, n_max) == _per_kind_classify(oracle.__getitem__, n_max)
    shared = [(k, _as_pair(v)) for k, _, v in stratum_verdicts(p, N_ORACLE)]
    assert shared == [(k, _as_pair(oracle[k])) for k in _REAL_KINDS]
    # one table queried from the top level down
    table = _StratumConditions(p, N_ORACLE)
    for k in reversed(_REAL_KINDS):
        assert _as_pair(sigma_membership(p, k, table=table)) == _as_pair(oracle[k]), k
    # every compared value is the per-kind expression, to the last bit
    q = p.q
    for m in range(N_ORACLE + 1):
        assert table.product_rhs[m] == p.q_half ** (-1 - 2 * m)
        assert table.neg_q_powers[m] == -(q**m)
    for signs in product((1, -1), repeat=4):
        assert table.values[strata._ROW[signs]] == signed_product(p, signs)
    for name in _T_NAMES:
        for s in (1, -1):
            assert table.values[strata._ROW[name, s]] == getattr(p, name) ** (2 * s)
    for k in _REAL_KINDS:
        if k.n in single_kind_levels:
            assert _as_pair(sigma_membership(p, k)) == _as_pair(oracle[k]), k
    return oracle


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

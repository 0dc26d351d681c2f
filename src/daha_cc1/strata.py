"""Stratum predicates over parameter space.

A real strict root alpha carries a locally closed stratum: one q-power
equality plus finitely many inequalities.  Parameters admit the
irreducible of dimension vector alpha exactly when they lie on the
stratum.  This module also houses the prescribed-eigenvalue table for
the four-matrix product problem and the xi^[alpha] closure product.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    Params,
    Tolerance,
    approx_eq,
    clearly_neq,
    validate_params,
)
from .roots import (
    Imaginary,
    RootKind,
    RootVector,
    Type1E,
    Type2,
    enumerate_strict_roots,
)


class ImaginaryKindError(ValueError):
    """Imaginary roots carry no stratum when q is not a root of unity."""


class InconsistentRanksError(ValueError):
    """A leg label exceeds the central label, so the rank data is invalid."""


@dataclass(frozen=True)
class XiTable:
    """Prescribed eigenvalue pairs per generator row.

    Rows follow (A1, A2, A3, A4) = (q^{1/2} T0, T0v, T1, T1v); each row
    multiplies to -q (row 1) or -1 (rows 2-4).
    """

    rows: tuple[tuple[complex, complex], ...]

    def xi(self, i: int, j: int) -> complex:
        return self.rows[i - 1][j - 1]


@dataclass(frozen=True)
class StratumVerdict:
    member: bool
    failed_conditions: list[str] = field(default_factory=list)


def xi_table(p: Params) -> XiTable:
    """Eigenvalue rows for (q^{1/2}T0, T0v, T1, T1v).

    The k1/u1 rows are paired with T1/T1v respectively, so that each
    generator row lists its own quadratic's eigenvalues.
    """
    qh = p.q_half
    return XiTable(
        rows=(
            (p.k0 * qh, -qh / p.k0),
            (p.u0, -1 / p.u0),
            (p.k1, -1 / p.k1),
            (p.u1, -1 / p.u1),
        )
    )


def xi_product(alpha: RootVector, p: Params, table: XiTable | None = None) -> complex:
    """prod_i xi[i,1]^(a0 - leg_i) * xi[i,2]^leg_i over the four rows.

    Legs are taken in the order (a1, a3, a2, a4), matching the row order
    (T0, T0v, T1, T1v).
    """
    table = table if table is not None else xi_table(p)
    legs = (alpha.a1, alpha.a3, alpha.a2, alpha.a4)
    if any(leg > alpha.a0 for leg in legs):
        raise InconsistentRanksError(
            f"leg label exceeds central label in {alpha}"
        )
    out = 1 + 0j
    for row, leg in enumerate(legs, start=1):
        out *= table.xi(row, 1) ** (alpha.a0 - leg) * table.xi(row, 2) ** leg
    return out


def signed_product(p: Params, signs: tuple[int, int, int, int]) -> complex:
    """eps1 k1^eps1 * eps0 k0^eps0 * del1 u1^del1 * del0 u0^del0."""
    eps0, eps1, del0, del1 = signs
    return (
        eps1 * p.k1**eps1
        * eps0 * p.k0**eps0
        * del1 * p.u1**del1
        * del0 * p.u0**del0
    )


_SIGN_CHOICES = tuple(product((1, -1), repeat=4))
# the four Hecke parameters in the order of Type2.signs
_T_NAMES = ("k0", "k1", "u0", "u1")


class _StratumConditions:
    """The quantities that one point's stratum conditions compare.

    Every stratum condition compares a signed product with
    q^{-1/2-m}, or t^{2s} with -q^m.  Over all kinds up to level n these
    are about 24 n distinct comparisons, which the per-kind conditions
    would repeat once per kind.  Here each value is computed on first
    use, with the per-kind expression, and each inequality is tested once
    per level, so verdicts read from one table are bit-identical to
    verdicts computed kind by kind.
    """

    __slots__ = (
        "p", "tol", "_products", "_product_rhs", "_neg_q_powers", "_t_scans",
        "_product_scan",
    )

    def __init__(self, p: Params, tol: Tolerance):
        self.p = p
        self.tol = tol
        self._products: dict[tuple[int, int, int, int], complex] = {}
        self._product_rhs: dict[int, complex] = {}
        self._neg_q_powers: list[complex] = []
        # a scan is [first level not yet tested, the levels found close];
        # a t-scan, keyed by (name of t, s), also holds t^(2s)
        self._t_scans: dict[tuple[str, int], list] = {}
        self._product_scan: list = [0, []]

    def product(self, signs: tuple[int, int, int, int]) -> complex:
        v = self._products.get(signs)
        if v is None:
            v = self._products[signs] = signed_product(self.p, signs)
        return v

    def product_rhs(self, m: int) -> complex:
        """q_half^(-1-2m)."""
        v = self._product_rhs.get(m)
        if v is None:
            v = self._product_rhs[m] = self.p.q_half ** (-1 - 2 * m)
        return v

    def neg_q_powers(self, n: int) -> list[complex]:
        """-q^m at index m, for at least every m <= n."""
        powers = self._neg_q_powers
        if len(powers) > n:
            return powers
        q = self.p.q
        for m in range(len(powers), n + 1):
            powers.append(-(q**m))
        return powers

    def _t_scan(self, key: tuple[str, int]) -> list:
        scan = self._t_scans.get(key)
        if scan is None:
            name, s = key
            lhs = getattr(self.p, name) ** (2 * s)
            scan = self._t_scans[key] = [(1 + s) // 2, [], lhs]
        return scan

    def t_power(self, key: tuple[str, int]) -> complex:
        """t^(2s) for key (name of t, s)."""
        return self._t_scan(key)[2]

    def t_close(self, key: tuple[str, int], n: int) -> Sequence[int]:
        """The m in [(1+s)/2, n) where t^(2s) is not clearly apart from
        -q^m, for key (name of t, s)."""
        if n <= (1 + key[1]) // 2:
            return ()
        scan = self._t_scan(key)
        first, close, lhs = scan
        if first < n:
            rhs, tol = self.neg_q_powers(n), self.tol
            for m in range(first, n):
                if not clearly_neq(lhs, rhs[m], tol):
                    close.append(m)
            scan[0] = n
        return close[: bisect_left(close, n)] if close else ()

    def product_close(self, n: int) -> Sequence[int]:
        """The m in [0, n) where some signed product is not clearly apart
        from q_half^(-1-2m)."""
        scan = self._product_scan
        first, close = scan
        if first < n:
            tol = self.tol
            for m in range(first, n):
                rhs = self.product_rhs(m)
                if any(
                    not clearly_neq(self.product(signs), rhs, tol)
                    for signs in _SIGN_CHOICES
                ):
                    close.append(m)
            scan[0] = n
        return close[: bisect_left(close, n)] if close else ()


def sigma_membership(
    p: Params,
    k: RootKind,
    tol: Tolerance | None = None,
    table: _StratumConditions | None = None,
) -> StratumVerdict:
    """Evaluate the stratum conditions of a real strict root kind.

    Equalities must hold within eq_tol; inequalities must be violated by
    the full margin (1e3 * eq_tol) to count as satisfied, keeping the
    verdict well separated from boundary noise.  ``table`` shares the
    compared quantities between calls on the same point and tolerance;
    without one, the call computes only what this kind needs.
    """
    tol = tol if tol is not None else p.tol
    if isinstance(k, Imaginary):
        raise ImaginaryKindError("imaginary kinds have no stratum")
    c = table if table is not None else _StratumConditions(p, tol)
    failed: list[str] = []

    if isinstance(k, Type2):
        signs, n = k.signs, k.n
        if not approx_eq(c.product(signs), c.product_rhs(n), tol):
            failed.append(f"eq.product.{n}")
        for key in zip(_T_NAMES, signs):
            for m in c.t_close(key, n):
                failed.append(f"neq.{key[0]}.m{m}")
        return StratumVerdict(member=not failed, failed_conditions=failed)

    if isinstance(k, Type1E):
        name, s = ("k0" if k.i == 0 else "k1"), k.eps
    else:
        name, s = ("u0" if k.i == 0 else "u1"), k.delta
    if not approx_eq(c.t_power((name, s)), c.neg_q_powers(k.n)[k.n], tol):
        failed.append(f"eq.{name}.n")
    # the product inequality is required for every sign assignment
    for m in c.product_close(k.n):
        failed.append(f"neq.product.m{m}")
    return StratumVerdict(member=not failed, failed_conditions=failed)


def stratum_verdicts(
    p: Params, n_max: int, tol: Tolerance | None = None
) -> Iterator[tuple[RootKind, RootVector, StratumVerdict]]:
    """The verdict of every real strict root up to level n_max, in
    enumeration order; the kinds share one table of the point's
    stratum quantities."""
    tol = tol if tol is not None else p.tol
    table = _StratumConditions(p, tol)
    for kind, vec in enumerate_strict_roots(n_max):
        if not isinstance(kind, Imaginary):
            yield kind, vec, sigma_membership(p, kind, tol, table)


def classify_params(
    p: Params, n_max: int, tol: Tolerance | None = None
) -> list[tuple[RootKind, RootVector]]:
    """All strict real roots up to level n_max whose stratum contains p."""
    validate_params(p)
    return [
        (kind, vec)
        for kind, vec, verdict in stratum_verdicts(p, n_max, tol)
        if verdict.member
    ]


def verdict_to_json(v: StratumVerdict) -> dict:
    return {"member": v.member, "failed": list(v.failed_conditions)}


# -- stratum parameter samplers ------------------------------------------


def random_unit(rng: np.random.Generator, spread: float = 0.35) -> complex:
    mod = float(np.exp(rng.normal(0.0, spread)))
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    return mod * complex(np.cos(phase), np.sin(phase))


def random_q_half(rng: np.random.Generator) -> complex:
    mod = float(rng.uniform(1.15, 1.45))
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    return mod * complex(np.cos(phase), np.sin(phase))


def sample_generic_params(
    rng: np.random.Generator, tol: Tolerance = DEFAULT_TOL
) -> Params:
    """Random parameters with |q| > 1, resampled until they avoid every
    stratum equality by the full margin (levels up to 6)."""
    for _ in range(200):
        p = Params(
            k0=random_unit(rng),
            k1=random_unit(rng),
            u0=random_unit(rng),
            u1=random_unit(rng),
            q_half=random_q_half(rng),
            tol=tol,
        )
        ok = True
        for n in range(0, 7):
            rhs = p.q_half ** (-1 - 2 * n)
            for signs in product((1, -1), repeat=4):
                if not clearly_neq(signed_product(p, signs), rhs, tol):
                    ok = False
            for t in (p.k0, p.k1, p.u0, p.u1):
                for s in (2, -2):
                    if not clearly_neq(t**s, -(p.q**n), tol):
                        ok = False
        if ok:
            return p
    raise RuntimeError("failed to sample generic parameters")


def sample_stratum_params(
    kind: RootKind, rng: np.random.Generator, tol: Tolerance = DEFAULT_TOL
) -> Params:
    """Random parameters on the stratum of the given real kind.

    The stratum equality is solved exactly for one parameter; draws that
    land within the margin band of any inequality are rejected.
    """
    if isinstance(kind, Imaginary):
        raise ImaginaryKindError("imaginary kinds have no stratum")
    for _ in range(500):
        qh = random_q_half(rng)
        q = qh * qh
        if isinstance(kind, Type2):
            k0, k1, u0 = (random_unit(rng) for _ in range(3))
            eps0, eps1, del0, del1 = kind.signs
            rest = (
                eps1 * k1**eps1 * eps0 * k0**eps0 * del0 * u0**del0
            )
            target = qh ** (-1 - 2 * kind.n)
            u1 = (target / (rest * del1)) ** del1
            p = Params(k0=k0, k1=k1, u0=u0, u1=u1, q_half=qh, tol=tol)
        else:
            branch = complex(np.sqrt(-(q**kind.n)))
            if rng.integers(2):
                branch = -branch
            if isinstance(kind, Type1E):
                s = kind.eps
                fixed = branch**s
                vals = {"k0" if kind.i == 0 else "k1": fixed}
            else:
                s = kind.delta
                fixed = branch**s
                vals = {"u0" if kind.i == 0 else "u1": fixed}
            for nm in ("k0", "k1", "u0", "u1"):
                vals.setdefault(nm, random_unit(rng))
            p = Params(q_half=qh, tol=tol, **vals)
        try:
            validate_params(p)
        except ValueError:
            continue
        if sigma_membership(p, kind, tol).member:
            return p
    raise RuntimeError(f"failed to sample parameters on stratum of {kind}")

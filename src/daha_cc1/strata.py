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
from typing import Iterator

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
    """The quantities that one point's stratum conditions compare, up to
    level n.

    Every stratum condition compares a signed product with
    q^{-1/2-m}, or t^{2s} with -q^m.  Over all kinds up to level n these
    are about 24 n distinct comparisons, which the per-kind conditions
    would repeat once per kind.  Here each value is computed once, with
    the per-kind expression, and each inequality is tested once per
    level m < n, so verdicts read from one table are bit-identical to
    verdicts computed kind by kind.
    """

    __slots__ = (
        "p", "n", "neg_q_powers", "product_rhs", "t_powers", "_products", "_close",
    )

    def __init__(self, p: Params, n: int):
        q, qh = p.q, p.q_half
        self.p, self.n = p, n
        self.neg_q_powers = [-(q**m) for m in range(n + 1)]
        self.product_rhs = [qh ** (-1 - 2 * m) for m in range(n + 1)]
        # t^(2s), keyed by (name of t, s)
        self.t_powers = {
            (name, s): getattr(p, name) ** (2 * s) for name in _T_NAMES for s in (1, -1)
        }
        self._products: dict[tuple[int, int, int, int], complex] = {}
        # the levels m < n found close, keyed like t_powers, or by None for
        # the signed products
        self._close: dict[tuple[str, int] | None, list[int]] = {}

    def product(self, signs: tuple[int, int, int, int]) -> complex:
        v = self._products.get(signs)
        if v is None:
            v = self._products[signs] = signed_product(self.p, signs)
        return v

    def _scan(self, key: tuple[str, int] | None) -> list[int]:
        tol = self.p.tol
        if key is None:
            products = [self.product(signs) for signs in _SIGN_CHOICES]
            return [
                m for m, rhs in enumerate(self.product_rhs[: self.n])
                if any(not clearly_neq(v, rhs, tol) for v in products)
            ]
        lhs, rhs = self.t_powers[key], self.neg_q_powers
        return [
            m for m in range((1 + key[1]) // 2, self.n)
            if not clearly_neq(lhs, rhs[m], tol)
        ]

    def close(self, key: tuple[str, int] | None, level: int) -> list[int]:
        """The m < level where t^(2s) is not clearly apart from -q^m, for
        key (name of t, s) and m >= (1+s)/2; for key None, where some
        signed product is not clearly apart from q_half^(-1-2m)."""
        close = self._close.get(key)
        if close is None:
            close = self._close[key] = self._scan(key)
        return close[: bisect_left(close, level)]


def sigma_membership(
    p: Params, k: RootKind, table: _StratumConditions | None = None
) -> StratumVerdict:
    """Evaluate the stratum conditions of a real strict root kind.

    Equalities must hold within p.tol.eq_tol; inequalities must be
    violated by the full margin (1e3 * eq_tol) to count as satisfied,
    keeping the verdict well separated from boundary noise.  ``table``,
    of horizon at least k.n, shares the compared quantities between calls
    on the same point; without one, the call builds a table of horizon
    k.n, which makes the per-kind comparisons.
    """
    if isinstance(k, Imaginary):
        raise ImaginaryKindError("imaginary kinds have no stratum")
    c = table if table is not None else _StratumConditions(p, k.n)
    tol, n = p.tol, k.n
    failed: list[str] = []

    if isinstance(k, Type2):
        if not approx_eq(c.product(k.signs), c.product_rhs[n], tol):
            failed.append(f"eq.product.{n}")
        for key in zip(_T_NAMES, k.signs):
            for m in c.close(key, n):
                failed.append(f"neq.{key[0]}.m{m}")
        return StratumVerdict(member=not failed, failed_conditions=failed)

    if isinstance(k, Type1E):
        name, s = ("k0" if k.i == 0 else "k1"), k.eps
    else:
        name, s = ("u0" if k.i == 0 else "u1"), k.delta
    if not approx_eq(c.t_powers[(name, s)], c.neg_q_powers[n], tol):
        failed.append(f"eq.{name}.n")
    # the product inequality is required for every sign assignment
    for m in c.close(None, n):
        failed.append(f"neq.product.m{m}")
    return StratumVerdict(member=not failed, failed_conditions=failed)


def stratum_verdicts(
    p: Params, n_max: int
) -> Iterator[tuple[RootKind, RootVector, StratumVerdict]]:
    """The verdict of every real strict root up to level n_max, in
    enumeration order; the kinds share one table of the point's
    stratum quantities."""
    table = _StratumConditions(p, n_max)
    for kind, vec in enumerate_strict_roots(n_max):
        if not isinstance(kind, Imaginary):
            yield kind, vec, sigma_membership(p, kind, table)


def classify_params(p: Params, n_max: int) -> list[tuple[RootKind, RootVector]]:
    """All strict real roots up to level n_max whose stratum contains p."""
    validate_params(p)
    return [
        (kind, vec)
        for kind, vec, verdict in stratum_verdicts(p, n_max)
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
        c = _StratumConditions(p, 7)
        # the table tests t^2 against -q^m from m = 1 on; t^2 != -1 is extra
        if (
            not c.close(None, 7)
            and not any(c.close(key, 7) for key in c.t_powers)
            and all(
                clearly_neq(c.t_powers[(nm, 1)], c.neg_q_powers[0], tol) for nm in _T_NAMES
            )
        ):
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
        if sigma_membership(p, kind).member:
            return p
    raise RuntimeError(f"failed to sample parameters on stratum of {kind}")

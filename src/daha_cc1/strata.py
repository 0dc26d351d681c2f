"""Stratum predicates over parameter space.

A real strict root alpha carries a locally closed stratum: one q-power
equality plus finitely many inequalities.  Parameters admit the
irreducible of dimension vector alpha exactly when they lie on the
stratum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator

import numpy as np

from .core import (
    DEFAULT_TOL,
    GENERATORS,
    Generator,
    Params,
    Tolerance,
    clearly_neq,
    compare_arrays,
    validate_params,
)
from .roots import (
    Imaginary,
    RootKind,
    RootVector,
    Type1E,
    Type1F,
    Type2,
    enumerate_strict_roots,
)


class ImaginaryKindError(ValueError):
    """Imaginary roots carry no stratum when q is not a root of unity."""


@dataclass(frozen=True)
class StratumVerdict:
    member: bool
    failed_conditions: list[str] = field(default_factory=list)


_SIGN_CHOICES = tuple(product((1, -1), repeat=4))
# the four Hecke parameters in the order of Type2.signs
_T_NAMES = tuple(g.t for g in GENERATORS)


def one_leg(k: Type1E | Type1F) -> tuple[Generator, int]:
    """The generator whose leg a one-leg kind moves, and the sign it
    moves it by: e_i is the leg of T_i, f_i that of T_iv."""
    if isinstance(k, Type1E):
        return GENERATORS[k.i], k.eps
    return GENERATORS[2 + k.i], k.delta


def signed_product(p: Params, signs: tuple[int, int, int, int]) -> complex:
    """eps1 k1^eps1 * eps0 k0^eps0 * del1 u1^del1 * del0 u0^del0."""
    eps0, eps1, del0, del1 = signs
    return (
        eps1 * p.k1**eps1
        * eps0 * p.k0**eps0
        * del1 * p.u1**del1
        * del0 * p.u0**del0
    )


def _signed_products(p: Params) -> list[complex]:
    """signed_product(p, signs) for every sign vector, in _SIGN_CHOICES
    order: the same left-to-right products, sharing their first four
    factors."""
    k0, k1, u0, u1 = ({s: getattr(p, name) ** s for s in (1, -1)} for name in _T_NAMES)
    heads = [e1 * k1[e1] * e0 * k0[e0] for e0, e1 in product((1, -1), repeat=2)]
    return [h * d1 * u1[d1] * d0 * u0[d0] for h in heads for d0, d1 in product((1, -1), repeat=2)]


# the table's rows: the 16 signed products, keyed by their signs, then
# t^(2s), keyed by (name of t, s)
_ROW_KEYS = (*_SIGN_CHOICES, *((name, s) for name in _T_NAMES for s in (1, -1)))
_ROW = {key: row for row, key in enumerate(_ROW_KEYS)}
# per sign vector, the (name of t, row of t^(2s)) its inequalities read
_LEG_ROWS = {
    signs: tuple((name, _ROW[name, s]) for name, s in zip(_T_NAMES, signs))
    for signs in _SIGN_CHOICES
}
_N_PRODUCTS, _N_ROWS = len(_SIGN_CHOICES), len(_ROW_KEYS)


class _StratumConditions:
    """The comparisons of one point's stratum conditions, up to level n.

    Every stratum condition compares a row value, a signed product or
    t^(2s), with its level value at some m: q_half^(-1-2m) or -q^m.  The
    values are the per-kind Python expressions, and the 24 x (n+1) grid is
    compared in one pass of ``compare_arrays``, which gives approx_eq's and
    clearly_neq's bits: verdicts read from the table are the per-kind ones.
    """

    __slots__ = ("values", "product_rhs", "neg_q_powers", "eq", "close", "product_close")

    def __init__(self, p: Params, n: int):
        q, qh = p.q, p.q_half
        self.product_rhs = [qh ** (-1 - 2 * m) for m in range(n + 1)]
        self.neg_q_powers = [-(q**m) for m in range(n + 1)]
        self.values = _signed_products(p) + [
            getattr(p, name) ** (2 * s) for name, s in _ROW_KEYS[_N_PRODUCTS:]
        ]
        # the rows as three groups of 8 (products, products, t^(2s)),
        # broadcast against the level row of each group
        flat = np.array(self.values + 2 * self.product_rhs + self.neg_q_powers)
        eq, apart = compare_arrays(
            flat[:_N_ROWS].reshape(3, 8, 1), flat[_N_ROWS:].reshape(3, 1, n + 1), p.tol
        )
        # eq[row][m]: the row's value equals its level value at m
        self.eq: list[list[bool]] = eq.reshape(_N_ROWS, n + 1).tolist()
        # per row, the m < n where it is not clearly apart from its level
        # value; product_close: where some signed product is not
        self.close: list = [()] * _N_ROWS
        self.product_close: list[int] = []
        if not apart[..., :n].all():
            close = ~apart.reshape(_N_ROWS, n + 1)[:, :n]
            # t^2 is compared with -q^m from m = 1 on
            close[_N_PRODUCTS::2, :1] = False
            self.close = [c.nonzero()[0].tolist() for c in close]
            self.product_close = close[:_N_PRODUCTS].any(axis=0).nonzero()[0].tolist()


def sigma_membership(
    p: Params, k: RootKind, table: _StratumConditions | None = None
) -> StratumVerdict:
    """Evaluate the stratum conditions of a real strict root kind.

    Equalities must hold within p.tol.eq_tol; inequalities must be
    violated by the full margin (1e3 * eq_tol) to count as satisfied,
    keeping the verdict well separated from boundary noise.  ``table``,
    of horizon at least k.n, shares the comparisons between calls on the
    same point; without one, the call builds a table of horizon k.n.
    """
    if isinstance(k, Imaginary):
        raise ImaginaryKindError("imaginary kinds have no stratum")
    c = table if table is not None else _StratumConditions(p, k.n)
    n = k.n
    failed: list[str] = []

    if isinstance(k, Type2):
        signs = k.signs
        if not c.eq[_ROW[signs]][n]:
            failed.append(f"eq.product.{n}")
        for name, row in _LEG_ROWS[signs]:
            for m in c.close[row]:
                if m < n:
                    failed.append(f"neq.{name}.m{m}")
        return StratumVerdict(not failed, failed)

    g, s = one_leg(k)
    if not c.eq[_ROW[g.t, s]][n]:
        failed.append(f"eq.{g.t}.n")
    # the product inequality is required for every sign assignment
    for m in c.product_close:
        if m < n:
            failed.append(f"neq.product.m{m}")
    return StratumVerdict(not failed, failed)


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
        if not any(c.close) and all(
            clearly_neq(c.values[_ROW[nm, 1]], c.neg_q_powers[0], tol) for nm in _T_NAMES
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
            g, s = one_leg(kind)
            vals = {g.t: branch**s}
            for nm in _T_NAMES:
                vals.setdefault(nm, random_unit(rng))
            p = Params(q_half=qh, tol=tol, **vals)
        try:
            validate_params(p)
        except ValueError:
            continue
        if sigma_membership(p, kind).member:
            return p
    raise RuntimeError(f"failed to sample parameters on stratum of {kind}")

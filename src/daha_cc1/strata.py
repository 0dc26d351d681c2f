"""Stratum predicates over parameter space.

A real strict root alpha carries a locally closed stratum: one q-power
equality plus finitely many inequalities.  Parameters admit the
irreducible of dimension vector alpha exactly when they lie on the
stratum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import groupby, product
from operator import attrgetter
from typing import Iterator, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    GENERATORS,
    Generator,
    Params,
    Tolerance,
    compare_points,
    overflow_errors,
    # unused here, kept importable: the benchmark's tracer wraps it
    validate_params,  # noqa: F401
    validation_errors,
)
from .roots import (
    RootKind,
    RootVector,
    Type1E,
    Type1F,
    Type2,
    enumerate_strict_roots,
)


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
_N_PRODUCTS, _N_ROWS = len(_SIGN_CHOICES), len(_ROW_KEYS)

# The stratum rule, one entry per kind row, the row of the kind's
# equality (a type-2 kind's signed product, a one-leg kind's t^(2s)):
# the equality's name, where %d takes the level and %.0s drops it; the
# inequality groups as (name, rows), a group failing at a level m below
# the kind's where one of its rows is not clearly apart from its level
# value at m; and the kind's first level.  A type-2 kind reads its four
# t^(2s) rows, one group each, and a one-leg kind the 16 signed products.
_RULE = (
    *(("eq.product.%d", tuple((name, (_ROW[name, s],)) for name, s in zip(_T_NAMES, signs)), 0)
      for signs in _SIGN_CHOICES),
    *((f"eq.{name}.n%.0s", (("product", tuple(range(_N_PRODUCTS))),), 1)
      for name, _ in _ROW_KEYS[_N_PRODUCTS:]),
)
# the level from which each row is compared, as a column: t^2 with -q^m
# from m = 1 on
_FROM = np.array([[0]] * _N_PRODUCTS + [[(1 + s) // 2] for _, s in _ROW_KEYS[_N_PRODUCTS:]])
# for the member mask: whether each kind row has a kind at level 0 (its
# first level is 0 or 1), and _NEEDS[kind row, row] = 1 where one of the
# kind's groups reads the row, as floats so that a product with it goes
# through BLAS
_AT_0 = np.array([first == 0 for *_, first in _RULE])
_NEEDS = np.array([[any(row in rows for _, rows in groups) for row in range(_N_ROWS)]
                   for _, groups, _ in _RULE], dtype=float)


def _point_values(p: Params, n: int) -> list[complex]:
    """Point p's 24 row values, then its level values of the three row
    groups (products, products, t^(2s)), as the per-kind Python
    expressions."""
    q, qh = p.q, p.q_half
    product_rhs = [qh ** (-1 - 2 * m) for m in range(n + 1)]
    neg_q_powers = [-(q**m) for m in range(n + 1)]
    values = _signed_products(p) + [
        getattr(p, name) ** (2 * s) for name, s in _ROW_KEYS[_N_PRODUCTS:]
    ]
    return values + 2 * product_rhs + neg_q_powers


class _Table:
    """The stratum comparisons of some points up to level n; the points
    share one tolerance.

    Every stratum condition compares a row value, a signed product or
    t^(2s), with its level value at some m: q_half^(-1-2m) or -q^m.  The
    values are the per-kind Python expressions, point by point, and the
    P x 24 x (n+1) grid is compared in one pass of ``compare_points``,
    which gives approx_eq's and clearly_neq's bits: verdicts read from it
    are the per-kind ones, whatever the other points.  values[i],
    product_rhs[i] and neg_q_powers[i] are point i's row and level values;
    eq[i, row, m]: the row's value equals its level value at m; apart[i,
    row, m]: it is clearly apart from it.  errors[i] refuses point i:
    validate_params's exception, else the one its values raised
    (OverflowError or ZeroDivisionError from **), else abs()'s
    OverflowError where their comparison marks the point over; or None.
    A refused point's values are NaN, so none of its verdicts holds.
    """

    def __init__(self, points: Sequence[Params], n: int):
        self.errors = validation_errors(points)
        nan = [complex("nan")] * (_N_ROWS + 3 * (n + 1))
        rows = []
        for i, p in enumerate(points):
            try:
                rows.append(nan if self.errors[i] is not None else _point_values(p, n))
            except (OverflowError, ZeroDivisionError) as exc:
                self.errors[i] = exc
                rows.append(nan)
        flat = np.array(rows, dtype=complex)
        self.values, levels = flat[:, :_N_ROWS], flat[:, _N_ROWS:]
        self.product_rhs, self.neg_q_powers = levels[:, : n + 1], levels[:, 2 * (n + 1) :]
        # the rows as three groups of 8 (products, products, t^(2s)),
        # broadcast against the level row of each group
        eq, apart, over = compare_points(
            self.values.reshape(-1, 3, 8, 1), levels.reshape(-1, 3, 1, n + 1), points[0].tol
        )
        self.errors = overflow_errors(self.errors, over)
        self.eq, self.apart = eq.reshape(-1, _N_ROWS, n + 1), apart.reshape(-1, _N_ROWS, n + 1)

    def close(self) -> np.ndarray:
        """close[i, row, m], m < n: the row is compared at m and not
        clearly apart from its level value there."""
        n = self.apart.shape[2] - 1
        return ~self.apart[:, :, :n] & (np.arange(n) >= _FROM)

    @cached_property
    def verdicts(self) -> tuple[list, list]:
        """The rule read for sigma_membership at a one-point table's
        point: eq as lists and, per kind row, its failed inequalities as
        (level, name) in the rule's order.  Raises the point's error."""
        if self.errors[0] is not None:
            raise self.errors[0]
        failing: list = [()] * _N_ROWS
        if not self.apart[0, :, :-1].all():
            # per row, the levels where it is close
            levels: list = [[] for _ in range(_N_ROWS)]
            for row, m in zip(*(a.tolist() for a in self.close()[0].nonzero())):
                levels[row].append(m)
            failing = [[(m, f"neq.{name}.m{m}") for name, rows in groups
                        for m in sorted({m for r in rows for m in levels[r]})]
                       for _, groups, _ in _RULE]
        return self.eq[0].tolist(), failing


def sigma_membership(p: Params, k: RootKind, table: _Table | None = None) -> StratumVerdict:
    """Evaluate the stratum conditions of a real strict root kind.

    Equalities must hold within p.tol.eq_tol; inequalities must be
    violated by the full margin (1e3 * eq_tol) to count as satisfied,
    keeping the verdict well separated from boundary noise.  ``table``,
    of horizon at least k.n, shares the comparisons between calls on the
    same point; without one, the call builds a table of horizon k.n.  A
    point that validate_params refuses raises its exception, as classify
    does; a kind names a root, since it is checked when it is made.
    """
    row, n = _kind_row(k), k.n
    eq_name = _RULE[row][0]
    eq, failing = (table if table is not None else _Table([p], n)).verdicts
    failed = [] if eq[row][n] else [eq_name % n]
    for m, name in failing[row]:
        if m < n:
            failed.append(name)
    return StratumVerdict(not failed, failed)


def stratum_verdicts(
    p: Params, n_max: int
) -> Iterator[tuple[RootKind, RootVector, StratumVerdict]]:
    """The verdict of every real strict root up to level n_max, in
    enumeration order; the kinds share one table of the point's
    stratum quantities."""
    table = _Table([p], n_max)
    for kind, vec in enumerate_strict_roots(n_max):
        yield kind, vec, sigma_membership(p, kind, table)


def _kind_row(k: RootKind) -> int:
    if isinstance(k, Type2):
        return _ROW[k.signs]
    g, s = one_leg(k)
    return _ROW[g.t, s]


@lru_cache(maxsize=32)
def _grid_roots(n_max: int) -> tuple:
    """The (kind, vec) of every real strict root up to level n_max at
    its cell m * 24 + row of the table's grid, None where no kind lies.
    Cells ascend as enumerate_strict_roots runs: by level, then in row
    order, the 16 type-2 sign vectors and then the 8 one-leg kinds."""
    cells: list = [None] * (_N_ROWS * (n_max + 1))
    for kind, vec in enumerate_strict_roots(n_max):
        cells[kind.n * _N_ROWS + _kind_row(kind)] = (kind, vec)
    return tuple(cells)


# points per comparison pass of classify_points: at n_max 20 a block
# peaks at about 18 KiB per point (tracemalloc)
_BLOCK = 64


def classify_points(
    points: Sequence[Params], n_max: int
) -> list[list[tuple[RootKind, RootVector]] | Exception]:
    """classify_params at each of points: its hits, or the exception it
    raises there.

    Cuts the points into blocks of up to _BLOCK consecutive points that
    share a tolerance, and reads each block's member mask off one table
    pass with the rule's arrays: a kind row is a member at level m, from
    its first level on, when it equals its level value there and every
    row its groups read is clearly apart at each level below m where it
    is compared.  These are sigma_membership's verdicts, every kind of
    every point at once.  A point's outcome is its own: the exception
    its table holds for it (validate_params's first), else its hits.
    """
    outcomes: list = []
    for _, run in groupby(points, key=attrgetter("tol")):
        run = list(run)
        for lo in range(0, len(run), _BLOCK):
            outcomes += _classify_block(run[lo : lo + _BLOCK], n_max)
    return outcomes


def _classify_block(points: list[Params], n_max: int) -> list:
    t = _Table(points, n_max)
    member = t.eq.copy()
    member[:, :, 0] &= _AT_0
    hits: list = [[] for _ in points]
    if member.any():
        if not t.apart[:, :, :-1].all():
            # blocked[i, row, m]: the row is close at some level below m
            blocked = np.zeros_like(member)
            np.logical_or.accumulate(t.close(), axis=2, out=blocked[:, :, 1:])
            member &= (_NEEDS @ blocked) == 0
        cells = _grid_roots(n_max)
        # by point, then by level and row: enumeration order
        for i, m, row in zip(*(a.tolist() for a in member.transpose(0, 2, 1).nonzero())):
            hits[i].append(cells[m * _N_ROWS + row])
    return [found if error is None else error for error, found in zip(t.errors, hits)]


def classify_params(p: Params, n_max: int) -> list[tuple[RootKind, RootVector]]:
    """All strict real roots up to level n_max whose stratum contains p,
    in enumeration order: classify_points's block of the one point,
    raising its exception."""
    (outcome,) = _classify_block([p], n_max)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def verdict_to_json(v: StratumVerdict) -> dict:
    return {"member": v.member, "failed": list(v.failed_conditions)}


# -- stratum parameter samplers ------------------------------------------


def random_unit(rng: np.random.Generator) -> complex:
    mod = float(np.exp(rng.normal(0.0, 0.35)))
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
        # every row clearly apart at every level, t^2 from -q^0 too
        if _Table([p], 6).apart.all():
            return p
    raise RuntimeError("failed to sample generic parameters")


def sample_stratum_params(
    kind: RootKind, rng: np.random.Generator, tol: Tolerance = DEFAULT_TOL
) -> Params:
    """Random parameters on the stratum of the given real kind.

    The stratum equality is solved exactly for one parameter; draws that
    land within the margin band of any inequality are rejected.
    """
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
            if sigma_membership(p, kind).member:
                return p
        except ValueError:
            continue
    raise RuntimeError(f"failed to sample parameters on stratum of {kind}")

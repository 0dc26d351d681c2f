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
    guard_errors,
    guard_operands,
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
    failed_conditions: list[str] = field(default_factory=list)

    @property
    def member(self) -> bool:
        return not self.failed_conditions


_SIGN_CHOICES = tuple(product((1, -1), repeat=4))
# the four Hecke parameters in the order of Type2.signs
_T_NAMES = tuple(g.t for g in GENERATORS)


def one_leg(k: Type1E | Type1F) -> tuple[Generator, int]:
    """The generator whose leg a one-leg kind moves, and the sign it
    moves it by: e_i is the leg of T_i, f_i that of T_iv."""
    if isinstance(k, Type1E):
        return GENERATORS[k.i], k.eps
    return GENERATORS[2 + k.i], k.delta


# the table's rows: the 16 signed products, keyed by their signs, then
# t^(2s), keyed by (name of t, s)
_ROW_KEYS = (*_SIGN_CHOICES, *((name, s) for name in _T_NAMES for s in (1, -1)))
_ROW = {key: row for row, key in enumerate(_ROW_KEYS)}
_N_PRODUCTS, _N_ROWS = len(_SIGN_CHOICES), len(_ROW_KEYS)

# A kind row is the row of the kind's equality: a type-2 kind's signed
# product, a one-leg kind's t^(2s).  Each kind row's equality name, where
# %d takes the level and %.0s drops it, and each row's group, which names
# a failed inequality on the row at level m as neq.{group}.m{m}
_EQ_NAMES = (*["eq.product.%d"] * _N_PRODUCTS,
             *(f"eq.{name}.n%.0s" for name, _ in _ROW_KEYS[_N_PRODUCTS:]))
_GROUPS = (*["product"] * _N_PRODUCTS, *(name for name, _ in _ROW_KEYS[_N_PRODUCTS:]))

# What the stratum rule says, row by row, for _Rule to spread over the
# cells: _ROW_READS[kind row, row] where the kind reads the row (a type-2
# kind the t^(2s) row of each of its four signs, a one-leg kind the 16
# signed products), each kind row's first level, and the level from
# which each row is compared: t^2 with -q^m from m = 1 on
_ROW_READS = np.array([[key in reads for key in _ROW_KEYS] for reads in (
    *(set(zip(_T_NAMES, signs)) for signs in _SIGN_CHOICES),
    *[set(_SIGN_CHOICES)] * (_N_ROWS - _N_PRODUCTS))])
_FIRST = np.array([0] * _N_PRODUCTS + [1] * (_N_ROWS - _N_PRODUCTS))
_FROM = np.array([0] * _N_PRODUCTS + [(1 + s) // 2 for _, s in _ROW_KEYS[_N_PRODUCTS:]])
# the least horizon of the kept rule, the CLI's n_max cap: readers ask
# for max(their horizon, _HORIZON) and read its top-left block
_HORIZON = 20


class _Rule:
    """The stratum rule over the cells of horizon n, the only thing its
    readers consult.  Cell m * 24 + row is the table's row at level m.
    reads[a, b]: the kind at cell a fails unless cell b is clearly apart
    from its level value; kinds[a]: cell a holds a kind; roots[a]: its
    (kind, vec), else None, made on first use (a one-kind verdict needs
    only reads).  A kind reads only levels below its own, so horizon
    n' < n is the top-left 24(n' + 1) block."""

    def __init__(self, n: int):
        level = np.arange(n + 1)
        kinds = level[:, None] >= _FIRST
        # [kind level, kind row, level, row]
        reads = (kinds[:, :, None, None] & _ROW_READS[:, None, :]
                 & (level[:, None] > level)[:, None, :, None] & (level[:, None] >= _FROM))
        self.n, self.reads, self.kinds = n, reads.reshape(kinds.size, -1), kinds.reshape(-1)
        self.reads.flags.writeable = self.kinds.flags.writeable = False

    @cached_property
    def roots(self) -> tuple:
        found = {k.n * _N_ROWS + _kind_row(k): (k, v) for k, v in enumerate_strict_roots(self.n)}
        return tuple(map(found.get, range(self.kinds.size)))


_rule = lru_cache(maxsize=1)(_Rule)


# the one refusal of a valid point whose values are not all finite.  A
# value that underflows to 0 shows as an overflow in its partner: a
# signed product in the one of opposite signs, t^2 in t^-2, and -q^m
# (|q| < 1) in q_half^(-1-2m).  A q_half^(-1-2m) that underflows is
# clearly apart from every row value, which its partner bounds below, as
# its exact value is
_OUT_OF_RANGE = "stratum values leave the float range"


@np.errstate(all="ignore")
def _values(x: np.ndarray, n: int) -> np.ndarray:
    """The stratum values of the points whose (k0, k1, u0, u1, q_half)
    are the rows of x, a row per point: its 24 row values (the signed
    products, then t^(2s)), then its level values of the three row
    groups (products, products, t^(2s)) at m = 0..n: q_half^(-1-2m),
    again, and -q^m.  Each t's two signed factors t and -1/t are
    multiplied out over the four sign axes (eps0, eps1, del0, del1), in
    _SIGN_CHOICES order, and squared; the level values are accumulated
    powers, of 1/q_half then 1/q_half^2, and of -1 then q.  Each step is
    elementwise or along a point's own row, so a point's values are the
    same bits in any block."""
    points = len(x)
    out = np.empty((points, _N_ROWS + 3 * (n + 1)), dtype=complex)
    # factors[:, 0]: k0, k1, u0, u1, q_half; factors[:, 1]: -1 over each
    factors = np.empty((points, 2, 5), dtype=complex)
    factors[:, 0] = x
    np.divide(-1.0, x, out=factors[:, 1])
    heads = ((factors[:, :, 0, None] * factors[:, None, :, 1])[..., None]
             * factors[:, None, None, :, 2])
    np.multiply(heads[..., None], factors[:, None, None, None, :, 3],
                out=out[:, :_N_PRODUCTS].reshape(points, 2, 2, 2, 2))
    # squares[:, 0]: t^2 and q; squares[:, 1]: t^-2 and 1/q_half^2
    squares = factors * factors
    out[:, _N_PRODUCTS:_N_ROWS].reshape(points, 4, 2)[...] = squares[:, :, :4].transpose(0, 2, 1)
    steps = np.empty((points, 2, n + 1), dtype=complex)
    steps[:, :, 1:] = squares[:, ::-1, 4, None]
    np.divide(1.0, x[:, 4], out=steps[:, 0, 0])
    steps[:, 1, 0] = -1.0
    levels = out[:, _N_ROWS:].reshape(points, 3, n + 1)
    np.multiply.accumulate(steps, axis=2, out=levels[:, ::2])
    levels[:, 1] = levels[:, 0]
    return out


class _Table:
    """The stratum comparisons of some points up to level n; the points
    share one tolerance.

    Every stratum condition compares a row value, a signed product or
    t^(2s), with its level value at some m: q_half^(-1-2m) or -q^m.
    eq_cells[i, m * 24 + row]: point i's row value equals its level value
    at m, as approx_eq decides it on the point's values (_values), and
    apart_cells[i, m * 24 + row]: it is clearly apart from it, as
    clearly_neq decides it, all in one compare_points pass.  errors[i]
    refuses point i: validate_params's exception, else the stated
    OverflowError where its values are not all finite, else abs()'s
    OverflowError where their comparison marks the point over; or None.
    None of a refused point's verdicts holds; a point that
    validate_params refuses takes the values of (1, 1, 1, 1, 1), never
    read.  A point's values and verdicts are its own, whatever the other
    points.
    """

    def __init__(self, points: Sequence[Params], n: int):
        self.n, errors = n, validation_errors(points)
        values = _values(np.array([(p.k0, p.k1, p.u0, p.u1, p.q_half) if e is None else (1,) * 5
                                   for p, e in zip(points, errors)], dtype=complex), n)
        finite = np.isfinite(values).all(axis=1).tolist()
        # each level's value of each row group (products, products,
        # t^(2s)), 8 wide, against the 24 rows: cell order, over contiguous
        # memory, where the filter runs the faster
        levels = np.repeat(values[:, _N_ROWS:].reshape(-1, 3, n + 1).transpose(0, 2, 1), 8, axis=2)
        eq, apart, over = compare_points(values[:, None, :_N_ROWS], levels, points[0].tol)
        self.errors = overflow_errors([OverflowError(_OUT_OF_RANGE) if e is None and not f else e
                                       for e, f in zip(errors, finite)], over)
        held = np.array([[e is None] for e in self.errors])
        self.eq_cells, self.apart_cells = (v.reshape(len(points), -1) & held for v in (eq, apart))

    @cached_property
    def verdicts(self) -> tuple[list, list]:
        """What sigma_membership reads at a one-point table's point: eq
        per cell, and the close cells (not clearly apart) below the top
        level, since a kind reads only levels below its own.  Raises the
        point's error."""
        if self.errors[0] is not None:
            raise self.errors[0]
        close = np.flatnonzero(~self.apart_cells[0, : self.n * _N_ROWS])
        return self.eq_cells[0].tolist(), close.tolist()


# room for every kind and every horizon up to the CLI's n_max cap
@lru_cache(maxsize=1024)
def _cell_operands(row: int | None, n: int) -> np.ndarray:
    """The cells a _KindTable compares: the equality cell of the kind row
    at level n, then the cells its row of the rule reads, or every cell
    to level n when row is None; then each cell's row value and level
    value, as indices into a row of _values(x, n).  One read-only array of
    those three rows, of the least unsigned type that holds them, keeps
    the cache of every kind small."""
    if row is None:
        cells = np.arange((n + 1) * _N_ROWS)
    else:
        cell = n * _N_ROWS + row
        cells = np.concatenate(([cell], np.flatnonzero(_rule(max(n, _HORIZON)).reads[cell])))
    level, rows = np.divmod(cells, _N_ROWS)
    out = np.array((cells, rows, _N_ROWS + rows // 8 * (n + 1) + level),
                   dtype=np.min_scalar_type((n + 2) * _N_ROWS))
    out.flags.writeable = False
    return out


class _KindTable:
    """A one-point table of p at horizon k.n that compares only the kind
    k's cells (_cell_operands), with the same verdicts and refusal,
    errors[0], as a _Table: a cell it does not compare reads not equal
    and clearly apart.  Its values are _values's row of p: where they
    are not all finite it refuses as the table does, and a modulus can
    overflow only where a value has a part of 2^1021 or more, so then it
    compares every cell.

    One compare_points pass makes validate_params's root-of-unity guard
    (unless p is known to be valid, or the guard's closed form clears
    it), the kind's cells (none without a kind) and checks, (a, b) pairs
    of 1-D arrays: each is a row, padded with 1 against 1, so an overflow
    marks only its own row, and checks[i] is check i's (eq, apart,
    over).  With no row to compare, it makes no pass."""

    def __init__(self, p: Params, k: RootKind | None, checks=(), valid: bool = False):
        row = None if k is None else _kind_row(k)
        self.n, self.cells, held = 0 if k is None else k.n, None, None
        self.errors, guard_at, powers, finite = (
            ([None], [], None, None) if valid else guard_operands([p]))
        rows = [(powers[0], 1.0)] if guard_at else []
        kind_at = len(rows)
        if k is not None and self.errors[0] is None:
            (values,) = _values(np.array([[p.k0, p.k1, p.u0, p.u1, p.q_half]], dtype=complex),
                                self.n)
            top = np.abs(values.view(float)).max()
            if not top < np.inf:
                held = OverflowError(_OUT_OF_RANGE)
            else:
                self.cells, at, level_at = _cell_operands(None if top >= 2.0**1021 else row, self.n)
                rows.append((values[at], values[level_at]))
        first = len(rows)
        rows += checks
        if rows:
            a, b = pad = np.empty((2, len(rows), max(len(x) for x, _ in rows)), dtype=complex)
            pad.fill(1.0)
            for i, (x, y) in enumerate(rows):
                a[i, : len(x)], b[i, : len(x)] = x, y
            eq, apart, over = compare_points(a, b, p.tol)
        if guard_at:
            self.errors = guard_errors(self.errors, guard_at, eq[:1, : powers.shape[1]], finite,
                                       over[:1])
        if self.cells is not None:
            self.errors = overflow_errors(self.errors, over[kind_at : kind_at + 1])
            self.cell_eq, self.cell_apart = (v[kind_at, : self.cells.size] for v in (eq, apart))
        if self.errors[0] is None:
            self.errors[0] = held
        self.checks = [(eq[i, : len(x)], apart[i, : len(x)], bool(over[i]))
                       for i, (x, _) in enumerate(checks, first)]

    @cached_property
    def verdicts(self) -> tuple[list, list]:
        """_Table.verdicts, off the compared cells: a cell that is not
        compared reads not equal and clearly apart."""
        if self.errors[0] is not None:
            raise self.errors[0]
        eq = [False] * ((self.n + 1) * _N_ROWS)
        for cell in self.cells[self.cell_eq].tolist():
            eq[cell] = True
        close = ~self.cell_apart & (self.cells < self.n * _N_ROWS)
        return eq, self.cells[close].tolist()


def sigma_membership(
    p: Params, k: RootKind, table: _Table | _KindTable | None = None, valid: bool = False
) -> StratumVerdict:
    """Evaluate the stratum conditions of a real strict root kind.

    Equalities must hold within p.tol.eq_tol; inequalities must be
    violated by the full margin (1e3 * eq_tol) to count as satisfied,
    keeping the verdict well separated from boundary noise.  ``table``,
    of horizon at least k.n, shares the comparisons between calls on the
    same point; without one, the call makes the _KindTable of k, which
    compares only the kind's cells, and valid skips its root-of-unity
    guard.  A point that validate_params refuses raises its exception, as
    classify does; a kind names a root, since it is checked when it is
    made.  The failed conditions are the equality's, then, sorted and
    unique by (group, level), those of the close cells that the kind's
    row of the rule reads.
    """
    row, n = _kind_row(k), k.n
    t = table if table is not None else _KindTable(p, k, valid=valid)
    eq, close = t.verdicts
    cell = n * _N_ROWS + row
    failed = [] if eq[cell] else [_EQ_NAMES[row] % n]
    if close:
        reads = _rule(max(t.n, _HORIZON)).reads[cell]
        conditions = {(_GROUPS[b % _N_ROWS], b // _N_ROWS) for b in close if reads[b]}
        failed += [f"neq.{group}.m{m}" for group, m in sorted(conditions)]
    return StratumVerdict(failed)


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


# points per comparison pass of classify_points: at n_max 20 a block
# peaks at about 18 KiB per point (tracemalloc)
_BLOCK = 64


def classify_points(
    points: Sequence[Params], n_max: int
) -> list[list[tuple[RootKind, RootVector]] | Exception]:
    """classify_params at each of points: its hits, or the exception it
    raises there.

    Cuts the points into blocks of up to _BLOCK consecutive points that
    share a tolerance, and reads each block's hits off one table pass:
    a hit is a cell that holds a kind and whose equality holds, where no
    cell that its row of the rule reads is close (not clearly apart).
    These are sigma_membership's verdicts, every kind of every point at
    once.  A point's outcome is its own: the exception its table holds
    for it (validate_params's first), else its hits.
    """
    outcomes: list = []
    for _, run in groupby(points, key=attrgetter("tol")):
        run = list(run)
        for lo in range(0, len(run), _BLOCK):
            outcomes += _classify_block(run[lo : lo + _BLOCK], n_max)
    return outcomes


def _classify_block(points: list[Params], n_max: int) -> list:
    t, rule = _Table(points, n_max), _rule(max(n_max, _HORIZON))
    cells = t.eq_cells.shape[1]
    # the candidates, by point, then by cell: enumeration order
    at, kind_cells = (t.eq_cells & rule.kinds[:cells]).nonzero()
    held = ~(rule.reads[kind_cells, :cells] & ~t.apart_cells[at]).any(axis=1)
    hits: list = [[] for _ in points]
    for i, a in zip(at[held].tolist(), kind_cells[held].tolist()):
        hits[i].append(rule.roots[a])
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
        if _Table([p], 6).apart_cells.all():
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

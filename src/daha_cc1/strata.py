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
    _filter,
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
    order: the same left-to-right products, sharing their prefixes."""
    (k0, k0_), (k1, k1_), (u0, u0_), (u1, u1_) = (
        (x**1, x**-1) for x in (p.k0, p.k1, p.u0, p.u1))
    # eps1 k1^eps1 * eps0 k0^eps0, then * del1 u1^del1 * del0 u0^del0
    k1p, k1m = 1 * k1, -1 * k1_
    out = []
    for head in (k1p * 1 * k0, k1m * 1 * k0, k1p * -1 * k0_, k1m * -1 * k0_):
        u1p, u1m = head * 1 * u1, head * -1 * u1_
        out += (u1p * 1 * u0, u1m * 1 * u0, u1p * -1 * u0_, u1m * -1 * u0_)
    return out


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


def _point_values(p: Params, n: int) -> list[complex]:
    """Point p's 24 row values, then its level values of the three row
    groups (products, products, t^(2s)), as the per-kind Python
    expressions, in the order q_half^(-1-2m), -(q^m), the signed
    products, t^(2s)."""
    qh, q = p.q_half, p.q
    product_rhs = [qh ** (-1 - 2 * m) for m in range(n + 1)]
    neg_q_powers = [-(q**m) for m in range(n + 1)]
    values = _signed_products(p)
    values += (p.k0**2, p.k0**-2, p.k1**2, p.k1**-2, p.u0**2, p.u0**-2, p.u1**2, p.u1**-2)
    return values + product_rhs + product_rhs + neg_q_powers


# the points per table from which _Table makes its values with numpy.
# Timed on bench scan points, a table took (exact path against numpy
# values, us) at level 0: 49 against 83 for 1 point, 79 against 90 for
# 4, 103 against 105 for 6, 120 against 106 for 8; at level 6: 57
# against 89, 98 against 103, 127 against 118, 155 against 128; at
# level 20: 67 against 92, 134 against 112, 184 against 133, 225
# against 147.  From 8 points numpy is the faster at every level
NUMPY_MIN = 8
# the filter's slack for numpy's values, in units of the ratio
# |a - b| / max(|a|, |b|).  Inside the range guard below, every value of
# both computations is a chain of complex products and quotients with no
# overflow, underflow or subnormal modulus, each within a few ulps of
# exact in modulus (a product within sqrt(5), a quotient within about
# 4).  The longest chains are the level values at n = 20: numpy's
# q_half^(-41) is 1/q_half times 20 powers of 1/q_half^2, about 41 * 4 +
# 40 * 2.3, or 260 ulps off exact; Python's c_powu squaring chain and
# _Py_c_quot about 100; the products, t^(2s) and -q^m fewer.  So a
# numpy value is within about 360 ulps (8e-14) of its Python value in
# modulus, relative, and the ratio, at most 2, moves by at most about 4
# times that (3e-13): the slack leaves a factor 30
SLACK = 1e-11
# the range guard: a point takes numpy's values only when 4 |log2 |t||
# for each t of k0, k1, u0, u1, and (2n + 2) |log2 |q_half||, are below
# this.  Every value and partial product of both computations (a signed
# product's factors, c_powu's powers of q_half up to q_half^(2n+1) and
# of q up to q^n, numpy's accumulated powers) then has a modulus between
# 2^-900 and 2^900, so none overflows, underflows or is subnormal, and
# Python's ** raises nowhere.  Only the levels up to _HORIZON are so
# derived: a deeper table takes the exact path, as do Python's powers
# past 100, which leave c_powu
_RANGE_LOG2 = 900.0


@lru_cache(maxsize=32)
def _range_bounds(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The open range of |k0|, |k1|, |u0|, |u1|, |q_half| of the guard."""
    hi = np.exp2(_RANGE_LOG2 / np.array([4.0] * 4 + [2.0 * n + 2.0]))
    return 1 / hi, hi


def _numpy_cells(x: np.ndarray, n: int, tol: Tolerance) -> tuple[np.ndarray, ...]:
    """eq and apart of every cell of the points whose (k0, k1, u0, u1,
    q_half) are the rows of x, from numpy's values and the filter with
    SLACK, and unsure: the points where a cell may differ from the exact
    pass on the Python values.  The level values are accumulated powers,
    q_half^(-1-2m) from 1/q_half and 1/q_half^2 and -q^m from -1 and q."""
    points = len(x)
    # each t's two signed factors s t^s, multiplied out over the four
    # sign axes (eps0, eps1, del0, del1): _SIGN_CHOICES order; then their
    # squares, t^2 and t^-2 for each t in turn
    factors = np.empty((points, 4, 2), dtype=complex)
    factors[..., 0] = x[:, :4]
    np.divide(-1.0, x[:, :4], out=factors[..., 1])
    k0, k1, u0, u1 = factors.transpose(1, 0, 2)
    heads = (k0[:, :, None] * k1[:, None, :])[..., None] * u0[:, None, None, :]
    rows = np.concatenate(((heads[..., None] * u1[:, None, None, None, :]).reshape(points, -1),
                           (factors * factors).reshape(points, -1)), axis=1)
    qh = x[:, 4]
    inv_qh = 1 / qh
    steps = np.empty((points, n + 1, 2), dtype=complex)
    steps[:, 0, 0], steps[:, 0, 1] = inv_qh, -1.0
    steps[:, 1:, 0], steps[:, 1:, 1] = (inv_qh * inv_qh)[:, None], (qh * qh)[:, None]
    # the level values 24 wide, one per cell in cell order, so that the
    # filter's broadcasts run over contiguous memory
    levels = np.repeat(np.multiply.accumulate(steps, axis=1), (_N_PRODUCTS, _N_ROWS - _N_PRODUCTS),
                       axis=2)
    eq, apart, unsure = _filter(rows[:, None, :], levels, tol, SLACK)
    return (eq.reshape(points, -1), apart.reshape(points, -1),
            unsure.reshape(points, -1).any(axis=1))


def _exact_cells(points: Sequence[Params], errors: list, n: int,
                 tol: Tolerance) -> tuple[np.ndarray, np.ndarray, list]:
    """eq and apart of every cell of points from their Python values
    (_point_values) in one compare_points pass, and errors: the points'
    errors so far, then the exception a point's values raise, then abs()'s
    OverflowError where the pass marks a point over.  A point with an
    error has NaN values, so none of its verdicts holds."""
    nan = [complex("nan")] * (_N_ROWS + 3 * (n + 1))
    rows = []
    for i, p in enumerate(points):
        try:
            rows.append(nan if errors[i] is not None else _point_values(p, n))
        except (OverflowError, ZeroDivisionError) as exc:
            errors[i] = exc
            rows.append(nan)
    flat = np.array(rows, dtype=complex)
    # the rows as three groups of 8 (products, products, t^(2s)),
    # broadcast against each level's value of each group: cell order
    by_level = flat[:, _N_ROWS:].reshape(-1, 3, n + 1).transpose(0, 2, 1).copy()
    eq, apart, over = compare_points(flat[:, :_N_ROWS].reshape(-1, 1, 3, 8),
                                     by_level[..., None], tol)
    return eq.reshape(len(rows), -1), apart.reshape(len(rows), -1), overflow_errors(errors, over)


class _Table:
    """The stratum comparisons of some points up to level n; the points
    share one tolerance.

    Every stratum condition compares a row value, a signed product or
    t^(2s), with its level value at some m: q_half^(-1-2m) or -q^m.
    eq_cells[i, m * 24 + row]: point i's row value equals its level value
    at m, as approx_eq decides it on the per-kind Python expressions
    (_point_values); apart_cells[i, m * 24 + row]: it is clearly apart
    from it, as clearly_neq decides it.  errors[i] refuses point i:
    validate_params's exception, else the one its values raised
    (OverflowError or ZeroDivisionError from **), else abs()'s
    OverflowError where their comparison marks the point over; or None.
    None of a refused point's verdicts holds.

    A table of at least NUMPY_MIN points up to level _HORIZON reads the
    verdicts of each valid point inside the range guard off numpy's
    values (_numpy_cells): their ratios are within SLACK of the Python
    values', so a cell that the widened filter decides is decided as the
    exact pass decides it.  Every other point takes the exact path
    (_exact_cells): a point with a cell the filter cannot decide, one
    outside the range guard, and every point of a smaller or deeper
    table; a point that validate_params refuses computes nothing.  So
    whatever the other points, a point's verdicts and error are its own.
    """

    def __init__(self, points: Sequence[Params], n: int):
        self.n, self.errors, tol = n, validation_errors(points), points[0].tol
        if len(points) < NUMPY_MIN or n > _HORIZON:
            self.eq_cells, self.apart_cells, self.errors = _exact_cells(points, self.errors, n, tol)
            return
        self.eq_cells, self.apart_cells = np.zeros((2, len(points), (n + 1) * _N_ROWS), dtype=bool)
        valid = [i for i, e in enumerate(self.errors) if e is None]
        x = np.array([[p.k0, p.k1, p.u0, p.u1, p.q_half] for p in map(points.__getitem__, valid)],
                     dtype=complex).reshape(-1, 5)
        lo, hi = _range_bounds(n)
        fast = np.flatnonzero(((abs_x := np.abs(x)) > lo).all(axis=1) & (abs_x < hi).all(axis=1))
        if fast.size:
            eq, apart, unsure = _numpy_cells(x[fast], n, tol)
            done = fast[~unsure]
            at = np.array(valid)[done]
            self.eq_cells[at], self.apart_cells[at] = eq[~unsure], apart[~unsure]
            valid = np.delete(valid, done).tolist()
        if valid:
            eq, apart, errors = _exact_cells([points[i] for i in valid], [None] * len(valid), n, tol)
            self.eq_cells[valid], self.apart_cells[valid] = eq, apart
            for i, error in zip(valid, errors):
                self.errors[i] = error

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
    value, as indices into _point_values(p, n).  One read-only array of
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
    and clearly apart.  A modulus can overflow only where a value has a
    part of 2^1021 or more (or NaN), so then it compares every cell.

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
            try:
                values = np.array(_point_values(p, self.n), dtype=complex)
            except (OverflowError, ZeroDivisionError) as exc:
                held = exc
            else:
                wide = not np.abs(values.view(float)).max() < 2.0**1021
                self.cells, at, level_at = _cell_operands(None if wide else row, self.n)
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

"""Scalar arithmetic, parameter validation, the shared tolerance policy,
and the table of the four generators.

All downstream modules work with ordinary ``complex`` numbers; comparisons
and rank decisions go through the :class:`Tolerance` policy defined here,
one pair at a time or elementwise over arrays, with the same bits.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field
from typing import Collection, Sequence

import numpy as np


class ZeroParameterError(ValueError):
    """One of k0, k1, u0, u1, q_half is zero."""


class RootOfUnityError(ValueError):
    """q^m = 1 within tolerance for some small positive m."""

    def __init__(self, m: int):
        self.m = m
        super().__init__(f"q^{m} = 1: q is a root of unity (order {m})")

    def __reduce__(self):
        return type(self), (self.m,)


class AmbiguousMatchError(ValueError):
    """Two exponents match the same value within tolerance."""


@dataclass(frozen=True)
class Tolerance:
    """The one comparison threshold, relative to the larger modulus of a
    pair: equalities hold within eq_tol, and inequalities must fail by at
    least ``ineq_margin`` = 1e3 * eq_tol, which keeps positive and
    negative tests well separated (see :func:`decide`).
    """

    eq_tol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.eq_tol < 1.0):
            raise ValueError("eq_tol must lie in (0, 1)")

    @property
    def ineq_margin(self) -> float:
        return 1e3 * self.eq_tol


DEFAULT_TOL = Tolerance()


# the root-of-unity guard checks q^m = 1 for m = 1..ROOTS_BOUND
ROOTS_BOUND = 64


@dataclass(frozen=True)
class Params:
    """The five nonzero parameters (k0, k1, u0, u1, q^{1/2}); q is derived
    as q_half**2."""

    k0: complex
    k1: complex
    u0: complex
    u1: complex
    q_half: complex
    tol: Tolerance = field(default=DEFAULT_TOL)

    @property
    def q(self) -> complex:
        return self.q_half * self.q_half


@dataclass(frozen=True)
class Generator:
    """One generator T, with quadratic (T - t)(T + 1/t) = 0.

    ``t`` names its Hecke parameter and ``b`` the partner parameter of its
    Demazure-Lusztig coefficient; ``involution`` is 0 for s0 (z -> q/z)
    and 1 for s1 (z -> 1/z); the root coordinate a_leg is rank(T - t);
    ``side`` is the polynomial module, P or Pbar, on which T acts directly.
    """

    name: str
    t: str
    b: str
    involution: int
    leg: int
    side: str


# in the order of Rep.generators(), Type2.signs and the legs a1..a4
GENERATORS = (
    Generator("T0", "k0", "u0", 0, 1, "P"),
    Generator("T1", "k1", "u1", 1, 2, "P"),
    Generator("T0v", "u0", "k0", 0, 3, "Pbar"),
    Generator("T1v", "u1", "k1", 1, 4, "Pbar"),
)
# the factors (A1, A2, A3, A4) = (q^{1/2} T0, T0v, T1, T1v) of the
# four-matrix product A4 A3 A1 A2 = 1
FACTORS = tuple(GENERATORS[i] for i in (0, 2, 1, 3))


def approx_eq(a: complex, b: complex, tol: Tolerance = DEFAULT_TOL) -> bool:
    """a equals b: |a - b| <= eq_tol * max(|a|, |b|)."""
    return decide(abs(a - b), max(abs(a), abs(b)), tol) is False


def clearly_neq(a: complex, b: complex, tol: Tolerance = DEFAULT_TOL) -> bool:
    """a is apart from b: |a - b| > ineq_margin * max(|a|, |b|)."""
    return decide(abs(a - b), max(abs(a), abs(b)), tol) is True


def decide(gap: float, scale: float, tol: Tolerance = DEFAULT_TOL) -> bool | None:
    """The three-way decision of a gap against its scale: True (apart)
    when gap > ineq_margin * scale, False (equal) when gap <= eq_tol *
    scale, None in the band between.  A pair's gap is |a - b| at scale
    max(|a|, |b|); a ratio already relative to its scale is the gap at 1."""
    if gap > tol.ineq_margin * scale:
        return True
    return False if gap <= tol.eq_tol * scale else None


def worst(residuals: Collection[float]) -> float:
    """The largest of some nonnegative residuals, or NaN when one is NaN:
    max() drops a NaN that is not first, and a NaN residual must fail
    every gate (as ``not residual <= bound``)."""
    total = sum(residuals)
    return total if total != total else max(residuals)


# the broadcast size from which compare_points reads its verdicts off
# numpy's absolute first.  Timed, the exact pass is the faster for a
# one-point root-of-unity guard (64 cells, which only a q the guard's
# closed form does not clear still makes), the two are about even for a
# one-point stratum table at level 6 (168), and the filter is the faster
# from 256 cells on: a level-20 table (504) or a 16-point scan block
# (8,064 cells, 122 against 255 us)
FILTER_MIN = 256
# the filter's relative band about each threshold, about 4,500 ulps
_BAND = 1e-12


@np.errstate(all="ignore")
def compare_points(a, b, tol: Tolerance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """approx_eq and clearly_neq elementwise over the broadcast arrays a
    and b, whose first axis is the point, each entry the scalar verdict
    to the bit; and over[i]: at point i a modulus overflows from finite
    parts, where abs() raises OverflowError.  The verdicts of such a
    point read False.  Below FILTER_MIN cells this is the exact pass
    (_exact); from it on, _filter reads the verdicts off numpy's
    absolute and the exact pass redoes only the cells it cannot decide."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    cells = np.broadcast(a, b)
    if cells.size < FILTER_MIN:
        return _exact(a, b, tol)
    eq, apart, unsure = _filter(a, b, tol)
    over = np.zeros(len(eq), dtype=bool)
    if unsure.any():
        # the undecided cells, each a point of its own to the exact pass
        at = unsure.nonzero()
        eq[at], apart[at], lost = _exact(np.broadcast_to(a, cells.shape)[at],
                                         np.broadcast_to(b, cells.shape)[at], tol)
        if lost.any():
            over[at[0][lost]] = True
            eq[over] = apart[over] = False
    return eq, apart, over


def _exact(a, b, tol: Tolerance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """compare_points in one pass with the scalar functions' arithmetic."""
    # a modulus is the hypot of the parts, as abs() computes it: numpy's
    # complex absolute can differ in the last bit.  a - b is not kept:
    # its memory, reused, keeps the pass fast
    gap, abs_a, abs_b = moduli = [np.hypot(z.real, z.imag) for z in (a - b, a, b)]
    # max(|a|, |b|) as max() takes it: |b| only when larger, so a NaN |a| stays
    scale = np.where(abs_b > abs_a, abs_b, abs_a)
    eq, apart = gap <= tol.eq_tol * scale, gap > tol.ineq_margin * scale
    over = np.zeros(len(eq), dtype=bool)
    # where max(|a|, |b|) < 2^1022, |a - b| < 2^1023 is finite too: only
    # a larger (or NaN) scale can go with an infinite modulus
    if not scale.max(initial=0.0) < 2.0**1022:
        for z, modulus in zip((a - b, a, b), moduli):
            lost = np.broadcast_to(np.isinf(modulus) & np.isfinite(z), eq.shape)
            over |= lost.reshape(len(eq), -1).any(axis=1)
        eq[over] = apart[over] = False
    return eq, apart, over


def _filter(a, b, tol: Tolerance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact pass's eq and apart, read off the ratio of numpy's
    absolutes |a - b| / max(|a|, |b|), and unsure: the cells where they
    may differ from it.  Those are the cells whose ratio lies within
    _BAND (relative) of eq_tol or ineq_margin or is NaN, and those whose
    scale max(|a|, |b|) is NaN, 2^1022 or more (where a modulus may
    overflow), or so small that eq_tol times it is subnormal.  Elsewhere
    each absolute is within 2 ulps of its hypot, and a threshold that is
    a normal float rounds within 1: the ratio moves by less than 10 ulps,
    far inside the band, so its side of each threshold is the exact
    pass's."""
    # a - b is freed before the scale is made, as in the exact pass
    ratio = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    ratio /= scale
    eq = ratio <= tol.eq_tol * (1 + _BAND)
    unsure = eq != (ratio <= tol.eq_tol * (1 - _BAND))
    # a NaN ratio is neither above the margin nor at most it
    apart = ratio > tol.ineq_margin * (1 - _BAND)
    unsure |= apart == (ratio <= tol.ineq_margin * (1 + _BAND))
    unsure |= (scale < 2.0**-1022 / tol.eq_tol) | (scale >= 2.0**1022)
    return eq, apart, unsure


def compare_arrays(a, b, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """approx_eq and clearly_neq elementwise over the broadcast arrays a
    and b: compare_points at one point.  Like abs(), a modulus that
    overflows from finite parts raises OverflowError."""
    eq, apart, over = compare_points(np.asarray(a)[None], np.asarray(b)[None], tol)
    if over[0]:
        raise OverflowError("absolute value too large")
    return eq[0], apart[0]


def overflow_errors(errors: list, over: np.ndarray) -> list:
    """errors, with abs()'s OverflowError in each empty slot that over
    marks."""
    return [OverflowError("absolute value too large") if o and e is None else e
            for e, o in zip(errors, over.tolist())]


def match_q_power(
    x: complex,
    q: complex,
    lo: int,
    hi: int,
    tol: Tolerance = DEFAULT_TOL,
) -> int | None:
    """The unique m in [lo, hi] with x = q^m, or None.

    Raises AmbiguousMatchError when two exponents both match, which
    signals a tolerance that is too loose or a near-root-of-unity q.
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    if lo > hi:
        raise ValueError("empty exponent range")
    matches = [m for m in range(lo, hi + 1) if approx_eq(x, q**m, tol)]
    if len(matches) > 1:
        raise AmbiguousMatchError(
            f"exponents {matches} all match {x!r} within tolerance"
        )
    return matches[0] if matches else None


def _scalar_error(p: Params, q: complex) -> ValueError | OverflowError | None:
    """The first zero or non-finite parameter's error, else q = p.q's if
    it is not finite."""
    values = (p.k0, p.k1, p.u0, p.u1, p.q_half)
    if 0 not in values and all(map(cmath.isfinite, values)) and cmath.isfinite(q):
        return None
    for name, v in zip(("k0", "k1", "u0", "u1", "q_half"), values):
        if v == 0:
            return ZeroParameterError(f"parameter {name} is zero")
        if not cmath.isfinite(complex(v)):
            return ZeroParameterError(f"parameter {name} is not finite")
    return OverflowError("q = q_half^2 is not finite")


@np.errstate(all="ignore")
def _unit_powers(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q^1..q^ROOTS_BOUND of each q in the column q, and where each is in
    its row's finite prefix.  The powers are the loop power = power * q
    from power = 1 to the bit, but for the sign of a zero part of q^1."""
    powers = np.multiply.accumulate(np.repeat(q, ROOTS_BOUND, axis=1), axis=1)
    return powers, np.logical_and.accumulate(np.isfinite(powers), axis=1)


# The root-of-unity guard's closed form, which clears most points
# without their powers.  Let r = |q|, u = 2^-53 and lo = (1 - eq_tol -
# 1e-14)(1 - _GUARD_SLACK).  When lo > 0, a point with r <= lo, or with
# 1/lo <= r <= 2^15, has no power q^m (m <= ROOTS_BOUND) that the exact
# pass reads equal to 1 or marks over.  Proof: the powers are a chain of
# complex products, each within sqrt(5) u of exact in modulus, so |q^m|
# is within 64 sqrt(5) u (2e-14) of r^m, relative, and an underflow moves
# it by a subnormal at most.  The pass's subtraction, hypot and eq_tol
# times the scale round the gap and the threshold by under 7u of the
# scale in all.
# - For r >= 1/lo, r > 1 and every |q^m| >= r (1 - 2e-14) > 1 / (1 -
#   eq_tol - 9e-15): the gap |q^m - 1| >= |q^m| - 1 exceeds eq_tol |q^m|,
#   at scale |q^m|, by more than 9e-15 |q^m|.
# - For r <= lo, every |q^m| < 1 - eq_tol - 9e-15: the gap >= 1 - |q^m|
#   exceeds eq_tol, at scale 1, by more than 9e-15.
# - r <= 2^15 keeps |q^64|, and each part product, within 2^961: no
#   power is non-finite, and none is over.
# _GUARD_SLACK covers the drift of the powers, and 1e-14 the pass's
# roundings and lo's own where eq_tol is near 1 (1 - eq_tol rounds by up
# to u).  The filter path of compare_points gives the exact pass's
# verdicts, so the bound holds for the guard.  It reads r^2 = x^2 + y^2
# off q = x + yi, which overflows and underflows quietly and rounds
# within a few u, inside the slack too.
_GUARD_SLACK = 1e-12


def _guard_band(tol: Tolerance) -> tuple[float, float]:
    """(lo^2, 1/lo^2) of the closed form, or a band that clears nothing
    when lo <= 0."""
    lo = (1.0 - tol.eq_tol - 1e-14) * (1.0 - _GUARD_SLACK)
    return (lo * lo, 1.0 / (lo * lo)) if lo > 0.0 else (-1.0, math.inf)


def _cleared(q: complex, band: tuple[float, float]) -> bool:
    """The closed form clears a finite q: |q|^2 <= lo^2, or 1/lo^2 <=
    |q|^2 <= 2^30."""
    r2 = q.real * q.real + q.imag * q.imag
    return r2 <= band[0] or band[1] <= r2 <= 2.0**30


def guard_operands(points: Sequence[Params]) -> tuple[list, list, np.ndarray | None,
                                                      np.ndarray | None]:
    """The first half of validation_errors: each point's scalar error
    (a zero or non-finite parameter, or an infinite q), then at: the
    points without one that the closed form does not clear, and their
    powers q^1..q^ROOTS_BOUND, which the root-of-unity guard compares
    with 1, a row per point of at, with where each is in its row's
    finite prefix (None, None when at is empty)."""
    band, errors, at = _guard_band(points[0].tol), [], []
    for i, p in enumerate(points):
        q = p.q
        errors.append(_scalar_error(p, q))
        if errors[-1] is None and not _cleared(q, band):
            at.append(i)
    if not at:
        return errors, at, None, None
    powers, finite = _unit_powers(np.array([[points[i].q] for i in at]))
    return errors, at, powers, finite


def validation_errors(points: Sequence[Params]) -> list[ValueError | OverflowError | None]:
    """The exception validate_params raises at each of points, which
    share one tolerance, or None where it returns.  The root-of-unity
    guard clears most points by the closed form, and takes the powers of
    q of the others in one pass, comparing each row's finite prefix with
    1."""
    errors, at, powers, finite = guard_operands(points)
    if not at:
        return errors
    eq, _, over = compare_points(powers, 1.0, points[0].tol)
    return guard_errors(errors, at, eq, finite, over)


def guard_errors(errors: list, at: list, eq: np.ndarray, finite: np.ndarray,
                 over: np.ndarray) -> list:
    """The second half of validation_errors: the scalar errors, then at
    each point of at, whose row of eq, finite and over the comparison of
    its powers with 1 gives, abs()'s OverflowError where over marks the
    row, then RootOfUnityError at the first power of the finite prefix
    that equals 1."""
    # past the prefix, a power reads equal to 1 or not, but is never over;
    # an over row reads no power equal to 1
    for i, o in zip(at, over.tolist()):
        if o:
            errors[i] = OverflowError("absolute value too large")
    unit = eq & finite
    # row by row, so a point's first match comes first
    for k in np.flatnonzero(unit).tolist():
        j, m = divmod(k, ROOTS_BOUND)
        if errors[at[j]] is None:
            errors[at[j]] = RootOfUnityError(m + 1)
    return errors


def validate_params(p: Params) -> None:
    """Check nonzero parameters and that q is not a root of unity.

    Raises ZeroParameterError, OverflowError (q = q_half^2 is not
    finite) or RootOfUnityError; returns normally when all Params
    invariants hold.
    """
    error = validation_errors([p])[0]
    if error is not None:
        raise error


# an "a+bi" literal: a real part, an imaginary part ending in i, or the
# two; an imaginary part with no digits is a unit ("i", "1-i")
_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_LITERAL = re.compile(rf"[+-]?(?:{_NUM}(?:[+-](?:{_NUM})?)?)?i|[+-]?{_NUM}")


def parse_scalar(text: str) -> complex:
    """Parse an "a+bi" / "a-bi" complex literal; pure reals and pure
    imaginaries ("2", "-1.5i") are accepted.  Each part rounds as
    float() rounds it."""
    s = text.strip().replace(" ", "")
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not _LITERAL.fullmatch(s):
        raise ValueError(f"cannot parse complex literal {text!r}")
    # complex() reads a bare "j" as 1j, as the grammar reads a bare "i"
    return complex(s.replace("i", "j"))


def format_scalar(z: complex) -> str:
    """Format a complex number as "a+bi" to 12 significant digits; pure
    reals drop the i-part, and a NaN i-part reads "-nan"."""
    if z.imag == 0.0:
        return format(z.real, ".12g")
    if z.imag != z.imag:
        return format(z.real, ".12g") + "-nani"
    return "%.12g%+.12gi" % (z.real, z.imag)

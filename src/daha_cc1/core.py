"""Scalar arithmetic, parameter validation, and the shared tolerance policy.

All downstream modules work with ordinary ``complex`` numbers; comparisons
and rank decisions go through the :class:`Tolerance` policy defined here,
one pair at a time or elementwise over arrays, with the same bits.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field

import numpy as np


class ZeroParameterError(ValueError):
    """One of k0, k1, u0, u1, q_half is zero."""


class RootOfUnityError(ValueError):
    """q^m = 1 within tolerance for some small positive m."""

    def __init__(self, m: int):
        self.m = m
        super().__init__(f"q^{m} = 1: q is a root of unity (order {m})")


class AmbiguousMatchError(ValueError):
    """Two exponents match the same value within tolerance."""


@dataclass(frozen=True)
class Tolerance:
    """The one comparison threshold: equalities hold within eq_tol, and
    inequalities must fail by at least ``ineq_margin`` = 1e3 * eq_tol,
    which keeps positive and negative tests well separated.
    """

    eq_tol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.eq_tol < 1.0):
            raise ValueError("eq_tol must lie in (0, 1)")

    @property
    def ineq_margin(self) -> float:
        return 1e3 * self.eq_tol


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class Params:
    """The five nonzero parameters (k0, k1, u0, u1, q^{1/2}).

    q is derived as q_half**2.  ``roots_bound`` bounds the exponents
    checked by the root-of-unity guard.
    """

    k0: complex
    k1: complex
    u0: complex
    u1: complex
    q_half: complex
    roots_bound: int = 64
    tol: Tolerance = field(default=DEFAULT_TOL)

    @property
    def q(self) -> complex:
        return self.q_half * self.q_half


def approx_eq(a: complex, b: complex, tol: Tolerance = DEFAULT_TOL) -> bool:
    """|a - b| <= eq_tol * max(1, |a|, |b|)."""
    return abs(a - b) <= tol.eq_tol * max(1.0, abs(a), abs(b))


def clearly_neq(a: complex, b: complex, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when a and b are separated by the full inequality margin."""
    return abs(a - b) > tol.ineq_margin * max(1.0, abs(a), abs(b))


def _verdicts(a: np.ndarray, b: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    # a modulus is the hypot of the parts, as abs() computes it: numpy's
    # complex absolute can differ in the last bit
    gap, abs_a, abs_b = (np.hypot(z.real, z.imag) for z in (a - b, a, b))
    # fmax skips a NaN modulus, as max() does
    scale = np.fmax(np.fmax(1.0, abs_a), abs_b)
    return gap <= tol.eq_tol * scale, gap > tol.ineq_margin * scale


# the decorator form of errstate sets the error mode per call, without
# building a context manager
_verdicts_or_overflow = np.errstate(over="raise", invalid="ignore")(_verdicts)


@np.errstate(all="ignore")
def _verdicts_past_overflow(a: np.ndarray, b: np.ndarray, tol: Tolerance):
    # of the steps that can overflow, the scalar functions raise only in abs()
    for z in (a - b, a, b):
        if (np.isinf(np.hypot(z.real, z.imag)) & np.isfinite(z)).any():
            raise OverflowError("absolute value too large")
    return _verdicts(a, b, tol)


def compare_arrays(a, b, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """approx_eq and clearly_neq elementwise over the broadcast arrays a
    and b, with the scalar functions' arithmetic, so each entry is the
    scalar verdict to the bit; like abs(), a modulus that overflows from
    finite parts raises OverflowError."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    try:
        return _verdicts_or_overflow(a, b, tol)
    except FloatingPointError:
        return _verdicts_past_overflow(a, b, tol)


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


def validate_params(p: Params) -> None:
    """Check nonzero parameters and that q is not a root of unity.

    Raises ZeroParameterError or RootOfUnityError; returns normally when
    all Params invariants hold.
    """
    for name in ("k0", "k1", "u0", "u1", "q_half"):
        v = getattr(p, name)
        if v == 0:
            raise ZeroParameterError(f"parameter {name} is zero")
        if not cmath.isfinite(complex(v)):
            raise ZeroParameterError(f"parameter {name} is not finite")
    q = p.q
    # q^1, q^2, ... up to the bound, stopping at the first non-finite one
    powers, power = [], 1 + 0j
    for _ in range(p.roots_bound):
        power = power * q
        if not cmath.isfinite(power):
            break
        powers.append(power)
    unit = np.flatnonzero(compare_arrays(powers, 1.0, p.tol)[0])
    if unit.size:
        raise RootOfUnityError(int(unit[0]) + 1)


_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_FULL_RE = re.compile(rf"^(?P<re>{_NUM})(?P<im>[+-](?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)i$")
_IMAG_RE = re.compile(rf"^(?P<im>[+-]?(?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)i$")
_REAL_RE = re.compile(rf"^{_NUM}$")


def _imag_value(text: str) -> float:
    if text in ("", "+"):
        return 1.0
    if text == "-":
        return -1.0
    return float(text)


def parse_scalar(text: str) -> complex:
    """Parse an "a+bi" / "a-bi" complex literal; pure reals and pure
    imaginaries ("2", "-1.5i") are accepted."""
    s = text.strip().replace(" ", "")
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if _REAL_RE.match(s):
        return complex(float(s), 0.0)
    m = _FULL_RE.match(s)
    if m:
        return complex(float(m.group("re")), _imag_value(m.group("im")))
    m = _IMAG_RE.match(s)
    if m:
        return complex(0.0, _imag_value(m.group("im")))
    raise ValueError(f"cannot parse complex literal {text!r}")


def format_scalar(z: complex, digits: int = 12) -> str:
    """Format a complex number as "a+bi"; pure reals drop the i-part."""
    re_s = format(z.real, f".{digits}g")
    if z.imag == 0.0:
        return re_s
    sign = "+" if z.imag >= 0 else "-"
    im_s = format(abs(z.imag), f".{digits}g")
    return f"{re_s}{sign}{im_s}i"

"""Laurent polynomials in one variable z with complex coefficients.

Provides ring arithmetic, the two involutions s0: z^n -> q^n z^{-n} and
s1: z^n -> z^{-n}, exact division, the quotient divisors E_n / E_{-n},
and reduction modulo the principal ideal generated by such a divisor.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .core import DEFAULT_TOL, Tolerance

# coefficients with modulus below this are dropped during trimming
TRIM_FLOOR = 1e-14


class InexactDivisionError(ArithmeticError):
    """Division left a remainder above tolerance."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"division remainder {residual:.3e} above tolerance")


class WindowMismatchError(ValueError):
    """Reduction window inconsistent with the divisor's degree span."""


class LaurentPoly:
    """A finitely supported map from integer degrees to complex coefficients.

    Values are immutable; every operation returns a new polynomial with
    near-zero coefficients trimmed.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, complex] = ()):
        data = dict(coeffs) if not isinstance(coeffs, dict) else coeffs
        self._coeffs = {
            d: complex(c) for d, c in data.items() if abs(c) > TRIM_FLOOR
        }

    # -- construction -----------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly({})

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1.0})

    @staticmethod
    def monomial(degree: int, coeff: complex = 1.0) -> "LaurentPoly":
        return LaurentPoly({degree: coeff})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def support(self) -> list[int]:
        return sorted(self._coeffs)

    @property
    def min_degree(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no degrees")
        return min(self._coeffs)

    @property
    def max_degree(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no degrees")
        return max(self._coeffs)

    def coeff(self, degree: int) -> complex:
        return self._coeffs.get(degree, 0j)

    def norm_inf(self) -> float:
        return max((abs(c) for c in self._coeffs.values()), default=0.0)

    def items(self) -> Iterator[tuple[int, complex]]:
        return iter(sorted(self._coeffs.items()))

    def __call__(self, z: complex) -> complex:
        return sum(c * z**d for d, c in self._coeffs.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.items())!r})"

    def approx_eq(self, other: "LaurentPoly", tol: Tolerance = DEFAULT_TOL) -> bool:
        scale = max(1.0, self.norm_inf(), other.norm_inf())
        degs = set(self._coeffs) | set(other._coeffs)
        return all(
            abs(self.coeff(d) - other.coeff(d)) <= tol.eq_tol * scale for d in degs
        )

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for d, c in other._coeffs.items():
            out[d] = out.get(d, 0j) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for d, c in other._coeffs.items():
            out[d] = out.get(d, 0j) - c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({d: -c for d, c in self._coeffs.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, complex] = {}
        for d1, c1 in self._coeffs.items():
            for d2, c2 in other._coeffs.items():
                out[d1 + d2] = out.get(d1 + d2, 0j) + c1 * c2
        return LaurentPoly(out)

    def scale(self, c: complex) -> "LaurentPoly":
        return LaurentPoly({d: c * v for d, v in self._coeffs.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z^k."""
        return LaurentPoly({d + k: v for d, v in self._coeffs.items()})


def apply_s0(f: LaurentPoly, q: complex) -> LaurentPoly:
    """The involution z^n -> q^n z^{-n}, extended linearly."""
    if q == 0:
        raise ValueError("q must be nonzero")
    return LaurentPoly({-d: (q**d) * c for d, c in f.items()})


def apply_s1(f: LaurentPoly) -> LaurentPoly:
    """The involution z^n -> z^{-n}, extended linearly."""
    return LaurentPoly({-d: c for d, c in f.items()})


def divide_exact(
    f: LaurentPoly, g: LaurentPoly, tol: Tolerance = DEFAULT_TOL
) -> LaurentPoly:
    """Return h with f = g * h; raise InexactDivisionError on a remainder.

    Both operands are normalized by unit monomials z^k to ordinary
    polynomials before long division.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return LaurentPoly.zero()
    # divide from the dominant end: synthetic division amplifies error by
    # roughly norm(g)/|pivot| per step, so when the trailing coefficient
    # outweighs the leading one, run the division on the reversed
    # polynomials (z -> 1/z) instead
    if abs(g.coeff(g.min_degree)) > abs(g.coeff(g.max_degree)):
        fr = LaurentPoly({-d: c for d, c in f.items()})
        gr = LaurentPoly({-d: c for d, c in g.items()})
        hr = divide_exact(fr, gr, tol)
        return LaurentPoly({-d: c for d, c in hr.items()})
    gmin = g.min_degree
    gmax = g.max_degree
    fmin = f.min_degree
    lead = g.coeff(gmax)
    rem = {d - fmin: c for d, c in f.items()}
    quot: dict[int, complex] = {}
    gdeg = gmax - gmin
    gpoly = {d - gmin: c for d, c in g.items()}
    while rem:
        top = max(rem)
        if top < gdeg:
            break
        c = rem[top] / lead
        # accumulate: a degree can be revisited when roundoff leaves a
        # residue above the trim floor after the first cancellation
        quot[top - gdeg] = quot.get(top - gdeg, 0j) + c
        for d, v in gpoly.items():
            nd = d + top - gdeg
            rem[nd] = rem.get(nd, 0j) - c * v
            if abs(rem[nd]) <= TRIM_FLOOR:
                del rem[nd]
    h = LaurentPoly({d + fmin - gmin: c for d, c in quot.items()})
    # residual is judged against the reconstruction scale, which guards
    # against false alarms when f itself nearly cancels
    scale = max(f.norm_inf(), g.norm_inf() * h.norm_inf(), 1.0)
    residual = max((abs(c) for c in rem.values()), default=0.0)
    if residual > tol.eq_tol * scale:
        raise InexactDivisionError(residual / scale)
    return h


def poly_from_roots(roots: Iterable[complex], shift: int) -> LaurentPoly:
    """z^{-shift} * prod (z - r) over the given roots."""
    out = LaurentPoly.one()
    for r in roots:
        out = out * LaurentPoly({1: 1.0, 0: -r})
    return out.shift(-shift)


def ladder_roots(n_signed: int, a: complex, q_half: complex) -> list[complex]:
    """The z-eigenvalue ladder cut out by build_E, as an explicit list."""
    if a == 0 or q_half == 0:
        raise ValueError("a and q_half must be nonzero")
    n = abs(n_signed)
    top = n if n_signed >= 0 else n - 1
    q = q_half * q_half
    roots = [a * q_half * q**i for i in range(0, top + 1)]
    roots += [q_half * q**i / a for i in range(-n, 0)]
    return roots


def dual_ladder_roots(n: int, a: complex, q_half: complex) -> list[complex]:
    """The eigenvalue ladder cut out by build_E_dual."""
    if n <= 0:
        raise ValueError("n must be positive")
    if a == 0 or q_half == 0:
        raise ValueError("a and q_half must be nonzero")
    q = q_half * q_half
    roots = [a * q**-i for i in range(0, n)]
    roots += [q ** (1 + i) / a for i in range(0, n)]
    return roots


def build_E(n_signed: int, a: complex, q_half: complex) -> LaurentPoly:
    """The quotient divisor whose roots are the z-eigenvalue ladder.

    For n >= 0 the roots are {a*q^(1/2+i) : 0 <= i <= n} together with
    {q^(1/2+i)/a : -n <= i <= -1} (2n+1 roots, support [-n, n+1]); for
    n_signed = -n < 0 the upper chain stops at i = n-1 (2n roots,
    support [-n, n]).  The q^(1/2) offset keeps the roots aligned with
    the eigenvalues of the z-action on the quotient module; the two
    chains are each geometric with ratio q = q_half**2.
    """
    return poly_from_roots(ladder_roots(n_signed, a, q_half), abs(n_signed))


def build_E_dual(n: int, a: complex, q_half: complex) -> LaurentPoly:
    """The 2n-root divisor {a*q^{-i} : 0 <= i < n} u {q^{1+i}/a : 0 <= i < n}.

    This is the variant fixed (as a set) by r -> q/r rather than
    r -> 1/r; it cuts out the quotients attached to the second leg pair.
    """
    return poly_from_roots(dual_ladder_roots(n, a, q_half), n)


def canonical_window(E: LaurentPoly) -> tuple[int, int]:
    """The reduction window [min_deg, max_deg - 1] of a divisor."""
    return E.min_degree, E.max_degree - 1


def reduce_mod(
    f: LaurentPoly,
    E: LaurentPoly,
    window: tuple[int, int],
) -> LaurentPoly:
    """Reduce f into the window modulo the ideal {z^k * E : k in Z}.

    High out-of-window terms are cancelled with E's leading coefficient
    and low ones with its trailing coefficient; because the window has
    exactly span(E) - 1 slots each cancellation moves the offending
    extreme strictly inward, so the loop terminates.
    """
    lo, hi = window
    emin, emax = E.min_degree, E.max_degree
    if hi - lo + 1 != emax - emin:
        raise WindowMismatchError(
            f"window {window} inconsistent with divisor span [{emin},{emax}]"
        )
    lead = E.coeff(emax)
    trail = E.coeff(emin)
    rem = {d: c for d, c in f.items()}

    def _cancel(deg: int, pivot_deg: int, pivot: complex) -> None:
        c = rem[deg] / pivot
        for d, v in E.items():
            nd = d + deg - pivot_deg
            rem[nd] = rem.get(nd, 0j) - c * v
            if abs(rem[nd]) <= TRIM_FLOOR:
                del rem[nd]

    while rem:
        top = max(rem)
        if top > hi:
            _cancel(top, emax, lead)
            continue
        bottom = min(rem)
        if bottom < lo:
            _cancel(bottom, emin, trail)
            continue
        break
    return LaurentPoly(rem)

"""Translation to the multiplicative four-matrix product problem.

A representation of the four generators becomes a tuple (A1, A2, A3, A4)
= (q^{1/2} T0, T0v, T1, T1v) with A4 A3 A1 A2 = 1, each Ai lying in the
prescribed semisimple (or t^2 = -1 Jordan) conjugacy class encoded by a
root coordinate: its generator's eigenvalue pair (xi_table), with
multiplicities read off its leg.  Rigidity of the tuple is decided by
the moduli count in :func:`daha_cc1.rep.rigidity_D`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import FACTORS, Params, approx_eq
from .rep import RankIndeterminateError, Rep, block_product, block_quadratic, ds_factors
from .roots import RootVector, classify_root
from .strata import sigma_membership

PRODUCT_RESIDUAL_MAX = 1e-6


class InconsistentRanksError(ValueError):
    """A leg label exceeds the central label, so the rank data is invalid."""


class ProductNotIdentityError(ArithmeticError):
    """A4 A3 A1 A2 differs from the identity beyond tolerance."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"product residual {residual:.3e}")

    def __reduce__(self):
        return type(self), (self.residual,)


@dataclass(frozen=True)
class ClassSpec:
    """Per-matrix eigenvalue pair with multiplicities (mult1, mult2)."""

    eig1: complex
    eig2: complex
    mult1: int
    mult2: int

    @property
    def dim(self) -> int:
        return self.mult1 + self.mult2


def check_product(residual: float) -> float:
    """The product residual, unless it exceeds PRODUCT_RESIDUAL_MAX or is NaN."""
    if not residual <= PRODUCT_RESIDUAL_MAX:
        raise ProductNotIdentityError(residual)
    return residual


def to_ds_tuple(r: Rep, p: Params) -> tuple[np.ndarray, ...]:
    """(q^{1/2} T0, T0v, T1, T1v); raises unless the product closes."""
    mats = ds_factors(r, p)
    check_product(block_product(*mats, r.roots, *r.pairs))
    return mats


def xi_table(p: Params) -> tuple[tuple[complex, complex], ...]:
    """The eigenvalue pair (eig1, eig2) of each factor, in factor order:
    (t, -1/t) of its generator's quadratic, times q^{1/2} for A1, so the
    pairs multiply to -q, -1, -1, -1."""
    t, *rest = (getattr(p, g.t) for g in FACTORS)
    qh = p.q_half
    return ((t * qh, -qh / t), *((x, -1 / x) for x in rest))


def class_spec_from_root(alpha: RootVector, p: Params) -> tuple[ClassSpec, ...]:
    """The four prescribed classes for a root coordinate: factor i gets
    eig1 with multiplicity a0 - leg and eig2 with multiplicity leg, the
    leg of its generator."""
    return tuple(
        ClassSpec(eig1, eig2, alpha.a0 - alpha[g.leg], alpha[g.leg])
        for (eig1, eig2), g in zip(xi_table(p), FACTORS)
    )


def xi_product(alpha: RootVector, p: Params) -> complex:
    """xi^[alpha] = prod_i eig1_i^(a0 - leg_i) * eig2_i^leg_i over the
    four factors' eigenvalue pairs (xi_table), legs in factor order: for
    a root, the product of the determinants its classes prescribe, which
    A4 A3 A1 A2 = 1 requires to be 1.  A leg root e_i or f_i (a0 = 0,
    one leg 1) gives -t^(-2) of its generator; any other leg above a0
    raises InconsistentRanksError."""
    legs = [alpha[g.leg] for g in FACTORS]
    if max(legs) > alpha.a0 and (alpha.a0, sorted(legs)) != (0, [0, 0, 0, 1]):
        raise InconsistentRanksError(f"leg label exceeds central label in {alpha}")
    out = 1 + 0j
    for (eig1, eig2), leg in zip(xi_table(p), legs):
        out *= eig1 ** (alpha.a0 - leg) * eig2**leg
    return out


def verify_class_membership(r: Rep, p: Params, specs: tuple[ClassSpec, ...]) -> bool:
    """Each factor Ai of the rep must satisfy (Ai - eig1)(Ai - eig2) = 0
    block by block with rank(Ai - eig1) = mult2; when the two eigenvalues
    coincide the class is the Jordan one, whose rank counts its 2x2 blocks."""
    for M, g, spec in zip(ds_factors(r, p), FACTORS, specs):
        if M.shape[0] != spec.dim:
            return False
        res, rank = block_quadratic(M, r.pairs[g.involution], spec.eig1, spec.eig2, p.tol)
        if rank is None:
            raise RankIndeterminateError("a matrix entry sits near a rank threshold")
        if res > p.tol.ineq_margin or rank != spec.mult2:
            return False
    return True


def ds_existence_predicate(alpha: RootVector, p: Params, member: Optional[bool] = None) -> bool:
    """An irreducible tuple with this class data exists iff alpha is a
    real strict root, p sits on its stratum (read first, so a real root
    refuses every point classify refuses, unless the caller holds the
    verdict as member), and the prescribed eigenvalue product closes."""
    kind = classify_root(alpha)
    if kind is None:
        return False
    if member is None:
        member = sigma_membership(p, kind).member
    return member and approx_eq(xi_product(alpha, p), 1.0, p.tol)


__all__ = [
    "ClassSpec",
    "check_product",
    "ds_factors",
    "to_ds_tuple",
    "class_spec_from_root",
    "verify_class_membership",
    "ds_existence_predicate",
    "xi_table",
    "xi_product",
    "InconsistentRanksError",
    "ProductNotIdentityError",
    "PRODUCT_RESIDUAL_MAX",
]

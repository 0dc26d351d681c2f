"""Translation to the multiplicative four-matrix product problem.

A representation of the four generators becomes a tuple (A1, A2, A3, A4)
= (q^{1/2} T0, T0v, T1, T1v) with A4 A3 A1 A2 = 1, each Ai lying in the
prescribed semisimple (or t^2 = -1 Jordan) conjugacy class encoded by a
root coordinate.  Rigidity of the tuple is decided by the moduli count
in :func:`daha_cc1.rep.rigidity_D`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Params, approx_eq
from .rep import RankIndeterminateError, Rep, block_product, block_quadratic
from .roots import Imaginary, RootVector, classify_root
from .strata import sigma_membership, xi_product, xi_table

PRODUCT_RESIDUAL_MAX = 1e-6


class ProductNotIdentityError(ArithmeticError):
    """A4 A3 A1 A2 differs from the identity beyond tolerance."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"product residual {residual:.3e}")


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
    """The product residual, unless it exceeds PRODUCT_RESIDUAL_MAX."""
    if residual > PRODUCT_RESIDUAL_MAX:
        raise ProductNotIdentityError(residual)
    return residual


def ds_factors(r: Rep, p: Params) -> tuple[np.ndarray, ...]:
    """The rep's four factors (q^{1/2} T0, T0v, T1, T1v)."""
    return (p.q_half * r.T0, r.T0v, r.T1, r.T1v)


def to_ds_tuple(r: Rep, p: Params) -> tuple[np.ndarray, ...]:
    """(q^{1/2} T0, T0v, T1, T1v); raises unless the product closes."""
    mats = ds_factors(r, p)
    check_product(block_product(*mats, r.roots, *r.pairings(p.q)))
    return mats


def class_spec_from_root(alpha: RootVector, p: Params) -> tuple[ClassSpec, ...]:
    """The four prescribed classes for a root coordinate.

    Row i gets eigenvalue xi[i,1] with multiplicity a0 - leg and xi[i,2]
    with multiplicity leg, legs ordered (a1, a3, a2, a4) to match
    (A1, A2, A3, A4).
    """
    table = xi_table(p)
    legs = (alpha.a1, alpha.a3, alpha.a2, alpha.a4)
    return tuple(
        ClassSpec(
            eig1=table.xi(i, 1),
            eig2=table.xi(i, 2),
            mult1=alpha.a0 - leg,
            mult2=leg,
        )
        for i, leg in zip(range(1, 5), legs)
    )


def verify_class_membership(r: Rep, p: Params, specs: tuple[ClassSpec, ...]) -> bool:
    """Each factor Ai of the rep must satisfy (Ai - eig1)(Ai - eig2) = 0
    block by block with rank(Ai - eig1) = mult2; when the two eigenvalues
    coincide the class is the Jordan one, whose rank counts its 2x2 blocks."""
    s0, s1 = r.pairings(p.q)
    for M, g, spec in zip(ds_factors(r, p), (s0, s0, s1, s1), specs):
        if M.shape[0] != spec.dim:
            return False
        res, rank = block_quadratic(M, g, spec.eig1, spec.eig2, p.tol)
        if rank is None:
            raise RankIndeterminateError("a matrix entry sits near a rank threshold")
        if res > p.tol.ineq_margin or rank != spec.mult2:
            return False
    return True


def ds_existence_predicate(alpha: RootVector, p: Params) -> bool:
    """An irreducible tuple with this class data exists iff alpha is a
    real strict root, the prescribed eigenvalue product closes to 1, and
    the parameters sit on the root's stratum."""
    kind = classify_root(alpha)
    if kind is None or isinstance(kind, Imaginary):
        return False
    if not approx_eq(xi_product(alpha, p, xi_table(p)), 1.0, p.tol):
        return False
    return sigma_membership(p, kind).member


__all__ = [
    "ClassSpec",
    "check_product",
    "ds_factors",
    "to_ds_tuple",
    "class_spec_from_root",
    "verify_class_membership",
    "ds_existence_predicate",
    "ProductNotIdentityError",
    "PRODUCT_RESIDUAL_MAX",
]

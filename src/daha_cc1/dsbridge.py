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

from .core import Params, Tolerance, approx_eq
from .rep import RankIndeterminateError, Rep, block_product, block_quadratic, rigidity_D
from .roots import Imaginary, RootVector, classify_root
from .strata import sigma_membership, xi_product, xi_table

PRODUCT_RESIDUAL_MAX = 1e-6


class ProductNotIdentityError(ArithmeticError):
    """A4 A3 A1 A2 differs from the identity beyond tolerance."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"product residual {residual:.3e}")


@dataclass
class DSTuple:
    """Four invertible matrices with product A4 A3 A1 A2 = 1, block
    diagonal on the s0 pairing (A1, A2) and the s1 pairing (A3, A4) of
    the z-eigenvalues z (see daha_cc1.rep.pairings)."""

    A1: np.ndarray
    A2: np.ndarray
    A3: np.ndarray
    A4: np.ndarray
    z: np.ndarray
    s0: np.ndarray
    s1: np.ndarray

    @property
    def dim(self) -> int:
        return self.A1.shape[0]

    def matrices(self) -> list[np.ndarray]:
        return [self.A1, self.A2, self.A3, self.A4]

    def product_residual(self) -> float:
        return block_product(self.A1, self.A2, self.A3, self.A4, self.z, self.s0, self.s1)


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


def to_ds_tuple(r: Rep, p: Params) -> DSTuple:
    """(q^{1/2} T0, T0v, T1, T1v); raises unless the product closes."""
    mats = (p.q_half * r.T0, r.T0v.copy(), r.T1.copy(), r.T1v.copy())
    t = DSTuple(*mats, r.roots.copy(), *r.pairings(p.q))
    res = t.product_residual()
    if res > PRODUCT_RESIDUAL_MAX:
        raise ProductNotIdentityError(res)
    return t


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


def verify_class_membership(
    t: DSTuple, specs: tuple[ClassSpec, ...], tol: Tolerance
) -> bool:
    """Each Ai must satisfy (Ai - eig1)(Ai - eig2) = 0 block by block
    with rank(Ai - eig1) = mult2; when the two eigenvalues coincide the
    class is the Jordan one, whose rank counts its 2x2 blocks."""
    for M, g, spec in zip(t.matrices(), (t.s0, t.s0, t.s1, t.s1), specs):
        if M.shape[0] != spec.dim:
            return False
        res, rank = block_quadratic(M, g, spec.eig1, spec.eig2, tol)
        if rank is None:
            raise RankIndeterminateError("a matrix entry sits near a rank threshold")
        if res > tol.eq_tol * 1e3 or rank != spec.mult2:
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


def tuple_rigidity(alpha: RootVector) -> int:
    """Moduli count of the tuple's class data; 0 iff rigid."""
    legs = (alpha.a1, alpha.a2, alpha.a3, alpha.a4)
    return rigidity_D(alpha.a0, *legs)


__all__ = [
    "DSTuple",
    "ClassSpec",
    "to_ds_tuple",
    "class_spec_from_root",
    "verify_class_membership",
    "ds_existence_predicate",
    "tuple_rigidity",
    "ProductNotIdentityError",
    "PRODUCT_RESIDUAL_MAX",
]

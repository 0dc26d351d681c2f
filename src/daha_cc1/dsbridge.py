"""Translation to the multiplicative four-matrix product problem.

A representation of the four generators becomes a tuple (A1, A2, A3, A4)
= (q^{1/2} T0, T0v, T1, T1v) with A4 A3 A1 A2 = 1, each Ai lying in the
prescribed semisimple (or t^2 = -1 Jordan) conjugacy class encoded by a
root coordinate: its generator's eigenvalue pair (xi_table), with
multiplicities read off its leg.  Both are checked on the rep's kept
diagnosis (see :func:`daha_cc1.rep.verify_relations`).  Rigidity of the
tuple is decided by the moduli count in :func:`daha_cc1.rep.rigidity_D`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import FACTORS, Params, approx_eq
from .rep import RankIndeterminateError, Rep, _diagnosis, ds_factors, verify_relations
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


def check_product(residual: float) -> float:
    """The product residual, unless it exceeds PRODUCT_RESIDUAL_MAX or is NaN."""
    if not residual <= PRODUCT_RESIDUAL_MAX:
        raise ProductNotIdentityError(residual)
    return residual


def to_ds_tuple(r: Rep, p: Params) -> tuple[np.ndarray, ...]:
    """(q^{1/2} T0, T0v, T1, T1v); raises unless the product closes."""
    check_product(verify_relations(r, p)["product"])
    return ds_factors(r, p)


def xi_table(p: Params) -> tuple[tuple[complex, complex], ...]:
    """The eigenvalue pair (eig1, eig2) of each factor, in factor order:
    (t, -1/t) of its generator's quadratic, times q^{1/2} for A1, so the
    pairs multiply to -q, -1, -1, -1."""
    t, *rest = (getattr(p, g.t) for g in FACTORS)
    qh = p.q_half
    return ((t * qh, -qh / t), *((x, -1 / x) for x in rest))


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


def verify_class_membership(r: Rep, p: Params, alpha: RootVector) -> bool:
    """Whether each factor lies in the class alpha prescribes: its
    generator's quadratic holds within ineq_margin (a NaN fails), and the
    dim and the ranks, read as dim_vector reads them, are alpha.  A rank in
    the band raises RankIndeterminateError; an entry outside the pairing
    gets a verdict, not PairingError."""
    quads = _diagnosis(r, p, False)[1]
    ranks = [rank for _, rank in quads]
    if None in ranks:
        raise RankIndeterminateError("a matrix entry sits near a rank threshold")
    return (r.dim, *ranks) == alpha and all(res <= p.tol.ineq_margin for res, _ in quads)


def ds_existence_predicate(
    alpha: RootVector, p: Params, member: Optional[bool] = None, valid: bool = False
) -> bool:
    """An irreducible tuple with this class data exists iff alpha is a
    real strict root, p sits on its stratum (read first, so a real root
    refuses every point classify refuses, unless the caller holds the
    verdict as member, or p as valid: known to pass validate_params), and
    the prescribed eigenvalue product closes."""
    kind = classify_root(alpha)
    if kind is None:
        return False
    if member is None:
        member = sigma_membership(p, kind, None, valid).member
    return member and approx_eq(xi_product(alpha, p), 1.0, p.tol)


__all__ = [
    "check_product",
    "ds_factors",
    "to_ds_tuple",
    "verify_class_membership",
    "ds_existence_predicate",
    "xi_table",
    "xi_product",
    "InconsistentRanksError",
    "ProductNotIdentityError",
    "PRODUCT_RESIDUAL_MAX",
]

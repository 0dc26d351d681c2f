"""Dense oracles for the block diagnostics of daha_cc1.rep.

The library reads its relation residuals, ranks and commutant off the
pairing of the roots.  These are the dense computations it replaced,
kept to cross-check it in any basis: the normalized spectral-norm
relation residuals from one batched SVD, rank by singular values, and
the commutant as the nullity of the Sylvester system.
"""

import numpy as np

from daha_cc1.core import Params
from daha_cc1.rep import RankIndeterminateError, Rep


def dense_relations(r: Rep, p: Params) -> dict[str, float]:
    """Normalized spectral-norm residuals of the five defining relations,
    under the keys verify_relations uses."""
    eye = np.eye(r.dim)
    quads = [("T0", r.T0, p.k0), ("T1", r.T1, p.k1), ("T0v", r.T0v, p.u0), ("T1v", r.T1v, p.u1)]
    mats = []
    for _, M, t in quads:
        mats += [M - t * eye, M + eye / t]
        mats.append(mats[-2] @ mats[-1])
    mats += [r.T1v, r.T1, r.T0, r.T0v, r.T1v @ r.T1 @ r.T0 @ r.T0v - eye / p.q_half]
    # all 17 spectral norms from one batched SVD
    norms = np.linalg.svd(np.stack(mats), compute_uv=False)[:, 0]
    out: dict[str, float] = {}
    for i, (name, _, _) in enumerate(quads):
        lo, hi, res = norms[3 * i : 3 * i + 3]
        out[f"quad.{name}"] = float(res / max(1.0, lo * hi))
    scale = max(1.0, float(norms[12] * norms[13] * norms[14] * norms[15]))
    out["product"] = float(norms[16] / scale)
    return out


def numerical_rank(M: np.ndarray, rank_tol: float = 1e-9) -> int:
    """Rank by singular values, with a factor-10 indeterminacy band."""
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    # floor the scale at 1 so a matrix that is zero up to roundoff gets
    # rank 0 instead of inheriting rank from its noise floor
    thr = rank_tol * max(sv[0], 1.0)
    band = (sv > thr / 10.0) & (sv < thr * 10.0)
    if band.any():
        raise RankIndeterminateError(f"singular value near threshold {thr:.3e}")
    return int((sv > thr).sum())


def dense_dim_vector(r: Rep, p: Params, rank_tol: float = 1e-9) -> tuple[int, ...]:
    """(dim, rank(T0-k0), rank(T1-k1), rank(T0v-u0), rank(T1v-u1)) by SVD."""
    eye = np.eye(r.dim)
    pairs = ((r.T0, p.k0), (r.T1, p.k1), (r.T0v, p.u0), (r.T1v, p.u1))
    return (r.dim, *(numerical_rank(M - t * eye, rank_tol) for M, t in pairs))


def sylvester_commutant_dim(r: Rep, rank_tol: float = 1e-9) -> int:
    """The commutant dimension in any basis: the nullity of the stacked
    Sylvester system X -> [T, X] over the four generators.  Its SVD has
    d^2 columns, so keep it to dim <= 15."""
    assert r.dim <= 15
    d = r.dim
    eye = np.eye(d)
    stack = np.vstack([np.kron(M, eye) - np.kron(eye, M.T) for M in r.generators()])
    sv = np.linalg.svd(stack, compute_uv=False)
    if sv[0] == 0.0:
        return d * d
    thr = rank_tol * sv[0]
    band = (sv > thr / 10.0) & (sv < thr * 10.0)
    if band.any():
        raise RankIndeterminateError("commutant rank indeterminate")
    return d * d - int((sv > thr).sum())

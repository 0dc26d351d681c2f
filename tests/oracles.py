"""Dense oracles for the block diagnostics of daha_cc1.rep.

The library reads its relation residuals, ranks and commutant off the
pairing of the roots.  These are the dense computations it replaced,
kept to cross-check it in any basis: the normalized spectral-norm
relation residuals from one batched SVD, rank by singular values, and
the commutant as the nullity of the Sylvester system.  The library pairs
the roots by their ladder symbols; the float matcher it replaced is kept
here too, to cross-check that pairing.  So is the three-regex literal
parser that core.parse_scalar's one grammar replaced.
"""

import re

import numpy as np

from daha_cc1.core import Params
from daha_cc1.rep import DegenerateLadderError, RankIndeterminateError, Rep

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


def regex_parse_scalar(text: str) -> complex:
    """The literal parser core.parse_scalar replaced: a real, then an
    "a+bi", then an imaginary match, each part through float()."""
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


# s(r) is the root r' when |s(r) - r'| <= ROOT_MATCH_RTOL * |s(r)|; the
# roots must be ten times further apart, so the match is unique
ROOT_MATCH_RTOL = 1e-7
ROOT_SEPARATION_MIN = 10 * ROOT_MATCH_RTOL


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


def float_pairings(roots: np.ndarray, q: complex) -> tuple[np.ndarray, np.ndarray]:
    """Each root's partner under s0 (r -> q/r) and s1 (r -> 1/r), found by
    matching floats: the root that s(r) matches, or itself when none does
    (a lone root).  Refuses roots that lie close together, a root that
    s0 or s1 fixes, and a match that is not an involution."""
    rows, mod = np.arange(roots.size), np.abs(roots)
    gap = np.abs(roots[:, None] - roots) / np.maximum(mod[:, None], mod)
    if (gap[rows[:, None] != rows] <= ROOT_SEPARATION_MIN).any():
        raise DegenerateLadderError("two roots of the divisor coincide")
    out = []
    for which, image in enumerate((q / roots, 1 / roots)):
        dist = np.abs(image[:, None] - roots) / np.abs(image)[:, None]
        partner = dist.argmin(axis=1)
        matched = dist[rows, partner] <= ROOT_MATCH_RTOL
        fixed = matched & (partner == rows)
        if fixed.any():
            raise DegenerateLadderError(f"root {roots[fixed][0]:.6g} is a fixed point of s{which}")
        partner = np.where(matched, partner, rows)
        if (partner[partner] != rows).any():
            raise DegenerateLadderError(f"s{which} does not pair the roots")
        out.append(partner)
    return out[0], out[1]

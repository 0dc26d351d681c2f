"""Polynomial-representation operators and the finite-dimensional quotients.

The four generators act on C[z^{+-1}] through difference operators of
Demazure-Lusztig shape T = sigma s + c(z) * (1 - s), with s one of the
involutions s0, s1; one table holds each generator's data.  On Laurent
polynomials the rational coefficient multiplies the difference f - s(f),
which its denominator divides exactly.  Finite-dimensional irreducibles
arise as quotients by a principal ideal (E) with simple roots; this
module builds them as explicit matrices in the basis of evaluation at
those roots and provides the diagnostics used by the classification
(dimension vector, z-spectrum, commutant, rigidity count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from .core import Params, validate_params
from .laurent import (
    LaurentPoly,
    apply_s0,
    apply_s1,
    build_E,
    build_E_dual,
    divide_exact,
    dual_ladder_roots,
    ladder_roots,
    # unused here, kept as an attribute: the benchmark's tracer wraps it
    reduce_mod,  # noqa: F401
)
from .roots import Imaginary, RootKind, Type1E, Type1F, Type2, kind_to_str
from .strata import sigma_membership

IDEAL_RESIDUAL_MAX = 1e-6
RELATION_RESIDUAL_MAX = 1e-8
# s(r) is the root r' when |s(r) - r'| <= ROOT_MATCH_RTOL * |s(r)|; the
# roots (and the z-eigenvalues) must be ten times further apart, so the
# match is unique
ROOT_MATCH_RTOL = 1e-7
ROOT_SEPARATION_MIN = 10 * ROOT_MATCH_RTOL


class NotOnStratumError(ValueError):
    """Construction requested off the kind's parameter stratum."""

    def __init__(self, kind: RootKind, failed: list[str]):
        self.kind = kind
        self.failed = failed
        super().__init__(
            f"parameters not on stratum of {kind_to_str(kind)}: failed {failed}"
        )


class IdealNotInvariantError(ArithmeticError):
    """The candidate ideal is not stable under the generator action."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"ideal invariance residual {residual:.3e}")


class RelationResidualError(ArithmeticError):
    """Constructed matrices violate a defining relation."""

    def __init__(self, residuals: dict[str, float]):
        self.residuals = residuals
        worst = max(residuals.values())
        super().__init__(f"relation residual {worst:.3e}")


class DegenerateLadderError(ArithmeticError):
    """The divisor's roots give no evaluation basis: two roots coincide,
    or a root is a fixed point of an involution."""


class RankIndeterminateError(ArithmeticError):
    """A singular value or matrix entry sits too close to the threshold."""


@dataclass(frozen=True)
class SignVector:
    eps0: int = 1
    eps1: int = 1
    del0: int = 1
    del1: int = 1

    def __post_init__(self):
        for s in (self.eps0, self.eps1, self.del0, self.del1):
            if s not in (1, -1):
                raise ValueError("signs must be +1 or -1")


@dataclass(frozen=True)
class DimVector:
    d0: int
    d1: int
    d2: int
    d3: int
    d4: int

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.d0, self.d1, self.d2, self.d3, self.d4)


@dataclass
class Rep:
    """Four square matrices realizing the generators, plus provenance."""

    dim: int
    T0: np.ndarray
    T1: np.ndarray
    T0v: np.ndarray
    T1v: np.ndarray
    basis_labels: list[int]
    provenance: dict = field(default_factory=dict)

    def generators(self) -> list[np.ndarray]:
        return [self.T0, self.T1, self.T0v, self.T1v]


# -- the generators ------------------------------------------------------


@dataclass(frozen=True)
class _Generator:
    """Data of one directly-defined generator T = sigma s + c(z) (1 - s).

    sigma = sign * t^sign and c = (alpha + beta w) / (1 - w^2) with
    alpha = t - 1/t and beta = b - 1/b.  For s1 (z -> 1/z) w is z; for
    s0 (z -> q/z) w is q^{1/2}/z.  Either way s acts by w -> 1/w, so
    the fixed points of s are the points with w^2 = 1."""

    t: str
    b: str
    s0: bool


_GENERATORS = {
    "T0": _Generator("k0", "u0", True),
    "T1": _Generator("k1", "u1", False),
    # the dual-side mirrors, with the two parameters swapped
    "T0v": _Generator("u0", "k0", True),
    "T1v": _Generator("u1", "k1", False),
}


def _sigma_alpha_beta(name: str, sign: int, p: Params) -> tuple[complex, complex, complex]:
    g = _GENERATORS[name]
    t, b = getattr(p, g.t), getattr(p, g.b)
    return sign * t**sign, t - 1 / t, b - 1 / b


def _demazure_lusztig(
    f: LaurentPoly, name: str, sign: int, p: Params, flip_convention: bool = False
) -> LaurentPoly:
    """The generator `name` acting on a Laurent polynomial.

    c(z) (f - s f) is computed as num * (f - s f) / den, which divides
    exactly.  flip_convention negates that difference part, a fault that
    breaks the quadratic relation (the self-test injects it)."""
    sigma, alpha, beta = _sigma_alpha_beta(name, sign, p)
    if _GENERATORS[name].s0:
        sf = apply_s0(f, p.q)
        num = LaurentPoly({0: alpha, -1: beta * p.q_half})
        den = LaurentPoly({0: 1.0, -2: -p.q})
    else:
        sf = apply_s1(f)
        num = LaurentPoly({0: alpha, 1: beta})
        den = LaurentPoly({0: 1.0, 2: -1.0})
    part = divide_exact(num * (f - sf), den, p.tol)
    return sf.scale(sigma) + (-part if flip_convention else part)


def apply_T0(f: LaurentPoly, eps0: int, p: Params, flip_convention: bool = False) -> LaurentPoly:
    """T0 = eps0 k0^eps0 s0 + [(k0-k0^-1) + (u0-u0^-1) q^{1/2} z^-1] (1 - s0)/(1 - q z^-2)."""
    return _demazure_lusztig(f, "T0", eps0, p, flip_convention)


def apply_T1(f: LaurentPoly, eps1: int, p: Params, flip_convention: bool = False) -> LaurentPoly:
    """T1 = eps1 k1^eps1 s1 + [(k1-k1^-1) + (u1-u1^-1) z] (1 - s1)/(1 - z^2)."""
    return _demazure_lusztig(f, "T1", eps1, p, flip_convention)


def apply_T0v_bar(f: LaurentPoly, del0: int, p: Params, flip_convention: bool = False) -> LaurentPoly:
    """T0v on the dual-side module: apply_T0 with k0 and u0 swapped."""
    return _demazure_lusztig(f, "T0v", del0, p, flip_convention)


def apply_T1v_bar(f: LaurentPoly, del1: int, p: Params, flip_convention: bool = False) -> LaurentPoly:
    """T1v on the dual-side module: apply_T1 with k1 and u1 swapped."""
    return _demazure_lusztig(f, "T1v", del1, p, flip_convention)


# -- quotient construction -----------------------------------------------


def _ladder(
    kind: RootKind, s: Optional[SignVector], p: Params
) -> tuple[str, tuple[int, int], complex, int, bool]:
    """(side, operator signs, ladder parameter a, signed level, dual):
    the divisor is build_E_dual(level, a) if dual, else build_E."""
    if isinstance(kind, Type2):
        sv = s if s is not None else SignVector(*kind.signs)
        if sv.eps0 != kind.eps0 or sv.eps1 != kind.eps1 \
                or sv.del0 != kind.del0 or sv.del1 != kind.del1:
            raise ValueError("sign vector must match the type-2 kind")
        a = kind.eps0 * p.k0**kind.eps0 * kind.del0 * p.u0**kind.del0
        return "P", (kind.eps0, kind.eps1), a, kind.n, False
    if isinstance(kind, Type1E):
        if kind.i == 0:
            a = -kind.eps * p.k0 ** (-kind.eps) * p.u0
            return "P", (-kind.eps, 1), a, -kind.n, False
        a = kind.eps * p.k1**kind.eps * p.u1
        return "P", (1, -kind.eps), a, kind.n, True
    if isinstance(kind, Type1F):
        if kind.i == 0:
            a = -kind.delta * p.u0 ** (-kind.delta) * p.k0
            return "Pbar", (-kind.delta, 1), a, -kind.n, False
        a = kind.delta * p.u1**kind.delta * p.k1
        return "Pbar", (1, -kind.delta), a, kind.n, True
    raise ValueError(f"no quotient for kind {kind!r}")


def quotient_data(
    kind: RootKind, s: Optional[SignVector], p: Params
) -> tuple[str, tuple[int, int], LaurentPoly, complex, list[complex]]:
    """(side, operator signs, divisor E, ladder parameter a, E's roots).

    Side "P" modules are generated by T0 and T1; side "Pbar" by the
    dual-side T0v and T1v.  For one-leg kinds the free operator sign is
    +1 and the constrained one is the negative of the kind's sign (the
    cyclic generator then carries the eigenvalue that survives on the
    stratum).
    """
    side, signs, a, n, dual = _ladder(kind, s, p)
    if dual:
        return side, signs, build_E_dual(n, a, p.q_half), a, dual_ladder_roots(n, a, p.q_half)
    return side, signs, build_E(n, a, p.q_half), a, ladder_roots(n, a, p.q_half)


def _min_relative_gap(values: np.ndarray) -> float:
    """The smallest |x - y| / max(|x|, |y|) over pairs of entries."""
    if values.size < 2:
        return np.inf
    mod = np.abs(values)
    gap = np.abs(values[:, None] - values[None, :]) / np.maximum(mod[:, None], mod[None, :])
    np.fill_diagonal(gap, np.inf)
    return float(gap.min())


def _eval_matrix(
    name: str, sign: int, p: Params, roots: np.ndarray, flip_convention: bool = False
) -> tuple[np.ndarray, float]:
    """The generator's matrix in the evaluation basis at the roots, and
    its ideal certificate.

    (Tf)(r) = c(r) f(r) + (sigma - c(r)) f(s r), so row r holds c(r) on
    the diagonal and sigma - c(r) in the column of the root s(r).  Where
    s(r) is not a root the ideal (E) is invariant only if sigma = c(r);
    the certificate is the worst |sigma - c(r)| / max(1, |sigma| + |c(r)|)
    over those roots."""
    s0 = _GENERATORS[name].s0
    image = p.q / roots if s0 else 1 / roots
    dist = np.abs(image[:, None] - roots[None, :]) / np.abs(image)[:, None]
    rows = np.arange(roots.size)
    partner = dist.argmin(axis=1)
    paired = dist[rows, partner] <= ROOT_MATCH_RTOL
    fixed = paired & (partner == rows)
    if fixed.any():
        raise DegenerateLadderError(
            f"root {roots[fixed][0]:.6g} is a fixed point of s{0 if s0 else 1}"
        )
    sigma, alpha, beta = _sigma_alpha_beta(name, sign, p)
    w = p.q_half / roots if s0 else roots
    c = (alpha + beta * w) / (1 - w * w)
    if flip_convention:
        c = -c
    M = np.diag(c)
    M[rows[paired], partner[paired]] = sigma - c[paired]
    lone = c[~paired]
    res = np.abs(sigma - lone) / np.maximum(1.0, abs(sigma) + np.abs(lone))
    return M, float(res.max(initial=0.0))


def build_quotient_rep(
    kind: RootKind,
    s: Optional[SignVector],
    p: Params,
    force: bool = False,
    flip_convention: bool = False,
) -> Rep:
    """Construct the irreducible of the kind's dimension vector.

    The divisor E has simple roots, so evaluation at them identifies
    C[z^{+-1}]/(E) with C^dim: z acts by the diagonal matrix of the
    roots, and each directly-defined generator pairs a root r with s(r).
    The other two generators follow from the inverse identities
    T^{-1} = T - (t - t^{-1}) and the z-action, as row or column
    scalings.  The ideal is certified stable and the five defining
    relations verified before the Rep is returned.

    With force=True the stratum guard is skipped (the certification
    still runs and fails off-stratum).  flip_convention injects the
    operator fault described at _demazure_lusztig.
    """
    validate_params(p)
    if isinstance(kind, Imaginary):
        raise ValueError("imaginary kinds admit no finite-dimensional quotient")
    if not force:
        verdict = sigma_membership(p, kind)
        if not verdict.member:
            raise NotOnStratumError(kind, verdict.failed_conditions)
    side, signs, a, n, dual = _ladder(kind, s, p)
    roots = np.array(
        dual_ladder_roots(n, a, p.q_half) if dual else ladder_roots(n, a, p.q_half),
        dtype=complex,
    )
    if _min_relative_gap(roots) <= ROOT_SEPARATION_MIN:
        raise DegenerateLadderError("two roots of the divisor coincide")
    names = ("T0", "T1") if side == "P" else ("T0v", "T1v")
    (A, res_a), (B, res_b) = (
        _eval_matrix(name, sign, p, roots, flip_convention)
        for name, sign in zip(names, signs)
    )
    ideal_res = max(res_a, res_b)
    if ideal_res > IDEAL_RESIDUAL_MAX:
        raise IdealNotInvariantError(ideal_res)

    eye = np.eye(roots.size)
    # q^{1/2} T0 T0v and (T1v T1)^{-1} both act by z = diag(roots)
    if side == "P":
        T0, T1 = A, B
        T0v = (T0 - (p.k0 - 1 / p.k0) * eye) * (roots / p.q_half)
        T1v = (T1 - (p.k1 - 1 / p.k1) * eye) / roots[:, None]
    else:
        T0v, T1v = A, B
        T1 = (T1v - (p.u1 - 1 / p.u1) * eye) / roots
        T0 = (roots[:, None] / p.q_half) * (T0v - (p.u0 - 1 / p.u0) * eye)

    rep = Rep(
        dim=roots.size,
        T0=T0,
        T1=T1,
        T0v=T0v,
        T1v=T1v,
        basis_labels=list(range(roots.size)),
        provenance={
            "kind": kind_to_str(kind),
            "poly_side": side,
            "basis": "eval",
            "roots": [[r.real, r.imag] for r in roots.tolist()],
            "a": [a.real, a.imag],
            "ideal_residual": ideal_res,
        },
    )
    residuals = verify_relations(rep, p)
    if max(residuals.values()) > RELATION_RESIDUAL_MAX:
        raise RelationResidualError(residuals)
    return rep


def verify_relations(r: Rep, p: Params) -> dict[str, float]:
    """Normalized spectral-norm residuals of the five defining relations."""
    eye = np.eye(r.dim)
    quads = [
        ("T0", r.T0, p.k0),
        ("T1", r.T1, p.k1),
        ("T0v", r.T0v, p.u0),
        ("T1v", r.T1v, p.u1),
    ]
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


# -- diagnostics ---------------------------------------------------------


def numerical_rank(M: np.ndarray, rank_tol: float) -> int:
    """Rank by singular values, with a factor-10 indeterminacy band."""
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    # floor the scale at 1 so a matrix that is zero up to roundoff gets
    # rank 0 instead of inheriting rank from its noise floor
    thr = rank_tol * max(sv[0], 1.0)
    band = (sv > thr / 10.0) & (sv < thr * 10.0)
    if band.any():
        raise RankIndeterminateError(
            f"singular value near threshold {thr:.3e}"
        )
    return int((sv > thr).sum())


def dim_vector(r: Rep, p: Params) -> DimVector:
    """(dim, rank(T0-k0), rank(T1-k1), rank(T0v-u0), rank(T1v-u1))."""
    eye = np.eye(r.dim)
    rt = p.tol.rank_tol
    return DimVector(
        d0=r.dim,
        d1=numerical_rank(r.T0 - p.k0 * eye, rt),
        d2=numerical_rank(r.T1 - p.k1 * eye, rt),
        d3=numerical_rank(r.T0v - p.u0 * eye, rt),
        d4=numerical_rank(r.T1v - p.u1 * eye, rt),
    )


def spectrum_of_z(r: Rep, p: Params) -> list[complex]:
    """Eigenvalues of the z-action q^{1/2} T0 T0v as a multiset."""
    return [complex(v) for v in np.linalg.eigvals(p.q_half * r.T0 @ r.T0v)]


def rho_ladder(s: SignVector, n: int, p: Params) -> list[complex]:
    """Expected z-eigenvalues rho_{-n}..rho_n of a type-2 quotient on
    side P: a*q^{1/2+i} for i >= 0 and a^{-1}*q^{1/2+i} for i < 0."""
    a = s.eps0 * p.k0**s.eps0 * s.del0 * p.u0**s.del0
    out = []
    for i in range(-n, n + 1):
        base = a if i >= 0 else 1 / a
        out.append(base * p.q_half ** (1 + 2 * i))
    return out


def commutant_dim(r: Rep, rank_tol: float = 1e-9) -> int:
    """Dimension of the joint commutant of the four generators; 1 means
    irreducible.

    Needs a basis in which z, a multiple of T0 T0v, is diagonal with
    distinct entries (the quotient's evaluation basis); ValueError
    otherwise.  A matrix commuting with z is then diagonal, and a
    diagonal X commutes with a generator M iff x_i = x_j wherever M_ij
    or M_ji is nonzero.  So the commutant dimension is the number of
    connected components of the graph whose edges are the nonzero
    off-diagonal entries.  An entry is weighed against the largest entry
    of its row; weights within a factor 10 of rank_tol raise
    RankIndeterminateError.
    """
    z = r.T0 @ r.T0v
    off = np.abs(z - np.diag(np.diag(z)))
    # |(AB)_ij| <= (|A| |B|)_ij; an exact zero sits at roundoff below it
    if (off > rank_tol * (np.abs(r.T0) @ np.abs(r.T0v))).any() \
            or _min_relative_gap(np.diag(z)) <= ROOT_SEPARATION_MIN:
        raise ValueError("z is not diagonal with distinct eigenvalues in this basis")
    weight = np.zeros((r.dim, r.dim))
    for M in r.generators():
        w = np.abs(M) / np.abs(M).max(axis=1, keepdims=True)
        weight = np.maximum(weight, np.maximum(w, w.T))
    np.fill_diagonal(weight, 0.0)
    if ((weight > rank_tol / 10.0) & (weight < rank_tol * 10.0)).any():
        raise RankIndeterminateError("commutant entry near threshold")
    # reachability by repeated squaring; one distinct row per component
    reach = (weight >= rank_tol * 10.0) | np.eye(r.dim, dtype=bool)
    for _ in range(r.dim.bit_length()):
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
    return int(np.unique(reach, axis=0).shape[0])


def rigidity_D(n: int, d1: int, d2: int, d3: int, d4: int) -> int:
    """Moduli dimension 2(1 - n^2 + sum d_i(n - d_i)) of the conjugacy
    data; 0 on every rigid representation.  The d_i are the kernel
    dimensions dim Ker(T - t)."""
    for d in (d1, d2, d3, d4):
        if d < 0 or d > n:
            raise ValueError("kernel dimensions must lie in [0, n]")
    return 2 * (1 - n * n + sum(d * (n - d) for d in (d1, d2, d3, d4)))


def conjugacy_class_dim(n: int, d: int) -> int:
    """dim of the conjugacy class with eigenvalue multiplicities (d, n-d):
    2d(n-d), in both the diagonalizable and the t^2 = -1 Jordan case."""
    if d < 0 or d > n:
        raise ValueError("d must lie in [0, n]")
    return 2 * d * (n - d)


def kernel_dims(r: Rep, p: Params) -> tuple[int, int, int, int]:
    """dim Ker(T - t) for the four generators, from the dimension vector."""
    dv = dim_vector(r, p)
    return (r.dim - dv.d1, r.dim - dv.d2, r.dim - dv.d3, r.dim - dv.d4)


def build_truncated_polyrep(
    side: Literal["P", "Pbar"],
    s: SignVector,
    N: int,
    p: Params,
    flip_convention: bool = False,
) -> dict:
    """Matrices of the two directly-defined generators on the degree
    ball [-N, N]; exact because the operators preserve every such ball.
    flip_convention injects the fault described at _demazure_lusztig."""
    validate_params(p)
    window = list(range(-N, N + 1))
    if side == "P":
        ops = {
            "T0": lambda f: apply_T0(f, s.eps0, p, flip_convention),
            "T1": lambda f: apply_T1(f, s.eps1, p, flip_convention),
        }
    else:
        ops = {
            "T0v": lambda f: apply_T0v_bar(f, s.del0, p, flip_convention),
            "T1v": lambda f: apply_T1v_bar(f, s.del1, p, flip_convention),
        }
    out: dict = {"basis_labels": window}
    for name, op in ops.items():
        cols = []
        for j in window:
            g = op(LaurentPoly.monomial(j))
            if not g.is_zero() and (g.min_degree < -N or g.max_degree > N):
                raise ArithmeticError("operator left the degree ball")
            cols.append([g.coeff(d) for d in window])
        out[name] = np.array(cols, dtype=complex).T
    return out


# -- serialization -------------------------------------------------------


def _matrix_to_json(M: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


def _matrix_from_json(data: list) -> np.ndarray:
    return np.array(
        [[complex(v[0], v[1]) for v in row] for row in data], dtype=complex
    )


def rep_to_json(r: Rep) -> dict:
    return {
        "dim": r.dim,
        "T0": _matrix_to_json(r.T0),
        "T1": _matrix_to_json(r.T1),
        "T0v": _matrix_to_json(r.T0v),
        "T1v": _matrix_to_json(r.T1v),
        "basis_labels": list(r.basis_labels),
        "provenance": r.provenance,
    }


def rep_from_json(data: dict) -> Rep:
    return Rep(
        dim=int(data["dim"]),
        T0=_matrix_from_json(data["T0"]),
        T1=_matrix_from_json(data["T1"]),
        T0v=_matrix_from_json(data["T0v"]),
        T1v=_matrix_from_json(data["T1v"]),
        basis_labels=[int(x) for x in data["basis_labels"]],
        provenance=dict(data.get("provenance", {})),
    )


__all__ = [
    "SignVector",
    "DimVector",
    "Rep",
    "apply_T0",
    "apply_T1",
    "apply_T0v_bar",
    "apply_T1v_bar",
    "build_quotient_rep",
    "verify_relations",
    "dim_vector",
    "spectrum_of_z",
    "rho_ladder",
    "commutant_dim",
    "rigidity_D",
    "conjugacy_class_dim",
    "kernel_dims",
    "build_truncated_polyrep",
    "rep_to_json",
    "rep_from_json",
    "NotOnStratumError",
    "IdealNotInvariantError",
    "DegenerateLadderError",
    "RelationResidualError",
    "RankIndeterminateError",
]

"""Polynomial-representation operators and the finite-dimensional quotients.

The four generators act on C[z^{+-1}] through difference operators of
Demazure-Lusztig shape T = sigma s + c(z) * (1 - s), with s one of the
involutions s0, s1; one table holds each generator's data.  On Laurent
polynomials the rational coefficient multiplies the difference f - s(f),
which its denominator divides exactly.  Finite-dimensional irreducibles
arise as quotients by a principal ideal (E) with simple roots; this
module builds them as explicit matrices in the basis of evaluation at
those roots and provides the diagnostics used by the classification
(dimension vector, z-spectrum, commutant, rigidity count), all read off
the blocks of the pairing that s0 or s1 makes of the roots.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from .core import (
    FACTORS,
    GENERATORS,
    Generator,
    Params,
    Tolerance,
    approx_eq,
    compare_arrays,
    decide,
    validate_params,
    worst,
)
from .laurent import (
    LaurentPoly,
    apply_s0,
    apply_s1,
    divide_exact,
    dual_ladder_roots,
    ladder_roots,
)
# unused here, kept as attributes: the benchmark's tracer wraps them
from .laurent import build_E, build_E_dual, reduce_mod  # noqa: F401
from .roots import (RootKind, RootVector, Type1E, Type1F, Type2, check_signs, kind_from_str,
                    kind_to_str, tits_form)
from .strata import one_leg, sigma_membership

IDEAL_RESIDUAL_MAX = 1e-6
RELATION_RESIDUAL_MAX = 1e-8


class NotOnStratumError(ValueError):
    """Construction requested off the kind's parameter stratum."""

    def __init__(self, kind: RootKind, failed: list[str]):
        self.kind = kind
        self.failed = failed
        super().__init__(
            f"parameters not on stratum of {kind_to_str(kind)}: failed {failed}"
        )

    def __reduce__(self):
        return type(self), (self.kind, self.failed)


class IdealNotInvariantError(ArithmeticError):
    """The candidate ideal is not stable under the generator action."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"ideal invariance residual {residual:.3e}")

    def __reduce__(self):
        return type(self), (self.residual,)


class RelationResidualError(ArithmeticError):
    """Constructed matrices violate a defining relation."""

    def __init__(self, residuals: dict[str, float]):
        self.residuals = residuals
        super().__init__(f"relation residual {worst(residuals.values()):.3e}")

    def __reduce__(self):
        return type(self), (self.residuals,)


class DegenerateLadderError(ArithmeticError):
    """The divisor's roots give no evaluation basis: two roots coincide,
    or a root is a fixed point of an involution."""


class RankIndeterminateError(ArithmeticError):
    """A matrix entry sits in the band between two decisions."""


class PairingError(ArithmeticError):
    """A matrix has a nonzero entry outside the pairing of its roots."""


@dataclass(frozen=True)
class SignVector:
    eps0: int = 1
    eps1: int = 1
    del0: int = 1
    del1: int = 1

    def __post_init__(self):
        check_signs(self, self.eps0, self.eps1, self.del0, self.del1)


@dataclass
class Rep:
    """Four square matrices realizing the generators in the evaluation
    basis at roots, the z-eigenvalues, their pairing, plus provenance.
    The dim is the number of roots, and basis vector i is root i."""

    T0: np.ndarray
    T1: np.ndarray
    T0v: np.ndarray
    T1v: np.ndarray
    roots: np.ndarray
    # the s0 and s1 partners of the roots, as read-only index arrays
    # shared by every rep of the ladder (see _ladder_pairs)
    pairs: tuple[np.ndarray, np.ndarray]
    provenance: dict = field(default_factory=dict)
    # (key, rows, quadratics, product) of the block diagnosis, kept for the
    # last content it was read off (see _diagnosis)
    _diagnosis: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.roots.size

    def generators(self) -> list[np.ndarray]:
        return [getattr(self, g.name) for g in GENERATORS]


# -- the generators ------------------------------------------------------


def _sigma_alpha_beta(g: Generator, sign: int, p: Params) -> tuple[complex, complex, complex]:
    """A directly-defined generator T = sigma s + c(z) (1 - s) has
    sigma = sign * t^sign and c = (alpha + beta w) / (1 - w^2) with
    alpha = t - 1/t and beta = b - 1/b.  For s1 (z -> 1/z) w is z; for
    s0 (z -> q/z) w is q^{1/2}/z.  Either way s acts by w -> 1/w, so
    the fixed points of s are the points with w^2 = 1."""
    t, b = getattr(p, g.t), getattr(p, g.b)
    return sign * t**sign, t - 1 / t, b - 1 / b


def _demazure_lusztig(f: LaurentPoly, g: Generator, sign: int, p: Params) -> LaurentPoly:
    """The generator g acting on a Laurent polynomial.

    c(z) (f - s f) is computed as num * (f - s f) / den, which divides
    exactly."""
    sigma, alpha, beta = _sigma_alpha_beta(g, sign, p)
    if g.involution == 0:
        sf = apply_s0(f, p.q)
        num = LaurentPoly({0: alpha, -1: beta * p.q_half})
        den = LaurentPoly({0: 1.0, -2: -p.q})
    else:
        sf = apply_s1(f)
        num = LaurentPoly({0: alpha, 1: beta})
        den = LaurentPoly({0: 1.0, 2: -1.0})
    return sf.scale(sigma) + divide_exact(num * (f - sf), den, p.tol)


def apply_T0(f: LaurentPoly, eps0: int, p: Params) -> LaurentPoly:
    """T0 = eps0 k0^eps0 s0 + [(k0-k0^-1) + (u0-u0^-1) q^{1/2} z^-1] (1 - s0)/(1 - q z^-2)."""
    return _demazure_lusztig(f, GENERATORS[0], eps0, p)


def apply_T1(f: LaurentPoly, eps1: int, p: Params) -> LaurentPoly:
    """T1 = eps1 k1^eps1 s1 + [(k1-k1^-1) + (u1-u1^-1) z] (1 - s1)/(1 - z^2)."""
    return _demazure_lusztig(f, GENERATORS[1], eps1, p)


def apply_T0v_bar(f: LaurentPoly, del0: int, p: Params) -> LaurentPoly:
    """T0v on the dual-side module: apply_T0 with k0 and u0 swapped."""
    return _demazure_lusztig(f, GENERATORS[2], del0, p)


def apply_T1v_bar(f: LaurentPoly, del1: int, p: Params) -> LaurentPoly:
    """T1v on the dual-side module: apply_T1 with k1 and u1 swapped."""
    return _demazure_lusztig(f, GENERATORS[3], del1, p)


# -- the ladder ----------------------------------------------------------


def _type2_a(s: SignVector, p: Params) -> complex:
    """The type-2 ladder parameter eps0 k0^eps0 * del0 u0^del0."""
    return s.eps0 * p.k0**s.eps0 * s.del0 * p.u0**s.del0


def _ladder(
    kind: RootKind, s: Optional[SignVector], p: Params
) -> tuple[str, tuple[int, int], complex, int, bool]:
    """(side, operator signs, ladder parameter a, signed level, dual):
    the divisor is build_E_dual(level, a) if dual, else build_E.  The
    operator signs are those of the side's s0 and s1 generators."""
    n, dual = _ladder_shape(kind)
    if isinstance(kind, Type2):
        sv = SignVector(*kind.signs)
        if s is not None and s != sv:
            raise ValueError("sign vector must match the type-2 kind")
        return "P", (sv.eps0, sv.eps1), _type2_a(sv, p), n, dual
    # the leg's generator takes the operator sign -e
    g, e = one_leg(kind)
    t, b = getattr(p, g.t), getattr(p, g.b)
    if dual:
        return g.side, (1, -e), e * t**e * b, n, dual
    return g.side, (-e, 1), -e * t ** -e * b, n, dual


def _ladder_shape(kind: RootKind) -> tuple[int, bool]:
    """(signed level, dual) of the kind's ladder: a type-2 kind's level; a
    one-leg kind's ladder at level -n on s0, its dual ladder at n on s1."""
    if isinstance(kind, Type2):
        return kind.n, False
    if isinstance(kind, (Type1E, Type1F)):
        dual = one_leg(kind)[0].involution == 1
        return (kind.n if dual else -kind.n), dual
    raise ValueError(f"no quotient for kind {kind!r}")


# -- the pairing ---------------------------------------------------------


@functools.lru_cache(maxsize=128)
def _ladder_pairs(n: int, dual: bool) -> tuple[int, tuple[np.ndarray, np.ndarray]]:
    """The roots of dual_ladder_roots(n, ...) if dual, else ladder_roots, are
    the symbols (1, e) of the upper chain, then (-1, e) of the lower, for
    the root a^sigma q_half^e.  Returns the upper chain's size and the s0
    and s1 partners: s0 (r -> q/r) maps (sigma, e) to (-sigma, 2 - e), s1
    (r -> 1/r) to (-sigma, -e), and a root whose image is no root is lone.
    The arrays depend on the level alone: every rep of the ladder shares
    them, read-only."""
    m = abs(n)
    if dual:
        plus, minus = range(0, -2 * m, -2), range(2, 2 * m + 2, 2)
    else:  # the upper chain stops short of 2m + 1 when n < 0
        plus, minus = range(1, 2 * m + 2 if n >= 0 else 2 * m, 2), range(1 - 2 * m, 0, 2)
    symbols = [(1, e) for e in plus] + [(-1, e) for e in minus]
    index = {sym: i for i, sym in enumerate(symbols)}
    pairs = tuple(np.array([index.get((-sg, k - e), i) for i, (sg, e) in enumerate(symbols)])
                  for k in (2, 0))
    for w in pairs:
        w.flags.writeable = False
    return len(plus), pairs


def _check_ladder(roots: np.ndarray, n_upper: int, p: Params) -> None:
    """Refuse roots that give no evaluation basis: two roots coincide, one
    of each chain (in one chain they differ by powers of q), or s0 (r ->
    q/r) or s1 (r -> 1/r) fixes one.  One compare_arrays pass of the roots,
    not of a^2 and q_half^k, which leave the float range first: equal or in
    the band raises, a meeting first, as at level 1 it is s1-fixed too."""
    upper, lower = np.broadcast_arrays(roots[:n_upper, None], roots[n_upper:])
    _, apart = compare_arrays(np.concatenate((upper.ravel(), roots, roots)),
                              np.concatenate((lower.ravel(), p.q / roots, 1 / roots)), p.tol)
    if not apart.all():  # argmin finds the first that is not apart
        which, i = divmod(int(apart.argmin()) - upper.size, roots.size)
        raise DegenerateLadderError("two roots of the divisor coincide" if which < 0
                                    else f"root {roots[i]:.6g} is a fixed point of s{which}")


def _rows(M: np.ndarray, w: np.ndarray) -> tuple:
    """Per row i of M on the pairing w: the diagonal entry, the entry in
    column w[i] (0 on a lone row) and the largest modulus elsewhere, or
    None when every other entry is 0."""
    rows = np.arange(w.size)
    if M.shape != (w.size, w.size):
        raise PairingError(f"a {M.shape} matrix on {w.size} roots")
    d, o = M.diagonal(), np.where(w == rows, 0.0, M[rows, w])
    if np.count_nonzero(M) == np.count_nonzero(d) + np.count_nonzero(o):
        return d, o, None
    rest = np.abs(M)
    rest[rows, rows] = rest[rows, w] = 0.0
    return d, o, rest.max(axis=1)


def _strict(rows: tuple) -> tuple:
    """The _rows of a matrix, or PairingError when an entry lies outside
    the pairing."""
    if rows[2] is not None:
        raise PairingError("a matrix entry lies outside the pairing of its roots")
    return rows


def _quadratic(
    rows: tuple, w: np.ndarray, e1: complex, e2: complex, tol: Tolerance
) -> tuple[float, Optional[int]]:
    """The residual of (M - e1)(M - e2) = 0 and rank(M - e1), block by
    block, from the _rows of M on the pairing w.

    A 2x2 block needs trace e1 + e2 and determinant e1 e2, each relative
    to the terms it sums; a lone entry x needs x = e1 or e2.  A pair adds
    1 to the rank (a Jordan block when e1 = e2), x adds 1 when x/e1 is
    apart from 1 (0 when e1 = e2), and a block adds its size when its
    largest entry outside the blocks, as a ratio to the block's scale, is
    apart from 0.  Each is core.decide; the rank is None when one sits in
    the band.  Python scalars: numpy kernels cost more at these sizes."""
    d, o, rest = rows
    d, o, rest = d.tolist(), o.tolist(), None if rest is None else rest.tolist()
    trace, det = e1 + e2, e1 * e2
    trace_scale, det_scale = abs(e1) + abs(e2), abs(det)
    scale, jordan = max(abs(e1), abs(e2)), approx_eq(e1 / e2, 1.0, tol)
    terms, rank = [0.0], 0  # the residual's terms, folded once at the end
    for i, j in enumerate(w.tolist()):
        if j < i:
            continue  # one row per block: a pair's first row, or a lone row
        if i == j:
            x = d[i]
            gap = abs(x / e1 - 1)
            terms.append(min(gap, abs(x / e2 - 1)))
            entry = False if jordan else decide(gap, max(abs(x / e1), 1.0), tol)
        else:
            di, dj, oi, oj = d[i], d[j], o[i], o[j]
            ad, bc = di * dj, oi * oj
            terms += (
                abs(di + dj - trace) / max(trace_scale, abs(di) + abs(dj)),
                abs(ad - bc - det) / max(det_scale, abs(ad) + abs(bc)),
            )
            entry = True
        stray = False
        if rest is not None and (rest[i] or rest[j]):  # entries outside the blocks
            size = abs(d[i]) if i == j else max(abs(d[i]), abs(d[j]), abs(o[i]), abs(o[j]))
            loose = worst((rest[i], rest[j])) / max(size, scale)
            terms.append(loose)
            stray = decide(loose, 1.0, tol)
        if rank is not None:
            # a stray makes the block's rows independent: a pair adds 2, a lone row 1
            add = (2 if i != j else 1) if stray else (None if stray is None else entry)
            rank = None if add is None else rank + add
    return worst(terms), rank


def _pair_product(a: tuple, b: tuple, w: np.ndarray) -> tuple:
    """Row i of A B on the pairing w, from the _rows of A and B: its
    diagonal entry and its entry in column w[i], each as its two terms."""
    (da, oa, _), (db, ob, _) = a, b
    return (da * db, oa * ob[w]), (da * ob, oa * db[w])


def _product(a1: tuple, a2: tuple, a3: tuple, a4: tuple,
             z: np.ndarray, s0: np.ndarray, s1: np.ndarray) -> float:
    """The residual of A4 A3 A1 A2 = 1, from the four factors' _rows, as
    A1 A2 = diag(z) on the s0 blocks and A4 A3 = diag(1/z) on the s1
    blocks, each entry relative to its terms; PairingError when an entry
    lies outside the pairing."""
    tops = []
    for a, b, want, w in ((a1, a2, z, s0), (a4, a3, 1 / z, s1)):
        for (s, t), target in zip(_pair_product(_strict(a), _strict(b), w), (want, 0.0)):
            scale = np.maximum(np.abs(s) + np.abs(t), np.abs(target))
            res = np.abs(s + t - target) / np.where(scale > 0, scale, 1.0)
            tops.append(float(res.max(initial=0.0)))
    return worst(tops)


# -- quotient construction -----------------------------------------------


def _eval_matrix(
    g: Generator, sign: int, p: Params, roots: np.ndarray, partner: np.ndarray
) -> tuple[np.ndarray, float]:
    """The generator's matrix in the evaluation basis at the roots, and
    its ideal certificate.

    (Tf)(r) = c(r) f(r) + (sigma - c(r)) f(s r), so a paired root's row
    holds c(r) on the diagonal and sigma - c(r) in the column of s(r).
    Near a lone root the two nearly cancel, so that entry is written in
    factored form, (w + b/sigma)(1/b - sigma w) / (1 - w^2), which holds
    for sigma = t and for sigma = -1/t.  At a lone root the
    ideal (E) is invariant only if sigma = c(r); the certificate is the
    worst |sigma - c(r)| / max(1, |sigma| + |c(r)|) over those roots,
    and their entry is sigma itself."""
    sigma, alpha, beta = _sigma_alpha_beta(g, sign, p)
    w = p.q_half / roots if g.involution == 0 else roots
    den = 1 - w * w
    c = (alpha + beta * w) / den
    b = getattr(p, g.b)
    off = (w + b / sigma) * (1 / b - sigma * w) / den
    rows = np.arange(roots.size)
    lone = partner == rows
    M = np.diag(np.where(lone, sigma, c))
    M[rows[~lone], partner[~lone]] = off[~lone]
    res = np.abs(sigma - c[lone]) / np.maximum(1.0, abs(sigma) + np.abs(c[lone]))
    return M, float(res.max(initial=0.0))


def _block_inverse(M: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """The inverse of a generator: a 2x2 block has eigenvalues t and -1/t,
    so determinant -1, and inverts by swapping and negating its diagonal."""
    d = np.diagonal(M)
    inv = M.copy()
    np.fill_diagonal(inv, np.where(partner == np.arange(d.size), 1 / d, -d[partner]))
    return inv


def build_quotient_rep(
    kind: RootKind,
    s: Optional[SignVector],
    p: Params,
    force: bool = False,
) -> Rep:
    """Construct the irreducible of the kind's dimension vector.

    The divisor E has simple roots, so evaluation at them identifies
    C[z^{+-1}]/(E) with C^dim: z acts by the diagonal matrix of the
    roots, and each directly-defined generator pairs a root r with s(r).
    The other two generators follow by exact block inversion and the
    z-action, as row or column scalings.  The ideal is certified stable
    and the five defining relations verified before the Rep is returned.

    The stratum guard refuses every point that classify refuses.  With
    force=True only validate_params runs (the certification still runs
    and fails off-stratum).
    """
    if force:
        validate_params(p)
    else:
        verdict = sigma_membership(p, kind)
        if not verdict.member:
            raise NotOnStratumError(kind, verdict.failed_conditions)
    side, signs, a, n, dual = _ladder(kind, s, p)
    roots = np.array((dual_ladder_roots if dual else ladder_roots)(n, a, p.q_half), dtype=complex)
    n_upper, (s0, s1) = _ladder_pairs(n, dual)
    _check_ladder(roots, n_upper, p)
    (A, res_a), (B, res_b) = (
        _eval_matrix(g, sign, p, roots, (s0, s1)[g.involution])
        for g, sign in zip((g for g in GENERATORS if g.side == side), signs)
    )
    ideal_res = worst((res_a, res_b))
    if not ideal_res <= IDEAL_RESIDUAL_MAX:
        raise IdealNotInvariantError(ideal_res)

    # q^{1/2} T0 T0v and (T1v T1)^{-1} both act by z = diag(roots)
    if side == "P":
        T0, T1 = A, B
        T0v = _block_inverse(T0, s0) * (roots / p.q_half)
        T1v = _block_inverse(T1, s1) / roots[:, None]
    else:
        T0v, T1v = A, B
        T1 = _block_inverse(T1v, s1) / roots
        T0 = (roots[:, None] / p.q_half) * _block_inverse(T0v, s0)

    rep = Rep(
        T0, T1, T0v, T1v, roots, (s0, s1),
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
    if not worst(residuals.values()) <= RELATION_RESIDUAL_MAX:
        raise RelationResidualError(residuals)
    return rep


# -- diagnostics ---------------------------------------------------------


def ds_factors(r: Rep, p: Params) -> tuple[np.ndarray, ...]:
    """The rep's four factors (A1, A2, A3, A4) = (q^{1/2} T0, T0v, T1, T1v)."""
    a1, *rest = (getattr(r, g.name) for g in FACTORS)
    return (p.q_half * a1, *rest)


def _diagnosis(r: Rep, p: Params, product: bool) -> tuple[dict, list, Optional[float]]:
    """The rows of each matrix on its pairing, by generator name and "A1"
    for q^{1/2} T0 (see _rows); each generator's (residual, rank) of
    (T - t)(T + 1/t) = 0, in GENERATORS order; and the product residual of
    the ds factors, or None unless asked for.  The rep keeps them for the
    last (params, roots, pairs, matrices) content, so a change to any of
    those is read afresh; the product is computed on its first request,
    as its strict pairing check raises where the quadratics do not.
    A1's rows are read off the dense product, as ds_factors makes it, so
    the product residual is _product's on the ds factors' _rows to the bit:
    numpy's complex multiply may round strided and contiguous inputs
    differently."""
    content = [r.roots, *r.pairs, *r.generators()]
    key = (p, *((M.dtype.str, M.shape, M.tobytes()) for M in content))
    if r._diagnosis is None or r._diagnosis[0] != key:
        rows = {g.name: _rows(getattr(r, g.name), r.pairs[g.involution]) for g in GENERATORS}
        rows["A1"] = _rows(p.q_half * r.T0, r.pairs[0])
        quads = [_quadratic(rows[g.name], r.pairs[g.involution], getattr(p, g.t),
                            -1 / getattr(p, g.t), p.tol) for g in GENERATORS]
        r._diagnosis = (key, rows, quads, None)
    key, rows, quads, prod = r._diagnosis
    if product and prod is None:
        prod = _product(rows["A1"], *(rows[g.name] for g in FACTORS[1:]), r.roots, *r.pairs)
        r._diagnosis = (key, rows, quads, prod)
    return rows, quads, prod


def verify_relations(r: Rep, p: Params) -> dict[str, float]:
    """Residuals of the five relations, block by block: each quadratic, and
    the product as q^{1/2} T0 T0v = z on s0 blocks, T1v T1 = z^-1 on s1."""
    _, quads, prod = _diagnosis(r, p, True)
    out = {f"quad.{g.name}": res for g, (res, _) in zip(GENERATORS, quads)}
    out["product"] = prod
    return out


def dim_vector(r: Rep, p: Params) -> RootVector:
    """(dim, rank(T0-k0), rank(T1-k1), rank(T0v-u0), rank(T1v-u1)) off the blocks."""
    ranks = [rank for _, rank in _diagnosis(r, p, False)[1]]
    if None in ranks:
        raise RankIndeterminateError("a matrix entry sits near a rank threshold")
    return RootVector(r.dim, *ranks)


def spectrum_of_z(r: Rep, p: Params) -> list[complex]:
    """Eigenvalues of q^{1/2} T0 T0v on the s0 blocks: per 2x2 block the
    root of x^2 - tau x + delta of larger modulus, and delta over it."""
    rows, w = _diagnosis(r, p, False)[0], r.pairs[0]
    diag, off = (s + t for s, t in _pair_product(rows["A1"], rows["T0v"], w))
    tau, delta = diag + diag[w], diag * diag[w] - off * off[w]
    root = np.sqrt(tau * tau - 4 * delta)
    big = (tau + np.where(np.abs(tau + root) >= np.abs(tau - root), root, -root)) / 2
    first, lone = w > np.arange(r.dim), w == np.arange(r.dim)
    return [complex(v) for v in np.concatenate((big[first], delta[first] / big[first], diag[lone]))]


def rho_ladder(s: SignVector, n: int, p: Params) -> list[complex]:
    """Expected z-eigenvalues rho_{-n}..rho_n of a type-2 quotient on
    side P: a*q^{1/2+i} for i >= 0 and a^{-1}*q^{1/2+i} for i < 0."""
    a = _type2_a(s, p)
    return [(a if i >= 0 else 1 / a) * p.q_half ** (1 + 2 * i) for i in range(-n, n + 1)]


def commutant_dim(r: Rep, p: Params) -> int:
    """Dimension of the joint commutant of the four generators; 1 means
    irreducible.  z = diag(roots) has distinct entries, so the commutant
    is diagonal, and x_i = x_j wherever the block of a pair (i, j) has an
    off-diagonal entry: it counts the components of the graph of those
    pairs.  A block's larger off-diagonal entry, as a ratio to its largest
    entry, is an edge when core.decide calls that ratio apart from 0; in
    the band, RankIndeterminateError."""
    rows, label = _diagnosis(r, p, False)[0], list(range(r.dim))
    for which, w in enumerate(r.pairs):
        weight = np.zeros(r.dim)
        for d, o, _ in (_strict(rows[g.name]) for g in GENERATORS if g.involution == which):
            off = np.maximum(np.abs(o), np.abs(o[w]))
            size = np.maximum.reduce([np.abs(d), np.abs(d[w]), off])
            weight = np.maximum(weight, off / np.where(size > 0, size, 1.0))
        for i in np.flatnonzero(w > np.arange(r.dim)).tolist():
            edge = decide(weight[i], 1.0, p.tol)
            if edge is None:
                raise RankIndeterminateError("commutant entry near threshold")
            if edge:  # merge the component of w[i] into that of i
                label = [label[i] if x == label[w[i]] else x for x in label]
    return len(set(label))


def rigidity_D(n: int, d1: int, d2: int, d3: int, d4: int) -> int:
    """2(1 - q(n, d1, d2, d3, d4)), q the Tits form: the moduli dimension of
    the conjugacy data, 0 on every rigid representation.  q is unchanged by
    d -> n - d, so the d_i may be kernel dimensions dim Ker(T - t) or ranks."""
    for d in (d1, d2, d3, d4):
        if d < 0 or d > n:
            raise ValueError("kernel dimensions must lie in [0, n]")
    return 2 * (1 - tits_form(RootVector(n, d1, d2, d3, d4)))


def build_truncated_polyrep(
    side: Literal["P", "Pbar"],
    s: SignVector,
    N: int,
    p: Params,
) -> dict:
    """Matrices of the two directly-defined generators on the degree
    ball [-N, N]; exact because the operators preserve every such ball."""
    validate_params(p)
    window = list(range(-N, N + 1))
    out: dict = {"basis_labels": window}
    for g, sign in zip(GENERATORS, (s.eps0, s.eps1, s.del0, s.del1)):
        if g.side != side:
            continue
        cols = []
        for j in window:
            h = _demazure_lusztig(LaurentPoly.monomial(j), g, sign, p)
            if not h.is_zero() and (h.min_degree < -N or h.max_degree > N):
                raise ArithmeticError("operator left the degree ball")
            cols.append([h.coeff(d) for d in window])
        out[g.name] = np.array(cols, dtype=complex).T
    return out


# -- serialization -------------------------------------------------------


def _matrix_to_json(M: np.ndarray) -> list:
    """Rows of [re, im] float pairs."""
    return np.stack((M.real, M.imag), axis=-1).astype(float).tolist()


def _pairs_from_json(data, shape: tuple[int, ...]) -> Optional[np.ndarray]:
    """Stored [re, im] pairs as a complex array of the given shape, each
    entry complex(re, im); None unless the data are numbers of that shape."""
    parts = np.array(data, dtype=object)
    if parts.shape != (*shape, 2) or not set(map(type, parts.ravel().tolist())) <= {int, float}:
        return None
    return parts.astype(float).view(complex)[..., 0]


def rep_to_json(r: Rep) -> dict:
    return {
        "dim": r.dim,
        **{g.name: _matrix_to_json(getattr(r, g.name)) for g in GENERATORS},
        "basis_labels": list(range(r.dim)),
        "provenance": r.provenance,
    }


def rep_from_json(data) -> Rep:
    """The stored rep, its roots paired as the ladder of its kind; refuses
    one that is not a JSON object, that lacks a field, its roots or kind,
    or whose values are not of the shapes its dim gives: dim x dim matrices
    and dim roots of finite numbers (not JSON true or false, NaN or
    Infinity), and the integer labels 0..dim-1."""
    if not isinstance(data, dict):
        raise ValueError("stored representation is not a JSON object")
    names = [g.name for g in GENERATORS]
    missing = [key for key in ("dim", *names, "basis_labels") if key not in data]
    if missing:
        raise ValueError(f"stored representation has no {', '.join(missing)}")
    provenance = data.get("provenance", {})
    if not isinstance(provenance, dict) or "roots" not in provenance:
        raise ValueError("stored representation has no provenance roots")
    dim, labels = data["dim"], data["basis_labels"]
    if type(dim) is not int or not isinstance(labels, list) or set(map(type, labels)) - {int}:
        raise ValueError("stored representation has a dim or basis_labels that is not integer")
    roots = _pairs_from_json(provenance["roots"], (dim,))
    mats = [_pairs_from_json(data[name], (dim, dim)) for name in names]
    wrong = [key for key, v in zip(("roots", *names), (roots, *mats)) if v is None]
    if wrong:
        raise ValueError(
            f"stored representation of dim {dim} has {', '.join(wrong)} of another shape"
        )
    if labels != list(range(dim)):
        raise ValueError(f"stored representation of dim {dim} has basis_labels other than 0..{dim - 1}")
    bad = [key for key, v in zip(("roots", *names), (roots, *mats)) if not np.isfinite(v).all()]
    if bad:
        raise ValueError(f"stored representation has a NaN or infinite entry in {', '.join(bad)}")
    kind = provenance.get("kind")
    if not isinstance(kind, str):
        raise ValueError("stored representation has no provenance kind")
    _, pairs = _ladder_pairs(*_ladder_shape(kind_from_str(kind)))
    if pairs[0].size != dim:
        raise ValueError(f"stored representation of dim {dim} has kind {kind} of dim {pairs[0].size}")
    return Rep(*mats, roots, pairs, provenance=dict(provenance))


__all__ = [
    "SignVector",
    "Rep",
    "apply_T0",
    "apply_T1",
    "apply_T0v_bar",
    "apply_T1v_bar",
    "build_quotient_rep",
    "verify_relations",
    "dim_vector",
    "spectrum_of_z",
    "ds_factors",
    "rho_ladder",
    "commutant_dim",
    "rigidity_D",
    "build_truncated_polyrep",
    "rep_to_json",
    "rep_from_json",
    "NotOnStratumError",
    "IdealNotInvariantError",
    "DegenerateLadderError",
    "RelationResidualError",
    "RankIndeterminateError",
    "PairingError",
]

"""Dense oracles for the block diagnostics of daha_cc1.rep.

The library reads its relation residuals, ranks and commutant off the
pairing of the roots.  These are the dense computations it replaced,
kept to cross-check it in any basis: the normalized spectral-norm
relation residuals from one batched SVD, rank by singular values, and
the commutant as the nullity of the Sylvester system.  The library pairs
the roots by their ladder symbols; the float matcher it replaced is kept
here too, to cross-check that pairing.  So are the three-regex literal
parser that core.parse_scalar's one grammar replaced, and the sign-then-
modulus spelling that core.format_scalar's one template replaced.  The quadratic
check, the spectrum and the commutant are also read off each matrix's
own dense rows, every scale taken afresh, to check bit for bit the rows
the library's kept diagnosis shares and its loop's hoisted scales; the
product problem's class check is read off the ds factors' dense rows,
with their eigenvalue pairs from xi_table.

The per-kind stratum values, each a Python expression in the
parameters, are the ones strata's numpy values replaced: the oracle that
its stratum cells are checked against.

Two oracles stand apart from the library's rules.  Sigma_xi membership
(Crawley-Boevey and Shaw, Adv. Math. 201 (2006)) decides classify from
root arithmetic alone, and the Burnside rank decides irreducibility from
the algebra the four matrices generate.
"""

import re
from functools import lru_cache
from itertools import product

import numpy as np

from daha_cc1.core import (FACTORS, GENERATORS, Params, Tolerance, approx_eq, clearly_neq,
                           decide, worst)
from daha_cc1.dsbridge import xi_product, xi_table
from daha_cc1.rep import DegenerateLadderError, RankIndeterminateError, Rep, ds_factors
from daha_cc1.roots import RootVector, enumerate_strict_roots, tits_form

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


def signed_format_scalar(z: complex) -> str:
    """The spelling core.format_scalar replaced: the real part, then the
    sign of the i-part and its modulus, each to 12 significant digits."""
    re_s = format(z.real, ".12g")
    if z.imag == 0.0:
        return re_s
    sign = "+" if z.imag >= 0 else "-"
    im_s = format(abs(z.imag), ".12g")
    return f"{re_s}{sign}{im_s}i"


def signed_product(p: Params, signs: tuple[int, int, int, int]) -> complex:
    """eps1 k1^eps1 * eps0 k0^eps0 * del1 u1^del1 * del0 u0^del0."""
    eps0, eps1, del0, del1 = signs
    return (
        eps1 * p.k1**eps1
        * eps0 * p.k0**eps0
        * del1 * p.u1**del1
        * del0 * p.u0**del0
    )


def signed_products(p: Params) -> list[complex]:
    """signed_product(p, signs) for every sign vector (eps0, eps1, del0,
    del1) in product((1, -1), repeat=4) order: the same left-to-right
    products, sharing their prefixes."""
    (k0, k0_), (k1, k1_), (u0, u0_), (u1, u1_) = (
        (x**1, x**-1) for x in (p.k0, p.k1, p.u0, p.u1))
    # eps1 k1^eps1 * eps0 k0^eps0, then * del1 u1^del1 * del0 u0^del0
    k1p, k1m = 1 * k1, -1 * k1_
    out = []
    for head in (k1p * 1 * k0, k1m * 1 * k0, k1p * -1 * k0_, k1m * -1 * k0_):
        u1p, u1m = head * 1 * u1, head * -1 * u1_
        out += (u1p * 1 * u0, u1m * 1 * u0, u1p * -1 * u0_, u1m * -1 * u0_)
    return out


def point_values(p: Params, n: int) -> list[complex]:
    """Point p's 24 row values, then its level values of the three row
    groups (products, products, t^(2s)), as the per-kind Python
    expressions, in the layout of a row of strata._values: the signed
    products, t^(2s), then q_half^(-1-2m) twice and -(q^m), m = 0..n.
    Python's ** raises OverflowError or ZeroDivisionError where a power
    leaves the float range."""
    qh, q = p.q_half, p.q
    product_rhs = [qh ** (-1 - 2 * m) for m in range(n + 1)]
    neg_q_powers = [-(q**m) for m in range(n + 1)]
    values = signed_products(p)
    values += (p.k0**2, p.k0**-2, p.k1**2, p.k1**-2, p.u0**2, p.u0**-2, p.u1**2, p.u1**-2)
    return values + product_rhs + product_rhs + neg_q_powers


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


def _dense_rows(M: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal of M and its entry in column w[i] of each row i (0 on
    a lone row), read off M itself."""
    rows = np.arange(w.size)
    return M.diagonal(), np.where(w == rows, 0.0, M[rows, w])


def dense_block_quadratic(
    M: np.ndarray, w: np.ndarray, e1: complex, e2: complex, tol: Tolerance
) -> tuple:
    """rep._quadratic's (residual, rank) of M on the pairing w, each block
    read off M and every scale taken afresh."""
    d, o = (a.tolist() for a in _dense_rows(M, w))
    rows, rest = np.arange(w.size), np.abs(M)
    rest[rows, rows] = rest[rows, w] = 0.0
    rest = rest.max(axis=1).tolist()
    scale, jordan = max(abs(e1), abs(e2)), approx_eq(e1 / e2, 1.0, tol)
    terms, rank = [0.0], 0
    for i, j in enumerate(w.tolist()):
        if j < i:
            continue
        if i == j:
            x = d[i]
            gap = abs(x / e1 - 1)
            terms.append(min(gap, abs(x / e2 - 1)))
            entry = False if jordan else decide(gap, max(abs(x / e1), 1.0), tol)
            size = abs(x)
        else:
            ad, bc = d[i] * d[j], o[i] * o[j]
            terms += (
                abs(d[i] + d[j] - (e1 + e2)) / max(abs(e1) + abs(e2), abs(d[i]) + abs(d[j])),
                abs(ad - bc - e1 * e2) / max(abs(e1 * e2), abs(ad) + abs(bc)),
            )
            entry, size = True, max(abs(d[i]), abs(d[j]), abs(o[i]), abs(o[j]))
        stray = False
        if rest[i] or rest[j]:
            loose = worst((rest[i], rest[j])) / max(size, scale)
            terms.append(loose)
            stray = decide(loose, 1.0, tol)
        if rank is not None:
            add = (2 if i != j else 1) if stray else (None if stray is None else entry)
            rank = None if add is None else rank + add
    return worst(terms), rank


def dense_class_membership(r: Rep, p: Params, alpha: RootVector) -> bool:
    """dsbridge.verify_class_membership's verdict off each ds factor's own
    dense rows: the factor's quadratic with its eigenvalue pair from
    xi_table, and its rank against its generator's leg of alpha.  A rank
    in the band raises RankIndeterminateError."""
    quads = [dense_block_quadratic(M, r.pairs[g.involution], e1, e2, p.tol)
             for M, g, (e1, e2) in zip(ds_factors(r, p), FACTORS, xi_table(p))]
    if any(rank is None for _, rank in quads):
        raise RankIndeterminateError("a factor's rank is indeterminate")
    return r.dim == alpha.a0 and all(res <= p.tol.ineq_margin and rank == alpha[g.leg]
                                     for g, (res, rank) in zip(FACTORS, quads))


def pair_product_spectrum(r: Rep, p: Params) -> list[complex]:
    """The z-spectrum as eigenvalues of the s0 blocks of the dense
    q^{1/2} T0 times T0v, each row of the product as its two terms: per
    2x2 block the root of x^2 - tau x + delta of larger modulus, and delta
    over it."""
    w = r.pairs[0]
    (da, oa), (db, ob) = (_dense_rows(M, w) for M in (p.q_half * r.T0, r.T0v))
    diag, off = da * db + oa * ob[w], da * ob + oa * db[w]
    tau, delta = diag + diag[w], diag * diag[w] - off * off[w]
    root = np.sqrt(tau * tau - 4 * delta)
    big = (tau + np.where(np.abs(tau + root) >= np.abs(tau - root), root, -root)) / 2
    first, lone = w > np.arange(r.dim), w == np.arange(r.dim)
    return [complex(v) for v in np.concatenate((big[first], delta[first] / big[first], diag[lone]))]


def block_commutant_dim(r: Rep, p: Params) -> int:
    """The commutant dimension as components of the graph of pairs whose
    block, in some generator, has an off-diagonal entry apart from 0 as a
    ratio to the block's largest entry, each read off the generator's own
    dense rows.  For reps with no entry outside the pairing."""
    label = list(range(r.dim))
    for which, w in enumerate(r.pairs):
        weight = np.zeros(r.dim)
        for g in GENERATORS:
            if g.involution == which:
                d, o = _dense_rows(getattr(r, g.name), w)
                off = np.maximum(np.abs(o), np.abs(o[w]))
                size = np.maximum.reduce([np.abs(d), np.abs(d[w]), off])
                weight = np.maximum(weight, off / np.where(size > 0, size, 1.0))
        for i in np.flatnonzero(w > np.arange(r.dim)).tolist():
            edge = decide(weight[i], 1.0, p.tol)
            if edge is None:
                raise RankIndeterminateError("commutant entry near threshold")
            if edge:
                label = [label[i] if x == label[w[i]] else x for x in label]
    return len(set(label))


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


@lru_cache(maxsize=4)
def positive_roots(n_max: int) -> tuple[RootVector, ...]:
    """The positive roots of the star graph that fit under a strict root
    of level n_max, by a box search: a0 <= 2 n_max + 1, each leg <=
    n_max + 1, entries nonnegative, not all 0, Tits form at most 1."""
    box = product(range(2 * n_max + 2), *[range(n_max + 2)] * 4)
    return tuple(v for v in map(RootVector._make, box) if any(v) and tits_form(v) <= 1)


def sigma_xi_hits(p: Params, n_max: int) -> list:
    """The strict real roots up to level n_max in Sigma_xi at p, as
    (kind, vec) in enumeration order, as classify_params lists them: alpha
    is a hit when xi^[alpha] equals 1 within eq_tol, and alpha is not a
    sum of two or more positive roots whose xi is each not clearly apart
    from 1."""
    top = (2 * n_max + 1, *[n_max + 1] * 4)
    # every strict root up to level n_max is among the positive roots,
    # and the leg roots are the only ones with a leg above a0
    xi = {b: xi_product(b, p) for b in positive_roots(n_max)}
    close = [b for b, x in xi.items() if not clearly_neq(x, 1.0, p.tol)]
    sums, frontier = set(close), set(close)  # the sums of one or more close roots
    while frontier:
        frontier = {s + b for s in frontier for b in close
                    if all(x + y <= t for x, y, t in zip(s, b, top))} - sums
        sums |= frontier
    return [(kind, alpha) for kind, alpha in enumerate_strict_roots(n_max)
            if approx_eq(xi[alpha], 1.0, p.tol)
            and not any(RootVector(*(a - b for a, b in zip(alpha, beta))) in sums
                        for beta in close)]


def burnside_rank(mats, rank_tol: float = 1e-9) -> int:
    """The dimension of the algebra the d x d matrices generate: the span
    of every word in them, the empty word included.  By Burnside's
    theorem they act irreducibly iff it is d^2.  The span grows from the
    identity by right multiplication, each new part's orthonormal rows
    times each generator, until it stops; a candidate direction whose
    size, as a ratio to the unit candidates, sits within a factor 10 of
    rank_tol raises RankIndeterminateError.  Keep it to d <= 13."""
    d = mats[0].shape[0]
    assert d <= 13
    gens = [M / np.linalg.norm(M) for M in mats]
    basis = np.eye(d, dtype=complex).reshape(1, -1) / np.sqrt(d)
    new = basis
    while new.size:
        cand = np.array([(W.reshape(d, d) @ G).ravel() for W in new for G in gens])
        cand /= np.maximum(np.linalg.norm(cand, axis=1), 1e-300)[:, None]
        for _ in range(2):  # project out the span twice, for orthogonality
            cand -= (cand @ basis.conj().T) @ basis
        _, sv, vh = np.linalg.svd(cand, full_matrices=False)
        if ((sv > rank_tol / 10) & (sv < rank_tol * 10)).any():
            raise RankIndeterminateError("a word's new direction sits near the rank threshold")
        new = vh[sv > rank_tol]
        basis = np.vstack((basis, new))
    return basis.shape[0]

import copy
import dataclasses
import importlib.util
import os
import sys
from itertools import product

import numpy as np
import pytest

from daha_cc1.core import GENERATORS, Params, Tolerance
from daha_cc1.laurent import (
    LaurentPoly,
    build_E,
    build_E_dual,
    canonical_window,
    dual_ladder_roots,
    ladder_roots,
    reduce_mod,
)
from daha_cc1.rep import (
    RELATION_RESIDUAL_MAX,
    DegenerateLadderError,
    DimVector,
    IdealNotInvariantError,
    NotOnStratumError,
    PairingError,
    RankIndeterminateError,
    RelationResidualError,
    Rep,
    SignVector,
    _diagnosis,
    _ladder,
    _ladder_pairs,
    apply_T0,
    apply_T0v_bar,
    apply_T1,
    apply_T1v_bar,
    block_quadratic,
    build_quotient_rep,
    build_truncated_polyrep,
    commutant_dim,
    dim_vector,
    rep_from_json,
    rep_to_json,
    rho_ladder,
    rigidity_D,
    spectrum_of_z,
    verify_relations,
)
from daha_cc1 import rep as rep_module
from daha_cc1.dsbridge import (
    ProductNotIdentityError,
    check_product,
    class_spec_from_root,
    verify_class_membership,
)
from daha_cc1.roots import Imaginary, RootVector, Type1E, Type1F, Type2, root_of_kind
from daha_cc1.strata import sample_generic_params, sample_stratum_params
from oracles import dense_dim_vector, float_pairings, numerical_rank, sylvester_commutant_dim

Z = LaurentPoly.monomial(1)
ONE = LaurentPoly.one()

# the 24 real kind families, as functions of the level
FAMILIES = (
    [lambda n, s=s: Type2(*s, n) for s in product((1, -1), repeat=4)]
    + [lambda n, i=i, e=e: Type1E(i, e, n) for i in (0, 1) for e in (1, -1)]
    + [lambda n, i=i, d=d: Type1F(i, d, n) for i in (0, 1) for d in (1, -1)]
)


def quotient_data(kind, s, p: Params):
    """(side, operator signs, divisor E, ladder parameter a, E's roots),
    for the ladder that build_quotient_rep evaluates at."""
    side, signs, a, n, dual = _ladder(kind, s, p)
    if dual:
        return side, signs, build_E_dual(n, a, p.q_half), a, dual_ladder_roots(n, a, p.q_half)
    return side, signs, build_E(n, a, p.q_half), a, ladder_roots(n, a, p.q_half)


def monomial_window_matrices(kind, p: Params) -> tuple[dict, list[int]]:
    """The four generators in the monomial window basis of C[z^{+-1}]/(E),
    reduced with reduce_mod from the Laurent actions: the construction
    that the evaluation basis replaced, kept as a cross-check."""
    side, signs, E, _, _ = quotient_data(kind, None, p)
    win = canonical_window(E)
    window = list(range(win[0], win[1] + 1))

    def matrix(op):
        cols = [reduce_mod(op(LaurentPoly.monomial(j)), E, win) for j in window]
        return np.array([[g.coeff(d) for d in window] for g in cols], dtype=complex).T

    Zm = matrix(lambda f: f.shift(1))
    Zi = matrix(lambda f: f.shift(-1))
    eye = np.eye(len(window))
    if side == "P":
        T0 = matrix(lambda f: apply_T0(f, signs[0], p))
        T1 = matrix(lambda f: apply_T1(f, signs[1], p))
        T0v = (1 / p.q_half) * (T0 - (p.k0 - 1 / p.k0) * eye) @ Zm
        T1v = Zi @ (T1 - (p.k1 - 1 / p.k1) * eye)
    else:
        T0v = matrix(lambda f: apply_T0v_bar(f, signs[0], p))
        T1v = matrix(lambda f: apply_T1v_bar(f, signs[1], p))
        T1 = (T1v - (p.u1 - 1 / p.u1) * eye) @ Zi
        T0 = (1 / p.q_half) * Zm @ (T0v - (p.u0 - 1 / p.u0) * eye)
    return {"T0": T0, "T1": T1, "T0v": T0v, "T1v": T1v}, window


def test_constants_are_eigenvectors(generic_params):
    p = generic_params
    assert apply_T0(ONE, 1, p).approx_eq(ONE.scale(p.k0))
    assert apply_T1(ONE, 1, p).approx_eq(ONE.scale(p.k1))
    assert apply_T0v_bar(ONE, 1, p).approx_eq(ONE.scale(p.u0))
    assert apply_T1v_bar(ONE, 1, p).approx_eq(ONE.scale(p.u1))


def test_T1_on_z(generic_params):
    p = generic_params
    expected = LaurentPoly({-1: 1 / p.k1, 0: -(p.u1 - 1 / p.u1)})
    assert apply_T1(Z, 1, p).approx_eq(expected)


def test_operators_satisfy_quadratic_on_polynomials(generic_params):
    p = generic_params
    for op, t in (
        (lambda f: apply_T0(f, 1, p), p.k0),
        (lambda f: apply_T1(f, 1, p), p.k1),
        (lambda f: apply_T0v_bar(f, 1, p), p.u0),
        (lambda f: apply_T1v_bar(f, 1, p), p.u1),
    ):
        for j in range(-3, 4):
            f = LaurentPoly.monomial(j)
            lhs = op(op(f)) - op(f).scale(t - 1 / t)
            assert lhs.approx_eq(f), j


def test_truncated_polyrep_quadratics(generic_params):
    p = generic_params
    for side, pairs in (
        ("P", (("T0", p.k0), ("T1", p.k1))),
        ("Pbar", (("T0v", p.u0), ("T1v", p.u1))),
    ):
        mats = build_truncated_polyrep(side, SignVector(), 5, p)
        assert mats["basis_labels"] == list(range(-5, 6))
        for name, t in pairs:
            M = mats[name]
            eye = np.eye(11)
            res = np.linalg.norm((M - t * eye) @ (M + eye / t), 2)
            assert res < 1e-9 * max(1.0, np.linalg.norm(M, 2) ** 2)


def test_one_dimensional_rep(one_dim_params):
    p = one_dim_params
    r = build_quotient_rep(Type2(1, 1, 1, 1, 0), None, p)
    assert r.dim == 1
    for M, t in zip(r.generators(), (p.k0, p.k1, p.u0, p.u1)):
        assert abs(M[0, 0] - t) < 1e-12
    assert max(verify_relations(r, p).values()) < 1e-12
    assert dim_vector(r, p) == DimVector(1, 0, 0, 0, 0)


def test_type2_level1_rep(rng):
    kind = Type2(1, 1, 1, 1, 1)
    p = sample_stratum_params(kind, rng)
    r = build_quotient_rep(kind, None, p)
    assert r.dim == 3
    assert max(verify_relations(r, p).values()) < 1e-8
    assert dim_vector(r, p).as_tuple() == (3, 1, 1, 1, 1)
    assert commutant_dim(r, p) == 1
    assert rigidity_D(*dim_vector(r, p).as_tuple()) == 0


@pytest.mark.parametrize(
    "kind",
    [Type1E(0, 1, 2), Type1E(1, -1, 2), Type1F(0, -1, 2), Type1F(1, 1, 2)],
)
def test_one_leg_reps(kind, rng):
    p = sample_stratum_params(kind, rng)
    r = build_quotient_rep(kind, None, p)
    assert dim_vector(r, p).as_tuple() == tuple(root_of_kind(kind))
    assert commutant_dim(r, p) == 1


def test_spectrum_matches_rho_ladder(rng):
    kind = Type2(1, -1, 1, -1, 2)
    p = sample_stratum_params(kind, rng)
    r = build_quotient_rep(kind, None, p)
    got = spectrum_of_z(r, p)
    expected = rho_ladder(SignVector(*kind.signs), kind.n, p)
    for e in expected:
        assert min(abs(e - g) for g in got) < 1e-6 * max(1.0, abs(e))


def test_spectrum_equals_divisor_roots(rng):
    kind = Type1E(1, 1, 2)
    p = sample_stratum_params(kind, rng)
    _, _, _, _, roots = quotient_data(kind, None, p)
    r = build_quotient_rep(kind, None, p)
    got = spectrum_of_z(r, p)
    for root in roots:
        assert min(abs(root - g) for g in got) < 1e-6 * max(1.0, abs(root))


def test_off_stratum_is_rejected(generic_params):
    with pytest.raises(NotOnStratumError) as exc:
        build_quotient_rep(Type2(1, 1, 1, 1, 1), None, generic_params)
    assert exc.value.failed


def test_forced_construction_fails_loudly(generic_params):
    with pytest.raises((IdealNotInvariantError, RelationResidualError)) as exc:
        build_quotient_rep(Type2(1, 1, 1, 1, 1), None, generic_params, force=True)
    if isinstance(exc.value, IdealNotInvariantError):
        assert exc.value.residual > 1e-4
    else:
        assert max(exc.value.residuals.values()) > 1e-4


def test_imaginary_kind_rejected(generic_params):
    with pytest.raises(ValueError):
        build_quotient_rep(Imaginary(1), None, generic_params)


def test_sign_vector_must_match_kind(rng):
    kind = Type2(1, -1, 1, 1, 0)
    p = sample_stratum_params(kind, rng)
    with pytest.raises(ValueError):
        build_quotient_rep(kind, SignVector(1, 1, 1, 1), p)


def test_numerical_rank_basics():
    assert numerical_rank(np.zeros((3, 3)), 1e-9) == 0
    assert numerical_rank(np.diag([2.0, 1.0, 1e-14]), 1e-9) == 2
    with pytest.raises(RankIndeterminateError):
        numerical_rank(np.diag([1.0, 1e-9]), 1e-9)


def test_rigidity_counts():
    assert rigidity_D(3, 2, 2, 2, 2) == 0
    assert rigidity_D(2, 1, 1, 1, 1) == 2
    assert rigidity_D(1, 0, 0, 0, 0) == 0
    with pytest.raises(ValueError):
        rigidity_D(2, 3, 0, 0, 0)


def test_commutant_of_direct_sum_is_two():
    # parameters chosen so two different sign vectors solve the 1-dim
    # product equality: u1*k1*k0*u0 = q^{-1/2} holds both with all-plus
    # eigenvalues and after the twist (t0, t1v) -> (-1/k0, -1/u1),
    # because u1*k0 = 1 here
    p = Params(k0=2.0, k1=3.0, u0=1.0 / 6.0, u1=0.5, q_half=2.0)
    r1 = build_quotient_rep(Type2(1, 1, 1, 1, 0), None, p)
    eigs1 = (p.k0, p.k1, p.u0, p.u1)
    eigs2 = (-1 / p.k0, p.k1, p.u0, -1 / p.u1)
    for e0, e1, e0v, e1v in (eigs1, eigs2):
        assert abs(e1v * e1 * e0 * e0v - 1 / p.q_half) < 1e-12
    for M, e in zip(r1.generators(), eigs1):
        assert abs(M[0, 0] - e) < 1e-9
    glued = Rep(
        dim=2,
        T0=np.diag([eigs1[0], eigs2[0]]).astype(complex),
        T1=np.diag([eigs1[1], eigs2[1]]).astype(complex),
        T0v=np.diag([eigs1[2], eigs2[2]]).astype(complex),
        T1v=np.diag([eigs1[3], eigs2[3]]).astype(complex),
        basis_labels=[0, 1],
        # the z-eigenvalues q^{1/2} t0 t0v of the two summands
        roots=np.array([p.q_half * e[0] * e[2] for e in (eigs1, eigs2)], dtype=complex),
        # two 1-dim summands: each root is lone under s0 and s1
        pairs=(np.arange(2), np.arange(2)),
    )
    assert max(verify_relations(glued, p).values()) < 1e-12
    assert commutant_dim(r1, p) == 1
    assert commutant_dim(glued, p) == 2
    assert sylvester_commutant_dim(r1) == 1
    assert sylvester_commutant_dim(glued) == 2


def test_rep_json_round_trip(rng):
    kind = Type2(-1, 1, -1, 1, 1)
    p = sample_stratum_params(kind, rng)
    r = build_quotient_rep(kind, None, p)
    back = rep_from_json(rep_to_json(r))
    assert back.dim == r.dim
    assert back.basis_labels == r.basis_labels
    for A, B in zip(r.generators(), back.generators()):
        assert np.allclose(A, B)
    assert back.provenance["kind"] == r.provenance["kind"]


def test_rank_guard_on_custom_tolerance(rng):
    # a tolerance so loose that no ratio is clearly apart from 1 must
    # trip the indeterminacy band, not silently misreport the dimension
    # vector: with eps0 = -1 the lone entry of T0 is -1/k0
    kind = Type2(-1, 1, 1, 1, 1)
    p = sample_stratum_params(kind, rng)
    r = build_quotient_rep(kind, None, p)
    assert dim_vector(r, p).as_tuple() == (3, 2, 1, 1, 1)
    p_loose = Params(
        k0=p.k0, k1=p.k1, u0=p.u0, u1=p.u1, q_half=p.q_half,
        tol=Tolerance(eq_tol=1e-2),
    )
    with pytest.raises(RankIndeterminateError):
        dim_vector(r, p_loose)
    # the diagnosis kept for one tolerance is not read under another
    assert dim_vector(r, p).as_tuple() == (3, 2, 1, 1, 1)
    with pytest.raises(RankIndeterminateError):
        dim_vector(r, p_loose)


# -- the evaluation basis --------------------------------------------------


def test_eval_basis_is_similar_to_the_monomial_window(rng):
    # evaluation at the roots maps window coefficients to values:
    # V[i, k] = r_i^window[k], so M_eval V = V M_monomial for every generator
    checked = 0
    for family in FAMILIES:
        # a one-leg kind starts at level 1
        for n in range(0 if isinstance(family(1), Type2) else 1, 5):
            kind = family(n)
            p = sample_stratum_params(kind, rng)
            r = build_quotient_rep(kind, None, p)
            mono, window = monomial_window_matrices(kind, p)
            roots = np.array([complex(*x) for x in r.provenance["roots"]])
            V = roots[:, None] ** np.array(window)[None, :]
            for name, M in zip(("T0", "T1", "T0v", "T1v"), r.generators()):
                gap = np.linalg.norm(M @ V - V @ mono[name], 2)
                scale = np.linalg.norm(V, 2) * (
                    np.linalg.norm(M, 2) + np.linalg.norm(mono[name], 2)
                )
                assert gap < 1e-9 * scale, (kind, name, gap / scale)
            checked += 1
    assert checked == 16 * 5 + 8 * 4


def test_eval_basis_structure(rng):
    # z = diag(roots), and each direct generator pairs r with s(r) only
    kind = Type1F(1, -1, 6)
    p = sample_stratum_params(kind, rng)
    r = build_quotient_rep(kind, None, p)
    roots = np.array([complex(*x) for x in r.provenance["roots"]])
    assert r.provenance["basis"] == "eval"
    assert r.basis_labels == list(range(12))
    z = p.q_half * r.T0 @ r.T0v
    assert np.abs(z - np.diag(roots)).max() < 1e-12 * np.abs(roots).max()
    for M in r.generators():
        assert ((M != 0).sum(axis=1) <= 2).all()


def test_forced_off_stratum_refused_at_high_levels():
    rng = np.random.default_rng(4099)
    worst = np.inf
    for n in range(5, 21):
        p = sample_generic_params(rng)
        for family in FAMILIES:
            with pytest.raises(IdealNotInvariantError) as exc:
                build_quotient_rep(family(n), None, p, force=True)
            worst = min(worst, exc.value.residual)
    assert worst > 1e-4


def test_root_fixed_by_an_involution_is_refused():
    # a = k0 u0 = 1 puts the level-0 root a q^{1/2} at the fixed point of s0
    p = Params(k0=2.0, k1=3.0, u0=0.5, u1=0.3, q_half=1.3 + 0.2j)
    with pytest.raises(DegenerateLadderError, match="fixed point of s0"):
        build_quotient_rep(Type2(1, 1, 1, 1, 0), None, p, force=True)


def test_coincident_roots_are_refused():
    # a^2 = 1/q makes the level-1 roots a q^{1/2} and q^{-1/2}/a coincide
    qh = 1.3 + 0.2j
    p = Params(k0=2.0, k1=3.0, u0=1 / (2.0 * qh), u1=0.3, q_half=qh)
    with pytest.raises(DegenerateLadderError, match="coincide"):
        build_quotient_rep(Type2(1, 1, 1, 1, 1), None, p, force=True)


def test_commutant_needs_a_diagonal_z(rng):
    kind = Type2(1, -1, -1, 1, 2)
    p = sample_stratum_params(kind, rng)
    r = build_quotient_rep(kind, None, p)
    P = np.eye(r.dim) + 0.3 * rng.normal(size=(r.dim, r.dim))
    Pi = np.linalg.inv(P)
    moved = Rep(r.dim, *(P @ M @ Pi for M in r.generators()), r.basis_labels, r.roots, r.pairs)
    with pytest.raises(PairingError):
        commutant_dim(moved, p)
    with pytest.raises(PairingError):
        verify_relations(moved, p)
    assert sylvester_commutant_dim(moved) == 1


def test_commutant_entry_band_raises():
    # s1 pairs the roots 2 and 1/2; s0 leaves both lone.  An off-diagonal
    # entry of T1 is weighed against the largest entry of its block, 3
    p = Params(k0=2.0, k1=3.0, u0=5.0, u1=7.0, q_half=1.3 + 0.2j)
    eye = np.eye(2, dtype=complex)
    T1 = np.diag([3.0, -1 / 3.0]).astype(complex)
    r = Rep(2, 2 * eye, T1, np.diag([1.0, 2.0]).astype(complex), eye, [0, 1],
            np.array([2.0, 0.5], dtype=complex), (np.arange(2), np.array([1, 0])))
    assert commutant_dim(r, p) == 2
    T1[0, 1] = 3e-9
    assert commutant_dim(r, p) == 2
    T1[0, 1] = 3e-8
    with pytest.raises(RankIndeterminateError):
        commutant_dim(r, p)
    T1[0, 1] = 3e-5
    assert commutant_dim(r, p) == 1


def test_jordan_case_counts_a_pair_once_and_a_lone_entry_never():
    # t = i gives t = -1/t: a 2x2 block with trace 2i and determinant -1
    # is one Jordan block, rank 1 in M - t, and a lone entry i adds 0
    p = Params(k0=2.0, k1=3.0, u0=5.0, u1=7.0, q_half=1.3 + 0.2j)
    s0, s1 = np.arange(3), np.array([1, 0, 2])
    # the pairing of the roots 2, 1/2 and 3, as the float matcher finds it
    got = float_pairings(np.array([2.0, 0.5, 3.0], dtype=complex), p.q)
    assert [w.tolist() for w in got] == [s0.tolist(), s1.tolist()] == [[0, 1, 2], [1, 0, 2]]
    t = 1j
    M = np.array([[t, 1.0, 0], [0, t, 0], [0, 0, t]], dtype=complex)
    assert block_quadratic(M, s1, t, -1 / t, p.tol) == (0.0, 1)
    assert numerical_rank(M - t * np.eye(3)) == 1
    # and on a built rep with k0 = i, whose T0 blocks are all Jordan blocks
    kind = Type2(1, 1, 1, 1, 2)
    k1, u0, qh = 0.8 - 0.9j, 1.1 + 0.3j, 1.3 + 0.2j
    u1 = 1 / (1j * k1 * u0 * qh**5)
    p = Params(k0=1j, k1=k1, u0=u0, u1=u1, q_half=qh)
    r = build_quotient_rep(kind, None, p)
    assert dim_vector(r, p).as_tuple() == (5, 2, 2, 2, 2) == dense_dim_vector(r, p)
    assert commutant_dim(r, p) == 1
    # q^{1/2} T0 has the one eigenvalue i q^{1/2}: its class is the Jordan
    # one, whose rank counts the 2x2 blocks
    specs = class_spec_from_root(RootVector(5, 2, 2, 2, 2), p)
    assert specs[0].eig1 == pytest.approx(specs[0].eig2)
    assert verify_class_membership(r, p, specs)


def test_a_lone_entry_between_its_two_decisions_has_no_rank():
    # lone entries x with x / t - 1 = 1e-8 sit between approx_eq (1e-9)
    # and clearly_neq (1e-6) at the default tolerance
    p = Params(k0=2.0, k1=3.0, u0=5.0, u1=7.0, q_half=1.3 + 0.2j)
    s1 = np.zeros(1, dtype=np.intp)  # one root, lone under s1
    for x, rank in ((3.0, 0), (-1 / 3.0, 1), (3.0 * (1 + 1e-8), None)):
        assert block_quadratic(np.array([[x]], dtype=complex), s1, 3.0, -1 / 3.0, p.tol)[1] == rank


# -- the kept diagnosis ----------------------------------------------------


def _lone(r: Rep, p: Params, involution: int) -> int:
    w = r.pairs[involution]
    return int(np.flatnonzero(w == np.arange(r.dim))[0])


def test_an_edited_entry_and_its_restore_are_read_afresh(rng):
    # with eps0 = -1 the lone entry of T0 is -1/k0; k0 in its place keeps
    # the quadratic but drops rank(T0 - k0) by 1 and breaks the product
    kind = Type2(-1, 1, 1, 1, 1)
    p = sample_stratum_params(kind, rng)
    r = build_quotient_rep(kind, None, p)
    residuals, dv = verify_relations(r, p), dim_vector(r, p)
    assert dv.as_tuple() == (3, 2, 1, 1, 1)
    i = _lone(r, p, 0)
    entry = r.T0[i, i]
    r.T0[i, i] = p.k0
    assert verify_relations(r, p)["product"] > 1e-3
    assert dim_vector(r, p).as_tuple() == (3, 1, 1, 1, 1)
    r.T0[i, i] = entry
    assert verify_relations(r, p) == residuals
    assert dim_vector(r, p) == dv


def test_a_reassigned_matrix_is_read_afresh(rng):
    kind = Type2(1, 1, 1, 1, 1)
    p = sample_stratum_params(kind, rng)
    r = build_quotient_rep(kind, None, p)
    assert dim_vector(r, p).as_tuple() == (3, 1, 1, 1, 1)
    i, T1 = _lone(r, p, 1), r.T1
    r.T1 = T1.copy()
    r.T1[i, i] = -1 / p.k1  # the lone entry k1 of T1 becomes the other eigenvalue
    assert dim_vector(r, p).as_tuple() == (3, 1, 2, 1, 1)
    assert verify_relations(r, p)["product"] > 1e-3
    r.T1 = T1
    assert dim_vector(r, p).as_tuple() == (3, 1, 1, 1, 1)
    assert max(verify_relations(r, p).values()) < 1e-8


def test_verify_relations_returns_a_fresh_dict(rng):
    kind = Type2(1, -1, 1, -1, 2)
    p = sample_stratum_params(kind, rng)
    r = build_quotient_rep(kind, None, p)
    first = verify_relations(r, p)
    kept = dict(first)
    first["product"] = 1.0
    del first["quad.T0"]
    assert verify_relations(r, p) == kept


def test_dim_vector_reads_ranks_past_a_stray_entry(rng):
    # an entry outside the pairing fails the strict product check, which
    # dim_vector never runs: it returns the ranks, in either order of calls
    kind = Type2(1, 1, 1, 1, 2)
    p = sample_stratum_params(kind, rng)
    for first in (verify_relations, dim_vector):
        r = build_quotient_rep(kind, None, p)
        dv = dim_vector(r, p)
        s0, _ = r.pairs
        j = next(j for j in range(r.dim) if j not in (0, s0[0]))
        r.T0[0, j] = 1e-300
        if first is dim_vector:
            assert dim_vector(r, p) == dv
        with pytest.raises(PairingError):
            verify_relations(r, p)
        assert dim_vector(r, p) == dv


def _bench_inputs():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "inputs.py")
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("q_mod", [None, 0.3, 0.5, 2.0, 3.0])
def test_t_to_minus_inverse_t_moves_one_leg_of_a_built_rep(q_mod):
    """(T - t)(T + 1/t) = 0 is symmetric in t and -1/t, and T has a0 - a_i
    eigenvalues -1/t, so a built rep read at p with one generator's t
    moved to -1/t has a0 - a_i as that leg and the rest of its dim vector
    unchanged.  Every cell of the bench's ladder grid, planted at
    |q^{1/2}| = q_mod (or the bench's own moduli for None)."""
    inputs, rng = _bench_inputs(), np.random.default_rng(77)
    for f, n in inputs.cells():
        pt = inputs.planted_point(f, n, rng, q_mod)
        p = Params(*pt.values)
        r = build_quotient_rep(pt.kind, None, p)
        dv = dim_vector(r, p).as_tuple()
        assert dv == tuple(root_of_kind(pt.kind)), (q_mod, pt.kind)
        for g in GENERATORS:
            moved = dataclasses.replace(p, **{g.t: -1 / getattr(p, g.t)})
            want = tuple(dv[0] - a if i == g.leg else a for i, a in enumerate(dv))
            assert dim_vector(r, moved).as_tuple() == want, (q_mod, pt.kind, g.name)


def test_a_deep_copy_diagnoses_as_the_kept_diagnosis():
    # every ladder cell of bench seed 1 that builds: a copy with nothing
    # kept diagnoses bit for bit as the build's own gate pass did
    built = 0
    for sweep in _bench_inputs().ladder_sweeps(1):
        for pt in sweep:
            p = Params(*pt.values)
            try:
                r = build_quotient_rep(pt.kind, None, p)
            except ArithmeticError:
                continue
            kept = r._diagnosis
            fresh = copy.deepcopy(r)
            fresh._diagnosis = None
            assert _diagnosis(fresh, p, True) == kept[1:]
            assert _diagnosis(r, p, True) == kept[1:]
            built += 1
    assert built > 24 * 7


def test_ladder_pairs_agree_with_the_float_matcher():
    # every (family, level) cell planted at |q^{1/2}| = 0.5, 1.3 and 2: the
    # pairing read off the ladder symbols is the one the float matcher
    # finds on the roots, and a build that succeeds carries it
    inputs, rng = _bench_inputs(), np.random.default_rng(5)
    checked = built = 0
    for q_mod in (0.5, 1.3, 2.0):
        for f, n in inputs.cells():
            pt = inputs.planted_point(f, n, rng, q_mod)
            p = Params(*pt.values)
            _, _, a, level, dual = _ladder(pt.kind, None, p)
            roots = np.array((dual_ladder_roots if dual else ladder_roots)(level, a, p.q_half))
            want = [w.tolist() for w in float_pairings(roots, p.q)]
            assert [w.tolist() for w in _ladder_pairs(level, dual)[1]] == want
            checked += 1
            try:
                r = build_quotient_rep(pt.kind, None, p)
            except (ArithmeticError, NotOnStratumError):
                continue
            assert [w.tolist() for w in r.pairs] == want
            built += 1
    assert checked == 3 * 496 and built > 3 * 450


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_a_nan_or_infinite_entry_fails_the_relation_gates(monkeypatch, bad):
    # the residual folds keep a NaN wherever it falls: max() would drop
    # one that is not first, and a NaN compares False with every bound
    kind = Type2(1, 1, 1, 1, 2)
    p = sample_stratum_params(kind, np.random.default_rng(5))
    r = build_quotient_rep(kind, None, p)
    for g in GENERATORS:
        spoiled = copy.deepcopy(r)
        getattr(spoiled, g.name)[2, 2] = bad
        with np.errstate(all="ignore"):
            residuals = verify_relations(spoiled, p)
        assert not residuals[f"quad.{g.name}"] <= RELATION_RESIDUAL_MAX, g
        assert np.isnan(residuals["product"]), g
        with pytest.raises(ProductNotIdentityError):
            check_product(residuals["product"])
    # in a library build, the relation gate trips
    inverse = rep_module._block_inverse

    def spoiled_inverse(M, partner):
        out = inverse(M, partner)
        out[2, 2] = bad
        return out

    monkeypatch.setattr(rep_module, "_block_inverse", spoiled_inverse)
    with np.errstate(all="ignore"), pytest.raises(RelationResidualError):
        build_quotient_rep(kind, None, p)

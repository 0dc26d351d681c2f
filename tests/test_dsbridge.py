import copy
from collections import Counter

import numpy as np
import pytest

from daha_cc1 import cli
from daha_cc1.core import FACTORS, GENERATORS
from daha_cc1.dsbridge import (
    ProductNotIdentityError,
    check_product,
    ds_existence_predicate,
    to_ds_tuple,
    verify_class_membership,
    xi_product,
)
from daha_cc1.rep import _product, _rows, build_quotient_rep, verify_relations
from daha_cc1.roots import (DELTA, RootVector, Type1E, Type1F, Type2, enumerate_strict_roots,
                            root_of_kind)
from daha_cc1.strata import sample_generic_params, sample_stratum_params
from oracles import dense_class_membership


@pytest.fixture
def type2_rep(rng):
    kind = Type2(1, 1, -1, 1, 1)
    p = sample_stratum_params(kind, rng)
    return kind, p, build_quotient_rep(kind, None, p)


def test_product_closes_on_constructed_rep(type2_rep):
    _, p, r = type2_rep
    mats = to_ds_tuple(r, p)
    rows = [_rows(M, r.pairs[g.involution]) for M, g in zip(mats, FACTORS)]
    assert _product(*rows, r.roots, *r.pairs) < 1e-8
    assert all(M.shape == (r.dim, r.dim) for M in mats)


def test_product_guard_fires(type2_rep):
    _, p, r = type2_rep
    broken = type(r)(
        T0=2.0 * r.T0,
        T1=r.T1,
        T0v=r.T0v,
        T1v=r.T1v,
        roots=r.roots,
        pairs=r.pairs,
    )
    with pytest.raises(ProductNotIdentityError):
        to_ds_tuple(broken, p)
    residual = verify_relations(broken, p)["product"]
    assert residual > 1e-3
    with pytest.raises(ProductNotIdentityError):
        check_product(residual)
    assert check_product(1e-12) == 1e-12


def test_class_membership_on_constructed_rep(type2_rep):
    kind, p, r = type2_rep
    vec = root_of_kind(kind)
    assert vec.a0 == r.dim
    assert verify_class_membership(r, p, vec)
    # a wrong leg label must be detected through the rank condition
    wrong = RootVector(vec.a0, vec.a1, vec.a2, vec.a3, vec.a0)
    assert not verify_class_membership(r, p, wrong)


def test_membership_rejects_dim_mismatch(type2_rep):
    _, p, r = type2_rep
    assert not verify_class_membership(r, p, RootVector(1, 0, 0, 0, 0))


def test_a_nan_entry_fails_the_class_check_and_the_cli_block():
    # a NaN residual compares False with the margin: it must fail the
    # class check, as the product gate of construct and ds-check refuses it
    kind = Type2(1, 1, -1, 1, 2)
    p = sample_stratum_params(kind, np.random.default_rng(5))
    r = build_quotient_rep(kind, None, p)
    w = r.pairs[1]
    i = int(np.flatnonzero(w != np.arange(r.dim))[0])
    r.T1[i, w[i]] = np.nan
    with np.errstate(all="ignore"):
        assert np.isnan(verify_relations(r, p)["quad.T1"])
        assert verify_class_membership(r, p, root_of_kind(kind)) is False
        with pytest.raises(ProductNotIdentityError):
            cli._ds_results(r, p)


def _outcome(check, r, p, alpha):
    try:
        return check(r, p, alpha)
    except ArithmeticError as exc:
        return type(exc).__name__


def test_class_membership_equals_the_dense_ds_factor_reference():
    # one stratum build of each family at levels 0..6, against its root,
    # a wrong leg and a wrong dim, and with an entry outside the pairing
    # (apart from 0, then equal to 0) in one generator in turn
    rng = np.random.default_rng(41)
    seen, built = Counter(), 0
    for kind, vec in enumerate_strict_roots(6):
        p = sample_stratum_params(kind, rng)
        r = build_quotient_rep(kind, None, p)
        cases = [(r, alpha) for alpha in (vec, vec._replace(a1=vec.a1 + 1),
                                          vec._replace(a0=vec.a0 + 1))]
        if r.dim >= 3:
            g = GENERATORS[built % 4]
            w, t = r.pairs[g.involution], getattr(p, g.t)
            j = next(j for j in range(r.dim) if j not in (0, w[0]))
            for x in (1e-3, 1e-300):
                stray = copy.deepcopy(r)
                getattr(stray, g.name)[0, j] = x * max(abs(t), 1 / abs(t))
                cases.append((stray, vec))
        for c, alpha in cases:
            got = _outcome(verify_class_membership, c, p, alpha)
            assert got == _outcome(dense_class_membership, c, p, alpha), (kind, alpha)
            seen[got] += 1
        assert verify_class_membership(r, p, vec) is True, kind
        built += 1
    assert built == 16 * 7 + 8 * 6
    assert seen[True] >= built and seen[False] >= 2 * built, seen
    assert "PairingError" not in seen


def test_existence_predicate(rng, generic_params):
    kind = Type1F(1, 1, 2)
    p = sample_stratum_params(kind, rng)
    vec = root_of_kind(kind)
    assert ds_existence_predicate(vec, p)
    assert not ds_existence_predicate(vec, generic_params)
    # non-root coordinates never pass
    assert not ds_existence_predicate(RootVector(4, 1, 1, 1, 1), p)
    # nor does an imaginary root, on a stratum point too
    assert not ds_existence_predicate(DELTA.scaled(2), p)


def test_an_imaginary_root_has_product_q_to_its_level(rng):
    # the eigenvalue pairs multiply to -q, -1, -1 and -1, so n*Delta's
    # product is q^n: never 1 when q is not a root of unity, so no
    # irreducible has an imaginary dim vector
    points = [sample_generic_params(rng) for _ in range(3)]
    points += [sample_stratum_params(k, rng)
               for k in (Type2(1, -1, 1, 1, 3), Type1E(1, 1, 2), Type1F(0, -1, 5))]
    for p in points:
        for n in range(1, 21):
            want = p.q**n
            assert abs(xi_product(DELTA.scaled(n), p) - want) <= 1e-12 * abs(want), (p, n)


def test_det_product_is_one(type2_rep):
    _, p, r = type2_rep
    det = np.prod([np.linalg.det(M) for M in to_ds_tuple(r, p)])
    assert abs(det - 1.0) < 1e-8


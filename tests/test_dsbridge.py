import numpy as np
import pytest

from daha_cc1.dsbridge import (
    ProductNotIdentityError,
    check_product,
    class_spec_from_root,
    ds_existence_predicate,
    to_ds_tuple,
    verify_class_membership,
    xi_product,
)
from daha_cc1.rep import block_product, build_quotient_rep
from daha_cc1.roots import DELTA, RootVector, Type1E, Type1F, Type2, root_of_kind
from daha_cc1.strata import sample_generic_params, sample_stratum_params


@pytest.fixture
def type2_rep(rng):
    kind = Type2(1, 1, -1, 1, 1)
    p = sample_stratum_params(kind, rng)
    return kind, p, build_quotient_rep(kind, None, p)


def test_product_closes_on_constructed_rep(type2_rep):
    _, p, r = type2_rep
    mats = to_ds_tuple(r, p)
    assert block_product(*mats, r.roots, *r.pairs) < 1e-8
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
    residual = block_product(
        2.0 * p.q_half * r.T0, r.T0v, r.T1, r.T1v, r.roots, *r.pairs
    )
    assert residual > 1e-3
    with pytest.raises(ProductNotIdentityError):
        check_product(residual)
    assert check_product(1e-12) == 1e-12


def test_class_membership_on_constructed_rep(type2_rep):
    kind, p, r = type2_rep
    vec = root_of_kind(kind)
    specs = class_spec_from_root(vec, p)
    assert all(s.dim == r.dim for s in specs)
    assert verify_class_membership(r, p, specs)
    # a wrong leg label must be detected through the rank condition
    wrong = RootVector(vec.a0, vec.a1, vec.a2, vec.a3, vec.a0)
    bad_specs = class_spec_from_root(wrong, p)
    assert not verify_class_membership(r, p, bad_specs)


def test_membership_rejects_dim_mismatch(type2_rep):
    _, p, r = type2_rep
    specs = class_spec_from_root(RootVector(1, 0, 0, 0, 0), p)
    assert not verify_class_membership(r, p, specs)


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


import numpy as np
import pytest

from daha_cc1.dsbridge import (
    DSTuple,
    ProductNotIdentityError,
    class_spec_from_root,
    ds_existence_predicate,
    to_ds_tuple,
    tuple_rigidity,
    verify_class_membership,
)
from daha_cc1.rep import build_quotient_rep, dim_vector, pairings
from daha_cc1.roots import RootVector, Type1F, Type2, root_of_kind
from daha_cc1.strata import sample_stratum_params


@pytest.fixture
def type2_rep(rng):
    kind = Type2(1, 1, -1, 1, 1)
    p = sample_stratum_params(kind, rng)
    return kind, p, build_quotient_rep(kind, None, p)


def test_product_closes_on_constructed_rep(type2_rep):
    _, p, r = type2_rep
    t = to_ds_tuple(r, p)
    assert t.product_residual() < 1e-8
    assert t.dim == r.dim


def test_product_guard_fires(type2_rep):
    _, p, r = type2_rep
    s0, s1 = pairings(r.roots, p.q)
    broken = DSTuple(
        A1=2.0 * p.q_half * r.T0, A2=r.T0v, A3=r.T1, A4=r.T1v, z=r.roots, s0=s0, s1=s1
    )
    with pytest.raises(ProductNotIdentityError):
        to_ds_tuple(
            type(r)(
                dim=r.dim,
                T0=2.0 * r.T0,
                T1=r.T1,
                T0v=r.T0v,
                T1v=r.T1v,
                basis_labels=r.basis_labels,
                roots=r.roots,
            ),
            p,
        )
    assert broken.product_residual() > 1e-3


def test_class_membership_on_constructed_rep(type2_rep):
    kind, p, r = type2_rep
    t = to_ds_tuple(r, p)
    vec = root_of_kind(kind)
    specs = class_spec_from_root(vec, p)
    assert all(s.dim == r.dim for s in specs)
    assert verify_class_membership(t, specs, p.tol)
    # a wrong leg label must be detected through the rank condition
    wrong = RootVector(vec.a0, vec.a1, vec.a2, vec.a3, vec.a0)
    bad_specs = class_spec_from_root(wrong, p)
    assert not verify_class_membership(t, bad_specs, p.tol)


def test_membership_rejects_dim_mismatch(type2_rep):
    _, p, r = type2_rep
    specs = class_spec_from_root(RootVector(1, 0, 0, 0, 0), p)
    t = to_ds_tuple(r, p)
    assert not verify_class_membership(t, specs, p.tol)


def test_existence_predicate(rng, generic_params):
    kind = Type1F(1, 1, 2)
    p = sample_stratum_params(kind, rng)
    vec = root_of_kind(kind)
    assert ds_existence_predicate(vec, p)
    assert not ds_existence_predicate(vec, generic_params)
    # non-root coordinates never pass
    assert not ds_existence_predicate(RootVector(4, 1, 1, 1, 1), p)


def test_det_product_is_one(type2_rep):
    _, p, r = type2_rep
    t = to_ds_tuple(r, p)
    det = np.prod([np.linalg.det(M) for M in t.matrices()])
    assert abs(det - 1.0) < 1e-8


def test_tuple_rigidity_vanishes_on_constructed(type2_rep):
    kind, p, r = type2_rep
    dv = dim_vector(r, p)
    vec = RootVector(*dv.as_tuple())
    assert tuple_rigidity(vec) == 0
    assert tuple_rigidity(RootVector(2, 1, 1, 1, 1)) == 2

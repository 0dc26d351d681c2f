from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from daha_cc1.roots import (
    DELTA,
    Imaginary,
    NonPositiveEntryError,
    RootVector,
    Type1E,
    Type1F,
    Type2,
    classify_root,
    enumerate_strict_roots,
    kind_from_str,
    kind_to_str,
    root_of_kind,
    tits_form,
)

signs = st.sampled_from([1, -1])
kinds = st.one_of(
    st.builds(Type2, signs, signs, signs, signs, st.integers(0, 20)),
    st.builds(Type1E, st.integers(0, 1), signs, st.integers(1, 20)),
    st.builds(Type1F, st.integers(0, 1), signs, st.integers(1, 20)),
    st.builds(Imaginary, st.integers(1, 20)),
)


def test_type2_coordinates():
    v = root_of_kind(Type2(1, -1, 1, -1, 2))
    assert v == RootVector(5, 2, 3, 2, 3)
    assert root_of_kind(Type2(1, 1, 1, 1, 0)) == RootVector(1, 0, 0, 0, 0)


def test_one_leg_coordinates():
    assert root_of_kind(Type1E(0, 1, 2)) == RootVector(4, 3, 2, 2, 2)
    assert root_of_kind(Type1E(1, -1, 1)) == RootVector(2, 1, 0, 1, 1)
    assert root_of_kind(Type1F(1, -1, 3)) == RootVector(6, 3, 3, 3, 2)
    assert root_of_kind(Imaginary(2)) == DELTA.scaled(2)


@pytest.mark.parametrize(
    "kind",
    [
        # the string of a negative level does not parse
        (partial(Type2, 1, 1, 1, 1, -1), None),
        (partial(Type1E, 0, 1, 0), "T1E[i=0,+;n=0]"),
        (partial(Type1F, 1, -1, 0), "T1F[i=1,-;n=0]"),
        (partial(Imaginary, 0), "IM[n=0]"),
    ],
)
def test_bad_levels_rejected(kind):
    # a kind below its family's first level is refused when it is made
    make, text = kind
    with pytest.raises(NonPositiveEntryError):
        make()
    if text is not None:
        with pytest.raises(NonPositiveEntryError):
            kind_from_str(text)


def test_bad_signs_rejected():
    with pytest.raises(ValueError):
        root_of_kind(Type2(2, 1, 1, 1, 0))


@pytest.mark.parametrize("make", [partial(Type1E, -1, 1, 2), partial(Type1F, -2, 1, 2)])
def test_a_negative_leg_index_is_refused_when_made(make):
    # a negative index would read another leg's entry through E_LEGS[-1],
    # and its string would not parse
    with pytest.raises(ValueError, match="names no root"):
        make()


@given(kinds)
def test_classify_inverts_coordinates(kind):
    assert classify_root(root_of_kind(kind)) == kind


@pytest.mark.parametrize(
    "vec",
    [
        RootVector(0, 0, 0, 0, 0),
        RootVector(2, 1, 1, 1, 3),  # offset 2 on a leg
        RootVector(3, 1, 1, 1, 3),  # leg outside {n, n+1}
        RootVector(1, 0, 0, 0, -1),
    ],
)
def test_classify_rejects_outside_families(vec):
    assert classify_root(vec) is None


def test_tits_form_values():
    for kind, vec in enumerate_strict_roots(20):
        expected = 0 if isinstance(kind, Imaginary) else 1
        assert tits_form(vec) == expected


def test_enumeration_count_and_order():
    roots = enumerate_strict_roots(20)
    assert len(roots) == 16 * 21 + 9 * 20
    # level 0 contributes only the 16 type-2 kinds, all-plus first
    assert roots[0][0] == Type2(1, 1, 1, 1, 0)
    assert all(isinstance(k, Type2) for k, _ in roots[:16])
    # deterministic: two calls agree exactly
    assert roots == enumerate_strict_roots(20)


def test_enumeration_is_built_once_and_shared_immutably():
    roots = enumerate_strict_roots(20)
    assert enumerate_strict_roots(20) is roots
    assert isinstance(roots, tuple)


def test_enumeration_has_no_duplicates():
    roots = enumerate_strict_roots(12)
    assert len({k for k, _ in roots}) == len(roots)


@given(kinds)
def test_kind_string_round_trip(kind):
    assert kind_from_str(kind_to_str(kind)) == kind


def test_kind_string_examples():
    assert kind_to_str(Type2(1, 1, -1, 1, 3)) == "T2[++,-+;n=3]"
    assert kind_from_str("T1E[i=0,+;n=2]") == Type1E(0, 1, 2)
    assert kind_from_str("IM[n=2]") == Imaginary(2)
    with pytest.raises(ValueError):
        kind_from_str("T3[n=1]")

"""End-to-end acceptance suite.

Each test covers one numbered criterion and emits a single PASS line on
success (visible with -s or in the captured output on failure).  The
constructed-representation corpus is shared session-wide so the whole
suite stays well under a minute.
"""

import cmath
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from daha_cc1 import cli
from daha_cc1 import rep as rep_module
from daha_cc1.core import FACTORS, Params
from daha_cc1.dsbridge import check_product, to_ds_tuple, xi_product
from daha_cc1.rep import (
    IdealNotInvariantError,
    NotOnStratumError,
    RankIndeterminateError,
    RelationResidualError,
    SignVector,
    build_quotient_rep,
    build_truncated_polyrep,
    commutant_dim,
    dim_vector,
    ds_factors,
    rho_ladder,
    rigidity_D,
    spectrum_of_z,
    verify_relations,
)
from daha_cc1.roots import (
    Type1E,
    Type1F,
    Type2,
    enumerate_strict_roots,
    root_of_kind,
    tits_form,
)
from daha_cc1.strata import (
    classify_params,
    random_unit,
    sample_generic_params,
    sample_stratum_params,
)

POINTS_PER_KIND = 5

ALL_KINDS = (
    [Type2(*s, n) for n in range(0, 5) for s in product((1, -1), repeat=4)]
    + [Type1E(i, e, n) for n in range(1, 5) for i in (0, 1) for e in (1, -1)]
    + [Type1F(i, d, n) for n in range(1, 5) for i in (0, 1) for d in (1, -1)]
)


@pytest.fixture(scope="session")
def corpus():
    """(kind, params, rep) for every kind family at 5 stratum points."""
    rng = np.random.default_rng(8131)
    out = []
    for kind in ALL_KINDS:
        for _ in range(POINTS_PER_KIND):
            p = sample_stratum_params(kind, rng)
            r = build_quotient_rep(kind, None, p)
            out.append((kind, p, r))
    return out


def test_criterion_01_relation_suite(corpus):
    assert len(corpus) == len(ALL_KINDS) * POINTS_PER_KIND == 560
    worst = 0.0
    for _, p, r in corpus:
        worst = max(worst, max(verify_relations(r, p).values()))
    assert worst < 1e-8
    print(f"PASS criterion 1: relations on {len(corpus)} reps, "
          f"max residual {worst:.2e}")


def test_criterion_02_dimension_vectors(corpus):
    for kind, p, r in corpus:
        assert dim_vector(r, p).as_tuple() == tuple(root_of_kind(kind)), kind
    print(f"PASS criterion 2: dim vector = root coordinates on "
          f"{len(corpus)} reps")


def test_criterion_03_spectrum_oracle(corpus):
    checked = 0
    for kind, p, r in corpus:
        if not isinstance(kind, Type2):
            continue
        got = spectrum_of_z(r, p)
        for e in rho_ladder(SignVector(*kind.signs), kind.n, p):
            err = min(abs(e - g) for g in got)
            assert err < 1e-6 * max(1.0, abs(e)), (kind, err)
        checked += 1
    assert checked == 16 * 5 * POINTS_PER_KIND
    print(f"PASS criterion 3: rho-ladder spectrum on {checked} type-2 reps")


def test_criterion_04_irreducibility(corpus):
    from test_rep import test_commutant_of_direct_sum_is_two

    for kind, p, r in corpus:
        assert commutant_dim(r, p) == 1, kind
    test_commutant_of_direct_sum_is_two()
    print(f"PASS criterion 4: commutant 1 on {len(corpus)} reps, "
          f"2 on the direct-sum control")


def test_criterion_04_commutant_matches_the_sylvester_oracle(corpus):
    from oracles import sylvester_commutant_dim
    from test_rep import test_commutant_of_direct_sum_is_two

    for kind, p, r in corpus:
        assert sylvester_commutant_dim(r) == commutant_dim(r, p) == 1, kind
    # the control asserts commutant 2 both ways on a direct sum of two
    # one-dimensional reps
    test_commutant_of_direct_sum_is_two()
    print(f"PASS criterion 4 (oracle): connectivity commutant equals the "
          f"Sylvester nullity on {len(corpus)} reps and the direct-sum control")


ALL_LEVEL_KINDS = (
    [Type2(*s, n) for n in range(0, 21) for s in product((1, -1), repeat=4)]
    + [Type1E(i, e, n) for n in range(1, 21) for i in (0, 1) for e in (1, -1)]
    + [Type1F(i, d, n) for n in range(1, 21) for i in (0, 1) for d in (1, -1)]
)

HIGH_LEVELS = range(5, 21)
HIGH_POINTS_PER_KIND = 2
HIGH_KINDS = (
    [Type2(*s, n) for n in HIGH_LEVELS for s in product((1, -1), repeat=4)]
    + [Type1E(i, e, n) for n in HIGH_LEVELS for i in (0, 1) for e in (1, -1)]
    + [Type1F(i, d, n) for n in HIGH_LEVELS for i in (0, 1) for d in (1, -1)]
)


@pytest.fixture(scope="session")
def high_corpus():
    """(kind, params, rep) for every kind family at every level 5..20,
    at 2 stratum points each."""
    rng = np.random.default_rng(5021)
    out = []
    for kind in HIGH_KINDS:
        for _ in range(HIGH_POINTS_PER_KIND):
            p = sample_stratum_params(kind, rng)
            out.append((kind, p, build_quotient_rep(kind, None, p)))
    return out


def assert_spectrum_is_the_ladder(kind, p, r):
    got = spectrum_of_z(r, p)
    for e in rho_ladder(SignVector(*kind.signs), kind.n, p):
        err = min(abs(e - g) for g in got)
        assert err < 1e-6 * max(1.0, abs(e)), (kind, err)


def test_criteria_01_to_04_at_levels_5_to_20(high_corpus):
    """Every real family at every level 5..20 builds, with the relation
    gate, the root as dim vector, the rho-ladder spectrum (type 2) and
    commutant 1 by connectivity."""
    worst = 0.0
    for kind, p, r in high_corpus:
        worst = max(worst, max(verify_relations(r, p).values()))
        assert dim_vector(r, p).as_tuple() == tuple(root_of_kind(kind)), kind
        if isinstance(kind, Type2):
            assert_spectrum_is_the_ladder(kind, p, r)
        assert commutant_dim(r, p) == 1, kind
    assert worst < 1e-8
    n_reps = len(high_corpus)
    assert n_reps == 24 * 16 * 2
    print(f"PASS criteria 1-4 at levels 5-20: {n_reps} reps, "
          f"max relation residual {worst:.2e}")


def test_block_diagnostics_agree_with_the_dense_oracles(corpus, high_corpus):
    """On the 560-rep corpus and the 768-rep tier, the block dim vector
    equals the SVD ranks and both relation residuals stay < 1e-8; on the
    tier's reps of dim <= 12 (the oracle's SVD has dim^2 columns) the
    connectivity commutant equals the Sylvester nullity; criterion 4's
    oracle test covers the corpus."""
    from oracles import dense_dim_vector, dense_relations, sylvester_commutant_dim

    for kind, p, r in corpus + high_corpus:
        assert dim_vector(r, p).as_tuple() == dense_dim_vector(r, p), kind
        assert max(verify_relations(r, p).values()) < 1e-8, kind
        assert max(dense_relations(r, p).values()) < 1e-8, kind
    small = [(kind, p, r) for kind, p, r in high_corpus if r.dim <= 12]
    for kind, p, r in small:
        assert sylvester_commutant_dim(r) == commutant_dim(r, p) == 1, kind
    assert len(small) == (16 + 8 * 2) * HIGH_POINTS_PER_KIND  # levels 5, and 6 one-leg
    print(f"PASS block diagnostics equal the dense oracles on "
          f"{len(corpus) + len(high_corpus)} reps ({len(small)} more Sylvester commutants)")


def planted_params(kind, q_mod: float, rng: np.random.Generator) -> Params:
    """A point that solves the kind's stratum equality with |q^{1/2}| =
    q_mod; the inequalities are left to the build's stratum guard."""
    qh = cmath.rect(q_mod, rng.uniform(0.0, 2.0 * np.pi))
    return solve_stratum(kind, {name: random_unit(rng) for name in ("k0", "k1", "u0", "u1")}, qh, rng)


def solve_stratum(kind, vals: dict, qh: complex, rng: np.random.Generator) -> Params:
    """The point (vals, qh) with the kind's stratum equality solved again:
    u1 for a type-2 kind, the leg's t, on a random branch, for a one-leg
    kind."""
    vals = dict(vals)
    if isinstance(kind, Type2):
        eps0, eps1, del0, del1 = kind.signs
        k0, k1, u0 = vals["k0"], vals["k1"], vals["u0"]
        rest = eps1 * k1**eps1 * eps0 * k0**eps0 * del0 * u0**del0
        vals["u1"] = (qh ** (-1 - 2 * kind.n) / (rest * del1)) ** del1
    else:
        branch = cmath.sqrt(-((qh * qh) ** kind.n)) * (1 if rng.integers(2) else -1)
        if isinstance(kind, Type1E):
            vals[("k0", "k1")[kind.i]] = branch**kind.eps
        else:
            vals[("u0", "u1")[kind.i]] = branch**kind.delta
    return Params(q_half=qh, **vals)


WIDE_Q_MODULI = (0.3, 0.5, 0.8, 1.3, 2.0, 3.0)
# the refusals the wide tier allows: none, since the off-diagonal
# entries sigma - c(r) are built in factored form and keep their digits
# at small |q|
WIDE_Q_REFUSALS = set()


def test_wide_q_tier():
    """Every real family at every level 0..20 and |q^{1/2}| from 0.3 to 3
    either returns the root as dim vector, commutant 1, the rho ladder
    (type 2) and relations < 1e-8, or raises an expected refusal."""
    rng = np.random.default_rng(6151)
    refusals = Counter()
    kinds = [k for n in range(21) for k in (
        [Type2(*s, n) for s in product((1, -1), repeat=4)]
        + ([Type1E(i, e, n) for i in (0, 1) for e in (1, -1)]
           + [Type1F(i, d, n) for i in (0, 1) for d in (1, -1)] if n else [])
    )]
    assert len(kinds) == 496
    for q_mod in WIDE_Q_MODULI:
        for kind in kinds:
            p = planted_params(kind, q_mod, rng)
            try:
                r = build_quotient_rep(kind, None, p)
            except (RelationResidualError, NotOnStratumError) as exc:
                assert not isinstance(kind, Type2), (q_mod, kind, exc)
                refusals[q_mod, type(exc).__name__] += 1
                continue
            assert max(verify_relations(r, p).values()) < 1e-8, (q_mod, kind)
            assert dim_vector(r, p).as_tuple() == tuple(root_of_kind(kind)), (q_mod, kind)
            assert commutant_dim(r, p) == 1, (q_mod, kind)
            if isinstance(kind, Type2):
                assert_spectrum_is_the_ladder(kind, p, r)
    assert set(refusals) <= WIDE_Q_REFUSALS, refusals
    print(f"PASS wide-|q| tier: {len(kinds) * len(WIDE_Q_MODULI)} points, "
          f"refusals {dict(sorted(refusals.items()))}")


NEAR_UNITY_LEVELS = (3, 7, 13, 20)
NEAR_UNITY_GAPS = (2e-9, 5e-8, 5e-7)


def test_near_root_of_unity_tier():
    """Every real family at level m in NEAR_UNITY_LEVELS, at a bench-planted
    point whose q^{1/2} becomes sqrt(1 + d) e^{i pi/m}, so that |q^m - 1| is
    2e-9, 5e-8 or 5e-7: above eq_tol, so q is no root of unity, but roots
    of one chain, r and q^m r, then lie that close, and so do a lone root's
    image and a root.  Each build gives the root as dim vector, or refuses
    with RankIndeterminateError on a one-leg kind, whose lone entry's
    ratio to its eigenvalue is then q^-m, in the band.  No wrong dim
    vector, no refusal of another kind."""
    from test_rep import _bench_inputs

    inputs, outcomes = _bench_inputs(), Counter()
    for gap in NEAR_UNITY_GAPS:
        rng = np.random.default_rng(77)
        for m in NEAR_UNITY_LEVELS:
            qh = cmath.rect(np.sqrt((1 + gap) ** (1 / m)), np.pi / m)
            for f in range(len(inputs.FAMILIES)):
                pt = inputs.planted_point(f, m, rng, 1.0)
                p = solve_stratum(pt.kind, dict(zip(("k0", "k1", "u0", "u1"), pt.values)), qh, rng)
                assert abs(p.q**m - 1) == pytest.approx(gap, rel=1e-4)
                try:
                    dv = dim_vector(build_quotient_rep(pt.kind, None, p), p).as_tuple()
                except RankIndeterminateError:
                    assert not isinstance(pt.kind, Type2), (gap, pt.kind)
                    outcomes[gap, "RankIndeterminateError"] += 1
                    continue
                assert dv == tuple(root_of_kind(pt.kind)), (gap, pt.kind, dv)
                outcomes[gap, "right"] += 1
    builds = len(NEAR_UNITY_LEVELS) * len(inputs.FAMILIES)
    assert all(outcomes[gap, "right"] >= builds * 5 // 6 for gap in NEAR_UNITY_GAPS), outcomes
    print(f"PASS near-root-of-unity tier: {builds * len(NEAR_UNITY_GAPS)} builds, "
          f"{dict(sorted(outcomes.items()))}")


def test_one_leg_kinds_build_at_a_huge_q():
    """At |q^{1/2}| = 1e4 the one-leg ladders of level 20 have a near 1e-80
    or 1e80, so a^2 and the q_half powers it would be compared with leave
    the float range, while the roots stay in it.  The ladder check
    compares the roots, and every one-leg family builds its root."""
    rng = np.random.default_rng(11)
    kinds = [Type1E(i, e, 20) for i in (0, 1) for e in (1, -1)]
    kinds += [Type1F(i, d, 20) for i in (0, 1) for d in (1, -1)]
    for kind in kinds:
        p = planted_params(kind, 1e4, rng)
        r = build_quotient_rep(kind, None, p)
        assert dim_vector(r, p).as_tuple() == tuple(root_of_kind(kind)), kind


def test_one_perturbed_entry_trips_the_relation_gate():
    """At every level 0..20 of every family, moving any lone entry or a
    diagonal entry of a 2x2 block of any generator by 1e-6 of itself
    trips verify_relations.  Each generator gets its lone entries and
    both diagonal entries of one seeded block."""
    rng = np.random.default_rng(7919)
    checked = 0
    for kind in ALL_LEVEL_KINDS:
        p = sample_stratum_params(kind, rng)
        r = build_quotient_rep(kind, None, p)
        s0, s1 = r.pairs
        rows = np.arange(r.dim)
        for M, w in zip(r.generators(), (s0, s1, s0, s1)):
            picks = rows[w == rows].tolist()
            first = rows[w > rows]
            if first.size:
                i = int(rng.choice(first))
                picks += [i, int(w[i])]
            for i in picks:
                entry = M[i, i]
                M[i, i] = entry * (1 + 1e-6)
                assert max(verify_relations(r, p).values()) > 1e-8, (kind, i)
                M[i, i] = entry
                checked += 1
    print(f"PASS gate sensitivity: {checked} perturbed entries all trip the relation gate")


def test_criterion_05_rigidity(corpus):
    assert rigidity_D(3, 2, 2, 2, 2) == 0
    assert rigidity_D(2, 1, 1, 1, 1) == 2
    for kind, p, r in corpus:
        assert rigidity_D(*dim_vector(r, p).as_tuple()) == 0, kind
    print("PASS criterion 5: closed-form rigidity counts and D = 0 on "
          "every constructed rep")


def test_criterion_06_strata_ds_consistency(corpus):
    rng = np.random.default_rng(917)
    n_points = 0
    for n in range(0, 5):
        for idx in range(100):
            signs = tuple(1 - 2 * int(b) for b in rng.integers(0, 2, 4))
            kind = Type2(*signs, n)
            p = sample_stratum_params(kind, rng)
            assert abs(xi_product(root_of_kind(kind), p) - 1.0) < 1e-9
            n_points += 1
    dets = 0
    for _, p, r in corpus:
        det = complex(np.prod([np.linalg.det(M) for M in to_ds_tuple(r, p)]))
        assert abs(det - 1.0) < 1e-8
        dets += 1
    print(f"PASS criterion 6: xi closure on {n_points} stratum points, "
          f"det product 1 on {dets} tuples")


def _ds_reference(r, p):
    """The product-problem block recomputed on the ds factors: their
    product off their own rows, guarded, then their class membership for
    the rep's dim vector from the dense oracle."""
    from oracles import dense_class_membership
    mats = ds_factors(r, p)
    rows = [rep_module._rows(M, r.pairs[g.involution]) for M, g in zip(mats, FACTORS)]
    residual = check_product(rep_module._product(*rows, r.roots, *r.pairs))
    return residual, dense_class_membership(r, p, dim_vector(r, p))


def _ds_cli(r, p):
    """The same two fields of the block construct and ds-check report."""
    ds = cli._ds_results(r, p)[2]
    return ds["product_residual"], ds["class_membership"]


def _ds_outcome(read, r, p):
    try:
        return read(r, p)
    except ArithmeticError as exc:
        return type(exc).__name__


def _moved_copies(r, p, rng, rel):
    """Copies of r with entries moved by rel of themselves: one diagonal
    entry of each generator in turn, and one copy that moves a lone entry
    of T0 and of T1 by 1 + rel and their partners' entries in T0v and
    T1v by 1 / (1 + rel), which keeps the product relation."""
    rows = np.arange(r.dim)
    for name in ("T0", "T1", "T0v", "T1v"):
        M = getattr(r, name).copy()
        i = int(rng.integers(r.dim))
        M[i, i] *= 1 + rel
        yield replace(r, **{name: M})
    mats = {name: getattr(r, name).copy() for name in ("T0", "T1", "T0v", "T1v")}
    for (a, b), w in zip((("T0", "T0v"), ("T1", "T1v")), r.pairs):
        lone = rows[w == rows]
        if lone.size:
            i = int(rng.choice(lone))
            mats[a][i, i] *= 1 + rel
            mats[b][i, i] /= 1 + rel
    yield replace(r, **mats)


def test_ds_block_agrees_with_the_dsbridge_reference(corpus):
    """The ds block that construct and ds-check read off the rep's kept
    diagnosis equals the reference recomputed on the ds factors, classes
    from the dense oracle, on the corpus and on copies moved by 1e-7 and
    1e-4 relative; where one side raises, so does the other."""
    rng = np.random.default_rng(2203)
    seen = Counter()
    for kind, p, r in corpus:
        copies = [r] + [c for rel in (1e-7, 1e-4) for c in _moved_copies(r, p, rng, rel)]
        for c in copies:
            got = _ds_outcome(_ds_cli, c, p)
            want = _ds_outcome(_ds_reference, c, p)
            assert got == want, (kind, got, want)
            seen[got if isinstance(got, str) else got[1]] += 1
    assert seen[True] >= len(corpus) and seen[False] > 0
    assert seen["ProductNotIdentityError"] and seen["RankIndeterminateError"]
    print(f"PASS ds block equals the ds-factor reference on {sum(seen.values())} reps: "
          f"{dict(seen)}")


def test_criterion_07_negative_suite():
    rng = np.random.default_rng(3571)
    for idx in range(100):
        p = sample_generic_params(rng)
        assert classify_params(p, 4) == [], idx
        with pytest.raises((IdealNotInvariantError, RelationResidualError)) as exc:
            build_quotient_rep(Type2(1, 1, 1, 1, 1 + idx % 3), None, p, force=True)
        if isinstance(exc.value, IdealNotInvariantError):
            assert exc.value.residual > 1e-4
        else:
            assert max(exc.value.residuals.values()) > 1e-4
    print("PASS criterion 7: 100 generic points classify empty and "
          "reject forced construction")


def test_criterion_08_root_combinatorics():
    roots = enumerate_strict_roots(20)
    assert len(roots) == 16 * 21 + 8 * 20
    for _, vec in roots:
        assert tits_form(vec) == 1
    print(f"PASS criterion 8: {len(roots)} strict roots with correct "
          "quadratic form values")


def test_criterion_09_scan_determinism():
    base = [
        sys.executable, "-m", "daha_cc1.cli", "scan",
        "--count", "32", "--seed", "42", "--format", "csv", "--n-max", "4",
    ]
    out1 = subprocess.run(
        [*base, "--jobs", "1"], capture_output=True, check=True
    ).stdout
    out8 = subprocess.run(
        [*base, "--jobs", "8"], capture_output=True, check=True
    ).stdout
    assert out1 == out8 and out1
    print("PASS criterion 9: scan output byte-identical at jobs 1 and 8")


def test_criterion_10_operator_convention():
    rng = np.random.default_rng(65537)
    p = sample_generic_params(rng)
    worst = 0.0
    for side, pairs in (
        ("P", (("T0", p.k0), ("T1", p.k1))),
        ("Pbar", (("T0v", p.u0), ("T1v", p.u1))),
    ):
        mats = build_truncated_polyrep(side, SignVector(), 5, p)
        for name, t in pairs:
            M = mats[name]
            eye = np.eye(M.shape[0])
            res = np.linalg.norm((M - t * eye) @ (M + eye / t), 2)
            worst = max(worst, float(res / max(1.0, np.linalg.norm(M, 2) ** 2)))
    assert worst < 1e-9
    print(f"PASS criterion 10: truncated action quadratics, "
          f"max residual {worst:.2e}")

"""build_quotient_rep's output and refusals, pinned, and its one
comparison pass.

tests/data/ladder_rotation.sha256 holds the SHA-256 of the built matrices,
roots and relation residuals of every (family, level) cell up to level 20,
each at a seeded stratum point, in the format of ``sha256sum``.
tests/data/build_refusals.json holds a tier of refused builds, with and
without force, each with its exception's type and message: points off
the stratum, on a root of unity, out of the float range at level 20, and
on two leg equalities t^(2s) = -q^m, where the ladder's roots coincide or
sit at a fixed point of s0 or s1; and builds that succeed at a q the
root-of-unity guard's closed form does not clear.  Regenerate both (only
when a change of output is intended) with

    PYTHONPATH=src python tests/test_build_golden.py
"""

import cmath
import hashlib
import json
import os
from unittest import mock

import numpy as np
import pytest

from daha_cc1 import cli, core, rep, strata
from daha_cc1.core import Params
from daha_cc1.roots import Type1E, Type1F, Type2, enumerate_strict_roots, kind_from_str, kind_to_str
from daha_cc1.strata import classify_params, random_unit, sample_generic_params, sample_stratum_params

DATA = os.path.join(os.path.dirname(__file__), "data")
ROTATION = os.path.join(DATA, "ladder_rotation.sha256")
REFUSALS = os.path.join(DATA, "build_refusals.json")
ROTATION_SEED = 2029
N_MAX = 20
_NAMES = ("k0", "k1", "u0", "u1", "q_half")


def _rotation_digest() -> str:
    """The digest of one guarded build of each real kind up to level 20,
    in enumeration order, at a stratum point drawn for it: its roots and
    four matrices, then its relation residuals as float.hex, or the type
    and message of its refusal."""
    rng = np.random.default_rng(ROTATION_SEED)
    h = hashlib.sha256()
    for kind, _ in enumerate_strict_roots(N_MAX):
        p = sample_stratum_params(kind, rng)
        h.update(kind_to_str(kind).encode())
        try:
            r = rep.build_quotient_rep(kind, None, p)
        except Exception as exc:
            h.update(f"{type(exc).__name__}: {exc}".encode())
            continue
        for M in (r.roots, *r.generators()):
            h.update(M.tobytes())
        h.update(repr({k: float(v).hex() for k, v in rep.verify_relations(r, p).items()}).encode())
    return h.hexdigest()


def test_the_ladder_rotation_builds_the_pinned_bits():
    with open(ROTATION, encoding="utf-8") as fh:
        digest, label = fh.read().split(maxsplit=1)
    assert label.strip() == f"ladder rotation seed {ROTATION_SEED} n_max {N_MAX}"
    assert _rotation_digest() == digest


# -- the refusal tier ------------------------------------------------------


def _with(p: Params, **vals) -> Params:
    return Params(**{**{nm: getattr(p, nm) for nm in _NAMES}, **vals})


def _degenerate_points() -> list[tuple]:
    """(kind, p) where classify names the kind and its ladder refuses:
    2 to 4 of (k0, k1, u0, u1) set to (+-i q_half^m)^s, so that t^(2s) =
    -q^m, m in 0..4, the rest random_unit draws, at |q^{1/2}| cycling
    through 0.3, 0.5, 1.3, 2 and 3; the first three of each refusal
    (coinciding roots, a fixed point of s0, of s1)."""
    rng = np.random.default_rng(11)
    found: dict[str, list] = {}
    for i in range(300):
        qh = cmath.rect((0.3, 0.5, 1.3, 2.0, 3.0)[i % 5], rng.uniform(0, 2 * np.pi))
        vals = [random_unit(rng) for _ in range(4)]
        for j in rng.choice(4, int(rng.integers(2, 5)), replace=False):
            m, s = int(rng.integers(5)), 1 - 2 * int(rng.integers(2))
            vals[j] = (1j * (1 - 2 * int(rng.integers(2))) * qh**m) ** s
        p = Params(*vals, q_half=qh)
        for kind, _ in classify_params(p, 6):
            try:
                rep.build_quotient_rep(kind, None, p)
            except rep.DegenerateLadderError as exc:
                found.setdefault(str(exc).split()[-1], []).append((kind, p))
    assert sorted(found) == ["coincide", "s0", "s1"]
    return [case for cases in found.values() for case in cases[:3]]


def _refusal_cases() -> list[tuple]:
    """(kind, p) pairs, each built with and without force."""
    rng = np.random.default_rng(97)
    generic = sample_generic_params(rng)
    kinds = [Type2(1, 1, 1, 1, 0), Type2(1, -1, -1, 1, 6), Type1E(0, 1, 3), Type1F(1, -1, 20),
             Type2(-1, 1, 1, -1, 20)]
    cases = [(k, generic) for k in kinds]  # off the stratum
    # on the product equality of level 6, off an inequality below it
    on = sample_stratum_params(Type2(1, 1, 1, 1, 6), rng)
    k0 = cmath.sqrt(-(on.q**2))
    u1 = on.q_half**-13 / (on.k1 * k0 * on.u0)
    cases.append((Type2(1, 1, 1, 1, 6), _with(on, k0=k0, u1=u1)))
    # a root of unity, on and off the stratum
    qh7 = cmath.exp(1j * cmath.pi / 7)
    cases += [(Type2(1, 1, 1, 1, 0), Params(2, 3, 5, 1 / (30 * qh7), qh7)),
              (Type1E(1, -1, 4), _with(generic, q_half=qh7))]
    # a zero and an infinite parameter, and a q that overflows
    cases += [(Type2(1, 1, 1, 1, 2), _with(generic, k0=0)),
              (Type2(1, 1, 1, 1, 2), _with(generic, q_half=float("inf"))),
              (Type2(1, 1, 1, 1, 2), _with(generic, q_half=1e155))]
    # out of the float range at level 20: the stratum values leave it
    # (guarded) or the ladder's q_half^(-41) overflows in ** (as a float or
    # complex q_half) or underflows to a zero divisor (forced), a modulus
    # overflows in the stratum comparison (k0^2 with both parts near
    # 1.3e308), or in the ladder's (forced only)
    big = cmath.sqrt(1.3e308 * (1 + 1j))
    for kind in (Type2(1, 1, 1, 1, 20), Type1F(0, -1, 20)):
        cases += [(kind, Params(2, 3, 5, 7, q)) for q in (1e15, complex(1e15), complex(1e-20))]
        cases.append((kind, _with(generic, k0=big)))
    cases.append((Type2(1, 1, 1, 1, 20), Params(1.3e21, 0.7 + 0.2j, 1 + 1j, 0.9 + 0.5j, 1e7)))
    # the ladder degenerates: on the kind's stratum, and off another's
    for kind, p in _degenerate_points():
        cases += [(kind, p), (Type2(1, 1, 1, 1, 3), p)]
    return cases + _unclosed_cases()


def _unclosed_cases() -> list[tuple]:
    """(kind, p) on the stratum of four kinds, at a q_half that the
    guard's closed form does not clear: on the unit circle, 3e-10 off it,
    and of modulus 200 (|q| past 2^15), each as random_q_half's draw."""
    rng = np.random.default_rng(3)
    kinds = [kind_from_str(s) for s in
             ("T2[+-,++;n=0]", "T1E[i=1,-;n=4]", "T2[-+,-+;n=20]", "T1F[i=0,+;n=20]")]
    cases = []
    for qh in (cmath.exp(1j), cmath.exp(0.3j) * (1 + 3e-10), 200 * cmath.exp(0.7j)):
        with mock.patch.object(strata, "random_q_half", lambda _: qh):
            cases += [(kind, sample_stratum_params(kind, rng)) for kind in kinds]
    return cases


def _outcome(kind, p: Params, force: bool) -> list:
    try:
        r = rep.build_quotient_rep(kind, None, p, force)
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    return ["built", r.dim]


def _refusals() -> list[dict]:
    """The tier as JSON: a complex parameter as its [re, im] pair, a
    float or int as itself, since ** raises differently on each."""
    return [{"kind": kind_to_str(kind), "force": force,
             "params": [[v.real, v.imag] if isinstance(v, complex) else v
                        for v in (getattr(p, nm) for nm in _NAMES)],
             "outcome": _outcome(kind, p, force)}
            for kind, p in _refusal_cases() for force in (False, True)]


def _load_refusals() -> list[tuple]:
    """(kind, p, force, outcome) of each case of the stored tier."""
    with open(REFUSALS, encoding="utf-8") as fh:
        cases = json.load(fh)
    return [(kind_from_str(c["kind"]),
             Params(*(complex(*v) if isinstance(v, list) else v for v in c["params"])),
             c["force"], c["outcome"]) for c in cases]


# a forced build off the float range overflows in its matrices' numpy arithmetic
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_build_refusals_keep_their_type_message_and_order():
    cases = _load_refusals()
    for kind, p, force, outcome in cases:
        assert _outcome(kind, p, force) == outcome, (kind, p, force)
    # the tier holds every refusal it was drawn for
    assert {"NotOnStratumError", "RootOfUnityError", "ZeroParameterError", "OverflowError",
            "ZeroDivisionError", "DegenerateLadderError",
            "IdealNotInvariantError"} <= {c[3][0] for c in cases}
    messages = {c[3][1] for c in cases}
    assert {"two roots of the divisor coincide", "absolute value too large",
            "q = q_half^2 is not finite", "complex exponentiation",
            strata._OUT_OF_RANGE} <= messages
    assert {m[-2:] for m in messages if "fixed point" in str(m)} == {"s0", "s1"}
    assert any(str(m).count("neq.") > 1 for m in messages)


# -- one comparison pass ---------------------------------------------------


def _counted(monkeypatch, module, name) -> list:
    calls, fn = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _count_passes(monkeypatch) -> list:
    """Every compare_points call from now on, through core's name (the
    validation, compare_arrays) or strata's (the stratum tables)."""
    calls = _counted(monkeypatch, core, "compare_points")
    monkeypatch.setattr(strata, "compare_points", core.compare_points)
    return calls


@pytest.mark.parametrize("kind", [Type2(1, 1, 1, 1, 0), Type2(-1, 1, 1, -1, 6), Type1E(1, -1, 1),
                                  Type1F(0, 1, 13), Type2(1, -1, -1, 1, 20), Type1F(1, -1, 20)],
                         ids=kind_to_str)
def test_a_build_makes_one_comparison_pass(monkeypatch, rng, kind):
    p = sample_stratum_params(kind, rng)
    # a point on the unit circle, which the guard's closed form leaves to
    # the guard's own pass of its powers
    with monkeypatch.context() as m:
        m.setattr(strata, "random_q_half", lambda _: cmath.exp(1j))
        unit = sample_stratum_params(kind, rng)
    calls = _count_passes(monkeypatch)
    for point, passes in ((p, 1), (unit, 2)):
        for force in (False, True):
            calls.clear()
            rep.build_quotient_rep(kind, None, point, force)
            assert len(calls) == passes, (point, force)
        # and so does a verdict of one kind without a table
        calls.clear()
        assert strata.sigma_membership(point, kind).member
        assert len(calls) == passes, point


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_refused_build_makes_at_most_one_comparison_pass(monkeypatch):
    # and the guard's own pass before it, where the closed form does not
    # clear q
    cases = _load_refusals()
    calls = _count_passes(monkeypatch)
    for kind, p, force, _ in cases:
        calls.clear()
        _outcome(kind, p, force)
        guard = not core._cleared(p.q, core._guard_band(p.tol))
        assert len(calls) <= 1 + guard, (kind, p, force)


def _flags(p: Params) -> list[str]:
    """Flags that parse back to exactly the double pairs of p."""
    return [f"--{nm.replace('_', '-')}={z.real!r}{z.imag:+.17g}i"
            for nm, z in ((nm, complex(getattr(p, nm))) for nm in _NAMES)]


def test_construct_and_ds_check_run_the_root_of_unity_guard_once(
    monkeypatch, rng, tmp_path, capsys
):
    kind = Type1E(1, -1, 4)
    p = sample_stratum_params(kind, rng)
    # a point on the unit circle, not a root of unity: the closed form
    # leaves it to the guard's powers
    with monkeypatch.context() as m:
        m.setattr(strata, "random_q_half", lambda _: cmath.exp(1j))
        unit = sample_stratum_params(kind, rng)
    assert abs(unit.q) == pytest.approx(1.0)
    guards = _counted(monkeypatch, core, "validation_errors")
    monkeypatch.setattr(strata, "validation_errors", core.validation_errors)
    powers = _counted(monkeypatch, core, "_unit_powers")
    rep_file = tmp_path / "rep.json"
    for point, runs in ((p, 0), (unit, 1)):
        args = _flags(point)
        for argv in (["construct", *args, "--kind", kind_to_str(kind), "--out", str(rep_file)],
                     ["construct", *args, "--kind", kind_to_str(kind), "--force"],
                     ["ds-check", *args, "--rep", str(rep_file)]):
            guards.clear()
            powers.clear()
            assert cli.main(argv) == 0, argv
            results = json.loads(capsys.readouterr().out)["results"]
            assert results.get("ds", results)["existence_predicate"] is True
            assert (len(guards), len(powers)) == (1, runs), argv
    # a point the guard refuses exits 2 before the rep file is read
    unit = _flags(_with(p, q_half=cmath.exp(1j * cmath.pi / 7)))
    assert cli.main(["ds-check", *unit, "--rep", str(tmp_path / "none.json")]) == 2
    assert "q^7 = 1" in capsys.readouterr().out


if __name__ == "__main__":
    with open(ROTATION, "w", encoding="utf-8") as fh:
        fh.write(f"{_rotation_digest()}  ladder rotation seed {ROTATION_SEED} n_max {N_MAX}\n")
    with open(REFUSALS, "w", encoding="utf-8") as fh:
        json.dump(_refusals(), fh, indent=1)
        fh.write("\n")

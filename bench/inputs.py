"""Seeded input generation for the benchmark workloads.

Inputs are made here, from the workload seed alone, so that two
versions of the library receive the same points.  Planted stratum
points solve the stratum equality of their kind exactly, as in the
paper: type-2 kinds fix u1 from the signed product, one-leg kinds fix
one parameter to a square root of -q^n.  Only the public root kinds
and ``kind_to_str`` are taken from the library.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from daha_cc1.roots import Type1E, Type1F, Type2, kind_to_str, root_of_kind

MAX_LEVEL = 20
CONSTRUCT_LEVELS = range(0, 7)

# the 24 real kind families: 16 type-2 sign vectors, then the 8 one-leg
# (leg, sign) choices on the e-legs and the f-legs
FAMILIES: tuple[tuple[str, tuple[int, ...]], ...] = (
    tuple(("T2", s) for s in product((1, -1), repeat=4))
    + tuple(("T1E", (i, e)) for i in (0, 1) for e in (1, -1))
    + tuple(("T1F", (i, d)) for i in (0, 1) for d in (1, -1))
)
N_TYPE2 = 16

SCAN_BATCHES = 4
SCAN_GENERIC = 8
SCAN_NEAR_UNIT = 2
LADDER_CYCLE = 10  # sweeps in a ladder pass


def family_name(f: int) -> str:
    """Kind string of family f with the level left out, e.g. "T2[++,-+]"."""
    return kind_to_str(make_kind(f, 1)).replace(";n=1", "")


def is_type2(f: int) -> bool:
    return f < N_TYPE2


def make_kind(f: int, n: int):
    tag, signs = FAMILIES[f]
    if tag == "T2":
        return Type2(*signs, n)
    if tag == "T1E":
        return Type1E(signs[0], signs[1], n)
    return Type1F(signs[0], signs[1], n)


def cells() -> list[tuple[int, int]]:
    """Every (family, level) pair with a real kind: 16*21 + 8*20 = 496."""
    return [
        (f, n)
        for n in range(0, MAX_LEVEL + 1)
        for f in range(len(FAMILIES))
        if n >= 1 or is_type2(f)
    ]


# -- parameter points ------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """(k0, k1, u0, u1, q_half), with the kind (and its family index)
    planted on it, or None."""

    values: tuple[complex, complex, complex, complex, complex]
    kind: object = None
    family: int = -1


def _unit(rng: np.random.Generator) -> complex:
    # the CLI scan sampler's distribution: log-normal modulus, uniform phase
    mod = math.exp(rng.normal(0.0, 0.35))
    return cmath.rect(mod, rng.uniform(0.0, 2.0 * math.pi))


Q_MOD = (1.15, 1.45)  # range of |q^{1/2}| at generic and planted points


def _q_half(rng: np.random.Generator, lo: float = Q_MOD[0], hi: float = Q_MOD[1],
            mod: float | None = None) -> complex:
    mod = rng.uniform(lo, hi) if mod is None else mod
    return cmath.rect(mod, rng.uniform(0.0, 2.0 * math.pi))


def generic_point(rng: np.random.Generator) -> Point:
    return Point(tuple(_unit(rng) for _ in range(4)) + (_q_half(rng),))


def near_unit_point(rng: np.random.Generator) -> Point:
    """A generic point with |q^{1/2}| within 2% of 1, on either side."""
    qh = _q_half(rng, 1.001, 1.02)
    if rng.integers(2):
        qh = 1 / qh.conjugate()
    return Point(tuple(_unit(rng) for _ in range(4)) + (qh,))


def planted_point(f: int, n: int, rng: np.random.Generator,
                  q_mod: float | None = None) -> Point:
    """A point on the stratum of family f at level n, with |q^{1/2}| =
    q_mod if given."""
    kind = make_kind(f, n)
    qh = _q_half(rng, mod=q_mod)
    k0, k1, u0, u1 = (_unit(rng) for _ in range(4))
    if isinstance(kind, Type2):
        eps0, eps1, del0, del1 = kind.signs
        rest = eps1 * k1**eps1 * eps0 * k0**eps0 * del0 * u0**del0
        # signed product * q_half^(1+2n) = 1, solved for u1
        u1 = (qh ** (-1 - 2 * n) / (rest * del1)) ** del1
        return Point((k0, k1, u0, u1, qh), kind, f)
    # t^(2s) = -q^n, with a random branch of the square root
    branch = cmath.sqrt(-(qh * qh) ** n) * (1 if rng.integers(2) else -1)
    vals = [k0, k1, u0, u1]
    sign = kind.eps if isinstance(kind, Type1E) else kind.delta
    slot = kind.i if isinstance(kind, Type1E) else 2 + kind.i
    vals[slot] = branch**sign
    return Point((*vals, qh), kind, f)


def literal(z: complex) -> str:
    """A complex literal that the CLI parses back to the same double pair."""
    return f"{z.real!r}{z.imag:+.17g}i"


def param_args(pt: Point) -> list[str]:
    names = ("k0", "k1", "u0", "u1", "q-half")
    return [f"--{nm}={literal(v)}" for nm, v in zip(names, pt.values)]


# -- workload inputs -------------------------------------------------------


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def planted_levels(rng: np.random.Generator) -> list[int]:
    """One level per family, covering every level 0..20, level 0 on a
    type-2 family."""
    levels = list(rng.permutation(MAX_LEVEL + 1)) + list(
        rng.integers(1, MAX_LEVEL + 1, size=len(FAMILIES) - MAX_LEVEL - 1)
    )
    levels = [int(x) for x in rng.permutation(levels)]
    zero = levels.index(0)
    if not is_type2(zero):
        levels[zero], levels[0] = levels[0], levels[zero]
    return levels


def scan_batches(seed: int) -> list[list[Point]]:
    """SCAN_BATCHES batches of 16 points in shuffled order: 6 planted,
    SCAN_GENERIC generic and SCAN_NEAR_UNIT near-unit-|q| points.  Batch
    b plants the families 6b..6b+5, so the batches together plant every
    family once and cover every level 0..20."""
    rng = _rng(seed, 1)
    levels = planted_levels(rng)
    per = len(FAMILIES) // SCAN_BATCHES
    batches = []
    for b in range(SCAN_BATCHES):
        pts = [planted_point(f, levels[f], rng) for f in range(per * b, per * (b + 1))]
        pts += [generic_point(rng) for _ in range(SCAN_GENERIC)]
        pts += [near_unit_point(rng) for _ in range(SCAN_NEAR_UNIT)]
        batches.append([pts[i] for i in rng.permutation(len(pts))])
    return batches


def points_file_text(points: list[Point]) -> str:
    return "".join(",".join(literal(v) for v in pt.values) + "\n" for pt in points)


def construct_requests(seed: int) -> list[Point]:
    """One planted point per (family, level) at levels 0..6, shuffled."""
    rng = _rng(seed, 2)
    pts = [
        planted_point(f, n, rng)
        for f, n in cells()
        if n in CONSTRUCT_LEVELS
    ]
    return [pts[i] for i in rng.permutation(len(pts))]


def ladder_family(sweep: int, n: int) -> int:
    """Family built at level n in a sweep.  Families rotate with the
    level inside a sweep, so every sweep mixes type-2 and one-leg kinds,
    and 24 sweeps visit every (family, level) cell."""
    f = (sweep + n) % len(FAMILIES)
    if n == 0 and not is_type2(f):
        f -= len(FAMILIES) - N_TYPE2
    return f


def stratified_q_mods(rng: np.random.Generator, count: int) -> list[float]:
    """`count` values of |q^{1/2}|, one uniform draw from each of `count`
    equal slices of Q_MOD, in random order.  Each value has the same
    distribution as an unstratified draw; stratifying keeps the share of
    large |q| steady from seed to seed, and with it the share of
    high-level builds that overflow at once instead of running for
    hundreds of ms."""
    lo, hi = Q_MOD
    return [lo + (hi - lo) * (k + rng.uniform()) / count for k in rng.permutation(count)]


def ladder_sweeps(seed: int) -> list[list[Point]]:
    """The 24 sweeps of a full rotation; sweep j holds one planted point
    per level 0..20, for family ladder_family(j, level).  At each level,
    |q^{1/2}| is stratified over the type-2 builds of a pass (the
    LADDER_CYCLE first sweeps), over its one-leg builds, and likewise
    over the rest of the rotation."""
    rng = _rng(seed, 3)
    blocks = (range(LADDER_CYCLE), range(LADDER_CYCLE, len(FAMILIES)))
    mods: dict[tuple[int, int], float] = {}
    for n in range(MAX_LEVEL + 1):
        for block in blocks:
            for type2 in (True, False):
                group = [j for j in block if is_type2(ladder_family(j, n)) == type2]
                mods.update(zip(((j, n) for j in group), stratified_q_mods(rng, len(group))))
    return [
        [planted_point(ladder_family(j, n), n, rng, mods[j, n]) for n in range(MAX_LEVEL + 1)]
        for j in range(len(FAMILIES))
    ]


def expected_root(pt: Point) -> tuple[int, ...]:
    return tuple(root_of_kind(pt.kind))

"""The affine root system attached to the 4-legged star graph.

Positive roots are 5-vectors (a0, a1, a2, a3, a4): a0 labels the central
node, a1/a2 the e-legs and a3/a4 the f-legs.  Only the strict families
used by the classification are modelled: the 16-per-level "type 2" real
roots c + n*Delta + ..., and the 8-per-level one-leg real roots
n*Delta +/- e_i / f_i.  The imaginary roots n*Delta carry no irreducible
when q is not a root of unity (their eigenvalue product is q^n, not 1),
so they are not kinds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Union


class NonPositiveEntryError(ValueError):
    """A kind would produce a vector with a negative entry."""


class RootVector(NamedTuple):
    a0: int
    a1: int
    a2: int
    a3: int
    a4: int

    def __add__(self, other):  # type: ignore[override]
        return RootVector(*(x + y for x, y in zip(self, other)))

    def scaled(self, m: int) -> "RootVector":
        return RootVector(*(m * x for x in self))

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return tuple(self)

    def __str__(self) -> str:
        return f"({self.a0},{self.a1},{self.a2},{self.a3},{self.a4})"


C = RootVector(1, 0, 0, 0, 0)
E_LEGS = (RootVector(0, 1, 0, 0, 0), RootVector(0, 0, 1, 0, 0))
F_LEGS = (RootVector(0, 0, 0, 1, 0), RootVector(0, 0, 0, 0, 1))
# central label 2 per level: the type-2 roots then carry central label
# 2n+1 and the one-leg roots 2n, matching the quotient dimensions
DELTA = RootVector(2, 1, 1, 1, 1)


def check_signs(obj, *signs: int) -> None:
    """Refuse obj, a kind or a sign vector, unless each sign is +-1."""
    if any(s not in (1, -1) for s in signs):
        raise ValueError(f"{obj!r} names no root: a sign is +1 or -1")


def _check_kind(k, signs: tuple[int, ...], first: int, family: str, leg: int = 0) -> None:
    """Refuse a kind as it is made: a sign or one-leg index that names no
    root (ValueError), or a level below its family's first."""
    check_signs(k, *signs)
    if leg not in (0, 1):
        raise ValueError(f"{k!r} names no root: a leg index is 0 or 1")
    if k.n < first:
        raise NonPositiveEntryError(f"{family} level must be >= {first}")


@dataclass(frozen=True)
class Type2:
    """c + n*Delta + sum (1-eps_i)/2 e_i + sum (1-del_i)/2 f_i."""

    eps0: int
    eps1: int
    del0: int
    del1: int
    n: int

    def __post_init__(self):
        _check_kind(self, self.signs, 0, "type-2")

    @property
    def signs(self) -> tuple[int, int, int, int]:
        return (self.eps0, self.eps1, self.del0, self.del1)


@dataclass(frozen=True)
class Type1E:
    """n*Delta + eps * e_i."""

    i: int
    eps: int
    n: int

    def __post_init__(self):
        _check_kind(self, (self.eps,), 1, "one-leg root", self.i)


@dataclass(frozen=True)
class Type1F:
    """n*Delta + delta * f_i."""

    i: int
    delta: int
    n: int

    def __post_init__(self):
        _check_kind(self, (self.delta,), 1, "one-leg root", self.i)


RootKind = Union[Type2, Type1E, Type1F]


def root_of_kind(k: RootKind) -> RootVector:
    """The coordinate vector of a strict root kind."""
    if isinstance(k, Type2):
        v = C + DELTA.scaled(k.n)
        for i, s in enumerate((k.eps0, k.eps1)):
            if s == -1:
                v = v + E_LEGS[i]
        for i, s in enumerate((k.del0, k.del1)):
            if s == -1:
                v = v + F_LEGS[i]
        return v
    if isinstance(k, Type1E):
        return DELTA.scaled(k.n) + E_LEGS[k.i].scaled(k.eps)
    if isinstance(k, Type1F):
        return DELTA.scaled(k.n) + F_LEGS[k.i].scaled(k.delta)
    raise TypeError(f"not a root kind: {k!r}")


def classify_root(v: RootVector) -> Optional[RootKind]:
    """Inverse of root_of_kind on its image; None outside the families."""
    a0, legs = v.a0, (v.a1, v.a2, v.a3, v.a4)
    if any(x < 0 for x in v) or all(x == 0 for x in v):
        return None
    if a0 % 2 == 0:
        n = a0 // 2
        offsets = [x - n for x in legs]
        hot = [(i, d) for i, d in enumerate(offsets) if d != 0]
        if n >= 1 and len(hot) == 1 and hot[0][1] in (1, -1):
            i, d = hot[0]
            if i < 2:
                return Type1E(i, d, n)
            return Type1F(i - 2, d, n)
        return None
    n = (a0 - 1) // 2
    if n < 0 or any(x - n not in (0, 1) for x in legs):
        return None
    signs = [1 if x == n else -1 for x in legs]
    return Type2(signs[0], signs[1], signs[2], signs[3], n)


def tits_form(v: RootVector) -> int:
    """The quadratic form of the star graph: 1 on real roots, 0 on
    imaginary ones."""
    a0, a1, a2, a3, a4 = v
    return a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4 - a0 * (a1 + a2 + a3 + a4)


@lru_cache(maxsize=32)
def enumerate_strict_roots(n_max: int) -> tuple[tuple[RootKind, RootVector], ...]:
    """All strict roots with level n <= n_max in deterministic order.

    Per level: 16 type-2 kinds (n >= 0) and 8 one-leg kinds (n >= 1), so
    16*(n_max+1) + 8*n_max entries total.
    The sequence is built once per n_max and shared, so it is a tuple.
    """
    out: list[tuple[RootKind, RootVector]] = []
    signs = (1, -1)
    for n in range(0, n_max + 1):
        for eps0 in signs:
            for eps1 in signs:
                for del0 in signs:
                    for del1 in signs:
                        k: RootKind = Type2(eps0, eps1, del0, del1, n)
                        out.append((k, root_of_kind(k)))
        if n == 0:
            continue
        for i in (0, 1):
            for eps in signs:
                k = Type1E(i, eps, n)
                out.append((k, root_of_kind(k)))
        for i in (0, 1):
            for delta in signs:
                k = Type1F(i, delta, n)
                out.append((k, root_of_kind(k)))
    return tuple(out)


def _sgn(s: int) -> str:
    return "+" if s > 0 else "-"


def kind_to_str(k: RootKind) -> str:
    """Compact string form, e.g. "T2[++,-+;n=3]" or "T1E[i=0,+;n=2]"."""
    if isinstance(k, Type2):
        return (
            f"T2[{_sgn(k.eps0)}{_sgn(k.eps1)},"
            f"{_sgn(k.del0)}{_sgn(k.del1)};n={k.n}]"
        )
    if isinstance(k, Type1E):
        return f"T1E[i={k.i},{_sgn(k.eps)};n={k.n}]"
    if isinstance(k, Type1F):
        return f"T1F[i={k.i},{_sgn(k.delta)};n={k.n}]"
    raise TypeError(f"not a root kind: {k!r}")


_T2_RE = re.compile(r"^T2\[([+-])([+-]),([+-])([+-]);n=(\d+)\]$")
_T1_RE = re.compile(r"^T1([EF])\[i=([01]),([+-]);n=(\d+)\]$")
_PM = {"+": 1, "-": -1}


def kind_from_str(text: str) -> RootKind:
    """Inverse of kind_to_str; a kind that names no root, such as a
    one-leg kind of level 0, raises NonPositiveEntryError as it is made."""
    s = text.strip()
    if m := _T2_RE.match(s):
        e0, e1, d0, d1 = (_PM[m.group(i)] for i in range(1, 5))
        return Type2(e0, e1, d0, d1, int(m.group(5)))
    if m := _T1_RE.match(s):
        cls = Type1E if m.group(1) == "E" else Type1F
        return cls(int(m.group(2)), _PM[m.group(3)], int(m.group(4)))
    raise ValueError(f"cannot parse root kind {text!r}")

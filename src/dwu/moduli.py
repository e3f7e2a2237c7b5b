"""Moduli of orientation-twisted bundles on surfaces via holonomy tuples.

A surface is a fundamental-group presentation: one generator list with
orientation characters (+1 for orientable handles, -1 for crosscap loops) and
one relator word.  Holonomy points are generator tuples satisfying the relator
whose signs match the orientation characters; the even subgroup acts by
simultaneous conjugation.  The direct route walks the relator (dwu.tqft);
the tests enumerate the points and build the bundle, circle, crosscap and
one-loop groupoids from them as its brute-force references (tests/oracles.py).

Presentations used:
  sphere         no generators, empty relator
  orientable g   a1 b1 .. ag bg, relator prod_i [b_i, a_i]
  Klein bottle   <a, b | a b a b^-1> with a even, b odd (the two-generator
                 model whose holonomy set is {(g, s): s g^-1 s^-1 = g})
  nonorientable k (k != 2)   x1 .. xk all odd, relator x1^2 .. xk^2

The commutators in the orientable relator are ordered so that the transgressed
pairing reproduces the standard torus phase lambda(g2,g1) - lambda(g1,g2).
"""

from __future__ import annotations

import itertools
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from dwu.groups import FiniteGroup, GradedGroup, ResourceBudgetError

DEFAULT_BUDGET = 5_000_000


def enumeration_budget() -> int:
    """DW_BUDGET when it is set, else DEFAULT_BUDGET; the one reader of DW_BUDGET."""
    env = os.environ.get("DW_BUDGET")
    try:
        return int(env) if env else DEFAULT_BUDGET
    except ValueError:
        raise ValueError(f"DW_BUDGET must be an integer, got {env!r}") from None


def require_budget(what: str, size: int, budget: int | None = None) -> None:
    """Raise ResourceBudgetError when size exceeds budget (default: enumeration_budget())."""
    if budget is None:
        budget = enumeration_budget()
    if size > budget:
        raise ResourceBudgetError(f"{what} size {size} exceeds budget {budget}")


@dataclass(frozen=True)
class Surface:
    """A closed surface with its presentation data."""

    kind: str  # "orientable" | "nonorientable"
    param: int  # genus g >= 0 | crosscaps k >= 1

    def __post_init__(self):
        if self.kind == "orientable":
            if self.param < 0:
                raise ValueError("genus must be >= 0")
        elif self.kind == "nonorientable":
            if self.param < 1:
                raise ValueError("crosscap count must be >= 1")
        else:
            raise ValueError(f"unknown surface kind {self.kind!r}")

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.param if self.kind == "orientable" else 2 - self.param

    @property
    def orientable(self) -> bool:
        return self.kind == "orientable"

    def generator_characters(self) -> tuple:
        """+1/-1 orientation character per generator."""
        if self.kind == "orientable":
            return (1,) * (2 * self.param)
        if self.param == 2:
            return (1, -1)  # Klein bottle model: a even, b odd
        return (-1,) * self.param

    def relator(self) -> list[tuple[int, int]]:
        """The relator word as (generator index, exponent) letters."""
        if self.kind == "orientable":
            word = []
            for i in range(self.param):
                a, b = 2 * i, 2 * i + 1
                word += [(b, 1), (a, 1), (b, -1), (a, -1)]
            return word
        if self.param == 2:
            return [(0, 1), (1, 1), (0, 1), (1, -1)]
        return [(i, 1) for i in range(self.param) for _ in range(2)]

    @property
    def name(self) -> str:
        if self.kind == "orientable":
            return {0: "S2", 1: "T2"}.get(self.param, f"Sigma_g={self.param}")
        return {1: "RP2", 2: "K"}.get(self.param, f"N_k={self.param}")

    def __repr__(self):
        return f"Surface({self.name})"


SPHERE = Surface("orientable", 0)
TORUS = Surface("orientable", 1)
RP2 = Surface("nonorientable", 1)
KLEIN = Surface("nonorientable", 2)


def parse_surface(spec: str) -> Surface:
    spec = spec.strip()
    fixed = {"S2": SPHERE, "T2": TORUS, "RP2": RP2, "K": KLEIN}
    if spec in fixed:
        return fixed[spec]
    m = re.fullmatch(r"Sigma_g=(\d+)", spec)
    if m:
        return Surface("orientable", int(m.group(1)))
    m = re.fullmatch(r"N_k=(\d+)", spec)
    if m:
        return Surface("nonorientable", int(m.group(1)))
    raise ValueError(f"cannot parse surface spec {spec!r}")


def word_value(group: FiniteGroup, word, holonomy, prefix=0):
    """The product prefix * word at this holonomy; the holonomy entries and
    prefix may be integer arrays, which broadcast."""
    for gen, exp in word:
        prefix = group.table[prefix, holonomy[gen] if exp == 1 else group.inverse[holonomy[gen]]]
    return prefix


def holonomy_points(surface: Surface, GG: GradedGroup, budget: int | None = None) -> list[tuple]:
    """All generator tuples satisfying the relator and orientation characters."""
    pools = [np.flatnonzero(GG.sign == c).tolist() for c in surface.generator_characters()]
    require_budget("holonomy enumeration", math.prod(map(len, pools)), budget)
    tuples, out = itertools.product(*pools), []
    while chunk := list(itertools.islice(tuples, 1 << 16)):  # bounded memory
        columns = np.array(chunk, dtype=np.int64).reshape(len(chunk), len(pools)).T
        ends = word_value(GG.group, surface.relator(), columns, np.zeros(len(chunk), np.int64))
        out += [tup for tup, end in zip(chunk, ends) if end == 0]
    return out

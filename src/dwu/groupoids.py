"""Finite action groupoids and groupoid-cardinality integration.

A groupoid is presented as a finite set with a group action; components carry
their orbit size and automorphism (stabilizer) order, and integration weights
a class function by 1/|Aut|.  The double reflective loop groupoid of a graded
group is built as an explicit action groupoid, the tests' reference for the KR
integral that dwu.tqft counts over its carrier.  The loop, point and moduli
groupoids the tests build live in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from dwu.groups import FiniteGroup, GradedGroup


@dataclass(frozen=True)
class ActionGroupoid:
    """A finite set with a group action, action law checked on construction."""

    carrier: tuple
    acting_group: FiniteGroup
    action: dict  # (h, x) -> x
    label: str = "groupoid"
    _index: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        H, table = self.acting_group, self.acting_group.table.tolist()
        for x in self.carrier:
            if self.action[(0, x)] != x:
                raise ValueError(f"identity does not fix {x}")
        for h1 in range(H.order):
            for h2 in range(H.order):
                for x in self.carrier:
                    if self.action[(h2, self.action[(h1, x)])] != self.action[(table[h2][h1], x)]:
                        raise ValueError(f"action law fails at {(h2, h1, x)}")
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(self.carrier)})

    @classmethod
    def build(cls, carrier, acting_group: FiniteGroup, act, label: str = "groupoid"):
        carrier = tuple(carrier)
        action = {
            (h, x): act(h, x) for h in range(acting_group.order) for x in carrier
        }
        return cls(carrier=carrier, acting_group=acting_group, action=action, label=label)

    def components(self) -> list[tuple]:
        """(representative, orbit size, automorphism order) per orbit."""
        return orbits(self.carrier, self.acting_group.order, lambda h, x: self.action[(h, x)])

    def integrate(self, f):
        """Sum of f(representative)/|Aut| over components; f must be invariant.

        The terms are weighted by the integer orbit sizes |H|/|Aut| and the
        total is divided by |H| once."""
        H = self.acting_group
        for x in self.carrier:
            fx = f(x)
            for h in range(H.order):
                y = self.action[(h, x)]
                if f(y) != fx:
                    raise ValueError(f"integrand not invariant: f({x}) != f({y}) under h={h}")
        total = None
        for rep, size, _ in self.components():
            term = f(rep) * size
            total = term if total is None else total + term
        if total is None:
            return 0
        return total / H.order

    def cardinality(self) -> Fraction:
        return sum((Fraction(1, stab) for _, _, stab in self.components()), Fraction(0))


def orbits(points, group_order: int, act) -> list[tuple]:
    """(representative, orbit size, stabilizer order) per orbit, in first-seen order.

    act(h, x) is the action of group element h in range(group_order) on x.
    """
    unseen = set(points)
    out = []
    for x in points:
        if x not in unseen:
            continue
        images = [act(h, x) for h in range(group_order)]
        orbit = set(images)
        unseen -= orbit
        stab = images.count(x)
        assert len(orbit) * stab == group_order
        out.append((x, len(orbit), stab))
    return out


def double_real_loop(GG: GradedGroup) -> ActionGroupoid:
    """The pairs (g, w), g even, with w g^{sign w} w^-1 = g, the whole group
    acting by Real conjugation on g and conjugation on w."""
    G, even, sub_of = GG.group, GG.even_part.tolist(), GG.even_index.tolist()
    rc, conj = GG.real_conjugation.tolist(), G.conjugation.tolist()
    carrier = [(g, w) for i, g in enumerate(even) for w in range(G.order) if rc[w][i] == g]

    def act(h, pt):
        g, w = pt
        return (rc[h][sub_of[g]], conj[h][w])

    return ActionGroupoid.build(carrier, G, act, label=f"LLref({G.name})")

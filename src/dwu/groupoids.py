"""Finite action groupoids and groupoid-cardinality integration.

A groupoid is presented as a finite set with a group action; components carry
their orbit size and automorphism (stabilizer) order, and integration weights
a class function by 1/|Aut|.  The double reflective loop groupoid of a graded
group is built as an explicit action groupoid, the tests' reference for the KR
integral; its carrier is what dwu.tqft counts over.  The loop, point and
moduli groupoids the tests build live in tests/oracles.py.  The orbit loop and
the flat-section search over conjugation (the exact orbifold and the
floating-point center) are module functions shared by their callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from dwu.groups import FiniteGroup, GradedGroup, real_conjugate


@dataclass(frozen=True)
class ActionGroupoid:
    """A finite set with a group action, action law checked on construction."""

    carrier: tuple
    acting_group: FiniteGroup
    action: dict  # (h, x) -> x
    label: str = "groupoid"
    _index: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        H = self.acting_group
        for x in self.carrier:
            if self.action[(0, x)] != x:
                raise ValueError(f"identity does not fix {x}")
        for h1 in range(H.order):
            for h2 in range(H.order):
                for x in self.carrier:
                    if self.action[(h2, self.action[(h1, x)])] != self.action[(H.table[h2][h1], x)]:
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


def flat_sections(G: FiniteGroup, start, step) -> list[tuple]:
    """(representative, {g: value}) per conjugacy class of G carrying a flat section.

    The section is start at the class representative and is transported along
    conjugation: step(k, g, v) is its value at k g k^-1 given the value v at g.
    A class on which transport is inconsistent carries no section.
    """
    out = []
    for cls in G.conjugacy_classes():
        values = _transport(G, cls[0], start, step)
        if values is not None:
            out.append((cls[0], values))
    return out


def _transport(G: FiniteGroup, rep: int, start, step):
    values = {rep: start}
    reached = [rep]
    for g in reached:  # grows while it is walked
        for k in range(G.order):
            g2, v2 = G.conj(k, g), step(k, g, values[g])
            if g2 not in values:
                values[g2] = v2
                reached.append(g2)
            elif values[g2] != v2:
                return None
    return values


def double_real_loop_carrier(GG: GradedGroup) -> list[tuple]:
    """Pairs (g, w), g even, with w g^{sign(w)} w^{-1} = g."""
    return [
        (g, w)
        for g in GG.even_part
        for w in range(GG.group.order)
        if real_conjugate(GG, w, g) == g
    ]


def double_real_loop(GG: GradedGroup) -> ActionGroupoid:
    """The double loop carrier with the whole group acting by Real conjugation
    on g and conjugation on w."""
    G = GG.group

    def act(h, pt):
        g, w = pt
        return (real_conjugate(GG, h, g), G.conj(h, w))

    return ActionGroupoid.build(double_real_loop_carrier(GG), G, act, label=f"LLref({G.name})")

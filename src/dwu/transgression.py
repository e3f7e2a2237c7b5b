"""Transgressed cocycles and fundamental-class pairings on surfaces.

tau_ref sends a twisted 2-cocycle on BG^ to a 1-cochain on the reflective loop
groupoid (objects the even part, a morphism w: g -> w g^{sign w} w^{-1}):

    tau(w, g) = ((sign(w)-1)/2) * L(g^-1, g) + L(w g^{sign w} w^-1, w) - L(w, g^{sign w})

which restricts on even w to the ordinary loop transgression
tau(h, g) = L(h g h^-1, h) - L(h, g).

Surface pairings <L, [Sigma]> are evaluated on an explicit 2-chain: the fan
sum_j [p_j | s_j] over the letters s_j of the relator word, p_j the product
of the letters before s_j (the term of p_0 = e is 0 on normalized cochains),
corrected by -[x | x^-1] for every generator whose relator letters are x and
x^-1 (handles and the odd Klein generator); the x^2 letters of crosscap
generators already cancel in the twisted boundary.  These conventions
reproduce the literal closed forms for the torus, the projective plane and
the Klein bottle.  A relator's pairing is the sum of the fans of its pieces,
each read after the pieces before it: the direct route walks them.

Everything here is an integer exponent mod the cocycle's N: tau_ref, the one
transgression, is an exponent table over GradedGroup.real_conjugation, and a
pairing is a sum of integers mod N, for integer arrays of holonomies at once.
LoopCocycle.value returns a Phase, the value type at the API edge.  The tests check relator_pairing against a
one-holonomy pairing and the torus, RP2 and Klein closed forms
(tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dwu.cohomology import TwistedCochain, is_twisted_cocycle
from dwu.groups import GradedGroup
from dwu.moduli import Surface
from dwu.phases import Phase


def require_cocycle(c: TwistedCochain, degree: int = 2):
    if c.degree != degree:
        raise ValueError(f"expected a {degree}-cochain, got degree {c.degree}")
    cached = getattr(c, "_is_cocycle", None)
    if cached is None:
        cached = is_twisted_cocycle(c)
        object.__setattr__(c, "_is_cocycle", cached)  # frozen but immutable-safe
    if not cached:
        raise ValueError("input cochain is not a twisted cocycle")


@dataclass(frozen=True, eq=False)
class LoopCocycle:
    """A 1-cocycle on the reflective loop groupoid as exponents mod N: the
    phase of the morphism w at the object g (an even element of G^) is
    table[w, g] / N.  Columns of odd elements are zero."""

    graded_group: GradedGroup
    N: int
    table: np.ndarray

    def value(self, w: int, g: int) -> Phase:
        return Phase(int(self.table[w, g]), self.N)

    def check_cocycle_law(self) -> bool:
        """value(w2 w1, g) = value(w2, w1.g) + value(w1, g) for all w1, w2, g."""
        GG, t, even = self.graded_group, self.table, self.graded_group.even_part
        lhs = t[GG.group.table][:, :, even]  # [w2, w1, g]
        rhs = t[:, GG.real_conjugation] + t[:, even]
        return not ((lhs - rhs) % self.N).any()


def tau_ref(lambda_hat: TwistedCochain, GG: GradedGroup) -> LoopCocycle:
    """The reflective loop transgression of a twisted 2-cocycle, computed once
    per graded group and kept on the cochain."""
    require_cocycle(lambda_hat)
    computed = vars(lambda_hat).setdefault("_tau_ref", {})
    if GG in computed:
        return computed[GG]
    G, lam, inv = GG.group, lambda_hat.table, GG.group.inverse
    w = np.arange(G.order)[:, None]
    g = GG.even_part[None, :]
    odd = GG.sign[w] == -1
    table = np.zeros((G.order, G.order), dtype=np.int64)
    table[:, GG.even_part] = (
        lam[GG.real_conjugation, w] - lam[w, np.where(odd, inv[g], g)] - odd * lam[inv[g], g]
    ) % lambda_hat.N
    out = LoopCocycle(graded_group=GG, N=lambda_hat.N, table=table)
    if not out.check_cocycle_law():
        raise AssertionError("transgressed cochain fails the loop 1-cocycle law")
    computed[GG] = out
    return out


def relator_pairing(cochain: TwistedCochain, surface: Surface, holonomy, prefix=0):
    """<cochain, fundamental 2-chain> for the surface's relator at this
    holonomy, as an exponent mod cochain.N.

    The fan starts at prefix: with prefix p the value is that of the relator
    word read after a word of product p, one piece of a longer relator.  The
    holonomy entries and prefix may be integer arrays, which broadcast."""
    table, inv = cochain.group.table, cochain.group.inverse
    lam = cochain.table
    acc = 0
    for gen, exp in surface.relator():
        x = holonomy[gen] if exp == 1 else inv[holonomy[gen]]
        acc = acc + lam[prefix, x]
        if exp == -1:  # the correction -[y | y^-1] of a generator y = x^-1
            acc = acc - lam[holonomy[gen], x]
        prefix = table[prefix, x]
    return acc % cochain.N

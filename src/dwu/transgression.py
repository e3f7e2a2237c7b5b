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
transgression, is a read-only exponent table over GradedGroup.real_conjugation,
checked once against the loop 1-cocycle law (satisfies_loop_law), and a
pairing is a sum of integers mod N, for integer arrays of holonomies at once.
The tests check relator_pairing against a one-holonomy pairing and the torus,
RP2 and Klein closed forms (tests/oracles.py).
"""

from __future__ import annotations

import numpy as np

from dwu.cohomology import TwistedCochain, is_twisted_cocycle
from dwu.groups import GradedGroup
from dwu.moduli import Surface


def require_cocycle(c: TwistedCochain, degree: int = 2):
    if c.degree != degree:
        raise ValueError(f"expected a {degree}-cochain, got degree {c.degree}")
    cached = getattr(c, "_is_cocycle", None)
    if cached is None:
        cached = is_twisted_cocycle(c)
        object.__setattr__(c, "_is_cocycle", cached)  # frozen but immutable-safe
    if not cached:
        raise ValueError("input cochain is not a twisted cocycle")


def satisfies_loop_law(GG: GradedGroup, table: np.ndarray, N: int) -> bool:
    """The loop 1-cocycle law of an exponent table [w, g] mod N:
    table[w2 w1, g] = table[w2, w1.g] + table[w1, g] for all w1, w2, g."""
    even = GG.even_part
    lhs = table[GG.group.table][:, :, even]  # [w2, w1, g]
    rhs = table[:, GG.real_conjugation] + table[:, even]
    return not ((lhs - rhs) % N).any()


def tau_ref(lambda_hat: TwistedCochain, GG: GradedGroup) -> np.ndarray:
    """The reflective loop transgression: a read-only table [w, g] of exponents
    mod lambda_hat.N, zero in odd columns, kept on the cochain per graded group."""
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
    if not satisfies_loop_law(GG, table, lambda_hat.N):
        raise AssertionError("transgressed cochain fails the loop 1-cocycle law")
    table.flags.writeable = False
    computed[GG] = table
    return table


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

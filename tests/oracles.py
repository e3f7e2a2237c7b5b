"""Brute-force references for the direct route and the KR integral.

`dwu.tqft.partition_direct` walks the relator one handle or crosscap at a
time and `dwu.tqft._kr_integral` counts roots over the double-loop carrier.
The tests hold them to the same sums in their brute-force forms: every
holonomy point of the surface's presentation paired with the fundamental
chain, the same points grouped into orbits of the even part's conjugation and
weighted by orbit size, and the KR integrand integrated over the double real
loop as an action groupoid.  Each divides by the group order once.
"""

import numpy as np

from dwu.groupoids import double_real_loop, orbits
from dwu.moduli import even_conjugation, holonomy_points
from dwu.phases import CycField
from dwu.transgression import relator_pairing, tau_ref


def _points_and_pairings(GG, lambda_hat, surface):
    """The holonomy points and the pairing exponent of each."""
    points = holonomy_points(surface, GG)
    arity = len(surface.generator_characters())
    columns = np.array(points, dtype=np.int64).reshape(len(points), arity).T
    pairings = relator_pairing(lambda_hat, surface, columns)
    return points, np.broadcast_to(pairings, (len(points),)).tolist()


def enumeration_sum(GG, lambda_hat, surface, field):
    """(1/|G|) sum over every holonomy point of its pairing."""
    _, pairings = _points_and_pairings(GG, lambda_hat, surface)
    counts = np.bincount(pairings, minlength=lambda_hat.N)
    return field.from_counts(counts, GG.even_subgroup.order)


def orbit_sum(GG, lambda_hat, surface, field):
    """(1/|G|) sum over conjugation orbits of (orbit size) times the pairing
    of the orbit's first point: the groupoid-cardinality form."""
    points, pairings = _points_and_pairings(GG, lambda_hat, surface)
    pairing = dict(zip(points, pairings))
    order = GG.even_subgroup.order
    counts = [0] * lambda_hat.N
    for rep, size, _ in orbits(points, order, even_conjugation(GG)):
        counts[pairing[rep]] += size
    return field.from_counts(counts, order)


def kr_groupoid_integrals(GG, lambda_hat, field):
    """tau_ref integrated over the double real loop built as an action
    groupoid (which checks the action law and the integrand's invariance):
    as it is, and flipped by 1/2 on odd w (in Q(zeta_2L) when L is odd)."""
    t = tau_ref(lambda_hat, GG).table.tolist()
    N = lambda_hat.N
    gpd = double_real_loop(GG)
    flip_field = CycField(2 * field.L) if field.L % 2 else field

    def f(pt):
        g, w = pt
        return field.root(t[w][g], N)

    def flipped(pt):
        g, w = pt
        if GG.sign[w] == -1:
            return flip_field.root(2 * t[w][g] + N, 2 * N)
        return flip_field.root(t[w][g], N)

    return gpd.integrate(f), gpd.integrate(flipped)

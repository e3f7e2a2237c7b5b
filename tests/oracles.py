"""Brute-force references for the direct route, the KR integral and the
Howell elimination.

`dwu.tqft.partition_direct` walks the relator one handle or crosscap at a
time and `dwu.tqft._kr_integral` counts roots over the double-loop carrier.
The tests hold them to the same sums in their brute-force forms: every
holonomy point of the surface's presentation paired with the fundamental
chain, the same points grouped into orbits of the even part's conjugation and
weighted by orbit size, and the KR integrand integrated over the double real
loop as an action groupoid.  Each divides by the group order once.
`dwu.intlinalg` keeps only the coefficient rows of the matrices it reduces;
`row_reduce_mod` here stores and reduces every row in full, one at a time.
"""

import math

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


def _egcd(a, b):
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def row_reduce_mod(A, N):
    """Howell-style echelon form of the rows of A over Z/N, one dense row at a
    time: the elimination `dwu.intlinalg` ran before it tracked coefficient
    rows only.  Returns (H, pivots)."""
    A = np.array(A, dtype=np.int64) % N
    rows = [r for r in A if r.any()]
    m_cols = A.shape[1]
    result = []
    pivots = []
    col = 0
    while col < m_cols and rows:
        cand = [r for r in rows if r[col] % N]
        rest = [r for r in rows if not (r[col] % N)]
        if not cand:
            col += 1
            continue
        piv = cand[0]
        for r in cand[1:]:
            g, u, v = _egcd(int(piv[col]), int(r[col]))
            new_piv = (u * piv + v * r) % N
            for old in (piv, r):
                resid = (old - (int(old[col]) // g) * new_piv) % N
                if resid.any():
                    rest.append(resid)
            piv = new_piv
        g = math.gcd(int(piv[col]), N)
        unit = (int(piv[col]) // g) % (N // g) if N // g > 1 else 1
        _, inv, _ = _egcd(unit, N // g)
        piv = (piv * (inv % (N // g) if N // g > 1 else 1)) % N
        piv[col] = g
        ann = ((N // g) * piv) % N
        if ann.any():
            rest.append(ann)
        result.append((col, piv))
        pivots.append(col)
        rows = rest
        col += 1
    result_rows = [r for _, r in result]
    for i in range(len(result_rows) - 1, -1, -1):
        c = result[i][0]
        g = int(result_rows[i][c])
        for j in range(i):
            q = int(result_rows[j][c]) // g
            if q:
                result_rows[j] = (result_rows[j] - q * result_rows[i]) % N
    H = np.array(result_rows, dtype=np.int64) if result_rows else np.zeros((0, m_cols), dtype=np.int64)
    return H, pivots

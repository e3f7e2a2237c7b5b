"""The twisted group algebra over the even part and its block data.

The algebra is two (n, n) tables over the even subgroup: the product table
and the phases exp(2 pi i lambda(g, h)).  A product of coefficient vectors is
one scatter-add of u_g v_h phase(g, h) onto table[g, h], batched over any
leading axes, so the centre's structure constants, the idempotent checks and
centrality are each one call.

Blocks (primitive central idempotents) are found without character tables:
the center is spanned by regular-class sums, the flat sections of
groups.flat_sections under the conjugation phases lambda(h, g) -
lambda(h g h^-1, h) read off the cochain table, a random real combination of the
multiplication operators on the center separates the simultaneous eigenvectors,
and each eigenvector normalizes to an idempotent.  The draw is fixed: the
standard library's Random(12345), one gauss(0, 1) weight per centre dimension,
so numpy.random (and the OpenSSL it loads) is never imported.  The blocks do
not depend on it.  Block dimensions come from the identity coefficient, and
twisted Frobenius-Schur indicators come from expanding the crosscap element
Q = sum_s lambda^(s,s) l_{s^2} over the blocks as Q = sum_V nu(V) (|G|/dim V) p_V.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from random import Random

import numpy as np

from dwu.cohomology import TwistedCochain, restrict_to_even
from dwu.groups import GradedGroup, flat_sections
from dwu.phases import root_of_unity
from dwu.transgression import require_cocycle

INTERNAL_TOL = 1e-9  # block extraction
REPORT_TOL = 1e-6  # indicator integrality


class BlockComputationError(RuntimeError):
    """Numerical block extraction failed; carries the residual report."""


@dataclass
class BlockData:
    idempotent: np.ndarray  # complex coefficients over the even subgroup
    dimension: int
    indicator: int | None = None

    def fingerprint(self) -> tuple:
        return tuple(
            (round(float(z.real), 8) + 0.0, round(float(z.imag), 8) + 0.0)
            for z in self.idempotent
        )


class TwistedGroupAlgebra:
    """C^lambda[G] for G the even part; l_g l_h = phase[g, h] l_{table[g, h]}."""

    def __init__(self, GG: GradedGroup, lam: TwistedCochain):
        self.group = GG.even_subgroup
        if not np.array_equal(lam.group.table, self.group.table) or (lam.signs != 1).any():
            raise ValueError("lambda must be an untwisted cochain on the even subgroup")
        require_cocycle(lam)
        self.lam = lam
        self.dim = self.group.order
        self.table = self.group.table
        self.phase = np.array([[root_of_unity(k, lam.N) for k in row] for row in lam.rows])

    def product(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """u v over the last axis; leading axes broadcast."""
        terms = u[..., :, None] * v[..., None, :] * self.phase
        out = np.zeros(terms.shape[:-1], dtype=complex)
        np.add.at(out, (..., self.table), terms)
        return out

    def center_basis(self) -> np.ndarray:
        """One row per lambda-regular class: its flat class sum."""
        lam, N = self.lam.table, self.lam.N
        # transport along g -> h g h^-1 by lambda(h, g) - lambda(h g h^-1, h)
        phase = lam - lam[self.group.conjugation, np.arange(self.dim)[:, None]]
        section, exponent = flat_sections(self.group, phase, N)
        held = np.flatnonzero(section >= 0)
        Z = np.zeros((section.max() + 1, self.dim), dtype=complex)
        Z[section[held], held] = [root_of_unity(k, N) for k in exponent[held].tolist()]
        return Z


def blocks(algebra: TwistedGroupAlgebra) -> list[BlockData]:
    """Primitive central idempotents with dimensions, deterministically ordered."""
    centre = algebra.center_basis()
    r = len(centre)
    n = algebra.dim
    if r == 0:
        raise BlockComputationError("empty center")
    reps = np.argmax(np.abs(centre), axis=1)
    # structure constants of the center: z_i z_j = sum_k c_ijk z_k (disjoint
    # supports), mats[i][k, j] = c_ijk
    prods = algebra.product(centre[:, None], centre[None, :])
    mats = (prods[:, :, reps] / centre[np.arange(r), reps]).transpose(0, 2, 1)
    draw = Random(12345)
    for _ in range(8):
        w = [draw.gauss(0, 1) for _ in range(r)]
        T = sum(wi * M for wi, M in zip(w, mats))
        evals, evecs = np.linalg.eig(T)
        if np.min(np.abs(evals[:, None] - evals[None, :]) + np.eye(r)) > 1e-6:
            break
    else:
        raise BlockComputationError("could not separate center eigenvalues")
    A = evecs.T @ centre  # one candidate idempotent per row
    rows = np.arange(r)
    j = np.argmax(np.abs(A), axis=1)
    kappa = algebra.product(A, A)[rows, j] / A[rows, j]
    if np.any(np.abs(kappa) < INTERNAL_TOL):
        raise BlockComputationError("nilpotent direction in a semisimple center")
    P = A / kappa[:, None]
    residual = np.max(np.abs(algebra.product(P, P) - P), axis=1)
    if np.any(residual > INTERNAL_TOL):
        raise BlockComputationError(f"idempotent residual {residual.max():.2e}")
    d_sq = n * P[:, 0]
    bad = (np.abs(d_sq.imag) > 1e-6) | (d_sq.real < 0)
    if bad.any():
        raise BlockComputationError(f"invalid dimension^2 = {d_sq[bad][0]}")
    dims = np.rint(np.sqrt(d_sq.real)).astype(int)
    bad = np.abs(dims * dims - d_sq.real) > 1e-6
    if bad.any():
        raise BlockComputationError(f"dimension^2 = {d_sq.real[bad][0]} not a square")
    # validate the partition of unity and orthogonality
    if np.max(np.abs(P.sum(axis=0) - np.eye(n)[0])) > 1e-7:
        raise BlockComputationError("idempotents do not sum to the unit")
    a, b = np.triu_indices(r, 1)
    if np.max(np.abs(algebra.product(P[a], P[b])), initial=0.0) > 1e-7:
        raise BlockComputationError("idempotents not orthogonal")
    if np.sum(dims * dims) != n:
        raise BlockComputationError("sum of squared dimensions != |G|")
    out = [BlockData(idempotent=p, dimension=int(d)) for p, d in zip(P, dims)]
    out.sort(key=lambda b: (b.dimension, b.fingerprint()))
    return out


def crosscap_element(GG: GradedGroup, lambda_hat: TwistedCochain) -> np.ndarray:
    """Q = sum over odd s of lambda^(s,s) l_{s^2} as a complex vector."""
    require_cocycle(lambda_hat)
    odd, N = GG.odd_part(), lambda_hat.N
    Q = np.zeros(GG.even_subgroup.order, dtype=complex)
    roots = [root_of_unity(k, N) for k in lambda_hat.table[odd, odd].tolist()]
    np.add.at(Q, GG.even_index[GG.group.table[odd, odd]], roots)
    return Q


def assert_central(algebra: TwistedGroupAlgebra, v: np.ndarray):
    basis = np.eye(algebra.dim, dtype=complex)
    gap = np.max(np.abs(algebra.product(basis, v) - algebra.product(v, basis)), axis=1)
    if np.any(gap > 1e-8):
        raise ValueError(f"element is not central (witness g={int(np.argmax(gap > 1e-8))})")


def fs_indicators(
    block_list: list[BlockData], Q: np.ndarray, algebra: TwistedGroupAlgebra
) -> list[BlockData]:
    """Fill indicators from Q = sum_V nu(V) (|G|/dim V) p_V."""
    assert_central(algebra, Q)
    P = np.array([b.idempotent for b in block_list])
    dims = np.array([b.dimension for b in block_list])
    nu_complex = algebra.product(Q, P)[:, 0] / P[:, 0] * dims / algebra.dim
    nu = np.rint(nu_complex.real).astype(int)
    residual = np.abs(nu_complex - nu)
    bad = (np.abs(nu) > 1) | (residual > REPORT_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise BlockComputationError(
            f"indicator {nu_complex[i]} does not round to -1/0/+1 (residual {residual[i]:.2e})"
        )
    return [replace(b, indicator=int(x)) for b, x in zip(block_list, nu)]


def algebra_from_graded(GG: GradedGroup, lambda_hat: TwistedCochain) -> TwistedGroupAlgebra:
    """Convenience: the twisted algebra of the even restriction of lambda^."""
    return TwistedGroupAlgebra(GG, restrict_to_even(lambda_hat, GG))

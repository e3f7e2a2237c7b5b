"""The twisted group algebra over the even part and its block data.

Blocks (primitive central idempotents) are found without character tables:
the center is spanned by regular-class sums, a random real combination of the
multiplication operators on the center separates the simultaneous eigenvectors,
and each eigenvector normalizes to an idempotent.  Block dimensions come from
the identity coefficient, and twisted Frobenius-Schur indicators come from
expanding the crosscap element Q = sum_s lambda^(s,s) l_{s^2} over the blocks
as Q = sum_V nu(V) (|G|/dim V) p_V.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from dwu.cohomology import TwistedCochain, is_twisted_cocycle, restrict_to_even
from dwu.groupoids import flat_sections
from dwu.groups import GradedGroup, real_conjugate
from dwu.phases import Phase, root_of_unity
from dwu.transgression import require_cocycle, tau_circle, tau_ref

INTERNAL_TOL = 1e-9
REPORT_TOL = 1e-6


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
    """C^lambda[G] for G the even part; l_g l_h = exp(2 pi i lambda(g,h)) l_{gh}."""

    def __init__(self, GG: GradedGroup, lam: TwistedCochain):
        self.GG = GG
        self.group = GG.even_subgroup
        if lam.group.table != self.group.table or any(s != 1 for s in lam.signs):
            raise ValueError("lambda must be an untwisted cochain on the even subgroup")
        require_cocycle(lam)
        self.lam = lam
        self._mult = [[root_of_unity(k, lam.N) for k in row] for row in lam.rows]
        self._tau = tau_circle(lam, self.group)

    @property
    def dim(self) -> int:
        return self.group.order

    def mult_phase(self, g: int, h: int) -> Phase:
        return self.lam.value((g, h))

    def unit(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def basis_product(self, g: int, h: int) -> tuple[int, complex]:
        return self.group.table[g][h], self._mult[g][h]

    def product(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim, dtype=complex)
        for g in range(self.dim):
            if u[g] == 0:
                continue
            for h in range(self.dim):
                if v[h] == 0:
                    continue
                k, ph = self.basis_product(g, h)
                out[k] += u[g] * v[h] * ph
        return out

    def left_mult_matrix(self, g: int) -> np.ndarray:
        M = np.zeros((self.dim, self.dim), dtype=complex)
        for h in range(self.dim):
            k, ph = self.basis_product(g, h)
            M[k, h] = ph
        return M

    def regular_class_exponents(self) -> list[dict]:
        """Per lambda-regular class, the flat coefficients {g: exponent mod lam.N}."""
        tau, N = self._tau, self.lam.N
        sections = flat_sections(self.group, 0, lambda k, g, e: (e - tau[k][g]) % N)
        return [exponents for _, exponents in sections]

    def center_basis(self) -> list[np.ndarray]:
        vecs = []
        for exponents in self.regular_class_exponents():
            v = np.zeros(self.dim, dtype=complex)
            for g, k in exponents.items():
                v[g] = root_of_unity(k, self.lam.N)
            vecs.append(v)
        return vecs

def twisted_algebra(GG: GradedGroup, lam: TwistedCochain) -> TwistedGroupAlgebra:
    return TwistedGroupAlgebra(GG, lam)


def blocks(algebra: TwistedGroupAlgebra, seed: int = 12345, tol: float = INTERNAL_TOL) -> list[BlockData]:
    """Primitive central idempotents with dimensions, deterministically ordered."""
    centre = algebra.center_basis()
    r = len(centre)
    n = algebra.dim
    if r == 0:
        raise BlockComputationError("empty center")
    reps = [int(np.argmax(np.abs(v))) for v in centre]
    # structure constants of the center: z_i z_j = sum_k c_ijk z_k (disjoint supports)
    mats = []
    for i in range(r):
        M = np.zeros((r, r), dtype=complex)
        for j in range(r):
            prod = algebra.product(centre[i], centre[j])
            for k in range(r):
                M[k, j] = prod[reps[k]] / centre[k][reps[k]]
        mats.append(M)
    rng = np.random.default_rng(seed)
    for _ in range(8):
        w = rng.standard_normal(r)
        T = sum(wi * M for wi, M in zip(w, mats))
        evals, evecs = np.linalg.eig(T)
        if np.min(np.abs(evals[:, None] - evals[None, :]) + np.eye(r)) > 1e-6:
            break
    else:
        raise BlockComputationError("could not separate center eigenvalues")
    out = []
    for idx in range(r):
        coeffs = evecs[:, idx]
        a = sum(c * v for c, v in zip(coeffs, centre))
        a2 = algebra.product(a, a)
        j = int(np.argmax(np.abs(a)))
        kappa = a2[j] / a[j]
        if abs(kappa) < tol:
            raise BlockComputationError("nilpotent direction in a semisimple center")
        p = a / kappa
        residual = np.max(np.abs(algebra.product(p, p) - p))
        if residual > tol:
            raise BlockComputationError(f"idempotent residual {residual:.2e}")
        d_sq = n * p[0]
        if abs(d_sq.imag) > 1e-6 or d_sq.real < 0:
            raise BlockComputationError(f"invalid dimension^2 = {d_sq}")
        d = int(round(float(np.sqrt(d_sq.real))))
        if abs(d * d - d_sq.real) > 1e-6:
            raise BlockComputationError(f"dimension^2 = {d_sq.real} not a square")
        out.append(BlockData(idempotent=p, dimension=d))
    # validate the partition of unity and orthogonality
    total = sum(b.idempotent for b in out)
    if np.max(np.abs(total - algebra.unit())) > 1e-7:
        raise BlockComputationError("idempotents do not sum to the unit")
    for a, b in itertools.combinations(out, 2):
        if np.max(np.abs(algebra.product(a.idempotent, b.idempotent))) > 1e-7:
            raise BlockComputationError("idempotents not orthogonal")
    if sum(b.dimension**2 for b in out) != n:
        raise BlockComputationError("sum of squared dimensions != |G|")
    out.sort(key=lambda b: (b.dimension, b.fingerprint()))
    return out


def crosscap_phase_table(GG: GradedGroup, lambda_hat: TwistedCochain) -> dict:
    """Exact Q data: even-subgroup index of s^2 -> list of the exponents of
    lambda^(s,s) mod lambda_hat.N."""
    require_cocycle(lambda_hat)
    table: dict[int, list[int]] = {}
    G = GG.group
    for s in GG.odd_part():
        carrier = GG.even_index[G.table[s][s]]
        table.setdefault(carrier, []).append(lambda_hat.rows[s][s])
    return table


def crosscap_element(GG: GradedGroup, lambda_hat: TwistedCochain) -> np.ndarray:
    """Q = sum over odd s of lambda^(s,s) l_{s^2} as a complex vector."""
    n = GG.even_subgroup.order
    Q = np.zeros(n, dtype=complex)
    for g, exponents in crosscap_phase_table(GG, lambda_hat).items():
        Q[g] = sum(root_of_unity(k, lambda_hat.N) for k in exponents)
    return Q


def assert_central(algebra: TwistedGroupAlgebra, v: np.ndarray, tol: float = 1e-8):
    for g in range(algebra.dim):
        lg = np.zeros(algebra.dim, dtype=complex)
        lg[g] = 1.0
        left = algebra.product(lg, v)
        right = algebra.product(v, lg)
        if np.max(np.abs(left - right)) > tol:
            raise ValueError(f"element is not central (witness g={g})")


def fs_indicators(
    block_list: list[BlockData],
    Q: np.ndarray,
    algebra: TwistedGroupAlgebra,
    tol: float = REPORT_TOL,
) -> list[BlockData]:
    """Fill indicators from Q = sum_V nu(V) (|G|/dim V) p_V."""
    assert_central(algebra, Q)
    n = algebra.dim
    out = []
    for b in block_list:
        p = b.idempotent
        c = algebra.product(Q, p)[0] / p[0]
        nu_complex = c * b.dimension / n
        nu = int(round(float(nu_complex.real)))
        residual = abs(nu_complex - nu)
        if nu not in (-1, 0, 1) or residual > tol:
            raise BlockComputationError(
                f"indicator {nu_complex} does not round to -1/0/+1 (residual {residual:.2e})"
            )
        out.append(BlockData(idempotent=p, dimension=b.dimension, indicator=nu))
    return out


@dataclass
class DualityPhases:
    """Phase data of the duality structure attached to an odd element."""

    sigma: int  # ambient odd element
    p_permutation: tuple  # even-subgroup permutation g -> sigma g^-1 sigma^-1
    p_phases: tuple  # Phase per even-subgroup element: -tau_ref(sigma, g)
    theta_phase: Phase  # lambda^(sigma, sigma)
    theta_carrier: int  # even-subgroup index of sigma^2
    F_phases: tuple  # Phase per even-subgroup element: lambda^(g, sigma)

    def apply_p(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros(len(v), dtype=complex)
        for g, coeff in enumerate(v):
            if coeff != 0:
                out[self.p_permutation[g]] += coeff * self.p_phases[g].to_complex()
        return out


def duality_phases(GG: GradedGroup, lambda_hat: TwistedCochain, sigma: int) -> DualityPhases:
    if GG.sign[sigma] != -1:
        raise ValueError(f"element {sigma} is even; the duality needs an odd element")
    require_cocycle(lambda_hat)
    t = tau_ref(lambda_hat, GG)
    G = GG.group
    perm = []
    p_phases = []
    F_phases = []
    for g_hat in GG.even_part:
        target = G.conj(sigma, G.inverse[g_hat])
        perm.append(GG.even_index[target])
        p_phases.append(-t.value(sigma, g_hat))
        F_phases.append(lambda_hat.value((g_hat, sigma)))
    s2 = G.table[sigma][sigma]
    return DualityPhases(
        sigma=sigma,
        p_permutation=tuple(perm),
        p_phases=tuple(p_phases),
        theta_phase=lambda_hat.value((sigma, sigma)),
        theta_carrier=GG.even_index[s2],
        F_phases=tuple(F_phases),
    )


@dataclass
class RealOneDimData:
    rep_phases: tuple  # Phase per even-subgroup element
    interval_phase: Phase  # lambda^(sigma^-1) for the chosen odd sigma
    invariants_dimension: int  # 1 iff the restriction to G is trivial


def real_1d_phases(GG: GradedGroup, lambda_hat_1: TwistedCochain) -> RealOneDimData:
    if lambda_hat_1.degree != 1:
        raise ValueError("expected a twisted 1-cocycle")
    if not is_twisted_cocycle(lambda_hat_1):
        raise ValueError("input is not a twisted 1-cocycle")
    G = GG.group
    rep = tuple(lambda_hat_1.value((g,)) for g in GG.even_part)
    sigma = GG.odd_part()[0]
    iota = lambda_hat_1.value((G.inverse[sigma],))
    # Real compatibility: the phase is invariant under Real conjugation
    t = lambda_hat_1.rows
    if any(t[real_conjugate(GG, s, g)] != t[g] for s in GG.odd_part() for g in GG.even_part):
        raise AssertionError("Real conjugation invariance fails for a 1-cocycle")
    inv_dim = 1 if all(p.is_zero() for p in rep) else 0
    return RealOneDimData(rep_phases=rep, interval_phase=iota, invariants_dimension=inv_dim)


def algebra_from_graded(GG: GradedGroup, lambda_hat: TwistedCochain) -> TwistedGroupAlgebra:
    """Convenience: the twisted algebra of the even restriction of lambda^."""
    return TwistedGroupAlgebra(GG, restrict_to_even(lambda_hat, GG))

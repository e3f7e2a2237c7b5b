"""The twisted group algebra over the even part and its blocks, exactly mod p.

The algebra C^lambda[G], G the even part, is the product table and the
exponents lambda(g, h) mod N.  It is computed over F_p for the least prime
p = 1 mod M above 2|G| (phases.prime_root), M = exp(G) N, where zeta_M is
the residue w and zeta_N is w^exp(G).  F_p splits C^lambda[G] as Q(zeta_M)
does (Brauer), p does not divide |G|, and every integer read below lies in
(-p/2, p/2).  The least such p keeps the power (p-1)/2 short; every int64 sum
adds at most |G| < p/2 products of two residues, so stays below p^3 < 2^63.
A product of coefficient vectors is one matrix product, u v = u @ R(v) with
R(v)[g, k] = v(g^-1 k) zeta_N^lambda(g, g^-1 k), batched over leading axes.

Blocks (primitive central idempotents) follow Dixon's method over F_p
(Dixon 1967; Schneider 1990, "Dixon's character table algorithm revisited").
The centre is spanned by regular-class sums, the flat sections of
groups.flat_sections under the conjugation phases lambda(h, g) -
lambda(h g h^-1, h).  For a = z + t, z a class sum other than the unit and
t = 1, 2, ..., the element b = a^((p-1)/2) is +1, -1 or 0 in each block, so
e (b^2 + b)/2, e (b^2 - b)/2 and e (1 - b^2) split every idempotent e found
so far, until there are as many as the centre has dimensions.  Two blocks
apart at z are split by t = -(their value at z), so some t < p splits them.
Block dimensions come from d^2 = |G| e_V(1), and twisted Frobenius-Schur
indicators from the crosscap element Q = sum_s lambda^(s,s) l_{s^2} =
sum_V nu(V) (|G|/dim V) e_V as nu(V) d = (Q e_V)(1).

Only the fingerprint that `dwu indicators` prints needs e_V over C, where
e_V(g) = (d/|G|) chi_V(l_g^-1).  With E = exp(G), l_g^E = zeta_N^c, so the
eigenvalues of l_g on V are E-th roots eps of zeta_N^c, and the multiplicity
of eps is (1/E) sum_{j<E} chi_V(l_g^j) eps^-j, an integer in [0, d] read from
its residue.  Then e_V(g) = (d/|G|) sum m_eps eps^-1 exactly; it is converted
to complex numbers only to be rounded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from dwu.cohomology import TwistedCochain, restrict_to_even
from dwu.groups import FiniteGroup, GradedGroup, flat_sections
from dwu.phases import geometric, prime_root
from dwu.transgression import require_cocycle


class BlockComputationError(RuntimeError):
    """The blocks or indicators broke an identity they must satisfy."""


@dataclass
class BlockData:
    idempotent: np.ndarray  # residues mod algebra.p over the even subgroup
    dimension: int
    indicator: int | None = None
    algebra: TwistedGroupAlgebra | None = field(default=None, repr=False, compare=False)

    def fingerprint(self) -> tuple:
        """The idempotent over C, each part rounded to 8 decimals."""
        return tuple((round(float(z.real), 8) + 0.0, round(float(z.imag), 8) + 0.0) for z in self.algebra.lift(self))


def _roots(G: FiniteGroup, N: int) -> tuple[np.ndarray, int, int, np.ndarray]:
    """(powers, p, w, zeta): powers[g, j] = g^j for j = 0..E, E = exp(G);
    (p, w) = prime_root(E N) with p > 2|G|; zeta[k] = zeta_N^k = w^(E k) mod p."""
    cols = [np.zeros(G.order, np.int64), np.arange(G.order)]
    while cols[-1].any():
        cols.append(G.table[cols[-1], cols[1]])
    p, w = prime_root((len(cols) - 1) * N, 2 * G.order)
    return np.stack(cols, 1), p, w, geometric(pow(w, len(cols) - 1, p), N, p)


class TwistedGroupAlgebra:
    """C^lambda[G] mod p for G the even part: l_g l_h = phase[g, h] l_{table[g, h]},
    phase the residues of zeta_N^exponents[g, h].  N is the lcm of lambda's
    denominator and the given one, so that zeta_N (and the crosscap element of
    a lambda^ of that denominator) has residues mod p."""

    def __init__(self, GG: GradedGroup, lam: TwistedCochain, N: int = 1):
        self.group = G = GG.even_subgroup
        if not np.array_equal(lam.group.table, G.table) or (lam.signs != 1).any():
            raise ValueError("lambda must be an untwisted cochain on the even subgroup")
        require_cocycle(lam)
        self.lam, self.dim, self.table, self.N = lam, G.order, G.table, math.lcm(lam.N, N)
        self.powers, self.p, self.w, self.zeta = _roots(G, self.N)
        self.exponents = lam.table * (self.N // lam.N)
        self.phase = self.zeta[self.exponents]
        self._ldiv = G.table[G.inverse]  # [g, k] = g^-1 k
        self._lphase = self.phase[np.arange(self.dim)[:, None], self._ldiv]
        # transport along g -> h g h^-1 by lambda(h, g) - lambda(h g h^-1, h)
        self.transport = (self.exponents - self.exponents[G.conjugation, np.arange(self.dim)[:, None]]) % self.N

    def right(self, v: np.ndarray) -> np.ndarray:
        """R(v), the matrix of u -> u v, batched over v's leading axes."""
        return v[..., self._ldiv] * self._lphase % self.p

    def product(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """u v mod p over the last axis; leading axes broadcast."""
        return (u[..., None, :] @ self.right(v))[..., 0, :] % self.p

    def center_basis(self) -> np.ndarray:
        """One row per lambda-regular class: its flat class sum mod p."""
        section, exponent = flat_sections(self.group, self.transport, self.N)
        held = np.flatnonzero(section >= 0)
        Z = np.zeros((section.max() + 1, self.dim), np.int64)
        Z[section[held], held] = self.zeta[exponent[held]]
        return Z

    @functools.cached_property
    def _lift_tables(self):
        """(at, fourier, roots): with E = exp(G), the multiplicities of l_g's
        eigenvalues on V are (|G|/(d E)) e_V[at[g]] @ fourier[g] mod p, and
        roots[g] are the inverses of those eigenvalues, as complex numbers.
        l_g^j = zeta_N^s[g, j] l_{g^j}, and chi_V(l_h) = (|G|/d) zeta_N^lambda(h, h^-1) e_V[h^-1]."""
        P, p, N, lam = self.powers, self.p, self.N, self.exponents
        E = P.shape[1] - 1
        s = np.hstack([np.zeros((self.dim, 1), np.int64), np.cumsum(lam[P[:, :-1], P[:, [1]]], axis=1)])
        at = self.group.inverse[P[:, :-1]]
        eps = s[:, [E]] % N + N * np.arange(E)  # l_g's eigenvalues are the w^eps
        fourier = geometric(self.w, E * N, p)[-np.arange(E)[:, None] * eps[:, None, :] % (E * N)]
        phase = self.zeta[(s[:, :-1] + lam[P[:, :-1], at]) % N]
        return at, phase[..., None] * fourier % p, np.exp(-2j * np.pi * (eps / (E * N)))

    def lift(self, block: BlockData) -> np.ndarray:
        """The block's idempotent over C: e_V(g) = (d/|G|) sum of the inverse
        eigenvalues of l_g on V, each counted with its multiplicity."""
        at, fourier, roots = self._lift_tables
        p, n, d = self.p, self.dim, block.dimension
        counts = (block.idempotent[at][:, None, :] @ fourier)[:, 0, :] % p * (n * pow(d * roots.shape[1], -1, p)) % p
        if counts.max() > d:
            raise BlockComputationError(f"an eigenvalue multiplicity {counts.max()} exceeds dim {d}")
        return (counts * roots).sum(axis=1) * (d / n)


def _power(R: np.ndarray, k: int, p: int) -> np.ndarray:
    """R^k mod p (k >= 1) for a stack of square matrices."""
    out = R
    for bit in bin(k)[3:]:
        out = out @ out % p
        if bit == "1":
            out = out @ R % p
    return out


def blocks(algebra: TwistedGroupAlgebra) -> list[BlockData]:
    """Primitive central idempotents with dimensions, in order of dimension."""
    centre, p, n = algebra.center_basis(), algebra.p, algebra.dim
    unit = found = np.eye(1, n, dtype=np.int64)  # l_e, whose class sum is centre[0]
    signs = (b for t in range(1, p) for b in _power(algebra.right(centre[1:] + t * unit), (p - 1) // 2, p))
    while len(found) < len(centre):
        right = next(signs, None)  # R(b) = R(a)^((p-1)/2); some t < p splits any two blocks
        if right is None:
            raise BlockComputationError(f"the centre does not split into {len(centre)} blocks mod {p}")
        x = found @ right % p
        y = x @ right % p
        parts = np.concatenate([y + x, y - x, 2 * (found - y)]) * ((p + 1) // 2) % p
        found = parts[parts.any(axis=1)]
    d_sq = (n * found[:, 0] % p).tolist()
    dims = [math.isqrt(x) for x in d_sq]
    if any(d * d != x for d, x in zip(dims, d_sq)) or sum(d_sq) != n:
        raise BlockComputationError(f"block dimensions^2 {d_sq} are not squares summing to |G| = {n}")
    return [BlockData(found[i], dims[i], algebra=algebra) for i in sorted(range(len(dims)), key=dims.__getitem__)]


def crosscap_element(GG: GradedGroup, lambda_hat: TwistedCochain) -> np.ndarray:
    """Q = sum over odd s of lambda^(s,s) l_{s^2}, as residues mod the p of
    algebra_from_graded(GG, lambda_hat)."""
    require_cocycle(lambda_hat)
    odd = GG.odd_part()
    _, p, _, zeta = _roots(GG.even_subgroup, lambda_hat.N)
    Q = np.zeros(GG.even_subgroup.order, np.int64)
    np.add.at(Q, GG.even_index[GG.group.table[odd, odd]], zeta[lambda_hat.table[odd, odd]])
    return Q % p


def assert_central(algebra: TwistedGroupAlgebra, v: np.ndarray):
    """Raise unless l_h v l_h^-1 = v mod p for every h."""
    gap = (v[algebra.group.conjugation] != v * algebra.zeta[algebra.transport] % algebra.p).any(axis=0)
    if gap.any():
        raise ValueError(f"element is not central (witness g={int(np.argmax(gap))})")


def fs_indicators(
    block_list: list[BlockData], Q: np.ndarray, algebra: TwistedGroupAlgebra
) -> list[BlockData]:
    """Fill indicators from Q = sum_V nu(V) (|G|/dim V) e_V: nu(V) dim V is the
    identity coefficient of Q e_V."""
    assert_central(algebra, Q)
    nu_dims = algebra.product(Q, np.array([b.idempotent for b in block_list]))[:, 0]
    out = []
    for i, (b, x) in enumerate(zip(block_list, nu_dims.tolist())):
        d = b.dimension
        nu, rest = divmod((x + d) % algebra.p - d, d)
        if rest or abs(nu) > 1:
            raise BlockComputationError(f"block {i} (dim {d}): nu * dim = {x} mod {algebra.p} is not -{d}, 0 or {d}")
        out.append(replace(b, indicator=nu))
    return out


def algebra_from_graded(GG: GradedGroup, lambda_hat: TwistedCochain) -> TwistedGroupAlgebra:
    """Convenience: the twisted algebra of the even restriction of lambda^."""
    return TwistedGroupAlgebra(GG, restrict_to_even(lambda_hat, GG), lambda_hat.N)

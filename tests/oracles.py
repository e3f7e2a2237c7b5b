"""Brute-force references the tests hold dwu to, and the test-only
constructions of the paper's groupoids and phase data.

Direct route and KR integral.  `dwu.tqft.partition_direct` walks the relator
one handle or crosscap at a time and `dwu.tqft.kr_rank` counts roots over the
double-loop carrier.  The tests hold them to the same sums in their
brute-force forms: every holonomy point of the surface's presentation paired
with the fundamental chain, the same points grouped into orbits of the even
part's conjugation and weighted by orbit size, and the KR integrand integrated
over the double real loop as an action groupoid.  Each divides by the group
order once.  The flipped KR integral, substituted for `dwu.tqft.kr_rank`, is
the convention fault the failure-reporting tests inject.

Groupoid constructions.  The moduli Bun^or(Sigma) of a surface as holonomy
points under even conjugation, the circle, crosscap and one-loop groupoids,
and the loop, point and conjugation groupoids, each an explicit
`dwu.groupoids.ActionGroupoid`: the groupoid-cardinality form of the
invariants, whose components and cardinalities the tests count.

Closed forms and pairing.  `pair_surface` pairs one valid holonomy point with
the fundamental chain as a Fraction mod 1, and the torus, RP2 and Klein closed forms
are the literal formulas `dwu.transgression.relator_pairing` must reproduce.

The twisted group algebra in floating point.  `dwu.reptheory` computes
blocks exactly mod p; the reference here is the complex route it replaced:
the complex phase table and product, the eigenvectors of a random real
combination of the centre's multiplication operators (numpy.linalg.eig on the
standard library's Random(12345)), and indicators rounded from complex
values.  `float_indicators` gives the (dimension, fingerprint, nu) triples
that `dwu indicators` prints.

Duality and Real 1-d phase data.  The phases of the duality structure at an
odd element and of a Real one-dimensional representation, which the tests
check the twisted group algebra against.

Cochains and groups.  Random cochains, the pullback of an order-2 cocycle
along a split grading, and the odd square roots of an element.

Group tables by loops.  `verify_group_axioms` is the scalar check, entry by
entry, that `dwu.groups.verify_group_axioms` runs as array operations, with
the same axioms, witnesses and order; `catalog_table` builds the cyclic,
dihedral and product tables with the list comprehensions that the array
expressions of `dwu.groups` replace.  The scalar loops in this file read a
group's table and inverse as lists of Python ints, which `table_lists`
converts once per group.

Conjugation, transgression and flat sections one element at a time.
`conj` and `real_conjugate` are the scalar conjugation and Real conjugation
that `dwu.groups.FiniteGroup.conjugation` and
`dwu.groups.GradedGroup.real_conjugation` tabulate, `conjugacy_classes` and
`center` read the classes and the centre off them, `tau_circle` the oriented
loop transgression of an untwisted cocycle that `dwu.transgression.tau_ref`
restricts to on the even part, and `flat_sections` the breadth-first
transport walk that `dwu.groups.flat_sections` replaces by a closed form.

The unoriented Frobenius check in Z[Z/L].  `dwu.tqft.check_unoriented_frobenius`
decides each condition at the primitive roots of unity; the check here is
its integer form, every product a convolution of root counts and every
comparison a reduction mod Phi_L, with the same conditions, order and
witnesses.

Howell elimination.  `dwu.intlinalg` keeps only the coefficient rows of the
matrices it reduces; `row_reduce_mod` here stores and reduces every row in
full, one at a time.  `columns` reads a window of A's columns with one
broadcast gather of the live rows' faces.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import numpy as np

from dwu.cohomology import TwistedCochain, _group_signs, is_twisted_cocycle, restrict_to_even
from dwu.groupoids import ActionGroupoid, double_real_loop, orbits
from dwu.groups import FiniteGroup, GradedGroup, GroupAxiomError, build_group
from dwu.groups import flat_sections as dwu_flat_sections
from dwu.moduli import Surface, holonomy_points, word_value
from dwu.phases import CycField
from dwu.tqft import CheckReport, UnorientedFrobeniusData, _closed_form_duals, _convolve, _first
from dwu.transgression import relator_pairing, require_cocycle, tau_ref


# ---------------------------------------------------------------------------
# direct route and KR integral


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
    t = tau_ref(lambda_hat, GG).tolist()
    N = lambda_hat.N
    gpd = double_real_loop(GG)
    flip_field = CycField(2 * field.L) if field.L % 2 else field

    def f(pt):
        g, w = pt
        return field.root(t[w][g], N)

    sign = GG.sign.tolist()

    def flipped(pt):
        g, w = pt
        if sign[w] == -1:
            return flip_field.root(2 * t[w][g] + N, 2 * N)
        return flip_field.root(t[w][g], N)

    return gpd.integrate(f), gpd.integrate(flipped)


def flipped_kr_rank(GG, lambda_hat, field=None):
    """A stand-in for `dwu.tqft.kr_rank` that returns the flipped integral:
    the one-loop identity then fails, and so does the class report."""
    return kr_groupoid_integrals(GG, lambda_hat, field or CycField(lambda_hat.N))[1]


# ---------------------------------------------------------------------------
# groupoid constructions


def is_valid_holonomy(surface: Surface, GG: GradedGroup, tup) -> bool:
    chars = surface.generator_characters()
    if len(tup) != len(chars):
        return False
    if any(GG.sign[g] != c for g, c in zip(tup, chars)):
        return False
    return bool(word_value(GG.group, surface.relator(), tup) == 0)


def even_conjugation(GG: GradedGroup):
    """act(k, tup): simultaneous conjugation of a tuple by the k-th even element."""
    (t, inv), even = table_lists(GG.group), GG.even_part.tolist()

    def act(k, tup):
        h = even[k]
        return tuple(t[t[h][g]][inv[h]] for g in tup)

    return act


def bundle_groupoid(surface: Surface, GG: GradedGroup, budget: int | None = None):
    """Holonomy tuples modulo simultaneous conjugation by the even subgroup."""
    points = holonomy_points(surface, GG, budget)
    return ActionGroupoid.build(
        points, GG.even_subgroup, even_conjugation(GG), label=f"Bun^or({surface.name})"
    )


def circle_groupoid(GG: GradedGroup):
    """Bundles on the circle: the even part under its own conjugation."""
    sub = GG.even_subgroup
    return ActionGroupoid.build(
        range(sub.order), sub, lambda k, g: conj(sub, k, g), label="Bun(S1)"
    )


def crosscap_groupoid(GG: GradedGroup):
    """Odd elements under even conjugation, plus the boundary map t(s) = s^2.

    Boundary values are element indices of the ambient group (always even);
    GG.even_index converts them to circle_groupoid coordinates.
    """
    G, even, odd = GG.group, GG.even_part.tolist(), GG.odd_part().tolist()

    def act(k, s):
        return conj(G, even[k], s)

    gpd = ActionGroupoid.build(odd, GG.even_subgroup, act, label="Bun^or(M)")
    boundary = {s: table_lists(G)[0][s][s] for s in odd}
    return gpd, boundary


def one_loop_groupoid(GG: GradedGroup):
    """Torus and Klein-bottle moduli glued: the double real loop carrier
    (g, w) with w g^{sign w} w^{-1} = g, under even conjugation."""
    return ActionGroupoid.build(
        double_real_loop(GG).carrier, GG.even_subgroup, even_conjugation(GG),
        label="Bun^or(1-loop)",
    )


def loop_groupoid(gpd: ActionGroupoid) -> ActionGroupoid:
    """Carrier {(x, h) : h.x = x} with the acting group unchanged, k.(x,h) = (k.x, khk^-1)."""
    H = gpd.acting_group
    carrier = [
        (x, h) for x in gpd.carrier for h in range(H.order) if gpd.action[(h, x)] == x
    ]

    def act(k, pt):
        x, h = pt
        return (gpd.action[(k, x)], conj(H, k, h))

    return ActionGroupoid.build(carrier, H, act, label=f"loop({gpd.label})")


def point_mod_group(G: FiniteGroup) -> ActionGroupoid:
    return ActionGroupoid.build(["pt"], G, lambda h, x: x, label=f"pt//{G.name}")


def conjugation_groupoid(G: FiniteGroup) -> ActionGroupoid:
    return ActionGroupoid.build(range(G.order), G, lambda h, g: conj(G, h, g), label=f"{G.name}//conj")


# ---------------------------------------------------------------------------
# closed forms and pairing


def pair_surface(lambda_hat: TwistedCochain, GG: GradedGroup, surface: Surface, holonomy) -> Fraction:
    """<eps(f*lambda_hat), [Sigma]> as an exact phase."""
    require_cocycle(lambda_hat)
    if not is_valid_holonomy(surface, GG, holonomy):
        raise ValueError(f"invalid holonomy {holonomy} for {surface.name}")
    return Fraction(int(relator_pairing(lambda_hat, surface, holonomy)), lambda_hat.N)


def torus_closed_form(lambda_hat: TwistedCochain, holonomy) -> Fraction:
    g1, g2 = holonomy
    return (lambda_hat.value((g2, g1)) - lambda_hat.value((g1, g2))) % 1


def rp2_closed_form(lambda_hat: TwistedCochain, holonomy) -> Fraction:
    (s,) = holonomy
    return lambda_hat.value((s, s))


def klein_closed_form(lambda_hat: TwistedCochain, group: FiniteGroup, holonomy) -> Fraction:
    g, s = holonomy
    ginv = table_lists(group)[1][g]
    return (
        -lambda_hat.value((g, ginv))
        + lambda_hat.value((g, s))
        - lambda_hat.value((s, ginv))
    ) % 1


# ---------------------------------------------------------------------------
# the twisted group algebra in floating point


def root_of_unity(k: int, n: int) -> complex:
    """exp(2*pi*i*k/n); k/n is divided as Python ints, so the float is the
    correctly rounded fraction whatever the common factors of k and n."""
    return cmath.exp(2j * cmath.pi * (k / n))


class FloatAlgebra:
    """C^lambda[G] over C for a 2-cocycle lambda on G: the complex phase table
    exp(2 pi i lambda(g, h)) and a product by one scatter-add of
    u_g v_h phase(g, h) onto table[g, h], batched over leading axes."""

    def __init__(self, lam: TwistedCochain):
        require_cocycle(lam)
        self.group, self.lam, self.dim = lam.group, lam, lam.group.order
        self.table = self.group.table
        self.phase = np.array([[root_of_unity(k, lam.N) for k in row] for row in lam.rows])

    def product(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        terms = u[..., :, None] * v[..., None, :] * self.phase
        out = np.zeros(terms.shape[:-1], dtype=complex)
        np.add.at(out, (..., self.table), terms)
        return out

    def center_basis(self) -> np.ndarray:
        """One row per lambda-regular class: its flat class sum."""
        lam, N = self.lam.table, self.lam.N
        phase = lam - lam[self.group.conjugation, np.arange(self.dim)[:, None]]
        section, exponent = dwu_flat_sections(self.group, phase, N)
        held = np.flatnonzero(section >= 0)
        Z = np.zeros((section.max() + 1, self.dim), dtype=complex)
        Z[section[held], held] = [root_of_unity(k, N) for k in exponent[held].tolist()]
        return Z


def float_fingerprint(idempotent) -> tuple:
    """The rounding `dwu indicators` hashes: each part to 8 decimals."""
    return tuple((round(float(z.real), 8) + 0.0, round(float(z.imag), 8) + 0.0) for z in idempotent)


def float_blocks(alg: FloatAlgebra) -> list[tuple[np.ndarray, int]]:
    """(idempotent, dimension) per block, sorted by (dimension, fingerprint):
    the eigenvectors of a random real combination of the centre's
    multiplication operators (the standard library's Random(12345)), each
    normalised to an idempotent."""
    centre = alg.center_basis()
    r, n = len(centre), alg.dim
    reps = np.argmax(np.abs(centre), axis=1)
    prods = alg.product(centre[:, None], centre[None, :])
    mats = (prods[:, :, reps] / centre[np.arange(r), reps]).transpose(0, 2, 1)
    draw = Random(12345)
    for _ in range(8):
        T = sum(draw.gauss(0, 1) * M for M in mats)
        evals, evecs = np.linalg.eig(T)
        if np.min(np.abs(evals[:, None] - evals[None, :]) + np.eye(r)) > 1e-6:
            break
    else:
        raise AssertionError("could not separate centre eigenvalues")
    A = evecs.T @ centre
    j = np.argmax(np.abs(A), axis=1)
    P = A / (alg.product(A, A)[np.arange(r), j] / A[np.arange(r), j])[:, None]
    assert np.max(np.abs(alg.product(P, P) - P)) < 1e-9
    dims = np.rint(np.sqrt((n * P[:, 0]).real)).astype(int)
    assert np.max(np.abs(dims * dims - n * P[:, 0])) < 1e-6
    return sorted(zip(P, dims.tolist()), key=lambda b: (b[1], float_fingerprint(b[0])))


def float_crosscap(GG: GradedGroup, lambda_hat: TwistedCochain) -> np.ndarray:
    """Q = sum over odd s of lambda^(s,s) l_{s^2} as a complex vector."""
    odd, N = GG.odd_part(), lambda_hat.N
    Q = np.zeros(GG.even_subgroup.order, dtype=complex)
    roots = [root_of_unity(k, N) for k in lambda_hat.table[odd, odd].tolist()]
    np.add.at(Q, GG.even_index[GG.group.table[odd, odd]], roots)
    return Q


def float_indicators(GG: GradedGroup, lambda_hat: TwistedCochain) -> list[tuple[int, tuple, int]]:
    """(dimension, fingerprint, nu) per block, from Q = sum_V nu(V) (|G|/dim V) p_V."""
    alg = FloatAlgebra(restrict_to_even(lambda_hat, GG))
    out = []
    for P, d in float_blocks(alg):
        nu = (alg.product(float_crosscap(GG, lambda_hat), P)[0] / P[0] * d / alg.dim)
        assert abs(nu - round(nu.real)) < 1e-6
        out.append((d, float_fingerprint(P), round(nu.real)))
    return out


# ---------------------------------------------------------------------------
# duality and Real 1-d phase data


@dataclass
class DualityPhases:
    """Phase data of the duality structure attached to an odd element."""

    sigma: int  # ambient odd element
    p_permutation: tuple  # even-subgroup permutation g -> sigma g^-1 sigma^-1
    p_phases: tuple  # Fraction mod 1 per even-subgroup element: -tau_ref(sigma, g)
    theta_phase: Fraction  # lambda^(sigma, sigma)
    theta_carrier: int  # even-subgroup index of sigma^2
    F_phases: tuple  # Fraction mod 1 per even-subgroup element: lambda^(g, sigma)

    def apply_p(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros(len(v), dtype=complex)
        for g, coeff in enumerate(v):
            if coeff != 0:
                p = self.p_phases[g]
                out[self.p_permutation[g]] += coeff * root_of_unity(p.numerator, p.denominator)
        return out


def duality_phases(GG: GradedGroup, lambda_hat: TwistedCochain, sigma: int) -> DualityPhases:
    if GG.sign[sigma] != -1:
        raise ValueError(f"element {sigma} is even; the duality needs an odd element")
    require_cocycle(lambda_hat)
    t = tau_ref(lambda_hat, GG)
    G, even, sub_of = GG.group, GG.even_part.tolist(), GG.even_index.tolist()
    table, inv = table_lists(G)
    return DualityPhases(
        sigma=sigma,
        p_permutation=tuple(sub_of[conj(G, sigma, inv[g])] for g in even),
        p_phases=tuple(Fraction(-int(t[sigma, g]), lambda_hat.N) % 1 for g in even),
        theta_phase=lambda_hat.value((sigma, sigma)),
        theta_carrier=sub_of[table[sigma][sigma]],
        F_phases=tuple(lambda_hat.value((g, sigma)) for g in even),
    )


@dataclass
class RealOneDimData:
    rep_phases: tuple  # Fraction mod 1 per even-subgroup element
    interval_phase: Fraction  # lambda^(sigma^-1) for the chosen odd sigma
    invariants_dimension: int  # 1 iff the restriction to G is trivial


def real_1d_phases(GG: GradedGroup, lambda_hat_1: TwistedCochain) -> RealOneDimData:
    if lambda_hat_1.degree != 1:
        raise ValueError("expected a twisted 1-cocycle")
    if not is_twisted_cocycle(lambda_hat_1):
        raise ValueError("input is not a twisted 1-cocycle")
    even, odd = GG.even_part.tolist(), GG.odd_part().tolist()
    rep = tuple(lambda_hat_1.value((g,)) for g in even)
    iota = lambda_hat_1.value((table_lists(GG.group)[1][odd[0]],))
    # Real compatibility: the phase is invariant under Real conjugation
    t = lambda_hat_1.rows
    if any(t[real_conjugate(GG, s, g)] != t[g] for s in odd for g in even):
        raise AssertionError("Real conjugation invariance fails for a 1-cocycle")
    inv_dim = 1 if not any(rep) else 0
    return RealOneDimData(rep_phases=rep, interval_phase=iota, invariants_dimension=inv_dim)


# ---------------------------------------------------------------------------
# cochains and groups


def pullback_split(lmbda: TwistedCochain, GG: GradedGroup) -> TwistedCochain:
    """Pull an order-2 cocycle on the even part back along a split projection."""
    if lmbda.N > 2:
        raise ValueError("pullback to a twisted cocycle needs 2*lambda = 0")
    G, (table, inv) = GG.group, table_lists(GG.group)
    odd_inv = inv[GG.odd_part()[0]]
    proj = [GG.even_index[g if GG.sign[g] == 1 else table[g][odd_inv]] for g in range(G.order)]
    table = lmbda.table[np.ix_(*[proj] * lmbda.degree)]
    return TwistedCochain(G, GG.sign, lmbda.degree, lmbda.N, table)


def random_cochain(ref, degree: int, denominator: int, rng) -> TwistedCochain:
    group, _ = _group_signs(ref)
    vec = [rng.randrange(denominator) for _ in range((group.order - 1) ** degree)]
    return TwistedCochain.from_vector(ref, degree, vec, denominator)


def odd_square_roots(GG: GradedGroup, g: int) -> set:
    """All odd elements whose square is g (empty when g is odd)."""
    table = table_lists(GG.group)[0]
    return {s for s in GG.odd_part().tolist() if table[s][s] == g}


# ---------------------------------------------------------------------------
# group tables by loops


def verify_group_axioms(table) -> None:
    """Raise GroupAxiomError unless table is a group with identity at index 0:
    shape and closure row by row, then identity, cancellation and inverses
    per element, then associativity at the first (a, b, c) in lexicographic
    order."""
    if isinstance(table, np.ndarray):
        table = table.tolist()
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            raise GroupAxiomError("shape", (i, len(row)))
        for v in row:
            if not (0 <= v < n):
                raise GroupAxiomError("closure", (i, v))
    for g in range(n):
        if table[0][g] != g or table[g][0] != g:
            raise GroupAxiomError("identity", (g,))
    for g in range(n):
        row = set(table[g])
        col = {table[h][g] for h in range(n)}
        if len(row) != n or len(col) != n:
            raise GroupAxiomError("cancellation", (g,))
    for g in range(n):
        if all(table[g][h] != 0 for h in range(n)):
            raise GroupAxiomError("inverses", (g,))
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise GroupAxiomError("associativity", (a, b, c))


def cyclic_table(n: int) -> list:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral_table(order: int) -> list:
    """r^i s^j at index i + n j, with (r^i1 s^j1)(r^i2 s^j2) = r^(i1 + (-1)^j1 i2) s^(j1+j2)."""
    n = order // 2
    table = [[0] * order for _ in range(order)]
    for i1, j1, i2, j2 in itertools.product(range(n), (0, 1), range(n), (0, 1)):
        i = (i1 + (i2 if j1 == 0 else -i2)) % n
        table[i1 + n * j1][i2 + n * j2] = i + n * ((j1 + j2) % 2)
    return table


def direct_product_table(A: list, B: list) -> list:
    """(a1, b1)(a2, b2) = (a1 a2, b1 b2), with the pair (a, b) at index a |B| + b."""
    n, m = len(A), len(B)
    return [
        [A[a1][a2] * m + B[b1][b2] for a2 in range(n) for b2 in range(m)]
        for a1 in range(n)
        for b1 in range(m)
    ]


def catalog_table(spec: str) -> list:
    """The table of a catalog name such as 'C10xC2' or 'C3xS3'; Q8 and S_n,
    whose element rules dwu.groups keeps, are read from dwu.groups."""
    factors = []
    for part in spec.split("x"):
        if part[0] == "C":
            factors.append(cyclic_table(int(part[1:])))
        elif part[0] == "D":
            factors.append(dihedral_table(int(part[1:])))
        else:
            factors.append(build_group(part).table.tolist())
    return functools.reduce(direct_product_table, factors)


# ---------------------------------------------------------------------------
# conjugation, transgression and flat sections one element at a time


def table_lists(G: FiniteGroup) -> tuple[list, list]:
    """G's table and inverse as lists of Python ints, converted once per group
    (and kept on it) for the scalar loops here."""
    if "_rows" not in vars(G):
        vars(G)["_rows"] = G.table.tolist(), G.inverse.tolist()
    return vars(G)["_rows"]


def conj(G: FiniteGroup, h: int, g: int) -> int:
    """h g h^-1."""
    t, inv = table_lists(G)
    return t[t[h][g]][inv[h]]


def conjugacy_classes(G: FiniteGroup) -> list[tuple]:
    """The classes, each sorted, in the order of their least elements."""
    classes: dict[int, list] = {}
    for g, least in enumerate(G.conjugation.min(axis=0).tolist()):
        classes.setdefault(least, []).append(g)
    return [tuple(c) for c in classes.values()]


def center(G: FiniteGroup) -> list[int]:
    t = table_lists(G)[0]
    return [g for g in range(G.order) if all(t[g][h] == t[h][g] for h in range(G.order))]


def real_conjugate(GG: GradedGroup, h: int, g: int) -> int:
    """h g^{sign(h)} h^{-1}; g must be even."""
    if GG.sign[g] != 1:
        raise ValueError(f"element {g} is odd; Real conjugation acts on the even part")
    t, inv = table_lists(GG.group)
    gs = g if GG.sign[h] == 1 else inv[g]
    return t[t[h][gs]][inv[h]]


def tau_circle(lmbda: TwistedCochain, group: FiniteGroup) -> list:
    """Oriented loop transgression of an untwisted 2-cocycle: exponents
    t[h][g] = lambda(h g h^-1, h) - lambda(h, g) mod lmbda.N."""
    require_cocycle(lmbda)
    lam, N = lmbda.rows, lmbda.N
    return [
        [(lam[conj(group, h, g)][h] - lam[h][g]) % N for g in range(group.order)]
        for h in range(group.order)
    ]


def flat_sections(G: FiniteGroup, start, step) -> list[tuple]:
    """(representative, {g: value}) per conjugacy class of G carrying a flat section.

    The section is start at the class representative and is transported along
    conjugation: step(k, g, v) is its value at k g k^-1 given the value v at g.
    A class on which transport is inconsistent carries no section.
    """
    out = []
    for cls in conjugacy_classes(G):
        values = _transport(G, cls[0], start, step)
        if values is not None:
            out.append((cls[0], values))
    return out


def _transport(G: FiniteGroup, rep: int, start, step):
    values = {rep: start}
    reached = [rep]
    for g in reached:  # grows while it is walked
        for k in range(G.order):
            g2, v2 = conj(G, k, g), step(k, g, values[g])
            if g2 not in values:
                values[g2] = v2
                reached.append(g2)
            elif values[g2] != v2:
                return None
    return values


# ---------------------------------------------------------------------------
# the unoriented Frobenius check in Z[Z/L]


def _unequal(field: CycField, a, b) -> np.ndarray:
    """Where the count vectors (last axis) of a and b differ mod Phi_L."""
    return ((a - b) @ field.reduction).any(-1)


def _span_misses(F: UnorientedFrobeniusData, v) -> np.ndarray:
    """Per batched vector of v, whether it leaves the flat-section span."""
    return _unequal(F.field, F.from_coords(F.coords(v)), v).any(-1)


def apply_involution(F: UnorientedFrobeniusData, v):
    return F.from_coords(_convolve(F.coords(v), F.involution.transpose(1, 0, 2)))


def check_unoriented_frobenius(F: UnorientedFrobeniusData) -> CheckReport:
    """Commutative Frobenius axioms, the involution laws, and both crosscap
    constraints, reported per condition with witnesses.

    Each condition is one array equation over the basis indices; the witness
    is the first failing index tuple in the order of the nested loops over
    them.
    """
    entries = []
    field, B = F.field, F.basis
    dim = F.dim

    # products of basis sections stay in the section span (and are flat)
    P = F.vec_product(B, B)
    witness = _first(_span_misses(F, P))
    entries.append(("closure", witness is None, witness))
    if witness is not None:
        return CheckReport(entries=tuple(entries))
    C = F.coords(P)  # S_i S_j = sum_m C[i, j, m] S_m

    witness = _first(_unequal(field, C, C.transpose(1, 0, 2, 3)).any(-1))
    entries.append(("commutativity", witness is None, witness))

    # (S_i S_j) S_k = sum_m C[i, j, m] C[m, k, l] S_l and
    # S_i (S_j S_k) = sum_m C[j, k, m] C[i, m, l] S_l
    lhs = _convolve(C, C)
    rhs = _convolve(C, C.transpose(1, 0, 2, 3)).transpose(2, 0, 1, 3, 4)
    witness = _first(_unequal(field, lhs, rhs).any(-1))
    entries.append(("associativity", witness is None, witness))

    expected = np.zeros((dim, dim, field.L), np.int64)
    expected[range(dim), range(dim), 0] = 1  # the coordinates of S_j; S_0 is the identity's section
    bad = _unequal(field, C[0], expected) | _unequal(field, C[:, 0], expected)
    witness = _first(bad.any(-1))
    entries.append(("unit", witness is None, witness))

    duals, witness = _closed_form_duals(F)
    entries.append(("trace-nondegenerate", witness is None, witness))
    if duals is None:
        return CheckReport(entries=tuple(entries))

    # involution laws: p^2 = id, algebra morphism, counit preserved
    pB = apply_involution(F, B)
    witness = _first(_unequal(field, apply_involution(F, pB), B).any(-1))
    entries.append(("involution-squares-to-id", witness is None, witness))

    witness = _first(_unequal(field, apply_involution(F, P), F.vec_product(pB, pB)).any(-1))
    entries.append(("involution-algebra-morphism", witness is None, witness))

    witness = _first(_unequal(field, pB[:, 0], B[:, 0]))
    unit = F.unit_vector()
    if witness is None and _unequal(field, apply_involution(F, unit), unit).any():
        witness = ("unit",)
    entries.append(("involution-counit-preserving", witness is None, witness))

    # crosscap constraint: Q x = p(Q x)
    Q = F.crosscap_vector()
    qx = F.vec_product(Q, B)
    witness = _first(_unequal(field, apply_involution(F, qx), qx).any(-1))
    entries.append(("crosscap-linear-constraint", witness is None, witness))

    # second crosscap diagram: sum_i p(S_i) S^i = Q Q
    lhs = sum(F.vec_product(vec, dual) for vec, dual in zip(pB, duals))
    ok = not _unequal(field, lhs, F.vec_product(Q, Q)).any()
    entries.append(("crosscap-comultiplication", ok, None))

    return CheckReport(entries=tuple(entries))


# ---------------------------------------------------------------------------
# Howell elimination


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


def columns(P, live, A, c0, c1, N):
    """Columns c0..c1 of the rows (A @ r | r), r in P[live], for `A` a
    `dwu.intlinalg.SparseRows`: one broadcast gather of every live row's
    faces and one einsum over them, the window read `dwu.intlinalg._columns`
    ran before it gathered face by face."""
    m = len(A.idx)
    if c0 >= m:
        return P[live, c0 - m : c1 - m]
    X = P[live[:, None, None], A.idx[c0:c1]]
    if A.idx.shape[1] * (N - 1) ** 2 >= 2**63:
        return ((X.astype(object) * A.coef[c0:c1]).sum(axis=-1) % N).astype(np.int64)
    return np.einsum("lwk,wk->lw", X, A.coef[c0:c1]) % N

"""The 2D quantum theory: equivariant algebra data, orbifolding, and
closed-surface partition functions by three independent routes.

Routes:
  direct    (1/|G|) sum over holonomies of the transgressed pairing (exact)
  tqft      cut-and-paste on the orbifold Frobenius algebra: counit of
            Handle^g(unit) or of Q^k (exact, same cyclotomic field)
  verlinde  |G|^(-chi) sum over blocks of (nu dim)^chi (floating, via the
            block eigenproblem)

The equivariant algebra has one-dimensional graded pieces A_g = C l_g, so all
of its structure constants are single roots of unity, held as exponent tables;
the orbifold algebra is the span of flat sections inside the twisted group
algebra, with exact cyclotomic vectors for its sums.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from dwu.cohomology import TwistedCochain
from dwu.groupoids import flat_sections, orbits
from dwu.groups import GradedGroup, real_conjugate
from dwu.moduli import Surface, holonomy_points
from dwu.phases import CycField, CycNum, Phase, lcm_of
from dwu.reptheory import BlockData
from dwu.transgression import _real_conjugation, relator_pairing, require_cocycle, tau_ref


class ConventionError(RuntimeError):
    """Internal consistency failure: valid input produced inconsistent data."""


@dataclass(frozen=True)
class CheckReport:
    entries: tuple  # (condition name, passed, witness or None)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.entries)

    def failures(self):
        return [(name, witness) for name, passed, witness in self.entries if not passed]


@dataclass(frozen=True, eq=False)
class TuraevAlgebraData:
    """G-graded algebra with one-dimensional pieces, group action and crosscaps.

    Every structure constant is a root of unity zeta_L^k, stored as its
    exponent k mod L: mult[g, h] scales l_{gh}, action[w, g] scales
    l_{w g^{sign w} w^{-1}}, and crosscap[i] scales l_{s^2} for the i-th odd
    element s of GG.odd_part().  Indices g, h run over the even subgroup, w over
    the ambient group.  zero, when set, holds boolean masks (mult, action,
    crosscap) of constants that are 0 instead of a root; only with_mutation
    sets it.
    """

    GG: GradedGroup
    L: int
    mult: np.ndarray
    action: np.ndarray
    crosscap: np.ndarray
    zero: tuple | None = None

    def with_mutation(self, kind: str, key, phase: Phase | None) -> "TuraevAlgebraData":
        """Copy with one structure constant scaled by a phase, or zeroed when
        phase is None; the exponents are rescaled to lcm(L, denominator)."""
        kinds = ("product", "action", "crosscap")
        if kind not in kinds:
            raise ValueError(f"unknown mutation kind {kind}")
        L = self.L if phase is None else lcm_of([phase.denominator], self.L)
        tables = [t * (L // self.L) for t in (self.mult, self.action, self.crosscap)]
        zero = [np.array(z) for z in self.zero or [np.zeros(t.shape, bool) for t in tables]]
        i = kinds.index(kind)
        if kind == "crosscap":
            key = self.GG.odd_part().index(key)
        if phase is None:
            zero[i][key] = True
        else:
            tables[i][key] = (tables[i][key] + phase.numerator * (L // phase.denominator)) % L
        mult, action, crosscap = tables
        return replace(self, L=L, mult=mult, action=action, crosscap=crosscap, zero=tuple(zero))


def turaev_from_cocycle(GG: GradedGroup, lambda_hat: TwistedCochain) -> TuraevAlgebraData:
    """The equivariant algebra of a twisted 2-cocycle; raises ConventionError
    unless it passes all axioms."""
    T = _turaev_data(GG, lambda_hat)
    report = check_turaev_axioms(T)
    if not report.ok:
        raise ConventionError(f"constructed algebra fails axioms: {report.failures()}")
    return T


def _turaev_data(GG: GradedGroup, lambda_hat: TwistedCochain) -> TuraevAlgebraData:
    """The equivariant algebra of a twisted 2-cocycle, before the axiom check.

    The trace normalization on A_e is 1: condition (x) has a dual basis on one
    side only, so it fixes the scale (the 1/|G| weight lives in the orbifold
    counit instead)."""
    require_cocycle(lambda_hat)
    N, lam = lambda_hat.N, lambda_hat.table
    even, odd = np.asarray(GG.even_part), np.asarray(GG.odd_part())
    return TuraevAlgebraData(
        GG=GG,
        L=N,
        mult=lam[np.ix_(even, even)],
        action=-tau_ref(lambda_hat, GG).table[:, even] % N,
        crosscap=lam[odd, odd],
    )


def _differ(a, b, L: int) -> np.ndarray:
    """Where two arrays of constants, each an (exponent, zero mask) pair, differ."""
    (ea, za), (eb, zb) = a, b
    return (za != zb) | (~za & ((ea - eb) % L != 0))


def _times(*factors):
    """Product of constants given as (exponent, zero mask) pairs."""
    return sum(e for e, _ in factors), functools.reduce(np.logical_or, [z for _, z in factors])


def _first(bad: np.ndarray):
    """Index of the first True entry in C order (the loop order), as Python ints."""
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))


def check_turaev_axioms(T: TuraevAlgebraData) -> CheckReport:
    """Conditions (i)-(x) plus the underlying algebra sanity checks.

    Each condition is one array equation over all of its indices; the witness
    is the first failing index in the order of the nested loops over the
    indices named in the witness.
    """
    GG, L = T.GG, T.L
    G = GG.group
    n, odd = GG.even_subgroup.order, np.asarray(GG.odd_part())
    Gt, Ginv = np.asarray(G.table), np.asarray(G.inverse)
    St, Sinv = np.asarray(GG.even_subgroup.table), np.asarray(GG.even_subgroup.inverse)
    hat, sub_of = np.asarray(GG.even_part), np.asarray(GG.even_index)
    rc = sub_of[_real_conjugation(GG)]  # rc[w, g]: the even index of w.g
    conj = Gt[Gt, Ginv[:, None]]  # conj[h, x] = h x h^-1

    Mz, Az, Qz_odd = T.zero or [np.zeros(t.shape, bool) for t in (T.mult, T.action, T.crosscap)]
    Q, Qz = np.zeros(G.order, np.int64), np.zeros(G.order, bool)
    Q[odd], Qz[odd] = T.crosscap, Qz_odd
    one = (0, False)

    def m(a, b):
        return T.mult[a, b], Mz[a, b]

    def act(w, g):
        return T.action[w, g], Az[w, g]

    def q(s):
        return Q[s], Qz[s]

    degenerate = Mz[np.arange(n), Sinv]  # <l_g, l_g^-1> = 0

    def dual(g):  # the inverse of <l_g, l_g^-1>, where it is nonzero
        return -T.mult[g, Sinv[g]], degenerate[g]

    g1 = np.arange(n)
    g, h = g1[:, None], g1[None, :]
    w1, w = np.arange(G.order), np.arange(G.order)[:, None]

    def cond_unit():
        return _first(_differ(m(0, g1), one, L) | _differ(m(g1, 0), one, L))

    def cond_assoc():
        a, b, c = g1[:, None, None], g1[None, :, None], g1[None, None, :]
        lhs = _times(m(a, b), m(St[a, b], c))
        rhs = _times(m(b, c), m(a, St[b, c]))
        return _first(_differ(lhs, rhs, L))

    def cond_i():
        hit = _first(Az[hat[h], g])
        return None if hit is None else (int(hat[hit[1]]), hit[0])

    def cond_ii():
        hit = _first(_differ(act(hat, 0), one, L))
        if hit is not None:
            return ("trace-invariance", int(hat[hit[0]]))
        hit = _first(degenerate)
        return None if hit is None else ("degenerate-pairing", hit[0])

    def cond_iii():
        return _first(_differ(_times(m(h, g), act(hat[g], St[h, g])), m(g, h), L))

    def cond_iv():
        return _first(_differ(act(hat, g1), one, L))

    def cond_v():
        ginv, hinv = Sinv[g], Sinv[h]
        lhs = _times(act(hat[h], g), dual(g), m(sub_of[conj[hat[h], hat[g]]], ginv))
        rhs = _times(dual(h), act(hat[g], hinv), m(h, sub_of[conj[hat[g], hat[hinv]]]))
        hit = _first(degenerate[g] | degenerate[h] | _differ(lhs, rhs, L))
        if hit is not None and degenerate[list(hit)].any():
            return ("degenerate-pairing", hit[0] if degenerate[hit[0]] else hit[1])
        return hit

    def cond_vi():
        return _first(Az)

    def cond_vii():
        return _first(_differ(act(w1, 0), one, L))

    def cond_viii():
        s = odd[None, :]
        s2 = sub_of[Gt[s, s]]
        sprime = np.where(np.asarray(GG.sign)[w] == 1, conj[w, s], conj[w, Ginv[s]])
        carrier = sub_of[Gt[sprime, sprime]] != rc[w, s2]
        hit = _first(carrier | _differ(_times(q(s), act(w, s2)), q(sprime), L))
        return None if hit is None else (hit[0], int(odd[hit[1]]))

    def cond_ix():
        s = odd[:, None]
        sg = Gt[s, hat[h]]
        lhs = _times(q(s), m(sub_of[Gt[s, s]], h))
        rhs = _times(act(s, h), q(sg), m(rc[s, h], sub_of[Gt[sg, sg]]))
        hit = _first(_differ(lhs, rhs, L))
        return None if hit is None else (int(odd[hit[0]]), hit[1])

    def cond_x():
        s1, s2 = odd[:, None], odd[None, :]
        u = sub_of[Gt[s1, s2]]
        uinv = Sinv[u]
        r = rc[s1, uinv]
        sq1, sq2 = sub_of[Gt[s1, s1]], sub_of[Gt[s2, s2]]
        lhs = _times(act(s1, uinv), dual(uinv), m(r, u))
        rhs = _times(q(s1), q(s2), m(sq1, sq2))
        carrier = St[r, u] != St[sq1, sq2]
        hit = _first(degenerate[uinv] | carrier | _differ(lhs, rhs, L))
        if hit is None:
            return None
        pair = (int(odd[hit[0]]), int(odd[hit[1]]))
        if degenerate[uinv[hit]]:
            return ("degenerate-pairing", int(uinv[hit]))
        return ("carrier", *pair) if carrier[hit] else pair

    conditions = [
        ("algebra-unit", cond_unit),
        ("algebra-associativity", cond_assoc),
        ("i-action-grading", cond_i),
        ("ii-invariant-trace", cond_ii),
        ("iii-twisted-commutativity", cond_iii),
        ("iv-self-sector-identity", cond_iv),
        ("v-torus-compatibility", cond_v),
        ("vi-real-action-grading", cond_vi),
        ("vii-hat-invariant-trace", cond_vii),
        ("viii-crosscap-equivariance", cond_viii),
        ("ix-crosscap-straightening", cond_ix),
        ("x-double-crosscap", cond_x),
    ]
    entries = []
    for name, fn in conditions:
        witness = fn()
        entries.append((name, witness is None, witness))
    return CheckReport(entries=tuple(entries))


# ---------------------------------------------------------------------------
# orbifolding


@dataclass(frozen=True, eq=False)
class UnorientedFrobeniusData:
    """The orbifold algebra: flat sections with involution and crosscap.

    A flat section is a root of unity on each element of its class support,
    held as {g: exponent mod L}; basis holds the same sections as vectors over
    the even subgroup (CycNum coefficients).  The product is the convolution
    of the ambient twisted group algebra, whose constants are the exponents
    mult; the counit reads off the identity coefficient divided by |G|.
    """

    GG: GradedGroup
    field: CycField
    mult: np.ndarray  # (n, n) exponents of the ambient algebra
    sections: tuple  # per basis section, {g: exponent} over its class
    basis_reps: tuple  # one support representative per basis section
    involution: tuple  # matrix rows: p(basis[j]) = sum_i involution[i][j] basis[i]
    crosscap_coords: tuple  # Q in basis coordinates
    unit_index: int

    def __post_init__(self):
        field, order = self.field, self.GG.even_subgroup.order
        basis = tuple(
            tuple(field.root(s[g], field.L) if g in s else field.zero for g in range(order))
            for s in self.sections
        )
        object.__setattr__(self, "basis", basis)
        mult = {(g, h): field.root(e, field.L) for (g, h), e in np.ndenumerate(self.mult)}
        object.__setattr__(self, "_mult", mult)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def vec_product(self, u, v):
        sub = self.GG.even_subgroup
        out = [self.field.zero] * sub.order
        for g, ug in enumerate(u):
            if ug.is_zero():
                continue
            for h, vh in enumerate(v):
                if vh.is_zero():
                    continue
                k = sub.table[g][h]
                out[k] = out[k] + ug * vh * self._mult[(g, h)]
        return tuple(out)

    def vec_counit(self, v) -> CycNum:
        return v[0].scale(Fraction(1, self.GG.even_subgroup.order))

    def coords(self, v):
        """Coordinates of a section vector in the flat basis (disjoint supports,
        each basis section 1 at its representative)."""
        return tuple(v[rep] for rep in self.basis_reps)

    def from_coords(self, coords):
        sub = self.GG.even_subgroup
        out = [self.field.zero] * sub.order
        for c, vec in zip(coords, self.basis):
            if not c.is_zero():
                for g in range(sub.order):
                    out[g] = out[g] + c * vec[g]
        return tuple(out)

    def unit_vector(self):
        sub = self.GG.even_subgroup
        out = [self.field.zero] * sub.order
        out[0] = self.field.one
        return tuple(out)

    def crosscap_vector(self):
        return self.from_coords(self.crosscap_coords)

    def apply_involution(self, v):
        coords = self.coords(v)
        out = [self.field.zero] * self.dim
        for j, c in enumerate(coords):
            if c.is_zero():
                continue
            for i in range(self.dim):
                out[i] = out[i] + self.involution[i][j] * c
        return self.from_coords(tuple(out))


def orbifold(T: TuraevAlgebraData) -> UnorientedFrobeniusData:
    """Flat sections with the induced involution and crosscap section."""
    if T.zero is not None:
        raise ValueError("the orbifold needs every structure constant to be a root of unity")
    GG, L = T.GG, T.L
    G = GG.group
    sub = GG.even_subgroup
    field = CycField(L)
    action, hat = T.action.tolist(), GG.even_part
    act = [[field.root(e, L) for e in row] for row in action]
    found = flat_sections(sub, 0, lambda k, g, e: (e + action[hat[k]][g]) % L)
    reps = tuple(rep for rep, _ in found)
    if 0 not in reps:
        raise ConventionError("identity class is not flat")
    unit_index = reps.index(0)

    # crosscap section: g -> sum over odd s with s^2 = g of Q_s
    cc = [field.zero] * sub.order
    for s, e in zip(GG.odd_part(), T.crosscap.tolist()):
        g = GG.even_index[G.table[s][s]]
        cc[g] = cc[g] + field.root(e, L)
    helper = UnorientedFrobeniusData(
        GG=GG,
        field=field,
        mult=T.mult,
        sections=tuple(section for _, section in found),
        basis_reps=reps,
        involution=tuple(
            tuple(field.one if i == j else field.zero for j in range(len(reps)))
            for i in range(len(reps))
        ),
        crosscap_coords=tuple(field.zero for _ in reps),
        unit_index=unit_index,
    )
    # flatness of the crosscap (condition (viii) shadow)
    if not _is_flat(GG, act, cc):
        raise ConventionError("crosscap section is not flat")
    cc_coords = _coords_or_error(helper, cc, "crosscap")

    # involution: restriction of the odd action to sections, any odd element
    inv_matrix = None
    for s in GG.odd_part():
        mat = []
        for vec in helper.basis:
            img = [field.zero] * sub.order
            for g, c in enumerate(vec):
                if c.is_zero():
                    continue
                tgt = GG.even_index[real_conjugate(GG, s, GG.even_part[g])]
                img[tgt] = img[tgt] + c * act[s][g]
            if not _is_flat(GG, act, img):
                raise ConventionError("involution image is not flat")
            mat.append(_coords_or_error(helper, tuple(img), "involution"))
        mat = tuple(zip(*mat))  # columns -> matrix rows indexed by output basis
        if inv_matrix is None:
            inv_matrix = mat
        elif inv_matrix != mat:
            raise ConventionError("involution depends on the choice of odd element")
    return replace(helper, involution=inv_matrix, crosscap_coords=cc_coords)


def _is_flat(GG: GradedGroup, act, vec) -> bool:
    """vec is invariant under the even action, act[w][g] the action constants."""
    sub = GG.even_subgroup
    for g in range(sub.order):
        ghat = GG.even_part[g]
        for k in range(sub.order):
            khat = GG.even_part[k]
            g2 = GG.even_index[real_conjugate(GG, khat, ghat)]
            if vec[g2] != vec[g] * act[khat][g]:
                return False
    return True


def _coords_or_error(F: UnorientedFrobeniusData, vec, what: str):
    coords = F.coords(tuple(vec))
    recon = F.from_coords(coords)
    if tuple(recon) != tuple(vec):
        raise ConventionError(f"{what} does not lie in the flat-section span")
    return coords


def _closed_form_duals(F: UnorientedFrobeniusData):
    """(duals, None), or (None, i) when the closed form fails at basis i.

    Sections have class supports, so <S_C, S_D> = counit(S_C S_D) vanishes
    unless D = C^-1.  The pairing <S_C, S_{C^-1}> is the identity coefficient
    of the product over |G|, a sum over g in C of the roots
    S_C(g) S_{C^-1}(g^-1) mult(g, g^-1).  When they are one root zeta^e, the
    pairing is (|C|/|G|) zeta^e and the dual of S_C is (|G|/|C|) zeta^-e
    S_{C^-1}; basis i is reported when C^-1 carries no section or the terms
    differ.
    """
    sub = F.GG.even_subgroup
    L, inv = F.field.L, sub.inverse
    index = {rep: j for j, rep in enumerate(F.basis_reps)}
    class_rep = {g: cls[0] for cls in sub.conjugacy_classes() for g in cls}
    duals = []
    for i, (section, rep) in enumerate(zip(F.sections, F.basis_reps)):
        j = index.get(class_rep[inv[rep]])
        if j is None:
            return None, i
        partner = F.sections[j]
        terms = {(e + partner[inv[g]] + int(F.mult[g, inv[g]])) % L for g, e in section.items()}
        if len(terms) != 1:
            return None, i
        scale = F.field.root(-terms.pop(), L).scale(Fraction(sub.order, len(section)))
        duals.append(tuple(c * scale for c in F.basis[j]))
    return duals, None


def _dual_sections(F: UnorientedFrobeniusData):
    duals, _ = _closed_form_duals(F)
    if duals is None:
        raise ConventionError("degenerate orbifold trace pairing")
    return duals


def handle_element(F: UnorientedFrobeniusData):
    """H = sum_i S_i S^i; the genus-adding operator is multiplication by H."""
    duals = _dual_sections(F)
    total = [F.field.zero] * F.GG.even_subgroup.order
    for vec, dual in zip(F.basis, duals):
        prod = F.vec_product(vec, dual)
        total = [a + b for a, b in zip(total, prod)]
    return tuple(total)


def check_unoriented_frobenius(F: UnorientedFrobeniusData) -> CheckReport:
    """Commutative Frobenius axioms, the involution laws, and both crosscap
    constraints, reported per condition with witnesses."""
    entries = []
    field = F.field
    n = F.dim

    # products of basis sections stay in the section span (and are flat)
    witness = None
    products = {}
    for i, j in itertools.product(range(n), repeat=2):
        try:
            products[(i, j)] = _coords_or_error(
                F, F.vec_product(F.basis[i], F.basis[j]), f"product({i},{j})"
            )
        except ConventionError:
            witness = (i, j)
            break
    entries.append(("closure", witness is None, witness))
    if witness is not None:
        return CheckReport(entries=tuple(entries))

    witness = None
    for i, j in itertools.product(range(n), repeat=2):
        if products[(i, j)] != products[(j, i)]:
            witness = (i, j)
            break
    entries.append(("commutativity", witness is None, witness))

    witness = None
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = [field.zero] * n
        for m in range(n):
            c = products[(i, j)][m]
            if not c.is_zero():
                for l in range(n):
                    lhs[l] = lhs[l] + c * products[(m, k)][l]
        rhs = [field.zero] * n
        for m in range(n):
            c = products[(j, k)][m]
            if not c.is_zero():
                for l in range(n):
                    rhs[l] = rhs[l] + c * products[(i, m)][l]
        if lhs != rhs:
            witness = (i, j, k)
            break
    entries.append(("associativity", witness is None, witness))

    witness = None
    u = F.unit_index
    for j in range(n):
        expected = tuple(field.one if l == j else field.zero for l in range(n))
        if products[(u, j)] != expected or products[(j, u)] != expected:
            witness = (j,)
            break
    entries.append(("unit", witness is None, witness))

    duals, witness = _closed_form_duals(F)
    entries.append(("trace-nondegenerate", witness is None, witness))
    if duals is None:
        return CheckReport(entries=tuple(entries))

    # involution laws: p^2 = id, algebra morphism, counit preserved
    witness = None
    for j in range(n):
        img = F.apply_involution(F.apply_involution(F.basis[j]))
        if tuple(img) != tuple(F.basis[j]):
            witness = (j,)
            break
    entries.append(("involution-squares-to-id", witness is None, witness))

    witness = None
    for i, j in itertools.product(range(n), repeat=2):
        lhs = F.apply_involution(F.vec_product(F.basis[i], F.basis[j]))
        rhs = F.vec_product(F.apply_involution(F.basis[i]), F.apply_involution(F.basis[j]))
        if tuple(lhs) != tuple(rhs):
            witness = (i, j)
            break
    entries.append(("involution-algebra-morphism", witness is None, witness))

    witness = None
    for j in range(n):
        if F.vec_counit(F.apply_involution(F.basis[j])) != F.vec_counit(F.basis[j]):
            witness = (j,)
            break
    if witness is None and tuple(F.apply_involution(F.unit_vector())) != tuple(F.unit_vector()):
        witness = ("unit",)
    entries.append(("involution-counit-preserving", witness is None, witness))

    # crosscap constraint: Q x = p(Q x)
    witness = None
    Q = F.crosscap_vector()
    for j in range(n):
        qx = F.vec_product(Q, F.basis[j])
        if tuple(F.apply_involution(qx)) != tuple(qx):
            witness = (j,)
            break
    entries.append(("crosscap-linear-constraint", witness is None, witness))

    # second crosscap diagram: sum_i p(S_i) S^i = Q Q
    lhs = [field.zero] * F.GG.even_subgroup.order
    for vec, dual in zip(F.basis, duals):
        term = F.vec_product(F.apply_involution(vec), dual)
        lhs = [a + b for a, b in zip(lhs, term)]
    rhs = F.vec_product(Q, Q)
    entries.append(("crosscap-comultiplication", tuple(lhs) == tuple(rhs), None))

    return CheckReport(entries=tuple(entries))


# ---------------------------------------------------------------------------
# partition functions


def partition_direct(
    GG: GradedGroup,
    lambda_hat: TwistedCochain,
    surface: Surface,
    field: CycField | None = None,
    budget: int | None = None,
) -> CycNum:
    """(1/|G|) sum over holonomies of the transgressed pairing, exactly.

    The same value is recomputed as a groupoid integral over components and
    compared; a mismatch raises ConventionError.
    """
    require_cocycle(lambda_hat)
    N = lambda_hat.N
    field = field or CycField(N)
    points = holonomy_points(surface, GG, budget)
    counts = [0] * N
    for pt in points:
        counts[relator_pairing(lambda_hat, surface, pt)] += 1
    total = field.zero
    for k, count in enumerate(counts):
        if count:
            total = total + field.root(k, N).scale(count)
    value = total.scale(Fraction(1, GG.even_subgroup.order))
    # independent groupoid-cardinality form
    G = GG.group

    def act(k, pt):
        return tuple(G.conj(GG.even_part[k], g) for g in pt)

    by_orbits = field.zero
    for rep, _, stab in orbits(points, GG.even_subgroup.order, act):
        by_orbits = by_orbits + field.root(
            relator_pairing(lambda_hat, surface, rep), N
        ).scale(Fraction(1, stab))
    if value != by_orbits:
        raise ConventionError("holonomy sum and groupoid integral disagree")
    return value


def partition_tqft(F: UnorientedFrobeniusData, surface: Surface) -> CycNum:
    """Cut-and-paste value: counit(H^g) or counit(Q^k)."""
    if surface.kind == "orientable":
        acc = F.unit_vector()
        if surface.param > 0:
            H = handle_element(F)
            for _ in range(surface.param):
                acc = F.vec_product(acc, H)
        return F.vec_counit(acc)
    Q = F.crosscap_vector()
    acc = F.unit_vector()
    for _ in range(surface.param):
        acc = F.vec_product(acc, Q)
    return F.vec_counit(acc)


def partition_verlinde(block_list: list[BlockData], surface: Surface) -> complex:
    """|G|^(-chi) sum over blocks of (nu dim)^chi, dims-only when orientable."""
    n = sum(b.dimension**2 for b in block_list)
    chi = surface.euler_characteristic
    total = 0.0
    for b in block_list:
        if surface.orientable:
            total += float(b.dimension) ** chi
        else:
            if b.indicator is None:
                raise ValueError("blocks need indicators for nonorientable surfaces")
            if b.indicator == 0:
                continue  # 0^0 := 0 at chi = 0; zero for every other chi too
            total += float(b.indicator * b.dimension) ** chi
    return complex(total / float(n) ** chi)


def kr_rank(GG: GradedGroup, lambda_hat: TwistedCochain, field: CycField | None = None) -> CycNum:
    """Groupoid integral of the transgressed function over the double loop."""
    require_cocycle(lambda_hat)
    return _kr_integral(GG, lambda_hat, field or CycField(lambda_hat.N))


def _kr_integral(
    GG: GradedGroup, lambda_hat: TwistedCochain, field: CycField, flip: bool = False
) -> CycNum:
    """Integral of tau_ref over the double real loop; flip adds 1/2 on odd w
    (in Q(zeta_2L) when L is odd)."""
    from dwu.groupoids import double_real_loop

    t = tau_ref(lambda_hat, GG).table.tolist()
    N = lambda_hat.N
    gpd = double_real_loop(GG)
    if flip and field.L % 2:
        field = CycField(2 * field.L)

    def f(pt):
        g, w = pt
        if flip and GG.sign[w] == -1:
            return field.root(2 * t[w][g] + N, 2 * N)
        return field.root(t[w][g], N)

    value = gpd.integrate(f)
    return value if value != 0 else field.zero


def one_loop(
    GG: GradedGroup,
    lambda_hat: TwistedCochain,
    field: CycField | None = None,
    budget: int | None = None,
) -> CycNum:
    """(Z(T^2) + Z(K))/2."""
    from dwu.moduli import KLEIN, TORUS

    field = field or CycField(lambda_hat.N)
    zt = partition_direct(GG, lambda_hat, TORUS, field=field, budget=budget)
    zk = partition_direct(GG, lambda_hat, KLEIN, field=field, budget=budget)
    return (zt + zk).scale(Fraction(1, 2))


def consistency_report(
    GG: GradedGroup,
    lambda_hat: TwistedCochain,
    surfaces: list[Surface],
    tol: float = 1e-6,
    budget: int | None = None,
    seed: int = 12345,
    flip_tau_debug: bool = False,
) -> dict:
    """All applicable routes per surface plus the cross-identities.

    flip_tau_debug flips the sign of the odd-sector KR integrand, a deliberate
    convention fault for exercising failure reporting.
    """
    from dwu.moduli import KLEIN, RP2, TORUS
    from dwu.reptheory import algebra_from_graded, blocks, crosscap_element, fs_indicators

    require_cocycle(lambda_hat)
    field = CycField(lambda_hat.N)
    # each surface is enumerated once per report
    direct_value = functools.cache(
        lambda surface: partition_direct(GG, lambda_hat, surface, field=field, budget=budget)
    )
    T = turaev_from_cocycle(GG, lambda_hat)
    F = orbifold(T)
    frob_report = check_unoriented_frobenius(F)
    alg = algebra_from_graded(GG, lambda_hat)
    bl = fs_indicators(blocks(alg, seed=seed), crosscap_element(GG, lambda_hat), alg)

    rows = []
    max_delta = 0.0
    for surface in surfaces:
        direct = direct_value(surface)
        via_tqft = partition_tqft(F, surface)
        d_c = direct.to_complex()
        t_c = via_tqft.to_complex()
        deltas = [abs(d_c - t_c)]
        row = {
            "surface": surface.name,
            "direct": d_c,
            "tqft": t_c,
            "exact_match": direct == via_tqft,
            "verlinde": None,
        }
        v_c = partition_verlinde(bl, surface)
        row["verlinde"] = v_c
        deltas.append(abs(d_c - v_c))
        if surface.name == "S2":
            row["paper_stated"] = 1.0 + 0.0j
            row["convention_sensitive"] = True
            # the dims-only Verlinde value matches the groupoid normalization,
            # so S2 deltas stay internal to the three computed routes
        row["max_delta"] = max(deltas)
        max_delta = max(max_delta, row["max_delta"])
        rows.append(row)

    if flip_tau_debug:
        kr = _kr_integral(GG, lambda_hat, field, flip=True)
    else:
        kr = kr_rank(GG, lambda_hat, field=field)
    loop = (direct_value(TORUS) + direct_value(KLEIN)).scale(Fraction(1, 2))  # one_loop
    kr_delta = abs(kr.to_complex() - loop.to_complex())
    max_delta = max(max_delta, kr_delta)

    rp2_direct = direct_value(RP2)
    qtrace = F.vec_counit(F.crosscap_vector())
    q_delta = abs(rp2_direct.to_complex() - qtrace.to_complex())
    max_delta = max(max_delta, q_delta)

    return {
        "surfaces": rows,
        "kr_rank": kr.to_complex(),
        "one_loop": loop.to_complex(),
        "kr_delta": kr_delta,
        "kr_exact_match": kr == loop,
        "crosscap_trace": qtrace.to_complex(),
        "rp2_direct": rp2_direct.to_complex(),
        "crosscap_trace_delta": q_delta,
        "axioms_ok": frob_report.ok,
        "blocks": [(b.dimension, b.indicator) for b in bl],
        "max_delta": max_delta,
        "ok": max_delta < tol and frob_report.ok,
    }

"""The 2D quantum theory: equivariant algebra data, orbifolding, and
closed-surface partition functions by three independent routes.

Routes:
  direct    (1/|G|) sum over holonomies of the transgressed pairing (exact)
  tqft      cut-and-paste on the orbifold Frobenius algebra: counit of
            Handle^g(unit) or of Q^k (exact, same cyclotomic field)
  verlinde  |G|^(-chi) sum over blocks of (nu dim)^chi (floating, via the
            block eigenproblem)

The equivariant algebra has one-dimensional graded pieces A_g = C l_g, so all
of its structure constants are single exact cyclotomic numbers; the orbifold
algebra is the span of flat sections inside the twisted group algebra.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

from dwu.cohomology import TwistedCochain
from dwu.groupoids import flat_sections, orbits
from dwu.groups import GradedGroup, real_conjugate
from dwu.moduli import Surface, holonomy_points
from dwu.phases import CycField, CycNum, Phase, lcm_of
from dwu.reptheory import BlockData
from dwu.transgression import relator_pairing, require_cocycle, tau_ref


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


@dataclass(frozen=True)
class TuraevAlgebraData:
    """G-graded algebra with one-dimensional pieces, group action and crosscaps.

    Coefficients are exact cyclotomic numbers: mult[(g,h)] scales l_{gh},
    action[w][g] scales l_{w g^{sign w} w^{-1}}, crosscap[s] scales l_{s^2}.
    Indices g, h run over the even subgroup; w, s over the ambient group.
    """

    GG: GradedGroup
    field: CycField
    mult: tuple  # ((g, h), CycNum) sorted
    action: tuple  # ((w, g), CycNum) sorted
    crosscap: tuple  # ((s), CycNum) sorted
    trace_unit: Fraction  # <l_e>_e

    def __post_init__(self):
        object.__setattr__(self, "_mult", dict(self.mult))
        object.__setattr__(self, "_action", dict(self.action))
        object.__setattr__(self, "_crosscap", dict(self.crosscap))

    def mult_coeff(self, g: int, h: int) -> CycNum:
        return self._mult[(g, h)]

    def action_coeff(self, w: int, g: int) -> CycNum:
        return self._action[(w, g)]

    def crosscap_coeff(self, s: int) -> CycNum:
        return self._crosscap[s]

    def with_mutation(self, kind: str, key, phase: Phase | None) -> "TuraevAlgebraData":
        """Copy with one structure constant scaled by a phase (or zeroed)."""
        L = lcm_of([phase.denominator], self.field.L) if phase is not None else self.field.L
        field = self.field if L == self.field.L else CycField(L)
        factor = field.root(phase.numerator, phase.denominator) if phase is not None else field.zero

        def patch(entries, target):
            out = []
            for k, v in entries:
                v = field.embed(v)
                if k == target:
                    out.append((k, v * factor if phase is not None else field.zero))
                else:
                    out.append((k, v))
            return tuple(out)

        def lift(entries):
            return tuple((k, field.embed(v)) for k, v in entries)

        mult, action, crosscap = lift(self.mult), lift(self.action), lift(self.crosscap)
        if kind == "product":
            mult = patch(self.mult, key)
        elif kind == "action":
            action = patch(self.action, key)
        elif kind == "crosscap":
            crosscap = patch(self.crosscap, key)
        else:
            raise ValueError(f"unknown mutation kind {kind}")
        return replace(self, field=field, mult=mult, action=action, crosscap=crosscap)


def turaev_from_cocycle(GG: GradedGroup, lambda_hat: TwistedCochain) -> TuraevAlgebraData:
    """The equivariant algebra of a twisted 2-cocycle; raises ConventionError
    unless it passes all axioms."""
    T = _turaev_data(GG, lambda_hat)
    report = check_turaev_axioms(T)
    if not report.ok:
        raise ConventionError(f"constructed algebra fails axioms: {report.failures()}")
    return T


def _turaev_data(GG: GradedGroup, lambda_hat: TwistedCochain) -> TuraevAlgebraData:
    """The equivariant algebra of a twisted 2-cocycle, before the axiom check."""
    require_cocycle(lambda_hat)
    N = lambda_hat.N
    field = CycField(N)
    lam, even = lambda_hat.rows, GG.even_part
    t = tau_ref(lambda_hat, GG).table.tolist()
    mult = {
        (g, h): field.root(lam[a][b], N) for g, a in enumerate(even) for h, b in enumerate(even)
    }
    action = {
        (w, g): field.root(-t[w][a], N) for w in range(GG.group.order) for g, a in enumerate(even)
    }
    crosscap = {s: field.root(lam[s][s], N) for s in GG.odd_part()}
    # trace normalization on A_e is 1: condition (x) has a dual basis on one
    # side only, so it fixes the scale (the 1/|G| weight lives in the orbifold
    # counit instead)
    return TuraevAlgebraData(
        GG=GG,
        field=field,
        mult=tuple(sorted(mult.items())),
        action=tuple(sorted(action.items())),
        crosscap=tuple(sorted(crosscap.items())),
        trace_unit=Fraction(1),
    )


def _dual_coeff(T: TuraevAlgebraData, g: int) -> CycNum | None:
    """Coefficient c with <l_g, c*l_{g^-1}> = 1 for the trace pairing, or
    None where the pairing vanishes."""
    sub = T.GG.even_subgroup
    pairing = T.mult_coeff(g, sub.inverse[g]).scale(T.trace_unit)
    return None if pairing.is_zero() else pairing.inverse()


def check_turaev_axioms(T: TuraevAlgebraData, fail_fast: bool = False) -> CheckReport:
    """Conditions (i)-(x) plus the underlying algebra sanity checks.

    fail_fast evaluates conditions cheapest-first and stops at the first
    failure (used by mutation sweeps); the report then contains only the
    evaluated conditions.
    """
    GG = T.GG
    G = GG.group
    sub = GG.even_subgroup
    n = sub.order
    one = T.field.one

    dual = functools.cache(lambda g: _dual_coeff(T, g))

    def hat(g):
        return GG.even_part[g]

    def sub_of(ghat):
        return GG.even_index[ghat]

    def cond_unit():
        for g in range(n):
            if T.mult_coeff(0, g) != one or T.mult_coeff(g, 0) != one:
                return (g,)
        return None

    def cond_assoc():
        for a, b, c in itertools.product(range(n), repeat=3):
            lhs = T.mult_coeff(a, b) * T.mult_coeff(sub.table[a][b], c)
            rhs = T.mult_coeff(b, c) * T.mult_coeff(a, sub.table[b][c])
            if lhs != rhs:
                return (a, b, c)
        return None

    def cond_i():
        for g in range(n):
            for w in GG.even_part:
                if T.action_coeff(w, g).is_zero():
                    return (w, g)
        return None

    def cond_ii():
        for w in GG.even_part:
            if T.action_coeff(w, 0) != one:
                return ("trace-invariance", w)
        for g in range(n):
            if T.mult_coeff(g, sub.inverse[g]).is_zero():
                return ("degenerate-pairing", g)
        return None

    def cond_iii():
        for g, h in itertools.product(range(n), repeat=2):
            hg = sub.table[h][g]
            if T.mult_coeff(h, g) * T.action_coeff(hat(g), hg) != T.mult_coeff(g, h):
                return (g, h)
        return None

    def cond_iv():
        for g in range(n):
            if T.action_coeff(hat(g), g) != one:
                return (g,)
        return None

    def cond_v():
        for g, h in itertools.product(range(n), repeat=2):
            for x in (g, h):
                if dual(x) is None:
                    return ("degenerate-pairing", x)
            ginv, hinv = sub.inverse[g], sub.inverse[h]
            lhs = (
                T.action_coeff(hat(h), g)
                * dual(g)
                * T.mult_coeff(sub_of(G.conj(hat(h), hat(g))), ginv)
            )
            rhs = (
                dual(h)
                * T.action_coeff(hat(g), hinv)
                * T.mult_coeff(h, sub_of(G.conj(hat(g), hat(hinv))))
            )
            if lhs != rhs:
                return (g, h)
        return None

    def cond_vi():
        for w in range(G.order):
            for g in range(n):
                if T.action_coeff(w, g).is_zero():
                    return (w, g)
        return None

    def cond_vii():
        for w in range(G.order):
            if T.action_coeff(w, 0) != one:
                return (w,)
        return None

    def cond_viii():
        for w in range(G.order):
            for s in GG.odd_part():
                s2 = sub_of(G.table[s][s])
                target = real_conjugate(GG, w, G.table[s][s])
                sprime = G.conj(w, s) if GG.sign[w] == 1 else G.conj(w, G.inverse[s])
                lhs = T.crosscap_coeff(s) * T.action_coeff(w, s2)
                if G.table[sprime][sprime] != target or lhs != T.crosscap_coeff(sprime):
                    return (w, s)
        return None

    def cond_ix():
        for s in GG.odd_part():
            s2 = sub_of(G.table[s][s])
            for g in range(n):
                sg = G.table[s][hat(g)]
                lhs = T.crosscap_coeff(s) * T.mult_coeff(s2, g)
                rc = sub_of(real_conjugate(GG, s, hat(g)))
                rhs = (
                    T.action_coeff(s, g)
                    * T.crosscap_coeff(sg)
                    * T.mult_coeff(rc, sub_of(G.table[sg][sg]))
                )
                if lhs != rhs:
                    return (s, g)
        return None

    def cond_x():
        for s1, s2 in itertools.product(GG.odd_part(), repeat=2):
            u = sub_of(G.table[s1][s2])
            uinv = sub.inverse[u]
            if dual(uinv) is None:
                return ("degenerate-pairing", uinv)
            rc = sub_of(real_conjugate(GG, s1, hat(uinv)))
            lhs = T.action_coeff(s1, uinv) * dual(uinv) * T.mult_coeff(rc, u)
            sq1, sq2 = sub_of(G.table[s1][s1]), sub_of(G.table[s2][s2])
            rhs = T.crosscap_coeff(s1) * T.crosscap_coeff(s2) * T.mult_coeff(sq1, sq2)
            if sub.table[rc][u] != sub.table[sq1][sq2]:
                return ("carrier", s1, s2)
            if lhs != rhs:
                return (s1, s2)
        return None

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
    if fail_fast:
        cheap_first = [
            "algebra-unit", "iv-self-sector-identity", "vii-hat-invariant-trace",
            "ii-invariant-trace", "i-action-grading", "vi-real-action-grading",
            "iii-twisted-commutativity", "viii-crosscap-equivariance",
            "ix-crosscap-straightening", "x-double-crosscap",
            "v-torus-compatibility", "algebra-associativity",
        ]
        order = {name: i for i, name in enumerate(cheap_first)}
        conditions = sorted(conditions, key=lambda nc: order[nc[0]])
    entries = []
    for name, fn in conditions:
        witness = fn()
        entries.append((name, witness is None, witness))
        if fail_fast and witness is not None:
            break
    return CheckReport(entries=tuple(entries))



# ---------------------------------------------------------------------------
# orbifolding


@dataclass(frozen=True)
class UnorientedFrobeniusData:
    """The orbifold algebra: flat sections with involution and crosscap.

    Sections are vectors over the even subgroup (CycNum coefficients); the
    product is the convolution of the ambient twisted group algebra, the
    counit reads off the identity coefficient divided by |G|.
    """

    GG: GradedGroup
    field: CycField
    mult_phase: tuple  # ((g, h), CycNum) of the ambient algebra
    basis: tuple  # tuple of section vectors (each a tuple of CycNum)
    basis_reps: tuple  # one support representative per basis section
    involution: tuple  # matrix rows: p(basis[j]) = sum_i involution[i][j] basis[i]
    crosscap_coords: tuple  # Q in basis coordinates
    unit_index: int

    def __post_init__(self):
        object.__setattr__(self, "_mult", dict(self.mult_phase))

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


def _flat_sections(T: TuraevAlgebraData):
    """Flat section basis vectors (class supports), each 1 at its representative."""
    GG = T.GG
    sections = flat_sections(
        GG.even_subgroup, T.field.one, lambda k, g, c: T.action_coeff(GG.even_part[k], g) * c
    )
    return [
        (rep, tuple(coeffs.get(g, T.field.zero) for g in range(GG.even_subgroup.order)))
        for rep, coeffs in sections
    ]


def orbifold(T: TuraevAlgebraData) -> UnorientedFrobeniusData:
    """Flat sections with the induced involution and crosscap section."""
    GG = T.GG
    G = GG.group
    sub = GG.even_subgroup
    field = T.field
    sections = _flat_sections(T)
    reps = tuple(rep for rep, _ in sections)
    basis = tuple(vec for _, vec in sections)
    if 0 not in reps:
        raise ConventionError("identity class is not flat")
    unit_index = reps.index(0)

    # crosscap section: g -> sum over odd s with s^2 = g of Q_s
    cc = [field.zero] * sub.order
    for s in GG.odd_part():
        g = GG.even_index[G.table[s][s]]
        cc[g] = cc[g] + T.crosscap_coeff(s)
    helper = UnorientedFrobeniusData(
        GG=GG,
        field=field,
        mult_phase=T.mult,
        basis=basis,
        basis_reps=reps,
        involution=tuple(
            tuple(field.one if i == j else field.zero for j in range(len(basis)))
            for i in range(len(basis))
        ),
        crosscap_coords=tuple(field.zero for _ in basis),
        unit_index=unit_index,
    )
    # flatness of the crosscap (condition (viii) shadow)
    if not _is_flat(T, cc):
        raise ConventionError("crosscap section is not flat")
    cc_coords = _coords_or_error(helper, cc, "crosscap")

    # involution: restriction of the odd action to sections, any odd element
    inv_matrix = None
    for s in GG.odd_part():
        mat = []
        for vec in basis:
            img = [field.zero] * sub.order
            for g, c in enumerate(vec):
                if c.is_zero():
                    continue
                tgt = GG.even_index[real_conjugate(GG, s, GG.even_part[g])]
                img[tgt] = img[tgt] + c * T.action_coeff(s, g)
            if not _is_flat(T, img):
                raise ConventionError("involution image is not flat")
            mat.append(_coords_or_error(helper, tuple(img), "involution"))
        mat = tuple(zip(*mat))  # columns -> matrix rows indexed by output basis
        if inv_matrix is None:
            inv_matrix = mat
        elif inv_matrix != mat:
            raise ConventionError("involution depends on the choice of odd element")
    return UnorientedFrobeniusData(
        GG=GG,
        field=field,
        mult_phase=T.mult,
        basis=basis,
        basis_reps=reps,
        involution=inv_matrix,
        crosscap_coords=cc_coords,
        unit_index=unit_index,
    )


def _is_flat(T: TuraevAlgebraData, vec) -> bool:
    GG = T.GG
    sub = GG.even_subgroup
    for g in range(sub.order):
        ghat = GG.even_part[g]
        for k in range(sub.order):
            khat = GG.even_part[k]
            g2 = GG.even_index[real_conjugate(GG, khat, ghat)]
            if vec[g2] != vec[g] * T.action_coeff(khat, g):
                return False
    return True


def _coords_or_error(F: UnorientedFrobeniusData, vec, what: str):
    coords = F.coords(tuple(vec))
    recon = F.from_coords(coords)
    if tuple(recon) != tuple(vec):
        raise ConventionError(f"{what} does not lie in the flat-section span")
    return coords


def _closed_form_duals(F: UnorientedFrobeniusData):
    """(duals, None), or (None, i) when the trace pairing degenerates at basis i.

    Sections have class supports, so <S_C, S_D> = counit(S_C S_D) vanishes
    unless D = C^-1, and the dual of S_C is S_{C^-1} / <S_C, S_{C^-1}>.  The
    pairing is the identity coefficient of the product, a sum over C.
    """
    sub = F.GG.even_subgroup
    index = {rep: j for j, rep in enumerate(F.basis_reps)}
    class_rep = {g: cls[0] for cls in sub.conjugacy_classes() for g in cls}
    duals = []
    for i, (vec, rep) in enumerate(zip(F.basis, F.basis_reps)):
        j = index.get(class_rep[sub.inverse[rep]])
        if j is None:
            return None, i
        partner = F.basis[j]
        identity_coeff = F.field.zero
        for g, c in enumerate(vec):
            if not c.is_zero():
                ginv = sub.inverse[g]
                identity_coeff = identity_coeff + c * partner[ginv] * F._mult[(g, ginv)]
        pairing = identity_coeff.scale(Fraction(1, sub.order))
        if pairing.is_zero():
            return None, i
        scale = pairing.inverse()
        duals.append(tuple(c * scale for c in partner))
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

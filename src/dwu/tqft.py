"""The 2D quantum theory: equivariant algebra data, orbifolding, and
closed-surface partition functions by three independent routes.

Routes:
  direct    (1/|G|) sum over holonomies of the transgressed pairing, walked
            one handle or crosscap at a time on counts per prefix (exact)
  tqft      cut-and-paste on the orbifold Frobenius algebra: counit of
            Handle^g(unit) or of Q^k (exact, same cyclotomic field)
  verlinde  |G|^(-chi) sum over blocks of (nu dim)^chi (exact, from the
            blocks' integer (dim, nu); the eigenproblem only finds the blocks)

The equivariant algebra has one-dimensional graded pieces A_g = C l_g, so all
of its structure constants are single roots of unity, held as exponent tables.
Every exact value is a count of roots zeta_L^k over one denominator (an
element of Z[Z/L], see dwu.phases): the orbifold algebra is the span of flat
sections inside the twisted group algebra, each one root on each element of
a class, so a product of two is a class sum of roots read off the exponent
tables.  Its vectors are integer count arrays, and the direct route and the
KR integral count roots and divide by the group order once.  Counts are
int64 while a bound proves them exact and Python ints past it; the tests
hold the routes to the brute-force holonomy and groupoid sums of
tests/oracles.py.

The orbifold's span tests compare count arrays by their power-basis
coefficients (CycField.reduction).  check_unoriented_frobenius evaluates
coordinates in the flat basis at the primitive L-th roots of unity mod a
prime (phases.residues) and decides each equation there as a congruence,
exact under an a-priori bound on the coefficients.  No float decides an
equality here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from dwu.cohomology import TwistedCochain
from dwu.groups import GradedGroup, ResourceBudgetError, flat_sections
from dwu.moduli import KLEIN, RP2, TORUS, Surface, require_budget, word_value
from dwu.moduli import holonomy_points  # noqa: F401  (looked up here by perfbench's tracer)
from dwu.phases import CycField, CycNum, residues
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


@dataclass(frozen=True, eq=False)
class TuraevAlgebraData:
    """G-graded algebra with one-dimensional pieces, group action and crosscaps.

    Every structure constant is a root of unity zeta_L^k, stored as its
    exponent k mod L: mult[g, h] scales l_{gh}, action[w, g] scales
    l_{w g^{sign w} w^{-1}}, and crosscap[i] scales l_{s^2} for the i-th odd
    element s of GG.odd_part().  Indices g, h run over the even subgroup, w over
    the ambient group.  zero, when set, holds boolean masks (mult, action,
    crosscap) of constants that are 0 instead of a root; only a with_mutation
    that zeroes a constant sets it.
    """

    GG: GradedGroup
    L: int
    mult: np.ndarray
    action: np.ndarray
    crosscap: np.ndarray
    zero: tuple | None = None

    def with_mutation(self, kind: str, key, phase: Fraction | None) -> "TuraevAlgebraData":
        """Copy with one structure constant scaled by a phase (a Fraction, read
        mod 1), or zeroed when phase is None; the exponents are rescaled to
        lcm(L, denominator)."""
        kinds = ("product", "action", "crosscap")
        if kind not in kinds:
            raise ValueError(f"unknown mutation kind {kind}")
        L = self.L if phase is None else math.lcm(phase.denominator, self.L)
        tables = [t * (L // self.L) for t in (self.mult, self.action, self.crosscap)]
        i, zero = kinds.index(kind), self.zero
        if kind == "crosscap":
            key = int(np.flatnonzero(self.GG.odd_part() == key)[0])
        if phase is None:
            zero = [np.array(z) for z in zero or [np.zeros(t.shape, bool) for t in tables]]
            zero[i][key] = True
            zero = tuple(zero)
        else:
            tables[i][key] = (tables[i][key] + int(phase * L % L)) % L
        mult, action, crosscap = tables
        return replace(self, L=L, mult=mult, action=action, crosscap=crosscap, zero=zero)


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
    even, odd = GG.even_part, GG.odd_part()
    return TuraevAlgebraData(
        GG=GG,
        L=N,
        mult=lam[np.ix_(even, even)],
        action=-tau_ref(lambda_hat, GG)[:, even] % N,
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
    G, S, odd, hat, sub_of = GG.group, GG.even_subgroup, GG.odd_part(), GG.even_part, GG.even_index
    n, Gt, Ginv, St, Sinv = S.order, G.table, G.inverse, S.table, S.inverse
    rc = sub_of[GG.real_conjugation]  # rc[w, g]: the even index of w.g
    conj = G.conjugation  # conj[h, x] = h x h^-1

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
        sprime = np.where(GG.sign[w] == 1, conj[w, s], conj[w, Ginv[s]])
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


def _convolve(x, y):
    """sum over m of x[..., m, :] * y[m, ..., :] in the group ring Z[Z/L].

    The last axis of each array holds root counts (entry k counts zeta_L^k),
    so the product of two entries is the cyclic convolution of their counts.
    The result has the axes x[..., :-2], y[1:-1] and the counts."""
    L = x.shape[-1]
    rot = (np.arange(L) - np.arange(L)[:, None]) % L  # rot[a, c] = c - a
    return np.tensordot(x, y[..., rot], axes=([-2, -1], [0, -2]))


def _unequal(field: CycField, a, b) -> np.ndarray:
    """Where the count vectors (last axis) of a and b differ in Q(zeta_L):
    their power-basis coefficients, exact in int64 for counts of the size the
    orbifold holds."""
    return ((a - b) @ field.reduction).any(-1)


def _at_roots(counts, L: int) -> np.ndarray:
    """The values of count arrays (last axis) at the primitive L-th roots mod
    the prime of phases.residues(L), with the roots on the first axis."""
    P, _, table = residues(L)
    return np.moveaxis(counts % P @ table % P, -1, 0)


def _unequal_residues(a, b) -> np.ndarray:
    """Where the residues a and b (first axis: the primitive roots, as
    _at_roots gives them) differ at some root."""
    return (a != b).any(0)


@dataclass(frozen=True, eq=False)
class UnorientedFrobeniusData:
    """The orbifold algebra: flat sections with involution and crosscap.

    A vector over the even subgroup is an (n, L) integer array whose entry
    [g, k] counts the roots zeta_L^k in the coefficient of l_g; leading axes
    batch vectors.  The basis section S_i is zeta^exponent[g] on each g with
    section[g] = i and 0 elsewhere (groups.flat_sections), 1 at its least
    element; S_0 is the unit.  Coordinates in the flat basis are (dim, L)
    count arrays, and involution is the (dim, dim, L) array of the
    involution's matrix.  The product is the convolution of the ambient
    twisted group algebra, whose constants are the exponents mult; products
    holds S_i S_j in closed form.  The counit reads off the identity
    coefficient over |G|.

    The arrays are int64: the orbifold of a group of order n has entries of
    size at most n^4 (a product of two crosscap vectors), far from 2^63;
    check_unoriented_frobenius evaluates coordinates at the roots of unity
    mod a prime, not in these arrays.  partition_tqft's powers move to
    Python ints once their sums reach 2^63.
    """

    GG: GradedGroup
    field: CycField
    mult: np.ndarray  # (n, n) exponents of the ambient algebra
    section: np.ndarray  # (n,) the basis section holding g, or -1
    exponent: np.ndarray  # (n,) that section is zeta^exponent[g] at g
    involution: np.ndarray  # (dim, dim, L): p(basis[j]) = sum_i involution[i, j] basis[i]
    crosscap_coords: np.ndarray  # (dim, L): Q in basis coordinates

    @property
    def dim(self) -> int:
        return int(self.section.max()) + 1

    @functools.cached_property
    def reps(self) -> np.ndarray:
        """Each basis section's first element, its least, where it is 1."""
        return (self.section[:, None] == np.arange(self.dim)).argmax(0)

    @functools.cached_property
    def basis(self) -> np.ndarray:  # S_i has the coordinates 1 at i
        return self.from_coords(np.eye(self.dim, dtype=np.int64)[..., None] * (np.arange(self.field.L) == 0))

    @functools.cached_property
    def products(self) -> np.ndarray:
        """(dim, dim, n, L): S_i S_j, one root zeta^(e(g) + e(h) + mult[g, h])
        at gh for each g held by S_i and h held by S_j."""
        held = np.flatnonzero(self.section >= 0)
        g, h, s, e = held[:, None], held, self.section, self.exponent
        out = np.zeros((self.dim, self.dim, len(self.mult), self.field.L), np.int64)
        gh = self.GG.even_subgroup.table[g, h]
        np.add.at(out, (s[g], s[h], gh, (e[g] + e[h] + self.mult[g, h]) % self.field.L), 1)
        return out

    @functools.cached_property
    def _factors(self):
        """h[g, k] = g^-1 k, so that l_g l_h lands on l_k, and shift[g, k] = mult[g, h]."""
        sub = self.GG.even_subgroup
        h = sub.table[sub.inverse[:, None], np.arange(sub.order)]
        return h, np.take_along_axis(self.mult, h, axis=1)

    @functools.cached_property
    def duals(self) -> tuple:
        """_closed_form_duals of this algebra: (duals, None) or (None, i)."""
        return _closed_form_duals(self)

    @functools.cached_property
    def powers(self) -> dict:
        """{(surface kind, e): H^e or Q^e}, filled by partition_tqft."""
        return {}

    def vec_product(self, u, v):
        """u v in the ambient algebra for every pair of vectors batched in u and
        v; the result has the axes u[..., :-2], v[..., :-2], (n, L)."""
        h, shift = self._factors
        idx = (np.arange(self.field.L) - shift[..., None]) % self.field.L
        # y[g, ..., k]: the factor v[h] of l_k in u[g] v[h], scaled by zeta^shift
        y = np.moveaxis(v[..., h[..., None], idx], -3, 0)
        return _convolve(u, y)

    def vec_counit(self, v) -> CycNum:
        return self.field.from_counts(v[0], self.GG.even_subgroup.order)

    def coords(self, v):
        """Coordinates of section vectors in the flat basis: their values at reps."""
        return v[..., self.reps, :]

    def from_coords(self, coords):
        """sum_i coords[..., i] S_i: the coefficient of l_g is the coordinate of
        g's section turned by zeta^exponent[g], and 0 where no section holds g."""
        L, s = self.field.L, self.section
        return coords[..., s[:, None], (np.arange(L) - self.exponent[:, None]) % L] * (s >= 0)[:, None]

    def unit_vector(self):
        out = np.zeros((len(self.mult), self.field.L), np.int64)
        out[0, 0] = 1
        return out

    def crosscap_vector(self):
        return self.from_coords(self.crosscap_coords)


def orbifold(T: TuraevAlgebraData) -> UnorientedFrobeniusData:
    """Flat sections with the induced involution and crosscap section."""
    if T.zero is not None:
        raise ValueError("the orbifold needs every structure constant to be a root of unity")
    GG, L = T.GG, T.L
    G, hat, odd = GG.group, GG.even_part, GG.odd_part()
    n = GG.even_subgroup.order
    field = CycField(L)
    section, exponent = flat_sections(GG.even_subgroup, T.action[hat], L)
    if section[0] < 0:
        raise ConventionError("identity class is not flat")
    dim = int(section.max()) + 1
    F = UnorientedFrobeniusData(
        GG=GG,
        field=field,
        mult=T.mult,
        section=section,
        exponent=exponent,
        involution=np.zeros((dim, dim, L), np.int64),
        crosscap_coords=np.zeros((dim, L), np.int64),
    )
    # src[w, t]: the even g with w.g = t
    src = np.argsort(GG.even_index[GG.real_conjugation], axis=-1)
    shift = np.take_along_axis(T.action, src, axis=-1)

    def act(w, v):
        """The images of the vectors v under the ambient elements w (axes
        v[..., :-2], w, (n, L)): the coefficient at g moves to w.g, scaled by
        zeta^action[w, g]."""
        return v[..., src[w][..., None], (np.arange(L) - shift[w][..., None]) % L]

    # crosscap section: g -> sum over odd s with s^2 = g of Q_s
    cc = np.zeros((n, L), np.int64)
    np.add.at(cc, (GG.even_index[G.table[odd, odd]], T.crosscap), 1)
    cc_coords = _coords_or_error(F, cc, "crosscap")

    # involution: restriction of the odd action to sections, one matrix per
    # odd element s, mats[s, i, j], all of them equal
    mats = _coords_or_error(F, act(odd, F.basis), "involution").transpose(1, 2, 0, 3)
    if _unequal(field, mats[1:], mats[:1]).any():
        raise ConventionError("involution depends on the choice of odd element")
    return replace(F, involution=mats[0], crosscap_coords=cc_coords)


def _span_misses(F: UnorientedFrobeniusData, v) -> np.ndarray:
    """Per batched vector of v, whether it leaves the flat-section span."""
    return _unequal(F.field, F.from_coords(F.coords(v)), v).any(-1)


def _coords_or_error(F: UnorientedFrobeniusData, v, what: str):
    if _span_misses(F, v).any():
        raise ConventionError(f"{what} does not lie in the flat-section span")
    return F.coords(v)


def _closed_form_duals(F: UnorientedFrobeniusData):
    """(duals, None), or (None, i) when the closed form fails at basis i.

    Sections have class supports, so <S_C, S_D> = counit(S_C S_D) vanishes
    unless D = C^-1.  The pairing <S_C, S_{C^-1}> is the identity coefficient
    of the product over |G|, a sum over g in C of the roots
    S_C(g) S_{C^-1}(g^-1) mult(g, g^-1).  When they are one root zeta^e, the
    pairing is (|C|/|G|) zeta^e and the dual of S_C is (|G|/|C|) zeta^-e
    S_{C^-1}; the least i is reported whose C^-1 has no section or whose
    terms differ.
    """
    n, L, s, reps = len(F.mult), F.field.L, F.section, F.reps
    inv = F.GG.even_subgroup.inverse
    term = (F.exponent + F.exponent[inv] + F.mult[np.arange(n), inv]) % L  # g's term
    bad = (s >= 0) & ((s[inv] < 0) | (term != term[reps][s]))
    if bad.any():
        return None, int(s[bad].min())
    coords = np.zeros((F.dim, F.dim, L), np.int64)
    coords[np.arange(F.dim), s[inv[reps]], -term[reps] % L] = n // np.bincount(s[s >= 0])
    return F.from_coords(coords), None


def handle_element(F: UnorientedFrobeniusData):
    """H = sum_i S_i S^i = sum_ij d_ij S_i S_j for the duals S^i = sum_j d_ij S_j;
    the genus-adding operator is multiplication by H."""
    duals, _ = F.duals
    if duals is None:
        raise ConventionError("degenerate orbifold trace pairing")
    n, L = len(F.mult), F.field.L
    return _convolve(F.products.transpose(2, 0, 1, 3).reshape(n, -1, L), F.coords(duals).reshape(-1, L))


def check_unoriented_frobenius(F: UnorientedFrobeniusData) -> CheckReport:
    """Commutative Frobenius axioms, the involution laws, and both crosscap
    constraints, reported per condition with witnesses.

    Each condition is one array equation over the basis indices; the witness
    is the first failing index tuple in the order of the nested loops over
    them.  Closure is decided on the exact products (_span_misses); the later
    conditions compare coordinates in the flat basis, which decide equality
    in the span (sections have disjoint supports and are 1 at their least
    elements).  C (the products' coordinates), the involution's rows p, Q's
    coordinates q and the duals' rows d are evaluated once at the phi(L)
    primitive L-th roots mod the prime P of phases.residues(L), and every
    product and sum is taken there, in int64 mod P; the counit is coordinate 0.

    Exactness.  Each side of an equation a = b is an element of Z[zeta_L],
    so a = b exactly when the power-basis coefficients of a - b vanish.  They
    vanish mod P exactly when a - b vanishes at every primitive root mod P
    (_unequal_residues), and they are 0 when they are 0 mod P and below P/2.

    Bound.  Let n = |G^| (the even part), iota the largest row or column sum
    of the involution's count norms |p_ij|_1 and kappa the largest |q_a|_1,
    each at least 1.  |C[i, j, x]|_1 counts the (g, h) in C_i x C_j with
    gh = x: at most |C_j|, and at most n summed over i, j or both.  So the
    count norm of a compared difference is at most 2n max(n, iota, kappa)^2:
    2n^2 for associativity, n iota + n iota^2 for the morphism, n kappa iota
    + n kappa for p(Q S_j) = Q S_j, and n dim iota + n kappa^2 for
    sum_i p(S_i) S^i = Q Q (|d_i|_1 = n/|C_i^-1|).  Its power-basis
    coefficients are at most that times the largest |entry| of
    field.reduction.  A check where that bound is not below P/2 raises
    ResourceBudgetError before any verdict.  Below it, 4 dim^3 < P, so every
    sum of products formed here has fewer than P terms and stays in int64.
    """
    dim, n, L = F.dim, len(F.mult), F.field.L
    P = residues(L)[0]
    norms = np.abs(F.involution).sum(-1)
    iota = max(1, int(norms.sum(0).max()), int(norms.sum(1).max()))
    kappa = max(1, int(np.abs(F.crosscap_coords).sum(-1).max()))
    bound = 2 * n * max(n, iota, kappa) ** 2 * int(np.abs(F.field.reduction).max())
    if not 2 * bound < P:
        raise ResourceBudgetError(f"coefficient bound {bound} of the Frobenius check is not below {P}/2")

    def mul(a, b):
        return a @ b % P

    entries = []

    # products of basis sections stay in the section span (and are flat)
    witness = _first(_span_misses(F, F.products))
    entries.append(("closure", witness is None, witness))
    if witness is not None:
        return CheckReport(entries=tuple(entries))
    C = _at_roots(F.coords(F.products), L)  # S_i S_j = sum_x C[i, j, x] S_x
    m = len(C)

    witness = _first(_unequal_residues(C, C.transpose(0, 2, 1, 3)).any(-1))
    entries.append(("commutativity", witness is None, witness))

    # (S_i S_j) S_k = sum_x C[i, j, x] C[x, k, l] S_l and
    # S_i (S_j S_k) = sum_x C[j, k, x] C[i, x, l] S_l
    pairs = C.reshape(m, dim * dim, dim)
    lhs = mul(pairs, C.reshape(m, dim, -1)).reshape((m,) + (dim,) * 4)
    rhs = mul(pairs, C.transpose(0, 2, 1, 3).reshape(m, dim, -1)).reshape((m,) + (dim,) * 4)
    witness = _first(_unequal_residues(lhs, rhs.transpose(0, 3, 1, 2, 4)).any(-1))
    entries.append(("associativity", witness is None, witness))

    one = np.eye(dim, dtype=np.int64)  # row j: the coordinates of S_j; S_0 is the identity's section
    witness = _first((_unequal_residues(C[:, 0], one) | _unequal_residues(C[:, :, 0], one)).any(-1))
    entries.append(("unit", witness is None, witness))

    duals, witness = F.duals
    entries.append(("trace-nondegenerate", witness is None, witness))
    if duals is None:
        return CheckReport(entries=tuple(entries))

    # involution laws: p^2 = id, algebra morphism, counit preserved
    p = _at_roots(F.involution, L).transpose(0, 2, 1)  # p(S_j) = sum_i p[j, i] S_i
    witness = _first(_unequal_residues(mul(p, p), one).any(-1))
    entries.append(("involution-squares-to-id", witness is None, witness))

    # p(S_i S_j) = sum_x C[i, j, x] p(S_x) against p(S_i) p(S_j) = sum_b p[j, b] pS[i, b]
    pS = mul(p, C.reshape(m, dim, -1)).reshape(C.shape)  # pS[i, b]: the coordinates of p(S_i) S_b
    witness = _first(_unequal_residues(mul(C, p[:, None]), mul(p[:, None], pS)).any(-1))
    entries.append(("involution-algebra-morphism", witness is None, witness))

    witness = _first(_unequal_residues(p[..., 0], one[:, 0]))
    if witness is None and _unequal_residues(p[:, 0], one[0]).any():  # p(unit) = unit
        witness = ("unit",)
    entries.append(("involution-counit-preserving", witness is None, witness))

    # crosscap constraint: Q x = p(Q x)
    q = _at_roots(F.crosscap_coords, L)
    qS = mul(q[:, None], C.reshape(m, dim, -1)).reshape(m, dim, dim)  # qS[j]: the coordinates of Q S_j
    witness = _first(_unequal_residues(mul(qS, p), qS).any(-1))
    entries.append(("crosscap-linear-constraint", witness is None, witness))

    # second crosscap diagram: sum_i p(S_i) S^i = Q Q
    d = _at_roots(F.coords(duals), L)  # S^i = sum_b d[i, b] S_b
    lhs = mul(d.reshape(m, 1, -1), pS.reshape(m, -1, dim))
    ok = not _unequal_residues(lhs, mul(q[:, None], qS)).any()
    entries.append(("crosscap-comultiplication", ok, None))

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

    A walk over the relator's pieces, a handle [b, a] per genus or x^2 per
    crosscap (the Klein bottle is two crosscaps): state[p, k] counts the
    holonomies of the pieces so far with product p and pairing k mod N, and
    a step convolves it with table[p, p', k], the count of piece holonomies
    ((a, b) in G^2, or odd x) taking p to p' with fan pairing k read from p.
    Z is state[e] over |G|.  The budget bounds steps x states x choices (the
    table's size, once more per step; the sphere counts as one step) on every
    call, before the table is built or a step taken.  The walk (table, state, and state[e] per step) is
    kept on the cochain per (GG, surface kind), so a call takes only the
    steps no earlier call took.  The state sums to exactly (piece
    holonomies)^steps: int64 below 2^63, Python ints from there on.
    """
    require_cocycle(lambda_hat)
    N, n = lambda_hat.N, GG.even_subgroup.order
    even, sub_of = GG.even_part, GG.even_index
    if surface.orientable:
        piece, holonomy = TORUS, (even[:, None], even)
    else:
        piece, holonomy = RP2, (GG.odd_part(),)
    choices = np.broadcast(*holonomy).size
    require_budget("direct walk", max(surface.param, 1) * n * choices, budget)
    walks = vars(lambda_hat).setdefault("_walks", {})
    walk = walks.get((GG, surface.kind))
    if walk is None:
        prefix = even[:, None, None]
        ends = word_value(GG.group, piece.relator(), holonomy, prefix)
        pairing = relator_pairing(lambda_hat, piece, holonomy, prefix)
        table = np.zeros((n, n, N), np.int64)
        np.add.at(table, tuple(np.broadcast_arrays(sub_of[prefix], sub_of[ends], pairing)), 1)
        state = np.zeros((n, N), np.int64)
        state[0, 0] = 1
        walk = walks[GG, surface.kind] = [table, state, [state[0].copy()]]
    table, state, rows = walk
    while len(rows) <= surface.param:
        if choices ** len(rows) >= 2**63:  # the state's sum after this step
            state = state.astype(object, copy=False)
        state = _convolve(state, table)
        rows.append(state[0].copy())
    walk[1] = state
    return (field or CycField(N)).from_counts(rows[surface.param], n)


def partition_tqft(F: UnorientedFrobeniusData, surface: Surface) -> CycNum:
    """Cut-and-paste value: counit(H^g) or counit(Q^k).

    Left-to-right binary exponentiation; H, Q and every power formed are kept
    in F.powers.  Counts are non-negative, so |uv|_1 = |u|_1 |v|_1 bounds every
    entry of a product: int64 below 2^63, Python ints from there on."""
    if not surface.param:
        return F.vec_counit(F.unit_vector())
    kind, powers, e = surface.kind, F.powers, 1
    if (kind, 1) not in powers:
        powers[kind, 1] = handle_element(F) if kind == "orientable" else F.crosscap_vector()
    for bit in bin(surface.param)[3:]:  # the binary digits after the leading 1
        for a in (e, 1)[: 1 + int(bit)]:  # square, then times the step on a 1
            if (kind, e + a) not in powers:
                u, v = powers[kind, e], powers[kind, a]
                if int(u.sum()) * int(v.sum()) >= 2**63:
                    u, v = u.astype(object), v.astype(object)
                powers[kind, e + a] = F.vec_product(u, v)
            e += a
    return F.vec_counit(powers[kind, surface.param])


def partition_verlinde(block_list: list[BlockData], surface: Surface) -> Fraction:
    """|G|^(-chi) sum over blocks of (nu dim)^chi, dims-only when orientable,
    exactly.  A value past the float range raises OverflowError, as does a
    genus so large that |G|^chi underflows; that is decided before any power
    is formed."""
    n = sum(b.dimension**2 for b in block_list)
    chi = surface.euler_characteristic
    if not surface.orientable and any(b.indicator is None for b in block_list):
        raise ValueError("blocks need indicators for nonorientable surfaces")
    past = f"|G|^-chi = {n}^{-chi} is beyond the float range"
    if not float(n) ** chi:
        raise OverflowError(past)
    weights = (b.dimension if surface.orientable else b.indicator * b.dimension for b in block_list)
    total = sum((Fraction(w, n) ** chi for w in weights if w), Fraction(0))  # 0^0 := 0 at chi = 0
    try:
        float(total)
    except OverflowError:
        raise OverflowError(past) from None
    return total


def kr_rank(GG: GradedGroup, lambda_hat: TwistedCochain, field: CycField | None = None) -> CycNum:
    """Integral of tau_ref over the double real loop: its roots counted over
    the carrier and divided by |G^| once (a component weighs orbit size/|G^|)."""
    require_cocycle(lambda_hat)
    field = field or CycField(lambda_hat.N)
    # the double loop carrier: the pairs (g, w), g even, with w.g = g
    w, i = np.nonzero(GG.real_conjugation == GG.even_part)
    k = tau_ref(lambda_hat, GG)[w, GG.even_part[i]]  # the root zeta_N^k per point
    counts = np.bincount(k * field.L // lambda_hat.N % field.L, minlength=field.L)
    return field.from_counts(counts, GG.group.order)


def one_loop(
    GG: GradedGroup,
    lambda_hat: TwistedCochain,
    field: CycField | None = None,
    budget: int | None = None,
) -> CycNum:
    """(Z(T^2) + Z(K))/2."""
    field = field or CycField(lambda_hat.N)
    zt = partition_direct(GG, lambda_hat, TORUS, field=field, budget=budget)
    zk = partition_direct(GG, lambda_hat, KLEIN, field=field, budget=budget)
    return (zt + zk) / 2


@dataclass(frozen=True)
class IdentityRow:
    """One compared identity: an exact direct value against an exact value by
    another route, and the exact Verlinde value where the surface has one."""

    surface: str  # a surface name, "one-loop-identity" or "crosscap-trace"
    direct: CycNum
    tqft: CycNum
    verlinde: Fraction | None = None

    @functools.cached_property
    def as_complex(self) -> tuple:
        """(direct, tqft, verlinde) as complex numbers, each converted once."""
        v = None if self.verlinde is None else complex(self.verlinde)
        return self.direct.to_complex(), self.tqft.to_complex(), v

    @property
    def max_delta(self) -> float:
        d, t, v = self.as_complex
        return abs(d - t) if v is None else max(abs(d - t), abs(d - v))

    @property
    def agrees(self) -> bool:
        """direct == tqft, and == Verlinde where there is one, exactly."""
        v = self.verlinde
        return self.direct == self.tqft and (v is None or self.direct == self.direct.field.from_rational(v))


def consistency_report(
    GG: GradedGroup,
    lambda_hat: TwistedCochain,
    surfaces: list[Surface],
    budget: int | None = None,
) -> dict:
    """Every compared identity of one class, as IdentityRows.

    rows: per surface, the direct sum against cut-and-paste and Verlinde;
    then "one-loop-identity", one_loop against the KR rank, and
    "crosscap-trace", Z(RP2) against counit(Q).  Exact values lie in the
    orbifold's field, the direct ones read from partition_direct's walk cache.
    ok means every row agrees exactly and the unoriented Frobenius checks
    pass (axioms_ok); max_delta, the largest row delta as floats, is only
    printed; blocks lists (dimension, indicator).  Every Verlinde value is
    formed first, so a surface beyond the float range raises OverflowError
    before any exact route (or its budget check) runs.
    """
    from dwu.reptheory import algebra_from_graded, blocks, crosscap_element, fs_indicators

    require_cocycle(lambda_hat)
    alg = algebra_from_graded(GG, lambda_hat)
    bl = fs_indicators(blocks(alg), crosscap_element(GG, lambda_hat), alg)
    verlinde = [partition_verlinde(bl, s) for s in surfaces]
    T = turaev_from_cocycle(GG, lambda_hat)
    F = orbifold(T)
    frob_report = check_unoriented_frobenius(F)

    direct = functools.partial(partition_direct, GG, lambda_hat, field=F.field, budget=budget)
    rows = [IdentityRow(s.name, direct(s), partition_tqft(F, s), v) for s, v in zip(surfaces, verlinde)]
    kr = kr_rank(GG, lambda_hat, field=F.field)
    rows.append(IdentityRow("one-loop-identity", one_loop(GG, lambda_hat, field=F.field, budget=budget), kr))
    rows.append(IdentityRow("crosscap-trace", direct(RP2), partition_tqft(F, RP2)))
    return {
        "rows": rows,
        "blocks": [(b.dimension, b.indicator) for b in bl],
        "axioms_ok": frob_report.ok,
        "max_delta": max(row.max_delta for row in rows),
        "ok": frob_report.ok and all(row.agrees for row in rows),
    }

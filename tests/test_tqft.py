import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import check_unoriented_frobenius as integer_check
from oracles import flipped_kr_rank, random_cochain

from dwu.cohomology import (
    TwistedCochain,
    cohomology_classes,
    twisted_differential,
)
from dwu.groups import (
    FiniteGroup,
    GradedGroup,
    ResourceBudgetError,
    build_group,
    cyclic,
    direct_product,
    enumerate_gradings,
    split_grading,
)
from dwu.moduli import KLEIN, RP2, SPHERE, TORUS, parse_surface, word_value
from dwu.phases import CycField, cyclotomic_polynomial
from dwu.reptheory import BlockData, algebra_from_graded, blocks, crosscap_element, fs_indicators
from dwu.tqft import (
    ConventionError,
    _closed_form_duals,
    _turaev_data,
    _unequal,
    check_turaev_axioms,
    check_unoriented_frobenius,
    consistency_report,
    handle_element,
    kr_rank,
    one_loop,
    orbifold,
    partition_direct,
    partition_tqft,
    partition_verlinde,
    turaev_from_cocycle,
)

SURFACES = [SPHERE, TORUS, parse_surface("Sigma_g=2"), RP2, KLEIN, parse_surface("N_k=3"), parse_surface("N_k=4")]


def parity_c4():
    return GradedGroup(group=cyclic(4), sign=(1, -1, 1, -1))


def identity_c2():
    return GradedGroup(group=cyclic(2), sign=(1, -1))


def nontrivial_class(gg):
    reps, _ = cohomology_classes(gg, 2)
    for r in reps:
        if not r.is_zero():
            return r
    raise AssertionError("no nontrivial class")


def small_cases():
    cases = []
    for name in ["C2", "C4", "C2xC2", "D8"]:
        for gg in enumerate_gradings(build_group(name)):
            reps, _ = cohomology_classes(gg, 2)
            cases += [(gg, lam) for lam in reps]
    gg = split_grading(build_group("S3"))
    cases += [(gg, TwistedCochain.zero(gg, 2))]
    return cases


def test_turaev_axioms_pass_on_constructed_algebras():
    for gg, lam in small_cases():
        T = turaev_from_cocycle(gg, lam)
        assert check_turaev_axioms(T).ok


def test_turaev_split_untwisted_action_and_crosscap():
    gg = split_grading(build_group("S3"))
    T = turaev_from_cocycle(gg, TwistedCochain.zero(gg, 2))
    assert T.zero is None  # every constant is a root of unity
    assert T.action.shape == (gg.group.order, gg.even_subgroup.order)
    assert T.crosscap.shape == (len(gg.odd_part()),)
    assert not T.action.any() and not T.crosscap.any()  # exponent 0: the constant 1


def test_turaev_identity_c2_nontrivial_crosscap():
    gg = identity_c2()
    T = turaev_from_cocycle(gg, nontrivial_class(gg))
    assert gg.odd_part() == (1,) and T.zero is None
    assert Fraction(int(T.crosscap[0]), T.L) == Fraction(1, 2)  # Q = -l_e


def test_mutated_product_fails():
    gg = split_grading(build_group("S3"))
    T = turaev_from_cocycle(gg, TwistedCochain.zero(gg, 2))
    sub = gg.even_subgroup
    rng = random.Random(0)
    for _ in range(10):
        g, h = rng.randrange(sub.order), rng.randrange(sub.order)
        if g == 0 and h == 0:
            continue
        mutated = T.with_mutation("product", (g, h), Fraction(1, 2))
        assert not check_turaev_axioms(mutated).ok


def test_mutated_action_fails():
    gg = parity_c4()
    T = turaev_from_cocycle(gg, TwistedCochain.zero(gg, 2))
    mutated = T.with_mutation("action", (1, 1), Fraction(1, 2))
    assert not check_turaev_axioms(mutated).ok


def test_mutation_rescales_exponents_to_the_lcm():
    gg = parity_c4()
    T = turaev_from_cocycle(gg, nontrivial_class(gg))
    assert T.L == 4
    mutated = T.with_mutation("action", (1, 1), Fraction(1, 3))
    assert mutated.L == 12
    expected = T.action * 3
    expected[1, 1] = (expected[1, 1] + 4) % 12
    assert (mutated.action == expected).all()
    assert (mutated.mult == T.mult * 3).all() and (mutated.crosscap == T.crosscap * 3).all()
    assert mutated.zero is None
    assert not check_turaev_axioms(mutated).ok


@pytest.mark.parametrize("kind, key", [("product", (1, 2)), ("action", (3, 1)), ("crosscap", 5)])
def test_a_mutation_reads_its_phase_mod_one(kind, key):
    gg = split_grading(build_group("S3"))
    T = turaev_from_cocycle(gg, TwistedCochain.zero(gg, 2))
    a, b = (T.with_mutation(kind, key, Fraction(k, 3)) for k in (4, 1))
    assert a.L == b.L == 3 and a.zero is b.zero is None
    for name in ("mult", "action", "crosscap"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_a_phase_mutation_orbifolds():
    """A mutation by a phase leaves every constant a root of unity, so its
    algebra orbifolds; the orbifold fails the Frobenius check."""
    gg = split_grading(build_group("S3"))
    T = turaev_from_cocycle(gg, TwistedCochain.zero(gg, 2))
    F = orbifold(T.with_mutation("product", (1, 2), Fraction(1, 3)))
    assert F.dim == 3
    assert not check_unoriented_frobenius(F).ok


@pytest.mark.parametrize(
    "name, cls, key, phase, what",
    [("C8", 1, (0, 3), Fraction(1, 3), "involution"), ("C4", 0, (2, 1), Fraction(1, 2), "crosscap")],
)
def test_a_mutation_with_a_section_that_is_not_flat_does_not_orbifold(name, cls, key, phase, what):
    """Two of criterion 6's action mutations on grading 0, one leaving an
    involution image and one the crosscap section not flat: combinations of
    flat sections are flat, so the span test alone rejects them."""
    gg = enumerate_gradings(build_group(name))[0]
    T = turaev_from_cocycle(gg, cohomology_classes(gg, 2)[0][cls])
    with pytest.raises(ConventionError, match=f"{what} does not lie in the flat-section span"):
        orbifold(T.with_mutation("action", key, phase))


def test_full_check_reports_degenerate_pairing():
    gg = parity_c4()
    T = turaev_from_cocycle(gg, TwistedCochain.zero(gg, 2))
    g = 1
    mutated = T.with_mutation("product", (g, gg.even_subgroup.inverse[g]), None)
    report = check_turaev_axioms(mutated)
    failures = dict(report.failures())
    assert failures["ii-invariant-trace"] == ("degenerate-pairing", g)
    assert {"v-torus-compatibility", "x-double-crosscap"} <= set(failures)


def test_dropped_crosscap_fails_viii_or_x():
    gg = split_grading(build_group("S3"))
    T = turaev_from_cocycle(gg, TwistedCochain.zero(gg, 2))
    s = gg.odd_part()[0]
    mutated = T.with_mutation("crosscap", s, None)
    report = check_turaev_axioms(mutated)
    assert not report.ok
    failed = {name for name, _ in report.failures()}
    assert failed & {"viii-crosscap-equivariance", "ix-crosscap-straightening", "x-double-crosscap"}


def test_orbifold_split_c2_untwisted():
    gg = split_grading(cyclic(2))
    F = orbifold(turaev_from_cocycle(gg, TwistedCochain.zero(gg, 2)))
    assert F.dim == 2
    # involution is the identity
    for i in range(2):
        for j in range(2):
            expected = F.field.one if i == j else F.field.zero
            assert F.field.from_counts(F.involution[i, j]) == expected
    Q = F.crosscap_vector()
    assert F.field.from_counts(Q[0]) == F.field.from_rational(2)
    assert F.field.from_counts(Q[1]).is_zero()


def test_orbifold_trivial_even_part():
    gg = split_grading(cyclic(1))
    F = orbifold(turaev_from_cocycle(gg, TwistedCochain.zero(gg, 2)))
    assert F.dim == 1
    assert F.field.from_counts(F.crosscap_vector()[0]) == F.field.one


def test_orbifold_q8_crosscap_block_expansion():
    gg = split_grading(build_group("Q8"))
    lam_hat = TwistedCochain.zero(gg, 2)
    F = orbifold(turaev_from_cocycle(gg, lam_hat))
    alg = algebra_from_graded(gg, lam_hat)
    bl = fs_indicators(blocks(alg), crosscap_element(gg, lam_hat), alg)
    coeffs = sorted(b.indicator * 8 // b.dimension for b in bl)
    assert coeffs == [-4, 8, 8, 8, 8]
    # the crosscap section equals sum nu |G|/dim p_V numerically
    import numpy as np

    Qv = np.array([F.field.from_counts(c).to_complex() for c in F.crosscap_vector()])
    recon = sum((b.indicator * 8 / b.dimension) * b.idempotent for b in bl)
    assert np.max(np.abs(Qv - recon)) < 1e-8


def test_frobenius_checks_pass():
    for gg, lam in small_cases():
        F = orbifold(turaev_from_cocycle(gg, lam))
        assert check_unoriented_frobenius(F).ok


# the manifest groups of order <= 10, and C12
LIGHT_GROUPS = ["C2", "C4", "C2xC2", "C6", "C8", "C4xC2", "D8", "Q8", "D10", "C12"]


@pytest.mark.parametrize("name", LIGHT_GROUPS)
def test_closed_form_duals_are_dual(name):
    """counit(S_i S^j) = delta_ij, by the plain product and counit."""
    for gg in enumerate_gradings(build_group(name)):
        for lam in cohomology_classes(gg, 2)[0]:
            F = orbifold(turaev_from_cocycle(gg, lam))
            duals, _ = F.duals
            for i, vec in enumerate(F.basis):
                for j, dual in enumerate(duals):
                    expected = F.field.one if i == j else F.field.zero
                    assert F.vec_counit(F.vec_product(vec, dual)) == expected, (gg, i, j)


@pytest.mark.parametrize("name", ["C4", "D8", "Q8", "C12"])
def test_vec_product_matches_the_double_loop(name):
    """The batched convolution equals sum over g, h of u_g v_h zeta^mult[g, h] on l_gh."""
    import numpy as np

    rng = np.random.default_rng(5)
    for gg in enumerate_gradings(build_group(name)):
        for lam in cohomology_classes(gg, 2)[0]:
            F = orbifold(turaev_from_cocycle(gg, lam))
            field, sub = F.field, gg.even_subgroup
            u, v = rng.integers(-3, 4, size=(2, 2, sub.order, field.L))
            got = F.vec_product(u, v)  # every pair (u[a], v[b])
            for a, b in itertools.product(range(2), repeat=2):
                expected = [field.zero] * sub.order
                for g, h in itertools.product(range(sub.order), repeat=2):
                    term = field.from_counts(u[a, g]) * field.from_counts(v[b, h])
                    k = sub.table[g][h]
                    expected[k] = expected[k] + term * field.root(int(F.mult[g, h]), field.L)
                assert [field.from_counts(c) for c in got[a, b]] == expected


def test_closed_form_duals_report_unequal_class_terms():
    from dataclasses import replace

    gg = split_grading(build_group("Q8"))
    F = orbifold(turaev_from_cocycle(gg, TwistedCochain.zero(gg, 2)))
    assert _closed_form_duals(F)[1] is None
    i = int(np.argmax(np.bincount(F.section[F.section >= 0]) > 1))  # the first class of two or more
    g = int(np.flatnonzero(F.section == i).max())  # not the class representative
    bad = F.mult * 2  # the same algebra over Q(zeta_2)
    bad[g, gg.even_subgroup.inverse[g]] += 1  # one term of <S_i, S_i^-1> becomes -1
    assert _closed_form_duals(replace(F, field=CycField(2), mult=bad)) == (None, i)


def test_frobenius_mutations_fail():
    from dataclasses import replace

    gg = split_grading(build_group("S3"))
    F = orbifold(turaev_from_cocycle(gg, TwistedCochain.zero(gg, 2)))
    # p replaced by a non-involution (scale one matrix entry by -1)
    bad_inv = F.involution.copy()
    bad_inv[1, 1] *= -1
    broken = replace(F, involution=bad_inv)
    assert not check_unoriented_frobenius(broken).ok
    # Q scaled by 2 breaks the comultiplication diagram
    scaled = replace(F, crosscap_coords=2 * F.crosscap_coords)
    report = check_unoriented_frobenius(scaled)
    assert not report.ok
    assert "crosscap-comultiplication" in {name for name, _ in report.failures()}
    # the same reports, witnesses included, as the check in Z[Z/L]
    for G in (broken, scaled):
        assert check_unoriented_frobenius(G) == integer_check(G)


def test_frobenius_check_rounding_bound_on_each_side():
    """The bound 2 n max(n, iota, kappa)^2 (3L + 2 dim + 27) 2^-50 of the
    check's docstring: split untwisted S3 has n = 6, L = 1, dim = 3, iota = 1
    and kappa = 4, so an involution scaled by s >= 6 has iota = s, and the
    bound is below 1/2 for 432 s^2 < 2^49.  Just below, the check decides as
    the integer check does; just above, it refuses before any verdict."""
    from dataclasses import replace

    gg = split_grading(build_group("S3"))
    F = orbifold(turaev_from_cocycle(gg, TwistedCochain.zero(gg, 2)))
    assert (F.field.L, len(F.mult), F.dim, int(abs(F.crosscap_coords).sum(-1).max())) == (1, 6, 3, 4)
    s = math.isqrt((2**49 - 1) // 432)
    assert 432 * s**2 < 2**49 <= 432 * (s + 1) ** 2
    below = replace(F, involution=s * F.involution)
    report = check_unoriented_frobenius(below)
    assert report == integer_check(below) and not report.ok
    with pytest.raises(ResourceBudgetError, match="rounding error bound"):
        check_unoriented_frobenius(replace(F, involution=(s + 1) * F.involution))


def _reduction_unequal(field, a, b):
    return ((a - b) @ field.reduction).any(-1)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_equality_at_the_roots_is_equality_mod_phi(data):
    """_unequal (the primitive embeddings) against CycField.reduction (the
    residue mod Phi_L) for L = 1..32: on random count vectors, on one root
    added to a random one, and on vectors that vanish in Q(zeta_L) but not in
    Z[Z/L], added to a random one."""
    L = data.draw(st.integers(1, 32), label="L")
    field, phi = CycField(L), np.array(cyclotomic_polynomial(L))
    vectors = st.lists(st.integers(-(2**20), 2**20), min_size=L, max_size=L).map(np.array)
    a, b = data.draw(vectors), data.draw(vectors)
    k = data.draw(st.integers(0, L - 1))
    zeros = []
    if L > 1:
        zeros.append(np.ones(L, np.int64))  # the sum of all L-th roots
    if L % 2 == 0:
        zeros.append(np.roll(np.eye(L, dtype=np.int64)[0] + np.eye(L, dtype=np.int64)[L // 2], k))
    if L > 1:  # Z[Z/1] is Z[zeta_1]
        size = L - len(phi) + 1
        cofactor = data.draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size).filter(any))
        zeros.append(np.roll(np.convolve(phi, cofactor), k))  # a multiple of Phi_L, rotated
    assert all(not _reduction_unequal(field, z, 0) and z.any() for z in zeros)
    root = np.roll(np.eye(L, dtype=np.int64)[0], k)  # a unit: |sigma(zeta^k)| = 1 everywhere
    left = np.array([a, a + root, a, *(a + z for z in zeros)])
    right = np.array([b, a, a + 0 * b, *([a] * len(zeros))])
    got = _unequal(field, left, right)
    assert (got == _reduction_unequal(field, left, right)).all()
    assert got[1] and not got[2:].any()


def test_equality_at_the_roots_sees_a_unit_with_one_small_embedding():
    """1 + zeta_7^3 is a unit, and at zeta_7 it has absolute value
    2 cos(3 pi / 7) = 0.445 < 1/2, so one embedding alone would call it 0."""
    field = CycField(7)
    d = np.zeros(7, np.int64)
    d[[0, 3]] = 1
    values = np.abs(d @ field.embeddings)
    assert abs(values[0] - 2 * math.cos(3 * math.pi / 7)) < 1e-12 and values[0] < 0.5
    assert _unequal(field, d, 0) and _reduction_unequal(field, d, 0)


def test_equality_at_the_roots_rounding_bound_on_each_side():
    """A comparison of count vectors at L = 7 is refused once |a - b|_1 (L + 8)
    2^-50 reaches 1/2, i.e. from |a - b|_1 = 2^49 / 15 on; just below, a
    nonzero and a vanishing difference of that size are still decided."""
    field = CycField(7)
    s = (2**49 - 1) // 30  # 2s (L + 8) < 2^49 <= 2(s + 1)(L + 8)
    nonzero = np.zeros(7, np.int64)
    nonzero[[0, 3]] = s  # s (1 + zeta^3)
    vanishing = np.full(7, (2**49 - 1) // 105)  # a multiple of 1 + zeta + ... + zeta^6
    assert _unequal(field, nonzero, 0) and not _unequal(field, vanishing, 0)
    nonzero[0] += 2
    with pytest.raises(ResourceBudgetError, match="rounding error bound"):
        _unequal(field, nonzero, 0)


def test_mednykh_split_untwisted_counts():
    for name, classes, sqrt_count in [("C2", 2, 2), ("C3", 3, 1), ("S3", 3, 4)]:
        gg = split_grading(build_group(name))
        lam = TwistedCochain.zero(gg, 2)
        n = gg.even_subgroup.order
        zt = partition_direct(gg, lam, TORUS)
        assert zt == zt.field.from_rational(classes)
        zr = partition_direct(gg, lam, RP2)
        assert zr == zr.field.from_rational(Fraction(sqrt_count, n))


def test_cut_and_paste_past_int64():
    """Untwisted split S4 at Sigma_10 and N_30, where |Z| passes 2^63, equals
    |G|^(-chi) sum (nu d)^chi from the integer block dimensions and indicators,
    by cut-and-paste and by the direct route."""
    gg = split_grading(build_group("S4"), cap=48)
    lam = TwistedCochain.zero(gg, 2)
    F = orbifold(turaev_from_cocycle(gg, lam))
    alg = algebra_from_graded(gg, lam)
    bl = fs_indicators(blocks(alg), crosscap_element(gg, lam), alg)
    n = gg.even_subgroup.order
    for name in ["Sigma_g=10", "N_k=30"]:
        surface = parse_surface(name)
        chi = surface.euler_characteristic
        signs = [1 if surface.orientable else b.indicator for b in bl]
        exact = Fraction(n) ** -chi * sum(
            Fraction(s * b.dimension) ** chi for s, b in zip(signs, bl) if s
        )
        if surface.orientable:
            assert exact == 2 * 24**18 + 12**18 + 2 * 8**18
        assert exact > 2**63
        assert partition_tqft(F, surface) == F.field.from_rational(exact), name
        assert partition_direct(gg, lam, surface) == F.field.from_rational(exact), name


def test_counts_on_each_side_of_int64():
    """C4 has two odd elements and an even subgroup of order 2, so a crosscap
    step has 2 holonomies and a handle 4, and |Q|_1 = 2, |H|_1 = 4.  N_62 and
    Sigma_31 total 2^62 and run in int64; N_64 and Sigma_32 total 2^64 and
    need Python ints.  (An odd crosscap count never reaches the identity on
    C4, so N_63 is 0 and would hide an overflow.)  In both classes both routes
    equal |G|^(-chi) sum (nu d)^chi exactly: 2^(1 - chi), or 0 for crosscaps
    in the twisted class."""
    gg = enumerate_gradings(build_group("C4"))[0]
    n = gg.even_subgroup.order
    reps, _ = cohomology_classes(gg, 2)
    assert len(reps) == 2
    for lam in reps:
        F = orbifold(turaev_from_cocycle(gg, lam))
        alg = algebra_from_graded(gg, lam)
        bl = fs_indicators(blocks(alg), crosscap_element(gg, lam), alg)
        for name in ["N_k=62", "Sigma_g=31", "N_k=64", "Sigma_g=32"]:
            surface = parse_surface(name)
            chi = surface.euler_characteristic
            signs = [1 if surface.orientable else b.indicator for b in bl]
            exact = Fraction(n) ** -chi * sum(
                Fraction(s * b.dimension) ** chi for s, b in zip(signs, bl) if s
            )
            twisted_crosscaps = lam.N > 1 and not surface.orientable  # both indicators 0
            assert exact == (0 if twisted_crosscaps else 2 ** (1 - chi))
            assert partition_tqft(F, surface) == F.field.from_rational(exact), name
            assert partition_direct(gg, lam, surface) == F.field.from_rational(exact), name


def test_direct_budget_bounds_the_transfer_table():
    """The budget bounds the walk's transfer table, states times choices per
    step, whatever the number of steps (the sphere takes none)."""
    gg = enumerate_gradings(build_group("D8"))[0]
    assert gg.even_subgroup.order == len(gg.odd_part()) == 4
    lam = TwistedCochain.zero(gg, 2)
    handle, crosscap = 4 * 4**2, 4 * 4  # even prefixes times choices of (a, b), of odd x
    cases = [
        (SPHERE, handle),
        (parse_surface("Sigma_g=9"), handle),
        (RP2, crosscap),
        (parse_surface("N_k=40"), crosscap),
    ]
    for surface, size in cases:
        with pytest.raises(ResourceBudgetError):
            partition_direct(gg, lam, surface, budget=size - 1)
        assert partition_direct(gg, lam, surface, budget=size) == partition_direct(gg, lam, surface)


def test_torus_nontrivial_cocycle_on_c2c2_split():
    """Split (C2xC2) x C2 with the pulled-back nontrivial cocycle: Z(T2) = 1."""
    from oracles import pullback_split

    G = build_group("C2xC2")
    lam = TwistedCochain.from_dict(
        G, 2, {(g, h): Fraction((g // 2) * (h % 2), 2) for g in range(1, 4) for h in range(1, 4)}
    )
    gg = split_grading(G)
    lam_hat = pullback_split(lam, gg)
    z = partition_direct(gg, lam_hat, TORUS)
    assert z == z.field.one


def test_rp2_vanishes_for_non_split():
    gg = parity_c4()
    for lam in cohomology_classes(gg, 2)[0]:
        z = partition_direct(gg, lam, RP2)
        assert z.is_zero()


def test_route_equivalence_small_sweep():
    for gg, lam in small_cases():
        F = orbifold(turaev_from_cocycle(gg, lam))
        alg = algebra_from_graded(gg, lam)
        bl = fs_indicators(blocks(alg), crosscap_element(gg, lam), alg)
        field = F.field
        for surface in SURFACES:
            direct = partition_direct(gg, lam, surface, field=field)
            cut = partition_tqft(F, surface)
            assert direct == cut, (gg, surface.name)
            v = partition_verlinde(bl, surface)
            assert abs(direct.to_complex() - v) < 1e-9, (gg, surface.name)


def test_tqft_torus_counts_blocks():
    gg = split_grading(build_group("S3"))
    lam = TwistedCochain.zero(gg, 2)
    F = orbifold(turaev_from_cocycle(gg, lam))
    z = partition_tqft(F, TORUS)
    assert z == F.field.from_rational(3)


def test_tqft_crosscap_traces():
    for gg, lam in small_cases()[:8]:
        F = orbifold(turaev_from_cocycle(gg, lam))
        assert partition_tqft(F, RP2) == F.vec_counit(F.crosscap_vector())
        q2 = F.vec_product(F.crosscap_vector(), F.crosscap_vector())
        assert partition_tqft(F, KLEIN) == F.vec_counit(q2)


def test_handle_element_is_central_and_diagonal_on_blocks():
    import numpy as np

    gg = split_grading(build_group("S3"))
    lam = TwistedCochain.zero(gg, 2)
    F = orbifold(turaev_from_cocycle(gg, lam))
    H = np.array([F.field.from_counts(c).to_complex() for c in handle_element(F)])
    alg = algebra_from_graded(gg, lam)
    for b in blocks(alg):
        prod = alg.product(H, b.idempotent)
        ratio = prod[np.argmax(np.abs(b.idempotent))] / b.idempotent[np.argmax(np.abs(b.idempotent))]
        expected = (6 / b.dimension) ** 2
        assert abs(ratio - expected) < 1e-8


def test_verlinde_examples():
    # C2 split untwisted, N3: 2 * (1+1) = 4
    gg = split_grading(cyclic(2))
    lam = TwistedCochain.zero(gg, 2)
    alg = algebra_from_graded(gg, lam)
    bl = fs_indicators(blocks(alg), crosscap_element(gg, lam), alg)
    assert abs(partition_verlinde(bl, parse_surface("N_k=3")) - 4.0) < 1e-12
    assert abs(partition_direct(gg, lam, parse_surface("N_k=3")).to_complex() - 4.0) < 1e-12

    # C3 split untwisted, Klein bottle: nu = (1,0,0) -> 1
    gg3 = split_grading(cyclic(3))
    lam3 = TwistedCochain.zero(gg3, 2)
    alg3 = algebra_from_graded(gg3, lam3)
    bl3 = fs_indicators(blocks(alg3), crosscap_element(gg3, lam3), alg3)
    assert sorted(b.indicator for b in bl3) == [0, 0, 1]
    assert abs(partition_verlinde(bl3, KLEIN) - 1.0) < 1e-12
    assert abs(partition_direct(gg3, lam3, KLEIN).to_complex() - 1.0) < 1e-12

    # RP2 is the signed dimension sum over |G|
    got = partition_verlinde(bl3, RP2)
    assert abs(got - sum(b.indicator * b.dimension for b in bl3) / 3) < 1e-12


@pytest.mark.parametrize("surface", ["N_k=1060", "Sigma_g=530", "N_k=1100", "Sigma_g=600"])
def test_verlinde_past_the_float_range_raises(surface):
    """|G|^chi = 2^-1058 is subnormal, so sum/|G|^chi overflows rather than
    dividing by zero; both are refused, never returned as inf."""
    bl = [BlockData(np.ones(1), 1, 1), BlockData(np.ones(1), 1, 1)]
    with pytest.raises(OverflowError):
        partition_verlinde(bl, parse_surface(surface))


def test_kr_rank_examples():
    gg = split_grading(cyclic(2))
    lam = TwistedCochain.zero(gg, 2)
    kr = kr_rank(gg, lam)
    ol = one_loop(gg, lam)
    assert kr == ol == kr.field.from_rational(2)

    gg1 = split_grading(cyclic(1))
    lam1 = TwistedCochain.zero(gg1, 2)
    assert kr_rank(gg1, lam1) == one_loop(gg1, lam1) == kr_rank(gg1, lam1).field.one

    gg4 = parity_c4()
    for lam in cohomology_classes(gg4, 2)[0]:
        assert kr_rank(gg4, lam) == one_loop(gg4, lam)


def test_cohomologous_inputs_give_identical_exact_values():
    from dwu.phases import CycField

    rng = random.Random(7)
    for gg in [parity_c4(), split_grading(cyclic(2)), enumerate_gradings(build_group("D8"))[0]]:
        N = gg.group.order
        field = CycField(N)
        for lam in cohomology_classes(gg, 2)[0]:
            nu = random_cochain(gg, 1, N, rng)
            shifted = lam + twisted_differential(nu)
            for surface in SURFACES:
                a = partition_direct(gg, lam, surface, field=field)
                b = partition_direct(gg, shifted, surface, field=field)
                assert a == b  # CycNum equality is bit-exact


def test_kr_rank_invariant_under_coboundary_shift():
    """tau_ref of a shifted cocycle integrates identically in loop contexts."""
    from dwu.phases import CycField

    rng = random.Random(13)
    for gg in [parity_c4(), enumerate_gradings(build_group("Q8"))[0]]:
        N = gg.group.order
        field = CycField(N)
        for lam in cohomology_classes(gg, 2)[0]:
            nu = random_cochain(gg, 1, N, rng)
            shifted = lam + twisted_differential(nu)
            assert kr_rank(gg, lam, field=field) == kr_rank(gg, shifted, field=field)


def identity_row(rep, surface):
    """The report row of one identity or surface."""
    return next(row for row in rep["rows"] if row.surface == surface)


def test_consistency_report_ok_and_debug_flip(monkeypatch):
    gg = split_grading(cyclic(2))
    lam = TwistedCochain.zero(gg, 2)
    rep = consistency_report(gg, lam, SURFACES)
    assert rep["ok"] and rep["max_delta"] == 0.0
    loop = identity_row(rep, "one-loop-identity")
    assert loop.direct == loop.tqft
    rp2_direct, crosscap_trace, _ = identity_row(rep, "crosscap-trace").as_complex
    assert abs(crosscap_trace - rp2_direct) == 0.0
    monkeypatch.setattr("dwu.tqft.kr_rank", flipped_kr_rank)
    flipped = consistency_report(gg, lam, SURFACES)
    assert not flipped["ok"]
    assert identity_row(flipped, "one-loop-identity").max_delta > 0.5


@pytest.mark.parametrize("name", ["D8", "Q8xC2"])
def test_consistency_report_computes_each_value_once(name):
    """One report forms the closed-form duals once, builds one field (the
    orbifold's) and takes its one-loop row from one_loop."""
    gg = enumerate_gradings(build_group(name))[0]
    lam = cohomology_classes(gg, 2)[0][-1]
    entered = dict.fromkeys([_closed_form_duals.__code__, CycField.__init__.__code__, one_loop.__code__], 0)

    def record(frame, event, arg):
        if event == "call" and frame.f_code in entered:
            entered[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        rep = consistency_report(gg, lam, SURFACES)
    finally:
        sys.setprofile(previous)
    assert rep["ok"]
    assert list(entered.values()) == [1, 1, 1]


def test_consistency_report_empty_surfaces():
    gg = split_grading(cyclic(2))
    rep = consistency_report(gg, TwistedCochain.zero(gg, 2), [])
    assert [row.surface for row in rep["rows"]] == ["one-loop-identity", "crosscap-trace"]
    assert rep["ok"]


def test_sphere_row_has_the_groupoid_cardinality_value():
    gg = split_grading(cyclic(2))
    rep = consistency_report(gg, TwistedCochain.zero(gg, 2), [SPHERE])
    direct, _, _ = identity_row(rep, "S2").as_complex
    assert abs(direct - 0.5) < 1e-12  # groupoid-cardinality value 1/|G|


def test_orbifold_p_independence_is_enforced():
    # the constructor compares all odd elements; passing means independence
    for gg, lam in small_cases():
        orbifold(turaev_from_cocycle(gg, lam))


PRODUCT_SURFACES = [TORUS, RP2, KLEIN, parse_surface("N_k=3"), parse_surface("Sigma_g=2")]


def ungraded_invariant(H, surface):
    """|Hom(pi_1 S, H)|/|H|, every generator tuple of H counted by its relator."""
    n = len(surface.generator_characters())
    holonomy = np.indices((H.order,) * n).reshape(n, -1)
    return Fraction(int((word_value(H, surface.relator(), holonomy) == 0).sum()), H.order)


@pytest.mark.parametrize(
    "h_name, g_name",
    [("C3", g) for g in ["C2", "C4", "C2xC2", "D8", "Q8"]] + [("S3", g) for g in ["C2", "C4"]],
)
def test_a_product_with_an_ungraded_group_multiplies_the_invariant(h_name, g_name):
    """Grade H x G^ by G^'s sign and pull each class back along the projection
    b (index mod |G^|): then Z_{HxG^}(S; pr*lam) = Z_H(S) Z_G^(S; lam), exactly,
    by the direct and the cut-and-paste route of the product."""
    H, G_hat = build_group(h_name), build_group(g_name)
    HG = direct_product(H, G_hat)
    b = np.arange(HG.order) % G_hat.order
    for gg in enumerate_gradings(G_hat):
        prod = GradedGroup(HG, tuple(np.asarray(gg.sign)[b].tolist()))
        for lam in cohomology_classes(gg, 2)[0]:
            pulled = TwistedCochain(HG, prod.sign, 2, lam.N, lam.table[np.ix_(b, b)])
            F = orbifold(turaev_from_cocycle(prod, pulled))
            for surface in PRODUCT_SURFACES:
                expected = partition_direct(gg, lam, surface, field=F.field).scale(ungraded_invariant(H, surface))
                case = (gg, lam.vector().tolist(), surface.name)
                assert partition_direct(prod, pulled, surface, field=F.field) == expected, case
                assert partition_tqft(F, surface) == expected, case


def relabelled(G, pi):
    """The table of G with every element a renamed pi[a]."""
    table = [[0] * G.order for _ in range(G.order)]
    for a, b in itertools.product(range(G.order), repeat=2):
        table[pi[a]][pi[b]] = pi[G.table[a][b]]
    return FiniteGroup.from_table(table, name=G.name)


@pytest.mark.parametrize("name", ["D8", "Q8", "C4xC2"])
def test_a_relabelled_table_gives_the_same_invariants(name):
    """Relabel a 2-group's table by a seeded permutation fixing 0 and transport
    each grading.  Per grading, H^1 and H^2 have the same invariant factors,
    the classes' exact direct and cut-and-paste values on every surface form
    the same multiset, and the verify-axioms checks give the same verdicts.
    Relabelling moves the classes' least elements, so the flat sections are
    numbered anew.  (Orders that are not prime powers wait on ROADMAP item 0.)"""
    G = build_group(name)
    pi = [0, *random.Random(26).sample(range(1, G.order), G.order - 1)]
    R = relabelled(G, pi)
    moved = [GradedGroup(R, tuple(gg.sign[pi.index(a)] for a in range(G.order))) for gg in enumerate_gradings(G)]
    assert sorted(gg.sign.tolist() for gg in moved) == [gg.sign.tolist() for gg in enumerate_gradings(R)]
    assert pi != list(range(G.order))
    field = CycField(G.order)  # a class's L divides |G|

    def exact(z):
        return field.from_counts(z.counts, z.den)

    for pair in zip(enumerate_gradings(G), moved):
        found = []
        for gg in pair:
            values, verdicts = Counter(), Counter()
            for lam in cohomology_classes(gg, 2)[0]:
                T = _turaev_data(gg, lam)
                F = orbifold(T)
                direct = [exact(partition_direct(gg, lam, s, field=F.field)) for s in SURFACES]
                values[tuple(zip(direct, (exact(partition_tqft(F, s)) for s in SURFACES)))] += 1
                reports = check_turaev_axioms(T).entries + check_unoriented_frobenius(F).entries
                verdicts[tuple((condition, ok) for condition, ok, _ in reports)] += 1
            found.append(([cohomology_classes(gg, d)[1] for d in (1, 2)], values, verdicts))
        assert found[0] == found[1], pair[0]

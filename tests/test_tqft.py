import itertools
import random
from fractions import Fraction

import pytest

from dwu.cohomology import (
    TwistedCochain,
    cohomology_classes,
    random_cochain,
    twisted_differential,
)
from dwu.groups import GradedGroup, build_group, cyclic, enumerate_gradings, split_grading
from dwu.moduli import KLEIN, RP2, SPHERE, TORUS, parse_surface
from dwu.phases import CycField, Phase
from dwu.reptheory import algebra_from_graded, blocks, crosscap_element, fs_indicators
from dwu.tqft import (
    CheckReport,
    ConventionError,
    _closed_form_duals,
    _dual_sections,
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
    assert Phase(int(T.crosscap[0]), T.L) == Phase(1, 2)  # Q = -l_e


def test_mutated_product_fails():
    gg = split_grading(build_group("S3"))
    T = turaev_from_cocycle(gg, TwistedCochain.zero(gg, 2))
    sub = gg.even_subgroup
    rng = random.Random(0)
    for _ in range(10):
        g, h = rng.randrange(sub.order), rng.randrange(sub.order)
        if g == 0 and h == 0:
            continue
        mutated = T.with_mutation("product", (g, h), Phase(1, 2))
        assert not check_turaev_axioms(mutated).ok


def test_mutated_action_fails():
    gg = parity_c4()
    T = turaev_from_cocycle(gg, TwistedCochain.zero(gg, 2))
    mutated = T.with_mutation("action", (1, 1), Phase(1, 2))
    assert not check_turaev_axioms(mutated).ok


def test_mutation_rescales_exponents_to_the_lcm():
    gg = parity_c4()
    T = turaev_from_cocycle(gg, nontrivial_class(gg))
    assert T.L == 4
    mutated = T.with_mutation("action", (1, 1), Phase(1, 3))
    assert mutated.L == 12
    expected = T.action * 3
    expected[1, 1] = (expected[1, 1] + 4) % 12
    assert (mutated.action == expected).all()
    assert (mutated.mult == T.mult * 3).all() and (mutated.crosscap == T.crosscap * 3).all()
    assert not any(z.any() for z in mutated.zero)
    assert not check_turaev_axioms(mutated).ok


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
            assert F.involution[i][j] == expected
    Q = F.crosscap_vector()
    assert Q[0] == F.field.from_rational(2) and Q[1].is_zero()


def test_orbifold_trivial_even_part():
    gg = split_grading(cyclic(1))
    F = orbifold(turaev_from_cocycle(gg, TwistedCochain.zero(gg, 2)))
    assert F.dim == 1
    assert F.crosscap_vector()[0] == F.field.one


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

    Qv = np.array([c.to_complex() for c in F.crosscap_vector()])
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
            duals = _dual_sections(F)
            for i, vec in enumerate(F.basis):
                for j, dual in enumerate(duals):
                    expected = F.field.one if i == j else F.field.zero
                    assert F.vec_counit(F.vec_product(vec, dual)) == expected, (gg, i, j)


def test_closed_form_duals_report_unequal_class_terms():
    from dataclasses import replace

    gg = split_grading(build_group("Q8"))
    F = orbifold(turaev_from_cocycle(gg, TwistedCochain.zero(gg, 2)))
    assert _closed_form_duals(F)[1] is None
    i, section = next((i, s) for i, s in enumerate(F.sections) if len(s) > 1)
    g = max(section)  # not the class representative
    bad = F.mult * 2  # the same algebra over Q(zeta_2)
    bad[g, gg.even_subgroup.inverse[g]] += 1  # one term of <S_i, S_i^-1> becomes -1
    assert _closed_form_duals(replace(F, field=CycField(2), mult=bad)) == (None, i)


def test_frobenius_mutations_fail():
    from dataclasses import replace

    gg = split_grading(build_group("S3"))
    F = orbifold(turaev_from_cocycle(gg, TwistedCochain.zero(gg, 2)))
    # p replaced by a non-involution (scale one matrix entry by -1)
    bad_inv = tuple(
        tuple(
            v.scale(Fraction(-1)) if (i == 1 and j == 1) else v
            for j, v in enumerate(row)
        )
        for i, row in enumerate(F.involution)
    )
    broken = replace(F, involution=bad_inv)
    assert not check_unoriented_frobenius(broken).ok
    # Q scaled by 2 breaks the comultiplication diagram
    scaled = replace(
        F, crosscap_coords=tuple(c.scale(Fraction(2)) for c in F.crosscap_coords)
    )
    report = check_unoriented_frobenius(scaled)
    assert not report.ok
    assert "crosscap-comultiplication" in {name for name, _ in report.failures()}


def test_mednykh_split_untwisted_counts():
    for name, classes, sqrt_count in [("C2", 2, 2), ("C3", 3, 1), ("S3", 3, 4)]:
        gg = split_grading(build_group(name))
        lam = TwistedCochain.zero(gg, 2)
        n = gg.even_subgroup.order
        zt = partition_direct(gg, lam, TORUS)
        assert zt == zt.field.from_rational(classes)
        zr = partition_direct(gg, lam, RP2)
        assert zr == zr.field.from_rational(Fraction(sqrt_count, n))


def test_torus_nontrivial_cocycle_on_c2c2_split():
    """Split (C2xC2) x C2 with the pulled-back nontrivial cocycle: Z(T2) = 1."""
    from dwu.cohomology import pullback_split

    G = build_group("C2xC2")
    lam = TwistedCochain.from_dict(
        G, 2, {(g, h): Phase((g // 2) * (h % 2), 2) for g in range(1, 4) for h in range(1, 4)}
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
    H = np.array([c.to_complex() for c in handle_element(F)])
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


def test_consistency_report_ok_and_debug_flip():
    gg = split_grading(cyclic(2))
    lam = TwistedCochain.zero(gg, 2)
    rep = consistency_report(gg, lam, SURFACES)
    assert rep["ok"] and rep["max_delta"] == 0.0
    assert rep["kr_exact_match"]
    assert abs(rep["crosscap_trace"] - rep["rp2_direct"]) == 0.0
    flipped = consistency_report(gg, lam, SURFACES, flip_tau_debug=True)
    assert not flipped["ok"]
    assert flipped["kr_delta"] > 0.5


def test_consistency_report_empty_surfaces():
    gg = split_grading(cyclic(2))
    rep = consistency_report(gg, TwistedCochain.zero(gg, 2), [])
    assert rep["surfaces"] == [] and rep["ok"]


def test_sphere_reports_convention_note():
    gg = split_grading(cyclic(2))
    rep = consistency_report(gg, TwistedCochain.zero(gg, 2), [SPHERE])
    row = rep["surfaces"][0]
    assert row["convention_sensitive"] and row["paper_stated"] == 1.0 + 0.0j
    assert abs(row["direct"] - 0.5) < 1e-12  # groupoid-cardinality value 1/|G|


def test_orbifold_p_independence_is_enforced():
    # the constructor compares all odd elements; passing means independence
    for gg, lam in small_cases():
        orbifold(turaev_from_cocycle(gg, lam))

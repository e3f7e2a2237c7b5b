import itertools
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from oracles import duality_phases, real_1d_phases

from dwu import reptheory
from dwu.cohomology import TwistedCochain, cohomology_classes, restrict_to_even
from dwu.groups import GradedGroup, build_group, cyclic, enumerate_gradings, split_grading
from dwu.phases import root_of_unity
from dwu.reptheory import (
    BlockComputationError,
    TwistedGroupAlgebra,
    algebra_from_graded,
    assert_central,
    blocks,
    crosscap_element,
    fs_indicators,
)


def parity_c4():
    return GradedGroup(group=cyclic(4), sign=(1, -1, 1, -1))


def identity_c2():
    return GradedGroup(group=cyclic(2), sign=(1, -1))


def zero2(ref):
    return TwistedCochain.zero(ref, 2)


def nontrivial_even_cocycle_c2c2(gg):
    """The nontrivial class on an even part isomorphic to C2xC2."""
    reps, _ = cohomology_classes(gg.even_subgroup, 2)
    nontrivial = [r for r in reps if not r.is_zero()]
    assert len(nontrivial) == 1
    return nontrivial[0]


def test_center_dimensions():
    gg = split_grading(cyclic(2))
    alg = TwistedGroupAlgebra(gg, zero2(gg.even_subgroup))
    assert len(alg.center_basis()) == 2

    gg = split_grading(build_group("S3"))
    alg = TwistedGroupAlgebra(gg, zero2(gg.even_subgroup))
    assert len(alg.center_basis()) == 3

    gg = split_grading(build_group("C2xC2"))
    lam = nontrivial_even_cocycle_c2c2(gg)
    alg = TwistedGroupAlgebra(gg, lam)
    assert len(alg.center_basis()) == 1


def test_product_associative_on_basis():
    gg = split_grading(build_group("S3"))
    lam = zero2(gg.even_subgroup)
    alg = TwistedGroupAlgebra(gg, lam)
    n = alg.dim
    for a, b, c in itertools.product(range(n), repeat=3):
        ab, p1 = alg.table[a, b], alg.phase[a, b]
        bc, p2 = alg.table[b, c], alg.phase[b, c]
        k1, q1 = alg.table[ab, c], alg.phase[ab, c]
        k2, q2 = alg.table[a, bc], alg.phase[a, bc]
        assert k1 == k2
        assert abs(p1 * q1 - p2 * q2) < 1e-12


def test_blocks_c3():
    gg = split_grading(cyclic(3))
    alg = TwistedGroupAlgebra(gg, zero2(gg.even_subgroup))
    bl = blocks(alg)
    assert [b.dimension for b in bl] == [1, 1, 1]


def test_blocks_twisted_c2c2_single_two_dim():
    gg = split_grading(build_group("C2xC2"))
    lam = nontrivial_even_cocycle_c2c2(gg)
    alg = TwistedGroupAlgebra(gg, lam)
    bl = blocks(alg)
    assert [b.dimension for b in bl] == [2]


def test_blocks_q8():
    gg = split_grading(build_group("Q8"))
    alg = TwistedGroupAlgebra(gg, zero2(gg.even_subgroup))
    bl = blocks(alg)
    assert [b.dimension for b in bl] == [1, 1, 1, 1, 2]


def test_blocks_deterministic(monkeypatch):
    gg = split_grading(build_group("S3"))
    alg = TwistedGroupAlgebra(gg, zero2(gg.even_subgroup))
    b1 = blocks(alg)
    b2 = blocks(alg)
    for x, y in zip(b1, b2):
        assert np.max(np.abs(x.idempotent - y.idempotent)) < 1e-12
    # a different random draw, same idempotents up to ordering by fingerprint
    seeds = []

    def other_draw(seed):
        seeds.append(seed)
        return Random(999)

    monkeypatch.setattr(reptheory, "Random", other_draw)
    b3 = blocks(alg)
    assert seeds == [12345]
    for x, y in zip(b1, b3):
        assert np.max(np.abs(x.idempotent - y.idempotent)) < 1e-8


def test_block_count_equals_center_dimension():
    for gg, lam in [
        (split_grading(build_group("S3")), None),
        (split_grading(build_group("Q8")), None),
        (parity_c4(), None),
    ]:
        lam = zero2(gg.even_subgroup)
        alg = TwistedGroupAlgebra(gg, lam)
        assert len(blocks(alg)) == len(alg.center_basis())


def test_crosscap_split_untwisted_is_square_count():
    gg = split_grading(build_group("S3"))
    Q = crosscap_element(gg, zero2(gg))
    G = gg.even_subgroup
    expected = np.zeros(G.order, dtype=complex)
    for g in range(G.order):
        expected[G.table[g][g]] += 1.0
    assert np.max(np.abs(Q - expected)) < 1e-12


def test_crosscap_identity_c2_nontrivial_class():
    gg = identity_c2()
    reps, _ = cohomology_classes(gg, 2)
    nontrivial = [r for r in reps if not r.is_zero()][0]
    Q = crosscap_element(gg, nontrivial)
    assert Q.shape == (1,)
    assert abs(Q[0] + 1.0) < 1e-12  # Q = -l_e


def test_crosscap_c4_parity():
    gg = parity_c4()
    Q = crosscap_element(gg, zero2(gg))
    # both odd elements square to 2, which is even-subgroup index 1
    assert abs(Q[1] - 2.0) < 1e-12 and abs(Q[0]) < 1e-12
    assert Q.tolist() == [0j, 2 + 0j]  # two roots 1, both at index 1


def test_crosscap_element_sums_each_odd_square_in_order():
    """Q[g] is the float sum of root_of_unity(lambda^(s, s)) over the odd s
    with s^2 at g, added in ascending order of s: the same bits."""
    for name in ["D8", "Q8xC2", "C4xC2"]:
        for gg in enumerate_gradings(build_group(name)):
            for lam_hat in cohomology_classes(gg, 2)[0]:
                want = [0j] * gg.even_subgroup.order
                for s in gg.odd_part().tolist():
                    g = int(gg.even_index[gg.group.table[s, s]])
                    want[g] += root_of_unity(int(lam_hat.table[s, s]), lam_hat.N)
                assert crosscap_element(gg, lam_hat).tolist() == want


def test_crosscap_is_central():
    for gg in [split_grading(build_group("S3")), split_grading(build_group("Q8")), parity_c4()]:
        lam_hat = zero2(gg)
        alg = algebra_from_graded(gg, lam_hat)
        Q = crosscap_element(gg, lam_hat)
        assert_central(alg, Q)


def classical_fs_oracle(alg, block_list):
    """Independent route: characters from idempotents, then (1/|G|) sum chi(g^2)."""
    G = alg.group
    n = G.order
    out = []
    for b in block_list:
        chi = {g: n * b.idempotent[G.inverse[g]] / b.dimension for g in range(n)}
        nu = sum(chi[G.table[g][g]] for g in range(n)) / n
        out.append(int(round(float(nu.real))))
    return out


@pytest.mark.parametrize(
    "name,expected_pairs",
    [
        ("C2", [(1, 1), (1, 1)]),
        ("C3", [(1, 1), (1, 0), (1, 0)]),
        ("S3", [(1, 1), (1, 1), (2, 1)]),
        ("Q8", [(1, 1), (1, 1), (1, 1), (1, 1), (2, -1)]),
    ],
)
def test_fs_split_untwisted_matches_classical(name, expected_pairs):
    gg = split_grading(build_group(name))
    lam_hat = zero2(gg)
    alg = algebra_from_graded(gg, lam_hat)
    bl = fs_indicators(blocks(alg), crosscap_element(gg, lam_hat), alg)
    got = sorted((b.dimension, b.indicator) for b in bl)
    assert got == sorted(expected_pairs)
    assert classical_fs_oracle(alg, bl) == [b.indicator for b in bl]


def test_fs_identity_c2_nontrivial_is_minus_one():
    gg = identity_c2()
    reps, _ = cohomology_classes(gg, 2)
    nontrivial = [r for r in reps if not r.is_zero()][0]
    alg = algebra_from_graded(gg, nontrivial)
    bl = fs_indicators(blocks(alg), crosscap_element(gg, nontrivial), alg)
    assert [(b.dimension, b.indicator) for b in bl] == [(1, -1)]


def test_fs_values_always_in_range():
    for name in ["C4", "C2xC2", "D8", "Q8"]:
        for gg in __import__("dwu.groups", fromlist=["enumerate_gradings"]).enumerate_gradings(
            build_group(name)
        ):
            reps, _ = cohomology_classes(gg, 2)
            for lam_hat in reps:
                alg = algebra_from_graded(gg, lam_hat)
                bl = fs_indicators(blocks(alg), crosscap_element(gg, lam_hat), alg)
                assert all(b.indicator in (-1, 0, 1) for b in bl)


def test_duality_phases_untwisted_abelian():
    gg = split_grading(build_group("C2xC2"))
    dp = duality_phases(gg, zero2(gg), gg.odd_part()[0])
    G = gg.even_subgroup
    for g in range(G.order):
        assert dp.p_permutation[g] == G.inverse[g]
        assert dp.p_phases[g] == 0


def test_duality_rejects_even_sigma():
    gg = parity_c4()
    with pytest.raises(ValueError):
        duality_phases(gg, zero2(gg), 2)


def test_p_map_is_antihomomorphism():
    for gg in [parity_c4(), split_grading(build_group("S3")), identity_c2()]:
        reps, _ = cohomology_classes(gg, 2)
        for lam_hat in reps:
            alg = algebra_from_graded(gg, lam_hat)
            for sigma in gg.odd_part():
                dp = duality_phases(gg, lam_hat, sigma)
                n = alg.dim
                for g, h in itertools.product(range(n), repeat=2):
                    x = np.zeros(n, dtype=complex)
                    x[g] = 1.0
                    y = np.zeros(n, dtype=complex)
                    y[h] = 1.0
                    lhs = dp.apply_p(alg.product(x, y))
                    rhs = alg.product(dp.apply_p(y), dp.apply_p(x))
                    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_p_squared_is_conjugation_by_sigma_squared():
    for gg in [parity_c4(), split_grading(build_group("S3"))]:
        reps, _ = cohomology_classes(gg, 2)
        for lam_hat in reps:
            alg = algebra_from_graded(gg, lam_hat)
            for sigma in gg.odd_part():
                dp = duality_phases(gg, lam_hat, sigma)
                n = alg.dim
                s2 = dp.theta_carrier
                ls2 = np.zeros(n, dtype=complex)
                ls2[s2] = 1.0
                # inverse of l_{s2}
                inv_idx = alg.group.inverse[s2]
                ph = alg.phase[s2, inv_idx]
                ls2_inv = np.zeros(n, dtype=complex)
                ls2_inv[inv_idx] = 1.0 / ph
                for g in range(n):
                    x = np.zeros(n, dtype=complex)
                    x[g] = 1.0
                    lhs = dp.apply_p(dp.apply_p(x))
                    rhs = alg.product(alg.product(ls2, x), ls2_inv)
                    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_F_composition_is_cocycle_identity():
    for gg in [parity_c4(), split_grading(build_group("S3"))]:
        reps, _ = cohomology_classes(gg, 2)
        for lam_hat in reps:
            lam = restrict_to_even(lam_hat, gg)
            G = gg.group
            for sigma in gg.odd_part():
                for g1h, g2h in itertools.product(gg.even_part, repeat=2):
                    lhs = (lam_hat.value((g2h, G.table[g1h][sigma])) + lam_hat.value((g1h, sigma))) % 1
                    small = (gg.even_index[g2h], gg.even_index[g1h])
                    rhs = (lam.value(small) + lam_hat.value((G.table[g2h][g1h], sigma))) % 1
                    assert lhs == rhs


def test_real_1d_trivial():
    gg = parity_c4()
    data = real_1d_phases(gg, TwistedCochain.zero(gg, 1))
    assert data.invariants_dimension == 1
    assert not any(data.rep_phases)
    assert data.interval_phase == 0


def all_twisted_1cocycles(gg, N):
    from dwu.cohomology import is_twisted_cocycle

    G = gg.group
    tuples = list(range(1, G.order))
    out = []
    for combo in itertools.product(range(N), repeat=len(tuples)):
        c = TwistedCochain.from_dict(
            gg, 1, {(t,): Fraction(k, N) for t, k in zip(tuples, combo)}
        )
        if is_twisted_cocycle(c):
            out.append(c)
    return out


def test_real_1d_c4_brute_force():
    """Every twisted 1-cocycle on parity-graded C4 restricts trivially to G."""
    gg = parity_c4()
    cocycles = all_twisted_1cocycles(gg, 4)
    assert len(cocycles) == 4  # one free phase on the generator
    for c in cocycles:
        data = real_1d_phases(gg, c)
        assert data.invariants_dimension == 1


def test_real_1d_split_nontrivial_on_G():
    gg = split_grading(cyclic(2))
    found = 0
    for c in all_twisted_1cocycles(gg, 4):
        data = real_1d_phases(gg, c)
        if data.rep_phases[1]:
            found += 1
            assert data.invariants_dimension == 0
    assert found > 0


def test_real_1d_rejects_non_cocycle():
    gg = parity_c4()
    bad = TwistedCochain.from_dict(gg, 1, {(2,): Fraction(1, 4)})
    from dwu.cohomology import is_twisted_cocycle

    if not is_twisted_cocycle(bad):
        with pytest.raises(ValueError):
            real_1d_phases(gg, bad)


def test_fs_residual_guard():
    gg = split_grading(cyclic(2))
    lam_hat = zero2(gg)
    alg = algebra_from_graded(gg, lam_hat)
    bad_Q = crosscap_element(gg, lam_hat) * 1.5  # central but wrong scale
    with pytest.raises(BlockComputationError):
        fs_indicators(blocks(alg), bad_Q, alg)


def svd_center_dimension(alg):
    """Independent center count: null space of all commutator maps."""
    import numpy as np

    n = alg.dim
    rows = []
    for g in range(n):
        L = np.zeros((n, n), dtype=complex)
        R = np.zeros((n, n), dtype=complex)
        for h in range(n):
            L[alg.table[g, h], h] = alg.phase[g, h]
            R[alg.table[h, g], h] = alg.phase[h, g]
        rows.append(L - R)
    M = np.vstack(rows)
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s < 1e-9))


def test_center_dimension_matches_svd_oracle():
    for gg, lam_builder in [
        (split_grading(build_group("S3")), None),
        (split_grading(build_group("Q8")), None),
        (split_grading(build_group("C2xC2")), "twisted"),
    ]:
        if lam_builder == "twisted":
            lam = nontrivial_even_cocycle_c2c2(gg)
        else:
            lam = zero2(gg.even_subgroup)
        alg = TwistedGroupAlgebra(gg, lam)
        assert len(alg.center_basis()) == svd_center_dimension(alg)


def test_fs_split_s4_scales_past_toy_sizes():
    from dwu.groups import GradedGroup, direct_product

    prod = direct_product(build_group("S4"), cyclic(2), cap=48)
    sign = tuple(1 if b % 2 == 0 else -1 for a in range(24) for b in range(2))
    graded = GradedGroup(group=prod, sign=sign)
    lam_hat = zero2(graded)
    alg = algebra_from_graded(graded, lam_hat)
    bl = fs_indicators(blocks(alg), crosscap_element(graded, lam_hat), alg)
    assert sorted((b.dimension, b.indicator) for b in bl) == [
        (1, 1), (1, 1), (2, 1), (3, 1), (3, 1),
    ]

import itertools
from fractions import Fraction

import numpy as np
import pytest
from oracles import FloatAlgebra, duality_phases, float_blocks, float_indicators, real_1d_phases

from dwu.cli import load_manifest
from dwu.cohomology import TwistedCochain, cohomology_classes, restrict_to_even
from dwu.groups import GradedGroup, build_group, cyclic, enumerate_gradings, split_grading
from dwu.phases import prime_root
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
    """(l_a l_b) l_c = l_a (l_b l_c) mod p, phase residues and product alike."""
    for gg, lam in [
        (split_grading(build_group("S3")), zero2(split_grading(build_group("S3")).even_subgroup)),
        (split_grading(build_group("C2xC2")), nontrivial_even_cocycle_c2c2(split_grading(build_group("C2xC2")))),
    ]:
        alg = TwistedGroupAlgebra(gg, lam)
        n, p = alg.dim, alg.p
        for a, b, c in itertools.product(range(n), repeat=3):
            ab, p1 = alg.table[a, b], alg.phase[a, b]
            bc, p2 = alg.table[b, c], alg.phase[b, c]
            k1, q1 = alg.table[ab, c], alg.phase[ab, c]
            k2, q2 = alg.table[a, bc], alg.phase[a, bc]
            assert k1 == k2
            assert p1 * q1 % p == p2 * q2 % p
        basis = np.eye(n, dtype=np.int64)
        left = alg.product(alg.product(basis[:, None, None], basis[None, :, None]), basis[None, None, :])
        right = alg.product(basis[:, None, None], alg.product(basis[None, :, None], basis[None, None, :]))
        assert (left == right).all()


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


@pytest.mark.parametrize("name", ["S3", "Q8", "C4xC2", "D8"])
def test_blocks_are_orthogonal_central_idempotents_summing_to_one(name):
    """Exactly mod p, on every grading and class: e_V e_W = delta_VW e_V, the
    e_V sum to l_e, each is central, and there are as many as the centre has
    dimensions."""
    for gg in enumerate_gradings(build_group(name)):
        for lam_hat in cohomology_classes(gg, 2)[0]:
            alg = algebra_from_graded(gg, lam_hat)
            P = np.array([b.idempotent for b in blocks(alg)])
            assert len(P) == len(alg.center_basis())
            assert (alg.product(P[:, None], P[None, :]) == P[:, None] * np.eye(len(P), dtype=np.int64)[..., None]).all()
            assert (P.sum(axis=0) % alg.p == np.eye(1, alg.dim, dtype=np.int64)[0]).all()
            for e in P:
                assert_central(alg, e)
            assert all((x.idempotent == y.idempotent).all() for x, y in zip(blocks(alg), blocks(alg)))


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
    expected = [0] * G.order
    for g in range(G.order):
        expected[G.table[g][g]] += 1
    assert Q.tolist() == expected


def test_crosscap_identity_c2_nontrivial_class():
    gg = identity_c2()
    reps, _ = cohomology_classes(gg, 2)
    nontrivial = [r for r in reps if not r.is_zero()][0]
    Q = crosscap_element(gg, nontrivial)
    assert Q.tolist() == [algebra_from_graded(gg, nontrivial).p - 1]  # Q = -l_e


def test_crosscap_c4_parity():
    gg = parity_c4()
    Q = crosscap_element(gg, zero2(gg))
    # both odd elements square to 2, which is even-subgroup index 1
    assert Q.tolist() == [0, 2]  # two roots 1, both at index 1


def test_crosscap_element_sums_each_odd_square_in_order():
    """Q[g] is the sum mod p of zeta_N^lambda^(s, s) over the odd s with s^2
    at g, zeta_N the residue w^(M/N) of the algebra's root w of order M."""
    for name in ["D8", "Q8xC2", "C4xC2"]:
        for gg in enumerate_gradings(build_group(name)):
            for lam_hat in cohomology_classes(gg, 2)[0]:
                alg = algebra_from_graded(gg, lam_hat)
                M = next(m for m in range(1, alg.p) if pow(alg.w, m, alg.p) == 1)
                assert M % lam_hat.N == 0 and (alg.p - 1) % M == 0
                want = [0] * gg.even_subgroup.order
                for s in gg.odd_part().tolist():
                    g = int(gg.even_index[gg.group.table[s, s]])
                    want[g] += pow(alg.w, M // lam_hat.N * int(lam_hat.table[s, s]), alg.p)
                assert crosscap_element(gg, lam_hat).tolist() == [x % alg.p for x in want]


def test_crosscap_is_central():
    for gg in [split_grading(build_group("S3")), split_grading(build_group("Q8")), parity_c4()]:
        lam_hat = zero2(gg)
        alg = algebra_from_graded(gg, lam_hat)
        Q = crosscap_element(gg, lam_hat)
        assert_central(alg, Q)


def classical_fs_oracle(gg, lam_hat):
    """Independent route, split untwisted only: characters from the float
    oracle's idempotents, then (1/|G|) sum chi(g^2); sorted (dim, nu) pairs."""
    alg = FloatAlgebra(restrict_to_even(lam_hat, gg))
    G, n = alg.group, alg.dim
    out = []
    for P, d in float_blocks(alg):
        chi = {g: n * P[G.inverse[g]] / d for g in range(n)}
        nu = sum(chi[G.table[g][g]] for g in range(n)) / n
        assert abs(nu - round(nu.real)) < 1e-9
        out.append((d, int(round(nu.real))))
    return sorted(out)


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
    assert classical_fs_oracle(gg, lam_hat) == got


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
            alg = FloatAlgebra(restrict_to_even(lam_hat, gg))
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
            alg = FloatAlgebra(restrict_to_even(lam_hat, gg))
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


def test_a_crosscap_scaled_by_3_is_refused_naming_the_block():
    """3 Q is central, but 3 nu dim is not -dim, 0 or dim mod p (p > 6 dim
    here), so the first block with nu != 0 is named."""
    gg = split_grading(build_group("S3"))
    lam_hat = zero2(gg)
    alg = algebra_from_graded(gg, lam_hat)
    assert alg.p > 6 * 2
    with pytest.raises(BlockComputationError, match=r"^block 0 \(dim 1\): nu \* dim = 3 mod \d+ is not -1, 0 or 1$"):
        fs_indicators(blocks(alg), crosscap_element(gg, lam_hat) * 3 % alg.p, alg)


def svd_center_dimension(alg):
    """Independent center count: null space of all commutator maps, over
    the float oracle's complex phases."""
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
        assert len(alg.center_basis()) == svd_center_dimension(FloatAlgebra(lam))


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


def manifest_cases():
    for name in load_manifest()["groups"]:
        for gi, gg in enumerate(enumerate_gradings(build_group(name))):
            for ci, lam_hat in enumerate(cohomology_classes(gg, 2)[0]):
                yield f"{name}/{gi}/{ci}", gg, lam_hat


def test_exact_blocks_equal_the_float_oracle_on_the_manifest():
    """On all 268 manifest cases the exact (dim, fingerprint, nu), sorted, is
    the float route's: eigenvectors of a random combination, rounded."""
    count = 0
    for key, gg, lam_hat in manifest_cases():
        alg = algebra_from_graded(gg, lam_hat)
        bl = fs_indicators(blocks(alg), crosscap_element(gg, lam_hat), alg)
        got = sorted((b.dimension, b.fingerprint(), b.indicator) for b in bl)
        assert got == float_indicators(gg, lam_hat), key
        count += 1
    assert count == 268


@pytest.mark.parametrize("name", ["D8", "Q8xC2", "C4xC4", "D16"])
def test_the_lift_counts_each_eigenvalue_of_l_g(name):
    """Over C, l_g^E = zeta_N^c on every block, so l_g's eigenvalues are the
    E-th roots of zeta_N^c; the lift's multiplicities are integers in [0, d]
    summing to d, and they give back chi_V(l_g) mod p."""
    for gg in enumerate_gradings(build_group(name)):
        for lam_hat in cohomology_classes(gg, 2)[0]:
            alg = algebra_from_graded(gg, lam_hat)
            at, fourier, roots = alg._lift_tables
            E, p, n, N = roots.shape[1], alg.p, alg.dim, alg.N
            G, lam = alg.group, alg.exponents
            for b in blocks(alg):
                d = b.dimension
                counts = (b.idempotent[at][:, None, :] @ fourier)[:, 0, :] % p * n * pow(d * E, -1, p) % p
                assert counts.max() <= d and (counts.sum(axis=1) == d).all()
                for g in range(n):
                    powers, h, s = [], 0, 0  # l_g^j = zeta_N^s l_h
                    for _ in range(E):
                        powers.append((h, s))
                        h, s = int(G.table[h, g]), s + int(lam[h, g])
                    assert h == 0
                    eps = [s % N + N * k for k in range(E)]  # the w^eps are the E-th roots of zeta_N^s
                    assert np.allclose(roots[g], np.exp(-2j * np.pi * np.array(eps) / (E * N)))
                    for j, (h, s) in enumerate(powers):  # sum_k m_k eps_k^j = chi_V(l_g^j)
                        chi = n * pow(d, -1, p) * alg.zeta[(s + lam[h, G.inverse[h]]) % N] * b.idempotent[G.inverse[h]] % p
                        assert sum(int(m) * pow(alg.w, j * e, p) for m, e in zip(counts[g], eps)) % p == chi

def test_the_blocks_int64_sums_stay_below_2_to_the_63():
    """Every int64 sum in dwu.reptheory adds at most |G| products of two
    residues mod p: a row of a matrix product over the even part, or the
    E <= |G| terms of the lift.  p is the least prime = 1 mod exp(G) N above
    2|G|, and prime_root keeps it below 2^21, so each sum is below
    |G| p^2 < p^3 / 2 < 2^62.  Checked on the manifest's algebras and on the
    largest root order a cocycle file admits under the default caps:
    exp(G) = 16, N = 2236, |G| = 16."""
    for key, gg, lam_hat in manifest_cases():
        alg = algebra_from_graded(gg, lam_hat)
        assert 2 * alg.dim < alg.p < 2**21 and alg.dim * (alg.p - 1) ** 2 < 2**63, key
    p, _ = prime_root(16 * 2236, 2 * 16)
    assert 2 * 16 < p < 2**21 and 16 * (p - 1) ** 2 < 2**62

import itertools

import pytest
from oracles import bundle_groupoid, circle_groupoid, conj, crosscap_groupoid, is_valid_holonomy, one_loop_groupoid

from dwu.groups import GradedGroup, ResourceBudgetError, build_group, cyclic, split_grading
from dwu.moduli import (
    KLEIN,
    RP2,
    SPHERE,
    TORUS,
    holonomy_points,
    parse_surface,
    word_value,
)


def parity_c4():
    return GradedGroup(group=cyclic(4), sign=(1, -1, 1, -1))


def test_surface_parsing_and_euler():
    assert parse_surface("S2") == SPHERE and SPHERE.euler_characteristic == 2
    assert parse_surface("T2") == TORUS and TORUS.euler_characteristic == 0
    assert parse_surface("RP2") == RP2 and RP2.euler_characteristic == 1
    assert parse_surface("K") == KLEIN and KLEIN.euler_characteristic == 0
    assert parse_surface("Sigma_g=2").euler_characteristic == -2
    assert parse_surface("N_k=3").euler_characteristic == -1
    with pytest.raises(ValueError):
        parse_surface("mobius")


def test_orientation_characters():
    assert TORUS.generator_characters() == (1, 1)
    assert KLEIN.generator_characters() == (1, -1)
    assert parse_surface("N_k=3").generator_characters() == (-1, -1, -1)
    assert parse_surface("Sigma_g=2").generator_characters() == (1,) * 4


def test_torus_carrier_is_commuting_pairs():
    gg = split_grading(build_group("S3"))
    pts = holonomy_points(TORUS, gg)
    G = gg.group
    expected = {
        (a, b)
        for a in gg.even_part
        for b in gg.even_part
        if G.table[a][b] == G.table[b][a]
    }
    assert set(pts) == expected


def test_rp2_carrier_is_odd_involutions():
    for gg in [split_grading(build_group("S3")), parity_c4()]:
        pts = holonomy_points(RP2, gg)
        G = gg.group
        expected = {(s,) for s in gg.odd_part() if G.table[s][s] == 0}
        assert set(pts) == expected
    assert holonomy_points(RP2, parity_c4()) == []  # no odd square roots of e in C4


def test_klein_carrier_matches_paper_model():
    gg = split_grading(build_group("S3"))
    pts = holonomy_points(KLEIN, gg)
    G = gg.group
    expected = {
        (g, s)
        for g in gg.even_part
        for s in gg.odd_part()
        if conj(G, s, G.inverse[g]) == g
    }
    assert set(pts) == expected


def test_holonomy_validity_rechecked():
    gg = split_grading(cyclic(2))
    for pt in holonomy_points(KLEIN, gg):
        assert is_valid_holonomy(KLEIN, gg, pt)
    assert not is_valid_holonomy(KLEIN, gg, (1, 0))  # odd in even slot


def test_sphere_single_point():
    gg = split_grading(build_group("S3"))
    assert holonomy_points(SPHERE, gg) == [()]
    gpd = bundle_groupoid(SPHERE, gg)
    assert gpd.components() == [((), 1, 6)]


def test_split_forgetful_bijection_nonorientable():
    """For split structures, forgetting the C2 factor is an action-compatible
    bijection onto ordinary G-holonomies."""
    G = build_group("S3")
    gg = split_grading(G)
    for surf in [RP2, KLEIN, parse_surface("N_k=3")]:
        pts = holonomy_points(surf, gg)
        # hat element a*2+b <-> (a, b); forgetting keeps a
        mapped = {tuple(g // 2 for g in pt) for pt in pts}
        chars = surf.generator_characters()
        word = surf.relator()
        expected = {
            tup
            for tup in itertools.product(range(G.order), repeat=len(chars))
            if word_value(G, word, tup) == 0
        }
        assert mapped == expected
        assert len(mapped) == len(pts)


def test_hom_count_equals_cardinality():
    from fractions import Fraction

    gg = split_grading(build_group("S3"))
    for surf in [TORUS, RP2, KLEIN]:
        gpd = bundle_groupoid(surf, gg)
        pts = holonomy_points(surf, gg)
        # orbit-stabilizer: sum of 1/|stab| = |carrier|/|G|
        assert gpd.cardinality() == Fraction(len(pts), len(gg.even_part))


def test_crosscap_groupoid():
    gg2 = split_grading(cyclic(1))  # hat = C2
    gpd, t = crosscap_groupoid(gg2)
    assert gpd.carrier == (1,)
    assert t[1] == 0

    gg4 = parity_c4()
    gpd, t = crosscap_groupoid(gg4)
    assert set(gpd.carrier) == {1, 3}
    assert t[1] == 2 and t[3] == 2

    ggq = split_grading(build_group("Q8"))
    gpd, t = crosscap_groupoid(ggq)
    assert len(gpd.carrier) == 8
    q8 = build_group("Q8")
    for s in gpd.carrier:
        q = s // 2
        assert t[s] == 2 * q8.table[q][q]  # (q^2, e) as a hat index


def test_circle_groupoid_is_conjugation():
    gg = split_grading(build_group("S3"))
    gpd = circle_groupoid(gg)
    assert len(gpd.components()) == 3


def test_one_loop_groupoid():
    gg = split_grading(cyclic(1))
    gpd = one_loop_groupoid(gg)
    assert len(gpd.carrier) == 2  # w = +/-

    gg22 = split_grading(cyclic(2))
    gpd = one_loop_groupoid(gg22)
    assert len(gpd.carrier) == 8
    comps = gpd.components()
    assert len(comps) == 8 and all(stab == 2 for _, _, stab in comps)

    # carrier equals the double reflective loop carrier
    from dwu.groupoids import double_real_loop

    for gg in [split_grading(build_group("S3")), parity_c4()]:
        assert set(one_loop_groupoid(gg).carrier) == set(double_real_loop(gg).carrier)


def test_budget_enforced():
    gg = split_grading(build_group("S3"))
    with pytest.raises(ResourceBudgetError):
        holonomy_points(parse_surface("Sigma_g=2"), gg, budget=10)
    with pytest.raises(ResourceBudgetError):
        holonomy_points(TORUS, gg, budget=0)


def test_all_enumerated_points_satisfy_constraints():
    gg = split_grading(build_group("S3"))
    for surf in [TORUS, RP2, KLEIN, parse_surface("N_k=3"), parse_surface("Sigma_g=2")]:
        for pt in holonomy_points(surf, gg):
            assert is_valid_holonomy(surf, gg, pt)

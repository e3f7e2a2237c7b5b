from fractions import Fraction

import pytest
from oracles import conj, conjugacy_classes, conjugation_groupoid, loop_groupoid, point_mod_group

from dwu.groupoids import ActionGroupoid, double_real_loop
from dwu.groups import GradedGroup, build_group, cyclic, split_grading, symmetric


def test_action_law_enforced():
    G = cyclic(2)
    bad = {(0, "a"): "a", (1, "a"): "b", (0, "b"): "b", (1, "b"): "a"}
    ActionGroupoid(carrier=("a", "b"), acting_group=G, action=bad)  # a valid swap
    worse = dict(bad)
    worse[(1, "b")] = "b"
    with pytest.raises(ValueError):
        ActionGroupoid(carrier=("a", "b"), acting_group=G, action=worse)


def test_components_trivial_action():
    G = symmetric(3)
    gpd = point_mod_group(G)
    assert gpd.components() == [("pt", 1, 6)]


def test_components_conjugation_s3():
    G = symmetric(3)
    gpd = conjugation_groupoid(G)
    comps = gpd.components()
    assert sorted(stab for _, _, stab in comps) == [2, 3, 6]
    assert sum(size for _, size, _ in comps) == 6


def test_components_free_action():
    G = cyclic(4)
    gpd = ActionGroupoid.build(range(4), G, lambda h, x: G.table[h][x], label="G//G-left")
    assert gpd.components() == [(0, 4, 1)]


def test_integrate_class_equation():
    # f = 1 on G//G by conjugation integrates to the number of classes weighted
    for G, expected in [(cyclic(2), Fraction(1)), (symmetric(3), Fraction(1))]:
        gpd = conjugation_groupoid(G)
        val = gpd.integrate(lambda x: 1.0)
        assert abs(val - float(expected)) < 1e-12


def test_integrate_one_point():
    gpd = point_mod_group(symmetric(3))
    assert abs(gpd.integrate(lambda x: 1.0) - 1 / 6) < 1e-15


def test_integrate_rejects_noninvariant():
    G = symmetric(3)
    gpd = conjugation_groupoid(G)
    with pytest.raises(ValueError):
        gpd.integrate(lambda g: float(g))


def test_orbit_stabilizer_consistency():
    G = build_group("D8")
    gpd = conjugation_groupoid(G)
    # integrate(1) = sum over orbits 1/|stab| = sum over points 1/|H| grouped
    total_by_points = Fraction(0)
    for _, size, stab in gpd.components():
        total_by_points += Fraction(size, G.order)
        assert size * stab == G.order
    assert float(total_by_points) == pytest.approx(gpd.integrate(lambda x: 1.0))


def test_loop_of_point_is_conjugation():
    G = symmetric(3)
    lp = loop_groupoid(point_mod_group(G))
    assert sorted(h for _, h in lp.carrier) == list(range(6))
    # components match conjugacy classes
    assert len(lp.components()) == len(conjugacy_classes(G))


def test_double_loop_is_commuting_pairs():
    for G in [cyclic(4), symmetric(3), build_group("Q8")]:
        lp2 = loop_groupoid(loop_groupoid(point_mod_group(G)))
        pairs = {(h, k) for ((_, h), k) in lp2.carrier}
        direct = {
            (h, k)
            for h in range(G.order)
            for k in range(G.order)
            if G.table[h][k] == G.table[k][h]
        }
        assert pairs == direct


def test_loop_of_free_action():
    G = cyclic(4)
    free = ActionGroupoid.build(range(4), G, lambda h, x: G.table[h][x])
    lp = loop_groupoid(free)
    assert all(h == 0 for _, h in lp.carrier)


def test_double_real_loop_split_c2c2():
    gg = split_grading(cyclic(2))
    gpd = double_real_loop(gg)
    assert len(gpd.carrier) == 8  # all (g, w): abelian and g^2 = e
    comps = gpd.components()
    assert all(stab == 4 for _, _, stab in comps)


def test_double_real_loop_trivial_even():
    gg = split_grading(cyclic(1))
    gpd = double_real_loop(gg)
    assert len(gpd.carrier) == 2


def test_double_real_loop_c4_parity():
    gg = GradedGroup(group=cyclic(4), sign=(1, -1, 1, -1))
    gpd = double_real_loop(gg)
    brute = {
        (g, w)
        for g in (0, 2)
        for w in range(4)
        if gg.group.table[gg.group.table[w][(g if w % 2 == 0 else (4 - g) % 4)]][gg.group.inverse[w]] == g
    }
    assert set(gpd.carrier) == brute


def test_even_loops_match_loop_groupoid():
    for gg in [split_grading(symmetric(3)), GradedGroup(group=cyclic(4), sign=(1, -1, 1, -1))]:
        gpd = double_real_loop(gg)
        even_subset = {(g, w) for (g, w) in gpd.carrier if gg.sign[w] == 1}
        # loop groupoid of even conjugation on even part, in hat coordinates
        sub = gg.even_subgroup
        expected = set()
        for gi, g in enumerate(gg.even_part):
            for hi, h in enumerate(gg.even_part):
                if conj(sub, hi, gi) == gi:
                    expected.add((g, h))
        assert even_subset == expected

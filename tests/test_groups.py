import itertools
import random

import pytest
from oracles import odd_square_roots

from dwu.groups import (
    FiniteGroup,
    GradedGroup,
    GroupAxiomError,
    ResourceBudgetError,
    build_group,
    cyclic,
    dihedral,
    enumerate_gradings,
    quaternion8,
    real_conjugate,
    split_grading,
    symmetric,
    verify_group_axioms,
)

CATALOG = ["C1", "C2", "C3", "C4", "C6", "C8", "C2xC2", "C4xC2", "D8", "Q8", "S3", "S4", "D12"]


def parity_graded_cyclic(n: int) -> GradedGroup:
    assert n % 2 == 0
    return GradedGroup(group=cyclic(n), sign=tuple(1 if g % 2 == 0 else -1 for g in range(n)))


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_groups_pass_axioms(name):
    g = build_group(name)
    verify_group_axioms(g.table)  # does not raise
    assert g.table[0] == tuple(range(g.order))


@pytest.mark.parametrize("name", ["C4", "D8", "Q8", "S3"])
def test_corrupted_table_fails(name):
    g = build_group(name)
    rng = random.Random(7)
    for _ in range(10):
        t = [list(r) for r in g.table]
        i, j = rng.randrange(g.order), rng.randrange(g.order)
        t[i][j] = (t[i][j] + 1 + rng.randrange(g.order - 1)) % g.order
        if t == [list(r) for r in g.table]:
            continue
        with pytest.raises(GroupAxiomError):
            verify_group_axioms(tuple(tuple(r) for r in t))


def test_build_group_examples():
    assert build_group("C1").order == 1
    c4 = build_group("C4")
    assert c4.order == 4 and c4.inverse[1] == 3
    q8 = quaternion8()
    assert q8.order == 8 and len(q8.center()) == 2


def test_symmetric_and_dihedral():
    assert symmetric(3).order == 6
    assert symmetric(4).order == 24
    assert dihedral(8).order == 8
    assert len(symmetric(3).conjugacy_classes()) == 3
    assert sorted(len(c) for c in symmetric(3).conjugacy_classes()) == [1, 2, 3]


def test_order_cap():
    with pytest.raises(ResourceBudgetError):
        build_group("C64")
    build_group("C64", cap=64)


def test_group_json_roundtrip():
    g = build_group("D8")
    g2 = FiniteGroup.from_json(g.to_json())
    assert g2.table == g.table and g2.name == "D8"


def brute_force_index2_subgroups(G: FiniteGroup) -> int:
    n = G.order
    if n % 2:
        return 0
    count = 0
    rest = [g for g in range(1, n)]
    for subset in itertools.combinations(rest, n // 2 - 1):
        H = {0, *subset}
        if all(G.table[a][b] in H for a in H for b in H):
            count += 1
    return count


@pytest.mark.parametrize(
    "name",
    ["C2", "C3", "C4", "C6", "C2xC2", "D8", "Q8", "S3", "C4xC2", "C8", "Q8xC2", "D16"],
)
def test_grading_count_matches_subgroup_enumeration(name):
    g = build_group(name)
    gradings = enumerate_gradings(g)
    assert len(gradings) == brute_force_index2_subgroups(g)
    # deterministic lexicographic order and valid even parts
    vecs = [gg.sign for gg in gradings]
    assert vecs == sorted(vecs)
    for gg in gradings:
        assert len(gg.even_part) == g.order // 2
        assert gg.even_part == tuple(x for x in range(g.order) if gg.sign[x] == 1)


def test_grading_examples():
    assert enumerate_gradings(build_group("C3")) == []
    assert len(enumerate_gradings(build_group("C4"))) == 1
    assert enumerate_gradings(build_group("C4"))[0].even_part == (0, 2)
    assert len(enumerate_gradings(build_group("C2xC2"))) == 3


def test_real_conjugate():
    gg = parity_graded_cyclic(4)
    assert real_conjugate(gg, 0, 2) == 2
    assert real_conjugate(gg, 1, 2) == 2  # 1 * 2^{-1} * 1^{-1} = 2 in C4
    with pytest.raises(ValueError):
        real_conjugate(gg, 0, 1)  # odd g rejected
    # abelian with odd h inverts
    gg2 = split_grading(cyclic(3))
    g = gg2.even_part[1]
    odd = gg2.odd_part()[0]
    assert real_conjugate(gg2, odd, g) == gg2.group.inverse[g]


def test_real_conjugate_graded_action_law():
    for gg in [parity_graded_cyclic(4), split_grading(symmetric(3))] + enumerate_gradings(dihedral(8)):
        G = gg.group
        for h1, h2 in itertools.product(range(G.order), repeat=2):
            for g in gg.even_part:
                lhs = real_conjugate(gg, h2, real_conjugate(gg, h1, g))
                rhs = real_conjugate(gg, G.table[h2][h1], g)
                assert lhs == rhs


def test_odd_square_roots():
    gg = split_grading(cyclic(1))  # \hat G = C2, trivial even part
    assert odd_square_roots(gg, 0) == {1}
    gg4 = parity_graded_cyclic(4)
    assert odd_square_roots(gg4, 2) == {1, 3}
    assert odd_square_roots(gg4, 0) == set()
    gg22 = split_grading(cyclic(2))
    nontrivial_even = gg22.even_part[1]
    assert odd_square_roots(gg22, nontrivial_even) == set()
    assert odd_square_roots(gg22, 1) == set()  # odd g has no square roots


def test_split_grading_is_split():
    assert split_grading(symmetric(3)).is_split()
    assert not parity_graded_cyclic(4).is_split()


def test_grading_json():
    gg = parity_graded_cyclic(4)
    import json

    data = json.loads(gg.to_json())
    assert data["sign"] == [1, -1, 1, -1]

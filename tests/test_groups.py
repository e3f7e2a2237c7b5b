import itertools
import random

import numpy as np
import pytest
from oracles import flat_sections as bfs_flat_sections
from oracles import catalog_table, center, conj, conjugacy_classes, odd_square_roots, real_conjugate
from oracles import verify_group_axioms as loop_verify_group_axioms

import dwu.groups
from dwu.cli import load_manifest
from dwu.groups import (
    FiniteGroup,
    GradedGroup,
    GroupAxiomError,
    ResourceBudgetError,
    build_group,
    cyclic,
    dihedral,
    enumerate_gradings,
    flat_sections,
    quaternion8,
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
    assert g.table[0].tolist() == list(range(g.order))


def axiom_fault(check, table):
    """(axiom, witness, message) of the fault check reports, or None."""
    try:
        check(table)
    except GroupAxiomError as exc:
        return exc.axiom, exc.witness, str(exc)
    return None


# a Latin square with identity in which every element is its own inverse; no
# group of order 5 is, so it is not associative
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def faulty_tables(rng):
    """Seeded catalog tables, as nested lists, each with one fault of every
    kind; then tables with two faults whose order matters, and the loop
    above relabelled by permutations fixing 0."""
    for name in ["C4", "C6", "D8", "Q8", "S3", "C2xC2", "D10", "C3xS3"]:
        t = build_group(name).table.tolist()
        n = len(t)
        for _ in range(3):
            i, j, k = rng.sample(range(1, n), 3)
            ragged = [row[:] for row in t]
            row = ragged[rng.randrange(n)]
            if rng.random() < 0.5:
                row.append(0)
            else:
                row.pop()
            outside = [row[:] for row in t]
            outside[rng.randrange(n)][rng.randrange(n)] = rng.choice([-1, n, n + 7])
            identity = [row[:] for row in t]
            identity[i], identity[k] = identity[k], identity[i]
            cancellation = [row[:] for row in t]
            cancellation[i][j] = cancellation[i][k]
            no_inverse = [row[:] for row in t]
            no_inverse[i][no_inverse[i].index(0)] = max(no_inverse[i][j], no_inverse[i][k])  # not 0
            entry = [row[:] for row in t]
            entry[i][j] = (entry[i][j] + rng.randrange(1, n)) % n
            yield from (ragged, outside, identity, cancellation, no_inverse, entry)
    yield [[0, 1, 5], [1, 0], [2, 2, 2]]  # closure in row 0 comes before shape in row 1
    yield [[0, 1, 2, 3], [1, -1, 3, 0], [2, 3, 0, 1], [3, 0, 1]]  # closure in row 1, shape in row 3
    yield [[0, 1, 2], [1, 2], [2, 0, 9]]  # shape in row 1 comes before closure in row 2
    for _ in range(6):
        pi = [0, *rng.sample(range(1, 5), 4)]
        relabelled = [[0] * 5 for _ in range(5)]
        for a, b in itertools.product(range(5), repeat=2):
            relabelled[pi[a]][pi[b]] = pi[LOOP5[a][b]]
        yield relabelled


@pytest.mark.parametrize("slab", [dwu.groups.SLAB, 8])
def test_the_axiom_check_reports_the_fault_the_loop_check_reports(slab, monkeypatch):
    """The array check against the scalar one: the same axiom, witness and
    message on every faulty table, the associativity check in slabs of one
    a when SLAB is small, and no fault on the catalog groups."""
    monkeypatch.setattr(dwu.groups, "SLAB", slab)
    axioms = set()
    for table in faulty_tables(random.Random(29)):
        fault = axiom_fault(loop_verify_group_axioms, table)
        assert fault is not None
        assert axiom_fault(verify_group_axioms, table) == fault, table
        axioms.add(fault[0])
    assert axioms == {"shape", "closure", "identity", "cancellation", "associativity"}
    for name in CATALOG:
        assert axiom_fault(verify_group_axioms, build_group(name).table) is None


@pytest.mark.parametrize(
    "name", sorted({*load_manifest()["groups"], "C3xS3", "C6xC3", "D18", "C10xC2", "S4", "C2xC2xC2xC2xC2"})
)
def test_array_catalog_tables_equal_the_loop_builders(name):
    g = build_group(name)
    assert g.table.dtype == np.int64 and not g.table.flags.writeable
    assert g.table.tolist() == catalog_table(name)


def test_group_data_are_read_only_arrays_compared_by_identity():
    gg = split_grading(symmetric(3))
    G = gg.group
    for a in (G.table, G.inverse, G.conjugation, gg.sign, gg.even_part, gg.even_index, gg.odd_part()):
        assert a.dtype == np.int64 and not a.flags.writeable
    assert gg.odd_part() is gg.odd_part()
    assert gg.even_index[gg.even_part].tolist() == list(range(gg.even_subgroup.order))
    assert gg.even_index[gg.odd_part()].tolist() == [-1] * len(gg.odd_part())
    assert G != build_group("S3xC2") and gg != GradedGroup(group=G, sign=gg.sign) and gg == gg


@pytest.mark.parametrize(
    "sign, message",
    [
        ((1, -1), r"^sign needs 4 entries, one per element of C4; got shape \(2,\)$"),
        ((1, -1) * 3, r"^sign needs 4 entries, one per element of C4; got shape \(6,\)$"),
        ((1, 2, 1, -1), r"^sign entries must be \+1 or -1, got 2 at element 1$"),
        ((1, -1, 0, -1), r"^sign entries must be \+1 or -1, got 0 at element 2$"),
    ],
)
def test_a_malformed_sign_vector_names_its_fault(sign, message):
    with pytest.raises(ValueError, match=message):
        GradedGroup(group=cyclic(4), sign=sign)


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
    assert q8.order == 8 and len(center(q8)) == 2


def test_quaternion8_is_the_group_of_the_unit_matrices():
    """Q8's table is the product table of 1, i = diag(i, -i), j = [[0, 1], [-1, 0]],
    k = ij and their negatives, in the order (1, i, j, k, -1, -i, -j, -k)."""
    one, i, j = np.eye(2), np.diag([1j, -1j]), np.array([[0, 1], [-1, 0]])
    units = [one, i, j, i @ j]
    mats = [*units, *(-u for u in units)]

    def index(m):
        return next(x for x, a in enumerate(mats) if np.allclose(a, m))

    assert quaternion8().table.tolist() == [[index(a @ b) for b in mats] for a in mats]


def test_symmetric_and_dihedral():
    assert symmetric(3).order == 6
    assert symmetric(4).order == 24
    assert dihedral(8).order == 8
    assert len(conjugacy_classes(symmetric(3))) == 3
    assert sorted(len(c) for c in conjugacy_classes(symmetric(3))) == [1, 2, 3]


def test_order_cap():
    with pytest.raises(ResourceBudgetError):
        build_group("C64")
    build_group("C64", cap=64)


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
    ["C2", "C3", "C4", "C6", "C2xC2", "D8", "Q8", "S3", "C4xC2", "C8", "Q8xC2", "D16", "C2xC2xC2xC2", "C4xC4"],
)
def test_grading_count_matches_subgroup_enumeration(name):
    g = build_group(name)
    gradings = enumerate_gradings(g)
    assert len(gradings) == brute_force_index2_subgroups(g)
    # deterministic lexicographic order and valid even parts
    vecs = [gg.sign.tolist() for gg in gradings]
    assert vecs == sorted(vecs)
    for gg in gradings:
        assert len(gg.even_part) == g.order // 2
        assert gg.even_part.tolist() == [x for x in range(g.order) if gg.sign[x] == 1]


def test_grading_examples():
    assert enumerate_gradings(build_group("C3")) == []
    assert len(enumerate_gradings(build_group("C4"))) == 1
    assert enumerate_gradings(build_group("C4"))[0].even_part.tolist() == [0, 2]
    assert len(enumerate_gradings(build_group("C2xC2"))) == 3


@pytest.mark.parametrize("name", ["C4", "C2xC2", "S3", "D8", "Q8"])
def test_sign_that_is_not_a_homomorphism_names_its_first_failing_pair(name):
    """A sign vector that is not a homomorphism is refused, with the first
    failing (a, b) in row-major order as the witness; the scalar loop over all
    pairs is the oracle."""
    g = build_group(name)
    rng = random.Random(len(name))
    refused = 0
    for _ in range(20):
        sign = (1, *(rng.choice((1, -1)) for _ in range(g.order - 1)))
        pairs = itertools.product(range(g.order), repeat=2)
        witness = next(((a, b) for a, b in pairs if sign[g.table[a][b]] != sign[a] * sign[b]), None)
        if witness is None:
            continue
        refused += 1
        with pytest.raises(ValueError, match=rf"^sign is not a homomorphism at \({witness[0]}, {witness[1]}\)$"):
            GradedGroup(group=g, sign=sign)
    assert refused >= 5


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


def manifest_gradings():
    return [gg for name in load_manifest()["groups"] for gg in enumerate_gradings(build_group(name))]


def test_conjugation_tables_match_the_scalar_conjugations():
    """conjugation[h, g] = h g h^-1 and real_conjugation[w, i] = w g_i^{sign w} w^-1
    entry by entry on every manifest grading and its even part, both read-only."""
    for gg in manifest_gradings():
        for G in (gg.group, gg.even_subgroup):
            assert G.conjugation.tolist() == [[conj(G, h, g) for g in range(G.order)] for h in range(G.order)]
            assert not G.conjugation.flags.writeable
        expected = [[real_conjugate(gg, w, g) for g in gg.even_part] for w in range(gg.order)]
        assert gg.real_conjugation.tolist() == expected
        assert not gg.real_conjugation.flags.writeable
        with pytest.raises(ValueError):
            gg.real_conjugation[0, 0] = 1


def assert_flat_sections_match_the_walk(G, phase, L):
    """The closed form against the breadth-first transport walk, and the
    sections it returns, converted to the walk's (representative, {g: exponent})
    per section; returns them."""
    step = phase.tolist()
    section, exponent = flat_sections(G, phase, L)
    by_section = {}
    for g, (i, e) in enumerate(zip(section.tolist(), exponent.tolist())):
        if i >= 0:
            by_section.setdefault(i, {})[g] = e
    assert sorted(by_section) == list(range(len(by_section)))
    found = [(min(values), values) for _, values in sorted(by_section.items())]
    assert found == bfs_flat_sections(G, 0, lambda k, g, e: (e + step[k][g]) % L)
    return found


def test_flat_sections_match_the_transport_walk():
    """On the even part of every manifest grading: the phase tables of the
    orbifold and of the centre for every cohomology class, tables
    transgressed from a random function on the group (every class flat),
    the same with one edge moved, and random tables."""
    from dwu.cohomology import cohomology_classes, restrict_to_even
    from dwu.tqft import turaev_from_cocycle

    rng = np.random.default_rng(20261019)
    flat = broken = 0
    for gg in manifest_gradings():
        G = gg.even_subgroup
        conj, n = G.conjugation, G.order
        reps, _ = cohomology_classes(gg, 2)
        for lam in reps:
            T = turaev_from_cocycle(gg, lam)
            assert_flat_sections_match_the_walk(G, T.action[list(gg.even_part)], T.L)
            t = restrict_to_even(lam, gg).table
            assert_flat_sections_match_the_walk(G, t - t[conj, np.arange(n)[:, None]], lam.N)
        for L in (1, 2, 6):
            e = rng.integers(L, size=n)
            phase = e[conj] - e + L * rng.integers(-2, 3, size=(n, n))
            found = assert_flat_sections_match_the_walk(G, phase, L)
            assert len(found) == len(conjugacy_classes(G))
            flat += len(found)
            k, g = rng.integers(n, size=2)
            phase[k, g] += 1
            moved = assert_flat_sections_match_the_walk(G, phase, L)
            broken += len(found) - len(moved)
            assert_flat_sections_match_the_walk(G, rng.integers(-L, 2 * L, size=(n, n)), L)
    assert flat > 500 and broken > 50


def test_flat_sections_see_an_edge_away_from_the_representative():
    """One inconsistent edge k: g -> k g k^-1 with neither end the class
    representative removes that class, and only that class."""
    G = build_group("S3")
    conj, n = G.conjugation, G.order
    rep, g = 1, 2  # the class {1, 2, 5} of the transpositions
    assert conjugacy_classes(G) == [(0,), (1, 2, 5), (3, 4)]
    k = next(k for k in range(n) if conj[k, g] not in (rep, g))
    phase = np.zeros((n, n), np.int64)
    assert [r for r, _ in assert_flat_sections_match_the_walk(G, phase, 2)] == [0, 1, 3]
    phase[k, g] = 1
    assert [r for r, _ in assert_flat_sections_match_the_walk(G, phase, 2)] == [0, 3]

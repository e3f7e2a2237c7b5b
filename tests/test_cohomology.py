import collections
import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from oracles import pullback_split, random_cochain

from dwu.cli import load_manifest
from dwu.cohomology import (
    TwistedCochain,
    _bar_faces,
    _cocycle_equations,
    cochain_from_json,
    cochain_to_json,
    cohomology_classes,
    differential_matrix,
    is_twisted_coboundary,
    is_twisted_cocycle,
    restrict_to_even,
    twisted_differential,
)
from dwu.groups import GradedGroup, build_group, cyclic, enumerate_gradings, split_grading
from dwu.intlinalg import SparseRows, _reduce_transposed, kernel_mod


def parity_c4():
    return GradedGroup(group=cyclic(4), sign=(1, -1, 1, -1))


def identity_c2():
    return GradedGroup(group=cyclic(2), sign=(1, -1))


def nontrivial_c2c2_cocycle():
    """lambda((a1,b1),(a2,b2)) = a1*b2/2 on C2xC2 (indices a*2+b)."""
    G = build_group("C2xC2")
    vals = {}
    for g, h in itertools.product(range(4), repeat=2):
        a1, b2 = g // 2, h % 2
        if g and h:
            vals[(g, h)] = Fraction(a1 * b2, 2)
    return TwistedCochain.from_dict(G, 2, vals)


def test_zero_cochain_differential():
    gg = parity_c4()
    z = TwistedCochain.zero(gg, 1)
    assert twisted_differential(z).is_zero()
    assert is_twisted_cocycle(z)


def test_point_cochain_differential():
    gg = identity_c2()
    c = TwistedCochain.from_dict(gg, 0, {(): Fraction(1, 8)})
    dc = twisted_differential(c)
    assert dc.value((1,)) == Fraction(-2, 8) % 1  # -2q on the odd element
    assert dc.value((0,)) == 0


@pytest.mark.parametrize(
    "gg",
    [identity_c2(), parity_c4()] + enumerate_gradings(build_group("D8")),
    ids=lambda g: f"{g.group.name}-{''.join('+' if s == 1 else '-' for s in g.sign)}",
)
def test_d_squared_zero_exhaustive_units(gg):
    # d is linear, so vanishing on unit 1-cochains proves d.d = 0 into degree 3
    G = gg.group
    for tup in itertools.product(range(1, G.order), repeat=1):
        unit = TwistedCochain.from_dict(gg, 1, {tup: Fraction(1, 8)})
        assert twisted_differential(twisted_differential(unit)).is_zero()


@pytest.mark.parametrize(
    "gg", [split_grading(build_group("S3")), split_grading(build_group("Q8"))]
)
def test_d_squared_zero_randomized_order_up_to_16(gg):
    rng = random.Random(0)
    for _ in range(3):
        c = random_cochain(gg, 1, gg.group.order, rng)
        dd = twisted_differential(twisted_differential(c))
        assert dd.is_zero()


def test_coboundary_of_random_is_detected():
    rng = random.Random(1)
    for gg in [parity_c4(), split_grading(cyclic(2))]:
        nu = random_cochain(gg, 1, gg.group.order, rng)
        c = twisted_differential(nu)
        w = is_twisted_coboundary(c)
        assert w is not None
        assert (twisted_differential(w) - c).is_zero()


def test_zero_is_coboundary_with_zero_witness():
    gg = parity_c4()
    w = is_twisted_coboundary(TwistedCochain.zero(gg, 2))
    assert w is not None and twisted_differential(w).is_zero()


def exhaustive_coboundary_search(c, N):
    """Oracle: try every nu with denominator dividing N (tiny groups only)."""
    G = c.group
    tuples = list(itertools.product(range(1, G.order), repeat=c.degree - 1))
    for combo in itertools.product(range(N), repeat=len(tuples)):
        nu = TwistedCochain.from_dict(
            (c.group, c.signs),
            c.degree - 1,
            {t: Fraction(k, N) for t, k in zip(tuples, combo)},
        )
        if (twisted_differential(nu) - c).is_zero():
            return nu
    return None


def test_nontrivial_cocycle_on_c2c2():
    lam = nontrivial_c2c2_cocycle()
    assert is_twisted_cocycle(lam)
    assert is_twisted_coboundary(lam, denominator=4) is None
    assert exhaustive_coboundary_search(lam, 4) is None


def tiny_cochains():
    """Every 2-cochain with denominator 4 on C2, untwisted and twisted, and
    cochains with denominator 2 on C4 graded by parity, one a coboundary."""
    for gg in (cyclic(2), identity_c2()):
        for k in range(4):
            yield TwistedCochain.from_dict(gg, 2, {(1, 1): Fraction(k, 4)})
    rng = random.Random(5)
    yield from (random_cochain(parity_c4(), 2, 2, rng) for _ in range(2))
    yield twisted_differential(random_cochain(parity_c4(), 1, 2, rng))


def test_solver_matches_exhaustive_oracle():
    """Every denominator up to N*|G| finds a witness exactly when the
    exhaustive search does, and the default finds one when any of them does.
    On untwisted C2, c(1,1) = 1/2 is d(nu) for nu(1) = 1/4 only: denominator
    4 = N*|G|, past lcm(N, |G|) = 2."""
    for c in tiny_cochains():
        found = []
        for denominator in range(1, c.N * c.group.order + 1):
            fast = is_twisted_coboundary(c, denominator=denominator)
            assert (fast is None) == (exhaustive_coboundary_search(c, denominator) is None)
            found.append(fast is not None)
        assert (is_twisted_coboundary(c) is not None) == any(found)


@pytest.mark.parametrize("name, grading, coboundaries", [("Q8", 2, 2), ("C2xC2xC2", 3, 8)])
def test_restrictions_to_the_even_subgroup_that_are_coboundaries(name, grading, coboundaries):
    """Q8 graded by C4 restricts to C4, where H^2(C4; U(1)) = 0, so both
    classes restrict to coboundaries; the N = 8 class needs denominator
    8 * 4, past lcm(8, 4).  C2xC2xC2 grading 3 restricts to C2xC2, where
    H^2 = Z/2, so 8 of its 16 classes do."""
    gg = enumerate_gradings(build_group(name))[grading]
    reps, _ = cohomology_classes(gg, 2)
    witnesses = [is_twisted_coboundary(restrict_to_even(r, gg)) for r in reps]
    assert sum(w is not None for w in witnesses) == coboundaries


def test_h2_untwisted_c2_is_trivial():
    reps, factors = cohomology_classes(cyclic(2), 2)
    assert factors == []
    assert len(reps) == 1 and reps[0].is_zero()


def test_h2_twisted_c2_identity_grading_has_order_two():
    reps, factors = cohomology_classes(identity_c2(), 2)
    assert factors == [2]
    assert len(reps) == 2
    nontrivial = [r for r in reps if not r.is_zero()]
    assert len(nontrivial) == 1
    assert nontrivial[0].value((1, 1)) == Fraction(1, 2)


def test_h2_untwisted_c2c2_has_order_two():
    reps, factors = cohomology_classes(build_group("C2xC2"), 2)
    assert factors == [2]
    assert len(reps) == 2


def test_h2_untwisted_q8_trivial():
    reps, factors = cohomology_classes(build_group("Q8"), 2)
    assert factors == []
    assert len(reps) == 1


def test_h1_untwisted_is_character_group():
    reps, factors = cohomology_classes(cyclic(4), 1)
    assert factors == [4]
    assert len(reps) == 4
    reps, factors = cohomology_classes(build_group("C2xC2"), 1)
    assert factors == [2, 2]
    assert len(reps) == 4


def test_h1_twisted_c2_identity_grading_trivial():
    reps, factors = cohomology_classes(identity_c2(), 1)
    assert factors == []


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        cohomology_classes(cyclic(2), 3)


def test_representatives_are_cocycles_and_distinct():
    for ref in [parity_c4(), identity_c2(), build_group("C2xC2"), split_grading(cyclic(2))]:
        reps, _ = cohomology_classes(ref, 2)
        for r in reps:
            assert is_twisted_cocycle(r)
        for a, b in itertools.combinations(reps, 2):
            assert is_twisted_coboundary(a - b) is None


def test_restrict_to_even():
    gg = parity_c4()
    reps, _ = cohomology_classes(gg, 2)
    for r in reps:
        small = restrict_to_even(r, gg)
        assert small.group.order == 2
        assert is_twisted_cocycle(small)
    z = TwistedCochain.zero(gg, 2)
    assert restrict_to_even(z, gg).is_zero()


def test_restriction_commutes_with_differential():
    rng = random.Random(2)
    gg = parity_c4()
    c = random_cochain(gg, 1, 4, rng)
    lhs = restrict_to_even(twisted_differential(c), gg)
    rhs = twisted_differential(restrict_to_even(c, gg))
    assert (lhs - rhs).is_zero()


def test_pullback_then_restrict_is_identity():
    G = cyclic(2)
    lam = TwistedCochain.from_dict(G, 2, {(1, 1): Fraction(1, 2)})
    gg = split_grading(G)
    lifted = pullback_split(lam, gg)
    assert is_twisted_cocycle(lifted)
    back = restrict_to_even(lifted, gg)
    assert (back - lam).is_zero()


def test_kernel_generators_are_cocycles():
    gg = split_grading(build_group("S3"))
    D = differential_matrix(gg.group, gg.sign, 2)
    K = kernel_mod(D, gg.group.order)
    for row in K:
        assert not (D @ row % gg.group.order).any()


def test_h2_of_s4_peaks_below_2_mib():
    """H^2 reads the degree-2 differential as four faces per row (the dense
    12167x529 int64 matrix alone would take 49 MiB), builds only the leading
    rows, stores only the pivot rows its kernel returns, keeps its 529-row
    coefficient pool and every pivot step in int16 and bounds every gather by
    BLOCK entries, the back substitution's too.  The peak stays below 2 MiB
    (1.47 MiB on numpy 2.4; 1.77 with a uint8 pool and int64 steps, 3.45 with
    an int64 pool and one gather of all left halves)."""
    gg = enumerate_gradings(build_group("S4"))[0]
    tracemalloc.start()
    try:
        cohomology_classes(gg, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_cochain_json_roundtrip():
    gg = parity_c4()
    reps, _ = cohomology_classes(gg, 2)
    for r in reps:
        text = cochain_to_json(r)
        back = cochain_from_json(text, gg)
        assert (back - r).is_zero()


@pytest.mark.parametrize("name", [name for name in load_manifest()["groups"] if build_group(name).order <= 8])
def test_cochain_json_values_are_read_mod_one(name):
    """A value k + N * 2^70 in a cochain file is the phase k/N: the file's
    fractions are reduced mod 1 before any of them meets int64."""
    for gg in enumerate_gradings(build_group(name)):
        for r in cohomology_classes(gg, 2)[0]:
            data = json.loads(cochain_to_json(r))
            data["values"] = {key: k + r.N * 2**70 for key, k in data["values"].items()}
            back = cochain_from_json(json.dumps(data), gg)
            assert back.N == r.N and np.array_equal(back.table, r.table)


def test_denominators_past_int64_sums_rejected():
    TwistedCochain.from_dict(cyclic(4), 1, {(1,): Fraction(1, 2**31 - 1)})
    for N in (2**31, 2**64):
        with pytest.raises((ValueError, OverflowError)):
            TwistedCochain.from_dict(cyclic(4), 1, {(1,): Fraction(1, N)})


def test_a_float_value_is_a_value_error_naming_its_key():
    """A float has no denominator to read mod 1; it is refused by its key,
    as is any other value that is no int or Fraction."""
    for value in (0.5, 1.0, "1/2"):
        with pytest.raises(ValueError, match=r"on \(1,\) is not an int or a Fraction"):
            TwistedCochain.from_dict(cyclic(4), 1, {(2,): Fraction(1, 2), (1,): value})
    assert TwistedCochain.from_dict(cyclic(4), 1, {(1,): np.int64(3)}).N == 1


def test_mismatched_bases_rejected():
    a = TwistedCochain.zero(parity_c4(), 2)
    b = TwistedCochain.zero(identity_c2(), 2)
    with pytest.raises(ValueError):
        _ = a + b


def scalar_bar_differential(c):
    """Oracle: (dc)(w0..wn) exponents mod c.N, one tuple and one face at a time."""
    G, n, N = c.group, c.degree, c.N
    out = np.zeros((G.order,) * (n + 1), dtype=np.int64)
    for w in itertools.product(range(G.order), repeat=n + 1):
        acc = c.signs[w[0]] * int(c.table[w[1:]])
        for j in range(1, n + 1):
            merged = w[: j - 1] + (G.table[w[j - 1]][w[j]],) + w[j + 1 :]
            acc += (-1) ** j * int(c.table[merged])
        acc += (-1) ** (n + 1) * int(c.table[w[:-1]])
        out[w] = acc % N
    return out


ORACLE_BASES = [
    build_group("C2xC2"),
    build_group("S3"),
    identity_c2(),
    parity_c4(),
    split_grading(build_group("S3")),
    *enumerate_gradings(build_group("D8")),
    build_group("Q8xC2"),
    enumerate_gradings(build_group("Q8xC2"))[0],
]


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize(
    "ref",
    ORACLE_BASES,
    ids=lambda r: (
        f"{r.group.name}{''.join('+' if s == 1 else '-' for s in r.sign)}"
        if isinstance(r, GradedGroup)
        else r.name
    ),
)
def test_differential_matches_scalar_bar_formula(ref, degree):
    rng = random.Random(degree)
    group, signs = (ref.group, ref.sign) if isinstance(ref, GradedGroup) else (ref, np.ones(ref.order, np.int64))
    for denominator in (group.order, 2 * group.order):
        c = random_cochain(ref, degree, denominator, rng)
        expected = scalar_bar_differential(c)
        dc = twisted_differential(c)
        assert c.N % dc.N == 0
        assert np.array_equal(dc.table * (c.N // dc.N), expected)
        D = differential_matrix(group, signs, degree)
        nonidentity = expected[(slice(1, None),) * (degree + 1)].ravel()
        assert np.array_equal(D @ c.vector() % c.N, nonidentity)


def leading_elements(group):
    """Oracle: the x != 1 such that no a != 1 before x has a*x or a^-1*x before x."""
    t, inv = group.table, group.inverse
    return {
        x
        for x in range(1, group.order)
        if not any(t[a][x] < x or t[inv[a]][x] < x for a in range(1, x))
    }


def leading_equations(gg, degree):
    """The bar faces of gg in degree, the rows whose first element
    _cocycle_equations gives, and the mask of those rows."""
    faces, n = _bar_faces(gg.group, gg.sign, degree), gg.group.order
    keep = np.repeat(np.isin(np.arange(1, n), _cocycle_equations(gg.group)), (n - 1) ** degree)
    return faces, SparseRows(faces.idx[keep], faces.coef[keep], faces.cols), keep


def every_grading(names):
    for name in names:
        for i, gg in enumerate(enumerate_gradings(build_group(name))):
            yield pytest.param(gg, id=f"{name}-g{i}")


LARGER = ["S4", "D24", "C3xS3", "C6xC3", "D18", "C10xC2"]


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("gg", every_grading([*load_manifest()["groups"], *LARGER]))
def test_leading_equations_have_the_kernel_of_all_equations(gg, degree):
    faces, kept, keep = leading_equations(gg, degree)
    assert keep.sum() < len(keep) or gg.group.order == 2
    N = gg.group.order
    assert np.array_equal(kernel_mod(kept, N), kernel_mod(faces, N))


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("gg", every_grading(load_manifest()["groups"]))
def test_faces_built_for_the_leading_elements_are_the_kept_rows(gg, degree):
    """cohomology_classes builds only the leading rows; they are the rows of
    the full table, entry for entry and in order."""
    _, kept, _ = leading_equations(gg, degree)
    built = _bar_faces(gg.group, gg.sign, degree, _cocycle_equations(gg.group))
    assert built.cols == kept.cols
    assert np.array_equal(built.idx, kept.idx) and np.array_equal(built.coef, kept.coef)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize(
    "gg",
    [
        *every_grading(load_manifest()["groups"]),
        *(pytest.param(enumerate_gradings(build_group(name))[0], id=f"{name}-g0") for name in LARGER),
    ],
)
def test_leading_equations_take_the_same_pivot_steps(gg, degree):
    """The Howell form of [A^T | I] over the leading rows of A is the form over
    all rows, with each pivot column of A mapped through the kept-row index.
    Kept row i of A is row rows[i] of all of A, so the pivot values agree too."""
    faces, kept, keep = leading_equations(gg, degree)
    T, pivots, _ = _reduce_transposed(faces, gg.group.order)
    T_kept, pivots_kept, _ = _reduce_transposed(kept, gg.group.order)
    assert np.array_equal(T_kept, T)
    rows, shift = np.flatnonzero(keep), len(keep) - int(keep.sum())
    assert [int(rows[p]) if p < len(rows) else p + shift for p in pivots_kept] == pivots


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("gg", every_grading(["C4", "D8", "S3xC2", "Q8"]))
def test_each_dropped_equation_is_a_combination_of_earlier_ones(gg, degree):
    """d(d c) = 0 at (a, b, w..), with b = x or ab = x for an a before x,
    writes the row of (x, w..) as +-1 times rows with first element a, ab or b."""
    G, s = gg.group, gg.sign
    D = differential_matrix(G, s, degree)
    tuples = list(itertools.product(range(1, G.order), repeat=degree + 1))
    row = dict(zip(tuples, D))  # a tuple containing the identity has the zero row
    leading = leading_elements(G)
    assert _cocycle_equations(G).tolist() == sorted(leading)
    keep = np.array([w[0] in leading for w in tuples])
    for w in itertools.compress(tuples, ~keep):
        x = w[0]
        a = next(a for a in range(1, x) if G.table[a][x] < x or G.table[G.inverse[a]][x] < x)
        u = (a, x if G.table[a][x] < x else G.table[G.inverse[a]][x], *w[1:])
        inner = [u[: j - 1] + (G.table[u[j - 1]][u[j]],) + u[j + 1 :] for j in range(1, degree + 2)]
        terms = [(s[a], u[1:]), *(((-1) ** j, t) for j, t in enumerate(inner, 1))]
        terms.append(((-1) ** (degree + 2), u[:-1]))
        (e,) = [c for c, t in terms if t == w]
        others = [(c, t) for c, t in terms if t != w]
        assert all(0 in t or t[0] < x for _, t in others)
        combination = sum(c * row[t] for c, t in others if t in row)
        assert np.array_equal(row[w], -e * combination)


def test_cocycle_check_on_the_leading_rows_agrees_with_the_full_differential():
    """is_twisted_cocycle reads only the leading rows of d.  In degrees 1 and
    2 of the manifest groups of order at most 12, its verdict is that of all
    rows on every class representative, the representative plus a coboundary,
    the representative with one entry moved, a random cochain, and the kernel
    generators of the rows of the first leading element alone (which a check
    of fewer rows would take for cocycles)."""
    rng = random.Random(7)
    verdicts = []
    for name in ["C2", "C4", "C2xC2", "C6", "C8", "C4xC2", "C2xC2xC2", "D8", "Q8", "D10", "D12"]:
        for gg, degree in itertools.product(enumerate_gradings(build_group(name)), (1, 2)):
            G, N = gg.group, gg.group.order
            first_rows = _bar_faces(G, gg.sign, degree, _cocycle_equations(G)[:1])
            cochains = [TwistedCochain.from_vector(gg, degree, z, N) for z in kernel_mod(first_rows, N)]
            for rep in cohomology_classes(gg, degree)[0]:
                coboundary = twisted_differential(random_cochain(gg, degree - 1, N, rng))
                bump = {tuple(rng.randrange(1, N) for _ in range(degree)): Fraction(1, N)}
                cochains += [rep, rep + coboundary, rep + TwistedCochain.from_dict(gg, degree, bump)]
                cochains.append(random_cochain(gg, degree, N, rng))
            verdicts += [(is_twisted_cocycle(c), twisted_differential(c).is_zero()) for c in cochains]
    assert all(leading == full for leading, full in verdicts)
    counts = collections.Counter(full for _, full in verdicts)
    assert counts[True] > 400 and counts[False] > 400  # 560 and 961 of 1521


@pytest.mark.parametrize("grading, degree, row", [(0, 2, 0), (2, 1, 7)])
def test_dropping_a_leading_equation_changes_the_kernel(grading, degree, row):
    """Not every leading row of S3xC2 is implied by the other ones, so the
    kernel test above can fail.  (Mod |G| many are: on C4 and D8 every single
    leading row can be dropped.)"""
    gg = enumerate_gradings(build_group("S3xC2"))[grading]
    faces, kept, _ = leading_equations(gg, degree)
    fewer = np.arange(len(kept.idx)) != row
    K = kernel_mod(SparseRows(kept.idx[fewer], kept.coef[fewer], kept.cols), 12)
    assert not np.array_equal(K, kernel_mod(faces, 12))

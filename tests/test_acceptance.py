"""Acceptance suite: every criterion at its stated tolerance.

One shared sweep over the bundled manifest (all groups of order <= 16, every
grading, every degree-2 class representative) feeds the criteria that quantify
over "the full sweep"; each test prints a single PASS line on success.
"""

import json
import random
import time
from fractions import Fraction
from importlib import resources

import pytest
from oracles import random_cochain

from dwu.cohomology import TwistedCochain, cohomology_classes, twisted_differential
from dwu.groups import GradedGroup, build_group, cyclic, enumerate_gradings, split_grading
from dwu.moduli import RP2, SPHERE, TORUS, parse_surface
from dwu.phases import CycField
from dwu.reptheory import algebra_from_graded, blocks, crosscap_element, fs_indicators
from dwu.tqft import (
    ConventionError,
    check_turaev_axioms,
    check_unoriented_frobenius,
    consistency_report,
    orbifold,
    turaev_from_cocycle,
)

SWEEP_SURFACES = [
    parse_surface(s) for s in ["T2", "Sigma_g=2", "RP2", "K", "N_k=3", "N_k=4"]
]


def manifest_groups():
    text = resources.files("dwu").joinpath("sweep_manifest.json").read_text()
    return json.loads(text)["groups"]


def identity_row(rep, surface):
    """The report row of one identity or surface."""
    return next(row for row in rep["rows"] if row.surface == surface)


@pytest.fixture(scope="module")
def sweep():
    """(name, grading index, class index, GradedGroup, cocycle, report) tuples."""
    t0 = time.perf_counter()
    rows = []
    for name in manifest_groups():
        g = build_group(name)
        if g.order > 16:
            continue
        for gi, gg in enumerate(enumerate_gradings(g)):
            reps, _ = cohomology_classes(gg, 2)
            for ci, lam in enumerate(reps):
                rep = consistency_report(gg, lam, SWEEP_SURFACES)
                rows.append((name, gi, ci, gg, lam, rep))
    elapsed = time.perf_counter() - t0
    assert rows, "sweep is empty"
    return {"rows": rows, "elapsed": elapsed}


def test_criterion_1_mednykh_counts():
    t0 = time.perf_counter()
    expected = {
        "C2": (Fraction(2), Fraction(1)),
        "C3": (Fraction(3), Fraction(1, 3)),
        "S3": (Fraction(3), Fraction(2, 3)),
    }
    from dwu.tqft import partition_direct

    for name, (torus_count, rp2_count) in expected.items():
        gg = split_grading(build_group(name))
        lam = TwistedCochain.zero(gg, 2)
        zt = partition_direct(gg, lam, TORUS)
        zr = partition_direct(gg, lam, RP2)
        assert zt == zt.field.from_rational(torus_count), name  # tolerance 0
        assert zr == zr.field.from_rational(rp2_count), name
        # oracle: brute-force hom counts
        G = gg.even_subgroup
        commuting = sum(
            1
            for a in range(G.order)
            for b in range(G.order)
            if G.table[a][b] == G.table[b][a]
        )
        assert zt == zt.field.from_rational(Fraction(commuting, G.order))
        sqrts = sum(1 for a in range(G.order) if G.table[a][a] == 0)
        assert zr == zr.field.from_rational(Fraction(sqrts, G.order))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"\nACCEPT-1 Mednykh counts (exact, {elapsed * 1000:.0f} ms): PASS")


def test_criterion_2_twisted_frobenius_schur(sweep):
    compared = 0
    for name, gi, ci, _, _, rep in sweep["rows"]:
        for row in rep["rows"]:
            if row.verlinde is not None:
                assert row.direct == row.direct.field.from_rational(row.verlinde), (name, gi, ci, row.surface)
                compared += 1
    assert sweep["elapsed"] < 300, f"sweep took {sweep['elapsed']:.0f}s"
    print(
        f"\nACCEPT-2 twisted Frobenius-Schur direct = verlinde exactly "
        f"({compared} rows, sweep {sweep['elapsed']:.0f}s): PASS"
    )


def test_criterion_3_route_equivalence_cut_and_paste(sweep):
    worst = 0.0
    for name, gi, ci, _, _, rep in sweep["rows"]:
        for row in rep["rows"][: len(SWEEP_SURFACES)]:
            direct, tqft, _ = row.as_complex
            delta = abs(direct - tqft)
            worst = max(worst, delta)
            assert delta < 1e-12, (name, gi, ci, row.surface, delta)
            assert row.direct == row.tqft, (name, gi, ci, row.surface)
    print(
        f"\nACCEPT-3 cut-and-paste route |direct-tqft| < 1e-12 "
        f"(worst {worst:.2e}, all bit-exact): PASS"
    )


def test_criterion_4_kr_rank_identity(sweep):
    worst = 0.0
    for name, gi, ci, _, _, rep in sweep["rows"]:
        loop, kr, _ = identity_row(rep, "one-loop-identity").as_complex
        delta = abs(kr - loop)
        worst = max(worst, delta)
        assert delta < 1e-6, (name, gi, ci, delta)
    # split C2 x C2 over C2, untwisted: both exactly 2
    from dwu.tqft import kr_rank, one_loop

    gg = split_grading(cyclic(2))
    lam = TwistedCochain.zero(gg, 2)
    kr = kr_rank(gg, lam)
    ol = one_loop(gg, lam)
    assert kr == ol == kr.field.from_rational(2)
    print(f"\nACCEPT-4 KR-rank = one-loop (worst {worst:.2e}; split C2xC2/C2 = 2): PASS")


def test_criterion_5_indicators(sweep):
    for name, gi, ci, _, _, rep in sweep["rows"]:
        for _, nu in rep["blocks"]:
            assert nu in (-1, 0, 1), (name, gi, ci)
    # classical values for split untwisted structures, via the character oracle
    expected = {
        "C2": [(1, 1), (1, 1)],
        "C3": [(1, 1), (1, 0), (1, 0)],
        "Q8": [(1, 1), (1, 1), (1, 1), (1, 1), (2, -1)],
        "S3": [(1, 1), (1, 1), (2, 1)],
    }
    for name, pairs in expected.items():
        gg = split_grading(build_group(name))
        lam = TwistedCochain.zero(gg, 2)
        alg = algebra_from_graded(gg, lam)
        bl = fs_indicators(blocks(alg), crosscap_element(gg, lam), alg)
        assert sorted((b.dimension, b.indicator) for b in bl) == sorted(pairs), name
        # independent oracle: (1/|G|) sum chi(g^2) from idempotent characters
        G = alg.group
        for b in bl:
            chi = {
                g: G.order * b.idempotent[G.inverse[g]] / b.dimension
                for g in range(G.order)
            }
            nu = sum(chi[G.table[g][g]] for g in range(G.order)) / G.order
            assert abs(nu - b.indicator) < 1e-6
    print("\nACCEPT-5 indicators in {-1,0,+1}; classical values match oracle: PASS")


def random_mutations(gg, rng):
    """Criterion 6's 50 mutations of one class, as (kind, key, phase or None)."""
    sub = gg.even_subgroup
    odd = gg.odd_part()
    # Pool of detectable mutation classes.  Diagonal product phases
    # l_g l_g with g != e are excluded: such a shift can be an honest
    # 2-coboundary (e.g. any phase on a Z2 even part), i.e. a different
    # but still valid algebra.
    for _ in range(50):
        kind = rng.choice(["product", "action", "crosscap", "zero"])
        if kind == "product":
            while True:
                key = (rng.randrange(sub.order), rng.randrange(sub.order))
                if key[0] != key[1] or key[0] == 0:
                    break
            phase = Fraction(1, rng.choice([2, 3, 4]))
        elif kind == "action":
            key = (rng.randrange(gg.group.order), rng.randrange(sub.order))
            phase = Fraction(1, rng.choice([2, 3, 4]))
        elif kind == "crosscap":
            key = rng.choice(odd)
            phase = Fraction(1, rng.choice([3, 4]))
        else:
            kind = rng.choice(["product", "action", "crosscap"])
            if kind == "product":
                key = (rng.randrange(sub.order), rng.randrange(sub.order))
            elif kind == "action":
                key = (rng.randrange(gg.group.order), rng.randrange(sub.order))
            else:
                key = rng.choice(odd)
            phase = None
        yield kind, key, phase


def test_criterion_6_axiom_suites_and_mutations(sweep):
    rng = random.Random(20250810)
    checked = mutations = 0
    for name, gi, ci, gg, lam, rep in sweep["rows"]:
        assert rep["axioms_ok"], (name, gi, ci)
        T = turaev_from_cocycle(gg, lam)  # raises unless all ten conditions pass
        checked += 1
        for kind, key, phase in random_mutations(gg, rng):
            mutated = T.with_mutation(kind, key, phase)
            assert not check_turaev_axioms(mutated).ok, (
                name, gi, ci, kind, key, phase,
            )
            mutations += 1
    print(
        f"\nACCEPT-6 axiom suites pass on {checked} algebras; "
        f"{mutations} mutations all fail: PASS"
    )


def test_frobenius_check_at_the_roots_equals_the_integer_check(sweep):
    """The check decided at the primitive roots of unity returns the integer
    check's report (names, verdicts and witnesses) on the orbifold of every
    sweep class, and on the orbifold of every criterion-6 mutation that has
    one in the class's own field: a phase mutation (a zeroed constant is no
    root) whose phase lies in Q(zeta_L) and whose sections stay flat.  (The
    mutations that lift L to 3L or 4L take the integer check 0.05-0.3 s each
    on the order-16 groups, over 3 minutes together.)"""
    from oracles import check_unoriented_frobenius as integer_check

    rng = random.Random(20250810)
    mutated = 0
    for name, gi, ci, gg, lam, _ in sweep["rows"]:
        T = turaev_from_cocycle(gg, lam)
        algebras = [orbifold(T)]
        for kind, key, phase in random_mutations(gg, rng):
            if phase is not None and T.L % phase.denominator == 0:
                try:
                    algebras.append(orbifold(T.with_mutation(kind, key, phase)))
                except ConventionError:  # no flat crosscap or involution
                    continue
        for F in algebras:
            assert check_unoriented_frobenius(F) == integer_check(F), (name, gi, ci)
        mutated += len(algebras) - 1
    assert mutated > 1000
    print(f"\nFrobenius check at the roots = integer check on {len(sweep['rows'])} classes and {mutated} mutations: PASS")


def test_criterion_7_cohomology_invariance(sweep):
    from dwu.tqft import partition_direct

    rng = random.Random(777)
    rows = sweep["rows"]
    shifts = 0
    while shifts < 100:
        name, gi, ci, gg, lam, _ = rows[rng.randrange(len(rows))]
        N = gg.group.order
        field = CycField(N)
        nu = random_cochain(gg, 1, N, rng)
        shifted = lam + twisted_differential(nu)
        surface = SWEEP_SURFACES[rng.randrange(len(SWEEP_SURFACES))]
        a = partition_direct(gg, lam, surface, field=field)
        b = partition_direct(gg, shifted, surface, field=field)
        assert a == b, (name, gi, ci, surface.name)  # bit-identical exact values
        shifts += 1
    print("\nACCEPT-7 100 coboundary shifts leave partition values bit-identical: PASS")


def test_criterion_8_rp2_nonsplit_vanishing():
    from dwu.tqft import partition_direct

    gg = GradedGroup(group=cyclic(4), sign=(1, -1, 1, -1))
    for lam in cohomology_classes(gg, 2)[0]:
        z = partition_direct(gg, lam, RP2)
        assert z.is_zero()  # exact zero
    print("\nACCEPT-8 Z(RP2) = 0 exactly for parity-graded C4: PASS")


def test_criterion_9_crosscap_trace_identity(sweep):
    worst = 0.0
    for name, gi, ci, _, _, rep in sweep["rows"]:
        rp2_direct, crosscap_trace, _ = identity_row(rep, "crosscap-trace").as_complex
        delta = abs(crosscap_trace - rp2_direct)
        worst = max(worst, delta)
        assert delta < 1e-12, (name, gi, ci, delta)
    print(f"\nACCEPT-9 counit(Q) = Z(RP2) to 1e-12 (worst {worst:.2e}): PASS")


REFERENCE_SURFACES = [SPHERE, *SWEEP_SURFACES]
LARGE_SURFACES = [
    parse_surface(s)
    for s in ["Sigma_g=3", "Sigma_g=5", "Sigma_g=8", "N_k=5", "N_k=8", "N_k=16"]
]


def test_direct_walk_equals_the_reference_sums(sweep):
    """The relator walk equals the brute-force holonomy sum and its orbit form,
    and the KR root count equals the action-groupoid integral, exactly on
    every manifest class."""
    from dwu.tqft import kr_rank, partition_direct
    from oracles import enumeration_sum, kr_groupoid_integrals, orbit_sum

    for name, gi, ci, gg, lam, _ in sweep["rows"]:
        field = CycField(lam.N)
        for surface in REFERENCE_SURFACES:
            walk = partition_direct(gg, lam, surface, field=field)
            case = (name, gi, ci, surface.name)
            assert walk == enumeration_sum(gg, lam, surface, field), case
            assert walk == orbit_sum(gg, lam, surface, field), case
        assert kr_rank(gg, lam, field) == kr_groupoid_integrals(gg, lam, field)[0], (name, gi, ci)


def test_direct_walk_equals_cut_and_paste_past_the_sweep_surfaces(sweep):
    from dwu.tqft import orbifold, partition_direct, partition_tqft

    for name, gi, ci, gg, lam, _ in sweep["rows"]:
        F = orbifold(turaev_from_cocycle(gg, lam))
        for surface in LARGE_SURFACES:
            direct = partition_direct(gg, lam, surface, field=F.field)
            assert direct == partition_tqft(F, surface), (name, gi, ci, surface.name)

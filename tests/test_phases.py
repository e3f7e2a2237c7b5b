import cmath
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from sympy import isprime, primefactors

from dwu.groups import ResourceBudgetError
from dwu.phases import CycField, cyclotomic_polynomial, prime_root, residues


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 6, 8, 12])
def test_cyc_roots_match_complex(L):
    F = CycField(L)
    for k in range(L):
        z = F.root(k, L)
        assert abs(z.to_complex() - cmath.exp(2j * cmath.pi * k / L)) < 1e-12


def test_cyc_root_of_a_divisor_order():
    F = CycField(12)
    assert F.root(1, 4) == F.root(3, 12) and F.root(-2, 6) == F.root(8, 12)
    assert F.root(3, 9) == F.root(4, 12)  # zeta_9^3 = zeta_3
    with pytest.raises(ValueError):
        F.root(1, 8)


def test_cyc_sum_of_all_roots_is_zero():
    for L in (2, 3, 4, 6, 8):
        F = CycField(L)
        acc = F.zero
        for k in range(L):
            acc = acc + F.root(k, L)
        assert acc.is_zero()


def test_cyc_field_inverse():
    F = CycField(8)
    for k in range(8):
        assert F.root(k, 8) * F.root(-k, 8) == F.one
        # the orbifold dual scale (|G|/|C|) zeta^-k inverts (|C|/|G|) zeta^k
        assert F.root(k, 8).scale(Fraction(3, 8)) * F.root(-k, 8).scale(Fraction(8, 3)) == F.one


def test_cyc_arithmetic_exact():
    F = CycField(4)
    i = F.root(1, 4)
    assert i * i == F.from_rational(-1)
    assert (i * i * i * i) == F.one
    # (1+i)(1-i) = 2
    one = F.one
    assert (one + i) * (one - i) == F.from_rational(2)


@pytest.mark.parametrize("L", range(1, 31))
def test_reduction_matches_sympy_rem(L):
    """Reduced coefficients are rem(sum c_k x^k, Phi_L) over the denominator,
    and equality coincides with equal hashes plus equal reduced forms."""
    from sympy import Poly, cyclotomic_poly, rem, symbols

    x = symbols("x")
    F = CycField(L)
    rng = random.Random(L)
    for _ in range(5):
        counts = [rng.randint(-50, 50) for _ in range(L)]
        den = rng.randint(1, 12)
        a = F.from_counts(counts, den)
        r = Poly(rem(sum(c * x**k for k, c in enumerate(counts)), cyclotomic_poly(L, x), x), x)
        num, d = a.reduced()
        assert [Fraction(c, d) for c in num] == [
            Fraction(int(r.coeff_monomial(x**i)), den) for i in range(F.degree)
        ]
        k = rng.randint(2, 9)
        others = [
            F.from_counts([k * c for c in counts], k * den),  # a.d' = b.d, other denominator
            a + F.root(rng.randrange(L), L),  # another value
        ]
        if L > 1:  # the L-th roots of unity sum to zero: other counts, the same value
            others.append(F.from_counts([c + 1 for c in counts], den))
        for b in others:
            assert (a == b) == (hash(a) == hash(b) and a.reduced() == b.reduced())
        assert others[0] == a and others[1] != a
        assert all(b == a for b in others[2:])


@pytest.mark.parametrize("L", [1, 2, 3, 4, 6, 8, 12, 16, 30, 64, 211, 16 * 2236])
def test_prime_root_is_the_first_root_of_order_L_mod_the_chosen_prime(L):
    """Without a floor p is the largest prime = 1 mod L below 2^21 (the one
    residues uses); with one it is the least above the floor.  w is the first
    x^((p-1)/L), x = 2, 3, ..., of order exactly L."""
    for floor in (None, 2, 33, 1000):
        p, w = prime_root(L, floor)
        span = range(p + L, 2**21, L) if floor is None else range(floor + 1, p)
        assert isprime(p) and (p - 1) % L == 0 and p < 2**21 and (floor is None or p > floor)
        assert not any(isprime(q) and (q - 1) % L == 0 for q in span)
        orders = (pow(x, (p - 1) // L, p) for x in itertools.count(2))
        assert w == next(y for y in orders if all(pow(y, L // q, p) != 1 for q in primefactors(L)))
        assert pow(w, L, p) == 1
    if L <= 211:
        assert residues(L)[:2] == prime_root(L)


@pytest.mark.parametrize("L, floor", [(2**21, None), (2**20, None), (2**20, 40), (3 * 2**18, 2**20)])
def test_no_prime_root_is_refused_before_anything_is_allocated(L, floor):
    """No prime p = 1 mod L lies below 2^21, nor between the floor and 2^21:
    the only candidates are 2^20 + 1 = 17 * 61681 and, above 2^20 for
    L = 3 * 2^18, 2 L + 1 = 5 * 314573.  prime_root raises
    ResourceBudgetError having allocated under 64 KiB, where the L powers of a
    root alone would take 8 L bytes."""
    assert 2**20 + 1 == 17 * 61681 and 2 * 3 * 2**18 + 1 == 5 * 314573
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError, match=f"no prime p = 1 mod {L} lies "):
            prime_root(L, floor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16

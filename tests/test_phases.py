import cmath
import random
from fractions import Fraction

import pytest

from dwu.phases import CycField, cyclotomic_polynomial


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

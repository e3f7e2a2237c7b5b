import cmath
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dwu.phases import CycField, Phase, cyclotomic_polynomial, lcm_of

phases = st.builds(Phase, st.integers(-40, 40), st.integers(1, 24))


@given(phases, phases, phases)
def test_phase_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(st.integers(1, 30))
def test_n_times_one_over_n_vanishes(n):
    assert Phase(1, n).scale(n).is_zero()


@given(phases)
def test_phase_on_unit_circle(p):
    z = p.to_complex()
    assert abs(abs(z) - 1.0) < 1e-15
    expected = cmath.exp(2j * cmath.pi * p.numerator / p.denominator)
    assert abs(z - expected) < 1e-12


def test_phase_normalization():
    p = Phase(5, 4)
    assert (p.numerator, p.denominator) == (1, 4)
    assert Phase(-1, 4) == Phase(3, 4)
    assert Phase(0, 7) == Phase(0, 1)
    assert (Phase(1, 3) + Phase(2, 3)).is_zero()


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
    x = F.root(1, 8) + F.from_rational(Fraction(3, 2))
    inv = x.inverse()
    assert (x * inv) == F.one
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()


def test_cyc_arithmetic_exact():
    F = CycField(4)
    i = F.root(1, 4)
    assert i * i == F.from_rational(-1)
    assert (i * i * i * i) == F.one
    # (1+i)(1-i) = 2
    one = F.one
    assert (one + i) * (one - i) == F.from_rational(2)


def test_lcm_of():
    assert lcm_of([2, 3, 4]) == 12
    assert lcm_of([], base=5) == 5

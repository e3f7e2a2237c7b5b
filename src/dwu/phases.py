"""Exact circle-valued arithmetic: phases in Q/Z and the cyclotomic field Q(zeta_L).

Inside the package a phase is an integer exponent k mod N standing for
exp(2*pi*i*k/N): cochain tables, transgressions, pairings and the Turaev
structure constants all hold such exponents, a product of phases is a sum of
exponents and an inverse is a negation, and root_of_unity(k, N) is their one
complex embedding.  At the API and JSON edges a phase is a Fraction, read
mod 1 before it meets int64.

A sum of phases that must be compared exactly (a partition function, the
KR integral, a coefficient of an orbifold vector) is a count of roots zeta_L^k
over one positive denominator: an element of the group ring Z[Z/L] divided by
an integer.  A root is a unit vector, multiplying by a root is a rotation and
a product is a cyclic convolution, all in Python ints.  A CycNum is such a
value in Q(zeta_L) = Q[x]/Phi_L(x): it is reduced mod Phi_L, by the integer
table of x^k mod Phi_L, only to compare, hash or convert it to a complex
number.  No caller divides in the field.  CycField.embeddings evaluates count
arrays at the primitive roots, where dwu.tqft compares the orbifold algebra's
vectors; those floats decide equalities and never become a value.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property, lru_cache

import numpy as np


def root_of_unity(k: int, n: int) -> complex:
    """exp(2*pi*i*k/n); k/n is divided as Python ints, so the float is the
    correctly rounded fraction whatever the common factors of k and n."""
    return cmath.exp(2j * cmath.pi * (k / n))


def _poly_divmod(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (den monic, division known exact)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        out[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    assert all(c == 0 for c in num[: len(den) - 1])
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the L-th cyclotomic polynomial."""
    poly = [-1] + [0] * (L - 1) + [1]  # x^L - 1
    for d in range(1, L):
        if L % d == 0:
            poly = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


class CycField:
    """The cyclotomic field Q(zeta_L), elements as root counts over Z/L.

    Row k of reduction is x^k mod Phi_L over the power basis 1, x, ...,
    x^(degree-1).
    """

    def __init__(self, L: int):
        self.L = L
        phi = cyclotomic_polynomial(L)
        self.degree = d = len(phi) - 1
        rows = [[int(i == k) for i in range(d)] for k in range(d)]
        for _ in range(d, L):  # x^k = x * x^(k-1), with x^d = -sum phi_i x^i
            prev = rows[-1]
            rows.append([(prev[i - 1] if i else 0) - prev[-1] * phi[i] for i in range(d)])
        self.reduction = np.array(rows, dtype=np.int64)
        self.zero = CycNum(self, (0,) * L)
        self.one = self.root(0, 1)

    @cached_property
    def embeddings(self) -> np.ndarray:
        """(L, m) complex: entry [k, t] is exp(2 pi i k j_t / L), for the units
        j_t mod L up to L/2.  Column t evaluates count vectors at the primitive
        root zeta_L^j_t; it covers one of each complex-conjugate pair of
        embeddings of Q(zeta_L), since sigma_(L-j) of an element of Z[zeta_L]
        is the conjugate of sigma_j of it (m = phi(L)/2, or 1 when L <= 2)."""
        L = self.L
        units = np.array([j for j in range(L // 2 + 1) if math.gcd(j, L) == 1])
        return np.exp(2j * np.pi * (np.arange(L)[:, None] * units % L / L))

    def from_counts(self, counts, den: int = 1) -> "CycNum":
        """(sum of counts[k] zeta_n^k) / den, n = len(counts) dividing L."""
        counts = [int(c) for c in counts]
        if self.L % len(counts):
            raise ValueError(f"zeta_{len(counts)} does not lie in Q(zeta_{self.L})")
        out = [0] * self.L
        out[:: self.L // len(counts)] = counts
        return CycNum(self, out, den)

    def from_rational(self, q) -> "CycNum":
        """A rational (an int or a Fraction) as a field element."""
        return self.from_counts([q.numerator], q.denominator)

    def root(self, k: int, n: int) -> "CycNum":
        """zeta_n^k as a field element; it must lie in Q(zeta_L)."""
        if k * self.L % n:
            raise ValueError(f"zeta_{n}^{k} does not lie in Q(zeta_{self.L})")
        counts = [0] * self.L
        counts[k * self.L // n % self.L] = 1
        return CycNum(self, counts)

    def __repr__(self) -> str:
        return f"CycField(zeta_{self.L})"


class CycNum:
    """An element of a CycField: root counts over a positive denominator;
    exact, hashable, comparable."""

    __slots__ = ("field", "counts", "den")

    def __init__(self, field: CycField, counts, den: int = 1):
        if den < 1:
            raise ValueError("a CycNum denominator must be positive")
        self.field = field
        self.counts = tuple(counts)
        self.den = den

    def _check(self, other: "CycNum"):
        if other.field is not self.field and other.field.L != self.field.L:
            raise ValueError("CycNum operands from different fields")

    def _combine(self, other: "CycNum", sign: int) -> "CycNum":
        self._check(other)
        den = math.lcm(other.den, self.den)
        a, b = den // self.den, sign * (den // other.den)
        return CycNum(self.field, (a * x + b * y for x, y in zip(self.counts, other.counts)), den)

    def __add__(self, other: "CycNum") -> "CycNum":
        return self._combine(other, 1)

    def __sub__(self, other: "CycNum") -> "CycNum":
        return self._combine(other, -1)

    def scale(self, q) -> "CycNum":
        """Multiplication by a rational (an int or a Fraction)."""
        num, den = q.numerator, q.denominator
        return CycNum(self.field, (num * c for c in self.counts), self.den * den)

    def __mul__(self, other) -> "CycNum":
        """Product with a CycNum (a cyclic convolution of the counts) or an int."""
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        L = self.field.L
        out = [0] * L
        for i, a in enumerate(self.counts):
            if a:
                for j, b in enumerate(other.counts):
                    if b:
                        out[(i + j) % L] += a * b
        return CycNum(self.field, out, self.den * other.den)

    def __truediv__(self, k: int) -> "CycNum":
        """Division by a positive int."""
        return CycNum(self.field, self.counts, self.den * k)

    def reduced(self) -> tuple[tuple[int, ...], int]:
        """(power-basis numerators, denominator) in lowest terms: the one form
        of the value mod Phi_L."""
        coeffs = (np.array(self.counts, dtype=object) @ self.field.reduction).tolist()
        g = math.gcd(self.den, *coeffs)
        return tuple(c // g for c in coeffs), self.den // g

    def is_zero(self) -> bool:
        return not any(self.reduced()[0])

    def to_complex(self) -> complex:
        """Horner's rule over the power basis, coefficient i the correctly
        rounded float of its numerator over the denominator."""
        coeffs, den = self.reduced()
        z = cmath.exp(2j * cmath.pi / self.field.L) if self.field.L > 1 else 1.0
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * z + complex(c / den)
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycNum) or self.field.L != other.field.L:
            return False
        if self.den == other.den and self.counts == other.counts:
            return True
        return self.reduced() == other.reduced()

    def __hash__(self) -> int:
        return hash((self.field.L, self.reduced()))

    def __repr__(self) -> str:
        coeffs, den = self.reduced()
        return f"CycNum(L={self.field.L}, {coeffs}/{den})"

"""Exact circle-valued arithmetic: phases in Q/Z and the cyclotomic field Q(zeta_L).

Inside the package a phase is an integer exponent k mod N standing for
exp(2*pi*i*k/N): cochain tables, transgressions, pairings and the Turaev
structure constants all hold such exponents, a product of phases is a sum of
exponents and an inverse is a negation.  At the API and JSON edges a phase
is a Fraction, read mod 1 before it meets int64.

A sum of phases that must be compared exactly (a partition function, the
KR integral, a coefficient of an orbifold vector) is a count of roots zeta_L^k
over one positive denominator: an element of the group ring Z[Z/L] divided by
an integer.  A root is a unit vector, multiplying by a root is a rotation and
a product is a cyclic convolution, all in Python ints.  A CycNum is such a
value in Q(zeta_L) = Q[x]/Phi_L(x): it is reduced mod Phi_L, by the integer
table of x^k mod Phi_L, only to compare, hash or convert it to a complex
number.  No caller divides in the field.  residues(L) evaluates count arrays
at the primitive L-th roots of unity mod a prime p = 1 mod L, where
dwu.tqft's Frobenius check decides its equations as congruences, in int64;
prime_root(L) gives such a prime and a root of order L without that table,
for dwu.reptheory's blocks mod p.
"""

from __future__ import annotations

import cmath
import itertools
import math
from functools import lru_cache

import numpy as np

from dwu.groups import ResourceBudgetError


def _poly_divmod(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (den monic, division known exact)."""
    num, out = list(num), []
    for i in range(len(num) - len(den), -1, -1):
        out.append(c := num[i + len(den) - 1])
        for j, d in enumerate(den):
            num[i + j] -= c * d
    assert not any(num)
    return out[::-1]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the L-th cyclotomic polynomial."""
    poly = [-1] + [0] * (L - 1) + [1]  # x^L - 1
    for d in range(1, L):
        if L % d == 0:
            poly = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def prime_root(L: int, floor: int | None = None) -> tuple[int, int]:
    """(p, w): the largest prime p = 1 mod L below 2^21, or with a floor the
    least one above it, and the first w = x^((p-1)/L) mod p (x = 2, 3, ...)
    of order exactly L, that is with w^(L/d) != 1 for each divisor d > 1 of L.
    p < 2^21 keeps a sum of fewer than 2^21 products of two residues below
    2^63.  Raises ResourceBudgetError, before anything of size L is built,
    when no such p exists."""
    span = range((2**21 - 2) // L * L + 1, 1, -L) if floor is None else range(floor + 1 + -floor % L, 2**21, L)
    p = next((p for p in span if all(p % d for d in range(2, math.isqrt(p) + 1))), None)
    if p is None:
        raise ResourceBudgetError(f"no prime p = 1 mod {L} lies {'below' if floor is None else f'between {floor} and'} 2^21")
    divisors = [d for d in range(2, L + 1) if L % d == 0]
    roots = (pow(x, (p - 1) // L, p) for x in range(2, p))
    return p, next(w for w in roots if all(pow(w, L // d, p) != 1 for d in divisors))


def geometric(x: int, k: int, p: int) -> np.ndarray:
    """The int64 array x^0, x^1, ..., x^(k-1) mod p."""
    return np.array(list(itertools.accumulate(itertools.repeat(x, k - 1), lambda a, b: a * b % p, initial=1)), np.int64)


@lru_cache(maxsize=None)
def residues(L: int) -> tuple[int, int, np.ndarray]:
    """(p, w, table): prime_root(L) and the read-only (L, phi(L)) int64
    table whose entry [k, t] is w^(k j_t) mod p for the units j_t mod L,
    ascending.

    counts @ table mod p evaluates count vectors (entry k counts zeta_L^k) at
    the phi(L) primitive L-th roots of unity mod p.  Phi_L splits into
    distinct linear factors mod p, so those values all vanish exactly when
    the power-basis coefficients (counts @ CycField.reduction) are all 0 mod
    p, and so exactly when they are 0 if they lie below p/2 in absolute
    value (Pollard, "The fast Fourier transform in a finite field", 1971).
    A sum of fewer than p products of two residues stays below p^3 < 2^63."""
    p, w = prime_root(L)
    table = geometric(w, L, p)[np.arange(L)[:, None] * np.flatnonzero(np.gcd(np.arange(L), L) == 1) % L]
    table.flags.writeable = False
    return p, w, table


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
            rows.append([(rows[-1][i - 1] if i else 0) - rows[-1][-1] * phi[i] for i in range(d)])
        self.reduction = np.array(rows, dtype=np.int64)
        self.zero = CycNum(self, (0,) * L)
        self.one = self.root(0, 1)

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
        return self.den == other.den and self.counts == other.counts or self.reduced() == other.reduced()

    def __hash__(self) -> int:
        return hash((self.field.L, self.reduced()))

    def __repr__(self) -> str:
        return "CycNum(L={}, {}/{})".format(self.field.L, *self.reduced())

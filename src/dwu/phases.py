"""Exact circle-valued arithmetic: phases in Q/Z and the cyclotomic field Q(zeta_L).

Inside the package a phase is an integer exponent k mod N standing for
exp(2*pi*i*k/N): cochain tables, transgressions and pairings all hold such
exponents, and root_of_unity(k, N) is their one complex embedding.  A Phase
stores the reduced fraction k/N in [0, 1); it is the value type at the API and
JSON edges only, and its to_complex() is root_of_unity of its fraction.

CycNum elements live in Q(zeta_L) = Q[x]/Phi_L(x) and are used wherever sums of
phases must be compared exactly (partition functions, Frobenius structure
constants).  Field inversion is by extended Euclid over Q[x], which is all the
small Gram matrices here ever need.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache


class Phase:
    """An element of Q/Z, i.e. a root of unity exp(2*pi*i*num/den)."""

    __slots__ = ("_q",)

    def __init__(self, numerator: int = 0, denominator: int = 1):
        self._q = Fraction(numerator, denominator) % 1

    @classmethod
    def from_fraction(cls, q: Fraction) -> "Phase":
        p = cls.__new__(cls)
        p._q = q % 1
        return p

    @property
    def numerator(self) -> int:
        return self._q.numerator

    @property
    def denominator(self) -> int:
        return self._q.denominator

    def __add__(self, other: "Phase") -> "Phase":
        return Phase.from_fraction(self._q + other._q)

    def __sub__(self, other: "Phase") -> "Phase":
        return Phase.from_fraction(self._q - other._q)

    def __neg__(self) -> "Phase":
        return Phase.from_fraction(-self._q)

    def scale(self, k: int) -> "Phase":
        return Phase.from_fraction(k * self._q)

    def is_zero(self) -> bool:
        return self._q == 0

    def to_complex(self) -> complex:
        return root_of_unity(self.numerator, self.denominator)

    def __eq__(self, other) -> bool:
        return isinstance(other, Phase) and self._q == other._q

    def __hash__(self) -> int:
        return hash(self._q)

    def __repr__(self) -> str:
        return f"Phase({self.numerator}/{self.denominator})"


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
    """The cyclotomic field Q(zeta_L), elements as vectors over the power basis."""

    def __init__(self, L: int):
        self.L = L
        phi = cyclotomic_polynomial(L)
        self.degree = len(phi) - 1
        self._phi = [Fraction(c) for c in phi]
        # reduction of x^k mod Phi_L for k in [0, L)
        table = []
        cur = [Fraction(0)] * self.degree
        cur[0] = Fraction(1)
        for _ in range(L):
            table.append(tuple(cur))
            cur = self._mul_by_x(cur)
        self._xpow = table
        self.zero = CycNum(self, (Fraction(0),) * self.degree)
        self.one = CycNum(self, self._xpow[0])

    def _mul_by_x(self, coeffs: list[Fraction]) -> list[Fraction]:
        top = coeffs[-1]
        out = [Fraction(0)] + list(coeffs[:-1])
        if top:
            for i in range(self.degree):
                out[i] -= top * self._phi[i]
        return out

    def from_rational(self, q) -> "CycNum":
        return self.one.scale(Fraction(q))

    def root(self, k: int, n: int) -> "CycNum":
        """zeta_n^k as a field element; it must lie in Q(zeta_L)."""
        if k * self.L % n:
            raise ValueError(f"zeta_{n}^{k} does not lie in Q(zeta_{self.L})")
        return CycNum(self, self._xpow[k * self.L // n % self.L])

    def embed(self, x: "CycNum") -> "CycNum":
        """Image of an element of a subfield Q(zeta_M), M | L, in this field."""
        M = x.field.L
        if M == self.L:
            return CycNum(self, x.coeffs)
        if self.L % M != 0:
            raise ValueError(f"Q(zeta_{M}) is not a subfield of Q(zeta_{self.L})")
        out = self.zero
        for i, a in enumerate(x.coeffs):
            if a:
                out = out + self.root(i, M).scale(a)
        return out

    def __repr__(self) -> str:
        return f"CycField(zeta_{self.L})"


class CycNum:
    """An element of a CycField; exact, hashable, comparable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CycField, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def _check(self, other: "CycNum"):
        if other.field is not self.field and other.field.L != self.field.L:
            raise ValueError("CycNum operands from different fields")

    def __add__(self, other: "CycNum") -> "CycNum":
        self._check(other)
        return CycNum(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycNum") -> "CycNum":
        self._check(other)
        return CycNum(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycNum":
        return CycNum(self.field, tuple(-a for a in self.coeffs))

    def scale(self, q) -> "CycNum":
        q = Fraction(q)
        return CycNum(self.field, tuple(q * a for a in self.coeffs))

    def __mul__(self, other: "CycNum") -> "CycNum":
        self._check(other)
        d = self.field.degree
        prod = [Fraction(0)] * (2 * d - 1) if d else []
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        # reduce degrees >= d via the precomputed x^k table
        out = list(prod[:d])
        for k in range(d, len(prod)):
            if prod[k]:
                red = self.field._xpow[k % self.field.L]
                for i in range(d):
                    out[i] += prod[k] * red[i]
        return CycNum(self.field, out)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def inverse(self) -> "CycNum":
        """Field inverse via extended Euclid over Q[x] against Phi_L."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        phi = list(self.field._phi)  # monic, degree d
        a = list(self.coeffs)
        # ext gcd of a and phi: s*a + t*phi = gcd (a constant, since Phi irreducible)
        r0, r1 = phi, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(c != 0 for c in r1):
            q, rem = _frac_poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _frac_poly_sub(s0, _frac_poly_mul(q, s1))
        g = _frac_poly_trim(r0)
        assert len(g) == 1, "Phi_L not coprime to element"
        inv_g = 1 / g[0]
        coeffs = [c * inv_g for c in s0]
        # reduce mod Phi (degree may still be < d already)
        coeffs = coeffs[: self.field.degree] + [Fraction(0)] * max(
            0, self.field.degree - len(coeffs)
        )
        return CycNum(self.field, coeffs)

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.field.L) if self.field.L > 1 else 1.0
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycNum)
            and self.field.L == other.field.L
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.L, self.coeffs))

    def __repr__(self) -> str:
        return f"CycNum(L={self.field.L}, {self.coeffs})"


def _frac_poly_trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _frac_poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return _frac_poly_trim([x - y for x, y in zip(a, b)])


def _frac_poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _frac_poly_trim(out)


def _frac_poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    b = _frac_poly_trim(list(b))
    if len(a) < len(b):
        return [Fraction(0)], _frac_poly_trim(a)
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        if len(a) < len(b) + i:
            continue
        c = a[i + len(b) - 1] / b[-1]
        q[i] = c
        if c:
            for j, d in enumerate(b):
                a[i + j] -= c * d
    return _frac_poly_trim(q), _frac_poly_trim(a)


def lcm_of(values, base: int = 1) -> int:
    """lcm of an iterable of positive integers with a base value."""
    out = base
    for v in values:
        out = out * v // math.gcd(out, v)
    return out

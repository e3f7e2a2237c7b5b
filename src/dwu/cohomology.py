"""Twisted group cochains on a Z2-graded group with U(1) coefficients.

A cochain is an integer table over (|G^|,)*degree: the entry k at a tuple is
the phase k/N in Q/Z, where N is the lcm of the reduced denominators of the
values, and the table is zero on tuples containing the identity (normalized
cochains).  The differential carries the grading twist on its first face:

    (dc)(w0,...,wn) = sign(w0)*c(w1..wn)
                      + sum_j (-1)^j c(.., w_{j-1} w_j, ..)
                      + (-1)^(n+1) c(w0..w_{n-1})

and one set of face index arrays serves both the differential of a table (a
gather) and its integer matrix (a scatter).  Cohomology with U(1)
coefficients is computed from Z/N-valued cochains (N = |G^| annihilates
everything) and then reduced by the connecting images d(z/N), z in
Z^{n-1}(Z/N), which identifies Z/N-classes that merge over Q/Z.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from dwu.groups import FiniteGroup, GradedGroup, ResourceBudgetError
from dwu.intlinalg import kernel_mod, quotient_invariants, solve_mod
from dwu.phases import Phase, lcm_of


def _group_signs(ref) -> tuple[FiniteGroup, tuple]:
    if isinstance(ref, tuple):
        return ref
    if isinstance(ref, GradedGroup):
        return ref.group, ref.sign
    if isinstance(ref, FiniteGroup):
        return ref, (1,) * ref.order
    raise TypeError(f"expected FiniteGroup or GradedGroup, got {type(ref)}")


def _nonidentity(degree: int) -> tuple:
    """Index of the block of tuples without the identity in a (|G^|,)*degree table."""
    return (slice(1, None),) * degree


@dataclass(frozen=True, eq=False)
class TwistedCochain:
    """A normalized cochain G^^n -> Q/Z as exponents mod N; signs record the
    coefficient twist.  Construction reduces the table mod N and then N to
    the lcm of the reduced denominators."""

    group: FiniteGroup
    signs: tuple
    degree: int
    N: int
    table: np.ndarray  # int64, shape (|G^|,)*degree, entries in [0, N)

    def __post_init__(self):
        table = np.array(self.table, dtype=np.int64)
        table %= self.N
        common = math.gcd(self.N, int(np.gcd.reduce(table.ravel())))
        N = self.N // common
        if N >= 2**31:  # keeps every sum of a few entries inside int64
            raise ValueError(f"cochain denominator {N} is 2^31 or more")
        table //= common
        table.flags.writeable = False
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "table", table)

    @classmethod
    def from_dict(cls, ref, degree: int, mapping) -> "TwistedCochain":
        """From {tuple: Phase}; tuples not in the mapping are zero."""
        group, signs = _group_signs(ref)
        N = lcm_of((p.denominator for p in mapping.values()), 1)
        table = np.zeros((group.order,) * degree, dtype=np.int64)
        for tup, p in mapping.items():
            if len(tup) != degree or not all(0 <= t < group.order for t in tup):
                raise ValueError(f"cochain key {tup} is not a {degree}-tuple of {group.name} elements")
            if 0 in tup and not p.is_zero():
                raise ValueError(f"not normalized: nonzero value on {tup}")
            table[tup] = p.numerator * (N // p.denominator)
        return cls(group, signs, degree, N, table)

    @classmethod
    def from_vector(cls, ref, degree: int, vec, N: int) -> "TwistedCochain":
        """From the exponents on the tuples without the identity, in
        lexicographic order (the columns of differential_matrix)."""
        group, signs = _group_signs(ref)
        table = np.zeros((group.order,) * degree, dtype=np.int64)
        table[_nonidentity(degree)] = np.reshape(vec, (group.order - 1,) * degree)
        return cls(group, signs, degree, N, table)

    @classmethod
    def zero(cls, ref, degree: int) -> "TwistedCochain":
        return cls.from_dict(ref, degree, {})

    def vector(self) -> np.ndarray:
        """Exponents on the tuples without the identity, in lexicographic order."""
        return self.table[_nonidentity(self.degree)].ravel()

    @functools.cached_property
    def rows(self) -> list:
        """The table as nested lists of Python ints, for scalar lookups."""
        return self.table.tolist()

    def value(self, tup) -> Phase:
        return Phase(int(self.table[tuple(tup)]), self.N)

    def _combine(self, other: "TwistedCochain", sign: int) -> "TwistedCochain":
        base = (self.degree, self.group.table, self.signs)
        if base != (other.degree, other.group.table, other.signs):
            raise ValueError("cochains live on different graded groups or degrees")
        N = math.lcm(self.N, other.N)
        table = self.table * (N // self.N) + sign * other.table * (N // other.N)
        return TwistedCochain(self.group, self.signs, self.degree, N, table)

    def __add__(self, other: "TwistedCochain") -> "TwistedCochain":
        return self._combine(other, 1)

    def __sub__(self, other: "TwistedCochain") -> "TwistedCochain":
        return self._combine(other, -1)

    def _key(self) -> tuple:
        return (self.group, self.signs, self.degree, self.N, self.table.tobytes())

    def __eq__(self, other) -> bool:
        return isinstance(other, TwistedCochain) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def is_zero(self) -> bool:
        return not self.table.any()

    def __repr__(self):
        nz = np.count_nonzero(self.table)
        return f"TwistedCochain(deg={self.degree}, {self.group.name}, nonzero={nz})"


def _bar_faces(group: FiniteGroup, signs, degree: int) -> list[tuple]:
    """(coefficients, source columns) per face of d: C^degree -> C^(degree+1).

    Entries run over the (degree+1)-tuples without the identity in
    lexicographic order.  A source column indexes the degree-tuples without
    the identity in the same order (the columns of differential_matrix), or
    is -1 for a face tuple containing the identity, where normalized
    cochains vanish.
    """
    n = group.order
    w = np.indices((n - 1,) * (degree + 1)).reshape(degree + 1, -1) + 1
    mul = np.array(group.table, dtype=np.int64)

    def column(tuples):
        tuples = np.reshape(tuples, (degree, w.shape[1]))
        index = np.ravel_multi_index(tuple(np.maximum(tuples - 1, 0)), (n - 1,) * degree)
        return np.where((tuples > 0).all(axis=0), index, -1)

    faces = [(np.asarray(signs, dtype=np.int64)[w[0]], column(w[1:]))]
    for j in range(1, degree + 1):
        faces.append(((-1) ** j, column([*w[: j - 1], mul[w[j - 1], w[j]], *w[j + 1 :]])))
    faces.append(((-1) ** (degree + 1), column(w[:-1])))
    return faces


def twisted_differential(c: TwistedCochain) -> TwistedCochain:
    """Degree n -> n+1 bar differential with the sign twist on the first face."""
    src = np.append(c.vector(), 0)  # column -1 reads the trailing zero
    values = sum(coeff * src[col] for coeff, col in _bar_faces(c.group, c.signs, c.degree))
    return TwistedCochain.from_vector((c.group, c.signs), c.degree + 1, values, c.N)


def is_twisted_cocycle(c: TwistedCochain) -> bool:
    return twisted_differential(c).is_zero()


def differential_matrix(group: FiniteGroup, signs, degree: int) -> np.ndarray:
    """Integer matrix of d: C^degree -> C^(degree+1) on the normalized complex."""
    faces = _bar_faces(group, signs, degree)
    rows = np.arange(len(faces[0][1]))
    D = np.zeros((len(rows), (group.order - 1) ** degree), dtype=np.int64)
    for coeff, col in faces:
        keep = col >= 0
        np.add.at(D, (rows[keep], col[keep]), np.broadcast_to(coeff, rows.shape)[keep])
    return D


def is_twisted_coboundary(c: TwistedCochain, denominator: int | None = None):
    """A witness nu with d(nu) = c, searched over denominators dividing N, or None."""
    group, signs = c.group, c.signs
    N = denominator or math.lcm(c.N, group.order)
    if c.degree == 0 or N % c.N:
        return None
    D = differential_matrix(group, signs, c.degree - 1)
    x = solve_mod(D, c.vector() * (N // c.N), N)
    if x is None:
        return None
    nu = TwistedCochain.from_vector((group, signs), c.degree - 1, x, N)
    assert (twisted_differential(nu) - c).is_zero()
    return nu


def cohomology_classes(ref, degree: int, cap: int = 32):
    """Representatives and invariant factors of H^degree(BG^; U(1)_pi).

    Every class is N-torsion for N = |G^|, so Z/N-valued cocycles suffice;
    Z/N-classes that merge over U(1) are identified via the connecting images
    d(z/N).  Returns (reps, factors) with reps sorted lexicographically by
    numerator vector and factors the invariant-factor chain of the group.
    """
    if degree not in (1, 2):
        raise ValueError("cohomology computed in degrees 1 and 2 only")
    group, signs = _group_signs(ref)
    if group.order > cap:
        raise ResourceBudgetError(f"group order {group.order} exceeds cohomology cap {cap}")
    N = group.order
    if N == 1:
        return [TwistedCochain.zero((group, signs), degree)], []
    D_up = differential_matrix(group, signs, degree)
    D_down = differential_matrix(group, signs, degree - 1)
    Z = kernel_mod(D_up, N)
    relations = [row % N for row in D_down.T]
    # connecting images: a (degree-1)-cocycle z mod N lifts to z/N over Q/Z and
    # d(z/N) is again Z/N-valued; these are exactly the U(1)-coboundaries
    # that are invisible over Z/N
    for z in kernel_mod(D_down, N):
        img = D_down @ z.astype(np.int64)
        assert not (img % N).any(), "kernel generator is not a cocycle"
        relations.append((img // N) % N)
    factors, basis = quotient_invariants(Z, np.array(relations, dtype=np.int64), N)
    reps = {
        tuple((np.array(combo, dtype=np.int64) @ basis % N).tolist())
        for combo in itertools.product(*(range(f) for f in factors))
    }
    out = [TwistedCochain.from_vector((group, signs), degree, vec, N) for vec in sorted(reps)]
    return out, _invariant_factor_chain(factors)


def _invariant_factor_chain(factors) -> list[int]:
    """Canonical invariant-factor chain (each dividing the next) of sum Z/f_i:
    Z/a + Z/b = Z/gcd + Z/lcm, applied to every pair in order."""
    chain = list(factors)
    for i, j in itertools.combinations(range(len(chain)), 2):
        g = math.gcd(chain[i], chain[j])
        chain[i], chain[j] = g, chain[i] * chain[j] // g
    return [f for f in chain if f > 1]


def restrict_to_even(c: TwistedCochain, GG: GradedGroup) -> TwistedCochain:
    """Restriction to the even subgroup; the twist disappears there."""
    sub = GG.even_subgroup
    table = c.table[np.ix_(*[GG.even_part] * c.degree)]
    return TwistedCochain(sub, (1,) * sub.order, c.degree, c.N, table)


def pullback_split(lmbda: TwistedCochain, GG: GradedGroup) -> TwistedCochain:
    """Pull an order-2 cocycle on the even part back along a split projection."""
    if lmbda.N > 2:
        raise ValueError("pullback to a twisted cocycle needs 2*lambda = 0")
    G = GG.group
    odd_inv = G.inverse[GG.odd_part()[0]]
    proj = [GG.even_index[g if GG.sign[g] == 1 else G.table[g][odd_inv]] for g in range(G.order)]
    table = lmbda.table[np.ix_(*[proj] * lmbda.degree)]
    return TwistedCochain(G, GG.sign, lmbda.degree, lmbda.N, table)


def random_cochain(ref, degree: int, denominator: int, rng) -> TwistedCochain:
    group, _ = _group_signs(ref)
    vec = [rng.randrange(denominator) for _ in range((group.order - 1) ** degree)]
    return TwistedCochain.from_vector(ref, degree, vec, denominator)


def cochain_to_json(c: TwistedCochain, group_name: str | None = None) -> str:
    nonzero = zip(np.argwhere(c.table).tolist(), c.table[c.table != 0].tolist())
    return json.dumps(
        {
            "degree": c.degree,
            "group": group_name or c.group.name,
            "denominator": c.N,
            "values": {",".join(map(str, tup)): k for tup, k in nonzero},
        },
        sort_keys=True,
    )


def cochain_from_json(text: str, ref) -> TwistedCochain:
    """Inverse of cochain_to_json; malformed input raises ValueError."""
    data = json.loads(text)
    try:
        degree, N = _json_int(data["degree"]), _json_int(data["denominator"])
        if degree < 0 or N < 1:
            raise ValueError(f"need degree >= 0 and denominator >= 1, got {degree} and {N}")
        mapping = {
            tuple(int(x) for x in key.split(",")) if key else (): Phase(_json_int(k), N)
            for key, k in data.get("values", {}).items()
        }
        return TwistedCochain.from_dict(ref, degree, mapping)
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed cochain file: {exc!r}") from None


def _json_int(x) -> int:
    """x itself if it is a JSON integer; floats, strings and booleans are rejected."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x

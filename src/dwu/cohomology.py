"""Twisted group cochains on a Z2-graded group with U(1) coefficients.

A cochain is an integer table over (|G^|,)*degree: the entry k at a tuple is
the phase k/N in Q/Z, where N is the lcm of the reduced denominators of the
values, and the table is zero on tuples containing the identity (normalized
cochains); at the API edges (from_dict, value) a phase is a Fraction mod 1.
The differential carries the grading twist on its first face:

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
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from dwu.groups import DEFAULT_ORDER_CAP, FiniteGroup, GradedGroup, ResourceBudgetError
from dwu.intlinalg import SparseRows, kernel_mod, quotient_invariants, solve_mod


def _group_signs(ref) -> tuple[FiniteGroup, np.ndarray]:
    """(group, signs): the grading's signs, or all ones for an ungraded group."""
    if isinstance(ref, tuple):
        return ref
    if isinstance(ref, GradedGroup):
        return ref.group, ref.sign
    if isinstance(ref, FiniteGroup):
        return ref, np.broadcast_to(np.int64(1), ref.order)  # a read-only view
    raise TypeError(f"expected FiniteGroup or GradedGroup, got {type(ref)}")


def _nonidentity(degree: int) -> tuple:
    """Index of the block of tuples without the identity in a (|G^|,)*degree table."""
    return (slice(1, None),) * degree


def _require_denominator(N: int) -> None:
    if N >= 2**31:  # keeps every sum of a few entries inside int64
        raise ValueError(f"cochain denominator {N} is 2^31 or more")


@dataclass(frozen=True, eq=False)
class TwistedCochain:
    """A normalized cochain G^^n -> Q/Z as exponents mod N; signs record the
    coefficient twist.  Construction reduces the table mod N and then N to
    the lcm of the reduced denominators."""

    group: FiniteGroup
    signs: np.ndarray  # read-only +-1 per element of group
    degree: int
    N: int
    table: np.ndarray  # int64, shape (|G^|,)*degree, entries in [0, N)

    def __post_init__(self):
        table = np.array(self.table, dtype=np.int64)
        table %= self.N
        common = math.gcd(self.N, int(np.gcd.reduce(table.ravel())))
        N = self.N // common
        _require_denominator(N)
        table //= common
        table.flags.writeable = False
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "table", table)

    @classmethod
    def from_dict(cls, ref, degree: int, mapping) -> "TwistedCochain":
        """From {tuple: Fraction}, read mod 1; tuples not in it are zero.  A
        value that is not rational (a float, say) raises ValueError."""
        group, signs = _group_signs(ref)
        bad = next((tup for tup, q in mapping.items() if not isinstance(q, numbers.Rational)), None)
        if bad is not None:
            raise ValueError(f"cochain value {mapping[bad]!r} on {bad} is not an int or a Fraction")
        mapping = {tup: q % 1 for tup, q in mapping.items()}
        N = math.lcm(*(q.denominator for q in mapping.values()))
        _require_denominator(N)  # the reduced denominator, checked before it meets int64
        table = np.zeros((group.order,) * degree, dtype=np.int64)
        for tup, q in mapping.items():
            if len(tup) != degree or not all(0 <= t < group.order for t in tup):
                raise ValueError(f"cochain key {tup} is not a {degree}-tuple of {group.name} elements")
            if 0 in tup and q:
                raise ValueError(f"not normalized: nonzero value on {tup}")
            table[tup] = q.numerator * (N // q.denominator)
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

    def value(self, tup) -> Fraction:
        return Fraction(int(self.table[tuple(tup)]), self.N)

    def _combine(self, other: "TwistedCochain", sign: int) -> "TwistedCochain":
        same = np.array_equal(self.group.table, other.group.table) and np.array_equal(self.signs, other.signs)
        if self.degree != other.degree or not same:
            raise ValueError("cochains live on different graded groups or degrees")
        N = math.lcm(self.N, other.N)
        table = self.table * (N // self.N) + sign * other.table * (N // other.N)
        return TwistedCochain(self.group, self.signs, self.degree, N, table)

    def __add__(self, other: "TwistedCochain") -> "TwistedCochain":
        return self._combine(other, 1)

    def __sub__(self, other: "TwistedCochain") -> "TwistedCochain":
        return self._combine(other, -1)

    def is_zero(self) -> bool:
        return not self.table.any()

    def __repr__(self):
        return f"TwistedCochain(deg={self.degree}, {self.group.name}, nonzero={np.count_nonzero(self.table)})"


def _bar_faces(group: FiniteGroup, signs, degree: int, first=None) -> SparseRows:
    """d: C^degree -> C^(degree+1) as one row of faces per entry.

    Entries run over the (degree+1)-tuples without the identity in
    lexicographic order, only those whose first element is in first when
    first (ascending) is given; face j of entry i is coef[i, j] times the
    source column idx[i, j], which indexes the degree-tuples without the
    identity in the same order.  A face tuple containing the identity, where
    normalized cochains vanish, has coefficient 0.  Most entries are dependent
    on earlier ones: a kernel needs only the first elements _cocycle_equations
    gives.
    """
    n = group.order
    first = np.arange(1, n) if first is None else np.asarray(first)
    w = np.indices((len(first),) + (n - 1,) * degree).reshape(degree + 1, -1) + 1
    w[0], m = first[w[0] - 1], w.shape[1]
    mul = group.table
    inner = ([*w[: j - 1], mul[w[j - 1], w[j]], *w[j + 1 :]] for j in range(1, degree + 1))
    faces = np.array([w[1:], *inner, w[:-1]]).reshape(degree + 2, degree, m)
    strides = (n - 1) ** np.arange(degree - 1, -1, -1)
    idx = (np.maximum(faces - 1, 0) * strides[:, None]).sum(axis=1).T
    sign = [signs[w[0]], *(-1) ** np.arange(1, degree + 2)[:, None]]
    coef = np.stack(np.broadcast_arrays(*sign), axis=1) * (faces > 0).all(axis=1).T
    return SparseRows(idx, coef, (n - 1) ** degree)


def _cocycle_equations(group: FiniteGroup) -> np.ndarray:
    """The leading elements x != 1, ascending: no a before x has a*x or
    a^-1*x before x (a = 1 never does).  The rows of _bar_faces with a
    leading first element have the kernel of all rows, in every degree.

    With R(w) the row of w, zero on tuples containing the identity, d(d c) = 0
    at (a, b, ..) reads s(a) R(b, ..) - R(ab, ..) + (rows starting with a) = 0.
    At b = x or at ab = x it writes R(x, ..) as +-1 times a sum of rows with
    earlier first elements, so a row of any other x is zero on every vector
    the earlier rows vanish on, and an elimination in row order never pivots
    on it.  The signs enter only as that +-1."""
    x = np.arange(group.order)
    mul = group.table
    lower = (mul < x) | (mul[group.inverse] < x)  # [a, x]: a*x or a^-1*x before x
    return x[~(lower & (x[:, None] < x)).any(axis=0)][1:]


def twisted_differential(c: TwistedCochain) -> TwistedCochain:
    """Degree n -> n+1 bar differential with the sign twist on the first face."""
    faces = _bar_faces(c.group, c.signs, c.degree)
    values = (c.vector()[faces.idx] * faces.coef).sum(axis=1)
    return TwistedCochain.from_vector((c.group, c.signs), c.degree + 1, values, c.N)


def is_twisted_cocycle(c: TwistedCochain) -> bool:
    """dc = 0, read on the rows of _bar_faces whose first element
    _cocycle_equations gives; every other row is a combination of these."""
    faces = _bar_faces(c.group, c.signs, c.degree, _cocycle_equations(c.group))
    return not ((c.vector()[faces.idx] * faces.coef).sum(axis=1) % c.N).any()


def differential_matrix(group: FiniteGroup, signs, degree: int) -> np.ndarray:
    """Integer matrix of d: C^degree -> C^(degree+1) on the normalized complex."""
    faces = _bar_faces(group, signs, degree)
    D = np.zeros((len(faces.idx), faces.cols), dtype=np.int64)
    np.add.at(D, (np.arange(len(D))[:, None], faces.idx), faces.coef)
    return D


def is_twisted_coboundary(c: TwistedCochain, denominator: int | None = None):
    """A witness nu with d(nu) = c, searched over denominators dividing N, or None.

    If c = d(nu) over U(1), then c.N * nu is a cocycle; its class is
    |G|-torsion, so a change of nu by a coboundary gives c.N * nu an order
    dividing |G|.  The default N = c.N * |G| holds a witness whenever one exists.
    An N past 2**31 raises OverflowError, as the Z/N elimination does."""
    group, signs = c.group, c.signs
    N = denominator or c.N * group.order
    if c.degree == 0 or N % c.N:
        return None
    x = solve_mod(_bar_faces(group, signs, c.degree - 1), c.vector() * (N // c.N), N)
    if x is None:
        return None
    nu = TwistedCochain.from_vector((group, signs), c.degree - 1, x, N)
    assert (twisted_differential(nu) - c).is_zero()
    return nu


def cohomology_classes(ref, degree: int, cap: int = DEFAULT_ORDER_CAP):
    """Representatives and invariant factors of H^degree(BG^; U(1)_pi).

    Every class is N-torsion for N = |G^|, so Z/N-valued cocycles suffice;
    Z/N-classes that merge over U(1) are identified via the connecting images
    d(z/N).  Both kernels build and solve only the leading equations, the
    rows of _bar_faces whose first element _cocycle_equations gives, which
    take the same elimination steps to the same generators as all of them;
    the elimination stores only the rows a kernel returns.  The relations use
    the whole differential.  Returns (reps, factors) with reps sorted
    lexicographically by numerator vector and factors the invariant-factor
    chain of the group.
    """
    if degree not in (1, 2):
        raise ValueError("cohomology computed in degrees 1 and 2 only")
    group, signs = _group_signs(ref)
    if group.order > cap:
        raise ResourceBudgetError(f"group order {group.order} exceeds cohomology cap {cap}")
    N = group.order
    if N == 1:
        return [TwistedCochain.zero((group, signs), degree)], []
    D_down, lead = differential_matrix(group, signs, degree - 1), _cocycle_equations(group)
    Z = kernel_mod(_bar_faces(group, signs, degree, lead), N)
    relations = [row % N for row in D_down.T]
    # connecting images: a (degree-1)-cocycle z mod N lifts to z/N over Q/Z and
    # d(z/N) is again Z/N-valued; these are exactly the U(1)-coboundaries
    # that are invisible over Z/N
    for z in kernel_mod(_bar_faces(group, signs, degree - 1, lead), N):
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
    """Restriction to the even subgroup; the twist disappears there.  d
    commutes with restriction, so a checked cocycle restricts to one."""
    table = c.table[np.ix_(*[GG.even_part] * c.degree)]
    out = TwistedCochain(*_group_signs(GG.even_subgroup), c.degree, c.N, table)
    if getattr(c, "_is_cocycle", False):  # set by transgression.require_cocycle
        object.__setattr__(out, "_is_cocycle", True)
    return out


def cochain_to_json(c: TwistedCochain, group_name: str | None = None) -> str:
    nonzero = zip(np.argwhere(c.table).tolist(), c.table[c.table != 0].tolist())
    values = {",".join(map(str, tup)): k for tup, k in nonzero}
    data = {"degree": c.degree, "group": group_name or c.group.name, "denominator": c.N, "values": values}
    return json.dumps(data, sort_keys=True)


def cochain_from_json(text: str, ref) -> TwistedCochain:
    """Inverse of cochain_to_json; malformed input, or a "group" field that
    names another group than ref's, raises ValueError."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:  # arrays or objects nested past the parser's depth
        raise ValueError("malformed cochain file: nested too deeply") from None
    except ValueError as exc:  # not JSON, a repeated key, or an int past the parser's digit limit
        raise ValueError(f"malformed cochain file: {exc!r}") from None
    group, _ = _group_signs(ref)
    if isinstance(data, dict) and data.get("group", group.name) != group.name:
        raise ValueError(f"the cochain file is for group {data['group']!r}, not {group.name}")
    try:
        degree, N = _json_int(data["degree"]), _json_int(data["denominator"])
        if not 0 <= degree <= 2 or N < 1:
            raise ValueError(f"need 0 <= degree <= 2 and denominator >= 1, got {degree} and {N}")
        mapping = {
            _json_key(key): Fraction(_json_int(k), N) for key, k in data.get("values", {}).items()
        }
        return TwistedCochain.from_dict(ref, degree, mapping)
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed cochain file: {exc!r}") from None


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a repeated key raises ValueError."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def _json_key(key: str) -> tuple:
    """The tuple a key spells as comma-separated canonical decimals ("" for
    degree 0), so that no two keys spell one tuple."""
    if key and not re.fullmatch(r"(0|[1-9][0-9]*)(,(0|[1-9][0-9]*))*", key):
        raise ValueError(f"malformed key {key!r}")
    return tuple(int(x) for x in key.split(",")) if key else ()


def _json_int(x) -> int:
    """x itself if it is a JSON integer; floats, strings and booleans are rejected."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x

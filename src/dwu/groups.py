"""Finite groups as dense multiplication tables, Z2-gradings, and a small catalog.

Elements are indices 0..n-1 with 0 the identity; every other module works with
indices only, read from read-only int64 arrays: a group's table and a grading's
sign, even part, even index and odd part.  Groups and gradings compare and hash
by identity.  A GradedGroup packages a surjective sign homomorphism to {+1,-1}
together with the even part as a re-indexed subgroup.  enumerate_gradings lists
them in closed form, as the nonzero characters of G/<g^2>: a sign kills every
square, and every commutator is a product of squares, so no commutator is formed.

Conjugation is one read-only table per group, built once from the
multiplication table: FiniteGroup.conjugation, and for a graded group the Real
conjugation w.g = w g^{sign w} w^-1 of the even part, GradedGroup.real_conjugation.
Every module reads these two.  flat_sections finds the sections over a group's
conjugation (the exact orbifold and the centre mod p) in closed form.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

DEFAULT_ORDER_CAP = 32
SLAB = 1 << 20  # entries per temporary of the associativity check


class GroupAxiomError(ValueError):
    """A multiplication table failed a group axiom; carries a witness."""

    def __init__(self, axiom: str, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"group axiom violated: {axiom} at {witness}")


class ResourceBudgetError(RuntimeError):
    pass


def require_order(order: int, cap: int) -> None:
    """Refuse a group of this order before any table is allocated for it."""
    if order > cap:
        raise ResourceBudgetError(f"group order {order} exceeds cap {cap}")


def _read_only(a) -> np.ndarray:
    out = np.array(a, dtype=np.int64)
    out.flags.writeable = False
    return out


def verify_group_axioms(table) -> None:
    """Raise GroupAxiomError unless table is a group with identity at index 0.
    The witness is the first failure in the order of the scalar checks."""
    n = len(table)
    ragged = [i for i, row in enumerate(table) if len(row) != n]
    rows = ragged[0] if ragged else n  # shape and closure run row by row
    t = np.array(table[:rows], dtype=np.int64).reshape(rows, n)
    outside = (t < 0) | (t >= n)
    if outside.any():
        i, j = divmod(int(outside.argmax()), n)
        raise GroupAxiomError("closure", (i, int(t[i, j])))
    if ragged:
        raise GroupAxiomError("shape", (rows, len(table[rows])))
    x = np.arange(n)
    for axiom, bad in (
        ("identity", (t[0] != x) | (t[:, 0] != x)),
        # a row or column is a permutation when it sorts to 0..n-1
        ("cancellation", (np.sort(t, 1) != x).any(1) | (np.sort(t, 0) != x[:, None]).any(0)),
        # no inverses check: once cancellation holds, every row holds the identity 0
    ):
        if bad.any():
            raise GroupAxiomError(axiom, (int(bad.argmax()),))
    step = max(1, SLAB // max(n * n, 1))
    for a0 in range(0, n, step):
        bad = t[t[a0 : a0 + step]] != t[x[a0 : a0 + step, None, None], t]  # [a, b, c]: (ab)c != a(bc)
        if bad.any():
            a, b, c = np.unravel_index(int(bad.argmax()), bad.shape)
            raise GroupAxiomError("associativity", (a0 + int(a), int(b), int(c)))


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its multiplication table [a, b] = ab, a
    read-only int64 array; identity is index 0."""

    order: int
    table: np.ndarray
    name: str = "G"

    def __post_init__(self):
        object.__setattr__(self, "table", _read_only(self.table))

    @classmethod
    def from_table(cls, table, name: str = "G", cap: int = DEFAULT_ORDER_CAP) -> "FiniteGroup":
        require_order(len(table), cap)
        verify_group_axioms(table)
        return cls(order=len(table), table=table, name=name)

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """The read-only array [g] = g^-1, the column of row g's least entry 0."""
        return _read_only(self.table.argmin(axis=1))

    @functools.cached_property
    def conjugation(self) -> np.ndarray:
        """The read-only table [h, g] = h g h^-1."""
        return _read_only(self.table[self.table, self.inverse[:, None]])

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True, eq=False)
class GradedGroup:
    """A finite group with a surjective sign homomorphism to {+1, -1}.  The
    sign, the even part, the even index (hat index -> even index or -1) and
    the odd part are read-only int64 arrays, derived once."""

    group: FiniteGroup
    sign: np.ndarray  # per-element +1/-1
    even_part: np.ndarray = field(init=False)
    even_index: np.ndarray = field(init=False)
    even_subgroup: FiniteGroup = field(init=False)
    _odd: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        G, given = self.group, np.asarray(self.sign)
        if given.shape != (G.order,):
            raise ValueError(f"sign needs {G.order} entries, one per element of {G.name}; got shape {given.shape}")
        bad = (given != 1) & (given != -1)
        if bad.any():
            g = int(bad.argmax())
            raise ValueError(f"sign entries must be +1 or -1, got {given[g].item()!r} at element {g}")
        sign = _read_only(given)
        if sign[0] != 1:
            raise ValueError("sign of identity must be +1")
        bad = sign[G.table] != np.outer(sign, sign)
        if bad.any():  # the witness is the first failing (a, b) in row-major order
            raise ValueError(f"sign is not a homomorphism at {divmod(int(bad.argmax()), G.order)}")
        if (sign == 1).all():
            raise ValueError("sign must be surjective (nontrivial grading)")
        even, index = np.flatnonzero(sign == 1), np.full(G.order, -1)
        index[even] = np.arange(len(even))
        sub = FiniteGroup(order=len(even), table=index[G.table[np.ix_(even, even)]], name=G.name + "_even")
        derived = {"sign": sign, "even_part": even, "even_index": index, "_odd": np.flatnonzero(sign == -1)}
        for name, value in derived.items():
            object.__setattr__(self, name, _read_only(value))
        object.__setattr__(self, "even_subgroup", sub)

    @property
    def order(self) -> int:
        return self.group.order

    @functools.cached_property
    def real_conjugation(self) -> np.ndarray:
        """The read-only table [w, i] = w g_i^{sign w} w^-1 (an element of the
        ambient group) for the i-th even element g_i."""
        G, even = self.group, self.even_part
        g = np.where(self.sign[:, None] == 1, even, G.inverse[even])
        return _read_only(G.conjugation[np.arange(G.order)[:, None], g])

    def odd_part(self) -> np.ndarray:
        return self._odd

    def is_split(self) -> bool:
        """True iff some odd element squares to the identity."""
        return bool((self.group.table[self._odd, self._odd] == 0).any())

    def __repr__(self):
        evens = ",".join(map(str, self.even_part.tolist()))
        return f"GradedGroup({self.group.name}, even={{{evens}}})"


def flat_sections(G: FiniteGroup, phase: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """(section, exponent): section[g] numbers g's conjugacy class among the
    classes carrying a flat section, in the order of their least elements, or
    is -1 where the class carries none; the section is zeta_L^exponent[g] at g.

    phase[k, g] is the transport exponent along the conjugation g -> k g k^-1.
    The section is phase[k, rep] at k rep k^-1, and a class carries it when
    e[k g k^-1] = e[g] + phase[k, g] mod L on every edge inside the class
    (the identity k among them, so the section is 0 at rep).
    """
    conj = G.conjugation
    least = conj.min(axis=0)  # the representative of each element's class
    k = (conj[:, least] == np.arange(G.order)).argmax(axis=0)  # the first k with k rep k^-1 = g
    e = phase[k, least] % L
    broken = ((e[conj] - e - phase) % L).any(axis=0)  # an edge leaving g breaks transport
    flat = np.bincount(least, broken, G.order)[least] == 0  # no edge of g's class breaks it
    number = np.cumsum(flat & (least == np.arange(G.order))) - 1  # flat representatives up to g, less 1
    return np.where(flat, number[least], -1), e


def enumerate_gradings(G_hat: FiniteGroup) -> list[GradedGroup]:
    """All surjective sign homomorphisms, ordered lexicographically by sign vector.

    A sign homomorphism kills every square, and so every commutator too:
    aba^-1b^-1 = a^2 (a^-1 b)^2 b^-2.  The gradings are therefore exactly the
    nonzero characters of the elementary abelian 2-group G^/K, K = <g^2>.
    K is a boolean closure over the table and each coset gK is labelled by
    its least element.  In ascending order, a coset outside the span so far
    doubles it: its products with the span get the codes so far plus
    len(code).  The character of mask m is g -> (-1)^popcount(code[gK] & m).
    """
    table = G_hat.table
    K = np.zeros(G_hat.order, bool)
    K[table.diagonal()] = True
    # pass p leaves every product of up to 2^p squares; n - 1 reach all of <g^2>
    for _ in range(G_hat.order.bit_length()):
        K[table[np.ix_(K, K)]] = True
    label = table[:, K].min(axis=1).tolist()
    code = {0: 0}
    for q in sorted(set(label)):
        if q not in code:
            code.update({label[table[q, s]]: c + len(code) for s, c in code.items()})
    r = len(code).bit_length() - 1
    bits = (np.array([code[q] for q in label])[:, None] >> np.arange(r)) & 1
    masks = (np.arange(1, len(code))[:, None] >> np.arange(r)) & 1
    signs = 1 - 2 * (masks @ bits.T % 2)
    signs = signs[np.lexsort(signs.T[::-1])]  # rows in lexicographic order
    return [GradedGroup(group=G_hat, sign=sign) for sign in signs]


# ---------------------------------------------------------------------------
# catalog


def cyclic(n: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    if n < 1:
        raise ValueError(f"cyclic group order must be at least 1, got {n}")
    require_order(n, cap)
    x = np.arange(n)
    return FiniteGroup.from_table((x[:, None] + x) % n, name=f"C{n}", cap=cap)


def dihedral(order: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Dihedral group of the given (even) order; r^i s^j is index i + n j, j in {0,1}."""
    if order % 2 or order < 2:
        raise ValueError("dihedral order must be even and >= 2")
    require_order(order, cap)
    n = order // 2
    j, i = np.divmod(np.arange(order), n)
    # (r^i1 s^j1)(r^i2 s^j2) = r^(i1 + (-1)^j1 i2) s^(j1+j2)
    table = (i[:, None] + (1 - 2 * j)[:, None] * i) % n + n * ((j[:, None] + j) % 2)
    return FiniteGroup.from_table(table, name=f"D{order}", cap=cap)


def quaternion8() -> FiniteGroup:
    """Q8 with the elements 1, i, j, k, -1, -i, -j, -k: index = unit + 4 * sign,
    for the units 1, i, j, k = 0..3, with u^2 = -1 and ij = k, jk = i, ki = j."""

    def mul(a, b):
        (sa, u), (sb, v) = divmod(a, 4), divmod(b, 4)
        if u == 0 or v == 0:
            w, s = u + v, 0
        elif u == v:
            w, s = 0, 1
        else:  # the third unit, negated unless (u, v) is (i, j), (j, k) or (k, i)
            w, s = 6 - u - v, int(v != u % 3 + 1)
        return w + 4 * ((sa + sb + s) % 2)

    return FiniteGroup.from_table([[mul(a, b) for b in range(8)] for a in range(8)], name="Q8")


def symmetric(n: int) -> FiniteGroup:
    if n > 4:
        raise ValueError("symmetric group capped at n=4")
    perms = sorted(itertools.permutations(range(n)))
    # (p*q)(x) = p(q(x))
    table = [[perms.index(tuple(p[x] for x in q)) for q in perms] for p in perms]
    return FiniteGroup.from_table(table, name=f"S{n}")


def direct_product(A: FiniteGroup, B: FiniteGroup, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    n, m = A.order, B.order
    require_order(n * m, cap)
    # [(a1, b1), (a2, b2)] = (a1 a2, b1 b2), each pair (a, b) at index a m + b
    table = (A.table[:, None, :, None] * m + B.table[None, :, None, :]).reshape(n * m, n * m)
    return FiniteGroup.from_table(table, name=f"{A.name}x{B.name}", cap=cap)


def build_group(spec: str, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Resolve a catalog name like 'C4', 'D8', 'Q8', 'S3' or 'AxB' products."""
    spec = spec.strip()
    if "x" in spec:
        parts = spec.split("x")
        g = build_group(parts[0], cap=cap)
        for p in parts[1:]:
            g = direct_product(g, build_group(p, cap=cap), cap=cap)
        return g
    if spec.startswith("C") and spec[1:].isdigit():
        g = cyclic(int(spec[1:]), cap=cap)
    elif spec.startswith("D") and spec[1:].isdigit():
        g = dihedral(int(spec[1:]), cap=cap)
    elif spec == "Q8":
        g = quaternion8()
    elif spec.startswith("S") and spec[1:].isdigit():
        g = symmetric(int(spec[1:]))
    else:
        raise ValueError(f"unknown group spec {spec!r}")
    require_order(g.order, cap)
    return g


def split_grading(G: FiniteGroup, cap: int = DEFAULT_ORDER_CAP) -> GradedGroup:
    """The split structure G x C2 graded by the second factor."""
    prod = direct_product(G, cyclic(2), cap=cap)
    return GradedGroup(group=prod, sign=np.tile([1, -1], G.order))

"""Finite groups as dense multiplication tables, Z2-gradings, and a small catalog.

Elements are indices 0..n-1 with 0 the identity; every other module works with
indices only.  A GradedGroup packages a surjective sign homomorphism to {+1,-1}
together with the even part as a re-indexed subgroup.  enumerate_gradings lists
them in closed form, as the nonzero characters of G/<g^2>: a sign kills every
square, and every commutator is a product of squares, so no commutator is formed.

Conjugation is one read-only table per group, built once from the
multiplication table: FiniteGroup.conjugation, and for a graded group the Real
conjugation w.g = w g^{sign w} w^-1 of the even part, GradedGroup.real_conjugation.
Every module reads these two.  flat_sections finds the sections over a group's
conjugation (the exact orbifold and the floating-point centre) in closed form.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

DEFAULT_ORDER_CAP = 32


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


def verify_group_axioms(table) -> None:
    """Raise GroupAxiomError unless table is a group with identity at index 0."""
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            raise GroupAxiomError("shape", (i, len(row)))
        for v in row:
            if not (0 <= v < n):
                raise GroupAxiomError("closure", (i, v))
    for g in range(n):
        if table[0][g] != g or table[g][0] != g:
            raise GroupAxiomError("identity", (g,))
    for g in range(n):
        row = set(table[g])
        col = {table[h][g] for h in range(n)}
        if len(row) != n or len(col) != n:
            raise GroupAxiomError("cancellation", (g,))
    for g in range(n):
        if all(table[g][h] != 0 for h in range(n)):
            raise GroupAxiomError("inverses", (g,))
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise GroupAxiomError("associativity", (a, b, c))


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table; identity is index 0."""

    order: int
    table: tuple
    name: str = "G"
    inverse: tuple = field(default=None, compare=False)

    def __post_init__(self):
        if self.inverse is None:
            object.__setattr__(self, "inverse", tuple(row.index(0) for row in self.table))

    @classmethod
    def from_table(cls, table, name: str = "G", cap: int = DEFAULT_ORDER_CAP) -> "FiniteGroup":
        require_order(len(table), cap)
        table = tuple(tuple(int(v) for v in row) for row in table)
        verify_group_axioms(table)
        return cls(order=len(table), table=table, name=name)

    @functools.cached_property
    def table_array(self) -> np.ndarray:
        """The multiplication table as a read-only array [a, b] = ab."""
        out = np.array(self.table)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def conjugation(self) -> np.ndarray:
        """The read-only table [h, g] = h g h^-1."""
        table = self.table_array
        out = table[table, np.asarray(self.inverse)[:, None]]
        out.flags.writeable = False
        return out

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class GradedGroup:
    """A finite group with a surjective sign homomorphism to {+1, -1}."""

    group: FiniteGroup
    sign: tuple  # per-element +1/-1
    even_part: tuple = field(default=None, compare=False)
    even_subgroup: FiniteGroup = field(default=None, compare=False)
    even_index: tuple = field(default=None, compare=False)  # hat index -> even index or -1

    def __post_init__(self):
        G = self.group
        if self.sign[0] != 1:
            raise ValueError("sign of identity must be +1")
        sign = np.asarray(self.sign)
        bad = sign[G.table_array] != np.outer(sign, sign)
        if bad.any():  # the witness is the first failing (a, b) in row-major order
            raise ValueError(f"sign is not a homomorphism at {divmod(int(bad.argmax()), G.order)}")
        if all(s == 1 for s in self.sign):
            raise ValueError("sign must be surjective (nontrivial grading)")
        even = tuple(g for g in range(G.order) if self.sign[g] == 1)
        object.__setattr__(self, "even_part", even)
        idx = [-1] * G.order
        for i, g in enumerate(even):
            idx[g] = i
        object.__setattr__(self, "even_index", tuple(idx))
        sub_table = tuple(map(tuple, np.asarray(idx)[G.table_array[np.ix_(even, even)]].tolist()))
        sub = FiniteGroup(order=len(even), table=sub_table, name=G.name + "_even")
        object.__setattr__(self, "even_subgroup", sub)

    @property
    def order(self) -> int:
        return self.group.order

    @functools.cached_property
    def real_conjugation(self) -> np.ndarray:
        """The read-only table [w, i] = w g_i^{sign w} w^-1 (an element of the
        ambient group) for the i-th even element g_i."""
        G, even = self.group, np.asarray(self.even_part)
        g = np.where(np.asarray(self.sign)[:, None] == 1, even, np.asarray(G.inverse)[even])
        out = G.conjugation[np.arange(G.order)[:, None], g]
        out.flags.writeable = False
        return out

    def odd_part(self) -> tuple:
        return tuple(g for g in range(self.group.order) if self.sign[g] == -1)

    def is_split(self) -> bool:
        """True iff some odd element squares to the identity."""
        return any(self.group.table[s][s] == 0 for s in self.odd_part())

    def __repr__(self):
        evens = ",".join(str(g) for g in self.even_part)
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
    table = G_hat.table_array
    K = np.zeros(G_hat.order, bool)
    K[table.diagonal()] = True
    # pass p leaves every product of up to 2^p squares; n - 1 reach all of <g^2>
    for _ in range(G_hat.order.bit_length()):
        K[table[np.ix_(K, K)]] = True
    label = table[:, K].min(axis=1).tolist()
    code = {0: 0}
    for q in sorted(set(label)):
        if q not in code:
            code.update({label[G_hat.table[q][s]]: c + len(code) for s, c in code.items()})
    r = len(code).bit_length() - 1
    bits = (np.array([code[q] for q in label])[:, None] >> np.arange(r)) & 1
    masks = (np.arange(1, len(code))[:, None] >> np.arange(r)) & 1
    signs = 1 - 2 * (masks @ bits.T % 2)
    return [GradedGroup(group=G_hat, sign=sign) for sign in sorted(map(tuple, signs.tolist()))]


# ---------------------------------------------------------------------------
# catalog


def cyclic(n: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    if n < 1:
        raise ValueError(f"cyclic group order must be at least 1, got {n}")
    require_order(n, cap)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup.from_table(table, name=f"C{n}", cap=cap)


def dihedral(order: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Dihedral group of the given (even) order; r^i s^j with j in {0,1}."""
    if order % 2 or order < 2:
        raise ValueError("dihedral order must be even and >= 2")
    require_order(order, cap)
    n = order // 2

    def idx(i, j):
        return i + n * j

    table = [[0] * order for _ in range(order)]
    for i1, j1, i2, j2 in itertools.product(range(n), (0, 1), range(n), (0, 1)):
        # (r^i1 s^j1)(r^i2 s^j2) = r^(i1 + (-1)^j1 i2) s^(j1+j2)
        i = (i1 + (i2 if j1 == 0 else -i2)) % n
        table[idx(i1, j1)][idx(i2, j2)] = idx(i, (j1 + j2) % 2)
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

    def compose(p, q):  # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(n))

    table = [[perms.index(compose(p, q)) for q in perms] for p in perms]
    return FiniteGroup.from_table(table, name=f"S{n}")


def direct_product(A: FiniteGroup, B: FiniteGroup, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    n, m = A.order, B.order
    require_order(n * m, cap)

    def idx(a, b):
        return a * m + b

    table = [
        [idx(A.table[a1][a2], B.table[b1][b2]) for a2 in range(n) for b2 in range(m)]
        for a1 in range(n)
        for b1 in range(m)
    ]
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
    sign = tuple(1 if b % 2 == 0 else -1 for a in range(G.order) for b in range(2))
    return GradedGroup(group=prod, sign=sign)

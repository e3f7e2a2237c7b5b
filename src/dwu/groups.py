"""Finite groups as dense multiplication tables, Z2-gradings, and a small catalog.

Elements are indices 0..n-1 with 0 the identity; every other module works with
indices only.  A GradedGroup packages a surjective sign homomorphism to {+1,-1}
together with the even part as a re-indexed subgroup.

Conjugation is one read-only table per group, built once from the
multiplication table: FiniteGroup.conjugation, and for a graded group the Real
conjugation w.g = w g^{sign w} w^-1 of the even part, GradedGroup.real_conjugation.
Every module reads these two.  flat_sections finds the sections over a group's
conjugation (the exact orbifold and the floating-point centre) in closed form.
"""

from __future__ import annotations

import functools
import itertools
import json
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
            inv = [0] * self.order
            for g in range(self.order):
                for h in range(self.order):
                    if self.table[g][h] == 0:
                        inv[g] = h
                        break
            object.__setattr__(self, "inverse", tuple(inv))

    @classmethod
    def from_table(cls, table, name: str = "G", cap: int = DEFAULT_ORDER_CAP) -> "FiniteGroup":
        require_order(len(table), cap)
        table = tuple(tuple(int(v) for v in row) for row in table)
        verify_group_axioms(table)
        return cls(order=len(table), table=table, name=name)

    @functools.cached_property
    def conjugation(self) -> np.ndarray:
        """The read-only table [h, g] = h g h^-1."""
        table = np.asarray(self.table)
        out = table[table, np.asarray(self.inverse)[:, None]]
        out.flags.writeable = False
        return out

    def word(self, *els: int) -> int:
        acc = 0
        for e in els:
            acc = self.table[acc][e]
        return acc

    def subgroup_closure(self, gens) -> set:
        out = {0}
        frontier = set(gens) | {0}
        while frontier:
            new = set()
            for a in frontier:
                for b in out | frontier:
                    for c in (self.table[a][b], self.table[b][a]):
                        if c not in out and c not in frontier:
                            new.add(c)
            out |= frontier
            frontier = new
        return out

    def to_json(self) -> str:
        return json.dumps(
            {"name": self.name, "order": self.order, "table": [list(r) for r in self.table]}
        )

    @classmethod
    def from_json(cls, text: str, cap: int = DEFAULT_ORDER_CAP) -> "FiniteGroup":
        data = json.loads(text)
        return cls.from_table(data["table"], name=data.get("name", "G"), cap=cap)

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
        for a in range(G.order):
            for b in range(G.order):
                if self.sign[G.table[a][b]] != self.sign[a] * self.sign[b]:
                    raise ValueError(f"sign is not a homomorphism at {(a, b)}")
        if all(s == 1 for s in self.sign):
            raise ValueError("sign must be surjective (nontrivial grading)")
        even = tuple(g for g in range(G.order) if self.sign[g] == 1)
        object.__setattr__(self, "even_part", even)
        idx = [-1] * G.order
        for i, g in enumerate(even):
            idx[g] = i
        object.__setattr__(self, "even_index", tuple(idx))
        sub_table = tuple(tuple(idx[G.table[a][b]] for b in even) for a in even)
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

    def to_json(self) -> str:
        return json.dumps({"group": self.group.name, "sign": list(self.sign)})

    def __repr__(self):
        evens = ",".join(str(g) for g in self.even_part)
        return f"GradedGroup({self.group.name}, even={{{evens}}})"


def flat_sections(G: FiniteGroup, phase: np.ndarray, L: int) -> list[tuple]:
    """(representative, {g: exponent mod L}) per conjugacy class of G carrying
    a flat section, in the order of the representatives (the least elements).

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
    sections: dict[int, dict] = {}
    for g, rep, value in zip(range(G.order), least.tolist(), e.tolist()):
        sections.setdefault(rep, {})[g] = value
    for rep in least[broken].tolist():
        sections.pop(rep, None)
    return list(sections.items())


def enumerate_gradings(G_hat: FiniteGroup) -> list[GradedGroup]:
    """All surjective sign homomorphisms, ordered lexicographically by sign vector.

    Sign homomorphisms factor through the quotient by squares and commutators,
    an elementary abelian 2-group, whose characters are enumerated from a basis.
    """
    n = G_hat.order
    gens = set()
    for a in range(n):
        gens.add(G_hat.table[a][a])
        for b in range(n):
            gens.add(G_hat.word(a, b, G_hat.inverse[a], G_hat.inverse[b]))
    K = G_hat.subgroup_closure(gens)
    rep = [min(G_hat.table[g][k] for k in K) for g in range(n)]
    quot = sorted(set(rep))
    if len(quot) == 1:
        return []
    qidx = {q: i for i, q in enumerate(quot)}
    qmul = [[qidx[rep[G_hat.table[a][b]]] for b in quot] for a in quot]
    basis = []
    span = {0}
    for i in range(len(quot)):
        if i not in span:
            basis.append(i)
            span |= {qmul[i][s] for s in span}
    assert len(span) == len(quot)
    # decompose each quotient element over the basis
    decomp = {}
    for bits in itertools.product([0, 1], repeat=len(basis)):
        w = 0
        for b, e in zip(basis, bits):
            if e:
                w = qmul[b][w]
        decomp.setdefault(w, bits)
    out = []
    for signs in itertools.product([1, -1], repeat=len(basis)):
        if all(s == 1 for s in signs):
            continue
        vec = []
        for g in range(n):
            bits = decomp[qidx[rep[g]]]
            v = 1
            for s, e in zip(signs, bits):
                if e:
                    v *= s
            vec.append(v)
        out.append(vec)
    out.sort()
    return [GradedGroup(group=G_hat, sign=tuple(v)) for v in out]


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
    # elements 1, i, j, k, -1, -i, -j, -k
    names = ["1", "i", "j", "k", "-1", "-i", "-j", "-k"]
    base = {
        ("1", "1"): "1",
        ("i", "i"): "-1",
        ("j", "j"): "-1",
        ("k", "k"): "-1",
        ("i", "j"): "k",
        ("j", "k"): "i",
        ("k", "i"): "j",
        ("j", "i"): "-k",
        ("k", "j"): "-i",
        ("i", "k"): "-j",
    }

    def mul(a, b):
        sa, ua = (a[1:], -1) if a.startswith("-") else (a, 1)
        sb, ub = (b[1:], -1) if b.startswith("-") else (b, 1)
        if sa == "1":
            prod, sign = sb, 1
        elif sb == "1":
            prod, sign = sa, 1
        else:
            prod = base[(sa, sb)]
            prod, sign = (prod[1:], -1) if prod.startswith("-") else (prod, 1)
        total = ua * ub * sign
        return prod if total == 1 else ("-" + prod if prod != "1" else "-1")

    table = [[names.index(mul(a, b)) for b in names] for a in names]
    return FiniteGroup.from_table(table, name="Q8")


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

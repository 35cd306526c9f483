"""Finite groups by multiplication table, permutations, quotients, and the
iterated wreath p-groups used as search targets.

Elements of a :class:`FiniteGroup` are the indices ``0..n-1`` with 0 the
identity.  Tables whose identity sits elsewhere are relabelled on load.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import BudgetExceeded, NotAGroup, NotNormal

ASSOC_EXHAUSTIVE_BOUND = 64
ASSOC_RANDOM_SAMPLES = 10_000
NORMAL_SUBGROUP_BOUND = 128


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as an n x n multiplication table over 0..n-1."""

    n: int
    table: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def elements(self) -> range:
        return range(self.n)

    def conjugate(self, g: int, x: int) -> int:
        """g^-1 * x * g."""
        return self.mul(self.mul(self.inv[g], x), g)

    def power(self, x: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv[x], -k)
        acc = 0
        base = x
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)


@dataclass(frozen=True)
class Permutation:
    """A bijection on 0..degree-1."""

    degree: int
    map: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.map) != list(range(self.degree)):
            raise ValueError("map is not a bijection")

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        return cls(degree, tuple(range(degree)))

    def __call__(self, point: int) -> int:
        return self.map[point]

    def then(self, other: Permutation) -> Permutation:
        """self followed by other (left-to-right composition)."""
        return Permutation(self.degree, tuple(other.map[i] for i in self.map))

    def inverse(self) -> Permutation:
        out = [0] * self.degree
        for i, j in enumerate(self.map):
            out[j] = i
        return Permutation(self.degree, tuple(out))

    def power(self, k: int) -> Permutation:
        if k < 0:
            return self.inverse().power(-k)
        acc = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                acc = acc.then(base)
            base = base.then(base)
            k >>= 1
        return acc

    def cycle_lengths(self) -> list[int]:
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            length = 0
            cur = start
            while not seen[cur]:
                seen[cur] = True
                cur = self.map[cur]
                length += 1
            out.append(length)
        return out

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.map))


def perm_order(g: Permutation) -> int:
    """Order of a permutation: lcm of its cycle lengths."""
    return math.lcm(*g.cycle_lengths()) if g.degree else 1


@dataclass(frozen=True)
class FactorHom:
    """A surjection of one free factor onto a finite group.

    ``kind`` is "finite" (element-wise ``map`` from a FiniteGroup source) or
    "infinite_cyclic" (reduction mod ``modulus``; the generator maps to 1).
    """

    kind: str
    target: FiniteGroup
    map: tuple[int, ...] = ()
    modulus: int = 0
    source: FiniteGroup | None = field(default=None, compare=False)

    def apply(self, value: int) -> int:
        """Image of a factor element (index, or Z exponent) in the target."""
        if self.kind == "finite":
            return self.map[value]
        return value % self.modulus

    def check(self) -> None:
        if self.kind == "finite":
            src = self.source
            if src is None or len(self.map) != src.n or self.map[0] != 0:
                raise NotAGroup("malformed factor homomorphism")
            img = self.map
            for x, row in enumerate(src.table):
                # phi(x*y) over y against phi(x)*phi(y) over y
                target_row = self.target.table[img[x]]
                if [img[z] for z in row] != [target_row[m] for m in img]:
                    y = next(y for y in range(src.n) if img[row[y]] != target_row[img[y]])
                    raise NotAGroup(f"map not a homomorphism at ({x},{y})")
        elif self.kind == "infinite_cyclic":
            if self.modulus < 1 or self.target.n != self.modulus:
                raise NotAGroup("modulus does not match target size")
        else:
            raise NotAGroup(f"unknown factor hom kind {self.kind!r}")


def _find_identity(table: Sequence[Sequence[int]]) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][i] == i and table[i][e] == i for i in range(n)):
            return e
    raise NotAGroup("no identity element")


def validate_group(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Validate a multiplication table and derive inverses.

    The identity is relabelled to index 0 if it sits elsewhere.  Associativity
    is checked exhaustively up to n=64 and on random triples beyond.
    """
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotAGroup(f"row {i} has wrong length")
        for v in row:
            if type(v) is not int or not (0 <= v < n):  # bool is a subclass of int
                raise NotAGroup(f"entry out of range in row {i}")

    e = _find_identity(table)
    if e != 0:
        relabel = list(range(n))
        relabel[0], relabel[e] = e, 0
        inverse_label = relabel
        table = [
            [inverse_label[table[relabel[i]][relabel[j]]] for j in range(n)]
            for i in range(n)
        ]

    table = tuple(tuple(row) for row in table)
    for i, (row, column) in enumerate(zip(table, zip(*table))):
        if len(set(row)) != n:
            raise NotAGroup(f"row {i} not a permutation")
        if len(set(column)) != n:
            raise NotAGroup(f"column {i} not a permutation")

    # rows are permutations, so each holds 0 exactly once
    inv = [row.index(0) for row in table]
    for i, j in enumerate(inv):
        if table[j][i] != 0:
            raise NotAGroup(f"one-sided inverse at {i}")

    if n <= ASSOC_EXHAUSTIVE_BOUND:
        # row by row: (a*b)*c over c against a*(b*c) over c; a or b the
        # identity holds by the identity law
        for a in range(1, n):
            row_a = table[a]
            for b in range(1, n):
                row_ab = table[row_a[b]]
                row_b = table[b]
                if row_ab != tuple(map(row_a.__getitem__, row_b)):
                    c = next(c for c in range(n) if row_ab[c] != row_a[row_b[c]])
                    raise NotAGroup(f"associativity fails at ({a},{b},{c})")
    else:
        rng = random.Random(0)
        for _ in range(ASSOC_RANDOM_SAMPLES):
            a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if table[table[a][b]][c] != table[a][table[b][c]]:
                raise NotAGroup(f"associativity fails at ({a},{b},{c})")

    return FiniteGroup(n, table, tuple(inv))


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return validate_group(table)


def element_order(group: FiniteGroup, x: int) -> int:
    """Least k >= 1 with x^k = identity."""
    k = 1
    cur = x
    while cur != 0:
        cur = group.mul(cur, x)
        k += 1
    return k


def _closure(group: FiniteGroup, gens: Iterable[int]) -> frozenset[int]:
    """Subgroup generated by ``gens``: a breadth-first walk from the
    identity by right multiplication with the generators.  In a finite group
    every inverse is a positive power, so products alone reach all of it."""
    gens = set(gens) - {0}
    members = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            row = group.table[x]
            for g in gens:
                y = row[g]
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(members)


def normal_subgroups(group: FiniteGroup) -> list[frozenset[int]]:
    """All normal subgroups, sorted by size, then by their sorted elements.

    Every normal subgroup is the join of the normal closures of its elements
    (the principal ones: one per conjugacy class), and the join of two
    normal subgroups N, M is their product set NM.  A worklist joins each
    new subgroup with every principal one until no new product appears.
    """
    if group.n > NORMAL_SUBGROUP_BOUND:
        raise BudgetExceeded(f"group order {group.n} over bound {NORMAL_SUBGROUP_BOUND}")
    table, inv = group.table, group.inv
    principals: set[frozenset[int]] = set()
    classified: set[int] = set()
    for x in group.elements():
        if x not in classified:
            conjugates = {table[table[inv[g]][x]][g] for g in group.elements()}
            classified |= conjugates
            principals.add(_closure(group, conjugates))
    known = set(principals)
    work = list(principals)
    while work:
        a = work.pop()
        rows = [table[x] for x in a]
        for b in principals:
            if b <= a:
                continue
            joined = frozenset(row[y] for row in rows for y in b)
            if joined not in known:
                known.add(joined)
                work.append(joined)
    return sorted(known, key=lambda s: (len(s), sorted(s)))


def _is_normal(group: FiniteGroup, subset: frozenset[int]) -> bool:
    if 0 not in subset:
        return False
    for x in subset:
        if group.inv[x] not in subset:
            return False
        for y in subset:
            if group.mul(x, y) not in subset:
                return False
        for g in group.elements():
            if group.conjugate(g, x) not in subset:
                return False
    return True


def quotient(group: FiniteGroup, subset: Iterable[int]) -> tuple[FiniteGroup, FactorHom]:
    """Quotient by a normal subgroup plus the canonical projection."""
    sub = frozenset(subset)
    if not _is_normal(group, sub):
        raise NotNormal(sorted(sub))
    coset_of = [-1] * group.n
    reps: list[int] = []
    for x in group.elements():
        if coset_of[x] >= 0:
            continue
        idx = len(reps)
        reps.append(x)
        for h in sub:
            coset_of[group.mul(x, h)] = idx
    m = len(reps)
    table = [[coset_of[group.mul(reps[i], reps[j])] for j in range(m)] for i in range(m)]
    q = validate_group(table)
    hom = FactorHom(kind="finite", target=q, map=tuple(coset_of), source=group)
    hom.check()
    return q, hom


def random_wreath_element(p: int, m: int, rng: random.Random) -> Permutation:
    """Uniform random element of the iterated wreath p-group on p^m points."""
    def sample(depth: int) -> list[int]:
        if depth == 0:
            return [0]
        size = p ** (depth - 1)
        top = rng.randrange(p)
        out = []
        for i in range(p):
            part = sample(depth - 1)
            shift = ((i + top) % p) * size
            out.extend(shift + part[x] for x in range(size))
        return out

    return Permutation(p ** m, tuple(sample(m)))


"""Finite groups by multiplication table, permutations, quotients, and the
iterated wreath p-groups used as search targets.

Elements of a :class:`FiniteGroup` are the indices ``0..n-1`` with 0 the
identity.  A table whose identity sits elsewhere is refused on load: the
syllables and actions that come with it use its labels.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceeded, NotAGroup, NotNormal, ParseError

NORMAL_SUBGROUP_BOUND = 128


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as an n x n multiplication table over 0..n-1, with a
    generating set ``gens``: every element is a product of them."""

    n: int
    table: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    gens: tuple[int, ...]

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


def perm_order(g: Permutation) -> int:
    """Order of a permutation: lcm of its cycle lengths."""
    return math.lcm(*g.cycle_lengths()) if g.degree else 1


@dataclass(frozen=True)
class FactorHom:
    """A surjection of one free factor onto a finite group.

    ``kind`` is "finite" (element-wise ``map`` from a FiniteGroup source) or
    "infinite_cyclic" (reduction mod ``modulus``; the generator maps to 1).
    A modulus hom's ``target`` is None until its Z/modulus table is needed.
    """

    kind: str
    target: FiniteGroup | None
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
    """Validate a multiplication table and derive inverses and generators.

    A Latin square whose identity is not element 0 raises ``ParseError``,
    as its labels are read as given.  Associativity is checked exactly at
    every size by Light's test on a greedy generating set S (Clifford and
    Preston, *The Algebraic Theory of Semigroups*, vol. 1, 1961): the
    elements g with (x*g)*y = x*(g*y) for all x, y are closed under
    products, so checking g in S covers them all in O(|S| n^2).  A failure is named by the first failing triple in order.
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

    table = tuple(tuple(row) for row in table)
    for i, (row, column) in enumerate(zip(table, zip(*table))):
        if len(set(row)) != n:
            raise NotAGroup(f"row {i} not a permutation")
        if len(set(column)) != n:
            raise NotAGroup(f"column {i} not a permutation")
    if _find_identity(table) != 0:
        raise ParseError("the identity is not element 0")

    # rows are permutations, so each holds 0 exactly once
    inv = [row.index(0) for row in table]
    for i, j in enumerate(inv):
        if table[j][i] != 0:
            raise NotAGroup(f"one-sided inverse at {i}")

    gens = _generators(table)
    for g in gens:
        # row by row: (x*g)*y over y against x*(g*y)
        row_g = table[g]
        for row_x in table:
            if table[row_x[g]] != tuple(map(row_x.__getitem__, row_g)):
                a, b, c = next(_associativity_failures(table))
                raise NotAGroup(f"associativity fails at ({a},{b},{c})")

    return FiniteGroup(n, table, tuple(inv), gens)


def _generators(table: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """A greedy generating set of a loop: the least element not yet reached
    joins, and a walk by right multiplication from every element reached
    adds the products, until every element is a left-normed product of the
    set."""
    n = len(table)
    gens: list[int] = []
    reached = [True] + [False] * (n - 1)
    order = [0]
    for g in range(1, n):
        if reached[g]:
            continue
        gens.append(g)
        reached[g] = True
        order.append(g)
        for x in order:  # order grows during the walk
            row = table[x]
            for h in gens:
                if not reached[row[h]]:
                    reached[row[h]] = True
                    order.append(row[h])
    return tuple(gens)


def _associativity_failures(table: Sequence[Sequence[int]]) -> Iterator[tuple[int, int, int]]:
    """Triples (a, b, c) with (a*b)*c != a*(b*c), the first one first, found
    row by row: (a*b)*c over c against a*(b*c); a or b the identity holds
    by the identity law."""
    n = len(table)
    for a in range(1, n):
        row_a = table[a]
        for b in range(1, n):
            row_ab = table[row_a[b]]
            row_b = table[b]
            if row_ab != tuple(map(row_a.__getitem__, row_b)):
                yield a, b, next(c for c in range(n) if row_ab[c] != row_a[row_b[c]])


def cyclic_group(n: int) -> FiniteGroup:
    """Z/n, built directly: row i is 0..n-1 rotated by i, the inverse of i
    is -i mod n, and 1 generates (Z/1 needs no generator).  Tables from
    outside the program go through ``validate_group``."""
    row = tuple(range(n))
    table = tuple(row[i:] + row[:i] for i in range(n))
    return FiniteGroup(n, table, tuple((-i) % n for i in range(n)), (1,) if n > 1 else ())


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


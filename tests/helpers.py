"""Reference constructions the tests check the package against.

None of these is needed to build or verify a certificate: they enumerate
groups, rebuild words, and compare graphs the slow, obvious way.
"""

from __future__ import annotations

from typing import Sequence

from ordersep.covergraph import CoverGraph
from ordersep.errors import BudgetExceeded
from ordersep.groupcore import Permutation
from ordersep.words import IDENTITY, Factors, NormalForm, invert, multiply

WREATH_POINT_BOUND = 2 ** 16


def wreath_p_group(p: int, m: int) -> list[Permutation]:
    """Generators of the m-fold iterated wreath power of the cyclic group of
    order p, acting on p^m points (a Sylow p-subgroup of the symmetric group).

    Generator k cycles the depth-k blocks under the leftmost branch; the
    product of all generators has order p^m.
    """
    points = p ** m
    if points > WREATH_POINT_BOUND:
        raise BudgetExceeded(f"{p}^{m} points over bound {WREATH_POINT_BOUND}")
    gens = []
    for level in range(1, m + 1):
        block = p ** (m - level)
        mapping = list(range(points))
        # rotate the p blocks of size `block` sitting at offset 0
        for i in range(p):
            for x in range(block):
                mapping[i * block + x] = ((i + 1) % p) * block + x
        gens.append(Permutation(points, tuple(mapping)))
    return gens


def mulclose(gens: Sequence[Permutation], maxsize: int | None = None) -> set[Permutation]:
    """Closure of permutations under composition."""
    els = set(gens)
    frontier = list(els)
    while frontier:
        nxt = []
        for a in gens:
            for b in frontier:
                c = b.then(a)
                if c not in els:
                    els.add(c)
                    nxt.append(c)
                    if maxsize and len(els) > maxsize:
                        raise BudgetExceeded(f"closure exceeded {maxsize}")
        frontier = nxt
    return els


def evaluate_basis_word(
    letters: Sequence[tuple[int, int]],
    basis: Sequence[NormalForm],
    factors: Factors,
) -> NormalForm:
    """Multiply basis letters back out (round-trip check for ``rewrite``)."""
    acc = IDENTITY
    for idx, exp in letters:
        term = basis[idx] if exp > 0 else invert(basis[idx], factors)
        acc = multiply(acc, term, factors)
    return acc


def graphs_equal(g1: CoverGraph, g2: CoverGraph) -> bool:
    return g1.factors == g2.factors and g1.acts == g2.acts

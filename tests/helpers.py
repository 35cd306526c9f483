"""Reference constructions the tests check the package against.

None of these is needed to build or verify a certificate: they enumerate
groups, rebuild words, and compare graphs the slow, obvious way.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path
from typing import Sequence

from ordersep.covergraph import CoverGraph
from ordersep.errors import BudgetExceeded
from ordersep.groupcore import FiniteGroup, Permutation, validate_group
from ordersep.words import IDENTITY, Factors, NormalForm, invert, multiply

WREATH_POINT_BOUND = 2 ** 16

# ten Z/2*Z/3 targets alternating a and b^(+-1), 2-16 syllables each, drawn
# with random.Random(seed) and pairwise non-conjugate up to inversion; in
# each, a same-class Lemma 1 boost would merge two distinct orders (seed 15:
# pair (0, 6)'s boost at p=2 merges targets 3 and 5; seed 21: pair (2, 7)'s
# raises the number of colliding pairs from 2 to 3)
TEN_TARGETS = {
    15: "abababab ab aBabab aBaBaBaBaBaB abaBaBab aBabaBaBaB aBaB aBaBaBabaBababab "
        "aBaBababaBababaB abaBaBababaBaBaB",
    21: "aBaBaB abaBababababaBaB abab abaBaBaB aB abaBabababababaB ababaB abababab "
        "aBaBaBaBaBaB abaB",
    34: "abababaBaBab aBaBabababaBaB ab abaB abaBabaBaB aBababaBababaB aBaBaB aBaB "
        "aBabaBaBabababaB aBaBaBaB",
    64: "abaBababaBababab aBabababaBabab ababaB abababaB abaBabaBaBaBaB "
        "ababababaBababab aB aBabaBabab ababababab aBaBaBabaBaB",
    65: "aBaBabaBaBaBaB ababaBaBabaBab ababababab aBaBababaBaB abababaBaBaBaBab "
        "aBabaB ab aBababaBaBabaB aBaB aBab",
    67: "abaB aBaBaBaBaBababab ababaBabab aBaB aBabaBab aBabaB abaBaBabababab "
        "abaBaBabababaB abaBabaBaB abababaBaBabaB",
    72: "abaB aBabaBabaBab ab abaBabaBabaBabaB aBaBaBabaB abaBaBabaBaBaBab "
        "abababaBaBabaBab aBabaB abaBaBababaBabaB aBaBababaBaBaBab",
}


def z2z3_syllables(text: str) -> list[tuple[int, int]]:
    """Syllables of a Z/2*Z/3 word written with a = (0,1), b = (1,1), B = (1,2)."""
    return [{"a": (0, 1), "b": (1, 1), "B": (1, 2)}[c] for c in text]


def power_syllables(text: str) -> list[tuple[int, int]]:
    """Syllables of a word written as space-separated powers of the factor
    generators a and b: ``"a3 b a2"`` is a^3 b a^2."""
    return [(0 if tok[0] == "a" else 1, int(tok[1:] or 1)) for tok in text.split()]


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


def perm_group(*gens: tuple[int, ...]) -> FiniteGroup:
    """The group generated by permutations, identity first, by table."""
    identity = Permutation.identity(len(gens[0]))
    elements = sorted(
        mulclose([Permutation(len(g), g) for g in gens]) | {identity},
        key=lambda p: (p != identity, p.map),
    )
    index = {p: i for i, p in enumerate(elements)}
    return validate_group([[index[p.then(q)] for q in elements] for p in elements])


def bench_finite_tables() -> dict[str, list[list[int]]]:
    """The finite factor tables of the benchmark corpora."""
    path = Path(__file__).resolve().parents[1] / "bench" / "corpora.py"
    spec = importlib.util.spec_from_file_location("bench_corpora", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FINITE_TABLES


def random_loop_table(n: int, rng: random.Random) -> list[list[int]]:
    """A random Latin square on 0..n-1 with 0 a two-sided identity and
    two-sided inverses (a random pairing of the other elements), filled
    cell by cell with backtracking; a pairing no square completes is
    drawn again."""
    while True:
        table = [[i if r == 0 else (r if i == 0 else -1) for i in range(n)] for r in range(n)]
        others = list(range(1, n))
        rng.shuffle(others)
        while others:
            x = others.pop()
            y = others.pop() if others and rng.random() < 0.7 else x
            table[x][y] = table[y][x] = 0
        cells = [(r, c) for r in range(1, n) for c in range(1, n) if table[r][c] < 0]

        def fill(k: int) -> bool:
            if k == len(cells):
                return True
            r, c = cells[k]
            used = set(table[r]) | {table[i][c] for i in range(n)}
            values = [v for v in range(n) if v not in used]
            rng.shuffle(values)
            for v in values:
                table[r][c] = v
                if fill(k + 1):
                    return True
            table[r][c] = -1
            return False

        if fill(0):
            return table


def first_non_associative_triple(table: Sequence[Sequence[int]]) -> tuple[int, int, int] | None:
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc)."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return a, b, c
    return None


def reference_graph_error(graph: dict, tables: list) -> str | None:
    """A certificate graph's first defect, found vertex by vertex and
    element by element: the failure message and order the verifier's
    graph check must reproduce."""
    vcount = graph["vcount"]
    action = graph["action"]
    for f in (0, 1):
        n = len(tables[f])
        rows = action[f]
        if len(rows) != vcount:
            return f"action[{f}] wrong length"
        for c in range(1, n):
            seen = [False] * vcount
            for v in range(vcount):
                row = rows[v]
                if len(row) != n - 1:
                    return f"action[{f}][{v}] wrong width"
                tgt = row[c - 1]
                if not isinstance(tgt, int) or not (0 <= tgt < vcount):
                    return "property (1): target out of range"
                if seen[tgt]:
                    return f"property (1) fails for factor {f} element {c}"
                seen[tgt] = True
                if tgt == v:
                    return f"property (2) fails: freeness at vertex {v}"
        for c in range(1, n):
            for d in range(1, n):
                e = tables[f][c][d]
                for v in range(vcount):
                    via = rows[rows[v][c - 1]][d - 1]
                    direct = v if e == 0 else rows[v][e - 1]
                    if via != direct:
                        return f"group law fails for factor {f} at ({c},{d})"
    return None

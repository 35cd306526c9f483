"""Reference constructions the tests check the package against.

None of these is needed to build or verify a certificate: they enumerate
groups, rebuild words, and compare graphs the slow, obvious way.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ordersep.covergraph import CoverGraph, CoverReport, _require_hyperbolic, cycle_walks, induced_graph
from ordersep.errors import BudgetExceeded, OrderSepError
from ordersep.groupcore import FiniteGroup, Permutation, cyclic_group, validate_group
from ordersep.pipeline import parse_instance
from ordersep.verify import verify_certificate
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

# two sets the per-pair repair route did not finish: on it, each ran for
# more than 10 s without a certificate.  Sixteen Z/2*Z/3 targets alternating
# a and b^(+-1), 2-20 syllables each, drawn with random.Random(0) (this is
# many_targets(("Z2", "Z3"), 16, 20, 0)); six Z*Z
# targets of 2-8 syllables a^e b^f, e and f in {+-1, +-2}, drawn with
# random.Random(6) (both redrawn on a conjugate pair up to inversion)
SIXTEEN_TARGETS = (
    "aBabaBaBaBaBaB ababaBababaB abaBababaBaBabaBaB abaBaBaBabab aBab "
    "aBaBabaBabababababaB aBabaBaBabaBabaBaB aBaB abaBababababaBaBabab ababab "
    "aBaBababaBaBaBaBaB aBabababaBababaB aBaBab ab abaBabaB ababaBab"
)
SIX_FREE_TARGETS = [
    "a-2 b2", "a b-1", "a2 b2 a b2 a-2 b-1 a-2 b", "a2 b a-2 b2", "a-2 b a-1 b2 a b",
    "a2 b-2 a-1 b",
]


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


def old_verify_exit(instance: dict, cert: dict) -> tuple[int, dict | None, dict | None]:
    """What ``ordersep --json verify`` gives when the instance parser runs
    before the verifier: the exit code, the error on standard error (None
    after a report) and the report on standard output (None after an
    error)."""
    try:
        parse_instance(instance)
    except OrderSepError as exc:
        return exc.exit_code, {"error": exc.code, "detail": str(exc)}, None
    report = verify_certificate(instance, cert)
    return (0 if report.verdict else 4), None, report.to_json()


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


@dataclass(frozen=True)
class XCycle:
    """One orbit of the x-action, walked as a closed path spelling x^k."""

    base: int
    k: int
    steps: tuple[tuple[int, int, int], ...]  # (start vertex, factor, element)
    close: bool


def x_cycles(g: CoverGraph, x: NormalForm) -> list[XCycle]:
    """One cycle per orbit of the x-action, with its close-edge flag.

    A cycle is close-edged when two distinct edges of it lie in the same
    factor component; repeated traversals of one edge do not count.
    """
    _require_hyperbolic(x)
    orbit_labels = (g.factor_orbits(0), g.factor_orbits(1))
    syl = x.syllables
    out = []
    for orbit, walk in cycle_walks(g, x):
        steps = tuple(
            (start, f, val) for start, (f, val) in zip(walk, syl * len(orbit))
        )
        edges = set(steps)
        close = len({(f, orbit_labels[f][start]) for start, f, _val in edges}) < len(edges)
        out.append(XCycle(orbit[0], len(orbit), steps, close))
    return out


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


def quaternion_table() -> list[list[int]]:
    """The quaternion group Q8 by table."""
    # element 2*u + s is (-1)^s times the unit u of (1, i, j, k)
    units = {
        (1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
        (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
        (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1),
    }

    def mul(x, y):
        (u, s), (v, t) = divmod(x, 2), divmod(y, 2)
        w, sign = (v, 0) if u == 0 else ((u, 0) if v == 0 else units[(u, v)])
        return 2 * w + (s + t + sign) % 2

    return [[mul(x, y) for y in range(8)] for x in range(8)]


def two_generator_groups() -> dict[str, FiniteGroup]:
    """Groups whose greedy generating sets have two elements, so a check on
    the generators skips most elements."""
    tables = bench_finite_tables()
    q8 = quaternion_table()
    swap = [0, 2, 1, 3, 4, 5, 6, 7]  # i relabelled 1 and -1 relabelled 2
    return {
        "S3": validate_group(tables["S3"]),
        "D4": validate_group(tables["D4"]),
        # with i first, the greedy set is {i, j}
        "Q8": validate_group([[swap[q8[swap[x]][swap[y]]] for y in range(8)] for x in range(8)]),
        "A4": perm_group((1, 2, 0, 3), (1, 0, 3, 2)),
    }


@functools.cache
def _bench_corpora():
    """The benchmark's instance generators, loaded from their file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "corpora.py"
    spec = importlib.util.spec_from_file_location("bench_corpora", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_finite_tables() -> dict[str, list[list[int]]]:
    """The finite factor tables of the benchmark corpora."""
    return _bench_corpora().FINITE_TABLES


def many_targets(pair: tuple[str, str], n: int, max_syllables: int, seed: int) -> dict:
    """Instance JSON of ``n`` targets over the factors named by ``pair``:
    ``"Z"`` is infinite cyclic, any other name a table of
    ``bench_finite_tables()``.

    Each target is 1 to ``max_syllables // 2`` syllable pairs ``a^e b^f``,
    drawn with ``random.Random(seed)``.  A finite factor's exponent is a
    uniform non-identity element (Z/2's is 1, with no draw); an infinite
    cyclic one's is one of +-1, +-2.  A target conjugate up to inversion
    to an earlier one is drawn again.
    """
    corpora = _bench_corpora()
    factors = [
        {"type": "infinite_cyclic"} if name == "Z"
        else {"type": "finite", "table": corpora.FINITE_TABLES[name]}
        for name in pair
    ]

    rng = random.Random(seed)

    def exponent(factor: dict) -> int:
        if factor["type"] != "finite":
            return rng.choice([1, -1, 2, -2])
        order = len(factor["table"])
        return 1 if order == 2 else rng.randrange(1, order)

    targets: list[list[list[int]]] = []
    while len(targets) < n:
        word = [
            [f, exponent(factors[f])]
            for _ in range(rng.randint(1, max_syllables // 2))
            for f in (0, 1)
        ]
        if not any(corpora.conjugate_up_to_inverse(word, t, factors) for t in targets):
            targets.append(word)
    return {"schema": 1, "factors": factors, "targets": targets, "mode": "auto"}


def reference_select(orders: list[int], pool: list[list[int]]) -> tuple[int, ...] | None:
    """The pool selection the slow, obvious way: the index of the first
    score vector whose lcm with ``orders`` is pairwise distinct, else the
    first such pair of indices in ``itertools.combinations`` order, else
    None."""

    def clears(picked: tuple[int, ...]) -> bool:
        new = [math.lcm(o, *(pool[k][n] for k in picked)) for n, o in enumerate(orders)]
        return len(set(new)) == len(new)

    singles = [(k,) for k in range(len(pool))]
    pairs = itertools.combinations(range(len(pool)), 2)
    return next((picked for picked in itertools.chain(singles, pairs) if clears(picked)), None)


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


def z500_loop() -> list[list[int]]:
    """Z/500 with the intercalate at rows {1, 251} x columns {1, 251}
    switched: a loop with two-sided inverses that is not a group, its first
    failing triple (1,1,2) and the defect met by few random triples."""
    table = [[(i + j) % 500 for j in range(500)] for i in range(500)]
    for i in (1, 251):
        for j in (1, 251):
            table[i][j] = (i + j + 250) % 500
    return table


def z2_times_loop() -> list[list[int]]:
    """Z/2 x L for a five-element loop L that is not a group, element 2l + g
    standing for (g, l).  Its first greedy generator (1, e) associates with
    every pair, so a check on that generator alone passes the table."""
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    return [[2 * loop[x // 2][y // 2] + (x + y) % 2 for y in range(10)] for x in range(10)]


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


def law_tampered_graph(group: FiniteGroup, rng: random.Random) -> CoverGraph:
    """The action of group * Z/2 induced from a random fiber of one or two
    points, with one or two tamperings of ``group``'s rows:

    - a row copied from another nonidentity element's, or the rows of a
      coset Ha of the subgroup H generated by the first generator g replaced
      by those of Haz, for some z with Haz = Ha (the rows stay
      fixed-point-free bijections, so only the composition law can fail,
      and in the coset case it still holds for g);
    - two entries of a row swapped.
    """
    y = rng.randrange(1, 3)
    psi = [Permutation(y, tuple(rng.sample(range(y), y))) for _ in range(group.n - 1)]
    g = induced_graph(group, cyclic_group(2), y, psi)
    rows = [list(row) for row in g.acts[0]]
    for _ in range(rng.randrange(1, 3)):
        c = rng.randrange(1, group.n)
        kind = rng.choice(["copy", "coset", "swap"])
        if kind == "copy":
            rows[c] = list(rows[rng.choice([e for e in range(1, group.n) if e != c])])
        elif kind == "coset":
            powers = [0]
            while group.mul(powers[-1], group.gens[0]) != 0:
                powers.append(group.mul(powers[-1], group.gens[0]))
            a = rng.choice([x for x in group.elements() if x not in powers])
            z = group.conjugate(a, rng.choice(powers[1:]))
            before = [list(row) for row in rows]
            for h in powers:
                rows[group.mul(h, a)] = before[group.mul(group.mul(h, a), z)]
        else:
            v, w = rng.sample(range(g.vcount), 2)
            rows[c][v], rows[c][w] = rows[c][w], rows[c][v]
    return CoverGraph(g.factors, (tuple(map(tuple, rows)), g.acts[1]))


def reference_cover_report(g: CoverGraph) -> CoverReport:
    """The report ``validate_cover`` must give, with the composition law
    checked for every pair of elements and vertex by vertex."""
    vertices = list(range(g.vcount))
    for f in (0, 1):
        group, rows = g.factors[f], g.acts[f]
        shape = tuple(len(row) for row in rows)
        if shape != (g.vcount,) * group.n:
            return CoverReport(False, "shape", (f, shape))
        if list(rows[0]) != vertices:
            return CoverReport(False, "identity action", (f,))
        for c in range(1, group.n):
            row = rows[c]
            if any(x not in vertices for x in row):
                return CoverReport(False, "property (1)", (f, c, "target out of range"))
            if sorted(row) != vertices:
                bad = next(v for v in vertices if list(row).count(v) != 1)
                return CoverReport(False, "property (1)", (f, c, bad))
            fixed = [v for v in vertices if row[v] == v]
            if fixed:
                return CoverReport(False, "freeness", (f, c, fixed[0]))
        for c in range(1, group.n):
            for d in range(1, group.n):
                if any(rows[d][rows[c][v]] != rows[group.mul(c, d)][v] for v in vertices):
                    return CoverReport(False, "group law", (f, c, d))
    return CoverReport(True)

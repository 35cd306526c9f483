"""Finite labelled graphs carrying one free action per factor.

A graph is stored as its actions: ``acts[f]`` is a tuple of ``n_f`` rows,
each a tuple of ``V`` ints, with ``acts[f][c][v]`` the endpoint of the
c-labelled edge out of v.  Rows are immutable, so no caller can change a
graph (or its cached orbits) behind its back.  Under the graph invariants
each nonidentity label acts by a fixed-point-free bijection and the labels
of one factor compose by the factor's multiplication, so every factor
component is a copy of that factor's Cayley graph.

The t-fold surgery construction takes marked vertices with a factor choice
each; edges of the marked factor incident to a mark are rewired across the t
layers (out-edges of a mark climb one layer, in-edges descend one), which
preserves both graph properties and multiplies the vertex count by t.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .config import json_int
from .errors import (
    BudgetExceeded,
    ConflictingMarks,
    FactorElement,
    InternalError,
    NotCyclicallyReduced,
    ParseError,
)
from .groupcore import FiniteGroup, Permutation, validate_group
from .words import (
    NormalForm,
    cartesian_basis,
    factor_image,
    finite_factors,
    invert,
    is_cyclically_reduced,
    multiply,
    rewrite,
)

DEFAULT_MAX_VERTICES = 10 ** 6

Move = tuple[int, tuple[tuple[int, int], ...]]  # (t', Cartesian-basis letters)
Rows = tuple[tuple[int, ...], ...]  # acts[f]: one row per factor element


@dataclass(eq=False)
class CoverGraph:
    factors: tuple[FiniteGroup, FiniteGroup]
    acts: tuple[Rows, Rows]
    _orbit_cache: dict = field(default_factory=dict, repr=False)

    @property
    def vcount(self) -> int:
        return len(self.acts[0][0])

    def factor_orbits(self, f: int) -> list[int]:
        """Label each vertex by the least vertex of its factor-f component."""
        if f not in self._orbit_cache:
            rows = self.acts[f]
            labels = [-1] * self.vcount
            for v in range(self.vcount):
                if labels[v] < 0:
                    for row in rows:
                        labels[row[v]] = v
            self._orbit_cache[f] = labels
        return self._orbit_cache[f]


@dataclass(frozen=True)
class CoverReport:
    ok: bool
    reason: str | None = None
    witness: tuple | None = None


@dataclass(frozen=True)
class XCycle:
    """One orbit of the x-action, walked as a closed path spelling x^k."""

    base: int
    k: int
    steps: tuple[tuple[int, int, int], ...]  # (start vertex, factor, element)
    close: bool


@dataclass(frozen=True)
class SurgeryMark:
    vertex: int
    factor: int


def validate_cover(g: CoverGraph) -> CoverReport:
    """Check label bijectivity, factor freeness, and the composition law."""
    identity = tuple(range(g.vcount))
    vertices = set(identity)
    for f in (0, 1):
        group = g.factors[f]
        rows = g.acts[f]
        shape = tuple(len(row) for row in rows)
        if shape != (g.vcount,) * group.n:
            return CoverReport(False, "shape", (f, shape))
        if tuple(rows[0]) != identity:
            return CoverReport(False, "identity action", (f,))
        for c in range(1, group.n):
            row = rows[c]
            targets = set(row)
            if targets != vertices:
                if not targets <= vertices:
                    return CoverReport(False, "property (1)", (f, c, "target out of range"))
                hits = [0] * g.vcount
                for x in row:
                    hits[x] += 1
                bad = next(v for v, k in enumerate(hits) if k != 1)
                return CoverReport(False, "property (1)", (f, c, bad))
            fixed = next((v for v, x in enumerate(row) if x == v), None)
            if fixed is not None:
                return CoverReport(False, "freeness", (f, c, fixed))
        for c in range(1, group.n):
            for d in range(1, group.n):
                if tuple(map(rows[d].__getitem__, rows[c])) != tuple(rows[group.mul(c, d)]):
                    return CoverReport(False, "group law", (f, c, d))
    return CoverReport(True)


def _checked(g: CoverGraph) -> CoverGraph:
    report = validate_cover(g)
    if not report.ok:
        raise InternalError(f"constructed graph invalid: {report.reason} at {report.witness}")
    return g


def cayley_base(a: FiniteGroup, b: FiniteGroup, max_vertices: int = DEFAULT_MAX_VERTICES) -> CoverGraph:
    """The direct-product action: vertices (x, y), factor 0 multiplying x and
    factor 1 multiplying y.  Every Cartesian-subgroup element acts trivially."""
    na, nb = a.n, b.n
    if na * nb > max_vertices:
        raise BudgetExceeded(f"{na * nb} vertices over budget {max_vertices}")
    acts0 = tuple(
        tuple(a.table[x][c] * nb + y for x in range(na) for y in range(nb)) for c in range(na)
    )
    acts1 = tuple(
        tuple(x * nb + b.table[y][c] for x in range(na) for y in range(nb)) for c in range(nb)
    )
    return _checked(CoverGraph((a, b), (acts0, acts1)))


def word_perm_array(g: CoverGraph, w: NormalForm) -> tuple[int, ...]:
    """The permutation v -> v*w as an index tuple."""
    p = tuple(range(g.vcount))
    for f, v in w.syllables:
        p = tuple(map(g.acts[f][v].__getitem__, p))
    return p


def perm_array_order(p: Sequence[int]) -> int:
    """lcm of cycle lengths of an index-array permutation."""
    seen = bytearray(len(p))
    order = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = 1
            cur = p[cur]
            length += 1
        order = math.lcm(order, length)
    return order


def word_order(g: CoverGraph, w: NormalForm) -> int:
    return perm_array_order(word_perm_array(g, w))


def _require_hyperbolic(x: NormalForm) -> None:
    if len(x) < 2:
        raise FactorElement("x-cycles need a hyperbolic word")
    if not is_cyclically_reduced(x):
        raise NotCyclicallyReduced(x.syllables)


def _walk_prefixes(g: CoverGraph, x: NormalForm) -> list[Sequence[int]]:
    """prefix[t][v] = v * (first t syllables of x), for t = 0..len(x)-1."""
    prefixes: list[Sequence[int]] = [range(g.vcount)]
    for f, v in x.syllables[:-1]:
        prefixes.append(tuple(map(g.acts[f][v].__getitem__, prefixes[-1])))
    return prefixes


def cycle_walks(g: CoverGraph, x: NormalForm) -> Iterator[tuple[list[int], list[int]]]:
    """Yield (orbit, walk) for each orbit of the x-action, by least vertex.

    ``orbit`` lists the orbit from its least vertex on; ``walk`` lists the
    start vertex of every edge of the closed path spelling x^k from there,
    so the edge at position i carries the label of syllable i mod len(x).
    """
    perm = word_perm_array(g, x)
    prefixes = _walk_prefixes(g, x)
    seen = bytearray(g.vcount)
    for base in range(g.vcount):
        if seen[base]:
            continue
        orbit = [base]
        seen[base] = 1
        cur = perm[base]
        while cur != base:
            orbit.append(cur)
            seen[cur] = 1
            cur = perm[cur]
        yield orbit, [prefix[v] for v in orbit for prefix in prefixes]


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


def close_pairs(g: CoverGraph, x: NormalForm) -> Iterator[tuple[list[int], int, int]]:
    """Yield (walk, i, j) for the first close pair of each close-edged x-cycle.

    ``walk`` is the cycle's walk from :func:`cycle_walks`; positions i < j
    carry two distinct edges in the same factor component, and j is the
    first position whose edge closes such a pair.
    """
    _require_hyperbolic(x)
    orbit_labels = (g.factor_orbits(0), g.factor_orbits(1))
    syl = x.syllables
    n = len(syl)
    for _orbit, walk in cycle_walks(g, x):
        first: dict[tuple[int, int], int] = {}  # component key -> first position
        for pos, start in enumerate(walk):
            f, val = syl[pos % n]
            key = (f, orbit_labels[f][start])
            prev = first.setdefault(key, pos)
            if prev != pos and (walk[prev], syl[prev % n]) != (start, (f, val)):
                yield walk, prev, pos
                break


def close_edge_scan(g: CoverGraph, x: NormalForm) -> tuple | None:
    """First close-edge witness over all x-cycles, or None.

    Returns (base, edge1, edge2) with the two distinct offending edges.
    """
    pair = next(close_pairs(g, x), None)
    if pair is None:
        return None
    walk, i, j = pair
    syl = x.syllables
    return (walk[0], (walk[i], *syl[i % len(syl)]), (walk[j], *syl[j % len(syl)]))


def gamma_surgery(
    g: CoverGraph,
    t: int,
    marks: Sequence[SurgeryMark],
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> CoverGraph:
    """t-fold copy-and-rewire at the marked vertices.

    Within the marked factor, out-edges of a mark end one layer up and
    in-edges of a mark start one layer up; everything else stays within its
    layer.  Two marks may not share a factor component.
    """
    if t < 1:
        raise ConflictingMarks(f"layer count {t} must be positive")
    v_old = g.vcount
    if t * v_old > max_vertices:
        raise BudgetExceeded(f"{t * v_old} vertices over budget {max_vertices}")
    used = set()
    for mark in marks:
        if not (0 <= mark.vertex < v_old) or mark.factor not in (0, 1):
            raise ConflictingMarks(f"bad mark {mark}")
        key = (mark.factor, g.factor_orbits(mark.factor)[mark.vertex])
        if key in used:
            raise ConflictingMarks(f"two marks share factor component {key}")
        used.add(key)

    new_acts = []
    for f in (0, 1):
        group = g.factors[f]
        rows = [tuple(range(t * v_old))]
        for c in range(1, group.n):
            m = g.acts[f][c]
            shift: dict[int, int] = {}
            for mark in marks:
                if mark.factor == f:
                    source = g.acts[f][group.inv[c]][mark.vertex]  # the edge into the mark
                    shift[mark.vertex] = shift.get(mark.vertex, 0) + 1
                    shift[source] = shift.get(source, 0) - 1
            row = [layer * v_old + x for layer in range(t) for x in m]
            for v, s in shift.items():
                for layer in range(t):
                    row[layer * v_old + v] = (layer + s) % t * v_old + m[v]
            rows.append(tuple(row))
        new_acts.append(tuple(rows))
    return _checked(CoverGraph(g.factors, (new_acts[0], new_acts[1])))


def synchronized_product(
    g1: CoverGraph,
    g2: CoverGraph,
    base: tuple[int, int] = (0, 0),
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> CoverGraph:
    """Diagonal-action product.  Keeps the full vertex-pair set when it fits
    the budget (the order of any word is then the lcm of its component
    orders), otherwise the connected component of the base pair."""
    if g1.factors[0].table != g2.factors[0].table or g1.factors[1].table != g2.factors[1].table:
        raise ParseError("product factors disagree")
    v1, v2 = g1.vcount, g2.vcount
    if not (0 <= base[0] < v1 and 0 <= base[1] < v2):
        raise ParseError(f"product base {base} outside {v1} x {v2} vertices")
    if v1 * v2 <= max_vertices:
        new_acts = tuple(
            tuple(tuple(x * v2 + y for x in r1 for y in r2) for r1, r2 in zip(g1.acts[f], g2.acts[f]))
            for f in (0, 1)
        )
        return _checked(CoverGraph(g1.factors, (new_acts[0], new_acts[1])))

    # component of the base pair under the diagonal action
    moves = [(g1.acts[f][c], g2.acts[f][c]) for f in (0, 1) for c in range(1, g1.factors[f].n)]
    ids: dict[tuple[int, int], int] = {base: 0}
    order: list[tuple[int, int]] = [base]
    head = 0
    while head < len(order):
        p1, p2 = order[head]
        head += 1
        for r1, r2 in moves:
            q = (r1[p1], r2[p2])
            if q not in ids:
                if len(ids) >= max_vertices:
                    raise BudgetExceeded(f"product component over budget {max_vertices}")
                ids[q] = len(order)
                order.append(q)
    new_acts = []
    for f in (0, 1):
        rows = [tuple(range(len(order)))]
        for r1, r2 in zip(g1.acts[f][1:], g2.acts[f][1:]):
            rows.append(tuple(ids[(r1[p1], r2[p2])] for p1, p2 in order))
        new_acts.append(tuple(rows))
    return _checked(CoverGraph(g1.factors, (new_acts[0], new_acts[1])))


@functools.lru_cache(maxsize=64)
def _induction_moves(a: FiniteGroup, b: FiniteGroup) -> tuple[tuple[tuple[Move, ...], ...], ...]:
    """The fiber-free part of :func:`induced_graph`, per factor pair.

    ``moves[f][c][t]`` is ``(t', letters)``: the syllable (f, c) takes the
    transversal element t to the coset of t', with Schreier element
    t * (f, c) * t'^-1 = ``letters`` over the Cartesian basis.  The result
    is immutable, so the cache can hand it to every caller.
    """
    factors = finite_factors(a, b)
    cb = cartesian_basis(factors)
    moves = []
    for f in (0, 1):
        per_syllable = [()]
        for c in range(1, (a, b)[f].n):
            syllable = NormalForm(((f, c),))
            row = []
            for t_word in cb.transversal:
                moved = multiply(t_word, syllable, factors)
                ia, ib = factor_image(moved, factors)
                t2_idx = ia * b.n + ib
                gamma = multiply(moved, invert(cb.transversal[t2_idx], factors), factors)
                row.append((t2_idx, tuple(rewrite(gamma, factors))))
            per_syllable.append(tuple(row))
        moves.append(tuple(per_syllable))
    return tuple(moves)


def induced_graph(
    a: FiniteGroup,
    b: FiniteGroup,
    y_count: int,
    psi: Sequence[Permutation],
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> CoverGraph:
    """Action of the free product on (coset transversal of C) x fiber.

    ``psi`` assigns a permutation of the fiber to each Cartesian-basis
    generator; a syllable s moves (t, y) to (t', y * psihat(t s t'^-1)) where
    t' represents the coset of t*s.  Any word that moves no transversal
    coordinate has trivial direct-product image, so the kernel of the induced
    action lies in the Cartesian subgroup.
    """
    rank = (a.n - 1) * (b.n - 1)
    if len(psi) != rank:
        raise InternalError(f"psi has {len(psi)} entries, want rank {rank}")
    for perm in psi:
        if perm.degree != y_count:
            raise InternalError("fiber permutation degree mismatch")
    v_new = a.n * b.n * y_count
    if v_new > max_vertices:
        raise BudgetExceeded(f"{v_new} vertices over budget {max_vertices}")

    maps = [p.map for p in psi]
    inverse_maps = [p.inverse().map for p in psi]

    def psihat(letters: tuple[tuple[int, int], ...]) -> Sequence[int]:
        out: Sequence[int] = range(y_count)
        for idx, exp in letters:
            out = tuple(map((maps[idx] if exp > 0 else inverse_maps[idx]).__getitem__, out))
        return out

    new_acts = []
    for per_syllable in _induction_moves(a, b):
        rows = [tuple(range(v_new))]
        for moves in per_syllable[1:]:
            row: list[int] = []
            # transversal element t fills positions t*y .. t*y + y - 1, in order
            for t2_idx, letters in moves:
                offset = t2_idx * y_count
                row.extend([offset + point for point in psihat(letters)])
            rows.append(tuple(row))
        new_acts.append(tuple(rows))
    return _checked(CoverGraph((a, b), (new_acts[0], new_acts[1])))


def graph_to_json(g: CoverGraph) -> dict:
    return {
        "vcount": g.vcount,
        "factors": [[list(row) for row in g.factors[f].table] for f in (0, 1)],
        "action": [
            [list(labels) for labels in zip(*g.acts[f][1:])] or [[] for _ in range(g.vcount)]
            for f in (0, 1)
        ],
    }


def graph_from_json(data: dict) -> CoverGraph:
    try:
        vcount = json_int(data["vcount"], "vcount")
        groups = tuple(validate_group(tbl) for tbl in data["factors"])
        acts = []
        for f in (0, 1):
            n = groups[f].n
            rows = data["action"][f]
            if len(rows) != vcount:
                raise ParseError(f"action[{f}] has {len(rows)} rows, want {vcount}")
            for v, row in enumerate(rows):
                if len(row) != n - 1:
                    raise ParseError(f"action[{f}][{v}] has wrong width")
                for c, x in enumerate(row):
                    json_int(x, f"action[{f}][{v}][{c}]")
            acts.append(
                (tuple(range(vcount)),)
                + tuple(tuple(row[c - 1] for row in rows) for c in range(1, n))
            )
        g = CoverGraph((groups[0], groups[1]), (acts[0], acts[1]))
    except ParseError:
        raise
    except Exception as exc:  # malformed structure, wrong types, missing keys
        raise ParseError(f"bad graph JSON: {exc}") from exc
    report = validate_cover(g)
    if not report.ok:
        raise ParseError(f"graph violates {report.reason} at {report.witness}")
    return g


def graph_to_dot(g: CoverGraph) -> str:
    lines = ["digraph cover {"]
    for v in range(g.vcount):
        lines.append(f"  n{v};")
    for f in (0, 1):
        for c in range(1, g.factors[f].n):
            arr = g.acts[f][c]
            for v in range(g.vcount):
                lines.append(f'  n{v} -> n{arr[v]} [label="f{f}:{c}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

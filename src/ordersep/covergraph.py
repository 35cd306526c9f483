"""Finite labelled graphs carrying one free action per factor.

A graph is stored as its actions: ``acts[f]`` has shape ``(n_f, V)`` with
``acts[f][c][v]`` the endpoint of the c-labelled edge out of v.  Under the
graph invariants each nonidentity label acts by a fixed-point-free bijection
and the labels of one factor compose by the factor's multiplication, so every
factor component is a copy of that factor's Cayley graph.

The t-fold surgery construction takes marked vertices with a factor choice
each; edges of the marked factor incident to a mark are rewired across the t
layers (out-edges of a mark climb one layer, in-edges descend one), which
preserves both graph properties and multiplies the vertex count by t.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

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


@dataclass(eq=False)
class CoverGraph:
    factors: tuple[FiniteGroup, FiniteGroup]
    acts: tuple[np.ndarray, np.ndarray]
    provenance: str = "base"
    basepoint: int = 0
    _orbit_cache: dict = field(default_factory=dict, repr=False)

    @property
    def vcount(self) -> int:
        return int(self.acts[0].shape[1])

    def factor_orbits(self, f: int) -> np.ndarray:
        """Label each vertex by the least vertex of its factor-f component."""
        if f not in self._orbit_cache:
            arr = self.acts[f]
            labels = np.full(self.vcount, -1, dtype=np.int64)
            for v in range(self.vcount):
                if labels[v] < 0:
                    labels[arr[:, v]] = v
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
    v_range = np.arange(g.vcount, dtype=np.int64)
    for f in (0, 1):
        group = g.factors[f]
        arr = g.acts[f]
        if arr.shape != (group.n, g.vcount):
            return CoverReport(False, "shape", (f, arr.shape))
        if not np.array_equal(arr[0], v_range):
            return CoverReport(False, "identity action", (f,))
        for c in range(1, group.n):
            if arr[c].min(initial=0) < 0 or arr[c].max(initial=0) >= g.vcount:
                return CoverReport(False, "property (1)", (f, c, "target out of range"))
            counts = np.bincount(arr[c], minlength=g.vcount)
            if counts.max(initial=0) != 1:
                bad = int(np.flatnonzero(counts != 1)[0])
                return CoverReport(False, "property (1)", (f, c, bad))
            fixed = np.flatnonzero(arr[c] == v_range)
            if fixed.size:
                return CoverReport(False, "freeness", (f, c, int(fixed[0])))
        for c in range(1, group.n):
            for d in range(1, group.n):
                expected = arr[group.mul(c, d)]
                if not np.array_equal(arr[d][arr[c]], expected):
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
    ta = np.array(a.table, dtype=np.int64)
    tb = np.array(b.table, dtype=np.int64)
    cols = np.arange(nb, dtype=np.int64)
    rows = np.arange(na, dtype=np.int64)
    acts0 = np.empty((na, na * nb), dtype=np.int64)
    acts1 = np.empty((nb, na * nb), dtype=np.int64)
    for c in range(na):
        acts0[c] = (ta[:, c][:, None] * nb + cols[None, :]).reshape(-1)
    for c in range(nb):
        acts1[c] = (rows[:, None] * nb + tb[:, c][None, :]).reshape(-1)
    return _checked(CoverGraph((a, b), (acts0, acts1), provenance="base"))


def word_perm_array(g: CoverGraph, w: NormalForm) -> np.ndarray:
    """The permutation v -> v*w as an index array."""
    p = np.arange(g.vcount, dtype=np.int64)
    for f, v in w.syllables:
        p = g.acts[f][v][p]
    return p


def word_permutation(g: CoverGraph, w: NormalForm) -> Permutation:
    return Permutation(g.vcount, tuple(int(x) for x in word_perm_array(g, w)))


def perm_array_order(p: np.ndarray) -> int:
    """lcm of cycle lengths of an index-array permutation."""
    n = len(p)
    seen = np.zeros(n, dtype=bool)
    order = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = int(p[cur])
            length += 1
        order = order * length // _gcd(order, length)
    return order


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def word_order(g: CoverGraph, w: NormalForm) -> int:
    return perm_array_order(word_perm_array(g, w))


def _require_hyperbolic(x: NormalForm) -> None:
    if len(x) < 2:
        raise FactorElement("x-cycles need a hyperbolic word")
    if not is_cyclically_reduced(x):
        raise NotCyclicallyReduced(x.syllables)


def _walk_prefixes(g: CoverGraph, x: NormalForm) -> list[np.ndarray]:
    """prefix[t][v] = v * (first t syllables of x), for t = 0..len(x)-1."""
    prefixes = [np.arange(g.vcount, dtype=np.int64)]
    for f, v in x.syllables[:-1]:
        prefixes.append(g.acts[f][v][prefixes[-1]])
    return prefixes


def x_cycles(g: CoverGraph, x: NormalForm) -> list[XCycle]:
    """One cycle per orbit of the x-action, with its close-edge flag.

    A cycle is close-edged when two distinct edges of it lie in the same
    factor component; repeated traversals of one edge do not count.
    """
    _require_hyperbolic(x)
    perm = word_perm_array(g, x)
    prefixes = _walk_prefixes(g, x)
    orbit_labels = (g.factor_orbits(0), g.factor_orbits(1))
    syl = x.syllables
    out = []
    seen = np.zeros(g.vcount, dtype=bool)
    for base in range(g.vcount):
        if seen[base]:
            continue
        orbit = [base]
        cur = int(perm[base])
        while cur != base:
            orbit.append(cur)
            cur = int(perm[cur])
        seen[np.array(orbit)] = True
        steps = []
        for v in orbit:
            for t, (f, val) in enumerate(syl):
                steps.append((int(prefixes[t][v]), f, val))
        edges = set(steps)
        keys = {}
        close = False
        for start, f, val in edges:
            key = (f, int(orbit_labels[f][start]))
            if key in keys:
                close = True
                break
            keys[key] = (start, f, val)
        out.append(XCycle(base, len(orbit), tuple(steps), close))
    return out


def close_edge_scan(g: CoverGraph, x: NormalForm) -> tuple | None:
    """First close-edge witness over all x-cycles, or None.

    Returns (base, edge1, edge2) with the two distinct offending edges.
    """
    _require_hyperbolic(x)
    perm = word_perm_array(g, x)
    prefixes = _walk_prefixes(g, x)
    orbit_labels = (g.factor_orbits(0), g.factor_orbits(1))
    syl = x.syllables
    seen = np.zeros(g.vcount, dtype=bool)
    for base in range(g.vcount):
        if seen[base]:
            continue
        orbit = [base]
        cur = int(perm[base])
        while cur != base:
            orbit.append(cur)
            cur = int(perm[cur])
        seen[np.array(orbit)] = True
        keys: dict[tuple[int, int], tuple[int, int, int]] = {}
        for v in orbit:
            for t, (f, val) in enumerate(syl):
                start = int(prefixes[t][v])
                edge = (start, f, val)
                key = (f, int(orbit_labels[f][start]))
                prev = keys.get(key)
                if prev is None:
                    keys[key] = edge
                elif prev != edge:
                    return (base, prev, edge)
    return None


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
        key = (mark.factor, int(g.factor_orbits(mark.factor)[mark.vertex]))
        if key in used:
            raise ConflictingMarks(f"two marks share factor component {key}")
        used.add(key)

    new_acts = []
    for f in (0, 1):
        group = g.factors[f]
        arr = np.empty((group.n, t * v_old), dtype=np.int64)
        arr[0] = np.arange(t * v_old, dtype=np.int64)
        for c in range(1, group.n):
            m = g.acts[f][c]
            shift = np.zeros(v_old, dtype=np.int64)
            inv_m = np.empty(v_old, dtype=np.int64)
            inv_m[m] = np.arange(v_old, dtype=np.int64)
            for mark in marks:
                if mark.factor == f:
                    shift[mark.vertex] += 1
                    shift[inv_m[mark.vertex]] -= 1
            layers = (np.arange(t, dtype=np.int64)[:, None] + shift[None, :]) % t
            arr[c] = (layers * v_old + m[None, :]).reshape(-1)
        new_acts.append(arr)
    return _checked(
        CoverGraph(
            g.factors,
            (new_acts[0], new_acts[1]),
            provenance=f"surgery(t={t}, marks={[(m.vertex, m.factor) for m in marks]}) of [{g.provenance}]",
        )
    )


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
        raise InternalError("product factors disagree")
    v1, v2 = g1.vcount, g2.vcount
    if v1 * v2 <= max_vertices:
        new_acts = []
        for f in (0, 1):
            n = g1.factors[f].n
            arr = np.empty((n, v1 * v2), dtype=np.int64)
            for c in range(n):
                arr[c] = (g1.acts[f][c][:, None] * v2 + g2.acts[f][c][None, :]).reshape(-1)
            new_acts.append(arr)
        g = CoverGraph(
            g1.factors,
            (new_acts[0], new_acts[1]),
            provenance=f"product[{g1.provenance} x {g2.provenance}]",
            basepoint=base[0] * v2 + base[1],
        )
        return _checked(g)

    # component of the base pair under the diagonal action
    moves = [(f, c) for f in (0, 1) for c in range(1, g1.factors[f].n)]
    ids: dict[tuple[int, int], int] = {base: 0}
    order: list[tuple[int, int]] = [base]
    head = 0
    while head < len(order):
        p1, p2 = order[head]
        head += 1
        for f, c in moves:
            q = (int(g1.acts[f][c][p1]), int(g2.acts[f][c][p2]))
            if q not in ids:
                if len(ids) >= max_vertices:
                    raise BudgetExceeded(f"product component over budget {max_vertices}")
                ids[q] = len(order)
                order.append(q)
    size = len(order)
    new_acts = []
    for f in (0, 1):
        n = g1.factors[f].n
        arr = np.empty((n, size), dtype=np.int64)
        arr[0] = np.arange(size, dtype=np.int64)
        for c in range(1, n):
            arr[c] = [ids[(int(g1.acts[f][c][p1]), int(g2.acts[f][c][p2]))] for p1, p2 in order]
        new_acts.append(arr)
    g = CoverGraph(
        g1.factors,
        (new_acts[0], new_acts[1]),
        provenance=f"product-component[{g1.provenance} x {g2.provenance}]",
    )
    return _checked(g)


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

    psi_arrays = [np.array(p.map, dtype=np.int64) for p in psi]
    psi_inv_arrays = [np.array(p.inverse().map, dtype=np.int64) for p in psi]
    fiber_id = np.arange(y_count, dtype=np.int64)

    def psihat(letters: tuple[tuple[int, int], ...]) -> np.ndarray:
        out = fiber_id
        for idx, exp in letters:
            out = (psi_arrays[idx] if exp > 0 else psi_inv_arrays[idx])[out]
        return out

    new_acts = []
    for f, per_syllable in enumerate(_induction_moves(a, b)):
        arr = np.empty((len(per_syllable), v_new), dtype=np.int64)
        arr[0] = np.arange(v_new, dtype=np.int64)
        for c in range(1, len(per_syllable)):
            for t_idx, (t2_idx, letters) in enumerate(per_syllable[c]):
                arr[c][t_idx * y_count + fiber_id] = t2_idx * y_count + psihat(letters)
        new_acts.append(arr)
    return _checked(
        CoverGraph(
            (a, b),
            (new_acts[0], new_acts[1]),
            provenance=f"induced(y={y_count})",
        )
    )


def graphs_equal(g1: CoverGraph, g2: CoverGraph) -> bool:
    return (
        g1.factors[0].table == g2.factors[0].table
        and g1.factors[1].table == g2.factors[1].table
        and g1.vcount == g2.vcount
        and np.array_equal(g1.acts[0], g2.acts[0])
        and np.array_equal(g1.acts[1], g2.acts[1])
    )


def graph_to_json(g: CoverGraph) -> dict:
    return {
        "vcount": g.vcount,
        "factors": [[list(row) for row in g.factors[f].table] for f in (0, 1)],
        "action": [
            [[int(g.acts[f][c][v]) for c in range(1, g.factors[f].n)] for v in range(g.vcount)]
            for f in (0, 1)
        ],
    }


def graph_from_json(data: dict) -> CoverGraph:
    try:
        vcount = int(data["vcount"])
        groups = tuple(validate_group(tbl) for tbl in data["factors"])
        acts = []
        for f in (0, 1):
            n = groups[f].n
            arr = np.empty((n, vcount), dtype=np.int64)
            arr[0] = np.arange(vcount, dtype=np.int64)
            rows = data["action"][f]
            if len(rows) != vcount:
                raise ParseError(f"action[{f}] has {len(rows)} rows, want {vcount}")
            for v, row in enumerate(rows):
                if len(row) != n - 1:
                    raise ParseError(f"action[{f}][{v}] has wrong width")
                for c in range(1, n):
                    arr[c][v] = int(row[c - 1])
            acts.append(arr)
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
                lines.append(f'  n{v} -> n{int(arr[v])} [label="f{f}:{c}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_graph_json(text: str) -> CoverGraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    return graph_from_json(data)

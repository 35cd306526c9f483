"""Independent certificate verification and a brute-force search oracle.

The verifier re-walks every target through the certificate's raw data with
its own reduction and action code (nothing shared with the construction
path), recomputes all orders, and checks the claims.  It checks the
instance it reads as well: schema 1, exactly two factors, each a group
table with identity 0 or infinite cyclic, and each target a list of
``[factor, value]`` syllables that name factor elements.  A passing report
therefore implies that the construction's instance parser accepts the
factors and targets; the instance's ``mode`` and ``config`` are not read.

The oracle searches small-degree permutation assignments exhaustively,
deduplicated up to simultaneous conjugation, and is used to cross-check
engine results.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import BadSyllable, BudgetExceeded, HypothesisViolation, InfiniteFactor

OracleImages = tuple[tuple[int, ...], ...]
# largest modulus whose Z/m table the verifier builds (134 MB at 2**12): a
# certificate names m in a few bytes, so without a bound it could ask for
# any amount of memory
MAX_MODULUS = 2 ** 12


@dataclass
class VerifyReport:
    orders: dict[int, int] = field(default_factory=dict)
    distinct: dict[tuple[int, int], bool] = field(default_factory=dict)
    checks: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "verdict": "pass" if self.verdict else "fail",
            "orders": {str(i): o for i, o in sorted(self.orders.items())},
            "distinct": [[i, j, ok] for (i, j), ok in sorted(self.distinct.items())],
            "checks": self.checks,
            "failures": self.failures,
        }


def _mul_table_ok(table: list[list[int]]) -> tuple[str | None, list[int]]:
    """The first failure of a group table, or None, with the table's
    generating sequence (empty when the table fails before it is read)."""
    n = len(table)
    if n == 0:
        return "empty table", []
    full = list(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            return f"row {i} wrong length", []
        if sorted(row) != full:
            return f"row {i} not a permutation", []
    if not all(type(x) is int for row in table for x in row):  # 1 == 1.0 == True
        return "entry not an integer", []
    for j, column in enumerate(zip(*table)):
        if sorted(column) != full:
            return f"column {j} not a permutation", []
    if any(table[0][i] != i or table[i][0] != i for i in range(n)):
        return "identity is not element 0", []
    # Light's test (Clifford and Preston, *The Algebraic Theory of
    # Semigroups*, vol. 1, 1961): the g with (x*g)*y = x*(g*y) for all x, y
    # are closed under products, so the generators cover every element
    gens = _generating_sequence(table)
    if all(
        table[row_x[g]] == [row_x[y] for y in table[g]]
        for g in gens
        for row_x in table
    ):
        return None, gens
    # name the first failing triple, row by row: (a*b)*c over all c
    # against a*(b*c); a or b = 0 holds
    for a in range(1, n):
        row_a = table[a]
        for b in range(1, n):
            row_ab, row_b = table[row_a[b]], table[b]
            if row_ab != [row_a[x] for x in row_b]:
                c = next(c for c in range(n) if row_ab[c] != row_a[row_b[c]])
                return f"associativity fails at ({a},{b},{c})", gens
    return None, gens


def _cyclic_table(m: int) -> list[list[int]]:
    """The table of Z/m: row i is 0..m-1 rotated by i."""
    row = list(range(m))
    return [row[i:] + row[:i] for i in range(m)]


def _hom_ok(hom: dict, source: dict) -> tuple[str | None, list[list[int]], list[int]]:
    """The first failure of a factor hom, or None, with its target table and
    the table's generating sequence.

    Only a ``finite`` hom's table is read from the certificate.  An
    ``identity`` hom's target is the instance's factor table, checked as a
    group here; a modulus hom's is Z/m, built here.  A table that either
    carries is not read.  A ``finite`` hom's source, the instance's factor
    table, is checked as a group too: the homomorphism law alone holds for a
    trivial map over any table."""
    kind = hom.get("kind")
    if kind == "infinite_cyclic":
        if source.get("type") != "infinite_cyclic":
            return "modulus hom on finite factor", [], []
        modulus = hom.get("modulus")
        if type(modulus) is not int or not 1 <= modulus <= MAX_MODULUS:
            return f"modulus {modulus!r} not in 1..{MAX_MODULUS}", [], []
        return None, _cyclic_table(modulus), [1] if modulus > 1 else []
    if kind not in ("identity", "finite"):
        return f"unknown hom kind {kind!r}", [], []
    if source.get("type") != "finite":
        return f"{kind} hom on non-finite factor", [], []
    src = source.get("table")
    if kind == "finite":
        err = _mul_table_ok(src)[0] if isinstance(src, list) else "missing table"
        if err:
            return f"source not a group: {err}", [], []
    table = src if kind == "identity" else hom.get("target_table")
    if not isinstance(table, list):
        return "missing target table", [], []
    err, gens = _mul_table_ok(table)
    if err:
        return f"target not a group: {err}", [], []
    if kind == "finite":
        return _finite_map_error(hom, source, table), table, gens
    return None, table, gens


def _finite_map_error(hom: dict, source: dict, table: list[list[int]]) -> str | None:
    """The first failure of a finite hom's map onto a checked target table."""
    src = source["table"]
    mapping = hom.get("map")
    if not isinstance(mapping, list) or len(mapping) != len(src) or mapping[0] != 0:
        return "map shape wrong"
    if any(type(m) is not int or not 0 <= m < len(table) for m in mapping):
        return "map entry out of range"
    # row by row: map(x*y) over all y against map(x)*map(y)
    for x, row in enumerate(src):
        image_row = table[mapping[x]]
        if [mapping[z] for z in row] != [image_row[m] for m in mapping]:
            y = next(y for y, z in enumerate(row) if mapping[z] != image_row[mapping[y]])
            return f"not a homomorphism at ({x},{y})"
    return None


def _is_factor_element(f, v, sizes: list[int | None]) -> bool:
    """Whether (f, v) names an element of factor f: f is the int 0 or 1 and
    v an int, in range for a finite factor of ``sizes[f]`` elements (None
    for an infinite cyclic factor).  ``bool`` is a subclass of int, so
    types are compared."""
    if type(f) is not int or f not in (0, 1) or type(v) is not int:
        return False
    return sizes[f] is None or 0 <= v < sizes[f]


def _map_syllables(word: list[tuple[int, int]], homs: list[dict]) -> list[tuple[int, int]]:
    out = []
    for f, v in word:
        hom = homs[f]
        if hom["kind"] == "finite":
            v = hom["map"][v]
        elif hom["kind"] == "infinite_cyclic":
            v %= hom["modulus"]
        out.append((f, v))
    return out


def _reduce(word: list[tuple[int, int]], tables: list[list[list[int]]]) -> list[tuple[int, int]]:
    stack: list[tuple[int, int]] = []
    for f, v in word:
        if v == 0:
            continue
        while stack and stack[-1][0] == f:
            prev_f, prev_v = stack.pop()
            v = tables[f][prev_v][v]
            if v == 0:
                break
        else:
            stack.append((f, v))
    return stack


def _column_error(column: list, identity: list, f: int, c: int) -> str | None:
    """First property (1)/(2) failure of element ``c``'s column, in vertex
    order; a column of ints that permutes the vertices and fixes none
    passes at once."""
    if (
        set(map(type, column)) == {int}
        and sorted(column) == identity
        and not any(map(operator.eq, column, identity))
    ):
        return None
    vcount = len(identity)
    seen = [False] * vcount
    for v, tgt in enumerate(column):
        if type(tgt) is not int or not (0 <= tgt < vcount):
            return "property (1): target out of range"
        if seen[tgt]:
            return f"property (1) fails for factor {f} element {c}"
        seen[tgt] = True
        if tgt == v:
            return f"property (2) fails: freeness at vertex {v}"
    return None


def _law_failures(columns: list, table: list[list[int]], identity: list, elements) -> list:
    """Pairs (c, d), c from ``elements``, where c's column then d's is not
    (cd)'s; column c-1 holds element c's action."""
    return [
        (c, d)
        for c in elements
        for d in range(1, len(table))
        if list(map(columns[d - 1].__getitem__, columns[c - 1]))
        != (identity if table[c][d] == 0 else columns[table[c][d] - 1])
    ]


def _graph_ok(
    graph: dict, hom_tables: list[list[list[int]]], gens: list[list[int]] | None = None
) -> str | None:
    """First failure of a component graph over the hom tables, or None.

    ``gens`` holds a generating sequence per factor table (computed when not
    given).  The composition law is checked for generators c and every d:
    the tables are associative, so the law for a and for g gives it for ag
    (Light's argument, as in ``_mul_table_ok``).  Only a failure checks every
    pair, to name the first.
    """
    if not isinstance(graph, dict):
        return "missing graph"
    vcount = graph.get("vcount")
    if type(vcount) is not int or vcount < 1:
        return "bad vertex count"
    tables = graph.get("factors")
    # the hom tables hold ints only, but 1 == 1.0 == True
    if tables != hom_tables or not all(type(x) is int for t in tables for row in t for x in row):
        return "graph factors disagree with the factor homomorphisms"
    if gens is None:
        gens = [_generating_sequence(table) for table in tables]
    action = graph.get("action")
    if not isinstance(action, list) or len(action) != 2:
        return "bad action shape"
    identity = list(range(vcount))
    for f in (0, 1):
        n = len(tables[f])
        rows = action[f]
        if len(rows) != vcount:
            return f"action[{f}] wrong length"
        if n < 2:
            continue
        # column c-1 holds element c's action; a short or long row is
        # reported where the vertex walk of element 1 reaches it
        if set(map(len, rows)) == {n - 1}:
            wide = None
            columns = list(map(list, zip(*rows)))
        else:
            wide = next(v for v, row in enumerate(rows) if len(row) != n - 1)
            columns = [[row[0] for row in rows[:wide]]]
        for c, column in enumerate(columns, 1):
            err = _column_error(column, identity, f, c)
            if err:
                return err
        if wide is not None:
            return f"action[{f}][{wide}] wrong width"
        if _law_failures(columns, tables[f], identity, gens[f]):
            c, d = _law_failures(columns, tables[f], identity, range(1, n))[0]
            return f"group law fails for factor {f} at ({c},{d})"
    return None


def _product_order(word: list[tuple[int, int]], tables: list[list[list[int]]]) -> int:
    """The order of a word on the regular action of the direct product of
    ``tables``: the lcm of the orders of its images in the two factors."""
    image = [0, 0]
    for f, v in word:
        image[f] = tables[f][image[f]][v]
    return math.lcm(*(_factor_element_order(tables[f], image[f]) for f in (0, 1)))


def _walk_order(word: list[tuple[int, int]], graph: dict) -> int:
    vcount = graph["vcount"]
    action = graph["action"]
    perm = list(range(vcount))
    for f, v in word:
        rows = action[f]
        perm = [rows[x][v - 1] for x in perm]
    seen = [False] * vcount
    order = 1
    for start in range(vcount):
        if seen[start]:
            continue
        length, cur = 0, start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur]
            length += 1
        order = order * length // math.gcd(order, length)
    return order


def verify_certificate(instance_data: dict, cert_data: dict) -> VerifyReport:
    """Recompute every claim of a certificate from raw data.

    Each factor hom names its target table in one of three ways (schema 3,
    the engine's ``Certificate``):

    - ``{"kind": "identity"}``: the instance's factor table, which must be
      a group table with identity 0; there is no map to check;
    - ``{"kind": "infinite_cyclic", "modulus": m}``: Z/m, which the
      verifier builds itself (1 <= m <= ``MAX_MODULUS``), with 1 the image
      of the generator;
    - ``{"kind": "finite", "map": [...], "target_table": [...]}``: the
      carried table, checked as a group table, and the map, checked as a
      homomorphism from the instance's factor table onto it.

    Schema-1 and schema-2 certificates carry every hom as ``finite`` or as
    a modulus hom with a table; the same rule reads them, and a modulus
    hom's carried table is ignored.

    The witness action is the regular action of the direct product of the
    two target tables, which the certificate leaves implicit, disjoint-union
    its component graphs.  Validates the factor homomorphisms and every
    component graph, maps and reduces each original target through an
    independent code path, recomputes its order as the lcm of its order in
    that direct product (from the tables) and its walked order on each
    component, and compares the orders and their pairwise distinctness with
    the claims.  The instance must be schema 1, an integer, with exactly
    two factors and a list of targets, each a list of two-entry syllable
    lists.  A certificate may list no component.  One that carries a
    ``product`` graph, which no engine emits any more, fails: that graph is
    not checked.  Malformed data of any shape gives a failing report, not
    an exception.
    """
    report = VerifyReport()
    try:
        return _check_certificate(report, instance_data, cert_data)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        report.failures.append(f"malformed data: {exc!r}")
        return report


def _check_certificate(report: VerifyReport, instance_data: dict, cert_data: dict) -> VerifyReport:
    """The checks of ``verify_certificate``, failures added to ``report``."""

    def fail(msg: str) -> VerifyReport:
        report.failures.append(msg)
        return report

    try:
        schema = instance_data.get("schema", 1)
        factors = instance_data["factors"]
        words = instance_data["targets"]
        homs = cert_data["factor_homs"]
        components = cert_data["components"]
        claimed = {int(k): v for k, v in cert_data["orders"].items()}
    except Exception as exc:
        return fail(f"unreadable data: {exc}")
    if type(schema) is not int or schema != 1:  # bool and float are not schema 1
        return fail(f"unsupported instance schema {schema!r}")
    if type(factors) is not list or len(factors) != 2:
        return fail("the instance needs exactly two factors")
    if type(words) is not list:
        return fail("the instance's targets are not a list")
    for i, order in sorted(claimed.items()):
        if type(order) is not int:  # bool is a subclass of int
            return fail(f"target {i}: claimed order {order!r} is not an integer")
    if cert_data.get("product") is not None:
        return fail("certificate carries a product graph, which is not checked")

    if len(homs) != 2:
        return fail("need exactly two factor homomorphisms")
    hom_tables, hom_gens = [], []
    for f, hom in enumerate(homs):
        err, table, gens = _hom_ok(hom, factors[f])
        if err:
            return fail(f"factor hom {f}: {err}")
        hom_tables.append(table)
        hom_gens.append(gens)
    report.checks.append("factor homomorphisms are valid")

    # each hom has been checked against its factor's type
    sizes = [len(src["table"]) if src["type"] == "finite" else None for src in factors]
    raw_targets = []
    for i, word in enumerate(words):
        if type(word) is not list or any(type(s) is not list or len(s) != 2 for s in word):
            return fail(f"target {i} is not a list of [factor, value] syllables")
        for f, v in word:
            if not _is_factor_element(f, v, sizes):
                return fail(f"target {i}: syllable {[f, v]!r} is not a factor element")
        raw_targets.append([(f, v) for f, v in word])

    mapped = [
        _reduce(_map_syllables(word, homs), hom_tables) for word in raw_targets
    ]

    graph_components = []
    for n, comp in enumerate(components):
        if comp.get("type") != "graph":
            return fail(f"component {n}: unknown type {comp.get('type')!r}")
        err = _graph_ok(comp.get("graph"), hom_tables, hom_gens)
        if err:
            return fail(f"component {n}: {err}")
        graph_components.append(comp["graph"])
    report.checks.append(f"{len(graph_components)} component graphs satisfy both graph properties")

    recomputed: dict[int, int] = {}
    for i, word in enumerate(mapped):
        per_comp = [_walk_order(word, graph) for graph in graph_components]
        recomputed[i] = math.lcm(_product_order(word, hom_tables), *per_comp)
    report.orders = recomputed
    report.checks.append("orders recomputed from the factor tables and by independent word walking")

    if set(claimed) != set(recomputed):
        return fail("claimed orders do not cover the targets")
    for i in sorted(recomputed):
        if claimed[i] != recomputed[i]:
            report.failures.append(
                f"target {i}: claimed order {claimed[i]} != recomputed {recomputed[i]}"
            )
    if report.failures:
        return report

    for i in sorted(recomputed):
        for j in sorted(recomputed):
            if i < j:
                ok = recomputed[i] != recomputed[j]
                report.distinct[(i, j)] = ok
                if not ok:
                    report.failures.append(
                        f"targets {i} and {j} share the image order {recomputed[i]}"
                    )
    if report.failures:
        return report
    report.checks.append("image orders are pairwise distinct")

    if not cert_data.get("verified", False):
        report.failures.append("certificate does not claim verified status")
    return report


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleResult:
    found: bool
    degree: int = 0
    images: OracleImages | None = None
    orders: dict[int, int] | None = None

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "found": self.found,
            "degree": self.degree,
            "images": [list(p) for p in self.images] if self.images else None,
            "orders": {str(i): o for i, o in sorted(self.orders.items())} if self.orders else None,
        }


def _generating_sequence(table: list[list[int]]) -> list[int]:
    """Greedy generators: the least element not yet reached joins, and a walk
    by right multiplication from everything reached so far adds the
    products.  Every element is then a product of the generators; in a group
    they are the same ones a two-sided closure would pick."""
    gens: list[int] = []
    reached = [True] + [False] * (len(table) - 1)
    walk = [0]
    for g in range(1, len(table)):
        if reached[g]:
            continue
        gens.append(g)
        reached[g] = True
        walk.append(g)
        for x in walk:  # the walk grows as it goes
            for h in gens:
                y = table[x][h]
                if not reached[y]:
                    reached[y] = True
                    walk.append(y)
    return gens


def _element_words(table: list[list[int]], gens: list[int]) -> list[list[int]]:
    """For each element, a word over the generator indices reaching it."""
    n = len(table)
    words: list[list[int] | None] = [None] * n
    words[0] = []
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, g in enumerate(gens):
                y = table[x][g]
                if words[y] is None:
                    words[y] = words[x] + [gi]
                    nxt.append(y)
        frontier = nxt
    if any(w is None for w in words):
        raise HypothesisViolation("generators do not generate")
    return words  # type: ignore[return-value]


def _perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(q[x] for x in p)


def _perm_order(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    order = 1
    for s in range(len(p)):
        if seen[s]:
            continue
        length, cur = 0, s
        while not seen[cur]:
            seen[cur] = True
            cur = p[cur]
            length += 1
        order = order * length // math.gcd(order, length)
    return order


def _conjugacy_class_reps(d: int, order_divides: int) -> list[tuple[int, ...]]:
    """Canonical representative per cycle type with order dividing the bound."""
    reps = []
    for partition in _partitions(d):
        if order_divides % math.lcm(*partition):
            continue
        perm = []
        offset = 0
        for part in partition:
            perm.extend((offset + (i + 1) % part) for i in range(part))
            offset += part
        reps.append(tuple(perm))
    return reps


def _partitions(d: int, cap: int | None = None):
    cap = cap or d
    if d == 0:
        yield []
        return
    for first in range(min(d, cap), 0, -1):
        for rest in _partitions(d - first, first):
            yield [first] + rest


@lru_cache(maxsize=64)
def _order_filtered(d: int, order_divides: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        p
        for p in itertools.permutations(range(d))
        if order_divides % _perm_order(p) == 0
    )


def _dedup_under(candidates, centralizer) -> list[tuple[int, ...]]:
    """One representative per conjugation orbit: candidates come sorted, so
    the first member seen of each orbit is its lexicographic minimum."""
    seen: set[tuple[int, ...]] = set()
    out = []
    for p in candidates:
        if p in seen:
            continue
        out.append(p)
        for c in centralizer:
            seen.add(_perm_mul(_perm_mul(_inv(c), p), c))
    return out


def brute_force_search(
    instance_data: dict,
    max_degree: int = 8,
    time_limit: float | None = None,
) -> OracleResult:
    """Exhaust homomorphisms into symmetric groups of growing degree until
    the target image orders come out pairwise distinct.

    Assignments are enumerated generator by generator, deduplicated up to
    simultaneous conjugation (class representatives for the first generator,
    minimum under the running centralizer for the rest).  The first hit in
    this deterministic order is returned.  A target syllable that is not a
    factor element, by the verifier's rule, raises ``BadSyllable``.
    """
    if max_degree > 12:
        raise HypothesisViolation("oracle degree capped at 12")
    factors = instance_data["factors"]
    if any(f.get("type") != "finite" for f in factors):
        raise InfiniteFactor("oracle requires finite factors")
    targets = [[(f, v) for f, v in w] for w in instance_data["targets"]]
    if len(targets) > 3:
        raise HypothesisViolation("oracle supports at most 3 targets")
    tables = [f["table"] for f in factors]
    sizes = [len(table) for table in tables]
    for i, word in enumerate(targets):
        for f, v in word:
            if not _is_factor_element(f, v, sizes):
                raise BadSyllable(f"target {i}: syllable {[f, v]!r} is not a factor element")
    gen_lists = [_generating_sequence(t) for t in tables]
    words = [_element_words(t, g) for t, g in zip(tables, gen_lists)]
    orders = [
        [_factor_element_order(t, g) for g in gen_list]
        for t, gen_list in zip(tables, gen_lists)
    ]
    flat_gens = [(f, gi) for f in (0, 1) for gi in range(len(gen_lists[f]))]
    deadline = time.monotonic() + time_limit if time_limit else None

    for d in range(1, max_degree + 1):
        identity = tuple(range(d))

        def element_image(f: int, x: int, assigned: dict) -> tuple[int, ...]:
            perm = identity
            for gi in words[f][x]:
                perm = _perm_mul(perm, assigned[(f, gi)])
            return perm

        def consistent(f: int, assigned: dict) -> bool:
            imgs = [element_image(f, x, assigned) for x in range(len(tables[f]))]
            for x in range(len(tables[f])):
                for y in range(len(tables[f])):
                    if _perm_mul(imgs[x], imgs[y]) != imgs[tables[f][x][y]]:
                        return False
            return True

        def search(pos: int, assigned: dict, centralizer: list) -> OracleResult | None:
            if deadline and time.monotonic() > deadline:
                raise BudgetExceeded("oracle wall-clock budget exhausted")
            if pos == len(flat_gens):
                image_cache = {}
                target_orders = {}
                for i, w in enumerate(targets):
                    perm = identity
                    for f, v in w:
                        key = (f, v)
                        if key not in image_cache:
                            image_cache[key] = element_image(f, v, assigned)
                        perm = _perm_mul(perm, image_cache[key])
                    target_orders[i] = _perm_order(perm)
                if len(set(target_orders.values())) == len(target_orders):
                    images = tuple(assigned[k] for k in flat_gens)
                    return OracleResult(True, d, images, target_orders)
                return None
            f, gi = flat_gens[pos]
            divides = orders[f][gi]
            if pos == 0:
                candidates = _conjugacy_class_reps(d, divides)
            else:
                candidates = _dedup_under(_order_filtered(d, divides), centralizer)
            last_of_factor = pos + 1 == len(flat_gens) or flat_gens[pos + 1][0] != f
            multi_gen = len(gen_lists[f]) > 1
            for p in candidates:
                assigned[(f, gi)] = p
                if last_of_factor and multi_gen and not consistent(f, assigned):
                    continue
                new_centralizer = [c for c in centralizer if _perm_mul(c, p) == _perm_mul(p, c)]
                result = search(pos + 1, assigned, new_centralizer)
                if result:
                    return result
            assigned.pop((f, gi), None)
            return None

        full = list(itertools.permutations(range(d)))
        result = search(0, {}, full)
        if result:
            return result
    return OracleResult(False, max_degree)


def _inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return out


def _factor_element_order(table: list[list[int]], x: int) -> int:
    k, cur = 1, x
    while cur != 0:
        cur = table[cur][x]
        k += 1
    return k

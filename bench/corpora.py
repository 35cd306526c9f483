"""Seeded instance generators for the benchmark workloads.

Every generator is a pure function of its seed and returns instance JSON
in the CLI's schema.  Word arithmetic here (normal forms, cyclic cores,
conjugacy up to inversion) is the benchmark's own: the engine under test
is never asked to shape or judge its inputs.
"""

from __future__ import annotations

import itertools
import random

Word = list  # [[factor, value], ...]


# ---------------------------------------------------------------------------
# factors
# ---------------------------------------------------------------------------

def cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _perm_group_table(gens: list[tuple[int, ...]]) -> list[list[int]]:
    """Multiplication table of the group generated by ``gens`` (identity
    first, then elements in closure order); ``x*y`` applies y, then x."""
    degree = len(gens[0])
    elements = [tuple(range(degree))]
    index = {elements[0]: 0}
    frontier = list(elements)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(x[g[i]] for i in range(degree))
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
                    nxt.append(y)
        frontier = nxt
    return [[index[tuple(x[y[i]] for i in range(degree))] for y in elements] for x in elements]


FINITE_TABLES = {
    "Z2": cyclic_table(2),
    "Z3": cyclic_table(3),
    "Z4": cyclic_table(4),
    "Z5": cyclic_table(5),
    "Z6": cyclic_table(6),
    "Klein": [[i ^ j for j in range(4)] for i in range(4)],
    "S3": _perm_group_table([(1, 0, 2), (1, 2, 0)]),
    "D4": _perm_group_table([(1, 2, 3, 0), (0, 3, 2, 1)]),
}


def factor_json(name: str) -> dict:
    if name == "Z":
        return {"type": "infinite_cyclic"}
    return {"type": "finite", "table": FINITE_TABLES[name]}


def instance_json(factor_names: tuple[str, str], targets: list[Word]) -> dict:
    return {
        "schema": 1,
        "factors": [factor_json(n) for n in factor_names],
        "targets": targets,
        "mode": "auto",
    }


# ---------------------------------------------------------------------------
# word arithmetic in A*B
# ---------------------------------------------------------------------------

def _mul(factor: dict, x: int, y: int) -> int:
    return factor["table"][x][y] if factor["type"] == "finite" else x + y


def _inv(factor: dict, x: int) -> int:
    if factor["type"] != "finite":
        return -x
    return factor["table"][x].index(0)


def normalize(raw, factors: list[dict]) -> Word:
    """Multiply out adjacent same-factor syllables and drop identities."""
    stack: Word = []
    for f, v in raw:
        if v == 0:
            continue
        if stack and stack[-1][0] == f:
            merged = _mul(factors[f], stack.pop()[1], v)
            if merged:
                stack.append([f, merged])
        else:
            stack.append([f, v])
    return stack


def invert(word: Word, factors: list[dict]) -> Word:
    return [[f, _inv(factors[f], v)] for f, v in reversed(word)]


def cyclic_core(word: Word, factors: list[dict]) -> Word:
    """The cyclically reduced word conjugate to ``word``."""
    core = [list(s) for s in word]
    while len(core) >= 2 and core[0][0] == core[-1][0]:
        core = normalize([core[-1]] + core[:-1], factors)
    return core


def _factor_conjugate(factor: dict, x: int, y: int) -> bool:
    if factor["type"] != "finite":
        return x == y
    n = len(factor["table"])
    return any(_mul(factor, _mul(factor, _inv(factor, g), x), g) == y for g in range(n))


def _cores_conjugate(a: Word, b: Word, factors: list[dict]) -> bool:
    if len(a) != len(b):
        return False
    if not a:
        return True
    if len(a) == 1:
        return a[0][0] == b[0][0] and _factor_conjugate(factors[a[0][0]], a[0][1], b[0][1])
    return any(b == a[i:] + a[:i] for i in range(len(a)))


def conjugate_up_to_inverse(u: Word, v: Word, factors: list[dict]) -> bool:
    cu = cyclic_core(u, factors)
    cv = cyclic_core(v, factors)
    return _cores_conjugate(cu, cv, factors) or _cores_conjugate(
        cu, cyclic_core(invert(v, factors), factors), factors
    )


def has_conjugate_pair(targets: list[Word], factors: list[dict]) -> bool:
    return any(
        conjugate_up_to_inverse(u, v, factors) for u, v in itertools.combinations(targets, 2)
    )


def primitive_period(core: Word) -> int:
    """Length of the shortest syllable block whose repetition is ``core``."""
    n = len(core)
    return next(d for d in range(1, n + 1) if n % d == 0 and core == core[:d] * (n // d))


# ---------------------------------------------------------------------------
# workload generators
# ---------------------------------------------------------------------------

Z2Z3 = [factor_json("Z2"), factor_json("Z3")]


def draw_rng_z2z3(rng: random.Random) -> list[Word]:
    """One draw of the oracle cross-check's generator: 1-3 targets, each a
    normalized random word of at most six syllables over Z/2*Z/3."""
    targets = []
    for _ in range(rng.randrange(1, 4)):
        raw = []
        for _ in range(rng.randrange(7)):
            f = rng.randrange(2)
            raw.append((f, rng.randrange(1, (2, 3)[f])))
        targets.append(normalize(raw, Z2Z3))
    return targets


def _element_order(factor: dict, x: int) -> int | None:
    """Order of ``x`` in a finite factor; None on an infinite one."""
    if factor["type"] != "finite":
        return None
    k, cur = 1, x
    while cur:
        cur, k = _mul(factor, cur, x), k + 1
    return k


def primitive_root(rng: random.Random, syllables: int) -> Word:
    """Random primitive alternating root a b^e1 ... a b^er of ``syllables``
    syllables over Z/2*Z/3."""
    while True:
        root = [s for _ in range(syllables // 2) for s in ([0, 1], [1, rng.randrange(1, 3)])]
        if primitive_period(root) == syllables:
            return root


def _rotated_power(rng: random.Random, root: Word, k: int) -> Word:
    word = [list(s) for s in root * k]
    shift = rng.randrange(len(word))
    return word[shift:] + word[:shift]


# Each instance is a list of (class, root syllables, power): targets with one
# class label are powers of one root, different labels are non-conjugate
# roots.  Roots of at most six syllables have one class up to inversion, so
# the plan fixes the classes there and the seed picks representatives.
HYPERBOLIC_PLAN = [
    [("r", 2, 1), ("s", 4, 1)],
    [("r", 2, 2), ("s", 4, 1)],
    [("r", 2, 1), ("r", 2, 3)],
    [("r", 4, 1), ("r", 4, 3)],
    [("r", 4, 1), ("s", 6, 2)],
    [("r", 8, 1), ("s", 2, 1), ("t", 4, 1)],
    [("r", 10, 1), ("s", 12, 1)],
]


def draw_hyperbolic(rng: random.Random, shape) -> list[Word]:
    roots: dict[str, Word] = {}
    for label, syllables, _k in shape:
        while label not in roots:
            root = primitive_root(rng, syllables)
            if not any(conjugate_up_to_inverse(root, r, Z2Z3) for r in roots.values()):
                roots[label] = root
    return [_rotated_power(rng, roots[label], k) for label, _s, k in shape]


WIDE_PAIRS = [
    ("Z", "Z3"), ("Z", "Z5"), ("Z", "Z"), ("Klein", "Z3"),
    ("Z4", "Z3"), ("S3", "Z5"), ("D4", "Z3"), ("Z6", "Z5"),
]
# mixed words carry most of the work and most of its spread, so they come twice
WIDE_THIRDS = ("same-side", "identity", "mixed", "mixed")


def _element(rng: random.Random, factor: dict) -> int:
    if factor["type"] != "finite":
        return rng.choice((-1, 1)) * rng.randrange(1, 7)
    return rng.randrange(1, len(factor["table"]))


def _second_on_side(rng: random.Random, factor: dict, first: int) -> int | None:
    """A second element on the side of ``first`` with a different order (on
    an infinite factor: a different absolute exponent), or None."""
    if factor["type"] != "finite":
        while True:
            x = _element(rng, factor)
            if abs(x) != abs(first):
                return x
    order = _element_order(factor, first)
    choices = [x for x in range(1, len(factor["table"])) if _element_order(factor, x) != order]
    return rng.choice(choices) if choices else None


def _closure(table: list[list[int]], gens: list[int]) -> set[int]:
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [table[x][g] for x in frontier for g in gens if table[x][g] not in seen]
        seen.update(frontier)
    return seen


def automorphisms(factor: dict) -> list:
    """Every automorphism of a factor: a value map (list) on a finite one,
    a sign (+1 or -1) on an infinite cyclic one."""
    if factor["type"] != "finite":
        return [1, -1]
    table = factor["table"]
    n = len(table)
    gens: list[int] = []
    for x in range(1, n):
        if x not in _closure(table, gens):
            gens.append(x)
    found = []
    for images in itertools.product(range(1, n), repeat=len(gens)):
        phi, queue, ok = {0: 0}, [0], True
        for x in queue:  # grows while it is walked
            for g, h in zip(gens, images):
                y, img = table[x][g], table[phi[x]][h]
                if y not in phi:
                    phi[y] = img
                    queue.append(y)
                ok = ok and phi[y] == img
        if ok and len(set(phi.values())) == n:
            found.append([phi[x] for x in range(n)])
    return found


def apply_automorphisms(targets: list[Word], factors: list[dict], autos: list) -> list[Word]:
    def image(f: int, v: int) -> int:
        return autos[f] * v if factors[f]["type"] != "finite" else autos[f][v]

    return [[[f, image(f, v)] for f, v in word] for word in targets]


def draw_wide(rng: random.Random, pair: tuple[str, str], third: str) -> list[Word]:
    """One element of each factor, then a third target: a second element of
    another order on one side, the identity, or a two-syllable mixed word.
    A pair whose factors each have a single element order gets a mixed word
    in place of the second element."""
    factors = [factor_json(n) for n in pair]
    firsts = [_element(rng, factors[0]), _element(rng, factors[1])]
    targets = [[[0, firsts[0]]], [[1, firsts[1]]]]
    if third == "same-side":
        seconds = [(f, _second_on_side(rng, factors[f], firsts[f])) for f in (0, 1)]
        seconds = [(f, x) for f, x in seconds if x is not None]
        if seconds:
            f, x = seconds[rng.randrange(len(seconds))]
            return targets + [[[f, x]]]
    if third == "identity":
        return targets + [[]]
    return targets + [[[0, _element(rng, factors[0])], [1, _element(rng, factors[1])]]]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

REFERENCE_SEED = 88  # the oracle cross-check's seed
RNG_DRAWS = 50
MAX_DRAWS = 10 ** 6


def rng_stratum(targets: list[Word]) -> tuple:
    """What the engine's cost depends on: a conjugate pair (rejected), else
    the (length, primitive period) of every hyperbolic cyclic core."""
    if has_conjugate_pair(targets, Z2Z3):
        return ("conjugate pair",)
    cores = [cyclic_core(t, Z2Z3) for t in targets]
    return ("hyperbolic", tuple(sorted((len(c), primitive_period(c)) for c in cores if len(c) >= 2)))


def rng_quotas() -> dict[tuple, int]:
    rng = random.Random(REFERENCE_SEED)
    quotas: dict[tuple, int] = {}
    for _ in range(RNG_DRAWS):
        stratum = rng_stratum(draw_rng_z2z3(rng))
        quotas[stratum] = quotas.get(stratum, 0) + 1
    return quotas


def rng_z2z3_targets(seed: int) -> list[list[Word]]:
    """Draws of the cross-check generator from ``seed``, kept while their
    stratum is below its count among the reference seed's 50 draws.  The
    reference seed therefore gives exactly its first 50 draws, and every
    seed gives the same mix of strata."""
    left = rng_quotas()
    rng = random.Random(seed)
    kept = []
    for _ in range(MAX_DRAWS):
        targets = draw_rng_z2z3(rng)
        stratum = rng_stratum(targets)
        if left.get(stratum, 0):
            left[stratum] -= 1
            kept.append(targets)
            if len(kept) == RNG_DRAWS:
                return kept
    raise RuntimeError(f"seed {seed}: strata not filled after {MAX_DRAWS} draws")


def build(workload: str, seed: int) -> list[dict]:
    """The corpus of ``workload`` for ``seed``, as instance JSON."""
    if workload == "rng-z2z3":
        return [instance_json(("Z2", "Z3"), t) for t in rng_z2z3_targets(seed)]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "hyperbolic-z2z3":
        return [instance_json(("Z2", "Z3"), draw_hyperbolic(rng, shape)) for shape in HYPERBOLIC_PLAN]
    if workload == "wide-factors":
        return [_relabelled(rng, pair, targets) for pair, targets in wide_reference()]
    raise ValueError(f"unknown workload {workload!r}")


def wide_reference() -> list[tuple[tuple[str, str], list[Word]]]:
    """The wide-factors instances drawn from the reference seed.  Which
    element orders and exponents occur moves the engine's cost by an order
    of magnitude, so a seed keeps them and varies the instances only by
    automorphisms of the factors."""
    rng = random.Random(f"wide-factors:{REFERENCE_SEED}")
    return [(pair, draw_wide(rng, pair, third)) for third in WIDE_THIRDS for pair in WIDE_PAIRS]


def _relabelled(rng: random.Random, pair: tuple[str, str], targets: list[Word]) -> dict:
    """The instance under a random automorphism of each factor."""
    factors = [factor_json(n) for n in pair]
    autos = [rng.choice(automorphisms(f)) for f in factors]
    return instance_json(pair, apply_automorphisms(targets, factors, autos))


WORKLOADS = ("rng-z2z3", "hyperbolic-z2z3", "wide-factors")

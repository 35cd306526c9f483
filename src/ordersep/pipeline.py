"""Instance-level orchestration: hypothesis checks, factor reduction, class
decomposition of hyperbolic targets, the finite stage with its distinctness
repair loop, and certificate assembly.  One factor-hom search,
``reduce_factors``, serves every target shape and every mode.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace

from .config import RunConfig, json_int, json_list, sub_seed
from .covergraph import (
    CoverGraph,
    fiber_order,
    fiber_returns,
    induced_graph,
    word_order,
)
from .errors import (
    BudgetExceeded,
    ConjugatePair,
    EmptyTargets,
    HypothesisViolation,
    InternalError,
    ModulusBudgetExceeded,
    NoFactorHom,
    ParseError,
    RepairBudgetExceeded,
    SharedFactorOrder,
)
from .groupcore import (
    FactorHom,
    FiniteGroup,
    Permutation,
    cyclic_group,
    element_order,
    normal_subgroups,
    quotient,
    validate_group,
)
from .lemmas import Component, factorization, fresh_prime, lemma1_boost, lemma3_separate, valuation
from .words import (
    FactorSpec,
    Factors,
    NormalForm,
    cartesian_basis,
    cyclically_reduce,
    finite_factors,
    invert,
    is_conjugate,
    is_cyclically_reduced,
    minimal_cartesian_power,
    normalize,
    power,
    primitive_root,
    product_order,
)

MODULUS_BOUND = 10 ** 6  # largest modulus tried for an infinite cyclic factor
SMALL_FIBERS = range(2, 13)  # fiber sizes of the repair rounds' small-action pool
SMALL_DRAWS = 16  # random fiber assignments per size


@dataclass
class Instance:
    """A free product, its targets and a run configuration.  Every mode takes
    the same route; theorem3 mode, the paper's mixed case, admits at most
    three targets."""

    factors: Factors
    targets: list[NormalForm]
    mode: str = "auto"
    config: RunConfig = field(default_factory=RunConfig)

    def __post_init__(self):
        if self.mode not in ("auto", "theorem12", "theorem3"):
            raise ParseError(f"unknown mode {self.mode!r}")
        if self.mode == "theorem3" and len(self.targets) > 3:
            raise HypothesisViolation("theorem3 mode supports at most 3 targets")


@dataclass
class Certificate:
    """Factor homs plus the repair rounds' components.  The witness action is
    the regular action of A x B on the homs' target groups, disjoint-union
    the components: each target's order there is the lcm of its order in
    A x B and its component orders.  The product action is implicit, as the
    target groups determine it; ``components`` lists only built graphs.

    ``to_json`` writes schema 3, where each hom carries only what the
    instance does not determine, in one of three kinds:

    - ``{"kind": "identity"}``: a finite factor onto itself, so the target
      table is the instance's factor table;
    - ``{"kind": "infinite_cyclic", "modulus": m}``: Z onto Z/m, 1 to 1,
      so the modulus determines the target;
    - ``{"kind": "finite", "map": [...], "target_table": [...]}``: any other
      finite hom (a proper quotient), with the image of each element and
      the target's table.
    """

    factor_homs: tuple[FactorHom, FactorHom]
    components: list[Component]
    orders: dict[int, int]
    verified: bool
    transcript: list[dict]
    product = None  # always None; bench/layers.py::_assembled reads it

    def to_json(self) -> dict:
        return {
            "schema": 3,
            "factor_homs": [_hom_json(hom) for hom in self.factor_homs],
            "components": [comp.to_json() for comp in self.components],
            "orders": {str(i): o for i, o in sorted(self.orders.items())},
            "verified": self.verified,
            "transcript": self.transcript,
        }


def _hom_json(hom: FactorHom) -> dict:
    """A hom's schema-3 entry (see ``Certificate``)."""
    if hom.kind == "infinite_cyclic":
        return {"kind": "infinite_cyclic", "modulus": hom.modulus}
    if hom.source == hom.target and hom.map == tuple(range(hom.target.n)):
        return {"kind": "identity"}
    return {
        "kind": "finite",
        "map": list(hom.map),
        "target_table": [list(row) for row in hom.target.table],
    }


# ---------------------------------------------------------------------------
# instance parsing
# ---------------------------------------------------------------------------

def parse_factors(data: list) -> Factors:
    if not isinstance(data, list) or len(data) != 2:
        raise ParseError("exactly two factors required")
    specs = []
    for entry in data:
        kind = entry.get("type") if isinstance(entry, dict) else None
        if kind == "finite":
            rows = json_list(entry.get("table"), "factor table")
            table = [json_list(row, "factor table row") for row in rows]
            try:
                group = validate_group(table)
            except ParseError as exc:  # the identity is not element 0
                raise ParseError(f"factor {len(specs)}: {exc}") from exc
            specs.append(FactorSpec("finite", group))
        elif kind == "infinite_cyclic":
            specs.append(FactorSpec("infinite_cyclic"))
        else:
            raise ParseError(f"unknown factor type {kind!r}")
    return Factors((specs[0], specs[1]))


def parse_word(raw: list, factors: Factors) -> NormalForm:
    """The normal form of a word given as ``[factor, value]`` syllables."""
    syllables = [json_list(s, "syllable", 2) for s in json_list(raw, "word")]
    return normalize(
        [(json_int(f, "syllable factor"), json_int(v, "syllable value")) for f, v in syllables],
        factors,
    )


def instance_to_json(inst: Instance) -> dict:
    factors = []
    for spec in inst.factors.specs:
        if spec.is_finite:
            factors.append({"type": "finite", "table": [list(r) for r in spec.group.table]})
        else:
            factors.append({"type": "infinite_cyclic"})
    return {
        "schema": 1,
        "factors": factors,
        "targets": [[[f, v] for f, v in w.syllables] for w in inst.targets],
        "mode": inst.mode,
    }


def parse_instance(data: dict) -> Instance:
    try:
        if data.get("schema", 1) != 1:
            raise ParseError(f"unsupported schema {data.get('schema')}")
        factors = parse_factors(data["factors"])
        targets = [parse_word(raw, factors) for raw in data["targets"]]
        mode = data.get("mode", "auto")
        config = RunConfig.from_json(data.get("config", {}))
        return Instance(factors, targets, mode, config)
    except (ParseError, HypothesisViolation):
        raise
    except Exception as exc:
        raise ParseError(f"bad instance: {exc}") from exc


# ---------------------------------------------------------------------------
# hypotheses and classification
# ---------------------------------------------------------------------------

def check_hypotheses(inst: Instance) -> list[NormalForm]:
    """Cyclically reduce targets, reject conjugate pairs (up to inversion)
    and factors sharing a finite nontrivial element order."""
    if not inst.targets:
        raise EmptyTargets("no targets")
    reduced = [cyclically_reduce(u, inst.factors)[0] for u in inst.targets]
    for i in range(len(reduced)):
        for j in range(i + 1, len(reduced)):
            if is_conjugate(reduced[i], reduced[j], inst.factors, allow_inverse=True):
                raise ConjugatePair(i, j)
    spec_a, spec_b = inst.factors.specs
    if spec_a.is_finite and spec_b.is_finite:
        orders_a = {element_order(spec_a.group, x) for x in range(1, spec_a.group.n)}
        orders_b = {element_order(spec_b.group, x) for x in range(1, spec_b.group.n)}
        shared = orders_a & orders_b
        if shared:
            raise SharedFactorOrder(min(shared))
    return reduced


def classify_targets(reduced: list[NormalForm]) -> tuple[list[int], list[int], list[int]]:
    """(alpha, beta, gamma) index lists: factor-0 elements (with the
    identity), factor-1 elements, and hyperbolic targets."""
    alpha, beta, gamma = [], [], []
    for i, w in enumerate(reduced):
        if len(w) >= 2:
            gamma.append(i)
        elif len(w) == 1 and w.syllables[0][0] == 1:
            beta.append(i)
        else:
            alpha.append(i)
    return alpha, beta, gamma


# ---------------------------------------------------------------------------
# factor reduction
# ---------------------------------------------------------------------------

def _lambda_sets(
    factor_index: int, reduced: list[NormalForm], factor_targets: list[int],
    gamma: list[int], keep_alive: bool,
) -> tuple[set[int], list[int]]:
    """(Lambda, Lambda') for one factor.  Lambda holds the hyperbolic
    targets' syllables on this factor: none may die.  Lambda' holds the
    distinct factor-target values, whose images must get pairwise distinct
    orders; ``check_hypotheses`` has made those values pairwise
    non-conjugate up to inversion.  With ``keep_alive``, Lambda' also holds
    the identity, so no factor target dies either."""
    lam_prime: list[int] = [0] if keep_alive else []
    for i in factor_targets:
        w = reduced[i]
        v = w.syllables[0][1] if len(w) == 1 else 0
        if v not in lam_prime:
            lam_prime.append(v)
    lam = {v for i in gamma for f, v in reduced[i].syllables if f == factor_index}
    return lam, lam_prime


def _identity_hom(group: FiniteGroup) -> FactorHom:
    return FactorHom(kind="finite", target=group, map=tuple(range(group.n)), source=group)


def _finite_candidates(group: FiniteGroup):
    """The group's quotients, identity first: it is almost always accepted,
    so the normal subgroups are listed only when it is not (the trivial
    subgroup sorts first among them)."""
    yield _identity_hom(group)
    for subset in normal_subgroups(group)[1:]:
        yield quotient(group, subset)[1]


def _modulus_candidates(bound: int):
    """Reductions mod 2, 3, ..., ``bound``, each without its Z/m table:
    feasibility reads only images and orders, and ``_with_table`` builds the
    table for a modulus that a pair or a certificate uses."""
    for modulus in range(2, bound + 1):
        yield FactorHom(kind="infinite_cyclic", target=None, modulus=modulus)


def _with_table(hom: FactorHom) -> FactorHom:
    if hom.target is not None:
        return hom
    return replace(hom, target=cyclic_group(hom.modulus))


def _hom_order(hom: FactorHom, value: int) -> int:
    if hom.kind == "infinite_cyclic":
        return hom.modulus // math.gcd(value, hom.modulus)
    return element_order(hom.target, hom.apply(value))


def _factor_feasible(hom: FactorHom, lam: set[int], lam_prime: list[int]) -> bool:
    # (b): no Lambda element dies
    if any(hom.apply(v) == 0 for v in lam):
        return False
    # (a): Lambda' images have pairwise distinct orders
    orders = [_hom_order(hom, v) for v in lam_prime]
    return len(set(orders)) == len(orders)


def map_word(w: NormalForm, homs: tuple[FactorHom, FactorHom], rfactors: Factors) -> NormalForm:
    return normalize([(f, homs[f].apply(v)) for f, v in w.syllables], rfactors)


def _apart_over_partner(
    hom: FactorHom, f: int, factors: Factors, reduced: list[NormalForm], gamma: list[int],
) -> bool:
    """Condition (d) with only factor ``f`` mapped: hyperbolic images that
    are conjugate up to inversion over the other factor left unreduced stay
    so under every hom of that factor, so ``hom`` can never pass (d)."""
    specs = list(factors.specs)
    specs[f] = FactorSpec("finite", hom.target)
    partial = Factors((specs[0], specs[1]))
    images = [
        normalize([(g, hom.apply(v) if g == f else v) for g, v in reduced[i].syllables], partial)
        for i in gamma
    ]
    pairs = itertools.combinations(images, 2)
    return not any(is_conjugate(u, w, partial, allow_inverse=True) for u, w in pairs)


def _candidate_stream(spec: FactorSpec, bound: int):
    if spec.is_finite:
        yield from _finite_candidates(spec.group)
    else:
        yield from _modulus_candidates(bound)


class _Replay:
    """An iterable read lazily and kept: a second pass re-reads the items the
    first one pulled and pulls the rest from the source on demand."""

    def __init__(self, source):
        self._source = iter(source)
        self._items: list = []

    def __iter__(self):
        i = 0
        while True:
            if i == len(self._items):
                nxt = next(self._source, None)
                if nxt is None:
                    return
                self._items.append(nxt)
            yield self._items[i]
            i += 1


def _search_hom_pair(specs, bound, feasible, try_pair):
    """First non-None ``try_pair`` result over pairs of factor homs.

    Each factor's candidates are its quotients (finite factor) or its moduli
    up to ``bound`` (infinite cyclic factor); ``feasible[f]`` filters them one
    at a time.  Pairs are tried lazily by growing maximum level, candidates
    in stream order, so the result is deterministic.  An exhausted search
    raises ``NoFactorHom`` when both factors are finite and
    ``ModulusBudgetExceeded`` otherwise.  A finite factor with no feasible
    quotient raises ``NoFactorHom`` as soon as its stream ends, before the
    other factor's stream is read on.
    """
    streams = [_candidate_stream(specs[0], bound), _candidate_stream(specs[1], bound)]
    kept: list[list] = [[], []]
    exhausted = [False, False]

    def pull(f: int) -> None:
        for nxt in streams[f]:
            if feasible[f](nxt):
                kept[f].append(nxt)
                return
        exhausted[f] = True
        if not kept[f] and specs[f].is_finite:
            raise NoFactorHom("factor homomorphism search exhausted")

    level = 0
    while True:
        if not exhausted[0] and len(kept[0]) <= level:
            pull(0)
        if not exhausted[1] and len(kept[1]) <= level:
            pull(1)
        n0, n1 = len(kept[0]), len(kept[1])
        if level < n0:
            for j in range(min(level + 1, n1)):
                result = try_pair(kept[0][level], kept[1][j])
                if result is not None:
                    return result
        if level < n1:
            for i in range(min(level, n0)):
                result = try_pair(kept[0][i], kept[1][level])
                if result is not None:
                    return result
        if exhausted[0] and exhausted[1] and level >= max(n0, n1):
            if specs[0].is_finite and specs[1].is_finite:
                raise NoFactorHom("factor homomorphism search exhausted")
            raise ModulusBudgetExceeded(f"no modulus pair found up to {bound}")
        level += 1


def reduce_factors(
    inst: Instance, reduced: list[NormalForm],
    partition: tuple[list[int], list[int], list[int]],
) -> tuple[tuple[FactorHom, FactorHom], Factors, list[NormalForm]]:
    """Search factor quotients (or moduli) for what the finite stage cannot
    repair, then map the targets.  This is the one factor-hom search, for
    every target shape.

    On the factor product action a factor element's order is the order of
    its image, and no repair round changes that; collisions that involve a
    hyperbolic target are parted by the repair loop.  So the conditions per
    candidate pair are: (a) on each factor, the factor targets get pairwise
    distinct image orders; (b) no hyperbolic syllable dies; (c) factor-0 and
    factor-1 target images have pairwise distinct orders, so at most one
    target in all gets order 1; (d) mapped targets stay pairwise
    non-conjugate up to inversion and hyperbolic targets keep their
    syllable count.

    A first pass also keeps every factor target alive: in (a) the identity
    counts as one more factor target.  Only when no pair passes it, that is
    when it raises ``NoFactorHom``, does a second pass let a factor target
    die.  A ``ModulusBudgetExceeded`` ends the search.

    An identity target counts as a factor target on both factors in (a):
    its order is 1 under every hom, so by (c) no other factor target may
    die.  Against an infinite cyclic factor, whose moduli run on to
    ``MODULUS_BOUND``, a finite factor's quotient must also pass (d) over
    that factor left unreduced.  So no quotient that fails with every
    modulus is kept, and a finite factor whose quotients all fail raises
    ``NoFactorHom`` at once.
    """
    alpha, beta, gamma = partition
    identity = [i for i in alpha if not len(reduced[i])]
    specs = inst.factors.specs

    def try_pair(h0: FactorHom, h1: FactorHom):
        # (c): cross-factor distinctness of factor-target image orders
        orders_alpha = [
            _hom_order(h0, reduced[i].syllables[0][1] if len(reduced[i]) else 0)
            for i in alpha
        ]
        orders_beta = [_hom_order(h1, reduced[i].syllables[0][1]) for i in beta]
        if len(set(orders_alpha)) != len(orders_alpha):
            return None
        if len(set(orders_beta)) != len(orders_beta):
            return None
        if set(orders_alpha) & set(orders_beta):
            return None
        homs = (_with_table(h0), _with_table(h1))
        rfactors = finite_factors(homs[0].target, homs[1].target)
        mapped = [map_word(w, homs, rfactors) for w in reduced]
        # (d): hyperbolic shape and pairwise non-conjugacy preserved; only two
        # hyperbolic images can be conjugate, as factor-target images have
        # distinct orders by (a) and (c) and a hyperbolic image keeps its shape
        for i in gamma:
            if len(mapped[i]) != len(reduced[i]) or not is_cyclically_reduced(mapped[i]):
                return None
        for i, j in itertools.combinations(gamma, 2):
            if is_conjugate(mapped[i], mapped[j], rfactors, allow_inverse=True):
                return None
        return homs, rfactors, mapped

    def feasible(f: int, lam: tuple[set[int], list[int]]):
        if specs[f].is_finite and not specs[1 - f].is_finite:
            return lambda h: _factor_feasible(h, *lam) and _apart_over_partner(
                h, f, inst.factors, reduced, gamma
            )
        return lambda h: _factor_feasible(h, *lam)

    for keep_alive in (True, False):
        lams = [
            _lambda_sets(0, reduced, alpha, gamma, keep_alive),
            _lambda_sets(1, reduced, beta + identity, gamma, keep_alive),
        ]
        try:
            return _search_hom_pair(
                specs, MODULUS_BOUND, [feasible(f, lam) for f, lam in enumerate(lams)], try_pair,
            )
        except NoFactorHom:
            if not keep_alive:
                raise


# ---------------------------------------------------------------------------
# hyperbolic class decomposition
# ---------------------------------------------------------------------------

@dataclass
class HyperClass:
    root: NormalForm                 # minimal Cartesian power of the class's primitive root
    members: list[tuple[int, int, int]]  # (target index, signed exponent over root, cartesian power)


def hyperbolic_classes(
    gamma_idx: list[int], mapped: list[NormalForm], rfactors: Factors
) -> list[HyperClass]:
    """Power each hyperbolic target into the Cartesian subgroup and group the
    results by conjugacy of primitive roots up to inversion.

    A class stores one root w in C (the least Cartesian power of the shared
    primitive root) and, per member, the exponent k with the powered target
    conjugate to w^k.  Members sharing |k| must carry different powering
    exponents; otherwise the original targets were conjugate up to inversion,
    which the hypothesis check has excluded.
    """
    classes: list[tuple[NormalForm, int, HyperClass]] = []  # (primitive root, m, class)
    for i in gamma_idx:
        u = mapped[i]
        l_u = minimal_cartesian_power(u, rfactors)
        v = power(u, l_u, rfactors)
        rho, e = primitive_root(v, rfactors)
        placed = False
        for rho_cls, m_cls, cls in classes:
            if is_conjugate(rho_cls, rho, rfactors):
                sign = 1
            elif is_conjugate(rho_cls, invert(rho, rfactors), rfactors):
                sign = -1
            else:
                continue
            if e % m_cls:
                raise InternalError("powered target exponent not divisible by the class power")
            k = sign * (e // m_cls)
            for _idx, k_prev, l_prev in cls.members:
                if abs(k_prev) == abs(k) and l_prev == l_u:
                    raise InternalError(
                        "recovered equal exponents with equal powering; "
                        "inputs should have been rejected as conjugate"
                    )
            cls.members.append((i, k, l_u))
            placed = True
            break
        if not placed:
            m = minimal_cartesian_power(rho, rfactors)
            if e % m:
                raise InternalError("primitive root power fell outside its Cartesian pattern")
            root = power(rho, m, rfactors)
            cls = HyperClass(root=root, members=[(i, e // m, l_u)])
            classes.append((rho, m, cls))
    return [cls for _rho, _m, cls in classes]


# ---------------------------------------------------------------------------
# finite-stage separation and certificate assembly
# ---------------------------------------------------------------------------

def _colliding(orders: dict[int, int]) -> set[tuple[int, int]]:
    return {(i, j) for i in orders for j in orders if i < j and orders[i] == orders[j]}


def _finite_stage(
    rfactors: Factors,
    mapped: list[NormalForm],
    config: RunConfig,
    seed: int,
    transcript: list[dict],
) -> tuple[list[Component], dict[int, int]]:
    """Separate the mapped targets over finite factors: start from the factor
    product action and, while orders collide, add one candidate's components
    per repair round.

    The product action is never built: its |A||B| vertices are held to
    ``max_vertices`` as if it were, its orders come from ``product_order``,
    and the certificate leaves it implicit, so no graph exists before a
    repair round and an instance that needs none returns no components.

    A round first reads one pool of small-action draws, scored once per call
    and re-read by later rounds, and keeps the draw whose colliding set is a
    strict subset of the current one and smallest (the earliest on a tie),
    stopping at a draw that leaves none.  Only when no draw qualifies does it
    read the least colliding pair's lemma candidates from ``_repair_pair``
    and keep the first that parts the pair and merges no other.  Either way
    the colliding set shrinks every round, so at most C(n, 2) rounds run; a
    round's entry names the stage and the least pair its components part.  A
    round with no candidate raises ``RepairBudgetExceeded`` naming its stage
    and pair.
    """
    ga, gb = rfactors.groups()
    if ga.n * gb.n > config.max_vertices:
        raise BudgetExceeded(f"{ga.n * gb.n} vertices over budget {config.max_vertices}")
    components: list[Component] = []
    classes = hyperbolic_classes(classify_targets(mapped)[2], mapped, rfactors)
    root_of = {i: n for n, cls in enumerate(classes) for i, _k, _l in cls.members}
    orders = {n: product_order(w, rfactors) for n, w in enumerate(mapped)}
    pool = _Replay(_small_action(mapped, rfactors, config, sub_seed(seed, "repair", 0)))
    round_no = 0
    while colliding := _colliding(orders):
        best = None
        for scores, build, entry in pool:
            new = {n: math.lcm(o, scores[n]) for n, o in orders.items()}
            left = _colliding(new)
            if left < colliding and (best is None or len(left) < len(best[1])):
                best = new, left, build, entry
                if not left:
                    break
        if best is None:
            i, j = min(colliding)
            stage = _pair_stage(i, j, root_of)
            candidates = _repair_pair(
                stage, i, j, mapped, classes, root_of, components, orders, rfactors, config,
                sub_seed(seed, "repair", round_no),
            )
            for scores, build, entry in candidates:
                new = {n: math.lcm(o, scores[n]) for n, o in orders.items()}
                left = _colliding(new)
                if (i, j) not in left and left <= colliding:
                    best = new, left, build, entry
                    break
            else:
                raise RepairBudgetExceeded(
                    f"{stage}: no candidate parts pair {(i, j)} without merging another"
                )
        orders, left, build, entry = best
        if not left < colliding:
            raise InternalError(f"repair round {round_no} did not shrink the colliding set")
        i, j = min(colliding - left)
        components.extend(build())
        transcript.append({"stage": _pair_stage(i, j, root_of), "pair": [i, j], **entry})
        round_no += 1
    return components, orders


def _pair_stage(i: int, j: int, root_of: dict[int, int]) -> str:
    """The repair stage of a colliding pair, by the hyperbolic classes its
    targets lie in; two factor targets never collide after reduction."""
    if i in root_of and j in root_of:
        return "repair-same-class" if root_of[i] == root_of[j] else "repair-cross-class"
    if i in root_of or j in root_of:
        return "repair-vs-factor"
    raise InternalError(f"factor targets {i},{j} collide after reduction")


def _orders_on(graphs: list[CoverGraph], mapped: list[NormalForm]) -> list[int]:
    """Each target's order on the disjoint union of ``graphs``."""
    return [math.lcm(*(word_order(g, w) for g in graphs)) for w in mapped]


def _built(comps: list[Component], mapped: list[NormalForm], entry: dict):
    """A candidate whose components are already built, scored on their graphs."""
    return _orders_on([c.graph for c in comps], mapped), lambda: comps, entry


def _repair_pair(
    stage: str, i: int, j: int, mapped: list[NormalForm], classes: list[HyperClass],
    root_of: dict[int, int], components: list[Component], orders: dict[int, int],
    rfactors: Factors, config: RunConfig, seed: int,
):
    """The lemma candidates for the colliding pair (i, j), lazily, in a fixed
    order per stage; a round reads them only when no small-action draw of its
    pool shrinks the colliding set:

    - same class: a Lemma 1 boost of the class root at each prime where the
      two members' valuation profiles differ, ascending;
    - two classes: Lemma 3 on the two roots;
    - a hyperbolic target against a factor element: a Lemma 1 boost at a
      prime dividing no current order.

    A candidate is (each target's order on it, a ``build()`` returning its
    components, its transcript entry).
    """
    ga, gb = rfactors.groups()
    used = set().union(*map(factorization, [*orders.values(), ga.n, gb.n]))
    if stage == "repair-same-class":
        cls = classes[root_of[i]]
        data = {idx: (k, l) for idx, k, l in cls.members}
        (ki, li), (kj, lj) = data[i], data[j]
        if li * abs(kj) == lj * abs(ki):
            raise InternalError("same-class pair with matching power profile")
        for p in sorted(factorization(li * abs(ki) * lj * abs(kj))):
            if (
                valuation(p, li) - valuation(p, abs(ki))
                == valuation(p, lj) - valuation(p, abs(kj))
            ):
                continue
            root_orders = [product_order(cls.root, rfactors)]
            root_orders += [word_order(c.graph, cls.root) for c in components]
            ceiling = (
                max(valuation(p, o) for o in root_orders)
                + max(valuation(p, abs(ki)), valuation(p, abs(kj))) + 1
            )
            comp = lemma1_boost([cls.root], p, ceiling, rfactors, seed=seed, config=config)
            yield _built([comp], mapped, {"prime": p})
    elif stage == "repair-cross-class":
        res = lemma3_separate(
            [classes[root_of[i]].root, classes[root_of[j]].root], used, rfactors,
            seed=seed, config=config,
        )
        yield _built(res.components, mapped, {})
    else:
        idx = i if i in root_of else j
        cls = classes[root_of[idx]]
        k = next(k for member, k, _l in cls.members if member == idx)
        p = fresh_prime(used)
        # the target powers into root^k: p divides its order once the root's exceeds k's p-part
        comp = lemma1_boost([cls.root], p, valuation(p, abs(k)), rfactors, seed=seed, config=config)
        yield _built([comp], mapped, {"prime": p})


def _small_action(mapped: list[NormalForm], rfactors: Factors, config: RunConfig, seed: int):
    """The repair rounds' pool: actions induced from random fiber
    permutations on ``SMALL_FIBERS`` points, ``SMALL_DRAWS`` per size and
    one candidate per draw, up to the fiber that ``max_vertices`` admits.
    Lemma 1's wreath p-groups give two hyperbolic roots the same order almost
    surely, and the Lemma 2 surgery inside Lemma 3 can grow without bound;
    one small symmetric fiber usually spreads every target at once.

    Each draw is scored by the fiber evaluator from the targets' return
    letters, computed once per call; only its ``build()`` makes the graph,
    whose word orders must match the scores.

    A draw repeated within the call is read from the random stream and
    skipped.  A round keeps the earliest draw of smallest colliding set and
    stops at the first that leaves none; a repeat has its original's scores
    and comes after it, so in no round can it be kept or stop the read
    first: skipping it changes no outcome."""
    ga, gb = rfactors.groups()
    rank = cartesian_basis(rfactors).rank
    returns = [fiber_returns(ga, gb, w) for w in mapped]
    rng = random.Random(seed)
    drawn: set[tuple[int, tuple[tuple[int, ...], ...]]] = set()
    for y in SMALL_FIBERS:
        if ga.n * gb.n * y > config.max_vertices:
            break
        for _draw in range(SMALL_DRAWS):
            maps = tuple(tuple(rng.sample(range(y), y)) for _ in range(rank))
            if (y, maps) in drawn:
                continue
            drawn.add((y, maps))
            inverse_maps = [tuple(sorted(range(y), key=p.__getitem__)) for p in maps]
            scores = [fiber_order(r, maps, inverse_maps, y) for r in returns]
            note = f"small action on fiber {y}"

            def build(y=y, maps=maps, scores=scores, note=note) -> list[Component]:
                psi = [Permutation(y, p) for p in maps]
                graph = induced_graph(ga, gb, y, psi, max_vertices=config.max_vertices)
                if _orders_on([graph], mapped) != scores:
                    raise InternalError("fiber evaluator disagrees with the small action's graph")
                return [Component(graph, None, note)]

            yield scores, build, {"action": note}


def assemble_certificate(
    homs: tuple[FactorHom, FactorHom],
    components: list[Component],
    orders: dict[int, int],
    transcript: list[dict],
) -> Certificate:
    """Bundle homs, components, orders and transcript; the factor product
    action, disjoint-union the components, is the certificate's action, and
    neither it nor any product of components is materialized."""
    return Certificate(
        factor_homs=homs,
        components=components,
        orders=orders,
        verified=False,
        transcript=transcript,
    )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_theorem12(inst: Instance) -> Certificate:
    """Reduce the factors, then separate the targets' images over the finite
    quotients and bundle the result."""
    reduced = check_hypotheses(inst)
    transcript: list[dict] = [{"stage": "mode", "value": "theorem12"}]
    homs, rfactors, mapped = reduce_factors(inst, reduced, classify_targets(reduced))
    transcript.append(
        {
            "stage": "reduced",
            "factor_sizes": [homs[0].target.n, homs[1].target.n],
        }
    )
    components, orders = _finite_stage(
        rfactors, mapped, inst.config, sub_seed(inst.config.seed, "t12"), transcript
    )
    return assemble_certificate(homs, components, orders, transcript)


def separate(inst: Instance) -> Certificate:
    """Certificates for the instance's targets.  Every mode takes the same
    route; ``Instance`` holds theorem3 mode to at most three targets."""
    return run_theorem12(inst)

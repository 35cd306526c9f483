"""Instance-level orchestration: hypothesis checks, factor reduction, class
decomposition of hyperbolic targets, the finite stage with its distinctness
repair loop, and certificate assembly.  One factor-hom search,
``reduce_factors``, serves every target shape except two factor elements on
one side and one on the other, which ``run_theorem3`` handles itself.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field

from .config import RunConfig, json_int, sub_seed
from .covergraph import CoverGraph, cayley_base, induced_graph, word_order
from .errors import (
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
)

MODULUS_BOUND = 10 ** 6  # largest modulus tried for an infinite cyclic factor
SMALL_FIBERS = range(2, 9)  # fiber sizes of the small-action repair candidate
SMALL_DRAWS = 16  # random fiber assignments per size


@dataclass
class Instance:
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
    """Factor homs plus the components whose disjoint union is the witness
    action: each target's order there is the lcm of its component orders."""

    factor_homs: list[dict]
    components: list[Component]
    orders: dict[int, int]
    verified: bool
    transcript: list[dict]
    product = None  # always None; bench/layers.py::_assembled reads it

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "factor_homs": self.factor_homs,
            "components": [comp.to_json() for comp in self.components],
            "orders": {str(i): o for i, o in sorted(self.orders.items())},
            "verified": self.verified,
            "transcript": self.transcript,
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
            specs.append(FactorSpec("finite", validate_group(entry["table"])))
        elif kind == "infinite_cyclic":
            specs.append(FactorSpec("infinite_cyclic"))
        else:
            raise ParseError(f"unknown factor type {kind!r}")
    return Factors((specs[0], specs[1]))


def parse_word(raw: list, factors: Factors) -> NormalForm:
    """The normal form of a word given as ``[factor, value]`` syllables."""
    return normalize(
        [(json_int(f, "syllable factor"), json_int(v, "syllable value")) for f, v in raw], factors
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
    spec: FactorSpec, factor_index: int, reduced: list[NormalForm],
    factor_targets: list[int], gamma: list[int],
) -> tuple[list[int], list[int]]:
    """(Lambda, Lambda') for one factor.  Lambda holds the identity, the
    factor targets' values, the hyperbolic targets' syllables on this factor
    and their pairwise quotients: each nontrivial one must stay alive.
    Lambda' is the identity and the distinct factor-target values, whose
    images must get pairwise distinct orders; ``check_hypotheses`` has made
    those values pairwise non-conjugate up to inversion."""
    lam: list[int] = [0]
    def add(v: int) -> None:
        if v not in lam:
            lam.append(v)

    for i in factor_targets:
        w = reduced[i]
        add(w.syllables[0][1] if len(w) == 1 else 0)
    lam_prime = list(lam)
    omega: list[int] = []
    for i in gamma:
        for f, v in reduced[i].syllables:
            if f == factor_index and v not in omega:
                omega.append(v)
    for v in omega:
        add(v)
    for vj in omega:
        for vk in omega:
            if spec.is_finite:
                add(spec.group.mul(vj, spec.group.inv[vk]))
            else:
                add(vj - vk)
    return lam, lam_prime


def _identity_hom(group: FiniteGroup) -> FactorHom:
    return FactorHom(kind="finite", target=group, map=tuple(range(group.n)), source=group)


def _finite_candidates(group: FiniteGroup):
    for subset in normal_subgroups(group):
        if len(subset) == 1:
            yield _identity_hom(group)
        else:
            yield quotient(group, subset)[1]


def _modulus_candidates(bound: int):
    for modulus in range(2, bound + 1):
        yield FactorHom(kind="infinite_cyclic", target=cyclic_group(modulus), modulus=modulus)


def _hom_order(hom: FactorHom, value: int) -> int:
    return element_order(hom.target, hom.apply(value))


def _factor_feasible(hom: FactorHom, lam: list[int], lam_prime: list[int]) -> bool:
    # (b): no nontrivial Lambda element dies
    for v in lam:
        if v != 0 and hom.apply(v) == 0:
            return False
    # (a): Lambda' images have pairwise distinct orders
    orders = [_hom_order(hom, v) for v in lam_prime]
    return len(set(orders)) == len(orders)


def map_word(w: NormalForm, homs: tuple[FactorHom, FactorHom], rfactors: Factors) -> NormalForm:
    return normalize([(f, homs[f].apply(v)) for f, v in w.syllables], rfactors)


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
    ``ModulusBudgetExceeded`` otherwise.
    """
    streams = [_candidate_stream(specs[0], bound), _candidate_stream(specs[1], bound)]
    kept: list[list] = [[], []]
    exhausted = [False, False]

    def pull(f: int) -> bool:
        while True:
            nxt = next(streams[f], None)
            if nxt is None:
                exhausted[f] = True
                return False
            if feasible[f](nxt):
                kept[f].append(nxt)
                return True

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
    repair, then map the targets.  This is the one factor-hom search: every
    target shape but two factor elements on one side and one on the other
    comes here.

    On the factor product action a factor element's order is the order of
    its image, and no repair round changes that; collisions that involve a
    hyperbolic target are parted by the repair loop.  So the conditions per
    candidate pair are: (a) on each factor, the identity and the factor
    targets get pairwise distinct image orders; (b) no nontrivial factor
    target, hyperbolic syllable or quotient of two syllables on the same
    factor dies; (c) factor-0 and factor-1 target images have pairwise
    distinct orders; (d) mapped targets stay pairwise non-conjugate up to
    inversion and hyperbolic targets keep their syllable count.
    """
    alpha, beta, gamma = partition
    lams = [
        _lambda_sets(inst.factors.spec(0), 0, reduced, alpha, gamma),
        _lambda_sets(inst.factors.spec(1), 1, reduced, beta, gamma),
    ]

    def try_pair(h0: FactorHom, h1: FactorHom):
        rfactors = finite_factors(h0.target, h1.target)
        homs = (h0, h1)
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

    return _search_hom_pair(
        inst.factors.specs,
        MODULUS_BOUND,
        [lambda h, f=f: _factor_feasible(h, *lams[f]) for f in (0, 1)],
        try_pair,
    )


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
    product action and add lemma components only for pairs whose orders
    collide, one pair per repair round.

    One rule accepts a round's candidate component: it must give the round's
    pair distinct orders and leave colliding only pairs that collided
    before.  The colliding set so shrinks every round, and at most C(n, 2)
    rounds run.
    """
    base = cayley_base(*rfactors.groups(), max_vertices=config.max_vertices)
    components = [Component(base, None, "factor product action")]
    classes = hyperbolic_classes(classify_targets(mapped)[2], mapped, rfactors)
    root_of = {i: n for n, cls in enumerate(classes) for i, _k, _l in cls.members}
    orders = {n: word_order(base, w) for n, w in enumerate(mapped)}
    round_no = 0
    while colliding := _colliding(orders):
        i, j = min(colliding)

        def accepts(graphs: list[CoverGraph]) -> bool:
            """Whether adding ``graphs`` parts (i, j) and merges no other
            pair; on acceptance their orders become the stage's orders."""
            nonlocal orders
            new = {
                n: math.lcm(o, *(word_order(g, mapped[n]) for g in graphs))
                for n, o in orders.items()
            }
            if new[i] == new[j] or not _colliding(new) <= colliding:
                return False
            orders = new
            return True

        components.extend(
            _repair_pair(i, j, mapped, classes, root_of, components, orders, rfactors, config,
                         sub_seed(seed, "repair", round_no), transcript, accepts)
        )
        round_no += 1
    return components, orders


def _repair_pair(
    i: int,
    j: int,
    mapped: list[NormalForm],
    classes: list[HyperClass],
    root_of: dict[int, int],
    components: list[Component],
    orders: dict[int, int],
    rfactors: Factors,
    config: RunConfig,
    seed: int,
    transcript: list[dict],
    accepts: Callable[[list[CoverGraph]], bool],
) -> list[Component]:
    """The first candidate component(s) for the colliding pair (i, j) that
    ``accepts`` takes, tried in a fixed order per kind of pair:

    - same class: a Lemma 1 boost of the class root at each prime where the
      two members' valuation profiles differ, ascending, then a small action;
    - two classes: a small action, then Lemma 3 on the two roots;
    - a hyperbolic target against a factor element: a Lemma 1 boost at a
      prime dividing no current order.

    Raises ``RepairBudgetExceeded`` naming the stage and the pair when no
    candidate is accepted.
    """
    in_i, in_j = i in root_of, j in root_of
    ga, gb = rfactors.groups()
    used = set().union(*map(factorization, [*orders.values(), ga.n, gb.n]))
    if in_i and in_j and root_of[i] == root_of[j]:
        stage = "repair-same-class"
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
            ceiling = max(
                valuation(p, word_order(c.graph, cls.root)) for c in components
            ) + max(valuation(p, abs(ki)), valuation(p, abs(kj))) + 1
            comp = lemma1_boost([cls.root], p, ceiling, rfactors, seed=seed, config=config)
            if accepts([comp.graph]):
                transcript.append({"stage": stage, "pair": [i, j], "prime": p})
                return [comp]
        comp = _small_action(accepts, rfactors, config, seed)
        if comp is not None:
            transcript.append({"stage": stage, "pair": [i, j], "action": comp.note})
            return [comp]
    elif in_i and in_j:
        stage = "repair-cross-class"
        comp = _small_action(accepts, rfactors, config, seed)
        if comp is not None:
            transcript.append({"stage": stage, "pair": [i, j], "action": comp.note})
            return [comp]
        res = lemma3_separate(
            [classes[root_of[i]].root, classes[root_of[j]].root], used, rfactors,
            seed=seed, config=config,
        )
        if accepts([c.graph for c in res.components]):
            transcript.append({"stage": stage, "pair": [i, j]})
            return res.components
    elif in_i or in_j:
        stage = "repair-vs-factor"
        idx = i if in_i else j
        cls = classes[root_of[idx]]
        k = next(k for member, k, _l in cls.members if member == idx)
        p = fresh_prime(used)
        # the target powers into root^k: p divides its order once the root's exceeds k's p-part
        comp = lemma1_boost([cls.root], p, valuation(p, abs(k)), rfactors, seed=seed, config=config)
        if accepts([comp.graph]):
            transcript.append({"stage": stage, "pair": [i, j], "prime": p})
            return [comp]
    else:
        raise InternalError(f"factor targets {i},{j} collide after reduction")
    raise RepairBudgetExceeded(f"{stage}: no candidate parts pair {(i, j)} without merging another")


def _small_action(
    accepts: Callable[[list[CoverGraph]], bool], rfactors: Factors, config: RunConfig, seed: int,
) -> Component | None:
    """The first component induced from random fiber permutations on 2, 3,
    ... points that ``accepts`` takes, or None.  Lemma 1's wreath p-groups
    give two hyperbolic roots the same order almost surely, and the Lemma 2
    surgery inside Lemma 3 can grow without bound; a small symmetric fiber
    usually tells two targets apart."""
    ga, gb = rfactors.groups()
    rank = cartesian_basis(rfactors).rank
    rng = random.Random(seed)
    for y in SMALL_FIBERS:
        if ga.n * gb.n * y > config.max_vertices:
            break
        for _draw in range(SMALL_DRAWS):
            psi = [Permutation(y, tuple(rng.sample(range(y), y))) for _ in range(rank)]
            graph = induced_graph(ga, gb, y, psi, max_vertices=config.max_vertices)
            if accepts([graph]):
                return Component(graph, None, f"small action on fiber {y}")
    return None


def assemble_certificate(
    homs: tuple[FactorHom, FactorHom],
    components: list[Component],
    orders: dict[int, int],
    transcript: list[dict],
) -> Certificate:
    """Bundle homs, components, orders and transcript; the components' disjoint
    union is the certificate's action, so no product is materialized."""
    hom_data = []
    for hom in homs:
        entry: dict = {"kind": hom.kind, "target_table": [list(r) for r in hom.target.table]}
        if hom.kind == "finite":
            entry["map"] = list(hom.map)
        else:
            entry["modulus"] = hom.modulus
        hom_data.append(entry)
    return Certificate(
        factor_homs=hom_data,
        components=components,
        orders=orders,
        verified=False,
        transcript=transcript,
    )


# ---------------------------------------------------------------------------
# theorem drivers
# ---------------------------------------------------------------------------

def _certify(
    homs: tuple[FactorHom, FactorHom],
    rfactors: Factors,
    mapped: list[NormalForm],
    inst: Instance,
    seed_tag: str,
    transcript: list[dict],
) -> Certificate:
    """Separate the targets' images under ``homs`` over the finite quotients
    ``rfactors`` and bundle the result."""
    components, orders = _finite_stage(
        rfactors, mapped, inst.config, sub_seed(inst.config.seed, seed_tag), transcript
    )
    return assemble_certificate(homs, components, orders, transcript)


def run_theorem12(inst: Instance, reduced: list[NormalForm] | None = None) -> Certificate:
    reduced = reduced if reduced is not None else check_hypotheses(inst)
    transcript: list[dict] = [{"stage": "mode", "value": "theorem12"}]
    homs, rfactors, mapped = reduce_factors(inst, reduced, classify_targets(reduced))
    transcript.append(
        {
            "stage": "reduced",
            "factor_sizes": [homs[0].target.n, homs[1].target.n],
        }
    )
    return _certify(homs, rfactors, mapped, inst, "t12", transcript)


def _trivial_hom(spec: FactorSpec) -> FactorHom:
    if spec.is_finite:
        return FactorHom(
            kind="finite", target=cyclic_group(1), map=(0,) * spec.group.n, source=spec.group
        )
    return FactorHom(kind="infinite_cyclic", target=cyclic_group(1), modulus=1)


def run_theorem3(inst: Instance, reduced: list[NormalForm] | None = None) -> Certificate:
    """Mixed-case entry for up to three targets: two factor elements on one
    side and one on the other take ``_two_on_one_side``; every other shape
    goes to ``run_theorem12``."""
    reduced = reduced if reduced is not None else check_hypotheses(inst)
    if len(reduced) > 3:
        raise HypothesisViolation("theorem3 supports at most 3 targets")
    sides: dict[int, list[int]] = {0: [], 1: []}
    for i, w in enumerate(reduced):
        if len(w) == 1:
            sides[w.syllables[0][0]].append(i)
    if sorted(map(len, sides.values())) != [1, 2]:
        return run_theorem12(inst, reduced)
    return _two_on_one_side(inst, reduced, sides)


def _two_on_one_side(
    inst: Instance,
    reduced: list[NormalForm],
    sides: dict[int, list[int]],
) -> Certificate:
    """Two nontrivial factor elements on one side and one on the other.  On
    the factor product action a factor element's order is the order of its
    image, so homs are picked by image orders alone and certify with no
    repair.

    The double side takes a quotient giving its two elements distinct
    orders: with both alive and the other side retracted away, or, failing
    that, one of them possibly dying and the other side's target keeping an
    order apart from both.  Both ways let a target die, which
    ``reduce_factors`` never does.
    """
    factors = inst.factors
    transcript: list[dict] = [{"stage": "mode", "value": "theorem3"}]
    s = 0 if len(sides[0]) == 2 else 1
    other = 1 - s
    i1, i2 = sides[s]
    v1 = reduced[i1].syllables[0][1]
    v2 = reduced[i2].syllables[0][1]
    v3 = reduced[sides[other][0]].syllables[0][1]

    def certificate(hom: FactorHom, other_hom: FactorHom, case: str) -> Certificate:
        transcript.append({"stage": "case", "value": case})
        homs = (hom, other_hom) if s == 0 else (other_hom, hom)
        rfactors = finite_factors(homs[0].target, homs[1].target)
        mapped = [map_word(t, homs, rfactors) for t in reduced]
        return _certify(homs, rfactors, mapped, inst, "t3c2", transcript)

    # each factor's candidates are built once and re-read by the loops
    # below (a modulus stream stays lazy)
    homs_s = _Replay(_candidate_stream(factors.spec(s), MODULUS_BOUND))
    homs_other = _Replay(_candidate_stream(factors.spec(other), MODULUS_BOUND))
    for hom in homs_s:
        o1, o2 = _hom_order(hom, v1), _hom_order(hom, v2)
        if o1 == 1 or o2 == 1 or o1 == o2:
            continue
        return certificate(
            hom, _trivial_hom(factors.spec(other)), "two-on-one-side-retraction"
        )
    # no quotient keeps both alive apart: let one die and keep the third
    # target's image order away from both
    for hom in homs_s:
        o1, o2 = _hom_order(hom, v1), _hom_order(hom, v2)
        if o1 == o2:
            continue
        for other_hom in homs_other:
            if _hom_order(other_hom, v3) not in (o1, o2):
                return certificate(hom, other_hom, "two-on-one-side-quotient")
    if factors.spec(s).is_finite:
        raise NoFactorHom("no quotient separates the two same-side elements")
    raise ModulusBudgetExceeded(f"no modulus found up to {MODULUS_BOUND}")


def separate(inst: Instance) -> Certificate:
    """Mode dispatch: certificates for the instance's targets."""
    reduced = check_hypotheses(inst)
    # theorem3 mode admits at most three targets; auto routes more onward
    if inst.mode == "theorem12" or len(reduced) > 3:
        return run_theorem12(inst, reduced)
    return run_theorem3(inst, reduced)

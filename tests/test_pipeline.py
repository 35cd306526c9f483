import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ordersep import pipeline, verify
from ordersep.config import RunConfig
from ordersep.covergraph import cayley_base, word_order
from ordersep.errors import (
    BudgetExceeded,
    ConjugatePair,
    EmptyTargets,
    HypothesisViolation,
    InternalError,
    NoFactorHom,
    ParseError,
    RepairBudgetExceeded,
    SharedFactorOrder,
)
from ordersep.groupcore import cyclic_group, validate_group
from ordersep.pipeline import (
    Instance,
    check_hypotheses,
    classify_targets,
    hyperbolic_classes,
    instance_to_json,
    parse_instance,
    product_order,
    reduce_factors,
    run_theorem12,
    separate,
)
from ordersep.verify import brute_force_search, verify_certificate
from ordersep.words import FactorSpec, Factors, NormalForm, finite_factors, normalize, power

from helpers import (
    SIX_FREE_TARGETS,
    SIXTEEN_TARGETS,
    TEN_TARGETS,
    power_syllables,
    two_generator_groups,
    z2z3_syllables,
)

A = (0, 1)
B = (1, 1)
AB = NormalForm((A, B))
ABAB2 = NormalForm((A, B, (0, 1), (1, 2)))
E = NormalForm(())


@pytest.fixture(scope="session")
def zz3():
    return Factors((FactorSpec("infinite_cyclic"), FactorSpec("finite", cyclic_group(3))))


@pytest.fixture(scope="session")
def zz5():
    return Factors((FactorSpec("infinite_cyclic"), FactorSpec("finite", cyclic_group(5))))


@pytest.fixture(scope="session")
def zz():
    return Factors((FactorSpec("infinite_cyclic"), FactorSpec("infinite_cyclic")))


def verified(inst, cert):
    data = cert.to_json()
    data["verified"] = True
    return verify_certificate(instance_to_json(inst), data)


def repair_stages(cert):
    return [t["stage"] for t in cert.transcript if t["stage"].startswith("repair-")]


class TestCheckHypotheses:
    def test_dihedral_shared_order(self, z2):
        inst = Instance(finite_factors(z2, z2), [NormalForm((A,)), NormalForm(((1, 1),)), AB])
        with pytest.raises(SharedFactorOrder) as exc:
            check_hypotheses(inst)
        assert exc.value.order == 2

    def test_conjugate_rotation(self, f23):
        ba = NormalForm((B, A))
        with pytest.raises(ConjugatePair):
            check_hypotheses(Instance(f23, [AB, ba]))

    def test_inverse_conjugate(self, f23):
        with pytest.raises(ConjugatePair):
            check_hypotheses(Instance(f23, [AB, NormalForm(((1, 2), A))]))

    def test_accepts_standard_triple(self, f23):
        out = check_hypotheses(Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB]))
        assert len(out) == 3

    def test_empty(self, f23):
        with pytest.raises(EmptyTargets):
            check_hypotheses(Instance(f23, []))

    def test_reduces_cyclically(self, f23):
        conjugated = normalize([B, A, (1, 2)], f23)
        out = check_hypotheses(Instance(f23, [conjugated]))
        assert out[0] == NormalForm((A,))


class TestClassify:
    def test_standard(self, f23):
        reduced = [NormalForm((A,)), NormalForm((B,)), AB]
        assert classify_targets(reduced) == ([0], [1], [2])

    def test_hyperbolic_only(self, f23):
        assert classify_targets([AB, ABAB2]) == ([], [], [0, 1])

    def test_identity_to_alpha(self, f23):
        assert classify_targets([E]) == ([0], [], [])


class TestReduceFactors:
    def test_identity_homs_for_distinct_orders(self, f23):
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB])
        reduced = check_hypotheses(inst)
        homs, rfactors, mapped = reduce_factors(inst, reduced, classify_targets(reduced))
        assert homs[0].target.n == 2 and homs[1].target.n == 3
        assert mapped == reduced

    def test_modulus_search_for_free_group_powers(self, zz):
        x1 = NormalForm(((0, 1),))
        x3 = NormalForm(((0, 3),))
        y = NormalForm(((1, 1),))
        inst = Instance(zz, [x1, x3, y])
        reduced = check_hypotheses(inst)
        homs, rfactors, mapped = reduce_factors(inst, reduced, classify_targets(reduced))
        m = homs[0].modulus
        from ordersep.groupcore import element_order

        o1 = element_order(homs[0].target, 1 % m)
        o3 = element_order(homs[0].target, 3 % m)
        assert o1 != o3 and o1 > 1 and o3 > 1

    def test_no_factor_hom_for_inseparable_factor(self):
        z5 = cyclic_group(5)
        z9 = cyclic_group(9)
        factors = finite_factors(z5, z9)
        # 1 and 2 in Z/5 are non-conjugate up to inversion but no quotient
        # separates their orders
        inst = Instance(factors, [NormalForm(((0, 1),)), NormalForm(((0, 2),))])
        reduced = check_hypotheses(inst)
        with pytest.raises(NoFactorHom):
            reduce_factors(inst, reduced, classify_targets(reduced))

    def test_identity_quotient_before_normal_subgroups(self):
        # Z/129 is over the normal-subgroup bound, but its identity quotient
        # already gives a, b and ab distinct orders
        factors = finite_factors(cyclic_group(129), cyclic_group(2))
        inst = Instance(factors, [NormalForm((A,)), NormalForm((B,)), AB])
        cert = separate(inst)
        assert cert.orders == {0: 129, 1: 2, 2: 258}
        assert verified(inst, cert).verdict

    @pytest.mark.parametrize("mode", ["auto", "theorem12"])
    def test_no_table_for_an_untried_modulus(self, zz5, monkeypatch, mode):
        # a^-1 and a^-5 need a modulus giving them distinct orders other
        # than 1, and 10 is the first; moduli 2..9 are rejected by their
        # images' orders alone, in every mode
        built = []
        real = pipeline.cyclic_group

        def counted(n):
            built.append(n)
            return real(n)

        monkeypatch.setattr(pipeline, "cyclic_group", counted)
        inst = Instance(zz5, [NormalForm(((0, -1),)), NormalForm(((1, 2),)), NormalForm(((0, -5),))], mode)
        cert = separate(inst)
        assert cert.factor_homs[0].modulus == 10
        assert [n for n in built if n > 1] == [10]
        assert verified(inst, cert).verdict

    def test_gamma_syllables_survive(self, f23):
        inst = Instance(f23, [ABAB2])
        reduced = check_hypotheses(inst)
        homs, rfactors, mapped = reduce_factors(inst, reduced, classify_targets(reduced))
        assert len(mapped[0]) == 4


class TestHyperbolicClasses:
    def test_two_classes(self, f23):
        # ab and abab^2 have non-conjugate roots (different lengths); note
        # that ab^2 would NOT do here: it is a rotation of (ab)^-1
        classes = hyperbolic_classes([0, 1], [AB, ABAB2], f23)
        assert len(classes) == 2

    def test_conjugate_up_to_inversion_diagnosed(self, f23):
        from ordersep.errors import InternalError

        ab2 = NormalForm((A, (1, 2)))  # conjugate to (ab)^-1
        with pytest.raises(InternalError):
            hyperbolic_classes([0, 1], [AB, ab2], f23)

    def test_powers_share_class(self, f23):
        w6, w12 = power(AB, 6, f23), power(AB, 12, f23)
        classes = hyperbolic_classes([0, 1], [w6, w12], f23)
        assert len(classes) == 1
        cls = classes[0]
        assert sorted(abs(k) for _i, k, _l in cls.members) == [1, 2]
        assert cls.root == w6

    def test_mixed_powering_exponents(self, f23):
        # ab powers into (ab)^6 with l=6; (ab)^2 with l=3: same class element
        w2 = power(AB, 2, f23)
        classes = hyperbolic_classes([0, 1], [AB, w2], f23)
        assert len(classes) == 1
        members = classes[0].members
        assert {(abs(k), l) for _i, k, l in members} == {(1, 6), (1, 3)}

    def test_inverse_root_joins_class(self, f23):
        inv = NormalForm(((1, 2), A))  # (ab)^-1
        w = power(AB, 6, f23)
        winv = power(inv, 6, f23)
        classes = hyperbolic_classes([0, 1], [power(AB, 12, f23), winv], f23)
        assert len(classes) == 1
        signs = sorted(k for _i, k, _l in classes[0].members)
        assert signs[0] < 0 < signs[1]


class TestTheorem12:
    def test_standard_triple(self, f23):
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB], "theorem12")
        cert = separate(inst)
        values = sorted(cert.orders.values())
        assert len(set(values)) == 3
        assert cert.orders[0] == 2 and cert.orders[1] == 3
        assert verified(inst, cert).verdict

    def test_gamma_empty_uses_base_only(self, f23):
        # the factor product action is implicit: the certificate lists no graph
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,))], "theorem12")
        cert = separate(inst)
        assert cert.components == []
        assert cert.orders == {0: 2, 1: 3}
        assert verified(inst, cert).verdict

    def test_base_action_alone_when_orders_differ(self, f23):
        # a and ab already have orders 2 and 6 on the factor product action
        inst = Instance(f23, [NormalForm((A,)), AB], "theorem12")
        cert = separate(inst)
        assert cert.components == []
        assert cert.orders == {0: 2, 1: 6}
        assert repair_stages(cert) == []
        assert verified(inst, cert).verdict

    def test_hyperbolic_vs_factor_collision(self, f23):
        # b and (ab)^2 both have order 3 on the factor product action
        inst = Instance(f23, [NormalForm((B,)), power(AB, 2, f23)], "theorem12")
        cert = separate(inst)
        assert len(cert.components) == 1
        assert repair_stages(cert) == ["repair-vs-factor"]
        assert cert.orders[0] == 3 and cert.orders[1] != 3
        assert verified(inst, cert).verdict

    def test_power_pair(self, f23):
        w6, w12 = power(AB, 6, f23), power(AB, 12, f23)
        inst = Instance(f23, [w6, w12], "theorem12")
        cert = separate(inst)
        assert cert.orders[0] != cert.orders[1]
        assert "repair-same-class" in repair_stages(cert)
        assert verified(inst, cert).verdict

    def test_two_roots(self, f23):
        inst = Instance(f23, [ABAB2, power(AB, 6, f23)], "theorem12")
        cert = separate(inst)
        assert cert.orders[0] != cert.orders[1]
        assert "repair-cross-class" in repair_stages(cert)
        assert verified(inst, cert).verdict

    def test_cross_class_small_action(self, f23):
        # ab2abab ab2 and b2aba both have order 1 on the factor product
        # action; Lemma 3 on their roots ran Lemma 2 into unbounded surgery,
        # a random action on a 3-point fiber tells them apart
        b2 = (1, 2)
        targets = [[A, b2, A, B, A, B, A, b2], [A, b2], [b2, A, B, A]]
        inst = Instance(f23, [normalize(w, f23) for w in targets], "theorem12")
        cert = separate(inst)
        assert [c.graph.vcount for c in cert.components] == [18]
        assert repair_stages(cert) == ["repair-cross-class"]
        assert len(set(cert.orders.values())) == 3
        assert verified(inst, cert).verdict

    def test_cross_class_falls_back_to_lemma3(self, f23, monkeypatch):
        import ordersep.pipeline as pipeline

        monkeypatch.setattr(pipeline, "_small_action", lambda *args: iter(()))
        inst = Instance(f23, [ABAB2, power(AB, 6, f23)], "theorem12")
        cert = separate(inst)
        entry = next(t for t in cert.transcript if t["stage"] == "repair-cross-class")
        assert "action" not in entry
        assert len(cert.components) > 1
        assert cert.orders[0] != cert.orders[1]
        assert verified(inst, cert).verdict

    def test_short_word_subsets(self, f23):
        # every 1-3 element set of short words: the repair loop either
        # separates it or the hypothesis check rejects a conjugate pair
        b2 = (1, 2)
        words = [
            [A], [B], [b2], [A, B], [A, b2], [A, B, A, B], [A, B, A, b2],
            [A, b2, A, B], [A, b2, A, b2],
        ]
        sets = 0
        for size in (1, 2, 3):
            for chosen in itertools.combinations(words, size):
                sets += 1
                inst = Instance(f23, [normalize(w, f23) for w in chosen], "theorem12")
                try:
                    cert = separate(inst)
                except ConjugatePair:
                    continue
                assert len(set(cert.orders.values())) == size, chosen
                assert verified(inst, cert).verdict, chosen
        assert sets == 129

    def test_original_order_is_power_times_class_order(self, f23):
        # order of ab must equal 6 times the order of (ab)^6 on the factor
        # product action and on every component
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB], "theorem12")
        cert = separate(inst)
        w6 = power(AB, 6, f23)
        for graph in [cayley_base(*f23.groups()), *(c.graph for c in cert.components)]:
            assert word_order(graph, AB) == 6 * word_order(graph, w6)

    def test_klein_factor(self, klein):
        z3 = cyclic_group(3)
        factors = finite_factors(klein, z3)
        targets = [NormalForm(((0, 1),)), NormalForm(((1, 1),)), NormalForm(((0, 1), (1, 1)))]
        inst = Instance(factors, targets, "theorem12")
        cert = separate(inst)
        assert len(set(cert.orders.values())) == 3
        assert verified(inst, cert).verdict


class TestSyllableOrders:
    """Only factor targets need distinct image orders; a hyperbolic target's
    syllables need only stay alive.  Z/5's classes {1, 4} and {2, 3} have
    equal orders in every quotient that keeps them alive, so asking
    distinct orders of syllables leaves no factor hom for these targets."""

    @pytest.mark.parametrize(
        "orders, targets",
        [
            ((5, 2), ["a b", "a2 b"]),
            ((5, 7), ["a3 b", "b6 a4", "b a4"]),
            ((4, 5), ["a b a2 b2 a3 b3 a2 b2", "a3 b2 a2 b4 a3 b3", "b3 a b a2 b4 a2", "b4 a3 b2 a"]),
        ],
        ids=["z5z2", "z5z7", "z4z5"],
    )
    def test_verified_with_distinct_orders(self, orders, targets):
        factors = finite_factors(*map(cyclic_group, orders))
        inst = Instance(factors, [normalize(power_syllables(t), factors) for t in targets])
        cert = separate(inst)
        assert len(set(cert.orders.values())) == len(targets)
        assert verified(inst, cert).verdict
        if len(targets) <= 3:
            assert brute_force_search(instance_to_json(inst), max_degree=8).found


class TestOneSearch:
    """Every target shape takes the one factor-hom search, whatever the
    mode."""

    @pytest.mark.parametrize(
        "factors, targets",
        [
            ("f23", [[A], [B], [A, B]]),
            ("f23", [[], [A], [B]]),
            ("zz3", [[(0, 1)], [B], [(0, 1), B]]),
            ("zz3", [[], [(0, 2)], [B]]),
            ("zz3", [[(0, 1)], [(0, 3)], [B]]),
        ],
        ids=[
            "ab-hyperbolic", "identity-finite", "infinite-hyperbolic", "identity-infinite",
            "two-on-one-side",
        ],
    )
    def test_theorem3_and_theorem12_agree(self, request, factors, targets):
        factors = request.getfixturevalue(factors)
        words = [normalize(t, factors) for t in targets]
        certs = [
            json.dumps(separate(Instance(factors, words, mode, RunConfig(seed=3))).to_json(),
                       sort_keys=True)
            for mode in ("theorem3", "theorem12")
        ]
        assert certs[0] == certs[1]


KLEIN = validate_group([[i ^ j for j in range(4)] for i in range(4)])

# (case, targets) of the sweep below where the oracle finds a witness and
# the engine raises NoFactorHom or runs out of a budget
KNOWN_DIVERGENCES: dict[str, list] = {}


class TestOracleSweep:
    """Fixed-seed 1-3 target sets of at most 4 syllables: whenever the
    oracle finds a witness at degree <= 8, the engine gives a verified
    certificate with pairwise distinct orders."""

    PAIRS = {
        "z3*z4": (cyclic_group(3), cyclic_group(4)),
        "klein*z3": (KLEIN, cyclic_group(3)),
        "s3*z5": (two_generator_groups()["S3"], cyclic_group(5)),
        "z4*z5": (cyclic_group(4), cyclic_group(5)),
        "z5*z7": (cyclic_group(5), cyclic_group(7)),
    }
    SETS = 40

    @staticmethod
    def draw_word(factors, rng):
        f = rng.randrange(2)
        raw = []
        for _ in range(rng.randrange(1, 5)):
            raw.append((f, rng.randrange(1, factors.groups()[f].n)))
            f = 1 - f
        return normalize(raw, factors)

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_engine_certifies_when_oracle_finds(self, pair):
        factors = finite_factors(*self.PAIRS[pair])
        rng = random.Random(f"oracle sweep {pair}")
        divergences = []
        for case in range(self.SETS):
            inst = Instance(factors, [self.draw_word(factors, rng) for _ in range(rng.randrange(1, 4))])
            try:
                cert = separate(inst)
            except ConjugatePair:
                continue  # equal orders in every action: no witness to miss
            except (HypothesisViolation, BudgetExceeded):
                if brute_force_search(instance_to_json(inst), max_degree=8).found:
                    divergences.append((case, [list(w.syllables) for w in inst.targets]))
                continue
            assert len(set(cert.orders.values())) == len(inst.targets), case
            assert verified(inst, cert).verdict, case
        assert divergences == KNOWN_DIVERGENCES.get(pair, [])


class TestInfiniteFactorSweep:
    """Every set of 1-4 targets from a pool of short Klein-by-Z words, with
    the Klein group either side: no quotient that fails with every modulus
    is kept, so with the moduli held to ``BOUND`` every set is refused at
    once or gets a verified certificate with pairwise distinct orders."""

    BOUND = 60

    @staticmethod
    def pool(k, z):
        """The identity, the Klein involutions, b, b^2 and six hyperbolic
        words, with the Klein group as factor ``k`` and Z as factor ``z``."""
        words = [[], [(k, 1)], [(k, 2)], [(k, 3)], [(z, 1)], [(z, 2)]]
        words += [[(k, x), (z, 1)] for x in (1, 2, 3)]
        words += [[(k, 1), (z, 2)], [(k, 1), (z, -1)], [(k, 1), (z, 1), (k, 2), (z, 1)]]
        return words

    @pytest.mark.parametrize("k", [0, 1])
    def test_no_search_walks_every_modulus(self, monkeypatch, k):
        monkeypatch.setattr(pipeline, "MODULUS_BOUND", self.BOUND)
        specs = [FactorSpec("infinite_cyclic")] * 2
        specs[k] = FactorSpec("finite", KLEIN)
        factors = Factors(tuple(specs))
        words = [normalize(w, factors) for w in self.pool(k, 1 - k)]
        for size in range(1, 5):
            for targets in itertools.combinations(words, size):
                inst = Instance(factors, list(targets))
                try:
                    cert = separate(inst)
                except (ConjugatePair, NoFactorHom):
                    continue
                assert len(set(cert.orders.values())) == size, targets
                assert verified(inst, cert).verdict, targets


class TestSmallAction:
    """Small-action draws are scored without graphs: a candidate's graph is
    built only when its ``build()`` is called."""

    B2 = (1, 2)
    TARGETS = [[A, B2, A, B, A, B, A, B2], [A, B2], [B2, A, B, A]]

    @pytest.fixture
    def graphs_built(self, monkeypatch):
        calls = []
        real = pipeline.induced_graph

        def counted(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "induced_graph", counted)
        return calls

    def mapped(self, f23):
        return [normalize(w, f23) for w in self.TARGETS]

    def test_no_graph_while_draws_are_read(self, f23, graphs_built):
        draws = list(pipeline._small_action(self.mapped(f23), f23, RunConfig(), 0))
        assert graphs_built == []
        # one candidate per distinct draw of the 176 (fibers 2..12, 16 each):
        # a repeat is skipped
        assert len(draws) == 162

    def test_fiber_two_scores_each_distinct_draw_once(self, f23, monkeypatch):
        # over Z/2*Z/3 (Cartesian rank 2) fiber 2 has 4 distinct draws
        scored = []
        real = pipeline.fiber_order

        def counted(returns, maps, inverse_maps, y):
            if y == 2:
                scored.append(maps)
            return real(returns, maps, inverse_maps, y)

        monkeypatch.setattr(pipeline, "fiber_order", counted)
        mapped = self.mapped(f23)
        list(pipeline._small_action(mapped, f23, RunConfig(), 0))
        draws = scored[:: len(mapped)]
        assert len(scored) == len(mapped) * len(draws) and len(draws) <= 4
        assert len(set(draws)) == len(draws)

    def test_one_graph_per_build(self, f23, graphs_built):
        # each build() makes its own draw's graph, even once later draws are read
        mapped = self.mapped(f23)
        draws = list(pipeline._small_action(mapped, f23, RunConfig(), 0))
        picked = [draws[-1], draws[0]]
        comps = [comp for _scores, build, _entry in picked for comp in build()]
        assert graphs_built == [pipeline.SMALL_FIBERS[-1], pipeline.SMALL_FIBERS[0]]
        for (scores, _build, entry), comp in zip(picked, comps):
            assert entry == {"action": comp.note}
            assert [word_order(comp.graph, w) for w in mapped] == scores

    def test_evaluator_disagreement_is_internal_error(self, f23, monkeypatch):
        monkeypatch.setattr(pipeline, "fiber_order", lambda *args: 1)
        _scores, build, _entry = next(pipeline._small_action(self.mapped(f23), f23, RunConfig(), 0))
        with pytest.raises(InternalError, match="fiber evaluator"):
            build()


class TestRepairAcceptance:
    """A repair round keeps a pooled draw only if it shrinks the colliding
    set, and a lemma candidate only if it parts its pair and merges no other
    pair."""

    @staticmethod
    def ten_targets(factors, seed):
        words = [normalize(z2z3_syllables(t), factors) for t in TEN_TARGETS[seed].split()]
        return Instance(factors, words, "theorem12")

    @pytest.mark.parametrize("seed", sorted(TEN_TARGETS))
    def test_ten_targets(self, f23, seed):
        inst = self.ten_targets(f23, seed)
        cert = separate(inst)
        assert len(set(cert.orders.values())) == 10
        assert verified(inst, cert).verdict
        if seed == 15:
            # pair (0, 6)'s only boost, at p=2, merges targets 3 and 5; a
            # small action parts the pair instead
            entry = next(t for t in cert.transcript if t["stage"] == "repair-same-class")
            assert entry["pair"] == [0, 6] and "action" in entry

    def test_no_candidate_names_stage_and_pair(self, f23, monkeypatch):
        import ordersep.pipeline as pipeline

        monkeypatch.setattr(pipeline, "_small_action", lambda *args: iter(()))
        with pytest.raises(RepairBudgetExceeded) as exc:
            separate(self.ten_targets(f23, 15))
        assert "repair-same-class" in str(exc.value) and "(0, 6)" in str(exc.value)

    def test_max_repairs_is_not_a_config_key(self, f23):
        data = instance_to_json(Instance(f23, [AB]))
        data["config"] = {"max_repairs": 5}
        with pytest.raises(ParseError):
            parse_instance(data)


class _Lemma3Called(Exception):
    pass


def _refuse_lemma3(*args, **kwargs):
    raise _Lemma3Called


def _colliding_pairs(orders: list[int]) -> set[tuple[int, int]]:
    return {(i, j) for i, j in itertools.combinations(range(len(orders)), 2) if orders[i] == orders[j]}


Z2Z3_WORDS = st.one_of(
    st.sampled_from(["a", "b"]),
    st.lists(st.sampled_from(["ab", "aB"]), min_size=1, max_size=5).map("".join),
)


class TestPooledRepair:
    """Repair rounds read one scored pool of small actions before any lemma.
    With it, target sets that the per-pair route did not finish certify with
    no Lemma 3 call."""

    def test_sixteen_targets(self, f23, monkeypatch):
        monkeypatch.setattr(pipeline, "lemma3_separate", _refuse_lemma3)
        words = [normalize(z2z3_syllables(t), f23) for t in SIXTEEN_TARGETS.split()]
        inst = Instance(f23, words, "theorem12")
        cert = separate(inst)
        assert len(set(cert.orders.values())) == 16
        assert verified(inst, cert).verdict

    def test_six_free_targets(self, zz, monkeypatch):
        monkeypatch.setattr(pipeline, "lemma3_separate", _refuse_lemma3)
        inst = Instance(zz, [normalize(power_syllables(t), zz) for t in SIX_FREE_TARGETS], "theorem12")
        cert = separate(inst)
        assert len(set(cert.orders.values())) == 6
        assert verified(inst, cert).verdict

    # three targets of order 3 on the factor product action; 0 and 1 share a class
    ORDER_THREE = ["abab", "abababab", "abababaB"]

    def staged(self, f23, monkeypatch, pool, lemma_candidates=()):
        """Run the finite stage on ORDER_THREE with a scripted pool and
        scripted lemma candidates (score vectors), recording which draws are
        read from the pool's source; each build() returns its label."""
        read = []

        def scripted(*args):
            for n, scores in enumerate(pool):
                read.append(n)
                yield scores, lambda n=n: [f"draw {n}"], {"action": f"draw {n}"}

        def lemmas(stage, i, j, *args):
            for n, scores in enumerate(lemma_candidates):
                yield scores, lambda n=n: [f"lemma {n}"], {"prime": n}

        monkeypatch.setattr(pipeline, "_small_action", scripted)
        monkeypatch.setattr(pipeline, "_repair_pair", lemmas)
        words = [normalize(z2z3_syllables(t), f23) for t in self.ORDER_THREE]
        transcript = []
        components, orders = pipeline._finite_stage(f23, words, RunConfig(), 0, transcript)
        return components, orders, transcript, read

    def test_round_keeps_the_first_draw_that_leaves_no_collision(self, f23, monkeypatch):
        # draw 0 only shrinks the set, draw 1 changes nothing, draw 3 is never read
        pool = [[5, 1, 1], [1, 1, 1], [5, 7, 1], [11, 13, 17]]
        comps, orders, transcript, read = self.staged(f23, monkeypatch, pool)
        assert comps == ["draw 2"] and read == [0, 1, 2]
        assert orders == {0: 15, 1: 21, 2: 3}
        assert transcript == [{"stage": "repair-same-class", "pair": [0, 1], "action": "draw 2"}]

    def test_round_keeps_the_earliest_smallest_draw(self, f23, monkeypatch):
        # round 1: draws 0 and 2 each leave one pair, draw 0 comes first;
        # round 2 re-reads the pool, none shrinks {(1, 2)}, and the lemma
        # candidates part it
        pool = [[5, 1, 1], [1, 1, 1], [5, 5, 1], [7, 7, 7]]
        comps, orders, transcript, read = self.staged(f23, monkeypatch, pool, [[1, 1, 1], [1, 7, 1]])
        assert comps == ["draw 0", "lemma 1"] and read == [0, 1, 2, 3]
        assert orders == {0: 15, 1: 21, 2: 3}
        assert transcript == [
            {"stage": "repair-same-class", "pair": [0, 1], "action": "draw 0"},
            {"stage": "repair-cross-class", "pair": [1, 2], "prime": 1},
        ]

    def test_entry_names_the_least_pair_parted(self, f23, monkeypatch):
        # draw 0 leaves (0, 1) colliding: its round parts (0, 2) and (1, 2)
        pool = [[5, 5, 1], [7, 1, 1]]
        comps, orders, transcript, _read = self.staged(f23, monkeypatch, pool)
        assert comps == ["draw 0", "draw 1"]
        assert orders == {0: 105, 1: 15, 2: 3}
        assert transcript == [
            {"stage": "repair-cross-class", "pair": [0, 2], "action": "draw 0"},
            {"stage": "repair-same-class", "pair": [0, 1], "action": "draw 1"},
        ]

    def test_each_draw_is_scored_once(self, f23, monkeypatch):
        # two pooled rounds re-read the scores of the first round's draws
        scored = []
        real = pipeline.fiber_order

        def counted(returns, maps, inverse_maps, y):
            scored.append((returns, maps))
            return real(returns, maps, inverse_maps, y)

        monkeypatch.setattr(pipeline, "fiber_order", counted)
        cert = separate(TestRepairAcceptance.ten_targets(f23, 65))
        assert len(repair_stages(cert)) == 2
        assert len(set(scored)) == len(scored) > 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(Z2Z3_WORDS, min_size=2, max_size=6, unique=True))
    def test_rounds_shrink_the_colliding_set(self, f23, texts):
        words = [normalize(z2z3_syllables(t), f23) for t in texts]
        try:
            _check_rounds(Instance(f23, words, "theorem12"))
        except (ConjugatePair, _Lemma3Called):
            pass

    @pytest.mark.parametrize("seed", sorted(TEN_TARGETS))
    def test_ten_target_rounds_shrink_the_colliding_set(self, f23, seed):
        # seed 65 takes two pooled rounds
        words = [normalize(z2z3_syllables(t), f23) for t in TEN_TARGETS[seed].split()]
        _check_rounds(Instance(f23, words, "theorem12"))


def _check_rounds(inst: Instance) -> None:
    """Separate with Lemma 3 refused and replay the repair rounds from the
    certificate: every round's component strictly shrinks the colliding set
    and parts the pair its entry names, and a pooled draw's graph has the
    orders it was scored with."""
    scored = {}
    real = pipeline._small_action

    def recorded(*args):
        for scores, build, entry in real(*args):
            def logged(build=build, scores=scores):
                comps = build()
                scored[id(comps[0])] = scores
                return comps

            yield scores, logged, entry

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_small_action", recorded)
        mp.setattr(pipeline, "lemma3_separate", _refuse_lemma3)
        cert = separate(inst)
    entries = [t for t in cert.transcript if t["stage"].startswith("repair-")]
    assert len(entries) == len(cert.components)
    base = cayley_base(*inst.factors.groups())
    orders = [word_order(base, w) for w in inst.targets]
    for entry, comp in zip(entries, cert.components):
        on_comp = [word_order(comp.graph, w) for w in inst.targets]
        new = [math.lcm(o, c) for o, c in zip(orders, on_comp)]
        assert _colliding_pairs(new) < _colliding_pairs(orders)
        assert tuple(entry["pair"]) == min(_colliding_pairs(orders) - _colliding_pairs(new))
        if "action" in entry:
            assert scored[id(comp)] == on_comp
        orders = new
    assert orders == [cert.orders[n] for n in range(len(inst.targets))]
    assert len(set(orders)) == len(inst.targets)


class TestTheorem3:
    def test_mixed_with_hyperbolic(self, f23):
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB], "theorem3")
        cert = separate(inst)
        assert len(set(cert.orders.values())) == 3
        assert verified(inst, cert).verdict

    def test_retraction_case(self, zz3):
        # Z -> Z/6 gives x and x^3 orders 6 and 2 and keeps b's 3: no
        # target dies
        x1 = NormalForm(((0, 1),))
        x3 = NormalForm(((0, 3),))
        b = NormalForm(((1, 1),))
        inst = Instance(zz3, [x1, x3, b], "theorem3")
        cert = separate(inst)
        assert cert.orders == {0: 6, 1: 2, 2: 3}
        assert verified(inst, cert).verdict

    def test_identity_branch_finite(self, f23):
        inst = Instance(f23, [E, NormalForm((A,)), NormalForm((B,))], "theorem3")
        cert = separate(inst)
        assert cert.orders == {0: 1, 1: 2, 2: 3}
        assert verified(inst, cert).verdict

    def test_identity_branch_infinite(self, zz3):
        inst = Instance(zz3, [E, NormalForm(((0, 2),)), NormalForm(((1, 1),))], "theorem3")
        cert = separate(inst)
        assert cert.orders[0] == 1
        assert len(set(cert.orders.values())) == 3
        assert verified(inst, cert).verdict

    def test_infinite_u_with_finite_v(self, zz3):
        inst = Instance(
            zz3,
            [NormalForm(((0, 1),)), NormalForm(((1, 1),)), NormalForm(((0, 1), (1, 1)))],
            "theorem3",
        )
        cert = separate(inst)
        assert len(set(cert.orders.values())) == 3
        assert verified(inst, cert).verdict

    def test_two_same_order_elements_on_one_side(self, klein, z3):
        # x and y are distinct involutions: no quotient of the Klein group
        # keeps both alive with distinct orders, but killing one does
        inst = Instance(
            finite_factors(klein, z3),
            [NormalForm(((0, 1),)), NormalForm(((0, 2),)), NormalForm(((1, 1),))],
        )
        oracle = brute_force_search(instance_to_json(inst), max_degree=4)
        assert oracle.found and sorted(oracle.orders.values()) == [1, 2, 3]
        cert = separate(inst)
        assert sorted(cert.orders.values()) == [1, 2, 3]
        assert verified(inst, cert).verdict

    @pytest.mark.parametrize("e", [1, 2])
    def test_involution_dies_beside_hyperbolic_syllables(self, klein, z3, e):
        # x, y and x b z b^e with z = xy: every order-2 quotient of the Klein
        # group kills x, y or z, and the hyperbolic syllables x and z must
        # stay alive, so y dies (so does the syllable quotient xz = y)
        factors = finite_factors(klein, z3)
        inst = Instance(
            factors,
            [NormalForm(((0, 1),)), NormalForm(((0, 2),)),
             NormalForm(((0, 1), (1, 1), (0, 3), (1, e)))],
        )
        assert brute_force_search(instance_to_json(inst), max_degree=6).found
        cert = separate(inst)
        assert cert.factor_homs[0].map == (0, 1, 0, 1)
        assert cert.orders[1] == 1
        assert len(set(cert.orders.values())) == 3
        assert verified(inst, cert).verdict

    def test_involution_dies_with_no_target_on_the_other_side(self, klein, z3):
        # Klein*Z/3 case 38 of the oracle sweep: b z b^2 reduces to the
        # involution z, and only a quotient that kills y parts z and y
        factors = finite_factors(klein, z3)
        raw = [[(1, 2), (0, 3)], [(1, 1), (0, 3), (1, 2)], [(0, 2)]]
        inst = Instance(factors, [normalize(w, factors) for w in raw])
        cert = separate(inst)
        assert cert.orders == {0: 6, 1: 2, 2: 1}
        assert verified(inst, cert).verdict

    def test_equal_orders_under_every_hom(self, zz5):
        # b and b^2 have equal orders under every homomorphism
        inst = Instance(zz5, [NormalForm(((0, 1),)), NormalForm(((1, 1),)), NormalForm(((1, 2),))])
        with pytest.raises(NoFactorHom):
            separate(inst)

    def test_target_cap(self, f23):
        words = [NormalForm((A,)), NormalForm((B,)), AB, ABAB2]
        with pytest.raises(HypothesisViolation):
            Instance(f23, words, "theorem3")

    def test_delegates_when_one_sided(self, f23):
        # no factor-1 element: the general pipeline takes over
        inst = Instance(f23, [NormalForm((A,)), AB], "theorem3")
        cert = separate(inst)
        assert cert.orders[0] != cert.orders[1]
        assert verified(inst, cert).verdict


class TestAssemble:
    def test_certificate_carries_no_product(self, f23):
        # the factor product action, disjoint-union the components, is the
        # witness action; no product of them is materialized, however small
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,))], "theorem12")
        cert = separate(inst)
        assert "product" not in cert.to_json()
        assert verified(inst, cert).verdict

    def test_lcm_orders(self, f23):
        inst = Instance(f23, [ABAB2, power(AB, 6, f23)], "theorem12")
        cert = separate(inst)
        for i, w in enumerate([ABAB2, power(AB, 6, f23)]):
            on_comps = [word_order(c.graph, w) for c in cert.components]
            assert cert.orders[i] == math.lcm(product_order(w, f23), *on_comps)

    def test_homs_carry_only_what_the_instance_leaves_open(self, f23, zz3, klein, z3):
        # identity and modulus homs carry no table; a proper quotient carries
        # its map and target table
        X = NormalForm(((0, 1),))
        cases = [
            (Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB]),
             [{"kind": "identity"}, {"kind": "identity"}]),
            (Instance(zz3, [X, NormalForm((B,)), NormalForm(((0, 1), B))]),
             [{"kind": "infinite_cyclic", "modulus": 2}, {"kind": "identity"}]),
            (Instance(finite_factors(klein, z3),
                      [NormalForm(((0, 1),)), NormalForm(((0, 2),)), NormalForm((B,))]),
             [{"kind": "finite", "map": [0, 0, 1, 1], "target_table": [[0, 1], [1, 0]]},
              {"kind": "identity"}]),
        ]
        for inst, homs in cases:
            cert = separate(inst)
            assert cert.to_json()["factor_homs"] == homs
            assert verified(inst, cert).verdict


def _product_order_groups():
    groups = {f"Z/{n}": cyclic_group(n) for n in range(2, 7)}
    groups["Klein"] = validate_group([[i ^ j for j in range(4)] for i in range(4)])
    groups.update(two_generator_groups())  # S3, D4, Q8, A4
    return groups


class TestProductOrder:
    """On the factor product action, the regular action of A x B, a word's
    order is the lcm of its factor images' orders: the construction's table
    arithmetic, a walk through the built action and the verifier's own
    arithmetic on the mapped reduced word agree."""

    GROUPS = _product_order_groups()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_three_ways_agree(self, data):
        names = sorted(self.GROUPS)
        ga = self.GROUPS[data.draw(st.sampled_from(names))]
        gb = self.GROUPS[data.draw(st.sampled_from(names))]
        syllables = st.tuples(st.integers(0, 1), st.integers(0, 11))
        raw = [(f, v % (ga, gb)[f].n) for f, v in data.draw(st.lists(syllables, max_size=12))]
        factors = finite_factors(ga, gb)
        w = normalize(raw, factors)
        expected = word_order(cayley_base(ga, gb), w)
        assert product_order(w, factors) == expected
        tables = [[list(row) for row in g.table] for g in (ga, gb)]
        homs = [{"kind": "finite", "map": list(range(g.n))} for g in (ga, gb)]
        mapped = verify._reduce(verify._map_syllables(raw, homs), tables)
        assert verify._product_order(mapped, tables) == expected


class TestInstanceJson:
    def test_roundtrip(self, f23):
        inst = Instance(f23, [AB, ABAB2], "theorem12")
        data = instance_to_json(inst)
        back = parse_instance(data)
        assert back.targets == inst.targets
        assert back.mode == "theorem12"

    def test_bad_mode(self, f23):
        from ordersep.errors import ParseError

        with pytest.raises(ParseError):
            parse_instance({"factors": [{"type": "finite", "table": [[0]]}] * 2,
                            "targets": [], "mode": "nonsense"})

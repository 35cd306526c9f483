import math

import pytest
from hypothesis import given, strategies as st

from ordersep.config import RunConfig
from ordersep.covergraph import cayley_base, close_edge_scan, word_order, word_perm_array, x_cycles
from ordersep import lemmas
from ordersep.errors import (
    BudgetExceeded,
    HypothesisViolation,
    NotCyclicallyReduced,
    NotInCartesian,
    PostconditionFailed,
    TrivialTarget,
)
from ordersep.groupcore import element_order
from ordersep.lemmas import (
    Component,
    SeparationResult,
    connecting_words,
    factorization,
    fresh_prime,
    is_prime,
    is_prime_power,
    lemma1_boost,
    lemma2_declose,
    lemma3_separate,
    lemma4_power_separate,
    valuation,
)
from ordersep.words import NormalForm, invert, multiply, normalize, power

A = (0, 1)
B = (1, 1)
B2 = (1, 2)
AB = NormalForm((A, B))
ABAB2 = NormalForm((A, B, A, B2))  # the commutator a b a^-1 b^-1, lies in C
AB2AB = NormalForm((A, B2, A, B))


def test_fresh_prime():
    assert fresh_prime(set()) == 2
    assert fresh_prime({2, 3}) == 5
    assert fresh_prime({2, 5}) == 3


def test_is_prime_power():
    assert is_prime_power(8, 2) and is_prime_power(1, 5)
    assert not is_prime_power(12, 2)


SIEVE_LIMIT = 10 ** 4


def _sieve(limit: int) -> list[bool]:
    prime = [False, False] + [True] * (limit - 1)
    for d in range(2, limit + 1):
        if prime[d]:
            for multiple in range(d * d, limit + 1, d):
                prime[multiple] = False
    return prime


SIEVE = _sieve(SIEVE_LIMIT)
PRIMES = [n for n in range(SIEVE_LIMIT + 1) if SIEVE[n]]


class TestIntegerHelpers:
    def test_is_prime_agrees_with_sieve(self):
        assert [n for n in range(-3, SIEVE_LIMIT + 1) if is_prime(n)] == PRIMES

    @given(st.integers(1, 10 ** 9))
    def test_factorization_multiplies_back(self, n):
        factors = factorization(n)
        assert math.prod(p ** e for p, e in factors.items()) == n
        for p, e in factors.items():
            assert is_prime(p) and e >= 1 and valuation(p, n) == e

    @given(st.sampled_from(PRIMES[:50]), st.integers(0, 12), st.integers(-10 ** 6, 10 ** 6))
    def test_valuation(self, p, k, m):
        if m % p == 0:
            m += 1
        assert valuation(p, p ** k * m) == k

    def test_valuation_of_zero_rejected(self):
        with pytest.raises(ValueError):
            valuation(3, 0)

    @given(st.integers(0, SIEVE_LIMIT // 2))
    def test_next_prime_is_least_prime_above(self, n):
        q = fresh_prime(set(range(2, n + 1)))
        assert q > n and SIEVE[q]
        assert not any(SIEVE[r] for r in range(n + 1, q))

    @given(st.sets(st.sampled_from(PRIMES[:30]), max_size=29))
    def test_fresh_prime_is_least_prime_not_excluded(self, excluded):
        assert fresh_prime(excluded) == min(set(PRIMES) - excluded)


class TestLemma1:
    def test_boost_order_above_threshold(self, f23):
        comp = lemma1_boost([ABAB2], 2, 1, f23, seed=1)
        o = word_order(comp.graph, ABAB2)
        assert o > 2 and is_prime_power(o, 2)

    def test_boost_strictly_above_power(self, f23):
        comp = lemma1_boost([ABAB2], 2, 2, f23, seed=2)
        o = word_order(comp.graph, ABAB2)
        assert o > 4 and is_prime_power(o, 2)

    def test_nontrivial_at_zero_threshold(self, f23):
        comp = lemma1_boost([ABAB2], 2, 0, f23, seed=3)
        assert word_order(comp.graph, ABAB2) >= 2

    def test_rejects_non_cartesian(self, f23):
        with pytest.raises(NotInCartesian):
            lemma1_boost([AB], 2, 1, f23)

    def test_rejects_trivial(self, f23):
        with pytest.raises(TrivialTarget):
            lemma1_boost([NormalForm()], 2, 1, f23)

    def test_factor_orders_kept(self, f23):
        comp = lemma1_boost([ABAB2], 2, 2, f23, seed=4)
        ga, gb = f23.groups()
        for f, grp in ((0, ga), (1, gb)):
            for c in range(1, grp.n):
                assert word_order(comp.graph, NormalForm(((f, c),))) == element_order(grp, c)

    def test_odd_prime(self, f23):
        comp = lemma1_boost([ABAB2], 3, 1, f23, seed=5)
        o = word_order(comp.graph, ABAB2)
        assert o > 3 and is_prime_power(o, 3)

    def test_multiple_targets(self, f23):
        comp = lemma1_boost([ABAB2, AB2AB], 2, 1, f23, seed=6)
        for w in (ABAB2, AB2AB):
            o = word_order(comp.graph, w)
            assert o > 2 and is_prime_power(o, 2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_dead_fiber_level_skipped(self, f23, p, seed):
        # the commutator of the two basis generators has exponent sums 0, so
        # it acts trivially on p fiber points, where the wreath group is Z/p
        comm = multiply(
            multiply(ABAB2, AB2AB, f23), multiply(invert(ABAB2, f23), invert(AB2AB, f23), f23), f23
        )
        comp = lemma1_boost([comm], p, 0, f23, seed=seed)
        attempt = int(comp.note.rsplit("attempt ", 1)[1].rstrip(")"))
        assert f"fiber {p * p}," in comp.note and attempt <= 5
        o = word_order(comp.graph, comm)
        assert o > 1 and is_prime_power(o, p)

    def test_live_fiber_level_kept(self, f23):
        comp = lemma1_boost([ABAB2], 5, 0, f23, seed=0)
        assert "fiber 5," in comp.note


class TestConnectingWords:
    def test_counts_for_length_two_root(self, f23):
        # root ab: z in {1,a,b,b^2} x (mu,nu) in {1,2}^2 minus the two
        # excluded identity pairs, minus degenerate connectors
        triples = connecting_words(AB, f23)
        assert all(not chi.is_identity for *_x, chi in triples)
        zs = {t[0] for t in triples}
        assert len(zs) >= 3
        # degenerate case check: z = a at (mu, nu) = (1, 1) collapses to a*a = 1
        degen = normalize(((0, 1), (0, 1)), f23)
        assert degen.is_identity

    def test_all_connectors_off_cyclic(self, f23):
        from ordersep.lemmas import _word_in_cyclic

        for root in (AB, ABAB2):
            for _z, _mu, _nu, chi in connecting_words(root, f23):
                assert not _word_in_cyclic(chi, root, f23)


class TestLemma2:
    def test_declose_single_commutator(self, f23):
        res = lemma2_declose([ABAB2], 2, f23, seed=1)
        g = res.components[0].graph
        assert close_edge_scan(g, ABAB2) is None
        cycles = x_cycles(g, ABAB2)
        assert not any(c.close for c in cycles)
        o = res.orders[0]
        assert o > 1 and is_prime_power(o, 2)
        # m = 1 here, so the root order equals the target order
        assert word_order(g, ABAB2) == o

    def test_declose_proper_power_input(self, f23):
        # (ab)^6 has primitive root ab with minimal Cartesian power 6
        w = power(AB, 6, f23)
        res = lemma2_declose([w], 2, f23, seed=2)
        g = res.components[0].graph
        assert close_edge_scan(g, w) is None
        o = res.orders[0]
        assert o > 1 and is_prime_power(o, 2)
        assert word_order(g, AB) == 6 * o

    def test_rejects_not_cyclically_reduced(self, f23):
        w = normalize((B, A, B, A, B2, B2), f23)  # b a b a b^2 b^2 -> conjugate word
        # build an explicitly non-cyclically-reduced Cartesian word
        w = normalize(((1, 1), (0, 1), (1, 1), (0, 1), (1, 1), (1, 0)), f23)
        bad = NormalForm(((1, 1), (0, 1), (1, 2), (0, 1), (1, 2), (0, 1), (1, 1)))
        from ordersep.words import factor_image, is_cyclically_reduced

        assert not is_cyclically_reduced(bad)
        if factor_image(bad, f23) == (0, 0):
            with pytest.raises(NotCyclicallyReduced):
                lemma2_declose([bad], 2, f23)

    def test_rejects_power_of_cartesian_word(self, f23):
        # the square of a C-word violates the minimal-power hypothesis
        with pytest.raises(HypothesisViolation):
            lemma2_declose([power(ABAB2, 2, f23)], 2, f23)

    def test_connector_exclusion_as_permutations(self, f23):
        res = lemma2_declose([ABAB2], 2, f23, seed=3)
        g = res.components[0].graph
        proot = word_perm_array(g, ABAB2)
        order = res.orders[0]
        powers = set()
        cur = tuple(range(g.vcount))
        for _ in range(order):
            powers.add(cur)
            cur = tuple(proot[x] for x in cur)
        assert len(powers) == order
        for _z, _mu, _nu, chi in connecting_words(ABAB2, f23):
            assert word_perm_array(g, chi) not in powers

    def test_multi_target(self, f23):
        w2 = power(AB, 6, f23)
        res = lemma2_declose([ABAB2, w2], 2, f23, seed=4)
        g = res.components[0].graph
        for w in (ABAB2, w2):
            assert close_edge_scan(g, w) is None


class TestLemma3:
    def test_two_words_with_pi(self, f23):
        targets = [ABAB2, power(AB, 6, f23)]
        res = lemma3_separate(targets, {3}, f23, seed=1)
        o0, o1 = res.orders[0], res.orders[1]
        assert o0 != o1
        assert o0 % 3 and o1 % 3
        assert o0 > 1 and o1 > 1
        # recompute independently across components
        for idx, t in enumerate(targets):
            assert res.orders[idx] == math.lcm(
                *(word_order(c.graph, t) for c in res.components)
            )

    def test_component_prime_purity(self, f23):
        targets = [ABAB2, power(AB, 6, f23)]
        res = lemma3_separate(targets, {3}, f23, seed=2)
        for comp in res.components:
            assert comp.prime is not None
            for t in targets:
                assert is_prime_power(word_order(comp.graph, t), comp.prime)

    def test_shared_root_rejected(self, f23):
        with pytest.raises(HypothesisViolation):
            lemma3_separate([ABAB2, power(ABAB2, 2, f23)], set(), f23)

    def test_single_target_base_case(self, f23):
        res = lemma3_separate([ABAB2], {2, 3}, f23, seed=3)
        assert len(res.components) == 1
        assert res.components[0].prime == 5
        assert res.orders[0] % 2 and res.orders[0] % 3
        assert res.orders[0] > 1

    def test_empty_pi(self, f23):
        targets = [ABAB2, power(AB, 6, f23)]
        res = lemma3_separate(targets, set(), f23, seed=4)
        assert res.orders[0] != res.orders[1]

    def test_failed_equalization_names_attempts_and_reason(self, f23, monkeypatch):
        # every attempt declosed at once, and every equalization fails
        declosed = SeparationResult([Component(cayley_base(*f23.groups()), None)], {})

        def fail(*_args):
            raise PostconditionFailed("tracked path lost")

        monkeypatch.setattr(lemmas, "lemma2_declose", lambda *_args, **_kwargs: declosed)
        monkeypatch.setattr(lemmas, "_equalize_until_split", fail)
        with pytest.raises(BudgetExceeded) as info:
            lemma3_separate([ABAB2, power(AB, 6, f23)], {3}, f23, seed=1)
        assert type(info.value) is BudgetExceeded and info.value.exit_code == 3
        assert str(info.value) == "equalization failed in all 3 attempts; last: tracked path lost"


class TestLemma4:
    def test_exponents_one_two(self, f23):
        res = lemma4_power_separate(ABAB2, [1, 2], f23, seed=1)
        o1, o2 = res.orders[0], res.orders[1]
        assert o1 != o2
        # p=2 boost above 2^2 forces order(w) >= 8 on the 2-component
        two_comp = [c for c in res.components if c.prime == 2]
        assert two_comp and word_order(two_comp[0].graph, ABAB2) >= 8
        assert o2 == o1 // math.gcd(o1, 2)

    def test_single_exponent(self, f23):
        res = lemma4_power_separate(ABAB2, [1], f23, seed=2)
        assert res.orders[0] > 1

    def test_equal_magnitudes_rejected(self, f23):
        with pytest.raises(HypothesisViolation):
            lemma4_power_separate(ABAB2, [2, -2], f23)

    def test_zero_exponent_rejected(self, f23):
        with pytest.raises(HypothesisViolation):
            lemma4_power_separate(ABAB2, [0, 1], f23)

    def test_three_exponents_power_law(self, f23):
        res = lemma4_power_separate(ABAB2, [1, 2, 3], f23, seed=3)
        values = [res.orders[i] for i in range(3)]
        assert len(set(values)) == 3
        for comp in res.components:
            base = word_order(comp.graph, ABAB2)
            for k in (1, 2, 3):
                assert word_order(comp.graph, power(ABAB2, k, f23)) == base // math.gcd(base, k)

    def test_negative_exponent(self, f23):
        res = lemma4_power_separate(ABAB2, [1, -2], f23, seed=4)
        assert res.orders[0] != res.orders[1]

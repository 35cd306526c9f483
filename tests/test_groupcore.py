import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ordersep.errors import BudgetExceeded, NotAGroup, NotNormal, ParseError
from ordersep.groupcore import (
    FactorHom,
    FiniteGroup,
    Permutation,
    cyclic_group,
    element_order,
    normal_subgroups,
    perm_order,
    quotient,
    random_wreath_element,
    validate_group,
)

from helpers import (
    bench_finite_tables,
    first_non_associative_triple,
    mulclose,
    perm_group,
    quaternion_table,
    random_loop_table,
    wreath_p_group,
    z2_times_loop,
    z500_loop,
)


def brute_subgroups(group):
    """Oracle: all subgroups by subset enumeration (tiny groups only)."""
    out = []
    for r in range(group.n):
        for combo in itertools.combinations(range(1, group.n), r):
            s = {0, *combo}
            closed = all(group.mul(x, y) in s for x in s for y in s)
            if closed and all(group.inv[x] in s for x in s):
                out.append(frozenset(s))
    return out


def brute_normal_subgroups(group):
    return [
        s
        for s in brute_subgroups(group)
        if all(group.conjugate(g, x) in s for x in s for g in group.elements())
    ]


def _extra_groups():
    z2z6 = [[((x // 6 + y // 6) % 2) * 6 + (x + y) % 6 for y in range(12)] for x in range(12)]
    return {
        "Q8": validate_group(quaternion_table()),
        "A4": perm_group((1, 2, 0, 3), (1, 0, 3, 2)),
        "D6": perm_group((1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)),
        "Z2xZ6": validate_group(z2z6),
    }


# number of normal subgroups, from the groups' known lattices
NORMAL_COUNTS = {
    "Z2": 2, "Z3": 2, "Z4": 3, "Z5": 2, "Z6": 4, "Klein": 5, "S3": 3, "D4": 6,
    "Q8": 6, "A4": 3, "D6": 7, "Z2xZ6": 10,
}


def _sample_groups():
    groups = {name: validate_group(t) for name, t in bench_finite_tables().items()}
    return {**groups, **_extra_groups()}


class TestValidateGroup:
    def test_z2(self):
        g = validate_group([[0, 1], [1, 0]])
        assert g.n == 2 and g.inv == (0, 1)

    def test_z3(self):
        g = validate_group([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        assert g.inv == (0, 2, 1)

    def test_latin_square_violation(self):
        with pytest.raises(NotAGroup, match="not a permutation"):
            validate_group([[0, 1], [1, 1]])

    def test_no_identity(self):
        with pytest.raises(NotAGroup):
            validate_group([[1, 0, 2], [0, 2, 1], [2, 1, 0]])

    def test_refuses_identity_off_zero(self):
        # Z/3 written with its identity at index 2: elements are read by
        # their labels, so the table is refused, not relabelled
        with pytest.raises(ParseError, match="the identity is not element 0"):
            validate_group([[1, 2, 0], [2, 0, 1], [0, 1, 2]])

    def test_cyclic_group_matches_validate_group(self):
        # cyclic_group builds Z/n without validating it
        for n in range(1, 65):
            built = cyclic_group(n)
            checked = validate_group([[(i + j) % n for j in range(n)] for i in range(n)])
            assert (built.n, built.table, built.inv, built.gens) == (
                checked.n, checked.table, checked.inv, checked.gens
            ), n

    def test_associativity_violation(self):
        # a Latin square with two-sided identity that is not a group
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(NotAGroup, match="associativity"):
            validate_group(table)


class TestTableWitnesses:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(5, 8), st.integers(0, 2 ** 32))
    def test_associativity_witness_is_the_first_triple(self, n, seed):
        table = random_loop_table(n, random.Random(seed))
        triple = first_non_associative_triple(table)
        if triple is None:
            validate_group(table)
            return
        with pytest.raises(NotAGroup, match=rf"associativity fails at \({triple[0]},{triple[1]},{triple[2]}\)$"):
            validate_group(table)

    def test_table_over_64_elements_is_checked_exactly(self):
        table = z500_loop()
        assert first_non_associative_triple(table) == (1, 1, 2)
        with pytest.raises(NotAGroup, match=r"associativity fails at \(1,1,2\)$"):
            validate_group(table)

    def test_every_generator_is_checked(self):
        table = z2_times_loop()
        a, b, c = first_non_associative_triple(table)
        with pytest.raises(NotAGroup, match=rf"associativity fails at \({a},{b},{c}\)$"):
            validate_group(table)

    def test_loops_are_mostly_not_groups(self):
        # so the property above mostly exercises the associativity witness
        rng = random.Random(5)
        misses = sum(first_non_associative_triple(random_loop_table(6, rng)) is not None for _ in range(20))
        assert misses >= 15

    @pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4"])
    def test_hom_check_names_the_first_failing_pair(self, name):
        group = _sample_groups()[name]
        rng = random.Random(name)
        for _ in range(20):
            img = [0] + [rng.randrange(group.n) for _ in range(group.n - 1)]
            first = next(
                ((x, y) for x in group.elements() for y in group.elements()
                 if img[group.mul(x, y)] != group.mul(img[x], img[y])),
                None,
            )
            hom = FactorHom(kind="finite", target=group, map=tuple(img), source=group)
            if first is None:
                hom.check()
            else:
                with pytest.raises(NotAGroup, match=rf"at \({first[0]},{first[1]}\)$"):
                    hom.check()


class TestElementOrder:
    def test_z3_generator(self, z3):
        assert element_order(z3, 1) == 3

    def test_identity(self, z2):
        assert element_order(z2, 0) == 1

    def test_z6_by_direct_powering(self, z6):
        # oracle: power until identity
        for x in z6.elements():
            k, cur = 1, x
            while cur != 0:
                cur = z6.mul(cur, x)
                k += 1
            assert element_order(z6, x) == k
        assert element_order(z6, 2) == 3


class TestNormalSubgroups:
    def test_z2(self, z2):
        assert normal_subgroups(z2) == [frozenset({0}), frozenset({0, 1})]

    def test_z6_matches_brute_force(self, z6):
        got = set(normal_subgroups(z6))
        assert got == set(brute_normal_subgroups(z6))
        assert len(got) == 4

    def test_klein_all_subgroups_normal(self, klein):
        got = set(normal_subgroups(klein))
        assert got == set(brute_normal_subgroups(klein))
        assert len(got) == 5

    def test_s3_proper_normal(self):
        # S3 as permutations of 3 points, identity listed first
        perms = sorted(itertools.permutations(range(3)), key=lambda p: (p != (0, 1, 2), p))
        idx = {p: i for i, p in enumerate(perms)}
        table = [[idx[tuple(q[i] for i in p)] for q in perms] for p in perms]
        s3 = validate_group(table)
        got = set(normal_subgroups(s3))
        assert got == set(brute_normal_subgroups(s3))
        assert sorted(len(s) for s in got) == [1, 3, 6]

    @pytest.mark.parametrize("name", sorted(NORMAL_COUNTS))
    def test_matches_brute_force_list(self, name):
        group = _sample_groups()[name]
        expected = sorted(brute_normal_subgroups(group), key=lambda s: (len(s), sorted(s)))
        got = normal_subgroups(group)
        assert got == expected
        assert len(got) == NORMAL_COUNTS[name]

    def test_every_bench_table_is_covered(self):
        assert set(bench_finite_tables()) <= set(NORMAL_COUNTS)

    def test_extra_groups_by_element_orders(self):
        # the orders tell the groups apart from the other groups of their size
        orders = {
            name: sorted(element_order(g, x) for x in g.elements()) for name, g in _extra_groups().items()
        }
        assert orders["Q8"] == [1, 2] + [4] * 6
        assert orders["A4"] == [1] + [2] * 3 + [3] * 8
        assert orders["D6"] == [1] + [2] * 7 + [3] * 2 + [6] * 2
        assert orders["Z2xZ6"] == [1] + [2] * 3 + [3] * 2 + [6] * 6

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            normal_subgroups(cyclic_group(129))

    def test_order_sums(self, z6, klein):
        for g in (z6, klein):
            for n in normal_subgroups(g):
                assert g.n % len(n) == 0


class TestQuotient:
    def test_z6_mod_3(self, z6):
        q, hom = quotient(z6, {0, 3})
        assert q.n == 3
        hom.check()
        assert hom.map[0] == 0
        # oracle: coset of x+y is coset(x)*coset(y)
        for x in z6.elements():
            for y in z6.elements():
                assert hom.map[z6.mul(x, y)] == q.mul(hom.map[x], hom.map[y])

    def test_trivial_quotients(self, z6):
        q, hom = quotient(z6, {0})
        assert q.n == 6 and hom.map == tuple(range(6))
        q, _ = quotient(z6, set(range(6)))
        assert q.n == 1

    def test_not_normal(self):
        perms = sorted(itertools.permutations(range(3)), key=lambda p: (p != (0, 1, 2), p))
        idx = {p: i for i, p in enumerate(perms)}
        table = [[idx[tuple(q[i] for i in p)] for q in perms] for p in perms]
        s3 = validate_group(table)
        two_el = next(
            frozenset({0, x}) for x in s3.elements() if x and element_order(s3, x) == 2
        )
        with pytest.raises(NotNormal):
            quotient(s3, two_el)

    def test_index_law(self, z6, klein):
        for g in (z6, klein):
            for n in normal_subgroups(g):
                q, _ = quotient(g, n)
                assert g.n == len(n) * q.n


class TestWreath:
    def test_base_case_is_transposition(self):
        gens = wreath_p_group(2, 1)
        assert len(gens) == 1 and gens[0].map == (1, 0)

    def test_2_2_has_order_4_element(self):
        gens = wreath_p_group(2, 2)
        prod = gens[0]
        for g in gens[1:]:
            prod = prod.then(g)
        assert perm_order(prod) == 4

    def test_3_2_group_order_by_enumeration(self):
        gens = wreath_p_group(3, 2)
        assert gens[0].degree == 9
        group = mulclose(gens)
        assert len(group) == 3 ** 4

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            wreath_p_group(2, 17)

    def test_sampled_elements_have_p_power_order(self):
        rng = random.Random(7)
        for p, m in [(2, 3), (3, 2), (5, 1)]:
            hit_max = False
            for _ in range(200):
                g = random_wreath_element(p, m, rng)
                o = perm_order(g)
                while o % p == 0:
                    o //= p
                assert o == 1
                if perm_order(g) == p ** m:
                    hit_max = True
            assert hit_max, f"no element of order {p}^{m} sampled"

    def test_sampler_stays_in_group(self):
        gens = wreath_p_group(2, 2)
        group = mulclose(gens)
        rng = random.Random(3)
        for _ in range(50):
            assert random_wreath_element(2, 2, rng) in group


class TestPermOrder:
    def test_identity(self):
        assert perm_order(Permutation.identity(5)) == 1

    def test_single_cycle_plus_fixed(self):
        g = Permutation(5, (1, 2, 3, 0, 4))
        assert perm_order(g) == 4

    def test_lcm_law(self):
        g = Permutation(5, (1, 0, 3, 4, 2))
        assert perm_order(g) == 6

    def test_commuting_powers_divide(self):
        rng = random.Random(11)
        base = list(range(8))
        rng.shuffle(base)
        g = Permutation(8, tuple(base))
        for i in range(1, 6):
            for j in range(1, 6):
                gi, gj = g.power(i), g.power(j)
                assert perm_order(gi.then(gj)) % 1 == 0
                assert math.lcm(perm_order(gi), perm_order(gj)) % perm_order(gi.then(gj)) == 0


def test_group_is_hashable_value(z6):
    assert z6 == cyclic_group(6)
    assert hash(z6) == hash(cyclic_group(6))

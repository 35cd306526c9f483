import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ordersep.errors import BadSyllable, InfiniteFactor, NotInCartesian, TrivialTarget
from ordersep.groupcore import cyclic_group
from ordersep.words import (
    IDENTITY,
    NormalForm,
    cartesian_basis,
    cyclically_reduce,
    factor_image,
    finite_factors,
    in_cartesian,
    invert,
    is_conjugate,
    is_cyclically_reduced,
    minimal_cartesian_power,
    multiply,
    normalize,
    power,
    primitive_root,
    rewrite,
)

from helpers import evaluate_basis_word, perm_group

A = (0, 1)          # the involution in Z/2
B = (1, 1)          # generator of Z/3
B2 = (1, 2)
AB = NormalForm((A, B))
ABAB2 = NormalForm((A, B, A, B2))


def all_words(factors, max_len):
    """Every normal form of syllable length <= max_len (finite factors)."""
    ga, gb = factors.groups()
    out = [IDENTITY]
    frontier = [IDENTITY]
    for _ in range(max_len):
        nxt = []
        for u in frontier:
            last = u.syllables[-1][0] if u.syllables else None
            for f in (0, 1):
                if f == last:
                    continue
                n = (ga, gb)[f].n
                for v in range(1, n):
                    nxt.append(NormalForm(u.syllables + ((f, v),)))
        out.extend(nxt)
        frontier = nxt
    return out


def random_word(factors, rng, max_len=8):
    ga, gb = factors.groups()
    raw = []
    for _ in range(rng.randrange(max_len + 1)):
        f = rng.randrange(2)
        raw.append((f, rng.randrange(1, (ga, gb)[f].n)))
    return normalize(raw, factors)


class TestNormalize:
    def test_involution_squares_to_identity(self, f23):
        assert normalize([A, A], f23) == IDENTITY

    def test_factor_cancellation_collapses(self, f23):
        assert normalize([A, B, B2], f23) == NormalForm((A,))

    def test_already_reduced(self, f23):
        assert normalize([A, B, A, B2], f23) == ABAB2

    def test_bad_syllable(self, f23):
        with pytest.raises(BadSyllable):
            normalize([(0, 5)], f23)
        with pytest.raises(BadSyllable):
            normalize([(2, 1)], f23)

    def test_idempotent_on_random_words(self, f23):
        rng = random.Random(0)
        for _ in range(500):
            u = random_word(f23, rng)
            assert normalize(u.syllables, f23) == u
            assert all(v != 0 for _, v in u.syllables)
            assert all(
                u.syllables[i][0] != u.syllables[i + 1][0]
                for i in range(len(u) - 1)
            )

    def test_infinite_cyclic_exponents(self, zxz):
        u = normalize([(0, 3), (0, -3), (1, 2)], zxz)
        assert u == NormalForm(((1, 2),))
        big = normalize([(0, 10 ** 30), (1, 1), (0, -(10 ** 30))], zxz)
        assert len(big) == 3


class TestMultiplyInvert:
    def test_cancellation(self, f23):
        b2 = NormalForm((B2,))
        assert multiply(AB, b2, f23) == NormalForm((A,))

    def test_invert_example(self, f23):
        assert invert(AB, f23) == NormalForm((B2, A))

    def test_mul_inverse_gives_identity(self, f23):
        rng = random.Random(1)
        for _ in range(300):
            u = random_word(f23, rng)
            assert multiply(u, invert(u, f23), f23) == IDENTITY
            assert multiply(invert(u, f23), u, f23) == IDENTITY

    def test_associativity_random(self, f23):
        rng = random.Random(2)
        for _ in range(300):
            u, v, x = (random_word(f23, rng, 5) for _ in range(3))
            lhs = multiply(multiply(u, v, f23), x, f23)
            rhs = multiply(u, multiply(v, x, f23), f23)
            assert lhs == rhs

    def test_invert_antihomomorphism(self, f23):
        rng = random.Random(3)
        for _ in range(300):
            u, v = random_word(f23, rng, 5), random_word(f23, rng, 5)
            assert invert(multiply(u, v, f23), f23) == multiply(
                invert(v, f23), invert(u, f23), f23
            )


class TestCyclicReduce:
    def test_conjugated_factor_element(self, f23):
        core, conj = cyclically_reduce(NormalForm((B, A, B2)), f23)
        assert core == NormalForm((A,))
        assert conj == NormalForm((B,))
        rebuilt = multiply(multiply(conj, core, f23), invert(conj, f23), f23)
        assert rebuilt == NormalForm((B, A, B2))

    def test_already_reduced(self, f23):
        assert cyclically_reduce(AB, f23) == (AB, IDENTITY)

    def test_identity(self, f23):
        assert cyclically_reduce(IDENTITY, f23) == (IDENTITY, IDENTITY)

    def test_roundtrip_random(self, f23):
        rng = random.Random(4)
        for _ in range(500):
            u = random_word(f23, rng)
            core, conj = cyclically_reduce(u, f23)
            assert is_cyclically_reduced(core)
            assert multiply(multiply(conj, core, f23), invert(conj, f23), f23) == u


def brute_conjugate(x, y, factors, max_len=6):
    """Oracle: search an explicit conjugator of syllable length <= max_len."""
    for g in all_words(factors, max_len):
        if multiply(multiply(invert(g, factors), x, factors), g, factors) == y:
            return True
    return False


class TestIsConjugate:
    def test_rotation(self, f23):
        ba = NormalForm((B, A))
        assert is_conjugate(AB, ba, f23)
        # direct witness: a^-1 (ab) a = ba
        a = NormalForm((A,))
        assert multiply(multiply(invert(a, f23), AB, f23), a, f23) == ba

    def test_non_conjugate_by_brute_force(self, f23):
        ab2 = NormalForm((A, B2))
        assert not is_conjugate(AB, ab2, f23)
        assert not brute_conjugate(AB, ab2, f23)

    def test_inverse_flag(self, f23):
        b2a = NormalForm((B2, A))
        assert not is_conjugate(AB, b2a, f23)
        assert is_conjugate(AB, b2a, f23, allow_inverse=True)
        assert invert(AB, f23) == b2a

    def test_matches_brute_force_on_short_words(self, f23):
        words = all_words(f23, 3)
        rng = random.Random(5)
        sample = rng.sample(words, 12)
        for x in sample:
            for y in sample:
                assert is_conjugate(x, y, f23) == brute_conjugate(x, y, f23), (x, y)

    def test_equivalence_relation_on_conjugate_family(self, f23):
        rng = random.Random(6)
        base = ABAB2
        family = []
        for _ in range(6):
            g = random_word(f23, rng, 4)
            family.append(multiply(multiply(invert(g, f23), base, f23), g, f23))
        for x in family:
            assert is_conjugate(x, x, f23)
            for y in family:
                assert is_conjugate(x, y, f23)
                assert is_conjugate(y, x, f23)

    def test_powers_of_nonconjugates_stay_nonconjugate(self, f23):
        # cyclically reduced hyperbolic non-conjugate pair
        x, y = AB, ABAB2
        for n in range(1, 6):
            assert not is_conjugate(power(x, n, f23), power(y, n, f23), f23, allow_inverse=True)


class TestPrimitiveRoot:
    def test_period_two(self, f23):
        w6 = normalize([A, B] * 3, f23)
        assert primitive_root(w6, f23) == (AB, 3)

    def test_length_two_primitive(self, f23):
        assert primitive_root(AB, f23) == (AB, 1)

    def test_factor_root(self, f23):
        root, m = primitive_root(NormalForm((B2,)), f23)
        assert (root, m) == (NormalForm((B,)), 2)

    def test_identity_rejected(self, f23):
        with pytest.raises(TrivialTarget):
            primitive_root(IDENTITY, f23)

    def test_root_powers_back_and_is_primitive(self, f23):
        rng = random.Random(7)
        count = 0
        while count < 200:
            u = random_word(f23, rng, 6)
            core, _ = cyclically_reduce(u, f23)
            if core.is_identity:
                continue
            count += 1
            root, m = primitive_root(core, f23)
            assert power(root, m, f23) == core
            if core.is_hyperbolic:
                # torsion factor elements sit in endless power chains, so
                # primitivity of the root is only meaningful off the factors
                assert primitive_root(root, f23)[1] == 1

    def test_infinite_cyclic_root(self, zxz):
        root, m = primitive_root(NormalForm(((0, -6),)), zxz)
        assert (root, m) == (NormalForm(((0, -1),)), 6)


class TestCartesian:
    def test_factor_image_examples(self, f23):
        assert factor_image(ABAB2, f23) == (0, 0)
        assert in_cartesian(ABAB2, f23)
        assert factor_image(AB, f23) == (1, 1)
        assert factor_image(IDENTITY, f23) == (0, 0)

    def test_infinite_factor_error(self, zxz):
        with pytest.raises(InfiniteFactor):
            factor_image(NormalForm(((0, 1),)), zxz)

    def test_minimal_power_examples(self, f23):
        assert minimal_cartesian_power(AB, f23) == 6
        assert minimal_cartesian_power(ABAB2, f23) == 1
        assert minimal_cartesian_power(NormalForm((A,)), f23) == 2

    def test_minimal_power_is_minimal(self, f23):
        rng = random.Random(8)
        for _ in range(100):
            u = random_word(f23, rng, 5)
            if u.is_identity:
                continue
            m = minimal_cartesian_power(u, f23)
            assert in_cartesian(power(u, m, f23), f23)
            for k in range(1, m):
                assert not in_cartesian(power(u, k, f23), f23)

    def test_rank(self, f23):
        cb = cartesian_basis(f23)
        assert cb.rank == 2 and len(cb.basis) == 2
        assert len(cb.transversal) == 6
        assert cb.transversal[0] == IDENTITY
        for w in cb.basis:
            assert in_cartesian(w, f23)

    def test_rank_formula_larger(self, z3, klein):
        from ordersep.words import finite_factors

        f = finite_factors(klein, z3)
        cb = cartesian_basis(f)
        assert cb.rank == (4 - 1) * (3 - 1) == len(cb.basis)

    def test_rewrite_roundtrip_example(self, f23):
        cb = cartesian_basis(f23)
        letters = rewrite(ABAB2, f23)
        assert len(letters) >= 1
        assert evaluate_basis_word(letters, cb.basis, f23) == ABAB2

    def test_rewrite_identity(self, f23):
        assert rewrite(IDENTITY, f23) == []

    def test_rewrite_rejects_non_cartesian(self, f23):
        with pytest.raises(NotInCartesian):
            rewrite(AB, f23)

    def test_rewrite_roundtrip_random(self, f23):
        cb = cartesian_basis(f23)
        rng = random.Random(9)
        produced = 0
        while produced < 300:
            u = random_word(f23, rng, 8)
            if not in_cartesian(u, f23):
                continue
            produced += 1
            letters = rewrite(u, f23)
            assert evaluate_basis_word(letters, cb.basis, f23) == u
            # freely reduced: no adjacent cancelling pair
            assert all(
                letters[i] != (letters[i + 1][0], -letters[i + 1][1])
                for i in range(len(letters) - 1)
            )

    def test_rewrite_roundtrip_bigger_factors(self, z3, klein):
        from ordersep.words import finite_factors

        f = finite_factors(klein, z3)
        cb = cartesian_basis(f)
        rng = random.Random(10)
        produced = 0
        while produced < 200:
            u = random_word(f, rng, 8)
            if not in_cartesian(u, f):
                continue
            produced += 1
            assert evaluate_basis_word(rewrite(u, f), cb.basis, f) == u

    def test_schreier_elements_expand_over_basis(self, f23):
        # every transversal-times-generator Schreier element lies in C and
        # rewrites over the basis; the nontrivial ones with s = a^-1 are the
        # basis itself
        cb = cartesian_basis(f23)
        ga, gb = f23.groups()
        for t in cb.transversal:
            for f in (0, 1):
                n = (ga, gb)[f].n
                for s in range(1, n):
                    word = multiply(t, NormalForm(((f, s),)), f23)
                    ia, ib = factor_image(word, f23)
                    rep = cb.transversal[ia * gb.n + ib]
                    gamma = multiply(word, invert(rep, f23), f23)
                    assert in_cartesian(gamma, f23)
                    assert evaluate_basis_word(rewrite(gamma, f23), cb.basis, f23) == gamma


class TestPowerHelper:
    def test_negative_powers(self, f23):
        assert power(AB, -1, f23) == invert(AB, f23)
        assert power(AB, 0, f23) == IDENTITY

    def test_power_additivity(self, f23):
        rng = random.Random(11)
        for _ in range(50):
            u = random_word(f23, rng, 4)
            i, j = rng.randrange(-4, 5), rng.randrange(-4, 5)
            assert multiply(power(u, i, f23), power(u, j, f23), f23) == power(u, i + j, f23)


POWER_FACTORS = [
    finite_factors(cyclic_group(3), cyclic_group(4)),
    finite_factors(perm_group((1, 0, 2), (1, 2, 0)), cyclic_group(2)),
]


@st.composite
def power_words(draw):
    """A word over Z3*Z4 or S3*Z2: a cyclically reduced core, or that core
    conjugated by another word (mostly not cyclically reduced)."""
    factors = draw(st.sampled_from(POWER_FACTORS))

    def word():
        raw = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(1, 5)), max_size=7))
        return normalize([(f, v % factors.spec(f).group.n) for f, v in raw], factors)

    core = cyclically_reduce(word(), factors)[0]
    if draw(st.booleans()):
        t = word()
        return factors, multiply(multiply(t, core, factors), invert(t, factors), factors)
    return factors, core


class TestPowerProperty:
    @settings(max_examples=300, deadline=None)
    @given(power_words(), st.integers(-6, 6))
    def test_power_is_repeated_multiplication(self, case, k):
        factors, u = case
        step = u if k >= 0 else invert(u, factors)
        expected = IDENTITY
        for _ in range(abs(k)):
            expected = multiply(expected, step, factors)
        assert power(u, k, factors) == expected

    def test_both_shapes_are_drawn(self):
        # the strategy yields hyperbolic cyclically reduced words and words
        # that are not cyclically reduced
        shapes = set()

        @settings(max_examples=200, deadline=None)
        @given(power_words())
        def collect(case):
            u = case[1]
            shapes.add((len(u) >= 2, is_cyclically_reduced(u)))

        collect()
        assert {(True, True), (True, False)} <= shapes

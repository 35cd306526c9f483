import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ordersep.cli import run_cli
from ordersep.errors import BudgetExceeded, ConflictingMarks, FactorElement, ParseError
from ordersep.groupcore import (
    Permutation,
    cyclic_group,
    element_order,
    perm_order,
    random_wreath_element,
    validate_group,
)
from ordersep.covergraph import (
    CoverGraph,
    _induction_moves,
    SurgeryMark,
    cayley_base,
    close_edge_scan,
    close_pairs,
    fiber_order,
    fiber_returns,
    gamma_surgery,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    induced_graph,
    synchronized_product,
    validate_cover,
    word_order,
    word_perm_array,
)
from ordersep.words import (
    IDENTITY,
    NormalForm,
    cartesian_basis,
    factor_image,
    finite_factors,
    invert,
    minimal_cartesian_power,
    multiply,
    normalize,
    rewrite,
)

from helpers import (
    graphs_equal,
    law_tampered_graph,
    reference_cover_report,
    two_generator_groups,
    x_cycles,
)
from test_words import random_word

A = (0, 1)
B = (1, 1)
B2 = (1, 2)
AB = NormalForm((A, B))
ABAB2 = NormalForm((A, B, A, B2))


def random_cover_graph(f23, rng, max_y=4):
    """Random valid graph: an induced action under a random fiber assignment,
    possibly followed by a random surgery or a product with the base."""
    ga, gb = f23.groups()
    y = rng.randrange(1, max_y + 1)
    cb = cartesian_basis(f23)
    psi = []
    for _ in range(cb.rank):
        perm = list(range(y))
        rng.shuffle(perm)
        psi.append(Permutation(y, tuple(perm)))
    g = induced_graph(ga, gb, y, psi)
    if rng.random() < 0.5:
        t = rng.choice([2, 2, 3])
        marks = random_marks(g, rng)
        if marks:
            g = gamma_surgery(g, t, marks)
    return g


def random_marks(g, rng, tries=8):
    marks = []
    used = set()
    for _ in range(rng.randrange(1, 3)):
        for _ in range(tries):
            v = rng.randrange(g.vcount)
            f = rng.randrange(2)
            key = (f, int(g.factor_orbits(f)[v]))
            if key not in used:
                used.add(key)
                marks.append(SurgeryMark(v, f))
                break
    return marks


class TestCayleyBase:
    def test_six_vertices_valid(self, z2, z3):
        g = cayley_base(z2, z3)
        assert g.vcount == 6
        assert validate_cover(g).ok

    def test_order_of_ab_is_six(self, z2, z3):
        g = cayley_base(z2, z3)
        assert word_order(g, AB) == 6

    def test_cartesian_words_act_trivially(self, z2, z3, f23):
        g = cayley_base(z2, z3)
        assert word_order(g, ABAB2) == 1
        rng = random.Random(0)
        from ordersep.words import in_cartesian

        for _ in range(50):
            u = random_word(f23, rng, 6)
            expected = 1 if in_cartesian(u, f23) else None
            if expected:
                assert word_order(g, u) == 1

    def test_budget(self, z2, z3):
        with pytest.raises(BudgetExceeded):
            cayley_base(z2, z3, max_vertices=5)


class TestValidateCover:
    def test_base_passes(self, z2, z3):
        assert validate_cover(cayley_base(z2, z3)).ok

    def test_redirected_edge_fails_freeness(self, z2, z3):
        g = cayley_base(z2, z3)
        row = list(g.acts[0][1])
        # make the a-edge at vertex 0 a fixed point and repair bijectivity
        tgt = row[0]
        row[0] = 0
        row[g.acts[0][1].index(0)] = tgt
        bad = _with_row(g, 0, 1, row)
        report = validate_cover(bad)
        assert not report.ok
        assert report.reason in ("freeness", "group law")
        assert validate_cover(g).ok

    def test_non_bijective_fails_property_one(self, z2, z3):
        g = cayley_base(z2, z3)
        row = list(g.acts[0][1])
        row[0] = row[1]
        bad = _with_row(g, 0, 1, row)
        assert validate_cover(bad).reason == "property (1)"

    def test_short_row_fails_shape(self, z2, z3):
        g = cayley_base(z2, z3)
        bad = _with_row(g, 1, 2, g.acts[1][2][:-1])
        report = validate_cover(bad)
        assert report.reason == "shape"
        assert report.witness == (1, (6, 6, 5))

    def test_rows_are_immutable(self, z2, z3):
        g = cayley_base(z2, z3)
        before = graph_to_json(g)
        assert word_order(g, AB) == 6  # fills the orbit cache
        with pytest.raises(TypeError):
            g.acts[0][1][0] = 0
        with pytest.raises(TypeError):
            g.acts[0][1] = g.acts[0][0]
        assert graph_to_json(g) == before
        assert validate_cover(g).ok

    def test_random_surgeries_validate(self, f23):
        rng = random.Random(1)
        for _ in range(40):
            g = random_cover_graph(f23, rng)
            assert validate_cover(g).ok


class TestGeneratorLaw:
    """``validate_cover`` checks the composition law on each factor's
    generators alone; over groups with two generators it still names the
    first failing pair of a check over every pair."""

    GROUPS = two_generator_groups()

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_generating_sets_have_two_elements(self, name):
        group = self.GROUPS[name]
        assert len(group.gens) == 2 < group.n - 1

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(GROUPS)), st.integers(0, 2 ** 32))
    def test_tampered_actions_match_the_reference(self, name, seed):
        g = law_tampered_graph(self.GROUPS[name], random.Random(seed))
        assert validate_cover(g) == reference_cover_report(g)

    def test_tampering_mostly_breaks_the_law(self):
        # so the property above mostly exercises the named law failure
        rng = random.Random(3)
        reasons = [
            validate_cover(law_tampered_graph(group, rng)).reason
            for group in self.GROUPS.values()
            for _ in range(10)
        ]
        assert reasons.count("group law") >= 20


class TestWordPermutation:
    def test_identity_word(self, z2, z3):
        g = cayley_base(z2, z3)
        assert word_perm_array(g, IDENTITY) == tuple(range(g.vcount))

    def test_factor_element_order_equals_factor_order(self, f23):
        rng = random.Random(2)
        ga, gb = f23.groups()
        for _ in range(20):
            g = random_cover_graph(f23, rng)
            for f in (0, 1):
                grp = (ga, gb)[f]
                for c in range(1, grp.n):
                    w = NormalForm(((f, c),))
                    assert word_order(g, w) == element_order(grp, c)

    def test_homomorphism_law(self, f23):
        rng = random.Random(3)
        g = random_cover_graph(f23, rng)
        from ordersep.words import multiply

        for _ in range(200):
            u, v = random_word(f23, rng, 4), random_word(f23, rng, 4)
            pu = word_perm_array(g, u)
            pv = word_perm_array(g, v)
            puv = word_perm_array(g, multiply(u, v, f23))
            assert tuple(pv[x] for x in pu) == puv


class TestXCycles:
    def test_transitive_orbit(self, z2, z3):
        g = cayley_base(z2, z3)
        cycles = x_cycles(g, AB)
        assert len(cycles) == 1
        assert cycles[0].k == 6
        assert len(cycles[0].steps) == 12

    def test_lcm_of_lengths_is_perm_order(self, f23):
        rng = random.Random(4)
        for _ in range(20):
            g = random_cover_graph(f23, rng)
            u = ABAB2
            cycles = x_cycles(g, u)
            assert math.lcm(*(c.k for c in cycles)) == word_order(g, u)
            assert sum(c.k for c in cycles) == g.vcount

    def test_trivial_action_gives_unit_cycles(self, z2, z3):
        g = cayley_base(z2, z3)
        cycles = x_cycles(g, ABAB2)
        assert len(cycles) == 6
        assert all(c.k == 1 for c in cycles)

    def test_rejects_factor_elements(self, z2, z3):
        g = cayley_base(z2, z3)
        with pytest.raises(FactorElement):
            x_cycles(g, NormalForm((A,)))

    def test_scan_agrees_with_flags(self, f23):
        rng = random.Random(5)
        for _ in range(30):
            g = random_cover_graph(f23, rng)
            for u in (AB, ABAB2):
                flags = any(c.close for c in x_cycles(g, u))
                assert flags == (close_edge_scan(g, u) is not None)
                # one close pair per close cycle, at that cycle's base
                close = [c.base for c in x_cycles(g, u) if c.close]
                assert [walk[0] for walk, _i, _j in close_pairs(g, u)] == close


class TestGammaSurgery:
    def test_t1_is_identity_relabelling(self, z2, z3):
        g = cayley_base(z2, z3)
        h = gamma_surgery(g, 1, [SurgeryMark(0, 0)])
        assert graphs_equal(g, h)

    def test_doubling_base(self, z2, z3):
        g = cayley_base(z2, z3)
        h = gamma_surgery(g, 2, [SurgeryMark(0, 0)])
        assert h.vcount == 12
        assert validate_cover(h).ok

    def test_nested_composition(self, z2, z3):
        # two nested calls compose: the outer graph is t2 copies of the inner
        g = cayley_base(z2, z3)
        inner = gamma_surgery(g, 3, [SurgeryMark(0, 0)])
        t2 = inner.vcount + 0  # mark the copy of vertex 0 in layer 1
        outer = gamma_surgery(inner, 9, [SurgeryMark(g.vcount + 0, 1)])
        assert outer.vcount == 9 * inner.vcount == 27 * g.vcount
        assert validate_cover(outer).ok

    def test_vertex_count_multiplies(self, f23):
        rng = random.Random(6)
        for _ in range(30):
            g = random_cover_graph(f23, rng)
            t = rng.choice([2, 3, 4])
            marks = random_marks(g, rng)
            if not marks:
                continue
            h = gamma_surgery(g, t, marks)
            assert h.vcount == t * g.vcount

    def test_conflicting_marks_rejected(self, z2, z3):
        g = cayley_base(z2, z3)
        # vertices 0 and its a-neighbour share the factor-0 component
        nb = int(g.acts[0][1][0])
        with pytest.raises(ConflictingMarks):
            gamma_surgery(g, 2, [SurgeryMark(0, 0), SurgeryMark(nb, 0)])

    def test_budget(self, z2, z3):
        g = cayley_base(z2, z3)
        with pytest.raises(BudgetExceeded):
            gamma_surgery(g, 3, [SurgeryMark(0, 0)], max_vertices=12)

    def test_projection_intertwines(self, f23):
        # the layer projection must commute with every action
        rng = random.Random(7)
        g = random_cover_graph(f23, rng)
        h = gamma_surgery(g, 3, [SurgeryMark(1, 0)])
        for _ in range(50):
            u = random_word(f23, rng, 4)
            ph = word_perm_array(h, u)
            pg = word_perm_array(g, u)
            # vertex (layer, v) of h lies over v of g
            assert [x % g.vcount for x in ph] == list(pg) * 3

    def test_surgery_cycle_law_on_close_edge_free_cycles(self, f23):
        # any lift of a close-edge-free u-cycle has length l or t*l
        rng = random.Random(8)
        checked = 0
        while checked < 30:
            g = random_cover_graph(f23, rng)
            u = AB
            base_cycles = {c.base: c for c in x_cycles(g, u)}
            if any(c.close for c in base_cycles.values()):
                continue
            marks = random_marks(g, rng)
            if not marks:
                continue
            t = rng.choice([2, 3])
            h = gamma_surgery(g, t, marks)
            checked += 1
            base_lengths = {}
            perm = word_perm_array(g, u)
            for c in base_cycles.values():
                for v in _orbit(perm, c.base):
                    base_lengths[v] = c.k
            for c in x_cycles(h, u):
                below = base_lengths[c.base % g.vcount]
                assert c.k in (below, t * below)
                if not base_cycles[_min_orbit(perm, c.base % g.vcount)].close:
                    assert not c.close


def _with_row(g, f, c, row):
    """g with row c of factor f replaced."""
    rows = list(g.acts[f])
    rows[c] = tuple(row)
    acts = list(g.acts)
    acts[f] = tuple(rows)
    return CoverGraph(g.factors, (acts[0], acts[1]))


def _orbit(perm, base):
    out = [base]
    cur = int(perm[base])
    while cur != base:
        out.append(cur)
        cur = int(perm[cur])
    return out


def _min_orbit(perm, v):
    return min(_orbit(perm, v))


class TestSynchronizedProduct:
    def test_self_product_order(self, z2, z3):
        g = cayley_base(z2, z3)
        p = synchronized_product(g, g)
        assert p.vcount == 36
        assert word_order(p, AB) == word_order(g, AB)

    def test_lcm_order_law(self, f23):
        rng = random.Random(9)
        for _ in range(15):
            g1 = random_cover_graph(f23, rng)
            g2 = random_cover_graph(f23, rng)
            p = synchronized_product(g1, g2)
            for u in (AB, ABAB2):
                assert word_order(p, u) == math.lcm(word_order(g1, u), word_order(g2, u))

    def test_component_mode(self, f23):
        ga, gb = f23.groups()
        g1 = cayley_base(ga, gb)
        g2 = gamma_surgery(g1, 2, [SurgeryMark(0, 0)])
        full = synchronized_product(g1, g2)
        comp = synchronized_product(g1, g2, max_vertices=full.vcount - 1)
        assert comp.vcount <= g1.vcount * g2.vcount
        assert validate_cover(comp).ok
        # orders on the component divide the full-product orders
        for u in (AB, ABAB2):
            assert word_order(full, u) % word_order(comp, u) == 0

    def test_close_edge_freeness_preserved(self, f23):
        rng = random.Random(10)
        checked = 0
        while checked < 20:
            g1 = random_cover_graph(f23, rng)
            g2 = random_cover_graph(f23, rng)
            u = AB
            if close_edge_scan(g1, u) is not None or close_edge_scan(g2, u) is not None:
                continue
            checked += 1
            p = synchronized_product(g1, g2)
            assert close_edge_scan(p, u) is None


class TestInducedGraph:
    def test_trivial_fiber_is_cayley_base(self, z2, z3, f23):
        g = induced_graph(z2, z3, 1, [Permutation.identity(1)] * 2)
        assert graphs_equal(g, cayley_base(z2, z3))

    def test_factor_orders(self, z2, z3, f23):
        rng = random.Random(11)
        psi = [random_wreath_element(2, 2, rng) for _ in range(2)]
        g = induced_graph(z2, z3, 4, psi)
        assert word_order(g, NormalForm((A,))) == 2
        assert word_order(g, NormalForm((B,))) == 3

    def test_fiber_order_divides_word_order(self, z2, z3, f23):
        # ABAB2 is the first basis generator x[a,b]; give it a 4-cycle fiber
        psi = [Permutation(4, (1, 2, 3, 0)), Permutation.identity(4)]
        g = induced_graph(z2, z3, 4, psi)
        o = word_order(g, ABAB2)
        assert o % 4 == 0
        assert o & (o - 1) == 0  # stays a 2-power: fiber group is a 2-group here

    def test_kernel_contained_in_cartesian(self, z2, z3, f23):
        rng = random.Random(12)
        psi = [random_wreath_element(2, 2, rng) for _ in range(2)]
        g = induced_graph(z2, z3, 4, psi)
        from ordersep.words import in_cartesian

        for _ in range(100):
            u = random_word(f23, rng, 5)
            if not in_cartesian(u, f23):
                assert word_order(g, u) > 1


def _s3():
    perms = sorted(itertools.permutations(range(3)), key=lambda p: (p != (0, 1, 2), p))
    idx = {p: i for i, p in enumerate(perms)}
    return validate_group([[idx[tuple(q[i] for i in p)] for q in perms] for p in perms])


FACTOR_PAIRS = [
    (cyclic_group(2), cyclic_group(3)),
    (cyclic_group(3), cyclic_group(4)),
    (_s3(), cyclic_group(5)),
]


class TestInductionCache:
    def _draw(self, a, b, y, rng):
        rank = (a.n - 1) * (b.n - 1)
        return [Permutation(y, tuple(rng.sample(range(y), y))) for _ in range(rank)]

    def test_cold_and_warm_cache_agree(self):
        rng = random.Random(21)
        draws = [(a, b, y, self._draw(a, b, y, rng)) for y in (2, 3) for a, b in FACTOR_PAIRS]
        _induction_moves.cache_clear()
        cold = [induced_graph(a, b, y, psi) for a, b, y, psi in draws]
        assert _induction_moves.cache_info().misses == len(FACTOR_PAIRS)
        warm = [induced_graph(a, b, y, psi) for a, b, y, psi in reversed(draws)]
        assert all(graphs_equal(g, h) for g, h in zip(cold, reversed(warm)))

    @pytest.mark.parametrize("pair", range(len(FACTOR_PAIRS)))
    def test_moves_are_schreier_rewrites(self, pair):
        a, b = FACTOR_PAIRS[pair]
        factors = finite_factors(a, b)
        transversal = cartesian_basis(factors).transversal
        moves = _induction_moves(a, b)
        for f, group in enumerate((a, b)):
            assert len(moves[f]) == group.n
            for c in range(1, group.n):
                for t_idx, (t2_idx, letters) in enumerate(moves[f][c]):
                    moved = multiply(transversal[t_idx], NormalForm(((f, c),)), factors)
                    assert factor_image(moved, factors) == divmod(t2_idx, b.n)
                    gamma = multiply(moved, invert(transversal[t2_idx], factors), factors)
                    assert list(letters) == rewrite(gamma, factors)

    @pytest.mark.parametrize("pair", range(len(FACTOR_PAIRS)))
    def test_graph_matches_direct_induction(self, pair):
        # vertex (t, y) goes to (t', y * psihat(letters)) under each syllable
        a, b = FACTOR_PAIRS[pair]
        factors = finite_factors(a, b)
        transversal = cartesian_basis(factors).transversal
        y = 3
        psi = self._draw(a, b, y, random.Random(pair))
        g = induced_graph(a, b, y, psi)
        for f, group in enumerate((a, b)):
            for c in range(1, group.n):
                for t_idx, t_word in enumerate(transversal):
                    moved = multiply(t_word, NormalForm(((f, c),)), factors)
                    ia, ib = factor_image(moved, factors)
                    t2_idx = ia * b.n + ib
                    gamma = multiply(moved, invert(transversal[t2_idx], factors), factors)
                    for fiber in range(y):
                        point = fiber
                        for idx, exp in rewrite(gamma, factors):
                            point = (psi[idx] if exp > 0 else psi[idx].inverse())(point)
                        assert g.acts[f][c][t_idx * y + fiber] == t2_idx * y + point


@st.composite
def fiber_cases(draw):
    """A factor pair, a fiber assignment on 1-8 points and a word; words
    include the identity, factor elements and non-Cartesian hyperbolic
    words."""
    a, b = draw(st.sampled_from(FACTOR_PAIRS))
    y = draw(st.integers(1, 8))
    rank = (a.n - 1) * (b.n - 1)
    maps = [tuple(draw(st.permutations(range(y)))) for _ in range(rank)]
    syllables = draw(st.lists(
        st.integers(0, 1).flatmap(lambda f: st.tuples(st.just(f), st.integers(1, (a, b)[f].n - 1))),
        max_size=10,
    ))
    return a, b, y, maps, normalize(syllables, finite_factors(a, b))


class TestFiberOrder:
    """The fiber evaluator gives a word's order on an induced action without
    building the graph."""

    @settings(max_examples=300, deadline=None)
    @given(fiber_cases())
    def test_matches_word_order_on_induced_graph(self, case):
        a, b, y, maps, w = case
        inverse_maps = [Permutation(y, p).inverse().map for p in maps]
        g = induced_graph(a, b, y, [Permutation(y, p) for p in maps])
        assert fiber_order(fiber_returns(a, b, w), maps, inverse_maps, y) == word_order(g, w)

    @pytest.mark.parametrize("pair", range(len(FACTOR_PAIRS)))
    def test_one_return_per_coset_orbit(self, pair):
        a, b = FACTOR_PAIRS[pair]
        factors = finite_factors(a, b)
        rng = random.Random(pair)
        for _ in range(50):
            w = random_word(factors, rng, 6)
            m, letters = fiber_returns(a, b, w)
            assert m == (1 if w.is_identity else minimal_cartesian_power(w, factors))
            assert len(letters) * m == a.n * b.n
            # the least coset's return is w^m itself, rewritten over the basis
            assert list(letters[0]) == rewrite(normalize(w.syllables * m, factors), factors)


class TestGraphIO:
    def test_roundtrip(self, z2, z3):
        g = cayley_base(z2, z3)
        h = graph_from_json(json.loads(json.dumps(graph_to_json(g))))
        assert graphs_equal(g, h)

    def test_roundtrip_after_surgery(self, f23):
        rng = random.Random(13)
        g = random_cover_graph(f23, rng)
        assert graphs_equal(g, graph_from_json(graph_to_json(g)))

    def test_dot_edge_count(self, z2, z3):
        g = cayley_base(z2, z3)
        dot = graph_to_dot(g)
        assert dot.count("->") == 6 * (1 + 2)
        assert 'label="f0:1"' in dot

    def test_truncated_file(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text('{"vcount": 6, "factors": [[[0]]]')
        assert run_cli(["graph", "dot", str(path)]) == 5
        assert "error[ParseError]" in capsys.readouterr().err

    def test_invalid_graph_rejected(self, z2, z3):
        g = cayley_base(z2, z3)
        data = graph_to_json(g)
        data["action"][0][0][0] = 0  # break bijectivity
        with pytest.raises(ParseError):
            graph_from_json(data)

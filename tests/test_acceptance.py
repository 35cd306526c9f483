"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check carries its stated runtime bound and zero-failure
tolerances.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from ordersep.cli import run_cli
from ordersep.config import RunConfig
from ordersep.covergraph import (
    SurgeryMark,
    cayley_base,
    close_edge_scan,
    gamma_surgery,
    induced_graph,
    synchronized_product,
    validate_cover,
    word_order,
    word_perm_array,
)
from ordersep.errors import OrderSepError
from ordersep.groupcore import Permutation, cyclic_group, element_order, perm_order
from ordersep.lemmas import (
    is_prime_power,
    lemma1_boost,
    lemma2_declose,
    lemma3_separate,
    lemma4_power_separate,
)
from ordersep.pipeline import Instance, instance_to_json, separate
from ordersep.verify import brute_force_search, verify_certificate
from ordersep.words import (
    FactorSpec,
    Factors,
    NormalForm,
    cartesian_basis,
    finite_factors,
    normalize,
    power,
)


def x_cycles(g, x):
    # the benchmark's tests load this module by path, without tests/ on
    # sys.path, so the helper is imported on first use
    from helpers import x_cycles as cycles

    return cycles(g, x)


Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
F23 = finite_factors(Z2, Z3)
F22 = finite_factors(Z2, Z2)
ZZ3 = Factors((FactorSpec("infinite_cyclic"), FactorSpec("finite", Z3)))

A = NormalForm(((0, 1),))
B = NormalForm(((1, 1),))
AB = NormalForm(((0, 1), (1, 1)))
ABAB2 = NormalForm(((0, 1), (1, 1), (0, 1), (1, 2)))


@contextmanager
def criterion(num: int, description: str, limit: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} FAIL: {description}")
        raise
    elapsed = time.monotonic() - start
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s (limit {limit}s)"
    print(f"\nACCEPTANCE {num:02d} PASS: {description} ({elapsed:.1f}s)")


def _random_word(factors, rng, max_len):
    ga, gb = factors.groups()
    raw = []
    for _ in range(rng.randrange(max_len + 1)):
        f = rng.randrange(2)
        raw.append((f, rng.randrange(1, (ga, gb)[f].n)))
    return normalize(raw, factors)


def _random_graph(rng, max_y=4):
    cb = cartesian_basis(F23)
    y = rng.randrange(1, max_y + 1)
    psi = []
    for _ in range(cb.rank):
        fiber = list(range(y))
        rng.shuffle(fiber)
        psi.append(Permutation(y, tuple(fiber)))
    g = induced_graph(Z2, Z3, y, psi)
    if rng.random() < 0.5:
        marks = _random_marks(g, rng)
        if marks:
            g = gamma_surgery(g, rng.choice([2, 3]), marks)
    return g


def _random_marks(g, rng):
    marks, used = [], set()
    for _ in range(rng.randrange(1, 3)):
        v = rng.randrange(g.vcount)
        f = rng.randrange(2)
        key = (f, int(g.factor_orbits(f)[v]))
        if key not in used:
            used.add(key)
            marks.append(SurgeryMark(v, f))
    return marks


def test_criterion_01_dihedral_rejection(tmp_path):
    with criterion(1, "dihedral instance rejected; oracle confirms no witness", 10.0):
        data = {
            "schema": 1,
            "factors": [
                {"type": "finite", "table": [[0, 1], [1, 0]]},
                {"type": "finite", "table": [[0, 1], [1, 0]]},
            ],
            "targets": [[[0, 1]], [[1, 1]], [[0, 1], [1, 1]]],
            "mode": "auto",
        }
        path = tmp_path / "dihedral.json"
        path.write_text(json.dumps(data))
        code = run_cli(["separate", str(path), "--out", str(tmp_path / "c.json")])
        assert code == 2
        oracle = brute_force_search(data, max_degree=8)
        assert not oracle.found


def test_criterion_02_smoke_separation(tmp_path):
    with criterion(2, "Z/2*Z/3 triple separates with a verified certificate", 5.0):
        inst = Instance(F23, [A, B, AB])
        cert = separate(inst)
        values = [cert.orders[i] for i in range(3)]
        assert len(set(values)) == 3
        data = cert.to_json()
        data["verified"] = True
        assert verify_certificate(instance_to_json(inst), data).verdict
        oracle = brute_force_search(instance_to_json(inst), max_degree=6)
        assert oracle.found and oracle.degree <= 6


def test_criterion_03_lemma1_contract():
    with criterion(3, "boost drives abab^2 above order 4 as a 2-power", 30.0):
        comp = lemma1_boost([ABAB2], 2, 2, F23, seed=0)
        order = word_order(comp.graph, ABAB2)
        assert order > 4 and is_prime_power(order, 2)
        for f, grp in ((0, Z2), (1, Z3)):
            for c in range(1, grp.n):
                w = NormalForm(((f, c),))
                assert word_order(comp.graph, w) == element_order(grp, c)


def test_criterion_04_lemma2_contract():
    with criterion(4, "declose leaves no close edges and keeps the root order law", 120.0):
        res = lemma2_declose([ABAB2], 2, F23, seed=0)
        g = res.components[0].graph
        cycles = x_cycles(g, ABAB2)
        assert not any(c.close for c in cycles)
        assert close_edge_scan(g, ABAB2) is None
        order = res.orders[0]
        assert order > 1 and is_prime_power(order, 2)
        # abab^2 is its own primitive root (m = 1)
        assert word_order(g, ABAB2) == 1 * order
        # exercise the law with a proper power as well (m = 6)
        w6 = power(AB, 6, F23)
        res6 = lemma2_declose([w6], 2, F23, seed=0)
        g6 = res6.components[0].graph
        assert close_edge_scan(g6, w6) is None
        assert word_order(g6, AB) == 6 * res6.orders[0]


def test_criterion_05_lemma3_contract():
    with criterion(5, "non-conjugate-cyclic pair separates coprime to 3", 120.0):
        targets = [ABAB2, power(AB, 6, F23)]
        res = lemma3_separate(targets, {3}, F23, seed=0)
        o0, o1 = res.orders[0], res.orders[1]
        assert o0 != o1 and o0 > 1 and o1 > 1
        assert o0 % 3 and o1 % 3
        for i, t in enumerate(targets):
            recomputed = math.lcm(*(word_order(c.graph, t) for c in res.components))
            assert recomputed == res.orders[i]


def test_criterion_06_lemma4_contract():
    with criterion(6, "power separation with exponents 1,2,3 and the gcd law", 60.0):
        res = lemma4_power_separate(ABAB2, [1, 2, 3], F23, seed=0)
        values = [res.orders[i] for i in range(3)]
        assert len(set(values)) == 3
        for comp in res.components:
            base = word_order(comp.graph, ABAB2)
            for idx, k in enumerate([1, 2, 3]):
                got = word_order(comp.graph, power(ABAB2, k, F23))
                assert got == base // math.gcd(base, k)


def test_criterion_07_graph_property_suite():
    with criterion(7, "graph property suite, >=1000 randomized cases each, zero failures"):
        rng = random.Random(2024)
        graphs = [_random_graph(rng) for _ in range(120)]

        # (a) surgery validates and multiplies the vertex count
        cases = 0
        while cases < 1000:
            g = graphs[rng.randrange(len(graphs))]
            marks = _random_marks(g, rng)
            if not marks:
                continue
            t = rng.choice([2, 3, 4])
            h = gamma_surgery(g, t, marks)
            assert validate_cover(h).ok
            assert h.vcount == t * g.vcount
            cases += 1

        # (b) factor-order law
        cases = 0
        while cases < 1000:
            g = graphs[rng.randrange(len(graphs))]
            f = rng.randrange(2)
            grp = (Z2, Z3)[f]
            c = rng.randrange(1, grp.n)
            assert word_order(g, NormalForm(((f, c),))) == element_order(grp, c)
            cases += 1

        # (c) lcm of cycle lengths equals the permutation order
        cases = 0
        while cases < 1000:
            g = graphs[rng.randrange(len(graphs))]
            w = _random_word(F23, rng, 6)
            core = w if len(w) >= 2 and w.syllables[0][0] != w.syllables[-1][0] else AB
            cycles = x_cycles(g, core)
            assert math.lcm(*(c.k for c in cycles)) == word_order(g, core)
            assert sum(c.k for c in cycles) == g.vcount
            cases += 1

        # (d) surgery cycle law on close-edge-free cycles
        cases = 0
        while cases < 1000:
            g = graphs[rng.randrange(len(graphs))]
            w = rng.choice([AB, ABAB2])
            base_cycles = x_cycles(g, w)
            clean = {c.base: c.k for c in base_cycles if not c.close}
            if not clean:
                continue
            marks = _random_marks(g, rng)
            if not marks:
                continue
            t = rng.choice([2, 3])
            h = gamma_surgery(g, t, marks)
            perm = word_perm_array(g, w)
            base_of = {}
            for c in base_cycles:
                cur = c.base
                while True:
                    base_of[cur] = c
                    cur = int(perm[cur])
                    if cur == c.base:
                        break
            for lifted in x_cycles(h, w):
                below = base_of[lifted.base % g.vcount]
                if below.base in clean:
                    assert lifted.k in (below.k, t * below.k)
                    assert not lifted.close
                    cases += 1

        # (e) product lcm order law and close-edge-freeness preservation
        cases = 0
        while cases < 1000:
            g1 = graphs[rng.randrange(len(graphs))]
            g2 = graphs[rng.randrange(len(graphs))]
            w = rng.choice([AB, ABAB2])
            p = synchronized_product(g1, g2)
            assert word_order(p, w) == math.lcm(word_order(g1, w), word_order(g2, w))
            if close_edge_scan(g1, w) is None and close_edge_scan(g2, w) is None:
                assert close_edge_scan(p, w) is None
            cases += 1


def test_criterion_08_oracle_cross_check():
    with criterion(8, "50 randomized instances: engine certificates verify, no oracle divergence"):
        rng = random.Random(88)
        divergences = []
        produced = 0
        for case in range(50):
            n_targets = rng.randrange(1, 4)
            targets = [_random_word(F23, rng, 6) for _ in range(n_targets)]
            inst = Instance(F23, targets, "auto")
            inst_data = instance_to_json(inst)
            engine_ok = False
            try:
                cert = separate(inst)
                data = cert.to_json()
                data["verified"] = True
                report = verify_certificate(inst_data, data)
                assert report.verdict, f"case {case}: certificate failed verification"
                engine_ok = True
                produced += 1
            except OrderSepError:
                engine_ok = False
            oracle = brute_force_search(inst_data, max_degree=8)
            if oracle.found and not engine_ok:
                divergences.append(case)
        assert not divergences, f"oracle found witnesses the engine missed: {divergences}"
        assert produced >= 10  # the sample must exercise the success path


def test_criterion_09_determinism(tmp_path):
    with criterion(9, "byte-identical certificates over 10 repetitions on 5 instances"):
        instances = [
            {"factors": [{"type": "finite", "table": [[0, 1], [1, 0]]},
                         {"type": "finite", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}],
             "targets": t, "mode": m, "config": {"seed": s}}
            for (t, m, s) in [
                ([[[0, 1]], [[1, 1]], [[0, 1], [1, 1]]], "auto", 0),
                ([[[0, 1]], [[1, 1]], [[0, 1], [1, 1]]], "theorem12", 3),
                ([[[0, 1], [1, 1], [0, 1], [1, 2]]], "theorem12", 1),
                ([[[0, 1], [1, 1]] * 6, [[0, 1], [1, 1], [0, 1], [1, 2]]], "theorem12", 7),
                ([[[0, 1]], [[0, 1], [1, 1], [0, 1], [1, 2]]], "auto", 5),
            ]
        ]
        for n, data in enumerate(instances):
            path = tmp_path / f"inst{n}.json"
            path.write_text(json.dumps(data))
            outputs = set()
            for rep in range(10):
                out = tmp_path / f"cert_{n}_{rep}.json"
                code = run_cli(["separate", str(path), "--out", str(out)])
                assert code == 0, f"instance {n} rep {rep} exited {code}"
                outputs.add(out.read_bytes())
            assert len(outputs) == 1, f"instance {n} produced differing certificates"


def test_criterion_10_theorem3_branches():
    with criterion(10, "all mixed-case branches produce verified certificates", 300.0):
        E = NormalForm(())
        X = NormalForm(((0, 1),))
        X2 = NormalForm(((0, 2),))
        X3 = NormalForm(((0, 3),))
        XB = NormalForm(((0, 1), (1, 1)))
        branch_instances = [
            ("factor element, factor element, hyperbolic", Instance(F23, [A, B, AB], "theorem3")),
            ("two on one side with retraction", Instance(ZZ3, [X, X3, B], "theorem3")),
            ("identity branch over finite factors", Instance(F23, [E, A, B], "theorem3")),
            ("identity branch with an infinite-order element", Instance(ZZ3, [E, X2, B], "theorem3")),
            ("infinite-order element beside a finite one, hyperbolic third", Instance(ZZ3, [X, B, XB], "theorem3")),
        ]
        for name, inst in branch_instances:
            cert = separate(inst)
            values = [cert.orders[i] for i in range(len(inst.targets))]
            assert len(set(values)) == len(values), name
            for comp in cert.components:
                assert comp.graph.vcount <= 10 ** 5, name
            # the implicit factor product action, on the homs' target groups
            ga, gb = (hom.target for hom in cert.factor_homs)
            assert ga.n * gb.n <= 10 ** 5, name
            data = cert.to_json()
            data["verified"] = True
            assert verify_certificate(instance_to_json(inst), data).verdict, name

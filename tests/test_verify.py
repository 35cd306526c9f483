import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from ordersep.covergraph import graph_to_json, synchronized_product
from ordersep.errors import HypothesisViolation, InfiniteFactor
from ordersep.groupcore import cyclic_group
from ordersep.pipeline import Instance, instance_to_json, separate
from ordersep.verify import _graph_ok, _mul_table_ok, brute_force_search, verify_certificate
from ordersep.words import FactorSpec, Factors, NormalForm, finite_factors

from helpers import first_non_associative_triple, random_loop_table, reference_graph_error

A = (0, 1)
B = (1, 1)
AB = NormalForm((A, B))


def make_cert(inst):
    cert = separate(inst)
    data = cert.to_json()
    data["verified"] = True
    return data


def with_product(inst):
    cert = separate(inst)
    product = cert.components[0].graph
    for comp in cert.components[1:]:
        product = synchronized_product(product, comp.graph)
    data = cert.to_json()
    data["verified"] = True
    data["product"] = graph_to_json(product)
    return data


class TestVerifyCertificate:
    def test_engine_cert_passes(self, f23):
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB])
        data = make_cert(inst)
        report = verify_certificate(instance_to_json(inst), data)
        assert report.verdict
        assert report.orders[0] == 2

    def test_tampered_order_fails(self, f23):
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB])
        data = make_cert(inst)
        data["orders"]["0"] = 4
        report = verify_certificate(instance_to_json(inst), data)
        assert not report.verdict
        assert any("claimed" in f for f in report.failures)

    def test_freeness_defect_fails(self, f23):
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB])
        data = make_cert(inst)
        graph = data["components"][0]["graph"]
        # redirect one edge onto its own start: freeness violation
        graph["action"][0][0][0] = 0
        report = verify_certificate(instance_to_json(inst), data)
        assert not report.verdict
        assert any("property" in f for f in report.failures)

    def test_colliding_orders_fail(self, f23):
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB])
        data = make_cert(inst)
        # claim equal orders by swapping the target list in the instance
        bad_instance = instance_to_json(inst)
        bad_instance["targets"][2] = bad_instance["targets"][1]
        report = verify_certificate(bad_instance, data)
        assert not report.verdict

    def test_broken_hom_fails(self, f23):
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB])
        data = make_cert(inst)
        data["factor_homs"][0]["map"] = [1, 0]  # does not fix the identity
        report = verify_certificate(instance_to_json(inst), data)
        assert not report.verdict
        assert any("hom" in f for f in report.failures)

    def test_trivializing_hom_changes_orders(self, f23):
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB])
        data = make_cert(inst)
        data["factor_homs"][0]["map"] = [0, 0]  # a valid hom, but not the used one
        report = verify_certificate(instance_to_json(inst), data)
        assert not report.verdict

    def test_matching_product_fails(self, f23):
        # no engine emits the product of the components; the verifier does
        # not walk one, so a certificate that carries one fails
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB])
        data = with_product(inst)
        report = verify_certificate(instance_to_json(inst), data)
        assert report.failures == ["certificate carries a product graph, which is not checked"]

    def test_tampered_product_fails(self, f23):
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB])
        data = with_product(inst)
        row = data["product"]["action"][0][0]
        row[0] = (row[0] + 1) % data["product"]["vcount"]
        report = verify_certificate(instance_to_json(inst), data)
        assert not report.verdict
        assert any("product" in f for f in report.failures)

    def test_unverified_flag_fails(self, f23):
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB])
        data = make_cert(inst)
        data["verified"] = False
        report = verify_certificate(instance_to_json(inst), data)
        assert not report.verdict


def _triple():
    return Instance(finite_factors(cyclic_group(2), cyclic_group(3)), [NormalForm((A,)), NormalForm((B,)), AB])


def _failures_after(tamper):
    inst = _triple()
    data = make_cert(inst)
    tamper(data)
    return verify_certificate(instance_to_json(inst), data).failures


def _set(path, value):
    def tamper(data):
        *head, last = path
        node = data["components"][0]["graph"]["action"]
        for key in head:
            node = node[key]
        node[last] = value
    return tamper


def _both(*tampers):
    def tamper(data):
        for t in tampers:
            t(data)
    return tamper


def _second_column_is_first(data):
    # element 2 of Z/3 acts like element 1: both columns stay bijective
    # and fixed-point free, but 1*1 = 2 no longer holds
    for row in data["components"][0]["graph"]["action"][1]:
        row[1] = row[0]


class TestVerifierMessages:
    """One case per graph and hom failure of the Z/2*Z/3 base action
    (element 1 of Z/3 sends vertex v to [1, 2, 0, 4, 5, 3][v])."""

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (_set([1, 2], [0]), "component 0: action[1][2] wrong width"),
            (_set([1, 0, 0], 6), "component 0: property (1): target out of range"),
            (_set([1, 0, 0], -1), "component 0: property (1): target out of range"),
            (_set([1, 0, 0], 1.0), "component 0: property (1): target out of range"),
            (_set([1, 3, 0], 1), "component 0: property (1) fails for factor 1 element 1"),
            (_set([1, 0, 0], 0), "component 0: property (2) fails: freeness at vertex 0"),
            # a bijection fixing vertex 2
            (_set([0], [[1], [0], [2], [4], [3], [5]]), "component 0: property (2) fails: freeness at vertex 2"),
            (_second_column_is_first, "component 0: group law fails for factor 1 at (1,1)"),
            # precedence: the walk of element 1 meets vertex 1 before row 4
            (_both(_set([1, 4], [5]), _set([1, 1, 0], 99)),
             "component 0: property (1): target out of range"),
            (_both(_set([1, 1], [2, 0, 0]), _set([1, 4, 0], 1)), "component 0: action[1][1] wrong width"),
            # a short row stops the walk of element 1 before element 2 is read
            (_both(_set([1, 5], [3]), _set([1, 0, 1], 99)), "component 0: action[1][5] wrong width"),
            # a duplicate target is reported before the freeness it causes
            (_set([1, 1, 0], 1), "component 0: property (1) fails for factor 1 element 1"),
            # factor 0's group law comes before factor 1's properties: the
            # involution of Z/2 acts as two 3-cycles
            (_both(_set([0], [[1], [2], [0], [4], [5], [3]]), _set([1, 0, 0], 99)),
             "component 0: group law fails for factor 0 at (1,1)"),
        ],
    )
    def test_graph_message(self, tamper, message):
        assert _failures_after(tamper) == [message]

    def test_not_a_homomorphism(self):
        def tamper(data):
            data["factor_homs"][1]["map"] = [0, 1, 1]
        z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        mapping = [0, 1, 1]
        first = next(
            (x, y) for x in range(3) for y in range(3)
            if mapping[z3[x][y]] != z3[mapping[x]][mapping[y]]
        )
        assert _failures_after(tamper) == [f"factor hom 1: not a homomorphism at ({first[0]},{first[1]})"]
        assert first == (1, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(5, 8), st.integers(0, 2 ** 32))
    def test_associativity_witness_is_the_first_triple(self, n, seed):
        table = random_loop_table(n, random.Random(seed))
        triple = first_non_associative_triple(table)
        expected = None if triple is None else "associativity fails at ({},{},{})".format(*triple)
        assert _mul_table_ok(table) == expected


def _engine_certificates():
    f23 = finite_factors(cyclic_group(2), cyclic_group(3))
    f34 = finite_factors(cyclic_group(3), cyclic_group(4))
    instances = [
        _triple(),
        # base action plus a 150-vertex Lemma 1 component
        Instance(f23, [NormalForm((B,)), NormalForm((A, B, A, B))]),
        Instance(f34, [NormalForm(((0, 1),)), NormalForm(((1, 2),)), NormalForm(((0, 1), (1, 1)))]),
    ]
    return [(instance_to_json(inst), make_cert(inst)) for inst in instances]


ENGINE_CERTIFICATES = _engine_certificates()


class TestTamperedActions:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_single_action_entry_change_is_rejected(self, data):
        inst, cert = data.draw(st.sampled_from(ENGINE_CERTIFICATES))
        assert verify_certificate(inst, cert).verdict
        k = data.draw(st.integers(0, len(cert["components"]) - 1))
        graph = cert["components"][k]["graph"]
        f = data.draw(st.integers(0, 1))
        v = data.draw(st.integers(0, graph["vcount"] - 1))
        c = data.draw(st.integers(0, len(graph["action"][f][v]) - 1))
        old = graph["action"][f][v][c]
        new = data.draw(st.integers(-2, graph["vcount"] + 1).filter(lambda x: x != old))
        tampered = copy.deepcopy(cert)
        tampered["components"][k]["graph"]["action"][f][v][c] = new
        report = verify_certificate(inst, tampered)
        assert not report.verdict
        reason = reference_graph_error(tampered["components"][k]["graph"], graph["factors"])
        assert reason is not None and report.failures == [f"component {k}: {reason}"]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_messages_match_the_vertex_walk(self, data):
        # several edits at once, including rows of the wrong width: the
        # verifier reports the defect a vertex-by-vertex walk meets first
        inst, cert = data.draw(st.sampled_from(ENGINE_CERTIFICATES))
        graph = copy.deepcopy(data.draw(st.sampled_from(cert["components"]))["graph"])
        for _ in range(data.draw(st.integers(1, 3))):
            f = data.draw(st.integers(0, 1))
            v = data.draw(st.integers(0, graph["vcount"] - 1))
            row = graph["action"][f][v]
            edit = data.draw(st.sampled_from(["entry", "short", "long", "swap"]))
            if edit == "swap" and row:
                # swapping two targets of one element keeps its column a
                # bijection but may fix a vertex or break the group law
                c = data.draw(st.integers(0, len(row) - 1))
                w = data.draw(st.integers(0, graph["vcount"] - 1))
                other = graph["action"][f][w]
                if c < len(other):
                    row[c], other[c] = other[c], row[c]
            elif edit == "short" and row:
                row.pop()
            elif edit == "long":
                row.append(data.draw(st.integers(0, graph["vcount"] - 1)))
            elif row:
                row[data.draw(st.integers(0, len(row) - 1))] = data.draw(st.integers(-1, graph["vcount"]))
        assert _graph_ok(graph, graph["factors"]) == reference_graph_error(graph, graph["factors"])


def _zxz3_certificate():
    # an infinite cyclic factor: the certificate carries a modulus hom
    factors = Factors((FactorSpec("infinite_cyclic"), FactorSpec("finite", cyclic_group(3))))
    inst = Instance(factors, [NormalForm(((0, 1),)), NormalForm((B,)), NormalForm(((0, 1), B))])
    return instance_to_json(inst), make_cert(inst)


MUTABLE_CERTIFICATES = ENGINE_CERTIFICATES + [_zxz3_certificate()]


def _checked_fields(cert: dict) -> list[tuple[dict, str]]:
    """(container, key) of every claimed order and checked hom and graph field."""
    fields = [(cert["orders"], k) for k in sorted(cert["orders"])]
    for hom in cert["factor_homs"]:
        fields += [(hom, k) for k in ("map", "modulus", "target_table") if k in hom]
    for comp in cert["components"]:
        fields += [(comp["graph"], k) for k in ("vcount", "factors", "action")]
    return fields


class TestMutatedCertificates:
    """A dropped key, a wrong type, an out-of-range value or a ragged row in
    one checked field of an engine certificate gives a failing report."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_single_mutation_fails(self, data):
        inst, cert = data.draw(st.sampled_from(MUTABLE_CERTIFICATES))
        assert verify_certificate(inst, cert).verdict
        cert = copy.deepcopy(cert)
        node, key = data.draw(st.sampled_from(_checked_fields(cert)))
        kinds = ["drop", "type", "range"] + (["ragged"] if isinstance(node[key], list) else [])
        kind = data.draw(st.sampled_from(kinds))
        if kind == "drop":
            del node[key]
        elif kind == "ragged":
            # down to one row: a list of ints
            while isinstance(node[key][0], list):
                node, key = node[key], data.draw(st.integers(0, len(node[key]) - 1))
            row = node[key]
            if data.draw(st.booleans()):
                row.pop()
            else:
                row.append(row[0])
        else:
            # down to one int
            while isinstance(node[key], list):
                node, key = node[key], data.draw(st.integers(0, len(node[key]) - 1))
            old = node[key]
            assert type(old) is int
            if kind == "type":
                node[key] = data.draw(st.sampled_from([float(old), str(old), bool(old)]))
            else:
                node[key] = data.draw(st.sampled_from([-1 - old, old + 1000]))
        report = verify_certificate(inst, cert)
        assert not report.verdict and report.failures


class TestOracle:
    def test_z2z3_triple_found_by_degree_six(self, f23):
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB])
        result = brute_force_search(instance_to_json(inst), max_degree=6)
        assert result.found and result.degree <= 6
        assert len(set(result.orders.values())) == 3

    def test_z2z2_pair_found(self, z2):
        factors = finite_factors(z2, z2)
        inst = Instance(factors, [NormalForm((A,)), NormalForm(((1, 1),))])
        result = brute_force_search(instance_to_json(inst), max_degree=4)
        assert result.found
        assert sorted(result.orders.values()) in ([1, 2], [2, 4])

    def test_dihedral_triple_not_found(self, z2):
        factors = finite_factors(z2, z2)
        inst = Instance(factors, [NormalForm((A,)), NormalForm(((1, 1),)), AB])
        result = brute_force_search(instance_to_json(inst), max_degree=6)
        assert not result.found

    def test_orders_verified_against_engine(self, f23):
        # conjugate targets can never be separated by any homomorphism
        inst = Instance(f23, [AB, NormalForm((B, A))])
        result = brute_force_search(instance_to_json(inst), max_degree=5)
        assert not result.found

    def test_klein_factor_generating_pair(self, klein, z3):
        factors = finite_factors(klein, z3)
        inst = Instance(factors, [NormalForm(((0, 1),)), NormalForm(((0, 3), (1, 1)))])
        result = brute_force_search(instance_to_json(inst), max_degree=5)
        assert result.found
        assert result.orders[0] != result.orders[1]

    def test_infinite_factor_rejected(self):
        factors = Factors((FactorSpec("infinite_cyclic"), FactorSpec("finite", cyclic_group(3))))
        inst = Instance(factors, [NormalForm(((0, 1),))])
        with pytest.raises(InfiniteFactor):
            brute_force_search(instance_to_json(inst), max_degree=4)

    def test_target_cap(self, f23):
        inst_data = instance_to_json(Instance(f23, [NormalForm((A,))]))
        inst_data["targets"] = [[[0, 1]]] * 4
        with pytest.raises(HypothesisViolation):
            brute_force_search(inst_data, max_degree=4)

    def test_deterministic(self, f23):
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB])
        r1 = brute_force_search(instance_to_json(inst), max_degree=6)
        r2 = brute_force_search(instance_to_json(inst), max_degree=6)
        assert r1.images == r2.images and r1.degree == r2.degree

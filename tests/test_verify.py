import pytest

from ordersep.covergraph import graph_to_json, synchronized_product
from ordersep.errors import HypothesisViolation, InfiniteFactor
from ordersep.groupcore import cyclic_group
from ordersep.pipeline import Instance, instance_to_json, separate
from ordersep.verify import brute_force_search, verify_certificate
from ordersep.words import FactorSpec, Factors, NormalForm, finite_factors

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

    def test_matching_product_passes(self, f23):
        # certificates from older builds carry the product of the components
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB])
        data = with_product(inst)
        report = verify_certificate(instance_to_json(inst), data)
        assert report.verdict
        assert any("product" in c for c in report.checks)

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

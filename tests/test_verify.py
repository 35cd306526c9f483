import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from ordersep.covergraph import cayley_base, graph_to_json, synchronized_product
from ordersep import verify
from ordersep.errors import BadSyllable, HypothesisViolation, InfiniteFactor
from ordersep.groupcore import cyclic_group, validate_group
from ordersep.pipeline import Instance, instance_to_json, separate
from ordersep.verify import (
    _generating_sequence,
    _graph_ok,
    _mul_table_ok,
    brute_force_search,
    verify_certificate,
)
from ordersep.words import FactorSpec, Factors, NormalForm, finite_factors

from helpers import (
    bench_finite_tables,
    first_non_associative_triple,
    law_tampered_graph,
    random_loop_table,
    reference_graph_error,
    two_generator_groups,
    z2_times_loop,
    z500_loop,
)

A = (0, 1)
B = (1, 1)
AB = NormalForm((A, B))


def make_cert(inst):
    cert = separate(inst)
    data = cert.to_json()
    data["verified"] = True
    return data


def explicit_homs(inst_data, data):
    """``data`` with its homs written out as a schema-2 certificate wrote
    them: an identity hom as a finite hom with the identity map and the
    factor's table, and a modulus hom with its Z/m table."""
    homs = []
    for factor, hom in zip(inst_data["factors"], data["factor_homs"]):
        if hom["kind"] == "identity":
            n = len(factor["table"])
            hom = {"kind": "finite", "map": list(range(n)), "target_table": copy.deepcopy(factor["table"])}
        elif hom["kind"] == "infinite_cyclic":
            hom = {**hom, "target_table": [list(row) for row in cyclic_group(hom["modulus"]).table]}
        homs.append(copy.deepcopy(hom))
    return {**data, "schema": 2, "factor_homs": homs}


def with_base(inst_data, data):
    """``data`` as a schema-1 certificate: its homs written out
    (``explicit_homs``) and the factor product action, which schema 2 and 3
    leave implicit, listed as component 0."""
    data = explicit_homs(inst_data, data)
    groups = [validate_group(hom["target_table"]) for hom in data["factor_homs"]]
    base = {
        "type": "graph", "prime": None, "note": "factor product action",
        "graph": graph_to_json(cayley_base(*groups)),
    }
    return {**data, "schema": 1, "components": [base, *data["components"]]}


def with_product(inst):
    cert = separate(inst)
    product = cayley_base(*inst.factors.groups())
    for comp in cert.components:
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
        data = with_base(instance_to_json(inst), make_cert(inst))
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
        data = explicit_homs(instance_to_json(inst), make_cert(inst))
        data["factor_homs"][0]["map"] = [1, 0]  # does not fix the identity
        report = verify_certificate(instance_to_json(inst), data)
        assert not report.verdict
        assert any("hom" in f for f in report.failures)

    def test_trivializing_hom_changes_orders(self, f23):
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB])
        data = explicit_homs(instance_to_json(inst), make_cert(inst))
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
    inst = instance_to_json(_triple())
    data = with_base(inst, make_cert(_triple()))
    tamper(data)
    return verify_certificate(inst, data).failures


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
    """One case per graph and hom failure of the Z/2*Z/3 base action, listed
    explicitly as component 0 of a schema-1 certificate (element 1 of Z/3
    sends vertex v to [1, 2, 0, 4, 5, 3][v])."""

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
        assert _mul_table_ok(table)[0] == expected


    def test_table_over_64_elements_is_checked_exactly(self):
        assert _mul_table_ok(z500_loop())[0] == "associativity fails at (1,1,2)"

    def test_every_generator_is_checked(self):
        table = z2_times_loop()
        assert _generating_sequence(table)[0] == 1
        triple = first_non_associative_triple(table)
        assert _mul_table_ok(table)[0] == "associativity fails at ({},{},{})".format(*triple)

    def test_one_generating_sequence_per_table(self, monkeypatch):
        # the hom check hands its sequence to the graph check: one walk for
        # the identity hom's Z/3 table, none for the Z/2 the verifier builds
        inst, cert = _zxz3_certificate()
        assert [hom["kind"] for hom in cert["factor_homs"]] == ["infinite_cyclic", "identity"]
        tables = [tuple(map(tuple, inst["factors"][1]["table"]))]
        walked = []
        real = verify._generating_sequence

        def counted(table):
            walked.append(tuple(map(tuple, table)))
            return real(table)

        monkeypatch.setattr(verify, "_generating_sequence", counted)
        assert verify_certificate(inst, cert).verdict
        assert walked == tables


def _engine_certificates():
    f23 = finite_factors(cyclic_group(2), cyclic_group(3))
    f34 = finite_factors(cyclic_group(3), cyclic_group(4))
    instances = [
        _triple(),
        # an 18-vertex small action parts b from (ab)^2
        Instance(f23, [NormalForm((B,)), NormalForm((A, B, A, B))]),
        Instance(f34, [NormalForm(((0, 1),)), NormalForm(((1, 2),)), NormalForm(((0, 1), (1, 1)))]),
    ]
    return [(instance_to_json(inst), make_cert(inst)) for inst in instances]


ENGINE_CERTIFICATES = _engine_certificates()
# the same certificates in schema 1: each lists the factor product action as
# component 0, so each has a graph to tamper with
SCHEMA1_CERTIFICATES = [(inst, with_base(inst, cert)) for inst, cert in ENGINE_CERTIFICATES]


class TestTamperedActions:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_single_action_entry_change_is_rejected(self, data):
        inst, cert = data.draw(st.sampled_from(SCHEMA1_CERTIFICATES))
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
        inst, cert = data.draw(st.sampled_from(SCHEMA1_CERTIFICATES))
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


class TestGeneratorLaw:
    """The graph check tests the composition law on generators of each factor
    table; over groups with two generators it names the failure the
    element-by-element reference meets first."""

    GROUPS = two_generator_groups()

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(GROUPS)), st.integers(0, 2 ** 32))
    def test_tampered_actions_match_the_reference(self, name, seed):
        graph = graph_to_json(law_tampered_graph(self.GROUPS[name], random.Random(seed)))
        tables = graph["factors"]
        gens = [_generating_sequence(table) for table in tables]
        assert len(gens[0]) == 2
        expected = reference_graph_error(graph, tables)
        assert _graph_ok(graph, tables, gens) == _graph_ok(graph, tables) == expected


def _zxz3_certificate():
    # an infinite cyclic factor: the certificate carries a modulus hom
    factors = Factors((FactorSpec("infinite_cyclic"), FactorSpec("finite", cyclic_group(3))))
    inst = Instance(factors, [NormalForm(((0, 1),)), NormalForm((B,)), NormalForm(((0, 1), B))])
    return instance_to_json(inst), make_cert(inst)


ZXZ3_CERTIFICATE = _zxz3_certificate()
MUTABLE_CERTIFICATES = ENGINE_CERTIFICATES + SCHEMA1_CERTIFICATES + [
    ZXZ3_CERTIFICATE, (ZXZ3_CERTIFICATE[0], with_base(*ZXZ3_CERTIFICATE)),
]


def _checked_fields(cert: dict) -> list[tuple[dict, str]]:
    """(container, key) of every claimed order and checked hom and graph
    field; a modulus hom's table, which schema 1 and 2 carry, is not read."""
    fields = [(cert["orders"], k) for k in sorted(cert["orders"])]
    for hom in cert["factor_homs"]:
        checked = ("modulus",) if hom["kind"] == "infinite_cyclic" else ("map", "target_table")
        fields += [(hom, k) for k in checked if k in hom]
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


ZERO_COMPONENT_CERTIFICATES = [
    (inst, cert) for inst, cert in MUTABLE_CERTIFICATES if not cert["components"]
]


class TestImplicitProduct:
    """A schema-2 certificate leaves the factor product action implicit: the
    verifier recomputes each order as the lcm of the target's order in the
    direct product of the hom target tables and its walked component
    orders."""

    def test_zero_component_certificate_verifies(self):
        inst, cert = ENGINE_CERTIFICATES[0]
        assert cert["schema"] == 3 and cert["components"] == []
        report = verify_certificate(inst, cert)
        assert report.verdict and report.orders == {0: 2, 1: 3, 2: 6}

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_tampered_target_table_fails(self, data):
        # the table an identity hom reads from the instance, or a finite
        # hom's carried table (each identity hom written out as one)
        inst, cert = copy.deepcopy(data.draw(st.sampled_from(ZERO_COMPONENT_CERTIFICATES)))
        f = data.draw(st.sampled_from(
            [f for f, hom in enumerate(cert["factor_homs"]) if hom["kind"] == "identity"]
        ))
        if data.draw(st.booleans()):
            table = inst["factors"][f]["table"]
        else:
            cert = explicit_homs(inst, cert)
            table = cert["factor_homs"][f]["target_table"]
        row = table[data.draw(st.integers(0, len(table) - 1))]
        y = data.draw(st.integers(0, len(row) - 1))
        row[y] = data.draw(st.integers(0, len(row) - 1).filter(lambda v: v != row[y]))
        assert not verify_certificate(inst, cert).verdict

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_tampered_order_fails(self, data):
        inst, cert = data.draw(st.sampled_from(ZERO_COMPONENT_CERTIFICATES))
        cert = copy.deepcopy(cert)
        key = data.draw(st.sampled_from(sorted(cert["orders"])))
        claimed = cert["orders"][key]
        cert["orders"][key] = data.draw(st.integers(1, 10 ** 6).filter(lambda v: v != claimed))
        report = verify_certificate(inst, cert)
        assert report.failures[0].startswith(f"target {key}: claimed order")

    def test_schema1_certificate_gives_the_same_orders(self):
        # and the schema-2 form: every hom written out
        for inst, cert in ENGINE_CERTIFICATES + [_zxz3_certificate()]:
            reports = [
                verify_certificate(inst, form)
                for form in (cert, explicit_homs(inst, cert), with_base(inst, cert))
            ]
            claimed = {int(k): v for k, v in cert["orders"].items()}
            assert all(report.verdict for report in reports)
            assert all(report.orders == claimed for report in reports)


class TestHomKinds:
    """Schema 3 writes a hom only as far as the instance leaves it open: an
    identity hom reads the instance's factor table, and a modulus hom's Z/m
    is built by the verifier, whatever table the certificate carries."""

    def test_forged_modulus_table_fails(self):
        # Z*Z/3 with targets x and x^2: the order of x^2 divides that of x,
        # but S3 as "Z/6" sends 1 to an involution and 2 to a 3-cycle
        s3 = bench_finite_tables()["S3"]
        factors = Factors((FactorSpec("infinite_cyclic"), FactorSpec("finite", cyclic_group(3))))
        inst = instance_to_json(Instance(factors, [NormalForm(((0, 1),)), NormalForm(((0, 2),))]))
        forged = {
            "schema": 3,
            "factor_homs": [
                {"kind": "infinite_cyclic", "modulus": 6, "target_table": s3},
                {"kind": "finite", "map": [0, 0, 0], "target_table": [[0]]},
            ],
            "components": [],
            "orders": {"0": 2, "1": 3},
            "verified": True,
        }
        report = verify_certificate(inst, forged)
        assert report.failures == ["target 0: claimed order 2 != recomputed 6"]
        assert report.orders == {0: 6, 1: 3}

    def test_carried_modulus_table_is_not_read(self):
        inst, cert = _zxz3_certificate()
        cert = explicit_homs(inst, cert)
        report = verify_certificate(inst, cert)
        cert["factor_homs"][0]["target_table"] = "not a table"
        tampered = verify_certificate(inst, cert)
        assert report.verdict and tampered.verdict and tampered.orders == report.orders

    @pytest.mark.parametrize("modulus", [0, -2, verify.MAX_MODULUS + 1, True, 2.0, "2", None])
    def test_modulus_out_of_range_fails(self, modulus):
        inst, cert = _zxz3_certificate()
        cert = copy.deepcopy(cert)
        cert["factor_homs"][0]["modulus"] = modulus
        assert verify_certificate(inst, cert).failures == [
            f"factor hom 0: modulus {modulus!r} not in 1..{verify.MAX_MODULUS}"
        ]

    def test_identity_hom_on_an_infinite_factor_fails(self):
        inst, cert = _zxz3_certificate()
        cert = copy.deepcopy(cert)
        cert["factor_homs"][0] = {"kind": "identity"}
        assert verify_certificate(inst, cert).failures == [
            "factor hom 0: identity hom on non-finite factor"
        ]

    def test_finite_hom_source_must_be_a_group(self):
        # Z*Z/3 with targets x, x^3 and b, retracting Z/3 away: the trivial
        # map is a homomorphism from any table, so the instance's table is
        # checked on its own
        factors = Factors((FactorSpec("infinite_cyclic"), FactorSpec("finite", cyclic_group(3))))
        inst = instance_to_json(
            Instance(factors, [NormalForm(((0, 1),)), NormalForm(((0, 3),)), NormalForm((B,))])
        )
        cert = {
            "schema": 3,
            "factor_homs": [
                {"kind": "infinite_cyclic", "modulus": 6},
                {"kind": "finite", "map": [0, 0, 0], "target_table": [[0]]},
            ],
            "components": [],
            "orders": {"0": 6, "1": 2, "2": 1},
            "verified": True,
        }
        assert verify_certificate(inst, cert).verdict
        inst["factors"][1]["table"] = [[0, 1, 2], [1, 1, 1], [2, 2, 2]]
        assert verify_certificate(inst, cert).failures == [
            "factor hom 1: source not a group: row 1 not a permutation"
        ]

    def test_identity_hom_needs_identity_at_zero(self):
        # Z/3 with its identity at label 1: an identity hom reads the
        # instance's labels, so the table fails as a target
        inst, cert = ENGINE_CERTIFICATES[0]
        inst = copy.deepcopy(inst)
        inst["factors"][1]["table"] = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
        assert verify_certificate(inst, cert).failures == [
            "factor hom 1: target not a group: identity is not element 0"
        ]


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

    @pytest.mark.parametrize(
        "targets",
        [
            [[[0, 1.9], [1, 1]], [[1, "1"]]],  # not an int
            [[[0, True], [1, 1]], [[True, 1]]],  # a bool
            [[[0, -1], [1, 1]], [[1, -2]]],  # out of range, below
            [[[0, 2], [1, 1]], [[1, 1]]],  # out of range, above
        ],
    )
    def test_bad_syllable_is_rejected(self, f23, targets):
        # int() and indexing read the first three as the targets ab and b;
        # the last raised IndexError
        inst_data = instance_to_json(Instance(f23, [AB, NormalForm((B,))]))
        assert brute_force_search(inst_data, max_degree=3).found
        inst_data["targets"] = targets
        with pytest.raises(BadSyllable, match="target 0: syllable .* is not a factor element"):
            brute_force_search(inst_data, max_degree=3)

    def test_deterministic(self, f23):
        inst = Instance(f23, [NormalForm((A,)), NormalForm((B,)), AB])
        r1 = brute_force_search(instance_to_json(inst), max_degree=6)
        r2 = brute_force_search(instance_to_json(inst), max_degree=6)
        assert r1.images == r2.images and r1.degree == r2.degree


class TestInstanceSyllables:
    """The verifier checks instance syllables itself: a factor index is the
    int 0 or 1, a finite factor's value an int in its range and an infinite
    cyclic factor's value any int.  ``int()`` would read each bad syllable
    below as a letter of the certified targets ab and b."""

    @staticmethod
    def certificate():
        inst = Instance(finite_factors(cyclic_group(2), cyclic_group(3)), [AB, NormalForm((B,))])
        return instance_to_json(inst), make_cert(inst)

    @pytest.mark.parametrize(
        "target, syllable",
        [
            (0, [0, 1.9]),
            (1, [1, "1"]),
            (0, [0, True]),
            (0, [0, -1]),  # map[-1]
            (1, [-1, 1]),  # homs[-1]
            (1, [True, 1]),
            (1, [2, 1]),
            (1, [1, 3]),
            (0, [1.0, 1]),
        ],
    )
    def test_bad_syllable_names_its_target(self, target, syllable):
        inst, cert = self.certificate()
        assert verify_certificate(inst, cert).verdict
        inst["targets"][target][0] = syllable
        report = verify_certificate(inst, cert)
        assert report.failures == [f"target {target}: syllable {syllable!r} is not a factor element"]

    @pytest.mark.parametrize("value", [-1, 3, -(10 ** 30) + 1])
    def test_infinite_cyclic_value_is_any_int(self, value):
        # modulo 2 each value maps where a does
        inst, cert = _zxz3_certificate()
        assert cert["factor_homs"][0]["modulus"] == 2
        inst["targets"][0][0] = [0, value]
        assert verify_certificate(inst, cert).verdict

    @pytest.mark.parametrize("value", [1.0, True, "1", None])
    def test_infinite_cyclic_value_is_an_int(self, value):
        inst, cert = _zxz3_certificate()
        inst["targets"][0][0] = [0, value]
        assert verify_certificate(inst, cert).failures == [
            f"target 0: syllable {[0, value]!r} is not a factor element"
        ]


class TestInstanceShape:
    """The verifier refuses an instance it would otherwise misread: it reads
    only the first two factors and no schema, a string or object ``targets``
    by its characters or keys, and an empty word of any type walks as the
    identity.  Each such instance is one the instance parser refuses too."""

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda i: i["factors"].append(i["factors"][0]), "the instance needs exactly two factors"),
            (lambda i: i.update(factors=i["factors"][0]), "the instance needs exactly two factors"),
            (lambda i: i.update(schema=7), "unsupported instance schema 7"),
            (lambda i: i.update(schema="1"), "unsupported instance schema '1'"),
            (lambda i: i.update(schema=1.0), "unsupported instance schema 1.0"),
            (lambda i: i.update(schema=True), "unsupported instance schema True"),
            (lambda i: i.update(targets=""), "the instance's targets are not a list"),
            (lambda i: i.update(targets={}), "the instance's targets are not a list"),
            (lambda i: i["factors"][0].update(table=[]), "factor hom 0: target not a group: empty table"),
            (lambda i: i["targets"].append(""), "target 2 is not a list of [factor, value] syllables"),
            (lambda i: i["targets"].append({}), "target 2 is not a list of [factor, value] syllables"),
            (lambda i: i["targets"][1].__setitem__(0, "11"), "target 1 is not a list of [factor, value] syllables"),
            (lambda i: i["targets"][0].append([0, 1, 1]), "target 0 is not a list of [factor, value] syllables"),
        ],
        ids=[
            "three-factors", "factors-dict", "schema-7", "schema-string", "schema-float",
            "schema-true", "targets-string", "targets-dict", "empty-table",
            "word-string", "word-dict", "syllable-string", "syllable-long",
        ],
    )
    def test_refused(self, tamper, message):
        inst, cert = TestInstanceSyllables.certificate()
        assert verify_certificate(inst, cert).verdict
        tamper(inst)
        assert verify_certificate(inst, cert).failures == [message]

    @pytest.mark.parametrize("schema", [1])
    def test_schema_one(self, schema):
        # the instance parser's rule: a missing schema, or the integer 1
        inst, cert = TestInstanceSyllables.certificate()
        inst["schema"] = schema
        assert verify_certificate(inst, cert).verdict
        del inst["schema"]
        assert verify_certificate(inst, cert).verdict

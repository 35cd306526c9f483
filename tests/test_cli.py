import functools
import json

import pytest

from ordersep import cli, pipeline
from ordersep.cli import _build_parser, run_cli
from ordersep.covergraph import cayley_base, graph_to_json, synchronized_product
from ordersep.groupcore import cyclic_group

from helpers import TEN_TARGETS, z2z3_syllables

Z2 = [[0, 1], [1, 0]]
Z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def instance_z2z3(targets, mode="auto", config=None):
    data = {
        "schema": 1,
        "factors": [{"type": "finite", "table": Z2}, {"type": "finite", "table": Z3}],
        "targets": targets,
        "mode": mode,
    }
    if config:
        data["config"] = config
    return data


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


TRIPLE = [[[0, 1]], [[1, 1]], [[0, 1], [1, 1]]]


class TestSeparate:
    def test_smoke_run(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", instance_z2z3(TRIPLE))
        out = str(tmp_path / "cert.json")
        assert run_cli(["separate", inst, "--out", out]) == 0
        cert = json.loads((tmp_path / "cert.json").read_text())
        assert cert["verified"] is True
        assert len(set(cert["orders"].values())) == 3

    def test_dihedral_rejected_exit_2(self, tmp_path, capsys):
        data = instance_z2z3(TRIPLE)
        data["factors"][1] = {"type": "finite", "table": Z2}
        inst = write(tmp_path, "inst.json", data)
        assert run_cli(["separate", inst, "--out", str(tmp_path / "c.json")]) == 2
        err = capsys.readouterr().err
        assert "SharedFactorOrder" in err

    def test_json_errors(self, tmp_path, capsys):
        data = instance_z2z3(TRIPLE)
        data["factors"][1] = {"type": "finite", "table": Z2}
        inst = write(tmp_path, "inst.json", data)
        assert run_cli(["--json", "separate", inst, "--out", str(tmp_path / "c.json")]) == 2
        err = capsys.readouterr().err
        payload = json.loads(err)
        assert payload["error"] == "SharedFactorOrder"

    def test_budget_exit_3(self, tmp_path, capsys):
        data = instance_z2z3(TRIPLE, config={"max_vertices": 5})
        inst = write(tmp_path, "inst.json", data)
        assert run_cli(["separate", inst, "--out", str(tmp_path / "c.json")]) == 3

    def test_parse_error_exit_5(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(["separate", str(path), "--out", str(tmp_path / "c.json")]) == 5

    def test_missing_file_exit_5(self, tmp_path, capsys):
        assert run_cli(["separate", str(tmp_path / "nope.json")]) == 5

    def test_usage_error_exit_5(self, capsys):
        assert run_cli(["frobnicate"]) == 5

    def test_dot_emission(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", instance_z2z3(TRIPLE))
        out = str(tmp_path / "cert.json")
        dots = tmp_path / "dots"
        assert run_cli(["separate", inst, "--out", out, "--dot", str(dots)]) == 0
        files = sorted(dots.glob("component_*.dot"))
        assert files
        assert files[0].read_text().startswith("digraph")

    def test_determinism(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", instance_z2z3(TRIPLE))
        outs = []
        for n in range(2):
            out = tmp_path / f"cert{n}.json"
            assert run_cli(["separate", inst, "--seed", "7", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestParserReuse:
    def test_reused_parser_matches_fresh_one(self, tmp_path, capsys):
        # b and (ab)^2 collide on the base action; the repair's Lemma 1
        # component depends on the seed and needs more than 50 vertices
        vs_factor = [[[1, 1]], [[0, 1], [1, 1], [0, 1], [1, 1]]]
        inst = write(tmp_path, "inst.json", instance_z2z3(vs_factor, config={"lemma1_attempts": 200}))
        calls = [
            ["separate", inst, "--seed", "7"],
            ["separate", inst],
            ["separate", inst, "--seed", "x", "--max-vertices", "3"],
            ["--json", "separate", inst, "--max-vertices", "50"],
        ]

        def run(argv, out):
            code = run_cli(argv + ["--out", str(out)])
            return code, out.read_bytes() if out.exists() else None, capsys.readouterr().err

        fresh = []
        for n, argv in enumerate(calls):
            _build_parser.cache_clear()
            fresh.append(run(argv, tmp_path / f"fresh{n}.json"))
        reused = [run(argv, tmp_path / f"reused{n}.json") for n, argv in enumerate(calls)]
        assert _build_parser.cache_info().hits == len(calls)
        assert reused == fresh
        assert [code for code, _cert, _err in reused] == [0, 0, 5, 3]
        assert reused[0][1] != reused[1][1]  # a leaked --seed would show
        assert json.loads(reused[3][2])["error"] == "SearchBudgetExceeded"


class TestVerifyCommand:
    def test_verify_pass(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", instance_z2z3(TRIPLE))
        out = str(tmp_path / "cert.json")
        run_cli(["separate", inst, "--out", out])
        assert run_cli(["verify", inst, out]) == 0
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert report["verdict"] == "pass"

    def test_verify_tampered_exit_4(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", instance_z2z3(TRIPLE))
        out = tmp_path / "cert.json"
        run_cli(["separate", inst, "--out", str(out)])
        cert = json.loads(out.read_text())
        cert["orders"]["2"] = 17
        tampered = write(tmp_path, "tampered.json", cert)
        assert run_cli(["verify", inst, tampered]) == 4


class TestMalformedCertificate:
    """``verify`` answers malformed certificate data with a failing report
    and exit 4, never an exception."""

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda c: c["factor_homs"][0].update(map=[0, 5]), "factor hom 0: map entry out of range"),
            (lambda c: c["factor_homs"][0].update(map=[0, "x"]), "factor hom 0: map entry out of range"),
            (lambda c: c["components"][0].pop("graph"), "component 0: missing graph"),
            (lambda c: c["factor_homs"][1].pop("kind"), "factor hom 1: unknown hom kind None"),
            (lambda c: c["orders"].update({"0": 2.9}), "target 0: claimed order 2.9 is not an integer"),
            (lambda c: c["orders"].update({"0": "2"}), "target 0: claimed order '2' is not an integer"),
            (lambda c: c["orders"].update({"0": 2.0}), "target 0: claimed order 2.0 is not an integer"),
        ],
        ids=[
            "map-out-of-range", "map-not-int", "component-without-graph", "hom-without-kind",
            "order-real", "order-string", "order-integral-real",
        ],
    )
    def test_failing_report(self, tmp_path, capsys, tamper, message):
        inst = write(tmp_path, "inst.json", instance_z2z3(TRIPLE))
        out = tmp_path / "cert.json"
        assert run_cli(["separate", inst, "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        tamper(cert)
        capsys.readouterr()
        assert run_cli(["verify", inst, write(tmp_path, "tampered.json", cert)]) == 4
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "fail"
        assert report["failures"] == [message]


class TestRepairBudget:
    def test_no_repair_candidate_exit_3(self, tmp_path, capsys, monkeypatch):
        # seed 15 of the ten-target instances: with no small action, no
        # candidate parts pair (0, 6) without merging another pair
        monkeypatch.setattr(pipeline, "_small_action", lambda *args: None)
        targets = [z2z3_syllables(t) for t in TEN_TARGETS[15].split()]
        inst = write(tmp_path, "inst.json", instance_z2z3(targets))
        assert run_cli(["--json", "separate", inst, "--out", str(tmp_path / "c.json")]) == 3
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "RepairBudgetExceeded"
        assert "repair-same-class" in payload["detail"] and "(0, 6)" in payload["detail"]


class TestIntegerInputs:
    """An integer read from an input file is checked, never truncated or
    converted: a real, a boolean or a string is a parse error (exit 5)."""

    @staticmethod
    def run_json(argv, capsys):
        capsys.readouterr()
        code = run_cli(["--json", *argv])
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"
        return code

    @pytest.mark.parametrize("command", ["separate", "verify"])
    @pytest.mark.parametrize("syllable", [[0, 1.5], [0, True], ["0", "1"]], ids=["real", "bool", "string"])
    def test_instance_syllable(self, tmp_path, capsys, command, syllable):
        good = write(tmp_path, "good.json", instance_z2z3(TRIPLE))
        cert = str(tmp_path / "cert.json")
        assert run_cli(["separate", good, "--out", cert]) == 0
        bad = write(tmp_path, "bad.json", instance_z2z3([[syllable], *TRIPLE[1:]]))
        argv = ["verify", bad, cert] if command == "verify" else ["separate", bad, "--out", cert]
        assert self.run_json(argv, capsys) == 5

    @pytest.mark.parametrize(
        "config",
        [{"seed": "abc"}, {"seed": 1.5}, {"modulus_bound": 2.5}, {"max_vertices": True}],
        ids=["seed-string", "seed-real", "modulus-bound-real", "max-vertices-bool"],
    )
    def test_config_value(self, tmp_path, capsys, config):
        inst = write(tmp_path, "inst.json", instance_z2z3(TRIPLE, config=config))
        assert self.run_json(["separate", inst, "--out", str(tmp_path / "c.json")], capsys) == 5

    # budgets with one value in use are module constants, not config keys
    REMOVED_CONFIG = {
        "max_iterations": 64,
        "oracle_degree": 8,
        "modulus_bound": 10 ** 6,
        "lemma1_grow_every": 1_000,
        "lemma2_retries": 4,
        "lemma2_triple_rounds": 12,
        "lemma2_scan_rounds": 64,
        "lemma3_retries": 3,
        "dot_vertex_cap": 5_000,
    }

    @pytest.mark.parametrize("key", sorted(REMOVED_CONFIG))
    @pytest.mark.parametrize("command", ["separate", "lemma4"])
    def test_removed_config_key(self, tmp_path, capsys, command, key):
        config = {key: self.REMOVED_CONFIG[key]}
        if command == "separate":
            path = write(tmp_path, "inst.json", instance_z2z3(TRIPLE, config=config))
            argv = ["separate", path, "--out", str(tmp_path / "c.json")]
        else:
            args = {"factors": instance_z2z3([])["factors"], **self.LEMMA_ARGS["lemma4"], "config": config}
            argv = ["lemma4", write(tmp_path, "args.json", args)]
        capsys.readouterr()
        assert run_cli(argv) == 5
        assert f"unknown config keys ['{key}']" in capsys.readouterr().err

    LEMMA_ARGS = {
        "lemma1": {"targets": [[[0, 1], [1, 1], [0, 1], [1, 2]]], "p": 2, "n": 2, "seed": 1},
        "lemma3": {"targets": [[[0, 1], [1, 1], [0, 1], [1, 2]], [[0, 1], [1, 1]] * 6], "pi": [3]},
        "lemma4": {"word": [[0, 1], [1, 1], [0, 1], [1, 2]], "exponents": [1, 2]},
    }

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("lemma1", "p", 2.0),
            ("lemma1", "n", True),
            ("lemma1", "seed", "1"),
            ("lemma1", "targets", [[[0, 1], [1, 1], [0, 1.0], [1, 2]]]),
            ("lemma3", "pi", [3.5]),
            ("lemma4", "exponents", [1, True]),
        ],
        ids=["p-real", "n-bool", "seed-string", "syllable-real", "pi-real", "exponent-bool"],
    )
    def test_lemma_argument(self, tmp_path, capsys, command, key, value):
        args = {
            "factors": [{"type": "finite", "table": Z2}, {"type": "finite", "table": Z3}],
            **self.LEMMA_ARGS[command],
            key: value,
        }
        assert self.run_json([command, write(tmp_path, "args.json", args)], capsys) == 5

    @pytest.mark.parametrize(
        "action, data",
        [
            ("surgery", {"t": 2.0, "marks": [[0, 0]]}),
            ("surgery", {"t": 2, "marks": [[0, False]]}),
            ("product", {"base": [0, True]}),
        ],
        ids=["surgery-t-real", "surgery-mark-bool", "product-base-bool"],
    )
    def test_graph_argument(self, tmp_path, capsys, action, data):
        g = graph_to_json(cayley_base(cyclic_group(2), cyclic_group(3)))
        data = {**data, **({"graph": g} if action == "surgery" else {"graphs": [g, g]})}
        assert self.run_json(["graph", action, write(tmp_path, "g.json", data)], capsys) == 5

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda g: g.update(vcount="6"),
            lambda g: g["action"][1][0].__setitem__(0, 1.0),
            lambda g: g["action"][1][0].__setitem__(0, True),
            lambda g: g["factors"][0][0].__setitem__(1, True),
        ],
        ids=["vcount-string", "action-real", "action-bool", "factor-table-bool"],
    )
    @pytest.mark.parametrize("action", ["dot", "surgery"])
    def test_graph_json(self, tmp_path, capsys, action, tamper):
        g = graph_to_json(cayley_base(cyclic_group(2), cyclic_group(3)))
        assert g["action"][1][0][0] == 1 and g["factors"][0][0][1] == 1
        tamper(g)
        data = g if action == "dot" else {"graph": g, "t": 2, "marks": [[0, 0]]}
        assert self.run_json(["graph", action, write(tmp_path, "g.json", data)], capsys) == 5


class TestMissingKeys:
    """A required key missing from a lemma or graph argument file is a parse
    error (exit 5) that names the key."""

    GRAPH = graph_to_json(cayley_base(cyclic_group(2), cyclic_group(3)))
    FACTORS = instance_z2z3([])["factors"]
    ARGS = {
        "lemma1": {"factors": FACTORS, **TestIntegerInputs.LEMMA_ARGS["lemma1"]},
        "lemma2": {"factors": FACTORS, "targets": [[[0, 1], [1, 1], [0, 1], [1, 2]]], "p": 2},
        "lemma3": {"factors": FACTORS, **TestIntegerInputs.LEMMA_ARGS["lemma3"]},
        "lemma4": {"factors": FACTORS, **TestIntegerInputs.LEMMA_ARGS["lemma4"]},
        "surgery": {"graph": GRAPH, "t": 2, "marks": [[0, 0]]},
        "product": {"graphs": [GRAPH, GRAPH]},
    }

    @pytest.mark.parametrize(
        "command, key",
        [
            ("lemma1", "factors"), ("lemma1", "targets"), ("lemma1", "p"), ("lemma1", "n"),
            ("lemma2", "targets"), ("lemma2", "p"),
            ("lemma3", "targets"),
            ("lemma4", "word"), ("lemma4", "exponents"),
            ("surgery", "graph"), ("surgery", "marks"), ("surgery", "t"),
            ("product", "graphs"),
        ],
    )
    def test_missing_key_exit_5(self, tmp_path, capsys, command, key):
        args = {k: v for k, v in self.ARGS[command].items() if k != key}
        argv = ["graph", command] if command in ("surgery", "product") else [command]
        capsys.readouterr()
        assert run_cli(["--json", *argv, write(tmp_path, "args.json", args)]) == 5
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "ParseError", "detail": f"argument file lacks the key {key!r}"}


class TestOracleCommand:
    def test_default_degree(self):
        assert _build_parser().parse_args(["oracle", "inst.json"]).max_degree == 8

    def test_oracle_finds(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", instance_z2z3(TRIPLE))
        assert run_cli(["oracle", inst, "--max-degree", "6"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["found"] is True


class TestLemmaCommands:
    def test_lemma1(self, tmp_path, capsys):
        args = {
            "schema": 1,
            "factors": [{"type": "finite", "table": Z2}, {"type": "finite", "table": Z3}],
            "targets": [[[0, 1], [1, 1], [0, 1], [1, 2]]],
            "p": 2,
            "n": 2,
            "seed": 1,
        }
        path = write(tmp_path, "l1.json", args)
        assert run_cli(["lemma1", path]) == 0
        res = json.loads(capsys.readouterr().out)
        order = res["orders"]["0"]
        assert order > 4 and order & (order - 1) == 0

    def test_lemma2(self, tmp_path, capsys):
        args = {
            "factors": [{"type": "finite", "table": Z2}, {"type": "finite", "table": Z3}],
            "targets": [[[0, 1], [1, 1], [0, 1], [1, 2]]],
            "p": 2,
        }
        path = write(tmp_path, "l2.json", args)
        assert run_cli(["lemma2", path]) == 0
        res = json.loads(capsys.readouterr().out)
        assert res["orders"]["0"] > 1

    def test_lemma3(self, tmp_path, capsys):
        word6 = [[0, 1], [1, 1]] * 6
        args = {
            "factors": [{"type": "finite", "table": Z2}, {"type": "finite", "table": Z3}],
            "targets": [[[0, 1], [1, 1], [0, 1], [1, 2]], word6],
            "pi": [3],
        }
        path = write(tmp_path, "l3.json", args)
        assert run_cli(["lemma3", path]) == 0
        res = json.loads(capsys.readouterr().out)
        assert res["orders"]["0"] != res["orders"]["1"]
        assert all(int(v) % 3 for v in res["orders"].values())

    def test_lemma4(self, tmp_path, capsys):
        args = {
            "factors": [{"type": "finite", "table": Z2}, {"type": "finite", "table": Z3}],
            "word": [[0, 1], [1, 1], [0, 1], [1, 2]],
            "exponents": [1, 2],
        }
        path = write(tmp_path, "l4.json", args)
        assert run_cli(["lemma4", path]) == 0
        res = json.loads(capsys.readouterr().out)
        assert res["orders"]["0"] != res["orders"]["1"]

    def test_lemma_error_mapped(self, tmp_path, capsys):
        args = {
            "factors": [{"type": "finite", "table": Z2}, {"type": "finite", "table": Z3}],
            "targets": [[[0, 1], [1, 1]]],  # ab is not in the Cartesian subgroup
            "p": 2,
            "n": 1,
        }
        path = write(tmp_path, "bad.json", args)
        assert run_cli(["lemma1", path]) == 2


class TestGraphCommands:
    def _base_graph(self, tmp_path, capsys):
        g = cayley_base(cyclic_group(2), cyclic_group(3))
        return graph_to_json(g)

    def test_dot(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", self._base_graph(tmp_path, capsys))
        assert run_cli(["graph", "dot", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_surgery(self, tmp_path, capsys):
        data = {"graph": self._base_graph(tmp_path, capsys), "t": 2, "marks": [[0, 0]]}
        path = write(tmp_path, "s.json", data)
        assert run_cli(["graph", "surgery", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["vcount"] == 12

    def test_product(self, tmp_path, capsys):
        g = self._base_graph(tmp_path, capsys)
        path = write(tmp_path, "p.json", {"graphs": [g, g], "base": [0, 0]})
        assert run_cli(["graph", "product", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["vcount"] == 36

    @pytest.mark.parametrize("base", [[99, 0], [-1, 0], [0, 6], [0, -1]])
    @pytest.mark.parametrize("max_vertices", [36, 35], ids=["full", "component"])
    def test_product_base_out_of_range_exit_5(self, tmp_path, capsys, monkeypatch, base, max_vertices):
        # 36 vertex pairs fit the full product; a budget of 35 takes the
        # component branch
        monkeypatch.setattr(
            cli, "synchronized_product", functools.partial(synchronized_product, max_vertices=max_vertices)
        )
        g = self._base_graph(tmp_path, capsys)
        path = write(tmp_path, "p.json", {"graphs": [g, g], "base": base})
        assert run_cli(["graph", "product", path]) == 5
        assert "ParseError" in capsys.readouterr().err
        path = write(tmp_path, "ok.json", {"graphs": [g, g], "base": [5, 2]})
        assert run_cli(["graph", "product", path]) == 0
        assert json.loads(capsys.readouterr().out)["vcount"] == (36 if max_vertices == 36 else 6)

    @pytest.mark.parametrize("max_vertices", [36, 35], ids=["full", "component"])
    def test_product_factors_disagree_exit_5(self, tmp_path, capsys, monkeypatch, max_vertices):
        # a Z/2*Z/3 graph and a Z/3*Z/2 graph act on different free products
        monkeypatch.setattr(
            cli, "synchronized_product", functools.partial(synchronized_product, max_vertices=max_vertices)
        )
        g = self._base_graph(tmp_path, capsys)
        h = graph_to_json(cayley_base(cyclic_group(3), cyclic_group(2)))
        assert h["vcount"] == g["vcount"] == 6
        path = write(tmp_path, "p.json", {"graphs": [g, h], "base": [0, 0]})
        assert run_cli(["graph", "product", path]) == 5
        assert "error[ParseError]: product factors disagree" in capsys.readouterr().err

    def test_bad_graph_exit_5(self, tmp_path, capsys):
        g = self._base_graph(tmp_path, capsys)
        g["action"][0][0][0] = 0
        path = write(tmp_path, "bad.json", g)
        assert run_cli(["graph", "dot", path]) == 5

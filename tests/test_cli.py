import contextlib
import copy
import functools
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ordersep import cli, pipeline
from ordersep.cli import _build_parser, _parse_args, run_cli
from ordersep.covergraph import cayley_base, graph_to_json, synchronized_product
from ordersep.errors import ParseError
from ordersep.groupcore import cyclic_group

from helpers import TEN_TARGETS, bench_finite_tables, old_verify_exit, z2z3_syllables, z500_loop

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


def quiet(argv):
    """``run_cli(argv)``'s exit code and standard output, with nothing
    printed (a hypothesis test cannot take the capsys fixture)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(argv)
    return code, out.getvalue()


TRIPLE = [[[0, 1]], [[1, 1]], [[0, 1], [1, 1]]]
# b and (ab)^2 collide on the factor product action; a repair round parts them
VS_FACTOR = [[[1, 1]], [[0, 1], [1, 1], [0, 1], [1, 1]]]


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

    def test_budget_counts_the_implicit_product(self, tmp_path, capsys):
        # the factor product action is never built, but its 6 vertices are
        # held to the budget as if it were
        inst = write(tmp_path, "inst.json", instance_z2z3(TRIPLE))
        argv = ["--json", "separate", inst, "--max-vertices", "5", "--out", str(tmp_path / "c.json")]
        assert run_cli(argv) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "BudgetExceeded", "detail": "6 vertices over budget 5"
        }

    def test_parse_error_exit_5(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(["separate", str(path), "--out", str(tmp_path / "c.json")]) == 5

    def test_missing_file_exit_5(self, tmp_path, capsys):
        assert run_cli(["separate", str(tmp_path / "nope.json")]) == 5

    def test_usage_error_exit_5(self, capsys):
        assert run_cli(["frobnicate"]) == 5

    def test_dot_emission(self, tmp_path, capsys):
        # product.dot draws the implicit factor product action; each repair
        # component gets its own file
        cases = [("triple", TRIPLE, []), ("vs", VS_FACTOR, ["component_0.dot"])]
        for name, targets, components in cases:
            inst = write(tmp_path, f"{name}.json", instance_z2z3(targets))
            out = str(tmp_path / f"{name}-cert.json")
            dots = tmp_path / name
            assert run_cli(["separate", inst, "--out", out, "--dot", str(dots)]) == 0
            assert sorted(p.name for p in dots.glob("component_*.dot")) == components
            for path in [dots / "product.dot", *(dots / c for c in components)]:
                assert path.read_text().startswith("digraph")
        assert (tmp_path / "triple" / "product.dot").read_text().count("->") == 6 * (1 + 2)

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
        # the repair pool parts VS_FACTOR with a seeded small action on 18
        # vertices, and below that budget the fallback Lemma 1 boost needs a
        # 30-vertex fiber
        inst = write(tmp_path, "inst.json", instance_z2z3(VS_FACTOR, config={"lemma1_attempts": 200}))
        calls = [
            ["separate", inst, "--seed", "7"],
            ["separate", inst],
            ["separate", inst, "--seed", "x", "--max-vertices", "3"],
            ["--json", "separate", inst, "--max-vertices", "17"],
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
        assert json.loads(reused[3][2]) == {
            "error": "BudgetExceeded", "detail": "30 vertices over budget 17"
        }


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


def _finite_hom(cert, mapping):
    # hom 0 of a Z/2*Z/3 certificate is the identity, which carries no map:
    # write it out as a finite hom onto Z/2 with the given map
    assert cert["factor_homs"][0] == {"kind": "identity"}
    cert["factor_homs"][0] = {"kind": "finite", "map": mapping, "target_table": Z2}


class TestRoundTrip:
    """What ``separate`` writes, ``verify`` accepts: the files a user holds
    are the instance as written and the certificate, whatever kind of hom
    each factor takes."""

    FACTORS = {
        **{f"Z{n}": [[(i + j) % n for j in range(n)] for i in range(n)] for n in range(2, 7)},
        "Klein": [[i ^ j for j in range(4)] for i in range(4)],
        "S3": bench_finite_tables()["S3"],
        "Z": None,
    }

    @staticmethod
    def relabelled(table, label):
        # label fixes the identity 0
        out = [[0] * len(table) for _ in table]
        for i, row in enumerate(table):
            for j, k in enumerate(row):
                out[label[i]][label[j]] = label[k]
        return out

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_verify_accepts_what_separate_writes(self, data):
        names = sorted(self.FACTORS)
        pair = [data.draw(st.sampled_from(names)) for _ in range(2)]
        factors, values = [], []
        for name in pair:
            table = self.FACTORS[name]
            if table is None:
                factors.append({"type": "infinite_cyclic"})
                values.append(st.integers(-3, 3))
            else:
                label = [0, *data.draw(st.permutations(range(1, len(table))))]
                factors.append({"type": "finite", "table": self.relabelled(table, label)})
                values.append(st.integers(0, len(table) - 1))
        syllable = st.integers(0, 1).flatmap(lambda f: st.tuples(st.just(f), values[f]))
        words = st.lists(syllable.map(list), max_size=4)
        targets = data.draw(st.lists(words, min_size=1, max_size=3))
        with tempfile.TemporaryDirectory() as tmp:
            inst = write(Path(tmp), "inst.json", {"factors": factors, "targets": targets})
            out = Path(tmp) / "cert.json"
            argv = ["separate", inst, "--out", str(out), "--max-vertices", "5000"]
            if quiet(argv)[0] != 0:
                return
            code, report = quiet(["verify", inst, str(out)])
            assert code == 0
            assert json.loads(report)["orders"] == json.loads(out.read_text())["orders"]

    def test_identity_off_label_zero_exits_5(self, tmp_path, capsys):
        # Z/3 with its identity at label 1: relabelling the table but not the
        # syllables would read the target a*g as a
        data = instance_z2z3([[[0, 1], [1, 1]], [[0, 1], [1, 0], [0, 1], [1, 2]]])
        data["factors"][1]["table"] = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
        inst = write(tmp_path, "inst.json", data)
        cert = write(tmp_path, "cert.json", {
            "schema": 3, "factor_homs": [{"kind": "identity"}] * 2, "components": [],
            "orders": {"0": 2, "1": 3}, "verified": True,
        })
        for argv in (["separate", inst, "--out", str(tmp_path / "c.json")], ["verify", inst, cert]):
            assert run_cli(["--json", *argv]) == 5
            assert json.loads(capsys.readouterr().err) == {
                "error": "ParseError", "detail": "factor 1: the identity is not element 0"
            }
        assert not (tmp_path / "c.json").exists()


class TestMalformedCertificate:
    """``verify`` answers malformed certificate data with a failing report
    and exit 4, never an exception.  The certificate's one component is the
    repair round's small action."""

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda c: _finite_hom(c, [0, 5]), "factor hom 0: map entry out of range"),
            (lambda c: _finite_hom(c, [0, "x"]), "factor hom 0: map entry out of range"),
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
        inst = write(tmp_path, "inst.json", instance_z2z3(VS_FACTOR))
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
        monkeypatch.setattr(pipeline, "_small_action", lambda *args: iter(()))
        targets = [z2z3_syllables(t) for t in TEN_TARGETS[15].split()]
        inst = write(tmp_path, "inst.json", instance_z2z3(targets))
        assert run_cli(["--json", "separate", inst, "--out", str(tmp_path / "c.json")]) == 3
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "RepairBudgetExceeded"
        assert "repair-same-class" in payload["detail"] and "(0, 6)" in payload["detail"]


class TestPromptExits:
    """Inputs outside the budgets exit at once: a finite factor with no
    feasible quotient ends the factor-hom search (exit 2), also beside an
    infinite factor when each quotient fails with every modulus, a Lemma 1
    fiber over ``max_vertices`` is refused before any draw (exit 3), and a factor
    table over 64 elements that is not a group is rejected on load (exit 2).
    Klein targets x and y certify at once: a quotient kills one of them."""

    KLEIN_Z = [
        {"type": "finite", "table": [[i ^ j for j in range(4)] for i in range(4)]},
        {"type": "infinite_cyclic"},
    ]
    AB = [[0, 1], [1, 1]]
    CASES = {
        "klein-z-auto": (
            "separate", {"factors": KLEIN_Z, "targets": [[[0, 1]], [[0, 2]], [[1, 1]], [[1, 2]]]}, 0,
        ),
        "klein-z-theorem12": (
            "separate",
            {"factors": KLEIN_Z, "targets": [[[0, 1]], [[0, 2]], [[1, 1]]], "mode": "theorem12"},
            0,
        ),
        # the Klein targets x, y and xy cannot get three image orders
        "klein-z-three-involutions": (
            "separate", {"factors": KLEIN_Z, "targets": [[[0, 1]], [[0, 2]], [[0, 3]], [[1, 1]]]}, 2,
        ),
        # the one quotient that lets y die maps z to x, so x b and z b meet
        # under every modulus
        "klein-z-conjugate-images": (
            "separate",
            {"factors": KLEIN_Z, "targets": [[[0, 1]], [[0, 2]], [[0, 1], [1, 1]], [[0, 3], [1, 1]]]},
            2,
        ),
        # the identity target has order 1 under every modulus, so neither
        # Klein target may die
        "z-klein-identity": (
            "separate", {"factors": KLEIN_Z[::-1], "targets": [[], [[1, 1]], [[1, 2]]]}, 2,
        ),
        "z500-loop": (
            "separate",
            {"factors": [{"type": "finite", "table": z500_loop()}, {"type": "finite", "table": Z3}],
             "targets": [[[0, 1]], [[1, 1]], [[0, 1], [1, 1]]]},
            2,
        ),
        # the same-class repair boosts at p=101 on 101^3 fiber points
        "ab-ab101": ("separate", instance_z2z3([AB, AB * 101]), 3),
        "lemma1-p1009": (
            "lemma1",
            {
                "factors": [{"type": "finite", "table": Z2}, {"type": "finite", "table": Z3}],
                "targets": [[[0, 1], [1, 1], [0, 1], [1, 2]]],
                "p": 1009,
                "n": 1,
            },
            3,
        ),
    }

    # the certified cases' orders: x or y dies, and b gets an order apart
    ORDERS = {
        "klein-z-auto": {"0": 1, "1": 2, "2": 6, "3": 3},
        "klein-z-theorem12": {"0": 2, "1": 1, "2": 3},
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exits_within_a_second(self, tmp_path, capsys, name):
        command, data, code = self.CASES[name]
        argv = [command, write(tmp_path, "in.json", data)]
        if command == "separate":
            argv += ["--out", str(tmp_path / "cert.json")]
        start = time.monotonic()
        assert run_cli(argv) == code
        assert time.monotonic() - start < 1.0
        if code == 0:
            orders = json.loads((tmp_path / "cert.json").read_text())["orders"]
            assert orders == self.ORDERS[name]


class TestOneLevelParse:
    """``run_cli`` parses with the named subcommand's parser alone; it reads
    every argument list as the two-level parser does, usage errors and help
    included."""

    ARGVS = [
        ["separate", "i.json"],
        ["--json", "separate", "i.json", "--seed", "3", "--mode", "theorem3"],
        ["--json", "--json", "verify", "a.json", "b.json"],
        ["separate", "i.json", "--json"],
        ["separate"],
        ["separate", "i.json", "--seed", "x"],
        ["lemma2", "a.json", "--out", "o.json"],
        ["graph", "dot", "f.json"],
        ["graph", "bogus", "f.json"],
        ["oracle", "i.json", "--max-degree", "3"],
        [],
        ["--json"],
        ["frobnicate"],
        ["--bogus", "separate", "i.json"],
        ["--js", "separate", "i.json"],
        ["-h"],
        ["--json", "--help"],
        ["separate", "-h"],
    ]

    @staticmethod
    def reading(parse, argv, capsys):
        try:
            result = vars(parse(argv))
        except ParseError as exc:
            result = str(exc)
        except SystemExit as exc:
            result = exc.code
        return result, capsys.readouterr()

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_same_reading_as_two_levels(self, argv, capsys):
        one = self.reading(_parse_args, argv, capsys)
        assert one == self.reading(_build_parser().parse_args, argv, capsys)


class TestInstanceShape:
    """A ``targets`` that is not a list, or a schema that is not the integer
    1, is a malformed instance: ``separate`` and ``verify`` both exit 5."""

    @pytest.mark.parametrize(
        "field, value, detail",
        [
            ("targets", "", "targets must be a list, got ''"),
            ("targets", {}, "targets must be a list, got {}"),
            ("schema", True, "unsupported schema True"),
            ("schema", 1.0, "unsupported schema 1.0"),
        ],
        ids=["targets-string", "targets-dict", "schema-true", "schema-float"],
    )
    def test_exit_five(self, tmp_path, capsys, field, value, detail):
        inst, cert = copy.deepcopy(_verify_pairs()[0])
        inst[field] = value
        path = write(tmp_path, "i.json", inst)
        for argv in (["separate", path], ["verify", path, write(tmp_path, "c.json", cert)]):
            capsys.readouterr()
            assert run_cli(["--json", *argv]) == 5, argv
            assert json.loads(capsys.readouterr().err) == {"error": "ParseError", "detail": detail}


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


class TestArgumentShapes:
    """A value of the wrong shape in a lemma or graph argument file is a
    parse error (exit 5), not a raw exception."""

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("lemma1", "targets", 5),
            ("lemma1", "targets", [5]),
            ("lemma1", "targets", [[[0]]]),
            ("lemma1", "factors", [{"type": "finite"}, {"type": "finite", "table": Z3}]),
            ("lemma1", "factors", [{"type": "finite", "table": 5}, {"type": "finite", "table": Z3}]),
            ("lemma1", "config", 5),
            ("lemma2", "targets", "abab"),
            ("lemma3", "pi", 3),
            ("lemma4", "word", 7),
            ("lemma4", "word", [[0, 1, 1]]),
            ("lemma4", "exponents", 2),
            ("surgery", "marks", [[0]]),
            ("surgery", "marks", 0),
            ("product", "graphs", 5),
            ("product", "graphs", [TestMissingKeys.GRAPH]),
            ("product", "base", [0]),
        ],
        ids=[
            "targets-int", "target-int", "syllable-short", "table-missing", "table-int",
            "config-int", "targets-string", "pi-int", "word-int", "syllable-long",
            "exponents-int", "mark-short", "marks-int", "graphs-int", "graphs-one",
            "base-short",
        ],
    )
    def test_bad_shape_exit_5(self, tmp_path, capsys, command, key, value):
        args = {**TestMissingKeys.ARGS[command], key: value}
        argv = ["graph", command] if command in ("surgery", "product") else [command]
        capsys.readouterr()
        assert run_cli(["--json", *argv, write(tmp_path, "args.json", args)]) == 5
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


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

    def test_identity_off_label_zero_exits_5(self, tmp_path, capsys):
        # the action columns are read by the file's labels, so a table with
        # its identity elsewhere is refused, not relabelled
        data = self._base_graph(tmp_path, capsys)
        data["factors"][1] = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
        path = write(tmp_path, "g.json", data)
        assert run_cli(["--json", "graph", "dot", path]) == 5
        assert json.loads(capsys.readouterr().err) == {
            "error": "ParseError", "detail": "the identity is not element 0"
        }

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


class TestUnreadableInput:
    """An input file that is not UTF-8 or nests too deeply for the JSON
    reader is a parse error (exit 5), not a traceback."""

    @pytest.mark.parametrize(
        "content, detail",
        [
            (b"\xff\xfe{}", "cannot read {path}: 'utf-8' codec can't decode byte 0xff"),
            (b"[" * 200_000, "{path}: maximum recursion depth exceeded"),
        ],
        ids=["not-utf8", "nested"],
    )
    @pytest.mark.parametrize("slot", ["verify-instance", "verify-certificate", "separate"])
    def test_exit_5(self, tmp_path, capsys, content, detail, slot):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        good = write(tmp_path, "good.json", instance_z2z3(TRIPLE))
        argv = {
            "verify-instance": ["verify", str(bad), good],
            "verify-certificate": ["verify", good, str(bad)],
            "separate": ["separate", str(bad), "--out", str(tmp_path / "c.json")],
        }[slot]
        capsys.readouterr()
        assert run_cli(["--json", *argv]) == 5
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ParseError"
        assert payload["detail"].startswith(detail.format(path=bad))


class TestWriteFailures:
    """An output file that cannot be written is a parse error (exit 5) that
    names it, not a traceback after the run."""

    @staticmethod
    def run_json(argv, capsys):
        capsys.readouterr()
        code = run_cli(["--json", *argv])
        return code, json.loads(capsys.readouterr().err)

    def test_separate_out(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", instance_z2z3(TRIPLE))
        out = tmp_path / "missing" / "c.json"
        code, payload = self.run_json(["separate", inst, "--out", str(out)], capsys)
        assert code == 5 and payload["error"] == "ParseError"
        assert payload["detail"].startswith(f"cannot write {out}: ")

    @pytest.mark.parametrize("command", ["lemma1", "lemma2", "lemma3", "lemma4"])
    def test_lemma_out(self, tmp_path, capsys, command):
        args = write(tmp_path, "args.json", TestMissingKeys.ARGS[command])
        out = tmp_path / "missing" / "r.json"
        code, payload = self.run_json([command, args, "--out", str(out)], capsys)
        assert code == 5 and payload["error"] == "ParseError"
        assert payload["detail"].startswith(f"cannot write {out}: ")

    def test_dot_directory(self, tmp_path, capsys):
        # the DOT directory would sit under a regular file
        inst = write(tmp_path, "inst.json", instance_z2z3(TRIPLE))
        dot = tmp_path / "inst.json" / "dots"
        argv = ["separate", inst, "--out", str(tmp_path / "c.json"), "--dot", str(dot)]
        code, payload = self.run_json(argv, capsys)
        assert code == 5 and payload["detail"].startswith(f"cannot write {dot}: ")
        assert not (tmp_path / "c.json").exists()

    def test_dot_file(self, tmp_path, capsys):
        # a directory holds the place of product.dot
        inst = write(tmp_path, "inst.json", instance_z2z3(TRIPLE))
        (tmp_path / "dots" / "product.dot").mkdir(parents=True)
        argv = ["separate", inst, "--out", str(tmp_path / "c.json"), "--dot", str(tmp_path / "dots")]
        code, payload = self.run_json(argv, capsys)
        assert code == 5
        assert payload["detail"].startswith(f"cannot write {tmp_path / 'dots' / 'product.dot'}: ")


KLEIN = [[i ^ j for j in range(4)] for i in range(4)]
Z5 = [[(i + j) % 5 for j in range(5)] for i in range(5)]


@functools.cache
def _verify_pairs() -> tuple:
    """Good instance/certificate pairs, each as ``separate`` writes it: the
    homs between them take every kind, one certificate carries a component
    and one instance has four targets (over theorem3's cap)."""
    z3, klein, s3, z5 = ({"type": "finite", "table": t} for t in (Z3, KLEIN, bench_finite_tables()["S3"], Z5))
    instances = [
        {**instance_z2z3(TRIPLE), "config": {"seed": 0}},
        instance_z2z3([*TRIPLE, [[0, 1], [1, 1], [0, 1], [1, 2]]]),
        {"factors": [{"type": "infinite_cyclic"}, z3], "targets": TRIPLE},
        {"factors": [klein, z3], "targets": [[[0, 1]], [[0, 2]], [[1, 1]]]},
        {"factors": [s3, z5], "targets": [[[0, 1], [1, 1]], [[0, 3], [1, 1]]]},
    ]
    pairs = []
    for inst in instances:
        cert = pipeline.separate(pipeline.parse_instance(inst)).to_json()
        cert["verified"] = True
        pairs.append((inst, cert))
    kinds = {hom["kind"] for _, cert in pairs for hom in cert["factor_homs"]}
    assert kinds == {"identity", "finite", "infinite_cyclic"}
    assert any(cert["components"] for _, cert in pairs)
    return tuple(pairs)


def _finite_factor(inst, draw):
    finite = [f for f, spec in enumerate(inst["factors"]) if spec["type"] == "finite"]
    return draw(st.sampled_from(finite))


def _drop_key(inst, cert, draw):
    data = draw(st.sampled_from([inst, cert]))
    del data[draw(st.sampled_from(sorted(data)))]


def _schema(inst, cert, draw):
    inst["schema"] = draw(st.sampled_from([7, 2, 0, "1", None, [1], 1.0, True]))


def _mode(inst, cert, draw):
    inst["mode"] = draw(st.sampled_from(["fast", "", None, 3, ["auto"], "auto", "theorem12"]))


def _config(inst, cert, draw):
    inst["config"] = draw(st.sampled_from([
        5, [], None, {"seed": 1.5}, {"seed": "1"}, {"bogus": 1}, {"modulus_bound": 10},
        {"max_vertices": 0}, {"lemma1_attempts": True}, {"seed": 3},
    ]))


def _three_factors(inst, cert, draw):
    inst["factors"].append(draw(st.sampled_from([{"type": "infinite_cyclic"}, {"type": "finite", "table": Z2}])))


def _factor_type(inst, cert, draw):
    f = draw(st.integers(0, 1))
    kind = draw(st.sampled_from(["cyclic", None, "Finite", 5, "finite", "infinite_cyclic"]))
    inst["factors"][f] = draw(st.sampled_from([{**inst["factors"][f], "type": kind}, [], "finite"]))


def _table_entry(inst, cert, draw):
    table = inst["factors"][_finite_factor(inst, draw)]["table"]
    n = len(table)
    table[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.integers(-1, n))


def _identity_off_zero(inst, cert, draw):
    table = inst["factors"][_finite_factor(inst, draw)]["table"]
    k = draw(st.integers(1, len(table) - 1))
    swap = list(range(len(table)))
    swap[0], swap[k] = k, 0
    relabelled = [row[:] for row in table]
    for i, row in enumerate(table):
        for j, x in enumerate(row):
            relabelled[swap[i]][swap[j]] = swap[x]
    table[:] = relabelled


def _ragged_row(inst, cert, draw):
    table = inst["factors"][_finite_factor(inst, draw)]["table"]
    row = table[draw(st.integers(0, len(table) - 1))]
    if draw(st.booleans()):
        row.append(0)
    else:
        row.pop()


def _table_shape(inst, cert, draw):
    spec = inst["factors"][_finite_factor(inst, draw)]
    spec["table"] = draw(st.sampled_from([[], [[]], None, 5, "table", [5], [[0]]]))


def _syllable(inst, cert, draw):
    word = draw(st.sampled_from([w for w in inst["targets"] if w]))
    syllable = word[draw(st.integers(0, len(word) - 1))]
    f, v = syllable
    slot, value = draw(st.sampled_from([
        (1, v + 0.0), (1, v + 0.5), (1, True), (1, False), (1, str(v)), (1, None),
        (1, -1), (1, 5), (1, 6), (0, 2), (0, -1), (0, True), (0, 1.0), (0, "0"),
    ]))
    syllable[slot] = value


def _target_shape(inst, cert, draw):
    shape = draw(st.sampled_from(["", {}, 5, [[0]], [[0, 1, 1]], ["01"], [5], None]))
    if draw(st.booleans()):
        inst["targets"][draw(st.integers(0, len(inst["targets"]) - 1))] = shape
    else:
        inst["targets"] = draw(st.sampled_from(["", {}, 5, "ab", None, []]))


def _theorem3(inst, cert, draw):
    inst["mode"] = "theorem3"


def _claimed_order(inst, cert, draw):
    cert["orders"][draw(st.sampled_from(sorted(cert["orders"])))] = draw(st.integers(0, 12))


class TestVerifyParity:
    """``verify`` runs the verifier first and the instance parser only on a
    failing report; on every instance it exits, errs and reports as it would
    with the parser first (``helpers.old_verify_exit``).  Each example
    changes one field of a good pair."""

    MUTATIONS = [
        _drop_key, _schema, _mode, _config, _three_factors, _factor_type, _table_entry,
        _identity_off_zero, _ragged_row, _table_shape, _syllable, _target_shape, _theorem3,
        _claimed_order,
    ]

    @staticmethod
    def run_verify(inst, cert):
        """``ordersep --json verify``'s exit code, error and report."""
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["--json", "verify", write(Path(tmp), "inst.json", inst), write(Path(tmp), "cert.json", cert)]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli(argv)
        return code, *(json.loads(text) if text else None for text in (err.getvalue(), out.getvalue()))

    def test_good_pairs_pass(self):
        for inst, cert in _verify_pairs():
            assert self.run_verify(inst, cert)[0] == 0

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_same_outcome_as_parser_first(self, data):
        inst, cert = copy.deepcopy(data.draw(st.sampled_from(_verify_pairs())))
        data.draw(st.sampled_from(self.MUTATIONS))(inst, cert, data.draw)
        inst, cert = json.loads(json.dumps(inst)), json.loads(json.dumps(cert))
        assert self.run_verify(inst, cert) == old_verify_exit(copy.deepcopy(inst), copy.deepcopy(cert))


class TestVerifyRunsNoConstruction:
    """A passing ``verify`` never calls the instance parser; a malformed
    instance is named by it, once."""

    def test_passing_pair(self, tmp_path, capsys, monkeypatch):
        def refuse(data):
            raise AssertionError("parse_instance ran")

        monkeypatch.setattr(cli, "parse_instance", refuse)
        for n, (inst, cert) in enumerate(_verify_pairs()):
            argv = ["verify", write(tmp_path, f"i{n}.json", inst), write(tmp_path, f"c{n}.json", cert)]
            assert run_cli(argv) == 0

    @pytest.mark.parametrize(
        "tamper, code, error, detail",
        [
            (lambda i: i["targets"][1][0].__setitem__(1, 3), 2, "BadSyllable", "element 3 out of range for factor 1"),
            (lambda i: i["factors"][1]["table"][1].__setitem__(2, 1), 2, "NotAGroup", "row 1 not a permutation"),
            (lambda i: i["factors"].append(i["factors"][0]), 5, "ParseError", "exactly two factors required"),
            (lambda i: i.update(schema=7), 5, "ParseError", "unsupported schema 7"),
            (lambda i: i["targets"].append(""), 5, "ParseError", "word must be a list, got ''"),
        ],
        ids=["syllable-range", "not-a-group", "three-factors", "schema", "word-string"],
    )
    def test_malformed_instance(self, tmp_path, capsys, monkeypatch, tamper, code, error, detail):
        calls = []

        def spy(data):
            calls.append(data)
            return pipeline.parse_instance(data)

        monkeypatch.setattr(cli, "parse_instance", spy)
        inst, cert = copy.deepcopy(_verify_pairs()[0])
        tamper(inst)
        capsys.readouterr()
        assert run_cli(["--json", "verify", write(tmp_path, "i.json", inst), write(tmp_path, "c.json", cert)]) == code
        assert json.loads(capsys.readouterr().err) == {"error": error, "detail": detail}
        assert len(calls) == 1

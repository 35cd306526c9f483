"""Tests of the benchmark itself: corpora, verdicts, deadlines, tracing.

Run with ``python -m pytest bench/tests -q`` from the repository root.
"""

import importlib.util
import json
import random
import signal
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import answer_key
import corpora
import layers
import run
import worker
from tracing import Span, SpanIndex, Tracer

REPO = Path(__file__).resolve().parents[2]


def _load_acceptance_module():
    spec = importlib.util.spec_from_file_location(
        "acceptance_for_bench", REPO / "tests" / "test_acceptance.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(corpora.WORKLOADS)


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert corpora.build(workload, 5) == corpora.build(workload, 5)
    assert corpora.build(workload, 5) != corpora.build(workload, 6)


def test_rng_reference_seed_reproduces_the_oracle_cross_check_draws():
    acceptance = _load_acceptance_module()
    rng = random.Random(88)
    expected = []
    for _case in range(50):  # the draw loop of acceptance criterion 08
        n_targets = rng.randrange(1, 4)
        words = [acceptance._random_word(acceptance.F23, rng, 6) for _ in range(n_targets)]
        expected.append([[list(s) for s in w.syllables] for w in words])
    corpus = corpora.build("rng-z2z3", 88)
    assert [inst["targets"] for inst in corpus] == expected


def test_rng_seeds_share_the_reference_strata():
    reference = Counter(corpora.rng_stratum(i["targets"]) for i in corpora.build("rng-z2z3", 88))
    for seed in (1, 2, 3):
        corpus = corpora.build("rng-z2z3", seed)
        assert Counter(corpora.rng_stratum(i["targets"]) for i in corpus) == reference


def test_hyperbolic_targets_are_cyclically_reduced_and_pairwise_non_conjugate():
    for seed in range(5):
        for inst in corpora.build("hyperbolic-z2z3", seed):
            targets = inst["targets"]
            assert 2 <= len(targets) <= 3
            for t in targets:
                assert 2 <= len(t) <= 12 and corpora.cyclic_core(t, corpora.Z2Z3) == t
            assert not corpora.has_conjugate_pair(targets, corpora.Z2Z3)


def test_wide_instances_have_one_element_per_factor_and_a_third_target():
    for inst in corpora.build("wide-factors", 3):
        first, second, third = inst["targets"]
        assert [first[0][0], second[0][0]] == [0, 1] and len(first) == len(second) == 1
        assert len(third) in (0, 1, 2)
        assert not corpora.has_conjugate_pair(inst["targets"], inst["factors"])


def test_conjugacy_up_to_inversion():
    z = corpora.Z2Z3
    ab, ab2 = [[0, 1], [1, 1]], [[0, 1], [1, 2]]
    assert corpora.conjugate_up_to_inverse(ab, ab2, z)  # (ab)^-1 = b^2 a ~ a b^2
    assert corpora.conjugate_up_to_inverse([[1, 1], [0, 1]], ab, z)
    assert not corpora.conjugate_up_to_inverse(ab, ab + ab2, z)
    zz = [corpora.factor_json("Z"), corpora.factor_json("Z")]
    assert corpora.conjugate_up_to_inverse([[0, 3]], [[0, -3]], zz)
    assert not corpora.conjugate_up_to_inverse([[0, 3]], [[0, 2]], zz)


# ---------------------------------------------------------------------------
# verdicts and deadlines
# ---------------------------------------------------------------------------

def test_key_short_cut_for_conjugate_pairs_agrees_with_the_oracle():
    from ordersep.verify import brute_force_search

    inst = corpora.instance_json(("Z2", "Z3"), [[[1, 1]], [[0, 1], [1, 2], [0, 1]]])  # b, a b^2 a
    assert answer_key.key_entry(inst, brute_force_search) == {
        "source": "conjugacy check", "conjugate_pair": True,
    }
    assert not brute_force_search(inst, max_degree=answer_key.ORACLE_DEGREE).found
    separable = corpora.instance_json(("Z2", "Z3"), [[[0, 1]], [[1, 1]]])
    assert answer_key.key_entry(separable, brute_force_search)["witness"] is True


def test_automorphisms_of_the_factors():
    counts = {name: len(corpora.automorphisms(corpora.factor_json(name))) for name in
              ("Z", "Z3", "Z4", "Z5", "Z6", "Klein", "S3", "D4")}
    assert counts == {"Z": 2, "Z3": 2, "Z4": 2, "Z5": 4, "Z6": 2, "Klein": 6, "S3": 6, "D4": 8}


WITNESS = {"source": "oracle", "witness": True, "degree": 3}
NO_WITNESS = {"source": "oracle", "witness": False, "degree": 8}


def test_verdict_rules():
    assert answer_key.judge({"code": 0, "verify_code": 0}, WITNESS) is True
    assert answer_key.judge({"code": 2}, NO_WITNESS) is True
    assert answer_key.judge({"code": 3}, WITNESS) is False
    assert answer_key.judge({"code": answer_key.TIMEOUT}, WITNESS) is False
    conjugate = {"source": "conjugacy check", "conjugate_pair": True}
    assert answer_key.judge({"code": 2}, conjugate) is True
    for row, entry in [
        ({"code": 2}, WITNESS),
        ({"code": 2}, {"source": "conjugacy check", "conjugate_pair": False}),
        ({"code": 0, "verify_code": 4}, WITNESS),
        ({"code": 4}, WITNESS),
        ({"code": 5}, NO_WITNESS),
    ]:
        with pytest.raises(answer_key.WrongVerdict):
            answer_key.judge(row, entry)


def test_timed_out_instance_counts_as_failed(tmp_path):
    def slow_cli(_argv):
        while True:
            time.sleep(0.01)

    (tmp_path / "i.json").write_text("{}")
    key = {"entries": [WITNESS]}
    speed = worker.Speed()
    corpus = worker.Corpus(tmp_path, ["i.json"], key, deadline=0.05, speed=speed)
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        rows = worker.measure(slow_cli, corpus, seconds=0.0, verify_seconds=1.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    (row,) = rows
    assert row["codes"] == [answer_key.TIMEOUT] and row["wrong"] == []
    (raw,) = row["separate_raw"]
    assert raw >= 0.05 * speed.factor and row["separate_s"] == pytest.approx(raw / speed.factor)
    assert row["bytes"] == 0 and row["verify_samples"] == []
    metrics = run.end_to_end(rows, 1.0, [0.1], speed.factor)
    assert metrics["decided_share"] == 0.0
    assert metrics["separate_s"] == row["separate_s"]


def test_worker_stops_after_a_deadline_and_a_fresh_one_goes_on(tmp_path):
    def cli(argv):
        if argv[0] == "separate":
            while "slow" in argv[1]:
                time.sleep(0.01)
            Path(argv[3]).write_text("{}")
        return 0

    names = ["slow.json", "fast.json"]
    key = {"entries": [WITNESS, WITNESS]}
    state = tmp_path / "state.json"
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        first = worker.Corpus(tmp_path, names, key, 0.05, worker.Speed())
        assert worker.measure(cli, first, 0.0, 0.0, state) is None
        assert first.progress["next"] == 1 and len(first.progress["peaks"]) == 1
        second = worker.Corpus(tmp_path, names, key, 0.05, worker.Speed())
        rows = worker.measure(cli, second, 0.0, 0.0, state)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert [row["codes"] for row in rows] == [[answer_key.TIMEOUT], [0]]
    assert [row["verify_codes"] for row in rows] == [[], [0]]
    assert [row["decided"] for row in rows] == [[False], [True]]


def test_decided_share_counts_instances_not_passes():
    base = {"separate_s": 1.0, "verify_s": 0.0, "bytes": 0}
    rows = [
        {**base, "decided": [True, True, True]},  # re-run in three passes
        {**base, "decided": [False]},  # timed out, not re-run
        {**base, "decided": [True, False]},  # missed in its second pass
    ]
    assert run.end_to_end(rows, 1.0, [0.1], 1.0)["decided_share"] == pytest.approx(1 / 3)


def test_hash_check_flags_a_changed_certificate(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CACHE", tmp_path)
    rows = [{"sha256s": ["aa", "aa"]}, {"sha256s": [None, None]}]
    assert run.check_hashes("corpus-w", rows) == []
    assert run.check_hashes("corpus-w", rows) == []
    changed = run.check_hashes("corpus-w", [{"sha256s": ["bb"]}, {"sha256s": [None]}])
    assert changed == ["instance 0: certificate hash changed between runs"]
    within_run = run.check_hashes("corpus-v", [{"sha256s": ["aa", "cc"]}])
    assert within_run == ["instance 0: certificate hash changed between runs"]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_span_self_time_arithmetic():
    spans = [
        Span("outer", 0.0, 10.0, None, "0"),
        Span("child", 1.0, 4.0, 0, "0"),
        Span("grandchild", 2.0, 3.0, 1, "0"),
        Span("child", 5.0, 6.0, 0, "0"),
        Span("outer", 6.5, 7.5, 0, "0"),  # recursive call inside "outer"
    ]
    ix = SpanIndex(spans)
    assert ix.self_time("outer") == pytest.approx((10 - 3 - 1 - 1) + 1)
    assert ix.self_time("child") == pytest.approx((3 - 1) + 1)
    assert ix.total_time("outer") == pytest.approx(10.0)  # the nested call is not counted twice
    assert ix.total_time("child") == pytest.approx(4.0)
    assert ix.calls("grandchild", within="outer") == 1
    assert ix.calls("child", within="outer", outside="grandchild") == 2
    assert ix.calls("outer", within="outer") == 1


def _namespaces(original):
    return [
        (name, key)
        for name, module in sys.modules.items()
        if name.startswith("ordersep")
        for key, value in vars(module).items()
        if value is original
    ]


def test_wrappers_are_installed_everywhere_and_restored(tmp_path):
    from ordersep import lemmas, pipeline
    from ordersep.cli import run_cli

    originals = {}
    for point in layers.points():
        owner = sys.modules[point.module]
        cls, _, attr = point.attr.rpartition(".")
        owner = getattr(owner, cls) if cls else owner
        originals[point.name] = (owner, attr, getattr(owner, attr))
    homes = {name: _namespaces(fn) for name, (_o, _a, fn) in originals.items()}
    assert ("ordersep.pipeline", "lemma1_boost") in homes["lemmas.lemma1"]

    tracer = Tracer()
    tracer.install(layers.points())
    try:
        assert pipeline.lemma1_boost is not originals["lemmas.lemma1"][2]
        assert lemmas.lemma1_boost is pipeline.lemma1_boost
        inst = tmp_path / "inst.json"
        inst.write_text(
            '{"factors": [{"type": "finite", "table": [[0, 1], [1, 0]]},'
            ' {"type": "finite", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}],'
            ' "targets": [[[0, 1], [1, 1], [0, 1], [1, 2]]]}'
        )
        with tracer.span("cli.separate"):
            assert worker.quiet_cli(run_cli, ["separate", str(inst), "--out", str(tmp_path / "c.json")]) == 0
    finally:
        tracer.restore()

    for name, (owner, attr, fn) in originals.items():
        assert getattr(owner, attr) is fn, name
        assert _namespaces(fn) == homes[name], name
    ix = SpanIndex(tracer.spans)
    assert ix.calls("pipeline.separate", within="cli.separate") == 1
    assert ix.calls("lemmas.lemma1", within="pipeline.separate") >= 1
    assert ix.calls("verify.verify_certificate", within="cli.separate") == 1
    untraced = [{"separate_s": 1.0, "codes": [0]}, {"separate_s": 5.0, "codes": [answer_key.TIMEOUT]}]
    traced = [{"separate_s": 1.5, "codes": [0]}, {"separate_s": 5.1, "codes": [answer_key.TIMEOUT]}]
    metrics = layers.per_layer_metrics(tracer.spans, untraced, traced)
    assert [name for name, _unit in layers.PER_LAYER] == list(metrics)
    assert metrics["trace.overhead_share"] == pytest.approx(0.5)
    assert metrics["pipeline.components"] >= 2

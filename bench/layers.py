"""The traced functions of each layer and the per-layer metrics drawn from
their spans.

Layers are the engine's modules.  ``cli.separate`` and ``cli.verify`` are
spans the worker opens around its ``run_cli`` calls; every other span comes
from a wrapper around one module function (see :mod:`tracing`).  A metric
ending in ``_self_s`` is self time; any other ``_s`` metric is the total
time inside calls of that function.
"""

from __future__ import annotations

import json
from pathlib import Path

from answer_key import TIMEOUT
from tracing import Point, Span, SpanIndex


def _graph_vertices(graph: dict) -> int:
    return int(graph["vcount"])


def _checked_vertices(_report, args) -> int:
    cert = args[1]
    total = sum(_graph_vertices(c["graph"]) for c in cert.get("components", []))
    if cert.get("product") is not None:
        total += _graph_vertices(cert["product"])
    return total


def _assembled(cert, _args) -> tuple[int, int, int]:
    product = cert.product.vcount if cert.product is not None else 0
    return len(cert.components), sum(c.graph.vcount for c in cert.components), product


def _repair_rounds(cert, _args) -> int:
    return sum(1 for entry in cert.transcript if str(entry.get("stage", "")).startswith("repair-"))


def points() -> list[Point]:
    P = Point
    return [
        P("ordersep.pipeline", "parse_instance", "pipeline.parse_instance"),
        P("ordersep.pipeline", "instance_to_json", "pipeline.instance_to_json"),
        P("ordersep.pipeline", "separate", "pipeline.separate", _repair_rounds),
        P("ordersep.pipeline", "check_hypotheses", "pipeline.check_hypotheses"),
        P("ordersep.pipeline", "reduce_factors", "pipeline.reduce_factors"),
        P("ordersep.pipeline", "_search_hom_pair", "pipeline.hom_search"),
        P("ordersep.pipeline", "hyperbolic_classes", "pipeline.hyperbolic_classes"),
        P("ordersep.pipeline", "assemble_certificate", "pipeline.assemble_certificate", _assembled),
        P("ordersep.pipeline", "Certificate.to_json", "pipeline.to_json"),
        P("ordersep.lemmas", "lemma1_boost", "lemmas.lemma1"),
        P("ordersep.lemmas", "lemma2_declose", "lemmas.lemma2"),
        P("ordersep.lemmas", "lemma3_separate", "lemmas.lemma3"),
        P("ordersep.lemmas", "lemma4_power_separate", "lemmas.lemma4"),
        P("ordersep.covergraph", "gamma_surgery", "covergraph.gamma_surgery", lambda g, _a: g.vcount),
        P("ordersep.covergraph", "induced_graph", "covergraph.induced_graph"),
        P("ordersep.covergraph", "synchronized_product", "covergraph.synchronized_product"),
        P("ordersep.covergraph", "validate_cover", "covergraph.validate_cover"),
        P("ordersep.covergraph", "word_order", "covergraph.word_order"),
        P("ordersep.covergraph", "perm_array_order", "covergraph.perm_array_order"),
        P("ordersep.covergraph", "close_edge_scan", "covergraph.close_edge_scan"),
        P("ordersep.covergraph", "graph_to_json", "covergraph.graph_to_json", lambda d, _a: _graph_vertices(d)),
        P("ordersep.groupcore", "random_wreath_element", "groupcore.random_wreath_element"),
        P("ordersep.groupcore", "normal_subgroups", "groupcore.normal_subgroups"),
        P("ordersep.groupcore", "quotient", "groupcore.quotient"),
        P("ordersep.words", "is_conjugate", "words.is_conjugate"),
        P("ordersep.words", "rewrite", "words.rewrite"),
        P("ordersep.verify", "verify_certificate", "verify.verify_certificate", _checked_vertices),
    ]


# (metric, unit) in report order; BENCHMARK.json lists the same names
PER_LAYER = [
    ("cli.separate_self_s", "s"),
    ("cli.verify_self_s", "s"),
    ("pipeline.check_hypotheses_s", "s"),
    ("pipeline.reduce_factors_s", "s"),
    ("pipeline.hom_search_self_s", "s"),
    ("pipeline.hyperbolic_classes_s", "s"),
    ("pipeline.assemble_certificate_s", "s"),
    ("pipeline.to_json_s", "s"),
    ("pipeline.separate_self_s", "s"),
    ("pipeline.components", "count"),
    ("pipeline.component_vertices", "vertices"),
    ("pipeline.product_vertices", "vertices"),
    ("pipeline.repair_rounds", "count"),
    *[(f"lemmas.lemma{k}_{m}", u) for k in (1, 2, 3, 4) for m, u in (("s", "s"), ("calls", "count"))],
    ("lemmas.lemma1_draws_per_call", "draws/call"),
    ("lemmas.lemma2_surgeries", "count"),
    ("lemmas.lemma2_max_vertices", "vertices"),
    ("lemmas.equalize_surgeries", "count"),
    ("covergraph.gamma_surgery_s", "s"),
    ("covergraph.gamma_surgery_calls", "count"),
    ("covergraph.gamma_surgery_out_vertices", "vertices"),
    *[
        (f"covergraph.{f}_{m}", u)
        for f in ("induced_graph", "synchronized_product", "validate_cover", "word_order")
        for m, u in (("s", "s"), ("calls", "count"))
    ],
    ("covergraph.perm_array_order_calls", "count"),
    ("covergraph.close_edge_scan_s", "s"),
    ("covergraph.graph_to_json_s", "s"),
    ("covergraph.graph_to_json_vertices", "vertices"),
    ("groupcore.random_wreath_element_s", "s"),
    ("groupcore.random_wreath_element_calls", "count"),
    ("groupcore.normal_subgroups_s", "s"),
    ("groupcore.quotient_calls", "count"),
    ("words.is_conjugate_s", "s"),
    ("words.is_conjugate_calls", "count"),
    ("words.rewrite_s", "s"),
    ("verify.verify_certificate_s", "s"),
    ("verify.verify_certificate_calls", "count"),
    ("verify.vertices_checked", "vertices"),
    ("trace.overhead_share", "ratio"),
]


def per_layer_metrics(
    spans: list[Span], untraced_rows: list[dict], traced_rows: list[dict], speed_factor: float = 1.0
) -> dict:
    """Every PER_LAYER metric; times are divided by ``speed_factor`` to put
    them at reference speed, like the end-to-end times."""
    ix = SpanIndex(spans)
    m: dict[str, float] = {
        "cli.separate_self_s": ix.self_time("cli.separate"),
        "cli.verify_self_s": ix.self_time("cli.verify"),
        "pipeline.separate_self_s": ix.self_time("pipeline.separate"),
        "pipeline.hom_search_self_s": ix.self_time("pipeline.hom_search"),
    }
    for f in ("check_hypotheses", "reduce_factors", "hyperbolic_classes", "assemble_certificate", "to_json"):
        m[f"pipeline.{f}_s"] = ix.total_time(f"pipeline.{f}")
    assembled = ix.infos("pipeline.assemble_certificate")
    m["pipeline.components"] = sum(a[0] for a in assembled)
    m["pipeline.component_vertices"] = sum(a[1] for a in assembled)
    m["pipeline.product_vertices"] = sum(a[2] for a in assembled)
    m["pipeline.repair_rounds"] = sum(r for r in ix.infos("pipeline.separate") if r is not None)

    for k in (1, 2, 3, 4):
        m[f"lemmas.lemma{k}_s"] = ix.total_time(f"lemmas.lemma{k}")
        m[f"lemmas.lemma{k}_calls"] = ix.calls(f"lemmas.lemma{k}")
    draws = ix.calls("groupcore.random_wreath_element", within="lemmas.lemma1")
    m["lemmas.lemma1_draws_per_call"] = draws / m["lemmas.lemma1_calls"] if m["lemmas.lemma1_calls"] else 0.0
    lemma2_sizes = [v for v in ix.infos("covergraph.gamma_surgery", within="lemmas.lemma2") if v is not None]
    m["lemmas.lemma2_surgeries"] = ix.calls("covergraph.gamma_surgery", within="lemmas.lemma2")
    m["lemmas.lemma2_max_vertices"] = max(lemma2_sizes, default=0)
    m["lemmas.equalize_surgeries"] = ix.calls(
        "covergraph.gamma_surgery", within="lemmas.lemma3", outside="lemmas.lemma2"
    )

    m["covergraph.gamma_surgery_s"] = ix.total_time("covergraph.gamma_surgery")
    m["covergraph.gamma_surgery_calls"] = ix.calls("covergraph.gamma_surgery")
    m["covergraph.gamma_surgery_out_vertices"] = sum(
        v for v in ix.infos("covergraph.gamma_surgery") if v is not None
    )
    for f in ("induced_graph", "synchronized_product", "validate_cover", "word_order"):
        m[f"covergraph.{f}_s"] = ix.total_time(f"covergraph.{f}")
        m[f"covergraph.{f}_calls"] = ix.calls(f"covergraph.{f}")
    m["covergraph.perm_array_order_calls"] = ix.calls("covergraph.perm_array_order")
    m["covergraph.close_edge_scan_s"] = ix.total_time("covergraph.close_edge_scan")
    m["covergraph.graph_to_json_s"] = ix.total_time("covergraph.graph_to_json")
    m["covergraph.graph_to_json_vertices"] = sum(
        v for v in ix.infos("covergraph.graph_to_json") if v is not None
    )

    m["groupcore.random_wreath_element_s"] = ix.total_time("groupcore.random_wreath_element")
    m["groupcore.random_wreath_element_calls"] = ix.calls("groupcore.random_wreath_element")
    m["groupcore.normal_subgroups_s"] = ix.total_time("groupcore.normal_subgroups")
    m["groupcore.quotient_calls"] = ix.calls("groupcore.quotient")
    m["words.is_conjugate_s"] = ix.total_time("words.is_conjugate")
    m["words.is_conjugate_calls"] = ix.calls("words.is_conjugate")
    m["words.rewrite_s"] = ix.total_time("words.rewrite")
    m["verify.verify_certificate_s"] = ix.total_time("verify.verify_certificate")
    m["verify.verify_certificate_calls"] = ix.calls("verify.verify_certificate")
    m["verify.vertices_checked"] = sum(v for v in ix.infos("verify.verify_certificate") if v is not None)

    # an instance past its deadline takes the deadline either way
    kept = [(u, t) for u, t in zip(untraced_rows, traced_rows) if TIMEOUT not in u["codes"] + t["codes"]]
    untraced = sum(u["separate_s"] for u, _t in kept)
    m["trace.overhead_share"] = sum(t["separate_s"] for _u, t in kept) / untraced - 1.0 if untraced else 0.0
    return {name: m[name] / speed_factor if unit == "s" else m[name] for name, unit in PER_LAYER}


def write_spans(spans: list[Span], path: Path) -> None:
    """One JSON object per line: name, start, end, parent, instance."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for idx, s in enumerate(spans):
            out.write(json.dumps(
                {"id": idx, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "instance": s.instance}
            ) + "\n")

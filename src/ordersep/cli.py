"""Batch command-line front end.

Subcommands: ``separate`` (full pipeline, writes a verified certificate),
``lemma1``..``lemma4`` (the four engines on explicit inputs), ``verify``,
``oracle``, and ``graph surgery|product|dot``.  All inputs and outputs are
JSON; identical inputs and seeds produce byte-identical outputs.

Exit codes: 0 success, 2 hypothesis violation, 3 budget exceeded,
4 verification failure or internal defect, 5 parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import RunConfig, json_int
from .covergraph import (
    SurgeryMark,
    gamma_surgery,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    synchronized_product,
    word_order,
)
from .errors import OrderSepError, ParseError, PostconditionFailed
from .lemmas import (
    SeparationResult,
    lemma1_boost,
    lemma2_declose,
    lemma3_separate,
    lemma4_power_separate,
)
from .pipeline import (
    Instance,
    instance_to_json,
    parse_factors,
    parse_instance,
    parse_word,
    separate,
)
from .verify import brute_force_search, verify_certificate

DOT_VERTEX_CAP = 5_000  # larger graphs get a one-line DOT comment instead


def _dump(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _required(data: dict, key: str):
    """``data[key]`` of an argument file, or a parse error naming the key."""
    if not isinstance(data, dict) or key not in data:
        raise ParseError(f"argument file lacks the key {key!r}")
    return data[key]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); map to parse errors
        raise ParseError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: building it dominates a
    short ``verify`` call, and parsing leaves no state in it."""
    parser = _Parser(prog="ordersep", description=__doc__)
    parser.add_argument("--json", action="store_true", help="machine-readable errors on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("separate", help="construct and verify a certificate")
    run.add_argument("instance")
    run.add_argument("--out", default="certificate.json")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--mode", choices=["auto", "theorem12", "theorem3"], default=None)
    run.add_argument("--max-vertices", type=int, default=None)
    run.add_argument("--dot", metavar="DIR", default=None, help="emit component DOT files")

    for name in ("lemma1", "lemma2", "lemma3", "lemma4"):
        lp = sub.add_parser(name, help=f"run the {name} engine on explicit arguments")
        lp.add_argument("args")
        lp.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="verify a certificate against its instance")
    ver.add_argument("instance")
    ver.add_argument("certificate")

    orc = sub.add_parser("oracle", help="brute-force witness search")
    orc.add_argument("instance")
    orc.add_argument("--max-degree", type=int, default=8)

    gr = sub.add_parser("graph", help="graph utilities")
    gr.add_argument("action", choices=["surgery", "product", "dot"])
    gr.add_argument("file")
    return parser


def _apply_overrides(inst: Instance, args) -> Instance:
    config = inst.config
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.max_vertices is not None:
        updates["max_vertices"] = args.max_vertices
    if updates:
        config = replace(config, **updates)
    mode = args.mode if args.mode is not None else inst.mode
    return Instance(inst.factors, inst.targets, mode, config)


def _dot_text(graph) -> str:
    if graph.vcount > DOT_VERTEX_CAP:
        return f"// graph with {graph.vcount} vertices exceeds the DOT cap of {DOT_VERTEX_CAP}\n"
    return graph_to_dot(graph)


def _emit_dots(components, directory: str) -> None:
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    for n, comp in enumerate(components):
        (out_dir / f"component_{n}.dot").write_text(_dot_text(comp.graph))


def _separation_json(res: SeparationResult) -> dict:
    return {
        "schema": 1,
        "components": [c.to_json() for c in res.components],
        "orders": {str(i): o for i, o in sorted(res.orders.items())},
        "transcript": res.transcript,
    }


def _cmd_separate(args) -> int:
    inst = _apply_overrides(parse_instance(_load_json(args.instance)), args)
    cert = separate(inst)
    data = cert.to_json()
    data["verified"] = True
    report = verify_certificate(instance_to_json(inst), data)
    if not report.verdict:
        raise PostconditionFailed({"failures": report.failures})
    if args.dot:
        _emit_dots(cert.components, args.dot)
    Path(args.out).write_text(_dump(data))
    orders = " ".join(f"{k}:{v}" for k, v in sorted(cert.orders.items()))
    print(f"verified certificate written to {args.out} (orders {orders})")
    return 0


def _parse_lemma_common(data: dict):
    factors = parse_factors(_required(data, "factors"))
    config = RunConfig.from_json(data.get("config", {}))
    seed = json_int(data.get("seed", config.seed), "seed")
    return factors, config, seed


def _cmd_lemma(args, name: str) -> int:
    data = _load_json(args.args)
    factors, config, seed = _parse_lemma_common(data)
    if name == "lemma1":
        targets = [parse_word(w, factors) for w in _required(data, "targets")]
        p, n = (json_int(_required(data, key), key) for key in ("p", "n"))
        comp = lemma1_boost(targets, p, n, factors, seed=seed, config=config)
        res = SeparationResult(
            [comp], {i: word_order(comp.graph, w) for i, w in enumerate(targets)}
        )
    elif name == "lemma2":
        targets = [parse_word(w, factors) for w in _required(data, "targets")]
        res = lemma2_declose(
            targets, json_int(_required(data, "p"), "p"), factors, seed=seed, config=config
        )
    elif name == "lemma3":
        targets = [parse_word(w, factors) for w in _required(data, "targets")]
        pi = {json_int(p, "pi entry") for p in data.get("pi", [])}
        res = lemma3_separate(targets, pi, factors, seed=seed, config=config)
    else:
        word = parse_word(_required(data, "word"), factors)
        exponents = [json_int(k, "exponent") for k in _required(data, "exponents")]
        res = lemma4_power_separate(word, exponents, factors, seed=seed, config=config)
    text = _dump(_separation_json(res))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    instance_data = _load_json(args.instance)
    cert_data = _load_json(args.certificate)
    parse_instance(instance_data)  # reject malformed instances with exit 5
    report = verify_certificate(instance_data, cert_data)
    sys.stdout.write(_dump(report.to_json()))
    return 0 if report.verdict else 4


def _cmd_oracle(args) -> int:
    instance_data = _load_json(args.instance)
    parse_instance(instance_data)  # reject malformed instances with exit 5
    result = brute_force_search(instance_data, max_degree=args.max_degree)
    sys.stdout.write(_dump(result.to_json()))
    return 0


def _cmd_graph(args) -> int:
    data = _load_json(args.file)
    if args.action == "dot":
        sys.stdout.write(_dot_text(graph_from_json(data)))
        return 0
    if args.action == "surgery":
        graph = graph_from_json(_required(data, "graph"))
        marks = [
            SurgeryMark(json_int(v, "mark vertex"), json_int(f, "mark factor"))
            for v, f in _required(data, "marks")
        ]
        out = gamma_surgery(graph, json_int(_required(data, "t"), "t"), marks)
        sys.stdout.write(_dump(graph_to_json(out)))
        return 0
    graphs = [graph_from_json(g) for g in _required(data, "graphs")]
    if len(graphs) != 2:
        raise ParseError("product expects exactly two graphs")
    base = [json_int(v, "base vertex") for v in data.get("base", (0, 0))]
    out = synchronized_product(graphs[0], graphs[1], base=(base[0], base[1]))
    sys.stdout.write(_dump(graph_to_json(out)))
    return 0


def run_cli(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "separate":
            return _cmd_separate(args)
        if args.command in ("lemma1", "lemma2", "lemma3", "lemma4"):
            return _cmd_lemma(args, args.command)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "graph":
            return _cmd_graph(args)
        raise ParseError(f"unknown command {args.command!r}")
    except OrderSepError as exc:
        if "--json" in argv:
            sys.stderr.write(_dump({"error": exc.code, "detail": str(exc)}))
        else:
            sys.stderr.write(f"error[{exc.code}]: {exc}\n")
        return exc.exit_code


def main() -> None:
    sys.exit(run_cli())

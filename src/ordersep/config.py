"""Run budgets and determinism knobs shared across the engine."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from .errors import ParseError


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    max_vertices: int = 10 ** 6
    max_iterations: int = 64
    oracle_degree: int = 8
    modulus_bound: int = 10 ** 6
    lemma1_attempts: int = 10_000
    lemma1_grow_every: int = 1_000
    lemma2_retries: int = 4
    lemma2_triple_rounds: int = 12
    lemma2_scan_rounds: int = 64
    lemma3_retries: int = 3
    dot_vertex_cap: int = 5_000

    def __post_init__(self):
        for name in (
            "max_vertices",
            "max_iterations",
            "oracle_degree",
            "modulus_bound",
            "lemma1_attempts",
            "lemma1_grow_every",
            "lemma2_retries",
            "lemma2_triple_rounds",
            "lemma2_scan_rounds",
            "lemma3_retries",
            "dot_vertex_cap",
        ):
            if getattr(self, name) <= 0:
                raise ParseError(f"budget {name} must be positive")

    @classmethod
    def from_json(cls, data: dict) -> RunConfig:
        known = {f for f in cls.__dataclass_fields__}
        bad = set(data) - known
        if bad:
            raise ParseError(f"unknown config keys {sorted(bad)}")
        for key, value in data.items():
            json_int(value, f"config {key}")
        try:
            return replace(cls(), **data)
        except (TypeError, ParseError) as exc:
            raise ParseError(f"bad config: {exc}") from exc


def json_int(value: object, what: str) -> int:
    """``value`` if it is an integer; a real, a boolean or a string from
    outside the program is rejected, not truncated or converted."""
    if type(value) is not int:  # bool is a subclass of int
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def sub_seed(seed: int, *tags: object) -> int:
    """Deterministic sub-seed; avoids str hash randomization."""
    payload = repr((seed, tags)).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")

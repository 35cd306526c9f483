"""Run settings that a caller sets.

``RunConfig`` holds only the values some caller chooses per run: ``seed``
(``--seed`` or the instance config), ``max_vertices`` (``--max-vertices``)
and ``lemma1_attempts`` (an instance config, to make a Lemma 1 search give
up early).  Every other budget has one value in use, so it is a named
constant next to its one user, and an instance or lemma config that names
it is rejected.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from .errors import ParseError


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    max_vertices: int = 10 ** 6
    lemma1_attempts: int = 10_000

    def __post_init__(self):
        for name in ("max_vertices", "lemma1_attempts"):
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

"""Answer key for a corpus, and the verdict rule that checks runs against it.

The key never asks the engine under test.  It first applies the
benchmark's own check for two targets conjugate up to inversion (for
example ``x^k`` and ``x^-k``, or ``b`` and ``a b^2 a``): they have equal
orders under every action, so no witness exists and the oracle would only
exhaust its search.  Otherwise, over finite factors, the key is the in-repo
brute-force oracle (``ordersep.verify.brute_force_search``).  The oracle
cannot search infinite factors; there the instance counts as separable.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import corpora

ORACLE_DEGREE = 8  # the oracle cross-check's search depth
TIMEOUT = "timeout"


class WrongVerdict(Exception):
    """The engine gave an answer the key refutes."""


def corpus_digest(instances: list[dict]) -> str:
    text = json.dumps(instances, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def key_entry(instance: dict, oracle) -> dict:
    factors, targets = instance["factors"], instance["targets"]
    conjugate_pair = corpora.has_conjugate_pair(targets, factors)
    if not conjugate_pair and all(f["type"] == "finite" for f in factors):
        found = oracle(instance, max_degree=ORACLE_DEGREE)
        return {"source": "oracle", "witness": found.found, "degree": found.degree}
    return {"source": "conjugacy check", "conjugate_pair": conjugate_pair}


def build_key(instances: list[dict]) -> dict:
    from ordersep.verify import brute_force_search

    return {
        "corpus_sha256": corpus_digest(instances),
        "entries": [key_entry(inst, brute_force_search) for inst in instances],
    }


def load_or_build(path: Path, instances: list[dict]) -> dict:
    """The cached key at ``path`` if it matches the corpus, else a new one."""
    digest = corpus_digest(instances)
    if path.exists():
        cached = json.loads(path.read_text())
        if cached.get("corpus_sha256") == digest:
            return cached
    key = build_key(instances)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(key))
    return key


def judge(row: dict, entry: dict) -> bool:
    """True if the instance was decided correctly, False if it was missed
    (budget exit 3 or deadline); raises :class:`WrongVerdict` otherwise."""
    code = row["code"]
    if code == 0:
        if row.get("verify_code") != 0:
            raise WrongVerdict(f"ordersep verify rejected the certificate (exit {row.get('verify_code')})")
        return True
    if code in (3, TIMEOUT):
        return False
    if code == 2:
        if entry["source"] == "oracle" and entry["witness"]:
            raise WrongVerdict(f"exit 2, but the oracle found a witness of degree {entry['degree']}")
        if entry["source"] == "conjugacy check" and not entry["conjugate_pair"]:
            raise WrongVerdict("exit 2 on infinite factors without a conjugate pair of targets")
        return True
    raise WrongVerdict(f"exit {code}")

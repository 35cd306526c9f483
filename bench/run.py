"""ordersep benchmark: end-to-end and per-layer metrics of the CLI.

    python3 bench/run.py --workload rng-z2z3 --seed 88 --seconds 10 --trace 0

Run from the root of a checkout.  The benchmark generates the workload's
corpus from ``--seed``, builds or loads its answer key, runs one worker
process at a time that drives ``ordersep separate`` and ``ordersep verify``
through ``cli.run_cli``, checks every verdict and certificate hash, and
prints the metrics.  The last line of standard output is one JSON object; the exit
code is 1 if a verdict was wrong or a certificate changed between runs of
the same code.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))

import answer_key  # noqa: E402
import corpora  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from worker import EXIT_RESTART  # noqa: E402

DEADLINE_S = 5.0  # per-instance limit on `ordersep separate`
VERIFY_SECONDS = 5.0  # verify rounds continue until this much verify time is measured
SETUP_SAMPLES = 3  # worker set-ups timed per run, the measuring worker included
RUN_LIMIT_S = 170.0  # the whole run, answer key included
CACHE = BENCH_DIR / ".cache"
OUT = BENCH_DIR / ".out"

END_TO_END = [
    ("separate_s", "s"),
    ("verify_s", "s"),
    ("cert_bytes", "bytes"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def source_digest() -> str:
    """Hash of the engine's sources: runs of the same code share it."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ordersep").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Worker:
    """One worker process; ``ready_s`` is the time from start to its
    ``ready`` line (interpreter start, CLI import, answer-key load)."""

    def __init__(self, job: dict, job_path: Path):
        job_path.write_text(json.dumps(job))
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
            stdout=subprocess.PIPE, cwd=ROOT, text=True,
        )
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.stop()
            raise RuntimeError(f"worker failed to start (exit {self.proc.returncode})")

    def wait(self, timeout: float) -> int:
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop()
            raise
        return self.proc.returncode

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def run_worker(job: dict, job_path: Path, timeout: float) -> tuple[dict, list[float]]:
    """Set-up samples, then the measuring worker, replaced by a fresh one
    each time it stops after a deadline."""
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = Worker({**job, "setup_only": True}, job_path)
        probe.wait(timeout=30)
        setups.append(probe.ready_s)
    limit = time.perf_counter() + timeout
    worker = Worker(job, job_path)
    setups.append(worker.ready_s)
    while (code := worker.wait(timeout=limit - time.perf_counter())) == EXIT_RESTART:
        worker = Worker(job, job_path)
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return json.loads(Path(job["result"]).read_text()), setups


def check_hashes(corpus_digest: str, rows: list[dict]) -> list[str]:
    """Certificate hashes must agree between the passes of this run and
    with earlier runs of the same sources on the same corpus."""
    problems = []
    path = CACHE / "hashes" / f"{corpus_digest[:16]}-{source_digest()}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    for idx, row in enumerate(rows):
        for sha in row["sha256s"]:
            if sha is not None and known.setdefault(str(idx), sha) != sha:
                problems.append(f"instance {idx}: certificate hash changed between runs")
                break
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(known, sort_keys=True))
    return problems


ROW_FIELDS = (
    "codes", "separate_s", "verify_s", "bytes", "sha256s",
    "separate_samples", "separate_raw", "verify_samples", "verify_raw", "peak_rss_mb",
)


def write_rows(path: Path, workload: str, seed: int, rows: list[dict], traced: bool) -> None:
    """One JSON line per instance: its exit codes per pass (or "timeout"),
    median separate and verify seconds and their samples at reference
    speed, the raw wall-time samples, certificate bytes and hashes, and the
    worker's peak memory after its ``separate`` calls."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for idx, row in enumerate(rows):
            fields = {name: row[name] for name in ROW_FIELDS}
            out.write(json.dumps({"workload": workload, "seed": seed, "index": idx, "traced": traced, **fields}) + "\n")


def end_to_end(rows: list[dict], rss_mb: float, setups: list[float], speed_factor: float) -> dict:
    """The END_TO_END metrics; times are at reference speed.  An instance
    counts as decided if every pass over it was."""
    decided = [all(row["decided"]) for row in rows]
    return {
        "separate_s": sum(row["separate_s"] for row in rows),
        "verify_s": sum(row["verify_s"] for row in rows),
        "cert_bytes": sum(row["bytes"] for row in rows),
        "decided_share": sum(decided) / len(decided),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups) / speed_factor,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=corpora.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ordersep" / "cli.py").is_file():
        print(f"error: no engine sources at {SRC.relative_to(ROOT)}/ordersep", file=sys.stderr)
        return 2
    started = time.perf_counter()

    instances = corpora.build(args.workload, args.seed)
    key_path = CACHE / "keys" / f"{args.workload}-{args.seed}.json"
    answer_key.load_or_build(key_path, instances)

    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        names = []
        for idx, inst in enumerate(instances):
            names.append(f"instance_{idx:03d}.json")
            (work / names[-1]).write_text(json.dumps(inst))
        job = {
            "key": str(key_path), "work": str(work), "instances": names,
            "deadline": DEADLINE_S, "seconds": args.seconds, "verify_seconds": VERIFY_SECONDS,
            "trace": bool(args.trace),
            "result": str(work / "result.json"), "state": str(work / "state.json"),
            "spans": str(OUT / f"spans-{tag}.jsonl"),
        }
        result, setups = run_worker(job, work / "job.json", RUN_LIMIT_S - (time.perf_counter() - started))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = [result["rows"]] + ([result["traced_rows"]] if args.trace else [])
    rows = [row for run_rows in runs for row in run_rows]
    problems = check_hashes(answer_key.corpus_digest(instances), rows)
    problems += [f"instance {idx % len(instances)}: {w}" for idx, row in enumerate(rows) for w in row["wrong"]]
    write_rows(OUT / f"rows-{tag}.jsonl", args.workload, args.seed, result["rows"], False)
    if args.trace:
        write_rows(OUT / f"rows-{tag}-traced.jsonl", args.workload, args.seed, result["traced_rows"], True)
        values, units = result["per_layer"], dict(PER_LAYER)
    else:
        values = end_to_end(result["rows"], result["peak_rss_mb"], setups, result["speed_factor"])
        units = dict(END_TO_END)
    decided = [d for row in rows for d in row["decided"]]
    for problem in problems:
        print(f"CORRECTNESS FAILURE: {problem}")
    for name, value in values.items():
        print(f"{name:42s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(decided),
        "failed": decided.count(False),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark worker: drives ``ordersep`` through ``cli.run_cli`` in-process.

Run as ``python3 bench/worker.py JOB.json``.  The worker imports the CLI
from the checkout's ``src``, loads the answer key and prints ``ready``; the
parent times that as set-up.  Unless the job is ``setup_only`` it then

* runs ``separate`` on every instance under a per-instance deadline, in
  passes over the corpus until the job's ``seconds`` have passed (an
  instance that timed out is not run again).  After a deadline it saves
  its progress and exits with ``EXIT_RESTART``; the parent starts a fresh
  worker that goes on, and the peak memory counts only what the worker
  held before the interrupted call;
* runs ``verify`` on every certificate, in rounds until ``verify_seconds``
  of verification have been measured;
* judges each outcome against the answer key and writes one row per
  instance (median times, every sample, codes and certificate hashes).

Times are reported at reference speed.  A shared machine's speed drifts
by 20% and more within minutes, which would swamp the differences the
benchmark exists to show.  So before a timed call the worker takes a
calibration sample (at most one every ``CALIBRATION_GAP_S``): a short
pure-Python loop and a JSON parse, timed against their reference times.
The speed factor is the median of the latest samples; the call's deadline
is multiplied and its duration divided by it.  Rows keep the raw wall
times too.

A traced job runs every instance and certificate once untraced and once
traced (see ``compare_traced``) and adds the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from answer_key import TIMEOUT, WrongVerdict, judge  # noqa: E402

EXIT_RESTART = 3  # a call passed its deadline: progress is saved, start a fresh worker

CALIBRATION_LOOP = 100_000  # iterations of the calibration loop
CALIBRATION_DOC = json.dumps([[i, [i % 7, i % 5, i % 3]] for i in range(10_000)])
CALIBRATION_LOOP_S = 0.0075  # the loop's time at reference speed
CALIBRATION_PARSE_S = 0.006  # the time to parse CALIBRATION_DOC at reference speed
CALIBRATION_GAP_S = 0.5  # least time between two calibration samples
CALIBRATION_WINDOW = 5  # the speed factor is the median of this many latest samples


def calibration_sample() -> float:
    """How much slower than reference speed a pure-Python loop and a JSON
    parse run right now (the engine does both kinds of work), averaged."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i
    loop = time.perf_counter() - start
    start = time.perf_counter()
    json.loads(CALIBRATION_DOC)
    parse = time.perf_counter() - start
    return (loop / CALIBRATION_LOOP_S + parse / CALIBRATION_PARSE_S) / 2


class Speed:
    """How much slower than reference speed this run's machine is."""

    def __init__(self):
        self.samples = [calibration_sample() for _ in range(CALIBRATION_WINDOW)]
        self._last = time.perf_counter()

    def sample(self) -> None:
        """Run the calibration loop unless it ran less than
        ``CALIBRATION_GAP_S`` ago."""
        if time.perf_counter() - self._last >= CALIBRATION_GAP_S:
            self.samples.append(calibration_sample())
            self._last = time.perf_counter()

    @property
    def factor(self) -> float:
        return statistics.median(self.samples[-CALIBRATION_WINDOW:])

    @property
    def run_factor(self) -> float:
        """The factor over the whole run so far."""
        return statistics.median(self.samples)


class DeadlineExceeded(BaseException):
    """Raised by the alarm handler when an instance passes its deadline.
    Not an ``Exception``, so the engine's ``except Exception`` handlers
    cannot turn it into a parse error."""


def _on_alarm(_signum, _frame):
    raise DeadlineExceeded()


def _no_span(_name: str):
    return contextlib.nullcontext()


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quiet_cli(run_cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run_cli(argv)


def separate_once(run_cli, inst: Path, cert: Path, deadline: float, span=_no_span) -> dict:
    """``ordersep separate`` under ``deadline`` seconds: exit code (or
    ``timeout``), wall time, certificate size and hash."""
    cert.unlink(missing_ok=True)
    out = {"code": None, "seconds": 0.0, "bytes": 0, "sha256": None}
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        with span("cli.separate"):
            out["code"] = quiet_cli(run_cli, ["separate", str(inst), "--out", str(cert)])
    except DeadlineExceeded:
        out["code"] = TIMEOUT
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    out["seconds"] = time.perf_counter() - start
    if out["code"] == 0:
        data = cert.read_bytes()
        out["bytes"], out["sha256"] = len(data), hashlib.sha256(data).hexdigest()
    return out


def verify_once(run_cli, inst: Path, cert: Path, span=_no_span) -> tuple[int, float]:
    start = time.perf_counter()
    with span("cli.verify"):
        code = quiet_cli(run_cli, ["verify", str(inst), str(cert)])
    return code, time.perf_counter() - start


class Corpus:
    """Per-instance samples gathered over passes and verify rounds."""

    def __init__(self, work: Path, names: list[str], key: dict, deadline: float, speed: Speed, tag: str = ""):
        self.insts = [work / n for n in names]
        self.certs = [work / f"certificate{tag}_{i:03d}.json" for i in range(len(names))]
        self.key, self.deadline, self.speed = key, deadline, speed
        self.rows = [
            {"codes": [], "separate_samples": [], "separate_raw": [], "verify_codes": [],
             "verify_samples": [], "verify_raw": [], "sha256s": [], "bytes": 0, "peak_rss_mb": 0.0}
            for _ in names
        ]
        # progress, kept across workers: passes done, the next instance of
        # the current pass, when the first pass began, and the peak memory
        # of each worker retired after a deadline (taken before that call)
        self.progress = {"passes": 0, "next": 0, "started": time.time(), "peaks": []}

    def save(self, path: Path) -> None:
        path.write_text(json.dumps({"rows": self.rows, "progress": self.progress}))

    def load(self, path: Path) -> None:
        if path.exists():
            state = json.loads(path.read_text())
            self.rows, self.progress = state["rows"], state["progress"]

    def separate_one(self, run_cli, idx: int, tracer=None) -> dict:
        """``separate`` instance ``idx`` once and record the outcome."""
        if tracer is not None:
            tracer.instance = str(idx)
        self.speed.sample()
        factor = self.speed.factor
        span = tracer.span if tracer else _no_span
        out = separate_once(run_cli, self.insts[idx], self.certs[idx], self.deadline * factor, span)
        if tracer is not None:
            tracer.abandon_open_spans()
        gc.collect()  # free what a timed-out call left in reference cycles
        row = self.rows[idx]
        row["codes"].append(out["code"])
        row["separate_samples"].append(out["seconds"] / factor)
        row["separate_raw"].append(out["seconds"])
        row["sha256s"].append(out["sha256"])
        row["bytes"] = row["bytes"] or out["bytes"]
        row["peak_rss_mb"] = max(row["peak_rss_mb"], peak_rss_mb())
        return out

    def verify_one(self, run_cli, idx: int, tracer=None) -> float:
        """``verify`` the certificate of instance ``idx``, if it has one;
        returns the wall time spent."""
        if not self.certs[idx].exists():
            return 0.0
        if tracer is not None:
            tracer.instance = str(idx)
        self.speed.sample()
        factor = self.speed.factor
        span = tracer.span if tracer else _no_span
        code, seconds = verify_once(run_cli, self.insts[idx], self.certs[idx], span)
        row = self.rows[idx]
        row["verify_codes"].append(code)
        row["verify_samples"].append(seconds / factor)
        row["verify_raw"].append(seconds)
        return seconds

    def separate_pass(self, run_cli, stop_on_timeout: bool = False) -> bool:
        """``separate`` every instance once, from where the pass stopped; one
        that passed the deadline in an earlier pass keeps its single sample
        (the engine is deterministic, so it would time out again).  With
        ``stop_on_timeout`` the pass stops after an instance passes its
        deadline and returns True."""
        for idx in range(self.progress["next"], len(self.insts)):
            if TIMEOUT in self.rows[idx]["codes"]:
                continue
            before = peak_rss_mb()
            out = self.separate_one(run_cli, idx)
            self.progress["next"] = idx + 1
            if stop_on_timeout and out["code"] == TIMEOUT:
                self.progress["peaks"].append(before)
                return True
        self.progress["passes"] += 1
        self.progress["next"] = 0
        return False

    def verify_round(self, run_cli) -> float:
        return sum(self.verify_one(run_cli, idx) for idx in range(len(self.insts)))

    def finish(self) -> list[dict]:
        """Median times at reference speed, and per pass whether the key
        accepts the outcome (``decided``) or why it is wrong (``wrong``)."""
        for idx, row in enumerate(self.rows):
            row["separate_s"] = statistics.median(row["separate_samples"])
            row["verify_s"] = statistics.median(row["verify_samples"]) if row["verify_samples"] else 0.0
            verify_code = max(row["verify_codes"], key=abs, default=None)
            row["decided"], row["wrong"] = [], []
            for code in row["codes"]:
                try:
                    row["decided"].append(judge({"code": code, "verify_code": verify_code}, self.key["entries"][idx]))
                except WrongVerdict as exc:
                    row["decided"].append(False)
                    row["wrong"].append(str(exc))
        for cert in self.certs:
            cert.unlink(missing_ok=True)
        return self.rows


def measure(
    run_cli, corpus: Corpus, seconds: float, verify_seconds: float, state: Path | None = None
) -> list[dict] | None:
    """Passes until ``seconds`` have passed, then verify rounds until
    ``verify_seconds`` of verification are measured.

    With ``state``, a pass stops after an instance passes its deadline,
    saves the progress to ``state`` and returns None.  A fresh worker then
    goes on from there, so the memory and leftovers of the interrupted call
    do not reach the instances after it."""
    if state is not None:
        corpus.load(state)
    progress = corpus.progress
    while progress["passes"] == 0 or time.time() - progress["started"] < seconds:
        if corpus.separate_pass(run_cli, stop_on_timeout=state is not None):
            corpus.save(state)
            return None
    spent = corpus.verify_round(run_cli)
    while 0 < spent < verify_seconds:
        spent += corpus.verify_round(run_cli)
    return corpus.finish()


def compare_traced(run_cli, plain: Corpus, traced: Corpus, tracer, points) -> None:
    """Every instance once without and once with tracing, and then every
    certificate; which of the two goes first alternates from instance to
    instance, so warm-up and drift fall on both sides alike.  The wrappers
    are installed for each traced call only."""
    for step in ("separate_one", "verify_one"):
        for idx in range(len(plain.insts)):
            for corpus in (plain, traced) if idx % 2 == 0 else (traced, plain):
                if corpus is plain:
                    getattr(plain, step)(run_cli, idx)
                    continue
                tracer.install(points)
                try:
                    getattr(traced, step)(run_cli, idx, tracer)
                finally:
                    tracer.restore()


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    from ordersep.cli import run_cli

    key = json.loads(Path(job["key"]).read_text())
    print("ready", flush=True)
    if job.get("setup_only"):
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    work, names, deadline = Path(job["work"]), job["instances"], float(job["deadline"])
    result: dict = {}
    speed = Speed()
    if not job["trace"]:
        corpus = Corpus(work, names, key, deadline, speed)
        rows = measure(
            run_cli, corpus, float(job["seconds"]), float(job["verify_seconds"]), Path(job["state"])
        )
        if rows is None:
            return EXIT_RESTART
        result["rows"] = rows
        result["peak_rss_mb"] = max(corpus.progress["peaks"] + [peak_rss_mb()])
    else:
        import layers
        from tracing import Tracer

        plain = Corpus(work, names, key, deadline, speed)
        traced = Corpus(work, names, key, deadline, speed, tag="_traced")
        tracer = Tracer()
        compare_traced(run_cli, plain, traced, tracer, layers.points())
        result["rows"], result["traced_rows"] = plain.finish(), traced.finish()
        result["per_layer"] = layers.per_layer_metrics(
            tracer.spans, result["rows"], result["traced_rows"], speed.run_factor
        )
        layers.write_spans(tracer.spans, Path(job["spans"]))
    result["speed_factor"] = speed.run_factor
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

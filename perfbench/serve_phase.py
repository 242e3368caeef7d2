"""The serve phase: open-loop traffic against a real ``lcmm serve``.

The daemon runs as a subprocess in its production mode (process pool,
one worker) over an empty cache directory.  Requests arrive as a seeded
Poisson process and are sent over at most two keep-alive connections;
each is timed from when it was due.  About nine in ten are
``POST /v1/compile`` with keys drawn from the workload's key
distribution, the rest ``POST /v1/dse`` on seeded zoo models.

The cache directory starts empty.  A closed-loop fill first compiles
every key once (each request a miss: worker compile, then cache put).
An untimed load at the phase-1 rate follows.  An untraced run then
stops the server and reports its peak RSS.  In every round of a traced
run, a phase-1 block runs at the workload's fixed rate, about a quarter
of the server's capacity, on the warm cache; a phase-2 block climbs a
rate ladder until a rung fails; and a traced block runs at the phase-1
rate.  The run reports phase-1 latencies over its rounds without the
slowest one, and the highest rate any round's ladder met the latency
limit at without a growing backlog.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import harness
from harness import Outcome

#: Phase-2 rung ``k`` runs at ``LADDER_FIRST + LADDER_STEP * k`` times the
#: workload's phase-1 rate.  A round climbs until a rung fails.  The
#: first round climbs every ``LADDER_FIRST_STRIDE``-th rung from the
#: bottom; a later round starts at the highest rung any round passed.
LADDER_FIRST, LADDER_STEP, LADDER_FIRST_STRIDE = 1.5, 0.5, 2
#: A round's ladder budget covers this many rungs: in a later round,
#: usually the highest rung so far, passed again, and the one above it.
LADDER_ROUND_RUNGS = 2
#: A safety stop: a round that passes this many rungs ends there, and
#: the run notes that its reading is a ceiling.
LADDER_MAX_RUNGS = 24
#: Latency limit on a ladder rung's p95.  A rung lasts about 1.5 s, too
#: few samples for a p99 with ten samples beyond it.
LADDER_PCT = 95.0
LATENCY_LIMIT_S = 0.050
#: A rung whose last-quarter median lateness exceeds this has a backlog.
BACKLOG_LATE_S = 0.020
#: Phase-1 requests the p50 and p99 need at least: ten beyond the p99.
P99_MIN_SAMPLES = 1000
#: Share of requests that go to ``/v1/dse``.
DSE_SHARE = 0.10
DSE_BUDGET_MB = 2.0
DSE_TOP = 5
#: Concurrent keep-alive connections (the host has two cores).
CONNECTIONS = 2
#: Pool workers of the daemon.
WORKERS = 1
#: A traced run fetches the trace of every this-many-th warm hit.
TRACE_EVERY_HIT = 4
#: Server spawns timed per run; the last one stays up for the load.
SPAWNS = 3
REQUEST_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Request:
    """One planned request: a compile key or a DSE sweep."""

    kind: str  # "compile" or "dse"
    model: str
    config: str | None = None

    def body(self) -> bytes:
        if self.kind == "compile":
            payload = {"model": self.model, "config": self.config, "precision": "int8"}
        else:
            payload = {"model": self.model, "budget_mb": DSE_BUDGET_MB, "top": DSE_TOP}
        return json.dumps(payload).encode()

    @property
    def path(self) -> str:
        return "/v1/compile" if self.kind == "compile" else "/v1/dse"


def plan(
    rate: float,
    duration: float,
    keys: harness.KeySampler,
    rng: random.Random,
) -> tuple[list[float], list[Request]]:
    """Due times and requests of one open-loop phase (deterministic per rng)."""
    dues = harness.poisson_arrivals(rate, duration, rng)
    models = sorted({model for model, _ in keys.keys})
    requests = []
    for _ in dues:
        if rng.random() < DSE_SHARE:
            requests.append(Request("dse", rng.choice(models)))
        else:
            model, config = keys.draw(rng)
            requests.append(Request("compile", model, config))
    return dues, requests


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------
class Daemon:
    """One ``lcmm serve`` subprocess on an ephemeral port.

    Its output goes to a log file, not a pipe: a pool worker that
    outlives the server would otherwise hold the pipe open.
    """

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir
        self.log = work_dir / "serve.log"
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self, timeout: float = 60.0) -> float:
        """Spawn and wait for ``/readyz`` 200; returns the seconds it took."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        with self.log.open("w") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--port", "0", "--workers", str(WORKERS),
                    "--cache", str(self.work_dir / "cache"),
                ],
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=harness.child_env(),
                cwd=harness.ROOT,
            )
        deadline = start + timeout
        while time.perf_counter() < deadline and self.proc.poll() is None:
            if self.port is None:
                self.port = self._listening_port()
            elif self._ready():
                return time.perf_counter() - start
            time.sleep(0.002)
        raise RuntimeError(f"lcmm serve never became ready: {self.log.read_text()[-400:]!r}")

    def _listening_port(self) -> int | None:
        for line in self.log.read_text().splitlines():
            if "listening on" in line:
                return int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
        return None

    def _ready(self) -> bool:
        probe = Client(self.port)
        try:
            return probe.call("GET", "/readyz")[0] == 200
        except OSError:
            return False
        finally:
            probe.close()

    def peak_rss_mb(self) -> float:
        """Peak resident set of the server and every descendant, in MiB."""
        return sum(harness.peak_rss_kib(pid) for pid in harness.process_tree(self.proc.pid)) / 1024.0

    def stop(self, timeout: float = 30.0) -> tuple[bool, int]:
        """SIGTERM and wait for a clean drain; kill what is left behind.

        Returns whether the server drained cleanly and how many of its
        descendants were still alive after it exited (and were killed).
        """
        if self.proc is None:
            return True, 0
        proc, self.proc = self.proc, None
        descendants = harness.process_tree(proc.pid)[1:]
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        orphans = harness.kill_and_wait(descendants)
        clean = proc.returncode == 0 and "drained cleanly" in self.log.read_text()
        return clean, orphans


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: http.client.HTTPConnection | None = None

    def call(self, method: str, path: str, body: bytes | None = None) -> tuple[int, dict]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        return response.status, (json.loads(data) if data else {})

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


# ----------------------------------------------------------------------
# Checking responses
# ----------------------------------------------------------------------
class Checker:
    """Judges every response against the goldens and earlier DSE answers."""

    def __init__(self, goldens: dict) -> None:
        self.goldens = goldens
        self.dse_seen: dict[str, list] = {}

    def judge(self, request: Request, status: int, payload: dict) -> tuple[bool, str]:
        if status != 200:
            return False, f"http-{status}:{request.kind}"
        if request.kind == "compile":
            if payload.get("degradation_level") != 0:
                return False, "degraded"
            if harness.as_json(payload.get("fingerprint")) != self.goldens[(request.model, request.config)]:
                return False, "fingerprint-mismatch"
            if payload.get("coalesced"):
                return True, "coalesced"
            return True, "hit" if payload.get("cache_hit") else "miss"
        points = payload.get("points") or []
        latencies = [p["umm_latency"] for p in points]
        budget = int(DSE_BUDGET_MB * 2**20)
        if not points or latencies != sorted(latencies):
            return False, "dse-unsorted"
        if any(p["tile_buffer_bytes"] > budget for p in points):
            return False, "dse-over-budget"
        first = self.dse_seen.setdefault(request.model, points)
        if first != points:
            return False, "dse-unstable"
        return True, "dse"


class Sender:
    """One connection's client for :func:`harness.run_open_loop`.

    A traced sender fetches ``/v1/requests/{id}/trace`` after every
    pooled request (miss, DSE, coalesced) and every
    ``TRACE_EVERY_HIT``-th warm hit, on the same connection.  It stamps
    ``answered`` before that fetch, so :func:`answered_latency` leaves
    the fetch's round trip out of the request's own latency.
    """

    def __init__(self, port: int, checker: Checker, traced: bool) -> None:
        self.client = Client(port)
        self.checker = checker
        self.traced = traced
        self.hits = 0

    def __call__(self, request: Request) -> tuple[bool, str, dict]:
        status, payload = self.client.call("POST", request.path, request.body())
        answered = time.perf_counter()
        ok, label = self.checker.judge(request, status, payload)
        info = {"seconds": payload.get("seconds"), "answered": answered}
        if label == "hit":
            self.hits += 1
        sampled = label != "hit" or self.hits % TRACE_EVERY_HIT == 0
        if self.traced and sampled and payload.get("request_id"):
            _, trace = self.client.call("GET", f"/v1/requests/{payload['request_id']}/trace")
            info["trace"] = trace.get("trace")
        return ok, label, info


def answered_latency(outcome: Outcome) -> float:
    """Seconds from due to the answer, without a traced run's trace fetch."""
    return outcome.info.get("answered", outcome.done) - outcome.due


def rung_passes(outcomes: Sequence[Outcome]) -> tuple[bool, float]:
    """Whether a ladder rung met the limit without a growing backlog."""
    if not outcomes or any(not o.ok for o in outcomes):
        return False, float("inf")
    value = harness.percentile([o.latency for o in outcomes], LADDER_PCT)
    quarter = max(1, len(outcomes) // 4)
    late_end = harness.median([o.late for o in outcomes[-quarter:]])
    return value <= LATENCY_LIMIT_S and late_end <= BACKLOG_LATE_S, value


def max_rate(ladder: Sequence[tuple[float, bool, float]]) -> float:
    """Highest rate meeting the limit, from ``(rate, passed, tail)`` rungs.

    The ladder stops at its first failing rung.  When that rung failed
    on its tail alone, the rate is interpolated linearly to where the
    tail crosses the limit between the last passing rung (or an idle
    server at 0 rps) and it; a rung lost to a backlog or a failed
    request gives the last passing rate.
    """
    best = 0.0
    for index, (rate, passed, tail_s) in enumerate(ladder):
        if passed:
            best = rate
            continue
        if tail_s > LATENCY_LIMIT_S and tail_s != float("inf"):
            low_rate, _, low_tail = ladder[index - 1] if index else (0.0, True, 0.0)
            share = (LATENCY_LIMIT_S - low_tail) / (tail_s - low_tail)
            best = low_rate + (rate - low_rate) * share
        break
    return best


# ----------------------------------------------------------------------
# The phase as the run drives it
# ----------------------------------------------------------------------
def _at(trace: dict, name: str) -> float | None:
    for event in trace.get("events", ()):
        if event["name"] == name:
            return event["at"]
    return None


class ServePhase:
    """Set-up, the cache fill, and phase-1 and ladder blocks by round."""

    def __init__(self, goldens: dict, keys: harness.KeySampler, rate: float,
                 work_dir: Path, result: harness.Result) -> None:
        self.checker = Checker(goldens)
        self.keys = keys
        self.rate = rate
        self.work_dir = work_dir
        self.result = result
        self.daemon: Daemon | None = None
        self.spawns = 0
        self.orphans = 0
        self.fill: list[Outcome] = []
        #: Untraced phase-1 outcomes, one list per round.
        self.rounds: list[list[Outcome]] = []
        self.traced: list[Outcome] = []
        #: ``(rate, passed, tail)`` rungs, one ladder per round.
        self.ladders: list[list[tuple[float, bool, float]]] = []
        #: Highest rung index any round passed (-1: none yet).
        self.top_rung = -1
        self.ceiling = False
        self.rss_mb = 0.0
        self.stats: dict = {}

    def _spawn(self) -> float:
        self.spawns += 1
        self.daemon = Daemon(self.work_dir / f"daemon-{self.spawns}")
        return self.daemon.start()

    def _stop(self) -> None:
        daemon, self.daemon = self.daemon, None
        if daemon is None:
            return
        clean, orphans = daemon.stop()
        self.orphans += orphans
        if not clean:
            self.result.attempted += 1
            self.result.fail("serve-unclean-drain")

    def close(self) -> None:
        """Stop any daemon still running (safe to call twice)."""
        self._stop()
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def setup(self) -> float:
        """Median spawn-to-ready time; the last daemon stays up."""
        times = []
        for index in range(SPAWNS):
            if index:
                self._stop()
            times.append(self._spawn())
        return harness.median(times)

    def _count(self, outcomes: Sequence[Outcome]) -> None:
        self.result.attempted += len(outcomes)
        for outcome in outcomes:
            if not outcome.ok:
                self.result.fail(f"serve-{outcome.label}")

    def _load(self, rate: float, duration: float, rng: random.Random, traced=False):
        dues, requests = plan(rate, duration, self.keys, rng)
        senders = [Sender(self.daemon.port, self.checker, traced) for _ in range(CONNECTIONS)]
        try:
            outcomes = harness.run_open_loop(dues, requests, senders)
        finally:
            for send in senders:
                send.client.close()
        self._count(outcomes)
        return outcomes

    def _fill(self, rng: random.Random, traced: bool = False) -> list[Outcome]:
        """Compile every key once, closed loop, in a seeded order.

        The cache starts empty, so each request is a miss: the worker
        compiles the key and puts it to the cache.  Afterwards the cache
        is warm for every key the open-loop phases can draw.
        """
        send = Sender(self.daemon.port, self.checker, traced)
        keys = rng.sample(self.keys.keys, len(self.keys.keys))
        outcomes = []
        try:
            for index, key in enumerate(keys):
                start = time.perf_counter()
                try:
                    ok, label, info = send(Request("compile", *key))
                except (OSError, http.client.HTTPException) as exc:
                    ok, label, info = False, f"error:{type(exc).__name__}", {}
                outcomes.append(Outcome(index, start, start, time.perf_counter(), ok, label, info))
        finally:
            send.client.close()
        self._count(outcomes)
        return outcomes

    def prepare(self, warm_s: float, seed: str, traced: bool) -> None:
        """Fill the cache, then an untimed (but checked) load at the phase-1 rate.

        The warm-up lets the server's thread pool, the worker's DSE
        state and the host settle before anything is timed.  A traced
        run traces the fill, which is where the misses are.
        """
        self.fill = self._fill(random.Random(f"{seed}:fill"), traced)
        self._load(self.rate, warm_s, random.Random(f"{seed}:warm"))

    def run(self, seconds: float, rng: random.Random) -> None:
        """One round's phase-1 block, untraced in every run."""
        self.rounds.append(self._load(self.rate, seconds, rng))

    def trace(self, seconds: float, rng: random.Random) -> None:
        """A traced run's extra block at the phase-1 rate."""
        self.traced += self._load(self.rate, seconds, rng, traced=True)

    def climb(self, seconds: float, rng: random.Random) -> None:
        """One round's ladder: climb from the best rung so far until a rung fails."""
        rung_s = seconds / LADDER_ROUND_RUNGS
        stride = 1 if self.ladders else LADDER_FIRST_STRIDE
        ladder = []
        for index in range(max(0, self.top_rung), LADDER_MAX_RUNGS, stride):
            rate = self.rate * (LADDER_FIRST + LADDER_STEP * index)
            passed, tail_s = rung_passes(self._load(rate, rung_s, rng))
            ladder.append((rate, passed, tail_s))
            if not passed:
                break
            self.top_rung = max(self.top_rung, index)
        else:
            self.ceiling = True
        self.ladders.append(ladder)

    def finish(self) -> None:
        """The last readings, then stop the daemon."""
        client = Client(self.daemon.port)
        try:
            _, self.stats = client.call("GET", "/v1/stats")
        finally:
            client.close()
        self.rss_mb = self.daemon.peak_rss_mb()
        self._stop()

    # ------------------------------------------------------------------
    def kept_rounds(self) -> list[list[Outcome]]:
        """The phase-1 rounds without the one with the highest p50.

        A stall of the shared host can take a whole round; dropping the
        worst round keeps it out of the p50 and the p99.  All rounds are
        kept when the others hold fewer than ``P99_MIN_SAMPLES`` requests.
        """
        ranked = sorted(self.rounds, key=lambda block: harness.median([o.latency for o in block]))
        if sum(len(block) for block in ranked[:-1]) >= P99_MIN_SAMPLES:
            return ranked[:-1]
        return ranked

    def end_to_end(self) -> None:
        self.result.metric("serve.rss_mb", self.rss_mb, "MiB")
        self._note_fill()

    def _note_fill(self) -> None:
        self.result.note(harness.tail_note("serve fill (cold compile) ms", [o.latency for o in self.fill]))
        self.result.note(f"serve: {self.orphans} pool worker(s) outlived a drained server and were killed")

    def load_figures(self) -> None:
        """Phase-1 p50 and p99 over the kept rounds; the best round's ladder reading.

        The shared host's speed drifts within a run.  A round holds too
        few requests for a p99 with ten samples beyond it, so the
        latencies pool the kept rounds; the ladder reports the round
        that read highest.
        """
        metric = self.result.metric
        latencies = [o.latency for block in self.kept_rounds() for o in block]
        metric("serve.p50_ms", harness.median(latencies) * 1e3, "ms")
        metric("serve.p99_ms", harness.percentile(latencies, 99) * 1e3, "ms")
        metric("serve.max_rps", max(max_rate(ladder) for ladder in self.ladders), "1/s")
        self.result.note(harness.tail_note("serve phase-1 ms, kept rounds", latencies))
        self.result.note(
            "serve phase-1 p50 by round ms: "
            + ", ".join(f"{harness.median([o.latency for o in block]) * 1e3:.2f}" for block in self.rounds)
        )
        for index, ladder in enumerate(self.ladders):
            self.result.note(
                f"serve ladder, round {index + 1} (reads {max_rate(ladder):.1f} rps): "
                + ", ".join(f"{rate:g} rps {'pass' if ok else 'FAIL'} p{LADDER_PCT:g} {t * 1e3:.1f} ms" for rate, ok, t in ladder)
            )
        if self.ceiling:
            self.result.note(f"serve ladder: a round passed all {LADDER_MAX_RUNGS} rungs, so serve.max_rps is a ceiling")

    def per_layer(self) -> None:
        self._note_fill()
        self.load_figures()
        metric = self.result.metric
        traced = self.fill + self.traced
        by_label: dict[str, list[Outcome]] = {}
        for outcome in traced:
            by_label.setdefault(outcome.label, []).append(outcome)

        def p50_ms(values):
            return harness.median(values) * 1e3 if values else 0.0

        def span(o: Outcome, start: str, end: str) -> float:
            return _at(o.info["trace"], end) - _at(o.info["trace"], start)

        for label in ("hit", "miss", "dse"):
            metric(f"serve.{label}_p50_ms", p50_ms([answered_latency(o) for o in by_label.get(label, [])]), "ms")
        ok = [o for o in traced if o.ok and o.info.get("trace")]
        metric("serve.http_ms", p50_ms([(o.info["answered"] - o.sent) - o.info["trace"]["seconds"] for o in ok]), "ms")
        metric("serve.queue_ms", p50_ms([span(o, "admitted", "slot-acquired") for o in ok]), "ms")
        metric("serve.warm_lookup_ms", p50_ms([o.info["seconds"] for o in by_label.get("hit", [])]), "ms")
        pooled = [o for o in ok if o.label in ("miss", "dse")]
        metric("serve.pool_hop_ms", p50_ms([span(o, "slot-acquired", "finished") - o.info["seconds"] for o in pooled]), "ms")
        metric("serve.worker_compile_ms", p50_ms([o.info["seconds"] for o in by_label.get("miss", [])]), "ms")
        metric("serve.worker_dse_ms", p50_ms([o.info["seconds"] for o in by_label.get("dse", [])]), "ms")
        phase1 = [o for block in self.rounds for o in block]
        compiles = [o for o in self.fill + phase1 if o.label in ("hit", "miss", "coalesced")]
        metric("cache.hit_ratio", sum(o.label == "hit" for o in compiles) / len(compiles), "ratio")
        metric("serve.coalesced_share", sum(o.label == "coalesced" for o in compiles) / len(compiles), "ratio")
        metric("serve.shed_share", sum(o.label.startswith("http-429") for o in phase1) / len(phase1), "ratio")
        metric("serve.pool_generation", self.stats["service"]["pool"]["generation"], "count")
        metric("serve.generator_late_p99_ms", harness.percentile([o.late for o in phase1], 99) * 1e3, "ms")
        metric("serve.orphaned_workers", self.orphans, "count")
        plain = harness.median([o.latency for o in phase1])
        metric("serve.trace_overhead", harness.median([answered_latency(o) for o in self.traced]) / plain - 1.0, "ratio")

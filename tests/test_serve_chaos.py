"""Chaos tests for the serving daemon: the front door under real faults.

The contract being proven: whatever fires — killed workers, hung
compiles, corrupted cache artifacts, a dead pool — the daemon never
wedges, never returns an unlabeled degraded result, and recovers once
the fault clears.  Crash-mode faults need process isolation, so these
run the real :class:`~repro.serve.jobs.CompilePool`; the seed for
rate-based plans comes from ``CHAOS_SEED`` (CI sweeps it).
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.cache.store import CompilationCache
from repro.errors import OverloadedError, WorkerError
from repro.obs.metrics import reset_registry
from repro.robustness.inject import FaultPlan, disarm_all, injected
from repro.serve import ServerThread, ServiceConfig
from repro.serve.jobs import job_key
from repro.serve.service import CompileService

from tests.conftest import kill_pool_worker

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


@pytest.fixture(autouse=True)
def _clean_slate():
    disarm_all()
    reset_registry()
    yield
    disarm_all()


def request(server, method, path, payload=None, timeout=120):
    conn = HTTPConnection(server.host, server.port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        decoded = json.loads(response.read())
        headers = dict(response.getheaders())
    finally:
        conn.close()
    return response.status, decoded, headers


class TestWorkerCrash:
    def test_crashed_worker_yields_structured_503_and_recovery(self, tmp_path):
        # Every fresh worker process re-arms the crash plan, so retries
        # exhaust against it: the request must come back as a structured
        # 503 WorkerError, never a hang or a protocol error.
        with injected(
            FaultPlan("serve.worker", mode="crash", seed=CHAOS_SEED)
        ):
            thread = ServerThread(
                ServiceConfig(
                    inline=False,
                    workers=1,
                    cache_dir=str(tmp_path),
                    retries=1,
                    breaker_threshold=10,
                )
            ).start()
            try:
                start = time.perf_counter()
                status, payload, _ = request(
                    thread, "POST", "/v1/compile", {"model": "alexnet", "config": "umm"}
                )
                elapsed = time.perf_counter() - start
                assert status == 503
                assert payload["error"]["type"] == "WorkerError"
                assert elapsed < 60.0  # bounded by retries, not wedged

                # The fault clears (pool rebuilt without the plan): the
                # daemon recovers without a restart.
                thread.server.service.pool.plans = ()
                status, payload, _ = request(
                    thread, "POST", "/v1/compile", {"model": "alexnet", "config": "umm"}
                )
                assert status == 200
                assert payload["degradation_level"] == 0
                assert thread.server.service.pool.generation >= 1
            finally:
                assert thread.stop() is True
        # No leaked worker: the refreshed executors were shut down.

    def test_warm_hits_survive_a_dead_pool(self, tmp_path):
        # Prime the cache with a clean artifact, then break every
        # worker: cached results must still be served.
        from repro.serve.jobs import run_compile_job

        run_compile_job("alexnet", "dnnk", "int8", str(tmp_path))
        with injected(
            FaultPlan("serve.worker", mode="crash", seed=CHAOS_SEED)
        ):
            thread = ServerThread(
                ServiceConfig(inline=False, workers=1, cache_dir=str(tmp_path))
            ).start()
            try:
                status, payload, _ = request(
                    thread, "POST", "/v1/compile", {"model": "alexnet", "config": "dnnk"}
                )
                assert status == 200
                assert payload["cache_hit"] is True
                assert payload["degradation_level"] == 0
            finally:
                thread.stop()


class TestWorkerKilledBetweenJobs:
    def test_next_cold_compile_refreshes_the_pool(self, tmp_path):
        # A worker OOM-killed while the pool is idle leaves the executor
        # broken: the next cold compile must refresh it and succeed, not
        # return a 500.
        thread = ServerThread(
            ServiceConfig(inline=False, workers=1, cache_dir=str(tmp_path))
        ).start()
        try:
            status, _, _ = request(thread, "POST", "/v1/compile", {"model": "alexnet"})
            assert status == 200
            pool = thread.server.service.pool
            assert pool.generation == 0
            kill_pool_worker(pool)
            status, payload, _ = request(
                thread, "POST", "/v1/compile", {"model": "squeezenet"}
            )
            assert status == 200, payload
            assert payload["cache_hit"] is False
            assert payload["degradation_level"] == 0
            assert pool.generation == 1
        finally:
            assert thread.stop() is True


class TestHangPastDeadline:
    def test_hung_worker_is_a_504_then_recovery(self, tmp_path):
        with injected(
            FaultPlan(
                "serve.worker", mode="hang", hang_seconds=0.8, seed=CHAOS_SEED
            )
        ):
            thread = ServerThread(
                ServiceConfig(inline=False, workers=1, cache_dir=str(tmp_path))
            ).start()
            try:
                start = time.perf_counter()
                status, payload, _ = request(
                    thread,
                    "POST",
                    "/v1/compile",
                    {"model": "alexnet", "config": "umm", "deadline_seconds": 0.15},
                )
                elapsed = time.perf_counter() - start
                assert status == 504
                assert payload["error"]["type"] == "DeadlineExceeded"
                assert elapsed < 10.0
                # With a roomy deadline the same hang is absorbed.
                status, payload, _ = request(
                    thread,
                    "POST",
                    "/v1/compile",
                    {"model": "alexnet", "config": "umm", "deadline_seconds": 30},
                )
                assert status == 200
                assert payload["degradation_level"] == 0
            finally:
                assert thread.stop() is True


class TestCorruptCache:
    def test_corrupt_artifact_recompiles_and_heals(self, tmp_path):
        key = job_key("alexnet", "dnnk", "int8")
        cache = CompilationCache(tmp_path)
        path = cache._path(key, "result")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"this is not a pickle")

        thread = ServerThread(
            ServiceConfig(inline=True, workers=1, cache_dir=str(tmp_path))
        ).start()
        try:
            status, payload, _ = request(
                thread, "POST", "/v1/compile", {"model": "alexnet", "config": "dnnk"}
            )
            assert status == 200
            assert payload["cache_hit"] is False  # the torn entry was a miss
            assert payload["degradation_level"] == 0
            # The slot healed: the rewritten artifact now serves warm.
            status, payload, _ = request(
                thread, "POST", "/v1/compile", {"model": "alexnet", "config": "dnnk"}
            )
            assert status == 200
            assert payload["cache_hit"] is True
        finally:
            thread.stop()

    def test_injected_cache_faults_never_fail_a_request(self, tmp_path):
        thread = ServerThread(
            ServiceConfig(inline=True, workers=1, cache_dir=str(tmp_path))
        ).start()
        try:
            with injected(
                FaultPlan("cache.get", mode="raise", seed=CHAOS_SEED),
                FaultPlan("cache.put", mode="raise", seed=CHAOS_SEED),
            ):
                status, payload, _ = request(
                    thread, "POST", "/v1/compile", {"model": "alexnet", "config": "dnnk"}
                )
            assert status == 200  # cache-off behaviour, not an error
            assert payload["degradation_level"] == 0
        finally:
            thread.stop()


class TestCircuitBreaker:
    def test_breaker_opens_sheds_then_half_open_recovers(self):
        async def scenario():
            service = CompileService(
                ServiceConfig(
                    inline=True,
                    workers=1,
                    retries=0,
                    breaker_threshold=2,
                    breaker_reset=0.3,
                )
            )
            broken_ensure_calls = 0
            real_ensure = service.pool.ensure

            def broken_ensure():
                nonlocal broken_ensure_calls
                broken_ensure_calls += 1
                raise OSError("spawn refused (injected)")

            service.pool.ensure = broken_ensure
            # Two failures trip the breaker (threshold=2, no retries).
            for _ in range(2):
                with pytest.raises(WorkerError):
                    await service.submit_compile("alexnet", "umm")
            assert service.breaker.state == "open"
            # While open, requests are shed without touching the pool.
            calls_before = broken_ensure_calls
            with pytest.raises(OverloadedError) as info:
                await service.submit_compile("alexnet", "umm")
            assert broken_ensure_calls == calls_before
            assert info.value.details["reason"] == "breaker"
            assert info.value.details["retry_after"] >= 0.0
            # Cool-down elapses; the pool is healthy again: the
            # half-open probe succeeds and the circuit closes.
            await asyncio.sleep(0.35)
            service.pool.ensure = real_ensure
            payload = await service.submit_compile("alexnet", "umm")
            assert payload["degradation_level"] == 0
            assert service.breaker.state == "closed"
            await service.close()

        asyncio.run(scenario())


class TestSigtermDrain:
    def test_subprocess_sigterm_drains_cleanly(self, tmp_path):
        env = dict(os.environ)
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
                "serve",
                "--inline",
                "--port",
                "0",
                "--cache",
                str(tmp_path),
                "--drain-seconds",
                "5",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            host, port = line.split("listening on ")[1].split()[0].split(":")
            conn = HTTPConnection(host, int(port), timeout=60)
            conn.request(
                "POST",
                "/v1/compile",
                json.dumps({"model": "alexnet", "config": "umm"}),
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            conn.close()
            assert response.status == 200
            assert payload["degradation_level"] == 0

            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err
            assert "drained cleanly" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


def _descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (from ``/proc``), zombies excluded."""
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        for task in Path(f"/proc/{parent}/task").glob("*"):
            try:
                children = [int(c) for c in (task / "children").read_text().split()]
            except OSError:
                continue
            found.extend(children)
            frontier.extend(children)
    return found


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs /proc/<pid>/task/<tid>/children",
)
class TestSigtermReapsWorkers:
    def test_no_pool_worker_outlives_a_drained_server(self, tmp_path):
        env = dict(os.environ)
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
                "serve",
                "--workers",
                "1",
                "--port",
                "0",
                "--cache",
                str(tmp_path),
                "--drain-seconds",
                "5",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        workers: list[int] = []
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            host, port = line.split("listening on ")[1].split()[0].split(":")
            conn = HTTPConnection(host, int(port), timeout=60)
            conn.request(
                "POST",
                "/v1/compile",
                json.dumps({"model": "alexnet", "config": "umm"}),
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            response.read()
            conn.close()
            assert response.status == 200
            workers = _descendants(proc.pid)
            assert workers, "the cold compile never started a pool worker"

            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err
            assert "drained cleanly" in out
            assert [pid for pid in workers if _alive(pid)] == []
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)

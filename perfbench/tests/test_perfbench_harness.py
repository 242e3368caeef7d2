"""Tests of the benchmark's statistics, open-loop scheduler and inputs.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import random
import threading
import time

import pytest

import harness
import serve_phase
from harness import Outcome

KEYS = [(f"m{i}", config) for i in range(12) for config in harness.CONFIGS]


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert harness.percentile(values, 100) == 100
    assert harness.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


@pytest.mark.parametrize(
    "n, pct",
    [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_reports_highest_percentile_with_ten_beyond(n, pct):
    values = [float(i) for i in range(n)]
    random.Random(n).shuffle(values)
    top = harness.tail(values)
    assert top is not None
    assert (top.pct, top.n) == (pct, n)
    assert top.value == harness.percentile(values, pct)
    beyond = sum(v > top.value for v in values)
    assert beyond >= 10


def test_tail_needs_ten_samples_beyond_the_median():
    assert harness.tail([1.0] * 19) is None


def test_tail_note_shows_count():
    note = harness.tail_note("x", [0.001] * 100)
    assert "p90" in note and "(n=100)" in note
    assert harness.tail_note("x", []) == "x: no samples"


def test_median_and_geomean():
    assert harness.median([3, 1, 2]) == 2
    assert harness.median([4, 1, 2, 3]) == 2.5
    assert harness.geomean([1.0, 4.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        harness.geomean([1.0, 0.0])


# ----------------------------------------------------------------------
# Open-loop scheduler
# ----------------------------------------------------------------------
def test_poisson_arrivals_are_sorted_bounded_and_seeded():
    first = harness.poisson_arrivals(100.0, 5.0, random.Random(3))
    again = harness.poisson_arrivals(100.0, 5.0, random.Random(3))
    other = harness.poisson_arrivals(100.0, 5.0, random.Random(4))
    assert first == again
    assert first != other
    assert first == sorted(first)
    assert all(0.0 < due < 5.0 for due in first)
    assert 400 < len(first) < 600
    with pytest.raises(ValueError):
        harness.poisson_arrivals(0.0, 1.0, random.Random(0))


def _sleeper(seconds: float):
    def client(payload):
        time.sleep(seconds)
        return True, "ok", {"payload": payload}

    return client


def test_open_loop_times_from_due_and_reports_lateness():
    # Four requests all due at t=0 over one sender that takes 20 ms each:
    # the last one is sent about 60 ms late and its latency counts that wait.
    dues = [0.0, 0.0, 0.0, 0.0]
    outcomes = harness.run_open_loop(dues, list("abcd"), [_sleeper(0.02)])
    assert [o.index for o in outcomes] == [0, 1, 2, 3]
    assert [o.info["payload"] for o in outcomes] == list("abcd")
    last = outcomes[-1]
    assert last.late >= 0.055
    assert last.latency >= last.late + 0.019
    assert all(o.ok for o in outcomes)


def test_open_loop_waits_for_due_time():
    start = time.perf_counter()
    outcomes = harness.run_open_loop([0.05, 0.10], ["a", "b"], [_sleeper(0.0), _sleeper(0.0)])
    assert time.perf_counter() - start >= 0.10
    for outcome in outcomes:
        assert outcome.sent >= outcome.due
        assert outcome.late < 0.05


def test_open_loop_spreads_over_senders():
    seen = set()
    lock = threading.Lock()

    def client(payload):
        with lock:
            seen.add(threading.get_ident())
        time.sleep(0.02)
        return True, "ok", {}

    outcomes = harness.run_open_loop([0.0] * 6, list(range(6)), [client, client])
    assert len(outcomes) == 6
    assert len(seen) == 2


def test_open_loop_records_failures_and_exceptions():
    def flaky(payload):
        if payload == "boom":
            raise ConnectionResetError("reset")
        return payload == "good", "label", {}

    outcomes = harness.run_open_loop([0.0, 0.0, 0.0], ["good", "bad", "boom"], [flaky])
    assert [o.ok for o in outcomes] == [True, False, False]
    assert outcomes[2].label == "error:ConnectionResetError"


def test_open_loop_rejects_mismatched_inputs():
    with pytest.raises(ValueError):
        harness.run_open_loop([0.0], [], [_sleeper(0.0)])


# ----------------------------------------------------------------------
# Generated inputs are deterministic per seed
# ----------------------------------------------------------------------
def _plan(seed: int, exponent: float = 1.1):
    rng = random.Random(f"keys:{seed}")
    keys = harness.KeySampler(KEYS, exponent, rng)
    return serve_phase.plan(100.0, 3.0, keys, random.Random(f"serve:{seed}"))


def test_schedule_is_deterministic_per_seed():
    assert _plan(1) == _plan(1)
    assert _plan(1) != _plan(2)


def test_schedule_mixes_compile_and_dse():
    dues, requests = _plan(5)
    assert len(dues) == len(requests)
    dse = sum(r.kind == "dse" for r in requests)
    assert 0.03 < dse / len(requests) < 0.2
    assert all(r.config in harness.CONFIGS for r in requests if r.kind == "compile")


def test_key_sampler_skew_follows_exponent():
    def top_share(exponent: float) -> float:
        rng = random.Random(9)
        keys = harness.KeySampler(KEYS, exponent, rng)
        draws = [keys.draw(rng) for _ in range(5000)]
        return draws.count(keys.keys[0]) / len(draws)

    assert top_share(0.0) < 0.05
    assert top_share(1.1) > 0.15


def test_key_sampler_permutation_depends_on_seed():
    first = harness.KeySampler(KEYS, 1.1, random.Random(1)).keys
    assert first == harness.KeySampler(KEYS, 1.1, random.Random(1)).keys
    assert first != harness.KeySampler(KEYS, 1.1, random.Random(2)).keys
    assert sorted(first) == sorted(KEYS)


# ----------------------------------------------------------------------
# Ladder verdicts and the result payload
# ----------------------------------------------------------------------
def _outcome(index: int, latency: float, late: float = 0.0, ok: bool = True) -> Outcome:
    return Outcome(index, 0.0, late, latency, ok, "hit")


def test_rung_passes_on_fast_answers():
    passed, tail = serve_phase.rung_passes([_outcome(i, 0.005) for i in range(100)])
    assert passed and tail == pytest.approx(0.005)


def test_rung_fails_on_slow_tail_failure_or_backlog():
    slow = [_outcome(i, 0.005) for i in range(90)] + [_outcome(i, 0.2) for i in range(10)]
    assert not serve_phase.rung_passes(slow)[0]
    failed = [_outcome(i, 0.005) for i in range(99)] + [_outcome(99, 0.005, ok=False)]
    assert not serve_phase.rung_passes(failed)[0]
    backlog = [_outcome(i, 0.04, late=0.001 * i) for i in range(100)]
    assert not serve_phase.rung_passes(backlog)[0]
    assert not serve_phase.rung_passes([])[0]


def test_max_rate_interpolates_to_the_limit():
    limit = serve_phase.LATENCY_LIMIT_S
    ladder = [(100.0, True, limit / 2), (200.0, False, limit * 1.5)]
    assert serve_phase.max_rate(ladder) == pytest.approx(150.0)
    assert serve_phase.max_rate([(100.0, True, limit / 2), (200.0, True, limit)]) == 200.0


def test_max_rate_stops_at_backlog_failure_and_first_rung():
    limit = serve_phase.LATENCY_LIMIT_S
    assert serve_phase.max_rate([(100.0, True, limit / 2), (200.0, False, limit / 2)]) == 100.0
    assert serve_phase.max_rate([(100.0, True, limit / 2), (200.0, False, float("inf"))]) == 100.0
    assert serve_phase.max_rate([(100.0, False, limit * 2)]) == pytest.approx(50.0)
    assert serve_phase.max_rate([(100.0, False, float("inf"))]) == 0.0


def _phase(rate: float = 50.0) -> serve_phase.ServePhase:
    keys = harness.KeySampler(KEYS, 0.0, random.Random(0))
    return serve_phase.ServePhase({}, keys, rate, harness.WORK_DIR / "unused", harness.Result())


def _fake_load(capacity: float):
    """A ``_load`` whose rungs pass below ``capacity`` rps and fail above it."""
    rates = []

    def load(rate, duration, rng, traced=False):
        rates.append(rate)
        latency = 0.005 if rate <= capacity else 0.2
        return [_outcome(i, latency) for i in range(100)]

    return load, rates


def test_ladder_climbs_until_a_rung_fails_then_restarts_at_the_top_rung():
    phase = _phase(rate=50.0)
    phase._load, rates = _fake_load(capacity=230.0)
    phase.climb(1.0, random.Random(0))
    # The first round strides two rungs: 75, 125, 175, 225 pass, 275 fails.
    assert rates == [75.0, 125.0, 175.0, 225.0, 275.0]
    phase._load, rates = _fake_load(capacity=260.0)
    phase.climb(1.0, random.Random(0))
    # A later round starts at the highest rung passed so far.
    assert rates == [225.0, 250.0, 275.0]
    assert phase.top_rung == 7
    assert not phase.ceiling
    best = max(serve_phase.max_rate(ladder) for ladder in phase.ladders)
    assert 250.0 < best < 275.0


def test_ladder_notes_a_ceiling_when_no_rung_fails():
    phase = _phase(rate=50.0)
    phase._load, rates = _fake_load(capacity=float("inf"))
    phase.climb(1.0, random.Random(0))
    assert phase.ceiling
    assert len(rates) == len(range(0, serve_phase.LADDER_MAX_RUNGS, serve_phase.LADDER_FIRST_STRIDE))


def test_kept_rounds_drop_the_slowest_round_only_with_enough_samples():
    phase = _phase()
    fast = [_outcome(i, 0.004) for i in range(400)]
    slow = [_outcome(i, 0.050) for i in range(400)]
    phase.rounds = [fast, slow, fast, fast]
    assert phase.kept_rounds() == [fast, fast, fast]
    phase.rounds = [fast[:300], slow, fast[:300], fast[:300]]
    assert len(phase.kept_rounds()) == 4


def test_answered_latency_leaves_out_the_trace_fetch():
    traced = Outcome(0, 1.0, 1.0, 1.5, True, "miss", {"answered": 1.02})
    assert serve_phase.answered_latency(traced) == pytest.approx(0.02)
    assert traced.latency == pytest.approx(0.5)
    plain = Outcome(0, 1.0, 1.0, 1.03, True, "hit")
    assert serve_phase.answered_latency(plain) == pytest.approx(0.03)


def test_kill_and_wait_reaps_a_straggler():
    import subprocess
    import sys

    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        assert harness.kill_and_wait([proc.pid], timeout=0.2) == 1
    finally:
        proc.wait(timeout=10)
    assert proc.returncode == -9
    assert harness.kill_and_wait([proc.pid]) == 0


def test_result_payload_counts_failures():
    result = harness.Result(attempted=3)
    result.metric("x_ms", 1.5, "ms")
    result.fail("mismatch")
    payload = result.payload()
    assert payload == {
        "correct": False,
        "attempted": 3,
        "failed": 1,
        "metrics": {"x_ms": {"value": 1.5, "unit": "ms"}},
    }
    assert result.failures == {"mismatch": 1}


def test_history_appends(tmp_path):
    path = tmp_path / "history.jsonl"
    harness.append_history({"a": 1}, path)
    harness.append_history({"a": 2}, path)
    assert path.read_text().splitlines() == ['{"a": 1}', '{"a": 2}']

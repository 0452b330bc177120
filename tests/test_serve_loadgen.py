"""The closed-loop load driver (:func:`repro.serve.drive`) on fake handles.

``drive`` is the one client loop behind every soak, smoke and engine
bench, so its tally is pinned here status class by status class.
"""

import threading
import time

import pytest

from repro.serve import Response, drive


def observe(rng, step):
    return "/observe", {"step": step, "value": float(rng.random())}


class FakeHandle:
    """Answers observes with 200 and forecasts from a script, in order."""

    def __init__(self, forecasts=(), observe_s=0.0):
        self.forecasts = list(forecasts)
        self.observe_s = observe_s
        self.calls = []
        self.lock = threading.Lock()

    def __call__(self, method, path, body):
        with self.lock:
            self.calls.append((method, path, body))
            if method == "POST":
                time.sleep(self.observe_s)
                return Response(200, {"accepted": True})
            answer = self.forecasts.pop(0) if self.forecasts else Response(200, {})
        if isinstance(answer, Exception):
            raise answer
        return answer


class TestTally:
    def test_each_status_class(self):
        handle = FakeHandle([
            Response(200, {"degraded": None}),
            Response(200, {"degraded": "stale"}, {"X-Degraded": "stale"}),
            Response(200, {"degraded": "stale"}),  # header missing
            Response(200, {"degraded": None}, {"X-Degraded": "stale"}),  # body tag missing
            Response(429, {"error": "slow down"}, {"Retry-After": "3"}),
            Response(404, {"error": "no route"}),
            Response(503, {"error": "breaker open"}),
            RuntimeError("handler blew up"),
        ])
        report = drive(handle, observe, rounds=8)
        assert report.requests == 16
        assert report.forecasts == 8
        assert report.ok == 8 + 4  # every observe plus four 200 forecasts
        assert report.degraded == 2
        assert report.untagged_degraded == 2
        assert report.rejected == 1
        assert report.retry_after == "3"
        assert report.client_errors == 1
        assert report.server_errors == 1
        assert report.crashes == 1
        assert report.errors == 2
        assert report.availability == pytest.approx(1 - 2 / 16)

    def test_raising_handle_counts_crashes(self):
        def handle(method, path, body):
            raise ConnectionError("peer gone")

        report = drive(handle, observe, num_clients=2, rounds=3)
        assert report.requests == 12
        assert report.crashes == 12
        assert report.ok == 0
        assert report.availability == 0.0
        assert report.latency_ms_p50 == 0.0  # crashes carry no latency

    def test_forecast_percentiles_exclude_observe_latency(self):
        report = drive(FakeHandle(observe_s=0.02), observe, rounds=5)
        assert report.observe_latency_ms_p50 >= 20.0
        assert report.latency_ms_p99 < 10.0
        assert report.throughput_rps == pytest.approx(
            report.requests / report.duration_s
        )


class TestRequestSequence:
    def test_one_seed_one_sequence(self):
        first, second, other = FakeHandle(), FakeHandle(), FakeHandle()
        drive(first, observe, rounds=6, seed=3)
        drive(second, observe, rounds=6, seed=3)
        drive(other, observe, rounds=6, seed=4)
        assert first.calls == second.calls
        assert first.calls != other.calls

    def test_steps_shared_across_clients(self):
        handle = FakeHandle()
        report = drive(handle, observe, num_clients=3, rounds=4, start_step=100)
        steps = sorted(body["step"] for method, _, body in handle.calls
                       if method == "POST")
        assert steps == list(range(100, 112))
        assert report.num_clients == 3 and report.forecasts == 12

    def test_forecast_path_from_callable(self):
        handle = FakeHandle()
        drive(handle, observe, lambda rng: f"/forecast?node={rng.integers(4)}",
              rounds=5)
        paths = [path for method, path, _ in handle.calls if method == "GET"]
        assert len(paths) == 5
        assert all(p.startswith("/forecast?node=") for p in paths)

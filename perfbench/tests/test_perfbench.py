"""Tests of the benchmark's own load generator and accounting.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import loadgen  # noqa: E402
import serving  # noqa: E402

SHAPE = (2, 3, 1)


def _schedule(seed: int, mix: str):
    feed = np.random.default_rng(0).normal(60.0, 5.0, (50, 3, 2))
    traffic = serving.Traffic(mix, feed, start_row=7, input_length=4,
                              rng=np.random.default_rng([seed, 2]))
    requests = serving.schedule(traffic, np.random.default_rng([seed, 3]), 30.0, 2.0)
    return [(r.kind, r.method, r.path, r.body, r.cache_eligible, r.due) for r in requests]


@pytest.mark.parametrize("mix", ["sensor", "network"])
def test_schedule_is_identical_for_the_same_seed(mix):
    assert _schedule(5, mix) == _schedule(5, mix)
    assert _schedule(5, mix) != _schedule(6, mix)


def test_sensor_mix_makes_lone_forecasts_cache_eligible():
    feed = np.zeros((50, 4, 1))
    traffic = serving.Traffic("sensor", feed, 0, 4, np.random.default_rng(1))
    requests = [traffic.next() for _ in range(2000)]
    previous = None
    for request in requests:
        if request.kind == "forecast":
            assert request.cache_eligible == (previous == "forecast")
        previous = request.kind
    share = np.mean([r.cache_eligible for r in requests if r.kind == "forecast"])
    assert share == pytest.approx(0.4, abs=0.01)


def test_network_mix_sends_fresh_readings_before_every_forecast():
    feed = np.zeros((50, 4, 1))
    traffic = serving.Traffic("network", feed, 0, 4, np.random.default_rng(1))
    kinds = [traffic.next().kind for _ in range(40)]
    block = ["observe"] * serving.NETWORK_OBSERVES_PER_FORECAST + ["forecast"]
    assert kinds == block * (40 // len(block))


class _FakeHandler(BaseHTTPRequestHandler):
    """Answers with one write per response; behaviour set per test."""

    protocol_version = "HTTP/1.1"
    behaviour = None  # callable(handler, path) -> (status, headers, body bytes) or None

    def log_message(self, *args):
        pass

    def _answer(self):
        length = int(self.headers.get("Content-Length", 0))
        if length:
            self.rfile.read(length)
        reply = type(self).behaviour(self, self.path)
        if reply is None:  # drop the connection without answering
            self.close_connection = True
            self.connection.shutdown(2)
            return
        status, headers, body = reply
        head = f"HTTP/1.1 {status} X\r\nContent-Length: {len(body)}\r\n"
        head += "".join(f"{k}: {v}\r\n" for k, v in headers.items())
        self.wfile.write(head.encode() + b"\r\n" + body)

    do_GET = do_POST = _answer  # noqa: N815


class _FakeServer:
    def __init__(self, behaviour):
        handler = type("Handler", (_FakeHandler,), {"behaviour": staticmethod(behaviour)})
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self.server.daemon_threads = True
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self.server.server_address[:2]

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


def _forecast_body(value=1.0) -> bytes:
    return json.dumps({"prediction": np.full(SHAPE, value).tolist(), "cached": False}).encode()


def test_a_stall_shows_in_the_latency_tail_not_only_in_lag():
    lock = threading.Lock()
    calls = [0]

    def behaviour(_handler, _path):
        with lock:  # the whole server pauses once, like a long GC
            calls[0] += 1
            if calls[0] == 20:
                time.sleep(0.3)
        return 200, {}, _forecast_body()

    due = [i * 0.01 for i in range(100)]  # 100 rps for one second
    requests = [loadgen.Request("forecast", "GET", "/forecast", due=at) for at in due]
    with _FakeServer(behaviour) as (host, port):
        results = loadgen.run_open_loop(host, port, requests, 1.0, connections=2, timeout_s=3.0)
    for result in results:
        loadgen.classify(result, SHAPE)
    assert all(r.outcome == "ok" for r in results)
    latencies = [r.latency_ms for r in results]
    pct, tail, beyond = loadgen.tail_percentile(latencies)
    assert beyond >= 10
    assert tail > 100.0, (pct, tail)
    # Requests due during the pause were sent late: their latency counts
    # the wait, which a send-time clock (the round trip) would hide.
    queued = [r for r in results if r.lag_ms > 50.0]
    assert len(queued) >= 10
    assert np.median([r.rtt_ms for r in queued]) < 100.0


def test_refusals_degraded_and_bad_answers_count_as_failed():
    answers = {
        "/a": (429, {"Retry-After": "1"}, b'{"error": "saturated"}'),
        "/b": (503, {"Retry-After": "1"}, b'{"error": "open breaker"}'),
        "/c": (200, {"X-Degraded": "stale"}, _forecast_body()),
        "/d": (200, {}, _forecast_body(float("nan"))),
        "/e": (200, {}, b"not json"),
        "/f": (200, {}, json.dumps({"prediction": [[1.0]]}).encode()),
        "/g": (200, {}, _forecast_body()),
        "/o": (200, {}, b'{"accepted": false}'),
        "/p": (200, {}, b'{"accepted": true}'),
    }

    def behaviour(_handler, path):
        if path == "/slow":
            time.sleep(1.0)
        if path == "/drop":
            return None
        return answers.get(path, (200, {}, _forecast_body()))

    paths = ["/a", "/b", "/c", "/d", "/e", "/f", "/g", "/drop", "/slow"]
    requests = [loadgen.Request("forecast", "GET", p, due=0.01 * i) for i, p in enumerate(paths)]
    requests += [loadgen.Request("observe", "POST", p, b"{}", due=0.1) for p in ("/o", "/p")]
    requests.append(loadgen.Request("forecast", "GET", "/g", due=30.0))  # never sent in time
    with _FakeServer(behaviour) as (host, port):
        results = loadgen.run_open_loop(host, port, requests, 1.0, connections=1, timeout_s=0.5)
    outcomes = {}
    for result in results:
        loadgen.classify(result, SHAPE)
        outcomes[result.request.path + ("" if result.request.kind == "forecast" else "!")] = result.outcome
    assert outcomes == {
        "/a": "http_error", "/b": "http_error", "/c": "degraded", "/d": "malformed",
        "/e": "malformed", "/f": "malformed", "/g": "pending", "/drop": "reset",
        "/slow": "timeout", "/o!": "rejected", "/p!": "ok",
    }
    counts = loadgen.tally(results)
    assert counts["attempted"] == 12
    assert counts["succeeded"] == 2  # the first /g and /p
    assert counts["failed"] == 10


@pytest.mark.parametrize("n", list(range(1, 60)) + [99, 100, 101, 199, 200, 999, 1000, 1001, 10000])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    values = list(np.random.default_rng(n).permutation(n).astype(float))
    pct, value, beyond = loadgen.tail_percentile(values)
    greater = sum(1 for v in values if v > value)
    assert greater == beyond
    if n >= 20:
        assert beyond >= 10
        ladder = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
        higher = [p for p in ladder if p > pct]
        for p in higher:  # every higher rung would leave fewer than ten beyond
            assert n - int(np.ceil(p / 100.0 * n)) < 10
    else:
        assert pct == 50.0

"""Serving side of a run: server processes, seeded traffic, phase metrics."""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import loadgen
from loadgen import HttpConnection, Request

#: the repo's engine/HTTP parity tolerance (tests compare with atol=1e-6)
PARITY_ATOL = 1e-6
READY_TIMEOUT_S = 120.0
#: full-network observes before each forecast of the network mix
NETWORK_OBSERVES_PER_FORECAST = 3
STOP_TIMEOUT_S = 20.0


def child_env(root: Path) -> dict:
    """Environment of every child: the checkout's sources, one BLAS thread.

    With OpenBLAS's default of one thread per core, the server's spinning
    BLAS threads and the load generator fight over the two cores, and
    runs flip between two speed regimes; one thread per child keeps the
    split fixed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


class ServerProcess:
    """A serving child process that prints ``serving on http://host:port``."""

    def __init__(self, argv: list[str], root: Path, log_path: Path):
        env = child_env(root)
        self.started = time.perf_counter()
        self._log = open(log_path, "ab")
        # Unbuffered: a buffered readline could pull the address line into
        # Python's buffer where the select() below no longer sees it.
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log, bufsize=0,
        )
        self.host, self.port = self._await_address()

    def _await_address(self) -> tuple[str, int]:
        deadline = self.started + READY_TIMEOUT_S
        line = b""
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                text = line.decode("utf-8", "replace").strip()
                if text.startswith("serving on http://"):
                    host, port = text.rsplit("/", 1)[-1].rsplit(":", 1)
                    return host, int(port)
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError(f"server did not come up: {self.proc.args}")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self, sig: int = signal.SIGINT) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def serve_argv(bundle: Path) -> list[str]:
    """``repro serve`` with its default configuration on an ephemeral port."""
    return [sys.executable, "-m", "repro.cli", "serve", "--bundle", str(bundle), "--port", "0"]


def traced_argv(bundle: Path, spans_out: Path) -> list[str]:
    script = Path(__file__).resolve().parent / "traced_server.py"
    return [sys.executable, str(script), "--bundle", str(bundle), "--spans-out", str(spans_out)]


def _json(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _forecast() -> Request:
    return Request("forecast", "GET", "/forecast")


class Traffic:
    """The seeded request stream of one workload over its feed.

    ``mix="sensor"``: blocks of five forecasts in seeded order, three
    after runs of 1, 2 and 3 per-sensor observes and two alone. The lone
    ones see no write since the previous forecast, so 40% of forecasts
    are cache-eligible: about half, yet far enough from it that the
    forecast median does not straddle the cached and fresh modes.
    ``mix="network"``: three full-network observes, then a forecast, so
    every forecast needs a fresh forward.
    """

    def __init__(self, mix: str, feed: np.ndarray, start_row: int, input_length: int,
                 rng: np.random.Generator):
        self.mix = mix
        self.feed = feed
        self.input_length = input_length
        self.rng = rng
        self.warm_step = start_row
        self.step = start_row + input_length + 1  # after the set-up warm-up
        self._order = self.rng.permutation(feed.shape[1])
        self._node = 0
        self._pending: list[Request] = []
        self._slots: list[int] = []  # observes before each forecast of a block
        self._count = 0

    def reading(self, step: int) -> np.ndarray:
        return self.feed[step % self.feed.shape[0]]

    def network_observe(self, step: int) -> Request:
        return Request("observe", "POST", "/observe",
                       _json({"step": int(step), "values": self.reading(step).tolist()}))

    def _sensor_observe(self) -> Request:
        node = int(self._order[self._node])
        body = _json({"step": int(self.step), "node": node,
                      "features": self.reading(self.step)[node].tolist()})
        self._node += 1
        if self._node == len(self._order):
            self._node = 0
            self.step += 1
        return Request("observe", "POST", "/observe", body)

    def next(self) -> Request:
        if not self._pending:
            if self.mix == "network":
                self._pending = [self.network_observe(self.step + i)
                                 for i in range(NETWORK_OBSERVES_PER_FORECAST)] + [_forecast()]
                self.step += NETWORK_OBSERVES_PER_FORECAST
            else:
                if not self._slots:
                    self._slots = [int(v) for v in self.rng.permutation([0, 0, 1, 2, 3])]
                runs = self._slots.pop()
                forecast = _forecast()
                forecast.cache_eligible = runs == 0
                self._pending = [self._sensor_observe() for _ in range(runs)] + [forecast]
        request = self._pending.pop(0)
        request.ident = str(self._count)
        self._count += 1
        return request


def schedule(traffic: Traffic, rng: np.random.Generator, rate_rps: float,
             duration_s: float) -> list[Request]:
    """One open-loop phase: the next requests of ``traffic`` at Poisson
    arrival times over ``duration_s``, each with its due time set."""
    due = loadgen.arrival_times(rng, rate_rps, duration_s)
    requests = [traffic.next() for _ in due]
    for request, at in zip(requests, due):
        request.due = at
    return requests


def warm_up(conn: HttpConnection, traffic: Traffic) -> list[loadgen.Result]:
    """Fill the window, then compile (first forecast) and validate the plan
    (a forecast after one more observation). Returns every exchange."""
    start = traffic.warm_step
    requests = [traffic.network_observe(s) for s in range(start, start + traffic.input_length)]
    requests += [_forecast(), traffic.network_observe(start + traffic.input_length), _forecast()]
    return [exchange(conn, r) for r in requests]


def exchange(conn: HttpConnection, request: Request) -> loadgen.Result:
    result = loadgen.Result(request)
    origin = time.perf_counter()
    request.due = 0.0
    loadgen.send(conn, result, origin)
    return result


def parity_check(conn: HttpConnection, traffic: Traffic, parity: dict,
                 shape: tuple[int, ...]) -> tuple[bool, list[loadgen.Result], str]:
    """Post the parity window, fetch its forecast, compare to the offline one."""
    requests = [traffic.network_observe(s) for s in parity["steps"]] + [_forecast()]
    results = [exchange(conn, r) for r in requests]
    payloads = [loadgen.classify(r, shape) for r in results]
    if any(r.outcome != "ok" for r in results):
        return False, results, "parity exchange failed"
    online = payloads[-1]["prediction"]
    expect = np.asarray(parity["expect"])
    if online.shape != expect.shape or not np.allclose(online, expect, rtol=1e-7, atol=PARITY_ATOL):
        diff = float(np.max(np.abs(online - expect))) if online.shape == expect.shape else float("inf")
        return False, results, f"served forecast differs from the offline forward (max |diff| {diff:.3g})"
    return True, results, ""


def phase_summary(name: str, results: list[loadgen.Result]) -> str:
    t = loadgen.tally(results)
    return (f"{name}: sent {t['sent']} succeeded {t['succeeded']} failed {t['failed']} "
            + " ".join(f"{k}={v}" for k, v in t["by_outcome"].items() if v and k != "ok"))

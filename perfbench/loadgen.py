"""Seeded open- and closed-loop load over persistent HTTP/1.1 connections.

The benchmark owns this load generator so the serving code it measures can be
rewritten without moving the measurement. Three rules shape it:

* every connection is persistent (keep-alive), as real clients connect,
  so per-connection stalls show up in latency instead of being hidden
  by a fresh connection per request;
* open-loop latency runs from each request's *scheduled* send time, so
  a stall also delays the requests queued behind it (no coordinated
  omission); how late the generator itself ran is reported as lag;
* every request ends in exactly one outcome class, and everything but
  ``ok`` counts as failed.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: outcome classes; all but "ok" count as failed
OUTCOMES = ("ok", "http_error", "degraded", "rejected", "timeout", "reset",
            "malformed", "pending")


@dataclass
class Request:
    kind: str  # "observe" | "forecast"
    method: str
    path: str
    body: bytes | None = None
    ident: str = ""  # sent as X-Bench-Id so a traced server can join its records
    due: float = 0.0  # scheduled send time, seconds after the phase start
    cache_eligible: bool = False  # forecast with no write since the previous one


@dataclass
class Result:
    request: Request
    sent: float | None = None  # seconds after phase start
    done: float | None = None
    status: int | None = None
    headers: dict = field(default_factory=dict)
    body: bytes = b""
    error: str | None = None  # "timeout" | "reset" when the socket failed
    outcome: str = "pending"

    @property
    def latency_ms(self) -> float:
        return (self.done - self.request.due) * 1e3

    @property
    def rtt_ms(self) -> float:
        return (self.done - self.sent) * 1e3

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.request.due) * 1e3


class ConnectionFailed(Exception):
    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


class HttpConnection:
    """One keep-alive HTTP/1.1 connection; reconnects after a failure."""

    def __init__(self, host: str, port: int, timeout_s: float):
        self.address = (host, port)
        self.timeout_s = timeout_s
        self.sock: socket.socket | None = None
        self.buffer = b""

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
        self.sock = None
        self.buffer = b""

    def request(self, method: str, path: str, body: bytes | None = None, ident: str = ""):
        """Send one request; returns ``(status, headers, body)``."""
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.address[0]}\r\n"
        if ident:
            head += f"X-Bench-Id: {ident}\r\n"
        if body is not None:
            head += ("Content-Type: application/json\r\n"
                     f"Content-Length: {len(body)}\r\n")
        data = (head + "\r\n").encode("ascii") + (body or b"")
        try:
            if self.sock is None:
                self.sock = socket.create_connection(self.address, timeout=self.timeout_s)
                # Real clients (urllib3, browsers) disable Nagle; the
                # server's own write pattern is what is being measured.
                self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock.sendall(data)
            status, headers, payload = self._read_response()
        except socket.timeout:
            self.close()
            raise ConnectionFailed("timeout") from None
        except (OSError, ValueError):
            self.close()
            raise ConnectionFailed("reset") from None
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, headers, payload

    def _recv(self) -> None:
        chunk = self.sock.recv(1 << 18)
        if not chunk:
            raise ConnectionResetError("server closed the connection")
        self.buffer += chunk

    def _read_response(self):
        while b"\r\n\r\n" not in self.buffer:
            self._recv()
        head, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        while len(self.buffer) < length:
            self._recv()
        payload, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, headers, payload


def arrival_times(rng: np.random.Generator, rate_rps: float, duration_s: float) -> list[float]:
    """Poisson arrivals at ``rate_rps`` over ``duration_s``, conditioned on
    their expected count: that many uniform points, sorted. Fixing the
    count removes one source of run-to-run spread without changing the
    shape of the arrival process."""
    count = int(round(rate_rps * duration_s))
    return sorted(float(t) for t in rng.uniform(0.0, duration_s, count))


def send(conn: HttpConnection, result: Result, origin: float) -> None:
    """One exchange on ``conn``, timed against ``origin``."""
    request = result.request
    result.sent = time.perf_counter() - origin
    try:
        result.status, result.headers, result.body = conn.request(
            request.method, request.path, request.body, request.ident
        )
    except ConnectionFailed as error:
        result.error = error.kind
    result.done = time.perf_counter() - origin


def run_open_loop(
    host: str, port: int, requests: list[Request], duration_s: float,
    connections: int = 2, timeout_s: float = 5.0,
) -> list[Result]:
    """Send ``requests`` at their due times over ``connections`` sockets.

    A request waits for a free connection when all are busy; its latency
    still counts from its due time. Requests not started by the end of
    the phase plus ``timeout_s`` stay ``pending`` (and fail).
    """
    results = [Result(r) for r in requests]
    lock = threading.Lock()
    cursor = [0]
    origin = time.perf_counter() + 0.05
    cutoff = duration_s + timeout_s

    def worker() -> None:
        conn = HttpConnection(host, port, timeout_s)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(results):
                    return
                result = results[index]
                wait = result.request.due - (time.perf_counter() - origin)
                if wait > 0:
                    time.sleep(wait)
                if time.perf_counter() - origin > cutoff:
                    return
                send(conn, result, origin)
        finally:
            conn.close()

    _run_workers(worker, connections)
    return results


def run_closed_loop(
    host: str, port: int, next_request, duration_s: float,
    connections: int = 2, timeout_s: float = 5.0,
) -> list[Result]:
    """Back-to-back requests from ``next_request()`` on each connection.

    Only requests sent inside the phase are returned; each has its due
    time set to its send time (closed-loop latency is plain RTT).
    """
    results: list[Result] = []
    lock = threading.Lock()
    origin = time.perf_counter()

    def worker() -> None:
        conn = HttpConnection(host, port, timeout_s)
        try:
            while time.perf_counter() - origin < duration_s:
                with lock:
                    request = next_request()
                request.due = time.perf_counter() - origin
                result = Result(request)
                send(conn, result, origin)
                with lock:
                    results.append(result)
        finally:
            conn.close()

    _run_workers(worker, connections)
    return results


def _run_workers(worker, connections: int) -> None:
    """Run ``worker`` on ``connections`` threads, the caller's included."""
    errors: list[BaseException] = []

    def guarded() -> None:
        try:
            worker()
        except BaseException as error:  # re-raised in the caller below
            errors.append(error)

    threads = [threading.Thread(target=guarded, daemon=True) for _ in range(connections - 1)]
    for thread in threads:
        thread.start()
    guarded()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def classify(result: Result, expect_shape: tuple[int, ...] | None) -> dict | None:
    """Set ``result.outcome``; returns the parsed JSON body when ok.

    ``expect_shape`` is the ``(horizon, N, D_out)`` a forecast must have.
    A forecast that is not finite or has the wrong shape is ``malformed``.
    """
    if result.done is None:
        result.outcome = "pending"
        return None
    if result.error is not None:
        result.outcome = result.error
        return None
    if result.status != 200:
        result.outcome = "http_error"
        return None
    if result.headers.get("x-degraded"):
        result.outcome = "degraded"
        return None
    try:
        payload = json.loads(result.body)
    except (ValueError, UnicodeDecodeError):
        result.outcome = "malformed"
        return None
    if not isinstance(payload, dict):
        result.outcome = "malformed"
        return None
    if result.request.kind == "forecast":
        try:
            prediction = np.asarray(payload["prediction"], dtype=np.float64)
        except (KeyError, TypeError, ValueError):
            result.outcome = "malformed"
            return None
        if prediction.shape != expect_shape or not np.all(np.isfinite(prediction)):
            result.outcome = "malformed"
            return None
        payload["prediction"] = prediction
    elif result.request.kind == "observe":
        if payload.get("accepted") is not True:
            result.outcome = "rejected"
            return None
    result.outcome = "ok"
    return payload


def tail_percentile(values) -> tuple[float, float, int]:
    """``(percentile, value, beyond)``: the highest percentile on a fixed
    ladder that keeps at least ten samples strictly beyond its rank.

    Falls back to the median (with fewer than ten beyond) when the sample
    is too small for any rung.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 50.0, float("nan"), 0
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, math.ceil(pct / 100.0 * n))  # nearest-rank, 1-based
        if n - rank >= 10:
            return pct, float(ordered[rank - 1]), n - rank
    rank = max(1, math.ceil(n / 2))
    return 50.0, float(ordered[rank - 1]), n - rank


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64))) if len(values) else float("nan")


def tally(results: list[Result]) -> dict:
    """Outcome counts for one phase."""
    counts = {name: 0 for name in OUTCOMES}
    for result in results:
        counts[result.outcome] += 1
    sent = sum(1 for r in results if r.sent is not None)
    return {"attempted": len(results), "sent": sent, "succeeded": counts["ok"],
            "failed": len(results) - counts["ok"], "by_outcome": counts}

"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload rihgcn-serve16-train64 --seed 1 --seconds 20 --trace 0

Each run prepares and trains the workload's model in a child process
(``prepare.py``), serves the exported bundle with ``repro serve`` in
another, drives seeded traffic over two keep-alive sockets, and checks
every forecast. ``--trace 0`` prints the end-to-end metrics; ``--trace
1`` runs the traffic against an untraced and a traced server
(``traced_server.py``) plus a profiled training run, and prints the
per-layer metrics. The last stdout line is the JSON result; the exit
code is 1 when any output was incorrect, 2 when the sources to measure
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import loadgen  # noqa: E402
import serving  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

PREPARE_TIMEOUT_S = 150.0
REQUEST_TIMEOUT_S = 5.0
CLOSED_ROUNDS = 4
CLOSED_SHARE = 0.3  # share of --seconds spent in the closed-loop goodput phase
SETUP_RUNS = 3  # server set-ups per run; setup_s is their median


def log(message: str) -> None:
    print(message, flush=True)


def prepare(workload: Workload, seed: int, workdir: Path, trace: bool) -> dict:
    argv = [sys.executable, str(HERE / "prepare.py"), "--workload", workload.name,
            "--seed", str(seed), "--workdir", str(workdir), "--trace", str(int(trace))]
    with open(workdir / "prepare.log", "wb") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=serving.child_env(ROOT), stdout=err, stderr=err)
        try:
            code = proc.wait(PREPARE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("prepare timed out") from None
    if code != 0:
        raise RuntimeError(f"prepare failed:\n{(workdir / 'prepare.log').read_text()[-2000:]}")
    with open(workdir / "prepare.json") as handle:
        return json.load(handle)


class Session:
    """One workload run's shared state: feed, parity window, outcomes."""

    def __init__(self, workload: Workload, seed: int, seconds: float, workdir: Path, prep: dict):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.prep = prep
        self.feed = np.load(workdir / "feed.npy")
        self.shape = np.asarray(prep["parity"]["expect"]).shape  # (horizon, N, D_out)
        self.results: list[loadgen.Result] = []
        self.errors: list[str] = []

    def traffic(self) -> serving.Traffic:
        return serving.Traffic(self.workload.mix, self.feed, self.prep["start_row"],
                               self.prep["input_length"], np.random.default_rng([self.seed, 2]))

    def schedule(self, traffic: serving.Traffic, duration: float) -> list[loadgen.Request]:
        return serving.schedule(traffic, np.random.default_rng([self.seed, 3]),
                                self.workload.rate_rps, duration)

    def account(self, name: str, results: list[loadgen.Result]) -> list[loadgen.Result]:
        """Classify, keep and print one phase's outcomes."""
        for result in results:
            loadgen.classify(result, self.shape)
            if result.outcome == "malformed" and result.request.kind == "forecast" \
                    and result.status == 200:
                self.errors.append(f"{name}: a 200 forecast was non-finite or mis-shaped")
        self.results.extend(results)
        log(serving.phase_summary(name, results))
        return results

    def start(self, argv: list[str], name: str):
        """Spawn a server and warm it up; returns (server, connection, traffic, setup_s)."""
        server = serving.ServerProcess(argv, ROOT, self.workdir / "server.log")
        conn = loadgen.HttpConnection(server.host, server.port, REQUEST_TIMEOUT_S)
        traffic = self.traffic()
        try:
            warm = self.account(name, serving.warm_up(conn, traffic))
        except BaseException:
            conn.close()
            server.stop()
            raise
        setup_s = time.perf_counter() - server.started
        if warm[-1].outcome != "ok":
            self.errors.append(f"{name}: warm-up forecast failed ({warm[-1].outcome})")
        return server, conn, traffic, setup_s

    def parity(self, conn, traffic, name: str) -> None:
        ok, results, why = serving.parity_check(conn, traffic, self.prep["parity"], self.shape)
        self.account(name, results)
        if not ok:
            self.errors.append(f"{name}: {why}")


def end_to_end(session: Session) -> dict:
    workload, prep = session.workload, session.prep
    bundle = session.workdir / "bundle"
    setups = []
    for index in range(SETUP_RUNS):
        server, conn, traffic, setup_s = session.start(serving.serve_argv(bundle), f"setup[{index}]")
        setups.append(setup_s)
        if index < SETUP_RUNS - 1:
            conn.close()
            server.stop()
    try:
        duration = workload.open_share * session.seconds
        requests = session.schedule(traffic, duration)
        opened = session.account("open-loop", loadgen.run_open_loop(
            server.host, server.port, requests, duration, timeout_s=REQUEST_TIMEOUT_S))
        # Goodput is the median of short closed-loop rounds, each on fresh
        # connections, so one slow stretch of the machine moves one round.
        round_s = CLOSED_SHARE * session.seconds / CLOSED_ROUNDS
        rounds = [session.account(f"closed-loop[{index}]", loadgen.run_closed_loop(
            server.host, server.port, traffic.next, round_s, timeout_s=REQUEST_TIMEOUT_S))
            for index in range(CLOSED_ROUNDS)]
        session.parity(conn, traffic, "parity")
        server_rss = server.peak_rss_mb()
    finally:
        conn.close()
        server.stop()

    forecasts = [r.latency_ms for r in opened if r.outcome == "ok" and r.request.kind == "forecast"]
    observes = [r.latency_ms for r in opened if r.outcome == "ok" and r.request.kind == "observe"]
    f_pct, f_tail, f_beyond = loadgen.tail_percentile(forecasts)
    o_pct, o_tail, o_beyond = loadgen.tail_percentile(observes)
    lag_pct, lag_tail, _ = loadgen.tail_percentile([r.lag_ms for r in opened if r.sent is not None])
    goodput = [sum(1 for r in closed if r.outcome == "ok" and r.rtt_ms <= workload.latency_limit_ms)
               / round_s for closed in rounds]
    eligible = [r.cache_eligible for r in requests if r.kind == "forecast"]
    log(f"forecast tail = p{f_pct:g} of {len(forecasts)} ({f_beyond} beyond); "
        f"observe tail = p{o_pct:g} of {len(observes)} ({o_beyond} beyond); "
        f"lag p{lag_pct:g} {lag_tail:.3f} ms; cache-eligible forecasts "
        f"{np.mean(eligible) if eligible else 0.0:.3f}; offered {workload.rate_rps:g} rps, "
        f"limit {workload.latency_limit_ms:g} ms")

    attempted = len(session.results)
    failed = sum(1 for r in session.results if r.outcome != "ok")
    return {
        "setup_s": float(np.median(setups)),
        "forecast_p50_ms": loadgen.median(forecasts),
        "forecast_tail_ms": f_tail,
        "observe_p50_ms": loadgen.median(observes),
        "observe_tail_ms": o_tail,
        "goodput_rps": float(np.median(goodput)),
        "success_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": server_rss,
        "train_windows_per_s": prep["train_windows_per_s"],
        "test_mae": prep["test_mae"],
    }


def per_layer(session: Session) -> dict:
    bundle = session.workdir / "bundle"
    # Each server gets a schedule half as long as the end-to-end one:
    # per-layer medians need fewer samples, and both fit in one run.
    duration = session.workload.open_share * session.seconds / 2

    def drive(argv, name, sig):
        server, conn, traffic, _ = session.start(argv, f"{name} setup")
        requests = session.schedule(traffic, duration)
        try:
            results = session.account(name, loadgen.run_open_loop(
                server.host, server.port, requests, duration, timeout_s=REQUEST_TIMEOUT_S))
            session.parity(conn, traffic, f"{name} parity")
        finally:
            conn.close()
            server.stop(sig)
        return requests, results

    _, plain = drive(serving.serve_argv(bundle), "untraced", signal.SIGINT)
    spans_out = session.workdir / "spans.json"
    requests, traced = drive(serving.traced_argv(bundle, spans_out), "traced", signal.SIGTERM)
    with open(spans_out) as handle:
        dump = json.load(handle)

    out = layers.serving_layers(traced, dump)
    out.update(layers.training_layers(session.prep["trace"]))
    sent = [r for r in plain if r.sent is not None]
    _, lag_tail, _ = loadgen.tail_percentile([r.lag_ms for r in sent])
    eligible = [r.cache_eligible for r in requests if r.kind == "forecast"]
    plain_rtt = loadgen.median([r.rtt_ms for r in plain if r.outcome == "ok"])
    traced_rtt = loadgen.median([r.rtt_ms for r in traced if r.outcome == "ok"])
    out.update({
        "loadgen.lag_tail_ms": lag_tail,
        "loadgen.sent": len(sent),
        "loadgen.cache_eligible_share": float(np.mean(eligible)) if eligible else 0.0,
        "trace.overhead_ratio": traced_rtt / plain_rtt,
    })
    return out


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    prep = prepare(workload, seed, workdir, trace)
    session = Session(workload, seed, seconds, workdir, prep)
    values = per_layer(session) if trace else end_to_end(session)
    if not trace and not np.isfinite(values["test_mae"]):
        session.errors.append("test MAE is not finite")
    for error in session.errors:
        log(f"INCORRECT: {error}")
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}")
    return {
        "correct": not session.errors,
        "attempted": len(session.results),
        "failed": sum(1 for r in session.results if r.outcome != "ok"),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

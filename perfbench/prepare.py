"""Child process: build a workload's model, bundle, feed and training numbers.

Run by ``run.py`` as ``python perfbench/prepare.py --workload W --seed S
--workdir D [--trace 1]``. Writes into ``D``:

* ``bundle.json`` / ``bundle.npz`` — the bundle ``repro serve`` loads;
* ``feed.npy`` — ``(T, N, D)`` readings in data units; absolute step
  ``s`` is row ``s % T``;
* ``prepare.json`` — training metrics and the parity window with the
  offline eager forecast the server must match.

Training runs here, in its own process, so the profiler's hooks never
touch the load generator.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

from repro.autodiff import default_dtype, inference_mode  # noqa: E402
from repro.datasets import WindowSet  # noqa: E402
from repro.experiments import (  # noqa: E402
    DataConfig,
    ModelConfig,
    build_model,
    prepare_context,
    run_model,
)
from repro.serve import export_bundle, load_bundle, make_demo_bundle  # noqa: E402
from repro.telemetry import Callback, Profiler  # noqa: E402
from repro.training import Trainer, TrainerConfig  # noqa: E402

#: Datasets, weights and training are fixed, like a recorded dataset and
#: a fixed-seed training job: test_mae then moves only when the numbers
#: the code computes move. The run seed picks the traffic.
TRAIN_SEED = 0
#: far enough past any step the traffic reaches that the parity window
#: replaces the whole ring (a cold reset) and nothing else writes to it
PARITY_OFFSET = 50_000
CORRIDOR_ROWS = 600
CORRIDOR_TRAIN_WINDOWS = 8
CORRIDOR_VAL_WINDOWS = 4
CORRIDOR_TEST_WINDOWS = 4


def corridor_feed(rng: np.random.Generator, rows: int, nodes: int,
                  steps_per_day: int) -> np.ndarray:
    """Speeds (mph) with a daily cycle whose phase drifts along the corridor."""
    t = np.arange(rows)[:, None]
    phase = np.cumsum(rng.normal(0.0, 0.05, nodes))[None, :]
    base = 60.0 + 8.0 * np.sin(2.0 * np.pi * t / steps_per_day + phase)
    return (base + rng.normal(0.0, 2.0, (rows, nodes)))[..., None]


def feed_windows(feed: np.ndarray, scaler, starts, input_length: int,
                 output_length: int, steps_per_day: int) -> WindowSet:
    """Scaled supervised windows cut from a fully observed feed."""
    x = np.stack([feed[s:s + input_length] for s in starts])
    y = np.stack([feed[s + input_length:s + input_length + output_length] for s in starts])
    m = np.ones_like(x)
    dtype = default_dtype()
    return WindowSet(
        x=scaler.transform(x, m).astype(dtype),
        m=m.astype(dtype),
        y=scaler.transform(y).astype(dtype),
        y_mask=np.ones_like(y, dtype=dtype),
        steps_of_day=np.stack([(s + np.arange(input_length)) % steps_per_day for s in starts]),
        horizon_steps=np.arange(1, output_length + 1),
    )


class StepTimer(Callback):
    """Times the trainer's forward, optimizer step and validation pass.

    Wraps instance attributes only (``trainer._batch_loss``,
    ``trainer.optimizer.step``, ``trainer.evaluate_loss``); backward is
    the rest of each step, so it includes ``zero_grad`` and clipping.
    """

    def __init__(self):
        self.epoch = 0
        self.rows: list[dict] = []  # one per batch: epoch, step, forward, optim
        self.eval_s: dict[int, float] = {}
        self._forward = self._optim = 0.0
        self._mark = 0.0

    def on_fit_start(self, trainer) -> None:
        forward, step, evaluate = trainer._batch_loss, trainer.optimizer.step, trainer.evaluate_loss

        def timed_forward(batch):
            start = time.perf_counter()
            loss = forward(batch)
            self._forward = time.perf_counter() - start
            return loss

        def timed_step():
            start = time.perf_counter()
            step()
            self._optim = time.perf_counter() - start

        def timed_eval(windows):
            start = time.perf_counter()
            value = evaluate(windows)
            self.eval_s[self.epoch] = time.perf_counter() - start
            return value

        trainer._batch_loss = timed_forward
        trainer.optimizer.step = timed_step
        trainer.evaluate_loss = timed_eval

    def on_epoch_start(self, trainer, epoch) -> None:
        self.epoch = epoch
        self._mark = time.perf_counter()

    def on_batch_end(self, trainer, epoch, batch_index, loss, grad_norm) -> None:
        now = time.perf_counter()
        self.rows.append({"epoch": epoch, "step": now - self._mark,
                          "forward": self._forward, "optim": self._optim})
        self._mark = now


def training_trace(timer: StepTimer, profiler: Profiler) -> dict:
    """Per-layer training numbers. Epoch 0 (warm-up) and the profiled
    epoch, whose op hooks distort wall times, are left out of the timings."""
    rows = [r for r in timer.rows if r["epoch"] >= 1 and r["epoch"] != profiler.epoch]
    epochs = sorted({r["epoch"] for r in rows})
    per_epoch = len(epochs)
    out = {
        "train.step_ms": float(np.median([r["step"] for r in rows])) * 1e3,
        "train.optim_step_ms": float(np.median([r["optim"] for r in rows])) * 1e3,
        "train.forward_s": sum(r["forward"] for r in rows) / per_epoch,
        "train.backward_s": sum(r["step"] - r["forward"] - r["optim"] for r in rows) / per_epoch,
        "train.eval_s": (float(np.mean([timer.eval_s[e] for e in epochs if e in timer.eval_s]))
                         if any(e in timer.eval_s for e in epochs) else 0.0),
    }
    stats = profiler.profiler.stats
    profiled = [r for r in timer.rows if r["epoch"] == profiler.epoch]
    out["ops"] = {
        op: {"fwd_s": s.forward_seconds, "bwd_s": s.backward_seconds,
             "alloc_mb": s.alloc_bytes / 1e6}
        for op, s in stats.items()
    }
    # Forward time the op profiler leaves unattributed (ops it does not
    # time, such as the fused graph propagation), measured by difference.
    out["train.op.untimed_fwd_s"] = max(
        0.0, sum(r["forward"] for r in profiled) - sum(s.forward_seconds for s in stats.values())
    )
    return out


def fit(model, train: WindowSet, val: WindowSet | None, config: TrainerConfig, trace: bool):
    trainer = Trainer(model, config)
    callbacks = []
    timer = profiler = None
    if trace:
        timer, profiler = StepTimer(), Profiler(epoch=1, top=None)
        callbacks = [timer, profiler]
    history = trainer.fit(train, val, callbacks=callbacks)
    return trainer, history, (training_trace(timer, profiler) if trace else None)


def windows_per_s(num_windows: int, epoch_seconds: list[float]) -> float:
    """Training throughput: the median epoch after the first (warm-up)."""
    return num_windows / float(np.median(epoch_seconds[1:]))


def offline_forecast(bundle, values: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Eager no-grad forecast of a fully observed window, in data units."""
    dtype = default_dtype()
    x = np.asarray(values, dtype=dtype)[None]
    m = np.ones_like(x)
    steps_of_day = (steps % bundle.data_config.steps_per_day)[None]
    with inference_mode():
        scaled = bundle.model(bundle.scaler.transform(x, m), m, steps_of_day).prediction.data
    return np.asarray(bundle.scaler.inverse_transform(scaled), dtype=np.float64)[0]


def prepare_rihgcn(workload, workdir: Path, trace: bool) -> dict:
    def context(nodes: int):
        # Euclidean interval distances: the paper's DTW partition search
        # costs about 50 s per build at N=64, more than a run can spend.
        return prepare_context(
            DataConfig(num_nodes=nodes, num_days=3, stride=6, missing_rate=0.4, seed=TRAIN_SEED),
            ModelConfig(series_metric="euclidean", seed=TRAIN_SEED),
        )

    served = context(workload.nodes)
    export_bundle(build_model("RIHGCN", served), "RIHGCN", served, str(workdir / "bundle"))
    raw = served.raw.truth if served.raw.truth is not None else served.raw.data
    np.save(workdir / "feed.npy", np.asarray(raw, dtype=np.float64))

    ctx = context(workload.train_nodes)
    config = TrainerConfig(max_epochs=workload.epochs, patience=workload.epochs + 1,
                           seed=TRAIN_SEED)
    if trace:
        *_, traced = fit(build_model("RIHGCN", ctx), ctx.train_windows, ctx.val_windows,
                         config, True)
        return {"trace": traced}
    result = run_model("RIHGCN", ctx, config)
    return {
        "train_windows_per_s": windows_per_s(ctx.train_windows.num_windows,
                                             result.extra["epoch_seconds"]),
        "test_mae": float(np.mean([p.mae for p in result.horizon_metrics.values()])),
    }


def prepare_corridor(workload, workdir: Path, trace: bool) -> dict:
    bundle = make_demo_bundle(str(workdir / "bundle"), num_nodes=workload.nodes,
                              model_name=workload.model, seed=TRAIN_SEED)
    spd = bundle.data_config.steps_per_day
    feed = corridor_feed(np.random.default_rng(TRAIN_SEED), CORRIDOR_ROWS, workload.nodes, spd)
    np.save(workdir / "feed.npy", feed)

    span = bundle.input_length + bundle.output_length
    args = (bundle.input_length, bundle.output_length, spd)
    # Consecutive train / validation / test slices, ``span`` rows apart so
    # no window's targets overlap the next slice's inputs.
    slices, start = [], 0
    for count in (CORRIDOR_TRAIN_WINDOWS, CORRIDOR_VAL_WINDOWS, CORRIDOR_TEST_WINDOWS):
        slices.append(feed_windows(feed, bundle.scaler, range(start, start + 3 * count, 3), *args))
        start += 3 * count + span
    train, val, test = slices
    config = TrainerConfig(max_epochs=workload.epochs, batch_size=4,
                           patience=workload.epochs + 1, seed=TRAIN_SEED)
    trainer, history, traced = fit(bundle.model, train, val, config, trace)
    if trace:
        return {"trace": traced}
    return {
        "train_windows_per_s": windows_per_s(train.num_windows, history.epoch_seconds),
        "test_mae": float(trainer.evaluate(test, scaler=bundle.scaler).mae),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    prepare = prepare_corridor if workload.model == "GCN-LSTM" else prepare_rihgcn
    out = prepare(workload, workdir, bool(args.trace))

    feed = np.load(workdir / "feed.npy")
    bundle = load_bundle(str(workdir / "bundle"))
    rng = np.random.default_rng([args.seed, 1])
    start_row = int(rng.integers(0, feed.shape[0]))
    parity_start = start_row + PARITY_OFFSET
    steps = np.arange(parity_start, parity_start + bundle.input_length)
    values = feed[steps % feed.shape[0]]
    out.update(
        start_row=start_row,
        input_length=bundle.input_length,
        parity={"steps": steps.tolist(),
                "expect": offline_forecast(bundle, values, steps).tolist()},
    )
    with open(workdir / "prepare.json", "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

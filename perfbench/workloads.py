"""The benchmark's workloads and the pipeline every workload runs.

One client drives papnf's public functions in a closed loop: each call
starts when the previous one has returned. A run sets up once, trains once
with ``fit`` to get the model it evaluates, and then, for ``--seconds``,
runs five kinds of task, always the one furthest behind its share of the
time:

* ``setup``: the set-up again (series, windows, model init, checkpoint round
  trip), for its time only;
* ``fit``: ``fit`` for one epoch from the initial weights;
* ``step``: one optimizer step of the benchmark's own step loop, which
  replays ``fit``'s epoch on a second model and must reproduce its loss and
  weights bitwise;
* ``eval``: ``evaluate_split`` at S=100 plus ``write_quantiles_csv``, the
  ``papnf eval`` path, at PAPNF_THREADS=1;
* ``window``: serial ``sample_forecasts`` calls at S=100, for per-window
  latency.

Interleaving the tasks spreads every metric's samples over the whole run,
so a stretch of slow machine hits all of them alike. ``eval`` runs serially
because the thread pool's throughput swings with other load on the second
CPU far more than serial work does; the pool runs once, untimed, after the
clock stops. Each task repeats the same work from the same weights and
seeds; only its timing varies. ``--seed`` makes the series; model init,
shuffling and latent draws use the fixed CONFIG_SEED.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import papnf.data as pdata
import papnf.evaluate as peval
import papnf.flow as pflow
import papnf.model as pmodel
import papnf.synthetic as psyn
import papnf.tensor as ptensor
import papnf.train as ptrain
from papnf.seeding import substream
from spans import SpanIndex, Tracer

CONFIG_SEED = 0
LOOKBACK = 96
HORIZON = 24
EVAL_SAMPLES = 100
MIN_SETUPS = 5
WINDOWS_PER_TASK = 8


@dataclass(frozen=True)
class Workload:
    series: str  # synthetic generator, called with the workload seed
    channels: int
    train_samples: int
    n_train: int  # windows per split
    n_val: int
    n_test: int
    shares: dict  # task -> share of --seconds
    # root span whose model-layer self times the per-window layer metrics
    # report: training steps, or the serial S=100 sampling loop
    primary: str


_TRAIN_SHARES = {"setup": 0.04, "fit": 0.3, "step": 0.48, "eval": 0.1, "window": 0.08}
WORKLOADS = {
    "train_s8": Workload("ar1_seasonal", 1, 8, 32, 16, 32, _TRAIN_SHARES, "bench.step"),
    "train_s32": Workload("ar1_seasonal", 1, 32, 32, 16, 32, _TRAIN_SHARES, "bench.step"),
    "eval_ett7_s100": Workload(
        "ett_like", 7, 8, 16, 8, 64,
        {"setup": 0.04, "fit": 0.15, "step": 0.25, "eval": 0.3, "window": 0.26}, "bench.window",
    ),
}

E2E_UNITS = {
    "setup_s": "s",
    "epoch_s": "s",
    "train_windows_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p75": "ms",
    "eval_windows_per_s": "1/s",
    "eval_window_ms_p50": "ms",
    "eval_window_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "tensor.tape_nodes_per_step": "count",
    "tensor.eval_graph_nodes_per_window": "count",
    "evaluate.threads": "count",
    "evaluate.pool_speedup": "ratio",
    "checkpoint.bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "train.val_mse": "mse",
    "metrics.weighted_crps": "crps",
    "metrics.coverage_90": "fraction",
}
# model layers reported per window of the workload's primary loop
MODEL_LAYERS = (
    "encoder.encode",
    "backbone.forward",
    "backbone.context",
    "flow.fuse",
    "flow.flow",
    "flow.recon",
)
SETUP_LAYERS = ("data.make_windows", "model.init", "checkpoint.save", "checkpoint.load")


def _unit(name: str) -> str:
    return E2E_UNITS.get(name) or LAYER_UNITS.get(name) or "ms"


# -- set-up ---------------------------------------------------------------------


@dataclass
class Setup:
    train: list
    val: list
    test: list
    model: pmodel.PapNfModel
    tcfg: ptrain.TrainConfig
    checkpoint_path: str


def _series(wl: Workload, seed: int, length: int):
    if wl.series == "ar1_seasonal":
        return psyn.ar1_seasonal(length, channels=wl.channels, seed=seed)
    return psyn.ett_like(length, seed=seed)


def _setup(wl: Workload, seed: int, tmp: str) -> Setup:
    """Series, windows, model init, and a checkpoint round trip."""
    span = LOOKBACK + HORIZON - 1
    lens = (wl.n_train + span, wl.n_val + span, wl.n_test + span)
    series = _series(wl, seed, sum(lens))
    parts = pdata.split_series(series, pdata.SplitSpec(*lens))
    train, val, test = (pdata.make_windows(p, LOOKBACK, HORIZON) for p in parts)
    cfg = pmodel.ModelConfig(lookback=LOOKBACK, horizon=HORIZON, channels=wl.channels)
    tcfg = ptrain.TrainConfig(
        model=cfg, epochs=1, seed=CONFIG_SEED, train_samples=wl.train_samples
    )
    model = pmodel.PapNfModel(cfg, seed=CONFIG_SEED)
    path = os.path.join(tmp, "init.papnf")
    initial = ptrain.Checkpoint(
        model_config=cfg,
        weights=model.all_weights(),
        rng_state={"root_seed": CONFIG_SEED},
        val_mse=math.inf,
        best_epoch=-1,
        train_config=tcfg,
    )
    ptrain.save_checkpoint(initial, path)
    return Setup(train, val, test, ptrain.model_from_checkpoint(path), tcfg, path)


# -- the model's work, as ``fit`` and ``papnf eval`` do it ------------------------


def _batch_loss(model, windows, batch, tcfg):
    """Mean energy loss over a batch, built as ``fit`` builds it in epoch 0."""
    total = None
    for k in batch:
        w = windows[int(k)]
        rng = substream(tcfg.seed, "noise", 0, int(w.index))
        u0 = rng.standard_normal((tcfg.train_samples, tcfg.model.d_u))
        pred = model.forward_samples(w.x_std, u0)
        term = ptrain.loss_energy(pred, ptensor.Tensor(w.y_std.reshape(1, -1)))
        total = term if total is None else total + term
    return total * (1.0 / len(batch))


def _step(model, opt, windows, batch, tcfg) -> float:
    """One optimizer step over a batch; returns the batch loss."""
    loss = _batch_loss(model, windows, batch, tcfg)
    value = loss.item()
    opt.zero_grad()
    loss.backward()
    opt.step()
    return value


@contextmanager
def _serial(on: bool):
    """Set PAPNF_THREADS=1 for the block when ``on``."""
    saved = os.environ.get("PAPNF_THREADS")
    if on:
        os.environ["PAPNF_THREADS"] = "1"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("PAPNF_THREADS", None)
        else:
            os.environ["PAPNF_THREADS"] = saved


def _evaluate(model, windows, csv_path):
    """evaluate_split at PAPNF_THREADS=1, then the quantiles CSV."""
    with _serial(True):
        report, ensembles = peval.evaluate_split(
            model, windows, n_samples=EVAL_SAMPLES, seed=CONFIG_SEED
        )
    peval.write_quantiles_csv(csv_path, windows, ensembles)
    return report, ensembles


def _sample_window(model, window):
    rng = substream(CONFIG_SEED, "sample", int(window.index))
    return pflow.sample_forecasts(window, model, EVAL_SAMPLES, rng)


def _timed_split(model, windows, serial: bool):
    """evaluate_split, serial or under the run's default cap.

    Returns (report, sampling seconds): the wall time minus ``build_report``,
    which alone is timed, so the rest runs untraced.
    """
    timer = Tracer()
    timer.install(only={"metrics.build_report"})
    try:
        with _serial(serial):
            t0 = perf_counter()
            report, _ = peval.evaluate_split(
                model, windows, n_samples=EVAL_SAMPLES, seed=CONFIG_SEED
            )
            wall = perf_counter() - t0
    finally:
        timer.uninstall()
    return report, wall - sum(sp.duration for sp in timer.spans)


def _call(tracer: Tracer | None, root: str, ctx: str, fn, *args):
    """``fn(*args)``; when tracing, under a root span with every layer wrapped."""
    if tracer is None:
        return fn(*args)
    tracer.install()
    try:
        return tracer.call(root, fn, *args, ctx=ctx)
    finally:
        tracer.uninstall()


def _same_weights(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


# -- the run --------------------------------------------------------------------


@dataclass
class Run:
    """Samples and output checks gathered over one benchmark run."""

    setup_s: list = field(default_factory=list)
    fit_s: list = field(default_factory=list)
    step_s: list = field(default_factory=list)
    traced_step_s: list = field(default_factory=list)
    eval_rate: list = field(default_factory=list)
    window_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)


class Bench:
    """State shared by the tasks of one run; each task method is one unit."""

    def __init__(self, wl: Workload, seed: int, s: Setup, run: Run, tracer: Tracer | None,
                 tmp: str):
        self.wl = wl
        self.seed = seed
        self.s = s
        self.run = run
        self.tracer = tracer
        self.setup_dir = os.path.join(tmp, "setup")
        os.makedirs(self.setup_dir)
        self.csv_path = os.path.join(tmp, "quantiles.csv")
        self.fit_model = s.model
        self.init_weights = s.model.all_weights()
        self.backbone_hash = s.model.backbone.weight_hash()
        self.step_model = ptrain.model_from_checkpoint(s.checkpoint_path)
        self.steps_per_epoch = -(-len(s.train) // s.tcfg.batch_size)
        self.order = substream(s.tcfg.seed, "shuffle", 0).permutation(len(s.train))
        self.n_setups = 0
        self.n_fits = 0
        self.n_steps = 0
        self.n_evals = 0
        self.n_windows = 0
        self.opt = None
        self.epoch_loss = 0.0
        self.ref_ckpt = self.fit()
        path = os.path.join(tmp, "trained.papnf")
        ptrain.save_checkpoint(self.ref_ckpt, path)
        self.eval_model = ptrain.model_from_checkpoint(path)
        run.check(_same_weights(self.eval_model.all_weights(), self.ref_ckpt.weights),
                  "checkpoint round trip changed the weights")
        self.ref_report = None
        self.ref_ensembles = None

    def _traced(self, n: int) -> Tracer | None:
        # traced runs alternate untraced and traced fits and step-loop epochs,
        # so trace.overhead_frac compares steps of one run
        return self.tracer if n % 2 == 1 else None

    def setup(self) -> None:
        """Set up again from scratch; only the time is kept."""
        t0 = perf_counter()
        _call(self.tracer, "bench.setup", f"setup:{self.n_setups}",
              _setup, self.wl, self.seed, self.setup_dir)
        self.run.setup_s.append(perf_counter() - t0)
        self.n_setups += 1

    def fit(self):
        s, run = self.s, self.run
        tracer = self._traced(self.n_fits)
        self.fit_model.load_weights(self.init_weights)
        t0 = perf_counter()
        ckpt = _call(tracer, "bench.fit", f"fit:{self.n_fits}",
                     ptrain.fit, self.fit_model, s.train, s.val, s.tcfg)
        if tracer is None:
            run.fit_s.append(perf_counter() - t0)
        run.check(self.fit_model.backbone.weight_hash() == self.backbone_hash,
                  "backbone changed during fit")
        if self.n_fits:
            run.check(ckpt.history == self.ref_ckpt.history, "fit history differs between fits")
        self.n_fits += 1
        return ckpt

    def step(self) -> None:
        s, run = self.s, self.run
        epoch, k = divmod(self.n_steps, self.steps_per_epoch)
        tracer = self._traced(epoch)
        if k == 0:
            self.step_model.load_weights(self.init_weights)
            self.opt = ptrain.Adam(self.step_model.parameters(), s.tcfg.learning_rate)
            self.epoch_loss = 0.0
        batch = self.order[k * s.tcfg.batch_size : (k + 1) * s.tcfg.batch_size]
        t0 = perf_counter()
        self.epoch_loss += _call(tracer, "bench.step", f"step:{epoch}.{k}",
                                 _step, self.step_model, self.opt, s.train, batch, s.tcfg)
        (run.step_s if tracer is None else run.traced_step_s).append(perf_counter() - t0)
        self.n_steps += 1
        if k + 1 == self.steps_per_epoch:
            loss = self.epoch_loss / self.steps_per_epoch
            want = self.ref_ckpt.history[0]["train_loss"]
            run.check(loss == want, f"step loop train_loss {loss!r} != fit's {want!r}")
            run.check(_same_weights(self.step_model.all_weights(), self.ref_ckpt.weights),
                      "step loop weights differ from fit's")
            run.check(self.step_model.backbone.weight_hash() == self.backbone_hash,
                      "backbone changed in step loop")

    def eval(self) -> None:
        s, run = self.s, self.run
        t0 = perf_counter()
        report, ensembles = _call(self.tracer, "bench.eval", f"eval:{self.n_evals}",
                                  _evaluate, self.eval_model, s.test, self.csv_path)
        run.eval_rate.append(len(s.test) / (perf_counter() - t0))
        with open(self.csv_path) as fh:
            rows = sum(1 for _ in fh) - 1
        run.check(rows == len(s.test) * HORIZON * s.tcfg.model.channels,
                  f"quantiles CSV has {rows} rows")
        if self.ref_report is None:
            self.ref_report, self.ref_ensembles = report, ensembles
        else:
            run.check(report.to_json() == self.ref_report.to_json(),
                      "evaluate_split report differs between calls")
        self.n_evals += 1

    def window(self) -> None:
        s, run = self.s, self.run
        for _ in range(WINDOWS_PER_TASK):
            i = self.n_windows % len(s.test)
            t0 = perf_counter()
            ens = _call(self.tracer, "bench.window", f"window:{self.n_windows}",
                        _sample_window, self.eval_model, s.test[i])
            run.window_s.append(perf_counter() - t0)
            run.check(np.array_equal(ens.samples, self.ref_ensembles[i].samples),
                      f"serial sample of window {i} differs from evaluate_split's")
            self.n_windows += 1


def _schedule(tasks: dict, shares: dict, minimum: dict, deadline: float) -> None:
    """Run tasks until ``deadline``, always the one furthest behind its share.

    Each task first runs ``minimum[name]`` times, in the order of ``tasks``.
    Near the deadline only tasks whose last run still fits are chosen.
    """
    spent = dict.fromkeys(tasks, 0.0)
    last = dict.fromkeys(tasks, 0.0)
    runs = dict.fromkeys(tasks, 0)
    while True:
        owed = [n for n in tasks if runs[n] < minimum.get(n, 0)]
        left = deadline - perf_counter()
        fits = [n for n in tasks if last[n] <= left]
        if owed:
            name = owed[0]
        elif fits and left > 0:
            name = min(fits, key=lambda n: spent[n] / shares[n])
        else:
            return
        gc.collect()
        t0 = perf_counter()
        tasks[name]()
        last[name] = perf_counter() - t0
        spent[name] += last[name]
        runs[name] += 1


# -- counts, environment and metrics --------------------------------------------


def _tape_nodes_per_step(s: Setup) -> int:
    """Backward closures reachable from the loss of one full batch."""
    loss = _batch_loss(s.model, s.train, range(s.tcfg.batch_size), s.tcfg)
    return len(ptensor.Tape.from_root(loss))


def _eval_graph_nodes(model, window) -> int:
    """Backward closures a forward-only S=100 pass builds for one window."""
    u0 = substream(CONFIG_SEED, "sample", int(window.index)).standard_normal(
        (EVAL_SAMPLES, model.cfg.d_u))
    return len(ptensor.Tape.from_root(model.forward_samples(window.x_std, u0)))


def _git_sha(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args, nproc: int) -> dict:
    threads = peval.thread_count()
    blas = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "papnf_threads": threads,
        "blas_threads": blas,
        "total_threads": threads * max((int(v) for v in blas.values() if v.isdigit()), default=1),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": _git_sha(os.getcwd()),
    }


def _e2e_metrics(run: Run, windows_per_step: int, peak_rss_mb: float) -> dict:
    step_ms = np.asarray(run.step_s) * 1e3
    window_ms = np.asarray(run.window_s) * 1e3
    return {
        "setup_s": statistics.median(run.setup_s),
        "epoch_s": statistics.median(run.fit_s),
        "train_windows_per_s": windows_per_step * len(run.step_s) / sum(run.step_s),
        "step_ms_p50": float(np.percentile(step_ms, 50)),
        "step_ms_p75": float(np.percentile(step_ms, 75)),
        "eval_windows_per_s": statistics.median(run.eval_rate),
        "eval_window_ms_p50": float(np.percentile(window_ms, 50)),
        "eval_window_ms_p90": float(np.percentile(window_ms, 90)),
        "peak_rss_mb": peak_rss_mb,
    }


def _layer_metrics(wl: Workload, s: Setup, run: Run, tracer: Tracer, extra: dict) -> dict:
    idx = SpanIndex(tracer.spans)
    steps = idx.roots("bench.step")
    windows = idx.roots("bench.window")
    for root in steps + windows:
        run.check(idx.tree_adds_up(root), f"layer self times of {root.ctx} do not add up")
    step_windows = s.tcfg.batch_size * len(steps)
    in_steps = idx.self_by_layer("bench.step")
    primary = idx.self_by_layer(wl.primary)
    primary_windows = step_windows if wl.primary == "bench.step" else len(windows)
    eval_windows = len(s.test) * len(idx.roots("bench.eval"))
    in_eval = idx.self_by_layer("bench.eval")
    val_windows = len(s.val) * len(idx.roots("bench.fit"))

    def per_setup(layer: str) -> float:
        return 1e3 * statistics.median(
            sum(idx.self_time[sp.id] for sp in idx.trees[root.id] if sp.name == layer)
            for root in idx.roots("bench.setup")
        )

    out = {
        "tensor.backward_ms_per_step": 1e3 * in_steps["tensor.backward"] / len(steps),
        "tensor.tape_nodes_per_step": extra["tape_nodes"],
        "tensor.eval_graph_nodes_per_window": extra["eval_nodes"],
        "train.loss_ms_per_window": 1e3 * in_steps["train.loss"] / step_windows,
        "train.adam_ms_per_step": 1e3 * in_steps["train.adam"] / len(steps),
        # inclusive: validation's own self time is only its loop
        "train.validation_ms_per_window":
            1e3 * idx.inclusive_by_layer("bench.fit")["train.validation"] / val_windows,
    }
    for layer in MODEL_LAYERS:
        out[f"{layer}_ms_per_window"] = 1e3 * primary[layer] / primary_windows
    out.update({
        "evaluate.sample_ms_per_window":
            1e3 * idx.self_by_layer("bench.window")["evaluate.sample"] / len(windows),
        "metrics.build_report_ms_per_window": 1e3 * in_eval["metrics.build_report"] / eval_windows,
        "evaluate.quantiles_csv_ms_per_window":
            1e3 * in_eval["evaluate.quantiles_csv"] / eval_windows,
        "evaluate.threads": peval.thread_count(),
        "evaluate.pool_speedup": extra["pool_speedup"],
    })
    for layer in SETUP_LAYERS:
        out[f"{layer}_ms"] = per_setup(layer)
    out.update({
        "checkpoint.bytes": os.path.getsize(s.checkpoint_path),
        "trace.overhead_frac":
            statistics.median(run.traced_step_s) / statistics.median(run.step_s) - 1.0,
        "train.val_mse": extra["val_mse"],
        "metrics.weighted_crps": extra["weighted_crps"],
        "metrics.coverage_90": extra["coverage_90"],
    })
    return out


def run_workload(args, nproc: int, out_dir: str) -> int:
    wl = WORKLOADS[args.workload]
    traced = bool(args.trace)
    os.makedirs(out_dir, exist_ok=True)
    tmp = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    tracer = Tracer() if traced else None
    run = Run()
    t_start = perf_counter()
    try:
        env = _environment(args, nproc)
        run.check(env["total_threads"] <= nproc, f"{env['total_threads']} threads > nproc {nproc}")
        s = _setup(wl, args.seed, tmp)  # untimed: also warms up imports and caches
        t_measure = perf_counter()
        bench = Bench(wl, args.seed, s, run, tracer, tmp)
        tasks = {"eval": bench.eval, "step": bench.step, "window": bench.window,
                 "fit": bench.fit, "setup": bench.setup}
        # the reference eval comes first; traced runs need a traced and an
        # untraced step-loop epoch and fit
        epochs = 2 if traced else 1
        minimum = {"eval": 1, "step": epochs * bench.steps_per_epoch, "window": 1,
                   "fit": epochs - 1, "setup": MIN_SETUPS}
        _schedule(tasks, wl.shares, minimum, t_measure + args.seconds)
        measured_s = perf_counter() - t_measure
        # read before the pool runs: its threads' allocator arenas add a
        # different amount of memory from run to run
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # untimed checks and counts
        model = bench.eval_model
        pool, pool_s = _timed_split(model, s.test, serial=False)
        run.check(pool.to_json() == bench.ref_report.to_json(),
                  "evaluate_split report under the default cap differs from PAPNF_THREADS=1")
        extra = {
            "val_mse": bench.ref_ckpt.val_mse,
            "weighted_crps": bench.ref_report.weighted_crps,
            "coverage_90": bench.ref_report.coverage["0.9"],
        }
        run.check(all(math.isfinite(v) for v in extra.values()), f"non-finite quality {extra}")
        if tracer:
            _, serial_s = _timed_split(model, s.test, serial=True)
            extra["pool_speedup"] = serial_s / pool_s
            extra["tape_nodes"] = _tape_nodes_per_step(s)
            extra["eval_nodes"] = _eval_graph_nodes(model, s.test[0])
            metrics = _layer_metrics(wl, s, run, tracer, extra)
        else:
            metrics = _e2e_metrics(run, s.tcfg.batch_size, peak_rss_mb)
        counts = {
            "setups": bench.n_setups,
            "fits": bench.n_fits,
            "steps": len(run.step_s),
            "traced_steps": len(run.traced_step_s),
            "evals": bench.n_evals,
            "sampled_windows": bench.n_windows,
            "measured_s": measured_s,
            "total_s": perf_counter() - t_start,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"env": env, "counts": counts, "quality": extra, **result}, fh, indent=1)
    if tracer:
        tracer.write_jsonl(stem + "-spans.jsonl", t_start)

    print("env " + json.dumps(env, sort_keys=True))
    print("counts " + json.dumps(counts, sort_keys=True))
    print(f"checks {run.attempted - run.failed}/{run.attempted} passed, "
          f"failed_frac {run.failed / run.attempted:.6g}")
    for k, v in metrics.items():
        print(f"{k:40s} {v:>14.6g} {_unit(k)}")
    print(json.dumps(result))
    return 0

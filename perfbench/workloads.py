"""The benchmark's workloads: set-up, one operation, and output checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns. Constructing a workload is its set-up and
is what ``setup_s`` times; ``prepare`` then computes the benchmark's own
reference outputs, untimed. Every input comes from the seed.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from otfusion import (audio_features, calibration, config, errors, significance,
                      synthetic, training, transport)
from otfusion.model import assemble_model

import speedprobe

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")
OTFUSION_ERRORS = (errors.DimensionError, errors.ParameterError, errors.InputError,
                   errors.ContractViolationError, errors.NumericalError)

ACCURACY_FLOOR = 0.90      # acceptance criterion 5
PROBS_TOL = 1e-9           # eval vs per-sample predict_proba, and row sums
MARGINAL_TOL = 1e-9        # exact EMD marginals
COST_TOL = 1e-9            # relative: EMD cost vs the assignment reference


@dataclass
class Timings:
    """Wall times of a workload's operations, split by traced or not;
    ``nominal`` holds the untraced ones scaled to the nominal machine
    speed. ``checks`` and ``failed`` count output checks."""

    plain: list[float] = field(default_factory=list)
    nominal: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    checks: int = 0
    failed: int = 0


def run_op(op, name: str, tracer=None) -> tuple[float, list[bool], list[float]]:
    """Time one call of ``op``, which returns one check result or a list
    of them; an otfusion error fails the call as one check. An untraced
    call also samples the reference kernel while it runs; the samples'
    own time is not counted in the call's. Returns the call's time, the
    check results and the kernel samples."""
    with tracer.op(name) if tracer else speedprobe.DuringCall() as during:
        start = time.perf_counter()
        try:
            ok = op()
        except OTFUSION_ERRORS as exc:
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        elapsed = time.perf_counter() - start
    if not tracer:
        elapsed -= during.spent
    return elapsed, ok if isinstance(ok, list) else [ok], [] if tracer else during.kernels


def closed_loop(op, name: str, seconds: float, tracer=None, min_calls: int = 1) -> Timings:
    """Call ``op`` back to back for ``seconds``, with the reference kernel
    timed between calls. No call starts that the median call so far says
    would end past ``seconds``. With a tracer, every other call (the first
    included) is traced, the rest give the overhead base."""
    timings = Timings()
    walls = []
    speedprobe.kernel_seconds()  # warm-up, not counted
    kernel_before = speedprobe.kernel_seconds()
    start = time.perf_counter()
    while (len(walls) < min_calls
           or time.perf_counter() - start + statistics.median(walls) <= seconds):
        traced = tracer is not None and len(walls) % 2 == 0
        elapsed, results, kernels = run_op(op, name, tracer if traced else None)
        kernel_after = speedprobe.kernel_seconds()
        walls.append(elapsed)
        if traced:
            timings.traced.append(elapsed)
        else:
            timings.plain.append(elapsed)
            timings.nominal.append(speedprobe.at_nominal(
                elapsed, [kernel_before, *kernels, kernel_after]))
        timings.checks += len(results)
        timings.failed += results.count(False)
        kernel_before = kernel_after
    return timings


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def _load(name: str) -> config.ExperimentConfig:
    return config.load_configs(os.path.join(CONFIG_DIR, f"{name}.cfg"))


class Workload:
    """Constructing a workload is its set-up. ``throughput_per_s`` is
    ``units_per_op`` over the median call time at the nominal machine
    speed; ``detail`` gives the figures users know, from wall times."""

    name: str
    per_sample = False  # per-layer figures per Model.forward, not per call
    units_per_op = 1

    def prepare(self):
        """Compute, untimed, the references the output checks need."""

    def op(self) -> bool | list[bool]:
        raise NotImplementedError

    def run(self, seconds: float, tracer=None) -> Timings:
        return closed_loop(self.op, self.name, seconds, tracer, min_calls=2 if tracer else 1)

    def throughput_per_s(self, timings: Timings) -> float:
        return self.units_per_op / statistics.median(timings.nominal)

    def detail(self, timings: Timings) -> dict:
        raise NotImplementedError


class Fit(Workload):
    """Repeated ``training.run_experiment`` calls: the `otfusion train` path."""

    name = "fit"
    per_sample = True

    def __init__(self, seed: int):
        cfg = _load(self.name)
        self.task = replace(cfg.task, seed=seed)
        self.train = replace(cfg.train, base_seed=seed)
        self.model = cfg.model
        self.label = cfg.label
        # What `otfusion train` builds before its first step; run_experiment
        # builds its own copies on every call.
        synthetic.generate_task(self.task)
        assemble_model(self.model, seed)
        self.units_per_op = self.task.train_size * self.train.max_epochs * self.train.runs
        self.accuracies: list[float] = []

    def op(self) -> bool:
        report = training.run_experiment(self.model, self.train, self.task, self.label)
        finite = not report.warnings and all(
            not r.aborted and math.isfinite(r.best_val_loss) for r in report.runs)
        accuracy = report.aggregate["accuracy"]["mean"]
        self.accuracies.append(accuracy)
        return finite and accuracy >= ACCURACY_FLOOR

    def detail(self, timings: Timings) -> dict:
        times = timings.plain
        return {
            "train_samples_per_s": (self.units_per_op / statistics.median(times), "1/s"),
            "fit_accuracy": (statistics.fmean(self.accuracies), "ratio"),
            "run_experiment_ms_p50": (statistics.median(times) * 1e3, "ms"),
            "run_experiment_ms_p90": (percentile(times, 90) * 1e3, "ms"),
        }


class InferLong(Workload):
    """Repeated ``training.evaluate`` calls on 60-sample splits whose image
    sequences are eight times longer than the text: the `otfusion eval`
    path, and the only workload that runs the co-attention head."""

    name = "infer_long"
    per_sample = True

    def __init__(self, seed: int):
        cfg = _load(self.name)
        data = synthetic.generate_task(replace(cfg.task, seed=seed))
        self.model = assemble_model(cfg.model, seed)
        rows = np.vstack([self.model.encode_image(s.y) for s in data.train])
        self.model.init_references(rows, np.random.default_rng((seed, 3)))
        self.splits = [data.val, data.test]
        self.units_per_op = len(data.val)
        self.calls = 0

    def prepare(self):
        """Per-sample ``Model.predict_proba`` references for each split."""
        self.expected = [np.vstack([self.model.predict_proba(s.x, s.y) for s in split])
                         for split in self.splits]

    def op(self) -> bool:
        # Each split twice in a row, so traced calls (every other one)
        # cover both splits.
        which = self.calls // 2 % len(self.splits)
        self.calls += 1
        preds, _ = training.evaluate(self.model, self.splits[which])
        probs = preds.probs
        return bool(np.isfinite(probs).all()
                    and np.abs(probs.sum(axis=1) - 1.0).max() <= PROBS_TOL
                    and np.abs(probs - self.expected[which]).max() <= PROBS_TOL)

    def detail(self, timings: Timings) -> dict:
        times = timings.plain
        return {
            "eval_samples_per_s": (self.units_per_op / statistics.median(times), "1/s"),
            "eval_split_ms_p50": (statistics.median(times) * 1e3, "ms"),
            "eval_split_ms_p90": (percentile(times, 90) * 1e3, "ms"),
        }


class _PointClouds(Workload):
    """Uniform point clouds in the unit square, 300 against 200 points with
    uniform masses: non-square, so ``emd_exact`` takes its dense LP path."""

    SIZES = (300, 200)
    PAIRS = 15  # odd, so traced (even) and untraced calls cover every pair

    def __init__(self, seed: int):
        rng = np.random.default_rng((seed, 11))
        n, m = self.SIZES
        self.a = np.full(n, 1.0 / n)
        self.b = np.full(m, 1.0 / m)
        self.costs = [transport.cost_matrix(rng.uniform(0, 1, (n, 2)), rng.uniform(0, 1, (m, 2)))
                      for _ in range(self.PAIRS)]
        self.calls = 0

    def prepare(self):
        """Exact transport costs from an assignment problem, not from
        otfusion: with uniform masses, splitting every point into equal
        copies (600 a side) leaves the optimal cost unchanged."""
        n, m = self.SIZES
        size = math.lcm(n, m)
        self.expected_costs = []
        for cost in self.costs:
            split = np.repeat(np.repeat(cost, size // n, axis=0), size // m, axis=1)
            rows, cols = linear_sum_assignment(split)
            self.expected_costs.append(float(split[rows, cols].sum() / size))

    def _next_pair(self) -> int:
        k = self.calls % self.PAIRS
        self.calls += 1
        return k

    def detail(self, timings: Timings) -> dict:
        return {f"{self.name}_ms_p50": (statistics.median(timings.plain) * 1e3, "ms")}


class Emd(_PointClouds):
    """Repeated ``transport.emd_exact`` calls (`otfusion ot`, its default
    method)."""

    name = "emd"

    def op(self) -> bool:
        k = self._next_pair()
        coupling = transport.emd_exact(self.a, self.b, self.costs[k])
        expected = self.expected_costs[k]
        return bool(coupling.marginal_violation <= MARGINAL_TOL
                    and np.isfinite(coupling.plan).all()
                    and abs(coupling.cost - expected) <= COST_TOL * max(1.0, expected))


class Sinkhorn(_PointClouds):
    """Repeated ``transport.sinkhorn`` calls (`otfusion ot --method
    sinkhorn`) at its default eps 0.01. Its plan is rounded onto the
    marginals, so its cost can never undercut the exact one."""

    name = "sinkhorn"
    EPS = 0.01
    # Its iteration count differs from pair to pair (calls of 0.6x to
    # 1.4x the median), so many pairs keep the median call steady.
    PAIRS = 45

    def op(self) -> bool:
        k = self._next_pair()
        coupling = transport.sinkhorn(self.a, self.b, self.costs[k], self.EPS)
        expected = self.expected_costs[k]
        return bool(coupling.converged
                    and expected <= coupling.cost + COST_TOL * max(1.0, coupling.cost))


class CalibAsoFeatures(Workload):
    """The evaluation tools users run on a finished experiment, one call
    of each per operation: ``calibration.ece`` + ``ace``,
    ``significance.aso`` and ``audio_features.to_image``. The input sizes
    give each tool a similar share of the operation (about 50, 100 and
    50 ms here), so a slowdown of any one of them shows."""

    name = "calib_aso_features"
    PREDICTIONS = 100_000
    SCORES = 40
    WAVE_SECONDS = 30.0
    SAMPLE_RATE = 22_050
    TOOLS = ("calib", "aso", "features")

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng((seed, 11))
        p1 = rng.uniform(0, 1, self.PREDICTIONS)
        labels = (rng.uniform(0, 1, self.PREDICTIONS) < p1 ** 1.3).astype(int)
        self.preds = calibration.PredictionSet(np.column_stack([1 - p1, p1]), labels)
        self.scores = (rng.normal(0.80, 0.03, self.SCORES), rng.normal(0.78, 0.03, self.SCORES))
        t = np.arange(int(self.WAVE_SECONDS * self.SAMPLE_RATE)) / self.SAMPLE_RATE
        tone = sum(np.sin(2 * np.pi * f * t) for f in rng.uniform(80, 4000, 5))
        self.wave = audio_features.Waveform(tone + 0.1 * rng.standard_normal(t.size),
                                            self.SAMPLE_RATE)
        self.eps_min: float | None = None
        self.tool_times: dict[str, list[float]] = {tool: [] for tool in self.TOOLS}

    def calib(self) -> bool:
        ece_value, _ = calibration.ece(self.preds)
        ace_value, _ = calibration.ace(self.preds)
        return 0.0 <= ece_value <= 1.0 and 0.0 <= ace_value <= 1.0

    def aso(self) -> bool:
        result = significance.aso(*self.scores, seed=self.seed)
        if self.eps_min is None:
            self.eps_min = result.eps_min
        return 0.0 <= result.eps_min <= 1.0 and result.eps_min == self.eps_min

    def features(self) -> bool:
        channels = audio_features.to_image(self.wave).channels
        size = audio_features.IMAGE_SIZE
        return channels.shape == (3, size, size) and bool(np.isfinite(channels).all())

    def op(self) -> list[bool]:
        results = []
        for tool in self.TOOLS:
            start = time.perf_counter()
            results.append(getattr(self, tool)())
            self.tool_times[tool].append(time.perf_counter() - start)
        return results

    def detail(self, timings: Timings) -> dict:
        return {f"{tool}_ms_p50": (statistics.median(times) * 1e3, "ms")
                for tool, times in self.tool_times.items()}


WORKLOADS = {cls.name: cls for cls in (Fit, InferLong, Emd, Sinkhorn, CalibAsoFeatures)}

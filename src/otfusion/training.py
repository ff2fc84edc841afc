"""Training protocol, evaluation metrics, and multi-run aggregation.

One run is mini-batch SGD with momentum, a step learning-rate schedule
(multiply by gamma every step_size epochs), early stopping once the
validation loss has gone ``patience`` consecutive epochs without a new
strict minimum, and restoration of the best-validation parameters.
Experiments repeat the run over a seed list and report mean plus
population standard deviation per metric.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import diffcore as dc
from .calibration import NUM_BINS, PredictionSet, ace, ece
from .errors import NumericalError, ParameterError, require_count, require_seed
from .model import Model, ModelConfig, ablation_variant, assemble_model, model_settings
from .synthetic import Split, SyntheticTaskConfig, TaskData, generate_task

METRIC_ORDER = ("precision", "recall", "f1", "accuracy", "specificity", "ece", "ace")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 4
    lr: float = 0.05
    momentum: float = 0.9
    step_size: int = 4
    gamma: float = 0.1
    patience: int = 8
    max_epochs: int = 100
    runs: int = 5
    base_seed: int = 0
    seeds: tuple[int, ...] | None = None

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience", "runs", "step_size"):
            require_count(name, getattr(self, name))
        require_seed("base_seed", self.base_seed)
        for seed in self.seeds or ():
            require_seed("seeds entry", seed)
        if not (0 < self.lr < np.inf and 0 < self.gamma < np.inf and 0 <= self.momentum < 1):
            raise ParameterError("lr and gamma must be positive and finite, momentum in [0, 1); "
                                 f"got {self.lr}, {self.gamma}, {self.momentum}")

    def effective_seeds(self) -> tuple[int, ...]:
        if self.seeds is not None:
            if len(self.seeds) != self.runs:
                raise ParameterError(f"{len(self.seeds)} seeds given for {self.runs} runs")
            return tuple(self.seeds)
        return tuple(self.base_seed + i for i in range(self.runs))


class SGD:
    """Plain momentum SGD over diffcore parameters."""

    def __init__(self, params, momentum: float = 0.9):
        self.params = list(params)
        self.momentum = momentum
        self.velocity = [np.zeros_like(p.value) for p in self.params]

    def step(self, lr: float):
        for p, v in zip(self.params, self.velocity):
            v *= self.momentum
            v += p.grad
            p.value -= lr * v


class EarlyStopping:
    """Stop once ``patience`` consecutive epochs pass without a new strict
    minimum of the validation loss."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best_loss = float("inf")
        self.since_best = 0

    def update(self, val_loss: float) -> bool:
        """Record one epoch; returns True when this is a new strict best."""
        if val_loss < self.best_loss:
            self.best_loss = val_loss
            self.since_best = 0
            return True
        self.since_best += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.since_best >= self.patience


def lr_at_epoch(tc: TrainConfig, epoch: int) -> float:
    return tc.lr * tc.gamma ** (epoch // tc.step_size)


@dataclass
class RunRecord:
    seed: int
    metrics: dict[str, float] = field(default_factory=dict)
    epochs: int = 0
    best_val_loss: float = float("inf")
    stopped_early: bool = False
    aborted: bool = False
    abort_reason: str = ""
    zero_division_flags: tuple[str, ...] = ()


def train(model: Model, data: TaskData, tc: TrainConfig, seed: int = 0) -> RunRecord:
    """Train one model on one dataset; mutates the model in place."""
    if not data.train or not data.val:
        raise ParameterError("train and val splits must be nonempty")
    streams = np.random.SeedSequence((seed, 29)).spawn(3)
    shuffle_rng = np.random.default_rng(streams[0])
    dropout_rng = np.random.default_rng(streams[1])
    ref_rng = np.random.default_rng(streams[2])

    params = model.parameters()
    optimizer = SGD(params, tc.momentum)
    stopper = EarlyStopping(tc.patience)
    record = RunRecord(seed=seed)
    best_state = None

    for epoch in range(tc.max_epochs):
        lr = lr_at_epoch(tc, epoch)
        order = shuffle_rng.permutation(len(data.train))
        for start in range(0, len(order), tc.batch_size):
            idx = order[start:start + tc.batch_size]
            if epoch == 0 and start == 0:
                rows = model.encode_image(data.train.y[idx]).reshape(-1, model.cfg.d)
                model.init_references(rows, ref_rng)
            dc.zero_grads(params)
            logits = model.forward(data.train.x[idx], data.train.y[idx], True, dropout_rng)
            loss = model.loss(logits, data.train.labels[idx])
            if not np.isfinite(loss.value[0, 0]):
                raise NumericalError(
                    f"non-finite training loss at epoch {epoch}, batch {start // tc.batch_size}"
                )
            dc.backward(loss)
            optimizer.step(lr)
        with dc.inference(params):
            logits = model.forward(data.val.x, data.val.y, False)
            val_loss = float(model.loss(logits, data.val.labels).value[0, 0])
        if not np.isfinite(val_loss):
            raise NumericalError(f"non-finite validation loss at epoch {epoch}")
        record.epochs = epoch + 1
        if stopper.update(val_loss):
            record.best_val_loss = val_loss
            best_state = [p.value.copy() for p in params]
        elif stopper.should_stop:
            record.stopped_early = True
            break

    if best_state is not None:
        for p, v in zip(params, best_state):
            p.value[...] = v
    return record


def classification_metrics(preds: PredictionSet) -> dict:
    """Performance plus calibration metrics with class 1 as positive: ECE
    over the default bins, ACE over as many ranges, or one per sample if
    there are fewer samples.

    Ratios with zero denominators come back as 0 and are flagged.
    """
    labels = preds.labels
    _, predicted = preds.top_class()
    tp = int(((predicted == 1) & (labels == 1)).sum())
    tn = int(((predicted == 0) & (labels == 0)).sum())
    fp = int(((predicted == 1) & (labels == 0)).sum())
    fn = int(((predicted == 0) & (labels == 1)).sum())
    flags = []

    def ratio(num, den, name):
        if den == 0:
            flags.append(name)
            return 0.0
        return num / den

    precision = ratio(tp, tp + fp, "precision")
    recall = ratio(tp, tp + fn, "recall")
    f1 = ratio(2 * precision * recall, precision + recall, "f1")
    accuracy = (tp + tn) / preds.n
    specificity = ratio(tn, tn + fp, "specificity")
    ece_value, _ = ece(preds)
    ace_value, _ = ace(preds, min(NUM_BINS, preds.n))
    metrics = {
        "precision": precision, "recall": recall, "f1": f1,
        "accuracy": accuracy, "specificity": specificity,
        "ece": ece_value, "ace": ace_value,
    }
    return {"metrics": metrics, "zero_division_flags": tuple(flags)}


def evaluate(model: Model, split: Split) -> tuple[PredictionSet, dict]:
    """Predict a split, in one forward, and compute its metrics."""
    if not split:
        raise ParameterError("cannot evaluate an empty split")
    preds = PredictionSet(model.predict_proba(split.x, split.y), split.labels)
    return preds, classification_metrics(preds)


@dataclass
class RunReport:
    """Per-run metrics and their mean +- population std aggregate."""

    label: str
    runs: list[RunRecord]
    aggregate: dict[str, dict[str, float]]
    fingerprint: str
    seeds: tuple[int, ...]
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def metric_values(self, name: str) -> list[float]:
        return [r.metrics[name] for r in self.runs if not r.aborted]


def aggregate_metrics(runs: list[RunRecord]) -> dict[str, dict[str, float]]:
    completed = [r for r in runs if not r.aborted]
    out = {}
    for name in METRIC_ORDER:
        values = np.array([r.metrics[name] for r in completed])
        out[name] = {"mean": float(values.mean()), "std": float(values.std())}
    return out


def run_experiment(mc: ModelConfig, tc: TrainConfig, task_cfg: SyntheticTaskConfig,
                   label: str = "model") -> RunReport:
    """Train/evaluate over the seed list on one dataset and aggregate."""
    data = generate_task(task_cfg)
    records = []
    warnings = []
    for seed in tc.effective_seeds():
        model = assemble_model(mc, seed)
        try:
            record = train(model, data, tc, seed)
            _, result = evaluate(model, data.test)
            record.metrics = result["metrics"]
            record.zero_division_flags = result["zero_division_flags"]
        except NumericalError as exc:
            record = RunRecord(seed=seed, aborted=True, abort_reason=str(exc))
            warnings.append(f"run with seed {seed} aborted: {exc}")
        records.append(record)
    if all(r.aborted for r in records):
        raise NumericalError("every run aborted; no aggregate available")
    return RunReport(
        label=label,
        runs=records,
        aggregate=aggregate_metrics(records),
        fingerprint=fingerprint_configs(task_cfg, mc, tc),
        seeds=tc.effective_seeds(),
        warnings=warnings,
    )


def ablation_harness(base_mc: ModelConfig, axis: str, tc: TrainConfig,
                     task_cfg: SyntheticTaskConfig) -> list[RunReport]:
    """Run the experiment for every variant on one ablation axis."""
    return [run_experiment(cfg, tc, task_cfg, label=name)
            for name, cfg in ablation_variant(base_mc, axis)]


def fingerprint_configs(task_cfg: SyntheticTaskConfig, mc: ModelConfig, tc: TrainConfig) -> str:
    """A hash of the configs: the task and train settings, and the model
    settings that the built model reads (``model_settings``)."""
    blob = json.dumps(
        {"task": asdict(task_cfg), "model": model_settings(mc), "train": asdict(tc)},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def reports_to_csv(payloads: list[dict]) -> str:
    """Render report payloads (``RunReport.to_dict()`` or its JSON, read
    back) as a CSV table in the canonical metric column order; only their
    "label" and "aggregate" entries are used."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["architecture"]
    for name in METRIC_ORDER:
        header += [f"{name}_mean", f"{name}_std"]
    writer.writerow(header)
    for payload in payloads:
        row = [payload["label"]]
        for name in METRIC_ORDER:
            agg = payload["aggregate"][name]
            row += [f"{agg['mean']:.6f}", f"{agg['std']:.6f}"]
        writer.writerow(row)
    return buf.getvalue()

"""Synthetic two-modality classification tasks.

Each sample is a pair of feature-row sequences (one per modality) plus a
binary label. Class identity enters through per-modality mean directions
scaled by ``class_separation`` (in units of the noise sigma) and through a
per-sample latent vector shared across the modalities, mixed in with
weight sqrt(cross_modal_correlation) so the per-coordinate noise variance
stays at noise_std**2 for any correlation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, require_count, require_seed


@dataclass(frozen=True)
class SyntheticTaskConfig:
    n: int = 12
    t: int = 12
    d: int = 32
    class_separation: float = 3.0
    cross_modal_correlation: float = 0.5
    noise_std: float = 1.0
    train_size: int = 200
    val_size: int = 60
    test_size: int = 60
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "t", "d", "train_size", "val_size", "test_size"):
            require_count(name, getattr(self, name))
        require_seed("seed", self.seed)
        if not np.isfinite(self.class_separation):
            raise ParameterError(f"class_separation must be finite, got {self.class_separation}")
        if not 0.0 <= self.cross_modal_correlation <= 1.0:
            raise ParameterError("cross_modal_correlation must lie in [0, 1]")
        if not self.noise_std > 0:
            raise ParameterError("noise_std must be positive")


@dataclass
class Sample:
    x: np.ndarray
    y: np.ndarray
    label: int


@dataclass
class TaskData:
    train: list[Sample]
    val: list[Sample]
    test: list[Sample]


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _balanced_labels(size: int, rng: np.random.Generator) -> np.ndarray:
    labels = np.zeros(size, dtype=int)
    labels[size // 2:] = 1
    rng.shuffle(labels)
    return labels


def generate_task(cfg: SyntheticTaskConfig) -> TaskData:
    """Deterministically generate balanced train/val/test splits."""
    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    dir_rng = np.random.default_rng(streams[0])
    means = {
        ("x", 0): _unit(dir_rng, cfg.d), ("x", 1): _unit(dir_rng, cfg.d),
        ("y", 0): _unit(dir_rng, cfg.d), ("y", 1): _unit(dir_rng, cfg.d),
    }

    def gen_split(stream, size: int) -> list[Sample]:
        rng = np.random.default_rng(stream)
        labels = _balanced_labels(size, rng)
        sigma = cfg.noise_std
        rho = cfg.cross_modal_correlation
        w_shared, w_own = np.sqrt(rho), np.sqrt(1.0 - rho)
        samples = []
        for label in labels:
            mu_x = cfg.class_separation * sigma * means[("x", int(label))]
            mu_y = cfg.class_separation * sigma * means[("y", int(label))]
            shared = rng.standard_normal(cfg.d)
            x = mu_x + sigma * (w_own * rng.standard_normal((cfg.n, cfg.d)) + w_shared * shared)
            y = mu_y + sigma * (w_own * rng.standard_normal((cfg.t, cfg.d)) + w_shared * shared)
            samples.append(Sample(x, y, int(label)))
        return samples

    return TaskData(
        gen_split(streams[1], cfg.train_size),
        gen_split(streams[2], cfg.val_size),
        gen_split(streams[3], cfg.test_size),
    )

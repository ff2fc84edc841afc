"""Synthetic two-modality classification tasks.

Each sample is a pair of feature-row sequences (one per modality) plus a
binary label. Class identity enters through per-modality mean directions
scaled by ``class_separation`` (in units of the noise sigma) and through a
per-sample latent vector shared across the modalities, mixed in with
weight sqrt(cross_modal_correlation) so the per-coordinate noise variance
stays at noise_std**2 for any correlation.

A split is a ``Split``: its samples stacked into arrays from one draw, which
training and evaluation index; ``split[i]`` is sample ``i`` as a ``Sample``.
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
        if not 0 < self.noise_std < np.inf:
            raise ParameterError(f"noise_std must be positive and finite, got {self.noise_std}")


@dataclass
class Sample:
    x: np.ndarray
    y: np.ndarray
    label: int


@dataclass(frozen=True)
class Split:
    """One split: ``x`` (N, n, d), ``y`` (N, t, d) and ``labels`` (N,)."""

    x: np.ndarray
    y: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i: int) -> Sample:
        return Sample(self.x[i], self.y[i], int(self.labels[i]))


@dataclass
class TaskData:
    train: Split
    val: Split
    test: Split


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def generate_task(cfg: SyntheticTaskConfig) -> TaskData:
    """Deterministically generate balanced train/val/test splits.

    Finite settings too large for float64 (a ``noise_std`` or a
    ``class_separation * noise_std`` whose samples overflow) raise
    ``ParameterError``: the drawn samples must be finite.
    """
    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    dir_rng = np.random.default_rng(streams[0])
    n, t, d, sigma = cfg.n, cfg.t, cfg.d, cfg.noise_std
    # class means, rows x0, x1, y0, y1
    mu = (cfg.class_separation * sigma) * np.array([_unit(dir_rng, d) for _ in range(4)])
    w_shared, w_own = np.sqrt(cfg.cross_modal_correlation), np.sqrt(1.0 - cfg.cross_modal_correlation)

    def gen_split(stream, size: int) -> Split:
        rng = np.random.default_rng(stream)
        labels = np.zeros(size, dtype=int)
        labels[size // 2:] = 1
        rng.shuffle(labels)
        # each sample's draws: the shared latent, then the x noise, then the y noise
        draws = rng.standard_normal((size, 1, (1 + n + t) * d))
        shared, noise_x, noise_y = np.split(draws, [d, (1 + n) * d], axis=2)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, with its cause
            x = mu[labels, None] + sigma * (w_own * noise_x.reshape(size, n, d) + w_shared * shared)
            y = mu[2 + labels, None] + sigma * (w_own * noise_y.reshape(size, t, d) + w_shared * shared)
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ParameterError(f"noise_std {sigma} with class_separation {cfg.class_separation} "
                                 "overflows the samples")
        return Split(x, y, labels)

    sizes = (cfg.train_size, cfg.val_size, cfg.test_size)
    return TaskData(*(gen_split(stream, size) for stream, size in zip(streams[1:], sizes)))

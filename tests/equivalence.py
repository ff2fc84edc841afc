"""The equivalence grid: the numbers every model configuration must keep.

The grid is fusion head x context strategy x ``otk_mode`` (otk, repeat) x
``ot_enabled`` x ``image_mask_ones``: 72 default-sized configurations.
Each runs one seeded batch of 4 in training mode, with seeded dropout,
and in eval mode. A run records its logits, its loss and, for every
parameter, the gradient's norm and its dot product with a fixed seeded
probe. ``test_equivalence.py`` runs the grid again and compares it with
the golden file at a relative tolerance of 1e-12.

The golden file is regenerated only by a change that is meant to move
numbers, never to make a defect pass:

    PYTHONPATH=src python tests/equivalence.py

The digest mode checks bit identity of the evaluation tools instead: it
runs ECE/ACE, ASO, the STFT, log-mel, the resize and the feature image on
fixed seeded inputs, and writes the sha256 of each output's raw bytes to
``OUT.json`` and the outputs themselves to ``OUT.npz``. The compare mode
lists the entries of two digests that differ, with the largest absolute
and relative gap between their arrays. Digests depend on the platform and
its BLAS build, so they are compared between checkouts on one machine and
are not a test:

    PYTHONPATH=src python tests/equivalence.py digest OUT
    PYTHONPATH=src python tests/equivalence.py compare BEFORE AFTER
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from otfusion import audio_features as af
from otfusion import calibration
from otfusion import context_attention as ctx
from otfusion import diffcore as dc
from otfusion import significance
from otfusion.model import (ATTN_FUSION, CO_ATTENTION, CONCAT, OTK, REPEAT, ModelConfig,
                            assemble_model)

GOLDEN = Path(__file__).resolve().parent / "equivalence_golden.json"
RTOL = 1e-12
BATCH = 4
IMAGE_ROWS = 20  # longer than seq_len, so OTK and repeat both resize
LABELS = np.array([0, 1, 1, 0])
MODES = {"train": True, "eval": False}


def grid() -> dict[str, ModelConfig]:
    """Every configuration of the grid, by a readable key."""
    axes = itertools.product((CO_ATTENTION, ATTN_FUSION, CONCAT),
                             (ctx.GLOBAL, ctx.DEEP, ctx.DEEP_GLOBAL),
                             (OTK, REPEAT), (True, False), (False, True))
    return {f"{fusion}-{strategy}-{otk_mode}-ot{int(ot)}-mask{int(mask)}":
            ModelConfig(fusion=fusion, strategy=strategy, otk_mode=otk_mode,
                        ot_enabled=ot, image_mask_ones=mask)
            for fusion, strategy, otk_mode, ot, mask in axes}


def run(cfg: ModelConfig, training: bool) -> dict:
    """One forward and backward of a fresh seed-0 model on the fixed batch."""
    model = assemble_model(cfg, seed=0)
    data = np.random.default_rng(1)
    x = data.standard_normal((BATCH, cfg.seq_len, cfg.d))
    y = data.standard_normal((BATCH, IMAGE_ROWS, cfg.d))
    dropout_rng = np.random.default_rng(2) if training else None
    params = model.parameters()
    dc.zero_grads(params)
    logits = model.forward(x, y, training, dropout_rng)
    loss = model.loss(logits, LABELS)
    dc.backward(loss)
    probe = np.random.default_rng(3)
    return {"logits": logits.value.ravel().tolist(),
            "loss": float(loss.value[0, 0]),
            "grad_norm": [float(np.linalg.norm(p.grad)) for p in params],
            "grad_probe": [float(np.vdot(p.grad, probe.standard_normal(p.shape)))
                           for p in params]}


def run_config(cfg: ModelConfig) -> dict:
    return {mode: run(cfg, training) for mode, training in MODES.items()}


def tool_outputs() -> dict[str, np.ndarray]:
    """Every evaluation tool's outputs on fixed seeded inputs, by entry name."""
    rng = np.random.default_rng(21)
    out = {}
    p1 = rng.uniform(0, 1, 5000)
    labels = (rng.uniform(0, 1, p1.size) < p1 ** 1.3).astype(int)
    for name, p in (("raw", p1), ("rounded", np.round(p1, 2))):  # rounded: ties
        preds = calibration.PredictionSet(np.column_stack([1 - p, p]), labels)
        for metric in (calibration.ece, calibration.ace):
            value, bins = metric(preds, 10)
            prefix = f"calibration.{metric.__name__}.{name}"
            out[f"{prefix}.value"] = np.array(value)
            for field in ("counts", "accuracy", "confidence", "edges"):
                if getattr(bins, field) is not None:
                    out[f"{prefix}.{field}"] = np.asarray(getattr(bins, field))
    scores = rng.normal(0.80, 0.03, 40), rng.normal(0.78, 0.03, 40)
    result = significance.aso(*scores, bootstrap_iters=1000, seed=7)
    for field in ("eps_min", "violation_ratio", "degenerate"):
        out[f"significance.aso.{field}"] = np.array(getattr(result, field))
    sr = 22050
    t = np.arange(3 * sr) / sr
    tone = sum(np.sin(2 * np.pi * f * t) for f in rng.uniform(80, 4000, 5))
    wave = af.Waveform(tone + 0.1 * rng.standard_normal(t.size), sr)
    out["audio_features.stft"] = af.stft(wave)
    out["audio_features.log_mel"] = af.log_mel(wave)
    for rows, cols in ((224, 64), (224, 224), (37, 224)):  # rows kept, both kept, neither
        m = rng.normal(0, 50, (224, 91))
        m.flat[::97] = np.inf
        with np.errstate(invalid="ignore"):  # inf - inf in the slope, as np.interp has it
            out[f"audio_features.bilinear_resize.{rows}x{cols}"] = af.bilinear_resize(m, rows, cols)
    out["audio_features.to_image"] = af.to_image(wave).channels
    return out


def _sha256(arr: np.ndarray) -> str:
    arr = np.asarray(arr)
    return hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes()).hexdigest()


def digest(stem: str):
    arrays = tool_outputs()
    Path(f"{stem}.json").write_text(
        json.dumps({key: _sha256(arr) for key, arr in arrays.items()}, indent=1) + "\n",
        encoding="utf-8")
    np.savez_compressed(f"{stem}.npz", **arrays)
    print(f"wrote {len(arrays)} entries to {stem}.json and {stem}.npz")


def compare(before: str, after: str) -> int:
    """Print each entry whose digest differs, with its largest gaps; return the count."""
    digests = [json.loads(Path(f"{stem}.json").read_text(encoding="utf-8"))
               for stem in (before, after)]
    arrays = [np.load(f"{stem}.npz") for stem in (before, after)]
    differing = 0
    for key in sorted(set(digests[0]) | set(digests[1])):
        if digests[0].get(key) == digests[1].get(key):
            continue
        differing += 1
        if key not in digests[0] or key not in digests[1]:
            print(f"{key}: only in {before if key in digests[0] else after}")
            continue
        a, b = (np.atleast_1d(arr[key]).astype(complex) for arr in arrays)
        if a.shape != b.shape:
            print(f"{key}: shape {a.shape} -> {b.shape}")
            continue
        with np.errstate(invalid="ignore", divide="ignore"):
            gap = np.abs(b - a)
            gap[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
            rel = np.where(gap > 0, gap / np.abs(a), 0.0)
        print(f"{key}: {np.count_nonzero(gap)} of {a.size} values differ, "
              f"max abs gap {np.nanmax(gap, initial=0):.3g}, "
              f"max rel gap {np.nanmax(rel, initial=0):.3g}")
    print(f"{differing} of {len(set(digests[0]) | set(digests[1]))} entries differ")
    return differing


def main():
    golden = {key: run_config(cfg) for key, cfg in grid().items()}
    lines = ",\n".join(f"{json.dumps(key)}: {json.dumps(runs)}" for key, runs in golden.items())
    GOLDEN.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
    print(f"wrote {len(golden)} configurations to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["digest"]:
        digest(sys.argv[2])
    elif sys.argv[1:2] == ["compare"]:
        sys.exit(1 if compare(*sys.argv[2:4]) else 0)
    else:
        main()

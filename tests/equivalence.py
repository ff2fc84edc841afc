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
"""

import itertools
import json
from pathlib import Path

import numpy as np

from otfusion import context_attention as ctx
from otfusion import diffcore as dc
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


def main():
    golden = {key: run_config(cfg) for key, cfg in grid().items()}
    lines = ",\n".join(f"{json.dumps(key)}: {json.dumps(runs)}" for key, runs in golden.items())
    GOLDEN.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
    print(f"wrote {len(golden)} configurations to {GOLDEN}")


if __name__ == "__main__":
    main()

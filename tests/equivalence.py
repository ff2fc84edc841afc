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

The digest mode checks bit identity instead. It records the logits, the
loss and every named parameter gradient of each grid configuration in
both modes, the outputs of ECE/ACE, ASO, the STFT, log-mel, the resize
and the feature image on fixed seeded inputs, the plan, cost, violation
and flag of ``sinkhorn`` (a benchmark-shaped pair, an absorbing one and
one with zero-mass rows and columns) and of ``emd_exact`` (a split
assignment and a non-uniform LP), and what the ``train``,
``eval``, ``gradcheck``, ``ablate``, ``aso``, ``calib``, ``features`` and
``ot`` commands print and write on fixed tiny inputs (a report's
``fingerprint``, which hashes its configs, is an entry of its own, so a
change to a config field moves that entry alone). It writes the sha256
of each array's raw bytes to ``OUT.json`` and the arrays themselves to
``OUT.npz``. The compare mode lists the entries of two digests that
differ, with the largest absolute and relative gap between their arrays
(or, for a command's text, its sizes).
Digests depend on the platform and its BLAS build, so they are compared
between checkouts on one machine and are not a test:

    PYTHONPATH=src python tests/equivalence.py digest OUT
    PYTHONPATH=src python tests/equivalence.py compare BEFORE AFTER
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from otfusion import audio_features as af
from otfusion import calibration
from otfusion import cli
from otfusion import context_attention as ctx
from otfusion import diffcore as dc
from otfusion import significance
from otfusion import transport
from otfusion.model import (ATTN_FUSION, CO_ATTENTION, CONCAT, OTK, REPEAT, ModelConfig,
                            assemble_model)

GOLDEN = Path(__file__).resolve().parent / "equivalence_golden.json"
RTOL = 1e-12
BATCH = 4
IMAGE_ROWS = 20  # longer than seq_len, so OTK and repeat both resize
LABELS = np.array([0, 1, 1, 0])
MODES = {"train": True, "eval": False}
CLI_CONFIG = """
label = tiny
task.n = 6
task.t = 6
task.d = 8
task.train_size = 20
task.val_size = 8
task.test_size = 8
model.d = 8
model.seq_len = 6
model.layers = 2
model.otk_iters = 10
train.runs = 2
train.max_epochs = 3
"""


def grid() -> dict[str, ModelConfig]:
    """Every configuration of the grid, by a readable key."""
    axes = itertools.product((CO_ATTENTION, ATTN_FUSION, CONCAT),
                             (ctx.GLOBAL, ctx.DEEP, ctx.DEEP_GLOBAL),
                             (OTK, REPEAT), (True, False), (False, True))
    return {f"{fusion}-{strategy}-{otk_mode}-ot{int(ot)}-mask{int(mask)}":
            ModelConfig(fusion=fusion, strategy=strategy, otk_mode=otk_mode,
                        ot_enabled=ot, image_mask_ones=mask)
            for fusion, strategy, otk_mode, ot, mask in axes}


def forward_backward(cfg: ModelConfig, training: bool):
    """One forward and backward of a fresh seed-0 model on the fixed batch.
    Returns the logits and loss nodes and the parameters, gradients filled."""
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
    return logits, loss, params


def run(cfg: ModelConfig, training: bool) -> dict:
    """The golden summary of one forward and backward."""
    logits, loss, params = forward_backward(cfg, training)
    probe = np.random.default_rng(3)
    return {"logits": logits.value.ravel().tolist(),
            "loss": float(loss.value[0, 0]),
            "grad_norm": [float(np.linalg.norm(p.grad)) for p in params],
            "grad_probe": [float(np.vdot(p.grad, probe.standard_normal(p.shape)))
                           for p in params]}


def run_config(cfg: ModelConfig) -> dict:
    return {mode: run(cfg, training) for mode, training in MODES.items()}


def model_outputs() -> dict[str, np.ndarray]:
    """The logits, the loss and every parameter's gradient of each grid
    configuration in each mode, by entry name."""
    out = {}
    for key, cfg in grid().items():
        for mode, training in MODES.items():
            logits, loss, params = forward_backward(cfg, training)
            prefix = f"model.{key}.{mode}"
            out[f"{prefix}.logits"] = logits.value
            out[f"{prefix}.loss"] = loss.value
            out.update({f"{prefix}.grad.{p.name}": p.grad for p in params})
    return out


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


def transport_outputs() -> dict[str, np.ndarray]:
    """Each transport solver's coupling on fixed seeded point clouds, by entry name."""
    rng = np.random.default_rng(41)

    def clouds(n, m):
        return transport.cost_matrix(rng.uniform(0, 1, (n, 2)), rng.uniform(0, 1, (m, 2)))

    def masses(n, zeros=()):
        w = rng.uniform(0.1, 1, n)
        w[list(zeros)] = 0.0
        return w / w.sum()

    u300, u200, cost = np.full(300, 1 / 300), np.full(200, 1 / 200), clouds(300, 200)
    solves = {
        "sinkhorn.bench": transport.sinkhorn(u300, u200, cost, 0.01),
        "sinkhorn.absorbing": transport.sinkhorn(u300, u200, cost, 1e-4, max_iters=300),
        "sinkhorn.zero_mass": transport.sinkhorn(masses(300, (0, 41, 299)), masses(200, (7, 150)),
                                                 cost, 0.01),
        "emd_exact.split": transport.emd_exact(u300, u200, clouds(300, 200)),
        "emd_exact.lp": transport.emd_exact(masses(60), masses(40), clouds(60, 40)),
    }
    out = {}
    for name, coupling in solves.items():
        for field in ("plan", "cost", "marginal_violation", "converged"):
            out[f"transport.{name}.{field}"] = np.asarray(getattr(coupling, field))
    return out


def _text(data) -> np.ndarray:
    """Text or bytes as a uint8 array, digested like any other output."""
    return np.frombuffer(data.encode() if isinstance(data, str) else data, dtype=np.uint8)


def _run_cli(*args: str) -> str:
    """Run one ``otfusion`` command in-process and return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(args))
    if code != cli.EXIT_OK:
        raise RuntimeError(f"otfusion {' '.join(args)} exited {code}")
    return out.getvalue()


def _report(path: Path) -> dict[str, np.ndarray]:
    """A report JSON without its fingerprint, and the fingerprint on its own."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    fingerprint = payload.pop("fingerprint")
    key = f"cli.{path.parent.name}.{path.name}"
    return {key: _text(json.dumps(payload, sort_keys=True, indent=2)),
            f"{key}.fingerprint": _text(fingerprint)}


def cli_outputs() -> dict[str, np.ndarray]:
    """What each command prints and writes on fixed tiny inputs, by entry name."""
    rng = np.random.default_rng(31)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "tiny.cfg"
        config.write_text(CLI_CONFIG, encoding="utf-8")
        out["cli.train.stdout"] = _text(_run_cli("train", "--config", str(config),
                                                 "--out", str(tmp / "train")))
        out.update(_report(tmp / "train" / "tiny.json"))
        out["cli.train.tiny.csv"] = _text((tmp / "train" / "tiny.csv").read_bytes())
        out["cli.eval.stdout"] = _text(_run_cli("eval", "--config", str(config), "--seed", "1"))
        out["cli.gradcheck.stdout"] = _text(_run_cli("gradcheck", "--seed", "0"))
        out["cli.ablate.stdout"] = _text(_run_cli("ablate", "--config", str(config),
                                                  "--axis", "no_fusion", "--out", str(tmp / "ablate")))
        out.update(_report(tmp / "ablate" / "no_fusion.json"))
        out["cli.ablate.ablation.csv"] = _text((tmp / "ablate" / "ablation.csv").read_bytes())
        for name, scores in (("a", rng.normal(0.8, 0.03, 12)), ("b", rng.normal(0.78, 0.03, 12))):
            np.savetxt(tmp / f"{name}.txt", scores)
        out["cli.aso.stdout"] = _text(_run_cli("aso", str(tmp / "a.txt"), str(tmp / "b.txt"),
                                               "--iterations", "200", "--seed", "3"))
        p = rng.uniform(0, 1, 300)
        labels = (rng.uniform(0, 1, p.size) < p).astype(int)
        np.savetxt(tmp / "preds.csv", np.column_stack([1 - p, p, labels]), delimiter=",")
        out["cli.calib.stdout"] = _text(_run_cli("calib", "--input", str(tmp / "preds.csv"),
                                                 "--bins-out", str(tmp / "bins.csv")))
        out["cli.calib.bins.csv"] = _text((tmp / "bins.csv").read_bytes())
        sr = 8000
        tone = 0.4 * np.sin(2 * np.pi * 440 * np.arange(sr) / sr) + 0.05 * rng.standard_normal(sr)
        wavfile.write(tmp / "tone.wav", sr, (tone * 32767).astype(np.int16))
        out["cli.features.stdout"] = _text(_run_cli("features", "--wav", str(tmp / "tone.wav"),
                                                    "--out", str(tmp / "feat.bin"), "--n-fft", "512",
                                                    "--hop", "256", "--mels", "40"))
        out["cli.features.feat.bin"] = _text((tmp / "feat.bin").read_bytes())
        np.savetxt(tmp / "src.csv", rng.normal(0, 1, (7, 3)), delimiter=",")
        np.savetxt(tmp / "tgt.csv", rng.normal(1, 1, (5, 3)), delimiter=",")
        for method in ("emd", "sinkhorn"):
            plan = tmp / f"{method}.csv"
            out[f"cli.ot.{method}.stdout"] = _text(_run_cli(
                "ot", "--src", str(tmp / "src.csv"), "--tgt", str(tmp / "tgt.csv"),
                "--method", method, "--eps", "0.5", "--plan-out", str(plan)))
            out[f"cli.ot.{method}.plan.csv"] = _text(plan.read_bytes())
    return out


def _sha256(arr: np.ndarray) -> str:
    arr = np.asarray(arr)
    return hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes()).hexdigest()


def digest(stem: str):
    arrays = {**model_outputs(), **tool_outputs(), **transport_outputs(), **cli_outputs()}
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
        a, b = (np.atleast_1d(arr[key]) for arr in arrays)
        if a.dtype == np.uint8:  # a command's text, where a byte gap means nothing
            print(f"{key}: text differs ({a.size} -> {b.size} bytes)")
            continue
        a, b = a.astype(complex), b.astype(complex)
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

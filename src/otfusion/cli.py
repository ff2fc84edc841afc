"""Command-line interface.

Subcommands: train, eval, ablate, gradcheck, ot, calib, aso, features,
report. Exit codes: 0 success, 1 usage error, 2 numerical failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from . import __version__
from .audio_features import FeatureParams, load_wav, save_tensor, to_image
from .calibration import PredictionSet, ace, ece
from .config import load_configs, render_default_config
from .errors import (ContractViolationError, DimensionError, InputError,
                     NumericalError, ParameterError)
from .significance import aso
from .training import (RunReport, ablation_harness, evaluate, reports_to_csv,
                       run_experiment, train)
from .model import assemble_model
from .synthetic import generate_task
from . import gradsuite
from . import transport

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_report(report: RunReport, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    _write(os.path.join(out_dir, f"{report.label}.json"), report.to_json())
    _write(os.path.join(out_dir, f"{report.label}.csv"), reports_to_csv([report.to_dict()]))


def cmd_train(args) -> int:
    cfg = load_configs(args.config)
    report = run_experiment(cfg.model, cfg.train, cfg.task, cfg.label)
    _write_report(report, args.out)
    for name, agg in report.aggregate.items():
        print(f"{name}: {agg['mean']:.4f} +- {agg['std']:.4f}")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = load_configs(args.config)
    data = generate_task(cfg.task)
    model = assemble_model(cfg.model, args.seed)
    train(model, data, cfg.train, args.seed)
    out = {}
    for split_name, split in (("train", data.train), ("val", data.val), ("test", data.test)):
        _, result = evaluate(model, split)
        out[split_name] = result["metrics"]
    print(json.dumps(out, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = load_configs(args.config)
    reports = ablation_harness(cfg.model, args.axis, cfg.train, cfg.task)
    os.makedirs(args.out, exist_ok=True)
    for report in reports:
        _write(os.path.join(args.out, f"{report.label}.json"), report.to_json())
    table = reports_to_csv([report.to_dict() for report in reports])
    _write(os.path.join(args.out, "ablation.csv"), table)
    print(table, end="")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = gradsuite.run_suite(seed=args.seed)
    failed = 0
    for result in results:
        status = "pass" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: max rel error {result.max_rel_error:.3e} (tol {result.tol:g})")
        failed += not result.passed
    if failed:
        print(f"{failed} gradient check(s) failed", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _loadtxt(path: str, what: str, **kwargs) -> np.ndarray:
    """``np.loadtxt`` with a parse failure as ``InputError``; an empty file
    reads as an empty array for the caller's own check, without numpy's
    "no data" warning."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(path, **kwargs)
    except ValueError as exc:
        raise InputError(f"cannot parse {what} {path}: {exc}") from exc


def _load_points(path: str) -> np.ndarray:
    points = _loadtxt(path, "point cloud", delimiter=",", ndmin=2)
    if points.shape[0] == 0:
        raise InputError(f"point cloud {path} has no rows")
    return points


def cmd_ot(args) -> int:
    src = _load_points(args.src)
    tgt = _load_points(args.tgt)
    cost = transport.cost_matrix(src, tgt)
    a = np.full(src.shape[0], 1.0 / src.shape[0])
    b = np.full(tgt.shape[0], 1.0 / tgt.shape[0])
    if args.method == "emd":
        coupling = transport.emd_exact(a, b, cost)
    else:
        coupling = transport.sinkhorn(a, b, cost, args.eps, args.iters)
    print(json.dumps({
        "method": args.method,
        "cost": coupling.cost,
        "marginal_violation": coupling.marginal_violation,
        "converged": coupling.converged,
    }, sort_keys=True, indent=2))
    if args.plan_out:
        np.savetxt(args.plan_out, coupling.plan, delimiter=",")
    if not coupling.converged:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_calib(args) -> int:
    raw = _loadtxt(args.input, "predictions", delimiter=",", ndmin=2)
    if raw.shape[1] != 3:
        raise InputError("calibration CSV needs columns prob_class0,prob_class1,label")
    preds = PredictionSet(raw[:, :2], raw[:, 2])
    ece_value, ece_bins = ece(preds, args.bins)
    ace_value, _ = ace(preds, args.ranges)
    print(json.dumps({"ece": ece_value, "ace": ace_value, "n": preds.n},
                     sort_keys=True, indent=2))
    if args.bins_out:
        rows = ["bin_low,bin_high,count,accuracy,confidence"]
        for m in range(args.bins):
            acc = ece_bins.accuracy[m]
            conf = ece_bins.confidence[m]
            rows.append(
                f"{ece_bins.edges[m]:.3f},{ece_bins.edges[m + 1]:.3f},{ece_bins.counts[m]},"
                f"{'' if np.isnan(acc) else f'{acc:.6f}'},{'' if np.isnan(conf) else f'{conf:.6f}'}"
            )
        _write(args.bins_out, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_aso(args) -> int:
    result = aso(
        _loadtxt(args.scores_a, "scores", ndmin=1), _loadtxt(args.scores_b, "scores", ndmin=1),
        confidence=args.confidence, bootstrap_iters=args.iterations,
        num_comparisons=args.comparisons, seed=args.seed,
    )
    print(json.dumps({
        "eps_min": result.eps_min,
        "violation_ratio": result.violation_ratio,
        "verdict": result.verdict,
        "degenerate": result.degenerate,
    }, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_features(args) -> int:
    waveform = load_wav(args.wav)
    params = FeatureParams(n_fft=args.n_fft, hop=args.hop, n_mels=args.mels)
    image = to_image(waveform, params)
    if args.format == "bin":
        save_tensor(args.out, image.channels)
    else:
        base, ext = os.path.splitext(args.out)
        for i, name in enumerate(("logmel", "delta", "delta2")):
            np.savetxt(f"{base}_{name}{ext or '.csv'}", image.channels[i], delimiter=",")
    print(f"wrote 3x{image.channels.shape[1]}x{image.channels.shape[2]} features")
    return EXIT_OK


def cmd_report(args) -> int:
    payloads = []
    for path in args.inputs:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:
                raise InputError(f"{path} is not a JSON report: {exc}") from exc
        try:
            reports_to_csv([payload])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path} is not a run report (it needs a label and each "
                             f"metric's aggregate mean and std): {exc!r}") from exc
        payloads.append(payload)
    text = reports_to_csv(payloads)
    if args.out:
        _write(args.out, text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_init_config(args) -> int:
    text = render_default_config()
    if args.out:
        _write(args.out, text)
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="otfusion", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a multi-seed experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="directory for report.json/csv")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="train one seeded run and print split metrics")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run one ablation axis")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", required=True,
                   choices=["no_context", "no_gate", "no_ot", "repeat_instead_of_otk",
                            "no_fusion", "layer_sweep"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ot", help="solve transport between two CSV point clouds")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--method", choices=["emd", "sinkhorn"], default="emd")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--iters", type=int, default=5000)
    p.add_argument("--plan-out")
    p.set_defaults(func=cmd_ot)

    p = sub.add_parser("calib", help="ECE/ACE over a CSV of predictions")
    p.add_argument("--input", required=True)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--ranges", type=int, default=10)
    p.add_argument("--bins-out")
    p.set_defaults(func=cmd_calib)

    p = sub.add_parser("aso", help="almost stochastic order test on two score files")
    p.add_argument("scores_a")
    p.add_argument("scores_b")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--comparisons", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_aso)

    p = sub.add_parser("features", help="extract the 3-channel spectrogram image")
    p.add_argument("--wav", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["bin", "csv"], default="bin")
    p.add_argument("--n-fft", type=int, default=2048)
    p.add_argument("--hop", type=int, default=1024)
    p.add_argument("--mels", type=int, default=224)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("report", help="merge run reports into a CSV table")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("init-config", help="print a config file with defaults")
    p.add_argument("--out")
    p.set_defaults(func=cmd_init_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ParameterError, InputError, DimensionError, ContractViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

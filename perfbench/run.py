"""otfusion benchmark: one seeded workload, measured for a fixed time.

    python3 perfbench/run.py --workload WORKLOAD --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its
``src``. Standard output ends with one JSON line holding ``correct``,
``attempted`` and ``failed`` (output checks) and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics from a
traced run with ``--trace 1``.
An environment record and the workload's own figures are printed on the
lines before it. See README.md in this directory for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext

import benchenv

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 7
SETUP_TIMEOUT_S = 120
SETUP_OP = "setup"

# per-layer metric -> span whose self time it reports
LAYER_TIMES = {
    "diffcore.backward_ms": "diffcore.backward",
    "transport.otk_embed_ms": "transport.otk_embed",
    "transport.emd_exact_ms": "transport.emd_exact",
    "transport.emd_lp_ms": "transport.emd_lp",
    "transport.sinkhorn_ms": "transport.sinkhorn",
    "context_attention.stack_forward_ms": "context_attention.stack_forward",
    "gated_attention.gated_attention_ms": "gated_attention.gated_attention",
    "fusion.attn_fusion_forward_ms": "fusion.attn_fusion_forward",
    "fusion.co_attention_forward_ms": "fusion.co_attention_forward",
    "calibration.ls_cross_entropy_ms": "calibration.ls_cross_entropy",
    "calibration.ece_ms": "calibration.ece",
    "calibration.ace_ms": "calibration.ace",
    "significance.aso_ms": "significance.aso",
    "audio_features.stft_ms": "audio_features.stft",
    "audio_features.log_mel_ms": "audio_features.log_mel",
    "audio_features.to_image_ms": "audio_features.to_image",
    "model.forward_self_ms": "model.forward",
    "training.sgd_step_ms": "training.sgd_step",
    "training.train_self_ms": "training.train",
    "training.evaluate_self_ms": "training.evaluate",
}
# set-up layers: self time per call, on every workload
SETUP_TIMES = {
    "synthetic.generate_task_ms": "synthetic.generate_task",
    "config.load_configs_ms": "config.load_configs",
}
# per-layer metric -> span whose calls it counts
LAYER_CALLS = {
    "diffcore.backward_calls": "diffcore.backward",
    "transport.otk_embed_calls": "transport.otk_embed",
    "transport.emd_exact_calls": "transport.emd_exact",
    "significance.violation_ratio_calls": "significance.violation_ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, import included, as
    wall seconds and at the nominal machine speed. Each probe is scaled
    by the reference kernel timed in this (warm) process just before and
    after it. The first probe only warms the file cache and is not
    counted."""
    import speedprobe  # after benchenv.configure: it loads numpy

    probe = os.path.join(HERE, "setup_probe.py")
    wall, nominal = [], []
    speedprobe.kernel_seconds()  # warm-up, not counted
    kernel_before = speedprobe.machine_seconds()
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, probe, workload, str(seed)], cwd=benchenv.ROOT,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        kernel_after = speedprobe.machine_seconds()
        if i:
            seconds = float(done.stdout.split()[-1])
            wall.append(seconds)
            nominal.append(speedprobe.at_nominal(seconds, [kernel_before, kernel_after]))
        kernel_before = kernel_after
    return statistics.median(wall), statistics.median(nominal)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def count_mismatches(ops) -> int:
    """Ops whose exact counts differ from the first op of the same kind."""
    first = {}
    mismatched = 0
    for record in ops:
        expected = first.setdefault(record.name, record.signature())
        mismatched += record.signature() != expected
    return mismatched


def figures(named: dict) -> dict:
    """``{name: (value, unit)}`` as the JSON objects the output carries."""
    return {name: {"value": value, "unit": unit} for name, (value, unit) in named.items()}


def layer_metrics(workload, tracer, timings) -> dict:
    """Per-layer figures from the traced ops.

    On per-sample workloads (fit, infer_long) times are self time per
    sample (per ``Model.forward``) and counts are per sample. On the
    others, times are self time per call of the layer and counts are per
    operation of the workload.
    """
    ops = [r for r in tracer.ops if r.name != SETUP_OP]
    units = sum(r.calls["model.forward"] for r in ops) if workload.per_sample else len(ops)

    def per_unit(value):
        return sum(value(r) for r in ops) / units

    def self_ms_per_call(span, records):
        calls = sum(r.calls[span] for r in records)
        return sum(r.self_ns[span] for r in records) / 1e6 / calls if calls else 0.0

    metrics = {}
    for metric, span in LAYER_TIMES.items():
        if workload.per_sample:
            value = per_unit(lambda r: r.self_ns[span] / 1e6)
        else:
            value = self_ms_per_call(span, ops)
        metrics[metric] = (value, "ms")
    for metric, span in SETUP_TIMES.items():
        metrics[metric] = (self_ms_per_call(span, tracer.ops), "ms")
    for metric, span in LAYER_CALLS.items():
        metrics[metric] = (per_unit(lambda r: r.calls[span]), "count")
    metrics["diffcore.nodes_per_sample"] = (per_unit(lambda r: r.nodes), "count")
    metrics["transport.otk_unconverged"] = (per_unit(lambda r: r.otk_unconverged), "count")
    metrics["transport.otk_violation_max"] = (
        max((r.otk_violation_max for r in ops), default=0.0), "mass")
    overhead = statistics.median(timings.traced) / statistics.median(timings.plain) - 1.0
    metrics["bench.trace_overhead_pct"] = (overhead * 100.0, "%")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        benchenv.configure()
        import tracing
        import workloads
        benchenv.check_imported_from_source()
    except (benchenv.SourceMissing, ImportError) as exc:
        print(f"error: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    print(json.dumps({"env": benchenv.record(args.workload, args.seed)}, sort_keys=True))
    tracer = tracing.Tracer() if args.trace else None
    setup_s = None if tracer else measure_setup(args.workload, args.seed)
    with tracer.op(SETUP_OP) if tracer else nullcontext():
        workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.prepare()
    timings = workload.run(args.seconds, tracer)
    attempted, failed = timings.checks, timings.failed

    if tracer:
        tracer.summarize()
        mismatched = count_mismatches(tracer.ops)
        if mismatched:
            print(f"{mismatched} traced op(s) did not repeat the exact counts", file=sys.stderr)
        failed += mismatched
        metrics = layer_metrics(workload, tracer, timings)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.csv"))
    else:
        detail = workload.detail(timings)
        detail["calls"] = (len(timings.plain), "count")
        detail["error_rate"] = (failed / attempted, "ratio")
        detail["setup_wall_s"] = (setup_s[0], "s")
        print(json.dumps({"detail": figures(detail)}, sort_keys=True))
        metrics = {
            "setup_s": (setup_s[1], "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "success_rate": ((attempted - failed) / attempted, "ratio"),
            "throughput_per_s": (workload.throughput_per_s(timings), "1/s"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": figures(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

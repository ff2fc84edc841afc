"""Spans and counts recorded around calls into otfusion's layers.

Tracing replaces, for the duration of one traced operation, each function
in ``TARGETS`` under the name its callers inside otfusion look it up by,
with a wrapper that records a span: name, start, end and parent. Spans
stay in memory; ``write`` saves them when the benchmark ends. Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute, span name). The attribute is where callers inside
# otfusion look the function up, e.g. ``model.py`` calls
# ``transport.otk_embed`` but ``attn_fusion_forward`` by its imported name.
TARGETS = (
    ("otfusion.training", "train", "training.train"),
    ("otfusion.training", "evaluate", "training.evaluate"),
    ("otfusion.training", "SGD.step", "training.sgd_step"),
    ("otfusion.training", "generate_task", "synthetic.generate_task"),
    ("otfusion.training", "ece", "calibration.ece"),
    ("otfusion.training", "ace", "calibration.ace"),
    ("otfusion.synthetic", "generate_task", "synthetic.generate_task"),
    ("otfusion.config", "load_configs", "config.load_configs"),
    ("otfusion.model", "Model.forward", "model.forward"),
    ("otfusion.model", "attn_fusion_forward", "fusion.attn_fusion_forward"),
    ("otfusion.model", "co_attention_forward", "fusion.co_attention_forward"),
    ("otfusion.diffcore", "backward", "diffcore.backward"),
    ("otfusion.context_attention", "stack_forward", "context_attention.stack_forward"),
    ("otfusion.gated_attention", "gated_attention", "gated_attention.gated_attention"),
    ("otfusion.transport", "otk_embed", "transport.otk_embed"),
    ("otfusion.transport", "emd_exact", "transport.emd_exact"),
    ("otfusion.transport", "linprog", "transport.emd_lp"),
    ("otfusion.transport", "sinkhorn", "transport.sinkhorn"),
    ("otfusion.calibration", "ls_cross_entropy", "calibration.ls_cross_entropy"),
    ("otfusion.calibration", "ece", "calibration.ece"),
    ("otfusion.calibration", "ace", "calibration.ace"),
    ("otfusion.significance", "aso", "significance.aso"),
    ("otfusion.significance", "violation_ratio", "significance.violation_ratio"),
    ("otfusion.audio_features", "stft", "audio_features.stft"),
    ("otfusion.audio_features", "log_mel", "audio_features.log_mel"),
    ("otfusion.audio_features", "to_image", "audio_features.to_image"),
)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@dataclass
class OpRecord:
    """One traced operation: its root span and the counts taken inside it."""

    name: str
    span: int
    nodes: int = 0
    otk_unconverged: int = 0
    otk_violation_max: float = 0.0
    calls: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)

    def signature(self) -> tuple:
        """Everything about the operation that must repeat exactly."""
        return (self.nodes, self.otk_unconverged, tuple(sorted(self.calls.items())))


class Tracer:
    """Spans and counts of the traced operations, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.ops: list[OpRecord] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []
        self._op: OpRecord | None = None

    # -- spans -------------------------------------------------------------

    def _push(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._open.append(idx)
        return idx

    def _pop(self, idx: int):
        self.spans[idx][2] = time.perf_counter_ns()
        self._open.pop()

    def _wrap(self, fn, name: str):
        push, pop = self._push, self._pop

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                pop(idx)

        return wrapper

    def _wrap_otk(self, fn, name: str):
        inner = self._wrap(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            emb = inner(*args, **kwargs)
            self._op.otk_unconverged += not emb.converged
            self._op.otk_violation_max = max(self._op.otk_violation_max,
                                             emb.marginal_violation)
            return emb

        return wrapper

    def _wrap_node_init(self, init):
        def counting_init(node, *args, **kwargs):
            self._op.nodes += 1
            init(node, *args, **kwargs)

        return counting_init

    # -- installing --------------------------------------------------------

    def _install(self):
        """Wrap every target; only ever done while an op is open."""
        from otfusion import diffcore

        for module, attr, name in TARGETS:
            owner, key = _resolve(module, attr)
            original = getattr(owner, key)
            wrap = self._wrap_otk if name == "transport.otk_embed" else self._wrap
            self._saved.append((owner, key, original))
            setattr(owner, key, wrap(original, name))
        init = diffcore.Node.__init__
        self._saved.append((diffcore.Node, "__init__", init))
        diffcore.Node.__init__ = self._wrap_node_init(init)

    def _uninstall(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    @contextmanager
    def op(self, name: str):
        """Trace one operation of the workload as a root span."""
        self._install()
        record = OpRecord(name, self._push(name))
        self.ops.append(record)
        self._op = record
        try:
            yield
        finally:
            self._pop(record.span)
            self._op = None
            self._uninstall()

    # -- summaries -----------------------------------------------------------

    def summarize(self):
        """Fill each op's calls and self time per span name below its root.
        Call once, after the last op."""
        children = [0] * len(self.spans)
        root = list(range(len(self.spans)))
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent] += end - start
                root[i] = root[parent]
        by_root = {record.span: record for record in self.ops}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                record = by_root[root[i]]
                record.calls[name] += 1
                record.self_ns[name] += end - start - children[i]

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start},{end},{parent}\n")

"""End-to-end model: frozen random encoders, transport-kernel length
equalization, context attention (text) plus gated attention (image),
two-way transport adaptation, and a fusion head.

Raw modality matrices pass through fixed orthogonal encoders (stand-ins
for pretrained feature extractors; the trainable mechanisms only ever see
representation matrices). Each forward solves the exact plans of the whole
batch, image rows against text rows, in one ``transport_weights`` call (one
assignment per sample). Each is a permutation whose transpose is optimal the
other way, so its 0/1 weights ``w`` serve both adaptations (``w @ x``,
``w.T @ s``) as constants to the backward pass. ``freeze_ot_plans`` pins ``w``.

``Model.forward`` takes one sample (a pair of 2-D matrices) or a
minibatch (3-D stacks, or lists of equally shaped matrices) and builds one
graph for it; the loss is the batch mean.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import calibration as calib
from . import context_attention as ctx
from . import diffcore as dc
from . import gated_attention as gated
from . import transport
from .diffcore import Node, Parameter
from .errors import DimensionError, InputError, ParameterError, require_count, require_seed
from .fusion import AttnFusionHead, CoAttentionHead, attn_fusion_forward, co_attention_forward

CO_ATTENTION = "co_attention"
ATTN_FUSION = "attn_fusion"
CONCAT = "concat"

OTK = "otk"
REPEAT = "repeat"
IDENTITY = "identity"

# the settings that only one fusion head or otk_mode reads, by head or mode
OWN_SETTINGS = {CO_ATTENTION: ("k",), ATTN_FUSION: ("d_z",), OTK: ("otk_eps", "otk_iters")}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture settings; defaults follow the reference hyperparameters
    (d_q = 64, the one width of the context layers' queries and keys;
    d_g = 64, k = 40, d_z = 128, smoothing 0.001)."""

    d: int = 32
    seq_len: int = 12
    strategy: str = "deep"
    layers: int | None = None
    fusion: str = ATTN_FUSION
    d_q: int = 64
    d_g: int = 64
    k: int = 40
    d_z: int = 128
    label_smoothing_alpha: float = 0.001
    otk_mode: str = OTK
    otk_eps: float = 0.1
    otk_iters: int = 30
    ot_enabled: bool = True
    context_gate_override: float | None = None
    image_mask_ones: bool = False

    def __post_init__(self):
        if self.fusion not in (CO_ATTENTION, ATTN_FUSION, CONCAT):
            raise ParameterError(f"unknown fusion {self.fusion!r}")
        if self.otk_mode not in (OTK, REPEAT, IDENTITY):
            raise ParameterError(f"unknown otk_mode {self.otk_mode!r}")
        if not 0.0 <= self.label_smoothing_alpha <= 1.0:
            raise ParameterError("label_smoothing_alpha must be in [0, 1]")
        for name in ("d", "seq_len", "d_q", "d_g", "k", "d_z", "otk_iters"):
            require_count(name, getattr(self, name))
        if self.strategy not in ctx.DEFAULT_LAYERS:
            raise ParameterError(f"unknown context strategy {self.strategy!r}")
        if self.layers is not None:
            require_count("layers", self.layers)
        if not self.otk_eps > 0:
            raise ParameterError(f"otk_eps must be positive, got {self.otk_eps}")
        gate = self.context_gate_override
        if gate is not None and not 0.0 <= gate <= 1.0:
            raise ParameterError(f"context_gate_override must be None or in [0, 1], got {gate}")


def model_settings(cfg: ModelConfig) -> dict:
    """The settings a model built from ``cfg`` reads, by field name: the
    configured head's and ``otk_mode``'s own settings but no other's, and
    ``layers`` as the count the context stack is built with."""
    unread = {name for part, names in OWN_SETTINGS.items()
              if part not in (cfg.fusion, cfg.otk_mode) for name in names}
    settings = {name: value for name, value in asdict(cfg).items() if name not in unread}
    settings["layers"] = ctx.DEFAULT_LAYERS[cfg.strategy] if cfg.layers is None else cfg.layers
    return settings


def _as_input(raw) -> np.ndarray:
    """One sample's matrix or a 3-D batch. Training and evaluation pass a
    split's arrays; a list of matrices comes only from outside callers, and
    ``np.asarray`` stacks it into the same C-ordered array as ``np.stack``."""
    try:
        return np.asarray(raw, dtype=float)
    except ValueError as exc:  # a ragged list
        raise DimensionError(f"batch members must share one shape: {exc}") from exc


def _orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


class Model:
    """Trainable two-branch fusion classifier."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        require_seed("seed", seed)
        self.cfg = cfg
        streams = np.random.SeedSequence((seed, 17)).spawn(4)
        enc_rng = np.random.default_rng(streams[0])
        self.e_text = _orthogonal(enc_rng, cfg.d)
        self.e_img = _orthogonal(enc_rng, cfg.d)

        settings = model_settings(cfg)
        self.stack = ctx.ContextStack.build(
            cfg.d, cfg.d_q, cfg.strategy, settings["layers"],
            np.random.default_rng(streams[1]), "text",
        )
        self.gated_layer = gated.GatedSelfAttentionLayer(
            cfg.d, cfg.d_g, np.random.default_rng(streams[2]), "image",
        )

        head_rng = np.random.default_rng(streams[3])
        d_prime = 2 * cfg.d
        self.co_head = self.attn_head = self.concat_w = self.concat_b = None
        if cfg.fusion == CO_ATTENTION:
            self.co_head = CoAttentionHead(d_prime, settings["k"], head_rng)
        elif cfg.fusion == ATTN_FUSION:
            self.attn_head = AttnFusionHead(d_prime, settings["d_z"], head_rng)
        else:
            self.concat_w = Parameter(dc.xavier_uniform(head_rng, 2 * d_prime, 2), "concat.w")
            self.concat_b = Parameter(np.zeros((1, 2)), "concat.b")

        self.references = None
        if cfg.otk_mode == OTK:
            self.references = Parameter(
                dc.xavier_uniform(head_rng, cfg.seq_len, cfg.d), "otk.references",
            )
        self._frozen = False
        self._frozen_plan: np.ndarray | None = None

    # -- parameters -------------------------------------------------------

    def parameters(self) -> list[Parameter]:
        params = self.stack.parameters() + self.gated_layer.parameters()
        if self.co_head is not None:
            params += self.co_head.parameters()
        if self.attn_head is not None:
            params += self.attn_head.parameters()
        if self.concat_w is not None:
            params += [self.concat_w, self.concat_b]
        if self.references is not None:
            params.append(self.references)
        return params

    # -- transport plumbing -------------------------------------------------

    def freeze_ot_plans(self, frozen: bool = True):
        """Pin the next forward's transport weights (finite-difference seam)."""
        self._frozen = frozen
        self._frozen_plan = None

    def _transport_weights(self, src_v: np.ndarray, tgt_v: np.ndarray) -> np.ndarray:
        """Exact-EMD weights, one assignment per sample of the stack."""
        if self._frozen_plan is not None:
            return self._frozen_plan
        w = transport.transport_weights(src_v, tgt_v)
        if self._frozen:
            self._frozen_plan = w
        return w

    # -- reference init -------------------------------------------------------

    def init_references(self, encoded_rows: np.ndarray, rng: np.random.Generator):
        """Data-driven init: sample reference rows from encoded image features."""
        if self.references is None:
            return
        pool = np.asarray(encoded_rows, dtype=float)
        idx = rng.choice(pool.shape[0], size=self.cfg.seq_len, replace=pool.shape[0] < self.cfg.seq_len)
        self.references.value[...] = pool[idx]

    def encode_image(self, y_raw: np.ndarray) -> np.ndarray:
        return np.asarray(y_raw, dtype=float) @ self.e_img

    def _image_sequence(self, y_enc: np.ndarray) -> Node:
        """Length-equalized image representation per the configured mode."""
        cfg = self.cfg
        if cfg.otk_mode == OTK:
            return transport.otk_embed(y_enc, self.references, cfg.otk_eps, cfg.otk_iters).values
        if cfg.otk_mode == REPEAT:
            return dc.constant(np.repeat(y_enc.mean(axis=-2, keepdims=True), cfg.seq_len, axis=-2))
        if y_enc.shape[-2] != cfg.seq_len:
            raise ParameterError(
                f"identity otk_mode needs image length {cfg.seq_len}, got {y_enc.shape[-2]}"
            )
        return dc.constant(y_enc)

    # -- forward -------------------------------------------------------------

    def forward(self, x_raw: np.ndarray, y_raw: np.ndarray, training: bool,
                rng: np.random.Generator | None = None) -> Node:
        """Logits: 1 x 2 for one sample, B x 1 x 2 for a batch of B."""
        cfg = self.cfg
        x_raw = _as_input(x_raw)
        y_raw = _as_input(y_raw)
        if x_raw.size == 0 or y_raw.size == 0:
            raise DimensionError(f"empty input: text {x_raw.shape}, image {y_raw.shape}")
        if x_raw.ndim not in (2, 3) or x_raw.shape[-2:] != (cfg.seq_len, cfg.d):
            raise DimensionError(f"text input must be {cfg.seq_len}x{cfg.d}, got {x_raw.shape}")
        if y_raw.shape[-1] != cfg.d:
            raise DimensionError(f"image input width must be {cfg.d}, got {y_raw.shape[-1]}")
        if y_raw.shape[:-2] != x_raw.shape[:-2] or y_raw.ndim != x_raw.ndim:
            raise DimensionError(f"image input {y_raw.shape} does not match text input {x_raw.shape}")

        x = dc.constant(x_raw @ self.e_text)
        # the encoded image goes on unnamed: in inference it is then freed as
        # soon as OTK has pooled it, before the context stack's peak
        s = self._image_sequence(self.encode_image(y_raw))

        f = ctx.stack_forward(x, self.stack, cfg.context_gate_override)
        h = gated.gated_attention(s, self.gated_layer, cfg.image_mask_ones)

        if cfg.ot_enabled:
            w = self._transport_weights(s.value, x.value)
            x_t = dc.matmul(dc.constant(w), x)
            s_t = dc.matmul(dc.constant(w.swapaxes(-1, -2)), s)
        else:
            x_t, s_t = x, s

        c, s = dc.concat_cols(f, x_t), dc.concat_cols(h, s_t)
        if cfg.fusion == CO_ATTENTION:
            return co_attention_forward(c, s, self.co_head, training, rng)
        if cfg.fusion == ATTN_FUSION:
            return attn_fusion_forward(c, s, self.attn_head, training, rng)
        pooled = dc.concat_cols(dc.mean_rows(c), dc.mean_rows(s))
        return dc.add(dc.matmul(pooled, self.concat_w), self.concat_b)

    def predict_proba(self, x_raw, y_raw) -> np.ndarray:
        """Class probabilities: a vector for one sample, B rows for a batch."""
        with dc.inference(self.parameters()):
            logits = self.forward(x_raw, y_raw, training=False).value
        return dc._softmax(logits).reshape(logits.shape[:-2] + (-1,))

    def loss(self, logits: Node, labels) -> Node:
        """Batch-mean smoothed cross-entropy (1x1); ``labels`` holds one
        label per sample (a plain int for a one-sample forward)."""
        labels = np.atleast_1d(labels)
        if not np.array_equal(labels, np.round(labels)):
            raise InputError(f"labels must be integers, got {labels.tolist()}")
        targets = calib.smooth_targets(labels.astype(int), self.cfg.label_smoothing_alpha, 2)
        return calib.ls_cross_entropy(logits, targets)


def assemble_model(cfg: ModelConfig, seed: int = 0) -> Model:
    """Build a trainable model for the given configuration."""
    return Model(cfg, seed)


# each ablation axis: the config changes of its variants, by variant name
ABLATION_AXES = {
    "no_context": {"no_context": {"context_gate_override": 0.0}},
    "no_gate": {"no_gate": {"image_mask_ones": True}},
    "no_ot": {"no_ot": {"ot_enabled": False, "otk_mode": IDENTITY}},
    "repeat_instead_of_otk": {"repeat_instead_of_otk": {"otk_mode": REPEAT}},
    "no_fusion": {"no_fusion": {"fusion": CONCAT}},
    "layer_sweep": {f"layers_{l}": {"strategy": ctx.DEEP, "layers": l} for l in range(1, 6)},
}


def ablation_variant(base: ModelConfig, axis: str) -> list[tuple[str, ModelConfig]]:
    """Named config variants for one ablation axis."""
    if axis not in ABLATION_AXES:
        raise ParameterError(f"unknown ablation axis {axis!r}")
    return [(name, replace(base, **changes)) for name, changes in ABLATION_AXES[axis].items()]

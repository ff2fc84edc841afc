"""Audio preprocessing: STFT, mel filterbank, log-mel spectrogram, delta
features, and the stacked 3-channel 224x224 image used by the image
branch. Everything is deterministic and pure numpy."""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, ParameterError, require_count

IMAGE_SIZE = 224
STFT_CHUNK = 64  # frames windowed and transformed together
MEL_BLOCKS = 16  # contiguous filter groups, each projected from its own bin span
TENSOR_MAGIC = b"OTF1"


@dataclass
class Waveform:
    """Mono audio samples at a fixed rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float).ravel()
        require_count("sample_rate", self.sample_rate)
        if self.samples.size == 0:
            raise InputError("empty waveform")
        if not np.isfinite(self.samples).all():
            raise InputError("waveform samples must be finite")


@dataclass
class FeatureParams:
    """Extraction settings; defaults follow the 224-band / hop-1024 setup."""

    n_fft: int = 2048
    hop: int = 1024
    n_mels: int = 224

    def __post_init__(self):
        _check_frames(self.n_fft, self.hop)
        require_count("n_mels", self.n_mels)


@dataclass
class SpectrogramImage:
    """Three stacked channels (log-mel, delta, delta-delta), each 224x224."""

    channels: np.ndarray

    def __post_init__(self):
        if self.channels.shape != (3, IMAGE_SIZE, IMAGE_SIZE):
            raise InputError(f"expected 3x{IMAGE_SIZE}x{IMAGE_SIZE}, got {self.channels.shape}")


def _hann(n: int) -> np.ndarray:
    # periodic Hann, the analysis-window convention
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _check_frames(n_fft, hop):
    require_count("n_fft", n_fft)
    if n_fft < 256 or n_fft & (n_fft - 1):
        raise ParameterError(f"n_fft must be a power of two >= 256, got {n_fft}")
    require_count("hop", hop)


def stft(w: Waveform, n_fft: int = 2048, hop: int = 1024) -> np.ndarray:
    """Centered short-time Fourier transform with a Hanning window.

    Frames are reflect-padded at the signal edges; output is complex with
    shape (n_fft // 2 + 1, frames). It is the transposed view of a
    row-major (frames, bins) array, each frame's spectrum one row.
    """
    _check_frames(n_fft, hop)
    x = w.samples
    if x.size < n_fft:
        raise InputError(f"signal length {x.size} shorter than n_fft {n_fft}")
    pad = n_fft // 2
    x = np.pad(x, pad, mode="reflect")
    segments = sliding_window_view(x, n_fft)[::hop]
    window = _hann(n_fft)
    frames = np.empty((len(segments), n_fft // 2 + 1), dtype=complex)
    windowed = np.empty((STFT_CHUNK, n_fft))
    for t in range(0, len(segments), STFT_CHUNK):
        chunk = segments[t:t + STFT_CHUNK]
        buf = np.multiply(chunk, window, out=windowed[:len(chunk)])
        np.fft.rfft(buf, axis=1, out=frames[t:t + len(chunk)])
    return frames.T


def _hz_to_mel(f):
    # Slaney: linear below 1 kHz, log-spaced above
    f = np.asarray(f, dtype=float)
    mel = 3.0 * f / 200.0
    log_region = f >= 1000.0
    mel = np.where(log_region, 15.0 + 27.0 * np.log(np.maximum(f, 1000.0) / 1000.0) / np.log(6.4), mel)
    return mel


def _mel_to_hz(m):
    m = np.asarray(m, dtype=float)
    f = 200.0 * m / 3.0
    log_region = m >= 15.0
    f = np.where(log_region, 1000.0 * np.exp(np.log(6.4) * (m - 15.0) / 27.0), f)
    return f


@functools.lru_cache(maxsize=8)
def mel_filterbank(n_mels: int, sample_rate: int, n_fft: int) -> np.ndarray:
    """Triangular area-normalized mel filters spanning 0 to Nyquist, built
    once per setting and cached (the last 8): the array is shared and read-only."""
    require_count("n_mels", n_mels)
    n_bins = n_fft // 2 + 1
    if n_mels > n_bins:
        raise ParameterError(f"n_mels {n_mels} exceeds the {n_bins} FFT bins")
    mel_pts = np.linspace(_hz_to_mel(0.0), _hz_to_mel(sample_rate / 2.0), n_mels + 2)
    hz_pts = _mel_to_hz(mel_pts)
    fft_freqs = np.linspace(0.0, sample_rate / 2.0, n_bins)
    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, center, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (fft_freqs - lo) / max(center - lo, 1e-12)
        down = (hi - fft_freqs) / max(hi - center, 1e-12)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
        fb[m] *= 2.0 / (hi - lo)
    fb.flags.writeable = False
    return fb


@functools.lru_cache(maxsize=8)
def _mel_blocks(n_mels: int, sample_rate: int, n_fft: int) -> tuple:
    """``mel_filterbank``'s rows in ``MEL_BLOCKS`` contiguous groups, each cut to the
    bins ``[lo, hi)`` its filters cover (none if all zero): read-only ``(rows, lo, hi, block)``."""
    fb = mel_filterbank(n_mels, sample_rate, n_fft)
    blocks = []
    for group in np.array_split(np.arange(n_mels), min(MEL_BLOCKS, n_mels)):
        rows = slice(group[0], group[-1] + 1)
        cols = np.flatnonzero(fb[rows].any(axis=0))
        lo, hi = (cols[0], cols[-1] + 1) if cols.size else (0, 0)
        blocks.append((rows, lo, hi, fb[rows, lo:hi]))  # a view, read-only as fb is
    return tuple(blocks)


def log_mel(w: Waveform, params: FeatureParams | None = None) -> np.ndarray:
    """Log-mel power spectrogram in dB, floored at 80 dB below the peak. Each filter
    group of ``_mel_blocks`` is projected from its own bins only: ``mel_filterbank @ power``
    without the exact-zero terms, so summed in another order (within a few ulps)."""
    params = params or FeatureParams()
    spec = stft(w, params.n_fft, params.hop)
    power = np.abs(spec)
    power *= power
    mel_power = np.empty((params.n_mels, power.shape[1]))
    for rows, lo, hi, block in _mel_blocks(params.n_mels, w.sample_rate, params.n_fft):
        np.matmul(block, power[lo:hi], out=mel_power[rows])
    db = 10.0 * np.log10(mel_power + 1e-10)
    return np.maximum(db, db.max() - 80.0)


def delta(m: np.ndarray, width: int = 9) -> np.ndarray:
    """Per-row local least-squares slope over a centered window.

    Edges are handled by replicating the boundary columns. The second
    difference is just delta applied twice.
    """
    require_count("width", width)
    if width % 2 == 0 or width < 3:
        raise ParameterError(f"width must be odd and >= 3, got {width}")
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ParameterError("delta expects a 2-D matrix")
    if m.shape[1] == 0:
        raise InputError("delta needs at least one column")
    half = width // 2
    cols = m.shape[1]
    padded = np.pad(m, ((0, 0), (half, half)), mode="edge")
    out = np.zeros_like(m)
    # paired differences so constant inputs cancel exactly
    for k in range(1, half + 1):
        out += k * (padded[:, half + k:half + k + cols] - padded[:, half - k:half - k + cols])
    denom = 2.0 * sum(k * k for k in range(1, half + 1))
    return out / denom


def _interp_rows(f: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """``np.interp(pos, arange(len(f)), f[:, c])`` for every column c, in
    np.interp's own arithmetic: f[j] at a grid point or the last row, else
    (f[j+1] - f[j]) * (x - j) + f[j]; where that is NaN, its fallbacks
    from the upper point, then f[j] if f[j] == f[j+1]. ``pos`` lies in
    [0, len(f) - 1]."""
    j = np.minimum(pos.astype(int), len(f) - 1)
    frac = (pos - j)[:, None]
    lo, hi = f[j], f[np.minimum(j + 1, len(f) - 1)]
    out = (hi - lo) * frac + lo
    nan = np.isnan(out)
    if nan.any():  # only an infinite or NaN input gets here
        out[nan] = ((hi - lo) * (frac - 1.0) + hi)[nan]
        out = np.where(np.isnan(out) & (lo == hi), lo, out)
    return np.where(frac == 0.0, lo, out)


def bilinear_resize(m: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Separable linear interpolation onto an endpoint-aligned grid, along
    each row first and then along each column.

    Resizing to the input's own shape reproduces it exactly. The input
    must be a non-empty 2-D matrix and each target size at least 1.
    """
    require_count("rows", rows)
    require_count("cols", cols)
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise InputError(f"bilinear_resize expects a non-empty 2-D matrix, got shape {m.shape}")
    in_r, in_c = m.shape
    row_pos = np.linspace(0.0, in_r - 1.0, rows) if in_r > 1 else np.zeros(rows)
    col_pos = np.linspace(0.0, in_c - 1.0, cols) if in_c > 1 else np.zeros(cols)
    if cols != in_c:  # a kept axis's grid is its own integer points: its pass only copies
        m = _interp_rows(m.T, col_pos).T
    if rows != in_r:
        m = _interp_rows(m, row_pos)
    return m.copy() if (rows, cols) == (in_r, in_c) else m


def to_image(w: Waveform, params: FeatureParams | None = None) -> SpectrogramImage:
    """Stack [log-mel, delta, delta-delta], each resized to 224x224."""
    params = params or FeatureParams()
    base = log_mel(w, params)
    d1 = delta(base)
    d2 = delta(d1)
    channels = np.stack([
        bilinear_resize(base, IMAGE_SIZE, IMAGE_SIZE),
        bilinear_resize(d1, IMAGE_SIZE, IMAGE_SIZE),
        bilinear_resize(d2, IMAGE_SIZE, IMAGE_SIZE),
    ])
    return SpectrogramImage(channels)


# ---------------------------------------------------------------------------
# file I/O used by the CLI
# ---------------------------------------------------------------------------

def load_wav(path: str) -> Waveform:
    """Read a mono or stereo WAV file (8-, 16- or 32-bit PCM, or float) as
    samples in [-1, 1); stereo is averaged."""
    from scipy.io import wavfile

    try:
        rate, data = wavfile.read(path)
    except ValueError as exc:
        raise InputError(f"cannot read WAV file {path}: {exc}") from exc
    data = np.asarray(data)
    if data.dtype == np.uint8:  # 8-bit PCM is unsigned, centred on 128
        data = (data.astype(float) - 128.0) / 128.0
    elif data.dtype == np.int16:
        data = data.astype(float) / 32768.0
    elif data.dtype == np.int32:
        data = data.astype(float) / 2147483648.0
    else:
        data = data.astype(float)
    if data.ndim == 2:
        data = data.mean(axis=1)
    return Waveform(data, int(rate))


def save_tensor(path: str, arr: np.ndarray):
    """Write a little-endian float32 tensor: magic, ndim, dims, raw data."""
    arr = np.asarray(arr, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<i", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}i", *arr.shape))
        fh.write(arr.tobytes())


def load_tensor(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != TENSOR_MAGIC:
        raise InputError(f"{path} is not a tensor file")
    try:
        ndim, = struct.unpack_from("<i", raw, 4)
        shape = struct.unpack_from(f"<{ndim}i", raw, 8)  # a negative ndim fails here too
        if min(shape, default=0) < 0:
            raise ValueError(f"negative dimension in shape {shape}")
        return np.frombuffer(raw, dtype="<f4", offset=8 + 4 * ndim).reshape(shape)
    except (struct.error, ValueError) as exc:
        raise InputError(f"{path} is a malformed tensor file: {exc}") from exc

import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mel_power_dense, resize_by_interp, stft_per_frame, window_slope_bruteforce

from otfusion import audio_features as af
from otfusion.errors import InputError, ParameterError


def sine_wave(freq, sr=16000, seconds=0.5):
    t = np.arange(int(sr * seconds)) / sr
    return af.Waveform(np.sin(2 * np.pi * freq * t), sr)


class TestStft:
    def test_bin_center_sine_peaks_at_expected_bin(self):
        sr, n_fft, hop = 16000, 1024, 256
        k = 40
        w = sine_wave(k * sr / n_fft, sr)
        spec = np.abs(af.stft(w, n_fft, hop))
        interior = spec[:, 3:-3]
        npt.assert_array_equal(interior.argmax(axis=0), np.full(interior.shape[1], k))

    def test_zero_signal_zero_magnitudes(self):
        w = af.Waveform(np.zeros(4096), 16000)
        spec = af.stft(w, 1024, 512)
        npt.assert_array_equal(np.abs(spec), np.zeros_like(np.abs(spec)))

    def test_parseval_per_frame(self):
        rng = np.random.default_rng(0)
        sr, n_fft, hop = 8000, 512, 128
        w = af.Waveform(rng.standard_normal(4000), sr)
        spec = af.stft(w, n_fft, hop)
        # rebuild the windowed frames the same way to compare energies
        pad = n_fft // 2
        x = np.pad(w.samples, pad, mode="reflect")
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n_fft) / n_fft)
        weights = np.full(n_fft // 2 + 1, 2.0)
        weights[0] = 1.0
        weights[-1] = 1.0
        for t in range(spec.shape[1]):
            seg = x[t * hop:t * hop + n_fft] * window
            freq_energy = (weights * np.abs(spec[:, t]) ** 2).sum() / n_fft
            time_energy = (seg ** 2).sum()
            assert freq_energy == pytest.approx(time_energy, rel=1e-6)

    def test_too_short_signal(self):
        with pytest.raises(InputError):
            af.stft(af.Waveform(np.zeros(100), 8000), 1024, 256)

    def test_n_fft_must_be_power_of_two(self):
        w = af.Waveform(np.zeros(5000), 8000)
        with pytest.raises(ParameterError):
            af.stft(w, 1000, 256)
        with pytest.raises(ParameterError):
            af.stft(w, 128, 64)

    @settings(max_examples=40, deadline=None)
    @given(n_fft=st.sampled_from([256, 512, 1024]), hop_ratio=st.floats(0.01, 3.0),
           frames=st.integers(1, 3 * af.STFT_CHUNK), seed=st.integers(0, 2**32 - 1))
    def test_chunked_frames_match_per_frame_rfft(self, n_fft, hop_ratio, frames, seed):
        # hop up to 3 n_fft: frames that skip samples
        hop = max(1, int(hop_ratio * n_fft))
        x = np.random.default_rng(seed).standard_normal(max(n_fft, (frames - 1) * hop))
        npt.assert_array_equal(af.stft(af.Waveform(x, 8000), n_fft, hop),
                               stft_per_frame(x, n_fft, hop))


class TestMelFilterbank:
    def test_nonnegative_weights(self):
        fb = af.mel_filterbank(32, 16000, 1024)
        assert fb.shape == (32, 513)
        assert np.all(fb >= 0)

    def test_peak_frequencies_strictly_increasing(self):
        fb = af.mel_filterbank(64, 22050, 2048)
        peaks = fb.argmax(axis=1)
        assert np.all(np.diff(peaks) > 0)

    def test_flat_spectrum_reproduces_area_profile(self):
        fb = af.mel_filterbank(24, 16000, 1024)
        flat_response = fb @ np.ones(513)
        npt.assert_allclose(flat_response, fb.sum(axis=1), rtol=1e-12)

    def test_full_default_band_count_fits(self):
        fb = af.mel_filterbank(224, 22050, 2048)
        assert fb.shape[0] == 224
        assert np.all(fb.sum(axis=1) > 0)

    def test_too_many_bands(self):
        with pytest.raises(ParameterError):
            af.mel_filterbank(600, 16000, 1024)

    def test_cached_bank_equals_a_fresh_build_and_is_read_only(self):
        fb = af.mel_filterbank(224, 22050, 2048)
        assert af.mel_filterbank(224, np.int64(22050), 2048) is fb
        npt.assert_array_equal(fb, af.mel_filterbank.__wrapped__(224, 22050, 2048))
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0


# (n_mels, sample_rate, n_fft); the last has 24 filters without a nonzero
MEL_SETTINGS = [(224, 22050, 2048), (40, 8000, 512), (256, 16000, 512)]


class TestMelBlocks:
    @pytest.mark.parametrize("setting", MEL_SETTINGS)
    def test_blocks_reassemble_the_filterbank(self, setting):
        fb = af.mel_filterbank(*setting)
        rebuilt = np.zeros_like(fb)
        next_row = 0
        for rows, lo, hi, block in af._mel_blocks(*setting):
            assert rows.start == next_row and block.shape == (rows.stop - rows.start, hi - lo)
            rebuilt[rows, lo:hi] = block
            next_row = rows.stop
        assert next_row == fb.shape[0]
        npt.assert_array_equal(rebuilt, fb)

    def test_blocks_are_cached_and_read_only(self):
        blocks = af._mel_blocks(224, 22050, 2048)
        assert af._mel_blocks(224, np.int64(22050), 2048) is blocks
        for _, _, _, block in blocks:
            with pytest.raises(ValueError):
                block[0, 0] = 1.0

    @pytest.mark.parametrize("setting", MEL_SETTINGS)
    @pytest.mark.parametrize("silent", [False, True])
    def test_log_mel_projects_within_rounding_of_the_dense_product(self, setting, silent):
        n_mels, sr, n_fft = setting
        samples = np.random.default_rng(n_mels).standard_normal(2 * sr)
        w = af.Waveform(np.zeros(2 * sr) if silent else samples, sr)
        params = af.FeatureParams(n_fft=n_fft, hop=n_fft // 2, n_mels=n_mels)
        power = np.abs(af.stft(w, n_fft, n_fft // 2)) ** 2
        # log_mel's projection, block by block
        blocked = np.empty((n_mels, power.shape[1]))
        for rows, lo, hi, block in af._mel_blocks(n_mels, sr, n_fft):
            blocked[rows] = block @ power[lo:hi]
        fb = af.mel_filterbank(n_mels, sr, n_fft)
        # every term is >= 0, so the blocked sum's rounding is relative to each entry
        npt.assert_allclose(blocked, mel_power_dense(fb, power), rtol=1e-14, atol=0)
        npt.assert_array_equal(blocked[~fb.any(axis=1)], 0.0)
        db = 10.0 * np.log10(blocked + 1e-10)
        npt.assert_array_equal(af.log_mel(w, params), np.maximum(db, db.max() - 80.0))


class TestFeatureParams:
    @pytest.mark.parametrize("field, bad", [
        ("hop", 2.5), ("hop", 0), ("n_fft", 2048.0), ("n_fft", 1000), ("n_fft", 128),
        ("n_mels", 0), ("n_mels", 40.0),
    ])
    def test_bad_field_rejected_at_construction(self, field, bad):
        with pytest.raises(ParameterError, match=field):
            af.FeatureParams(**{field: bad})


class TestLogMel:
    def test_silence_is_uniform_floor(self):
        w = af.Waveform(np.zeros(8192), 16000)
        out = af.log_mel(w, af.FeatureParams(n_fft=1024, hop=512, n_mels=32))
        assert np.max(out) == np.min(out)
        assert out.max() == pytest.approx(-100.0)

    def test_amplitude_scaling_shifts_by_20db(self):
        w = sine_wave(1000, sr=16000, seconds=0.6)
        params = af.FeatureParams(n_fft=1024, hop=256, n_mels=32)
        quiet = af.log_mel(w, params)
        loud = af.log_mel(af.Waveform(10 * w.samples, w.sample_rate), params)
        unclipped = (quiet > quiet.max() - 60) & (loud > loud.max() - 60)
        diff = (loud - quiet)[unclipped]
        npt.assert_allclose(diff, 20.0, atol=1e-3)

    def test_shape_contract(self):
        w = af.Waveform(np.random.default_rng(1).standard_normal(10000), 16000)
        out = af.log_mel(w, af.FeatureParams(n_fft=1024, hop=512, n_mels=48))
        frames = 1 + 10000 // 512
        assert out.shape == (48, frames)


class TestDelta:
    def test_constant_input_is_exactly_zero(self):
        out = af.delta(np.full((4, 30), 3.25), 9)
        npt.assert_array_equal(out, np.zeros((4, 30)))

    def test_linear_ramp_recovers_slope(self):
        slope = 0.37
        row = slope * np.arange(50.0)
        out = af.delta(row.reshape(1, -1), 9)
        interior = out[0, 4:-4]
        npt.assert_allclose(interior, slope, atol=1e-12)

    def test_random_row_matches_regression_oracle(self):
        rng = np.random.default_rng(2)
        row = rng.standard_normal(40)
        out = af.delta(row.reshape(1, -1), 7)
        npt.assert_allclose(out[0], window_slope_bruteforce(row, 7), atol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        m1, m2 = rng.standard_normal((3, 25)), rng.standard_normal((3, 25))
        lhs = af.delta(2.5 * m1 + m2, 9)
        rhs = 2.5 * af.delta(m1, 9) + af.delta(m2, 9)
        npt.assert_allclose(lhs, rhs, atol=1e-10)

    def test_even_width_rejected(self):
        with pytest.raises(ParameterError):
            af.delta(np.zeros((2, 10)), 8)

    @pytest.mark.parametrize("width", [9.0, 1])
    def test_fractional_or_short_width_rejected(self, width):
        with pytest.raises(ParameterError, match="width"):
            af.delta(np.zeros((2, 10)), width)

    def test_no_columns_is_an_input_error(self):
        with pytest.raises(InputError, match="at least one column"):
            af.delta(np.zeros((3, 0)))


class TestBilinearResize:
    def test_identity_when_shape_matches(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((224, 224))
        npt.assert_allclose(af.bilinear_resize(m, 224, 224), m, atol=1e-9)

    def test_constant_preserved(self):
        out = af.bilinear_resize(np.full((10, 17), 2.5), 224, 224)
        npt.assert_allclose(out, 2.5, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(shape=st.tuples(st.integers(1, 60), st.integers(1, 60)),
           size=st.tuples(st.integers(1, 300), st.integers(1, 300)),
           seed=st.integers(0, 2**32 - 1), rounded=st.booleans())
    def test_gather_passes_match_np_interp(self, shape, size, seed, rounded):
        m = np.random.default_rng(seed).normal(0, 50, shape)
        if rounded:
            m = np.round(m)
        npt.assert_array_equal(af.bilinear_resize(m, *size), resize_by_interp(m, *size))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 37), (37, 1)])
    def test_single_row_or_column_input(self, shape):
        m = np.random.default_rng(3).standard_normal(shape)
        npt.assert_array_equal(af.bilinear_resize(m, 224, 224), resize_by_interp(m, 224, 224))

    @pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
    @pytest.mark.parametrize("shape, size", [
        ((9, 13), (9, 30)), ((9, 13), (20, 13)), ((9, 13), (9, 13)), ((1, 13), (1, 30)),
        ((1, 13), (5, 13)), ((13, 1), (13, 4)), ((13, 1), (30, 1)), ((1, 1), (1, 1)),
    ])
    @pytest.mark.parametrize("special", [False, True])
    def test_kept_axis_matches_np_interp_and_copies(self, shape, size, special):
        m = np.random.default_rng(8).standard_normal(shape)
        if special:
            m.flat[::3], m.flat[1::5], m.flat[2::7] = np.inf, np.nan, -np.inf
        before = m.copy()
        out = af.bilinear_resize(m, *size)
        npt.assert_array_equal(out, resize_by_interp(m, *size))
        out[...] = 7.0
        npt.assert_array_equal(m, before)

    # the overflowing gaps warn; the branch np.where discards warns too
    @pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
    def test_grid_points_keep_values_whose_gaps_overflow(self):
        # f[j+1] - f[j] overflows to inf here, so inf * 0 + f[j] would be
        # NaN at the grid points; np.interp returns f[j] there
        m = np.where(np.indices((5, 5)).sum(axis=0) % 2, -1e308, 1e308)
        out = af.bilinear_resize(m, 9, 9)
        npt.assert_array_equal(out, resize_by_interp(m, 9, 9))
        npt.assert_array_equal(out[::2, ::2], m)

    @pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
    @pytest.mark.parametrize("values", [
        [np.inf, 5.0], [5.0, -np.inf], [np.inf, np.inf], [-np.inf, np.inf], [np.nan, 1.0],
        [1.0, np.inf, np.inf, -3.0, np.nan, np.nan, -np.inf, -np.inf],
    ])
    def test_infinite_and_nan_inputs_match_np_interp(self, values):
        # the slope formula gives NaN here; np.interp retries from the
        # upper point, then keeps f[j] where f[j] == f[j+1]
        line = np.array(values)
        for m in (line[None, :], line[:, None], np.outer([1.0, 2.0, -1.0], line)):
            npt.assert_array_equal(af.bilinear_resize(m, 7, 11), resize_by_interp(m, 7, 11))
            npt.assert_array_equal(af.bilinear_resize(m.T, 11, 7), resize_by_interp(m.T, 11, 7))
        npt.assert_array_equal(af.bilinear_resize(line[None, :], 1, 9)[0],
                               np.interp(np.linspace(0, line.size - 1, 9), np.arange(line.size), line))

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (5,)])
    def test_empty_or_not_2d_input_is_an_input_error(self, shape):
        with pytest.raises(InputError, match="non-empty 2-D"):
            af.bilinear_resize(np.zeros(shape), 4, 4)

    @pytest.mark.parametrize("size", [(0, 5), (5, 0), (-1, 5), (5, 2.0)])
    def test_target_size_below_one_or_fractional_rejected(self, size):
        with pytest.raises(ParameterError, match="rows|cols"):
            af.bilinear_resize(np.ones((3, 4)), *size)


class TestToImage:
    def params(self):
        return af.FeatureParams(n_fft=512, hop=128, n_mels=40)

    def test_output_shape(self):
        w = af.Waveform(np.random.default_rng(5).standard_normal(8000), 8000)
        image = af.to_image(w, self.params())
        assert image.channels.shape == (3, 224, 224)

    def test_deterministic(self):
        samples = np.random.default_rng(6).standard_normal(8000)
        a = af.to_image(af.Waveform(samples, 8000), self.params())
        b = af.to_image(af.Waveform(samples.copy(), 8000), self.params())
        npt.assert_array_equal(a.channels, b.channels)

    def test_chirp_produces_monotone_ridge(self):
        sr = 8000
        t = np.arange(sr * 2) / sr
        chirp = np.sin(2 * np.pi * (200 * t + 600 * t * t))
        out = af.log_mel(af.Waveform(chirp, sr), self.params())
        ridge = out.argmax(axis=0)
        trend = ridge[4:-4]
        assert trend[-1] > trend[0]
        # allow small local wobble but require a monotone trend overall
        assert np.sum(np.diff(trend) < 0) <= len(trend) // 10


class TestTensorIO:
    def test_round_trip(self, tmp_path):
        arr = np.random.default_rng(7).standard_normal((3, 5, 4)).astype(np.float32)
        path = tmp_path / "tensor.bin"
        af.save_tensor(str(path), arr)
        npt.assert_array_equal(af.load_tensor(str(path)), arr)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(InputError):
            af.load_tensor(str(path))

    @pytest.mark.parametrize("edit", [
        lambda raw: raw[:6], lambda raw: raw[:12], lambda raw: raw[:20], lambda raw: raw[:259],
        lambda raw: raw + bytes(4),
        lambda raw: raw[:4] + struct.pack("<i", -1) + raw[8:],
        lambda raw: raw[:12] + struct.pack("<i", -1) + raw[16:],
        lambda raw: raw[:12] + struct.pack("<2i", -4, -5) + raw[20:],
    ], ids=["cut_in_ndim", "cut_in_dims", "no_data", "data_short", "data_long", "negative_ndim",
            "one_negative_dim", "two_negative_dims"])
    def test_malformed_file_rejected(self, tmp_path, edit):
        path = tmp_path / "tensor.bin"
        af.save_tensor(str(path), np.ones((3, 4, 5)))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(InputError, match="tensor.bin"):
            af.load_tensor(str(path))


def test_waveform_validation():
    with pytest.raises(ParameterError):
        af.Waveform(np.zeros(10), 0)
    with pytest.raises(InputError):
        af.Waveform(np.zeros(0), 8000)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_waveform_rejects_non_finite_samples(bad):
    samples = np.zeros(4096)
    samples[100] = bad
    with pytest.raises(InputError, match="finite"):
        af.Waveform(samples, 8000)
    with pytest.raises(InputError, match="finite"):
        af.Waveform(np.full(4096, bad), 8000)


@pytest.mark.parametrize("rate", [np.nan, 8000.5, 8000.0, -8000])
def test_waveform_rejects_non_integer_sample_rate(rate):
    with pytest.raises(ParameterError, match="sample_rate must be >= 1"):
        af.Waveform(np.zeros(4096), rate)


def test_waveform_accepts_numpy_integer_rate():
    assert af.Waveform(np.zeros(4096), np.int32(8000)).sample_rate == 8000

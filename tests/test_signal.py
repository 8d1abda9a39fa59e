import math
import re
import struct
import wave

import numpy as np
import pytest

from conftest import lfilter_synth_vowel, lfilter_twice
from vowelflow.numerics import Rng, ShapeError
from vowelflow.signal import (
    SAMPLE_RATE,
    VOWELS,
    add_white_noise,
    formant_filter,
    formant_resonators,
    frame_count,
    istft_phase_borrow,
    read_wav,
    stft,
    synth_vowel,
    write_wav,
)


def dft_of_windowed_frame(samples, window, fft_size, bin_index):
    """Independent single-bin DFT: sum x[n] w[n] exp(-2πi k n / N)."""
    n = np.arange(len(samples))
    phase = np.exp(-2j * np.pi * bin_index * n / fft_size)
    return np.sum(samples * window * phase)


class TestWav:
    def test_zero_file(self, tmp_path):
        path = tmp_path / "z.wav"
        write_wav(path, np.zeros(800))
        back = read_wav(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, np.zeros(800))

    def test_scaling_definition(self, tmp_path):
        path = tmp_path / "s.wav"
        write_wav(path, np.array([0.5, -0.5, 0.0]))
        back = read_wav(path)
        assert back[0] == 16384 / 32768
        assert back[1] == -16384 / 32768

    def test_round_trip_quantization_bound(self, tmp_path):
        rng = Rng(1)
        w = np.clip(rng.standard_normal(4000) * 0.3, -1, 1)
        path = tmp_path / "r.wav"
        write_wav(path, w)
        back = read_wav(path)
        assert np.max(np.abs(back - w)) <= 1 / 32768

    def test_rejects_stereo(self, tmp_path):
        path = tmp_path / "st.wav"
        with wave.open(str(path), "wb") as fp:
            fp.setnchannels(2)
            fp.setsampwidth(2)
            fp.setframerate(16000)
            fp.writeframes(b"\0\0\0\0" * 10)
        with pytest.raises(ValueError):
            read_wav(path)

    def test_compressed_and_truncated_errors_name_the_file(self, tmp_path):
        # IEEE-float (format 3) header: not PCM, which the stdlib reader refuses
        header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 44, b"WAVE", b"fmt ",
                             16, 3, 1, 16000, 64000, 4, 32, b"data", 8)
        path = tmp_path / "f.wav"
        path.write_bytes(header + b"\0" * 8)
        with pytest.raises(ValueError, match=re.escape(f"{path}: unknown format")):
            read_wav(path)
        path.write_bytes(header[:20])
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated WAV header")):
            read_wav(path)
        # a well-formed WAV at another rate: the front end runs at 16 kHz only
        with wave.open(str(path), "wb") as fp:
            fp.setnchannels(1)
            fp.setsampwidth(2)
            fp.setframerate(8000)
            fp.writeframes(b"\0\0" * 10)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: sample rate 8000 Hz, the spectrogram front end needs 16000 Hz")):
            read_wav(path)


class TestStft:
    def test_frame_count_arithmetic(self):
        w = np.zeros(1200)
        assert stft(w).shape[0] == 51

    def test_frame_count_formula_random_lengths(self):
        rng = Rng(2)
        for _ in range(200):
            n = rng.integers(400, 20_000)
            win = 400
            hop = rng.integers(1, 64)
            assert frame_count(n, win, hop) == math.floor((n - win) / hop) + 1

    def test_zero_waveform(self):
        s = stft(np.zeros(1000))
        assert not np.abs(s).any()
        assert s.shape == (38, 257)

    def test_sine_peaks_at_its_bin(self):
        fs = 16000
        fft_size = 512
        k = 32  # 1000 Hz sits exactly on bin 32
        t = np.arange(4000) / fs
        w = 0.5 * np.sin(2 * np.pi * (k * fs / fft_size) * t)
        mags = np.abs(stft(w))
        assert np.all(np.argmax(mags, axis=1) == k)

    def test_matches_single_bin_dft_oracle(self):
        rng = Rng(3)
        samples = rng.standard_normal(600)
        s = stft(samples)
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(400) / 400)
        frame0 = samples[:400]
        for k in (0, 5, 100, 256):
            expected = dft_of_windowed_frame(frame0, window, 512, k)
            assert s[0, k] == pytest.approx(expected, abs=1e-9)

    def test_too_short_input(self):
        with pytest.raises(ValueError):
            stft(np.zeros(399))


class TestIstftPhaseBorrow:
    def test_round_trip_snr(self):
        rng = Rng(4)
        # speech-like: filtered noise
        x = np.convolve(rng.standard_normal(6000), np.ones(8) / 8, mode="same")
        s = stft(x)
        rec = istft_phase_borrow(np.abs(s), s)
        n = min(len(rec), len(x))
        orig, back = x[:n], rec[:n]
        interior = slice(400, n - 400)
        err = orig[interior] - back[interior]
        snr = 10 * np.log10(np.sum(orig[interior] ** 2) / np.sum(err**2))
        assert snr >= 30.0

    def test_zero_magnitude(self):
        s = stft(np.ones(800))
        rec = istft_phase_borrow(np.zeros_like(s, dtype=float), s)
        np.testing.assert_array_equal(rec, 0.0)

    def test_linear_in_magnitude(self):
        rng = Rng(5)
        w = rng.standard_normal(2000) * 0.1
        s = stft(w)
        mag = np.abs(s)
        one = istft_phase_borrow(mag, s)
        two = istft_phase_borrow(2 * mag, s)
        np.testing.assert_allclose(two, 2 * one, atol=1e-10)

    def test_shape_mismatch(self):
        s = stft(np.ones(800))
        with pytest.raises(ShapeError):
            istft_phase_borrow(np.zeros((3, 3)), s)


def band_energy_centroid(w: np.ndarray, lo_hz: float, hi_hz: float) -> float:
    """Energy-weighted mean frequency of the plain rFFT magnitude in a band."""
    spec = np.abs(np.fft.rfft(w)) ** 2
    freqs = np.fft.rfftfreq(len(w), d=1.0 / SAMPLE_RATE)
    mask = (freqs >= lo_hz) & (freqs <= hi_hz)
    return float(np.sum(freqs[mask] * spec[mask]) / np.sum(spec[mask]))


class TestSynthVowel:
    def test_sample_count(self):
        w = synth_vowel(Rng(7), "aa", 120.0, 0.2)
        assert len(w) == 3200

    def test_determinism(self):
        a = synth_vowel(Rng(8), "iy", 140.0, 0.2, 0.1)
        b = synth_vowel(Rng(8), "iy", 140.0, 0.2, 0.1)
        np.testing.assert_array_equal(a, b)

    def test_iy_has_higher_f2_centroid_than_aa(self):
        # high-F2 vowel vs low-F2 vowel, per the generator's own table
        iy = synth_vowel(Rng(9), "iy", 120.0, 0.25)
        aa = synth_vowel(Rng(9), "aa", 120.0, 0.25)
        band = (800.0, 3000.0)
        assert band_energy_centroid(iy, *band) > band_energy_centroid(aa, *band)

    def test_peak_normalized(self):
        w = synth_vowel(Rng(10), "ow", 100.0, 0.2)
        assert np.max(np.abs(w)) == pytest.approx(0.9, abs=1e-12)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            synth_vowel(Rng(11), "eh", 120.0, 0.2)

    def test_f0_out_of_range(self):
        with pytest.raises(ValueError):
            synth_vowel(Rng(11), "aa", 60.0, 0.2)

    @pytest.mark.parametrize("shift", [-0.08, 0.22])
    @pytest.mark.parametrize("vowel", VOWELS)
    def test_equals_lfilter_formula_bit_for_bit(self, vowel, shift):
        got = synth_vowel(Rng(12), vowel, 150.0, 0.25, shift)
        np.testing.assert_array_equal(got, lfilter_synth_vowel(Rng(12), vowel, 150.0, 0.25, shift))


class TestFormantFilter:
    @pytest.mark.parametrize("columns", [1, 3, 300])
    def test_equals_lfilter_twice_bit_for_bit(self, columns):
        rng = Rng(60)
        lengths = rng.integers(1, 400, columns)
        lengths[: min(columns, 3)] = (1, 2, 400)[: min(columns, 3)]
        block = np.zeros((lengths.max(), columns))
        resonators = np.empty((columns, 2, 2))
        for k, n in enumerate(lengths):
            block[:n, k] = rng.standard_normal(n)
            resonators[k] = formant_resonators(VOWELS[k % len(VOWELS)], rng.uniform(-0.08, 0.22))
        inputs = block.copy()
        formant_filter(block, resonators)
        for k, n in enumerate(lengths):
            want = lfilter_twice(inputs[:n, k], resonators[k])
            np.testing.assert_array_equal(block[:n, k], want)

    def test_resonator_count_checked(self):
        with pytest.raises(ShapeError):
            formant_filter(np.zeros((10, 3)), np.zeros((2, 2, 2)))


class TestAddWhiteNoise:
    def test_zero_db_power_match(self):
        w = synth_vowel(Rng(14), "ae", 150.0, 0.5)
        noisy = add_white_noise(w, Rng(15), 0.0)
        p_signal = np.mean(w**2)
        p_noise = np.mean((noisy - w) ** 2)  # measured directly
        assert abs(p_noise / p_signal - 1.0) < 0.02

    def test_snr_within_tenth_db(self):
        w = synth_vowel(Rng(16), "uh", 90.0, 0.3)
        for snr in (0.0, 10.0, 20.0):
            noisy = add_white_noise(w, Rng(17), snr)
            p_signal = np.mean(w**2)
            p_noise = np.mean((noisy - w) ** 2)
            measured = 10 * np.log10(p_signal / p_noise)
            assert abs(measured - snr) < 0.1

    def test_determinism(self):
        w = synth_vowel(Rng(18), "aa", 100.0, 0.2)
        a = add_white_noise(w, Rng(19), 10.0)
        b = add_white_noise(w, Rng(19), 10.0)
        np.testing.assert_array_equal(a, b)

    def test_silent_input_rejected(self):
        with pytest.raises(ValueError):
            add_white_noise(np.zeros(100), Rng(20), 10.0)

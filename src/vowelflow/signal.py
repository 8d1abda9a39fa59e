"""WAV I/O, STFT analysis/resynthesis, and a synthetic vowel generator.

Audio is a 1-D float64 array of samples in [-1, 1] at SAMPLE_RATE (16 kHz),
the package's one rate: `read_wav` rejects any other, and `write_wav` and
`synth_vowel` produce only it.  The front end is fixed (`STFT`):
Hann-analysis frames of 400 samples (25 ms) taken every 16 samples (1 ms),
zero-padded to 512 and transformed one-sided, so a frame has 257 bins.
Resynthesis is overlap-add with a Hann synthesis window and squared-window
normalization.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass

import numpy as np

from .numerics import Rng, ShapeError

SAMPLE_RATE = 16000

# log-magnitude floor; zero-padded regions map to ln(MAG_FLOOR)
MAG_FLOOR = 1e-5

# squared-window normalization floor for overlap-add
_OLA_FLOOR = 1e-8

# average adult-male (F1, F2) in Hz; ordinal relations matter, exact values do not
FORMANTS = {
    "aa": (730.0, 1090.0),
    "ae": (660.0, 1720.0),
    "iy": (270.0, 2290.0),
    "ow": (570.0, 840.0),
    "uh": (440.0, 1020.0),
}

VOWELS = tuple(sorted(FORMANTS))


@dataclass
class StftConfig:
    """STFT settings in samples; `STFT` is the pipeline's one instance."""

    window_len: int = 400  # 25 ms at 16 kHz
    hop: int = 16  # 1 ms
    fft_size: int = 512  # 257 one-sided bins


STFT = StftConfig()


def frame_count(n_samples: int, window_len: int, hop: int) -> int:
    """Number of full analysis frames: floor((n - window_len)/hop) + 1."""
    if n_samples < window_len:
        raise ValueError(f"input of {n_samples} samples is shorter than one window ({window_len})")
    return (n_samples - window_len) // hop + 1


# periodic Hann, the standard analysis window for hopped STFTs
_HANN = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(STFT.window_len) / STFT.window_len)


# ---------------------------------------------------------------------------
# WAV I/O (RIFF PCM, 16-bit mono)


def read_wav(path) -> np.ndarray:
    """Read a 16 kHz 16-bit mono PCM WAV; samples are scaled by 1/32768.

    Every format error is a ValueError that names the file."""
    try:
        fp = wave.open(str(path), "rb")
    except wave.Error as exc:
        # the stdlib reader rejects compressed (non-PCM) formats itself
        raise ValueError(f"{path}: {exc}") from None
    except EOFError:
        raise ValueError(f"{path}: truncated WAV header") from None
    with fp:
        if fp.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono WAV, got {fp.getnchannels()} channels")
        if fp.getsampwidth() != 2:
            raise ValueError(f"{path}: expected 16-bit PCM, got {8 * fp.getsampwidth()}-bit")
        if fp.getcomptype() != "NONE":
            raise ValueError(f"{path}: unsupported WAV encoding {fp.getcomptype()!r}")
        if fp.getframerate() != SAMPLE_RATE:
            raise ValueError(
                f"{path}: sample rate {fp.getframerate()} Hz, "
                f"the spectrogram front end needs {SAMPLE_RATE} Hz"
            )
        raw = fp.readframes(fp.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def write_wav(path, samples: np.ndarray) -> None:
    """Write a 16 kHz 16-bit mono PCM WAV (values clipped to the int16 range)."""
    ints = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fp:
        fp.setnchannels(1)
        fp.setsampwidth(2)
        fp.setframerate(SAMPLE_RATE)
        fp.writeframes(ints.tobytes())


# ---------------------------------------------------------------------------
# STFT / inverse


def stft(samples: np.ndarray) -> np.ndarray:
    """Hann-windowed one-sided STFT of audio: (T, 257) complex frames."""
    t = frame_count(len(samples), STFT.window_len, STFT.hop)  # rejects input shorter than a window
    # a strided view of the frames, windowed straight into the zero-padded
    # block the FFT reads: no gathered frames, no padded copy inside rfft
    windows = np.lib.stride_tricks.sliding_window_view(samples, STFT.window_len)[::STFT.hop]
    block = np.zeros((t, STFT.fft_size))
    np.multiply(windows, _HANN, out=block[:, : STFT.window_len])
    return np.fft.rfft(block, axis=1)


def istft_phase_borrow(mag: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Overlap-add resynthesis (audio) of `mag` carried on the phase of `phase`.

    `phase` is a (T, 257) complex `stft` result; each frame is
    mag[t] * exp(i * arg(phase[t])).  The synthesis window is Hann, and
    the output is normalized by the sum of squared windows (floored at
    1e-8 where coverage is thin).
    """
    mag = np.asarray(mag, dtype=np.float64)
    if mag.shape != phase.shape:
        raise ShapeError(f"magnitude {mag.shape} does not match phase frames {phase.shape}")
    spec = mag * np.exp(1j * np.angle(phase))
    frames = np.fft.irfft(spec, n=STFT.fft_size, axis=1)[:, :STFT.window_len]
    out_len = (frames.shape[0] - 1) * STFT.hop + STFT.window_len
    acc = np.zeros(out_len)
    wsum = np.zeros(out_len)
    for i, frame in enumerate(frames):
        lo = i * STFT.hop
        acc[lo:lo + STFT.window_len] += frame * _HANN
        wsum[lo:lo + STFT.window_len] += _HANN * _HANN
    return acc / np.maximum(wsum, _OLA_FLOOR)


# ---------------------------------------------------------------------------
# magnitude normalization


def denormalize(y: np.ndarray, stats: tuple[float, float]) -> np.ndarray:
    """Image units -> magnitude: exp(y * std + mean) - MAG_FLOOR, the inverse
    of ln(mag + MAG_FLOOR) normalized by `stats`; clips tiny negative
    magnitudes to zero."""
    mean, std = stats
    mag = np.exp(np.asarray(y, dtype=np.float64) * std + mean) - MAG_FLOOR
    return np.maximum(mag, 0.0)


# ---------------------------------------------------------------------------
# synthetic vowels


def excitation(rng: Rng, f0: float, duration: float) -> np.ndarray:
    """`duration` seconds of impulse train at `f0` Hz plus a touch of
    aspiration noise (drawn from `rng`), the source of a synthetic vowel."""
    if not 70.0 <= f0 <= 350.0:
        raise ValueError(f"f0 {f0} Hz outside [70, 350]")
    n = int(round(duration * SAMPLE_RATE))
    out = np.zeros(n)
    out[np.arange(0, n, SAMPLE_RATE / f0).astype(int)] = 1.0
    out += 0.001 * rng.standard_normal((n,))
    return out


def formant_resonators(vowel_label: str, speaker_shift: float = 0.0) -> np.ndarray:
    """(2, 2) denominators (a1, a2) of the vowel's two formant resonators.

    Resonator i filters by 1 / (1 + a1 z^-1 + a2 z^-2), a two-pole peak at
    formant i of the built-in table times (1 + speaker_shift).
    """
    if vowel_label not in FORMANTS:
        raise ValueError(f"unknown vowel {vowel_label!r}, expected one of {VOWELS}")
    out = np.empty((2, 2))
    for i, (freq, bandwidth) in enumerate(zip(FORMANTS[vowel_label], (80.0, 120.0))):
        freq = freq * (1.0 + speaker_shift)
        r = math.exp(-math.pi * bandwidth / SAMPLE_RATE)
        theta = 2.0 * math.pi * freq / SAMPLE_RATE
        out[i] = (-2.0 * r * math.cos(theta), r * r)
    return out


def _resonate(y, z0, z1, a1, neg_a2, scratch) -> None:
    # one direct-form-II-transposed step, in place: y = z0 + x,
    # z0 = z1 - a1*y, z1 = y*(-a2)
    y += z0
    np.multiply(a1, y, out=scratch)
    np.subtract(z1, scratch, out=z0)
    np.multiply(y, neg_a2, out=z1)


def formant_filter(block: np.ndarray, resonators: np.ndarray) -> None:
    """Run each column of the time-major `block` (T, K) through its two
    cascaded resonators, in place; `resonators` is (K, 2, 2), one
    `formant_resonators` result per column.

    Step t advances the first resonator on row t and the second on row
    t - 1 (the first's output one step earlier), so a single (2, K) view
    moves both down every column at once.  The arithmetic is that of a
    direct-form-II-transposed filter, sample by sample.
    """
    rows, k = block.shape
    if resonators.shape != (k, 2, 2):
        raise ShapeError(f"resonators {resonators.shape} do not match {k} columns")
    # row 0 of the state belongs to the second resonator, row 1 to the first;
    # C order throughout, as a strided operand takes numpy's slow path
    a1, a2 = np.ascontiguousarray(resonators[:, ::-1].transpose(2, 1, 0))
    state = (np.zeros((2, k)), np.zeros((2, k)), a1, -a2, np.empty((2, k)))
    _resonate(block[:1], *(v[1:] for v in state))  # the first row: the first resonator alone
    for t in range(1, rows):
        _resonate(block[t - 1:t + 1], *state)
    _resonate(block[-1:], *(v[:1] for v in state))  # the last row: the second alone


def peak_normalize(samples: np.ndarray) -> np.ndarray:
    """`samples` scaled to a peak magnitude of 0.9."""
    return 0.9 * samples / np.max(np.abs(samples))


def synth_vowel(
    rng: Rng,
    vowel_label: str,
    f0: float,
    duration: float,
    speaker_shift: float = 0.0,
) -> np.ndarray:
    """Source-filter vowel: `excitation` through the vowel's two formant
    resonators (`formant_resonators`), peak-normalized to 0.9.

    The synthetic corpus build runs the same filter on blocks of segments.
    """
    resonators = formant_resonators(vowel_label, speaker_shift)
    block = excitation(rng, f0, duration)[:, None]
    formant_filter(block, resonators[None])
    return peak_normalize(block[:, 0])


def add_white_noise(samples: np.ndarray, rng: Rng, snr_db: float) -> np.ndarray:
    """Add Gaussian noise scaled to the exact requested signal-to-noise ratio."""
    p_signal = float(np.mean(samples**2))
    if p_signal == 0.0:
        raise ValueError("cannot scale noise against a silent signal")
    noise = rng.standard_normal((len(samples),))
    p_target = p_signal / (10.0 ** (snr_db / 10.0))
    noise *= math.sqrt(p_target / float(np.mean(noise**2)))
    return samples + noise

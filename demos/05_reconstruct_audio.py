"""
From spectrogram image back to audio
====================================

A 32x32 model image is a pooled, normalized log-magnitude spectrogram;
turning one back into sound needs the inverse of each step plus a phase.
The phase is borrowed from a real recording (magnitude-only inversion).
Run 01_train_flow.py first.
"""

import sys
from pathlib import Path

from vowelflow import (
    CorpusReader,
    encode_batch,
    interpolate,
    load_checkpoint,
    load_manifest,
    read_wav,
    stft,
    istft_phase_borrow,
    write_wav,
)
from vowelflow.dataset import STFT, image_to_magnitude

out = Path(__file__).parent / "out"
if not (out / "checkpoint.fsck").exists():
    sys.exit("run 01_train_flow.py first")

manifest = load_manifest(out)
utts = {e.record.utterance_id: i for i, e in enumerate(manifest.entries)}


def to_waveform(image, phase_utt, name):
    """Upsample a pooled image, undo normalization, and overlap-add."""
    mag = image_to_magnitude(image, manifest.stats)
    with CorpusReader(out) as reader:
        wave = read_wav(reader.wav_path(utts[phase_utt]))
    phase = stft(wave, STFT.window_len, STFT.hop, STFT.fft_size)
    frames = phase.frames.shape[0]
    audio = istft_phase_borrow(mag[:frames], phase, STFT.window_len, STFT.hop,
                               sample_rate=wave.sample_rate)
    write_wav(out / name, audio)
    print(f"wrote {name}: {len(audio.samples)} samples "
          f"at {audio.sample_rate} Hz from {frames} frames")


# First the identity check: a segment's own image carried on its own
# phase should sound like the original (minus pooling loss).
with CorpusReader(out) as reader:
    aa = reader.pixels(utts["spk00_aa_000"])
to_waveform(aa[0], "spk00_aa_000", "recon_aa.wav")

# Then a model output: the halfway point between /aa/ and /ae/ decoded
# by the flow (a one-point interpolation Sweep), rendered with the /aa/
# segment's phase.
model = load_checkpoint(out / "checkpoint.fsck").model
with CorpusReader(out) as reader:
    pair = reader.load([utts["spk00_aa_000"], utts["spk00_ae_000"]])
z, _ = encode_batch(model, pair)
midpoint = interpolate(model, z[0], z[1], alphas=[0.5]).images[0, 0]
to_waveform(midpoint, "spk00_aa_000", "recon_aa_ae_midpoint.wav")

"""
From spectrogram image back to audio
====================================

A 32x32 model image is a pooled, normalized log-magnitude spectrogram;
turning one back into sound needs the inverse of each step plus a phase.
The phase is borrowed from a real recording (magnitude-only inversion):
`image_to_waveform` upsamples the image, undoes the normalization and
overlap-adds it on the STFT frames of that recording, exactly as
`vowelflow reconstruct` does.  Run 01_train_flow.py first.
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
    write_wav,
)
from vowelflow.dataset import image_to_waveform, wav_path
from vowelflow.signal import SAMPLE_RATE

out = Path(__file__).parent / "out"
if not (out / "checkpoint.fsck").exists():
    sys.exit("run 01_train_flow.py first")

manifest = load_manifest(out)
utts = {e.record.utterance_id: i for i, e in enumerate(manifest.entries)}


def to_waveform(image, phase_utt, name):
    """Render `image` on the phase of segment `phase_utt`'s stored audio."""
    phase = stft(read_wav(wav_path(out, utts[phase_utt])))
    audio = image_to_waveform(image, manifest.stats, phase)
    write_wav(out / name, audio)
    print(f"wrote {name}: {len(audio)} samples "
          f"at {SAMPLE_RATE} Hz from {phase.shape[0]} frames")


# First the identity check: a segment's own image carried on its own
# phase should sound like the original (minus pooling loss).
with CorpusReader(out, manifest) as reader:
    aa = reader.pixels(utts["spk00_aa_000"])
to_waveform(aa[0], "spk00_aa_000", "recon_aa.wav")

# Then a model output: the halfway point between /aa/ and /ae/ decoded
# by the flow (a one-point interpolation Sweep), rendered with the /aa/
# segment's phase.
model = load_checkpoint(out / "checkpoint.fsck").model
with CorpusReader(out, manifest) as reader:
    pair = reader.load([utts["spk00_aa_000"], utts["spk00_ae_000"]])
z, _ = encode_batch(model, pair)
midpoint = interpolate(model, z[0], z[1], alphas=[0.5]).images[0, 0]
to_waveform(midpoint, "spk00_aa_000", "recon_aa_ae_midpoint.wav")

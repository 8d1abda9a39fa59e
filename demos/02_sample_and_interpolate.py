"""
Sample from the prior and walk between vowels
=============================================

Draws spectrograms from the trained flow by decoding Gaussian codes, then
interpolates between an /aa/ and an /ae/ segment in code space.  Run
01_train_flow.py first.
"""

import sys
from pathlib import Path

import numpy as np

from vowelflow import CorpusReader, Rng, encode_batch, interpolate, load_checkpoint, load_manifest, sample
from vowelflow.latent import write_image_strip

out = Path(__file__).parent / "out"
if not (out / "checkpoint.fsck").exists():
    sys.exit("run 01_train_flow.py first")

model = load_checkpoint(out / "checkpoint.fsck").model
manifest = load_manifest(out)

# Sampling is decode(T * eps): temperature scales the prior draw.  At
# T = 1 the samples match the model density; lower T stays nearer the
# mode and looks smoother.
for temperature in (1.0, 0.7):
    z, images = sample(model, Rng(42), 8, temperature=temperature)
    name = f"samples_t{temperature:.1f}.pgm".replace(".0", "")
    write_image_strip(out / name, images[:, 0])
    print(f"T={temperature}: wrote {name}, pixel range "
          f"[{images.min():.2f}, {images.max():.2f}]")

# Interpolation happens in code space: z(alpha) = (1-alpha) z_a + alpha z_b,
# decoded back to pixels.  The Sweep runs alpha = 0.1 ... 0.9 (its ts).
utts = {e.record.utterance_id: i for i, e in enumerate(manifest.entries)}
with CorpusReader(out) as reader:
    pair = reader.load([utts["spk00_aa_000"], utts["spk00_ae_000"]])
z, _ = encode_batch(model, pair)
sweep = interpolate(model, z[0], z[1])

# Bookend the strip with the real endpoints for comparison.
strip = np.concatenate([pair[:1, 0], sweep.images[:, 0], pair[1:, 0]])
write_image_strip(out / "interpolation.pgm", strip)
print(f"interpolation: {len(sweep.ts)} steps between spk00_aa_000 "
      f"and spk00_ae_000 -> interpolation.pgm")

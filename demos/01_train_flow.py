"""
Train the flow on a synthetic vowel corpus
==========================================

Builds a 200-segment corpus of synthetic vowel spectrograms (4 speakers,
5 vowels, 10 draws each, 32x32 images), then fits the multi-scale flow
by exact maximum likelihood for 300 steps.  Later demos reuse the corpus
and checkpoint written to demos/out.
"""

from pathlib import Path

import numpy as np

from vowelflow import (
    CorpusReader,
    DatasetConfig,
    FlowConfig,
    Rng,
    SyntheticSpec,
    TrainConfig,
    build_corpus,
    build_model,
    train_loop,
)

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)
seed = 0

# Build the corpus.  Segment audio is kept so the audio demo can borrow
# phase from them later.
spec = SyntheticSpec(n_speakers=4, draws_per_vowel=10)
config = DatasetConfig(image_size=32, write_wavs=True)
manifest = build_corpus(spec, config, Rng(seed), out)
print(f"corpus: {len(manifest.entries)} segments, "
      f"{len(manifest.train_indices())} in the training split")

# Load the training pixels: a (N, 1, 32, 32) stack of normalized
# log-magnitude images.
with CorpusReader(out) as reader:
    pixels = reader.load(manifest.train_indices())
print(f"pixels: {pixels.shape}, mean {pixels.mean():.3f}, std {pixels.std():.3f}")

# A 3-level flow with 2 steps per level and width-32 couplings; the
# loop sets every actnorm from the first batch.
model = build_model(FlowConfig(levels=3, depth=2, coupling_width=32), seed)
train_config = TrainConfig(steps=300, lr=1e-3, seed=seed)
result = train_loop(model, pixels, train_config, out, log=print)

# The metrics file has one row per step: nats/dim, bits/dim, gradient
# norm, and wall time.
rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()
        if not line.startswith(("#", "step"))]
nats = np.array([float(r[1]) for r in rows])
window = 25
smooth = np.convolve(nats, np.ones(window) / window, "valid")
print(f"nats/dim: start {smooth[0]:.3f} -> end {smooth[-1]:.3f} "
      f"(smoothed over {window} steps)")
print(f"bits/dim at the end: {smooth[-1] / np.log(2):.3f}")
print(f"checkpoint: {result.checkpoint_path}")

"""
Denoising as code-space arithmetic
==================================

Builds a corpus where every segment has a 10 dB white-noise twin, trains
the flow on both populations, and removes noise from a held-out segment
by subtracting the mean displacement between noisy and clean codes.
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
    denoise,
    displacement,
    encode_batch,
    load_manifest,
    train_loop,
)
from vowelflow.latent import write_image_strip

out = Path(__file__).parent / "out_noisy"
out.mkdir(exist_ok=True)
seed = 0

config = DatasetConfig(image_size=32, noise_snr_db=10.0)
manifest = build_corpus(SyntheticSpec(), config, Rng(seed), out)
pairs = manifest.clean_noisy_pairs()
print(f"corpus: {len(manifest.entries)} segments, {len(pairs)} clean/noisy pairs")

with CorpusReader(out) as reader:
    pixels = reader.load(manifest.train_indices())
model = build_model(FlowConfig(levels=3, depth=2, coupling_width=32), seed)
train_loop(model, pixels, TrainConfig(steps=300, lr=1e-3, seed=seed), out)

# The displacement is the difference of the two population means in code
# space, clean to noisy; scaling it by beta and subtracting moves a noisy
# code toward the clean region.
train_utts = set(manifest.train_utterances)
fit = [p for p in pairs if manifest.entries[p[0]].record.utterance_id in train_utts]
held = [p for p in pairs if manifest.entries[p[0]].record.utterance_id not in train_utts]
with CorpusReader(out) as reader:
    z_clean, _ = encode_batch(model, reader.load([p[0] for p in fit]))
    z_noisy, _ = encode_batch(model, reader.load([p[1] for p in fit]))
    xi = displacement(z_clean, z_noisy)
    print(f"displacement over {len(fit)} training pairs, "
          f"norm {np.linalg.norm(xi):.3f}")

    clean_i, noisy_i = held[0]
    target = manifest.entries[noisy_i].record.utterance_id
    clean_px = reader.pixels(clean_i)
    z, _ = encode_batch(model, reader.pixels(noisy_i)[None])

# Sweep beta from 0 (untouched) to 0.8 and track the distance to the
# clean reference.  The Sweep holds each beta (ts), code and image.
sweep = denoise(model, z[0], xi)
mse = np.mean((sweep.images - clean_px[None]) ** 2, axis=(1, 2, 3))
print(f"held-out target: {target}")
for beta, err in zip(sweep.ts, mse):
    marker = "  <- best" if err == mse.min() else ""
    print(f"  beta {beta:.1f}  mse to clean {err:.4f}{marker}")

strip = np.concatenate([sweep.images[:, 0], clean_px[None, 0]])
write_image_strip(out / "denoise_sweep.pgm", strip)
print("wrote denoise_sweep.pgm (sweep plus clean reference)")

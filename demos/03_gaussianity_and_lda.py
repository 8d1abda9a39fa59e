"""
How Gaussian are the codes, and what do they still know?
========================================================

Compares per-dimension shape statistics of the latent codes against the
raw spectrogram pixels, then probes both spaces with a two-class linear
discriminant.  Run 01_train_flow.py first.
"""

import sys
from pathlib import Path

import numpy as np

from vowelflow import (
    CorpusReader,
    Rng,
    encode_batch,
    gaussianity_report,
    lda_fit,
    load_checkpoint,
    load_manifest,
)

out = Path(__file__).parent / "out"
if not (out / "checkpoint.fsck").exists():
    sys.exit("run 01_train_flow.py first")

model = load_checkpoint(out / "checkpoint.fsck").model
manifest = load_manifest(out)
with CorpusReader(out) as reader:
    pixels = reader.load()
codes, _ = encode_batch(model, pixels)
flat = pixels.reshape(pixels.shape[0], -1)

# Training pushes the codes toward a standard normal, so their skewness
# and excess kurtosis should sit nearer zero than the pixels'.
rng = Rng(0)
dims_code = np.sort(rng.spawn(0).permutation(codes.shape[1])[:64])
dims_pixel = np.sort(rng.spawn(1).permutation(flat.shape[1])[:64])
for name, vectors, dims in (("codes", codes, dims_code),
                            ("pixels", flat, dims_pixel)):
    report = gaussianity_report(vectors[:, dims])
    print(f"{name:7s} mean |skewness| {report.mean_abs_skewness:6.3f}   "
          f"mean |excess kurtosis| {report.mean_abs_excess_kurtosis:6.3f}")

# The discriminant probe asks how separable two classes remain in each
# space.  With far more dimensions than segments both ratios come out
# optimistic; the interesting part is how they compare across spaces,
# and that depends on the training outcome.
print()
print(f"{'task':16s} {'pixel space':>12s} {'code space':>12s}")
for ask, a, b in (("vowel", "aa", "iy"), ("gender", "M", "F"),
                  ("speaker", "spk00", "spk01")):
    row = [f"{ask} {a}/{b}"]
    for vectors in (flat, codes):
        idx_a = manifest.select(**{ask: a})
        idx_b = manifest.select(**{ask: b})
        probe = lda_fit(vectors[idx_a], vectors[idx_b])
        row.append(f"{probe.fisher_ratio:12.4g}")
    print(f"{row[0]:16s} {row[1]} {row[2]}")

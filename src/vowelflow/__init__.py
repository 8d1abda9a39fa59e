"""Exact-likelihood normalizing flow on vowel spectrograms, with latent-space analysis tools.

The package splits into infrastructure and model code:

- `numerics`: seeded RNG streams, LAPACK-backed LU, tensor serialization
- `signal`: 16 kHz WAV I/O, STFT front end, phase-borrow resynthesis, vowel synthesizer
- `dataset`: corpus construction, manifests, fixed-size spectrogram images
- `flow`: invertible layers (actnorm, QR-initialized 1x1 conv, affine coupling)
  and the multi-scale flow with exact log-determinants and hand-derived gradients
- `train`: maximum-likelihood loop, Adam, checkpoints, gradient audit
- `latent`: sampling, interpolation and displacement sweeps, Gaussianity
  statistics, and the two-class discriminant probe
- `cli`: `vowelflow` command wiring the full pipeline
"""

from .flow import FlowConfig, FlowModel
from .dataset import (
    CorpusReader,
    DatasetConfig,
    Manifest,
    SyntheticSpec,
    build_corpus,
    load_manifest,
)
from .train import (
    TrainConfig,
    TrainResult,
    build_model,
    grad_audit,
    load_checkpoint,
    save_checkpoint,
    train_loop,
)
from .latent import (
    GaussianityReport,
    LdaProbe,
    Sweep,
    decode_batch,
    denoise,
    displacement,
    encode_batch,
    gaussianity_report,
    interpolate,
    lda_fit,
    project_scatter,
    sample,
)
from .numerics import Rng, read_tensor, write_tensor
from .signal import StftConfig, read_wav, stft, istft_phase_borrow, write_wav

__version__ = "0.1.0"

__all__ = [
    "FlowConfig",
    "FlowModel",
    "CorpusReader",
    "DatasetConfig",
    "Manifest",
    "SyntheticSpec",
    "build_corpus",
    "load_manifest",
    "TrainConfig",
    "TrainResult",
    "build_model",
    "grad_audit",
    "load_checkpoint",
    "save_checkpoint",
    "train_loop",
    "GaussianityReport",
    "LdaProbe",
    "Sweep",
    "decode_batch",
    "denoise",
    "displacement",
    "encode_batch",
    "gaussianity_report",
    "interpolate",
    "lda_fit",
    "project_scatter",
    "sample",
    "Rng",
    "read_tensor",
    "write_tensor",
    "StftConfig",
    "read_wav",
    "stft",
    "istft_phase_borrow",
    "write_wav",
    "__version__",
]

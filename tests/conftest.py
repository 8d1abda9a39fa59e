"""Shared builders for flow models, and the synthetic-vowel oracle, used
across test modules."""

import math

import numpy as np
import pytest

from vowelflow.flow import FlowConfig, FlowModel
from vowelflow.numerics import Rng
from vowelflow.signal import FORMANTS, SAMPLE_RATE


# A coupling net wider than its 4 channels makes its last conv O < C, the
# conv that gathers its output side; width 4 keeps every forward conv O >= C.
WIDE_COUPLING = 8


def tiny_config(coupling_width=4):
    """Smallest usable flow: 1x4x4 input, one level, one step."""
    return FlowConfig(
        levels=1, depth=1, coupling_width=coupling_width, input_shape=(1, 4, 4)
    )


def make_identity_model(config=None):
    """All layers at their identity settings; the flow is a permutation."""
    return FlowModel(config or FlowConfig(), rng=None)


def make_random_model(config, seed=0, batch=None, perturb_coupling=0.0, **model_kw):
    """Randomly initialized model with actnorms set from a data batch;
    `model_kw` goes to `FlowModel` (e.g. `grad_dtype`)."""
    rng = Rng(seed)
    model = FlowModel(config, rng=rng, **model_kw)
    if perturb_coupling:
        for name, arr in model.params().items():
            if name.endswith("coupling.w3") or name.endswith("coupling.b3"):
                arr[...] = rng.standard_normal(arr.shape) * perturb_coupling
    if batch is None:
        batch = rng.standard_normal((2, *config.input_shape))
    model.forward(batch, init_actnorm=True)
    return model


def lfilter_twice(x, resonators):
    """`x` through scipy's `lfilter` once per (a1, a2) row of `resonators`:
    the oracle for `signal.formant_filter`.  scipy is not a dependency of
    the package, so a test that calls this skips without it."""
    lfilter = pytest.importorskip("scipy.signal").lfilter
    for a1, a2 in resonators:
        x = lfilter([1.0], [1.0, a1, a2], x)
    return x


def lfilter_synth_vowel(rng, vowel_label, f0, duration, speaker_shift=0.0):
    """A synthetic vowel computed sample by sample as `signal.synth_vowel`
    defines it, with scipy's `lfilter` as the resonators."""
    n = int(round(duration * SAMPLE_RATE))
    excitation = np.zeros(n)
    excitation[np.arange(0, n, SAMPLE_RATE / f0).astype(int)] = 1.0
    excitation += 0.001 * rng.standard_normal((n,))
    resonators = []
    for freq, bandwidth in zip(FORMANTS[vowel_label], (80.0, 120.0)):
        freq = freq * (1.0 + speaker_shift)
        r = math.exp(-math.pi * bandwidth / SAMPLE_RATE)
        theta = 2.0 * math.pi * freq / SAMPLE_RATE
        resonators.append((-2.0 * r * math.cos(theta), r * r))
    out = lfilter_twice(excitation, resonators)
    return 0.9 * out / np.max(np.abs(out))

"""Shared builders for flow models used across test modules."""

import numpy as np

from vowelflow.flow import FlowConfig, FlowModel
from vowelflow.numerics import Rng


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

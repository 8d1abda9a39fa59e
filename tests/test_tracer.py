"""The benchmark's span tracer (bench/spans.py) against the package.

`Tracer.install()` looks up every function and method it wraps by name, so
a rename or deletion in the package breaks `bench/run.py --trace 1`; these
tests fail first.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_random_model
from vowelflow.dataset import DatasetConfig, SyntheticSpec, build_corpus
from vowelflow.flow import FlowConfig
from vowelflow.numerics import Rng

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import spans  # noqa: E402


@pytest.fixture
def tracer():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in spans._layers()]
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_install_wraps_every_layer(tracer):
    for owner, attr, _, _ in spans._layers():
        assert hasattr(owner.__dict__[attr], "__wrapped__"), f"{owner.__name__}.{attr}"
    with pytest.raises(RuntimeError):
        tracer.install()


def test_model_spans_recorded(tracer):
    cfg = FlowConfig(levels=2, depth=1, coupling_width=4, input_shape=(1, 8, 8))
    model = make_random_model(cfg, seed=3, perturb_coupling=0.3)
    x = np.random.default_rng(4).standard_normal((2, 1, 8, 8))
    tracer.open_stage("step")
    z, _, cache = model.forward(x, want_cache=True)
    model.backward(cache, -z, np.ones(2))
    model.inverse(z)
    tracer.close_stage(wall=1.0)

    summary = tracer.summary()
    calls = summary["calls"]
    for layer in ("actnorm", "invconv", "coupling"):
        for kind in ("fwd", "inv", "bwd"):
            assert calls[f"flow.{layer}.{kind}"] == cfg.levels * cfg.depth
    assert calls["flow.model"] == 3
    # forward: two squeezes and one flatten; backward and inverse: one
    # unflatten and two unsqueezes each
    assert calls["flow.squeeze"] == 9
    assert summary["counts"]["flow.model.cache_bytes"] > 0
    assert summary["counts"]["numerics.conv2d.gflop"] > 0
    assert not summary["errors"]


def test_corpus_front_end_spans_recorded(tracer, tmp_path):
    # build_corpus takes each magnitude through segment_to_spectrogram, so
    # the traced benchmark attributes the STFT to the front end
    tracer.open_stage("synth-data")
    manifest = build_corpus(
        SyntheticSpec(n_speakers=1, draws_per_vowel=2),
        DatasetConfig(image_size=32, noise_snr_db=10.0),
        Rng(6),
        tmp_path,
    )
    tracer.close_stage(wall=1.0)

    calls = tracer.summary()["calls"]
    assert len(manifest.entries) == 20
    assert calls.get("dataset.segment_to_spectrogram", 0) == len(manifest.entries)
    assert calls["signal.stft"] == len(manifest.entries)

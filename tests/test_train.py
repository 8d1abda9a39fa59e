"""Tests for the likelihood objective, Adam, checkpoints and the loop.

The Adam oracle is an independent scalar implementation driven step by
step; checkpoint and resume behavior is validated byte for byte.
"""

import json
import math
import os
import re
import struct
import zlib

import numpy as np
import numpy.testing as npt
import pytest

from conftest import WIDE_COUPLING, make_identity_model, make_random_model, tiny_config
from vowelflow import train
from vowelflow.flow import LN_2PI, FlowConfig, FlowModel
from vowelflow.latent import encode_batch
from vowelflow.numerics import Rng, ShapeError, record_bytes
from vowelflow.train import (
    CHECKPOINT_MAGIC,
    DIVERGENCE_PATIENCE,
    METRICS_HEADER,
    AdamState,
    CheckpointError,
    DivergenceDetector,
    DivergenceError,
    GradAuditReport,
    TrainConfig,
    TrainResult,
    adam_step,
    build_model,
    global_norm,
    grad_audit,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
    train_loop,
)


def structured_data(n=64, seed=100):
    """Row-correlated 4x4 images, so a flow has something to learn."""
    base = Rng(seed).standard_normal((n, 1, 4, 4))
    return np.cumsum(base, axis=2)


def small_train_config(**kw):
    args = dict(steps=12, batch_size=8, lr=1e-3, seed=7, checkpoint_every=4)
    args.update(kw)
    return TrainConfig(**args)


def read_metrics(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    assert lines[0] == METRICS_HEADER
    return [line.split(",") for line in lines[1:]]


def strip_wall(path):
    return [row[:4] for row in read_metrics(path)]


def nll(model, x):
    """The loss by the inference path: -mean ln p(x) per dimension, and
    the per-example ln p(x)."""
    _, lnp = encode_batch(model, x)
    return -float(np.mean(lnp)) / model.code_size, lnp


# ---------------------------------------------------------------------------
# loss


class TestNll:
    def test_identity_model_closed_form(self):
        model = make_identity_model()
        x = Rng(0).standard_normal((8, 1, 32, 32))
        expected = 0.5 * LN_2PI + 0.5 * float(np.mean(x**2))
        npt.assert_allclose(nll(model, x)[0], expected, rtol=1e-12)

    def test_identity_model_on_standard_normal_data(self):
        model = make_identity_model()
        x = Rng(1).standard_normal((64, 1, 32, 32))
        assert abs(nll(model, x)[0] - (0.5 * LN_2PI + 0.5)) < 0.01

    def test_per_example_lnp_consistent_with_loss(self):
        model = make_random_model(tiny_config(), seed=30, perturb_coupling=0.3)
        x = Rng(31).standard_normal((5, 1, 4, 4))
        loss, lnp = nll(model, x)
        assert lnp.shape == (5,)
        npt.assert_allclose(loss, -np.mean(lnp) / model.code_size, rtol=1e-15)

    def test_duplicating_an_example_keeps_loss(self):
        model = make_random_model(tiny_config(), seed=32, perturb_coupling=0.3)
        x = Rng(33).standard_normal((3, 1, 4, 4))
        doubled = np.concatenate([x, x], axis=0)
        npt.assert_allclose(nll(model, doubled)[0], nll(model, x)[0], rtol=1e-14)

    def test_loss_and_grads_agrees_with_nll(self):
        model = make_random_model(tiny_config(), seed=2, perturb_coupling=0.3)
        x = Rng(3).standard_normal((4, 1, 4, 4))
        loss, grads = loss_and_grads(model, x)
        npt.assert_allclose(loss, nll(model, x)[0], rtol=1e-15)
        assert set(grads) == set(model.params())

    def test_duplicating_the_batch_keeps_gradients(self):
        for width in (4, WIDE_COUPLING):
            model = make_random_model(
                tiny_config(width), seed=34, perturb_coupling=0.3, grad_dtype=np.float64
            )
            x = Rng(35).standard_normal((2, 1, 4, 4))
            _, g1 = loss_and_grads(model, x)
            _, g2 = loss_and_grads(model, np.concatenate([x, x], axis=0))
            for k in g1:
                npt.assert_allclose(g2[k], g1[k], rtol=1e-12, atol=1e-16)

    def test_zero_output_layer_still_gets_gradient(self):
        # fresh init: hidden conv weights random, output layer zero
        model = make_random_model(tiny_config(), seed=36)
        x = Rng(36).standard_normal((4, 1, 4, 4))
        assert np.all(model.params()["level0.step0.coupling.w3"] == 0.0)
        _, grads = loss_and_grads(model, x)
        assert np.abs(grads["level0.step0.coupling.w3"]).max() > 0.0

    def test_density_integrates_to_one_on_1d_instance(self):
        # one-channel 1x1 actnorm is a scalar bijection y = e^s x + b,
        # so exp(prior(y) + logdet) must integrate to 1 over the line
        from vowelflow.flow import ActNorm, prior_logprob

        layer = ActNorm(1)
        layer.log_scale = np.array([0.4])
        layer.bias = np.array([-0.7])
        xs = np.linspace(-30.0, 30.0, 20001)
        batch = xs.reshape(-1, 1, 1, 1)
        y, logdet, _ = layer.forward(batch)
        lnp = prior_logprob(y.reshape(-1, 1)) + logdet
        total = np.trapezoid(np.exp(lnp), xs)
        npt.assert_allclose(total, 1.0, rtol=1e-6)


# ---------------------------------------------------------------------------
# optimizer


def adam_reference(theta0, grads, lr, b1, b2, eps):
    """Plain scalar Adam with bias correction, one value per step."""
    theta = float(theta0)
    m = v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        theta -= lr * mhat / (math.sqrt(vhat) + eps)
        out.append(theta)
    return out


class TestAdam:
    def test_matches_scalar_reference(self):
        cfg = TrainConfig(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8, clip_norm=1e9)
        params = {"w": np.array([0.5])}
        state = AdamState.zeros_like(params)
        gs = [float(g) for g in Rng(4).standard_normal(10)]
        expected = adam_reference(0.5, gs, 0.1, 0.9, 0.999, 1e-8)
        for g, want in zip(gs, expected):
            adam_step(params, {"w": np.array([g])}, state, cfg)
            npt.assert_allclose(params["w"][0], want, rtol=1e-12)

    def test_zero_betas_single_step(self):
        cfg = TrainConfig(lr=0.1, beta1=0.0, beta2=0.0, eps=1e-8, clip_norm=1e9)
        params = {"w": np.array([2.0])}
        state = AdamState.zeros_like(params)
        g = -0.7
        adam_step(params, {"w": np.array([g])}, state, cfg)
        npt.assert_allclose(params["w"][0], 2.0 - 0.1 * g / (abs(g) + 1e-8), rtol=1e-15)

    def test_global_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([[4.0]])}
        npt.assert_allclose(global_norm(grads), 5.0, rtol=1e-15)

    def test_clip_rescales_before_update(self):
        cfg_clip = TrainConfig(lr=0.1, clip_norm=1.0)
        cfg_free = TrainConfig(lr=0.1, clip_norm=1e9)
        p1 = {"a": np.array([1.0]), "b": np.array([1.0])}
        p2 = {"a": np.array([1.0]), "b": np.array([1.0])}
        s1 = AdamState.zeros_like(p1)
        s2 = AdamState.zeros_like(p2)
        norm = adam_step(p1, {"a": np.array([3.0]), "b": np.array([4.0])}, s1, cfg_clip)
        adam_step(p2, {"a": np.array([0.6]), "b": np.array([0.8])}, s2, cfg_free)
        assert norm == 5.0
        npt.assert_allclose(p1["a"], p2["a"], rtol=1e-15)
        npt.assert_allclose(p1["b"], p2["b"], rtol=1e-15)

    def test_reported_norm_is_preclip(self):
        cfg = TrainConfig(clip_norm=0.5)
        params = {"a": np.array([0.0])}
        state = AdamState.zeros_like(params)
        assert adam_step(params, {"a": np.array([12.0])}, state, cfg) == 12.0


class TestFloat32Gradients:
    """A default model computes its coupling-net conv gradients in float32;
    the gradients, parameters and Adam state they feed stay float64."""

    # Worst per-group relative gradient difference from float64 gradients
    # of the same model, measured on the desk model over seeds 0-9 (B=4,
    # output convs nudged by 0.1 as grad-audit does): 1.3e-6.
    GRAD_RTOL = 1e-5

    @staticmethod
    def desk_pair(seed):
        m32 = build_model(FlowConfig(), seed)
        m64 = build_model(FlowConfig(), seed, grad_dtype=np.float64)
        nudge = Rng(seed).spawn(2)
        for name, p in m64.params().items():
            if name.endswith(("coupling.w3", "coupling.b3")):
                p += 0.1 * nudge.standard_normal(p.shape)
        batch = Rng(seed).spawn(1).standard_normal((4, 1, 32, 32))
        m64.forward(batch, init_actnorm=True)
        m32.set_params(m64.params())
        return m32, m64, batch

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gradients_match_float64(self, seed):
        m32, m64, batch = self.desk_pair(seed)
        loss32, g32 = loss_and_grads(m32, batch)
        loss64, g64 = loss_and_grads(m64, batch)
        assert loss32 == loss64  # the forward pass is float64 either way
        for name, g in g64.items():
            assert g32[name].dtype == np.float64, name
            rel = np.linalg.norm(g32[name] - g) / np.linalg.norm(g)
            assert rel <= self.GRAD_RTOL, f"{name}: {rel:.2e}"

    def test_adam_keeps_params_and_moments_float64(self):
        m32, _, batch = self.desk_pair(0)
        params = m32.params()
        state = AdamState.zeros_like(params)
        _, grads = loss_and_grads(m32, batch)
        adam_step(params, grads, state, TrainConfig())
        for name, p in m32.params().items():
            arrays = (p, state.m[name], state.v[name])
            assert [a.dtype for a in arrays] == [np.float64] * 3, name

    def test_grad_audit_rejects_float32_gradients(self):
        model = build_model(tiny_config(), seed=8)
        with pytest.raises(ValueError, match="float64 grad_dtype"):
            grad_audit(model, Rng(9).standard_normal((3, 1, 4, 4)))


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"steps": 0},
            {"batch_size": 0},
            {"lr": 0.0},
            {"lr": -1.0},
            {"eps": 0.0},
            {"clip_norm": 0.0},
            {"beta1": 1.0},
            {"beta2": -0.1},
            {"jitter": -1e-3},
            {"checkpoint_every": 0},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.lr, cfg.beta1, cfg.beta2, cfg.eps) == (1e-4, 0.9, 0.999, 1e-8)
        assert (cfg.clip_norm, cfg.batch_size, cfg.steps) == (50.0, 16, 500)


# ---------------------------------------------------------------------------
# divergence detection


class TestDivergenceDetector:
    def test_nan_and_inf_abort_immediately(self):
        assert DivergenceDetector().update(math.nan)
        assert DivergenceDetector().update(math.inf)

    def test_streak_of_fifty_aborts(self):
        det = DivergenceDetector()
        assert not det.update(1.0)
        for _ in range(49):
            assert not det.update(11.0)
        assert det.update(11.0)

    def test_recovery_resets_streak(self):
        det = DivergenceDetector()
        det.update(1.0)
        for _ in range(49):
            det.update(11.0)
        assert not det.update(2.0)
        for _ in range(49):
            assert not det.update(11.0)
        assert det.update(11.0)

    def test_factor_is_relative_to_first_loss(self):
        det = DivergenceDetector()
        det.update(3.0)
        for _ in range(2 * DIVERGENCE_PATIENCE):
            assert not det.update(29.0)
        for _ in range(DIVERGENCE_PATIENCE - 1):
            assert not det.update(31.0)
        assert det.update(31.0)


# ---------------------------------------------------------------------------
# checkpoints


class TestCheckpoint:
    def _saved(self, tmp_path):
        model = make_random_model(tiny_config(), seed=5, perturb_coupling=0.2)
        adam = AdamState.zeros_like(model.params())
        adam.t = 3
        for k in adam.m:
            adam.m[k][...] = Rng(6).standard_normal(adam.m[k].shape)
        rng = Rng(7)
        rng.standard_normal(17)
        path = tmp_path / "model.fsck"
        cfg = small_train_config()
        save_checkpoint(path, model, adam, rng.state, 42, cfg, 1.25)
        return path, model, adam, rng, cfg

    def test_magic_and_version(self, tmp_path):
        path, *_ = self._saved(tmp_path)
        raw = path.read_bytes()
        assert raw[:4] == CHECKPOINT_MAGIC
        assert int.from_bytes(raw[4:8], "little") == 2
        # the trailer is the CRC-32 of every byte before it
        assert int.from_bytes(raw[-4:], "little") == zlib.crc32(raw[:-4])

    @pytest.mark.parametrize("where", ["header", "payload", "trailer"])
    def test_flipped_byte_rejected(self, tmp_path, where):
        path, *_ = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        (length,) = struct.unpack("<Q", raw[8:16])
        # a header byte, the last byte of the last Adam moment, a CRC byte
        at = {"header": 16 + length // 2, "payload": len(raw) - 5, "trailer": len(raw) - 1}[where]
        raw[at] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: CRC-32 mismatch"):
            load_checkpoint(path)

    def test_version_1_file_loads(self, tmp_path):
        # version 1, written before the CRC-32 trailer: no trailer, no check
        path, model, adam, _, cfg = self._saved(tmp_path)
        raw = path.read_bytes()
        old = tmp_path / "v1.fsck"
        old.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:-4])
        loaded = load_checkpoint(old)
        assert (loaded.step, loaded.train_config) == (42, cfg)
        for k, v in model.params().items():
            npt.assert_array_equal(loaded.model.params()[k], v)
            npt.assert_array_equal(loaded.adam.v[k], adam.v[k])

    def test_round_trip_is_bitwise(self, tmp_path):
        path, model, adam, rng, cfg = self._saved(tmp_path)
        loaded = load_checkpoint(path)
        assert loaded.step == 42
        assert loaded.initial_loss == 1.25
        assert loaded.train_config == cfg
        assert loaded.model.config == model.config
        assert loaded.adam.t == 3
        for k, v in model.params().items():
            npt.assert_array_equal(loaded.model.params()[k], v)
            npt.assert_array_equal(loaded.adam.m[k], adam.m[k])
            npt.assert_array_equal(loaded.adam.v[k], adam.v[k])
        restored = Rng(0)
        restored.state = loaded.rng_state
        npt.assert_array_equal(restored.standard_normal(5), rng.standard_normal(5))

    def test_no_temp_file_left(self, tmp_path):
        self._saved(tmp_path)
        assert [p.name for p in tmp_path.glob("*.tmp")] == []

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.fsck"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.fsck"
        path.write_bytes(CHECKPOINT_MAGIC + (99).to_bytes(4, "little") + b"\x00" * 8)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_older_header_keys_load_and_resume(self, tmp_path):
        # checkpoints used to carry the corpus stats and an actnorm flag in
        # their header; the reader ignores both, so such files still resume
        data = structured_data()
        half = small_train_config(steps=4, checkpoint_every=4)
        full = small_train_config(steps=8, checkpoint_every=4)
        metrics = {}
        for name in ("current", "older"):
            out = tmp_path / name
            train_loop(build_model(tiny_config(), half.seed), data, half, out)
            path = out / "checkpoint.fsck"
            raw = path.read_bytes()
            (length,) = struct.unpack("<Q", raw[8:16])
            meta = json.loads(raw[16 : 16 + length])
            assert not {"stats", "actnorms_initialized"} & set(meta)
            if name == "older":
                # such files predate the CRC-32 trailer: version 1, no trailer
                meta.update(stats=[-6.0, 3.0], actnorms_initialized=True)
                blob = json.dumps(meta, sort_keys=True).encode("utf-8")
                path.write_bytes(
                    raw[:4] + struct.pack("<IQ", 1, len(blob)) + blob + raw[16 + length : -4]
                )
            loaded = load_checkpoint(path)
            assert loaded.step == 4
            train_loop(loaded.model, data, full, out, resume=loaded)
            metrics[name] = strip_wall(out / "metrics.csv")
        assert len(metrics["older"]) == 8
        assert metrics["older"] == metrics["current"]

    @staticmethod
    def _adam_start(raw, model):
        """Offset of the first Adam record: after the header and the parameters."""
        (length,) = struct.unpack("<Q", raw[8:16])
        return 16 + length + sum(record_bytes(p) for p in model.params().values())

    def test_model_only_load_skips_the_moments(self, tmp_path, monkeypatch):
        path, model, *_ = self._saved(tmp_path)
        reads = []
        read = train.read_tensor_from

        def counted(fh):
            reads.append(fh.tell())
            return read(fh)

        monkeypatch.setattr(train, "read_tensor_from", counted)
        loaded = load_checkpoint(path, adam=False)
        assert loaded.adam is None and loaded.step == 42
        assert len(reads) == len(model.params())
        for k, v in model.params().items():
            npt.assert_array_equal(loaded.model.params()[k], v)

    def test_model_only_load_rejects_a_flipped_adam_byte(self, tmp_path):
        path, model, *_ = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        start = self._adam_start(raw, model)
        raw[(start + len(raw)) // 2] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: CRC-32 mismatch"):
            load_checkpoint(path, adam=False)

    @pytest.mark.parametrize("adam", [True, False])
    def test_version_1_truncated_in_the_moments_rejected(self, tmp_path, adam):
        path, model, *_ = self._saved(tmp_path)
        raw = path.read_bytes()
        v1 = raw[:4] + struct.pack("<I", 1) + raw[8:-4]
        start = self._adam_start(v1, model)
        cut = tmp_path / "v1.fsck"
        for n in range(start, len(v1), 97):
            cut.unlink(missing_ok=True)
            cut.write_bytes(v1[:n])
            with pytest.raises(CheckpointError, match=rf"^{re.escape(str(cut))}: "):
                load_checkpoint(cut, adam=adam)
        cut.write_bytes(v1)
        assert load_checkpoint(cut, adam=adam).step == 42

    def test_every_truncation_rejected_model_only(self, tmp_path):
        path, *_ = self._saved(tmp_path)
        raw = path.read_bytes()
        cut = tmp_path / "cut.fsck"
        for n in range(len(raw)):
            cut.unlink(missing_ok=True)
            cut.write_bytes(raw[:n])
            with pytest.raises(CheckpointError):
                load_checkpoint(cut, adam=False)

    def test_every_truncation_rejected(self, tmp_path):
        path, *_ = self._saved(tmp_path)
        raw = path.read_bytes()
        cut = tmp_path / "cut.fsck"
        for n in range(len(raw)):
            cut.unlink(missing_ok=True)  # truncating in place makes ext4 flush the file
            cut.write_bytes(raw[:n])
            with pytest.raises(CheckpointError):
                load_checkpoint(cut)


# ---------------------------------------------------------------------------
# training loop


class TestTrainLoop:
    def test_loss_decreases_on_structured_data(self, tmp_path):
        cfg = small_train_config(steps=80, lr=3e-3, checkpoint_every=80)
        model = build_model(tiny_config(), cfg.seed)
        result = train_loop(model, structured_data(), cfg, tmp_path)
        first = float(np.mean(result.losses[:5]))
        last = float(np.mean(result.losses[-5:]))
        assert last < first

    def test_metrics_file_layout(self, tmp_path):
        cfg = small_train_config()
        model = build_model(tiny_config(), cfg.seed)
        result = train_loop(model, structured_data(), cfg, tmp_path)
        rows = read_metrics(result.metrics_path)
        assert len(rows) == cfg.steps
        assert [int(r[0]) for r in rows] == list(range(1, cfg.steps + 1))
        for row in rows:
            nats, bits, norm, wall = map(float, row[1:])
            npt.assert_allclose(bits, nats / math.log(2.0), rtol=1e-12)
            assert norm >= 0.0 and wall >= 0.0

    def test_checkpoint_matches_live_model(self, tmp_path):
        cfg = small_train_config()
        model = build_model(tiny_config(), cfg.seed)
        result = train_loop(model, structured_data(), cfg, tmp_path)
        loaded = load_checkpoint(result.checkpoint_path)
        assert loaded.step == cfg.steps
        for k, v in model.params().items():
            npt.assert_array_equal(loaded.model.params()[k], v)

    def test_same_seed_is_deterministic(self, tmp_path):
        cfg = small_train_config()
        data = structured_data()
        r1 = train_loop(build_model(tiny_config(), cfg.seed), data, cfg, tmp_path / "a")
        r2 = train_loop(build_model(tiny_config(), cfg.seed), data, cfg, tmp_path / "b")
        assert strip_wall(r1.metrics_path) == strip_wall(r2.metrics_path)
        with open(r1.checkpoint_path, "rb") as f1, open(r2.checkpoint_path, "rb") as f2:
            assert f1.read() == f2.read()

    def test_resume_is_bit_identical(self, tmp_path):
        data = structured_data()
        full_cfg = small_train_config(steps=12)
        ra = train_loop(
            build_model(tiny_config(), full_cfg.seed), data, full_cfg, tmp_path / "a"
        )
        half_cfg = small_train_config(steps=6)
        train_loop(
            build_model(tiny_config(), half_cfg.seed), data, half_cfg, tmp_path / "b"
        )
        loaded = load_checkpoint(tmp_path / "b" / "checkpoint.fsck")
        rb = train_loop(loaded.model, data, full_cfg, tmp_path / "b", resume=loaded)
        assert strip_wall(ra.metrics_path) == strip_wall(rb.metrics_path)
        with open(ra.checkpoint_path, "rb") as f1, open(rb.checkpoint_path, "rb") as f2:
            assert f1.read() == f2.read()

    def test_resume_loads_its_parameters_into_a_fresh_model(self, tmp_path):
        data = structured_data()
        full_cfg = small_train_config(steps=12)
        ra = train_loop(
            build_model(tiny_config(), full_cfg.seed), data, full_cfg, tmp_path / "a"
        )
        half_cfg = small_train_config(steps=6)
        train_loop(
            build_model(tiny_config(), half_cfg.seed), data, half_cfg, tmp_path / "b"
        )
        loaded = load_checkpoint(tmp_path / "b" / "checkpoint.fsck")
        fresh = build_model(tiny_config(), seed=99)
        rb = train_loop(fresh, data, full_cfg, tmp_path / "b", resume=loaded)
        assert strip_wall(ra.metrics_path) == strip_wall(rb.metrics_path)
        with open(ra.checkpoint_path, "rb") as f1, open(rb.checkpoint_path, "rb") as f2:
            assert f1.read() == f2.read()

    def test_resume_into_other_architecture_rejected(self, tmp_path):
        cfg = small_train_config(steps=4, checkpoint_every=4)
        train_loop(build_model(tiny_config(), cfg.seed), structured_data(), cfg, tmp_path)
        loaded = load_checkpoint(tmp_path / "checkpoint.fsck")
        more = small_train_config(steps=8)
        deeper = FlowConfig(levels=1, depth=2, coupling_width=4, input_shape=(1, 4, 4))
        with pytest.raises(KeyError, match="level0.step1.actnorm.bias"):
            train_loop(build_model(deeper, 0), structured_data(), more, tmp_path,
                       resume=loaded)
        wider = FlowConfig(levels=1, depth=1, coupling_width=8, input_shape=(1, 4, 4))
        with pytest.raises(ShapeError, match="coupling"):
            train_loop(build_model(wider, 0), structured_data(), more, tmp_path,
                       resume=loaded)
        assert len(read_metrics(tmp_path / "metrics.csv")) == 4

    def test_crash_and_resume_logs_each_step_once(self, tmp_path):
        data = structured_data()
        cfg = small_train_config(steps=200, checkpoint_every=100)
        straight = train_loop(build_model(tiny_config(), cfg.seed), data, cfg, tmp_path / "a")

        class Crash(Exception):
            pass

        def crash_after_step_150(message):
            if message.startswith("step 150:"):
                raise Crash

        crashed = tmp_path / "b"
        with pytest.raises(Crash):
            train_loop(
                build_model(tiny_config(), cfg.seed), data, cfg, crashed, log=crash_after_step_150
            )
        with open(crashed / "metrics.csv", "a", encoding="utf-8") as fh:
            fh.write("151,0.5")  # a row torn by the crash
        loaded = load_checkpoint(crashed / "checkpoint.fsck")
        assert loaded.step == 100
        resumed = train_loop(loaded.model, data, cfg, crashed, resume=loaded)
        assert strip_wall(resumed.metrics_path) == strip_wall(straight.metrics_path)

    def test_divergence_aborts_with_last_checkpoint(self, tmp_path):
        cfg = small_train_config(steps=50, lr=1e6, clip_norm=1e12, checkpoint_every=1)
        model = build_model(tiny_config(), cfg.seed)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as exc:
                train_loop(model, structured_data(), cfg, tmp_path)
        assert exc.value.step > 1
        assert exc.value.checkpoint_path is not None
        loaded = load_checkpoint(exc.value.checkpoint_path)
        assert loaded.step == exc.value.step - 1
        rows = read_metrics(tmp_path / "metrics.csv")
        assert len(rows) == exc.value.step - 1

    def test_empty_data_rejected(self, tmp_path):
        cfg = small_train_config()
        model = build_model(tiny_config(), cfg.seed)
        with pytest.raises(ValueError):
            train_loop(model, np.zeros((0, 1, 4, 4)), cfg, tmp_path)

    def test_resume_past_end_rejected(self, tmp_path):
        cfg = small_train_config(steps=6, checkpoint_every=6)
        model = build_model(tiny_config(), cfg.seed)
        train_loop(model, structured_data(), cfg, tmp_path)
        loaded = load_checkpoint(tmp_path / "checkpoint.fsck")
        with pytest.raises(ValueError):
            train_loop(loaded.model, structured_data(), cfg, tmp_path, resume=loaded)

    def test_result_fields(self, tmp_path):
        cfg = small_train_config(steps=4, checkpoint_every=4)
        model = build_model(tiny_config(), cfg.seed)
        result = train_loop(model, structured_data(), cfg, tmp_path)
        assert isinstance(result, TrainResult)
        assert result.final_step == 4
        assert len(result.losses) == 4
        assert result.final_loss == result.losses[-1]
        assert os.path.exists(result.checkpoint_path)

    def test_comment_heads_metrics(self, tmp_path):
        cfg = small_train_config(steps=4, checkpoint_every=4)
        model = build_model(tiny_config(), cfg.seed)
        result = train_loop(
            model, structured_data(), cfg, tmp_path, comment="config echo line"
        )
        with open(result.metrics_path, encoding="utf-8") as fh:
            assert fh.readline() == "# config echo line\n"

    def test_only_step_one_data_initializes(self, tmp_path, monkeypatch):
        flags = []
        real = train.loss_and_grads

        def spy(model, batch, init_actnorm=False):
            flags.append(init_actnorm)
            return real(model, batch, init_actnorm)

        monkeypatch.setattr(train, "loss_and_grads", spy)
        data = structured_data()
        half = small_train_config(steps=4)
        train_loop(build_model(tiny_config(), half.seed), data, half, tmp_path)
        loaded = load_checkpoint(tmp_path / "checkpoint.fsck")
        train_loop(loaded.model, data, small_train_config(steps=8), tmp_path, resume=loaded)
        assert flags == [True] + [False] * 7


# ---------------------------------------------------------------------------
# gradient audit


class TestGradAudit:
    def test_random_model_passes(self):
        for width in (4, WIDE_COUPLING):
            model = make_random_model(
                tiny_config(width), seed=8, perturb_coupling=0.3, grad_dtype=np.float64
            )
            batch = Rng(9).standard_normal((3, 1, 4, 4))
            report = grad_audit(model, batch)
            assert isinstance(report, GradAuditReport)
            assert report.passed
            assert report.max_rel_err < 1e-6

    def test_covers_every_parameter(self):
        model = make_random_model(
            tiny_config(), seed=10, perturb_coupling=0.3, grad_dtype=np.float64
        )
        batch = Rng(11).standard_normal((2, 1, 4, 4))
        report = grad_audit(model, batch, entries_per_param=2)
        assert {e.name for e in report.entries} == set(model.params())
        sizes = {k: v.size for k, v in model.params().items()}
        assert len(report.entries) == sum(min(2, s) for s in sizes.values())

    def test_zero_step_rejected(self):
        model = FlowModel(tiny_config(), grad_dtype=np.float64)
        batch = np.zeros((1, 1, 4, 4))
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                grad_audit(model, batch, h=bad)
            with pytest.raises(ValueError):
                grad_audit(model, batch, tolerance=bad)

    def test_worst_entry_reported(self):
        model = make_random_model(
            tiny_config(), seed=12, perturb_coupling=0.3, grad_dtype=np.float64
        )
        batch = Rng(13).standard_normal((2, 1, 4, 4))
        report = grad_audit(model, batch)
        assert report.worst.rel_err == report.max_rel_err

    def test_identity_model_is_near_exact(self):
        model = FlowModel(tiny_config(), grad_dtype=np.float64)
        batch = Rng(14).standard_normal((2, 1, 4, 4))
        report = grad_audit(model, batch)
        assert report.max_rel_err < 1e-7

    def test_group_max_covers_every_parameter(self):
        model = make_random_model(
            tiny_config(), seed=15, perturb_coupling=0.3, grad_dtype=np.float64
        )
        batch = Rng(16).standard_normal((2, 1, 4, 4))
        report = grad_audit(model, batch)
        groups = report.group_max()
        assert set(groups) == set(model.params())
        assert max(groups.values()) == report.max_rel_err

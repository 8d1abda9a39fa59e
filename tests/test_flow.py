"""Tests for the invertible flow layers and the multi-scale model.

Log-determinants are checked against numerical Jacobians assembled by
central differences, and parameter gradients against finite differences
of the exact likelihood, so every closed-form expression in the layers
has an independent oracle.
"""

import dataclasses
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from conftest import WIDE_COUPLING, make_identity_model, make_random_model, tiny_config
from vowelflow import flow as flow_module
from vowelflow.flow import (
    LN_2PI,
    ActNorm,
    AffineCoupling,
    FlowConfig,
    FlowModel,
    InvConv,
    NonFiniteError,
    prior_logprob,
    squeeze,
    unsqueeze,
)
from vowelflow.latent import decode_batch, encode_batch
from vowelflow.numerics import Rng, ShapeError

FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# oracles


def numerical_logdet(f, x, h=FD_STEP):
    """log |det J| of y = f(x) from a central-difference Jacobian."""
    x = x.astype(np.float64)
    flat = x.reshape(-1)
    d = flat.size
    jac = np.empty((d, d))
    for j in range(d):
        xp = flat.copy()
        xm = flat.copy()
        xp[j] += h
        xm[j] -= h
        yp = f(xp.reshape(x.shape)).reshape(-1)
        ym = f(xm.reshape(x.shape)).reshape(-1)
        jac[:, j] = (yp - ym) / (2.0 * h)
    sign, logabs = np.linalg.slogdet(jac)
    assert sign != 0.0
    return logabs


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-3)


def check_grads_fd(loss_fn, params, analytic, h=FD_STEP, tol=1e-6):
    """Compare every analytic parameter gradient entry to central differences."""
    for name, arr in params.items():
        grad = analytic[name]
        assert grad.shape == arr.shape, name
        it = np.ndindex(arr.shape)
        for idx in it:
            keep = arr[idx]
            arr[idx] = keep + h
            lp = loss_fn()
            arr[idx] = keep - h
            lm = loss_fn()
            arr[idx] = keep
            fd = (lp - lm) / (2.0 * h)
            err = rel_err(grad[idx], fd)
            assert err <= tol, f"{name}{idx}: analytic {grad[idx]} vs fd {fd}"


# ---------------------------------------------------------------------------
# actnorm


class TestActNorm:
    def test_forward_closed_form(self):
        layer = ActNorm(2)
        layer.log_scale = np.array([math.log(2.0), math.log(3.0)])
        layer.bias = np.array([1.0, -1.0])
        x = Rng(0).standard_normal((1, 2, 3, 3))
        y, logdet, _ = layer.forward(x)
        npt.assert_allclose(y[0, 0], 2.0 * x[0, 0] + 1.0, rtol=1e-12)
        npt.assert_allclose(y[0, 1], 3.0 * x[0, 1] - 1.0, rtol=1e-12)
        npt.assert_allclose(logdet, 9.0 * math.log(6.0), rtol=1e-12)

    def test_logdet_matches_numerical_jacobian(self):
        layer = ActNorm(2)
        layer.log_scale = np.array([0.3, -0.7])
        layer.bias = np.array([0.1, 0.2])
        x = Rng(1).standard_normal((2, 2, 2))

        def f(x0):
            return layer.forward(x0[None])[0][0]

        npt.assert_allclose(
            layer.forward(x[None])[1][0], numerical_logdet(f, x), rtol=1e-7
        )

    def test_data_init_whitens_batch(self):
        layer = ActNorm(3)
        x = Rng(2).standard_normal((8, 3, 4, 4)) * 2.5 + 1.0
        layer.data_init(x)
        y, _, _ = layer.forward(x)
        npt.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        npt.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, rtol=1e-8)

    def test_inverse_round_trip(self):
        layer = ActNorm(2)
        layer.data_init(Rng(3).standard_normal((4, 2, 3, 3)))
        x = Rng(4).standard_normal((2, 2, 3, 3))
        npt.assert_allclose(layer.inverse(layer.forward(x)[0]), x, atol=1e-12)

    def test_fresh_layer_is_identity(self):
        layer = ActNorm(2)
        x = Rng(6).standard_normal((3, 2, 2, 2))
        y, logdet, _ = layer.forward(x)
        npt.assert_array_equal(y, x)
        npt.assert_array_equal(logdet, np.zeros(3))
        npt.assert_array_equal(layer.inverse(x), x)

    def test_backward_matches_fd(self):
        rng = Rng(5)
        layer = ActNorm(2)
        layer.data_init(rng.standard_normal((4, 2, 2, 2)))
        x = rng.standard_normal((2, 2, 2, 2))
        u = rng.standard_normal((2, 2, 2, 2))
        v = rng.standard_normal(2)

        def loss():
            y, ld, _ = layer.forward(x)
            return float((u * y).sum() + (v * ld).sum())

        grad_x, grads = layer.backward(x, u, v)
        check_grads_fd(loss, layer.params(), grads)
        for idx in np.ndindex(x.shape):
            keep = x[idx]
            x[idx] = keep + FD_STEP
            lp = loss()
            x[idx] = keep - FD_STEP
            lm = loss()
            x[idx] = keep
            assert rel_err(grad_x[idx], (lp - lm) / (2 * FD_STEP)) <= 1e-6


# ---------------------------------------------------------------------------
# invertible 1x1 convolution


class TestInvConv:
    def test_diagonal_weight_closed_form(self):
        layer = InvConv(2)
        layer.weight = np.diag([2.0, 3.0])
        x = Rng(6).standard_normal((1, 2, 2, 2))
        y, logdet, _ = layer.forward(x)
        npt.assert_allclose(y[:, 0], 2.0 * x[:, 0], rtol=1e-12)
        npt.assert_allclose(y[:, 1], 3.0 * x[:, 1], rtol=1e-12)
        npt.assert_allclose(logdet, 4.0 * math.log(6.0), rtol=1e-12)

    def test_orthogonal_init_unit_det(self):
        layer = InvConv(6, Rng(7))
        npt.assert_allclose(layer.weight @ layer.weight.T, np.eye(6), atol=1e-12)
        x = Rng(8).standard_normal((1, 6, 2, 2))
        npt.assert_allclose(layer.forward(x)[1], 0.0, atol=1e-10)

    def test_logdet_matches_numerical_jacobian(self):
        layer = InvConv(2, Rng(9))
        layer.weight = layer.weight @ np.diag([1.5, 0.5])
        x = Rng(10).standard_normal((2, 2, 2))

        def f(x0):
            return layer.forward(x0[None])[0][0]

        npt.assert_allclose(
            layer.forward(x[None])[1][0], numerical_logdet(f, x), rtol=1e-6
        )

    def test_inverse_round_trip(self):
        layer = InvConv(4, Rng(11))
        layer.weight += 0.1 * Rng(12).standard_normal((4, 4))
        x = Rng(13).standard_normal((3, 4, 2, 2))
        npt.assert_allclose(layer.inverse(layer.forward(x)[0]), x, atol=1e-10)

    def test_backward_matches_fd(self):
        rng = Rng(14)
        layer = InvConv(2, rng)
        # asymmetric weight so W and W^T gradients cannot be confused
        layer.weight = np.array([[1.2, 0.7], [-0.3, 0.9]])
        x = rng.standard_normal((2, 2, 2, 2))
        u = rng.standard_normal((2, 2, 2, 2))
        v = rng.standard_normal(2)

        def loss():
            y, ld, _ = layer.forward(x)
            return float((u * y).sum() + (v * ld).sum())

        grad_x, grads = layer.backward(x, u, v)
        check_grads_fd(loss, layer.params(), grads)
        for idx in np.ndindex(x.shape):
            keep = x[idx]
            x[idx] = keep + FD_STEP
            lp = loss()
            x[idx] = keep - FD_STEP
            lm = loss()
            x[idx] = keep
            assert rel_err(grad_x[idx], (lp - lm) / (2 * FD_STEP)) <= 1e-6


# ---------------------------------------------------------------------------
# affine coupling


class TestAffineCoupling:
    def test_zero_init_is_identity(self):
        layer = AffineCoupling(4, 8, Rng(15))
        x = Rng(16).standard_normal((2, 4, 3, 3))
        y, logdet, _ = layer.forward(x)
        npt.assert_allclose(y, x, atol=1e-15)
        npt.assert_allclose(logdet, 0.0, atol=1e-15)

    def test_first_half_passes_through(self):
        layer = self._active_layer()
        x = Rng(17).standard_normal((2, 2, 3, 3))
        y, _, _ = layer.forward(x)
        npt.assert_array_equal(y[:, :1], x[:, :1])
        assert np.abs(y[:, 1:] - x[:, 1:]).max() > 1e-3

    def test_scale_bounded(self):
        layer = self._active_layer(magnitude=50.0)
        x = Rng(18).standard_normal((1, 2, 3, 3)) * 10.0
        _, logdet, cache = layer.forward(x)
        assert np.all(cache["scale"] >= math.exp(-2.0))
        assert np.all(cache["scale"] <= math.exp(2.0))
        assert abs(logdet[0]) <= 2.0 * 9.0 + 1e-12

    def test_logdet_matches_numerical_jacobian(self):
        layer = self._active_layer()
        x = Rng(19).standard_normal((2, 3, 3))

        def f(x0):
            return layer.forward(x0[None])[0][0]

        npt.assert_allclose(
            layer.forward(x[None])[1][0], numerical_logdet(f, x), rtol=1e-5
        )

    def test_inverse_round_trip(self):
        layer = self._active_layer()
        x = Rng(20).standard_normal((3, 2, 4, 4))
        y, _, _ = layer.forward(x)
        npt.assert_allclose(layer.inverse(y), x, atol=1e-10)

    def test_odd_channels_rejected(self):
        with pytest.raises(ShapeError):
            AffineCoupling(3, 8)

    def test_backward_matches_fd(self):
        rng = Rng(21)
        layer = self._active_layer(grad_dtype=np.float64)
        x = rng.standard_normal((2, 2, 3, 3))
        u = rng.standard_normal((2, 2, 3, 3))
        v = rng.standard_normal(2)

        def loss():
            y, ld, _ = layer.forward(x)
            return float((u * y).sum() + (v * ld).sum())

        _, _, cache = layer.forward(x)
        grad_x, grads = layer.backward(cache, u, v)
        check_grads_fd(loss, layer.params(), grads, tol=2e-6)
        for idx in np.ndindex(x.shape):
            keep = x[idx]
            x[idx] = keep + FD_STEP
            lp = loss()
            x[idx] = keep - FD_STEP
            lm = loss()
            x[idx] = keep
            assert rel_err(grad_x[idx], (lp - lm) / (2 * FD_STEP)) <= 2e-6

    @staticmethod
    def _active_layer(magnitude=0.5, **layer_kw):
        rng = Rng(22)
        layer = AffineCoupling(2, 4, rng, **layer_kw)
        layer.w3[...] = rng.standard_normal(layer.w3.shape) * magnitude
        layer.b3[...] = rng.standard_normal(layer.b3.shape) * magnitude
        return layer


# ---------------------------------------------------------------------------
# squeeze


class TestSqueeze:
    def test_hand_laid_blocks(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        y = squeeze(x)
        assert y.shape == (1, 4, 2, 2)
        npt.assert_array_equal(y[0, 0], [[0, 2], [8, 10]])
        npt.assert_array_equal(y[0, 1], [[1, 3], [9, 11]])
        npt.assert_array_equal(y[0, 2], [[4, 6], [12, 14]])
        npt.assert_array_equal(y[0, 3], [[5, 7], [13, 15]])

    def test_round_trip(self):
        x = Rng(23).standard_normal((2, 3, 6, 8))
        npt.assert_array_equal(unsqueeze(squeeze(x)), x)

    def test_odd_extent_rejected(self):
        with pytest.raises(ShapeError):
            squeeze(np.zeros((1, 1, 3, 4)))
        with pytest.raises(ShapeError):
            unsqueeze(np.zeros((1, 3, 2, 2)))


# ---------------------------------------------------------------------------
# model


class TestFlowConfig:
    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError):
            FlowConfig(levels=4, input_shape=(1, 36, 36))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            FlowConfig(input_shape=(1, 32, 16))

    def test_full_scale_shape(self):
        cfg = FlowConfig.full_scale()
        assert cfg.input_shape == (1, 288, 288)
        assert (cfg.levels, cfg.depth, cfg.coupling_width) == (4, 8, 128)


class TestModelLayout:
    def test_desk_layout(self):
        model = FlowModel(FlowConfig())
        assert model.code_size == 1024
        z = np.arange(2.0 * model.code_size).reshape(2, -1)
        parts = model.unflatten_code(z)
        assert [p.shape for p in parts] == [(2, 2, 16, 16), (2, 4, 8, 8), (2, 16, 4, 4)]
        # level parts sit at offsets 0, 512 and 768, level 0 first
        assert [p[0].reshape(-1)[0] for p in parts] == [0.0, 512.0, 768.0]

    def test_code_size_preserves_dimension(self):
        for cfg in [FlowConfig(), tiny_config(), FlowConfig(levels=2, input_shape=(1, 16, 16))]:
            model = FlowModel(cfg)
            c, h, w = cfg.input_shape
            assert model.code_size == c * h * w

    def test_flatten_unflatten_round_trip(self):
        model = make_identity_model()
        z = Rng(24).standard_normal((3, model.code_size))
        parts = model.unflatten_code(z)
        npt.assert_array_equal(model.flatten_parts(parts), z)

    def test_wrong_code_length_rejected(self):
        model = make_identity_model(tiny_config())
        for bad in (np.zeros((1, 17)), np.zeros(16), np.zeros((1, 1, 16))):
            with pytest.raises(ShapeError):
                model.unflatten_code(bad)
            with pytest.raises(ShapeError):
                model.inverse(bad)
        assert model.check_code([[0] * 16]).dtype == np.float64

    def test_decode_rejects_single_code(self):
        # one code is a (1, d) batch; a bare (d,) vector is not promoted
        model = make_identity_model(tiny_config())
        z, _ = encode_batch(model, Rng(23).standard_normal((2, 1, 4, 4)))
        with pytest.raises(ShapeError):
            decode_batch(model, z[0])
        assert decode_batch(model, z[:1]).shape == (1, 1, 4, 4)


class TestIdentityModel:
    def test_code_is_permutation_with_zero_logdet(self):
        model = make_identity_model()
        x = np.arange(1024.0).reshape(1, 1, 32, 32)
        z, logdet, _ = model.forward(x)
        flat = z[0]
        npt.assert_array_equal(logdet, 0.0)
        npt.assert_array_equal(np.sort(flat), np.arange(1024.0))

    def test_permutation_is_fixed(self):
        model = make_identity_model()
        base = np.arange(1024.0).reshape(1, 1, 32, 32)
        flat = model.forward(base)[0][0]
        perm = flat.astype(int)
        x = Rng(25).standard_normal((2, 1, 32, 32))
        got = model.forward(x)[0]
        npt.assert_array_equal(got, x.reshape(2, -1)[:, perm])


class TestModelForwardInverse:
    def test_round_trip_random_model(self):
        cfg = FlowConfig(levels=2, depth=2, coupling_width=8, input_shape=(1, 8, 8))
        model = make_random_model(cfg, seed=26, perturb_coupling=0.3)
        x = Rng(27).standard_normal((3, 1, 8, 8))
        z, logdet, _ = model.forward(x)
        assert z.shape == (3, model.code_size)
        npt.assert_allclose(model.inverse(z), x, atol=1e-10)
        assert np.all(np.isfinite(logdet))

    def test_batch_matches_per_example(self):
        cfg = tiny_config()
        model = make_random_model(cfg, seed=28, perturb_coupling=0.3)
        x = Rng(29).standard_normal((3, 1, 4, 4))
        z_b, logdet_b, _ = model.forward(x)
        for i in range(3):
            z_i, logdet_i, _ = model.forward(x[i : i + 1])
            npt.assert_allclose(logdet_b[i], logdet_i[0], rtol=1e-12)
            npt.assert_allclose(z_b[i], z_i[0], rtol=1e-12, atol=1e-14)

    def test_logdet_matches_numerical_jacobian(self):
        model = make_random_model(tiny_config(), seed=30, perturb_coupling=0.4)
        x = Rng(31).standard_normal((1, 4, 4))

        def f(x0):
            return model.forward(x0[None])[0][0]

        _, logdet, _ = model.forward(x[None])
        npt.assert_allclose(logdet[0], numerical_logdet(f, x), rtol=1e-5)

    def test_encode_decode_single_example(self):
        model = make_random_model(tiny_config(), seed=32, perturb_coupling=0.3)
        x = Rng(33).standard_normal((1, 1, 4, 4))
        z, lnp = encode_batch(model, x)
        assert z.shape == (1, 16) and lnp.shape == (1,)
        _, logdet, _ = model.forward(x)
        npt.assert_allclose(lnp, prior_logprob(z) + logdet, rtol=1e-12)
        npt.assert_allclose(decode_batch(model, z), x, atol=1e-10)

    def test_wrong_input_shape_rejected(self):
        model = make_identity_model(tiny_config())
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 1, 8, 8)))
        with pytest.raises(ShapeError):
            model.inverse(np.zeros((1, 2, 3, 3)))

    def test_non_finite_layer_reported(self):
        for param, value, index, name in (
            ("actnorm.log_scale", 1e4, 0, "level0.step0.actnorm"),
            ("coupling.b3", np.inf, 2, "level0.step0.coupling"),
        ):
            model = make_identity_model(tiny_config())
            model.params()[f"level0.step0.{param}"][...] = value
            with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as exc:
                model.forward(np.ones((1, 1, 4, 4)))
            assert (exc.value.layer_index, exc.value.layer_name) == (index, name)

    def test_nan_invconv_weight_reported_without_warning(self):
        # ln|det W| of a NaN weight is NaN, not a singular-matrix error: the
        # layer's output carries it to NonFiniteError, silently until then
        model = make_identity_model(tiny_config())
        model.params()["level0.step0.invconv.weight"][0, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as exc:
                model.forward(np.ones((1, 1, 4, 4)))
        assert (exc.value.layer_index, exc.value.layer_name) == (1, "level0.step0.invconv")


class TestModelBackward:
    def test_likelihood_gradients_match_fd(self):
        for width in (4, WIDE_COUPLING):
            model = make_random_model(
                tiny_config(width), seed=34, perturb_coupling=0.3, grad_dtype=np.float64
            )
            x = Rng(35).standard_normal((2, 1, 4, 4))

            def loss():
                z, logdet, _ = model.forward(x)
                return float(np.sum(prior_logprob(z) + logdet))

            z, logdet, cache = model.forward(x, want_cache=True)
            grads = model.backward(cache, -z, np.ones(x.shape[0]))
            assert set(grads) == set(model.params())
            check_grads_fd(loss, model.params(), grads, tol=2e-6)

    def test_param_and_grad_order_pinned(self):
        # checkpoints list parameters in params() order, and global_norm sums
        # the gradients in backward's order
        cfg = FlowConfig(levels=2, depth=2, coupling_width=4, input_shape=(1, 8, 8))
        model = make_identity_model(cfg)
        coupling = [f"coupling.{k}" for k in ("w1", "b1", "w2", "b2", "w3", "b3")]
        steps = [f"level{li}.step{si}" for li in range(2) for si in range(2)]
        layer_params = ["actnorm.log_scale", "actnorm.bias", "invconv.weight", *coupling]
        assert list(model.params()) == [f"{s}.{p}" for s in steps for p in layer_params]

        z, _, cache = model.forward(np.ones((1, 1, 8, 8)), want_cache=True)
        grads = model.backward(cache, z, np.ones(1))
        layer_grads = [*coupling, "invconv.weight", "actnorm.bias", "actnorm.log_scale"]
        assert list(grads) == [f"{s}.{p}" for s in reversed(steps) for p in layer_grads]

    def test_init_actnorm_sets_every_actnorm_from_its_batch(self):
        cfg = FlowConfig(levels=2, depth=2, coupling_width=4, input_shape=(1, 8, 8))
        model = FlowModel(cfg, rng=Rng(36))
        actnorms = [layer for level in model.layers for _, layer in level
                    if isinstance(layer, ActNorm)]
        seen = []
        for layer in actnorms:
            layer.data_init = lambda h, f=layer.data_init: (seen.append(h), f(h))
        # a second call sets them again: there is no once-only flag
        for seed, scale in ((37, 3.0), (38, 0.5)):
            seen.clear()
            x = scale * Rng(seed).standard_normal((4, 1, 8, 8)) + 1.0
            model.forward(x, init_actnorm=True)
            assert len(seen) == len(actnorms)
            for layer, h in zip(actnorms, seen):
                y = layer.forward(h)[0]
                npt.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
                npt.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, rtol=1e-8)


class TestBackwardCache:
    @staticmethod
    def coupling_caches(cache):
        return [c for level in cache for c in level if isinstance(c, dict)]

    @pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
    def test_relu_outputs_kept_in_grad_dtype(self, grad_dtype):
        cfg = FlowConfig(levels=2, depth=1, coupling_width=4, input_shape=(1, 8, 8))
        model = make_random_model(cfg, seed=39, grad_dtype=grad_dtype)
        x = Rng(40).standard_normal((2, 1, 8, 8))
        _, _, cache = model.forward(x, want_cache=True)
        caches = self.coupling_caches(cache)
        assert len(caches) == 2
        for c in caches:
            assert c["a1"].dtype == c["a2"].dtype == grad_dtype
            assert c["xa"].dtype == c["scale"].dtype == np.float64

    def test_inference_creates_no_float32_array(self, monkeypatch):
        # every array derived from a coupling net's conv outputs is watched:
        # a cast for the cache would show up as a float32 one
        seen = []

        class Watched(np.ndarray):
            def __array_finalize__(self, obj):
                seen.append(self.dtype)

        model = make_random_model(tiny_config(), seed=41)
        assert model.grad_dtype == np.float32
        conv = flow_module.conv2d
        monkeypatch.setattr(flow_module, "conv2d", lambda *a: conv(*a).view(Watched))
        x = Rng(42).standard_normal((2, 1, 4, 4))
        model.forward(x)
        assert seen and np.float32 not in seen
        model.forward(x, want_cache=True)
        assert np.float32 in seen


class TestSetParams:
    def test_round_trip(self):
        model = make_identity_model(tiny_config())
        values = {k: v + 1.0 for k, v in model.params().items()}
        model.set_params(values)
        for k, v in model.params().items():
            npt.assert_array_equal(v, values[k])

    def test_name_mismatch_rejected(self):
        model = make_identity_model(tiny_config())
        values = model.params()
        values.pop(next(iter(values)))
        with pytest.raises(KeyError):
            model.set_params(values)

    def test_shape_mismatch_writes_nothing(self):
        # width-4 parameters into a width-8 model: the actnorm and 1x1-conv
        # shapes match, and the 1x1 conv comes before the first coupling
        # tensor whose shape differs
        model = make_random_model(dataclasses.replace(tiny_config(), coupling_width=8), seed=1)
        before = {k: v.copy() for k, v in model.params().items()}
        with pytest.raises(ShapeError, match="coupling.w1"):
            model.set_params(make_random_model(tiny_config(), seed=2).params())
        for k, v in model.params().items():
            npt.assert_array_equal(v, before[k], err_msg=k)


class TestPrior:
    def test_zero_code_closed_form(self):
        npt.assert_allclose(prior_logprob(np.zeros(4)), -2.0 * LN_2PI, rtol=1e-15)

    def test_general_closed_form(self):
        z = np.array([1.0, 2.0])
        npt.assert_allclose(prior_logprob(z), -0.5 * 5.0 - LN_2PI, rtol=1e-15)

    def test_batched_shape(self):
        z = Rng(38).standard_normal((3, 5))
        out = prior_logprob(z)
        assert out.shape == (3,)
        npt.assert_allclose(out[1], prior_logprob(z[1]), rtol=1e-15)

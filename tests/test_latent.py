"""Tests for latent-space analyses.

LDA directions and Fisher ratios are checked against tiny hand-solved
configurations, and the moment statistics against closed-form values
for two-point and uniform distributions.
"""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from conftest import WIDE_COUPLING, make_identity_model, make_random_model, tiny_config
from vowelflow import latent
from vowelflow.flow import FlowConfig, FlowModel, prior_logprob
from vowelflow.latent import (
    DEFAULT_DENOISE_BETAS,
    DEFAULT_INTERP_ALPHAS,
    LDA_SHRINKAGE,
    DegenerateProbeError,
    chunk_rows,
    decode_batch,
    denoise,
    displacement,
    encode_batch,
    fisher_ratio,
    gaussianity_report,
    interpolate,
    lda_fit,
    project_scatter,
    sample,
    scatter_pair,
    write_csv,
    write_image_strip,
    write_pgm,
)
from vowelflow.numerics import Rng, ShapeError

# tiny hand-solvable LDA instance: classes differ only in the first axis
LDA_A = np.array([[0.0, 0.0], [0.0, 2.0]])
LDA_B = np.array([[4.0, 0.0], [4.0, 2.0]])


# ---------------------------------------------------------------------------
# encode / decode / sample


class TestEncodeDecode:
    def test_round_trip_batch(self):
        for width in (4, WIDE_COUPLING):
            model = make_random_model(tiny_config(width), seed=0, perturb_coupling=0.3)
            x = Rng(1).standard_normal((4, 1, 4, 4))
            z, lnp = encode_batch(model, x)
            assert z.shape == (4, 16) and lnp.shape == (4,)
            npt.assert_allclose(decode_batch(model, z), x, atol=1e-10)

    def test_decode_single_code(self):
        model = make_identity_model(tiny_config())
        z = Rng(2).standard_normal((1, 16))
        out = decode_batch(model, z)
        assert out.shape == (1, 1, 4, 4)
        npt.assert_array_equal(np.sort(out.reshape(-1)), np.sort(z[0]))

    def test_empty_batch(self):
        model = make_random_model(tiny_config(), seed=0, perturb_coupling=0.3)
        z, lnp = encode_batch(model, np.empty((0, 1, 4, 4)))
        assert z.shape == (0, 16) and lnp.shape == (0,)
        assert decode_batch(model, z).shape == (0, 1, 4, 4)
        with pytest.raises(ShapeError):
            encode_batch(model, np.empty((0, 1, 4, 5)))
        with pytest.raises(ShapeError):
            decode_batch(model, np.empty((0, 15)))


# two levels, so codes have several parts; CHUNK_BYTES is cut to give K rows
CHUNK_CONFIG = FlowConfig(levels=2, depth=1, coupling_width=4, input_shape=(1, 8, 8))
K = 4
# level 0's last coupling conv is 8 -> 4 here; the same budget gives K // 2 rows
WIDE_CHUNK_CONFIG = FlowConfig(
    levels=2, depth=1, coupling_width=WIDE_COUPLING, input_shape=(1, 8, 8)
)


class TestChunking:
    @pytest.fixture
    def model(self, monkeypatch):
        per_image = 4 * 9 * 4 * 4 * 8
        monkeypatch.setattr(latent, "CHUNK_BYTES", K * per_image + per_image // 2)
        assert chunk_rows(CHUNK_CONFIG) == K
        return make_random_model(CHUNK_CONFIG, seed=3, perturb_coupling=0.3)

    def test_chunk_size_from_budget(self):
        assert chunk_rows(FlowConfig()) == 14
        assert chunk_rows(FlowConfig.full_scale()) == 1

    @pytest.mark.parametrize("n", [1, K - 1, K, K + 1, 2 * K + 3])
    def test_equal_to_one_call(self, model, n):
        assert chunk_rows(WIDE_CHUNK_CONFIG) == K // 2
        wide = make_random_model(WIDE_CHUNK_CONFIG, seed=3, perturb_coupling=0.3)
        x = Rng(n).standard_normal((n, *CHUNK_CONFIG.input_shape))
        codes = Rng(100 + n).standard_normal((n, model.code_size))
        for m in (model, wide):
            z_ref, logdet, _ = m.forward(x)
            z, lnp = encode_batch(m, x)
            npt.assert_array_equal(z, z_ref)
            npt.assert_array_equal(lnp, prior_logprob(z_ref) + logdet)
            npt.assert_array_equal(decode_batch(m, codes), m.inverse(codes))

    def test_no_call_exceeds_chunk(self, model, monkeypatch):
        rows = []
        forward, inverse = FlowModel.forward, FlowModel.inverse

        def spy_forward(self, x, *args, **kwargs):
            rows.append(len(x))
            return forward(self, x, *args, **kwargs)

        def spy_inverse(self, z):
            rows.append(len(z))
            return inverse(self, z)

        monkeypatch.setattr(FlowModel, "forward", spy_forward)
        monkeypatch.setattr(FlowModel, "inverse", spy_inverse)
        n = 2 * K + 3
        z, _ = encode_batch(model, Rng(8).standard_normal((n, *CHUNK_CONFIG.input_shape)))
        decode_batch(model, z)
        assert rows == [K, K, 3] * 2


class TestSample:
    def test_zero_temperature_collapses(self):
        model = make_identity_model(tiny_config())
        z, images = sample(model, Rng(3), 4, temperature=0.0)
        npt.assert_array_equal(z, 0.0)
        for i in range(1, 4):
            npt.assert_array_equal(images[i], images[0])

    def test_temperature_scales_codes(self):
        model = make_identity_model(tiny_config())
        z1, _ = sample(model, Rng(4), 8, temperature=1.0)
        z2, _ = sample(model, Rng(4), 8, temperature=0.25)
        npt.assert_allclose(z2, 0.25 * z1, rtol=1e-15)

    def test_same_seed_is_deterministic(self):
        model = make_random_model(tiny_config(), seed=5, perturb_coupling=0.3)
        _, im1 = sample(model, Rng(6), 3)
        _, im2 = sample(model, Rng(6), 3)
        npt.assert_array_equal(im1, im2)

    def test_invalid_arguments(self):
        model = make_identity_model(tiny_config())
        with pytest.raises(ValueError):
            sample(model, Rng(7), 0)
        for temperature in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                sample(model, Rng(7), 1, temperature=temperature)


# ---------------------------------------------------------------------------
# interpolation


class TestInterpolate:
    def test_default_sweep_excludes_endpoints(self):
        npt.assert_allclose(DEFAULT_INTERP_ALPHAS, np.arange(1, 10) / 10.0, rtol=1e-12)

    def test_codes_are_linear_blend(self):
        model = make_identity_model(tiny_config())
        za = Rng(8).standard_normal(16)
        zb = Rng(9).standard_normal(16)
        res = interpolate(model, za, zb)
        assert res.codes.shape == (9, 16) and res.images.shape == (9, 1, 4, 4)
        for alpha, code in zip(res.ts, res.codes):
            npt.assert_allclose(code, (1 - alpha) * za + alpha * zb, rtol=1e-12)

    def test_identity_model_blends_pixels(self):
        model = make_identity_model(tiny_config())
        za = Rng(10).standard_normal(16)
        zb = Rng(11).standard_normal(16)
        res = interpolate(model, za, zb)
        xa, xb = decode_batch(model, np.stack([za, zb]))
        for alpha, img in zip(res.ts, res.images):
            npt.assert_allclose(img, (1 - alpha) * xa + alpha * xb, rtol=1e-12)

    def test_custom_alphas(self):
        model = make_identity_model(tiny_config())
        res = interpolate(model, np.zeros(16), np.ones(16), alphas=[0.0, 1.0])
        npt.assert_array_equal(res.codes[0], np.zeros(16))
        npt.assert_array_equal(res.codes[1], np.ones(16))

    def test_endpoints_are_exact(self):
        model = make_identity_model(tiny_config())
        za = Rng(32).standard_normal(16)
        zb = Rng(33).standard_normal(16)
        res = interpolate(model, za, zb, alphas=[0.0, 1.0])
        npt.assert_array_equal(res.codes[0], za)
        npt.assert_array_equal(res.codes[1], zb)

    def test_midpoint_hand_value(self):
        model = make_identity_model(tiny_config())
        za = np.zeros(16)
        za[0], za[1] = 0.0, 2.0
        zb = np.zeros(16)
        zb[0], zb[1] = 2.0, 0.0
        res = interpolate(model, za, zb, alphas=[0.5])
        npt.assert_allclose(res.codes[0][:2], [1.0, 1.0], rtol=1e-15)

    def test_convexity_per_coordinate(self):
        model = make_identity_model(tiny_config())
        za = Rng(34).standard_normal(16)
        zb = Rng(35).standard_normal(16)
        res = interpolate(model, za, zb)
        lo = np.minimum(za, zb)
        hi = np.maximum(za, zb)
        for code in res.codes:
            assert np.all(code >= lo - 1e-12) and np.all(code <= hi + 1e-12)

    def test_wrong_length_rejected(self):
        model = make_identity_model(tiny_config())
        with pytest.raises(ShapeError):
            interpolate(model, np.zeros(15), np.zeros(16))


# ---------------------------------------------------------------------------
# displacement denoising


class TestDisplacement:
    def test_hand_computed_mean_offset(self):
        clean = np.array([[0.0, 0.0], [2.0, 0.0]])
        noisy = np.array([[1.0, 1.0], [3.0, 1.0]])
        disp = displacement(clean, noisy)
        npt.assert_allclose(disp, [1.0, 1.0], rtol=1e-15)

    def test_identical_sets_give_zero(self):
        z = Rng(29).standard_normal((5, 4))
        npt.assert_allclose(displacement(z, z.copy()), 0.0, atol=1e-15)

    def test_permutation_invariant(self):
        z_c = Rng(30).standard_normal((6, 3))
        z_n = Rng(31).standard_normal((4, 3))
        d1 = displacement(z_c, z_n)
        d2 = displacement(z_c[::-1], z_n[::-1])
        npt.assert_allclose(d1, d2, rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            displacement(np.zeros((2, 3)), np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            displacement(np.zeros((0, 3)), np.zeros((2, 3)))


class TestDenoise:
    def test_default_sweep_and_formula(self):
        model = make_identity_model(tiny_config())
        zn = Rng(12).standard_normal(16)
        xi = Rng(13).standard_normal(16)
        res = denoise(model, zn, xi)
        npt.assert_allclose(res.ts, DEFAULT_DENOISE_BETAS, rtol=1e-15)
        npt.assert_allclose(res.ts, np.arange(9) / 10.0, atol=1e-12)
        for beta, code in zip(res.ts, res.codes):
            npt.assert_allclose(code, zn - beta * xi, rtol=1e-12, atol=1e-15)

    def test_zero_beta_reproduces_input(self):
        model = make_identity_model(tiny_config())
        zn = Rng(14).standard_normal(16)
        xi = np.ones(16)
        res = denoise(model, zn, xi)
        npt.assert_array_equal(res.codes[0], zn)
        npt.assert_array_equal(res.images[0], decode_batch(model, zn[None])[0])

    def test_hand_computed_point(self):
        model = make_identity_model(tiny_config())
        zn = np.full(16, 3.0)
        zn[1] = 1.0
        xi = np.ones(16)
        res = denoise(model, zn, xi, betas=[1.0])
        expected = zn - 1.0
        npt.assert_allclose(res.codes[0], expected, rtol=1e-15)

    def test_linear_in_beta(self):
        model = make_identity_model(tiny_config())
        zn = Rng(15).standard_normal(16)
        xi = Rng(16).standard_normal(16)
        res = denoise(model, zn, xi, betas=[0.2, 0.4])
        npt.assert_allclose(res.codes[1] - zn, 2.0 * (res.codes[0] - zn), rtol=1e-12)

    def test_mismatched_displacement_rejected(self):
        model = make_identity_model(tiny_config())
        xi = np.ones(8)
        with pytest.raises(ShapeError):
            denoise(model, np.zeros(16), xi)


# ---------------------------------------------------------------------------
# gaussianity


class TestMoments:
    def test_two_point_distribution_closed_form(self):
        # Bernoulli(1/4) sample realized exactly: moments have closed forms
        x = np.array([1.0, 0.0, 0.0, 0.0])
        p = 0.25
        rep = gaussianity_report(x[:, None])
        npt.assert_allclose(
            rep.skewness, [(1 - 2 * p) / math.sqrt(p * (1 - p))], rtol=1e-12
        )
        npt.assert_allclose(
            rep.excess_kurtosis, [(1 - 6 * p * (1 - p)) / (p * (1 - p))], rtol=1e-12
        )

    def test_symmetric_data_has_zero_skew(self):
        x = np.array([-3.0, -1.0, 1.0, 3.0])
        npt.assert_allclose(gaussianity_report(x[:, None]).skewness, [0.0], atol=1e-15)

    def test_normal_sample_is_near_zero(self):
        z = Rng(15).standard_normal((100_000, 8))
        rep = gaussianity_report(z)
        assert rep.skewness.shape == rep.excess_kurtosis.shape == (8,)
        assert not rep.degenerate.any()
        assert rep.mean_abs_skewness < 0.05
        assert rep.mean_abs_excess_kurtosis < 0.05

    def test_uniform_sample_kurtosis(self):
        u = Rng(16).uniform(-1.0, 1.0, (100_000, 4))
        rep = gaussianity_report(u)
        npt.assert_allclose(rep.excess_kurtosis, -1.2, atol=0.05)
        npt.assert_allclose(rep.skewness, 0.0, atol=0.05)

    def test_degenerate_dimension_flagged(self):
        # A constant column's m2 need not round to exactly 0: 0.1 over 40
        # rows does not in C order, but does in Fortran order.  The flag
        # must not depend on that.
        for n, value in ((500, 4.0), (40, 0.1)):
            z = Rng(17).standard_normal((n, 3))
            z[:, 1] = value
            for arr in (z, np.asfortranarray(z)):
                rep = gaussianity_report(arr)
                npt.assert_array_equal(rep.degenerate, [False, True, False])
                assert math.isnan(rep.skewness[1]) and math.isnan(rep.excess_kurtosis[1])
                assert math.isfinite(rep.mean_abs_skewness)
        rep = gaussianity_report(np.full((40, 3), 0.1))
        assert rep.degenerate.all() and math.isnan(rep.mean_abs_excess_kurtosis)

    def test_dimension_subset(self):
        # statistics are per column and independent of memory layout: a
        # sliced subset reports the full array's values bit for bit
        z = Rng(36).standard_normal((1000, 6))
        full = gaussianity_report(z)
        sub = gaussianity_report(z[:, [4, 1]])  # a Fortran-ordered copy
        npt.assert_array_equal(sub.skewness, full.skewness[[4, 1]])
        npt.assert_array_equal(sub.excess_kurtosis, full.excess_kurtosis[[4, 1]])

    def test_too_few_samples_rejected(self):
        with pytest.raises(ShapeError):
            gaussianity_report(np.zeros((1, 4)))


class TestScatterPair:
    def test_distinct_dims_and_points(self):
        z = Rng(18).standard_normal((50, 6))
        pair = scatter_pair(z, Rng(19))
        assert pair.dim_i != pair.dim_j
        assert 0 <= pair.dim_i < 6 and 0 <= pair.dim_j < 6
        npt.assert_array_equal(pair.points, z[:, (pair.dim_i, pair.dim_j)])

    def test_deterministic_for_seed(self):
        z = Rng(20).standard_normal((10, 16))
        p1 = scatter_pair(z, Rng(21))
        p2 = scatter_pair(z, Rng(21))
        assert (p1.dim_i, p1.dim_j) == (p2.dim_i, p2.dim_j)

    def test_needs_two_dims(self):
        with pytest.raises(ShapeError):
            scatter_pair(np.zeros((5, 1)), Rng(22))


# ---------------------------------------------------------------------------
# LDA probe


class TestLdaFit:
    def test_hand_solved_direction(self):
        probe = lda_fit(LDA_A, LDA_B)
        npt.assert_allclose(probe.direction_1, [1.0, 0.0], atol=1e-12)
        npt.assert_allclose(probe.direction_2, [0.0, 1.0], atol=1e-12)
        # the class means (0, 1) and (4, 1) differ along direction_1 only
        npt.assert_allclose(displacement(LDA_A, LDA_B), [4.0, 0.0], rtol=1e-15)
        # lambda = 1e-3 * trace(S_w) / d with S_w = diag(0, 4)
        npt.assert_allclose(probe.shrinkage, 1e-3 * 4.0 / 2.0, rtol=1e-12)
        # zero within-class spread along (1, 0) with a 4.0 mean gap
        assert probe.fisher_ratio == math.inf

    def test_fisher_ratio_field_matches_helper(self):
        rng = Rng(40)
        za = rng.standard_normal((30, 5))
        zb = rng.standard_normal((30, 5)) + 1.5
        probe = lda_fit(za, zb)
        npt.assert_allclose(
            probe.fisher_ratio, fisher_ratio(za, zb, probe.direction_1), rtol=1e-12
        )
        assert probe.fisher_ratio >= 0.0

    def test_label_swap_flips_direction_keeps_ratio(self):
        rng = Rng(41)
        za = rng.standard_normal((25, 4))
        zb = rng.standard_normal((25, 4)) + 2.0
        p_ab = lda_fit(za, zb)
        p_ba = lda_fit(zb, za)
        npt.assert_allclose(p_ba.direction_1, -p_ab.direction_1, rtol=1e-10)
        npt.assert_allclose(p_ba.fisher_ratio, p_ab.fisher_ratio, rtol=1e-10)

    def test_global_scaling_invariance(self):
        rng = Rng(42)
        za = rng.standard_normal((25, 4))
        zb = rng.standard_normal((25, 4)) + 2.0
        p1 = lda_fit(za, zb)
        p2 = lda_fit(3.5 * za, 3.5 * zb)
        cos = abs(float(p1.direction_1 @ p2.direction_1))
        npt.assert_allclose(cos, 1.0, rtol=1e-10)
        npt.assert_allclose(p2.fisher_ratio, p1.fisher_ratio, rtol=1e-10)

    def test_directions_orthonormal(self):
        rng = Rng(23)
        za = rng.standard_normal((40, 6)) + 2.0
        zb = rng.standard_normal((40, 6)) - 2.0
        probe = lda_fit(za, zb)
        npt.assert_allclose(np.linalg.norm(probe.direction_1), 1.0, rtol=1e-12)
        npt.assert_allclose(np.linalg.norm(probe.direction_2), 1.0, rtol=1e-12)
        npt.assert_allclose(probe.direction_1 @ probe.direction_2, 0.0, atol=1e-10)

    def test_recovers_separating_axis(self):
        rng = Rng(24)
        axis = np.zeros(8)
        axis[3] = 1.0
        za = rng.standard_normal((200, 8))
        zb = rng.standard_normal((200, 8)) + 10.0 * axis
        probe = lda_fit(za, zb)
        assert abs(probe.direction_1 @ axis) > 0.95
        pa = za @ probe.direction_1
        pb = zb @ probe.direction_1
        assert pa.max() < pb.min()

    def test_direction_2_sign_is_deterministic(self):
        rng = Rng(25)
        za = rng.standard_normal((30, 4))
        zb = rng.standard_normal((30, 4)) + np.array([5.0, 0, 0, 0])
        probe = lda_fit(za, zb)
        pivot = int(np.argmax(np.abs(probe.direction_2)))
        assert probe.direction_2[pivot] > 0

    def test_identical_means_rejected(self):
        z = Rng(26).standard_normal((10, 3))
        with pytest.raises(DegenerateProbeError):
            lda_fit(z, z.copy())

    def test_point_mass_classes_fall_back_to_mean_gap(self):
        za = np.array([[0.0, 0.0], [0.0, 0.0]])
        zb = np.array([[4.0, 0.0], [4.0, 0.0]])
        probe = lda_fit(za, zb)
        npt.assert_allclose(probe.direction_1, [1.0, 0.0], atol=1e-15)
        npt.assert_allclose(probe.direction_2, [0.0, 1.0], atol=1e-15)
        assert probe.fisher_ratio == math.inf

    def test_too_few_samples_rejected(self):
        with pytest.raises(ShapeError):
            lda_fit(np.array([[0.0, 0.0]]), LDA_B)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            lda_fit(np.zeros((3, 2)), np.zeros((3, 4)))


def normal_equations_lda(z_a, z_b):
    """(direction_1, lambda) from the d x d normal equations
    (S_w + lambda I) w = mu_b - mu_a, which `lda_fit` solves without S_w."""
    ca = z_a - z_a.mean(axis=0)
    cb = z_b - z_b.mean(axis=0)
    sw = ca.T @ ca + cb.T @ cb
    d = sw.shape[0]
    lam = LDA_SHRINKAGE * float(np.trace(sw)) / d
    diff = z_b.mean(axis=0) - z_a.mean(axis=0)
    w = np.linalg.solve(sw + lam * np.eye(d), diff) if lam > 0 else diff
    return w / np.linalg.norm(w), lam


def lda_classes(seed, n, d, spread=0.0):
    """Two (n, d) classes, their columns scaled over 10**(+-spread)."""
    rng = Rng(seed)
    scale = np.logspace(-spread, spread, d)
    return (rng.standard_normal((n, d)) * scale,
            (rng.standard_normal((n, d)) + 0.5) * scale)


class TestLdaRowSpace:
    """`lda_fit` solves in the row space; the normal equations agree."""

    @pytest.mark.parametrize(
        "n, d, spread",
        [(6, 40, 0.0), (6, 40, 2.0), (30, 8, 0.0), (30, 8, 2.0), (8, 16, 0.0)],
        ids=["n<d", "n<d-scaled", "n>d", "n>d-scaled", "n=d"],
    )
    def test_matches_normal_equations(self, n, d, spread):
        za, zb = lda_classes(50, n, d, spread)
        probe = lda_fit(za, zb)
        w, lam = normal_equations_lda(za, zb)
        npt.assert_allclose(probe.direction_1, w, rtol=1e-9, atol=1e-9 * np.abs(w).max())
        npt.assert_allclose(probe.shrinkage, lam, rtol=1e-9)
        npt.assert_allclose(probe.fisher_ratio, fisher_ratio(za, zb, w), rtol=1e-9)

    def test_constant_dims_match_normal_equations(self):
        # constant columns, as the padding gives codes, leave S_w singular
        za, zb = lda_classes(51, 6, 40)
        za[:, ::3] = 1.5
        zb[:, ::3] = 1.5
        probe = lda_fit(za, zb)
        w, lam = normal_equations_lda(za, zb)
        npt.assert_allclose(probe.direction_1, w, rtol=1e-9, atol=1e-9 * np.abs(w).max())
        npt.assert_allclose(probe.shrinkage, lam, rtol=1e-9)

    def test_point_mass_matches_normal_equations(self):
        # no within-class spread: lambda is 0 and both give the mean gap
        za = np.tile([0.0, 1.0, -2.0], (3, 1))
        zb = np.tile([2.0, 0.5, -2.0], (4, 1))
        probe = lda_fit(za, zb)
        w, lam = normal_equations_lda(za, zb)
        assert probe.shrinkage == lam == 0.0
        npt.assert_allclose(probe.direction_1, w, rtol=1e-9)

    def test_no_d_by_d_array_at_large_d(self):
        d = 20_000
        za, zb = lda_classes(52, 8, d)
        tracemalloc.start()
        try:
            probe = lda_fit(za, zb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # S_w alone would be d * d * 8 bytes = 3.2 GB
        assert peak < d * d * 8 / 10
        assert probe.direction_1.shape == (d,)
        npt.assert_allclose(probe.direction_1 @ probe.direction_2, 0.0, atol=1e-10)


class TestFisherRatio:
    def test_infinite_when_within_is_zero(self):
        probe = lda_fit(LDA_A, LDA_B)
        assert fisher_ratio(LDA_A, LDA_B, probe.direction_1) == math.inf

    def test_zero_when_gap_is_zero(self):
        assert fisher_ratio(LDA_A, LDA_B, np.array([0.0, 1.0])) == 0.0

    def test_hand_computed_value(self):
        za = np.array([[0.0], [2.0]])
        zb = np.array([[10.0], [12.0]])
        npt.assert_allclose(fisher_ratio(za, zb, np.array([1.0])), 100.0 / 4.0, rtol=1e-12)

    def test_scale_invariant_in_direction(self):
        rng = Rng(27)
        za = rng.standard_normal((20, 3))
        zb = rng.standard_normal((20, 3)) + 1.0
        w = np.array([1.0, 2.0, -1.0])
        npt.assert_allclose(
            fisher_ratio(za, zb, w), fisher_ratio(za, zb, 7.5 * w), rtol=1e-12
        )

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            fisher_ratio(LDA_A, LDA_B, np.zeros(2))


class TestProjectScatter:
    def test_oracle_probe_projects_to_plane(self):
        probe = lda_fit(LDA_A, LDA_B)
        npt.assert_allclose(project_scatter(probe, LDA_A), LDA_A, atol=1e-12)
        npt.assert_allclose(project_scatter(probe, LDA_B), LDA_B, atol=1e-12)

    def test_wrong_dimension_rejected(self):
        probe = lda_fit(LDA_A, LDA_B)
        with pytest.raises(ShapeError):
            project_scatter(probe, np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# artifact export


class TestExports:
    def test_pgm_bytes(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.array([[0.0, 1.0], [2.0, 3.0]]))
        data = path.read_bytes()
        assert data == b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])

    def test_pgm_constant_image(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_pgm(path, np.full((2, 3), 7.0))
        assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes(6)

    def test_pgm_rejects_channel_axis(self, tmp_path):
        path = tmp_path / "chan.pgm"
        for shape in ((1, 2, 2), (3, 2, 2)):
            with pytest.raises(ShapeError):
                write_pgm(path, np.zeros(shape))

    def test_image_strip_layout(self, tmp_path):
        path = tmp_path / "strip.pgm"
        imgs = Rng(28).standard_normal((3, 4, 4))
        write_image_strip(path, imgs)
        data = path.read_bytes()
        assert data.startswith(b"P5\n12 4\n255\n")
        assert len(data) - len(b"P5\n12 4\n255\n") == 48
        with pytest.raises(ShapeError):
            write_image_strip(path, imgs[:, None])

    def test_csv_exact_bytes(self, tmp_path):
        path = tmp_path / "vals.csv"
        write_csv(path, ["a", "b"], [(1, 0.5), ("x", 0.123456789012345)])
        assert path.read_text() == "a,b\n1,0.5\nx,0.123456789\n"

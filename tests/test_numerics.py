import io
import math
import tracemalloc

import numpy as np
import pytest

from vowelflow import numerics
from vowelflow.numerics import (
    Rng,
    ShapeError,
    SingularMatrixError,
    conv2d,
    conv2d_backward,
    lu_decompose,
    mat_inverse,
    read_tensor,
    read_tensor_from,
    write_tensor,
    write_tensor_to,
)


# ---------------------------------------------------------------------------
# oracles


def det_cofactor(a):
    """Cofactor (Laplace) expansion along the first row."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * a[0, j] * det_cofactor(minor)
    return total


def conv2d_oracle(x, kernel, bias):
    """Direct six-loop "same"-padded cross-correlation."""
    o, c, kh, kw = kernel.shape
    _, h, w = x.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((o, h, w))
    for oc in range(o):
        for r in range(h):
            for s in range(w):
                acc = bias[oc]
                for ic in range(c):
                    for u in range(kh):
                        for v in range(kw):
                            rr, ss = r + u - ph, s + v - pw
                            if 0 <= rr < h and 0 <= ss < w:
                                acc += kernel[oc, ic, u, v] * x[ic, rr, ss]
                out[oc, r, s] = acc
    return out


# ---------------------------------------------------------------------------
# LU / inverse


class TestLu:
    def test_diagonal_logdet(self):
        assert lu_decompose(np.diag([2.0, 3.0])) == pytest.approx(math.log(6.0), abs=1e-14)

    def test_identity_logdet(self):
        assert lu_decompose(np.eye(5)) == pytest.approx(0.0, abs=1e-14)

    def test_det_matches_cofactor_expansion(self):
        rng = Rng(12)
        a = rng.standard_normal((3, 3))
        assert math.exp(lu_decompose(a)) == pytest.approx(abs(det_cofactor(a)), rel=1e-10)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            lu_decompose(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            lu_decompose(np.zeros((2, 3)))

    def test_only_exact_singularity_raises(self):
        # a zero pivot is the boundary: a tiny nonzero one still has a logdet
        with pytest.raises(SingularMatrixError, match="exactly singular"):
            lu_decompose(np.diag([1.0, 0.0]))
        assert lu_decompose(np.diag([1.0, 1e-13])) == pytest.approx(-29.93, abs=5e-3)


class TestInverse:
    def test_identity(self):
        np.testing.assert_allclose(mat_inverse(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            mat_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-14
        )

    def test_residual(self):
        rng = Rng(9)
        a = rng.standard_normal((4, 4)) + 2 * np.eye(4)
        resid = np.max(np.abs(a @ mat_inverse(a) - np.eye(4)))
        assert resid <= 1e-8

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            mat_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))


# ---------------------------------------------------------------------------
# conv2d


# (x, kernel) shapes: O > C; O < C, as a coupling net's last conv is when
# its width exceeds its channels, with a 3x5 kernel, with O = 1, and with a
# kernel that overhangs the image on every side
CONV_SHAPES = (
    ((1, 2, 4, 4), (3, 2, 3, 3)),
    ((1, 5, 4, 6), (2, 5, 3, 5)),
    ((1, 3, 5, 4), (1, 3, 3, 3)),
    ((1, 4, 2, 3), (2, 4, 5, 7)),
)


class TestConv2d:
    def test_identity_kernel(self):
        rng = Rng(21)
        x = rng.standard_normal((1, 1, 5, 5))
        k = np.ones((1, 1, 1, 1))
        np.testing.assert_allclose(conv2d(x, k, np.zeros(1)), x, atol=1e-15)

    def test_bias_only(self):
        x = np.zeros((1, 2, 4, 4))
        k = np.zeros((3, 2, 3, 3))
        y = conv2d(x, k, np.array([1.0, -2.0, 0.5]))
        for oc, c in enumerate([1.0, -2.0, 0.5]):
            np.testing.assert_array_equal(y[0, oc], np.full((4, 4), c))

    def test_against_direct_oracle(self):
        rng = Rng(22)
        for x_shape, k_shape in CONV_SHAPES:
            x = rng.standard_normal((1, *x_shape[1:]))
            k = rng.standard_normal(k_shape)
            b = rng.standard_normal(k_shape[:1])
            np.testing.assert_allclose(
                conv2d(x, k, b)[0], conv2d_oracle(x[0], k, b), rtol=0, atol=1e-12
            )

    def test_batched_matches_per_image(self):
        rng = Rng(23)
        for x_shape, k_shape in CONV_SHAPES:
            x = rng.standard_normal((4, *x_shape[1:]))
            k = rng.standard_normal(k_shape)
            b = rng.standard_normal(k_shape[:1])
            y = conv2d(x, k, b)
            for i in range(4):
                np.testing.assert_allclose(y[i], conv2d(x[i : i + 1], k, b)[0], atol=1e-13)

    def test_channel_slice_input(self):
        # a coupling net reads x[:, :half], a view with the full batch stride
        rng = Rng(25)
        full = rng.standard_normal((3, 10, 5, 6))
        for o in (1, 3, 5, 8):
            k = rng.standard_normal((o, 5, 3, 3))
            b = rng.standard_normal(o)
            view = full[:, :5]
            y = conv2d(view, k, b)
            np.testing.assert_allclose(y, conv2d(view.copy(), k, b), rtol=0, atol=1e-13)
            w = rng.standard_normal(y.shape)
            for got, ref in zip(conv2d_backward(w, view, k), conv2d_backward(w, view.copy(), k)):
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_linear_in_input(self):
        rng = Rng(24)
        x1 = rng.standard_normal((1, 2, 6, 6))
        x2 = rng.standard_normal((1, 2, 6, 6))
        k = rng.standard_normal((2, 2, 3, 3))
        zero = np.zeros(2)
        lhs = conv2d(1.7 * x1 + x2, k, zero)
        rhs = 1.7 * conv2d(x1, k, zero) + conv2d(x2, k, zero)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            conv2d(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 2, 2)), np.zeros(1))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            conv2d(np.zeros((1, 3, 4, 4)), np.zeros((1, 2, 3, 3)), np.zeros(1))


class TestConv2dBackward:
    def test_zero_cotangent(self):
        rng = Rng(31)
        x = rng.standard_normal((1, 2, 4, 4))
        k = rng.standard_normal((3, 2, 3, 3))
        gx, gk, gb = conv2d_backward(np.zeros((1, 3, 4, 4)), x, k)
        assert not gx.any() and not gk.any() and not gb.any()

    def test_identity_kernel_passthrough(self):
        rng = Rng(32)
        g = rng.standard_normal((1, 1, 4, 4))
        x = rng.standard_normal((1, 1, 4, 4))
        gx, _, _ = conv2d_backward(g, x, np.ones((1, 1, 1, 1)))
        np.testing.assert_allclose(gx, g, atol=1e-15)

    @staticmethod
    def check_finite_differences(x, k, b, w, probes):
        """conv2d_backward(w, x, k) against central differences of the
        scalar objective sum(w * conv2d(x, k, b)) at about `probes`
        entries of each of x, k and b."""

        def objective():
            return float(np.sum(w * conv2d(x, k, b)))

        gx, gk, gb = conv2d_backward(w, x, k)
        h = 1e-5
        for arr, grad in ((x, gx), (k, gk), (b, gb)):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for idx in range(0, flat.size, max(1, flat.size // probes)):
                orig = flat[idx]
                flat[idx] = orig + h
                up = objective()
                flat[idx] = orig - h
                down = objective()
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(gflat[idx]), 1e-3)
                assert abs(fd - gflat[idx]) / denom < 1e-6
        return gx, gk, gb

    def test_finite_differences(self):
        rng = Rng(33)
        for x_shape, k_shape in CONV_SHAPES:
            x = rng.standard_normal(x_shape)
            k = rng.standard_normal(k_shape)
            b = rng.standard_normal(k_shape[:1])
            # scalar objective: weighted sum of outputs with fixed weights
            w = rng.standard_normal((1, k_shape[0], *x_shape[2:]))
            self.check_finite_differences(x, k, b, w, probes=17)

    def test_batched_non_square_kernel(self):
        rng = Rng(34)
        # O > C, O < C and O = 1, each with a 3x5 kernel
        for c, o in ((2, 4), (6, 2), (4, 1)):
            x = rng.standard_normal((3, c, 5, 6))
            k = rng.standard_normal((o, c, 3, 5))
            b = rng.standard_normal((o,))
            w = rng.standard_normal((3, o, 5, 6))
            gx, gk, gb = self.check_finite_differences(x, k, b, w, probes=23)

            per_image = [conv2d_backward(w[i : i + 1], x[i : i + 1], k) for i in range(3)]
            for i, (gx_i, _, _) in enumerate(per_image):
                np.testing.assert_allclose(gx[i], gx_i[0], rtol=0, atol=1e-13)
            np.testing.assert_allclose(gk, sum(g for _, g, _ in per_image), rtol=0, atol=1e-12)
            np.testing.assert_allclose(gb, sum(g for _, _, g in per_image), rtol=0, atol=1e-12)

            # reference contractions over batch and pixels, kept here as einsums
            xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (2, 2)))
            win = np.lib.stride_tricks.sliding_window_view(xp, (3, 5), axis=(2, 3))
            y_ref = np.einsum("ocuv,bchwuv->bohw", k, win) + b[:, None, None]
            np.testing.assert_allclose(conv2d(x, k, b), y_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                gk, np.einsum("bohw,bchwuv->ocuv", w, win), rtol=0, atol=1e-12
            )

            # float32 operands: every result stays float32, within 1e-5 relative of float64
            x32, k32, b32, w32 = (a.astype(np.float32) for a in (x, k, b, w))
            got = (conv2d(x32, k32, b32), *conv2d_backward(w32, x32, k32))
            for out32, out64 in zip(got, (conv2d(x, k, b), gx, gk, gb)):
                assert out32.dtype == np.float32
                assert np.linalg.norm(out32 - out64) <= 1e-5 * np.linalg.norm(out64)

    def test_narrow_output_builds_no_input_patch_matrix(self):
        # 64 -> 2: the input's patch matrix would be 2*64*9*48*48*8 = 21 MB
        rng = Rng(36)
        x = rng.standard_normal((2, 64, 48, 48))
        k = rng.standard_normal((2, 64, 3, 3))
        b = rng.standard_normal(2)
        w = rng.standard_normal((2, 2, 48, 48))
        patch_bytes = x.size * 9 * 8
        tracemalloc.start()
        try:
            conv2d(x, k, b)
            conv2d_backward(w, x, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < patch_bytes / 2

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            conv2d_backward(
                np.zeros((1, 1, 4, 4)), np.zeros((1, 3, 4, 4)), np.zeros((1, 2, 3, 3))
            )

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            conv2d_backward(
                np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 2, 2))
            )

    def test_rank_two_input_rejected(self):
        with pytest.raises(ShapeError):
            conv2d_backward(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((1, 1, 3, 3)))
        # a single (C, H, W) image is not a batch either
        for op in (lambda x: conv2d(x, np.zeros((1, 1, 3, 3)), np.zeros(1)),
                   lambda x: conv2d_backward(x, x, np.zeros((1, 1, 3, 3)))):
            with pytest.raises(ShapeError):
                op(np.zeros((1, 4, 4)))

    @pytest.mark.parametrize("operand", range(3))
    def test_mixed_dtypes_rejected(self, operand):
        # one float32 operand among float64 ones: no silent promotion
        rng = Rng(35)
        fwd = [rng.standard_normal((1, 2, 4, 4)), rng.standard_normal((3, 2, 3, 3)),
               rng.standard_normal(3)]
        bwd = [rng.standard_normal((1, 3, 4, 4)), fwd[0], fwd[1]]
        for op, args in ((conv2d, fwd), (conv2d_backward, bwd)):
            args = list(args)
            args[operand] = args[operand].astype(np.float32)
            with pytest.raises(ShapeError, match="mix dtypes"):
                op(*args)


def im2col_reference(x, kh, kw):
    """Whole-batch (B, C*kh*kw, H*W) patch matrix of the "same"-padded x."""
    b, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kh * kw, h * w)


def conv_whole_batch(x, kernel, bias):
    """`kernel @ im2col` over the whole batch, for O >= C."""
    o, c, kh, kw = kernel.shape
    b, _, h, w = x.shape
    y = kernel.reshape(o, c * kh * kw) @ im2col_reference(x, kh, kw)
    y += bias[:, None]
    return y.reshape(b, o, h, w)


def kernel_grad_whole_batch(grad_out, x, kh, kw):
    """Per-image GEMMs on one whole-batch patch matrix of the narrower side,
    summed over the batch."""
    b, o, h, w = grad_out.shape
    c = x.shape[1]
    if o >= c:
        prods = grad_out.reshape(b, o, h * w) @ im2col_reference(x, kh, kw).transpose(0, 2, 1)
        return prods.sum(axis=0).reshape(o, c, kh, kw)
    prods = im2col_reference(grad_out, kh, kw) @ x.reshape(b, c, h * w).transpose(0, 2, 1)
    gk = prods.sum(axis=0).reshape(o, kh, kw, c)
    return np.ascontiguousarray(gk[:, ::-1, ::-1].transpose(0, 3, 1, 2))


def kernel_grad_oracle(grad_out, x, kh, kw):
    """d sum(grad_out * conv2d(x, k, b)) / dk, one tap at a time."""
    _, _, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    gk = np.empty((grad_out.shape[1], x.shape[1], kh, kw))
    for u in range(kh):
        for v in range(kw):
            gk[:, :, u, v] = np.einsum("bohw,bchw->oc", grad_out, xp[:, :, u : u + h, v : v + w])
    return gk


class TestConvTiling:
    # B=3 images of 5 rows of 16 pixels; O = C gathers the input for the
    # forward and kernel gradient and grad_out for the input gradient, O < C
    # gathers grad_out for both gradients.  A band is 16 * rows pixels: BLAS
    # gives a band's output column the bits it has in the whole-image GEMM
    # when the band is a whole number of SIMD vectors wide, which 16 pixels
    # are in float64 and float32 alike.
    SHAPES = ((3, 4, 5, 16, 4), (3, 6, 5, 16, 3))

    @pytest.fixture(scope="class")
    def cases(self):
        rng = Rng(37)
        out = []
        for b, c, h, w, o in self.SHAPES:
            x = rng.standard_normal((b, c, h, w))
            k = rng.standard_normal((o, c, 3, 3))
            bias = rng.standard_normal(o)
            g = rng.standard_normal((b, o, h, w))
            kflip = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            oracle = (
                np.stack([conv2d_oracle(x[i], k, bias) for i in range(b)]),
                np.stack([conv2d_oracle(g[i], kflip, np.zeros(c)) for i in range(b)]),
                kernel_grad_oracle(g, x, 3, 3),
            )
            out.append(((x, k, bias, g), oracle))
        return out

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("tiling", ["images", "image", "bands"])
    def test_tiles_match_whole_batch(self, cases, monkeypatch, tiling, dtype):
        for (x, k, bias, g), oracle in cases:
            x, k, bias, g = (a.astype(dtype) for a in (x, k, bias, g))
            b, c, h, w = x.shape
            o = k.shape[0]
            # every tiled gather is of the min(O, C)-channel side
            row = min(o, c) * 9 * w * x.itemsize
            patch = {"images": 2 * h * row + row, "image": h * row, "bands": 2 * row}[tiling]
            monkeypatch.setattr(numerics, "PATCH_BYTES", patch)

            y = conv2d(x, k, bias)
            gx, gk, gb = conv2d_backward(g, x, k)
            kflip = np.ascontiguousarray(k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
            if o >= c:
                np.testing.assert_array_equal(y, conv_whole_batch(x, k, bias))
            if c >= o:
                np.testing.assert_array_equal(gx, conv_whole_batch(g, kflip, np.zeros(c, dtype)))
            np.testing.assert_array_equal(gb, g.sum(axis=(0, 2, 3)))
            gk_ref = kernel_grad_whole_batch(g, x, 3, 3)
            if tiling != "bands":
                np.testing.assert_array_equal(gk, gk_ref)
            elif dtype == np.float64:
                np.testing.assert_allclose(gk, gk_ref, rtol=1e-12, atol=0)
            else:  # a band's partial sums, rounded to float32
                assert np.linalg.norm(gk - gk_ref) <= 1e-6 * np.linalg.norm(gk_ref)

            tol = 1e-12 if dtype == np.float64 else 1e-5
            for got, want in zip((y, gx, gk), oracle):
                assert got.dtype == dtype
                np.testing.assert_allclose(got, want, rtol=0, atol=tol * np.abs(want).max())

    def test_empty_batch(self):
        x = np.zeros((0, 4, 5, 5))
        k = np.ones((4, 4, 3, 3))
        assert conv2d(x, k, np.zeros(4)).shape == x.shape
        gx, gk, gb = conv2d_backward(np.zeros((0, 4, 5, 5)), x, k)
        assert gx.shape == x.shape and not gk.any() and not gb.any()

    def test_backward_memory_is_bounded_by_the_tile(self, monkeypatch):
        # the whole-batch patch matrix, 4 * 288 * 1024 * 8 bytes, would be
        # 9.0 MiB, over 8 tiles; tiled, a call holds one tile of it
        monkeypatch.setattr(numerics, "PATCH_BYTES", 2**20)
        rng = Rng(38)
        x = rng.standard_normal((4, 32, 32, 32))
        k = rng.standard_normal((32, 32, 3, 3))
        g = rng.standard_normal((4, 32, 32, 32))
        assert x.size * 9 * 8 >= 8 * numerics.PATCH_BYTES
        tracemalloc.start()
        try:
            gx, gk, gb = conv2d_backward(g, x, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        operands = x.nbytes + g.nbytes + k.nbytes + gx.nbytes + gk.nbytes + gb.nbytes
        assert peak < operands + 2 * numerics.PATCH_BYTES


# ---------------------------------------------------------------------------
# rng


class TestRng:
    def test_determinism(self):
        a = Rng(77).standard_normal((4, 4))
        b = Rng(77).standard_normal((4, 4))
        np.testing.assert_array_equal(a, b)

    def test_seed_independence(self):
        a = Rng(1).standard_normal((16,))
        b = Rng(2).standard_normal((16,))
        assert not np.array_equal(a, b)

    def test_moments(self):
        x = Rng(5).standard_normal((100_000,))
        assert abs(x.mean()) < 0.02
        assert abs(x.var() - 1.0) < 0.02

    def test_spawn_streams_differ_and_are_stable(self):
        root = Rng(9)
        a1 = root.spawn(0).standard_normal((8,))
        a2 = root.spawn(0).standard_normal((8,))
        b = root.spawn(1).standard_normal((8,))
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_spawn_unaffected_by_consumption(self):
        r1 = Rng(11)
        r1.standard_normal((100,))
        r2 = Rng(11)
        np.testing.assert_array_equal(
            r1.spawn(3).standard_normal((5,)), r2.spawn(3).standard_normal((5,))
        )

    def test_spawn_is_philox_on_the_spawn_key(self):
        def philox(seed, key, shape):
            seq = np.random.SeedSequence(seed, spawn_key=key)
            return np.random.Generator(np.random.Philox(seq)).standard_normal(shape)

        np.testing.assert_array_equal(Rng(5).spawn(1).standard_normal((6,)), philox(5, (1,), (6,)))
        np.testing.assert_array_equal(
            Rng(5).spawn(3).spawn(1).standard_normal((6,)), philox(5, (3, 1), (6,))
        )
        # a numpy Generator itself, whose spawn returns one keyed Rng
        child = Rng(5).spawn(3)
        assert isinstance(child, np.random.Generator) and type(child) is Rng
        assert child.seed == 5

    def test_nested_spawn_differs_from_root_spawn(self):
        nested = Rng(5).spawn(3).spawn(1).standard_normal((8,))
        assert not np.array_equal(nested, Rng(5).spawn(1).standard_normal((8,)))
        assert not np.array_equal(nested, Rng(5).spawn(3).standard_normal((8,)))

    def test_state_round_trip(self):
        rng = Rng(13)
        rng.standard_normal((7,))
        snap = rng.state
        ahead = rng.standard_normal((9,))
        rng2 = Rng(0)
        rng2.state = snap
        np.testing.assert_array_equal(rng2.standard_normal((9,)), ahead)


# ---------------------------------------------------------------------------
# FSTN format


class TestTensorFormat:
    def test_round_trip(self, tmp_path):
        rng = Rng(40)
        arr = rng.standard_normal((3, 5, 2))
        path = tmp_path / "t.fstn"
        write_tensor(path, arr)
        back = read_tensor(path)
        np.testing.assert_array_equal(back, arr)
        assert back.dtype == np.float64

    def test_stream_concatenation_and_offsets(self):
        rng = Rng(41)
        tensors = [rng.standard_normal((2, 2)), rng.standard_normal((4,)), rng.standard_normal((1, 3, 3))]
        buf = io.BytesIO()
        offsets = []
        for t in tensors:
            offsets.append(buf.tell())
            write_tensor_to(buf, t)
        for off, t in zip(offsets, tensors):
            buf.seek(off)
            np.testing.assert_array_equal(read_tensor_from(buf), t)

    def test_header_layout(self):
        buf = io.BytesIO()
        write_tensor_to(buf, np.zeros((2, 3)))
        raw = buf.getvalue()
        assert raw[:4] == b"FSTN"
        assert int.from_bytes(raw[4:8], "little") == 1  # version
        assert int.from_bytes(raw[8:12], "little") == 2  # rank
        assert int.from_bytes(raw[12:16], "little") == 2
        assert int.from_bytes(raw[16:20], "little") == 3
        assert len(raw) == 20 + 6 * 8

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            read_tensor_from(io.BytesIO(b"XXXX" + b"\0" * 16))

    def test_every_truncation_rejected(self):
        buf = io.BytesIO()
        write_tensor_to(buf, np.arange(6.0).reshape(2, 3))
        raw = buf.getvalue()
        for n in range(len(raw)):
            with pytest.raises(ValueError):
                read_tensor_from(io.BytesIO(raw[:n]))

    def test_truncated_payload_message(self, tmp_path):
        # a short payload names both sizes, from a file as from a buffer
        buf = io.BytesIO()
        write_tensor_to(buf, np.arange(6.0).reshape(2, 3))
        raw = buf.getvalue()[:25]
        path = tmp_path / "short.fstn"
        path.write_bytes(raw)
        message = "truncated FSTN payload: expected 48 bytes, got 5"
        with pytest.raises(ValueError, match=message):
            read_tensor_from(io.BytesIO(raw))
        with pytest.raises(ValueError, match=message):
            read_tensor(path)

    def test_all_values_finite_after_ops(self):
        rng = Rng(50)
        a = rng.standard_normal((6, 6)) + 2 * np.eye(6)
        for out in (mat_inverse(a), conv2d(rng.standard_normal((1, 1, 4, 4)),
                    rng.standard_normal((2, 1, 3, 3)), rng.standard_normal((2,)))):
            assert np.all(np.isfinite(out))

"""Dense linear algebra, convolution, and RNG primitives.

Conventions used throughout the package:

* tensors are ``numpy.ndarray`` of float64, row-major (C order); the
  convolutions alone also run in float32, for the flow's coupling-net
  gradients, and take all operands in one dtype;
* convolution means cross-correlation (no kernel flip) with "same"
  zero padding and odd kernel extents; a conv copies only its narrower
  side kh*kw times (the input's patch matrix when O >= C, the output's
  per-tap products when O < C; see `conv2d`), so a conv with few outputs,
  such as a coupling net's last one, never copies its wide input; a patch
  matrix is built a tile of at most PATCH_BYTES at a time, so beyond its
  operands and results a conv holds one padded copy of its input, one
  tile and, for the kernel gradient, one kernel per image;
* every public operation returns finite values unless its contract
  says otherwise.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

import numpy as np

FSTN_MAGIC = b"FSTN"
FSTN_VERSION = 1
# Largest patch-matrix tile a conv builds (`_patch_tiles`), in bytes.
PATCH_BYTES = 2 * 2**20


class ShapeError(ValueError):
    """Operand shapes violate an operation's precondition."""


class SingularMatrixError(ValueError):
    """Matrix is exactly singular: its LU factorization has a zero pivot."""


# ---------------------------------------------------------------------------
# random numbers


class Rng(np.random.Generator):
    """Counter-based numpy Generator (Philox) with an explicit 64-bit seed.

    A fixed seed yields an identical sample stream on every platform.
    Instances are single-owner: never share one across threads; use
    :meth:`spawn` to derive independent child streams instead.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._spawn_key: tuple[int, ...] = ()
        super().__init__(np.random.Philox(np.random.SeedSequence(self.seed)))

    def spawn(self, index: int) -> "Rng":
        """Child stream `index`, independent of draws made from self.

        The child's spawn key is self's plus `(index,)`, so a grandchild never
        repeats a child of the root.  Shadows numpy's `Generator.spawn(n)`.
        """
        child = Rng.__new__(Rng)
        child.seed = self.seed
        child._spawn_key = self._spawn_key + (int(index),)
        seq = np.random.SeedSequence(self.seed, spawn_key=child._spawn_key)
        np.random.Generator.__init__(child, np.random.Philox(seq))
        return child

    @property
    def state(self) -> dict:
        """JSON-serializable snapshot of the generator state."""
        st = self.bit_generator.state
        return {
            "seed": self.seed,
            "counter": [int(v) for v in st["state"]["counter"]],
            "key": [int(v) for v in st["state"]["key"]],
            "buffer": [int(v) for v in st["buffer"]],
            "buffer_pos": int(st["buffer_pos"]),
            "has_uint32": int(st["has_uint32"]),
            "uinteger": int(st["uinteger"]),
        }

    @state.setter
    def state(self, snap: dict) -> None:
        self.seed = int(snap["seed"])
        self.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.array(snap["counter"], dtype=np.uint64),
                "key": np.array(snap["key"], dtype=np.uint64),
            },
            "buffer": np.array(snap["buffer"], dtype=np.uint64),
            "buffer_pos": int(snap["buffer_pos"]),
            "has_uint32": int(snap["has_uint32"]),
            "uinteger": int(snap["uinteger"]),
        }


# ---------------------------------------------------------------------------
# linear algebra


def lu_decompose(a: np.ndarray) -> float:
    """ln |det a| = sum of ln |U_ii| from partial-pivoting LU (LAPACK getrf,
    through `np.linalg.slogdet`).

    Raises SingularMatrixError when a is exactly singular (a zero pivot,
    slogdet's sign 0).  A nonzero pivot passes however small it is:
    diag(1, 1e-13) gives -29.93.  NaN and Inf pass through, so a diverged
    weight shows up as a non-finite layer output, not as an error here.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"lu_decompose expects a square matrix, got {a.shape}")
    with np.errstate(invalid="ignore"):  # slogdet warns on NaN input
        sign, logdet = np.linalg.slogdet(a)
    if sign == 0:
        raise SingularMatrixError(f"{a.shape[0]}x{a.shape[1]} matrix is exactly singular")
    return float(logdet)


def mat_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular square matrix (LAPACK getrf + getri)."""
    lu_decompose(a)  # ShapeError or SingularMatrixError before inverting
    return np.linalg.inv(a)


# ---------------------------------------------------------------------------
# convolution


def _check_operands(x: np.ndarray, kernel: np.ndarray, other: np.ndarray) -> None:
    """Kernel OxCxKHxKW with odd extents; batched input (B, C, H, W); the
    input, the kernel and `other` (bias or grad_out) in one dtype, so a
    missed cast cannot promote a float32 conv to float64."""
    dtypes = {x.dtype, kernel.dtype, other.dtype}
    if len(dtypes) != 1:
        raise ShapeError(f"conv operands mix dtypes {sorted(map(str, dtypes))}")
    if kernel.ndim != 4:
        raise ShapeError(f"kernel must be OxCxKHxKW, got {kernel.shape}")
    _, _, kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"kernel extents must be odd, got {kh}x{kw}")
    if x.ndim != 4 or x.shape[1] != kernel.shape[1]:
        raise ShapeError(f"input {x.shape} does not match kernel {kernel.shape}")


def _patch_tiles(x: np.ndarray, kh: int, kw: int):
    """The "same"-padded input's (C*kh*kw)-row patch matrix, a tile at a time.

    Yields (i, j, p0, p1, cols): cols is the (j - i, C*kh*kw, p1 - p0)
    patch matrix of flat output pixels p0:p1 of images i:j.  A tile is
    whole images while one image's matrix fits PATCH_BYTES, else a band of
    output rows of one image (at least one row).  Every tile is written
    into one buffer, so `cols` is valid only until the next tile.
    """
    b, c, h, w = x.shape
    # one zero-filled buffer and one slice copy, not np.pad, whose Python
    # overhead is a visible share of a desk-size conv
    xp = np.zeros((b, c, h + kh - 1, w + kw - 1), dtype=x.dtype)
    xp[:, :, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + w] = x
    # a view; each tile is one strided copy out of it, which ran 1.3-1.8x
    # faster than kh*kw slice copies at the desk sizes
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    rows = max(1, PATCH_BYTES // (c * kh * kw * w * x.itemsize))
    if rows >= h:
        n = max(1, min(b, rows // h))  # an empty batch has no tiles
        tiles = [(i, min(i + n, b), 0, h) for i in range(0, b, n)]
    else:
        n = 1
        tiles = [(i, i + 1, r, min(r + rows, h)) for i in range(b) for r in range(0, h, rows)]
    buf = np.empty(n * c * kh * kw * min(rows, h) * w, dtype=x.dtype)
    for i, j, r0, r1 in tiles:
        size = (j - i) * c * kh * kw * (r1 - r0) * w
        tile = buf[:size].reshape(j - i, c, kh, kw, r1 - r0, w)
        tile[...] = win[i:j, :, r0:r1].transpose(0, 1, 4, 5, 2, 3)
        yield i, j, r0 * w, r1 * w, tile.reshape(j - i, c * kh * kw, (r1 - r0) * w)


def _patch_products(src: np.ndarray, other: np.ndarray, kh: int, kw: int, patch_left: bool):
    """Sum over the batch of each image's patch matrix of `src` times its
    `other` (B, N, H*W), transposed: patch @ other.T when `patch_left`,
    else other @ patch.T.

    The per-image products go into one (B, ., .) buffer, summed over the
    batch once.  A row band's product is added to its image's earlier
    bands, so under bands the sum over pixels is split, moving last bits.
    """
    bsz, cs, _, _ = src.shape
    k, n = cs * kh * kw, other.shape[1]
    prods = np.empty((bsz, k, n) if patch_left else (bsz, n, k), dtype=src.dtype)
    for i, j, p0, p1, cols in _patch_tiles(src, kh, kw):
        part = other[i:j, :, p0:p1]
        a, b = (cols, part.transpose(0, 2, 1)) if patch_left else (part, cols.transpose(0, 2, 1))
        if p0 == 0:
            np.matmul(a, b, out=prods[i:j])
        else:
            prods[i:j] += a @ b
    return prods.sum(axis=0)


def conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Cross-correlation with "same" zero padding plus per-channel bias.

    (B, C, H, W) input -> (B, O, H, W) output, in the operands' dtype.

    The kernel's shape picks which side is gathered: the narrower one.
    With O >= C the kernel multiplies the input's (C*kh*kw)-row patch
    matrix, built and multiplied a tile of at most PATCH_BYTES at a time
    (`_patch_tiles`); each tile's GEMM writes its part of the output, and
    every output pixel is one dot product over C*kh*kw, whatever the
    tiling.  With O < C each tap's O x C kernel slice multiplies the
    unpadded input, one (kh*kw*O)-row product per image, and each tap's
    product is added into the output shifted by the tap's offset: the
    adjoint of the patch gather, done on the O-channel side.  Every output
    is the same sum of kernel-times-input products either way, only added
    in another order, so the two sides agree to rounding (about 1e-15
    relative in float64).
    """
    _check_operands(x, kernel, bias)
    if bias.shape != (kernel.shape[0],):
        raise ShapeError(f"bias shape {bias.shape} does not match {kernel.shape[0]} outputs")
    o, c, kh, kw = kernel.shape
    bsz, _, h, w = x.shape
    ph, pw, hw = kh // 2, kw // 2, h * w
    if o >= c:
        kmat = kernel.reshape(o, c * kh * kw)
        y = np.empty((bsz, o, hw), dtype=x.dtype)
        for i, j, p0, p1, cols in _patch_tiles(x, kh, kw):
            np.matmul(kmat, cols, out=y[i:j, :, p0:p1])
        y += bias[:, None]
        return y.reshape(bsz, o, h, w)
    taps = kernel.transpose(2, 3, 0, 1).reshape(kh * kw * o, c) @ x.reshape(bsz, c, hw)
    taps = taps.reshape(bsz, kh, kw, o, hw)
    # Output pixel (i, j) adds tap (dy, dx)'s product at (i + dy - ph,
    # j + dx - pw), `shift` places on along the flat pixel axis.  A column
    # offset that leaves the row would wrap into the next or previous row
    # there, so the columns only such reads reach are zeroed first, as the
    # padding is.
    grid = taps.reshape(bsz, kh, kw, o, h, w)
    for dx in range(kw):
        grid[:, :, dx, :, :, : max(dx - pw, 0)] = 0
        grid[:, :, dx, :, :, max(w + min(dx - pw, 0), 0) :] = 0
    y = taps[:, ph, pw] + bias[:, None]
    for dy in range(kh):
        for dx in range(kw):
            shift = (dy - ph) * w + dx - pw
            n = hw - abs(shift)
            if (dy, dx) != (ph, pw) and n > 0:
                at, src = max(-shift, 0), max(shift, 0)
                y[:, :, at : at + n] += taps[:, dy, dx, :, src : src + n]
    return y.reshape(bsz, o, h, w)


def conv2d_backward(
    grad_out: np.ndarray,
    x: np.ndarray,
    kernel: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of conv2d w.r.t. input, kernel and bias.

    `grad_out` is the cotangent of the output; shapes must match the
    corresponding forward call.  The kernel gradient gathers the narrower
    side by conv2d's rule: the input's patch matrix when O >= C, else
    grad_out's at mirrored taps, which pairs the same pixels, in tiles as
    `conv2d` does (`_patch_products`).  The input gradient is a conv from
    O to C channels, so it follows the rule by itself: every gather of the
    three is on the min(O, C)-channel side.
    """
    _check_operands(x, kernel, grad_out)
    o, c, kh, kw = kernel.shape
    if grad_out.shape != (x.shape[0], o, x.shape[2], x.shape[3]):
        raise ShapeError(
            f"grad_out {grad_out.shape} inconsistent with input {x.shape} "
            f"and kernel {kernel.shape}"
        )
    bsz, _, h, w = x.shape

    grad_bias = grad_out.sum(axis=(0, 2, 3))

    # per-image GEMMs then a sum over the batch: einsum does not hand this
    # contraction to BLAS
    if o >= c:
        gmat = grad_out.reshape(bsz, o, h * w)
        grad_kernel = _patch_products(x, gmat, kh, kw, patch_left=False).reshape(o, c, kh, kw)
    else:
        # kernel tap (dy, dx) pairs input pixel p with grad_out at
        # p - (dy, dx) + pad, which is grad_out's patch row at the mirrored
        # tap (kh-1-dy, kw-1-dx)
        xmat = x.reshape(bsz, c, h * w)
        gk = _patch_products(grad_out, xmat, kh, kw, patch_left=True).reshape(o, kh, kw, c)
        grad_kernel = np.ascontiguousarray(gk[:, ::-1, ::-1].transpose(0, 3, 1, 2))

    # For stride-1 "same" correlation with odd kernels the input gradient
    # is itself a "same" correlation with the channel-swapped, spatially
    # flipped kernel.
    kflip = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    grad_x = conv2d(grad_out, np.ascontiguousarray(kflip), np.zeros(c, dtype=grad_out.dtype))
    return grad_x, grad_kernel, grad_bias


# ---------------------------------------------------------------------------
# tensor file format (FSTN)


def write_tensor_to(fp: BinaryIO, arr: np.ndarray) -> int:
    """Append one FSTN record to a binary stream; returns bytes written."""
    arr = np.asarray(arr, dtype=np.float64)
    header = FSTN_MAGIC + struct.pack("<II", FSTN_VERSION, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = arr.astype("<f8").tobytes(order="C")
    fp.write(header)
    fp.write(payload)
    return len(header) + len(payload)


def record_bytes(arr: np.ndarray) -> int:
    """Size of the FSTN record `write_tensor_to` writes for `arr`."""
    return len(FSTN_MAGIC) + 8 + 4 * arr.ndim + 8 * arr.size


def read_exact(fp: BinaryIO, n: int, what: str) -> bytes:
    """Exactly `n` bytes from the stream; ValueError on a short read."""
    raw = fp.read(n)
    if len(raw) != n:
        raise ValueError(f"truncated {what}: expected {n} bytes, got {len(raw)}")
    return raw


def read_tensor_from(fp: BinaryIO) -> np.ndarray:
    """Read one FSTN record from the current stream position."""
    magic = fp.read(4)
    if magic != FSTN_MAGIC:
        raise ValueError(f"bad FSTN magic {magic!r}")
    version, rank = struct.unpack("<II", read_exact(fp, 8, "FSTN header"))
    if version != FSTN_VERSION:
        raise ValueError(f"unsupported FSTN version {version}")
    if rank > 32:
        raise ValueError(f"implausible FSTN rank {rank}")
    shape = struct.unpack(f"<{rank}I", read_exact(fp, 4 * rank, "FSTN shape"))
    out = np.empty(shape, dtype="<f8")
    got = fp.readinto(out)  # straight into the result: no bytes object
    if got != out.nbytes:
        raise ValueError(f"truncated FSTN payload: expected {out.nbytes} bytes, got {got}")
    return out.astype(np.float64, copy=False)


def write_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as fp:
        write_tensor_to(fp, arr)


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fp:
        return read_tensor_from(fp)

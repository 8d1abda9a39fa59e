"""Dense linear algebra, convolution, and RNG primitives.

Conventions used throughout the package:

* tensors are ``numpy.ndarray`` of float64, row-major (C order); the
  convolutions alone also run in float32, for the flow's coupling-net
  gradients, and take all operands in one dtype;
* convolution means cross-correlation (no kernel flip) with "same"
  zero padding and odd kernel extents; a conv holds kh*kw copies of its
  narrower side only (the input's patch matrix when O >= C, the output's
  per-tap products when O < C; see `conv2d`), so a conv with few outputs,
  such as a coupling net's last one, never copies its wide input;
* every public operation returns finite values unless its contract
  says otherwise.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

import numpy as np

FSTN_MAGIC = b"FSTN"
FSTN_VERSION = 1


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


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(B, C, H, W) -> (B, C*kh*kw, H*W) patch matrix of the "same"-padded input."""
    b, c, h, w = x.shape
    # one zero-filled buffer and one slice copy, not np.pad, whose Python
    # overhead is a visible share of a desk-size conv
    xp = np.zeros((b, c, h + kh - 1, w + kw - 1), dtype=x.dtype)
    xp[:, :, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + w] = x
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kh * kw, h * w)


def conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Cross-correlation with "same" zero padding plus per-channel bias.

    (B, C, H, W) input -> (B, O, H, W) output, in the operands' dtype.

    The kernel's shape picks which side is gathered: the narrower one.
    With O >= C the kernel multiplies the input's (C*kh*kw)-row patch
    matrix.  With O < C each tap's O x C kernel slice multiplies the
    unpadded input, one (kh*kw*O)-row product per image, and each tap's
    product is added into the output shifted by the tap's offset: the
    adjoint of `_im2col`, done on the O-channel side.  Every output is the
    same sum of kernel-times-input products either way, only added in
    another order, so the two sides agree to rounding (about 1e-15
    relative in float64).
    """
    _check_operands(x, kernel, bias)
    if bias.shape != (kernel.shape[0],):
        raise ShapeError(f"bias shape {bias.shape} does not match {kernel.shape[0]} outputs")
    o, c, kh, kw = kernel.shape
    bsz, _, h, w = x.shape
    if o >= c:
        cols = _im2col(x, kh, kw)
        y = (kernel.reshape(o, c * kh * kw) @ cols).reshape(bsz, o, h, w)
        y += bias[:, None, None]
        return y
    ph, pw, hw = kh // 2, kw // 2, h * w
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
    grad_out's at mirrored taps, which pairs the same pixels.  The input
    gradient is a conv from O to C channels, so it follows the rule by
    itself: every gather of the three is on the min(O, C)-channel side.
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

    # batched GEMMs then a sum over the batch: einsum does not hand this
    # contraction to BLAS
    if o >= c:
        cols = _im2col(x, kh, kw)  # (B, C*kh*kw, H*W)
        gmat = grad_out.reshape(bsz, o, h * w)
        grad_kernel = (gmat @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(o, c, kh, kw)
    else:
        # kernel tap (dy, dx) pairs input pixel p with grad_out at
        # p - (dy, dx) + pad, which is grad_out's patch row at the mirrored
        # tap (kh-1-dy, kw-1-dx)
        cols = _im2col(grad_out, kh, kw)  # (B, O*kh*kw, H*W)
        xmat = x.reshape(bsz, c, h * w)
        gk = (cols @ xmat.transpose(0, 2, 1)).sum(axis=0).reshape(o, kh, kw, c)
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
    count = int(np.prod(shape)) if rank else 1
    raw = read_exact(fp, 8 * count, "FSTN payload")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def write_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as fp:
        write_tensor_to(fp, arr)


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fp:
        return read_tensor_from(fp)

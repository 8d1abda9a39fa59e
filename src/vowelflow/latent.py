"""Latent-space analyses for a trained flow.

Everything here treats the flow as a fixed bijection: codes are
encoded, manipulated with plain vector arithmetic, and decoded back to
spectrogram pixels.  Interpolation and mean-displacement denoising
are both sweeps: each decodes one line of codes and returns a `Sweep`.
Also Gaussianity diagnostics of encoded corpora and a two-direction LDA
probe of class structure.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .flow import FlowConfig, FlowModel, prior_logprob
from .numerics import Rng, ShapeError

DEFAULT_INTERP_ALPHAS = tuple(np.linspace(0.1, 0.9, 9))
DEFAULT_DENOISE_BETAS = tuple(np.linspace(0.0, 0.8, 9))
LDA_SHRINKAGE = 1e-3
# Activation budget of one encode/decode chunk (`chunk_rows`).  It balances
# per-call overhead against memory traffic.  Desk encodes on a 2-core box,
# medians of 6 runs per size in rotating order, ran at 939 images/s with
# 4 MiB chunks, 828 at 8 MiB and 992 at 16 MiB, where peak RSS rose from 136
# to 151 MiB; each size spread over more than the gaps between them
# (772-1108 at 8 MiB).  Those runs predate tiled convs, when a chunk's
# widest conv built a whole-chunk patch matrix of this size; a conv's own
# patch tiles are bounded by `numerics.PATCH_BYTES`.
CHUNK_BYTES = 8 * 2**20


class DegenerateProbeError(ValueError):
    """LDA cannot be fit: the two classes have identical means."""


# ---------------------------------------------------------------------------
# encode / decode / sample


def chunk_rows(config: FlowConfig) -> int:
    """Images per `encode_batch`/`decode_batch` chunk.

    CHUNK_BYTES over nine float64 width-channel activations of one image
    at the first level, (H/2)(W/2) pixels: 14 images at the desk config, 1
    at 288x288.  A conv's patch matrix, which this once measured, is now
    built in tiles of at most `numerics.PATCH_BYTES` whatever the chunk.
    """
    _, h, w = config.input_shape
    per_image = config.coupling_width * 9 * (h // 2) * (w // 2) * 8
    return max(1, CHUNK_BYTES // per_image)


def encode_batch(model: FlowModel, pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, C, H, W) pixels -> codes (N, d) and log likelihoods (N,).

    The flow runs over `chunk_rows` images at a time; every op is per
    example, so the result is exactly that of one call on all N.
    """
    pixels = model.check_input(pixels)
    n, k = pixels.shape[0], chunk_rows(model.config)
    z = np.empty((n, model.code_size))
    lnp = np.empty(n)
    for i in range(0, n, k):
        z[i : i + k], logdet, _ = model.forward(pixels[i : i + k])
        lnp[i : i + k] = prior_logprob(z[i : i + k]) + logdet
    return z, lnp


def decode_batch(model: FlowModel, z: np.ndarray) -> np.ndarray:
    """Codes (N, d) -> pixels; the exact inverse of encoding, chunked
    like `encode_batch`."""
    z = model.check_code(z)
    n, k = z.shape[0], chunk_rows(model.config)
    out = np.empty((n, *model.config.input_shape))
    for i in range(0, n, k):
        out[i : i + k] = model.inverse(z[i : i + k])
    return out


def sample(
    model: FlowModel, rng: Rng, n: int, temperature: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Draw codes z = temperature * eps, eps ~ N(0, I); decode to pixels."""
    if n < 1:
        raise ValueError("need at least one sample")
    if not (math.isfinite(temperature) and temperature >= 0):
        raise ValueError(f"temperature must be finite and non-negative, got {temperature}")
    z = temperature * rng.standard_normal((n, model.code_size))
    return z, decode_batch(model, z)


# ---------------------------------------------------------------------------
# sweeps: interpolation and displacement denoising


@dataclass
class Sweep:
    """Codes decoded along a one-parameter sweep, one row per t."""

    ts: np.ndarray
    codes: np.ndarray
    images: np.ndarray


def _code(model: FlowModel, z, name: str) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    if z.shape != (model.code_size,):
        raise ShapeError(f"{name} must have length {model.code_size}, got {z.shape}")
    return z


def interpolate(model: FlowModel, code_a, code_b, alphas=None) -> Sweep:
    """Decode z = (1 - alpha) z_a + alpha z_b over the weight sweep.

    The default sweep runs alpha from 0.1 to 0.9 in steps of 0.1,
    excluding both endpoints.  Alpha 0 and 1 give z_a and z_b exactly,
    which the walk z_a + alpha (z_b - z_a) would not.
    """
    za = _code(model, code_a, "code_a")
    zb = _code(model, code_b, "code_b")
    t = np.asarray(DEFAULT_INTERP_ALPHAS if alphas is None else alphas, dtype=np.float64)
    codes = (1.0 - t[:, None]) * za + t[:, None] * zb
    return Sweep(ts=t, codes=codes, images=decode_batch(model, codes))


def displacement(z_from: np.ndarray, z_to: np.ndarray) -> np.ndarray:
    """mean(z_to) - mean(z_from): the offset between two code populations.

    Clean to noisy codes give the noise displacement xi that `denoise`
    subtracts; two classes give the direction from one to the other.
    The sets must share the code dimension but may differ in size; both
    must be non-empty.
    """
    z_from = np.asarray(z_from, dtype=np.float64)
    z_to = np.asarray(z_to, dtype=np.float64)
    if (
        z_from.ndim != 2
        or z_to.ndim != 2
        or z_from.shape[1] != z_to.shape[1]
        or z_from.shape[0] < 1
        or z_to.shape[0] < 1
    ):
        raise ShapeError(
            f"need non-empty (N, d) arrays of equal d, "
            f"got {z_from.shape} and {z_to.shape}"
        )
    return z_to.mean(axis=0) - z_from.mean(axis=0)


def denoise(model: FlowModel, code_noisy, xi, betas=None) -> Sweep:
    """Decode z = z_noisy - beta * xi for each beta in the sweep, where xi
    is the clean-to-noisy `displacement`.

    The default sweep runs beta from 0.0 to 0.8 in steps of 0.1; beta 0
    reproduces the noisy input exactly.
    """
    zn = _code(model, code_noisy, "code")
    xi = _code(model, xi, "displacement")
    t = np.asarray(DEFAULT_DENOISE_BETAS if betas is None else betas, dtype=np.float64)
    codes = zn - t[:, None] * xi
    return Sweep(ts=t, codes=codes, images=decode_batch(model, codes))


# ---------------------------------------------------------------------------
# gaussianity diagnostics


@dataclass
class GaussianityReport:
    """Per-dimension shape statistics of a code population."""

    skewness: np.ndarray
    excess_kurtosis: np.ndarray
    degenerate: np.ndarray

    @property
    def mean_abs_skewness(self) -> float:
        ok = ~self.degenerate
        return float(np.mean(np.abs(self.skewness[ok]))) if ok.any() else math.nan

    @property
    def mean_abs_excess_kurtosis(self) -> float:
        ok = ~self.degenerate
        return float(np.mean(np.abs(self.excess_kurtosis[ok]))) if ok.any() else math.nan


def gaussianity_report(z: np.ndarray) -> GaussianityReport:
    """Skewness and excess kurtosis per code dimension (column of z).

    Both are biased sample moments (population convention): skewness
    m3 / m2^1.5 and excess kurtosis m4 / m2^2 - 3, which is 0 for a
    normal population.

    A constant column (max equal to min, whatever its m2 rounds to) is
    flagged degenerate, carries NaN statistics and stays out of the
    aggregate means.  The result does not depend on z's memory layout.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ShapeError(f"need an (N >= 2, d) code array, got {z.shape}")
    # one contiguous row per column: each sum runs in one order (numpy's
    # pairwise summation) whatever z's memory layout
    zt = np.ascontiguousarray(z.T)
    c = zt - zt.mean(axis=1, keepdims=True)
    m2 = np.mean(c**2, axis=1)
    degenerate = zt.max(axis=1) == zt.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        skew = np.mean(c**3, axis=1) / m2**1.5
        kurt = np.mean(c**4, axis=1) / m2**2 - 3.0
    skew[degenerate] = math.nan
    kurt[degenerate] = math.nan
    return GaussianityReport(skewness=skew, excess_kurtosis=kurt, degenerate=degenerate)


@dataclass
class ScatterPair:
    dim_i: int
    dim_j: int
    points: np.ndarray


def scatter_pair(z: np.ndarray, rng: Rng) -> ScatterPair:
    """Project codes onto two randomly selected distinct dimensions."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] < 2:
        raise ShapeError(f"need an (N, d >= 2) code array, got {z.shape}")
    i, j = (int(v) for v in rng.permutation(z.shape[1])[:2])
    return ScatterPair(dim_i=i, dim_j=j, points=z[:, (i, j)])


# ---------------------------------------------------------------------------
# LDA probe


@dataclass
class LdaProbe:
    """Two discriminative directions between a pair of code classes.

    direction_1 solves the shrinkage-regularized LDA problem
    (S_w + lambda I) w = mu_b - mu_a, with lambda = LDA_SHRINKAGE
    trace(S_w) / d, in the row space of the pooled within-class
    residuals: one thin SVD of those n x d rows gives S_w's eigenvectors,
    so the solve costs O(n d min(n, d)) and no d x d array is formed;
    it runs at 288x288 (d = 82,944).  direction_2 is the leading
    principal component of the pooled within-class residuals after the
    first direction is projected out.  Both are unit length and
    mutually orthogonal.  fisher_ratio is the between/within scatter
    quotient along direction_1 with the raw (unregularized) S_w; it is
    inf when the classes have zero within-class spread along it.
    """

    direction_1: np.ndarray
    direction_2: np.ndarray
    shrinkage: float
    fisher_ratio: float


def _deterministic_sign(v: np.ndarray) -> np.ndarray:
    pivot = int(np.argmax(np.abs(v)))
    return -v if v[pivot] < 0 else v


def lda_fit(z_a: np.ndarray, z_b: np.ndarray) -> LdaProbe:
    """Fit the two-direction probe from two (N >= 2, d) code arrays.

    Two thin SVDs of the pooled (n, d) residuals do the work, one per
    direction, so time is O(n d min(n, d)) and memory O(n d).
    """
    z_a = np.asarray(z_a, dtype=np.float64)
    z_b = np.asarray(z_b, dtype=np.float64)
    if z_a.ndim != 2 or z_b.ndim != 2 or z_a.shape[1] != z_b.shape[1]:
        raise ShapeError(f"need (N, d) arrays of equal d, got {z_a.shape}, {z_b.shape}")
    if z_a.shape[0] < 2 or z_b.shape[0] < 2:
        raise ShapeError("each class needs at least two samples")
    d = z_a.shape[1]
    mean_a = z_a.mean(axis=0)
    mean_b = z_b.mean(axis=0)
    diff = mean_b - mean_a
    if not np.any(diff):
        raise DegenerateProbeError("class means are identical")

    pooled = np.concatenate([z_a - mean_a, z_b - mean_b], axis=0)
    # S_w = pooled^T pooled = V diag(s^2) V^T with V the right singular
    # vectors, so (S_w + lambda I)^-1 acts as 1 / (s^2 + lambda) on V's span
    # and as 1 / lambda on its complement; no d x d array is formed
    _, s, v_t = np.linalg.svd(pooled, full_matrices=False)
    s2 = s * s
    lam = LDA_SHRINKAGE * float(s2.sum()) / d
    if lam > 0:
        along = v_t @ diff
        w1 = v_t.T @ (along / (s2 + lam)) + (diff - v_t.T @ along) / lam
    else:
        # all points sit on their class means; the mean gap is the answer
        w1 = diff.copy()
    w1 /= np.linalg.norm(w1)

    residual = pooled - np.outer(pooled @ w1, w1)
    # the leading right singular vector of the residuals is the top
    # eigenvector of their d x d scatter, without forming it
    _, sv, vt = np.linalg.svd(residual, full_matrices=False)
    power = sv**2
    if power[0] <= 1e-12 * max(float(power.sum()), 1.0):
        # no residual variance: fall back to any unit vector orthogonal to w1
        w2 = None
        for k in range(d):
            cand = np.zeros(d)
            cand[k] = 1.0
            cand -= (cand @ w1) * w1
            norm = np.linalg.norm(cand)
            if norm > 1e-9:
                w2 = cand / norm
                break
        assert w2 is not None
    else:
        w2 = vt[0] - (vt[0] @ w1) * w1
        w2 /= np.linalg.norm(w2)
    return LdaProbe(
        direction_1=w1,
        direction_2=_deterministic_sign(w2),
        shrinkage=lam,
        fisher_ratio=fisher_ratio(z_a, z_b, w1),
    )


def fisher_ratio(z_a: np.ndarray, z_b: np.ndarray, direction: np.ndarray) -> float:
    """Between-class over within-class scatter along one direction.

    Uses the raw (unregularized) within-class scatter; a zero
    denominator with separated means yields inf.
    """
    w = np.asarray(direction, dtype=np.float64).reshape(-1)
    norm = np.linalg.norm(w)
    if norm == 0:
        raise ValueError("direction must be non-zero")
    w = w / norm
    z_a = np.asarray(z_a, dtype=np.float64)
    z_b = np.asarray(z_b, dtype=np.float64)
    mean_a = z_a.mean(axis=0)
    mean_b = z_b.mean(axis=0)
    gap = float(w @ (mean_b - mean_a))
    between = gap * gap
    pa = (z_a - mean_a) @ w
    pb = (z_b - mean_b) @ w
    within = float(pa @ pa + pb @ pb)
    if within == 0.0:
        return math.inf if between > 0.0 else 0.0
    return between / within


def project_scatter(probe: LdaProbe, z: np.ndarray) -> np.ndarray:
    """Codes (N, d) -> coordinates (N, 2) on the probe's two directions."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != probe.direction_1.shape[0]:
        raise ShapeError(f"need (N, {probe.direction_1.shape[0]}) codes, got {z.shape}")
    return np.stack([z @ probe.direction_1, z @ probe.direction_2], axis=1)


# ---------------------------------------------------------------------------
# artifact export


def write_csv(path: str | os.PathLike, header: list[str], rows, comment=None) -> None:
    """Plain CSV with %.10g floats; identical inputs give identical bytes.

    `comment` becomes a leading `#` line (used for config echoes)."""

    def fmt(v):
        if isinstance(v, (float, np.floating)):
            return f"{float(v):.10g}"
        return str(v)

    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_pgm(path: str | os.PathLike, image: np.ndarray) -> None:
    """Binary 8-bit PGM (P5) of an (H, W) image.  Grey levels span the
    image's own range so the full contrast is used."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ShapeError(f"need an (H, W) image, got shape {image.shape}")
    lo, hi = float(img.min()), float(img.max())
    if hi <= lo:
        levels = np.zeros(img.shape, dtype=np.uint8)
    else:
        scaled = np.clip((img - lo) / (hi - lo), 0.0, 1.0)
        levels = np.round(scaled * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(levels.tobytes())


def write_image_strip(path: str | os.PathLike, images: np.ndarray) -> None:
    """Horizontal strip of equally sized images in one PGM, shared scale."""
    imgs = np.asarray(images, dtype=np.float64)
    if imgs.ndim != 3:
        raise ShapeError(f"need (N, H, W) images, got shape {images.shape}")
    strip = np.concatenate(list(imgs), axis=1)
    write_pgm(path, strip)

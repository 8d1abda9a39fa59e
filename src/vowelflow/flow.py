"""Invertible multi-scale flow: actnorm, 1x1 invertible convolution,
affine coupling, squeeze and split, with exact log-determinants.

Forward maps a batch of images x to its (B, d) code z plus the
accumulated log |det dz/dx|; inverse reconstructs x exactly from z.
Every layer also implements a hand-derived reverse-mode `backward` so
the model can be trained by exact maximum likelihood without an
autodiff framework.

Every layer (`ActNorm`, `InvConv`, `AffineCoupling`) keeps one contract:

* ``forward(x, want_cache=True) -> (y, logdet, cache)``, with ``logdet``
  per example and ``cache`` whatever ``backward`` needs, or None without
  `want_cache`;
* ``inverse(y) -> x``;
* ``backward(cache, grad_y, grad_logdet) -> (grad_x, grads)``, with
  ``grads`` keyed like ``params()``.

`FlowModel` holds each level's layers as one flat list of
``(name, layer)`` pairs, so a layer's name is made in one place.  The
halves split off at each level are concatenated into z; only
`FlowModel` knows that layout.

Shape convention: tensors are batched, (B, C, H, W), and float64.  Only
the coupling nets' conv gradients run in float32 inside `backward`, by
default (`grad_dtype`), and their cached activations are kept in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    Rng,
    ShapeError,
    conv2d,
    conv2d_backward,
    lu_decompose,
    mat_inverse,
)

LN_2PI = math.log(2.0 * math.pi)
# dtype of the coupling nets' conv gradients unless a model asks otherwise
GRAD_DTYPE = np.float32


class NonFiniteError(FloatingPointError):
    """A layer produced NaN/Inf; carries the offending layer's index and name."""

    def __init__(self, layer_index: int, layer_name: str):
        super().__init__(f"non-finite values after layer {layer_index} ({layer_name})")
        self.layer_index = layer_index
        self.layer_name = layer_name


@dataclass
class FlowConfig:
    """Multi-scale flow capacity knobs.  Defaults are the desk-scale CI config."""

    levels: int = 3
    depth: int = 2
    coupling_width: int = 32
    input_shape: tuple[int, int, int] = (1, 32, 32)

    def __post_init__(self):
        c, h, w = self.input_shape
        if h != w:
            raise ValueError(f"input must be square, got {h}x{w}")
        if h < 1 or self.levels < 1 or self.depth < 1 or self.coupling_width < 1:
            raise ValueError("input size, levels, depth and coupling_width must be positive")
        if h % (2**self.levels) != 0:
            raise ValueError(
                f"size {h} not divisible by 2^levels = {2**self.levels}"
            )

    @classmethod
    def full_scale(cls) -> "FlowConfig":
        return cls(levels=4, depth=8, coupling_width=128, input_shape=(1, 288, 288))


@dataclass(frozen=True)
class CodePart:
    """One multi-scale split output inside the flattened code vector."""

    shape: tuple[int, int, int]
    offset: int

    @property
    def size(self) -> int:
        c, h, w = self.shape
        return c * h * w


def prior_logprob(z: np.ndarray) -> np.ndarray:
    """Standard-normal log density, summed over the last axis."""
    z = np.asarray(z, dtype=np.float64)
    return np.sum(-0.5 * z**2 - 0.5 * LN_2PI, axis=-1)


# ---------------------------------------------------------------------------
# layers


class ActNorm:
    """Per-channel affine y = exp(log_scale) * x + bias.

    A fresh layer is the identity (log_scale 0, bias 0, logdet 0).  The
    training loop sets it once, by `data_init` on its first batch, so
    outputs have zero mean and unit variance per channel.
    """

    def __init__(self, channels: int):
        self.log_scale = np.zeros(channels)
        self.bias = np.zeros(channels)

    def data_init(self, x: np.ndarray) -> None:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        std = np.sqrt(np.maximum(var, 1e-12))
        self.log_scale = -np.log(std)
        self.bias = -mean / std

    def forward(
        self, x: np.ndarray, want_cache: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        scale = np.exp(self.log_scale)[:, None, None]
        y = scale * x + self.bias[:, None, None]
        h, w = x.shape[2], x.shape[3]
        logdet = np.full(x.shape[0], h * w * float(self.log_scale.sum()))
        return y, logdet, (x if want_cache else None)

    def inverse(self, y: np.ndarray) -> np.ndarray:
        return (y - self.bias[:, None, None]) * np.exp(-self.log_scale)[:, None, None]

    def backward(
        self, x: np.ndarray, grad_y: np.ndarray, grad_logdet: np.ndarray
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        scale = np.exp(self.log_scale)[:, None, None]
        h, w = x.shape[2], x.shape[3]
        grad_x = grad_y * scale
        grads = {
            "bias": grad_y.sum(axis=(0, 2, 3)),
            "log_scale": (grad_y * x * scale).sum(axis=(0, 2, 3))
            + float(grad_logdet.sum()) * h * w,
        }
        return grad_x, grads

    def params(self) -> dict[str, np.ndarray]:
        return {"log_scale": self.log_scale, "bias": self.bias}


class InvConv:
    """Invertible 1x1 convolution: every pixel's channel vector times W."""

    def __init__(self, channels: int, rng: Rng | None = None):
        if rng is None:
            self.weight = np.eye(channels)
        else:
            # random orthogonal start: |det W| = 1, so the initial logdet is 0
            a = rng.standard_normal((channels, channels))
            q, r = np.linalg.qr(a)
            self.weight = q * np.sign(np.diag(r))

    def forward(
        self, x: np.ndarray, want_cache: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        y = np.einsum("oc,bchw->bohw", self.weight, x)
        h, w = x.shape[2], x.shape[3]
        logdet = np.full(x.shape[0], h * w * lu_decompose(self.weight))
        return y, logdet, (x if want_cache else None)

    def inverse(self, y: np.ndarray) -> np.ndarray:
        return np.einsum("oc,bohw->bchw", mat_inverse(self.weight).T, y)

    def backward(
        self, x: np.ndarray, grad_y: np.ndarray, grad_logdet: np.ndarray
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        h, w = x.shape[2], x.shape[3]
        grad_x = np.einsum("oc,bohw->bchw", self.weight, grad_y)
        grad_w = np.einsum("bohw,bchw->oc", grad_y, x)
        # d(H*W*ln|det W|)/dW = H*W * W^{-T}
        grad_w += float(grad_logdet.sum()) * h * w * mat_inverse(self.weight).T
        return grad_x, {"weight": grad_w}

    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight}


class AffineCoupling:
    """Affine coupling with a small ReLU conv net on the untouched half.

    (s, t) = Net(x_a); scale = exp(2 tanh(s)); y_b = x_b * scale + t.
    The output conv is zero-initialized so the layer starts as the
    identity, and the tanh bounds the scale in [e^-2, e^2].

    Forward and inverse run the net in float64.  `backward` runs its three
    conv gradients in `grad_dtype`: float32 halves their cost, and the
    parameter and input gradients it returns are float64 either way.  The
    cache keeps the net's ReLU outputs, which only those gradients read,
    in `grad_dtype` too, halving the bulk of a training step's cache.  The
    net must not run in float32 forward: a float32 net is a step function
    of x_a, and in a stack the inverse rebuilds x_a only to float64
    rounding, so an x_a near a float32 rounding boundary can round the
    other way and move x_b by a float32 ulp.
    """

    def __init__(
        self, channels: int, width: int, rng: Rng | None = None, grad_dtype=GRAD_DTYPE
    ):
        if channels % 2 != 0:
            raise ShapeError(f"coupling needs an even channel count, got {channels}")
        self.half = channels // 2
        self.grad_dtype = np.dtype(grad_dtype)
        kw = {"w1": (width, self.half), "w2": (width, width), "w3": (channels, width)}
        self.w1 = self._he_init(kw["w1"], rng)
        self.b1 = np.zeros(width)
        self.w2 = self._he_init(kw["w2"], rng)
        self.b2 = np.zeros(width)
        self.w3 = np.zeros((channels, width, 3, 3))  # identity at init
        self.b3 = np.zeros(channels)

    @staticmethod
    def _he_init(out_in: tuple[int, int], rng: Rng | None) -> np.ndarray:
        out_ch, in_ch = out_in
        if rng is None:
            return np.zeros((out_ch, in_ch, 3, 3))
        return rng.standard_normal((out_ch, in_ch, 3, 3)) * math.sqrt(2.0 / (in_ch * 9))

    def _net(self, xa: np.ndarray) -> tuple[np.ndarray, ...]:
        # the ReLU outputs double as their masks: a > 0 exactly where h > 0
        a1 = np.maximum(conv2d(xa, self.w1, self.b1), 0.0)
        a2 = np.maximum(conv2d(a1, self.w2, self.b2), 0.0)
        return a1, a2, conv2d(a2, self.w3, self.b3)

    def forward(
        self, x: np.ndarray, want_cache: bool = True
    ) -> tuple[np.ndarray, np.ndarray, dict | None]:
        xa, xb = x[:, :self.half], x[:, self.half:]
        a1, a2, out = self._net(xa)
        s_raw, t = out[:, :self.half], out[:, self.half:]
        th = np.tanh(s_raw)
        scale = np.exp(2.0 * th)
        y = np.concatenate([xa, xb * scale + t], axis=1)
        logdet = (2.0 * th).sum(axis=(1, 2, 3))
        if not want_cache:
            return y, logdet, None
        a1, a2 = (a.astype(self.grad_dtype, copy=False) for a in (a1, a2))
        cache = {"xa": xa, "xb": xb, "a1": a1, "a2": a2, "th": th, "scale": scale}
        return y, logdet, cache

    def inverse(self, y: np.ndarray) -> np.ndarray:
        ya, yb = y[:, :self.half], y[:, self.half:]
        out = self._net(ya)[-1]
        s_raw, t = out[:, :self.half], out[:, self.half:]
        scale = np.exp(2.0 * np.tanh(s_raw))
        return np.concatenate([ya, (yb - t) / scale], axis=1)

    def backward(
        self, cache: dict, grad_y: np.ndarray, grad_logdet: np.ndarray
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        xb, th, scale = cache["xb"], cache["th"], cache["scale"]
        grad_ya, grad_yb = grad_y[:, :self.half], grad_y[:, self.half:]

        grad_xb = grad_yb * scale
        grad_t = grad_yb
        # y_b = x_b e^{2 th} + t and logdet = sum 2 th share the tanh path
        grad_th = grad_yb * xb * scale * 2.0 + 2.0 * grad_logdet[:, None, None, None]
        grad_sraw = grad_th * (1.0 - th * th)
        grad_out = np.concatenate([grad_sraw, grad_t], axis=1)

        grad_out, xa, a1, a2, w1, w2, w3 = (
            arr.astype(self.grad_dtype, copy=False)
            for arr in (grad_out, cache["xa"], cache["a1"], cache["a2"],
                        self.w1, self.w2, self.w3)
        )
        grad_a2, gw3, gb3 = conv2d_backward(grad_out, a2, w3)
        grad_h2 = grad_a2 * (a2 > 0)
        grad_a1, gw2, gb2 = conv2d_backward(grad_h2, a1, w2)
        grad_h1 = grad_a1 * (a1 > 0)
        grad_xa_net, gw1, gb1 = conv2d_backward(grad_h1, xa, w1)

        grad_x = np.concatenate([grad_ya + grad_xa_net, grad_xb], axis=1)
        grads = {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2, "w3": gw3, "b3": gb3}
        return grad_x, {k: g.astype(np.float64, copy=False) for k, g in grads.items()}

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2,
                "w3": self.w3, "b3": self.b3}


# ---------------------------------------------------------------------------
# squeeze / unsqueeze


def squeeze(x: np.ndarray) -> np.ndarray:
    """Trade 2x2 spatial blocks for channels: (B,C,H,W) -> (B,4C,H/2,W/2)."""
    b, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"squeeze needs even extents, got {h}x{w}")
    out = x.reshape(b, c, h // 2, 2, w // 2, 2)
    return out.transpose(0, 1, 3, 5, 2, 4).reshape(b, 4 * c, h // 2, w // 2)


def unsqueeze(y: np.ndarray) -> np.ndarray:
    """Inverse of squeeze: (B,4C,H,W) -> (B,C,2H,2W)."""
    b, c4, h, w = y.shape
    if c4 % 4:
        raise ShapeError(f"unsqueeze needs channels divisible by 4, got {c4}")
    c = c4 // 4
    out = y.reshape(b, c, 2, 2, h, w)
    return out.transpose(0, 1, 4, 2, 5, 3).reshape(b, c, 2 * h, 2 * w)


# ---------------------------------------------------------------------------
# model


Layer = ActNorm | InvConv | AffineCoupling


class FlowModel:
    """Multi-scale stack: per level squeeze, K steps of actnorm -> invertible
    1x1 conv -> affine coupling, then split half the channels out to the
    code (the last level emits everything).

    `grad_dtype` is the dtype of the coupling nets' conv gradients and of
    the activations a backward cache keeps for them (see
    `AffineCoupling`).  Finite-difference checks need float64, because
    float32 rounding swamps a central difference.
    """

    def __init__(self, config: FlowConfig, rng: Rng | None = None, grad_dtype=GRAD_DTYPE):
        self.config = config
        self.grad_dtype = np.dtype(grad_dtype)
        self.layers: list[list[tuple[str, Layer]]] = []
        c = config.input_shape[0]
        size = config.input_shape[1]
        parts = []
        offset = 0
        for level in range(config.levels):
            c *= 4
            size //= 2
            named = []
            for step in range(config.depth):
                prefix = f"level{level}.step{step}"
                named += [
                    (f"{prefix}.actnorm", ActNorm(c)),
                    (f"{prefix}.invconv", InvConv(c, rng)),
                    (f"{prefix}.coupling",
                     AffineCoupling(c, config.coupling_width, rng, self.grad_dtype)),
                ]
            self.layers.append(named)
            out_c = c if level == config.levels - 1 else c // 2
            parts.append(CodePart(shape=(out_c, size, size), offset=offset))
            offset += out_c * size * size
            c //= 2
        self._layout = tuple(parts)
        self.code_size = offset

    # -- parameter plumbing ------------------------------------------------

    def _named_layers(self) -> list[tuple[str, Layer]]:
        return [pair for level in self.layers for pair in level]

    def params(self) -> dict[str, np.ndarray]:
        """Live parameter arrays keyed by a stable hierarchical name."""
        return {
            f"{name}.{k}": v
            for name, layer in self._named_layers()
            for k, v in layer.params().items()
        }

    def set_params(self, values: dict[str, np.ndarray]) -> None:
        live = self.params()
        if set(values) != set(live):
            missing = set(live) ^ set(values)
            raise KeyError(f"parameter names do not match, difference: {sorted(missing)}")
        for name, arr in values.items():  # every shape before any write
            if live[name].shape != arr.shape:
                raise ShapeError(f"{name}: shape {arr.shape} != {live[name].shape}")
        for name, arr in values.items():
            live[name][...] = arr

    # -- forward / inverse ---------------------------------------------------

    def check_input(self, x: np.ndarray) -> np.ndarray:
        """x as a float64 (B, C, H, W) batch of the configured input shape."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1:] != self.config.input_shape:
            raise ShapeError(
                f"expected batch of {self.config.input_shape}, got {x.shape}"
            )
        return x

    def check_code(self, z: np.ndarray) -> np.ndarray:
        """z as a float64 (B, d) batch of codes of the model's length d."""
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] != self.code_size:
            raise ShapeError(f"expected (B, {self.code_size}) codes, got {z.shape}")
        return z

    def forward(
        self, x: np.ndarray, want_cache: bool = False, init_actnorm: bool = False
    ) -> tuple[np.ndarray, np.ndarray, list | None]:
        """x -> ((B, d) code, per-example logdet, optional backward cache).

        The cache holds, per level, each layer's cache in layer order.
        With `init_actnorm`, every actnorm is first data-initialized from
        the batch that reaches it.
        """
        h = self.check_input(x)
        logdet = np.zeros(h.shape[0])
        parts: list[np.ndarray] = []
        cache: list[list] = []
        layer_index = 0
        for li, level in enumerate(self.layers):
            h = squeeze(h)
            level_cache = []
            for name, layer in level:
                if init_actnorm and isinstance(layer, ActNorm):
                    layer.data_init(h)
                h, ld, layer_cache = layer.forward(h, want_cache)
                if not np.all(np.isfinite(h)):
                    raise NonFiniteError(layer_index, name)
                logdet += ld
                level_cache.append(layer_cache)
                layer_index += 1
            if li == len(self.layers) - 1:
                parts.append(h)
            else:
                parts.append(h[:, : h.shape[1] // 2])
                h = h[:, h.shape[1] // 2:]
            cache.append(level_cache)
        return self.flatten_parts(parts), logdet, (cache if want_cache else None)

    def inverse(self, z: np.ndarray) -> np.ndarray:
        """Exact inverse of forward: (B, d) code -> x."""
        parts = self.unflatten_code(z)
        h = None
        for li in range(len(self.layers) - 1, -1, -1):
            h = parts[li] if h is None else np.concatenate([parts[li], h], axis=1)
            for _, layer in reversed(self.layers[li]):
                h = layer.inverse(h)
            h = unsqueeze(h)
        return h

    def backward(
        self, cache: list, grad_z: np.ndarray, grad_logdet: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Reverse-mode gradients for every parameter.

        `grad_z` is the (B, d) cotangent of the code, `grad_logdet` the
        per-example cotangent of the accumulated logdet.
        """
        grad_parts = self.unflatten_code(grad_z)
        grads: dict[str, np.ndarray] = {}
        grad_h = None
        for li in range(len(self.layers) - 1, -1, -1):
            g = grad_parts[li]
            grad_h = g if grad_h is None else np.concatenate([g, grad_h], axis=1)
            for (name, layer), layer_cache in zip(
                reversed(self.layers[li]), reversed(cache[li])
            ):
                grad_h, layer_grads = layer.backward(layer_cache, grad_h, grad_logdet)
                for k, v in layer_grads.items():
                    grads[f"{name}.{k}"] = v
            grad_h = unsqueeze(grad_h)
        return grads

    # -- code packing --------------------------------------------------------

    def flatten_parts(self, parts: list[np.ndarray]) -> np.ndarray:
        """Per-level split outputs -> their (B, d) code, level 0 first."""
        b = parts[0].shape[0]
        return np.concatenate([p.reshape(b, -1) for p in parts], axis=1)

    def unflatten_code(self, z: np.ndarray) -> list[np.ndarray]:
        z = self.check_code(z)
        return [
            z[:, p.offset : p.offset + p.size].reshape(z.shape[0], *p.shape)
            for p in self._layout
        ]

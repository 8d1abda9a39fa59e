"""Exact maximum-likelihood training for the flow.

The objective is the negative mean log likelihood per dimension
(nats/dim).  Gradients come from the layers' hand-derived backward
passes (the coupling nets' conv gradients in float32 by default), are
clipped by global norm, and feed a float64 Adam update with bias
correction.  All randomness used by the loop (batch sampling and
dequantization jitter) flows from one counter-based stream whose state
is checkpointed, so a resumed run reproduces a straight run bit for
bit.

Checkpoint files start with the magic "FSCK", a u32 format version and
a length-prefixed JSON header, followed by one tensor record per
parameter and per Adam moment.  Version 2 ends with a u32 CRC-32 of
every byte before it; version 1 files, which have none, still load.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from .flow import GRAD_DTYPE, AffineCoupling, FlowConfig, FlowModel, NonFiniteError, prior_logprob
from .numerics import Rng, read_exact, read_tensor_from, record_bytes, write_tensor_to

CHECKPOINT_MAGIC = b"FSCK"
CHECKPOINT_VERSION = 2  # 2 added the CRC-32 trailer; 1 still loads
METRICS_HEADER = "step,nats_per_dim,bits_per_dim,grad_norm,wall_ms"
# training aborts after DIVERGENCE_PATIENCE consecutive losses above
# DIVERGENCE_FACTOR times the first
DIVERGENCE_FACTOR = 10.0
DIVERGENCE_PATIENCE = 50


class CheckpointError(ValueError):
    """Checkpoint file is malformed or has an unsupported version."""


class DivergenceError(RuntimeError):
    """Training aborted; parameters on disk are the last good checkpoint."""

    def __init__(self, step: int, checkpoint_path: str | None):
        where = checkpoint_path or "no checkpoint written"
        super().__init__(f"training diverged at step {step} ({where})")
        self.step = step
        self.checkpoint_path = checkpoint_path


@dataclass
class TrainConfig:
    """Optimization settings; defaults are the desk-scale smoke run."""

    steps: int = 500
    batch_size: int = 16
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 50.0
    jitter: float = 1e-2
    seed: int = 0
    checkpoint_every: int = 100

    def __post_init__(self):
        floats = ("lr", "beta1", "beta2", "eps", "clip_norm", "jitter")
        if not all(math.isfinite(getattr(self, name)) for name in floats):
            raise ValueError(f"{', '.join(floats)} must be finite")
        if self.steps < 1 or self.batch_size < 1 or self.checkpoint_every < 1:
            raise ValueError("steps, batch_size and checkpoint_every must be >= 1")
        if self.lr <= 0 or self.eps <= 0 or self.clip_norm <= 0:
            raise ValueError("lr, eps and clip_norm must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")


# ---------------------------------------------------------------------------
# loss


def _loss(
    model: FlowModel, batch: np.ndarray, init_actnorm: bool = False
) -> tuple[float, np.ndarray, list]:
    """The loss, -mean ln p(x) in nats/dim, with the code and the
    backward cache of its forward pass."""
    z, logdet, cache = model.forward(batch, want_cache=True, init_actnorm=init_actnorm)
    lnp = prior_logprob(z) + logdet
    return -float(np.mean(lnp)) / model.code_size, z, cache


def loss_and_grads(
    model: FlowModel, batch: np.ndarray, init_actnorm: bool = False
) -> tuple[float, dict[str, np.ndarray]]:
    """The loss plus its exact gradient for every parameter."""
    loss, z, cache = _loss(model, batch, init_actnorm)
    b, d = batch.shape[0], model.code_size
    # dloss/dz = z / (B d), dloss/dlogdet = -1 / (B d)
    grads = model.backward(cache, z / (b * d), np.full(b, -1.0 / (b * d)))
    return loss, grads


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def global_norm(grads: dict[str, np.ndarray]) -> float:
    return math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> float:
    """Clip by global norm, then update params in place.

    Returns the pre-clip gradient norm (the value logged to metrics).
    """
    norm = global_norm(grads)
    if norm > config.clip_norm:
        scale = config.clip_norm / norm
        grads = {k: g * scale for k, g in grads.items()}
    state.t += 1
    c1 = 1.0 - config.beta1**state.t
    c2 = 1.0 - config.beta2**state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * g * g
        p -= config.lr * (m / c1) / (np.sqrt(v / c2) + config.eps)
    return norm


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(
    path: str | os.PathLike,
    model: FlowModel,
    adam: AdamState,
    rng_state: dict,
    step: int,
    train_config: TrainConfig,
    initial_loss: float | None,
) -> None:
    """Write atomically: a temp file in the same directory, then rename."""
    params = model.params()
    names = list(params)
    meta = {
        "step": step,
        "adam_t": adam.t,
        "rng_state": rng_state,
        "initial_loss": initial_loss,
        "flow_config": dataclasses.asdict(model.config),
        "train_config": dataclasses.asdict(train_config),
        "param_names": names,
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w+b") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name in names:
            write_tensor_to(fh, params[name])
        for name in names:
            write_tensor_to(fh, adam.m[name])
        for name in names:
            write_tensor_to(fh, adam.v[name])
        fh.write(struct.pack("<I", _crc32(fh, fh.tell())))
    os.replace(tmp, path)


def _crc32(fh, end: int) -> int:
    """CRC-32 of the file's bytes [0, end); leaves the position at `end`."""
    fh.seek(0)
    crc = 0
    while (left := end - fh.tell()) > 0:
        crc = zlib.crc32(read_exact(fh, min(left, 2**20), "checkpoint"), crc)
    return crc


@dataclass
class LoadedCheckpoint:
    model: FlowModel
    adam: AdamState | None  # None when loaded without the optimizer state
    rng_state: dict
    step: int
    train_config: TrainConfig
    initial_loss: float | None


def load_checkpoint(path: str | os.PathLike, adam: bool = True) -> LoadedCheckpoint:
    """Read a checkpoint; a short, corrupt or malformed file raises
    CheckpointError naming the file.

    With `adam` false the Adam moments, two thirds of the file, are not
    parsed and the result's `adam` is None.  The file is checked all the
    same: by its CRC-32 (version 2) and by its length against the records
    skipped (version 1).
    """
    try:
        return _read_checkpoint(path, adam)
    except ValueError as exc:  # short reads, bad JSON, bad tensor records
        raise CheckpointError(f"{path}: {exc}") from exc


def _read_checkpoint(path: str | os.PathLike, with_adam: bool) -> LoadedCheckpoint:
    with open(path, "rb") as fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise CheckpointError("not a checkpoint file")
        (version,) = struct.unpack("<I", read_exact(fh, 4, "checkpoint version"))
        if version not in (1, CHECKPOINT_VERSION):
            raise CheckpointError(f"unsupported version {version}")
        size = fh.seek(0, os.SEEK_END)
        if version == 2:
            fh.seek(max(size - 4, 8))
            (stored,) = struct.unpack("<I", read_exact(fh, 4, "checkpoint CRC-32"))
            if _crc32(fh, size - 4) != stored:
                raise CheckpointError("CRC-32 mismatch: the file is corrupt")
        fh.seek(8)
        (length,) = struct.unpack("<Q", read_exact(fh, 8, "checkpoint header length"))
        meta = json.loads(read_exact(fh, length, "checkpoint header").decode("utf-8"))
        flow = meta["flow_config"]
        model = FlowModel(FlowConfig(**{**flow, "input_shape": tuple(flow["input_shape"])}))
        names = meta["param_names"]
        params = {name: read_tensor_from(fh) for name in names}
        model.set_params(params)
        if with_adam:
            adam = AdamState(
                m={name: read_tensor_from(fh) for name in names},
                v={name: read_tensor_from(fh) for name in names},
                t=meta["adam_t"],
            )
        else:
            # the two moment sets mirror the parameters, record for record
            end = fh.tell() + 2 * sum(record_bytes(p) for p in params.values())
            if size < end:
                raise ValueError(f"truncated Adam moments: expected {end} bytes, got {size}")
            adam = None
    return LoadedCheckpoint(
        model=model,
        adam=adam,
        rng_state=meta["rng_state"],
        step=meta["step"],
        train_config=TrainConfig(**meta["train_config"]),
        initial_loss=meta["initial_loss"],
    )


# ---------------------------------------------------------------------------
# divergence detection


class DivergenceDetector:
    """Flags NaN/Inf at once, or DIVERGENCE_PATIENCE consecutive losses
    above DIVERGENCE_FACTOR times the first."""

    def __init__(self):
        self.initial: float | None = None
        self.streak = 0

    def update(self, loss: float) -> bool:
        """Feed one loss value; True means training should abort."""
        if not math.isfinite(loss):
            return True
        if self.initial is None:
            self.initial = loss
            return False
        if loss > DIVERGENCE_FACTOR * abs(self.initial):
            self.streak += 1
        else:
            self.streak = 0
        return self.streak >= DIVERGENCE_PATIENCE


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    final_step: int
    final_loss: float
    checkpoint_path: str
    metrics_path: str
    losses: list[float] = field(repr=False, default_factory=list)


def _cut_metrics(path: str, step: int) -> None:
    """Truncate a metrics file after the row of `step`.

    Rows logged after the checkpoint a run resumes from, and a row cut
    short by a crash, are dropped so the resumed run logs each step once.
    """
    with open(path, "rb+") as fh:
        keep = 0
        for line in fh:
            if not line.endswith(b"\n"):
                break
            if line[:1].isdigit() and int(line.split(b",")[0]) > step:
                break
            keep += len(line)
        fh.truncate(keep)


def build_model(flow_config: FlowConfig, seed: int, grad_dtype=GRAD_DTYPE) -> FlowModel:
    """Fresh model whose init draws come from a stream reserved for init."""
    return FlowModel(flow_config, rng=Rng(seed).spawn(0), grad_dtype=grad_dtype)


def train_loop(
    model: FlowModel,
    data: np.ndarray,
    config: TrainConfig,
    out_dir: str | os.PathLike,
    resume: LoadedCheckpoint | None = None,
    comment: str | None = None,
    log=None,
) -> TrainResult:
    """Run config.steps total optimization steps over `data`.

    `data` is a (N, C, H, W) array of normalized spectrogram pixels.
    Each step samples a batch uniformly with replacement and adds
    Gaussian jitter.  Writes `metrics.csv` and a rolling
    `checkpoint.fsck` under `out_dir`; with `resume`, `model` takes the
    checkpoint's parameters (a model of another architecture raises)
    and continues from its step, appending to the existing metrics file
    cut back to that step.  A run without `resume` starts at step 1,
    whose batch data-initializes every actnorm.  `comment` becomes a `#`
    line at the top of a fresh metrics file.
    """
    # before the metrics file is opened: a mismatched corpus must not cut
    # the log of a run already in `out_dir`
    data = model.check_input(data)
    if data.shape[0] < 1:
        raise ValueError(f"expected a non-empty (N, C, H, W) array, got {data.shape}")
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(os.fspath(out_dir), "metrics.csv")
    ckpt_path = os.path.join(os.fspath(out_dir), "checkpoint.fsck")

    rng = Rng(config.seed).spawn(1)
    detector = DivergenceDetector()
    if resume is None:
        adam = AdamState.zeros_like(model.params())
        start_step = 0
        mode = "w"
    else:
        model.set_params(resume.model.params())
        rng.state = resume.rng_state
        adam = resume.adam
        start_step = resume.step
        detector.initial = resume.initial_loss
        if start_step >= config.steps:
            raise ValueError(
                f"checkpoint is at step {start_step}, nothing left of {config.steps}"
            )
        mode = "a"
        if os.path.exists(metrics_path):
            _cut_metrics(metrics_path, start_step)

    losses: list[float] = []
    last_ckpt = ckpt_path if resume is not None else None
    with open(metrics_path, mode, encoding="utf-8") as metrics:
        if metrics.tell() == 0:
            if comment:
                metrics.write(f"# {comment}\n")
            metrics.write(METRICS_HEADER + "\n")
        for step in range(start_step + 1, config.steps + 1):
            t0 = time.perf_counter()
            idx = rng.integers(0, data.shape[0], size=config.batch_size)
            batch = data[idx]
            if config.jitter > 0:
                batch = batch + config.jitter * rng.standard_normal(batch.shape)
            try:
                loss, grads = loss_and_grads(model, batch, init_actnorm=step == 1)
            except NonFiniteError:
                loss = math.nan
            if detector.update(loss):
                metrics.flush()
                raise DivergenceError(step, last_ckpt)
            norm = adam_step(model.params(), grads, adam, config)
            wall_ms = (time.perf_counter() - t0) * 1e3
            losses.append(loss)
            metrics.write(
                f"{step},{loss:.17g},{loss / math.log(2.0):.17g},"
                f"{norm:.17g},{wall_ms:.3f}\n"
            )
            if log is not None and (step % 50 == 0 or step == 1):
                log(f"step {step}: {loss:.4f} nats/dim, grad norm {norm:.2f}")
            if step % config.checkpoint_every == 0 or step == config.steps:
                metrics.flush()
                save_checkpoint(
                    ckpt_path, model, adam, rng.state, step, config, detector.initial
                )
                last_ckpt = ckpt_path
    return TrainResult(
        final_step=config.steps,
        final_loss=losses[-1],
        checkpoint_path=ckpt_path,
        metrics_path=metrics_path,
        losses=losses,
    )


# ---------------------------------------------------------------------------
# gradient audit


@dataclass
class GradAuditEntry:
    name: str
    index: tuple
    rel_err: float


@dataclass
class GradAuditReport:
    tolerance: float
    entries: list[GradAuditEntry]

    @property
    def max_rel_err(self) -> float:
        return max(e.rel_err for e in self.entries)

    @property
    def worst(self) -> GradAuditEntry:
        return max(self.entries, key=lambda e: e.rel_err)

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance

    def group_max(self) -> dict[str, float]:
        """Worst relative error per parameter group."""
        out: dict[str, float] = {}
        for e in self.entries:
            out[e.name] = max(out.get(e.name, 0.0), e.rel_err)
        return out


def _loss_and_masks(model: FlowModel, batch: np.ndarray) -> tuple[float, list]:
    """The loss and every coupling net's ReLU masks, from one forward."""
    loss, _, cache = _loss(model, batch)
    masks = [
        layer_cache[key] > 0
        for level, level_cache in zip(model.layers, cache)
        for (_, layer), layer_cache in zip(level, level_cache)
        if isinstance(layer, AffineCoupling)
        for key in ("a1", "a2")
    ]
    return loss, masks


def grad_audit(
    model: FlowModel,
    batch: np.ndarray,
    h: float = 1e-5,
    tolerance: float = 1e-4,
    entries_per_param: int = 4,
) -> GradAuditReport:
    """Spot-check analytic gradients against central differences.

    Comparisons happen on the summed log-likelihood scale (loss times
    batch size times dimension) so the relative-error floor is not
    dominated by the tiny per-dim gradients.  The report never raises
    on a failed tolerance; callers decide what to do with it.

    A central difference is only a reference where the loss is smooth
    over [-h, +h].  When the two evaluations see different coupling ReLU
    masks (a kink lies between them), the entry is probed again at h/10,
    then at h/100.

    The model's `grad_dtype` must be float64: float32 gradients differ
    from exact ones by more than a central difference resolves.
    """
    if model.grad_dtype != np.float64:
        raise ValueError(f"grad_audit needs a float64 grad_dtype, got {model.grad_dtype}")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"finite-difference step h must be finite and positive, got {h}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
    batch = np.asarray(batch, dtype=np.float64)
    scale = batch.shape[0] * model.code_size
    _, grads = loss_and_grads(model, batch)
    params = model.params()
    report = GradAuditReport(tolerance=tolerance, entries=[])
    for name, arr in params.items():
        n = arr.size
        take = min(entries_per_param, n)
        # deterministic, evenly spread flat positions
        flat_positions = np.linspace(0, n - 1, take).round().astype(int)
        flat = arr.reshape(-1)
        for pos in flat_positions:
            keep = flat[pos]
            for step in (h, h / 10, h / 100):
                flat[pos] = keep + step
                lp, masks_p = _loss_and_masks(model, batch)
                flat[pos] = keep - step
                lm, masks_m = _loss_and_masks(model, batch)
                if all(np.array_equal(a, b) for a, b in zip(masks_p, masks_m)):
                    break
            flat[pos] = keep
            numeric = (lp - lm) / (2.0 * step) * scale
            analytic = float(grads[name].reshape(-1)[pos]) * scale
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
            idx = tuple(int(i) for i in np.unravel_index(pos, arr.shape))
            report.entries.append(GradAuditEntry(name, idx, rel))
    return report

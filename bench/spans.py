"""In-memory spans around vowelflow's layers, recorded from outside the package.

`Tracer.install()` replaces each function or method listed in `_layers()`,
under the name its caller looks it up by (for example
`vowelflow.flow.conv2d_backward`, `vowelflow.cli.train_loop` or
`ActNorm.forward`), with a wrapper that records a span: name, start, end,
parent span and run id.  `uninstall()` puts the originals back.  Spans are
recorded only while a stage is open, stay in memory, and are written out
once by `write_jsonl()` when the benchmark ends.

A span's self time is its duration minus the time its child spans cover.
Within a stage the spans nest, so the self times of all its spans plus the
stage's unattributed remainder (time outside its top-level spans) add up to
the stage's wall time exactly.

Some spans also record counts computed from the shapes of their arguments
(conv FLOPs, im2col bytes, tensor bytes read or written, owned bytes of the
backward cache).  These repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np

from vowelflow import cli, dataset, flow, latent, train


@dataclass
class Span:
    name: str
    run: str
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)


@dataclass
class Stage:
    name: str
    first: int  # spans[first:last] belong to the stage
    last: int
    wall: float  # seconds, timed by the caller around the stage


# ---------------------------------------------------------------------------
# counts computed from shapes


def _conv_dims(x, kernel):
    shape = np.shape(x)
    batch = shape[0] if len(shape) == 4 else 1
    out_ch, in_ch, kh, kw = np.shape(kernel)
    return batch, out_ch, in_ch, kh, kw, shape[-2], shape[-1]


def _count_conv(args, kwargs, result):
    b, o, c, kh, kw, h, w = _conv_dims(args[0], args[1])
    cols = 8 * b * c * kh * kw * h * w
    padded = 8 * b * c * (h + kh - 1) * (w + kw - 1)
    product = 8 * b * o * h * w
    return {
        "gflop": 2 * b * o * c * kh * kw * h * w / 1e9,
        "im2col_bytes": cols,
        # padded input, patch matrix and product live at once
        "transient_bytes_per_image": (padded + cols + product) / b,
    }


def _count_conv_backward(args, kwargs, result):
    b, o, c, kh, kw, h, w = _conv_dims(args[1], args[2])
    # the kernel-gradient contraction and the input-gradient correlation
    # each do one forward's multiply-adds and build one patch matrix
    return {
        "gflop": 4 * b * o * c * kh * kw * h * w / 1e9,
        "im2col_bytes": 8 * b * (c + o) * kh * kw * h * w,
    }


def _count_written(args, kwargs, result):
    return {"io_bytes": np.asarray(args[1]).nbytes}


def _count_read(args, kwargs, result):
    return {"io_bytes": result.nbytes}


def _count_segments(args, kwargs, result):
    return {"segments": len(result.entries)}


def _count_checkpoint(args, kwargs, result):
    return {"checkpoint_bytes": os.path.getsize(args[0])}


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _arrays(value)


def _count_cache(args, kwargs, result):
    want_cache = kwargs.get("want_cache", args[2] if len(args) > 2 else False)
    if not want_cache:
        return {}
    # owned bytes: views (the coupling halves, split outputs) are not counted
    owned = sum(a.nbytes for a in _arrays(result[2]) if a.base is None)
    return {"cache_bytes": owned}


def _layers():
    """(owner, attribute, span name, counter) for every wrapped callable."""
    reader = dataset.CorpusReader
    out = [
        (flow, "conv2d", "numerics.conv2d", _count_conv),
        (flow, "conv2d_backward", "numerics.conv2d_backward", _count_conv_backward),
        (flow, "lu_decompose", "numerics.lu_decompose", None),
        (flow, "mat_inverse", "numerics.mat_inverse", None),
        (dataset, "write_tensor_to", "numerics.tensor_io", _count_written),
        (dataset, "read_tensor_from", "numerics.tensor_io", _count_read),
        (train, "write_tensor_to", "numerics.tensor_io", _count_written),
        (train, "read_tensor_from", "numerics.tensor_io", _count_read),
        (cli, "write_tensor", "numerics.tensor_io", _count_written),
        (cli, "read_tensor", "numerics.tensor_io", _count_read),
        (dataset, "stft", "signal.stft", None),
        (cli, "stft", "signal.stft", None),
        (dataset, "synth_vowel", "signal.synth_vowel", None),
        (dataset, "add_white_noise", "signal.add_white_noise", None),
        (cli, "build_corpus", "dataset.build_corpus", _count_segments),
        (dataset, "segment_to_spectrogram", "dataset.segment_to_spectrogram", None),
        (cli, "load_manifest", "dataset.corpus_load", None),
        (reader, "__init__", "dataset.corpus_load", None),
        (reader, "load", "dataset.corpus_load", None),
        (flow, "squeeze", "flow.squeeze", None),
        (flow, "unsqueeze", "flow.squeeze", None),
        (flow.FlowModel, "flatten_parts", "flow.squeeze", None),
        (flow.FlowModel, "unflatten_code", "flow.squeeze", None),
        (flow.FlowModel, "forward", "flow.model", _count_cache),
        (flow.FlowModel, "inverse", "flow.model", None),
        (flow.FlowModel, "backward", "flow.model", None),
        (cli, "train_loop", "train.train_loop", None),
        (train, "loss_and_grads", "train.loss_and_grads", None),
        (train, "adam_step", "train.adam_step", None),
        (train, "save_checkpoint", "train.save_checkpoint", _count_checkpoint),
        (cli, "load_checkpoint", "train.load_checkpoint", None),
        (cli, "encode_batch", "latent.encode_batch", None),
        (latent, "encode_batch", "latent.encode_batch", None),
        (latent, "decode_batch", "latent.decode_batch", None),
        (cli, "gaussianity_report", "latent.gaussianity_report", None),
        (cli, "lda_fit", "latent.lda_fit", None),
        (cli, "main", "cli.self", None),
    ]
    for cls, layer in (
        (flow.ActNorm, "actnorm"),
        (flow.InvConv, "invconv"),
        (flow.AffineCoupling, "coupling"),
    ):
        for method, kind in (("forward", "fwd"), ("inverse", "inv"), ("backward", "bwd")):
            out.append((cls, method, f"flow.{layer}.{kind}", None))
    return out


def span_names() -> list[str]:
    return sorted({name for _, _, name, _ in _layers()})


# ---------------------------------------------------------------------------
# tracer


class Tracer:
    """Span recorder for one run; spans are kept only while a stage is open."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.stages: list[Stage] = []
        self._stack: list[int] = []
        self._open_stage: tuple[str, int] | None = None
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open_stage is None:
                return fn(*args, **kwargs)
            span = Span(name, self.run_id, stack[-1] if stack else None, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, count in _layers():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def open_stage(self, name: str) -> None:
        self._open_stage = (name, len(self.spans))

    def close_stage(self, wall: float) -> None:
        name, first = self._open_stage
        self._open_stage = None
        self.stages.append(Stage(name, first, len(self.spans), wall))

    # -- reading the trace ------------------------------------------------------

    def self_seconds(self, stage: Stage) -> dict[int, float]:
        child = defaultdict(float)
        for i in range(stage.first, stage.last):
            span = self.spans[i]
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return {
            i: self.spans[i].end - self.spans[i].start - child[i]
            for i in range(stage.first, stage.last)
        }

    def summary(self) -> dict:
        """Per span name: self ms, calls, and each count summed and at its
        largest (keyed "<span name>.<count>"); per stage: wall, the self ms
        of its spans and the unattributed remainder."""
        ms = defaultdict(float)
        calls = Counter()
        counts = defaultdict(float)
        maxima = defaultdict(float)
        errors = Counter()
        stages = []
        for stage in self.stages:
            selfs = self.self_seconds(stage)
            stage_ms = defaultdict(float)
            stage_calls = Counter()
            for i, seconds in selfs.items():
                span = self.spans[i]
                ms[span.name] += seconds * 1e3
                calls[span.name] += 1
                stage_ms[span.name] += seconds * 1e3
                stage_calls[span.name] += 1
                if span.error:
                    errors[span.error] += 1
                for key, value in span.counts.items():
                    key = f"{span.name}.{key}"
                    counts[key] += value
                    maxima[key] = max(maxima[key], value)
            self_ms = sum(selfs.values()) * 1e3
            stages.append({
                "name": stage.name,
                "wall_ms": stage.wall * 1e3,
                "self_ms": self_ms,
                "unattributed_ms": stage.wall * 1e3 - self_ms,
                "min_self_ms": min(selfs.values(), default=0.0) * 1e3,
                "ms": dict(stage_ms),
                "calls": dict(stage_calls),
            })
        return {
            "ms": dict(ms),
            "calls": dict(calls),
            "counts": dict(counts),
            "maxima": dict(maxima),
            "errors": dict(errors),
            "stages": stages,
        }

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for stage in self.stages:
                fh.write(json.dumps({"stage": stage.name, "first": stage.first,
                                     "last": stage.last, "wall": stage.wall}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

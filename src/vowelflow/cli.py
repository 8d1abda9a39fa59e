"""Command-line pipeline: corpus synthesis, flow training, latent analyses.

The subcommands wire the library into one workflow.  `synth-data` and
`prepare` build a spectrogram corpus, `train` fits the flow by maximum
likelihood, and the analysis commands (`encode`, `sample`, `interpolate`,
`denoise`, `lda`, `gauss-report`, `reconstruct`, `grad-audit`) operate on
the corpus plus a trained checkpoint.

Configuration is a four-section tree (data, synth, flow, train) where every
key has a default.  A JSON file given with --config overrides the defaults,
and dotted flags such as `--train.lr 3e-3` override the file.  Unknown
sections or keys are rejected before any work starts.  Every artifact embeds
the merged config so a run can be reproduced from the artifact alone.  The
spectrogram front end (`dataset.STFT`, 16 kHz audio) is fixed and has no keys.

Exit codes: 0 on success, 1 on a usage error (bad flags, malformed or
unknown config keys), 2 on a runtime error (missing files, divergence,
failed gradient audit).  Diagnostics go to standard error; data goes to
files under --out-dir, or to standard output for `grad-audit`.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .dataset import (
    CorpusReader,
    DatasetConfig,
    SyntheticSpec,
    build_corpus,
    image_to_waveform,
    load_manifest,
    wav_path,
)
from .flow import FlowConfig
from .latent import (
    denoise,
    displacement,
    encode_batch,
    gaussianity_report,
    interpolate,
    lda_fit,
    project_scatter,
    sample,
    scatter_pair,
    write_csv,
    write_image_strip,
)
from .numerics import Rng, read_tensor, write_tensor
from .signal import read_wav, stft, write_wav
from .train import TrainConfig, build_model, grad_audit, load_checkpoint, train_loop

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class UsageError(Exception):
    """Bad invocation: flags, config keys, or value syntax."""


# ---------------------------------------------------------------------------
# configuration tree

_NONE_WORDS = ("none", "null", "")


def _as_int(value):
    if isinstance(value, bool):
        raise ValueError("expected an integer")
    if isinstance(value, int):
        return value
    return int(str(value), 10)


def _as_float(value):
    if isinstance(value, bool):
        raise ValueError("expected a number")
    if isinstance(value, (int, float)):
        return float(value)
    return float(str(value))


def _as_opt_float(value):
    if value is None:
        return None
    if isinstance(value, str) and value.strip().lower() in _NONE_WORDS:
        return None
    return _as_float(value)


def _as_bool(value):
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


# Coercion per dataclass field annotation (a string: the config modules
# use postponed annotations).
_COERCIONS = {
    "int": _as_int,
    "float": _as_float,
    "float | None": _as_opt_float,
    "bool": _as_bool,
}


def _section(cls, *omit: str) -> dict:
    return {
        f.name: (f.default, _COERCIONS[f.type])
        for f in dataclasses.fields(cls)
        if f.name not in omit
    }


# Section -> key -> (default, coercion), derived from the config dataclasses.
# This table is the whole config surface: dotted flags are generated from it
# and unknown keys are rejected against it.  The vowel set, the input shape
# and the seed are set elsewhere.
_SCHEMA = {
    "data": _section(DatasetConfig),
    "synth": _section(SyntheticSpec, "vowels"),
    "flow": _section(FlowConfig, "input_shape"),
    "train": _section(TrainConfig, "seed"),
}


class RunConfig:
    """Merged configuration: defaults, then JSON file, then dotted flags."""

    def __init__(self, seed: int, sections: dict):
        self.seed = seed
        self.sections = sections

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]

    def echo(self) -> str:
        """One-line JSON of the merged config, embedded in artifacts."""
        doc = {"seed": self.seed}
        doc.update(self.sections)
        return json.dumps(doc, sort_keys=True, separators=(", ", ": "))

    def dataset_config(self) -> DatasetConfig:
        return DatasetConfig(**self.sections["data"])

    def synthetic_spec(self) -> SyntheticSpec:
        return SyntheticSpec(**self.sections["synth"])

    def flow_config(self) -> FlowConfig:
        size = self.sections["data"]["image_size"]
        return FlowConfig(**self.sections["flow"], input_shape=(1, size, size))

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self.sections["train"], seed=self.seed)


def _set_key(sections: dict, section: str, key: str, value, origin: str) -> None:
    if section not in _SCHEMA:
        raise UsageError(f"{origin}: unknown config section {section!r}")
    if key not in _SCHEMA[section]:
        raise UsageError(f"{origin}: unknown config key {section}.{key}")
    _, coerce = _SCHEMA[section][key]
    try:
        sections[section][key] = coerce(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{origin}: bad value for {section}.{key}: {exc}") from exc


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """Resolve defaults, then the --config file, then dotted flag overrides."""
    sections = {
        name: {key: default for key, (default, _) in keys.items()}
        for name, keys in _SCHEMA.items()
    }
    seed = 0

    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            doc = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise UsageError(f"config file not found: {config_path}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {config_path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise UsageError(f"config file {config_path}: expected a JSON object")
        for section, body in doc.items():
            if section == "seed":
                try:
                    seed = _as_int(body)
                except (TypeError, ValueError) as exc:
                    raise UsageError(f"{config_path}: bad seed: {exc}") from exc
                continue
            if not isinstance(body, dict):
                raise UsageError(
                    f"{config_path}: section {section!r} must be a JSON object"
                )
            for key, value in body.items():
                _set_key(sections, section, key, value, config_path)

    for dest, value in vars(args).items():
        if "." in dest:
            section, key = dest.split(".", 1)
            _set_key(sections, section, key, value, f"--{dest}")

    if getattr(args, "seed", None) is not None:
        seed = args.seed
    return RunConfig(seed=seed, sections=sections)


def _flag(cast, ok, rule: str):
    """argparse `type=` for a numeric flag: a value outside `rule` is a usage error."""

    def parse(text: str):
        try:
            if ok(value := cast(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")

    return parse


_COUNT = _flag(int, lambda v: v >= 1, "an integer of at least 1")
_POSITIVE = _flag(float, lambda v: math.isfinite(v) and v > 0, "a finite number above 0")
_NONNEGATIVE = _flag(float, lambda v: math.isfinite(v) and v >= 0, "a finite number of at least 0")


def parse_sweep(text: str):
    """Parse `start:stop:step` (inclusive endpoints) or a single value.

    `0.1:0.9:0.1` yields the nine points 0.1, 0.2, ..., 0.9; the span must
    be an integer number of steps.
    """
    parts = text.split(":")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"bad sweep {text!r}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise UsageError(f"bad sweep {text!r}: values must be finite")
    if len(values) == 1:
        return np.array(values)
    if len(values) != 3:
        raise UsageError(f"bad sweep {text!r}: expected VALUE or START:STOP:STEP")
    start, stop, step = values
    if step <= 0:
        raise UsageError(f"bad sweep {text!r}: step must be positive")
    if stop < start:
        raise UsageError(f"bad sweep {text!r}: stop is below start")
    count = int(round((stop - start) / step)) + 1
    if abs(start + (count - 1) * step - stop) > 1e-9 * max(1.0, abs(stop)):
        raise UsageError(f"bad sweep {text!r}: span is not a whole number of steps")
    return start + step * np.arange(count)


# ---------------------------------------------------------------------------
# shared command plumbing

def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _corpus_dir(args: argparse.Namespace, out: Path) -> Path:
    data = getattr(args, "data", None)
    return Path(data) if data is not None else out


def _inputs(args: argparse.Namespace, out: Path):
    """The corpus manifest, and a loader of (N, 1, S, S) pixels by index."""
    corpus = _corpus_dir(args, out)
    manifest = load_manifest(corpus)

    def load(indices) -> np.ndarray:
        with CorpusReader(corpus, manifest) as reader:
            return reader.load(indices)

    return manifest, load


def _checkpoint_path(args: argparse.Namespace, out: Path) -> Path:
    return out / "checkpoint.fsck" if args.checkpoint is None else Path(args.checkpoint)


def _model(args: argparse.Namespace, out: Path):
    return load_checkpoint(_checkpoint_path(args, out), adam=False).model


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(2**20), b""):
            digest.update(block)
    return digest.hexdigest()


def _code_inputs(args: argparse.Namespace, out: Path) -> dict[str, Path]:
    """The files whose bytes fix a corpus row's code, by their `codes.json` key."""
    corpus = _corpus_dir(args, out)
    return {
        "checkpoint": _checkpoint_path(args, out),
        "corpus.fstn": corpus / "corpus.fstn",
        "manifest.jsonl": corpus / "manifest.jsonl",
    }


def _stored_codes(args: argparse.Namespace, out: Path, indices: list[int], code_size: int):
    """Rows `indices` of the `codes.fstn` that `encode` wrote, or None
    unless its `codes.json` lists them and every hash it records matches."""
    try:
        key = json.loads((out / "codes.json").read_text(encoding="utf-8"))
        encoded, hashes = key["indices"], key["sha256"]
        row = {index: r for r, index in enumerate(encoded)}
        rows = [row[i] for i in indices]
        files = {**_code_inputs(args, out), "codes.fstn": out / "codes.fstn"}
        if any(hashes[name] != _sha256(path) for name, path in files.items()):
            return None
        codes = read_tensor(out / "codes.fstn")
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if codes.shape != (len(encoded), code_size):
        return None
    return codes[rows]


def _codes(args: argparse.Namespace, out: Path, model, load, indices: list[int],
           pixels: np.ndarray | None = None) -> np.ndarray:
    """Codes of the corpus rows `indices` (whose pixels are `pixels`, when
    the caller has them): the rows `encode` stored, if they are still
    valid, else a fresh `encode_batch`.

    Stored rows are used only if re-encoding the first of them gives the
    same bits, so codes written by other numerics are never reused.
    """
    stored = _stored_codes(args, out, indices, model.code_size)
    if stored is not None:
        check, _ = encode_batch(model, load(indices[:1]))
        if check.tobytes() == stored[:1].tobytes():
            return stored
    codes, _ = encode_batch(model, load(indices) if pixels is None else pixels)
    return codes


def _write_decoded(out: Path, stem: str, model, images: np.ndarray) -> np.ndarray:
    """Write `<stem>.fstn` and a `<stem>.pgm` strip; return nats/dim per image."""
    write_tensor(out / f"{stem}.fstn", images)
    write_image_strip(out / f"{stem}.pgm", images[:, 0])
    _, lnp = encode_batch(model, images)
    return -lnp / model.code_size


def _split_indices(manifest, split: str) -> list[int]:
    if split == "train":
        indices = manifest.train_indices()
    elif split == "eval":
        indices = manifest.eval_indices()
    else:
        indices = list(range(len(manifest.entries)))
    if not indices:
        raise ValueError(f"{split} split is empty")
    return indices


def _find_segment(manifest, segment: str, noisy: bool) -> int:
    """Manifest index of the clean or noisy segment whose id is `segment`."""
    want = "noisy" if noisy else "clean"
    for i, (sid, entry) in enumerate(zip(manifest.segment_ids(), manifest.entries)):
        if sid == segment and (entry.record.noise_snr_db is not None) == noisy:
            return i
    raise ValueError(f"no {want} segment with id {segment!r}")


def _config_comment(cfg: RunConfig) -> str:
    return f"config {cfg.echo()}"


# ---------------------------------------------------------------------------
# subcommands

def cmd_build_corpus(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    """`synth-data` from the synthesizer, `prepare` from a real corpus tree."""
    source = getattr(args, "corpus_root", None) or cfg.synthetic_spec()
    manifest = build_corpus(source, cfg.dataset_config(), Rng(cfg.seed), out)
    n_train = len(manifest.train_indices())
    _info(
        f"{args.command}: {len(manifest.entries)} segments "
        f"({n_train} train) in {out}"
    )
    return EXIT_OK


def cmd_train(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    flow_config, train_config = cfg.flow_config(), cfg.train_config()
    manifest, load = _inputs(args, out)
    pixels = load(_split_indices(manifest, "train"))

    resume = None
    if args.resume is not None:
        resume = load_checkpoint(args.resume)
        saved = {"flow": resume.model.config, "train": resume.train_config}
        now = {"flow": flow_config, "train": train_config}
        changed = [
            key if key == "seed" else f"{section}.{key}"
            for section, config in saved.items()
            for key, value in dataclasses.asdict(config).items()
            if key != "steps" and value != getattr(now[section], key)
        ]
        if changed:
            raise UsageError(
                f"--resume: {', '.join(changed)} differ from the checkpoint "
                "(only train.steps may change)"
            )

    result = train_loop(
        build_model(flow_config, cfg.seed),
        pixels,
        train_config,
        out,
        resume=resume,
        comment=_config_comment(cfg),
        log=_info,
    )
    _info(
        f"train: step {result.final_step}, "
        f"final loss {result.final_loss:.6f} nats/dim, "
        f"checkpoint {result.checkpoint_path}"
    )
    return EXIT_OK


def cmd_encode(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    manifest, load = _inputs(args, out)
    model = _model(args, out)
    hashes = {name: _sha256(path) for name, path in _code_inputs(args, out).items()}
    indices = _split_indices(manifest, args.split)
    z, lnp = encode_batch(model, load(indices))
    nats = -lnp / model.code_size
    # an old key must never vouch for the new codes, even after a crash
    (out / "codes.json").unlink(missing_ok=True)
    write_tensor(out / "codes.fstn", z)
    rows = []
    for j, i in enumerate(indices):
        rec = manifest.entries[i].record
        rows.append(
            (
                i,
                rec.utterance_id,
                rec.speaker_id,
                rec.gender,
                rec.vowel,
                int(rec.noise_snr_db is not None),
                lnp[j],
                nats[j],
            )
        )
    write_csv(
        out / "codes.csv",
        ["index", "utterance", "speaker", "gender", "vowel", "noisy",
         "ln_likelihood", "nats_per_dim"],
        rows,
        comment=_config_comment(cfg),
    )
    hashes["codes.fstn"] = _sha256(out / "codes.fstn")
    key = {"indices": indices, "sha256": hashes}
    (out / "codes.json").write_text(json.dumps(key, sort_keys=True) + "\n", encoding="utf-8")
    _info(
        f"encode: {len(indices)} segments ({args.split} split), "
        f"mean {np.mean(nats):.4f} nats/dim"
    )
    return EXIT_OK


def cmd_sample(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    model = _model(args, out)
    _, images = sample(model, Rng(cfg.seed), args.n, args.temperature)
    nats = _write_decoded(out, "samples", model, images)
    rows = [(i, args.temperature, nats[i]) for i in range(args.n)]
    write_csv(
        out / "samples.csv",
        ["index", "temperature", "nats_per_dim"],
        rows,
        comment=_config_comment(cfg),
    )
    _info(f"sample: {args.n} draws at temperature {args.temperature}")
    return EXIT_OK


def cmd_interpolate(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    alphas = None if args.alphas is None else parse_sweep(args.alphas)
    manifest, load = _inputs(args, out)
    model = _model(args, out)

    ia = _find_segment(manifest, args.a, noisy=False)
    ib = _find_segment(manifest, args.b, noisy=False)
    # two rows encode faster than hashing the files that vouch for stored codes
    z, _ = encode_batch(model, load([ia, ib]))
    sweep = interpolate(model, z[0], z[1], alphas)
    nats = _write_decoded(out, "interpolation", model, sweep.images)
    rows = [(float(a), nats[k]) for k, a in enumerate(sweep.ts)]
    write_csv(
        out / "interpolation.csv",
        ["alpha", "nats_per_dim"],
        rows,
        comment=_config_comment(cfg),
    )
    _info(
        f"interpolate: {args.a} -> {args.b}, "
        f"{len(sweep.ts)} points in [{sweep.ts[0]:g}, {sweep.ts[-1]:g}]"
    )
    return EXIT_OK


def cmd_denoise(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    betas = None if args.beta_sweep is None else parse_sweep(args.beta_sweep)
    manifest, load = _inputs(args, out)
    model = _model(args, out)

    pairs = manifest.clean_noisy_pairs()
    if not pairs:
        raise ValueError("corpus has no clean/noisy pairs (set data.noise_snr_db)")
    train = set(manifest.train_indices())
    fit_pairs = [p for p in pairs if p[0] in train]

    if args.utt is not None:
        target_noisy = _find_segment(manifest, args.utt, noisy=True)
        target_clean = _find_segment(manifest, args.utt, noisy=False)
    else:
        held_out = [p for p in pairs if p[0] not in train]
        if not held_out:
            raise ValueError("no held-out noisy segment; pass --utt")
        target_clean, target_noisy = held_out[0]

    clean, noisy = [c for c, _ in fit_pairs], [y for _, y in fit_pairs]
    z = _codes(args, out, model, load, clean + noisy + [target_noisy])
    xi = displacement(z[: len(clean)], z[len(clean) : -1])

    sweep = denoise(model, z[-1], xi, betas)
    nats = _write_decoded(out, "denoised", model, sweep.images)
    mse = np.mean((sweep.images - load([target_clean])) ** 2, axis=(1, 2, 3))
    rows = [(float(b), nats[k], float(mse[k])) for k, b in enumerate(sweep.ts)]
    write_csv(
        out / "denoise.csv",
        ["beta", "nats_per_dim", "mse_to_clean"],
        rows,
        comment=_config_comment(cfg),
    )
    best = int(np.argmin(mse))
    utt = manifest.entries[target_noisy].record.utterance_id
    _info(
        f"denoise: {utt}, displacement over {len(fit_pairs)} pairs "
        f"(norm {np.linalg.norm(xi):.4f}), best beta {sweep.ts[best]:g} "
        f"(mse {mse[best]:.6f} vs {mse[0]:.6f} at beta 0)"
    )
    return EXIT_OK


def cmd_lda(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    manifest, load = _inputs(args, out)
    split = set(_split_indices(manifest, args.split))

    def class_indices(value: str) -> list[int]:
        selector = {args.by: value, "noisy": False}
        indices = [i for i in manifest.select(**selector) if i in split]
        if len(indices) < 2:
            raise ValueError(
                f"{args.by}={value!r} has {len(indices)} segments; need at least 2"
            )
        return indices

    idx_a = class_indices(args.class_a)
    idx_b = class_indices(args.class_b)
    if args.space == "code":
        vectors = _codes(args, out, _model(args, out), load, idx_a + idx_b)
    else:
        vectors = load(idx_a + idx_b).reshape(len(idx_a) + len(idx_b), -1)
    vec_a, vec_b = vectors[: len(idx_a)], vectors[len(idx_a) :]

    probe = lda_fit(vec_a, vec_b)
    points = project_scatter(probe, vectors)
    labels = [args.class_a] * len(idx_a) + [args.class_b] * len(idx_b)
    rows = [(points[i, 0], points[i, 1], labels[i]) for i in range(len(labels))]
    write_csv(
        out / "lda_scatter.csv",
        ["p1", "p2", "label"],
        rows,
        comment=_config_comment(cfg),
    )

    report = {
        "by": args.by,
        "class_a": args.class_a,
        "class_b": args.class_b,
        "space": args.space,
        "split": args.split,
        "n_a": len(idx_a),
        "n_b": len(idx_b),
        "fisher_ratio": probe.fisher_ratio,
        "shrinkage": probe.shrinkage,
        "config": json.loads(cfg.echo()),
    }
    (out / "lda.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _info(
        f"lda: {args.by} {args.class_a} vs {args.class_b} in {args.space} space, "
        f"fisher ratio {probe.fisher_ratio:.6g}"
    )
    return EXIT_OK


def cmd_gauss_report(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    manifest, load = _inputs(args, out)
    model = _model(args, out)
    indices = _split_indices(manifest, args.split)
    pixels = load(indices)
    codes = _codes(args, out, model, load, indices, pixels)
    flat_px = pixels.reshape(pixels.shape[0], -1)
    rng = Rng(cfg.seed)

    def pick_dims(total: int, stream: Rng) -> np.ndarray:
        return np.sort(stream.permutation(total)[: args.dims])

    spaces = {
        "code": (codes, pick_dims(codes.shape[1], rng.spawn(0)), rng.spawn(2)),
        "pixels": (flat_px, pick_dims(flat_px.shape[1], rng.spawn(1)), rng.spawn(3)),
    }

    stat_rows, scatter_rows, summary = [], [], {}
    for name, (vectors, dims, scatter_rng) in spaces.items():
        report = gaussianity_report(vectors[:, dims])
        for k, dim in enumerate(dims):
            stat_rows.append(
                (
                    name,
                    int(dim),
                    report.skewness[k],
                    report.excess_kurtosis[k],
                    int(report.degenerate[k]),
                )
            )
        pair = scatter_pair(vectors, scatter_rng)
        for x, y in pair.points:
            scatter_rows.append((name, x, y))
        summary[name] = {
            "n_samples": vectors.shape[0],
            "n_dims": len(dims),
            "n_degenerate": int(report.degenerate.sum()),
            "mean_abs_skewness": report.mean_abs_skewness,
            "mean_abs_excess_kurtosis": report.mean_abs_excess_kurtosis,
            "scatter_dims": [pair.dim_i, pair.dim_j],
        }

    write_csv(
        out / "gaussianity.csv",
        ["space", "dim", "skewness", "excess_kurtosis", "degenerate"],
        stat_rows,
        comment=_config_comment(cfg),
    )
    write_csv(
        out / "gauss_scatter.csv",
        ["space", "x", "y"],
        scatter_rows,
        comment=_config_comment(cfg),
    )
    summary["config"] = json.loads(cfg.echo())
    (out / "gaussianity.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _info(
        "gauss-report: mean |excess kurtosis| "
        f"code {summary['code']['mean_abs_excess_kurtosis']:.4f}, "
        f"pixels {summary['pixels']['mean_abs_excess_kurtosis']:.4f}"
    )
    return EXIT_OK


def cmd_reconstruct(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    manifest, load = _inputs(args, out)
    index = _find_segment(manifest, args.utt, noisy=args.noisy)
    wav = wav_path(_corpus_dir(args, out), index)
    if not wav.exists():
        raise ValueError(
            f"no waveform for {args.utt!r}; rebuild the corpus with "
            "data.write_wavs true"
        )
    if args.from_ is not None:
        stack = read_tensor(args.from_)
        if not 0 <= args.index < stack.shape[0]:
            raise ValueError(
                f"--index {args.index} out of range for {stack.shape[0]} images"
            )
        image = stack[args.index]
    else:
        image = load([index])[0]
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 3:
        image = image[0]

    phase = stft(read_wav(wav))
    audio = image_to_waveform(image, manifest.stats, phase)
    suffix = "_noisy" if args.noisy else ""
    target = out / f"recon_{args.utt}{suffix}.wav"
    write_wav(target, audio)
    _info(f"reconstruct: {args.utt} -> {target} ({phase.shape[0]} frames)")
    return EXIT_OK


def cmd_grad_audit(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    flow_config = cfg.flow_config()
    # float64 gradients: central differences cannot resolve float32 rounding
    model = build_model(flow_config, cfg.seed, grad_dtype=np.float64)
    rng = Rng(cfg.seed)

    # The coupling output layers initialize to zero, which would leave the
    # hidden convolutions with trivially zero gradients; nudge them so the
    # audit exercises every parameter path.
    perturb = rng.spawn(2)
    for name, param in model.params().items():
        if name.endswith("coupling.w3") or name.endswith("coupling.b3"):
            param += 0.1 * perturb.standard_normal(param.shape)

    c, h, w = flow_config.input_shape
    batch = rng.spawn(1).standard_normal((args.batch, c, h, w))
    model.forward(batch, init_actnorm=True)

    report = grad_audit(
        model,
        batch,
        h=args.h,
        tolerance=args.tolerance,
        entries_per_param=args.entries,
    )
    print("param,max_rel_err")
    for name, err in sorted(report.group_max().items()):
        print(f"{name},{err:.6e}")
    worst = report.worst
    status = "passed" if report.passed else "FAILED"
    _info(
        f"grad-audit: {status}, max rel err {report.max_rel_err:.3e} "
        f"(tolerance {report.tolerance:g}) at {worst.name}{list(worst.index)}"
    )
    if not report.passed:
        return EXIT_RUNTIME
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly

class _Parser(argparse.ArgumentParser):
    # Exact flag names only: prefix abbreviation would make --data ambiguous
    # against the dotted --data.* overrides.
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.format_usage().rstrip()}\n{self.prog}: {message}")


def _common_flags() -> argparse.ArgumentParser:
    """--seed, --config, --out-dir and the dotted config flags, built once
    and shared, as a parent, by the main parser and every subcommand, so
    they parse before and after the subcommand name."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS,
        help="base seed for every derived stream (default 0)",
    )
    parser.add_argument(
        "--config", default=argparse.SUPPRESS, metavar="FILE",
        help="JSON config file overriding the defaults",
    )
    parser.add_argument(
        "--out-dir", default=argparse.SUPPRESS, metavar="DIR",
        help="artifact directory, also the default corpus location (default out)",
    )
    for section, keys in _SCHEMA.items():
        for key, (default, _) in keys.items():
            parser.add_argument(
                f"--{section}.{key}",
                dest=f"{section}.{key}",
                default=argparse.SUPPRESS,
                metavar="V",
                help=f"override {section}.{key} (default {default})",
            )
    return parser


def build_parser() -> argparse.ArgumentParser:
    common = [_common_flags()]
    parser = _Parser(
        prog="vowelflow",
        description="Normalizing-flow pipeline over vowel spectrograms.",
        parents=common,
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text, parents=common)
        p.set_defaults(func=func)
        return p

    command("synth-data", cmd_build_corpus, "build the synthetic vowel corpus")

    p = command("prepare", cmd_build_corpus, "ingest a real corpus tree")
    p.add_argument("--corpus-root", required=True, metavar="DIR",
                   help="root with wav/ and aligned phone label files")

    p = command("train", cmd_train, "fit the flow by maximum likelihood")
    p.add_argument("--data", metavar="DIR", help="corpus directory (default out dir)")
    p.add_argument("--resume", metavar="FILE", help="checkpoint to continue from")

    p = command("encode", cmd_encode, "encode corpus segments to latent codes")
    p.add_argument("--data", metavar="DIR")
    p.add_argument("--checkpoint", metavar="FILE")
    p.add_argument("--split", choices=("train", "eval", "all"), default="all")

    p = command("sample", cmd_sample, "decode Gaussian draws to spectrograms")
    p.add_argument("--checkpoint", metavar="FILE")
    p.add_argument("--n", type=_COUNT, default=16, help="number of samples")
    p.add_argument("--temperature", type=_NONNEGATIVE, default=1.0)

    p = command("interpolate", cmd_interpolate,
                "decode convex combinations of two segment codes")
    p.add_argument("--data", metavar="DIR")
    p.add_argument("--checkpoint", metavar="FILE")
    p.add_argument("--a", required=True, metavar="UTT", help="first utterance id")
    p.add_argument("--b", required=True, metavar="UTT", help="second utterance id")
    p.add_argument("--alphas", metavar="SWEEP",
                   help="alpha sweep start:stop:step (default 0.1:0.9:0.1)")

    p = command("denoise", cmd_denoise,
                "subtract the scaled noise displacement from a noisy code")
    p.add_argument("--data", metavar="DIR")
    p.add_argument("--checkpoint", metavar="FILE")
    p.add_argument("--utt", metavar="UTT",
                   help="noisy target (default: first held-out pair)")
    p.add_argument("--beta-sweep", metavar="SWEEP",
                   help="beta sweep start:stop:step (default 0:0.8:0.1)")

    p = command("lda", cmd_lda, "two-class discriminant probe and scatter export")
    p.add_argument("--data", metavar="DIR")
    p.add_argument("--checkpoint", metavar="FILE")
    p.add_argument("--by", choices=("vowel", "gender", "speaker"), default="vowel")
    p.add_argument("--class-a", required=True, metavar="VALUE")
    p.add_argument("--class-b", required=True, metavar="VALUE")
    p.add_argument("--space", choices=("code", "pixels"), default="code")
    p.add_argument("--split", choices=("train", "eval", "all"), default="all")

    p = command("gauss-report", cmd_gauss_report,
                "per-dimension Gaussianity statistics in both spaces")
    p.add_argument("--data", metavar="DIR")
    p.add_argument("--checkpoint", metavar="FILE")
    p.add_argument("--split", choices=("train", "eval", "all"), default="all")
    p.add_argument("--dims", type=_COUNT, default=64,
                   help="dimensions sampled per space (default 64)")

    p = command("reconstruct", cmd_reconstruct,
                "resynthesize a waveform from a spectrogram via phase borrowing")
    p.add_argument("--data", metavar="DIR")
    p.add_argument("--utt", required=True, metavar="UTT",
                   help="segment supplying the phase (and default magnitude)")
    p.add_argument("--noisy", action="store_true",
                   help="use the noisy twin of --utt")
    p.add_argument("--from", dest="from_", metavar="FILE",
                   help="FSTN stack supplying the magnitude image")
    p.add_argument("--index", type=int, default=0,
                   help="image index within --from (default 0)")

    p = command("grad-audit", cmd_grad_audit,
                "finite-difference check of the analytic gradients")
    p.add_argument("--h", type=_POSITIVE, default=1e-5, help="step size")
    p.add_argument("--tolerance", type=_POSITIVE, default=1e-4)
    p.add_argument("--entries", type=_COUNT, default=4,
                   help="entries probed per parameter tensor")
    p.add_argument("--batch", type=_COUNT, default=2,
                   help="random batch size for the audit")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help exits through argparse
        return int(exc.code or 0)

    if getattr(args, "command", None) is None:
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return EXIT_USAGE

    try:
        cfg = load_run_config(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out = Path(getattr(args, "out_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    try:
        return args.func(cfg, args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

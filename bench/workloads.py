"""The benchmark's three workloads, each a closed loop over vowelflow stages.

One caller runs the stages in order and waits for each; every stage but
the direct encode/decode calls goes through `vowelflow.cli.main([...])`
with the workload seed as `--seed`, as a user would from a shell.

Each workload has a set-up (corpus and checkpoint fixtures, warm-up) and a
round: a fixed unit of work that writes the same artifacts every time for
one seed.  A measuring run repeats rounds until its time is up and reports
medians over rounds; a traced run makes one plain and one traced round and
compares their artifacts.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vowelflow import cli, latent, numerics, train
from vowelflow.dataset import CorpusReader, load_manifest

ROUND_TRIP_TOLERANCE = 1e-8
GRAD_AUDIT_TOLERANCE = 1e-4
AUDIT_SEED = 0  # the CLI default

DESK_STEPS = 50  # the default checkpoint_every=100 saves once, at the last step
WARMUP_STEPS = 5
NOISY = ("--data.noise_snr_db", "10")
FIXTURE_STEPS = 30
PAPER = (
    "--data.image_size", "288",
    "--flow.levels", "4",
    "--flow.depth", "8",
    "--flow.coupling_width", "128",
    "--train.batch_size", "2",
)
PAPER_STEPS = 1  # one step is about 30 s on a 2-core box
# `encode`, `gauss-report` and `lda` push a whole split through one
# encode_batch call, whose working set at 288x288 is about 215 MB per image
# (43 GB for 200 segments).  paper_step therefore encodes and decodes
# eval images in B=2 slices, and reports the whole-split working set as a
# computed count (latent.encode_working_set_mb) instead of running it.
PAPER_BATCH = 2
PAPER_IMAGES = 4


class Run:
    """One benchmark process: seed, work directory, checks and samples."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.tracer = None  # set while a traced round runs
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = defaultdict(list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: check failed: {what}", file=sys.stderr)

    def sample(self, metric: str, value: float) -> None:
        self.samples[metric].append(float(value))

    @contextlib.contextmanager
    def stage(self, name: str):
        """Time one stage; when tracing, spans inside it belong to it."""
        timer = StageTime()
        if self.tracer is not None:
            self.tracer.open_stage(name)
        start = time.perf_counter()
        try:
            yield timer
        finally:
            timer.seconds = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.close_stage(timer.seconds)

    def cli(self, command: str, *argv, flags=(), stage: str | None = None) -> float:
        """Run one subcommand in-process as stage `stage` (default: the
        command's name); returns its wall seconds."""
        full = ["--seed", str(self.seed), *flags, command, *(str(a) for a in argv)]
        with self.stage(stage or command) as timer:
            code = cli.main(full)
        self.check(code == 0, f"{command} exited with {code}")
        return timer.seconds

    # -- output checks ------------------------------------------------------------

    def check_losses(self, metrics_csv: Path) -> None:
        rows = _csv_rows(metrics_csv)
        losses = [float(r["nats_per_dim"]) for r in rows]
        self.samples["step_ms"].extend(float(r["wall_ms"]) for r in rows)
        self.check(bool(losses) and all(math.isfinite(v) for v in losses),
                   f"non-finite or missing loss in {metrics_csv}")

    def check_round_trip(self, decoded: np.ndarray, pixels: np.ndarray) -> None:
        err = float(np.max(np.abs(decoded - pixels)))
        self.sample("round_trip_max_abs", err)
        self.check(err <= ROUND_TRIP_TOLERANCE,
                   f"max |decode(encode(x)) - x| = {err:.3e} > {ROUND_TRIP_TOLERANCE}")


@dataclass
class StageTime:
    seconds: float = 0.0


def _csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _eval_nats(codes_csv: Path, eval_indices) -> float:
    wanted = set(eval_indices)
    rows = _csv_rows(codes_csv)
    return statistics.fmean(float(r["nats_per_dim"]) for r in rows if int(r["index"]) in wanted)


def _synth(run: Run, directory: Path, flags=()) -> float:
    """Build a corpus in a fresh `directory`; returns segments per second.

    Rewriting an existing corpus in place makes ext4 flush the old data
    first: on a 2-core VM with an 18 MB/s disk the third 288x288 rebuild
    took 7.3 s instead of 0.29 s.
    """
    shutil.rmtree(directory, ignore_errors=True)
    seconds = run.cli("synth-data", "--out-dir", directory, flags=flags)
    return len(load_manifest(directory).entries) / seconds


def _encode_decode_cli(run: Run, out: Path, checkpoint: Path, flags=()) -> None:
    """`encode` the whole corpus in `out`, then decode its codes and compare."""
    manifest = load_manifest(out)
    n = len(manifest.entries)
    seconds = run.cli("encode", "--out-dir", out, "--checkpoint", checkpoint,
                      "--split", "all", flags=flags)
    run.sample("encode_img_per_s", n / seconds)
    run.sample("eval_nats_per_dim", _eval_nats(out / "codes.csv", manifest.eval_indices()))

    model = train.load_checkpoint(checkpoint).model
    codes = numerics.read_tensor(out / "codes.fstn")
    with CorpusReader(out) as reader:
        pixels = reader.load()
    with run.stage("decode") as timer:
        decoded = latent.decode_batch(model, codes)
    run.sample("decode_img_per_s", n / timer.seconds)
    run.check_round_trip(decoded, pixels)


def _interp_pair(corpus: Path) -> tuple[str, str]:
    clean = [e.record.utterance_id for e in load_manifest(corpus).entries
             if e.record.noise_snr_db is None]
    return clean[0], clean[-1]


# ---------------------------------------------------------------------------
# desk_train: the CI-size run users and CI pay for


def desk_setup(run: Run) -> None:
    corpus = run.work / "corpus"
    _synth(run, corpus)
    run.cli("train", "--out-dir", run.work / "warm-up", "--data", corpus,
            "--train.steps", WARMUP_STEPS, stage="warm-up")


def _grad_audit(seed: int) -> tuple[int, float]:
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        code = cli.main(["--seed", str(seed), "grad-audit",
                         "--tolerance", str(GRAD_AUDIT_TOLERANCE)])
    rows = list(csv.DictReader(io.StringIO(report.getvalue())))
    return code, max((float(r["max_rel_err"]) for r in rows), default=math.inf)


def desk_checks(run: Run) -> None:
    """Gradient audit of the desk model, as `vowelflow grad-audit --tolerance
    1e-4` runs it (model seed 0, h=1e-5).

    The audit is also run at the workload seed and reported, not checked:
    its central differences cross ReLU kinks of the coupling nets, so it
    reports false failures on some seeds (seeds 1, 2, 3 and 5 of 0-7 fail
    at h=1e-5; seed 1 passes at h=1e-6 but seed 2 only at h=1e-7).
    """
    code, worst = _grad_audit(AUDIT_SEED)
    run.sample("grad_audit_max_rel_err", worst)
    run.check(code == 0 and worst <= GRAD_AUDIT_TOLERANCE,
              f"grad-audit max rel err {worst:.3e} (exit {code})")
    run.sample("grad_audit_workload_seed_max_rel_err", _grad_audit(run.seed)[1])


def desk_round(run: Run, out: Path) -> None:
    run.sample("corpus_seg_per_s", _synth(run, out))
    seconds = run.cli("train", "--out-dir", out, "--train.steps", DESK_STEPS)
    run.sample("train_steps_per_s", DESK_STEPS / seconds)
    run.check_losses(out / "metrics.csv")
    _encode_decode_cli(run, out, out / "checkpoint.fsck")
    a, b = _interp_pair(out)
    common = ("--out-dir", out, "--checkpoint", out / "checkpoint.fsck")
    run.sample("analysis_s", sum((
        run.cli("interpolate", *common, "--a", a, "--b", b),
        run.cli("gauss-report", *common),
        run.cli("lda", *common, "--class-a", "aa", "--class-b", "iy"),
    )))


# ---------------------------------------------------------------------------
# latent_infer: forward and inverse only, reading a fixture checkpoint


def latent_setup(run: Run) -> None:
    fixture = run.work / "fixture"
    _synth(run, fixture, NOISY)
    seconds = run.cli("train", "--out-dir", fixture,
                      "--train.steps", FIXTURE_STEPS, flags=NOISY)
    run.sample("train_steps_per_s", FIXTURE_STEPS / seconds)


def latent_round(run: Run, out: Path) -> None:
    checkpoint = run.work / "fixture" / "checkpoint.fsck"
    run.sample("corpus_seg_per_s", _synth(run, out, NOISY))
    _encode_decode_cli(run, out, checkpoint, NOISY)
    common = ("--out-dir", out, "--checkpoint", checkpoint)
    run.cli("sample", *common, "--n", 16, flags=NOISY)
    a, b = _interp_pair(out)
    run.sample("analysis_s", sum((
        run.cli("interpolate", *common, "--a", a, "--b", b, flags=NOISY),
        run.cli("denoise", *common, flags=NOISY),
        run.cli("gauss-report", *common, flags=NOISY),
        run.cli("lda", *common, "--class-a", "aa", "--class-b", "iy", flags=NOISY),
    )))


# ---------------------------------------------------------------------------
# paper_step: the same layers at paper size, where memory is the limit


def paper_setup(run: Run) -> None:
    run.sample("corpus_seg_per_s", _synth(run, run.work / "corpus", PAPER))


def paper_round(run: Run, out: Path) -> None:
    corpus = run.work / "corpus"
    seconds = run.cli("train", "--out-dir", out, "--data", corpus,
                      "--train.steps", PAPER_STEPS, flags=PAPER)
    run.sample("train_steps_per_s", PAPER_STEPS / seconds)
    run.check_losses(out / "metrics.csv")

    manifest = load_manifest(corpus)
    model = train.load_checkpoint(out / "checkpoint.fsck").model
    with CorpusReader(corpus) as reader:
        pixels = reader.load(manifest.eval_indices()[:PAPER_IMAGES])
    encoded, decoded = [], []
    for i in range(0, len(pixels), PAPER_BATCH):
        with run.stage("encode") as timer:
            encoded.append(latent.encode_batch(model, pixels[i:i + PAPER_BATCH]))
        run.sample("encode_img_per_s", PAPER_BATCH / timer.seconds)
    codes = np.concatenate([z for z, _ in encoded])
    lnp = np.concatenate([ll for _, ll in encoded])
    run.sample("eval_nats_per_dim", float(np.mean(-lnp / model.code_size)))
    numerics.write_tensor(out / "codes.fstn", codes)
    for i in range(0, len(codes), PAPER_BATCH):
        with run.stage("decode") as timer:
            decoded.append(latent.decode_batch(model, codes[i:i + PAPER_BATCH]))
        run.sample("decode_img_per_s", PAPER_BATCH / timer.seconds)
    run.check_round_trip(np.concatenate(decoded), pixels)

    a, b = _interp_pair(corpus)
    run.sample("analysis_s", run.cli(
        "interpolate", "--out-dir", out, "--data", corpus, "--checkpoint", out / "checkpoint.fsck",
        "--a", a, "--b", b, "--alphas", "0.5", flags=PAPER,
    ))


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    round: object
    checks: object = None  # run once before set-up; not part of setup_s
    corpus: str = "corpus"  # work subdirectory whose size the working set uses
    # An unmeasured first round, counted in set-up: the first round after
    # set-up runs 10-40% slower while the allocator and page cache warm up.
    # At paper size a round is ~35 s and its arrays are mapped fresh anyway.
    warm_up: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_train", desk_setup, desk_round, desk_checks),
        Workload("latent_infer", latent_setup, latent_round, corpus="fixture"),
        Workload("paper_step", paper_setup, paper_round, warm_up=False),
    )
}


def warm_up(run: Run, workload: Workload) -> float:
    """Run one round whose samples are dropped; returns its seconds."""
    if not workload.warm_up:
        return 0.0
    kept = {name: list(values) for name, values in run.samples.items()}
    start = time.perf_counter()
    workload.round(run, run.work / "warm-up-round")
    seconds = time.perf_counter() - start
    run.samples = defaultdict(list, kept)
    return seconds

"""End-to-end acceptance gate: one test per shipped guarantee.

Each test prints a single summary line with the measured quantity and the
bound it is held to.  The trained-model fixtures are session scoped: three
seeded 500-step runs on the 200-segment clean corpus, and three more on
its 10 dB noisy-twin variant.
"""

import filecmp
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from vowelflow.cli import main as cli_main
from vowelflow.dataset import CorpusReader, load_manifest
from vowelflow.flow import FlowConfig
from vowelflow.latent import (
    decode_batch,
    denoise,
    displacement,
    encode_batch,
    gaussianity_report,
    interpolate,
    lda_fit,
    sample,
)
from vowelflow.numerics import Rng, read_tensor
from vowelflow.signal import frame_count, istft_phase_borrow, stft
from vowelflow.train import build_model, grad_audit, load_checkpoint

SEEDS = (0, 1, 2)

# The smoke-training recipe: criterion-pinned corpus (200 segments, 32x32)
# and step count (500), with the learning rate raised to 1e-3 so the same
# runs serve both the loss-decrease and the gaussianization checks.
TRAIN_LR = "1e-3"


def summarize(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def run_pipeline(out, seed, extra=(), steps=None):
    base = ["--seed", str(seed), "--train.lr", TRAIN_LR, "--out-dir", str(out)]
    base += list(extra)
    if steps is not None:
        base += ["--train.steps", str(steps)]
    assert cli_main(base + ["synth-data"]) == 0
    assert cli_main(base + ["train"]) == 0
    return out


@pytest.fixture(scope="session")
def desk_runs(tmp_path_factory):
    """Seed -> run dir for the clean 200-segment smoke trainings."""
    return {
        seed: run_pipeline(tmp_path_factory.mktemp(f"desk{seed}"), seed)
        for seed in SEEDS
    }


@pytest.fixture(scope="session")
def noisy_runs(tmp_path_factory):
    """Seed -> run dir for the 10 dB clean/noisy-twin trainings."""
    return {
        seed: run_pipeline(
            tmp_path_factory.mktemp(f"noisy{seed}"),
            seed,
            extra=["--data.noise_snr_db", "10"],
        )
        for seed in SEEDS
    }


def model_for(run_dir):
    return load_checkpoint(run_dir / "checkpoint.fsck").model


def corpus_pixels(run_dir, indices=None):
    with CorpusReader(run_dir) as reader:
        return reader.load(indices)


def tiny_random_model(seed, levels=1, depth=1, size=4, width=4, batch=3):
    """Small flow with randomized couplings and data-initialized actnorms,
    and float64 gradients for criterion 03's finite differences."""
    config = FlowConfig(
        levels=levels, depth=depth, coupling_width=width, input_shape=(1, size, size)
    )
    model = build_model(config, seed, grad_dtype=np.float64)
    rng = Rng(seed).spawn(2)
    for name, param in model.params().items():
        if name.endswith("coupling.w3") or name.endswith("coupling.b3"):
            param += 0.5 * rng.standard_normal(param.shape)
    init = Rng(seed).spawn(3).standard_normal((batch, 1, size, size))
    model.forward(init, init_actnorm=True)
    return model


class TestAcceptance:
    def test_criterion_01_bijection(self, desk_runs):
        x = Rng(123).standard_normal((2000, 1, 32, 32))
        errs = []
        for seed in SEEDS:
            model = model_for(desk_runs[seed])
            back = decode_batch(model, encode_batch(model, x)[0])
            errs.append(float(np.abs(back - x).max()))
        summarize(
            "bijection",
            max(errs) <= 1e-8,
            "max |decode(encode(x)) - x| over 2000 draws, seeds 0/1/2 = "
            + ", ".join(f"{e:.3e}" for e in errs),
        )

    def test_criterion_02_exact_logdet(self):
        h = 1e-6
        worst = 0.0
        for draw in range(20):
            model = tiny_random_model(seed=100 + draw)
            x = Rng(1000 + draw).standard_normal((1, 1, 4, 4))
            _, logdet, _ = model.forward(x)
            jac = np.zeros((16, 16))
            for j in range(16):
                step = np.zeros(16)
                step[j] = h
                xp = x + step.reshape(1, 1, 4, 4)
                xm = x - step.reshape(1, 1, 4, 4)
                zp = model.forward(xp)[0][0]
                zm = model.forward(xm)[0][0]
                jac[:, j] = (zp - zm) / (2 * h)
            _, fd_logdet = np.linalg.slogdet(jac)
            rel = abs(fd_logdet - logdet[0]) / max(1.0, abs(fd_logdet))
            worst = max(worst, rel)
        summarize(
            "exact log-det",
            worst <= 1e-5,
            f"worst relative error vs assembled Jacobian = {worst:.3e} over 20 draws",
        )

    def test_criterion_03_gradient_audit(self):
        model = tiny_random_model(seed=9)
        batch = Rng(10).standard_normal((3, 1, 4, 4))
        report = grad_audit(model, batch, h=1e-5, tolerance=1e-5)
        covered = {entry.name for entry in report.entries}
        ok = report.passed and covered == set(model.params())
        summarize(
            "gradient audit",
            ok,
            f"max relative error {report.max_rel_err:.3e} over "
            f"{len(covered)} parameter groups at tolerance 1e-5",
        )

    def test_criterion_04_training_smoke(self, desk_runs):
        window = 25
        drops = []
        for seed, run_dir in desk_runs.items():
            rows = [
                line.split(",")
                for line in (run_dir / "metrics.csv").read_text().splitlines()
                if not line.startswith(("#", "step"))
            ]
            nats = np.array([float(r[1]) for r in rows])
            assert len(nats) == 500
            smooth = np.convolve(nats, np.ones(window) / window, "valid")
            drops.append(1.0 - smooth[-1] / smooth[0])
        ok = all(drop >= 0.10 for drop in drops)
        detail = ", ".join(f"seed {s}: {d:.1%}" for s, d in zip(desk_runs, drops))
        summarize("training smoke", ok, f"smoothed nats/dim drop {detail}")

    def test_criterion_05_gaussianization_proxy(self, desk_runs):
        votes, details = [], []
        for seed, run_dir in desk_runs.items():
            model = model_for(run_dir)
            pixels = corpus_pixels(run_dir)
            codes, _ = encode_batch(model, pixels)
            flat = pixels.reshape(pixels.shape[0], -1)
            rng = Rng(seed)
            dims_c = np.sort(rng.spawn(0).permutation(codes.shape[1])[:64])
            dims_p = np.sort(rng.spawn(1).permutation(flat.shape[1])[:64])
            code_k = gaussianity_report(codes[:, dims_c]).mean_abs_excess_kurtosis
            pixel_k = gaussianity_report(flat[:, dims_p]).mean_abs_excess_kurtosis
            votes.append(code_k < pixel_k)
            details.append(f"seed {seed}: code {code_k:.2f} vs pixel {pixel_k:.2f}")
        summarize(
            "gaussianization proxy",
            sum(votes) >= 2,
            f"{sum(votes)}/3 seeds strictly lower; " + ", ".join(details),
        )

    def test_criterion_06_sampling(self, desk_runs):
        model = model_for(desk_runs[0])
        z, images = sample(model, Rng(6), 16, temperature=1.0)
        finite = bool(np.isfinite(images).all())
        z_back, _ = encode_batch(model, images)
        err = float(np.abs(z_back - z).max())
        summarize(
            "sampling",
            finite and err <= 1e-8,
            f"16 samples finite = {finite}, re-encoding error = {err:.3e}",
        )

    def test_criterion_07_interpolation(self, desk_runs):
        run_dir = desk_runs[0]
        manifest = load_manifest(run_dir)
        utts = {e.record.utterance_id: i for i, e in enumerate(manifest.entries)}
        pixels = corpus_pixels(
            run_dir, [utts["spk00_aa_000"], utts["spk00_ae_000"]]
        )
        model = model_for(run_dir)
        z, _ = encode_batch(model, pixels)

        sweep = interpolate(model, z[0], z[1])
        nine = sweep.images.shape[0] == 9
        finite = bool(np.isfinite(sweep.images).all())
        assert_allclose(sweep.ts, np.linspace(0.1, 0.9, 9), atol=1e-12)

        ends = interpolate(model, z[0], z[1], alphas=[0.0, 1.0])
        assert_array_equal(ends.codes[0], z[0])
        assert_array_equal(ends.codes[1], z[1])
        lo = np.minimum(z[0], z[1])
        hi = np.maximum(z[0], z[1])
        convex = bool(
            ((sweep.codes >= lo - 1e-12) & (sweep.codes <= hi + 1e-12)).all()
        )
        summarize(
            "interpolation protocol",
            nine and finite and convex,
            f"9 decodable spectrograms = {nine}, finite = {finite}, "
            f"endpoints exact, codes convex = {convex}",
        )

    def test_criterion_08_denoising(self, noisy_runs):
        betas = np.linspace(0.0, 0.8, 9)
        votes, details = [], []
        for seed, run_dir in noisy_runs.items():
            model = model_for(run_dir)
            manifest = load_manifest(run_dir)
            train_utts = set(manifest.train_utterances)
            pairs = manifest.clean_noisy_pairs()
            fit = [
                p for p in pairs
                if manifest.entries[p[0]].record.utterance_id in train_utts
            ]
            held = [
                p for p in pairs
                if manifest.entries[p[0]].record.utterance_id not in train_utts
            ]
            assert fit and held
            with CorpusReader(run_dir) as reader:
                z_clean, _ = encode_batch(model, reader.load([p[0] for p in fit]))
                z_noisy, _ = encode_batch(model, reader.load([p[1] for p in fit]))
                xi = displacement(z_clean, z_noisy)
                per_beta = []
                for clean_i, noisy_i in held:
                    clean_px = reader.pixels(clean_i)
                    z, _ = encode_batch(model, reader.pixels(noisy_i)[None])
                    result = denoise(model, z[0], xi, betas)
                    per_beta.append(
                        np.mean((result.images - clean_px[None]) ** 2, axis=(1, 2, 3))
                    )
            mse = np.mean(per_beta, axis=0)
            votes.append(mse[1:].min() < mse[0])
            details.append(f"seed {seed}: best {mse[1:].min():.3f} vs {mse[0]:.3f}")
        summarize(
            "denoising protocol",
            sum(votes) >= 2,
            f"{sum(votes)}/3 seeds improve on beta=0 over "
            f"{len(held)} held-out segments; " + ", ".join(details),
        )

    def test_criterion_09_lda_probe(self, desk_runs, tmp_path):
        run_dir = desk_runs[0]
        tasks = [
            ("vowel", "aa", "iy"),
            ("gender", "M", "F"),
            ("speaker", "spk00", "spk01"),
        ]
        ratios = {}
        for by, a, b in tasks:
            for space in ("code", "pixels"):
                out = tmp_path / f"{by}_{space}"
                rc = cli_main([
                    "--out-dir", str(out), "lda",
                    "--data", str(run_dir),
                    "--checkpoint", str(run_dir / "checkpoint.fsck"),
                    "--by", by, "--class-a", a, "--class-b", b,
                    "--space", space,
                ])
                assert rc == 0
                scatter = (out / "lda_scatter.csv").read_text().splitlines()
                assert scatter[1] == "p1,p2,label"
                assert len(scatter) > 3
                report = json.loads((out / "lda.json").read_text())
                ratios[(by, space)] = float(report["fisher_ratio"])
        assert all(r >= 0 for r in ratios.values())

        probe = lda_fit(
            np.array([[0.0, 0.0], [0.0, 2.0]]),
            np.array([[4.0, 0.0], [4.0, 2.0]]),
        )
        assert_allclose(probe.direction_1, [1.0, 0.0], atol=1e-12)
        assert_allclose(probe.direction_2, [0.0, 1.0], atol=1e-12)
        pairs = ", ".join(
            f"{by}: {ratios[(by, 'pixels')]:.3g}/{ratios[(by, 'code')]:.3g}"
            for by, _, _ in tasks
        )
        summarize(
            "lda probe",
            True,
            f"closed-form oracle exact; fisher ratio pixel/code {pairs}",
        )

    def test_criterion_10_signal_round_trip(self):
        rng = Rng(77)
        t = np.arange(16000) / 16000.0
        samples = (
            np.sin(2 * np.pi * 220 * t)
            + 0.5 * np.sin(2 * np.pi * 730 * t)
            + 0.1 * rng.standard_normal(16000)
        )
        spec = stft(samples)
        back = istft_phase_borrow(np.abs(spec), spec)
        n = min(len(samples), len(back))
        interior = slice(400, n - 400)
        x = samples[interior]
        err = x - back[interior]
        snr = 10 * np.log10(np.sum(x * x) / np.sum(err * err))

        count_rng = Rng(78)
        exact = all(
            frame_count(n_samples, 400, 16) == len(range(0, n_samples - 400 + 1, 16))
            for n_samples in (
                int(count_rng.integers(400, 50_000)) for _ in range(1000)
            )
        )
        summarize(
            "signal round trip",
            snr >= 30.0 and exact,
            f"interior reconstruction SNR = {snr:.1f} dB, "
            f"frame-count formula exact on 1000 lengths = {exact}",
        )

    def test_criterion_11_determinism(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            base = ["--seed", "4", "--train.steps", "100", "--out-dir", str(d)]
            assert cli_main(base + ["synth-data"]) == 0
            assert cli_main(base + ["train"]) == 0
            assert cli_main(base + ["sample", "--n", "8"]) == 0
        names = sorted(p.name for p in dirs[0].iterdir() if p.is_file())
        assert {
            "corpus.fstn", "corpus.json", "manifest.jsonl",
            "checkpoint.fsck", "metrics.csv",
            "samples.fstn", "samples.pgm", "samples.csv",
        } <= set(names)
        identical = []
        for name in names:
            a, b = dirs[0] / name, dirs[1] / name
            if name == "metrics.csv":
                # byte-identical apart from the wall-clock column
                rows_a = [r.rsplit(",", 1)[0] for r in a.read_text().splitlines()]
                rows_b = [r.rsplit(",", 1)[0] for r in b.read_text().splitlines()]
                identical.append(rows_a == rows_b)
            else:
                identical.append(filecmp.cmp(a, b, shallow=False))
        summarize(
            "determinism",
            all(identical),
            f"{sum(identical)}/{len(names)} artifacts byte-identical "
            "(metrics compared without wall-clock)",
        )

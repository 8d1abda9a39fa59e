"""Command-line interface: exit codes, config merging, artifacts."""

import filecmp
import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import wave
import zlib
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vowelflow import cli, dataset, flow, train
from vowelflow.cli import (
    _SCHEMA,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    UsageError,
    build_parser,
    load_run_config,
    main,
    parse_sweep,
)
from vowelflow.dataset import load_manifest
from vowelflow.latent import DEFAULT_DENOISE_BETAS, DEFAULT_INTERP_ALPHAS, encode_batch
from vowelflow.numerics import Rng, conv2d, read_tensor, write_tensor
from vowelflow.signal import read_wav, stft, synth_vowel, write_wav
from vowelflow.train import load_checkpoint

# Tiny but complete setup: 2 speakers x 5 vowels x 3 draws with 10 dB noisy
# twins, 16x16 images, a 2-level flow, and a 12-step training run.
TINY_FLAGS = [
    "--seed", "5",
    "--data.image_size", "16",
    "--data.noise_snr_db", "10",
    "--data.write_wavs", "true",
    "--synth.n_speakers", "2",
    "--synth.draws_per_vowel", "3",
    "--flow.levels", "2",
    "--flow.depth", "1",
    "--flow.coupling_width", "8",
    "--train.steps", "12",
    "--train.lr", "1e-3",
    "--train.checkpoint_every", "6",
]


# The whole config surface: every --section.key flag with its default, and
# the default echo embedded in artifacts.
DEFAULTS = {
    "data.image_size": 32,
    "data.noise_snr_db": None,
    "data.write_wavs": False,
    "synth.n_speakers": 4,
    "synth.draws_per_vowel": 10,
    "flow.levels": 3,
    "flow.depth": 2,
    "flow.coupling_width": 32,
    "train.steps": 500,
    "train.batch_size": 16,
    "train.lr": 1e-4,
    "train.clip_norm": 50.0,
    "train.jitter": 0.01,
    "train.checkpoint_every": 100,
}
DEFAULT_ECHO = (
    '{"data": {"image_size": 32, "noise_snr_db": null, "write_wavs": false}, '
    '"flow": {"coupling_width": 32, "depth": 2, "levels": 3}, "seed": 0, '
    '"synth": {"draws_per_vowel": 10, "n_speakers": 4}, '
    '"train": {"batch_size": 16, "checkpoint_every": 100, "clip_norm": 50.0, '
    '"jitter": 0.01, "lr": 0.0001, "steps": 500}}'
)


def run(out_dir, *argv):
    return main(TINY_FLAGS + ["--out-dir", str(out_dir)] + list(argv))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Corpus plus trained checkpoint shared by the artifact tests.

    Nothing runs `encode` in this directory, so every analysis here
    encodes its rows afresh."""
    out = tmp_path_factory.mktemp("pipeline")
    assert run(out, "synth-data") == EXIT_OK
    assert run(out, "train") == EXIT_OK
    return out


def encode_into(out_dir, pipeline, *argv):
    """`encode` the pipeline's corpus with its checkpoint, writing to `out_dir`."""
    return run(out_dir, "encode", "--data", str(pipeline),
               "--checkpoint", str(pipeline / "checkpoint.fsck"), *argv)


def write_8khz_wav(path, n_samples):
    """A silent 16-bit mono WAV at 8 kHz, half the front end's one rate."""
    with wave.open(str(path), "wb") as fp:
        fp.setnchannels(1)
        fp.setsampwidth(2)
        fp.setframerate(8000)
        fp.writeframes(b"\0\0" * n_samples)


def parse_config(namespace_args):
    parser = build_parser()
    return load_run_config(parser.parse_args(namespace_args))


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_is_usage_error(self):
        assert main(["synth-data", "--bogus"]) == EXIT_USAGE

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"train": {"momentum": 0.9}}')
        assert main(["--config", str(cfg), "synth-data"]) == EXIT_USAGE

    def test_malformed_config_file_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["--config", str(cfg), "synth-data"]) == EXIT_USAGE

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert main(["--config", str(tmp_path / "no.json"), "synth-data"]) == EXIT_USAGE

    def test_bad_flag_value_is_usage_error(self):
        assert main(["--train.steps", "1.5", "synth-data"]) == EXIT_USAGE

    def test_stft_flag_is_unknown(self, capsys):
        # the spectrogram front end is fixed; it has no config keys
        assert main(["--data.fft_size", "512", "synth-data"]) == EXIT_USAGE
        assert main(["synth-data", "--data.fft_size", "512"]) == EXIT_USAGE
        assert "unrecognized arguments: --data.fft_size" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["data.train_fraction", "train.beta1", "train.beta2",
                                     "train.eps"])
    def test_retired_config_key_is_unknown(self, tmp_path, capsys, key):
        # the split fraction and Adam's settings are constants now; a
        # flag or a config file naming one is a usage error
        section, name = key.split(".")
        value = {"train_fraction": 0.8}.get(name, 0.9)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {name: value}}))
        assert main(["--config", str(cfg), "train"]) == EXIT_USAGE
        assert f"unknown config key {key}" in capsys.readouterr().err
        assert main(["train", f"--{key}", str(value)]) == EXIT_USAGE
        assert f"unrecognized arguments: --{key}" in capsys.readouterr().err

    def test_stft_config_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"data": {"fft_size": 512}}')
        assert main(["--config", str(cfg), "synth-data"]) == EXIT_USAGE
        assert "unknown config key data.fft_size" in capsys.readouterr().err

    def test_prepare_rejects_other_sample_rates(self, tmp_path, capsys):
        speaker = tmp_path / "timit" / "dr1" / "MABC0"
        speaker.mkdir(parents=True)
        write_8khz_wav(speaker / "sx1.wav", 3200)
        (speaker / "sx1.phn").write_text("0 3200 aa\n")
        rc = main(["--out-dir", str(tmp_path / "out"), "prepare",
                   "--corpus-root", str(tmp_path / "timit")])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert str(speaker / "sx1.wav") in err and "8000 Hz" in err

    def test_reconstruct_rejects_other_sample_rates(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(out, "synth-data") == EXIT_OK
        index = cli._find_segment(load_manifest(out), "spk00_aa_000", noisy=False)
        write_8khz_wav(dataset.wav_path(out, index), 3200)
        assert run(out, "reconstruct", "--utt", "spk00_aa_000") == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"error: {dataset.wav_path(out, index)}: sample rate 8000 Hz" in err
        assert not (out / "recon_spk00_aa_000.wav").exists()

    def test_prepare_rejects_segment_past_wav_end(self, tmp_path, capsys):
        speaker = tmp_path / "timit" / "dr1" / "MABC0"
        speaker.mkdir(parents=True)
        write_wav(speaker / "sx1.wav", synth_vowel(Rng(1), "aa", 120.0, 0.2))
        (speaker / "sx1.phn").write_text("0 9600 aa\n")
        rc = main(["--out-dir", str(tmp_path / "out"), "prepare",
                   "--corpus-root", str(tmp_path / "timit")])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert str(speaker / "sx1.phn") in err and "'0 9600 aa'" in err
        assert "3200 samples" in err

    @pytest.mark.parametrize(
        "phn, message",
        [("0 3200 aa\n-3200 6400 iy\n", "line 2: negative sample index in '-3200 6400 iy'"),
         ("0 3200 aa\n5 3 iy\n", "line 2: begin 5 >= end 3")],
    )
    def test_prepare_alignment_errors_name_the_phn_file(self, tmp_path, capsys, phn, message):
        speaker = tmp_path / "timit" / "dr1" / "MABC0"
        speaker.mkdir(parents=True)
        write_wav(speaker / "sx1.wav", synth_vowel(Rng(1), "aa", 120.0, 0.4))
        (speaker / "sx1.phn").write_text(phn)
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "prepare", "--corpus-root", str(tmp_path / "timit")])
        assert rc == EXIT_RUNTIME
        assert f"error: {speaker / 'sx1.phn'}: {message}" in capsys.readouterr().err
        assert not (out / "manifest.jsonl").exists()

    @pytest.mark.parametrize(
        "channels, width, message",
        [(2, 2, "expected mono WAV, got 2 channels"),
         (1, 1, "expected 16-bit PCM, got 8-bit")],
    )
    def test_prepare_wav_format_errors_name_the_file(
        self, tmp_path, capsys, channels, width, message
    ):
        speaker = tmp_path / "timit" / "dr1" / "MABC0"
        speaker.mkdir(parents=True)
        with wave.open(str(speaker / "sx1.wav"), "wb") as fp:
            fp.setnchannels(channels)
            fp.setsampwidth(width)
            fp.setframerate(16000)
            fp.writeframes(b"\0" * channels * width * 3200)
        (speaker / "sx1.phn").write_text("0 3200 aa\n")
        rc = main(["--out-dir", str(tmp_path / "out"), "prepare",
                   "--corpus-root", str(tmp_path / "timit")])
        assert rc == EXIT_RUNTIME
        assert f"{speaker / 'sx1.wav'}: {message}" in capsys.readouterr().err

    def test_failed_prepare_keeps_the_existing_corpus(self, tmp_path, capsys):
        # the second utterance's alignment is bad, so the build fails after
        # it has streamed the first one; the corpus already in out stays
        speaker = tmp_path / "timit" / "dr1" / "MABC0"
        speaker.mkdir(parents=True)
        for utt in ("sx1", "sx2"):
            write_wav(speaker / f"{utt}.wav", synth_vowel(Rng(1), "aa", 120.0, 0.2))
            (speaker / f"{utt}.phn").write_text("0 3200 aa\n")
        out = tmp_path / "out"
        assert run(out, "synth-data") == EXIT_OK
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        (speaker / "sx2.phn").write_text("0 3200 aa\n5 3 iy\n")
        rc = main(TINY_FLAGS + ["--out-dir", str(out), "prepare",
                                "--corpus-root", str(tmp_path / "timit")])
        assert rc == EXIT_RUNTIME
        assert f"{speaker / 'sx2.phn'}: line 2" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert not list(out.glob(".build-*"))
        manifest = load_manifest(out)
        with dataset.CorpusReader(out, manifest) as reader:
            assert reader.load().shape == (len(manifest.entries), 1, 16, 16)

    def test_prepare_pairs_each_noisy_segment_with_its_clean_sibling(self, tmp_path):
        # one utterance holding two vowel segments under one id
        speaker = tmp_path / "timit" / "dr1" / "MABC0"
        speaker.mkdir(parents=True)
        aa = synth_vowel(Rng(1), "aa", 120.0, 0.2)
        iy = synth_vowel(Rng(2), "iy", 130.0, 0.2)
        write_wav(speaker / "sx1.wav", np.concatenate([aa, iy]))
        n, m = len(aa), len(aa) + len(iy)
        (speaker / "sx1.phn").write_text(f"0 {n} aa\n{n} {m} iy\n")
        out = tmp_path / "out"
        rc = main(["--data.noise_snr_db", "10", "--out-dir", str(out), "prepare",
                   "--corpus-root", str(tmp_path / "timit")])
        assert rc == EXIT_OK
        manifest = load_manifest(out)
        pairs = manifest.clean_noisy_pairs()
        assert pairs == [(0, 1), (2, 3)]
        for ci, ni in pairs:
            clean, noisy = manifest.entries[ci].record, manifest.entries[ni].record
            assert (clean.vowel, clean.noise_snr_db) == (noisy.vowel, None)

    def test_prepare_writes_one_wav_per_segment(self, tmp_path):
        # one utterance holding two vowel segments under one id
        speaker = tmp_path / "timit" / "dr1" / "MABC0"
        speaker.mkdir(parents=True)
        aa = synth_vowel(Rng(1), "aa", 120.0, 0.2)
        iy = synth_vowel(Rng(2), "iy", 130.0, 0.25)
        write_wav(speaker / "sx1.wav", np.concatenate([aa, iy]))
        source = read_wav(speaker / "sx1.wav")
        n, m = len(aa), len(aa) + len(iy)
        (speaker / "sx1.phn").write_text(f"0 {n} aa\n{n} {m} iy\n")
        out = tmp_path / "out"
        rc = main(["--data.noise_snr_db", "10", "--data.write_wavs", "true",
                   "--out-dir", str(out), "prepare",
                   "--corpus-root", str(tmp_path / "timit")])
        assert rc == EXIT_OK
        assert sorted(p.name for p in (out / "wavs").iterdir()) == [
            "0.wav", "1.wav", "2.wav", "3.wav"
        ]
        wavs = [read_wav(dataset.wav_path(out, i)) for i in range(4)]
        np.testing.assert_array_equal(wavs[0], source[:n])  # clean /aa/
        np.testing.assert_array_equal(wavs[2], source[n:m])  # clean /iy/
        for clean, noisy in ((0, 1), (2, 3)):
            assert len(wavs[noisy]) == len(wavs[clean])
            assert not np.array_equal(wavs[noisy], wavs[clean])

    @pytest.mark.parametrize("snr", ["inf", "nan"])
    def test_non_finite_noise_snr_rejected_before_any_stft(
        self, tmp_path, capsys, monkeypatch, snr
    ):
        calls = []
        monkeypatch.setattr(dataset, "stft", lambda *a: calls.append(a))
        out = tmp_path / "out"
        rc = main(["--data.noise_snr_db", snr, "--out-dir", str(out), "synth-data"])
        assert rc == EXIT_RUNTIME
        assert "noise_snr_db must be finite" in capsys.readouterr().err
        assert calls == []
        assert not (out / "manifest.jsonl").exists()

    @pytest.mark.parametrize("fraction", ["7", "-3", "0", "nan"])
    def test_bad_train_fraction_rejected_before_any_stft(
        self, tmp_path, capsys, monkeypatch, fraction
    ):
        # the split fraction is the constant dataset.TRAIN_FRACTION: no
        # value of the retired key gets past the parser
        calls = []
        monkeypatch.setattr(dataset, "stft", lambda *a: calls.append(a))
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "synth-data", "--data.train_fraction", fraction])
        assert rc == EXIT_USAGE
        assert "unrecognized arguments: --data.train_fraction" in capsys.readouterr().err
        assert calls == []
        assert not (out / "manifest.jsonl").exists()

    @pytest.mark.parametrize(
        "command, key, value, message, code",
        [("synth-data", "data.image_size", "0", "image_size must be a positive divisor", EXIT_RUNTIME),
         ("synth-data", "data.image_size", "-32", "image_size must be a positive divisor", EXIT_RUNTIME),
         ("grad-audit", "data.image_size", "0", "input size, levels, depth", EXIT_RUNTIME),
         ("grad-audit", "data.image_size", "-32", "input size, levels, depth", EXIT_RUNTIME),
         ("train", "train.clip_norm", "nan", "clip_norm, jitter must be finite", EXIT_RUNTIME),
         ("train", "train.clip_norm", "inf", "clip_norm, jitter must be finite", EXIT_RUNTIME),
         # Adam's eps is the constant train.ADAM_EPS: the parser knows no
         # --train.eps, so it reads the value as the command and refuses it
         ("train", "train.eps", "inf", "invalid choice: 'inf'", EXIT_USAGE),
         ("train", "train.lr", "nan", "clip_norm, jitter must be finite", EXIT_RUNTIME),
         ("train", "train.lr", "inf", "clip_norm, jitter must be finite", EXIT_RUNTIME),
         ("train", "train.jitter", "inf", "clip_norm, jitter must be finite", EXIT_RUNTIME)],
    )
    def test_out_of_range_config_value_rejected_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, key, value, message, code
    ):
        calls = []
        monkeypatch.setattr(dataset, "stft", lambda *a: calls.append(a))
        out = tmp_path / "out"
        rc = main([f"--{key}", value, "--out-dir", str(out), command])
        assert rc == code
        assert message in capsys.readouterr().err
        assert calls == []
        if code == EXIT_USAGE:
            assert not out.exists()
        else:
            assert list(out.iterdir()) == []

    def test_reconstruct_names_later_segments_of_an_utterance(self, tmp_path, capsys):
        # one utterance holding /aa/ then a 226-frame /iy/: the second
        # segment's id is <utt>.1, and its noisy twin shares it
        speaker = tmp_path / "timit" / "dr1" / "MABC0"
        speaker.mkdir(parents=True)
        aa = synth_vowel(Rng(1), "aa", 120.0, 0.2)
        iy = synth_vowel(Rng(2), "iy", 130.0, 0.25)
        write_wav(speaker / "sx1.wav", np.concatenate([aa, iy]))
        n, m = len(aa), len(aa) + len(iy)
        (speaker / "sx1.phn").write_text(f"0 {n} aa\n{n} {m} iy\n")
        out = tmp_path / "out"
        flags = ["--data.noise_snr_db", "10", "--data.write_wavs", "true", "--out-dir", str(out)]
        assert main(flags + ["prepare", "--corpus-root", str(tmp_path / "timit")]) == EXIT_OK
        assert load_manifest(out).segment_ids() == [
            "dr1_MABC0_sx1", "dr1_MABC0_sx1", "dr1_MABC0_sx1.1", "dr1_MABC0_sx1.1"
        ]
        capsys.readouterr()
        assert main(flags + ["reconstruct", "--utt", "dr1_MABC0_sx1.1"]) == EXIT_OK
        assert "(226 frames)" in capsys.readouterr().err
        assert len(read_wav(out / "recon_dr1_MABC0_sx1.1.wav")) == len(iy)
        assert main(flags + ["reconstruct", "--utt", "dr1_MABC0_sx1.2"]) == EXIT_RUNTIME
        assert "no clean segment with id 'dr1_MABC0_sx1.2'" in capsys.readouterr().err

    def test_missing_corpus_is_runtime_error(self, tmp_path, capsys):
        assert run(tmp_path / "empty", "train") == EXIT_RUNTIME
        assert "error" in capsys.readouterr().err.lower()

    def test_torn_corpus_header_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(out, "synth-data") == EXIT_OK
        header = out / "corpus.json"
        header.write_text(header.read_text()[:100])
        capsys.readouterr()
        assert run(out, "encode") == EXIT_RUNTIME
        assert "corpus.json" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["train"], ["encode"], ["gauss-report", "--dims", "8"]])
    def test_short_archive_is_runtime_error(self, pipeline, tmp_path, capsys, argv):
        out = copy_run(pipeline, tmp_path / "run")
        archive = out / "corpus.fstn"
        archive.write_bytes(archive.read_bytes()[:-100])  # the last record cut short
        capsys.readouterr()
        assert run(out, *argv) == EXIT_RUNTIME
        assert "corpus.fstn" in capsys.readouterr().err

    def test_missing_checkpoint_is_runtime_error(self, tmp_path):
        out = tmp_path / "out"
        assert run(out, "synth-data") == EXIT_OK
        assert run(out, "sample", "--n", "2") == EXIT_RUNTIME

    def test_divergence_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(out, "synth-data") == EXIT_OK
        with np.errstate(over="ignore", invalid="ignore"):
            rc = run(out, "--train.lr", "1e6", "train")
        assert rc == EXIT_RUNTIME
        assert "diverge" in capsys.readouterr().err.lower()

    def test_mismatched_image_size_leaves_a_finished_run_intact(self, tmp_path, capsys):
        base = ["--seed", "5", "--synth.n_speakers", "2", "--synth.draws_per_vowel", "3",
                "--out-dir", str(tmp_path)]
        assert main(base + ["synth-data"]) == EXIT_OK
        assert main(base + ["--train.steps", "3", "train"]) == EXIT_OK
        kept = ("metrics.csv", "checkpoint.fsck")
        before = [(tmp_path / name).read_bytes() for name in kept]
        capsys.readouterr()
        rc = main(base + ["--data.image_size", "16", "--train.steps", "1", "train"])
        assert rc == EXIT_RUNTIME
        assert "expected batch of (1, 16, 16)" in capsys.readouterr().err
        assert [(tmp_path / name).read_bytes() for name in kept] == before

    def test_failed_audit_is_runtime_error(self, tmp_path):
        rc = run(tmp_path, "grad-audit", "--tolerance", "1e-14")
        assert rc == EXIT_RUNTIME

    @pytest.mark.parametrize("seed", [1, 2, 3, 5])
    def test_grad_audit_passes_across_relu_kinks(self, seed, capsys):
        # the desk model at these seeds has probes whose +-h evaluations
        # straddle a coupling ReLU kink
        assert main(["--seed", str(seed), "grad-audit", "--tolerance", "1e-4"]) == EXIT_OK
        worst = capsys.readouterr().err.strip().rsplit(" at ", 1)[1]
        assert re.fullmatch(r"[\w.]+\[\d+(, \d+)*\]", worst), worst

    def test_grad_audit_still_fails_a_wrong_gradient(self, monkeypatch, capsys):
        true_loss_and_grads = train.loss_and_grads

        def off_by_a_tenth_of_a_percent(model, batch, init_actnorm=False):
            loss, grads = true_loss_and_grads(model, batch, init_actnorm)
            grads["level0.step0.coupling.w1"] *= 1.001
            return loss, grads

        monkeypatch.setattr(train, "loss_and_grads", off_by_a_tenth_of_a_percent)
        assert main(["--seed", "2", "grad-audit", "--tolerance", "1e-4"]) == EXIT_RUNTIME
        assert "FAILED" in capsys.readouterr().err

    def test_unknown_utterance_is_runtime_error(self, pipeline):
        rc = run(pipeline, "interpolate", "--a", "nope", "--b", "spk00_aa_000")
        assert rc == EXIT_RUNTIME

    @pytest.mark.parametrize(
        "command, flag, value",
        [("grad-audit", "--entries", "0"),
         ("grad-audit", "--batch", "0"),
         ("grad-audit", "--tolerance", "nan"),
         ("grad-audit", "--h", "nan"),
         ("grad-audit", "--h", "inf"),
         ("sample", "--temperature", "inf"),
         ("sample", "--temperature", "nan"),
         ("sample", "--n", "0"),
         ("gauss-report", "--dims", "0"),
         ("gauss-report", "--dims", "-5")],
    )
    def test_out_of_range_numeric_flag_is_usage_error(
        self, tmp_path, capsys, command, flag, value
    ):
        # rejected while parsing: nothing is loaded, computed or written
        out = tmp_path / "out"
        assert run(out, command, flag, value) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"argument {flag}: expected " in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv", [["interpolate", "--a", "x", "--b", "y", "--alphas", "nan"],
                 ["denoise", "--beta-sweep", "0:inf:1"]],
    )
    def test_non_finite_sweep_is_usage_error(self, tmp_path, capsys, argv):
        # rejected before any load or write: the out-dir holds no corpus
        assert run(tmp_path, *argv) == EXIT_USAGE
        assert "finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "usage" in capsys.readouterr().out.lower()


class TestSweepParsing:
    def test_alpha_sweep_has_nine_points(self):
        assert_allclose(parse_sweep("0.1:0.9:0.1"), np.linspace(0.1, 0.9, 9))

    def test_beta_sweep_has_nine_points(self):
        assert_allclose(parse_sweep("0:0.8:0.1"), np.linspace(0.0, 0.8, 9))

    def test_default_sweeps_equal_latent_defaults(self, capsys):
        # an absent flag leaves the sweep to the library's default, and the
        # sweep that --help names as the default parses to the same bits
        parser = build_parser()
        assert parser.parse_args(["interpolate", "--a", "x", "--b", "y"]).alphas is None
        assert parser.parse_args(["denoise"]).beta_sweep is None
        for command, text, default in (("interpolate", "0.1:0.9:0.1", DEFAULT_INTERP_ALPHAS),
                                       ("denoise", "0:0.8:0.1", DEFAULT_DENOISE_BETAS)):
            assert main([command, "--help"]) == EXIT_OK
            assert f"(default {text})" in " ".join(capsys.readouterr().out.split())
            assert parse_sweep(text).tobytes() == np.array(default).tobytes()

    def test_single_value(self):
        assert_allclose(parse_sweep("0.45"), [0.45])

    def test_endpoints_inclusive(self):
        values = parse_sweep("1:3:0.5")
        assert values[0] == 1.0
        assert values[-1] == 3.0
        assert len(values) == 5

    def test_two_part_sweep_rejected(self):
        with pytest.raises(UsageError):
            parse_sweep("0.1:0.9")

    def test_zero_step_rejected(self):
        with pytest.raises(UsageError):
            parse_sweep("0:1:0")

    def test_reversed_range_rejected(self):
        with pytest.raises(UsageError):
            parse_sweep("0.9:0.1:0.1")

    def test_ragged_span_rejected(self):
        with pytest.raises(UsageError):
            parse_sweep("0:1:0.3")

    def test_non_numeric_rejected(self):
        with pytest.raises(UsageError):
            parse_sweep("a:b:c")

    @pytest.mark.parametrize("text", ["nan", "inf", "0:inf:1", "0:1:nan"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(UsageError, match="finite"):
            parse_sweep(text)


class TestConfigMerging:
    def test_defaults(self):
        cfg = parse_config(["synth-data"])
        assert cfg.seed == 0
        assert cfg.sections["data"]["image_size"] == 32
        assert cfg.sections["train"]["lr"] == 1e-4
        assert cfg.sections["data"]["noise_snr_db"] is None

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7, "train": {"lr": 0.5}}))
        cfg = parse_config(["--config", str(path), "synth-data"])
        assert cfg.seed == 7
        assert cfg.sections["train"]["lr"] == 0.5
        assert cfg.sections["train"]["steps"] == 500

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"lr": 0.5}}))
        cfg = parse_config(
            ["--config", str(path), "--train.lr", "0.25", "synth-data"]
        )
        assert cfg.sections["train"]["lr"] == 0.25

    def test_seed_flag_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7}))
        cfg = parse_config(["--config", str(path), "--seed", "9", "synth-data"])
        assert cfg.seed == 9

    def test_flags_after_subcommand(self):
        cfg = parse_config(["synth-data", "--train.lr", "0.125"])
        assert cfg.sections["train"]["lr"] == 0.125

    def test_none_word_clears_optional_float(self):
        cfg = parse_config(["--data.noise_snr_db", "none", "synth-data"])
        assert cfg.sections["data"]["noise_snr_db"] is None

    def test_boolean_coercion(self):
        cfg = parse_config(["--data.write_wavs", "true", "synth-data"])
        assert cfg.sections["data"]["write_wavs"] is True

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"optimizer": {"lr": 0.5}}))
        with pytest.raises(UsageError):
            parse_config(["--config", str(path), "synth-data"])

    def test_float_for_integer_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"steps": 10.5}}))
        with pytest.raises(UsageError):
            parse_config(["--config", str(path), "synth-data"])

    def test_config_surface_is_pinned(self, capsys):
        assert main(["--help"]) == EXIT_OK
        flags = set(re.findall(r"--(\w+\.\w+)", capsys.readouterr().out))
        cfg = parse_config(["synth-data"])
        defaults = {
            f"{section}.{key}": value
            for section, keys in cfg.sections.items()
            for key, value in keys.items()
        }
        assert flags == set(DEFAULTS) and len(flags) == 14
        assert defaults == DEFAULTS
        assert cfg.echo() == DEFAULT_ECHO

    def test_readme_table_matches_schema(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", readme.read_text(), re.MULTILINE)
        table = {
            (section, key): text
            for section, cells in rows
            for key, text in re.findall(r"`(\w+)` (\S+?)(?:,|$)", cells)
        }
        schema = {(section, key) for section, keys in _SCHEMA.items() for key in keys}
        assert set(table) == schema
        for (section, key), text in table.items():
            default, coerce = _SCHEMA[section][key]
            assert coerce(text) == default, f"{section}.{key}"

    def test_echo_is_one_line_json(self):
        cfg = parse_config(["--seed", "3", "synth-data"])
        doc = json.loads(cfg.echo())
        assert "\n" not in cfg.echo()
        assert doc["seed"] == 3
        assert doc["flow"]["levels"] == 3


# sha256 prefix of `--help` at 80 columns (Python 3.11's argparse) for the
# main parser (None) and each subcommand, as printed when every parser
# added the shared flags itself; sharing them must not change a byte.  A
# deliberate change to a flag or its help text updates this table.
HELP_SHA256 = {
    None: "98382931ac490744",
    "synth-data": "a0aa210e36691162",
    "prepare": "add58ad3fc28ec0c",
    "train": "5aeade7044b222e7",
    "encode": "04c7e702cb76a404",
    "sample": "202318a9fbf7cf5e",
    "interpolate": "efceaad6d3af4d34",
    "denoise": "fd6a344ae7d79549",
    "lda": "e8f263f7249e48d1",
    "gauss-report": "514921667136085f",
    "reconstruct": "be5c84f9835dca0c",
    "grad-audit": "d9245c739faabc09",
}


class TestSharedFlags:
    """--seed, --config, --out-dir and the dotted flags, shared by every parser."""

    @pytest.mark.parametrize("command", HELP_SHA256)
    def test_help_is_byte_identical(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(([command] if command else []) + ["--help"]) == EXIT_OK
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == HELP_SHA256[command], text

    def test_every_command_is_pinned(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        assert set(sub.choices) == set(HELP_SHA256) - {None}

    @pytest.mark.parametrize("command", [c for c in HELP_SHA256 if c])
    def test_flags_parse_before_and_after_the_command(self, command):
        required = {
            "prepare": ["--corpus-root", "r"],
            "interpolate": ["--a", "x", "--b", "y"],
            "lda": ["--class-a", "aa", "--class-b", "iy"],
            "reconstruct": ["--utt", "u"],
        }.get(command, [])
        before = build_parser().parse_args(
            ["--seed", "3", "--out-dir", "o", "--train.lr", "0.5", command, *required]
        )
        after = build_parser().parse_args(
            [command, *required, "--seed", "3", "--out-dir", "o", "--train.lr", "0.5"]
        )
        for args in (before, after):
            cfg = load_run_config(args)
            assert (cfg.seed, args.out_dir, cfg.sections["train"]["lr"]) == (3, "o", 0.5)


class TestArtifacts:
    def test_corpus_files(self, pipeline):
        assert (pipeline / "corpus.json").exists()
        assert (pipeline / "manifest.jsonl").exists()
        assert (pipeline / "corpus.fstn").exists()

    def test_train_artifacts_and_config_echo(self, pipeline):
        assert (pipeline / "checkpoint.fsck").exists()
        lines = (pipeline / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("# config {")
        echoed = json.loads(lines[0][len("# config "):])
        assert echoed["data"]["image_size"] == 16
        assert lines[1] == "step,nats_per_dim,bits_per_dim,grad_norm,wall_ms"
        assert len(lines) == 2 + 12

    # The encode tests write to their own directory: codes left in the
    # pipeline directory would decide which codes later analyses reuse.
    def test_encode_artifacts(self, pipeline, tmp_path):
        assert encode_into(tmp_path, pipeline, "--split", "all") == EXIT_OK
        codes = read_tensor(tmp_path / "codes.fstn")
        assert codes.shape == (60, 256)
        lines = (tmp_path / "codes.csv").read_text().splitlines()
        assert lines[0].startswith("# config {")
        assert lines[1].split(",")[:5] == [
            "index", "utterance", "speaker", "gender", "vowel"
        ]
        assert len(lines) == 2 + 60
        key = json.loads((tmp_path / "codes.json").read_text())
        assert key["indices"] == list(range(60))
        assert sorted(key["sha256"]) == [
            "checkpoint", "codes.fstn", "corpus.fstn", "manifest.jsonl"
        ]
        assert key["sha256"]["codes.fstn"] == hashlib.sha256(
            (tmp_path / "codes.fstn").read_bytes()
        ).hexdigest()

    def test_encode_eval_split(self, pipeline, tmp_path):
        assert encode_into(tmp_path, pipeline, "--split", "eval") == EXIT_OK
        codes = read_tensor(tmp_path / "codes.fstn")
        assert 0 < codes.shape[0] < 60
        key = json.loads((tmp_path / "codes.json").read_text())
        assert key["indices"] == load_manifest(pipeline).eval_indices()

    def test_sample_artifacts(self, pipeline):
        assert run(pipeline, "sample", "--n", "4") == EXIT_OK
        images = read_tensor(pipeline / "samples.fstn")
        assert images.shape == (4, 1, 16, 16)
        assert np.isfinite(images).all()
        pgm = (pipeline / "samples.pgm").read_bytes()
        assert pgm.startswith(b"P5\n64 16\n255\n")

    def test_interpolate_emits_nine_spectrograms(self, pipeline):
        rc = run(
            pipeline, "interpolate", "--a", "spk00_aa_000", "--b", "spk01_ae_001"
        )
        assert rc == EXIT_OK
        images = read_tensor(pipeline / "interpolation.fstn")
        assert images.shape == (9, 1, 16, 16)
        rows = (pipeline / "interpolation.csv").read_text().splitlines()[2:]
        alphas = [float(r.split(",")[0]) for r in rows]
        assert_allclose(alphas, np.linspace(0.1, 0.9, 9), atol=1e-12)

    def test_denoise_emits_nine_outputs(self, pipeline):
        assert run(pipeline, "denoise") == EXIT_OK
        images = read_tensor(pipeline / "denoised.fstn")
        assert images.shape == (9, 1, 16, 16)
        rows = (pipeline / "denoise.csv").read_text().splitlines()[2:]
        betas = [float(r.split(",")[0]) for r in rows]
        assert_allclose(betas, np.linspace(0.0, 0.8, 9), atol=1e-12)

    @pytest.mark.parametrize(
        "argv, stem, table",
        [
            (["sample", "--n", "4"], "samples", "samples.csv"),
            (["interpolate", "--a", "spk00_aa_000", "--b", "spk01_ae_001"],
             "interpolation", "interpolation.csv"),
            (["denoise"], "denoised", "denoise.csv"),
        ],
    )
    def test_nats_column_scores_the_written_images(self, pipeline, argv, stem, table):
        assert run(pipeline, *argv) == EXIT_OK
        model = load_checkpoint(pipeline / "checkpoint.fsck").model
        _, lnp = encode_batch(model, read_tensor(pipeline / f"{stem}.fstn"))
        lines = (pipeline / table).read_text().splitlines()
        column = lines[1].split(",").index("nats_per_dim")
        assert [row.split(",")[column] for row in lines[2:]] == [
            f"{v:.10g}" for v in -lnp / model.code_size
        ]

    @pytest.mark.parametrize(
        "argv",
        [["lda", "--class-a", "aa", "--class-b", "iy"], ["denoise"],
         ["reconstruct", "--utt", "spk00_aa_000"]],
    )
    def test_one_manifest_parse_per_command(self, pipeline, monkeypatch, argv):
        calls = []

        def counted(corpus_dir):
            calls.append(corpus_dir)
            return load_manifest(corpus_dir)

        monkeypatch.setattr(cli, "load_manifest", counted)
        monkeypatch.setattr(dataset, "load_manifest", counted)
        assert run(pipeline, *argv) == EXIT_OK
        assert len(calls) == 1

    def test_lda_artifacts(self, pipeline):
        rc = run(
            pipeline, "lda", "--by", "vowel",
            "--class-a", "aa", "--class-b", "iy", "--space", "code",
        )
        assert rc == EXIT_OK
        report = json.loads((pipeline / "lda.json").read_text())
        assert report["space"] == "code"
        assert report["n_a"] >= 2 and report["n_b"] >= 2
        assert isinstance(report["fisher_ratio"], float)
        rows = (pipeline / "lda_scatter.csv").read_text().splitlines()
        assert rows[1] == "p1,p2,label"
        assert len(rows) == 2 + report["n_a"] + report["n_b"]

    def test_lda_pixel_space_and_gender(self, pipeline):
        rc = run(
            pipeline, "lda", "--by", "gender",
            "--class-a", "M", "--class-b", "F", "--space", "pixels",
        )
        assert rc == EXIT_OK
        report = json.loads((pipeline / "lda.json").read_text())
        assert report["fisher_ratio"] > 0

    def test_gauss_report_artifacts(self, pipeline):
        assert run(pipeline, "gauss-report", "--dims", "8") == EXIT_OK
        summary = json.loads((pipeline / "gaussianity.json").read_text())
        for space in ("code", "pixels"):
            assert summary[space]["n_dims"] == 8
            assert np.isfinite(summary[space]["mean_abs_excess_kurtosis"])
        rows = (pipeline / "gaussianity.csv").read_text().splitlines()
        assert rows[1] == "space,dim,skewness,excess_kurtosis,degenerate"
        assert len(rows) == 2 + 16

    def test_reconstruct_writes_waveform(self, pipeline):
        assert run(pipeline, "reconstruct", "--utt", "spk00_aa_000") == EXIT_OK
        wav = read_wav(pipeline / "recon_spk00_aa_000.wav")
        assert len(wav) > 1000
        assert np.isfinite(wav).all()

    def test_reconstruct_noisy_twin(self, pipeline, tmp_path, capsys):
        manifest = load_manifest(pipeline)
        utt = manifest.segment_ids()[0]
        noisy = cli._find_segment(manifest, utt, noisy=True)
        capsys.readouterr()
        assert run(pipeline, "reconstruct", "--utt", utt, "--noisy") == EXIT_OK
        assert f"recon_{utt}_noisy.wav (" in capsys.readouterr().err
        # the twin's image carried on the twin's phase
        with dataset.CorpusReader(pipeline, manifest) as reader:
            image = reader.load([noisy])[0, 0]
        phase = stft(read_wav(dataset.wav_path(pipeline, noisy)))
        want = dataset.image_to_waveform(image, manifest.stats, phase)
        write_wav(tmp_path / "want.wav", want)
        wav = read_wav(pipeline / f"recon_{utt}_noisy.wav")
        assert np.array_equal(wav, read_wav(tmp_path / "want.wav"))
        # a clean-only corpus has no twin to reconstruct
        clean = tmp_path / "clean"
        assert run(clean, "--data.noise_snr_db", "none", "synth-data") == EXIT_OK
        assert run(clean, "reconstruct", "--utt", utt, "--noisy") == EXIT_RUNTIME
        assert f"no noisy segment with id {utt!r}" in capsys.readouterr().err

    def test_reconstruct_from_tensor_stack(self, pipeline, tmp_path):
        # image 8 of a stack this test writes, carried on the utterance's phase
        manifest = load_manifest(pipeline)
        with dataset.CorpusReader(pipeline, manifest) as reader:
            stack = reader.load(range(9))
        write_tensor(tmp_path / "stack.fstn", stack)
        rc = run(
            pipeline, "reconstruct", "--utt", "spk00_aa_000",
            "--from", str(tmp_path / "stack.fstn"), "--index", "8",
        )
        assert rc == EXIT_OK
        index = cli._find_segment(manifest, "spk00_aa_000", noisy=False)
        phase = stft(read_wav(dataset.wav_path(pipeline, index)))
        want = dataset.image_to_waveform(stack[8, 0], manifest.stats, phase)
        write_wav(tmp_path / "want.wav", want)
        wav = read_wav(pipeline / "recon_spk00_aa_000.wav")
        assert np.array_equal(wav, read_wav(tmp_path / "want.wav"))

    def test_grad_audit_reports_every_group(self, tmp_path, capsys):
        rc = run(tmp_path, "grad-audit")
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "param,max_rel_err"
        names = [line.split(",")[0] for line in lines[1:]]
        # 2 levels x 1 step x 9 parameter tensors per step
        assert len(names) == 18
        assert "level0.step0.invconv.weight" in names


# Each analysis that reads corpus codes, and the files it writes; all but
# `interpolate` reuse the codes `encode` stored.
ANALYSES = {
    "interpolate": (["interpolate", "--a", "spk00_aa_000", "--b", "spk01_ae_001"],
                    ["interpolation.fstn", "interpolation.pgm", "interpolation.csv"]),
    "denoise": (["denoise"], ["denoised.fstn", "denoised.pgm", "denoise.csv"]),
    "gauss-report": (["gauss-report", "--dims", "8"],
                     ["gaussianity.csv", "gauss_scatter.csv", "gaussianity.json"]),
    "lda": (["lda", "--class-a", "aa", "--class-b", "iy"], ["lda_scatter.csv", "lda.json"]),
}


def copy_run(pipeline, out_dir):
    """A run directory with the pipeline's corpus and checkpoint, no codes."""
    out_dir.mkdir()
    for name in ("corpus.fstn", "manifest.jsonl", "corpus.json", "checkpoint.fsck"):
        shutil.copy(pipeline / name, out_dir / name)
    return out_dir


def spy_encoded_rows(monkeypatch) -> list:
    """Record the row count of every `encode_batch` call the CLI makes."""
    calls = []

    def spy(model, pixels):
        calls.append(len(pixels))
        return encode_batch(model, pixels)

    monkeypatch.setattr(cli, "encode_batch", spy)
    return calls


def outputs(out_dir, command):
    return {name: (out_dir / name).read_bytes() for name in ANALYSES[command][1]}


def analyse(out_dir, command, calls):
    """Run `command` in `out_dir`; return the rows of each encode it made."""
    calls.clear()
    assert run(out_dir, *ANALYSES[command][0]) == EXIT_OK
    return list(calls)


def flip_byte(path, at):
    raw = bytearray(path.read_bytes())
    raw[at] ^= 0x01
    path.write_bytes(bytes(raw))


def nudged_conv2d(x, kernel, bias):
    """conv2d one ulp up: a numerics change that moves every code's last bits."""
    return np.nextafter(conv2d(x, kernel, bias), np.inf)


def running(*argv, fresh_too=True):
    """A stale case that runs one command in `hit` and, with `fresh_too`, in `fresh`."""

    def apply(hit, fresh, monkeypatch):
        for out_dir in (hit, fresh) if fresh_too else (hit,):
            assert run(out_dir, *argv) == EXIT_OK

    return apply


# Ways the codes `encode` stored in `hit` stop matching the inputs, each
# applied after that encode; `fresh` gets the same inputs and no codes.
STALE = {
    "retrained checkpoint": running("--train.lr", "2e-3", "train"),
    "corpus rebuilt with another seed": running("--seed", "6", "synth-data"),
    "truncated codes.fstn": lambda hit, fresh, mp: (hit / "codes.fstn").write_bytes(
        (hit / "codes.fstn").read_bytes()[:-100]
    ),
    "flipped byte in codes.fstn": lambda hit, fresh, mp: flip_byte(hit / "codes.fstn", 5000),
    "garbage codes.json": lambda hit, fresh, mp: (hit / "codes.json").write_text("{garbage"),
    "eval split stored, all asked": running("encode", "--split", "eval", fresh_too=False),
    "numerics changed": lambda hit, fresh, mp: mp.setattr(flow, "conv2d", nudged_conv2d),
}


class TestCodeReuse:
    """Analyses reuse the codes `encode` stored while `codes.json` vouches for them."""

    @pytest.mark.parametrize("command", [c for c in ANALYSES if c != "interpolate"])
    def test_hit_and_miss_write_the_same_bytes(self, pipeline, tmp_path, monkeypatch, command):
        hit, fresh = copy_run(pipeline, tmp_path / "hit"), copy_run(pipeline, tmp_path / "fresh")
        assert run(hit, "encode") == EXIT_OK
        calls = spy_encoded_rows(monkeypatch)
        fresh_calls = analyse(fresh, command, calls)
        parses = []

        def counted(corpus_dir):
            parses.append(corpus_dir)
            return load_manifest(corpus_dir)

        hashed = []
        sha256 = cli._sha256

        def counted_sha256(path):
            hashed.append(path.name)
            return sha256(path)

        monkeypatch.setattr(cli, "load_manifest", counted)
        monkeypatch.setattr(dataset, "load_manifest", counted)
        monkeypatch.setattr(cli, "_sha256", counted_sha256)
        hit_calls = analyse(hit, command, calls)
        assert outputs(hit, command) == outputs(fresh, command)
        # the hit run encodes one corpus row, the check row; both runs then
        # score the decoded images alike (interpolate, denoise)
        assert fresh_calls[0] > 1
        assert hit_calls == [1] + fresh_calls[1:]
        assert len(parses) == 1
        assert sorted(hashed) == ["checkpoint.fsck", "codes.fstn", "corpus.fstn", "manifest.jsonl"]

    def test_interpolate_encodes_afresh(self, pipeline, tmp_path, monkeypatch):
        # its two rows encode faster than the files vouching for them hash
        coded, fresh = copy_run(pipeline, tmp_path / "coded"), copy_run(pipeline, tmp_path / "fresh")
        assert run(coded, "encode") == EXIT_OK
        calls = spy_encoded_rows(monkeypatch)
        fresh_calls = analyse(fresh, "interpolate", calls)
        hashed = []
        sha256 = cli.hashlib.sha256

        def counted_sha256(*args):
            hashed.append(args)
            return sha256(*args)

        monkeypatch.setattr(cli.hashlib, "sha256", counted_sha256)
        coded_calls = analyse(coded, "interpolate", calls)
        assert hashed == []
        assert coded_calls == fresh_calls
        # the two corpus rows, then the nine decoded images scored
        assert fresh_calls == [2, 9]
        assert outputs(coded, "interpolate") == outputs(fresh, "interpolate")

    def test_stored_superset_is_a_hit(self, pipeline, tmp_path, monkeypatch):
        hit, fresh = copy_run(pipeline, tmp_path / "hit"), copy_run(pipeline, tmp_path / "fresh")
        assert run(hit, "encode", "--split", "all") == EXIT_OK
        calls = spy_encoded_rows(monkeypatch)
        rows = {}
        for name, out_dir in (("hit", hit), ("fresh", fresh)):
            calls.clear()
            assert run(out_dir, "gauss-report", "--dims", "8", "--split", "eval") == EXIT_OK
            rows[name] = list(calls)
        assert rows == {"hit": [1], "fresh": [6]}
        assert outputs(hit, "gauss-report") == outputs(fresh, "gauss-report")

    @pytest.mark.parametrize("case", STALE)
    def test_stale_codes_are_encoded_afresh(self, pipeline, tmp_path, monkeypatch, case):
        hit, fresh = copy_run(pipeline, tmp_path / "hit"), copy_run(pipeline, tmp_path / "fresh")
        assert run(hit, "encode") == EXIT_OK
        STALE[case](hit, fresh, monkeypatch)
        calls = spy_encoded_rows(monkeypatch)
        fresh_calls = analyse(fresh, "gauss-report", calls)
        hit_calls = analyse(hit, "gauss-report", calls)
        assert fresh_calls == [60]
        # only a numerics change gets as far as the check row
        assert hit_calls == ([1] if case == "numerics changed" else []) + fresh_calls
        assert outputs(hit, "gauss-report") == outputs(fresh, "gauss-report")

    def test_rerun_writes_the_same_key(self, pipeline, tmp_path):
        out = copy_run(pipeline, tmp_path / "run")
        assert run(out, "encode") == EXIT_OK
        first = (out / "codes.json").read_bytes()
        assert run(out, "encode") == EXIT_OK
        assert (out / "codes.json").read_bytes() == first
        assert str(tmp_path).encode() not in first

    def test_failed_encode_leaves_no_key(self, pipeline, tmp_path, monkeypatch, capsys):
        out = copy_run(pipeline, tmp_path / "run")
        assert run(out, "encode") == EXIT_OK

        def torn_write(path, arr):
            path.write_bytes(b"FSTN")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_tensor", torn_write)
        assert run(out, "encode", "--split", "eval") == EXIT_RUNTIME
        assert "disk full" in capsys.readouterr().err
        assert not (out / "codes.json").exists()


class TestResume:
    def test_matching_resume_continues(self, pipeline, tmp_path):
        checkpoint = str(pipeline / "checkpoint.fsck")
        rc = run(tmp_path, "train", "--data", str(pipeline), "--resume", checkpoint,
                 "--train.steps", "14")
        assert rc == EXIT_OK
        rows = (tmp_path / "metrics.csv").read_text().splitlines()[2:]
        assert [int(r.split(",")[0]) for r in rows] == [13, 14]

    @pytest.mark.parametrize("flag, value", [("--train.lr", "3e-3"), ("--flow.depth", "2")])
    def test_changed_config_is_usage_error(self, pipeline, tmp_path, capsys, flag, value):
        checkpoint = str(pipeline / "checkpoint.fsck")
        rc = run(tmp_path, "train", "--data", str(pipeline), "--resume", checkpoint,
                 "--train.steps", "14", flag, value)
        assert rc == EXIT_USAGE
        assert flag[2:] in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

    def test_changed_seed_names_the_flag(self, pipeline, tmp_path, capsys):
        checkpoint = str(pipeline / "checkpoint.fsck")
        rc = run(tmp_path, "train", "--data", str(pipeline), "--resume", checkpoint,
                 "--train.steps", "14", "--seed", "6")
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--resume: seed differ" in err and "train.seed" not in err


def retired_adam_keys(checkpoint, out, beta1):
    """A CRC-valid copy of `checkpoint` whose train config carries Adam's
    retired keys, as every checkpoint written before they were constants."""
    raw = checkpoint.read_bytes()
    (length,) = struct.unpack("<Q", raw[8:16])
    meta = json.loads(raw[16 : 16 + length])
    meta["train_config"].update(beta1=beta1, beta2=0.999, eps=1e-8)
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + length : -4]
    out.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return str(out)


class TestRetiredAdamKeys:
    def test_at_their_defaults_encode_and_resume(self, pipeline, tmp_path):
        # the older file encodes like the current one, and resumes to the
        # rows a straight 14-step run logs
        older = retired_adam_keys(pipeline / "checkpoint.fsck", tmp_path / "older.fsck", 0.9)
        assert encode_into(tmp_path / "current", pipeline) == EXIT_OK
        out = tmp_path / "older"
        assert run(out, "encode", "--data", str(pipeline), "--checkpoint", older) == EXIT_OK
        assert run(out, "train", "--data", str(pipeline), "--resume", older,
                   "--train.steps", "14") == EXIT_OK
        straight = tmp_path / "straight"
        assert run(straight, "train", "--data", str(pipeline), "--train.steps", "14") == EXIT_OK
        codes = [(d / "codes.fstn").read_bytes() for d in (tmp_path / "current", out)]
        assert codes[0] == codes[1]
        rows = [
            [row.rsplit(",", 1)[0] for row in (d / "metrics.csv").read_text().splitlines()[2:]]
            for d in (straight, out)
        ]
        assert len(rows[1]) == 2 and rows[0][-2:] == rows[1]

    def test_other_value_is_a_bad_header(self, pipeline, tmp_path, capsys):
        older = retired_adam_keys(pipeline / "checkpoint.fsck", tmp_path / "older.fsck", 0.5)
        rc = run(tmp_path, "encode", "--data", str(pipeline), "--checkpoint", older)
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"{older}: bad checkpoint header" in err and "'beta1'" in err
        assert not (tmp_path / "codes.fstn").exists()


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:  # TINY_FLAGS keep the segment audio in wavs/
            assert run(d, "synth-data") == EXIT_OK
            assert run(d, "train") == EXIT_OK
            assert run(d, "sample", "--n", "3") == EXIT_OK
            assert run(d, "encode") == EXIT_OK
            assert run(d, "reconstruct", "--utt", "spk00_aa_000") == EXIT_OK
        names = [sorted(p.relative_to(d) for p in d.rglob("*") if p.is_file()) for d in dirs]
        assert names[0] == names[1]
        for must in ("checkpoint.fsck", "samples.fstn", "wavs/0.wav", "recon_spk00_aa_000.wav"):
            assert Path(must) in names[0]
        for name in names[0]:
            a, b = dirs[0] / name, dirs[1] / name
            if name == Path("metrics.csv"):
                # identical apart from the wall-clock column
                rows_a = a.read_text().splitlines()
                rows_b = b.read_text().splitlines()
                assert [r.rsplit(",", 1)[0] for r in rows_a] == [
                    r.rsplit(",", 1)[0] for r in rows_b
                ]
            else:
                assert filecmp.cmp(a, b, shallow=False), name

    def test_different_seed_changes_samples(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        seeds = ["5", "6"]
        for d, seed in zip(dirs, seeds):
            base = TINY_FLAGS + ["--out-dir", str(d)]
            base[1] = seed
            assert main(base + ["synth-data"]) == EXIT_OK
            assert main(base + ["train"]) == EXIT_OK
            assert main(base + ["sample", "--n", "3"]) == EXIT_OK
        sa = read_tensor(dirs[0] / "samples.fstn")
        sb = read_tensor(dirs[1] / "samples.fstn")
        assert not np.allclose(sa, sb)


def test_commands_run_numpy_only(tmp_path):
    # scipy may be installed as a test oracle; the package must never load it
    flags = [
        "--out-dir", str(tmp_path), "--data.image_size", "16", "--synth.n_speakers", "2",
        "--synth.draws_per_vowel", "2", "--flow.levels", "2", "--flow.depth", "1",
        "--train.steps", "2",
    ]
    script = (
        "import sys\n"
        "from vowelflow.cli import main\n"
        "for command in ('synth-data', 'train', 'encode'):\n"
        f"    assert main({flags!r} + [command]) == 0, command\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"

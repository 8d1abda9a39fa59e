import json
import math
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import lfilter_synth_vowel
from vowelflow import dataset
from vowelflow.dataset import (
    AlignmentParseError,
    CorpusReader,
    DatasetConfig,
    Manifest,
    ManifestEntry,
    SegmentRecord,
    SyntheticSpec,
    build_corpus,
    extract_segments,
    image_to_magnitude,
    image_to_waveform,
    load_manifest,
    magnitude_to_image,
    normalize,
    padding_value,
    parse_phone_alignment,
    segment_to_spectrogram,
)
from vowelflow.numerics import Rng
from vowelflow.signal import (
    MAG_FLOOR,
    denormalize,
    istft_phase_borrow,
    stft,
    synth_vowel,
    write_wav,
)


class TestParseAlignment:
    def test_two_lines(self):
        got = parse_phone_alignment("0 2360 h#\n2360 5200 aa")
        assert got == [(0, 2360, "h#"), (2360, 5200, "aa")]

    def test_empty_input(self):
        assert parse_phone_alignment("") == []
        assert parse_phone_alignment("\n\n  \n") == []

    def test_begin_ge_end(self):
        with pytest.raises(AlignmentParseError) as exc:
            parse_phone_alignment("5 3 aa")
        assert exc.value.line_number == 1

    def test_negative_index(self):
        # a negative begin would slice from the end of the WAV
        with pytest.raises(AlignmentParseError, match="line 2: negative sample index") as exc:
            parse_phone_alignment("0 100 h#\n-3200 6400 iy")
        assert exc.value.line_number == 2

    def test_non_integer_field(self):
        with pytest.raises(AlignmentParseError) as exc:
            parse_phone_alignment("0 100 h#\nx 200 aa")
        assert exc.value.line_number == 2

    def test_wrong_field_count(self):
        with pytest.raises(AlignmentParseError):
            parse_phone_alignment("0 100")


class TestExtractSegments:
    def test_filters_to_vowels(self):
        alignment = [(0, 100, "h#"), (100, 700, "aa"), (700, 900, "s")]
        got = extract_segments(alignment, {"aa", "ae", "iy", "ow", "uh"})
        assert got == [(100, 700, "aa")]

    def test_no_vowels(self):
        assert extract_segments([(0, 10, "h#"), (10, 20, "s")], {"aa"}) == []

    def test_count_matches_hand_filter(self):
        labels = ["h#", "aa", "s", "iy", "k", "ae", "aa", "t", "uh", "ow"]
        alignment = [(i * 500, (i + 1) * 500, lab) for i, lab in enumerate(labels)]
        vowel_set = {"aa", "ae", "iy", "ow", "uh"}
        got = extract_segments(alignment, vowel_set)
        assert len(got) == sum(1 for lab in labels if lab in vowel_set)  # 6


STATS = (-6.0, 3.0)


def rec_for(utt, vowel="aa"):
    return SegmentRecord(utt, "spkT", "M", vowel)


def image_of(w, image_size):
    """The corpus image of segment `w`: the front end `build_corpus` runs."""
    return magnitude_to_image(segment_to_spectrogram(w), STATS, image_size)[0]


class TestSegmentToSpectrogram:
    def test_padding_contract(self):
        w = synth_vowel(Rng(1), "aa", 120.0, 0.075)  # 1200 samples -> 51 frames
        assert segment_to_spectrogram(w).shape == (51, 257)
        image = image_of(w, 288)
        pad = padding_value(STATS)
        np.testing.assert_array_equal(image[51:], pad)
        assert np.any(image[:51] != pad)

    def test_discard_rule(self):
        w = synth_vowel(Rng(2), "aa", 120.0, 0.4)  # 6400 samples -> 376 frames
        assert segment_to_spectrogram(w) is None

    def test_output_shape_full(self):
        w = synth_vowel(Rng(3), "iy", 150.0, 0.2)
        assert image_of(w, 288).shape == (288, 288)

    def test_output_shape_desk(self):
        w = synth_vowel(Rng(4), "iy", 150.0, 0.2)
        assert image_of(w, 32).shape == (32, 32)

    def test_desk_is_average_pool_of_full(self):
        w = synth_vowel(Rng(5), "ow", 100.0, 0.18)
        full, desk = image_of(w, 288), image_of(w, 32)
        pooled = full.reshape(32, 9, 32, 9).mean(axis=(1, 3))
        np.testing.assert_allclose(desk, pooled, atol=1e-12)

    def test_long_segment_is_discarded_before_any_stft(self, monkeypatch):
        def no_stft(samples):
            raise AssertionError("stft computed for a discarded segment")

        monkeypatch.setattr(dataset, "stft", no_stft)
        n = dataset.STFT.window_len + dataset.FULL_FRAMES * dataset.STFT.hop  # one frame too many
        assert segment_to_spectrogram(np.zeros(n)) is None
        with pytest.raises(ValueError, match="shorter than one window"):
            segment_to_spectrogram(np.zeros(dataset.STFT.window_len - 1))

    def test_equals_reference_front_end(self):
        # the front end written out with gathered frames, concatenated zero
        # bands and whole-array normalization: the streamlined code must
        # give the same bits
        w = synth_vowel(Rng(7), "ae", 130.0, 0.15)
        win, hop, nfft = dataset.STFT.window_len, dataset.STFT.hop, dataset.STFT.fft_size
        t = (len(w) - win) // hop + 1
        idx = np.arange(win)[None, :] + hop * np.arange(t)[:, None]
        hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
        mag = np.abs(np.fft.rfft(w[idx] * hann[None, :], n=nfft, axis=1))
        mag = np.concatenate([mag, np.zeros((t, 288 - mag.shape[1]))], axis=1)
        image = np.full((288, 288), (math.log(MAG_FLOOR) - STATS[0]) / STATS[1])
        image[:t] = (np.log(mag + MAG_FLOOR) - STATS[0]) / STATS[1]
        np.testing.assert_array_equal(image_of(w, 288), image)


class TestNormalize:
    def test_zero_magnitude_constant(self):
        image = magnitude_to_image(np.zeros((4, 257)), (2.0, 3.0), 288)
        np.testing.assert_allclose(image, (math.log(1e-5) - 2.0) / 3.0)
        assert padding_value((2.0, 3.0)) == (math.log(1e-5) - 2.0) / 3.0

    def test_round_trip(self):
        rng = Rng(6)
        mag = np.abs(rng.standard_normal((10, 10)))
        y = normalize(np.log(mag + MAG_FLOOR), (-1.5, 0.7))
        np.testing.assert_allclose(denormalize(y, (-1.5, 0.7)), mag, atol=1e-9)

    def test_ln_e_equals_one(self):
        image = magnitude_to_image(np.array([[math.e - 1e-5]]), (0.0, 1.0), 288)
        assert image[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="magnitudes must be nonnegative"):
            magnitude_to_image(np.array([[-0.1]]), (0.0, 1.0), 288)

    def test_pool_comes_before_normalize(self):
        w = synth_vowel(Rng(5), "ow", 100.0, 0.18)
        logs = np.log(segment_to_spectrogram(w) + MAG_FLOOR)
        padded = np.full((288, 288), math.log(MAG_FLOOR))
        padded[: logs.shape[0], : logs.shape[1]] = logs
        pooled = padded.reshape(32, 9, 32, 9).mean(axis=(1, 3))
        np.testing.assert_array_equal(image_of(w, 32), (pooled - STATS[0]) / STATS[1])


class TestImageToMagnitude:
    def segment(self):
        return synth_vowel(Rng(7), "ae", 140.0, 0.15)

    def test_full_size_returns_the_magnitude(self):
        w = self.segment()
        mag = segment_to_spectrogram(w)
        np.testing.assert_array_equal(mag, np.abs(stft(w)))
        back = image_to_magnitude(image_of(w, 288), STATS)
        assert back.shape == (288, 257)
        np.testing.assert_allclose(back[: len(mag)], mag, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(back[len(mag):], 0.0, atol=1e-15)

    def test_desk_size_repeats_the_pooled_image(self):
        pooled = image_of(self.segment(), 32)
        back = image_to_magnitude(pooled, STATS)
        assert back.shape == (288, 257)
        repeated = np.repeat(np.repeat(pooled, 9, axis=0), 9, axis=1)[:, :257]
        np.testing.assert_array_equal(back, denormalize(repeated, STATS))
        np.testing.assert_allclose(normalize(np.log(back + MAG_FLOOR), STATS), repeated, atol=1e-9)

    @pytest.mark.parametrize("shape", [(32, 16), (30, 30)])
    def test_unmappable_image_rejected(self, shape):
        with pytest.raises(ValueError, match="does not map to a spectrogram"):
            image_to_magnitude(np.zeros(shape), STATS)


class TestImageToWaveform:
    def test_overlap_adds_the_image_on_the_phase(self):
        w = synth_vowel(Rng(8), "iy", 120.0, 0.15)
        phase = stft(w)
        image = image_of(w, 32)
        audio = image_to_waveform(image, STATS, phase)
        mag = image_to_magnitude(image, STATS)[: phase.shape[0]]
        np.testing.assert_array_equal(audio, istft_phase_borrow(mag, phase))

    def test_accepts_a_phase_of_full_frames(self):
        phase = stft(np.ones(400 + 287 * 16))
        assert phase.shape[0] == 288
        audio = image_to_waveform(np.zeros((32, 32)), STATS, phase)
        assert len(audio) == 400 + 287 * 16

    def test_rejects_a_phase_longer_than_full_frames(self):
        phase = stft(np.ones(400 + 288 * 16))
        assert phase.shape[0] == 289
        with pytest.raises(ValueError, match="phase source has 289 frames; expected at most 288"):
            image_to_waveform(np.zeros((32, 32)), STATS, phase)


class TestDatasetConfig:
    @pytest.mark.parametrize("snr", [math.inf, -math.inf, math.nan])
    def test_non_finite_noise_snr_rejected(self, snr):
        with pytest.raises(ValueError, match="noise_snr_db must be finite"):
            DatasetConfig(noise_snr_db=snr)

    @pytest.mark.parametrize("fraction", [0.0, -3.0, 1.5, 7.0, math.inf, math.nan])
    def test_train_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match=r"train_fraction must be in \(0, 1\]"):
            DatasetConfig(train_fraction=fraction)

    def test_train_fraction_one_accepted(self):
        assert DatasetConfig(train_fraction=1.0).train_fraction == 1.0


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    spec = SyntheticSpec(n_speakers=2, draws_per_vowel=2)
    manifest = build_corpus(spec, DatasetConfig(image_size=32), Rng(42), out)
    return out, manifest


class TestBuildCorpus:
    def test_record_count(self, tmp_path):
        spec = SyntheticSpec(n_speakers=4, draws_per_vowel=10)
        manifest = build_corpus(spec, DatasetConfig(image_size=32), Rng(1), tmp_path)
        assert len(manifest.entries) == 200  # 5 vowels x 4 speakers x 10 draws

    def test_deterministic_archive(self, tmp_path):
        spec = SyntheticSpec(n_speakers=2, draws_per_vowel=2)
        cfg = DatasetConfig(image_size=32, noise_snr_db=10.0)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        build_corpus(spec, cfg, Rng(5), a_dir)
        build_corpus(spec, cfg, Rng(5), b_dir)
        for name in ("corpus.fstn", "manifest.jsonl", "corpus.json"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_one_stft_per_segment(self, tmp_path, monkeypatch):
        calls = []

        def counted_stft(*args, **kwargs):
            calls.append(args)
            return stft(*args, **kwargs)

        monkeypatch.setattr(dataset, "stft", counted_stft)
        spec = SyntheticSpec(n_speakers=1, draws_per_vowel=2)
        cfg = DatasetConfig(image_size=32, noise_snr_db=10.0)
        manifest = build_corpus(spec, cfg, Rng(6), tmp_path)
        assert len(calls) == len(manifest.entries) == 20

    @pytest.mark.parametrize("image_size", [32, 288])
    def test_records_equal_the_front_end(self, tmp_path, image_size):
        # the streamed archive holds exactly the image magnitude_to_image
        # makes of each segment's float64 audio (wavs/ would be int16)
        spec = SyntheticSpec(n_speakers=1, draws_per_vowel=2)
        manifest = build_corpus(spec, DatasetConfig(image_size=image_size), Rng(9), tmp_path)
        segments = list(dataset._synthetic_segments(spec, Rng(9)))
        assert [rec for rec, _ in segments] == [e.record for e in manifest.entries]
        with CorpusReader(tmp_path, manifest) as reader:
            for i, (_, audio) in enumerate(segments):
                want = magnitude_to_image(segment_to_spectrogram(audio), manifest.stats, image_size)
                np.testing.assert_array_equal(reader.pixels(i), want)

    def test_audio_across_blocks_equals_lfilter_formula(self):
        # 2 speakers x 5 vowels x 26 draws = 260 segments: a full block and
        # a partial one, each segment drawn (f0, duration, excitation) in turn
        spec = SyntheticSpec(n_speakers=2, draws_per_vowel=26)
        rng = Rng(11)
        speaker_rng, draw_rng = rng.spawn(0), rng.spawn(1)
        want = []
        for i in range(spec.n_speakers):
            gender = "M" if i % 2 == 0 else "F"
            shift = speaker_rng.uniform(*dataset._SHIFT_RANGE[gender])
            for vowel in spec.vowels:
                for _ in range(spec.draws_per_vowel):
                    f0 = draw_rng.uniform(*dataset._F0_RANGE[gender])
                    duration = draw_rng.uniform(*dataset._DURATION_RANGE)
                    want.append(lfilter_synth_vowel(draw_rng, vowel, f0, duration, shift))
        got = [audio for _, audio in dataset._synthetic_segments(spec, Rng(11))]
        assert len(got) == len(want) == 260 > dataset._BLOCK_SEGMENTS
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_memory_stays_flat(self, tmp_path):
        # one block's working set, not one per segment: the traced peak
        # of a corpus 4x larger stays within 1.25x
        cfg = DatasetConfig(image_size=32, noise_snr_db=10.0)
        peaks = []
        for draws in (2, 8):  # 40 and 160 segments with their noisy twins
            tracemalloc.start()
            manifest = build_corpus(
                SyntheticSpec(n_speakers=2, draws_per_vowel=draws), cfg, Rng(4),
                tmp_path / str(draws),
            )
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert len(manifest.entries) == 20 * draws
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_noisy_twins_iff_configured(self, tmp_path, small_corpus):
        _, clean_manifest = small_corpus
        assert all(e.record.noise_snr_db is None for e in clean_manifest.entries)

        noisy_dir = tmp_path / "noisy"
        manifest = build_corpus(
            SyntheticSpec(n_speakers=2, draws_per_vowel=2),
            DatasetConfig(image_size=32, noise_snr_db=10.0),
            Rng(42),
            noisy_dir,
        )
        assert len(manifest.entries) == 2 * len(clean_manifest.entries)
        pairs = manifest.clean_noisy_pairs()
        assert len(pairs) == len(clean_manifest.entries)
        for ci, ni in pairs:
            c, n = manifest.entries[ci].record, manifest.entries[ni].record
            assert c.utterance_id == n.utterance_id
            assert c.noise_snr_db is None and n.noise_snr_db == 10.0

    def test_pairs_by_position_equal_pairs_by_id_on_unique_ids(self, tmp_path):
        manifest = build_corpus(
            SyntheticSpec(n_speakers=2, draws_per_vowel=2),
            DatasetConfig(image_size=32, noise_snr_db=10.0),
            Rng(42),
            tmp_path,
        )
        records = [e.record for e in manifest.entries]
        clean = {r.utterance_id: i for i, r in enumerate(records) if r.noise_snr_db is None}
        by_id = [
            (clean[r.utterance_id], i)
            for i, r in enumerate(records)
            if r.noise_snr_db is not None
        ]
        assert manifest.clean_noisy_pairs() == by_id

    def test_manifest_round_trip(self, small_corpus):
        out, manifest = small_corpus
        loaded = load_manifest(out)
        assert loaded.stats == manifest.stats
        assert loaded.train_utterances == manifest.train_utterances
        assert [e.offset for e in loaded.entries] == [e.offset for e in manifest.entries]
        assert [e.record.vowel for e in loaded.entries] == [
            e.record.vowel for e in manifest.entries
        ]

    def test_split_fractions(self, small_corpus):
        _, manifest = small_corpus
        n_utt = len({e.record.utterance_id for e in manifest.entries})
        assert len(manifest.train_utterances) == round(0.9 * n_utt)
        assert len(manifest.train_indices()) + len(manifest.eval_indices()) == len(
            manifest.entries
        )

    def test_reader_shapes_and_padding(self, small_corpus):
        out, manifest = small_corpus
        with CorpusReader(out) as reader:
            pixels = reader.load()
        assert pixels.shape == (len(manifest.entries), 1, 32, 32)
        assert np.all(np.isfinite(pixels))
        # padded tail rows of the pooled image are the padding constant
        pad = padding_value(manifest.stats)
        for e, img in zip(manifest.entries, pixels):
            pooled_valid = math.ceil(e.valid_frames / 9)
            np.testing.assert_allclose(img[0, pooled_valid:], pad, atol=1e-12)

    def test_queryability(self, small_corpus):
        _, manifest = small_corpus
        for vowel in ("aa", "ae", "iy", "ow", "uh"):
            assert len(manifest.select(vowel=vowel)) == 4  # 2 speakers x 2 draws
        assert len(manifest.select(gender="M")) == len(manifest.select(gender="F"))
        speakers = {e.record.speaker_id for e in manifest.entries}
        assert speakers == {"spk00", "spk01"}

    def test_manifest_keys_pinned(self, small_corpus):
        out, _ = small_corpus
        rows = [json.loads(l) for l in (out / "manifest.jsonl").read_text().splitlines()]
        expected = {"utt", "spk", "gender", "vowel", "valid_frames", "offset", "noise_snr_db"}
        assert all(set(r) == expected for r in rows)
        offsets = [r["offset"] for r in rows]
        assert offsets == sorted(offsets) and len(set(offsets)) == len(offsets)


class TestCorruptCorpus:
    """A damaged corpus file raises ValueError naming the file and the place."""

    @pytest.fixture
    def corpus_copy(self, small_corpus, tmp_path):
        out, _ = small_corpus
        return Path(shutil.copytree(out, tmp_path / "corpus"))

    def test_torn_last_manifest_line(self, corpus_copy):
        path = corpus_copy / "manifest.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1] + [lines[-1][:20]]) + "\n")
        with pytest.raises(ValueError, match=rf"manifest\.jsonl, line {len(lines)}\b"):
            load_manifest(corpus_copy)

    def test_manifest_row_missing_key(self, corpus_copy):
        path = corpus_copy / "manifest.jsonl"
        lines = path.read_text().splitlines()
        row = json.loads(lines[2])
        del row["offset"]
        lines[2] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"manifest\.jsonl, line 3\b.*offset"):
            load_manifest(corpus_copy)

    def test_torn_header(self, corpus_copy):
        path = corpus_copy / "corpus.json"
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError, match=r"corpus\.json: bad corpus header"):
            load_manifest(corpus_copy)

    @pytest.mark.parametrize("key", ["stats", "config", "train_utterances"])
    def test_header_missing_key(self, corpus_copy, key):
        path = corpus_copy / "corpus.json"
        header = json.loads(path.read_text())
        del header[key]
        path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match=rf"corpus\.json: bad corpus header.*{key}"):
            load_manifest(corpus_copy)

    def test_nonincreasing_offsets_name_manifest(self, corpus_copy):
        path = corpus_copy / "manifest.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        rows[1]["offset"] = rows[0]["offset"]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(ValueError, match=r"manifest\.jsonl.*strictly increasing"):
            load_manifest(corpus_copy)

    def test_bad_archive_record(self, corpus_copy):
        path = corpus_copy / "corpus.fstn"
        offset = load_manifest(corpus_copy).entries[3].offset
        raw = bytearray(path.read_bytes())
        raw[offset : offset + 4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with CorpusReader(corpus_copy) as reader:
            reader.pixels(2)
            with pytest.raises(ValueError, match=r"corpus\.fstn, entry 3: bad FSTN magic"):
                reader.pixels(3)


class TestRealCorpusIngestion:
    def build_fake_tree(self, root):
        """TIMIT-style layout with synthetic audio standing in for speech."""
        rng = Rng(77)
        for dialect, spk, gender in (("dr1", "MABC0", "M"), ("dr1", "FDEF0", "F")):
            d = root / dialect / spk
            d.mkdir(parents=True)
            for utt in ("sx1", "sx2"):
                aa = synth_vowel(rng, "aa", 120.0, 0.2)
                iy = synth_vowel(rng, "iy", 130.0, 0.15)
                gap = np.zeros(800)
                samples = np.concatenate([gap, aa, gap, iy, gap])
                write_wav(d / f"{utt}.wav", samples)
                n0, n1 = len(gap), len(gap) + len(aa)
                n2, n3 = n1 + len(gap), n1 + len(gap) + len(iy)
                (d / f"{utt}.phn").write_text(
                    f"0 {n0} h#\n{n0} {n1} aa\n{n1} {n2} pau\n{n2} {n3} iy\n"
                )

    def test_prepare_real_tree(self, tmp_path):
        root = tmp_path / "timit"
        self.build_fake_tree(root)
        manifest = build_corpus(root, DatasetConfig(image_size=32), Rng(3), tmp_path / "out")
        assert len(manifest.entries) == 8  # 2 speakers x 2 utterances x 2 vowel segments
        genders = {e.record.speaker_id: e.record.gender for e in manifest.entries}
        assert genders == {"MABC0": "M", "FDEF0": "F"}
        assert {e.record.vowel for e in manifest.entries} == {"aa", "iy"}


class TestManifestInvariants:
    def test_rejects_nonincreasing_offsets(self):
        rec = rec_for("u")
        entries = [
            ManifestEntry(rec, valid_frames=10, offset=100),
            ManifestEntry(rec, valid_frames=10, offset=100),
        ]
        with pytest.raises(ValueError):
            Manifest(entries, stats=(0.0, 1.0), config={}, train_utterances=[])

    def test_noisy_entry_must_follow_its_clean_sibling(self):
        aa, iy = rec_for("u"), rec_for("u", vowel="iy")
        noisy_aa = SegmentRecord("u", "spkT", "M", "aa", noise_snr_db=10.0)
        entries = [
            ManifestEntry(rec, valid_frames=10, offset=k)
            for k, rec in enumerate((aa, iy, noisy_aa))
        ]
        manifest = Manifest(entries, stats=(0.0, 1.0), config={}, train_utterances=[])
        with pytest.raises(ValueError, match=r"manifest\.jsonl, line 3: noisy u /aa/"):
            manifest.clean_noisy_pairs()

    def test_rejects_bad_stats(self):
        with pytest.raises(ValueError):
            Manifest([], stats=(0.0, 0.0), config={}, train_utterances=[])

    def test_record_invariants(self):
        with pytest.raises(ValueError):
            SegmentRecord("u", "s", "M", "xx")
        with pytest.raises(ValueError):
            SegmentRecord("u", "s", "X", "aa")

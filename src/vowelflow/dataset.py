"""Fixed-size spectrogram corpus construction.

Each vowel segment goes through one front end: `segment_to_spectrogram`
takes its (T, 257) STFT magnitude (None past FULL_FRAMES frames) and
`magnitude_to_image` shapes that into the (1, S, S) image: the log
magnitude ln(mag + MAG_FLOOR), padded to FULL_FRAMES x FULL_FRAMES,
average-pooled to S, then normalized by the training split's stats
(`normalize`).  `image_to_magnitude` is the way back.

A corpus directory holds three files:

* ``corpus.fstn``    - concatenated FSTN tensor records, one per segment;
* ``manifest.jsonl`` - one JSON object per record with keys
  utt, spk, gender, vowel, valid_frames, offset, noise_snr_db;
* ``corpus.json``    - normalization stats, config echo and the train split.

With ``write_wavs`` it also holds ``wavs/<index>.wav``, the audio of the
segment at that manifest index (`wav_path`).  Audio, here as everywhere,
is a float64 sample array at the one rate (16 kHz) that `read_wav` enforces.

Records are ordered deterministically; a noisy twin (when noise
augmentation is configured) immediately follows its clean sibling and
shares its utterance id and its segment id (`Manifest.segment_ids`).
`build_corpus` streams: it holds one segment's spectrogram at a time and,
for a synthetic corpus, one fixed block of audio (`_BLOCK_SEGMENTS`
segments), whatever the corpus size.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np

from .numerics import Rng, read_tensor_from, write_tensor_to
from .signal import (
    FORMANTS,
    MAG_FLOOR,
    SAMPLE_RATE,
    STFT,
    VOWELS,
    add_white_noise,
    denormalize,
    excitation,
    formant_filter,
    formant_resonators,
    frame_count,
    istft_phase_borrow,
    peak_normalize,
    read_wav,
    stft,
    synth_vowel,  # noqa: F401  kept in this namespace; the build filters in blocks
    write_wav,
)

# The image geometry that the fixed front end (`STFT`, 16 kHz audio) implies:
# FULL_FRAMES time frames after padding, and as many frequency bands after
# appending FREQ_ZERO_BANDS zero bands to the one-sided bins.
FULL_FRAMES = 288
FREQ_ZERO_BANDS = FULL_FRAMES - (STFT.fft_size // 2 + 1)

GENDERS = ("M", "F", "unknown")

# synthetic-speaker draw ranges, per gender
_F0_RANGE = {"M": (85.0, 180.0), "F": (160.0, 300.0)}
_SHIFT_RANGE = {"M": (-0.08, 0.04), "F": (0.10, 0.22)}
_DURATION_RANGE = (0.15, 0.30)

# The synthetic build filters this many segments at once in one time-major
# block sized for the longest duration: 4,800 x 256 float64, 9.8 MB.
_BLOCK_SEGMENTS = 256
_BLOCK_SAMPLES = round(_DURATION_RANGE[1] * SAMPLE_RATE)


class AlignmentParseError(ValueError):
    """Malformed phone-alignment line; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass
class SegmentRecord:
    utterance_id: str
    speaker_id: str
    gender: str
    vowel: str
    noise_snr_db: float | None = None

    def __post_init__(self):
        if self.gender not in GENDERS:
            raise ValueError(f"gender must be one of {GENDERS}, got {self.gender!r}")
        if self.vowel not in FORMANTS:
            raise ValueError(f"vowel must be one of {VOWELS}, got {self.vowel!r}")


@dataclass
class DatasetConfig:
    image_size: int = 32  # desk scale; 288 for full runs
    noise_snr_db: float | None = None  # noisy twin per record when set
    train_fraction: float = 0.9
    write_wavs: bool = False

    def __post_init__(self):
        if self.image_size < 1 or FULL_FRAMES % self.image_size != 0:
            raise ValueError(
                f"image_size must be a positive divisor of {FULL_FRAMES}, got {self.image_size}"
            )
        if self.noise_snr_db is not None and not math.isfinite(self.noise_snr_db):
            raise ValueError(
                f"noise_snr_db must be finite (none means no noise), got {self.noise_snr_db}"
            )
        if not 0 < self.train_fraction <= 1:  # also rejects nan
            raise ValueError(f"train_fraction must be in (0, 1], got {self.train_fraction}")


@dataclass
class SyntheticSpec:
    """Desk-scale corpus: vowels x speakers x draws synthetic segments."""

    n_speakers: int = 4
    draws_per_vowel: int = 10
    vowels: tuple[str, ...] = VOWELS


@dataclass
class ManifestEntry:
    record: SegmentRecord
    valid_frames: int
    offset: int


@dataclass
class Manifest:
    entries: list[ManifestEntry]
    stats: tuple[float, float]  # (mean, std) of ln(mag + 1e-5) over unpadded pixels
    config: dict
    train_utterances: list[str]

    def __post_init__(self):
        offsets = [e.offset for e in self.entries]
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("manifest offsets must be strictly increasing")
        mean, std = self.stats
        if not (math.isfinite(mean) and math.isfinite(std) and std > 0):
            raise ValueError(f"degenerate normalization stats {self.stats}")

    def train_indices(self) -> list[int]:
        train = set(self.train_utterances)
        return [i for i, e in enumerate(self.entries) if e.record.utterance_id in train]

    def eval_indices(self) -> list[int]:
        train = set(self.train_utterances)
        return [i for i, e in enumerate(self.entries) if e.record.utterance_id not in train]

    def segment_ids(self) -> list[str]:
        """One id per entry: an utterance's first vowel segment keeps the
        utterance id, its k-th later one is `<utt>.<k>` (k = 1, 2, ... in
        manifest order).  A noisy twin shares its clean sibling's id."""
        seen: dict[tuple[str, bool], int] = {}
        ids = []
        for e in self.entries:
            utt = e.record.utterance_id
            key = (utt, e.record.noise_snr_db is not None)
            k = seen[key] = seen.get(key, -1) + 1
            ids.append(f"{utt}.{k}" if k else utt)
        return ids

    def select(self, vowel=None, gender=None, speaker=None, noisy=None) -> list[int]:
        out = []
        for i, e in enumerate(self.entries):
            r = e.record
            if vowel is not None and r.vowel != vowel:
                continue
            if gender is not None and r.gender != gender:
                continue
            if speaker is not None and r.speaker_id != speaker:
                continue
            if noisy is not None and (r.noise_snr_db is not None) != noisy:
                continue
            out.append(i)
        return out

    def clean_noisy_pairs(self) -> list[tuple[int, int]]:
        """Indices of (clean, noisy-twin) records.

        Each noisy twin is the entry right after its clean sibling, in the
        order `build_corpus` writes.  One real utterance can hold several
        vowel segments under one id, so the pairing is by position.
        """
        pairs = []
        for i, e in enumerate(self.entries):
            if e.record.noise_snr_db is None:
                continue
            if i == 0 or self.entries[i - 1].record != replace(e.record, noise_snr_db=None):
                raise ValueError(
                    f"manifest.jsonl, line {i + 1}: noisy {e.record.utterance_id} "
                    f"/{e.record.vowel}/ does not follow its clean sibling"
                )
            pairs.append((i - 1, i))
        return pairs


# ---------------------------------------------------------------------------
# alignment parsing


def parse_phone_alignment(text: str) -> list[tuple[int, int, str]]:
    """Parse "begin end label" lines with sample indices 0 <= begin < end."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise AlignmentParseError(f"expected 'begin end label', got {line!r}", lineno)
        try:
            begin, end = int(parts[0]), int(parts[1])
        except ValueError:
            raise AlignmentParseError(f"non-integer sample index in {line!r}", lineno) from None
        if begin < 0:
            raise AlignmentParseError(f"negative sample index in {line!r}", lineno)
        if begin >= end:
            raise AlignmentParseError(f"begin {begin} >= end {end}", lineno)
        out.append((begin, end, parts[2]))
    return out


def extract_segments(
    alignment: list[tuple[int, int, str]], vowel_set
) -> list[tuple[int, int, str]]:
    """Keep only alignment entries whose label is in `vowel_set`."""
    wanted = set(vowel_set)
    return [entry for entry in alignment if entry[2] in wanted]


# ---------------------------------------------------------------------------
# spectrogram shaping


def normalize(v, stats: tuple[float, float]):
    """(v - mean) / std: a log magnitude to image units (`denormalize` undoes
    it together with the log)."""
    mean, std = stats
    return (v - mean) / std


def padding_value(stats: tuple[float, float]) -> float:
    """Image of magnitude zero: the padding constant."""
    return normalize(math.log(MAG_FLOOR), stats)


def _log_image(logs: np.ndarray, image_size: int, padded: np.ndarray | None = None) -> np.ndarray:
    """(T, bins) log magnitude -> (S, S) padded, pooled, un-normalized image.

    `padded`, a (FULL_FRAMES, FULL_FRAMES) buffer, is overwritten and, at
    S = FULL_FRAMES, returned.
    """
    image = np.empty((FULL_FRAMES, FULL_FRAMES)) if padded is None else padded
    image.fill(math.log(MAG_FLOOR))
    image[: logs.shape[0], : logs.shape[1]] = logs
    if image_size == FULL_FRAMES:
        return image
    factor = FULL_FRAMES // image_size
    return image.reshape(image_size, factor, image_size, factor).mean(axis=(1, 3))


def magnitude_to_image(
    mag: np.ndarray, stats: tuple[float, float], image_size: int
) -> np.ndarray:
    """(T <= FULL_FRAMES, bins) STFT magnitude -> (1, S, S) image.

    Takes ln(mag + MAG_FLOOR), pads it with ln(MAG_FLOOR) (the log of
    magnitude zero) to FULL_FRAMES time frames and FULL_FRAMES bands,
    average-pools it to `image_size`, then normalizes.  `build_corpus`
    writes the same image, normalizing in its second pass.
    """
    if np.any(mag < 0):
        raise ValueError("magnitudes must be nonnegative")
    return normalize(_log_image(np.log(mag + MAG_FLOOR), image_size), stats)[None]


def image_to_magnitude(image: np.ndarray, stats: tuple[float, float]) -> np.ndarray:
    """(S, S) normalized image -> (FULL_FRAMES, bins) STFT magnitude.

    Undoes `magnitude_to_image` as far as it can: repeats each pooled
    pixel over its block, denormalizes and drops the zero bands.  Exact
    (to rounding) at S = FULL_FRAMES, where padding frames come back as
    magnitude zero.
    """
    size = image.shape[0]
    if image.shape != (size, size) or FULL_FRAMES % size != 0:
        raise ValueError(f"image shape {image.shape} does not map to a spectrogram")
    factor = FULL_FRAMES // size
    big = np.repeat(np.repeat(image, factor, axis=0), factor, axis=1)
    return denormalize(big, stats)[:, : FULL_FRAMES - FREQ_ZERO_BANDS]


def image_to_waveform(
    image: np.ndarray, stats: tuple[float, float], phase: np.ndarray
) -> np.ndarray:
    """(S, S) normalized image -> audio, carried on `phase`'s frames.

    `phase` is the (T, 257) `stft` of a recording, T <= FULL_FRAMES; the
    image's first T frames of magnitude are overlap-added on its phase.
    """
    frames = phase.shape[0]
    if frames > FULL_FRAMES:
        raise ValueError(f"phase source has {frames} frames; expected at most {FULL_FRAMES}")
    return istft_phase_borrow(image_to_magnitude(image, stats)[:frames], phase)


def segment_to_spectrogram(samples: np.ndarray) -> np.ndarray | None:
    """(T, bins) STFT magnitude of one segment's audio, T <= FULL_FRAMES.

    Returns None (discard) when the segment spans more than FULL_FRAMES
    frames.  `magnitude_to_image` turns the magnitude into the image.
    """
    if frame_count(len(samples), STFT.window_len, STFT.hop) > FULL_FRAMES:
        return None  # found before any STFT is computed
    return np.abs(stft(samples))


# ---------------------------------------------------------------------------
# corpus sources: streams of (record, segment audio)


def _synthetic_segments(
    spec: SyntheticSpec, rng: Rng
) -> Iterator[tuple[SegmentRecord, np.ndarray]]:
    """Synthetic segments in order, synthesized _BLOCK_SEGMENTS at a time:
    each one's f0, duration and excitation are drawn in turn into a column
    of one fixed block, which `formant_filter` then runs down at once."""
    speaker_rng = rng.spawn(0)
    draw_rng = rng.spawn(1)
    speakers = []
    for i in range(spec.n_speakers):
        gender = "M" if i % 2 == 0 else "F"
        shift = speaker_rng.uniform(*_SHIFT_RANGE[gender])
        speakers.append((f"spk{i:02d}", gender, shift))
    keys = (
        (spk, gender, shift, vowel, draw)
        for spk, gender, shift in speakers
        for vowel in spec.vowels
        for draw in range(spec.draws_per_vowel)
    )

    block = np.zeros((_BLOCK_SAMPLES, _BLOCK_SEGMENTS))
    resonators = np.zeros((_BLOCK_SEGMENTS, 2, 2))
    while batch := list(islice(keys, _BLOCK_SEGMENTS)):
        block.fill(0.0)  # rows past a segment's end would hold the last block's output
        lengths = []
        for k, (_, gender, shift, vowel, _) in enumerate(batch):
            f0 = draw_rng.uniform(*_F0_RANGE[gender])
            duration = draw_rng.uniform(*_DURATION_RANGE)
            source = excitation(draw_rng, f0, duration)
            block[: len(source), k] = source
            lengths.append(len(source))
            resonators[k] = formant_resonators(vowel, shift)
        # every column, even unused ones, so that each step's rows are
        # contiguous: numpy runs a strided (2, K) view about 2x slower
        formant_filter(block[: max(lengths)], resonators)
        for k, ((spk, gender, _, vowel, draw), n) in enumerate(zip(batch, lengths)):
            record = SegmentRecord(f"{spk}_{vowel}_{draw:03d}", spk, gender, vowel)
            # one strided read of the column, then contiguous passes
            yield record, peak_normalize(block[:n, k].copy())


def _real_corpus_segments(root: Path, vowels) -> Iterator[tuple[SegmentRecord, np.ndarray]]:
    """Walk a "<dialect>/<G><ID>/<utt>.phn" tree with sibling WAV files,
    reading one utterance at a time."""
    for phn in sorted(root.rglob("*.phn")):
        wav_path = phn.with_suffix(".wav")
        if not wav_path.exists():
            continue
        speaker_dir = phn.parent.name
        dialect = phn.parent.parent.name
        gender = speaker_dir[:1].upper()
        if gender not in ("M", "F"):
            gender = "unknown"
        utt = f"{dialect}_{speaker_dir}_{phn.stem}"
        try:
            segments = extract_segments(parse_phone_alignment(phn.read_text()), vowels)
        except AlignmentParseError as exc:
            raise ValueError(f"{phn}: {exc}") from exc
        if not segments:
            continue
        audio = read_wav(wav_path)
        for begin, end, vowel in segments:
            if end > len(audio):
                raise ValueError(
                    f"{phn}: segment '{begin} {end} {vowel}' "
                    f"runs past the {len(audio)} samples of {wav_path.name}"
                )
        for begin, end, vowel in segments:
            yield SegmentRecord(utt, speaker_dir, gender, vowel), audio[begin:end]


# ---------------------------------------------------------------------------
# corpus builder


def build_corpus(
    source: SyntheticSpec | str | Path,
    config: DatasetConfig,
    rng: Rng,
    out_dir: str | Path,
) -> Manifest:
    """Build the spectrogram archive and manifest under `out_dir`.

    Deterministic given (source, config, rng seed).  Normalization
    stats are computed over the unpadded pixels (valid frames, real
    frequency bins) of the training split.  When noise augmentation is
    configured every record gets a noisy twin at the configured SNR.

    The build happens in a temporary directory under `out_dir`; its files
    replace the corpus there only once it has succeeded, so a failed build
    (a bad alignment or WAV, say) leaves an existing corpus as it was.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if isinstance(source, SyntheticSpec):
        raw = _synthetic_segments(source, rng)
        source_echo = {"kind": "synthetic", **asdict(source)}
    else:
        raw = _real_corpus_segments(Path(source), VOWELS)
        source_echo = {"kind": "real", "root": str(source)}

    with tempfile.TemporaryDirectory(prefix=".build-", dir=out_dir) as tmp:
        work = Path(tmp)
        manifest = _write_corpus(raw, source_echo, config, rng, work)
        for name in ("corpus.fstn", "manifest.jsonl", "corpus.json"):
            os.replace(work / name, out_dir / name)
        if config.write_wavs:
            (out_dir / "wavs").mkdir(exist_ok=True)
            for index in range(len(manifest.entries)):
                os.replace(wav_path(work, index), wav_path(out_dir, index))
    return manifest


def _write_corpus(
    raw: Iterator[tuple[SegmentRecord, np.ndarray]],
    source_echo: dict,
    config: DatasetConfig,
    rng: Rng,
    out_dir: Path,
) -> Manifest:
    """Stream `raw` into a corpus under `out_dir`, one segment at a time.

    Pass 1 writes each segment's un-normalized log image at its final
    offset and keeps only its entry and its log-magnitude sums; the split
    then fixes the stats, and pass 2 normalizes each record in place.
    """
    noise_rng = rng.spawn(2)
    split_rng = rng.spawn(3)
    if config.write_wavs:
        (out_dir / "wavs").mkdir()

    # pass 1: attach noisy twins, take each magnitude once, drop unusable
    # segments, and keep of each only its entry and its log-magnitude sums
    entries: list[ManifestEntry] = []
    sums: list[tuple[float, float, int]] = []  # per entry: sum, sum of squares, count
    n_raw = 0
    # one buffer for every segment: a fresh 0.63 MiB image each time makes
    # the allocator return and re-fault its pages
    padded = np.empty((FULL_FRAMES, FULL_FRAMES))
    with open(out_dir / "corpus.fstn", "wb") as archive:
        for rec, audio in raw:
            n_raw += 1
            if len(audio) < STFT.window_len:
                continue  # shorter than one analysis window; draws no noise
            variants = [(rec, audio)]
            if config.noise_snr_db is not None:
                twin = replace(rec, noise_snr_db=config.noise_snr_db)
                variants.append((twin, add_white_noise(audio, noise_rng, config.noise_snr_db)))
            for vrec, vaudio in variants:
                mag = segment_to_spectrogram(vaudio)
                if mag is None:
                    continue
                logs = np.log(np.add(mag, MAG_FLOOR, out=mag), out=mag)
                entries.append(ManifestEntry(vrec, mag.shape[0], offset=archive.tell()))
                write_tensor_to(archive, _log_image(logs, config.image_size, padded)[None])
                total = float(logs.sum())
                sums.append((total, float(np.square(logs, out=logs).sum()), logs.size))
                if config.write_wavs:
                    write_wav(wav_path(out_dir, len(entries) - 1), vaudio)
    if n_raw == 0:
        raise ValueError("corpus source produced no vowel segments")
    if not entries:
        raise ValueError("all segments were discarded")

    # 90/10 split by utterance
    utterances = sorted({e.record.utterance_id for e in entries})
    order = split_rng.permutation(len(utterances))
    n_train = max(1, int(round(config.train_fraction * len(utterances))))
    train_utts = sorted(utterances[i] for i in order[:n_train])
    train_set = set(train_utts)

    # normalization stats over unpadded pixels of the training split
    total, total_sq, count = 0.0, 0.0, 0
    for e, (s, sq, n) in zip(entries, sums):
        if e.record.utterance_id in train_set:
            total += s
            total_sq += sq
            count += n
    if count == 0:
        raise ValueError("training split is empty")
    mean = total / count
    var = max(total_sq / count - mean * mean, 1e-12)
    stats = (mean, math.sqrt(var))

    config_echo = {
        "source": source_echo,
        "image_size": config.image_size,
        "stft": asdict(STFT),
        "noise_snr_db": config.noise_snr_db,
        "train_fraction": config.train_fraction,
        "seed": rng.seed,
    }
    manifest = Manifest(
        entries=entries, stats=stats, config=config_echo, train_utterances=train_utts
    )

    # pass 2: normalize each record in place
    with open(out_dir / "corpus.fstn", "r+b") as archive:
        for e in entries:
            archive.seek(e.offset)
            image = read_tensor_from(archive)
            archive.seek(e.offset)
            write_tensor_to(archive, normalize(image, stats))

    save_manifest(manifest, out_dir)
    return manifest


# ---------------------------------------------------------------------------
# persistence


def save_manifest(manifest: Manifest, out_dir: str | Path) -> None:
    out_dir = Path(out_dir)
    with open(out_dir / "manifest.jsonl", "w") as fp:
        for e in manifest.entries:
            fp.write(json.dumps({
                "utt": e.record.utterance_id,
                "spk": e.record.speaker_id,
                "gender": e.record.gender,
                "vowel": e.record.vowel,
                "valid_frames": e.valid_frames,
                "offset": e.offset,
                "noise_snr_db": e.record.noise_snr_db,
            }) + "\n")
    header = {
        "format": "vowelflow-corpus-v1",
        "stats": {"mean": manifest.stats[0], "std": manifest.stats[1]},
        "config": manifest.config,
        "train_utterances": manifest.train_utterances,
    }
    with open(out_dir / "corpus.json", "w") as fp:
        json.dump(header, fp, indent=1)
        fp.write("\n")


def load_manifest(corpus_dir: str | Path) -> Manifest:
    corpus_dir = Path(corpus_dir)
    header_path = corpus_dir / "corpus.json"
    try:
        header = json.loads(header_path.read_text())
        stats = (header["stats"]["mean"], header["stats"]["std"])
        config = header["config"]
        train_utterances = list(header["train_utterances"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{header_path}: bad corpus header ({exc!r})") from exc
    path = corpus_dir / "manifest.jsonl"
    entries = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        try:
            row = json.loads(line)
            entries.append(ManifestEntry(
                record=SegmentRecord(
                    utterance_id=row["utt"],
                    speaker_id=row["spk"],
                    gender=row["gender"],
                    vowel=row["vowel"],
                    noise_snr_db=row["noise_snr_db"],
                ),
                valid_frames=row["valid_frames"],
                offset=row["offset"],
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}, line {number}: bad manifest row ({exc!r})") from exc
    try:
        return Manifest(entries, stats, config, train_utterances)
    except ValueError as exc:
        # the offsets come from manifest.jsonl, the stats from corpus.json
        raise ValueError(f"{path} with {header_path.name}: {exc}") from exc


def wav_path(corpus_dir: str | Path, index: int) -> Path:
    """Where `write_wavs` stores the audio of manifest entry `index`."""
    return Path(corpus_dir) / "wavs" / f"{index}.wav"


class CorpusReader:
    """Random access to archived spectrograms via manifest offsets.

    Pass the corpus's already loaded `manifest` to skip parsing it again.
    """

    def __init__(self, corpus_dir: str | Path, manifest: Manifest | None = None):
        self.dir = Path(corpus_dir)
        self.manifest = load_manifest(self.dir) if manifest is None else manifest
        self._archive = open(self.dir / "corpus.fstn", "rb")

    def close(self):
        self._archive.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def pixels(self, index: int) -> np.ndarray:
        self._archive.seek(self.manifest.entries[index].offset)
        try:
            return read_tensor_from(self._archive)
        except ValueError as exc:
            raise ValueError(f"{self._archive.name}, entry {index}: {exc}") from exc

    def load(self, indices=None) -> np.ndarray:
        """Stack of (N, 1, S, S) pixel tensors for the given indices, read
        into one array: a loaded split is never held twice."""
        if indices is None:
            indices = range(len(self.manifest.entries))
        out = None
        for k, i in enumerate(indices):
            image = self.pixels(i)
            if out is None:
                out = np.empty((len(indices), *image.shape))
            out[k] = image
        if out is None:
            raise ValueError("no corpus entries to load")
        return out

"""Fixed-size spectrogram corpus construction.

Each vowel segment goes through one front end: `segment_to_spectrogram`
takes its (T, 257) STFT magnitude (None past FULL_FRAMES frames) and
`magnitude_to_image` shapes that into the normalized (1, S, S) image;
`image_to_magnitude` is the way back.

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
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .numerics import Rng, read_tensor_from, write_tensor_to
from .signal import (
    FORMANTS,
    MAG_FLOOR,
    STFT,
    VOWELS,
    add_white_noise,
    denormalize,
    istft_phase_borrow,
    log_normalize,
    read_wav,
    stft,
    synth_vowel,
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


def padding_value(stats: tuple[float, float]) -> float:
    """Image of magnitude zero under log_normalize: the padding constant."""
    return float(log_normalize(np.zeros(1), stats)[0])


def _pool(image: np.ndarray, size: int) -> np.ndarray:
    factor = image.shape[0] // size
    return image.reshape(size, factor, size, factor).mean(axis=(1, 3))


def magnitude_to_image(
    mag: np.ndarray, stats: tuple[float, float], image_size: int
) -> np.ndarray:
    """(T <= FULL_FRAMES, bins) STFT magnitude -> (1, S, S) normalized image.

    Appends FREQ_ZERO_BANDS zero frequency bands, normalizes, pads the time
    axis to FULL_FRAMES frames (padding rows take the normalized-zero
    constant), then average-pools to `image_size` when a desk-scale size is
    configured.
    """
    image = np.full((FULL_FRAMES, FULL_FRAMES), padding_value(stats))
    # the zero bands and padding rows already hold the normalized zero
    image[: mag.shape[0], : mag.shape[1]] = log_normalize(mag, stats)
    if image_size != FULL_FRAMES:
        image = _pool(image, image_size)
    return image[None]


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
    mag = np.abs(stft(samples))
    return mag if mag.shape[0] <= FULL_FRAMES else None


# ---------------------------------------------------------------------------
# corpus sources: lists of (record, segment audio)


def _synthetic_segments(
    spec: SyntheticSpec, rng: Rng
) -> list[tuple[SegmentRecord, np.ndarray]]:
    speaker_rng = rng.spawn(0)
    draw_rng = rng.spawn(1)
    speakers = []
    for i in range(spec.n_speakers):
        gender = "M" if i % 2 == 0 else "F"
        shift = speaker_rng.uniform(*_SHIFT_RANGE[gender])
        speakers.append((f"spk{i:02d}", gender, shift))

    out = []
    for spk, gender, shift in speakers:
        for vowel in spec.vowels:
            for draw in range(spec.draws_per_vowel):
                f0 = draw_rng.uniform(*_F0_RANGE[gender])
                duration = draw_rng.uniform(*_DURATION_RANGE)
                audio = synth_vowel(draw_rng, vowel, f0, duration, shift)
                rec = SegmentRecord(f"{spk}_{vowel}_{draw:03d}", spk, gender, vowel)
                out.append((rec, audio))
    return out


def _real_corpus_segments(root: Path, vowels) -> list[tuple[SegmentRecord, np.ndarray]]:
    """Walk a "<dialect>/<G><ID>/<utt>.phn" tree with sibling WAV files."""
    out = []
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
        out.extend(
            (SegmentRecord(utt, speaker_dir, gender, vowel), audio[begin:end])
            for begin, end, vowel in segments
        )
    return out


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
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if isinstance(source, SyntheticSpec):
        raw = _synthetic_segments(source, rng)
        source_echo = {"kind": "synthetic", **asdict(source)}
    else:
        raw = _real_corpus_segments(Path(source), VOWELS)
        source_echo = {"kind": "real", "root": str(source)}
    if not raw:
        raise ValueError("corpus source produced no vowel segments")

    noise_rng = rng.spawn(2)
    split_rng = rng.spawn(3)

    # attach noisy twins, take each magnitude, drop unusable segments
    segments: list[tuple[SegmentRecord, np.ndarray, np.ndarray]] = []  # (rec, audio, mag)
    for rec, audio in raw:
        if len(audio) < STFT.window_len:
            continue  # shorter than one analysis window; draws no noise
        variants = [(rec, audio)]
        if config.noise_snr_db is not None:
            twin = replace(rec, noise_snr_db=config.noise_snr_db)
            variants.append((twin, add_white_noise(audio, noise_rng, config.noise_snr_db)))
        for vrec, vaudio in variants:
            mag = segment_to_spectrogram(vaudio)
            if mag is not None:
                segments.append((vrec, vaudio, mag))

    if not segments:
        raise ValueError("all segments were discarded")

    # 90/10 split by utterance
    utterances = sorted({rec.utterance_id for rec, _, _ in segments})
    order = split_rng.permutation(len(utterances))
    n_train = max(1, int(round(config.train_fraction * len(utterances))))
    train_utts = sorted(utterances[i] for i in order[:n_train])
    train_set = set(train_utts)

    # normalization stats over unpadded pixels of the training split
    total, total_sq, count = 0.0, 0.0, 0
    for rec, _, mag in segments:
        if rec.utterance_id in train_set:
            logs = np.log(mag + MAG_FLOOR)
            total += float(logs.sum())
            total_sq += float((logs**2).sum())
            count += logs.size
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

    entries = []
    if config.write_wavs:
        (out_dir / "wavs").mkdir(exist_ok=True)
    with open(out_dir / "corpus.fstn", "wb") as archive:
        for index, (rec, audio, mag) in enumerate(segments):
            offset = archive.tell()
            write_tensor_to(archive, magnitude_to_image(mag, stats, config.image_size))
            entries.append(ManifestEntry(record=rec, valid_frames=mag.shape[0], offset=offset))
            if config.write_wavs:
                write_wav(wav_path(out_dir, index), audio)

    manifest = Manifest(
        entries=entries, stats=stats, config=config_echo, train_utterances=train_utts
    )
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
        """Stack of (N, 1, S, S) pixel tensors for the given indices."""
        if indices is None:
            indices = range(len(self.manifest.entries))
        return np.stack([self.pixels(i) for i in indices])

"""Subject/slice data model, augmentation, manifest I/O and the synthetic
dataset generator.

A manifest is UTF-8 JSON naming subjects (id, CDR, label, demographics) and
their slice files (TSR1, shape [H,W], raw intensities in [0, ceiling]).
The label rule is fixed: label 1 (positive) iff CDR > 0.

``SliceReader`` is the only place raw slices become model input: ``reader[a:b]``
reads slices a..b-1, checks them and scale-normalizes each by the manifest's
intensity ceiling into the [b-a,1,H,W] tensor ``forward`` takes.
``load_slice_set`` either reads the whole set once into one array (training
indexes and augments its rows) or hands the reader itself on as the set's
``x``, so evaluation holds one micro-batch of input at a time. ``augment``
works on slices that are already normalized.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, FormatError, check_real
from .rng import TAG_SYNTH, SplitMixStream
from .tensor import read_array, read_header, write_array, write_json

VALID_CDR = (0.0, 0.5, 1.0, 2.0, 3.0)
SLICE_KEY_SEP = "#"


@dataclass
class SubjectRecord:
    subject_id: str
    cdr: float
    label: int
    age: float
    sex: str
    mmse: int | None
    slice_paths: list

    def __post_init__(self):
        if not self.subject_id:
            raise DataError("subject_id must be nonempty")
        if SLICE_KEY_SEP in self.subject_id:
            raise DataError(f"subject_id may not contain {SLICE_KEY_SEP!r}: {self.subject_id!r}")
        if float(self.cdr) not in VALID_CDR:
            raise DataError(f"{self.subject_id}: CDR must be one of {VALID_CDR}, got {self.cdr}")
        expected = 1 if self.cdr > 0 else 0
        if int(self.label) != expected:
            raise DataError(
                f"{self.subject_id}: label/CDR contradiction (label {self.label}, CDR {self.cdr})"
            )
        if self.sex not in ("M", "F"):
            raise DataError(f"{self.subject_id}: sex must be 'M' or 'F', got {self.sex!r}")
        if self.mmse is not None and not 0 <= int(self.mmse) <= 30:
            raise DataError(f"{self.subject_id}: MMSE must be in 0..30, got {self.mmse}")
        if not self.slice_paths:
            raise DataError(f"{self.subject_id}: slice_paths must be nonempty")


@dataclass
class DatasetManifest:
    name: str
    slice_height: int
    slice_width: int
    subjects: list
    intensity_ceiling: float = 255.0
    root: Path | None = None  # directory slice paths are relative to; not serialized

    def __post_init__(self):
        if self.slice_height < 1 or self.slice_width < 1:
            raise DataError("slice dims must be positive")
        if not 0 < self.intensity_ceiling < np.inf:
            raise DataError(
                f"intensity_ceiling must be positive and finite, got {self.intensity_ceiling}")
        seen = set()
        for s in self.subjects:
            if s.subject_id in seen:
                raise DataError(f"duplicate subject_id {s.subject_id!r}")
            seen.add(s.subject_id)

    def subject(self, subject_id: str) -> SubjectRecord:
        for s in self.subjects:
            if s.subject_id == subject_id:
                return s
        raise DataError(f"unknown subject_id {subject_id!r}")

    def resolve(self, slice_path: str) -> Path:
        p = Path(slice_path)
        if p.is_absolute() or self.root is None:
            return p
        return self.root / p

    def slice_keys(self):
        """Every slice as "subject_id#index"."""
        keys = []
        for s in self.subjects:
            keys.extend(f"{s.subject_id}{SLICE_KEY_SEP}{i}" for i in range(len(s.slice_paths)))
        return keys


def scale_normalize(slice_arr: np.ndarray, ceiling: float = 255.0) -> np.ndarray:
    """Divide by the intensity ceiling so values land in [0,1].

    Negative input intensities signal corrupt data; values above the ceiling
    are clipped to 1.
    """
    if not 0 < ceiling < np.inf:
        raise ConfigError(f"ceiling must be positive and finite, got {ceiling}")
    arr = np.asarray(slice_arr)
    if np.any(arr < 0):
        raise DataError("negative intensities in slice")
    return np.minimum(arr / arr.dtype.type(ceiling), arr.dtype.type(1.0))


@dataclass
class AugmentConfig:
    width_shift_frac: float = 0.1
    height_shift_frac: float = 0.1
    horizontal_flip: bool = True

    def __post_init__(self):
        for name in ("width_shift_frac", "height_shift_frac"):
            v = getattr(self, name)
            check_real(name, v)
            if not 0.0 <= v <= 0.5:
                raise ConfigError(f"{name} must be in [0, 0.5], got {v}")
        if not isinstance(self.horizontal_flip, bool):
            raise ConfigError(
                f"horizontal_flip must be true or false, got {self.horizontal_flip!r}")


def augment(batch: np.ndarray, cfg: AugmentConfig, stream: SplitMixStream) -> np.ndarray:
    """Random integer shift (zero-filled) and coin-flip horizontal mirror of
    each slice of a normalized [N,C,H,W] batch.

    ``stream`` is one batch stream with a row per slice (keyed by the batch's
    sample indices). Each row draws, in this fixed order, a width shift dx, a
    height shift dy and a flip; slice n becomes out[y, x] = in[y - dy, x - dx],
    zero outside the frame, then mirrored left-right if its flip came up.
    """
    if batch.ndim != 4:
        raise DataError(f"expected a [N,C,H,W] batch, got shape {batch.shape}")
    n, _, h, w = batch.shape
    max_dx = int(math.floor(cfg.width_shift_frac * w))
    max_dy = int(math.floor(cfg.height_shift_frac * h))
    dx = stream.randint(-max_dx, max_dx) if max_dx else 0
    dy = stream.randint(-max_dy, max_dy) if max_dy else 0
    # window (max_dy - dy, max_dx - dx) of the padded slice is the shifted slice
    padded = np.pad(batch, ((0, 0), (0, 0), (max_dy, max_dy), (max_dx, max_dx)))
    windows = sliding_window_view(padded, (h, w), axis=(2, 3))
    out = windows[np.arange(n), :, max_dy - dy, max_dx - dx]
    if cfg.horizontal_flip:
        flip = stream.bernoulli(0.5)
        out[flip] = out[flip, ..., ::-1]
    return out


def save_manifest(path, manifest: DatasetManifest) -> None:
    doc = {
        "name": manifest.name,
        "slice_height": manifest.slice_height,
        "slice_width": manifest.slice_width,
        "intensity_ceiling": manifest.intensity_ceiling,
        "subjects": [
            {
                "subject_id": s.subject_id,
                "cdr": s.cdr,
                "label": s.label,
                "age": s.age,
                "sex": s.sex,
                "mmse": s.mmse,
                "slices": list(s.slice_paths),
            }
            for s in manifest.subjects
        ],
    }
    write_json(path, doc)


def load_manifest(path, check_files: bool = True) -> DatasetManifest:
    """Parse and validate a manifest; rejects duplicate ids, label/CDR
    contradictions, missing slice files and dimension mismatches."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: unreadable manifest: {exc}") from exc
    try:
        subjects = [
            SubjectRecord(
                subject_id=s["subject_id"],
                cdr=float(s["cdr"]),
                label=int(s["label"]),
                age=float(s["age"]),
                sex=s["sex"],
                mmse=None if s.get("mmse") is None else int(s["mmse"]),
                slice_paths=list(s["slices"]),
            )
            for s in doc["subjects"]
        ]
        manifest = DatasetManifest(
            name=doc["name"],
            slice_height=int(doc["slice_height"]),
            slice_width=int(doc["slice_width"]),
            intensity_ceiling=float(doc.get("intensity_ceiling", 255.0)),
            subjects=subjects,
            root=path.parent,
        )
    except KeyError as exc:
        raise DataError(f"{path}: malformed manifest: missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed manifest: {exc}") from exc
    if check_files:
        expect = (manifest.slice_height, manifest.slice_width)
        for s in manifest.subjects:
            for rel in s.slice_paths:
                f = manifest.resolve(rel)
                if not f.is_file():
                    raise DataError(f"{s.subject_id}: missing slice file {f}")
                dims = read_header(f)
                if tuple(dims) != expect:
                    raise DataError(
                        f"{s.subject_id}: slice {f} has dims {dims}, manifest declares {expect}"
                    )
    return manifest


class SliceReader:
    """The slices ``keys`` ("subject#index") of ``manifest`` as a read-on-demand
    [M,1,H,W] float32 array.

    ``reader[a:b]`` reads slices a..b-1 from their files, checks each (finite
    TSR1 payload, the manifest's dims, no negative intensity) and
    scale-normalizes it by the manifest's intensity ceiling into one new
    float32 [b-a,1,H,W] array; a failure names the slice's key and file.
    Construction reads no file: it resolves every key and rejects an unknown
    subject, an index out of range and a key listed twice.
    """

    itemsize = np.dtype(np.float32).itemsize

    def __init__(self, manifest: DatasetManifest, keys: list):
        self.keys = keys
        self.subjects = []  # SubjectRecord of each key
        self._paths = []
        seen = set()
        for key in keys:
            if key in seen:
                raise DataError(f"slice {key} is listed more than once")
            seen.add(key)
            sid, _, idx = key.rpartition(SLICE_KEY_SEP)
            rec = manifest.subject(sid)
            i = int(idx) if idx.isdigit() else -1
            if not 0 <= i < len(rec.slice_paths):
                raise DataError(f"slice index {idx!r} out of range for subject {sid}")
            self.subjects.append(rec)
            self._paths.append(manifest.resolve(rec.slice_paths[i]))
        self._ceiling = manifest.intensity_ceiling
        self.shape = (len(keys), 1, manifest.slice_height, manifest.slice_width)

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, index: slice) -> np.ndarray:
        start, stop, step = index.indices(len(self))
        if step != 1:
            raise IndexError("a SliceReader takes contiguous slices only")
        out = np.empty((max(0, stop - start), *self.shape[1:]), dtype=np.float32)
        for row, key, path in zip(out, self.keys[start:stop], self._paths[start:stop]):
            try:
                raw = read_array(path)
                if raw.shape != self.shape[2:]:
                    raise DataError(f"dims {raw.shape}, manifest declares {self.shape[2:]}")
                row[0] = scale_normalize(raw, self._ceiling)
            except FormatError as exc:  # its message starts with the path
                raise FormatError(f"slice {key}: {exc}") from exc
            except DataError as exc:
                raise DataError(f"slice {key} ({path}): {exc}") from exc
        return out


@dataclass
class SliceSet:
    """Model input with labels and subject provenance.

    ``x`` holds every slice scale-normalized into [0, 1] by its manifest's
    intensity ceiling, already shaped as the model's input: an array, or a
    ``SliceReader`` that reads contiguous rows on demand.
    """

    x: np.ndarray | SliceReader  # [M,1,H,W] float32 in [0, 1]
    labels: np.ndarray  # [M] int64
    subject_ids: list  # length M
    slice_keys: list  # length M, "subject#index"

    def __len__(self):
        return len(self.slice_keys)


def load_slice_set(manifest: DatasetManifest, members, materialize: bool = True) -> SliceSet:
    """The slices selected by ``members``, each scale-normalized by the
    manifest's intensity ceiling. A member is a subject id, which stands for
    all of that subject's slices, or a slice key, which stands for itself.

    With ``materialize`` every slice is read now into one array; without, the
    set's ``x`` is its ``SliceReader`` and a slice is read when a row range
    that holds it is taken.
    """
    keys = []
    for m in members:
        if SLICE_KEY_SEP in m:
            keys.append(m)
        else:
            keys.extend(f"{m}{SLICE_KEY_SEP}{i}" for i in range(len(manifest.subject(m).slice_paths)))
    if not keys:
        raise DataError("empty member list")
    reader = SliceReader(manifest, keys)
    return SliceSet(
        x=reader[:] if materialize else reader,
        labels=np.asarray([rec.label for rec in reader.subjects], dtype=np.int64),
        subject_ids=[rec.subject_id for rec in reader.subjects],
        slice_keys=keys,
    )


# Synthetic generator constants. Class 1 carries an atrophy-like reduced
# intensity disc whose radius and darkening grow with a CDR-like severity.
_SEVERITY_VALUES = (0.5, 1.0, 2.0)
_SEVERITY_WEIGHTS = (60, 28, 2)  # matches the observed CDR mix in a 90-subject cohort
_CEILING = 255.0


def _subject_demographics(stream: SplitMixStream, label: int):
    if label == 0:
        age = min(94.0, max(62.0, 76.92 + 8.55 * stream.normal()))
        mmse = int(round(min(30.0, max(25.0, 28.9 + 1.24 * stream.normal()))))
        sex = "M" if stream.bernoulli(24 / 90) else "F"
        cdr = 0.0
    else:
        age = min(96.0, max(62.0, 76.93 + 7.40 * stream.normal()))
        mmse = int(round(min(30.0, max(14.0, 24.05 + 4.26 * stream.normal()))))
        sex = "M" if stream.bernoulli(38 / 90) else "F"
        cdr = stream.choice_weighted(_SEVERITY_VALUES, _SEVERITY_WEIGHTS)
    return round(age, 1), mmse, sex, cdr


def _render_slice(h, w, t, subject_shape, lesion, noise):
    """One slice: elliptical head with smooth per-subject texture, optional
    central darkened disc, additive noise; values clipped to [0, ceiling]."""
    u1, u2, u3, phase = subject_shape
    yy, xx = np.meshgrid(np.linspace(-1, 1, h), np.linspace(-1, 1, w), indexing="ij")
    # head cross-section widens mid-stack and narrows at the ends
    scale = 0.88 + 0.04 * (1.0 - (2.0 * t - 1.0) ** 2)
    r2 = (xx / (0.92 * scale)) ** 2 + (yy / (1.0 * scale)) ** 2
    head = r2 < 1.0
    base = 165.0 + 6.0 * u1 + 4.0 * (u2 * xx + u3 * yy) + 4.0 * np.cos(3.2 * np.sqrt(r2) + phase)
    img = np.where(head, base, 0.0)
    if lesion is not None:
        cx, cy, radius, strength = lesion
        d2 = (xx - cx) ** 2 + (yy - cy) ** 2
        img = np.where(head & (d2 < radius ** 2), img * (1.0 - strength), img)
    img = img + noise
    return np.clip(img, 0.0, _CEILING).astype(np.float32)


def generate_synthetic(n_per_class: int, slices_per_subject: int, h: int, w: int,
                       seed: int, out_dir) -> DatasetManifest:
    """Write a deterministic two-class dataset under ``out_dir`` and return
    its manifest (also saved as out_dir/manifest.json).

    Class 1 subjects get a severity-scaled reduced-intensity region on top of
    the shared smooth background; class 0 subjects do not.
    """
    if min(n_per_class, slices_per_subject, h, w) < 1:
        raise ConfigError("all generator counts must be >= 1")
    out_dir = Path(out_dir)
    slices_dir = out_dir / "slices"
    slices_dir.mkdir(parents=True, exist_ok=True)

    subjects = []
    for label, prefix in ((0, "nc"), (1, "ad")):
        for i in range(n_per_class):
            sid = f"{prefix}-{i:03d}"
            demo_stream = SplitMixStream(seed, TAG_SYNTH, label, i, 0)
            age, mmse, sex, cdr = _subject_demographics(demo_stream, label)
            shape_stream = SplitMixStream(seed, TAG_SYNTH, label, i, 1)
            subject_shape = (
                shape_stream.normal() * 0.5,
                shape_stream.normal() * 0.6,
                shape_stream.normal() * 0.6,
                shape_stream.uniform() * 2.0 * np.pi,
            )
            lesion = None
            if label == 1:
                severity = cdr
                lesion = (
                    shape_stream.uniform() * 0.16 - 0.08,
                    shape_stream.uniform() * 0.16 - 0.08,
                    0.68 + 0.05 * severity,
                    min(0.95, 0.82 + 0.05 * severity),
                )
            subject_dir = slices_dir / sid
            subject_dir.mkdir(exist_ok=True)
            paths = []
            noise_stream = SplitMixStream(seed, TAG_SYNTH, label, i, 2, np.arange(slices_per_subject))
            noise = noise_stream.normal((h, w)) * 2.5
            for j in range(slices_per_subject):
                t = j / max(1, slices_per_subject - 1)
                img = _render_slice(h, w, t, subject_shape, lesion, noise[j])
                rel = f"slices/{sid}/s{j:03d}.tsr"
                write_array(out_dir / rel, img)
                paths.append(rel)
            subjects.append(
                SubjectRecord(
                    subject_id=sid, cdr=cdr, label=label, age=age, sex=sex,
                    mmse=mmse, slice_paths=paths,
                )
            )

    manifest = DatasetManifest(
        name=f"synthetic-{n_per_class}x2-{slices_per_subject}",
        slice_height=h,
        slice_width=w,
        intensity_ceiling=_CEILING,
        subjects=subjects,
        root=out_dir,
    )
    save_manifest(out_dir / "manifest.json", manifest)
    return manifest

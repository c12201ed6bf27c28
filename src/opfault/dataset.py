"""Vibration record corpus: working conditions, manifest I/O, splits.

A dataset directory holds one raw little-endian float32 file per record plus
a manifest.csv describing it. Machines "A" and "B" have fixed sensor/speed/
load profiles that are validated strictly; any other machine name (synthetic
rigs, ad-hoc captures) is accepted as long as the numbers are sane.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import signal as sig

FS = 4096  # samples per second; one segment is exactly one second

MANIFEST_NAME = "manifest.csv"
MANIFEST_COLUMNS = ("file", "machine", "sensor", "speed", "load",
                    "fault_type", "defect_mm", "duration_s")

FAULT_TYPES = ("healthy", "inner", "outer")

DEFECT_MM_RANGE = (0.35, 2.35)


@dataclass(frozen=True)
class MachineProfile:
    sensors: tuple
    speeds: tuple
    loads: tuple


# fixed test-rig layouts; synthetic machines are not constrained by these
MACHINE_PROFILES = {
    "A": MachineProfile(sensors=(1, 2, 3, 4, 5), speeds=(480, 680, 1010),
                        loads=(0.12, 0.20)),
    "B": MachineProfile(sensors=(1, 2, 3, 4, 5, 6), speeds=(240, 360, 480, 700, 1020),
                        loads=(0.15,)),
}


@dataclass(frozen=True)
class WorkingCondition:
    machine: str
    sensor: int
    speed_rpm: float
    load: float

    @property
    def key(self):
        return (self.machine, self.sensor, self.speed_rpm, self.load)

    def validate(self):
        if self.sensor < 1:
            raise ValueError(f"sensor index must be >= 1, got {self.sensor}")
        if self.speed_rpm <= 0:
            raise ValueError(f"speed must be positive, got {self.speed_rpm}")
        if self.load < 0:
            raise ValueError(f"load must be >= 0, got {self.load}")
        profile = MACHINE_PROFILES.get(self.machine)
        if profile is not None:
            if self.sensor not in profile.sensors:
                raise ValueError(f"machine {self.machine} has no sensor {self.sensor}")
            if self.speed_rpm not in profile.speeds:
                raise ValueError(f"machine {self.machine} does not run at "
                                 f"{self.speed_rpm} rpm")
            if self.load not in profile.loads:
                raise ValueError(f"machine {self.machine} does not run at load {self.load}")
        return self


@dataclass
class Record:
    samples: np.ndarray
    condition: WorkingCondition
    fault_type: str = "healthy"
    defect_mm: float = 0.0
    name: str = ""

    @property
    def duration_s(self) -> float:
        return self.samples.size / FS

    def validate(self):
        self.condition.validate()
        if self.fault_type not in FAULT_TYPES:
            raise ValueError(f"unknown fault type {self.fault_type!r}")
        if self.fault_type == "healthy":
            if self.defect_mm != 0.0:
                raise ValueError("healthy records must have defect_mm == 0")
        else:
            if self.defect_mm <= 0.0:
                raise ValueError("faulty records need a positive defect_mm")
            lo, hi = DEFECT_MM_RANGE
            if self.condition.machine in MACHINE_PROFILES and not lo <= self.defect_mm <= hi:
                raise ValueError(f"defect_mm {self.defect_mm} outside [{lo}, {hi}] "
                                 f"for machine {self.condition.machine}")
        if self.samples.ndim != 1:
            raise ValueError("record samples must be 1D")
        return self


def default_record_name(rec: Record, index: int = 0) -> str:
    c = rec.condition
    return (f"{c.machine}_s{c.sensor}_{c.speed_rpm:g}rpm_{c.load:g}_"
            f"{rec.fault_type}_{rec.defect_mm:g}mm_r{index}")


def write_dataset(path, records: list) -> None:
    """Write records + manifest. Every record is validated first; names are
    assigned where missing and must be unique."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    names = set()
    rows = []
    for i, rec in enumerate(records):
        rec.validate()
        name = rec.name or default_record_name(rec, i)
        if name in names:
            raise ValueError(f"duplicate record name {name!r}")
        names.add(name)
        rec.name = name
        fname = name + ".f32"
        np.ascontiguousarray(rec.samples, dtype="<f4").tofile(path / fname)
        c = rec.condition
        rows.append((fname, c.machine, c.sensor, c.speed_rpm, c.load,
                     rec.fault_type, rec.defect_mm, rec.duration_s))
    rows.sort()
    with open(path / MANIFEST_NAME, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        writer.writerows(rows)


def load_dataset(path):
    """Read a dataset directory back as (records, manifest_rows).

    Raises on a missing/empty manifest, unknown machines' constraint
    violations, or when a file's sample count disagrees with its declared
    duration. A strict-profile machine that is present with only part of its
    profile coverage earns a warning, not an error."""
    path = Path(path)
    manifest = path / MANIFEST_NAME
    if not manifest.is_file():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {path}")
    records = []
    rows = []
    with open(manifest, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != MANIFEST_COLUMNS:
            raise ValueError(f"manifest columns {reader.fieldnames} != "
                             f"{list(MANIFEST_COLUMNS)}")
        for row in reader:
            cond = WorkingCondition(machine=row["machine"], sensor=int(row["sensor"]),
                                    speed_rpm=float(row["speed"]), load=float(row["load"]))
            fpath = path / row["file"]
            if not fpath.is_file():
                raise FileNotFoundError(f"manifest references missing file {row['file']}")
            samples = np.fromfile(fpath, dtype="<f4")
            expected = round(float(row["duration_s"]) * FS)
            if samples.size != expected:
                raise ValueError(f"{row['file']}: {samples.size} samples on disk, "
                                 f"manifest declares {expected}")
            rec = Record(samples=samples.astype(np.float32), condition=cond,
                         fault_type=row["fault_type"], defect_mm=float(row["defect_mm"]),
                         name=Path(row["file"]).stem)
            rec.validate()
            records.append(rec)
            rows.append(dict(row))
    if not records:
        raise ValueError(f"dataset at {path} is empty")
    _warn_on_partial_coverage(records)
    return records, rows


def _warn_on_partial_coverage(records: list):
    seen = {}
    for rec in records:
        c = rec.condition
        if c.machine in MACHINE_PROFILES:
            seen.setdefault(c.machine, set()).add((c.sensor, c.speed_rpm, c.load))
    for machine, combos in seen.items():
        profile = MACHINE_PROFILES[machine]
        full = {(s, sp, ld) for s in profile.sensors for sp in profile.speeds
                for ld in profile.loads}
        missing = len(full - combos)
        if missing:
            warnings.warn(f"machine {machine}: {missing} of {len(full)} "
                          f"sensor/speed/load combinations absent from dataset",
                          stacklevel=2)


def record_to_segments(rec: Record, segment_len: int = sig.SEGMENT_LEN) -> list:
    """The record's normalized segments."""
    segs = sig.segment_record(rec.samples, segment_len=segment_len,
                              condition=rec.condition, source_record=rec.name)
    return sig.normalize_segments(segs)


def records_to_segments(records: list, segment_len: int = sig.SEGMENT_LEN) -> list:
    out = []
    for rec in records:
        out.extend(record_to_segments(rec, segment_len))
    return out


def split_segments(segments: list, fraction: float = 0.71, seed: int = 0):
    """Seeded stratified split: within every working condition the segments
    are shuffled and cut at round(fraction * n). Returns (first, second);
    together they are exactly the input, disjoint."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    groups = {}
    for s in segments:
        key = s.condition.key if s.condition is not None else None
        groups.setdefault(key, []).append(s)
    first, second = [], []
    keys = sorted(groups, key=lambda k: ("",) if k is None else tuple(map(str, k)))
    children = np.random.SeedSequence(seed).spawn(len(keys))
    for key, ss in zip(keys, children):
        group = groups[key]
        order = np.random.default_rng(ss).permutation(len(group))
        cut = round(fraction * len(group))
        first.extend(group[i] for i in order[:cut])
        second.extend(group[i] for i in order[cut:])
    return first, second


def healthy_faulty_split(records: list):
    healthy = [r for r in records if r.fault_type == "healthy"]
    faulty = [r for r in records if r.fault_type != "healthy"]
    return healthy, faulty


def save_segments(path, segments: list) -> None:
    """Archive a list of segments (samples plus condition metadata) as one
    .npz file; the working condition must be present on every segment."""
    if not segments:
        raise ValueError("no segments to save")
    for s in segments:
        if s.condition is None:
            raise ValueError("segments need a working condition to be archived")
    np.savez(
        path,
        samples=np.stack([s.samples for s in segments]).astype(np.float32),
        machine=np.array([s.condition.machine for s in segments]),
        sensor=np.array([s.condition.sensor for s in segments], dtype=np.int64),
        speed=np.array([s.condition.speed_rpm for s in segments]),
        load=np.array([s.condition.load for s in segments]),
        source_record=np.array([s.source_record or "" for s in segments]),
        index=np.array([s.index for s in segments], dtype=np.int64),
        normalized=np.array([s.normalized for s in segments]),
        degenerate=np.array([s.degenerate for s in segments]))


def load_segments(path) -> list:
    with np.load(path) as z:
        needed = {"samples", "machine", "sensor", "speed", "load",
                  "source_record", "index", "normalized", "degenerate"}
        missing = needed - set(z.files)
        if missing:
            raise ValueError(f"segment archive lacks arrays: {sorted(missing)}")
        # each z[name] reads the whole array again, so read each one once
        arrays = {name: z[name] for name in needed}
    out = []
    for i in range(arrays["samples"].shape[0]):
        cond = WorkingCondition(str(arrays["machine"][i]), int(arrays["sensor"][i]),
                                float(arrays["speed"][i]), float(arrays["load"][i]))
        out.append(sig.Segment(samples=arrays["samples"][i],
                               condition=cond,
                               source_record=str(arrays["source_record"][i]) or None,
                               index=int(arrays["index"][i]),
                               normalized=bool(arrays["normalized"][i]),
                               degenerate=bool(arrays["degenerate"][i])))
    return out

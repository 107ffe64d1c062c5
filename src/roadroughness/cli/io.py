"""Artifact readers and writers with byte-stable formats.

All text artifacts are UTF-8 with LF line endings and '.' decimals; floats
are rendered with ``repr``, the shortest string that round-trips exactly, so
write -> read -> write is byte-identical. Window arrays are stored as .npy
files plus a JSON manifest.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..core import AlignedSegment, Dataset, GeoPoint, ReferenceSegment, \
    TelemetryTrace
from ..geoalign.match import MatchedTrace

TELEMETRY_HEADER = "t_s,acc_z_ms2,speed_ms,lat,lon"
REFERENCE_HEADER = ("seg_id,start_lat,start_lon,end_lat,end_lon,"
                    "length_m,iri_mkm")
BUNDLE_SCHEMA_VERSION = 1


def fmt(value: float) -> str:
    return repr(float(value))


def write_json(path, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=1)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------- telemetry

def write_telemetry_csv(path, trace: TelemetryTrace) -> None:
    fix_rows = {int(i): j for j, i in enumerate(trace.gps_idx)}
    lines = [TELEMETRY_HEADER]
    for i in range(len(trace)):
        j = fix_rows.get(i)
        lat = fmt(trace.gps_lat[j]) if j is not None else ""
        lon = fmt(trace.gps_lon[j]) if j is not None else ""
        lines.append(f"{fmt(trace.t[i])},{fmt(trace.acc_z[i])},"
                     f"{fmt(trace.speed[i])},{lat},{lon}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_telemetry_csv(path) -> TelemetryTrace:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != TELEMETRY_HEADER:
        raise ValueError(f"{path}: bad telemetry header")
    t, acc, speed = [], [], []
    gps_idx, gps_lat, gps_lon = [], [], []
    for i, line in enumerate(lines[1:]):
        cols = line.split(",")
        if len(cols) != 5:
            raise ValueError(f"{path}: bad column count on row {i + 1}")
        t.append(float(cols[0]))
        acc.append(float(cols[1]))
        speed.append(float(cols[2]))
        if cols[3] != "":
            gps_idx.append(i)
            gps_lat.append(float(cols[3]))
            gps_lon.append(float(cols[4]))
    return TelemetryTrace(t, acc, speed, gps_idx, gps_lat, gps_lon)


# ------------------------------------------------------- reference segments

def write_reference_csv(path, segments: list[ReferenceSegment]) -> None:
    lines = [REFERENCE_HEADER]
    for i, s in enumerate(segments):
        lines.append(f"{i},{fmt(s.start.lat)},{fmt(s.start.lon)},"
                     f"{fmt(s.end.lat)},{fmt(s.end.lon)},"
                     f"{fmt(s.length)},{fmt(s.iri)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_reference_csv(path) -> list[ReferenceSegment]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != REFERENCE_HEADER:
        raise ValueError(f"{path}: bad reference header")
    segments = []
    for line in lines[1:]:
        cols = line.split(",")
        if len(cols) != 7:
            raise ValueError(f"{path}: bad column count")
        segments.append(ReferenceSegment(
            GeoPoint(float(cols[1]), float(cols[2])),
            GeoPoint(float(cols[3]), float(cols[4])),
            float(cols[5]), float(cols[6])))
    return segments


# ------------------------------------------------------------ matched trace

def write_matched_json(path, matched: MatchedTrace) -> None:
    write_json(path, {
        "t": list(map(float, matched.t)),
        "fix_lat": list(map(float, matched.fix_lat)),
        "fix_lon": list(map(float, matched.fix_lon)),
        "edge": list(map(int, matched.edge)),
        "offset": list(map(float, matched.offset)),
        "lat": list(map(float, matched.lat)),
        "lon": list(map(float, matched.lon)),
        "log_score": float(matched.log_score),
    })


def read_matched_json(path) -> MatchedTrace:
    d = read_json(path)
    return MatchedTrace(np.array(d["t"]), np.array(d["fix_lat"]),
                        np.array(d["fix_lon"]),
                        np.array(d["edge"], dtype=int),
                        np.array(d["offset"]), np.array(d["lat"]),
                        np.array(d["lon"]), d["log_score"])


# ----------------------------------------------------------------- windows

def write_windows(dirpath, windows: list[AlignedSegment]) -> None:
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    offsets = np.zeros(len(windows) + 1, dtype=np.int64)
    for i, w in enumerate(windows):
        offsets[i + 1] = offsets[i] + w.n_points
    np.save(d / "t.npy", np.concatenate([w.t for w in windows])
            if windows else np.zeros(0))
    np.save(d / "acc_z.npy", np.concatenate([w.acc_z for w in windows])
            if windows else np.zeros(0))
    np.save(d / "speed.npy", np.concatenate([w.speed for w in windows])
            if windows else np.zeros(0))
    np.save(d / "offsets.npy", offsets)
    np.save(d / "window_id.npy",
            np.array([w.window_id for w in windows], dtype=np.int64))
    np.save(d / "iri.npy", np.array([w.iri for w in windows]))
    write_json(d / "meta.json", {"format": 1, "n_windows": len(windows)})


def read_windows(dirpath) -> list[AlignedSegment]:
    d = Path(dirpath)
    meta = read_json(d / "meta.json")
    t = np.load(d / "t.npy")
    acc = np.load(d / "acc_z.npy")
    speed = np.load(d / "speed.npy")
    offsets = np.load(d / "offsets.npy")
    window_id = np.load(d / "window_id.npy")
    iri = np.load(d / "iri.npy")
    windows = []
    for i in range(meta["n_windows"]):
        a, b = offsets[i], offsets[i + 1]
        windows.append(AlignedSegment(int(window_id[i]), t[a:b], acc[a:b],
                                      speed[a:b], float(iri[i])))
    return windows


# ----------------------------------------------------------------- features

def write_features_csv(path, dataset: Dataset, window_ids) -> None:
    names = ",".join(dataset.feature_names)
    lines = [f"window_id,{names},iri_mkm,level"]
    for i in range(len(dataset)):
        feats = ",".join(fmt(v) for v in dataset.X[i])
        lines.append(f"{int(window_ids[i])},{feats},{fmt(dataset.y[i])},"
                     f"{int(dataset.level[i])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_features_csv(path) -> tuple[Dataset, np.ndarray]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    if header[0] != "window_id" or header[-2:] != ["iri_mkm", "level"]:
        raise ValueError(f"{path}: bad features header")
    names = header[1:-2]
    ids, x, y, level = [], [], [], []
    for i, line in enumerate(lines[1:]):
        cols = line.split(",")
        if len(cols) != len(header):
            raise ValueError(f"{path}: bad column count on row {i + 1}")
        ids.append(int(cols[0]))
        x.append([float(v) for v in cols[1:-2]])
        y.append(float(cols[-2]))
        level.append(int(cols[-1]))
    return (Dataset(np.array(x), np.array(y), np.array(level), names),
            np.array(ids, dtype=int))


# ------------------------------------------------------------ model bundles

def save_bundle(path, bundle: dict) -> None:
    write_json(path, bundle)


def load_bundle(path) -> dict:
    bundle = read_json(path)
    if bundle.get("schema_version") != BUNDLE_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported bundle schema "
            f"{bundle.get('schema_version')!r}")
    return bundle

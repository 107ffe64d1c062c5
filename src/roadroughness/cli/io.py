"""Artifact readers and writers with byte-stable formats.

All text artifacts are UTF-8 with LF line endings and '.' decimals; floats
are rendered with ``repr``, the shortest string that round-trips exactly, so
write -> read -> write is byte-identical. ``reference.csv`` holds a
``Reference`` record after an unread ``seg_id`` column, and ``windows/`` a
``Windows`` record, one .npy file per field plus a JSON manifest holding
the window count.
"""
from __future__ import annotations

import json
from dataclasses import fields
from itertools import repeat
from pathlib import Path

import numpy as np

from ..core import (BadSegmentError, Dataset, Reference, TelemetryTrace,
                    Windows)
from ..geoalign.match import MatchedTrace
from ..geoalign.network import unreadable

TELEMETRY_HEADER = "t_s,acc_z_ms2,speed_ms,lat,lon"
REFERENCE_HEADER = ("seg_id,start_lat,start_lon,end_lat,end_lon,"
                    "length_m,iri_mkm")
BUNDLE_SCHEMA_VERSION = 1
# Rows formatted and written at a time: bounds the strings held at once.
WRITE_BLOCK_ROWS = 1024


def fmt(value: float) -> str:
    return repr(float(value))


def _json_value(obj):
    """The JSON value of what ``json`` cannot write itself: a numpy array
    as its list, a numpy integer as ``int``, any other numpy float as
    ``float`` (``np.float64`` is a float already)."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=1, default=_json_value)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------- telemetry

def write_telemetry_csv(path, trace: TelemetryTrace) -> None:
    n = len(trace)
    lat, lon = [""] * n, [""] * n
    for i, fix_lat, fix_lon in zip(trace.gps_idx.tolist(),
                                   map(repr, trace.gps_lat.tolist()),
                                   map(repr, trace.gps_lon.tolist())):
        lat[i], lon[i] = fix_lat, fix_lon
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(TELEMETRY_HEADER + "\n")
        for a in range(0, n, WRITE_BLOCK_ROWS):
            b = a + WRITE_BLOCK_ROWS
            f.write("".join(map("{!r},{!r},{!r},{},{}\n".format,
                                trace.t[a:b].tolist(),
                                trace.acc_z[a:b].tolist(),
                                trace.speed[a:b].tolist(),
                                lat[a:b], lon[a:b])))


def _telemetry_rows(path) -> list[str]:
    """The data rows of a telemetry file, each checked for its column count
    and for characters that the float parser may read otherwise."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != TELEMETRY_HEADER:
        raise ValueError(f"{path}: bad telemetry header")
    rows = lines[1:]
    _check_rows(path, rows, 4)
    # numpy's reader takes \x1c-\x1f for whitespace, which float rejects.
    # The lon of a row without a fix is not read, so any character passes.
    if unreadable("".join(rows)):
        read = (line if fix else line.rpartition(",")[0]
                for line, fix in zip(rows, _has_fix(rows)))
        _check_readable(path, read)
    return rows


def _has_fix(rows: list[str]) -> list[bool]:
    """Whether each 5-column row has a lat, that is, carries a GPS fix.
    Most rows end in an empty lat and lon, which the first test sees."""
    return [not (line.endswith(",,") or line.rpartition(",")[0].endswith(","))
            for line in rows]


def read_telemetry_csv(path) -> TelemetryTrace:
    rows = _telemetry_rows(path)
    t, acc, speed = _parse_columns(rows, (0, 1, 2))
    gps_idx = np.flatnonzero(_has_fix(rows))
    gps_lat, gps_lon = _parse_columns([rows[i] for i in gps_idx], (3, 4))
    try:
        return TelemetryTrace(t, acc, speed, gps_idx, gps_lat, gps_lon)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_gps_fixes(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time, lat and lon of the rows of a telemetry file that carry a fix.

    The file is checked as ``read_telemetry_csv`` checks it, but only these
    three fields of the fix rows are parsed: a bad acceleration or speed
    number is left for the reader of the whole trace to name.
    """
    rows = _telemetry_rows(path)
    fix_rows = np.flatnonzero(_has_fix(rows))
    t, lat, lon = _parse_columns([rows[i] for i in fix_rows], (0, 3, 4))
    bad = np.flatnonzero(~np.isfinite(t))
    if len(bad):
        raise ValueError(f"{path}: fix time must be finite: row "
                         f"{fix_rows[bad[0]] + 1} is {t[bad[0]]}")
    return t, lat, lon


def _check_rows(path, rows: list[str], commas: int) -> None:
    """Name the first row without exactly ``commas`` commas."""
    counts = np.fromiter(map(str.count, rows, repeat(",")), int, len(rows))
    bad = np.flatnonzero(counts != commas)
    if len(bad):
        raise ValueError(f"{path}: bad column count on row {bad[0] + 1}")


def _check_readable(path, rows) -> None:
    """Name the first row holding a character outside tab and printable
    ASCII, if any."""
    row = next((i for i, line in enumerate(rows, 1) if unreadable(line)),
               None)
    if row is not None:
        raise ValueError(f"{path}: character outside printable ASCII on "
                         f"row {row}")


def _parse_columns(rows: list[str], columns: tuple) -> np.ndarray:
    """The given comma-separated float columns of ``rows``, one array per
    column, parsed by numpy's C reader (correctly rounded, as ``float``)."""
    if not rows:
        return np.empty((len(columns), 0))
    return np.loadtxt(rows, delimiter=",", usecols=columns, comments=None,
                      ndmin=2).T.copy()


# ------------------------------------------------------- reference segments

def write_reference_csv(path, reference: Reference) -> None:
    rows = map("{},{!r},{!r},{!r},{!r},{!r},{!r}\n".format,
               range(len(reference)),
               *(getattr(reference, f.name).tolist()
                 for f in fields(reference)))
    Path(path).write_text(REFERENCE_HEADER + "\n" + "".join(rows),
                          encoding="utf-8")


def read_reference_csv(path) -> Reference:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != REFERENCE_HEADER:
        raise ValueError(f"{path}: bad reference header")
    rows = lines[1:]
    _check_rows(path, rows, 6)
    # numpy's reader takes \x1c-\x1f for whitespace, which float rejects.
    # The seg_id is not read, so any character passes there.
    if unreadable("".join(rows)):
        _check_readable(path, (line.partition(",")[2] for line in rows))
    try:
        return Reference(*_parse_columns(rows, (1, 2, 3, 4, 5, 6)))
    except BadSegmentError as exc:
        raise ValueError(f"{path}: row {exc.segment + 1}: {exc}") from None


# ------------------------------------------------------------ matched trace

def write_matched_json(path, matched: MatchedTrace) -> None:
    write_json(path, {
        "t": matched.t.tolist(),
        "fix_lat": matched.fix_lat.tolist(),
        "fix_lon": matched.fix_lon.tolist(),
        "edge": matched.edge.tolist(),
        "offset": matched.offset.tolist(),
        "lat": matched.lat.tolist(),
        "lon": matched.lon.tolist(),
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

WINDOW_FIELDS = tuple(f.name for f in fields(Windows))


def write_windows(dirpath, windows: Windows) -> None:
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    for name in WINDOW_FIELDS:
        np.save(d / f"{name}.npy", getattr(windows, name))
    write_json(d / "meta.json", {"format": 1, "n_windows": len(windows)})


def read_windows(dirpath) -> Windows:
    d = Path(dirpath)
    meta = read_json(d / "meta.json")
    windows = Windows(*(np.load(d / f"{name}.npy") for name in WINDOW_FIELDS))
    if len(windows) != meta["n_windows"]:
        raise ValueError(f"{d}: {len(windows)} windows stored, meta.json "
                         f"says {meta['n_windows']}")
    return windows


# ----------------------------------------------------------------- features

def write_features_csv(path, dataset: Dataset, window_ids) -> None:
    names = ",".join(dataset.feature_names)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"window_id,{names},iri_mkm,level\n")
        f.writelines(f"{i},{','.join(map(repr, x.tolist()))},{y!r},{level}\n"
                     for i, x, y, level in zip(map(int, window_ids),
                                               dataset.X, dataset.y.tolist(),
                                               dataset.level.tolist()))


def read_features_csv(path) -> tuple[Dataset, np.ndarray]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    if header[:1] != ["window_id"] or header[-2:] != ["iri_mkm", "level"]:
        raise ValueError(f"{path}: bad features header")
    names = header[1:-2]
    rows = lines[1:]
    if not rows:
        raise ValueError(f"{path}: no feature rows")
    _check_rows(path, rows, len(header) - 1)
    # numpy's reader takes \x1c-\x1f for whitespace, which int and float
    # reject. It also rejects '_' between digits, and non-ASCII digits and
    # spaces, which int and float accept.
    if unreadable("".join(rows)):
        _check_readable(path, rows)
    table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=1,
                       dtype=[("id", np.int64), ("x", float, (len(names),)),
                              ("y", float), ("level", np.int64)])
    return (Dataset(table["x"].copy(), table["y"].copy(),
                    table["level"].copy(), names),
            table["id"].copy())


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

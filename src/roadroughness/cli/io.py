"""Artifact readers and writers with byte-stable formats.

All text artifacts are UTF-8 with LF line endings and '.' decimals; floats
are rendered with ``repr``, the shortest string that round-trips exactly, so
write -> read -> write is byte-identical. ``reference.csv`` holds a
``Reference`` record after an unread ``seg_id`` column, and ``windows/`` a
``Windows`` record, one .npy file per field plus a JSON manifest holding
the window count.

Every text artifact is formatted and written a block at a time
(``_joined``, ``_write_text``), so that no whole-file string is held. JSON
is streamed from ``json.JSONEncoder.iterencode``: with ``indent`` set,
``json.dumps`` is the join of exactly these chunks, so the bytes are the
same.

Each text artifact kind (``network.txt``, ``telemetry.csv``,
``reference.csv``, ``matched.json``, ``features.csv``) keeps the record
that this process last wrote, with the blake2b digest of the bytes
written. Its reader takes the record from memory only when the file holds
exactly those bytes; otherwise it parses the file. A record whose text
would read back differently (a NaN other than the one "nan" parses to, a
value its reader refuses) is not kept. A returned record's arrays are
read-only views of the kept copy, so that neither the writer's record nor
a reader's changes reach a later read.
"""
from __future__ import annotations

import copy
import hashlib
import json
import math
import os
from dataclasses import fields
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from ..core import (BadSegmentError, Dataset, Reference, TelemetryTrace,
                    Windows)
from ..geoalign.match import MatchedTrace
from ..geoalign.network import RoadNetwork, unreadable

TELEMETRY_HEADER = "t_s,acc_z_ms2,speed_ms,lat,lon"
REFERENCE_HEADER = ("seg_id,start_lat,start_lon,end_lat,end_lon,"
                    "length_m,iri_mkm")
BUNDLE_SCHEMA_VERSION = 1
# Rows formatted and written at a time: bounds the strings held at once.
WRITE_BLOCK_ROWS = 1024
# The bits of the NaN that the readers give for "nan", the repr of every NaN.
_NAN_BITS = np.array(np.nan).view(np.uint64)

# Per artifact kind: (absolute path, blake2b digest of the bytes written,
# the record as its reader returns it, over read-only arrays).
_WRITTEN: dict[str, tuple] = {}


def fmt(value: float) -> str:
    return repr(float(value))


def forget_written() -> None:
    """Drop every kept record, so that each next read parses its file."""
    _WRITTEN.clear()


def _write_text(path, chunks) -> bytes:
    """Write the strings ``chunks`` to ``path`` as UTF-8 and return the
    blake2b digest of the bytes written. A write that fails part way, in
    making a chunk or in writing it, removes the partial file."""
    digest = hashlib.blake2b()
    try:
        with open(path, "wb") as f:
            for chunk in chunks:
                data = chunk.encode("utf-8")
                digest.update(data)
                f.write(data)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise
    return digest.digest()


def _joined(lines):
    """The strings of ``lines`` joined WRITE_BLOCK_ROWS at a time."""
    lines = iter(lines)
    while block := "".join(islice(lines, WRITE_BLOCK_ROWS)):
        yield block


def _remember(kind: str, path, digest: bytes, record) -> None:
    """Keep ``record`` as what the reader of ``kind`` gives for ``path``
    while the file holds the bytes of ``digest``; None drops the entry."""
    if record is None:
        _WRITTEN.pop(kind, None)
    else:
        _WRITTEN[kind] = (os.path.abspath(path), digest, record)


def _recall(kind: str, path):
    """The bytes of ``path``, and the record kept for them: the one last
    written there as ``kind`` if the file holds exactly the bytes written,
    else None."""
    data = Path(path).read_bytes()
    entry = _WRITTEN.get(kind)
    if (entry is not None and entry[0] == os.path.abspath(path)
            and entry[1] == hashlib.blake2b(data).digest()):
        return data, entry[2]
    return data, None


def _frozen(a: np.ndarray, dtype, ndim: int = 1) -> np.ndarray | None:
    """A read-only copy of ``a`` if its text reads back as ``a`` bit for
    bit: ``ndim`` dimensions of ``dtype``, and every NaN the one "nan"
    parses to. Else None."""
    if a.dtype != dtype or a.ndim != ndim:
        return None
    if a.dtype.kind == "f":
        nan = np.isnan(a)
        if nan.any() and np.any(a[nan].view(np.uint64) != _NAN_BITS):
            return None
    a = a.copy()
    a.setflags(write=False)
    return a


def _fresh(record):
    """A new record object over views of ``record``'s arrays and a copy of
    its lists, so that what one caller does to it reaches no other."""
    new = copy.copy(record)
    for name, value in list(vars(new).items()):
        if isinstance(value, np.ndarray):
            setattr(new, name, value.view())
        elif isinstance(value, list):
            setattr(new, name, list(value))
    return new


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


_JSON = json.JSONEncoder(sort_keys=True, indent=1, default=_json_value)


def write_json(path, obj) -> bytes:
    """Write ``json.dumps(obj, sort_keys=True, indent=1,
    default=_json_value)`` and a newline; return the digest of the bytes."""
    return _write_text(path, chain(_joined(_JSON.iterencode(obj)), ["\n"]))


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ------------------------------------------------------------- road network

def write_network(path, network: RoadNetwork) -> None:
    _remember("network", path, network.save(path), _network_as_read(network))


def _network_as_read(network: RoadNetwork) -> RoadNetwork | None:
    """The network that ``RoadNetwork.load`` builds from the written text,
    over read-only arrays, or None where that differs or is refused."""
    ids = network.node_ids
    arrays = [_frozen(a, dtype) for a, dtype in (
        (ids, np.int64), (network.node_lat, float), (network.node_lon, float),
        (ids[network.edge_a], np.int64), (ids[network.edge_b], np.int64),
        (network.edge_len, float))]
    if any(a is None for a in arrays):
        return None
    try:
        kept = RoadNetwork(*arrays)
    except ValueError:
        return None
    for value in vars(kept).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return kept


def read_network(path) -> RoadNetwork:
    """The network of ``path``, parsed by ``RoadNetwork.load`` unless this
    process wrote the file and it still holds the bytes written."""
    _, written = _recall("network", path)
    if written is not None:
        return _fresh(written)
    return RoadNetwork.load(path)


# ---------------------------------------------------------------- telemetry

def write_telemetry_csv(path, trace: TelemetryTrace) -> None:
    n = len(trace)
    lat, lon = [""] * n, [""] * n
    for i, fix_lat, fix_lon in zip(trace.gps_idx.tolist(),
                                   map(repr, trace.gps_lat.tolist()),
                                   map(repr, trace.gps_lon.tolist())):
        lat[i], lon[i] = fix_lat, fix_lon
    ends = range(WRITE_BLOCK_ROWS, n + WRITE_BLOCK_ROWS, WRITE_BLOCK_ROWS)
    blocks = ("".join(map("{!r},{!r},{!r},{},{}\n".format,
                          trace.t[a:b].tolist(), trace.acc_z[a:b].tolist(),
                          trace.speed[a:b].tolist(), lat[a:b], lon[a:b]))
              for a, b in zip(range(0, n, WRITE_BLOCK_ROWS), ends))
    digest = _write_text(path, chain([TELEMETRY_HEADER + "\n"], blocks))
    _remember("telemetry", path, digest, _telemetry_as_read(trace))


def _telemetry_as_read(trace: TelemetryTrace) -> TelemetryTrace | None:
    """The trace that reading its written text gives, or None where that
    differs from ``trace`` or is refused. The reader finds the fixes in row
    order, so ``gps_idx`` must increase."""
    arrays = [_frozen(getattr(trace, f.name), dtype) for f, dtype in
              zip(fields(trace), (float, float, float, np.int64, float,
                                  float))]
    if any(a is None for a in arrays) or np.any(np.diff(arrays[3]) <= 0):
        return None
    try:
        return TelemetryTrace(*arrays)
    except ValueError:
        return None


def _telemetry_rows(path, data: bytes) -> list[str]:
    """The data rows of a telemetry file's bytes, each checked for its
    column count and for characters that the float parser may read
    otherwise."""
    lines = data.decode("utf-8").splitlines()
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
    data, written = _recall("telemetry", path)
    if written is not None:
        return _fresh(written)
    rows = _telemetry_rows(path, data)
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
    data, written = _recall("telemetry", path)
    if written is not None:
        return (written.t[written.gps_idx], written.gps_lat.view(),
                written.gps_lon.view())
    rows = _telemetry_rows(path, data)
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
    digest = _write_text(path, chain([REFERENCE_HEADER + "\n"], _joined(rows)))
    arrays = [_frozen(getattr(reference, f.name), float)
              for f in fields(reference)]
    try:
        kept = (None if any(a is None for a in arrays)
                else Reference(*arrays))
    except ValueError:
        kept = None
    _remember("reference", path, digest, kept)


def read_reference_csv(path) -> Reference:
    data, written = _recall("reference", path)
    if written is not None:
        return _fresh(written)
    lines = data.decode("utf-8").splitlines()
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

MATCHED_FIELDS = ("t", "fix_lat", "fix_lon", "edge", "offset", "lat", "lon")


def write_matched_json(path, matched: MatchedTrace) -> None:
    obj = {name: getattr(matched, name) for name in MATCHED_FIELDS}
    obj["log_score"] = log_score = float(matched.log_score)
    digest = write_json(path, obj)
    arrays = [_frozen(getattr(matched, name), np.int64 if name == "edge"
                      else float) for name in MATCHED_FIELDS]
    # The file holds no n_unmatched: its reader gives the default.
    kept = (None if any(a is None for a in arrays) or math.isnan(log_score)
            else MatchedTrace(*arrays, log_score))
    _remember("matched", path, digest, kept)


def read_matched_json(path) -> MatchedTrace:
    data, written = _recall("matched", path)
    if written is not None:
        return _fresh(written)
    d = json.loads(data.decode("utf-8"))
    return MatchedTrace(*(np.array(d[name], dtype=int if name == "edge"
                                   else None) for name in MATCHED_FIELDS),
                        d["log_score"])


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
    header = f"window_id,{','.join(dataset.feature_names)},iri_mkm,level"
    ids = list(map(int, window_ids))
    rows = (f"{i},{','.join(map(repr, x.tolist()))},{y!r},{level}\n"
            for i, x, y, level in zip(ids, dataset.X, dataset.y.tolist(),
                                      dataset.level.tolist()))
    digest = _write_text(path, chain([header + "\n"], _joined(rows)))
    _remember("features", path, digest,
              _features_as_read(dataset, ids, header))


def _features_as_read(dataset: Dataset, ids: list, header: str):
    """The (dataset, window ids) that reading the written text gives, or
    None where that differs from what was written or is refused."""
    names = header.split(",")[1:-2]
    x = _frozen(dataset.X, float, ndim=2)
    y, level = _frozen(dataset.y, float), _frozen(dataset.level, np.int64)
    if (header.splitlines() != [header] or x is None or y is None
            or level is None or not 0 < len(ids) == len(x)
            or x.shape[1] != len(names)):
        return None
    try:
        ids = np.array(ids, dtype=np.int64)
        kept = Dataset(x, y, level, names)
    except (ValueError, OverflowError):
        return None
    ids.setflags(write=False)
    return kept, ids


def read_features_csv(path) -> tuple[Dataset, np.ndarray]:
    data, written = _recall("features", path)
    if written is not None:
        dataset, ids = written
        return _fresh(dataset), ids.view()
    lines = data.decode("utf-8").splitlines()
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

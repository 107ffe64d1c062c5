"""Artifact readers and writers with byte-stable formats.

All text artifacts are UTF-8 with LF line endings and '.' decimals; floats
are rendered with ``repr``, the shortest string that round-trips exactly, so
write -> read -> write is byte-identical. ``reference.csv`` holds a
``Reference`` record after an unread ``seg_id`` column, and ``windows/`` a
``Windows`` record, one .npy file per field plus a JSON manifest holding
the window count.

Every text artifact is formatted a block at a time and written by
``textio.write_text``, so that no whole-file string is held and a write
that fails part way leaves no file. JSON is streamed from
``json.JSONEncoder.iterencode``: with ``indent`` set, ``json.dumps`` is
the join of exactly these chunks, so the bytes are the same.

``telemetry.csv`` has one reader, for every stage. The three CSV readers
check a file by one rule, ``_csv_rows``: a header that the reader accepts,
as many commas on every row as on the header, and only tab and printable
ASCII in the columns that numpy's parser then reads.

Each text artifact kind (``network.txt``, ``telemetry.csv``,
``reference.csv``, ``matched.json``, ``features.csv``) keeps the record
that this process last wrote, with the blake2b digest of the bytes
written. Its reader takes the record from memory only when the file holds
exactly those bytes; otherwise it parses the file. A record whose text
would read back differently (a NaN other than the one "nan" parses to, a
value its reader refuses) is not kept: one rule, ``_kept``, builds every
kept record. A returned record's arrays are read-only views of the kept
copy, so that neither the writer's record nor a reader's changes reach a
later read.
"""
from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import fields
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from ..core import (BadSegmentError, Dataset, Reference, TelemetryTrace,
                    Windows)
from ..geoalign.match import MatchedTrace
from ..geoalign.network import RoadNetwork
from ..textio import BLOCK_ROWS, digest_of, joined, unreadable, write_text

TELEMETRY_HEADER = "t_s,acc_z_ms2,speed_ms,lat,lon"
REFERENCE_HEADER = ("seg_id,start_lat,start_lon,end_lat,end_lon,"
                    "length_m,iri_mkm")
BUNDLE_SCHEMA_VERSION = 1
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
            and entry[1] == digest_of(data)):
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


def _kept(build, *fields):
    """The record that ``build`` makes of read-only copies of ``fields``,
    each ``(array, dtype[, ndim])`` as ``_frozen`` takes them, with every
    array it holds read-only. None where a field is refused or ``build``
    raises ValueError."""
    arrays = [_frozen(*field) for field in fields]
    if any(a is None for a in arrays):
        return None
    try:
        record = build(*arrays)
    except ValueError:
        return None
    for value in getattr(record, "__dict__", {}).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return record


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
    return write_text(path, chain(joined(_JSON.iterencode(obj)), ["\n"]))


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ------------------------------------------------------------- road network

def write_network(path, network: RoadNetwork) -> None:
    # Kept as the network that ``RoadNetwork.load`` builds from the text.
    ids = network.node_ids
    _remember("network", path, network.save(path), _kept(
        RoadNetwork, (ids, np.int64), (network.node_lat, float),
        (network.node_lon, float), (ids[network.edge_a], np.int64),
        (ids[network.edge_b], np.int64), (network.edge_len, float)))


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
    ends = range(BLOCK_ROWS, n + BLOCK_ROWS, BLOCK_ROWS)
    blocks = ("".join(map("{!r},{!r},{!r},{},{}\n".format,
                          trace.t[a:b].tolist(), trace.acc_z[a:b].tolist(),
                          trace.speed[a:b].tolist(), lat[a:b], lon[a:b]))
              for a, b in zip(range(0, n, BLOCK_ROWS), ends))
    digest = write_text(path, chain([TELEMETRY_HEADER + "\n"], blocks))
    _remember("telemetry", path, digest, _kept(TelemetryTrace, *zip(
        (getattr(trace, f.name) for f in fields(trace)),
        (float, float, float, np.int64, float, float))))


def _has_fix(rows: list[str]) -> list[bool]:
    """Whether each 5-column row has a lat, that is, carries a GPS fix.
    Most rows end in an empty lat and lon, which the first test sees."""
    return [not (line.endswith(",,") or line.rpartition(",")[0].endswith(","))
            for line in rows]


def _parsed_text(rows: list[str]):
    """The text of each telemetry row that the reader parses: the lon of a
    row without a fix is not read, so any character passes there."""
    return (line if fix else line.rpartition(",")[0]
            for line, fix in zip(rows, _has_fix(rows)))


def read_telemetry_csv(path) -> TelemetryTrace:
    data, written = _recall("telemetry", path)
    if written is not None:
        return _fresh(written)
    _, rows = _csv_rows(path, data, "telemetry", TELEMETRY_HEADER.__eq__,
                        _parsed_text)
    t, acc, speed = _parse_columns(rows, (0, 1, 2))
    gps_idx = np.flatnonzero(_has_fix(rows))
    gps_lat, gps_lon = _parse_columns([rows[i] for i in gps_idx], (3, 4))
    try:
        return TelemetryTrace(t, acc, speed, gps_idx, gps_lat, gps_lon)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _csv_rows(path, data: bytes, kind: str, header_ok,
              parsed=None) -> tuple[str, list[str]]:
    """The header and the data rows of the bytes of a ``kind`` CSV file.
    The header must pass ``header_ok``, every row must hold as many commas
    as the header, and ``_check_readable`` scans what the reader parses of
    the rows: ``parsed(rows)``, else the whole rows."""
    lines = data.decode("utf-8").splitlines()
    if not lines or not header_ok(lines[0]):
        raise ValueError(f"{path}: bad {kind} header")
    header, rows = lines[0], lines[1:]
    counts = np.fromiter(map(str.count, rows, repeat(",")), int, len(rows))
    bad = np.flatnonzero(counts != header.count(","))
    if len(bad):
        raise ValueError(f"{path}: bad column count on row {bad[0] + 1}")
    _check_readable(path, rows, parsed)
    return header, rows


def _check_readable(path, rows: list[str], parsed=None) -> None:
    """Name the first row whose parsed text (``parsed(rows)``, else the
    row) holds a character outside tab and printable ASCII, if any."""
    # numpy's reader takes \x1c-\x1f for whitespace, which int and float
    # reject. It also rejects '_' between digits, and non-ASCII digits and
    # spaces, which int and float accept. Most files hold none of these,
    # which one scan of all the rows finds.
    if not unreadable("".join(rows)):
        return
    texts = rows if parsed is None else parsed(rows)
    row = next((i for i, text in enumerate(texts, 1) if unreadable(text)),
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
    digest = write_text(path, chain([REFERENCE_HEADER + "\n"], joined(rows)))
    _remember("reference", path, digest, _kept(
        Reference, *((getattr(reference, f.name), float)
                     for f in fields(reference))))


def read_reference_csv(path) -> Reference:
    data, written = _recall("reference", path)
    if written is not None:
        return _fresh(written)
    # The seg_id is not read, so any character passes there.
    _, rows = _csv_rows(path, data, "reference", REFERENCE_HEADER.__eq__,
                        lambda rows: (line.partition(",")[2]
                                      for line in rows))
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
    # The file holds no n_unmatched: its reader gives the default.
    kept = None if math.isnan(log_score) else _kept(
        lambda *arrays: MatchedTrace(*arrays, log_score),
        *((getattr(matched, name), np.int64 if name == "edge" else float)
          for name in MATCHED_FIELDS))
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
    digest = write_text(path, chain([header + "\n"], joined(rows)))
    # The reader needs one header line and a row per window id. Dataset
    # refuses names that do not match the columns (``names`` is never
    # empty); _frozen refuses ids beyond int64, which np.array gives
    # another dtype.
    names = header.split(",")[1:-2]
    kept = None
    if header.splitlines() == [header] and 0 < len(ids) == len(dataset.X):
        kept = _kept(lambda x, y, level, i: (Dataset(x, y, level, names), i),
                     (dataset.X, float, 2), (dataset.y, float),
                     (dataset.level, np.int64), (np.array(ids), np.int64))
    _remember("features", path, digest, kept)


def _features_header(line: str) -> bool:
    columns = line.split(",")
    return columns[:1] == ["window_id"] and columns[-2:] == ["iri_mkm",
                                                             "level"]


def read_features_csv(path) -> tuple[Dataset, np.ndarray]:
    data, written = _recall("features", path)
    if written is not None:
        dataset, ids = written
        return _fresh(dataset), ids.view()
    header, rows = _csv_rows(path, data, "features", _features_header)
    names = header.split(",")[1:-2]
    if not rows:
        raise ValueError(f"{path}: no feature rows")
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

import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadroughness.cli import io, pipeline
from roadroughness.cli.config import DEFAULT_CONFIG, load_config
from roadroughness.cli.main import main
from roadroughness.cli.pipeline import (StageError, bundle_predict,
                                        export_report, run_stage)
from roadroughness.core import (Dataset, Reference, TelemetryTrace,
                                Windows, ordered_kfold)
from roadroughness.geo import haversine
from roadroughness.geoalign.match import MatchedTrace
from roadroughness.geoalign.network import RoadNetwork
from roadroughness.models import adasyn_resample, search
from roadroughness.models.tree import MAX_DEPTH

SMOKE_CONFIG = {
    "seed": 11,
    "simulate": {"route_length_m": 4000.0, "envelope_period_m": 100.0},
    "select": {"k_folds": 3, "max_features": 4, "sfs_trees": 5,
               "sfs_depth": 4, "sfs_max_rows": 200},
    "train": {
        "k_folds": 3,
        "regression_families": ["baseline", "ridge"],
        "classification_families": ["baseline", "knn"],
        "grids": {"regression": {"ridge": {"lam": [60.0]}},
                  "classification": {"knn": {"k": [5]}}},
    },
}


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """One small end-to-end pipeline run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("smoke")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(SMOKE_CONFIG), encoding="utf-8")
    workdir = root / "run"
    rc = main(["run", "--config", str(cfg_path), "--out", str(workdir)])
    assert rc == 0
    return cfg_path, workdir


def _trace(n=12, fix_every=4):
    rng = np.random.default_rng(0)
    gps_idx = np.arange(0, n, fix_every)
    return TelemetryTrace(np.arange(n) * 0.02, rng.normal(size=n),
                          np.full(n, 13.9), gps_idx,
                          55.65 + 1e-5 * gps_idx, 12.55 + 1e-5 * gps_idx)


def per_cell_telemetry(path) -> TelemetryTrace:
    """The reader that converts every cell with ``float``: the oracle for
    the one that parses whole columns with numpy."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != io.TELEMETRY_HEADER:
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


def assert_same_trace(got: TelemetryTrace, want: TelemetryTrace) -> None:
    for name in ("t", "acc_z", "speed", "gps_idx", "gps_lat", "gps_lon"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _read_both(path):
    """Both readers' result, or the ValueError each raised."""
    out = []
    for reader in (io.read_telemetry_csv, per_cell_telemetry):
        try:
            out.append(reader(path))
        except ValueError as exc:
            out.append(exc)
    return out


def per_element_telemetry_writer(path, trace: TelemetryTrace) -> None:
    """The writer that formats every number on its own: the oracle for the
    one that formats whole columns."""
    fix_rows = {int(i): j for j, i in enumerate(trace.gps_idx)}
    lines = [io.TELEMETRY_HEADER]
    for i in range(len(trace)):
        j = fix_rows.get(i)
        lat = io.fmt(trace.gps_lat[j]) if j is not None else ""
        lon = io.fmt(trace.gps_lon[j]) if j is not None else ""
        lines.append(f"{io.fmt(trace.t[i])},{io.fmt(trace.acc_z[i])},"
                     f"{io.fmt(trace.speed[i])},{lat},{lon}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def per_element_features_writer(path, dataset: Dataset, window_ids) -> None:
    """The features writer that formats every number on its own."""
    names = ",".join(dataset.feature_names)
    lines = [f"window_id,{names},iri_mkm,level"]
    for i in range(len(dataset)):
        feats = ",".join(io.fmt(v) for v in dataset.X[i])
        lines.append(f"{int(window_ids[i])},{feats},{io.fmt(dataset.y[i])},"
                     f"{int(dataset.level[i])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def per_cell_features(path) -> tuple[Dataset, np.ndarray]:
    """The features reader that converts every cell with ``int`` or
    ``float``: the oracle for the one that parses with numpy."""
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


REFERENCE_COLUMNS = ("start_lat", "start_lon", "end_lat", "end_lon",
                     "length", "iri")


def per_element_reference_writer(path, reference: Reference) -> None:
    """The reference writer that formats every number on its own."""
    lines = [io.REFERENCE_HEADER]
    for i in range(len(reference)):
        lines.append(",".join([str(i)] + [
            io.fmt(getattr(reference, name)[i])
            for name in REFERENCE_COLUMNS]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def per_cell_reference(path) -> Reference:
    """The reference reader that converts every cell with ``float``: the
    oracle for the one that parses whole columns with numpy."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != io.REFERENCE_HEADER:
        raise ValueError(f"{path}: bad reference header")
    rows = []
    for i, line in enumerate(lines[1:]):
        cols = line.split(",")
        if len(cols) != 7:
            raise ValueError(f"{path}: bad column count on row {i + 1}")
        rows.append([float(v) for v in cols[1:]])
    return Reference(*np.array(rows, dtype=float).reshape(-1, 6).T)


def reference_bits(reference: Reference) -> dict:
    """Every float of a reference record, field by field, as
    ``float.hex``."""
    return {name: [v.hex() for v in getattr(reference, name).tolist()]
            for name in REFERENCE_COLUMNS}


def per_element_matched_writer(path, matched: MatchedTrace) -> None:
    """The matched-trace writer that converts every number on its own."""
    io.write_json(path, {
        "t": list(map(float, matched.t)),
        "fix_lat": list(map(float, matched.fix_lat)),
        "fix_lon": list(map(float, matched.fix_lon)),
        "edge": list(map(int, matched.edge)),
        "offset": list(map(float, matched.offset)),
        "lat": list(map(float, matched.lat)),
        "lon": list(map(float, matched.lon)),
        "log_score": float(matched.log_score),
    })


def random_reference(rng, n) -> Reference:
    """Segments with extreme positive lengths and non-negative IRIs."""
    lat = rng.uniform(-90.0, 90.0, (2, n))
    lon = rng.uniform(-180.0, 180.0, (2, n))
    length = np.abs(extreme_values(rng, n))
    length[length == 0.0] = 5e-324
    iri = np.abs(extreme_values(rng, n))
    return Reference(lat[0], lon[0], lat[1], lon[1], length, iri)


def features_bits(result) -> tuple:
    """A features reader's result, every float as ``float.hex``."""
    ds, ids = result
    return ([[v.hex() for v in row] for row in ds.X.tolist()],
            [v.hex() for v in ds.y.tolist()], ds.level.dtype,
            ds.level.tolist(), ds.feature_names, ids.dtype, ids.tolist())


def extreme_values(rng, n) -> np.ndarray:
    """Normal draws scaled by 1e-300 to 1e300, with signed zeros and the
    smallest subnormal mixed in."""
    if not n:
        return np.zeros(0)
    v = rng.normal(size=n) * 10.0 ** rng.integers(-300, 301, n)
    v[rng.integers(0, n, max(1, n // 50))] = -0.0
    v[rng.integers(0, n, max(1, n // 50))] = 0.0
    v[rng.integers(0, n, max(1, n // 50))] = 5e-324
    return v


def random_table(rng, n, k=5) -> Dataset:
    return Dataset(extreme_values(rng, n * k).reshape(n, k),
                   extreme_values(rng, n), rng.integers(-3, 4, n),
                   [f"f{j}" for j in range(k)])


# Fields that either reader may meet; numpy rejects '_' in numbers and
# non-ASCII digits, which float accepts, so neither is drawn.
_TELEMETRY_FIELDS = ["nan", "inf", "-inf", "Infinity", "1e400", "", " ", "x",
                     "-1", "0", "-0.0", " 5", "5 ", "+3", ".5", "5.", "1e-300",
                     "4.9e-324", "12.55", "55.65", "1,2", "#", "0x10"]


@st.composite
def mangled_telemetry(draw):
    """The text of a valid telemetry file with a few fields or lines
    replaced, dropped, duplicated, cut short or extended."""
    lines = [io.TELEMETRY_HEADER] + [
        f"{i * 0.02!r},{v!r},13.9," + (f"{55.65 + i * 1e-5!r},"
                                       f"{12.55 + i * 1e-5!r}"
                                       if i % 3 == 0 else ",")
        for i, v in enumerate(np.random.default_rng(
            draw(st.integers(0, 99))).normal(size=8).tolist())]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        parts = lines[i].split(",")
        action = draw(st.sampled_from(["field", "drop", "dup", "cut",
                                       "extend", "text", "pad"]))
        if action == "field":
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.one_of(
                st.sampled_from(_TELEMETRY_FIELDS),
                st.text("0123456789.-+eEinfa ,\x1c\x1d\x1e\x1f",
                        max_size=6)))
            lines[i] = ",".join(parts)
        elif action == "pad":
            # Whitespace to str.split and numpy, not all of it to float.
            f = draw(st.integers(0, len(parts) - 1))
            pad = draw(st.sampled_from(" \t\x1c\x1d\x1e\x1f"))
            parts[f] = (pad + parts[f] if draw(st.booleans())
                        else parts[f] + pad)
            lines[i] = ",".join(parts)
        elif action == "drop":
            del lines[i]
        elif action == "dup":
            lines.insert(i, lines[i])
        elif action == "cut":
            lines[i] = ",".join(parts[:draw(st.integers(0, len(parts) - 1))])
        elif action == "extend":
            lines[i] += "," + draw(st.sampled_from(_TELEMETRY_FIELDS))
        else:
            lines[i] = draw(st.text("0123456789.,-e \r", max_size=12))
        if not lines:
            break
    return "\n".join(lines) + "\n"


class TestTelemetryReader:
    def test_equals_per_cell_reader_on_a_long_trace(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 5000
        gps_idx = np.arange(0, n, 50)
        trace = TelemetryTrace(
            np.arange(n) * 0.02, rng.normal(size=n) * 10.0 ** rng.integers(
                -300, 300, n), rng.uniform(0.0, 40.0, n), gps_idx,
            rng.uniform(-90.0, 90.0, len(gps_idx)),
            rng.uniform(-180.0, 180.0, len(gps_idx)))
        p = tmp_path / "telemetry.csv"
        io.write_telemetry_csv(p, trace)
        io.forget_written()
        assert_same_trace(io.read_telemetry_csv(p), per_cell_telemetry(p))
        assert_same_trace(io.read_telemetry_csv(p), trace)

    @pytest.mark.parametrize("text,message", [
        ("", "bad telemetry header"),
        (io.TELEMETRY_HEADER + "\n0.0,1.0,13.9,,\n0.02,1.0,13.9,\n",
         "bad column count on row 2"),
        (io.TELEMETRY_HEADER + "\n0.0,1.0,13.9,,\n\n0.04,1.0,13.9,,\n",
         "bad column count on row 2"),
        (io.TELEMETRY_HEADER + "\n0.0,1.0,13.9,,,\n",
         "bad column count on row 1"),
        (io.TELEMETRY_HEADER + "\n0.0,1.0,13.9,,\n0.02,nan,13.9,,\n",
         "acc_z must be finite: sample 1 is nan"),
        (io.TELEMETRY_HEADER + "\n0.0,1.0,13.9,55.65,12.55\n"
         "nan,1.0,13.9,55.65,12.55\n", "t must be finite: sample 1 is nan"),
    ])
    def test_errors_keep_their_wording(self, tmp_path, text, message):
        p = tmp_path / "telemetry.csv"
        p.write_text(text, encoding="utf-8")
        for reader in (io.read_telemetry_csv, per_cell_telemetry):
            with pytest.raises(ValueError, match=message):
                reader(p)
        with pytest.raises(ValueError) as exc:
            io.read_telemetry_csv(p)
        assert str(exc.value).startswith(f"{p}: ")

    @pytest.mark.parametrize("bad", ["\x1f", "\x00", "\u00e9", "\u0661"])
    def test_character_outside_printable_ascii_names_its_row(self, tmp_path,
                                                              bad):
        p = tmp_path / "telemetry.csv"
        p.write_text(io.TELEMETRY_HEADER + "\n0.0,1.0,13.9,,\n"
                     f"0.02,1.0{bad},13.9,,\n", encoding="utf-8")
        with pytest.raises(ValueError, match="outside printable ASCII on "
                                             "row 2"):
            io.read_telemetry_csv(p)

    def test_header_only_gives_an_empty_trace(self, tmp_path):
        p = tmp_path / "telemetry.csv"
        p.write_text(io.TELEMETRY_HEADER + "\n", encoding="utf-8")
        assert_same_trace(io.read_telemetry_csv(p), per_cell_telemetry(p))

    @settings(max_examples=300, deadline=None)
    @given(mangled_telemetry())
    def test_mangled_files_read_as_the_per_cell_reader(self, text):
        """Both whole-trace readers agree; the fix reader gives the trace's
        fixes bit for bit where they succeed, and raises only where they
        raise."""
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "telemetry.csv"
            p.write_text(text, encoding="utf-8")
            got, want = _read_both(p)
            try:
                fixes = io.read_gps_fixes(p)
            except ValueError as exc:
                fixes = exc
        if isinstance(want, ValueError):
            assert isinstance(got, ValueError)
            return
        assert_same_trace(got, want)
        assert not isinstance(fixes, ValueError), fixes
        for a, b in zip(fixes, (want.t[want.gps_idx], want.gps_lat, want.gps_lon)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_gps_fixes_equal_the_trace_fixes(self, tmp_path):
        rng = np.random.default_rng(8)
        n = 3 * io.WRITE_BLOCK_ROWS + 11
        gps_idx = np.sort(rng.choice(n, 400, replace=False))
        trace = TelemetryTrace(np.arange(n) * 0.02, extreme_values(rng, n),
                               rng.uniform(0.0, 40.0, n), gps_idx,
                               rng.uniform(-90.0, 90.0, 400),
                               rng.uniform(-180.0, 180.0, 400))
        p = tmp_path / "telemetry.csv"
        io.write_telemetry_csv(p, trace)
        io.forget_written()
        for a, b in zip(io.read_gps_fixes(p),
                        (trace.t[trace.gps_idx], trace.gps_lat, trace.gps_lon)):
            assert a.tobytes() == b.tobytes()

    def test_gps_fixes_skip_the_other_channels(self, tmp_path):
        p = tmp_path / "telemetry.csv"
        p.write_text(io.TELEMETRY_HEADER + "\n0.0,x,13.9,55.65,12.55\n"
                     "0.02,1.0,,,\n1.0,1.0,13.9,55.66,12.56\n",
                     encoding="utf-8")
        t, lat, lon = io.read_gps_fixes(p)
        assert t.tolist() == [0.0, 1.0] and lat.tolist() == [55.65, 55.66]
        assert lon.tolist() == [12.55, 12.56]
        with pytest.raises(ValueError, match="could not convert"):
            io.read_telemetry_csv(p)

    def test_gps_fixes_name_the_row_of_a_time_that_is_not_finite(
            self, tmp_path):
        p = tmp_path / "telemetry.csv"
        p.write_text(io.TELEMETRY_HEADER + "\n0.0,1.0,13.9,55.65,12.55\n"
                     "0.02,1.0,13.9,,\nnan,1.0,13.9,55.6501,12.5501\n",
                     encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            io.read_gps_fixes(p)
        assert str(exc.value) == (f"{p}: fix time must be finite: row 3 "
                                  "is nan")

    @pytest.mark.parametrize("text,message", [
        ("", "bad telemetry header"),
        (io.TELEMETRY_HEADER + "\n0.0,1.0,13.9,55.65,12.55,\n",
         "bad column count on row 1"),
        (io.TELEMETRY_HEADER + "\n0.0,1.0,13.9,55.65,12.55\n"
         "0.02,1.0\x1f,13.9,,\n", "outside printable ASCII on row 2"),
        (io.TELEMETRY_HEADER + "\n0.0,1.0,13.9,55.65,x\n",
         "could not convert"),
    ])
    def test_gps_fixes_check_the_file_as_the_trace_reader(self, tmp_path,
                                                          text, message):
        p = tmp_path / "telemetry.csv"
        p.write_text(text, encoding="utf-8")
        for reader in (io.read_gps_fixes, io.read_telemetry_csv):
            with pytest.raises(ValueError, match=message):
                reader(p)


class TestWriters:
    """The column-wise writers against the per-element ones."""

    @pytest.mark.parametrize("seed", range(3))
    def test_telemetry_equals_per_element_writer(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n = 2 * io.WRITE_BLOCK_ROWS + 1 + seed
        gps_idx = np.sort(rng.choice(n, 300, replace=False))
        trace = TelemetryTrace(
            np.cumsum(rng.uniform(1e-300, 1.0, n)), extreme_values(rng, n),
            np.abs(extreme_values(rng, n)), gps_idx,
            extreme_values(rng, 300), extreme_values(rng, 300))
        trace.acc_z[:3] = [np.nan, np.inf, -np.inf]
        self._assert_same_bytes(tmp_path, io.write_telemetry_csv,
                                per_element_telemetry_writer, trace)

    @pytest.mark.parametrize("n", [0, 1, io.WRITE_BLOCK_ROWS])
    def test_telemetry_at_block_edges(self, tmp_path, n):
        trace = TelemetryTrace(np.arange(n) * 0.02, np.full(n, -0.0),
                               np.full(n, 13.9), np.arange(0, n, 50),
                               np.full(len(range(0, n, 50)), 55.65),
                               np.full(len(range(0, n, 50)), 12.55))
        self._assert_same_bytes(tmp_path, io.write_telemetry_csv,
                                per_element_telemetry_writer, trace)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(), st.floats(), st.floats(),
                              st.booleans()), max_size=30))
    def test_telemetry_on_any_floats(self, samples):
        n = len(samples)
        acc, lat, lon, fix = (list(v) for v in zip(*samples)) if n else \
            ([], [], [], [])
        gps_idx = np.flatnonzero(fix)
        trace = TelemetryTrace(np.arange(n) * 0.02, np.zeros(n),
                               np.full(n, 13.9), gps_idx,
                               np.array(lat)[gps_idx], np.array(lon)[gps_idx])
        # Set after construction, which rejects a non-finite channel value.
        trace.acc_z[:] = acc
        with tempfile.TemporaryDirectory() as tmp:
            self._assert_same_bytes(Path(tmp), io.write_telemetry_csv,
                                    per_element_telemetry_writer, trace)

    @pytest.mark.parametrize("seed", range(3))
    def test_features_equal_per_element_writer(self, tmp_path, seed):
        rng = np.random.default_rng(10 + seed)
        ds = random_table(rng, 500, k=68)
        self._assert_same_bytes(tmp_path, io.write_features_csv,
                                per_element_features_writer, ds,
                                np.arange(500) * 3)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=3, max_size=3), min_size=1, max_size=8))
    def test_features_on_any_finite_floats(self, rows):
        x = np.array(rows)
        ds = Dataset(x[:, :2], x[:, 2], np.arange(len(rows)) % 3,
                     ["a", "b"])
        with tempfile.TemporaryDirectory() as tmp:
            self._assert_same_bytes(Path(tmp), io.write_features_csv,
                                    per_element_features_writer, ds,
                                    list(range(len(rows))))

    @pytest.mark.parametrize("n", [0, 1, 500, 2 * io.WRITE_BLOCK_ROWS + 1])
    def test_reference_equals_per_element_writer(self, tmp_path, n):
        segments = random_reference(np.random.default_rng(20 + n), n)
        self._assert_same_bytes(tmp_path, io.write_reference_csv,
                                per_element_reference_writer, segments)
        io.forget_written()
        io.write_reference_csv(tmp_path / "again.csv",
                               io.read_reference_csv(tmp_path / "got.csv"))
        assert ((tmp_path / "again.csv").read_bytes()
                == (tmp_path / "got.csv").read_bytes())

    @pytest.mark.parametrize("n", [0, 1, 300])
    def test_matched_equals_per_element_writer(self, tmp_path, n):
        rng = np.random.default_rng(30 + n)
        m = MatchedTrace(*extreme_values(rng, 3 * n).reshape(3, n),
                         rng.integers(0, 2**40, n), *extreme_values(
                             rng, 3 * n).reshape(3, n), -1e300)
        self._assert_same_bytes(tmp_path, io.write_matched_json,
                                per_element_matched_writer, m)

    @staticmethod
    def _assert_same_bytes(tmp_path, writer, oracle, *args):
        writer(tmp_path / "got.csv", *args)
        oracle(tmp_path / "want.csv", *args)
        assert ((tmp_path / "got.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())


# Fields that either features reader may meet. '1_0' and non-ASCII digits
# or spaces are read by int and float and rejected by numpy (and by the
# printable-ASCII check); an integer beyond int64 is rejected by both, with
# OverflowError by the per-cell reader.
_FEATURE_FIELDS = ["nan", "inf", "-inf", "Infinity", "1e400", "", " ", "x",
                   "-1", "0", "-0", "-0.0", " 5", "5 ", "\t5", "+3", ".5",
                   "5.", "5.0", "1e3", "1e-300", "4.9e-324", "00", "#",
                   "0x10", "1_0", "\u0661", "\xa05", "1\x1f",
                   "99999999999999999999"]


@st.composite
def mangled_features(draw):
    """The text of a valid 4-row features table with a few data fields or
    rows replaced, dropped, duplicated, cut short or extended."""
    rng = np.random.default_rng(draw(st.integers(0, 99)))
    lines = ["window_id,a,b,c,iri_mkm,level"] + [
        f"{i},{a!r},{b!r},{c!r},{y!r},{level}" for i, (a, b, c, y, level) in
        enumerate(zip(*rng.normal(size=(4, 4)).tolist(),
                      rng.integers(0, 3, 4).tolist()))]
    for _ in range(draw(st.integers(1, 3))):
        if len(lines) < 2:
            break
        i = draw(st.integers(1, len(lines) - 1))
        parts = lines[i].split(",")
        action = draw(st.sampled_from(["field", "drop", "dup", "cut",
                                       "extend", "text"]))
        if action == "field":
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.one_of(
                st.sampled_from(_FEATURE_FIELDS),
                st.text("0123456789.-+eEinfa _\t\x1f", max_size=6)))
            lines[i] = ",".join(parts)
        elif action == "drop":
            del lines[i]
        elif action == "dup":
            lines.insert(i, lines[i])
        elif action == "cut":
            lines[i] = ",".join(parts[:draw(st.integers(0, len(parts) - 1))])
        elif action == "extend":
            lines[i] += "," + draw(st.sampled_from(_FEATURE_FIELDS))
        else:
            lines[i] = draw(st.text("0123456789.,-e \r", max_size=12))
    return "\n".join(lines) + "\n"


# Fields that either reference reader may meet: those of the features
# table, less the integer-only ones, and a latitude out of range.
_REFERENCE_FIELDS = [f for f in _FEATURE_FIELDS if f != "99999999999999999999"
                     ] + ["91.0", "-0.0"]


@st.composite
def mangled_reference(draw):
    """The text of a valid 4-segment reference file with a few fields or
    rows replaced, dropped, duplicated, cut short or extended."""
    rng = np.random.default_rng(draw(st.integers(0, 99)))
    lines = [io.REFERENCE_HEADER] + [
        f"{i},{a!r},{b!r},{c!r},{d!r},{length!r},{iri!r}"
        for i, (a, b, c, d, length, iri) in enumerate(zip(
            *rng.uniform(-80.0, 80.0, (4, 4)).tolist(),
            *rng.uniform(0.1, 20.0, (2, 4)).tolist()))]
    for _ in range(draw(st.integers(1, 3))):
        if len(lines) < 2:
            break
        i = draw(st.integers(1, len(lines) - 1))
        parts = lines[i].split(",")
        action = draw(st.sampled_from(["field", "drop", "dup", "cut",
                                       "extend", "text"]))
        if action == "field":
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.one_of(
                st.sampled_from(_REFERENCE_FIELDS),
                st.text("0123456789.-+eEinfa _\t\x1f\x00\u0661",
                        max_size=6)))
            lines[i] = ",".join(parts)
        elif action == "drop":
            del lines[i]
        elif action == "dup":
            lines.insert(i, lines[i])
        elif action == "cut":
            lines[i] = ",".join(parts[:draw(st.integers(0, len(parts) - 1))])
        elif action == "extend":
            lines[i] += "," + draw(st.sampled_from(_REFERENCE_FIELDS))
        else:
            lines[i] = draw(st.text("0123456789.,-e \r", max_size=14))
    return "\n".join(lines) + "\n"


class TestReferenceReader:
    def test_equals_per_cell_reader_on_a_long_file(self, tmp_path):
        segments = random_reference(np.random.default_rng(6), 4000)
        p = tmp_path / "reference.csv"
        io.write_reference_csv(p, segments)
        io.forget_written()
        got = reference_bits(io.read_reference_csv(p))
        assert got == reference_bits(per_cell_reference(p))
        assert got == reference_bits(segments)

    @pytest.mark.parametrize("text,message", [
        ("", "bad reference header"),
        (io.REFERENCE_HEADER + "\n0,1,2,3,4,5,6\n0,1,2,3,4,5\n",
         "bad column count on row 2"),
        (io.REFERENCE_HEADER + "\n0,1,2,3,4,5,6\n0,1,2,3,4,5\x1f,6\n",
         "outside printable ASCII on row 2"),
        (io.REFERENCE_HEADER + "\n0,1,2,3,4,5,x\n", "could not convert"),
        (io.REFERENCE_HEADER + "\n0,91,2,3,4,5,6\n",
         "reference.csv: row 1: latitude out of range in segment 0: 91.0$"),
        (io.REFERENCE_HEADER + "\n0,1,2,3,4,0,6\n",
         "reference.csv: row 1: length must be positive and finite in "
         "segment 0: 0.0$"),
        (io.REFERENCE_HEADER + "\n0,1,2,3,4,5,6\n1,1,2,3,4,inf,6\n",
         "reference.csv: row 2: length must be positive and finite in "
         "segment 1: inf$"),
        (io.REFERENCE_HEADER + "\n0,1,2,3,4,5,6\n1,1,2,3,4,5,nan\n",
         "reference.csv: row 2: IRI must be finite and non-negative in "
         "segment 1: nan$"),
        (io.REFERENCE_HEADER + "\n0,1,2,3,4,5,inf\n",
         "reference.csv: row 1: IRI must be finite and non-negative in "
         "segment 0: inf$"),
        (io.REFERENCE_HEADER + "\n0,1,2,3,4,5,6\n1,1,2,3,4,5,6\n"
         "2,1,2,3,-181,5,6\n",
         "reference.csv: row 3: longitude out of range in segment 2: "
         "-181.0$"),
    ])
    def test_errors_are_named(self, tmp_path, text, message):
        p = tmp_path / "reference.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            io.read_reference_csv(p)

    def test_seg_id_is_not_read(self, tmp_path):
        p = tmp_path / "reference.csv"
        p.write_text(io.REFERENCE_HEADER + "\nx\x1f\u0661,1,2,3,4,5,6\n",
                     encoding="utf-8")
        assert reference_bits(io.read_reference_csv(p)) == reference_bits(
            per_cell_reference(p))

    @settings(max_examples=300, deadline=None)
    @given(mangled_reference())
    def test_mangled_files_read_as_the_per_cell_reader(self, text):
        """Equal segments, or an error from both readers, except where the
        numpy reader rejects a number that float reads: one with '_'
        between digits, or with a character beyond ASCII."""
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "reference.csv"
            p.write_text(text, encoding="utf-8")
            try:
                want = reference_bits(per_cell_reference(p))
            except ValueError:
                want = None
            try:
                got = reference_bits(io.read_reference_csv(p))
            except ValueError:
                assert want is None or "_" in text or not text.isascii()
                return
        assert got == want


class TestFeaturesReader:
    def test_equals_per_cell_reader_on_a_long_table(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = random_table(rng, 3000, k=68)
        p = tmp_path / "features.csv"
        io.write_features_csv(p, ds, np.arange(3000) + 7)
        io.forget_written()
        got = io.read_features_csv(p)
        assert features_bits(got) == features_bits(per_cell_features(p))
        assert got[0].X.flags["C_CONTIGUOUS"]
        assert got[1].dtype == np.int64 and got[0].level.dtype == np.int64

    def test_header_only_is_rejected_by_both(self, tmp_path):
        p = tmp_path / "features.csv"
        p.write_text("window_id,a,b,iri_mkm,level\n", encoding="utf-8")
        for reader in (io.read_features_csv, per_cell_features):
            with pytest.raises(ValueError):
                reader(p)

    @pytest.mark.parametrize("text,message", [
        ("", "bad features header"),
        ("id,a,iri_mkm,level\n0,1.0,1.0,0\n", "bad features header"),
        ("window_id,a,iri_mkm,level\n0,1.0,1.0,0\n0,1.0,1.0\n",
         "bad column count on row 2"),
        ("window_id,a,iri_mkm,level\n0,1.0,1.0,0\n0,1\x1f,1.0,0\n",
         "outside printable ASCII on row 2"),
        ("window_id,a,iri_mkm,level\n0,1.0,1.0,1.0\n", "could not convert"),
    ])
    def test_errors_are_named(self, tmp_path, text, message):
        p = tmp_path / "features.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            io.read_features_csv(p)

    @settings(max_examples=300, deadline=None)
    @given(mangled_features())
    def test_mangled_files_read_as_the_per_cell_reader(self, text):
        """Equal tables, or an error from both readers, except where the
        numpy reader rejects a number that int or float reads: one with
        '_' between digits, or with a character beyond ASCII."""
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "features.csv"
            p.write_text(text, encoding="utf-8")
            try:
                want = features_bits(per_cell_features(p))
            except (ValueError, OverflowError):
                want = None
            try:
                got = features_bits(io.read_features_csv(p))
            except ValueError:
                assert want is None or "_" in text or not text.isascii()
                return
        assert got == want


class TestArtifactRoundTrips:
    def test_telemetry_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        io.write_telemetry_csv(p1, _trace())
        io.forget_written()
        io.write_telemetry_csv(p2, io.read_telemetry_csv(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_telemetry_off_fix_rows_have_empty_coordinates(self, tmp_path):
        p = tmp_path / "a.csv"
        io.write_telemetry_csv(p, _trace())
        rows = p.read_text().splitlines()
        assert rows[0] == io.TELEMETRY_HEADER
        assert rows[2].endswith(",,")   # sample 1 carries no fix
        assert not rows[1].endswith(",")  # sample 0 does

    def test_telemetry_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,acc\n0,1\n")
        with pytest.raises(ValueError):
            io.read_telemetry_csv(p)

    def test_reference_byte_identical(self, tmp_path):
        segs = Reference(np.full(5, 55.65), np.full(5, 12.55),
                         np.full(5, 55.6501), np.full(5, 12.55),
                         np.full(5, 10.0), 1.0 + np.arange(5) / 7)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        io.write_reference_csv(p1, segs)
        io.forget_written()
        io.write_reference_csv(p2, io.read_reference_csv(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_matched_byte_identical(self, tmp_path):
        m = MatchedTrace(np.arange(3.0), np.full(3, 55.65),
                         np.full(3, 12.55), np.array([0, 0, 1]),
                         np.array([1.5, 9.7, 3.2]), np.full(3, 55.6501),
                         np.full(3, 12.5501), -12.345)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        io.write_matched_json(p1, m)
        io.forget_written()
        io.write_matched_json(p2, io.read_matched_json(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_windows_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        n = np.arange(10, 14)
        windows = Windows(rng.normal(size=n.sum()), rng.normal(size=n.sum()),
                          np.full(n.sum(), 13.9),
                          np.concatenate([[0], np.cumsum(n)]),
                          np.arange(4) * 3, 1.0 + np.arange(4))
        io.write_windows(tmp_path / "w", windows)
        back = io.read_windows(tmp_path / "w")
        assert len(back) == 4
        for name in io.WINDOW_FIELDS:
            a, b = getattr(back, name), getattr(windows, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        io.write_windows(tmp_path / "v", back)
        for name in [f"{f}.npy" for f in io.WINDOW_FIELDS] + ["meta.json"]:
            assert ((tmp_path / "v" / name).read_bytes()
                    == (tmp_path / "w" / name).read_bytes())

    def test_features_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.normal(size=(6, 3)), rng.uniform(0.5, 3.0, 6),
                     rng.integers(0, 3, 6), ["a", "b", "c"])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        io.write_features_csv(p1, ds, np.arange(6))
        io.forget_written()
        ds2, ids = io.read_features_csv(p1)
        io.write_features_csv(p2, ds2, ids)
        assert p1.read_bytes() == p2.read_bytes()
        assert ds2.feature_names == ["a", "b", "c"]

    def test_features_short_row_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(4, 3)), rng.uniform(0.5, 3.0, 4),
                     rng.integers(0, 3, 4), ["a", "b", "c"])
        p = tmp_path / "f.csv"
        io.write_features_csv(p, ds, np.arange(4))
        lines = p.read_text().splitlines()
        cols = lines[3].split(",")
        lines[3] = ",".join(cols[:2] + cols[3:])  # drop feature "b"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="bad column count on row 3"):
            io.read_features_csv(p)

    def test_write_json_is_sorted_with_trailing_newline(self, tmp_path):
        p = tmp_path / "x.json"
        io.write_json(p, {"b": 1.5, "a": [2, 0.1]})
        text = p.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        io.write_json(tmp_path / "y.json", {"a": [2, 0.1], "b": 1.5})
        assert (tmp_path / "y.json").read_bytes() == p.read_bytes()

    def test_write_json_writes_numpy_values_as_python_ones(self, tmp_path):
        summary = {"n": np.int64(3), "k": [np.int32(-1), np.uint8(7)],
                   "share": np.float32(0.25), "x": np.float64(0.1),
                   "rows": np.arange(3), "m": np.array([[0.5, np.nan]]),
                   "nested": [{"f": np.float16(1.5)}, (np.float64(2.0),)]}
        python = {"n": 3, "k": [-1, 7], "share": 0.25, "x": 0.1,
                  "rows": [0, 1, 2], "m": [[0.5, float("nan")]],
                  "nested": [{"f": 1.5}, [2.0]]}
        io.write_json(tmp_path / "numpy.json", summary)
        io.write_json(tmp_path / "python.json", python)
        assert ((tmp_path / "numpy.json").read_bytes()
                == (tmp_path / "python.json").read_bytes())
        with pytest.raises(TypeError, match="object is not JSON"):
            io.write_json(tmp_path / "bad.json", {"x": object()})

    def test_bundle_schema_check(self, tmp_path):
        p = tmp_path / "m.json"
        io.save_bundle(p, {"schema_version": io.BUNDLE_SCHEMA_VERSION,
                           "family": "ridge"})
        assert io.load_bundle(p)["family"] == "ridge"
        io.write_json(p, {"schema_version": 99})
        with pytest.raises(ValueError) as exc:
            io.load_bundle(p)
        assert str(p) in str(exc.value)


# A NaN with its sign bit set: repr writes it as "nan", which reads back as
# np.nan, so its text round trip is not exact.
_NEG_NAN = -np.float64(np.nan)
# Signed zeros, subnormals and magnitudes whose repr switches notation.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e16, -1e16, 1e-5,
                -1e-5, 1.7976931348623157e308]
_FINITE = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False,
                                                    allow_infinity=False)
_ANY_FLOAT = (_FINITE | st.sampled_from([np.inf, -np.inf, np.nan,
                                         _NEG_NAN]))
_INT64 = st.integers(-2**63, 2**63 - 1)


def reader_bits(result):
    """A reader's result, or the error it raised, with every array as its
    dtype, shape and bytes and every float as its bytes."""
    if isinstance(result, Exception):
        return type(result), str(result)
    if isinstance(result, tuple):
        return tuple(map(reader_bits, result))
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, float):
        return np.float64(result).tobytes()
    if dataclasses.is_dataclass(result):
        return {f.name: reader_bits(getattr(result, f.name))
                for f in dataclasses.fields(result)}
    if hasattr(result, "__dict__"):  # a RoadNetwork and its projection
        return {name: reader_bits(value)
                for name, value in vars(result).items()}
    return result


def _outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return exc


def kept_and_parsed(read, path):
    """What ``read`` gives for ``path`` with the written records kept, and
    after they are dropped, when it parses the file."""
    kept = _outcome(read, path)
    io.forget_written()
    return kept, _outcome(read, path)


def _is_kept(result) -> bool:
    """Whether a reader's result came from memory: its arrays are read-only
    views there, writable arrays from the parser otherwise."""
    record = result[0] if isinstance(result, tuple) else result
    return not next(a for a in vars(record).values()
                    if isinstance(a, np.ndarray)).flags.writeable


def _has_neg_nan(*arrays) -> bool:
    return any(np.any(np.asarray(a, dtype=float).view(np.uint64)
                      == _NEG_NAN.view(np.uint64)) for a in arrays)


@st.composite
def telemetry_cases(draw):
    """A trace with rows with and without fixes, fix positions of any
    float, and (``spoiled``) a channel value that the reader refuses, set
    after construction."""
    n = draw(st.integers(0, 20))
    fix = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                   dtype=bool)
    m = int(fix.sum())
    floats = st.lists(_ANY_FLOAT, min_size=m, max_size=m)
    trace = TelemetryTrace(
        np.cumsum(draw(st.lists(st.floats(1e-3, 10.0), min_size=n,
                                max_size=n))) if n else np.zeros(0),
        draw(st.lists(_FINITE, min_size=n, max_size=n)),
        np.abs(draw(st.lists(_FINITE, min_size=n, max_size=n))),
        np.flatnonzero(fix), draw(floats), draw(floats))
    spoiled = n > 0 and draw(st.booleans())
    if spoiled:
        trace.acc_z[draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    return trace, spoiled


@st.composite
def reference_cases(draw):
    n = draw(st.integers(0, 8))

    def column(lo, hi):
        return draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, lo, hi])
                             | st.floats(lo, hi), min_size=n, max_size=n))
    reference = Reference(
        column(-90.0, 90.0), column(-180.0, 180.0), column(-90.0, 90.0),
        column(-180.0, 180.0),
        draw(st.lists(st.sampled_from([5e-324, 1e16, 1e-5])
                      | st.floats(5e-324, 1e300), min_size=n, max_size=n)),
        np.abs(column(0.0, 1e300)))
    spoiled = n > 0 and draw(st.booleans())
    if spoiled:
        reference.iri[draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([np.nan, -1.0, np.inf]))
    return reference, spoiled


@st.composite
def matched_cases(draw):
    n = draw(st.integers(0, 8))
    floats = st.lists(_ANY_FLOAT, min_size=n, max_size=n)
    return MatchedTrace(
        np.array(draw(floats)), np.array(draw(floats)),
        np.array(draw(floats)),
        np.array(draw(st.lists(_INT64, min_size=n, max_size=n)),
                 dtype=np.int64), *(np.array(draw(floats)) for _ in range(3)),
        draw(_ANY_FLOAT), draw(st.integers(0, 5)))


@st.composite
def features_cases(draw):
    """A table, its window ids and (``spoiled``) a non-finite feature set
    after construction. Names with a comma or a line break read back as
    other names, or not at all."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    names = draw(st.lists(st.text("ab,\n\x1c", max_size=3), min_size=k,
                          max_size=k))
    ds = Dataset(np.reshape(draw(st.lists(_FINITE, min_size=n * k,
                                          max_size=n * k)), (n, k)),
                 draw(st.lists(_FINITE, min_size=n, max_size=n)),
                 draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)),
                 names)
    spoiled = draw(st.booleans())
    if spoiled:
        ds.X[draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1))] = (
            np.nan)
    ids = np.array(draw(st.lists(_INT64, min_size=n, max_size=n)),
                   dtype=np.int64)
    return ds, ids, spoiled


@st.composite
def network_cases(draw):
    """A network with edge-value coordinates and ids, each edge as long as
    its great-circle distance, and (``spoiled``) a coordinate or an id
    order that the reader refuses or reads otherwise, set after
    construction."""
    n = draw(st.integers(2, 6))

    def column(lim):
        return np.array(draw(st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, lim, -lim])
            | st.floats(-lim, lim), min_size=n, max_size=n)))
    lat, lon = column(90.0), column(180.0)
    ids = np.array(sorted(draw(st.sets(_INT64, min_size=n, max_size=n))),
                   dtype=np.int64)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), min_size=1,
                          max_size=8))
    a, b = np.array(pairs).T
    length = haversine(lat[a], lon[a], lat[b], lon[b])
    network = RoadNetwork(ids, lat, lon, ids[a], ids[b],
                          np.where(length > 0.0, length, 0.01))
    spoiled = draw(st.sampled_from([None, "lat", "ids"]))
    if spoiled == "lat":
        network.node_lat[draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([np.nan, 91.0, -np.inf]))
    elif spoiled == "ids":
        network.node_ids[:] = network.node_ids[::-1].copy()
    return network, spoiled


def json_values():
    """Values that ``io.write_json`` takes: nested lists, tuples and dicts
    of NaN, infinities, signed zeros, bools, None, non-ASCII strings, empty
    containers, and numpy arrays and scalars."""
    arrays = (st.lists(_ANY_FLOAT, max_size=6).map(np.array)
              | st.lists(_INT64, max_size=6).map(
                  lambda v: np.array(v, dtype=np.int64))
              | st.lists(_ANY_FLOAT, min_size=4, max_size=4).map(
                  lambda v: np.reshape(v, (2, 2))))
    leaves = (st.none() | st.booleans() | st.integers() | _ANY_FLOAT
              | st.text(max_size=5) | st.sampled_from(["\u00e9\u6f22",
                                                        "\U0001f600"])
              | _ANY_FLOAT.map(np.float64) | st.floats(width=32).map(
                  np.float32) | _INT64.map(np.int64)
              | st.integers(0, 255).map(np.uint8) | arrays)
    return st.recursive(leaves, lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)),
        max_leaves=20)


class TestJsonWriters:
    """The JSON writers stream ``json.JSONEncoder.iterencode``'s chunks."""

    @settings(max_examples=200, deadline=None)
    @given(json_values(), matched_cases())
    def test_json_writers_equal_json_dumps(self, value, matched):
        """The streamed writers against ``json.dumps`` of the same value."""
        fields = {name: getattr(matched, name) for name in io.MATCHED_FIELDS}
        fields["log_score"] = float(matched.log_score)
        with tempfile.TemporaryDirectory() as tmp:
            for writer, arg, obj in ((io.write_json, value, value),
                                     (io.write_matched_json, matched,
                                      fields)):
                p = Path(tmp) / "x.json"
                digest = writer(p, arg)
                want = (json.dumps(obj, sort_keys=True, indent=1,
                                   default=io._json_value) + "\n")
                assert p.read_bytes() == want.encode("utf-8")
                assert digest in (None, hashlib.blake2b(
                    want.encode("utf-8")).digest())

    def test_json_is_written_without_a_whole_file_string(self, tmp_path):
        """About 1.5e5 floats, 3 MB of text, in well under 1 MB of traced
        memory: the encoder's chunks go out a block at a time."""
        rng = np.random.default_rng(5)
        value = {"trees": [{"threshold": rng.normal(size=5000).tolist(),
                            "value": rng.normal(size=5000).tolist()}
                           for _ in range(15)]}
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            io.write_json(tmp_path / "big.json", value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "big.json").stat().st_size > 3e6
        assert peak < 1e6

    def test_failed_json_write_leaves_no_file(self, tmp_path):
        p = tmp_path / "bad.json"
        with pytest.raises(TypeError, match="object is not JSON"):
            io.write_json(p, {"a": list(range(5000)), "b": object()})
        assert not p.exists()


class TestArtifactReuse:
    """A reader gives the record that this process wrote when the file holds
    exactly the bytes written, and it must equal the parse of that file."""

    @settings(max_examples=150, deadline=None)
    @given(telemetry_cases())
    def test_telemetry_kept_equals_parsed(self, case):
        trace, spoiled = case
        results = []
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "telemetry.csv"
            for read in (io.read_telemetry_csv, io.read_gps_fixes):
                io.write_telemetry_csv(p, trace)
                kept, parsed = kept_and_parsed(read, p)
                assert reader_bits(kept) == reader_bits(parsed)
                results.append(kept)
        trace_kept, fixes_kept = results
        assert isinstance(trace_kept, ValueError) == spoiled
        if not spoiled:
            exact = not _has_neg_nan(trace.gps_lat, trace.gps_lon)
            assert _is_kept(trace_kept) == exact
            assert (not fixes_kept[1].flags.writeable) == exact

    @settings(max_examples=150, deadline=None)
    @given(reference_cases())
    def test_reference_kept_equals_parsed(self, case):
        reference, spoiled = case
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "reference.csv"
            io.write_reference_csv(p, reference)
            kept, parsed = kept_and_parsed(io.read_reference_csv, p)
        assert reader_bits(kept) == reader_bits(parsed)
        assert isinstance(parsed, ValueError) == spoiled
        assert spoiled or _is_kept(kept)

    @settings(max_examples=150, deadline=None)
    @given(matched_cases())
    def test_matched_kept_equals_parsed(self, matched):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "matched.json"
            io.write_matched_json(p, matched)
            kept, parsed = kept_and_parsed(io.read_matched_json, p)
        assert reader_bits(kept) == reader_bits(parsed)
        exact = not (_has_neg_nan(*(getattr(matched, name) for name in
                                    io.MATCHED_FIELDS if name != "edge"))
                     or np.isnan(matched.log_score))
        assert _is_kept(kept) == exact

    @settings(max_examples=150, deadline=None)
    @given(features_cases())
    def test_features_kept_equals_parsed(self, case):
        ds, ids, spoiled = case
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "features.csv"
            io.write_features_csv(p, ds, ids)
            kept, parsed = kept_and_parsed(io.read_features_csv, p)
        assert reader_bits(kept) == reader_bits(parsed)
        plain = not any(c in name for name in ds.feature_names
                        for c in ",\n\x1c")
        assert isinstance(parsed, ValueError) == (spoiled or not plain)
        assert isinstance(parsed, ValueError) or _is_kept(kept)

    @settings(max_examples=150, deadline=None)
    @given(network_cases())
    def test_network_kept_equals_loaded(self, case):
        """Every array of a kept network, and its lists and projection,
        against ``RoadNetwork.load`` of the file."""
        network, spoiled = case
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "network.txt"
            io.write_network(p, network)
            kept, parsed = kept_and_parsed(io.read_network, p)
            assert reader_bits(parsed) == reader_bits(
                _outcome(RoadNetwork.load, p))
        assert reader_bits(kept) == reader_bits(parsed)
        assert (spoiled == "lat") <= isinstance(parsed, ValueError)
        assert isinstance(kept, ValueError) or _is_kept(kept) == (
            spoiled is None)

    def test_network_edit_of_the_same_size_is_parsed(self, tmp_path):
        route = np.column_stack([55.6500001 + 1e-3 * np.arange(4),
                                 np.full(4, 12.55)])
        network = RoadNetwork(np.arange(4), route[:, 0], route[:, 1],
                              [0, 1, 2], [1, 2, 3],
                              haversine(route[:-1, 0], route[:-1, 1],
                                        route[1:, 0], route[1:, 1]))
        p = tmp_path / "network.txt"
        io.write_network(p, network)
        assert _is_kept(io.read_network(p))
        stat = p.stat()
        data = p.read_bytes()
        assert data.startswith(b"node,0,55.6500001,")
        p.write_bytes(data.replace(b"55.6500001,", b"55.6500002,", 1))
        os.utime(p, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        got = io.read_network(p)
        assert not _is_kept(got)
        assert got.node_lat[0] == 55.6500002
        assert reader_bits(got) == reader_bits(RoadNetwork.load(p))

    def test_changing_a_network_reaches_no_later_read(self, tmp_path):
        lat = 55.65 + 1e-3 * np.arange(3)
        network = RoadNetwork(np.arange(3), lat, np.full(3, 12.55), [0, 1],
                              [1, 2], haversine(lat[:-1], 12.55, lat[1:],
                                                12.55))
        p = tmp_path / "network.txt"
        io.write_network(p, network)
        network.node_lat[0] = 0.0
        network.adj_len.append(1.0)
        got = io.read_network(p)
        for array in (got.node_lat, got.node_x, got.edge_len):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5.0
        got.candidates([55.651], [12.5501])  # builds its cell index
        got.adj_node.append(7)
        got.edge_a = None
        kept = io.read_network(p)
        assert kept._cells is None
        io.forget_written()
        assert reader_bits(kept) == reader_bits(io.read_network(p))

    @staticmethod
    def _write(tmp_path, kind):
        """A file of ``kind``, written by its writer, and its reader."""
        rng = np.random.default_rng(4)
        write, read, args = {
            "telemetry": (io.write_telemetry_csv, io.read_telemetry_csv,
                          (_trace(),)),
            "gps_fixes": (io.write_telemetry_csv, io.read_gps_fixes,
                          (_trace(),)),
            "reference": (io.write_reference_csv, io.read_reference_csv,
                          (Reference(np.full(5, 55.65), np.full(5, 12.55),
                                     np.full(5, 55.6501), np.full(5, 12.55),
                                     np.full(5, 10.0),
                                     1.0 + np.arange(5) / 7),)),
            "matched": (io.write_matched_json, io.read_matched_json,
                        (MatchedTrace(np.arange(3.0), np.full(3, 55.65),
                                      np.full(3, 12.55), np.array([0, 0, 1]),
                                      np.array([1.5, 9.7, 3.2]),
                                      np.full(3, 55.6501),
                                      np.full(3, 12.5501), -12.345),)),
            "features": (io.write_features_csv, io.read_features_csv,
                         (Dataset(rng.normal(size=(5, 3)),
                                  rng.uniform(0.5, 3.0, 5),
                                  rng.integers(0, 3, 5), ["a", "b", "c"]),
                          np.arange(5))),
        }[kind]
        path = tmp_path / kind
        write(path, *args)
        return path, read

    @pytest.mark.parametrize("kind", ["telemetry", "gps_fixes", "reference",
                                      "matched", "features"])
    def test_same_size_edit_under_the_same_mtime_is_parsed(self, tmp_path,
                                                            kind):
        """Size and mtime would both say the file is unchanged."""
        path, read = self._write(tmp_path, kind)
        written = read(path)
        assert _is_kept(written if kind != "gps_fixes" else
                        io.read_telemetry_csv(path))
        stat = path.stat()
        data = bytearray(path.read_bytes())
        # The last number that ends a line is one that the reader reads:
        # the lon of a fix row in telemetry.csv, the last IRI, time or
        # level in the others. Its first digit changes its value.
        end = max(data.rfind(f"{d}\n".encode()) for d in range(10))
        i = max(data.rfind(c, 0, end) for c in (b",", b" ")) + 1
        data[i] = ord(str((int(chr(data[i])) + 1) % 10))
        path.write_bytes(bytes(data))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        assert path.stat().st_mtime_ns == stat.st_mtime_ns
        got = reader_bits(read(path))
        io.forget_written()
        assert got == reader_bits(read(path)) != reader_bits(written)

    def test_changing_a_record_reaches_no_later_read(self, tmp_path):
        trace = _trace()
        p = tmp_path / "telemetry.csv"
        io.write_telemetry_csv(p, trace)
        trace.acc_z[0] += 1.0
        trace.gps_lat[:] = 0.0
        got = io.read_telemetry_csv(p)
        for array in (got.acc_z, io.read_gps_fixes(p)[1]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5.0
            with pytest.raises(ValueError):
                array.setflags(write=True)
        got.t = np.zeros(3)
        ds = Dataset(np.ones((2, 2)), np.ones(2), np.zeros(2, dtype=int),
                     ["a", "b"])
        f = tmp_path / "features.csv"
        io.write_features_csv(f, ds, [0, 1])
        ds.X[0, 0] = 7.0
        ds.feature_names.append("c")
        io.read_features_csv(f)[0].feature_names[0] = "z"
        kept = io.read_telemetry_csv(p), io.read_features_csv(f)
        io.forget_written()
        parsed = io.read_telemetry_csv(p), io.read_features_csv(f)
        assert reader_bits(kept) == reader_bits(parsed)
        assert parsed[1][0].feature_names == ["a", "b"]
        assert parsed[1][0].X[0, 0] == 1.0
        assert parsed[0].acc_z[0] == _trace().acc_z[0]

    def test_refused_trace_is_not_kept(self, tmp_path):
        """A channel value that construction refuses, set afterwards, as in
        ``TestWriters.test_telemetry_on_any_floats``."""
        trace = _trace()
        trace.acc_z[2] = np.nan
        p = tmp_path / "telemetry.csv"
        io.write_telemetry_csv(p, trace)
        with pytest.raises(ValueError, match="acc_z must be finite: sample "
                                             "2 is nan"):
            io.read_telemetry_csv(p)

    @pytest.mark.parametrize("gps_idx", [[8, 0, 4], [0, 4, 4]])
    def test_fixes_out_of_row_order_are_not_kept(self, tmp_path, gps_idx):
        """The file holds one fix per row, in row order, so the reader gives
        other fixes than these."""
        trace = _trace()
        trace.gps_idx = np.array(gps_idx)
        p = tmp_path / "telemetry.csv"
        io.write_telemetry_csv(p, trace)
        kept, parsed = kept_and_parsed(io.read_telemetry_csv, p)
        assert reader_bits(kept) == reader_bits(parsed)
        assert reader_bits(kept.gps_idx) != reader_bits(trace.gps_idx)

    def test_nan_whose_sign_the_text_drops_is_not_kept(self, tmp_path):
        trace = _trace()
        trace.gps_lat[1] = _NEG_NAN
        p = tmp_path / "telemetry.csv"
        io.write_telemetry_csv(p, trace)
        got = io.read_telemetry_csv(p)
        assert got.gps_lat.flags.writeable
        assert got.gps_lat[1:2].view(np.uint64) == np.array(
            np.nan).view(np.uint64)

    def test_pipeline_stages_read_what_they_wrote_from_memory(self, tmp_path):
        config = load_config(workdir=tmp_path)
        config["simulate"]["route_length_m"] = 600.0
        for stage in ("simulate", "match", "align", "featurize"):
            run_stage(stage, config)
        assert _is_kept(io.read_network(tmp_path / "network.txt"))
        assert _is_kept(io.read_telemetry_csv(tmp_path / "telemetry.csv"))
        assert _is_kept(io.read_reference_csv(tmp_path / "reference.csv"))
        assert _is_kept(io.read_matched_json(tmp_path / "matched.json"))
        assert _is_kept(io.read_features_csv(tmp_path / "features.csv"))


# Used to end load_config with a TypeError (a string where a number or a
# section belongs) or an AttributeError (a list for the whole file), to load
# as 1 (true for a number) or to name one letter of a family string
# ("unknown model family: r").
WRONG_TYPE_CONFIGS = [
    ({"train_frac": "0.8"}, "train_frac must be a number in"),
    ({"simulate": {"envelope_min": "a"}},
     "simulate.envelope_min must be a positive number"),
    ({"seed": True}, "seed must be an integer"),
    ({"simulate": {"speed_ms": True}},
     "simulate.speed_ms must be a positive number"),
    ({"match": {"radius_m": True}},
     "match.radius_m must be a finite positive number"),
    ({"train": {"regression_families": "ridge"}},
     "train.regression_families must be a list of family names"),
    ({"simulate": "fast"}, "simulate must be an object"),
    (["seed", 3], "config file .* must hold a JSON object"),
]

# Each used to load. A number, null or list then failed in the first stage
# with a TypeError that named neither the key nor the config; "" is
# Path("."), so the stages wrote into the current directory.
BAD_WORKDIR_CONFIGS = [
    ({"workdir": 5}, "workdir must be a non-empty string, got 5"),
    ({"workdir": None}, "workdir must be a non-empty string, got None"),
    ({"workdir": ""}, "workdir must be a non-empty string, got ''"),
    ({"workdir": ["run"]},
     r"workdir must be a non-empty string, got \['run'\]"),
]


class TestConfig:
    def test_defaults_returned_without_file(self):
        cfg = load_config()
        assert cfg == DEFAULT_CONFIG

    def test_nested_merge_keeps_unrelated_keys(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"simulate": {"route_length_m": 900.0}}))
        cfg = load_config(p)
        assert cfg["simulate"]["route_length_m"] == 900.0
        assert cfg["simulate"]["profile_dx_m"] == 0.05
        assert cfg["train"]["k_folds"] == 5

    def test_cli_overrides_beat_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"seed": 3, "workdir": "from_file"}))
        cfg = load_config(p, seed=99, workdir="elsewhere")
        assert cfg["seed"] == 99
        assert cfg["workdir"] == "elsewhere"

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("override", [
        {"train_frac": 1.5},
        {"seed": "seven"},
        {"simulate": {"route_length_m": -1.0}},
        {"simulate": {"envelope_min": 2.0, "envelope_max": 1.0}},
        {"train": {"k_folds": 1}},
        {"train": {"regression_families": ["baseline", "logistic"]}},
        {"train": {"classification_families": ["gausian_nb"]}},
    ])
    def test_invalid_values_rejected(self, tmp_path, override):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(override))
        with pytest.raises(ValueError):
            load_config(p)

    @pytest.mark.parametrize("key,value", [
        ("radius_m", float("nan")), ("radius_m", float("inf")),
        ("radius_m", 0.0), ("sigma_m", float("nan")), ("sigma_m", -4.0),
        ("beta_m", float("inf")), ("beta_m", 0.0),
        ("max_candidates", 0), ("max_candidates", float("nan")),
        ("max_candidates", "8"), ("max_candidates", 2.5),
        ("max_candidates", True),
    ])
    def test_bad_match_setting_is_named(self, tmp_path, key, value):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"match": {key: value}}))
        with pytest.raises(ValueError, match=f"match.{key}"):
            load_config(p)

    @pytest.mark.parametrize("key", ["search_back_m", "search_ahead_m"])
    def test_old_align_search_key_is_named(self, tmp_path, key):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"align": {key: 100.0}}))
        with pytest.raises(ValueError, match=f"align.{key} is a sample "
                                             f"count"):
            load_config(p)

    @pytest.mark.parametrize("key", ["search_back_samples",
                                     "search_ahead_samples"])
    @pytest.mark.parametrize("value", [0, -5, 100.0, 1.5, "100", True, None])
    def test_align_search_count_must_be_a_positive_integer(self, tmp_path,
                                                           key, value):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"align": {key: value}}))
        with pytest.raises(ValueError, match=f"align.{key} must be a "
                                             f"positive integer"):
            load_config(p)

    @pytest.mark.parametrize("section,key,value", [
        ("align", "window_pieces", -2), ("align", "window_pieces", 0),
        ("align", "window_pieces", 2.5), ("align", "window_pieces", "10"),
        ("featurize", "target_len", 2), ("featurize", "target_len", 40.7),
        ("featurize", "target_len", True),
        ("select", "k_folds", 1), ("select", "k_folds", 2.5),
        ("train", "k_folds", 1), ("train", "k_folds", 2.5),
        ("match", "max_candidates", 2.5), ("match", "max_candidates", 8.0),
    ])
    def test_bad_count_is_named_at_load(self, tmp_path, section, key, value):
        """Used to fail in a later stage, or be truncated without a word."""
        p = tmp_path / "c.json"
        p.write_text(json.dumps({section: {key: value}}))
        with pytest.raises(ValueError, match=f"{section}.{key} must be an "
                                             f"integer of at least"):
            load_config(p)

    @pytest.mark.parametrize("key,value", [
        ("max_features", 0), ("max_features", -2), ("max_features", 2.5),
        ("max_features", "10"), ("max_features", True),
        ("sfs_trees", 0), ("sfs_trees", 1.0), ("sfs_trees", None),
        ("sfs_depth", 0), ("sfs_depth", MAX_DEPTH + 1), ("sfs_depth", 4.0),
        ("sfs_max_rows", 0), ("sfs_max_rows", 4), ("sfs_max_rows", 300.5),
        ("sfs_max_rows", "1500"), ("sfs_max_rows", False),
        ("pca_variance", 0.0), ("pca_variance", 1.01),
        ("pca_variance", -0.5), ("pca_variance", float("nan")),
        ("pca_variance", "0.99"), ("pca_variance", True),
    ])
    def test_bad_select_setting_is_named(self, tmp_path, key, value):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"select": {key: value}}))
        with pytest.raises(ValueError, match=f"select.{key}"):
            load_config(p)

    @pytest.mark.parametrize("select", [
        {"sfs_max_rows": None}, {"sfs_max_rows": 5, "k_folds": 5},
        {"sfs_depth": 1}, {"sfs_depth": MAX_DEPTH}, {"pca_variance": 1},
        {"max_features": 1, "sfs_trees": 1},
    ])
    def test_edge_select_settings_accepted(self, tmp_path, select):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"select": select}))
        assert load_config(p)["select"] == {**DEFAULT_CONFIG["select"],
                                            **select}

    @pytest.mark.parametrize("override,message", [
        ({"simulate": {"gps_noise_sigma_m": float("nan")}},
         "simulate.gps_noise_sigma_m must be a finite number of at least 0"),
        ({"simulate": {"acc_noise_sigma": float("nan")}},
         "simulate.acc_noise_sigma must be a finite number of at least 0"),
        ({"simulate": {"acc_noise_sigma": -0.01}},
         "simulate.acc_noise_sigma must be a finite number of at least 0"),
        ({"simulate": {"gps_noise_sigma_m": "3"}},
         "simulate.gps_noise_sigma_m must be a finite number of at least 0"),
        ({"simulate": {"roughness_coeff": -1e-6}},
         "simulate.roughness_coeff must be a finite number of at least 0"),
        ({"simulate": {"vehicle_perturbation": 1.0}},
         r"simulate.vehicle_perturbation must be a number in \[0, 1\)"),
        ({"simulate": {"vehicle_perturbation": -0.1}},
         r"simulate.vehicle_perturbation must be a number in \[0, 1\)"),
        ({"train": {"adasyn": "no"}}, "train.adasyn must be true or false"),
        ({"train": {"adasyn": 0}}, "train.adasyn must be true or false"),
        ({"select": {"sfs_tree": 20}}, "unknown config key: select.sfs_tree"),
        ({"match": {"max_candidate": 4}},
         "unknown config key: match.max_candidate"),
        ({"sed": 3}, "unknown config key: sed"),
        ({"train": {"grids": {"regresion": {"ridge": {"lam": [1.0]}}}}},
         "train.grids: unknown task 'regresion', expected one of "
         "regression, classification"),
        ({"train": {"grids": {"regression": {"randomforest": {
            "n_trees": [5]}}}}},
         "train.grids.regression: unknown model family: randomforest$"),
        ({"train": {"grids": {"classification": {"ridge": {
            "lam": [1.0]}}}}},
         "train.grids.classification: ridge does not support "
         "classification$"),
        ({"train": {"grids": ["ridge"]}}, "train.grids must be an object"),
        ({"train": {"grids": {"regression": ["ridge"]}}},
         "train.grids.regression must be an object"),
        *WRONG_TYPE_CONFIGS,
        *BAD_WORKDIR_CONFIGS,
        ({"train": {"grids": {"regression": {"ridge": {"lam": 0.1}}}}},
         "train.grids.regression.ridge.lam must be a non-empty list, got "
         "0.1$"),
        ({"train": {"grids": {"regression": {"ridge": {"lam": []}}}}},
         r"train.grids.regression.ridge.lam must be a non-empty list, got "
         r"\[\]$"),
        ({"train": {"grids": {"regression": {"ridge": [1.0]}}}},
         r"train.grids.regression.ridge must be an object, got \[1.0\]$"),
        ({"train": {"grids": {"regression": {"ridge": {"alpha": [1.0]}}}}},
         "train.grids.regression.ridge: .*unexpected keyword argument "
         "'alpha'$"),
        ({"train": {"grids": {"classification": {"knn": {"k": [5, 0]}}}}},
         "train.grids.classification.knn: k must be positive$"),
    ])
    def test_silently_wrong_value_is_named_at_load(self, tmp_path, override,
                                                   message):
        """Each used to load and run: bool("no") is True, a NaN sigma adds
        no noise, and a misspelt key was ignored (a misspelt grid key left
        its family on the default grid). A bad family grid failed only in
        train, without naming its key."""
        p = tmp_path / "c.json"
        p.write_text(json.dumps(override))
        with pytest.raises(ValueError, match=message):
            load_config(p)

    @pytest.mark.parametrize("override", [
        {"simulate": {"gps_noise_sigma_m": 0, "acc_noise_sigma": 0.0,
                      "roughness_coeff": 0, "vehicle_perturbation": 0}},
        {"simulate": {"vehicle_perturbation": 0.99}},
        {"train": {"adasyn": False}},
        {"match": {"max_candidates": 1}},
        {"train": {"grids": {"regression": {"ridge": {"lam": [1.0]}}}}},
        {"train": {"grids": {"regression": None, "classification": {
            "random_forest": {"max_features": [1]}, "mlp": {}}}}},
        {"train": {"grids": None}},
    ])
    def test_edge_values_accepted(self, tmp_path, override):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(override))
        load_config(p)

    def test_row_cap_below_the_folds_fails_at_load(self, tmp_path):
        # Used to fail in select, after simulate .. featurize had run.
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"select": {"k_folds": 3,
                                            "sfs_max_rows": 2}}))
        with pytest.raises(ValueError, match=r"select.sfs_max_rows must be "
                                             r"null or an integer of at "
                                             r"least select.k_folds \(3\)"):
            load_config(p)


class TestMainExitCodes:
    def test_missing_config_is_error(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("override,message", WRONG_TYPE_CONFIGS)
    def test_value_of_the_wrong_type_is_error(self, tmp_path, capsys,
                                              override, message):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(override))
        rc = main(["simulate", "--config", str(p),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert re.match(f"error: {message}", capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override,message", BAD_WORKDIR_CONFIGS)
    @pytest.mark.parametrize("stage", ["simulate", "match"])
    def test_bad_workdir_is_error(self, tmp_path, monkeypatch, capsys,
                                  override, message, stage):
        """No --out, so the config's workdir is the one used."""
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(override))
        assert main([stage, "--config", str(p)]) == 1
        assert re.match(f"error: {message}", capsys.readouterr().err)
        assert [f.name for f in tmp_path.iterdir()] == ["c.json"]

    def test_stage_without_inputs_is_error(self, tmp_path, capsys):
        rc = main(["match", "--out", str(tmp_path / "empty")])
        assert rc == 1
        assert "match" in capsys.readouterr().err

    def test_report_before_run_is_error(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "empty")]) == 1


class TestPipelineRun:
    def test_artifacts_exist(self, smoke_run):
        _, workdir = smoke_run
        for name in ("network.txt", "telemetry.csv", "reference.csv",
                     "matched.json", "features.csv", "selection.json",
                     "training.json", "report.json"):
            assert (workdir / name).exists(), name
        assert (workdir / "windows" / "meta.json").exists()
        for fam in ("baseline", "ridge"):
            assert (workdir / "models" / f"regression_{fam}.json").exists()
        for fam in ("baseline", "knn"):
            assert (workdir / "models" /
                    f"classification_{fam}.json").exists()

    def test_report_structure(self, smoke_run):
        _, workdir = smoke_run
        report = io.read_json(workdir / "report.json")
        assert report["n_train"] + report["n_test"] == len(
            report["actual"]["window_id"]) + report["n_train"]
        assert set(report["test"]["regression"]) == {"baseline", "ridge"}
        assert set(report["test"]["classification"]) == {"baseline", "knn"}
        audit = report["leakage_audit"]
        assert audit["train_range"][1] == audit["test_range"][0]
        for task in audit["cv_fold_bounds"].values():
            for bounds in task.values():
                for (tr_lo, tr_hi), (va_lo, va_hi) in bounds:
                    assert tr_lo == 0 and tr_hi == va_lo < va_hi

    def test_features_file_round_trips(self, smoke_run):
        _, workdir = smoke_run
        ds, ids = io.read_features_csv(workdir / "features.csv")
        assert ds.X.shape[1] == 68
        assert len(ids) == len(ds)

    def test_bundle_predictions_match_report(self, smoke_run):
        _, workdir = smoke_run
        report = io.read_json(workdir / "report.json")
        ds, _ = io.read_features_csv(workdir / "features.csv")
        x_test = ds.X[report["n_train"]:]
        bundle = io.load_bundle(workdir / "models" / "regression_ridge.json")
        pred = bundle_predict(bundle, x_test)
        stored = np.array(report["test"]["regression"]["ridge"]
                          ["predictions"])
        assert np.max(np.abs(pred - stored)) < 1e-12

    def test_single_stage_rerun_is_stable(self, smoke_run):
        cfg_path, workdir = smoke_run
        before = (workdir / "selection.json").read_bytes()
        cfg = load_config(cfg_path, workdir=workdir)
        run_stage("select", cfg)
        assert (workdir / "selection.json").read_bytes() == before

    def test_report_export(self, smoke_run, capsys):
        cfg_path, workdir = smoke_run
        rc = main(["report", "--config", str(cfg_path),
                   "--out", str(workdir)])
        assert rc == 0
        cfg = load_config(cfg_path, workdir=workdir)
        paths = export_report(cfg)
        names = {p.name for p in paths}
        assert names == {"report_metrics.csv", "report_confusion.csv",
                         "report_predictions.csv", "report_sfs.csv"}
        metrics = (workdir / "report_metrics.csv").read_text().splitlines()
        assert metrics[0] == "task,family,metric,value"
        assert len(metrics) > 4
        report = io.read_json(workdir / "report.json")
        preds = (workdir / "report_predictions.csv").read_text().splitlines()
        assert len(preds) == 1 + 2 * report["n_test"]  # two families


# Runs the CLI stages given after the config path, in one process, and
# prints the scipy packages that simkit imports which are then loaded.
_STAGES_SCRIPT = """
import sys
from roadroughness.cli.main import main
config, out, *stages = sys.argv[1:]
for stage in stages:
    assert main([stage, "--config", config, "--out", out]) == 0, stage
print(",".join(m for m in ("scipy.signal", "scipy.linalg")
               if m in sys.modules))
"""


class TestScipyImports:
    """Only a process that simulates imports scipy.signal and scipy.linalg,
    which take most of a second and ~75 MB to load."""

    @staticmethod
    def _loaded(config, out, *stages) -> list[str]:
        import roadroughness
        src = str(Path(roadroughness.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-c", _STAGES_SCRIPT, str(config), str(out),
             *stages], env=env, capture_output=True, text=True, check=True)
        return [m for m in proc.stdout.splitlines()[-1].split(",") if m]

    def test_stages_after_simulate_load_neither(self, smoke_run, tmp_path):
        cfg_path, workdir = smoke_run
        shutil.copytree(workdir, tmp_path / "run")
        assert self._loaded(cfg_path, tmp_path / "run", "match", "align",
                            "featurize", "select", "train", "evaluate",
                            "report") == []

    def test_simulate_loads_both(self, smoke_run, tmp_path):
        cfg_path, _ = smoke_run
        assert self._loaded(cfg_path, tmp_path / "run", "simulate") == [
            "scipy.signal", "scipy.linalg"]


class TestTelemetryStages:
    def test_bad_acc_in_a_row_without_a_fix_fails_align(self, tmp_path):
        """match parses only the fix rows; align parses every row and names
        the bad number."""
        config = load_config(workdir=tmp_path)
        config["simulate"]["route_length_m"] = 300.0
        run_stage("simulate", config)
        p = tmp_path / "telemetry.csv"
        lines = p.read_text(encoding="utf-8").splitlines()
        assert lines[2].endswith(",,")
        cols = lines[2].split(",")
        cols[1] = "0.1x"
        lines[2] = ",".join(cols)
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        run_stage("match", config)
        with pytest.raises(StageError, match="could not convert string "
                                             "'0.1x'") as exc:
            run_stage("align", config)
        assert exc.value.stage == "align"


class TestSelectSplit:
    def test_single_train_row_fails_in_select(self, tmp_path):
        ds = Dataset(np.random.default_rng(5).normal(size=(2, 4)),
                     np.array([0.5, 1.5]), np.array([0, 1]),
                     ["f0", "f1", "f2", "f3"])
        io.write_features_csv(tmp_path / "features.csv", ds, np.arange(2))
        with pytest.raises(StageError) as exc:
            run_stage("select", load_config(workdir=tmp_path))
        assert exc.value.stage == "select"


class TestTrainFoldPlan:
    @pytest.mark.filterwarnings("ignore:reducing k_neighbors")
    def test_adasyn_runs_once_per_fold_and_once_for_the_final_fit(
            self, tmp_path, monkeypatch):
        """However many families and grid points, one train run resamples
        each CV fold's train rows once and all train rows once."""
        rng = np.random.default_rng(9)
        n = 90
        level = rng.choice(3, size=n, p=[0.6, 0.3, 0.1])
        iri = 0.6 + level + 0.1 * rng.normal(size=n)
        ds = Dataset(np.column_stack([iri, rng.normal(size=(n, 3))]), iri,
                     level, ["f0", "f1", "f2", "f3"])
        config = load_config(workdir=tmp_path)
        config["select"].update(k_folds=3, max_features=2, sfs_trees=3,
                                sfs_depth=3, sfs_max_rows=None)
        config["train"].update(
            k_folds=4, adasyn=True, regression_families=["baseline", "knn"],
            classification_families=["baseline", "knn", "gaussian_nb",
                                     "random_forest"],
            grids={"classification": {
                "knn": {"k": [3, 5, 7]},
                "random_forest": {"n_trees": [3], "max_depth": [2, 4]}}})
        io.write_features_csv(tmp_path / "features.csv", ds, np.arange(n))
        run_stage("select", config)
        rows = []

        def spy(x, y, **kwargs):
            rows.append(len(x))
            return adasyn_resample(x, y, **kwargs)

        monkeypatch.setattr(search, "adasyn_resample", spy)
        monkeypatch.setattr(pipeline, "adasyn_resample", spy)
        run_stage("train", config)
        n_train = io.read_json(tmp_path / "selection.json")["n_train"]
        folds = ordered_kfold(n_train, 4)
        assert rows == [len(tr) for tr, _ in folds] + [n_train]


class TestTrainFailedFits:
    def test_failed_fold_fits_are_counted_per_task(self, tmp_path):
        """A random-forest grid point that asks for more features than PCA
        keeps fails on every fold; train_summary.json counts its fits."""
        rng = np.random.default_rng(5)
        n = 60
        iri = rng.uniform(0.5, 3.0, n)
        ds = Dataset(np.column_stack([iri + 0.1 * rng.normal(size=n),
                                      rng.normal(size=(n, 2))]), iri,
                     np.digitize(iri, [1.0, 2.0]), ["f0", "f1", "f2"])
        config = load_config(workdir=tmp_path)
        config["select"].update(k_folds=3, max_features=2, sfs_trees=3,
                                sfs_depth=3, sfs_max_rows=None)
        config["train"].update(
            k_folds=3, adasyn=False,
            regression_families=["baseline", "random_forest"],
            classification_families=["baseline"],
            grids={"regression": {"random_forest": {
                "n_trees": [3], "max_depth": [2], "max_features": [1, 9]}}})
        io.write_features_csv(tmp_path / "features.csv", ds, np.arange(n))
        run_stage("select", config)
        summary = run_stage("train", config)
        forest = io.read_json(tmp_path / "training.json")["tasks"][
            "regression"]["random_forest"]
        n_folds = len(forest["fold_bounds"])
        assert n_folds == 2  # forward chaining over 3 blocks
        assert [len(row["errors"]) for row in forest["cv_table"]] == [0, 2]
        assert summary["n_failed_cv_fits"] == {"regression": 2,
                                               "classification": 0}
        assert io.read_json(tmp_path / "train_summary.json") == summary


class TestTrainSingleWindowLevel:
    def test_train_completes_and_counts_the_level(self, tmp_path):
        """A level with one train window is left un-oversampled by ADASYN
        and counted, in grid search and in the final fit alike."""
        rng = np.random.default_rng(4)
        n = 80
        iri = np.where(np.arange(n) % 2 == 0, 0.6, 1.6)
        iri[3] = 3.5  # the only level-2 window, in every CV fold
        x = np.column_stack([iri + 0.1 * rng.normal(size=n),
                             rng.normal(size=(n, 3))])
        ds = Dataset(x, iri, np.array([0 if v <= 0.9 else 1 if v <= 2.5
                                       else 2 for v in iri]),
                     ["f0", "f1", "f2", "f3"])
        config = load_config(workdir=tmp_path)
        config["select"].update(k_folds=3, max_features=2, sfs_trees=3,
                                sfs_depth=3, sfs_max_rows=None)
        config["train"].update(
            k_folds=3, adasyn=True, regression_families=["baseline"],
            classification_families=["baseline", "knn"],
            grids={"classification": {"knn": {"k": [3]}}})
        io.write_features_csv(tmp_path / "features.csv", ds, np.arange(n))
        run_stage("select", config)
        with pytest.warns(UserWarning, match="class 2 has a single sample"):
            summary = run_stage("train", config)
        assert summary["n_adasyn_skipped_levels"] == 1
        training = io.read_json(tmp_path / "training.json")
        knn = training["tasks"]["classification"]["knn"]
        assert knn["cv_table"][0]["errors"] == []

"""The ``Windows`` record from align to featurize, against the per-piece and
per-window path it replaced, which is kept here as the oracle."""
import json
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadroughness.cli import io
from roadroughness.core import (Dataset, Reference, TelemetryTrace,
                                Windows, iri_levels)
from roadroughness.features import (BLOCK_WINDOWS, CHANNELS, _channel_matrix,
                                    build_feature_matrix, feature_names,
                                    resample_segment)
from roadroughness.geoalign import (InterpolatedPositions, align_segments,
                                    interpolate_positions, sliding_windows)
from roadroughness.geoalign import align as align_module

# ------------------------------------------------------ the per-window oracle
# One object per 10 m piece and per window, as the pipeline had them before
# the Windows record.


@dataclass
class MatchedPiece:
    seg_index: int
    t: np.ndarray
    acc_z: np.ndarray
    speed: np.ndarray
    iri: float


@dataclass
class AlignedSegment:
    window_id: int
    t: np.ndarray
    acc_z: np.ndarray
    speed: np.ndarray
    iri: float


def oracle_align_segments(reference, positions, trace, boundaries):
    pieces, n_dropped = [], 0
    for i, iri in enumerate(reference.iri.tolist()):
        a, b = boundaries[i], boundaries[i + 1]
        if b - a < 2:
            n_dropped += 1
            continue
        rows = positions.idx[a:b]
        pieces.append(MatchedPiece(i, trace.t[rows], trace.acc_z[rows],
                                   trace.speed[rows], iri))
    return pieces, n_dropped


def oracle_sliding_windows(pieces, window):
    segments = []
    for i in range(len(pieces) - window + 1):
        run = pieces[i:i + window]
        if run[-1].seg_index - run[0].seg_index != window - 1:
            continue
        segments.append(AlignedSegment(
            run[0].seg_index, np.concatenate([p.t for p in run]),
            np.concatenate([p.acc_z for p in run]),
            np.concatenate([p.speed for p in run]),
            float(np.mean([p.iri for p in run]))))
    if not segments:
        warnings.warn("no complete windows could be formed", stacklevel=2)
    return segments


def oracle_write_windows(dirpath, windows):
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    offsets = np.zeros(len(windows) + 1, dtype=np.int64)
    for i, w in enumerate(windows):
        offsets[i + 1] = offsets[i] + len(w.t)
    for name in ("t", "acc_z", "speed"):
        np.save(d / f"{name}.npy",
                np.concatenate([getattr(w, name) for w in windows])
                if windows else np.zeros(0))
    np.save(d / "offsets.npy", offsets)
    np.save(d / "window_id.npy",
            np.array([w.window_id for w in windows], dtype=np.int64))
    np.save(d / "iri.npy", np.array([w.iri for w in windows]))
    io.write_json(d / "meta.json", {"format": 1, "n_windows": len(windows)})


def oracle_resample_segment(segment, target_len):
    t_new = np.linspace(segment.t[0], segment.t[-1], target_len)
    return AlignedSegment(segment.window_id, t_new,
                          np.interp(t_new, segment.t, segment.acc_z),
                          np.interp(t_new, segment.t, segment.speed),
                          segment.iri)


def oracle_build_feature_matrix(segments):
    if not segments:
        raise ValueError("no segments given")
    names = feature_names()
    rows = np.empty((len(segments), len(names)))
    by_length = {}
    for i, seg in enumerate(segments):
        by_length.setdefault(len(seg.t), []).append(i)
    for same_length in by_length.values():
        for lo in range(0, len(same_length), BLOCK_WINDOWS):
            idx = same_length[lo:lo + BLOCK_WINDOWS]
            t = np.stack([segments[i].t for i in idx])
            rows[idx] = np.hstack([
                _channel_matrix(
                    np.stack([getattr(segments[i], ch) for i in idx]), t)
                for ch in CHANNELS])
    if not np.all(np.isfinite(rows)):
        raise ValueError("non-finite feature")
    y = np.array([seg.iri for seg in segments], dtype=float)
    return Dataset(rows, y, iri_levels(y), names)


# ----------------------------------------------------------------- equality

def run_both(reference, positions, trace, window, target_len,
             boundaries=None):
    """(Windows, features or ValueError) of the record path and (segments,
    features or ValueError) of the oracle path, on the same piece
    boundaries, with the warnings each path gave."""
    if boundaries is None:
        boundaries = align_module.piece_boundaries(reference, positions,
                                                   100, 2000)
    out = []
    with mock.patch.object(align_module, "piece_boundaries",
                           return_value=list(boundaries)):
        for path in ("record", "oracle"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if path == "record":
                    pieces, n_dropped = align_segments(reference, positions)
                    windows = sliding_windows(pieces, positions, trace,
                                              window)
                else:
                    pieces, n_dropped = oracle_align_segments(
                        reference, positions, trace, boundaries)
                    windows = oracle_sliding_windows(pieces, window)
            try:
                if path == "record":
                    features = build_feature_matrix(
                        resample_segment(windows, target_len))
                else:
                    features = oracle_build_feature_matrix(
                        [oracle_resample_segment(w, target_len)
                         for w in windows])
            except ValueError as exc:
                features = exc
            out.append((len(pieces), n_dropped, windows, features,
                        [str(w.message) for w in caught]))
    return out


def assert_record_equals_oracle(record, oracle):
    (n_pieces, n_dropped, windows, features, warned) = record
    (o_pieces, o_dropped, segments, o_features, o_warned) = oracle
    assert (n_pieces, n_dropped, warned) == (o_pieces, o_dropped, o_warned)
    assert len(windows) == len(segments)
    for name in ("t", "acc_z", "speed"):
        want = np.concatenate([np.zeros(0)]
                              + [getattr(w, name) for w in segments])
        assert getattr(windows, name).tobytes() == want.tobytes(), name
    assert windows.offsets.tolist() == np.cumsum(
        [0] + [len(w.t) for w in segments]).tolist()
    assert windows.window_id.tolist() == [w.window_id for w in segments]
    assert windows.iri.tobytes() == np.array(
        [w.iri for w in segments], dtype=float).tobytes()
    if isinstance(o_features, ValueError):
        assert isinstance(features, ValueError)
        return
    assert not isinstance(features, ValueError), features
    for name in ("X", "y", "level"):
        a, b = getattr(features, name), getattr(o_features, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def assert_same_window_files(windows, segments, tmp):
    io.write_windows(Path(tmp) / "record", windows)
    oracle_write_windows(Path(tmp) / "oracle", segments)
    for name in ("t", "acc_z", "speed", "offsets", "window_id", "iri"):
        assert ((Path(tmp) / "record" / f"{name}.npy").read_bytes()
                == (Path(tmp) / "oracle" / f"{name}.npy").read_bytes()), name
    assert ((Path(tmp) / "record" / "meta.json").read_bytes()
            == (Path(tmp) / "oracle" / "meta.json").read_bytes())
    back = io.read_windows(Path(tmp) / "record")
    for name in io.WINDOW_FIELDS:
        assert (getattr(back, name).tobytes()
                == getattr(windows, name).tobytes()), name


class TestSurveyDrive:
    @pytest.fixture(scope="class")
    def drive(self, tmp_path_factory):
        from roadroughness.cli.config import load_config
        from roadroughness.cli.pipeline import run_stage
        workdir = tmp_path_factory.mktemp("survey")
        config = load_config(seed=401, workdir=workdir)
        config["simulate"]["route_length_m"] = 2000.0
        for stage in ("simulate", "match"):
            run_stage(stage, config)
        trace = io.read_telemetry_csv(workdir / "telemetry.csv")
        reference = io.read_reference_csv(workdir / "reference.csv")
        with pytest.warns(UserWarning, match="outside GPS fix range"):
            positions = interpolate_positions(
                trace, io.read_matched_json(workdir / "matched.json"))
        return reference, positions, trace

    @pytest.mark.parametrize("window,target_len", [(10, 250), (1, 3),
                                                   (7, 40)])
    def test_record_path_equals_per_window_path(self, drive, tmp_path,
                                                window, target_len):
        record, oracle = run_both(*drive, window, target_len)
        assert len(record[2]) > 0
        assert_record_equals_oracle(record, oracle)
        assert_same_window_files(record[2], oracle[2], tmp_path)


@st.composite
def piece_layouts(draw):
    """A trace, its positioned samples and piece boundaries that drop
    pieces (fewer than 2 samples, or a boundary that steps back), leave
    gaps between windows and may leave no complete window."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(2, 160))
    n_dropped = draw(st.integers(0, 5))
    t = np.cumsum(rng.uniform(0.001, 0.05, n + n_dropped))
    trace = TelemetryTrace(t, rng.normal(0.0, 3.0, n + n_dropped),
                           rng.uniform(0.0, 30.0, n + n_dropped), [], [], [])
    positions = InterpolatedPositions(np.arange(n) + n_dropped, np.zeros(n),
                                      np.zeros(n), n_dropped)
    n_seg = draw(st.integers(1, 30))
    steps = draw(st.lists(st.sampled_from([-4, 0, 1, 2, 3, 5, 8, 13]),
                          min_size=n_seg, max_size=n_seg))
    boundaries = np.clip(draw(st.integers(0, n - 1)) + np.cumsum([0] + steps),
                         0, n - 1)
    point = np.full(n_seg, 55.65), np.full(n_seg, 12.55)
    reference = Reference(*point, *point, np.full(n_seg, 10.0),
                          rng.uniform(0.0, 4.0, n_seg))
    return (reference, positions, trace, draw(st.integers(1, 8)),
            draw(st.integers(3, 30)), boundaries.tolist())


@settings(max_examples=200, deadline=None)
@given(piece_layouts())
def test_record_path_equals_per_window_path_on_any_layout(case):
    record, oracle = run_both(*case)
    assert_record_equals_oracle(record, oracle)
    with tempfile.TemporaryDirectory() as tmp:
        assert_same_window_files(record[2], oracle[2], tmp)


# ----------------------------------------------------------- record checks

def _fields(**changes):
    """The fields of a valid 3-window record, with ``changes`` applied."""
    fields = {"t": np.arange(9.0), "acc_z": np.zeros(9),
              "speed": np.full(9, 13.9), "offsets": [0, 2, 5, 9],
              "window_id": [4, 5, 6], "iri": [0.5, 1.5, 3.0]}
    fields.update(changes)
    return fields


BAD_RECORDS = {
    "offsets_not_at_0": (_fields(offsets=[1, 3, 5, 9]), "starting at 0"),
    "offsets_empty": (_fields(offsets=[]), "starting at 0"),
    "offsets_decrease": (_fields(offsets=[0, 5, 2, 9]), "must not decrease"),
    "window_of_1_sample": (_fields(offsets=[0, 2, 3, 9]),
                           "at least 2 samples"),
    "window_of_0_samples": (_fields(offsets=[0, 5, 5, 9]),
                            "at least 2 samples"),
    "t_length": (_fields(t=np.arange(8.0)), "differ from offsets"),
    "acc_z_length": (_fields(acc_z=np.zeros(10)), "differ from offsets"),
    "speed_length": (_fields(speed=np.zeros(8)), "differ from offsets"),
    "window_id_length": (_fields(window_id=[4, 5]), "window count"),
    "iri_length": (_fields(iri=[0.5, 1.5, 3.0, 1.0]), "window count"),
    "iri_negative": (_fields(iri=[0.5, -0.1, 3.0]), "non-negative"),
    "iri_nan": (_fields(iri=[0.5, np.nan, 3.0]), "finite"),
    "iri_inf": (_fields(iri=[0.5, 1.5, np.inf]), "finite"),
}


class TestWindowsChecks:
    def test_valid_record(self):
        windows = Windows(**_fields())
        assert len(windows) == 3
        assert windows.offsets.dtype == np.int64
        assert windows.window_id.dtype == np.int64

    def test_empty_record(self):
        windows = Windows(*(np.zeros(0),) * 3, [0], [], [])
        assert len(windows) == 0

    @pytest.mark.parametrize("case", sorted(BAD_RECORDS))
    def test_record_rejects(self, case):
        fields, message = BAD_RECORDS[case]
        with pytest.raises(ValueError, match=message):
            Windows(**fields)

    @pytest.mark.parametrize("case", sorted(BAD_RECORDS))
    def test_reader_rejects(self, case, tmp_path):
        fields, message = BAD_RECORDS[case]
        for name, value in fields.items():
            np.save(tmp_path / f"{name}.npy", np.asarray(value))
        io.write_json(tmp_path / "meta.json", {"format": 1, "n_windows": 3})
        with pytest.raises(ValueError, match=message):
            io.read_windows(tmp_path)

    @pytest.mark.parametrize("n_windows", [2, 4])
    def test_reader_rejects_a_count_unlike_meta(self, n_windows, tmp_path):
        io.write_windows(tmp_path, Windows(**_fields()))
        (tmp_path / "meta.json").write_text(
            json.dumps({"format": 1, "n_windows": n_windows}))
        with pytest.raises(ValueError, match=f"3 windows stored, meta.json "
                                             f"says {n_windows}"):
            io.read_windows(tmp_path)

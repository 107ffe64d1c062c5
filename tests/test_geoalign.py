import itertools

import numpy as np
import pytest

from roadroughness.core import GeoPoint, ReferenceSegment, TelemetryTrace
from roadroughness.geo import LocalProjection, Polyline, haversine
from roadroughness.geoalign import (BrokenTraceError, RoadNetwork,
                                    UnmatchedFixError, align_segments,
                                    build_lattice, interpolate_positions,
                                    map_match, match_fixes, sliding_windows,
                                    viterbi_path)

ORIGIN = (55.65, 12.55)
PROJ = LocalProjection(*ORIGIN)


def latlon(x, y):
    lat, lon = PROJ.to_latlon(np.asarray(x, dtype=float),
                              np.asarray(y, dtype=float))
    return float(lat), float(lon)


def grid_network(nx=4, ny=4, spacing=100.0) -> RoadNetwork:
    """A rectangular street grid with nx*ny nodes."""
    nodes = {}
    for j in range(ny):
        for i in range(nx):
            nodes[j * nx + i] = latlon(i * spacing, j * spacing)
    edges = []
    for j in range(ny):
        for i in range(nx):
            nid = j * nx + i
            if i + 1 < nx:
                edges.append((nid, nid + 1, None))
            if j + 1 < ny:
                edges.append((nid, nid + nx, None))
    return RoadNetwork(nodes, edges)


class TestRoadNetwork:
    def test_edge_count(self):
        net = grid_network(4, 4)
        assert net.n_nodes == 16
        assert net.n_edges == 24

    def test_declared_length_validated(self):
        a = latlon(0, 0)
        b = latlon(100, 0)
        with pytest.raises(ValueError):
            RoadNetwork({0: a, 1: b}, [(0, 1, 180.0)])

    def test_candidates_nearest_first(self):
        net = grid_network()
        lat, lon = latlon(50.0, 5.0)
        cands = net.candidates(lat, lon)
        assert cands[0].dist <= cands[-1].dist
        assert cands[0].dist == pytest.approx(5.0, abs=0.1)

    def test_candidates_radius(self):
        net = grid_network()
        lat, lon = latlon(150.0, 700.0)  # 400 m north of the grid
        assert net.candidates(lat, lon, radius=50.0) == []

    def test_route_distance_same_edge(self):
        net = grid_network()
        lat1 = latlon(20.0, 0.0)
        lat2 = latlon(80.0, 0.0)
        c1 = net.candidates(*lat1)[0]
        c2 = net.candidates(*lat2)[0]
        assert c1.edge == c2.edge
        d = net.route_distance(c1, c2, 2000.0)
        assert d == pytest.approx(60.0, abs=0.2)

    def test_route_distance_around_corner(self):
        net = grid_network()
        c1 = net.candidates(*latlon(50.0, 0.0))[0]
        c2 = net.candidates(*latlon(100.0, 50.0))[0]
        d = net.route_distance(c1, c2, 2000.0)
        assert d == pytest.approx(100.0, abs=0.5)

    def test_route_distance_cutoff(self):
        net = grid_network()
        c1 = net.candidates(*latlon(0.0, 0.0))[0]
        c2 = net.candidates(*latlon(300.0, 300.0))[0]
        assert np.isinf(net.route_distance(c1, c2, 50.0))

    def test_save_load_round_trip_byte_identical(self, tmp_path):
        net = grid_network(3, 2)
        p1 = tmp_path / "net1.txt"
        p2 = tmp_path / "net2.txt"
        net.save(p1)
        RoadNetwork.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("vertex,1,2,3\n")
        with pytest.raises(ValueError):
            RoadNetwork.load(p)


def straight_fixes(n, spacing=80.0, offset_y=0.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    xs = np.arange(n) * spacing + 10.0
    ys = np.full(n, offset_y)
    if noise:
        xs = xs + rng.normal(0, noise, n)
        ys = ys + rng.normal(0, noise, n)
    pts = [latlon(x, y) for x, y in zip(xs, ys)]
    return (np.array([p[0] for p in pts]), np.array([p[1] for p in pts]))


class TestMapMatching:
    def test_noiseless_exact_recovery(self):
        net = grid_network(6, 2, spacing=100.0)
        lats, lons = straight_fixes(7, spacing=80.0)
        matched = match_fixes(np.arange(7.0), lats, lons, net)
        # Southern row edges are the first (nx-1) horizontal edges.
        for e, lat, lon in zip(matched.edge, matched.lat, matched.lon):
            snapped = haversine(lat, lon, *latlon(0.0, 0.0))
        # All fixes lie on the southern row: snapped y must be ~0.
        for lat, lon in zip(matched.lat, matched.lon):
            d_row = haversine(lat, lon, *latlon(
                PROJ.to_xy(lat, lon)[0], 0.0))
            assert d_row < 1e-6

    def test_snapped_positions_on_noiseless_fixes(self):
        net = grid_network(6, 2)
        lats, lons = straight_fixes(5)
        matched = match_fixes(np.arange(5.0), lats, lons, net)
        for i in range(5):
            assert haversine(matched.lat[i], matched.lon[i],
                             lats[i], lons[i]) < 1e-6

    def test_viterbi_equals_exhaustive_enumeration(self):
        net = grid_network(4, 4)
        rng = np.random.default_rng(12)
        for trial in range(8):
            n = int(rng.integers(3, 7))
            xs = np.cumsum(rng.uniform(30, 90, n)) % 280
            ys = rng.uniform(-5, 290, n)
            lats, lons = zip(*[latlon(x, y) for x, y in zip(xs, ys)])
            steps, emissions, transitions = build_lattice(
                np.array(lats), np.array(lons), net)
            path, score = viterbi_path(emissions, transitions)
            best = -np.inf
            for combo in itertools.product(*(range(len(s)) for s in steps)):
                s = emissions[0][combo[0]]
                for i in range(len(combo) - 1):
                    s += transitions[i][combo[i], combo[i + 1]]
                    s += emissions[i + 1][combo[i + 1]]
                best = max(best, s)
            assert score == pytest.approx(best, abs=1e-9)

    def test_unmatched_fix_error(self):
        net = grid_network()
        lats = np.array([latlon(0, 0)[0], latlon(0, 5000)[0]])
        lons = np.array([latlon(0, 0)[1], latlon(0, 5000)[1]])
        with pytest.raises(UnmatchedFixError) as exc:
            match_fixes([0.0, 1.0], lats, lons, net)
        assert exc.value.fix_index == 1

    def test_fix_off_the_grid_is_dropped_and_counted(self):
        net = grid_network(6, 2, spacing=100.0)
        lats, lons = straight_fixes(7, spacing=80.0)
        lats[3], lons[3] = latlon(10.0 + 3 * 80.0, -100.0)  # 100 m south
        matched = match_fixes(np.arange(7.0), lats, lons, net)
        assert matched.n_unmatched == 1
        assert list(matched.t) == [0.0, 1.0, 2.0, 4.0, 5.0, 6.0]
        keep = [0, 1, 2, 4, 5, 6]
        alone = match_fixes(np.arange(7.0)[keep], lats[keep], lons[keep],
                            net)
        assert alone.n_unmatched == 0
        assert np.array_equal(matched.edge, alone.edge)
        assert np.array_equal(matched.lat, alone.lat)
        assert np.array_equal(matched.lon, alone.lon)
        assert list(matched.fix_lat) == list(lats[keep])

    def test_map_match_uses_trace_fixes(self):
        net = grid_network(6, 2)
        lats, lons = straight_fixes(3)
        trace = TelemetryTrace(np.arange(0.0, 3.0, 0.5),
                               np.zeros(6), np.full(6, 10.0),
                               [0, 2, 4], lats, lons)
        matched = map_match(trace, net)
        assert len(matched) == 3
        assert list(matched.t) == [0.0, 1.0, 2.0]

    def test_noisy_recovery_rate(self):
        """Edge recovery under 3 m GPS noise on a straight run."""
        net = grid_network(8, 2, spacing=100.0)
        recovered = total = 0
        for seed in range(5):
            lats, lons = straight_fixes(9, spacing=80.0, noise=3.0,
                                        seed=seed)
            matched = match_fixes(np.arange(9.0), lats, lons, net)
            clean_lats, clean_lons = straight_fixes(9, spacing=80.0)
            truth = match_fixes(np.arange(9.0), clean_lats, clean_lons, net)
            recovered += int(np.sum(matched.edge == truth.edge))
            total += 9
        assert recovered / total >= 0.9


def _line_reference(n_segs, seg_len=10.0):
    segs = []
    for i in range(n_segs):
        segs.append(ReferenceSegment(
            GeoPoint(*latlon(i * seg_len, 0.0)),
            GeoPoint(*latlon((i + 1) * seg_len, 0.0)),
            seg_len, 1.0 + i))
    return segs


def _line_trace_and_match(n, dt=0.1, speed=10.0):
    """Samples along the x axis with fixes every second."""
    t = np.arange(n) * dt
    xs = t * speed
    fix_every = int(round(1.0 / dt))
    gps_idx = np.arange(0, n, fix_every)
    pts = [latlon(xs[i], 0.0) for i in gps_idx]
    trace = TelemetryTrace(t, np.sin(t), np.full(n, speed), gps_idx,
                           [p[0] for p in pts], [p[1] for p in pts])
    from roadroughness.geoalign.match import MatchedTrace
    matched = MatchedTrace(t[gps_idx], trace.gps_lat, trace.gps_lon,
                           np.zeros(len(gps_idx), dtype=int),
                           xs[gps_idx], trace.gps_lat, trace.gps_lon, 0.0)
    return trace, matched


class TestAlignment:
    def test_interpolation_matches_constant_speed(self):
        trace, matched = _line_trace_and_match(51)
        pos = interpolate_positions(trace, matched)
        assert pos.n_dropped == 0
        # Sample 15 is at t=1.5 s -> x=15 m.
        lat, lon = latlon(15.0, 0.0)
        assert haversine(pos.lat[15], pos.lon[15], lat, lon) < 0.01

    def test_samples_outside_fixes_dropped(self):
        trace, matched = _line_trace_and_match(55)  # last fix at t=5.0
        with pytest.warns(UserWarning):
            pos = interpolate_positions(trace, matched)
        assert pos.n_dropped == 4

    def test_align_assigns_samples_to_pieces(self):
        trace, matched = _line_trace_and_match(51)
        pos = interpolate_positions(trace, matched)
        reference = _line_reference(5)
        pieces, dropped = align_segments(reference, pos, trace)
        assert dropped == 0
        assert [p.seg_index for p in pieces] == [0, 1, 2, 3, 4]
        # 10 m at 10 m/s and 10 Hz -> 10 samples per piece.
        assert {p.n_points for p in pieces[:-1]} == {10}
        assert pieces[2].iri == 3.0

    def test_windows_concatenate_and_average(self):
        trace, matched = _line_trace_and_match(51)
        pos = interpolate_positions(trace, matched)
        pieces, _ = align_segments(_line_reference(5), pos, trace)
        windows = sliding_windows(pieces, window=3)
        assert len(windows) == 3
        assert windows[0].window_id == 0
        assert windows[0].iri == pytest.approx(np.mean([1.0, 2.0, 3.0]))
        assert windows[0].n_points == sum(p.n_points for p in pieces[:3])

    def test_windows_skip_gaps(self):
        trace, matched = _line_trace_and_match(51)
        pos = interpolate_positions(trace, matched)
        pieces, _ = align_segments(_line_reference(5), pos, trace)
        del pieces[2]
        windows = sliding_windows(pieces, window=2)
        ids = [w.window_id for w in windows]
        assert ids == [0, 3]

    def test_no_windows_warns(self):
        trace, matched = _line_trace_and_match(51)
        pos = interpolate_positions(trace, matched)
        pieces, _ = align_segments(_line_reference(5), pos, trace)
        with pytest.warns(UserWarning):
            assert sliding_windows(pieces, window=10) == []

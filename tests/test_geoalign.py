import hashlib
import heapq
import itertools
import math
import re
import tempfile
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadroughness.core import Reference, TelemetryTrace
from roadroughness.geo import (LocalProjection, Polyline, haversine,
                               haversine_pointwise)
from roadroughness.geoalign import (BrokenTraceError, InterpolatedPositions,
                                    MatchedTrace, Pieces,
                                    RoadNetwork,
                                    UnmatchedFixError, align_segments,
                                    build_lattice, interpolate_positions,
                                    match_fixes, sliding_windows,
                                    viterbi_path)
from roadroughness.geoalign.align import piece_boundaries
from roadroughness.geoalign.match import DEFAULT_BETA, DEFAULT_SIGMA
from roadroughness.geoalign.network import SAVE_BLOCK_ROWS
from roadroughness.simkit import generate_route
from roadroughness.topk import smallest_k

ORIGIN = (55.65, 12.55)
PROJ = LocalProjection(*ORIGIN)


def latlon(x, y):
    lat, lon = PROJ.to_latlon(np.asarray(x, dtype=float),
                              np.asarray(y, dtype=float))
    return float(lat), float(lon)


def n_edges(net: RoadNetwork) -> int:
    return len(net.edge_a)


def dict_network(nodes: dict, edges: list) -> RoadNetwork:
    """The network of ``nodes``, a dict of integer ids to (lat, lon), and
    ``edges``, (a, b, length_m) records, where a length of None (or a
    missing one) stands for the great-circle distance between the two
    nodes, measured with ``haversine_pointwise`` as the scalar
    ``haversine`` measures it."""
    ids = sorted(nodes)
    unknown = [len(rec) < 3 or rec[2] is None for rec in edges]
    length = np.array([np.nan if u else rec[2]
                       for u, rec in zip(unknown, edges)], dtype=float)
    # An edge to an unknown node keeps NaN: the constructor names the node.
    measured = [k for k, rec in enumerate(edges) if unknown[k]
                and rec[0] in nodes and rec[1] in nodes]
    if measured:
        a = np.array([nodes[edges[k][0]] for k in measured], dtype=float)
        b = np.array([nodes[edges[k][1]] for k in measured], dtype=float)
        with np.errstate(invalid="ignore"):
            length[measured] = haversine_pointwise(a[:, 0], a[:, 1], b[:, 0],
                                                   b[:, 1])
    return RoadNetwork(ids, [nodes[i][0] for i in ids],
                       [nodes[i][1] for i in ids], [rec[0] for rec in edges],
                       [rec[1] for rec in edges], length)


def fixes(*points):
    """The lat and lon arrays of (lat, lon) points."""
    return tuple(np.array(v, dtype=float) for v in zip(*points))


def fix_rows(cands, i) -> list:
    """The rows of fix i of a Candidates record, as (edge, offset, dist,
    lat, lon) tuples of Python values."""
    rows = slice(int(cands.start[i]), int(cands.start[i + 1]))
    return list(zip(cands.edge[rows].tolist(), cands.offset[rows].tolist(),
                    cands.dist[rows].tolist(), cands.lat[rows].tolist(),
                    cands.lon[rows].tolist()))


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
    return dict_network(nodes, edges)


class TestRoadNetwork:
    def test_edge_count(self):
        net = grid_network(4, 4)
        assert net.n_nodes == 16
        assert n_edges(net) == 24

    def test_declared_length_validated(self):
        a = latlon(0, 0)
        b = latlon(100, 0)
        with pytest.raises(ValueError):
            dict_network({0: a, 1: b}, [(0, 1, 180.0)])

    def test_candidates_nearest_first(self):
        net = grid_network()
        lat, lon = latlon(50.0, 5.0)
        cands = net.candidates(lat, lon)
        assert cands.start.tolist() == [0, len(cands)]
        assert cands.dist[0] <= cands.dist[-1]
        assert cands.dist[0] == pytest.approx(5.0, abs=0.1)

    def test_candidates_radius(self):
        net = grid_network()
        lat, lon = latlon(150.0, 700.0)  # 400 m north of the grid
        cands = net.candidates(lat, lon, radius=50.0)
        assert len(cands) == 0 and cands.start.tolist() == [0, 0]

    @staticmethod
    def _first_candidates(net, p1, p2):
        """A record of two fixes and the rows of their nearest candidates."""
        cands = net.candidates(*fixes(p1, p2))
        return cands, int(cands.start[0]), int(cands.start[1])

    def test_route_distance_same_edge(self):
        net = grid_network()
        cands, i, j = self._first_candidates(net, latlon(20.0, 0.0),
                                             latlon(80.0, 0.0))
        assert cands.edge[i] == cands.edge[j]
        d = net.route_distance(cands, i, j, 2000.0)
        assert d == pytest.approx(60.0, abs=0.2)

    def test_route_distance_around_corner(self):
        net = grid_network()
        cands, i, j = self._first_candidates(net, latlon(50.0, 0.0),
                                             latlon(100.0, 50.0))
        d = net.route_distance(cands, i, j, 2000.0)
        assert d == pytest.approx(100.0, abs=0.5)

    def test_route_distance_cutoff(self):
        net = grid_network()
        cands, i, j = self._first_candidates(net, latlon(0.0, 0.0),
                                             latlon(300.0, 300.0))
        assert np.isinf(net.route_distance(cands, i, j, 50.0))

    def test_save_load_round_trip_byte_identical(self, tmp_path):
        net = grid_network(3, 2)
        p1 = tmp_path / "net1.txt"
        p2 = tmp_path / "net2.txt"
        net.save(p1)
        RoadNetwork.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_equals_per_line_writer(self, tmp_path):
        """Lines formatted and written a block at a time, across block
        edges, against one f-string per line; save returns the digest."""
        net = grid_network(33, 33)
        net.node_lat[:3] = [-0.0, 5e-324, 1e-5]
        ids = net.node_ids.tolist()
        want = "".join(
            [f"node,{nid},{lat!r},{lon!r}\n" for nid, lat, lon in zip(
                ids, net.node_lat.tolist(), net.node_lon.tolist())]
            + [f"edge,{ids[a]},{ids[b]},{length!r}\n" for a, b, length in
               zip(net.edge_a.tolist(), net.edge_b.tolist(),
                   net.edge_len.tolist())]).encode("utf-8")
        assert len(ids) > SAVE_BLOCK_ROWS and len(net.edge_a) > 2 * (
            SAVE_BLOCK_ROWS)
        digest = net.save(tmp_path / "net.txt")
        assert (tmp_path / "net.txt").read_bytes() == want
        assert digest == hashlib.blake2b(want).digest()

    def test_load_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("vertex,1,2,3\n")
        with pytest.raises(ValueError):
            RoadNetwork.load(p)

    def test_edge_to_unknown_node_is_named(self):
        with pytest.raises(ValueError, match=r"edge \(0,3\) names unknown node 3"):
            dict_network({0: latlon(0, 0), 1: latlon(100, 0)},
                         [(0, 1, None), (0, 3, None)])

    @pytest.mark.parametrize("bad", [(np.nan, 12.5), (55.6, np.nan),
                                     (np.inf, 12.5), (95.0, 12.5),
                                     (55.6, -181.0)])
    def test_node_with_invalid_coordinates_is_named(self, bad):
        with pytest.raises(ValueError, match="node 7 has invalid coordinates"):
            dict_network({0: latlon(0, 0), 7: bad}, [(0, 7, None)])

    @pytest.mark.parametrize("length", [np.nan, np.inf, 0.0, -100.0])
    def test_edge_with_invalid_length_is_named(self, length):
        with pytest.raises(ValueError, match=r"edge \(0,1\)"):
            dict_network({0: latlon(0, 0), 1: latlon(100, 0)},
                         [(0, 1, length)])


_NASTY_FIELDS = ["nan", "inf", "-inf", "1e400", "", "x", "-1", "0", "5",
                 "99", "3.5", "1e-300", " ", "-91", "200", "12.55", "55.65",
                 "+5", " 5 ", "5.0", "1_0", "\u0661", "\xa05", "1\x1c",
                 "1\uc6ca", "1\U0002c6ca", "99999999999999999999", "1e2"]


@st.composite
def mangled_network_files(draw):
    """The text of a valid 3 x 2 grid network with a few lines replaced,
    dropped, duplicated, cut short or extended."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.txt"
        grid_network(3, 2).save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["field", "drop", "dup", "cut", "extend",
                                       "text"]))
        parts = lines[i].split(",")
        if action == "field" and len(parts) > 1:
            j = draw(st.integers(1, len(parts) - 1))
            parts[j] = draw(st.one_of(st.sampled_from(_NASTY_FIELDS),
                                      st.text(max_size=4)))
            lines[i] = ",".join(parts)
        elif action == "drop":
            del lines[i]
        elif action == "dup":
            lines.insert(i, lines[i])
        elif action == "cut":
            lines[i] = ",".join(parts[:draw(st.integers(0, len(parts) - 1))])
        elif action == "extend":
            lines[i] += "," + draw(st.sampled_from(_NASTY_FIELDS))
        else:
            lines[i] = draw(st.text(max_size=12))
        if not lines:
            break
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(mangled_network_files())
def test_load_raises_only_value_error_on_malformed_files(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.txt"
        path.write_text(text, encoding="utf-8")
        try:
            net = RoadNetwork.load(path)
        except ValueError:
            return
    assert np.all(np.isfinite(net.node_x)) and np.all(np.isfinite(net.node_y))
    assert np.all(np.isfinite(net.edge_len)) and np.all(net.edge_len > 0)


def line_by_line_load(path) -> RoadNetwork:
    """Each line split and parsed with ``int`` and ``float``, a repeated
    node id replacing the earlier one: the oracle for the array loader."""
    nodes: dict = {}
    edges: list = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if parts[0] == "node" and len(parts) == 4:
                nodes[int(parts[1])] = (float(parts[2]), float(parts[3]))
            elif parts[0] == "edge" and len(parts) == 4:
                edges.append((int(parts[1]), int(parts[2]), float(parts[3])))
            else:
                raise ValueError(f"{path}:{lineno}: unrecognized record "
                                 f"{line!r}")
    return dict_network(nodes, edges)


def _network_bits(net):
    return (net.node_ids.tolist(), [v.hex() for v in net.node_lat.tolist()],
            [v.hex() for v in net.node_lon.tolist()],
            net.node_ids[net.edge_a].tolist(),
            net.node_ids[net.edge_b].tolist(),
            [v.hex() for v in net.edge_len.tolist()])


def _deliberately_rejected(path) -> bool:
    """Whether a file that the line-by-line loader reads holds what the
    array loader rejects on purpose: a node id given twice, or a number
    numpy does not read (digit-group underscores, a character other than
    printable ASCII or tab). An id beyond int64 fails in both loaders, in
    the constructor they share."""
    ids = set()
    with open(path, encoding="utf-8") as f:
        for line in f:
            parts = line.strip().split(",")
            if parts[0] not in ("node", "edge") or len(parts) != 4:
                continue
            if parts[0] == "node":
                if int(parts[1]) in ids:
                    return True
                ids.add(int(parts[1]))
            if any("_" in p or re.search(r"[^\t -~]", p) for p in parts):
                return True
    return False


class TestLoad:
    def test_city_grid_equals_line_by_line_load(self, tmp_path):
        path = tmp_path / "net.txt"
        grid_network(60, 60).save(path)
        assert (_network_bits(RoadNetwork.load(path))
                == _network_bits(line_by_line_load(path)))

    @pytest.mark.parametrize("seed", range(6))
    def test_irregular_files_equal_line_by_line_load(self, tmp_path, seed):
        """Records shuffled, nodes among the edges, with comments, blank and
        padded lines, CR LF ends, and numbers written in other forms."""
        rng = np.random.default_rng(seed)
        net, _ = irregular_grid(rng, 5, 4, drop=0.3)
        path = tmp_path / "net.txt"
        net.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines = [lines[i] for i in rng.permutation(len(lines))]
        forms = [lambda v: v, lambda v: f"  {v}\t", lambda v: f"+{v}"
                 if not v.startswith("-") else v, lambda v: f"{float(v):.17e}"
                 if "." in v else v]
        out = []
        for line in lines:
            kind, *fields = line.split(",")
            fields = [forms[int(rng.integers(len(forms)))](v) for v in fields]
            pick = rng.random()
            if pick < 0.2:
                out.append("# " + line)
            elif pick < 0.3:
                out.append("   ")
            out.append(("\t " if rng.random() < 0.2 else "")
                       + ",".join([kind, *fields]))
        path.write_bytes(("\r\n".join(out) + "\n").encode("utf-8"))
        got = RoadNetwork.load(path)
        assert _network_bits(got) == _network_bits(line_by_line_load(path))
        assert n_edges(got) == n_edges(net)

    def test_repeated_node_id_names_both_lines(self, tmp_path):
        path = tmp_path / "net.txt"
        grid_network(3, 2).save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        for text, first, second in [
                (lines + [lines[4]], 5, 14), ([lines[2], "#"] + lines, 1, 5),
                (lines[:6] + [lines[1]] * 2 + [lines[0]] + lines[6:], 2, 7)]:
            path.write_text("\n".join(text) + "\n", encoding="utf-8")
            with pytest.raises(ValueError, match=rf"net.txt: node \d+ is "
                               rf"defined twice, at lines {first} and "
                               rf"{second}$"):
                RoadNetwork.load(path)

    @pytest.mark.parametrize("field", ["1_0", "\u0661", "1\uc6ca",
                                       "1\U0002c6ca", "1\x1c", "5.0", "x",
                                       "99999999999999999999"])
    def test_unreadable_id_names_its_line(self, tmp_path, field):
        path = tmp_path / "net.txt"
        grid_network(3, 2).save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = f"node,{field},55.65,12.55"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="net.txt:4: bad number"):
            RoadNetwork.load(path)

    def test_record_with_four_fields_is_unrecognized(self, tmp_path):
        path = tmp_path / "net.txt"
        grid_network(3, 2).save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[7] += ",1"
        lines[8] = lines[8][:lines[8].rindex(",")]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="net.txt:8: unrecognized"):
            RoadNetwork.load(path)

    def test_adjacency_keeps_edge_order(self):
        """Each node's run of neighbours and lengths in edge order, an
        edge's first node before its second, with duplicate and reversed
        edges."""
        rng = np.random.default_rng(8)
        net, _ = irregular_grid(rng, 5, 5, drop=0.2)
        nodes = {int(i): (float(a), float(b)) for i, a, b in zip(
            net.node_ids, net.node_lat, net.node_lon)}
        ends = list(zip(net.node_ids[net.edge_a].tolist(),
                        net.node_ids[net.edge_b].tolist()))
        ends += [ends[i][::-1] if i % 2 else ends[i] for i in
                 rng.integers(len(ends), size=15).tolist()]
        net = dict_network(nodes, [(a, b, None) for a, b in ends])
        want = [[] for _ in range(net.n_nodes)]
        for a, b, length in zip(net.edge_a.tolist(), net.edge_b.tolist(),
                                net.edge_len.tolist()):
            want[a].append((b, length))
            want[b].append((a, length))
        start = net.adj_start
        assert len(start) == net.n_nodes + 1 and start[-1] == 2 * n_edges(net)
        got = [list(zip(net.adj_node[lo:hi], net.adj_len[lo:hi]))
               for lo, hi in zip(start[:-1], start[1:])]
        assert got == want

    def test_measured_lengths_equal_scalar_haversine(self):
        rng = np.random.default_rng(9)
        for lat0 in (0.0, 55.65, 70.0, -62.0):
            lats = lat0 + np.cumsum(rng.uniform(-1e-3, 1e-3, 3000))
            lons = 12.55 + np.cumsum(rng.uniform(-1e-3, 1e-3, 3000))
            want = [float(haversine(lats[i], lons[i], lats[i + 1],
                                    lons[i + 1])).hex() for i in range(2999)]
            line = RoadNetwork.from_polyline(Polyline(lats, lons))
            nodes = {i: (float(a), float(b))
                     for i, (a, b) in enumerate(zip(lats, lons))}
            edges = [(i, i + 1) if i % 2 else (i, i + 1, None)
                     for i in range(2999)]
            for net in (line, dict_network(nodes, edges)):
                assert [v.hex() for v in net.edge_len.tolist()] == want


@settings(max_examples=300, deadline=None)
@given(mangled_network_files())
def test_load_equals_line_by_line_load_on_malformed_files(text):
    """Equal networks, or a ValueError from both loaders, except where the
    array loader rejects a file on purpose."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.txt"
        path.write_text(text, encoding="utf-8")
        try:
            want = _network_bits(line_by_line_load(path))
        except ValueError:
            want = None
        try:
            got = _network_bits(RoadNetwork.load(path))
        except ValueError:
            assert want is None or _deliberately_rejected(path)
            return
        assert got == want


def irregular_grid(rng, nx, ny, drop=0.0):
    """A grid with junctions moved up to 20 m and a share ``drop`` of its
    streets removed, plus one street that no grid node reaches (nodes
    10**6 and 10**6 + 1). Returns the network and the junctions' x/y."""
    xy = {j * nx + i: (i * 100.0 + rng.uniform(-20, 20),
                       j * 100.0 + rng.uniform(-20, 20))
          for j in range(ny) for i in range(nx)}
    xy[10 ** 6] = (nx * 100.0 + 5000.0, 0.0)
    xy[10 ** 6 + 1] = (nx * 100.0 + 5100.0, 0.0)
    edges = [(10 ** 6, 10 ** 6 + 1, None)]
    for j in range(ny):
        for i in range(nx):
            nid = j * nx + i
            if i + 1 < nx and rng.random() >= drop:
                edges.append((nid, nid + 1, None))
            if j + 1 < ny and rng.random() >= drop:
                edges.append((nid, nid + nx, None))
    nodes = {nid: latlon(*p) for nid, p in xy.items()}
    return dict_network(nodes, edges), xy


def full_search(network, source, cutoff):
    """The unbounded search, the oracle for a target-bounded one."""
    return network.shortest_node_dists(source, cutoff)


def per_pair_transitions(network, cands, steps, lats, lons, beta=20.0):
    """Transition matrices pair by pair: the great-circle step by scalar
    haversine, each route the shortest of the four ways between the two
    edges' ends by full searches. ``steps`` holds each step's rows of the
    Candidates record ``cands``. The oracle for build_lattice."""
    searches = {}
    mats = []
    for i in range(len(steps) - 1):
        d_gc = float(haversine(lats[i], lons[i], lats[i + 1], lons[i + 1]))
        cutoff = max(10.0 * (d_gc + 1.0), 2000.0)
        mat = np.full((len(steps[i]), len(steps[i + 1])), -np.inf)
        for a, r1 in enumerate(steps[i]):
            for b, r2 in enumerate(steps[i + 1]):
                best = abs(cands.offset[r2] - cands.offset[r1])
                if cands.edge[r1] != cands.edge[r2]:
                    best = np.inf
                    for n1, d1 in network_ends(network, cands, r1):
                        if (n1, cutoff) not in searches:
                            searches[n1, cutoff] = full_search(network, n1,
                                                               cutoff)
                        for n2, d2 in network_ends(network, cands, r2):
                            sp = searches[n1, cutoff].get(n2)
                            if sp is not None:
                                best = min(best, d1 + sp + d2)
                if np.isfinite(best):
                    mat[a, b] = -abs(best - d_gc) / beta
        mats.append(mat)
    return mats


def network_ends(network, cands, r):
    e, offset = int(cands.edge[r]), float(cands.offset[r])
    return ((int(network.edge_a[e]), offset),
            (int(network.edge_b[e]), float(network.edge_len[e]) - offset))


def per_fix_candidates(network, lat, lon, max_candidates=8, radius=50.0):
    """One fix projected onto every edge, then scalar conversions for the k
    nearest, as (edge, offset, dist, lat, lon) tuples: the oracle for the
    cell-indexed search over a whole trace. A fix outside the range of
    coordinates has none; the projection could give it a candidate through
    longitude wrapping, or one whose fields are NaN."""
    if not (abs(lat) <= 90.0 and abs(lon) <= 180.0):
        return []
    px, py = network.proj.to_xy(lat, lon)
    t = np.clip(((px - network._ax) * network._dx
                 + (py - network._ay) * network._dy) / network._seg2,
                0.0, 1.0)
    sx = network._ax + t * network._dx
    sy = network._ay + t * network._dy
    d2 = (px - sx) ** 2 + (py - sy) ** 2
    order = smallest_k(d2, max_candidates)
    out = []
    for ei in order:
        slat, slon = network.proj.to_latlon(sx[ei], sy[ei])
        gc = float(haversine(lat, lon, slat, slon))
        if gc > radius:
            continue
        out.append((int(ei), float(t[ei] * network.edge_len[ei]), gc,
                    float(slat), float(slon)))
    return out


def _bits(rows):
    return [(e, offset.hex(), dist.hex(), lat.hex(), lon.hex())
            for e, offset, dist, lat, lon in rows]


def assert_candidates_equal_oracle(net, lats, lons, max_candidates=8,
                                   radius=50.0, scalar_calls=0):
    """The whole-trace record equals the per-fix oracle fix for fix, every
    field to the bit; so does the one-fix call on the first fixes."""
    lats, lons = np.asarray(lats, dtype=float), np.asarray(lons, dtype=float)
    got = net.candidates(lats, lons, max_candidates, radius)
    assert len(got.start) == len(lats) + 1 and got.start[0] == 0
    assert got.start[-1] == len(got) and np.all(np.diff(got.start) >= 0)
    for i, (lat, lon) in enumerate(zip(lats.tolist(), lons.tolist())):
        want = _bits(per_fix_candidates(net, lat, lon, max_candidates,
                                        radius))
        assert _bits(fix_rows(got, i)) == want, (i, lat, lon)
        if i < scalar_calls:
            one = net.candidates(lat, lon, max_candidates, radius)
            assert _bits(fix_rows(one, 0)) == want
            assert len(one.start) == 2


def city_drive(rng, nodes, spacing, n_fixes, sigma=3.0):
    """GPS fixes at 1 Hz and 13.9 m/s of a car that turns at random at the
    junctions of a square ``grid_network``, with GPS noise."""
    col, row = (int(v) for v in rng.integers(nodes // 4, nodes - nodes // 4,
                                             2))
    path = [(col, row)]
    while len(path) < 13.9 * n_fixes / spacing + 2:
        steps = [(dc, dr) for dc, dr in ((1, 0), (0, 1), (-1, 0), (0, -1))
                 if 0 <= col + dc < nodes and 0 <= row + dr < nodes]
        dc, dr = steps[int(rng.integers(len(steps)))]
        col, row = col + dc, row + dr
        path.append((col, row))
    cum = np.arange(len(path)) * spacing
    s = np.arange(n_fixes) * 13.9
    xs = np.interp(s, cum, [c * spacing for c, _ in path])
    ys = np.interp(s, cum, [r * spacing for _, r in path])
    xs = xs + rng.normal(0.0, sigma / np.sqrt(2.0), n_fixes)
    ys = ys + rng.normal(0.0, sigma / np.sqrt(2.0), n_fixes)
    return PROJ.to_latlon(xs, ys)


class TestCandidateSearch:
    def test_city_drives_equal_per_fix_search(self):
        net = grid_network(60, 60)
        rng = np.random.default_rng(1)
        for _ in range(4):
            lats, lons = city_drive(rng, 60, 100.0, 50)
            assert_candidates_equal_oracle(net, lats, lons, scalar_calls=5)

    def test_random_fixes_in_and_around_the_city_equal_per_fix_search(self):
        net = grid_network(60, 60)
        rng = np.random.default_rng(2)
        xs, ys = rng.uniform(-300.0, 6200.0, (2, 2000))
        lats, lons = PROJ.to_latlon(xs, ys)
        assert_candidates_equal_oracle(net, lats, lons, scalar_calls=20)

    def test_one_call_per_trace(self, monkeypatch):
        net = grid_network(12, 12)
        lats, lons = city_drive(np.random.default_rng(3), 12, 100.0, 30)
        calls = []
        search = RoadNetwork.candidates
        monkeypatch.setattr(RoadNetwork, "candidates",
                            lambda self, *a: calls.append(a) or search(self,
                                                                       *a))
        build_lattice(lats, lons, net)
        assert len(calls) == 1

    def test_fix_just_inside_the_padded_radius(self):
        """A street from 70 to 71 degrees north. East of its north end the
        planar frame, scaled at 70.5 degrees, overstates distances by 2.5 %,
        so a fix 51 m east on the plane is 49.7 m away on the sphere and
        must be found, though it lies beyond the radius on the plane."""
        net = dict_network({0: (70.0, 20.0), 1: (71.0, 20.0)},
                           [(0, 1, None)])
        px, py = net.proj.to_xy(70.999, 20.0)
        lats, lons = net.proj.to_latlon(px + np.array([49.0, 50.5, 51.0,
                                                       51.5, 52.0]),
                                        np.full(5, py))
        got = net.candidates(lats, lons)
        assert np.diff(got.start).tolist() == [1, 1, 1, 0, 0]
        assert_candidates_equal_oracle(net, lats, lons)

    def test_fixes_along_long_diagonal_edges(self):
        """Edges 1.5 km long at many angles, steep and shallow, each crossing
        dozens of cells. Fixes every 3 m along each, 30 to 50 m to either
        side, reach each cell the edge crosses from the rim of their search
        square, where it is the only cell of the edge they gather."""
        angles = np.radians([0.0, 0.3, 17.0, 45.0, 71.0, 89.9, 90.0, 133.0])
        nodes, edges = {}, []
        for i, a in enumerate(angles):
            nodes[2 * i] = latlon(0.0, 0.0)
            nodes[2 * i + 1] = latlon(1500.0 * np.cos(a), 1500.0 * np.sin(a))
            edges.append((2 * i, 2 * i + 1, None))
        net = dict_network(nodes, edges)
        rng = np.random.default_rng(4)
        s = np.arange(0.0, 1500.0, 3.0)
        side = (rng.uniform(30.0, 50.0, (len(angles), len(s)))
                * rng.choice([-1.0, 1.0], (len(angles), len(s))))
        xs = np.cos(angles)[:, None] * s - np.sin(angles)[:, None] * side
        ys = np.sin(angles)[:, None] * s + np.cos(angles)[:, None] * side
        lats, lons = PROJ.to_latlon(xs.ravel(), ys.ravel())
        assert_candidates_equal_oracle(net, lats, lons, 3)

    @pytest.mark.parametrize("radius", [50.0, 3.0])
    def test_each_edge_is_in_every_cell_its_segment_crosses(self, radius):
        """Points every 1/4000 of each edge fall in cells that hold the
        edge, and an edge takes O(length / cell) cells, not its bounding
        box's."""
        rng = np.random.default_rng(6)
        nodes = {i: latlon(*rng.uniform(-50.0, 750.0, 2)) for i in range(16)}
        nodes.update({100 + 8 * j + i: latlon(100.0 * i, 100.0 * j)
                      for j in range(8) for i in range(8)})
        edges = [(2 * i, 2 * i + 1, None) for i in range(8)]
        edges += [(100 + n, 101 + n, None) for n in range(64) if n % 8 < 7]
        edges += [(100 + n, 108 + n, None) for n in range(56)]
        net = dict_network(nodes, edges)
        cells = net._cell_index(net._padded_radius(radius))
        assert cells.side < 60.0
        held = set(zip(cells.edges.tolist(), np.repeat(
            cells.keys, np.diff(cells.start)).tolist()))
        t = np.linspace(0.0, 1.0, 4001)
        for e in range(n_edges(net)):
            xs = net._ax[e] + t * net._dx[e]
            ys = net._ay[e] + t * net._dy[e]
            keys = (cells._cell(xs, cells.x0) * cells.n_rows
                    + cells._cell(ys, cells.y0))
            assert all((e, k) in held for k in set(keys.tolist()))
        per_edge = np.bincount(cells.edges, minlength=n_edges(net))
        crossed = (np.abs(net._dx) + np.abs(net._dy)) / cells.side
        assert np.all(per_edge <= 2 * crossed + 6)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_tied_edges_keep_index_order(self, k):
        net = dict_network({0: latlon(0, 0), 1: latlon(100, 0),
                            2: latlon(100, 40)},
                           [(0, 1, None), (1, 2, None), (0, 1, None),
                            (0, 1, None)])
        lats, lons = PROJ.to_latlon(np.array([30.0, 50.0, 70.0]),
                                    np.array([4.0, -3.0, 8.0]))
        got = net.candidates(lats, lons, max_candidates=k)
        assert [row[0] for row in fix_rows(got, 0)] == [0, 2, 3][:k]
        assert_candidates_equal_oracle(net, lats, lons, k)

    @pytest.mark.parametrize("fix", [(np.nan, 12.55), (55.65, np.nan),
                                     (np.inf, 12.55), (1e300, 12.55),
                                     (-1e300, -1e300), (95.0, 12.55),
                                     (55.65, 400.0), (55.65, 372.55),
                                     (-90.5, 12.55)])
    def test_fix_without_a_valid_position_has_no_candidate(self, fix):
        net = grid_network()
        assert net.candidates(*fix).start.tolist() == [0, 0]
        got = net.candidates(*fixes(latlon(50, 5), fix))
        assert got.start[1] > 0 and got.start[2] == got.start[1]

    @pytest.mark.parametrize("radius", [np.nan, np.inf, -1.0])
    def test_bad_radius_is_rejected(self, radius):
        with pytest.raises(ValueError, match="radius"):
            grid_network().candidates(*latlon(50, 5), radius=radius)

    def test_zero_radius_and_zero_candidates(self):
        net = grid_network()
        lats, lons = fixes(latlon(50, 0), latlon(50, 5))
        assert_candidates_equal_oracle(net, lats, lons, 8, 0.0)
        assert net.candidates(lats, lons, 0).start.tolist() == [0, 0, 0]

    def test_empty_trace(self):
        got = grid_network().candidates(np.array([]), np.array([]))
        assert len(got) == 0 and got.start.tolist() == [0]


@st.composite
def irregular_networks(draw):
    """Random nodes over a box at one of several latitudes, up to 1 degree
    across; random edges, among them diagonals across the whole box,
    duplicates and reversed copies. Fixes: anywhere in and around the box,
    near the edges, within 1 m of the padded radius of an edge, and some
    without a valid position. Returns (network, lats, lons, k, radius)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lat0 = draw(st.sampled_from([0.0, 55.65, 70.0, -62.0]))
    span = draw(st.sampled_from([0.005, 0.05, 1.0]))
    n_nodes = draw(st.integers(2, 12))
    lat = lat0 + rng.uniform(0.0, span, n_nodes)
    lon = 12.55 + rng.uniform(0.0, span, n_nodes)
    nodes = {i: (float(lat[i]), float(lon[i])) for i in range(n_nodes)}
    corners = (int(np.argmin(lat + lon)), int(np.argmax(lat + lon)))
    edges = [corners, (int(np.argmin(lat - lon)), int(np.argmax(lat - lon)))]
    for _ in range(draw(st.integers(0, 15))):
        a, b = rng.choice(n_nodes, 2, replace=False)
        edges.append((int(a), int(b)))
    for _ in range(draw(st.integers(0, 3))):   # duplicates, reversed copies
        a, b = edges[int(rng.integers(len(edges)))]
        edges.append((a, b) if rng.random() < 0.5 else (b, a))
    edges = [e for e in edges if e[0] != e[1]] or [(0, 1)]
    net = dict_network(nodes, [(a, b, None) for a, b in edges])
    radius = draw(st.sampled_from([0.5, 10.0, 50.0, 400.0]))
    # A bound, looser than the search's, on the planar reach of the radius.
    coslat = np.cos(np.radians(lat))
    reach = radius * np.cos(np.radians(lat.mean())) / coslat.min()
    n = 40
    e = rng.integers(n_edges(net), size=n)
    t = rng.uniform(0.0, 1.0, n)
    away = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 1.5 * reach, n),
                    reach + rng.uniform(-1.0, 1.0, n))
    dx, dy = net._dx[e], net._dy[e]
    norm = np.hypot(dx, dy)
    xs = net._ax[e] + t * dx - dy / norm * away
    ys = net._ay[e] + t * dy + dx / norm * away
    wide = span * 111e3
    xs = np.concatenate([xs, rng.uniform(-0.2 * wide, 1.2 * wide, 10)
                         + net.node_x.min()])
    ys = np.concatenate([ys, rng.uniform(-0.2 * wide, 1.2 * wide, 10)
                         + net.node_y.min()])
    lats, lons = net.proj.to_latlon(xs, ys)
    bad = [(np.nan, 12.6), (12.6, np.nan), (1e300, 12.6), (-1e300, 1e300),
           (95.0, 12.6), (lat0, 400.0)]
    pick = rng.choice(len(bad), draw(st.integers(0, 3)))
    lats = np.concatenate([lats, [bad[i][0] for i in pick]])
    lons = np.concatenate([lons, [bad[i][1] for i in pick]])
    order = rng.permutation(len(lats))
    k = draw(st.integers(1, n_edges(net) + 2))
    return net, lats[order], lons[order], k, radius


@settings(max_examples=150, deadline=None)
@given(irregular_networks())
def test_candidates_equal_per_fix_search_on_irregular_networks(case):
    net, lats, lons, k, radius = case
    assert_candidates_equal_oracle(net, lats, lons, k, radius,
                                   scalar_calls=3)


class TestBoundedSearch:
    @pytest.mark.parametrize("seed", range(12))
    def test_targeted_distances_equal_full_search(self, seed):
        rng = np.random.default_rng(seed)
        net, _ = irregular_grid(rng, int(rng.integers(3, 9)),
                                int(rng.integers(3, 9)), drop=0.3)
        for _ in range(20):
            source = int(rng.integers(net.n_nodes))
            cutoff = float(rng.uniform(50.0, 900.0))
            full = full_search(net, source, cutoff)
            targets = {int(t) for t in rng.choice(net.n_nodes, 5)}
            if rng.random() < 0.5:  # a target at exactly the cutoff
                inside = [n for n in full if n != source]
                if inside:
                    edge = full[inside[int(rng.integers(len(inside)))]]
                    full = full_search(net, source, edge)
                    cutoff = edge
                    targets.add(max(full, key=full.get))
            got = net.shortest_node_dists(source, cutoff, targets)
            for node, d in got.items():
                assert d == full[node]
            for t in targets:
                if t in full:
                    assert got[t] == full[t]
                else:  # unreachable or beyond the cutoff
                    assert t not in got

    def test_target_at_exactly_the_cutoff_is_settled(self):
        net = grid_network(4, 1)
        full = full_search(net, 0, 5000.0)
        got = net.shortest_node_dists(0, full[3], {3})
        assert got[3] == full[3]
        assert 3 not in net.shortest_node_dists(0, np.nextafter(full[3], 0),
                                                {3})

    def test_source_as_its_own_target(self):
        net = grid_network()
        assert net.shortest_node_dists(5, 2000.0, {5}) == {5: 0.0}

    def test_unreachable_target_runs_the_search_out(self):
        net, _ = irregular_grid(np.random.default_rng(0), 4, 4, drop=0.3)
        far = int(np.searchsorted(net.node_ids, 10 ** 6))
        got = net.shortest_node_dists(0, 2000.0, {far})
        assert got == full_search(net, 0, 2000.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_route_distance_equals_full_search(self, seed):
        rng = np.random.default_rng(seed)
        net, _ = irregular_grid(rng, 6, 6, drop=0.3)
        for _ in range(30):
            cands = net.candidates(*fixes(*(latlon(*rng.uniform(0, 500, 2))
                                            for _ in range(2))),
                                   radius=200.0)
            i, mid, end = cands.start.tolist()
            if i == mid or mid == end:
                continue
            j = end - 1  # the second fix's farthest candidate
            cutoff = float(rng.uniform(100.0, 800.0))
            expected = net.route_distance(cands, i, j, cutoff)  # full search
            e = cands.edge[j]
            ends = {int(net.edge_a[e]), int(net.edge_b[e])}
            assert net.route_distance(cands, i, j, cutoff, ends) == expected


def settle_order(network, source, cutoff):
    """(node, distance) in the order a textbook Dijkstra, pruned at
    ``cutoff``, settles them: the oracle for the pop order of a search.
    Its adjacency lists are built edge by edge from the edge arrays."""
    adjacency = [[] for _ in range(network.n_nodes)]
    for a, b, length in zip(network.edge_a.tolist(), network.edge_b.tolist(),
                            network.edge_len.tolist()):
        adjacency[a].append((b, length))
        adjacency[b].append((a, length))
    dist, order, heap = {source: 0.0}, [], [(0.0, source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        order.append((u, d))
        for v, length in adjacency[u]:
            if d + length <= cutoff and d + length < dist.get(v, np.inf):
                dist[v] = d + length
                heapq.heappush(heap, (d + length, v))
    return order


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.data())
def test_resumed_searches_equal_full_search(seed, data):
    """Searches from a few sources at a few cutoffs, kept in one dict and
    resumed with random target sets: each call settles the head of the full
    search's order, every target within the cutoff among it."""
    rng = np.random.default_rng(seed)
    net, _ = irregular_grid(rng, int(rng.integers(3, 8)),
                            int(rng.integers(3, 8)), drop=0.3)
    sources = rng.choice(net.n_nodes, 3).tolist()
    cutoffs = [150.0, 400.0, 2000.0]
    searches: dict = {}
    for _ in range(data.draw(st.integers(1, 12))):
        source = data.draw(st.sampled_from(sources))
        cutoff = data.draw(st.sampled_from(cutoffs))
        targets = data.draw(st.sets(st.integers(0, net.n_nodes - 1),
                                    min_size=1, max_size=6))
        got = net.shortest_node_dists(source, cutoff, targets, searches)
        full = settle_order(net, source, cutoff)
        assert list(got.items()) == full[:len(got)]
        reached = dict(full)
        assert all(t in got for t in targets if t in reached)
    fresh = net.shortest_node_dists(source, cutoff, targets)
    assert fresh.items() <= got.items()


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

    def test_first_of_two_broken_steps_is_named(self):
        """Two streets 100 m apart with no link between them: the drive
        hops onto the second street and back, two steps without a route,
        after a fix that is dropped."""
        nodes = {0: latlon(0.0, 0.0), 1: latlon(100.0, 0.0),
                 10: latlon(200.0, 0.0), 11: latlon(300.0, 0.0)}
        net = dict_network(nodes, [(0, 1, None), (10, 11, None)])
        xy = [(20.0, 2.0), (50.0, 500.0), (60.0, 2.0), (250.0, 2.0),
              (60.0, 2.0)]
        lats, lons = (np.array(v) for v in zip(*(latlon(*p) for p in xy)))
        with pytest.raises(BrokenTraceError,
                           match="between fixes 2 and 3$") as exc:
            build_lattice(lats, lons, net)
        assert exc.value.fix_index == 3

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

    @pytest.mark.parametrize("bad", [(np.nan, None), (None, np.nan),
                                     (np.inf, None), (np.nan, np.nan)])
    def test_non_finite_fix_is_dropped_and_counted(self, bad):
        net = grid_network(6, 2, spacing=100.0)
        lats, lons = straight_fixes(7, spacing=80.0)
        keep = [0, 1, 2, 4, 5, 6]
        alone = match_fixes(np.arange(7.0)[keep], lats[keep], lons[keep],
                            net)
        if bad[0] is not None:
            lats[3] = bad[0]
        if bad[1] is not None:
            lons[3] = bad[1]
        matched = match_fixes(np.arange(7.0), lats, lons, net)
        assert matched.n_unmatched == 1
        assert list(matched.t) == [0.0, 1.0, 2.0, 4.0, 5.0, 6.0]
        assert np.array_equal(matched.edge, alone.edge)
        assert np.array_equal(matched.lat, alone.lat)
        assert matched.log_score == alone.log_score

    @staticmethod
    def _assert_equals_full_search(net, t, lats, lons, monkeypatch):
        bounded = build_lattice(lats, lons, net)
        matched = match_fixes(t, lats, lons, net)
        full = RoadNetwork.shortest_node_dists
        calls = []
        monkeypatch.setattr(
            RoadNetwork, "shortest_node_dists",
            lambda self, source, cutoff, targets=None, searches=None:
            calls.append(source) or full(self, source, cutoff))
        oracle = build_lattice(lats, lons, net)
        oracle_match = match_fixes(t, lats, lons, net)
        assert calls
        assert bounded[0] == oracle[0]
        for got, want in zip(bounded[1] + bounded[2], oracle[1] + oracle[2]):
            assert np.array_equal(got, want)
        for field in ("t", "edge", "offset", "lat", "lon"):
            assert np.array_equal(getattr(matched, field),
                                  getattr(oracle_match, field))
        assert matched.log_score == oracle_match.log_score

    def test_city_lattices_equal_per_pair_transitions(self):
        """Four drives over a 60 x 60 grid, one of them with a 280 m gap
        whose step has a wider cutoff."""
        net = grid_network(60, 60)
        rng = np.random.default_rng(7)
        for drive in range(4):
            lats, lons = city_drive(rng, 60, 100.0, 50)
            if drive == 3:
                lats, lons = (np.delete(v, range(1, 28)) for v in (lats, lons))
            lattice = build_lattice(lats, lons, net)
            want = per_pair_transitions(net, lattice.candidates, lattice[0],
                                        lats[lattice.kept],
                                        lons[lattice.kept])
            assert len(lattice[2]) == len(want)
            for got, mat in zip(lattice[2], want):
                assert np.array_equal(got, mat)

    def test_city_grid_lattice_equals_full_search(self, monkeypatch):
        """A 50-fix drive over a 60 x 60 grid with uneven blocks: the
        target-bounded lattice and match equal those built with the full
        search."""
        rng = np.random.default_rng(5)
        net, xy = irregular_grid(rng, 60, 60)
        route = [xy[30 * 60 + i] for i in range(20, 26)]
        route += [xy[j * 60 + 25] for j in range(31, 36)]
        cum = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(
            route, axis=0).T))])
        s = np.arange(50) * 13.9
        xs = np.interp(s, cum, [p[0] for p in route]) + rng.normal(0, 2.1, 50)
        ys = np.interp(s, cum, [p[1] for p in route]) + rng.normal(0, 2.1, 50)
        lats, lons = (np.array(v) for v in zip(*map(latlon, xs, ys)))
        self._assert_equals_full_search(net, s, lats, lons, monkeypatch)

    def test_parallel_street_lattice_equals_full_search(self, monkeypatch):
        """Two parallel streets 30 m apart, joined only at their ends: each
        fix has candidates on both, and the far street's nodes are settled
        long after the near street's."""
        nodes = {i: latlon(i * 100.0, 0.0) for i in range(6)}
        nodes.update({10 + i: latlon(i * 100.0, 30.0) for i in range(6)})
        edges = [(i, i + 1, None) for i in range(5)]
        edges += [(10 + i, 11 + i, None) for i in range(5)]
        edges += [(0, 10, None), (5, 15, None)]
        net = dict_network(nodes, edges)
        xs = np.arange(20.0, 480.0, 40.0)
        lats, lons = (np.array(v) for v in zip(*(latlon(x, 8.0) for x in xs)))
        assert all(len(net.candidates(a, b)) >= 2 for a, b in zip(lats, lons))
        self._assert_equals_full_search(net, np.arange(len(xs), dtype=float),
                                        lats, lons, monkeypatch)

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


# The lattice and the match as assembled before the Candidates record,
# frozen as the oracle: one Candidate per candidate (from the per-fix
# search), an end tuple per candidate, a route matrix per step, and a
# per-fix loop for the edge path.
Candidate = namedtuple("Candidate", "edge offset dist lat lon")


def _candidate_ends(network, cands) -> list[tuple]:
    edge = np.array([c.edge for c in cands], dtype=int)
    offset = [c.offset for c in cands]
    return [(e, a, off, b, length - off) for e, a, b, length, off in zip(
        edge.tolist(), network.edge_a[edge].tolist(),
        network.edge_b[edge].tolist(), network.edge_len[edge].tolist(), offset)]


def _route_distances(ends1, ends2, dists) -> list[list]:
    rows = []
    for e1, a1, da1, b1, db1 in ends1:
        from_a, from_b = dists.get(a1), dists.get(b1)
        row = []
        for e2, a2, da2, b2, db2 in ends2:
            if e1 == e2:
                row.append(abs(da2 - da1))
                continue
            best = math.inf
            for d1, settled in ((da1, from_a), (db1, from_b)):
                sp = settled.get(a2)
                if sp is not None and d1 + sp + da2 < best:
                    best = d1 + sp + da2
                sp = settled.get(b2)
                if sp is not None and d1 + sp + db2 < best:
                    best = d1 + sp + db2
            row.append(best)
        rows.append(row)
    return rows


def per_candidate_lattice(lats, lons, network, sigma=DEFAULT_SIGMA,
                          beta=DEFAULT_BETA):
    """(steps, emissions, transitions, kept), steps as lists of Candidate:
    the oracle for build_lattice."""
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    steps, emissions, kept, dropped = [], [], [], []
    for i, (lat, lon) in enumerate(zip(lats.tolist(), lons.tolist())):
        cands = [Candidate(*row) for row in per_fix_candidates(network, lat,
                                                               lon)]
        if not cands:
            dropped.append(i)
            continue
        kept.append(i)
        steps.append(cands)
        emissions.append(np.array([-c.dist ** 2 / (2.0 * sigma ** 2)
                                   for c in cands]))
    if len(kept) < 2:
        raise UnmatchedFixError(dropped[0])
    lats, lons = lats[kept], lons[kept]
    d_gcs = haversine_pointwise(lats[:-1], lons[:-1], lats[1:],
                                lons[1:]).tolist()
    ends = _candidate_ends(network, [c for cands in steps for c in cands])
    bounds = np.cumsum([0] + [len(cands) for cands in steps]).tolist()
    step_ends = [ends[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    searches: dict = {}
    d_route: list[float] = []
    for i, d_gc in enumerate(d_gcs):
        cutoff = max(10.0 * (d_gc + 1.0), 2000.0)
        here, there = step_ends[i], step_ends[i + 1]
        targets = {n for _, a, _, b, _ in there for n in (a, b)}
        dists = {}
        for _, a, _, b, _ in here:
            for n in (a, b):
                if n not in dists:
                    dists[n] = network.shortest_node_dists(n, cutoff, targets,
                                                           searches)
        for row in _route_distances(here, there, dists):
            d_route += row
    sizes = np.diff(bounds)
    cells = sizes[:-1] * sizes[1:]
    d = np.array(d_route)
    routed = np.isfinite(d)
    scores = np.where(routed, -np.abs(d - np.repeat(d_gcs, cells)) / beta,
                      -np.inf)
    starts = np.cumsum(cells) - cells
    broken = np.flatnonzero(~np.logical_or.reduceat(routed, starts))
    if len(broken):
        step = int(broken[0])
        raise BrokenTraceError(kept[step + 1], kept[step])
    transitions = [scores[lo:lo + n * m].reshape(n, m) for lo, n, m in zip(
        starts.tolist(), sizes[:-1].tolist(), sizes[1:].tolist())]
    return steps, emissions, transitions, kept


def per_candidate_match(t, lats, lons, network) -> MatchedTrace:
    steps, emissions, transitions, kept = per_candidate_lattice(lats, lons,
                                                                network)
    path, log_score = viterbi_path(emissions, transitions)
    chosen = [steps[i][j] for i, j in enumerate(path)]
    return MatchedTrace(
        t=np.asarray(t, dtype=float)[kept],
        fix_lat=np.asarray(lats, dtype=float)[kept],
        fix_lon=np.asarray(lons, dtype=float)[kept],
        edge=np.array([c.edge for c in chosen], dtype=int),
        offset=np.array([c.offset for c in chosen]),
        lat=np.array([c.lat for c in chosen]),
        lon=np.array([c.lon for c in chosen]),
        log_score=log_score,
        n_unmatched=len(lats) - len(kept),
    )


def per_fix_edge_path(edge) -> list[int]:
    path = []
    for e in edge:
        if not path or path[-1] != e:
            path.append(int(e))
    return path


def simulated_drive(rng, length=3000.0, sigma=3.0):
    """A meandering simulated route as a chain network, and GPS fixes every
    13.9 m along it with GPS noise."""
    route = generate_route(length, int(rng.integers(2 ** 31)))
    net = RoadNetwork.from_polyline(route)
    x, y = net.proj.to_xy(*route.point_at(np.arange(0.0, route.length, 13.9)))
    x = x + rng.normal(0.0, sigma / np.sqrt(2.0), len(x))
    y = y + rng.normal(0.0, sigma / np.sqrt(2.0), len(y))
    return net, *net.proj.to_latlon(x, y)


class TestCandidateRecord:
    """build_lattice and match_fixes on the trace's Candidates record equal
    the per-candidate assembly, every float to the bit."""

    @staticmethod
    def _assert_equals_per_candidate(net, lats, lons):
        t = np.arange(len(lats), dtype=float)
        lattice = build_lattice(lats, lons, net)
        steps, emissions, transitions, kept = per_candidate_lattice(
            lats, lons, net)
        cands = lattice.candidates
        assert lattice.kept.tolist() == kept
        assert lattice[0] == [range(cands.start[i], cands.start[i + 1])
                              for i in kept]
        for i, want in zip(kept, steps):
            assert _bits(fix_rows(cands, i)) == _bits(want)
        for got, want in zip(lattice[1] + lattice[2], emissions + transitions):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        got, want = match_fixes(t, lats, lons, net), per_candidate_match(
            t, lats, lons, net)
        for field in ("t", "fix_lat", "fix_lon", "edge", "offset", "lat",
                      "lon"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
        assert got.log_score.hex() == want.log_score.hex()
        assert got.n_unmatched == want.n_unmatched
        assert got.edge_path() == per_fix_edge_path(want.edge)
        return got

    def test_city_drives(self):
        """Four drives over a 60 x 60 grid; the last drops a fix that is
        not finite and one 900 m off the grid."""
        net = grid_network(60, 60)
        rng = np.random.default_rng(21)
        for drive in range(4):
            lats, lons = city_drive(rng, 60, 100.0, 50)
            if drive == 3:
                lats[10] = np.nan
                lats[20], lons[20] = latlon(-900.0, -900.0)
            matched = self._assert_equals_per_candidate(net, lats, lons)
            assert matched.n_unmatched == (2 if drive == 3 else 0)

    def test_irregular_grids(self):
        """Fixes scattered over 8 x 8 grids with moved junctions and
        missing streets, some of them out of range."""
        for seed in range(3):
            rng = np.random.default_rng(seed)
            net, _ = irregular_grid(rng, 8, 8, drop=0.2)
            xs, ys = rng.uniform(-30.0, 730.0, (2, 40))
            lats, lons = fixes(*map(latlon, np.sort(xs), ys))
            try:
                self._assert_equals_per_candidate(net, lats, lons)
            except BrokenTraceError as exc:
                with pytest.raises(BrokenTraceError, match=f"{exc}$"):
                    per_candidate_lattice(lats, lons, net)

    def test_simulated_drive(self):
        rng = np.random.default_rng(22)
        net, lats, lons = simulated_drive(rng)
        matched = self._assert_equals_per_candidate(net, lats, lons)
        assert len(matched) == len(lats) > 200

    def test_far_candidate_chosen(self):
        """Three parallel streets at y = 0, 20 and 25 m, joined only at
        their ends; the car keeps to y = 0, and one fix strays to y = 22 m,
        where the streets at 20 and 25 m and their edges' ends are nearer
        than its own street."""
        nodes, edges = {}, []
        for k, y in enumerate((0.0, 20.0, 25.0)):
            nodes.update({10 * k + i: latlon(100.0 * i, y) for i in range(5)})
            edges += [(10 * k + i, 10 * k + i + 1, None) for i in range(4)]
        edges += [(0, 10, None), (10, 20, None), (4, 14, None),
                  (14, 24, None)]
        net = dict_network(nodes, edges)
        lats, lons = fixes(*(latlon(x, 22.0 if x == 220.0 else 1.0)
                             for x in np.arange(20.0, 400.0, 40.0)))
        lattice = build_lattice(lats, lons, net)
        path, _ = viterbi_path(lattice[1], lattice[2])
        assert path[5] >= 2
        assert lattice.candidates.edge[lattice[0][5][path[5]]] == 2
        self._assert_equals_per_candidate(net, lats, lons)

    def test_broken_and_unmatched_traces_raise_the_same_error(self):
        nodes = {0: latlon(0.0, 0.0), 1: latlon(100.0, 0.0),
                 10: latlon(200.0, 0.0), 11: latlon(300.0, 0.0)}
        net = dict_network(nodes, [(0, 1, None), (10, 11, None)])
        for xy in ([(20.0, 2.0), (50.0, 500.0), (60.0, 2.0), (250.0, 2.0)],
                   [(20.0, 2.0), (50.0, 500.0), (np.nan, 0.0)]):
            lats, lons = fixes(*(latlon(*p) for p in xy))
            with pytest.raises(ValueError) as want:
                per_candidate_lattice(lats, lons, net)
            with pytest.raises(type(want.value), match=f"{want.value}$"):
                build_lattice(lats, lons, net)


def _line_reference(n_segs, seg_len=10.0):
    lat, lon = PROJ.to_latlon(np.arange(n_segs + 1) * seg_len,
                              np.zeros(n_segs + 1))
    return Reference(lat[:-1], lon[:-1], lat[1:], lon[1:],
                     np.full(n_segs, seg_len), 1.0 + np.arange(n_segs))


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
        pieces, dropped = align_segments(reference, pos)
        assert dropped == 0
        assert pieces.seg.tolist() == [0, 1, 2, 3, 4]
        # 10 m at 10 m/s and 10 Hz -> 10 samples per piece.
        assert set((pieces.stop - pieces.start)[:-1].tolist()) == {10}
        assert pieces.iri[2] == 3.0

    def test_windows_concatenate_and_average(self):
        trace, matched = _line_trace_and_match(51)
        pos = interpolate_positions(trace, matched)
        pieces, _ = align_segments(_line_reference(5), pos)
        windows = sliding_windows(pieces, pos, trace, window=3)
        assert len(windows) == 3
        assert windows.window_id[0] == 0
        assert windows.iri[0] == pytest.approx(np.mean([1.0, 2.0, 3.0]))
        rows = pos.idx[pieces.start[0]:pieces.stop[2]]
        assert windows.offsets[1] == len(rows)
        assert np.array_equal(windows.acc_z[:len(rows)], trace.acc_z[rows])

    def test_windows_skip_gaps(self):
        trace, matched = _line_trace_and_match(51)
        pos = interpolate_positions(trace, matched)
        pieces, _ = align_segments(_line_reference(5), pos)
        pieces = Pieces(*(np.delete(a, 2) for a in (
            pieces.seg, pieces.start, pieces.stop, pieces.iri)))
        windows = sliding_windows(pieces, pos, trace, window=2)
        assert windows.window_id.tolist() == [0, 3]

    def test_empty_reference_is_a_named_error(self):
        trace, matched = _line_trace_and_match(51)
        pos = interpolate_positions(trace, matched)
        with pytest.raises(ValueError, match="no reference segments"):
            align_segments(_line_reference(0), pos)

    def test_no_windows_warns(self):
        trace, matched = _line_trace_and_match(51)
        pos = interpolate_positions(trace, matched)
        pieces, _ = align_segments(_line_reference(5), pos)
        with pytest.warns(UserWarning):
            windows = sliding_windows(pieces, pos, trace, window=10)
        assert len(windows) == 0 and windows.offsets.tolist() == [0]


def closest_point_oracle(positions, lat, lon, lo, hi) -> int:
    """Nearest sample within [lo, hi) by a ``geo.haversine`` call per
    search: the oracle for the searches of ``piece_boundaries``."""
    lo = max(0, lo)
    hi = min(len(positions), hi)
    d = haversine(positions.lat[lo:hi], positions.lon[lo:hi], lat, lon)
    return lo + int(np.argmin(d))


def boundaries_oracle(reference, positions, search_back=100,
                      search_ahead=2000) -> list:
    cursor = closest_point_oracle(positions, reference.start_lat[0],
                                  reference.start_lon[0], 0, len(positions))
    out = [cursor]
    for lat, lon in zip(reference.end_lat, reference.end_lon):
        cursor = closest_point_oracle(positions, lat, lon,
                                      cursor - search_back,
                                      cursor + search_ahead)
        out.append(cursor)
    return out


def assert_alignment_equals_oracle(reference, positions, search_back=100,
                                   search_ahead=2000):
    want = boundaries_oracle(reference, positions, search_back, search_ahead)
    assert piece_boundaries(reference, positions, search_back,
                            search_ahead) == want
    pieces, n_dropped = align_segments(reference, positions, search_back,
                                       search_ahead)
    kept = [i for i in range(len(reference)) if want[i + 1] - want[i] >= 2]
    assert n_dropped == len(reference) - len(kept)
    assert pieces.seg.tolist() == kept
    assert pieces.start.tolist() == [want[i] for i in kept]
    assert pieces.stop.tolist() == [want[i + 1] for i in kept]
    assert pieces.iri.tolist() == [reference.iri.tolist()[i] for i in kept]


@pytest.fixture(scope="module")
def survey_drive(tmp_path_factory):
    """Reference segments and positioned samples of the 2 km drive of the
    default config."""
    from roadroughness.cli import io
    from roadroughness.cli.config import load_config
    from roadroughness.cli.pipeline import run_stage
    workdir = tmp_path_factory.mktemp("survey")
    config = load_config(workdir=workdir)
    config["simulate"]["route_length_m"] = 2000.0
    for stage in ("simulate", "match"):
        run_stage(stage, config)
    trace = io.read_telemetry_csv(workdir / "telemetry.csv")
    reference = io.read_reference_csv(workdir / "reference.csv")
    with pytest.warns(UserWarning, match="outside GPS fix range"):
        positions = interpolate_positions(
            trace, io.read_matched_json(workdir / "matched.json"))
    return reference, positions


class TestAlignmentOracle:
    def test_survey_drive_equals_per_search_haversine(self, survey_drive):
        reference, positions = survey_drive
        assert len(reference) == 200
        assert_alignment_equals_oracle(reference, positions)
        assert_alignment_equals_oracle(reference, positions, 7, 300)

    def test_edge_cases(self):
        trace, matched = _line_trace_and_match(51)
        pos = interpolate_positions(trace, matched)
        assert piece_boundaries(_line_reference(0), pos, 100, 2000) == []
        for back, ahead in ((-1, 10), (10, 0)):
            with pytest.raises(ValueError, match="search_back must be"):
                piece_boundaries(_line_reference(5), pos, back, ahead)

    def test_survey_drive_measures_a_fraction_of_the_windows(
            self, survey_drive, monkeypatch):
        """The bounds spare most distances: a search that measured every
        window in full would show here."""
        from roadroughness.geoalign import align
        reference, positions = survey_drive
        measured = []
        original = align.haversine_radians

        def counting(*args):
            d = original(*args)
            measured.append(np.size(d))
            return d

        monkeypatch.setattr(align, "haversine_radians", counting)
        got = piece_boundaries(reference, positions, 100, 2000)
        monkeypatch.undo()
        n = len(positions)
        full = n + sum(min(n, c + 2000) - max(0, c - 100) for c in got[:-1])
        assert got == boundaries_oracle(reference, positions)
        assert sum(measured) < full / 4

    def test_unchanged_centre_is_searched_without_widening(self,
                                                           monkeypatch):
        """A drive of 1 m steps that doubles back at 30 m and 0 m, with
        10 m pieces and windows of 4 samples back and 8 ahead, widened by
        2: the nearest sample of such a widened window lies in the
        widening, outside the end's own window. Searching that end again in
        the same widened window would never end, so the ``_search`` calls
        are counted: after end k - 1 is final, end k is searched at most
        twice more."""
        from roadroughness.geoalign import align
        x = np.concatenate([np.arange(30.0), 30.0 - np.arange(30.0),
                            np.arange(31.0)])
        lat, lon = PROJ.to_latlon(x, np.zeros(len(x)))
        positions = InterpolatedPositions(np.arange(len(x)), lat, lon, 0)
        cuts = np.array([0.0, 10, 20, 30, 20, 10, 0, 10, 20, 30])
        clat, clon = PROJ.to_latlon(cuts, np.zeros(len(cuts)))
        reference = Reference(clat[:-1], clon[:-1], clat[1:], clon[1:],
                              np.full(len(cuts) - 1, 10.0),
                              np.arange(len(cuts) - 1.0))
        want = boundaries_oracle(reference, positions, 4, 8)
        widened = [closest_point_oracle(positions, lat, lon, c - 6, c + 10)
                   for c, lat, lon in zip(want[:-1], reference.end_lat,
                                          reference.end_lon)]
        assert widened != want[1:]
        calls = []
        original = align._search

        def counting(*args):
            calls.append(args)
            if len(calls) > 2 * len(reference) + 1:
                raise AssertionError("an end is searched again and again")
            return original(*args)

        monkeypatch.setattr(align, "_search", counting)
        assert piece_boundaries(reference, positions, 4, 8) == want


@st.composite
def curved_drives(draw):
    """A meandering route, samples along it that stop now and then (runs of
    repeated positions, so argmin ties) and step back now and then (as GPS
    noise does), reference pieces cut from it by chainage, and search
    windows short enough to be clipped at both ends."""
    from roadroughness.simkit import generate_route
    length = draw(st.floats(40.0, 400.0))
    route = generate_route(length, draw(st.integers(0, 2**16)),
                           vertex_spacing=draw(st.floats(5.0, 60.0)),
                           max_turn_deg=draw(st.floats(0.0, 90.0)))
    steps = np.array(draw(st.lists(st.sampled_from([-3.0, 0.0, 0.0, 0.5, 1.0,
                                                    2.5, 4.0]),
                                   min_size=2, max_size=150)))
    s = np.cumsum(steps) * route.length / max(np.abs(steps).sum(), 1e-9)
    lat, lon = route.point_at(s)
    n = len(s)
    seg_len = draw(st.floats(3.0, 50.0))
    cuts = np.arange(int(route.length // seg_len) + 1) * seg_len
    if len(cuts) < 2:
        cuts = np.array([0.0, route.length])
    clat, clon = route.point_at(cuts)
    reference = Reference(clat[:-1], clon[:-1], clat[1:], clon[1:],
                          np.diff(cuts), np.arange(len(cuts) - 1.0))
    positions = InterpolatedPositions(np.arange(n) + 3, lat, lon, 3)
    return (reference, positions, draw(st.integers(1, 40)),
            draw(st.integers(1, 60)))


@settings(max_examples=200, deadline=None)
@given(curved_drives())
def test_alignment_equals_per_search_haversine_on_curved_drives(case):
    assert_alignment_equals_oracle(*case)


SEARCH_PAIRS = [(100, 2000), (7, 300), (0, 1), (1, 5), (50, 60), (400, 9000)]


@st.composite
def doubling_back_drives(draw):
    """Drives that pass again where they were, inside the search window: a
    U-turn on an open route (forward, back over the same positions, forward
    again) or laps of a closed loop over the same positions, so exact ties
    lie far apart. They also stop now and then (runs of one repeated
    position), hold up to ~1000 samples, so that most of a long window is
    only bounded, and are searched with windows from shorter than the
    measured block to longer than the drive."""
    if draw(st.booleans()):
        radius = draw(st.floats(15.0, 120.0))
        angle = np.linspace(0.0, 2 * np.pi, draw(st.integers(8, 64)))
        route = Polyline(*PROJ.to_latlon(radius * np.cos(angle),
                                         radius * np.sin(angle)))
        lap = np.linspace(0.0, route.length, draw(st.integers(5, 300)),
                          endpoint=False)
        s = np.tile(lap, draw(st.integers(2, 4)))
    else:
        route = generate_route(draw(st.floats(60.0, 600.0)),
                               draw(st.integers(0, 2**16)),
                               vertex_spacing=draw(st.floats(5.0, 60.0)),
                               max_turn_deg=draw(st.floats(0.0, 60.0)))
        turn = draw(st.floats(0.1, 1.0)) * route.length
        ahead = np.linspace(0.0, turn, draw(st.integers(2, 300)))
        back = ahead[::-1][1:draw(st.integers(2, len(ahead)))]
        again = np.linspace(back[-1], route.length,
                            draw(st.integers(2, 300)))
        s = np.concatenate([ahead, back, again])
    counts = np.ones(len(s), dtype=int)
    for i, c in draw(st.lists(st.tuples(st.integers(0, len(s) - 1),
                                        st.integers(2, 60)), max_size=4)):
        counts[i] = c
    lat, lon = route.point_at(np.repeat(s, counts))
    seg_len = draw(st.floats(3.0, 40.0))
    cuts = np.arange(int(route.length // seg_len) + 1) * seg_len
    clat, clon = route.point_at(cuts)
    reference = Reference(clat[:-1], clon[:-1], clat[1:], clon[1:],
                          np.diff(cuts), np.arange(len(cuts) - 1.0))
    positions = InterpolatedPositions(np.arange(len(lat)), lat, lon, 0)
    back, ahead = draw(st.one_of(
        st.sampled_from(SEARCH_PAIRS),
        st.tuples(st.integers(0, 300), st.integers(1, 1200))))
    return reference, positions, back, ahead


@settings(max_examples=200, deadline=None)
@given(doubling_back_drives())
def test_boundaries_equal_oracle_on_drives_that_double_back(case):
    reference, positions, back, ahead = case
    assert (piece_boundaries(reference, positions, back, ahead)
            == boundaries_oracle(reference, positions, back, ahead))

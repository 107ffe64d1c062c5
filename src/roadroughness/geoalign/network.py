"""Road network graph with candidate projection and routing.

``RoadNetwork`` is built from node and edge arrays, by ``load`` from
``network.txt`` or by ``from_polyline``. ``candidates`` projects a whole
trace of fixes onto it at once and returns one ``Candidates`` record;
``route_distances`` gives the on-network distances between the record's
rows of two consecutive fixes. ``save`` formats ``network.txt`` a block of
lines at a time and writes it through ``textio.write_text``."""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ..geo import (EARTH_RADIUS_M, LocalProjection, Polyline, haversine,
                   haversine_pointwise)
from ..textio import BLOCK_ROWS, unreadable, write_text

# Edge lengths must agree with the great-circle distance between endpoints.
LENGTH_REL_TOL = 0.005
LENGTH_ABS_TOL = 0.05

# No fix with a valid position is farther than this from any network point
# in the planar frame: |dlat| <= pi and |dlon| <= 2 pi radians, times R.
PLANAR_REACH_M = 1e8


@dataclass(frozen=True)
class Candidates:
    """Edge projections of a sequence of fixes as one record: fix ``i``
    owns the rows ``start[i]:start[i + 1]``, closest first. A row projects
    its fix onto edge ``edge``, ``offset`` meters from the edge's first
    node, at ``lat``/``lon``, ``dist`` great-circle meters from the fix."""

    start: np.ndarray
    edge: np.ndarray
    offset: np.ndarray
    dist: np.ndarray
    lat: np.ndarray
    lon: np.ndarray

    def __len__(self) -> int:
        return len(self.edge)


class RoadNetwork:
    """Undirected node/edge graph over geographic coordinates.

    Geometry is kept both as lat/lon and as local planar meters; projections
    and routing run in the planar frame, reported distances use haversine.
    """

    def __init__(self, ids, lat, lon, edge_a, edge_b, length):
        """The network of nodes ``ids`` (sorted, unique) at ``lat``/``lon``
        and edges between the node ids ``edge_a`` and ``edge_b`` of the
        given lengths in meters, each within 0.5 % of the great-circle
        distance between its nodes."""
        if not len(ids) or not len(edge_a):
            raise ValueError("network needs nodes and edges")
        try:
            ids, edge_a, edge_b = (np.asarray(v, dtype=np.int64)
                                   for v in (ids, edge_a, edge_b))
        except OverflowError:
            raise ValueError("node ids must be 64-bit integers") from None
        if np.any(ids[1:] <= ids[:-1]):
            raise ValueError("node ids must be sorted and unique")
        self.node_ids = ids
        self.node_lat = np.asarray(lat, dtype=float)
        self.node_lon = np.asarray(lon, dtype=float)
        bad = np.flatnonzero(~((np.abs(self.node_lat) <= 90.0)
                               & (np.abs(self.node_lon) <= 180.0)))
        if len(bad):
            i = int(bad[0])
            raise ValueError(f"node {ids[i]} has invalid coordinates "
                             f"({self.node_lat[i]}, {self.node_lon[i]})")
        self.proj = LocalProjection(float(self.node_lat.mean()),
                                    float(self.node_lon.mean()))
        self.node_x, self.node_y = self.proj.to_xy(self.node_lat, self.node_lon)

        ia = np.minimum(np.searchsorted(ids, edge_a), len(ids) - 1)
        ib = np.minimum(np.searchsorted(ids, edge_b), len(ids) - 1)
        unknown_a, unknown_b = ids[ia] != edge_a, ids[ib] != edge_b
        if (unknown_a | unknown_b).any():
            ei = int(np.argmax(unknown_a | unknown_b))
            a, b = edge_a[ei], edge_b[ei]
            raise ValueError(f"edge ({a},{b}) names unknown node "
                             f"{a if unknown_a[ei] else b}")
        self.edge_a, self.edge_b = ia, ib
        self.edge_len = np.array(length, dtype=float)
        gc = haversine(self.node_lat[ia], self.node_lon[ia],
                       self.node_lat[ib], self.node_lon[ib])
        positive = np.isfinite(self.edge_len) & (self.edge_len > 0)
        off = ~positive | (np.abs(self.edge_len - gc)
                           > np.maximum(LENGTH_REL_TOL * gc, LENGTH_ABS_TOL))
        if off.any():
            ei = int(np.argmax(off))
            a, b = ids[ia[ei]], ids[ib[ei]]
            if not positive[ei]:
                raise ValueError(f"edge ({a},{b}) has non-positive or "
                                 f"non-finite length {self.edge_len[ei]}")
            raise ValueError(
                f"edge ({a},{b}) length {self.edge_len[ei]:.2f} m deviates "
                f"from great-circle {gc[ei]:.2f} m by more than 0.5%")
        self._ax = self.node_x[ia]
        self._ay = self.node_y[ia]
        self._dx = self.node_x[ib] - self._ax
        self._dy = self.node_y[ib] - self._ay
        self._seg2 = np.maximum(self._dx ** 2 + self._dy ** 2, 1e-12)
        self._cells: _CellIndex | None = None

        # The edges at node u are adj_node[k], adj_len[k] (neighbour and
        # length) for k in range(adj_start[u], adj_start[u + 1]), in edge
        # order, an edge's first node before its second: a stable sort of
        # the interleaved ends a0, b0, a1, b1, ... Flat Python lists, which
        # the search indexes faster than arrays.
        ends = np.column_stack((ia, ib)).ravel()
        order = np.argsort(ends, kind="stable")
        self.adj_node = np.column_stack((ib, ia)).ravel()[order].tolist()
        self.adj_len = np.repeat(self.edge_len, 2)[order].tolist()
        self.adj_start = np.searchsorted(ends[order],
                                         np.arange(len(ids) + 1)).tolist()

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @classmethod
    def from_polyline(cls, line: Polyline) -> "RoadNetwork":
        lats, lons = line.lats, line.lons
        ids = np.arange(len(lats), dtype=np.int64)
        return cls(ids, lats, lons, ids[:-1], ids[1:],
                   haversine_pointwise(lats[:-1], lons[:-1], lats[1:],
                                       lons[1:]))

    def candidates(self, lat, lon, max_candidates: int = 8,
                   radius: float = 50.0) -> Candidates:
        """Nearest edge projections of each fix of 1-D arrays (or of one
        scalar fix), closest first.

        A fix's candidates are the first ``max_candidates`` edges in order of
        planar distance to their projections (ties by edge index), less those
        more than ``radius`` great-circle meters away. A fix without a valid
        position (not finite, or beyond 90 degrees of latitude or 180 of
        longitude) has none.
        """
        if not (np.isfinite(radius) and radius >= 0):
            raise ValueError(f"radius must be finite and non-negative, "
                             f"got {radius}")
        if max_candidates < 0:
            raise ValueError("max_candidates must be non-negative")
        lats = np.atleast_1d(np.asarray(lat, dtype=float))
        lons = np.atleast_1d(np.asarray(lon, dtype=float))
        fixes = np.flatnonzero((np.abs(lats) <= 90.0)
                               & (np.abs(lons) <= 180.0))
        reach = self._padded_radius(radius)
        cells = self._cell_index(reach)
        px, py = self.proj.to_xy(lats[fixes], lons[fixes])
        f, e = cells.pairs(px, py, reach + cells.slack)
        # Each pair is projected with the expressions of a projection onto
        # all edges at once, so its values are the same to the bit.
        t = np.clip(((px[f] - self._ax[e]) * self._dx[e]
                     + (py[f] - self._ay[e]) * self._dy[e]) / self._seg2[e],
                    0.0, 1.0)
        sx = self._ax[e] + t * self._dx[e]
        sy = self._ay[e] + t * self._dy[e]
        d2 = (px[f] - sx) ** 2 + (py[f] - sy) ** 2
        # The pairs within reach are the head of each fix's order over all
        # edges, and an edge beyond reach is beyond ``radius`` (see
        # _padded_radius), so the first max_candidates of that head, less
        # those beyond ``radius``, are the candidates.
        near = d2 <= reach * reach
        f, e, t, sx, sy, d2 = (v[near] for v in (f, e, t, sx, sy, d2))
        order = np.lexsort((e, d2, f))
        f, e, t, sx, sy = (v[order] for v in (f, e, t, sx, sy))
        # A pair comes once for each gathered cell that holds the edge.
        first = np.ones(len(f), dtype=bool)
        first[1:] = (f[1:] != f[:-1]) | (e[1:] != e[:-1])
        f, e, t, sx, sy = (v[first] for v in (f, e, t, sx, sy))
        top = np.arange(len(f)) - np.searchsorted(f, f) < max_candidates
        f, e, t, sx, sy = (v[top] for v in (f, e, t, sx, sy))
        slat, slon = self.proj.to_latlon(sx, sy)
        gc = haversine_pointwise(lats[fixes][f], lons[fixes][f], slat, slon)
        keep = ~(gc > radius)
        e = e[keep]
        start = np.zeros(len(lats) + 1, dtype=np.int64)
        np.cumsum(np.bincount(fixes[f[keep]], minlength=len(lats)),
                  out=start[1:])
        return Candidates(start, e, t[keep] * self.edge_len[e], gc[keep],
                          slat[keep], slon[keep])

    def _padded_radius(self, radius: float) -> float:
        """A planar distance beyond which no edge projection lies within
        ``radius`` great-circle meters of its fix."""
        # A fix (phi1, lam1) and a projection (phi2, lam2), in radians, are
        # theta = gc / R apart; a = |phi1 - phi2|, b = |lam1 - lam2| <= pi
        # (the network and its fixes do not straddle the antimeridian, as the
        # planar frame assumes). By the haversine formula
        #   sin^2(theta/2) = sin^2(a/2) + cos(phi1) cos(phi2) sin^2(b/2).
        # Let theta <= rho = radius / R < pi/2. Then a <= rho, and phi2 lies
        # in the network's latitude span, so both latitudes lie in that span
        # widened by rho, where every cosine is at least cmin. So
        # sin(b/2) <= sin(rho/2) / cmin = sin(u), and since sin(v)/v falls on
        # [0, pi/2], sin(v) >= q v on [0, u] with q = sin(u)/u; a/2 <= u too.
        # Hence q^2 (a^2 + cmin^2 b^2) / 4 <= sin^2(rho/2) <= rho^2 / 4. The
        # planar distance is R sqrt(a^2 + c0^2 b^2), c0 = cos(lat0) >= cmin,
        # at most (c0/cmin) R sqrt(a^2 + cmin^2 b^2) <= radius c0 / (cmin q).
        # Rounding moves either distance by under 1e-8 m; the allowance is
        # 1e-9 relative plus 1e-6 m.
        rho = radius / EARTH_RADIUS_M
        if rho >= np.pi / 2:
            return PLANAR_REACH_M
        lat = np.radians(self.node_lat)
        cmin = min(np.cos(max(lat.min() - rho, -np.pi / 2)),
                   np.cos(min(lat.max() + rho, np.pi / 2)))
        u = np.arcsin(min(1.0, np.sin(rho / 2) / cmin))
        q = np.sin(u) / u if u > 0 else 1.0
        reach = radius * self.proj._coslat / (cmin * q) * (1 + 1e-9) + 1e-6
        return float(min(reach, PLANAR_REACH_M))

    def _cell_index(self, reach: float) -> "_CellIndex":
        """The cell index for a padded radius, built on first use. Cells are
        ``reach`` wide, so a fix's search square meets 3 x 3 of them (4 x 4
        at worst); but at least a quarter of the mean edge length wide, so
        the index holds a few entries per edge, and at least 2**-30 of the
        network's extent, so cell keys stay within int64."""
        extent = max(np.ptp(self.node_x), np.ptp(self.node_y))
        side = max(reach, float(self.edge_len.mean()) / 4, extent / 2 ** 30)
        if self._cells is None or self._cells.side != side:
            self._cells = _CellIndex(self._ax, self._ay, self._dx, self._dy,
                                     side)
        return self._cells

    def shortest_node_dists(self, source: int, cutoff: float, targets=None,
                            searches: dict | None = None) -> dict[int, float]:
        """Dijkstra distances from a node index, pruned at ``cutoff`` meters.

        With ``targets`` (node indices) the search stops as soon as every
        target is settled and returns the settled nodes only. Up to that
        point it settles the same nodes in the same order as the full
        search, and a settled distance is final, so every returned distance
        equals the full search's. A target beyond ``cutoff`` or unreachable
        lets the search run out.

        ``searches``, a dict the caller keeps, holds the state of each search
        by (source, cutoff): a later call with the same pair resumes it, and
        settles more nodes only if a new target is not yet settled. A node's
        edges are relaxed before the stop test, so a resumed search pops
        what the full search pops, in the same order. The returned dict then
        belongs to the search: it grows as the search resumes.
        """
        state = None if searches is None else searches.get((source, cutoff))
        if state is None:
            state = ([(0.0, source)], {source: 0.0}, {})
            if searches is not None:
                searches[(source, cutoff)] = state
        heap, dist, settled = state
        remaining = None
        if targets is not None:
            remaining = set(targets) - settled.keys()
            if not remaining:
                return settled
        start, node, length = self.adj_start, self.adj_node, self.adj_len
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u] or d > cutoff:
                continue
            settled[u] = d
            for k in range(start[u], start[u + 1]):
                v = node[k]
                nd = d + length[k]
                if nd < dist.get(v, math.inf) and nd <= cutoff:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
            if remaining is not None:
                remaining.discard(u)
                if not remaining:
                    break
        return dist if targets is None else settled

    def candidate_ends(self, cands: Candidates) -> tuple:
        """The columns (edge, a, d_a, b, d_b) of the rows of ``cands``, as
        Python lists: each row's edge, the edge's end nodes a and b, and
        the row's distances along the edge to them."""
        e = cands.edge
        return (e.tolist(), self.edge_a[e].tolist(), cands.offset.tolist(),
                self.edge_b[e].tolist(),
                (self.edge_len[e] - cands.offset).tolist())

    def route_distance(self, cands: Candidates, i: int, j: int,
                       cutoff: float, targets=None) -> float:
        """Shortest on-network distance between the candidate rows ``i``
        and ``j`` (non-negative indices) of ``cands``.

        Returns ``inf`` when no route exists within ``cutoff``. ``targets``
        bounds the searches from row i's end nodes (see shortest_node_dists):
        it must hold row j's end nodes.
        """
        ends = self.candidate_ends(cands)
        edge, a, _, b, _ = ends
        dists = {} if edge[i] == edge[j] else {
            n: self.shortest_node_dists(n, cutoff, targets)
            for n in (a[i], b[i])}
        return float(route_distances(ends, slice(i, i + 1), slice(j, j + 1),
                                     dists)[0])

    def save(self, path) -> bytes:
        """Write the text format, node,<id>,<lat>,<lon> and then
        edge,<a>,<b>,<length_m> lines, BLOCK_ROWS lines at a time.
        Returns the blake2b digest of the bytes written; a write that
        fails part way removes its partial file."""
        def blocks():
            ids = self.node_ids
            for kind, *columns in (
                    ("node", ids, self.node_lat, self.node_lon),
                    ("edge", ids[self.edge_a], ids[self.edge_b],
                     self.edge_len)):
                for a in range(0, len(columns[0]), BLOCK_ROWS):
                    # repr of every field: an int's is its digits.
                    rows = zip(repeat(kind), *(
                        map(repr, c[a:a + BLOCK_ROWS].tolist())
                        for c in columns))
                    yield "\n".join(map(",".join, rows)) + "\n"
        return write_text(path, blocks())

    @classmethod
    def load(cls, path) -> "RoadNetwork":
        """Read the text format of save(); blank lines and lines starting
        with '#' are skipped. Numbers are parsed by numpy's C reader, which
        rounds correctly, as ``float`` does."""
        with open(path, encoding="utf-8") as f:
            lines = [line.strip() for line in f.read().split("\n")]
        # One pass sorts the lines by record kind and flags any other line
        # that is not blank or a comment.
        rows = {kind: [] for kind in _RECORDS}
        other = False
        for line in lines:
            group = rows.get(line[:5])
            if group is not None:
                group.append(line)
            elif line and line[0] != "#":
                other = True
        try:
            nodes, edges = (_records(rows[kind], kind, dtype)
                            for kind, dtype in _RECORDS.items())
        except ValueError:
            other = True
        if other:
            _raise_at_first_bad_line(path, lines)
        order = np.argsort(nodes["id"], kind="stable")
        ids = nodes["id"][order]
        repeat = np.flatnonzero(ids[1:] == ids[:-1])
        if len(repeat):
            at = np.array([n for n, line in enumerate(lines, 1)
                           if line.startswith("node,")])[order]
            j = repeat[np.argmin(at[repeat + 1])]  # the first in the file
            raise ValueError(f"{path}: node {ids[j]} is defined twice, at "
                             f"lines {at[j]} and {at[j + 1]}")
        return cls(ids, nodes["lat"][order], nodes["lon"][order], edges["a"],
                   edges["b"], edges["length"])


# The record kinds of a network file, each with three comma-separated fields.
_RECORDS = {"node,": [("id", np.int64), ("lat", float), ("lon", float)],
            "edge,": [("a", np.int64), ("b", np.int64), ("length", float)]}


def _records(rows: list, kind: str, dtype) -> np.ndarray:
    """The fields of the lines of one record kind, as a record array."""
    if not rows:
        return np.zeros(0, dtype=dtype)
    text = "".join(rows)
    # loadtxt rejects a row with fewer than 3 fields, so with 3 per row on
    # average no row has more.
    if text.count(",") != 3 * len(rows) or unreadable(text):
        raise ValueError(f"unreadable {kind[:-1]} record")
    return np.loadtxt(rows, delimiter=",", usecols=(1, 2, 3), comments=None,
                      dtype=dtype, ndmin=1)


def _raise_at_first_bad_line(path, lines: list):
    """Raise a ValueError that names the first line that is not a valid
    record, blank or comment."""
    for lineno, line in enumerate(lines, 1):
        if not line or line[0] == "#":
            continue
        dtype = _RECORDS.get(line[:5])
        if dtype is None or line.count(",") != 3:
            raise ValueError(f"{path}:{lineno}: unrecognized record {line!r}")
        try:
            _records([line], line[:5], dtype)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad number in record "
                             f"{line!r} (numbers are ASCII, without "
                             f"underscores)") from None
    raise ValueError(f"{path}: unreadable network")


def route_distances(ends: tuple, here: slice, there: slice,
                    dists: dict) -> list[float]:
    """Shortest on-network distances from each candidate row in ``here`` to
    each in ``there``, row by row, ``inf`` where there is no route. ``ends``
    holds the columns of RoadNetwork.candidate_ends. ``dists[n]`` holds the
    settled distances from node n, for each end node n of a ``here`` row
    off the edge of a ``there`` one; it must hold every end node of the
    ``there`` rows within reach.

    Two points on one edge are the difference of their offsets apart;
    otherwise the route leaves the first edge by one of its ends and joins
    the second by one of its ends, the shortest of the four.
    """
    out = []
    to = list(zip(*(col[there] for col in ends)))
    for e1, a1, da1, b1, db1 in zip(*(col[here] for col in ends)):
        from_a, from_b = dists.get(a1), dists.get(b1)
        for e2, a2, da2, b2, db2 in to:
            if e1 == e2:
                out.append(abs(da2 - da1))
                continue
            best = math.inf
            for d1, settled in ((da1, from_a), (db1, from_b)):
                sp = settled.get(a2)
                if sp is not None and d1 + sp + da2 < best:
                    best = d1 + sp + da2
                sp = settled.get(b2)
                if sp is not None and d1 + sp + db2 < best:
                    best = d1 + sp + db2
            out.append(best)
    return out


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) - np.repeat(starts, counts)


class _CellIndex:
    """Edges by the square planar cells of side ``side`` that their segments
    cross. Only occupied cells are kept: their sorted keys, and for each the
    run of its edges in ``edges``, from ``start[i]`` to ``start[i + 1]``."""

    def __init__(self, ax, ay, dx, dy, side: float):
        self.side = side
        # An edge is also put in every cell within ``slack`` of its segment,
        # so no rounding in the traversal below loses a cell it crosses.
        # Rounding moves a coordinate by a few ulps of the network's extent,
        # which spans at most 2**30 cells: under 3e-7 of a cell.
        self.slack = 1e-6 * side
        bx, by = ax + dx, ay + dy
        # A cell of margin keeps the cell coordinates of every edge at 0 or
        # more.
        self.x0 = min(ax.min(), bx.min()) - side
        self.y0 = min(ay.min(), by.min()) - side
        self.n_cols = int(self._cell(max(ax.max(), bx.max()), self.x0)) + 2
        self.n_rows = int(self._cell(max(ay.max(), by.max()), self.y0)) + 2
        # The columns each segment spans, then in each column the rows that
        # the segment's part inside that column slab spans.
        lo = self._cell(np.minimum(ax, bx) - self.slack, self.x0)
        hi = self._cell(np.maximum(ax, bx) + self.slack, self.x0)
        edge = np.repeat(np.arange(len(ax)), hi - lo + 1)
        col = lo[edge] + _ranks(hi - lo + 1)
        a_x, a_y, d_x, d_y = ax[edge], ay[edge], dx[edge], dy[edge]
        slab = self.x0 + col * side
        with np.errstate(divide="ignore", invalid="ignore"):
            t0 = (slab - self.slack - a_x) / d_x
            t1 = (slab + side + self.slack - a_x) / d_x
        upright = d_x == 0
        t0 = np.where(upright, 0.0, np.clip(t0, 0.0, 1.0))
        t1 = np.where(upright, 1.0, np.clip(t1, 0.0, 1.0))
        y0, y1 = a_y + t0 * d_y, a_y + t1 * d_y
        lo = self._cell(np.minimum(y0, y1) - self.slack, self.y0)
        hi = self._cell(np.maximum(y0, y1) + self.slack, self.y0)
        pick = np.repeat(np.arange(len(col)), hi - lo + 1)
        keys = col[pick] * self.n_rows + lo[pick] + _ranks(hi - lo + 1)
        order = np.argsort(keys, kind="stable")
        self.keys, at = np.unique(keys[order], return_index=True)
        self.start = np.append(at, len(keys))
        self.edges = edge[pick][order]

    def _cell(self, v, origin):
        """Cell coordinate of planar coordinates ``v``. The clip, far beyond
        the 2**30 + 3 cells an index spans at most, keeps a far point's
        coordinate and key within int64."""
        c = np.floor(np.clip((v - origin) / self.side, -1.0, 2.0 ** 31))
        return c.astype(np.int64)

    def pairs(self, px, py, reach: float):
        """(point, edge) index pairs: each point with every edge held in a
        cell that meets the square of half-side ``reach`` around it. An edge
        comes once per such cell."""
        c_lo = np.maximum(self._cell(px - reach, self.x0), 0)
        c_hi = np.minimum(self._cell(px + reach, self.x0), self.n_cols - 1)
        r_lo = np.maximum(self._cell(py - reach, self.y0), 0)
        r_hi = np.minimum(self._cell(py + reach, self.y0), self.n_rows - 1)
        n_c = int(max(np.max(c_hi - c_lo, initial=-1) + 1, 0))
        n_r = int(max(np.max(r_hi - r_lo, initial=-1) + 1, 0))
        cols = c_lo[:, None, None] + np.arange(n_c)[:, None]
        rows = r_lo[:, None, None] + np.arange(n_r)
        inside = (cols <= c_hi[:, None, None]) & (rows <= r_hi[:, None, None])
        point = np.broadcast_to(np.arange(len(px))[:, None, None],
                                inside.shape)[inside]
        keys = np.broadcast_to(cols * self.n_rows + rows, inside.shape)[inside]
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        hit = self.keys[at] == keys
        point, at = point[hit], at[hit]
        count = self.start[at + 1] - self.start[at]
        edge = self.edges[np.repeat(self.start[at], count) + _ranks(count)]
        return np.repeat(point, count), edge

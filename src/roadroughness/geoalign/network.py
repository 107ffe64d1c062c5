"""Road network graph with candidate projection and routing."""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..geo import (EARTH_RADIUS_M, LocalProjection, Polyline, haversine,
                   haversine_pointwise)

# Edge lengths must agree with the great-circle distance between endpoints.
LENGTH_REL_TOL = 0.005
LENGTH_ABS_TOL = 0.05

# No fix with a valid position is farther than this from any network point
# in the planar frame: |dlat| <= pi and |dlon| <= 2 pi radians, times R.
PLANAR_REACH_M = 1e8


@dataclass(frozen=True)
class Candidate:
    """A projection of one GPS fix onto one edge."""

    edge: int
    offset: float   # meters from the edge's first node
    dist: float     # great-circle fix-to-projection distance, meters
    lat: float
    lon: float


class RoadNetwork:
    """Undirected node/edge graph over geographic coordinates.

    Geometry is kept both as lat/lon and as local planar meters; projections
    and routing run in the planar frame, reported distances use haversine.
    """

    def __init__(self, nodes: dict, edges: list):
        if not nodes or not edges:
            raise ValueError("network needs nodes and edges")
        self.node_ids = sorted(nodes)
        self._index = {nid: i for i, nid in enumerate(self.node_ids)}
        self.node_lat = np.array([nodes[nid][0] for nid in self.node_ids])
        self.node_lon = np.array([nodes[nid][1] for nid in self.node_ids])
        bad = np.flatnonzero(~((np.abs(self.node_lat) <= 90.0)
                               & (np.abs(self.node_lon) <= 180.0)))
        if len(bad):
            i = int(bad[0])
            raise ValueError(f"node {self.node_ids[i]} has invalid coordinates "
                             f"({self.node_lat[i]}, {self.node_lon[i]})")
        self.proj = LocalProjection(float(self.node_lat.mean()),
                                    float(self.node_lon.mean()))
        self.node_x, self.node_y = self.proj.to_xy(self.node_lat, self.node_lon)

        ea, eb, lengths = [], [], []
        for rec in edges:
            a, b = rec[0], rec[1]
            try:
                ia, ib = self._index[a], self._index[b]
            except KeyError as exc:
                raise ValueError(f"edge ({a},{b}) names unknown node "
                                 f"{exc.args[0]}") from None
            if len(rec) > 2 and rec[2] is not None:
                length = float(rec[2])
            else:
                # Scalar haversine: these lengths are written out by save(),
                # and the array form can differ from it in the last bit.
                length = float(haversine(self.node_lat[ia], self.node_lon[ia],
                                         self.node_lat[ib], self.node_lon[ib]))
            ea.append(ia)
            eb.append(ib)
            lengths.append(length)
        self.edge_a = np.array(ea, dtype=int)
        self.edge_b = np.array(eb, dtype=int)
        self.edge_len = np.array(lengths)
        gc = haversine(self.node_lat[self.edge_a], self.node_lon[self.edge_a],
                       self.node_lat[self.edge_b], self.node_lon[self.edge_b])
        positive = np.isfinite(self.edge_len) & (self.edge_len > 0)
        off = ~positive | (np.abs(self.edge_len - gc)
                           > np.maximum(LENGTH_REL_TOL * gc, LENGTH_ABS_TOL))
        if off.any():
            ei = int(np.argmax(off))
            a = self.node_ids[ea[ei]]
            b = self.node_ids[eb[ei]]
            if not positive[ei]:
                raise ValueError(f"edge ({a},{b}) has non-positive or "
                                 f"non-finite length {self.edge_len[ei]}")
            raise ValueError(
                f"edge ({a},{b}) length {self.edge_len[ei]:.2f} m deviates "
                f"from great-circle {gc[ei]:.2f} m by more than 0.5%")
        self._ax = self.node_x[self.edge_a]
        self._ay = self.node_y[self.edge_a]
        self._dx = self.node_x[self.edge_b] - self._ax
        self._dy = self.node_y[self.edge_b] - self._ay
        self._seg2 = np.maximum(self._dx ** 2 + self._dy ** 2, 1e-12)
        self._cells: _CellIndex | None = None

        self.adjacency: dict[int, list] = {i: [] for i in range(len(self.node_ids))}
        for ei, (ia, ib, ln) in enumerate(zip(ea, eb, lengths)):
            self.adjacency[ia].append((ei, ib, ln))
            self.adjacency[ib].append((ei, ia, ln))

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edge_a)

    @classmethod
    def from_polyline(cls, line: Polyline, id_start: int = 0) -> "RoadNetwork":
        nodes = {id_start + i: (float(line.lats[i]), float(line.lons[i]))
                 for i in range(len(line.lats))}
        edges = [(id_start + i, id_start + i + 1, None)
                 for i in range(len(line.lats) - 1)]
        return cls(nodes, edges)

    def candidates(self, lat, lon, max_candidates: int = 8,
                   radius: float = 50.0):
        """Nearest edge projections of one fix, closest first; for 1-D arrays
        of fixes, one such list per fix.

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
        f, e = f[keep], e[keep]
        found = [Candidate(*c) for c in zip(
            e.tolist(), (t[keep] * self.edge_len[e]).tolist(),
            gc[keep].tolist(), slat[keep].tolist(), slon[keep].tolist())]
        bounds = np.searchsorted(f, np.arange(len(fixes) + 1)).tolist()
        out: list[list[Candidate]] = [[] for _ in range(len(lats))]
        for j, i in enumerate(fixes.tolist()):
            out[i] = found[bounds[j]:bounds[j + 1]]
        return out[0] if np.ndim(lat) == 0 else out

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

    def shortest_node_dists(self, source: int, cutoff: float,
                            targets=None) -> dict[int, float]:
        """Dijkstra distances from a node index, pruned at ``cutoff`` meters.

        With ``targets`` (node indices) the search stops as soon as every
        target is settled and returns the settled nodes only. Up to that
        point it settles the same nodes in the same order as the full
        search, and a settled distance is final, so every returned distance
        equals the full search's. A target beyond ``cutoff`` or unreachable
        lets the search run out.
        """
        dist = {source: 0.0}
        settled = {}
        remaining = None if targets is None else set(targets)
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u] or d > cutoff:
                continue
            if remaining is not None:
                settled[u] = d
                remaining.discard(u)
                if not remaining:
                    break
            for _, v, ln in self.adjacency[u]:
                nd = d + ln
                if nd < dist.get(v, np.inf) and nd <= cutoff:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist if remaining is None else settled

    def route_distance(self, c1: Candidate, c2: Candidate, cutoff: float,
                       _dist_cache: dict | None = None,
                       targets=None) -> float:
        """Shortest on-network distance between two candidate points.

        Returns ``inf`` when no route exists within ``cutoff``. ``targets``
        bounds the searches from c1's end nodes (see shortest_node_dists):
        it must hold c2's end nodes, and those of every candidate routed to
        through the same ``_dist_cache``.
        """
        if c1.edge == c2.edge:
            return abs(c2.offset - c1.offset)
        ends1 = ((int(self.edge_a[c1.edge]), c1.offset),
                 (int(self.edge_b[c1.edge]), float(self.edge_len[c1.edge]) - c1.offset))
        ends2 = ((int(self.edge_a[c2.edge]), c2.offset),
                 (int(self.edge_b[c2.edge]), float(self.edge_len[c2.edge]) - c2.offset))
        best = np.inf
        for n1, d1 in ends1:
            if _dist_cache is not None and n1 in _dist_cache:
                dists = _dist_cache[n1]
            else:
                dists = self.shortest_node_dists(n1, cutoff, targets)
                if _dist_cache is not None:
                    _dist_cache[n1] = dists
            for n2, d2 in ends2:
                sp = dists.get(n2)
                if sp is not None:
                    best = min(best, d1 + sp + d2)
        return float(best)

    def save(self, path) -> None:
        """Write the text format: node,<id>,<lat>,<lon> / edge,<a>,<b>,<length_m>."""
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            for nid in self.node_ids:
                i = self._index[nid]
                f.write(f"node,{nid},{float(self.node_lat[i])!r},"
                        f"{float(self.node_lon[i])!r}\n")
            for ei in range(self.n_edges):
                a = self.node_ids[int(self.edge_a[ei])]
                b = self.node_ids[int(self.edge_b[ei])]
                f.write(f"edge,{a},{b},{float(self.edge_len[ei])!r}\n")

    @classmethod
    def load(cls, path) -> "RoadNetwork":
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
                    raise ValueError(f"{path}:{lineno}: unrecognized record {line!r}")
        return cls(nodes, edges)


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

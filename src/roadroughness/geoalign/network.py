"""Road network graph with candidate projection and routing."""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..geo import LocalProjection, Polyline, haversine
from ..topk import smallest_k

# Edge lengths must agree with the great-circle distance between endpoints.
LENGTH_REL_TOL = 0.005
LENGTH_ABS_TOL = 0.05


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

    def candidates(self, lat: float, lon: float, max_candidates: int = 8,
                   radius: float = 50.0) -> list[Candidate]:
        """Nearest edge projections of one fix, closest first. A fix without
        a finite position has none."""
        if not (np.isfinite(lat) and np.isfinite(lon)):
            return []
        px, py = self.proj.to_xy(lat, lon)
        t = np.clip(((px - self._ax) * self._dx + (py - self._ay) * self._dy)
                    / self._seg2, 0.0, 1.0)
        sx = self._ax + t * self._dx
        sy = self._ay + t * self._dy
        d2 = (px - sx) ** 2 + (py - sy) ** 2
        order = smallest_k(d2, max_candidates)
        out = []
        for ei in order:
            slat, slon = self.proj.to_latlon(sx[ei], sy[ei])
            gc = float(haversine(lat, lon, slat, slon))
            if gc > radius:
                continue
            out.append(Candidate(int(ei), float(t[ei] * self.edge_len[ei]), gc,
                                 float(slat), float(slon)))
        return out

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

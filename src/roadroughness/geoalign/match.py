"""HMM map matching over GPS fixes (Newson-Krumm style).

Hidden states are candidate edge projections, the rows of one
``Candidates`` record for the whole trace; observations are GPS fixes.
Emission log-density is -d_gc^2 / (2 sigma^2) for the fix-to-projection
great-circle distance; transition log-density is -|d_route - d_gc| / beta
between consecutive candidates. The Viterbi optimum is returned.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geo import haversine_pointwise
from .network import RoadNetwork, route_distances

DEFAULT_SIGMA = 4.07
DEFAULT_BETA = 20.0


class UnmatchedFixError(ValueError):
    """A GPS fix has no candidate edge within the search radius."""

    def __init__(self, fix_index: int):
        super().__init__(f"fix {fix_index} has no candidate edge in range")
        self.fix_index = fix_index


class BrokenTraceError(ValueError):
    """No connected candidate path exists between consecutive fixes."""

    def __init__(self, fix_index: int, prev_index: int | None = None):
        prev = fix_index - 1 if prev_index is None else prev_index
        super().__init__(f"no connected candidates between fixes "
                         f"{prev} and {fix_index}")
        self.fix_index = fix_index


@dataclass
class MatchedTrace:
    """Per-fix snapped positions and the most probable edge sequence."""

    t: np.ndarray
    fix_lat: np.ndarray
    fix_lon: np.ndarray
    edge: np.ndarray
    offset: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    log_score: float
    n_unmatched: int = 0  # fixes dropped: no edge in range, or not finite

    def __len__(self) -> int:
        return len(self.t)

    def edge_path(self) -> list[int]:
        """Edge sequence with consecutive duplicates removed."""
        new = np.ones(len(self.edge), dtype=bool)
        new[1:] = self.edge[1:] != self.edge[:-1]
        return self.edge[new].tolist()


class Lattice(tuple):
    """``(steps, emissions, transitions)`` over the fixes that have a
    candidate edge in range; ``kept`` holds their indices in the input and
    ``candidates`` the trace's record, whose rows ``steps[i]`` are step i's
    states."""

    def __new__(cls, steps, emissions, transitions, kept, candidates):
        lattice = super().__new__(cls, (steps, emissions, transitions))
        lattice.kept = kept
        lattice.candidates = candidates
        return lattice


def build_lattice(lats, lons, network: RoadNetwork, sigma: float = DEFAULT_SIGMA,
                  beta: float = DEFAULT_BETA, max_candidates: int = 8,
                  radius: float = 50.0) -> Lattice:
    """Candidates with emission scores per fix, plus transition score matrices.

    Returns ``(steps, emissions, transitions)`` where ``steps[i]`` is the
    range of candidate rows of the i-th kept fix and ``transitions[i]`` maps
    candidates of step i to candidates of step i+1. A fix with no edge
    within ``radius``, or without a finite position, is dropped
    (``Lattice.kept`` lists the fixes kept);
    ``UnmatchedFixError`` names the first dropped fix if fewer than 2 remain.
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    if len(lats) < 2:
        raise ValueError("need at least 2 fixes")
    cands = network.candidates(lats, lons, max_candidates, radius)
    counts = np.diff(cands.start)
    kept = np.flatnonzero(counts)
    if len(kept) < 2:
        raise UnmatchedFixError(int(np.argmin(counts)))
    # Every row belongs to a kept fix, so the kept fixes' starts cut the
    # rows into steps.
    bounds = np.append(cands.start[kept], len(cands)).tolist()
    steps = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    # Python-float squares, as the scalar ``** 2`` (libm pow) takes them: an
    # array's np.square can differ in the last bit.
    emissions = np.split(-np.array([d ** 2 for d in cands.dist.tolist()])
                         / (2.0 * sigma ** 2), bounds[1:-1])
    lats, lons = lats[kept], lons[kept]
    d_gcs = haversine_pointwise(lats[:-1], lons[:-1], lats[1:],
                                lons[1:]).tolist()
    ends = network.candidate_ends(cands)
    _, end_a, _, end_b, _ = ends
    # One resumable search per (source node, cutoff) for the whole trace:
    # consecutive fixes share most of their candidate edges, so a node is a
    # source step after step.
    searches: dict = {}
    d_route: list[float] = []
    for i, d_gc in enumerate(d_gcs):
        cutoff = max(10.0 * (d_gc + 1.0), 2000.0)
        here = slice(bounds[i], bounds[i + 1])
        there = slice(bounds[i + 1], bounds[i + 2])
        # Each search from a step-i end node runs until the end nodes of
        # every step-(i+1) candidate are settled.
        targets = set(end_a[there]) | set(end_b[there])
        dists = {}
        for pair in zip(end_a[here], end_b[here]):
            for n in pair:
                if n not in dists:
                    dists[n] = network.shortest_node_dists(n, cutoff, targets,
                                                           searches)
        d_route += route_distances(ends, here, there, dists)
    # The scores of all steps in one pass, then cut into one matrix a step.
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
        raise BrokenTraceError(int(kept[step + 1]), int(kept[step]))
    transitions = [scores[lo:lo + n * m].reshape(n, m) for lo, n, m in zip(
        starts.tolist(), sizes[:-1].tolist(), sizes[1:].tolist())]
    return Lattice(steps, emissions, transitions, kept, cands)


def viterbi_path(emissions, transitions):
    """Most probable state sequence over the lattice; returns (path, score)."""
    score = emissions[0].copy()
    back: list[np.ndarray] = []
    for i, mat in enumerate(transitions):
        total = score[:, None] + mat
        best_prev = np.argmax(total, axis=0)
        score = total[best_prev, np.arange(mat.shape[1])] + emissions[i + 1]
        back.append(best_prev)
    last = int(np.argmax(score))
    best_score = float(score[last])
    path = [last]
    for bp in reversed(back):
        path.append(int(bp[path[-1]]))
    path.reverse()
    return path, best_score


def match_fixes(t, lats, lons, network: RoadNetwork, sigma: float = DEFAULT_SIGMA,
                beta: float = DEFAULT_BETA, max_candidates: int = 8,
                radius: float = 50.0) -> MatchedTrace:
    """Snap a sequence of timestamped fixes to the network. Fixes with no
    edge within ``radius``, or without a finite position, are left out of
    the result and counted in its ``n_unmatched``."""
    lattice = build_lattice(lats, lons, network, sigma, beta, max_candidates,
                            radius)
    _, emissions, transitions = lattice
    kept, cands = lattice.kept, lattice.candidates
    path, log_score = viterbi_path(emissions, transitions)
    rows = cands.start[kept] + path
    return MatchedTrace(
        t=np.asarray(t, dtype=float)[kept],
        fix_lat=np.asarray(lats, dtype=float)[kept],
        fix_lon=np.asarray(lons, dtype=float)[kept],
        edge=cands.edge[rows],
        offset=cands.offset[rows],
        lat=cands.lat[rows],
        lon=cands.lon[rows],
        log_score=log_score,
        n_unmatched=len(lats) - len(kept),
    )


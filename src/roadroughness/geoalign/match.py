"""HMM map matching over GPS fixes (Newson-Krumm style).

Hidden states are candidate edge projections, observations are GPS fixes.
Emission log-density is -d_gc^2 / (2 sigma^2) for the fix-to-projection
great-circle distance; transition log-density is -|d_route - d_gc| / beta
between consecutive candidates. The Viterbi optimum is returned.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geo import haversine_pointwise
from .network import Candidate, RoadNetwork, route_distances

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
        path = []
        for e in self.edge:
            if not path or path[-1] != e:
                path.append(int(e))
        return path


class Lattice(tuple):
    """``(steps, emissions, transitions)`` over the fixes that have a
    candidate edge in range; ``kept`` holds their indices in the input."""

    def __new__(cls, steps, emissions, transitions, kept):
        lattice = super().__new__(cls, (steps, emissions, transitions))
        lattice.kept = kept
        return lattice


def build_lattice(lats, lons, network: RoadNetwork, sigma: float = DEFAULT_SIGMA,
                  beta: float = DEFAULT_BETA, max_candidates: int = 8,
                  radius: float = 50.0) -> Lattice:
    """Candidates with emission scores per fix, plus transition score matrices.

    Returns ``(steps, emissions, transitions)`` where ``transitions[i]`` maps
    candidates of step i to candidates of step i+1. A fix with no edge within
    ``radius``, or without a finite position, is dropped (``Lattice.kept``
    lists the fixes kept);
    ``UnmatchedFixError`` names the first dropped fix if fewer than 2 remain.
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    if len(lats) < 2:
        raise ValueError("need at least 2 fixes")
    steps: list[list[Candidate]] = []
    emissions: list[np.ndarray] = []
    kept: list[int] = []
    dropped: list[int] = []
    for i, cands in enumerate(network.candidates(lats, lons, max_candidates,
                                                 radius)):
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
    ends = network.candidate_ends([c for cands in steps for c in cands])
    bounds = np.cumsum([0] + [len(cands) for cands in steps]).tolist()
    step_ends = [ends[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    # One resumable search per (source node, cutoff) for the whole trace:
    # consecutive fixes share most of their candidate edges, so a node is a
    # source step after step.
    searches: dict = {}
    d_route: list[float] = []
    for i, d_gc in enumerate(d_gcs):
        cutoff = max(10.0 * (d_gc + 1.0), 2000.0)
        here, there = step_ends[i], step_ends[i + 1]
        # Each search from a step-i end node runs until the end nodes of
        # every step-(i+1) candidate are settled.
        targets = {n for _, a, _, b, _ in there for n in (a, b)}
        dists = {}
        for _, a, _, b, _ in here:
            for n in (a, b):
                if n not in dists:
                    dists[n] = network.shortest_node_dists(n, cutoff, targets,
                                                           searches)
        for row in route_distances(here, there, dists):
            d_route += row
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
        raise BrokenTraceError(kept[step + 1], kept[step])
    transitions = [scores[lo:lo + n * m].reshape(n, m) for lo, n, m in zip(
        starts.tolist(), sizes[:-1].tolist(), sizes[1:].tolist())]
    return Lattice(steps, emissions, transitions, np.array(kept))


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
    steps, emissions, transitions = lattice
    kept = lattice.kept
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


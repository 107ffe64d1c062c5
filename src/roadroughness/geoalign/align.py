"""Geo-reference every sensor sample and align data to reference segments."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..core import Reference, TelemetryTrace, Windows
from ..geo import haversine_radians
from .match import MatchedTrace

WINDOW_PIECES = 10  # 100 m window out of 10 m pieces
MIN_PIECE_SAMPLES = 2
# Samples between the anchors whose distances bound the unmeasured part of
# a search window (``_search``). Pieces span ~36 samples at the default
# settings. Set by timing the survey drive.
ANCHOR_STRIDE = 32
# Relative margin taken off each triangle-inequality bound for rounding.
BOUND_MARGIN = 1e-9
# Piece ends per ``_search`` call, and the most samples a search window is
# widened by on either side, to hold the window of a previous end that moves.
SEARCH_ROWS = 64
GUESS_SLACK = 32


@dataclass
class InterpolatedPositions:
    """Per-sample positions for the samples bracketed by GPS fixes."""

    idx: np.ndarray   # indices into the trace
    lat: np.ndarray
    lon: np.ndarray
    n_dropped: int    # samples outside the fix time range

    def __len__(self) -> int:
        return len(self.idx)


@dataclass
class Pieces:
    """The reference segments that kept their samples: segment ``seg[k]``
    holds the positioned samples ``start[k]:stop[k]`` (indices into
    ``InterpolatedPositions``) and has the IRI ``iri[k]``."""

    seg: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    iri: np.ndarray

    def __len__(self) -> int:
        return len(self.seg)


def interpolate_positions(trace: TelemetryTrace,
                          matched: MatchedTrace) -> InterpolatedPositions:
    """Assign a position to every sensor sample by linear interpolation in
    time between adjacent snapped fixes (constant speed assumption)."""
    if len(matched) < 2:
        raise ValueError("need at least 2 matched fixes")
    fixes = np.column_stack([matched.t, matched.lat, matched.lon])
    bad = np.flatnonzero(~np.isfinite(fixes).all(axis=1))
    if len(bad):
        t, lat, lon = fixes[bad[0]].tolist()
        raise ValueError(f"matched fix {bad[0]} is not finite: t {t}, "
                         f"lat {lat}, lon {lon}")
    back = np.flatnonzero(np.diff(matched.t) <= 0)
    if len(back):
        i = back[0] + 1
        raise ValueError(f"matched fix times must be strictly increasing: "
                         f"fix {i} at {matched.t[i]} s follows "
                         f"{matched.t[i - 1]} s")
    t0, t1 = matched.t[0], matched.t[-1]
    mask = (trace.t >= t0) & (trace.t <= t1)
    if not np.any(mask):
        raise ValueError("no samples fall inside the matched fix time range")
    idx = np.flatnonzero(mask)
    lat = np.interp(trace.t[idx], matched.t, matched.lat)
    lon = np.interp(trace.t[idx], matched.t, matched.lon)
    n_dropped = len(trace) - len(idx)
    if n_dropped:
        warnings.warn(f"{n_dropped} samples outside GPS fix range were dropped",
                      stacklevel=2)
    return InterpolatedPositions(idx, lat, lon, n_dropped)


def piece_boundaries(reference: Reference,
                     positions: InterpolatedPositions, search_back: int,
                     search_ahead: int) -> list[int]:
    """Index (into positions) of the sample nearest to the start of the
    first reference segment and to the end of every segment.

    Both the samples and the reference segments run in route order, so each
    end is searched for from ``search_back`` samples before to
    ``search_ahead`` samples after the previous match. Ties go to the
    earlier timestamp, by argmin's first-occurrence rule.

    The first end is searched for in the whole trace and every other end is
    guessed: the sample at the summed distance between the ends along the
    samples' path. Then every end is searched, SEARCH_ROWS at a time, in
    the window of its previous end widened by ``pad`` on either side: the
    slack (up to GUESS_SLACK samples), or none when that window's
    ``centre`` has not moved since the end's last search. The nearest
    sample of a widened window is that of each window within it that holds
    the sample, so an end stands once its previous end lies within ``pad``
    of ``centre`` and it lies in its previous end's window. The ends that
    do not stand are searched again until all do; once an end is final,
    the next is searched at most twice more. ``_search`` measures only part
    of each window.
    """
    if search_back < 0 or search_ahead < 1:
        raise ValueError("search_back must be at least 0 and search_ahead "
                         "at least 1")
    track = _Track.of(positions)
    end_lat = np.radians(np.append(reference.start_lat[:1], reference.end_lat))
    end_lon = np.radians(np.append(reference.start_lon[:1], reference.end_lon))
    end_cos = np.cos(end_lat)
    n, n_ends = len(track.lat), len(end_lat)
    if not n_ends:
        return []
    cursor = np.empty(n_ends, dtype=np.intp)
    # The first end's window is the whole trace.
    cursor[0] = _search(track, (end_lat[:1], end_lon[:1], end_cos[:1]),
                        np.zeros(1, np.intp), np.full(1, n),
                        np.zeros(1, np.intp))[0]
    # Path-length guesses, each within the window of the one before.
    hop = haversine_radians(end_lat[:-1], end_lon[:-1], end_cos[:-1],
                            end_lat[1:], end_lon[1:], end_cos[1:])
    at = np.searchsorted(track.path, track.path[cursor[0]] + np.cumsum(hop))
    cursor[1:] = np.clip(cursor[0] + np.cumsum(np.clip(
        np.diff(at, prepend=cursor[0]), -search_back, search_ahead - 1)),
        0, n - 1)
    # A result found in a window widened by much more than the window's own
    # size would often fall outside the window of the actual match.
    slack = min(GUESS_SLACK, search_back // 2, search_ahead // 4)
    centre = np.full(n_ends, -1, dtype=np.intp)  # -1: not searched yet
    pad = np.zeros(n_ends, dtype=np.intp)
    todo = np.arange(1, n_ends)
    while len(todo):
        pad[todo] = np.where(cursor[todo - 1] == centre[todo], 0, slack)
        centre[todo] = cursor[todo - 1]
        for i in range(0, len(todo), SEARCH_ROWS):
            k = todo[i:i + SEARCH_ROWS]
            cursor[k] = _search(
                track, (end_lat[k], end_lon[k], end_cos[k]),
                np.maximum(centre[k] - pad[k] - search_back, 0),
                np.minimum(centre[k] + pad[k] + search_ahead, n), cursor[k])
        move = cursor[1:] - cursor[:-1]
        todo = 1 + np.flatnonzero((np.abs(cursor[:-1] - centre[1:]) > pad[1:])
                                  | (move < -search_back)
                                  | (move >= search_ahead))
    return cursor.tolist()


@dataclass
class _Track:
    """The positioned samples in radians, the path length along them from
    the first to each, and the anchors: every ANCHOR_STRIDE-th sample and
    the last one, with the path length from each to the next (0 after the
    last), summed over the anchor's own steps."""

    lat: np.ndarray
    lon: np.ndarray
    cos_lat: np.ndarray
    path: np.ndarray
    anchor: np.ndarray
    gap: np.ndarray

    @classmethod
    def of(cls, positions: InterpolatedPositions) -> "_Track":
        lat = np.radians(positions.lat)
        lon = np.radians(positions.lon)
        cos_lat = np.cos(lat)
        step = haversine_radians(lat[:-1], lon[:-1], cos_lat[:-1],
                                 lat[1:], lon[1:], cos_lat[1:])
        anchor = np.append(np.arange(0, len(lat) - 1, ANCHOR_STRIDE),
                           len(lat) - 1)
        gap = np.append(np.add.reduceat(step, anchor[:-1])
                        if len(step) else step, 0.0)
        return cls(lat, lon, cos_lat, np.concatenate([[0.0], np.cumsum(step)]),
                   anchor, gap)

    def distance(self, idx, end) -> np.ndarray:
        """Distance of the samples ``idx`` to the ends ``end`` (radians and
        cosine of latitude, broadcast against ``idx``)."""
        return haversine_radians(self.lat[idx], self.lon[idx],
                                 self.cos_lat[idx], *end)

    def gap_bound(self, first, last, end) -> np.ndarray:
        """Per row, a lower bound on the distance to the row's end of every
        sample from anchor ``first`` to anchor ``last`` (indices into
        ``anchor``; +inf where ``first > last``).

        A sample j between anchors a and b lies within the path length from
        a to j of a and from j to b of b, so by the triangle inequality its
        distance is at least ``(d_a + d_b - path_ab) / 2``. Each of the
        three terms is computed to a few ulps (a path of ANCHOR_STRIDE steps
        to ~40), so the bound is lowered by BOUND_MARGIN times their sum,
        some 10^5 times that rounding.
        """
        empty = first > last
        first = np.where(empty, last, first)
        a = np.minimum(first[:, None] + np.arange(max(np.max(last - first), 1)
                                                  + 1), last[:, None])
        d = self.distance(self.anchor[a], end)
        total = d[:, :-1] + d[:, 1:]
        path = np.where(a[:, 1:] > a[:, :-1], self.gap[a[:, :-1]], 0.0)
        bound = np.min(0.5 * (total - path) - BOUND_MARGIN * (total + path),
                       axis=1)
        bound[empty] = np.inf
        return bound


def _search(track: _Track, end, lo, hi, guess) -> np.ndarray:
    """Per row, the first sample of ``lo:hi`` nearest to the row's end
    (``end`` holds the ends' latitudes and longitudes in radians and the
    cosines of the latitudes).

    Only a block of samples around ``guess`` is measured: the anchor gap
    that holds it and the gap on either side. The rest of the window is
    bounded from below (``_Track.gap_bound``); a row is measured in full
    unless every bound exceeds the block's minimum.
    """
    stride = ANCHOR_STRIDE
    guess = np.clip(guess, lo, hi - 1)
    b0 = np.maximum(lo, (guess // stride - 1) * stride)
    b1 = np.minimum(hi, (guess // stride + 2) * stride)
    column = tuple(e[:, None] for e in end)
    idx = b0[:, None] + np.arange(np.max(b1 - b0))
    outside = idx >= b1[:, None]
    np.minimum(idx, (b1 - 1)[:, None], out=idx)
    d = track.distance(idx, column)
    d[outside] = np.inf
    j = np.argmin(d, axis=1)
    nearest = d[np.arange(len(j)), j]
    # The block starts and ends at an anchor unless it starts at lo or ends
    # at hi; the bounds run from the anchor at or before lo to the block,
    # and from the block to the anchor at or after the window's last sample.
    last = np.minimum(-(-(hi - 1) // stride), len(track.anchor) - 1)
    bound = np.minimum(
        track.gap_bound(np.where(b0 > lo, lo // stride, b0 // stride + 1),
                        b0 // stride, column),
        track.gap_bound(np.where(b1 < hi, b1 // stride, last + 1),
                        last, column))
    found = b0 + j
    for r in np.flatnonzero(~(bound > nearest)).tolist():
        d = track.distance(slice(lo[r], hi[r]), [e[r] for e in end])
        found[r] = lo[r] + int(np.argmin(d))
    return found


def align_segments(reference: Reference,
                   positions: InterpolatedPositions,
                   search_back: int = 100,
                   search_ahead: int = 2000) -> tuple[Pieces, int]:
    """Assign samples to each reference segment between its matched endpoints
    (``piece_boundaries``). Pieces with fewer than 2 samples are dropped;
    the drop count is returned.
    """
    if len(reference) == 0:
        raise ValueError("no reference segments")
    if len(positions) == 0:
        raise ValueError("no positioned samples")
    bounds = np.array(piece_boundaries(reference, positions, search_back,
                                       search_ahead))
    start, stop = bounds[:-1], bounds[1:]
    keep = np.flatnonzero(stop - start >= MIN_PIECE_SAMPLES)
    return (Pieces(keep, start[keep], stop[keep], reference.iri[keep]),
            len(reference) - len(keep))


def sliding_windows(pieces: Pieces, positions: InterpolatedPositions,
                    trace: TelemetryTrace,
                    window: int = WINDOW_PIECES) -> Windows:
    """Overlapping windows of ``window`` consecutive pieces, step one piece.

    The window IRI is the unweighted mean of the piece IRIs and the channels
    are the concatenated samples of the pieces. Consecutive pieces share
    their boundary, so these are the samples from the first piece's start
    to the last piece's stop. Windows spanning a dropped piece are skipped
    so every window covers the full nominal length.
    """
    n_runs = max(len(pieces) - window + 1, 0)
    first = np.flatnonzero(pieces.seg[window - 1:window - 1 + n_runs]
                           - pieces.seg[:n_runs] == window - 1)
    start = pieces.start[first]
    lengths = pieces.stop[first + window - 1] - start
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    rows = positions.idx[np.repeat(start - offsets[:-1], lengths)
                         + np.arange(offsets[-1])]
    if not len(first):
        warnings.warn("no complete windows could be formed", stacklevel=2)
    return Windows(trace.t[rows], trace.acc_z[rows], trace.speed[rows],
                   offsets, pieces.seg[first],
                   pieces.iri[first[:, None] + np.arange(window)].mean(axis=1))

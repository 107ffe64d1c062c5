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
    """
    # Every search measures from these samples: convert them once.
    lat = np.radians(positions.lat)
    lon = np.radians(positions.lon)
    cos_lat = np.cos(lat)
    end_lat = np.radians(np.append(reference.start_lat[:1], reference.end_lat))
    end_lon = np.radians(np.append(reference.start_lon[:1], reference.end_lon))
    end_cos = np.cos(end_lat)
    n = len(positions)
    boundaries = []
    lo, hi = 0, n
    for k in range(len(end_lat)):
        d = haversine_radians(lat[lo:hi], lon[lo:hi], cos_lat[lo:hi],
                              end_lat[k], end_lon[k], end_cos[k])
        cursor = lo + int(np.argmin(d))
        boundaries.append(cursor)
        lo = max(0, cursor - search_back)
        hi = min(n, cursor + search_ahead)
    return boundaries


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

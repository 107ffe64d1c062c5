"""GPS-to-road snapping and sensor/reference segment alignment."""

from .network import Candidates, RoadNetwork
from .match import MatchedTrace, match_fixes, viterbi_path, build_lattice
from .match import UnmatchedFixError, BrokenTraceError
from .align import (InterpolatedPositions, Pieces, interpolate_positions,
                    align_segments, sliding_windows)

__all__ = [
    "Candidates", "RoadNetwork", "MatchedTrace", "match_fixes",
    "viterbi_path", "build_lattice", "UnmatchedFixError", "BrokenTraceError",
    "InterpolatedPositions", "Pieces", "interpolate_positions",
    "align_segments", "sliding_windows",
]

"""GPS-to-road snapping and sensor/reference segment alignment."""

from .network import RoadNetwork, Candidate
from .match import MatchedTrace, match_fixes, viterbi_path, build_lattice
from .match import UnmatchedFixError, BrokenTraceError
from .align import (InterpolatedPositions, Pieces, interpolate_positions,
                    align_segments, sliding_windows)

__all__ = [
    "RoadNetwork", "Candidate", "MatchedTrace", "match_fixes",
    "viterbi_path", "build_lattice", "UnmatchedFixError", "BrokenTraceError",
    "InterpolatedPositions", "Pieces", "interpolate_positions",
    "align_segments", "sliding_windows",
]

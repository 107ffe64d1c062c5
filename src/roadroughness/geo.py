"""Small geodesy helpers shared by the simulation and alignment code."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_M = 6371008.8


def haversine(lat1, lon1, lat2, lon2):
    """Great-circle distance in meters; accepts scalars or arrays."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(a, dtype=float))
                              for a in (lat1, lon1, lat2, lon2))
    return haversine_radians(lat1, lon1, np.cos(lat1), lat2, lon2,
                             np.cos(lat2))


def haversine_radians(lat1, lon1, cos_lat1, lat2, lon2, cos_lat2):
    """``haversine`` of positions given in radians, with the cosine of each
    latitude, so that a caller measuring from the same positions many times
    converts them once."""
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = np.sin(dlat / 2) ** 2 + cos_lat1 * cos_lat2 * np.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def haversine_pointwise(lat1, lon1, lat2, lon2) -> np.ndarray:
    """``haversine`` over 1-D arrays whose every element equals, bit for bit,
    that of a scalar ``haversine`` call on the same four values.

    A scalar ``** 2`` is libm ``pow``, an array ``** 2`` is ``np.square``,
    and the two differ in the last bit on some inputs; so the two squares
    are taken as Python floats. The other operations agree elementwise.
    """
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(a, dtype=float))
                              for a in (lat1, lon1, lat2, lon2))
    sin_lat = np.array([v ** 2 for v in np.sin((lat2 - lat1) / 2).tolist()])
    sin_lon = np.array([v ** 2 for v in np.sin((lon2 - lon1) / 2).tolist()])
    h = sin_lat + np.cos(lat1) * np.cos(lat2) * sin_lon
    return 2 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


class LocalProjection:
    """Equirectangular projection around a reference point.

    Adequate at the few-kilometre scale used here; x is east, y is north,
    both in meters.
    """

    def __init__(self, lat0: float, lon0: float):
        self.lat0 = float(lat0)
        self.lon0 = float(lon0)
        self._coslat = np.cos(np.radians(lat0))

    def to_xy(self, lat, lon):
        lat = np.asarray(lat, dtype=float)
        lon = np.asarray(lon, dtype=float)
        x = np.radians(lon - self.lon0) * EARTH_RADIUS_M * self._coslat
        y = np.radians(lat - self.lat0) * EARTH_RADIUS_M
        return x, y

    def to_latlon(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        lat = self.lat0 + np.degrees(y / EARTH_RADIUS_M)
        lon = self.lon0 + np.degrees(x / (EARTH_RADIUS_M * self._coslat))
        return lat, lon


@dataclass
class Polyline:
    """An ordered lat/lon path with chainage lookup."""

    lats: np.ndarray
    lons: np.ndarray

    def __post_init__(self):
        self.lats = np.asarray(self.lats, dtype=float)
        self.lons = np.asarray(self.lons, dtype=float)
        if len(self.lats) != len(self.lons):
            raise ValueError("lats and lons differ in length")
        if len(self.lats) < 2:
            raise ValueError("polyline needs at least 2 vertices")
        seg = haversine(self.lats[:-1], self.lons[:-1], self.lats[1:], self.lons[1:])
        self.cum = np.concatenate([[0.0], np.cumsum(seg)])

    @property
    def length(self) -> float:
        return float(self.cum[-1])

    def point_at(self, s):
        """Lat/lon at chainage ``s`` (meters from the start), clamped to the ends."""
        s = np.clip(np.asarray(s, dtype=float), 0.0, self.length)
        lat = np.interp(s, self.cum, self.lats)
        lon = np.interp(s, self.cum, self.lons)
        return lat, lon

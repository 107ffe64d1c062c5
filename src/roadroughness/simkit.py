"""Synthetic roads, quarter-car dynamics, ground-truth IRI and telemetry.

The quarter-car model is the standard linear 2-mass system, normalized by
the sprung mass: k1 is the tire spring rate, k2 the suspension spring rate,
c the suspension damping and mu the unsprung/sprung mass ratio. The default
constants are the Golden Car values that define the IRI filter.

Road profiles are random realizations with a displacement PSD
G(n) = G0 * (n / n0)^-2 (n in cycles/m, n0 = 0.1), synthesized as superposed
cosines with uniform random phases.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import expm
from scipy.signal import lfilter, lfiltic, ss2tf

from .geo import LocalProjection, Polyline

IRI_SPEED_MS = 80.0 / 3.6
PSD_REF_FREQ = 0.1  # cycles/m
INIT_SLOPE_LENGTH_M = 11.0  # profile run-in used to seed the initial state


@dataclass(frozen=True)
class QuarterCarParams:
    """Sprung-mass-normalized quarter-car constants."""

    k1: float = 653.0   # tire spring rate, 1/s^2
    k2: float = 63.3    # suspension spring rate, 1/s^2
    c: float = 6.0      # suspension damping, 1/s
    mu: float = 0.15    # unsprung/sprung mass ratio

    def __post_init__(self):
        for name in ("k1", "k2", "mu"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.c < 0:
            raise ValueError("c must be non-negative")


GOLDEN_CAR = QuarterCarParams()


@dataclass
class RoadProfile:
    """Uniformly sampled longitudinal elevation profile."""

    dx: float
    elevation: np.ndarray

    def __post_init__(self):
        if self.dx <= 0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        self.elevation = np.asarray(self.elevation, dtype=float)
        if len(self.elevation) < 2:
            raise ValueError("profile needs at least 2 samples")
        if not np.all(np.isfinite(self.elevation)):
            raise ValueError("profile contains non-finite elevations")

    @property
    def length(self) -> float:
        return self.dx * (len(self.elevation) - 1)

    @property
    def x(self) -> np.ndarray:
        return np.arange(len(self.elevation)) * self.dx

    def scaled(self, alpha: float) -> "RoadProfile":
        return RoadProfile(self.dx, alpha * self.elevation)


@dataclass
class QuarterCarResponse:
    """Time series of the quarter-car state over a run."""

    t: np.ndarray
    z_s: np.ndarray
    v_s: np.ndarray
    z_u: np.ndarray
    v_u: np.ndarray
    acc_s: np.ndarray


@dataclass
class SimConfig:
    """Telemetry synthesis settings for one survey run."""

    vehicle: QuarterCarParams = GOLDEN_CAR
    speed_positions: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0]))
    speed_values: np.ndarray = field(default_factory=lambda: np.array([20.0, 20.0]))
    acc_rate: float = 50.0
    gps_rate: float = 1.0
    gps_noise_sigma: float = 3.0
    acc_noise_sigma: float = 0.03
    seed: int = 0

    def __post_init__(self):
        self.speed_positions = np.asarray(self.speed_positions, dtype=float)
        self.speed_values = np.asarray(self.speed_values, dtype=float)
        if self.acc_rate <= 0 or self.gps_rate <= 0:
            raise ValueError("sample rates must be positive")
        if self.gps_noise_sigma < 0 or self.acc_noise_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")
        if np.any(self.speed_values <= 0):
            raise ValueError("speeds must be positive")


def generate_profile(length: float, dx: float, roughness_coeff: float,
                     seed: int) -> RoadProfile:
    """Generate a zero-mean random profile with a 1/n^2 displacement PSD.

    ``roughness_coeff`` is G0 = G(n0) in m^3 at n0 = 0.1 cycles/m. The
    realization is deterministic per seed.
    """
    if dx <= 0:
        raise ValueError(f"dx must be positive, got {dx}")
    if dx > 0.25:
        raise ValueError(f"dx must be at most 0.25 m, got {dx}")
    if length < 100.0:
        raise ValueError(f"length must be at least 100 m, got {length}")
    if roughness_coeff < 0:
        raise ValueError("roughness_coeff must be non-negative")
    n = int(round(length / dx)) + 1
    if roughness_coeff == 0.0:
        return RoadProfile(dx, np.zeros(n))
    rng = np.random.default_rng(seed)
    # Superposed cosines sqrt(2 G(n_k) dn) cos(2 pi n_k x + phi_k), realized
    # through an inverse FFT on the n-point grid.
    dn = 1.0 / (n * dx)
    k = np.arange(1, n // 2 + 1)
    freqs = k * dn
    amp = np.sqrt(2.0 * roughness_coeff * (freqs / PSD_REF_FREQ) ** -2 * dn)
    phases = rng.uniform(0.0, 2.0 * np.pi, len(k))
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    spectrum[1:] = (n / 2.0) * amp * np.exp(1j * phases)
    if n % 2 == 0:
        spectrum[-1] = 0.0
    elevation = np.fft.irfft(spectrum, n=n)
    elevation -= elevation.mean()
    return RoadProfile(dx, elevation)


def modulate_profile(profile: RoadProfile, positions, factors) -> RoadProfile:
    """Scale elevation by a slowly varying envelope interpolated over distance.

    Because the IRI responds linearly to elevation, a slow envelope sets the
    local roughness level, which is how mixed smooth/rough routes are built.
    """
    positions = np.asarray(positions, dtype=float)
    factors = np.asarray(factors, dtype=float)
    if np.any(factors < 0):
        raise ValueError("envelope factors must be non-negative")
    env = np.interp(profile.x, positions, factors)
    return RoadProfile(profile.dx, profile.elevation * env)


def _state_matrices(params: QuarterCarParams):
    """Continuous system d/dt [z_s, v_s, z_u, v_u] = A x + B y(t)."""
    k1, k2, c, mu = params.k1, params.k2, params.c, params.mu
    a = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-k2, -c, k2, c],
        [0.0, 0.0, 0.0, 1.0],
        [k2 / mu, c / mu, -(k1 + k2) / mu, -c / mu],
    ])
    b = np.array([[0.0], [0.0], [0.0], [k1 / mu]])
    return a, b


def _foh_matrices(params: QuarterCarParams, dt: float):
    """Exact discretization with first-order hold on the road input."""
    a, b = _state_matrices(params)
    m = np.zeros((6, 6))
    m[:4, :4] = a
    m[:4, 4:5] = b
    m[4, 5] = 1.0
    e = expm(m * dt)
    ad = e[:4, :4]
    g1 = e[:4, 4]
    g2 = e[:4, 5]
    b1 = g2 / dt
    b0 = g1 - b1
    return a, ad, b0, b1


def _run_series(u: np.ndarray, dt: float, params: QuarterCarParams,
                x0: np.ndarray) -> QuarterCarResponse:
    """Step the quarter car over a uniformly sampled road input series.

    The FOH-discretized system x[k+1] = Ad x[k] + b0 u[k] + b1 u[k+1],
    y[k] = C x[k] is evaluated as linear filters: each output is its transfer
    function from u plus its transfer function from u[k+1], both applied with
    ``lfilter``. The free response C Ad^k x0 enters as the initial state of
    the first filter: the one left by past outputs C Ad^-j x0 (j = 1..4) and
    no past input. (Filtering an impulse for it instead runs into subnormal
    numbers on long series, where ``lfilter`` is ~30x slower.)
    """
    a, ad, b0, b1 = _foh_matrices(params, dt)
    n = len(u)
    u_next = np.empty(n)
    u_next[:-1] = u[1:]
    u_next[-1] = u[-1]
    c = np.vstack([np.eye(4), a[1]])  # 5th output row is the sprung acceleration
    num_u, den = ss2tf(ad, b0[:, None], c, np.zeros((5, 1)))
    num_next, _ = ss2tf(ad, b1[:, None], c, np.zeros((5, 1)))
    ad_inv = np.linalg.inv(ad)
    y_past = c @ np.column_stack([np.linalg.matrix_power(ad_inv, j) @ x0
                                  for j in (1, 2, 3, 4)])
    responses = []
    for i in range(5):
        zi = lfiltic(num_u[i], den, y_past[i])
        y, _ = lfilter(num_u[i], den, u, zi=zi)
        y += lfilter(num_next[i], den, u_next)
        responses.append(y)
    t = np.arange(n) * dt
    return QuarterCarResponse(t, *responses)


def _initial_state(u: np.ndarray, dx_effective: float, speed: float) -> np.ndarray:
    """Seed displacements at the first elevation and velocities at the mean
    slope over the first 11 m, suppressing the start-up transient."""
    n_run = max(1, min(len(u) - 1, int(round(INIT_SLOPE_LENGTH_M / dx_effective))))
    slope = (u[n_run] - u[0]) / (n_run * dx_effective)
    v0 = speed * slope
    return np.array([u[0], v0, u[0], v0])


def quarter_car_response(profile: RoadProfile, speed: float,
                         params: QuarterCarParams = GOLDEN_CAR,
                         dt: float | None = None) -> QuarterCarResponse:
    """Integrate the quarter car driving over ``profile`` at constant speed.

    Uses exact state-transition stepping with a first-order hold on the road
    input sampled along distance = speed * t.
    """
    if speed <= 0:
        raise ValueError(f"speed must be positive, got {speed}")
    if dt is None:
        dt = profile.dx / speed
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    duration = profile.length / speed
    n = int(np.floor(duration / dt)) + 1
    t = np.arange(n) * dt
    u = np.interp(speed * t, profile.x, profile.elevation)
    x0 = _initial_state(u, speed * dt, speed)
    return _run_series(u, dt, params, x0)


def compute_iri(profile: RoadProfile, params: QuarterCarParams = GOLDEN_CAR) -> float:
    """Ground-truth IRI in m/km: accumulated rectified suspension velocity of
    the Golden Car at 80 km/h divided by the distance traveled."""
    if profile.length < 10.0:
        raise ValueError(f"profile must cover at least 10 m, got {profile.length}")
    resp = quarter_car_response(profile, IRI_SPEED_MS, params)
    rect = np.abs(resp.v_s - resp.v_u)
    travel = np.trapezoid(rect, dx=float(resp.t[1] - resp.t[0]))
    return float(travel / (profile.length / 1000.0))


def build_reference_segments(profile: RoadProfile, route: Polyline,
                             seg_len: float,
                             params: QuarterCarParams = GOLDEN_CAR) -> list:
    """Cut the profile into consecutive ``seg_len`` pieces with per-piece IRI.

    The quarter car is integrated once over the whole profile so the filter
    state carries across piece boundaries; each piece is geo-referenced on
    ``route`` by chainage.
    """
    from .core import GeoPoint, ReferenceSegment

    if seg_len <= 0:
        raise ValueError(f"seg_len must be positive, got {seg_len}")
    if profile.length < seg_len:
        raise ValueError("profile shorter than one segment")
    resp = quarter_car_response(profile, IRI_SPEED_MS, params)
    dt = float(resp.t[1] - resp.t[0])
    rect = np.abs(resp.v_s - resp.v_u)
    # Trapezoid contribution of step k, binned by the step's midpoint chainage.
    contrib = 0.5 * (rect[:-1] + rect[1:]) * dt
    mid_x = IRI_SPEED_MS * 0.5 * (resp.t[:-1] + resp.t[1:])
    n_segs = int(np.floor(profile.length / seg_len + 1e-9))
    seg_idx = np.minimum((mid_x / seg_len).astype(int), n_segs - 1)
    travel = np.bincount(seg_idx, weights=contrib, minlength=n_segs)
    segments = []
    for i in range(n_segs):
        s0, s1 = i * seg_len, (i + 1) * seg_len
        lat0, lon0 = route.point_at(s0)
        lat1, lon1 = route.point_at(s1)
        iri = float(travel[i] / (seg_len / 1000.0))
        segments.append(ReferenceSegment(GeoPoint(float(lat0), float(lon0)),
                                         GeoPoint(float(lat1), float(lon1)),
                                         seg_len, iri))
    return segments


def synthesize_telemetry(profile: RoadProfile, route: Polyline,
                         config: SimConfig):
    """Emulate one survey run: quarter-car acceleration plus sensor noise at
    ``acc_rate``, speed channel, and noisy GPS fixes at ``gps_rate``."""
    from .core import TelemetryTrace

    if abs(route.length - profile.length) > 0.01 * profile.length:
        raise ValueError(
            f"route length {route.length:.1f} m does not match profile "
            f"length {profile.length:.1f} m")
    rng = np.random.default_rng(config.seed)
    xg = profile.x
    vg = np.interp(xg, config.speed_positions, config.speed_values)
    # Travel time at each profile point from dt = dx / v.
    inv_v = 1.0 / vg
    tg = np.concatenate([[0.0],
                         np.cumsum(0.5 * (inv_v[:-1] + inv_v[1:]) * profile.dx)])
    duration = tg[-1]
    dt = 1.0 / config.acc_rate
    n = int(np.floor(duration / dt)) + 1
    t = np.arange(n) * dt
    x_t = np.interp(t, tg, xg)
    u = np.interp(x_t, xg, profile.elevation)
    v0 = float(vg[0])
    x0 = _initial_state(u, v0 * dt, v0)
    resp = _run_series(u, dt, config.vehicle, x0)
    acc = resp.acc_s + rng.normal(0.0, config.acc_noise_sigma, n) \
        if config.acc_noise_sigma > 0 else resp.acc_s.copy()
    speed = np.interp(x_t, xg, vg)

    stride = max(1, int(round(config.acc_rate / config.gps_rate)))
    gps_idx = np.arange(0, n, stride)
    lat, lon = route.point_at(x_t[gps_idx])
    if config.gps_noise_sigma > 0:
        proj = LocalProjection(float(route.lats[0]), float(route.lons[0]))
        gx, gy = proj.to_xy(lat, lon)
        sigma_axis = config.gps_noise_sigma / np.sqrt(2.0)
        gx = gx + rng.normal(0.0, sigma_axis, len(gps_idx))
        gy = gy + rng.normal(0.0, sigma_axis, len(gps_idx))
        lat, lon = proj.to_latlon(gx, gy)
    return TelemetryTrace(t, acc, speed, gps_idx, lat, lon)


def perturbed_params(base: QuarterCarParams, fraction: float,
                     seed: int) -> QuarterCarParams:
    """Randomly perturb each vehicle constant by up to +-fraction.

    Keeps the survey vehicle distinct from the Golden Car so that labels are
    not trivially invertible from the measured response.
    """
    rng = np.random.default_rng(seed)
    factors = 1.0 + rng.uniform(-fraction, fraction, 4)
    return QuarterCarParams(base.k1 * factors[0], base.k2 * factors[1],
                            base.c * factors[2], base.mu * factors[3])


def generate_route(length: float, seed: int, origin_lat: float = 55.65,
                   origin_lon: float = 12.55, vertex_spacing: float = 50.0,
                   max_turn_deg: float = 6.0) -> Polyline:
    """A gently meandering synthetic route of roughly the requested length."""
    rng = np.random.default_rng(seed)
    n_seg = max(1, int(np.ceil(length / vertex_spacing)))
    steps = np.full(n_seg, vertex_spacing)
    steps[-1] = length - vertex_spacing * (n_seg - 1)
    if steps[-1] <= 0:
        steps = steps[:-1]
    headings = np.cumsum(np.radians(rng.uniform(-max_turn_deg, max_turn_deg,
                                                len(steps))))
    dx = steps * np.cos(headings)
    dy = steps * np.sin(headings)
    x = np.concatenate([[0.0], np.cumsum(dx)])
    y = np.concatenate([[0.0], np.cumsum(dy)])
    proj = LocalProjection(origin_lat, origin_lon)
    lats, lons = proj.to_latlon(x, y)
    return Polyline(lats, lons)

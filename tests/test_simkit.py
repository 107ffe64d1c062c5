import numpy as np
import pytest
from scipy import signal

from roadroughness.core import to_iri_level
from roadroughness.simkit import (GOLDEN_CAR, IRI_SPEED_MS, RoadProfile,
                                  SimConfig, _foh_matrices, _initial_state,
                                  _run_series, _state_matrices,
                                  build_reference_segments, compute_iri,
                                  generate_profile, generate_route,
                                  modulate_profile, perturbed_params,
                                  quarter_car_response, synthesize_telemetry)
from roadroughness.geo import LocalProjection, haversine


def rk4_iri_oracle(profile: RoadProfile, dt: float = 1e-4) -> float:
    """Independent fine-step Runge-Kutta integration of the quarter car.

    Deliberately shares nothing with the production path: no matrix
    exponential, no dlsim; the road input is linearly interpolated at the
    RK sub-steps.
    """
    a, b = _state_matrices(GOLDEN_CAR)
    b = b[:, 0]
    speed = IRI_SPEED_MS
    duration = profile.length / speed
    n = int(np.floor(duration / dt)) + 1

    def road(t):
        return np.interp(speed * t, profile.x, profile.elevation)

    n_run = max(1, int(round(11.0 / profile.dx)))
    slope = (profile.elevation[n_run] - profile.elevation[0]) / (n_run * profile.dx)
    x = np.array([profile.elevation[0], speed * slope,
                  profile.elevation[0], speed * slope])
    travel = 0.0
    prev_rect = abs(x[1] - x[3])
    for i in range(n - 1):
        t = i * dt

        def f(ti, xi):
            return a @ xi + b * road(ti)

        k1 = f(t, x)
        k2 = f(t + dt / 2, x + dt / 2 * k1)
        k3 = f(t + dt / 2, x + dt / 2 * k2)
        k4 = f(t + dt, x + dt * k3)
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        rect = abs(x[1] - x[3])
        travel += 0.5 * (prev_rect + rect) * dt
        prev_rect = rect
    return travel / (profile.length / 1000.0)


def dlsim_series(u, dt, params, x0):
    """Reference stepping of the FOH-discretized quarter car, one sample at a
    time with ``scipy.signal.dlsim``: columns z_s, v_s, z_u, v_u, acc_s."""
    a, ad, b0, b1 = _foh_matrices(params, dt)
    u_next = np.append(u[1:], u[-1])
    c = np.vstack([np.eye(4), a[1]])
    _, yout, _ = signal.dlsim(
        (ad, np.column_stack([b0, b1]), c, np.zeros((5, 2)), dt),
        np.column_stack([u, u_next]), x0=x0)
    return yout


def _road_series(length, dx, speed, dt, seed):
    """Road input sampled every ``dt`` at ``speed`` over a modulated profile,
    and the initial state the simulator seeds it with."""
    p = generate_profile(length, dx, 16e-6, seed=seed)
    env_pos = np.arange(0.0, p.length + 400.0, 400.0)
    env = np.random.default_rng(seed).uniform(0.25, 1.8, len(env_pos))
    p = modulate_profile(p, env_pos, env)
    n = int(np.floor(p.length / speed / dt)) + 1
    u = np.interp(speed * np.arange(n) * dt, p.x, p.elevation)
    return u, _initial_state(u, speed * dt, speed)


def _outputs(resp):
    return np.column_stack([resp.z_s, resp.v_s, resp.z_u, resp.v_u,
                            resp.acc_s])


class TestFilterAgainstDlsim:
    """The lfilter evaluation against per-step dlsim stepping."""

    @pytest.mark.parametrize("length, dx", [(42000.0, 0.25), (2000.0, 0.05)])
    def test_reference_series(self, length, dx):
        dt = dx / IRI_SPEED_MS
        u, x0 = _road_series(length, dx, IRI_SPEED_MS, dt, seed=3)
        got = _outputs(_run_series(u, dt, GOLDEN_CAR, x0))
        want = dlsim_series(u, dt, GOLDEN_CAR, x0)
        peak = np.max(np.abs(want), axis=0)
        assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-8 * peak)
        iri_got = np.trapezoid(np.abs(got[:, 1] - got[:, 3]), dx=dt)
        iri_want = np.trapezoid(np.abs(want[:, 1] - want[:, 3]), dx=dt)
        assert iri_got == pytest.approx(iri_want, rel=1e-10)

    def test_telemetry_rate_perturbed_vehicle(self):
        params = perturbed_params(GOLDEN_CAR, 0.1, 4)
        dt = 0.02
        u, x0 = _road_series(3000.0, 0.05, 13.9, dt, seed=4)
        got = _outputs(_run_series(u, dt, params, x0))
        want = dlsim_series(u, dt, params, x0)
        peak = np.max(np.abs(want), axis=0)
        assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-8 * peak)

    def test_free_response_is_state_transition(self):
        """Zero road input: the outputs are C Ad^k x0."""
        dt = 0.01
        x0 = np.array([0.02, -0.3, 0.01, 0.5])
        resp = _run_series(np.zeros(400), dt, GOLDEN_CAR, x0)
        a, ad, _, _ = _foh_matrices(GOLDEN_CAR, dt)
        c = np.vstack([np.eye(4), a[1]])
        x, want = x0.copy(), []
        for _ in range(400):
            want.append(c @ x)
            x = ad @ x
        want = np.array(want)
        got = _outputs(resp)
        peak = np.max(np.abs(want), axis=0)
        assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-10 * peak)


class TestProfileGeneration:
    def test_zero_coefficient_gives_flat_road(self):
        p = generate_profile(200.0, 0.05, 0.0, seed=0)
        assert np.all(p.elevation == 0.0)

    def test_deterministic(self):
        p1 = generate_profile(200.0, 0.05, 16e-6, seed=3)
        p2 = generate_profile(200.0, 0.05, 16e-6, seed=3)
        assert np.array_equal(p1.elevation, p2.elevation)

    def test_zero_mean(self):
        p = generate_profile(500.0, 0.05, 16e-6, seed=1)
        assert abs(p.elevation.mean()) < 1e-12

    def test_coarse_dx_rejected(self):
        with pytest.raises(ValueError):
            generate_profile(200.0, 0.3, 16e-6, seed=0)

    def test_short_profile_rejected(self):
        with pytest.raises(ValueError):
            generate_profile(50.0, 0.05, 16e-6, seed=0)

    def test_psd_slope_is_minus_two(self):
        """Average log-log PSD slope over several realizations."""
        slopes = []
        for seed in range(10):
            p = generate_profile(2000.0, 0.1, 16e-6, seed=seed)
            f, pxx = signal.welch(p.elevation, fs=1.0 / p.dx,
                                  nperseg=4096)
            band = (f > 0.02) & (f < 1.0)
            coef = np.polyfit(np.log(f[band]), np.log(pxx[band]), 1)
            slopes.append(coef[0])
        assert abs(np.mean(slopes) - (-2.0)) < 0.3


class TestModulation:
    def test_envelope_interpolation(self):
        p = RoadProfile(0.1, np.ones(11))
        out = modulate_profile(p, [0.0, 1.0], [1.0, 3.0])
        assert out.elevation[0] == 1.0
        assert out.elevation[-1] == 3.0
        assert out.elevation[5] == pytest.approx(2.0)

    def test_negative_factor_rejected(self):
        p = RoadProfile(0.1, np.ones(11))
        with pytest.raises(ValueError):
            modulate_profile(p, [0.0, 1.0], [1.0, -1.0])


class TestIri:
    def test_flat_profile_zero(self):
        p = RoadProfile(0.05, np.zeros(4001))
        assert abs(compute_iri(p)) < 1e-9

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_homogeneity(self, alpha):
        p = generate_profile(400.0, 0.05, 16e-6, seed=5)
        base = compute_iri(p)
        scaled = compute_iri(p.scaled(alpha))
        assert scaled == pytest.approx(alpha * base, rel=1e-6)

    def test_matches_fine_step_rk4_oracle(self):
        p = generate_profile(150.0, 0.05, 16e-6, seed=7)
        iri = compute_iri(p)
        oracle = rk4_iri_oracle(p, dt=1e-4)
        assert iri == pytest.approx(oracle, rel=5e-3)

    def test_dt_refinement_converged(self):
        p = generate_profile(300.0, 0.1, 16e-6, seed=2)
        speed = IRI_SPEED_MS

        def iri_at(dt):
            resp = quarter_car_response(p, speed, dt=dt)
            rect = np.abs(resp.v_s - resp.v_u)
            return np.trapezoid(rect, dx=dt) / (p.length / 1000.0)

        dt = p.dx / speed
        coarse, fine = iri_at(dt), iri_at(dt / 2)
        assert abs(fine - coarse) / coarse < 1e-3

    def test_sinusoid_matches_transfer_function(self):
        """Steady-state response amplitude from the frequency response."""
        wavelength = 5.0
        amp = 0.002
        dx = 0.05
        length = 2000.0
        x = np.arange(0, length + dx / 2, dx)
        p = RoadProfile(dx, amp * np.sin(2 * np.pi * x / wavelength))
        speed = IRI_SPEED_MS
        omega = 2 * np.pi * speed / wavelength
        a, b = _state_matrices(GOLDEN_CAR)
        h = np.linalg.solve(1j * omega * np.eye(4) - a, b[:, 0])
        gain = abs(h[1] - h[3])
        # Mean rectified value of a sinusoid is 2/pi of its peak.
        expected = (2 / np.pi) * amp * gain / speed * 1000.0
        assert compute_iri(p) == pytest.approx(expected, rel=1e-2)

    def test_energy_conserved_without_damping(self):
        params = perturbed_params(GOLDEN_CAR, 0.0, 0)
        undamped = type(params)(params.k1, params.k2, 0.0, params.mu)
        flat = RoadProfile(0.05, np.zeros(8001))
        resp = quarter_car_response(flat, IRI_SPEED_MS, undamped)
        # Nonzero start: perturb via an initial elevation step instead.
        step = RoadProfile(0.05, np.concatenate([np.zeros(1),
                                                 np.full(8000, 0.01)]))
        resp = quarter_car_response(step, IRI_SPEED_MS, undamped)
        k1, k2, mu = undamped.k1, undamped.k2, undamped.mu
        y = 0.01
        energy = (0.5 * resp.v_s ** 2 + 0.5 * mu * resp.v_u ** 2
                  + 0.5 * k2 * (resp.z_s - resp.z_u) ** 2
                  + 0.5 * k1 * (resp.z_u - y) ** 2)
        tail = energy[len(energy) // 10:]  # after the input step settles
        assert np.ptp(tail) / tail.mean() < 1e-6

    def test_too_short_profile_rejected(self):
        with pytest.raises(ValueError):
            compute_iri(RoadProfile(0.05, np.zeros(100)))


class TestReferenceSegments:
    def test_segment_iris_average_to_route_iri(self):
        p = generate_profile(500.0, 0.05, 16e-6, seed=9)
        route = generate_route(p.length, seed=1)
        segments = build_reference_segments(p, route, 10.0)
        assert len(segments) == 50
        total = compute_iri(p)
        assert np.mean([s.iri for s in segments]) == pytest.approx(total,
                                                                   rel=1e-6)

    def test_segments_follow_route(self):
        p = generate_profile(200.0, 0.05, 16e-6, seed=4)
        route = generate_route(p.length, seed=2)
        segments = build_reference_segments(p, route, 10.0)
        d = haversine(segments[0].start.lat, segments[0].start.lon,
                      route.lats[0], route.lons[0])
        assert d < 1e-6
        gap = haversine(segments[0].end.lat, segments[0].end.lon,
                        segments[1].start.lat, segments[1].start.lon)
        assert gap < 1e-6

    def test_levels_cover_modulated_profile(self):
        p = generate_profile(1000.0, 0.05, 16e-6, seed=11)
        p = modulate_profile(p, [0.0, 500.0, 1000.0], [0.3, 1.0, 2.0])
        route = generate_route(p.length, seed=3)
        segments = build_reference_segments(p, route, 10.0)
        levels = {int(to_iri_level(s.iri)) for s in segments}
        assert len(levels) >= 2


class TestTelemetry:
    def _setup(self, sigma_gps=0.0, sigma_acc=0.0, seed=0):
        p = generate_profile(600.0, 0.05, 16e-6, seed=8)
        route = generate_route(p.length, seed=8)
        cfg = SimConfig(speed_positions=[0.0, p.length],
                        speed_values=[15.0, 15.0],
                        gps_noise_sigma=sigma_gps,
                        acc_noise_sigma=sigma_acc, seed=seed)
        return p, route, cfg

    def test_shapes_and_rates(self):
        p, route, cfg = self._setup()
        trace = synthesize_telemetry(p, route, cfg)
        duration = p.length / 15.0
        assert abs(len(trace) - duration * 50.0) <= 1.0
        assert len(trace.gps_idx) == (len(trace) - 1) // 50 + 1
        assert np.allclose(np.diff(trace.t), 0.02)

    def test_deterministic(self):
        p, route, cfg = self._setup(sigma_gps=3.0, sigma_acc=0.03, seed=5)
        t1 = synthesize_telemetry(p, route, cfg)
        t2 = synthesize_telemetry(p, route, cfg)
        assert np.array_equal(t1.acc_z, t2.acc_z)
        assert np.array_equal(t1.gps_lat, t2.gps_lat)

    def test_gps_noise_rms(self):
        p, route, _ = self._setup()
        errors = []
        for seed in range(25):
            cfg = SimConfig(speed_positions=[0.0, p.length],
                            speed_values=[15.0, 15.0],
                            gps_noise_sigma=3.0, acc_noise_sigma=0.0,
                            seed=seed)
            trace = synthesize_telemetry(p, route, cfg)
            clean = synthesize_telemetry(p, route, SimConfig(
                speed_positions=[0.0, p.length], speed_values=[15.0, 15.0],
                gps_noise_sigma=0.0, acc_noise_sigma=0.0, seed=seed))
            d = haversine(trace.gps_lat, trace.gps_lon,
                          clean.gps_lat, clean.gps_lon)
            errors.append(np.mean(d ** 2))
        rms = np.sqrt(np.mean(errors))
        assert rms == pytest.approx(3.0, rel=0.1)

    def test_route_length_mismatch_rejected(self):
        p = generate_profile(600.0, 0.05, 16e-6, seed=8)
        route = generate_route(500.0, seed=8)
        with pytest.raises(ValueError):
            synthesize_telemetry(p, route, SimConfig(
                speed_positions=[0.0, 600.0], speed_values=[15.0, 15.0]))


class TestPerturbedParams:
    def test_zero_fraction_identity(self):
        params = perturbed_params(GOLDEN_CAR, 0.0, 1)
        assert params.k1 == GOLDEN_CAR.k1

    def test_bounded(self):
        params = perturbed_params(GOLDEN_CAR, 0.1, 2)
        assert abs(params.k1 / GOLDEN_CAR.k1 - 1.0) <= 0.1
        assert abs(params.mu / GOLDEN_CAR.mu - 1.0) <= 0.1


class TestRoute:
    def test_length_close_to_request(self):
        route = generate_route(1000.0, seed=4)
        assert route.length == pytest.approx(1000.0, rel=1e-3)

    def test_point_at_endpoints(self):
        route = generate_route(500.0, seed=4)
        lat, lon = route.point_at(0.0)
        assert lat == pytest.approx(route.lats[0])
        lat, lon = route.point_at(route.length)
        assert lat == pytest.approx(route.lats[-1])

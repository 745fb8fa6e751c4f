import math

import numpy as np
import pytest

from rendezsim import (RegionFlag, RobotState, Role, ScenarioConfig,
                       TrajectoryLog, build_topology, compute_metrics,
                       integrate_pose, monitor_invariants, run, step)
from rendezsim.sim import AssumptionError, MonitorViolation, fit_decay_rate

from conftest import make_states, small_config


class TestIntegrator:
    def test_zero_controls_do_nothing(self):
        pose = np.array([1.0, 2.0, 0.5])
        out = integrate_pose(pose, 0.0, 0.0, 0.1)
        assert np.array_equal(out, pose)

    def test_one_step_lands_on_unit_circle_arc(self):
        # constant v=1, omega=1 from the origin: exact pose at time t is
        # (sin t, 1 - cos t, t), so a single quarter-turn step is exact
        out = integrate_pose(np.zeros(3), 1.0, 1.0, math.pi / 2)
        assert np.allclose(out, [1.0, 1.0, math.pi / 2], rtol=0.0, atol=1e-12)
        # a vanishing turn rate meets the straight line without a branch
        pose = np.array([1.0, -2.0, 0.7])
        tiny = integrate_pose(pose, 1.5, 1e-12, 0.1)
        straight = integrate_pose(pose, 1.5, 0.0, 0.1)
        assert np.allclose(tiny, straight, rtol=0.0, atol=1e-12)
        assert np.allclose(straight, [1.0 + 0.15 * math.cos(0.7),
                                      -2.0 + 0.15 * math.sin(0.7), 0.7],
                           rtol=0.0, atol=1e-12)

    def test_heading_normalized(self):
        out = integrate_pose(np.array([0.0, 0.0, 3.0]), 0.0, 2.0, 0.2)
        assert -math.pi < out[2] <= math.pi


class TestStep:
    def test_converged_cluster_stays_put(self, params_s5):
        cfg = small_config(
            initial_states=make_states([(0.0, 0.0, 0.0), (0.0, 0.0, 1.0),
                                        (0.0, 0.0, -1.0)]))
        new_states, controls, region = step(cfg.initial_states,
                                            RegionFlag.RENDEZVOUS, cfg)
        for before, after in zip(cfg.initial_states, new_states):
            assert np.allclose(after.position, before.position, atol=1e-8)
        assert all(c.v == 0.0 for c in controls)
        assert region is RegionFlag.RENDEZVOUS

    def test_region_latches_during_step(self):
        cfg = small_config()
        # leader already inside the switch distance
        states = make_states([(0.5, 0.0, 0.0), (1.0, 0.5, 0.0),
                              (0.2, 0.8, 0.0)])
        _, _, region = step(states, RegionFlag.COLLISION_FREE, cfg)
        assert region is RegionFlag.RENDEZVOUS

    def test_evaluation_order_is_irrelevant(self):
        cfg = small_config()
        states = cfg.initial_states
        topo = build_topology(states, cfg.sensing_radius)
        a_states, a_controls, _ = step(states, RegionFlag.COLLISION_FREE,
                                       cfg, topo, order=[0, 1, 2])
        b_states, b_controls, _ = step(states, RegionFlag.COLLISION_FREE,
                                       cfg, topo, order=[2, 0, 1])
        for sa, sb in zip(a_states, b_states):
            assert np.array_equal(sa.position, sb.position)
            assert sa.heading == sb.heading
        for ca, cb in zip(a_controls, b_controls):
            assert ca.v == cb.v and ca.omega == cb.omega


class TestMonitors:
    def _states(self, poses):
        return make_states(poses)

    def test_healthy_step_is_quiet(self):
        cfg = small_config()
        states = self._states([(-4.0, -2.0, 0.0), (-4.8, -2.5, 0.0),
                               (-3.4, -2.9, 0.0)])
        dists = {(1, 2): 0.9, (1, 3): 1.0, (2, 3): 1.4}
        events = monitor_invariants(states, dists, set(dists),
                                    RegionFlag.COLLISION_FREE, cfg, 0, 0.0)
        assert events == []

    def test_broken_edge_flagged(self):
        cfg = small_config()
        states = self._states([(-4.0, -2.0, 0.0), (-1.95, -2.0, 0.0),
                               (-4.5, -2.5, 0.0)])
        dists = {(1, 2): 2.05, (1, 3): 0.7, (2, 3): 2.6}
        events = monitor_invariants(states, dists, {(1, 2), (1, 3)},
                                    RegionFlag.COLLISION_FREE, cfg, 3, 0.015)
        kinds = [e.kind for e in events]
        assert kinds == ["connectivity"]
        assert "(1,2)" in events[0].detail

    def test_collision_flagged_only_while_avoiding(self):
        cfg = small_config()
        states = self._states([(-4.0, -2.0, 0.0), (-4.01, -2.0, 0.0),
                               (-4.5, -2.5, 0.0)])
        dists = {(1, 2): 0.01, (1, 3): 0.7, (2, 3): 0.7}
        hot = monitor_invariants(states, dists, set(),
                                 RegionFlag.COLLISION_FREE, cfg, 0, 0.0)
        assert [e.kind for e in hot] == ["collision"]
        cold = monitor_invariants(states, dists, set(),
                                  RegionFlag.RENDEZVOUS, cfg, 0, 0.0)
        assert cold == []

    def test_outside_workspace_flagged(self):
        cfg = small_config()
        states = [RobotState(1, np.array([-4.0, -2.0]), 0.0, Role.INFORMED),
                  RobotState(2, np.array([-4.5, -2.0]), 0.0, Role.FOLLOWER),
                  RobotState(3, np.array([-3.5, -2.0]), 0.0, Role.FOLLOWER)]
        states[1] = RobotState(2, np.array([29.0, 8.0]), 0.0, Role.FOLLOWER)
        dists = {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0}
        events = monitor_invariants(states, dists, set(),
                                    RegionFlag.COLLISION_FREE, cfg, 0, 0.0)
        assert "boundary" in [e.kind for e in events]


class TestRun:
    def test_single_informed_robot_converges(self):
        cfg = ScenarioConfig(
            n_robots=1, workspace_radius=50.0, sensing_radius=2.0,
            rendezvous_radius=5.0, collision_margin=0.4,
            connectivity_buffer=0.4, sigmoid_eps=0.01, dipolar_eps=0.5,
            field_exponent=1.2, linear_gains=[20.0], angular_gains=[8.0],
            goal_position=np.zeros(2), goal_heading=0.0, time_step=0.005,
            horizon=150.0, gradient_floor=1e-6,
            initial_states=[RobotState(1, np.array([10.0, 0.0]), math.pi,
                                       Role.INFORMED)])
        log = run(cfg)
        m = compute_metrics(log, cfg)
        assert m.final_position_errors[0] < 0.05
        assert m.final_heading_errors[0] < 0.02
        assert log.times[-1] < cfg.horizon  # converged, not timed out

    def test_disconnected_start_rejected(self):
        cfg = small_config(initial_states=make_states(
            [(-4.0, -2.0, 0.0), (-4.8, -2.5, 0.0), (8.0, 8.0, 0.0)]))
        with pytest.raises(AssumptionError):
            run(cfg)

    def test_strict_mode_aborts_on_violation(self):
        # a collision floor above the initial spacing trips the monitor at
        # the very first step
        cfg = small_config(collision_floor=1.5)
        with pytest.raises(MonitorViolation):
            run(cfg, strict=True)

    def test_determinism_bitwise(self):
        log1 = run(small_config(horizon=1.0))
        log2 = run(small_config(horizon=1.0))
        assert np.array_equal(log1.poses, log2.poses)
        assert np.array_equal(log1.controls, log2.controls)
        assert np.array_equal(log1.distances, log2.distances)

    def test_log_shape_invariants(self):
        log = run(small_config(horizon=0.5))
        assert log.times.shape[0] == log.poses.shape[0]
        assert np.allclose(np.diff(log.times), small_config().time_step)
        assert log.poses.shape[1] == 3 or log.poses.shape[1] == log.n_robots


class TestMetrics:
    def _stationary_log(self):
        n, s = 2, 5
        times = np.arange(s) * 0.1
        poses = np.zeros((s, n, 3))
        controls = np.zeros((s, n, 5))
        phi = np.zeros((s, n))
        region = np.ones(s, dtype=np.int8)
        pairs = ((1, 2),)
        distances = np.zeros((s, 1))
        return TrajectoryLog(
            times=times, poses=poses, controls=controls, phi=phi,
            region=region, pairs=pairs, distances=distances,
            monitored=np.array([True]), events=[], switch_step=0,
            goal_position=np.zeros(2), goal_heading=0.0, time_step=0.1,
            sensing_radius=2.0, roles=("informed", "follower"))

    def test_stationary_converged_log(self):
        m = compute_metrics(self._stationary_log())
        assert np.all(m.final_position_errors == 0.0)
        assert np.all(m.final_heading_errors == 0.0)
        assert m.switch_time == 0.0

    def test_synthetic_exponential_decay_rate(self):
        log = self._stationary_log()
        times = np.linspace(0.0, 2.0, 200)
        log.times = times
        s = len(times)
        log.poses = np.zeros((s, 2, 3))
        log.controls = np.zeros((s, 2, 5))
        log.controls[:, 0, 3] = 0.5 * np.exp(-2.0 * times)
        log.phi = np.zeros((s, 2))
        log.region = np.ones(s, dtype=np.int8)
        log.distances = np.zeros((s, 1))
        m = compute_metrics(log)
        assert m.heading_decay_rate == pytest.approx(2.0, rel=0.01)

    def test_decay_rate_ignores_noise_after_the_decay(self):
        # a decay down to the noise floor, then jitter around 1e-6 rad, then
        # a late switch: only the leading window carries the rate
        log = self._stationary_log()
        times = np.arange(2000) * 0.005
        s = len(times)
        tilde = 0.5 * np.exp(-2.0 * times)
        jitter = 1e-6 * np.random.default_rng(5).uniform(0.5, 1.5, s)
        log.times = times
        log.poses = np.zeros((s, 2, 3))
        log.controls = np.zeros((s, 2, 5))
        log.controls[:, 0, 3] = np.where(tilde > 1e-6, tilde, jitter)
        log.phi = np.zeros((s, 2))
        log.region = (times > 9.0).astype(np.int8)
        log.distances = np.zeros((s, 1))
        log.switch_step = int(np.argmax(times > 9.0))
        m = compute_metrics(log)
        assert m.heading_decay_rate == pytest.approx(2.0, rel=0.01)

    def test_noise_only_log_has_no_decay_rate(self):
        log = self._stationary_log()
        log.controls[:, 0, 3] = 1e-6 * np.random.default_rng(7).uniform(
            -1.0, 1.0, log.n_steps)
        assert compute_metrics(log).heading_decay_rate is None

    def test_decay_fit_needs_signal(self):
        assert fit_decay_rate(np.arange(5.0), np.zeros(5)) is None

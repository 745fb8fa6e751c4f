"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. The reference six-robot scenario is simulated once and shared;
determinism gets its own second run.
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest

from rendezsim import (RegionFlag, angular_velocity, compute_metrics,
                       export_trajectory, fd_gradient, grad_navfunc_follower,
                       grad_navfunc_leader, integrate_pose, laplacian,
                       navfunc_follower, navfunc_leader, normalize_angle,
                       parse_scenario, run, sigmoid_collision,
                       sigmoid_connectivity)
from rendezsim.fields import FieldParams
from rendezsim.gradients import follower_potential
from rendezsim.graph import Topology

SCENARIO = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                        "rendezvous_s5.scn")

# frozen desk-scale bounds
WALL_TIME_LIMIT = 30.0       # seconds, criterion 1
POSITION_TOL = 0.05          # m, criteria 1 and 9
HEADING_TOL = 0.02           # rad, criterion 1
COLLISION_FLOOR = 0.05       # m, criterion 3
PLATEAU_RATIO = 0.99         # criterion 3
HEADING_SLACK = 1e-6         # rad per step, criterion 4
FD_REL_TOL = 1e-6            # criteria 5
FD_RUNTIME_LIMIT = 5.0       # seconds, criterion 5
ENDPOINT_TOL = 1e-12         # criterion 6
ROWSUM_TOL = 1e-12           # criterion 7
EDGEWISE_TOL = 1e-10         # criterion 7
LYAPUNOV_SLACK = 1e-6        # criterion 8


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    cfg = parse_scenario(SCENARIO)
    t0 = time.perf_counter()
    log = run(cfg)
    wall = time.perf_counter() - t0
    out = tmp_path_factory.mktemp("ref")
    export_trajectory(log, str(out))
    return cfg, log, wall, out


@pytest.fixture(scope="module")
def reference_params(reference):
    return FieldParams.from_config(reference[0])


def _unit(rng):
    a = rng.uniform(-math.pi, math.pi)
    return np.array([math.cos(a), math.sin(a)])


def test_criterion_01_reference_run_converges(reference):
    cfg, log, wall, _ = reference
    assert wall < WALL_TIME_LIMIT, f"run took {wall:.1f} s"
    assert log.times[-1] < cfg.horizon, "run hit the horizon without converging"
    goal_err = np.linalg.norm(log.poses[-1, :, :2] - cfg.goal_position,
                              axis=1)
    head_err = np.abs(log.controls[-1, :, 3])
    assert np.all(goal_err < POSITION_TOL), goal_err
    assert np.all(head_err < HEADING_TOL), head_err
    _report(1, f"converged in {log.times[-1]:.1f} s simulated / "
               f"{wall:.1f} s wall; max goal error "
               f"{goal_err.max():.4f} m, max heading error "
               f"{head_err.max():.4f} rad")


def test_criterion_02_connectivity_preserved(reference):
    cfg, log, _, _ = reference
    monitored = log.distances[:, log.monitored]
    assert monitored.shape[1] > 0
    worst = float(monitored.max())
    assert worst < cfg.sensing_radius, worst
    connectivity_events = [e for e in log.events if e.kind == "connectivity"]
    assert connectivity_events == []
    _report(2, f"all {monitored.shape[1]} monitored edges stayed below "
               f"{cfg.sensing_radius} m (max {worst:.3f} m), "
               f"zero connectivity events")


def test_criterion_03_collision_avoidance_and_plateau(reference):
    cfg, log, _, _ = reference
    sw = log.switch_step
    assert sw is not None and 0 < sw < log.n_steps
    avoid = log.distances[:sw]
    floor = float(avoid.min())
    assert floor > COLLISION_FLOOR, floor
    assert [e for e in log.events if e.kind == "collision"] == []

    # plateau: the second half of the avoidance phase does not push any
    # pair below its first-half minimum by more than 1 percent
    half = sw // 2
    first_half = avoid[:half].min(axis=0)
    full = avoid.min(axis=0)
    assert np.all(full >= PLATEAU_RATIO * first_half), (
        full / first_half)

    # after the switch every pair resumes decreasing below its plateau
    post = log.distances[sw:].min(axis=0)
    assert np.all(post < full)
    _report(3, f"min pairwise distance while avoiding {floor:.3f} m "
               f"(> {COLLISION_FLOOR} m); plateau ratio "
               f"{float((full / first_half).min()):.4f}; distances resumed "
               f"decreasing after the switch")


def test_criterion_04_heading_error_decay(reference):
    cfg, log, _, _ = reference

    # frozen positions: the heading error obeys a pure exponential decay;
    # the step is refined so the zero-order-hold bias of the discrete
    # update, about k_w * dt / 2, sits well inside the 1% tolerance
    k_w = cfg.angular_gains[0]
    dt = 1e-3
    pose = np.array([0.0, 0.0, 2.8])
    theta_d = 0.3
    times, errors = [], []
    for k in range(3000):
        tilde = normalize_angle(pose[2] - theta_d)
        times.append(k * dt)
        errors.append(abs(tilde))
        pose = integrate_pose(pose, 0.0, angular_velocity(tilde, 0.0, k_w), dt)
    times, errors = np.array(times), np.array(errors)
    keep = errors > 1e-9
    rate = -np.polyfit(times[keep], np.log(errors[keep]), 1)[0]
    assert rate == pytest.approx(k_w, rel=0.01), rate

    # closed loop: the informed robot's |heading error| never grows after
    # the switch beyond integrator noise
    sw = log.switch_step
    tilde_1 = np.abs(log.controls[sw:, 0, 3])
    increments = np.diff(tilde_1)
    assert increments.max() <= HEADING_SLACK, increments.max()

    # the reported decay rate of the closed loop matches the gain
    fitted = compute_metrics(log).heading_decay_rate
    assert fitted == pytest.approx(k_w, rel=0.05), fitted
    _report(4, f"frozen-field decay rate {rate:.4f} vs gain {k_w} "
               f"(within 1%); post-switch |heading error| increments "
               f"at most {increments.max():.2e} rad; reported decay rate "
               f"{fitted:.4f} 1/s (within 5%)")


def test_criterion_05_gradient_oracle(reference_params):
    params = reference_params
    rng = np.random.default_rng(23)
    t0 = time.perf_counter()

    worst = 0.0
    for _ in range(100):
        p = rng.uniform(-20, 20, 2)
        g = grad_navfunc_leader(p, params)
        fd = fd_gradient(lambda q: navfunc_leader(q, params), p,
                         1e-6 * max(1.0, float(np.linalg.norm(p))))
        worst = max(worst, np.linalg.norm(g - fd)
                    / max(np.linalg.norm(fd), 1e-9))
    assert worst < FD_REL_TOL, worst

    for mode in ("full", "paper"):
        for region in (RegionFlag.COLLISION_FREE, RegionFlag.RENDEZVOUS):
            wm = 0.0
            for _ in range(100):
                p = rng.uniform(-10, 10, 2)
                m = int(rng.integers(1, 6))
                qs = [p + rng.uniform(0.05, 1.95) * _unit(rng)
                      for _ in range(m)]
                g = grad_navfunc_follower(p, qs, region, params,
                                          gradient_mode=mode).gradient
                fd = fd_gradient(
                    lambda q: follower_potential(q, qs, region, params, mode),
                    p, 1e-6 * max(1.0, float(np.linalg.norm(p))))
                wm = max(wm, np.linalg.norm(g - fd)
                         / max(np.linalg.norm(fd), 1e-9))
            assert wm < FD_REL_TOL, (mode, region, wm)
            worst = max(worst, wm)

    elapsed = time.perf_counter() - t0
    assert elapsed < FD_RUNTIME_LIMIT, elapsed
    _report(5, f"analytic vs central differences: worst relative error "
               f"{worst:.2e} over 500 states in {elapsed:.2f} s")


def test_criterion_06_sigmoid_endpoints():
    # committed scenario margins (0.4 m)
    checks = [
        (sigmoid_connectivity(2.0, 2.0, 0.4, 0.01), 0.01),
        (sigmoid_connectivity(1.6, 2.0, 0.4, 0.01), 0.99),
        (sigmoid_connectivity(1.8, 2.0, 0.4, 0.01), 0.5),
        (sigmoid_collision(0.0, 0.4, 0.01), 0.01),
        (sigmoid_collision(0.4, 0.4, 0.01), 0.99),
        (sigmoid_collision(0.2, 0.4, 0.01), 0.5),
        # wider illustration parameterization (margins 0.5 / 1.0)
        (sigmoid_connectivity(1.5, 2.0, 1.0, 0.01), 0.5),
        (sigmoid_connectivity(2.0, 2.0, 1.0, 0.01), 0.01),
        (sigmoid_connectivity(1.0, 2.0, 1.0, 0.01), 0.99),
    ]
    worst = max(abs(a - b) for a, b in checks)
    assert worst < ENDPOINT_TOL, worst
    _report(6, f"all nine endpoint identities exact to {worst:.1e}")


def test_criterion_07_laplacian_structure(reference_params):
    rng = np.random.default_rng(77)
    worst_sum = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        nbrs = {1: ()}
        for i in range(2, n + 1):
            base = {int(rng.integers(1, i))}
            extra = {j for j in range(1, n + 1)
                     if j != i and rng.random() < 0.4}
            nbrs[i] = tuple(sorted(base | extra))
        topo = Topology(n=n, neighbors=nbrs, distances={},
                        monitored_edges=())
        gains = rng.uniform(0.5, 3.0, n).tolist()
        weights = {(i, j): float(rng.uniform(0.0, 4.0))
                   for i in range(2, n + 1) for j in nbrs[i]}
        mat = laplacian(topo, weights, gains)
        worst_sum = max(worst_sum,
                        float(np.abs(mat.sum(axis=1)).max()))
        assert np.all(mat[~np.eye(n, dtype=bool)] <= 0.0)
        assert np.all(mat[0] == 0.0)
    assert worst_sum < ROWSUM_TOL, worst_sum

    params = reference_params
    rng = np.random.default_rng(78)
    worst_edge = 0.0
    for _ in range(100):
        p = rng.uniform(-10, 10, 2)
        qs = [p + rng.uniform(0.05, 1.95) * _unit(rng)
              for _ in range(int(rng.integers(1, 6)))]
        bundle = grad_navfunc_follower(p, qs, RegionFlag.RENDEZVOUS, params)
        recon = sum(w * (p - q) for w, q in zip(bundle.edge_weights, qs))
        worst_edge = max(worst_edge,
                         float(np.linalg.norm(recon - bundle.gradient)))
    assert worst_edge < EDGEWISE_TOL, worst_edge
    _report(7, f"100 random Laplacians: row sums below {worst_sum:.1e}, "
               f"informed row zero, off-diagonals nonpositive; edgewise "
               f"decomposition within {worst_edge:.1e}")


def test_criterion_08_lyapunov_descent(reference):
    _, log, _, _ = reference
    total = log.phi.sum(axis=1)
    increments = np.diff(total)
    assert increments.max() <= LYAPUNOV_SLACK, increments.max()
    sw = log.switch_step
    assert total[sw] <= total[sw - 1] + LYAPUNOV_SLACK
    _report(8, f"potential sum never rose by more than "
               f"{max(increments.max(), 0.0):.2e} per step "
               f"(switch step included)")


def test_criterion_09_field_range(reference_params):
    params = reference_params
    rng = np.random.default_rng(99)
    lo, hi = 1.0, 0.0
    for _ in range(5000):
        p = rng.uniform(-0.6, 0.6, 2) * params.workspace_radius
        val = navfunc_leader(p, params)
        lo, hi = min(lo, val), max(hi, val)
        assert 0.0 <= val <= 1.0
        if float(np.linalg.norm(p - params.goal_position)) > POSITION_TOL:
            assert val > 1e-12
    for _ in range(5000):
        p = rng.uniform(-20, 20, 2)
        qs = [p + rng.uniform(0.05, 1.9) * _unit(rng)
              for _ in range(int(rng.integers(1, 6)))]
        region = (RegionFlag.COLLISION_FREE if rng.random() < 0.5
                  else RegionFlag.RENDEZVOUS)
        val = navfunc_follower(p, qs, region, params)
        lo, hi = min(lo, val), max(hi, val)
        assert 0.0 <= val <= 1.0
    _report(9, f"10000 random evaluations stayed in [0, 1] "
               f"(observed range [{lo:.2e}, {hi:.6f}]); goal value unique")


def test_criterion_10_determinism(reference, tmp_path):
    _, _, _, first_out = reference
    cfg = parse_scenario(SCENARIO)
    log = run(cfg)
    export_trajectory(log, str(tmp_path))
    for name in ("trajectory.csv", "distances.csv"):
        assert filecmp.cmp(os.path.join(str(first_out), name),
                           os.path.join(str(tmp_path), name),
                           shallow=False), name
    _report(10, "two runs produced byte-identical trajectory and "
                "distance exports")

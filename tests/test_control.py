import math

import numpy as np
import pytest

from rendezsim import (RegionFlag, RobotState, Role, angular_velocity,
                       compute_control, desired_heading, grad_navfunc_leader,
                       heading_feedforward, integrate_pose, linear_velocity,
                       normalize_angle)
from rendezsim.gradients import leader_field_eval


class TestDesiredHeading:
    def test_negative_x_gradient(self):
        assert desired_heading(np.array([-1.0, 0.0]), 0.0, None) == 0.0

    def test_negative_y_gradient(self):
        assert desired_heading(np.array([0.0, -1.0]), 0.0, None) == (
            pytest.approx(math.pi / 2))

    def test_vanished_gradient_keeps_current_heading(self):
        assert desired_heading(np.zeros(2), 0.7, None) == 0.7

    def test_vanished_gradient_prefers_previous(self):
        assert desired_heading(np.zeros(2), 0.7, prev_theta_d=-1.2) == -1.2

    def test_floor_threshold(self):
        tiny = np.array([1e-12, 0.0])
        assert desired_heading(tiny, 0.7, None, gradient_floor=1e-9) == 0.7
        big = np.array([-1e-6, 0.0])
        assert desired_heading(big, 0.7, None, gradient_floor=1e-9) == 0.0


class TestVelocityLaws:
    def test_orthogonal_error_gives_zero(self):
        v = linear_velocity(np.array([1.0, 0.0]), math.pi / 2, 1.0)
        assert abs(v) < 1e-12

    def test_zero_gradient_gives_zero(self):
        assert linear_velocity(np.zeros(2), 0.3, 5.0) == 0.0

    def test_aligned_substitution(self):
        assert linear_velocity(np.array([0.3, 0.4]), 0.0, 1.0) == (
            pytest.approx(0.5))

    def test_angular_at_rest(self):
        assert angular_velocity(0.0, 0.0, 2.0) == 0.0

    def test_angular_substitution(self):
        assert angular_velocity(0.3, 0.0, 2.0) == pytest.approx(-0.6)
        assert angular_velocity(-0.2, 0.05, 1.0) == pytest.approx(0.25)


class TestHeadingFeedforward:
    def test_zero_hessian(self):
        assert heading_feedforward(0.3, np.zeros((2, 2)), 0.1, 0.2, 1.0) == 0.0

    def test_orthogonal_error_kills_it(self):
        h = np.array([[1.0, 0.2], [0.2, 2.0]])
        val = heading_feedforward(0.0, h, math.pi / 2, math.pi / 2, 1.0)
        assert abs(val) < 1e-12

    def test_matches_time_difference_of_desired_heading(self, params_s5):
        # move the robot along its closed-loop velocity for +-h seconds and
        # difference the desired heading
        p = np.array([4.0, 2.5])
        theta = 0.9
        k_v = 2.0
        grad = grad_navfunc_leader(p, params_s5)
        theta_d = desired_heading(grad, theta, None)
        theta_tilde = normalize_angle(theta - theta_d)
        v = linear_velocity(grad, theta_tilde, k_v)
        hess = leader_field_eval(p, params_s5).hessian
        ff = heading_feedforward(theta_d, hess, theta, theta_tilde, k_v)

        h = 1e-4
        vel = v * np.array([math.cos(theta), math.sin(theta)])
        td_plus = desired_heading(grad_navfunc_leader(p + h * vel, params_s5),
                                  theta, None)
        td_minus = desired_heading(grad_navfunc_leader(p - h * vel, params_s5),
                                   theta, None)
        fd = normalize_angle(td_plus - td_minus) / (2.0 * h)
        assert ff == pytest.approx(fd, abs=1e-3)


def leader(x, y, theta):
    return RobotState(1, np.array([x, y]), theta, Role.INFORMED)


def follower(i, x, y, theta):
    return RobotState(i, np.array([x, y]), theta, Role.FOLLOWER)


class TestComputeControl:
    def test_leader_at_goal_is_at_rest(self, params_s5):
        out = compute_control(leader(0.0, 0.0, 0.0), [],
                              RegionFlag.COLLISION_FREE, params_s5,
                              k_v=2.0, k_w=8.0)
        assert out.v == 0.0
        assert out.theta_tilde == 0.0
        # the Hessian is diagonal at the goal, so the feedforward vanishes
        assert out.omega == 0.0

    def test_follower_at_consensus_is_at_rest(self, params_s5):
        p = np.array([2.0, 2.0])
        out = compute_control(follower(2, 2.0, 2.0, 1.0),
                              [p.copy(), p.copy()],
                              RegionFlag.RENDEZVOUS, params_s5,
                              k_v=4.0, k_w=8.0)
        assert out.v == 0.0

    def test_orthogonal_error_structure(self, params_s5):
        base = compute_control(leader(5.0, 1.0, 0.0), [],
                               RegionFlag.COLLISION_FREE, params_s5,
                               k_v=2.0, k_w=8.0)
        rotated = leader(5.0, 1.0, normalize_angle(base.theta_d + math.pi / 2))
        out = compute_control(rotated, [], RegionFlag.COLLISION_FREE,
                              params_s5, k_v=2.0, k_w=8.0)
        assert out.theta_tilde == pytest.approx(math.pi / 2, abs=1e-12)
        assert abs(out.v) < 1e-10
        assert out.omega == pytest.approx(-8.0 * out.theta_tilde
                                          + out.theta_d_dot)

    def test_projection_identity(self, params_s5):
        # heading direction dotted with the gradient equals
        # -|grad| * cos(heading error) for any state
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = rng.uniform(-15, 15, 2)
            theta = rng.uniform(-math.pi, math.pi)
            grad = grad_navfunc_leader(p, params_s5)
            theta_d = desired_heading(grad, theta, None)
            theta_tilde = normalize_angle(theta - theta_d)
            lhs = math.cos(theta) * grad[0] + math.sin(theta) * grad[1]
            rhs = -float(np.linalg.norm(grad)) * math.cos(theta_tilde)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestClosedLoopIdentities:
    def test_aligned_step_matches_gradient_descent(self, params_s5):
        # with the heading forced onto the desired heading, one unicycle step
        # equals an explicit gradient-descent step up to O(dt^2)
        k_v = 2.0
        p = np.array([6.0, 3.0])
        grad = grad_navfunc_leader(p, params_s5)
        theta_d = desired_heading(grad, 0.0, None)
        v = linear_velocity(grad, 0.0, k_v)
        errs = []
        for dt in (0.02, 0.01, 0.005):
            pose = integrate_pose(np.array([p[0], p[1], theta_d]), v, 0.0, dt)
            reference = p - dt * k_v * grad
            errs.append(float(np.linalg.norm(pose[:2] - reference)) / dt ** 2)
        # per-step Euclidean error scales as dt^2 with a state-dependent
        # constant; equal controls give exactly zero here since the heading
        # is constant, so perturb the heading slightly off the gradient line
        assert max(errs) < 1e-9

    def test_curved_step_error_is_second_order(self, params_s5):
        # nonzero turn rate bends the arc away from the straight
        # gradient-descent displacement at second order in dt
        k_v, k_w = 2.0, 8.0
        p = np.array([6.0, 3.0])
        grad = grad_navfunc_leader(p, params_s5)
        theta_d = desired_heading(grad, 0.0, None)
        theta = normalize_angle(theta_d + 0.05)
        theta_tilde = 0.05
        v = linear_velocity(grad, theta_tilde, k_v)
        omega = angular_velocity(theta_tilde, 0.0, k_w)
        ratios = []
        for dt in (0.02, 0.01, 0.005):
            pose = integrate_pose(np.array([p[0], p[1], theta]), v, omega, dt)
            reference = p + dt * v * np.array([math.cos(theta),
                                               math.sin(theta)])
            ratios.append(float(np.linalg.norm(pose[:2] - reference)) / dt ** 2)
        # the dt^2 coefficient is |v * omega| / 2 up to higher order
        expected = abs(v * omega) / 2.0
        for r in ratios:
            assert r == pytest.approx(expected, rel=0.1)

    def test_frozen_field_heading_error_decays_exponentially(self):
        # positions pinned: the exact feedforward is zero and the heading
        # error obeys a pure first-order decay at rate k_w; the fine step
        # keeps the zero-order-hold bias (~k_w * dt / 2) inside the 1% band
        k_w = 3.0
        dt = 0.001
        theta_d = 0.4
        theta = theta_d + 2.5  # initial error 2.5 rad
        times, errors = [], []
        pose = np.array([0.0, 0.0, theta])
        for k in range(4000):
            theta_tilde = normalize_angle(pose[2] - theta_d)
            times.append(k * dt)
            errors.append(abs(theta_tilde))
            omega = angular_velocity(theta_tilde, 0.0, k_w)
            pose = integrate_pose(pose, 0.0, omega, dt)
        times = np.array(times)
        errors = np.array(errors)
        keep = errors > 1e-9
        slope = np.polyfit(times[keep], np.log(errors[keep]), 1)[0]
        assert -slope == pytest.approx(k_w, rel=0.01)

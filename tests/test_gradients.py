import math
from dataclasses import replace

import numpy as np
import pytest

from rendezsim import RegionFlag, fields
from rendezsim.fields import (follower_terms, navfunc_follower,
                              navfunc_leader, sigmoid_collision)
from rendezsim.gradients import (fd_hessian, follower_field_eval,
                                 grad_navfunc_follower, leader_field_eval)

from oracles import (fd_gradient, follower_potential,
                     grad_constraint_follower, grad_navfunc_leader)


def unit(rng):
    a = rng.uniform(-math.pi, math.pi)
    return np.array([math.cos(a), math.sin(a)])


def random_follower_state(rng, n_max=5, d_range=(0.05, 1.95)):
    p = rng.uniform(-10, 10, 2)
    m = int(rng.integers(1, n_max + 1))
    qs = [p + rng.uniform(*d_range) * unit(rng) for _ in range(m)]
    return p, qs


def fd_step(p):
    return 1e-6 * max(1.0, float(np.linalg.norm(p)))


class TestFdOracles:
    def test_gradient_of_quadratic(self):
        g = fd_gradient(lambda p: float(p @ p), np.array([1.0, 2.0]), 1e-5)
        assert np.allclose(g, [2.0, 4.0], atol=1e-8)

    def test_gradient_of_constant(self):
        g = fd_gradient(lambda p: 3.0, np.array([0.3, -0.4]), 1e-5)
        assert np.allclose(g, [0.0, 0.0])

    def test_gradient_of_bilinear(self):
        g = fd_gradient(lambda p: p[0] * p[1], np.array([2.0, 3.0]), 1e-5)
        assert np.allclose(g, [3.0, 2.0], atol=1e-8)

    def test_gradient_rejects_bad_step(self):
        with pytest.raises(ValueError):
            fd_gradient(lambda p: 0.0, np.zeros(2), 0.0)

    def test_gradient_rejects_non_finite_field(self):
        with pytest.raises(ValueError, match="non-finite"):
            fd_gradient(lambda p: math.inf, np.zeros(2), 1e-5)

    def test_hessian_of_quadratic(self):
        h = fd_hessian(lambda p: float(p @ p), np.array([0.7, -1.2]), 1e-4)
        assert np.allclose(h, 2.0 * np.eye(2), atol=1e-4)

    def test_hessian_of_linear(self):
        h = fd_hessian(lambda p: 3.0 * p[0] - 2.0 * p[1] + 1.0,
                       np.array([0.5, 0.5]), 1e-4)
        assert np.allclose(h, np.zeros((2, 2)), atol=1e-6)

    def test_hessian_of_cubic_monomial(self):
        # f = x^2 y: hessian [[2y, 2x], [2x, 0]] at (1, 1)
        h = fd_hessian(lambda p: p[0] ** 2 * p[1], np.array([1.0, 1.0]), 1e-4)
        assert np.allclose(h, [[2.0, 2.0], [2.0, 0.0]], atol=1e-3)

    def test_cross_partials_symmetric_before_averaging(self):
        # both association orders of the four corner samples agree on
        # smooth fields
        rng = np.random.default_rng(1)
        f = lambda p: math.sin(p[0]) * math.exp(0.3 * p[1]) + p[0] * p[1] ** 2
        for _ in range(50):
            p = rng.uniform(-2, 2, 2)
            h = 1e-4
            e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
            fpp, fpm = f(p + e1 + e2), f(p + e1 - e2)
            fmp, fmm = f(p - e1 + e2), f(p - e1 - e2)
            d12 = ((fpp - fmp) - (fpm - fmm)) / (4 * h * h)
            d21 = ((fpp - fpm) - (fmp - fmm)) / (4 * h * h)
            assert abs(d12 - d21) < 1e-6


def goal_terms(p, qs, params):
    """gamma and its gradient, which depend on neither region nor mode."""
    gamma, dgamma, *_ = follower_terms(p, qs, RegionFlag.RENDEZVOUS, params)
    return gamma, np.array(dgamma)


class TestGoalGradient:
    def test_zero_at_consensus(self, params_s5):
        p = np.array([2.0, -1.0])
        g = goal_terms(p, [p.copy(), p.copy(), p.copy()], params_s5)[1]
        assert np.all(g == 0.0)

    def test_single_neighbor(self, params_s5):
        g = goal_terms(np.array([1.0, 0.0]), [np.array([0.0, 0.0])],
                       params_s5)[1]
        assert np.allclose(g, [2.0, 0.0])

    def test_matches_fd_with_many_neighbors(self, params_s5):
        rng = np.random.default_rng(2)
        p = rng.uniform(-3, 3, 2)
        qs = [rng.uniform(-3, 3, 2) for _ in range(5)]
        fd = fd_gradient(lambda x: goal_terms(x, qs, params_s5)[0], p, 1e-6)
        assert np.allclose(goal_terms(p, qs, params_s5)[1], fd, atol=1e-8)


class TestConstraintGradient:
    def test_single_neighbor_at_sigmoid_midpoint(self, params_fig2):
        # gradient points toward the neighbor, scaled by the slope magnitude
        p = np.zeros(2)
        q = np.array([1.5, 0.0])  # midpoint of the connectivity sigmoid
        g = grad_constraint_follower(p, [q], RegionFlag.RENDEZVOUS,
                                     params_fig2)
        # b'(d) = -k b (1 - b) with k = 2 ln(99) / buffer and b = 1/2
        slope = -math.log(99.0) / 2.0
        expected = slope * (p - q) / 1.5
        assert np.allclose(g, expected, rtol=1e-12)
        assert g[0] > 0  # attraction toward the neighbor at (1.5, 0)

    def test_vanishes_deep_inside_sensing_range(self, params_s5):
        # all neighbors well inside the sensing plateau: slope is negligible
        p = np.zeros(2)
        qs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
              np.array([-1.0, 0.1])]
        g = grad_constraint_follower(p, qs, RegionFlag.RENDEZVOUS, params_s5)
        assert float(np.linalg.norm(g)) < 1e-6

    def test_full_mode_matches_fd_in_avoidance_region(self, params_s5):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p, qs = random_follower_state(rng)
            g = grad_constraint_follower(p, qs, RegionFlag.COLLISION_FREE,
                                         params_s5, gradient_mode="full")
            fd = fd_gradient(
                lambda x: follower_terms(x, qs, RegionFlag.COLLISION_FREE,
                                         params_s5)[2], p, fd_step(p))
            assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(fd),
                                                        1e-3)


class TestFollowerGradient:
    def test_zero_at_consensus(self, params_s5):
        p = np.array([1.0, 1.0])
        bundle = grad_navfunc_follower(p, [p.copy(), p.copy()],
                                       RegionFlag.RENDEZVOUS, params_s5)
        assert np.all(bundle.gradient == 0.0)

    def test_edge_weight_at_consensus_with_saturated_constraint(self,
                                                                params_s5):
        # goal term zero, single coincident neighbor, constraint product 1:
        # the edge weight reduces to 2 / beta^(1/alpha) = 2
        p = np.array([4.0, -2.0])
        bundle = grad_navfunc_follower(p, [p.copy()], RegionFlag.RENDEZVOUS,
                                       params_s5)
        assert bundle.edge_weights[0] == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("mode", ["full", "paper"])
    @pytest.mark.parametrize("region", [RegionFlag.COLLISION_FREE,
                                        RegionFlag.RENDEZVOUS])
    def test_matches_fd_oracle(self, params_s5, mode, region):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p, qs = random_follower_state(rng)
            bundle = grad_navfunc_follower(p, qs, region, params_s5,
                                           gradient_mode=mode)
            fd = fd_gradient(
                lambda x: follower_potential(x, qs, region, params_s5, mode),
                p, fd_step(p))
            rel = np.linalg.norm(bundle.gradient - fd) / max(
                np.linalg.norm(fd), 1e-9)
            assert rel < 1e-6

    def test_edgewise_decomposition_matches_gradient(self, params_s5):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p, qs = random_follower_state(rng)
            bundle = grad_navfunc_follower(p, qs, RegionFlag.RENDEZVOUS,
                                           params_s5)
            recon = sum(w * (p - q)
                        for w, q in zip(bundle.edge_weights, qs))
            assert np.linalg.norm(recon - bundle.gradient) < 1e-10

    def test_edge_weights_nonnegative_without_collision_terms(self,
                                                              params_s5):
        rng = np.random.default_rng(6)
        for _ in range(200):
            p, qs = random_follower_state(rng)
            bundle = grad_navfunc_follower(p, qs, RegionFlag.RENDEZVOUS,
                                           params_s5)
            assert all(w >= 0.0 for w in bundle.edge_weights)


class TestLeaderGradient:
    def test_zero_at_goal(self, params_s5):
        g = grad_navfunc_leader(params_s5.goal_position.copy(), params_s5)
        assert np.all(g == 0.0)

    def test_points_toward_goal_on_heading_axis(self, params_s5):
        # beyond the goal along the desired heading: descent direction is
        # back toward the goal
        g = grad_navfunc_leader(np.array([3.0, 0.0]), params_s5)
        assert g[0] > 0.0
        assert abs(g[1]) < 1e-12
        fd = fd_gradient(lambda p: navfunc_leader(p, params_s5),
                         np.array([3.0, 0.0]), 1e-6)
        assert np.allclose(g, fd, rtol=1e-6, atol=1e-9)

    def test_matches_fd_oracle(self, params_s5):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = rng.uniform(-20, 20, 2)
            g = grad_navfunc_leader(p, params_s5)
            fd = fd_gradient(lambda x: navfunc_leader(x, params_s5), p,
                             fd_step(p))
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-9)
            assert rel < 1e-6

    def test_workspace_center_special_case(self, params_s5):
        from dataclasses import replace
        params = replace(params_s5, goal_position=np.array([3.0, 0.0]))
        g = grad_navfunc_leader(np.zeros(2), params)
        assert np.all(np.isfinite(g))


def rel_error(h, fd):
    return np.linalg.norm(h - fd) / max(np.linalg.norm(fd), 1e-9)


class TestHessianOracle:
    def test_leader_matches_fd_hessian(self, params_s5):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(100):
            p = rng.uniform(-20, 20, 2)
            h = leader_field_eval(p, params_s5).hessian
            # second differences balance truncation against rounding near
            # eps^(1/4) of the position scale
            fd = fd_hessian(lambda x: navfunc_leader(x, params_s5), p,
                            1e-4 * max(1.0, float(np.linalg.norm(p))))
            worst = max(worst, rel_error(h, fd))
        assert worst < 1e-5

    def test_leader_near_rim_matches_fd_hessian(self, params_s5):
        # inside the rim factor's band, where its curvature counts; phi is
        # near 1 there, which limits second differences to about 1e-5
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(100):
            p = rng.uniform(49.5, 49.95) * unit(rng)
            h = leader_field_eval(p, params_s5).hessian
            fd = fd_hessian(lambda x: navfunc_leader(x, params_s5), p, 3e-4)
            worst = max(worst, rel_error(h, fd))
        assert worst < 1e-4

    @pytest.mark.parametrize("mode", ["full", "paper"])
    @pytest.mark.parametrize("region", [RegionFlag.COLLISION_FREE,
                                        RegionFlag.RENDEZVOUS])
    def test_follower_matches_fd_hessian(self, params_s5, mode, region):
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(100):
            p, qs = random_follower_state(rng)
            h = follower_field_eval(p, qs, region, params_s5,
                                    gradient_mode=mode).hessian
            fd = fd_hessian(
                lambda x: follower_potential(x, qs, region, params_s5, mode),
                p, 1e-4)  # the sigmoid widths, not |p|, set the scale
            worst = max(worst, rel_error(h, fd))
        assert worst < 1e-5

    @pytest.mark.parametrize("alpha", [0.5, 1.2])
    def test_leader_at_goal(self, params_s5, alpha):
        # gamma = 0 there, so hess phi = hess gamma / beta^(1/a)
        params = replace(params_s5, field_exponent=alpha,
                         goal_position=np.array([2.0, -1.0]))
        h = leader_field_eval(params.goal_position.copy(), params).hessian
        beta = params.dipolar_eps * sigmoid_collision(
            params.workspace_radius - math.hypot(2.0, -1.0),
            params.collision_margin, params.sigmoid_eps)
        assert np.allclose(h, 2.0 / beta ** (1.0 / alpha) * np.eye(2),
                           rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.2])
    def test_leader_at_workspace_center(self, params_s5, alpha):
        params = replace(params_s5, field_exponent=alpha,
                         goal_position=np.array([3.0, 0.0]))
        h = leader_field_eval(np.zeros(2), params).hessian
        assert np.all(np.isfinite(h))
        fd = fd_hessian(lambda x: navfunc_leader(x, params), np.zeros(2),
                        1e-4)
        assert rel_error(h, fd) < 1e-5

    @pytest.mark.parametrize("alpha", [0.5, 1.2])
    @pytest.mark.parametrize("mode", ["full", "paper"])
    @pytest.mark.parametrize("region", [RegionFlag.COLLISION_FREE,
                                        RegionFlag.RENDEZVOUS])
    def test_follower_with_coincident_neighbor(self, params_s5, alpha, mode,
                                               region):
        params = replace(params_s5, field_exponent=alpha)
        p = np.array([1.0, -2.0])
        alone = follower_field_eval(p, [p.copy()], region, params,
                                    gradient_mode=mode)
        # consensus: gamma = 0 and the floored edge adds no slope; "paper"
        # drops the collision factors in both regions
        law_region = region if mode == "full" else RegionFlag.RENDEZVOUS
        beta = follower_terms(p, [p.copy()], law_region, params)[2]
        assert np.allclose(alone.hessian,
                           2.0 / beta ** (1.0 / alpha) * np.eye(2),
                           rtol=1e-12, atol=0.0)
        mixed = follower_field_eval(p, [p.copy(), p + np.array([0.6, 0.8])],
                                    region, params, gradient_mode=mode)
        assert np.all(np.isfinite(mixed.hessian))


class TestOneWalk:
    """follower_field_eval takes its "full" value from the quotient that the
    gradient already forms, so it walks a follower's neighbors once."""

    @staticmethod
    def two_walks(p, qs, region, params, mode):
        bundle = grad_navfunc_follower(p, qs, region, params,
                                       gradient_mode=mode)
        return (navfunc_follower(p, qs, region, params), bundle.gradient,
                bundle.hessian)

    @pytest.mark.parametrize("alpha", [0.5, 1.2, 2.0])
    @pytest.mark.parametrize("mode", ["full", "paper"])
    @pytest.mark.parametrize("region", [RegionFlag.COLLISION_FREE,
                                        RegionFlag.RENDEZVOUS])
    def test_matches_the_two_walk_form(self, params_s5, alpha, mode, region):
        params = replace(params_s5, field_exponent=alpha)
        rng = np.random.default_rng(17)
        for _ in range(300):
            p, qs = random_follower_state(rng, d_range=(0.0, 2.2))
            ev = follower_field_eval(p, qs, region, params,
                                     gradient_mode=mode)
            value, grad, hess = self.two_walks(p, qs, region, params, mode)
            assert np.float64(ev.value).tobytes() == np.float64(
                value).tobytes()
            assert ev.gradient.tobytes() == grad.tobytes()
            assert ev.hessian.tobytes() == hess.tobytes()

    @pytest.mark.parametrize("mode, calls", [("full", 3), ("paper", 6)])
    def test_one_sigmoid_per_edge(self, params_s5, monkeypatch, mode, calls):
        made = []
        sigmoid = fields.sigmoid_connectivity

        def count(*args):
            made.append(args[0])
            return sigmoid(*args)
        monkeypatch.setattr(fields, "sigmoid_connectivity", count)
        p = np.array([0.5, -0.5])
        qs = [p + np.array(v) for v in ((0.7, 0.0), (0.0, -1.1), (1.2, 0.9))]
        follower_field_eval(p, qs, RegionFlag.COLLISION_FREE, params_s5,
                            gradient_mode=mode)
        assert len(made) == calls

import math
from dataclasses import replace

import numpy as np
import pytest

from rendezsim import RegionFlag, step
from rendezsim.fields import (_logistic, edge_factors, follower_terms,
                              leader_constants, leader_terms,
                              navfunc_follower, navfunc_leader, region_of,
                              sigmoid_collision, sigmoid_connectivity,
                              sigmoid_gain)

from conftest import small_config


def reference_leader_value(p, goal, goal_heading, eps_nh, alpha, r_work,
                           margin, eps):
    """Independent re-derivation of the informed robot's potential."""
    gamma = float(np.sum((p - goal) ** 2))
    axis = np.array([math.cos(goal_heading), math.sin(goal_heading)])
    dip = eps_nh + float((p - goal) @ axis) ** 2
    d0 = r_work - float(np.linalg.norm(p))
    bnd = 1.0 / (1.0 + math.exp(-(2.0 / margin) * math.log((1 - eps) / eps)
                                * (d0 - margin / 2.0)))
    return gamma / (gamma ** alpha + dip * bnd) ** (1.0 / alpha)


class TestSigmoids:
    """Endpoint identities at the wider illustration parameters."""

    def test_connectivity_midpoint(self):
        assert sigmoid_connectivity(1.5, 2.0, 1.0, 0.01) == pytest.approx(
            0.5, abs=1e-12)

    def test_connectivity_at_radius(self):
        assert sigmoid_connectivity(2.0, 2.0, 1.0, 0.01) == pytest.approx(
            0.01, abs=1e-12)

    def test_connectivity_inner_end(self):
        assert sigmoid_connectivity(1.0, 2.0, 1.0, 0.01) == pytest.approx(
            0.99, abs=1e-12)

    def test_collision_midpoint(self):
        assert sigmoid_collision(0.25, 0.5, 0.01) == pytest.approx(0.5,
                                                                   abs=1e-12)

    def test_collision_at_contact(self):
        assert sigmoid_collision(0.0, 0.5, 0.01) == pytest.approx(0.01,
                                                                  abs=1e-12)

    def test_collision_at_margin(self):
        assert sigmoid_collision(0.5, 0.5, 0.01) == pytest.approx(0.99,
                                                                  abs=1e-12)

    def test_reference_margin_endpoints(self):
        # margins 0.4 m as in the committed scenario
        assert sigmoid_connectivity(2.0, 2.0, 0.4, 0.01) == pytest.approx(
            0.01, abs=1e-12)
        assert sigmoid_connectivity(1.6, 2.0, 0.4, 0.01) == pytest.approx(
            0.99, abs=1e-12)
        assert sigmoid_connectivity(1.8, 2.0, 0.4, 0.01) == pytest.approx(
            0.5, abs=1e-12)
        assert sigmoid_collision(0.2, 0.4, 0.01) == pytest.approx(0.5,
                                                                  abs=1e-12)

    def test_boundary_factor_shape(self):
        # the informed robot's rim factor, at distances R_w - |p|
        assert sigmoid_collision(0.25, 0.5, 0.01) == pytest.approx(0.5,
                                                                   abs=1e-12)
        assert sigmoid_collision(0.0, 0.5, 0.01) == pytest.approx(0.01,
                                                                  abs=1e-12)
        assert sigmoid_collision(10.0, 0.5, 0.01) > 1.0 - 1e-12

    def test_monotonicity(self):
        # grids stay inside the band where the tails are still resolvable
        # in double precision; beyond it the values saturate exactly
        grid = np.linspace(0.0, 3.0, 400)
        b = [sigmoid_connectivity(d, 2.0, 1.0, 0.01) for d in grid]
        assert all(x > y for x, y in zip(b, b[1:]))  # decreasing in d
        grid = np.linspace(0.0, 1.5, 400)
        c = [sigmoid_collision(d, 0.5, 0.01) for d in grid]
        assert all(x < y for x, y in zip(c, c[1:]))  # increasing in d
        w = [sigmoid_collision(d, 0.5, 0.01) for d in grid]
        assert all(x < y for x, y in zip(w, w[1:]))


class TestEdgeFactors:
    """``edge_factors`` states each factor's constants once: its logistic
    of y = (d - center) gain, logistic(-y), is ``sigmoid_connectivity``'s
    and ``sigmoid_collision``'s bit for bit."""

    @staticmethod
    def grid(cfg, factors):
        # every centimeter of the sensing range, each center and its
        # neighbors one ulp away, contact and the sensing radius
        points = np.linspace(0.0, cfg.sensing_radius, 201).tolist()
        for center, *_ in factors:
            points += [center, math.nextafter(center, -math.inf),
                       math.nextafter(center, math.inf)]
        return points + [0.0, cfg.sensing_radius]

    @pytest.mark.parametrize("name", ["params_s5", "params_fig2"])
    def test_logistic_is_the_sigmoid(self, request, name):
        cfg = request.getfixturevalue(name)
        b, c = edge_factors(cfg)
        eps = cfg.sigmoid_eps
        d = self.grid(cfg, (b, c))
        want = {b: [sigmoid_connectivity(x, cfg.sensing_radius,
                                         cfg.connectivity_buffer, eps)
                    for x in d],
                c: [sigmoid_collision(x, cfg.collision_margin, eps)
                    for x in d]}
        for (center, gain, _, _), values in want.items():
            got = [_logistic(-((x - center) * gain)) for x in d]
            assert np.array(got).tobytes() == np.array(values).tobytes()
        assert 0.5 in want[b] and 0.5 in want[c]  # the centers

    def test_log_derivative_constants(self, params_s5):
        cfg = params_s5
        k_b = sigmoid_gain(cfg.connectivity_buffer, cfg.sigmoid_eps)
        k_c = sigmoid_gain(cfg.collision_margin, cfg.sigmoid_eps)
        b, c = edge_factors(cfg)
        assert b == (cfg.sensing_radius - 0.5 * cfg.connectivity_buffer,
                     k_b, -k_b, -k_b * k_b)
        assert c == (0.5 * cfg.collision_margin, -k_c, k_c, -(k_c * k_c))
        assert leader_constants(cfg).rim_gain == k_c

    @pytest.mark.parametrize("name", ["params_s5", "params_fig2"])
    def test_leader_rim_factor_is_the_sigmoid(self, request, name):
        # leader_terms takes the rim factor's constants once, from
        # leader_constants: beta is dip B(R_w - |p|) bit for bit, across
        # the rim band and deep inside it
        cfg = request.getfixturevalue(name)
        goal = cfg.goal_position
        axis = (math.cos(cfg.goal_heading), math.sin(cfg.goal_heading))
        for r in np.linspace(0.0, cfg.workspace_radius, 2001).tolist():
            for angle in (0.3, 2.0, -2.5):
                p = np.array([r * math.cos(angle), r * math.sin(angle)])
                _, _, beta, _, _ = leader_terms(p, cfg)
                px, py = p.tolist()
                proj = ((px - float(goal[0])) * axis[0]
                        + (py - float(goal[1])) * axis[1])
                rim = sigmoid_collision(
                    cfg.workspace_radius - math.hypot(px, py),
                    cfg.collision_margin, cfg.sigmoid_eps)
                assert beta == (cfg.dipolar_eps + proj * proj) * rim


class TestScalarParts:
    @staticmethod
    def leader(p, params, goal=(0.0, 0.0)):
        """(gamma, beta) of ``leader_terms`` for a goal with heading 0 and
        dipolar_eps 0.01. The points lie deep inside the 50 m workspace,
        where the rim factor is exactly 1.0, so beta is the dipolar factor."""
        cfg = replace(params, goal_position=np.array(goal), goal_heading=0.0,
                      dipolar_eps=0.01)
        gamma, _, beta, _, _ = leader_terms(np.asarray(p, dtype=float), cfg)
        return gamma, beta

    def test_goal_leader_zero_at_goal(self, params_s5):
        assert self.leader([1.0, -2.0], params_s5, goal=(1.0, -2.0))[0] == 0.0

    def test_goal_leader_three_four_five(self, params_s5):
        assert self.leader([3.0, 4.0], params_s5)[0] == pytest.approx(25.0)

    def test_goal_leader_translation_invariant(self, params_s5):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p, goal, shift = rng.uniform(-5, 5, (3, 2))
            assert self.leader(p + shift, params_s5, goal + shift)[0] == (
                pytest.approx(self.leader(p, params_s5, goal)[0], rel=1e-12))

    def test_dipolar_perpendicular_displacement(self, params_s5):
        val = self.leader([0.0, 5.0], params_s5)[1]
        assert val == pytest.approx(0.01, abs=1e-12)

    def test_dipolar_axial_displacement(self, params_s5):
        assert self.leader([2.0, 0.0], params_s5)[1] == pytest.approx(4.01)

    def test_dipolar_floor_at_goal(self, params_s5):
        assert self.leader([0.0, 0.0], params_s5)[1] == 0.01

    def test_goal_follower_consensus(self, params_s5):
        p = np.array([1.0, 1.0])
        assert follower_terms(p, [p.copy(), p.copy()], RegionFlag.RENDEZVOUS,
                              params_s5)[0] == 0.0

    def test_goal_follower_two_neighbors(self, params_s5):
        p = np.zeros(2)
        nbrs = [np.array([1.0, 0.0]), np.array([0.0, 2.0])]
        assert follower_terms(p, nbrs, RegionFlag.RENDEZVOUS,
                              params_s5)[0] == pytest.approx(5.0)

    def test_goal_follower_single_matches_leader_form(self, params_s5):
        p = np.array([0.3, -0.7])
        q = np.array([2.0, 1.0])
        assert follower_terms(p, [q], RegionFlag.RENDEZVOUS,
                              params_s5)[0] == pytest.approx(
                                  np.sum((p - q) ** 2))

    def test_goal_follower_requires_neighbors(self, params_s5):
        with pytest.raises(ValueError, match="no neighbors"):
            follower_terms(np.zeros(2), [], RegionFlag.RENDEZVOUS, params_s5)


class TestConstraintFollower:
    def test_single_neighbor_midpoint_rendezvous(self, params_fig2):
        p = np.zeros(2)
        q = np.array([1.5, 0.0])  # R - buffer/2
        val = follower_terms(p, [q], RegionFlag.RENDEZVOUS, params_fig2)[2]
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_single_neighbor_collision_midpoint(self, params_fig2):
        # collision sigmoid at its midpoint, connectivity factor near one
        p = np.zeros(2)
        q = np.array([0.25, 0.0])
        expected = (sigmoid_connectivity(0.25, 2.0, 1.0, 0.01)
                    * sigmoid_collision(0.25, 0.5, 0.01))
        val = follower_terms(p, [q], RegionFlag.COLLISION_FREE,
                             params_fig2)[2]
        assert val == pytest.approx(expected, rel=1e-12)
        assert val == pytest.approx(0.5 * 0.999, rel=1e-2)

    def test_two_neighbor_product(self, params_fig2):
        p = np.zeros(2)
        qs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        expected = 1.0
        for q in qs:
            d = float(np.linalg.norm(p - q))
            expected *= (sigmoid_connectivity(d, 2.0, 1.0, 0.01)
                         * sigmoid_collision(d, 0.5, 0.01))
        val = follower_terms(p, qs, RegionFlag.COLLISION_FREE,
                             params_fig2)[2]
        assert val == pytest.approx(expected, rel=1e-12)

    def test_dropping_collision_terms_never_decreases(self, params_s5):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = rng.uniform(-10, 10, 2)
            m = int(rng.integers(1, 5))
            qs = [p + rng.uniform(0.05, 1.95) * _unit(rng) for _ in range(m)]
            c = follower_terms(p, qs, RegionFlag.COLLISION_FREE, params_s5)[2]
            r = follower_terms(p, qs, RegionFlag.RENDEZVOUS, params_s5)[2]
            assert r >= c


def _unit(rng):
    a = rng.uniform(-math.pi, math.pi)
    return np.array([math.cos(a), math.sin(a)])


class TestNavfuncLeader:
    def test_zero_at_goal(self, params_s5):
        assert navfunc_leader(params_s5.goal_position, params_s5) == 0.0

    def test_balanced_substitution(self, params_s5):
        # alpha=1, goal distance 1 perpendicular to the axis, dipolar
        # regularizer 1, boundary factor saturated: value = 1/(1+1) = 0.5
        from dataclasses import replace
        params = replace(params_s5, field_exponent=1.0, dipolar_eps=1.0)
        val = navfunc_leader(np.array([0.0, 1.0]), params)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_matches_independent_formula(self, params_s5):
        p = np.array([10.0, 0.0])
        expected = reference_leader_value(
            p, params_s5.goal_position, params_s5.goal_heading,
            params_s5.dipolar_eps, params_s5.field_exponent,
            params_s5.workspace_radius, params_s5.collision_margin,
            params_s5.sigmoid_eps)
        assert navfunc_leader(p, params_s5) == pytest.approx(expected,
                                                             rel=1e-12)

    def test_range_on_random_states(self, params_s5):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            p = rng.uniform(-0.6, 0.6, 2) * params_s5.workspace_radius
            val = navfunc_leader(p, params_s5)
            assert 0.0 <= val <= 1.0


class TestNavfuncFollower:
    def test_zero_at_consensus(self, params_s5):
        p = np.array([3.0, 2.0])
        assert navfunc_follower(p, [p.copy(), p.copy()],
                                RegionFlag.RENDEZVOUS, params_s5) == 0.0

    def test_balanced_substitution(self, params_s5):
        # alpha=1, one neighbor at distance 1 with connectivity factor
        # saturated to exactly 1: value = 1/(1+1) = 0.5
        from dataclasses import replace
        params = replace(params_s5, field_exponent=1.0, sensing_radius=50.0,
                         connectivity_buffer=1.0)
        p = np.zeros(2)
        val = navfunc_follower(p, [np.array([1.0, 0.0])],
                               RegionFlag.RENDEZVOUS, params)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_near_maximal_at_sensing_range(self, params_s5):
        p = np.zeros(2)
        q = np.array([2.0, 0.0])  # exactly at sensing radius: b = eps
        gamma = 4.0
        alpha = params_s5.field_exponent
        expected = gamma / (gamma ** alpha + 0.01) ** (1.0 / alpha)
        val = navfunc_follower(p, [q], RegionFlag.RENDEZVOUS, params_s5)
        assert val == pytest.approx(expected, rel=1e-12)
        assert val > 0.99

    def test_range_on_random_states(self, params_s5):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            p = rng.uniform(-20, 20, 2)
            m = int(rng.integers(1, 6))
            qs = [p + rng.uniform(0.05, 1.9) * _unit(rng) for _ in range(m)]
            for region in RegionFlag:
                val = navfunc_follower(p, qs, region, params_s5)
                assert 0.0 <= val <= 1.0

    def test_translation_invariance_in_rendezvous(self, params_s5):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = rng.uniform(-10, 10, 2)
            qs = [p + rng.uniform(0.1, 1.9) * _unit(rng) for _ in range(3)]
            shift = rng.uniform(-5, 5, 2)
            a = navfunc_follower(p, qs, RegionFlag.RENDEZVOUS, params_s5)
            b = navfunc_follower(p + shift, [q + shift for q in qs],
                                 RegionFlag.RENDEZVOUS, params_s5)
            assert b == pytest.approx(a, rel=1e-9)

    def test_switch_never_increases_value(self, params_s5):
        rng = np.random.default_rng(19)
        for _ in range(100):
            p = rng.uniform(-10, 10, 2)
            qs = [p + rng.uniform(0.05, 1.9) * _unit(rng) for _ in range(3)]
            before = navfunc_follower(p, qs, RegionFlag.COLLISION_FREE,
                                      params_s5)
            after = navfunc_follower(p, qs, RegionFlag.RENDEZVOUS, params_s5)
            assert after <= before + 1e-15


class TestRegionSwitch:
    def test_inside_threshold_switches(self, params_s5):
        assert region_of(np.array([1.4, 0.0]),
                         params_s5) is RegionFlag.RENDEZVOUS

    def test_outside_threshold_stays(self, params_s5):
        assert region_of(np.array([1.6, 0.0]),
                         params_s5) is RegionFlag.COLLISION_FREE

    def test_latched_once_triggered(self):
        # the informed robot starts and ends the step beyond the switch
        # distance, which alone answers COLLISION_FREE; sim latches
        cfg = small_config()
        states, _, region = step(cfg.initial_states, RegionFlag.RENDEZVOUS,
                                 cfg)
        assert region_of(states[0].position,
                         cfg) is RegionFlag.COLLISION_FREE
        assert region is RegionFlag.RENDEZVOUS

    def test_threshold_value(self, params_s5):
        assert params_s5.switch_distance == pytest.approx(1.5)

import math

import numpy as np
import pytest

from rendezsim import (FieldParams, RobotState, Role, ScenarioError,
                       normalize_angle, validate_scenario)
from rendezsim.model import wrap_angles

from conftest import make_states, small_config


class TestNormalizeAngle:
    def test_identity(self):
        assert normalize_angle(0.0) == 0.0

    def test_wrap_down(self):
        assert normalize_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2,
                                                                 abs=1e-15)

    def test_minus_pi_maps_to_pi(self):
        assert normalize_angle(-math.pi) == math.pi

    def test_pi_stays(self):
        assert normalize_angle(math.pi) == math.pi

    def test_idempotent_on_grid(self):
        for theta in np.linspace(-25.0, 25.0, 1001):
            once = normalize_angle(theta)
            assert -math.pi < once <= math.pi
            assert normalize_angle(once) == once

    def test_congruent_mod_2pi(self):
        for theta in np.linspace(-20.0, 20.0, 401):
            out = normalize_angle(theta)
            assert math.isclose(math.cos(out), math.cos(theta), abs_tol=1e-12)
            assert math.isclose(math.sin(out), math.sin(theta), abs_tol=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            normalize_angle(bad)


class TestWrapAngles:
    def test_matches_normalize_angle_elementwise(self):
        pi = math.pi
        edges = [pi, -pi, 3 * pi, -3 * pi,
                 math.nextafter(pi, 0.0), math.nextafter(pi, 4.0),
                 math.nextafter(-pi, 0.0), math.nextafter(-pi, -4.0),
                 1e6, -1e6, 0.0, -0.0]
        grid = np.linspace(-25.0, 25.0, 1001).tolist()
        theta = np.array(edges + grid)
        expected = [normalize_angle(t) for t in theta.tolist()]
        out = wrap_angles(theta)
        # bit for bit, signed zeros included
        assert out.tobytes() == np.array(expected).tobytes()

    def test_non_finite_comes_out_nan(self):
        with np.errstate(invalid="ignore"):
            out = wrap_angles(np.array([math.nan, math.inf, -math.inf, 1.0]))
        assert np.isnan(out[:3]).all() and out[3] == 1.0


class TestRobotState:
    def test_heading_normalized_on_construction(self):
        s = RobotState(1, np.array([1.0, 2.0]), 3 * math.pi, Role.FOLLOWER)
        assert s.heading == pytest.approx(math.pi)

    def test_bad_position_shape(self):
        with pytest.raises(ScenarioError):
            RobotState(1, np.array([1.0, 2.0, 3.0]), 0.0, Role.FOLLOWER)


class TestValidateScenario:
    def test_reference_parameters_accepted(self):
        # six robots, sensing 2 m, margins 0.4 m, radii 50/11.5
        states = make_states([(-5.0, -3.0, 0.0), (-5.8, -3.2, 1.0),
                              (-4.4, -3.5, -1.0), (-5.2, -2.2, 2.0),
                              (-4.2, -2.4, 0.3), (-5.9, -2.4, -2.0)])
        cfg = small_config(
            n_robots=6, workspace_radius=50.0, rendezvous_radius=11.5,
            linear_gains=[2.0] + [4.0] * 5, angular_gains=[8.0] * 6,
            initial_states=states)
        assert validate_scenario(cfg) is cfg
        assert FieldParams.from_config(cfg).switch_distance == pytest.approx(
            1.5)

    def test_collision_margin_must_be_below_sensing(self):
        cfg = small_config(collision_margin=2.0)
        with pytest.raises(ScenarioError, match="collision_margin"):
            validate_scenario(cfg)

    def test_exactly_one_informed(self):
        states = small_config().initial_states
        doubled = [states[0],
                   RobotState(2, states[1].position, 0.0, Role.INFORMED),
                   states[2]]
        cfg = small_config(initial_states=doubled)
        with pytest.raises(ScenarioError, match="exactly one informed"):
            validate_scenario(cfg)

    def test_informed_must_be_robot_one(self):
        cfg = small_config(initial_states=make_states(
            [(-4.0, -2.0, 0.5), (-4.8, -2.5, -1.0), (-3.4, -2.9, 2.0)],
            informed=2))
        with pytest.raises(ScenarioError, match="id 1"):
            validate_scenario(cfg)

    def test_rendezvous_radius_floor(self):
        cfg = small_config(rendezvous_radius=3.9)  # needs > R*(N-1) = 4
        with pytest.raises(ScenarioError, match="rendezvous_radius"):
            validate_scenario(cfg)

    def test_workspace_must_dominate_rendezvous_disk(self):
        cfg = small_config(workspace_radius=9.9, rendezvous_radius=5.0)
        with pytest.raises(ScenarioError, match="workspace_radius"):
            validate_scenario(cfg)

    def test_sigmoid_eps_range(self):
        with pytest.raises(ScenarioError, match="sigmoid_eps"):
            validate_scenario(small_config(sigmoid_eps=0.5))

    def test_positive_gains(self):
        with pytest.raises(ScenarioError, match="linear gains"):
            validate_scenario(small_config(linear_gains=[2.0, -1.0, 4.0]))

    def test_start_inside_workspace(self):
        cfg = small_config(initial_states=make_states(
            [(-29.99, -2.0, 0.5), (-4.8, -2.5, -1.0), (-3.4, -2.9, 2.0)]))
        with pytest.raises(ScenarioError, match="inside the workspace"):
            validate_scenario(cfg)

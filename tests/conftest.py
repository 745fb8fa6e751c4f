import math

import numpy as np
import pytest

from rendezsim import RobotState, ScenarioConfig, Topology


def make_states(poses):
    """poses: list of (x, y, theta); ids assigned 1..n in order, 1 informed."""
    return [RobotState(i + 1, np.array([x, y]), th)
            for i, (x, y, th) in enumerate(poses)]


def wrap_rows(theta):
    """The rows ``model.wrap_angles`` takes after ``out``, in theta's
    shape: pi, and the screen's |theta| and comparison."""
    shape = np.shape(theta)
    return np.full(shape, math.pi), (np.empty(shape),
                                     np.empty(shape, dtype=bool))


def topology(n, neighbors):
    """Topology of robots 1..n from {robot: robots it senses}."""
    adjacency = np.zeros((n, n), dtype=bool)
    for i, near in neighbors.items():
        adjacency[i - 1, [j - 1 for j in near]] = True
    return Topology(adjacency)


def small_config(**overrides):
    """Three robots in a line, one informed, everything valid."""
    defaults = dict(
        n_robots=3, workspace_radius=30.0, sensing_radius=2.0,
        rendezvous_radius=5.0, collision_margin=0.4, connectivity_buffer=0.4,
        sigmoid_eps=0.01, dipolar_eps=0.5, field_exponent=1.2,
        linear_gains=[2.0, 4.0, 4.0], angular_gains=[8.0, 8.0, 8.0],
        goal_position=np.zeros(2), goal_heading=0.0,
        time_step=0.005, horizon=60.0,
        initial_states=make_states([(-4.0, -2.0, 0.5), (-4.8, -2.5, -1.0),
                                    (-3.4, -2.9, 2.0)]),
        gradient_floor=1e-6,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def field_config(**overrides):
    """Six robots with the reference field constants and no poses; the
    gains, time step and horizon are the reference scenario's."""
    defaults = dict(
        n_robots=6, workspace_radius=50.0, sensing_radius=2.0,
        rendezvous_radius=11.5, collision_margin=0.4, connectivity_buffer=0.4,
        sigmoid_eps=0.01, dipolar_eps=0.01, field_exponent=1.2,
        linear_gains=[2.0] + [4.0] * 5, angular_gains=[8.0] * 6,
        goal_position=np.zeros(2), goal_heading=0.0,
        time_step=0.005, horizon=400.0,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


@pytest.fixture
def params_s5():
    """Field constants of the six-robot reference setup."""
    return field_config()


@pytest.fixture
def params_fig2():
    """Field constants matching the wider sigmoid illustration."""
    return field_config(collision_margin=0.5, connectivity_buffer=1.0)

from collections import namedtuple

import numpy as np
import pytest

from rendezsim import RobotState, ScenarioConfig, Topology
from rendezsim.control import ControlWork, control_laws
from rendezsim.sim import (IntegrateWork, NonFiniteState, ScreenWork,
                           _integrate_all, _screen)


def make_states(poses):
    """poses: list of (x, y, theta); ids assigned 1..n in order, 1 informed."""
    return [RobotState(i + 1, np.array([x, y]), th)
            for i, (x, y, th) in enumerate(poses)]


def held_headings(theta):
    """(v, omega) rows, a ``sim.IntegrateWork`` on them and a
    ``sim.ScreenWork`` of robots at the origin with the 1-d headings
    ``theta``, watching nothing: one ``sim._integrate_all`` step leaves the
    headings as they are, signed zeros included, and ``sim._screen`` passes
    them where they are inside (-pi, pi) and wraps them where they are not:
    v = 0 and omega = -0.0 add -0.0 to each heading, which changes no bit
    of it."""
    n = len(theta)
    poses = np.zeros((n, 3))
    poses[:, 2] = theta
    controls = np.array([np.zeros(n), np.full(n, -0.0)])
    return (controls, IntegrateWork(poses, 0.005, controls),
            ScreenWork(poses, np.empty(3 * n)))


def integrator_wrap(theta):
    """The headings ``theta`` after one ``sim._integrate_all`` step of
    ``held_headings`` and its ``sim._screen``: the screen's wrap, or theta
    where no wrap is due. A non-finite heading comes out NaN, and the
    screen's NonFiniteState, raised after the wrap, is caught here."""
    controls, work, screen = held_headings(theta)
    _integrate_all(work)
    try:
        _screen(screen)
    except NonFiniteState:
        pass
    return work.poses[:, 2]


def bound_calls(kernel):
    """The bound calls of a ``sim.StepKernel``'s stages, as (attribute,
    callable, args): every list of (callable, args) pairs that its pair
    rows, jets, quotient rule, control laws and integrator hold."""
    for work in (kernel.pair_work, kernel.jets, kernel.jets.quotient,
                 kernel.laws, kernel.motion):
        for name, value in vars(work).items():
            if isinstance(value, tuple) and value and all(
                    isinstance(entry, tuple) and len(entry) == 2
                    and callable(entry[0]) and isinstance(entry[1], tuple)
                    for entry in value):
                for call, args in value:
                    yield name, call, args


def written(call, args):
    """The rows that a bound call writes: a take's output, its third
    argument, or any other call's last."""
    return args[2] if getattr(call, "__name__", None) == "take" else args[-1]


Laws = namedtuple("Laws", "v omega theta_d theta_tilde theta_d_dot grad_norm")


def one_robot_laws(grad, theta, held=None, hess=((0.0, 0.0), (0.0, 0.0)),
                   k_v=1.0, k_w=1.0, floor=1e-9):
    """``control_laws`` on a one-robot column, as floats, for the gradient
    (x, y), the wrapped heading theta and the (2, 2) Hessian. Where |grad|
    is at or below the floor, theta_d is ``held``, or theta when that is
    None."""
    w = ControlWork(np.array([float(theta)]), [k_v], [k_w], floor)
    w.controls[2] = theta if held is None else held
    hess = np.array(hess, dtype=float).reshape(4, 1)[[0, 1, 3]]
    w.load(np.array(grad, dtype=float)[:, None], hess)
    rows = control_laws(w)
    return Laws(*(float(row[0]) for row in rows))


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

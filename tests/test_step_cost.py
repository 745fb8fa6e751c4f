"""Step cost budget: numpy calls per simulated step.

The number of numpy calls a step makes is a property of the code, not of the
host, so it gates the cost of a step where timings on a shared host cannot.
``numpy_calls`` attributes each call to the rendezsim function that makes
it. A step's count is the difference between runs of k + 1 and k steps,
which cancels the set-up. A change that raises a budget says why; lowering
one is a claim.
"""

import dataclasses
import math
import os

import numpy as np
import pytest

from rendezsim import (ScenarioConfig, parse_scenario, run,
                       seeded_deployment)
from numpy_calls import counting

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                         "rendezvous_s5.scn")

# (total, calls given where=, ufunc calls given a scalar operand, ufunc
# calls whose operands differ in shape) per step. Before the exact screens
# each of the three steps made 8 where= calls, and 154, 147 and 154 calls in
# all. Before every operand became an array of its partner's shape each step
# made 25 scalar-operand calls and 15 broadcasting ones; the 5 scalar ones
# left are the quotient rule's four exponents and the stop screen's hypot
BUDGET = {
    "reference": (136, 0, 5, 0),
    "rendezvous": (133, 0, 5, 0),
    "sparse48": (138, 0, 5, 0),
}
# calls of numpy's Python-level helpers per step: np.sinc and np.copyto are
# met only on steps the screens send to their masked paths, and the
# logistic needs no np.where
HELPERS = {"sinc": 0, "where": 0, "copyto": 0}


def _reference():
    return parse_scenario(REFERENCE)


def _rendezvous():
    """The reference deployment moved so the informed robot starts inside
    the switch distance: every step runs without collision avoidance."""
    cfg = _reference()
    shift = np.array([4.0, 3.0])
    states = [s.with_pose(s.position + shift, s.heading)
              for s in cfg.initial_states]
    return dataclasses.replace(cfg, initial_states=states)


def _sparse48():
    """The sparse48 benchmark scenario with deployment seed 1."""
    n = 48
    states = seeded_deployment(1, n, np.array([-5.0, -3.0]), 6.0, 0.2,
                               2.0, 200.0)
    return ScenarioConfig(
        n_robots=n, workspace_radius=200.0, sensing_radius=2.0,
        rendezvous_radius=2.0 * (n - 1) + 1.5, collision_margin=0.4,
        connectivity_buffer=0.4, sigmoid_eps=0.01, dipolar_eps=0.5,
        field_exponent=1.2, linear_gains=[2.0] + [4.0] * (n - 1),
        angular_gains=[8.0] * n, goal_position=np.zeros(2),
        goal_heading=0.0, time_step=0.005, horizon=1.0,
        initial_states=states, gradient_floor=1e-6)


SCENARIOS = {"reference": (_reference, 100), "rendezvous": (_rendezvous, 100),
             "sparse48": (_sparse48, 100)}


def step_counts(cfg, k):
    """Numpy calls of step k of ``run(cfg)``, a step that is not the last."""
    def counted(steps):
        with counting() as counts:
            run(dataclasses.replace(cfg, horizon=steps * cfg.time_step))
        return counts
    return counted(k + 1) - counted(k)


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def counted_step(request):
    make, k = SCENARIOS[request.param]
    return request.param, step_counts(make(), k)


def test_calls_per_step_within_budget(counted_step):
    name, counts = counted_step
    total, where, scalar, broadcast = BUDGET[name]
    assert counts.total() <= total, sorted(counts.per_function().items())
    assert sum(counts.where.values()) <= where, sorted(counts.where.items())
    assert sum(counts.scalar.values()) <= scalar, sorted(
        counts.scalar.items())
    assert sum(counts.broadcast.values()) <= broadcast, sorted(
        counts.broadcast.items())


def test_numpy_helpers_per_step(counted_step):
    _, counts = counted_step
    for helper, budget in HELPERS.items():
        calls = sum(n for (_, called), n in counts.helpers.items()
                    if called == helper)
        assert calls <= budget, (helper, sorted(counts.helpers.items()))


def test_switch_happens_on_the_counted_scenarios():
    # the reference step counted above precedes the switch, the rendezvous
    # one follows it
    assert run(dataclasses.replace(_rendezvous(), horizon=0.01)).switch_step == 0
    assert run(dataclasses.replace(_reference(), horizon=0.6)).switch_step is None


class TestCounter:
    """The counter itself: what it counts and what it attributes."""

    def test_counts_rendezsim_calls_only(self):
        from rendezsim import model
        theta = np.array([0.5, 4.0, -4.0])
        with counting() as counts:
            np.add(theta, theta)  # made here, not by rendezsim
            model.wrap_angles(theta)
        functions = {f for f, _ in counts.calls}
        # the two angles past pi take the turn, a function of its own
        assert functions == {"model.wrap_angles", "model.turn_angles"}

    def test_numpy_internals_are_not_counted(self):
        from rendezsim import sim
        poses = np.zeros((2, 3))
        with counting() as counts:
            # a zero turn rate sends the step to np.sinc, which makes several
            # ufunc calls of its own; it counts as one
            sim._integrate_all(poses, np.ones(2), np.array([0.0, 1.0]), 0.1)
        assert counts.calls["sim._integrate_all", "sinc"] == 1
        assert counts.helpers["sim._integrate_all", "sinc"] == 1

    def test_where_calls_are_tallied(self):
        from rendezsim import gradients
        gamma = np.array([[0.0, 1.0]] * 3)
        with counting() as counts:
            # exponents under 1 keep the masked power
            gradients._quotient_jet(
                0.5, gradients.quotient_rows(0.5, 2), gamma, np.zeros((2, 2)),
                np.full((2, 2), 2.0), np.ones((2, 2)), np.zeros((2, 2)),
                np.zeros((3, 2)))
        assert sum(counts.where.values()) == 1

    def test_scalar_operands_are_tallied(self):
        from rendezsim import model
        theta = np.array([0.5, -1.0, 2.0])
        with counting() as counts:
            model.wrap_angles(theta, pi=np.full(3, math.pi))
        assert counts.calls["model.wrap_angles", "less"] == 1
        assert not counts.scalar
        with counting() as counts:
            model.wrap_angles(theta)  # the screen's bound, a float
        assert counts.scalar == {("model.wrap_angles", "less"): 1}
        with counting() as counts:
            # two bounds and 2 pi, on an array made inside the window, whose
            # operators are counted too
            model.turn_angles(np.array([0.5, 4.0, -4.0]))
        assert sum(counts.scalar.values()) == 3
        assert not counts.broadcast

    def test_broadcast_operands_are_tallied(self):
        from rendezsim import model
        theta = np.array([0.5, -1.0, 2.0])
        out = np.empty(3)
        with counting() as counts:
            model.wrap_angles(theta, out=out, pi=np.full(3, math.pi))
        assert counts.calls["model.wrap_angles", "less"] == 1
        assert not counts.broadcast
        with counting() as counts:
            # a (1,) bound beside the (3,) angles
            model.wrap_angles(theta, out=out, pi=np.array([math.pi]))
        assert counts.broadcast == {("model.wrap_angles", "less"): 1}
        with counting() as counts:
            np.add(theta, np.array([1.0]))  # made here, not by rendezsim
        assert not counts.broadcast

"""Step cost budget: numpy calls per simulated step.

The number of numpy calls a step makes is a property of the code, not of the
host, so it gates the cost of a step where timings on a shared host cannot.
``numpy_calls`` attributes each call to the rendezsim function that makes
it. A step's count is the difference between runs of k + 1 and k steps,
which cancels the set-up. A change that raises a budget says why; lowering
one is a claim.
"""

import dataclasses
import functools
import math
import os

import numpy as np
import pytest

from rendezsim import (RobotState, ScenarioConfig, parse_scenario, run,
                       seeded_deployment)
from rendezsim.sim import StepKernel, initial_topology
from conftest import held_headings
from numpy_calls import PACKAGE, counting, made_counted

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                         "rendezvous_s5.scn")

# (total, calls given where=, ufunc calls given a scalar operand, ufunc
# calls whose operands differ in shape, ufunc calls that allocate their
# result, ufunc calls given a non-contiguous multi-dimensional operand, ufunc
# calls whose loop casts an array operand or out to its dtype, assignments
# into arrays) per step. The assignments are not calls: each step writes the
# informed robot's quotient inputs into the kernel's column (one tuple) and
# the log's phi, controls and poses, four copies that the calls' total does
# not see.
# Each screen compares a boolean row's bytes with a constant, one counted
# tobytes call. The rendezvous step makes the avoiding step's calls: the
# switch writes the constant factor 1 into the collision factor's rows once
# (JetKernel.drop_avoidance), and no step call takes the region. The
# accreting step adds _accrete_edges' screen of the pairs near but not yet
# edges. The turning step is a reference step that turns the heading errors
# and wraps a heading: model.turn_angles twice, the wrap's fmod, and the
# bytes of each part of the step's screen; its casting calls are
# turn_angles' difference of two boolean comparisons as floats, once a
# turn. The alpha_half step runs the quotient rule's masked power of field
# exponent 1/2, its one where= call, with gamma > 0 compared against a zero
# row that the power's row copies first, and turns the heading errors. On
# the sparse48 and dense48 steps some logistic argument y > 0, so the
# logistic reads the screen's floor row and takes exp(-max(y, 0)) beside
# exp(-|y|) in one call; dense48's step is sparse48's over 1,039 edges and
# 525 sensed pairs, not 193 and 98
BUDGET = {
    "reference": (87, 0, 0, 0, 0, 0, 0, 4),
    "rendezvous": (87, 0, 0, 0, 0, 0, 0, 4),
    "sparse48": (90, 0, 0, 0, 0, 0, 0, 4),
    "dense48": (90, 0, 0, 0, 0, 0, 0, 4),
    "accreting": (90, 0, 0, 0, 0, 0, 0, 4),
    "turning": (102, 0, 0, 0, 0, 0, 2, 4),
    "alpha_half": (94, 1, 0, 0, 0, 0, 1, 4),
}
# the reference step's calls by the function that makes them, so that a
# change shows which stage it moved; they sum to its budget
PER_FUNCTION = {
    "gradients.JetKernel._followers": 26, "gradients._quotient_jet": 19,
    "control.control_laws": 18, "sim._integrate_all": 11,
    "sim._offsets": 5, "sim._screen": 4, "fields.logistic_negated": 3,
    "sim.StepKernel.__call__": 1,
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


def _config48(states):
    """The 48-robot scenario of the benchmark's generated workloads."""
    n = 48
    return ScenarioConfig(
        n_robots=n, workspace_radius=200.0, sensing_radius=2.0,
        rendezvous_radius=2.0 * (n - 1) + 1.5, collision_margin=0.4,
        connectivity_buffer=0.4, sigmoid_eps=0.01, dipolar_eps=0.5,
        field_exponent=1.2, linear_gains=[2.0] + [4.0] * (n - 1),
        angular_gains=[8.0] * n, goal_position=np.zeros(2),
        goal_heading=0.0, time_step=0.005, horizon=1.0,
        initial_states=states, gradient_floor=1e-6)


def _sparse48():
    """The sparse48 benchmark scenario with deployment seed 1."""
    return _config48(seeded_deployment(1, 48, np.array([-5.0, -3.0]), 6.0,
                                       0.2, 2.0, 200.0))


def _dense48():
    """48 robots on a triangular lattice of 8 columns, 0.6 m apart, jittered
    by up to 5 cm, with uniform headings (seed 1): each senses about 22
    others, the dense case of the pair pass."""
    rng = np.random.default_rng(1)
    row, column = np.divmod(np.arange(48), 8)
    xy = 0.6 * np.column_stack([column + 0.5 * (row % 2),
                                row * math.sqrt(3.0) / 2.0])
    xy += np.array([-5.0, -3.0]) - xy.mean(axis=0)
    xy += rng.uniform(-0.05, 0.05, xy.shape)
    headings = rng.uniform(-math.pi, math.pi, 48)
    return _config48([RobotState(i + 1, p, h) for i, (p, h) in
                      enumerate(zip(xy, headings.tolist()))])


def _accreting():
    """``test_step_bits._accreting``: followers 2 and 3 gain a mutual edge
    at step 56."""
    # imported here: test_step_bits imports this module
    from test_step_bits import _accreting
    return _accreting()


def _alpha_half():
    """The reference at field exponent 1/2."""
    return dataclasses.replace(_reference(), field_exponent=0.5)


SCENARIOS = {"reference": (_reference, 100), "rendezvous": (_rendezvous, 100),
             "sparse48": (_sparse48, 100), "dense48": (_dense48, 30),
             "accreting": (_accreting, 100), "turning": (_reference, 19),
             "alpha_half": (_alpha_half, 100)}


def step_counts(cfg, k):
    """Numpy calls of step k of ``run(cfg)``, a step that is not the last."""
    def counted(steps):
        with counting() as counts:
            run(dataclasses.replace(cfg, horizon=steps * cfg.time_step))
        return counts
    return counted(k + 1) - counted(k)


@functools.cache
def counted(name):
    """``step_counts`` of the counted step of scenario ``name``."""
    make, k = SCENARIOS[name]
    return step_counts(make(), k)


@pytest.fixture(params=sorted(SCENARIOS))
def counted_step(request):
    return request.param, counted(request.param)


def test_calls_per_step_within_budget(counted_step):
    name, counts = counted_step
    (total, where, scalar, broadcast, fresh, strided, mixed,
     setitems) = BUDGET[name]
    assert counts.total() <= total, sorted(counts.per_function().items())
    assert sum(counts.where.values()) <= where, sorted(counts.where.items())
    assert sum(counts.scalar.values()) <= scalar, sorted(
        counts.scalar.items())
    assert sum(counts.broadcast.values()) <= broadcast, sorted(
        counts.broadcast.items())
    assert sum(counts.fresh.values()) <= fresh, sorted(counts.fresh.items())
    assert sum(counts.strided.values()) <= strided, sorted(
        counts.strided.items())
    assert sum(counts.mixed.values()) <= mixed, sorted(counts.mixed.items())
    assert sum(counts.setitems.values()) <= setitems, sorted(
        counts.setitems.items())


def test_reference_calls_per_function():
    assert sum(PER_FUNCTION.values()) == BUDGET["reference"][0]
    assert dict(counted("reference").per_function()) == PER_FUNCTION


def test_numpy_helpers_per_step(counted_step):
    _, counts = counted_step
    for helper, budget in HELPERS.items():
        calls = sum(n for (_, called), n in counts.helpers.items()
                    if called == helper)
        assert calls <= budget, (helper, sorted(counts.helpers.items()))


# numpy calls of the step kernel's set-up, StepKernel(cfg, mask), the fixed
# cost a run pays before its first step: (total, dispatched helpers and
# array makers), and np.triu_indices once, for the pair rows and the edge
# list both. It does not grow with the robot count
SETUP_BUDGET = {"reference": (55, 29), "sparse48": (55, 29),
                "dense48": (55, 29)}


@pytest.mark.parametrize("name", sorted(SETUP_BUDGET))
def test_setup_calls_within_budget(name):
    cfg = SCENARIOS[name][0]()
    mask = initial_topology(cfg).adjacency
    with counting() as counts:
        # a mask made inside the window, so that its calls count
        StepKernel(cfg, np.array(mask))
    total, helpers = SETUP_BUDGET[name]
    assert counts.total() <= total, sorted(counts.per_function().items())
    assert sum(counts.helpers.values()) <= helpers, sorted(
        counts.helpers.items())
    assert sum(n for (_, called), n in counts.calls.items()
               if called == "triu_indices") == 1


def test_one_step_path_for_both_regions():
    # the region picks constant rows, not code: a step with avoidance off
    # makes the same calls, function by function, as one with it on
    assert counted("rendezvous").calls == counted("reference").calls


def test_switch_happens_on_the_counted_scenarios():
    # the reference step counted above precedes the switch, the rendezvous
    # one follows it
    assert run(dataclasses.replace(_rendezvous(), horizon=0.01)).switch_step == 0
    assert run(dataclasses.replace(_reference(), horizon=0.6)).switch_step is None


def test_turns_happen_on_the_counted_steps():
    # the turning step turns the heading errors and wraps a heading, the
    # alpha_half step turns the heading errors; the reference step neither
    turning, alpha_half = counted("turning"), counted("alpha_half")
    assert turning.calls["model.turn_angles", "subtract"] == 4
    assert turning.calls["sim._screen", "fmod"] == 1
    assert alpha_half.calls["model.turn_angles", "subtract"] == 2
    assert alpha_half.calls["gradients._quotient_jet", "positive"] == 1
    assert "model.turn_angles" not in counted("reference").per_function()


def test_accreting_mask_grows_before_the_counted_step():
    cfg = _accreting()
    log = run(dataclasses.replace(cfg, horizon=100 * cfg.time_step))
    near = log.distances < cfg.sensing_radius - cfg.connectivity_buffer
    # pair (2, 3) starts out of sight and comes within the threshold once
    # before step 100, the step counted above
    assert log.pairs[2] == (2, 3) and not log.monitored[2]
    assert np.flatnonzero(near[:, 2])[0] == 56


def _scalar_turn():
    """``model.turn_angles`` as it was before its turn rows, compiled as if
    it were a rendezsim module, so that its calls count: it compares with
    Python floats and multiplies by one."""
    probe = {"np": np, "math": math}
    exec(compile(
        "def turn(theta, out):\n"
        "    turns = np.subtract(theta > math.pi, theta <= -math.pi,\n"
        "                        dtype=float)\n"
        "    turns *= 2.0 * math.pi\n"
        "    return np.subtract(theta, turns, out)\n",
        os.path.join(PACKAGE, "probe.py"), "exec"), probe)
    return probe["turn"]


class TestCounter:
    """The counter itself: what it counts and what it attributes."""

    def test_counts_rendezsim_calls_only(self):
        from rendezsim import sim
        theta = np.array([0.5, 4.0, -4.0])
        controls, work, screen = made_counted(held_headings, theta)
        with counting() as counts:
            np.add(theta, theta)  # made here, not by rendezsim
            sim._integrate_all(work)
            sim._screen(screen)
        functions = {f for f, _ in counts.calls}
        # the two headings past pi fail the step screen's pose part and
        # take the wrap's turn, a function of its own
        assert functions == {"sim._integrate_all", "sim._screen",
                             "model.turn_angles"}

    def test_byte_screens_are_counted(self):
        # a screen compares its boolean row's bytes with a constant: the
        # tobytes call counts as the np.count_nonzero it replaced did
        from rendezsim import sim
        theta = np.array([0.5, -1.0, 2.0])
        with counting() as counts:
            # made inside: the screen's rows are counted arrays
            controls, work, screen = held_headings(theta)
            sim._integrate_all(work)
            assert not sim._screen(screen)
        # the all-True bytes are bytes objects, made with no call; each
        # step, the step screen's comparison of |poses| with its bounds and
        # its bytes, and the integrator's screen of its sine's arguments,
        # one np.count_nonzero, no slower than a comparison and its bytes
        assert not [f for f, call in counts.calls
                    if f.endswith("__init__") and call == "ndarray.tobytes"]
        assert {call: n for (f, call), n in counts.calls.items()
                if f == "sim._screen" and call in (
                    "absolute", "less", "ndarray.tobytes")} == {
            "absolute": 1, "less": 1, "ndarray.tobytes": 1}
        assert {call: n for (f, call), n in counts.calls.items()
                if f == "sim._integrate_all" and call in (
                    "logical_not", "ndarray.tobytes", "count_nonzero")} == {
            "count_nonzero": 1}
        # turn_rows makes its float rows and its boolean rows
        assert counts.calls["model.turn_rows", "empty"] == 2

    def test_numpy_internals_are_not_counted(self):
        from rendezsim import sim
        with counting() as counts:
            # a zero turn rate sends the step to np.sinc, which makes several
            # ufunc calls of its own; it counts as one
            sim._integrate_all(sim.IntegrateWork(
                np.zeros((2, 3)), 0.1, np.array([[1.0, 1.0], [0.0, 1.0]])))
        assert counts.calls["sim._integrate_all", "sinc"] == 1
        assert counts.helpers["sim._integrate_all", "sinc"] == 1

    def test_where_calls_are_tallied(self):
        from rendezsim import gradients
        work = made_counted(lambda: gradients.QuotientWork(0.5, 2).load(
            np.array([0.0, 1.0]), np.zeros((2, 2)), np.full(2, 2.0),
            np.ones(2), np.zeros((2, 2)), np.zeros((3, 2))))
        with counting() as counts:
            # exponents under 1 keep the masked power
            gradients._quotient_jet(work)
        assert sum(counts.where.values()) == 1

    def test_scalar_operands_are_tallied(self):
        from rendezsim import sim
        controls, work, screen = made_counted(held_headings,
                                              np.array([0.5, -1.0, 2.0]))
        with counting() as counts:
            sim._integrate_all(work)
            sim._screen(screen)
        assert counts.calls["sim._screen", "less"] == 1
        assert not counts.scalar
        turn = _scalar_turn()
        with counting() as counts:
            # two bounds and 2 pi, on an array made inside the window, whose
            # operators are counted too
            turn(np.array([0.5, 4.0, -4.0]), np.empty(3))
        assert sum(counts.scalar.values()) == 3
        assert not counts.broadcast

    def test_operators_on_arrays_made_outside_are_missed(self):
        # a known gap: an operator on a plain ndarray reaches numpy with no
        # hook, so of the scalar turn's comparisons and *= only the *= on
        # its own np.subtract result counts; a counter that sees every
        # operator fails here and this pin changes with it
        theta = np.array([0.5, 4.0, -4.0])
        out = np.empty(3)
        turn = _scalar_turn()
        with counting() as counts:
            turn(theta, out)
        assert counts.calls == {("probe.turn", "subtract"): 2,
                                ("probe.turn", "multiply"): 1}
        assert counts.scalar == {("probe.turn", "multiply"): 1}

    def test_calls_bound_outside_are_missed(self):
        # a known gap: a stage bound outside the window holds numpy's own
        # ufuncs and plain arrays, so its calls reach numpy with no hook;
        # built by made_counted, all eleven calls of a turning step count
        from rendezsim import sim

        def work():
            return sim.IntegrateWork(np.zeros((2, 3)), 0.1,
                                     np.array([[1.0, 1.0], [0.5, 1.0]]))
        for made, calls in ((work(), 0), (made_counted(work), 11)):
            with counting() as counts:
                sim._integrate_all(made)
            assert counts.total() == calls, sorted(counts.calls.items())

    def test_broadcast_operands_are_tallied(self):
        from rendezsim import sim
        theta = np.array([0.5, -1.0, 2.0])
        controls, work, screen = made_counted(held_headings, theta)
        with counting() as counts:
            sim._integrate_all(work)
            sim._screen(screen)
        assert counts.calls["sim._screen", "less"] == 1
        assert not counts.broadcast
        # one bound beside the screen's (9,) block
        screen.bounds = np.array([math.inf])
        with counting() as counts:
            sim._screen(screen)
        assert counts.broadcast == {("sim._screen", "less"): 1}
        with counting() as counts:
            np.add(theta, np.array([1.0]))  # made here, not by rendezsim
        assert not counts.broadcast

    def test_setitems_are_tallied_apart(self):
        # an assignment into an array is tallied, not counted as a call
        probe = {"np": np}
        exec(compile(
            "def calls(a):\n"
            "    out = np.empty(3)\n"
            "    out[:] = a\n"
            "    out[0] = 1.0\n"
            "    np.add(a, a, out)\n"
            "    a[1] = 2.0\n", os.path.join(PACKAGE, "probe.py"), "exec"),
            probe)
        a = np.ones(3)
        with counting() as counts:
            probe["calls"](a)
        assert counts.calls == {("probe.calls", "empty"): 1,
                                ("probe.calls", "add"): 1}
        # an array made outside the window, as with operators, is missed
        assert counts.setitems == {("probe.calls", "ndarray.__setitem__"): 2}
        assert a.tolist() == [1.0, 2.0, 1.0]
        # a step writes the informed robot's column of quotient inputs, and
        # the log's phi, controls and poses
        assert counted("reference").setitems == {
            ("gradients.JetKernel.__call__", "ndarray.__setitem__"): 1,
            ("sim.run", "ndarray.__setitem__"): 3}

    def test_strided_operands_are_tallied(self):
        probe = {"np": np}
        exec(compile(
            "def calls(a):\n"
            "    out = np.empty((2, 3))\n"
            "    np.add(a, a, out=out)\n"
            "    np.add(a[::-1], a, out=out)\n"
            "    np.add(a[:, :1], a[:, 1:2], out=out[:, 2:])\n"
            "    np.add(a[:, 0], a[:, 1], out=out[:, 0])\n"
            "    np.add(a[:1], a[1:], out=out[1:])\n",
            os.path.join(PACKAGE, "probe.py"), "exec"), probe)
        with counting() as counts:
            probe["calls"](np.ones((2, 3)))
        assert counts.calls == {("probe.calls", "empty"): 1,
                                ("probe.calls", "add"): 5}
        # rows reversed, and column slices of a 2-d array; a 1-d operand
        # with a stride, and whole rows, are not strided
        assert counts.strided == {("probe.calls", "add"): 2}

    def test_fresh_results_are_tallied(self):
        # a probe compiled as if it were a rendezsim module: its calls count
        probe = {"np": np}
        exec(compile(
            "def calls(b):\n"
            "    a = np.ones(3)  # made inside the window: operators count\n"
            "    out = np.empty(3)\n"
            "    np.add(a, b)\n"
            "    np.add(a, b, out)\n"
            "    np.add(a, b, out=out)\n"
            "    np.negative(a)\n"
            "    np.negative(a, out)\n"
            "    a * b\n"
            "    a *= b\n", os.path.join(PACKAGE, "probe.py"), "exec"), probe)
        with counting() as counts:
            probe["calls"](np.full(3, 2.0))
        assert counts.calls == {
            ("probe.calls", "ones"): 1, ("probe.calls", "empty"): 1,
            ("probe.calls", "add"): 3, ("probe.calls", "negative"): 2,
            ("probe.calls", "multiply"): 2}
        # neither an out past the inputs nor out= allocates
        assert counts.fresh == {("probe.calls", "add"): 1,
                                ("probe.calls", "negative"): 1,
                                ("probe.calls", "multiply"): 1}

    def test_mixed_dtypes_are_tallied(self):
        probe = {"np": np}
        exec(compile(
            "def calls(a, flags):\n"
            "    out = np.empty(3)\n"
            "    np.add(a, a, out)\n"
            "    np.maximum(a, flags, out=out)\n"
            "    np.subtract(flags, flags, out, dtype=float)\n"
            "    np.multiply(a, 2.0, out)\n"
            "    np.less(a, a, flags)\n"
            "    np.add(flags, flags, out)\n", os.path.join(
                PACKAGE, "probe.py"), "exec"), probe)
        with counting() as counts:
            probe["calls"](np.ones(3), np.zeros(3, dtype=bool))
        # a float row with a boolean one, booleans subtracted as floats,
        # and a boolean loop's result written into a float row cast; a
        # Python float takes its partner's dtype, and a comparison's
        # boolean result is its loop's own
        assert counts.mixed == {("probe.calls", "maximum"): 1,
                                ("probe.calls", "subtract"): 1,
                                ("probe.calls", "add"): 1}

"""The step kernel against ``oracles.plain_step``, bit for bit.

The export digests see the log only to nine decimals; this test sees its
bits. ``run`` logs each step's poses, controls and phi, and ``plain_step``
states the same step as plain numpy expressions, in the kernel's order of
operations, from the pose, held headings and sensing mask before it. A
fused or reordered call that moves any bit fails here by name. The log
keeps no distances; those it derives from its poses must be, bit for bit,
the ones the kernel's pair rows held at each step. Nor does it keep times
or regions: step k's t must be, bit for bit, ``k * time_step``, and its
region 1 exactly from ``switch_step`` on.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rendezsim import RegionFlag, RobotState, Topology, run, sim
from conftest import bound_calls, make_states, small_config, written
from oracles import plain_step
from test_step_cost import _dense48, _reference, _rendezvous, _sparse48


def _accreting():
    """Followers 2 and 3 start out of each other's sight and gain a mutual
    edge on the way (``test_sim.TestAccretion``)."""
    return small_config(
        initial_states=make_states([(-4.0, -2.0, 0.0), (-4.0, -0.8, 0.0),
                                    (-4.0, -3.2, 0.0)]),
        neighbor_mode="accreting")


def _accreting_rendezvous():
    """``_accreting`` inside the switch distance: the run latches at step 0,
    and followers 2 and 3 gain their mutual edge at step 56, so the edge
    list is rebuilt after the switch."""
    return small_config(
        initial_states=make_states([(-0.5, 0.0, 0.0), (-0.5, 1.2, 0.0),
                                    (-0.5, -1.2, 0.0)]),
        neighbor_mode="accreting")


def _goal_near_rim():
    """The informed robot starts on its goal, 0.6 m inside the rim of a
    6 m workspace: its gradient is 0, so its desired heading is held on
    every step (the masked arctan2), while the followers' are not; and its
    rim factor B(R_w - |p|), exactly 1 with zero derivatives everywhere the
    other cases go, is not, so beta's rim terms reach the Hessian. The run
    latches at step 0 and converges at step 127."""
    return small_config(
        workspace_radius=6.0, rendezvous_radius=3.0, sensing_radius=1.2,
        goal_position=np.array([-4.9, -2.2]), initial_states=make_states([
            (-4.9, -2.2, 0.5), (-4.3, -2.8, -1.0), (-4.2, -1.7, 2.0)]))


def _exponent(alpha):
    """The reference with field exponent alpha. The oracle's ** takes
    numpy's square and sqrt for the exponents 2 and 1/2, which alpha = 2
    and alpha = 1/2 meet, where the kernel calls np.power; 1/2 also takes
    the masked power of gamma^(alpha - 1). A config built in code may hold
    the int 2, whose powers must be 2.0's."""
    return lambda: dataclasses.replace(_reference(), field_exponent=alpha)


def _shared_coordinate():
    """The informed robot on its goal at the origin and a follower 1 m out
    along x, heading just under pi (a drawn scenario's, reduced): the two
    share y = 0, so the follower's offset from the informed robot, its
    pair's offset negated, has y = -0.0 where p_i - p_j has +0.0, and its
    desired heading comes out pi, not -pi."""
    return small_config(
        n_robots=2, workspace_radius=6.0, rendezvous_radius=3.0,
        collision_margin=0.5, connectivity_buffer=0.5, field_exponent=0.5,
        dipolar_eps=0.01, linear_gains=[1.0, 1.0], angular_gains=[4.0, 4.0],
        initial_states=make_states([(0.0, 0.0, 0.0),
                                    (1.0, 0.0, math.pi - 1e-3)]))


def _subnormal_goal():
    """``_shared_coordinate`` with the goal and the informed robot 5e-324 m
    from the workspace centre, where |p|^2 underflows to 0 (a drawn
    scenario's, reduced): the rim factor's terms are the centre's zeros,
    where they divided by zero."""
    goal = np.array([5e-324, 0.0])
    return dataclasses.replace(
        _shared_coordinate(), goal_position=goal, initial_states=make_states(
            [(*goal, 0.0), (1.0, 0.3, math.pi - 1e-3)]))


# scenario maker and number of steps checked; the rendezvous run converges
# at step 297. The paths the step forks on: every case's step 0 is a first
# step, whose headings the pair rows' take copies as on every step; the
# crossing case below and every case but the two accreting ones turn a
# heading past pi and wrap it, and check the step after;
# accreting_rendezvous is straight on every step (its informed robot keeps
# y = 0 and theta = 0, so omega = 0 and np.sinc takes the chord);
# goal_near_rim holds a desired heading on every step. The last two are
# failures of the drawn scenarios below, reduced
CASES = {"reference": (_reference, 300), "rendezvous": (_rendezvous, 297),
         "sparse48": (_sparse48, 50), "dense48": (_dense48, 50),
         "accreting": (_accreting, 200),
         "accreting_rendezvous": (_accreting_rendezvous, 150),
         "goal_near_rim": (_goal_near_rim, 100),
         "reference_alpha_2": (_exponent(2.0), 200),
         "reference_alpha_int_2": (_exponent(2), 200),
         "reference_alpha_0.5": (_exponent(0.5), 200),
         "shared_coordinate": (_shared_coordinate, 60),
         "subnormal_goal": (_subnormal_goal, 60)}


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_times_and_regions(log, cfg):
    """Step k's t is Python's k * time_step, and its region, an int8, 1
    exactly when k >= switch_step, the first step whose informed robot is
    within the switch distance."""
    steps = range(log.n_steps)
    assert same_bits(log.times, [k * cfg.time_step for k in steps])
    goal_x, goal_y = cfg.goal_position.tolist()
    inside = [math.hypot(x - goal_x, y - goal_y) < cfg.switch_distance
              for x, y in log.poses[:, 0, :2].tolist()]
    switch = inside.index(True) if any(inside) else None
    assert log.switch_step == switch
    region = log.region
    assert region.dtype == np.int8
    assert region.tolist() == [int(switch is not None and k >= switch)
                               for k in steps]


def assert_steps_match(cfg, log, mask):
    """Every step of ``log``, a run of ``cfg`` from the sensing ``mask``,
    against ``plain_step`` from the step's pose, held headings and mask, bit
    for bit. In accreting mode the mask, which this changes in place, grows
    as run() grows it."""
    a, b = np.triu_indices(cfg.n_robots, 1)
    threshold = cfg.sensing_radius - cfg.connectivity_buffer
    flags = (RegionFlag.COLLISION_FREE, RegionFlag.RENDEZVOUS)
    regions = [flags[r] for r in log.region.tolist()]
    held = log.poses[0, :, 2]
    for k in range(log.n_steps - 1):
        if cfg.neighbor_mode == "accreting":  # grown as run() grows it
            near = log.distances[k] < threshold
            mask[a[near], b[near]] = mask[b[near], a[near]] = True
        new, controls, phi = plain_step(cfg, mask, log.poses[k], held,
                                        regions[k])
        assert same_bits(log.poses[k + 1], new), k
        assert same_bits(log.controls[k], controls.T), k
        assert same_bits(log.phi[k], phi), k
        held = log.controls[k, :, 2]


@pytest.mark.parametrize("name", sorted(CASES))
def test_step_matches_plain_formulas(name):
    make, steps = CASES[name]
    cfg = make()
    log = run(dataclasses.replace(cfg, horizon=steps * cfg.time_step))
    assert log.n_steps == steps + 1
    mask = sim.initial_topology(cfg).adjacency
    edges = mask.sum()
    assert_times_and_regions(log, cfg)
    assert_steps_match(cfg, log, mask)
    # the accreting run rebuilds its edge list on the way
    assert (mask.sum() > edges) == (cfg.neighbor_mode == "accreting")


# the drawn scenarios' ranges: robots, field exponents, sensing radius (m),
# collision margin and connectivity buffer, each (m), dipolar eps, linear
# and angular gains, per robot; and the least distance between two robots
# at the start (m), the steps of a run and the examples of the test
DRAWN_ROBOTS = (2, 12)
DRAWN_EXPONENTS = (0.5, 0.8, 1.0, 1.2, 2.0, 3.0)
DRAWN_SENSING = (1.5, 3.0)
DRAWN_MARGINS = (0.2, 0.5)
DRAWN_DIPOLAR = (0.01, 0.5)
DRAWN_GAINS = ((1.0, 5.0), (4.0, 10.0))
DRAWN_SEPARATION = 0.6
DRAWN_STEPS = 60
DRAWN_EXAMPLES = 40


def _unit(angle):
    return np.array([math.cos(angle), math.sin(angle)])


@st.composite
def drawn_scenarios(draw):
    """A scenario of the ranges above and whether its mask is one-way.

    The goal sits 0.3-1 m inside the workspace rim (half the draws) or
    anywhere inside 0.9 of its radius; the switch distance is 1 m; the
    informed robot starts inside it (the run latches at step 0), 1-20 mm
    outside it facing the goal (the run crosses it on the way), or 0.5-3
    m outside it. The followers are placed one at a time, each 0.6 m to
    0.9 R from a robot placed before it, so that the initial graph has a
    spanning tree rooted at the informed robot, and each at least
    ``DRAWN_SEPARATION`` from every other and 5 cm inside the rim. A
    robot's heading is uniform, or, for one in four, just under pi, to
    wrap on the way. The mode is frozen or accreting, and a one-way mask
    keeps the initial graph's edges (i, j) with j < i only.
    """
    n = draw(st.integers(*DRAWN_ROBOTS))
    sensing = draw(st.floats(*DRAWN_SENSING))
    rendezvous = sensing * (n - 1) + 1.0
    workspace = 2.0 * rendezvous
    bearing = draw(st.floats(-math.pi, math.pi))
    if draw(st.booleans()):
        goal = (workspace - draw(st.floats(0.3, 1.0))) * _unit(bearing)
    else:
        goal = draw(st.floats(0.0, 0.9 * workspace)) * _unit(bearing)
    start = draw(st.sampled_from(("inside", "crossing", "far")))
    reach = {"inside": (0.0, 0.9), "crossing": (1.001, 1.02),
             "far": (1.5, 4.0)}[start]
    # away from the goal, toward the workspace's centre
    away = bearing + math.pi + draw(st.floats(-0.5 * math.pi, 0.5 * math.pi))
    placed = [goal + draw(st.floats(*reach)) * _unit(away)]
    headings = [away + math.pi if start == "crossing" else
                draw(st.floats(-math.pi, math.pi))]
    for _ in range(n - 1):
        for _attempt in range(20):
            parent = placed[draw(st.integers(0, len(placed) - 1))]
            p = parent + draw(st.floats(
                DRAWN_SEPARATION, 0.9 * sensing)) * _unit(
                draw(st.floats(-math.pi, math.pi)))
            if (np.hypot(*p) < workspace - 0.05 and min(
                    np.hypot(*(p - q)) for q in placed) >= DRAWN_SEPARATION):
                break
        else:
            assume(False)
        placed.append(p)
        headings.append(math.pi - 1e-3 if draw(st.integers(0, 3)) == 0
                        else draw(st.floats(-math.pi, math.pi)))
    headings = [math.remainder(h, 2.0 * math.pi) for h in headings]
    (low, high), (low_w, high_w) = DRAWN_GAINS
    cfg = small_config(
        n_robots=n, workspace_radius=workspace, sensing_radius=sensing,
        rendezvous_radius=rendezvous,
        collision_margin=draw(st.floats(*DRAWN_MARGINS)),
        connectivity_buffer=draw(st.floats(*DRAWN_MARGINS)),
        dipolar_eps=draw(st.sampled_from(DRAWN_DIPOLAR)),
        field_exponent=draw(st.sampled_from(DRAWN_EXPONENTS)),
        linear_gains=draw(st.lists(st.floats(low, high), min_size=n,
                                   max_size=n)),
        angular_gains=draw(st.lists(st.floats(low_w, high_w), min_size=n,
                                    max_size=n)),
        goal_position=goal, goal_heading=draw(st.floats(-math.pi, math.pi)),
        horizon=DRAWN_STEPS * 0.005,
        neighbor_mode=draw(st.sampled_from(("frozen", "accreting"))),
        initial_states=[RobotState(i + 1, p, h) for i, (p, h) in
                        enumerate(zip(placed, headings))])
    return cfg, draw(st.booleans())


@settings(max_examples=DRAWN_EXAMPLES, derandomize=True, database=None,
          deadline=None)
@given(drawn_scenarios())
def test_drawn_scenarios_match_plain_formulas(drawn):
    # the kernel against the plain formulas on drawn scenarios; a failure
    # found here becomes a named entry of CASES
    cfg, one_way = drawn
    try:
        mask = sim.initial_topology(cfg).adjacency
    except sim.AssumptionError:
        assume(False)
    if one_way:
        mask &= np.tri(cfg.n_robots, k=-1, dtype=bool)
    with mock.patch.object(sim, "initial_topology",
                           return_value=Topology(mask.copy())):
        log = run(cfg)
    assert log.n_steps == DRAWN_STEPS + 1
    assert_times_and_regions(log, cfg)
    assert_steps_match(cfg, log, mask)


@pytest.mark.parametrize("name", ["reference", "sparse48",
                                  "reference_alpha_0.5"])
def test_poisoned_scratch_step(name):
    # every row that a bound call writes, the logistic's and the step
    # screen's rows too, holds NaN before the first step of one of two
    # kernels, whose inputs (poses, held headings) and constants are
    # their own: a call that reads a row before the step writes it shows
    # here, where stale values of a step before can pass for fresh ones
    cfg = CASES[name][0]()
    mask = sim.initial_topology(cfg).adjacency
    kernels = [sim.StepKernel(cfg, mask.copy()) for _ in range(2)]
    for kernel in kernels:
        kernel.poses[...] = sim._pose_array(cfg.initial_states)
        kernel.theta_d[...] = kernel.theta
    poisoned = kernels[1]
    inputs = poisoned.poses.copy(), poisoned.theta_d.copy()
    scratch = [written(call, args) for _, call, args in bound_calls(poisoned)]
    scratch += [poisoned.jets.logistic[0], poisoned.jets.logistic[-1],
                poisoned.pair_work.screened]
    for rows in scratch:
        if rows.dtype == float:
            rows[...] = math.nan
    poisoned.poses[...], poisoned.theta_d[...] = inputs
    steps = []
    for kernel in kernels:
        kernel.pairs()
        phi, grad_norm, reached = kernel(kernel.poses[0, :2].tolist())
        steps.append((kernel.poses.copy(), kernel.control_rows.copy(),
                      phi.copy(), grad_norm.copy(), reached))
    (poses, controls, phi, grad_norm, reached), poisoned_step = steps
    assert np.isfinite(poses).all() and np.isfinite(controls).all()
    assert same_bits(poisoned_step[0], poses)
    assert same_bits(poisoned_step[1], controls)
    assert same_bits(poisoned_step[2], phi)
    assert same_bits(poisoned_step[3], grad_norm)
    assert poisoned_step[4] == reached


def test_times_at_an_inexact_step():
    # 0.003 has no exact binary form: over 1,083 steps, a cumulative sum of
    # it drifts off k * 0.003, which the log's times must be. The informed
    # robot crosses the switch distance at step 654
    cfg = small_config(time_step=0.003, horizon=4.0, initial_states=(
        make_states([(-1.6, 0.0, 0.0), (-2.2, 0.5, 0.0), (-2.2, -0.5, 0.0)])))
    log = run(cfg)
    assert (log.n_steps, log.switch_step) == (1083, 654)
    assert_times_and_regions(log, cfg)
    summed = np.cumsum([0.0] + [cfg.time_step] * (log.n_steps - 1))
    assert not same_bits(log.times, summed)


@pytest.mark.parametrize("name", sorted(CASES))
def test_derived_distances_are_the_kernels(name, monkeypatch):
    # the log keeps no distances: on every logged step, those it derives
    # from the poses must be the ones the kernel's pair rows held
    make, steps = CASES[name]
    cfg = make()
    kernel_rows = []
    pairs = sim.StepKernel.pairs

    def recorded(kernel):
        rows = pairs(kernel)
        kernel_rows.append(rows[3].copy())
        return rows
    monkeypatch.setattr(sim.StepKernel, "pairs", recorded)
    log = run(dataclasses.replace(cfg, horizon=steps * cfg.time_step))
    assert "distances" not in vars(log)
    assert len(kernel_rows) == log.n_steps
    assert same_bits(log.distances, kernel_rows)


def test_one_way_mask_matches_plain_formulas():
    # each follower senses robots of lower number only, and no follower
    # senses it back: every sensed pair is one directed edge, so the pair
    # pass and the edge pass have one column each per edge. Avoidance is
    # dropped at step 100 and the edge list rebuilt at step 150
    n = 7
    cfg = small_config(
        n_robots=n, linear_gains=[2.0] + [4.0] * (n - 1),
        angular_gains=[8.0] * n, initial_states=make_states([
            (-4.0, -2.0, 0.5), (-4.6, -2.6, -1.0), (-3.6, -2.9, 2.0),
            (-4.3, -3.5, 0.0), (-3.3, -3.8, -2.5), (-4.0, -4.4, 1.0),
            (-3.0, -4.6, 3.0)]))
    mask = np.zeros((n, n), dtype=bool)
    i = np.arange(1, n)
    mask[i, i - 1] = True
    mask[i[1:], i[1:] - 2] = True
    kernel = sim.StepKernel(cfg, mask)
    jets = kernel.jets
    assert jets.edges.shape[1] == jets.pair_rows.shape[1] == mask.sum()
    kernel.poses[...] = sim._pose_array(cfg.initial_states)
    kernel.theta_d[...] = kernel.theta
    region = RegionFlag.COLLISION_FREE
    for k in range(200):
        if k == 100:
            jets.drop_avoidance()
            region = RegionFlag.RENDEZVOUS
        if k == 150:
            jets.set_mask(mask)
        poses, held = kernel.poses.copy(), kernel.theta_d.copy()
        kernel.pairs()
        phi, _, _ = kernel(kernel.poses[0, :2].tolist())
        new, controls, plain_phi = plain_step(cfg, mask, poses, held, region)
        assert same_bits(kernel.poses, new), k
        assert same_bits(kernel.control_rows, controls), k
        assert same_bits(phi, plain_phi), k


def _crossing():
    """Followers 2 and 3 start 3 cm apart, under the collision floor, and
    follower 2's heading, just under pi, turns past it on step 0: both
    parts of the step's one screen (``sim._screen``) fail at once, the
    watched pair distance and the new pose's heading."""
    return small_config(initial_states=make_states([
        (-4.0, -2.0, 0.5), (-4.8, -2.5, math.pi - 1e-3),
        (-4.8, -2.47, 2.0)]))


def test_screen_failing_in_both_parts_matches_plain_formulas():
    cfg = _crossing()
    steps = 3
    log = run(dataclasses.replace(cfg, horizon=steps * cfg.time_step))
    mask = sim.initial_topology(cfg).adjacency
    monitored = mask[np.triu_indices(cfg.n_robots, 1)]
    held = log.poses[0, :, 2]
    events = []
    for k in range(steps):
        new, controls, phi = plain_step(cfg, mask, log.poses[k], held,
                                        RegionFlag.COLLISION_FREE)
        assert same_bits(log.poses[k + 1], new), k
        assert same_bits(log.controls[k], controls.T), k
        assert same_bits(log.phi[k], phi), k
        held = log.controls[k, :, 2]
        events += sim.monitor_invariants(
            log.poses[k, :, :2], log.distances[k], log.pairs, monitored,
            RegionFlag.COLLISION_FREE, cfg, k, k * cfg.time_step)
    # the events of monitor_invariants on every step, no more and no fewer
    assert log.events == events
    # on step 0 a pair is under the collision floor and follower 2's
    # heading crosses pi, and comes out wrapped
    turned = log.poses[0, 1, 2] + cfg.time_step * log.controls[0, 1, 1]
    assert turned > math.pi
    assert -math.pi < log.poses[1, 1, 2] < 0.0
    assert [(e.step, e.kind) for e in log.events if e.step == 0] == [
        (0, "collision")]


def test_non_finite_step_names_the_step_and_t():
    # follower 2's turn rate overflows on step 1, a step whose pair is
    # still under the collision floor: the run stops there, naming the
    # robot, the step and t, before the step's monitors record anything
    cfg = dataclasses.replace(_crossing(), angular_gains=[8.0, 1e308, 8.0])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(sim.NonFiniteState) as info:
        run(cfg)
    assert str(info.value) == (
        "non-finite state after integration: robot 2 at (x, y, theta) "
        "= (nan, nan, nan), step 1, t = 0.005 s")

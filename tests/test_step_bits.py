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

import numpy as np
import pytest

from rendezsim import RegionFlag, run, sim
from conftest import make_states, small_config
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


# scenario maker and number of steps checked; the rendezvous run converges
# at step 297. The paths the step forks on: every case's step 0 is a first
# step, whose headings the pair rows' take copies as on every step; the
# crossing case below and every case but the two accreting ones turn a
# heading past pi and wrap it, and check the step after; accreting_rendezvous is straight on every step (its informed robot
# keeps y = 0 and theta = 0, so omega = 0 and np.sinc takes the chord);
# goal_near_rim holds a desired heading on every step
CASES = {"reference": (_reference, 300), "rendezvous": (_rendezvous, 297),
         "sparse48": (_sparse48, 50), "dense48": (_dense48, 50),
         "accreting": (_accreting, 200),
         "accreting_rendezvous": (_accreting_rendezvous, 150),
         "goal_near_rim": (_goal_near_rim, 100),
         "reference_alpha_2": (_exponent(2.0), 200),
         "reference_alpha_int_2": (_exponent(2), 200),
         "reference_alpha_0.5": (_exponent(0.5), 200)}


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


@pytest.mark.parametrize("name", sorted(CASES))
def test_step_matches_plain_formulas(name):
    make, steps = CASES[name]
    cfg = make()
    log = run(dataclasses.replace(cfg, horizon=steps * cfg.time_step))
    assert log.n_steps == steps + 1
    mask = sim.initial_topology(cfg).adjacency
    edges = mask.sum()
    a, b = np.triu_indices(cfg.n_robots, 1)
    threshold = cfg.sensing_radius - cfg.connectivity_buffer
    assert_times_and_regions(log, cfg)
    flags = (RegionFlag.COLLISION_FREE, RegionFlag.RENDEZVOUS)
    regions = [flags[r] for r in log.region.tolist()]
    held = log.poses[0, :, 2]
    for k in range(steps):
        if cfg.neighbor_mode == "accreting":  # grown as run() grows it
            near = log.distances[k] < threshold
            mask[a[near], b[near]] = mask[b[near], a[near]] = True
        new, controls, phi = plain_step(cfg, mask, log.poses[k], held,
                                        regions[k])
        assert same_bits(log.poses[k + 1], new), k
        assert same_bits(log.controls[k], controls.T), k
        assert same_bits(log.phi[k], phi), k
        held = log.controls[k, :, 2]
    # the accreting run rebuilds its edge list on the way
    assert (mask.sum() > edges) == (cfg.neighbor_mode == "accreting")


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

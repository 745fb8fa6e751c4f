import dataclasses
import functools
import math

import numpy as np
import pytest

from rendezsim import (RegionFlag, RobotState, ScenarioConfig, Topology,
                       TrajectoryLog, compute_metrics, gradients,
                       monitor_invariants, run, seeded_deployment, sim, step)
from rendezsim.control import ControlWork, compute_control
from rendezsim.gradients import JetKernel
from rendezsim.model import normalize_angle
from rendezsim.sim import AssumptionError, MonitorViolation, fit_decay_rate

from conftest import make_states, small_config
from oracles import integrate_copy, integrate_pose
from test_step_cost import _reference, _rendezvous


class TestIntegrator:
    def test_zero_controls_do_nothing(self):
        pose = np.array([1.0, 2.0, 0.5])
        out = integrate_pose(pose, 0.0, 0.0, 0.1)
        assert np.array_equal(out, pose)

    def test_one_step_lands_on_unit_circle_arc(self):
        # constant v=1, omega=1 from the origin: exact pose at time t is
        # (sin t, 1 - cos t, t), so a single quarter-turn step is exact
        out = integrate_pose(np.zeros(3), 1.0, 1.0, math.pi / 2)
        assert np.allclose(out, [1.0, 1.0, math.pi / 2], rtol=0.0, atol=1e-12)
        # a vanishing turn rate meets the straight line
        pose = np.array([1.0, -2.0, 0.7])
        tiny = integrate_pose(pose, 1.5, 1e-12, 0.1)
        straight = integrate_pose(pose, 1.5, 0.0, 0.1)
        assert np.allclose(tiny, straight, rtol=0.0, atol=1e-12)
        assert np.allclose(straight, [1.0 + 0.15 * math.cos(0.7),
                                      -2.0 + 0.15 * math.sin(0.7), 0.7],
                           rtol=0.0, atol=1e-12)

    def test_heading_normalized(self):
        out = integrate_pose(np.array([0.0, 0.0, 3.0]), 0.0, 2.0, 0.2)
        assert -math.pi < out[2] <= math.pi

    @staticmethod
    def closed_form(pose, v, omega, dt):
        """The arc of constant (v, omega) in its textbook form; a straight
        line where the turn is too small for v / omega to be well rounded."""
        x, y, theta = pose
        if abs(omega) < 1e-6:
            return (x + v * dt * math.cos(theta),
                    y + v * dt * math.sin(theta), theta)
        turned = theta + omega * dt
        return (x + v / omega * (math.sin(turned) - math.sin(theta)),
                y - v / omega * (math.cos(turned) - math.cos(theta)),
                turned)

    def test_many_rows_match_the_closed_form_arc(self):
        rng = np.random.default_rng(21)
        omegas = [0.0, -0.0, 1e-12, -1e-12, 0.7, -2.5, 9.0, -31.0, 120.0]
        n = len(omegas)
        poses = np.column_stack([rng.uniform(-10, 10, (n, 2)),
                                 rng.uniform(-math.pi, math.pi, n)])
        vs = rng.uniform(-3.0, 3.0, n)
        ws = np.array(omegas)
        for dt in (0.005, 0.05):
            rows = integrate_copy(poses, np.array([vs, ws]), dt)
            for i in range(n):
                x, y, theta = self.closed_form(poses[i], vs[i], ws[i], dt)
                assert abs(rows[i, 0] - x) <= 1e-12
                assert abs(rows[i, 1] - y) <= 1e-12
                assert angle_gap(rows[i, 2], normalize_angle(theta)) <= 1e-12
                # a row's result does not depend on the rows beside it
                single = integrate_copy(
                    poses[i:i + 1], np.array([vs[i:i + 1], ws[i:i + 1]]), dt)
                assert single.tobytes() == rows[i:i + 1].tobytes()


class TestStep:
    def test_converged_cluster_stays_put(self, params_s5):
        cfg = small_config(
            initial_states=make_states([(0.0, 0.0, 0.0), (0.0, 0.0, 1.0),
                                        (0.0, 0.0, -1.0)]))
        new_states, controls, region = step(cfg.initial_states,
                                            RegionFlag.RENDEZVOUS, cfg)
        for before, after in zip(cfg.initial_states, new_states):
            assert np.allclose(after.position, before.position, atol=1e-8)
        assert all(c.v == 0.0 for c in controls)
        assert region is RegionFlag.RENDEZVOUS

    def test_region_latches_during_step(self):
        cfg = small_config()
        # leader already inside the switch distance
        states = make_states([(0.5, 0.0, 0.0), (1.0, 0.5, 0.0),
                              (0.2, 0.8, 0.0)])
        _, _, region = step(states, RegionFlag.COLLISION_FREE, cfg)
        assert region is RegionFlag.RENDEZVOUS

    def test_switch_from_the_start_is_logged_once(self):
        # the informed robot starts inside the switch distance of 1 m
        cfg = small_config(horizon=0.05, initial_states=make_states(
            [(0.5, 0.0, 0.0), (1.0, 0.5, 0.0), (0.2, 0.8, 0.0)]))
        log = run(cfg)
        assert log.switch_step == 0
        assert [(e.step, e.kind) for e in log.events] == [(0, "switch")]
        assert (log.region == 1).all()

    def test_unsensed_robot_cannot_move_a_follower(self):
        # follower i gathers only the pairs of its own edges, so moving a robot
        # that robot i does not sense leaves i's controls and new pose
        # bit-identical; the informed robot reads no one
        rng = np.random.default_rng(12)
        checked = 0
        sizes = []
        for trial in range(51):
            # the last trial is one 48-robot ragged mask, of degree 1-23 so
            # that robot i surely leaves some robot unsensed
            n = int(rng.integers(3, 10)) if trial < 50 else 48
            states = random_states(rng, n)
            mask = ragged_mask(rng, n) if trial < 50 else ragged_mask(
                rng, n, 1, 24)
            cfg = small_config(n_robots=n, linear_gains=[3.0] * n,
                               angular_gains=[8.0] * n, initial_states=states)
            i = int(rng.integers(1, n))
            unsensed = [j for j in range(n) if j != i and not mask[i, j]]
            if not unsensed:
                continue
            j = int(rng.choice(unsensed))
            moved = list(states)
            moved[j] = states[j].with_pose(
                states[j].position + rng.uniform(-3.0, 3.0, 2),
                states[j].heading + 1.0)
            region = RegionFlag.COLLISION_FREE
            before = step(states, region, cfg, Topology(mask))
            after = step(moved, region, cfg, Topology(mask))
            for k in (i, 0) if j else (i,):
                assert before[1][k] == after[1][k]
                assert np.array_equal(before[0][k].position,
                                      after[0][k].position)
                assert before[0][k].heading == after[0][k].heading
            checked += 1
            sizes.append(n)
        assert checked > 30 and sizes[-1] == 48

    def test_follower_without_neighbors_rejected(self):
        cfg = small_config()
        mask = np.array([[False, True, True], [True, False, False],
                         [False, False, False]])
        with pytest.raises(ValueError, match="follower has no neighbors"):
            step(cfg.initial_states, RegionFlag.COLLISION_FREE, cfg,
                 Topology(mask))

    def test_non_finite_control_raises(self):
        cfg = small_config(linear_gains=[2.0, math.inf, 4.0])
        with np.errstate(invalid="ignore"), \
                pytest.raises(RuntimeError, match="non-finite state"):
            step(cfg.initial_states, RegionFlag.COLLISION_FREE, cfg)

    def test_run_names_the_robot_and_the_step(self):
        # k_w = 1e308 overflows robot 2's turn rate once its heading error
        # is large enough
        cfg = small_config(angular_gains=[8.0, 1e308, 8.0])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(sim.NonFiniteState) as info:
            run(cfg)
        assert str(info.value) == (
            "non-finite state after integration: robot 2 at (x, y, theta) "
            "= (nan, nan, nan), step 2, t = 0.010 s")


def random_states(rng, n):
    """n robots scattered around (-4, -2), the first one informed."""
    return [RobotState(i + 1, np.array([-4.0, -2.0]) + rng.uniform(-1.2, 1.2, 2),
                       rng.uniform(-math.pi, math.pi))
            for i in range(n)]


def ragged_mask(rng, n, low=1, high=None):
    """Each robot senses a random set of low..high-1 others (1..n-1 by
    default); not symmetric."""
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        k = int(rng.integers(low, high or n))
        mask[i, rng.choice(others, size=k, replace=False)] = True
    return mask


def angle_gap(a, b):
    return abs(normalize_angle(a - b))


class TestLocality:
    """A follower's law reads its own heading, the desired heading it holds
    and the robots it senses, and nothing else. On random ragged masks, the
    48-robot one included, and with the region held fixed, a follower's
    controls and new pose from step() keep their bits when the goal, the
    goal heading or a robot it does not sense changes; the region changes
    them wherever a sensed edge is short enough for the collision factor
    to differ from 1."""

    @staticmethod
    def cases(seed):
        rng = np.random.default_rng(seed)
        for trial in range(31):
            # the last trial is one 48-robot ragged mask of degree 1-23
            n = int(rng.integers(3, 10)) if trial < 30 else 48
            mask = ragged_mask(rng, n) if trial < 30 else ragged_mask(
                rng, n, 1, 24)
            cfg = small_config(
                n_robots=n, linear_gains=rng.uniform(1.0, 5.0, n).tolist(),
                angular_gains=rng.uniform(4.0, 10.0, n).tolist(),
                initial_states=random_states(rng, n))
            prev = [None if rng.random() < 0.5 else rng.uniform(-3.0, 3.0)
                    for _ in range(n)]
            yield rng, cfg, Topology(mask), prev

    @staticmethod
    def row(result, i):
        """Robot i's controls and new pose in one step() result, as bits."""
        states, controls, _ = result
        return np.array([*dataclasses.astuple(controls[i]),
                         *states[i].position, states[i].heading]).tobytes()

    @pytest.mark.parametrize("region", [RegionFlag.COLLISION_FREE,
                                        RegionFlag.RENDEZVOUS])
    def test_goal_and_unsensed_robots_leave_a_follower_be(self, region):
        checked = 0
        for rng, cfg, topo, prev in self.cases(41):
            n, states = cfg.n_robots, cfg.initial_states
            j = int(rng.integers(n))
            moved = list(states)
            moved[j] = states[j].with_pose(
                states[j].position + rng.uniform(-3.0, 3.0, 2),
                states[j].heading + 1.0)
            goal = rng.uniform(-3.0, 3.0, 2)
            heading = float(rng.uniform(-3.0, 3.0))
            followers = range(1, n)
            blind = [i for i in followers
                     if i != j and not topo.adjacency[i, j]]
            before = step(states, region, cfg, topo, prev)
            # (states, scenario, the robot the change reaches, the
            # followers it must not reach)
            changes = [
                (states, dataclasses.replace(cfg, goal_position=goal), 0,
                 followers),
                (states, dataclasses.replace(cfg, goal_heading=heading), 0,
                 followers),
                (moved, cfg, j, blind)]
            for after_states, after_cfg, reached, unreached in changes:
                after = step(after_states, region, after_cfg, topo, prev)
                assert self.row(after, reached) != self.row(before, reached)
                for i in unreached:
                    assert self.row(after, i) == self.row(before, i), i
            checked += len(blind)
        # followers checked against an unsensed robot, 20 or more of them
        # on the 48-robot mask
        assert checked > 50 and len(blind) >= 20

    def test_region_changes_a_follower_with_a_short_edge(self):
        flipped = 0
        for _, cfg, topo, prev in self.cases(43):
            states = cfg.initial_states
            free, rendezvous = (step(states, region, cfg, topo, prev)[1]
                                for region in (RegionFlag.COLLISION_FREE,
                                               RegionFlag.RENDEZVOUS))
            positions = np.array([s.position for s in states])
            for i in range(1, cfg.n_robots):
                sensed = positions[topo.adjacency[i]]
                if np.hypot(*(sensed - positions[i]).T).min() < 1.5:
                    assert ((free[i].v, free[i].omega)
                            != (rendezvous[i].v, rendezvous[i].omega)), i
                    flipped += 1
        assert flipped > 100


class TestArrayCore:
    """step(), the array core run() drives, against the per-robot scalar
    path: compute_control on the listed neighbors, then integrate_pose."""

    # alpha = 1 is where the quotient rule's gamma^(alpha - 1) changes form
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.2, 2.0])
    @pytest.mark.parametrize("region", [RegionFlag.COLLISION_FREE,
                                        RegionFlag.RENDEZVOUS])
    def test_matches_scalar_oracle(self, region, alpha):
        rng = np.random.default_rng(13)
        held = {True: 0, False: 0}  # held headings, with / without previous
        floored = 0
        # 50 small ragged masks, then 48 robots with a sparse mask (degree
        # 1-3) and one with degree 8-20, where numpy's sums go pairwise
        degrees = [(1, 4), (8, 21)]
        for trial in range(54):
            n = int(rng.integers(2, 13)) if trial < 50 else 48
            states = random_states(rng, n)
            mask = ragged_mask(rng, n, *(degrees[trial % 2] if trial >= 50
                                         else (1, None)))
            if trial % 5 == 0:
                # a neighbor closer than the distance floor
                i = int(rng.integers(1, n))
                j = int(rng.choice(np.flatnonzero(mask[i])))
                states[i] = states[i].with_pose(
                    states[j].position + 1e-10, states[i].heading)
                floored += 1
            # every gradient is below a huge floor: headings are held
            floor = 1e6 if trial % 5 == 1 else 1e-6
            prev = [None if rng.random() < 0.5 else rng.uniform(-3.0, 3.0)
                    for _ in range(n)]
            cfg = small_config(
                n_robots=n, gradient_floor=floor, field_exponent=alpha,
                linear_gains=rng.uniform(1.0, 5.0, n).tolist(),
                angular_gains=rng.uniform(4.0, 10.0, n).tolist(),
                initial_states=states)
            new_states, controls, _ = step(states, region, cfg,
                                           Topology(mask), prev)
            for i, s in enumerate(states):
                ref = compute_control(
                    s, [states[j].position for j in np.flatnonzero(mask[i])],
                    region, cfg, prev[i])
                pose = integrate_pose(np.array([*s.position, s.heading]),
                                      ref.v, ref.omega, cfg.time_step)
                got = controls[i]
                for name in ("v", "omega", "theta_d_dot", "phi",
                             "grad_norm"):
                    a, b = getattr(got, name), getattr(ref, name)
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), name
                assert angle_gap(got.theta_d, ref.theta_d) <= 1e-12
                assert angle_gap(got.theta_tilde, ref.theta_tilde) <= 1e-12
                assert np.allclose(new_states[i].position, pose[:2],
                                   rtol=0.0, atol=1e-12)
                assert angle_gap(new_states[i].heading, pose[2]) <= 1e-12
                if ref.grad_norm <= floor and i > 0:
                    held[prev[i] is not None] += 1
        assert held[True] and held[False] and floored == 11

    def test_run_is_one_array_pass_per_step(self, monkeypatch):
        rows = []
        laws = sim.control_laws

        def count(work):
            rows.append(len(work.theta))
            return laws(work)

        def refuse(*args, **kwargs):
            raise AssertionError("per-robot control path called")

        built = []
        init = RobotState.__post_init__

        def record(state):
            built.append(state.id)
            init(state)

        cfg = small_config(horizon=0.05)
        monkeypatch.setattr(sim, "control_laws", count)
        monkeypatch.setattr(sim, "compute_control", refuse)
        monkeypatch.setattr(RobotState, "__post_init__", record)
        log = run(cfg)
        assert rows == [cfg.n_robots] * log.n_steps
        assert built == []


class TestPairWork:
    def test_one_float_block(self):
        # the pair rows are computed in place: every float row of a step
        # kernel's PairWork, the step screen's rows too (the norms, the
        # negations and |poses|), is a view of one block, which begins
        # with the control laws' rows, the headings the take copies last
        cfg = small_config()
        kernel = sim.StepKernel(cfg, sim.initial_topology(cfg).adjacency)
        work = kernel.pair_work
        n, p = len(kernel.poses), len(kernel.upper[0])
        # its rows and its calls' operands, but for the pose rows
        operands = [*vars(work).values(),
                    *(x for _, args in work.calls for x in args)]
        rows = [v for v in operands if isinstance(v, np.ndarray)
                and v.dtype == float and not np.shares_memory(v, kernel.poses)]
        block = work.pairs.base
        laws = kernel.laws.block.base
        assert laws is block and block.shape == (23 * n + 5 * p + 5 * n,)
        assert all(v.base is block for v in rows)
        taken = work.calls[0][1][2]  # the take's output
        assert np.shares_memory(
            ControlWork.ROWS.view(kernel.laws.block, "tt tdd"), taken)


class TestEdgeList:
    """The followers' passes of the step kernel work on the sensed edges
    alone: the pair pass has one column per upper pair (a, b) that some
    follower senses, gathered from the upper pairs' offsets and distances,
    and the edge pass one column per directed edge (i, j), i >= 1, in
    row-major order, which takes its pair's column."""

    def test_one_column_per_sensed_edge(self):
        n = 48
        states = seeded_deployment(1, n, np.array([-5.0, -3.0]), 6.0, 0.2,
                                   2.0, 200.0)
        cfg = small_config(
            n_robots=n, workspace_radius=200.0,
            rendezvous_radius=2.0 * (n - 1) + 1.5,
            linear_gains=[2.0] + [4.0] * (n - 1), angular_gains=[8.0] * n,
            initial_states=states)
        mask = sim.initial_topology(cfg).adjacency
        kernel = sim.StepKernel(cfg, mask)
        jets = kernel.jets
        edges = mask[1:].sum()
        a, b = np.triu_indices(n, 1)
        # a pair is sensed by a follower either way; the leader senses none
        sensed = ((a > 0) & mask[a, b]) | mask[b, a]
        a, b = a[sensed], b[sensed]
        assert 0 < edges < n * (n - 1) / 4
        assert len(a) < edges  # pairs that two followers sense, once
        edge = functools.partial(JetKernel.EDGE.view, jets.edges)
        pair = functools.partial(JetKernel.PAIR.view, jets.pair_rows)
        assert edge("ox oy").shape == edge("t t").shape == edge("w w").shape
        assert edge("ox oy").shape == (2, edges)
        assert edge("gx gy cx cy cxy t t ox oy sq").shape == (10, edges)
        assert pair("d d").shape == (2, len(a))
        assert pair("t").shape == pair("w").shape == (len(a),)

        poses = np.array([[*s.position, s.heading] for s in states])
        kernel.poses[...] = poses
        pairs = kernel.pairs()
        assert pairs.shape == (4, n * (n - 1) // 2)
        kernel.theta_d[...] = poses[:, 2]
        kernel(poses[0, :2].tolist())
        i, j = np.nonzero(mask[1:])
        i += 1
        gap = poses[i, :2] - poses[j, :2]
        assert np.array_equal(edge("ox oy"), gap.T)
        gx, gy = (poses[a, :2] - poses[b, :2]).T
        for d in pair("d d"):  # twice, as the factors [b, B] are
            assert np.array_equal(d, np.sqrt(gx * gx + gy * gy))
        # each edge carries its pair's slope and curvature weight, twice;
        # the weight's rows then hold it times p - q_j
        column = {pair: c for c, pair in enumerate(zip(a.tolist(),
                                                       b.tolist()))}
        of_edge = [column[min(e), max(e)] for e in zip(i.tolist(), j.tolist())]
        for row in edge("t t"):
            assert np.array_equal(row, pair("t")[of_edge])
        assert np.array_equal(edge("w w"), pair("w")[of_edge] * gap.T)


def assert_controls_match(got, ref):
    """got: (v, omega, theta_d, theta_tilde, theta_d_dot, phi) against a
    ControlOutput, to 1e-12 (relative above 1; angles modulo 2 pi)."""
    v, omega, theta_d, theta_tilde, theta_d_dot, phi = got
    for name, a in (("v", v), ("omega", omega), ("theta_d_dot", theta_d_dot),
                    ("phi", phi)):
        b = getattr(ref, name)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), name
    assert angle_gap(theta_d, ref.theta_d) <= 1e-12
    assert angle_gap(theta_tilde, ref.theta_tilde) <= 1e-12


def control_bits(got, ref):
    """got: (v, omega, theta_d, theta_tilde, theta_d_dot, phi, grad_norm)
    as the step kernel's row holds them; the fields that differ in a bit
    from the ControlOutput ``ref``."""
    names = ("v", "omega", "theta_d", "theta_tilde", "theta_d_dot", "phi",
             "grad_norm")
    return [name for name, a in zip(names, got)
            if np.float64(a).tobytes()
            != np.float64(getattr(ref, name)).tobytes()]


class TestKernelRowZero:
    """Row 0 of the step kernel is the informed robot: its controls equal
    compute_control on that robot alone bit for bit, and its next pose
    matches integrate_pose."""

    GOAL = np.array([1.5, -0.5])

    @staticmethod
    def _spot(rng, spot):
        if spot == "goal":  # gamma = 0
            return TestKernelRowZero.GOAL.copy()
        if spot == "centre":  # the rim direction is undefined
            return np.zeros(2)
        # half of the draws inside the rim factor's band (margin 0.4 m)
        r = rng.uniform(0.0, 29.0) if rng.random() < 0.5 else rng.uniform(
            29.6, 29.95)
        a = rng.uniform(-math.pi, math.pi)
        return r * np.array([math.cos(a), math.sin(a)])

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("spot", ["random", "goal", "centre"])
    @pytest.mark.parametrize("region", [RegionFlag.COLLISION_FREE,
                                        RegionFlag.RENDEZVOUS])
    def test_matches_compute_control(self, region, spot, n):
        rng = np.random.default_rng(17)
        for trial in range(10):
            p = self._spot(rng, spot)
            states = [RobotState(1, p, rng.uniform(-math.pi, math.pi))]
            states += [RobotState(i, p + rng.uniform(-1.2, 1.2, 2),
                                  rng.uniform(-math.pi, math.pi))
                       for i in range(2, n + 1)]
            prev = [None if trial % 2 else rng.uniform(-3.0, 3.0)]
            cfg = small_config(
                n_robots=n, goal_position=self.GOAL,
                linear_gains=rng.uniform(1.0, 5.0, n).tolist(),
                angular_gains=rng.uniform(4.0, 10.0, n).tolist(),
                initial_states=states)
            new_states, controls, _ = step(states, region, cfg, None,
                                           prev + [None] * (n - 1))
            ref = compute_control(states[0], [], region, cfg, prev[0])
            got = controls[0]
            assert control_bits(
                (got.v, got.omega, got.theta_d, got.theta_tilde,
                 got.theta_d_dot, got.phi, got.grad_norm), ref) == []
            pose = integrate_pose(np.array([*p, states[0].heading]), ref.v,
                                  ref.omega, cfg.time_step)
            assert np.allclose(new_states[0].position, pose[:2], rtol=0.0,
                               atol=1e-12)
            assert angle_gap(new_states[0].heading, pose[2]) <= 1e-12
            if spot == "goal":
                assert ref.grad_norm == 0.0 and got.phi == 0.0

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_jets_equal_the_scalar_reference(self, n):
        # one quotient rule: leader_field_eval runs the kernel's numpy calls
        # on a one-robot column, so row 0 takes its bits whatever the row
        # length
        rng = np.random.default_rng(19)
        poses = np.column_stack([rng.uniform(-4.0, 4.0, (n, 2)),
                                 np.zeros(n)])
        cfg = small_config(n_robots=n, goal_position=self.GOAL,
                           linear_gains=[2.0] * n, angular_gains=[8.0] * n,
                           initial_states=make_states(poses))
        kernel = sim.StepKernel(cfg, ~np.eye(n, dtype=bool))
        for spot in ["goal", "centre"] + ["random"] * 300:
            p = self._spot(rng, spot)
            kernel.poses[:, :2] = p + rng.uniform(-1.2, 1.2, (n, 2))
            kernel.poses[0, :2] = p
            kernel.pairs()
            phi, descent, (yy, xy, xx) = kernel.jets(p.tolist())
            ref = gradients.leader_field_eval(p, cfg)
            assert np.float64(ref.value).tobytes() == phi[0].tobytes(), spot
            # the kernel's descent is -grad (y, y, x, x); negation is exact
            assert np.negative(descent[:, 0]).tobytes() == ref.gradient[
                [1, 1, 0, 0]].tobytes(), spot
            assert np.array([[xx[0], xy[0]], [xy[0], yy[0]]]).tobytes() == (
                ref.hessian.tobytes()), spot

    def test_one_robot_run_matches_compute_control(self):
        cfg = small_config(n_robots=1, linear_gains=[2.0],
                           angular_gains=[8.0], goal_position=self.GOAL,
                           horizon=0.5,
                           initial_states=make_states([(-4.0, -2.0, 0.5)]))
        norms = []
        laws = sim.control_laws

        def record(work):
            rows = laws(work)
            norms.append(rows[-1][0])
            return rows

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "control_laws", record)
            log = run(cfg)
        assert log.n_steps == 101
        prev = None
        for k in range(log.n_steps):
            x, y, theta = log.poses[k, 0]
            region = (RegionFlag.COLLISION_FREE if log.region[k] == 0
                      else RegionFlag.RENDEZVOUS)
            ref = compute_control(
                RobotState(1, np.array([x, y]), theta), [], region, cfg,
                prev)
            assert control_bits(
                (*log.controls[k, 0], log.phi[k, 0], norms[k]), ref) == [], k
            if k + 1 < log.n_steps:
                pose = integrate_pose(log.poses[k, 0], ref.v, ref.omega,
                                      cfg.time_step)
                assert np.allclose(log.poses[k + 1, 0], pose, rtol=0.0,
                                   atol=1e-12)
            prev = log.controls[k, 0, 2]


X_RIM = 30.0 - 1e-6  # just inside small_config's workspace


class TestMonitorScreen:
    """run() calls monitor_invariants only on steps where a watched value
    reaches its bound; the events must be those of monitor_invariants
    applied to every logged step."""

    SCENARIOS = {
        # a follower too slow to keep up with the informed robot
        "connectivity": dict(horizon=2.0, linear_gains=[20.0, 0.01, 4.0]),
        # two followers exactly at the collision floor at step 0
        "collision": dict(horizon=2.0, collision_floor=0.375,
                          initial_states=make_states(
                              [(-4.0, -2.0, 0.5), (-4.75, -2.5, -1.0),
                               (-4.75, -2.125, 2.0)])),
        # a follower on the rim heading out of the workspace
        "boundary": dict(horizon=1.0, initial_states=make_states(
            [(X_RIM - 0.3, 1.2, 3.0), (X_RIM, 0.0, math.pi / 2 - 0.3),
             (X_RIM - 1.0, 1.0, 0.0)])),
        # the informed robot just beyond its band, a follower near the rim
        "leader_range": dict(horizon=1.0, initial_states=make_states(
            [(26.3, 0.3, 3.0), (28.2, 0.0, 3.0), (27.5, 1.2, 3.0)])),
    }

    @pytest.mark.parametrize("kind", list(SCENARIOS))
    def test_events_match_every_step(self, kind):
        cfg = small_config(**self.SCENARIOS[kind])
        log = run(cfg)
        expected = []
        for k in range(log.n_steps):
            region = (RegionFlag.COLLISION_FREE if log.region[k] == 0
                      else RegionFlag.RENDEZVOUS)
            expected += monitor_invariants(
                log.poses[k, :, :2], log.distances[k], log.pairs,
                log.monitored, region, cfg, k, log.times[k])
        got = [e for e in log.events if e.kind != "switch"]
        assert kind in {e.kind for e in got}
        assert got == expected

    @pytest.mark.parametrize("kind", list(SCENARIOS))
    def test_strict_mode_raises_at_the_same_step(self, kind, monkeypatch):
        cfg = small_config(**self.SCENARIOS[kind])
        events = [e for e in run(cfg).events if e.kind != "switch"]
        first = events[0].step
        checked = []
        monitor = sim.monitor_invariants

        def record(*args):
            checked.append(args[6])  # the step index
            return monitor(*args)

        monkeypatch.setattr(sim, "monitor_invariants", record)
        with pytest.raises(MonitorViolation) as info:
            run(cfg, strict=True)
        assert checked[-1] == first
        assert str(info.value) == "; ".join(
            f"{e.kind}: {e.detail}" for e in events if e.step == first)


    def test_no_collision_screen_after_the_switch(self, monkeypatch):
        # two followers at the collision floor, with avoidance off from
        # the start: no watched value reaches a bound, so the monitors are
        # never called
        cfg = small_config(horizon=0.5, collision_floor=0.375,
                           initial_states=make_states(
                               [(0.0, 0.5, 0.5), (-0.75, 0.0, -1.0),
                                (-0.75, 0.375, 2.0)]))
        checked = []
        monkeypatch.setattr(sim, "monitor_invariants",
                            lambda *args: checked.append(args) or [])
        log = run(cfg)
        assert log.switch_step == 0
        assert log.distances[0, log.pairs.index((2, 3))] <= 0.375
        assert not checked


class TestAccretion:
    """neighbor_mode = accreting: followers 2 and 3 start 2.4 m apart, out
    of each other's sight, and close in on the informed robot between them."""

    def _cfg(self, mode):
        return small_config(
            initial_states=make_states([(-4.0, -2.0, 0.0), (-4.0, -0.8, 0.0),
                                        (-4.0, -3.2, 0.0)]),
            horizon=1.0, neighbor_mode=mode)

    def test_close_pair_gains_one_mutual_edge(self, monkeypatch):
        grown = []
        accrete = sim._accrete_edges

        def record(mask, dist, upper, threshold):
            before = mask.copy()
            grew = accrete(mask, dist, upper, threshold)
            assert grew == (mask != before).any()
            grown.append((mask & ~before, dist.copy()))
            return grew

        # the edge list's width after construction, then after each rebuild
        widths = []
        set_mask = JetKernel.set_mask

        def rebuild(kernel, mask):
            set_mask(kernel, mask)
            widths.append(kernel.edges.shape[1])
        monkeypatch.setattr(sim, "_accrete_edges", record)
        monkeypatch.setattr(JetKernel, "set_mask", rebuild)
        cfg = self._cfg("accreting")
        log = run(cfg)

        threshold = cfg.sensing_radius - cfg.connectivity_buffer
        steps = [k for k, (added, _) in enumerate(grown) if added.any()]
        assert len(steps) == 1
        k = steps[0]
        added, dist = grown[k]
        assert {(int(a), int(b)) for a, b in zip(*np.nonzero(added))} == {
            (1, 2), (2, 1)}
        pair = log.pairs.index((2, 3))
        assert dist[pair] < threshold
        # rebuilt once after construction, with the two new directed edges
        assert len(widths) == 2
        initial = sim.initial_topology(cfg).adjacency
        assert widths == [initial[1:].sum(), initial[1:].sum() + 2]
        d23 = log.distances[:, pair]
        assert k == int(np.argmax(d23 < threshold))
        # before that the pair sat inside sensing range, above the threshold
        assert np.any((d23[:k] < cfg.sensing_radius) & (d23[:k] >= threshold))

    def test_frozen_run_differs_from_the_accretion_step_on(self):
        cfg = self._cfg("accreting")
        accreting, frozen = run(cfg), run(self._cfg("frozen"))
        threshold = cfg.sensing_radius - cfg.connectivity_buffer
        d23 = frozen.distances[:, frozen.pairs.index((2, 3))]
        k = int(np.argmax(d23 < threshold))
        assert 0 < k < frozen.n_steps - 1
        assert np.array_equal(accreting.poses[:k + 1], frozen.poses[:k + 1])
        assert np.array_equal(accreting.controls[:k], frozen.controls[:k])
        assert not np.array_equal(accreting.controls[k], frozen.controls[k])
        assert all(not np.array_equal(a, b) for a, b in
                   zip(accreting.poses[k + 1:], frozen.poses[k + 1:]))


def check(positions, dists, monitored, region, cfg, step_index=0, t=0.0):
    """monitor_invariants on (x, y) rows and a {(i, j): d} table."""
    pairs = tuple(sorted(dists))
    return monitor_invariants(np.array(positions, dtype=float),
                              np.array([dists[p] for p in pairs]), pairs,
                              np.array([p in monitored for p in pairs]),
                              region, cfg, step_index, t)


class TestMonitors:
    def test_leader_band_is_workspace_minus_chain_length(self):
        # 30 - 2 * (3 - 1) = 26 m, with follower 3 within R of the rim
        cfg = small_config()
        dists = {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0}
        kinds = {x: [e.kind for e in check(
                     [(x, 0.0), (27.0, 0.0), (28.5, 0.0)], dists, set(),
                     RegionFlag.COLLISION_FREE, cfg)]
                 for x in (25.99, 26.01)}
        assert kinds == {25.99: [], 26.01: ["leader_range"]}

    def test_healthy_step_is_quiet(self):
        cfg = small_config()
        dists = {(1, 2): 0.9, (1, 3): 1.0, (2, 3): 1.4}
        events = check([(-4.0, -2.0), (-4.8, -2.5), (-3.4, -2.9)], dists,
                       set(dists), RegionFlag.COLLISION_FREE, cfg)
        assert events == []

    def test_broken_edge_flagged(self):
        cfg = small_config()
        dists = {(1, 2): 2.05, (1, 3): 0.7, (2, 3): 2.6}
        events = check([(-4.0, -2.0), (-1.95, -2.0), (-4.5, -2.5)], dists,
                       {(1, 2), (1, 3)}, RegionFlag.COLLISION_FREE, cfg, 3,
                       0.015)
        kinds = [e.kind for e in events]
        assert kinds == ["connectivity"]
        assert "(1,2)" in events[0].detail

    def test_zero_margin_is_violation(self):
        # a monitored edge exactly at the sensing radius has no margin left
        cfg = small_config()
        dists = {(1, 2): 2.0, (1, 3): 0.7, (2, 3): 2.6}
        events = check([(-4.0, -2.0), (-2.0, -2.0), (-4.5, -2.5)], dists,
                       {(1, 2), (1, 3)}, RegionFlag.COLLISION_FREE, cfg)
        assert [(e.kind, e.detail) for e in events] == [
            ("connectivity", "edge (1,2) at d=2.000000")]

    def test_margin_arithmetic(self):
        # robot 2 is 1.5 m and robot 3 1.2 m from the informed robot; the
        # pair (2, 3) starts 2.7 m apart, out of range, so it is unmonitored
        cfg = small_config(horizon=0.01, initial_states=make_states(
            [(-4.0, -2.0, 0.5), (-2.5, -2.0, -1.0), (-5.2, -2.0, 2.0)]))
        log = run(cfg)
        assert log.pairs == ((1, 2), (1, 3), (2, 3))
        assert log.monitored.tolist() == [True, True, False]
        margins = log.sensing_radius - log.distances[:, log.monitored]
        assert margins.shape == (log.n_steps, 2)
        assert margins[0] == pytest.approx([0.5, 0.8], abs=1e-12)
        assert np.array_equal(margins, 2.0 - log.distances[:, :2])

    def test_pairs_are_built_on_first_read(self):
        # a run names no pairs: the log builds them from its robot count
        # when first asked, in np.triu_indices' order
        log = run(small_config(horizon=0.01))
        assert "pairs" not in vars(log)
        assert log.pairs == ((1, 2), (1, 3), (2, 3))
        assert vars(log)["pairs"] is log.pairs
        for n in range(1, 9):
            first, second = np.add(np.triu_indices(n, 1), 1).tolist()
            assert sim.upper_pairs(n) == tuple(zip(first, second))

    def test_collision_flagged_only_while_avoiding(self):
        cfg = small_config()
        positions = [(-4.0, -2.0), (-4.01, -2.0), (-4.5, -2.5)]
        dists = {(1, 2): 0.01, (1, 3): 0.7, (2, 3): 0.7}
        hot = check(positions, dists, set(), RegionFlag.COLLISION_FREE, cfg)
        assert [e.kind for e in hot] == ["collision"]
        cold = check(positions, dists, set(), RegionFlag.RENDEZVOUS, cfg)
        assert cold == []

    def test_outside_workspace_flagged(self):
        cfg = small_config()
        dists = {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0}
        events = check([(-4.0, -2.0), (29.0, 8.0), (-3.5, -2.0)], dists,
                       set(), RegionFlag.COLLISION_FREE, cfg)
        assert "boundary" in [e.kind for e in events]

    def test_events_keep_pair_order_and_text(self):
        # per pair: connectivity before collision; pairs in log order, then
        # robots outside the workspace, then the informed robot's band
        cfg = small_config(collision_floor=2.5, workspace_radius=10.0)
        dists = {(1, 2): 2.2, (1, 3): 0.3, (2, 3): 3.0}
        events = check([(9.5, 0.0), (8.0, 6.5), (9.6, 0.2)], dists,
                       {(1, 2), (2, 3)}, RegionFlag.COLLISION_FREE, cfg, 7,
                       0.035)
        assert [(e.step, e.time, e.kind, e.detail) for e in events] == [
            (7, 0.035, "connectivity", "edge (1,2) at d=2.200000"),
            (7, 0.035, "collision", "pair (1,2) at d=2.200000"),
            (7, 0.035, "collision", "pair (1,3) at d=0.300000"),
            (7, 0.035, "connectivity", "edge (2,3) at d=3.000000"),
            (7, 0.035, "boundary", "robot 2 outside the workspace"),
            (7, 0.035, "leader_range",
             "informed robot beyond the follower-safe band")]


class TestRun:
    def test_single_informed_robot_converges(self):
        cfg = ScenarioConfig(
            n_robots=1, workspace_radius=50.0, sensing_radius=2.0,
            rendezvous_radius=5.0, collision_margin=0.4,
            connectivity_buffer=0.4, sigmoid_eps=0.01, dipolar_eps=0.5,
            field_exponent=1.2, linear_gains=[20.0], angular_gains=[8.0],
            goal_position=np.zeros(2), goal_heading=0.0, time_step=0.005,
            horizon=150.0, gradient_floor=1e-6,
            initial_states=[RobotState(1, np.array([10.0, 0.0]), math.pi)])
        log = run(cfg)
        m = compute_metrics(log, cfg)
        assert m.final_position_errors[0] < 0.05
        assert m.final_heading_errors[0] < 0.02
        assert log.times[-1] < cfg.horizon  # converged, not timed out

    def test_disconnected_start_rejected(self):
        cfg = small_config(initial_states=make_states(
            [(-4.0, -2.0, 0.0), (-4.8, -2.5, 0.0), (8.0, 8.0, 0.0)]))
        with pytest.raises(AssumptionError):
            run(cfg)

    def test_strict_mode_aborts_on_violation(self):
        # a collision floor above the initial spacing trips the monitor at
        # the very first step
        cfg = small_config(collision_floor=1.5)
        with pytest.raises(MonitorViolation):
            run(cfg, strict=True)

    def test_determinism_bitwise(self):
        log1 = run(small_config(horizon=1.0))
        log2 = run(small_config(horizon=1.0))
        assert np.array_equal(log1.poses, log2.poses)
        assert np.array_equal(log1.controls, log2.controls)
        assert np.array_equal(log1.distances, log2.distances)

    def test_log_shape_invariants(self):
        log = run(small_config(horizon=0.5))
        assert log.times.shape[0] == log.poses.shape[0]
        assert np.allclose(np.diff(log.times), small_config().time_step)
        assert log.poses.shape[1] == 3 or log.poses.shape[1] == log.n_robots


class TestLogGrowth:
    """The log starts at most ``sim.LOG_BYTES`` large and doubles as the run
    outgrows it, so its size follows the steps run, not the horizon."""

    FIELDS = ("times", "poses", "controls", "phi", "region", "distances")

    def test_grown_log_equals_the_default_one(self, monkeypatch):
        cfg = _reference()
        default = run(cfg)
        made = []
        log_rows = sim._log_rows

        def record(rows, *args):
            made.append(rows)
            return log_rows(rows, *args)
        monkeypatch.setattr(sim, "LOG_BYTES", 0)
        monkeypatch.setattr(sim, "_log_rows", record)
        grown = run(cfg)
        # 1,024 rows at first, doubled four times for 11,414 steps
        assert made == [1024, 2048, 4096, 8192, 16384]
        assert grown.n_steps == default.n_steps == 11414
        for name in self.FIELDS:
            a, b = getattr(grown, name), getattr(default, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        assert grown.events == default.events
        assert grown.switch_step == default.switch_step == 10853

    def test_long_horizon_allocates_what_the_run_needs(self):
        # 2e8 steps of log would not fit in memory; the run converges at
        # step 297
        log = run(dataclasses.replace(_rendezvous(), horizon=1e6))
        assert log.n_steps == 298
        # the whole log, its one extra pose row aside, within the bound: one
        # mapping holds the poses, controls and phi; the log holds no
        # pair-distance table, which is derived when read
        assert "distances" not in vars(log)
        mapping = log.poses.base.base.obj
        assert all(getattr(log, name).base.base.obj is mapping
                   for name in ("poses", "controls", "phi"))
        assert len(mapping) <= sim.LOG_BYTES + log.poses[0].nbytes


class TestMetrics:
    def _stationary_log(self):
        n, s = 2, 5
        times = np.arange(s) * 0.1
        poses = np.zeros((s, n, 3))
        controls = np.zeros((s, n, 5))
        phi = np.zeros((s, n))
        log = TrajectoryLog(
            times=times, poses=poses, controls=controls, phi=phi,
            monitored=np.array([True]), events=[],
            switch_step=0, goal_position=np.zeros(2), goal_heading=0.0,
            time_step=0.1, sensing_radius=2.0)
        log.distances = np.zeros((s, 1))
        return log

    def test_stationary_converged_log(self):
        m = compute_metrics(self._stationary_log())
        assert np.all(m.final_position_errors == 0.0)
        assert np.all(m.final_heading_errors == 0.0)
        assert m.switch_time == 0.0

    def test_synthetic_exponential_decay_rate(self):
        log = self._stationary_log()
        times = np.linspace(0.0, 2.0, 200)
        log.times = times
        s = len(times)
        log.poses = np.zeros((s, 2, 3))
        log.controls = np.zeros((s, 2, 5))
        log.controls[:, 0, 3] = 0.5 * np.exp(-2.0 * times)
        log.phi = np.zeros((s, 2))
        log.distances = np.zeros((s, 1))
        m = compute_metrics(log)
        assert m.heading_decay_rate == pytest.approx(2.0, rel=0.01)

    def test_decay_rate_ignores_noise_after_the_decay(self):
        # a decay down to the noise floor, then jitter around 1e-6 rad, then
        # a late switch: only the leading window carries the rate
        log = self._stationary_log()
        times = np.arange(2000) * 0.005
        s = len(times)
        tilde = 0.5 * np.exp(-2.0 * times)
        jitter = 1e-6 * np.random.default_rng(5).uniform(0.5, 1.5, s)
        log.times = times
        log.poses = np.zeros((s, 2, 3))
        log.controls = np.zeros((s, 2, 5))
        log.controls[:, 0, 3] = np.where(tilde > 1e-6, tilde, jitter)
        log.phi = np.zeros((s, 2))
        log.distances = np.zeros((s, 1))
        log.switch_step = int(np.argmax(times > 9.0))
        m = compute_metrics(log)
        assert m.heading_decay_rate == pytest.approx(2.0, rel=0.01)

    def test_noise_only_log_has_no_decay_rate(self):
        log = self._stationary_log()
        log.controls[:, 0, 3] = 1e-6 * np.random.default_rng(7).uniform(
            -1.0, 1.0, log.n_steps)
        assert compute_metrics(log).heading_decay_rate is None

    def test_decay_fit_needs_signal(self):
        assert fit_decay_rate(np.arange(5.0), np.zeros(5)) is None

    @pytest.mark.parametrize("n, switch, share", [
        (5, 0, 0.3), (5, 17, 0.3), (5, None, 0.3), (5, 17, 0.0),
        (1, 17, 0.3)],
        ids=["switch_at_step_0", "switch_mid_run", "never_switches",
             "no_monitored_pair", "one_robot"])
    def test_distance_bounds_equal_the_masked_forms(self, n, switch, share):
        # the bounds as boolean-mask and fancy-index copies of the log
        rng = np.random.default_rng(19)
        steps, p = 40, n * (n - 1) // 2
        poses = rng.normal(size=(steps, n, 3))
        controls = rng.normal(size=(steps, n, 5))
        phi = rng.uniform(size=(steps, n))
        distances = rng.uniform(0.0, 4.0, size=(steps, p))
        log = TrajectoryLog(
            times=np.arange(steps) * 0.01, poses=poses, controls=controls,
            phi=phi, monitored=rng.uniform(size=p) < share, switch_step=switch,
            goal_position=np.zeros(2), time_step=0.01, sensing_radius=2.0)
        log.distances = distances
        free = log.region == 0
        want_min = (float(log.distances[free].min())
                    if free.any() and p else None)
        want_max = (float(log.distances[:, log.monitored].max())
                    if log.monitored.any() else None)
        m = compute_metrics(log)
        for got, want in ((m.min_distance_collision_free, want_min),
                          (m.max_monitored_distance, want_max)):
            assert (got is None) == (want is None)
            if want is not None:
                assert np.float64(got).view(np.uint64) == (
                    np.float64(want).view(np.uint64))
        assert (want_min is None) == (switch == 0 or n == 1)
        assert (want_max is None) == (share == 0.0 or n == 1)

    @pytest.mark.parametrize("nan_step", [9, 10],
                             ids=["before_the_switch", "after_the_switch"])
    def test_block_bounds_carry_nan_as_whole_array_ones(self, monkeypatch,
                                                        nan_step):
        # 5 robots' distances derived 4 steps a block: the switch at step 10
        # falls inside the third block, and robot 2's NaN pose makes its
        # pairs, monitored (1, 2) and (2, 3) among them, NaN at one step,
        # on either side of the switch
        monkeypatch.setattr(sim, "PAIR_BLOCK_BYTES", 4 * 24 * 10)
        rng = np.random.default_rng(23)
        steps, n, switch = 40, 5, 10
        poses = rng.normal(scale=2.0, size=(steps, n, 3))
        poses[nan_step, 1, 0] = np.nan
        monitored = np.zeros(10, dtype=bool)
        monitored[[0, 4, 9]] = True  # (1, 2), (2, 3) and (4, 5)
        log = TrajectoryLog(
            times=np.arange(steps) * 0.01, poses=poses,
            controls=rng.normal(size=(steps, n, 5)),
            phi=rng.uniform(size=(steps, n)), monitored=monitored,
            switch_step=switch,
            goal_position=np.zeros(2), time_step=0.01, sensing_radius=2.0)
        derived = compute_metrics(log)
        assert "distances" not in vars(log)  # read by blocks, not kept
        table = log.distances
        holding = dataclasses.replace(log)
        holding.distances = table
        held = compute_metrics(holding)
        want_min = table[:switch].min()
        want_max = table.max(axis=0)[monitored].max()
        assert np.isnan(want_min) == (nan_step < switch)
        assert np.isnan(want_max)
        for m in (derived, held):
            assert np.float64(m.min_distance_collision_free).tobytes() == (
                want_min.tobytes())
            assert np.float64(m.max_monitored_distance).tobytes() == (
                want_max.tobytes())


class TestDiscretisation:
    """The zero-order hold of the controls is a first-order error in dt.

    One informed robot turns toward the goal at dt, dt/2 and dt/4. The
    fitted heading decay rate must converge at order 1, and the Richardson
    value of the finest pair must land on k_w. Metrics that depend on when a
    run stops are not extrapolated.
    """

    def test_heading_decay_rate_converges_to_k_w(self):
        k_w = 8.0
        rates = []
        for halvings in range(3):
            cfg = small_config(
                n_robots=1, linear_gains=[2.0], angular_gains=[k_w],
                initial_states=make_states([(-4.0, -2.0, 2.5)]),
                horizon=3.0, time_step=0.005 / 2 ** halvings)
            rates.append(compute_metrics(run(cfg), cfg).heading_decay_rate)
        coarse, mid, fine = rates
        order = math.log2((coarse - mid) / (mid - fine))
        assert 0.8 <= order <= 1.2, rates
        extrapolated = fine + (fine - mid) / (2.0 ** order - 1.0)
        assert abs(extrapolated - k_w) <= 1e-2, (rates, extrapolated)


@pytest.fixture(scope="class")
def ladder_log():
    """The first 20 s of the reference, well before its switch at 54 s,
    at time step dt / 2 ** halvings, by halvings; each run once per class."""
    @functools.cache
    def log(halvings):
        cfg = _reference()
        return run(dataclasses.replace(
            cfg, time_step=cfg.time_step / 2 ** halvings, horizon=20.0))
    return log


class TestTimeStepLadder:
    """The reference's time step against its halvings: the integrator is
    exact for controls held over a step, so the zero-order hold is the one
    numerical parameter, and its error is first order in dt."""

    def test_positions_converge_at_first_order(self, ladder_log):
        # largest position difference over 20 s and six robots against
        # dt/8, at dt, dt/2 and dt/4: a first-order error C h leaves
        # C (h - h/8), so the ratios are 7/3 and 3. Measured 3.8e-3,
        # 1.6e-3 and 5.4e-4 m, ratios 2.34 and 3.00 (at t = 20 s alone
        # 6.2e-5, 2.6e-5 and 8.5e-6 m); the band is 10 % of each ratio
        fine = ladder_log(3).poses[:, :, :2]
        gaps = [np.hypot(*np.moveaxis(
            ladder_log(h).poses[:, :, :2] - fine[::2 ** (3 - h)], -1, 0)).max()
            for h in range(3)]
        assert gaps[0] < 1e-2, gaps
        ratios = [gaps[0] / gaps[1], gaps[1] / gaps[2]]
        assert ratios == pytest.approx([7.0 / 3.0, 3.0], rel=0.1), gaps

    @pytest.mark.parametrize("halvings", [0, 1])
    def test_decay_rate_is_the_zero_order_hold_rate(self, halvings,
                                                    ladder_log):
        # theta_tilde <- (1 - k_w dt) theta_tilde per held step decays at
        # -ln(1 - k_w dt) / dt, not k_w (criterion 4 allows 5 % against
        # k_w). Measured 8.1662 against 8.1644 at dt and 8.0820 against
        # 8.0811 at dt/2, 2.2e-4 and 1.1e-4 relative; the fit ends at the
        # noise floor, well inside 20 s
        log = ladder_log(halvings)
        k_w, dt = _reference().angular_gains[0], log.time_step
        held = -math.log(1.0 - k_w * dt) / dt
        rate = compute_metrics(log).heading_decay_rate
        assert rate == pytest.approx(held, rel=5e-4)

"""Fixed-step closed-loop simulation with runtime monitors and logging."""

import itertools
import math
import mmap
import time as _time
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .control import ControlOutput, ControlWork, control_laws
from .fields import region_of
from .gradients import JetKernel, bind
from .graph import Topology, build_topology, has_rooted_spanning_tree
from .model import (TWO_PI, RegionFlag, RobotState, ScenarioConfig,
                    outside_workspace, turn_angles, turn_rows,
                    validate_scenario)
# not called here: rendezbench/tracing.py wraps these names
from .control import compute_control  # noqa: F401
from .model import normalize_angle  # noqa: F401


# |heading error| of the informed robot below which compute_metrics treats
# it as noise; far above the 9-decimal export precision, so metrics on an
# export fit the same window as metrics on the live log
HEADING_NOISE_FLOOR = 1e-4  # rad

# |value| at or below which fit_decay_rate leaves a sample out: log |value|
# of such a sample says nothing of the decay
DECAY_FLOOR = 1e-12

# bytes the log's arrays start with at most: a run that outgrows them
# doubles them, up to its horizon
LOG_BYTES = 1 << 26

# bytes of pair_distances' rows that a block of steps may take by default:
# 4 steps at 48 robots, few enough that metrics on a run's log hold under a
# tenth of its (S, P) distances
PAIR_BLOCK_BYTES = 1 << 17


class AssumptionError(RuntimeError):
    """The initial graph lacks a spanning tree rooted at the informed robot."""


class MonitorViolation(RuntimeError):
    """A runtime monitor fired while running in strict mode."""


class NonFiniteState(RuntimeError):
    """A step moved some robot to a non-finite pose."""


@dataclass
class Event:
    step: int
    time: float
    kind: str    # "switch", "connectivity", "collision", "boundary", "leader_range"
    detail: str


@dataclass
class TrajectoryLog:
    """Column-oriented record of a run; everything metrics need lives here.

    ``controls`` columns are (v, omega, theta_d, theta_tilde, theta_d_dot).
    ``pairs`` names the columns of ``distances``; ``monitored`` marks the
    pairs connected in the initial graph, whose preservation is claimed.
    A run's log keeps no distances: the export and the metrics read them
    through ``distance_blocks``, and ``distances`` derives the whole table
    on first read. Assigning ``distances`` makes the log hold that table
    instead, as a loaded file's log does; it is no field, so
    ``dataclasses.replace``, ``repr`` and ``==`` neither read nor copy it.
    """

    times: np.ndarray        # (S,)
    poses: np.ndarray        # (S, N, 3): x, y, theta
    controls: np.ndarray     # (S, N, 5)
    phi: np.ndarray          # (S, N)
    monitored: np.ndarray    # (P,) bool
    events: list = field(default_factory=list)
    switch_step: int | None = None
    goal_position: np.ndarray = None
    goal_heading: float = 0.0
    time_step: float = 0.0
    sensing_radius: float = 0.0
    wall_time: float = 0.0

    @property
    def n_steps(self) -> int:
        return len(self.times)

    @property
    def n_robots(self) -> int:
        return self.poses.shape[1]

    @property
    def region(self) -> np.ndarray:
        """(S,) int8, made on each read from ``switch_step``, the log's one
        record of the switch: 0 (collision-free) before it, 1 from it."""
        switch = self.n_steps if self.switch_step is None else self.switch_step
        return (np.arange(self.n_steps) >= switch).view(np.int8)

    @cached_property
    def pairs(self) -> tuple:
        """The P index pairs (i, j), i < j, 1-based, built on first read."""
        return upper_pairs(self.n_robots)

    @cached_property
    def distances(self) -> np.ndarray:
        """(S, P), one column per pair of ``pairs``, derived on first read
        and kept."""
        table = np.empty((self.n_steps, len(self.monitored)))
        for k0, block in self.distance_blocks():
            table[k0:k0 + len(block)] = block
        return table

    def distance_blocks(self, steps: int | None = None):
        """The distances ``steps`` steps at a time, as (first step, (k, P)
        array) pairs, each array valid until the next: slices of the table
        the log holds, or else ``pair_distances``' blocks, which keep
        nothing. By default a held table is one block, and derived blocks
        fit ``PAIR_BLOCK_BYTES``."""
        held = vars(self).get("distances")
        if held is None:
            p = len(self.monitored)
            return pair_distances(self.poses, steps or max(
                1, PAIR_BLOCK_BYTES // (24 * p or 1)))
        steps = steps or max(1, self.n_steps)
        return ((k0, held[k0:k0 + steps])
                for k0 in range(0, self.n_steps, steps))


def upper_pairs(n: int) -> tuple:
    """The 1-based index pairs (i, j), i < j, of n robots in the log's
    order: (1, 2), (1, 3), ..., (n - 1, n)."""
    return tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1))


@dataclass
class Metrics:
    final_position_errors: np.ndarray
    final_heading_errors: np.ndarray
    final_orientation_errors: np.ndarray  # |wrap(theta_i - goal_heading)|
    min_distance_collision_free: float | None
    max_monitored_distance: float | None
    switch_time: float | None
    heading_decay_rate: float | None


class IntegrateWork:
    """Preallocated rows and bound calls of ``_integrate_all``, which moves
    ``poses`` on in place with time step dt and the controls (v, omega),
    the (2, N) rows ``controls``.

    It holds (dt, dt), (1/2, pi) and 2 pi as rows, so that no call takes a
    scalar, and the temporaries. A ``StepKernel``'s poses are the transpose
    of a (3, N) block, so that its pose rows are C-contiguous. The calls
    run in two segments, ``arc`` and ``chord``, split by the arc's screen
    of the half turns ``arg``.
    """

    def __init__(self, poses: np.ndarray, dt: float, controls: np.ndarray):
        n = len(poses)
        self.poses = poses
        rows = poses.T
        constants = np.empty((5, n))
        constants[:2], constants[2], constants[3:] = dt, 0.5, [[math.pi],
                                                             [TWO_PI]]
        # the moves (x, y, theta), y's first dt v, then the turns dt omega
        # / 2 pi; the half turn, pi (turns) and the mid-step heading; and
        # cos(mid), sin y (then the ratio and the chord) and sin(mid)
        moves, angles, trig = np.empty((3, 4, n))
        self.arg = angles[1]
        # np.sinc's operands: dt v, the turns and the ratio's row
        self.sinc_rows = moves[1], moves[3], trig[1]
        self.arc = bind(
            (np.multiply, constants[:2], controls, moves[1:3]),
            (np.divide, moves[2], constants[4], moves[3]),
            (np.multiply, constants[2:4], moves[2:], angles[:2]),
            (np.add, rows[2], angles[0], angles[2]),
            (np.sin, angles[1:3], trig[1:3]))  # sin y, in the ratio's row
        self.chord = bind(
            (np.divide, trig[1], angles[1], trig[1]),
            (np.multiply, moves[1], trig[1], trig[1]),
            (np.cos, angles[2], trig[0]),
            (np.multiply, trig[1:3], trig[:2], moves[:2]),
            (np.add, rows, moves[:3], rows))


def _integrate_all(w: IntegrateWork):
    """Exact step: with v and omega held over dt each path is a circular arc.

    The chord is v*dt*sinc(omega*dt/2) long and points along the mid-step
    heading. The ratio sin(y)/y is np.sinc's own arithmetic, y = pi (h/pi)
    for the half turn h, done inline; plain sin(h)/h can differ from it in
    the last bit. One product gives dt v and dt omega, and one more halves
    dt omega and takes pi times the turns dt omega / 2 pi: halving and
    doubling are exact above the subnormals, so h and h / pi are (dt / 2)
    omega and (dt / 2) omega / pi bit for bit. Only a step where some y is
    0 calls np.sinc, which is exactly 1 there (a straight line). The chord
    sits between cos(mid) and sin(mid), so one product gives both moves.
    One sum moves the (N, 3) poses of ``w`` on in place, the headings
    unwrapped; every temporary is a row of ``w``, and the calls are bound
    there.
    """
    for call, args in w.arc:
        call(*args)
    y = w.arg
    calls = w.chord
    if np.count_nonzero(y) != len(y):
        dt_v, turns, ratio = w.sinc_rows
        np.multiply(dt_v, np.sinc(turns), ratio)
        calls = calls[2:]
    for call, args in calls:
        call(*args)


def _pose_array(states: list[RobotState]) -> np.ndarray:
    poses = np.empty((len(states), 3))
    poses[:, :2] = [s.position for s in states]
    poses[:, 2] = [s.heading for s in states]
    return poses


class PairWork:
    """Preallocated rows and bound calls of ``_offsets`` on the (N, 3)
    ``poses``: the (4, P) pair rows ``pairs`` of the upper pairs ``upper``,
    ``np.triu_indices(N, 1)``, the log's pair order, named by
    ``JetKernel.PAIR_INPUTS``. The flat ``block`` holds, in order, the
    values of the flat pose rows at ``lead``, which the take copies too,
    the pair rows and the rows of the step's screen (``ScreenWork``),
    ``screened``: the watched values (the distances, then the robots' norms
    ``norms``), their negations and |poses|; so it takes len(lead) + 5P +
    5N floats."""

    def __init__(self, poses: np.ndarray, upper: tuple, block: np.ndarray,
                 lead: np.ndarray):
        n = len(poses)
        a, b = upper
        p = len(a)
        # then (x_a, y_a, x_b, y_b) of each pair, from the flat (3, N) rows
        ends_at = np.concatenate((lead, a, a + n, b, b + n))
        taken = block[:len(lead) + 4 * p]
        block = block[len(lead):]
        self.pairs = block[:4 * p].reshape(4, p)
        self.screened = block[3 * p:]
        self.norms = block[4 * p:4 * p + n]
        v = partial(JetKernel.PAIR_INPUTS.view, self.pairs)
        self.dist = v("d")
        # the ends' rows 0-1 less rows 2-3, squared into rows 2-3, summed
        # into row 2, and its square root into row 3
        self.calls = bind(
            (poses.T.take, ends_at, None, taken, "clip"),
            (np.subtract, v("ox oy"), v("sq d"), v("ox oy")),
            (np.multiply, v("ox oy"), v("ox oy"), v("sq d")),
            (np.add, v("sq"), v("d"), v("sq")),
            (np.sqrt, v("sq"), v("d")))


def _offsets(w: PairWork):
    """Pair rows of the upper pairs of ``w`` as one (4, P) array: the
    offsets p_a - p_b (x, y), their square lengths and the distances,
    rows of ``w``, made in place from each pair's ends (x_a, y_a, x_b, y_b)
    by the calls bound there. The take that gathers the ends copies the
    lead values of ``w`` too."""
    for call, args in w.calls:
        call(*args)
    return w.pairs


def pair_distances(poses: np.ndarray, steps: int):
    """Yield the distances of the upper pairs of the (S, N, 3) ``poses``,
    in the log's pair order, ``steps`` steps at a time, as (first step,
    (k, P) array) pairs.

    The arithmetic is ``_offsets``': each pair's x_a - x_b and y_a - y_b
    from its gathered ends, squared, added and square-rooted, so that every
    bit equals the distance the step kernel took from the same poses. The
    three (steps, P) rows are allocated at the first block, and every block
    overwrites them, a shorter last one their first steps; a block is valid
    until the next is asked for, and the rows go with the generator.
    """
    s, n = poses.shape[:2]
    a, b = (3 * i for i in np.triu_indices(n, 1))
    ends_at = ((a, b), (a + 1, b + 1))  # x, then y, of both ends
    steps = max(1, min(steps, s))
    rows = np.empty((3, steps, len(a)))
    for k0 in range(0, s, steps):
        k = min(steps, s - k0)
        dist, square_y, end = rows[:, :k]
        flat = poses[k0:k0 + k].reshape(k, 3 * n)
        for square, (at_a, at_b) in zip((dist, square_y), ends_at):
            flat.take(at_a, 1, square, "clip")
            flat.take(at_b, 1, end, "clip")
            np.subtract(square, end, square)
            np.multiply(square, square, square)
        np.add(dist, square_y, dist)
        yield k0, np.sqrt(dist, dist)


class ScreenWork:
    """Preallocated rows of ``_screen`` on the (N, 3) ``poses`` and the
    flat ``block`` that holds M watched values of a step (a kernel's pair
    distances, then its robots' norms), their negations, then |poses|
    after the step, as rows (|x|, |y|, |theta|): the bounds of the block,
    the high ones of the watched values ``high``, their low ones negated
    ``negated_low`` (``_monitor_bounds`` writes both; until then they are
    NaN, which no value passes) and (inf, inf, pi) for the pose rows, the
    comparison ``inside``, its two parts and the bytes of their all-True
    values, and the heading wrap's turn rows (``model.turn_rows``), whose
    third is 2 pi, so that no call takes a scalar."""

    def __init__(self, poses: np.ndarray, block: np.ndarray):
        n = len(poses)
        m = len(block) - 3 * n
        self.poses, self.rows, self.block = poses, poses.T, block
        self.theta = self.rows[2]
        self.watched, self.negated = block[:m].reshape(2, m // 2)
        self.magnitudes = block[m:].reshape(3, n)
        self.bounds = np.full(len(block), math.nan)
        self.high, self.negated_low = self.bounds[:m].reshape(2, m // 2)
        self.bounds[m:].reshape(3, n)[...] = [[math.inf], [math.inf],
                                              [math.pi]]
        self.inside = np.empty(len(block), dtype=bool)
        self.reached, self.posed = self.inside[:m], self.inside[m:]
        self.posed_rows = self.posed.reshape(3, n)
        self.all_true = b"\x01" * len(block)
        self.none_reached, self.all_posed = self.all_true[:m], self.all_true[m:]
        self.turn = turn_rows(n)


def _screen(w: ScreenWork) -> bool:
    """The step's one screen: one comparison of the block of ``w`` with its
    bounds. It passes where every watched value is under its high bound
    and over its low one, so no monitor can fire (``_monitor_bounds``),
    and every new pose is finite with its heading inside (-pi, pi), where
    the wrap would change nothing; the poses of the step before were
    screened finite, so no watched value is NaN. Returns whether some
    watched value reached a bound.

    Where a pose fails, the headings are wrapped, bit for bit
    ``model.normalize_angle`` (an fmod by 2 pi and one turn leave a heading
    inside (-pi, pi) as it is, and a non-finite one comes out NaN), and
    NonFiniteState names the first robot whose pose is not finite.
    """
    np.negative(w.watched, w.negated)
    np.abs(w.rows, w.magnitudes)
    if np.less(w.block, w.bounds, w.inside).tobytes() == w.all_true:
        return False
    if w.posed.tobytes() != w.all_posed:
        theta, poses = w.theta, w.poses
        turn_angles(np.fmod(theta, w.turn[2], theta), theta, w.turn)
        finite = np.isfinite(w.rows, w.posed_rows)
        if finite.tobytes() != w.all_posed:
            i = int(np.flatnonzero(~finite.all(axis=0))[0])
            raise NonFiniteState(
                f"non-finite state after integration: robot {i + 1} at "
                f"(x, y, theta) = {tuple(poses[i].tolist())}")
    return w.reached.tobytes() != w.none_reached


class StepKernel:
    """One synchronous update of every robot's pose, in place.

    Built once per run, it holds every per-run constant and every per-step
    array: the (N, 3) poses it moves on, the field jets (gains, shifts, the
    followers' edge list and the quotient rule's rows, see ``JetKernel``)
    and the workspaces of ``_offsets``, ``control_laws``,
    ``_integrate_all`` and ``_screen``, each bound to the kernel's own
    arrays, so that a step makes few views and allocations
    (``tests/test_step_cost.py`` budgets them). ``pairs()`` gives the pair
    rows of ``poses``' upper pairs ``upper`` (offsets, square lengths,
    distances); a call makes one jet pass over all rows, one
    ``control_laws`` call, one ``_integrate_all`` call and one ``_screen``
    call, whose monitor bounds watch the pairs ``monitored``, those of
    ``mask`` among the upper pairs. ``control_rows`` holds the last call's
    controls as rows (v, omega, theta_d, theta_tilde, theta_d_dot),
    ``by_robot`` as (N, 5); its row ``theta_d`` is the heading held where a
    gradient is below the floor, so set it to the current headings before
    the first call.
    """

    def __init__(self, cfg: ScenarioConfig, mask: np.ndarray):
        n = len(mask)
        # one index of the upper pairs, for the pair rows and the edge list
        self.upper = np.triu_indices(n, 1)
        self.monitored = mask[self.upper]
        # the poses, the transpose of the pose rows (x, y, theta)
        self.poses = np.empty((3, n)).T
        self.x, self.y, self.theta = self.poses.T
        # one block: the control laws' rows, then the pair rows'. The
        # quotient rule writes the laws' Hessian rows, and the pair rows'
        # take theta twice into the laws' heading rows, ROWS' last two
        rows = ControlWork.ROWS
        laws, p = len(rows.names), len(self.upper[0])
        block = np.zeros(laws * n + 5 * p + 5 * n)
        laws_block = block[:laws * n].reshape(laws, n)
        theta = np.arange(2 * n, 3 * n)
        self.pair_work = PairWork(self.poses, self.upper,
                                  block[rows.at("tt tdd").start * n:],
                                  np.concatenate((theta, theta)))
        self.jets = JetKernel(cfg, mask, self.upper, self.pair_work.pairs,
                              rows.view(laws_block, "hyy hxy hxx"))
        self.laws = ControlWork(self.theta, cfg.linear_gains,
                                cfg.angular_gains, cfg.gradient_floor,
                                laws_block, self.jets.quotient.jet[1])
        self.norms = self.pair_work.norms
        self.control_rows = self.laws.controls
        self.motion = IntegrateWork(self.poses, cfg.time_step,
                                    self.control_rows[:2])
        self.screen = ScreenWork(self.poses, self.pair_work.screened)
        _monitor_bounds(cfg, self.monitored, self.screen.high,
                        self.screen.negated_low)
        self.by_robot = self.control_rows.T
        self.theta_d = self.control_rows[2]

    def drop_avoidance(self) -> None:
        """Drop the collision factor (``JetKernel.drop_avoidance``) and lift
        the collision floor's bound, at the region switch, which latches:
        no negated distance is under its +inf."""
        self.jets.drop_avoidance()
        self.screen.negated_low[:len(self.monitored)] = math.inf

    def pairs(self):
        """The (4, P) pair rows of ``poses``' upper pairs (``_offsets``)."""
        return _offsets(self.pair_work)

    def __call__(self, leader):
        """Fill ``control_rows`` and move ``poses`` on by one step, from the
        pair rows and the headings of the last ``pairs()`` call, so the
        poses must not change in between; return phi and the gradient
        norms, rows of the kernel, and whether some watched value of the
        step reached its monitor bound (``_screen``).

        ``leader`` is the informed robot's (x, y) as floats."""
        # the norms of the step's poses, before the move
        np.hypot(self.x, self.y, self.norms)
        phi, _, _ = self.jets(leader)
        *_, grad_norm = control_laws(self.laws)
        _integrate_all(self.motion)
        return phi, grad_norm, _screen(self.screen)


# scalar reference, kept in src/ because rendezbench/tracing.py wraps it
def step(states: list[RobotState], region: RegionFlag, cfg: ScenarioConfig,
         topo: Topology | None = None,
         prev_theta_d: list | None = None):
    """One synchronous update: controls from the snapshot, then integration.

    An adapter from states to the step kernel that ``run`` drives; the first
    state is the informed robot. Robot i's controls read only the robots it
    senses, so moving any other robot leaves them unchanged bit for bit.
    Returns (new states, controls in id order, new region); a RENDEZVOUS
    region stays, as the switch latches, else is tested at the new pose.
    """
    if topo is None:
        topo = build_topology(states, cfg.sensing_radius)
    kernel = StepKernel(cfg, topo.adjacency)
    if region is RegionFlag.RENDEZVOUS:
        kernel.drop_avoidance()
    kernel.poses[...] = _pose_array(states)
    kernel.theta_d[...] = kernel.theta
    for i, prev in enumerate(prev_theta_d or ()):
        if prev is not None:
            kernel.theta_d[i] = prev
    kernel.pairs()
    phi, grad_norm, _ = kernel(kernel.poses[0, :2].tolist())
    controls = [ControlOutput(*row, p, g) for row, p, g in
                zip(kernel.by_robot.tolist(), phi.tolist(),
                    grad_norm.tolist())]
    new = kernel.poses
    new_states = [s.with_pose(new[i, :2], new[i, 2])
                  for i, s in enumerate(states)]
    if region is RegionFlag.COLLISION_FREE:
        region = region_of(new[0, :2], cfg)
    return new_states, controls, region


def monitor_invariants(positions: np.ndarray, pair_distances: np.ndarray,
                       pairs: tuple, monitored: np.ndarray,
                       region: RegionFlag, cfg: ScenarioConfig,
                       step_index: int, t: float) -> list[Event]:
    """Check one logged step against the claimed safety properties.

    ``positions`` is (N, 2) with the informed robot first; ``pair_distances``
    and the boolean ``monitored`` are aligned with ``pairs``, the log's
    1-based pairs (i, j). Emits events for a monitored edge at or beyond
    sensing range, a pair at or below the collision floor while avoidance is
    active, a robot outside the workspace, and the informed robot leaving
    the band that keeps every follower clear of the workspace rim while some
    follower is near it.
    """
    events = []
    broken = monitored & (pair_distances >= cfg.sensing_radius)
    touching = ((pair_distances <= cfg.collision_floor)
                & (region is RegionFlag.COLLISION_FREE))
    for col in np.flatnonzero(broken | touching):
        (i, j), d = pairs[col], pair_distances[col]
        if broken[col]:
            events.append(Event(step_index, t, "connectivity",
                                f"edge ({i},{j}) at d={d:.6f}"))
        if touching[col]:
            events.append(Event(step_index, t, "collision",
                                f"pair ({i},{j}) at d={d:.6f}"))
    for r in np.flatnonzero(outside_workspace(positions,
                                              cfg.workspace_radius)):
        events.append(Event(step_index, t, "boundary",
                            f"robot {r + 1} outside the workspace"))
    norms = np.hypot(positions[:, 0], positions[:, 1])
    if norms[0] > cfg.leader_band and np.any(
            cfg.workspace_radius - norms[1:] < cfg.sensing_radius):
        events.append(Event(step_index, t, "leader_range",
                            "informed robot beyond the follower-safe band"))
    return events


def initial_topology(cfg: ScenarioConfig) -> Topology:
    """Sensing graph of the initial poses.

    Raises AssumptionError unless it has a spanning tree rooted at the
    informed robot, which every claim of the closed loop assumes.
    """
    topo = build_topology(cfg.initial_states, cfg.sensing_radius)
    if not has_rooted_spanning_tree(topo.adjacency, root=1):
        raise AssumptionError(
            "initial graph has no spanning tree rooted at the informed robot")
    return topo


class AccreteWork:
    """Preallocated rows of ``_accrete_edges`` on the upper pairs
    ``upper`` of the sensing ``mask``: the threshold as a row, ``edge``,
    which pairs are mutual edges of the mask, the two comparisons and the
    bytes of an all-False one, ``none``."""

    def __init__(self, mask: np.ndarray, upper: tuple, threshold: float):
        p = len(upper[0])
        self.threshold = np.full(p, threshold)
        self.edge = mask[upper] & mask.T[upper]
        self.near, self.new = np.empty((2, p), dtype=bool)
        self.none = bytes(p)


def _accrete_edges(mask: np.ndarray, dist: np.ndarray, upper: tuple,
                   w: AccreteWork) -> bool:
    """Add mutual edges, in place, for pairs closer than the threshold.

    ``dist`` holds the distances of the upper pairs ``upper``, and ``w``
    the mask's edges among them. Returns whether the mask grew. It only
    grows, so two comparisons screen a step for pairs that are near but
    not yet edges, and only a step that has some writes them.
    """
    near = np.less(dist, w.threshold, w.near)
    new = np.greater(near, w.edge, w.new)  # near and not an edge
    if new.tobytes() == w.none:
        return False
    a, b = upper[0][new], upper[1][new]
    mask[a, b] = mask[b, a] = True
    np.logical_or(w.edge, new, w.edge)
    return True


def _monitor_bounds(cfg: ScenarioConfig, monitored: np.ndarray,
                    high: np.ndarray, negated_low: np.ndarray) -> None:
    """Write the bounds that the step's pair distances, then robot norms,
    must reach before ``monitor_invariants`` can emit anything: ``high``,
    and the low ones negated, as -x >= -low exactly when x <= low.

    A value at or above its high bound or, while avoidance is active, at or
    below its low bound can fire a monitor: a monitored edge at the sensing
    radius, a pair at the collision floor, a robot at the workspace rim.
    The informed robot's high bound is also the leader band, which is
    necessary for ``leader_range`` though not sufficient. The norms have no
    low bound; the region switch lifts the pairs' (``StepKernel``).
    """
    p = len(monitored)
    high[:p] = math.inf
    high[:p][monitored] = cfg.sensing_radius
    high[p] = min(cfg.workspace_radius, cfg.leader_band)
    high[p + 1:] = cfg.workspace_radius
    negated_low[:p] = -cfg.collision_floor
    negated_low[p:] = math.inf


def _stop_bound(tolerance: float) -> float:
    """The stop screen's bound: a ``distance`` math.hypot(dx, dy) under it
    is False only where ``np.hypot(dx, dy) < tolerance`` is False too, with
    no numpy call: math.hypot differs from np.hypot by an ulp or two, far
    under the relative margin, and four ulps of the subnormals stand in for
    it where it rounds away."""
    return tolerance * (1.0 + 1e-12) + 4.0 * math.ulp(0.0)


def _log_rows(rows: int, n: int, filled=()):
    """The log's float arrays for ``rows`` steps of n robots: poses (a row
    more: row k + 1 receives step k's update), controls and phi. The arrays
    of ``filled``, as returned before, are copied into their first rows.

    The arrays are cut, one after another, from one anonymous mapping, whose
    pages the operating system commits as the rows are written: numpy
    advises 2 MiB pages for an array of 4 MiB or more, and a log reserves
    rows up to the horizon that a converging run never writes. The mapping
    is ``mmap``'s default, shared: a forked child writes into the parent's
    log."""
    shapes = ((rows + 1, n, 3), (rows, n, 5), (rows, n))
    sizes = [8 * math.prod(s) for s in shapes]
    mapping = mmap.mmap(-1, sum(sizes))
    offsets = itertools.accumulate(sizes, initial=0)
    arrays = tuple(np.frombuffer(mapping, float, math.prod(s), at).reshape(s)
                   for s, at in zip(shapes, offsets))
    for new, old in zip(arrays, filled):
        new[:len(old)] = old
    return arrays


def run(cfg: ScenarioConfig, strict: bool = False) -> TrajectoryLog:
    """Simulate the whole scenario; stop early once every robot converged.

    Each step advances the (N, 3) poses of one ``StepKernel``, built once
    per run: one array of upper-pair rows (offsets, square lengths and
    distances) feeds the neighbor mask's accretion, the monitors and one
    kernel call, which makes the controls and moves the poses on from the
    followers' edge list; the log copies the poses and controls, and
    derives its distances from the poses when read. The region switch is
    asked only until it latches, at ``switch_step``, the log's one record
    of it, which drops the kernel's collision factor and the collision
    floor's bound once (``StepKernel.drop_avoidance``).
    ``monitor_invariants`` runs only on a step where some watched value
    reaches its bound (``_screen``), so it emits the same events as on
    every step.
    The log starts at most ``LOG_BYTES`` large and doubles when the run
    outgrows it, so that its size follows the steps run, not the horizon.
    Raises AssumptionError when the initial graph has no spanning tree
    rooted at the informed robot, and NonFiniteState, with the step and t,
    when a step leaves some pose non-finite. Monitor violations are
    recorded as events and, in strict mode, abort the run by raising
    MonitorViolation.
    """
    started = _time.perf_counter()
    validate_scenario(cfg)
    n = cfg.n_robots
    accreting = cfg.neighbor_mode == "accreting"

    # the mask stays frozen unless accretion grows it; the initial graph
    # already holds every pair inside the threshold
    mask = initial_topology(cfg).adjacency
    kernel = StepKernel(cfg, mask)
    upper = kernel.upper
    threshold = cfg.sensing_radius - cfg.connectivity_buffer
    accretion = AccreteWork(mask, upper, threshold) if accreting else None
    pairs = ()  # the monitors' pair names, made on a step that needs them
    leader_const = kernel.jets.leader_const
    goal_x, goal_y = leader_const.goal_x, leader_const.goal_y
    switch_distance = leader_const.switch_distance
    monitored = kernel.monitored

    max_steps = int(round(cfg.horizon / cfg.time_step))
    S = max_steps + 1
    # a logged step: each robot's pose, controls and phi
    rows = min(S, max(1024, LOG_BYTES // (72 * n)))
    poses, ctrl, phi = log_rows = _log_rows(rows, n)

    events: list[Event] = []
    switch_step = None
    region = RegionFlag.COLLISION_FREE
    pose = kernel.poses
    poses[0] = pose[...] = _pose_array(cfg.initial_states)
    # no desired heading yet: hold the current one
    kernel.theta_d[...] = kernel.theta
    dist = kernel.pair_work.dist
    tolerance = cfg.position_tolerance
    stop_bound = _stop_bound(tolerance)

    k = 0
    while True:
        if k == rows:  # the log is full: double it, up to the horizon
            rows = min(2 * rows, S)
            poses, ctrl, phi = log_rows = _log_rows(rows, n, log_rows)
        # the informed robot's position as floats, read once a step for the
        # kernel, and its goal distance for the region switch's test
        # (fields.region_of) and the stop screen
        leader = (float(pose[0, 0]), float(pose[0, 1]))
        goal_distance = math.hypot(leader[0] - goal_x, leader[1] - goal_y)
        if switch_step is None and goal_distance < switch_distance:
            switch_step = k  # latched
            region = RegionFlag.RENDEZVOUS
            kernel.drop_avoidance()
            events.append(Event(k, k * cfg.time_step, "switch", (
                "informed robot reached the switch distance" if k
                else "collision avoidance off from the start")))
        kernel.pairs()
        if accreting and _accrete_edges(mask, dist, upper, accretion):
            kernel.jets.set_mask(mask)
        try:
            phi[k], _, reached = kernel(leader)
        except NonFiniteState as exc:
            raise NonFiniteState(
                f"{exc}, step {k}, t = {k * cfg.time_step:.3f} s") from exc
        ctrl[k] = kernel.by_robot
        poses[k + 1] = pose

        if reached:
            pairs = pairs or upper_pairs(n)
            step_events = monitor_invariants(poses[k, :, :2], dist, pairs,
                                             monitored, region, cfg, k,
                                             k * cfg.time_step)
            events.extend(step_events)
            if strict and step_events:
                raise MonitorViolation(
                    "; ".join(f"{e.kind}: {e.detail}" for e in step_events))

        # the informed robot's goal distance screens the vector test, which
        # decides
        converged = (
            goal_distance < stop_bound
            and np.hypot(poses[k, :, 0] - goal_x,
                         poses[k, :, 1] - goal_y).max() < tolerance
            and np.abs(ctrl[k, :, 3]).max() < cfg.heading_tolerance)
        k += 1
        if converged or k > max_steps:
            break

    # bit for bit each step's t = k * time_step
    log = TrajectoryLog(
        times=np.arange(k) * cfg.time_step, poses=poses[:k],
        controls=ctrl[:k], phi=phi[:k], monitored=monitored, events=events,
        switch_step=switch_step,
        goal_position=cfg.goal_position.copy(), goal_heading=cfg.goal_heading,
        time_step=cfg.time_step, sensing_radius=cfg.sensing_radius,
        wall_time=_time.perf_counter() - started)
    return log


def fit_decay_rate(times: np.ndarray, values: np.ndarray) -> float | None:
    """Least-squares exponential decay rate of |values| over time: minus
    the slope of log |values| against time, in closed form over both
    centred.

    None when fewer than two samples exceed ``DECAY_FLOOR`` or |values|
    does not decay.
    """
    mag = np.abs(values)
    keep = mag > DECAY_FLOOR
    if keep.sum() < 2:
        return None
    t = times[keep]
    t = t - t.mean()
    y = np.log(mag[keep])
    y -= y.mean()
    rate = -float(np.sum(t * y) / np.sum(t * t))
    return rate if rate > 0.0 else None


# cfg is not read, kept because rendezbench/run.py passes it
def compute_metrics(log: TrajectoryLog, cfg: ScenarioConfig | None = None) -> Metrics:
    """Summary quantities, derived from the log alone."""
    errs = np.hypot(*(log.poses[-1, :, :2] - log.goal_position).T)
    head = np.abs(log.controls[-1, :, 3])
    # how far each robot ends from facing the goal heading, on the circle
    off = log.poses[-1, :, 2] - log.goal_heading
    orientation = np.abs(np.remainder(off + np.pi, TWO_PI) - np.pi)

    # the switch latches, so the collision-free steps are the ones before
    # switch_step. Both bounds are taken a block at a time, and np.minimum
    # and np.maximum carry a NaN through as min and max do
    free = log.n_steps if log.switch_step is None else log.switch_step
    min_cf = max_mon = None
    if (free and len(log.monitored)) or log.monitored.any():
        low, high = np.inf, np.full(len(log.monitored), -np.inf)
        for k0, block in log.distance_blocks():
            if k0 < free:
                low = np.minimum(low, block[:free - k0].min())
            np.maximum(high, block.max(axis=0), out=high)
        if free:
            min_cf = float(low)
        if log.monitored.any():
            max_mon = float(high[log.monitored].max())

    switch_time = (float(log.times[log.switch_step])
                   if log.switch_step is not None
                   and log.switch_step < log.n_steps else None)

    # fit the informed robot's leading steps, before its heading error first
    # reaches the noise floor; after that it is noise, not decay
    tilde = log.controls[:, 0, 3]
    quiet = np.flatnonzero(np.abs(tilde) <= HEADING_NOISE_FLOOR)
    end = quiet[0] if quiet.size else log.n_steps
    rate = fit_decay_rate(log.times[:end], tilde[:end])

    return Metrics(final_position_errors=errs, final_heading_errors=head,
                   final_orientation_errors=orientation,
                   min_distance_collision_free=min_cf,
                   max_monitored_distance=max_mon, switch_time=switch_time,
                   heading_decay_rate=rate)

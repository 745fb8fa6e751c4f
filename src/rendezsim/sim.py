"""Fixed-step closed-loop simulation with runtime monitors and logging."""

import time as _time
from dataclasses import dataclass, field

import numpy as np

from .control import ControlOutput, control_laws
from .fields import region_of
from .gradients import JetKernel
from .graph import Topology, build_topology, has_rooted_spanning_tree
from .model import (RegionFlag, RobotState, ScenarioConfig, validate_scenario,
                    wrap_angles)
# not called here: rendezbench/tracing.py wraps these names
from .control import compute_control  # noqa: F401
from .model import normalize_angle  # noqa: F401


# |heading error| of the informed robot below which compute_metrics treats
# it as noise; far above the 9-decimal export precision, so metrics on an
# export fit the same window as metrics on the live log
HEADING_NOISE_FLOOR = 1e-4  # rad


class AssumptionError(RuntimeError):
    """The initial graph lacks a spanning tree rooted at the informed robot."""


class MonitorViolation(RuntimeError):
    """A runtime monitor fired while running in strict mode."""


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
    ``pairs`` fixes the column order of ``distances``; ``monitored`` marks the
    pairs connected in the initial graph, whose preservation is claimed.
    """

    times: np.ndarray        # (S,)
    poses: np.ndarray        # (S, N, 3): x, y, theta
    controls: np.ndarray     # (S, N, 5)
    phi: np.ndarray          # (S, N)
    region: np.ndarray       # (S,) int8: 0 collision-free, 1 rendezvous
    pairs: tuple             # P index pairs (i, j), i < j, 1-based
    distances: np.ndarray    # (S, P)
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


@dataclass
class Metrics:
    final_position_errors: np.ndarray
    final_heading_errors: np.ndarray
    min_distance_collision_free: float | None
    max_monitored_distance: float | None
    switch_time: float | None
    heading_decay_rate: float | None


def integrate_rows(dt: float, n: int):
    """The constant operands of ``_integrate_all`` over n robots: dt / 2,
    dt and pi, each as an (n,) row, so that no call takes a scalar."""
    return np.full(n, 0.5 * dt), np.full(n, dt), np.full(n, np.pi)


def _integrate_all(poses, vs, ws, dt, out=None):
    """Exact step: with v and omega held over dt each path is a circular arc.

    The chord is v*dt*sinc(omega*dt/2) long and points along the mid-step
    heading. The ratio sin(y)/y is np.sinc's own arithmetic, y = pi (h/pi)
    for the half turn h, done inline; plain sin(h)/h can differ from it in
    the last bit. Only a step where some y is 0 calls np.sinc, which is
    exactly 1 there (a straight line). ``dt`` is the time step, or
    ``integrate_rows(dt, N)``, its constant operands as rows. Writes the new
    (N, 3) poses into ``out`` when given.
    """
    half_dt, dt_row, pi = (dt if isinstance(dt, tuple)
                           else integrate_rows(dt, len(ws)))
    half = half_dt * ws
    x = half / pi
    y = pi * x
    if np.count_nonzero(y) == len(y):
        ratio = np.sin(y) / y
    else:
        ratio = np.sinc(x)
    chord = dt_row * vs * ratio
    theta = poses[:, 2]
    mid = theta + half
    if out is None:
        out = np.empty(poses.shape)
    np.add(poses[:, 0], chord * np.cos(mid), out=out[:, 0])
    np.add(poses[:, 1], chord * np.sin(mid), out=out[:, 1])
    wrap_angles(theta + dt_row * ws, out=out[:, 2], pi=pi)
    return out


def _pose_array(states: list[RobotState]) -> np.ndarray:
    return np.array([[s.position[0], s.position[1], s.heading]
                     for s in states])


def _offsets(poses: np.ndarray, upper: tuple):
    """Offsets p_a - p_b, (2, P), and distances, (P,), of the upper pairs
    ``upper = np.triu_indices(N, 1)``, the log's pair order."""
    a, b = upper
    xy = poses[:, :2].T
    offsets = xy.take(a, axis=1) - xy.take(b, axis=1)
    square = offsets * offsets
    return offsets, np.sqrt(square[0] + square[1])


class StepKernel:
    """One synchronous update of every robot from one (N, 3) pose snapshot.

    Built once per run, it holds every per-run constant: the field jets
    (gains, shifts and the followers' edge list, see ``JetKernel``), the gain
    arrays, and the gradient floor, dt / 2, dt and pi as rows. A call makes
    one jet pass over all rows, one ``control_laws`` call and one
    ``_integrate_all`` call. ``control_rows`` holds the last call's
    controls as rows (v, omega, theta_d, theta_tilde, theta_d_dot); its row
    ``theta_d`` is the heading held where a gradient is below the floor, so
    set it to the current headings before the first call.
    """

    def __init__(self, cfg: ScenarioConfig, mask: np.ndarray):
        n = len(mask)
        self.jets = JetKernel(cfg, mask)
        self.gains = (np.asarray(cfg.linear_gains, dtype=float),
                      np.asarray(cfg.angular_gains, dtype=float))
        self.gradient_floor = np.full(n, cfg.gradient_floor)
        self.rows = integrate_rows(cfg.time_step, n)
        self.pi = self.rows[2]
        self.control_rows = np.empty((5, n))
        self.control_out = tuple(self.control_rows)
        self.by_robot = self.control_rows.T
        self.theta_d = self.control_rows[2]

    def __call__(self, poses, leader, offsets, dist, region, controls,
                 new_poses):
        """Write the (N, 5) controls (v, omega, theta_d, theta_tilde,
        theta_d_dot) and the new poses; return phi and the gradient norms.

        ``leader`` is the informed robot's (x, y) as floats, ``offsets`` and
        ``dist`` are the upper pairs' (see ``_offsets``)."""
        phi, grad, hess = self.jets(leader, offsets, dist, region)
        v, omega, *_, grad_norm = control_laws(
            grad, hess, poses[:, 2], self.theta_d, *self.gains,
            self.gradient_floor, self.control_out, self.pi)
        controls[...] = self.by_robot
        _integrate_all(poses, v, omega, self.rows, new_poses)
        if np.count_nonzero(np.isfinite(new_poses)) < new_poses.size:
            raise RuntimeError(
                f"non-finite state after integration:\n{new_poses}")
        return phi, grad_norm


# scalar reference, kept in src/ because rendezbench/tracing.py wraps it
def step(states: list[RobotState], region: RegionFlag, cfg: ScenarioConfig,
         topo: Topology | None = None,
         prev_theta_d: list | None = None):
    """One synchronous update: controls from the snapshot, then integration.

    An adapter from states to the step kernel that ``run`` drives; the first
    state is the informed robot. Robot i's controls read only the robots it
    senses, so moving any other robot leaves them unchanged bit for bit.
    Returns (new states, controls in id order, new region); the region is
    re-latched from the new leader position.
    """
    if topo is None:
        topo = build_topology(states, cfg.sensing_radius)
    poses = _pose_array(states)
    kernel = StepKernel(cfg, topo.adjacency)
    kernel.theta_d[...] = poses[:, 2]
    for i, prev in enumerate(prev_theta_d or ()):
        if prev is not None:
            kernel.theta_d[i] = prev
    ctrl = np.empty((len(states), 5))
    new = np.empty(poses.shape)
    phi, grad_norm = kernel(
        poses, poses[0, :2].tolist(),
        *_offsets(poses, np.triu_indices(len(poses), 1)), region, ctrl, new)
    controls = [ControlOutput(*row, p, g) for row, p, g in
                zip(ctrl.tolist(), phi.tolist(), grad_norm.tolist())]
    new_states = [s.with_pose(new[i, :2], new[i, 2])
                  for i, s in enumerate(states)]
    new_region = region_of(new[0, :2], cfg, previous=region)
    return new_states, controls, new_region


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
    norms = np.hypot(positions[:, 0], positions[:, 1])
    rim = cfg.workspace_radius - norms
    for r in np.flatnonzero(rim <= 0.0):
        events.append(Event(step_index, t, "boundary",
                            f"robot {r + 1} outside the workspace"))
    if norms[0] > cfg.leader_band and np.any(rim[1:] < cfg.sensing_radius):
        events.append(Event(step_index, t, "leader_range",
                            "informed robot beyond the follower-safe band"))
    return events


def initial_topology(cfg: ScenarioConfig) -> Topology:
    """Sensing graph of the initial poses.

    Raises AssumptionError unless it has a spanning tree rooted at the
    informed robot, which every claim of the closed loop assumes.
    """
    topo = build_topology(cfg.initial_states, cfg.sensing_radius)
    if not has_rooted_spanning_tree(topo, root=1):
        raise AssumptionError(
            "initial graph has no spanning tree rooted at the informed robot")
    return topo


def _pair_list(n: int) -> tuple:
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def _accrete_edges(mask: np.ndarray, dist: np.ndarray, upper: tuple,
                   threshold: float) -> bool:
    """Add mutual edges, in place, for pairs closer than the threshold.

    ``dist`` holds the distances of the upper pairs ``upper``. Returns
    whether the mask grew.
    """
    near = dist < threshold
    a, b = upper[0][near], upper[1][near]
    grew = not (mask[a, b].all() and mask[b, a].all())
    mask[a, b] = mask[b, a] = True
    return grew


def _monitor_bounds(cfg: ScenarioConfig, monitored: np.ndarray):
    """Bounds that the step's pair distances, then robot norms, must reach
    before ``monitor_invariants`` can emit anything: (high, low).

    A value at or above its high bound or, while avoidance is active, at or
    below its low bound can fire a monitor: a monitored edge at the sensing
    radius, a pair at the collision floor, a robot at the workspace rim.
    The informed robot's high bound is also the leader band, which is
    necessary for ``leader_range`` though not sufficient.
    """
    n = cfg.n_robots
    high = np.concatenate((np.where(monitored, cfg.sensing_radius, np.inf),
                           [min(cfg.workspace_radius, cfg.leader_band)],
                           np.full(n - 1, cfg.workspace_radius)))
    low = np.concatenate((np.full(len(monitored), cfg.collision_floor),
                          np.full(n, -np.inf)))
    return high, low


def run(cfg: ScenarioConfig, strict: bool = False) -> TrajectoryLog:
    """Simulate the whole scenario; stop early once every robot converged.

    Each step advances one (N, 3) pose array: one vector of upper-pair
    offsets and distances feeds the neighbor mask's accretion, the log, the
    monitors and one ``StepKernel`` call, built once per run, which makes
    the controls and the next poses from the followers' edge list.
    ``monitor_invariants`` runs only on a step where some watched value
    reaches its bound (``_monitor_bounds``), so it emits the same events as
    on every step. Raises AssumptionError when the initial graph
    has no spanning tree rooted at the informed robot. Monitor violations
    are recorded as events and, in strict mode, abort the run by raising
    MonitorViolation.
    """
    started = _time.perf_counter()
    validate_scenario(cfg)
    n = cfg.n_robots
    goal_x, goal_y = cfg.goal_position.tolist()
    accreting = cfg.neighbor_mode == "accreting"
    threshold = cfg.sensing_radius - cfg.connectivity_buffer

    # the mask stays frozen unless accretion grows it; the initial graph
    # already holds every pair inside the threshold
    mask = initial_topology(cfg).adjacency
    kernel = StepKernel(cfg, mask)
    pairs = _pair_list(n)
    upper = np.triu_indices(n, 1)
    monitored = mask[upper]
    n_pairs = len(pairs)
    high, low = _monitor_bounds(cfg, monitored)
    # while avoiding, one comparison screens both bounds: the watched values
    # and their negations against the high bounds and the negated low ones,
    # as -x >= -low exactly when x <= low
    screened = np.empty((2, n_pairs + n))
    watched, negated = screened
    bounds = np.array([high, -low])

    max_steps = int(round(cfg.horizon / cfg.time_step))
    S = max_steps + 1
    times = np.empty(S)
    poses = np.empty((S + 1, n, 3))  # row k + 1 receives step k's update
    ctrl = np.empty((S, n, 5))
    phi = np.empty((S, n))
    regions = np.empty(S, dtype=np.int8)
    dists = np.empty((S, n_pairs))

    events: list[Event] = []
    switch_step = None
    poses[0] = _pose_array(cfg.initial_states)
    # the informed robot's position as floats, read once a step for the
    # region switch, the kernel and the stop screen
    leader = (float(poses[0, 0, 0]), float(poses[0, 0, 1]))
    region = region_of(leader, cfg)
    if region is RegionFlag.RENDEZVOUS:
        switch_step = 0
        events.append(Event(0, 0.0, "switch",
                            "collision avoidance off from the start"))
    # no desired heading yet: hold the current one
    kernel.theta_d[...] = poses[0, :, 2]
    watched_dist, watched_norms = watched[:n_pairs], watched[n_pairs:]

    k = 0
    while True:
        t = k * cfg.time_step
        pose = poses[k]
        if k:
            leader = (float(pose[0, 0]), float(pose[0, 1]))
            new_region = region_of(leader, cfg, previous=region)
            if new_region is not region:
                switch_step = k
                events.append(Event(k, t, "switch", "informed robot reached "
                                    "the switch distance"))
            region = new_region
        offsets, dist = _offsets(pose, upper)
        if accreting and _accrete_edges(mask, dist, upper, threshold):
            kernel.jets.set_mask(mask)
        phi[k], _ = kernel(pose, leader, offsets, dist, region, ctrl[k],
                           poses[k + 1])

        avoiding = region is RegionFlag.COLLISION_FREE
        times[k] = t
        regions[k] = 0 if avoiding else 1
        dists[k] = watched_dist[...] = dist
        np.hypot(pose[:, 0], pose[:, 1], out=watched_norms)
        if avoiding:
            np.negative(watched, out=negated)
            reached = np.count_nonzero(screened >= bounds)
        else:
            reached = np.count_nonzero(watched >= high)
        if reached:
            step_events = monitor_invariants(pose[:, :2], dists[k], pairs,
                                             monitored, region, cfg, k, t)
            events.extend(step_events)
            if strict and step_events:
                raise MonitorViolation(
                    "; ".join(f"{e.kind}: {e.detail}" for e in step_events))

        # the informed robot's goal distance, the same ufunc on the same
        # operands as its entry of the vector test, screens that test
        converged = (
            np.hypot(leader[0] - goal_x, leader[1] - goal_y)
            < cfg.position_tolerance
            and np.hypot(pose[:, 0] - goal_x, pose[:, 1] - goal_y).max()
            < cfg.position_tolerance
            and np.abs(ctrl[k, :, 3]).max() < cfg.heading_tolerance)
        k += 1
        if converged or k > max_steps:
            break

    log = TrajectoryLog(
        times=times[:k], poses=poses[:k], controls=ctrl[:k], phi=phi[:k],
        region=regions[:k], pairs=pairs, distances=dists[:k],
        monitored=monitored, events=events, switch_step=switch_step,
        goal_position=cfg.goal_position.copy(), goal_heading=cfg.goal_heading,
        time_step=cfg.time_step, sensing_radius=cfg.sensing_radius,
        wall_time=_time.perf_counter() - started)
    return log


def fit_decay_rate(times: np.ndarray, values: np.ndarray,
                   floor: float = 1e-12) -> float | None:
    """Least-squares exponential decay rate of |values| over time.

    None when fewer than two samples exceed the floor or |values| does not
    decay.
    """
    mag = np.abs(values)
    keep = mag > floor
    if keep.sum() < 2:
        return None
    rate = -float(np.polyfit(times[keep], np.log(mag[keep]), 1)[0])
    return rate if rate > 0.0 else None


def compute_metrics(log: TrajectoryLog, cfg: ScenarioConfig | None = None) -> Metrics:
    """Summary quantities, derived from the log alone."""
    errs = np.hypot(*(log.poses[-1, :, :2] - log.goal_position).T)
    head = np.abs(log.controls[-1, :, 3])

    cf = log.region == 0
    min_cf = float(log.distances[cf].min()) if cf.any() and log.distances.shape[1] else None
    if log.monitored.any():
        max_mon = float(log.distances[:, log.monitored].max())
    else:
        max_mon = None

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
                   min_distance_collision_free=min_cf,
                   max_monitored_distance=max_mon, switch_time=switch_time,
                   heading_decay_rate=rate)

"""Fixed-step closed-loop simulation with runtime monitors and logging."""

import time as _time
from dataclasses import dataclass, field

import numpy as np

from .control import ControlOutput, control_laws
from .fields import FieldParams, region_of
from .gradients import follower_jets, leader_field_eval
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
    roles: tuple = ()
    wall_time: float = 0.0

    @property
    def n_steps(self) -> int:
        return len(self.times)

    @property
    def n_robots(self) -> int:
        return self.poses.shape[1]

    def edge_margins(self) -> np.ndarray:
        """Sensing radius minus distance for every monitored pair, per step."""
        return self.sensing_radius - self.distances[:, self.monitored]


@dataclass
class Metrics:
    final_position_errors: np.ndarray
    final_heading_errors: np.ndarray
    min_distance_collision_free: float | None
    max_monitored_distance: float | None
    switch_time: float | None
    heading_decay_rate: float | None


def integrate_pose(pose: np.ndarray, v: float, omega: float,
                   dt: float) -> np.ndarray:
    """Advance one unicycle pose with the controls held constant over dt."""
    out = _integrate_all(np.asarray(pose, dtype=float).reshape(1, 3),
                         np.array([v]), np.array([omega]), dt)
    return out[0]


def _integrate_all(poses, vs, ws, dt):
    """Exact step: with v and omega held over dt each path is a circular arc.

    The chord is v*dt*sinc(omega*dt/2) long and points along the mid-step
    heading; np.sinc is exactly 1 at zero, so straight lines need no branch.
    """
    half = 0.5 * dt * ws
    chord = dt * vs * np.sinc(half / np.pi)
    mid = poses[:, 2] + half
    return np.stack([poses[:, 0] + chord * np.cos(mid),
                     poses[:, 1] + chord * np.sin(mid),
                     wrap_angles(poses[:, 2] + dt * ws)], axis=1)


def _pose_array(states: list[RobotState]) -> np.ndarray:
    return np.array([[s.position[0], s.position[1], s.heading]
                     for s in states])


def _gains(cfg: ScenarioConfig):
    return np.asarray(cfg.linear_gains), np.asarray(cfg.angular_gains)


def _offsets(poses: np.ndarray):
    """dx[i, j] = x_i - x_j, dy likewise, and the pairwise distance matrix."""
    dx = poses[:, 0, None] - poses[:, 0]
    dy = poses[:, 1, None] - poses[:, 1]
    return dx, dy, np.sqrt(dx * dx + dy * dy)


def _advance(poses, offsets, mask, region, fallback, gains, cfg, params):
    """One synchronous update of every robot from one (N, 3) pose snapshot.

    Every robot is one row of one pass: row 0, the informed robot, takes its
    potential's value and derivatives from the dipolar jet, the followers
    from ``follower_jets`` (follower i reads only mask row i), and one
    ``control_laws`` call applies the laws to all rows. ``fallback`` holds
    each robot's previous desired heading, or its current heading when
    there is none; ``gains`` is (k_v, k_w) over the rows. Returns the new
    poses, the (N, 5) controls (v, omega, theta_d, theta_tilde,
    theta_d_dot), phi and the gradient norms.
    """
    n = len(poses)
    phi = np.empty(n)
    grad = np.empty((2, n))
    hess = np.empty((3, n))
    lead = leader_field_eval(poses[0, :2], params)
    phi[0] = lead.value
    grad[:, 0] = lead.gradient
    hess[:, 0] = lead.hessian[(0, 0, 1), (0, 1, 1)]  # xx, xy, yy
    if n > 1:
        dx, dy, dist = (a[1:] for a in offsets)
        phi[1:], grad[:, 1:], hess[:, 1:] = follower_jets(
            dx, dy, dist, mask[1:], region, params, cfg.gradient_mode)
    *laws, grad_norm = control_laws(grad, hess, poses[:, 2], fallback,
                                    *gains, cfg.gradient_floor)
    ctrl = np.column_stack(laws)
    new = _integrate_all(poses, ctrl[:, 0], ctrl[:, 1], cfg.time_step)
    if not np.all(np.isfinite(new)):
        raise RuntimeError(f"non-finite state after integration:\n{new}")
    return new, ctrl, phi, grad_norm


def step(states: list[RobotState], region: RegionFlag, cfg: ScenarioConfig,
         topo: Topology | None = None,
         prev_theta_d: list | None = None,
         params: FieldParams | None = None):
    """One synchronous update: controls from the snapshot, then integration.

    An adapter from states to the array core that ``run`` drives; the first
    state is the informed robot. Robot i's controls read only the robots it
    senses, so moving any other robot leaves them unchanged bit for bit.
    Returns (new states, controls in id order, new region); the region is
    re-latched from the new leader position.
    """
    if params is None:
        params = FieldParams.from_config(cfg)
    if topo is None:
        topo = build_topology(states, cfg.sensing_radius)
    poses = _pose_array(states)
    fallback = poses[:, 2].copy()
    for i, prev in enumerate(prev_theta_d or ()):
        if prev is not None:
            fallback[i] = prev
    new, ctrl, phi, grad_norm = _advance(
        poses, _offsets(poses), topo.adjacency, region, fallback,
        _gains(cfg), cfg, params)
    controls = [ControlOutput(*row, p, g) for row, p, g in
                zip(ctrl.tolist(), phi.tolist(), grad_norm.tolist())]
    new_states = [s.with_pose(new[i, :2], new[i, 2])
                  for i, s in enumerate(states)]
    new_region = region_of(new[0, :2], params, previous=region)
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
    leader_band = cfg.workspace_radius - cfg.sensing_radius * (cfg.n_robots - 1)
    if norms[0] > leader_band and np.any(rim[1:] < cfg.sensing_radius):
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


def _accrete_edges(mask: np.ndarray, dist: np.ndarray,
                   threshold: float) -> None:
    """Add mutual edges, in place, for pairs closer than the threshold."""
    near = dist < threshold
    np.fill_diagonal(near, False)
    mask |= near | near.T


def run(cfg: ScenarioConfig, strict: bool = False) -> TrajectoryLog:
    """Simulate the whole scenario; stop early once every robot converged.

    Each step advances one (N, 3) pose array: one distance matrix feeds the
    neighbor mask's accretion, the log and the monitors, and the controls
    come from ``_advance``. Raises AssumptionError when the initial graph
    has no spanning tree rooted at the informed robot. Monitor violations
    are recorded as events and, in strict mode, abort the run by raising
    MonitorViolation.
    """
    started = _time.perf_counter()
    validate_scenario(cfg)
    params = FieldParams.from_config(cfg)
    n = cfg.n_robots
    goal = cfg.goal_position
    accreting = cfg.neighbor_mode == "accreting"
    threshold = cfg.sensing_radius - cfg.connectivity_buffer

    # the mask stays frozen unless accretion grows it; the initial graph
    # already holds every pair inside the threshold
    mask = initial_topology(cfg).adjacency
    pairs = _pair_list(n)
    upper = np.triu_indices(n, 1)
    monitored = mask[upper]

    max_steps = int(round(cfg.horizon / cfg.time_step))
    S = max_steps + 1
    times = np.empty(S)
    poses = np.empty((S, n, 3))
    ctrl = np.empty((S, n, 5))
    phi = np.empty((S, n))
    regions = np.empty(S, dtype=np.int8)
    dists = np.empty((S, len(pairs)))

    events: list[Event] = []
    switch_step = None
    pose = _pose_array(cfg.initial_states)
    region = region_of(pose[0, :2], params)
    if region is RegionFlag.RENDEZVOUS:
        switch_step = 0
        events.append(Event(0, 0.0, "switch",
                            "collision avoidance off from the start"))
    gains = _gains(cfg)
    fallback = pose[:, 2]  # no desired heading yet: hold the current one

    k = 0
    while True:
        t = k * cfg.time_step
        offsets = _offsets(pose)
        if accreting:
            _accrete_edges(mask, offsets[2], threshold)
        new_pose, controls, phi[k], _ = _advance(
            pose, offsets, mask, region, fallback, gains, cfg, params)

        times[k] = t
        regions[k] = 0 if region is RegionFlag.COLLISION_FREE else 1
        poses[k] = pose
        ctrl[k] = controls
        dists[k] = offsets[2][upper]

        step_events = monitor_invariants(pose[:, :2], dists[k], pairs,
                                         monitored, region, cfg, k, t)
        events.extend(step_events)
        if strict and step_events:
            raise MonitorViolation(
                "; ".join(f"{e.kind}: {e.detail}" for e in step_events))

        goal_err = np.hypot(pose[:, 0] - goal[0], pose[:, 1] - goal[1]).max()
        head_err = np.abs(controls[:, 3]).max()
        converged = (goal_err < cfg.position_tolerance
                     and head_err < cfg.heading_tolerance)
        if converged or k >= max_steps:
            k += 1
            break

        fallback = controls[:, 2]
        pose = new_pose
        new_region = region_of(pose[0, :2], params, previous=region)
        if new_region is not region and switch_step is None:
            switch_step = k + 1
            events.append(Event(k + 1, (k + 1) * cfg.time_step, "switch",
                                "informed robot reached the switch distance"))
        region = new_region
        k += 1

    log = TrajectoryLog(
        times=times[:k], poses=poses[:k], controls=ctrl[:k], phi=phi[:k],
        region=regions[:k], pairs=pairs, distances=dists[:k],
        monitored=monitored, events=events, switch_step=switch_step,
        goal_position=cfg.goal_position.copy(), goal_heading=cfg.goal_heading,
        time_step=cfg.time_step, sensing_radius=cfg.sensing_radius,
        roles=tuple(s.role.value for s in cfg.initial_states),
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

"""Fixed-step closed-loop simulation with runtime monitors and logging."""

import time as _time
from dataclasses import dataclass, field

import numpy as np

from .control import ControlOutput, compute_control
from .fields import FieldParams, region_of
from .graph import Topology, build_topology, has_rooted_spanning_tree
from .model import (RegionFlag, RobotState, Role, ScenarioConfig,
                    normalize_angle, validate_scenario)


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
    new = np.stack([poses[:, 0] + chord * np.cos(mid),
                    poses[:, 1] + chord * np.sin(mid),
                    poses[:, 2] + dt * ws], axis=1)
    for r in range(new.shape[0]):
        new[r, 2] = normalize_angle(new[r, 2])
    return new


def step(states: list[RobotState], region: RegionFlag, cfg: ScenarioConfig,
         topo: Topology | None = None,
         prev_theta_d: list | None = None,
         params: FieldParams | None = None,
         order: list | None = None):
    """One synchronous update: controls from the snapshot, then integration.

    All controls are computed from the pre-step states, so the result does
    not depend on the robot evaluation order (``order`` exists to let tests
    assert exactly that). Returns (new states, controls in id order, new
    region); the region is re-latched from the new leader position.
    """
    n = len(states)
    if params is None:
        params = FieldParams.from_config(cfg)
    if topo is None:
        topo = build_topology(states, cfg.sensing_radius)
    if prev_theta_d is None:
        prev_theta_d = [None] * n
    positions = {s.id: s.position for s in states}

    controls: list[ControlOutput | None] = [None] * n
    for idx in (order if order is not None else range(n)):
        robot = states[idx]
        neighbors = [positions[j] for j in topo.neighbors[robot.id]]
        controls[idx] = compute_control(
            robot, neighbors, region, params,
            k_v=cfg.linear_gains[idx], k_w=cfg.angular_gains[idx],
            prev_theta_d=prev_theta_d[idx],
            gradient_mode=cfg.gradient_mode,
            gradient_floor=cfg.gradient_floor,
            distance_floor=cfg.distance_floor)

    poses = np.array([[s.position[0], s.position[1], s.heading]
                      for s in states])
    vs = np.array([c.v for c in controls])
    ws = np.array([c.omega for c in controls])
    new_poses = _integrate_all(poses, vs, ws, cfg.time_step)
    if not np.all(np.isfinite(new_poses)):
        raise RuntimeError(f"non-finite state after integration:\n{new_poses}")

    new_states = [s.with_pose(new_poses[i, :2], new_poses[i, 2])
                  for i, s in enumerate(states)]
    new_region = region_of(new_states[0], params, previous=region)
    return new_states, controls, new_region


def monitor_invariants(states: list[RobotState], pair_distances: dict,
                       monitored_pairs: set, region: RegionFlag,
                       cfg: ScenarioConfig, step_index: int,
                       t: float) -> list[Event]:
    """Check one logged step against the claimed safety properties.

    Emits events for a monitored edge at or beyond sensing range, a pair at
    or below the collision floor while avoidance is active, a robot outside
    the workspace, and the informed robot leaving the band that keeps every
    follower clear of the workspace rim while some follower is near it.
    """
    events = []
    for (i, j), d in pair_distances.items():
        if (i, j) in monitored_pairs and d >= cfg.sensing_radius:
            events.append(Event(step_index, t, "connectivity",
                                f"edge ({i},{j}) at d={d:.6f}"))
        if region is RegionFlag.COLLISION_FREE and d <= cfg.collision_floor:
            events.append(Event(step_index, t, "collision",
                                f"pair ({i},{j}) at d={d:.6f}"))
    rim = {s.id: cfg.workspace_radius - float(np.linalg.norm(s.position))
           for s in states}
    for s in states:
        if rim[s.id] <= 0.0:
            events.append(Event(step_index, t, "boundary",
                                f"robot {s.id} outside the workspace"))
    leader = states[0]
    leader_band = cfg.workspace_radius - cfg.sensing_radius * (cfg.n_robots - 1)
    followers_near_rim = any(rim[s.id] < cfg.sensing_radius
                             for s in states if s.role is Role.FOLLOWER)
    if (float(np.linalg.norm(leader.position)) > leader_band
            and followers_near_rim):
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


def run(cfg: ScenarioConfig, strict: bool = False) -> TrajectoryLog:
    """Simulate the whole scenario; stop early once every robot converged.

    Raises AssumptionError when the initial graph has no spanning tree rooted
    at the informed robot. Monitor violations are recorded as events and, in
    strict mode, abort the run by raising MonitorViolation.
    """
    started = _time.perf_counter()
    validate_scenario(cfg)
    params = FieldParams.from_config(cfg)
    states = list(cfg.initial_states)
    n = cfg.n_robots

    # neighbor sets stay frozen unless accretion grows them in place
    topo = initial_topology(cfg)
    pairs = _pair_list(n)
    monitored_pairs = {(i, j) for i, j in pairs
                       if (i, j) in topo.distances}
    monitored_mask = np.array([p in monitored_pairs for p in pairs])

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
    region = region_of(states[0], params)
    if region is RegionFlag.RENDEZVOUS:
        switch_step = 0
        events.append(Event(0, 0.0, "switch",
                            "collision avoidance off from the start"))
    prev_theta_d: list = [None] * n

    k = 0
    while True:
        t = k * cfg.time_step
        new_states, controls, new_region = step(
            states, region, cfg, topo, prev_theta_d, params)

        times[k] = t
        regions[k] = 0 if region is RegionFlag.COLLISION_FREE else 1
        for i, s in enumerate(states):
            poses[k, i] = (s.position[0], s.position[1], s.heading)
            c = controls[i]
            ctrl[k, i] = (c.v, c.omega, c.theta_d, c.theta_tilde, c.theta_d_dot)
            phi[k, i] = c.phi
        pair_d = {}
        for col, (i, j) in enumerate(pairs):
            d = float(np.linalg.norm(states[i - 1].position
                                     - states[j - 1].position))
            dists[k, col] = d
            pair_d[(i, j)] = d

        step_events = monitor_invariants(states, pair_d, monitored_pairs,
                                         region, cfg, k, t)
        events.extend(step_events)
        if strict and step_events:
            raise MonitorViolation(
                "; ".join(f"{e.kind}: {e.detail}" for e in step_events))

        goal_err = max(float(np.linalg.norm(s.position - cfg.goal_position))
                       for s in states)
        head_err = max(abs(ctrl[k, i, 3]) for i in range(n))
        converged = (goal_err < cfg.position_tolerance
                     and head_err < cfg.heading_tolerance)
        if converged or k >= max_steps:
            k += 1
            break

        prev_theta_d = [c.theta_d for c in controls]
        states = new_states
        if new_region is not region and switch_step is None:
            switch_step = k + 1
            events.append(Event(k + 1, (k + 1) * cfg.time_step, "switch",
                                "informed robot reached the switch distance"))
        region = new_region
        if cfg.neighbor_mode == "accreting":
            _accrete_edges(topo.neighbors, states, cfg)
        k += 1

    log = TrajectoryLog(
        times=times[:k], poses=poses[:k], controls=ctrl[:k], phi=phi[:k],
        region=regions[:k], pairs=pairs, distances=dists[:k],
        monitored=monitored_mask, events=events, switch_step=switch_step,
        goal_position=cfg.goal_position.copy(), goal_heading=cfg.goal_heading,
        time_step=cfg.time_step, sensing_radius=cfg.sensing_radius,
        roles=tuple(s.role.value for s in cfg.initial_states),
        wall_time=_time.perf_counter() - started)
    return log


def _accrete_edges(neighbors: dict, states: list[RobotState],
                   cfg: ScenarioConfig) -> None:
    """Add new mutual edges once a pair comes well inside sensing range."""
    threshold = cfg.sensing_radius - cfg.connectivity_buffer
    for a in states:
        for b in states:
            if b.id <= a.id or b.id in neighbors[a.id]:
                continue
            d = float(np.linalg.norm(a.position - b.position))
            if d < threshold:
                neighbors[a.id] = neighbors[a.id] + (b.id,)
                neighbors[b.id] = neighbors[b.id] + (a.id,)


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
    last = log.n_steps - 1
    errs = np.array([
        float(np.linalg.norm(log.poses[last, i, :2] - log.goal_position))
        for i in range(log.n_robots)])
    head = np.abs(log.controls[last, :, 3])

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

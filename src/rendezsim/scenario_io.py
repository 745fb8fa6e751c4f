"""Scenario files, trajectory/distance exports, and plot-script emission.

Scenario files are flat ``key = value`` text with one optional nested block::

    # units: meters, radians, seconds
    format_version = 1
    n_robots = 6
    ...
    [deployment]
    mode = seeded
    seed = 11
    center = -5.0 -3.0
    spread = 2.2
    min_separation = 0.6

``#`` starts a comment, blank lines are ignored, unknown keys are rejected.
An explicit deployment lists ``pose_<id> = x y theta`` lines instead of the
seed block. Exports are comma-separated text with a fixed header and fixed
9-decimal precision, plus ``# key = value`` metadata comment lines.
"""

import math
import os

import numpy as np

from .graph import build_topology, has_rooted_spanning_tree
from .model import (RobotState, Role, ScenarioConfig, ScenarioError,
                    validate_scenario)
from .sim import AssumptionError, TrajectoryLog

FORMAT_VERSION = 1

# name -> (kind, required); kinds: int, float, vec2, floats, str
_CONFIG_KEYS = {
    "n_robots": ("int", True),
    "workspace_radius": ("float", True),
    "sensing_radius": ("float", True),
    "rendezvous_radius": ("float", True),
    "collision_margin": ("float", True),
    "connectivity_buffer": ("float", True),
    "sigmoid_eps": ("float", True),
    "dipolar_eps": ("float", False),  # defaults to 0.01 when omitted
    "field_exponent": ("float", True),
    "linear_gains": ("floats", True),
    "angular_gains": ("floats", True),
    "goal_position": ("vec2", True),
    "goal_heading": ("float", True),
    "time_step": ("float", True),
    "horizon": ("float", True),
    "gradient_floor": ("float", False),
    "distance_floor": ("float", False),
    "hessian_step": ("float", False),
    "gradient_mode": ("str", False),
    "neighbor_mode": ("str", False),
    "position_tolerance": ("float", False),
    "heading_tolerance": ("float", False),
    "collision_floor": ("float", False),
}

_DEPLOY_KEYS = {"mode", "seed", "center", "spread", "min_separation"}


class ParseError(ScenarioError):
    """Scenario text could not be parsed; message carries file and line."""


def _convert(kind, raw, path, lineno):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "vec2":
            parts = [float(x) for x in raw.split()]
            if len(parts) != 2:
                raise ValueError("expected two numbers")
            return np.array(parts)
        if kind == "floats":
            return [float(x) for x in raw.split()]
        return raw
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: bad value {raw!r} ({exc})") from None


def _read_sections(path):
    """Split the file into (main, deployment) key -> (value, lineno) maps."""
    main: dict = {}
    deploy: dict = {}
    section = main
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if text == "[deployment]":
                section = deploy
                continue
            if text.startswith("["):
                raise ParseError(f"{path}:{lineno}: unknown section {text}")
            if "=" not in text:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key in section:
                raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
            section[key] = (raw, lineno)
    return main, deploy


def seeded_deployment(seed: int, count: int, center: np.ndarray, spread: float,
                      min_separation: float, sensing_radius: float,
                      workspace_radius: float,
                      max_attempts: int = 1000) -> list[RobotState]:
    """Draw poses in a disk until the initial-graph assumption holds.

    Robot 1 is the informed one. Each attempt draws ``count`` positions
    uniformly in the disk and uniform headings; an attempt is accepted when
    all robots are inside the workspace, pairwise separations respect
    ``min_separation``, and the sensing graph has a spanning tree rooted at
    robot 1. The accepted attempt is a pure function of the seed.
    """
    rng = np.random.default_rng(seed)
    center = np.asarray(center, dtype=float)
    for _ in range(max_attempts):
        radii = spread * np.sqrt(rng.uniform(0.0, 1.0, count))
        angles = rng.uniform(-math.pi, math.pi, count)
        headings = rng.uniform(-math.pi, math.pi, count)
        pts = center + np.stack([radii * np.cos(angles),
                                 radii * np.sin(angles)], axis=1)
        if np.any(np.linalg.norm(pts, axis=1) >= workspace_radius):
            continue
        ok = True
        for i in range(count):
            for j in range(i + 1, count):
                if float(np.linalg.norm(pts[i] - pts[j])) < min_separation:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        states = [RobotState(i + 1, pts[i], float(headings[i]),
                             Role.INFORMED if i == 0 else Role.FOLLOWER)
                  for i in range(count)]
        topo = build_topology(states, sensing_radius)
        if has_rooted_spanning_tree(topo, root=1):
            return states
    raise AssumptionError(
        f"seeded deployment: no connected draw in {max_attempts} attempts")


def parse_scenario(path: str) -> ScenarioConfig:
    """Parse and validate a scenario file, expanding its deployment block."""
    main, deploy = _read_sections(path)

    for key in main:
        if key not in _CONFIG_KEYS and key != "format_version":
            raise ParseError(f"{path}:{main[key][1]}: unknown key {key!r}")
    if "format_version" not in main:
        raise ParseError(f"{path}: missing required key 'format_version'")
    version = _convert("int", *_locate(main, "format_version", path))
    if version != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format_version {version}")

    values = {}
    for key, (kind, required) in _CONFIG_KEYS.items():
        if key in main:
            values[key] = _convert(kind, *_locate(main, key, path))
        elif required:
            raise ParseError(f"{path}: missing required key {key!r}")
    values.setdefault("dipolar_eps", 0.01)

    if not deploy:
        raise ParseError(f"{path}: missing [deployment] block")
    mode_raw = deploy.get("mode")
    if mode_raw is None:
        raise ParseError(f"{path}: missing deployment key 'mode'")
    mode = mode_raw[0]
    n = values["n_robots"]

    if mode == "explicit":
        states = []
        for i in range(1, n + 1):
            key = f"pose_{i}"
            if key not in deploy:
                raise ParseError(f"{path}: missing deployment key {key!r}")
            raw, lineno = deploy[key]
            parts = _convert("floats", raw, path, lineno)
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: pose needs 'x y theta'")
            states.append(RobotState(i, np.array(parts[:2]), parts[2],
                                     Role.INFORMED if i == 1 else Role.FOLLOWER))
        extra = set(deploy) - {"mode"} - {f"pose_{i}" for i in range(1, n + 1)}
        if extra:
            key = sorted(extra)[0]
            raise ParseError(
                f"{path}:{deploy[key][1]}: unknown deployment key {key!r}")
    elif mode == "seeded":
        extra = set(deploy) - _DEPLOY_KEYS
        if extra:
            key = sorted(extra)[0]
            raise ParseError(
                f"{path}:{deploy[key][1]}: unknown deployment key {key!r}")
        for key in ("seed", "center", "spread", "min_separation"):
            if key not in deploy:
                raise ParseError(f"{path}: missing deployment key {key!r}")
        states = seeded_deployment(
            seed=_convert("int", *_locate(deploy, "seed", path)),
            count=n,
            center=_convert("vec2", *_locate(deploy, "center", path)),
            spread=_convert("float", *_locate(deploy, "spread", path)),
            min_separation=_convert("float",
                                    *_locate(deploy, "min_separation", path)),
            sensing_radius=values["sensing_radius"],
            workspace_radius=values["workspace_radius"])
    else:
        raise ParseError(f"{path}: deployment mode must be "
                         f"'seeded' or 'explicit', got {mode!r}")

    cfg = ScenarioConfig(initial_states=states, **values)
    return validate_scenario(cfg)


def _locate(section, key, path):
    raw, lineno = section[key]
    return raw, path, lineno


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, np.ndarray):
        return " ".join(repr(float(x)) for x in value)
    if isinstance(value, list):
        return " ".join(repr(float(x)) for x in value)
    return str(value)


def write_scenario(cfg: ScenarioConfig, path: str) -> None:
    """Write a config back as scenario text with an explicit deployment.

    Floats are written with full round-trip precision, so
    parse(write(cfg)) reproduces cfg field for field.
    """
    lines = [f"format_version = {FORMAT_VERSION}"]
    for key in _CONFIG_KEYS:
        lines.append(f"{key} = {_fmt(getattr(cfg, key))}")
    lines.append("")
    lines.append("[deployment]")
    lines.append("mode = explicit")
    for s in cfg.initial_states:
        lines.append(f"pose_{s.id} = {_fmt(s.position)} {repr(s.heading)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


TRAJECTORY_FILE = "trajectory.csv"
DISTANCES_FILE = "distances.csv"

_TRAJ_HEADER = "t,id,x,y,theta,v,omega,theta_d,theta_tilde,theta_d_dot,phi,region"
_DIST_HEADER = "t,i,j,d,monitored"


def _meta_lines(log: TrajectoryLog) -> list[str]:
    return [
        f"# format_version = {FORMAT_VERSION}",
        f"# n_robots = {log.n_robots}",
        f"# goal_position = {float(log.goal_position[0]):.9f} "
        f"{float(log.goal_position[1]):.9f}",
        f"# goal_heading = {log.goal_heading:.9f}",
        f"# time_step = {log.time_step:.9f}",
        f"# sensing_radius = {log.sensing_radius:.9f}",
        f"# roles = {' '.join(log.roles)}",
    ]


def export_trajectory(log: TrajectoryLog, out_dir: str) -> tuple[str, str]:
    """Write trajectory and pair-distance files; returns their paths.

    One trajectory row per (step, robot) and one distance row per
    (step, pair). All numbers use fixed 9-decimal precision so repeated runs
    diff cleanly.
    """
    if log.n_steps == 0:
        raise ValueError("cannot export an empty log")
    os.makedirs(out_dir, exist_ok=True)
    traj_path = os.path.join(out_dir, TRAJECTORY_FILE)
    dist_path = os.path.join(out_dir, DISTANCES_FILE)

    meta = _meta_lines(log)
    rows = [*meta, _TRAJ_HEADER]
    for k in range(log.n_steps):
        t = log.times[k]
        reg = int(log.region[k])
        for i in range(log.n_robots):
            x, y, th = log.poses[k, i]
            v, om, td, tt, tdd = log.controls[k, i]
            rows.append(
                f"{t:.9f},{i + 1},{x:.9f},{y:.9f},{th:.9f},{v:.9f},{om:.9f},"
                f"{td:.9f},{tt:.9f},{tdd:.9f},{log.phi[k, i]:.9f},{reg}")
    with open(traj_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")

    rows = [*meta, _DIST_HEADER]
    for k in range(log.n_steps):
        t = log.times[k]
        for col, (i, j) in enumerate(log.pairs):
            rows.append(f"{t:.9f},{i},{j},{log.distances[k, col]:.9f},"
                        f"{int(log.monitored[col])}")
    with open(dist_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    return traj_path, dist_path


def load_trajectory(log_dir: str) -> TrajectoryLog:
    """Rebuild a TrajectoryLog from exported files (events are not exported)."""
    traj_path = os.path.join(log_dir, TRAJECTORY_FILE)
    dist_path = os.path.join(log_dir, DISTANCES_FILE)
    meta = {}
    with open(traj_path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, raw = line[1:].partition("=")
            meta[key.strip()] = raw.strip()
    n = int(meta["n_robots"])

    data = np.genfromtxt(traj_path, delimiter=",", comments="#",
                         skip_header=len(meta) + 1)
    data = data.reshape(-1, n, 12)
    times = data[:, 0, 0]
    poses = data[:, :, 2:5]
    controls = data[:, :, 5:10]
    phi = data[:, :, 10]
    region = data[:, 0, 11].astype(np.int8)

    ddata = np.genfromtxt(dist_path, delimiter=",", comments="#",
                          skip_header=len(meta) + 1)
    ddata = np.atleast_2d(ddata)
    n_pairs = n * (n - 1) // 2
    if n_pairs:
        ddata = ddata.reshape(len(times), n_pairs, 5)
        pairs = tuple((int(i), int(j)) for i, j in ddata[0, :, 1:3])
        distances = ddata[:, :, 3]
        monitored = ddata[0, :, 4].astype(bool)
    else:
        pairs = ()
        distances = np.zeros((len(times), 0))
        monitored = np.zeros(0, dtype=bool)

    switch = np.flatnonzero(region == 1)
    switch_step = int(switch[0]) if switch.size else None
    goal = np.array([float(x) for x in meta["goal_position"].split()])
    return TrajectoryLog(
        times=times, poses=poses, controls=controls, phi=phi, region=region,
        pairs=pairs, distances=distances, monitored=monitored,
        events=[], switch_step=switch_step, goal_position=goal,
        goal_heading=float(meta["goal_heading"]),
        time_step=float(meta["time_step"]),
        sensing_radius=float(meta["sensing_radius"]),
        roles=tuple(meta.get("roles", "").split()))


_PLOT_SCRIPT = '''\
"""Plots for one exported run: trajectories, distances, heading decay.

Run from the directory holding {traj} and {dist}; writes PNGs next to them.
"""
import numpy as np
import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

TRAJ = {traj!r}
DIST = {dist!r}

rows = np.genfromtxt(TRAJ, delimiter=",", comments="#", skip_header=8)
n = int(rows[:, 1].max())
rows = rows.reshape(-1, n, 12)
t = rows[:, 0, 0]

fig, ax = plt.subplots(figsize=(7, 7))
for i in range(n):
    x, y, th = rows[:, i, 2], rows[:, i, 3], rows[:, i, 4]
    style = "-" if i == 0 else "-."
    label = "informed" if i == 0 else f"follower {{i + 1}}"
    ax.plot(x, y, style, label=label)
    for k in (0, len(t) - 1):
        ax.annotate("", xy=(x[k] + 0.4 * np.cos(th[k]), y[k] + 0.4 * np.sin(th[k])),
                    xytext=(x[k], y[k]), arrowprops=dict(arrowstyle="->"))
ax.plot(0, 0, "k*", markersize=12)
ax.set_xlabel("x [m]"); ax.set_ylabel("y [m]")
ax.set_title("Robot trajectories (arrows: start/end headings)")
ax.axis("equal"); ax.legend(fontsize=8)
fig.savefig("trajectory.png", dpi=150)

drows = np.genfromtxt(DIST, delimiter=",", comments="#", skip_header=8)
p = len(drows) // len(t)
drows = drows.reshape(-1, p, 5)
fig, ax = plt.subplots(figsize=(8, 5))
for c in range(p):
    i, j = int(drows[0, c, 1]), int(drows[0, c, 2])
    ax.plot(t, drows[:, c, 3], label=f"d({{i}},{{j}})",
            lw=1.5 if drows[0, c, 4] else 0.7)
ax.axhline(float(open(DIST).readlines()[5].split("=")[1]), color="k", ls="--")
ax.set_xlabel("t [s]"); ax.set_ylabel("inter-robot distance [m]")
ax.set_title("Evolution of inter-robot distances")
ax.legend(fontsize=7, ncol=3)
fig.savefig("distances.png", dpi=150)

fig, ax = plt.subplots(figsize=(8, 5))
for i in range(n):
    ax.semilogy(t, np.maximum(np.abs(rows[:, i, 8]), 1e-16),
                label=f"robot {{i + 1}}")
ax.set_xlabel("t [s]"); ax.set_ylabel("|heading error| [rad]")
ax.set_title("Heading tracking error")
ax.legend(fontsize=8)
fig.savefig("heading_decay.png", dpi=150)
print("wrote trajectory.png, distances.png, heading_decay.png")
'''


def emit_plot_script(log_dir: str, out_dir: str | None = None) -> str:
    """Write a self-contained plotting script next to the exported files."""
    traj_path = os.path.join(log_dir, TRAJECTORY_FILE)
    dist_path = os.path.join(log_dir, DISTANCES_FILE)
    for p in (traj_path, dist_path):
        if not os.path.exists(p):
            raise FileNotFoundError(f"missing exported file {p}")
    target_dir = out_dir if out_dir is not None else log_dir
    os.makedirs(target_dir, exist_ok=True)
    rel = os.path.relpath(log_dir, target_dir)
    traj_rel = os.path.normpath(os.path.join(rel, TRAJECTORY_FILE))
    dist_rel = os.path.normpath(os.path.join(rel, DISTANCES_FILE))
    script = _PLOT_SCRIPT.format(traj=traj_rel, dist=dist_rel)
    out_path = os.path.join(target_dir, "plots.py")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(script)
    return out_path

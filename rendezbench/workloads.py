"""Benchmark inputs: scenario files made from the benchmark's seed.

Each workload is a scenario file, the input a user hands to ``rendezsim
run``. The simulator receives only these files; everything seeded happens
here or in the library's own seeded deployment.

* ``reference``: the committed six-robot scenario, unchanged, run to
  convergence. The seed does not change it.
* ``dense48``: 48 robots on a jittered triangular lattice (0.6 m spacing,
  jitter and headings drawn from the seed), explicit deployment, frozen
  neighbour sets, a fixed number of steps.
* ``sparse48``: 48 robots drawn by the library's rejection sampler
  (``[deployment] mode = seeded``, deployment seed = the benchmark seed),
  frozen neighbour sets, a fixed number of steps.
"""

import math
import os

import numpy as np

REFERENCE_SCENARIO = os.path.join("scenarios", "rendezvous_s5.scn")

N_ROBOTS = 48
TIME_STEP = 0.005
CENTER = (-5.0, -3.0)
LATTICE_SPACING = 0.6
LATTICE_COLUMNS = 8
LATTICE_JITTER = 0.05
SPARSE_SPREAD = 6.0
SPARSE_MIN_SEPARATION = 0.2

# Fixed run length of the generated workloads, in simulated steps; run()
# logs one row more, for the initial state.
STEPS = {"dense48": 50, "sparse48": 200}

# setup_s is the median of SETUP_SAMPLES setups per repeat, made after the
# run. The rejection sampler's cost depends on how many draws a deployment
# seed needs, so on sparse48 these setups use a fixed panel of deployment
# seeds rather than the run's own: every run then times the same work.
SETUP_SAMPLES = 8
SETUP_PANEL = tuple(range(1001, 1001 + SETUP_SAMPLES))

WORKLOADS = ("reference", "dense48", "sparse48")


def _header(horizon: float) -> list[str]:
    gains = " ".join(["2.0"] + ["4.0"] * (N_ROBOTS - 1))
    return [
        "format_version = 1",
        f"n_robots = {N_ROBOTS}",
        "workspace_radius = 200.0",
        "sensing_radius = 2.0",
        # the smallest rendezvous disk validate_scenario accepts, plus 1.5 m
        f"rendezvous_radius = {2.0 * (N_ROBOTS - 1) + 1.5}",
        "collision_margin = 0.4",
        "connectivity_buffer = 0.4",
        "sigmoid_eps = 0.01",
        "dipolar_eps = 0.5",
        "field_exponent = 1.2",
        f"linear_gains = {gains}",
        f"angular_gains = {' '.join(['8.0'] * N_ROBOTS)}",
        "goal_position = 0.0 0.0",
        "goal_heading = 0.0",
        f"time_step = {TIME_STEP!r}",
        f"horizon = {horizon!r}",
        "gradient_floor = 1e-6",
        "",
        "[deployment]",
    ]


def lattice_poses(seed: int) -> np.ndarray:
    """(48, 3) poses on a jittered triangular lattice around CENTER."""
    rng = np.random.default_rng(seed)
    rows = N_ROBOTS // LATTICE_COLUMNS
    pts = []
    for r in range(rows):
        for c in range(LATTICE_COLUMNS):
            x = (c + 0.5 * (r % 2)) * LATTICE_SPACING
            y = r * LATTICE_SPACING * math.sqrt(3.0) / 2.0
            pts.append((x, y))
    pts = np.array(pts)
    pts += np.array(CENTER) - pts.mean(axis=0)
    pts += rng.uniform(-LATTICE_JITTER, LATTICE_JITTER, pts.shape)
    headings = rng.uniform(-math.pi, math.pi, N_ROBOTS)
    return np.column_stack([pts, headings])


def scenario_text(workload: str, seed: int) -> str:
    """Scenario file contents of one generated workload.

    ``seed`` is the lattice seed of dense48 and the deployment seed of
    sparse48.
    """
    lines = _header(STEPS[workload] * TIME_STEP)
    if workload == "dense48":
        lines.append("mode = explicit")
        for i, pose in enumerate(lattice_poses(seed).tolist(), start=1):
            lines.append(f"pose_{i} = " + " ".join(repr(v) for v in pose))
    elif workload == "sparse48":
        lines += [
            "mode = seeded",
            f"seed = {seed}",
            f"center = {CENTER[0]!r} {CENTER[1]!r}",
            f"spread = {SPARSE_SPREAD!r}",
            f"min_separation = {SPARSE_MIN_SEPARATION!r}",
        ]
    else:
        raise ValueError(f"{workload!r} is not a generated workload")
    return "\n".join(lines) + "\n"


def write_scenarios(workload: str, seed: int, root: str,
                    out_dir: str) -> tuple[str, list[str]]:
    """The scenario to run, and the SETUP_SAMPLES scenarios to time setup on.

    On sparse48 the setup scenarios are the fixed SETUP_PANEL deployments;
    elsewhere they are the run's own scenario.
    """
    if workload == "reference":
        path = os.path.join(root, REFERENCE_SCENARIO)
        return path, [path] * SETUP_SAMPLES
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, sample_seed in enumerate((seed, *SETUP_PANEL)):
        path = os.path.join(out_dir, f"{workload}-{i}.scn")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(scenario_text(workload, sample_seed))
        paths.append(path)
        if workload == "dense48":
            return path, [path] * SETUP_SAMPLES
    return paths[0], paths[1:]

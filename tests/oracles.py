"""Scalar references that only the tests use, kept apart from ``src/``.

The simulator runs every robot through array kernels (``gradients.JetKernel``,
``sim.StepKernel``). These per-robot functions are independent checks of
them: a central-difference gradient, the constraint product's gradient
(read off ``fields.follower_terms``), the informed robot's gradient, the
follower Laplacian of the consensus analysis, the one-pose exact step, and
the seeded deployment drawn and checked one attempt at a time. They moved here
from ``gradients``, ``graph``, ``sim`` and ``scenario_io``.
"""

import math
from typing import Sequence

import numpy as np

from rendezsim.fields import follower_terms
from rendezsim.gradients import ScalarField, _leader_jet
from rendezsim.graph import (GraphError, Topology, build_topology,
                             has_rooted_spanning_tree)
from rendezsim.model import RegionFlag, RobotState, ScenarioConfig
from rendezsim.sim import AssumptionError, _integrate_all

Edge = tuple[int, int]


def fd_gradient(f: ScalarField, p: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient, one axis at a time."""
    if h <= 0.0:
        raise ValueError("step h must be > 0")
    p = np.asarray(p, dtype=float)
    out = np.empty(2)
    for k in range(2):
        step = np.zeros(2)
        step[k] = h
        hi = f(p + step)
        lo = f(p - step)
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise ValueError("field evaluated to a non-finite value")
        out[k] = (hi - lo) / (2.0 * h)
    return out


def grad_constraint_follower(position: np.ndarray,
                             neighbor_positions: Sequence[np.ndarray],
                             region: RegionFlag,
                             cfg: ScenarioConfig) -> np.ndarray:
    """Gradient of the region's constraint product."""
    return np.array(follower_terms(position, neighbor_positions, region,
                                   cfg)[3])


def grad_navfunc_leader(position: np.ndarray,
                        cfg: ScenarioConfig) -> np.ndarray:
    """Quotient-rule gradient of the informed robot's dipolar potential."""
    return _leader_jet(position, cfg)[0]


def laplacian(topo: Topology, weights: dict[Edge, float],
              linear_gains: list[float], informed: int = 1) -> np.ndarray:
    """Assemble the (n, n) weighted graph Laplacian of the follower dynamics.

    Row i (a follower) has diagonal sum(k_i * w_ij) over its neighbors and
    -k_i * w_ij off-diagonal; the informed robot's row is identically zero
    because its motion does not depend on the followers.
    """
    n = topo.n
    mat = np.zeros((n, n))
    for i, parents in topo.neighbors.items():
        if i == informed:
            continue
        k = linear_gains[i - 1]
        for j in parents:
            try:
                w = weights[(i, j)]
            except KeyError:
                raise GraphError(f"missing weight for edge ({i}, {j})") from None
            mat[i - 1, i - 1] += k * w
            mat[i - 1, j - 1] -= k * w
    return mat


def integrate_pose(pose: np.ndarray, v: float, omega: float,
                   dt: float) -> np.ndarray:
    """Advance one unicycle pose with the controls held constant over dt."""
    out = _integrate_all(np.asarray(pose, dtype=float).reshape(1, 3),
                         np.array([v]), np.array([omega]), dt)
    return out[0]


def sequential_deployment(seed: int, count: int, center: np.ndarray,
                          spread: float, min_separation: float,
                          sensing_radius: float, workspace_radius: float,
                          max_attempts: int = 1000) -> list[RobotState]:
    """``scenario_io.seeded_deployment`` one attempt at a time.

    Each attempt draws its radii, angles and headings with three calls and
    checks the workspace, the separations and, through ``build_topology``,
    the rooted spanning tree.
    """
    rng = np.random.default_rng(seed)
    center = np.asarray(center, dtype=float)
    upper = np.triu_indices(count, k=1)
    for _ in range(max_attempts):
        radii = spread * np.sqrt(rng.uniform(0.0, 1.0, count))
        angles = rng.uniform(-math.pi, math.pi, count)
        headings = rng.uniform(-math.pi, math.pi, count)
        pts = center + np.stack([radii * np.cos(angles),
                                 radii * np.sin(angles)], axis=1)
        if np.any(np.linalg.norm(pts, axis=1) >= workspace_radius):
            continue
        if np.any(np.linalg.norm(pts[upper[0]] - pts[upper[1]], axis=1)
                  < min_separation):
            continue
        states = [RobotState(i + 1, pts[i], float(headings[i]))
                  for i in range(count)]
        topo = build_topology(states, sensing_radius)
        if has_rooted_spanning_tree(topo, root=1):
            return states
    raise AssumptionError(
        f"seeded deployment: no connected draw in {max_attempts} attempts")

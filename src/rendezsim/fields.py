"""Potential fields steering the robots.

The informed robot descends a dipolar navigation function shaped so that its
flow lines arrive at the goal tangent to the desired heading. Followers
descend a consensus potential over their sensed neighbors, multiplied by
sigmoid constraint factors that blow the potential up to 1 when an edge is
about to break or (while collision avoidance is active) when two robots are
about to touch. All values live in [0, 1].
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import RegionFlag, ScenarioConfig


def _logistic(z: float) -> float:
    # overflow-safe 1 / (1 + exp(-z))
    if z >= 0.0:
        ez = math.exp(-z)
        return 1.0 / (1.0 + ez)
    ez = math.exp(z)
    return ez / (1.0 + ez)


def logistic_array(z: np.ndarray) -> np.ndarray:
    """_logistic elementwise, overflow-safe the same way."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, ez) / (1.0 + ez)


def sigmoid_gain(width: float, eps: float) -> float:
    """Logistic slope that takes a sigmoid from eps to 1 - eps across width."""
    return (2.0 / width) * math.log((1.0 - eps) / eps)


# scalar reference, kept in src/ because rendezbench/tracing.py wraps it
def sigmoid_connectivity(d: float, sensing_radius: float,
                         connectivity_buffer: float, eps: float) -> float:
    """Edge-keeping factor b(d): ~1 deep inside sensing range, eps at the rim.

    Decreasing in d; hits 0.5 at R - buffer/2, 1-eps at R - buffer, eps at R.
    """
    return _logistic(sigmoid_gain(connectivity_buffer, eps)
                     * (sensing_radius - 0.5 * connectivity_buffer - d))


def sigmoid_collision(d: float, collision_margin: float, eps: float) -> float:
    """Separation factor B(d): eps at contact, ~1 beyond the collision margin.

    Increasing in d; hits 0.5 at margin/2, eps at 0, 1-eps at the margin.
    """
    return _logistic(sigmoid_gain(collision_margin, eps)
                     * (d - 0.5 * collision_margin))


def boundary_factor(boundary_distance: float, collision_margin: float,
                    eps: float) -> float:
    """Workspace-rim factor for the informed robot.

    sigmoid_collision applied to the robot's distance to the workspace
    boundary, R_w - ||p||.
    """
    return sigmoid_collision(boundary_distance, collision_margin, eps)


def goal_leader(position: np.ndarray, goal: np.ndarray) -> float:
    """Squared distance from the informed robot to the goal."""
    dx = position[0] - goal[0]
    dy = position[1] - goal[1]
    return dx * dx + dy * dy


def dipolar_factor(position: np.ndarray, goal: np.ndarray,
                   goal_heading: float, dipolar_eps: float) -> float:
    """Heading-alignment factor: eps_nh + (axial displacement from goal)^2.

    Small on the surface through the goal perpendicular to the desired
    heading, which turns that surface into a potential ridge and bends the
    flow lines to approach the goal along the heading axis.
    """
    ax = math.cos(goal_heading)
    ay = math.sin(goal_heading)
    proj = (position[0] - goal[0]) * ax + (position[1] - goal[1]) * ay
    return dipolar_eps + proj * proj


def goal_follower(position: np.ndarray,
                  neighbor_positions: Sequence[np.ndarray]) -> float:
    """Consensus objective: sum of squared distances to sensed neighbors."""
    if len(neighbor_positions) == 0:
        raise ValueError("follower has no neighbors; the initial graph must "
                         "give every follower at least one parent")
    total = 0.0
    for q in neighbor_positions:
        dx = position[0] - q[0]
        dy = position[1] - q[1]
        total += dx * dx + dy * dy
    return total


@dataclass
class FieldEval:
    """Value, own-position gradient and Hessian of one robot's potential."""

    value: float
    gradient: np.ndarray        # shape (2,)
    hessian: np.ndarray         # shape (2, 2)


def constraint_follower(position: np.ndarray,
                        neighbor_positions: Sequence[np.ndarray],
                        region: RegionFlag, cfg: ScenarioConfig) -> float:
    """Product of constraint sigmoids over the sensed neighbors.

    While collision avoidance is active each neighbor contributes
    b(d) * B(d); after the switch only the edge-keeping b(d) remains.
    """
    if len(neighbor_positions) == 0:
        raise ValueError("follower has no neighbors; the initial graph must "
                         "give every follower at least one parent")
    avoid = region is RegionFlag.COLLISION_FREE
    out = 1.0
    for q in neighbor_positions:
        dx = position[0] - q[0]
        dy = position[1] - q[1]
        d = math.sqrt(dx * dx + dy * dy)
        out *= sigmoid_connectivity(d, cfg.sensing_radius,
                                    cfg.connectivity_buffer, cfg.sigmoid_eps)
        if avoid:
            out *= sigmoid_collision(d, cfg.collision_margin, cfg.sigmoid_eps)
    return out


def navfunc_leader(position: np.ndarray, cfg: ScenarioConfig) -> float:
    """Dipolar navigation function of the informed robot.

    zero exactly at the goal, 1 where the boundary factor vanishes. The goal
    and the workspace rim never coincide, so numerator and denominator cannot
    vanish together.
    """
    alpha = cfg.field_exponent
    gamma = goal_leader(position, cfg.goal_position)
    dip = dipolar_factor(position, cfg.goal_position,
                         cfg.goal_heading, cfg.dipolar_eps)
    d0 = cfg.workspace_radius - math.hypot(position[0], position[1])
    beta = boundary_factor(d0, cfg.collision_margin, cfg.sigmoid_eps)
    return gamma / (gamma ** alpha + dip * beta) ** (1.0 / alpha)


# scalar reference, kept in src/ because rendezbench/tracing.py wraps it
def navfunc_follower(position: np.ndarray,
                     neighbor_positions: Sequence[np.ndarray],
                     region: RegionFlag, cfg: ScenarioConfig) -> float:
    """Follower potential: zero at consensus, 1 where a constraint is met."""
    alpha = cfg.field_exponent
    gamma = goal_follower(position, neighbor_positions)
    beta = constraint_follower(position, neighbor_positions, region, cfg)
    return gamma / (gamma ** alpha + beta) ** (1.0 / alpha)


def region_of(leader_position: np.ndarray, cfg: ScenarioConfig,
              previous: RegionFlag = RegionFlag.COLLISION_FREE) -> RegionFlag:
    """Latched region switch driven by the informed robot's goal distance.

    Once the leader has been within the switch distance the flag stays
    RENDEZVOUS forever, so a later oscillation around the threshold cannot
    re-activate collision avoidance.
    """
    if previous is RegionFlag.RENDEZVOUS:
        return RegionFlag.RENDEZVOUS
    goal = cfg.goal_position
    if (math.hypot(leader_position[0] - goal[0], leader_position[1] - goal[1])
            < cfg.switch_distance):
        return RegionFlag.RENDEZVOUS
    return RegionFlag.COLLISION_FREE

"""Potential fields steering the robots.

The informed robot descends a dipolar navigation function shaped so that its
flow lines arrive at the goal tangent to the desired heading. Followers
descend a consensus potential over their sensed neighbors, multiplied by
sigmoid constraint factors that blow the potential up to 1 when an edge is
about to break or (while collision avoidance is active) when two robots are
about to touch. All values live in [0, 1]. ``follower_terms`` gives a
follower's factors and their derivatives in one pass over its neighbors.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import RegionFlag, ScenarioConfig

# an edge shorter than this adds no slope: its 1/d factors would overflow,
# and it is only met at consensus, where p - q_j vanishes with it
DISTANCE_FLOOR = 1e-9  # m


def _logistic(z: float) -> float:
    # overflow-safe 1 / (1 + exp(-z))
    if z >= 0.0:
        ez = math.exp(-z)
        return 1.0 / (1.0 + ez)
    ez = math.exp(z)
    return ez / (1.0 + ez)


def logistic_negated(y: np.ndarray, minus_zero: np.ndarray,
                     one: np.ndarray) -> np.ndarray:
    """logistic(-y) elementwise, overflow-safe as ``_logistic`` is.

    With e = exp(-|y|) that is 1 / (1 + e) where y <= 0 and e / (1 + e)
    elsewhere; as e <= 1, the numerator is max(e, [y <= 0]), NaN included.
    Where every y <= 0 it is one / (one + exp(y)), with neither -|y| nor
    the maximum. ``minus_zero`` holds -0.0 and ``one``
    1.0 in y's shape, so that no call takes a scalar operand or broadcasts:
    -0.0 compares as 0 and lends ``copysign`` its sign, -|y|.
    """
    nonpositive = y <= minus_zero
    if np.count_nonzero(nonpositive) == y.size:
        return one / (one + np.exp(y))
    e = np.exp(np.copysign(y, minus_zero))
    return np.maximum(e, nonpositive) / (one + e)


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


@dataclass
class FieldEval:
    """Value, own-position gradient and Hessian of one robot's potential."""

    value: float
    gradient: np.ndarray        # shape (2,)
    hessian: np.ndarray         # shape (2, 2)


def follower_terms(position: np.ndarray,
                   neighbor_positions: Sequence[np.ndarray],
                   region: RegionFlag, cfg: ScenarioConfig,
                   gradient_mode: str = "full"):
    """One follower's quotient inputs, from one pass over its neighbors.

    Returns gamma = sum |p - q_j|^2, its gradient, the product beta of the
    gradient law's factors (b(d) B(d) in "full" mode while avoidance is on,
    else b(d)), beta's gradient and Hessian (xx, xy, yy), and edge slopes,
    as ``JetKernel.leader_terms`` does for the informed robot.

    Each factor is logistic in d_j, so its log-derivatives are closed form in
    the factor itself: (log b)' = -k_b (1 - b), (log b)'' = -k_b^2 b (1 - b),
    and likewise for B. With l_j, l_j'' summed over edge j's factors,
    u_j = (p - q_j) / d_j and g = sum l_j u_j: grad beta = beta g and
    hess beta = beta (g g^T + sum l_j'' u_j u_j^T + l_j / d_j (I - u_j u_j^T)).
    The slopes l_j / d_j give grad beta = beta * sum slope_j * (p - q_j);
    edges closer than DISTANCE_FLOOR add none.
    """
    if len(neighbor_positions) == 0:
        raise ValueError("follower has no neighbors; the initial graph must "
                         "give every follower at least one parent")
    avoid = region is RegionFlag.COLLISION_FREE and gradient_mode == "full"
    eps = cfg.sigmoid_eps
    k_b = sigmoid_gain(cfg.connectivity_buffer, eps)
    k_c = sigmoid_gain(cfg.collision_margin, eps)
    beta = 1.0
    gamma = sx = sy = gx = gy = hxx = hxy = hyy = 0.0
    slopes = []
    for q in neighbor_positions:
        dx = position[0] - q[0]
        dy = position[1] - q[1]
        gamma += dx * dx + dy * dy
        sx += dx
        sy += dy
        d = math.sqrt(dx * dx + dy * dy)
        b = sigmoid_connectivity(d, cfg.sensing_radius,
                                 cfg.connectivity_buffer, eps)
        beta *= b
        l1 = -k_b * (1.0 - b)
        l2 = -k_b * k_b * b * (1.0 - b)
        if avoid:
            c = sigmoid_collision(d, cfg.collision_margin, eps)
            beta *= c
            l1 += k_c * (1.0 - c)
            l2 -= k_c * k_c * c * (1.0 - c)
        if d < DISTANCE_FLOOR:
            slopes.append(0.0)
            continue
        t = l1 / d
        w = (l2 - t) / (d * d)
        slopes.append(t)
        gx += t * dx
        gy += t * dy
        hxx += w * dx * dx + t
        hxy += w * dx * dy
        hyy += w * dy * dy + t
    return (gamma, (2.0 * sx, 2.0 * sy), beta, (beta * gx, beta * gy),
            (beta * (gx * gx + hxx), beta * (gx * gy + hxy),
             beta * (gy * gy + hyy)), slopes)


def navfunc_leader(position: np.ndarray, cfg: ScenarioConfig) -> float:
    """Dipolar navigation function of the informed robot.

    zero exactly at the goal, 1 where the boundary factor vanishes. The goal
    and the workspace rim never coincide, so numerator and denominator cannot
    vanish together.
    """
    alpha = cfg.field_exponent
    goal = cfg.goal_position
    goal = (float(goal[0]), float(goal[1]))
    gamma = goal_leader(position, goal)
    dip = dipolar_factor(position, goal, cfg.goal_heading, cfg.dipolar_eps)
    d0 = cfg.workspace_radius - math.hypot(position[0], position[1])
    beta = sigmoid_collision(d0, cfg.collision_margin, cfg.sigmoid_eps)
    return gamma / (gamma ** alpha + dip * beta) ** (1.0 / alpha)


# scalar reference, kept in src/ because rendezbench/tracing.py wraps it
def navfunc_follower(position: np.ndarray,
                     neighbor_positions: Sequence[np.ndarray],
                     region: RegionFlag, cfg: ScenarioConfig) -> float:
    """Follower potential: zero at consensus, 1 where a constraint is met."""
    alpha = cfg.field_exponent
    gamma, _, beta, _, _, _ = follower_terms(position, neighbor_positions,
                                             region, cfg)
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

"""Potential fields steering the robots.

The informed robot descends a dipolar navigation function shaped so that its
flow lines arrive at the goal tangent to the desired heading. Followers
descend a consensus potential over their sensed neighbors, multiplied by
sigmoid constraint factors that blow the potential up to 1 when an edge is
about to break or (while collision avoidance is active) when two robots are
about to touch. All values live in [0, 1]. ``follower_terms`` gives a
follower's factors and their derivatives in one pass over its neighbors,
and ``leader_terms`` the informed robot's.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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


def logistic_negated(work: np.ndarray, halves: tuple, minus_zero: tuple,
                     one: np.ndarray, out: np.ndarray,
                     nonpositive: bool) -> np.ndarray:
    """logistic(-y) elementwise, overflow-safe as ``_logistic`` is, of the
    y that the caller has written into the second half of ``work``, a
    (2, *y.shape) block; ``halves`` are its two halves.

    With e = exp(-|y|) that is 1 / (1 + e) where y <= 0 and e / (1 + e)
    elsewhere. Where the caller has found every y <= 0, ``nonpositive``,
    it is one / (one + exp(y)), with neither -|y| nor a numerator.
    Elsewhere the numerator is exp(-max(y, 0)): one ``copysign`` turns
    (max(y, 0), y) into (-max(y, 0), -|y|) and one exp call takes both.
    The maximum is ``fmax``, which passes the -0.0 over a NaN y: the
    numerator is then 1, and the NaN of 1 + e, e's own, is the result, as
    e / (1 + e) gives it. ``minus_zero`` holds -0.0 in ``work``'s shape
    and in y's, and ``one`` 1.0 in y's, so that no call takes a scalar
    operand, broadcasts or casts. The result goes into ``out``.
    """
    numerator, y = halves
    if nonpositive:
        np.exp(y, out)
        np.add(one, out, out)
        return np.divide(one, out, out)
    minus_zero_work, minus_zero_row = minus_zero
    np.fmax(y, minus_zero_row, numerator)
    np.exp(np.copysign(work, minus_zero_work, work), work)
    return np.divide(numerator, np.add(one, y, y), out)


def sigmoid_gain(width: float, eps: float) -> float:
    """Logistic slope that takes a sigmoid from eps to 1 - eps across width."""
    return (2.0 / width) * math.log((1.0 - eps) / eps)


def edge_factors(cfg: ScenarioConfig):
    """(center, gain, c1, c2) of the edge-keeping factor b and of the
    collision factor B, each s = logistic(-(d - center) gain) of an edge's
    length d, with log-derivatives l1 = c1 (1 - s) and l2 = c2 s (1 - s).

    b(d) = logistic(k_b (R - buffer/2 - d)) is ``sigmoid_connectivity``
    and B(d) = logistic(k_c (d - margin/2)) ``sigmoid_collision``, so B's
    gain is -k_c.
    """
    eps = cfg.sigmoid_eps
    k_b = sigmoid_gain(cfg.connectivity_buffer, eps)
    k_c = sigmoid_gain(cfg.collision_margin, eps)
    return ((cfg.sensing_radius - 0.5 * cfg.connectivity_buffer, k_b, -k_b,
             -k_b * k_b),
            (0.5 * cfg.collision_margin, -k_c, k_c, -(k_c * k_c)))


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


@dataclass
class FieldEval:
    """Value, own-position gradient and Hessian of one robot's potential; a
    follower's gradient also as sum m_j * (p - q_j), by its edge weights."""

    value: float
    gradient: np.ndarray        # shape (2,)
    hessian: np.ndarray         # shape (2, 2)
    edge_weights: tuple[float, ...] = ()  # m_j, aligned with the neighbors


def potential(gamma: float, beta: float, alpha: float) -> float:
    """gamma / (gamma^alpha + beta)^(1/alpha), the form of every potential."""
    return gamma / (gamma ** alpha + beta) ** (1.0 / alpha)


def follower_terms(position: np.ndarray,
                   neighbor_positions: Sequence[np.ndarray],
                   region: RegionFlag, cfg: ScenarioConfig):
    """One follower's quotient inputs, from one pass over its neighbors.

    Returns gamma = sum |p - q_j|^2, its gradient, the product beta of the
    region's factors (b(d) B(d) while avoidance is on, else b(d)), beta's
    gradient and Hessian (xx, xy, yy), and edge slopes; ``leader_terms``
    gives the informed robot's inputs in this layout, without the slopes.

    Each factor is logistic in d_j, so its log-derivatives are closed form in
    the factor itself (``edge_factors``): (log b)' = -k_b (1 - b),
    (log b)'' = -k_b^2 b (1 - b), and likewise for B. With l_j, l_j''
    summed over edge j's factors,
    u_j = (p - q_j) / d_j and g = sum l_j u_j: grad beta = beta g and
    hess beta = beta (g g^T + sum l_j'' u_j u_j^T + l_j / d_j (I - u_j u_j^T)).
    The slopes l_j / d_j give grad beta = beta * sum slope_j * (p - q_j);
    edges closer than DISTANCE_FLOOR add none.
    """
    if len(neighbor_positions) == 0:
        raise ValueError("follower has no neighbors; the initial graph must "
                         "give every follower at least one parent")
    avoid = region is RegionFlag.COLLISION_FREE
    eps = cfg.sigmoid_eps
    (_, _, b1, b2), (_, _, c1, c2) = edge_factors(cfg)
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
        l1 = b1 * (1.0 - b)
        l2 = b2 * b * (1.0 - b)
        if avoid:
            c = sigmoid_collision(d, cfg.collision_margin, eps)
            beta *= c
            l1 += c1 * (1.0 - c)
            l2 += c2 * c * (1.0 - c)
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


class LeaderConstants(NamedTuple):
    """What ``leader_terms`` and ``region_of`` read of the scenario, as
    floats: the goal, the goal heading's axis a = (cos, sin), the rim
    factor's logistic gain, half the collision margin and the workspace
    radius, ``dipolar_eps`` and the switch distance. A run computes them
    once; a call given none computes them itself."""

    goal_x: float
    goal_y: float
    axis_x: float
    axis_y: float
    rim_gain: float
    half_margin: float
    workspace_radius: float
    dipolar_eps: float
    switch_distance: float


def leader_constants(cfg: ScenarioConfig) -> LeaderConstants:
    """The ``LeaderConstants`` of a scenario."""
    goal_x, goal_y = cfg.goal_position.tolist()
    _, (half_margin, _, k_c, _) = edge_factors(cfg)
    return LeaderConstants(
        goal_x, goal_y, math.cos(cfg.goal_heading),
        math.sin(cfg.goal_heading), k_c, half_margin,
        float(cfg.workspace_radius), float(cfg.dipolar_eps),
        cfg.switch_distance)


def leader_terms(position: np.ndarray, cfg: ScenarioConfig,
                 const: LeaderConstants | None = None):
    """The informed robot's quotient inputs, as ``follower_terms`` without
    the slopes: gamma = |p - goal|^2, its gradient, beta = dip * B(R_w - |p|)
    and beta's gradient and Hessian (xx, xy, yy).

    dip = dipolar_eps + (a . (p - goal))^2, with a the goal heading's axis,
    is small on the line through the goal perpendicular to a: that ridge
    bends the flow lines to approach the goal along the heading axis.
    ``const`` is ``leader_constants(cfg)``.
    """
    if const is None:
        const = leader_constants(cfg)
    goal_x, goal_y, ax, ay, k, half_margin, rim, eps, _ = const
    px, py = float(position[0]), float(position[1])
    rx = px - goal_x
    ry = py - goal_y
    proj = rx * ax + ry * ay
    dip = eps + proj * proj
    # dip has gradient 2 proj a and Hessian 2 a a^T
    dx, dy = 2.0 * proj * ax, 2.0 * proj * ay
    norm = math.hypot(px, py)
    # sigmoid_collision(rim - norm), with its gain k taken once
    bnd = _logistic(k * ((rim - norm) - half_margin))
    square = norm * norm
    if square > 0.0:
        # the rim factor B(R_w - |p|) has gradient -B' u and Hessian
        # B'' u u^T - B' (I - u u^T) / |p|, with u = p / |p|
        s1 = k * bnd * (1.0 - bnd)
        t = s1 / norm
        w = (k * s1 * (1.0 - 2.0 * bnd) + t) / square
        nx, ny = -t * px, -t * py
        nxx, nxy, nyy = w * px * px - t, w * px * py, w * py * py - t
    else:
        # rim direction undefined at the workspace center, and |p|^2 zero
        # within 1.5e-154 of it; the factor is saturated there anyway
        nx = ny = nxx = nxy = nyy = 0.0
    dbeta = (bnd * dx + dip * nx, bnd * dy + dip * ny)
    ddbeta = (2.0 * bnd * ax * ax + 2.0 * dx * nx + dip * nxx,
              2.0 * bnd * ax * ay + dx * ny + dy * nx + dip * nxy,
              2.0 * bnd * ay * ay + 2.0 * dy * ny + dip * nyy)
    return rx * rx + ry * ry, (2.0 * rx, 2.0 * ry), dip * bnd, dbeta, ddbeta


def navfunc_leader(position: np.ndarray, cfg: ScenarioConfig,
                   const: LeaderConstants | None = None) -> float:
    """Dipolar navigation function of the informed robot.

    zero exactly at the goal, 1 where the boundary factor vanishes. The goal
    and the workspace rim never coincide, so numerator and denominator cannot
    vanish together. ``const`` is ``leader_constants(cfg)``.
    """
    gamma, _, beta, _, _ = leader_terms(position, cfg, const)
    return potential(gamma, beta, cfg.field_exponent)


# scalar reference, kept in src/ because rendezbench/tracing.py wraps it
def navfunc_follower(position: np.ndarray,
                     neighbor_positions: Sequence[np.ndarray],
                     region: RegionFlag, cfg: ScenarioConfig) -> float:
    """Follower potential: zero at consensus, 1 where a constraint is met."""
    gamma, _, beta, _, _, _ = follower_terms(position, neighbor_positions,
                                             region, cfg)
    return potential(gamma, beta, cfg.field_exponent)


def region_of(leader_position: np.ndarray, cfg: ScenarioConfig,
              const: LeaderConstants | None = None) -> RegionFlag:
    """The region switch's test: RENDEZVOUS when the informed robot is
    within the switch distance of the goal, else COLLISION_FREE. It holds
    no state; ``sim`` latches the switch. ``const`` is
    ``leader_constants(cfg)``.
    """
    if const is None:
        const = leader_constants(cfg)
    if (math.hypot(leader_position[0] - const.goal_x,
                   leader_position[1] - const.goal_y)
            < const.switch_distance):
        return RegionFlag.RENDEZVOUS
    return RegionFlag.COLLISION_FREE

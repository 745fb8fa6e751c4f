"""Analytic gradients of the potentials, edge weights, and FD oracles.

Two gradient laws are provided for followers, selected by ``gradient_mode``:

* ``"full"`` (default): exact gradient of the regional potential, including
  the collision factors while collision avoidance is active.
* ``"paper"``: gradient of the connectivity-only simplification used in the
  consensus analysis; it differentiates only the edge-keeping factors and
  ignores the collision factors in every region.

Either way the gradient decomposes edgewise as ``sum m_j * (p - q_j)`` with
weights that are nonnegative whenever the collision factors are absent.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fields import (FieldEval, FieldParams, boundary_factor, goal_follower,
                     navfunc_follower, navfunc_leader, sigmoid_collision,
                     sigmoid_connectivity, sigmoid_gain)
from .model import RegionFlag

ScalarField = Callable[[np.ndarray], float]


def connectivity_slope(d: float, sensing_radius: float,
                       connectivity_buffer: float, eps: float) -> float:
    """d/dd of the edge-keeping sigmoid; strictly negative."""
    b = sigmoid_connectivity(d, sensing_radius, connectivity_buffer, eps)
    return -sigmoid_gain(connectivity_buffer, eps) * b * (1.0 - b)


def collision_slope(d: float, collision_margin: float, eps: float) -> float:
    """d/dd of the separation sigmoid; strictly positive."""
    s = sigmoid_collision(d, collision_margin, eps)
    return sigmoid_gain(collision_margin, eps) * s * (1.0 - s)


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


def fd_hessian(f: ScalarField, p: np.ndarray, h: float) -> np.ndarray:
    """Central second differences; off-diagonal averaged from both orderings."""
    if h <= 0.0:
        raise ValueError("step h must be > 0")
    p = np.asarray(p, dtype=float)
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    fc = f(p)
    fpp = f(p + e1 + e2)
    fpm = f(p + e1 - e2)
    fmp = f(p - e1 + e2)
    fmm = f(p - e1 - e2)
    values = (fc, fpp, fpm, fmp, fmm)
    if not all(math.isfinite(v) for v in values):
        raise ValueError("field evaluated to a non-finite value")
    h2 = h * h
    d11 = (f(p + e1) - 2.0 * fc + f(p - e1)) / h2
    d22 = (f(p + e2) - 2.0 * fc + f(p - e2)) / h2
    # same four corner samples, associated as d/dy(df/dx) and d/dx(df/dy)
    d12 = ((fpp - fmp) - (fpm - fmm)) / (4.0 * h2)
    d21 = ((fpp - fpm) - (fmp - fmm)) / (4.0 * h2)
    cross = 0.5 * (d12 + d21)
    return np.array([[d11, cross], [cross, d22]])


def grad_goal_follower(position: np.ndarray,
                       neighbor_positions: Sequence[np.ndarray]) -> np.ndarray:
    """Gradient of the consensus objective: 2 * sum(p - q_j)."""
    if len(neighbor_positions) == 0:
        raise ValueError("follower has no neighbors")
    gx = 0.0
    gy = 0.0
    for q in neighbor_positions:
        gx += position[0] - q[0]
        gy += position[1] - q[1]
    return np.array([2.0 * gx, 2.0 * gy])


def _edge_factors(position, neighbor_positions, params):
    """Distances and sigmoid factors for every neighbor edge, one pass."""
    dists = []
    bs = []
    cs = []
    for q in neighbor_positions:
        dx = position[0] - q[0]
        dy = position[1] - q[1]
        d = math.sqrt(dx * dx + dy * dy)
        dists.append(d)
        bs.append(sigmoid_connectivity(d, params.sensing_radius,
                                       params.connectivity_buffer,
                                       params.sigmoid_eps))
        cs.append(sigmoid_collision(d, params.collision_margin,
                                    params.sigmoid_eps))
    return dists, bs, cs


def _constraint_edge_weights(position, neighbor_positions, region, params,
                             gradient_mode, distance_floor):
    """Per-edge scalars w_j with grad(beta) = sum w_j * (p - q_j).

    Also returns the scalar constraint value beta consistent with the mode:
    the regional product for "full", the connectivity-only product for
    "paper". Edges closer than the distance floor contribute nothing (they
    only occur at consensus, where the goal term vanishes as well).
    """
    dists, bs, cs = _edge_factors(position, neighbor_positions, params)
    avoid = region is RegionFlag.COLLISION_FREE and gradient_mode == "full"
    factors = [b * c for b, c in zip(bs, cs)] if avoid else bs
    beta = 1.0
    for f in factors:
        beta *= f
    weights = []
    for j, d in enumerate(dists):
        if d < distance_floor:
            weights.append(0.0)
            continue
        rest = 1.0
        for l, f in enumerate(factors):
            if l != j:
                rest *= f
        db = connectivity_slope(d, params.sensing_radius,
                                params.connectivity_buffer, params.sigmoid_eps)
        if avoid:
            dc = collision_slope(d, params.collision_margin, params.sigmoid_eps)
            dfac = db * cs[j] + bs[j] * dc
        else:
            dfac = db
        weights.append(dfac * rest / d)
    return beta, weights


def grad_constraint_follower(position: np.ndarray,
                             neighbor_positions: Sequence[np.ndarray],
                             region: RegionFlag, params: FieldParams,
                             gradient_mode: str = "full",
                             distance_floor: float = 1e-9) -> np.ndarray:
    """Gradient of the constraint product for the selected mode."""
    _, weights = _constraint_edge_weights(position, neighbor_positions, region,
                                          params, gradient_mode, distance_floor)
    gx = 0.0
    gy = 0.0
    for w, q in zip(weights, neighbor_positions):
        gx += w * (position[0] - q[0])
        gy += w * (position[1] - q[1])
    return np.array([gx, gy])


@dataclass
class GradientBundle:
    """Gradient plus its edgewise decomposition sum m_j * (p - q_j)."""

    gradient: np.ndarray
    edge_weights: tuple[float, ...]  # aligned with the neighbor sequence
    method: str = "analytic"


def grad_navfunc_follower(position: np.ndarray,
                          neighbor_positions: Sequence[np.ndarray],
                          region: RegionFlag, params: FieldParams,
                          gradient_mode: str = "full",
                          distance_floor: float = 1e-9) -> GradientBundle:
    """Quotient-rule gradient of the follower potential with edge weights.

    m_j = (2 * alpha * beta - gamma * w_j) / (alpha * (gamma^a + beta)^(1/a+1))
    where w_j are the constraint edge weights; the two representations agree
    by construction. With the collision factors absent, w_j <= 0 and every
    m_j is nonnegative.
    """
    alpha = params.field_exponent
    gamma = goal_follower(position, neighbor_positions)
    beta, weights = _constraint_edge_weights(position, neighbor_positions,
                                             region, params, gradient_mode,
                                             distance_floor)
    denom = alpha * (gamma ** alpha + beta) ** (1.0 / alpha + 1.0)
    ms = tuple((2.0 * alpha * beta - gamma * w) / denom for w in weights)
    gx = 0.0
    gy = 0.0
    for m, q in zip(ms, neighbor_positions):
        gx += m * (position[0] - q[0])
        gy += m * (position[1] - q[1])
    return GradientBundle(gradient=np.array([gx, gy]), edge_weights=ms)


def grad_navfunc_leader(position: np.ndarray,
                        params: FieldParams) -> np.ndarray:
    """Quotient-rule gradient of the informed robot's dipolar potential."""
    alpha = params.field_exponent
    goal = params.goal_position
    rel = np.array([position[0] - goal[0], position[1] - goal[1]])
    gamma = rel[0] * rel[0] + rel[1] * rel[1]
    axis = params.goal_axis
    proj = rel[0] * axis[0] + rel[1] * axis[1]
    dip = params.dipolar_eps + proj * proj

    norm = math.hypot(position[0], position[1])
    d0 = params.workspace_radius - norm
    bnd = boundary_factor(d0, params.collision_margin, params.sigmoid_eps)

    grad_gamma = 2.0 * rel
    grad_dip = 2.0 * proj * axis
    if norm > 0.0:
        # the rim factor is the separation sigmoid of the rim distance
        grad_bnd = collision_slope(d0, params.collision_margin,
                                   params.sigmoid_eps) * (-position / norm)
    else:
        # rim direction undefined at the workspace center; the factor is
        # saturated there anyway
        grad_bnd = np.zeros(2)

    obstacle = dip * bnd
    grad_obstacle = bnd * grad_dip + dip * grad_bnd
    denom = alpha * (gamma ** alpha + obstacle) ** (1.0 / alpha + 1.0)
    return (alpha * obstacle * grad_gamma - gamma * grad_obstacle) / denom


def follower_potential(position: np.ndarray,
                       neighbor_positions: Sequence[np.ndarray],
                       region: RegionFlag, params: FieldParams,
                       gradient_mode: str = "full") -> float:
    """Scalar potential that the selected gradient law actually descends.

    "full" is the regional potential itself; "paper" is the connectivity-only
    form, independent of the region flag.
    """
    if gradient_mode == "paper":
        return navfunc_follower(position, neighbor_positions,
                                RegionFlag.RENDEZVOUS, params)
    return navfunc_follower(position, neighbor_positions, region, params)


def leader_field_eval(position: np.ndarray, params: FieldParams,
                      region: RegionFlag, hessian_step: float = 1e-5,
                      want_hessian: bool = True) -> FieldEval:
    """Bundle value, analytic gradient and FD Hessian for the informed robot."""
    hess = None
    if want_hessian:
        hess = fd_hessian(lambda p: navfunc_leader(p, params), position,
                          hessian_step)
    return FieldEval(value=navfunc_leader(position, params),
                     gradient=grad_navfunc_leader(position, params),
                     hessian=hess, region=region)


def follower_field_eval(position: np.ndarray,
                        neighbor_positions: Sequence[np.ndarray],
                        region: RegionFlag, params: FieldParams,
                        gradient_mode: str = "full",
                        distance_floor: float = 1e-9,
                        hessian_step: float = 1e-5,
                        want_hessian: bool = True) -> FieldEval:
    """Bundle value, analytic gradient and FD Hessian for a follower.

    The reported value is always the regional potential; gradient and Hessian
    follow the selected gradient law.
    """
    bundle = grad_navfunc_follower(position, neighbor_positions, region,
                                   params, gradient_mode, distance_floor)
    hess = None
    if want_hessian:
        hess = fd_hessian(
            lambda p: follower_potential(p, neighbor_positions, region,
                                         params, gradient_mode),
            position, hessian_step)
    return FieldEval(value=navfunc_follower(position, neighbor_positions,
                                            region, params),
                     gradient=bundle.gradient, hessian=hess, region=region)

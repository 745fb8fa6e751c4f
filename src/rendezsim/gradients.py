"""Analytic gradients, Hessians and edge weights of the potentials; FD oracles.

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
                     logistic_array, navfunc_follower, navfunc_leader,
                     sigmoid_collision, sigmoid_connectivity, sigmoid_gain)
from .model import RegionFlag

ScalarField = Callable[[np.ndarray], float]

# an edge shorter than this adds no slope: its 1/d factors would overflow,
# and it is only met at consensus, where p - q_j vanishes with it
DISTANCE_FLOOR = 1e-9  # m


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


def _quotient_jet(alpha, gamma, dgamma, lap_gamma, beta, dbeta, ddbeta):
    """Gradient, Hessian and denominator e of gamma / (gamma^a + beta)^(1/a).

    Gradients come and go as (x, y), Hessians as (xx, xy, yy); the Hessian of
    gamma is lap_gamma * I for both potentials. Every input is a float, or an
    array over robots taken elementwise. With
    e = a * (gamma^a + beta)^(1/a + 1) and N = a beta grad gamma - gamma
    grad beta: grad phi = N / e, hess phi = (grad N - grad phi grad e^T) / e,
    a symmetric matrix whose off-diagonal is averaged against rounding.
    """
    gx, gy = dgamma
    bx, by = dbeta
    bxx, bxy, byy = ddbeta
    s = gamma ** alpha + beta
    e = alpha * s ** (1.0 / alpha + 1.0)
    ab = alpha * beta
    fx = (ab * gx - gamma * bx) / e
    fy = (ab * gy - gamma * by) / e
    # d(gamma^a)/d(gamma) diverges at gamma = 0 for a < 1, where grad gamma
    # vanishes and so does every term it multiplies: take it as 0 there
    # (gamma >= 0; the comparisons act on floats and arrays alike)
    dpow = (alpha * (gamma + (gamma <= 0.0)) ** (alpha - 1.0)
            * (gamma > 0.0))
    c = (alpha + 1.0) * s ** (1.0 / alpha)
    ex = c * (dpow * gx + bx)
    ey = c * (dpow * gy + by)
    a1 = alpha - 1.0
    hxx = (a1 * gx * bx + ab * lap_gamma - gamma * bxx - fx * ex) / e
    hyy = (a1 * gy * by + ab * lap_gamma - gamma * byy - fy * ey) / e
    hxy = (0.5 * (a1 * (gx * by + gy * bx) - fx * ey - fy * ex)
           - gamma * bxy) / e
    return (fx, fy), (hxx, hxy, hyy), e


def _matrix(hess):
    xx, xy, yy = hess
    return np.array([[xx, xy], [xy, yy]])


def _constraint_jet(position, neighbor_positions, region, params,
                    gradient_mode):
    """Constraint product beta of the mode, its derivatives, and edge slopes.

    Each factor is logistic in d_j, so its log-derivatives are closed form in
    the factor itself: (log b)' = -k_b (1 - b), (log b)'' = -k_b^2 b (1 - b),
    and likewise for B. With l_j, l_j'' summed over edge j's factors,
    u_j = (p - q_j) / d_j and g = sum l_j u_j: grad beta = beta g and
    hess beta = beta (g g^T + sum l_j'' u_j u_j^T + l_j / d_j (I - u_j u_j^T)).
    The slopes l_j / d_j give grad beta = beta * sum slope_j * (p - q_j);
    edges closer than DISTANCE_FLOOR add none.
    """
    avoid = region is RegionFlag.COLLISION_FREE and gradient_mode == "full"
    eps = params.sigmoid_eps
    k_b = sigmoid_gain(params.connectivity_buffer, eps)
    k_c = sigmoid_gain(params.collision_margin, eps)
    beta = 1.0
    gx = gy = hxx = hxy = hyy = 0.0
    slopes = []
    for q in neighbor_positions:
        dx = position[0] - q[0]
        dy = position[1] - q[1]
        d = math.sqrt(dx * dx + dy * dy)
        b = sigmoid_connectivity(d, params.sensing_radius,
                                 params.connectivity_buffer, eps)
        beta *= b
        l1 = -k_b * (1.0 - b)
        l2 = -k_b * k_b * b * (1.0 - b)
        if avoid:
            c = sigmoid_collision(d, params.collision_margin, eps)
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
    return (beta, (beta * gx, beta * gy),
            (beta * (gx * gx + hxx), beta * (gx * gy + hxy),
             beta * (gy * gy + hyy)), slopes)


def grad_constraint_follower(position: np.ndarray,
                             neighbor_positions: Sequence[np.ndarray],
                             region: RegionFlag, params: FieldParams,
                             gradient_mode: str = "full") -> np.ndarray:
    """Gradient of the constraint product for the selected mode."""
    return np.array(_constraint_jet(position, neighbor_positions, region,
                                    params, gradient_mode)[1])


@dataclass
class GradientBundle:
    """Gradient plus its edgewise decomposition sum m_j * (p - q_j)."""

    gradient: np.ndarray
    edge_weights: tuple[float, ...]  # aligned with the neighbor sequence
    hessian: np.ndarray              # shape (2, 2)


def grad_navfunc_follower(position: np.ndarray,
                          neighbor_positions: Sequence[np.ndarray],
                          region: RegionFlag, params: FieldParams,
                          gradient_mode: str = "full") -> GradientBundle:
    """Quotient-rule gradient and Hessian of the follower potential.

    The potential is the one the selected gradient law descends (see
    ``follower_potential``). Edge weights
    m_j = (2 * alpha * beta - gamma * w_j) / (alpha * (gamma^a + beta)^(1/a+1))
    where w_j = beta * slope_j are the constraint edge weights; the two
    representations agree by construction. With the collision factors absent,
    w_j <= 0 and every m_j is nonnegative.
    """
    alpha = params.field_exponent
    gamma = goal_follower(position, neighbor_positions)
    beta, dbeta, ddbeta, slopes = _constraint_jet(
        position, neighbor_positions, region, params, gradient_mode)
    grad, hess, e = _quotient_jet(
        alpha, gamma, grad_goal_follower(position, neighbor_positions),
        2.0 * len(neighbor_positions), beta, dbeta, ddbeta)
    ms = tuple((2.0 * alpha * beta - gamma * beta * t) / e for t in slopes)
    return GradientBundle(gradient=np.array(grad), edge_weights=ms,
                          hessian=_matrix(hess))


def _leader_jet(position, params):
    """Gradient and Hessian of the informed robot's dipolar potential."""
    px, py = position[0], position[1]
    goal = params.goal_position
    rx, ry = px - goal[0], py - goal[1]
    ax, ay = math.cos(params.goal_heading), math.sin(params.goal_heading)
    proj = rx * ax + ry * ay
    dip = params.dipolar_eps + proj * proj
    # dip has gradient 2 proj a and Hessian 2 a a^T
    dx, dy = 2.0 * proj * ax, 2.0 * proj * ay

    norm = math.hypot(px, py)
    bnd = boundary_factor(params.workspace_radius - norm,
                          params.collision_margin, params.sigmoid_eps)
    if norm > 0.0:
        # the rim factor B(R_w - |p|) has gradient -B' u and Hessian
        # B'' u u^T - B' (I - u u^T) / |p|, with u = p / |p|
        k = sigmoid_gain(params.collision_margin, params.sigmoid_eps)
        s1 = k * bnd * (1.0 - bnd)
        t = s1 / norm
        w = (k * s1 * (1.0 - 2.0 * bnd) + t) / (norm * norm)
        nx, ny = -t * px, -t * py
        nxx, nxy, nyy = w * px * px - t, w * px * py, w * py * py - t
    else:
        # rim direction undefined at the workspace center; the factor is
        # saturated there anyway
        nx = ny = nxx = nxy = nyy = 0.0

    dbeta = (bnd * dx + dip * nx, bnd * dy + dip * ny)
    ddbeta = (2.0 * bnd * ax * ax + 2.0 * dx * nx + dip * nxx,
              2.0 * bnd * ax * ay + dx * ny + dy * nx + dip * nxy,
              2.0 * bnd * ay * ay + 2.0 * dy * ny + dip * nyy)
    grad, hess, _ = _quotient_jet(params.field_exponent, rx * rx + ry * ry,
                                  (2.0 * rx, 2.0 * ry), 2.0, dip * bnd,
                                  dbeta, ddbeta)
    return np.array(grad), _matrix(hess)


def grad_navfunc_leader(position: np.ndarray,
                        params: FieldParams) -> np.ndarray:
    """Quotient-rule gradient of the informed robot's dipolar potential."""
    return _leader_jet(position, params)[0]


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


def leader_field_eval(position: np.ndarray,
                      params: FieldParams) -> FieldEval:
    """Bundle value, analytic gradient and Hessian for the informed robot."""
    grad, hess = _leader_jet(position, params)
    return FieldEval(value=navfunc_leader(position, params), gradient=grad,
                     hessian=hess)


def follower_field_eval(position: np.ndarray,
                        neighbor_positions: Sequence[np.ndarray],
                        region: RegionFlag, params: FieldParams,
                        gradient_mode: str = "full") -> FieldEval:
    """Bundle value, analytic gradient and Hessian for a follower.

    The reported value is always the regional potential; gradient and Hessian
    follow the selected gradient law.
    """
    bundle = grad_navfunc_follower(position, neighbor_positions, region,
                                   params, gradient_mode)
    return FieldEval(value=navfunc_follower(position, neighbor_positions,
                                            region, params),
                     gradient=bundle.gradient, hessian=bundle.hessian)


def follower_jets(dx: np.ndarray, dy: np.ndarray, dist: np.ndarray,
                  mask: np.ndarray, region: RegionFlag, params: FieldParams,
                  gradient_mode: str = "full"):
    """Value, gradient and Hessian of many followers' potentials at once.

    Row i is one follower: dx, dy and dist hold its offsets p - q_j and
    distances to every robot j, and mask row i marks the robots it senses.
    Row i's results read nothing outside its mask row, which keeps the law
    decentralized. Each edge's b(d) and B(d) are evaluated once and serve
    both the reported value (the regional potential) and the derivatives of
    the selected gradient law, by the formulas of ``_constraint_jet`` and
    ``navfunc_follower``. Returns phi, the gradient as (x, y) and the
    Hessian as (xx, xy, yy), each component an array over the rows.
    """
    degree = mask.sum(axis=1)
    if not degree.all():
        raise ValueError("follower has no neighbors; the initial graph must "
                         "give every follower at least one parent")
    eps = params.sigmoid_eps
    k_b = sigmoid_gain(params.connectivity_buffer, eps)
    b = logistic_array(k_b * (params.sensing_radius
                              - 0.5 * params.connectivity_buffer - dist))
    beta = value_beta = np.where(mask, b, 1.0).prod(axis=1)
    l1 = -k_b * (1.0 - b)
    l2 = -k_b * k_b * b * (1.0 - b)
    if region is RegionFlag.COLLISION_FREE:
        k_c = sigmoid_gain(params.collision_margin, eps)
        c = logistic_array(k_c * (dist - 0.5 * params.collision_margin))
        value_beta = beta * np.where(mask, c, 1.0).prod(axis=1)
        if gradient_mode == "full":
            beta = value_beta
            l1 = l1 + k_c * (1.0 - c)
            l2 = l2 - k_c * k_c * c * (1.0 - c)
    # edge slopes l_j / d_j and curvatures; edges under the floor add none
    live = mask & (dist >= DISTANCE_FLOOR)
    t = np.divide(l1, dist, out=np.zeros_like(dist), where=live)
    w = np.divide(l2 - t, dist * dist, out=np.zeros_like(dist), where=live)
    mx = np.where(mask, dx, 0.0)
    my = np.where(mask, dy, 0.0)
    gx = (t * mx).sum(axis=1)
    gy = (t * my).sum(axis=1)
    t_sum = t.sum(axis=1)
    hxx = (w * mx * mx).sum(axis=1) + t_sum
    hxy = (w * mx * my).sum(axis=1)
    hyy = (w * my * my).sum(axis=1) + t_sum
    alpha = params.field_exponent
    gamma = (mx * mx + my * my).sum(axis=1)
    grad, hess, _ = _quotient_jet(
        alpha, gamma, (2.0 * mx.sum(axis=1), 2.0 * my.sum(axis=1)),
        2.0 * degree, beta, (beta * gx, beta * gy),
        (beta * (gx * gx + hxx), beta * (gx * gy + hxy),
         beta * (gy * gy + hyy)))
    phi = gamma / (gamma ** alpha + value_beta) ** (1.0 / alpha)
    return phi, grad, hess

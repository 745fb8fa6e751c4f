"""Scalar references that only the tests use, kept apart from ``src/``.

The simulator runs every robot through array kernels (``gradients.JetKernel``,
``sim.StepKernel``). These per-robot functions are independent checks of
them: a central-difference gradient, the constraint product's gradient
(read off ``fields.follower_terms``), the informed robot's gradient, the
follower Laplacian of the consensus analysis, the exact step on a copy of
the poses, the seeded deployment drawn and checked one attempt at a time,
and the whole step's formulas as plain numpy expressions. All but the last moved here from
``gradients``, ``graph``, ``sim`` and ``scenario_io``.
"""

import math
from typing import Sequence

import numpy as np

from rendezsim.fields import DISTANCE_FLOOR, follower_terms, sigmoid_gain
from rendezsim.gradients import ScalarField, leader_field_eval
from rendezsim.graph import (GraphError, Topology, build_topology,
                             has_rooted_spanning_tree)
from rendezsim.model import (TWO_PI, RegionFlag, RobotState, ScenarioConfig,
                             outside_workspace)
from rendezsim.sim import (AssumptionError, IntegrateWork, NonFiniteState,
                           ScreenWork, _integrate_all, _screen)

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
    return leader_field_eval(position, cfg).gradient


def laplacian(topo: Topology, weights: dict[Edge, float],
              linear_gains: list[float], informed: int = 1) -> np.ndarray:
    """Assemble the (n, n) weighted graph Laplacian of the follower dynamics.

    Row i (a follower) has diagonal sum(k_i * w_ij) over its neighbors and
    -k_i * w_ij off-diagonal; the informed robot's row is identically zero
    because its motion does not depend on the followers.
    """
    n = len(topo.adjacency)
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


def integrate_copy(poses: np.ndarray, controls: np.ndarray,
                   dt: float) -> np.ndarray:
    """``sim._integrate_all`` on a copy of the (N, 3) poses, with the
    controls (v, omega) as (2, N) rows held constant over dt, and the
    heading wrap of ``sim._screen``, which raises NonFiniteState after it
    where some pose is not finite."""
    work = IntegrateWork(np.array(poses, dtype=float), dt, controls)
    _integrate_all(work)
    try:
        _screen(ScreenWork(work.poses, np.empty(work.poses.size)))
    except NonFiniteState:
        pass
    return work.poses


def integrate_pose(pose: np.ndarray, v: float, omega: float,
                   dt: float) -> np.ndarray:
    """Advance one unicycle pose with the controls held constant over dt."""
    return integrate_copy(np.reshape(pose, (1, 3)),
                          np.array([[v], [omega]]), dt)[0]


def sequential_deployment(seed: int, count: int, center: np.ndarray,
                          spread: float, min_separation: float,
                          sensing_radius: float, workspace_radius: float,
                          max_attempts: int = 1000) -> list[RobotState]:
    """``scenario_io.seeded_deployment`` one attempt at a time.

    Each attempt draws its radii, angles and headings with three calls and
    checks the workspace (by ``outside_workspace``, the one rim test), the
    separations and, through ``build_topology``, the rooted spanning tree.
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
        if outside_workspace(pts, workspace_radius).any():
            continue
        if np.any(np.linalg.norm(pts[upper[0]] - pts[upper[1]], axis=1)
                  < min_separation):
            continue
        states = [RobotState(i + 1, pts[i], float(headings[i]))
                  for i in range(count)]
        topo = build_topology(states, sensing_radius)
        if has_rooted_spanning_tree(topo.adjacency, root=1):
            return states
    raise AssumptionError(
        f"seeded deployment: no connected draw in {max_attempts} attempts")


def _turn(theta):
    """One turn of 2 pi into (-pi, pi], as ``model.turn_angles``."""
    turns = ((theta > math.pi).astype(float)
             - (theta <= -math.pi).astype(float))
    return theta - turns * TWO_PI


def _logistic_negated(y):
    """logistic(-y): 1 / (1 + exp(y)) for y <= 0, e / (1 + e) with
    e = exp(-y) elsewhere."""
    e = np.exp(-np.abs(y))
    return np.where(y <= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _edge_factor(d, center, gain, c1, c2):
    """One logistic factor of each edge and its log-derivatives (l1, l2)."""
    s = _logistic_negated((d - center) * gain)
    return s, c1 * (1.0 - s), (c2 * s) * (1.0 - s)


def _logistic(z):
    """1 / (1 + exp(-z)), as exp(z) / (1 + exp(z)) for z < 0."""
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def plain_leader_terms(cfg: ScenarioConfig, p):
    """The informed robot's quotient inputs from their formulas, with the
    scenario's numbers and no constants of ``fields``: gamma = |p - goal|^2
    and its gradient 2 (p - goal); beta = dip B(R_w - |p|), dip = eps +
    (a . (p - goal))^2 with a the goal heading's axis, whose gradient is 2
    proj a and Hessian 2 a a^T, and the rim factor B(d) = logistic(k (d -
    margin/2)), k = sigmoid_gain(margin, sigmoid_eps), whose gradient in p
    is -B' u and Hessian B'' u u^T - B' (I - u u^T) / |p|, u = p / |p|;
    beta's gradient and Hessian (xx, xy, yy) by the product rule. Floats,
    in the order of operations of ``fields.leader_terms``."""
    px, py = float(p[0]), float(p[1])
    rx = px - float(cfg.goal_position[0])
    ry = py - float(cfg.goal_position[1])
    ax, ay = math.cos(cfg.goal_heading), math.sin(cfg.goal_heading)
    k = sigmoid_gain(cfg.collision_margin, cfg.sigmoid_eps)
    proj = rx * ax + ry * ay
    dip = float(cfg.dipolar_eps) + proj * proj
    dx, dy = 2.0 * proj * ax, 2.0 * proj * ay
    norm = math.hypot(px, py)
    rim = _logistic(k * ((float(cfg.workspace_radius) - norm)
                         - 0.5 * cfg.collision_margin))
    nx = ny = nxx = nxy = nyy = 0.0
    if norm * norm > 0.0:  # none where |p|^2 is 0
        s1 = k * rim * (1.0 - rim)  # B'
        t = s1 / norm
        w = (k * s1 * (1.0 - 2.0 * rim) + t) / (norm * norm)
        nx, ny = -t * px, -t * py
        nxx, nxy, nyy = w * px * px - t, w * px * py, w * py * py - t
    return (rx * rx + ry * ry, (2.0 * rx, 2.0 * ry), dip * rim,
            (rim * dx + dip * nx, rim * dy + dip * ny),
            (2.0 * rim * ax * ax + 2.0 * dx * nx + dip * nxx,
             2.0 * rim * ax * ay + dx * ny + dy * nx + dip * nxy,
             2.0 * rim * ay * ay + 2.0 * dy * ny + dip * nyy))


def plain_step(cfg: ScenarioConfig, mask: np.ndarray, poses: np.ndarray,
               held: np.ndarray, region: RegionFlag):
    """One step of every robot, stated as plain numpy expressions.

    ``poses`` (N, 3) are the robots' poses, ``mask`` the step's (N, N)
    sensing mask and ``held`` the desired headings of the step before,
    held where a gradient is under the floor. The formulas are those of
    ``sim.StepKernel``, in its order of operations, with no workspace,
    view or screen: each element comes from the same ufunc on the same
    operand values, so the results must agree bit for bit. Returns the
    new (N, 3) poses, the controls (v, omega, theta_d, theta_tilde,
    theta_d_dot) as (5, N) rows and phi.
    """
    n = len(poses)
    x, y, theta = poses.T
    alpha = cfg.field_exponent
    gamma, dgx, dgy, beta, dbx, dby, hxx, hxy, hyy = np.empty((9, n))
    lap = np.empty(n)
    g0, dg0, b0, db0, ddb0 = plain_leader_terms(cfg, poses[0, :2])
    gamma[0], (dgx[0], dgy[0]), beta[0], (dbx[0], dby[0]) = g0, dg0, b0, db0
    hxx[0], hxy[0], hyy[0] = ddb0
    lap[0] = 2.0
    if n > 1:
        i, j = np.nonzero(mask[1:])
        i += 1
        starts = np.flatnonzero(np.diff(np.concatenate(([-1], i))))
        # p_i - p_j as the kernel takes it: its pair's offset p_a - p_b, a
        # < b, negated where i > j, whose zeros may differ in sign from p_i -
        # p_j's where two robots share a coordinate
        a, b = np.minimum(i, j), np.maximum(i, j)
        mx, my = x[a] - x[b], y[a] - y[b]
        mx[i > j], my[i > j] = -mx[i > j], -my[i > j]
        d = np.sqrt(mx * mx + my * my)
        eps = cfg.sigmoid_eps
        k_b = sigmoid_gain(cfg.connectivity_buffer, eps)
        k_c = sigmoid_gain(cfg.collision_margin, eps)
        sb, l1, l2 = _edge_factor(
            d, cfg.sensing_radius - 0.5 * cfg.connectivity_buffer, k_b,
            -k_b, -k_b * k_b)
        f_beta = np.multiply.reduceat(sb, starts)
        if region is RegionFlag.COLLISION_FREE:
            sc, c1, c2 = _edge_factor(d, 0.5 * cfg.collision_margin, -k_c,
                                      k_c, -(k_c * k_c))
            f_beta = f_beta * np.multiply.reduceat(sc, starts)
            l1, l2 = l1 + c1, l2 + c2
        near = d >= DISTANCE_FLOOR
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(near, l1 / d, 0.0)
            w = np.where(near, (l2 - t) / (d * d), 0.0)
        wmx = w * mx
        sums = [np.add.reduceat(v, starts) for v in (
            t * mx, t * my, wmx * mx, (w * my) * my, wmx * my, t, mx, my,
            mx * mx + my * my)]
        gx, gy, cxx, cyy, cxy, slope, sx, sy, f_gamma = sums
        f = slice(1, None)
        gamma[f], dgx[f], dgy[f] = f_gamma, sx + sx, sy + sy
        beta[f], dbx[f], dby[f] = f_beta, f_beta * gx, f_beta * gy
        hxx[f] = ((gx * gx) + (cxx + slope)) * f_beta
        hyy[f] = ((gy * gy) + (cyy + slope)) * f_beta
        hxy[f] = ((gx * gy) + cxy) * f_beta
        lap[f] = 2.0 * mask[1:].sum(axis=1)
    # the quotient rule of gradients._quotient_jet
    s = gamma ** alpha + beta
    root = s ** (1.0 / alpha)
    e = alpha * s ** (1.0 / alpha + 1.0)
    ab = alpha * beta
    fx = (ab * dgx - gamma * dbx) / e
    fy = (ab * dgy - gamma * dby) / e
    if alpha >= 1.0:  # np.power: ** takes sqrt for an exponent of 1/2
        dpow = alpha * np.power(gamma, alpha - 1.0)
    else:
        dpow = alpha * np.power(gamma, alpha - 1.0, out=np.zeros(n),
                                where=gamma > 0.0)
    a_root = (alpha + 1.0) * root
    ex = a_root * (dpow * dgx + dbx)
    ey = a_root * (dpow * dgy + dby)
    a_minus = alpha - 1.0
    h_xx = ((((a_minus * dgx) * dbx + ab * lap) - gamma * hxx) - fx * ex) / e
    h_yy = ((((a_minus * dgy) * dby + ab * lap) - gamma * hyy) - fy * ey) / e
    h_xy = ((0.5 * (((a_minus * (dgx * dby + dgy * dbx)) - fx * ey)
                    - fy * ex)) - gamma * hxy) / e
    phi = gamma / root
    # the control laws of control.control_laws
    k_v = np.asarray(cfg.linear_gains, dtype=float)
    k_w = np.asarray(cfg.angular_gains, dtype=float)
    grad_norm = np.hypot(-fx, -fy)
    theta_d = np.where(grad_norm > cfg.gradient_floor,
                       np.arctan2(-fy, -fx), held)
    theta_tilde = _turn(theta - theta_d)
    cos_tilde = np.cos(theta_tilde)
    v = (k_v * grad_norm) * cos_tilde
    sin_d, cos_d = np.sin(theta_d), np.cos(theta_d)
    form = (((sin_d * h_xx - cos_d * h_xy) * np.cos(theta))
            + ((sin_d * h_xy - cos_d * h_yy) * np.sin(theta)))
    theta_d_dot = (k_v * cos_tilde) * form
    omega = theta_d_dot - k_w * theta_tilde
    # the exact arc of sim._integrate_all
    dt = cfg.time_step
    half = (0.5 * dt) * omega
    chord = (dt * v) * np.sinc(half / np.pi)
    mid = theta + half
    new = np.column_stack([
        x + chord * np.cos(mid), y + chord * np.sin(mid),
        _turn(np.fmod(theta + dt * omega, TWO_PI))])
    return new, np.array([v, omega, theta_d, theta_tilde, theta_d_dot]), phi

"""Analytic gradients, Hessians and edge weights of the potentials.

Two gradient laws are provided for followers, selected by ``gradient_mode``
and stated for one follower by ``fields.follower_terms``:

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

from .fields import (DISTANCE_FLOOR, FieldEval, _logistic, follower_terms,
                     logistic_array, navfunc_follower, navfunc_leader,
                     sigmoid_gain)
from .model import RegionFlag, ScenarioConfig
# not called here: rendezbench/tracing.py wraps these names
from .fields import sigmoid_collision, sigmoid_connectivity  # noqa: F401

ScalarField = Callable[[np.ndarray], float]


# scalar reference, kept in src/ because rendezbench/tracing.py wraps it
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


def _quotient_jet(alpha, gamma, dgamma, lap_gamma, beta, dbeta, ddbeta,
                  value_beta=None):
    """Value, gradient, Hessian and e of phi = gamma / (gamma^a + beta)^(1/a).

    Gradients come as (x, y) and Hessians as (xx, xy, yy) along the first
    axis; the Hessian of gamma is lap_gamma * I for both potentials. Every
    other input is a float, or an array over robots taken elementwise. With
    e = a * (gamma^a + beta)^(1/a + 1) and N = a beta grad gamma - gamma
    grad beta: grad phi = N / e, hess phi = (grad N - grad phi grad e^T) / e,
    a symmetric matrix whose off-diagonal is averaged against rounding. The
    value takes ``value_beta`` in place of beta when given. The gradients
    and Hessians are arrays.
    """
    inv_alpha = 1.0 / alpha
    gamma_a = gamma ** alpha
    s = gamma_a + beta
    root = s ** inv_alpha
    e = alpha * s ** (inv_alpha + 1.0)
    ab = alpha * beta
    f = (ab * dgamma - gamma * dbeta) / e
    # d(gamma^a)/d(gamma) diverges at gamma = 0 for a < 1, where grad gamma
    # vanishes and so does every term it multiplies: take it as 0 there. For
    # a >= 1 it is finite at 0, where it multiplies grad gamma = 0 all the same
    if alpha >= 1.0:
        dpow = alpha * np.power(gamma, alpha - 1.0)
    else:
        dpow = alpha * np.power(gamma, alpha - 1.0,
                                out=np.zeros(np.shape(gamma)),
                                where=gamma > 0.0)
    de = (alpha + 1.0) * root * (dpow * dgamma + dbeta)
    a1 = alpha - 1.0
    gamma_ddbeta = gamma * ddbeta
    diag = (a1 * dgamma * dbeta + ab * lap_gamma - gamma_ddbeta[::2]
            - f * de) / e
    cross = dgamma * dbeta[::-1]  # gx by, gy bx
    fe = f * de[::-1]  # fx ey, fy ex
    hxy = (0.5 * (a1 * (cross[0] + cross[1]) - fe[0] - fe[1])
           - gamma_ddbeta[1]) / e
    if value_beta is not None:
        root = (gamma_a + value_beta) ** inv_alpha
    return gamma / root, f, (diag[0], hxy, diag[1]), e


def _matrix(hess):
    xx, xy, yy = hess
    return np.array([[xx, xy], [xy, yy]])


@dataclass
class GradientBundle:
    """Gradient plus its edgewise decomposition sum m_j * (p - q_j)."""

    gradient: np.ndarray
    edge_weights: tuple[float, ...]  # aligned with the neighbor sequence
    hessian: np.ndarray              # shape (2, 2)


# scalar reference, kept in src/ because rendezbench/tracing.py wraps it
def grad_navfunc_follower(position: np.ndarray,
                          neighbor_positions: Sequence[np.ndarray],
                          region: RegionFlag, cfg: ScenarioConfig,
                          gradient_mode: str = "full") -> GradientBundle:
    """Quotient-rule gradient and Hessian of the follower potential.

    The potential is the one the selected gradient law descends: the
    regional potential in "full" mode, its connectivity-only form (that of
    the rendezvous region) in "paper" mode. Edge weights
    m_j = (2 * alpha * beta - gamma * w_j) / (alpha * (gamma^a + beta)^(1/a+1))
    where w_j = beta * slope_j are the constraint edge weights; the two
    representations agree by construction. With the collision factors absent,
    w_j <= 0 and every m_j is nonnegative.
    """
    alpha = cfg.field_exponent
    gamma, dgamma, beta, dbeta, ddbeta, slopes = follower_terms(
        position, neighbor_positions, region, cfg, gradient_mode)
    _, grad, hess, e = _quotient_jet(
        alpha, gamma, np.array(dgamma), 2.0 * len(neighbor_positions), beta,
        np.array(dbeta), np.array(ddbeta))
    ms = tuple((2.0 * alpha * beta - gamma * beta * t) / e for t in slopes)
    return GradientBundle(gradient=np.array(grad), edge_weights=ms,
                          hessian=_matrix(hess))


def _leader_jet(position, cfg):
    """Gradient and Hessian of the informed robot's dipolar potential."""
    gamma, dgamma, lap, beta, dbeta, ddbeta = JetKernel(cfg).leader_terms(
        position)
    _, grad, hess, _ = _quotient_jet(cfg.field_exponent, gamma,
                                     np.array(dgamma), lap, beta,
                                     np.array(dbeta), np.array(ddbeta))
    return np.array(grad), _matrix(hess)


# scalar reference, kept in src/ because rendezbench/tracing.py wraps it
def leader_field_eval(position: np.ndarray, cfg: ScenarioConfig) -> FieldEval:
    """Bundle value, analytic gradient and Hessian for the informed robot."""
    grad, hess = _leader_jet(position, cfg)
    return FieldEval(value=navfunc_leader(position, cfg), gradient=grad,
                     hessian=hess)


# scalar reference, kept in src/ because rendezbench/tracing.py wraps it
def follower_field_eval(position: np.ndarray,
                        neighbor_positions: Sequence[np.ndarray],
                        region: RegionFlag, cfg: ScenarioConfig,
                        gradient_mode: str = "full") -> FieldEval:
    """Bundle value, analytic gradient and Hessian for a follower.

    The reported value is always the regional potential; gradient and Hessian
    follow the selected gradient law.
    """
    bundle = grad_navfunc_follower(position, neighbor_positions, region,
                                   cfg, gradient_mode)
    return FieldEval(value=navfunc_follower(position, neighbor_positions,
                                            region, cfg),
                     gradient=bundle.gradient, hessian=bundle.hessian)


class JetKernel:
    """Value, gradient and Hessian of every robot's potential, one pass a step.

    Built once per run from the scenario: it holds the field constants
    (sigmoid gains and shifts, the goal axis), the gradient law of
    ``cfg.gradient_mode`` and the followers' sensed edges, which only
    ``set_mask`` changes. Row 0 is the informed robot: its quotient inputs
    come from scalar math (``leader_terms``) and fill column 0 of the input
    rows. The followers' fill the others, from one pass over the edge list,
    and one ``_quotient_jet`` call covers all of them. Without a mask the
    kernel holds the informed robot alone.
    """

    def __init__(self, cfg: ScenarioConfig, mask: np.ndarray | None = None):
        self.cfg = cfg
        self.full = cfg.gradient_mode == "full"
        eps = cfg.sigmoid_eps
        k_b = sigmoid_gain(cfg.connectivity_buffer, eps)
        k_c = sigmoid_gain(cfg.collision_margin, eps)
        self.k_c = k_c
        self.rim_shift = 0.5 * cfg.collision_margin
        self.goal = tuple(cfg.goal_position.tolist())
        self.axis = (math.cos(cfg.goal_heading), math.sin(cfg.goal_heading))
        # layer 0 holds b(d) = logistic(k_b (R - buffer/2 - d)), layer 1
        # B(d) = logistic(k_c (d - margin/2)), with log-derivatives
        # l1 = c1 (1 - s) and l2 = c2 s (1 - s). Both arguments take the form
        # (center - d) gain: layer 1's as (margin/2 - d) (-k_c), the same
        # number up to the sign of a zero, which the logistic ignores.
        # (center, gain, c1, c2) of each layer
        self.per_layer = np.array([
            [cfg.sensing_radius - 0.5 * cfg.connectivity_buffer, k_b,
             -k_b, -k_b * k_b],
            [self.rim_shift, -k_c, k_c, -(k_c * k_c)]])
        if mask is None:
            mask = np.zeros((1, 1), dtype=bool)
        n = len(mask)
        # quotient inputs, one column per robot: gamma, grad gamma, beta,
        # grad beta, hess beta (xx, xy, yy), and the value's beta
        self.rows = np.empty((10, n))
        # index of each robot pair {i, j} among the upper pairs (a, b), a < b,
        # in np.triu_indices order: the order of a call's offsets and distances
        upper = np.triu_indices(n, 1)
        self.pair_index = np.zeros((n, n), dtype=np.intp)
        self.pair_index[upper] = self.pair_index.T[upper] = np.arange(
            len(upper[0]))
        self.set_mask(mask)

    def set_mask(self, mask: np.ndarray) -> None:
        """Rebuild the edge list from the (n, n) sensing mask.

        The list holds every directed edge (i, j) with mask[i, j] and i >= 1
        in row-major order, so follower i's edges are one segment starting
        at ``starts[i - 1]``: the edge's upper pair, and the sign that turns
        that pair's offset p_a - p_b into p_i - p_j. Raises ValueError when a
        follower senses no one.
        """
        degree = mask[1:].sum(axis=1)
        if not degree.all():
            raise ValueError("follower has no neighbors; the initial graph "
                             "must give every follower at least one parent")
        self.lap = 2.0 * np.concatenate(([1], degree))
        rows, cols = np.nonzero(mask[1:])
        rows += 1
        self.pair = self.pair_index[rows, cols]
        self.starts = np.concatenate(([0], np.cumsum(degree)[:-1]))
        # per-edge constants as full (rows, E) arrays, since a ufunc call
        # that broadcasts an operand costs about twice one that does not: the
        # sign of both offset rows, (center, gain, c1, c2) of the first one
        # or both layers, and the pair index once per layer
        n_edges = len(rows)
        self.sign = np.tile(np.where(rows < cols, 1.0, -1.0), (2, 1))
        self.layers = {m: tuple(np.tile(self.per_layer[:m, c:c + 1],
                                        (1, n_edges)) for c in range(4))
                       for m in (1, 2)}
        self.pair2 = np.tile(self.pair, (2, 1))
        # per edge: p_i - p_j and d_ij (per layer), the logistic's argument
        # in each layer, the slope and curvature, and the edge terms whose
        # segment sums make the jet
        self.m = np.empty((2, n_edges))
        self.d2 = np.empty((2, n_edges))
        self.d = self.d2[0]
        self.z = np.empty((2, n_edges))
        self.w = np.empty(n_edges)
        self.terms = np.empty((9, n_edges))

    def leader_terms(self, position):
        """Row 0's quotient inputs: gamma = |p - goal|^2, its gradient and
        Laplacian, and beta = dip * bnd with its gradient and Hessian."""
        p = self.cfg
        px, py = float(position[0]), float(position[1])
        rx, ry = px - self.goal[0], py - self.goal[1]
        ax, ay = self.axis
        proj = rx * ax + ry * ay
        dip = p.dipolar_eps + proj * proj
        # dip has gradient 2 proj a and Hessian 2 a a^T
        dx, dy = 2.0 * proj * ax, 2.0 * proj * ay

        norm = math.hypot(px, py)
        bnd = _logistic(self.k_c * (p.workspace_radius - norm
                                    - self.rim_shift))
        if norm > 0.0:
            # the rim factor B(R_w - |p|) has gradient -B' u and Hessian
            # B'' u u^T - B' (I - u u^T) / |p|, with u = p / |p|
            k = self.k_c
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
        return (rx * rx + ry * ry, (2.0 * rx, 2.0 * ry), 2.0, dip * bnd,
                dbeta, ddbeta)

    def __call__(self, position: np.ndarray, offsets: np.ndarray,
                 dist: np.ndarray, region: RegionFlag):
        """phi, gradient (x, y) and Hessian (xx, xy, yy) of every robot.

        ``position`` is the informed robot's; ``offsets`` (2, P) holds
        p_a - p_b and ``dist`` (P,) the distance of each upper pair (a, b),
        a < b, in the order of np.triu_indices. Follower i gathers only the
        pairs of its own edges, which keeps the law decentralized. Each
        edge's b(d) and B(d) are evaluated once and serve both the reported
        value (the regional potential) and the derivatives of the selected
        gradient law, by the formulas of ``fields.follower_terms``.
        """
        rows = self.rows
        gamma, dgamma, _, beta, dbeta, ddbeta = self.leader_terms(position)
        rows[:, 0] = [gamma, *dgamma, beta, *dbeta, *ddbeta, beta]
        avoid = region is RegionFlag.COLLISION_FREE
        value_differs = avoid and not self.full
        if rows.shape[1] > 1:
            self._followers(offsets, dist, avoid, value_differs)
        phi, grad, hess, _ = _quotient_jet(
            self.cfg.field_exponent, rows[0], rows[1:3], self.lap, rows[3],
            rows[4:6], rows[6:9], rows[9] if value_differs else None)
        # row 0 logs the scalar navigation function's value: the traced
        # benchmark (rendezbench/run.py) divides by that function's calls
        phi[0] = navfunc_leader(position, self.cfg)
        return phi, grad, hess

    def _followers(self, offsets, dist, avoid, value_differs):
        """Fill columns 1.. of the quotient inputs from the edge factors."""
        m, d, starts = self.m, self.d, self.starts
        offsets.take(self.pair, axis=1, out=m, mode="clip")
        m *= self.sign
        dist.take(self.pair2, out=self.d2, mode="clip")
        center, gain, _, _ = self.layers[2 if avoid else 1]
        z = self.z[:len(gain)]
        np.subtract(center, self.d2[:len(gain)], out=z)
        z *= gain
        s = logistic_array(z)
        factors = np.multiply.reduceat(s, starts, axis=-1)
        beta = value_beta = factors[0]
        if avoid:
            value_beta = factors[0] * factors[1]
        if not value_differs:
            beta = value_beta
        # the selected law differentiates b(d), and B(d) when beta holds it
        live = 1 if value_differs else len(s)
        _, _, c1, c2 = self.layers[live]
        one_minus = 1.0 - s[:live]
        l1 = c1 * one_minus
        l2 = c2 * s[:live] * one_minus
        l1, l2 = (l1[0], l2[0]) if live == 1 else (l1[0] + l1[1],
                                                   l2[0] + l2[1])
        # edge slopes l_j / d_j and curvatures; edges under the floor add
        # none, and a NaN distance takes the masked divides too
        terms, w = self.terms, self.w
        t = terms[5]
        near = d >= DISTANCE_FLOOR
        if np.count_nonzero(near) == len(d):
            np.divide(l1, d, out=t)
            np.divide(l2 - t, d * d, out=w)
        else:
            t.fill(0.0)
            w.fill(0.0)
            np.divide(l1, d, out=t, where=near)
            np.divide(l2 - t, d * d, out=w, where=near)
        np.multiply(t, m, out=terms[0:2])
        wm = w * m
        np.multiply(wm[0], m, out=terms[2:4])
        np.multiply(wm[1], m[1], out=terms[4])
        square = m * m
        np.add(square[0], square[1], out=terms[6])
        terms[7:9] = m
        # sum of slopes g = sum t_j (p - q_j), then the curvature sums
        # (xx, xy, yy), sum t_j, gamma and sum (p - q_j), one segment per
        # follower
        sums = np.add.reduceat(terms, starts, axis=-1)
        g = sums[0:2]
        sums[2:5:2] += sums[5]
        rows = self.rows[:, 1:]
        rows[0] = sums[6]
        np.multiply(2.0, sums[7:9], out=rows[1:3])
        rows[3] = beta
        np.multiply(beta, g, out=rows[4:6])
        hess = rows[6:9]
        np.multiply(g[0], g, out=hess[0:2])
        np.multiply(g[1], g[1], out=hess[2])
        hess += sums[2:5]
        hess *= beta
        rows[9] = value_beta

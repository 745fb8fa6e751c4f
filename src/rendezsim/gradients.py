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
                     logistic_negated, navfunc_follower, navfunc_leader,
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


def quotient_rows(alpha: float, n: int | None = None):
    """The constant operands of ``_quotient_jet`` over n robots.

    These are alpha, alpha + 1 and alpha - 1 as (2, n) rows and alpha - 1
    and 1/2 as (n,) rows, so that no call of the quotient rule takes a
    scalar operand. With n None they are the floats themselves, for one
    robot's scalar inputs.
    """
    values = (alpha, alpha + 1.0, alpha - 1.0, alpha - 1.0, 0.5)
    if n is None:
        return values
    return tuple(np.full((2, n) if i < 3 else n, v)
                 for i, v in enumerate(values))


def _rows(x, index):
    """x[index] of duplicated rows; a float stands for all of them."""
    return x[index] if isinstance(x, np.ndarray) else x


_FIRST_TWO = slice(2)


def _quotient_jet(alpha, rows, gamma, dgamma, lap_gamma, beta, dbeta, ddbeta,
                  value_beta=None):
    """Value, gradient, Hessian and e of phi = gamma / (gamma^a + beta)^(1/a).

    Gradients come as (x, y) along the first axis, and ``ddbeta``, the
    Hessian of beta, as (xx, yy, xy); the Hessian of gamma is lap_gamma * I
    for both potentials. ``rows`` are ``quotient_rows(alpha, n)``. Over n
    robots gamma comes three times, as (3, n) rows, and lap_gamma and beta
    twice, so that every call combines operands of one shape; for one robot
    they are floats. With e = a * (gamma^a + beta)^(1/a + 1) and
    N = a beta grad gamma - gamma grad beta: grad phi = N / e,
    hess phi = (grad N - grad phi grad e^T) / e, a symmetric matrix whose
    off-diagonal is averaged against rounding. The value takes
    ``value_beta`` in place of beta when given. The four exponents stay
    scalars: numpy's ``**`` takes fast paths for some scalar exponents that
    an array of them would not. Returns phi, the gradient, the Hessian
    (xx, xy, yy) and e.
    """
    a, a_plus, a_minus, a_minus_row, half = rows
    gamma_ddbeta = gamma * ddbeta
    gamma = _rows(gamma, _FIRST_TWO)
    inv_alpha = 1.0 / alpha
    gamma_a = gamma ** alpha
    s = gamma_a + beta
    root = s ** inv_alpha
    e = a * s ** (inv_alpha + 1.0)
    ab = a * beta
    f = (ab * dgamma - gamma * dbeta) / e
    # d(gamma^a)/d(gamma) diverges at gamma = 0 for a < 1, where grad gamma
    # vanishes and so does every term it multiplies: take it as 0 there. For
    # a >= 1 it is finite at 0, where it multiplies grad gamma = 0 all the same
    if alpha >= 1.0:
        dpow = a * np.power(gamma, alpha - 1.0)
    else:
        dpow = a * np.power(gamma, alpha - 1.0,
                            out=np.zeros(np.shape(gamma)),
                            where=gamma > 0.0)
    de = (a_plus * root) * (dpow * dgamma + dbeta)
    diag = (a_minus * dgamma * dbeta + ab * lap_gamma - gamma_ddbeta[:2]
            - f * de) / e
    cross = dgamma * dbeta[::-1]  # gx by, gy bx
    fe = f * de[::-1]  # fx ey, fy ex
    e = _rows(e, 0)
    hxy = (half * (a_minus_row * (cross[0] + cross[1]) - fe[0] - fe[1])
           - gamma_ddbeta[2]) / e
    if value_beta is None:
        root = _rows(root, 0)
    else:
        root = (_rows(gamma_a, 0) + value_beta) ** inv_alpha
    return _rows(gamma, 0) / root, f, (diag[0], hxy, diag[1]), e


def _matrix(hess):
    xx, xy, yy = hess
    return np.array([[xx, xy], [xy, yy]])


@dataclass
class GradientBundle:
    """Gradient plus its edgewise decomposition sum m_j * (p - q_j)."""

    gradient: np.ndarray
    edge_weights: tuple[float, ...]  # aligned with the neighbor sequence
    hessian: np.ndarray              # shape (2, 2)
    value: float                     # the potential the gradient law descends


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
    phi, grad, hess, e = _quotient_jet(
        alpha, quotient_rows(alpha), gamma, np.array(dgamma),
        2.0 * len(neighbor_positions), beta, np.array(dbeta),
        _diagonal_first(ddbeta))
    ms = tuple((2.0 * alpha * beta - gamma * beta * t) / e for t in slopes)
    return GradientBundle(gradient=np.array(grad), edge_weights=ms,
                          hessian=_matrix(hess), value=phi)


def _diagonal_first(hess):
    """A Hessian (xx, xy, yy) as the quotient rule's (xx, yy, xy)."""
    xx, xy, yy = hess
    return np.array([xx, yy, xy])


def _leader_jet(position, cfg):
    """Gradient and Hessian of the informed robot's dipolar potential."""
    gamma, dgamma, lap, beta, dbeta, ddbeta = JetKernel(cfg).leader_terms(
        position)
    alpha = cfg.field_exponent
    _, grad, hess, _ = _quotient_jet(alpha, quotient_rows(alpha), gamma,
                                     np.array(dgamma), lap, beta,
                                     np.array(dbeta), _diagonal_first(ddbeta))
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
    follow the selected gradient law. In "full" mode the law's quotient is
    that potential, so one walk over the neighbors gives all three; only
    "paper" mode walks them again, in ``navfunc_follower``.
    """
    bundle = grad_navfunc_follower(position, neighbor_positions, region,
                                   cfg, gradient_mode)
    value = bundle.value
    if gradient_mode != "full":
        value = navfunc_follower(position, neighbor_positions, region, cfg)
    return FieldEval(value=value, gradient=bundle.gradient,
                     hessian=bundle.hessian)


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

    A step's cost is numpy's fixed cost per call, so every call combines
    arrays of one shape: each scalar operand is held as a row of its
    partner's shape, a quantity combined with (x, y) rows is written twice
    where it is made, and every view of the work arrays is bound once.
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
        # b(d) = logistic(k_b (R - buffer/2 - d)) and B(d) = logistic(k_c (d
        # - margin/2)), with log-derivatives l1 = c1 (1 - s) and l2 = c2 s
        # (1 - s). Each is logistic(-y) of y = (d - center) gain: B's gain
        # is -k_c. (center, gain, c1, c2) of each factor:
        b = (cfg.sensing_radius - 0.5 * cfg.connectivity_buffer, k_b,
             -k_b, -k_b * k_b)
        c = (self.rim_shift, -k_c, k_c, -(k_c * k_c))
        # the factor rows of each region, avoiding or not. The first two
        # rows give the law's derivatives: without avoidance [b, b], one
        # factor twice; while avoiding in "full" mode [b, B], summed with
        # their reverse to [b + B, B + b]; in "paper" mode [b, b, B], whose
        # third row enters the value only
        self.factor_rows = {False: (b, b), True: (b, c) if self.full
                            else (b, b, c)}
        if mask is None:
            mask = np.zeros((1, 1), dtype=bool)
        n = len(mask)
        self.rows = quotient_rows(cfg.field_exponent, n)
        # per robot, the quotient inputs in rows 11-23: gamma three times,
        # grad gamma, beta twice, grad beta, hess beta (xx, yy, xy) and the
        # value's beta. The followers' segment sums fill rows 0-13 of their
        # columns, the last three being gamma
        q = self.inputs = np.empty((24, n))
        self.leader_inputs = q[11:, 0]
        self.gamma, self.dgamma = q[11:14], q[14:16]
        self.beta, self.dbeta = q[16:18], q[18:20]
        self.ddbeta, self.value_beta = q[20:23], q[23]
        # the followers' columns: sums of g = sum t_j (p - q_j) (x, y), the
        # curvature sums (xx, yy) and (xy), sum t_j twice, sum (p - q_j)
        # twice and gamma; then the inputs made from them
        f = q[:, 1:]
        self.sums, self.g_sums, self.gx, self.gy = f[:14], f[0:2], f[0], f[1]
        self.curv_sums, self.xy_sums = f[2:4], f[4]
        self.slope_sums, self.offset_sums = f[5:7], f[7:9]
        self.f_dgamma, self.f_beta, self.f_beta0 = f[14:16], f[16:18], f[16]
        self.f_dbeta, self.f_diag, self.f_xy = f[18:20], f[20:22], f[22]
        self.f_value_beta = f[23]
        # index of each robot pair {i, j} among the upper pairs (a, b), a < b,
        # in np.triu_indices order: the order of a call's offsets and distances
        upper = np.triu_indices(n, 1)
        self.n_pairs = len(upper[0])
        self.pair_index = np.zeros((n, n), dtype=np.intp)
        self.pair_index[upper] = self.pair_index.T[upper] = np.arange(
            self.n_pairs)
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
        lap = 2.0 * np.concatenate(([1], degree))
        self.lap = np.array([lap, lap])
        rows, cols = np.nonzero(mask[1:])
        rows += 1
        pair = self.pair_index[rows, cols]
        self.starts = np.concatenate(([0], np.cumsum(degree)[:-1]))
        n_edges = len(rows)
        # gathers from the flat (2, P) offsets and the (P,) distances: each
        # edge's offset as (x, y, x, y), and its distance once per factor row
        self.offset_at = np.tile([pair, pair + self.n_pairs], (2, 1))
        n_factors = max(len(f) for f in self.factor_rows.values())
        self.dist_at = np.tile(pair, (n_factors, 1))
        self.sign = np.tile(np.where(rows < cols, 1.0, -1.0), (4, 1))
        self.floor = np.full((2, n_edges), DISTANCE_FLOOR)
        # per edge: the distance once per factor row, each region's
        # (distance, center, gain, -0.0, one) rows of its factors and
        # (c1, c2, one) rows of the first two
        self.dist_rows = np.empty((n_factors, n_edges))
        self.d2 = self.dist_rows[:2]
        self.per_edge = {}
        for avoid, factors in self.factor_rows.items():
            const = np.array(factors).T[:, :, None].repeat(n_edges, axis=2)
            center, gain, c1, c2 = const
            one = np.ones(center.shape)
            self.per_edge[avoid] = (self.dist_rows[:len(factors)], center,
                                    gain, np.full(center.shape, -0.0), one,
                                    c1[:2], c2[:2], one[:2])
        # per follower, the products of b and of B; per edge, the law's l1
        # and l2 (their rows reversed in a view, and summed), w, w (p - q_j)
        # and the squares of the offset rows
        self.factors = np.empty((2, len(self.starts)))
        self.factors_reversed = self.factors[::-1]
        self.l = np.empty((2, 2, n_edges))
        self.l_reversed = self.l[:, ::-1]
        self.l_summed = np.empty((2, 2, n_edges))
        self.l_rows, self.l_summed_rows = tuple(self.l), tuple(self.l_summed)
        self.w = np.empty((2, n_edges))
        self.wm = np.empty((2, n_edges))
        self.square = np.empty((4, n_edges))
        self.square_head, self.square_tail = self.square[:3], self.square[1:]
        # the edge terms whose segment sums make the jet, in the order of
        # ``sums``: t_j (p - q_j), w_j (x x, y y), w_j x y, t_j twice,
        # p - q_j twice, as (x, y, x, y), and |p - q_j|^2 three times
        terms = self.terms = np.empty((14, n_edges))
        self.g_terms, self.curv_terms, self.xy_terms = (terms[0:2],
                                                        terms[2:4], terms[4])
        self.t, self.m4, self.gamma_terms = terms[5:7], terms[7:11], terms[11:]
        self.m = self.m4[:2]
        self.wm_x, self.m_y = self.wm[0], self.m[1]

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

    def __call__(self, position, offsets: np.ndarray, dist: np.ndarray,
                 region: RegionFlag):
        """phi, gradient (x, y) and Hessian (xx, xy, yy) of every robot.

        ``position`` is the informed robot's (x, y), best as floats;
        ``offsets`` (2, P) holds p_a - p_b and ``dist`` (P,) the distance of
        each upper pair (a, b), a < b, in the order of np.triu_indices.
        Follower i gathers only the pairs of its own edges, which keeps the
        law decentralized. Each edge's b(d) and B(d) are evaluated once and
        serve both the reported value (the regional potential) and the
        derivatives of the selected gradient law, by the formulas of
        ``fields.follower_terms``.
        """
        gamma, (gx, gy), _, beta, (bx, by), (hxx, hxy, hyy) = (
            self.leader_terms(position))
        self.leader_inputs[:] = (gamma, gamma, gamma, gx, gy, beta, beta,
                                 bx, by, hxx, hyy, hxy, beta)
        avoid = region is RegionFlag.COLLISION_FREE
        value_differs = avoid and not self.full
        if self.inputs.shape[1] > 1:
            self._followers(offsets, dist, avoid)
        phi, grad, hess, _ = _quotient_jet(
            self.cfg.field_exponent, self.rows, self.gamma, self.dgamma,
            self.lap, self.beta, self.dbeta, self.ddbeta,
            self.value_beta if value_differs else None)
        # row 0 logs the scalar navigation function's value: the traced
        # benchmark (rendezbench/run.py) divides by that function's calls
        phi[0] = navfunc_leader(position, self.cfg)
        return phi, grad, hess

    def _followers(self, offsets, dist, avoid):
        """Fill columns 1.. of the quotient inputs from the edge factors."""
        m, d2, starts = self.m, self.d2, self.starts
        offsets.take(self.offset_at, out=self.m4, mode="clip")
        self.m4 *= self.sign
        dist.take(self.dist_at, out=self.dist_rows, mode="clip")
        dist_rows, center, gain, minus_zero, one, c1, c2, one2 = (
            self.per_edge[avoid])
        y = dist_rows - center
        y *= gain
        s = logistic_negated(y, minus_zero, one)
        beta = self.f_beta
        if not avoid:  # [b, b]: beta twice
            np.multiply.reduceat(s, starts, axis=-1, out=beta)
        elif self.full:  # [b, B]: beta = (prod b)(prod B), twice
            np.multiply.reduceat(s, starts, axis=-1, out=self.factors)
            np.multiply(self.factors, self.factors_reversed, out=beta)
        else:  # [b, b, B]: the law's beta = prod b, the value's times prod B
            factors = np.multiply.reduceat(s, starts, axis=-1)
            beta[...] = factors[:2]
            np.multiply(factors[0], factors[2], out=self.f_value_beta)
            s = s[:2]
        one_minus = one2 - s
        l1, l2 = self.l_rows
        np.multiply(c1, one_minus, out=l1)
        np.multiply(np.multiply(c2, s), one_minus, out=l2)
        if avoid and self.full:
            # b's and B's terms in either order: + is commutative bit for bit
            np.add(self.l, self.l_reversed, out=self.l_summed)
            l1, l2 = self.l_summed_rows
        # edge slopes l_j / d_j and curvatures, each twice; edges under the
        # floor add none, and a NaN distance takes the masked divides too
        t, w = self.t, self.w
        near = d2 >= self.floor
        if np.count_nonzero(near) == near.size:
            np.divide(l1, d2, out=t)
            np.divide(l2 - t, d2 * d2, out=w)
        else:
            t.fill(0.0)
            w.fill(0.0)
            np.divide(l1, d2, out=t, where=near)
            np.divide(l2 - t, d2 * d2, out=w, where=near)
        np.multiply(t, m, out=self.g_terms)
        np.multiply(w, m, out=self.wm)
        np.multiply(self.wm, m, out=self.curv_terms)
        np.multiply(self.wm_x, self.m_y, out=self.xy_terms)
        np.multiply(self.m4, self.m4, out=self.square)
        # x^2 + y^2 three times over: + is commutative bit for bit
        np.add(self.square_head, self.square_tail, out=self.gamma_terms)
        # one segment per follower: the sums, then the quotient inputs
        # gamma, 2 sum (p - q_j) (as a sum of two, exactly), beta g and
        # beta (g g^T + curvature)
        np.add.reduceat(self.terms, starts, axis=-1, out=self.sums)
        curv = self.curv_sums
        np.add(curv, self.slope_sums, out=curv)
        np.add(self.offset_sums, self.offset_sums, out=self.f_dgamma)
        g = self.g_sums
        np.multiply(beta, g, out=self.f_dbeta)
        diag, xy = self.f_diag, self.f_xy
        np.multiply(g, g, out=diag)
        np.add(diag, curv, out=diag)
        np.multiply(diag, beta, out=diag)
        np.multiply(self.gx, self.gy, out=xy)
        np.add(xy, self.xy_sums, out=xy)
        np.multiply(xy, self.f_beta0, out=xy)

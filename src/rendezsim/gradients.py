"""Analytic gradients, Hessians and edge weights of the potentials.

A follower descends the exact gradient of the regional potential that is
logged, stated for one follower by ``fields.follower_terms``: the collision
factors enter it while collision avoidance is active, the edge-keeping
factors always. The gradient decomposes edgewise as ``sum m_j * (p - q_j)``
with weights that are nonnegative whenever the collision factors are absent.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fields import (DISTANCE_FLOOR, FieldEval, follower_terms,
                     leader_constants, leader_terms, logistic_negated,
                     navfunc_leader, sigmoid_gain)
from .model import RegionFlag, ScenarioConfig
# not called here: rendezbench/tracing.py wraps these names
from .fields import (navfunc_follower, sigmoid_collision,  # noqa: F401
                     sigmoid_connectivity)

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


class QuotientWork:
    """Preallocated rows for ``_quotient_jet`` calls on the given inputs.

    It binds once every view the rule reads: the first two rows of
    ``gamma``, ``dbeta`` reversed and the rows of its own temporaries. Over
    n robots every quantity the rule combines with (x, y) rows is held
    twice, as the inputs are. For one robot's floats (``gamma`` a float,
    ``dbeta`` of shape (2,)) those quantities are 0-d, and s is left to
    the rule, whose exponents must see a float: a numpy power over an
    array rounds differently from the C library's.
    """

    def __init__(self, gamma, dbeta):
        one = np.shape(gamma)[1:]
        pair, twice = (2, *one), (2, *one) if one else ()
        self.gamma = gamma[:2] if one else gamma
        self.dbeta_reversed = dbeta[::-1]
        self.gamma_ddbeta = np.empty((3, *one))
        self.gamma_diag = self.gamma_ddbeta[:2]
        self.gamma_xy = self.gamma_ddbeta[2, ...]
        self.s = np.empty(twice) if one else None
        self.e, self.ab, self.a_root, self.dpow, self.phi = (
            np.empty(twice) for _ in range(5))
        self.e_row = self.e[0, ...] if one else self.e
        self.phi_row = self.phi[0, ...] if one else self.phi
        self.f, self.de, self.diag, self.cross, self.fe, self.scratch = (
            np.empty(pair) for _ in range(6))
        self.de_reversed = self.de[::-1]
        self.cross_x, self.cross_y = self.cross[0, ...], self.cross[1, ...]
        self.fe_x, self.fe_y = self.fe[0, ...], self.fe[1, ...]
        self.hxy = np.empty(one)
        self.hess = (self.diag[0, ...], self.hxy, self.diag[1, ...])


def _quotient_jet(alpha, rows, gamma, dgamma, lap_gamma, beta, dbeta, ddbeta,
                  work=None):
    """Value, gradient, Hessian and e of phi = gamma / (gamma^a + beta)^(1/a).

    Gradients come as (x, y) along the first axis, and ``ddbeta``, the
    Hessian of beta, as (xx, yy, xy); the Hessian of gamma is lap_gamma * I
    for both potentials. ``rows`` are ``quotient_rows(alpha, n)``. Over n
    robots gamma comes three times, as (3, n) rows, and lap_gamma and beta
    twice, so that every call combines operands of one shape; for one robot
    they are floats. With e = a * (gamma^a + beta)^(1/a + 1) and
    N = a beta grad gamma - gamma grad beta: grad phi = N / e,
    hess phi = (grad N - grad phi grad e^T) / e, a symmetric matrix whose
    off-diagonal is averaged against rounding. The four exponents stay
    scalars: numpy's ``**`` takes fast paths for some scalar exponents that
    an array of them would not. Every intermediate goes into ``work``, a
    ``QuotientWork`` of these very ``gamma`` and ``dbeta``, made when none
    is given. Returns phi, the gradient, the Hessian (xx, xy, yy) and e,
    rows of ``work``.
    """
    w = QuotientWork(gamma, dbeta) if work is None else work
    a, a_plus, a_minus, a_minus_row, half = rows
    np.multiply(gamma, ddbeta, out=w.gamma_ddbeta)
    gamma, scratch = w.gamma, w.scratch
    inv_alpha = 1.0 / alpha
    s = np.add(gamma ** alpha, beta, out=w.s)
    root = s ** inv_alpha
    e = np.multiply(a, s ** (inv_alpha + 1.0), out=w.e)
    ab = np.multiply(a, beta, out=w.ab)
    f = np.multiply(ab, dgamma, out=w.f)
    np.subtract(f, np.multiply(gamma, dbeta, out=scratch), out=f)
    np.divide(f, e, out=f)
    # d(gamma^a)/d(gamma) diverges at gamma = 0 for a < 1, where grad gamma
    # vanishes and so does every term it multiplies: take it as 0 there. For
    # a >= 1 it is finite at 0, where it multiplies grad gamma = 0 all the same
    dpow = w.dpow
    if alpha >= 1.0:
        np.power(gamma, alpha - 1.0, out=dpow)
    else:
        dpow[...] = 0.0
        np.power(gamma, alpha - 1.0, out=dpow, where=gamma > 0.0)
    np.multiply(a, dpow, out=dpow)
    de = np.multiply(dpow, dgamma, out=w.de)
    np.add(de, dbeta, out=de)
    np.multiply(np.multiply(a_plus, root, out=w.a_root), de, out=de)
    diag = np.multiply(a_minus, dgamma, out=w.diag)
    np.multiply(diag, dbeta, out=diag)
    np.add(diag, np.multiply(ab, lap_gamma, out=scratch), out=diag)
    np.subtract(diag, w.gamma_diag, out=diag)
    np.subtract(diag, np.multiply(f, de, out=scratch), out=diag)
    np.divide(diag, e, out=diag)
    np.multiply(dgamma, w.dbeta_reversed, out=w.cross)  # gx by, gy bx
    np.multiply(f, w.de_reversed, out=w.fe)  # fx ey, fy ex
    hxy = np.add(w.cross_x, w.cross_y, out=w.hxy)
    np.multiply(a_minus_row, hxy, out=hxy)
    np.subtract(hxy, w.fe_x, out=hxy)
    np.subtract(hxy, w.fe_y, out=hxy)
    np.multiply(half, hxy, out=hxy)
    np.subtract(hxy, w.gamma_xy, out=hxy)
    np.divide(hxy, w.e_row, out=hxy)
    np.divide(gamma, root, out=w.phi)  # phi twice over, like gamma
    return w.phi_row, f, w.hess, w.e_row


def _matrix(hess):
    xx, xy, yy = hess
    return np.array([[xx, xy], [xy, yy]])


@dataclass
class GradientBundle:
    """Gradient plus its edgewise decomposition sum m_j * (p - q_j)."""

    gradient: np.ndarray
    edge_weights: tuple[float, ...]  # aligned with the neighbor sequence
    hessian: np.ndarray              # shape (2, 2)
    value: float                     # the regional potential, as logged


# scalar reference, kept in src/ because rendezbench/tracing.py wraps it
def grad_navfunc_follower(position: np.ndarray,
                          neighbor_positions: Sequence[np.ndarray],
                          region: RegionFlag,
                          cfg: ScenarioConfig) -> GradientBundle:
    """Quotient-rule gradient and Hessian of the regional follower potential.

    Edge weights
    m_j = (2 * alpha * beta - gamma * w_j) / (alpha * (gamma^a + beta)^(1/a+1))
    where w_j = beta * slope_j are the constraint edge weights; the two
    representations agree by construction. With the collision factors absent,
    w_j <= 0 and every m_j is nonnegative.
    """
    alpha = cfg.field_exponent
    gamma, dgamma, beta, dbeta, ddbeta, slopes = follower_terms(
        position, neighbor_positions, region, cfg)
    phi, grad, hess, e = _quotient_jet(
        alpha, quotient_rows(alpha), gamma, np.array(dgamma),
        2.0 * len(neighbor_positions), beta, np.array(dbeta),
        _diagonal_first(ddbeta))
    ms = tuple((2.0 * alpha * beta - gamma * beta * t) / e for t in slopes)
    return GradientBundle(gradient=np.array(grad), edge_weights=ms,
                          hessian=_matrix(hess), value=float(phi))


def _diagonal_first(hess):
    """A Hessian (xx, xy, yy) as the quotient rule's (xx, yy, xy)."""
    xx, xy, yy = hess
    return np.array([xx, yy, xy])


def _leader_jet(position, cfg):
    """Gradient and Hessian of the informed robot's dipolar potential."""
    gamma, dgamma, beta, dbeta, ddbeta = leader_terms(position, cfg)
    alpha = cfg.field_exponent
    _, grad, hess, _ = _quotient_jet(alpha, quotient_rows(alpha), gamma,
                                     np.array(dgamma), 2.0, beta,
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
                        region: RegionFlag, cfg: ScenarioConfig) -> FieldEval:
    """Bundle value, analytic gradient and Hessian for a follower.

    The gradient's quotient is the regional potential itself, so one walk
    over the neighbors gives all three.
    """
    bundle = grad_navfunc_follower(position, neighbor_positions, region, cfg)
    return FieldEval(value=bundle.value, gradient=bundle.gradient,
                     hessian=bundle.hessian)


class JetKernel:
    """Value, gradient and Hessian of every robot's potential, one pass a step.

    Built once per run from the scenario and the (n, n) sensing mask: it
    holds the sigmoid gains and shifts and the followers' sensed edges,
    which only ``set_mask`` changes. Row 0 is the informed robot: its
    quotient inputs come from ``fields.leader_terms`` and fill column 0 of
    the input rows. The followers' fill the others, from one pass over the
    edge list, and one ``_quotient_jet`` call covers all of them.

    A step's cost is numpy's fixed cost per call, so every call combines
    arrays of one shape: each scalar operand is held as a row of its
    partner's shape, a quantity combined with (x, y) rows is written twice
    where it is made, every temporary has a preallocated row (the edge
    pass's here, rebuilt with the edge list; the quotient rule's in a
    ``QuotientWork`` of the input rows) and every view is bound once. The
    informed robot's scenario constants (``fields.leader_constants``) are
    computed once. A call returns rows of the kernel, valid until the next.
    """

    def __init__(self, cfg: ScenarioConfig, mask: np.ndarray):
        self.cfg = cfg
        self.leader_const = leader_constants(cfg)
        eps = cfg.sigmoid_eps
        k_b = sigmoid_gain(cfg.connectivity_buffer, eps)
        k_c = sigmoid_gain(cfg.collision_margin, eps)
        # b(d) = logistic(k_b (R - buffer/2 - d)) and B(d) = logistic(k_c (d
        # - margin/2)), with log-derivatives l1 = c1 (1 - s) and l2 = c2 s
        # (1 - s). Each is logistic(-y) of y = (d - center) gain: B's gain
        # is -k_c. (center, gain, c1, c2) of each factor:
        b = (cfg.sensing_radius - 0.5 * cfg.connectivity_buffer, k_b,
             -k_b, -k_b * k_b)
        c = (0.5 * cfg.collision_margin, -k_c, k_c, -(k_c * k_c))
        # the two factor rows of each region, avoiding or not: without
        # avoidance [b, b], one factor twice; while avoiding [b, B], whose
        # log-derivatives are summed with their reverse to [b + B, B + b]
        self.factor_rows = {False: (b, b), True: (b, c)}
        n = len(mask)
        self.rows = quotient_rows(cfg.field_exponent, n)
        # per robot, the quotient inputs in rows 11-22: gamma three times,
        # grad gamma, beta twice, grad beta and hess beta (xx, yy, xy). The
        # followers' segment sums fill rows 0-13 of their columns, the last
        # three being gamma
        q = self.inputs = np.empty((23, n))
        self.leader_inputs = q[11:, 0]
        self.gamma, self.dgamma = q[11:14], q[14:16]
        self.beta, self.dbeta = q[16:18], q[18:20]
        self.ddbeta = q[20:23]
        self.quotient = QuotientWork(self.gamma, self.dbeta)
        # the followers' columns: sums of g = sum t_j (p - q_j) (x, y), the
        # curvature sums (xx, yy) and (xy), sum t_j twice, sum (p - q_j)
        # twice and gamma; then the inputs made from them
        f = q[:, 1:]
        self.sums, self.g_sums, self.gx, self.gy = f[:14], f[0:2], f[0], f[1]
        self.curv_sums, self.xy_sums = f[2:4], f[4]
        self.slope_sums, self.offset_sums = f[5:7], f[7:9]
        self.f_dgamma, self.f_beta, self.f_beta0 = f[14:16], f[16:18], f[16]
        self.f_dbeta, self.f_diag, self.f_xy = f[18:20], f[20:22], f[22]
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
        self.dist_at = np.tile(pair, (2, 1))
        self.sign = np.tile(np.where(rows < cols, 1.0, -1.0), (4, 1))
        self.floor = np.full((2, n_edges), DISTANCE_FLOOR)
        # per edge: the distance once per factor row, -0.0 and one rows, and
        # each region's (center, gain, c1, c2) rows of its factors
        self.dist_rows = np.empty((2, n_edges))
        self.minus_zero = np.full((2, n_edges), -0.0)
        self.one = np.ones((2, n_edges))
        self.per_edge = {}
        for avoid, factors in self.factor_rows.items():
            const = np.array(factors).T[:, :, None].repeat(n_edges, axis=2)
            self.per_edge[avoid] = tuple(const)
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
        # per edge and factor row: the logistic's argument, 1 - s, d^2,
        # l2 - t and the floor screen
        self.y, self.one_minus, self.dist_squared, self.curvature_top = (
            np.empty((2, n_edges)) for _ in range(4))
        self.near = np.empty((2, n_edges), dtype=bool)
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

    def __call__(self, position, offsets: np.ndarray, dist: np.ndarray,
                 region: RegionFlag):
        """phi, gradient (x, y) and Hessian (xx, xy, yy) of every robot.

        ``position`` is the informed robot's (x, y), best as floats;
        ``offsets`` (2, P) holds p_a - p_b and ``dist`` (P,) the distance of
        each upper pair (a, b), a < b, in the order of np.triu_indices.
        Follower i gathers only the pairs of its own edges, which keeps the
        law decentralized. Each edge's b(d) and B(d) are evaluated once and
        serve both the logged value (the regional potential) and its
        derivatives, by the formulas of ``fields.follower_terms``.
        """
        gamma, (gx, gy), beta, (bx, by), (hxx, hxy, hyy) = leader_terms(
            position, self.cfg, self.leader_const)
        self.leader_inputs[:] = (gamma, gamma, gamma, gx, gy, beta, beta,
                                 bx, by, hxx, hyy, hxy)
        if self.inputs.shape[1] > 1:
            self._followers(offsets, dist,
                            region is RegionFlag.COLLISION_FREE)
        phi, grad, hess, _ = _quotient_jet(
            self.cfg.field_exponent, self.rows, self.gamma, self.dgamma,
            self.lap, self.beta, self.dbeta, self.ddbeta, self.quotient)
        # row 0 logs the scalar navigation function's value: the traced
        # benchmark (rendezbench/run.py) divides by that function's calls
        phi[0] = navfunc_leader(position, self.cfg, self.leader_const)
        return phi, grad, hess

    def _followers(self, offsets, dist, avoid):
        """Fill columns 1.. of the quotient inputs from the edge factors."""
        m, d2, starts = self.m, self.dist_rows, self.starts
        offsets.take(self.offset_at, out=self.m4, mode="clip")
        self.m4 *= self.sign
        dist.take(self.dist_at, out=d2, mode="clip")
        center, gain, c1, c2 = self.per_edge[avoid]
        one = self.one
        y = np.subtract(d2, center, out=self.y)
        y *= gain
        s = logistic_negated(y, self.minus_zero, one)
        beta = self.f_beta
        if avoid:  # [b, B]: beta = (prod b)(prod B), twice
            np.multiply.reduceat(s, starts, axis=-1, out=self.factors)
            np.multiply(self.factors, self.factors_reversed, out=beta)
        else:  # [b, b]: beta twice
            np.multiply.reduceat(s, starts, axis=-1, out=beta)
        one_minus = np.subtract(one, s, out=self.one_minus)
        l1, l2 = self.l_rows
        np.multiply(c1, one_minus, out=l1)
        np.multiply(np.multiply(c2, s, out=l2), one_minus, out=l2)
        if avoid:
            # b's and B's terms in either order: + is commutative bit for bit
            np.add(self.l, self.l_reversed, out=self.l_summed)
            l1, l2 = self.l_summed_rows
        # edge slopes l_j / d_j and curvatures, each twice; edges under the
        # floor add none, and a NaN distance takes the masked divides too
        t, w, top = self.t, self.w, self.curvature_top
        near = np.greater_equal(d2, self.floor, out=self.near)
        square = np.multiply(d2, d2, out=self.dist_squared)
        if np.count_nonzero(near) == near.size:
            np.divide(l1, d2, out=t)
            np.divide(np.subtract(l2, t, out=top), square, out=w)
        else:
            t.fill(0.0)
            w.fill(0.0)
            np.divide(l1, d2, out=t, where=near)
            np.divide(np.subtract(l2, t, out=top), square, out=w, where=near)
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

"""Analytic gradients, Hessians and edge weights of the potentials.

A follower descends the exact gradient of the regional potential that is
logged, stated for one follower by ``fields.follower_terms``: the collision
factors enter it while collision avoidance is active, the edge-keeping
factors always. The gradient decomposes edgewise as ``sum m_j * (p - q_j)``
with weights that are nonnegative whenever the collision factors are absent.
"""

import math
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .fields import (DISTANCE_FLOOR, FieldEval, edge_factors, follower_terms,
                     leader_constants, leader_terms, logistic_negated,
                     navfunc_leader, potential)
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


def exponent_row(exponent: float, size: int) -> np.ndarray:
    """``exponent`` as a read-only (size,) row of stride 0, for a flat base.

    numpy's power loop sees the zero stride of a scalar exponent, so it
    keeps the square, sqrt and reciprocal paths of 2, 1/2 and -1: the
    power equals ``np.power(x, exponent, out)`` bit for bit, which a full
    row of exponents would not, and costs less, as numpy converts a scalar
    on every call. A two-dimensional stride-0 operand is slower. The row is
    float even for an int exponent, such as a ``field_exponent`` of 2 set
    in code: numpy would cast an int row into a buffer of stride 8, and
    its general power loop then misses the square path by an ulp.
    """
    return np.broadcast_to(np.array(float(exponent)), (size,))


class Rows:
    """The names of the rows of a C-contiguous block.

    A run of names, one space-separated string, finds the first rows where
    it occurs, so that one call can take several quantities, repeated or
    reordered as it needs them, as one (k, n) operand. Runs once found are
    remembered: the layouts are constants, and a kernel binds its views
    once per run.
    """

    def __init__(self, *runs: str):
        self.names = " ".join(runs).split()
        self.text = f" {' '.join(self.names)} "
        self.found = {}

    def at(self, run: str) -> slice:
        if run not in self.found:
            start = self.text.find(f" {run} ")
            if start < 0:
                raise KeyError(run)
            row = self.text.count(" ", 0, start)
            self.found[run] = slice(row, row + len(run.split()))
        return self.found[run]

    def view(self, block: np.ndarray, run: str) -> np.ndarray:
        """The rows of ``run`` in ``block``; one name gives one row."""
        at = self.at(run)
        return block[at] if at.stop - at.start > 1 else block[at.start]


class QuotientWork:
    """Every row that ``_quotient_jet`` reads or writes, for n robots.

    Each block's rows are named (``Rows``), each quantity repeated and
    ordered as the fused calls take it. The rule's inputs are ``inputs``:
    gamma as G, its gradient as (dgx, dgy), lap_gamma as L, beta as B, its
    gradient as (dbx, dby) and its Hessian as (hxx, hyy, hxy); the rule
    writes dp and h0, and a, am, ap and half hold alpha, alpha - 1, alpha +
    1 and 1/2. The rows of ``changing`` are the ones that ``load`` writes,
    or that the step kernel fills. The four powers take flat views of
    their blocks and their exponents as ``exponent_row``s: alpha, 1/alpha,
    1/alpha + 1 and alpha - 1, in ``exponents``.
    """

    INPUTS = Rows("a a a a am am dgy dgx G G G G G",
                  "B B B B dgx dgy dbx dby dbx dby hxx hyy hxy",
                  "dp dp dp dgx dgy L L dbx dby h0 dgx dgy dgx",
                  "ap ap ap half")
    # the first product's: a B four times, am (dgx, dgy), the cross terms
    # dgy dbx and dgx dby, gamma (dbx, dby) and gamma times the Hessian;
    # a three times before them, for the second product
    FIRST = Rows("a a a ab ab ab ab d0x d0y cry crx gdbx gdby gdxx gdyy gdxy")
    # the second product's: a dp three times, ab (dgx, dgy), ab L twice and
    # d0 (dbx, dby); am before them, for the third
    SECOND = Rows("am dpa dpa dpa f0x f0y ablx ably d1x d1y")
    # f, the diagonal's numerator (x, y), the off-diagonal's, and de
    # (x, y, x); then f de (x, y) and f times de reversed
    THIRD = Rows("fx fy dx dy h dex dey dex")
    FE = Rows("fdex fdey fex fey")

    def __init__(self, alpha: float, n: int):
        self.alpha = alpha
        constants = {"a": alpha, "am": alpha - 1.0, "ap": alpha + 1.0,
                     "half": 0.5}
        layouts = (self.INPUTS, self.FIRST, self.SECOND, self.THIRD, self.FE)
        blocks = [np.empty((len(rows.names), n)) for rows in layouts]
        for rows, block in zip(layouts, blocks):
            for i, name in enumerate(rows.names):
                if name in constants:
                    block[i] = constants[name]
        self.inputs = blocks[0]
        q, p, c, x, fe = (partial(rows.view, block)
                          for rows, block in zip(layouts, blocks))
        self.changing = slice(6, len(self.INPUTS.names) - 4)
        self.first = (q("a a a a am am dgy dgx G G G G G"),
                      q("B B B B dgx dgy dbx dby dbx dby hxx hyy hxy"),
                      p("ab ab ab ab d0x d0y cry crx gdbx gdby gdxx gdyy "
                        "gdxy"))
        self.gamma3, self.beta3 = q("G G G"), q("B B B")
        self.gamma, self.dp, self.h0 = q("G"), q("dp dp dp"), q("h0")
        self.a3, self.ap3, self.half = q("a a a"), q("ap ap ap"), q("half")
        self.s, self.root, self.e, self.ar = (np.empty((3, n))
                                              for _ in range(4))
        self.e2, self.e_row, self.root_row = (self.e[:2], self.e[0],
                                              self.root[0])
        self.second = (p("a a a ab ab ab ab d0x d0y"),
                       q("dp dp dp dgx dgy L L dbx dby"),
                       c("dpa dpa dpa f0x f0y ablx ably d1x d1y"))
        self.d1, self.abl = c("d1x d1y"), c("ablx ably")
        self.f0_d2, self.gdb_gd = c("f0x f0y ablx ably"), p(
            "gdbx gdby gdxx gdyy")
        self.crx, self.cry, self.gdxy = p("crx"), p("cry"), p("gdxy")
        self.f_d, self.f = x("fx fy dx dy"), x("fx fy")
        self.third = (c("am dpa dpa dpa"), q("h0 dgx dgy dgx"),
                      x("h dex dey dex"))
        self.de, self.de_xy, self.de_yx = (x("dex dey dex"), x("dex dey"),
                                           x("dey dex"))
        self.dbeta3 = q("dbx dby dbx")
        self.fde, self.fe_yx = fe("fdex fdey"), fe("fex fey")
        self.d_h, self.h = x("dx dy h"), x("h")
        self.fde_fex, self.fey = fe("fdex fdey fex"), fe("fey")
        self.hess_rows = np.empty((3, n))
        self.hess = (self.hess_rows[0], self.hess_rows[2], self.hess_rows[1])
        self.phi = np.empty(n)
        # the powers' bases and results, flat; their exponents as rows
        flat = 3 * n
        (self.gamma_flat, self.s_flat, self.root_flat, self.e_flat,
         self.dp_flat) = (x.reshape(flat, copy=False) for x in (
             self.gamma3, self.s, self.root, self.e, self.dp))
        inv_alpha = 1.0 / alpha
        self.exponents = tuple(exponent_row(x, flat) for x in (
            alpha, inv_alpha, inv_alpha + 1.0, alpha - 1.0))
        if alpha < 1.0:
            # dp's mask, gamma > 0, against a zero row, which dp copies
            self.zero = np.zeros(flat)
            self.positive = np.empty(flat, dtype=bool)

    def load(self, gamma, dgamma, lap, beta, dbeta, ddbeta):
        """Write the inputs, each a float or an (n,) row: gamma, lap, beta,
        the gradients (x, y) and beta's Hessian (xx, xy, yy). Returns self."""
        values = {"G": gamma, "dgx": dgamma[0], "dgy": dgamma[1], "L": lap,
                  "B": beta, "dbx": dbeta[0], "dby": dbeta[1],
                  "hxx": ddbeta[0], "hxy": ddbeta[1], "hyy": ddbeta[2]}
        for i, name in enumerate(self.INPUTS.names):
            if name in values:
                self.inputs[i] = values[name]
        return self


def _quotient_jet(w: QuotientWork):
    """Value, gradient, Hessian and e of phi = gamma / (gamma^a + beta)^(1/a).

    The inputs are the rows of ``w.inputs``. With
    e = a * (gamma^a + beta)^(1/a + 1) and N = a beta grad gamma - gamma
    grad beta: grad phi = N / e, hess phi = (grad N - grad phi grad e^T)
    / e, a symmetric matrix whose off-diagonal is averaged against
    rounding. Each call applies one ufunc to a block of rows: products of
    one level go into one call, so the order of operations of each element
    is that of the formula, and a quantity paired with (x, y) and with
    (y, x) is held as (x, y, x). Every call passes its output
    positionally, and the four powers take flat rows and stride-0
    exponents (``exponent_row``). Returns phi, the gradient (x, y), the
    Hessian (xx, xy, yy) and e, rows of ``w``.
    """
    alpha, inv_alpha, inv_alpha_plus, alpha_minus = w.exponents
    gamma_flat, s_flat = w.gamma_flat, w.s_flat
    np.multiply(*w.first)
    # s = gamma^a + beta, root = s^(1/a) and e = a s^(1/a + 1)
    np.power(gamma_flat, alpha, s_flat)
    np.add(w.s, w.beta3, w.s)
    np.power(s_flat, inv_alpha, w.root_flat)
    np.power(s_flat, inv_alpha_plus, w.e_flat)
    root, e = w.root, np.multiply(w.a3, w.e, w.e)
    # d(gamma^a)/d(gamma) diverges at gamma = 0 for a < 1, where grad gamma
    # vanishes and so does every term it multiplies: take it as 0 there. For
    # a >= 1 it is finite at 0, where it multiplies grad gamma = 0 all the same
    if w.alpha >= 1.0:
        np.power(gamma_flat, alpha_minus, w.dp_flat)
    else:
        positive = np.greater(gamma_flat, w.zero, w.positive)
        np.positive(w.zero, w.dp_flat)
        np.power(gamma_flat, alpha_minus, w.dp_flat, where=positive)
    # a dp, ab grad gamma, ab lap and (a - 1) grad gamma * grad beta
    np.multiply(*w.second)
    np.add(w.d1, w.abl, w.abl)
    # f = ab grad gamma - gamma grad beta, and the diagonal's numerator
    # less gamma hess beta
    np.subtract(w.f0_d2, w.gdb_gd, w.f_d)
    f = np.divide(w.f, w.e2, w.f)
    np.add(w.crx, w.cry, w.h0)
    # (a - 1) (gx by + gy bx), and de = (a + 1) root (a dp grad gamma +
    # grad beta), as (x, y, x)
    np.multiply(*w.third)
    de = np.add(w.de, w.dbeta3, w.de)
    np.multiply(np.multiply(w.ap3, root, w.ar), de, de)
    np.multiply(f, w.de_xy, w.fde)
    np.multiply(f, w.de_yx, w.fe_yx)  # fx ey, fy ex
    np.subtract(w.d_h, w.fde_fex, w.d_h)
    h = w.h
    np.subtract(h, w.fey, h)
    np.multiply(w.half, h, h)
    np.subtract(h, w.gdxy, h)
    np.divide(w.d_h, e, w.hess_rows)
    phi = np.divide(w.gamma, w.root_row, w.phi)
    return phi, f, w.hess, w.e_row


def _one_robot_jet(alpha, lap, gamma, dgamma, beta, dbeta, ddbeta):
    """phi, gradient (2,), Hessian (2, 2) and e of one robot, by the step
    kernel's arithmetic: the one column of a ``QuotientWork``."""
    phi, grad, (xx, xy, yy), e = _quotient_jet(QuotientWork(alpha, 1).load(
        gamma, dgamma, lap, beta, dbeta, ddbeta))
    return (float(phi[0]), grad[:, 0],
            np.array([[xx[0], xy[0]], [xy[0], yy[0]]]), e[0])


# scalar reference, kept in src/ because rendezbench/tracing.py wraps it
def grad_navfunc_follower(position: np.ndarray,
                          neighbor_positions: Sequence[np.ndarray],
                          region: RegionFlag,
                          cfg: ScenarioConfig) -> FieldEval:
    """Value, gradient and Hessian of the regional follower potential, and
    the gradient's edgewise decomposition sum m_j * (p - q_j).

    Edge weights
    m_j = (2 * alpha * beta - gamma * w_j) / (alpha * (gamma^a + beta)^(1/a+1))
    where w_j = beta * slope_j are the constraint edge weights; the two
    representations agree by construction. With the collision factors absent,
    w_j <= 0 and every m_j is nonnegative. One walk over the neighbors gives
    all of it: the value is ``fields.potential`` of its gamma and beta.
    """
    alpha = cfg.field_exponent
    gamma, dgamma, beta, dbeta, ddbeta, slopes = follower_terms(
        position, neighbor_positions, region, cfg)
    _, grad, hess, e = _one_robot_jet(alpha, 2.0 * len(neighbor_positions),
                                      gamma, dgamma, beta, dbeta, ddbeta)
    ms = tuple((2.0 * alpha * beta - gamma * beta * t) / e for t in slopes)
    return FieldEval(value=potential(gamma, beta, alpha), gradient=grad,
                     hessian=hess, edge_weights=ms)


# scalar reference, kept in src/ because rendezbench/tracing.py wraps it
def leader_field_eval(position: np.ndarray, cfg: ScenarioConfig) -> FieldEval:
    """Value, analytic gradient and Hessian for the informed robot, all
    three from the quotient rule."""
    phi, grad, hess, _ = _one_robot_jet(cfg.field_exponent, 2.0,
                                        *leader_terms(position, cfg))
    return FieldEval(value=phi, gradient=grad, hessian=hess)


# scalar reference, kept in src/ because rendezbench/tracing.py wraps it
def follower_field_eval(position: np.ndarray,
                        neighbor_positions: Sequence[np.ndarray],
                        region: RegionFlag, cfg: ScenarioConfig) -> FieldEval:
    """Value, analytic gradient and Hessian for a follower, from one walk
    over its neighbors (``grad_navfunc_follower``)."""
    return grad_navfunc_follower(position, neighbor_positions, region, cfg)


class JetKernel:
    """Value, gradient and Hessian of every robot's potential, one pass a step.

    Built once per run from the scenario and the (n, n) sensing mask: it
    holds the followers' sensed edges, which only ``set_mask`` changes, and
    their factors' constants, which ``drop_avoidance`` switches once. Row 0
    is the informed robot, whose quotient inputs come from
    ``fields.leader_terms``. The followers' come from one pass over the
    edge list: the edge terms of each follower are summed over its segment,
    and a few calls over whole rows turn the sums into the inputs. One take
    then spreads every robot's inputs over the rows of a ``QuotientWork``,
    and one ``_quotient_jet`` call covers all.

    A step's cost is numpy's fixed cost per call, so each call applies one
    ufunc to one C-contiguous block that holds every operand it can take:
    a scalar operand is a row of its partner's shape, independent products
    of one level share a call, a quantity paired with several others is
    repeated in rows, every temporary has a preallocated row (the edge
    pass's here, rebuilt with the edge list) and every view is bound once.
    The informed robot's scenario constants (``fields.leader_constants``)
    are computed once. A call returns rows of the kernel, valid until the
    next.
    """

    # the per-robot inputs before the spread: the followers' segment sums
    # (g = sum t_j (p - q_j), the curvature sums (xx, yy) and (xy), sum t_j
    # twice, sum (p - q_j) and gamma), the inputs made from them, lap_gamma
    # and the products of b, B and b
    COMPACT = Rows("gx gy cx cy cxy tx ty ox oy G",
                   "dgx dgy B B dbx dby hxx hyy hxy L Pb PB Pb")

    def __init__(self, cfg: ScenarioConfig, mask: np.ndarray, upper: tuple):
        self.cfg = cfg
        self.leader_const = leader_constants(cfg)
        # row 0's phi comes from the quotient rule. The traced benchmark
        # (rendezbench/run.py) divides by the calls of the scalar navigation
        # function, so a kernel makes one: its value at the goal, 0
        navfunc_leader(cfg.goal_position, cfg, self.leader_const)
        # (center, gain, c1, c2) of the edge pass's factors [b, B, b]
        b, c = edge_factors(cfg)
        self.factors = (b, c, b)
        n = self.n = len(mask)
        self.quotient = QuotientWork(cfg.field_exponent, n)
        rows = self.COMPACT
        # zeros: column 0 of the sums is never written, and the calls over
        # whole rows read it
        self.compact = np.zeros((len(rows.names), n))
        view = partial(rows.view, self.compact)
        self.lap = view("L")
        self.leader = self.compact[rows.at("G").start:rows.at("L").start, 0]
        # spread: each changing row of the quotient's inputs takes the
        # compact row of its name, dp and h0 any row
        names = QuotientWork.INPUTS.names[self.quotient.changing]
        source = [rows.at(name if name in rows.names else "L").start
                  for name in names]
        self.spread_at = (np.array(source)[:, None] * n + np.arange(n))
        self.spread = self.quotient.inputs[self.quotient.changing]
        f = self.compact[:, 1:]
        self.sums = f[:rows.at("G").stop]
        self.products = view("Pb PB Pb")[:, 1:]
        self.post = (view("ox oy"), view("dgx dgy"), view("cx cy"),
                     view("tx ty"), view("Pb PB"), view("PB Pb"),
                     view("B B"), view("gx gy"), view("dbx dby"),
                     view("hxx hyy"), view("gx"), view("gy"), view("hxy"),
                     view("hxx hyy hxy"), view("cx cy cxy"), view("B"))
        # index of each robot pair {i, j} among the upper pairs (a, b), a < b,
        # in np.triu_indices order, ``upper``: the order of a call's pair
        # columns
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
        self.lap[...] = 2.0 * np.concatenate(([1], degree))
        rows, cols = np.nonzero(mask[1:])
        rows += 1
        pair = self.pair_index[rows, cols]
        self.starts = np.concatenate(([0], np.cumsum(degree)[:-1]))
        n_edges = len(rows)
        p = self.n_pairs
        # per edge: the terms whose segment sums are ``sums``, in their
        # order (t (p - q_j) (x, y), w (p - q_j) (x x, y y), w x y, t twice,
        # p - q_j (x, y), |p - q_j|^2), then the distance three times; the
        # last six are gathered from the pair rows (x, y, |.|^2, d)
        edges = self.edges = np.empty((13, n_edges))
        self.terms, self.gathered = edges[:10], edges[7:]
        self.gather_at = np.array([pair, pair + p, pair + 2 * p] + [
            pair + 3 * p] * 3)
        self.g, self.curvature, self.xy = edges[0:2], edges[2:4], edges[4]
        self.t, self.m = edges[5:7], edges[7:9]
        self.m_y, self.dist_rows, self.d = edges[8], edges[10:12], edges[10:]
        self.sign = np.tile(np.where(rows < cols, 1.0, -1.0), (2, 1))
        self.floor = np.full((2, n_edges), DISTANCE_FLOOR)
        # the factors [b, B, b]: rows of center, gain, c1 and c2, three each,
        # and c = (c1, c2) times (1 - s, s); rows 0-1 of the log-derivatives
        # plus rows 1-2 are b's plus B's twice over, with no reversed view
        self.constants = np.repeat(np.transpose(self.factors).reshape(12, 1),
                                   n_edges, axis=1)
        self.center, self.gain, self.c = np.split(self.constants, [3, 6])
        self.y = np.empty((3, n_edges))
        self.om_s = np.empty((6, n_edges))
        self.one_minus, self.s = self.om_s[:3], self.om_s[3:]
        self.l = np.empty((6, n_edges))
        self.l2_factors = self.l[3:]
        self.minus_zero = np.full((3, n_edges), -0.0)
        self.one = np.ones((3, n_edges))
        self.logistic = (np.empty((3, n_edges), dtype=bool),
                         np.empty((3, n_edges)),
                         np.ones((3, n_edges), dtype=bool).tobytes())
        # l1 (b + B twice), a row of no use, l2 (b + B twice)
        self.summed = np.empty((5, n_edges))
        self.heads, self.tails = self.l[0:5], self.l[1:6]
        self.l1, self.l2 = self.summed[0:2], self.summed[3:5]
        # per edge, twice: the floor screen, d^2, l2 - t, w and w (p - q_j)
        self.near = np.empty((2, n_edges), dtype=bool)
        self.all_near = np.ones((2, n_edges), dtype=bool).tobytes()
        self.square, self.top, self.w, self.wm = (np.empty((2, n_edges))
                                                  for _ in range(4))
        self.wm_x = self.wm[0]

    def drop_avoidance(self) -> None:
        """Write the constant factor 1 into B's rows, which every later edge
        list keeps: the region switch, which latches. Center +inf and gain 1
        give s = 1 at every finite distance, and c1 = c2 = -0.0 give
        log-derivatives of -0.0, so b times 1 and l + -0.0 are b's values
        bit for bit, by the same calls as with avoidance."""
        b, _, _ = self.factors
        self.factors = (b, (math.inf, 1.0, -0.0, -0.0), b)
        self.constants[1::3] = np.reshape(self.factors[1], (4, 1))

    def __call__(self, position, pairs: np.ndarray):
        """phi, gradient (x, y) and Hessian (xx, xy, yy) of every robot.

        ``position`` is the informed robot's (x, y), best as floats;
        ``pairs`` (4, P) holds the offset p_a - p_b (x, y), its square
        length and the distance of each upper pair (a, b), a < b, in the
        order of np.triu_indices. Follower i gathers only the pairs of its
        own edges, which keeps the law decentralized. Each edge's b(d) and
        B(d) are evaluated once and serve both the logged value (the
        regional potential) and its derivatives, by the formulas of
        ``fields.follower_terms``.
        """
        gamma, (gx, gy), beta, (bx, by), (hxx, hxy, hyy) = leader_terms(
            position, self.cfg, self.leader_const)
        if self.n > 1:
            self._followers(pairs)
        self.leader[:] = (gamma, gx, gy, beta, beta, bx, by, hxx, hyy, hxy)
        self.compact.take(self.spread_at, None, self.spread, "clip")
        phi, grad, hess, _ = _quotient_jet(self.quotient)
        return phi, grad, hess

    def _followers(self, pairs):
        """Fill columns 1.. of the compact inputs."""
        pairs.take(self.gather_at, None, self.gathered, "clip")
        m = np.multiply(self.m, self.sign, self.m)
        y = np.subtract(self.d, self.center, self.y)
        y *= self.gain
        s = logistic_negated(y, self.minus_zero, self.one, self.s,
                             *self.logistic)
        np.multiply.reduceat(s, self.starts, axis=-1, out=self.products)
        np.subtract(self.one, s, self.one_minus)
        np.multiply(self.c, self.om_s, self.l)
        np.multiply(self.l2_factors, self.one_minus, self.l2_factors)
        # b's and B's terms in either order: + is commutative bit for bit
        np.add(self.heads, self.tails, self.summed)
        l1, l2 = self.l1, self.l2
        # edge slopes l_j / d_j and curvatures, each twice; edges under the
        # floor add none, and a NaN distance takes the masked divides too
        d2, t, w = self.dist_rows, self.t, self.w
        top, square = self.top, self.square
        near = np.greater_equal(d2, self.floor, self.near)
        np.multiply(d2, d2, square)
        if near.tobytes() == self.all_near:
            np.divide(l1, d2, t)
            np.divide(np.subtract(l2, t, top), square, w)
        else:
            t.fill(0.0)
            w.fill(0.0)
            np.divide(l1, d2, t, where=near)
            np.divide(np.subtract(l2, t, top), square, w, where=near)
        np.multiply(t, m, self.g)
        wm = np.multiply(w, m, self.wm)
        np.multiply(wm, m, self.curvature)
        np.multiply(self.wm_x, self.m_y, self.xy)
        np.add.reduceat(self.terms, self.starts, axis=-1, out=self.sums)
        # over whole rows, the quotient inputs: 2 sum (p - q_j) (as a sum of
        # two, exactly), beta (b's product times B's), beta g and beta (g
        # g^T + curvature)
        (offsets, dgamma, curv, slopes, heads, tails, beta, g, dbeta, diag,
         g_x, g_y, xy, hess, curv_xy, beta0) = self.post
        np.add(offsets, offsets, dgamma)
        np.add(curv, slopes, curv)
        np.multiply(heads, tails, beta)
        np.multiply(beta, g, dbeta)
        np.multiply(g, g, diag)
        np.multiply(g_x, g_y, xy)
        np.add(hess, curv_xy, hess)
        np.multiply(diag, beta, diag)
        np.multiply(xy, beta0, xy)

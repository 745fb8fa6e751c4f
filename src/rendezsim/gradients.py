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
    its general power loop then misses the square path by an ulp. The
    row is a view of stride 0 on a one-element array, made directly, as
    ``np.broadcast_to`` would make it at several times the cost.
    """
    row = np.ndarray((size,), float, np.array([float(exponent)]), 0, (0,))
    row.flags.writeable = False
    return row


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


# a follower's value, gradient and Hessian, under the name that ``control``
# and rendezbench/tracing.py look up
follower_field_eval = grad_navfunc_follower


class JetKernel:
    """Value, gradient and Hessian of every robot's potential, one pass a step.

    Built once per run from the scenario and the (n, n) sensing mask: it
    holds the followers' sensed edges, which only ``set_mask`` changes, and
    their factors' constants, which ``drop_avoidance`` switches once.
    Row 0 is the informed robot, whose quotient inputs come from
    ``fields.leader_terms``. The followers' come from two passes. The pair
    pass takes each sensed pair once, on rows of the factors [b, B]: b(d),
    B(d), their log-derivatives and the edge's slope t and curvature weight
    w depend on the pair's distance alone, so two followers that sense each
    other share them. One take spreads them over the directed edges, and
    the edge pass sums each follower's edge terms over its segment; a few
    calls over whole rows turn the sums into the inputs. One take then
    spreads every robot's inputs over the rows of a ``QuotientWork``, and
    one ``_quotient_jet`` call covers all.

    A step's cost is numpy's fixed cost per call, so each call applies one
    ufunc to one C-contiguous block that holds every operand it can take:
    a scalar operand is a row of its partner's shape, independent products
    of one level share a call, a quantity paired with several others is
    repeated in rows, every temporary has a preallocated row (the two
    passes' here, rebuilt with the edge list) and every view is bound once.
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
    # the rows of a call's ``pairs``: the offset p_a - p_b (x, y), its
    # square length and the distance
    PAIR_INPUTS = Rows("ox oy sq d")
    # the pair pass's rows, one column per sensed pair (a, b), a < b:
    # -0.0 four times; the distance twice, the offset and its square
    # length, gathered from ``pairs``; the offset negated (nx, ny); the
    # logistic's work, max(y, 0) and y = (d - center) gain of [b, B]; the
    # distance floor; 1 - s and s of [b, B]; t = l1 / d and w = (l2 - t) /
    # d^2; the log-derivatives c1 (1 - s) and c2 s (1 - s) of [b, B], their
    # sums l1, a row of no use and l2; l2 - t and d^2; the constants
    # (center, gain, c1 and c2 of [b, B]); and 1.0 twice. The screen
    # compares "y_b y_B floor" with "z z d" in one call
    PAIR = Rows("z z z z d d ox oy sq nx ny m_b m_B y_b y_B floor",
                "om_b om_B s_b s_B t w l1_b l1_B l2_b l2_B l1 lx l2 top d2",
                "center_b center_B gain_b gain_B c1_b c1_B c2_b c2_B",
                "one one")
    # the edge pass's rows, one column per directed edge (i, j): the terms
    # whose segment sums are ``sums``, in their order (t (p - q_j) (x, y),
    # w (p - q_j) (x x, y y), w x y, t twice, p - q_j (x, y), |p - q_j|^2),
    # the factors [b, B, b] and w twice, then w (p - q_j) (x, y) in place.
    # The rows from t on take the pair rows of their names, the offset's
    # rows the negated offset's for an edge (i, j) with i > j
    EDGE = Rows("gx gy cx cy cxy",
                "t t ox oy sq s_b s_B s_b w w")
    FROM_PAIRS = EDGE.at("t").start
    SPREAD = np.array([at.start
                       for at in map(PAIR.at, EDGE.names[FROM_PAIRS:])])
    NEGATED = PAIR.at("nx").start - PAIR.at("ox").start
    # the pair rows that the take from ``pairs`` fills, and its rows there
    GATHERED = "d d ox oy sq"
    GATHER = np.array([at.start
                       for at in map(PAIR_INPUTS.at, GATHERED.split())])

    def __init__(self, cfg: ScenarioConfig, mask: np.ndarray, upper: tuple):
        self.cfg = cfg
        self.leader_const = leader_constants(cfg)
        # row 0's phi comes from the quotient rule. The traced benchmark
        # (rendezbench/run.py) divides by the calls of the scalar navigation
        # function, so a kernel makes one: its value at the goal, 0
        navfunc_leader(cfg.goal_position, cfg, self.leader_const)
        n = self.n = len(mask)
        self.quotient = QuotientWork(cfg.field_exponent, n)
        rows = self.COMPACT
        # zeros: column 0 of the sums is never written, and the calls over
        # whole rows read it
        self.compact = np.zeros((len(rows.names), n))
        view = partial(rows.view, self.compact)
        self.lap = view("L")
        self.lap[0] = 2.0
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
        p = self.n_pairs = len(upper[0])
        pair_index = np.zeros((n, n), dtype=np.intp)
        pair_index[upper] = pair_index.T[upper] = np.arange(p)
        # the followers' rows of it, flat as a mask's rows 1.. are, and
        # which of their pairs (i, j) have i > j
        self.pair_flat = pair_index[1:].reshape(-1)
        self.lower_flat = np.tri(n, n, -1, dtype=bool)[1:].reshape(-1)
        self.gather_rows = np.multiply(self.GATHER, p)
        # the constants' column, in the order of their pair rows: center,
        # gain, c1 and c2, each of the pair pass's factors [b, B]
        self.factor_column = np.array([[v] for pair in zip(*edge_factors(cfg))
                                       for v in pair])
        self.set_mask(mask)

    def set_mask(self, mask: np.ndarray) -> None:
        """Rebuild the edge list and the sensed pairs from the (n, n)
        sensing mask.

        The list holds every directed edge (i, j) with mask[i, j] and i >= 1
        in row-major order, so follower i's edges are one segment starting
        at ``starts[i - 1]``. The sensed pairs are the upper pairs (a, b)
        with an edge either way, in upper-pair order: a pair that two
        followers sense is one column of the pair pass, and an edge takes
        its pair's column, with the offset p_a - p_b for i = a and its
        negation for i = b, which is p_i - p_j. Raises ValueError when a
        follower senses no one.
        """
        degree = mask[1:].sum(axis=1)
        if not degree.all():
            raise ValueError("follower has no neighbors; the initial graph "
                             "must give every follower at least one parent")
        self.lap[1:] = 2.0 * degree
        self.starts = np.subtract(np.cumsum(degree), degree)
        # each edge (i, j) as (i - 1) n + j, its pair, and the pair's column
        # among the sensed pairs, numbered in ``slot``
        edge = mask[1:].ravel().nonzero()[0]
        pair = self.pair_flat.take(edge)
        slot = np.zeros(self.n_pairs, dtype=np.intp)
        slot[pair] = 1
        sensed_pairs = slot.nonzero()[0]
        u = len(sensed_pairs)
        slot[sensed_pairs] = np.arange(u)
        self.gather_at = np.add.outer(self.gather_rows, sensed_pairs)
        # the spread's pair rows, at the edge's column; edges with i > j
        # take the negated offset
        edge_at = self.edge_at = np.add.outer(np.multiply(self.SPREAD, u),
                                              slot.take(pair))
        offset_at = self.EDGE.at("ox oy")
        edge_at[offset_at.start - self.FROM_PAIRS:
                offset_at.stop - self.FROM_PAIRS] += np.multiply(
            self.lower_flat.take(edge), self.NEGATED * u)
        block = self.pair_rows = np.empty((len(self.PAIR.names), u))
        view = partial(self.PAIR.view, block)
        view("z z z z")[...] = -0.0
        view("floor")[...] = DISTANCE_FLOOR
        view("one one")[...] = 1.0
        self.minus_zero = (view("z z z z").reshape(2, 2, u), view("z z"))
        self.gathered = view(self.GATHERED)
        self.d, self.dist = view("d d"), view("d")
        self.offset, self.negated = view("ox oy"), view("nx ny")
        self.work = view("m_b m_B y_b y_B").reshape(2, 2, u)
        self.halves = (view("m_b m_B"), view("y_b y_B"))
        self.y = view("y_b y_B")
        # one screen: y <= -0.0, and the floor <= the distance
        self.screened, self.bounds = view("y_b y_B floor"), view("z z d")
        self.screen = np.empty((3, u), dtype=bool)
        self.near = self.screen[2]
        self.all_pass, self.all_near = b"\x01" * (3 * u), b"\x01" * u
        self.om_s, self.one_minus, self.s = (view("om_b om_B s_b s_B"),
                                             view("om_b om_B"),
                                             view("s_b s_B"))
        self.t, self.w = view("t"), view("w")
        self.l = view("l1_b l1_B l2_b l2_B")
        self.l2_factors = view("l2_b l2_B")
        # l1 (b + B), a row of no use, l2 (b + B)
        self.summed = view("l1 lx l2")
        self.heads, self.tails = view("l1_b l1_B l2_b"), view("l1_B l2_b l2_B")
        self.l1, self.l2 = view("l1"), view("l2")
        self.top, self.square = view("top"), view("d2")
        self.constants = view("center_b center_B gain_b gain_B c1_b c1_B "
                              "c2_b c2_B")
        self.constants[...] = self.factor_column
        self.center, self.gain = view("center_b center_B"), view(
            "gain_b gain_B")
        self.c = view("c1_b c1_B c2_b c2_B")
        self.one = view("one one")
        edges = self.edges = np.empty((len(self.EDGE.names), len(edge)))
        view = partial(self.EDGE.view, edges)
        self.terms = view("gx gy cx cy cxy t t ox oy sq")
        self.from_pairs = edges[self.FROM_PAIRS:]
        self.g, self.curvature, self.xy = (view("gx gy"), view("cx cy"),
                                           view("cxy"))
        self.t_edges, self.m, self.m_y = view("t t"), view("ox oy"), view("oy")
        self.factor_rows, self.w_edges = view("s_b s_B s_b"), view("w w")
        self.wm_x = view("w")

    def drop_avoidance(self) -> None:
        """Write B's constants (+inf, 1, -0.0, -0.0) into ``factor_column``,
        which every rebuild copies, and the pair rows: the constant factor 1,
        at the region switch, which latches. Center +inf and gain 1 give s =
        1 at every finite distance, and c1 = c2 = -0.0 log-derivatives of
        -0.0, so b times 1 and l + -0.0 are b's values bit for bit."""
        self.factor_column[1::2] = [[math.inf], [1.0], [-0.0], [-0.0]]
        self.constants[1::2] = self.factor_column[1::2]

    def __call__(self, position, pairs: np.ndarray):
        """phi, gradient (x, y) and Hessian (xx, xy, yy) of every robot.

        ``position`` is the informed robot's (x, y), best as floats;
        ``pairs`` (4, P) holds the offset p_a - p_b (x, y), its square
        length and the distance of each upper pair (a, b), a < b, in the
        order of np.triu_indices. Follower i gathers only the pairs of its
        own edges, which keeps the law decentralized. Each sensed pair's
        b(d) and B(d) are evaluated once and serve both the logged value
        (the regional potential) and its derivatives, by the formulas of
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
        """Fill columns 1.. of the compact inputs: the pair pass over the
        sensed pairs, then the edge pass over the edge list."""
        # the pair pass: s = logistic(-y) of y = (d - center) gain
        pairs.take(self.gather_at, None, self.gathered, "clip")
        np.negative(self.offset, self.negated)
        y = np.subtract(self.d, self.center, self.y)
        np.multiply(y, self.gain, y)
        # one screen: every y <= 0 and every distance at or above the floor
        # (none NaN); when it fails, the distances' part says which
        np.less_equal(self.screened, self.bounds, self.screen)
        passed = self.screen.tobytes() == self.all_pass
        near = passed or self.near.tobytes() == self.all_near
        s = logistic_negated(self.work, self.halves, self.minus_zero,
                             self.one, self.s, passed)
        np.subtract(self.one, s, self.one_minus)
        np.multiply(self.c, self.om_s, self.l)
        np.multiply(self.l2_factors, self.one_minus, self.l2_factors)
        # b's and B's terms: + is commutative bit for bit
        np.add(self.heads, self.tails, self.summed)
        # the pair's slope l1 / d and curvature weight; pairs under the
        # floor add none, and a NaN distance takes the masked divides too
        d, t, w, top, square = self.dist, self.t, self.w, self.top, self.square
        np.multiply(d, d, square)
        if near:
            np.divide(self.l1, d, t)
            np.divide(np.subtract(self.l2, t, top), square, w)
        else:
            t.fill(0.0)
            w.fill(0.0)
            np.divide(self.l1, d, t, where=self.near)
            np.divide(np.subtract(self.l2, t, top), square, w,
                      where=self.near)
        # the edge pass: each edge's pair results, p - q_j among them
        self.pair_rows.take(self.edge_at, None, self.from_pairs, "clip")
        np.multiply.reduceat(self.factor_rows, self.starts, axis=-1,
                             out=self.products)
        m = self.m
        np.multiply(self.t_edges, m, self.g)
        wm = np.multiply(self.w_edges, m, self.w_edges)
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

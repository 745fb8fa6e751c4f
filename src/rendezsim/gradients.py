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
# not called here but for sigmoid_collision: rendezbench/tracing.py wraps
# these names
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
    remembered: the layouts are constants, and a stage binds its calls' rows
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


def bind(*entries) -> tuple:
    """A stage's calls, each entry (callable, operand, ..., output) in the
    order they run, as the (callable, args) pairs that the stage runs with
    ``for call, args in calls: call(*args)``. An output goes positionally,
    as does a take's axis, output and mode."""
    return tuple((call, tuple(args)) for call, *args in entries)


class QuotientWork:
    """Every row that ``_quotient_jet`` reads or writes, for n robots, and
    its calls, bound once.

    The rule runs in two stages. The head ``head`` holds one row per
    quantity, named by ``HEAD``: the step kernel's compact rows
    (``JetKernel.COMPACT``), among them the rule's inputs, gamma as G, its
    gradient as (dgx, dgy), lap_gamma as L, beta as B, its gradient as (dbx,
    dby) and its Hessian as (hxx, hyy, hxy); then gamma^a, gamma^(a - 1), s
    = gamma^a + beta and its powers s^(1/a) and s^(1/a + 1), and the
    constants 1, a, a - 1, a + 1, -a, -0.0 and +0.0. The four powers take
    single rows and their exponents as ``exponent_row``s: alpha, alpha - 1,
    1/alpha and 1/alpha + 1. One take spreads the head over operand rows:
    the first products' two operand runs ``LEFT`` and ``RIGHT``, aligned,
    and the second products' run ``SECOND``, each quantity repeated and
    ordered as the calls take it. Every later row is a row of the rule's
    block, named ``RULE`` by what it ends up holding. The Hessian's last
    call writes into the rows ``out``, by default the rule's. ``jet`` holds
    the rows that ``_quotient_jet`` returns.
    """

    # the post pass's operands up to dby, then the rule's inputs, as the
    # step kernel lays them out (JetKernel.COMPACT), then the powers and
    # the constants
    HEAD = Rows("Pb Pb Pb Pb Pb gx gy gx ox oy cx cy b b b b B gxx gyy gxy",
                "G dgx dgy ctx cty cxy dbx dby hxx hyy hxy L",
                "Ga P2 s root S2 one a am ap ma m0 z0")
    # the first products, one per row of RULE; root, gamma, the signed
    # zeros and grad beta are taken times 1
    LEFT = ("G G G G G z0 G G dgy root S2 S2 S2 S2 S2 S2 S2 root root root "
            "root G B B B B dgy dgx dgx P2 P2 P2 P2 B m0 B dbx dby dby dbx")
    RIGHT = ("dby dby dbx dbx hyy one hxx hxy dbx one ma ma ma ma a a a ap ap "
             "ap ap one a a a a am dby am a a a a a one a one one one one")
    # the second products' other factors: ab (dgy, dgy, dgx, dgx), (dby,
    # a - 1, dbx) into (a - 1) dg db and (a - 1) (dgx dby + dgy dbx), a
    # gamma^(a - 1) (dgx, dgy, dgy, dgx) and ab (L, 1, L)
    SECOND = "dgy dgy dgx dgx dby am dbx dgx dgy dgy dgx L one L"
    # the take's index: each operand row takes its head row whole
    SPREAD = np.array([at.start for at in map(
        HEAD.at, " ".join((LEFT, RIGHT, SECOND)).split())])
    # the rule's rows, each named by its last value: gamma grad beta (y, y,
    # x, x) and gamma hess beta (yy, +0.0, xx; xy), the cross term, root,
    # -e four times, e three times, (a + 1) root four times, phi, the
    # descent f (y, y, x, x), the Hessian (yy, xy, xx), f de (y ex, y ey, x
    # ey, x ex), ab L (y, -0.0, x), db (x, y, y, x), and 1/2
    RULE = Rows("gb gb gb gb gh z gh ghxy cry root en en en en e e e",
                "ar ar ar ar phi f f f f hyy hxy hxx fe fe fe fe ly m lx",
                "db db db db half")

    def __init__(self, alpha: float, n: int, out: np.ndarray | None = None):
        self.head = np.zeros((len(self.HEAD.names), n))
        h = partial(self.HEAD.view, self.head)
        for name, value in (("one", 1.0), ("a", alpha), ("am", alpha - 1.0),
                            ("ap", alpha + 1.0), ("ma", -alpha),
                            ("m0", -0.0), ("z0", 0.0)):
            h(name)[...] = value
        operands = np.empty((len(self.SPREAD), n))
        k = len(self.LEFT.split())
        rule = np.empty((len(self.RULE.names), n))
        r = partial(self.RULE.view, rule)
        r("half")[...] = 0.5
        out = r("hyy hxy hxx") if out is None else out
        inv_alpha = 1.0 / alpha
        power, power_am, root, root_plus = (exponent_row(x, n) for x in (
            alpha, alpha - 1.0, inv_alpha, inv_alpha + 1.0))
        # d(gamma^a)/d(gamma) diverges at gamma = 0 for a < 1, where grad
        # gamma vanishes and so does every term it multiplies: take it as 0
        # there, masked by gamma > 0 against the +0.0 row, which the power's
        # row copies first. For a >= 1 it is finite at 0, where it multiplies
        # grad gamma = 0 all the same
        if alpha >= 1.0:
            gamma_am = ((np.power, h("G"), power_am, h("P2")),)
        else:
            positive = np.empty(n, dtype=bool)
            gamma_am = ((np.greater, h("G"), h("z0"), positive),
                        (np.positive, h("z0"), h("P2")),
                        (partial(np.power, where=positive), h("G"), power_am,
                         h("P2")))
        firsts = r("f f f f hyy hxy hxx fe fe fe fe ly m lx")
        sums, quotients = r("hyy hxy hxx fe fe fe fe"), r("phi f f f f")
        numerators, hess = r("f f f f hyy hxy hxx"), r("hyy hxy hxx")
        fe, hxy = r("fe fe fe fe"), r("hxy")
        self.calls = bind(
            (np.power, h("G"), power, h("Ga")), *gamma_am,
            # s = gamma^a + beta, root = s^(1/a) and s^(1/a + 1)
            (np.add, h("Ga"), h("B"), h("s")),
            (np.power, h("s"), root, h("root")),
            (np.power, h("s"), root_plus, h("S2")),
            (self.head.take, self.SPREAD, 0, operands, "clip"),
            (np.multiply, operands[:k], operands[k:2 * k], rule[:k]),
            # dgx dby + dgy dbx, into dgx dby's row
            (np.add, hxy, r("cry"), hxy),
            # ab grad gamma, (a - 1) dg db, (a - 1) (dgx dby + dgy dbx), a
            # gamma^(a - 1) (dgx, dgy, dgy, dgx) and ab L
            (np.multiply, firsts, operands[2 * k:], firsts),
            # (a - 1) dg db + ab L, and de's sum a gamma^(a - 1) dg + db
            (np.add, sums, r("ly m lx db db db db"), sums),
            # N = ab grad gamma - gamma grad beta, and the diagonal's
            # numerator less gamma hess beta
            (np.subtract, numerators, r("gb gb gb gb gh z gh"), numerators),
            # phi = gamma / root, and f = N / (-e), the descent
            (np.divide, quotients, r("root en en en en"), quotients),
            # de = (a + 1) root (a gamma^(a - 1) grad gamma + grad beta), (x,
            # y, y, x), then f de: (fy ex, fy ey, fx ey, fx ex)
            (np.multiply, r("ar ar ar ar"), fe, fe),
            (np.multiply, r("f f f f"), fe, fe),
            (np.add, hess, fe[1:], hess),
            (np.add, hxy, fe[0], hxy),
            (np.multiply, r("half"), hxy, hxy),
            (np.subtract, hxy, r("ghxy"), hxy),
            (np.divide, hess, r("e e e"), out))
        self.jet = r("phi"), r("f f f f"), out, r("e")

    def load(self, gamma, dgamma, lap, beta, dbeta, ddbeta):
        """Write the inputs, each a float or an (n,) row: gamma, lap, beta,
        the gradients (x, y) and beta's Hessian (xx, xy, yy). Returns self."""
        values = {"G": gamma, "dgx": dgamma[0], "dgy": dgamma[1], "L": lap,
                  "B": beta, "dbx": dbeta[0], "dby": dbeta[1],
                  "hxx": ddbeta[0], "hxy": ddbeta[1], "hyy": ddbeta[2]}
        for name, value in values.items():
            self.HEAD.view(self.head, name)[...] = value
        return self


def _quotient_jet(w: QuotientWork):
    """Value, descent, Hessian and e of phi = gamma / (gamma^a + beta)^(1/a).

    The inputs are the rows of ``w.head``. With e = a * (gamma^a +
    beta)^(1/a + 1) and N = a beta grad gamma - gamma grad beta: grad phi =
    N / e, hess phi = (grad N - grad phi grad e^T) / e, a symmetric matrix
    whose off-diagonal is averaged against rounding. The descent -grad phi
    is N / (-e), which is -(N / e) bit for bit but for a NaN's sign, so the
    Hessian adds (-grad phi) grad e^T. The powers take one row per
    robot, then one take spreads the head's rows, whole, over the rows the
    other calls take. Each call applies one ufunc to a block of rows:
    products of one level go into one call, so the order of operations of
    each element is that of the formula, and a row whose value must pass a
    call that acts on its neighbours is added -0.0 or less +0.0, which
    changes no bit. The calls are bound in ``w.calls``. Returns phi, the
    descent (y, y, x, x), each component twice as ``control.control_laws``
    takes it, the Hessian (yy, xy, xx), in ``w``'s ``out``, and e, rows of
    ``w``.
    """
    for call, args in w.calls:
        call(*args)
    return w.jet


def _one_robot_jet(alpha, lap, gamma, dgamma, beta, dbeta, ddbeta):
    """phi, gradient (2,), Hessian (2, 2) and e of one robot, by the step
    kernel's arithmetic: the one column of a ``QuotientWork``, its descent
    negated, exact but for a NaN's sign bit."""
    phi, descent, (yy, xy, xx), e = _quotient_jet(QuotientWork(
        alpha, 1).load(gamma, dgamma, lap, beta, dbeta, ddbeta))
    return (float(phi[0]), -descent[[2, 0], 0],
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

    Built once per run from the scenario, the (n, n) sensing mask and the
    (4, P) pair rows ``pairs`` that each call reads: it holds the
    followers' sensed edges, which only ``set_mask`` changes, and their
    factors' constants, which ``drop_avoidance`` switches once.
    Row 0 is the informed robot, whose quotient inputs come from
    ``fields.leader_terms``. The followers' come from two passes. The pair
    pass takes each sensed pair once, on rows of the factors [b, B]: b(d),
    B(d), their log-derivatives and the edge's slope t and curvature weight
    w depend on the pair's distance alone, so two followers that sense each
    other share them. One take spreads them over the directed edges, and
    the edge pass sums each follower's edge terms over its segment; a take
    and four calls over whole rows, the post pass, turn the sums into the
    inputs, in the head of a ``QuotientWork``, and one ``_quotient_jet``
    call covers all.

    A step's cost is numpy's fixed cost per call, so each call applies one
    ufunc to one C-contiguous block that holds every operand it can take:
    a scalar operand is a row of its partner's shape, independent products
    of one level share a call, a quantity paired with several others is
    repeated in rows, and every temporary has a preallocated row (the two
    passes' here, rebuilt with the edge list). The passes' calls are bound
    once, by ``set_mask``, in three segments that the logistic and the
    distance floor's screen split. The informed robot's scenario constants
    (``fields.leader_constants``) are computed once. A call returns rows of
    the kernel, valid until the next.
    """

    # the followers' segment sums, one row each (g = sum t_j (p - q_j), the
    # curvature sums (xx, yy) and (xy), sum t_j twice, sum (p - q_j) and
    # gamma), and the products of b and of B
    RAW = Rows("gx gy cx cy cxy tx ty ox oy G", "Pb PB")
    # the per-robot inputs, the head of the quotient rule's rows, each named
    # by its last value; one take copies RAW's rows ``SOURCES`` into the
    # rows up to dby, the post pass's operands
    COMPACT = QuotientWork.HEAD
    SOURCES = ("Pb Pb Pb Pb Pb gx gy gx ox oy cx cy PB PB PB PB PB gx gy gy "
               "G ox oy tx ty cxy gx gy")
    POST_AT = np.array([at.start for at in map(RAW.at, SOURCES.split())])
    # the informed robot's column, from beta to the Hessian
    LEADER = "B gxx gyy gxy G dgx dgy ctx cty cxy dbx dby hxx hyy hxy"
    # the rows of ``pairs``: the offset p_a - p_b (x, y), its square length
    # and the distance
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
    # whose segment sums are RAW's up to G, in their order (t (p - q_j) (x,
    # y), w (p - q_j) (x x, y y), w x y, t twice, p - q_j (x, y), |p -
    # q_j|^2), the factors [b, B] and w twice, then w (p - q_j) (x, y) in
    # place. The rows from t on take the pair rows of their names, the
    # offset's rows the negated offset's for an edge (i, j) with i > j
    EDGE = Rows("gx gy cx cy cxy",
                "t t ox oy sq s_b s_B w w")
    FROM_PAIRS = EDGE.at("t").start
    SPREAD = np.array([at.start
                       for at in map(PAIR.at, EDGE.names[FROM_PAIRS:])])
    NEGATED = PAIR.at("nx").start - PAIR.at("ox").start
    # the pair rows that the take from ``pairs`` fills, and its rows there
    GATHERED = "d d ox oy sq"
    GATHER = np.array([at.start
                       for at in map(PAIR_INPUTS.at, GATHERED.split())])

    def __init__(self, cfg: ScenarioConfig, mask: np.ndarray, upper: tuple,
                 pairs: np.ndarray, hess: np.ndarray):
        self.cfg = cfg
        self.leader_const = leader_constants(cfg)
        # row 0's phi comes from the quotient rule, and no step calls a
        # scalar sigmoid. The traced benchmark (rendezbench/run.py) divides
        # by the calls of the scalar navigation function and of the
        # sigmoids, so a kernel makes one of each: the potential at the
        # goal, 0, and B(d) at the collision margin
        navfunc_leader(cfg.goal_position, cfg, self.leader_const)
        sigmoid_collision(cfg.collision_margin, cfg.collision_margin,
                          cfg.sigmoid_eps)
        n = self.n = len(mask)
        self.pairs = pairs
        # the segment sums and products: zeros, as column 0 is never
        # written, and the calls over whole rows read it
        self.raw = np.zeros((len(self.RAW.names), n))
        # the compact inputs are the quotient rule's head; its Hessian's
        # last call writes into the (3, n) rows ``hess``
        self.quotient = QuotientWork(cfg.field_exponent, n, hess)
        view = partial(self.COMPACT.view, self.quotient.head)
        self.lap = view("L")
        self.lap[0] = 2.0
        self.leader = view(self.LEADER)[:, 0]
        # index of each robot pair {i, j} among the upper pairs (a, b), a < b,
        # in np.triu_indices order, ``upper``: the order of ``pairs``'
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
        sensing mask, and bind the passes' calls on them.

        The list holds every directed edge (i, j) with mask[i, j] and i >= 1
        in row-major order, so follower i's edges are one segment starting
        at ``starts[i - 1]``. The sensed pairs are the upper pairs (a, b)
        with an edge either way, in upper-pair order: a pair that two
        followers sense is one column of the pair pass, and an edge takes
        its pair's column, with the offset p_a - p_b for i = a and its
        negation for i = b, which is p_i - p_j but for the sign of a zero,
        where two robots share a coordinate. Raises ValueError when a
        follower senses no one.
        """
        degree = mask[1:].sum(axis=1)
        if not degree.all():
            raise ValueError("follower has no neighbors; the initial graph "
                             "must give every follower at least one parent")
        self.lap[1:] = 2.0 * degree
        starts = np.subtract(np.cumsum(degree), degree)
        # each edge (i, j) as (i - 1) n + j, its pair, and the pair's column
        # among the sensed pairs, numbered in ``slot``
        edge = mask[1:].ravel().nonzero()[0]
        pair = self.pair_flat.take(edge)
        slot = np.zeros(self.n_pairs, dtype=np.intp)
        slot[pair] = 1
        sensed_pairs = slot.nonzero()[0]
        u = len(sensed_pairs)
        slot[sensed_pairs] = np.arange(u)
        gather_at = np.add.outer(self.gather_rows, sensed_pairs)
        # the spread's pair rows, at the edge's column; edges with i > j
        # take the negated offset
        edge_at = np.add.outer(np.multiply(self.SPREAD, u), slot.take(pair))
        offset_at = self.EDGE.at("ox oy")
        edge_at[offset_at.start - self.FROM_PAIRS:
                offset_at.stop - self.FROM_PAIRS] += np.multiply(
            self.lower_flat.take(edge), self.NEGATED * u)
        block = self.pair_rows = np.empty((len(self.PAIR.names), u))
        p = partial(self.PAIR.view, block)
        p("z z z z")[...] = -0.0
        p("floor")[...] = DISTANCE_FLOOR
        p("one one")[...] = 1.0
        self.constants = p("center_b center_B gain_b gain_B c1_b c1_B "
                           "c2_b c2_B")
        self.constants[...] = self.factor_column
        # one screen: y <= -0.0, and the floor <= the distance
        screen = self.screen = np.empty((3, u), dtype=bool)
        self.near = screen[2]
        self.all_pass, self.all_near = b"\x01" * (3 * u), b"\x01" * u
        # fields.logistic_negated's rows, and those of the divides that the
        # floor masks where some pair is under it
        self.logistic = (p("m_b m_B y_b y_B").reshape(2, 2, u),
                         (p("m_b m_B"), p("y_b y_B")),
                         (p("z z z z").reshape(2, 2, u), p("z z")),
                         p("one one"), p("s_b s_B"))
        self.floored = (p("l1"), p("d"), p("t"), p("l2"), p("top"), p("d2"),
                        p("w"))
        edges = self.edges = np.empty((len(self.EDGE.names), len(edge)))
        e = partial(self.EDGE.view, edges)
        raw = self.raw
        sums = raw[:self.RAW.at("G").stop, 1:]
        products = raw[self.RAW.at("Pb PB"), 1:]
        c = partial(self.COMPACT.view, self.quotient.head)
        dgamma, beta = c("dgx dgy ctx cty"), c("b b b b B gxx gyy gxy")
        scaled, y = c("dbx dby hxx hyy hxy"), p("y_b y_B")
        # the pair pass to its screen: s = logistic(-y) of y = (d - center)
        # gain
        self.to_screen = bind(
            (self.pairs.take, gather_at, None, p(self.GATHERED), "clip"),
            (np.negative, p("ox oy"), p("nx ny")),
            (np.subtract, p("d d"), p("center_b center_B"), y),
            (np.multiply, y, p("gain_b gain_B"), y),
            (np.less_equal, p("y_b y_B floor"), p("z z d"), screen))
        # after the logistic: the log-derivatives, and b's and B's terms
        # summed (+ is commutative bit for bit), and d^2
        self.to_floor = bind(
            (np.subtract, p("one one"), p("s_b s_B"), p("om_b om_B")),
            (np.multiply, p("c1_b c1_B c2_b c2_B"), p("om_b om_B s_b s_B"),
             p("l1_b l1_B l2_b l2_B")),
            (np.multiply, p("l2_b l2_B"), p("om_b om_B"), p("l2_b l2_B")),
            (np.add, p("l1_b l1_B l2_b"), p("l1_B l2_b l2_B"), p("l1 lx l2")),
            (np.multiply, p("d"), p("d"), p("d2")))
        # the pair's slope l1 / d and curvature weight, which the floor
        # masks; then the edge pass: each edge's pair results, p - q_j among
        # them, and its segment sums; then the post pass, over whole rows:
        # 2 sum (p - q_j) (as a sum of two, exactly) and c + t, beta (b's
        # product times B's) five times and g g^T, g g^T + curvature, and
        # beta (g, g g^T + curvature)
        self.from_floor = bind(
            (np.divide, p("l1"), p("d"), p("t")),
            (np.subtract, p("l2"), p("t"), p("top")),
            (np.divide, p("top"), p("d2"), p("w")),
            (block.take, edge_at, None, edges[self.FROM_PAIRS:], "clip"),
            (np.multiply.reduceat, e("s_b s_B"), starts, -1, None, products),
            (np.multiply, e("t t"), e("ox oy"), e("gx gy")),
            (np.multiply, e("w w"), e("ox oy"), e("w w")),
            (np.multiply, e("w w"), e("ox oy"), e("cx cy")),
            (np.multiply, e("w"), e("oy"), e("cxy")),
            (np.add.reduceat, e("gx gy cx cy cxy t t ox oy sq"), starts, -1,
             None, sums),
            (raw.take, self.POST_AT, 0,
             self.quotient.head[:self.COMPACT.at("dbx dby").stop], "clip"),
            (np.add, c("ox oy cx cy"), dgamma, dgamma),
            (np.multiply, c("Pb Pb Pb Pb Pb gx gy gx"), beta, beta),
            (np.add, c("gxx gyy gxy"), c("ctx cty cxy"), c("hxx hyy hxy")),
            (np.multiply, c("b b b b B"), scaled, scaled))

    def drop_avoidance(self) -> None:
        """Write B's constants (+inf, 1, -0.0, -0.0) into ``factor_column``,
        which every rebuild copies, and the pair rows: the constant factor 1,
        at the region switch, which latches. Center +inf and gain 1 give s =
        1 at every finite distance, and c1 = c2 = -0.0 log-derivatives of
        -0.0, so b times 1 and l + -0.0 are b's values bit for bit."""
        self.factor_column[1::2] = [[math.inf], [1.0], [-0.0], [-0.0]]
        self.constants[1::2] = self.factor_column[1::2]

    def __call__(self, position):
        """phi, descent -grad (y, y, x, x) and Hessian (yy, xy, xx) of every
        robot, the Hessian in the rows given at construction.

        ``position`` is the informed robot's (x, y), best as floats; the
        pair rows given at construction hold the offset p_a - p_b (x, y),
        its square length and the distance of each upper pair (a, b), a <
        b, in the order of np.triu_indices. Follower i gathers only the
        pairs of its own edges, which keeps the law decentralized. Each
        sensed pair's b(d) and B(d) are evaluated once and serve both the
        logged value (the regional potential) and its derivatives, by the
        formulas of ``fields.follower_terms``.
        """
        gamma, (gx, gy), beta, (bx, by), (hxx, hxy, hyy) = leader_terms(
            position, self.cfg, self.leader_const)
        if self.n > 1:
            self._followers()
        # the rows of g g^T, c + t and cxy are the followers' alone
        self.leader[:] = (beta, 0.0, 0.0, 0.0, gamma, gx, gy, 0.0, 0.0, 0.0,
                          bx, by, hxx, hyy, hxy)
        phi, descent, hess, _ = _quotient_jet(self.quotient)
        return phi, descent, hess

    def _followers(self):
        """Fill columns 1.. of the compact inputs: the pair pass over the
        sensed pairs, then the edge pass over the edge list and the post
        pass."""
        for call, args in self.to_screen:
            call(*args)
        # one screen: every y <= 0 and every distance at or above the floor
        # (none NaN); when it fails, the distances' part says which
        passed = self.screen.tobytes() == self.all_pass
        near = passed or self.near.tobytes() == self.all_near
        logistic_negated(*self.logistic, passed)
        for call, args in self.to_floor:
            call(*args)
        calls = self.from_floor
        if not near:
            # pairs under the floor add no slope or curvature, and a NaN
            # distance takes the masked divides too
            l1, d, t, l2, top, square, w = self.floored
            t.fill(0.0)
            w.fill(0.0)
            np.divide(l1, d, t, where=self.near)
            np.divide(np.subtract(l2, t, top), square, w, where=self.near)
            calls = calls[3:]
        for call, args in calls:
            call(*args)

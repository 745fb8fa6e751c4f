"""The control laws: heading, linear and angular velocity from a jet.

``control_laws`` states them once, for every robot at once; ``run`` calls
it over all rows, and ``compute_control`` over one robot's column.
"""

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .gradients import (Rows, bind, follower_field_eval,
                        leader_field_eval)
from .model import (RegionFlag, RobotState, ScenarioConfig, turn_angles,
                    turn_rows)
# not called here: rendezbench/tracing.py wraps these names
from .model import normalize_angle  # noqa: F401


@dataclass
class ControlOutput:
    """Per-robot control decision for one step."""

    v: float                  # linear velocity, m/s
    omega: float              # angular velocity, rad/s
    theta_d: float            # desired heading, rad
    theta_tilde: float        # heading error theta - theta_d, shortest signed
    theta_d_dot: float        # feedforward, rad/s
    phi: float                # potential value, for logging
    grad_norm: float          # gradient magnitude, for logging


# scalar reference, kept in src/ because rendezbench/tracing.py wraps it
def compute_control(robot: RobotState,
                    neighbor_positions: Sequence[np.ndarray],
                    region: RegionFlag, cfg: ScenarioConfig,
                    prev_theta_d: float | None = None) -> ControlOutput:
    """Evaluate the robot's own potential and run ``control_laws`` on it.

    The informed robot (id 1) uses the dipolar goal potential; followers
    use the consensus potential over the positions passed in. The laws run
    on a one-robot ``ControlWork`` with the robot's gains in ``cfg``, by
    id, and ``cfg``'s gradient floor, as in ``sim.StepKernel``; the held
    desired heading is ``prev_theta_d``, or the robot's heading if None.
    """
    if robot.id == 1:
        ev = leader_field_eval(robot.position, cfg)
    else:
        ev = follower_field_eval(robot.position, neighbor_positions, region,
                                 cfg)
    at = slice(robot.id - 1, robot.id)
    w = ControlWork(np.array([robot.heading]), cfg.linear_gains[at],
                    cfg.angular_gains[at], cfg.gradient_floor)
    w.controls[2] = robot.heading if prev_theta_d is None else prev_theta_d
    hess = ev.hessian.reshape(4, 1)[[0, 1, 3]]  # (xx, xy, yy) as rows
    w.load(ev.gradient[:, None], hess)
    *controls, grad_norm = (float(row[0]) for row in control_laws(w))
    return ControlOutput(*controls, phi=ev.value, grad_norm=grad_norm)


class ControlWork:
    """The rows of ``control_laws`` over the n headings ``theta``, and its
    calls, bound once: one (23, n) ``block``, zeros unless given, whose rows
    ``ROWS`` names, the heading error's turn rows (``model.turn_rows``),
    whose first is pi, the products and the screens' boolean rows;
    ``all_true`` is the bytes of an all-True boolean row, which a screen's
    bytes equal exactly when every robot passes it. ``controls`` are the
    rows (v, omega, theta_d, theta_tilde, theta_d_dot); set row theta_d,
    the heading held where a gradient is below the floor, before the first
    call. A call reads the descent -grad (y, y, x, x) from ``descent``, rows
    made unless given, the Hessian (yy, xy, xx) from rows "hyy hxy hxx" and
    theta from rows "tt tdd", which its caller writes (``load``, or the step
    kernel). The calls run in three segments, split by the steep gradient's
    screen and the heading error's."""

    # the first ten rows are the factors of the ten from ct on in one
    # product (z for products of no use); sd holds sin theta_d, then the
    # forms (y, x); omega's row holds theta_d until omega is due, and the
    # last two rows theta until theta_tilde and theta_d_dot are
    ROWS = Rows("kv hyy hxy hxx floor kvn z z z kw",
                "cd cd ct c sd sd s norm v w td tt tdd")

    def __init__(self, theta: np.ndarray, linear_gains, angular_gains,
                 gradient_floor: float, block: np.ndarray | None = None,
                 descent: np.ndarray | None = None):
        n = len(theta)
        self.theta = theta
        rows = self.ROWS
        if block is None:
            block = np.zeros((len(rows.names), n))
        self.block = block
        d = self.descent = np.empty((4, n)) if descent is None else descent
        v = partial(rows.view, block)
        v("kv")[...] = v("kvn")[...] = linear_gains
        v("kw")[...] = angular_gains
        v("floor")[...] = gradient_floor
        self.turn = turn_rows(n)
        self.controls = v("v w td tt tdd")
        self.result = (*self.controls, v("norm"))
        # the products: the first level's ten, then cos_d (hyy, hxy), then
        # (cos theta fx, fy sin theta); and |theta_tilde|
        products = np.empty((15, n))
        self.steep, self.inside = np.empty((2, n), dtype=bool)
        self.all_true = b"\x01" * n
        # the masked arctan2's rows: (y, x), theta_d and omega
        self.held = d[1], d[2], v("td"), v("w")
        self.to_steep = bind(
            # |-grad| is |grad| bit for bit: hypot takes absolute values
            (np.hypot, d[2], d[1], v("norm")),
            (np.greater, v("norm"), v("floor"), self.steep))
        # theta_d twice where every gradient is steep, then sin theta_d
        # twice and sin theta, before theta_tilde takes a heading row
        self.to_turn = bind(
            (np.arctan2, d[:2], d[2:], v("w td")),
            (np.sin, v("w td tt"), v("sd sd s")),
            (np.subtract, v("tdd"), v("td"), v("tt")),
            (np.abs, v("tt"), products[14]),
            (np.less, products[14], self.turn[0], self.inside))
        # cos theta_d twice, cos theta_tilde and cos theta; left^T H right
        # with left = (sin theta_d, -cos theta_d), right the motion direction
        # (cos theta, sin theta): (sin_d hxx - cos_d hxy) cos theta + (sin_d
        # hxy - cos_d hyy) sin theta
        self.from_turn = bind(
            (np.cos, v("w td tt tdd"), v("cd cd ct c")),
            (np.multiply, v("ct c sd sd s norm v w td tt"),
             block[:rows.at("cd").start], products[:10]),
            (np.multiply, v("cd cd"), v("hyy hxy"), products[10:12]),
            (np.subtract, products[2:4], products[10:12], v("sd sd")),
            (np.multiply, v("c sd"), v("sd s"), products[12:14]),
            (np.multiply, products[5], v("ct"), v("v")),
            (np.add, products[12], products[13], v("tdd")),
            (np.multiply, products[0], v("tdd"), v("tdd")),
            (np.subtract, v("tdd"), products[9], v("w")))

    def load(self, grad, hess):
        """Write the gradient (x, y) as the descent (y, y, x, x), the
        Hessian (xx, xy, yy) as rows (yy, xy, xx) and theta into the
        heading rows, for a call outside the step kernel."""
        self.descent[...] = np.negative(grad)[[1, 1, 0, 0]]
        self.ROWS.view(self.block, "hyy hxy hxx")[...] = hess[::-1]
        self.ROWS.view(self.block, "tt tdd")[...] = self.theta


def control_laws(w: ControlWork):
    """The control laws, for every robot of ``w`` at once, elementwise.

    theta_d is the heading of -grad, held where |grad| is at or below the
    floor: row theta_d keeps the last desired heading, or the heading before
    there is one (at the goal, the arrival heading). theta_tilde = theta -
    theta_d, wrapped to (-pi, pi]; v = k_v |grad| cos theta_tilde, negative
    when backing up; the feedforward theta_d_dot, the rate of theta_d along
    the motion, is k_v cos theta_tilde (sin theta_d, -cos theta_d) hess
    (cos theta, sin theta); omega = -k_w theta_tilde + theta_d_dot.

    theta_d is taken twice, so that one sine call gives sin theta_d twice
    and sin theta, before theta_tilde takes a heading row, and one cosine
    call cos theta_d twice, cos theta_tilde and cos theta. Products of one
    level are one call over rows ten, or two, apart; a product is
    commutative bit for bit. The calls are bound in ``w``. Returns (v,
    omega, theta_d, theta_tilde, theta_d_dot, grad_norm), rows of ``w``.
    """
    for call, args in w.to_steep:
        call(*args)
    # the held heading stays where some norm is at or under the floor, or NaN
    calls = w.to_turn
    if w.steep.tobytes() != w.all_true:
        descent_y, descent_x, theta_d, omega = w.held
        np.arctan2(descent_y, descent_x, theta_d, where=w.steep)
        np.positive(theta_d, omega)
        calls = calls[1:]
    for call, args in calls:
        call(*args)
    # theta_d is an arctan2 value or a held heading, in [-pi, pi], so
    # theta - theta_d lies in [-2 pi, 2 pi], where one turn is
    # normalize_angle bit for bit; except at -2 pi, which only theta one ulp
    # above -pi and theta_d = pi reach, and which turns to +0.0, not -0.0
    if w.inside.tobytes() != w.all_true:
        theta_tilde = w.controls[3]
        turn_angles(theta_tilde, theta_tilde, w.turn)
    for call, args in w.from_turn:
        call(*args)
    return w.result

"""The control laws: heading, linear and angular velocity from a jet.

``control_laws`` states them once, for every robot at once; ``run`` calls
it over all rows, and ``compute_control`` over one robot's column.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gradients import follower_field_eval, leader_field_eval
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
    *controls, grad_norm = (float(row[0]) for row in control_laws(
        ev.gradient[[0, 0, 1, 1], None], hess, w))
    return ControlOutput(*controls, phi=ev.value, grad_norm=grad_norm)


class ControlWork:
    """The rows of ``control_laws`` over the n headings ``theta``: the gains
    (the linear ones twice, as (2, n)), the floor as a row, the heading
    error's turn rows (``model.turn_rows``), whose first is pi, the five
    result rows ``controls`` (v, omega, theta_d, theta_tilde, theta_d_dot)
    and the temporaries, with every view bound once; ``all_true`` is the
    bytes of an all-True boolean row, which a screen's bytes equal exactly
    when every robot passes it. Row theta_d is the heading held where a
    gradient is below the floor: set it before the first call."""

    def __init__(self, theta: np.ndarray, linear_gains, angular_gains,
                 gradient_floor: float):
        n = len(theta)
        self.theta = theta
        self.k_v = np.array([linear_gains] * 2, dtype=float)
        self.k_w = np.array(angular_gains, dtype=float)
        self.floor = np.full(n, gradient_floor)
        self.turn = turn_rows(n)
        self.pi = self.turn[0]
        self.controls = np.empty((5, n))
        self.rows = tuple(self.controls)
        # theta_d twice, in omega's row, free until omega is due, and its
        # own; then theta_tilde
        self.desired, self.angles = self.controls[1:3], self.controls[1:4]
        # -grad (x, x, y, y)
        self.descent = np.empty((4, n))
        self.descent_x, self.descent_y = self.descent[1:3]
        self.across, self.up = self.descent[:2], self.descent[2:]
        # sin theta_d twice, cos theta_d twice, cos theta_tilde and |grad|
        self.trig = np.empty((6, n))
        self.sines, self.cosines = self.trig[:2], self.trig[2:5]
        self.cos_d, self.scaled = self.trig[2:4], self.trig[4:]
        self.cos_tilde, self.grad_norm = self.scaled
        # k_v cos theta_tilde and k_v |grad|
        self.gained = np.empty((2, n))
        self.gain_cos, self.gain_norm = self.gained
        # sin_d hxx, sin_d hxy, cos_d hxy, cos_d hyy: rows 0-1 less rows
        # 2-3 are (sin_d hxx - cos_d hxy, sin_d hxy - cos_d hyy)
        self.products = np.empty((4, n))
        self.heads, self.tails = self.products[:2], self.products[2:]
        # those two forms, then the motion direction (cos theta, sin theta)
        self.forms, self.motion = np.empty((2, 2, n))
        self.cos_theta, self.sin_theta = self.motion
        self.form_x, self.form_y = self.forms
        self.magnitude, self.form, self.turn_rate = np.empty((3, n))
        self.steep, self.inside = np.empty((2, n), dtype=bool)
        self.all_true = b"\x01" * n


def control_laws(grad, hess, w: ControlWork):
    """The control laws, for every robot of ``w`` at once, elementwise.

    theta_d is the heading of -grad, held where |grad| is at or below the
    floor: row theta_d keeps the last desired heading, or the heading before
    there is one (at the goal, the arrival heading). theta_tilde = theta -
    theta_d, wrapped to (-pi, pi]; v = k_v |grad| cos theta_tilde, negative
    when backing up; the feedforward theta_d_dot, the rate of theta_d along
    the motion, is k_v cos theta_tilde (sin theta_d, -cos theta_d) hess
    (cos theta, sin theta); omega = -k_w theta_tilde + theta_d_dot.

    grad is (x, x, y, y), each component twice, and hess (xx, xy, yy), each
    component an array over the robots, as one block; ``w.theta`` holds
    wrapped headings. theta_d is taken twice, so that the sines and cosines
    of theta_d pair with hess's rows (xx, xy) and (xy, yy) in two calls.
    Returns (v, omega, theta_d, theta_tilde, theta_d_dot, grad_norm), rows
    of ``w``.
    """
    theta = w.theta
    v, omega, theta_d, theta_tilde, theta_d_dot = w.rows
    # |-grad| is |grad| bit for bit: hypot takes absolute values
    np.negative(grad, w.descent)
    descent_x, descent_y = w.descent_x, w.descent_y
    grad_norm = np.hypot(descent_x, descent_y, w.grad_norm)
    # the held heading stays where some norm is at or under the floor, or NaN
    steep = np.greater(grad_norm, w.floor, w.steep)
    if steep.tobytes() == w.all_true:
        np.arctan2(w.up, w.across, w.desired)
    else:
        np.arctan2(descent_y, descent_x, theta_d, where=steep)
        np.positive(theta_d, omega)
    # theta_d is an arctan2 value or a held heading, in [-pi, pi], so
    # theta - theta_d lies in [-2 pi, 2 pi], where one turn is
    # normalize_angle bit for bit; except at -2 pi, which only theta one ulp
    # above -pi and theta_d = pi reach, and which turns to +0.0, not -0.0
    np.subtract(theta, theta_d, theta_tilde)
    magnitude = np.abs(theta_tilde, w.magnitude)
    if np.less(magnitude, w.pi, w.inside).tobytes() != w.all_true:
        turn_angles(theta_tilde, theta_tilde, w.turn)
    np.sin(w.desired, w.sines)
    np.cos(w.angles, w.cosines)
    # left^T H right with left = (sin theta_d, -cos theta_d), right the
    # motion direction (cos theta, sin theta): (sin_d hxx - cos_d hxy)
    # cos theta + (sin_d hxy - cos_d hyy) sin theta
    np.multiply(w.sines, hess[:2], w.heads)
    np.multiply(w.cos_d, hess[1:], w.tails)
    np.multiply(w.k_v, w.scaled, w.gained)
    np.multiply(w.gain_norm, w.cos_tilde, v)
    forms = np.subtract(w.heads, w.tails, w.forms)
    np.cos(theta, w.cos_theta)
    np.sin(theta, w.sin_theta)
    np.multiply(forms, w.motion, forms)
    form = np.add(w.form_x, w.form_y, w.form)
    np.multiply(w.gain_cos, form, theta_d_dot)
    np.subtract(theta_d_dot, np.multiply(w.k_w, theta_tilde, w.turn_rate),
                omega)
    return v, omega, theta_d, theta_tilde, theta_d_dot, grad_norm

"""Heading and velocity laws turning a field evaluation into control inputs.

``control_laws`` is what ``run`` uses, for every robot at once. The
per-robot laws serve ``compute_control``, their scalar reference.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import FieldEval
from .gradients import follower_field_eval, leader_field_eval
from .model import (RegionFlag, RobotState, ScenarioConfig, normalize_angle,
                    turn_angles)


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


def desired_heading(grad: np.ndarray, theta_current: float,
                    prev_theta_d: float | None,
                    gradient_floor: float = 1e-9) -> float:
    """Heading of the negative gradient, held when the gradient vanishes.

    Below the floor the direction is numerically meaningless: reuse the
    previous desired heading if one exists, otherwise the current heading
    (which also encodes the convention at the goal, where the desired
    heading equals the arrival heading).
    """
    if math.hypot(grad[0], grad[1]) > gradient_floor:
        return math.atan2(-grad[1], -grad[0])
    if prev_theta_d is not None:
        return prev_theta_d
    return theta_current


def linear_velocity(grad: np.ndarray, theta_tilde: float, k_v: float) -> float:
    """v = k_v * ||grad|| * cos(heading error); negative means backing up."""
    return k_v * math.hypot(grad[0], grad[1]) * math.cos(theta_tilde)


def heading_feedforward(theta_d: float, hessian: np.ndarray, theta: float,
                        theta_tilde: float, k_v: float) -> float:
    """Rate of change of the desired heading along the closed-loop motion.

    Quadratic form of the potential's Hessian between the tangent of the
    desired heading and the current motion direction.
    """
    left = np.array([math.sin(theta_d), -math.cos(theta_d)])
    right = np.array([math.cos(theta), math.sin(theta)])
    return k_v * math.cos(theta_tilde) * float(left @ hessian @ right)


def angular_velocity(theta_tilde: float, theta_d_dot: float,
                     k_w: float) -> float:
    """omega = -k_w * heading error + feedforward."""
    return -k_w * theta_tilde + theta_d_dot


# scalar reference, kept in src/ because rendezbench/tracing.py wraps it
def compute_control(robot: RobotState,
                    neighbor_positions: Sequence[np.ndarray],
                    region: RegionFlag, cfg: ScenarioConfig,
                    k_v: float, k_w: float,
                    prev_theta_d: float | None = None,
                    *, gradient_mode: str = "full",
                    gradient_floor: float = 1e-9) -> ControlOutput:
    """Evaluate the robot's own potential and chain the four control laws.

    The informed robot (id 1) uses the dipolar goal potential and needs no
    neighbors; followers use the consensus potential over the positions
    passed in.
    """
    ev: FieldEval
    if robot.id == 1:
        ev = leader_field_eval(robot.position, cfg)
    else:
        ev = follower_field_eval(robot.position, neighbor_positions, region,
                                 cfg, gradient_mode=gradient_mode)
    theta_d = desired_heading(ev.gradient, robot.heading, prev_theta_d,
                              gradient_floor)
    theta_tilde = normalize_angle(robot.heading - theta_d)
    v = linear_velocity(ev.gradient, theta_tilde, k_v)
    theta_d_dot = heading_feedforward(theta_d, ev.hessian, robot.heading,
                                      theta_tilde, k_v)
    omega = angular_velocity(theta_tilde, theta_d_dot, k_w)
    return ControlOutput(v=v, omega=omega, theta_d=theta_d,
                         theta_tilde=theta_tilde, theta_d_dot=theta_d_dot,
                         phi=ev.value,
                         grad_norm=float(np.linalg.norm(ev.gradient)))


def control_laws(grad, hess, theta: np.ndarray, fallback: np.ndarray,
                 k_v: np.ndarray, k_w: np.ndarray, gradient_floor=1e-9,
                 out=None, pi=math.pi):
    """The four laws above for many robots at once, elementwise.

    grad is (x, y) and hess (xx, xy, yy), each component an array over the
    robots; ``theta`` holds wrapped headings, in (-pi, pi]. ``fallback`` is
    the desired heading held where the gradient is below the floor: the
    previous one, or the current heading when there is none.
    ``gradient_floor`` and ``pi`` are floats or, as the step kernel passes
    them, rows of theta's shape. ``out``, five rows (a (5, n) array or a
    sequence of rows), receives the first five results when given. Returns
    (v, omega, theta_d, theta_tilde, theta_d_dot, grad_norm).
    """
    n = len(theta)
    if out is None:
        out = np.empty((5, n))
    v, omega, theta_d, theta_tilde, theta_d_dot = out
    gx, gy = grad[0], grad[1]
    hxx, hxy, hyy = hess
    grad_norm = np.hypot(gx, gy)
    # the fallback goes only where some norm is at or under the floor, or NaN
    steep = grad_norm > gradient_floor
    descent = np.negative(grad)
    if np.count_nonzero(steep) == n:
        np.arctan2(descent[1], descent[0], out=theta_d)
    else:
        np.copyto(theta_d, fallback)
        np.arctan2(descent[1], descent[0], out=theta_d, where=steep)
    # theta_d is an arctan2 value or a held heading, in [-pi, pi], so
    # theta - theta_d lies in [-2 pi, 2 pi], where one turn is
    # normalize_angle bit for bit; except at -2 pi, which only theta one ulp
    # above -pi and theta_d = pi reach, and which turns to +0.0, not -0.0
    np.subtract(theta, theta_d, out=theta_tilde)
    if np.count_nonzero(np.abs(theta_tilde) < pi) < n:
        turn_angles(theta_tilde, out=theta_tilde)
    cos_tilde = np.cos(theta_tilde)
    np.multiply(k_v * grad_norm, cos_tilde, out=v)
    # left^T H right with left = (sin theta_d, -cos theta_d), right the
    # motion direction (cos theta, sin theta)
    sin_d, cos_d = np.sin(theta_d), np.cos(theta_d)
    np.multiply(k_v * cos_tilde,
                (sin_d * hxx - cos_d * hxy) * np.cos(theta)
                + (sin_d * hxy - cos_d * hyy) * np.sin(theta), out=theta_d_dot)
    np.subtract(theta_d_dot, k_w * theta_tilde, out=omega)
    return v, omega, theta_d, theta_tilde, theta_d_dot, grad_norm

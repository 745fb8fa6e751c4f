"""Heading and velocity laws turning a field evaluation into control inputs."""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import FieldEval, FieldParams
from .gradients import follower_field_eval, leader_field_eval
from .model import RegionFlag, RobotState, Role, normalize_angle, wrap_angles


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


def compute_control(robot: RobotState,
                    neighbor_positions: Sequence[np.ndarray],
                    region: RegionFlag, params: FieldParams,
                    k_v: float, k_w: float,
                    prev_theta_d: float | None = None,
                    *, gradient_mode: str = "full",
                    gradient_floor: float = 1e-9) -> ControlOutput:
    """Evaluate the robot's own potential and chain the four control laws.

    The informed robot uses the dipolar goal potential and needs no
    neighbors; followers use the consensus potential over the positions
    passed in.
    """
    ev: FieldEval
    if robot.role is Role.INFORMED:
        ev = leader_field_eval(robot.position, params)
    else:
        ev = follower_field_eval(robot.position, neighbor_positions, region,
                                 params, gradient_mode=gradient_mode)
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
                 k_v: np.ndarray, k_w: np.ndarray,
                 gradient_floor: float = 1e-9, out: np.ndarray | None = None):
    """The four laws above for many robots at once, elementwise.

    grad is (x, y) and hess (xx, xy, yy), each component an array over the
    robots. ``fallback`` is the desired heading held where the gradient is
    below the floor: the previous one, or the current heading when there is
    none. ``out``, a (5, n) array or view, receives the first five results
    when given. Returns (v, omega, theta_d, theta_tilde, theta_d_dot,
    grad_norm).
    """
    if out is None:
        out = np.empty((5, len(theta)))
    v, omega, theta_d, theta_tilde, theta_d_dot = out
    gx, gy = grad
    hxx, hxy, hyy = hess
    grad_norm = np.hypot(gx, gy)
    descent = np.negative(grad)
    # the fallback goes only where some norm is at or under the floor, or NaN
    steep = grad_norm > gradient_floor
    if np.count_nonzero(steep) == len(steep):
        np.arctan2(descent[1], descent[0], out=theta_d)
    else:
        np.copyto(theta_d, fallback)
        np.arctan2(descent[1], descent[0], out=theta_d, where=steep)
    wrap_angles(theta - theta_d, out=theta_tilde)
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

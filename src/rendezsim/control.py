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
                    gradient_floor: float = 1e-9,
                    distance_floor: float = 1e-9) -> ControlOutput:
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
                                 params, gradient_mode=gradient_mode,
                                 distance_floor=distance_floor)
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
                 gradient_floor: float = 1e-9):
    """The four laws above for many robots at once, elementwise.

    grad is (x, y) and hess (xx, xy, yy), each component an array over the
    robots. ``fallback`` is the desired heading held where the gradient is
    below the floor: the previous one, or the current heading when there is
    none. Returns (v, omega, theta_d, theta_tilde, theta_d_dot, grad_norm).
    """
    gx, gy = grad
    hxx, hxy, hyy = hess
    grad_norm = np.hypot(gx, gy)
    theta_d = np.where(grad_norm > gradient_floor, np.arctan2(-gy, -gx),
                       fallback)
    theta_tilde = wrap_angles(theta - theta_d)
    cos_tilde = np.cos(theta_tilde)
    v = k_v * grad_norm * cos_tilde
    # left^T H right with left = (sin theta_d, -cos theta_d), right the
    # motion direction (cos theta, sin theta)
    lx, ly = np.sin(theta_d), -np.cos(theta_d)
    theta_d_dot = k_v * cos_tilde * ((lx * hxx + ly * hxy) * np.cos(theta)
                                     + (lx * hxy + ly * hyy) * np.sin(theta))
    omega = -k_w * theta_tilde + theta_d_dot
    return v, omega, theta_d, theta_tilde, theta_d_dot, grad_norm

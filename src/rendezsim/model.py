"""Core domain types: robot states, scenario configuration, region flag.

Robots have ids 1..n. Robot 1 is the informed robot, the only one that
knows the goal, and row 0 of every per-robot array; the others follow.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi


class ScenarioError(ValueError):
    """Raised when a scenario configuration violates a model invariant."""


class RegionFlag(Enum):
    """Operating region: collision avoidance active vs. deactivated.

    The flag starts as COLLISION_FREE and switches to RENDEZVOUS once the
    informed robot gets close enough to the goal; the switch is one-way
    (latched), see fields.region_of.
    """

    COLLISION_FREE = "collision_free"
    RENDEZVOUS = "rendezvous"


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi].

    The boundary convention maps -pi to +pi, so the output interval is
    open at -pi and closed at +pi. Idempotent for any finite input.
    """
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    wrapped = math.fmod(theta, TWO_PI)
    if wrapped > math.pi:
        wrapped -= TWO_PI
    elif wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


def wrap_angles(theta: np.ndarray, out: np.ndarray | None = None,
                pi=math.pi) -> np.ndarray:
    """normalize_angle elementwise; a non-finite angle comes out NaN.

    Writes into ``out`` when given. Bit for bit normalize_angle, signed
    zeros included, with plain ufunc calls only. ``pi`` bounds the screen
    that passes angles inside (-pi, pi) through as they are: math.pi, or
    an array of it in theta's shape, as the step kernel passes it so that
    the call takes no scalar operand.
    """
    inside = np.abs(theta) < pi
    if np.count_nonzero(inside) == inside.size:
        # fmod and the turn below leave every angle in (-pi, pi) as it is
        if out is None:
            return np.array(theta, dtype=float)
        out[...] = theta
        return out
    return turn_angles(np.fmod(theta, TWO_PI, out=out), out=out)


def turn_angles(theta: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """One turn of 2 pi into (-pi, pi]: normalize_angle for |theta| < 2 pi.

    Bit for bit normalize_angle on (-2 pi, 2 pi], the range of an ``fmod``
    by 2 pi and of the difference of two wrapped angles, where ``fmod`` is
    the identity except at 2 pi itself (both give +0.0 there). A value
    lowered from above pi is above -pi. Where no turn is due it is +0.0,
    and w - (+0.0) is w, -0.0 included; w - (-2 pi) is w + 2 pi exactly.
    NaN stays NaN. Writes into ``out`` when given.
    """
    turns = np.subtract(theta > math.pi, theta <= -math.pi, dtype=float)
    turns *= TWO_PI
    return np.subtract(theta, turns, out=out)


@dataclass(frozen=True)
class RobotState:
    """Pose of one robot. Ids are stable and 1-based."""

    id: int
    position: np.ndarray  # shape (2,), meters
    heading: float        # radians, (-pi, pi]

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (2,):
            raise ScenarioError(f"robot {self.id}: position must be a 2-vector")
        if not np.all(np.isfinite(pos)):
            raise ScenarioError(f"robot {self.id}: position must be finite")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "heading", normalize_angle(self.heading))

    def with_pose(self, position: np.ndarray, heading: float) -> "RobotState":
        return RobotState(self.id, position, heading)


@dataclass(kw_only=True)
class ScenarioConfig:
    """Full description of one simulation run, and the scenario file schema.

    Distances are in meters, angles in radians, times in seconds. Gains are
    per robot, index-aligned with ``initial_states``. Every field but
    ``initial_states`` is one scenario key of the type annotated here, and
    the fields with a default are the optional keys.
    """

    n_robots: int
    workspace_radius: float       # bounding disk of the workspace
    sensing_radius: float         # two robots interact below this distance
    rendezvous_radius: float      # disk around the goal where collision
                                  # avoidance may be dropped
    collision_margin: float       # activation distance of pair repulsion
    connectivity_buffer: float    # width of the edge-preserving band
    sigmoid_eps: float            # sigmoid endpoint value, 0 < eps << 1
    dipolar_eps: float = 0.01     # regularizer of the heading-alignment factor
    field_exponent: float         # navigation-function tuning exponent
    linear_gains: list[float]
    angular_gains: list[float]
    goal_position: np.ndarray
    goal_heading: float
    time_step: float
    horizon: float
    initial_states: list[RobotState] = field(default_factory=list)
    gradient_floor: float = 1e-9      # below this norm the heading is held
    gradient_mode: str = "full"       # "full" or "paper"
    neighbor_mode: str = "frozen"     # "frozen" or "accreting"
    position_tolerance: float = 0.05  # convergence: goal distance per robot
    heading_tolerance: float = 0.02   # convergence: |heading error| per robot
    collision_floor: float = 0.05     # monitor alarm distance while avoiding

    def __post_init__(self):
        self.goal_position = np.asarray(self.goal_position, dtype=float)

    @property
    def _chain_reach(self) -> float:
        """R * (N - 1): connectivity bounds any robot's distance to the
        informed robot by this, a chain of N - 1 sensed edges."""
        return self.sensing_radius * (self.n_robots - 1)

    @property
    def switch_distance(self) -> float:
        """Leader-to-goal distance below which collision avoidance is dropped.

        Chosen so that when the leader is this close, every follower is
        guaranteed to sit inside the rendezvous disk.
        """
        return self.rendezvous_radius - self._chain_reach

    @property
    def leader_band(self) -> float:
        """Norm of the informed robot beyond which a follower may be outside
        the workspace."""
        return self.workspace_radius - self._chain_reach


def validate_scenario(cfg: ScenarioConfig) -> ScenarioConfig:
    """Check every configuration invariant; return cfg unchanged if valid.

    Raises ScenarioError naming the violated invariant otherwise.
    """

    def require(cond: bool, message: str) -> None:
        if not cond:
            raise ScenarioError(message)

    require(cfg.n_robots >= 1, "n_robots must be >= 1")
    for name in ("workspace_radius", "sensing_radius", "rendezvous_radius",
                 "collision_margin", "connectivity_buffer", "dipolar_eps",
                 "field_exponent", "time_step", "horizon"):
        require(getattr(cfg, name) > 0.0, f"{name} must be > 0")
    require(0.0 < cfg.sigmoid_eps < 0.5, "sigmoid_eps must be in (0, 0.5)")

    require(cfg.collision_margin < cfg.sensing_radius,
            "collision_margin must be < sensing_radius")
    require(cfg.connectivity_buffer < cfg.sensing_radius,
            "connectivity_buffer must be < sensing_radius")
    require(cfg.switch_distance > 0.0,
            "rendezvous_radius must exceed sensing_radius * (n_robots - 1)")
    require(cfg.workspace_radius >= 2.0 * cfg.rendezvous_radius,
            "workspace_radius must be at least twice rendezvous_radius")

    require(len(cfg.linear_gains) == cfg.n_robots,
            "linear_gains must list one gain per robot")
    require(len(cfg.angular_gains) == cfg.n_robots,
            "angular_gains must list one gain per robot")
    require(all(g > 0.0 for g in cfg.linear_gains),
            "linear gains must be > 0")
    require(all(g > 0.0 for g in cfg.angular_gains),
            "angular gains must be > 0")

    require(cfg.goal_position.shape == (2,) and np.all(np.isfinite(cfg.goal_position)),
            "goal_position must be a finite 2-vector")
    require(float(np.linalg.norm(cfg.goal_position)) < cfg.workspace_radius,
            "goal_position must lie inside the workspace")
    require(math.isfinite(cfg.goal_heading), "goal_heading must be finite")

    require(cfg.gradient_mode in ("full", "paper"),
            "gradient_mode must be 'full' or 'paper'")
    require(cfg.neighbor_mode in ("frozen", "accreting"),
            "neighbor_mode must be 'frozen' or 'accreting'")
    for name in ("gradient_floor", "position_tolerance", "heading_tolerance",
                 "collision_floor"):
        require(getattr(cfg, name) > 0.0, f"{name} must be > 0")

    require(len(cfg.initial_states) == cfg.n_robots,
            "initial_states must list exactly n_robots poses")
    ids = [s.id for s in cfg.initial_states]
    require(ids == list(range(1, cfg.n_robots + 1)),
            "robot ids must be 1..n_robots in order")
    for s in cfg.initial_states:
        require(float(np.linalg.norm(s.position)) < cfg.workspace_radius,
                f"robot {s.id} must start strictly inside the workspace")

    return cfg

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
    informed robot gets within the switch distance of the goal
    (fields.region_of). The switch is one-way: ``sim`` latches it, and a
    run's log records it only as ``TrajectoryLog.switch_step``.
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


def turn_rows(n: int) -> tuple:
    """The rows ``turn_angles`` takes for n angles: the bounds pi and -pi,
    2 pi, the turns, and two boolean rows for the comparisons."""
    rows = np.empty((4, n))
    rows[0], rows[1], rows[2] = math.pi, -math.pi, TWO_PI
    return (*rows, *np.empty((2, n), dtype=bool))


def turn_angles(theta: np.ndarray, out: np.ndarray,
                turn: tuple) -> np.ndarray:
    """One turn of 2 pi into (-pi, pi]: normalize_angle for |theta| < 2 pi.

    Bit for bit normalize_angle on (-2 pi, 2 pi], the range of an ``fmod``
    by 2 pi and of the difference of two wrapped angles, where ``fmod`` is
    the identity except at 2 pi itself (both give +0.0 there). A value
    lowered from above pi is above -pi. Where no turn is due it is +0.0,
    and w - (+0.0) is w, -0.0 included; w - (-2 pi) is w + 2 pi exactly.
    NaN stays NaN. ``turn`` holds the rows of ``turn_rows``: the bounds and
    2 pi, so that no call takes a scalar, the turns due, the difference of
    the two comparisons as floats, and the comparisons. Writes into
    ``out``, which may be ``theta``.
    """
    pi, minus_pi, two_pi, turns, up, down = turn
    np.greater(theta, pi, up)
    np.less_equal(theta, minus_pi, down)
    np.subtract(up, down, turns, dtype=float)
    np.multiply(turns, two_pi, turns)
    return np.subtract(theta, turns, out)


def planar_norm(v: np.ndarray) -> np.ndarray:
    """Lengths of the 2-vectors along the last axis: sqrt(x*x + y*y).

    Rounded as ``np.linalg.norm(v, axis=-1)`` rounds them, one product per
    axis and one sum with no fused multiply-add. ``graph.build_topology``
    and the seeded sampler both measure pair distances with it.
    """
    x, y = v[..., 0], v[..., 1]
    return np.sqrt(x * x + y * y)


def outside_workspace(positions: np.ndarray,
                      workspace_radius: float) -> np.ndarray:
    """Where positions ``(..., 2)`` are not strictly inside the workspace.

    The one workspace test, by the monitors' norm ``np.hypot``: the poses,
    the goal, seeded draws and the boundary monitor agree at the rim.
    """
    return np.hypot(positions[..., 0], positions[..., 1]) >= workspace_radius


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
        x, y = pos.tolist()
        if not (math.isfinite(x) and math.isfinite(y)):
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


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(message)


_POSITIVE = (lambda x: 0.0 < x < math.inf, "finite and > 0")

# each checked key's rule and the words of its error, "<key> must be
# <words>": the scenario keys and the seeded deployment's. Scenario files,
# export headers and ScenarioConfig objects built in code all pass here.
KEY_RULES = {
    **dict.fromkeys(("workspace_radius", "sensing_radius", "rendezvous_radius",
                     "collision_margin", "connectivity_buffer", "dipolar_eps",
                     "field_exponent", "time_step", "horizon",
                     "gradient_floor", "position_tolerance",
                     "heading_tolerance", "collision_floor", "spread"),
                    _POSITIVE),
    **dict.fromkeys(("linear_gains", "angular_gains"), (
        lambda gains: all(map(_POSITIVE[0], gains)), "finite and > 0")),
    **dict.fromkeys(("goal_position", "center"), (
        lambda v: v.shape == (2,) and all(map(math.isfinite, v.tolist())),
        "a finite 2-vector")),
    "n_robots": (lambda n: n >= 1, ">= 1"),
    "sigmoid_eps": (lambda eps: 0.0 < eps < 0.5, "in (0, 0.5)"),
    "goal_heading": (math.isfinite, "finite"),
    "neighbor_mode": (lambda mode: mode in ("frozen", "accreting"),
                      "'frozen' or 'accreting'"),
    "seed": (lambda seed: seed >= 0, ">= 0"),
    "min_separation": (lambda x: 0.0 <= x < math.inf, "finite and >= 0"),
}


def check_keys(values: dict) -> None:
    """Each rule of ``KEY_RULES`` on the value of its key in ``values``, in
    the order of ``values``; other keys are not checked. A ScenarioError
    names the first key whose value breaks its rule."""
    for key, value in values.items():
        rule = KEY_RULES.get(key)
        if rule is not None and not rule[0](value):
            raise ScenarioError(f"{key} must be {rule[1]}")


def validate_scenario(cfg: ScenarioConfig) -> ScenarioConfig:
    """Check every configuration invariant; return cfg unchanged if valid.

    Raises ScenarioError naming the violated invariant otherwise.
    """
    validate_keys(cfg)
    return validate_poses(cfg)


def validate_keys(cfg: ScenarioConfig) -> ScenarioConfig:
    """The rules of ``validate_scenario`` on every field but the initial
    poses; cheap, so that a parser can check them before it draws poses.
    Each key's own rule, then the rules that relate keys."""
    check_keys({"n_robots": cfg.n_robots})
    # the gains count the robots too: a mistyped n_robots shows here first
    _require(len(cfg.linear_gains) == cfg.n_robots,
             "linear_gains must list one gain per robot")
    _require(len(cfg.angular_gains) == cfg.n_robots,
             "angular_gains must list one gain per robot")
    check_keys(vars(cfg))

    _require(cfg.collision_margin < cfg.sensing_radius,
             "collision_margin must be < sensing_radius")
    _require(cfg.connectivity_buffer < cfg.sensing_radius,
             "connectivity_buffer must be < sensing_radius")
    _require(cfg.switch_distance > 0.0,
             "rendezvous_radius must exceed sensing_radius * (n_robots - 1)")
    _require(cfg.workspace_radius >= 2.0 * cfg.rendezvous_radius,
             "workspace_radius must be at least twice rendezvous_radius")
    _require(not outside_workspace(cfg.goal_position, cfg.workspace_radius),
             "goal_position must lie inside the workspace")
    return cfg


def validate_poses(cfg: ScenarioConfig) -> ScenarioConfig:
    """The rules of ``validate_scenario`` on the initial poses, given that
    ``validate_keys`` holds."""
    _require(len(cfg.initial_states) == cfg.n_robots,
             "initial_states must list exactly n_robots poses")
    ids = [s.id for s in cfg.initial_states]
    _require(ids == list(range(1, cfg.n_robots + 1)),
             "robot ids must be 1..n_robots in order")
    outside = np.flatnonzero(outside_workspace(
        np.array([s.position for s in cfg.initial_states]),
        cfg.workspace_radius))
    if outside.size:
        raise ScenarioError(f"robot {cfg.initial_states[outside[0]].id} "
                            "must start strictly inside the workspace")

    return cfg

"""Decentralized rendezvous of unicycle robots under sensing constraints.

A group of wheeled robots meets at a specified point with a desired final
heading. Only one robot knows the goal; the rest follow neighbors they can
sense. The controllers descend navigation-function potentials that keep the
initial sensing graph connected and the robots collision-free until the
group is near the goal.
"""

from .control import (ControlOutput, angular_velocity, compute_control,
                      desired_heading, heading_feedforward, linear_velocity)
from .fields import (FieldEval, FieldParams, boundary_factor,
                     constraint_follower, dipolar_factor, goal_follower,
                     goal_leader, navfunc_follower, navfunc_leader, region_of,
                     sigmoid_collision, sigmoid_connectivity)
from .gradients import (GradientBundle, fd_gradient, fd_hessian,
                        grad_constraint_follower, grad_goal_follower,
                        grad_navfunc_follower, grad_navfunc_leader)
from .graph import (Topology, build_topology, has_rooted_spanning_tree,
                    laplacian, tree_edge_stress)
from .model import (RegionFlag, RobotState, Role, ScenarioConfig,
                    ScenarioError, normalize_angle, validate_scenario)
from .scenario_io import (emit_plot_script, export_trajectory,
                          load_trajectory, parse_scenario, seeded_deployment,
                          write_scenario)
from .sim import (AssumptionError, Metrics, MonitorViolation, TrajectoryLog,
                  compute_metrics, integrate_pose, monitor_invariants, run,
                  step)

__version__ = "0.1.0"

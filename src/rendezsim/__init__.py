"""Decentralized rendezvous of unicycle robots under sensing constraints.

A group of wheeled robots meets at a specified point with a desired final
heading. Only one robot knows the goal; the rest follow neighbors they can
sense. The controllers descend navigation-function potentials that keep the
initial sensing graph connected and the robots collision-free until the
group is near the goal.

The package exports the pipeline: scenario types and validation, the sensing
graph, parse, deploy, export and load, and ``run``, ``step``, the monitors
and the metrics. The per-robot scalar references are reached through their
modules.
"""

from .graph import Topology, build_topology, has_rooted_spanning_tree
from .model import (RegionFlag, RobotState, ScenarioConfig, ScenarioError,
                    validate_scenario)
from .scenario_io import (emit_plot_script, export_trajectory,
                          load_trajectory, parse_scenario, seeded_deployment)
from .sim import (AssumptionError, Metrics, MonitorViolation, TrajectoryLog,
                  compute_metrics, monitor_invariants, run, step)

__version__ = "0.1.0"

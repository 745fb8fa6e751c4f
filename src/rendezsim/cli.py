"""Command-line entry point.

Exit codes: 0 success, 1 parse/validation failure, 2 initial-graph
(spanning-tree) failure, 3 monitor violation under --strict.
"""

import argparse
import sys

from .fields import FieldParams
from .model import ScenarioError
from .scenario_io import (emit_plot_script, export_trajectory,
                          load_trajectory, parse_scenario)
from .sim import (AssumptionError, MonitorViolation, compute_metrics,
                  initial_topology, run)


def _print_metrics(metrics) -> None:
    errs = ", ".join(f"{e:.4f}" for e in metrics.final_position_errors)
    heads = ", ".join(f"{e:.4f}" for e in metrics.final_heading_errors)
    print(f"final goal distances [m]: {errs}")
    print(f"final |heading error| [rad]: {heads}")
    if metrics.switch_time is not None:
        print(f"collision avoidance dropped at t = {metrics.switch_time:.3f} s")
    else:
        print("collision avoidance was never dropped")
    if metrics.min_distance_collision_free is not None:
        print(f"min pairwise distance while avoiding: "
              f"{metrics.min_distance_collision_free:.4f} m")
    if metrics.max_monitored_distance is not None:
        print(f"max monitored edge distance: "
              f"{metrics.max_monitored_distance:.4f} m")
    if metrics.heading_decay_rate is not None:
        print(f"fitted heading-error decay rate: "
              f"{metrics.heading_decay_rate:.4f} 1/s")


def cmd_run(args) -> int:
    cfg = parse_scenario(args.scenario)
    log = run(cfg, strict=args.strict)
    out_dir = args.out
    traj, dist = export_trajectory(log, out_dir)
    print(f"{log.n_steps} steps, {log.times[-1]:.3f} s simulated, "
          f"{log.wall_time:.2f} s wall time")
    violations = [e for e in log.events if e.kind != "switch"]
    if violations:
        print(f"{len(violations)} monitor violations recorded:")
        for e in violations[:10]:
            print(f"  step {e.step} t={e.time:.3f}: {e.kind}: {e.detail}")
        if len(violations) > 10:
            print(f"  ... and {len(violations) - 10} more")
    _print_metrics(compute_metrics(log, cfg))
    print(f"wrote {traj} and {dist}")
    return 0


def cmd_check(args) -> int:
    cfg = parse_scenario(args.scenario)
    initial_topology(cfg)
    switch = FieldParams.from_config(cfg).switch_distance
    print(f"scenario valid: {cfg.n_robots} robots, "
          f"switch distance {switch:.3f} m, "
          f"initial graph has a spanning tree rooted at robot 1")
    return 0


def cmd_metrics(args) -> int:
    log = load_trajectory(args.log_dir)
    _print_metrics(compute_metrics(log))
    return 0


def cmd_plots(args) -> int:
    path = emit_plot_script(args.log_dir, args.out)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rendezsim",
        description="Decentralized rendezvous simulator for unicycle robots")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate a scenario and export the log")
    p.add_argument("scenario")
    p.add_argument("--strict", action="store_true",
                   help="abort with exit code 3 on any monitor violation")
    p.add_argument("--out", default="out", help="export directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check",
                       help="validate a scenario and its initial graph only")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("metrics", help="recompute metrics from exported files")
    p.add_argument("log_dir")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("plots", help="emit a plotting script for exported files")
    p.add_argument("log_dir")
    p.add_argument("--out", default=None, help="directory for the script")
    p.set_defaults(func=cmd_plots)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssumptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MonitorViolation as exc:
        print(f"monitor violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

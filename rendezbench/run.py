#!/usr/bin/env python3
"""rendezsim benchmark: host time from a scenario file to exported results.

Run from the repository root:

    python3 rendezbench/run.py --workload reference --seed 1 --seconds 16 --trace 0

Workloads are described in ``workloads.py``. Each repeat runs in a fresh
interpreter on one thread (BLAS/OpenMP pools pinned to 1) and first does what
``rendezsim run`` does: parse the scenario, run it, export the log and
compute the metrics (``total_s``; ``peak_rss_mb`` is read right after). It
then times further setups (``setup_s``), a second export, and reloads of the
export as ``rendezsim metrics`` does (``reload_s``). Repeats continue until
``--seconds`` have passed, and at least two run, so that every repeat can be
compared bit for bit with the first.

Times are reported at the host's speed at rest: ``yardstick.py`` samples the
host's speed throughout each repeat and converts every timed phase, because
the shared host this was built on changes speed by about 1.7x for seconds to
minutes at a time. Raw host times are printed beside them.

With ``--trace 0`` the last line of output holds the end-to-end metrics, each
the median over all samples; the lines before it give quartiles, sample
counts, raw host times, the simulated statistics and the result digest. With
``--trace 1`` one untraced repeat is followed by one traced repeat, and the
last line holds the per-layer metrics (see ``tracing.py``); the raw spans go
to ``.rendezbench/spans-<workload>.csv``.

A repeat counts as failed when it raises or produces a non-finite state, when
it is not bit-identical to the first repeat, when its export does not reload
to the in-memory log within the 9-decimal export precision, or, on
``reference`` only, when it does not converge before the horizon or records a
monitor event other than the region switch.

The program exits with code 2, printing no result, when it is not run from a
checkout that holds ``src/rendezsim`` and the reference scenario.
"""

import os

# One thread for numpy's BLAS/OpenMP pools, here and in every child process;
# set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".rendezbench")

sys.path.insert(0, HERE)
import workloads  # noqa: E402  (imports numpy, after the thread pinning)
from tracing import Tracer  # noqa: E402
from yardstick import HostSpeed  # noqa: E402

MIN_REPEATS = 2
MAX_REPEATS = 12
START_BUDGET_S = 140.0   # no optional repeat starts after this
HARD_LIMIT_S = 170.0     # a repeat still running then is killed
ROUND_TRIP_ATOL = 1e-9   # one unit in the 9th exported decimal
IO_SAMPLES = 2           # exports and reloads timed per repeat
TIMED = ("setup_s", "run_s", "export_s", "reload_s", "total_s")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("robot_steps_per_s", "1/s"),
    ("export_s", "s"),
    ("reload_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("sim.run_s", "s"),
    ("gradients.fd_hessian_s", "s"),
    ("gradients.fd_hessian_calls", "count"),
    ("gradients.fd_hessian_share_of_run", "ratio"),
    ("gradients.grad_follower_s", "s"),
    ("gradients.field_eval_self_s", "s"),
    ("fields.navfunc_s", "s"),
    ("fields.navfunc_per_robot_step", "count"),
    ("fields.navfunc_useful_ratio", "ratio"),
    ("fields.sigmoid_per_edge_step", "count"),
    ("fields.sigmoid_useful_ratio", "ratio"),
    ("fields.region_of_s", "s"),
    ("control.compute_control_self_s", "s"),
    ("control.calls_per_step", "count"),
    ("sim.run_self_s", "s"),
    ("sim.step_self_s", "s"),
    ("sim.integrate_s", "s"),
    ("sim.monitor_s", "s"),
    ("model.robotstate_per_step", "count"),
    ("model.normalize_angle_per_step", "count"),
    ("graph.build_topology_s", "s"),
    ("graph.build_topology_calls", "count"),
    ("scenario_io.parse_s", "s"),
    ("scenario_io.parse_self_s", "s"),
    ("scenario_io.deploy_attempts_checked", "count"),
    ("scenario_io.export_s", "s"),
    ("scenario_io.export_rows", "count"),
    ("scenario_io.export_bytes", "B"),
    ("scenario_io.load_s", "s"),
    ("sim.compute_metrics_s", "s"),
    ("trace.overhead_s", "s"),
)


# ---------------------------------------------------------------- child side

def _digest(log) -> str:
    """Hash of everything a run produced, to compare repeats bit for bit."""
    h = hashlib.sha256()
    for arr in (log.times, log.poses, log.controls, log.phi, log.region,
                log.distances, log.monitored):
        h.update(arr.tobytes())
    h.update(repr([(e.step, e.kind, e.detail) for e in log.events]).encode())
    h.update(repr(log.switch_step).encode())
    return h.hexdigest()


def _file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _round_trip_errors(log, loaded) -> list[str]:
    import numpy as np
    errors = []
    for name in ("times", "poses", "controls", "phi", "distances"):
        a, b = getattr(log, name), getattr(loaded, name)
        if a.shape != b.shape:
            errors.append(f"reloaded {name} has shape {b.shape}, not {a.shape}")
        elif a.size and float(np.max(np.abs(a - b))) > ROUND_TRIP_ATOL:
            errors.append(f"reloaded {name} differs by "
                          f"{float(np.max(np.abs(a - b))):.3g}")
    if not np.array_equal(log.region, loaded.region):
        errors.append("reloaded region flags differ")
    if tuple(log.pairs) != tuple(loaded.pairs):
        errors.append("reloaded pair list differs")
    if not np.array_equal(log.monitored, loaded.monitored):
        errors.append("reloaded monitored mask differs")
    if log.switch_step != loaded.switch_step:
        errors.append("reloaded switch step differs")
    return errors


def _layer_metrics(tracer, rows, log, cfg, topo) -> dict:
    """Per-layer numbers of one pass: one setup, run, export and reload.

    A phase repeated within the repeat (setup, export, reload) contributes
    its mean over the repetitions.
    """

    def per_pass(name, key="total_s"):
        total = 0.0
        for (phase, span), row in rows.items():
            if span == name:
                total += row[key] / rows[(phase, phase)]["calls"]
        return total

    steps = log.n_steps
    robot_steps = log.n_robots * steps
    edges = sum(len(topo.neighbors[s.id]) for s in cfg.initial_states[1:])
    counts = tracer.phase_counts["bench.run"]
    run_s = per_pass("sim.run")
    sigmoids = counts["fields.sigmoid"]
    deploy = rows.get(("bench.setup", "graph.build_topology"))
    attempts = (deploy["parents"]["scenario_io.seeded_deployment"]
                / rows[("bench.setup", "bench.setup")]["calls"]
                if deploy else 0.0)
    metric_calls = per_pass("sim.compute_metrics", "calls")
    return {
        "sim.run_s": run_s,
        "gradients.fd_hessian_s": per_pass("gradients.fd_hessian"),
        "gradients.fd_hessian_calls": per_pass("gradients.fd_hessian", "calls"),
        "gradients.fd_hessian_share_of_run":
            per_pass("gradients.fd_hessian") / run_s,
        "gradients.grad_follower_s":
            per_pass("gradients.grad_navfunc_follower"),
        "gradients.field_eval_self_s":
            per_pass("gradients.field_eval", "self_s"),
        "fields.navfunc_s": tracer.phase_seconds["bench.run"]["fields.navfunc"],
        "fields.navfunc_per_robot_step": counts["fields.navfunc"] / robot_steps,
        "fields.navfunc_useful_ratio": robot_steps / counts["fields.navfunc"],
        "fields.sigmoid_per_edge_step": sigmoids / (edges * steps),
        # b(d) and B(d) once per edge and step decide every result
        "fields.sigmoid_useful_ratio": 2.0 * edges * steps / sigmoids,
        "fields.region_of_s": per_pass("fields.region_of"),
        "control.compute_control_self_s":
            per_pass("control.compute_control", "self_s"),
        "control.calls_per_step":
            per_pass("control.compute_control", "calls") / steps,
        "sim.run_self_s": per_pass("sim.run", "self_s"),
        "sim.step_self_s": per_pass("sim.step", "self_s"),
        "sim.integrate_s": per_pass("sim.integrate"),
        "sim.monitor_s": per_pass("sim.monitor_invariants"),
        "model.robotstate_per_step": counts["model.RobotState"] / steps,
        "model.normalize_angle_per_step":
            counts["model.normalize_angle"] / steps,
        "graph.build_topology_s": per_pass("graph.build_topology"),
        "graph.build_topology_calls":
            per_pass("graph.build_topology", "calls"),
        "scenario_io.parse_s": per_pass("scenario_io.parse_scenario"),
        "scenario_io.parse_self_s":
            per_pass("scenario_io.parse_scenario", "self_s"),
        "scenario_io.deploy_attempts_checked": attempts,
        "scenario_io.export_s": per_pass("scenario_io.export_trajectory"),
        "scenario_io.load_s": per_pass("scenario_io.load_trajectory"),
        "sim.compute_metrics_s":
            per_pass("sim.compute_metrics") / metric_calls,
    }


def measure(workload: str, scenario: str, setup_paths: list, export_dir: str,
            trace: bool, spans_path: str | None = None) -> dict:
    """One repeat, in this process: setup, run, export, metrics, reload.

    ``total_s`` times the first four in the order of ``cli.cmd_run``.
    Afterwards come the setups of ``setup_paths``, for ``setup_s``, and
    further exports and the reloads, to have IO_SAMPLES of each.
    """
    import numpy as np

    import rendezsim
    from rendezsim import (control, fields, gradients, graph, model,
                           scenario_io, sim)

    if not os.path.abspath(rendezsim.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"rendezsim imported from {rendezsim.__file__}, "
                           f"not from {SRC}")
    tracer = Tracer() if trace else None
    phase = tracer.phase if tracer else (lambda name: nullcontext())
    perf = time.perf_counter
    if tracer:
        tracer.install({"fields": fields, "gradients": gradients,
                        "control": control, "model": model, "sim": sim,
                        "scenario_io": scenario_io,
                        "RobotState": model.RobotState})
    intervals = {name: [] for name in TIMED}

    @contextmanager
    def timed(metric, phase_name):
        with phase(phase_name):
            start = perf()
            try:
                yield
            finally:
                intervals[metric].append((start, perf()))

    try:
        with HostSpeed() as speed:
            # the order of cli.cmd_run: parse, run, export, metrics
            started = perf()
            with phase("bench.setup"):
                cfg = scenario_io.parse_scenario(scenario)
            with timed("run_s", "bench.run"):
                log = sim.run(cfg)
            with timed("export_s", "bench.export"):
                files = scenario_io.export_trajectory(log, export_dir)
            with phase("bench.metrics"):
                metrics = sim.compute_metrics(log, cfg)
            intervals["total_s"].append((started, perf()))
            # peak memory of what `rendezsim run` does, in a fresh process
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

            for path in setup_paths:
                with timed("setup_s", "bench.setup"):
                    scenario_io.parse_scenario(path)
            for _ in range(IO_SAMPLES - 1):
                with timed("export_s", "bench.export"):
                    scenario_io.export_trajectory(log, export_dir)
            for _ in range(IO_SAMPLES):
                with timed("reload_s", "bench.reload"):
                    loaded = scenario_io.load_trajectory(export_dir)
                    sim.compute_metrics(loaded)
    finally:
        if tracer:
            tracer.restore()

    failures = []
    if not all(np.all(np.isfinite(a)) for a in
               (log.times, log.poses, log.controls, log.phi, log.distances)):
        failures.append("non-finite state in the log")
    failures += _round_trip_errors(log, loaded)
    kinds = Counter(e.kind for e in log.events)
    if workload == "reference":
        max_steps = int(round(cfg.horizon / cfg.time_step))
        converged = (log.n_steps <= max_steps
                     and max(metrics.final_position_errors) < cfg.position_tolerance
                     and max(metrics.final_heading_errors) < cfg.heading_tolerance)
        if not converged:
            failures.append("did not converge before the horizon")
        bad = {k: v for k, v in kinds.items() if k != "switch"}
        if bad:
            failures.append(f"monitor events {bad}")

    robot_steps = log.n_robots * log.n_steps
    raw = {k: [end - start for start, end in v] for k, v in intervals.items()}
    raw["robot_steps_per_s"] = [robot_steps / t for t in raw["run_s"]]
    result = {k: [speed.at_rest(*iv) for iv in v] for k, v in intervals.items()}
    result["robot_steps_per_s"] = [robot_steps / t for t in result["run_s"]]
    result.update({
        "raw": raw,
        "host_slowdown": speed.slowdown(),
        "peak_rss_mb": [peak_kib / 1024.0],
        "failures": failures,
        "digest": _digest(log),
        "stats": {
            "robots": log.n_robots,
            "steps": log.n_steps,
            "simulated_s": float(log.times[-1]),
            "switch_step": log.switch_step,
            "min_pair_distance_avoiding_m": metrics.min_distance_collision_free,
            "max_monitored_distance_m": metrics.max_monitored_distance,
            "final_max_position_error_m":
                float(max(metrics.final_position_errors)),
            "final_max_heading_error_rad":
                float(max(metrics.final_heading_errors)),
            "events": dict(sorted(kinds.items())),
            "csv_digest": _file_digest(files),
        },
    })
    if tracer:
        rows = tracer.summary()
        topo = graph.build_topology(cfg.initial_states, cfg.sensing_radius)
        layers = _layer_metrics(tracer, rows, log, cfg, topo)
        layers["scenario_io.export_rows"] = log.n_steps * (
            log.n_robots + len(log.pairs))
        layers["scenario_io.export_bytes"] = sum(os.path.getsize(f)
                                                 for f in files)
        result["layers"] = layers
        result["spans"] = {f"{ph}/{name}": {k: row[k] for k in
                                            ("calls", "total_s", "self_s")}
                           for (ph, name), row in rows.items()}
        if spans_path:
            tracer.write_spans(spans_path)
    return result


def child_main(payload: str) -> int:
    job = json.loads(payload)
    sys.path.insert(0, SRC)
    try:
        result = measure(job["workload"], job["scenario"], job["setup_paths"],
                         job["export_dir"], job["trace"], job["spans_path"])
    except Exception:  # reported to the parent, which counts a failed run
        result = {"error": traceback.format_exc()}
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------- parent side

def _run_child(job: dict, timeout: float) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           json.dumps(job)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"repeat killed after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit code {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _load_baseline() -> dict:
    path = os.path.join(HERE, "baseline.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _baseline_note(workload: str, seed: int, digest: str) -> str:
    recorded = _load_baseline().get(workload, {})
    expected = recorded.get("any", recorded.get(str(seed)))
    if expected is None:
        return "no baseline for this seed"
    return "same as baseline" if expected == digest else "DIFFERS from baseline"


def _print_stats(workload: str, seed: int, stats: dict) -> None:
    print("simulated statistics (not gated; a pure speed-up leaves them "
          "identical):")
    print(f"  robots {stats['robots']}, steps {stats['steps']}, simulated "
          f"{stats['simulated_s']:.3f} s, switch step {stats['switch_step']}")
    for key in ("min_pair_distance_avoiding_m", "max_monitored_distance_m",
                "final_max_position_error_m", "final_max_heading_error_rad"):
        value = stats[key]
        print(f"  {key} {'-' if value is None else f'{value:.9f}'}")
    events = stats["events"]
    print("  monitor events by kind: "
          + (", ".join(f"{k} {v}" for k, v in events.items()) or "none"))
    print(f"  csv digest {stats['csv_digest']} "
          f"({_baseline_note(workload, seed, stats['csv_digest'])})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args.child)
    if args.workload is None:
        parser.error("--workload is required")

    for needed in (os.path.join(SRC, "rendezsim", "__init__.py"),
                   os.path.join(ROOT, workloads.REFERENCE_SCENARIO)):
        if not os.path.isfile(needed):
            print(f"error: {needed} not found; run from a checkout of the "
                  f"repository", file=sys.stderr)
            return 2

    started = time.perf_counter()
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        results = []
        while True:
            elapsed = time.perf_counter() - started
            n = len(results)
            if args.trace:
                if n == 2:
                    break
            elif n >= MIN_REPEATS and (
                    elapsed >= args.seconds or n >= MAX_REPEATS
                    or elapsed + elapsed / n > START_BUDGET_S):
                break
            traced = bool(args.trace) and n == 1
            spans = (os.path.join(OUT_DIR, f"spans-{args.workload}.csv")
                     if traced else None)
            scenario, setup_paths = workloads.write_scenarios(
                args.workload, args.seed, ROOT, work)
            job = {"workload": args.workload, "scenario": scenario,
                   "setup_paths": setup_paths,
                   "export_dir": os.path.join(work, "export"),
                   "trace": traced, "spans_path": spans}
            results.append(_run_child(job, HARD_LIMIT_S - elapsed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, results)


def report(args, results: list) -> int:
    print(f"rendezsim benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print("each repeat is a fresh process on one thread; every layer runs on "
          "that thread with no queue, so waiting time is zero by construction "
          "and is not measured")
    failed = 0
    first = next((r["digest"] for r in results if "digest" in r), None)
    for i, r in enumerate(results):
        reasons = list(r.get("failures", []))
        if "error" in r:
            reasons.append(r["error"].strip().splitlines()[-1])
            print(r["error"], file=sys.stderr)
        elif r["digest"] != first:
            reasons.append("not bit-identical to the first repeat")
        if reasons:
            failed += 1
            print(f"repeat {i} FAILED: {'; '.join(reasons)}")
    ok = [r for r in results if "digest" in r]
    print(f"runs: {len(results)} attempted, {failed} failed")
    if not ok:
        print(json.dumps({"correct": False, "attempted": len(results),
                          "failed": failed, "metrics": {}}))
        return 1
    stats = ok[0]["stats"]
    _print_stats(args.workload, args.seed, stats)

    metrics = {}
    if args.trace:
        untraced, traced = results[0], results[-1]
        layers = dict(traced.get("layers", {}))
        if "run_s" in untraced and layers:
            layers["trace.overhead_s"] = (traced["run_s"][0]
                                          - untraced["run_s"][0])
        print("per-layer breakdown of one pass: raw host time of the traced "
              "repeat, a phase made several times counted with its mean, "
              "share = of the traced run; trace.overhead_s compares the "
              "traced and untraced runs at rest:")
        run_s = layers.get("sim.run_s")
        for name, unit in PER_LAYER:
            if name in layers:
                value = layers[name]
                metrics[name] = {"value": value, "unit": unit}
                share = (f"{value / run_s:7.1%}" if unit == "s" and run_s
                         and name != "trace.overhead_s" else "")
                print(f"  {name:40s} {value:14.6f} {unit:5s} {share}")
        seeded = layers.get("scenario_io.parse_s", 0.0) - layers.get(
            "scenario_io.parse_self_s", 0.0)
        print(f"  {'(scenario_io.seeded_deployment_s)':40s} {seeded:14.6f} s")
        print("spans of the traced repeat (phase/name: calls, total, self):")
        for key, row in sorted(traced.get("spans", {}).items()):
            print(f"  {key:48s} {row['calls']:8d} {row['total_s']:10.4f} s "
                  f"{row['self_s']:10.4f} s")
    else:
        print("end-to-end, median [q1, q3] over n samples, in seconds at the "
              "host's speed at rest (see yardstick.py), then in raw host "
              "time (too few samples for a tail percentile):")
        for name, unit in END_TO_END:
            values = [v for r in ok for v in r[name]]
            med = statistics.median(values)
            q1, q3 = _quartiles(values)
            metrics[name] = {"value": med, "unit": unit}
            line = (f"  {name:18s} {med:14.6f} {unit:5s} [{q1:.6f}, {q3:.6f}] "
                    f"n={len(values)}")
            if name in ok[0]["raw"]:
                raw = [v for r in ok for v in r["raw"][name]]
                q1, q3 = _quartiles(raw)
                line += (f"   raw {statistics.median(raw):.6f} "
                         f"[{q1:.6f}, {q3:.6f}]")
            print(line)
        slowdown = statistics.median(r["host_slowdown"] for r in ok)
        per_step = statistics.median(r["run_s"][0] for r in ok) / stats["steps"]
        print(f"  host slower than at rest by a factor {slowdown:.2f}; "
              f"{per_step * 1e3:.3f} ms per logged step at rest")
    correct = failed == 0 and len(metrics) == len(
        PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

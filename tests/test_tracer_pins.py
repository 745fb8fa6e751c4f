"""The library names that the benchmark's tracer and runner rely on.

``rendezbench/tracing.py`` wraps library functions by module and attribute
name, and ``rendezbench/run.py`` reads a few more. A rename or deletion in
``src/`` breaks the benchmark only when it runs; these tests break first.
They read ``rendezbench/`` and change nothing there.
"""

import importlib.util
import os
import re

from rendezsim import (control, fields, gradients, graph, model,
                       parse_scenario, scenario_io, sim)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
BENCH = os.path.join(ROOT, "rendezbench")
SCENARIO = os.path.join(ROOT, "scenarios", "rendezvous_s5.scn")

# the owners that rendezbench/run.py hands to Tracer.install
OWNERS = {"fields": fields, "gradients": gradients, "control": control,
          "model": model, "sim": sim, "scenario_io": scenario_io,
          "RobotState": model.RobotState}


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "rendezbench_tracing", os.path.join(BENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_owners_are_the_ones_run_passes():
    with open(os.path.join(BENCH, "run.py"), encoding="utf-8") as fh:
        source = fh.read()
    call = re.search(r"tracer\.install\(\{(.*?)\}\)", source, re.DOTALL)
    assert call is not None
    assert set(re.findall(r'"(\w+)":', call.group(1))) == set(OWNERS)


def test_install_wraps_every_name_and_restore_puts_originals_back():
    tracing = load_tracing()
    pinned = tracing.SPANS + tracing.COUNTS + tracing.TIMED_COUNTS
    originals = [getattr(OWNERS[owner], attr) for owner, attr, _ in pinned]
    tracer = tracing.Tracer()
    try:
        tracer.install(OWNERS)
        for (owner, attr, name), original in zip(pinned, originals):
            assert getattr(OWNERS[owner], attr) is not original, name
    finally:
        tracer.restore()
    for (owner, attr, _), original in zip(pinned, originals):
        assert getattr(OWNERS[owner], attr) is original, (owner, attr)


def test_runner_reads_the_followers_neighbors():
    # what _layer_metrics in rendezbench/run.py sums over
    cfg = parse_scenario(SCENARIO)
    topo = graph.build_topology(cfg.initial_states, cfg.sensing_radius)
    degrees = [len(topo.neighbors[s.id]) for s in cfg.initial_states[1:]]
    assert len(degrees) == cfg.n_robots - 1 and min(degrees) >= 1


def test_traced_run_counts_navfunc_and_sigmoid_calls():
    # _layer_metrics divides by both counts of the run phase
    cfg = parse_scenario(SCENARIO)
    cfg.horizon = 2 * cfg.time_step
    tracer = load_tracing().Tracer()
    try:
        tracer.install(OWNERS)
        with tracer.phase("bench.run"):
            log = sim.run(cfg)
    finally:
        tracer.restore()
    assert log.n_steps == 3
    counts = tracer.phase_counts["bench.run"]
    assert counts["fields.navfunc"] >= 1
    assert counts["fields.sigmoid"] >= 1

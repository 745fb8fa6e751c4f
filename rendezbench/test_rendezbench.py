"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest -q rendezbench``.
"""

import json
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

sys.path.insert(0, bench.SRC)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
GENERATED = ("dense48", "sparse48")


@pytest.fixture
def short_runs(monkeypatch):
    monkeypatch.setattr(workloads, "STEPS", {"dense48": 3, "sparse48": 3})


def _read_all(written):
    scenario, setup_paths = written
    out = []
    for path in [scenario, *setup_paths]:
        with open(path, encoding="utf-8") as fh:
            out.append(fh.read())
    return out


@pytest.mark.parametrize("workload", GENERATED)
def test_inputs_are_a_pure_function_of_the_seed(workload, tmp_path):
    first = _read_all(workloads.write_scenarios(workload, 7, bench.ROOT,
                                                str(tmp_path / "a")))
    again = _read_all(workloads.write_scenarios(workload, 7, bench.ROOT,
                                                str(tmp_path / "b")))
    other = _read_all(workloads.write_scenarios(workload, 8, bench.ROOT,
                                                str(tmp_path / "c")))
    assert first == again
    assert first[0] != other[0]
    assert len(first) == 1 + workloads.SETUP_SAMPLES


def test_reference_input_ignores_the_seed(tmp_path):
    committed = os.path.join(bench.ROOT, workloads.REFERENCE_SCENARIO)
    for seed in (1, 2):
        scenario, setup_paths = workloads.write_scenarios(
            "reference", seed, bench.ROOT, str(tmp_path))
        assert {scenario, *setup_paths} == {committed}


@pytest.mark.parametrize("workload", GENERATED)
def test_tracing_does_not_change_results(workload, short_runs, tmp_path):
    from rendezsim import sim

    original = sim.compute_control
    scenario, setup_paths = workloads.write_scenarios(workload, 3, bench.ROOT,
                                                      str(tmp_path))
    plain = bench.measure(workload, scenario, setup_paths,
                          str(tmp_path / "plain"), False)
    traced = bench.measure(workload, scenario, setup_paths,
                           str(tmp_path / "traced"), True)
    assert plain["failures"] == [] and traced["failures"] == []
    assert traced["digest"] == plain["digest"]
    assert traced["stats"] == plain["stats"]
    assert sim.compute_control is original
    layers = set(traced["layers"])
    assert layers | {"trace.overhead_s"} == {name for name, _ in bench.PER_LAYER}


def test_at_rest_removes_samples_and_scales_by_host_speed():
    speed = yardstick.HostSpeed()
    rest = yardstick.REST_S
    # the host ran at half speed around [10, 12); one sample fell inside
    speed.samples = [(9.8, 2 * rest), (11.0, 2 * rest), (12.2, 2 * rest),
                     (20.0, 5 * rest)]
    assert speed.at_rest(10.0, 12.0) == pytest.approx((2.0 - 2 * rest) / 2)
    assert speed.slowdown() == pytest.approx(11 / 4)


def test_metric_names_are_well_formed():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    emitted = dict(bench.END_TO_END + bench.PER_LAYER)
    assert declared == emitted
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in emitted:
        assert NAME.match(name), name

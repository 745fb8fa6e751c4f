import dataclasses
import gc
import glob
import mmap
import os
import re
import runpy
import sys
import tracemalloc
import types
from dataclasses import MISSING, fields as dc_fields

import numpy as np
import pytest

from rendezsim import (ScenarioConfig, ScenarioError, TrajectoryLog,
                       compute_metrics, emit_plot_script, export_trajectory,
                       load_trajectory, parse_scenario, run, seeded_deployment)
from rendezsim import scenario_io
from rendezsim.cli import main
from rendezsim.scenario_io import ParseError

from conftest import make_states, small_config

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
SCENARIO = os.path.join(SCENARIOS, "rendezvous_s5.scn")


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


EXPLICIT = ["[deployment]", "mode = explicit",
            "pose_1 = -6.0 -1.0 0.5", "pose_2 = -6.8 -1.6 -1.0"]
SEEDED = ["[deployment]", "mode = seeded", "seed = 3", "center = -6.0 -1.0",
          "spread = 0.6", "min_separation = 0.3"]


def minimal_lines(deployment=EXPLICIT, **overrides):
    """A valid two-robot scenario: 17 main lines, then the deployment."""
    base = {
        "format_version": "1",
        "n_robots": "2",
        "workspace_radius": "30.0",
        "sensing_radius": "2.0",
        "rendezvous_radius": "3.0",
        "collision_margin": "0.4",
        "connectivity_buffer": "0.4",
        "sigmoid_eps": "0.01",
        "dipolar_eps": "0.5",
        "field_exponent": "1.2",
        "linear_gains": "2.0 4.0",
        "angular_gains": "8.0 8.0",
        "goal_position": "0.0 0.0",
        "time_step": "0.005",
        "goal_heading": "0.0",
        "horizon": "40.0",
        "gradient_floor": "1e-6",
    }
    base.update(overrides)
    lines = [f"{k} = {v}" for k, v in base.items() if v is not None]
    return lines + deployment


def _without(lines, prefix):
    return [line for line in lines if not line.startswith(prefix)]


# (edited scenario lines, exact message with {path}); with the minimal
# layout, line 18 is [deployment], 19 the mode and 20-21 the two poses
PARSE_FAILURES = {
    "duplicate_key": (minimal_lines()[:17] + ["horizon = 1.0"] + EXPLICIT,
                      "{path}:18: duplicate key 'horizon'"),
    "unknown_section": (minimal_lines() + ["[robots]"],
                        "{path}:22: unknown section [robots]"),
    "no_equals": (minimal_lines()[:17] + ["horizon 1.0"] + EXPLICIT,
                  "{path}:18: expected 'key = value'"),
    "no_format_version": (minimal_lines(format_version=None),
                          "{path}: missing required key 'format_version'"),
    "format_version_2": (minimal_lines(format_version="2"),
                         "{path}: unsupported format_version 2"),
    "no_deployment": (minimal_lines()[:17],
                      "{path}: missing [deployment] block"),
    "no_mode": (_without(minimal_lines(), "mode"),
                "{path}: missing deployment key 'mode'"),
    "unknown_mode": (minimal_lines([EXPLICIT[0], "mode = grid"]),
                     "{path}: deployment mode must be 'seeded' or "
                     "'explicit', got 'grid'"),
    "no_pose": (minimal_lines()[:-1], "{path}: missing deployment key 'pose_2'"),
    "short_pose": (minimal_lines()[:-1] + ["pose_2 = -6.8 -1.6"],
                   "{path}:21: pose needs 'x y theta'"),
    "explicit_unknown_key": (minimal_lines() + ["seed = 3"],
                             "{path}:22: unknown deployment key 'seed'"),
    "seeded_unknown_key": (minimal_lines(SEEDED) + ["pose_1 = 0 0 0"],
                           "{path}:24: unknown deployment key 'pose_1'"),
    "seeded_missing_key": (_without(minimal_lines(SEEDED), "spread"),
                           "{path}: missing deployment key 'spread'"),
    "vector_three_numbers": (minimal_lines(goal_position="1 2 3"),
                             "{path}:13: bad value '1 2 3' "
                             "(expected two numbers)"),
    # int() and float() would read these as 2 and 40.0; np.loadtxt,
    # which reads the export's rows, takes no '_'
    "underscore_in_count": (minimal_lines(n_robots="0_2"),
                            "{path}:2: bad value '0_2' ('_' in a number)"),
    "underscore_in_gains": (minimal_lines(linear_gains="2.0 4_0.0"),
                            "{path}:11: bad value '2.0 4_0.0' "
                            "('_' in a number)"),
    "underscore_in_pose": (minimal_lines()[:-1] + ["pose_2 = -6.8 -1.6 -1_0"],
                           "{path}:21: bad value '-6.8 -1.6 -1_0' "
                           "('_' in a number)"),
}

OPTIONAL_AND_REQUIRED = [f for f in dc_fields(ScenarioConfig)
                         if f.name != "initial_states"]


class TestParseScenario:
    def test_reference_file(self):
        cfg = parse_scenario(SCENARIO)
        assert cfg.n_robots == 6
        assert cfg.sensing_radius == 2.0
        assert cfg.rendezvous_radius == 11.5
        assert cfg.collision_margin == 0.4
        assert cfg.connectivity_buffer == 0.4
        assert cfg.field_exponent == 1.2
        assert cfg.workspace_radius == 50.0
        assert cfg.switch_distance == pytest.approx(1.5)
        assert len(cfg.initial_states) == 6

    def test_seeded_deployment_is_deterministic(self):
        a = parse_scenario(SCENARIO)
        b = parse_scenario(SCENARIO)
        for sa, sb in zip(a.initial_states, b.initial_states):
            assert np.array_equal(sa.position, sb.position)
            assert sa.heading == sb.heading

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "bad.scn"
        write_lines(path, minimal_lines(rendezvous_radius=None))
        with pytest.raises(ParseError, match="rendezvous_radius"):
            parse_scenario(str(path))

    # integrator, hessian_step, distance_floor and gradient_mode were keys
    # once; old files must fail, not parse silently
    @pytest.mark.parametrize("key, value", [
        ("bogus_knob", "rk4"), ("integrator", "rk4"),
        ("hessian_step", "1e-5"), ("distance_floor", "1e-9"),
        ("gradient_mode", "paper")])
    def test_unknown_key_rejected_with_line(self, tmp_path, key, value):
        path = tmp_path / "bad.scn"
        write_lines(path, [f"{key} = {value}"] + minimal_lines())
        with pytest.raises(ParseError, match=rf"bad.scn:1.*{key}"):
            parse_scenario(str(path))

    def test_bad_number_reported(self, tmp_path):
        path = tmp_path / "bad.scn"
        write_lines(path, minimal_lines(sensing_radius="two meters"))
        with pytest.raises(ParseError, match="bad value"):
            parse_scenario(str(path))

    def test_underscore_stays_in_a_word(self, tmp_path):
        # a string value is the key rule's to judge, not the number grammar's
        path = tmp_path / "mode.scn"
        write_lines(path, minimal_lines(neighbor_mode="frozen_now"))
        with pytest.raises(ScenarioError) as info:
            parse_scenario(str(path))
        assert str(info.value) == (
            f"{path}: neighbor_mode must be 'frozen' or 'accreting'")

    def test_plus_sign_is_a_number(self, tmp_path):
        path = tmp_path / "plus.scn"
        write_lines(path, minimal_lines(n_robots="+2", horizon="+1.0"))
        cfg = parse_scenario(str(path))
        assert (cfg.n_robots, cfg.horizon) == (2, 1.0)

    def test_validation_failure_propagates(self, tmp_path):
        path = tmp_path / "bad.scn"
        write_lines(path, minimal_lines(collision_margin="2.0"))
        with pytest.raises(ScenarioError) as info:
            parse_scenario(str(path))
        # the rule's own type and message, after the file's name
        assert type(info.value) is ScenarioError
        assert str(info.value).startswith(f"{path}: collision_margin")

    @pytest.mark.parametrize("case", PARSE_FAILURES)
    def test_parse_failure_message(self, tmp_path, case):
        lines, message = PARSE_FAILURES[case]
        path = tmp_path / "bad.scn"
        write_lines(path, lines)
        with pytest.raises(ParseError) as info:
            parse_scenario(str(path))
        assert str(info.value) == message.format(path=path)

    @pytest.mark.parametrize("field", OPTIONAL_AND_REQUIRED,
                             ids=lambda f: f.name)
    def test_dropped_key_is_default_or_named(self, tmp_path, field):
        # every key written out, then one line dropped
        path = tmp_path / "drop.scn"
        write_lines(path, [line for line in minimal_lines(
            neighbor_mode="frozen", position_tolerance="0.05",
            heading_tolerance="0.02", collision_floor="0.05")
            if line.split(" = ")[0] != field.name])
        if field.default is MISSING:
            with pytest.raises(ParseError) as info:
                parse_scenario(str(path))
            assert str(info.value) == (
                f"{path}: missing required key {field.name!r}")
        else:
            assert getattr(parse_scenario(str(path)), field.name) == (
                field.default)

    @pytest.mark.parametrize("n_robots", ["0", "-2"])
    @pytest.mark.parametrize("deployment", [EXPLICIT, SEEDED],
                             ids=["explicit", "seeded"])
    def test_robot_count_checked_before_deployment(self, tmp_path,
                                                   deployment, n_robots):
        path = tmp_path / "bad.scn"
        write_lines(path, minimal_lines(deployment, n_robots=n_robots))
        with pytest.raises(ScenarioError) as info:
            parse_scenario(str(path))
        assert str(info.value) == f"{path}: n_robots must be >= 1"

    def test_key_rules_run_before_the_draw(self, tmp_path, monkeypatch):
        # seven robots and six gains: the key rule names the gains, and no
        # deployment is drawn for a robot count that the gains contradict
        def refuse(*args, **kwargs):
            raise AssertionError("seeded_deployment reached")

        monkeypatch.setattr(scenario_io, "seeded_deployment", refuse)
        path = edited_reference(tmp_path / "seven.scn", "n_robots", "7")
        with pytest.raises(ScenarioError) as info:
            parse_scenario(str(path))
        assert str(info.value) == (
            f"{path}: linear_gains must list one gain per robot")


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    cfg = small_config(horizon=0.01)  # two integration steps
    log = run(cfg)
    out = tmp_path_factory.mktemp("export")
    export_trajectory(log, str(out))
    return cfg, log, out


class TestTrajectoryExport:
    def test_row_count(self, short_run):
        _, log, out = short_run
        with open(out / "trajectory.csv") as fh:
            lines = [l for l in fh if l.strip()]
        meta = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 1 + log.n_steps * log.n_robots  # header + rows
        assert len(meta) == 7

    def test_roundtrip_metrics_identical(self, short_run):
        cfg, log, out = short_run
        loaded = load_trajectory(str(out))
        a = compute_metrics(log, cfg)
        b = compute_metrics(loaded)
        assert np.allclose(a.final_position_errors, b.final_position_errors,
                           atol=1e-6)
        assert np.allclose(a.final_heading_errors, b.final_heading_errors,
                           atol=1e-6)
        assert np.allclose(a.final_orientation_errors,
                           b.final_orientation_errors, atol=1e-6)
        assert a.switch_time == b.switch_time
        if a.min_distance_collision_free is None:
            assert b.min_distance_collision_free is None
        else:
            assert b.min_distance_collision_free == pytest.approx(
                a.min_distance_collision_free, abs=1e-6)
        assert b.max_monitored_distance == pytest.approx(
            a.max_monitored_distance, abs=1e-6)

    def test_empty_log_rejected(self, short_run, tmp_path):
        _, log, _ = short_run
        log.times = log.times[:0]
        with pytest.raises(ValueError, match="empty"):
            export_trajectory(log, str(tmp_path))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("overrides", [
        # one robot: the distances file holds no rows
        dict(n_robots=1, linear_gains=[2.0], angular_gains=[8.0],
             initial_states=make_states([(-4.0, -2.0, 0.5)]), horizon=0.01),
        # two robots: one pair, one distance row per step
        dict(n_robots=2, linear_gains=[2.0, 4.0], angular_gains=[8.0, 8.0],
             initial_states=make_states([(-4.0, -2.0, 0.5),
                                         (-4.8, -2.5, -1.0)]), horizon=0.01),
        # one step: one row per file, which must still read as a table
        dict(horizon=0.001),
    ], ids=["one_robot", "two_robots", "one_step"])
    def test_roundtrip_of_small_logs(self, tmp_path, overrides):
        log = run(small_config(**overrides))
        export_trajectory(log, str(tmp_path))
        loaded = load_trajectory(str(tmp_path))
        assert loaded.poses.shape == log.poses.shape
        assert loaded.distances.shape == log.distances.shape
        # the loader checks the pair columns but keeps no copy of them
        assert "pairs" not in vars(loaded)
        assert loaded.pairs == log.pairs
        assert np.array_equal(loaded.monitored, log.monitored)
        assert np.array_equal(loaded.region, log.region)
        for name in ("times", "poses", "controls", "phi", "distances"):
            assert np.allclose(getattr(loaded, name), getattr(log, name),
                               rtol=0.0, atol=5e-10), name


def synthetic_log():
    """Four robots, 2,000 steps: both files span more than one write
    block."""
    steps, n = 2000, 4
    rng = np.random.default_rng(7)
    pairs = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    poses = rng.normal(scale=3.0, size=(steps, n, 3))
    controls = rng.normal(size=(steps, n, 5))
    phi = rng.uniform(size=(steps, n))
    distances = rng.uniform(0.0, 4.0, size=(steps, len(pairs)))
    # values that print as -0.000000000
    poses[0, 0] = [-1e-12, -4.9e-10, -0.0]
    distances[0, 0] = -3e-11
    # negative and large values
    controls[1, 1] = [1.5e6, -2.75e7, 123456789.125, -987654.5, -1e-9]
    phi[2] = [-1e8, 7.5e9, -0.5, 1.0]
    log = TrajectoryLog(
        times=np.arange(steps) * 0.005, poses=poses, controls=controls,
        phi=phi,
        monitored=np.array([True, False, True, False, False, True]),
        switch_step=steps // 2, goal_position=np.array([1.5, -0.25]),
        goal_heading=-0.75, time_step=0.005, sensing_radius=2.0)
    log.distances = distances
    return log


def random_log(steps, n, switch_step):
    """Random ``steps`` x ``n`` log whose region flips to 1 at ``switch_step``."""
    rng = np.random.default_rng(11)
    pairs = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    poses = rng.normal(size=(steps, n, 3))
    controls = rng.normal(size=(steps, n, 5))
    phi = rng.uniform(size=(steps, n))
    distances = rng.uniform(0.0, 4.0, size=(steps, len(pairs)))
    log = TrajectoryLog(
        times=np.arange(steps) * 0.01, poses=poses, controls=controls,
        phi=phi, monitored=rng.uniform(size=len(pairs)) < 0.3,
        switch_step=switch_step,
        goal_position=np.zeros(2), time_step=0.01, sensing_radius=2.0)
    log.distances = distances
    return log


def oracle_files(log):
    """(trajectory, distances) text from one f-string per row."""
    meta = scenario_io._meta_lines(log)
    traj = [*meta, scenario_io._TRAJ_HEADER]
    for k in range(log.n_steps):
        t = log.times[k]
        reg = int(log.region[k])
        for i in range(log.n_robots):
            x, y, th = log.poses[k, i]
            v, om, td, tt, tdd = log.controls[k, i]
            traj.append(
                f"{t:.9f},{i + 1},{x:.9f},{y:.9f},{th:.9f},{v:.9f},{om:.9f},"
                f"{td:.9f},{tt:.9f},{tdd:.9f},{log.phi[k, i]:.9f},{reg}")
    dist = [*meta, scenario_io._DIST_HEADER]
    for k in range(log.n_steps):
        t = log.times[k]
        for col, (i, j) in enumerate(log.pairs):
            dist.append(f"{t:.9f},{i},{j},{log.distances[k, col]:.9f},"
                        f"{int(log.monitored[col])}")
    return "\n".join(traj) + "\n", "\n".join(dist) + "\n"


def csv_fields(path):
    """float() of every field below the header, one list per row."""
    with open(path, encoding="utf-8") as fh:
        body = [line for line in fh if not line.startswith("#")][1:]
    return np.array([[float(f) for f in line.split(",")] for line in body])


def assert_bits_equal(a, b):
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def sparse48_config():
    """The sparse48 benchmark deployment, run for 1 s: 48 seeded robots,
    1,128 pairs, 201 steps."""
    n = 48
    return small_config(
        n_robots=n, workspace_radius=200.0,
        rendezvous_radius=2.0 * (n - 1) + 1.5,
        linear_gains=[2.0] + [4.0] * (n - 1), angular_gains=[8.0] * n,
        horizon=1.0, initial_states=seeded_deployment(
            1, n, np.array([-5.0, -3.0]), 6.0, 0.2, 2.0, 200.0))


# bytes of the (S, P) distances of sparse48_config's run, 201 steps of
# 1,128 pairs, which a run's log does not hold
SPARSE48_TABLE_BYTES = 201 * 1128 * 8


@pytest.fixture(scope="module")
def sparse48_log():
    log = run(sparse48_config())
    assert log.n_steps == 201 and len(log.pairs) == 1128
    return log


def wide_log():
    """Five robots, 37 steps, with values wider than 14 characters in
    middle blocks of 5,000-byte blocks (2 steps of trajectory.csv, 7 of
    distances.csv), in the last, shorter block of distances.csv, and nan
    and inf."""
    log = random_log(steps=37, n=5, switch_step=13)
    log.poses[15, 2, 0] = 1.5e6
    log.controls[16, 0, 1] = -2.75e7
    log.distances[10, 3] = 1.5e6
    log.distances[17, 5] = np.nan
    log.phi[33, 4] = np.inf
    log.controls[34, 3, 4] = -2.75e7
    log.poses[35, 1, 2] = np.nan
    log.distances[35, 0] = 1.5e6
    log.distances[36, 9] = -np.inf
    return log


def step_bytes(slots, text, fields):
    """What one step of ``slots`` rows, each of ``text`` bytes of text and
    ``fields`` fields, costs of a write block's byte budget."""
    return slots * (text + fields * (15 + scenario_io._WORK_BYTES))


# one step of n < 10 robots: 't,' 'id,' 'region\n' and nine fields; of
# their pairs: 't,' 'i,j,' 'monitored\n' and one field
def traj_step(n):
    return step_bytes(n, 15 + 2 + 2, 9)


def dist_step(n):
    return step_bytes(n * (n - 1) // 2, 15 + 4 + 2, 1)


def record_blocks(monkeypatch):
    """The (rows, fields, field width) of each block that the export
    writes from now on, in order."""
    blocks = []
    fixed9 = scenario_io._fixed9

    def recorded(x, fields=None, work=None):
        width = fixed9(x, fields, work)
        if fields is not None:
            blocks.append((len(x[0]), sum(p.shape[1] for p in x), width))
        return width
    monkeypatch.setattr(scenario_io, "_fixed9", recorded)
    return blocks


class TestExportFormat:
    def test_files_match_per_row_formatter(self, tmp_path):
        log = synthetic_log()
        for step in (traj_step(4), dist_step(4)):
            assert log.n_steps * step > scenario_io._WRITE_BYTES
        traj_path, dist_path = export_trajectory(log, str(tmp_path))
        traj, dist = oracle_files(log)
        assert "-0.000000000," in traj and ",-0.000000000," in dist
        with open(traj_path, encoding="utf-8") as fh:
            assert fh.read() == traj
        with open(dist_path, encoding="utf-8") as fh:
            assert fh.read() == dist

    def assert_matches_oracle(self, log, out):
        traj_path, dist_path = export_trajectory(log, str(out))
        traj, dist = oracle_files(log)
        with open(traj_path, encoding="utf-8") as fh:
            assert fh.read() == traj
        with open(dist_path, encoding="utf-8") as fh:
            assert fh.read() == dist

    def test_small_run_header_is_pinned(self, tmp_path):
        # literal text, not _meta_lines: the roles line names robot 1 as
        # the informed one, and a reload re-exports the same bytes
        log = run(small_config(horizon=0.01))
        files = export_trajectory(log, str(tmp_path / "run"))
        meta = ("# format_version = 1\n"
                "# n_robots = 3\n"
                "# goal_position = 0.000000000 0.000000000\n"
                "# goal_heading = 0.000000000\n"
                "# time_step = 0.005000000\n"
                "# sensing_radius = 2.000000000\n"
                "# roles = informed follower follower\n")
        columns = ("t,id,x,y,theta,v,omega,theta_d,theta_tilde,theta_d_dot,"
                   "phi,region\n", "t,i,j,d,monitored\n")
        again = export_trajectory(load_trajectory(str(tmp_path / "run")),
                                  str(tmp_path / "again"))
        for path, header, copy in zip(files, columns, again):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            assert text.startswith(meta + header)
            with open(copy, encoding="utf-8") as fh:
                assert fh.read() == text

    def test_step_larger_than_a_block(self, tmp_path, monkeypatch):
        # 8,128 pairs of 68 bytes: a block of distances.csv is one step
        log = random_log(steps=3, n=128, switch_step=1)
        assert step_bytes(len(log.pairs), 15 + 6 + 2, 1) > (
            scenario_io._WRITE_BYTES)
        blocks = record_blocks(monkeypatch)
        self.assert_matches_oracle(log, tmp_path)
        assert [rows for rows, fields, _ in blocks if fields == 1] == [
            len(log.pairs)] * 3

    def test_region_flip_inside_a_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scenario_io, "_WRITE_BYTES",
                            10 * traj_step(5))  # 10 steps of trajectory.csv
        log = random_log(steps=40, n=5, switch_step=13)
        assert 0 < log.switch_step % 10
        blocks = record_blocks(monkeypatch)
        self.assert_matches_oracle(log, tmp_path)
        assert [rows for rows, fields, _ in blocks if fields == 9] == [
            50] * 4

    def test_one_robot_writes_no_distance_rows(self, tmp_path):
        self.assert_matches_oracle(random_log(steps=5, n=1, switch_step=2),
                                   tmp_path)

    # one byte: a step a block; 10**9 bytes: the whole file in one block
    @pytest.mark.parametrize("budget", [1, 10 ** 9],
                             ids=["one_row", "whole_file"])
    def test_block_size_does_not_change_bytes(self, tmp_path, monkeypatch,
                                               budget):
        log = synthetic_log()
        monkeypatch.setattr(scenario_io, "_WRITE_BYTES", budget)
        self.assert_matches_oracle(log, tmp_path)

    def test_sparse_48_robot_run_matches_oracle(self, tmp_path, sparse48_log):
        self.assert_matches_oracle(sparse48_log, tmp_path)

    def test_field_width_changes_between_blocks(self, tmp_path, monkeypatch):
        # in each file a wide block follows a narrow one, and a later block
        # reuses the buffer whose fields held a middle block's long texts,
        # where it prints short ones: trajectory.csv's block of steps 34-35
        # that of steps 16-17, and distances.csv's last, shorter block that
        # of steps 7-13
        monkeypatch.setattr(scenario_io, "_WRITE_BYTES", 5000)
        assert 5000 // traj_step(5) == 2 and 5000 // dist_step(5) == 7
        blocks = record_blocks(monkeypatch)
        self.assert_matches_oracle(wide_log(), tmp_path)
        assert [w for _, fields, w in blocks if fields == 9] == (
            [14] * 7 + [17, 19] + [14] * 8 + [19, 14])
        assert [w for _, fields, w in blocks if fields == 1] == [
            14, 17, 14, 14, 14, 17]

    def test_reload_is_float_of_every_field(self, tmp_path):
        log = synthetic_log()
        export_trajectory(log, str(tmp_path))
        loaded = load_trajectory(str(tmp_path))
        steps, n, p = log.n_steps, log.n_robots, len(log.pairs)
        traj = csv_fields(tmp_path / "trajectory.csv").reshape(steps, n, 12)
        dist = csv_fields(tmp_path / "distances.csv").reshape(steps, p, 5)
        assert_bits_equal(loaded.times, traj[:, 0, 0])
        assert_bits_equal(loaded.poses, traj[:, :, 2:5])
        assert_bits_equal(loaded.controls, traj[:, :, 5:10])
        assert_bits_equal(loaded.phi, traj[:, :, 10])
        assert np.array_equal(loaded.region, traj[:, 0, 11])
        assert_bits_equal(loaded.distances, dist[:, :, 3])
        assert loaded.pairs == tuple(map(tuple, dist[0, :, 1:3].astype(int)))
        assert np.array_equal(loaded.monitored, dist[0, :, 4] == 1)
        assert np.signbit(loaded.poses[0, 0]).all()
        assert loaded.switch_step == log.switch_step


def traced_peak(call):
    """The most memory ``call()`` held at once above what was held before
    it, in bytes, as tracemalloc counts it."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if started:
            tracemalloc.stop()


# export_trajectory's traced peak on the 201-step 48-robot log when each
# 2,048-row block was gathered by concatenation and copied by tobytes
CONCATENATING_EXPORT_PEAK = 1_594_873


THP = "/sys/kernel/mm/transparent_hugepage"


def huge_pages_unasked() -> bool:
    """Whether the kernel backs memory with huge pages that no one advised:
    ``[always]`` for anonymous or shared memory, or ``[force]`` or
    ``[within_size]`` for the latter, at the PMD size or any smaller
    one."""
    paths = glob.glob(os.path.join(THP, "*enabled")) + glob.glob(
        os.path.join(THP, "hugepages-*kB", "*enabled"))
    texts = []
    for path in paths:
        with open(path) as fh:
            texts.append(fh.read())
    return any(f"[{mode}]" in t for t in texts
               for mode in ("always", "force", "within_size"))


def smaps():
    """This process's mappings as (start, end, {field: kB})."""
    maps = []
    with open("/proc/self/smaps") as fh:
        for line in fh:
            head, *rest = line.split()
            if not head.endswith(":"):
                start, end = (int(x, 16) for x in head.split("-"))
                maps.append((start, end, {}))
            elif rest[-1:] == ["kB"]:
                maps[-1][2][head[:-1]] = int(rest[0])
    return maps


class TestWorkingSets:
    """What the run, the export and the metrics hold at once, on the
    48-robot log, and the export on long logs."""

    def test_run_keeps_no_distance_table(self):
        # tracemalloc counts numpy's allocations but not a mapping, so this
        # sees a table that numpy allocates, not the log's own arrays
        cfg = sparse48_config()
        assert traced_peak(lambda: run(cfg)) < SPARSE48_TABLE_BYTES

    @pytest.mark.skipif(not os.path.exists("/proc/self/smaps")
                        or huge_pages_unasked(),
                        reason="needs /proc and huge pages only on advice")
    def test_run_log_commits_only_written_pages(self):
        # the reference reserves 80,001 rows and writes 11,414: numpy would
        # advise huge pages for its arrays of 4 MiB or more, and commit the
        # written rows 2 MiB at a time
        log = run(parse_scenario(SCENARIO))
        assert log.n_steps == 11414
        page = mmap.PAGESIZE
        spans, written = [], set()
        for a in (log.poses, log.controls, log.phi):
            # the array as run() made it, and the rows it wrote: up to the
            # last step, and one pose row more
            start = a.base.ctypes.data
            spans.append((start, start + a.base.nbytes))
            end = start + a.nbytes + (a[0].nbytes if a is log.poses else 0)
            written.update(range(start // page, (end - 1) // page + 1))
        held = [fields for lo, hi, fields in smaps()
                if any(lo < b and a < hi for a, b in spans)]
        assert held
        for fields in held:
            assert fields["AnonHugePages"] == 0
            assert fields.get("ShmemPmdMapped", 0) == 0
        assert sum(f["Rss"] for f in held) * 1024 <= len(written) * page

    def test_replace_derives_no_distance_table(self, sparse48_log):
        # a copy derives its distances from its own poses when read, and
        # the source keeps none for it
        log = dataclasses.replace(sparse48_log)
        peak = traced_peak(
            lambda: dataclasses.replace(log, times=log.times[:51]))
        short = dataclasses.replace(log, times=log.times[:51])
        assert peak < 0.1 * SPARSE48_TABLE_BYTES
        assert "distances" not in vars(log)
        assert "distances" not in vars(short)

    def test_metrics_make_no_copy_of_the_distances(self, sparse48_log):
        log = dataclasses.replace(sparse48_log)
        peak = traced_peak(lambda: compute_metrics(log))
        assert peak < 0.1 * SPARSE48_TABLE_BYTES

    def test_export_holds_one_block(self, tmp_path, sparse48_log):
        # 25 whole steps a block of trajectory.csv, 6 of distances.csv;
        # the logs end on shorter blocks, of 1 and 3 steps
        short = dataclasses.replace(sparse48_log, **{
            name: getattr(sparse48_log, name)[:51] for name in (
                "times", "poses", "controls", "phi")})
        peaks = [traced_peak(lambda: export_trajectory(log, str(tmp_path)))
                 for log in (dataclasses.replace(sparse48_log), short)]
        assert max(peaks) <= CONCATENATING_EXPORT_PEAK
        assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0]

    def test_export_peak_does_not_grow_with_the_run(self, tmp_path):
        # six robots: each step's time and region text is formatted in its
        # block, so 20,000 steps hold what 2,000 do
        logs = [random_log(steps, 6, steps // 2) for steps in (2000, 20000)]
        peaks = [traced_peak(lambda: export_trajectory(log, str(tmp_path)))
                 for log in logs]
        assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0]

    def test_distances_block_holds_several_steps(self, tmp_path,
                                                 sparse48_log, monkeypatch):
        # one byte budget sizes both files' blocks: 1,128 pairs of 68
        # bytes fit 6 steps in it, and 48 robots of 425 bytes 25 steps
        blocks = record_blocks(monkeypatch)
        export_trajectory(sparse48_log, str(tmp_path))
        rows = {f: [r for r, fields, _ in blocks if fields == f]
                for f in (9, 1)}
        assert rows[9] == [25 * 48] * 8 + [48]
        assert rows[1] == [6 * 1128] * 33 + [3 * 1128]


def near_ties(rng, count, top):
    """(m + 0.5) 1e-9 for random m below ``top`` 1e9, with both neighbours."""
    ties = (rng.integers(0, int(top * 1e9), count) + 0.5) * 1e-9
    return np.concatenate([ties, np.nextafter(ties, 0.0),
                           np.nextafter(ties, np.inf)])


LIMIT = float(scenario_io._INT_LIMIT)  # the integer parts in the table
RNG = np.random.default_rng(2024)
# each case: values that '%.9f' prints; both signs of every case are checked
SWEEP = {
    "magnitudes": 10.0 ** RNG.uniform(-12.0, 12.0, 120_000),
    # negated, these print as -0.000000000
    "zeros_and_tiny": np.array([0.0, 1e-12, 4.9e-10, 5e-324, 1e-300]),
    "near_ties": np.concatenate([near_ties(RNG, 20_000, 1.0),
                                 near_ties(RNG, 20_000, LIMIT)]),
    "binary_ties": np.concatenate([np.arange(2 ** 13) / 1024,
                                   RNG.integers(0, 2 ** 21, 5_000) / 1024,
                                   np.arange(2 ** 13) / 2 ** 20,
                                   RNG.integers(0, 2 ** 31, 5_000) / 2 ** 20]),
    "carries": np.array([0.9999999996, 9.9999999995, 99.99999999951,
                         LIMIT - 1 + 0.9999999996, LIMIT - 4e-10,
                         0.0000000005, 0.0000000015]),
    "fast_path_limit": np.concatenate([
        np.nextafter(LIMIT, 0.0) - np.arange(4) * 1e-10,
        [LIMIT, np.nextafter(LIMIT, np.inf), LIMIT + 1e-9, 2 ** 44 / 1e9,
         2 ** 53 / 1e9, 1e15, 1e22, 1e300, np.finfo(float).max]]),
    "not_finite": np.array([np.nan, np.inf]),
}


class TestFixedPointFormatter:
    """``scenario_io._fixed9`` prints every value as ``'%.9f'`` does."""

    @pytest.mark.parametrize("case", SWEEP)
    def test_prints_as_printf(self, case):
        values = np.concatenate([SWEEP[case], -SWEEP[case]])
        got = scenario_io._fixed9(values).tobytes().translate(None, b"\0")
        want = "".join("%.9f," % v for v in values.tolist()).encode("ascii")
        if got != want:
            bad = [(v, a, b) for v, a, b in zip(values.tolist(),
                                                 got.split(b","),
                                                 want.split(b",")) if a != b]
            pytest.fail(f"{len(bad)} values differ, first {bad[:3]}")

    def test_one_long_entry_widens_only_its_call(self):
        # fields are NUL-padded to the longest entry, at least 14 bytes
        assert scenario_io._fixed9(np.array([1.0, -999.5])).shape == (2, 15)
        wide = scenario_io._fixed9(np.array([1.0, 1.5e6]))
        assert wide.shape == (2, 18)
        assert wide.tobytes().translate(None, b"\0") == (
            b"1.000000000,1500000.000000000,")


def drop_rows(path, count):
    """Remove the last ``count`` lines of a file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:len(lines) - count])


def edit_rows(path, edit):
    """Rewrite the data rows of an export; ``edit`` changes them in place,
    each a list of fields."""
    lines = path.read_text(encoding="utf-8").splitlines()
    at = [line.startswith("#") for line in lines].index(False) + 1
    rows = [line.split(",") for line in lines[at:]]
    edit(rows)
    path.write_text("\n".join(lines[:at] + [",".join(r) for r in rows])
                    + "\n", encoding="utf-8")


def set_fields(cells):
    """An edit for ``edit_rows`` that writes ``cells``, (row, column) ->
    text; the column one past a row's last appends a field."""
    def edit(rows):
        for (row, column), text in cells.items():
            rows[row][column:column + 1] = [text]
    return edit


BAD_VALUE = "bad value"

# header values that no run writes: id -> (key, value, the error after the
# file's name, or BAD_VALUE for one that does not parse as the key's type)
BAD_HEADER_VALUES = {
    "format_version_2": ("format_version", "2", "unsupported format_version 2"),
    "format_version_word": ("format_version", "one", BAD_VALUE),
    "format_version_empty": ("format_version", "", BAD_VALUE),
    "n_robots_zero": ("n_robots", "0", "n_robots must be >= 1"),
    "n_robots_negative": ("n_robots", "-3", "n_robots must be >= 1"),
    "n_robots_word": ("n_robots", "four", BAD_VALUE),
    "n_robots_float": ("n_robots", "4.0", BAD_VALUE),
    "n_robots_empty": ("n_robots", "", BAD_VALUE),
    "n_robots_underscore": ("n_robots", "0_2", BAD_VALUE),
    "goal_one_number": ("goal_position", "1.5", BAD_VALUE),
    "goal_three_numbers": ("goal_position", "1.5 -0.5 0.0", BAD_VALUE),
    "goal_words": ("goal_position", "east north", BAD_VALUE),
    "goal_empty": ("goal_position", "", BAD_VALUE),
    "goal_nan": ("goal_position", "nan 0",
                 "goal_position must be a finite 2-vector"),
    "goal_heading_word": ("goal_heading", "north", BAD_VALUE),
    "goal_heading_empty": ("goal_heading", "", BAD_VALUE),
    "goal_heading_inf": ("goal_heading", "inf", "goal_heading must be finite"),
    "time_step_word": ("time_step", "abc", BAD_VALUE),
    "time_step_two_numbers": ("time_step", "0.01 0.02", BAD_VALUE),
    "time_step_empty": ("time_step", "", BAD_VALUE),
    "time_step_underscore": ("time_step", "5_0e-4", BAD_VALUE),
    "time_step_zero": ("time_step", "0", "time_step must be finite and > 0"),
    "time_step_nan": ("time_step", "nan", "time_step must be finite and > 0"),
    "sensing_radius_word": ("sensing_radius", "far", BAD_VALUE),
    "sensing_radius_empty": ("sensing_radius", "", BAD_VALUE),
    "sensing_radius_negative": ("sensing_radius", "-1",
                                "sensing_radius must be finite and > 0"),
}


@pytest.mark.filterwarnings("error")
class TestLoadMismatch:
    """A truncated or mismatched export fails with the file and row counts."""

    @pytest.fixture
    def exported(self, tmp_path):
        log = random_log(steps=6, n=4, switch_step=3)  # 24 and 36 rows
        export_trajectory(log, str(tmp_path))
        return tmp_path

    @pytest.mark.parametrize("name, dropped, message", [
        ("trajectory.csv", 1, "23 data rows, expected 24 (6 steps x 4 robots)"),
        ("distances.csv", 1, "35 data rows, expected 36 (6 steps x 6 pairs)"),
        ("distances.csv", 6, "30 data rows, expected 36 (6 steps x 6 pairs)"),
        ("trajectory.csv", 24, "no data rows"),
    ], ids=["trajectory_row", "distances_row", "distances_step",
            "header_only_trajectory"])
    def test_message_names_file_and_counts(self, exported, name, dropped,
                                           message):
        path = exported / name
        drop_rows(path, dropped)
        with pytest.raises(ValueError) as info:
            load_trajectory(str(exported))
        assert str(info.value) == f"{path}: {message}"

    def test_cli_exits_1(self, exported, capsys):
        drop_rows(exported / "trajectory.csv", 1)
        assert main(["metrics", str(exported)]) == 1
        assert "trajectory.csv: 23 data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["format_version", "n_robots",
                                     "goal_position", "goal_heading",
                                     "time_step", "sensing_radius"])
    def test_missing_metadata_key_is_named(self, exported, key, capsys):
        path = exported / "trajectory.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith(f"# {key} =")]
        assert len(kept) == len(lines) - 1
        path.write_text("".join(kept), encoding="utf-8")
        assert main(["metrics", str(exported)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: missing metadata key '{key}'\n")

    @pytest.mark.parametrize("key, raw, message", BAD_HEADER_VALUES.values(),
                             ids=list(BAD_HEADER_VALUES))
    def test_bad_metadata_value_is_named(self, exported, key, raw, message,
                                         capsys):
        # read and checked as a scenario file's key: a value of the wrong
        # type with the line, one out of range with the key's rule
        path = exported / "trajectory.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        at = [line.startswith(f"# {key} =") for line in lines].index(True)
        lines[at] = f"# {key} = {raw}\n"
        path.write_text("".join(lines), encoding="utf-8")
        assert main(["metrics", str(exported)]) == 1
        err = capsys.readouterr().err
        if message == BAD_VALUE:
            assert err.startswith(
                f"error: {path}:{at + 1}: bad value {raw!r} (")
            assert err.endswith(")\n") and err.count("\n") == 1
        else:
            assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("name", ["trajectory.csv", "distances.csv"])
    def test_repeated_metadata_key_is_named(self, exported, name, capsys):
        # the rows start one line per key below the top, so a repeated key
        # would shift the table onto the column names
        path = exported / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        at = [line.startswith("# time_step =") for line in lines].index(True)
        path.write_text("".join(lines[:at + 1] + lines[at:]), encoding="utf-8")
        assert main(["metrics", str(exported)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: repeated metadata key 'time_step'\n")

    @pytest.mark.parametrize("key", ["format_version", "n_robots",
                                     "goal_position", "goal_heading",
                                     "time_step", "sensing_radius"])
    def test_distances_metadata_must_match_trajectory(self, exported, key,
                                                      capsys):
        # a distances.csv of another run, with the same row count
        path = exported / "distances.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        at = [line.startswith(f"# {key} =") for line in lines].index(True)
        kept = lines[at].split("=", 1)[1].strip()
        lines[at] = f"# {key} = 7\n"
        path.write_text("".join(lines), encoding="utf-8")
        assert main(["metrics", str(exported)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: metadata '{key}' is '7', trajectory.csv has "
            f"{kept!r}\n")

    @pytest.mark.parametrize("name, columns", [
        ("trajectory.csv",
         "t,id,y,x,theta,v,omega,theta_d,theta_tilde,theta_d_dot,phi,region"),
        ("distances.csv", "t,j,i,d,monitored"),
        ("trajectory.csv", None),
    ], ids=["trajectory_swapped", "distances_swapped", "trajectory_missing"])
    def test_column_names_are_checked(self, exported, name, columns, capsys):
        # the rows are read by position, so other column names would load
        # silently into the wrong fields
        path = exported / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        at = [line.startswith("#") for line in lines].index(False)
        expected = lines[at].rstrip("\n")
        lines[at:at + 1] = [] if columns is None else [columns + "\n"]
        path.write_text("".join(lines), encoding="utf-8")
        assert main(["metrics", str(exported)]) == 1
        found = lines[at].rstrip("\n") if columns is None else columns
        assert capsys.readouterr().err == (
            f"error: {path}: column names {found!r}, expected "
            f"{expected!r}\n")

    def test_optional_roles_line_may_be_absent(self, exported):
        # each file is read past its own metadata lines
        path = exported / "trajectory.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(line for line in lines
                                if not line.startswith("# roles =")),
                        encoding="utf-8")
        loaded = load_trajectory(str(exported))
        assert loaded.distances.shape == (6, 6)

    def test_malformed_row_names_the_file(self, exported, capsys):
        path = exported / "trajectory.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[10] = lines[10].rsplit(",", 1)[0]  # one short data row
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["metrics", str(exported)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err

    @pytest.mark.parametrize("name, counts", [
        ("trajectory.csv", "requires 12 columns but 11 were found at row 1"),
        ("distances.csv", "requires 5 columns but 4 were found at row 1"),
    ], ids=["trajectory.csv-11 columns, expected 12",
            "distances.csv-4 columns, expected 5"])
    def test_missing_column_is_counted(self, exported, name, counts,
                                       capsys):
        # every data row loses its last field (region, monitored); loadtxt
        # counts the first row's columns
        path = exported / name
        lines = path.read_text(encoding="utf-8").splitlines()
        data = 8  # 7 metadata lines and the column names come first
        path.write_text("\n".join(lines[:data] + [
            line.rsplit(",", 1)[0] for line in lines[data:]]) + "\n",
            encoding="utf-8")
        assert main(["metrics", str(exported)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert counts in err

    # (row, column) -> text, on 6 steps of 4 robots (24 trajectory rows)
    # and 6 pairs (36 distance rows): step k starts at row 4k and 6k
    @pytest.mark.parametrize("name, cells, message", [
        ("trajectory.csv", {(9, 1): "1", (8, 1): "2"},
         "step 2 does not list ids 1..4 in order"),
        ("trajectory.csv", {(13, 0): "9.000000000"}, "step 3 has more than one t"),
        ("trajectory.csv", {(21, 11): "0"}, "step 5 has more than one region"),
        # pairs (1, 2) and (1, 3) swapped: they would load into each
        # other's columns
        ("distances.csv", {(18, 2): "3", (19, 2): "2"},
         "step 3 does not list the pairs i < j of ids 1..4 in order"),
        ("distances.csv", {(12 + k, 0): "9.000000000" for k in range(6)},
         "step 2 has another t than trajectory.csv"),
        # values that no run writes, repeated by every step: steps 0-2 are
        # in region 0, steps 3-5 in region 1, and the switch is latched
        ("trajectory.csv", {(16 + r, 11): "2" for r in range(4)},
         "step 4 has a region other than 0 or 1"),
        ("trajectory.csv", {(16 + r, 11): "0" for r in range(4)},
         "step 4 returns to region 0 after the switch"),
        # pair (1, 2) as (2, 1), and pair (1, 3) as a second (1, 2)
        ("distances.csv", {**{(6 * k, 1): "2" for k in range(6)},
                           **{(6 * k, 2): "1" for k in range(6)}},
         "step 0 does not list the pairs i < j of ids 1..4 in order"),
        ("distances.csv", {(6 * k + 1, 2): "2" for k in range(6)},
         "step 0 does not list the pairs i < j of ids 1..4 in order"),
        ("distances.csv", {(6 * k + 2, 4): "2" for k in range(6)},
         "step 0 has a monitored flag other than 0 or 1"),
        ("distances.csv", {(6 * k + 2, 4): "-1" for k in range(6)},
         "step 0 has a monitored flag other than 0 or 1"),
    ], ids=["ids_swapped", "two_times", "two_regions", "pairs_swapped",
            "time_of_another_run", "region_two", "region_unlatched",
            "pair_reversed", "pair_repeated", "monitored_two",
            "monitored_negative"])
    def test_step_must_repeat_the_first(self, exported, name, cells,
                                        message):
        path = exported / name
        edit_rows(path, set_fields(cells))
        with pytest.raises(ValueError) as info:
            load_trajectory(str(exported))
        assert str(info.value) == f"{path}: {message}"

    def test_monitored_flags_must_repeat(self, exported):
        path = exported / "distances.csv"

        def flip(rows):  # step 4, pair (1, 4)
            rows[26][4] = "0" if rows[26][4] == "1" else "1"
        edit_rows(path, flip)
        with pytest.raises(ValueError) as info:
            load_trajectory(str(exported))
        assert str(info.value) == (
            f"{path}: step 4 lists other monitored flags than step 0")

    @pytest.mark.parametrize("name, cells, found", [
        ("distances.csv", {(13, 4): "0.5"}, "'0.5'"),
        ("trajectory.csv", {(13, 1): "1.0"}, "'1.0'"),
        ("trajectory.csv", {(13, 11): "300"}, "'300'"),  # past int8
        ("distances.csv", {(13, 5): "0"}, "5 columns but 6 were found"),
    ], ids=["monitored_half", "id_float", "region_300", "extra_field"])
    def test_row_that_does_not_parse_names_the_file(self, exported, name,
                                                    cells, found):
        # a later row than the first
        path = exported / name
        edit_rows(path, set_fields(cells))
        with pytest.raises(ValueError) as info:
            load_trajectory(str(exported))
        assert str(info.value).startswith(f"{path}: ")
        assert found in str(info.value)


def unlocated(message, path):
    """``message`` less the ``<path>: `` or ``<path>:<line>: `` it opens
    with."""
    assert message.startswith(f"{path}:")
    return re.sub(r"^(:\d+)?: ", "", message[len(str(path)):])


class TestHeaderRules:
    """An export's header keys are the scenario keys of the same names,
    read by the same parser and checked by the same rules."""

    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        # a two-step run of the minimal scenario, whose header values are
        # good values of a scenario file too
        path = tmp_path_factory.mktemp("scenario") / "min.scn"
        write_lines(path, minimal_lines(horizon="0.01"))
        out = tmp_path_factory.mktemp("export")
        export_trajectory(run(parse_scenario(str(path))), str(out))
        return out

    @pytest.mark.parametrize("key, raw", [
        *((key, None) for key in scenario_io._HEADER_KEYS[1:]),
        *((key, raw) for key, raw, _ in BAD_HEADER_VALUES.values()
          if key != "format_version")],
        ids=[*(f"{key}_good" for key in scenario_io._HEADER_KEYS[1:]),
             *(case for case, (key, _, _) in BAD_HEADER_VALUES.items()
               if key != "format_version")])
    def test_loader_accepts_what_a_scenario_accepts(self, exported, tmp_path,
                                                    key, raw):
        # raw None: the value the run wrote
        good = raw is None
        path = tmp_path / "trajectory.csv"
        lines = (exported / "trajectory.csv").read_text(
            encoding="utf-8").splitlines(keepends=True)
        at = [line.startswith(f"# {key} =") for line in lines].index(True)
        if good:
            raw = lines[at].split("=", 1)[1].strip()
        lines[at] = f"# {key} = {raw}\n"
        path.write_text("".join(lines), encoding="utf-8")
        (tmp_path / "distances.csv").write_bytes(
            (exported / "distances.csv").read_bytes())
        scenario = tmp_path / "edited.scn"
        write_lines(scenario, minimal_lines(**{key: raw}))

        def outcome(read, where):
            try:
                read()
            except ValueError as exc:
                return unlocated(str(exc), where)
            return None

        loaded = outcome(lambda: load_trajectory(str(tmp_path)), path)
        parsed = outcome(lambda: parse_scenario(str(scenario)), scenario)
        assert loaded == parsed
        # the run's own value passes, and each bad one fails
        assert (loaded is None) is good

    def test_plus_sign_loads(self, exported, tmp_path):
        # a leading '+' is a number to int(), float() and np.loadtxt alike
        for name in ("trajectory.csv", "distances.csv"):
            text = (exported / name).read_text(encoding="utf-8")
            assert "# time_step = 0.005000000\n" in text
            (tmp_path / name).write_text(
                text.replace("# time_step = 0.005000000",
                             "# time_step = +0.005000000"), encoding="utf-8")
        assert load_trajectory(str(tmp_path)).time_step == 0.005

    def test_every_header_key_round_trips(self, tmp_path):
        # written by _meta_lines, read back by the loader, written again;
        # the log's values print exactly in nine decimals
        log = synthetic_log()
        export_trajectory(log, str(tmp_path))
        loaded = load_trajectory(str(tmp_path))
        assert scenario_io._meta_lines(loaded) == scenario_io._meta_lines(log)
        for key in scenario_io._HEADER_KEYS[1:]:  # all but format_version
            assert np.array_equal(getattr(loaded, key), getattr(log, key)), key


class TestTimeColumn:
    """Step k's t is k * time_step in every export a run writes, up to the
    9-decimal rounding of both; other times are rejected with the file and
    the first bad step, through the CLI as one error line."""

    @pytest.fixture
    def exported(self, tmp_path):
        export_trajectory(run(small_config(horizon=0.05)), str(tmp_path))
        return tmp_path

    @staticmethod
    def assert_rejected(exported, capsys):
        assert main(["metrics", str(exported)]) == 1
        assert capsys.readouterr().err == (
            f"error: {exported / 'trajectory.csv'}: step 1 has a t other "
            "than step x time_step\n")

    def test_edited_time_step(self, exported, capsys):
        # both files say 0.01 s; the rows are still 0.005 s apart
        for name in ("trajectory.csv", "distances.csv"):
            path = exported / name
            text = path.read_text(encoding="utf-8")
            assert text.count("# time_step = 0.005000000\n") == 1
            path.write_text(text.replace("# time_step = 0.005000000\n",
                                         "# time_step = 0.010000000\n"),
                            encoding="utf-8")
        self.assert_rejected(exported, capsys)

    def test_negated_times(self, exported, capsys):
        def negate(rows):
            for row in rows:
                row[0] = "-" + row[0]
        for name in ("trajectory.csv", "distances.csv"):
            edit_rows(exported / name, negate)
        self.assert_rejected(exported, capsys)

    @pytest.mark.parametrize("dt", [0.0033333333333, 0.0050000004999])
    def test_time_step_off_the_printed_grid_reloads(self, tmp_path, dt,
                                                     capsys):
        # time_step prints as 0.003333333 or 0.005000000: off by up to
        # 5e-10, k times over at step k
        log = run(small_config(time_step=dt, horizon=2.0))
        assert log.n_steps > 400
        export_trajectory(log, str(tmp_path))
        times = load_trajectory(str(tmp_path)).times
        assert np.abs(times - log.times).max() < 1e-9
        assert main(["metrics", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""


class TestPlotScript:
    def test_emission(self, tmp_path):
        cfg = small_config(horizon=0.01)
        log = run(cfg)
        export_trajectory(log, str(tmp_path))
        path = emit_plot_script(str(tmp_path))
        with open(path, encoding="utf-8") as fh:
            content = fh.read()
        assert content.count("savefig") == 3
        assert str(tmp_path) not in content  # relative references only
        compile(content, path, "exec")  # syntactically valid

    def test_missing_exports_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            emit_plot_script(str(tmp_path))

    @staticmethod
    def _run_script(log_dir, monkeypatch):
        """Run the emitted script under a matplotlib stand-in; return every
        (name, args) drawing call it made."""
        calls = []

        class Recorder:
            def __getattr__(self, name):
                return lambda *args, **kwargs: calls.append((name, args))

        pyplot = types.ModuleType("matplotlib.pyplot")
        pyplot.subplots = lambda *args, **kwargs: (Recorder(), Recorder())
        matplotlib = types.ModuleType("matplotlib")
        matplotlib.use = lambda backend: None
        matplotlib.pyplot = pyplot
        monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
        monkeypatch.chdir(log_dir)
        runpy.run_path(emit_plot_script(str(log_dir)))
        return calls

    def test_script_reads_goal_and_sensing_radius_from_header(
            self, tmp_path, monkeypatch):
        cfg = small_config(horizon=0.01, sensing_radius=2.2,
                           goal_position=np.array([1.5, -0.5]))
        export_trajectory(run(cfg), str(tmp_path))
        calls = self._run_script(tmp_path, monkeypatch)

        stars = [args for name, args in calls
                 if name == "plot" and isinstance(args[-1], str)
                 and args[-1] == "k*"]
        assert stars == [(1.5, -0.5, "k*")]
        lines = [args for name, args in calls if name == "axhline"]
        assert lines == [(2.2,)]

    def test_rows_start_below_every_metadata_line(self, tmp_path,
                                                  monkeypatch):
        # a repeated '# key = value' line is one more line to skip
        export_trajectory(run(small_config(horizon=0.01)), str(tmp_path))
        for name in ("trajectory.csv", "distances.csv"):
            path = tmp_path / name
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text("".join(lines[:1] + lines), encoding="utf-8")
        calls = self._run_script(tmp_path, monkeypatch)
        assert [args[0] for name, args in calls if name == "savefig"] == [
            "trajectory.png", "distances.png", "heading_decay.png"]

    def test_one_robot_export_skips_the_distance_figure(
            self, tmp_path, monkeypatch, capsys):
        cfg = small_config(n_robots=1, horizon=0.01, linear_gains=[2.0],
                           angular_gains=[8.0],
                           initial_states=make_states([(-4.0, -2.0, 0.5)]))
        export_trajectory(run(cfg), str(tmp_path))
        calls = self._run_script(tmp_path, monkeypatch)

        saved = [args[0] for name, args in calls if name == "savefig"]
        assert saved == ["trajectory.png", "heading_decay.png"]
        assert not any(name == "axhline" for name, _ in calls)
        assert capsys.readouterr().out == (
            "wrote trajectory.png, heading_decay.png\n")


# every number of a scenario, main keys and deployment keys, with +inf in
# its first slot; the keys that the reference file leaves out are added
INFINITE = {
    "workspace_radius": "inf", "sensing_radius": "inf",
    "rendezvous_radius": "inf", "collision_margin": "inf",
    "connectivity_buffer": "inf", "sigmoid_eps": "inf", "dipolar_eps": "inf",
    "field_exponent": "inf", "linear_gains": "inf 4.0 4.0 4.0 4.0 4.0",
    "angular_gains": "inf 8.0 8.0 8.0 8.0 8.0", "goal_position": "inf 0.0",
    "goal_heading": "inf", "time_step": "inf", "horizon": "inf",
    "gradient_floor": "inf", "position_tolerance": "inf",
    "heading_tolerance": "inf", "collision_floor": "inf",
    "center": "inf -3.0", "spread": "inf", "min_separation": "inf"}

# seeded deployment keys out of range: (key, value, error line)
OUT_OF_RANGE = {
    "seed_negative": ("seed", "-1", "seed must be >= 0"),
    "spread_negative": ("spread", "-1.0", "spread must be finite and > 0"),
    "spread_zero": ("spread", "0.0", "spread must be finite and > 0"),
    "min_separation_negative": ("min_separation", "-0.5",
                                "min_separation must be finite and >= 0"),
}


def edited_reference(path, key, value):
    """Write the reference scenario to ``path`` with ``key = value``; a key
    the reference leaves out is added to its main block."""
    with open(SCENARIO, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    keys = [line.split(" = ")[0] for line in lines]
    if key in keys:
        lines[keys.index(key)] = f"{key} = {value}"
    else:
        lines.insert(lines.index("[deployment]"), f"{key} = {value}")
    write_lines(path, lines)
    return path


class TestCli:
    def test_check_ok(self, capsys):
        assert main(["check", SCENARIO]) == 0
        out = capsys.readouterr().out
        assert "switch distance 1.500 m" in out
        assert "spanning tree" in out

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        write_lines(path, minimal_lines(collision_margin="2.0"))
        assert main(["check", str(path)]) == 1

    def test_rim_pose_fails_check(self, tmp_path, capsys):
        # on the rim by np.hypot, the norm of the run's boundary monitor
        lines = minimal_lines(workspace_radius="50.0")
        lines[-2:] = ["pose_1 = 47.677240129507744 -15.062561987698379 0.0",
                      "pose_2 = 46.9 -14.9 0.0"]
        path = tmp_path / "rim.scn"
        write_lines(path, lines)
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: robot 1 must start strictly inside the "
            "workspace\n")

    def test_assumption_failure_exit_code(self, tmp_path, capsys):
        lines = minimal_lines()
        lines[-1] = "pose_2 = 10.0 10.0 0.0"  # out of sensing range
        path = tmp_path / "split.scn"
        write_lines(path, lines)
        assert main(["check", str(path)]) == 2

    @pytest.mark.parametrize("command", ["check", "run"])
    def test_split_graph_names_the_file(self, tmp_path, capsys, command):
        lines = minimal_lines()
        lines[-1] = "pose_2 = 10.0 10.0 0.0"  # out of sensing range
        path = tmp_path / "split.scn"
        write_lines(path, lines)
        out = tmp_path / "logs"
        extra = ["--out", str(out)] if command == "run" else []
        assert main([command, str(path), *extra]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: initial graph has no spanning tree rooted at "
            "the informed robot\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", sorted(INFINITE))
    def test_infinite_number_named(self, tmp_path, capsys, key):
        path = edited_reference(tmp_path / "inf.scn", key, INFINITE[key])
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err

    @pytest.mark.parametrize("case", OUT_OF_RANGE)
    def test_seeded_key_out_of_range_named(self, tmp_path, capsys, case):
        # checked before the first draw: numpy would reject a negative
        # seed without naming it, and no spread of 0 draws a connected
        # deployment
        key, value, message = OUT_OF_RANGE[case]
        path = edited_reference(tmp_path / "bad.scn", key, value)
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("pose", ["inf -1.6 -1.0", "-6.8 -1.6 inf",
                                      "nan -1.6 -1.0", "-6.8 -inf -1.0",
                                      "-6.8 nan -1.0"])
    def test_infinite_pose_named(self, tmp_path, capsys, pose):
        lines = minimal_lines()
        lines[-1] = f"pose_2 = {pose}"
        path = tmp_path / "inf.scn"
        write_lines(path, lines)
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: pose_2 must be finite\n")

    def test_robot_count_against_gains_exit_code(self, tmp_path, capsys):
        path = edited_reference(tmp_path / "seven.scn", "n_robots", "7")
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: linear_gains must list one gain per robot\n")

    def test_non_finite_state_exit_code(self, tmp_path, capsys):
        # k_w = 1e308 overflows the informed robot's turn rate at once
        path = edited_reference(tmp_path / "huge.scn", "angular_gains",
                                "1e308 8.0 8.0 8.0 8.0 8.0")
        out = tmp_path / "logs"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: non-finite state after integration: robot 1 "
            "at (x, y, theta) = (nan, nan, nan), step 2, t = 0.010 s\n")
        assert not out.exists()

    def test_seeded_assumption_failure_exit_code(self, tmp_path, capsys):
        # every draw that keeps the robots min_separation apart puts them
        # out of sensing range: the sampler runs out of attempts
        lines = minimal_lines(SEEDED)
        lines[-1] = "min_separation = 2.0"
        path = tmp_path / "apart.scn"
        write_lines(path, lines)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == (f"error: {path}: seeded deployment: "
                                           "no connected draw in 1000 "
                                           "attempts\n")

    def test_run_and_metrics_and_plots(self, tmp_path, capsys):
        path = tmp_path / "tiny.scn"
        write_lines(path, minimal_lines(horizon="0.05"))
        out = tmp_path / "logs"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "distances.csv").exists()
        assert main(["metrics", str(out)]) == 0
        assert "final goal distances" in capsys.readouterr().out
        assert main(["plots", str(out)]) == 0
        assert (out / "plots.py").exists()

    def test_metrics_of_export_match_run(self, tmp_path, capsys):
        # the goal is close enough that the region switch happens, so every
        # metric line is printed
        path = tmp_path / "near.scn"
        write_lines(path, minimal_lines(horizon="0.5",
                                        goal_position="-5.0 -1.0"))
        out = tmp_path / "logs"
        assert main(["run", str(path), "--out", str(out)]) == 0
        ran = capsys.readouterr().out.splitlines()
        assert main(["metrics", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 7
        assert any("dropped at" in line for line in printed)
        assert ran[-1 - len(printed):-1] == printed

    def test_run_lists_recorded_violations(self, tmp_path, capsys):
        # the first second of a committed counterexample, run without
        # --strict, records 11 collision events: ten are listed
        with open(os.path.join(SCENARIOS, "counterexamples",
                               "sparse48_seed2.scn"), encoding="utf-8") as fh:
            text = fh.read()
        assert text.count("horizon = 20.0\n") == 1
        path = tmp_path / "collide.scn"
        path.write_text(text.replace("horizon = 20.0\n", "horizon = 1.0\n"),
                        encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "11 monitor violations recorded:"
        assert all(line.startswith("  step ") and ": collision: pair (" in line
                   for line in out[2:12])
        assert out[12] == "  ... and 1 more"

    def test_strict_violation_exit_code(self, tmp_path, capsys):
        # a collision floor above the robots' spacing trips the monitor
        # immediately
        path = tmp_path / "hot.scn"
        write_lines(path, minimal_lines(collision_floor="1.5"))
        assert main(["run", str(path), "--strict",
                     "--out", str(tmp_path / "o")]) == 3

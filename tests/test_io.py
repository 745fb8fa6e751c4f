import os
from dataclasses import fields as dc_fields

import numpy as np
import pytest

from rendezsim import (FieldParams, ScenarioError, compute_metrics,
                       emit_plot_script, export_trajectory, load_trajectory,
                       parse_scenario, run, write_scenario)
from rendezsim.cli import main
from rendezsim.scenario_io import ParseError

from conftest import small_config

SCENARIO = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                        "rendezvous_s5.scn")


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def minimal_lines(**overrides):
    """A valid two-robot scenario as a dict of key -> text value."""
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
    lines += ["[deployment]", "mode = explicit",
              "pose_1 = -6.0 -1.0 0.5", "pose_2 = -6.8 -1.6 -1.0"]
    return lines


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
        assert FieldParams.from_config(cfg).switch_distance == pytest.approx(1.5)
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

    def test_unknown_key_rejected_with_line(self, tmp_path):
        # integrator was a key once; old files must fail, not parse silently
        for key in ("bogus_knob", "integrator"):
            path = tmp_path / "bad.scn"
            write_lines(path, [f"{key} = rk4"] + minimal_lines())
            with pytest.raises(ParseError, match=rf"bad.scn:1.*{key}"):
                parse_scenario(str(path))

    def test_bad_number_reported(self, tmp_path):
        path = tmp_path / "bad.scn"
        write_lines(path, minimal_lines(sensing_radius="two meters"))
        with pytest.raises(ParseError, match="bad value"):
            parse_scenario(str(path))

    def test_validation_failure_propagates(self, tmp_path):
        path = tmp_path / "bad.scn"
        write_lines(path, minimal_lines(collision_margin="2.0"))
        with pytest.raises(ScenarioError, match="collision_margin"):
            parse_scenario(str(path))

    def test_config_roundtrip_field_by_field(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "echo.scn"
        write_scenario(cfg, str(path))
        back = parse_scenario(str(path))
        for f in dc_fields(cfg):
            a, b = getattr(cfg, f.name), getattr(back, f.name)
            if f.name == "initial_states":
                for sa, sb in zip(a, b):
                    assert np.array_equal(sa.position, sb.position)
                    assert sa.heading == sb.heading
                    assert sa.role == sb.role
            elif isinstance(a, np.ndarray):
                assert np.array_equal(a, b)
            else:
                assert a == b, f.name


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


class TestPlotScript:
    def test_emission(self, tmp_path):
        cfg = small_config(horizon=0.01)
        log = run(cfg)
        export_trajectory(log, str(tmp_path))
        path = emit_plot_script(str(tmp_path))
        content = open(path).read()
        assert content.count("savefig") == 3
        assert str(tmp_path) not in content  # relative references only
        compile(content, path, "exec")  # syntactically valid

    def test_missing_exports_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            emit_plot_script(str(tmp_path))


class TestCli:
    def test_check_ok(self, capsys):
        assert main(["check", SCENARIO]) == 0
        assert "spanning tree" in capsys.readouterr().out

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        write_lines(path, minimal_lines(collision_margin="2.0"))
        assert main(["check", str(path)]) == 1

    def test_assumption_failure_exit_code(self, tmp_path, capsys):
        lines = minimal_lines()
        lines[-1] = "pose_2 = 10.0 10.0 0.0"  # out of sensing range
        path = tmp_path / "split.scn"
        write_lines(path, lines)
        assert main(["check", str(path)]) == 2

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

    def test_strict_violation_exit_code(self, tmp_path, capsys):
        # a collision floor above the robots' spacing trips the monitor
        # immediately
        path = tmp_path / "hot.scn"
        write_lines(path, minimal_lines(collision_floor="1.5"))
        assert main(["run", str(path), "--strict",
                     "--out", str(tmp_path / "o")]) == 3

"""Experiment presets, sweep driver, CSV emission, and the console entry point."""

import csv
import dataclasses
import io
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import wfdsim
from wfdsim.cli import (
    ExperimentConfig,
    PRESET_NAMES,
    RATIO_GRID,
    ResultRow,
    STRENGTH_GRID,
    build_devices,
    emit_csv,
    main,
    parse_experiment_config,
    preset,
    run_experiment,
)
from wfdsim.simulation import (
    DefenseMode,
    HOUR_SCHEDULE,
    InvalidConfig,
    MINUTE_SCHEDULE,
    Schedule,
)

S, L = DefenseMode.STANDARD, DefenseMode.LEARNING
C, LC = DefenseMode.COMMITMENT, DefenseMode.LEARNING_COMMITMENT


def quick_config(**overrides):
    settings = dict(device_count=2, modes=(S, L),
                    sweep="tbb_strength", grid=(0.0, 1.0), seeds=1,
                    horizon_days=2)
    settings.update(overrides)
    return ExperimentConfig(**settings)


STRENGTH_PAIR = dict(
    device_count=2, modes=(S, L, C, LC),
    grid=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    seeds=10, seed_base=0, horizon_days=400, schedule=MINUTE_SCHEDULE,
    r_strength=0.0, retry_cap=16)
RATIO_CROWD = dict(
    modes=(S, L), sweep="attacker_ratio", grid=(0.25, 0.5, 0.75),
    seeds=10, seed_base=0, horizon_days=400, schedule=HOUR_SCHEDULE,
    tbb_strength=1.0, r_strength=0.0, retry_cap=16)

# every setting of every preset
PRESET_FIELDS = {
    "var_tbb_strength": dict(STRENGTH_PAIR, sweep="tbb_strength", tbb_strength=1.0),
    "var_r_strength": dict(STRENGTH_PAIR, sweep="r_strength", tbb_strength=0.5),
    "attacker_ratio_5": dict(RATIO_CROWD, device_count=5),
    "attacker_ratio_10": dict(RATIO_CROWD, device_count=10),
}


class TestPresets:
    def test_every_setting_is_pinned(self):
        assert tuple(PRESET_FIELDS) == PRESET_NAMES
        settings = {f.name for f in dataclasses.fields(ExperimentConfig)}
        for fields in PRESET_FIELDS.values():
            assert set(fields) == settings

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_settings(self, name):
        cfg = preset(name)
        assert {key: getattr(cfg, key) for key in PRESET_FIELDS[name]} == PRESET_FIELDS[name]

    def test_defaults_are_the_tie_bit_sweep(self):
        assert preset("var_tbb_strength") == ExperimentConfig()
        assert STRENGTH_GRID == PRESET_FIELDS["var_tbb_strength"]["grid"]
        assert RATIO_GRID == PRESET_FIELDS["attacker_ratio_5"]["grid"]

    def test_unknown_preset(self):
        with pytest.raises(InvalidConfig):
            preset("var_nonsense")


class TestConfigValidation:
    @pytest.mark.parametrize("overrides", [
        dict(device_count=1),
        dict(modes=()),
        dict(modes=(S, S)),
        dict(sweep="volume"),
        dict(grid=()),
        dict(grid=(0.5, 1.5)),
        dict(seeds=0),
        dict(horizon_days=0),
        dict(tbb_strength=1.2),
        dict(r_strength=-0.2),
        dict(retry_cap=-1),
        # whole-number fields
        dict(seeds=1.5),
        dict(device_count=2.5),
        dict(horizon_days=1.5),
        dict(seed_base=0.5),
        # values of the wrong type
        dict(modes=("S",)),
        dict(schedule=(360, 60)),
        dict(grid=("a",)),
        dict(tbb_strength="x"),
        dict(r_strength=None),
    ])
    def test_rejected(self, overrides):
        with pytest.raises(InvalidConfig):
            quick_config(**overrides)


class TestResultRow:
    def test_needs_seeds(self):
        with pytest.raises(ValueError):
            ResultRow(0.5, S, seed_days=())

    def test_summary_follows_seed_days(self):
        one = ResultRow(0.5, S, (3.5,))
        assert (one.mean_days, one.stddev_days) == (3.5, 0.0)
        days = (1.0, 2.5, 7.0)
        several = ResultRow(0.5, S, days)
        assert several.mean_days == statistics.fmean(days)
        assert several.stddev_days == statistics.stdev(days)


class TestBuildDevices:
    def test_two_device_strength_sweep(self):
        cfg = quick_config()
        devices = build_devices(cfg, L, 0.7)
        assert [d.device_id for d in devices] == ["victim", "attacker0"]
        victim, attacker = devices
        assert victim.defense is L
        assert victim.schedule is None        # responds only
        assert attacker.schedule == cfg.schedule
        assert attacker.defense is S
        assert attacker.attack.tbb_strength == 0.7
        assert attacker.attack.r_strength == 0.0

    def test_quit_sweep_holds_tie_bit_strength(self):
        cfg = quick_config(sweep="r_strength", tbb_strength=0.5)
        attacker = build_devices(cfg, S, 0.3)[1]
        assert attacker.attack.tbb_strength == 0.5
        assert attacker.attack.r_strength == 0.3

    @pytest.mark.parametrize("count,expected", [
        (5, {0.25: 1, 0.5: 2, 0.75: 3}),
        (10, {0.25: 2, 0.5: 5, 0.75: 7}),
    ])
    def test_ratio_headcounts_round_half_up(self, count, expected):
        cfg = quick_config(device_count=count, sweep="attacker_ratio",
                           grid=RATIO_GRID, schedule=HOUR_SCHEDULE)
        for ratio, attackers in expected.items():
            devices = build_devices(cfg, L, ratio)
            assert len(devices) == count
            names = [d.device_id for d in devices]
            assert names[0] == "victim"
            assert sum(n.startswith("attacker") for n in names) == attackers
            assert sum(n.startswith("peer") for n in names) == count - 1 - attackers
            # everyone initiates in the crowd experiments
            assert all(d.schedule == HOUR_SCHEDULE for d in devices)
            assert all(d.defense is L for d in devices
                       if not d.device_id.startswith("attacker"))


class TestRunExperiment:
    def test_row_grid_ordering_and_shape(self):
        rows = run_experiment(quick_config())
        assert [(r.sweep_value, r.mode) for r in rows] == [
            (0.0, S), (0.0, L), (1.0, S), (1.0, L)]
        for row in rows:
            assert len(row.seed_days) == 1
            assert row.stddev_days == 0.0

    def test_short_horizon_censors_to_horizon_days(self):
        rows = run_experiment(quick_config())
        # nobody depletes inside two days, so every cell reports the horizon
        assert all(row.mean_days == 2.0 for row in rows)
        assert all(row.seed_days == (2.0,) for row in rows)

    def test_reruns_are_byte_identical(self):
        cfg = quick_config(seeds=2)
        assert emit_csv(run_experiment(cfg)) == emit_csv(run_experiment(cfg))


class TestEmitCsv:
    def test_header_and_shape(self):
        payload = emit_csv(run_experiment(quick_config()))
        lines = payload.decode("ascii").splitlines()
        assert lines[0] == "sweep,mode,mean_days,stddev_days,seed_0"
        assert len(lines) == 5
        assert lines[1] == "0.0,S,2.000000,0.000000,2.000000"

    def test_empty_rows(self):
        assert emit_csv([]) == b"sweep,mode,mean_days,stddev_days\n"

    def test_mismatched_seed_counts_rejected(self):
        rows = [ResultRow(0.0, S, (1.0,)),
                ResultRow(1.0, S, (1.0, 1.0))]
        with pytest.raises(InvalidConfig):
            emit_csv(rows)

    def test_csv_round_trip(self):
        original = emit_csv(run_experiment(quick_config(seeds=2)))
        reader = csv.reader(io.StringIO(original.decode("ascii")))
        header = next(reader)
        seed_cols = [name for name in header if name.startswith("seed_")]
        by_value = {m.value: m for m in DefenseMode}
        rows = []
        for record in reader:
            sweep, mode, _mean, _stddev, *seeds = record
            assert len(seeds) == len(seed_cols)
            rows.append(ResultRow(float(sweep), by_value[mode], tuple(map(float, seeds))))
        assert emit_csv(rows) == original

    def test_numpy_sweep_value_written_as_float(self):
        np = pytest.importorskip("numpy")
        payload = emit_csv(run_experiment(quick_config(modes=(S,), grid=(np.float64(0.5),))))
        assert payload.decode("ascii").splitlines()[1].startswith("0.5,S,")


class TestParseExperimentConfig:
    def test_defaults(self):
        assert parse_experiment_config("") == preset("var_tbb_strength")

    def test_full_file(self):
        text = """\
# crowd experiment, small
device_count = 5
modes = S,L
sweep = attacker_ratio
grid = 0.25,0.5,0.75
seeds = 3
seed_base = 100
horizon_days = 30
schedule = hour
tbb_strength = 1.0
r_strength = 0.0
retry_cap = 8
"""
        cfg = parse_experiment_config(text)
        assert cfg == ExperimentConfig(
            device_count=5, modes=(S, L),
            sweep="attacker_ratio", grid=(0.25, 0.5, 0.75), seeds=3,
            seed_base=100, horizon_days=30, schedule=HOUR_SCHEDULE,
            tbb_strength=1.0, r_strength=0.0, retry_cap=8)

    def test_custom_schedule_spec(self):
        cfg = parse_experiment_config("schedule = 100/20\n")
        assert cfg.schedule == Schedule(period=100, group_duration=20)

    @pytest.mark.parametrize("text,lineno,fragment", [
        ("volume = 3", 1, "unknown key"),
        ("seeds = many", 1, "bad value"),
        ("seeds = 3\nseeds = 4", 2, "duplicate key"),
        ("just words", 1, "expected key=value"),
        ("modes = S,X", 1, "unknown defense mode"),
        ("schedule = sometimes", 1, "schedule must be"),
        ("schedule = 60/120", 1, "group_duration <= period"),
        ("variant = probe_commit", 1, "unknown key"),
        ("experiment = crowd", 1, "unknown key"),
        ("grid = 0.1,zap", 1, "comma-separated numbers"),
    ])
    def test_diagnostics_name_the_line(self, text, lineno, fragment):
        with pytest.raises(InvalidConfig) as err:
            parse_experiment_config(text)
        assert f"line {lineno}" in str(err.value)
        assert fragment in str(err.value)

    def test_semantic_errors_surface_after_parse(self):
        with pytest.raises(InvalidConfig):
            parse_experiment_config("device_count = 1\n")


class TestMain:
    def args_for(self, tmp_path, extra=()):
        out = tmp_path / "result.csv"
        return out, ["--experiment", "var_tbb_strength", "--modes", "S",
                     "--seeds", "1", "--horizon-days", "2",
                     "--out", str(out), *extra]

    def test_preset_with_overrides(self, tmp_path):
        out, argv = self.args_for(tmp_path)
        assert main(argv) == 0
        expected = emit_csv(run_experiment(dataclasses.replace(
            preset("var_tbb_strength"), modes=(S,), seeds=1, horizon_days=2)))
        assert out.read_bytes() == expected

    def test_repeat_runs_write_identical_bytes(self, tmp_path):
        out, argv = self.args_for(tmp_path)
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_config_file(self, tmp_path):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text("grid = 0.0,1.0\nmodes = S\nseeds = 1\n"
                            "horizon_days = 2\n")
        out = tmp_path / "out.csv"
        assert main(["--config", str(cfg_path), "--out", str(out)]) == 0
        expected = emit_csv(run_experiment(quick_config(
            modes=(S,))))
        assert out.read_bytes() == expected

    def test_flag_overrides_config_file(self, tmp_path):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text("grid = 0.0\nmodes = S\nseeds = 1\nhorizon_days = 2\n")
        out = tmp_path / "out.csv"
        assert main(["--config", str(cfg_path), "--seed-base", "7",
                     "--out", str(out)]) == 0
        expected = emit_csv(run_experiment(quick_config(
            modes=(S,), grid=(0.0,), seed_base=7)))
        assert out.read_bytes() == expected

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text("device_count = 1\n")
        assert main(["--config", str(cfg_path)]) == 2
        assert "wfdsim:" in capsys.readouterr().err

    def test_variant_flag_is_gone(self):
        with pytest.raises(SystemExit) as err:
            main(["--experiment", "var_tbb_strength", "--variant", "probe_commit"])
        assert err.value.code == 2

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.cfg")]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text("grid = 0.0\nmodes = S\nseeds = 1\nhorizon_days = 2\n")
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["--config", str(cfg_path), "--out", str(missing_dir)]) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_source_flags_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["--experiment", "var_tbb_strength", "--config", "x.cfg"])
        assert err.value.code == 2

    def test_a_source_flag_is_required(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_preset_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as err:
            main(["--experiment", "var_nonsense"])
        assert err.value.code == 2

    def test_module_form_runs_quietly(self):
        env = dict(os.environ)
        src = str(Path(wfdsim.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-m", "wfdsim", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "--experiment" in proc.stdout

"""Command-line contract: subcommands, artifacts on disk, and exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from fogloop import cli
from fogloop.cli import main
from fogloop.errors import ConfigError
from fogloop.metrics import MetricsFold
from fogloop.model import ValidationReport
from fogloop.runtime import run_scenario
from fogloop.scenario import parse_scenario
from fogloop.simnet import EventTrace
from fogloop.smartbuilding import BadArgumentError, Device, UnknownCommandError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
ONE_OFFICE = str(SCENARIOS / "smart_building_1office.json")
THREE_CENTRAL = str(SCENARIOS / "smart_building_3office_centralized.json")


def write_scenario(tmp_path: Path, data: dict) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


def unreadable_parameter(tmp_path: Path) -> str:
    """The 1-office scenario with the heater sampling a reading no heater
    reads."""
    data = json.loads(Path(ONE_OFFICE).read_text())
    data["devices"]["office1.heater"]["samples"]["bogus-param"] = 1000
    return write_scenario(tmp_path, data)


# How a violation line shows 10**400: its first and last digits and their count.
BIG_SHOWN = "100000000000...000000000000 (401 digits)"


def huge_outside_temperature(tmp_path: Path) -> str:
    """The 1-office scenario with an integer outside temperature beyond the
    float range, which json reads exactly."""
    data = json.loads(Path(ONE_OFFICE).read_text())
    data["defaults"]["outside_temp_c"] = 10**400
    return write_scenario(tmp_path, data)


def overflowing_sum(tmp_path: Path) -> str:
    """The 3-office centralized scenario summing three room temperatures of
    1.7e308: valid, but the sum is beyond the largest float."""
    data = json.loads(Path(THREE_CENTRAL).read_text())
    data["defaults"]["room_temp_c"] = 1.7e308
    data["control"]["master"]["aggregations"].append({
        "name": "sum-temp", "combinator": "sum", "output": "sum-temp-c",
        "output_type": "real",
        "inputs": [[f"office{n}.heater", "room-temp"] for n in (1, 2, 3)]})
    return write_scenario(tmp_path, data)


def _lights_off_sunny(data: dict) -> dict:
    return next(policy for policy in data["policies"]
                if policy["name"] == "office1-lights-off-sunny")


def blink_on_lamp(data: dict) -> None:
    """A policy sends the lamp a command no lamp has."""
    _lights_off_sunny(data)["then"].append({"service": "office1.lamp", "command": "blink"})


def ring_unhosted_alarm(data: dict) -> None:
    """A policy rings an alarm that has no devices entry."""
    _lights_off_sunny(data)["then"].append({"service": "office1.alarm", "command": "ring"})


def ajar_window(data: dict) -> None:
    """A policy sets the window to a position it is typed for but no window
    takes."""
    _lights_off_sunny(data)["then"].append(
        {"service": "office1.window", "command": "set-position", "arg": "ajar"})


def arm_clock_for_zero(data: dict) -> None:
    """The clock is armed for 0 ms: an integer, but not a positive one."""
    next(policy for policy in data["policies"]
         if policy["name"] == "office1-arm-clock")["then"][0]["arg"] = 0


def light_a_lamp_no_slave_owns(data: dict) -> None:
    """The master turns office1's lamp off in the sun, but office1's scope no
    longer holds the lamp, so no slave can take the action, and office1's
    lamp rules no longer receive the lamp's samples."""
    loops = {loop["id"]: loop for loop in data["loops"]}
    loops["office1"]["scope"].remove("office1.lamp")
    data["policies"].append({
        "name": "building-lamp",
        "when": [{"service": "environment", "parameter": "weather", "op": "==",
                  "value": "sunny"}],
        "then": [{"service": "office1.lamp", "command": "set-power", "arg": False}],
    })
    loops["building"]["policies"].append("building-lamp")


def skip_validation(monkeypatch) -> None:
    """Let a scenario reach the Runtime build whatever validation says."""
    monkeypatch.setattr(cli, "validate_scenario", lambda scenario: ValidationReport())


def break_devices(monkeypatch) -> None:
    """Make every device fail on the first command it gets: a fault no
    validation can foresee."""
    def apply(self, command, arg, now):
        raise RuntimeError(f"{self.service} broke")

    monkeypatch.setattr(Device, "apply", apply)


def assert_traceback(captured) -> None:
    assert captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):\n")
    assert captured.err.endswith("RuntimeError: office1.clock broke\n")


class TestValidate:
    def test_bundled_scenario_is_clean(self, capsys):
        assert main(["validate", ONE_OFFICE]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok: smart-building-1office")

    def test_missing_file_is_an_input_error(self, capsys):
        assert main(["validate", "/no/such/scenario.json"]) == 2
        assert "cannot read scenario" in capsys.readouterr().err

    def test_unparseable_file_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_repeated_key_is_an_input_error(self, tmp_path, capsys):
        # json alone keeps the last of two values under one key, so the
        # first declaration of the lamp would vanish unseen.
        text = Path(ONE_OFFICE).read_text()
        path = tmp_path / "scenario.json"
        path.write_text(text.replace(
            '"devices": {',
            '"devices": {"office1.lamp": {"kind": "lamp", "node": "fog1", '
            '"office": "office1"},', 1))
        assert main(["validate", str(path)]) == 2
        assert "scenario repeats the key 'office1.lamp'" in capsys.readouterr().err

    def test_mistyped_office_is_an_input_error(self, tmp_path, capsys):
        data = json.loads(Path(ONE_OFFICE).read_text())
        data["devices"]["office1.lamp"]["office"] = ["office1"]
        assert main(["validate", write_scenario(tmp_path, data)]) == 2
        assert "devices.office1.lamp.office: expected string" in capsys.readouterr().err

    @pytest.mark.parametrize("place, path", [
        (lambda data, v: data["defaults"].update(outside_temp_c=v),
         "defaults.outside_temp_c"),
        (lambda data, v: data["environment"].append({"t": 10**9, "outside_temp_c": v}),
         "environment[1]"),
    ], ids=["defaults", "environment"])
    @pytest.mark.parametrize("value, shown", [
        (float("nan"), "nan"), (10**400, BIG_SHOWN),
    ], ids=["nan", "int"])
    def test_out_of_range_real_is_a_violation_however_spelled(self, tmp_path, capsys,
                                                              place, path, value, shown):
        # json reads NaN, and reads an integer literal exactly, however long.
        data = json.loads(Path(ONE_OFFICE).read_text())
        assert len(data["environment"]) == 1
        place(data, value)
        data["defaults"]["weather"] = "foggy"
        assert main(["validate", write_scenario(tmp_path, data)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert any(line.startswith(f"{path}: ") and f"{shown} is not real" in line
                   for line in out), out
        assert any(line.startswith("defaults.weather: ") for line in out), out

    def test_stream_of_the_wrong_type_is_a_validation_error(self, tmp_path, capsys,
                                                             type_gap):
        data, path = type_gap
        assert main(["validate", write_scenario(tmp_path, data)]) == 1
        assert any(line.startswith(f"{path}: ")
                   for line in capsys.readouterr().out.splitlines())

    def test_violations_print_one_per_line(self, tmp_path, capsys):
        data = json.loads(Path(ONE_OFFICE).read_text())
        data["loops"][0]["policies"] += ["no-such-rule", "nor-this-one"]
        path = write_scenario(tmp_path, data)
        assert main(["validate", path]) == 1
        out = capsys.readouterr().out.strip().splitlines()
        assert [line for line in out if "unknown policy" in line] == [
            "loops[0].policies: unknown policy 'no-such-rule'",
            "loops[0].policies: unknown policy 'nor-this-one'",
        ]
        assert all(line for line in out)


class TestRun:
    def test_writes_all_three_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main([
            "run", "--scenario", ONE_OFFICE, "--seed", "42",
            "--until-ms", "20000", "--out", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "trace.jsonl").exists()
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "summary.txt").exists()
        for line in (out_dir / "trace.jsonl").read_text().splitlines():
            json.loads(line)
        csv = (out_dir / "metrics.csv").read_text().splitlines()
        assert csv[0] == "metric,key,value"
        stdout = capsys.readouterr().out
        assert "decision latency ms:" in stdout
        assert "fog->cloud messages:" in stdout

    def test_format_selects_artifacts(self, tmp_path):
        out_dir = tmp_path / "out"
        code = main([
            "run", "--scenario", ONE_OFFICE, "--seed", "1",
            "--until-ms", "5000", "--out", str(out_dir),
            "--format", "jsonl",
        ])
        assert code == 0
        assert (out_dir / "trace.jsonl").exists()
        assert not (out_dir / "metrics.csv").exists()
        assert not (out_dir / "summary.txt").exists()

    def test_run_without_a_trace_file_keeps_no_rows(self, tmp_path, monkeypatch):
        run_scenario = cli.run_scenario
        sinks = []

        def recording(*args, **kwargs):
            result = run_scenario(*args, **kwargs)
            sinks.append(result.trace)
            return result

        monkeypatch.setattr(cli, "run_scenario", recording)
        outs = {}
        for name, formats in (("full", "jsonl,csv,txt"), ("folded", "csv,txt")):
            out_dir = tmp_path / name
            assert main([
                "run", "--scenario", THREE_CENTRAL, "--seed", "7",
                "--until-ms", "20000", "--out", str(out_dir), "--format", formats,
            ]) == 0
            outs[name] = out_dir
        assert isinstance(sinks[0], EventTrace) and sinks[0].events
        assert isinstance(sinks[1], MetricsFold)
        assert not (outs["folded"] / "trace.jsonl").exists()
        for artifact in ("metrics.csv", "summary.txt"):
            assert ((outs["folded"] / artifact).read_bytes()
                    == (outs["full"] / artifact).read_bytes())

    def test_same_config_twice_is_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert main([
                "run", "--scenario", ONE_OFFICE, "--seed", "42",
                "--until-ms", "20000", "--out", str(out_dir),
            ]) == 0
            outs.append((out_dir / "trace.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_mode_override_switches_control(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main([
            "run", "--scenario", THREE_CENTRAL, "--seed", "3",
            "--until-ms", "3000", "--out", str(out_dir),
            "--mode", "decentralized",
        ])
        assert code == 0
        summary = (out_dir / "summary.txt").read_text()
        assert "control mode: decentralized" in summary

    def test_impossible_mode_override_is_an_input_error(self, capsys):
        code = main([
            "run", "--scenario", ONE_OFFICE, "--seed", "1",
            "--until-ms", "1000", "--mode", "decentralized",
        ])
        assert code == 2
        assert "at least two" in capsys.readouterr().err

    def test_unwritable_output_is_an_output_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main([
            "run", "--scenario", ONE_OFFICE, "--seed", "1",
            "--until-ms", "1000", "--out", str(blocker),
        ])
        assert code == 3
        assert "cannot write outputs" in capsys.readouterr().err

    def test_env_var_sets_default_output_directory(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("FOGLOOP_OUT", str(target))
        assert main([
            "run", "--scenario", ONE_OFFICE, "--seed", "1",
            "--until-ms", "1000",
        ]) == 0
        assert (target / "trace.jsonl").exists()

    def test_zero_horizon_is_rejected(self):
        with pytest.raises(SystemExit) as err:
            main([
                "run", "--scenario", ONE_OFFICE, "--seed", "1",
                "--until-ms", "0",
            ])
        assert err.value.code == 2

    def test_violating_scenario_is_a_validation_error(self, tmp_path, capsys):
        data = json.loads(Path(ONE_OFFICE).read_text())
        data["loops"][0]["scope"] = ["office1.door", "ghost-service"]
        path = write_scenario(tmp_path, data)
        code = main([
            "run", "--scenario", path, "--seed", "1", "--until-ms", "1000",
        ])
        assert code == 1
        assert "ghost-service" in capsys.readouterr().out

    def test_non_finite_real_is_a_validation_error(self, tmp_path, capsys):
        # json reads NaN; a mean over NaN room temperatures once crashed the run.
        data = json.loads(Path(THREE_CENTRAL).read_text())
        data["defaults"]["room_temp_c"] = float("nan")
        data["control"]["master"]["aggregations"].append({
            "name": "mean-temp", "combinator": "mean", "output": "mean-temp-c",
            "output_type": "real",
            "inputs": [[f"office{n}.heater", "room-temp"] for n in (1, 2, 3)]})
        code = main([
            "run", "--scenario", write_scenario(tmp_path, data), "--seed", "1",
            "--until-ms", "5000", "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "defaults.room_temp_c: nan is not real" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_real_integer_beyond_float_range_is_a_validation_error(self, tmp_path, capsys):
        code = main([
            "run", "--scenario", huge_outside_temperature(tmp_path), "--seed", "1",
            "--until-ms", "5000", "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert f"defaults.outside_temp_c: {BIG_SHOWN} is not real" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_aggregation_overflow_is_an_input_error(self, tmp_path, capsys):
        path = overflowing_sum(tmp_path)
        assert main(["validate", path]) == 0
        code = main([
            "run", "--scenario", path, "--seed", "1",
            "--until-ms", "5000", "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "aggregation 'sum-temp' at t=3 ms: its sum is beyond the float range\n")
        assert not (tmp_path / "out").exists()

    def test_unreadable_parameter_is_a_validation_error(self, tmp_path, capsys):
        code = main([
            "run", "--scenario", unreadable_parameter(tmp_path), "--seed", "1",
            "--until-ms", "1000", "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "a heater cannot read 'bogus-param'" in capsys.readouterr().out

    def test_stream_of_the_wrong_type_is_a_validation_error(self, tmp_path, capsys,
                                                             type_gap):
        data, path = type_gap
        code = main([
            "run", "--scenario", write_scenario(tmp_path, data), "--seed", "1",
            "--until-ms", "1000", "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert any(line.startswith(f"{path}: ")
                   for line in capsys.readouterr().out.splitlines())
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mutate, crash, line", [
        (blink_on_lamp, UnknownCommandError,
         "policies[0].then[1]: 'office1.lamp' has no command 'blink'"),
        (ring_unhosted_alarm, ConfigError,
         "policies[0].then[1]: 'office1.alarm' is not a devices entry"),
        (ajar_window, BadArgumentError,
         "policies[0].then[1]: argument 'ajar' of 'set-position' on a window "
         "is not open or closed"),
        (arm_clock_for_zero, BadArgumentError,
         "policies[1].then[0]: argument 0 of 'arm' on a clock is not a positive integer"),
    ], ids=["blink", "unhosted", "window-ajar", "arm-zero"])
    def test_action_no_device_can_carry_out_is_a_validation_error(
            self, tmp_path, capsys, mutate, crash, line):
        # Each of these once validated, and its run then died mid-way when
        # its policy fired: the locked door arms the clock at once, and the
        # sunny weather at 300 s turns the lights off. The alarm has no
        # devices entry, so no device rings it, and the unchecked build now
        # fails before the run starts.
        data = json.loads(Path(ONE_OFFICE).read_text())
        mutate(data)
        with pytest.raises(crash):
            run_scenario(parse_scenario(data), 1, 310_000, check=False)
        path = write_scenario(tmp_path, data)
        assert main(["validate", path]) == 1
        assert capsys.readouterr().out.splitlines() == [line]
        code = main([
            "run", "--scenario", path, "--seed", "1",
            "--until-ms", "310000", "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert capsys.readouterr().out.splitlines() == [line]
        assert not (tmp_path / "out").exists()

    def test_master_action_no_slave_owns_is_a_validation_error(self, tmp_path, capsys):
        # This once validated, and its run then died when the master's rule
        # fired with no slave to delegate the lamp to. Unchecked, the build
        # now fails before the run starts.
        data = json.loads(Path(THREE_CENTRAL).read_text())
        light_a_lamp_no_slave_owns(data)
        with pytest.raises(ConfigError, match="^no slave owns 'office1.lamp' for actions "
                                              "from '[^']*/building.execute'$"):
            run_scenario(parse_scenario(data), 1, 400_000, check=False)
        path = write_scenario(tmp_path, data)
        lines = ["control.master: policy 'building-lamp' acts on 'office1.lamp', "
                 "which no slave scope holds"]
        lines += [f"loops[0]: policy '{policy}' reads 'office1.lamp.power-state', "
                  "which loop 'office1' never receives"
                  for policy in ("office1-lights-off-sunny", "office1-lights-off-after-lock")]
        assert main(["validate", path]) == 1
        assert capsys.readouterr().out.splitlines() == lines
        code = main([
            "run", "--scenario", path, "--seed", "1",
            "--until-ms", "400000", "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert capsys.readouterr().out.splitlines() == lines
        assert not (tmp_path / "out").exists()

    def test_exception_in_a_validated_run_exits_4_with_its_traceback(
            self, tmp_path, capsys, monkeypatch):
        break_devices(monkeypatch)
        code = main([
            "run", "--scenario", ONE_OFFICE, "--seed", "1",
            "--until-ms", "310000", "--out", str(tmp_path / "out"),
        ])
        assert code == 4
        assert_traceback(capsys.readouterr())
        assert not (tmp_path / "out").exists()

    def test_config_error_building_the_runtime_is_an_input_error(
            self, tmp_path, capsys, monkeypatch):
        skip_validation(monkeypatch)
        code = main([
            "run", "--scenario", unreadable_parameter(tmp_path), "--seed", "1",
            "--until-ms", "1000", "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "office1.heater has no readable parameter 'bogus-param'\n")
        assert not (tmp_path / "out").exists()


class TestCompare:
    def test_offering_variants_share_one_table(self, capsys):
        code = main([
            "compare", "--scenario", ONE_OFFICE,
            "--variants", "mapeaas,apaas_split",
            "--seed", "42", "--until-ms", "310000",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == [
            "variant", "mean_latency_ms", "fog_to_cloud", "total_kwh",
        ]
        rows = {line.split()[0]: line.split() for line in lines[1:]}
        assert rows["mapeaas"][1] == "2.000"
        assert rows["mapeaas"][2] == "0"
        assert rows["apaas_split"][1] == "102.000"
        assert int(rows["apaas_split"][2]) > 0

    def test_single_variant_single_row(self, capsys):
        code = main([
            "compare", "--scenario", ONE_OFFICE, "--variants", "mapeaas",
            "--seed", "1", "--until-ms", "5000",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_unknown_variant_is_an_input_error(self, capsys):
        code = main([
            "compare", "--scenario", ONE_OFFICE, "--variants", "federated",
            "--seed", "1", "--until-ms", "1000",
        ])
        assert code == 2
        assert "unknown variant" in capsys.readouterr().err

    def test_mode_variants_run_on_equal_seeds(self, capsys):
        code = main([
            "compare", "--scenario", THREE_CENTRAL,
            "--variants", "centralized,decentralized",
            "--seed", "7", "--until-ms", "5000",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    def test_mode_variants_of_a_master_acting_on_its_aggregate(self, tmp_path, capsys):
        # The decentralized variant has no master, nor the master's policies.
        data = json.loads(Path(THREE_CENTRAL).read_text())
        data["policies"].append({
            "name": "building-energy-cap",
            "when": [{"service": "building", "parameter": "total-kwh",
                      "op": ">", "value": 0.0001}],
            "then": [{"service": "office1.lamp", "command": "set-power", "arg": False}]})
        data["loops"][-1]["policies"] = ["building-energy-cap"]
        code = main([
            "compare", "--scenario", write_scenario(tmp_path, data),
            "--variants", "centralized,decentralized",
            "--seed", "7", "--until-ms", "5000",
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.out + captured.err
        assert [line.split()[0] for line in captured.out.strip().splitlines()[1:]] == [
            "centralized", "decentralized"]

    def test_violating_variant_is_a_validation_error(self, tmp_path, capsys):
        data = json.loads(Path(ONE_OFFICE).read_text())
        data["loops"][0]["scope"] = ["office1.door", "ghost-service"]
        path = write_scenario(tmp_path, data)
        code = main([
            "compare", "--scenario", path, "--variants", "mapeaas",
            "--seed", "1", "--until-ms", "1000",
        ])
        assert code == 1
        assert "mapeaas:" in capsys.readouterr().out

    def test_config_error_building_the_runtime_is_an_input_error(
            self, tmp_path, capsys, monkeypatch):
        skip_validation(monkeypatch)
        code = main([
            "compare", "--scenario", unreadable_parameter(tmp_path),
            "--variants", "mapeaas,apaas_split", "--seed", "1", "--until-ms", "1000",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "mapeaas: office1.heater has no readable parameter 'bogus-param'\n")

    def test_exception_in_a_validated_run_exits_4_with_its_traceback(
            self, capsys, monkeypatch):
        break_devices(monkeypatch)
        code = main([
            "compare", "--scenario", ONE_OFFICE, "--variants", "mapeaas",
            "--seed", "1", "--until-ms", "310000",
        ])
        assert code == 4
        assert_traceback(capsys.readouterr())

    def test_aggregation_overflow_is_an_input_error(self, tmp_path, capsys):
        code = main([
            "compare", "--scenario", overflowing_sum(tmp_path),
            "--variants", "centralized,decentralized", "--seed", "1", "--until-ms", "5000",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("centralized: aggregation 'sum-temp' at t=3 ms: "
                                "its sum is beyond the float range\n")

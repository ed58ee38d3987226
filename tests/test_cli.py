"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import list_experiments


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for command in ("fig1", "table1", "fig5", "fig7a", "fig7b", "table2", "all", "serve"):
            args = parser.parse_args([command])
            assert callable(args.func)

    def test_serve_options(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--dataset", "rte",
                "--qps", "250",
                "--num-accelerators", "3",
                "--batch-policy", "bucketed",
                "--routing", "length-sharded",
                "--arrival", "bursty",
                "--seed", "7",
            ]
        )
        assert args.dataset == "rte"
        assert args.qps == 250.0
        assert args.num_accelerators == 3
        assert args.batch_policy == "bucketed"
        assert args.routing == "length-sharded"
        assert args.arrival == "bursty"
        assert args.seed == 7

    def test_serve_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--dataset", "imagenet"])

    def test_fig1_options(self):
        args = build_parser().parse_args(["fig1", "--sequence-length", "256", "--mode", "flops"])
        assert args.sequence_length == 256
        assert args.mode == "flops"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_help_shows_tuple_defaults_the_way_the_flag_takes_them(self, capsys):
        parser = build_parser()
        helps = {}
        for command in [spec.name for spec in list_experiments()] + ["live"]:
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--help"])
            helps[command] = capsys.readouterr().out
            assert "('" not in helps[command] and "()" not in helps[command], command
        # Space-separated, as --devices takes them (argparse may wrap lines).
        assert "(default: sparse-fpga gpu-rtx6000 cpu-xeon)" in " ".join(helps["plan"].split())


class TestCommands:
    def test_fig1_command_prints_breakdown(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1(c)" in out
        assert "self-attention share" in out

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "BERT-large" in out
        assert "SQuAD v1.1" in out

    def test_fig5_command(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "length-aware" in out
        assert "saved vs sequential" in out

    def test_fig7a_command(self, capsys):
        assert main(["fig7a"]) == 0
        out = capsys.readouterr().out
        assert "Geometric means" in out
        assert "rtx6000" in out

    def test_table2_command(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Ours FPGA" in out
        assert "ASIC: SpAtten" in out

    def test_serve_command_fixed_qps(self, capsys):
        assert main(["serve", "--dataset", "mrpc", "--qps", "200", "--requests", "32"]) == 0
        out = capsys.readouterr().out
        assert "Online serving simulation" in out
        assert "Per-device utilization" in out
        assert "queueing delay p99 (ms)" in out

    def test_serve_command_load_sweep(self, capsys):
        assert main(["serve", "--dataset", "mrpc", "--requests", "32"]) == 0
        out = capsys.readouterr().out
        assert "Latency vs offered load" in out
        assert "closed-loop capacity (MRPC)" in out

    def test_serve_command_closed_loop_arrival(self, capsys):
        assert main(["serve", "--arrival", "closed-loop", "--requests", "32"]) == 0
        out = capsys.readouterr().out
        assert "Online serving simulation" in out
        assert "closed-loop" in out

    def test_serve_command_trace_arrival(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps([[0.002 * i, 32 + i % 48] for i in range(48)]))
        assert main(
            ["serve", "--arrival", "trace", "--trace-file", str(trace), "--requests", "48"]
        ) == 0
        out = capsys.readouterr().out
        assert "Online serving simulation" in out
        assert "trace" in out

    def test_serve_trace_without_file_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--arrival", "trace"])

    def test_serve_bucket_width_flag(self, capsys):
        assert main(
            [
                "serve",
                "--qps", "200",
                "--requests", "32",
                "--batch-policy", "bucketed",
                "--bucket-width", "24",
            ]
        ) == 0
        assert "length-bucketed" in capsys.readouterr().out

    def test_serve_mixed_fleet_continuous_batching(self, capsys):
        assert main(
            [
                "serve",
                "--devices", "sparse-fpga,gpu-rtx6000",
                "--qps", "600",
                "--requests", "32",
                "--continuous-batching",
                "--max-queue-depth", "64",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "cycle-accurate" in out
        assert "analytical" in out
        assert "continuous batching" in out

    def test_serve_mixed_fleet_json_reports_both_backends(self, capsys):
        assert main(
            [
                "serve",
                "--devices", "sparse-fpga", "gpu-rtx6000",
                "--qps", "600",
                "--requests", "32",
                "--format", "json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        report = payload["result"]["report"]
        backends = {device["backend"] for device in report["devices"]}
        assert backends == {"cycle-accurate", "analytical"}
        assert payload["result"]["devices"] == ["sparse-fpga", "gpu-rtx6000"]

    def test_serve_rejects_unknown_device(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--devices", "tpu-v9", "--qps", "100", "--requests", "8"])
        assert "Unknown device" in capsys.readouterr().err

    def test_list_command_prints_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for expected in ("device", "sparse-fpga", "gpu-rtx6000", "arrival",
                         "batch-policy", "router", "experiment"):
            assert expected in out

    def test_list_command_json_and_kind_filter(self, capsys):
        assert main(["list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"arrival", "batch-policy", "device", "experiment", "router"} <= set(payload)
        assert "sparse-fpga" in payload["device"]
        assert main(["list", "--kind", "device", "--format", "json"]) == 0
        only_devices = json.loads(capsys.readouterr().out)
        assert set(only_devices) == {"device"}

    def test_list_command_rejects_unknown_kind(self, capsys):
        with pytest.raises(SystemExit):
            main(["list", "--kind", "flux-capacitor"])
        assert "unknown kind" in capsys.readouterr().err

    def test_serving_sweep_command(self, capsys):
        assert main(
            [
                "serving-sweep",
                "--datasets", "mrpc",
                "--load-fractions", "0.5", "1.1",
                "--requests", "32",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Latency vs offered load" in out

    def test_serving_sweep_warmup_flag(self, capsys):
        argv = [
            "serving-sweep",
            "--datasets", "mrpc",
            "--load-fractions", "0.5",
            "--requests", "48",
            "--format", "json",
        ]
        assert main(argv + ["--warmup-fraction", "0"]) == 0
        raw = json.loads(capsys.readouterr().out)["result"]
        assert main(argv + ["--warmup-fraction", "0.4"]) == 0
        warmed = json.loads(capsys.readouterr().out)["result"]
        assert raw["warmup_fraction"] == 0.0
        assert warmed["warmup_fraction"] == 0.4
        # Same simulation, different statistics window.
        assert raw["capacity_qps"] == warmed["capacity_qps"]
        assert raw["points"] != warmed["points"]

    def test_table2_serving_energy_section(self, capsys):
        assert main(
            [
                "table2",
                "--batch-size", "8",
                "--serving-dataset", "mrpc",
                "--serving-requests", "24",
                "--format", "json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        serving = payload["result"]["serving"]
        assert {row["device"] for row in serving} == {"sparse-fpga", "gpu-rtx6000"}
        assert all(row["mj_per_request"] > 0 for row in serving)
        # The proposed FPGA should be far more energy-efficient per request.
        by_device = {row["device"]: row for row in serving}
        assert by_device["sparse-fpga"]["mj_per_request"] < by_device["gpu-rtx6000"]["mj_per_request"]


#: (argv, ...) per command: the fast configuration of every registered
#: subcommand, used to check the machine-readable output paths.
FAST_COMMANDS = {
    "fig1": ["fig1"],
    "table1": ["table1", "--num-sampled-sequences", "200"],
    "fig5": ["fig5"],
    "fig6": [
        "fig6",
        "--pairs", "distilbert:mrpc",
        "--examples", "1",
        "--max-length", "32",
        "--top-k-values", "30", "10",
    ],
    "fig7a": ["fig7a", "--batch-size", "8"],
    "fig7b": ["fig7b", "--batch-size", "8"],
    "table2": ["table2", "--batch-size", "8"],
    "serve": ["serve", "--qps", "200", "--requests", "24"],
    "serving-sweep": [
        "serving-sweep",
        "--datasets", "mrpc",
        "--load-fractions", "0.5",
        "--requests", "24",
    ],
}


class TestJsonFormat:
    @pytest.mark.parametrize("name", sorted(FAST_COMMANDS), ids=str)
    def test_every_command_emits_parseable_json(self, name, capsys):
        assert main(FAST_COMMANDS[name] + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == name
        assert isinstance(payload["config"], dict)
        assert isinstance(payload["result"], dict)

    def test_all_command_emits_parseable_json(self, capsys):
        assert main(["all", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"fig1", "table1", "fig5", "fig7a", "fig7b", "table2"}
        for name, entry in payload.items():
            assert entry["experiment"] == name

    def test_output_dir_writes_json_files(self, capsys, tmp_path):
        assert main(["fig1", "--format", "json", "--output-dir", str(tmp_path)]) == 0
        written = json.loads((tmp_path / "fig1.json").read_text())
        assert written == json.loads(capsys.readouterr().out)

    def test_all_output_dir_writes_per_experiment_files(self, capsys, tmp_path):
        assert main(["all", "--output-dir", str(tmp_path)]) == 0
        names = {path.stem for path in tmp_path.glob("*.txt")}
        assert names == {"fig1", "table1", "fig5", "fig7a", "fig7b", "table2"}


class TestConfigPlumbing:
    def test_set_overrides_flag_defaults(self, capsys):
        assert main(["fig1", "--set", "sequence-length=256", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["sequence_length"] == 256

    def test_explicit_flag_beats_config_file(self, capsys, tmp_path):
        config_file = tmp_path / "fig1.json"
        config_file.write_text(json.dumps({"sequence_length": 64, "mode": "flops"}))
        assert main(
            [
                "fig1",
                "--config", str(config_file),
                "--sequence-length", "512",
                "--format", "json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["sequence_length"] == 512
        assert payload["config"]["mode"] == "flops"

    def test_set_beats_explicit_flag(self, capsys):
        assert main(
            ["fig1", "--sequence-length", "64", "--set", "sequence_length=96",
             "--format", "json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["config"]["sequence_length"] == 96

    def test_bad_set_key_errors(self):
        with pytest.raises(SystemExit):
            main(["fig1", "--set", "sequencelength=256"])

    def test_config_file_with_unknown_key_errors(self, tmp_path):
        config_file = tmp_path / "bad.json"
        config_file.write_text(json.dumps({"nonsense": 1}))
        with pytest.raises(SystemExit):
            main(["fig1", "--config", str(config_file)])

    def test_all_rejects_config_and_set(self):
        # `all` runs registry defaults; silently ignoring --config/--set
        # would misrepresent what ran, so the flags don't exist there.
        with pytest.raises(SystemExit):
            main(["all", "--set", "seed=1"])
        with pytest.raises(SystemExit):
            main(["all", "--config", "whatever.json"])

    def test_unknown_registry_name_via_set_is_a_clean_error(self, capsys):
        # batch_policies has no argparse choices; the registry KeyError must
        # surface as a parser error, not a traceback.
        with pytest.raises(SystemExit):
            main(
                ["serving-sweep", "--datasets", "mrpc", "--load-fractions", "0.5",
                 "--requests", "16", "--set", "batch_policies=bogus"]
            )
        assert "Unknown batch-policy" in capsys.readouterr().err

    def test_sweep_mode_honors_bucket_width(self, capsys):
        argv = [
            "serve", "--batch-policy", "bucketed", "--requests", "48",
            "--dataset", "mrpc", "--format", "json",
        ]
        narrow = main(argv + ["--bucket-width", "8"])
        out_narrow = capsys.readouterr().out
        wide = main(argv + ["--bucket-width", "200"])
        out_wide = capsys.readouterr().out
        assert narrow == wide == 0
        points_narrow = json.loads(out_narrow)["result"]["sweep"]["points"]
        points_wide = json.loads(out_wide)["result"]["sweep"]["points"]
        assert points_narrow != points_wide

"""Command-line interface for regenerating the paper's experiments.

Usage (after installation)::

    python -m repro fig1                 # encoder time breakdown
    python -m repro table1               # model / dataset statistics
    python -m repro fig5                 # length-aware scheduling example
    python -m repro fig6 --examples 4    # Top-k accuracy sweep (slow)
    python -m repro fig7a                # end-to-end cross-platform speedups
    python -m repro fig7b                # attention-core speedups
    python -m repro table2               # energy-efficiency table
    python -m repro all                  # everything except fig6
    python -m repro serve --dataset mrpc --qps 800   # online serving at a fixed load
    python -m repro serve --dataset rte              # latency-vs-load sweep
    python -m repro serve --qps 80 --slo-ms 50 --batch-policy deadline \
        --routing cost-model                         # SLO-aware serving
    python -m repro serving-sweep --datasets mrpc rte --num-accelerators 4
    python -m repro serving-sweep --slo-ms 50 --batch-policies timeout deadline \
        --routers least-loaded cost-model            # attainment comparison

Every subcommand and its flags are generated from the experiment registry
(:mod:`repro.experiments`): each registered spec contributes one subcommand
whose flags mirror the fields of its frozen config dataclass.  All commands
share the same plumbing:

* ``--format table`` (default) renders the paper's plain-text rows;
  ``--format json`` emits the machine-readable payload (config + result).
* ``--output-dir DIR`` additionally writes the report to ``DIR/<name>.txt``
  or ``DIR/<name>.json``.
* ``--config FILE`` loads a JSON config file; explicit flags and repeatable
  ``--set key=value`` overrides win over the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from pathlib import Path

from .experiments import ExperimentSpec, list_experiments, result_payload
from .experiments.config import (
    KNOB_HELP,
    ExperimentConfig,
    coerce_value,
    element_type,
    strip_optional,
)

__all__ = ["main", "build_parser"]

#: Sentinel default for generated flags, so absent flags never shadow the
#: config file or the dataclass defaults.
_UNSET = object()

_COMMON_DESTS = ("format", "output_dir", "config", "set")


class _CliInputError(Exception):
    """A bad --config/--set/flag combination (reported via parser.error)."""


def _input_error(error: Exception) -> _CliInputError:
    """The user-facing form of a config error (KeyError messages unquoted)."""
    return _CliInputError(str(error.args[0] if error.args else error))


def _optional_scalar(scalar_type):
    """Argparse type for ``X | None`` fields: accepts the 'none' sentinel.

    Delegates to :func:`coerce_value` so the generated flags, ``--set``, and
    ``--config`` all share one definition of the None sentinel.
    """

    def parse(text: str):
        return coerce_value(text, scalar_type | None)

    parse.__name__ = f"optional {scalar_type.__name__}"
    return parse


def _add_config_arguments(
    parser: argparse.ArgumentParser, config_cls: type[ExperimentConfig]
) -> None:
    """Generate one ``--flag`` per field of the experiment's config dataclass."""
    hints = typing.get_type_hints(config_cls)
    for field in dataclasses.fields(config_cls):
        if not field.init or field.name.startswith("_"):
            continue
        if field.name in _COMMON_DESTS:
            raise ValueError(
                f"{config_cls.__name__}.{field.name} collides with a reserved CLI flag"
            )
        flag = field.metadata.get("flag") or "--" + field.name.replace("_", "-")
        annotation, optional = strip_optional(hints[field.name])
        origin = typing.get_origin(annotation)
        default = field.default
        if isinstance(default, tuple):
            # Shown the way the flag takes it: space-separated, nothing if empty.
            default = " ".join(map(str, default)) or dataclasses.MISSING
        default_text = f"(default: {default})" if default is not dataclasses.MISSING else ""
        help_text = field.metadata.get("help") or KNOB_HELP.get(field.name, "")
        help_text = " ".join(part for part in (help_text, default_text) if part)
        kwargs: dict = {"dest": field.name, "default": _UNSET, "help": help_text}
        choices = field.metadata.get("choices")
        if origin in (tuple, list):
            kwargs.update(
                nargs="+", type=element_type(annotation), metavar=field.name.upper()[:-1]
            )
        elif annotation is bool:
            kwargs["action"] = argparse.BooleanOptionalAction
        else:
            scalar = annotation if annotation in (int, float, str) else str
            kwargs["type"] = _optional_scalar(scalar) if optional else scalar
        if choices is not None:
            kwargs["choices"] = choices
        parser.add_argument(flag, **kwargs)


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="report format: plain-text tables or the machine-readable JSON payload",
    )
    parser.add_argument(
        "--output-dir",
        default=None,
        help="also write the report(s) to this directory",
    )


def _add_config_source_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="JSON config file (flags and --set override it)",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="override one config field (repeatable; tuples are comma-separated)",
    )


def _build_config(
    config_cls: type[ExperimentConfig], args: argparse.Namespace
) -> ExperimentConfig:
    """Defaults < --config file < explicit flags < --set overrides.

    A command without ``--config`` / ``--set`` (``live``) takes only its flags.
    """
    if getattr(args, "config", None) is not None:
        config = config_cls.from_file(args.config)
    else:
        config = config_cls()
    changes = {}
    for field in dataclasses.fields(config_cls):
        value = getattr(args, field.name, _UNSET)
        if value is _UNSET:
            continue
        changes[field.name] = tuple(value) if isinstance(value, list) else value
    if changes:
        config = config.replace(**changes)
    if getattr(args, "set", None):
        config = config.with_overrides(args.set)
    return config


def _write_output(output_dir: str | None, name: str, fmt: str, text: str) -> None:
    if output_dir is None:
        return
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    suffix = "json" if fmt == "json" else "txt"
    payload = text if text.endswith("\n") else text + "\n"
    (directory / f"{name}.{suffix}").write_text(payload)


def _make_command(spec: ExperimentSpec):
    def command(args: argparse.Namespace) -> str:
        try:
            config = _build_config(spec.config_cls, args)
        except (ValueError, KeyError, FileNotFoundError) as error:
            # Config construction failures are user input errors; anything
            # raised later, inside spec.run(), is a real failure and keeps
            # its traceback.
            raise _input_error(error) from error
        result = spec.run(config)
        if args.format == "json":
            text = json.dumps(result_payload(spec, config, result), indent=2)
        else:
            text = spec.render(result)
        _write_output(args.output_dir, spec.name, args.format, text)
        return text

    return command


def _cmd_bench(args: argparse.Namespace) -> str:
    """Run the benchmark suite and print the machine-readable results.

    Each ``test_bench_*`` writes one record (name, wall seconds, key metrics)
    into ``<benchmarks>/results/bench_latest.json``; this command runs the
    suite through pytest and prints that JSON, so ``repro bench`` is the one
    entry point both humans and CI use to refresh the perf trajectory.
    """
    import pytest

    bench_dir = Path(args.benchmarks_dir)
    if not bench_dir.is_dir():
        raise _CliInputError(
            f"benchmark directory '{bench_dir}' not found; run from the repository "
            "root or pass --benchmarks-dir"
        )
    pytest_args = ["-q", "--no-header", str(bench_dir)]
    if args.select:
        pytest_args += ["-k", args.select]
    exit_code = pytest.main(pytest_args)
    if exit_code == pytest.ExitCode.NO_TESTS_COLLECTED:
        raise _CliInputError(
            f"--select '{args.select}' matched no benchmark; try e.g. fast_path or serving"
        )
    if exit_code != 0:
        raise _CliInputError(f"benchmark run failed (pytest exit code {int(exit_code)})")
    results = bench_dir / "results" / "bench_latest.json"
    if not results.is_file():
        raise _CliInputError(f"benchmark run produced no {results}")
    text = results.read_text().rstrip("\n")
    _write_output(args.output_dir, "bench", "json", text)
    return text


def _cmd_live(args: argparse.Namespace) -> str:
    """Serve over HTTP with the simulator's policies, or validate against it.

    ``repro live`` starts the asyncio gateway (:mod:`repro.live`) on the
    requested fleet and blocks until ``POST /shutdown`` (or Ctrl-C); the
    final stats payload -- the same ``to_dict()`` metrics the simulator
    reports -- is printed on exit.  ``repro live --validate`` instead
    replays the checked-in validation trace through both the simulator and
    a loopback gateway and prints the agreement report, failing when the
    two disagree (counts exactly, rates beyond the tolerance).
    """
    import asyncio

    from .live import LiveServer, run_crash_validation, run_live_validation
    from .live.config import LiveConfig
    from .live.gateway import LiveGateway

    try:
        # Bad flags surface here, while checking the config and building the
        # gateway: config errors.
        config = _build_config(LiveConfig, args)
        if not config.validation:
            gateway = LiveGateway(config.fleet(), config.dataset, config.options())
    except (ValueError, KeyError) as error:
        raise _input_error(error) from error

    if config.validation:
        run = run_crash_validation if config.scenario == "crash" else run_live_validation
        result = run(tolerance=config.tolerance)
        agreement = result["agreement"]
        if args.format == "json":
            text = json.dumps(result, indent=2)
        else:
            lines = [
                f"sim-vs-live validation "
                f"({config.scenario} scenario, {result['trace_entries']} requests)"
            ]
            for key, entry in agreement["counts"].items():
                mark = "ok" if entry["match"] else "MISMATCH"
                lines.append(f"  {key:20s} sim={entry['sim']:<6} live={entry['live']:<6} {mark}")
            for key, entry in agreement["rates"].items():
                error = entry["relative_error"]
                mark = "ok" if entry["within_tolerance"] else "OUT OF TOLERANCE"
                lines.append(
                    f"  {key:20s} sim={entry['sim']:<10.4f} live={entry['live']:<10.4f} "
                    f"err={error:.4%} {mark}"
                )
            supervision = agreement.get("supervision")
            if supervision is not None:
                mark = "ok" if supervision["restarts_match_crashes"] else "MISMATCH"
                lines.append(
                    f"  {'worker_restarts':20s} live={supervision['worker_restarts']} "
                    f"requeued={supervision['requeued_batches']} {mark}"
                )
            verdict = "within" if agreement["within_tolerance"] else "OUTSIDE"
            lines.append(f"  agreement {verdict} tolerance ({agreement['tolerance']:.0%})")
            text = "\n".join(lines)
        stem = "live-validation" + ("" if config.scenario == "steady" else f"-{config.scenario}")
        _write_output(args.output_dir, stem, args.format, text)
        if not agreement["within_tolerance"]:
            print(text)
            raise _CliInputError("sim-vs-live agreement outside tolerance")
        return text

    async def _serve() -> dict:
        server = LiveServer(gateway, host=config.host, port=config.port)
        await server.start()
        print(
            f"repro live: serving {len(gateway.fleet)} device(s) on "
            f"http://{config.host}:{server.port} (POST /shutdown to stop)",
            file=sys.stderr,
            flush=True,
        )
        return await server.serve_until_shutdown()

    try:
        stats = asyncio.run(_serve())
    except KeyboardInterrupt:
        stats = gateway.stats()
    text = json.dumps(stats, indent=2)
    _write_output(args.output_dir, "live", "json", text)
    return text


def _cmd_list(args: argparse.Namespace) -> str:
    """List every registered component kind/name (devices, arrivals, ...)."""
    from .evaluation.report import format_table
    from .registry import REGISTRY

    list_experiments()  # import side effects register every built-in kind
    kinds = REGISTRY.kinds()
    if args.kind is not None:
        if args.kind not in kinds:
            raise _CliInputError(
                f"unknown kind '{args.kind}'; registered kinds: {kinds}"
            )
        kinds = [args.kind]
    if args.format == "json":
        return json.dumps({kind: REGISTRY.available(kind) for kind in kinds}, indent=2)

    def summary(kind: str, name: str) -> str:
        component = REGISTRY.resolve(kind, name)
        description = getattr(component, "description", None)
        if isinstance(description, str):
            return description
        return getattr(component, "__name__", type(component).__name__)

    rows = [
        {"kind": kind, "name": name, "summary": summary(kind, name)}
        for kind in kinds
        for name in REGISTRY.available(kind)
    ]
    return format_table(rows, title="Registered components")


def _cmd_all(args: argparse.Namespace) -> str:
    """Run every paper experiment with registry defaults."""
    from .evaluation.runner import run_all_experiments

    if args.jobs < 1:
        raise _CliInputError("--jobs must be >= 1")
    reports = run_all_experiments(
        output_dir=args.output_dir,
        include_fig6=args.include_fig6,
        write_json=args.format == "json",
        jobs=args.jobs,
    ).values()
    if args.format == "json":
        return json.dumps({report.name: report.payload for report in reports}, indent=2)
    return "\n".join(report.text for report in reports)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser from the experiment registry."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of the DAC 2022 length-adaptive Transformer paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for spec in list_experiments():
        sub = subparsers.add_parser(
            spec.name, help=spec.description, description=spec.title
        )
        _add_config_arguments(sub, spec.config_cls)
        _add_output_arguments(sub)
        _add_config_source_arguments(sub)
        sub.set_defaults(func=_make_command(spec))
    all_parser = subparsers.add_parser(
        "all", help="every paper experiment except the (slow) fig6 sweep"
    )
    all_parser.add_argument(
        "--include-fig6", action="store_true", help="also run the slow fig6 sweep"
    )
    all_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to fan the experiments across (default: 1)",
    )
    # `all` runs each experiment at registry defaults, so it takes only the
    # output flags -- a --config/--set here would be silently ignored.
    _add_output_arguments(all_parser)
    all_parser.set_defaults(func=_cmd_all)
    bench_parser = subparsers.add_parser(
        "bench",
        help="run the benchmark suite and print benchmarks/results/bench_latest.json",
    )
    bench_parser.add_argument(
        "--benchmarks-dir",
        default="benchmarks",
        help="benchmark suite location (default: ./benchmarks)",
    )
    bench_parser.add_argument(
        "--select",
        default=None,
        metavar="EXPR",
        help="pytest -k expression to run a subset (e.g. fast_path)",
    )
    bench_parser.add_argument(
        "--output-dir",
        default=None,
        help="also write the JSON record to this directory (bench.json)",
    )
    bench_parser.set_defaults(func=_cmd_bench)
    live_parser = subparsers.add_parser(
        "live",
        help="serve over HTTP with the simulator's policies (repro.live), or --validate against it",
    )
    # A server, not an experiment: flags generated from its config, but no
    # --config / --set.
    from .live.config import LiveConfig

    _add_config_arguments(live_parser, LiveConfig)
    _add_output_arguments(live_parser)
    live_parser.set_defaults(func=_cmd_live)
    list_parser = subparsers.add_parser(
        "list",
        help="list every registered component (devices, arrivals, policies, routers, experiments)",
    )
    list_parser.add_argument(
        "--kind",
        default=None,
        help="restrict to one kind (device, arrival, batch-policy, router, experiment)",
    )
    list_parser.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="plain-text table or machine-readable JSON",
    )
    list_parser.set_defaults(func=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.func(args)
    except _CliInputError as error:
        parser.error(str(error))
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())

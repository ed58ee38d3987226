"""Experiment specs and the central experiment registry.

An :class:`ExperimentSpec` bundles everything one experiment needs: a name,
a human title, a frozen config dataclass, a ``run(config) -> result`` entry
point, and a ``render(result) -> str`` plain-text renderer.  Specs register
into the shared :mod:`repro.registry` under kind ``"experiment"``, so the CLI
and the programmatic API discover them the same way the serving engine
discovers arrival processes or routers.

The public helpers cover the three equivalent ways to run an experiment::

    run_experiment("fig1")                               # defaults
    run_experiment("fig1", {"sequence_length": 256})     # dict config
    run_experiment("fig1", Fig1Config(mode="flops"))     # typed config

plus ``run_report`` which also renders the text report and the
machine-readable payload (``result.to_dict()``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..registry import REGISTRY
from .config import ExperimentConfig

__all__ = [
    "ExperimentReport",
    "ExperimentSpec",
    "get_experiment",
    "list_experiments",
    "register_experiment",
    "result_payload",
    "run_experiment",
    "run_report",
]

_EXPERIMENT_KIND = "experiment"


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything the registry knows about one experiment."""

    name: str
    title: str
    description: str
    config_cls: type[ExperimentConfig]
    run: Callable[[ExperimentConfig], Any]
    render: Callable[[Any], str]
    #: Position in ``repro all`` / report listings (lower runs first).
    order: int = 100
    #: Whether ``repro all`` includes this experiment by default.
    include_in_all: bool = False

    def build_config(self, config: ExperimentConfig | dict | None = None) -> ExperimentConfig:
        """Normalize ``config`` (instance, dict, or None) to a typed config."""
        if config is None:
            return self.config_cls()
        if isinstance(config, dict):
            return self.config_cls.from_dict(config)
        if not isinstance(config, self.config_cls):
            raise TypeError(
                f"experiment '{self.name}' expects {self.config_cls.__name__}, "
                f"got {type(config).__name__}"
            )
        return config


@dataclass
class ExperimentReport:
    """One experiment's result object plus its rendered report."""

    name: str
    title: str
    result: object
    text: str
    #: JSON-ready payload: experiment name/title, config, and result dict.
    payload: dict = field(default_factory=dict)


def register_experiment(spec: ExperimentSpec) -> ExperimentSpec:
    """Register a spec; returns it so modules can keep a reference."""
    REGISTRY.add(_EXPERIMENT_KIND, spec.name, spec)
    return spec


def _ensure_builtin_specs() -> None:
    """Import the modules whose import side-effect registers the built-ins."""
    from .. import decode  # noqa: F401  (registers output-length dists + decode-sweep)
    from .. import devices  # noqa: F401  (registers the device catalog)
    from .. import evaluation  # noqa: F401  (registers all experiment specs)
    from .. import planner  # noqa: F401  (registers the capacity-planning `plan`)
    from .. import serving  # noqa: F401  (registers arrival/policy/router kinds)


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered spec by name (KeyError lists the known names)."""
    _ensure_builtin_specs()
    spec = REGISTRY.resolve(_EXPERIMENT_KIND, name)
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(f"'{name}' is not an experiment spec")
    return spec


def list_experiments() -> list[ExperimentSpec]:
    """All registered specs in report order."""
    _ensure_builtin_specs()
    specs = [
        REGISTRY.resolve(_EXPERIMENT_KIND, name)
        for name in REGISTRY.available(_EXPERIMENT_KIND)
    ]
    return sorted(specs, key=lambda spec: (spec.order, spec.name))


def run_experiment(
    name: str, config: ExperimentConfig | dict | None = None, **overrides: Any
) -> Any:
    """Run one experiment by name and return its result object.

    ``config`` may be a typed config, a plain dict, or None (defaults);
    keyword ``overrides`` are applied on top either way.
    """
    spec = get_experiment(name)
    cfg = spec.build_config(config)
    if overrides:
        cfg = cfg.replace(**overrides)
    return spec.run(cfg)


def _json_safe(value: Any) -> Any:
    """Recursively convert a result payload into JSON-serializable types."""
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_json_safe(item) for item in value.tolist()]
    return value


def result_payload(
    spec: ExperimentSpec, config: ExperimentConfig, result: Any
) -> dict:
    """The uniform machine-readable envelope every experiment emits."""
    return _json_safe(
        {
            "experiment": spec.name,
            "title": spec.title,
            "config": config.to_dict(),
            "result": result.to_dict(),
        }
    )


def run_report(
    name: str, config: ExperimentConfig | dict | None = None, **overrides: Any
) -> ExperimentReport:
    """Run one experiment and bundle result, rendered text, and payload."""
    spec = get_experiment(name)
    cfg = spec.build_config(config)
    if overrides:
        cfg = cfg.replace(**overrides)
    result = spec.run(cfg)
    return ExperimentReport(
        name=spec.name,
        title=spec.title,
        result=result,
        text=spec.render(result),
        payload=result_payload(spec, cfg, result),
    )


"""Typed, frozen experiment configurations.

Every registered experiment declares one frozen dataclass deriving from
:class:`ExperimentConfig`.  The base class supplies the uniform plumbing the
CLI and the programmatic API share:

* ``to_dict()`` / ``from_dict()`` -- JSON-ready round-trip serialization
  (tuples become lists on the way out and back to tuples on the way in).
* ``from_file()`` -- load a config from a JSON file (``--config run.json``).
* ``with_overrides()`` -- apply ``key=value`` assignment strings (the CLI's
  repeatable ``--set`` flag), coercing each value to the field's declared
  type.
* ``replace()`` -- functional update, like :func:`dataclasses.replace`.

Field-level CLI metadata (choices, help text, flag spelling) is attached with
:func:`cfg_field`, which the parser generator in :mod:`repro.cli` reads when
it turns a config dataclass into ``--flags``; a knob several configs declare
takes its help text from :data:`KNOB_HELP` instead, worded once.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..registry import REGISTRY

__all__ = [
    "KNOB_HELP",
    "ExperimentConfig",
    "cfg_field",
    "coerce_value",
    "element_type",
    "parse_assignment",
    "resolve_component",
    "strip_optional",
]

_ROUTING_HELP = "fleet routing policy (round-robin, least-loaded, length-sharded, cost-model, ...)"

#: The one wording of each knob several configs declare: a field without
#: its own ``help`` gets its name's entry here in every command's ``--help``.
KNOB_HELP = {
    "batch_policy": "registered batch policy (fixed, timeout, bucketed, deadline, ...)",
    "batch_size": "requests per batch",
    "timeout_ms": "dynamic-batching timeout (ms)",
    "routing": _ROUTING_HELP,
    "router": _ROUTING_HELP,
    "continuous_batching": "device-level continuous batching (admit while draining)",
    "max_queue_depth": "shed arrivals beyond this many waiting requests (none = unbounded)",
    "slo_ms": (
        "per-request latency budget (ms): deadline = arrival + slo-ms + the "
        "per-token budgets; reports deadline attainment and goodput"
    ),
    "slo_per_token_ms": "length-proportional part of the latency budget (ms per prompt token)",
    "shed_on_predicted_miss": (
        "deadline-aware admission: shed a request at arrival when no device could "
        "meet its deadline even dispatched alone (reported as num_shed_predicted)"
    ),
    "provisioning_lag_s": "seconds between a scale-up decision and the device coming online",
    "autoscale_interval_s": "seconds between autoscaler decisions",
    "cache_length_bucket": (
        "schedule-cache length quantization in tokens (lengths round up to the "
        "next multiple before scheduling); 'none' = exact billing"
    ),
    "warmup_fraction": (
        "fraction of the arrival horizon discarded as warm-up from the "
        "steady-state statistics"
    ),
    "jobs": "worker processes (the result is byte-identical whatever the value)",
}

_NONE_WORDS = frozenset({"none", "null"})
_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


def cfg_field(
    default: Any = dataclasses.MISSING,
    *,
    choices: Sequence[Any] | None = None,
    help: str | None = None,  # noqa: A002 - mirrors argparse's keyword
    flag: str | None = None,
) -> Any:
    """A dataclass field carrying CLI metadata (choices / help text / ``--flag`` spelling)."""
    metadata = {}
    if choices is not None:
        metadata["choices"] = tuple(choices)
    if help is not None:
        metadata["help"] = help
    if flag is not None:
        metadata["flag"] = flag
    return dataclasses.field(default=default, metadata=metadata)


def strip_optional(annotation: Any) -> tuple[Any, bool]:
    """Return ``(inner_type, is_optional)`` for ``X | None`` annotations."""
    origin = typing.get_origin(annotation)
    if origin in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        if len(args) == 1:
            return args[0], True
    return annotation, False


def element_type(annotation: Any) -> Any:
    """The element type of a homogeneous ``tuple``/``list`` annotation."""
    element = (typing.get_args(annotation) or (str,))[0]
    return str if element is Ellipsis else element


def coerce_value(text: str, annotation: Any) -> Any:
    """Parse an override string into the type an annotation declares.

    Handles ``int`` / ``float`` / ``str`` / ``bool``, optional variants
    (``"none"`` maps to ``None``), and homogeneous tuples, whose elements are
    comma-separated: ``--set datasets=mrpc,rte``.
    """
    annotation, optional = strip_optional(annotation)
    if optional and text.strip().lower() in _NONE_WORDS:
        return None
    origin = typing.get_origin(annotation)
    if origin in (tuple, list):
        element = element_type(annotation)
        items = [part.strip() for part in text.split(",") if part.strip() != ""]
        return tuple(coerce_value(item, element) for item in items)
    if annotation is bool:
        lowered = text.strip().lower()
        if lowered in _TRUE_WORDS:
            return True
        if lowered in _FALSE_WORDS:
            return False
        raise ValueError(f"expected a boolean, got '{text}'")
    if annotation is int:
        return int(text)
    if annotation is float:
        return float(text)
    return text


def parse_assignment(assignment: str) -> tuple[str, str]:
    """Split one ``key=value`` override string."""
    key, sep, value = assignment.partition("=")
    key = key.strip().replace("-", "_")
    if not sep or not key:
        raise ValueError(f"override '{assignment}' is not of the form key=value")
    return key, value.strip()


def resolve_component(kind: str, name: str):
    """Registry lookup that reports unknown names as config ValueErrors."""
    try:
        return REGISTRY.resolve(kind, name)
    except KeyError as error:
        raise ValueError(error.args[0]) from error


def _convert_in(value: Any, annotation: Any) -> Any:
    """Convert a deserialized (JSON) value back into the declared field type."""
    annotation, optional = strip_optional(annotation)
    if value is None:
        if not optional:
            raise ValueError(f"field of type {annotation} cannot be null")
        return None
    origin = typing.get_origin(annotation)
    if origin in (tuple, list):
        element = element_type(annotation)
        if isinstance(value, str):
            return coerce_value(value, tuple[element, ...])
        return tuple(_convert_in(item, element) for item in value)
    if annotation is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if annotation in (int, float, str, bool) and not isinstance(value, annotation):
        if isinstance(value, str):
            return coerce_value(value, annotation)
        raise ValueError(f"expected {annotation.__name__}, got {value!r}")
    return value


def _convert_out(value: Any) -> Any:
    """JSON-ready representation of one field value."""
    if isinstance(value, (tuple, list)):
        return [_convert_out(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _convert_out(item) for key, item in value.items()}
    return value


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Base class for every registered experiment's frozen configuration."""

    def __post_init__(self) -> None:
        self.validate()

    @classmethod
    def field_types(cls) -> dict[str, Any]:
        """Resolved ``field name -> annotation`` mapping."""
        hints = typing.get_type_hints(cls)
        return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.init}

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dictionary (tuples rendered as lists)."""
        return {
            f.name: _convert_out(getattr(self, f.name))
            for f in dataclasses.fields(self)
            if f.init
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentConfig":
        """Build a config from a (possibly partial) dictionary.

        Unknown keys raise :class:`ValueError`; missing keys keep their
        declared defaults; values are coerced to the declared field types
        (JSON lists become tuples), so ``from_dict(to_dict())`` is the
        identity.
        """
        types_by_name = cls.field_types()
        unknown = sorted(set(data) - set(types_by_name))
        if unknown:
            raise ValueError(
                f"{cls.__name__} does not accept {unknown}; "
                f"valid keys: {sorted(types_by_name)}"
            )
        kwargs = {
            name: _convert_in(value, types_by_name[name]) for name, value in data.items()
        }
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        """Load a config from a JSON file."""
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} must contain a JSON object")
        return cls.from_dict(data)

    def replace(self, **changes: Any) -> "ExperimentConfig":
        """Functional update returning a new frozen config."""
        return dataclasses.replace(self, **changes)

    def with_overrides(self, assignments: Iterable[str]) -> "ExperimentConfig":
        """Apply ``key=value`` strings (the CLI's ``--set``) on top of self."""
        types_by_name = self.field_types()
        changes: dict[str, Any] = {}
        for assignment in assignments:
            key, text = parse_assignment(assignment)
            if key not in types_by_name:
                raise ValueError(
                    f"{type(self).__name__} has no field '{key}'; "
                    f"valid keys: {sorted(types_by_name)}"
                )
            changes[key] = coerce_value(text, types_by_name[key])
        return self.replace(**changes) if changes else self

    def validate(self) -> None:
        """Hook for cross-field validation; runs after every construction path.

        Subclasses raise :class:`ValueError` on bad combinations.  Field
        ``choices`` declared via :func:`cfg_field` are checked here too, and
        every float -- scalar or tuple element -- must be finite: a NaN
        compares false against every bound, so it would slip past the range
        checks below and stall or silently skew a run.
        """
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            choices = f.metadata.get("choices")
            if choices is not None and value not in choices:
                raise ValueError(
                    f"{type(self).__name__}.{f.name} must be one of "
                    f"{list(choices)}, got {value!r}"
                )
            items = value if isinstance(value, tuple) else (value,)
            if any(isinstance(item, float) and not math.isfinite(item) for item in items):
                raise ValueError(
                    f"{type(self).__name__}.{f.name} must be finite, got {value!r}"
                )

"""Config round-trip, override parsing, and JSON-file loading for every spec."""

from __future__ import annotations

import dataclasses
import json
import typing

import pytest

from repro.evaluation.serve import ServeConfig
from repro.evaluation.serving_sweep import ServingSweepConfig
from repro.experiments import list_experiments
from repro.experiments.config import (
    coerce_value,
    element_type,
    parse_assignment,
    strip_optional,
)

ALL_SPECS = list_experiments()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.name)
class TestEverySpecConfig:
    def test_round_trip_identity(self, spec):
        config = spec.config_cls()
        rebuilt = spec.config_cls.from_dict(config.to_dict())
        assert rebuilt == config

    def test_to_dict_is_json_ready(self, spec):
        config = spec.config_cls()
        assert spec.config_cls.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_from_file_round_trip(self, spec, tmp_path):
        config = spec.config_cls()
        path = tmp_path / f"{spec.name}.json"
        path.write_text(json.dumps(config.to_dict()))
        assert spec.config_cls.from_file(path) == config

    def test_unknown_key_rejected(self, spec):
        with pytest.raises(ValueError, match="valid keys"):
            spec.config_cls.from_dict({"definitely_not_a_field": 1})

    def test_every_field_survives_a_set_override(self, spec):
        """`--set field=<rendered default>` must parse back to the default."""
        config = spec.config_cls()
        for field in dataclasses.fields(spec.config_cls):
            if not field.init or field.name.startswith("_"):
                continue
            value = getattr(config, field.name)
            if value is None:
                text = "none"
            elif isinstance(value, tuple):
                text = ",".join(str(item) for item in value)
            else:
                text = str(value)
            overridden = config.with_overrides([f"{field.name}={text}"])
            assert getattr(overridden, field.name) == value, field.name

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_every_float_field_rejects_non_finite(self, spec, bad):
        """A non-finite float (scalar or tuple element) is a config error."""
        config = spec.config_cls()
        for name, annotation in spec.config_cls.field_types().items():
            annotation, _ = strip_optional(annotation)
            if annotation is float:
                text = bad
            elif typing.get_origin(annotation) is tuple and element_type(annotation) is float:
                text = f"0.5,{bad}"
            else:
                continue
            with pytest.raises(ValueError, match="finite"):
                config.with_overrides([f"{name}={text}"])


class TestOverrideParsing:
    def test_parse_assignment_splits_and_normalizes(self):
        assert parse_assignment("batch-size=8") == ("batch_size", "8")

    def test_parse_assignment_rejects_missing_equals(self):
        with pytest.raises(ValueError):
            parse_assignment("batch_size")

    def test_scalar_coercions(self):
        assert coerce_value("8", int) == 8
        assert coerce_value("2.5", float) == 2.5
        assert coerce_value("true", bool) is True
        assert coerce_value("off", bool) is False
        assert coerce_value("mrpc", str) == "mrpc"

    def test_optional_and_tuple_coercions(self):
        assert coerce_value("none", float | None) is None
        assert coerce_value("250", float | None) == 250.0
        assert coerce_value("mrpc,rte", tuple[str, ...]) == ("mrpc", "rte")
        assert coerce_value("0.5,1.1", tuple[float, ...]) == (0.5, 1.1)

    def test_bad_bool_rejected(self):
        with pytest.raises(ValueError):
            coerce_value("maybe", bool)

    def test_set_override_changes_nested_types(self):
        config = ServingSweepConfig().with_overrides(
            ["datasets=mrpc,rte", "load-fractions=0.5,1.1", "requests=32"]
        )
        assert config.datasets == ("mrpc", "rte")
        assert config.load_fractions == (0.5, 1.1)
        assert config.requests == 32

    def test_unknown_field_in_set_rejected(self):
        with pytest.raises(ValueError, match="no field"):
            ServeConfig().with_overrides(["qqps=100"])


class TestValidation:
    def test_choices_enforced(self):
        with pytest.raises(ValueError, match="must be one of"):
            ServeConfig(dataset="imagenet")

    def test_cross_field_validation(self):
        with pytest.raises(ValueError, match="trace_file"):
            ServeConfig(arrival="trace")

    def test_value_ranges(self):
        with pytest.raises(ValueError):
            ServeConfig(qps=-5.0)
        with pytest.raises(ValueError):
            ServingSweepConfig(datasets=("imagenet",))

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            ServeConfig().replace(requests=0)

    def test_qps_rejected_for_non_rate_arrivals(self):
        with pytest.raises(ValueError, match="not rate-driven"):
            ServeConfig(arrival="closed-loop", qps=300.0)

    def test_empty_tuples_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            ServingSweepConfig(datasets=())
        with pytest.raises(ValueError, match="must not be empty"):
            ServingSweepConfig().with_overrides(["load_fractions="])

    def test_unknown_batch_policy_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="Unknown batch-policy"):
            ServingSweepConfig(batch_policies=("bogus",))

    def test_batch_size_validated_at_config_time(self):
        with pytest.raises(ValueError, match="batch_size"):
            ServeConfig(batch_size=0)
        with pytest.raises(ValueError, match="batch_size"):
            ServingSweepConfig(batch_size=0)

    def test_canonical_registry_names_accepted(self):
        # Aliases and canonical names both resolve; no hard-coded choices.
        assert ServeConfig(batch_policy="length-bucketed").batch_policy == "length-bucketed"
        assert ServeConfig(arrival="closed").arrival == "closed"

    def test_unknown_serve_components_rejected(self):
        with pytest.raises(ValueError, match="Unknown arrival"):
            ServeConfig(arrival="fractal")
        with pytest.raises(ValueError, match="Unknown router"):
            ServeConfig(routing="random")

    def test_sweep_requires_rate_driven_arrival(self):
        with pytest.raises(ValueError, match="not rate-driven"):
            ServingSweepConfig(arrival="closed-loop")

    def test_unknown_pair_keys_rejected_at_config_time(self):
        from repro.evaluation import Fig6Config, Fig7Config

        with pytest.raises(ValueError, match="unknown dataset"):
            Fig6Config(pairs=("bert-base:imagenet",))
        with pytest.raises(ValueError, match="unknown model"):
            Fig7Config(pairs=("gpt-5:mrpc",))

    def test_missing_trace_file_rejected_at_config_time(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            ServeConfig(arrival="trace", trace_file=str(tmp_path / "missing.json"))

    def test_nonpositive_load_fractions_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            ServingSweepConfig(load_fractions=(0.5, 0.0))

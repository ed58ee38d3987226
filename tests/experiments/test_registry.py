"""Tests for the central component/experiment registry."""

from __future__ import annotations

import pytest

from repro.registry import Registry, available, create, resolve
from repro.experiments import (
    get_experiment,
    list_experiments,
    run_experiment,
    run_report,
)
from repro.evaluation.fig1_breakdown import Fig1Config
from repro.serving import (
    ClosedLoopArrivals,
    LengthBucketedBatcher,
    PoissonArrivals,
    TraceArrivals,
)

EXPECTED_EXPERIMENTS = {
    "fig1",
    "table1",
    "fig5",
    "fig6",
    "fig7a",
    "fig7b",
    "table2",
    "serve",
    "serving-sweep",
    "decode-sweep",
    "plan",
}


class TestGenericRegistry:
    def test_register_create_and_alias(self):
        registry = Registry()

        @registry.register("widget", "gizmo", aliases=("g",))
        class Gizmo:
            def __init__(self, size=1):
                self.size = size

        assert registry.create("widget", "gizmo", size=3).size == 3
        assert isinstance(registry.create("widget", "g"), Gizmo)
        assert registry.available("widget") == ["gizmo"]

    def test_duplicate_name_rejected(self):
        registry = Registry()
        registry.add("widget", "gizmo", object)
        with pytest.raises(ValueError):
            registry.add("widget", "gizmo", dict)

    def test_unknown_kind_and_name_raise_keyerror(self):
        registry = Registry()
        with pytest.raises(KeyError):
            registry.resolve("widget", "gizmo")
        registry.add("widget", "gizmo", object)
        with pytest.raises(KeyError):
            registry.resolve("widget", "doohickey")

    def test_name_lookup_is_case_insensitive(self):
        registry = Registry()
        registry.add("widget", "Gizmo", object)
        assert registry.resolve("widget", "GIZMO") is object


class TestComponentKinds:
    def test_serving_components_registered(self):
        assert "poisson" in available("arrival")
        assert "trace" in available("arrival")
        assert "closed-loop" in available("arrival")
        assert "length-bucketed" in available("batch-policy")
        assert "least-loaded" in available("router")

    def test_create_builds_components(self):
        assert isinstance(create("arrival", "poisson", rate_qps=10.0), PoissonArrivals)
        assert isinstance(create("arrival", "closed"), ClosedLoopArrivals)
        assert isinstance(
            create("arrival", "trace", trace=(0.0, 0.1)), TraceArrivals
        )
        policy = create("batch-policy", "bucketed", batch_size=8, bucket_width=32.0)
        assert isinstance(policy, LengthBucketedBatcher)
        assert policy.bucket_width == 32.0

    def test_resolve_returns_class(self):
        assert resolve("router", "round-robin").__name__ == "RoundRobinRouter"


class TestExperimentRegistry:
    def test_all_experiments_registered(self):
        assert {spec.name for spec in list_experiments()} == EXPECTED_EXPERIMENTS

    def test_specs_are_ordered(self):
        names = [spec.name for spec in list_experiments()]
        assert names.index("fig1") < names.index("table2") < names.index("serve")

    def test_unknown_experiment_raises_keyerror(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_run_experiment_three_equivalent_ways(self):
        by_default = run_experiment("fig1")
        by_dict = run_experiment("fig1", {"sequence_length": 128})
        by_config = run_experiment("fig1", Fig1Config(sequence_length=128))
        assert (
            by_default.attention_share_percent
            == by_dict.attention_share_percent
            == by_config.attention_share_percent
        )

    def test_run_experiment_keyword_overrides(self):
        result = run_experiment("fig1", mode="flops")
        assert result.mode == "flops"

    def test_run_experiment_rejects_wrong_config_type(self):
        from repro.evaluation.table1_models import Table1Config

        with pytest.raises(TypeError):
            run_experiment("fig1", Table1Config())

    def test_run_report_bundles_text_and_payload(self):
        from repro.evaluation.fig5_timeline import Fig5Config

        report = run_report("fig5")
        assert report.name == "fig5"
        assert "length-aware" in report.text
        assert report.payload["experiment"] == "fig5"
        assert report.payload["config"] == Fig5Config().to_dict()
        assert report.payload["result"]["saved_cycles_vs_sequential"] > 0

    def test_every_result_exposes_to_dict(self):
        report = run_report("fig1")
        assert callable(getattr(report.result, "to_dict"))


class TestPluginComponents:
    def test_third_party_arrival_flows_through_serve(self):
        import numpy as np
        from dataclasses import dataclass

        from repro.registry import REGISTRY
        from repro.serving import ArrivalProcess

        if ("arrival", "uniform-jitter") not in REGISTRY:

            @REGISTRY.register("arrival", "uniform-jitter")
            @dataclass
            class UniformJitterArrivals(ArrivalProcess):
                rate_qps: float = 100.0
                name: str = "uniform-jitter"

                def arrival_times(self, n, rng):
                    return np.cumsum(rng.uniform(0, 2.0 / self.rate_qps, size=n))

        result = run_experiment(
            "serve", {"arrival": "uniform-jitter", "qps": 200.0, "requests": 32}
        )
        assert result.report.arrival_process == "uniform-jitter"
        # Without qps the rate-driven plug-in sweeps, like the built-ins.
        assert run_experiment("serve", {"arrival": "uniform-jitter", "requests": 32}).mode == "sweep"

    def test_batch_policy_typo_still_raises(self):
        from repro.serving import get_batch_policy

        with pytest.raises(TypeError):
            get_batch_policy("timeout", timeout=0.5)  # typo for timeout_s


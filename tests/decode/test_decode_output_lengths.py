"""Output-length distributions: semantics, determinism, registry plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.decode import (
    FixedOutputLength,
    GeometricOutputLength,
    UniformOutputLength,
    generate_decode_requests,
    get_output_lengths,
)
from repro.registry import REGISTRY
from repro.serving.arrivals import PoissonArrivals
from repro.serving.request import Request
from repro.transformer.configs import MRPC


class TestDistributions:
    def test_fixed_is_constant(self):
        lengths = FixedOutputLength(output_len=7).sample(50, seed=1)
        assert np.all(lengths == 7)

    def test_uniform_within_bounds(self):
        dist = UniformOutputLength(min_output_len=3, max_output_len=9)
        lengths = dist.sample(500, seed=4)
        assert lengths.min() >= 3 and lengths.max() <= 9

    def test_geometric_capped_and_positive(self):
        dist = GeometricOutputLength(mean_output_len=32.0, max_output_len=64)
        lengths = dist.sample(2000, seed=4)
        assert lengths.min() >= 1 and lengths.max() <= 64

    def test_sampling_is_deterministic_per_seed(self):
        dist = GeometricOutputLength(mean_output_len=16.0)
        assert np.array_equal(dist.sample(100, seed=5), dist.sample(100, seed=5))
        assert not np.array_equal(dist.sample(100, seed=5), dist.sample(100, seed=6))

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            FixedOutputLength(output_len=0)
        with pytest.raises(ValueError):
            UniformOutputLength(min_output_len=5, max_output_len=4)
        with pytest.raises(ValueError):
            GeometricOutputLength(mean_output_len=0.5)


class TestResolution:
    def test_registered_names(self):
        names = REGISTRY.available("output-length")
        assert {"fixed", "uniform", "geometric"} <= set(names)

    def test_resolve_by_name_and_alias(self):
        assert isinstance(get_output_lengths("geometric"), GeometricOutputLength)
        assert isinstance(get_output_lengths("geo"), GeometricOutputLength)
        dist = get_output_lengths("fixed", output_len=3)
        assert dist.output_len == 3

    def test_int_shorthand_is_fixed(self):
        dist = get_output_lengths(12)
        assert isinstance(dist, FixedOutputLength) and dist.output_len == 12

    def test_instance_passthrough_rejects_knobs(self):
        dist = FixedOutputLength(output_len=2)
        assert get_output_lengths(dist) is dist
        with pytest.raises(TypeError):
            get_output_lengths(dist, output_len=3)
        with pytest.raises(TypeError):
            get_output_lengths(4, output_len=3)


class TestRequestGeneration:
    def test_prompts_and_timing_independent_of_output_lengths(self):
        arrivals = PoissonArrivals(rate_qps=20.0)
        fixed = generate_decode_requests(
            MRPC, arrivals, 64, FixedOutputLength(output_len=4), seed=9
        )
        geo = generate_decode_requests(
            MRPC, arrivals, 64, GeometricOutputLength(mean_output_len=64.0), seed=9
        )
        assert [r.length for r in fixed] == [r.length for r in geo]
        assert [r.arrival_time for r in fixed] == [r.arrival_time for r in geo]
        assert [r.output_len for r in fixed] != [r.output_len for r in geo]

    def test_decode_request_invariants(self):
        request = Request(request_id=0, length=10, arrival_time=0.0, output_len=5)
        assert request.total_tokens == 15
        assert Request(request_id=1, length=10, arrival_time=0.0).output_len == 1
        with pytest.raises(ValueError):
            Request(request_id=0, length=10, arrival_time=0.0, output_len=0)

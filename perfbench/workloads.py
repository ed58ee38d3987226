"""The benchmark's workloads: one fleet, one traffic shape, one engine call.

Every workload is an open-loop arrival schedule in *simulated* time.  On the
host it is an offline batch: the simulator is handed ``requests`` requests
generated from the run's seed and the benchmark measures how many of them it
simulates per host second.  All fleets are the paper's design (the
``sparse-fpga`` device: top-k sparse attention plus the length-aware coarse
pipeline) serving BERT-base on MRPC-distributed lengths.

Each workload loads a different set of layers, so that an optimisation of one
layer runs on one workload and is bypassed on another (see ``WORKLOADS.md``):

* ``plain`` -- exact billing, FIFO batching, least-loaded routing, and an
  SLO that only scores completions (neither policy reads deadlines).  No
  cost-model queries; almost every batch is a new length multiset, so the
  cycle-model solve runs about once per batch and the schedule cache mostly
  writes.
* ``slo-classes`` -- length-bucketed billing, tagged classes, priority EDF
  formation and cost-model routing.  Cost-model queries and formation
  dominate; the schedule cache mostly reads.
* ``chaos-elastic`` -- an autoscaled pool under a flash crowd with crashes,
  stragglers, hedging, retries and blacklist routing.  The only workload
  with autoscaler decisions, fault timelines and crash recovery.
* ``decode`` -- two-phase requests with a KV-cache cap and iteration-level
  batching.  The only workload whose host time is the decode-step loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

DATASET = "mrpc"
MODEL = "bert-base"

#: Requests per second one ``sparse-fpga`` replica sustains on MRPC lengths
#: with fixed batches of 16 and exact billing: 16 requests over the 0.1455 s
#: mean simulated batch latency (measured over 200 seeded batches).
REPLICA_CAPACITY_QPS = 110.0


@dataclass(frozen=True)
class Workload:
    """One named workload: its input size and how to build and run it."""

    name: str
    #: Offered requests per simulation (the stated input size).
    requests: int
    #: Builds the fleet and policies for ``requests`` requests.
    build: Callable[[int], "Scenario"]
    #: Traced layers that must be called on this workload, beyond the ones
    #: every workload calls (``child.COMMON_LAYERS``).
    loads: frozenset[str]
    #: Traced layers this workload bypasses: they must not be called.
    bypasses: frozenset[str]


@dataclass
class Scenario:
    """A built workload: ``run(seed)`` simulates, ``arrivals`` regenerates."""

    run: Callable[[int], object]
    #: The encoder arrival process behind the stream (used by the
    #: conservation check to regenerate the offered requests).
    arrivals: object


def _plain(requests: int) -> Scenario:
    from repro.devices import build_fleet
    from repro.serving import FixedSizeBatcher, LeastLoadedRouter, PoissonArrivals, SLOSpec
    from repro.serving.engine import simulate_online

    replicas = 8
    fleet = build_fleet("sparse-fpga", model=MODEL, dataset=DATASET, replicas=replicas)
    arrivals = PoissonArrivals(rate_qps=0.7 * replicas * REPLICA_CAPACITY_QPS)

    def run(seed: int):
        return simulate_online(
            fleet,
            DATASET,
            arrivals,
            num_requests=requests,
            batch_policy=FixedSizeBatcher(batch_size=16),
            router=LeastLoadedRouter(),
            # Between the median (~150 ms) and p99 (~180 ms) latency, so
            # attainment (~0.75) moves with the simulated latency.
            slo=SLOSpec(base_s=0.16),
            seed=seed,
        )

    return Scenario(run=run, arrivals=arrivals)


def _slo_classes(requests: int) -> Scenario:
    from repro.devices import build_fleet
    from repro.serving import (
        BurstyArrivals,
        ClassMixArrivals,
        CostModelRouter,
        PriorityDeadlineBatcher,
    )
    from repro.serving.engine import simulate_online

    replicas = 8
    fleet = build_fleet(
        "sparse-fpga",
        model=MODEL,
        dataset=DATASET,
        replicas=replicas,
        cache_length_bucket=16,
    )
    arrivals = ClassMixArrivals(
        base=BurstyArrivals(rate_qps=0.7 * replicas * REPLICA_CAPACITY_QPS),
        mix="interactive:0.5,batch:0.3,best-effort:0.2",
    )

    def run(seed: int):
        return simulate_online(
            fleet,
            DATASET,
            arrivals,
            num_requests=requests,
            batch_policy=PriorityDeadlineBatcher(batch_size=16),
            router=CostModelRouter(),
            seed=seed,
        )

    return Scenario(run=run, arrivals=arrivals)


def _chaos_elastic(requests: int) -> Scenario:
    from repro.devices import build_fleet
    from repro.faults import CrashRestartFaults, StragglerFaults
    from repro.serving import (
        CostModelRouter,
        DeadlineBatcher,
        FlashCrowdArrivals,
        QueueDepthAutoscaler,
        SLOSpec,
    )
    from repro.serving.engine import simulate_online

    pool = 8
    fleet = build_fleet(
        "sparse-fpga", model=MODEL, dataset=DATASET, replicas=pool, cache_length_bucket=16
    )
    # Baseline traffic fits half the pool; the spike needs all of it and
    # more, so the autoscaler has to act and the lag makes it pay.
    arrivals = FlashCrowdArrivals(
        rate_qps=0.35 * pool * REPLICA_CAPACITY_QPS,
        spike_ratio=3.0,
        spike_start_s=8.0,
        spike_duration_s=3.0,
    )
    faults = (
        CrashRestartFaults(mtbf_s=4.0, downtime_s=0.5),
        StragglerFaults(mtbs_s=3.0, duration_s=1.0, multiplier=2.0),
    )

    def run(seed: int):
        return simulate_online(
            fleet,
            DATASET,
            arrivals,
            num_requests=requests,
            batch_policy=DeadlineBatcher(batch_size=16),
            router=CostModelRouter(blacklist_s=0.25),
            slo=SLOSpec(base_s=0.5),
            autoscaler=QueueDepthAutoscaler(scale_up_depth=16.0, scale_down_depth=2.0),
            provisioning_lag_s=1.0,
            autoscale_interval_s=0.25,
            min_devices=2,
            initial_devices=4,
            faults=faults,
            hedging=True,
            max_retries=2,
            seed=seed,
        )

    return Scenario(run=run, arrivals=arrivals)


def _decode(requests: int) -> Scenario:
    from repro.decode import simulate_decode_online
    from repro.decode.output_lengths import GeometricOutputLength
    from repro.devices import build_fleet
    from repro.serving import LeastLoadedRouter, PoissonArrivals, SLOSpec, TimeoutBatcher

    replicas = 4
    fleet = build_fleet(
        "sparse-fpga",
        model=MODEL,
        dataset=DATASET,
        replicas=replicas,
        # About ten average requests (53 prompt + 32 output tokens at 18 KiB
        # each): prefill dispatches stall on KV while the queue stays bounded.
        kv_cache_bytes=16 * 2**20,
    )
    arrivals = PoissonArrivals(rate_qps=60.0 * replicas)

    def run(seed: int):
        return simulate_decode_online(
            fleet,
            DATASET,
            arrivals,
            num_requests=requests,
            output_lengths=GeometricOutputLength(mean_output_len=32.0, max_output_len=256),
            batch_policy=TimeoutBatcher(batch_size=16, timeout_s=0.02),
            router=LeastLoadedRouter(),
            slo=SLOSpec(base_s=0.12, per_output_token_s=0.004),
            iteration_level=True,
            seed=seed,
        )

    return Scenario(run=run, arrivals=arrivals)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="plain",
            requests=50_000,
            build=_plain,
            loads=frozenset({"dispatch", "finalize"}),
            bypasses=frozenset({"costmodel", "faults", "autoscaler", "decode"}),
        ),
        Workload(
            name="slo-classes",
            requests=20_000,
            build=_slo_classes,
            loads=frozenset({"costmodel", "dispatch", "finalize"}),
            bypasses=frozenset({"faults", "autoscaler", "decode"}),
        ),
        Workload(
            name="chaos-elastic",
            requests=10_000,
            build=_chaos_elastic,
            loads=frozenset({"costmodel", "faults", "autoscaler", "dispatch", "finalize"}),
            bypasses=frozenset({"decode"}),
        ),
        Workload(
            name="decode",
            requests=2_000,
            build=_decode,
            loads=frozenset({"decode"}),
            bypasses=frozenset({"costmodel", "faults", "autoscaler"}),
        ),
    )
}

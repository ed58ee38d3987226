"""Online (open-loop) serving simulation on top of the hardware model.

The subsystem turns the per-batch accelerator model into a traffic-facing
service simulator:

* :mod:`~repro.serving.arrivals` -- request streams (Poisson, bursty MMPP,
  diurnal, flash-crowd, trace replay, closed-loop).
* :mod:`~repro.serving.policies` -- batch formation (fixed-size, timeout
  dynamic batching, length-bucketed continuous batching).
* :mod:`~repro.serving.routing` -- multi-device dispatch (round-robin,
  least-loaded, length-sharded) over :mod:`repro.devices` fleets.
* :mod:`~repro.serving.engine` -- the event-driven simulator and its report
  (latency percentiles, sustained QPS, queue-depth timeline, fleet
  utilization and energy, admission control, device-level continuous
  batching).
* :mod:`~repro.serving.slo` -- SLO-aware serving: per-request deadlines
  (:class:`SLOSpec`), EDF batch formation with provably-late shedding
  (:class:`DeadlineBatcher`), and cost-model routing
  (:class:`CostModelRouter`).
* :mod:`~repro.serving.autoscaler` -- elastic-pool scaling policies
  (queue-depth threshold, attainment feedback) driven inside the engine
  with a provisioning lag and per-device billing.
"""

from .arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    ClosedLoopArrivals,
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    TraceArrivals,
    get_arrival_process,
)
from .autoscaler import (
    Autoscaler,
    PredictedAttainmentAutoscaler,
    QueueDepthAutoscaler,
    ScaleObservation,
    get_autoscaler,
)
from .classes import (
    ClassMixArrivals,
    ClassSummary,
    PriorityDeadlineBatcher,
    RequestClass,
    collect_class_stats,
    get_request_class,
    parse_class_mix,
    parse_class_queue_limits,
    register_request_class,
)
from .engine import BatchRecord, DeviceSummary, OnlineServingReport, simulate_online
from .policies import (
    BatchPolicy,
    FixedSizeBatcher,
    LengthBucketedBatcher,
    TimeoutBatcher,
    get_batch_policy,
)
from .request import Request, RequestRecord
from .routing import (
    LeastLoadedRouter,
    LengthShardedRouter,
    RoundRobinRouter,
    Router,
    get_router,
)
from .slo import CostModelRouter, DeadlineBatcher, SLOSpec, assign_deadlines

__all__ = [
    "ArrivalProcess",
    "Autoscaler",
    "BatchPolicy",
    "BatchRecord",
    "BurstyArrivals",
    "ClassMixArrivals",
    "ClassSummary",
    "ClosedLoopArrivals",
    "CostModelRouter",
    "DeadlineBatcher",
    "DeviceSummary",
    "DiurnalArrivals",
    "FixedSizeBatcher",
    "FlashCrowdArrivals",
    "LeastLoadedRouter",
    "LengthBucketedBatcher",
    "LengthShardedRouter",
    "OnlineServingReport",
    "PoissonArrivals",
    "PredictedAttainmentAutoscaler",
    "PriorityDeadlineBatcher",
    "QueueDepthAutoscaler",
    "Request",
    "RequestClass",
    "RequestRecord",
    "RoundRobinRouter",
    "Router",
    "SLOSpec",
    "ScaleObservation",
    "TimeoutBatcher",
    "TraceArrivals",
    "assign_deadlines",
    "collect_class_stats",
    "get_arrival_process",
    "get_autoscaler",
    "get_batch_policy",
    "get_request_class",
    "get_router",
    "parse_class_mix",
    "parse_class_queue_limits",
    "register_request_class",
    "simulate_online",
]

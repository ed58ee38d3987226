"""Stage allocation (Algorithm 1) and length-aware dynamic pipeline scheduling."""

from .baselines import MicroBatchScheduler, PaddedScheduler, SequentialScheduler
from .design_space import DesignPoint, best_design_point, explore_design_space
from .length_aware import (
    LengthAwareScheduler,
    build_layer_ordered_jobs,
    sort_batch_by_length,
)
from .pipeline import PipelineJob, ScheduleResult, simulate_coarse_pipeline
from .stage_allocation import (
    StageAssignment,
    StagePlan,
    allocate_stages,
    plan_to_accelerator,
)
from .timeline import StageOccupancy, Timeline, TimelineEvent

__all__ = [
    "DesignPoint",
    "LengthAwareScheduler",
    "MicroBatchScheduler",
    "PaddedScheduler",
    "PipelineJob",
    "ScheduleResult",
    "SequentialScheduler",
    "StageAssignment",
    "StageOccupancy",
    "StagePlan",
    "Timeline",
    "TimelineEvent",
    "allocate_stages",
    "best_design_point",
    "build_layer_ordered_jobs",
    "explore_design_space",
    "plan_to_accelerator",
    "simulate_coarse_pipeline",
    "sort_batch_by_length",
]

"""Propagate ``REPRO_*`` environment overrides into pool workers.

The simulation stack reads two debugging/validation switches from the
environment at *use* time: ``REPRO_PIPELINE_ENGINE`` (event-free fast path
vs. the event-building reference oracle) and ``REPRO_SCHEDULE_CACHE`` (disable
the process-wide schedule cache).  Serial runs honor whatever the caller
exported; parallel runs (``--jobs N``) execute in
:class:`~concurrent.futures.ProcessPoolExecutor` workers whose environment
is whatever the worker process happened to inherit *when it started* --
which is not necessarily the submitter's environment (pre-started or
long-lived workers, spawn servers, test harnesses that mutate ``os.environ``
between runs).

The fix is explicit: the submitting process captures the overrides with
:func:`capture_env_overrides` at submit time and every worker re-exports
them with :func:`apply_env_overrides` before doing any work, so ``--jobs N``
honors the switches identically to a serial run -- including *unsetting*
variables the submitter does not have set.
"""

from __future__ import annotations

import os

__all__ = ["ENV_OVERRIDE_VARS", "apply_env_overrides", "capture_env_overrides"]

#: The switches the simulation stack reads from the environment at use time.
ENV_OVERRIDE_VARS = (
    "REPRO_PIPELINE_ENGINE",
    "REPRO_SCHEDULE_CACHE",
)


def capture_env_overrides() -> dict[str, str | None]:
    """Snapshot the override variables as seen by the submitting process.

    ``None`` marks a variable the submitter does not have set, so workers
    can *unset* stale values rather than merely overwrite present ones.
    """
    return {name: os.environ.get(name) for name in ENV_OVERRIDE_VARS}


def apply_env_overrides(overrides: dict[str, str | None] | None) -> None:
    """Re-export a submit-time snapshot inside a worker process."""
    if overrides is None:
        return
    for name, value in overrides.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value

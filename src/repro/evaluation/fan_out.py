"""One ``--jobs`` fan-out for every experiment that runs a grid.

``serving-sweep``, ``plan`` and ``repro all`` each run a list of independent,
deterministic calls.  :func:`fan_out` is the one place that decides how:
``jobs == 1`` calls them inline, in order; ``jobs > 1`` submits every call to
one :class:`~concurrent.futures.ProcessPoolExecutor` and hands the results
back in submit order, so a caller has a single code path and a parallel run
returns exactly what a serial run returns.

The simulation stack reads two switches from the environment at *use* time:
``REPRO_PIPELINE_ENGINE`` (event-free fast path vs. the event-building
reference oracle) and ``REPRO_SCHEDULE_CACHE`` (disable the process-wide
schedule cache).  A pool worker's environment is whatever it inherited when
it started, which under spawn, forkserver or a long-lived pool need not be
the submitter's.  So each pool snapshots :data:`ENV_OVERRIDE_VARS` when it
opens and every worker re-exports that snapshot as it starts -- *unsetting*
variables the submitter does not have set -- before it runs any call.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

__all__ = ["ENV_OVERRIDE_VARS", "fan_out"]

#: The switches the simulation stack reads from the environment at use time.
ENV_OVERRIDE_VARS = (
    "REPRO_PIPELINE_ENGINE",
    "REPRO_SCHEDULE_CACHE",
)

#: Multiprocessing context of every worker pool (None = platform default).
#: Tests point this at a spawn context so workers inherit nothing through
#: fork and the pool's environment snapshot is the only channel.
_MP_CONTEXT = None


def _capture_env() -> dict[str, str | None]:
    """Snapshot the override variables; ``None`` marks an unset one."""
    return {name: os.environ.get(name) for name in ENV_OVERRIDE_VARS}


def _apply_env(env: dict[str, str | None]) -> None:
    """Re-export the pool's snapshot inside a worker process."""
    for name, value in env.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


@contextmanager
def fan_out(jobs: int) -> Iterator[Callable[[Callable, Iterable[tuple]], list]]:
    """Yield ``run(fn, calls)``, which returns ``[fn(*args) for args in calls]``.

    ``jobs == 1`` runs the calls inline.  ``jobs > 1`` opens one pool for
    the whole ``with`` block, under the override switches set when the block
    opens: ``fn`` must be a module-level function and every argument must
    pickle.  Results come back in submit order and the
    first failing call (in that order) re-raises its error.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1:
        yield lambda fn, calls: [fn(*args) for args in calls]
        return
    pool = ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=_MP_CONTEXT,
        initializer=_apply_env,
        initargs=(_capture_env(),),
    )

    def run(fn: Callable, calls: Iterable[tuple]) -> list:
        futures = [pool.submit(fn, *args) for args in calls]
        return [future.result() for future in futures]

    try:
        yield run
    finally:
        pool.shutdown(cancel_futures=True)

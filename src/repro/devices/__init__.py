"""Unified Device API: one cost-model protocol for every serving backend.

The subsystem makes the cycle-accurate FPGA simulation and the analytical
CPU/GPU roofline models interchangeable behind a single protocol, so the
serving engine, routers, and evaluation harnesses run heterogeneous fleets
(e.g. one sparse FPGA plus one GPU) without backend-specific glue:

* :mod:`~repro.devices.protocol` -- the :class:`Device` protocol and the
  :class:`BatchExecution` result (latency, per-request completions, the
  admission interval that enables device-level continuous batching).
* :mod:`~repro.devices.adapters` -- :class:`CycleAccurateDevice` (wraps an
  :class:`~repro.hardware.accelerator.Accelerator` + batch scheduler) and
  :class:`AnalyticalDevice` (wraps the roofline platform models).
* :mod:`~repro.devices.fleet` -- :class:`~repro.devices.fleet.FleetCostOracle`:
  a fleet's batch estimates for EDF and routing, twin replicas asked once.
* :mod:`~repro.devices.catalog` -- the registered built-ins
  (``sparse-fpga``, ``baseline-fpga``, ``gpu-rtx6000``, ``gpu-jetson``,
  ``cpu-xeon``, ``gpu-v100-et``) plus :func:`build_device` /
  :func:`build_fleet`.

Importing this package registers the built-in devices under
``kind="device"`` in :mod:`repro.registry`.
"""

from .adapters import AnalyticalDevice, CycleAccurateDevice
from .catalog import (
    DEFAULT_DEVICE_PRICES_USD_PER_HOUR,
    build_device,
    build_fleet,
    split_fleet_spec,
)
from .protocol import BatchExecution, Device
from .schedule_cache import (
    GLOBAL_SCHEDULE_CACHE,
    ScheduleCache,
    schedule_cache_enabled,
)

__all__ = [
    "AnalyticalDevice",
    "BatchExecution",
    "CycleAccurateDevice",
    "DEFAULT_DEVICE_PRICES_USD_PER_HOUR",
    "Device",
    "GLOBAL_SCHEDULE_CACHE",
    "ScheduleCache",
    "build_device",
    "build_fleet",
    "schedule_cache_enabled",
    "split_fleet_spec",
]

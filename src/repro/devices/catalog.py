"""Registered device catalog: every serving backend under ``kind="device"``.

Importing this module registers the built-in devices into
:data:`repro.registry.REGISTRY`, the same way arrival processes, batch
policies, routers, and experiments register.  Every factory shares one
signature -- ``(model=..., dataset=..., name=None, **backend_knobs)`` --
where ``model``/``dataset`` name the operating point (FPGA designs are
balanced for the dataset's length statistics; analytical platforms ignore
the dataset but accept it so fleet specs stay uniform):

    from repro.devices import build_device, build_fleet

    device = build_device("sparse-fpga", model="bert-base", dataset="mrpc")
    fleet = build_fleet(("sparse-fpga", "gpu-rtx6000"), dataset="mrpc")

Third-party backends plug in with ``@register("device", "my-device")`` and
become reachable from the CLI (``--devices my-device``) with no core edits.
"""

from __future__ import annotations

import inspect
from functools import lru_cache
from typing import Iterable

from .. import config as global_config
from ..hardware.accelerator import build_baseline_accelerator, build_sparse_accelerator
from ..platforms.devices import JETSON_TX2, RTX_6000, V100_ET, XEON_5218
from ..registry import REGISTRY, register
from ..scheduling.baselines import PaddedScheduler
from ..scheduling.length_aware import LengthAwareScheduler
from ..transformer.configs import (
    DatasetConfig,
    ModelConfig,
    get_dataset_config,
    get_model_config,
)
from .adapters import AnalyticalDevice, CycleAccurateDevice
from .protocol import Device

__all__ = ["DEFAULT_DEVICE_PRICES_USD_PER_HOUR", "build_device", "build_fleet", "split_fleet_spec"]


#: Catalog list prices (USD per device-hour), in the ballpark of public-cloud
#: on-demand rates for comparable hardware: FPGA boards at an F1-class
#: instance share, the RTX 6000 at a workstation-GPU rental, the V100 at a
#: datacenter-GPU rate, the Xeon at a dedicated-host share, and the Jetson at
#: embedded-board amortization.  Every factory takes ``price_per_hour_usd``
#: to override its default, so planner studies can re-price the catalog.
DEFAULT_DEVICE_PRICES_USD_PER_HOUR = {
    "sparse-fpga": 1.65,
    "baseline-fpga": 1.65,
    "gpu-rtx6000": 1.25,
    "gpu-jetson": 0.08,
    "cpu-xeon": 0.45,
    "gpu-v100-et": 2.48,
}


def split_fleet_spec(specs: str | Iterable[str]) -> list[str]:
    """Flatten fleet specs into individual device names.

    Accepts a single string or an iterable, where every entry may itself be
    comma-separated (the CLI's ``--devices sparse-fpga,gpu-rtx6000`` form).
    This is the one place the spec syntax is defined; config validation and
    fleet construction both go through it.
    """
    if isinstance(specs, str):
        specs = (specs,)
    return [part.strip() for spec in specs for part in str(spec).split(",") if part.strip()]


def _model(model: ModelConfig | str) -> ModelConfig:
    return get_model_config(model) if isinstance(model, str) else model


def _dataset(dataset: DatasetConfig | str) -> DatasetConfig:
    return get_dataset_config(dataset) if isinstance(dataset, str) else dataset


# One immutable design per recent operating point, shared by its replicas:
# the fleet cost oracle (repro.devices.fleet) proves twins by design identity.
_sparse_design = lru_cache(maxsize=64)(build_sparse_accelerator)
_baseline_design = lru_cache(maxsize=64)(build_baseline_accelerator)


@register("device", "sparse-fpga", aliases=("fpga", "ours"))
def sparse_fpga_device(
    model: ModelConfig | str = "bert-base",
    dataset: DatasetConfig | str = "mrpc",
    name: str | None = None,
    top_k: int = global_config.DEFAULT_TOP_K,
    quant_bits: int = global_config.DEFAULT_QK_QUANT_BITS,
    replication: int = 1,
    cache_length_bucket: int | None = None,
    max_batch_size: int | None = None,
    max_batch_tokens: int | None = None,
    kv_cache_bytes: int | None = None,
    price_per_hour_usd: float = DEFAULT_DEVICE_PRICES_USD_PER_HOUR["sparse-fpga"],
) -> Device:
    """The proposed design: sparse attention + length-aware scheduling.

    Config knobs: ``top_k`` (attended keys per query), ``quant_bits``
    (Q/K quantization bits), ``replication`` (attention-stage copies),
    ``cache_length_bucket`` (tokens; schedule-cache length quantization,
    None = exact), the per-device admission limits ``max_batch_size``
    (requests per batch) / ``max_batch_tokens`` (total tokens per batch),
    ``kv_cache_bytes`` (decoder KV-cache capacity, None = uncapped), and
    ``price_per_hour_usd`` (rental price per device-hour for cost reports).
    The design is balanced for the dataset's average/max length.
    """
    model_config, dataset_config = _model(model), _dataset(dataset)
    accelerator = _sparse_design(
        model_config,
        top_k=top_k,
        avg_seq=dataset_config.avg_length,
        max_seq=dataset_config.max_length,
        quant_bits=quant_bits,
        replication=replication,
    )
    return CycleAccurateDevice(
        accelerator,
        scheduler=LengthAwareScheduler(),
        name=name or "sparse-fpga",
        cache_length_bucket=cache_length_bucket,
        max_batch_size=max_batch_size,
        max_batch_tokens=max_batch_tokens,
        kv_cache_bytes=kv_cache_bytes,
        price_per_hour_usd=price_per_hour_usd,
    )


@register("device", "baseline-fpga", aliases=("fpga-baseline",))
def baseline_fpga_device(
    model: ModelConfig | str = "bert-base",
    dataset: DatasetConfig | str = "mrpc",
    name: str | None = None,
    cache_length_bucket: int | None = None,
    max_batch_size: int | None = None,
    max_batch_tokens: int | None = None,
    kv_cache_bytes: int | None = None,
    price_per_hour_usd: float = DEFAULT_DEVICE_PRICES_USD_PER_HOUR["baseline-fpga"],
) -> Device:
    """The Fig. 7 FPGA baseline: dense attention, per-batch max-length padding.

    Config knobs: ``cache_length_bucket`` (tokens; schedule-cache length
    quantization, None = exact), the per-device admission limits
    ``max_batch_size`` (requests per batch) / ``max_batch_tokens`` (total
    tokens per batch), ``kv_cache_bytes`` (decoder KV-cache capacity,
    None = uncapped), and ``price_per_hour_usd`` (rental price per
    device-hour for cost reports).  Every sequence of a batch is billed at
    that batch's longest sequence (the paper's "zero-padded to the maximum
    sentence length in the batch"), which is what makes this device
    padding-bound.  The dataset's max length only sizes the design:
    longer sequences are accepted, and a batch holding one is billed at
    its length.
    """
    model_config, dataset_config = _model(model), _dataset(dataset)
    accelerator = _baseline_design(
        model_config,
        avg_seq=dataset_config.avg_length,
        max_seq=dataset_config.max_length,
    )
    scheduler = PaddedScheduler(pad_to=None, pipelined=True, buffer_slots=None)
    return CycleAccurateDevice(
        accelerator,
        scheduler=scheduler,
        name=name or "baseline-fpga",
        cache_length_bucket=cache_length_bucket,
        max_batch_size=max_batch_size,
        max_batch_tokens=max_batch_tokens,
        kv_cache_bytes=kv_cache_bytes,
        price_per_hour_usd=price_per_hour_usd,
    )


def _register_analytical(
    key: str,
    platform,
    aliases: tuple[str, ...],
    mem_bandwidth_bytes: float | None = None,
) -> None:
    def build(
        model: ModelConfig | str = "bert-base",
        dataset: DatasetConfig | str = "mrpc",  # noqa: ARG001 - uniform signature
        name: str | None = None,
        workload: str = "end_to_end",
        max_batch_size: int | None = None,
        max_batch_tokens: int | None = None,
        kv_cache_bytes: int | None = None,
        price_per_hour_usd: float = DEFAULT_DEVICE_PRICES_USD_PER_HOUR[key],
    ) -> Device:
        del dataset  # analytical platforms have no length-balanced design point
        return AnalyticalDevice(
            platform,
            model_config=_model(model),
            name=name or key,
            workload=workload,
            max_batch_size=max_batch_size,
            max_batch_tokens=max_batch_tokens,
            kv_cache_bytes=kv_cache_bytes,
            mem_bandwidth_bytes=mem_bandwidth_bytes,
            price_per_hour_usd=price_per_hour_usd,
        )

    build.__name__ = f"{key.replace('-', '_')}_device"
    build.__doc__ = (
        f"Analytical roofline model of {platform.name}.\n\n"
        "Config knobs: ``workload`` ('end_to_end' or 'attention'), the "
        "per-device admission limits ``max_batch_size`` (requests per "
        "batch) / ``max_batch_tokens`` (total tokens per batch), "
        "``kv_cache_bytes`` (decoder KV-cache capacity, None = uncapped), "
        "and ``price_per_hour_usd`` (rental price per device-hour). "
        "Batches are padded dense and serialize (no internal pipeline)."
    )
    REGISTRY.add("device", key, build, aliases=aliases)


# Decode-phase KV streaming rates come from the public datasheets of the
# platforms the paper compares against (GDDR6 / LPDDR4 / DDR4 / HBM2).
_register_analytical("gpu-rtx6000", RTX_6000, aliases=("gpu", "rtx6000"), mem_bandwidth_bytes=672e9)
_register_analytical("gpu-jetson", JETSON_TX2, aliases=("jetson", "jetson-tx2"), mem_bandwidth_bytes=59.7e9)
_register_analytical("cpu-xeon", XEON_5218, aliases=("cpu", "xeon"), mem_bandwidth_bytes=115e9)
_register_analytical("gpu-v100-et", V100_ET, aliases=("v100-et",), mem_bandwidth_bytes=900e9)


#: Shared fleet knobs that not every device declares; build_device drops
#: exactly these when the chosen factory has no such parameter, so one knob
#: set can drive a mixed fleet while typos still raise TypeError.
_OPTIONAL_DEVICE_KNOBS = frozenset(
    {
        "top_k",
        "cache_length_bucket",
        "max_batch_size",
        "max_batch_tokens",
        "kv_cache_bytes",
        "price_per_hour_usd",
    }
)


def build_device(
    spec: str,
    model: ModelConfig | str = "bert-base",
    dataset: DatasetConfig | str = "mrpc",
    **overrides,
) -> Device:
    """Build one registered device at a (model, dataset) operating point.

    Overrides in :data:`_OPTIONAL_DEVICE_KNOBS` (currently ``top_k``) are
    forwarded only to factories that declare them -- resolved through the
    registry, so aliases like ``fpga``/``ours`` behave like their canonical
    name; any other unexpected keyword still raises :class:`TypeError`.
    """
    factory = REGISTRY.resolve("device", spec)
    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic factories
        parameters = None
    if parameters is None or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    ):
        # A **kwargs factory declares nothing by name; forward everything.
        accepted = None
    else:
        accepted = set(parameters)
    if accepted is not None:
        overrides = {
            key: value
            for key, value in overrides.items()
            if key in accepted or key not in _OPTIONAL_DEVICE_KNOBS
        }
    return factory(model=model, dataset=dataset, **overrides)


def build_fleet(
    specs: str | Iterable[str],
    model: ModelConfig | str = "bert-base",
    dataset: DatasetConfig | str = "mrpc",
    replicas: int = 1,
    **overrides,
) -> list[Device]:
    """Build a fleet from device specs (``("sparse-fpga", "gpu-rtx6000")``).

    Each spec may itself be comma-separated (the CLI's
    ``--devices sparse-fpga,gpu-rtx6000`` form); ``replicas`` instantiates
    the whole list that many times, and ``overrides`` are forwarded to every
    factory (so they must be accepted by all devices in the fleet).
    """
    names = split_fleet_spec(specs)
    if not names:
        raise ValueError("the device fleet spec is empty")
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    return [
        build_device(name, model=model, dataset=dataset, **overrides)
        for _ in range(replicas)
        for name in names
    ]

"""Table 2: throughput and energy-efficiency comparison.

Two rows of Table 2 are produced by this reproduction's own models -- the GPU
RTX 6000 baseline and "Ours FPGA" -- averaged over the four Fig. 7 workloads;
the remaining rows (E.T. on V100, the prior FPGA design, the A3 and SpAtten
ASICs) are literature numbers quoted by the paper and reported as data.

On top of the closed-batch table, ``serving_dataset`` adds a *serving-side*
energy comparison computed through the unified Device API
(:mod:`repro.devices`): the listed devices drain the same request stream
under round-robin routing, and each device's per-request energy comes from
its own backend model (cycle-accurate makespan x board power for FPGA
designs, roofline latency x package power for CPU/GPU platforms).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import config as global_config
from ..experiments import ExperimentSpec, cfg_field, register_experiment
from ..experiments.config import ExperimentConfig
from ..platforms.energy import (
    EnergyReport,
    LITERATURE_TABLE2_ROWS,
    energy_report_from_result,
)
from ..devices import build_fleet
from ..registry import REGISTRY
from ..serving import ClosedLoopArrivals, FixedSizeBatcher, simulate_online
from ..serving.routing import RoundRobinRouter
from ..transformer.configs import DATASET_ZOO
from .fig7_throughput import Fig7Result, _fig7_impl
from .report import format_table

__all__ = ["Table2Config", "Table2Result"]


@dataclass
class Table2Result:
    """All rows of Table 2, ours first."""

    rows: list[EnergyReport]
    fig7: Fig7Result
    #: Device-level serving-energy rows (present when serving_dataset is set).
    serving: list[dict] = field(default_factory=list)
    #: Fleet total of the serving section, straight from the serving report's
    #: ``total_energy_joules`` -- by construction the sum of the per-device
    #: rows, which the heterogeneous-fleet tests pin down.
    serving_total_energy_joules: float | None = None

    def row(self, platform: str) -> EnergyReport:
        """Look up one row by its platform label."""
        for report in self.rows:
            if report.platform == platform:
                return report
        raise KeyError(f"no Table 2 row for platform '{platform}'")

    def as_rows(self) -> list[dict]:
        return [report.as_row() for report in self.rows]

    def paper_rows(self) -> dict:
        """The paper's Table 2 numbers for side-by-side comparison."""
        return dict(global_config.PAPER_TABLE2)

    def to_dict(self) -> dict:
        """Machine-readable form (JSON-ready)."""
        payload = {"rows": self.as_rows(), "paper_rows": self.paper_rows()}
        if self.serving:
            payload["serving"] = list(self.serving)
            payload["serving_total_energy_joules"] = self.serving_total_energy_joules
        return payload


@dataclass(frozen=True)
class Table2Config(ExperimentConfig):
    """Configuration of the Table 2 energy-efficiency experiment."""

    accuracy_drop_ours: float = cfg_field(
        1.8, help="accuracy drop (pp) reported for the proposed design"
    )
    accuracy_drop_gpu: float = cfg_field(
        1.8, help="accuracy drop (pp) reported for the GPU row"
    )
    batch_size: int = cfg_field(
        global_config.DEFAULT_BATCH_SIZE, help="sampled batch size per workload"
    )
    top_k: int = cfg_field(global_config.DEFAULT_TOP_K, help="Top-k budget")
    serving_dataset: str | None = cfg_field(
        None,
        help="also report device-level serving energy on this Table 1 dataset (e.g. mrpc)",
    )
    serving_devices: tuple[str, ...] = cfg_field(
        ("sparse-fpga", "gpu-rtx6000"),
        help="registered devices compared in the serving-energy section",
    )
    serving_requests: int = cfg_field(96, help="requests in the serving-energy simulation")
    seed: int = global_config.DEFAULT_SEED

    def validate(self) -> None:
        super().validate()
        if self.serving_requests < 1:
            raise ValueError("serving_requests must be >= 1")
        if self.serving_dataset is not None:
            if self.serving_dataset not in DATASET_ZOO:
                raise ValueError(
                    f"unknown serving_dataset '{self.serving_dataset}'; "
                    f"valid: {sorted(DATASET_ZOO)}"
                )
            if not self.serving_devices:
                raise ValueError("serving_devices must not be empty")
            try:
                for name in self.serving_devices:
                    REGISTRY.resolve("device", name)
            except KeyError as error:
                raise ValueError(error.args[0]) from error


def _serving_energy_rows(
    dataset: str,
    devices: tuple[str, ...],
    num_requests: int,
    batch_size: int,
    top_k: int,
    seed: int,
    model: str = "bert-base",
) -> tuple[list[dict], float | None]:
    """Per-device serving energy through the unified Device API.

    Each listed device is instantiated at the dataset's operating point and
    the fleet drains the same closed-loop request stream under round-robin
    routing (equal traffic per device), so joules-per-request compare
    like-for-like across cycle-accurate and analytical backends.  ``top_k``
    reaches the devices that take a Top-k budget, keeping the serving
    section at the same operating point as the main table rows.

    Returns the per-device rows plus the fleet-total joules
    (``OnlineServingReport.total_energy_joules``); the rows sum to the
    total exactly, which the heterogeneous-fleet regression tests assert.
    """
    fleet = build_fleet(devices, model=model, dataset=dataset, top_k=top_k)
    report = simulate_online(
        fleet,
        dataset,
        arrivals=ClosedLoopArrivals(sort_by_length=True),
        num_requests=num_requests,
        batch_policy=FixedSizeBatcher(batch_size=batch_size),
        router=RoundRobinRouter(),
        seed=seed,
    )
    rows = []
    for summary in report.devices:
        energy = summary.energy_joules
        rows.append(
            {
                "device": summary.accelerator,
                "backend": summary.backend,
                "requests": summary.num_requests,
                "busy_seconds": round(summary.busy_seconds, 4),
                "energy_joules": round(energy, 3) if energy is not None else None,
                "mj_per_request": (
                    round(energy / summary.num_requests * 1e3, 2)
                    if energy is not None and summary.num_requests
                    else None
                ),
            }
        )
    return rows, report.total_energy_joules


def _table2_impl(
    accuracy_drop_ours: float = 1.8,
    accuracy_drop_gpu: float = 1.8,
    serving_dataset: str | None = None,
    serving_devices: tuple[str, ...] = ("sparse-fpga", "gpu-rtx6000"),
    serving_requests: int = 96,
    **fig7_kwargs,
) -> Table2Result:
    """Regenerate Table 2 on the end-to-end Fig. 7 workloads.

    The accuracy drops default to the paper's reported averages; callers
    that also ran the Fig. 6 sweep can substitute their measured drops.
    ``serving_dataset`` additionally runs the device-level serving-energy
    comparison (see :func:`_serving_energy_rows`).
    """
    fig7 = _fig7_impl(panel="end_to_end", **fig7_kwargs)

    # The paper's "equivalent hardware throughput" counts the dense, padded
    # work a conventional platform would have executed for the same batch,
    # divided by the proposed design's latency -- i.e. the work the design
    # *avoided* still counts toward its throughput.  The padded dense work is
    # exactly what the GPU baseline executes, so it is taken from that row.
    ours_latency = float(np.sum([w.proposed.latency_seconds for w in fig7.workloads]))
    ours_equivalent_ops = float(
        np.sum([w.baselines["rtx6000"].executed_ops for w in fig7.workloads])
    )
    ours_power = fig7.workloads[0].proposed.power_watts
    ours = energy_report_from_result(
        type(fig7.workloads[0].proposed)(
            platform="Ours FPGA",
            latency_seconds=ours_latency,
            useful_ops=ours_equivalent_ops,
            executed_ops=float(np.sum([w.proposed.executed_ops for w in fig7.workloads])),
            power_watts=ours_power,
        ),
        accuracy_drop_percent=accuracy_drop_ours,
    )

    # The GPU row reports the throughput the GPU itself sustains on its
    # (padded, dense) workload -- the convention of the paper's Table 2.
    gpu_latency = float(np.sum([w.baselines["rtx6000"].latency_seconds for w in fig7.workloads]))
    gpu_power = fig7.workloads[0].baselines["rtx6000"].power_watts
    gpu = energy_report_from_result(
        type(fig7.workloads[0].proposed)(
            platform="GPU RTX 6000",
            latency_seconds=gpu_latency,
            useful_ops=float(np.sum([w.baselines["rtx6000"].useful_ops for w in fig7.workloads])),
            executed_ops=float(
                np.sum([w.baselines["rtx6000"].executed_ops for w in fig7.workloads])
            ),
            power_watts=gpu_power,
        ),
        accuracy_drop_percent=accuracy_drop_gpu,
        use_useful_ops=False,
    )

    rows = [gpu, ours] + list(LITERATURE_TABLE2_ROWS)
    serving: list[dict] = []
    serving_total: float | None = None
    if serving_dataset is not None:
        serving, serving_total = _serving_energy_rows(
            dataset=serving_dataset,
            devices=serving_devices,
            num_requests=serving_requests,
            batch_size=fig7_kwargs.get("batch_size", global_config.DEFAULT_BATCH_SIZE),
            top_k=fig7_kwargs.get("top_k", global_config.DEFAULT_TOP_K),
            seed=fig7_kwargs.get("seed", global_config.DEFAULT_SEED),
        )
    return Table2Result(
        rows=rows,
        fig7=fig7,
        serving=serving,
        serving_total_energy_joules=serving_total,
    )


def _run_spec(config: Table2Config) -> Table2Result:
    return _table2_impl(
        accuracy_drop_ours=config.accuracy_drop_ours,
        accuracy_drop_gpu=config.accuracy_drop_gpu,
        serving_dataset=config.serving_dataset,
        serving_devices=config.serving_devices,
        serving_requests=config.serving_requests,
        batch_size=config.batch_size,
        top_k=config.top_k,
        seed=config.seed,
    )


def _render(result: Table2Result) -> str:
    text = format_table(result.as_rows(), title="Table 2 - throughput & energy efficiency")
    if result.serving:
        text += format_table(
            result.serving, title="Device-level serving energy (equal traffic per device)"
        )
        if result.serving_total_energy_joules is not None:
            text += f"fleet total: {result.serving_total_energy_joules:.3f} J\n"
    return text


SPEC = register_experiment(
    ExperimentSpec(
        name="table2",
        title="Table 2 - throughput & energy efficiency",
        description="energy-efficiency comparison",
        config_cls=Table2Config,
        run=_run_spec,
        render=_render,
        order=70,
        include_in_all=True,
    )
)

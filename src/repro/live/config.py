"""``repro live`` as a config: the flags, checks and engine options of the gateway.

A server, not an experiment: not registered and without ``--config`` /
``--set``, but its flags are generated from :class:`LiveConfig` like every
experiment's, and :meth:`LiveConfig.options` uses the configs' ms builders.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..devices import Device, build_fleet
from ..evaluation.serving_sweep import formation_from_ms, slo_spec_from_ms
from ..experiments.config import ExperimentConfig, cfg_field
from ..serving import ServingOptions

__all__ = ["LiveConfig"]

#: What a ``--validate`` run reads; it replays a checked-in scenario with
#: that scenario's own fleet and options, so it reads no other field, and a
#: server run reads none of these.
_VALIDATION_FIELDS = ("validation", "scenario", "tolerance")


@dataclass(frozen=True)
class LiveConfig(ExperimentConfig):
    """Serve the simulator's policies over HTTP, or validate the gateway against it."""

    host: str = cfg_field("127.0.0.1", help="bind address")
    port: int = cfg_field(8100, help="bind port; 0 picks an ephemeral port")
    dataset: str = cfg_field("mrpc", help="dataset whose statistics prepare the policies")
    devices: tuple[str, ...] = cfg_field(("gpu-rtx6000",), help="catalog device fleet")
    batch_policy: str = "timeout"
    batch_size: int = 16
    timeout_ms: float = 50.0
    routing: str = "least-loaded"
    max_queue_depth: int | None = None
    slo_ms: float | None = None
    shed_on_predicted_miss: bool = False
    continuous_batching: bool = False
    validation: bool = cfg_field(
        False,
        flag="--validate",
        help="replay the checked-in trace through the simulator and a loopback gateway",
    )
    scenario: str = cfg_field(
        "steady", choices=("steady", "crash"), help="validation scenario (crash: worker crash)"
    )
    tolerance: float = cfg_field(0.02, help="relative tolerance of the validation rates")

    def validate(self) -> None:
        # A flag the mode would silently ignore is refused by name.
        ignored = ", ".join(
            "--" + f.name.replace("_", "-")
            for f in dataclasses.fields(self)
            if getattr(self, f.name) != f.default
            and (f.name in _VALIDATION_FIELDS) != self.validation
        )
        if ignored and self.validation:
            raise ValueError(
                "--validate replays the checked-in scenario with its own fleet "
                f"and options; it does not take {ignored}"
            )
        if ignored:
            raise ValueError(f"{ignored}: only read with --validate")
        if not self.validation:
            # Built before the generic checks, so a bad serving flag reports
            # the component's own message (a NaN SLO names the spec's field).
            self.options()
        super().validate()
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")

    def options(self) -> ServingOptions:
        """The gateway's engine options."""
        return ServingOptions(
            **formation_from_ms(
                self.batch_policy,
                self.routing,
                batch_size=self.batch_size,
                timeout_ms=self.timeout_ms,
            ),
            max_queue_depth=self.max_queue_depth,
            slo=slo_spec_from_ms(self.slo_ms),
            shed_on_predicted_miss=self.shed_on_predicted_miss,
            continuous_batching=self.continuous_batching,
        )

    def fleet(self) -> list[Device]:
        return build_fleet(self.devices, dataset=self.dataset)

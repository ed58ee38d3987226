"""Run every experiment and collect the rendered reports.

`run_all_experiments` is the programmatic equivalent of running the whole
benchmark suite: it iterates the experiment registry (every spec flagged
``include_in_all``, i.e. the paper's tables and figures), renders each
result, optionally writes one file per experiment to an output directory,
and returns everything in a dictionary so notebooks or downstream tooling
can post-process the results.  Each report also carries the experiment's
machine-readable ``payload`` (config + ``result.to_dict()``).
"""

from __future__ import annotations

import json
from pathlib import Path

from ..experiments import ExperimentReport, list_experiments, run_report
from .fan_out import fan_out

__all__ = ["ExperimentReport", "run_all_experiments"]


def run_all_experiments(
    output_dir: str | Path | None = None,
    include_fig6: bool = False,
    fig6_examples: int = 4,
    fig6_max_length: int = 80,
    write_json: bool = False,
    jobs: int = 1,
) -> dict[str, ExperimentReport]:
    """Run every registered paper experiment and return the reports by name.

    Parameters
    ----------
    output_dir:
        When given, each rendered report is also written to
        ``<output_dir>/<name>.txt`` (plus ``<name>.json`` with
        ``write_json``).
    include_fig6:
        The Fig. 6 accuracy sweep runs real NumPy forward passes and takes
        tens of seconds; it is opt-in.
    jobs:
        Worker processes to fan the experiments across (each experiment is
        deterministic given its config, so the reports -- result objects
        included -- and files are identical to a serial run).
    """
    # list_experiments() is sorted by spec.order, which already slots fig6
    # between fig5 and fig7a.
    names = [
        spec.name
        for spec in list_experiments()
        if spec.include_in_all or (include_fig6 and spec.name == "fig6")
    ]
    configs: dict[str, dict | None] = {
        name: (
            {"examples": fig6_examples, "max_length": fig6_max_length}
            if name == "fig6"
            else None
        )
        for name in names
    }

    with fan_out(jobs) as run:
        reports = run(run_report, [(name, configs[name]) for name in names])
    collected = dict(zip(names, reports))

    if output_dir is not None:
        directory = Path(output_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for report in collected.values():
            (directory / f"{report.name}.txt").write_text(report.text)
            if write_json:
                (directory / f"{report.name}.json").write_text(
                    json.dumps(report.payload, indent=2) + "\n"
                )
    return collected

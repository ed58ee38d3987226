"""Length-aware dynamic pipelining on the Fig. 5 example batch.

Schedules the paper's worked example (five sequences, lengths 140/100/82/78/72,
two encoder layers) through the three coarse-grained stages with the proposed
length-aware scheduler, a padded scheduler and a non-pipelined scheduler, then
renders an ASCII Gantt chart of the length-aware timing diagram -- the
reproduction of Fig. 5(a).

Run with:  python examples/length_aware_pipeline.py
"""

from __future__ import annotations

from repro.evaluation.report import format_key_values, format_table
from repro.experiments import run_experiment
from repro.scheduling import ScheduleResult


def render_gantt(result: ScheduleResult, width: int = 100) -> str:
    """Render a coarse ASCII Gantt chart (one row per stage) of a schedule."""
    makespan = result.makespan_cycles
    scale = width / makespan
    lines = []
    for stage in result.timeline.stage_names():
        row = [" "] * width
        for event in result.timeline.events_for_stage(stage):
            start = int(event.start * scale)
            end = max(int(event.end * scale), start + 1)
            label = str(event.sequence_id)
            for position in range(start, min(end, width)):
                row[position] = label
        lines.append(f"{stage:<10} |{''.join(row)}|")
    lines.append(f"{'':<10}  0 {'cycles':^{width - 10}} {makespan}")
    return "\n".join(lines)


def main() -> None:
    result = run_experiment("fig5")

    print(format_table(result.as_rows(), title="Fig. 5 - schedulers compared on the example batch"))
    print(
        format_key_values(
            {
                "batch (sorted by decreasing length)": result.lengths,
                "saved vs no pipelining (cycles)": result.saved_cycles_vs_sequential,
                "saved vs padding (cycles)": result.saved_cycles_vs_padded,
                "length-aware stage utilization": round(
                    result.length_aware.average_utilization, 3
                ),
            },
            title="Length-aware dynamic pipeline summary",
        )
    )
    print("Length-aware timing diagram (digits are sequence ids, stages run top to bottom):\n")
    print(render_gantt(result.length_aware))
    print("\nPadded (TensorRT-style) timing diagram for comparison:\n")
    print(render_gantt(result.padded))


if __name__ == "__main__":
    main()

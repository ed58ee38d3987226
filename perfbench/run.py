"""Host-speed benchmark of the serving simulator, with per-layer attribution.

    python3 perfbench/run.py --workload plain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

A run simulates the workload with ``SUB_SEEDS`` seeds derived from
``--seed``, one after the other, and repeats that cycle as often as fits in
``--seconds`` (at least twice); each repeat is a fresh process
(``child.py``) with ``REPRO_*`` variables cleared.  Averaging over several
seeds keeps one seed's unusually heavy or light traffic from moving the
result.  ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
the median over the repeats for set-up time and memory, and the median over
the seeds of each seed's throughput (from the median host time of its
repeats) and simulated outcomes.  ``--trace 1`` alternates untraced and
traced repeats of the first seed and reports the per-layer metrics; the
traced repeats wrap each layer's public functions from ``tracing.py``, and
the difference in host time between the two kinds is the tracing overhead.

Every repeat is checked: it must exit cleanly, conserve requests (completed +
shed == offered, in total and per class), produce the same digest of
``report.to_dict()`` as the other repeats of its seed and, when traced, call
every layer the workload loads and none that it bypasses.  A repeat failing
any check counts as failed.  Host times are CPU seconds of the repeat's
single-threaded process, less the time spent sampling the CPU's speed, and
scaled to a CPU of reference speed by those samples (``speed.py``), so the
swings of a shared host's speed cancel out; the unscaled throughput and the
median probe time are per-layer metrics.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a schema-2 record with medians and quartiles, and the timings
of every repeat, is written under ``.perfbench_out/``.
Without the program's sources (``src/repro``) the run exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"

#: Simulation seeds per run, each simulated in turn (``sub_seeds``).
SUB_SEEDS = 4
#: Fewest passes over the run's seeds (the digest check needs two).
MIN_CYCLES = 2
#: A run launches no repeat that could end after this many seconds.
RUN_CEILING_S = 165.0


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _child_env() -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    # One thread, so the process's CPU time is its host time.
    for threads in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[threads] = "1"
    return env


def _child(args: list[str], timeout: float) -> dict:
    """Run ``child.py`` once; its last output line, or an ``error`` entry."""
    command = [sys.executable, str(BENCH / "child.py"), *args]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"repeat exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    if proc.returncode != 0 and "error" not in result:
        result["error"] = f"exit {proc.returncode}"
    return result


def _check_program() -> str | None:
    """Why the program cannot run from this checkout, or None."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no repro package under {ROOT / 'src'}"
    probe = _child(["--workload", "-", "--seed", "0", "--import-only"], timeout=60)
    if "error" in probe:
        return f"importing repro failed: {probe['error']}"
    if not Path(probe["repro"]).resolve().is_relative_to(ROOT / "src"):
        return f"repro imported from {probe['repro']}, not from this checkout"
    return None


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _summary(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def sub_seeds(seed: int, trace: bool) -> list[int]:
    """The simulation seeds of one run: ``SUB_SEEDS`` consecutive ones per
    ``--seed``, so runs of different seeds share none; a traced run uses the
    first only."""
    seeds = [SUB_SEEDS * seed + i for i in range(SUB_SEEDS)]
    return seeds[:1] if trace else seeds


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Repeat the run's seeded simulations; return the checked, summarised run."""
    seeds = sub_seeds(seed, trace)
    kinds = [False, True] if trace else [False]
    cycle = [(s, traced) for s in seeds for traced in kinds]
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}.npz"
    repeats: list[dict] = []
    #: Wall seconds the latest repeat of each cycle entry took.
    took: dict[tuple[int, bool], float] = {}
    start = time.monotonic()
    while True:
        sim_seed, traced = cycle[len(repeats) % len(cycle)]
        elapsed = time.monotonic() - start
        if repeats and elapsed + max(took.values()) > RUN_CEILING_S:
            break
        # Stop after whole cycles once the next cycle would overrun the run.
        if (
            len(repeats) >= MIN_CYCLES * len(cycle)
            and len(repeats) % len(cycle) == 0
            and elapsed + sum(took.values()) > seconds
        ):
            break
        args = ["--workload", workload, "--seed", str(sim_seed)]
        if traced:
            args += ["--trace", "--spans", str(spans)]
        began = time.monotonic()
        result = _child(args, timeout=max(RUN_CEILING_S - elapsed, 1.0))
        took[sim_seed, traced] = time.monotonic() - began
        result["seed"], result["traced"] = sim_seed, traced
        repeats.append(result)

    failures = [r["error"] for r in repeats if "error" in r]
    ok = [r for r in repeats if "error" not in r]
    failures += [r["check_error"] for r in ok if r["check_error"]]
    ok = [r for r in ok if not r["check_error"]]
    # Every repeat of one seed must give that seed's one report.
    digests: dict[int, str] = {}
    canonical: dict[int, dict] = {}
    for s in seeds:
        runs = [r for r in ok if r["seed"] == s]
        if not runs:
            continue
        digests[s] = Counter(r["digest"] for r in runs).most_common(1)[0][0]
        canonical[s] = next(r for r in runs if r["digest"] == digests[s])
    for r in ok:
        if r["digest"] != digests[r["seed"]] or r["sim"] != canonical[r["seed"]]["sim"]:
            failures.append(f"seed {r['seed']}: repeat digest {r['digest'][:16]} "
                            f"!= {digests[r['seed']][:16]}")
    ok = [r for r in ok if r["digest"] == digests[r["seed"]]
          and r["sim"] == canonical[r["seed"]]["sim"]]

    plain = [r for r in ok if not r["traced"]]
    traced_runs = [r for r in ok if r["traced"]]
    samples: dict[str, list[float]] = {}
    if plain:
        # Host seconds on the reference CPU: CPU seconds times the speed of
        # this CPU relative to it, sampled while each phase ran (speed.py).
        samples["setup_s"] = [r["setup_s"] * r["setup_scale"] for r in plain]
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in plain]
        samples["host.probe_s"] = [r["probe_s"] for r in plain]
        # Throughput once per seed, from the median host time of its repeats.
        per_seed = [[r for r in plain if r["seed"] == s] for s in seeds]
        per_seed = [runs for runs in per_seed if runs]
        samples["host.raw_req_per_s"] = [
            runs[0]["requests"] / statistics.median(r["host_s"] for r in runs)
            for runs in per_seed
        ]
        samples["sim_req_per_s"] = [
            runs[0]["requests"] / statistics.median(r["host_s"] * r["host_scale"] for r in runs)
            for runs in per_seed
        ]
    for first in canonical.values():
        for name, value in first["sim"].items():
            samples.setdefault(name, []).append(value)
    if traced_runs:
        for name in traced_runs[0]["layers"]:
            samples[name] = [r["layers"][name] for r in traced_runs]
        if plain:
            traced_s = statistics.median(r["host_s"] for r in traced_runs)
            plain_s = statistics.median(r["host_s"] for r in plain)
            samples["trace.overhead_pct"] = [100.0 * (traced_s / plain_s - 1.0)]
    first = next(iter(canonical.values()), None)
    return {
        "schema": 2,
        "workload": workload,
        "seed": seed,
        "sim_seeds": seeds,
        "trace": int(trace),
        "seconds": seconds,
        "git_sha": _git_sha(),
        "python": first["python"] if first else platform.python_version(),
        "numpy": first["numpy"] if first else None,
        "cpu_count": os.cpu_count(),
        "digests": {str(s): d for s, d in digests.items()},
        "attempted": len(repeats),
        "failed": len(repeats) - len(ok),
        "failures": failures,
        "summary": {name: _summary(values) for name, values in samples.items()},
        "repeats": [
            {key: r[key] for key in ("seed", "traced", "setup_s", "host_s", "setup_scale",
                                     "host_scale", "probes", "probe_s")}
            for r in ok
        ],
    }


def _metrics(run: dict, entries: list[dict]) -> dict:
    summary = run["summary"]
    return {
        entry["name"]: {"value": summary[entry["name"]]["median"], "unit": entry["unit"]}
        for entry in entries
        if entry["name"] in summary
    }


def _print_table(run: dict, entries: list[dict]) -> None:
    print(f"== {run['workload']}  seed {run['seed']}  trace {run['trace']}  "
          f"repeats {run['attempted']} (failed {run['failed']})")
    for sim_seed, digest in run["digests"].items():
        print(f"  digest of seed {sim_seed}: {digest}")
    for entry in entries:
        stats = run["summary"].get(entry["name"])
        if stats is None:
            print(f"  {entry['name']:<28} {'n/a':>14}")
            continue
        spread = ""
        if stats["n"] > 1:
            spread = f"  [q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n {stats['n']}]"
        print(f"  {entry['name']:<28} {stats['median']:>14.6g} {entry['unit']:<6}{spread}")
    for failure in run["failures"]:
        print(f"  FAILED: {failure.splitlines()[-1] if failure else failure}")


def _terminate(signum: int, frame) -> None:
    # Unwinding through subprocess.run kills and reaps the running repeat.
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    problem = _check_program()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    workloads = names if args.workload == "all" else [args.workload]
    traces = (False, True) if args.workload == "all" else (bool(args.trace),)
    runs = [
        run_workload(name, args.seed, args.seconds, trace)
        for name in workloads
        for trace in traces
    ]

    attempted = failed = 0
    metrics = {}
    for run in runs:
        entries = spec["per_layer"] if run["trace"] else spec["end_to_end"]
        _print_table(run, entries)
        record = OUT / f"{run['workload']}-seed{run['seed']}-trace{run['trace']}.json"
        record.write_text(json.dumps(run, indent=1) + "\n")
        attempted += run["attempted"]
        failed += run["failed"]
        prefix = f"{run['workload']}:" if len(runs) > 1 else ""
        metrics.update({prefix + name: value for name, value in _metrics(run, entries).items()})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

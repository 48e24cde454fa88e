"""One benchmark process: set up a workload, then run its job as a closed loop.

``run.py`` starts this script in a fresh process for every set-up sample and
for the measured run. One caller runs one operation at a time; the next
starts only after the previous one has returned and been checked. The
process prints one JSON object as its last line of standard output.

With ``--role setup`` it stops once set-up is done. With ``--role measure``
it repeats the workload's fixed job for ``--seconds`` and keeps every time
of every operation. An operation's time is its typical one: the mean of its
times after the slowest fifth is dropped. A machine whose cores are shared
with other tenants changes speed by up to a half, in phases of seconds to
minutes, so every end-to-end time is then scaled to the reference host by
the host speed gauge of ``hostspeed.py``, whose probes run between the
operations of the same process.

With ``--trace 1`` untraced and traced passes alternate, the per-layer
metrics are totals per traced pass, and the tracing overhead compares the
typical traced with the typical untraced time of every operation.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import opquery as oq  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_REPORTED_FAILURES = 5
# probes right after set-up, to scale the set-up time
SETUP_PROBES = 15

RECOVERY_LAYERS = tuple(name for name in tracing.LAYERS if name.startswith("recovery."))

END_TO_END_UNITS = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "queries_per_op": "count",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units: dict[str, str] = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        if layer in RECOVERY_LAYERS:
            units[f"{layer}.queries"] = "count"
            units[f"{layer}.budget_use"] = "ratio"
    units["treesearch.candidates"] = "count"
    units["treesearch.depth"] = "count"
    units["mix.ring_frac"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


def tail(sorted_values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest rank with >= 10 samples beyond it.

    With too few samples for that rank to sit at or above the median, the
    maximum is reported with no samples beyond it.
    """
    n = len(sorted_values)
    k = n - 11
    if k < n // 2:
        k = n - 1
    return sorted_values[k], 100.0 * (k + 1) / n, n - 1 - k


def _observers() -> dict:
    def recovery(args, result):
        return (result.queries_used, result.table.n)

    def search(args, result):
        return (len(args[0]), result[0])

    obs = {name: recovery for name in RECOVERY_LAYERS}
    obs["treesearch.minimal_worst_case"] = search
    return obs


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def run(self, workload, op):
        """Run one operation and return its query count; a failure is counted and reported, never raised."""
        self.attempted += 1
        try:
            return workload.run(op)
        except Exception:  # every failure counts, and the loop goes on
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"{op.label} seed {op.seed}:\n{traceback.format_exc()}")
            return None


def run_passes(workload, seconds: float, tracer, tally: Tally, gauge: hostspeed.Gauge | None = None) -> dict:
    """Repeat the workload's job for ``seconds``; every other pass is traced when a tracer is given.

    ``times`` and ``traced_times`` hold every untraced and traced time of
    each operation, ``queries`` the query count of its first verified run. A
    gauge probes the host between operations.
    """
    job = workload.make_job()
    times = [array("d") for _ in job]
    traced_times = [array("d") for _ in job]
    queries: list = [None] * len(job)
    passes = traced_passes = 0
    clock = time.perf_counter
    deadline = clock() + seconds
    # every run makes one untraced pass, and a traced run one of each kind to compare them
    while clock() < deadline or not passes or (tracer is not None and not traced_passes):
        traced = tracer is not None and passes > traced_passes
        if traced:
            if tracer.full:
                break
            tracer.install(_observers(), [(layer, workload, attr) for layer, attr in workload.ITERATORS])
        samples = traced_times if traced else times
        try:
            for i, op in enumerate(job):
                if tracer is not None:
                    tracer.op = tally.attempted
                t0 = clock()
                q = tally.run(workload, op)
                samples[i].append(clock() - t0)
                if queries[i] is None:
                    queries[i] = q
                if gauge is not None:
                    gauge.tick()
        finally:
            if traced:
                tracer.restore()
        if traced:
            traced_passes += 1
        else:
            passes += 1
    return {
        "job": job,
        "typical": [hostspeed.typical(t) for t in times],
        "traced_typical": [hostspeed.typical(t) for t in traced_times] if traced_passes else [],
        "queries": [q for q in queries if q is not None],
        "passes": passes,
        "traced_passes": traced_passes,
    }


def end_to_end(run: dict, tally: Tally, scale: float) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run, and notes that qualify them.

    Times are multiplied by ``scale``, the gauge's factor to reference-host time.
    """
    per_op = sorted(t * scale for t in run["typical"])
    wall = sum(per_op)
    tail_s, tail_pct, beyond = tail(per_op)
    values = {
        "wall_s": wall,
        "ops_per_s": len(per_op) / wall,
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_tail_ms": 1e3 * tail_s,
        "queries_per_op": statistics.fmean(run["queries"]) if run["queries"] else 0.0,
        "failed_frac": tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "wall_s": f"job of {len(per_op)} operations, each at its typical time; {run['passes']} passes; measured {wall / scale:.6g} s, host scale {scale:.4g}",
        "op_tail_ms": f"p{tail_pct:.6g}, {beyond} of {len(per_op)} operations beyond",
        "failed_frac": f"{tally.failed} of {tally.attempted} timed operations",
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, notes


def per_layer(run: dict, tracer: tracing.Tracer) -> dict:
    passes = run["traced_passes"]
    out: dict[str, float] = {}
    for layer, (calls, self_s) in tracer.layer_totals().items():
        out[f"{layer}.calls"] = calls / passes
        out[f"{layer}.self_s"] = self_s / passes
    for layer in RECOVERY_LAYERS:
        obs = tracer.observations.get(layer, [])
        method = layer.split(".", 1)[1]
        out[f"{layer}.queries"] = sum(q for q, _ in obs) / passes
        # a one-element max chain has budget 0 and needs no query; it has no ratio
        uses = [q / b for q, n in obs if (b := oq.query_budget(method, n)) > 0]
        out[f"{layer}.budget_use"] = sum(uses) / len(uses) if uses else 0.0
    searches = tracer.observations.get("treesearch.minimal_worst_case", [])
    out["treesearch.candidates"] = sum(m for m, _ in searches) / passes
    out["treesearch.depth"] = sum(d for _, d in searches) / len(searches) if searches else 0.0
    wall = sum(run["typical"])
    out["mix.ring_frac"] = sum(t for op, t in zip(run["job"], run["typical"]) if op.ring) / wall
    out["trace.overhead_frac"] = sum(run["traced_typical"]) / wall - 1.0
    return {k: {"value": out[k], "unit": unit} for k, unit in per_layer_units().items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC reading taken just before this process was started")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    if not Path(oq.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"opquery was imported from {oq.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    warm = Tally()  # warm-up operations count as attempted but stay out of the timed metrics
    for op in workload.setup():
        warm.run(workload, op)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    setup_gauge = hostspeed.Gauge()
    setup_gauge.sample(SETUP_PROBES)
    setup_s *= setup_gauge.scale()
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    tally = Tally()
    gauge = hostspeed.Gauge()
    run = run_passes(workload, args.seconds, tracer, tally, gauge)
    for msg in warm.failures + tally.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    attempted, failed = warm.attempted + tally.attempted, warm.failed + tally.failed
    result = {"setup_s": setup_s, "attempted": attempted, "failed": failed, "notes": {}}
    if tracer is None:
        result["metrics"], result["notes"] = end_to_end(run, tally, gauge.scale())
    else:
        result["metrics"] = per_layer(run, tracer)
        result["notes"]["trace.overhead_frac"] = f"{run['traced_passes']} traced, {run['passes']} untraced passes"
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

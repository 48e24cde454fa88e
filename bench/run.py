"""opquery benchmark: one workload, one seed, every metric by name and unit.

    python3 bench/run.py --workload small_tables --seed 1 --seconds 30 --trace 0

Workloads are ``small_tables``, ``large_tables`` and ``exact_search``; see
``bench/README.md`` for what each one runs and why. Every operation checks
the program's output, and the command exits with status 1 if any failed.

With ``--trace 0`` the end-to-end metrics come from one measured process,
and set-up time is the median over eleven fresh processes. Every time is
scaled to the reference host by the probe of ``hostspeed.py``. With
``--trace 1`` one process alternates untraced and traced passes over the
job and the per-layer metrics come from the traced ones; spans go to
``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Processes run one at
a time, each single threaded.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small_tables", "large_tables", "exact_search")
# Set-up is timed in fresh processes, from start to the end of set-up: this
# many before the measured process and as many after it, plus the measured
# one. Spreading them over the run keeps one slow moment of a shared machine
# from setting the median.
SETUP_SAMPLES_EACH_SIDE = 5
CHILD_TIMEOUT_S = 170.0
# failures are reported through "failed" and "attempted"; the ratio is printed only
PRINT_ONLY = ("failed_frac",)


class ChildFailed(Exception):
    pass


def _child(args, role: str) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role]
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{role} process ran past {CHILD_TIMEOUT_S:g} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{role} process exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="a few operations per job, for the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "opquery" / "__init__.py").is_file():
        print(f"no opquery sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    try:
        if args.trace:
            result = _child(args, "measure")
        else:
            setup = [_child(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES_EACH_SIDE)]
            result = _child(args, "measure")
            setup += [_child(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES_EACH_SIDE)]
            setup.append(result["setup_s"])
            result["metrics"] = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **result["metrics"]}
            result["notes"]["setup_s"] = f"median of {len(setup)} process starts"
    except (ChildFailed, ValueError, KeyError) as exc:
        print(f"benchmark process failed: {exc}", file=sys.stderr)
        return 2

    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']:6s} {result['notes'].get(name, '')}".rstrip())
    correct = result["failed"] == 0
    metrics = {k: v for k, v in result["metrics"].items() if k not in PRINT_ONLY}
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

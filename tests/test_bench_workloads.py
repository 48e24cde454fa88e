"""Every benchmark workload runs its tiny job here, in process, with no failed operation.

The full benchmark is ``python3 bench/run.py --workload <name>``; it starts
fresh processes and runs for seconds. This test runs the same workload
classes, the same checks and the same tracer on the tiny jobs in a fraction
of a second, so a change that breaks a workload, its checks or the tracing
of a patched callable fails the tier-1 suite.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import opquery  # noqa: E402

NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _attributes() -> dict:
    owners = [m for name, m in sys.modules.items() if name == "opquery" or name.startswith("opquery.")]
    owners += [opquery.Oracle, opquery.OpTable, opquery.RingTables]
    return {owner: dict(vars(owner)) for owner in owners}


def test_every_declared_workload_exists():
    assert NAMES and set(NAMES) == set(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_job_runs_clean_untraced_and_traced(name):
    workload = WORKLOADS[name](1, tiny=True)
    tally = worker.Tally()
    for op in workload.setup():
        tally.run(workload, op)
    run = worker.run_passes(workload, 0.0, None, tally)
    assert tally.failures == [] and tally.failed == 0
    assert run["passes"] == 1 and tally.attempted > len(run["job"]) > 0

    before = _attributes()
    iterators = {attr: getattr(workload, attr) for _, attr in workload.ITERATORS}
    tracer = tracing.Tracer()
    run = worker.run_passes(workload, 0.0, tracer, tally)
    assert tally.failures == [] and tally.failed == 0
    assert run["traced_passes"] == 1
    calls = {layer: c for layer, (c, _) in tracer.layer_totals().items() if c}
    assert calls, "the traced pass recorded no spans"
    if name != "exact_search":
        assert calls["oracle.query"] > 0 and calls["oracle.verify_recovery"] > 0
    after = _attributes()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        assert [key for key, value in attrs.items() if after[owner][key] is not value] == [], owner
    for attr, original in iterators.items():
        assert getattr(workload, attr) is original

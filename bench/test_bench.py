"""Smoke test of the benchmark itself: every workload at a tiny size.

    python -m pytest bench/test_bench.py

Each workload runs once untraced and once traced through ``run.py``; every
metric named in ``BENCHMARK.json`` must be printed and no operation may fail.
A traced run in this process checks that tracing puts every patched
attribute back.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402  (puts the sources on sys.path)
from workloads import WORKLOADS  # noqa: E402

import opquery  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--seed", "5", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_and_no_operation_fails(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    printed = {line.split()[0]: line.split()[1:3] for line in lines[1:-1]}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]][1] == m["unit"]
    if not trace:
        assert float(printed["failed_frac"][0]) == 0.0


def _attributes() -> dict:
    owners = [m for name, m in sys.modules.items() if name == "opquery" or name.startswith("opquery.")]
    owners += [opquery.Oracle, opquery.OpTable, opquery.RingTables]
    return {owner: dict(vars(owner)) for owner in owners}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_restores_every_patched_attribute(name):
    workload = WORKLOADS[name](5, tiny=True)
    tally = worker.Tally()
    for op in workload.setup():
        tally.run(workload, op)
    assert tally.failed == 0
    before = _attributes()
    iterators = {attr: getattr(workload, attr) for _, attr in workload.ITERATORS}
    tracer = tracing.Tracer()
    run = worker.run_passes(workload, 0.0, tracer, tally)
    assert tally.failed == 0 and run["traced_passes"] == 1
    assert tracer.spans, "the traced pass recorded no spans"
    after = _attributes()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        changed = [key for key, value in attrs.items() if after[owner][key] is not value]
        assert not changed, (owner, changed)
    for attr, original in iterators.items():
        assert getattr(workload, attr) is original


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")

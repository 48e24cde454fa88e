"""Command line behavior: outputs, formats, and exit codes."""

import csv
import json
import os
import subprocess
import sys

import pytest

import opquery
from opquery.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_instance(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    code, _, _ = run(capsys, "gen", "--abelian", "2,4", "--seed", "3", "--out", path)
    assert code == 0
    d = json.loads(open(path).read())
    assert d["seed"] == 3
    assert len(d["perm"]) == 8


def test_gen_stdout(capsys):
    code, out, _ = run(capsys, "gen", "--maxchain", "4", "--seed", "1")
    assert code == 0
    assert json.loads(out)["spec"]["kind"] == "maxchain"


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run(capsys, "gen", "--ring", "gf8", "--seed", "5", "--out", a)
    run(capsys, "gen", "--ring", "gf8", "--seed", "5", "--out", b)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_recover_from_file(tmp_path, capsys):
    inst = str(tmp_path / "inst.json")
    out = str(tmp_path / "res.json")
    run(capsys, "gen", "--abelian", "11", "--seed", "0", "--out", inst)
    code, _, _ = run(capsys, "recover", "--in", inst, "--method", "eleven8", "--out", out)
    assert code == 0
    d = json.loads(open(out).read())
    assert d["ok"] and d["queries_used"] == 8 and d["budget"] == 8


def test_recover_inline_spec_defaults_method(capsys):
    code, out, _ = run(capsys, "recover", "--abelian", "4", "--seed", "2")
    assert code == 0
    d = json.loads(out)
    assert d["method"] == "abelian" and d["queries_used"] == 4


def test_recover_ring(capsys):
    code, out, _ = run(capsys, "recover", "--ring", "gf9", "--seed", "1", "--method", "ringfull")
    assert code == 0
    d = json.loads(out)
    assert d["ok"] and d["queries_used"] <= d["budget"]
    assert set(d["result"]) == {"add", "mul"}


def test_recover_writes_trace(tmp_path, capsys):
    trace = str(tmp_path / "t.jsonl")
    code, _, _ = run(capsys, "recover", "--abelian", "6", "--seed", "0", "--trace", trace, "--out", str(tmp_path / "r.json"))
    assert code == 0
    lines = [json.loads(l) for l in open(trace).read().strip().split("\n")]
    assert len(lines) == 6
    assert set(lines[0]) == {"x", "y", "z"}


def test_recover_method_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "recover", "--abelian", "4", "--method", "maxchain")
    assert code == 2
    assert "does not apply" in err


def test_recover_prime_on_composite_is_usage_error(capsys):
    code, _, _ = run(capsys, "recover", "--abelian", "6", "--method", "prime")
    assert code == 2


@pytest.mark.parametrize(
    "content",
    [
        '{"kind": "groupoid", "seed": 0, "perm": [0]}',  # no spec
        "not json at all",
        '[1, 2, 3]',
        '{"spec": {"kind": "abelian", "factors": "x"}, "seed": 0, "perm": [0], "canonical": {"n": 1, "table": [[0]]}}',
        # Z_2 stored under a max-chain spec
        '{"spec": {"kind": "maxchain", "n": 2}, "seed": 0, "perm": [0, 1], "canonical": {"n": 2, "table": [[0, 1], [1, 0]]}}',
        '{"kind": "ring", "spec": {"kind": "maxchain", "n": 1}, "seed": 0, "perm": [0], "canonical": {"n": 1, "add": [[0]], "mul": [[0]]}}',
    ],
)
def test_recover_malformed_instance_file_is_usage_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    code, _, err = run(capsys, "recover", "--in", str(path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_recover_missing_instance_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "recover", "--in", str(tmp_path / "missing.json"))
    assert code == 2
    assert "No such file" in err and err.count("\n") == 1


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--abelian", "11")
    assert code == 0
    d = json.loads(out)
    assert d["x_size"] == 3991680


def test_bounds_csv(tmp_path, capsys):
    path = str(tmp_path / "b.csv")
    code, _, _ = run(capsys, "bounds", "--maxchain", "8", "--format", "csv", "--out", path)
    assert code == 0
    rows = list(csv.DictReader(open(path)))
    assert rows[0]["n"] == "8" and rows[0]["x_size"] == "40320"


def test_bounds_requires_exactly_one_spec(capsys):
    code, _, _ = run(capsys, "bounds")
    assert code == 2
    code, _, _ = run(capsys, "bounds", "--abelian", "4", "--maxchain", "3")
    assert code == 2


def test_search_tree_round_trips(tmp_path, capsys):
    path = str(tmp_path / "tree.json")
    code, _, _ = run(capsys, "search", "--group", "z4", "--out", path)
    assert code == 0
    d = json.loads(open(path).read())
    assert d["optimal_worst_case"] == 2 and d["x_size"] == 12
    assert d["tree"]["query"] is not None
    from opquery import build_abelian, enumerate_orbit, tree_from_dict, verify_query_tree

    tree = tree_from_dict(d["tree"])
    assert verify_query_tree(tree, enumerate_orbit(build_abelian([4]))).ok


def test_search_over_cap_is_capability_error(capsys):
    code, _, err = run(capsys, "search", "--group", "z30")
    assert code == 3
    assert "cap" in err


def test_search_budget_exceeded_is_capability_error(capsys):
    code, _, _ = run(capsys, "search", "--group", "z5", "--budget", "10")
    assert code == 3


def test_search_rejects_group_of_order_zero(capsys):
    code, _, err = run(capsys, "search", "--group", "z0")
    assert code == 2
    assert "n >= 1" in err


def test_sweep_into_closed_pipe_exits_quietly():
    # about 200 KB of rows, more than a pipe holds, so the writer sees EPIPE
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(opquery.__file__)))
    argv = [sys.executable, "-m", "opquery.cli", "sweep", "--maxchain-upto", "3", "--reps", "3000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline() == b"n,method,seed,queries,bound,ok\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""
    assert code == 0


def test_sweep_csv_sorted(tmp_path, capsys):
    path = str(tmp_path / "s.csv")
    code, _, _ = run(capsys, "sweep", "--abelian-upto", "6", "--reps", "2", "--out", path)
    assert code == 0
    rows = list(csv.DictReader(open(path)))
    keys = [(int(r["n"]), r["method"], int(r["seed"])) for r in rows]
    assert keys == sorted(keys)
    assert all(r["ok"] == "True" for r in rows)
    assert all(float(r["queries"]) <= float(r["bound"]) for r in rows)


def test_sweep_rings(capsys):
    code, out, _ = run(capsys, "sweep", "--rings", "z4,gf4", "--reps", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 4


def test_sweep_empty_is_usage_error(capsys):
    code, _, _ = run(capsys, "sweep")
    assert code == 2


def test_bad_spec_string_is_usage_error(capsys):
    code, _, _ = run(capsys, "gen", "--abelian", "2,x")
    assert code == 2
    code, _, _ = run(capsys, "gen", "--ring", "gf6")
    assert code == 2


def test_unknown_field_is_capability_error(capsys):
    # 11^2 is past the stored reduction polynomials
    code, _, _ = run(capsys, "gen", "--ring", "gf121")
    assert code == 3

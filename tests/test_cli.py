"""Command line behavior: outputs, formats, and exit codes."""

import csv
import hashlib
import json
import math
import os
import resource
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import opquery
from opquery.cli import build_parser, main


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


@pytest.mark.parametrize("spec", [["--maxchain", "2", "--seed", "1"], ["--ring", "z2xz2", "--seed", "4"]], ids=["maxchain", "ring"])
def test_gen_stdout_matches_out_file(tmp_path, capfdbinary, spec):
    # stdout and --out carry one serialization, byte for byte
    path = tmp_path / "inst.json"
    assert main(["gen", *spec]) == 0
    stdout = capfdbinary.readouterr().out
    assert main(["gen", *spec, "--out", str(path)]) == 0
    assert stdout == path.read_bytes()
    assert stdout.count(b"\n") == 1 and b", " not in stdout


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


def test_recover_ringmul_writes_its_multiplication_trace(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    code, out, _ = run(capsys, "recover", "--ring", "gf9", "--seed", "1", "--method", "ringmul", "--trace", str(trace))
    assert code == 0
    d = json.loads(out)
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(lines) == d["queries_used"] > 0
    table = d["result"]["table"]
    assert all(table[q["x"]][q["y"]] == q["z"] for q in lines)


def test_recover_ringfull_trace_is_usage_error(tmp_path, capsys):
    # ringfull queries two tables and a transcript line cannot say which
    trace = tmp_path / "t.jsonl"
    code, out, err = run(capsys, "recover", "--ring", "gf9", "--method", "ringfull", "--trace", str(trace))
    assert code == 2
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not trace.exists()


# sha256 prefix and length of the stdout of each command, pinned so that
# changes to the method plumbing cannot alter what the commands print
GOLDEN = [
    ("recover --abelian 2,4 --seed 3", "ab6360c047f68fbb", 1019),
    ("recover --abelian 7 --seed 1 --method prime", "e72d35fbbf690ca5", 834),
    ("recover --abelian 11 --seed 0 --method eleven8", "5339b8b3eb66f728", 1707),
    ("recover --maxchain 6 --seed 2", "fd1b4f0398774b73", 684),
    ("recover --ring gf8 --seed 1", "c4d5c4ed9a5d4e73", 2313),
    ("recover --ring z2xgf4 --seed 2 --method ringmul", "234de1bcb8197f09", 1019),
    ("sweep --abelian-upto 8 --maxchain-upto 5 --rings z4,gf4,z2xgf4 --reps 2", "e3f3599d7a41d3a5", 849),
]


@pytest.mark.parametrize("argv,digest,size", GOLDEN)
def test_golden_stdout(capsys, argv, digest, size):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest()[:16], len(data)) == (digest, size)


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
        # a fractional label is not truncated into a permutation
        '{"spec": {"kind": "maxchain", "n": 2}, "seed": 0, "perm": [1.5, 0], "canonical": {"n": 2, "table": [[0, 1], [1, 1]]}}',
        '{"spec": {"kind": "maxchain", "n": 2}, "seed": 0, "perm": 7, "canonical": {"n": 2, "table": [[0, 1], [1, 1]]}}',
    ],
)
def test_recover_malformed_instance_file_is_usage_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    code, _, err = run(capsys, "recover", "--in", str(path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [("--maxchain", "5"), ("--abelian", "11"), ("--ring", "gf4")])
def test_recover_from_file_refuses_a_spec_flag(tmp_path, capsys, flags):
    # the file names its class, so a spec flag beside it could only be ignored
    inst = str(tmp_path / "inst.json")
    run(capsys, "gen", "--abelian", "11", "--seed", "0", "--out", inst)
    code, out, err = run(capsys, "recover", "--in", inst, *flags)
    assert (code, out) == (2, "")
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


def test_bounds_counts_single_rings_from_the_name(capsys, monkeypatch):
    def refuse(spec):
        raise AssertionError(f"built the tables of {spec}")

    # every ring table is built through the one cache, and every other ring table is checked on construction
    monkeypatch.setattr(opquery.algebra, "_build_ring_cached", refuse)
    monkeypatch.setattr(opquery.algebra.RingTables, "__post_init__", refuse)
    code, out, _ = run(capsys, "bounds", "--ring", "z1000")
    assert code == 0 and json.loads(out)["x_size"] == 400  # phi(1000)
    # no polynomial ships for GF(11^2), yet its count is |GL(2, 11)| / 2
    code, out, _ = run(capsys, "bounds", "--ring", "gf121")
    assert code == 0 and json.loads(out)["x_size"] == 120 * 110 // 2
    # a product too: |Aut(Z_4 x Z_3^2)| / |Aut(Z_4 x GF(9))| = 96 / 2, and Z_3 x GF(3) has the swap
    for name, x_size in (("z4xgf9", 48), ("z3xgf3", 24)):
        code, out, _ = run(capsys, "bounds", "--ring", name)
        assert code == 0 and json.loads(out)["x_size"] == x_size


def test_bounds_has_no_cap(capsys):
    # one relabeling budget, a module constant, bounds every brute force
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--abelian", "4", "--cap", "9"])
    assert exc.value.code == 2


def test_bounds_requires_exactly_one_spec(capsys):
    code, _, _ = run(capsys, "bounds")
    assert code == 2
    code, _, _ = run(capsys, "bounds", "--abelian", "4", "--maxchain", "3")
    assert code == 2


def test_search_tree_round_trips(tmp_path, capsys):
    path = str(tmp_path / "tree.json")
    code, _, _ = run(capsys, "search", "--abelian", "4", "--out", path)
    assert code == 0
    d = json.loads(open(path).read())
    assert d["optimal_worst_case"] == 2 and d["x_size"] == 12
    assert d["tree"]["query"] is not None
    from opquery import build_abelian, enumerate_orbit, tree_from_dict, verify_query_tree

    tree = tree_from_dict(d["tree"], 4)
    assert verify_query_tree(tree, enumerate_orbit(build_abelian([4]))).ok


def test_search_stats_go_to_stderr_and_leave_stdout_alone(capsys):
    code, plain, err = run(capsys, "search", "--abelian", "6", "--budget", "360", "--render")
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "search", "--abelian", "6", "--budget", "360", "--render", "--stats")
    assert (code, out) == (0, plain)
    # the counts pinned for Z_6 in test_treesearch.py
    assert err == (
        "search stats: states=34 memo_hits=6 conjugate_hits=26 queries_scanned=43 queries_skipped=329"
        " floor_cutoffs=11 aborted=15 capped=12 settled=26 conjugate_reads=30 witness_states=16\n"
    )


# Z_3 x Z_3 has 9 points, past the brute force cap of 8; the digests are those
# of PINNED_OPTIMA in test_treesearch.py
@pytest.mark.parametrize(
    "factors, budget, optimum, digest",
    [
        ("3,3", "7560", 5, "8fbefbffbc4ab1bf62822f6bbf8fd192f37cc55805c18f96874fd20b626735ac"),
        ("2,2,2", "240", 4, "c5c406db09cef7ec376b681398a919808df9055596c0aa3ee777728bc9f70965"),
    ],
)
def test_search_by_class_spec_reproduces_pinned_optima(capsys, factors, budget, optimum, digest):
    code, out, err = run(capsys, "search", "--abelian", factors, "--budget", budget)
    assert (code, err) == (0, "")
    d = json.loads(out)
    assert (d["x_size"], d["optimal_worst_case"]) == (int(budget), optimum)
    assert hashlib.sha256(json.dumps(d["tree"], sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize("flags", [("--abelian", "4"), ("--abelian", "2,2,2"), ("--abelian", ""), ("--maxchain", "4")])
def test_search_reports_the_class_and_count_of_bounds(capsys, flags):
    code, out, _ = run(capsys, "bounds", *flags)
    assert code == 0
    rep = json.loads(out)
    code, out, _ = run(capsys, "search", *flags, "--budget", "240")
    assert code == 0
    d = json.loads(out)
    assert (d["class"], d["x_size"]) == (rep["class"], rep["x_size"])


@pytest.mark.parametrize("name", ["gf4", "z4xgf9"])
def test_search_refuses_a_ring_before_any_work(capsys, monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("a ring was counted or enumerated")

    monkeypatch.setattr(opquery.bounds, "bounds_for_ring", refuse)
    monkeypatch.setattr(opquery.treesearch, "enumerate_orbit", refuse)
    code, out, err = run(capsys, "search", "--ring", name)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [("--group", "z4"), ("--abelian", "4", "--cap", "9")], ids=["group", "cap"])
def test_search_has_one_bound_and_takes_a_class_spec(flags):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["search", *flags])


@pytest.mark.parametrize("flags", [("--abelian", "30"), ("--abelian", "5", "--budget", "10")], ids=["z30", "z5-budget10"])
def test_search_budget_exceeded_is_capability_error(capsys, flags):
    code, _, err = run(capsys, "search", *flags)
    assert code == 3
    assert "cap" in err


def test_search_z11_is_refused_before_enumerating(capsys):
    # 3,991,680 candidates are past the default budget: one line, no work done
    code, out, err = run(capsys, "search", "--abelian", "11")
    assert (code, out) == (3, "")
    assert err.startswith("capability: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [("--abelian", "3000"), ("--maxchain", "3000")])
def test_search_of_a_huge_class_builds_no_table(capsys, flags):
    # building the n = 3000 canonical table first peaked at 216 MB for the group
    # and 90 MB for the chain; the closed-form count now refuses before any
    # table exists, and a count of 30,000 bits is given by its size
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "search", *flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err.startswith("capability: |X| >= 2^") and err.count("\n") == 1
    assert peak < 2**20


def test_bounds_abelian_past_the_cap_is_exact(capsys):
    code, out, _ = run(capsys, "bounds", "--abelian", "2,6")
    assert code == 0
    assert json.loads(out)["x_size"] == 39916800  # 12! / 12


@pytest.mark.parametrize("flags, automorphisms", [(("--maxchain", "3000"), 1), (("--abelian", "3000"), 800)])
def test_bounds_of_a_huge_class_prints_its_exact_count(capsys, flags, automorphisms):
    # 3000! has 9,131 digits, past the default limit of 4,300 on int <-> str; Z_3000 has phi(3000) = 800 automorphisms
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "bounds", *flags)
    code_csv, out_csv, _ = run(capsys, "bounds", *flags, "--format", "csv")
    assert (code, code_csv) == (0, 0)
    assert sys.get_int_max_str_digits() == limit  # lifted only while the count is written
    sys.set_int_max_str_digits(0)
    try:
        x_size = math.factorial(3000) // automorphisms
        assert json.loads(out)["x_size"] == x_size
        assert out_csv.splitlines()[1].split(",")[2] == str(x_size)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("flags", [("--maxchain", "1000000"), ("--abelian", "1000000")])
def test_search_refuses_a_huge_class_before_counting_it(capsys, flags):
    # n! at n = 10^6 takes about 14 s; the product that counts |X| stops soon after the budget
    start = time.perf_counter()
    code, out, err = run(capsys, "search", *flags)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (3, "")
    assert err.startswith("capability: |X| >= 2^") and err.count("\n") == 1


def test_search_refuses_over_budget_before_enumerating(capsys, monkeypatch):
    # z8 has 10,080 candidates, past the default budget of 200; bounds counts
    # them in closed form, so the orbit is never built
    def no_orbit(*args, **kwargs):
        raise AssertionError("enumerate_orbit ran before the budget check")

    monkeypatch.setattr(opquery.treesearch, "enumerate_orbit", no_orbit)
    code, out, err = run(capsys, "search", "--abelian", "8")
    assert (code, out) == (3, "")
    assert err == "capability: |X| = 10080 exceeds the search budget 200 (pass a larger budget to override)\n"
    code, out, err = run(capsys, "search", "--maxchain", "6")
    assert (code, out) == (3, "")
    assert "|X| = 720 exceeds the search budget 200" in err


def test_search_rejects_a_class_of_size_zero(capsys):
    code, _, err = run(capsys, "search", "--maxchain", "0")
    assert code == 2
    assert "n >= 1" in err
    code, _, err = run(capsys, "search", "--abelian", "0")
    assert code == 2
    assert ">= 2" in err


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


def test_sweep_without_reps_names_the_flag(capsys):
    code, _, err = run(capsys, "sweep", "--rings", "gf4", "--reps", "0")
    assert code == 2 and "--reps" in err and "nothing to sweep" not in err


def test_bad_spec_string_is_usage_error(capsys):
    code, _, _ = run(capsys, "gen", "--abelian", "2,x")
    assert code == 2
    code, _, _ = run(capsys, "gen", "--ring", "gf6")
    assert code == 2


def test_unknown_field_is_capability_error(capsys):
    # 11^2 is past the stored reduction polynomials
    code, _, _ = run(capsys, "gen", "--ring", "gf121")
    assert code == 3


def _one_gib():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        ("gen --abelian 99999999999999999999", 2, "error: "),  # labels past int32
        ("recover --maxchain 99999999999999999999", 2, "error: "),
        ("gen --abelian 100000", 3, "capability: out of memory: "),  # a 74.5 GiB table
        ("bounds --abelian 99999999999999999999", 3, "capability: "),  # n! past math.factorial
        ("bounds --maxchain 99999999999999999999", 3, "capability: "),  # before the sum over k <= n
        ("bounds --abelian 1000000000", 3, "capability: "),  # n! of about 2.8e10 bits, refused from lgamma
        ("bounds --maxchain 1000000000", 3, "capability: "),  # neither formed nor summed
        ("bounds --ring z99999999999999999989", 2, "error: "),  # refused before trial division to 10^10
        ("gen --ring gf99999999999999999989", 2, "error: "),
    ],
)
def test_absurd_class_sizes_end_with_an_exit_code_not_a_traceback(argv, code, prefix):
    # in a child held to 1 GiB and 30 s, so a table that is built anyway fails for certain and fast
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(opquery.__file__)), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "opquery.cli", *argv.split()], capture_output=True, text=True, env=env, timeout=30, preexec_fn=_one_gib
    )
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_readme_command_lines_parse():
    # every opquery line of the README's "Command line" block names only flags
    # the parser knows; nothing runs
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words[1:] for words in lines if words and words[0] == "opquery"]
    assert len(commands) >= 6
    for argv in commands:
        build_parser().parse_args(argv)

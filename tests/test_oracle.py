"""Hidden instances, query counting, transcripts, and serialization."""

import json

import numpy as np
import pytest

from opquery import (
    AbelianSpec,
    MaxChainSpec,
    Oracle,
    RingSpec,
    ValidationError,
    build_abelian,
    load_instance,
    load_transcript,
    new_hidden,
    new_hidden_ring,
    oracle_for,
    random_permutation,
    recover_max_chain,
    replay_matches,
    ring_oracles,
    save_instance,
    save_transcript,
    verify_recovery,
)
from opquery.oracle import instance_from_dict, instance_to_dict


def test_random_permutation_is_deterministic_and_valid():
    p1 = random_permutation(10, 42)
    p2 = random_permutation(10, 42)
    assert p1 == p2
    assert sorted(p1) == list(range(10))
    assert random_permutation(10, 43) != p1
    assert random_permutation(1, 0) == (0,)


def test_random_permutation_spread():
    # every position moves somewhere else for at least one seed: crude
    # uniformity check that the generator is not stuck
    hits = set()
    for seed in range(50):
        hits.add(random_permutation(5, seed))
    assert len(hits) > 30


def test_new_hidden_truth_is_relabeled_canonical():
    inst = new_hidden(AbelianSpec((2, 4)), 7)
    assert inst.truth == inst.canonical.relabel(inst.perm)


def test_oracle_counts_and_transcript():
    inst = new_hidden(AbelianSpec((4,)), 0)
    o = oracle_for(inst)
    assert o.count == 0
    z = o.query(1, 2)
    assert z == inst.truth[1, 2]
    assert o.count == 1
    assert o.transcript == ((1, 2, z),)


def test_oracle_rejects_out_of_range_without_charging():
    inst = new_hidden(AbelianSpec((4,)), 0)
    o = oracle_for(inst)
    bad = [(4, 0), (0, -1), (2.0, 1), (1, 2.5), ("1", 2), (True, 1), (1, False), (None, 0), (np.True_, 1), (np.float64(1), 0)]
    for x, y in bad:
        with pytest.raises(ValidationError):
            o.query(x, y)
    assert o.count == 0 and o.transcript == ()
    # integer types are answered and recorded as Python ints
    z = o.query(np.int64(1), np.uint8(2))
    assert o.transcript == ((1, 2, z),) and all(type(v) is int for v in o.transcript[0])


def test_transcript_since_holds_only_later_queries():
    inst = new_hidden(MaxChainSpec(6), 4)
    o = oracle_for(inst)
    first = recover_max_chain(o)
    second = recover_max_chain(o)
    assert first.table == second.table == inst.truth
    assert o.transcript == first.trace + second.trace
    assert len(second.trace) == second.queries_used == o.count - len(first.trace)
    assert o.transcript_since(o.count) == ()


def test_verify_recovery_does_not_consume_queries():
    inst = new_hidden(MaxChainSpec(5), 3)
    o = oracle_for(inst)
    o.query(0, 1)
    ok, used = verify_recovery(o, inst.truth)
    assert ok and used == 1
    assert o.count == 1
    ok2, _ = verify_recovery(o, build_abelian([5]))
    assert not ok2


def test_replay_matches():
    inst = new_hidden(AbelianSpec((6,)), 1)
    o = oracle_for(inst)
    for x, y in [(0, 0), (1, 5), (3, 3)]:
        o.query(x, y)
    assert replay_matches(o.transcript, inst.truth)
    assert not replay_matches([(0, 0, (inst.truth[0, 0] + 1) % 6)], inst.truth)


@pytest.mark.parametrize(
    "entry",
    [(-1, 0, 3), (0, -1, 0), (4, 0, 0), (0, 4, 0), (True, 0, 1), (0, 1.0, 1), (0, 0, 0.0), (0, 0, "0"), (0, 0), (0, 0, 0, 0), 7],
)
def test_replay_matches_checks_entries_like_query(entry):
    # numpy would read (-1, 0) as row n-1 and (4, 0) as an IndexError
    t = build_abelian([4])
    with pytest.raises(ValidationError):
        replay_matches([(1, 1, 2), entry], t)


def test_replay_matches_accepts_numpy_integers():
    t = build_abelian([4])
    assert replay_matches([(np.int64(1), np.int8(3), np.int32(0))], t)


def test_transcript_round_trip(tmp_path):
    path = str(tmp_path / "t.jsonl")
    transcript = ((0, 1, 2), (3, 4, 5))
    save_transcript(path, transcript)
    lines = open(path).read().strip().split("\n")
    assert len(lines) == 2
    assert json.loads(lines[0]) == {"x": 0, "y": 1, "z": 2}
    assert load_transcript(path) == transcript


def test_instance_round_trip_bit_identical(tmp_path):
    for spec in (AbelianSpec((2, 2)), MaxChainSpec(4), RingSpec("gf4")):
        if isinstance(spec, RingSpec):
            inst = new_hidden_ring(spec, 9)
        else:
            inst = new_hidden(spec, 9)
        path = str(tmp_path / "inst.json")
        save_instance(path, inst)
        first = open(path, "rb").read()
        loaded = load_instance(path)
        save_instance(path, loaded)
        assert open(path, "rb").read() == first
        assert instance_from_dict(instance_to_dict(inst)).truth == inst.truth


def test_ring_instance_shares_permutation():
    inst = new_hidden_ring("z8", 5)
    assert inst.truth.add == inst.canonical.add.relabel(inst.perm)
    assert inst.truth.mul == inst.canonical.mul.relabel(inst.perm)
    oa, om = ring_oracles(inst)
    x = oa.query(1, 2)
    y = om.query(1, 2)
    assert x == inst.truth.add[1, 2] and y == inst.truth.mul[1, 2]
    assert oa.count == 1 and om.count == 1


def test_new_hidden_rejects_ring_spec():
    with pytest.raises(ValidationError):
        new_hidden(RingSpec("z4"), 0)


def test_oracle_direct_construction():
    t = build_abelian([3])
    o = Oracle(t)
    assert o.n == 3
    assert o.query(1, 2) == 0


@pytest.mark.parametrize(
    "line",
    [
        '{"x": 2.5, "y": 0, "z": 1}',
        '{"x": true, "y": 0, "z": 1}',
        '{"x": 0, "y": 0, "z": "1"}',
        '{"x": 0, "y": 0}',
        "true",
        "[0, 1, 2]",
        "7",
        "not json",
        b"\xff\xfe\x00",
    ],
)
def test_load_transcript_rejects_bad_lines_by_number(tmp_path, line):
    path = tmp_path / "t.jsonl"
    path.write_bytes(b'{"x": 0, "y": 1, "z": 2}\n\n' + (line if isinstance(line, bytes) else line.encode()) + b"\n")
    with pytest.raises(ValidationError, match="line 3"):
        load_transcript(str(path))

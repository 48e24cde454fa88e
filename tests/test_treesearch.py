"""Query tree enumeration, verification, and exact minimax search."""

import gc
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import opquery
from opquery import (
    CapabilityError,
    Leaf,
    Node,
    OperationSet,
    SearchStats,
    TreeColumns,
    ValidationError,
    build_abelian,
    build_max_chain,
    enumerate_orbit,
    minimal_worst_case,
    render_tree,
    tree_from_dict,
    tree_stats,
    tree_to_dict,
    verify_query_tree,
)
from opquery.algebra import _relabelings
from opquery.treesearch import _byte_keys, _is_max_table, _poset_form, _sorted_distinct, _walk_is_shorter, iter_cyclic_prime_tables


def test_enumerate_orbit_sizes():
    assert len(enumerate_orbit(build_abelian([4]))) == 12
    assert len(enumerate_orbit(build_abelian([2, 2]))) == 4
    assert len(enumerate_orbit(build_max_chain(3))) == 6
    assert len(enumerate_orbit(build_abelian([]))) == 1


def test_enumerate_orbit_is_distinct_and_contains_canonical():
    t = build_abelian([4])
    ops = enumerate_orbit(t)
    raw = {bytes(op.tobytes()) for op in ops.tables}
    assert len(raw) == 12
    assert t.entries.astype(ops.tables.dtype).tobytes() in raw


def test_enumerate_orbit_cap():
    with pytest.raises(CapabilityError):
        enumerate_orbit(build_max_chain(9))


def test_cyclic_prime_fast_path_matches_brute():
    # the discrete-log family of iter_cyclic_prime_tables is the whole orbit
    for p in (2, 3, 5, 7):
        brute = enumerate_orbit(build_abelian([p]))
        assert len(brute) == p * math.factorial(p - 2)
        fast = {t.tobytes() for t in iter_cyclic_prime_tables(p)}
        assert fast == {t.tobytes() for t in brute.tables}


# sha256 of each orbit stack as enumerated before cyclic groups of prime
# order went through the permutation kernel: same tables, order and dtype
PINNED_ORBIT_STACKS = {
    2: ((2, 2, 2), "d17a42e02dc5e82f3011d1347e4cca78ae412e0f00378e767bbae7abaf32cebe"),
    3: ((3, 3, 3), "59ea3ae26d0f6ff821a91ea86459d1775e535f9472d18f7cc140e35d8f469c1a"),
    5: ((30, 5, 5), "8f3f1d8e6fa8b944893f449fced0f46d6816010cef9605436f67280f36257dc9"),
    7: ((840, 7, 7), "e404738a5b9262ad07cdfde5293d1240cecb4278b463e1ebbef0c7f3319a179d"),
}


@pytest.mark.parametrize("p", sorted(PINNED_ORBIT_STACKS))
def test_enumerate_orbit_of_cyclic_prime_group_is_pinned(p):
    shape, digest = PINNED_ORBIT_STACKS[p]
    tables = enumerate_orbit(build_abelian([p])).tables
    assert (tables.dtype, tables.shape) == (np.int8, shape)
    assert hashlib.sha256(tables.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("n", range(1, 8))
def test_max_chain_orbit_is_the_deduped_kernel_stack(n):
    # a max table's orbit is stacked whole and sorted in place; it is the
    # stack the kernel's images give when deduped, byte for byte
    for t in (build_max_chain(n), build_max_chain(n).relabel(list(range(n))[::-1])):
        images = np.concatenate([chunk[0] for _, chunk in _relabelings(t.entries[None])])
        want = _sorted_distinct(_byte_keys(images)).view(images.dtype).reshape(-1, n, n)
        got = enumerate_orbit(t).tables
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, (math.factorial(n), n, n), want.tobytes())
        assert not got.flags.writeable


def test_enumerate_orbit_refuses_z11_before_any_work():
    # 11! permutations are past the cap; the refusal comes first, not after
    # the 3,991,680 tables are built
    with pytest.raises(CapabilityError, match="cap is 8"):
        enumerate_orbit(build_abelian([11]))


def test_orbit_walk_runs_where_it_takes_fewer_relabelings():
    # the walk does |orbit| (n - 1) relabelings, the kernel n!; rigid,
    # cyclic and n <= 5 tables keep the kernel
    assert _walk_is_shorter(build_abelian([2, 2, 2]))  # 240 * 7 against 40,320
    assert _walk_is_shorter(build_abelian([2, 4]))  # 5,040 * 7 against 40,320
    for t in (build_abelian([8]), build_abelian([6]), build_abelian([2, 2]), build_max_chain(8), build_max_chain(4)):
        assert not _walk_is_shorter(t)


def test_iter_cyclic_prime_counts():
    assert sum(1 for _ in iter_cyclic_prime_tables(3)) == 3
    assert sum(1 for _ in iter_cyclic_prime_tables(5)) == 30
    assert sum(1 for _ in iter_cyclic_prime_tables(7)) == 840


def test_operation_set_validation():
    t = build_abelian([3]).entries
    with pytest.raises(ValidationError):
        OperationSet(np.stack([t, t]))  # duplicates
    ops = OperationSet(t[None, :, :])
    assert len(ops) == 1 and ops.n == 3
    # equal bytes in a non-contiguous view still count as duplicates
    with pytest.raises(ValidationError):
        OperationSet(np.stack([t, t.T])[:, ::-1])
    assert len(OperationSet(np.stack([t, t[::-1]])[:, ::-1])) == 2


def test_checked_operation_set_leaves_numpy_ma_unimported():
    # np.unique and np.isin import numpy.ma, about 1 MB; neither the
    # distinctness check, the orbit walk nor the search's closure check may
    code = (
        "import sys\n"
        "from opquery import OperationSet, build_abelian, enumerate_orbit, minimal_worst_case\n"
        "OperationSet(enumerate_orbit(build_abelian([2, 2])).tables)\n"
        "ops = enumerate_orbit(build_abelian([2, 2, 2]))\n"
        "assert minimal_worst_case(ops, budget=len(ops))[0] == 4\n"
        "assert minimal_worst_case(OperationSet(ops.tables.copy()), budget=len(ops))[0] == 4\n"  # checked, not trusted
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(opquery.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# --- hand-built reference trees -------------------------------------------

def three_element_tree():
    """Depth profile {2,2,3,3,3,3} over the six max tables of a 3-chain.

    Root asks 0*1; each answer narrows the order of the remaining pair.
    """
    return Node(
        (0, 1),
        {
            0: Node((0, 2), {0: Node((1, 2), {1: Leaf(), 2: Leaf()}), 2: Leaf()}),
            1: Node((0, 2), {0: Leaf(), 2: Node((1, 2), {1: Leaf(), 2: Leaf()})}),
        },
    )


def cyclic_four_tree():
    """Twelve leaves, all at depth 2, over the relabelings of a cyclic group
    of order 4: the root asks 0*0, the reply pins down enough structure that
    one more query decides.
    """
    return Node(
        (0, 0),
        {
            0: Node((1, 1), {0: Leaf(), 2: Leaf(), 3: Leaf()}),
            1: Node((0, 1), {0: Leaf(), 2: Leaf(), 3: Leaf()}),
            2: Node((0, 2), {0: Leaf(), 1: Leaf(), 3: Leaf()}),
            3: Node((0, 3), {0: Leaf(), 1: Leaf(), 2: Leaf()}),
        },
    )


def test_three_element_reference_tree():
    ops = enumerate_orbit(build_max_chain(3))
    v = verify_query_tree(three_element_tree(), ops)
    assert v.ok, v.failure
    assert sorted(v.depths.values()) == [2, 2, 3, 3, 3, 3]
    worst, avg = tree_stats(three_element_tree(), ops)
    assert worst == 3
    assert avg == pytest.approx(16 / 6)


def test_cyclic_four_reference_tree():
    ops = enumerate_orbit(build_abelian([4]))
    v = verify_query_tree(cyclic_four_tree(), ops)
    assert v.ok, v.failure
    assert v.leaf_count == 12
    assert set(v.depths.values()) == {2}
    worst, avg = tree_stats(cyclic_four_tree(), ops)
    assert worst == 2 and avg == 2.0


def test_verify_rejects_incomplete_tree():
    ops = enumerate_orbit(build_max_chain(3))
    stub = Node((0, 1), {0: Leaf(), 1: Leaf()})
    v = verify_query_tree(stub, ops)
    assert not v.ok and v.failure is not None


def test_verify_rejects_non_separating_tree():
    ops = enumerate_orbit(build_abelian([4]))
    v = verify_query_tree(Leaf(), ops)
    assert not v.ok


def test_verify_rejects_a_leaf_that_names_another_candidate():
    ops = enumerate_orbit(build_max_chain(2))
    _, tree = minimal_worst_case(ops, budget=len(ops))
    assert _node_view(tree) == Node((0, 1), {0: Leaf(0), 1: Leaf(1)}) and verify_query_tree(tree, ops).ok
    v = verify_query_tree(Node((0, 1), {0: Leaf(1), 1: Leaf(0)}), ops)
    assert not v.ok and v.failure == "operation 0 reaches the leaf of operation 1"
    v = verify_query_tree(Node((0, 1), {0: Leaf(0), 1: Leaf(5)}), ops)
    assert not v.ok and v.failure == "operation 1 reaches the leaf of operation 5"
    # a leaf that names no candidate claims nothing to check
    assert verify_query_tree(Node((0, 1), {0: Leaf(0), 1: tree_from_dict({"leaf": None})}), ops).ok


def test_verify_failures_are_pinned():
    chain2 = enumerate_orbit(build_max_chain(2))  # candidate 0 answers 0*1 = 0, candidate 1 answers 0*1 = 1
    for tree, failure in (
        (Node((0, 1), {0: Leaf(0)}), "operation 1 got unanswered branch 0*1 = 1"),
        (Node((0, 0), {0: Leaf()}), "two candidates share a leaf"),
        (Node((0, 1), {0: Leaf(), 1: Leaf(), 2: Leaf()}), "tree has 3 leaves for 2 candidates"),
    ):
        v = verify_query_tree(tree, chain2)
        assert (v.ok, v.failure) == (False, failure)
    for tree in (Node((0, 1), {}), Node((0, 1), {0: Leaf(0), 1: Node((1, 1), {})})):
        with pytest.raises(ValidationError, match="^internal node with no children$"):
            verify_query_tree(tree, chain2)


def test_verify_names_the_lowest_failing_candidate():
    # candidate 3 finds no branch for 0*2 = 0 at depth 1, and candidate 1
    # reaches the leaf of candidate 2 at depth 3; a walk by levels meets
    # candidate 3 first, but the lowest index wins
    tree = Node(
        (0, 1),
        {
            0: Node((0, 2), {0: Node((1, 2), {1: Leaf(0), 2: Leaf(2)}), 2: Leaf(2)}),
            1: Node((0, 2), {2: Node((1, 2), {1: Leaf(4), 2: Leaf(5)})}),
        },
    )
    ops = enumerate_orbit(build_max_chain(3))
    v = verify_query_tree(tree, ops)
    assert (v.ok, v.failure) == (False, "operation 1 reaches the leaf of operation 2")
    assert v.depths == {0: 3, 1: 3, 2: 2, 4: 3, 5: 3}  # candidate 3 reaches no leaf


def test_verify_checks_every_node_of_a_hand_built_tree():
    # the bad queries hang on the answer 7, which no candidate gives
    ops = enumerate_orbit(build_max_chain(2))
    for bad in ((5, 0), (0, -1)):
        tree = Node((0, 1), {0: Leaf(0), 1: Leaf(1), 7: Node(bad, {0: Leaf()})})
        with pytest.raises(ValidationError, match=rf"^query \({bad[0]}, {bad[1]}\) out of range for n = 2$"):
            verify_query_tree(tree, ops)
    for bad, match in ((Leaf(-1), "op id"), (Node((0,), {0: Leaf()}), "pair"), (Node((0, 0.5), {0: Leaf()}), "query needs an integer"), (3, "Node or a Leaf")):
        with pytest.raises(ValidationError, match=match):
            verify_query_tree(Node((0, 1), {0: Leaf(0), 1: bad}), ops)


def test_verification_reports_depths_and_leaf_count():
    # the fields the benchmark and demo 06 read: depths maps every op id to an int
    v = verify_query_tree(cyclic_four_tree(), enumerate_orbit(build_abelian([4])))
    assert v.leaf_count == 12
    assert v.depths == dict.fromkeys(range(12), 2) and all(type(d) is int for d in v.depths.values())
    assert not hasattr(v, "leaf_map")


def test_the_witness_tree_is_read_only_columns():
    ops = enumerate_orbit(build_abelian([4]))
    _, tree = minimal_worst_case(ops)
    assert isinstance(tree, TreeColumns) and tree.n == 4
    assert (len(tree.nodes), tree.edges.shape) == (17, (16, 3))  # 5 internal nodes, 12 leaves
    for column in (tree.nodes, tree.edges):
        with pytest.raises(ValueError):
            column[0] = 1
    d = tree_to_dict(tree)
    assert json.loads(json.dumps(d)) == d  # Python ints only: json.dumps refuses np.int64
    assert tree_to_dict(tree_from_dict(d)) == d and render_tree(tree_from_dict(d)) == render_tree(tree)


def test_tree_stats_raises_on_bad_tree():
    ops = enumerate_orbit(build_max_chain(3))
    with pytest.raises(ValidationError):
        tree_stats(Leaf(), ops)


def test_tree_serialization_round_trip():
    tree = three_element_tree()
    ops = enumerate_orbit(build_max_chain(3))
    # leaf ids are filled in during verification on the original tree
    d = tree_to_dict(tree)
    back = tree_from_dict(d)
    assert tree_to_dict(back) == d
    assert verify_query_tree(back, ops).ok
    assert d["query"] == [0, 1]
    assert set(d["children"]) == {"0", "1"}


def test_render_tree_mentions_queries():
    text = render_tree(three_element_tree())
    assert "0*1?" in text and "leaf" in text


def test_minimal_worst_case_values():
    assert minimal_worst_case(enumerate_orbit(build_abelian([4])))[0] == 2
    assert minimal_worst_case(enumerate_orbit(build_max_chain(3)))[0] == 3
    assert minimal_worst_case(enumerate_orbit(build_max_chain(4)))[0] == 5


def test_minimal_worst_case_witness_verifies():
    for canonical in (build_abelian([4]), build_max_chain(3), build_max_chain(4), build_abelian([2, 2])):
        ops = enumerate_orbit(canonical)
        depth, tree = minimal_worst_case(ops)
        v = verify_query_tree(tree, ops)
        assert v.ok
        worst, avg = tree_stats(tree, ops)
        assert worst == depth
        # no tree can beat the information floor
        assert avg >= math.log(len(ops), ops.n) - 1e-9


def test_minimal_worst_case_deterministic():
    ops = enumerate_orbit(build_max_chain(3))
    d1, t1 = minimal_worst_case(ops)
    d2, t2 = minimal_worst_case(ops)
    assert d1 == d2 and tree_to_dict(t1) == tree_to_dict(t2)


def test_minimal_worst_case_budget():
    ops = enumerate_orbit(build_abelian([5]))  # 30 candidates
    with pytest.raises(CapabilityError):
        minimal_worst_case(ops, budget=10)


def test_minimal_worst_case_singleton():
    ops = enumerate_orbit(build_abelian([]))
    depth, tree = minimal_worst_case(ops)
    assert depth == 0 and _node_view(tree) == Leaf(0)


# Exact optima with the sha256 of each canonical witness (json.dumps of
# tree_to_dict, sorted keys), both taken from the dict-per-query search that
# the lazy one replaced. Max chains give the sorting numbers S(n) (Ford &
# Johnson 1959; Knuth, TAOCP vol. 3, 5.3.1); the first five exact_search
# classes of the benchmark are among them.
PINNED_OPTIMA = [
    ("C_1", build_max_chain(1), 0, "ec82966176d43c84a2d86844747bbe2e2d30eddc08e1708c190157483df550a5"),
    ("C_2", build_max_chain(2), 1, "d9b3b444e8729fbdba5011bbc0b8db97918c4efc46eef7f03aab6d7c0b7a9e12"),
    ("C_3", build_max_chain(3), 3, "7991cce42c72c2853f61f45c4028d2348edfb9507f076f05f47189df8712529f"),
    ("C_4", build_max_chain(4), 5, "4796e0a8b793835b244110191c3668f99e5bfaf7616fa6441322a436f0c2f9d6"),
    ("C_5", build_max_chain(5), 7, "a342f805c1cdd9ae874bd55c9e1aad61f005456cbcea89666bd53e836d9a23ba"),
    ("C_6", build_max_chain(6), 10, "b335e56c643e76c7a1b342d672160e02510cd587d1b0e08f78b0efa5b74e4cec"),
    ("Z_1", build_abelian([]), 0, "ec82966176d43c84a2d86844747bbe2e2d30eddc08e1708c190157483df550a5"),
    ("Z_2", build_abelian([2]), 1, "5501c9bf7996aa7f32e340531d9ecad9c6a6d605920fa88455bb18a15ead0b7f"),
    ("Z_3", build_abelian([3]), 1, "15c2cc941b29b1264af218076c209ef8e0d043f72d01d9a6bc2e381c821823b3"),
    ("Z_4", build_abelian([4]), 2, "4d963d0b155c8cff515e408c2ad7891186f9b67921e8e2220504e00edec46148"),
    ("Z_2xZ_2", build_abelian([2, 2]), 1, "f37f363a756e30163cdb142d257106ee1db482a3210d3d8811059b70f0f23c43"),
    ("Z_5", build_abelian([5]), 3, "1b6932c9c06232c65140fddd1eb72000749b3744c0ad1ad105cc442b0299ddb8"),
    ("Z_6", build_abelian([6]), 4, "62cb02fa92fab9cc17c5421d956f2506212d0464a96fa49e6b40abc8ed6887a3"),
    ("Z_7", build_abelian([7]), 5, "4e02d6706a34ad91769856d0dc70e4abe2ac2526dce47afd2b4f6143d9e9c236"),
    ("Z_2xZ_2xZ_2", build_abelian([2, 2, 2]), 4, "c5c406db09cef7ec376b681398a919808df9055596c0aa3ee777728bc9f70965"),
    # 5,040 and 10,080 candidates; the digests are those of the search
    # before it used the symmetry of the orbit (about 45 s each then)
    ("Z_2xZ_4", build_abelian([2, 4]), 6, "8fa50e657ce16937a4123b19bcf8377430258590be012d72763eb6117b0f7a54"),
    ("Z_8", build_abelian([8]), 6, "00afe8d4b80493d578220ffc71342dfdffdafb3235ffe855b7298e3e9dd81c8c"),
    # S(7) over 5,040 candidates, and 7,560 candidates on 9 points, past the
    # default brute force cap; both digests are those of the search before it
    # capped each state at the value it must beat (the chain took about a minute then)
    ("C_7", build_max_chain(7), 13, "16ee2c5851550a195eb3207621c105e9ce2d9ae5aa378714c89cce1b6dc3b83e"),
    ("Z_3xZ_3", build_abelian([3, 3]), 5, "8fbefbffbc4ab1bf62822f6bbf8fd192f37cc55805c18f96874fd20b626735ac", 9),
]


@pytest.mark.parametrize(
    "canonical, optimum, digest, cap",
    [(canonical, optimum, digest, cap[0] if cap else None) for _, canonical, optimum, digest, *cap in PINNED_OPTIMA],
    ids=[row[0] for row in PINNED_OPTIMA],
)
def test_minimal_worst_case_pinned_optima(canonical, optimum, digest, cap):
    ops = enumerate_orbit(canonical, cap=cap)
    depth, tree = minimal_worst_case(ops, budget=len(ops))
    assert depth == optimum
    v = verify_query_tree(tree, ops)
    assert v.ok and max(v.depths.values()) == depth
    assert hashlib.sha256(json.dumps(tree_to_dict(tree), sort_keys=True).encode()).hexdigest() == digest


def test_minimal_worst_case_pins_z9():
    # Z_9 = 6 over 60,480 candidates, past the default brute force cap. The
    # digest is that of the search before conjugacy keys, which searched
    # 55,997 states; the keys, with the witness tree reading each conjugate's
    # recorded scan, leave 1,437 of them, and settling the nodes worth 1 in a
    # batch, with one verdict cache for groups and chains, 1,387.
    ops = enumerate_orbit(build_abelian([9]), cap=9)
    stats = SearchStats()
    depth, tree = minimal_worst_case(ops, budget=len(ops), stats=stats)
    assert (len(ops), depth) == (60480, 6)
    v = verify_query_tree(tree, ops)
    assert v.ok and max(v.depths.values()) == depth
    assert hashlib.sha256(json.dumps(tree_to_dict(tree), sort_keys=True).encode()).hexdigest() == "b6eaf73e29904010adda3513830016b6929285a92b56665182676d6a8de3f29c"
    assert (stats.states, stats.conjugate_hits) == (1387, 203)


def test_minimal_worst_case_finds_the_sorting_number_s8():
    # 40,320 candidates in 570 states; the digest is that of the tree the
    # search gave when it memoised states by candidate ids alone (about 25 s)
    ops = enumerate_orbit(build_max_chain(8), cap=9)
    stats = SearchStats()
    depth, tree = minimal_worst_case(ops, budget=len(ops), stats=stats)
    v = verify_query_tree(tree, ops)
    assert v.ok and max(v.depths.values()) == depth
    # S(8) = 16: the information floor ceil(log2 8!) is reached, and it is the
    # comparison count of Ford & Johnson's merge insertion, sum ceil(log2(3k/4))
    assert depth == 16 == math.ceil(math.log2(math.factorial(8))) == sum(math.ceil(math.log2(3 * k / 4)) for k in range(1, 9))
    assert hashlib.sha256(json.dumps(tree_to_dict(tree), sort_keys=True).encode()).hexdigest() == "01a9e34be7575f1574c2fd205b0c0a4df0444317ce174220947bc0726263cbf9"
    assert stats.states == 570


@pytest.mark.skipif(os.environ.get("OPQUERY_EXHAUSTIVE") != "1", reason="set OPQUERY_EXHAUSTIVE=1 to search the n = 9 chain (orbit ~1 s, search ~17 s, verification ~1 s, ~270 MB max RSS)")
def test_minimal_worst_case_finds_the_sorting_number_s9():
    ops = enumerate_orbit(build_max_chain(9), cap=9)
    depth, tree = minimal_worst_case(ops, budget=len(ops))
    v = verify_query_tree(tree, ops)
    assert len(ops) == 362880 and v.ok and max(v.depths.values()) == depth
    # S(9) = 19, the information floor and Ford & Johnson's count again
    assert depth == 19 == math.ceil(math.log2(math.factorial(9))) == sum(math.ceil(math.log2(3 * k / 4)) for k in range(1, 10))


@pytest.mark.skipif(
    os.environ.get("OPQUERY_EXHAUSTIVE") != "1",
    reason="set OPQUERY_EXHAUSTIVE=1 to search Z_10 (orbit ~11 s, search ~14 s, verification ~1 s, ~33 s in all, ~1 GB max RSS)",
)
def test_minimal_worst_case_pins_z10():
    # Z_10 = 8 over 907,200 candidates, two above the information floor of 6;
    # the paper's budget for an abelian group of order 10 is 10 queries
    ops = enumerate_orbit(build_abelian([10]), cap=10)
    stats = SearchStats()
    depth, tree = minimal_worst_case(ops, budget=len(ops), stats=stats)
    assert (len(ops), depth) == (907200, 8)
    v = verify_query_tree(tree, ops)
    assert v.ok and max(v.depths.values()) == depth
    assert hashlib.sha256(json.dumps(tree_to_dict(tree), sort_keys=True).encode()).hexdigest() == "bf8f507a1e691aba98dcf1b6f9ab7e40548df1f6d6ca7383147e9d853061628a"
    assert stats.states == 34770


# Hand-built sets that are not closed under relabeling, so the search mentions
# every label and scans every query, with answers outside 0..n-1. The digests
# are those of the search that read the query of each state worth 1 from the
# scan of that state or of a conjugate, and grouped each pair on its own.
PINNED_OPEN_SETS = [
    ("random", np.random.default_rng(3).integers(-2, 6, size=(7, 3, 3)), 2, "042a5202ab1e422b08dd76e9e3b2372ff2b1dd56ea9e853d6d2c9e1a3666558d"),
    # five candidates that the query (1, 2) is the first to separate: the root is worth 1
    ("root_worth_1", np.random.default_rng(3).integers(-3, 7, size=(5, 3, 3)), 1, "b55d74dda5ef58c050046a01e7f035f9fad853dc34acbc800c59d6aa964e6368"),
    # the root splits six candidates into three pairs, told apart by (0, 1), (0, 1) and (0, 2)
    ("pairs", np.random.default_rng(331).integers(-2, 6, size=(6, 3, 3)), 2, "5b18432af1789aa9ec683160c4fe18a680f9fa380da54f226a68f9fc106b6053"),
    # one pair node: the tables first differ at (1, 1)
    ("pair", np.array([[[7, -1, 0], [2, 2, 2], [0, 0, 0]], [[7, -1, 0], [2, -5, 2], [0, 0, 0]]]), 1, "55ee7e1a90bcd487760669055113f4eba735adb90f9248be918a03c09b5c6949"),
]


@pytest.mark.parametrize("stack, optimum, digest", [row[1:] for row in PINNED_OPEN_SETS], ids=[row[0] for row in PINNED_OPEN_SETS])
def test_minimal_worst_case_pins_hand_built_sets(stack, optimum, digest):
    ops = OperationSet(stack)
    stats = SearchStats()
    depth, tree = minimal_worst_case(ops, budget=len(ops), stats=stats)
    assert depth == optimum and stats.queries_skipped == 0
    v = verify_query_tree(tree, ops)
    assert v.ok and max(v.depths.values()) == depth
    assert hashlib.sha256(json.dumps(tree_to_dict(tree), sort_keys=True).encode()).hexdigest() == digest


# Work counts of the symmetric search; they are deterministic, so a change to
# the pruning shows here even when the optimum and the tree stay the same.
# Ids 6 and 7 are the cyclic groups Z_6 and Z_7; every state of the max chain
# C_5 is keyed by its canonical poset.
PINNED_STATS = {
    "6": (build_abelian([6]), SearchStats(states=34, memo_hits=6, conjugate_hits=26, queries_scanned=43, queries_skipped=329, floor_cutoffs=11, aborted=15, capped=12, settled=26, conjugate_reads=30, witness_states=16)),
    "7": (build_abelian([7]), SearchStats(states=49, memo_hits=21, conjugate_hits=36, queries_scanned=190, queries_skipped=1138, floor_cutoffs=17, aborted=106, capped=26, settled=123, conjugate_reads=160, witness_states=21)),
    "C_5": (build_max_chain(5), SearchStats(states=23, memo_hits=1, conjugate_hits=24, queries_scanned=35, queries_skipped=54, floor_cutoffs=23, aborted=9, capped=0, settled=13, conjugate_reads=54, witness_states=4)),
}


@pytest.mark.parametrize("name", sorted(PINNED_STATS))
def test_minimal_worst_case_stats_are_pinned(name):
    canonical, pinned = PINNED_STATS[name]
    ops = enumerate_orbit(canonical)
    stats = SearchStats()
    minimal_worst_case(ops, budget=len(ops), stats=stats)
    assert stats == pinned


# The five exact_search classes of the benchmark, and Z_3 x Z_3 on 9 points.
TRUSTED_ORBITS = [
    ("Z_5", build_abelian([5]), None),
    ("Z_6", build_abelian([6]), None),
    ("Z_2xZ_2xZ_2", build_abelian([2, 2, 2]), None),
    ("C_4", build_max_chain(4), None),
    ("C_5", build_max_chain(5), None),
    ("Z_3xZ_3", build_abelian([3, 3]), 9),
]


@pytest.mark.parametrize("canonical, cap", [row[1:] for row in TRUSTED_ORBITS], ids=[row[0] for row in TRUSTED_ORBITS])
def test_trusting_an_orbit_changes_nothing(canonical, cap):
    # the search takes enumerate_orbit's set as distinct and closed without
    # checking; a writable copy of its stack is checked, and must search alike
    orbit = enumerate_orbit(canonical, cap=cap)
    runs = []
    for ops in (orbit, OperationSet(orbit.tables.copy())):
        stats = SearchStats()
        depth, tree = minimal_worst_case(ops, budget=len(ops), stats=stats)
        runs.append((depth, tree_to_dict(tree), stats))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("canonical", [build_abelian([4]), build_abelian([2, 2, 2])], ids=["kernel", "walk"])
def test_an_orbit_stack_cannot_be_written(canonical):
    assert _walk_is_shorter(canonical) == (canonical.n == 8)
    tables = enumerate_orbit(canonical).tables
    with pytest.raises(ValueError):
        tables[1] = tables[0]


def test_sets_the_search_does_not_trust_are_checked():
    # an orbit whose stack was made writable again, and a user-built
    # read-only stack, each holding a duplicate
    orbit = enumerate_orbit(build_abelian([4]))
    orbit.tables.flags.writeable = True
    orbit.tables[1] = orbit.tables[0]
    chain = enumerate_orbit(build_max_chain(3)).tables
    stack = np.concatenate([chain, chain[:1]])
    stack.flags.writeable = False
    for ops in (orbit, OperationSet(stack, check_distinct=False)):
        with pytest.raises(ValidationError):
            minimal_worst_case(ops, budget=len(ops))


def _node_view(tree):
    """The search's columnar tree as Node and Leaf objects."""
    return tree_from_dict(tree_to_dict(tree))


def _blocks_below_the_root(tree, ops):
    """(candidate ids, subtree) of every node of tree below its root with three or more candidates."""
    answers = ops.tables.reshape(len(ops), -1)
    found, stack = [], [(tree, list(range(len(ops))))]
    while stack:
        node, ids = stack.pop()
        if isinstance(node, Node) and len(ids) >= 3:
            if len(ids) < len(ops):
                found.append((ids, node))
            column = node.query[0] * ops.n + node.query[1]
            stack.extend((child, [i for i in ids if answers[i, column] == z]) for z, child in node.children.items())
    return found


def _leaves_renamed(tree, ids):
    if isinstance(tree, Leaf):
        return Leaf(ids[tree.op_id])
    return Node(tree.query, {z: _leaves_renamed(child, ids) for z, child in tree.children.items()})


@pytest.mark.parametrize(
    "canonical", [build_abelian([6]), build_abelian([2, 2, 2]), build_abelian([7]), build_max_chain(5)], ids=["Z_6", "Z_2xZ_2xZ_2", "Z_7", "C_5"]
)
def test_every_witness_subtree_is_the_open_search_of_its_block(canonical):
    # A block below the root is a proper subset of one orbit, so it is not
    # closed under relabeling, and searching it alone scans every query and
    # starts no key. Its subtree in the witness tree is its lexicographically
    # first optimal tree over every query, so the open search gives it again.
    # The closed search reads some of those queries from the recorded scans
    # of conjugate blocks; it must not fall back to scanning every block.
    ops = enumerate_orbit(canonical)
    stats = SearchStats()
    _, tree = minimal_worst_case(ops, budget=len(ops), stats=stats)
    assert stats.conjugate_reads > 0
    blocks = _blocks_below_the_root(_node_view(tree), ops)
    assert blocks
    for ids, node in blocks:
        open_stats = SearchStats()
        _, sub = minimal_worst_case(OperationSet(ops.tables[ids]), budget=len(ids), stats=open_stats)
        assert (open_stats.conjugate_hits, open_stats.queries_skipped) == (0, 0)
        assert _leaves_renamed(_node_view(sub), ids) == node


def _posets(n):
    """Every labelled poset on n points, as the mask of the labels below each label."""
    pairs = list(itertools.combinations(range(n), 2))
    found = []
    for choice in itertools.product((None, 0, 1), repeat=len(pairs)):
        less = {(a, b) if c == 0 else (b, a) for (a, b), c in zip(pairs, choice) if c is not None}
        if all((a, d) in less for a, b in less for c, d in less if b == c):  # transitive
            found.append(tuple(sum(1 << u for u in range(n) if (u, v) in less) for v in range(n)))
    return found


def _renamed(below, name):
    """The poset below with each label v renamed name[v]."""
    out = [0] * len(below)
    for v, under in enumerate(below):
        out[name[v]] = sum(1 << name[u] for u in range(len(below)) if under >> u & 1)
    return tuple(out)


def test_poset_form_keys_the_isomorphism_classes_of_posets_on_4_points():
    posets = _posets(4)
    assert len(posets) == 219
    forms = {below: _poset_form(below) for below in posets}
    for a in posets:
        isomorphic = {_renamed(a, p) for p in itertools.permutations(range(4))}
        assert {b for b in posets if forms[b][0] == forms[a][0]} == isomorphic
    assert len({key for key, _ in forms.values()}) == 16
    for below, (key, order) in forms.items():
        # the labelling gives the key, the related labels first and the isolated ones after them in label order
        assert _renamed(below, {v: i for i, v in enumerate(order)}) == key + (0,) * (4 - len(key))
        isolated = order[len(key) :]
        assert list(isolated) == sorted(isolated)
        assert not any(below[v] or any(under >> v & 1 for under in below) for v in isolated)


def test_is_max_table():
    assert all(_is_max_table(t) for t in enumerate_orbit(build_max_chain(4)).tables)
    assert _is_max_table(np.minimum.outer(np.arange(4), np.arange(4)))  # the max table of the reversed order
    assert not _is_max_table(build_abelian([2]).entries)  # an orbit of 2! tables that are no max tables
    broken = np.maximum.outer(np.arange(3), np.arange(3))
    broken[0, 1] = 2  # every label still wins as often as in a max table
    assert not _is_max_table(broken)


def test_minimal_worst_case_leaves_no_garbage_cycles():
    # its nested functions call each other; were their closures left in a
    # cycle, the whole memo would live on until the next full collection
    open_set = OperationSet(np.random.default_rng(3).integers(-2, 6, size=(7, 3, 3)))
    gc.collect()
    gc.disable()
    try:
        for ops in (enumerate_orbit(build_abelian([6])), enumerate_orbit(build_max_chain(5)), open_set):
            minimal_worst_case(ops, budget=len(ops))
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_minimal_worst_case_memory_on_the_c6_orbit():
    # the memo keeps the chosen column and its answer blocks for each state
    # worth 2 or more, and nothing for a two-candidate state; the traced peak
    # over the 720 candidates is about 0.62 MB (0.43 MB once the poset steps
    # are cached; 0.58 and 0.38 MB when it kept the column alone), and it
    # was 1.42 MB when two-candidate states kept their blocks as well and
    # the chain's states had no poset keys
    ops = enumerate_orbit(build_max_chain(6))
    tracemalloc.start()
    try:
        minimal_worst_case(ops, budget=len(ops))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_tree_from_dict_refuses_malformed_nodes():
    # integers only, not bools, by the rule of Oracle.query; nothing is truncated
    leaf = {"leaf": 0}
    for bad in (
        {"leaf": 0.5},
        {"leaf": True},
        {"leaf": "1"},
        {"query": [0.5, 1], "children": {"0": leaf}},
        {"query": [0, False], "children": {"0": leaf}},
        {"query": [0], "children": {"0": leaf}},
        {"query": 0, "children": {"0": leaf}},
        {"query": [0, 1], "children": [leaf]},
        {"query": [0, 1], "children": {"0.5": leaf}},
        {"query": [0, 1], "children": {"--1": leaf}},
        {"query": [0, 1], "children": {True: leaf}},
        {"query": [0, 1], "children": {"0": 3}},
        {"query": [0, 1]},
        [leaf],
    ):
        with pytest.raises(ValidationError):
            tree_from_dict(bad)
    tree = tree_from_dict({"query": [np.int8(0), 1], "children": {"-1": leaf, 2: {"leaf": None}}})
    assert tree == Node((0, 1), {-1: Leaf(0), 2: Leaf()})


def _chain_dict(depth: int, bottom: dict) -> dict:
    d = bottom
    for _ in range(depth):
        d = {"query": [0, 1], "children": {"0": d}}
    return d


def test_tree_from_dict_reads_deep_trees_without_recursion():
    # 5,000 levels is past the interpreter's recursion limit
    tree = tree_from_dict(_chain_dict(5000, {"leaf": 0}))
    depth = 0
    while isinstance(tree, Node):
        tree, depth = tree.children[0], depth + 1
    assert depth == 5000 and tree == Leaf(0)
    # the Node tree becomes columns by a walk with its own stack, so both writers read it whole
    tree = tree_from_dict(_chain_dict(5000, {"leaf": 0}))
    assert render_tree(tree).count("\n") == 2 * 5000 + 1
    d = tree_to_dict(tree)
    for _ in range(5000):
        d = d["children"]["0"]
    assert d == {"leaf": 0}
    with pytest.raises(ValidationError, match="leaf needs an integer"):
        tree_from_dict(_chain_dict(5000, {"leaf": 0.5}))
    loop = {"query": [0, 1], "children": {}}
    loop["children"]["0"] = loop
    with pytest.raises(ValidationError, match="contains itself"):
        tree_from_dict(loop)
    shared = {"leaf": 1}  # a dict used twice is two leaves, not a loop
    assert tree_from_dict({"query": [0, 1], "children": {"0": shared, "1": shared}}) == Node((0, 1), {0: Leaf(1), 1: Leaf(1)})


def test_verify_query_tree_walks_deep_trees_without_recursion():
    # n = 64 caps the depth at n^2 = 4,096
    ops = OperationSet(build_abelian([64]).entries[None])
    deep = Leaf(0)
    for _ in range(1500):
        deep = Node((0, 0), {0: deep})
    v = verify_query_tree(deep, ops)
    assert v.ok and v.leaf_count == 1 and v.depths == {0: 1500}
    for _ in range(4096 - 1500 + 1):
        deep = Node((0, 0), {0: deep})
    with pytest.raises(ValidationError, match="deeper than 4096"):
        verify_query_tree(deep, ops)
    loop = Node((0, 0), {})
    loop.children[0] = loop
    for read in (lambda t: verify_query_tree(t, ops), tree_to_dict, render_tree):
        with pytest.raises(ValidationError, match="contains itself"):
            read(loop)

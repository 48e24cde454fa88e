"""Property based checks over randomized structures and seeds."""

import hashlib
import math
import operator
import random
from enum import IntEnum
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opquery import (
    AbelianSpec,
    MaxChainSpec,
    NotInClassError,
    OperationSet,
    OpTable,
    Oracle,
    SearchStats,
    ValidationError,
    abelian_automorphism_count,
    abelian_invariant_factorizations,
    abelian_type,
    build_abelian,
    build_max_chain,
    build_ring,
    check_axioms,
    count_automorphisms,
    count_ring_automorphisms,
    distributive_laws_hold,
    enumerate_orbit,
    greedy_generating_set,
    invariant_factors_from_cyclic,
    merge_sort_worst_case,
    minimal_worst_case,
    new_hidden,
    new_hidden_ring,
    orbit_size,
    oracle_for,
    random_permutation,
    recover_abelian,
    recover_abelian_prime,
    recover_max_chain,
    recover_order11,
    recover_ring_full,
    recover_ring_multiplication,
    replay_matches,
    ring_oracles,
    tree_from_dict,
    tree_to_dict,
    verify_query_tree,
)
from opquery.algebra import _relabelings, _table_dtype, are_isomorphic
from opquery.recovery import RecoveryResult, _additive_closure, _cached_tower_positions, _merge_schedule, _merge_sort, _spent

# invariant factor chains with n = prod(factors) <= 24
factor_chains = st.lists(st.integers(2, 12), min_size=0, max_size=3).map(
    lambda ms: invariant_factors_from_cyclic(ms)
).filter(lambda fs: math.prod(fs) <= 24)

# every abelian group of order <= 32
factor_chains_upto_32 = st.sampled_from([fs for n in range(1, 33) for fs in abelian_invariant_factorizations(n)])

seeds = st.integers(0, 2**31 - 1)


@given(factor_chains, seeds)
@settings(max_examples=150, deadline=None)
def test_abelian_recovery_exact_cost(factors, seed):
    spec = AbelianSpec(factors)
    inst = new_hidden(spec, seed)
    o = oracle_for(inst)
    res = recover_abelian(o)
    assert res.table == inst.truth
    assert res.queries_used == spec.n == o.count
    assert replay_matches(res.trace, inst.truth)


@given(factor_chains)
@settings(max_examples=60, deadline=None)
def test_abelian_tables_satisfy_axioms(factors):
    t = build_abelian(list(factors))
    assert check_axioms(t, "abelian_group")


@given(factor_chains, st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_automorphism_count_is_relabel_invariant(factors, seed):
    t = build_abelian(list(factors))
    if t.n > 6:
        return
    perm = random_permutation(t.n, seed)
    assert count_automorphisms(t) == count_automorphisms(t.relabel(perm))


@given(st.integers(1, 40), seeds)
@settings(max_examples=120, deadline=None)
def test_max_chain_recovery_within_bound(n, seed):
    inst = new_hidden(MaxChainSpec(n), seed)
    o = oracle_for(inst)
    res = recover_max_chain(o)
    assert res.table == inst.truth
    assert res.queries_used <= merge_sort_worst_case(n)


@given(st.integers(1, 64))
@settings(max_examples=64, deadline=None)
def test_merge_sort_worst_case_recurrence(n):
    # W(1) = 0, W(n) = W(ceil(n/2)) + W(floor(n/2)) + n - 1
    def w(m):
        return 0 if m <= 1 else w((m + 1) // 2) + w(m // 2) + m - 1

    assert merge_sort_worst_case(n) == w(n)


def test_merge_sort_worst_case_counts_every_comparison_of_the_merge_schedule():
    # a merge of hi - lo items makes at most hi - lo - 1 comparisons
    for n in range(1, 1025):
        assert merge_sort_worst_case(n) == sum(hi - lo - 1 for lo, _, hi in _merge_schedule(n)), n


@given(st.sampled_from(["z4", "z8", "z9", "gf4", "gf8", "gf9", "z2xz2", "z2xgf4", "z6"]), seeds)
@settings(max_examples=80, deadline=None)
def test_ring_recovery_within_budget(name, seed):
    inst = new_hidden_ring(name, seed)
    oa, om = ring_oracles(inst)
    add_res, mul_res = recover_ring_full(oa, om)
    assert add_res.table == inst.truth.add
    assert mul_res.table == inst.truth.mul
    n = inst.truth.n
    assert add_res.queries_used + mul_res.queries_used <= n + math.log2(n) ** 2 + 1e-9
    assert distributive_laws_hold(add_res.table.entries, mul_res.table.entries)


def _naive_greedy_generators(t: np.ndarray) -> list[int]:
    """Each generator is the smallest element outside the subgroup the earlier ones generate."""
    n = t.shape[0]
    e = next(x for x in range(n) if (t[x] == np.arange(n)).all())
    gens: list[int] = []
    sub = {e}
    while len(sub) < n:
        gens.append(min(x for x in range(n) if x not in sub))
        while True:
            grown = sub | {int(t[x, g]) for x in sub for g in gens}
            if grown == sub:
                break
            sub = grown
    return gens


@given(factor_chains_upto_32, seeds)
@settings(max_examples=150, deadline=None)
def test_additive_closure_order_matches_naive_generators(factors, seed):
    inst = new_hidden(AbelianSpec(factors), seed)
    t = inst.truth.entries
    e, gens, order = _additive_closure(inst.truth)
    assert gens == greedy_generating_set(inst.truth) == _naive_greedy_generators(t)
    assert sorted(x for x, _, _ in order) == [x for x in range(inst.truth.n) if x != e]
    filled = {e}
    for x, parent, a in order:
        assert parent in filled and t[parent, gens[a]] == x
        filled.add(x)


@given(st.integers(1, 52), seeds, seeds)
@settings(max_examples=100, deadline=None)
def test_random_permutation_properties(n, s1, s2):
    p = random_permutation(n, s1)
    assert sorted(p) == list(range(n))
    assert random_permutation(n, s1) == p


# sha256 over bytes(random_permutation(n, s)) for n = 1..64 and s = 0..49 in
# that order, as the seeded Fisher-Yates stream gave it when this was pinned:
# every hidden instance depends on it
RANDOM_PERMUTATION_DIGEST = "ba569842ffbf556a25d7c9881c7c9579ea4a0f023bd7d75615e39c6971052d91"


def test_random_permutation_stream_is_pinned():
    h = hashlib.sha256()
    for n in range(1, 65):
        for s in range(50):
            h.update(bytes(random_permutation(n, s)))
    assert h.hexdigest() == RANDOM_PERMUTATION_DIGEST


def _reference_relabel(t: OpTable, perm) -> np.ndarray:
    """The relabel gather through np.ix_, kept as the reference."""
    p = np.asarray(perm, dtype=np.int64)
    inv = np.empty(t.n, dtype=np.int64)
    inv[p] = np.arange(t.n)
    return p[t.entries[np.ix_(inv, inv)]]


def _check_relabel(t: OpTable, perm) -> None:
    r = t.relabel(perm)
    assert r.entries.dtype == _table_dtype(t.n) and not r.entries.flags.writeable
    assert np.array_equal(r.entries, _reference_relabel(t, perm))
    with pytest.raises(ValueError):
        r.entries[0, 0] = 0
    # the result would pass the checks that relabel skips
    assert OpTable(r.entries) == r


@given(st.integers(1, 12), seeds)
@settings(max_examples=200, deadline=None)
def test_relabel_matches_ix_gather_on_random_tables(n, seed):
    t = OpTable(np.random.default_rng(seed).integers(0, n, size=(n, n)))
    _check_relabel(t, random_permutation(n, seed))


def test_relabel_matches_ix_gather_on_a_large_max_chain():
    t = build_max_chain(512)
    for seed in range(3):
        _check_relabel(t, random_permutation(512, seed))


@pytest.mark.parametrize("name", ["z4xgf9", "gf64", "z32", "gf9", "z6"])
def test_hidden_ring_truth_keeps_the_ring_laws(name):
    # RingTables.relabel skips the law checks; they must hold anyway
    for seed in range(4):
        truth = new_hidden_ring(name, seed).truth
        assert check_axioms(truth.add, "abelian_group")
        assert distributive_laws_hold(truth.add.entries, truth.mul.entries)
        assert not (truth.add.entries.flags.writeable or truth.mul.entries.flags.writeable)


@given(st.lists(st.integers(2, 20), min_size=0, max_size=4))
@settings(max_examples=100, deadline=None)
def test_invariant_factors_canonical(moduli):
    fs = invariant_factors_from_cyclic(moduli)
    assert math.prod(fs) == math.prod(moduli)
    for a, b in zip(fs, fs[1:]):
        assert b % a == 0
    assert all(f >= 2 for f in fs)


# ---------------------------------------------------------------------------
# law checks on generators agree with the full n^3 cube


def _cube_associative(t: np.ndarray) -> bool:
    return bool(np.array_equal(t[t], t[:, t]))


def _cube_distributive(add: np.ndarray, mul: np.ndarray) -> bool:
    left = np.array_equal(mul[:, add], add[mul[:, :, None], mul[:, None, :]])
    right = np.array_equal(mul[add], add[mul[:, None, :], mul[None, :, :]])
    return bool(left and right)


def _reference_axioms(t: np.ndarray, which: str) -> bool:
    """Textbook definitions over the whole cube."""
    if not _cube_associative(t):
        return False
    if which == "semigroup":
        return True
    n = t.shape[0]
    idx = np.arange(n)
    ids = [e for e in range(n) if (t[e] == idx).all() and (t[:, e] == idx).all()]
    if not ids:
        return False
    e = ids[0]
    if not all(((t[x] == e) & (t[:, x] == e)).any() for x in range(n)):
        return False
    return which == "group" or bool(np.array_equal(t, t.T))


def _assert_axioms_match_reference(t: np.ndarray) -> None:
    for which in ("semigroup", "group", "abelian_group"):
        assert check_axioms(OpTable(t), which) == _reference_axioms(t, which), which


def _random_table(rng: random.Random, n: int) -> np.ndarray:
    return np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)], dtype=np.int64)


def _corrupt(rng: random.Random, table: np.ndarray) -> np.ndarray:
    out = table.copy()
    n = out.shape[0]
    out[rng.randrange(n), rng.randrange(n)] = rng.randrange(n)
    return out


def _swap(rng: random.Random, table: np.ndarray) -> np.ndarray:
    out = table.copy()
    n = out.shape[0]
    a, b, c, d = (rng.randrange(n) for _ in range(4))
    out[a, b], out[c, d] = out[c, d], out[a, b]
    return out


def _damage(rng: random.Random, table: np.ndarray, kind: str) -> np.ndarray:
    if kind == "corrupted":
        return _corrupt(rng, table)
    if kind == "swapped":
        return _swap(rng, table)
    return table


@given(st.integers(1, 5), seeds)
@settings(max_examples=400, deadline=None)
def test_axiom_checks_match_cube_on_random_tables(n, seed):
    _assert_axioms_match_reference(_random_table(random.Random(seed), n))


@given(
    st.one_of(factor_chains.map(AbelianSpec), st.integers(1, 24).map(MaxChainSpec)),
    st.sampled_from(["intact", "corrupted", "swapped"]),
    seeds,
)
@settings(max_examples=300, deadline=None)
def test_axiom_checks_match_cube_on_damaged_tables(spec, kind, seed):
    truth = new_hidden(spec, seed).truth.entries
    _assert_axioms_match_reference(_damage(random.Random(seed), truth, kind))


rings = st.sampled_from(["z4", "z6", "z8", "z2xz2", "gf4", "gf8", "gf9", "z2xgf4", "z3xz3", "z2xz4"])


@given(rings, st.sampled_from(["intact", "corrupted", "swapped", "random", "additive"]), seeds)
@settings(max_examples=300, deadline=None)
def test_distributivity_check_matches_cube(name, kind, seed):
    rng = random.Random(seed)
    truth = new_hidden_ring(name, seed).truth
    add = truth.add.entries
    if kind == "random":
        mul = _random_table(rng, truth.n)
    elif kind == "additive":
        mul = add  # the addition itself: a bi-additive table only by exception
    else:
        mul = _damage(rng, truth.mul.entries, kind)
    assert distributive_laws_hold(add, mul) == _cube_distributive(add, mul)


def test_distributivity_check_needs_associative_addition():
    n = 3
    idx = np.arange(n)
    sub = (idx[:, None] - idx[None, :]) % n  # x - y: closed, not associative
    assert not _cube_associative(sub)
    with pytest.raises(ValidationError, match="associative"):
        distributive_laws_hold(sub, build_ring("z3").mul.entries)


# ---------------------------------------------------------------------------
# symmetry brute force: the chunked permutation kernel agrees with the loops
# that tried one permutation at a time


def _loop_count(*tables: np.ndarray) -> int:
    """Relabelings fixing every table, one permutation at a time."""
    count = 0
    for perm in permutations(range(tables[0].shape[0])):
        p = np.array(perm)
        if all(np.array_equal(p[t], t[np.ix_(p, p)]) for t in tables):
            count += 1
    return count


def _loop_isomorphism(a: np.ndarray, b: np.ndarray):
    """The first permutation in lexicographic order carrying a onto b, or None."""
    for perm in permutations(range(a.shape[0])):
        p = np.array(perm)
        if np.array_equal(p[a], b[np.ix_(p, p)]):
            return tuple(perm)
    return None


def _loop_orbit(t: np.ndarray) -> np.ndarray:
    """Every distinct relabeling, deduped on bytes and stacked in byte order."""
    n = t.shape[0]
    idx = np.arange(n)
    seen: dict[bytes, np.ndarray] = {}
    for perm in permutations(range(n)):
        p = np.array(perm)
        inv = np.empty(n, dtype=np.int64)
        inv[p] = idx
        tab = p[t[np.ix_(inv, inv)]].astype(np.int8)
        seen.setdefault(tab.tobytes(), tab)
    return np.stack([seen[k] for k in sorted(seen)])


def _assert_kernel_matches_loops(a: np.ndarray, b: np.ndarray) -> None:
    assert count_automorphisms(OpTable(a)) == _loop_count(a)
    assert are_isomorphic(OpTable(a), OpTable(b)) == _loop_isomorphism(a, b)
    orbit = enumerate_orbit(OpTable(a)).tables
    reference = _loop_orbit(a)
    assert orbit.dtype == reference.dtype
    assert np.array_equal(orbit, reference)


@given(st.integers(1, 5), seeds)
@settings(max_examples=200, deadline=None)
def test_symmetry_kernel_matches_loops_on_random_tables(n, seed):
    rng = random.Random(seed)
    a = _random_table(rng, n)
    _assert_kernel_matches_loops(a, _random_table(rng, n))
    _assert_kernel_matches_loops(a, OpTable(a).relabel(rng.sample(range(n), n)).entries)


@given(
    st.one_of(factor_chains.filter(lambda fs: math.prod(fs) <= 6).map(AbelianSpec), st.integers(1, 6).map(MaxChainSpec)),
    st.sampled_from(["intact", "corrupted", "swapped"]),
    seeds,
)
@settings(max_examples=60, deadline=None)
def test_symmetry_kernel_matches_loops_on_structured_tables(spec, kind, seed):
    rng = random.Random(seed)
    a = _damage(rng, new_hidden(spec, seed).truth.entries, kind)
    _assert_kernel_matches_loops(a, new_hidden(spec, seed + 1).truth.entries)


@given(st.sampled_from(["z2", "z3", "z4", "z5", "z6", "gf4", "z2xz2", "z2xz3"]), seeds)
@settings(max_examples=40, deadline=None)
def test_ring_automorphism_kernel_matches_loop(name, seed):
    ring = new_hidden_ring(name, seed).truth
    assert count_ring_automorphisms(ring) == _loop_count(ring.add.entries, ring.mul.entries)


def test_symmetry_kernel_on_the_trivial_table():
    t = build_abelian([]).entries
    assert _loop_count(t) == 1
    _assert_kernel_matches_loops(t, t)


@pytest.mark.parametrize(
    "a, b",
    [
        # n = 7: 5,040 permutations end in a partial chunk
        (new_hidden(MaxChainSpec(7), 3).truth.entries, build_max_chain(7).entries),
        (_corrupt(random.Random(7), build_abelian([7]).entries), build_abelian([7]).entries),
        # n = 8: the largest size under the default cap
        (new_hidden(AbelianSpec((2, 4)), 5).truth.entries, build_abelian([2, 4]).entries),
        (new_hidden(AbelianSpec((2, 2, 2)), 6).truth.entries, new_hidden(AbelianSpec((2, 2, 2)), 7).truth.entries),
    ],
    ids=["maxchain7", "corrupted-z7", "z2xz4", "z2^3"],
)
def test_symmetry_kernel_matches_loops_across_chunks(a, b):
    _assert_kernel_matches_loops(a, b)


def test_ring_automorphism_kernel_matches_loop_at_n8():
    ring = new_hidden_ring("gf8", 4).truth
    assert count_ring_automorphisms(ring) == _loop_count(ring.add.entries, ring.mul.entries) == 3


# ---------------------------------------------------------------------------
# closed-form automorphism counts: abelian_type reads a relabelled group's
# invariant factors back, and the Hillar-Rhea count matches the brute force

ABELIAN_UP_TO_64 = [fs for n in range(1, 65) for fs in abelian_invariant_factorizations(n)]


@given(seeds)
@settings(max_examples=5, deadline=None)
def test_abelian_type_reads_back_every_group_up_to_64(seed):
    for factors in ABELIAN_UP_TO_64:
        t = build_abelian(factors)
        assert abelian_type(t.relabel(random_permutation(t.n, seed))) == factors


@given(st.one_of(factor_chains.map(AbelianSpec), st.integers(2, 24).map(MaxChainSpec)), st.sampled_from(["corrupted", "swapped", "random"]), seeds)
@settings(max_examples=300, deadline=None)
def test_abelian_type_is_none_off_abelian_groups(spec, kind, seed):
    rng = random.Random(seed)
    truth = new_hidden(spec, seed).truth.entries
    t = _random_table(rng, spec.n) if kind == "random" else _damage(rng, truth, kind)
    if isinstance(spec, MaxChainSpec):
        assert abelian_type(OpTable(truth)) is None
    if not check_axioms(OpTable(t), "abelian_group"):
        assert abelian_type(OpTable(t)) is None
    else:  # damage that happens to leave an abelian group
        assert math.prod(abelian_type(OpTable(t))) == spec.n


@given(seeds)
@settings(max_examples=5, deadline=None)
def test_abelian_automorphism_count_matches_brute_force_up_to_8(seed):
    for factors in (fs for fs in ABELIAN_UP_TO_64 if math.prod(fs) <= 8):
        t = build_abelian(factors).relabel(random_permutation(math.prod(factors), seed))
        assert abelian_automorphism_count(factors) == count_automorphisms(t), factors
        assert orbit_size(t) == math.factorial(t.n) // count_automorphisms(t)


@given(st.integers(2, 5), st.sampled_from(["random", "corrupted"]), seeds)
@settings(max_examples=200, deadline=None)
def test_orbit_size_of_other_tables_is_the_brute_force(n, kind, seed):
    rng = random.Random(seed)
    t = _random_table(rng, n) if kind == "random" else _corrupt(rng, build_abelian([n]).entries)
    assert orbit_size(OpTable(t)) == math.factorial(n) // _loop_count(t)


# ---------------------------------------------------------------------------
# exact search: the lazy minimax agrees with the search that grouped every
# query's answers up front, on the optimum and on the witness tree


def _reference_minimal_worst_case(tables: np.ndarray) -> tuple[int, dict]:
    """Memoized minimax with one answer dict per query per state; (depth, tree_to_dict of the witness)."""
    n = tables.shape[1]
    all_queries = [(x, y) for x in range(n) for y in range(n)]
    memo_value: dict[tuple[int, ...], int] = {}
    memo_choice: dict[tuple[int, ...], tuple[tuple[int, int], dict[int, tuple[int, ...]]]] = {}

    def partitions(ids):
        rows = tables[np.asarray(ids)]
        out = []
        for x, y in all_queries:
            groups: dict[int, list[int]] = {}
            for op_id, z in zip(ids, rows[:, x, y]):
                groups.setdefault(int(z), []).append(op_id)
            if len(groups) > 1:
                out.append(((x, y), {z: tuple(g) for z, g in groups.items()}))
        return out

    def solve(ids):
        if len(ids) <= 1:
            return 0
        if ids in memo_value:
            return memo_value[ids]
        cands = partitions(ids)
        if not cands:
            raise ValidationError("two candidates answer every query alike")
        widest = max(len(groups) for _, groups in cands)
        floor, reach = 0, 1
        while reach < len(ids):
            reach *= widest
            floor += 1
        best = best_choice = None
        for query, groups in cands:
            worst = 0
            aborted = False
            for z in sorted(groups):
                worst = max(worst, solve(groups[z]))
                if best is not None and 1 + worst >= best:
                    aborted = True
                    break
            if aborted:
                continue
            if best is None or 1 + worst < best:
                best, best_choice = 1 + worst, (query, groups)
                if best == floor:
                    break
        memo_value[ids] = best
        memo_choice[ids] = best_choice
        return best

    def build(ids):
        if len(ids) == 1:
            return {"leaf": ids[0]}
        (x, y), groups = memo_choice[ids]
        return {"query": [x, y], "children": {str(z): build(groups[z]) for z in sorted(groups)}}

    root = tuple(range(len(tables)))
    return solve(root), build(root)


def _assert_search_matches_reference(ops) -> None:
    """The search on ops, an OperationSet or a stack of tables, against the reference; an orbit from enumerate_orbit is searched by symmetry."""
    ops = ops if isinstance(ops, OperationSet) else OperationSet(ops)
    depth, tree = minimal_worst_case(ops, budget=len(ops))
    assert (depth, tree_to_dict(tree)) == _reference_minimal_worst_case(ops.tables)


def _random_stack(rng: random.Random, n: int, m: int, commutative: bool) -> np.ndarray:
    """Up to m distinct random tables, in the order first drawn."""
    distinct: dict[bytes, np.ndarray] = {}
    for _ in range(m):
        t = _random_table(rng, n)
        if commutative:
            t = np.triu(t) + np.triu(t, 1).T
        distinct.setdefault(t.tobytes(), t)
    return np.stack(list(distinct.values()))


@given(st.integers(1, 4), st.integers(1, 40), st.booleans(), seeds)
@settings(max_examples=300, deadline=None)
def test_minimal_worst_case_matches_reference_on_random_stacks(n, m, commutative, seed):
    # commutative tables answer (x, y) and (y, x) alike, so every state holds duplicate partitions
    _assert_search_matches_reference(_random_stack(random.Random(seed), n, m, commutative))


def test_minimal_worst_case_matches_reference_where_a_refused_state_is_searched_again():
    """Covers the repeat search: one state of this stack first fails high,
    refused under a low cap with only a lower bound, and a later call with a
    higher cap needs its exact value, so it is searched again from that bound.
    Random stacks rarely take this path (Z_7 takes it once); this stack of
    twelve commutative tables on 3 points was found by scanning seeds.
    """
    _assert_search_matches_reference(_random_stack(random.Random(191), 3, 12, True))


@given(st.integers(2, 4), st.one_of(st.just(2), st.integers(3, 6)), st.booleans(), seeds)
@settings(max_examples=200, deadline=None)
def test_minimal_worst_case_matches_reference_on_two_to_six_tables(n, m, commutative, seed):
    # two candidates, and a state that one query separates, are valued without a scan
    rng = random.Random(seed)
    stack = _random_stack(rng, n, m, commutative)
    while len(stack) < m:
        stack = _random_stack(rng, n, m, commutative)
    _assert_search_matches_reference(stack)


_Z3 = build_abelian([3]).entries
_Z3_ALTERED = _Z3.copy()
_Z3_ALTERED[1, 2] = (_Z3[1, 2] + 1) % 3


@pytest.mark.parametrize(
    "ops, query",
    [(enumerate_orbit(build_max_chain(2)), (0, 1)), (OperationSet(np.stack([_Z3, _Z3_ALTERED])), (1, 2))],
    ids=["closed", "open"],
)
def test_two_tables_are_told_apart_by_their_first_differing_query(ops, query):
    # the closed pair (the orbit of the max chain on 2 points) agrees on the
    # representative (0, 0); the open pair agrees on every query before (1, 2)
    stack = ops.tables
    stats = SearchStats()
    depth, tree = minimal_worst_case(ops, stats=stats)
    x, y = query
    assert depth == 1
    assert tree_to_dict(tree) == {"query": list(query), "children": {str(stack[0, x, y]): {"leaf": 0}, str(stack[1, x, y]): {"leaf": 1}}}
    assert stats.states == 0 and stats.settled == 1


@pytest.mark.parametrize("k", [3, 17, 40])
def test_a_block_worth_1_takes_its_first_separating_query(k):
    # (1, 0) is the first query to tell all k candidates apart, and (1, 1) the second
    stack = np.random.default_rng(k).integers(-1, 2, size=(k, 2, 2))
    stack[:, 1, 0] = np.arange(k) - k // 2
    stack[:, 1, 1] = -np.arange(k)
    # two copies told apart by (0, 1) alone: a root worth 2 over two blocks of k worth 1
    twice = np.concatenate([stack, stack])
    twice[:, 0, 1] = np.repeat([0, 5], k)
    for rows in (stack, twice):
        _assert_search_matches_reference(rows)


@given(
    st.sampled_from([build_abelian([4]), build_abelian([2, 2]), build_abelian([5]), build_max_chain(3), build_max_chain(4)]),
    seeds,
)
@settings(max_examples=40, deadline=None)
def test_minimal_worst_case_matches_reference_on_relabelled_orbits(canonical, seed):
    # the orbit enumerated from a relabelled start is searched by symmetry;
    # its tables relabelled and shuffled are the same set, searched open
    rng = random.Random(seed)
    perm = rng.sample(range(canonical.n), canonical.n)
    orbit = enumerate_orbit(canonical.relabel(perm))
    _assert_search_matches_reference(orbit)
    stack = np.stack([OpTable(t).relabel(perm).entries for t in orbit.tables])
    _assert_search_matches_reference(stack[rng.sample(range(len(stack)), len(stack))])


def _random_orbit(rng: random.Random, n: int, commutative: bool) -> OperationSet:
    """The orbit of a random table on n points, as enumerate_orbit builds it."""
    return enumerate_orbit(OpTable(_random_stack(rng, n, 1, commutative)[0]))


@given(st.integers(3, 4), st.booleans(), st.integers(1, 2), seeds)
@settings(max_examples=40, deadline=None)
def test_minimal_worst_case_matches_reference_on_closed_sets_that_are_not_groups(n, commutative, orbits, seed):
    # orbits of random tables: conjugacy keys are in play, but with
    # stabilisers other than those of a group's orbit; a union of two orbits
    # is closed as well, but no enumerate_orbit result, so it is searched open
    rng = random.Random(seed)
    found = [_random_orbit(rng, n, commutative) for _ in range(orbits)]
    _assert_search_matches_reference(found[0])
    if orbits == 2:
        tables = {t.tobytes(): t for ops in found for t in ops.tables}
        _assert_search_matches_reference(np.stack([tables[k] for k in sorted(tables)]))


def test_closed_sets_that_are_not_groups_take_conjugate_hits():
    rng = random.Random(3)
    for commutative in (False, True, False, True):
        ops = _random_orbit(rng, 4, commutative)
        stats = SearchStats()
        depth, tree = minimal_worst_case(ops, budget=len(ops), stats=stats)
        assert (depth, tree_to_dict(tree)) == _reference_minimal_worst_case(ops.tables)
        assert stats.conjugate_hits > 0, commutative


def _with_duplicate(rng: random.Random, stack: list) -> OperationSet:
    """The distinct tables of stack as an OperationSet, one of them then written over a further row."""
    at = rng.randrange(len(stack) + 1)
    stack.insert(at, np.full_like(stack[0], -1))  # no table of 0..n-1
    ops = OperationSet(np.stack(stack))
    ops.tables[at] = ops.tables[rng.choice([i for i in range(len(stack)) if i != at])]
    return ops


@given(st.integers(2, 4), st.integers(1, 20), st.booleans(), seeds)
@settings(max_examples=100, deadline=None)
def test_minimal_worst_case_rejects_equal_tables(n, m, commutative, seed):
    rng = random.Random(seed)
    ops = _with_duplicate(rng, list(_random_stack(rng, n, m, commutative)))
    with pytest.raises(ValidationError):
        minimal_worst_case(ops)


SMALL_ORBITS = [build_abelian([4]), build_abelian([2, 2]), build_abelian([5]), build_max_chain(3), build_max_chain(4)]


@given(st.sampled_from(SMALL_ORBITS), seeds)
@settings(max_examples=40, deadline=None)
def test_minimal_worst_case_matches_reference_on_orbits_less_one_table(canonical, seed):
    # the set is no longer closed under relabeling, so no query or answer
    # may be skipped for symmetry
    rng = random.Random(seed)
    stack = enumerate_orbit(canonical).tables
    stack = np.delete(stack, rng.randrange(len(stack)), axis=0)
    stats = SearchStats()
    depth, tree = minimal_worst_case(OperationSet(stack), budget=len(stack), stats=stats)
    assert stats.queries_skipped == stats.conjugate_hits == 0
    assert (depth, tree_to_dict(tree)) == _reference_minimal_worst_case(stack)


@given(st.sampled_from(SMALL_ORBITS), seeds)
@settings(max_examples=40, deadline=None)
def test_minimal_worst_case_rejects_an_orbit_with_a_duplicate(canonical, seed):
    rng = random.Random(seed)
    ops = _with_duplicate(rng, list(enumerate_orbit(canonical).tables))
    with pytest.raises(ValidationError):
        minimal_worst_case(ops, budget=len(ops))


# ---------------------------------------------------------------------------
# orbit enumeration: the walk by star transpositions gives the kernel's stack


def _kernel_orbit(t: OpTable) -> np.ndarray:
    """Every relabeling of t by all n! permutations, deduped and in byte order."""
    keys = {table.tobytes() for _, images in _relabelings(t.entries[None].astype(np.int8)) for table in images[0]}
    return np.stack([np.frombuffer(k, dtype=np.int8).reshape(t.n, t.n) for k in sorted(keys)])


ABELIAN_UP_TO_8 = [fs for fs in ABELIAN_UP_TO_64 if math.prod(fs) <= 8]


@given(seeds)
@settings(max_examples=3, deadline=None)
def test_enumerate_orbit_matches_the_kernel_on_abelian_groups_up_to_8(seed):
    for factors in ABELIAN_UP_TO_8:
        t = build_abelian(factors).relabel(random_permutation(math.prod(factors), seed))
        want = _kernel_orbit(t)
        got = enumerate_orbit(t).tables
        assert (got.dtype, got.shape) == (want.dtype, want.shape), factors
        assert got.tobytes() == want.tobytes(), factors


# ---------------------------------------------------------------------------
# Oracle.query: exact ints in range skip the normalizing checks, and nothing
# else may change


class _Coordinate(IntEnum):
    LOW = 0
    MID = 5
    HIGH = 11


def _reference_query(truth: OpTable, transcript: list, x, y) -> int:
    """``Oracle.query`` as it was before exact ints in range took a shorter path."""
    try:
        if x.__class__ is bool or y.__class__ is bool:
            raise TypeError("bool")
        x, y = operator.index(x), operator.index(y)
    except TypeError:
        raise ValidationError(f"query ({x!r}, {y!r}) needs integer coordinates") from None
    n = truth.n
    if not (0 <= x < n and 0 <= y < n):
        raise ValidationError(f"query ({x}, {y}) out of range for n = {n}")
    z = truth.entries.item(x, y)
    transcript.append((x, y, z))
    return z


def _assert_queries_as_before(truth: OpTable, pairs) -> None:
    """Each query answers or raises as ``_reference_query`` does, and both record the same transcript."""
    oracle, reference = Oracle(truth), []
    for x, y in pairs:
        outcomes = []
        for query in (oracle.query, lambda x, y: _reference_query(truth, reference, x, y)):
            try:
                z = query(x, y)
                outcomes.append((type(z), z))
            except ValidationError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], (x, y)
    assert oracle.count == len(reference)
    assert [tuple(map(type, entry)) for entry in oracle.transcript] == [(int, int, int)] * len(reference)
    assert oracle.transcript == tuple(reference)


@pytest.mark.parametrize("n", [1, 2, 11, 127, 128])
def test_oracle_query_on_every_exact_int_pair_at_and_around_the_range(n):
    # int8 tables end at n = 127
    _assert_queries_as_before(new_hidden(AbelianSpec.from_cyclic([n]), 7).truth, list(product(range(-1, n + 2), repeat=2)))


def test_oracle_query_on_a_seeded_sample_of_pairs_of_a_large_table():
    rng = random.Random(300)
    _assert_queries_as_before(new_hidden(MaxChainSpec(300), 7).truth, [(rng.randrange(300), rng.randrange(300)) for _ in range(5000)])


coordinates = st.one_of(
    st.integers(-2, 13),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(-3, 13).map(np.int64),
    st.integers(-3, 13).map(np.int8),
    st.integers(0, 13).map(np.uint16),
    st.sampled_from(_Coordinate),
    st.floats(allow_nan=True),
    st.text(max_size=3),
)


@given(st.integers(1, 12), seeds, st.lists(st.tuples(coordinates, coordinates), max_size=12))
@settings(max_examples=300, deadline=None)
def test_oracle_query_accepts_rejects_and_records_as_before(n, seed, pairs):
    _assert_queries_as_before(new_hidden(AbelianSpec.from_cyclic([n]), seed).truth, pairs)


# ---------------------------------------------------------------------------
# hostile oracles: a recovery either raises NotInClassError or returns an
# in-class table that agrees with every answer it was given


def _run_hostile(recover, truth: OpTable):
    """The recovered table, or None when the run raised NotInClassError."""
    oracle = Oracle(truth)
    try:
        res = recover(oracle)
    except NotInClassError:
        return None
    assert res.trace == oracle.transcript
    assert res.queries_used == oracle.count
    assert replay_matches(res.trace, res.table)
    return res.table


group_kinds = st.sampled_from(["random", "isotope", "corrupted", "swapped"])


def _hostile_group_table(n: int, kind: str, seed: int, factors: tuple[int, ...] = ()) -> OpTable:
    """A table of order n that may break the group laws; a damaged kind starts from the abelian group ``factors``, or a random one."""
    rng = random.Random(seed)
    if kind == "random":
        return OpTable(_random_table(rng, n))
    if kind == "isotope":
        # x*y = out[rows[x] + cols[y] mod n]: a quasigroup, a group only by luck
        rows, cols, out = (np.array(rng.sample(range(n), n)) for _ in range(3))
        return OpTable(out[build_abelian(AbelianSpec.from_cyclic([n])).entries[np.ix_(rows, cols)]])
    truth = new_hidden(AbelianSpec(factors or rng.choice(abelian_invariant_factorizations(n))), seed).truth
    if kind == "misanswered":
        # one answer the honest recovery reads is changed, so the damage is always seen
        oracle = Oracle(truth)
        recover_abelian(oracle)
        x, y, z = rng.choice(oracle.transcript)
        out = truth.entries.copy()
        out[x, y] = rng.choice([v for v in range(n) if v != z])
        return OpTable(out)
    return OpTable(_damage(rng, truth.entries, kind))


@given(st.integers(1, 12), group_kinds, seeds)
@settings(max_examples=300, deadline=None)
def test_hostile_abelian_oracle_has_two_outcomes(n, kind, seed):
    table = _run_hostile(recover_abelian, _hostile_group_table(n, kind, seed))
    if table is not None:
        assert check_axioms(table, "abelian_group")


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), group_kinds, seeds)
@settings(max_examples=300, deadline=None)
def test_hostile_prime_oracle_has_two_outcomes(n, kind, seed):
    # every group of prime order is cyclic, so a group table is in class
    table = _run_hostile(recover_abelian_prime, _hostile_group_table(n, kind, seed))
    if table is not None:
        assert check_axioms(table, "abelian_group")


@given(group_kinds, seeds)
@settings(max_examples=300, deadline=None)
def test_hostile_order11_oracle_has_two_outcomes(kind, seed):
    table = _run_hostile(recover_order11, _hostile_group_table(11, kind, seed))
    if table is not None:
        assert check_axioms(table, "abelian_group")


def _is_max_table(t: np.ndarray) -> bool:
    """True iff t is x*y = max(x, y) for some total order of the carrier."""
    n = t.shape[0]
    idx = np.arange(n)
    rank = (t == idx[:, None]).sum(axis=1)  # x wins against rank[x] elements, itself included
    if sorted(rank.tolist()) != list(range(1, n + 1)):
        return False
    return bool(np.array_equal(t, np.where(rank[:, None] >= rank[None, :], idx[:, None], idx[None, :])))


chain_kinds = st.sampled_from(["random", "tournament", "corrupted", "swapped"])


def _hostile_chain_table(n: int, kind: str, seed: int) -> OpTable:
    rng = random.Random(seed)
    if kind == "random":
        return OpTable(_random_table(rng, n))
    if kind == "tournament":
        # each pair has a winner, but the wins need not follow any order
        idx = np.arange(n)
        upper = np.array([[rng.random() < 0.5 for _ in range(n)] for _ in range(n)])
        wins = np.where(idx[:, None] < idx[None, :], upper, ~upper.T)  # wins[x, y]: x beats y
        return OpTable(np.where(wins, idx[:, None], idx[None, :]))
    return OpTable(_damage(rng, new_hidden(MaxChainSpec(n), seed).truth.entries, kind))


@given(st.integers(1, 12), chain_kinds, seeds)
@settings(max_examples=300, deadline=None)
def test_hostile_max_chain_oracle_has_two_outcomes(n, kind, seed):
    table = _run_hostile(recover_max_chain, _hostile_chain_table(n, kind, seed))
    if table is not None:
        assert _is_max_table(table.entries)


def _reference_merge_sort(items: list[int], bigger) -> list[int]:
    """The merge sort of ``recover_max_chain`` as a recursion over a checked comparison, kept as the reference."""
    if len(items) <= 1:
        return items
    mid = len(items) // 2
    left = _reference_merge_sort(items[:mid], bigger)
    right = _reference_merge_sort(items[mid:], bigger)
    merged: list[int] = []
    i = j = 0
    while i < len(left) and j < len(right):
        if bigger(left[i], right[j]) == right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged


def _reference_max_chain_order(oracle: Oracle) -> list[int]:
    def bigger(x: int, y: int) -> int:
        z = oracle.query(x, y)
        if z != x and z != y:
            raise NotInClassError(f"query ({x}, {y}) -> {z} is outside the pair; not a max table")
        return z

    return _reference_merge_sort(list(range(oracle.n)), bigger)


def _outcome(run, oracle: Oracle):
    try:
        return run(oracle), oracle.transcript
    except NotInClassError as exc:
        return str(exc), oracle.transcript


@given(st.integers(1, 40), st.sampled_from(["honest", "random", "tournament", "corrupted", "swapped"]), seeds)
@settings(max_examples=300, deadline=None)
def test_max_chain_merge_matches_the_reference_merge(n, kind, seed):
    # same order or same error, after the same queries in the same order
    truth = new_hidden(MaxChainSpec(n), seed).truth if kind == "honest" else _hostile_chain_table(n, kind, seed)
    want = _outcome(_reference_max_chain_order, Oracle(truth))
    got = _outcome(lambda oracle: _merge_sort(list(range(n)), oracle.query), Oracle(truth))
    assert got == want
    result = _outcome(recover_max_chain, Oracle(truth))
    if isinstance(want[0], str):
        assert result == want
    else:
        assert result[1] == want[1] and result[0].table == build_max_chain(n).relabel(want[0])


@pytest.mark.parametrize("n", [127, 128, 181, 182, 255, 256, 512])
def test_honest_max_chain_recovery_matches_the_reference_merge_across_the_fill_switches(n):
    # tables past n = 127 are int16, and past 181 rows (181^2 <= 2^15 < 182^2) the fill goes a block of rows at a time
    truth = new_hidden(MaxChainSpec(n), n).truth
    order, transcript = _outcome(_reference_max_chain_order, Oracle(truth))
    assert _outcome(lambda oracle: _merge_sort(list(range(n)), oracle.query), Oracle(truth)) == (order, transcript)
    result, trace = _outcome(recover_max_chain, Oracle(truth))
    assert trace == result.trace == transcript
    assert result.table == build_max_chain(n).relabel(order) == truth


def _reference_recover_abelian(oracle: Oracle) -> RecoveryResult:
    """The element-indexed fill of ``recover_abelian``, kept as the reference.

    The same queries; each coset step writes its products with one 4-D
    broadcast gather into a table that starts at -1.
    """
    n = oracle.n
    start = oracle.count
    table = np.full((n, n), -1, dtype=np.int64)

    a = 0
    chain = [a]
    seen = {a}
    while True:
        nxt = oracle.query(chain[-1], a)
        if nxt == a:
            break
        if nxt in seen:
            raise NotInClassError(f"query ({chain[-1]}, {a}) -> {nxt} revisits the power chain without closing it")
        chain.append(nxt)
        seen.add(nxt)
    k = len(chain)
    e = chain[-1]
    powers = np.array([e] + chain[:-1], dtype=np.int64)
    exps = np.arange(k)
    table[powers[:, None], powers] = powers[(exps[:, None] + exps) % k]

    members = set(chain)
    tower = [k]
    step_queries = [k]
    row = np.empty(n, dtype=np.int64)

    while len(members) < n:
        step_start = oracle.count
        b = min(x for x in range(n) if x not in members)
        bchain = [b]
        while bchain[-1] not in members:
            nxt = oracle.query(bchain[-1], b)
            if nxt in bchain and nxt not in members:
                raise NotInClassError(f"query ({bchain[-1]}, {b}) -> {nxt} cycles outside the known subgroup")
            bchain.append(nxt)
            if len(bchain) > n:
                raise NotInClassError(f"coset chain of {b} exceeded {n} elements; not a group")
        k = len(bchain)
        b_back = bchain[-1]
        bpow = bchain[:-1]

        base = sorted(members)
        h = len(base)
        elem = np.empty((h, k), dtype=np.int64)
        elem[:, 0] = base
        used = set(members)
        used.update(bpow)
        for r, s in enumerate(base):
            if s == e:
                elem[r, 1:] = bpow
                continue
            for i in range(1, k):
                z = oracle.query(s, bpow[i - 1])
                if z in used:
                    raise NotInClassError(f"query ({s}, {bpow[i - 1]}) -> {z} collides with an element already placed")
                used.add(z)
                elem[r, i] = z

        hs = elem[:, 0]
        row[hs] = np.arange(h)
        ext = np.concatenate((elem, elem[row[table[hs, b_back]], : k - 1]), axis=1)
        st = row[table[hs[:, None], hs]]
        exps = np.arange(k)
        prod = ext[st[:, None, :, None], (exps[:, None] + exps)[None, :, None, :]]
        flat = elem.ravel()
        table[flat[:, None], flat] = prod.reshape(h * k, h * k)

        members = used
        tower.append(len(members))
        step_queries.append(oracle.count - step_start)

    if (table < 0).any():
        raise NotInClassError("subgroup tower closed before covering every element")
    return RecoveryResult(
        OpTable(table),
        _spent(oracle, start, n, "abelian"),
        "abelian",
        trace=oracle.transcript_since(start),
        tower=tuple(tower),
        step_queries=tuple(step_queries),
    )


def _abelian_outcome(recover, truth: OpTable):
    """Everything a run of ``recover`` shows: its result fields, or the type and text of its error, and the transcript."""
    oracle = Oracle(truth)
    try:
        r = recover(oracle)
    except NotInClassError as exc:
        return type(exc), str(exc), oracle.transcript
    return r.table.entries.tobytes(), r.queries_used, r.trace, r.tower, r.step_queries, oracle.transcript


def _assert_abelian_matches_reference(truth: OpTable) -> None:
    assert _abelian_outcome(recover_abelian, truth) == _abelian_outcome(_reference_recover_abelian, truth)


def test_abelian_fill_matches_the_reference_on_honest_oracles():
    # each truth twice: its first run builds its tower's position table (and
    # caches it at n <= 16), the second reads that table from the cache
    for n in range(1, 65):
        for factors in abelian_invariant_factorizations(n):
            for seed in (0, 1, 7):
                truth = new_hidden(AbelianSpec(factors), seed).truth
                _cached_tower_positions.cache_clear()
                _assert_abelian_matches_reference(truth)
                _assert_abelian_matches_reference(truth)
    # seed 3 makes 0 the identity, so the first coset step is by 1; on Z_256 it
    # is one step with k = n
    assert recover_abelian(oracle_for(new_hidden(AbelianSpec((256,)), 3))).tower == (1, 256)
    for factors in ((256,), (16, 16), (2,) * 8):
        for seed in (2, 3):
            _assert_abelian_matches_reference(new_hidden(AbelianSpec(factors), seed).truth)


@given(st.integers(1, 24), group_kinds, seeds)
@settings(max_examples=300, deadline=None)
def test_abelian_fill_matches_the_reference_on_hostile_oracles(n, kind, seed):
    _assert_abelian_matches_reference(_hostile_group_table(n, kind, seed))


@pytest.mark.parametrize(
    "factors, kind",
    [((256,), kind) for kind in ("random", "isotope", "corrupted", "swapped", "misanswered")]
    + [((16, 16), kind) for kind in ("corrupted", "swapped", "misanswered")],
)
@pytest.mark.parametrize("seed", range(4))
def test_abelian_fill_matches_the_reference_on_damaged_large_tables(factors, kind, seed):
    # past _RENAME_BLOCK entries recover_abelian renders its table from the last coset step
    _assert_abelian_matches_reference(_hostile_group_table(math.prod(factors), kind, seed, factors))


def _bilinear_expansion(add: np.ndarray, oracle: Oracle) -> np.ndarray:
    """Reference fill: write every element as a sum of greedy generators and
    expand x*y as the sum of all queried generator products."""
    n = add.shape[0]
    e = next(x for x in range(n) if (add[x] == np.arange(n)).all())
    decomp: dict[int, tuple[int, ...]] = {e: ()}
    gens: list[int] = []
    while len(decomp) < n:
        g = min(x for x in range(n) if x not in decomp)
        gens.append(g)
        base = dict(decomp)
        gj, j = g, 1
        while gj not in base:
            for h, dh in base.items():
                decomp[int(add[h, gj])] = dh + (g,) * j
            gj, j = int(add[gj, g]), j + 1
    prod = {(a, b): oracle.query(a, b) for a in gens for b in gens}
    table = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            acc = e
            for gx in decomp[x]:
                for gy in decomp[y]:
                    acc = int(add[acc, prod[(gx, gy)]])
            table[x, y] = acc
    return table


@given(st.sampled_from(["z8", "gf8", "gf9", "z2xgf4"]), st.sampled_from(["random", "corrupted"]), seeds)
@settings(max_examples=200, deadline=None)
def test_hostile_ring_multiplication_oracle_has_two_outcomes(name, kind, seed):
    rng = random.Random(seed)
    inst = new_hidden_ring(name, seed)
    add = inst.truth.add
    if kind == "random":
        m = _random_table(rng, add.n)
    else:
        m = _corrupt(rng, inst.truth.mul.entries)
    table = _run_hostile(lambda oracle: recover_ring_multiplication(add, oracle), OpTable(m))
    reference = _bilinear_expansion(add.entries, Oracle(OpTable(m)))
    # a distributive result is the unique bi-additive extension of the
    # queried products, so it must equal the reference expansion
    if table is None:
        assert not distributive_laws_hold(add.entries, reference)
    else:
        assert distributive_laws_hold(add.entries, table.entries)
        assert np.array_equal(table.entries, reference)


# ---------------------------------------------------------------------------
# verification: the walk of all candidates together, level by level, agrees
# with a walk of one candidate at a time on hand-built trees, good and bad


def _reference_verify(d: dict, ops: OperationSet) -> tuple[bool, object, dict[int, int], int]:
    """(ok, failure, depths, leaf_count) of the tree dict d by walking each candidate alone; the first failure by index wins."""
    n = ops.n
    answers = ops.tables.reshape(len(ops), n * n)
    leaves, stack = 0, [d]
    while stack:
        node = stack.pop()
        if "leaf" in node:
            leaves += 1
        else:
            stack.extend(node["children"].values())
    paths, depths, failure = {}, {}, None
    for i in range(len(ops)):
        node, path = d, []
        while "query" in node:
            x, y = node["query"]
            z = int(answers[i, x * n + y])
            if str(z) not in node["children"]:
                failure = failure or f"operation {i} got unanswered branch {x}*{y} = {z}"
                break
            path.append(z)
            node = node["children"][str(z)]
        else:
            if node["leaf"] is not None and node["leaf"] != i:
                failure = failure or f"operation {i} reaches the leaf of operation {node['leaf']}"
            paths[i], depths[i] = tuple(path), len(path)
    if failure is None and len(set(paths.values())) < len(ops):
        failure = "two candidates share a leaf"
    if failure is None and leaves != len(ops):
        failure = f"tree has {leaves} leaves for {len(ops)} candidates"
    return failure is None, failure, depths, leaves


def _random_tree(rng: random.Random, ops: OperationSet, ids: list[int], depth: int = 0) -> dict:
    """A tree dict over the candidates ids that may solve them, or may drop a branch, misname a leaf or add a spare one."""
    n = ops.n
    if len(ids) <= 1 and rng.random() < 0.8 or depth == 4:
        return {"leaf": rng.choice([None, ids[0], ids[0], len(ops)]) if ids and rng.random() < 0.2 else None}
    x, y = rng.randrange(n), rng.randrange(n)
    groups: dict[int, list[int]] = {}
    for i in ids:
        groups.setdefault(int(ops.tables[i, x, y]), []).append(i)
    children = {str(z): _random_tree(rng, ops, block, depth + 1) for z, block in groups.items() if rng.random() < 0.97}
    if rng.random() < 0.1 or not children:
        children[str(rng.choice([-1, n, n + 2]))] = _random_tree(rng, ops, [], depth + 1)  # an answer no candidate gives
    return {"query": [x, y], "children": children}


@given(st.integers(2, 4), st.integers(1, 30), seeds)
@settings(max_examples=300, deadline=None)
def test_verify_query_tree_matches_the_walk_of_one_candidate_at_a_time(n, m, seed):
    rng = random.Random(seed)
    ops = OperationSet(_random_stack(rng, n, m, rng.random() < 0.5))
    if rng.random() < 0.3:  # the witness of the search, which solves the set
        d = tree_to_dict(minimal_worst_case(ops, budget=len(ops))[1])
    else:
        d = _random_tree(rng, ops, list(range(len(ops))))
    v = verify_query_tree(tree_from_dict(d, n), ops)
    assert (v.ok, v.failure, v.depths, v.leaf_count) == _reference_verify(d, ops)


@given(st.integers(2, 4), st.integers(1, 30), seeds)
@settings(max_examples=100, deadline=None)
def test_tree_dicts_round_trip_through_columns(n, m, seed):
    # any well-formed dict, solving or not, comes back as it went in, spare
    # answers outside the labels and leaves that name no candidate included;
    # the random trees are at most 4 <= n^2 deep
    rng = random.Random(seed)
    ops = OperationSet(_random_stack(rng, n, m, False))
    d = _random_tree(rng, ops, list(range(len(ops))))
    tree = tree_from_dict(d, n)
    assert tree.n == n and tree_to_dict(tree) == d

"""Recovery procedures and their exact query costs."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from opquery import (
    METHODS,
    AbelianSpec,
    MaxChainSpec,
    NotInClassError,
    OpTable,
    Oracle,
    ValidationError,
    abelian_invariant_factorizations,
    build_abelian,
    build_max_chain,
    build_ring,
    greedy_generating_set,
    merge_sort_worst_case,
    new_hidden,
    new_hidden_ring,
    oracle_for,
    query_budget,
    recover_abelian,
    recover_abelian_prime,
    recover_max_chain,
    recover_order11,
    recover_ring_full,
    recover_ring_multiplication,
    recovery,
    replay_matches,
    ring_oracles,
    verify_recovery,
)
from opquery.algebra import _RENAME_BLOCK, _cyclic_table, _renamed, _table_dtype
from opquery.recovery import _exponent_major, _tower_positions


def run_abelian(factors, seed):
    inst = new_hidden(AbelianSpec(factors), seed)
    o = oracle_for(inst)
    res = recover_abelian(o)
    assert res.table == inst.truth
    assert res.queries_used == o.count
    return res, inst


class TestAbelian:
    def test_exact_n_queries_small_sweep(self):
        for n in range(1, 13):
            for factors in abelian_invariant_factorizations(n):
                for seed in range(5):
                    res, _ = run_abelian(factors, seed)
                    assert res.queries_used == n, (factors, seed)

    def test_trace_replays_against_truth(self):
        res, inst = run_abelian((2, 4), 11)
        assert replay_matches(res.trace, inst.truth)
        assert len(res.trace) == res.queries_used

    def test_tower_and_step_queries_telescope(self):
        res, _ = run_abelian((2, 2, 4), 3)
        assert res.tower is not None and res.step_queries is not None
        assert sum(res.step_queries) == res.queries_used == 16
        # subgroup sizes strictly increase up to the full group
        assert res.tower[-1] == 16
        assert all(a < b for a, b in zip(res.tower, res.tower[1:]))

    def test_trivial_group(self):
        res, _ = run_abelian((), 0)
        assert res.queries_used == 1 and res.table.n == 1

    def test_non_group_oracle_raises(self):
        o = Oracle(build_max_chain(5))
        with pytest.raises(NotInClassError):
            recover_abelian(o)

    def test_idempotent_nonidentity_oracle_raises(self):
        # x*x = x everywhere but not a projection to a group
        t = np.arange(4).repeat(4).reshape(4, 4)
        o = Oracle(__import__("opquery").OpTable(t))
        with pytest.raises(NotInClassError):
            recover_abelian(o)

    def test_one_tower_shape_shares_one_cached_position_table(self, monkeypatch):
        # in Z_2^4 every step has chain length 2 and b^2 = e at position 0,
        # so two labelings where 0 is not the identity share the shape
        cached = recovery._cached_tower_positions
        cached.cache_clear()
        seen = []

        def spy(shape):
            seen.append((shape, cached(shape)))
            return seen[-1][1]

        monkeypatch.setattr(recovery, "_cached_tower_positions", spy)
        for seed in (0, 1):
            run_abelian((2, 2, 2, 2), seed)
        (shape, pos), (again, same) = seen
        assert shape == again == ((2, 0),) * 4 and same is pos
        assert cached.cache_info().currsize == 1
        with pytest.raises(ValueError):
            pos[0, 0] = 1

    def test_only_tables_up_to_n_16_are_cached(self):
        # caching larger n would hold their O(n^2) tables for shapes that rarely repeat
        cached = recovery._cached_tower_positions
        cached.cache_clear()
        run_abelian((17,), 1)
        run_abelian((2, 4, 4), 1)
        assert cached.cache_info().currsize == 0
        run_abelian((16,), 1)
        assert cached.cache_info().currsize == 1

    @pytest.mark.parametrize("factors", [(256,), (16, 16), (2,) * 8])
    def test_fill_peaks_under_18_bytes_per_entry(self, factors):
        # the position tables are narrow; a fill through int64 tables peaks at 19-23 n^2
        oracle = oracle_for(new_hidden(AbelianSpec(factors), 2))
        tracemalloc.start()
        try:
            recover_abelian(oracle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18 * oracle.n**2

    def test_rendered_table_matches_the_rename_of_its_positions(self):
        # every sequence of chain lengths up to n = 64, each step closing at a
        # random position of H, with and without a first step of length 1
        # (0 is the identity); then hand-built shapes past _RENAME_BLOCK,
        # where recover_abelian renders, in both window layouts
        rng = np.random.default_rng(5)
        shapes = []
        for n in range(1, 65):
            for ks in _chain_lengths(n):
                steps, h = [], 1
                for k in ks:
                    steps.append((k, int(rng.integers(h))))
                    h *= k
                shapes.append(((1, 0), *steps))
                if steps:
                    shapes.append(tuple(steps))
        large = [
            ((256, 0),),
            ((1, 0), (256, 0)),
            ((4, 0), (64, 3)),
            ((2, 0), (128, 1)),
            ((16, 0), (16, 5)),
            ((2, 0),) * 8,
            ((2, 0), (2, 1), (64, 2)),
            ((512, 0),),
            ((2, 0), (256, 1)),
            ((8, 0), (8, 3), (8, 17)),
            ((128, 0), (4, 64)),
        ]
        assert all(math.prod(k for k, _ in s) ** 2 > _RENAME_BLOCK for s in large)
        last = [(math.prod(k for k, _ in s[:-1]), s[-1][0]) for s in large]
        assert {_exponent_major(h, k) for h, k in last} == {True, False}
        for shape in shapes + large:
            n = math.prod(k for k, _ in shape)
            for _ in range(2):
                labels = rng.permutation(n).astype(_table_dtype(n))
                want = _renamed(_tower_positions(shape), labels, labels.argsort())
                got = recovery._rendered(shape, labels)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), shape


def _chain_lengths(n):
    """Every tuple of integers >= 2 with product n, in every order."""
    if n == 1:
        yield ()
    for k in range(2, n + 1):
        if n % k == 0:
            for rest in _chain_lengths(n // k):
                yield (k, *rest)


class TestAbelianPrime:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_exhaustive_over_small_primes(self, p):
        # every labeling of every cyclic structure of order p
        canonical = build_abelian([p])
        seen = 0
        for perm in itertools.permutations(range(p)):
            truth = canonical.relabel(perm)
            o = Oracle(truth)
            res = recover_abelian_prime(o)
            assert res.table == truth
            assert res.queries_used == p - 2
            seen += 1
        assert seen == __import__("math").factorial(p)

    def test_n2_falls_back(self):
        inst = new_hidden(AbelianSpec((2,)), 4)
        res = recover_abelian_prime(oracle_for(inst))
        assert res.table == inst.truth
        assert res.queries_used == 2

    def test_rejects_composite(self):
        inst = new_hidden(AbelianSpec((4,)), 0)
        with pytest.raises(ValidationError):
            recover_abelian_prime(oracle_for(inst))

    def test_seeded_11_and_13(self):
        for p in (11, 13):
            for seed in range(50):
                inst = new_hidden(AbelianSpec((p,)), seed)
                o = oracle_for(inst)
                res = recover_abelian_prime(o)
                assert res.table == inst.truth and res.queries_used == p - 2


class TestOrder11:
    def test_seeded_runs_cost_exactly_8(self):
        for seed in range(500):
            inst = new_hidden(AbelianSpec((11,)), seed)
            o = oracle_for(inst)
            res = recover_order11(o)
            assert res.table == inst.truth, seed
            assert res.queries_used == 8 == o.count, seed

    def test_both_identity_branches_hit(self):
        # seed split: find one seed where 0*0 = 0 and one where it is not
        branch = {True: None, False: None}
        for seed in range(200):
            inst = new_hidden(AbelianSpec((11,)), seed)
            is_id = inst.truth[0, 0] == 0
            if branch[is_id] is None:
                branch[is_id] = inst
        assert None not in branch.values()
        for inst in branch.values():
            o = oracle_for(inst)
            res = recover_order11(o)
            assert res.table == inst.truth and res.queries_used == 8

    def test_rejects_wrong_size(self):
        inst = new_hidden(AbelianSpec((7,)), 0)
        with pytest.raises(ValidationError):
            recover_order11(oracle_for(inst))

    def test_non_cyclic_oracle_raises_not_in_class(self):
        o = Oracle(build_max_chain(11))
        with pytest.raises(NotInClassError):
            recover_order11(o)

    @pytest.mark.parametrize("identity_at_0", [True, False])
    def test_lookup_equals_the_24_way_loop_for_every_pair_of_final_answers(self, identity_at_0):
        # the final queries b*c and b*d read entries the ladder never reads, so
        # writing any pair of answers there keeps the first six or seven
        instances = (new_hidden(AbelianSpec((11,)), seed) for seed in range(200))
        inst = next(i for i in instances if (i.truth[0, 0] == 0) == identity_at_0)
        (b, c, _), (_, d, _) = recover_order11(oracle_for(inst)).trace[-2:]
        fits = 0
        for zbc, zbd in itertools.product(range(11), repeat=2):
            entries = inst.truth.entries.copy()
            entries[b, c], entries[b, d] = zbc, zbd
            outcomes = []
            for recover in (recover_order11, _order11_by_loop):
                try:
                    res = recover(Oracle(OpTable(entries)))
                    outcomes.append((res.table, res.queries_used, res.trace))
                except NotInClassError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (zbc, zbd)
            fits += not isinstance(outcomes[0], str)
        assert fits == 24  # each of the 24 assignments of the leftovers fits one pair


def _order11_by_loop(oracle: Oracle):
    """``recover_order11`` as it was with its final 24-way loop over the leftover exponents."""
    q = oracle.query
    a = 0
    asq = q(a, a)
    if asq == a:
        e, a1 = a, 1
        a2 = q(a1, a1)
    else:
        e, a1, a2 = None, a, asq
    a3 = q(a2, a1)
    a4 = q(a3, a1)
    a5 = q(a4, a1)
    a7 = q(a5, a2)
    if asq != a:
        e = q(a7, a4)
    anchors = (e, a1, a2, a3, a4, a5, a7)
    if len(set(anchors)) != 7:
        raise NotInClassError("power ladder collided; oracle is not a cyclic group of order 11")
    powers = [-1] * 11
    for exp, elt in zip((0, 1, 2, 3, 4, 5, 7), anchors):
        powers[exp] = elt
    b, c, d, f = sorted(set(range(11)) - set(anchors))
    zbc = q(b, c)
    zbd = q(b, d)
    survivors = []
    for sb, sc, sd, sf in itertools.permutations((6, 8, 9, 10)):
        powers[sb], powers[sc], powers[sd], powers[sf] = b, c, d, f
        if powers[(sb + sc) % 11] == zbc and powers[(sb + sd) % 11] == zbd:
            survivors.append((sb, sc, sd, sf))
    if len(survivors) != 1:
        raise NotInClassError(f"{len(survivors)} exponent assignments fit the final two answers; oracle is not an order-11 group")
    sb, sc, sd, sf = survivors[0]
    powers[sb], powers[sc], powers[sd], powers[sf] = b, c, d, f
    return recovery.RecoveryResult(OpTable(_cyclic_table(powers)), oracle.count, "eleven8", trace=oracle.transcript)


class TestMaxChain:
    def test_merge_sort_worst_case_values(self):
        assert [merge_sort_worst_case(n) for n in range(1, 9)] == [0, 1, 3, 5, 8, 11, 14, 17]

    def test_exhaustive_small(self):
        for n in range(1, 7):
            canonical = build_max_chain(n)
            for perm in itertools.permutations(range(n)):
                truth = canonical.relabel(perm)
                o = Oracle(truth)
                res = recover_max_chain(o)
                assert res.table == truth
                assert res.queries_used <= merge_sort_worst_case(n)

    def test_worst_case_attained(self):
        # over all labelings the max cost must equal the bound, not just respect it
        for n in (4, 6):
            canonical = build_max_chain(n)
            worst = max(
                recover_max_chain(Oracle(canonical.relabel(p))).queries_used
                for p in itertools.permutations(range(n))
            )
            assert worst == merge_sort_worst_case(n)

    def test_seeded_larger(self):
        for n in (15, 16, 17, 32):
            for seed in range(3):
                inst = new_hidden(MaxChainSpec(n), seed)
                o = oracle_for(inst)
                res = recover_max_chain(o)
                ok, _ = verify_recovery(o, res.table)
                assert ok and res.queries_used <= merge_sort_worst_case(n)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 127, 128, 181, 182, 256, 511, 512])
    def test_hidden_and_recovered_tables_are_the_relabelled_max_chain(self, n, seed):
        # both are built from a ranking; the generic relabel is the reference,
        # across the int8/int16 boundary and the row-block boundary of _renamed at 182
        inst = new_hidden(MaxChainSpec(n), seed)
        want = build_max_chain(n).relabel(inst.perm)
        assert inst.truth.entries.dtype == want.entries.dtype and inst.truth == want
        res = recover_max_chain(Oracle(inst.truth))
        assert res.table.entries.dtype == want.entries.dtype and res.table == want
        sorting = Oracle(want)
        recovery._merge_sort(list(range(n)), sorting.query)
        assert res.trace == sorting.transcript

    def test_inconsistent_oracle_raises(self):
        # oracle that answers some element outside {x, y} breaks the promise
        o = Oracle(build_abelian([5]))
        with pytest.raises(NotInClassError):
            recover_max_chain(o)


class TestRing:
    def test_generating_set_doubles(self):
        for name in ("z4", "z8", "gf4", "gf8", "gf9", "z2xz2"):
            rt = build_ring(name)
            gens = greedy_generating_set(rt.add)
            assert len(gens) <= int(np.log2(rt.n)) if rt.n > 1 else 0
            assert rt.n <= 2 ** len(gens) * 1 if rt.n == 1 else True

    def test_multiplication_exact_cost(self):
        for name in ("z4", "z8", "gf4", "gf8", "gf9"):
            for seed in range(5):
                inst = new_hidden_ring(name, seed)
                _, om = ring_oracles(inst)
                res = recover_ring_multiplication(inst.truth.add, om)
                gens = greedy_generating_set(inst.truth.add)
                assert res.table == inst.truth.mul
                assert res.queries_used == len(gens) ** 2 == om.count

    def test_full_ring_within_budget(self):
        for name in ("z4", "z8", "gf4", "gf8", "gf9", "z2xgf4"):
            for seed in range(3):
                inst = new_hidden_ring(name, seed)
                oa, om = ring_oracles(inst)
                add_res, mul_res = recover_ring_full(oa, om)
                assert add_res.table == inst.truth.add
                assert mul_res.table == inst.truth.mul
                n = inst.truth.n
                total = add_res.queries_used + mul_res.queries_used
                assert total <= n + np.log2(n) ** 2 + 1e-9

    def test_mismatched_addition_raises(self):
        inst = new_hidden_ring("gf4", 0)
        _, om = ring_oracles(inst)
        with pytest.raises(ValidationError):
            recover_ring_multiplication(build_abelian([5]), om)

    def test_non_distributive_oracle_detected_when_detectable(self):
        # A fake oracle is only caught when its generator answers cannot
        # extend to any table distributing over the known addition; answers
        # that do extend are indistinguishable within the query budget.
        inst = new_hidden_ring("z4", 7)
        bad = Oracle(build_max_chain(4))
        with pytest.raises(NotInClassError):
            recover_ring_multiplication(inst.truth.add, bad)

    def test_undetectable_fake_yields_distributive_table(self):
        from opquery import distributive_laws_hold

        inst = new_hidden_ring("z4", 1)
        bad = Oracle(build_max_chain(4))
        res = recover_ring_multiplication(inst.truth.add, bad)
        # not the oracle's table, but the contract still holds: the result
        # distributes over the given addition
        assert distributive_laws_hold(inst.truth.add.entries, res.table.entries)


class TestLargeExact:
    """Tables of order 32 to 256: exact results and exact query costs."""

    @pytest.mark.parametrize("name", ["z32", "z64", "gf32", "gf64", "z4xgf9", "z2xgf16"])
    def test_full_ring(self, name):
        for seed in range(3):
            inst = new_hidden_ring(name, seed)
            oa, om = ring_oracles(inst)
            add_res, mul_res = recover_ring_full(oa, om)
            assert add_res.table == inst.truth.add and mul_res.table == inst.truth.mul, seed
            assert add_res.queries_used == inst.truth.n == oa.count
            assert mul_res.queries_used == len(greedy_generating_set(inst.truth.add)) ** 2 == om.count

    @pytest.mark.parametrize("factors", abelian_invariant_factorizations(64) + [(256,), (16, 16), (2,) * 8])
    def test_abelian(self, factors):
        res, _ = run_abelian(factors, 5)
        assert res.queries_used == res.table.n


def test_query_budget_table():
    assert query_budget("abelian", 9) == 9
    assert query_budget("prime", 11) == 9
    assert query_budget("prime", 2) == 2
    assert query_budget("eleven8", 11) == 8
    assert query_budget("maxchain", 8) == 17
    assert query_budget("ringmul", 16) == 16.0
    assert query_budget("ringfull", 16) == 32.0
    assert query_budget("ringmul", 1) == 0.0 and query_budget("ringfull", 1) == 1.0
    assert query_budget("maxchain", 1) == 0.0
    assert all(isinstance(query_budget(m, 11), float) for m in METHODS)
    with pytest.raises(ValidationError):
        query_budget("nope", 4)
    # each budget raises at every n where its method's class has no member
    empty = [("eleven8", 10), ("prime", 9), ("prime", 1), ("prime", 0), ("abelian", 0), ("maxchain", 0), ("ringfull", 0)]
    for method, n in empty:
        with pytest.raises(ValidationError):
            query_budget(method, n)


def test_method_registry_keeps_its_order():
    # the order of the --method choices
    assert tuple(METHODS) == ("abelian", "prime", "eleven8", "maxchain", "ringmul", "ringfull")
    assert [m.name for m in METHODS.values()] == list(METHODS)

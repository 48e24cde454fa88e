"""Acceptance suite: one test per promised behavior, with stated budgets.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion. Each test prints its own ``criterion N ... PASS`` line with the
measured runtime; failures surface as ordinary assertion errors.

The exhaustive order-11 sweep (all candidate operations, several minutes) is
feature gated behind OPQUERY_EXHAUSTIVE=1 in test_exhaustive_order11.py.
"""

import itertools
import math
import time

from opquery import (
    AbelianSpec,
    OpTable,
    Oracle,
    abelian_automorphism_count,
    abelian_invariant_factorizations,
    build_abelian,
    build_gf,
    build_max_chain,
    enumerate_orbit,
    field_lower_bound,
    greedy_generating_set,
    merge_sort_worst_case,
    minimal_worst_case,
    multiplication_orbit_size,
    new_hidden,
    new_hidden_ring,
    oracle_for,
    orbit_size,
    recover_abelian,
    recover_abelian_prime,
    recover_max_chain,
    recover_order11,
    recover_ring_full,
    recover_ring_multiplication,
    ring_oracles,
    tree_stats,
    verify_query_tree,
)
from test_treesearch import cyclic_four_tree, three_element_tree


def report(num, name, t0, extra=""):
    dt = time.perf_counter() - t0
    tail = f" ({extra})" if extra else ""
    print(f"criterion {num} ({name}): PASS in {dt:.2f}s{tail}")


def test_criterion_1_abelian_exact_n_budget():
    t0 = time.perf_counter()
    runs = 0
    for n in range(1, 17):
        for factors in abelian_invariant_factorizations(n):
            spec = AbelianSpec(factors)
            for seed in range(100):
                inst = new_hidden(spec, seed)
                o = oracle_for(inst)
                res = recover_abelian(o)
                assert res.table == inst.truth, (factors, seed)
                assert res.queries_used == n == o.count, (factors, seed)
                runs += 1
    assert runs == 25 * 100
    assert time.perf_counter() - t0 < 5.0
    report(1, "abelian exact-n budget", t0, f"{runs} runs")


def test_criterion_2_prime_order_budgets():
    t0 = time.perf_counter()
    # exhaustive over every candidate operation for small primes
    for p in (3, 5, 7):
        ops = enumerate_orbit(build_abelian([p]))
        assert len(ops) == math.factorial(p) // (p - 1)
        for raw in ops.tables:
            truth = OpTable(raw)
            o = Oracle(truth)
            res = recover_abelian_prime(o)
            assert res.table == truth
            assert res.queries_used <= p - 2
    # large seeded sweep at p = 11
    for seed in range(100_000):
        inst = new_hidden(AbelianSpec((11,)), seed)
        o = oracle_for(inst)
        res = recover_abelian_prime(o)
        assert res.table == inst.truth, seed
        assert res.queries_used <= 9, seed
    assert time.perf_counter() - t0 < 60.0
    report(2, "prime-order budgets", t0, "p in {3,5,7} exhaustive + 1e5 at p=11")


def test_criterion_3_order_11_eight_queries():
    t0 = time.perf_counter()
    for seed in range(100_000):
        inst = new_hidden(AbelianSpec((11,)), seed)
        o = oracle_for(inst)
        res = recover_order11(o)
        assert res.table == inst.truth, seed
        assert res.queries_used == 8 == o.count, seed
    report(3, "order-11 in 8 queries", t0, "1e5 seeded runs")


def test_criterion_4_lower_bound_reproduction():
    t0 = time.perf_counter()
    assert orbit_size(build_abelian([4])) == 12
    z11 = orbit_size(build_abelian([11]))
    assert z11 == 3991680
    assert math.ceil(math.log(z11, 11)) == 7
    # brute enumeration agrees with the counting formula for every group
    # of order <= 5 (they are all abelian)
    small = [(), (2,), (3,), (4,), (2, 2), (5,)]
    assert sum(1 for n in range(1, 6) for _ in abelian_invariant_factorizations(n)) == len(small)
    for factors in small:
        t = build_abelian(list(factors))
        assert orbit_size(t) == len(enumerate_orbit(t)), factors
    report(4, "lower-bound reproduction", t0)


def test_criterion_5_max_chain_exhaustive():
    t0 = time.perf_counter()
    for n in range(1, 9):
        canonical = build_max_chain(n)
        bound = merge_sort_worst_case(n)
        total = 0
        count = 0
        for perm in itertools.permutations(range(n)):
            truth = canonical.relabel(perm)
            o = Oracle(truth)
            res = recover_max_chain(o)
            assert res.table == truth, (n, perm)
            assert res.queries_used <= bound, (n, perm)
            total += res.queries_used
            count += 1
        assert count == math.factorial(n)
        avg = total / count
        assert avg >= math.log2(math.factorial(n)) - 1e-9, n
    assert time.perf_counter() - t0 < 30.0
    report(5, "max-chain exhaustive", t0, "all orders, n <= 8")


def test_criterion_6_ring_recovery():
    t0 = time.perf_counter()
    for name in ("z4", "z8", "gf4", "gf8", "gf9"):
        for seed in range(25):
            inst = new_hidden_ring(name, seed)
            n = inst.truth.n
            oa, om = ring_oracles(inst)
            add_res, mul_res = recover_ring_full(oa, om)
            assert add_res.table == inst.truth.add, (name, seed)
            assert mul_res.table == inst.truth.mul, (name, seed)
            total = add_res.queries_used + mul_res.queries_used
            assert total <= n + math.log2(n) ** 2 + 1e-9, (name, seed)
            # multiplication alone: exactly |A|^2 with |A| <= log2 n
            gens = greedy_generating_set(inst.truth.add)
            om2 = Oracle(inst.truth.mul)
            mul_only = recover_ring_multiplication(inst.truth.add, om2)
            assert mul_only.queries_used == len(gens) ** 2 == om2.count
            assert len(gens) <= math.log2(n) + 1e-9
    report(6, "ring recovery", t0, "z4 z8 gf4 gf8 gf9 x 25 seeds")


def test_criterion_7_field_bounds():
    t0 = time.perf_counter()
    assert abelian_automorphism_count([2, 2]) == 6
    prime_powers = [
        (p, r)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
        for r in range(1, 7)
        if p**r <= 64
    ]
    assert (2, 6) in prime_powers and (7, 2) in prime_powers
    for p, r in prime_powers:
        q = p**r
        assert abelian_automorphism_count([p] * r) > q**r / 4, (p, r)
    assert multiplication_orbit_size(build_gf(2, 2)) == 3
    assert 3 >= 4**0.5
    hand = {
        (2, 1): -1.0,
        (2, 2): 0.5,
        (2, 3): 1.8050124997596144,
        (3, 2): 1.053605369642814,
        (5, 2): 1.3539851628899104,
    }
    for (p, r), expected in hand.items():
        assert abs(field_lower_bound(p, r) - expected) <= 1e-9, (p, r)
    report(7, "field bounds", t0)


def test_criterion_8_tree_formalism():
    t0 = time.perf_counter()
    ops3 = enumerate_orbit(build_max_chain(3))
    v3 = verify_query_tree(three_element_tree(), ops3)
    assert v3.ok and v3.leaf_count == 6

    ops_z4 = enumerate_orbit(build_abelian([4]))
    v4 = verify_query_tree(cyclic_four_tree(), ops_z4)
    assert v4.ok and v4.leaf_count == 12

    expected = [(build_abelian([4]), 2), (build_max_chain(3), 3), (build_max_chain(4), 5)]
    for canonical, best in expected:
        ops = enumerate_orbit(canonical)
        depth, tree = minimal_worst_case(ops)
        assert depth == best, canonical
        check = verify_query_tree(tree, ops)
        assert check.ok
        worst, _ = tree_stats(tree, ops)
        assert worst == best
    assert time.perf_counter() - t0 < 10.0
    report(8, "tree formalism", t0)


def test_criterion_9_average_depth_floor():
    t0 = time.perf_counter()
    produced = []
    ops3 = enumerate_orbit(build_max_chain(3))
    produced.append((three_element_tree(), ops3))
    ops_z4 = enumerate_orbit(build_abelian([4]))
    produced.append((cyclic_four_tree(), ops_z4))
    for canonical in (
        build_abelian([2]),
        build_abelian([3]),
        build_abelian([4]),
        build_abelian([5]),
        build_abelian([2, 2]),
        build_max_chain(2),
        build_max_chain(3),
        build_max_chain(4),
        build_max_chain(5),
    ):
        ops = enumerate_orbit(canonical)
        _, tree = minimal_worst_case(ops)
        produced.append((tree, ops))
    assert len(produced) == 11
    for tree, ops in produced:
        _, avg = tree_stats(tree, ops)
        floor = math.log(len(ops), ops.n) if ops.n > 1 else 0.0
        assert avg >= floor - 1e-9, (len(ops), ops.n, avg)
    report(9, "average depth information floor", t0, f"{len(produced)} trees")

"""
Recovering an abelian group in exactly n queries
================================================

The oracle hides an unknown abelian group operation on n elements. A naive
approach would ask all n^2 products; structure shrinks that to n. The
procedure grows a chain of subgroups, spending exactly as many queries as
the number of new elements each step reveals.
"""

from opquery import (
    AbelianSpec,
    abelian_invariant_factorizations,
    new_hidden,
    oracle_for,
    recover_abelian,
    verify_recovery,
)

# one concrete run: Z_2 x Z_4 on 8 elements, relabeled by seed 7
inst = new_hidden(AbelianSpec((2, 4)), seed=7)
oracle = oracle_for(inst)
result = recover_abelian(oracle)

print("n =", result.table.n)
print("queries used:", result.queries_used)
print("table correct:", result.table == inst.truth)

# the recovery climbs a tower of subgroups; sizes and per-step costs:
print("subgroup tower:", result.tower)
print("queries per step:", result.step_queries)
print("telescoping sum:", sum(result.step_queries), "= n")

# every abelian group of order up to 16, 20 seeds each: always exactly n
print("\nexhaustive check over small orders:")
for n in range(1, 17):
    for factors in abelian_invariant_factorizations(n):
        costs = set()
        for seed in range(20):
            inst = new_hidden(AbelianSpec(factors), seed)
            o = oracle_for(inst)
            res = recover_abelian(o)
            ok, _ = verify_recovery(o, res.table)
            assert ok
            costs.add(res.queries_used)
        label = "x".join(map(str, factors)) if factors else "trivial"
        print(f"  order {n:2d}  Z_{label:<8s} queries: {sorted(costs)}")

# prime orders admit a shortcut: n - 2 queries instead of n.
# the chain of powers of one element visits everything, and the last two
# entries come for free because only one completion stays consistent.
from opquery import recover_abelian_prime

for p in (5, 7, 11, 13):
    inst = new_hidden(AbelianSpec((p,)), seed=1)
    o = oracle_for(inst)
    res = recover_abelian_prime(o)
    assert res.table == inst.truth
    print(f"prime {p}: {res.queries_used} queries (= p - 2)")

# and order 11 goes further still: 8 suffice, and 8 is optimal. 7 is the
# information floor, but the exact search over all 3,991,680 candidate
# tables finds no tree that always needs fewer than 8 queries (the gated
# test_8_queries_are_optimal_for_order_11 in tests/test_exhaustive_order11.py)
from opquery import recover_order11

inst = new_hidden(AbelianSpec((11,)), seed=3)
o = oracle_for(inst)
res = recover_order11(o)
print("order 11 specialist:", res.queries_used, "queries, correct:", res.table == inst.truth)

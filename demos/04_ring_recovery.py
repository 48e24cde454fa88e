"""
Ring recovery: addition plus a handful of products
==================================================

A hidden ring exposes two oracles, one for + and one for *. Addition is an
abelian group, so n queries recover it. Multiplication then costs far less
than n^2: pick a generating set A of the additive group where each new
generator at least doubles the subgroup reached, and query the |A|^2
generator products. The greedy closure reaches every element x as
x = parent + g with g in A and the parent reached earlier, so distributivity
fills the rest in that order: first the generator rows, a*x = a*parent + a*g,
then every row, x*y = parent*y + g*y. Total: n + (log2 n)^2 queries, and
O(n^2) work for the fill.
"""

import math

from opquery import (
    build_ring,
    greedy_generating_set,
    new_hidden_ring,
    recover_ring_full,
    ring_oracles,
)

for name in ("z4", "z8", "gf4", "gf8", "gf9", "z2xgf4"):
    inst = new_hidden_ring(name, seed=11)
    n = inst.truth.n
    oracle_add, oracle_mul = ring_oracles(inst)
    add_res, mul_res = recover_ring_full(oracle_add, oracle_mul)
    assert add_res.table == inst.truth.add
    assert mul_res.table == inst.truth.mul
    gens = greedy_generating_set(inst.truth.add)
    total = add_res.queries_used + mul_res.queries_used
    budget = n + math.log2(n) ** 2
    print(f"{name:7s} n={n:3d}  add {add_res.queries_used:3d} + mul {mul_res.queries_used:2d} "
          f"= {total:3d}  <= {budget:6.2f}  (|A| = {len(gens)})")

# the doubling guarantee caps |A| at log2 n even when the greedy pick is
# not a minimum generating set; compare against asking everything:
n = 16
inst = new_hidden_ring("z4xgf4", seed=2)
oa, om = ring_oracles(inst)
add_res, mul_res = recover_ring_full(oa, om)
print(f"\nz4xgf4: {add_res.queries_used + mul_res.queries_used} queries "
      f"versus {2 * n * n} for the naive double table scan")

# the finite fields here use fixed irreducible polynomials; gf9 really is
# the 9 element field, not Z_9
gf9 = build_ring("gf9")
nonzero_products = (gf9.mul.entries != 0).sum()
print("gf9 nonzero products:", int(nonzero_products), "= (9-1)^2, so no zero divisors")

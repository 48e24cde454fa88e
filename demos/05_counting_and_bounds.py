"""
How many tables could it be? Counting and lower bounds
======================================================

Any query strategy is a tree: internal nodes ask x*y, branches follow the
answer, and a leaf must name the hidden table. With |X| candidate tables
and at most n distinct answers per query, solving forces

    expected queries >= log_n |X|,

and |X| itself comes from orbit counting: relabelings of a fixed structure
give n!/|Aut| distinct tables.
"""

import math

from opquery import (
    AbelianSpec,
    bounds_for_abelian,
    bounds_for_max_chain,
    bounds_for_ring,
    build_abelian,
    count_automorphisms,
    orbit_size,
    reports_to_csv,
)

# Z_4 has 2 automorphisms, so 4!/2 = 12 candidate tables
z4 = build_abelian([4])
print("Z_4: automorphisms =", count_automorphisms(z4), "| candidates =", orbit_size(z4))

# Z_11 is where the numbers get interesting
z11 = build_abelian([11])
x = orbit_size(z11)
print(f"Z_11: candidates = {x:,}  -> ceil(log_11) = {math.ceil(math.log(x, 11))} queries at least")
print("      (the information floor is 7; recover_order11 shows that 8 suffice)")

# per-class reports bundle the counts with the bound formulas; |Aut| of
# any abelian group has a closed form (Hillar & Rhea), so groups far past
# what the permutation brute force can reach, like Z_4 x Z_4, count exactly
print("\nabelian groups:")
for factors in [(4,), (2, 2), (8,), (11,), (2, 2, 4), (4, 4)]:
    rep = bounds_for_abelian(AbelianSpec(factors))
    print(f"  {rep.label:16s} |X| = {rep.x_size}  avg >= {rep.avg_lower:.4f}"
          f"  closed form {rep.closed_form_lower:.4f}")

print("\nmax tables (sorting):")
for n in (4, 8, 16):
    rep = bounds_for_max_chain(n)
    print(f"  n = {n:2d}  |X| = {rep.x_size:,}  binary floor {rep.binary_lower:.3f}"
          f"  closed form {rep.closed_form_lower:.3f}")

# rings are counted from their name: #additive / #ring automorphisms
print("\nring multiplications over a known addition:")
for name in ("gf4", "gf8", "z9", "z4xgf9", "z3xgf3"):
    rep = bounds_for_ring(name)
    print(f"  {rep.label:12s} |X| = {rep.x_size}")

# everything exports as CSV for plotting elsewhere
reports = [bounds_for_abelian(AbelianSpec((n,))) for n in (3, 5, 7, 11, 13)]
print("\nCSV:")
print(reports_to_csv(reports))

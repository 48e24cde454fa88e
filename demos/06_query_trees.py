"""
Exact optimal query trees
=========================

For classes small enough to enumerate, minimax search over candidate sets
finds the provable optimum: the query tree whose worst-case depth no other
strategy can beat. Memoization over candidate subsets keeps it tractable,
and an information floor prunes hopeless branches early.
"""

from opquery import (
    build_abelian,
    build_max_chain,
    enumerate_orbit,
    minimal_worst_case,
    render_tree,
    tree_stats,
    tree_to_dict,
    verify_query_tree,
)

# all 12 tables that look like Z_4 after relabeling
ops = enumerate_orbit(build_abelian([4]))
depth, tree = minimal_worst_case(ops)
print(f"Z_4: {len(ops)} candidates, optimal worst case = {depth}")
print(render_tree(tree))

# the search returns its tree as arrays, one row per node and one per edge;
# verification walks all candidates down it together, a level at a time,
# and demands a bijection between candidates and leaves
check = verify_query_tree(tree, ops)
print("bijective:", check.ok, "| leaves:", check.leaf_count)
worst, avg = tree_stats(tree, ops)
print(f"worst {worst}, average {avg:.4f}")

# sorting three elements needs 3 comparisons in the worst case, and the
# log2(3!) = 2.58 floor explains why 2 cannot work
ops3 = enumerate_orbit(build_max_chain(3))
depth3, tree3 = minimal_worst_case(ops3)
print(f"\nmax-chain-3: optimal = {depth3}")
print(render_tree(tree3))

# four elements: the optimum is 5, matching classical sorting results
ops4 = enumerate_orbit(build_max_chain(4))
depth4, _ = minimal_worst_case(ops4)
print(f"max-chain-4: optimal = {depth4} (merge sort also achieves 5 here)")

# five elements: the search finds 7, one better than merge sort's 8
ops5 = enumerate_orbit(build_max_chain(5))
depth5, _ = minimal_worst_case(ops5)
print(f"max-chain-5: optimal = {depth5} (merge sort needs 8)")

# trees serialize to plain dictionaries for storage or the CLI
d = tree_to_dict(tree3)
print("\nserialized root query:", d["query"], "with branches", sorted(d["children"]))

"""Exhaustive order-11 checks, feature gated: OPQUERY_EXHAUSTIVE=1.

The sweep runs the 8-query procedure against every one of the 3 991 680
candidate operations of order 11. Each distinct operation covers all
relabelings that produce it, and the procedure is deterministic per table,
so this is the full labeling sweep with the tenfold duplication removed.
The search over the same 3 991 680 tables, which ``enumerate_orbit`` builds
as an orbit in about 6 s, shows that no tree does better than 8 queries in
the worst case. The sweep takes minutes single threaded; the search and the
check of its tree about 30 s and 1.5 GB max RSS on a shared 2-core host.
"""

import os

import pytest

from opquery import OpTable, Oracle, build_abelian, enumerate_orbit, minimal_worst_case, recover_order11, verify_query_tree
from opquery.treesearch import iter_cyclic_prime_tables

GATED = os.environ.get("OPQUERY_EXHAUSTIVE") != "1"


@pytest.mark.skipif(GATED, reason="set OPQUERY_EXHAUSTIVE=1 to run the full order-11 sweep (~minutes)")
def test_every_order_11_operation_recovered_in_8_queries():
    count = 0
    for raw in iter_cyclic_prime_tables(11):
        truth = OpTable(raw)
        o = Oracle(truth)
        res = recover_order11(o)
        assert res.queries_used == 8, count
        assert res.table == truth, count
        count += 1
    assert count == 3_991_680


@pytest.mark.skipif(GATED, reason="set OPQUERY_EXHAUSTIVE=1 to search all order-11 tables and verify the tree (~30 s, ~1.5 GB max RSS)")
def test_8_queries_are_optimal_for_order_11():
    # enumerate_orbit builds the set as an orbit, so the search uses its
    # symmetry by construction, with no check before the first state
    ops = enumerate_orbit(build_abelian([11]))
    assert len(ops) == 3_991_680
    depth, tree = minimal_worst_case(ops, budget=len(ops))
    # the information floor is 7 (11^6 < 3 991 680 <= 11^7); no tree reaches it
    assert depth == 8
    v = verify_query_tree(tree, ops)
    assert v.ok and max(v.depths.values()) == 8

"""Exhaustive order-11 checks, feature gated: OPQUERY_EXHAUSTIVE=1.

The sweep runs the 8-query procedure against every one of the 3 991 680
candidate operations of order 11. Each distinct operation covers all
relabelings that produce it, and the procedure is deterministic per table,
so this is the full labeling sweep with the tenfold duplication removed.
The search over the same 3 991 680 tables shows that no tree does better
than 8 queries in the worst case. Each takes minutes single threaded.
"""

import os

import numpy as np
import pytest

from opquery import OperationSet, OpTable, Oracle, minimal_worst_case, recover_order11, verify_query_tree
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


@pytest.mark.skipif(GATED, reason="set OPQUERY_EXHAUSTIVE=1 to search all order-11 tables and verify the tree (~220 s, ~2.7 GB max RSS)")
def test_8_queries_are_optimal_for_order_11():
    # The set is built here, not by enumerate_orbit, so the search checks its
    # distinctness and its closure under relabeling before the first state.
    stack = np.empty((3_991_680, 11, 11), dtype=np.int8)
    count = 0
    for count, raw in enumerate(iter_cyclic_prime_tables(11), 1):
        stack[count - 1] = raw
    assert count == len(stack)
    ops = OperationSet(stack, check_distinct=False)
    depth, tree = minimal_worst_case(ops, budget=len(ops))
    # the information floor is 7 (11^6 < 3 991 680 <= 11^7); no tree reaches it
    assert depth == 8
    v = verify_query_tree(tree, ops)
    assert v.ok and max(v.depths.values()) == 8

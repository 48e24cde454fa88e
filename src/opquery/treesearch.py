"""Query trees over candidate sets, and exact search for the shallowest one.

A query tree is the full strategy of an adaptive algorithm: internal nodes
ask one product x*y, one child per possible answer, leaves claim "the hidden
operation is now determined". A tree solves a candidate set X when walking
every operation in X lands on its own leaf (the leaf map is a bijection), so
worst case cost = deepest leaf and average cost = mean leaf depth.

``minimal_worst_case`` finds the true optimum by memoized minimax over the
reachable candidate subsets, pruned at the information floor (d more queries
with at most b-way answers cannot split more than b^d candidates). Each state
counts every query's distinct answers with one numpy sort; answer blocks are
built lazily in lexicographic (x, y) order, queries that repeat an earlier
partition are skipped, and ties keep the first winner, so the returned
witness tree is canonical and runs reproduce bit identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterator, Mapping, Optional, Union

import numpy as np

from .algebra import OpTable, _check_cap, _relabelings, is_prime
from .errors import CapabilityError, ValidationError

SEARCH_BUDGET = 200  # default cap on |X| for exact search


@dataclass(frozen=True)
class Leaf:
    """Terminal claim; op_id names the surviving candidate when known."""

    op_id: Optional[int] = None


@dataclass(frozen=True)
class Node:
    """One query (x, y) with a subtree per distinct answer."""

    query: tuple[int, int]
    children: Mapping[int, "QueryTree"] = field(default_factory=dict)


QueryTree = Union[Node, Leaf]


def tree_to_dict(tree: QueryTree) -> dict:
    if isinstance(tree, Leaf):
        return {"leaf": tree.op_id}
    return {
        "query": [tree.query[0], tree.query[1]],
        "children": {str(z): tree_to_dict(child) for z, child in sorted(tree.children.items())},
    }


def tree_from_dict(d: dict) -> QueryTree:
    if "leaf" in d:
        v = d["leaf"]
        return Leaf(None if v is None else int(v))
    if "query" not in d or "children" not in d:
        raise ValidationError("tree node needs either a leaf or query + children")
    x, y = d["query"]
    children = {int(z): tree_from_dict(sub) for z, sub in d["children"].items()}
    return Node((int(x), int(y)), children)


def render_tree(tree: QueryTree, indent: str = "") -> str:
    """Indented text rendering: one line per node, answers label the branches."""
    if isinstance(tree, Leaf):
        tag = "?" if tree.op_id is None else f"#{tree.op_id}"
        return f"{indent}leaf {tag}\n"
    x, y = tree.query
    out = f"{indent}{x}*{y}?\n"
    for z, child in sorted(tree.children.items()):
        out += f"{indent}  ={z}:\n" + render_tree(child, indent + "    ")
    return out


class OperationSet:
    """An indexed set of distinct candidate tables on one carrier.

    Stored as a single (m, n, n) integer array so the search can slice
    answers cheaply; ``ops[i]`` materializes candidate i as an OpTable.
    """

    def __init__(self, tables: np.ndarray, check_distinct: bool = True):
        arr = np.asarray(tables)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValidationError(f"expected an (m, n, n) stack of tables, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValidationError("candidate set must be nonempty")
        if check_distinct:
            # one fixed-width byte key per table, as in enumerate_orbit
            keys = np.ascontiguousarray(arr).reshape(len(arr), -1).view(np.dtype((np.void, arr[0].nbytes))).ravel()
            if len(_sorted_distinct(keys)) != len(arr):
                raise ValidationError("candidate tables must be pairwise distinct")
        self._tables = arr

    @property
    def n(self) -> int:
        return int(self._tables.shape[1])

    @property
    def tables(self) -> np.ndarray:
        return self._tables

    def __len__(self) -> int:
        return int(self._tables.shape[0])

    def __getitem__(self, i: int) -> OpTable:
        return OpTable(self._tables[i])

    def __iter__(self) -> Iterator[OpTable]:
        for i in range(len(self)):
            yield self[i]


def _dtype_for(n: int) -> type:
    return np.int8 if n <= 127 else np.int64


def iter_cyclic_prime_tables(p: int) -> Iterator[np.ndarray]:
    """All p * (p-2)! distinct tables of a cyclic group of prime order p.

    Parameterization: pick the identity, give the smallest remaining element
    discrete log 1 (scaling the generator is an automorphism, so log 1 can be
    pinned), and distribute logs 2..p-1 over the rest in every way. Lazy, for
    exhaustive sweeps that should not materialize the whole family.
    """
    if not is_prime(p):
        raise ValidationError(f"need a prime order, got {p}")
    dtype = _dtype_for(p)
    for e in range(p):
        others = [x for x in range(p) if x != e]
        g, rest = others[0], others[1:]
        for assignment in permutations(rest):
            powers = np.empty(p, dtype=np.int64)
            powers[0], powers[1] = e, g
            powers[2:] = assignment
            logs = np.empty(p, dtype=np.int64)
            logs[powers] = np.arange(p)
            yield powers[(logs[:, None] + logs[None, :]) % p].astype(dtype)


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array, ascending.

    Same result as ``np.unique``, which would import ``numpy.ma`` on first
    use and add about 1 MB to the resident set of a process.
    """
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def enumerate_orbit(canonical: OpTable, cap: Optional[int] = None) -> OperationSet:
    """Every distinct relabeling of a table, as an OperationSet in byte order.

    Runs all n! permutations through the chunked kernel of ``algebra`` and
    dedupes, so n must be under the brute force cap; past it, and before any
    work, the call raises CapabilityError. Memory stays O(orbit + chunk).
    """
    n = canonical.n
    _check_cap(n, cap, "enumerate_orbit")
    dtype = _dtype_for(n)
    # one fixed-width key per table; np.void keys sort bytewise
    key = np.dtype((np.void, n * n * np.dtype(dtype).itemsize))
    seen = np.empty(0, dtype=key)  # distinct keys so far, ascending
    fresh: list[np.ndarray] = []  # keys of the chunks since the last merge
    for perms, images in _relabelings(canonical.entries[None].astype(dtype)):
        fresh.append(images[0].reshape(len(perms), -1).view(key).ravel())
        # merging once the fresh keys outnumber the kept ones holds memory to
        # O(orbit + chunk) and the sorting to O(n! log n!)
        if sum(map(len, fresh)) > len(seen):
            seen = _sorted_distinct(np.concatenate([seen, *fresh]))
            fresh = []
    stack = _sorted_distinct(np.concatenate([seen, *fresh])).view(dtype).reshape(-1, n, n)
    return OperationSet(stack, check_distinct=False)


@dataclass
class TreeVerification:
    """Walk record of one tree against one candidate set."""

    ok: bool
    leaf_map: dict[int, tuple[int, ...]]  # op id -> answer path to its leaf
    depths: dict[int, int]
    leaf_count: int
    failure: Optional[str] = None


def _count_leaves(tree: QueryTree, max_depth: int, depth: int = 0) -> int:
    if depth > max_depth:
        raise ValidationError(f"tree deeper than {max_depth}; malformed")
    if isinstance(tree, Leaf):
        return 1
    if not tree.children:
        raise ValidationError("internal node with no children")
    return sum(_count_leaves(c, max_depth, depth + 1) for c in tree.children.values())


def verify_query_tree(tree: QueryTree, ops: OperationSet) -> TreeVerification:
    """Walk every candidate through the tree and check the leaf map is a bijection.

    ok is True iff every walk ends at a leaf (no missing answer branch), no
    two candidates share a leaf, and no leaf is left unused.
    """
    n = ops.n
    leaf_count = _count_leaves(tree, max_depth=n * n)
    tables = ops.tables
    leaf_map: dict[int, tuple[int, ...]] = {}
    depths: dict[int, int] = {}
    failure = None
    for i in range(len(ops)):
        node = tree
        path: list[int] = []
        while isinstance(node, Node):
            x, y = node.query
            if not (0 <= x < n and 0 <= y < n):
                raise ValidationError(f"query {node.query} out of range for n = {n}")
            z = int(tables[i, x, y])
            nxt = node.children.get(z)
            if nxt is None:
                failure = failure or f"operation {i} got unanswered branch {x}*{y} = {z}"
                break
            path.append(z)
            node = nxt
        else:
            leaf_map[i] = tuple(path)
            depths[i] = len(path)
    complete = len(leaf_map) == len(ops)
    injective = len(set(leaf_map.values())) == len(leaf_map)
    onto = leaf_count == len(ops)
    if complete and not injective:
        failure = failure or "two candidates share a leaf"
    if complete and injective and not onto:
        failure = failure or f"tree has {leaf_count} leaves for {len(ops)} candidates"
    return TreeVerification(
        ok=complete and injective and onto,
        leaf_map=leaf_map,
        depths=depths,
        leaf_count=leaf_count,
        failure=failure,
    )


def tree_stats(tree: QueryTree, ops: OperationSet) -> tuple[int, float]:
    """(worst, average) leaf depth of a tree that solves the candidate set."""
    v = verify_query_tree(tree, ops)
    if not v.ok:
        raise ValidationError(v.failure or "tree does not solve the candidate set")
    worst = max(v.depths.values())
    avg = sum(v.depths.values()) / len(v.depths)
    return worst, avg


def minimal_worst_case(ops: OperationSet, budget: int = SEARCH_BUDGET) -> tuple[int, QueryTree]:
    """Exact minimum worst-case query count over all trees solving ``ops``,

    with a canonical witness tree. Memoized minimax over candidate subsets:
    a state is solved when one candidate remains; otherwise try every query
    that splits the state, recurse on the answer blocks, and keep the
    lexicographically first query achieving the minimum. States prune
    against the information floor ceil(log_b |state|), b = widest split any
    query offers there. One sort of the state's (k, n^2) answer matrix counts
    the distinct answers of every query, which gives b and the splitting
    queries; a query's blocks are grouped only when the scan reaches it, and
    a query whose blocks equal an earlier query's (answer labels aside) is
    skipped, since its children and value are the same and the earlier
    query wins the tie.
    """
    m = len(ops)
    if m > budget:
        raise CapabilityError(f"|X| = {m} exceeds the search budget {budget} (pass a larger budget to override)")
    n = ops.n
    answers = ops.tables.reshape(m, n * n)  # column x*n + y answers query (x, y)

    memo_value: dict[tuple[int, ...], int] = {}
    memo_choice: dict[tuple[int, ...], tuple[tuple[int, int], dict[int, tuple[int, ...]]]] = {}

    def solve(ids: tuple[int, ...]) -> int:
        if len(ids) <= 1:
            return 0
        cached = memo_value.get(ids)
        if cached is not None:
            return cached
        rows = answers[list(ids)]
        ranked = np.sort(rows, axis=0)
        widths = 1 + (ranked[1:] != ranked[:-1]).sum(axis=0)  # distinct answers per query
        widest = int(widths.max())
        if widest == 1:
            raise ValidationError("candidate tables must be pairwise distinct; two of them answer every query alike")
        floor, reach = 0, 1
        while reach < len(ids):  # smallest d with widest^d >= |state|, in exact arithmetic
            reach *= widest
            floor += 1
        best: Optional[int] = None
        best_choice = None
        seen: set[tuple[tuple[int, ...], ...]] = set()  # partitions already tried here
        for q in (widths > 1).nonzero()[0].tolist():
            blocks: dict[int, list[int]] = {}
            for op_id, z in zip(ids, rows[:, q].tolist()):
                blocks.setdefault(z, []).append(op_id)
            groups = {z: tuple(g) for z, g in blocks.items()}
            partition = tuple(sorted(groups.values()))
            if partition in seen:
                continue
            seen.add(partition)
            worst = 0
            for z in sorted(groups):
                worst = max(worst, solve(groups[z]))
                if best is not None and 1 + worst >= best:
                    break  # aborted: this query cannot beat the best one
            else:
                if best is None or 1 + worst < best:
                    best, best_choice = 1 + worst, (divmod(q, n), groups)
                    if best == floor:
                        break
        # some query splits the state and the first one is never aborted, so best is set
        memo_value[ids] = best
        memo_choice[ids] = best_choice
        return best

    def build(ids: tuple[int, ...]) -> QueryTree:
        if len(ids) == 1:
            return Leaf(ids[0])
        query, groups = memo_choice[ids]
        return Node(query, {z: build(groups[z]) for z in sorted(groups)})

    root = tuple(range(m))
    depth = solve(root)
    return depth, build(root)

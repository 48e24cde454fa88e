"""Query trees over candidate sets, and exact search for the shallowest one.

A query tree is the full strategy of an adaptive algorithm: internal nodes
ask one product x*y, one child per possible answer, leaves claim "the hidden
operation is now determined". A tree solves a candidate set X when walking
every operation in X lands on its own leaf (the leaf map is a bijection), so
worst case cost = deepest leaf and average cost = mean leaf depth.

``minimal_worst_case`` finds the true optimum by memoized minimax over the
reachable candidate subsets, pruned at the information floor (d more queries
with at most b-way answers cannot split more than b^d candidates). Each state
is solved only up to a cap, the value it must beat, as in alpha-beta: below
the cap its value is exact, at or above it the search stops at a lower bound
that a later call with a higher cap searches on from. Each state counts its
queries' distinct answers with one numpy sort; answer blocks are built lazily
in lexicographic (x, y) order and solved largest first, queries that repeat an
earlier partition are skipped, and ties keep the first winner, so the returned
witness tree is canonical and runs reproduce bit identical results. A state
of two candidates, or one that some query separates completely, is valued 1
without a scan. The memo keeps only the query each state chose, and the
witness tree regroups its states as it is built.

Every class searched here is closed under relabeling (S_n). A state of a
closed set is then fixed by every permutation of the labels its transcript
has not mentioned, so the search scans one query per orbit of that
stabiliser. Below the first answer that a path had not mentioned, a state
also has a conjugacy key, equal for states that a permutation fixing that
answer's state maps onto each other, so each set of conjugate answer blocks
is solved once. The witness tree reads a conjugate's value and the query its
scan chose, mapped back through the key's names, instead of searching the
block again; neither changes a value or the witness tree. ``enumerate_orbit``
walks an orbit by the star transpositions (0 i) when that takes fewer
relabelings than running all n! permutations.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from operator import index
from typing import Iterator, Mapping, Optional, Union

import numpy as np

from .algebra import _PERMUTATION_CHUNK, OpTable, _check_cap, _cyclic_table, _factorize, _relabelings, abelian_type, is_prime
from .bounds import abelian_automorphism_count
from .errors import CapabilityError, ValidationError

SEARCH_BUDGET = 200  # default cap on |X| for exact search
# The orbit walk and the closure check relabel at most _STAR_CHUNK tables by
# at most max(1, _STAR_ENTRIES // n^2) star transpositions per gather.
_STAR_CHUNK = 256
_STAR_ENTRIES = 4096


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


def _integer(v: object, what: str) -> int:
    """v as an int by the rule of ``Oracle.query``: integers, not bools; else ValidationError."""
    try:
        if v.__class__ is bool:
            raise TypeError("bool")
        return index(v)
    except TypeError:
        raise ValidationError(f"{what} needs an integer, got {v!r}") from None


def tree_from_dict(d: dict) -> QueryTree:
    """Inverse of ``tree_to_dict``; a malformed node raises ValidationError.

    Answer keys may be integers or, as JSON writes them, their decimal strings.
    The walk keeps its own stack, so depth is bounded by memory only, and a
    dict that contains itself is refused.
    """
    root: dict = {}
    stack: list = [(root, 0, d)]  # (children to fill, answer, node dict), or (None, None, id) leaving a node
    path: set[int] = set()  # ids of the node dicts from the root down to the one being read
    while stack:
        children, z, src = stack.pop()
        if children is None:
            path.discard(src)
            continue
        node, kids = _node_from_dict(src)
        children[z] = node
        if kids:
            if id(src) in path:
                raise ValidationError("tree dict contains itself")
            path.add(id(src))
            stack.append((None, None, id(src)))
            stack.extend((node.children, z, sub) for z, sub in reversed(kids))
    return root[0]


def _node_from_dict(d: object) -> tuple[QueryTree, list[tuple[int, object]]]:
    """One node of a tree dict, with its children still to fill, and its (answer, child dict) pairs."""
    if not isinstance(d, Mapping):
        raise ValidationError(f"tree node must be a dict, got {d!r}")
    if "leaf" in d:
        v = d["leaf"]
        return Leaf(None if v is None else _integer(v, "leaf")), []
    if "query" not in d or "children" not in d:
        raise ValidationError("tree node needs either a leaf or query + children")
    query, kids = d["query"], d["children"]
    if not isinstance(query, (list, tuple)) or len(query) != 2:
        raise ValidationError(f"query must be a pair [x, y], got {query!r}")
    if not isinstance(kids, Mapping):
        raise ValidationError(f"children must map answers to nodes, got {kids!r}")
    pairs = []
    for z, sub in kids.items():
        if isinstance(z, str) and z.isascii() and z.removeprefix("-").isdigit():
            z = int(z)
        pairs.append((_integer(z, "answer"), sub))
    return Node((_integer(query[0], "query"), _integer(query[1], "query")), {}), pairs


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
        if check_distinct and len(_sorted_distinct(_byte_keys(arr))) != len(arr):
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


def iter_cyclic_prime_tables(p: int) -> Iterator[np.ndarray]:
    """All p * (p-2)! distinct tables of a cyclic group of prime order p.

    Parameterization: pick the identity, give the smallest remaining element
    discrete log 1 (scaling the generator is an automorphism, so log 1 can be
    pinned), and distribute logs 2..p-1 over the rest in every way. Lazy, for
    exhaustive sweeps that should not materialize the whole family.
    """
    if not is_prime(p):
        raise ValidationError(f"need a prime order, got {p}")
    for e in range(p):
        others = [x for x in range(p) if x != e]
        g, rest = others[0], others[1:]
        for assignment in permutations(rest):
            yield _cyclic_table((e, g) + assignment)


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array, ascending.

    Same result as ``np.unique``, which would import ``numpy.ma`` on first
    use and add about 1 MB to the resident set of a process.
    """
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def _byte_keys(stack: np.ndarray) -> np.ndarray:
    """One fixed-width key per table of an (m, n, n) stack; np.void keys sort bytewise."""
    m, n = stack.shape[:2]
    flat = np.ascontiguousarray(stack).reshape(m, n * n)
    return flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize))).ravel()


def _contains(ordered: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which keys occur in a nonempty ascending key array."""
    at = np.searchsorted(ordered, keys)
    return ordered[np.minimum(at, len(ordered) - 1)] == keys


def _star_relabelings(stack: np.ndarray) -> Iterator[np.ndarray]:
    """Every table of an (m, n, n) stack relabelled by each star transposition (0 i).

    The n - 1 transpositions (0 1), ..., (0 n-1) generate S_n, so a set of
    tables is closed under relabeling iff it is closed under them. Each is
    its own inverse: relabel(t, s)[u, v] = s[t[s[u], s[v]]] is one gather of
    positions and a swap of the values 0 and i. Yields (k, n, n) stacks of
    images in the stack's dtype, a bounded chunk at a time and in no useful
    order; entries outside 0..n-1 are left as they are.
    """
    m, n = stack.shape[:2]
    flat = stack.reshape(m, n * n)
    for i, at in _star_gathers(n) if (n - 1) * n * n <= _STAR_ENTRIES else _iter_star_gathers(n):
        label = i.astype(stack.dtype)[:, None]  # a user-built OperationSet may hold int64 stacks
        for first in range(0, m, _STAR_CHUNK):
            moved = flat[first : first + _STAR_CHUNK, at]
            yield (moved + label * (moved == 0) - label * (moved == label)).reshape(-1, n, n)


def _iter_star_gathers(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per gather of ``_star_relabelings``, the labels i of its transpositions (0 i) and the positions at; read-only."""
    step = max(1, _STAR_ENTRIES // (n * n))  # transpositions per gather
    for lo in range(1, n, step):
        i = np.arange(lo, min(n, lo + step))
        s = np.tile(np.arange(n), (len(i), 1))  # row r is (0 i[r])
        s[:, 0], s[np.arange(len(i)), i] = i, 0
        at = (s[:, :, None] * n + s[:, None, :]).reshape(len(i), n * n)
        i.flags.writeable = at.flags.writeable = False
        yield i, at


@lru_cache(maxsize=16)
def _star_gathers(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The one gather of an n with (n - 1) n^2 <= _STAR_ENTRIES (n <= 16), cached; larger n build theirs as they go."""
    return tuple(_iter_star_gathers(n))


def _walk_is_shorter(t: OpTable) -> bool:
    """True iff walking the orbit of t takes fewer relabelings than all n! permutations.

    The walk relabels each of the n! / |Aut| tables n - 1 times, so it is
    shorter iff |Aut| > n - 1, which is decided in closed form for abelian
    groups. Other tables keep the kernel. So does n <= 5, where all n!
    permutations are one gather of the kernel, and an abelian group of
    squarefree order, which is cyclic with phi(n) <= n - 1 automorphisms.
    """
    if math.factorial(t.n) <= _PERMUTATION_CHUNK or all(e == 1 for e in _factorize(t.n).values()):
        return False
    factors = abelian_type(t)
    return factors is not None and abelian_automorphism_count(factors) > t.n - 1


def enumerate_orbit(canonical: OpTable, cap: Optional[int] = None) -> OperationSet:
    """Every distinct relabeling of a table, as an OperationSet in byte order.

    n must be under the brute force cap; past it, and before any work, the
    call raises CapabilityError. When the table has more than n - 1
    automorphisms (``_walk_is_shorter``), the orbit is walked breadth first
    by the star transpositions, n - 1 relabelings per table; otherwise all
    n! permutations run through the chunked kernel of ``algebra`` and are
    deduped. Both give the same stack, and memory stays O(orbit + chunk).
    """
    n = canonical.n
    _check_cap(n, cap, "enumerate_orbit")
    start = canonical.entries[None]
    if _walk_is_shorter(canonical):
        return OperationSet(_walk_orbit(start), check_distinct=False)
    seen = np.empty(0, dtype=_byte_keys(start).dtype)  # distinct keys so far, ascending
    fresh: list[np.ndarray] = []  # keys of the chunks since the last merge
    for perms, images in _relabelings(start):
        fresh.append(_byte_keys(images[0]))
        # merging once the fresh keys outnumber the kept ones holds memory to
        # O(orbit + chunk) and the sorting to O(n! log n!)
        if sum(map(len, fresh)) > len(seen):
            seen = _sorted_distinct(np.concatenate([seen, *fresh]))
            fresh = []
    stack = _sorted_distinct(np.concatenate([seen, *fresh])).view(start.dtype).reshape(-1, n, n)
    return OperationSet(stack, check_distinct=False)


def _walk_orbit(start: np.ndarray) -> np.ndarray:
    """The orbit of a (1, n, n) stack in byte order, walked breadth first by ``_star_relabelings``."""
    n = start.shape[1]
    seen = _byte_keys(start)  # every key reached so far, ascending
    frontier = start
    while len(frontier):
        found = []
        for images in _star_relabelings(frontier):
            keys = _sorted_distinct(_byte_keys(images))
            found.append(keys[~_contains(seen, keys)])
        new = _sorted_distinct(np.concatenate(found))
        seen = np.insert(seen, np.searchsorted(seen, new), new)
        frontier = new.view(start.dtype).reshape(-1, n, n)
    return seen.view(start.dtype).reshape(-1, n, n)


@dataclass
class TreeVerification:
    """Walk record of one tree against one candidate set."""

    ok: bool
    leaf_map: dict[int, tuple[int, ...]]  # op id -> answer path to its leaf
    depths: dict[int, int]
    leaf_count: int
    failure: Optional[str] = None


def _count_leaves(tree: QueryTree, max_depth: int) -> int:
    """Leaves of ``tree``, walked with an explicit stack; deeper than ``max_depth`` or a childless node raises."""
    leaves = 0
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if depth > max_depth:
            raise ValidationError(f"tree deeper than {max_depth}; malformed")
        if isinstance(node, Leaf):
            leaves += 1
        elif not node.children:
            raise ValidationError("internal node with no children")
        else:
            stack.extend((c, depth + 1) for c in reversed(list(node.children.values())))
    return leaves


def verify_query_tree(tree: QueryTree, ops: OperationSet) -> TreeVerification:
    """Walk every candidate through the tree and check the leaf map is a bijection.

    ok is True iff every walk ends at a leaf (no missing answer branch), every
    leaf that names an ``op_id`` is reached by that candidate, no two
    candidates share a leaf, and no leaf is left unused.
    """
    n = ops.n
    leaf_count = _count_leaves(tree, max_depth=n * n)
    answers = ops.tables.reshape(len(ops), n * n)  # column x*n + y answers query (x, y)
    leaf_map: dict[int, tuple[int, ...]] = {}
    depths: dict[int, int] = {}
    failure = None
    for i in range(len(ops)):
        row = answers[i].tolist()
        node = tree
        path: list[int] = []
        while isinstance(node, Node):
            x, y = node.query
            if not (0 <= x < n and 0 <= y < n):
                raise ValidationError(f"query {node.query} out of range for n = {n}")
            z = row[x * n + y]
            nxt = node.children.get(z)
            if nxt is None:
                failure = failure or f"operation {i} got unanswered branch {x}*{y} = {z}"
                break
            path.append(z)
            node = nxt
        else:
            if node.op_id is not None and node.op_id != i:
                failure = failure or f"operation {i} reaches the leaf of operation {node.op_id}"
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
        ok=failure is None,
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


def _check_budget(m: int, budget: int) -> None:
    if m > budget:
        raise CapabilityError(f"|X| = {m} exceeds the search budget {budget} (pass a larger budget to override)")


@dataclass
class SearchStats:
    """What one ``minimal_worst_case`` run did; pass one as ``stats=`` to fill it."""

    states: int = 0  # states searched: memo misses with three or more candidates, their answers sorted
    memo_hits: int = 0  # states answered from the memo of their candidate ids
    conjugate_hits: int = 0  # states answered from the memo of their conjugacy key: a conjugate state was searched
    queries_scanned: int = 0  # splitting queries whose answer blocks were grouped
    queries_skipped: int = 0  # queries not scanned: another query of their stabiliser orbit stands for them
    floor_cutoffs: int = 0  # states whose scan of their queries stopped at the information floor
    aborted: int = 0  # queries dropped: their largest block's floor, or a solved block, reached the best value
    capped: int = 0  # states that failed high: the search stopped at a lower bound >= its cap
    settled: int = 0  # states valued 1 without a scan: two candidates, or a searched state one query separates
    conjugate_reads: int = 0  # witness nodes whose query was read from the recorded scan of a conjugate state


def _blocks(ids: tuple[int, ...], zs: np.ndarray) -> dict[int, tuple[int, ...]]:
    """The candidates ids grouped by their answers zs to one query, each block in the order of ids."""
    blocks: dict[int, list[int]] = {}
    for op_id, z in zip(ids, zs.tolist()):
        blocks.setdefault(z, []).append(op_id)
    return {z: tuple(g) for z, g in blocks.items()}


@lru_cache(maxsize=4096)
def _representatives(mentioned: int, n: int) -> np.ndarray:
    """Columns x*n + y, ascending, of the lexicographically first query of each
    orbit of Sym(unmentioned labels) on the n^2 queries; read-only, cached.

    With u0 < u1 the two smallest unmentioned labels, these are the pairs
    over the mentioned labels and u0, plus (u0, u1).
    """
    unmentioned = [v for v in range(n) if not mentioned >> v & 1]
    labels = [v for v in range(n) if mentioned >> v & 1 or v == unmentioned[0]] if unmentioned else range(n)
    cols = [x * n + y for x in labels for y in labels]
    if len(unmentioned) >= 2:
        cols.append(unmentioned[0] * n + unmentioned[1])
        cols.sort()
    cols = np.array(cols, dtype=np.intp)
    cols.flags.writeable = False
    return cols


def _key_name(v: int, n: int, fixed: int, named: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The name of label or answer v in a conjugacy key, and the named labels after it.

    A label in the mask fixed keeps its own name. Any other label is named
    n + its place in named, the labels in order of first mention, and joins
    named if it is new. An answer outside 0..n-1 is no label and no
    permutation moves it; it is named v below 0 and v + n from n up, apart
    from both.
    """
    if not 0 <= v < n:
        return (v if v < 0 else v + n), named
    if fixed >> v & 1:
        return v, named
    if v not in named:
        named += (v,)
    return n + named.index(v), named


def minimal_worst_case(ops: OperationSet, budget: int = SEARCH_BUDGET, stats: Optional[SearchStats] = None) -> tuple[int, QueryTree]:
    """Exact minimum worst-case query count over all trees solving ``ops``,

    with a canonical witness tree. Memoized minimax over candidate subsets:
    a state is solved when one candidate remains; otherwise try every query
    that splits the state, recurse on the answer blocks, and keep the
    lexicographically first query achieving the minimum. One sort of the
    state's answer matrix counts the distinct answers of every query it
    scans, which gives the splitting queries and b, the widest split; a
    query's blocks are grouped only when the scan reaches it, and a query
    whose blocks equal an earlier query's (answer labels aside) is skipped,
    since its children and value are the same and the earlier query wins
    the tie. No state of two or more candidates is worth less than 1, so
    a state of two distinct candidates is settled at 1 with no sort, and a
    state that some query separates completely takes the first such query
    with no scan; either witness is the query the scan would have picked.
    The memo keeps only each state's chosen query, and the witness tree
    groups a state's answers again when it is built.

    Each state is solved up to a cap, the value it must beat: below the cap
    the value is exact, at or above it the search stops with a lower bound
    (alpha-beta's fail high). The scan's best value starts at the cap and
    every answer block of a query gets the cap best - 1, so a query stops at
    its first block that cannot beat the best query so far. Blocks are
    solved largest first, and a query whose largest block has more than
    b^(best - 2) candidates is refused unsolved: no sub-block splits wider
    than b, so that block alone needs best - 1 queries. A state stops as
    soon as its best value reaches its floor: the information floor
    ceil(log_b |state|), or a lower bound an earlier, lower cap left for it,
    from which a higher cap searches again. Exact values come out the same
    under any cap above them, and so does the first query reaching them.

    When ``ops`` is closed under relabeling (checked once, by the star
    transpositions), a state is fixed by every permutation of the labels
    its path has not mentioned as x, y or answer. Queries in one orbit of
    that stabiliser have the same value, so the scan takes only the
    lexicographically first of each (``_representatives``): the first query
    with the best value is among them. States below an answer that the path
    had not mentioned get a conjugacy key as well as their ids. The key
    starts at that first fresh answer: the serial of the anchor state (its
    ids and mentioned labels) and its query (x, y). Below, each query and
    answer adds (x, y, z), where the labels mentioned at or above the anchor
    keep their names and every later label is named by its order of first
    mention (``_key_name``). States with equal keys are images of each other
    under a permutation that fixes the anchor state, so they have the same
    value, and exact values and fail-high bounds are kept under both. Every
    set of conjugate fresh blocks is so solved once, and the key keeps that
    state's named labels and the queries its scan found optimal: the chosen
    one, every query before it in the scan being worth more, or at value 1
    all that separate the state. For a block that only a conjugate's key
    valued, at v, the witness tree maps its representatives back to the
    conjugate's through the names (fixed labels stay, ``named`` in order,
    the unmentioned labels in order) and takes the first whose image is
    known optimal. A representative before it whose image came after the
    chosen query has a value the scan did not settle; those are grouped in
    order and their blocks solved at cap v, and the first whose blocks all
    stay below v wins. Any other set is searched with every label
    mentioned, which scans every query and starts no key; nor does a max
    chain, whose every answer is x or y. Values and witness trees are the
    same either way; ``stats`` counts the work.
    """
    m = len(ops)
    _check_budget(m, budget)
    n = ops.n
    stats = SearchStats() if stats is None else stats
    tables = ops.tables
    keys = np.sort(_byte_keys(tables))
    if (keys[1:] == keys[:-1]).any():
        raise ValidationError("candidate tables must be pairwise distinct; two of them answer every query alike")
    closed = all(_contains(keys, _byte_keys(images)).all() for images in _star_relabelings(tables))
    answers = tables.reshape(m, n * n)  # column x*n + y answers query (x, y)
    bits = {v: 1 << v for v in range(n)}  # answers outside 0..n-1 name no label

    memo_value: dict[tuple[int, ...], int] = {}  # exact values, by candidate ids
    memo_choice: dict[tuple[int, ...], int] = {}  # column x*n + y of the chosen query; build regroups
    memo_bound: dict[tuple[int, ...], int] = {}  # lower bounds of states that failed high
    conj_value: dict[tuple[int, ...], int] = {}  # exact values, by conjugacy key
    conj_scan: dict[tuple[int, ...], tuple] = {}  # (named, optimal) of the state that gave the exact value, by key
    conj_bound: dict[tuple[int, ...], int] = {}  # lower bounds of states that failed high, by conjugacy key
    anchors: dict[tuple[tuple[int, ...], int], int] = {}  # serial of each anchor state, by (ids, mentioned)

    # A frame is None or (key, fixed, named): the conjugacy key of a state, the
    # labels mentioned at or above its anchor, and the later labels in order of mention.
    def frame_of(frame: Optional[tuple], ids: tuple[int, ...], mentioned: int, x: int, y: int, z: int) -> Optional[tuple]:
        """The frame of the answer-z block of query (x, y) at state ids; without a frame there, z must be fresh."""
        if frame is None:  # the key starts at this first fresh answer
            return (anchors.setdefault((ids, mentioned), len(anchors)), x, y), mentioned | bits[x] | bits[y], (z,)
        key, fixed, named = frame
        cx, named = _key_name(x, n, fixed, named)
        cy, named = _key_name(y, n, fixed, named)
        cz, named = _key_name(z, n, fixed, named)
        return key + (cx, cy, cz), fixed, named

    def solve(ids: tuple[int, ...], mentioned: int, cap: int, frame: Optional[tuple]) -> int:
        """The value of state ids if it is below cap, else a lower bound >= cap."""
        if len(ids) <= 1:
            return 0
        if len(ids) == 2:  # two distinct tables differ on some query; at cap <= 1, 1 is also a bound >= cap
            stats.settled += 1
            return 1
        known = memo_value.get(ids)
        if known is None:
            known = memo_bound.get(ids, 0)
            if known < cap:
                if frame is None:
                    return search(ids, mentioned, cap, known, None)
                conj = conj_value.get(frame[0])
                if conj is None:
                    conj = max(known, conj_bound.get(frame[0], 0))
                    if conj < cap:
                        return search(ids, mentioned, cap, conj, frame)
                stats.conjugate_hits += 1
                return conj
        stats.memo_hits += 1
        return known

    def fail_high(ids: tuple[int, ...], frame: Optional[tuple], bound: int) -> int:
        stats.capped += 1
        memo_bound[ids] = bound
        if frame is not None:
            conj_bound[frame[0]] = bound
        return bound

    def search(ids: tuple[int, ...], mentioned: int, cap: int, known: int, frame: Optional[tuple]) -> int:
        stats.states += 1
        cols = _representatives(mentioned, n)
        stats.queries_skipped += n * n - len(cols)
        rows = answers.take(ids, axis=0).take(cols, axis=1)
        ranked = np.sort(rows, axis=0)
        widths = 1 + (ranked[1:] != ranked[:-1]).sum(axis=0)  # distinct answers per query
        widest = int(widths.max())
        # reach[d] = widest^d, up to the first power >= |state|; no query splits a block
        # of k candidates wider, so it needs bisect_left(reach, k) queries or more
        reach = [1]
        while reach[-1] < len(ids):
            reach.append(reach[-1] * widest)
        floor = max(known, len(reach) - 1)
        if floor >= cap:
            return fail_high(ids, frame, floor)
        if widest == len(ids):  # the first query that separates every candidate reaches the floor of 1
            stats.settled += 1
            best, best_choice, splitting = 1, int(cols[widths.argmax()]), []
        else:
            best, best_choice, splitting = cap, None, (widths > 1).nonzero()[0].tolist()
        low = len(ids)  # least lower bound of a refused query; every query is worth less than |state|
        seen: set[tuple[tuple[int, ...], ...]] = set()  # partitions already tried here
        for j in splitting:
            stats.queries_scanned += 1
            groups = _blocks(ids, rows[:, j])
            partition = tuple(sorted(groups.values()))
            if partition in seen:
                continue
            seen.add(partition)
            order = sorted(groups, key=lambda z: (-len(groups[z]), z))
            largest = len(groups[order[0]])
            if best - 2 < len(reach) and largest > reach[best - 2]:  # the largest block needs best - 1 queries
                stats.aborted += 1
                low = min(low, 1 + bisect_left(reach, largest))
                continue
            x, y = divmod(int(cols[j]), n)
            after = mentioned | bits[x] | bits[y]
            worst = 0
            for z in order:
                block, bit = groups[z], bits.get(z, 0)
                sub = frame_of(frame, ids, mentioned, x, y, z) if len(block) > 2 and (frame or bit & ~after) else None
                worst = max(worst, solve(block, after | bit, best - 1, sub))
                if 1 + worst >= best:
                    stats.aborted += 1
                    low = min(low, 1 + worst)
                    break  # aborted: this query cannot beat the best one
            else:
                best, best_choice = 1 + worst, int(cols[j])
                if best == floor:
                    stats.floor_cutoffs += 1
                    break
        if best_choice is None:  # every query failed high
            return fail_high(ids, frame, low)
        memo_bound.pop(ids, None)
        memo_value[ids] = best
        memo_choice[ids] = best_choice
        if frame is not None:
            conj_bound.pop(frame[0], None)
            conj_value[frame[0]] = best
            # every query the scan reached before its choice is worth more; at 1, the optimal ones are those that separate
            conj_scan[frame[0]] = frame[2], (frozenset(cols[widths == len(ids)].tolist()) if best == 1 else best_choice)
        return best

    def reaches(ids: tuple[int, ...], mentioned: int, frame: tuple, column: int, value: int) -> bool:
        """True iff the query at column splits state ids into blocks all worth less than value."""
        groups = _blocks(ids, answers[ids, column])
        if len(groups) == 1:  # the query does not split the state
            return False
        x, y = divmod(column, n)
        after = mentioned | bits[x] | bits[y]
        for z in sorted(groups, key=lambda z: (-len(groups[z]), z)):
            block = groups[z]
            sub = frame_of(frame, ids, mentioned, x, y, z) if len(block) > 2 else None
            if solve(block, after | bits.get(z, 0), value, sub) >= value:
                return False
        return True

    def read(ids: tuple[int, ...], mentioned: int, frame: tuple, value: int) -> int:
        """The first query of state ids worth value, read from the scan of the conjugate state its key recorded.

        Both states mention the fixed labels, and their named labels in the
        same order; the permutation that maps the recorded state's labels
        onto these, and its unmentioned labels onto these in order, maps
        that state onto this one and its representatives onto these.
        """
        stats.conjugate_reads += 1
        named, optimal = conj_scan[frame[0]]
        back = list(range(n))  # back[v]: the recorded state's label that v stands for
        recorded = frame[1]  # the labels the recorded state mentions
        for v, u in zip(frame[2], named):
            back[v] = u
            recorded |= bits[u]
        unmentioned = iter([u for u in range(n) if not recorded >> u & 1])
        for v in range(n):
            if not mentioned >> v & 1:
                back[v] = next(unmentioned)
        for column in _representatives(mentioned, n).tolist():
            x, y = divmod(column, n)
            image = back[x] * n + back[y]  # the recorded state's representative for this one
            if value == 1:  # the recorded optima are all its separating queries
                if image in optimal:
                    return column
            # an image the recorded scan reached before its choice is worth more; one after it is unsettled
            elif image == optimal or image > optimal and reaches(ids, mentioned, frame, column, value):
                return column
        raise AssertionError("a conjugate state's representatives map onto this state's")

    def build(ids: tuple[int, ...], mentioned: int, cap: int, frame: Optional[tuple]) -> QueryTree:
        if len(ids) == 1:
            return Leaf(ids[0])
        if len(ids) == 2:  # settled by solve in closed form; the first query the pair differs on heads its
            # stabiliser orbit, so it is the representative the scan would have picked
            a, b = ids
            column = int((answers[a] != answers[b]).argmax())
            za, zb = answers.item(a, column), answers.item(b, column)
            return Node(divmod(column, n), {za: Leaf(a), zb: Leaf(b)} if za < zb else {zb: Leaf(b), za: Leaf(a)})
        if ids in memo_choice:
            column, value = memo_choice[ids], memo_value[ids]
        elif frame is not None and frame[0] in conj_scan:  # valued by a conjugate
            value = conj_value[frame[0]]
            column = read(ids, mentioned, frame, value)
        else:  # valued on another path only: search it below its parent's value
            solve(ids, mentioned, cap, frame)
            column, value = memo_choice[ids], memo_value[ids]
        x, y = divmod(column, n)
        after, groups = mentioned | bits[x] | bits[y], _blocks(ids, answers[ids, column])
        children = {}
        for z, block in sorted(groups.items()):
            bit = bits.get(z, 0)
            sub = frame_of(frame, ids, mentioned, x, y, z) if len(block) > 2 and (frame or bit & ~after) else None
            children[z] = build(block, after | bit, value, sub)
        return Node((x, y), children)

    # no state of k candidates needs more than k - 1 queries, so a cap of m is never reached
    root, mentioned = tuple(range(m)), 0 if closed else (1 << n) - 1
    return solve(root, mentioned, m, None), build(root, mentioned, m, None)

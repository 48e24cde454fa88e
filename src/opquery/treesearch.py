"""Query trees over candidate sets, and exact search for the shallowest one.

A query tree is the full strategy of an adaptive algorithm: internal nodes
ask one product x*y, one child per possible answer, leaves claim "the hidden
operation is now determined". A tree solves a candidate set X when walking
every operation in X lands on its own leaf (the leaf map is a bijection), so
worst case cost = deepest leaf and average cost = mean leaf depth. The search
returns its tree as ``TreeColumns``: read-only arrays with one row per node
(the query column x*n + y, or the op id of a leaf) and one row per edge
(parent, answer, child), in (parent, answer) order. That is the one form a
tree takes in memory; a tree is written by hand as the nested dicts that
``tree_to_dict`` writes, and ``tree_from_dict`` checks one and reads it into
columns. ``verify_query_tree`` walks every candidate down the tree together,
a level per step: one gather reads their answers, and one searchsorted over
the edge keys finds their children.

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
without a scan. The memo keeps the query each state worth 2 or more chose
with the answer blocks its scan grouped, so the witness tree regroups only
the states it reads from a conjugate; its nodes worth 1 take the first
query that separates their candidates, found in one batch at the end that
writes their columns, leaf rows and edges a chunk at a time.

The search knows a set is closed under relabeling (S_n) only when
``enumerate_orbit`` built it as an orbit; any other set is searched with
every label mentioned. A state of an orbit is fixed by every permutation
of the labels its transcript has not mentioned, so the search scans one
query per orbit of that stabiliser. In a group, a state below the first answer that its path had
not mentioned also has a conjugacy key, equal for states that a permutation
fixing that answer's state maps onto each other. In the orbit of a max
chain, a state is the set of linear extensions of the poset its answers
imply, and every state is keyed by the canonical form of that poset
(``_poset_form``). Either way each set of conjugate states is solved once.
The witness tree reads a conjugate's value and the query its scan chose,
mapped back through the key's names, instead of searching the state again,
and keeps whether a later query of that scan reaches its value for every
conjugate; neither changes a value or the witness tree. ``enumerate_orbit``
walks an orbit by the star transpositions (0 i) when that takes fewer
relabelings than running all n! permutations, and stacks the images of a
max table, or of a cyclic group of prime order p past one chunk of p!,
under permutations that give each table of the orbit once.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, groupby, permutations, product
from operator import itemgetter
from typing import Iterator, Mapping, Optional

import numpy as np

from .algebra import _PERMUTATION_CHUNK, OpTable, _as_int, _check_cap, _cyclic_table, _factorize, _relabelings, _trusted, abelian_type, build_abelian, is_prime
from .bounds import abelian_automorphism_count
from .errors import CapabilityError, ValidationError

SEARCH_BUDGET = 200  # default cap on |X| for exact search
# The orbit walk relabels at most _STAR_CHUNK tables by at most
# max(1, _STAR_ENTRIES // n^2) star transpositions per gather.
_STAR_CHUNK = 256
_STAR_ENTRIES = 4096
# The witness tree settles its states worth 1 by gathering at most this many answers at a time.
_SETTLE_ENTRIES = 1 << 16


@dataclass(frozen=True, eq=False)
class TreeColumns:
    """A query tree on the labels 0..n-1 as read-only arrays, the one form a tree takes here.

    Row v of ``nodes`` is node v, and row 0 the root: the column x*n + y of
    its query (x, y) if it has children, else the op id its leaf names, -1
    for none. Each row of ``edges`` is (parent, answer, child), in (parent,
    answer) order, so the children of node v are the rows starts[v] to
    starts[v + 1] of ``_starts``; every node but the root is the child of
    one edge and comes after its parent. Built from outside, the columns are
    copied read-only and checked: breaking any of these rules raises
    ValidationError; the search and ``tree_from_dict`` build them unchecked.
    """

    n: int
    nodes: np.ndarray
    edges: np.ndarray

    def __post_init__(self) -> None:
        n, nodes, edges = _integer(self.n, "n"), np.asarray(self.nodes), np.asarray(self.edges)
        if any(a.size and not (a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64)) for a in (nodes, edges)):
            raise ValidationError(f"tree columns need integers that fit in int64, got {nodes.dtype} and {edges.dtype}")
        nodes, edges = nodes.astype(np.int64), edges.astype(np.int64)  # copies, read-only once checked
        if n < 1 or nodes.ndim != 1 or len(nodes) < 1 or edges.shape != (len(nodes) - 1, 3):
            raise ValidationError(f"tree columns need n >= 1, k >= 1 nodes and k - 1 edges of 3; got n = {n}, {nodes.shape} and {edges.shape}")
        parent, answer, child = edges.T
        if not ((0 <= parent) & (parent < child)).all() or not (np.sort(child) == np.arange(1, len(nodes))).all():
            raise ValidationError("every node but the root must be the child of exactly one edge, after its parent")
        if ((parent[1:] < parent[:-1]) | (parent[1:] == parent[:-1]) & (answer[1:] <= answer[:-1])).any():
            raise ValidationError("edges must be in (parent, answer) order, with distinct answers per parent")
        leaf = np.ones(len(nodes), dtype=bool)
        leaf[parent] = False
        if not all(0 <= c < n * n for c in nodes[~leaf].tolist()) or (nodes[leaf] < -1).any():
            raise ValidationError(f"every query column must be in [0, {n * n}) and every leaf an op id >= 0 or -1")
        nodes.flags.writeable = edges.flags.writeable = False
        for name, value in (("n", n), ("nodes", nodes), ("edges", edges)):
            object.__setattr__(self, name, value)


def _columns(n: int, nodes: np.ndarray, edges: np.ndarray) -> TreeColumns:
    """Read-only columns of these rows, unchecked, the edges sorted by parent; each parent's must be in answer order already."""
    edges = edges[np.argsort(edges[:, 0], kind="stable")]
    nodes.flags.writeable = edges.flags.writeable = False
    return _trusted(TreeColumns, n=n, nodes=nodes, edges=edges)


def _starts(t: TreeColumns) -> np.ndarray:
    """The first edge row of each node and one past the last: node v is a leaf iff starts[v] == starts[v + 1]."""
    return np.searchsorted(t.edges[:, 0], np.arange(len(t.nodes) + 1))


def _as_columns(tree: TreeColumns, n: Optional[int] = None) -> TreeColumns:
    """tree, if it is a ``TreeColumns`` on n labels (any n when None); else ValidationError."""
    if not isinstance(tree, TreeColumns):
        raise ValidationError(f"expected a TreeColumns, got {type(tree).__name__}; tree_from_dict reads a tree dict")
    if n not in (None, tree.n):
        raise ValidationError(f"tree asks queries on {tree.n} labels, not {n}")
    return tree


def tree_to_dict(tree: TreeColumns) -> dict:
    """The tree as nested dicts of Python ints: {"leaf": op id or None}, or {"query": [x, y], "children": {str(answer): subtree}}."""
    t = _as_columns(tree)
    starts = _starts(t).tolist()
    dicts = [
        {"leaf": None if v < 0 else v} if starts[i] == starts[i + 1] else {"query": list(divmod(v, t.n)), "children": {}}
        for i, v in enumerate(t.nodes.tolist())
    ]
    for parent, z, child in t.edges.tolist():
        dicts[parent]["children"][str(z)] = dicts[child]
    return dicts[0]


def _integer(v: object, what: str) -> int:
    """v as an int by ``_as_int``; else ValidationError naming ``what``."""
    try:
        return _as_int(v)
    except TypeError:
        raise ValidationError(f"{what} needs an integer, got {v!r}") from None


def _answer(z: object) -> int:
    """An answer key of a tree dict as an int: an integer, or its decimal string as JSON writes it."""
    if isinstance(z, str) and z.isascii() and z.removeprefix("-").isdigit():
        return int(z)
    return _integer(z, "answer")


def tree_from_dict(d: dict, n: Optional[int] = None) -> TreeColumns:
    """The tree dict d, as ``tree_to_dict`` writes it, as columns on 0..n-1, n by default one past its largest query label.

    A node is {"leaf": an op id >= 0 or None} or {"query": [x, y],
    "children": {answer: node, ...}}, with at least one child and each
    answer, an integer or its decimal string, once. One walk with its own
    stack reads the whole dict, reached or not, so depth is bounded by
    memory only, and numbers each node after its parent, its children in
    answer order. A malformed node, a query outside 0..n-1, a node deeper
    than n^2 (when n is given), a dict that contains itself and a label
    past 64 bits raise ValidationError.
    """
    rows: list = []  # per node: the (x, y) of its query, or the op id its leaf names (-1 for none)
    edges: list[tuple[int, int, int]] = []
    path: set[int] = set()  # ids of the node dicts from the root down to the one being read
    stack: list = [(d, -1, 0, 0)]  # (node dict, parent row, answer, depth), or (None, id, 0, 0) leaving a node
    while stack:
        node, parent, z, depth = stack.pop()
        if node is None:
            path.discard(parent)
            continue
        if n is not None and depth > n * n:
            raise ValidationError(f"tree deeper than {n * n}; malformed")
        if parent >= 0:
            edges.append((parent, z, len(rows)))
        if not isinstance(node, Mapping):
            raise ValidationError(f"tree node must be a dict, got {node!r}")
        if "leaf" in node:
            v = node["leaf"]
            rows.append(-1 if v is None else _integer(v, "leaf"))
            if rows[-1] < 0 and v is not None:
                raise ValidationError(f"leaf needs an op id >= 0 or None, got {v}")
            continue
        if "query" not in node or "children" not in node:
            raise ValidationError("tree node needs either a leaf or query + children")
        query, kids = node["query"], node["children"]
        if not isinstance(query, (list, tuple)) or len(query) != 2:
            raise ValidationError(f"query must be a pair [x, y], got {query!r}")
        if not isinstance(kids, Mapping):
            raise ValidationError(f"children must map answers to nodes, got {kids!r}")
        if not kids:
            raise ValidationError("internal node with no children")
        if id(node) in path:
            raise ValidationError("tree dict contains itself")
        path.add(id(node))
        rows.append((_integer(query[0], "query"), _integer(query[1], "query")))
        kids = sorted([(_answer(z), sub) for z, sub in kids.items()], key=itemgetter(0))
        repeated = [a for (a, _), (b, _) in zip(kids, kids[1:]) if a == b]
        if repeated:
            raise ValidationError(f"children name the answer {repeated[0]} twice")
        stack.append((None, id(node), 0, 0))
        stack.extend((sub, len(rows) - 1, z, depth + 1) for z, sub in reversed(kids))
    queries = [q for q in rows if isinstance(q, tuple)]
    n = 1 + max([max(q) for q in queries], default=0) if n is None else n
    bad = [q for q in queries if not (0 <= min(q) and max(q) < n)]
    if bad:
        raise ValidationError(f"query {bad[0]} out of range for n = {n}")
    try:
        nodes = np.array([q[0] * n + q[1] if isinstance(q, tuple) else q for q in rows], dtype=np.int64)
        edge_rows = np.array(edges, dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        raise ValidationError("tree labels must fit in 64 bits") from None
    return _columns(n, nodes, edge_rows)


def render_tree(tree: TreeColumns, indent: str = "") -> str:
    """Indented text rendering: one line per node, answers label the branches."""
    t = _as_columns(tree)
    nodes, starts = t.nodes.tolist(), _starts(t).tolist()
    answers, children = t.edges[:, 1].tolist(), t.edges[:, 2].tolist()
    out: list[str] = []
    stack: list = [(0, indent)]  # (node, indent), or a branch line to write
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        v, pad = item
        if starts[v] == starts[v + 1]:
            out.append(f"{pad}leaf {'?' if nodes[v] < 0 else f'#{nodes[v]}'}\n")
            continue
        x, y = divmod(nodes[v], t.n)
        out.append(f"{pad}{x}*{y}?\n")
        for e in reversed(range(starts[v], starts[v + 1])):
            stack += [(children[e], pad + "    "), f"{pad}  ={answers[e]}:\n"]
    return "".join(out)


class OperationSet:
    """An indexed set of distinct candidate tables on one carrier.

    Stored as a single (m, n, n) integer array, ``tables``, so the search
    can slice answers cheaply; construction checks that the tables are
    distinct. ``enumerate_orbit`` alone builds an orbit, distinct and closed
    under relabeling by construction, on a read-only stack; while it stays
    read-only, ``minimal_worst_case`` searches it by symmetry, and it checks
    the distinctness of every other set again and searches it open.
    """

    def __init__(self, tables: np.ndarray):
        arr = np.asarray(tables)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValidationError(f"expected an (m, n, n) stack of tables, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValidationError("candidate set must be nonempty")
        if len(_sorted_distinct(_byte_keys(arr))) != len(arr):
            raise ValidationError("candidate tables must be pairwise distinct")
        self._tables, self._orbit = arr, False  # enumerate_orbit alone marks an orbit

    @property
    def n(self) -> int:
        return int(self._tables.shape[1])

    @property
    def tables(self) -> np.ndarray:
        return self._tables

    def __len__(self) -> int:
        return int(self._tables.shape[0])


def _cyclic_prime_powers(p: int) -> Iterator[tuple[int, ...]]:
    """The p (p-2)! power sequences (identity, generator, its square, ...) that give each table of a cyclic group of prime order p once.

    Pick the identity, give the smallest remaining element discrete log 1
    (scaling the generator is an automorphism, so log 1 can be pinned), and
    distribute logs 2..p-1 over the rest in every way. A sequence is also
    the permutation that carries ``build_abelian([p])`` onto its table.
    """
    for e in range(p):
        others = [x for x in range(p) if x != e]
        for rest in permutations(others[1:]):
            yield (e, others[0], *rest)


def iter_cyclic_prime_tables(p: int) -> Iterator[np.ndarray]:
    """All p * (p-2)! distinct tables of a cyclic group of prime order p, ``_cyclic_table`` of each of ``_cyclic_prime_powers``.

    Lazy, for exhaustive sweeps that should not materialize the whole family.
    """
    if not is_prime(p):
        raise ValidationError(f"need a prime order, got {p}")
    return map(_cyclic_table, _cyclic_prime_powers(p))


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

    The n - 1 transpositions (0 1), ..., (0 n-1) generate S_n, so walking
    by them from a table reaches its whole orbit. Each is
    its own inverse: relabel(t, s)[u, v] = s[t[s[u], s[v]]] is one gather of
    positions and a swap of the values 0 and i. Yields (k, n, n) stacks of
    images in the stack's dtype, a bounded chunk at a time and in no useful
    order.
    """
    m, n = stack.shape[:2]
    flat = stack.reshape(m, n * n)
    for i, at in _star_gathers(n) if (n - 1) * n * n <= _STAR_ENTRIES else _iter_star_gathers(n):
        label = i.astype(stack.dtype)[:, None]  # the images keep the stack's dtype
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
    by the star transpositions, n - 1 relabelings per table. Where known
    permutations give each table of the orbit once, their images are
    stacked as they come and sorted once, in place: all n! of them for a
    max table (``_is_max_table``), which has one automorphism, and for a
    group of prime order p past one chunk of p! (p >= 7) the power
    sequences of ``_cyclic_prime_powers``, applied to ``build_abelian([p])``,
    whose orbit it is whichever member the call starts from. Otherwise all
    n! permutations run through the chunked kernel of ``algebra`` and are
    deduped. Every path gives the same stack, and memory stays O(orbit +
    chunk). It is read-only and marked as an orbit, so
    ``minimal_worst_case`` searches it by symmetry without a check.
    """
    n = canonical.n
    _check_cap(n, cap, "enumerate_orbit")
    start = canonical.entries[None]
    if _walk_is_shorter(canonical):
        stack = _walk_orbit(start)
    elif (chain := _is_max_table(canonical.entries)) or math.factorial(n) > _PERMUTATION_CHUNK and is_prime(n) and abelian_type(canonical) == (n,):
        # the images of these permutations are the orbit once each: stack them and sort once
        perms = None if chain else _cyclic_prime_powers(n)
        start = start if perms is None else build_abelian([n]).entries[None]
        stack = np.empty((math.factorial(n) // (1 if perms is None else n - 1), n, n), dtype=start.dtype)
        done = 0
        for p, images in _relabelings(start, perms):
            stack[done : done + len(p)] = images[0]
            done += len(p)
        _byte_keys(stack).sort()  # a view of the stack: its tables take byte order in place
    else:
        seen = np.empty(0, dtype=_byte_keys(start).dtype)  # distinct keys so far, ascending
        fresh: list[np.ndarray] = []  # keys of the chunks since the last merge
        for perms, images in _relabelings(start):
            fresh.append(_byte_keys(images[0]))
            # merging once the fresh keys outnumber the kept ones holds memory to
            # O(orbit + chunk) and the sorting to O(n! log n!)
            if sum(map(len, fresh)) > len(seen):
                seen = _sorted_distinct(np.concatenate([seen, *fresh]))
                fresh = []
        if fresh:
            seen = _sorted_distinct(np.concatenate([seen, *fresh]))
        stack = seen.view(start.dtype).reshape(-1, n, n)
    stack.flags.writeable = False
    orbit = OperationSet.__new__(OperationSet)  # distinct by construction: not checked again
    orbit._tables, orbit._orbit = stack, True
    return orbit


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
    depths: dict[int, int]  # op id -> depth of its leaf, for every candidate that reaches one
    leaf_count: int
    failure: Optional[str] = None


def verify_query_tree(tree: TreeColumns, ops: OperationSet) -> TreeVerification:
    """Walk every candidate down the tree together and check the leaf map is a bijection.

    The tree must be on the labels of ``ops``. The walk takes one level per
    step: one gather reads each walking candidate's answer to the query of
    its node, and one searchsorted over the edge keys (parent, rank of the
    answer) finds its child. ok is True iff every walk ends at a leaf (no missing answer
    branch), every leaf that names an ``op_id`` is reached by that
    candidate, no two candidates share a leaf, and no leaf is left unused;
    the failure names the lowest failing candidate.
    """
    n, m = ops.n, len(ops)
    t = _as_columns(tree, n)
    parent, answer, child = t.edges.T
    leaf = np.ones(len(t.nodes), dtype=bool)
    leaf[parent] = False
    values = _sorted_distinct(answer)  # every answer some edge takes, ascending
    keys = parent * len(values)
    keys += values.searchsorted(answer)  # ascending, as the edges are
    answers = ops.tables.reshape(m, n * n)  # column x*n + y answers query (x, y)
    reached = np.zeros(m, dtype=np.intp)  # the last node of each candidate's walk: its leaf, unless its answer had no branch
    depth = np.zeros(m, dtype=np.intp)
    ids, level = np.flatnonzero(~leaf[reached]), 0  # the candidates still walking
    while len(ids):
        at = reached[ids]
        zs = answers[ids, t.nodes[at]]
        rank = np.minimum(values.searchsorted(zs), len(values) - 1)
        key = at * len(values)
        key += rank
        edge = keys.searchsorted(key)
        np.minimum(edge, len(keys) - 1, out=edge)
        hit = (keys[edge] == key) & (values[rank] == zs)
        ids, level = ids[hit], level + 1
        reached[ids], depth[ids] = child[edge[hit]], level
        ids = ids[~leaf[reached[ids]]]
    lost = ~leaf[reached]
    named = np.where(lost, -1, t.nodes[reached])
    failing = np.flatnonzero(lost | (named >= 0) & (named != np.arange(m)))
    leaf_count = int(leaf.sum())
    failure = None
    if len(failing):
        i = int(failing[0])
        if lost[i]:
            x, y = divmod(int(t.nodes[reached[i]]), n)
            failure = f"operation {i} got unanswered branch {x}*{y} = {int(answers[i, x * n + y])}"
        else:
            failure = f"operation {i} reaches the leaf of operation {int(named[i])}"
    elif len(_sorted_distinct(reached)) < m:
        failure = "two candidates share a leaf"
    elif leaf_count != m:
        failure = f"tree has {leaf_count} leaves for {m} candidates"
    depths = dict(enumerate(depth.tolist()))
    for i in np.flatnonzero(lost).tolist():  # no leaf, no depth
        del depths[i]
    return TreeVerification(ok=failure is None, depths=depths, leaf_count=leaf_count, failure=failure)


def tree_stats(tree: TreeColumns, ops: OperationSet) -> tuple[int, float]:
    """(worst, average) leaf depth of a tree that solves the candidate set."""
    v = verify_query_tree(tree, ops)
    if not v.ok:
        raise ValidationError(v.failure or "tree does not solve the candidate set")
    worst = max(v.depths.values())
    avg = sum(v.depths.values()) / len(v.depths)
    return worst, avg


def _check_budget(m: int, budget: int) -> None:
    if m > budget:
        # str() refuses an int past 4,300 digits (about 14,000 bits), so a count this large gives its size
        size = f"= {m}" if m.bit_length() < 10_000 else f">= 2^{m.bit_length() - 1}"
        raise CapabilityError(f"|X| {size} exceeds the search budget {budget} (pass a larger budget to override)")


def _check_orbit_budget(n: int, automorphisms: int, budget: int) -> None:
    """``_check_budget`` on |X| = n! / automorphisms, which refuses a class far past the budget before n! is formed.

    The product 2 * 3 * ... stops once it passes both the budget and 2^10,000
    times the automorphisms, so such a refusal gives a lower bound on the size of |X|.
    """
    limit = max(budget, 1 << 10_000) * automorphisms
    product = 1
    for k in range(2, n + 1):
        product *= k
        if product > limit:
            break
    _check_budget(product // automorphisms, budget)


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
    conjugate_reads: int = 0  # witness nodes worth 2 or more whose query was read from the recorded scan of a conjugate state
    witness_states: int = 0  # states searched while the witness tree was built, counted in states as well


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


def _is_max_table(t: np.ndarray) -> bool:
    """True iff the (n, n) table t is x*y = the larger of x and y in some total order of its labels."""
    labels = np.arange(len(t))
    wins = (t == labels[:, None]).sum(axis=1)  # in a max table, x*y = x for y = x and the y below x
    if not (np.sort(wins) == labels + 1).all():
        return False
    return bool((t == np.where(wins[:, None] >= wins, labels[:, None], labels)).all())


def _poset_form(below: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The canonical form of a poset on the labels 0..n-1, and a labelling that gives it.

    below[v] is the bitmask of the labels under v, transitively closed. The
    labelling lists every label: those in some relation first, in an order
    that gives the least key, then the isolated ones in label order. The key
    is the below masks of the related labels, each label renamed by its place
    in that list, so two posets get equal keys iff they are isomorphic.

    The related labels are coloured by (#below, #above), and the cells of
    equal colour take the places in colour order. A label's cell comes after
    the cells of every label under it, so once the cells before it are placed,
    the masks of a cell are known, and sorting the cell by them gives the
    least key over its orders; this refines each cell by the cells before it.
    Only labels with equal masks are left, and only they are tried in every
    order: each arrangement is kept while its key stays least, apart from
    twins (equal masks above as well), which an automorphism swaps, so they
    go in label order.
    """
    n = len(below)
    above = [0] * n
    unders = []  # the labels under each label
    for v, under in enumerate(below):
        labels = []
        while under:
            low = under & -under
            labels.append(low.bit_length() - 1)
            above[labels[-1]] |= 1 << v
            under ^= low
        unders.append(labels)
    colours: dict[tuple[int, int], list[int]] = {}
    isolated = []
    for v, under in enumerate(below):
        if under or above[v]:
            colours.setdefault((under.bit_count(), above[v].bit_count()), []).append(v)
        else:
            isolated.append(v)
    key: list[int] = []
    order: list[int] = []
    place = [0] * n  # the bit of each placed label's place
    partial = [(order, place)]  # every order so far that gives the least key so far
    for _, cell in sorted(colours.items()):
        if len(partial) == 1 and len(cell) == 1:
            v = cell[0]
            key.append(sum(map(place.__getitem__, unders[v])))
            place[v] = 1 << len(order)
            order.append(v)
            continue
        least, keep = None, []
        for order, place in partial:
            masks = sorted([(sum(map(place.__getitem__, unders[v])), v) for v in cell])
            segment = [mask for mask, _ in masks]
            if least is None or segment < least:
                least, keep = segment, []
            if segment == least:
                keep.append((order, place, masks))
        key += least
        partial = []
        for order, place, masks in keep:
            arrangements = _arrangements(masks, above) if len(set(least)) < len(least) else [[v for _, v in masks]]
            for arranged in arrangements:
                if len(keep) > 1 or len(arrangements) > 1:
                    place = place.copy()
                for i, v in enumerate(arranged, len(order)):
                    place[v] = 1 << i
                partial.append((order + arranged, place))
        order, place = partial[0]
    return tuple(key), (*order, *isolated)


def _arrangements(masks: list[tuple[int, int]], above: list[int]) -> list[list[int]]:
    """The orders of a cell, given as its (mask, label) pairs sorted, that keep it sorted by mask."""
    runs = [_twin_orders([v for _, v in run], above) for _, run in groupby(masks, key=itemgetter(0))]
    return [[v for run in choice for v in run] for choice in product(*runs)]


def _twin_orders(labels: list[int], above: list[int]) -> list[list[int]]:
    """Every order of labels, up to swapping twins: labels with equal masks above stay in label order."""
    if len(labels) <= 1:
        return [labels]
    firsts = {}  # the least label of each twin class
    for v in labels:
        firsts.setdefault(above[v], v)
    return [[v, *tail] for _, v in sorted(firsts.items()) for tail in _twin_orders([u for u in labels if u != v], above)]


@lru_cache(maxsize=8192)
def _poset_step(key: tuple[int, ...], low: int, high: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """``_poset_form`` of a canonical poset once low < high is added, and the place of each label in its order.

    The canonical poset of key on the labels 0..n-1 has the below masks key
    on its first len(key) labels and leaves the others isolated. The steps
    depend on n alone, so every search of a max chain shares them (a C_5
    search takes 47, an S(8) search 1,436).
    """
    below = [*key, *[0] * (n - len(key))]
    under = below[low] | 1 << low
    key, order = _poset_form(tuple([b | under if v == high or b >> high & 1 else b for v, b in enumerate(below)]))
    place = [0] * n
    for i, v in enumerate(order):
        place[v] = i
    return key, order, tuple(place)


@lru_cache(maxsize=8192)
def _unordered(key: tuple[int, ...], n: int) -> tuple[tuple[int, int], ...]:
    """The places p < q that the canonical poset of key on 0..n-1 leaves unordered, up to its isolated labels.

    These are the pairs among its related labels and the first isolated one,
    and the first two isolated ones: the representatives of the queries
    that split a state with that poset.
    """
    k = len(key)
    pairs = [(p, q) for q in range(min(k + 1, n)) for p in range(q) if q == k or not (key[q] >> p | key[p] >> q) & 1]
    return tuple(pairs + [(k, k + 1)] * (k + 1 < n))


def minimal_worst_case(ops: OperationSet, budget: int = SEARCH_BUDGET, stats: Optional[SearchStats] = None) -> tuple[int, TreeColumns]:
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
    with no scan. The memo keeps each state's chosen query with the answer
    blocks the scan grouped for it (the tuples that key the states below),
    so the witness tree groups answers only for the states it reads from a
    conjugate. The tree is built as columns (``TreeColumns``): the walk
    appends a node row per state and an edge row per answer block. Its
    nodes worth 1 (every block of two candidates, and every block below a
    node worth 2) wait until the walk is done, and one gather per block
    size, in chunks, then gives each the first column on which its
    candidates all differ: that column heads its stabiliser orbit, so it is
    the query the scan picks. Each chunk of s such nodes of k candidates
    writes their s columns, s k leaf rows and s k edges at once.

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

    When ``enumerate_orbit`` built ``ops`` and its stack is still read-only,
    it is distinct and closed under relabeling by construction, and a state
    is fixed by every permutation of the labels its path has not mentioned
    as x, y or answer. Queries in one orbit of that stabiliser have the same value, so
    the scan takes only the lexicographically first of each
    (``_representatives``): the first query with the best value is among them.
    In a group, states below an answer that the path had not mentioned get a
    conjugacy key as well as their ids, a frame key. The key starts at that
    first fresh answer: the serial of the anchor state (its
    ids and mentioned labels) and its query (x, y). Below, each query and
    answer adds (x, y, z), where the labels mentioned at or above the anchor
    keep their names and every later label is named by its order of first
    mention (``_key_name``). States with equal keys are images of each other
    under a permutation that fixes the anchor state, so they have the same
    value, and exact values and fail-high bounds are kept under both. Every
    set of conjugate fresh blocks is so solved once, and for a value of 2 or
    more the key keeps that state's labelling and chosen query, every query
    before it in the scan being worth more (``conj_scan``). For a block that
    only a conjugate's key valued, at v >= 2, the witness tree maps its
    representatives one at a time back to the conjugate's through the names
    (fixed labels stay, ``named`` in order, the unmentioned labels in order)
    and stops at the first whose image is known optimal. A representative
    before it whose image came after the chosen query has a value the scan
    did not settle; its blocks are solved at cap v, the first whose blocks
    all stay below v wins and hands them to the tree, and the verdict is
    kept by (key, image) for every conjugate that asks.

    A max chain answers every query with x or y, so no answer is fresh and
    no frame key starts. When ``ops`` holds n! tables and its first is a max
    table (``_is_max_table``), it is the orbit of a max chain: the answers
    on a path imply a poset, a state is its set of linear extensions, and
    every state of three or more candidates is keyed by the canonical form
    of its poset instead (``_poset_form``). Its frame carries the canonical
    labelling down the path: an answer x < y adds one relation to the
    canonical poset, whose own canonical form (``_poset_step``) is composed
    with the state's labelling to name the block. As (y, x) splits such a
    state as (x, y) does, the scan takes only x < y. The witness tree reads
    a conjugate's scan through the two labellings, which list the
    unmentioned labels last and in order: each pair of places that the
    canonical poset leaves unordered (``_unordered``) names a representative
    x < y in both states. Any other set, closed or not, has its distinctness
    checked and is searched with every label mentioned, which scans every
    query and starts no key. Values and witness trees are the same either
    way; ``stats`` counts the work.
    """
    m = len(ops)
    _check_budget(m, budget)
    n = ops.n
    stats = SearchStats() if stats is None else stats
    tables = ops.tables
    closed = ops._orbit and not tables.flags.writeable  # an orbit enumerate_orbit built is distinct and closed
    if not closed:  # its tables may have been written since the set was built: check them again
        OperationSet(tables)
    # an orbit of all n! tables that holds a max table holds every max table: a state is a poset
    chain = closed and m == math.factorial(n) and _is_max_table(tables[0])
    answers = tables.reshape(m, n * n)  # column x*n + y answers query (x, y)
    bits = {v: 1 << v for v in range(n)}  # answers outside 0..n-1 name no label

    memo_value: dict[tuple[int, ...], int] = {}  # exact values, by candidate ids
    memo_choice: dict[tuple[int, ...], tuple[int, dict[int, tuple[int, ...]]]] = {}  # (column x*n + y, answer blocks) of the query a state worth 2 or more chose
    memo_bound: dict[tuple[int, ...], int] = {}  # lower bounds of states that failed high
    conj_value: dict[tuple[int, ...], int] = {}  # exact values, by conjugacy key
    conj_scan: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}  # (labelling, chosen column) of the state that gave an exact value >= 2, by key
    conj_bound: dict[tuple[int, ...], int] = {}  # lower bounds of states that failed high, by conjugacy key
    anchors: dict[tuple[tuple[int, ...], int], int] = {}  # serial of each anchor state, by (ids, mentioned)
    verdicts: dict[tuple[tuple[int, ...], int], bool] = {}  # whether a recorded state's query reaches its value, by (key, column)
    rows: list[int] = [0]  # the witness tree's nodes: a column, or the op id of a leaf; a node worth 1 waits for settle
    edges: list[int] = []  # (parent, answer, child) of each edge, flat; each parent's are in answer order
    pending: dict[int, list[tuple[int, tuple[int, ...]]]] = {}  # (row, ids) of witness nodes worth 1, by |ids|

    # A frame is None or a state's conjugacy key with what names its labels. In a
    # group it is (key, fixed, named): the labels mentioned at or above its anchor,
    # and the later labels in order of mention. In a max chain it is (key, order,
    # place): the canonical form of the state's poset, the labels in the order that
    # gives it, and each label's place in that order.
    def frame_of(frame: Optional[tuple], ids: tuple[int, ...], mentioned: int, x: int, y: int, z: int) -> Optional[tuple]:
        """The frame of the answer-z block of query (x, y) at state ids; without a frame there, z must be fresh."""
        if chain:  # z is the larger of x and y; the step from the canonical poset, in its places, names the block
            key, order, place = frame
            key, step_order, step_place = _poset_step(key, place[x + y - z], place[z], n)
            return key, tuple([order[i] for i in step_order]), tuple([step_place[i] for i in place])
        if frame is None:  # the key starts at this first fresh answer
            return (anchors.setdefault((ids, mentioned), len(anchors)), x, y), mentioned | bits[x] | bits[y], (z,)
        key, fixed, named = frame
        cx, named = _key_name(x, n, fixed, named)
        cy, named = _key_name(y, n, fixed, named)
        cz, named = _key_name(z, n, fixed, named)
        return key + (cx, cy, cz), fixed, named

    def labelling(frame: tuple, mentioned: int) -> tuple[int, ...]:
        """Every label, in the order the frame's key names them: the mentioned ones, then the others ascending."""
        if chain:
            return frame[1]
        _, fixed, named = frame
        return (*[v for v in range(n) if fixed >> v & 1], *named, *[v for v in range(n) if not mentioned >> v & 1])

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
        best_choice = None  # (column, answer blocks) of the best query so far
        if widest == len(ids):  # the first query that separates every candidate reaches the floor of 1
            stats.settled += 1
            best, splitting = 1, []
        else:
            split = widths > 1
            if chain:  # (y, x) splits a state of a max chain as (x, y) does, and comes later
                split &= cols // n < cols % n
            best, splitting = cap, split.nonzero()[0].tolist()
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
                best, best_choice = 1 + worst, (int(cols[j]), groups)
                if best == floor:
                    stats.floor_cutoffs += 1
                    break
        if best == cap:  # every query failed high
            return fail_high(ids, frame, low)
        memo_bound.pop(ids, None)
        memo_value[ids] = best
        if best > 1:  # a state worth 1 is settled in the witness tree without its choice
            memo_choice[ids] = best_choice
        if frame is not None:
            conj_bound.pop(frame[0], None)
            conj_value[frame[0]] = best
            if best > 1:  # every query the scan reached before its choice is worth more
                conj_scan[frame[0]] = labelling(frame, mentioned), best_choice[0]
        return best

    def reaches(ids: tuple[int, ...], mentioned: int, frame: tuple, column: int, value: int) -> Optional[dict[int, tuple[int, ...]]]:
        """The answer blocks of the query at column on state ids if it splits the state and they are all worth less than value, else None."""
        groups = _blocks(ids, answers[ids, column])
        if len(groups) == 1:  # the query does not split the state
            return None
        x, y = divmod(column, n)
        after = mentioned | bits[x] | bits[y]
        for z in sorted(groups, key=lambda z: (-len(groups[z]), z)):
            block = groups[z]
            if chain and len(block) > 1 << (value - 1):  # two-way answers: the block needs value queries or more
                return None
            sub = frame_of(frame, ids, mentioned, x, y, z) if len(block) > 2 else None
            if solve(block, after | bits.get(z, 0), value, sub) >= value:
                return None
        return groups

    def read(ids: tuple[int, ...], mentioned: int, frame: tuple, value: int) -> tuple[int, Optional[dict[int, tuple[int, ...]]]]:
        """The first query of state ids worth value >= 2, read from the scan its key recorded, and its blocks if grouped here.

        The permutation that maps each label of the recorded state's labelling
        onto the label at the same place in this state's maps that state onto
        this one; both labellings list the unmentioned labels last and in
        order, so it maps that state's representatives onto these. Whether an
        image the recorded scan left unsettled reaches value is kept by key for
        every conjugate that asks.
        """
        stats.conjugate_reads += 1
        key = frame[0]
        recorded, chosen = conj_scan[key]
        if chain:  # each pair of places the poset leaves unordered, as the column x < y here and there
            labels = [(frame[1][p], frame[1][q], recorded[p], recorded[q]) for p, q in _unordered(key, n)]
            pairs = sorted([(a * n + b if a < b else b * n + a, c * n + d if c < d else d * n + c) for a, b, c, d in labels])
        else:
            back = [0] * n  # back[v]: the recorded state's label that v stands for
            for v, u in zip(labelling(frame, mentioned), recorded):
                back[v] = u
            pairs = ((column, back[column // n] * n + back[column % n]) for column in _representatives(mentioned, n).tolist())
        for column, image in pairs:  # image: the recorded state's representative for this one
            # an image the recorded scan reached before its choice is worth more; one after it is unsettled
            if image == chosen:
                return column, None
            if image > chosen:
                verdict = verdicts.get((key, image))
                if verdict is None:
                    groups = reaches(ids, mentioned, frame, column, value)
                    verdicts[key, image] = groups is not None
                    if groups is not None:
                        return column, groups
                elif verdict:
                    return column, None
        raise AssertionError("a conjugate state's representatives map onto this state's")

    def build(row: int, ids: tuple[int, ...], mentioned: int, cap: int, frame: Optional[tuple]) -> None:
        """Write the witness tree of state ids, worth less than cap, from node row down; a state worth 1 waits there for ``settle``."""
        if len(ids) == 1:
            rows[row] = ids[0]
            return
        if len(ids) == 2 or cap == 2:  # a pair, or a block below a node worth 2: none is worth less than 1
            value = 1
        else:
            value = memo_value.get(ids)
            if value is None and frame is not None:
                value = conj_value.get(frame[0])
            if value is None:  # valued on another path only: search it below its parent's value
                value = solve(ids, mentioned, cap, frame)
        if value == 1:
            pending.setdefault(len(ids), []).append((row, ids))
            return
        if ids in memo_choice:  # blocks grouped by the scan
            column, groups = memo_choice[ids]
        else:  # valued by a conjugate
            column, groups = read(ids, mentioned, frame, value)
            if groups is None:
                groups = _blocks(ids, answers[ids, column])
        x, y = divmod(column, n)
        after = mentioned | bits[x] | bits[y]
        rows[row] = column
        for z, block in sorted(groups.items()):
            bit, child = bits.get(z, 0), len(rows)
            rows.append(0)
            edges.extend((row, z, child))
            sub = frame_of(frame, ids, mentioned, x, y, z) if len(block) > 2 and value > 2 and (frame or bit & ~after) else None
            build(child, block, after | bit, value, sub)

    def settle() -> TreeColumns:
        """The witness tree, every state waiting in ``pending`` given the first query on which its candidates all differ.

        That query heads its stabiliser orbit, so it is the representative the
        scan picks. The states of each size k are gathered in chunks of at
        most _SETTLE_ENTRIES answers, and a chunk of s states writes their s
        columns, then s k leaf rows and s k edges, in answer order per state.
        """
        nodes, tree_edges = [np.array(rows, dtype=np.int64)], [np.array(edges, dtype=np.int64).reshape(-1, 3)]
        free = len(rows)  # the next leaf row
        for k, waiting in pending.items():
            step = max(1, _SETTLE_ENTRIES // (k * n * n))
            for start in range(0, len(waiting), step):
                chunk = waiting[start : start + step]
                parents, ids = np.array([row for row, _ in chunk]), np.array([block for _, block in chunk], dtype=np.intp)
                got = answers[ids]  # (states, k, n^2)
                apart = np.ones((len(chunk), n * n), dtype=bool)
                for i, j in combinations(range(k), 2):  # k <= n in a group, 2 in a chain: far quicker than a sort along axis 1
                    apart &= got[:, i] != got[:, j]
                columns = apart.argmax(axis=1)
                nodes[0][parents] = columns  # the rows the walk left for them
                zs = answers[ids, columns[:, None]].astype(np.int64)
                order = np.argsort(zs, axis=1)
                new, free = np.arange(free, free + ids.size), free + ids.size
                nodes.append(np.take_along_axis(ids, order, axis=1).ravel())
                tree_edges.append(np.stack([parents.repeat(k), np.take_along_axis(zs, order, axis=1).ravel(), new], axis=1))
        return _columns(n, np.concatenate(nodes), np.concatenate(tree_edges))

    # no state of k candidates needs more than k - 1 queries, so a cap of m is never reached
    root, mentioned = tuple(range(m)), 0 if closed else (1 << n) - 1
    frame = ((), tuple(range(n)), tuple(range(n))) if chain else None  # the empty poset is its own canonical form
    value = solve(root, mentioned, m, frame)
    searched = stats.states
    build(0, root, mentioned, m, frame)
    tree = settle()
    stats.witness_states += stats.states - searched
    # solve and search call each other and build calls itself, so their closures
    # form cycles; dropping them frees the memo now, not at the next full collection
    del solve, search, build
    return value, tree

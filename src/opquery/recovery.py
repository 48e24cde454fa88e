"""Recovery algorithms: rebuild a hidden table within a proved query budget.

Each function takes an oracle promised to hide an operation from a specific
class and returns the full table plus the number of queries spent:

- abelian groups: exactly n queries, by growing a tower of subgroups
  (power chain of one element, then repeated coset extensions); the table
  over tower positions depends only on the tower's shape, is built from it
  once (and cached for n <= 16) and renamed to elements by one gather;
- cyclic groups of odd prime order: at most n - 2 queries (one power chain,
  with the tail of the chain forced instead of queried);
- cyclic groups of order 11: exactly 8 queries, a hand-tuned schedule whose
  final two answers pin down the four elements the power ladder missed;
- max tables of a total order: merge sort driven by the oracle, at most
  n*ceil(log2 n) - 2^ceil(log2 n) + 1 queries, then x*y is the element of
  the larger rank, one gather over a block of rows at a time;
- ring multiplication over a known addition table: exactly |A|^2 queries
  for a greedy generating set A with |A| <= log2 n, everything else
  rebuilt by distributivity along the order the generators reached it.

``METHODS`` registers each procedure under its name with the class it is
promised, its budget and a runner on hidden instances. Every result table
goes through the validating ``OpTable`` constructor.

Oracle answers that contradict the promised class raise NotInClassError,
naming the query that broke the structure where one can be pinned down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import permutations
from typing import Callable, Optional

import numpy as np

from .algebra import (
    AbelianSpec,
    MaxChainSpec,
    OpTable,
    RingSpec,
    StructureSpec,
    _cyclic_table,
    _distributive_on,
    _generators,
    _RENAME_BLOCK,
    _renamed,
    _table_dtype,
    check_axioms,
    identity_of,
    is_prime,
)
from .errors import NotInClassError, ValidationError
from .oracle import AnyInstance, HiddenInstance, HiddenRingInstance, Oracle, Transcript, oracle_for, ring_oracles


@dataclass
class RecoveryResult:
    """Outcome of one recovery run against one oracle."""

    table: OpTable
    queries_used: int
    method: str
    trace: Optional[Transcript] = None
    # subgroup sizes after each tower step, and oracle cost per step
    # (tower methods only; each step costs exactly its size increase)
    tower: Optional[tuple[int, ...]] = None
    step_queries: Optional[tuple[int, ...]] = None

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "n": self.table.n,
            "queries_used": self.queries_used,
            "table": self.table.entries.tolist(),
        }


def recover_abelian(oracle: Oracle) -> RecoveryResult:
    """Recover a hidden abelian group table with exactly n queries.

    First walk the power chain of element 0: each step queries the previous
    power times 0 again, and the chain closes after exactly ord(0) queries,
    exposing the identity (the last element before the chain wraps) and the
    whole cyclic subgroup it generates. Then repeat: take the smallest
    element b outside the known subgroup H, chain b until some power lands
    inside H, and query s*b^i for every non-identity s in H and every
    0 < i < chain length. Those answers name every element of the enlarged
    subgroup. Each step costs exactly the number of elements it adds, so
    the whole run telescopes to n queries.

    All other products follow from (s*b^i)(t*b^j) = (st)b^(i+j). The steps
    only list the tower's elements in position order and record its shape,
    each step's chain length k and the position of b^k in H. The table over
    positions depends on that shape alone (``_tower_positions``), and one
    gather renames it to elements: O(n^2) work in all.
    """
    n = oracle.n
    start = oracle.count

    a = 0
    chain = [a]
    seen = {a}
    while True:
        nxt = oracle.query(chain[-1], a)
        if nxt == a:
            break
        if nxt in seen:
            raise NotInClassError(f"query ({chain[-1]}, {a}) -> {nxt} revisits the power chain without closing it")
        chain.append(nxt)
        seen.add(nxt)
    # a^k * a = a forces a^k to be the identity: the step by a over H = {e},
    # where both layouts list a^i at position i
    e = chain[-1]
    order = [e] + chain[:-1]  # order[u] is the element at position u
    shape = [(len(chain), 0)]

    members = set(chain)
    tower = [len(chain)]
    step_queries = [len(chain)]

    b = 0
    while len(members) < n:
        step_start = oracle.count
        while b in members:  # the smallest element outside H only grows
            b += 1
        bchain = [b]
        bseen = {b}
        while bchain[-1] not in members:
            nxt = oracle.query(bchain[-1], b)
            if nxt in bseen and nxt not in members:
                raise NotInClassError(f"query ({bchain[-1]}, {b}) -> {nxt} cycles outside the known subgroup")
            bchain.append(nxt)
            bseen.add(nxt)
            if len(bchain) > n:
                raise NotInClassError(f"coset chain of {b} exceeded {n} elements; not a group")
        bpow = bchain[:-1]  # bpow[i - 1] = b^i for 0 < i < k, with b^k back inside H

        # rows[s] lists s*b^i for 0 <= i < k, queried in element order
        used = set(members)
        used.update(bpow)
        rows = {e: [e] + bpow}
        for s in sorted(members):
            if s == e:
                continue
            row = [s]
            for bi in bpow:
                z = oracle.query(s, bi)
                if z in used:
                    raise NotInClassError(f"query ({s}, {bi}) -> {z} collides with an element already placed")
                used.add(z)
                row.append(z)
            rows[s] = row

        k = len(bchain)
        shape.append((k, order.index(bchain[-1])))
        grid = [rows[s] for s in order]
        if _exponent_major(len(order), k):
            grid = zip(*grid)
        order = [z for row in grid for z in row]
        members = used
        tower.append(len(members))
        step_queries.append(oracle.count - step_start)

    shape = tuple(shape)
    pos = _cached_tower_positions(shape) if n * n <= _CACHED_ENTRIES else _tower_positions(shape)
    order = np.array(order, dtype=pos.dtype)  # a permutation now
    return RecoveryResult(
        OpTable(_renamed(pos, order, order.argsort())),
        _spent(oracle, start, n, "abelian"),
        "abelian",
        trace=oracle.transcript_since(start),
        tower=tuple(tower),
        step_queries=tuple(step_queries),
    )


def _exponent_major(h: int, k: int) -> bool:
    """Whether a coset step of chain length k over H (|H| = h) lists s_q*b^t
    at position t*h + q (exponent-major) rather than q*k + t (subgroup-major).

    Either way the copy in ``_coset_step`` runs its inner loop over the longer axis.
    """
    return h >= k


def _tower_positions(shape: tuple[tuple[int, int], ...]) -> np.ndarray:
    """The position table of a tower of shape ``((k, pb), ...)``, one ``_coset_step`` per step."""
    pos = np.zeros((1, 1), dtype=_table_dtype(math.prod(k for k, _ in shape)))
    for k, pb in shape:
        pos = _coset_step(pos, pb, k)
    return pos


# Every table of at most _CACHED_ENTRIES entries (n <= 16) comes from one of
# 501 shapes, so this cache holds them all in about 0.3 MB.
# Larger n build theirs per call: the copy dominates there and shapes rarely repeat.
_CACHED_ENTRIES = 256


@lru_cache(maxsize=512)
def _cached_tower_positions(shape: tuple[tuple[int, int], ...]) -> np.ndarray:
    """``_tower_positions``, read-only and cached."""
    pos = _tower_positions(shape)
    pos.setflags(write=False)
    return pos


def _coset_step(pos: np.ndarray, pb: int, k: int) -> np.ndarray:
    """The position table of H<b> from that of H.

    ``pos`` is the h x h table of H over its tower order, and b^k is the
    first power of b in H, at position ``pb``. The new order lists s_q*b^t,
    for the element s_q at position q, as ``_exponent_major`` says. Since
    (s_r b^i)(s_c b^j) = (s_r s_c) b^(i+j), the block of exponent sum t is
    pos shifted to exponent t, for t < k, and for k <= t <= 2k - 2 the
    block of pos[:, pb][pos] at exponent t - k; the new table is one copy of
    the window view [i, r, j, c] -> block[i + j][r, c], O((hk)^2) work, so
    the steps of a tower sum to O(n^2).
    """
    h = len(pos)
    folded = pos[:, pb].take(pos)  # position of s_r s_c b^k in H
    t = np.arange(k, dtype=pos.dtype)
    if _exponent_major(h, k):
        t *= h
        blocks = np.empty((2 * k - 1, h, h), dtype=pos.dtype)  # blocks[t, r, c]
        np.add(pos, t[:, None, None], out=blocks[:k])
        np.add(folded, t[: k - 1, None, None], out=blocks[k:])
        s_t, s_r, s_c = blocks.strides
        shape, strides = (k, h, k, h), (s_t, s_r, s_t, s_c)  # [i, r, j, c]
    else:
        blocks = np.empty((h, h, 2 * k - 1), dtype=pos.dtype)  # blocks[r, c, t]
        np.add((pos * k)[..., None], t, out=blocks[..., :k])
        np.add((folded * k)[..., None], t[: k - 1], out=blocks[..., k:])
        s_r, s_c, s_t = blocks.strides
        shape, strides = (h, k, h, k), (s_r, s_t, s_c, s_t)  # [r, i, c, j]
    window = np.ndarray(shape, dtype=pos.dtype, buffer=blocks, strides=strides)
    return window.reshape(h * k, h * k)  # the one copy


def _spent(oracle: Oracle, start: int, expected: int, method: str) -> int:
    """Queries spent since ``start``; a schedule that fixes the count must match it."""
    queries = oracle.count - start
    if queries != expected:
        raise NotInClassError(f"{method} spent {queries} queries where its schedule fixes {expected}; the oracle miscounted")
    return queries


def recover_abelian_prime(oracle: Oracle) -> RecoveryResult:
    """Recover a group of odd prime order with at most n - 2 queries.

    Every non-identity element generates, so one power chain suffices; and
    the chain's last two queries are redundant. If 0*0 != 0 the chain
    0, 0^2, ..., 0^(n-1) costs n - 2 queries and the single leftover element
    must be the identity. If 0*0 = 0 then 0 is the identity, and the chain
    of element 1 can stop at 1^(n-2) because only one element remains for
    the exponent n - 1 slot. n = 2 has no such slack and is handed to
    the n-query method.
    """
    n = oracle.n
    if not is_prime(n):
        raise ValidationError(f"method needs prime order, got n = {n}")
    if n == 2:
        return recover_abelian(oracle)

    start = oracle.count
    a = 0
    asq = oracle.query(a, a)
    if asq != a:
        gen = a
        chain = [a, asq]  # a^1, a^2
        while len(chain) < n - 1:
            nxt = oracle.query(chain[-1], gen)
            if nxt in chain or nxt == asq:
                raise NotInClassError(f"query ({chain[-1]}, {gen}) -> {nxt} repeats a power; order of {gen} is not {n}")
            chain.append(nxt)
        rest = set(range(n)) - set(chain)
        if len(rest) != 1:
            raise NotInClassError("power chain failed to cover n - 1 distinct elements")
        e = rest.pop()  # a^n would be the identity; it is the only element left
        powers = [e] + chain
    else:
        e = a
        gen = 1
        chain = [gen]  # gen^1 .. gen^(n-2)
        while len(chain) < n - 2:
            nxt = oracle.query(chain[-1], gen)
            if nxt == e or nxt in chain:
                raise NotInClassError(f"query ({chain[-1]}, {gen}) -> {nxt} closes the chain early; order of {gen} is not {n}")
            chain.append(nxt)
        rest = set(range(n)) - {e} - set(chain)
        if len(rest) != 1:
            raise NotInClassError("power chain failed to cover n - 2 distinct elements")
        powers = [e] + chain + [rest.pop()]  # the leftover must be gen^(n-1)

    queries = _spent(oracle, start, n - 2, "prime")
    return RecoveryResult(OpTable(_cyclic_table(powers)), queries, "prime", trace=oracle.transcript_since(start))


_ANCHOR_EXPONENTS = (0, 1, 2, 3, 4, 5, 7)
_LEFTOVER_EXPONENTS = tuple(permutations((6, 8, 9, 10)))


def _leftover_match() -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
    """The exponent assignments (of b, c, d, f in turn) that fit each pair of answers to b*c and b*d.

    An answer is named by its exponent when it is an anchor, and by 11 + i
    when it is the i-th leftover; the key is the pair of names.
    """
    match: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for exps in _LEFTOVER_EXPONENTS:
        names = [exps.index(t) + 11 if t in exps else t for t in ((exps[0] + exps[1]) % 11, (exps[0] + exps[2]) % 11)]
        match.setdefault(tuple(names), []).append(exps)
    return {key: tuple(fits) for key, fits in match.items()}


_LEFTOVER_MATCH = _leftover_match()


def recover_order11(oracle: Oracle) -> RecoveryResult:
    """Recover a hidden group of order 11 with exactly 8 queries.

    Schedule: square element 0. If that moved, 0 generates; otherwise 0 is
    the identity and element 1 generates. Four more queries climb the ladder
    to the generator's powers 3, 4, 5 and 7, and when the identity is still
    unknown it falls out of power7 * power4 = power11. That names seven of
    the eleven elements, leaving four, b < c < d < f, with exponents
    {6, 8, 9, 10} in some order. Querying b*c and b*d gives two constraints,
    and exactly one of the 24 exponent assignments satisfies both (pairwise
    sums of {6,8,9,10} are distinct mod 11, so each answer pins the pair it
    came from). ``_LEFTOVER_MATCH``, built once from the 24 assignments,
    maps the two answers, each named by its anchor exponent or its leftover
    index, to the assignments that fit them. Any other survivor count means
    the oracle was not an order-11 group.
    """
    if oracle.n != 11:
        raise ValidationError(f"method is specific to n = 11, oracle has n = {oracle.n}")
    start = oracle.count
    q = oracle.query

    a = 0
    asq = q(a, a)
    if asq == a:
        e: Optional[int] = a  # only the identity squares to itself
        a1 = 1
        a2 = q(a1, a1)
    else:
        e = None
        a1 = a
        a2 = asq
    a3 = q(a2, a1)
    a4 = q(a3, a1)
    a5 = q(a4, a1)
    a7 = q(a5, a2)
    if asq != a:
        e = q(a7, a4)  # generator^11 = identity

    anchors = (e, a1, a2, a3, a4, a5, a7)
    if len(set(anchors)) != 7:
        raise NotInClassError("power ladder collided; oracle is not a cyclic group of order 11")
    powers: list[int] = [-1] * 11
    for exp, elt in zip(_ANCHOR_EXPONENTS, anchors):
        powers[exp] = elt  # type: ignore[assignment]

    rest = sorted(set(range(11)) - set(anchors))
    b, c, d, _ = rest
    zbc = q(b, c)
    zbd = q(b, d)

    name = dict(zip(anchors, _ANCHOR_EXPONENTS))
    name.update(zip(rest, range(11, 15)))
    survivors = _LEFTOVER_MATCH.get((name[zbc], name[zbd]), ())
    if len(survivors) != 1:
        raise NotInClassError(f"{len(survivors)} exponent assignments fit the final two answers; oracle is not an order-11 group")
    for exp, elt in zip(survivors[0], rest):
        powers[exp] = elt

    queries = _spent(oracle, start, 8, "eleven8")
    return RecoveryResult(OpTable(_cyclic_table(powers)), queries, "eleven8", trace=oracle.transcript_since(start))


def merge_sort_worst_case(n: int) -> int:
    """Worst-case comparison count of top-down merge sort on n items."""
    if n < 1:
        raise ValidationError("need n >= 1")
    c = (n - 1).bit_length()  # ceil(log2 n), exact for every n
    return n * c - 2**c + 1


@lru_cache(maxsize=64)
def _merge_schedule(n: int) -> tuple[tuple[int, int, int], ...]:
    """The (lo, mid, hi) merges of top-down merge sort on n items, in the order it runs them.

    mid = lo + (hi - lo) // 2, the left half goes first, and each merge comes
    after both of its halves. Cached: it depends on n alone, and building it
    at n = 512 costs about as much as the in-place merge saves.
    """
    out: list[tuple[int, int, int]] = []
    stack = [(0, n, False)]
    while stack:
        lo, hi, halves_done = stack.pop()
        mid = lo + (hi - lo) // 2
        if halves_done:
            out.append((lo, mid, hi))
        elif hi - lo > 1:
            stack += ((lo, hi, True), (mid, hi, False), (lo, mid, False))
    return tuple(out)


def _merge_sort(items: list[int], query: Callable[[int, int], int]) -> list[int]:
    """Sort ``items`` in place by ``query(x, y)``, the larger of x and y, and return it.

    Top-down merge sort run as the merges of ``_merge_schedule``: each one
    copies its left half out and merges it with the right half in place, so
    the queries come in the order of the recursive sort. An answer other than
    x or y raises NotInClassError.
    """
    for lo, mid, hi in _merge_schedule(len(items)):
        left, nl = items[lo:mid], mid - lo
        i, j, k = 0, mid, lo
        x, y = left[0], items[mid]
        while True:
            z = query(x, y)
            if z == y:
                items[k] = x
                k += 1
                i += 1
                if i == nl:  # the rest of the right half is in place already
                    break
                x = left[i]
            elif z == x:
                items[k] = y
                k += 1
                j += 1
                if j == hi:
                    items[k:hi] = left[i:]
                    break
                y = items[j]
            else:
                raise NotInClassError(f"query ({x}, {y}) -> {z} is outside the pair; not a max table")
    return items


def recover_max_chain(oracle: Oracle) -> RecoveryResult:
    """Recover a hidden max table by sorting the elements with oracle comparisons.

    Each query x*y must answer x or y (the larger); merge sort then needs at
    most n*ceil(log2 n) - 2^ceil(log2 n) + 1 of them, and the sorted order
    determines the whole table: x*y = order[max(rank x, rank y)], filled a
    bounded block of rows at a time so the intp index of ``take`` never spans
    the whole table.
    """
    n = oracle.n
    start = oracle.count
    dtype = _table_dtype(n)
    order = np.array(_merge_sort(list(range(n)), oracle.query), dtype=dtype)
    queries = oracle.count - start
    if queries > merge_sort_worst_case(n):
        raise NotInClassError("comparison count exceeded the sorting bound; answers were inconsistent")
    rank = order.argsort().astype(dtype)  # narrow, so each block's maximum is too
    out = np.empty((n, n), dtype=dtype)
    step = max(1, _RENAME_BLOCK // n)
    for r in range(0, n, step):
        rows = slice(r, r + step)
        # every index is in range, so "clip" never clips; it only spares take a buffered copy of out
        order.take(np.maximum(rank[rows, None], rank), out=out[rows], mode="clip")
    return RecoveryResult(OpTable(out), queries, "maxchain", trace=oracle.transcript_since(start))


# ---------------------------------------------------------------------------
# rings with a known addition table


def _additive_closure(add: OpTable) -> tuple[int, list[int], list[tuple[int, int, int]]]:
    """Identity, greedy generating set, and the order in which the greedy

    closure of ``algebra._generators`` reached every other element of an
    abelian group table. The identity is dropped from the generators; it is
    one only when it is element 0, whose closure is then {0}. Every element
    x != identity appears once in the order as ``(x, parent, a)`` with
    x = parent + gens[a]: the generators first, with the identity as parent,
    then the closure steps, whose parent is the identity or earlier.
    """
    if not check_axioms(add, "abelian_group"):
        raise ValidationError("known addition table is not an abelian group")
    e = identity_of(add)
    gens, steps = _generators(add.entries)
    skip = int(gens[0] == e)  # then no step steps by the identity
    gens = gens[skip:]
    order = [(g, e, a) for a, g in enumerate(gens)] + [(x, parent, a - skip) for x, parent, a in steps if x != e]
    return e, gens, order


def greedy_generating_set(add: OpTable) -> list[int]:
    """Generators of an abelian group table, greedily smallest-index first."""
    _, gens, _ = _additive_closure(add)
    return gens


def recover_ring_multiplication(add: OpTable, oracle: Oracle) -> RecoveryResult:
    """Recover a hidden multiplication that distributes over a known addition.

    Queries exactly the |A|^2 ordered pairs of a greedy generating set A of
    the additive group, then rebuilds the table along the order in which the
    greedy closure of ``algebra._generators`` reached each element x as
    x = parent + g with g in A. Each generator row first, one column at a
    time: a*x = a*parent + a*g, where a*g was queried. Then every full row:
    x*y = parent*y + g*y, where g*y is in a generator row. Both recurrences
    start from 0*y = y*0 = 0 at the additive identity 0, and the parent is
    always filled first, so the fill is O(n^2). A query-free check confirms
    the rebuilt table distributes over the given addition; any table that
    does is the unique bi-additive extension of the queried products.
    """
    if add.n != oracle.n:
        raise ValidationError(f"addition table has n = {add.n}, oracle has n = {oracle.n}")
    e, gens, order = _additive_closure(add)
    n = add.n
    arr = add.entries
    start = oracle.count

    # products[a, b] = gens[a] * gens[b], queried in row-major order
    products = np.array([[oracle.query(ga, gb) for gb in gens] for ga in gens], dtype=np.int64)
    grows = np.empty((len(gens), n), dtype=np.int64)  # grows[a, y] = gens[a] * y
    grows[:, e] = e
    for x, parent, a in order:
        grows[:, x] = arr[grows[:, parent], products[:, a]]
    table = np.empty((n, n), dtype=np.int64)
    table[e] = e
    for x, parent, a in order:
        table[x] = arr[table[parent], grows[a]]

    if not _distributive_on(arr, table, gens):  # gens generate an addition that passed check_axioms
        raise NotInClassError("rebuilt multiplication does not distribute over the known addition")
    queries = _spent(oracle, start, len(gens) ** 2, "ringmul")
    return RecoveryResult(OpTable(table), queries, "ringmul", trace=oracle.transcript_since(start))


def recover_ring_full(oracle_add: Oracle, oracle_mul: Oracle) -> tuple[RecoveryResult, RecoveryResult]:
    """Recover both ring tables: addition in n queries, then multiplication

    in |A|^2 <= (log2 n)^2, so n + (log2 n)^2 in total.
    """
    if oracle_add.n != oracle_mul.n:
        raise ValidationError("addition and multiplication oracles disagree on n")
    add_result = recover_abelian(oracle_add)
    mul_result = recover_ring_multiplication(add_result.table, oracle_mul)
    return add_result, mul_result


# ---------------------------------------------------------------------------
# the method registry

Part = tuple[RecoveryResult, Oracle]


@dataclass(frozen=True)
class Method:
    """One recovery procedure: the class it is promised, its budget and its runner.

    The class is every spec of type ``kind`` whose order passes ``orders``;
    ``query_budget`` reads ``budget``. ``run`` takes a hidden instance of the
    class and returns one (result, oracle) part per hidden table it queries,
    in the order ``tables`` names them. ``default`` marks the method a spec
    of ``kind`` gets when none is asked for.
    """

    name: str
    kind: type
    budget: Callable[[int], float]
    run: Callable[[AnyInstance], tuple[Part, ...]]
    orders: Callable[[int], bool] = lambda n: n >= 1
    tables: tuple[str, ...] = ("table",)
    default: bool = False

    def fits(self, spec: StructureSpec) -> bool:
        return isinstance(spec, self.kind) and self.orders(spec.n)


def _single(recover: Callable[[Oracle], RecoveryResult], instance: HiddenInstance) -> tuple[Part]:
    oracle = oracle_for(instance)
    return ((recover(oracle), oracle),)


def _run_ringmul(instance: HiddenRingInstance) -> tuple[Part]:
    _, oracle = ring_oracles(instance)
    return ((recover_ring_multiplication(instance.truth.add, oracle), oracle),)


def _run_ringfull(instance: HiddenRingInstance) -> tuple[Part, ...]:
    oracles = ring_oracles(instance)
    return tuple(zip(recover_ring_full(*oracles), oracles))


# in the order of the --method choices
METHODS: dict[str, Method] = {
    m.name: m
    for m in (
        Method("abelian", AbelianSpec, lambda n: n, partial(_single, recover_abelian), default=True),
        Method("prime", AbelianSpec, lambda n: n - 2 if n > 2 else n, partial(_single, recover_abelian_prime), orders=is_prime),
        Method("eleven8", AbelianSpec, lambda n: 8, partial(_single, recover_order11), orders=lambda n: n == 11),
        Method("maxchain", MaxChainSpec, merge_sort_worst_case, partial(_single, recover_max_chain), default=True),
        Method("ringmul", RingSpec, lambda n: math.log2(n) ** 2, _run_ringmul, tables=("mul",)),
        Method("ringfull", RingSpec, lambda n: n + math.log2(n) ** 2, _run_ringfull, tables=("add", "mul"), default=True),
    )
}


def query_budget(method: str, n: int) -> float:
    """The proved query budget a method promises on an in-class oracle of size n.

    Raises ValidationError for an unknown method and for an n at which the
    method's class has no member.
    """
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; choose from {tuple(METHODS)}")
    m = METHODS[method]
    if not m.orders(n):
        raise ValidationError(f"method {method} applies to no instance of order {n}")
    return float(m.budget(n))

"""The three benchmark workloads: their inputs, their operations and the checks.

A workload turns the run seed into one fixed job: the workload's mix of
classes, in a seed-chosen order, each with a seed-chosen instance. The run
repeats that job. An operation builds its input through the public API,
runs the program on it and checks the output; any wrong table, exceeded
budget, failed tree or exception makes the operation fail.

Only public names of ``opquery`` are called, always through the module
(``oq.recover_abelian``), so the traced run sees every call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import opquery as oq
from opquery import treesearch


class CheckFailed(Exception):
    """The program returned a wrong result or broke a promised bound."""


@dataclass(frozen=True)
class Op:
    """One operation: a class of the mix and the seed of its instance."""

    kind: str
    label: str
    arg: object
    seed: int
    ring: bool = False


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _abelian_label(factors: tuple[int, ...]) -> str:
    return "Z_" + "xZ_".join(map(str, factors)) if factors else "Z_1"


class _Recoveries:
    """Shared checks for the two recovery workloads."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._budgets: dict[tuple[str, int], float] = {}

    def budget(self, method: str, n: int) -> float:
        key = (method, n)
        if key not in self._budgets:
            self._budgets[key] = oq.query_budget(method, n)
        return self._budgets[key]

    def check(self, oracle: oq.Oracle, result: oq.RecoveryResult, truth: oq.OpTable, method: str, exact: bool) -> int:
        """Table equals the truth, query count is the oracle's and within budget."""
        label = f"{method} n={truth.n}"
        _require(np.array_equal(result.table.entries, truth.entries), f"{label}: recovered table differs from the truth")
        match, spent = oq.verify_recovery(oracle, result.table)
        _require(match, f"{label}: verify_recovery rejects the recovered table")
        _require(result.queries_used == spent, f"{label}: reports {result.queries_used} queries, oracle counted {spent}")
        budget = self.budget(method, truth.n)
        if exact:
            _require(spent == budget, f"{label}: {spent} queries, budget is exactly {budget}")
        else:
            _require(spent <= budget, f"{label}: {spent} queries exceed the budget {budget}")
        return spent

    def recover(self, spec, seed: int, method: str, recover: Callable, exact: bool) -> int:
        inst = oq.new_hidden(spec, seed)
        oracle = oq.oracle_for(inst)
        return self.check(oracle, recover(oracle), inst.truth, method, exact)

    def recover_ring(self, name: str, seed: int) -> int:
        inst = oq.new_hidden_ring(name, seed)
        oracle_add, oracle_mul = oq.ring_oracles(inst)
        add_res, mul_res = oq.recover_ring_full(oracle_add, oracle_mul)
        spent = self.check(oracle_add, add_res, inst.truth.add, "abelian", exact=True)
        spent += self.check(oracle_mul, mul_res, inst.truth.mul, "ringmul", exact=False)
        n = inst.truth.n
        _require(spent <= self.budget("ringfull", n), f"{name}: {spent} queries exceed the full-ring budget")
        return spent

    def draw(self) -> int:
        return self.rng.getrandbits(32)

    # (layer, attribute) of iterators that live across passes, for the tracer
    ITERATORS: tuple[tuple[str, str], ...] = ()


class SmallTables(_Recoveries):
    """Seeded recoveries of small tables: acceptance criteria 1, 2, 3 and 5.

    Each operation costs tens of microseconds, mostly per-call overhead
    (instance building, relabeling, table validation, oracle calls), so this
    workload shows changes to the instance and oracle layers.
    """

    name = "small_tables"
    # repetitions of each class in the job; a "slice" op recovers the next
    # table of the contiguous order-11 slice, which runs on across passes
    FULL = {"abelian": 8, "prime": 50, "eleven8": 50, "maxchain": 8, "slice": 200}
    TINY = {"abelian": 1, "prime": 2, "eleven8": 2, "maxchain": 1, "slice": 5}
    # the slice starts at a seed-chosen offset below this; skipping costs
    # about 10 microseconds per table, paid in set-up
    SLICE_OFFSET_SPAN = 4096
    ITERATORS = (("treesearch.iter_cyclic_prime_tables", "slice"),)

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.reps = self.TINY if tiny else self.FULL
        self.abelian = [oq.AbelianSpec(f) for n in range(1, 17) for f in oq.abelian_invariant_factorizations(n)]
        self.z11 = oq.AbelianSpec((11,))
        self.chains = [oq.MaxChainSpec(n) for n in range(1, 9)]
        self.offset = self.rng.randrange(self.SLICE_OFFSET_SPAN)
        self.slice = None
        # recovery function names, looked up per call so that tracing sees them
        self.methods = {
            "abelian": ("recover_abelian", True),
            "prime": ("recover_abelian_prime", False),
            "eleven8": ("recover_order11", True),
            "maxchain": ("recover_max_chain", False),
        }

    def setup(self) -> list[Op]:
        """Warm every canonical table the job uses; returns one warm-up op per method."""
        for spec in self.abelian + [self.z11] + self.chains:
            oq.canonical_table(spec)
        self.slice = treesearch.iter_cyclic_prime_tables(11)
        for _ in range(self.offset):
            next(self.slice)
        return [
            Op("abelian", "Z_2xZ_4", oq.AbelianSpec((2, 4)), 0),
            Op("prime", "Z_11", self.z11, 0),
            Op("eleven8", "Z_11", self.z11, 0),
            Op("maxchain", "C_8", oq.MaxChainSpec(8), 0),
        ]

    def make_job(self) -> list[Op]:
        r = self.reps
        job = [Op("abelian", _abelian_label(s.factors), s, self.draw()) for s in self.abelian for _ in range(r["abelian"])]
        job += [Op("prime", "Z_11", self.z11, self.draw()) for _ in range(r["prime"])]
        job += [Op("eleven8", "Z_11", self.z11, self.draw()) for _ in range(r["eleven8"])]
        job += [Op("maxchain", f"C_{s.n}", s, self.draw()) for s in self.chains for _ in range(r["maxchain"])]
        job += [Op("slice", "Z_11 slice", None, 0) for _ in range(r["slice"])]
        self.rng.shuffle(job)
        return job

    def _next_slice_table(self) -> np.ndarray:
        try:
            return next(self.slice)
        except StopIteration:  # the slice wrapped past the last of the 3,991,680 tables
            self.slice = treesearch.iter_cyclic_prime_tables(11)
            return next(self.slice)

    def run(self, op: Op) -> int:
        if op.kind == "slice":
            truth = oq.OpTable(self._next_slice_table())
            oracle = oq.Oracle(truth)
            return self.check(oracle, oq.recover_order11(oracle), truth, "eleven8", exact=True)
        fname, exact = self.methods[op.kind]
        return self.recover(op.arg, op.seed, op.kind, getattr(oq, fname), exact)


class LargeTables(_Recoveries):
    """Seeded recoveries at n = 36..512, where table size sets the cost.

    The ring classes take about half of each job in the current code, so a
    faster ring fill and a faster abelian fill both stay visible. No
    operation runs longer than about 0.1 s, so every one of them is timed
    many times in a run.
    """

    name = "large_tables"
    ABELIAN = ((64,), (8, 8), (2,) * 6, (128,), (256,), (16, 16), (2,) * 8)
    CHAINS = (256, 512)
    RINGS = ("z4xgf9", "gf64", "z32")
    # 20 n = 512 chains put the median operation inside the 7-9 ms cluster,
    # away from the gap below it
    FULL = {"abelian": 8, "C_256": 10, "C_512": 20, "z4xgf9": 4, "gf64": 6, "z32": 10}
    TINY = {"abelian": 1, "C_256": 1, "C_512": 1, "z4xgf9": 1, "gf64": 0, "z32": 0}

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.reps = self.TINY if tiny else self.FULL
        self.abelian = [oq.AbelianSpec(f) for f in self.ABELIAN]
        self.chains = [oq.MaxChainSpec(n) for n in self.CHAINS]

    def setup(self) -> list[Op]:
        """Warm every canonical table the job uses; returns one warm-up op per method."""
        for spec in self.abelian + self.chains:
            oq.canonical_table(spec)
        for name in self.RINGS:
            oq.build_ring(name)
        return [
            Op("abelian", "Z_64", oq.AbelianSpec((64,)), 0),
            Op("maxchain", "C_256", oq.MaxChainSpec(256), 0),
            Op("ring", "z4xgf9", "z4xgf9", 0, ring=True),
        ]

    def _ring_seed(self, name: str) -> int:
        """Instance seed for a ring; z32 seeds are restricted to one cost stratum.

        The current multiplication fill of a cyclic ring such as z32 costs
        from 7 ms to 86 ms depending on the additive order of the lowest
        non-identity label, the first generator the greedy closure adjoins.
        Half of all relabelings make it a generator of Z_32, the costliest
        case, where the fill is quartic in n. Drawing z32 seeds from that half
        only keeps one job's cost steady across run seeds.
        """
        while True:
            seed = self.draw()
            if name != "z32":
                return seed
            perm = oq.random_permutation(32, seed)
            first = 0 if perm[0] != 0 else 1  # perm[0] is the label of the identity
            if math.gcd(perm.index(first), 32) == 1:
                return seed

    def make_job(self) -> list[Op]:
        r = self.reps
        job = [Op("abelian", _abelian_label(s.factors), s, self.draw()) for s in self.abelian for _ in range(r["abelian"])]
        job += [Op("maxchain", f"C_{s.n}", s, self.draw()) for s in self.chains for _ in range(r[f"C_{s.n}"])]
        job += [Op("ring", name, name, self._ring_seed(name), ring=True) for name in self.RINGS for _ in range(r[name])]
        self.rng.shuffle(job)
        return job

    def run(self, op: Op) -> int:
        if op.kind == "ring":
            return self.recover_ring(op.arg, op.seed)
        if op.kind == "abelian":
            return self.recover(op.arg, op.seed, "abelian", oq.recover_abelian, exact=True)
        return self.recover(op.arg, op.seed, "maxchain", oq.recover_max_chain, exact=False)


# minimum number of comparisons that sorts n items (OEIS A036604)
SORTING_OPTIMA = {1: 0, 2: 1, 3: 3, 4: 5, 5: 7, 6: 10}


class ExactSearch:
    """Exact minimax search over small candidate sets, with orbit counting.

    The cost is ``treesearch`` and the permutation brute force in
    ``algebra``; no recovery runs. The groups answer n ways and the chains two
    ways, which load the search's splitting and memo differently.

    Each class is three operations in a row, so that no single operation runs
    for long: ``orbit`` enumerates the orbit of a seeded relabeling, ``count``
    checks ``orbit_size`` against it, and ``search`` finds and verifies the
    optimal tree over it.
    """

    name = "exact_search"
    ITERATORS: tuple[tuple[str, str], ...] = ()
    STAGES = ("orbit", "count", "search")
    FULL = (
        ("Z_5", oq.AbelianSpec((5,))),
        ("Z_6", oq.AbelianSpec((6,))),
        ("Z_2xZ_2xZ_2", oq.AbelianSpec((2, 2, 2))),
        ("C_4", oq.MaxChainSpec(4)),
        ("C_5", oq.MaxChainSpec(5)),
    )
    TINY = (
        ("Z_5", oq.AbelianSpec((5,))),
        ("Z_2xZ_2", oq.AbelianSpec((2, 2))),
        ("C_4", oq.MaxChainSpec(4)),
    )

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = random.Random(seed)
        self.classes = self.TINY if tiny else self.FULL
        # (start table, its orbit) of each class, from the last "orbit" operation
        self.orbits: dict[str, tuple[oq.OpTable, oq.OperationSet]] = {}

    def setup(self) -> list[Op]:
        """Warm every canonical table the job uses; returns one warm-up op per method."""
        for _, spec in self.classes:
            oq.canonical_table(spec)
        return [Op(stage, label, spec, 0) for label, spec in (("Z_5", oq.AbelianSpec((5,))), ("C_4", oq.MaxChainSpec(4))) for stage in self.STAGES]

    def make_job(self) -> list[Op]:
        classes = list(self.classes)
        self.rng.shuffle(classes)
        job = []
        for label, spec in classes:
            seed = self.rng.getrandbits(32)
            job += [Op(stage, label, spec, seed) for stage in self.STAGES]
        return job

    def run(self, op: Op) -> int | None:
        """Run one stage; a search returns the optimal worst-case depth."""
        if op.kind == "orbit":
            start = oq.new_hidden(op.arg, op.seed).truth
            self.orbits[op.label] = (start, oq.enumerate_orbit(start))
            return None
        start, ops = self.orbits[op.label]
        m = len(ops)
        if op.kind == "count":
            _require(oq.orbit_size(start) == m, f"{op.label}: orbit_size disagrees with the {m} enumerated tables")
            return None
        n = start.n
        depth, tree = oq.minimal_worst_case(ops, budget=m)
        v = oq.verify_query_tree(tree, ops)
        _require(v.ok, f"{op.label}: optimal tree fails verification: {v.failure}")
        _require(max(v.depths.values()) == depth, f"{op.label}: tree depth differs from the reported optimum {depth}")
        if isinstance(op.arg, oq.MaxChainSpec):
            want = SORTING_OPTIMA[n]
            _require(depth == want, f"{op.label}: optimum {depth}, sorting needs exactly {want} comparisons")
        else:
            floor, reach = 0, 1
            while reach < m:
                reach *= n
                floor += 1
            budget = oq.query_budget("prime" if oq.is_prime(n) else "abelian", n)
            _require(floor <= depth <= budget, f"{op.label}: optimum {depth} outside [{floor}, {budget}]")
        return depth


WORKLOADS = {w.name: w for w in (SmallTables, LargeTables, ExactSearch)}

"""Property based checks over randomized structures and seeds."""

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opquery import (
    AbelianSpec,
    MaxChainSpec,
    NotInClassError,
    OpTable,
    Oracle,
    abelian_invariant_factorizations,
    build_abelian,
    build_max_chain,
    check_axioms,
    count_automorphisms,
    distributive_laws_hold,
    invariant_factors_from_cyclic,
    merge_sort_worst_case,
    new_hidden,
    new_hidden_ring,
    oracle_for,
    random_permutation,
    recover_abelian,
    recover_max_chain,
    recover_ring_full,
    recover_ring_multiplication,
    replay_matches,
    ring_oracles,
)

# invariant factor chains with n = prod(factors) <= 24
factor_chains = st.lists(st.integers(2, 12), min_size=0, max_size=3).map(
    lambda ms: invariant_factors_from_cyclic(ms)
).filter(lambda fs: math.prod(fs) <= 24)

seeds = st.integers(0, 2**31 - 1)


@given(factor_chains, seeds)
@settings(max_examples=150, deadline=None)
def test_abelian_recovery_exact_cost(factors, seed):
    spec = AbelianSpec(factors)
    inst = new_hidden(spec, seed)
    o = oracle_for(inst)
    res = recover_abelian(o)
    assert res.table == inst.truth
    assert res.queries_used == spec.n == o.count
    assert replay_matches(res.trace, inst.truth)


@given(factor_chains)
@settings(max_examples=60, deadline=None)
def test_abelian_tables_satisfy_axioms(factors):
    t = build_abelian(list(factors))
    assert check_axioms(t, "abelian_group")


@given(factor_chains, st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_automorphism_count_is_relabel_invariant(factors, seed):
    t = build_abelian(list(factors))
    if t.n > 6:
        return
    perm = random_permutation(t.n, seed)
    assert count_automorphisms(t) == count_automorphisms(t.relabel(perm))


@given(st.integers(1, 40), seeds)
@settings(max_examples=120, deadline=None)
def test_max_chain_recovery_within_bound(n, seed):
    inst = new_hidden(MaxChainSpec(n), seed)
    o = oracle_for(inst)
    res = recover_max_chain(o)
    assert res.table == inst.truth
    assert res.queries_used <= merge_sort_worst_case(n)


@given(st.integers(1, 64))
@settings(max_examples=64, deadline=None)
def test_merge_sort_worst_case_recurrence(n):
    # W(1) = 0, W(n) = W(ceil(n/2)) + W(floor(n/2)) + n - 1
    def w(m):
        return 0 if m <= 1 else w((m + 1) // 2) + w(m // 2) + m - 1

    assert merge_sort_worst_case(n) == w(n)


@given(st.sampled_from(["z4", "z8", "z9", "gf4", "gf8", "gf9", "z2xz2", "z2xgf4", "z6"]), seeds)
@settings(max_examples=80, deadline=None)
def test_ring_recovery_within_budget(name, seed):
    inst = new_hidden_ring(name, seed)
    oa, om = ring_oracles(inst)
    add_res, mul_res = recover_ring_full(oa, om)
    assert add_res.table == inst.truth.add
    assert mul_res.table == inst.truth.mul
    n = inst.truth.n
    assert add_res.queries_used + mul_res.queries_used <= n + math.log2(n) ** 2 + 1e-9
    assert distributive_laws_hold(add_res.table.entries, mul_res.table.entries)


@given(st.integers(1, 52), seeds, seeds)
@settings(max_examples=100, deadline=None)
def test_random_permutation_properties(n, s1, s2):
    p = random_permutation(n, s1)
    assert sorted(p) == list(range(n))
    assert random_permutation(n, s1) == p


@given(st.lists(st.integers(2, 20), min_size=0, max_size=4))
@settings(max_examples=100, deadline=None)
def test_invariant_factors_canonical(moduli):
    fs = invariant_factors_from_cyclic(moduli)
    assert math.prod(fs) == math.prod(moduli)
    for a, b in zip(fs, fs[1:]):
        assert b % a == 0
    assert all(f >= 2 for f in fs)


# ---------------------------------------------------------------------------
# hostile oracles: a recovery either raises NotInClassError or returns an
# in-class table that agrees with every answer it was given


def _run_hostile(recover, truth: OpTable):
    """The recovered table, or None when the run raised NotInClassError."""
    oracle = Oracle(truth)
    try:
        res = recover(oracle)
    except NotInClassError:
        return None
    assert res.trace == oracle.transcript
    assert replay_matches(res.trace, res.table)
    return res.table


def _random_table(rng: random.Random, n: int) -> np.ndarray:
    return np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)], dtype=np.int64)


def _corrupt(rng: random.Random, table: np.ndarray) -> np.ndarray:
    out = table.copy()
    n = out.shape[0]
    out[rng.randrange(n), rng.randrange(n)] = rng.randrange(n)
    return out


@given(st.integers(1, 12), st.sampled_from(["random", "isotope", "corrupted"]), seeds)
@settings(max_examples=300, deadline=None)
def test_hostile_abelian_oracle_has_two_outcomes(n, kind, seed):
    rng = random.Random(seed)
    if kind == "random":
        t = _random_table(rng, n)
    elif kind == "isotope":
        # x*y = out[rows[x] + cols[y] mod n]: a quasigroup, a group only by luck
        rows, cols, out = (np.array(rng.sample(range(n), n)) for _ in range(3))
        t = out[build_abelian(AbelianSpec.from_cyclic([n])).entries[np.ix_(rows, cols)]]
    else:
        factors = rng.choice(abelian_invariant_factorizations(n))
        t = _corrupt(rng, new_hidden(AbelianSpec(factors), seed).truth.entries)
    table = _run_hostile(recover_abelian, OpTable(t))
    if table is not None:
        assert check_axioms(table, "abelian_group")


def _bilinear_expansion(add: np.ndarray, oracle: Oracle) -> np.ndarray:
    """Reference fill: write every element as a sum of greedy generators and
    expand x*y as the sum of all queried generator products."""
    n = add.shape[0]
    e = next(x for x in range(n) if (add[x] == np.arange(n)).all())
    decomp: dict[int, tuple[int, ...]] = {e: ()}
    gens: list[int] = []
    while len(decomp) < n:
        g = min(x for x in range(n) if x not in decomp)
        gens.append(g)
        base = dict(decomp)
        gj, j = g, 1
        while gj not in base:
            for h, dh in base.items():
                decomp[int(add[h, gj])] = dh + (g,) * j
            gj, j = int(add[gj, g]), j + 1
    prod = {(a, b): oracle.query(a, b) for a in gens for b in gens}
    table = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            acc = e
            for gx in decomp[x]:
                for gy in decomp[y]:
                    acc = int(add[acc, prod[(gx, gy)]])
            table[x, y] = acc
    return table


@given(st.sampled_from(["z8", "gf8", "gf9", "z2xgf4"]), st.sampled_from(["random", "corrupted"]), seeds)
@settings(max_examples=200, deadline=None)
def test_hostile_ring_multiplication_oracle_has_two_outcomes(name, kind, seed):
    rng = random.Random(seed)
    inst = new_hidden_ring(name, seed)
    add = inst.truth.add
    if kind == "random":
        m = _random_table(rng, add.n)
    else:
        m = _corrupt(rng, inst.truth.mul.entries)
    table = _run_hostile(lambda oracle: recover_ring_multiplication(add, oracle), OpTable(m))
    reference = _bilinear_expansion(add.entries, Oracle(OpTable(m)))
    # a distributive result is the unique bi-additive extension of the
    # queried products, so it must equal the reference expansion
    if table is None:
        assert not distributive_laws_hold(add.entries, reference)
    else:
        assert distributive_laws_hold(add.entries, table.entries)
        assert np.array_equal(table.entries, reference)

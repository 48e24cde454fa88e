"""Canonical table construction and axiom checks."""

import math
import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest

from opquery import (
    METHODS,
    AbelianSpec,
    MaxChainSpec,
    OperationSet,
    OpTable,
    RingSpec,
    ValidationError,
    abelian_automorphism_count,
    abelian_invariant_factorizations,
    abelian_type,
    build_abelian,
    build_gf,
    build_max_chain,
    build_ring,
    build_zn_ring,
    check_axioms,
    count_automorphisms,
    count_ring_automorphisms,
    distributive_laws_hold,
    enumerate_orbit,
    invariant_factors_from_cyclic,
    is_prime,
    new_hidden,
    new_hidden_ring,
    oracle_for,
    random_permutation,
    recover_max_chain,
    verify_recovery,
)
from opquery import algebra
from opquery.algebra import (
    _CACHED_CYCLIC_ORDER,
    _PERMUTATION_CHUNK,
    CONWAY_POLYNOMIALS,
    _cyclic_table,
    _exponent_sums,
    _iter_permutation_chunks,
    _permutation_chunks,
    _relabelings,
    _table_dtype,
    are_isomorphic,
    canonical_table,
    identity_of,
    ring_product,
)
from opquery.treesearch import iter_cyclic_prime_tables


def test_optable_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        OpTable(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValidationError):
        OpTable(np.array([[0, 2], [1, 0]]))  # entry 2 out of range for n=2
    with pytest.raises(ValidationError):
        OpTable(np.zeros((0, 0), dtype=np.int64))


def test_optable_equality_and_hash():
    a = build_abelian([4])
    b = build_abelian([4])
    assert a == b and hash(a) == hash(b)
    assert a != build_abelian([2, 2])
    # the input's integer type leaves no trace in the stored table
    rows = a.entries.tolist()
    for c in (OpTable(rows), *(OpTable(np.array(rows, dtype=d)) for d in (np.int64, np.uint8, np.int8, np.int16))):
        assert c == a and hash(c) == hash(a)


# ---------------------------------------------------------------------------
# compact storage: every table is a read-only array in _table_dtype(n)


def test_table_dtype_is_the_narrowest_that_holds_every_label():
    assert [_table_dtype(n) for n in (1, 127, 128, 32767, 32768, 10**6)] == [np.int8] * 2 + [np.int16] * 2 + [np.int32] * 2


def _assert_compact(t: OpTable) -> None:
    assert t.entries.dtype == _table_dtype(t.n), (t.n, t.entries.dtype)
    assert not t.entries.flags.writeable


def test_every_table_producer_stores_the_compact_dtype():
    rows = build_max_chain(5).entries.tolist()
    for given in (rows, np.array(rows), np.array(rows, dtype=np.uint8), np.array(rows, dtype=np.int8)):
        _assert_compact(OpTable(given))
    _assert_compact(OpTable.from_dict({"n": 5, "table": rows}))
    for n in (127, 128, 300):  # both sides of the int8 / int16 line
        chain = build_max_chain(n)
        _assert_compact(chain)
        _assert_compact(chain.relabel(random_permutation(n, 1)))
        _assert_compact(OpTable(np.array(chain.entries, dtype=np.int64)))
    _assert_compact(build_abelian([]))
    _assert_compact(build_abelian([2, 64]))
    for ring in (build_zn_ring(200), build_gf(2, 6), build_gf(7, 1), build_ring("z3xgf64"), ring_product(build_gf(3, 2), build_zn_ring(20))):
        _assert_compact(ring.add)
        _assert_compact(ring.mul)
        _assert_compact(ring.relabel(random_permutation(ring.n, 2)).mul)
    _assert_compact(OpTable(OperationSet(np.zeros((1, 3, 3), dtype=np.int64)).tables[0]))
    tables = iter_cyclic_prime_tables(7)
    for _ in range(3):
        table = next(tables)
        assert table.dtype == np.int8
        _assert_compact(OpTable(table))


@pytest.mark.parametrize("name", list(METHODS))
def test_every_recovery_method_returns_compact_tables(name):
    specs = {"abelian": AbelianSpec((4, 40)), "prime": AbelianSpec((13,)), "eleven8": AbelianSpec((11,)), "maxchain": MaxChainSpec(150)}
    instance = new_hidden(specs[name], 3) if name in specs else new_hidden_ring("z3xgf64", 3)
    for result, oracle in METHODS[name].run(instance):
        _assert_compact(result.table)
        assert verify_recovery(oracle, result.table)[0]


@pytest.mark.parametrize("dtype", [np.int64, np.int16, np.uint16, np.int32, np.uint32, np.uint64])
def test_out_of_range_entries_are_rejected_before_narrowing(dtype):
    # in the int8 of an n = 100 table, 300, 256 and 355 would wrap to 44, 0 and 99
    for bad in (300, 256, 355):
        arr = np.zeros((100, 100), dtype=dtype)
        arr[3, 7] = bad
        with pytest.raises(ValidationError, match="element indices"):
            OpTable(arr)
    with pytest.raises(ValidationError, match="element indices"):
        OpTable([[0, -1], [1, 0]])


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, ">i2", ">i8"])
def test_negative_entries_are_rejected_in_every_signed_width(dtype):
    # the range check reads the entries as unsigned, so a negative wraps high
    for bad in (-1, -100, np.iinfo(dtype).min):
        arr = np.zeros((100, 100), dtype=dtype)
        arr[5, 2] = bad
        with pytest.raises(ValidationError, match="element indices"):
            OpTable(arr)
    arr = np.full((100, 100), 99, dtype=dtype)
    assert OpTable(arr).entries.max() == 99


def test_huge_unsigned_entries_are_rejected():
    for bad in (2**64 - 1, 2**63, 2**32 + 1, 128):
        arr = np.zeros((100, 100), dtype=np.uint64)
        arr[0, 0] = bad
        with pytest.raises(ValidationError, match="element indices"):
            OpTable(arr)


def test_z3xgf64_product_matches_a_wide_product():
    # 2 * 64 + j leaves int8: the product must be formed before narrowing
    a, b, ring = build_zn_ring(3), build_gf(2, 6), build_ring("z3xgf64")
    for got, ta, tb in ((ring.add, a.add, b.add), (ring.mul, a.mul, b.mul)):
        wa, wb = ta.entries.astype(np.int64), tb.entries.astype(np.int64)
        want = (wa[:, None, :, None] * 64 + wb[None, :, None, :]).reshape(192, 192)
        assert np.array_equal(got.entries, want)
        assert int(got.entries.max()) == 191


def test_relabel_is_conjugation():
    t = build_abelian([6])
    perm = (2, 0, 4, 1, 5, 3)
    r = t.relabel(perm)
    for x in range(6):
        for y in range(6):
            assert r[perm[x], perm[y]] == perm[t[x, y]]


def test_relabel_identity_perm_is_noop():
    t = build_abelian([2, 4])
    assert t.relabel(tuple(range(8))) == t


@pytest.mark.parametrize(
    "perm",
    [
        (2.5, 0, 1),  # a float is not truncated to 2
        (1.0, 0.0, 2.0),  # nor accepted when integral
        np.array([1.0, 0.0, 2.0]),
        (True, False, 2),
        np.array([True, False, True]),
        ("1", "0", "2"),
        "102",
        (None, 0, 1),
        3,
        (0, 1, 1),  # duplicate
        (0, 1),  # too short
        (0, 1, 2, 3),  # too long
        (0, 1, 3),  # out of range
        (-1, 0, 1),  # negative
        np.array([[0, 1, 2]]),
    ],
)
def test_relabel_rejects_non_permutations(perm):
    t = build_abelian([3])
    with pytest.raises(ValidationError):
        t.relabel(perm)
    with pytest.raises(ValidationError):
        build_zn_ring(3).relabel(perm)


def test_relabel_accepts_integer_types():
    t = build_max_chain(3)
    expected = t.relabel((2, 0, 1))
    assert t.relabel([2, 0, 1]) == expected
    assert t.relabel(np.array([2, 0, 1], dtype=np.int8)) == expected
    assert t.relabel((np.int64(2), np.uint16(0), 1)) == expected


def test_abelian_spec_validation():
    with pytest.raises(ValidationError):
        AbelianSpec((3, 2))  # 3 does not divide 2
    with pytest.raises(ValidationError):
        AbelianSpec((1, 4))
    assert AbelianSpec((2, 2, 4)).n == 16
    assert AbelianSpec(()).n == 1


def test_invariant_factors_from_cyclic():
    assert invariant_factors_from_cyclic([2, 3]) == (6,)
    assert invariant_factors_from_cyclic([4, 6]) == (2, 12)
    assert invariant_factors_from_cyclic([2, 2]) == (2, 2)
    assert invariant_factors_from_cyclic([]) == ()


def test_abelian_invariant_factorizations_counts():
    # number of abelian groups of order n, for small n
    expected = {1: 1, 2: 1, 4: 2, 8: 3, 12: 2, 16: 5}
    for n, count in expected.items():
        assert len(abelian_invariant_factorizations(n)) == count
    total = sum(len(abelian_invariant_factorizations(n)) for n in range(1, 17))
    assert total == 25


def test_build_abelian_axioms():
    for factors in [(), (2,), (5,), (2, 2), (2, 4), (3, 3), (2, 2, 2)]:
        t = build_abelian(list(factors))
        assert check_axioms(t, "abelian_group")
        assert identity_of(t) == 0


def test_identity_of_matches_a_scan_of_every_table_up_to_n_3():
    # many rows can be left identities (x*y = y makes every x one), but a
    # two-sided identity is the only one, and identity_of checks one column
    for n in (1, 2, 3):
        idx = np.arange(n)
        for flat in product(range(n), repeat=n * n):
            arr = np.array(flat).reshape(n, n)
            want = next((e for e in range(n) if (arr[e] == idx).all() and (arr[:, e] == idx).all()), None)
            assert identity_of(OpTable(arr)) == want


def test_build_abelian_z6_isomorphic_to_z2xz3():
    assert are_isomorphic(build_abelian([6]), canonical_table(AbelianSpec(invariant_factors_from_cyclic([2, 3])))) is not None


def test_max_chain_table():
    t = build_max_chain(4)
    assert t[1, 3] == 3 and t[3, 1] == 3 and t[2, 2] == 2
    assert check_axioms(t, "semigroup")
    assert not check_axioms(t, "group")
    assert MaxChainSpec(1).n == 1
    with pytest.raises(ValidationError):
        MaxChainSpec(0)


def test_check_axioms_rejects_non_associative():
    arr = np.array([[0, 1], [1, 1]], dtype=np.int64)
    assert check_axioms(OpTable(arr), "semigroup")
    arr2 = np.array([[1, 0], [0, 0]], dtype=np.int64)
    assert not check_axioms(OpTable(arr2), "semigroup")
    assert check_axioms(OpTable(arr2), "groupoid")


def test_element_orders_in_z12():
    # abelian_type reads the type from these orders
    t = build_abelian([12])
    e = identity_of(t)
    orders = []
    for x in range(12):
        power, k = x, 1
        while power != e:
            power, k = int(t[power, x]), k + 1
        orders.append(k)
    assert orders == [1, 12, 6, 4, 3, 12, 2, 12, 3, 4, 6, 12]
    assert abelian_type(t) == (12,)


def test_is_cyclic_group():
    # a group is cyclic exactly when it has at most one invariant factor
    assert abelian_type(build_abelian([8])) == (8,)
    assert abelian_type(build_abelian([2, 4])) == (2, 4)
    assert abelian_type(build_max_chain(4)) is None


def test_abelian_type_reads_invariant_factors():
    assert abelian_type(build_abelian([2, 6])) == (2, 6)
    assert abelian_type(build_abelian([6])) == (6,)
    assert abelian_type(build_abelian([])) == ()


def test_number_theory_helpers():
    assert [m for m in range(2, 20) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    # the automorphisms of Z_n number phi(n)
    assert abelian_automorphism_count([]) == 1
    assert abelian_automorphism_count([12]) == 4
    assert abelian_automorphism_count([11]) == 10


def test_zn_ring():
    rt = build_zn_ring(6)
    assert rt.mul[2, 5] == 4
    assert check_axioms(rt.add, "abelian_group")
    assert distributive_laws_hold(rt.add.entries, rt.mul.entries)


def test_gf_field_properties():
    for (p, r) in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        rt = build_gf(p, r)
        q = p**r
        assert rt.n == q
        assert check_axioms(rt.add, "abelian_group")
        # no zero divisors: exactly (q-1)^2 nonzero products
        assert int(np.count_nonzero(rt.mul.entries)) == (q - 1) ** 2
        # multiplicative identity exists
        assert identity_of(rt.mul) is not None


def test_gf_prime_matches_zn():
    assert build_gf(5, 1).mul == build_zn_ring(5).mul


def test_conway_constants_cover_stated_range():
    # every prime power q = p^r with r >= 2 and q <= 64
    needed = {(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)}
    assert needed <= set(CONWAY_POLYNOMIALS)
    for (p, r), coeffs in CONWAY_POLYNOMIALS.items():
        assert len(coeffs) == r + 1 and coeffs[-1] == 1
        assert all(0 <= c < p for c in coeffs)


def _reference_gf_mul(p: int, r: int, poly) -> np.ndarray:
    """GF(p^r) multiplication by schoolbook polynomial products reduced by ``poly``."""
    q = p**r

    def reduce_mul(x: int, y: int) -> int:
        prod = [0] * (2 * r - 1)
        for i in range(r):
            xi = (x // p**i) % p
            for j in range(r):
                prod[i + j] = (prod[i + j] + xi * ((y // p**j) % p)) % p
        for deg in range(2 * r - 2, r - 1, -1):
            c, prod[deg] = prod[deg], 0
            for i in range(r):  # x^deg = -(low part of poly) * x^(deg-r)
                prod[deg - r + i] = (prod[deg - r + i] - c * poly[i]) % p
        return sum(prod[i] * p**i for i in range(r))

    return np.array([[reduce_mul(x, y) for y in range(q)] for x in range(q)], dtype=np.int64)


@pytest.mark.parametrize("p, r", sorted(CONWAY_POLYNOMIALS))
def test_gf_tables_match_polynomial_multiplication(p, r):
    rt = build_gf(p, r)
    idx = np.arange(p**r)
    digits = [(idx // p**i) % p for i in range(r)]
    add = sum((d[:, None] + d[None, :]) % p * p**i for i, d in enumerate(digits))
    assert np.array_equal(rt.add.entries, add)
    assert np.array_equal(rt.mul.entries, _reference_gf_mul(p, r, CONWAY_POLYNOMIALS[(p, r)]))


@pytest.mark.parametrize(
    "p, r, poly",
    [(3, 2, (1, 0, 1)), (2, 2, (0, 0, 1))],  # x^2 + 1 is irreducible over F_3 but x has order 4 < 8; x^2 is reducible
)
def test_gf_rejects_a_polynomial_that_is_not_primitive(monkeypatch, p, r, poly):
    monkeypatch.setitem(CONWAY_POLYNOMIALS, (p, r), poly)
    with pytest.raises(ValidationError, match="not primitive"):
        build_gf(p, r)


def test_ring_product_axioms():
    a = build_zn_ring(2)
    b = build_gf(3, 1)
    rt = ring_product(a, b)
    assert rt.n == 6
    assert check_axioms(rt.add, "abelian_group")
    assert distributive_laws_hold(rt.add.entries, rt.mul.entries)


def test_ring_spec_parsing():
    assert RingSpec("z4").n == 4
    assert RingSpec("gf8").n == 8
    assert RingSpec("z2xgf9").n == 18
    with pytest.raises(ValidationError):
        RingSpec("gf6")  # not a prime power
    with pytest.raises(ValidationError):
        RingSpec("q5")


def test_build_ring_names_normalize():
    assert build_ring("Z4") == build_ring("z4")
    assert build_ring(RingSpec("gf4")) == build_ring("gf4")


def test_automorphism_counts():
    assert count_automorphisms(build_abelian([4])) == 2
    assert count_automorphisms(build_abelian([2, 2])) == 6
    assert count_automorphisms(build_abelian([5])) == 4
    assert count_ring_automorphisms(build_gf(2, 2)) == 2
    assert count_ring_automorphisms(build_gf(2, 3)) == 3
    assert count_ring_automorphisms(build_zn_ring(8)) == 1


def test_are_isomorphic_finds_witness():
    a = build_abelian([4])
    perm = (3, 1, 0, 2)
    b = a.relabel(perm)
    w = are_isomorphic(a, b)
    assert w is not None
    assert a.relabel(w) == b
    assert are_isomorphic(a, build_abelian([2, 2])) is None


def _peak_bytes(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_permutation_kernel_memory_is_bounded_by_its_chunk():
    # all 8! relabelings at once would be 8! * 64 int64 entries, 21 MB
    t = build_max_chain(8)
    assert _peak_bytes(lambda: count_automorphisms(t)) < 2 * 2**20
    # the orbit itself is 8! tables of 64 bytes, 2.6 MB; the dedupe holds a
    # few copies of it (one dict entry per table used to peak at 23 MB)
    orbit_bytes = math.factorial(8) * 64
    assert _peak_bytes(lambda: enumerate_orbit(t)) < 4 * orbit_bytes


def test_max_chain_orbit_memory_is_its_stack():
    # a max table has one automorphism, so its 8! images are stacked as they
    # come and sorted in place: the peak is 1.24 times the 2.6 MB stack, and
    # it was 3.02 times while every chunk's keys were deduped and merged
    orbit_bytes = math.factorial(8) * 64
    assert _peak_bytes(lambda: enumerate_orbit(build_max_chain(8))) < 1.5 * orbit_bytes


@pytest.mark.parametrize("n", range(1, 8))
def test_cached_permutation_chunks_are_the_streamed_ones(n):
    cached, streamed = _permutation_chunks(n), list(_iter_permutation_chunks(n))
    assert len(cached) == len(streamed) == -(-math.factorial(n) // _PERMUTATION_CHUNK)
    for got, want in zip(cached, streamed):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1
    assert [tuple(p) for chunk in cached for p in chunk[0].tolist()] == list(permutations(range(n)))


@pytest.mark.parametrize("n", range(1, 8))
def test_kernel_yields_the_same_relabelings_cached_or_streamed(n, monkeypatch):
    stack = np.random.default_rng(n).integers(0, n, size=(2, n, n)).astype(np.int8)
    cached = list(_relabelings(stack))
    monkeypatch.setattr(algebra, "_KERNEL_ENTRIES", 0)  # every n builds its chunks as it goes
    streamed = list(_relabelings(stack))
    given = list(_relabelings(stack, permutations(range(n))))  # the same permutations as a stream, chunked as it goes
    assert len(cached) == len(streamed) == len(given)
    for (p, images), (q, want), (r, got) in zip(cached, streamed, given):
        assert np.array_equal(p, q) and images.dtype == want.dtype and np.array_equal(images, want)
        assert np.array_equal(p, r) and images.dtype == got.dtype and np.array_equal(images, got)
    # images[j, i] is table j relabelled by p_i, as OpTable.relabel gives it
    p, images = cached[-1]
    assert np.array_equal(images[1, -1], OpTable(stack[1]).relabel(p[-1].tolist()).entries)


def test_kernel_results_are_the_same_cached_or_streamed(monkeypatch):
    tables = [build_abelian([6]), build_abelian([2, 2]), build_abelian([7]), build_max_chain(5), OpTable(np.random.default_rng(5).integers(0, 5, size=(5, 5)))]
    image = build_abelian([6]).relabel([5, 3, 0, 1, 2, 4])

    def results():
        return (
            [count_automorphisms(t) for t in tables],
            count_ring_automorphisms(build_gf(2, 2)),
            are_isomorphic(build_abelian([6]), image),
            are_isomorphic(build_abelian([6]), build_max_chain(6)),
            [enumerate_orbit(t).tables.tobytes() for t in tables],
        )

    cached = results()
    assert cached[:4] == ([2, 6, 6, 1, 1], 2, (5, 3, 0, 1, 2, 4), None)  # the values the kernel gave before its cache
    monkeypatch.setattr(algebra, "_KERNEL_ENTRIES", 0)
    assert results() == cached


@pytest.mark.parametrize(
    "build",
    [lambda: algebra._build_abelian_cached.__wrapped__((2048,)), lambda: algebra._build_abelian_cached.__wrapped__((2, 1024)), lambda: build_max_chain.__wrapped__(2048)],
    ids=["Z_2048", "Z_2xZ_1024", "C_2048"],
)
def test_canonical_tables_are_built_in_their_own_type(build):
    # the int16 table takes 8 MB; filled in int64, with int64 temporaries for
    # the groups, before OpTable narrowed a copy, the peaks were 96 MB and 40 MB
    t = build()
    assert t.entries.dtype == np.int16
    assert _peak_bytes(build) <= 3 * t.entries.nbytes


def test_orbit_walk_memory_is_bounded_by_its_orbit():
    # the walk keeps the sorted orbit, one level of new keys and one chunk of
    # relabelings; Z_2 x Z_4 has 5,040 tables of 64 bytes
    t = build_abelian([2, 4])
    orbit_bytes = enumerate_orbit(t).tables.nbytes
    assert _peak_bytes(lambda: enumerate_orbit(t)) < 4 * orbit_bytes


def test_hiding_and_recovering_a_long_chain_stays_near_its_table_size():
    # the truth, the result and their gathers, 2 bytes an entry; int64 tables would take 6.6 MB
    n = 512
    build_max_chain(n)  # the canonical table is built once and cached

    def run():
        inst = new_hidden(MaxChainSpec(n), 3)
        assert recover_max_chain(oracle_for(inst)).table == inst.truth

    assert _peak_bytes(run) < 20 * n * n


def test_relabel_and_max_chain_recovery_peak_under_four_times_their_result():
    # taking through the whole narrow index cast it to intp, 8 bytes an
    # entry: 3.15 MB for the relabel and 3.5 MB for the recovery at n = 512
    n = 512
    t = build_max_chain(n)
    perm = random_permutation(n, 3)
    oracle = oracle_for(new_hidden(MaxChainSpec(n), 3))
    result_bytes = n * n * np.dtype(_table_dtype(n)).itemsize
    assert _peak_bytes(lambda: t.relabel(perm)) < 4 * result_bytes
    assert _peak_bytes(lambda: recover_max_chain(oracle)) < 4 * result_bytes


@pytest.mark.parametrize("n", [2, 181, 182, 200, 512])
def test_relabel_in_row_blocks_is_the_renaming(n):
    # from n = 182 on the table has more than _RENAME_BLOCK entries and is renamed a block of rows at a time
    t = new_hidden(AbelianSpec.from_cyclic([n]), 1).truth
    perm = np.array(random_permutation(n, 2))
    want = np.empty((n, n), dtype=np.int64)
    want[perm[:, None], perm] = perm[t.entries]  # perm[x] * perm[y] = perm[x * y]
    got = t.relabel(perm)
    assert got.entries.dtype == _table_dtype(n)
    assert np.array_equal(got.entries, want)


def test_optable_equality_reads_values_at_every_size():
    for n in (1, 5, 128, 129, 300):
        t = build_abelian([n]) if n > 1 else build_abelian([])
        same = OpTable(t.entries.astype(np.int64))
        assert t == same and hash(t) == hash(same)
        if n > 1:
            other = t.entries.copy()
            other[-1, -1] = (other[-1, -1] + 1) % n
            assert t != OpTable(other)
        assert t != build_max_chain(n + 1) and t != t.entries
    # a transposed view stores the same values in another memory order
    c = build_max_chain(300)
    assert c == OpTable(np.ascontiguousarray(c.entries.T).T)


def _old_cyclic_table(powers) -> np.ndarray:
    """The formula before the exponent-sum index was cached."""
    n = len(powers)
    p = np.asarray(powers, dtype=_table_dtype(n))
    logs = p.argsort()
    return p[(logs[:, None] + logs) % n]


def test_cyclic_table_matches_the_old_formula():
    rng = np.random.default_rng(5)
    for n in [*range(1, 41), 63, 64, 200]:
        for _ in range(3):
            powers = rng.permutation(n)
            got, want = _cyclic_table(powers), _old_cyclic_table(powers)
            assert got.dtype == want.dtype == _table_dtype(n)
            assert np.array_equal(got, want), n
        assert np.array_equal(_cyclic_table(list(powers)), want)


def test_cyclic_exponent_index_is_cached_and_read_only():
    _exponent_sums.cache_clear()
    sums = _exponent_sums(11)
    assert _exponent_sums(11) is sums
    assert not sums.flags.writeable
    with pytest.raises(ValueError):
        sums[0, 0] = 1
    assert np.array_equal(sums, np.add.outer(np.arange(11), np.arange(11)) % 11)
    _cyclic_table(np.arange(11)[::-1])
    _cyclic_table(np.arange(_CACHED_CYCLIC_ORDER))  # past the cached orders: built per call
    assert _exponent_sums.cache_info().currsize == 1


def test_light_test_memory_is_quadratic_on_a_max_chain():
    # every element of a max table is idempotent, so all n of them are
    # generators; gathering them at once would take two n^3 int64 arrays
    t = build_max_chain(256)
    assert _peak_bytes(lambda: check_axioms(t, "semigroup")) < 4 * t.entries.nbytes

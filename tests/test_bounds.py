"""Candidate counts and information lower bounds."""

import math
import random

import numpy as np
import pytest

import opquery
from opquery import (
    AbelianSpec,
    CapabilityError,
    OpTable,
    ValidationError,
    abelian_automorphism_count,
    abelian_invariant_factorizations,
    abelian_lower_bound,
    average_query_lower_bound,
    bounds_for_abelian,
    bounds_for_max_chain,
    bounds_for_ring,
    build_abelian,
    build_gf,
    build_max_chain,
    build_ring,
    count_automorphisms,
    enumerate_orbit,
    family_orbit_size,
    field_lower_bound,
    max_chain_lower_bound,
    multiplication_orbit_size,
    orbit_size,
    reports_to_csv,
)
from opquery.algebra import _factorize
from opquery.bounds import CSV_HEADER


def test_orbit_size_cyclic_closed_form():
    # n! / phi(n) for cyclic groups
    assert orbit_size(build_abelian([4])) == 12
    assert orbit_size(build_abelian([5])) == math.factorial(5) // 4
    assert orbit_size(build_abelian([11])) == 3991680


def test_orbit_size_brute_matches_fast_path():
    for n in (3, 4, 5, 6):
        t = build_abelian([n])
        fast = orbit_size(t)
        brute = math.factorial(n) // __import__("opquery").count_automorphisms(t)
        assert fast == brute


def test_orbit_size_noncyclic():
    assert orbit_size(build_abelian([2, 2])) == math.factorial(4) // 6  # = 4
    assert orbit_size(build_max_chain(4)) == math.factorial(4)  # rigid


def test_orbit_size_counts_max_tables_and_groups_in_closed_form():
    # neither is brute forced, at any n; the n = 9 max table used to be refused
    assert orbit_size(build_max_chain(12)) == orbit_size(build_max_chain(12).relabel(_shuffled(12))) == math.factorial(12)
    assert orbit_size(build_abelian([2, 6])) == math.factorial(12) // 12
    assert orbit_size(build_abelian([12])) == math.factorial(12) // 4
    # any other table is brute force, refused past the relabeling budget
    with pytest.raises(CapabilityError, match="budget"):
        orbit_size(OpTable(np.zeros((11, 11), dtype=int)))


def _shuffled(n, seed=0):
    return random.Random(seed).sample(range(n), n)


SMALL_CLASSES = [(f"C_{n}", build_max_chain(n)) for n in range(1, 8)] + [
    ("Z_" + "x".join(map(str, fs)) if fs else "Z_1", build_abelian(fs)) for n in range(1, 8) for fs in abelian_invariant_factorizations(n)
]


@pytest.mark.parametrize("t", [t for _, t in SMALL_CLASSES], ids=[name for name, _ in SMALL_CLASSES])
def test_orbit_size_is_the_brute_force_count_and_the_orbit(t):
    t = t.relabel(_shuffled(t.n, t.n))
    assert orbit_size(t) == math.factorial(t.n) // count_automorphisms(t) == len(enumerate_orbit(t))


def test_family_orbit_size_sums_disjoint_classes():
    tables = [build_abelian([4]), build_abelian([2, 2])]
    assert family_orbit_size(tables) == 12 + 4
    with pytest.raises(ValidationError):
        family_orbit_size([build_abelian([4]), build_abelian([4])])


def test_family_orbit_size_refuses_classes_on_different_carriers():
    # their orbits lie on different carriers; the sum was 12 + 30
    with pytest.raises(ValidationError, match="one carrier"):
        family_orbit_size([build_abelian([4]), build_abelian([5])])


def test_family_orbit_size_decides_groups_and_max_tables_at_any_size():
    z9 = build_abelian([9])
    # a relabelled Z_9 was counted twice (120,960): past the brute force cap the pair went unchecked
    with pytest.raises(ValidationError, match="non-isomorphic"):
        family_orbit_size([z9, z9.relabel(_shuffled(9))])
    assert family_orbit_size([z9, build_abelian([3, 3])]) == math.factorial(9) // 6 + math.factorial(9) // 48
    with pytest.raises(ValidationError, match="non-isomorphic"):
        family_orbit_size([build_max_chain(12), build_max_chain(12).relabel(_shuffled(12))])
    assert family_orbit_size([build_max_chain(12), build_abelian([12])]) == math.factorial(12) + math.factorial(12) // 4
    # the one-element table is both a group and a max table
    with pytest.raises(ValidationError, match="non-isomorphic"):
        family_orbit_size([build_abelian([]), build_max_chain(1)])


def test_family_orbit_size_brute_forces_other_tables_within_the_budget(monkeypatch):
    zeros = OpTable(np.zeros((4, 4), dtype=int))  # x*y = 0: fixed by the 3! permutations fixing 0
    with pytest.raises(ValidationError, match="non-isomorphic"):
        family_orbit_size([zeros, OpTable(np.ones((4, 4), dtype=int))])
    # a group or a max table is isomorphic to no other kind of table
    assert family_orbit_size([zeros, build_abelian([4]), build_max_chain(4)]) == 4 + 12 + 24
    # past the budget the pair is refused, not skipped, before any count
    monkeypatch.setattr(opquery.bounds, "orbit_size", None)
    with pytest.raises(CapabilityError, match="are_isomorphic at n = 11"):
        family_orbit_size([OpTable(np.zeros((11, 11), dtype=int)), OpTable(np.ones((11, 11), dtype=int))])


def test_average_query_lower_bound_values():
    assert average_query_lower_bound(3991680, 11) == pytest.approx(math.log(3991680, 11))
    assert math.ceil(average_query_lower_bound(3991680, 11)) == 7
    assert average_query_lower_bound(1, 5) == 0.0
    with pytest.raises(ValidationError):
        average_query_lower_bound(0, 5)


def test_max_chain_lower_bound():
    exact, closed = max_chain_lower_bound(8)
    assert exact == pytest.approx(math.log2(math.factorial(8)))
    expected_closed = 8 * math.log2(8) - 8 / math.log(2) + math.log2(8) / 2
    assert closed == pytest.approx(expected_closed)
    assert closed <= exact + 1e-9
    for n in (2, 4, 16, 100):
        exact, closed = max_chain_lower_bound(n)
        assert closed <= exact + 1e-9


def test_abelian_lower_bound_formula():
    for n, r in [(4, 1), (8, 2), (16, 3), (100, 1)]:
        got = abelian_lower_bound(n, r)
        expected = n - n / math.log(n) + 0.5 - r
        assert got == pytest.approx(expected)
    with pytest.raises(ValidationError):
        abelian_lower_bound(1, 1)


def _gl_order(r, p):
    q = p**r
    return math.prod(q - p**i for i in range(r))


def _totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_field_additive_automorphism_count():
    # the additive group of GF(p^r) is Z_p^r, with automorphism group GL(r, p)
    assert abelian_automorphism_count([2, 2]) == 6
    assert abelian_automorphism_count([2, 2, 2]) == (8 - 1) * (8 - 2) * (8 - 4)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        for r in range(1, 7):
            if p**r <= 64:
                assert abelian_automorphism_count([p] * r) == _gl_order(r, p), (p, r)


def test_abelian_automorphism_count_of_cyclic_groups():
    assert [abelian_automorphism_count([n]) for n in range(1, 101)] == [_totient(n) for n in range(1, 101)]


def test_abelian_automorphism_count_is_order_free():
    # any list of cyclic moduli, as long as it names the same group
    assert abelian_automorphism_count([2, 6]) == abelian_automorphism_count([6, 2]) == abelian_automorphism_count([2, 2, 3])
    assert abelian_automorphism_count([4, 4]) == 96
    with pytest.raises(ValidationError):
        abelian_automorphism_count([0])


def test_field_lower_bound_values():
    assert field_lower_bound(2, 2) == pytest.approx(0.5)
    assert field_lower_bound(2, 1) == pytest.approx(-1.0)
    assert field_lower_bound(2, 3) == pytest.approx(3 - math.log(12, 2) / 3, abs=1e-6)
    # r - log_q(4r) at (2,3): 3 - log_8(12)
    assert field_lower_bound(2, 3) == pytest.approx(3 - math.log(12, 8))
    assert field_lower_bound(2, 3) == pytest.approx(1.805, abs=1e-3)


def test_multiplication_orbit_size_gf4():
    assert multiplication_orbit_size(build_gf(2, 2)) == 3
    # |orbit| * |ring auts| = |additive auts|
    assert 3 * 2 == 6


def test_multiplication_orbit_exceeds_two():
    assert multiplication_orbit_size(build_gf(2, 2)) >= 2


def test_bounds_for_abelian_report():
    rep = bounds_for_abelian(AbelianSpec((11,)))
    assert rep.x_size == 3991680
    assert rep.avg_lower == pytest.approx(math.log(3991680, 11))
    assert rep.closed_form_lower == pytest.approx(11 - 11 / math.log(11) + 0.5 - 1)
    assert rep.closed_form_lower <= rep.avg_lower + 1e-9


def test_bounds_for_abelian_closed_form_respects_avg():
    for factors in [(4,), (2, 2), (8,), (2, 4), (9,), (11,), (2, 2, 2)]:
        rep = bounds_for_abelian(AbelianSpec(factors))
        if rep.closed_form_lower is not None and rep.avg_lower is not None:
            assert rep.closed_form_lower <= rep.avg_lower + 1e-9


def test_bounds_for_abelian_is_exact_past_the_brute_force_cap():
    rep = bounds_for_abelian(AbelianSpec((2, 6)))
    assert rep.x_size == math.factorial(12) // 12
    assert rep.avg_lower == pytest.approx(math.log(rep.x_size, 12))
    assert rep.closed_form_lower <= rep.avg_lower + 1e-9


def test_bounds_for_ring_counts_products_from_the_name():
    # |Aut(Z_4 x Z_3^2)| / |Aut(Z_4 x GF(9))| = 2 * 48 / 2; brute force would need 36! relabelings
    rep = bounds_for_ring("z4xgf9")
    assert (rep.x_size, rep.avg_lower) == (48, pytest.approx(math.log(48, 36)))
    # Z_3 and GF(3) are one class of local factor, which a ring automorphism may swap
    assert bounds_for_ring("z3xgf3").x_size == bounds_for_ring("gf3xz3").x_size == bounds_for_ring("z3xz3").x_size == 48 // 2


def _ring_names(most):
    """Every ring name with at most ``most`` elements: products of z<m> and gf<q> atoms, in every order."""
    atoms = [(f"z{m}", m) for m in range(2, most + 1)] + [(f"gf{q}", q) for q in range(2, most + 1) if len(_factorize(q)) == 1]
    names, grow = [], [("", 1)]
    while grow:
        grow = [(f"{name}x{atom}" if name else atom, n * m) for name, n in grow for atom, m in atoms if n * m <= most]
        names += [name for name, _ in grow]
    return names


@pytest.mark.parametrize("name", _ring_names(8) + ["z3xgf3"])
def test_ring_count_from_the_name_is_the_brute_force(name):
    assert bounds_for_ring(name).x_size == multiplication_orbit_size(build_ring(name))


def test_bounds_for_max_chain_report():
    rep = bounds_for_max_chain(8)
    assert rep.x_size == math.factorial(8)
    assert rep.avg_lower == pytest.approx(math.log(math.factorial(8), 8))
    assert rep.binary_lower == pytest.approx(math.log2(math.factorial(8)))
    assert rep.closed_form_lower <= rep.binary_lower + 1e-9
    rep1 = bounds_for_max_chain(1)
    assert rep1.x_size == 1 and rep1.avg_lower == 0.0


def test_bounds_for_ring_field():
    rep = bounds_for_ring("gf4")
    assert rep.x_size == 3
    assert rep.closed_form_lower == pytest.approx(0.5)
    rep8 = bounds_for_ring("gf8")
    assert rep8.x_size == 168 // 3  # |GL(3, 2)| / 3
    rep_zn = bounds_for_ring("z9")
    assert rep_zn.x_size == 6  # phi(9)


def test_csv_round_trip():
    reps = [bounds_for_abelian(AbelianSpec((4,))), bounds_for_max_chain(4)]
    text = reports_to_csv(reps)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "4" and first[2] == "12"

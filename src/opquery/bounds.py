"""Counting formulas and query lower bounds.

The driving quantity is the candidate count |X|: the number of distinct
tables on the same carrier that an adversary could be hiding. Any complete
query tree needs |X| leaves, one per candidate, so its average leaf depth
is at least log base B of |X|, where B bounds the branching (the number of
elements n in general, 2 for comparison-like classes). Candidate counts come
from orbit-stabilizer: relabelings act on tables, the stabilizer of a table
is its automorphism group, so the orbit has size n! / #automorphisms.

Closed forms shipped here:
- max table of a chain: |X| = n!, exact bound log2(n!), relaxed to
  n*log2(n) - n/ln(2) + log2(n)/2;
- abelian groups: #automorphisms by Hillar & Rhea (phi(n) for Z_n, GL(r, p)
  for Z_p^r), bound on r generators relaxed to n - n/ln(n) + 1/2 - r;
- finite fields GF(p^r): ring automorphisms number r, and the per-element
  bound relaxes to r - log_q(4r).

Counts are exact integers; bounds are floats compared at 1e-9 and never
clamped when a relaxation goes negative.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .algebra import (
    AbelianSpec,
    OpTable,
    RingSpec,
    RingTables,
    _ring_atoms,
    abelian_type,
    are_isomorphic,
    build_ring,
    count_automorphisms,
    count_ring_automorphisms,
    is_prime,
    _factorize,
    _prime_power_exponents,
)
from .errors import CapabilityError, ValidationError


def abelian_automorphism_count(moduli: Sequence[int]) -> int:
    """#automorphisms of Z_m1 x ... x Z_mk: the product over its p-parts of
    Theorem 4.1 in Hillar & Rhea, Amer. Math. Monthly 114 (2007), arXiv:math/0605185.

    For Z_p^e1 x ... x Z_p^ek with e1 <= ... <= ek, d_i = max{l : el = ei} and
    c_i = min{l : el = ei}, the count is the product over i of
    (p^d_i - p^(i-1)) * p^(ei (k - d_i)) * p^((ei - 1)(k - c_i + 1)).

    >>> abelian_automorphism_count([12])  # phi(12)
    4
    >>> abelian_automorphism_count([2, 2, 2])  # |GL(3, 2)|
    168
    """
    out = 1
    for p, exps in _prime_power_exponents(moduli).items():  # the p-part is the product of Z_p^e over e in exps
        exps.sort()
        k = len(exps)
        for i, e in enumerate(exps, 1):
            c, d = exps.index(e) + 1, exps.index(e) + exps.count(e)
            out *= (p**d - p ** (i - 1)) * p ** (e * (k - d) + (e - 1) * (k - c + 1))
    return out


def orbit_size(t: OpTable, cap: Optional[int] = None) -> int:
    """Number of distinct tables on the same carrier isomorphic to t.

    Orbit-stabilizer: n! / #automorphisms. Abelian group tables are counted
    in closed form (``abelian_type``, then ``abelian_automorphism_count``) at
    any n; anything else is brute force under the cap.

    >>> from opquery.algebra import build_abelian
    >>> orbit_size(build_abelian([2, 6]))  # 12! / 12
    39916800
    """
    factors = abelian_type(t)
    aut = count_automorphisms(t, cap) if factors is None else abelian_automorphism_count(factors)
    # the automorphisms are a subgroup of S_n, so by Lagrange the division is exact
    return math.factorial(t.n) // aut


def family_orbit_size(tables: Sequence[OpTable], cap: Optional[int] = None) -> int:
    """Candidate count when the hidden table is one of several known classes.

    The classes must be pairwise non-isomorphic (their orbits are then
    disjoint and the counts add). Pairs small enough to brute force are
    checked; a duplicated class is a validation error.
    """
    tables = list(tables)
    if not tables:
        raise ValidationError("family must contain at least one table")
    for i, a in enumerate(tables):
        for b in tables[i + 1 :]:
            if a.n != b.n:
                continue
            try:
                iso = are_isomorphic(a, b, cap)
            except CapabilityError:
                continue
            if iso is not None:
                raise ValidationError("family classes must be pairwise non-isomorphic")
    return sum(orbit_size(t, cap) for t in tables)


# n! is counted exactly up to this many bits: n up to about 20,000, whose
# 79,000 digits print in about 0.1 s. Past it, forming n! and summing log2 k
# up to n would not return for an n such as 10^9.
_FACTORIAL_BITS = 1 << 18


def _factorial(n: int) -> int:
    """n!, or CapabilityError when it has more than _FACTORIAL_BITS bits, read from lgamma before n! is formed."""
    bits = math.lgamma(min(n, 1 << 64) + 1) / math.log(2)
    if bits > _FACTORIAL_BITS:
        raise CapabilityError(f"n! has about {bits:.3g} bits for n = {n}, past the {_FACTORIAL_BITS} that bounds counts exactly")
    return math.factorial(n)


def average_query_lower_bound(x_size: int, n: int) -> float:
    """Average queries needed to split x_size candidates with n-way answers.

    >>> round(average_query_lower_bound(12, 4), 4)
    1.7925
    """
    if n < 2:
        raise ValidationError("bound needs an answer alphabet of size >= 2")
    if x_size < 1:
        raise ValidationError("candidate count must be >= 1")
    return math.log(x_size) / math.log(n)


def max_chain_lower_bound(n: int) -> tuple[float, float]:
    """(exact, closed form) average lower bounds for recovering a max table.

    Sorting lower bound with 2-way comparisons: exact log2(n!), relaxed to
    n*log2(n) - n/ln(2) + log2(n)/2. The relaxation never exceeds the exact
    value, and goes negative for tiny n rather than being clamped.
    """
    if n < 1:
        raise ValidationError("need n >= 1")
    exact = sum(math.log2(k) for k in range(2, n + 1))
    closed = n * math.log2(n) - n / math.log(2) + math.log2(n) / 2
    return exact, closed


def abelian_lower_bound(n: int, r: int) -> float:
    """Closed form average lower bound for an abelian group of order n on r generators.

    n - n/ln(n) + 1/2 - r; may be negative for small n, by design.
    """
    if n < 2:
        raise ValidationError("closed form needs n >= 2")
    if r < 1:
        raise ValidationError("generator count must be >= 1")
    return n - n / math.log(n) + 0.5 - r


def multiplication_orbit_size(rt: RingTables, cap: Optional[int] = None) -> int:
    """Number of multiplications compatible with a known addition table and

    isomorphic to the given ring: #additive automorphisms / #ring
    automorphisms, both brute force under the cap.
    """
    add_aut = count_automorphisms(rt.add, cap)
    ring_aut = count_ring_automorphisms(rt, cap)
    # ring automorphisms are a subgroup of the additive ones (Lagrange)
    return add_aut // ring_aut


def field_lower_bound(p: int, r: int) -> float:
    """Closed form average lower bound for recovering GF(p^r) multiplication

    once addition is known: r - log_q(4r). Negative for prime fields, again
    by design.
    """
    if not is_prime(p):
        raise ValidationError(f"field characteristic must be prime, got {p}")
    if r < 1:
        raise ValidationError("extension degree must be >= 1")
    q = p**r
    return r - math.log(4 * r) / math.log(q)


# ---------------------------------------------------------------------------
# reports


@dataclass
class BoundsReport:
    """One class's candidate count and lower bounds, ready to serialize.

    ``avg_lower`` is the exact count-based bound with n-way branching;
    ``binary_lower`` the 2-way variant, populated for comparison-like
    classes; ``closed_form_lower`` the shipped relaxation appropriate to the
    class (it relaxes avg_lower for groups and rings, binary_lower for max
    chains). ``notes`` says where each number came from.
    """

    n: int
    label: str
    x_size: Optional[int] = None
    avg_lower: Optional[float] = None
    binary_lower: Optional[float] = None
    closed_form_lower: Optional[float] = None
    notes: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "class": self.label,
            "x_size": self.x_size,
            "avg_lower": self.avg_lower,
            "binary_lower": self.binary_lower,
            "closed_form_lower": self.closed_form_lower,
            "notes": dict(self.notes),
        }

    def csv_row(self) -> list[str]:
        def fmt(v: Optional[float]) -> str:
            return "" if v is None else format(v, ".6g")

        x = "" if self.x_size is None else str(self.x_size)
        return [str(self.n), self.label, x, fmt(self.avg_lower), fmt(self.closed_form_lower)]


CSV_HEADER = ["n", "class", "x_size", "avg_lower", "closed_form_lower"]


def reports_to_csv(reports: Sequence[BoundsReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rep in reports:
        writer.writerow(rep.csv_row())
    return buf.getvalue()


def bounds_for_abelian(spec: AbelianSpec | Sequence[int]) -> BoundsReport:
    if not isinstance(spec, AbelianSpec):
        spec = AbelianSpec(tuple(spec))
    n = spec.n
    rep = BoundsReport(n=n, label="abelian[" + ",".join(map(str, spec.factors)) + "]")
    rep.x_size = _factorial(n) // abelian_automorphism_count(spec.factors)
    rep.notes["x_size"] = "n!/#automorphisms (Hillar-Rhea closed form)"
    rep.avg_lower = average_query_lower_bound(rep.x_size, n) if n >= 2 else 0.0
    rep.notes["avg_lower"] = "log base n of x_size" if n >= 2 else "trivial group"
    if n >= 2:
        rep.closed_form_lower = abelian_lower_bound(n, max(1, len(spec.factors)))
        rep.notes["closed_form_lower"] = "n - n/ln(n) + 1/2 - r"
    return rep


def bounds_for_max_chain(n: int) -> BoundsReport:
    if n < 1:
        raise ValidationError("need n >= 1")
    rep = BoundsReport(n=n, label=f"maxchain{n}", x_size=_factorial(n))  # before the sum over k <= n
    exact2, closed = max_chain_lower_bound(n)
    rep.avg_lower = average_query_lower_bound(rep.x_size, n) if n >= 2 else 0.0
    rep.binary_lower = exact2
    rep.closed_form_lower = closed
    rep.notes["x_size"] = "n! (every total order is a distinct table)"
    rep.notes["avg_lower"] = "log base n of n!"
    rep.notes["binary_lower"] = "log2(n!): max queries answer within the pair, 2-way"
    rep.notes["closed_form_lower"] = "relaxation of log2(n!)"
    return rep


def bounds_for_ring(spec: RingSpec | str, cap: Optional[int] = None) -> BoundsReport:
    if not isinstance(spec, RingSpec):
        spec = RingSpec(spec)
    atoms = _ring_atoms(spec.name)
    n = spec.n
    rep = BoundsReport(n=n, label=f"ring {spec.name}")
    if len(atoms) == 1 and atoms[0][0] == "gf":
        ((p, r),) = _factorize(atoms[0][1]).items()
        # the r field automorphisms are a subgroup of GL(r, p) (Lagrange)
        rep.x_size = abelian_automorphism_count([p] * r) // r
        rep.notes["x_size"] = "additive automorphism product formula / field automorphism count r"
        rep.closed_form_lower = field_lower_bound(p, r)
        rep.notes["closed_form_lower"] = "r - log_q(4r)"
    elif len(atoms) == 1 and atoms[0][0] == "zn":
        rep.x_size = abelian_automorphism_count([n])
        rep.notes["x_size"] = "phi(n) additive automorphisms, multiplication rigid"
    else:
        rt = build_ring(spec)  # only products need the tables
        try:
            rep.x_size = multiplication_orbit_size(rt, cap)
            rep.notes["x_size"] = "brute force automorphism quotient"
        except CapabilityError as exc:
            rep.notes["x_size"] = f"skipped: {exc}"
    if rep.x_size is not None and n >= 2:
        rep.avg_lower = average_query_lower_bound(rep.x_size, n)
        rep.notes["avg_lower"] = "log base n of x_size"
    return rep

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
- rings named by z<n>, gf<q> and their products: |X| = #additive
  automorphisms / #ring automorphisms, the latter a product over classes of
  isomorphic local factors; GF(p^r) has r ring automorphisms, and its
  per-element bound relaxes to r - log_q(4r).

Brute force (``count_automorphisms`` and ``multiplication_orbit_size``)
remains only for tables of no known class, and as the reference the tests
compare these formulas with.

Counts are exact integers; bounds are floats compared at 1e-9 and never
clamped when a relaxation goes negative.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .algebra import (
    AbelianSpec,
    OpTable,
    RingSpec,
    RingTables,
    _is_max_table,
    _ring_atoms,
    abelian_type,
    are_isomorphic,
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


def _isomorphism_class(t: OpTable) -> Optional[tuple]:
    """("max",) for a max table, ("abelian", invariant factors) for an abelian group, None for any other table.

    Tables on one carrier are isomorphic iff these agree, where both are
    known. The one-element table is both kinds and is read as a max table.
    """
    if _is_max_table(t.entries):
        return ("max",)
    factors = abelian_type(t)
    return None if factors is None else ("abelian", factors)


def orbit_size(t: OpTable) -> int:
    """Number of distinct tables on the same carrier isomorphic to t.

    Orbit-stabilizer: n! / #automorphisms. A max table has one automorphism,
    and an abelian group (``abelian_type``) has ``abelian_automorphism_count``
    of them, at any n; any other table is counted by brute force, held to
    ``algebra.RELABELING_BUDGET``.

    >>> from opquery.algebra import build_abelian
    >>> orbit_size(build_abelian([2, 6]))  # 12! / 12
    39916800
    """
    cls = _isomorphism_class(t)
    aut = count_automorphisms(t) if cls is None else 1 if cls == ("max",) else abelian_automorphism_count(cls[1])
    # the automorphisms are a subgroup of S_n, so by Lagrange the division is exact
    return math.factorial(t.n) // aut


def family_orbit_size(tables: Sequence[OpTable]) -> int:
    """Candidate count when the hidden table is one of several known classes on one carrier.

    The classes must be pairwise non-isomorphic (their orbits are then
    disjoint and the counts add). Two max tables or abelian groups are
    compared by ``_isomorphism_class``, either of them with any other table
    is not isomorphic to it, and two other tables are compared by brute
    force, held to ``algebra.RELABELING_BUDGET``. Tables of different sizes
    and a duplicated class are validation errors.
    """
    tables = list(tables)
    if not tables:
        raise ValidationError("family must contain at least one table")
    if len({t.n for t in tables}) > 1:
        raise ValidationError(f"family classes must share one carrier, got sizes {sorted({t.n for t in tables})}")
    classes = [_isomorphism_class(t) for t in tables]
    for i, (a, ca) in enumerate(zip(tables, classes)):
        for b, cb in zip(tables[i + 1 :], classes[i + 1 :]):
            # a max table or an abelian group is isomorphic only to its own class
            same = ca == cb if ca or cb else are_isomorphic(a, b) is not None
            if same:
                raise ValidationError("family classes must be pairwise non-isomorphic")
    return sum(map(orbit_size, tables))


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


def multiplication_orbit_size(rt: RingTables) -> int:
    """Number of multiplications compatible with a known addition table and

    isomorphic to the given ring: #additive automorphisms / #ring
    automorphisms, both by brute force, held to ``algebra.RELABELING_BUDGET``.
    The reference for the count ``bounds_for_ring`` reads from a ring's name.
    """
    add_aut = count_automorphisms(rt.add)
    ring_aut = count_ring_automorphisms(rt)
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


def bounds_for_ring(spec: RingSpec | str) -> BoundsReport:
    """Counts and bounds for recovering a ring's multiplication once its addition is known, read from its name.

    |X| = #additive automorphisms / #ring automorphisms, and no table is
    built. The ring is a product of local rings, Z_(p^k) from each prime
    power of a z<n> and GF(p^r) from a gf<p^r>, whose additive groups are
    Z_(p^k) and Z_p^r; Hillar & Rhea count the automorphisms of their sum.
    A ring automorphism permutes isomorphic local factors, so there are the
    product over classes of m isomorphic factors L of |Aut(L)|^m m!, where
    Z_(p^k) has 1, GF(p^r) has r (the Frobenius powers), and Z_p is GF(p).
    A field also gets ``field_lower_bound``.
    """
    if not isinstance(spec, RingSpec):
        spec = RingSpec(spec)
    atoms = _ring_atoms(spec.name)
    n = spec.n
    rep = BoundsReport(n=n, label=f"ring {spec.name}")
    local = Counter((p, k, kind == "gf" or k == 1) for kind, size in atoms for p, k in _factorize(size).items())  # (p, k, a field) -> #factors
    add_aut = abelian_automorphism_count([m for (p, k, field_), c in local.items() for m in ([p] * k if field_ else [p**k]) * c])
    # the ring automorphisms are a subgroup of the additive ones (Lagrange)
    rep.x_size = add_aut // math.prod((k if field_ else 1) ** c * math.factorial(c) for (p, k, field_), c in local.items())
    rep.notes["x_size"] = "additive automorphisms (Hillar-Rhea) / ring automorphisms, prod |Aut(L)|^m m! over local factors L"
    if len(atoms) == 1 and atoms[0][0] == "gf":
        ((p, r),) = _factorize(atoms[0][1]).items()
        rep.closed_form_lower = field_lower_bound(p, r)
        rep.notes["closed_form_lower"] = "r - log_q(4r)"
    rep.avg_lower = average_query_lower_bound(rep.x_size, n)
    rep.notes["avg_lower"] = "log base n of x_size"
    return rep

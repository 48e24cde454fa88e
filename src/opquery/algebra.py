"""Finite operation tables: builders, axiom checks, and symmetry counting.

Everything operates on a dense carrier {0, ..., n-1}. A binary operation is
stored as an n x n table of element indices, immutable once built, in the
narrowest integer type for n (``_table_dtype``) however it was made. The three
table families used throughout are finite abelian groups (given by their
invariant factor chain), the "later element wins" max table of a chain, and
finite commutative rings (Z_n, GF(p^r), and direct products of those).
Cyclic group tables, GF(p^r)* included, are the exponent-sum table (i + j)
mod n, cached per order, renamed by the powers of a generator
(``_cyclic_table``). Renaming a table maps its values a bounded block of
rows at a time (``_renamed``), and two tables compare by their bytes. A max
table is fixed by its ranking, so every one is built from it with one
compare and one select (``_max_table``), not renamed.

Law checks look only at generators. By Light's associativity test, a
table is associative as soon as (x*g)*y = x*(g*y) holds for every g in a
generating set A, because the g satisfying it form a subsemigroup. Likewise
the elements that satisfy a distributive law in the additive slot are closed
under an associative addition, so both laws are checked with that slot
running over the additive generators only. Both checks cost O(|A| n^2)
instead of n^3, and a group table has at most log2 n + 1 greedy generators.
The one greedy closure (``_generators``) also returns the order in which it
reached each element, which ring recovery follows to fill a multiplication.

Symmetry counts (automorphisms, isomorphisms) and orbit enumeration are
brute force over permutations, held to one budget of relabelings
(``RELABELING_BUDGET``) that each charges before its first relabeling. One
kernel walks the permutations in lexicographic order, or a stream of them
that the caller gives, a fixed chunk of rows at a time, and
relabels the tables by a whole chunk with one numpy gather, so memory stays
O(chunk n^2) however large n! is. Counts are exact Python integers throughout.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, permutations
from typing import Iterator, Literal, Optional, Sequence, Union

import numpy as np

from .errors import CapabilityError, ValidationError

# Relabelings any one permutation brute force may make, each O(n^2) work: n!
# for every n <= 10 and the p (p-2)! tables of Z_11. Its memory is bounded by
# the chunk, not by the count.
RELABELING_BUDGET = 1 << 22
# Permutations relabelled per gather: the kernel holds O(_PERMUTATION_CHUNK n^2)
# entries at a time. At n = 8, chunks of 256 to 1,024 rows ran equally fast and
# 256 kept the peak resident set lowest; 5,040 rows ran about 30 % slower.
_PERMUTATION_CHUNK = 256
# The chunks of an n with n! n^2 <= _KERNEL_ENTRIES (n <= 7, about 2.3 MB at
# n = 7) are built once and cached; larger n build each chunk as they go.
_KERNEL_ENTRIES = 1 << 18


# ---------------------------------------------------------------------------
# tables


@dataclass(frozen=True, eq=False)
class OpTable:
    """An immutable n x n operation table over element indices 0..n-1.

    ``t[x, y]`` is the product of x and y. The entries array is a read-only
    copy in ``_table_dtype(n)``; sharing one table between threads is safe.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries)
        arr = arr if arr.dtype in _UNSIGNED else arr.astype(np.int64)  # bools, floats and byte-swapped integers as int64
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"operation table must be square, got shape {arr.shape}")
        n = arr.shape[0]
        if n < 1:
            raise ValidationError("operation table needs at least one element")
        # one reduction on the input, read as unsigned so negatives wrap high;
        # on the narrowed table 300 would wrap into range
        if np.maximum.reduce(arr.view(_UNSIGNED[arr.dtype]), None) >= n:
            raise ValidationError(f"table entries must be element indices in [0, {n})")
        arr = arr.astype(_table_dtype(n))
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])

    def __getitem__(self, key: tuple[int, int]) -> int:
        x, y = key
        return int(self.entries[x, y])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OpTable):
            return False
        a, b = self.entries, other.entries
        if a.shape != b.shape:
            return False
        # both are in _table_dtype(n), so equal bytes mean equal entries;
        # copying them out beats array_equal up to about 32 KB
        return a.tobytes() == b.tobytes() if a.nbytes <= _BYTES_COMPARED else np.array_equal(a, b)

    def __hash__(self) -> int:
        return hash((self.n, self.entries.tobytes()))

    def relabel(self, perm: Sequence[int]) -> "OpTable":
        """The same operation carried through the renaming x -> perm[x]."""
        return self._relabeled(_as_permutation(perm, self.n))

    def _relabeled(self, perm: Sequence[int]) -> "OpTable":
        p = np.asarray(perm, dtype=_table_dtype(self.n))  # a permutation already: not checked again
        # a valid table renamed by a permutation is valid: skip the re-check
        entries = _renamed(self.entries, p, p.argsort())
        entries.flags.writeable = False
        return _trusted(OpTable, entries=entries)

    def to_dict(self) -> dict:
        return {"n": self.n, "table": self.entries.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "OpTable":
        t = cls(d["table"])
        if t.n != int(d["n"]):
            raise ValidationError("declared n does not match table shape")
        return t


# The unsigned type of each native integer type, as which the range check reads a table.
_UNSIGNED = {np.dtype(c): np.dtype(c.upper()) for c in "bhilqBHILQ"}
# Tables up to this many bytes compare by their bytes, larger ones by array_equal.
_BYTES_COMPARED = 1 << 15
# ``take`` casts a narrow index to intp, 8 bytes an entry; past this many
# entries ``_renamed`` goes a block of rows at a time.
_RENAME_BLOCK = 1 << 15


def _renamed(t: np.ndarray, p: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The n x n table t carried through x -> p[x], in p's dtype, given inv = p.argsort().

    Entry [u, v] is p[t[inv[u], inv[v]]]. Past ``_RENAME_BLOCK`` entries the
    rows go a block at a time, so the intp index never spans the whole table
    and the peak stays near twice the result.
    """
    n = len(p)
    if n * n <= _RENAME_BLOCK:
        return p.take(t.take(inv, 0).take(inv, 1))
    step = max(1, _RENAME_BLOCK // n)
    out = np.empty((n, n), dtype=p.dtype)
    for r in range(0, n, step):
        rows = slice(r, r + step)
        # every entry is in range, so "clip" never clips; it only spares take a buffered copy of out
        p.take(t.take(inv[rows], 0).take(inv, 1), out=out[rows], mode="clip")
    return out


def _table_dtype(n: int) -> type:
    """The type every table over n elements is stored in: the narrowest integer holding 0..n-1; past int32, ValidationError."""
    if n > 1 << 31:
        raise ValidationError(f"a table holds at most 2^31 labels, the int32 range, not {n}")
    return np.int8 if n <= 127 else np.int16 if n <= 32767 else np.int32


def _as_int(v: object) -> int:
    """v as an int if it is an integer and not a bool, the rule for every label, coordinate and answer read from outside; else TypeError."""
    if v.__class__ is bool:
        raise TypeError("bool")
    return operator.index(v)


def _as_permutation(perm: Sequence[int], n: int) -> np.ndarray:
    """``perm`` as an array in ``_table_dtype(n)``, if it lists 0..n-1 once each as integers (``_as_int``)."""
    try:
        p = [_as_int(v) for v in perm]
        ok = sorted(p) == list(range(n))
    except TypeError:
        ok = False
    if not ok:
        raise ValidationError(f"not a permutation of 0..{n - 1}: {perm!r}")
    return np.array(p, dtype=_table_dtype(n))


def _trusted(cls, **fields):
    """An instance of ``cls`` holding ``fields`` as given, without ``__post_init__``.

    Only the ``_relabeled`` methods may use it, which rename a valid table by
    a permutation that ``_as_permutation`` checked or ``random_permutation``
    built (every check is invariant under that), and ``treesearch._columns``,
    on columns the search wrote or ``tree_from_dict`` checked. Everything
    else, every recovery output included, goes through the validating constructor.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
class RingTables:
    """Addition and multiplication tables over one carrier.

    Construction checks the ring laws that every consumer here relies on:
    addition is an abelian group and multiplication distributes over it
    from both sides. Both checks look only at generators (Light's test for
    associativity, the additive generators for distributivity), so they cost
    O(n^2 log n). ``relabel`` skips them, since a renamed ring is a ring.
    """

    add: OpTable
    mul: OpTable

    def __post_init__(self) -> None:
        if self.add.n != self.mul.n:
            raise ValidationError("addition and multiplication tables differ in size")
        if not check_axioms(self.add, "abelian_group"):
            raise ValidationError("addition table is not an abelian group")
        if not distributive_laws_hold(self.add.entries, self.mul.entries):
            raise ValidationError("multiplication does not distribute over addition")

    @property
    def n(self) -> int:
        return self.add.n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RingTables) and self.add == other.add and self.mul == other.mul

    def __hash__(self) -> int:
        return hash((self.add, self.mul))

    def relabel(self, perm: Sequence[int]) -> "RingTables":
        return self._relabeled(_as_permutation(perm, self.n))

    def _relabeled(self, perm: Sequence[int]) -> "RingTables":
        # the ring laws are invariant under renaming: skip the re-check
        return _trusted(RingTables, add=self.add._relabeled(perm), mul=self.mul._relabeled(perm))

    def to_dict(self) -> dict:
        return {"n": self.n, "add": self.add.entries.tolist(), "mul": self.mul.entries.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "RingTables":
        n = int(d["n"])
        return cls(
            OpTable.from_dict({"n": n, "table": d["add"]}),
            OpTable.from_dict({"n": n, "table": d["mul"]}),
        )


# ---------------------------------------------------------------------------
# structure specs


@dataclass(frozen=True)
class AbelianSpec:
    """Finite abelian group by invariant factors d1 | d2 | ... | dk, each >= 2.

    The empty chain is the trivial group. ``from_cyclic`` accepts any list of
    cyclic moduli and normalizes it to the invariant factor chain.
    """

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        fs = tuple(int(d) for d in self.factors)
        for d in fs:
            if d < 2:
                raise ValidationError(f"invariant factors must be >= 2, got {d}")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ValidationError(f"invariant factor chain broken: {a} does not divide {b}")
        object.__setattr__(self, "factors", fs)

    @property
    def n(self) -> int:
        return math.prod(self.factors)

    @classmethod
    def from_cyclic(cls, moduli: Sequence[int]) -> "AbelianSpec":
        return cls(invariant_factors_from_cyclic(moduli))


@dataclass(frozen=True)
class MaxChainSpec:
    """Total order on n elements, operation = max of the two arguments."""

    n: int

    def __post_init__(self) -> None:
        if int(self.n) < 1:
            raise ValidationError("max chain needs n >= 1")
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class RingSpec:
    """Commutative ring family by name: ``z<n>``, ``gf<q>``, or products

    joined with ``x`` such as ``z4xgf9``. Names are lowercased on ingestion.
    """

    name: str

    def __post_init__(self) -> None:
        norm = str(self.name).strip().lower()
        _ring_atoms(norm)  # validate eagerly
        object.__setattr__(self, "name", norm)

    @property
    def n(self) -> int:
        return math.prod(size for _, size in _ring_atoms(self.name))


StructureSpec = Union[AbelianSpec, MaxChainSpec, RingSpec]


def spec_to_dict(spec: StructureSpec) -> dict:
    if isinstance(spec, AbelianSpec):
        return {"kind": "abelian", "factors": list(spec.factors)}
    if isinstance(spec, MaxChainSpec):
        return {"kind": "maxchain", "n": spec.n}
    if isinstance(spec, RingSpec):
        return {"kind": "ring", "name": spec.name}
    raise ValidationError(f"unknown spec type: {type(spec).__name__}")


def spec_from_dict(d: dict) -> StructureSpec:
    kind = d.get("kind")
    if kind == "abelian":
        return AbelianSpec(tuple(d["factors"]))
    if kind == "maxchain":
        return MaxChainSpec(d["n"])
    if kind == "ring":
        return RingSpec(d["name"])
    raise ValidationError(f"unknown spec kind: {kind!r}")


def invariant_factors_from_cyclic(moduli: Sequence[int]) -> tuple[int, ...]:
    """Normalize a direct sum of cyclic groups to its invariant factor chain.

    >>> invariant_factors_from_cyclic([2, 3])
    (6,)
    >>> invariant_factors_from_cyclic([4, 6])
    (2, 12)
    """
    by_prime = _prime_power_exponents(moduli)
    if not by_prime:
        return ()
    width = max(len(v) for v in by_prime.values())
    factors = [1] * width
    for p, exps in by_prime.items():
        exps = sorted(exps, reverse=True)
        for slot, e in enumerate(exps):
            factors[slot] *= p**e
    # largest prime powers were placed first; invariant chains run smallest first
    return tuple(d for d in reversed(factors) if d > 1)


def _prime_power_exponents(moduli: Sequence[int]) -> dict[int, list[int]]:
    """The exponent of every prime-power part of Z_m1 x ... x Z_mk, by prime, in the order of the moduli."""
    by_prime: dict[int, list[int]] = {}
    for m in moduli:
        m = int(m)
        if m < 1:
            raise ValidationError(f"cyclic modulus must be >= 1, got {m}")
        for p, e in _factorize(m).items():
            by_prime.setdefault(p, []).append(e)
    return by_prime


def abelian_invariant_factorizations(n: int) -> list[tuple[int, ...]]:
    """Every invariant factor chain with product n, i.e. every abelian group of order n."""
    if n < 1:
        raise ValidationError("group order must be >= 1")

    def chains(rem: int, base: int) -> Iterator[tuple[int, ...]]:
        if rem == 1:
            yield ()
            return
        for d in range(2, rem + 1):
            if rem % d == 0 and d % base == 0:
                for rest in chains(rem // d, d):
                    yield (d,) + rest

    return sorted(chains(n, 1))


# ---------------------------------------------------------------------------
# number theory helpers


def _factorize(m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def is_prime(m: int) -> bool:
    return _factorize(m) == {m: 1}


# ---------------------------------------------------------------------------
# builders


@lru_cache(maxsize=512)
def _build_abelian_cached(factors: tuple[int, ...]) -> OpTable:
    n = math.prod(factors)  # 1 for the trivial group, whose table is [[0]]
    dtype = _table_dtype(n)  # refuses n past int32 before any array is made
    idx = np.arange(n)
    table = np.zeros((n, n), dtype=dtype)
    stride = 1
    for d in factors:
        # for digits a, b below d, a + b - d, plus d where negative, is (a + b) mod d;
        # taken in strides it stays in (-n, n), so dtype holds it
        digit = ((idx // stride) % d * stride).astype(dtype)
        stride *= d
        part = np.subtract.outer(digit, stride - digit)
        np.add(part, stride, out=part, where=part < 0)
        table += part
        del part  # the table alone is copied into the OpTable
    return OpTable(table)


def build_abelian(spec: AbelianSpec | Sequence[int]) -> OpTable:
    """Canonical table of the abelian group with the given invariant factors.

    Element i has mixed-radix digits over the factors; addition is digitwise.
    Index 0 is the identity.
    """
    if not isinstance(spec, AbelianSpec):
        spec = AbelianSpec(tuple(spec))
    return _build_abelian_cached(spec.factors)


# Cyclic tables below this order read a cached exponent-sum index, at most
# 32 KB each; larger ones build theirs per call.
_CACHED_CYCLIC_ORDER = 64


@lru_cache(maxsize=64)
def _exponent_sums(n: int) -> np.ndarray:
    """The read-only n x n intp index (i + j) mod n: the exponent of a^i a^j in a cyclic group of order n."""
    i = np.arange(n)
    sums = (i[:, None] + i) % n
    sums.setflags(write=False)
    return sums


def _cyclic_table(powers: Sequence[int] | np.ndarray) -> np.ndarray:
    """Table of a cyclic group, in ``_table_dtype(n)``, from the element at each exponent (``powers[0]`` the identity).

    The product of a^i and a^j is a^((i + j) mod n), so the table is the
    exponent-sum index renamed by x -> powers[x]: one ``_renamed`` gather over
    the index that ``_exponent_sums`` caches for each order below
    ``_CACHED_CYCLIC_ORDER`` (every order-11 and GF(q)* table among them).
    """
    n = len(powers)
    p = np.asarray(powers, dtype=_table_dtype(n))
    sums = _exponent_sums(n) if n < _CACHED_CYCLIC_ORDER else _exponent_sums.__wrapped__(n)
    return _renamed(sums, p, p.argsort())


# Max tables up to this order read their label differences from a cache,
# 512 KB at n = 512; larger ones build theirs per call.
_CACHED_CHAIN_ORDER = 512


@lru_cache(maxsize=64)
def _label_differences(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The labels 0..n-1 and the n x n table x - y of labels, read-only, in ``_table_dtype(n)``."""
    labels = np.arange(n, dtype=_table_dtype(n))
    differences = labels[:, None] - labels
    labels.flags.writeable = differences.flags.writeable = False
    return labels, differences


def _max_table(rank: np.ndarray) -> np.ndarray:
    """The max table of the ranking, in ``_table_dtype(n)``: x*y = x if rank[x] >= rank[y], else y.

    One compare and one select, (x - y) [rank x >= rank y] + y, over the
    label differences of ``_label_differences``: no gather and no intp index.
    """
    n = len(rank)
    labels, differences = _label_differences(n) if n <= _CACHED_CHAIN_ORDER else _label_differences.__wrapped__(n)
    rank = rank.astype(labels.dtype)  # a narrow compare is about 3 times faster at n = 512
    # the compare writes 0 or 1 straight into the table: with a bool temporary
    # of its own, glibc's default heap thresholds made the fill at n = 512 up
    # to 3 times slower
    out = np.greater_equal(rank[:, None], rank, out=np.empty_like(differences))
    out *= differences
    return np.add(out, labels, out=out)


@lru_cache(maxsize=512)
def build_max_chain(n: int) -> OpTable:
    """Canonical max table on 0 < 1 < ... < n-1."""
    if n < 1:
        raise ValidationError("max chain needs n >= 1")
    return OpTable(_max_table(np.arange(n, dtype=_table_dtype(n))))  # refuses n past int32 before any table is made


# Conway polynomials for the field sizes supported here (prime powers <= 64
# with r >= 2), coefficients low degree first, leading 1 included. GF(p)
# itself is plain mod-p arithmetic and needs no polynomial.
CONWAY_POLYNOMIALS: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
}


def build_zn_ring(n: int) -> RingTables:
    if n < 2:
        raise ValidationError("Z_n ring needs n >= 2")
    idx = np.arange(n)
    return RingTables(
        OpTable((idx[:, None] + idx[None, :]) % n),
        OpTable((idx[:, None] * idx[None, :]) % n),
    )


def build_gf(p: int, r: int) -> RingTables:
    """The finite field GF(p^r); element i has base-p digits as coefficients.

    Addition is that of Z_p^r. The shipped Conway polynomial for (p, r) is
    primitive, so the powers of x (element p) run once through the nonzero
    elements, and multiplying them is a cyclic group table; a polynomial that
    is not primitive raises ``ValidationError``. Sizes past 64 are outside
    the shipped polynomial table.
    """
    if not is_prime(p):
        raise ValidationError(f"field characteristic must be prime, got {p}")
    if r < 1:
        raise ValidationError("field extension degree must be >= 1")
    q = p**r
    if r == 1:
        return build_zn_ring(p)
    if (p, r) not in CONWAY_POLYNOMIALS:
        raise CapabilityError(f"no irreducible polynomial shipped for GF({p}^{r}); table covers prime powers <= 64")
    poly = CONWAY_POLYNOMIALS[(p, r)]

    coeffs, powers = [1] + [0] * (r - 1), []  # x^0, low degree first
    for _ in range(q - 1):
        powers.append(sum(c * p**i for i, c in enumerate(coeffs)))
        # shift up a degree; x^r = -(low part of poly)
        coeffs = [(c - coeffs[-1] * a) % p for c, a in zip([0] + coeffs[:-1], poly)]
    if sorted(powers) != list(range(1, q)) or coeffs != [1] + [0] * (r - 1):
        raise ValidationError(f"shipped polynomial for GF({p}^{r}) is not primitive")
    mul = np.zeros((q, q), dtype=np.int64)
    mul[1:, 1:] = _cyclic_table(np.array(powers) - 1) + 1
    return RingTables(build_abelian((p,) * r), OpTable(mul))


def ring_product(a: RingTables, b: RingTables) -> RingTables:
    """Componentwise product ring; pair (i, j) is encoded as i * b.n + j."""
    nb = b.n

    def combine(ta: np.ndarray, tb: np.ndarray) -> OpTable:  # widened: i * nb + j overflows a narrow type
        return OpTable((ta.astype(np.intp)[:, None, :, None] * nb + tb[None, :, None, :]).reshape(a.n * nb, a.n * nb))

    return RingTables(combine(a.add.entries, b.add.entries), combine(a.mul.entries, b.mul.entries))


def _ring_atoms(name: str) -> list[tuple[str, int]]:
    """The (kind, size) of every factor of a ring name; a size past the table label range is refused before it is factorised."""
    if not name:
        raise ValidationError("empty ring name")
    atoms: list[tuple[str, int]] = []
    for token in name.split("x"):
        if token.startswith("gf") and token[2:].isdigit():
            kind, size = "gf", int(token[2:])
        elif token.startswith("z") and token[1:].isdigit():
            kind, size = "zn", int(token[1:])
        else:
            raise ValidationError(f"cannot parse ring component {token!r} in {name!r}")
        _table_dtype(size)  # before any trial division, which runs for hours on a 20-digit prime
        if kind == "gf" and len(_factorize(size)) != 1:
            raise ValidationError(f"gf size must be a prime power, got {size}")
        if kind == "zn" and size < 2:
            raise ValidationError(f"z ring modulus must be >= 2, got {size}")
        atoms.append((kind, size))
    return atoms


@lru_cache(maxsize=128)
def _build_ring_cached(name: str) -> RingTables:
    parts = []
    for kind, size in _ring_atoms(name):
        if kind == "gf":
            ((p, r),) = _factorize(size).items()
            parts.append(build_gf(p, r))
        else:
            parts.append(build_zn_ring(size))
    ring = parts[0]
    for nxt in parts[1:]:
        ring = ring_product(ring, nxt)
    return ring


def build_ring(spec: RingSpec | str) -> RingTables:
    """Canonical tables for a ring family name such as ``z8`` or ``gf9``."""
    if not isinstance(spec, RingSpec):
        spec = RingSpec(spec)
    return _build_ring_cached(spec.name)


def canonical_table(spec: StructureSpec) -> OpTable:
    """Canonical single-operation table for a groupoid spec."""
    if isinstance(spec, AbelianSpec):
        return build_abelian(spec)
    if isinstance(spec, MaxChainSpec):
        return build_max_chain(spec.n)
    raise ValidationError("ring specs carry two tables; use build_ring")


# ---------------------------------------------------------------------------
# axiom checks

AxiomClass = Literal["groupoid", "semigroup", "group", "abelian_group"]


def _generators(t: np.ndarray) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Greedy generators of a magma, smallest index first, and the closure order.

    Returns A such that A and everything reached from it by the steps
    x -> t[x, g], g in A, covers the carrier, and the order in which that
    closure reached every element outside A, once each, as ``(y, x, a)``
    with y = t[x, A[a]] and x in A or reached earlier. Each reached element
    is multiplied by each generator once, so the search costs O(n |A|)
    lookups; a group table needs at most log2 n + 1 generators.
    """
    n = t.shape[0]
    reached = [False] * n
    members: list[int] = []
    gens: list[int] = []
    steps: list[tuple[int, int, int]] = []
    cols: list[tuple[int, memoryview]] = []  # (a, col) with col[x] = t[x, gens[a]]
    g = 0
    while len(members) < n:
        while reached[g]:
            g += 1
        # not a list: 8 bytes an entry, n^2 of them when all n elements generate
        col = memoryview(np.ascontiguousarray(t[:, g]))
        new = len(gens)
        cols.append((new, col))
        gens.append(g)
        reached[g] = True
        fresh = [g]
        for x in members:  # earlier elements still owe a step by the new generator
            y = col[x]
            if not reached[y]:
                reached[y] = True
                fresh.append(y)
                steps.append((y, x, new))
        for x in fresh:  # grows while iterated: every new element steps by every generator
            for a, c in cols:
                y = c[x]
                if not reached[y]:
                    reached[y] = True
                    fresh.append(y)
                    steps.append((y, x, a))
        members.extend(fresh)
    return gens, steps


def _associative_on(t: np.ndarray, gens: list[int]) -> bool:
    """Light's test: (x*g)*y = x*(g*y) for every x, y and every g in gens.

    The elements g satisfying the identity form a subsemigroup, so when
    ``gens`` generates the carrier, passing is equivalent to associativity.
    A chunk of max(1, ``_RENAME_BLOCK`` // n^2) generators at a time,
    stopping at the first chunk that fails, so memory stays
    O(max(n^2, ``_RENAME_BLOCK``)) even when |A| = n.
    """
    n = t.shape[0]
    step = max(1, _RENAME_BLOCK // (n * n))
    for i in range(0, len(gens), step):
        g = gens[i : i + step]
        if not np.array_equal(t[t[:, g]], t[:, t[g]]):  # [x, j, y] -> (x*g_j)*y against x*(g_j*y)
            return False
    return True


def identity_of(t: OpTable) -> Optional[int]:
    """The two-sided identity element, or None."""
    arr = t.entries
    idx = np.arange(t.n)
    left = np.flatnonzero((arr == idx).all(axis=1))  # e*y = y for every y
    # a two-sided identity e is the only left identity: any other f has f = f*e = e
    if len(left) == 1 and (arr[:, left[0]] == idx).all():
        return int(left[0])
    return None


def check_axioms(t: OpTable, which: AxiomClass) -> bool:
    """True iff the table satisfies the named axiom package.

    ``groupoid`` is closure only (guaranteed by construction, so always
    True); ``semigroup`` adds associativity; ``group`` adds a two-sided
    identity and inverses; ``abelian_group`` adds commutativity.

    Associativity is decided by Light's test on a greedy generating set A
    (see ``_associative_on``): (n, n) gathers for a bounded chunk of
    generators at a time, stopping at the first chunk that fails, instead
    of the n^3 cube, exact for every table. The O(n^2) identity, inverse
    and commutativity tests run first.
    """
    if which not in ("groupoid", "semigroup", "group", "abelian_group"):
        raise ValidationError(f"unknown axiom class {which!r}")
    if which in ("group", "abelian_group"):
        return _group_identity(t, which == "abelian_group") is not None
    return which == "groupoid" or _associative_on(t.entries, _generators(t.entries)[0])


def _group_identity(t: OpTable, abelian: bool) -> Optional[int]:
    """The identity of a group table, commutative if abelian is set; None for any other table."""
    arr = t.entries
    e = identity_of(t)
    if e is None or not ((arr == e).any(axis=1).all() and (arr == e).any(axis=0).all()):
        return None  # no identity, or no inverses
    if abelian and not np.array_equal(arr, arr.T):
        return None
    return e if _associative_on(arr, _generators(arr)[0]) else None


def distributive_laws_hold(add: np.ndarray, mul: np.ndarray) -> bool:
    """Both distributive laws a*(b+c) = a*b + a*c and (a+b)*c = a*c + b*c.

    Requires an associative addition and raises ``ValidationError``
    otherwise. Then the b satisfying a*(b+c) = a*b + a*c for all a, c are
    closed under +, and so are the a satisfying (a+b)*c = a*c + b*c for all
    b, c; so each law is checked only with b (resp. a) running over the
    greedy generators of the addition, in O(|A| n^2) work.
    """
    g, _ = _generators(add)
    if not _associative_on(add, g):
        raise ValidationError("distributivity is checked on additive generators and needs an associative addition")
    return _distributive_on(add, mul, g)


def _distributive_on(add: np.ndarray, mul: np.ndarray, gens: Sequence[int]) -> bool:
    """Both distributive laws with the additive slot over ``gens``; exact if they generate an associative addition."""
    left = np.array_equal(mul[:, add[gens]], add[mul[:, gens][:, :, None], mul[:, None, :]])
    right = np.array_equal(mul[add[gens]], add[mul[gens][:, None, :], mul[None, :, :]])
    return bool(left and right)


def abelian_type(t: OpTable) -> Optional[tuple[int, ...]]:
    """The invariant factors of an abelian group table, or None for any other table.

    Read from power counts: in a p-part Z_p^e1 x ... x Z_p^ek, the x with
    x^(p^j) = e number prod_i p^min(ei, j), so going from j - 1 to j
    multiplies that count by p once per factor with ei >= j. The whole
    carrier is raised to the p-th power v times, p - 1 gathers a step, where
    p^v is the p-part of n.

    >>> abelian_type(build_abelian([2, 6]).relabel([3, 1, 4, 0, 5, 2, 7, 6, 8, 11, 10, 9]))
    (2, 6)
    """
    e = _group_identity(t, abelian=True)
    if e is None:
        return None
    idx = np.arange(t.n)
    moduli = []
    for p, v in _factorize(t.n).items():
        counts, power = [1], idx  # power = x^(p^j) for every x
        for _ in range(v):
            base = power
            for _ in range(p - 1):
                power = t.entries[power, base]
            counts.append(int(np.count_nonzero(power == e)))
        ranks = [round(math.log(b // a, p)) for a, b in zip(counts, counts[1:])]  # #factors with ei >= j
        moduli += [p ** sum(r >= i for r in ranks) for i in range(1, ranks[0] + 1)]  # ith largest ei = #{j : ranks[j] >= i}
    return invariant_factors_from_cyclic(moduli)


def _is_max_table(t: np.ndarray) -> bool:
    """True iff the (n, n) table t is x*y = the larger of x and y in some total order of its labels."""
    labels = np.arange(len(t))
    wins = (t == labels[:, None]).sum(axis=1)  # in a max table, x*y = x for y = x and the y below x
    if not (np.sort(wins) == labels + 1).all():
        return False
    return bool((t == _max_table(wins)).all())


# ---------------------------------------------------------------------------
# symmetry counting


def _factorial_past(n: int, limit: int) -> int:
    """The product 2 * 3 * ... * k up to k = n, stopped at the first k where it passes limit: n! if n! <= limit, else a number in (limit, n!]."""
    product = 1
    for k in range(2, n + 1):
        product *= k
        if product > limit:
            break
    return product


def _charge(what: str, n: int, per: int = 1, over: int = 1) -> None:
    """Refuse a brute force of per * n! / over relabelings past ``RELABELING_BUDGET``, before the first of them."""
    count = per * _factorial_past(n, RELABELING_BUDGET * over) // over
    if count > RELABELING_BUDGET:
        raise CapabilityError(f"{what} at n = {n} needs at least {count} relabelings, past the budget of {RELABELING_BUDGET}")


def _relabelings(stack: np.ndarray, perms: Optional[Iterator[Sequence[int]]] = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every relabeling of an (m, n, n) stack of tables, a chunk at a time.

    Walks the permutations p of 0..n-1 in lexicographic order, or those
    that ``perms`` yields in its order, and yields each chunk as a (k, n)
    array together with the (m, k, n, n) images in the stack's dtype:
    ``images[j, i]`` is table j carried through x -> p_i[x], as
    ``OpTable.relabel`` gives it. The chunks of all n! permutations and
    their gather indices depend on n alone: they are cached per n while
    n! n^2 stays within _KERNEL_ENTRIES (``_permutation_chunks``), and
    larger n, or a given stream, build one chunk at a time, so memory stays
    bounded by the chunk.
    """
    m, n = stack.shape[:2]
    flat = stack.reshape(m, -1).astype(np.intp)  # entries become indices into the chunk
    chunks = _permutation_chunks(n) if perms is None and math.factorial(n) * n * n <= _KERNEL_ENTRIES else _iter_permutation_chunks(n, perms)
    for p, gather, offset in chunks:
        at = flat[:, gather]
        at += offset
        yield p, np.take(p.astype(stack.dtype), at)


def _iter_permutation_chunks(n: int, perms: Optional[Iterator[Sequence[int]]] = None) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The permutations of 0..n-1 in lexicographic order, or those of ``perms``, _PERMUTATION_CHUNK at a time; read-only.

    Each chunk is the (k, n) array p, the (k, n, n) gather index and the
    (k, 1, 1) row offsets: relabel(t, p_i)[u, v] = p_i[t[inv_i[u], inv_i[v]]],
    so the index reads the entry t[inv_i[u], inv_i[v]] from a flat table,
    and that entry plus i n is where p_i[entry] sits in the flat chunk.
    """
    perms = permutations(range(n)) if perms is None else perms
    while True:
        p = np.fromiter(chain.from_iterable(islice(perms, _PERMUTATION_CHUNK)), dtype=np.intp).reshape(-1, n)
        k = p.shape[0]
        if k == 0:
            return
        inv = np.argsort(p, axis=1)
        gather = inv[:, :, None] * n + inv[:, None, :]
        offset = (np.arange(k) * n)[:, None, None]
        p.flags.writeable = gather.flags.writeable = offset.flags.writeable = False
        yield p, gather, offset


@lru_cache(maxsize=8)
def _permutation_chunks(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Every chunk of ``_iter_permutation_chunks(n)``, for an n with n! n^2 <= _KERNEL_ENTRIES; cached."""
    return tuple(_iter_permutation_chunks(n))


def _count_fixed(stack: np.ndarray) -> int:
    """Number of relabelings that fix every table of the stack at once."""
    return sum(int((images == stack[:, None]).all(axis=(0, 2, 3)).sum()) for _, images in _relabelings(stack))


def count_automorphisms(t: OpTable) -> int:
    """Number of relabelings fixing the table, by brute force over the n! permutations."""
    _charge("count_automorphisms", t.n)
    return _count_fixed(t.entries[None])


def count_ring_automorphisms(rt: RingTables) -> int:
    """Number of relabelings fixing addition and multiplication simultaneously, by brute force."""
    _charge("count_ring_automorphisms", rt.n)
    return _count_fixed(np.stack([rt.add.entries, rt.mul.entries]))


def are_isomorphic(a: OpTable, b: OpTable) -> Optional[tuple[int, ...]]:
    """The lexicographically first relabeling carrying a onto b, or None.

    Both tables must share a size.
    """
    if a.n != b.n:
        raise ValidationError(f"cannot compare tables of sizes {a.n} and {b.n}")
    _charge("are_isomorphic", a.n)
    for perms, images in _relabelings(a.entries[None]):
        hits = np.flatnonzero((images[0] == b.entries).all(axis=(1, 2)))
        if hits.size:
            return tuple(int(x) for x in perms[hits[0]])
    return None

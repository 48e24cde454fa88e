"""Query oracles over hidden operation tables.

A hidden instance is a canonical table pushed through a secret uniformly
random relabeling, so the oracle's carrier names carry no information beyond
what queries reveal. The oracle itself is a cost meter: every successful
query is appended to a transcript and counted, repeats included. Recovery
code is expected to cache its own answers. A query accepts only integer
coordinates (not bools) in range and reads the one entry it asks for; a
rejected query is neither charged nor recorded.

Hiding a table costs little more than one gather: a canonical table that
passed its checks stays valid under a permutation, so ``relabel`` does not
check it again, and ``RingTables.relabel`` does not re-check the ring laws.

The permutation stream is an explicitly coded Fisher-Yates shuffle driven by
``random.Random`` (Mersenne Twister) bits, so a seed pins down the same
instance on every platform.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from operator import index
from typing import Optional, Sequence, Union

from .algebra import (
    OpTable,
    RingSpec,
    RingTables,
    StructureSpec,
    build_ring,
    canonical_table,
    spec_from_dict,
    spec_to_dict,
)
from .errors import ValidationError

Transcript = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class HiddenInstance:
    """One seeded relabeling of a canonical single-operation table."""

    spec: StructureSpec
    seed: int
    canonical: OpTable
    perm: tuple[int, ...]
    truth: OpTable


@dataclass(frozen=True)
class HiddenRingInstance:
    """One seeded relabeling of a canonical ring; both tables share the permutation."""

    spec: RingSpec
    seed: int
    canonical: RingTables
    perm: tuple[int, ...]
    truth: RingTables


class Oracle:
    """Answers x*y lookups against a hidden truth table, counting every query."""

    __slots__ = ("_truth", "_n", "_entry", "_transcript")

    def __init__(self, truth: OpTable):
        self._truth = truth
        self._n = truth.n
        # a memoryview reads the one asked entry as an int in about half the
        # time of ``entries.item``; a cached ``tolist()`` would cost more than
        # a whole max-chain run at n = 512
        self._entry = memoryview(truth.entries)
        self._transcript: list[tuple[int, int, int]] = []

    @property
    def n(self) -> int:
        return self._n

    @property
    def count(self) -> int:
        return len(self._transcript)

    @property
    def transcript(self) -> Transcript:
        return tuple(self._transcript)

    def transcript_since(self, start: int) -> Transcript:
        """The transcript entries from position ``start`` on, copying only those."""
        return tuple(self._transcript[start:])

    def query(self, x: int, y: int) -> int:
        """The product x*y. Coordinates must be integers (not bools) in [0, n)."""
        n = self._n
        # exact ints in range, as every recovery asks, need no normalizing
        if not (x.__class__ is int and y.__class__ is int and 0 <= x < n and 0 <= y < n):
            x, y = self._coordinates(x, y)
        z = self._entry[x, y]
        self._transcript.append((x, y, z))
        return z

    def _coordinates(self, x: object, y: object) -> tuple[int, int]:
        """x and y as ints, if they are integers (not bools) in [0, n); else ValidationError."""
        try:
            if x.__class__ is bool or y.__class__ is bool:
                raise TypeError("bool")
            x, y = index(x), index(y)
        except TypeError:
            raise ValidationError(f"query ({x!r}, {y!r}) needs integer coordinates") from None
        n = self._n
        if not (0 <= x < n and 0 <= y < n):
            raise ValidationError(f"query ({x}, {y}) out of range for n = {n}")
        return x, y


def random_permutation(n: int, seed: int) -> tuple[int, ...]:
    """Uniform permutation of 0..n-1 by Fisher-Yates over seeded Twister bits."""
    getrandbits = random.Random(seed).getrandbits
    out = list(range(n))
    for i in range(n - 1, 0, -1):
        # j uniform in [0, i]: rejection sampling on getrandbits keeps the draw exact
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        out[i], out[j] = out[j], out[i]
    return tuple(out)


def new_hidden(spec: StructureSpec, seed: int) -> HiddenInstance:
    """Build the canonical table for ``spec`` and hide it behind a seeded relabeling."""
    if isinstance(spec, RingSpec):
        raise ValidationError("ring specs hide two tables; use new_hidden_ring")
    canonical = canonical_table(spec)
    perm = random_permutation(canonical.n, seed)
    return HiddenInstance(spec, seed, canonical, perm, canonical.relabel(perm))


def new_hidden_ring(spec: RingSpec | str, seed: int) -> HiddenRingInstance:
    if not isinstance(spec, RingSpec):
        spec = RingSpec(spec)
    canonical = build_ring(spec)
    perm = random_permutation(canonical.n, seed)
    return HiddenRingInstance(spec, seed, canonical, perm, canonical.relabel(perm))


def oracle_for(instance: HiddenInstance) -> Oracle:
    return Oracle(instance.truth)


def ring_oracles(instance: HiddenRingInstance) -> tuple[Oracle, Oracle]:
    """One oracle per hidden ring table: (addition, multiplication)."""
    return Oracle(instance.truth.add), Oracle(instance.truth.mul)


def verify_recovery(oracle: Oracle, claimed: OpTable) -> tuple[bool, int]:
    """Compare a claimed table against the oracle's truth without spending queries.

    Returns (exact match, queries spent so far).
    """
    if claimed.n != oracle.n:
        raise ValidationError(f"claimed table has n = {claimed.n}, oracle has n = {oracle.n}")
    return claimed == oracle._truth, oracle.count


def _transcript_entry(entry: object, n: Optional[int] = None) -> tuple[int, int, int]:
    """(x, y, z) as ints by the rule of ``Oracle.query``: integers, not bools, x and y in [0, n) if n is given."""
    try:
        x, y, z = entry
        if bool in (x.__class__, y.__class__, z.__class__):
            raise TypeError
        x, y, z = index(x), index(y), index(z)
    except (TypeError, ValueError):
        raise ValidationError(f"transcript entry {entry!r} is not three integers") from None
    if n is not None and not (0 <= x < n and 0 <= y < n):
        raise ValidationError(f"transcript entry {entry!r} out of range for n = {n}")
    return x, y, z


def replay_matches(transcript: Sequence[tuple[int, int, int]], table: OpTable) -> bool:
    """True iff every recorded answer agrees with the given table; a malformed entry raises ValidationError."""
    entries = [_transcript_entry(entry, table.n) for entry in transcript]
    return all(table[x, y] == z for x, y, z in entries)


# ---------------------------------------------------------------------------
# file formats


def save_transcript(path: str, transcript: Sequence[tuple[int, int, int]]) -> None:
    """One JSON object per line: {"x": ..., "y": ..., "z": ...}."""
    with open(path, "w") as fh:
        for x, y, z in transcript:
            fh.write(json.dumps({"x": int(x), "y": int(y), "z": int(z)}) + "\n")


def load_transcript(path: str) -> Transcript:
    """Read a JSONL transcript; a line that is not {"x": int, "y": int, "z": int} raises ValidationError."""
    out = []
    with open(path, "rb") as fh:  # json decodes each line, so bad bytes fail inside the try
        for lineno, line in enumerate(fh, 1):
            try:
                if line.strip():
                    d = json.loads(line)
                    out.append(_transcript_entry((d["x"], d["y"], d["z"])))
            except (KeyError, TypeError, ValueError) as exc:  # ValidationError and JSONDecodeError are ValueErrors
                raise ValidationError(f"{path}, line {lineno}: not a transcript entry: {exc!r}") from None
    return tuple(out)


AnyInstance = Union[HiddenInstance, HiddenRingInstance]


def instance_to_dict(instance: AnyInstance) -> dict:
    """Test/debug export: spec, seed, canonical tables, and the secret permutation."""
    return {
        "kind": "ring" if isinstance(instance, HiddenRingInstance) else "groupoid",
        "spec": spec_to_dict(instance.spec),
        "seed": instance.seed,
        "perm": list(instance.perm),
        "canonical": instance.canonical.to_dict(),
    }


def instance_from_dict(d: dict) -> AnyInstance:
    """Inverse of ``instance_to_dict``.

    Malformed content raises ValidationError, and so do tables that are not
    the canonical tables of the spec.
    """
    try:
        spec = spec_from_dict(d["spec"])
        seed = int(d["seed"])
        perm = tuple(d["perm"])  # relabel checks it; int() would truncate 2.5 to 2
        ring = d.get("kind") == "ring"
        canonical = RingTables.from_dict(d["canonical"]) if ring else OpTable.from_dict(d["canonical"])
    except ValidationError:
        raise
    except (AttributeError, KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed instance: {type(exc).__name__}: {exc}") from exc
    if ring != isinstance(spec, RingSpec):
        raise ValidationError(f"instance kind {d.get('kind')!r} does not fit a {spec_to_dict(spec)['kind']} spec")
    if canonical != (build_ring(spec) if ring else canonical_table(spec)):
        raise ValidationError(f"instance tables are not the canonical tables of {spec_to_dict(spec)}")
    if ring:
        return HiddenRingInstance(spec, seed, canonical, perm, canonical.relabel(perm))
    return HiddenInstance(spec, seed, canonical, perm, canonical.relabel(perm))


def instance_json(instance: AnyInstance) -> str:
    """The one serialized form of an instance: sorted keys, compact separators, one line."""
    return json.dumps(instance_to_dict(instance), sort_keys=True, separators=(",", ":")) + "\n"


def save_instance(path: str, instance: AnyInstance) -> None:
    with open(path, "w") as fh:
        fh.write(instance_json(instance))


def load_instance(path: str) -> AnyInstance:
    """Read an instance file; content that is not an instance raises ValidationError."""
    with open(path) as fh:
        try:
            d = json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ValidationError(f"{path}: not an instance file: {exc}") from exc
    return instance_from_dict(d)

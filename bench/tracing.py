"""Span recorder for the traced benchmark run.

A ``Tracer`` replaces selected public callables of ``opquery`` with wrappers
that record one span per call: the layer name, start and end times, the
enclosing span, and the id of the benchmark operation that was running.
Spans stay in memory; ``write`` dumps them once the run is over, and
``layer_totals`` reduces them to call counts and self times (span time minus
the time covered by its child spans).

Each callable is patched under every name that can reach it: the attribute
in every ``opquery`` module that holds the same object (``recovery`` imports
``check_axioms`` by name, ``RingTables.__post_init__`` reads the ``algebra``
global, the package re-exports most functions), and the class attribute for
methods such as ``Oracle.query``. ``restore`` puts every original object
back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Optional, Sequence

# (layer name, module, attribute). A dotted attribute is a class attribute.
# Two callables may share a layer name; their spans then add up.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("oracle.new_hidden", "opquery.oracle", "new_hidden"),
    ("oracle.random_permutation", "opquery.oracle", "random_permutation"),
    ("oracle.new_hidden_ring", "opquery.oracle", "new_hidden_ring"),
    ("oracle.query", "opquery.oracle", "Oracle.query"),
    ("oracle.verify_recovery", "opquery.oracle", "verify_recovery"),
    ("algebra.optable_validate", "opquery.algebra", "OpTable.__post_init__"),
    ("algebra.relabel", "opquery.algebra", "OpTable.relabel"),
    ("algebra.ring_laws", "opquery.algebra", "check_axioms"),
    ("algebra.ring_laws", "opquery.algebra", "distributive_laws_hold"),
    ("algebra.count_automorphisms", "opquery.algebra", "count_automorphisms"),
    ("bounds.orbit_size", "opquery.bounds", "orbit_size"),
    ("recovery.abelian", "opquery.recovery", "recover_abelian"),
    ("recovery.prime", "opquery.recovery", "recover_abelian_prime"),
    ("recovery.eleven8", "opquery.recovery", "recover_order11"),
    ("recovery.maxchain", "opquery.recovery", "recover_max_chain"),
    ("recovery.ringmul", "opquery.recovery", "recover_ring_multiplication"),
    ("treesearch.iter_cyclic_prime_tables", "opquery.treesearch", "iter_cyclic_prime_tables"),
    ("treesearch.enumerate_orbit", "opquery.treesearch", "enumerate_orbit"),
    ("treesearch.minimal_worst_case", "opquery.treesearch", "minimal_worst_case"),
    ("treesearch.verify_query_tree", "opquery.treesearch", "verify_query_tree"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# iter_cyclic_prime_tables is lazy: its cost is paid in each ``next``.
GENERATORS = frozenset({"treesearch.iter_cyclic_prime_tables"})


def _opquery_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "opquery" or name.startswith("opquery.")]


class _TimedIterator:
    """Iterator that records one span around every ``next`` of the wrapped one."""

    def __init__(self, tracer: "Tracer", code: int, it):
        self._tracer, self._code, self._it = tracer, code, it

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer._call(self._code, next, (self._it,), {})


# spans kept in memory per run; a traced run stops starting passes past this
SPAN_CAP = 300_000


class Tracer:
    """Records spans for the callables in ``TARGETS`` while installed."""

    def __init__(self):
        # one record per span: [layer code, parent span index, op id, start, end]
        self.spans: list[list] = []
        self.observations: dict[str, list[tuple]] = defaultdict(list)
        self.op = -1
        self._stack = [-1]
        self._codes = {name: i for i, name in enumerate(LAYERS)}
        self._saved: list[tuple[object, str, object]] = []

    @property
    def full(self) -> bool:
        return len(self.spans) >= SPAN_CAP

    def _call(self, code: int, fn: Callable, args: tuple, kwargs: dict):
        rec = [code, self._stack[-1], self.op, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        code = self._codes[name]
        call = self._call

        if name in GENERATORS:

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                return _TimedIterator(self, code, fn(*args, **kwargs))

            return traced_gen

        if observe is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return call(code, fn, args, kwargs)

            return traced

        @functools.wraps(fn)
        def traced_observed(*args, **kwargs):
            out = call(code, fn, args, kwargs)
            self.observations[name].append(observe(args, out))
            return out

        return traced_observed

    def install(self, observers: Optional[dict[str, Callable]] = None, iterators: Sequence[tuple[str, object, str]] = ()) -> None:
        """Patch every target under every name that reaches it.

        ``observers`` maps a layer name to ``f(args, result) -> tuple``; its
        tuples are kept in ``observations`` for counts that spans lack.
        ``iterators`` lists (layer name, owner, attribute) of iterators made
        before tracing started, such as a generator consumed across jobs;
        each ``next`` on them gets a span too.
        """
        if self._saved:
            raise RuntimeError("tracer is already installed")
        observers = observers or {}
        for name, owner, attr in iterators:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _TimedIterator(self, self._codes[name], original))
        modules = _opquery_modules()
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, observers.get(name)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, observers.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        """Put back every attribute ``install`` replaced."""
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per layer: (calls, self seconds), self = span time minus child span time."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        for i, (code, _, _, start, end) in enumerate(self.spans):
            calls[code] += 1
            self_s[code] += end - start - child[i]
        return {name: (calls[i], self_s[i]) for i, name in enumerate(LAYERS)}

    def write(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, op."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            fh.writelines(
                f"{LAYERS[code]}\t{start!r}\t{end!r}\t{parent}\t{op}\n" for code, parent, op, start, end in self.spans
            )

"""Command line front end.

Subcommands:
  gen      build a seeded hidden instance and write it to a JSON file
  recover  run a recovery method against a hidden instance and report cost
  bounds   candidate counts and lower bounds for a class (json or csv)
  search   exact optimal query tree for a small class
  sweep    batch recoveries over a family, one CSV row per run

Exit codes: 0 success, 1 budget or verification failure (including oracle
answers outside the promised class), 2 usage or validation errors (including
unreadable or malformed input files), 3 a capability limit was hit or a table
did not fit in memory. A reader
that closes the output pipe early (``opquery sweep ... | head``) ends the
command quietly with status 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from typing import Optional, Sequence

from . import algebra, bounds, oracle, recovery, treesearch
from .errors import CapabilityError, NotInClassError, ValidationError


def _spec_flags(args: argparse.Namespace) -> list[str]:
    return [name for name in ("abelian", "maxchain", "ring") if getattr(args, name) is not None]


def _parse_spec(args: argparse.Namespace) -> algebra.StructureSpec:
    if len(_spec_flags(args)) != 1:
        raise ValidationError("choose exactly one of --abelian / --maxchain / --ring")
    if args.abelian is not None:
        try:
            factors = tuple(int(tok) for tok in args.abelian.split(",") if tok != "")
        except ValueError:
            raise ValidationError(f"cannot parse --abelian {args.abelian!r}; expected comma separated integers")
        return algebra.AbelianSpec(factors)
    if args.maxchain is not None:
        return algebra.MaxChainSpec(args.maxchain)
    return algebra.RingSpec(args.ring)


def _write(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(path: Optional[str], payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


@contextlib.contextmanager
def _exact_integers():
    """Let str() write an integer of any length, such as the 9,131 digits of 3000!; the default limit is 4,300."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _new_instance(spec: algebra.StructureSpec, seed: int) -> oracle.AnyInstance:
    if isinstance(spec, algebra.RingSpec):
        return oracle.new_hidden_ring(spec, seed)
    return oracle.new_hidden(spec, seed)


def cmd_gen(args: argparse.Namespace) -> int:
    _write(args.out, oracle.instance_json(_new_instance(_parse_spec(args), args.seed)))
    return 0


def _default_method(spec: algebra.StructureSpec) -> recovery.Method:
    return next(m for m in recovery.METHODS.values() if m.default and m.fits(spec))


def _run_method(method: recovery.Method, inst: oracle.AnyInstance) -> tuple[tuple[recovery.Part, ...], bool, int, float]:
    """Run a method on an instance: its parts, whether all of them match the truth, queries and budget."""
    if not method.fits(inst.spec):
        raise ValidationError(f"method {method.name} does not apply to {inst.spec}")
    parts = method.run(inst)
    ok = all(oracle.verify_recovery(o, result.table)[0] for result, o in parts)
    queries = sum(result.queries_used for result, _ in parts)
    return parts, ok, queries, recovery.query_budget(method.name, inst.spec.n)


def cmd_recover(args: argparse.Namespace) -> int:
    if args.infile and _spec_flags(args):
        raise ValidationError("--in takes the class from the file; give no --abelian / --maxchain / --ring with it")
    inst = oracle.load_instance(args.infile) if args.infile else _new_instance(_parse_spec(args), args.seed)
    method = recovery.METHODS[args.method] if args.method else _default_method(inst.spec)
    if args.trace and len(method.tables) > 1:
        raise ValidationError(f"--trace writes one transcript, but method {method.name} queries {len(method.tables)} tables")

    parts, ok, queries, budget = _run_method(method, inst)
    if len(parts) == 1:
        result = parts[0][0].to_dict()
    else:
        result = {table: res.to_dict() for table, (res, _) in zip(method.tables, parts)}
    if args.trace:
        oracle.save_transcript(args.trace, parts[0][0].trace or ())

    payload = {"ok": ok, "queries_used": queries, "budget": budget, "method": method.name, "n": inst.spec.n, "result": result}
    _write_json(args.out, payload)
    if not ok:
        print("verification failed: recovered table differs from the hidden truth", file=sys.stderr)
        return 1
    if queries > budget + 1e-9:
        print(f"budget exceeded: {queries} queries > {budget}", file=sys.stderr)
        return 1
    return 0


def _bounds_report(spec: algebra.StructureSpec) -> bounds.BoundsReport:
    if isinstance(spec, algebra.AbelianSpec):
        return bounds.bounds_for_abelian(spec)
    if isinstance(spec, algebra.MaxChainSpec):
        return bounds.bounds_for_max_chain(spec.n)
    return bounds.bounds_for_ring(spec)


def cmd_bounds(args: argparse.Namespace) -> int:
    rep = _bounds_report(_parse_spec(args))
    with _exact_integers():  # the candidate count is exact at any n
        if args.format == "csv":
            _write(args.out, bounds.reports_to_csv([rep]))
        else:
            _write_json(args.out, rep.to_dict())
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    spec = _parse_spec(args)
    if isinstance(spec, algebra.RingSpec):
        raise ValidationError("search takes --abelian or --maxchain; a ring hides two tables")
    # |X| = n! / |Aut| is held to the budget before any table is built, by a product that stops past it
    automorphisms = 1 if isinstance(spec, algebra.MaxChainSpec) else bounds.abelian_automorphism_count(spec.factors)
    treesearch._check_orbit_budget(spec.n, automorphisms, args.budget)
    rep = _bounds_report(spec)
    # every path of enumerate_orbit relabels at most (n - 1) |X| tables, so the budget bounds it too
    ops = treesearch.enumerate_orbit(algebra.canonical_table(spec))
    stats = treesearch.SearchStats()
    depth, tree = treesearch.minimal_worst_case(ops, budget=args.budget, stats=stats)
    if args.stats:
        print("search stats: " + " ".join(f"{k}={v}" for k, v in vars(stats).items()), file=sys.stderr)
    worst, avg = treesearch.tree_stats(tree, ops)
    if worst != depth:
        print(f"verification failed: search reported optimum {depth} but its tree has depth {worst}", file=sys.stderr)
        return 1
    payload = {
        "class": rep.label,
        "x_size": rep.x_size,
        "optimal_worst_case": depth,
        "average_depth": avg,
        "tree": treesearch.tree_to_dict(tree),
    }
    _write_json(args.out, payload)
    if args.render:
        sys.stdout.write(treesearch.render_tree(tree))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.reps < 1:
        raise ValidationError(f"--reps must be at least 1, got {args.reps}")
    specs: list[algebra.StructureSpec] = []
    if args.abelian_upto:
        for n in range(1, args.abelian_upto + 1):
            specs += map(algebra.AbelianSpec, algebra.abelian_invariant_factorizations(n))
    if args.maxchain_upto:
        specs += [algebra.MaxChainSpec(n) for n in range(1, args.maxchain_upto + 1)]
    if args.rings:
        specs += [algebra.RingSpec(name) for name in args.rings.split(",")]

    rows: list[tuple[int, str, int, int, float, bool]] = []
    for spec in specs:
        method = _default_method(spec)
        for seed in range(args.seed, args.seed + args.reps):
            _, ok, queries, budget = _run_method(method, _new_instance(spec, seed))
            rows.append((spec.n, method.name, seed, queries, budget, ok and queries <= budget + 1e-9))
    if not rows:
        raise ValidationError("nothing to sweep; pass --abelian-upto, --maxchain-upto, or --rings")

    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["n", "method", "seed", "queries", "bound", "ok"])
    for n, method, seed, queries, budget, ok in rows:
        writer.writerow([n, method, seed, queries, format(budget, ".6g"), ok])
    _write(args.out, text.getvalue())
    return 0 if all(row[-1] for row in rows) else 1


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--abelian", metavar="D1,D2,...", help="abelian group by invariant factors, e.g. 2,4")
    p.add_argument("--maxchain", type=int, metavar="N", help="max table of a chain on N elements")
    p.add_argument("--ring", metavar="NAME", help="ring family: zN, gfQ, or products like z4xgf9")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opquery", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a seeded hidden instance to JSON")
    _add_spec_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("recover", help="run a recovery method against a hidden instance")
    _add_spec_flags(p)
    p.add_argument("--in", dest="infile", help="instance JSON from gen (alternative to spec flags)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=recovery.METHODS, help="default: the class's own method")
    p.add_argument("--out", help="result JSON path (default stdout)")
    p.add_argument("--trace", help="also write the query transcript as JSONL")
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("bounds", help="candidate counts and lower bounds for a class")
    _add_spec_flags(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("search", help="exact optimal query tree for a small class")
    _add_spec_flags(p)
    p.add_argument("--budget", type=int, default=treesearch.SEARCH_BUDGET, help="candidate set size cap")
    p.add_argument("--render", action="store_true", help="print the tree as indented text")
    p.add_argument("--stats", action="store_true", help="print the search's work counts (SearchStats) on stderr")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("sweep", help="batch recoveries over a family, CSV per run")
    p.add_argument("--abelian-upto", type=int, metavar="N", help="every abelian group of order <= N")
    p.add_argument("--maxchain-upto", type=int, metavar="N")
    p.add_argument("--rings", metavar="NAMES", help="comma separated ring names, e.g. z4,gf8")
    p.add_argument("--reps", type=int, default=1, help="seeds per class")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"capability: out of memory: {exc}", file=sys.stderr)
        return 3
    except NotInClassError as exc:
        print(f"not in class: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the flush at exit
        # does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

"""Command line front end.

Subcommands:
  gen      build a seeded hidden instance and write it to a JSON file
  recover  run a recovery method against a hidden instance and report cost
  bounds   candidate counts and lower bounds for a class (json or csv)
  search   exact optimal query tree for a small class
  sweep    batch recoveries over a family, one CSV row per run

Exit codes: 0 success, 1 budget or verification failure (including oracle
answers outside the promised class), 2 usage or validation errors (including
unreadable or malformed input files), 3 a capability cap was hit. A reader
that closes the output pipe early (``opquery sweep ... | head``) ends the
command quietly with status 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Optional, Sequence

from . import algebra, bounds, oracle, recovery, treesearch
from .errors import CapabilityError, NotInClassError, ValidationError


def _parse_spec(args: argparse.Namespace) -> algebra.StructureSpec:
    chosen = [name for name in ("abelian", "maxchain", "ring") if getattr(args, name, None) is not None]
    if len(chosen) != 1:
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


def _write_json(path: Optional[str], payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args: argparse.Namespace) -> int:
    spec = _parse_spec(args)
    if isinstance(spec, algebra.RingSpec):
        inst: oracle.AnyInstance = oracle.new_hidden_ring(spec, args.seed)
    else:
        inst = oracle.new_hidden(spec, args.seed)
    if args.out:
        oracle.save_instance(args.out, inst)
    else:
        sys.stdout.write(json.dumps(oracle.instance_to_dict(inst), sort_keys=True) + "\n")
    return 0


def _method_for_spec(spec: algebra.StructureSpec) -> str:
    if isinstance(spec, algebra.MaxChainSpec):
        return "maxchain"
    if isinstance(spec, algebra.RingSpec):
        return "ringfull"
    return "abelian"


def _run_groupoid_method(method: str, inst: oracle.HiddenInstance) -> tuple[recovery.RecoveryResult, oracle.Oracle]:
    o = oracle.oracle_for(inst)
    spec = inst.spec
    if method == "abelian":
        if not isinstance(spec, algebra.AbelianSpec):
            raise ValidationError(f"method abelian does not apply to {type(spec).__name__}")
        return recovery.recover_abelian(o), o
    if method == "prime":
        if not isinstance(spec, algebra.AbelianSpec) or not algebra.is_prime(spec.n):
            raise ValidationError("method prime needs an abelian instance of prime order")
        return recovery.recover_abelian_prime(o, spec.n), o
    if method == "eleven8":
        if not isinstance(spec, algebra.AbelianSpec) or spec.n != 11:
            raise ValidationError("method eleven8 needs an abelian instance with n = 11")
        return recovery.recover_order11(o), o
    if method == "maxchain":
        if not isinstance(spec, algebra.MaxChainSpec):
            raise ValidationError(f"method maxchain does not apply to {type(spec).__name__}")
        return recovery.recover_max_chain(o), o
    raise ValidationError(f"unknown method {method!r}; choose from {recovery.METHODS}")


def cmd_recover(args: argparse.Namespace) -> int:
    if args.infile:
        inst = oracle.load_instance(args.infile)
    else:
        spec = _parse_spec(args)
        if isinstance(spec, algebra.RingSpec):
            inst = oracle.new_hidden_ring(spec, args.seed)
        else:
            inst = oracle.new_hidden(spec, args.seed)

    method = args.method or _method_for_spec(inst.spec)
    n = inst.truth.n if isinstance(inst, oracle.HiddenInstance) else inst.truth.add.n

    if method in ("ringmul", "ringfull"):
        if not isinstance(inst, oracle.HiddenRingInstance):
            raise ValidationError(f"method {method} needs a ring instance")
        o_add, o_mul = oracle.ring_oracles(inst)
        if method == "ringmul":
            result = recovery.recover_ring_multiplication(inst.truth.add, o_mul)
            ok = result.table == inst.truth.mul
            queries = result.queries_used
            payload = result.to_dict()
        else:
            add_res, mul_res = recovery.recover_ring_full(o_add, o_mul)
            ok = add_res.table == inst.truth.add and mul_res.table == inst.truth.mul
            queries = add_res.queries_used + mul_res.queries_used
            payload = {"add": add_res.to_dict(), "mul": mul_res.to_dict()}
    else:
        if isinstance(inst, oracle.HiddenRingInstance):
            raise ValidationError(f"method {method} does not apply to a ring instance")
        result, o = _run_groupoid_method(method, inst)
        ok, _ = oracle.verify_recovery(o, result.table)
        queries = result.queries_used
        payload = result.to_dict()
        if args.trace:
            oracle.save_transcript(args.trace, result.trace or ())

    budget = recovery.query_budget(method, n)
    payload = {"ok": bool(ok), "queries_used": queries, "budget": budget, "method": method, "n": n, "result": payload}
    _write_json(args.out, payload)
    if not ok:
        print("verification failed: recovered table differs from the hidden truth", file=sys.stderr)
        return 1
    if queries > budget + 1e-9:
        print(f"budget exceeded: {queries} queries > {budget}", file=sys.stderr)
        return 1
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    spec = _parse_spec(args)
    cap = args.cap
    if isinstance(spec, algebra.AbelianSpec):
        rep = bounds.bounds_for_abelian(spec, cap)
    elif isinstance(spec, algebra.MaxChainSpec):
        rep = bounds.bounds_for_max_chain(spec.n)
    else:
        rep = bounds.bounds_for_ring(spec, cap)
    if args.format == "csv":
        text = bounds.reports_to_csv([rep])
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        _write_json(args.out, rep.to_dict())
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    if (args.group is None) == (args.maxchain is None):
        raise ValidationError("choose exactly one of --group / --maxchain")
    if args.group is not None:
        name = args.group.strip().lower()
        if not (name.startswith("z") and name[1:].isdigit() and int(name[1:]) >= 1):
            raise ValidationError(f"--group expects z<n> with n >= 1, got {args.group!r}")
        canonical = algebra.build_abelian([int(name[1:])] if int(name[1:]) > 1 else [])
        label = name
    else:
        canonical = algebra.build_max_chain(args.maxchain)
        label = f"maxchain{args.maxchain}"
    ops = treesearch.enumerate_orbit(canonical, cap=args.cap)
    depth, tree = treesearch.minimal_worst_case(ops, budget=args.budget)
    worst, avg = treesearch.tree_stats(tree, ops)
    if worst != depth:
        print(f"verification failed: search reported optimum {depth} but its tree has depth {worst}", file=sys.stderr)
        return 1
    payload = {
        "class": label,
        "x_size": len(ops),
        "optimal_worst_case": depth,
        "average_depth": avg,
        "tree": treesearch.tree_to_dict(tree),
    }
    _write_json(args.out, payload)
    if args.render:
        sys.stdout.write(treesearch.render_tree(tree))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    rows: list[tuple[int, str, int, int, float, bool]] = []
    all_ok = True

    def run_groupoid(spec: algebra.StructureSpec, method: str, seed: int) -> None:
        nonlocal all_ok
        inst = oracle.new_hidden(spec, seed)
        result, o = _run_groupoid_method(method, inst)
        ok, _ = oracle.verify_recovery(o, result.table)
        budget = recovery.query_budget(method, inst.truth.n)
        ok = ok and result.queries_used <= budget + 1e-9
        all_ok = all_ok and ok
        rows.append((inst.truth.n, method, seed, result.queries_used, budget, ok))

    seeds = range(args.seed, args.seed + args.reps)
    if args.abelian_upto:
        for n in range(1, args.abelian_upto + 1):
            for factors in algebra.abelian_invariant_factorizations(n):
                for seed in seeds:
                    run_groupoid(algebra.AbelianSpec(factors), "abelian", seed)
    if args.maxchain_upto:
        for n in range(1, args.maxchain_upto + 1):
            for seed in seeds:
                run_groupoid(algebra.MaxChainSpec(n), "maxchain", seed)
    if args.rings:
        for name in args.rings.split(","):
            spec = algebra.RingSpec(name)
            for seed in seeds:
                inst = oracle.new_hidden_ring(spec, seed)
                o_add, o_mul = oracle.ring_oracles(inst)
                add_res, mul_res = recovery.recover_ring_full(o_add, o_mul)
                queries = add_res.queries_used + mul_res.queries_used
                budget = recovery.query_budget("ringfull", inst.truth.n)
                ok = add_res.table == inst.truth.add and mul_res.table == inst.truth.mul and queries <= budget + 1e-9
                all_ok = all_ok and ok
                rows.append((inst.truth.n, "ringfull", seed, queries, budget, ok))
    if not rows:
        raise ValidationError("nothing to sweep; pass --abelian-upto, --maxchain-upto, or --rings")

    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    out = args.out
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "method", "seed", "queries", "bound", "ok"])
        for n, method, seed, queries, budget, ok in rows:
            writer.writerow([n, method, seed, queries, format(budget, ".6g"), ok])
    finally:
        if out:
            fh.close()
    return 0 if all_ok else 1


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
    p.add_argument("--cap", type=int, help="raise the brute force cap")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("search", help="exact optimal query tree for a small class")
    p.add_argument("--group", metavar="zN", help="cyclic group, e.g. z4")
    p.add_argument("--maxchain", type=int, metavar="N")
    p.add_argument("--budget", type=int, default=treesearch.SEARCH_BUDGET, help="candidate set size cap")
    p.add_argument("--cap", type=int, help="raise the brute force cap")
    p.add_argument("--render", action="store_true", help="print the tree as indented text")
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

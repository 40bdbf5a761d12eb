"""Command-line interface.

Commands:
  solve   -- run the full solver on an instance file
  mms     -- print exact maximin shares (and witness partitions)
  verify  -- score an allocation file against a threshold
  gen     -- emit a tight or random instance as JSON
  bench   -- solve a batch of seeded random instances on one thread

Exit codes, one per error class: 0 success, 2 invalid input
(ValidationError, or an unreadable file), 3 exact search over the good
limit or out of memory or stack (CapacityError), 4 internal invariant
violation (InternalInvariantError; diagnostics are dumped to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .core import (
    allocation_from_json,
    check_count,
    format_value,
    instance_from_json,
    instance_to_json,
)
from .errors import (
    CapacityError,
    InternalInvariantError,
    ValidationError,
)
from .harness import GeneratorSpec, gen_random, gen_tight_example, verify
from .oracle import DEFAULT_MAX_GOODS, instance_mms_all, mms
from .pipeline import alpha_for, approx_mms


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # ValueError also means bad UTF-8 or an over-long integer, and
        # RecursionError arrays or objects nested past the stack.
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{path}: unreadable JSON: {exc}") from None


def _write_json(doc, path: Optional[str]) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_instance(path: str):
    return instance_from_json(_read_json(path))


def _trace_doc(log, bag_run) -> dict:
    return {
        "reductions": log.to_json(),
        "bagfill": [] if bag_run is None else [e.to_json() for e in bag_run.trace],
    }


def _add_capacity_args(parser) -> None:
    parser.add_argument("--max-goods", type=int, default=DEFAULT_MAX_GOODS,
                        help="exact-search good limit (default %(default)s)")


def _cmd_solve(args) -> int:
    instance = _load_instance(args.input)
    choice = alpha_for(instance.n, args.alpha)
    report = approx_mms(instance, choice, max_goods=args.max_goods)
    _write_json(report.to_json(instance), args.output)
    if args.trace:
        _write_json(_trace_doc(report.reduction_log, report.bagfill), args.trace)
    return 0


def _cmd_mms(args) -> int:
    instance = _load_instance(args.input)
    agent = args.agent
    if agent is not None and agent not in instance.agents:
        raise ValidationError(f"unknown agent {agent}")
    if agent is None:
        results = instance_mms_all(instance, max_goods=args.max_goods)
    else:  # search this agent's share only
        cert = instance.certificates.get(agent)
        results = {agent: mms(instance.valuations[agent], instance.n, instance.all_goods,
                              certificate=cert, max_goods=args.max_goods)}
    doc = {
        str(a): {
            "mms": format_value(results[a].value),
            "partition": [sorted(cell, key=instance.good_position.__getitem__)
                          for cell in results[a].partition],
        }
        for a in results
    }
    _write_json(doc, args.output)
    return 0


def _cmd_verify(args) -> int:
    instance = _load_instance(args.input)
    allocation = allocation_from_json(instance, _read_json(args.allocation))
    report = verify(instance, allocation, args.alpha, max_goods=args.max_goods)
    _write_json(report.to_json(), args.output)
    return 0


def _cmd_gen(args) -> int:
    if args.family == "tight":
        instance = gen_tight_example(args.n)
    else:
        instance = gen_random(GeneratorSpec(kind=args.kind, n=args.n, m=args.m,
                                            value_bound=args.bound, seed=args.seed))
    _write_json(instance_to_json(instance), args.output)
    return 0


def _cmd_bench(args) -> int:
    if args.suite != "random":
        raise ValidationError(f"unknown suite {args.suite!r}")
    check_count(args.count, "--count", 1)
    grid = [(n, m) for n in (2, 3, 4) for m in range(n, 13)]

    # approx_mms scores its allocation through verify against the oracle's
    # shares and raises below alpha, so its report is the verified score.
    results = []
    for i in range(args.count):
        n, m = grid[i % len(grid)]
        spec = GeneratorSpec(kind="uniform-int", n=n, m=m, value_bound=100,
                             seed=args.seed + i)
        instance = gen_random(spec)
        choice = alpha_for(instance.n, "improved")
        report = approx_mms(instance, choice, max_goods=args.max_goods)
        results.append({
            "id": spec.instance_id(),
            "n": spec.n,
            "m": spec.m,
            "alpha": format_value(choice.alpha),
            "score": format_value(report.score),
            "ok": report.score >= choice.alpha,
        })
    results.sort(key=lambda r: r["id"])
    failures = [r for r in results if not r["ok"]]
    doc = {
        "suite": args.suite,
        "count": len(results),
        "failures": len(failures),
        "results": results,
    }
    _write_json(doc, args.output)
    return 0 if not failures else 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmsfair",
        description="Exact approximate-maximin-share allocation of indivisible goods")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance end to end")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", default="improved",
                   help='"classic", "improved", or an explicit rational like 3/4')
    p.add_argument("--trace", default=None, help="write the full solve trace here")
    p.add_argument("--output", default=None)
    _add_capacity_args(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("mms", help="print exact maximin shares")
    p.add_argument("--input", required=True)
    p.add_argument("--agent", type=int, default=None)
    p.add_argument("--output", default=None)
    _add_capacity_args(p)
    p.set_defaults(func=_cmd_mms)

    p = sub.add_parser("verify", help="score an allocation against a threshold")
    p.add_argument("--input", required=True)
    p.add_argument("--allocation", required=True)
    p.add_argument("--alpha", required=True, help="threshold as P/Q")
    p.add_argument("--output", default=None)
    _add_capacity_args(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate an instance")
    gen_sub = p.add_subparsers(dest="family", required=True)
    pt = gen_sub.add_parser("tight", help="worst-case identical-valuation family")
    pt.add_argument("--n", type=int, required=True)
    pt.add_argument("--output", default=None)
    pt.set_defaults(func=_cmd_gen)
    pr = gen_sub.add_parser("random", help="seeded random family")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--m", type=int, required=True)
    pr.add_argument("--bound", type=int, required=True)
    pr.add_argument("--seed", type=int, required=True)
    pr.add_argument("--kind", default="uniform-int",
                    choices=("uniform-int", "uniform-rational"))
    pr.add_argument("--output", default=None)
    pr.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="solve a batch of seeded random instances")
    p.add_argument("--suite", default="random")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=4,
                   help="ignored: the solves run one after another on one thread")
    p.add_argument("--output", default=None)
    _add_capacity_args(p)
    p.set_defaults(func=_cmd_bench)

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # gen has no --max-goods
        check_count(getattr(args, "max_goods", 0), "--max-goods", 0)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("capacity error: the exact search ran out of memory; "
              "lower --max-goods or supply certificates", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        if exc.payload is not None:
            json.dump(_trace_doc(*exc.payload), sys.stderr, indent=2)
            print(file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line entry point.

Subcommands: ``gen`` (random instances), ``run`` (online run + exact
optimum + report), ``adversary`` (forcing game), ``verify`` (property
sweeps).  Exit codes: 0 all good, 1 a checked property was violated,
2 bad input.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from gridhit import formats, harness
from gridhit.errors import GridHitError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridhit",
        description="Online hitting sets for fat objects on the integer grid.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random instance file")
    p_gen.add_argument("--d", type=int, default=2)
    p_gen.add_argument("--N", type=int, default=64)
    p_gen.add_argument("--alpha", default=None,
                       help="family fatness: e.g. 1, 3/2, sqrt(2); "
                            "defaults to the smallest value admitting the mix")
    p_gen.add_argument("--shapes", default="ball,cube,box",
                       help="comma list drawn from ball,cube,box")
    p_gen.add_argument("--count", type=int, default=20)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--min-width", default="1")
    p_gen.add_argument("--max-width", default=None)
    p_gen.add_argument("--out", required=True)

    p_run = sub.add_parser("run", help="run the online engine on an instance")
    p_run.add_argument("instance")
    p_run.add_argument("--transcript", default=None,
                       help="write a JSONL transcript of every step")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")

    p_adv = sub.add_parser("adversary", help="play the forcing game")
    p_adv.add_argument("--d", type=int, default=2)
    p_adv.add_argument("--N", type=int, default=1024)
    p_adv.add_argument("--shape", choices=("cube", "ball", "box"),
                       default="cube")
    p_adv.add_argument("--opponent", choices=("engine", "baseline"),
                       default="engine")
    p_adv.add_argument("--aspect", default=None,
                       help="comma list of box side ratios, e.g. 1,2")
    p_adv.add_argument("--trace", "--transcript", default=None,
                       help="write a JSONL trace of the game")
    p_adv.add_argument("--format", choices=("json", "csv"), default="json")

    p_ver = sub.add_parser("verify", help="run a property sweep")
    p_ver.add_argument("--suite", required=True,
                       choices=sorted(harness.SUITES) + ["all"])
    p_ver.add_argument("--N", type=int, default=None)
    p_ver.add_argument("--count", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=None)
    return parser


def _cmd_gen(args) -> int:
    shapes = tuple(s.strip() for s in args.shapes.split(",") if s.strip())
    if args.alpha is not None:
        fatness = formats.parse_scalar_text(args.alpha)
    elif "ball" in shapes and args.d > 1:
        fatness = formats.parse_scalar_text(f"sqrt({args.d})")
    elif "box" in shapes:
        fatness = formats.parse_scalar_text("2")
    else:
        fatness = formats.parse_scalar_text("1")
    max_width = None if args.max_width is None else \
        formats.parse_scalar_text(args.max_width)
    inst = harness.gen_random(
        args.d, args.N, fatness, shapes, args.count, args.seed,
        min_width=formats.parse_scalar_text(args.min_width),
        max_width=max_width)
    formats.write_instance(inst, args.out)
    print(f"wrote {len(inst.objects)} objects to {args.out}")
    return 0


def _emit_report(report, fmt: str) -> None:
    if fmt == "csv":
        sys.stdout.write(report.to_csv())
    else:
        print(formats.dumps(report.to_json()))


def _cmd_run(args) -> int:
    inst = formats.read_instance(args.instance)
    report = harness.run_online(inst, transcript_path=args.transcript)
    _emit_report(report, args.format)
    if report.opt_exact and report.within_bound is False:
        return 1
    return 0


def _cmd_adversary(args) -> int:
    aspect = None
    if args.aspect is not None:
        aspect = tuple(formats.parse_scalar_text(a)
                       for a in args.aspect.split(","))
    summary, report = harness.run_adversary(
        args.d, args.N, shape=args.shape, opponent=args.opponent,
        aspect=aspect, trace_path=args.trace)
    _emit_report(report, args.format)
    print(f"steps={summary.steps} total_points={summary.total_points} "
          f"forced_minimum_met={summary.forced_minimum_met} "
          f"certificate={list(summary.certificate)}")
    return 0 if summary.forced_minimum_met else 1


def _cmd_verify(args) -> int:
    # A flag goes to a suite whose signature names it; ``all`` takes none.
    takes = () if args.suite == "all" else \
        inspect.signature(harness.SUITES[args.suite]).parameters
    given = {k: getattr(args, k) for k in ("N", "count", "seed")
             if getattr(args, k) is not None}
    ignored = [f"--{k}" for k in given if k not in takes]
    if ignored:
        print(f"note: {', '.join(ignored)} ignored for --suite {args.suite}",
              file=sys.stderr)
    params = {k: v for k, v in given.items() if k in takes}
    # A suite run at these values checks nothing, yet would report a pass.
    if params.get("count", 1) < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    if args.suite == "levelcount" and params.get("N", 4) < 4:
        raise ValueError(
            f"--N must be >= 4 for --suite levelcount (the smallest critical "
            f"width), got {args.N}")
    results = harness.run_suite(args.suite, **params)
    failed = False
    for res in results:
        status = "pass" if res.passed else "FAIL"
        print(f"{res.name}: {status} ({res.checked} checks)")
        for v in res.violations:
            print(f"  counterexample: {formats.dumps(v)}")
        failed = failed or not res.passed
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "adversary":
            return _cmd_adversary(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except (GridHitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())

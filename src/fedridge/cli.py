"""Command-line entry point: gen / run / verify / report.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments,
3 I/O failure, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .simulate import (
    Scenario,
    UnsupportedVersion,
    dirichlet_partition,
    gen_synthetic,
    events_jsonl,
    initial_round,
    metrics_csv,
    run_scenario,
    schedule_addback,
    schedule_burst,
    schedule_chunked,
    schedule_churn,
    summary_json,
    writer_partition,
)
from .verify import run_properties
from .wire import WireError, read_feature_file, write_feature_file

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INVARIANT = 4

# In double precision any oracle deviation above this is a bug, not a result.
HARD_DEVIATION_CEILING = 1e-6


class _Once(argparse.Action):
    """Store an option's value; a second occurrence is a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} may be given only once")
        setattr(namespace, self.dest, value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedridge")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic feature file and scenario")
    gen.add_argument("--n", type=int, default=5000, help="total samples (80/20 train/test)")
    gen.add_argument("--d", type=int, default=64)
    gen.add_argument("--c", type=int, default=10)
    gen.add_argument("--clients", type=int, default=10)
    gen.add_argument("--alpha", type=float, default=0.3, help="Dirichlet concentration")
    gen.add_argument("--partition", choices=["dirichlet", "writers"], default="dirichlet")
    gen.add_argument("--writers", type=int, default=100)
    gen.add_argument("--separation", type=float, default=3.0)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--gamma", type=float, default=1.0)
    gen.add_argument("--precision", choices=["f32", "f64"], default="f64")
    gen.add_argument("--variant", choices=["A", "B", "both", "approx"], default="both")
    gen.add_argument(
        "--schedule",
        choices=["ingest", "chunked", "burst", "burst-addback", "churn"],
        default="ingest",
    )
    gen.add_argument("--fraction", type=float, default=0.2, help="chunked: fraction per step")
    gen.add_argument("--steps", type=int, default=4, help="chunked: number of steps")
    gen.add_argument("--count", type=int, default=200, help="burst: number of deletions")
    gen.add_argument("--rounds", type=int, default=8, help="churn: number of churn rounds")
    gen.add_argument("--adds-per-round", type=int, default=20)
    gen.add_argument("--dels-per-round", type=int, default=20)
    gen.add_argument("--target-class", type=int, default=None, help="chunked: delete only this class")
    gen.add_argument("--rank", type=int, default=8)
    gen.add_argument("--reset-every", type=int, default=16)
    gen.add_argument("--out-features", default="features.bin")
    gen.add_argument("--out-scenario", default="scenario.json")

    run = sub.add_parser("run", help="replay a scenario")
    run.add_argument("--scenario", action=_Once, required=True, help="scenario JSON")
    run.add_argument("--features", required=True, help="feature file")
    run.add_argument("--out-dir", default=".")

    ver = sub.add_parser("verify", help="run the property suites")
    ver.add_argument("--only", default=None, help="run a single named property")
    ver.add_argument("--tol", type=float, default=None, help="override every tolerance")
    ver.add_argument("--seed", type=int, default=7)

    rep = sub.add_parser("report", help="summarize a finished run")
    rep.add_argument("--summary", required=True)
    rep.add_argument("--metrics", default=None)
    return parser


def _cmd_gen(args) -> int:
    if args.clients < 1:
        print("error: --clients must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.n < 1 or args.d < 1 or args.c < 2:
        print("error: need n >= 1, d >= 1, c >= 2", file=sys.stderr)
        return EXIT_USAGE
    if args.target_class is not None and args.schedule != "chunked":
        print("error: --target-class applies only to --schedule chunked", file=sys.stderr)
        return EXIT_USAGE
    data = gen_synthetic(args.seed, args.n, args.d, args.c, args.separation)
    if args.partition == "dirichlet":
        assignments = dirichlet_partition(
            args.seed, data.classes[: data.n_train], args.clients, args.alpha
        )
        partition = {"kind": "dirichlet", "alpha": args.alpha}
    else:
        assignments = writer_partition(args.seed, data.n_train, args.clients, args.writers)
        partition = {"kind": "writers", "writers": args.writers}
    first = initial_round(assignments)
    if args.schedule == "ingest":
        schedule = [first]
    elif args.schedule == "chunked":
        schedule = [first] + schedule_chunked(
            args.seed,
            assignments,
            args.fraction,
            args.steps,
            classes=data.classes,
            target_class=args.target_class,
        )
    elif args.schedule == "burst":
        schedule = [first] + schedule_burst(args.seed, assignments, args.count)
    elif args.schedule == "burst-addback":
        burst = schedule_burst(args.seed, assignments, args.count)
        schedule = [first] + burst + schedule_addback(burst)
    else:
        schedule = schedule_churn(
            args.seed, assignments, args.rounds, args.adds_per_round, args.dels_per_round
        )
    scenario = Scenario(
        seed=args.seed,
        d=args.d,
        c=args.c,
        clients=args.clients,
        n=args.n,
        n_train=data.n_train,
        gamma=args.gamma,
        precision=args.precision,
        variant=args.variant,
        partition=partition,
        schedule=schedule,
        rank=args.rank,
        reset_every=args.reset_every,
    )
    try:
        write_feature_file(args.out_features, data.features, data.labels, "f32")
        Path(args.out_scenario).write_text(scenario.to_json())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(
        f"wrote features={args.out_features} (n={args.n} d={args.d} c={args.c}) "
        f"scenario={args.out_scenario} (rounds={len(schedule)} clients={args.clients})"
    )
    return EXIT_OK


def _cmd_run(args) -> int:
    try:
        features, labels, _ = read_feature_file(args.features)
        scenario = Scenario.from_json(Path(args.scenario).read_text())
        result = run_scenario(scenario, features, labels)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "metrics.csv").write_text(metrics_csv(result))
        (out_dir / "summary.json").write_text(summary_json(result))
        (out_dir / "events.jsonl").write_text(events_jsonl(scenario))
        # exact rows are A, B and approx reset rows; truncated-add rounds deviate
        # by design until the next reset.  np.max carries a NaN, which fails the
        # `<=` test in either precision; double precision also holds the ceiling.
        worst = np.max(
            [
                m.rel_dev
                for rec in result.records
                for v, m in rec.variants.items()
                if v in ("A", "B") or m.reset
            ],
            initial=0.0,
        )
        ceiling = HARD_DEVIATION_CEILING if scenario.precision == "f64" else math.inf
        if not worst <= ceiling:
            raise AssertionError(
                f"{scenario.precision} oracle deviation {worst:.3e} on an exact row exceeds "
                f"the hard ceiling {ceiling:.0e}; treating as a bug"
            )
    except (OSError, WireError, json.JSONDecodeError, UnsupportedVersion) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TypeError, KeyError) as exc:
        print(f"error: malformed scenario file: {exc}", file=sys.stderr)
        return EXIT_IO
    except (AssertionError, RuntimeError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{args.scenario}: {json.dumps(result.summary, sort_keys=True)}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    failed = 0
    try:
        rows = list(run_properties(seed=args.seed, only=args.only, tol_override=args.tol))
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    for name, ok, measured, tol, description in rows:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: measured={measured:.6e} tolerance={tol:.6e} ({description})")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} of {len(rows)} properties failed")
        return EXIT_VERIFY_FAILED
    print(f"all {len(rows)} properties passed")
    return EXIT_OK


def _malformed(path, problem) -> int:
    print(f"error: malformed file {path}: {problem}", file=sys.stderr)
    return EXIT_IO


def _cmd_report(args) -> int:
    texts = []
    for path in [args.summary] + ([args.metrics] if args.metrics else []):
        try:
            texts.append(Path(path).read_text())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        except ValueError as exc:  # not UTF-8 text
            return _malformed(path, exc)
    try:
        summary = json.loads(texts[0])
    except ValueError as exc:
        return _malformed(args.summary, exc)
    lines = texts[1].strip().splitlines() if args.metrics else []
    if not isinstance(summary, dict):
        return _malformed(args.summary, f"a summary holds a JSON object, not {type(summary).__name__}")
    devs: dict[str, list[float]] = {}
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) >= 3 and cells[2]:
            try:
                devs.setdefault(cells[1], []).append(float(cells[2]))
            except ValueError:
                return _malformed(args.metrics, f"line {number}: {cells[2]!r} is not a number")
    print("run summary")
    for key in sorted(summary):
        print(f"  {key:>20}: {summary[key]}")
    for variant in sorted(devs):
        vals = np.asarray(devs[variant])
        print(
            f"  variant {variant}: rounds={len(vals)} "
            f"median_dev={np.median(vals):.3e} max_dev={vals.max():.3e}"
        )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_report(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

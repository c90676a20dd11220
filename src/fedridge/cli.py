"""Command-line entry point: gen / run / report.

Exit codes: 0 success, 1 an uncaught error, 2 invalid arguments (a
`Scenario` setting or limit, refused before a draw or round 1), 3 I/O
failure, 4 internal invariant violation (the event stream or a served row,
refused by `run_scenario`).  `run` writes its output directory only after
the whole replay has passed, so no exit 2, 3 or 4 leaves one.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .coordinator import APPROX_DEFAULTS
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
from .wire import WireError, read_feature_file, write_feature_file

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INVARIANT = 4

# The `gen` flags that only some schedules, partitions or server variants
# read, with their defaults.  A flag that the chosen schedule, partition or
# variant does not read is refused, never silently dropped.
SCHEDULE_FLAGS = {
    "ingest": {},
    "chunked": {"fraction": 0.2, "steps": 4, "target_class": None},
    "burst": {"count": 200},
    "burst-addback": {"count": 200},
    "churn": {"rounds": 8, "adds_per_round": 20, "dels_per_round": 20},
}
PARTITION_FLAGS = {"dirichlet": {"alpha": 0.3}, "writers": {"writers": 100}}
VARIANT_FLAGS = {"A": {}, "B": {}, "both": {}, "approx": APPROX_DEFAULTS}


class _Once(argparse.Action):
    """Store an option's value; a second occurrence is a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} may be given only once")
        setattr(namespace, self.dest, value)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every `main` call.

    Parsing leaves the parser as it was.  A parser built per call left about
    200 bytes of Python objects alive after each call, so a process that
    calls `main` many times, as the benchmark's replay loop does, grew with
    every call.
    """
    parser = argparse.ArgumentParser(prog="fedridge")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic feature file and scenario")
    gen.add_argument("--n", type=int, default=5000, help="total samples (80/20 train/test)")
    gen.add_argument("--d", type=int, default=64)
    gen.add_argument("--c", type=int, default=10)
    gen.add_argument("--clients", type=int, default=10)
    gen.add_argument("--alpha", type=float, help="dirichlet: concentration (default 0.3)")
    gen.add_argument("--partition", choices=list(PARTITION_FLAGS), default="dirichlet")
    gen.add_argument("--writers", type=int, help="writers: number of writers (default 100)")
    gen.add_argument("--separation", type=float, default=3.0)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--gamma", type=float, default=1.0)
    gen.add_argument("--precision", choices=["f32", "f64"], default="f64")
    gen.add_argument("--variant", choices=list(VARIANT_FLAGS), default="both")
    gen.add_argument("--schedule", choices=list(SCHEDULE_FLAGS), default="ingest")
    gen.add_argument("--fraction", type=float, help="chunked: fraction per step (default 0.2)")
    gen.add_argument("--steps", type=int, help="chunked: number of steps (default 4)")
    gen.add_argument("--count", type=int, help="burst, burst-addback: number of deletions (default 200)")
    gen.add_argument("--rounds", type=int, help="churn: number of churn rounds (default 8)")
    gen.add_argument("--adds-per-round", type=int, help="churn: additions per round (default 20)")
    gen.add_argument("--dels-per-round", type=int, help="churn: deletions per round (default 20)")
    gen.add_argument("--target-class", type=int, help="chunked: delete only this class")
    gen.add_argument("--rank", type=int, help="approx: eigenpairs kept per add round (default 8)")
    gen.add_argument("--reset-every", type=int, help="approx: rebuild every this many rounds (default 16)")
    gen.add_argument("--out-features", default="features.bin")
    gen.add_argument("--out-scenario", default="scenario.json")

    run = sub.add_parser("run", help="replay a scenario")
    run.add_argument("--scenario", action=_Once, required=True, help="scenario JSON")
    run.add_argument("--features", required=True, help="feature file")
    run.add_argument("--out-dir", default=".")

    rep = sub.add_parser("report", help="summarize a finished run")
    rep.add_argument("--summary", required=True)
    rep.add_argument("--metrics", default=None)
    return parser


def _write_both(*outputs) -> None:
    """Write each (path, writer) output to a temporary file beside it, then rename them all;
    a failure removes what was made, so the outputs are written together or not at all.

    An old target is unlinked just before the rename onto it: renaming over a
    large file cost more than unlinking it first, and no atomic replacement
    of the old file is promised."""
    temps = [Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp") for path, _ in outputs]
    made = []
    try:
        for temp, (_, write) in zip(temps, outputs):
            made.append(temp)
            write(temp)
        for temp, (path, _) in zip(temps, outputs):
            Path(path).unlink(missing_ok=True)
            os.replace(temp, path)
            made.append(path)
    except BaseException:
        for path in made:
            with contextlib.suppress(OSError):
                Path(path).unlink()
        raise


def _cmd_gen(args) -> int:
    if Path(args.out_features).resolve() == Path(args.out_scenario).resolve():
        print(f"error: --out-features and --out-scenario name one file, {args.out_scenario}", file=sys.stderr)
        return EXIT_USAGE
    reads = {**SCHEDULE_FLAGS[args.schedule], **PARTITION_FLAGS[args.partition], **VARIANT_FLAGS[args.variant]}
    tables = (("--schedule", SCHEDULE_FLAGS), ("--partition", PARTITION_FLAGS), ("--variant", VARIANT_FLAGS))
    for option, table in tables:
        for name in sorted({name for flags in table.values() for name in flags}):
            if getattr(args, name) is None:
                setattr(args, name, reads.get(name))
            elif name not in reads:
                readers = " or ".join(kind for kind, flags in table.items() if name in flags)
                flag = "--" + name.replace("_", "-")
                print(f"error: {flag} applies only to {option} {readers}", file=sys.stderr)
                return EXIT_USAGE
    partition = {"kind": args.partition, **{name: getattr(args, name) for name in PARTITION_FLAGS[args.partition]}}
    # every setting is checked before the draw; the drawn split and schedule are filled in after it
    settings = Scenario(
        seed=args.seed,
        d=args.d,
        c=args.c,
        clients=args.clients,
        n=args.n,
        n_train=0,
        gamma=args.gamma,
        precision=args.precision,
        variant=args.variant,
        partition=partition,
        schedule=[],
        # other variants keep Scenario's defaults
        **{name: getattr(args, name) for name in VARIANT_FLAGS[args.variant]},
    )
    data = gen_synthetic(args.seed, args.n, args.d, args.c, args.separation)
    if args.partition == "dirichlet":
        assignments = dirichlet_partition(
            args.seed, data.classes[: data.n_train], args.clients, args.alpha
        )
    else:
        assignments = writer_partition(args.seed, data.n_train, args.clients, args.writers)
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
    scenario = dataclasses.replace(settings, n_train=data.n_train, schedule=schedule)
    try:
        _write_both(
            (args.out_features, lambda path: write_feature_file(path, data.features, data.labels, "f32")),
            (args.out_scenario, lambda path: Path(path).write_text(scenario.to_json())),
        )
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
        out_dir = Path(args.out_dir)
        # the output directory is made only after the replay, so a path it cannot be is refused first
        existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
        if not existing.is_dir():
            raise NotADirectoryError(f"--out-dir {out_dir}: {existing} is not a directory")
        features, labels, _ = read_feature_file(args.features)
        scenario = Scenario.from_json(Path(args.scenario).read_text())
        result = run_scenario(scenario, features, labels)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "metrics.csv").write_text(metrics_csv(result))
        (out_dir / "summary.json").write_text(summary_json(result))
        (out_dir / "events.jsonl").write_text(events_jsonl(scenario))
    except (OSError, WireError, json.JSONDecodeError, UnsupportedVersion) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TypeError, KeyError) as exc:
        print(f"error: malformed scenario file: {exc}", file=sys.stderr)
        return EXIT_IO
    except RuntimeError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    print(f"{args.scenario}: {json.dumps(result.summary, sort_keys=True)}")
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
    if not isinstance(summary, dict):
        return _malformed(args.summary, f"a summary holds a JSON object, not {type(summary).__name__}")
    devs: dict[str, list[float]] = {}
    if args.metrics:
        # columns are read by name, so their order and any others do not matter
        rows = csv.DictReader(texts[1].splitlines())
        try:
            for name in ("variant", "rel_dev_vs_oracle"):
                if name not in (rows.fieldnames or ()):
                    return _malformed(args.metrics, f"no {name} column")
            for row in rows:
                variant, cell = row["variant"], row["rel_dev_vs_oracle"]
                if variant is not None and cell:
                    devs.setdefault(variant, []).append(float(cell))
        except csv.Error as exc:
            return _malformed(args.metrics, exc)
        except ValueError:
            return _malformed(args.metrics, f"line {rows.line_num}: {cell!r} is not a number")
    lines = ["run summary", *(f"  {key:>20}: {summary[key]}" for key in sorted(summary))]
    for variant in sorted(devs):
        vals = np.asarray(devs[variant])
        lines.append(
            f"  variant {variant}: rounds={len(vals)} median_dev={np.median(vals):.3e} max_dev={vals.max():.3e}"
        )
    text = "".join(line + "\n" for line in lines)
    try:
        # all or nothing: a summary may hold what stdout cannot encode, such as a lone surrogate escape
        text.encode(sys.stdout.encoding or "utf-8", sys.stdout.errors or "strict")
    except UnicodeEncodeError as exc:
        return _malformed(args.summary, exc)
    sys.stdout.write(text)
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
        return _cmd_report(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

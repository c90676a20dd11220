"""One benchmark run of one workload, in its own process.

Started by run.py with PYTHONPATH pointing at the checkout's `src/` and the
BLAS thread count fixed in the environment.  It

1. sets the workload up from the seed (`fedridge gen`, then reading the
   feature file and the scenario back), several times, timing each;
2. replays the scenario through `fedridge.cli.main(["run", ...])`, the
   same in-process path as the `fedridge run` command, until the time
   budget is spent;
3. gates every replay: exit code 0, every exact round within 1e-8 of the
   retrain oracle, every approx reset round too, `max_kl` within 1e-9 for
   the exact variants, and a `metrics.csv` byte-identical to the first
   replay's;
4. with tracing on, alternates untraced replays with traced ones, whose
   spans give the per-layer metrics and whose aggregated messages are
   round-tripped through real wire frames.

It writes its result as JSON to the path given by --result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import glob
import io
import json
import math
import os
import platform
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from fedridge import cli, coordinator, wire
from fedridge.simulate import Scenario
from fedridge.wire import read_feature_file

from frames import FrameChecker
from speed import REFERENCE_S, SpeedReference
from spans import FLOPS, FRAME_CHECK_SPAN, SPLIT_BY_CALLER, TRACED, Tracer, metric_name
from workloads import WORKLOADS

# Set-up takes 0.03-0.1 s, so it is repeated in blocks of at least 0.5 s
# (and two set-ups), with a speed reference between blocks.
SETUP_BLOCKS = 4
SETUP_BLOCK_S = 0.5
MIN_REPLAYS = 3  # enough for a median and the determinism check
EXACT_TOL = 1e-8  # rel_dev_vs_oracle for A, B and approx reset rounds
KL_TOL = 1e-9  # summary max_kl when an exact variant runs
SPAN_ACCOUNTING_TOL_S = 1e-6

SERVED_BY = {
    "coordinator.run_round_a": "A",
    "coordinator.run_round_b": "B",
    "coordinator.run_round_approx": "approx",
}
VARIANTS = ("A", "B", "approx")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """fedridge.cli.main with its console output captured."""
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        rc = cli.main(argv)
    return rc, log.getvalue()


def setup(workload, seed: int, work: Path) -> tuple[float, list[str], Scenario]:
    """Generate the workload's inputs and read them back; returns (seconds, run flags, scenario)."""
    features = work / "features.bin"
    scenario_path = work / "scenario.json"
    start = perf_counter()
    rc, log = run_cli(
        ["gen", *workload.gen_args, "--seed", str(seed),
         "--out-features", str(features), "--out-scenario", str(scenario_path)]
    )
    if rc != 0:
        raise RuntimeError(f"fedridge gen exited with {rc}: {log.strip()}")
    read_feature_file(features)
    scenario = Scenario.from_json(scenario_path.read_text())
    seconds = perf_counter() - start
    return seconds, ["--scenario", str(scenario_path), "--features", str(features)], scenario


@dataclass
class Replay:
    seconds: float
    rc: int
    log: str
    csv: str | None
    summary: dict | None


def replay(run_flags: list[str], out: Path) -> Replay:
    start = perf_counter()
    rc, log = run_cli(["run", *run_flags, "--out-dir", str(out)])
    seconds = perf_counter() - start
    csv_text = summary = None
    if rc == 0:
        csv_text = (out / "metrics.csv").read_text()
        summary = json.loads((out / "summary.json").read_text())
    shutil.rmtree(out, ignore_errors=True)
    return Replay(seconds, rc, log, csv_text, summary)


def _float(cell: str) -> float:
    return float(cell) if cell else math.nan


class Gate:
    """Correctness gate over every replay; failed rounds count, never vanish."""

    def __init__(self, scenario: Scenario):
        self.variants = ["A", "B"] if scenario.variant == "both" else [scenario.variant]
        self.rows_per_replay = sum(1 for spec in scenario.schedule if spec.events) * len(self.variants)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: Replay | None = None
        self.rows: list[dict] = []  # metrics.csv rows of the first good replay

    def check(self, r: Replay, label: str) -> None:
        self.attempted += self.rows_per_replay
        if r.rc != 0:
            self.failed += self.rows_per_replay
            self.problems.append(f"{label}: fedridge run exited with {r.rc}: {r.log.strip()[-500:]}")
            return
        rows = list(csv.DictReader(io.StringIO(r.csv)))
        bad = max(0, self.rows_per_replay - len(rows))
        if bad:
            self.problems.append(f"{label}: metrics.csv has {len(rows)} rows, expected {self.rows_per_replay}")
        for row in rows:
            dev = _float(row["rel_dev_vs_oracle"])
            gated = row["variant"] in ("A", "B") or row["reset_flag"] == "1"
            if gated and not dev <= EXACT_TOL:
                bad += 1
                self.problems.append(
                    f"{label}: round {row['round']} variant {row['variant']} deviates {dev:.3e} from the oracle"
                )
        max_kl = r.summary.get("max_kl")
        if {"A", "B"} & set(self.variants) and not (max_kl is not None and max_kl <= KL_TOL):
            bad = self.rows_per_replay
            self.problems.append(f"{label}: max_kl {max_kl} exceeds {KL_TOL:.0e}")
        if self.first is None:
            self.first = r
            self.rows = rows
        elif r.csv != self.first.csv:
            bad = self.rows_per_replay
            self.problems.append(f"{label}: metrics.csv differs from the first replay at the same seed")
        self.failed += min(bad, self.rows_per_replay)

    def uplink_bytes(self) -> dict[str, int]:
        summary = self.first.summary if self.first else {}
        return {v: int(summary.get(f"total_bytes_{v}") or 0) for v in self.variants}

    def csv_metrics(self) -> dict[str, float]:
        """Per-layer figures read from the first replay's metrics.csv."""
        b_rows = [r for r in self.rows if r["variant"] == "B"]
        approx_rows = [r for r in self.rows if r["variant"] == "approx"]
        lambdas = [_float(r["lambda_max"]) for r in b_rows if r["lambda_max"]]
        return {
            "coordinator.b_reset_ratio": (
                sum(r["reset_flag"] == "1" for r in b_rows) / len(b_rows) if b_rows else 0.0
            ),
            "inverse.lambda_max_max": max(lambdas, default=0.0),
            # served heads whose bound is infinite and that no reset repaired
            "approx.inf_bound_rounds": sum(
                r["bound"] == "inf" and r["reset_flag"] != "1" for r in approx_rows
            ),
            "approx.worst_rel_dev": max((_float(r["rel_dev_vs_oracle"]) for r in approx_rows), default=0.0),
        }


# ---------------------------------------------------------------------------
# machine facts


def _blas_threads() -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# traced metrics


def _pct_ms(samples: list[float], q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3 if samples else 0.0


def per_round_samples(events: list[tuple[str, float]]):
    """Split the span sequence of one replay into per-round samples.

    Serving a round of one variant is its clients' messages, their
    aggregation and the server update; certifying it is the two posteriors
    and the KL that follow.
    """
    serve = {v: [] for v in VARIANTS}
    certify, oracle = [], []
    pending_serve = pending_posterior = 0.0
    for name, seconds in events:
        if name in ("client.make_round_message", "coordinator.aggregate"):
            pending_serve += seconds
        elif name in SERVED_BY:
            serve[SERVED_BY[name]].append(pending_serve + seconds)
            pending_serve = 0.0
        elif name == "posterior.posterior_from_ledger":
            pending_posterior += seconds
        elif name == "posterior.kl_matrix_normal":
            certify.append(pending_posterior + seconds)
            pending_posterior = 0.0
        elif name == "simulate.oracle_retrain":
            oracle.append(seconds)
    return serve, certify, oracle


@dataclass
class Traced:
    seconds: float
    scale: float  # speed factor, as for the untraced replays
    tracer: Tracer
    frames: FrameChecker


def traced_metrics(traced: list[Traced], untraced_scaled: list[float], gate: Gate) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); per-replay figures are medians."""

    def median_of(get) -> float:
        return float(statistics.median(get(t) for t in traced))

    def span_stat(table: str, name: str, field: str) -> float:
        return median_of(lambda t: getattr(getattr(t.tracer, table).get(name), field, 0))

    metrics: dict[str, tuple[float, str]] = {}
    for module, attr in TRACED:
        fn = metric_name(module, attr)
        metrics[f"{fn}.calls"] = (round(span_stat("stats", fn, "calls")), "count")
        metrics[f"{fn}.self_s"] = (span_stat("stats", fn, "self_s"), "s")
        if fn in FLOPS:
            metrics[f"{fn}.gflop"] = (span_stat("stats", fn, "flop") / 1e9, "Gflop")
        for caller in SPLIT_BY_CALLER.get(fn, ()):
            split = f"{fn}.from_{caller}"
            metrics[f"{split}.calls"] = (round(span_stat("by_caller", split, "calls")), "count")
            metrics[f"{split}.self_s"] = (span_stat("by_caller", split, "self_s"), "s")
    for v in VARIANTS:
        metrics[f"wire.frame_bytes.{v}"] = (median_of(lambda t: t.frames.bytes.get(v, 0)), "bytes")

    serve = {v: [] for v in VARIANTS}
    certify, oracle = [], []
    for t in traced:
        s, c, o = per_round_samples(t.tracer.events)
        for v in VARIANTS:
            serve[v] += s[v]
        certify += c
        oracle += o
    for v in VARIANTS:
        metrics[f"serve.{v}.ms_p50"] = (_pct_ms(serve[v], 50), "ms")
        metrics[f"serve.{v}.ms_p95"] = (_pct_ms(serve[v], 95), "ms")
    metrics["certify.ms_p50"] = (_pct_ms(certify, 50), "ms")
    metrics["oracle.ms_p50"] = (_pct_ms(oracle, 50), "ms")
    csv_units = {
        "coordinator.b_reset_ratio": "ratio",
        "inverse.lambda_max_max": "1",
        "approx.inf_bound_rounds": "count",
        "approx.worst_rel_dev": "ratio",
    }
    metrics.update((name, (value, csv_units[name])) for name, value in gate.csv_metrics().items())

    frame_check = [getattr(t.tracer.stats.get(FRAME_CHECK_SPAN), "total_s", 0.0) for t in traced]
    base = statistics.median(untraced_scaled)
    adjusted = statistics.median((t.seconds - f) * t.scale for t, f in zip(traced, frame_check))
    metrics["trace.replay_s"] = (median_of(lambda t: t.seconds), "s")
    metrics["trace.unspanned_share"] = (
        median_of(lambda t: (t.seconds - t.tracer.top_level_s) / t.seconds),
        "ratio",
    )
    metrics["trace.frame_check_s"] = (float(statistics.median(frame_check)), "s")
    metrics["trace.overhead_share"] = ((adjusted - base) / base, "ratio")
    metrics["trace.absent_functions"] = (len(traced[0].tracer.absent), "count")
    return metrics


def check_traced(t: Traced, label: str) -> list[str]:
    """The spans must account for the traced replay; the frames must match."""
    problems = [f"{label}: {failure}" for failure in t.frames.failures]
    self_sum = sum(rec.self_s for rec in t.tracer.stats.values())
    unspanned = t.seconds - t.tracer.top_level_s
    if unspanned < 0 or abs(self_sum + unspanned - t.seconds) > SPAN_ACCOUNTING_TOL_S:
        problems.append(
            f"{label}: span self times {self_sum:.6f} s plus unspanned {unspanned:.6f} s "
            f"do not add up to the traced replay's {t.seconds:.6f} s"
        )
    return problems


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    work = Path(args.work_dir)
    extra: dict = {"machine": machine_facts()}
    frame_problems: list[str] = []

    speed = SpeedReference()
    refs = [speed.measure()]

    def speed_factor() -> float:
        """Scale for the work timed since the last reference: REFERENCE_S over the mean of the two around it."""
        refs.append(speed.measure())
        return 2 * REFERENCE_S / (refs[-2] + refs[-1])

    setups: list[float] = []
    scaled_setups: list[float] = []
    for _ in range(SETUP_BLOCKS if args.trace == 0 else 1):
        block: list[float] = []
        while not block or (args.trace == 0 and (len(block) < 2 or sum(block) < SETUP_BLOCK_S)):
            seconds, run_flags, scenario = setup(workload, args.seed, work)
            block.append(seconds)
        factor = speed_factor()
        setups += block
        scaled_setups += [t * factor for t in block]
    gate = Gate(scenario)
    untraced_s: list[float] = []
    untraced_scaled: list[float] = []
    traced: list[Traced] = []
    # A cycle is one replay, or an untraced and a traced one, with their
    # speed references; the run stops before a cycle that would likely overrun.
    cycles: list[float] = []
    min_cycles = 1 if args.trace else MIN_REPLAYS
    start = perf_counter()
    while len(cycles) < min_cycles or perf_counter() - start + statistics.median(cycles) <= args.seconds:
        cycle_start = perf_counter()
        r = replay(run_flags, work / "out")
        gate.check(r, f"replay {len(untraced_s) + 1}")
        untraced_s.append(r.seconds)
        untraced_scaled.append(r.seconds * speed_factor())
        if args.trace:
            frames = FrameChecker(wire, coordinator, approx=scenario.variant == "approx")
            with Tracer(after={"coordinator.aggregate": frames}) as tracer:
                r = replay(run_flags, work / "out")
            label = f"traced replay {len(traced) + 1}"
            gate.check(r, label)
            traced.append(Traced(r.seconds, speed_factor(), tracer, frames))
            frame_problems += check_traced(traced[-1], label)
            gate.attempted += frames.messages
            gate.failed += frames.failed_messages
        cycles.append(perf_counter() - cycle_start)

    uplink = gate.uplink_bytes()
    extra["uplink_bytes_by_variant"] = uplink
    extra["machine_speed"] = round(REFERENCE_S / statistics.median(refs), 4)
    extra["reference_s"] = [round(t, 4) for t in refs]
    extra["replays"] = len(untraced_s) + len(traced)
    extra["replay_wall_s"] = [round(t, 4) for t in untraced_s]
    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(scaled_setups), "s"),
            "replay_s": (statistics.median(untraced_scaled), "s"),
            "uplink_bytes": (sum(uplink.values()), "bytes"),
        }
        extra["setup_runs"] = len(setups)
        extra["setup_wall_s"] = round(statistics.median(setups), 5)
        extra.update(gate.csv_metrics())
    else:
        metrics = traced_metrics(traced, untraced_scaled, gate)
        extra["absent_functions"] = traced[0].tracer.absent
    problems = gate.problems + frame_problems
    result = {
        "correct": not problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "extra": extra,
        "problems": problems,
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

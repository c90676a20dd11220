"""Replay benchmark for fedridge.

Run from the root of a fedridge checkout:

    python3 perfbench/run.py --workload churn-d256 --seed 1 --seconds 40 --trace 0

The workload (see workloads.py and README.md) is generated from the seed
with `fedridge gen` and replayed in a fresh child process through the same
in-process path as `fedridge run`, with the BLAS thread count fixed.  Every
replay is checked against the retrain oracle.  With `--trace 0` the run
reports the end-to-end metrics (set-up time, replay time, peak resident
memory of the child, uplink bytes); with `--trace 1` it reports per-layer
spans recorded by wrappers installed from the benchmark's own files.

The output is one line per metric, then one JSON object as the last line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BLAS_THREADS = "1"  # one thread: steadier timings, and results do not depend on the core count
CHILD_TIMEOUT_S = 170
WORK_ROOT = ".perfbench_work"
MAX_PROBLEMS_SHOWN = 20


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description="fedridge replay benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="replay time budget of this run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "fedridge" / "cli.py").is_file():
        print("error: run from the root of a fedridge checkout (src/fedridge not found)", file=sys.stderr)
        return 2
    work_root = root / WORK_ROOT
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        result_path = work / "result.json"
        cmd = [
            sys.executable, str(HERE / "replay.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", str(work), "--result", str(result_path),
        ]
        child = subprocess.Popen(cmd, cwd=root, env=child_env(root))
        try:
            rc = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: the replay process ran over {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if rc != 0 or not result_path.is_file():
            print(f"error: the replay process exited with {rc}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work_root.rmdir()

    metrics = result["metrics"]
    if args.trace == 0:
        # ru_maxrss is in KiB on Linux; the replay process is this process's only child
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kib / 1024, "unit": "MB"}
    extra = result["extra"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {extra['replays']} replays")
    print("machine: " + json.dumps(extra.pop("machine"), sort_keys=True))
    for key, value in sorted(extra.items()):
        print(f"  {key}: {value}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    problems = result["problems"]
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"check failed: {problem}", file=sys.stderr)
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"check failed: ... and {len(problems) - MAX_PROBLEMS_SHOWN} more", file=sys.stderr)
    correct = result["correct"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

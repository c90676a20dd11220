"""The benchmark's named workloads.

Every workload is a closed loop: one process replays one generated scenario
at a time, waiting for each replay to finish before starting the next.  All
three share the same federation shape (n=5000 samples, c=10 classes, 50
clients, Dirichlet alpha=0.3, float64) and differ in the feature width, the
event schedule and the server variant, so that each one stresses a
different layer.  The reasons are repeated in README.md.

This module imports nothing outside the standard library, so the parent
process can validate a workload name without loading numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

_SHAPE = (
    "--n", "5000", "--c", "10", "--clients", "50",
    "--partition", "dirichlet", "--alpha", "0.3", "--precision", "f64",
)


@dataclass(frozen=True)
class Workload:
    name: str
    gen_args: tuple[str, ...]  # `fedridge gen` flags, without --seed and output paths
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "churn-d256",
            _SHAPE + (
                "--d", "256", "--schedule", "churn", "--rounds", "10",
                "--adds-per-round", "50", "--dels-per-round", "50", "--variant", "both",
            ),
            "wide features and many clients per round: client payloads and aggregation dominate, "
            "and it carries the paper's A-vs-B byte ratio",
        ),
        Workload(
            "burst-d64",
            _SHAPE + ("--d", "64", "--schedule", "burst-addback", "--count", "100", "--variant", "both"),
            "201 single-sample delete then add-back rounds: per-round fixed cost, rank-1 SMW steps, "
            "the oracle and the certificate dominate",
        ),
        Workload(
            "approx-d64",
            _SHAPE + (
                "--d", "64", "--schedule", "churn", "--rounds", "12", "--adds-per-round", "50",
                "--dels-per-round", "0", "--variant", "approx", "--rank", "8", "--reset-every", "8",
            ),
            "add-only rounds in approx mode: the only path through truncated adds, "
            "the eigensolver, power iteration and the periodic reset",
        ),
    )
}

"""The benchmark's correctness gate, applied to each of its workloads at small n.

Every workload of `perfbench/workloads.py` is generated with `--n 1500` and
replayed once through `fedridge run`; each replay must pass the gate that
`perfbench/replay.py` applies at full size.  The functions whose spans feed
the benchmark's per-round metrics must still exist in the package.
"""

import csv
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from fedridge.cli import main

EXACT_TOL = 1e-8  # rel_dev_vs_oracle of A, B and approx reset rows
KL_TOL = 1e-9


def _perfbench_module(name: str):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WORKLOADS = _perfbench_module("workloads").WORKLOADS


def test_traced_event_spans_resolve_to_package_callables():
    # the tracer records a vanished function as absent instead of failing, which would
    # silently zero the per-round serve.*, certify and oracle samples built from these spans
    spans = _perfbench_module("spans")
    found = set()
    for module, attr in spans.TRACED:
        name = spans.metric_name(module, attr)
        if name not in spans.EVENT_SPANS:
            continue
        target = importlib.import_module(f"{spans.PACKAGE}.{module}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        assert callable(target), f"traced {module}.{attr} is not a callable in {spans.PACKAGE}"
        found.add(name)
    assert found == spans.EVENT_SPANS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_the_gate_at_small_n(tmp_path, name):
    features, scenario, out = tmp_path / "features.bin", tmp_path / "scenario.json", tmp_path / "out"
    assert main(["gen", *WORKLOADS[name].gen_args, "--n", "1500", "--seed", "1",
                 "--out-features", str(features), "--out-scenario", str(scenario)]) == 0
    assert main(["run", "--scenario", str(scenario), "--features", str(features), "--out-dir", str(out)]) == 0
    rows = list(csv.DictReader((out / "metrics.csv").read_text().splitlines()))
    assert rows
    for row in rows:
        if row["variant"] in ("A", "B") or row["reset_flag"] == "1":
            assert float(row["rel_dev_vs_oracle"]) <= EXACT_TOL, row
        else:  # a truncated approx row serves a head within a finite bound
            assert row["bound"] and math.isfinite(float(row["bound"])), row
    assert json.loads((out / "summary.json").read_text())["max_kl"] <= KL_TOL
    # round 1 folds more than rebuild_rows(d) factor rows, so Variant B serves it by a rebuild
    round_one_b = [row["reset_flag"] for row in rows if row["variant"] == "B" and row["round"] == "1"]
    assert round_one_b == ([] if "approx" in WORKLOADS[name].gen_args else ["1"])

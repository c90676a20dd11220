"""The uplink byte totals of each benchmark workload, counted from its scenario file.

Every workload of `perfbench/workloads.py` is generated with `--n 1500` and
replayed once through `fedridge run`.  Each variant's byte total in
`summary.json` must equal the per-side size formula summed over every add
and delete side the scenario file lists: a full-statistics side of n >= 1
samples carries d(d+1)/2 + dc scalars, and a QR side the upper trapezoid of
its r = min(n, d) row R factor plus its r x c block QᵀY.  A QR side once
carried a dense d x c G in place of QᵀY; B's and approx's totals must stay
strictly below what that older frame would have cost.
"""

import json
import runpy
from pathlib import Path

import pytest

from fedridge.cli import main
from fedridge.simulate import Scenario

WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))["WORKLOADS"]
ITEMSIZE = {"f32": 4, "f64": 8}


def full_scalars(n, d, c):
    return d * (d + 1) // 2 + d * c if n else 0


def qr_scalars(n, d, c):
    r = min(n, d)
    return r * d - r * (r - 1) // 2 + r * c


def dense_g_qr_scalars(n, d, c):
    r = min(n, d)
    return r * d - r * (r - 1) // 2 + d * c if n else 0


def _formula_bytes(scenario: Scenario, formula) -> int:
    sides = [len(ids) for spec in scenario.schedule for ev in spec.events for ids in (ev.add, ev.delete)]
    return ITEMSIZE[scenario.precision] * sum(formula(n, scenario.d, scenario.c) for n in sides)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_summary_bytes_are_the_size_formulas_over_the_scenario(tmp_path, name):
    features, path, out = tmp_path / "features.bin", tmp_path / "scenario.json", tmp_path / "out"
    assert main(["gen", *WORKLOADS[name].gen_args, "--n", "1500", "--seed", "1",
                 "--out-features", str(features), "--out-scenario", str(path)]) == 0
    assert main(["run", "--scenario", str(path), "--features", str(features), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    scenario = Scenario.from_json(path.read_text())
    totals = {v: summary[f"total_bytes_{v}"] for v in ("A", "B", "approx") if f"total_bytes_{v}" in summary}
    served = {"both": {"A", "B"}, "approx": {"approx"}}[scenario.variant]
    assert {v for v, total in totals.items() if total} == served
    for variant in served:
        if variant == "A":
            assert totals["A"] == _formula_bytes(scenario, full_scalars)
        else:
            assert totals[variant] == _formula_bytes(scenario, qr_scalars)
            assert totals[variant] < _formula_bytes(scenario, dense_g_qr_scalars)


@pytest.mark.parametrize("d, c, scalars", [(64, 10, 74), (256, 10, 266), (1024, 10, 1034)])
def test_a_one_sample_qr_side_is_d_plus_c_scalars(d, c, scalars):
    from fedridge.client import variant_b_payload_scalars

    assert variant_b_payload_scalars(1, d, c) == qr_scalars(1, d, c) == d + c == scalars
    assert dense_g_qr_scalars(1, d, c) == d + d * c

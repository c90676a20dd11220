"""CLI surface: gen / run / verify / report, exit codes, determinism."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from fedridge.cli import _build_parser, main
from fedridge.simulate import Scenario, check_schedule, dirichlet_partition, gen_synthetic, writer_partition
from fedridge.verify import PROPERTIES
from fedridge.wire import WireError, read_feature_file, write_feature_file


def _gen(tmp_path, *extra, seed=7):
    features = tmp_path / "features.bin"
    scenario = tmp_path / "scenario.json"
    code = main(
        [
            "gen",
            "--n", "300", "--d", "8", "--c", "3", "--clients", "4",
            "--alpha", "0.5", "--seed", str(seed), "--separation", "2.0",
            "--out-features", str(features), "--out-scenario", str(scenario),
            *extra,
        ]
    )
    assert code == 0
    return features, scenario


def test_gen_writes_both_files(tmp_path, capsys):
    features, scenario = _gen(tmp_path)
    assert features.exists() and scenario.exists()
    out = capsys.readouterr().out
    assert "features" in out and "scenario" in out
    doc = json.loads(scenario.read_text())
    assert doc["clients"] == 4 and doc["d"] == 8


@pytest.mark.parametrize(
    "flags",
    [
        ["--clients", "0"],
        ["--schedule", "burst", "--count", "-1"],
        ["--schedule", "burst-addback", "--count", "-1"],
        ["--schedule", "churn", "--adds-per-round", "-2"],
        ["--schedule", "churn", "--rounds", "-1"],
        ["--schedule", "churn", "--dels-per-round", "-1"],
        ["--alpha", "0"],
        ["--alpha", "nan"],
        ["--alpha", "inf"],
        ["--separation", "nan"],
        ["--separation", "inf"],
        ["--schedule", "chunked", "--target-class", "99"],
        # a target class narrows only a chunked schedule's pool
        ["--target-class", "1"],
        ["--schedule", "burst", "--target-class", "1"],
        ["--schedule", "burst-addback", "--target-class", "1"],
        ["--schedule", "churn", "--target-class", "1"],
        ["--schedule", "chunked", "--fraction", "0.001", "--steps", "4"],
        ["--gamma", "nan"],
        ["--gamma", "inf"],
    ],
    ids="_".join,
)
def test_gen_rejects_zero_clients(tmp_path, flags):
    # each bad number is refused before anything is written, never misread
    features, scenario = tmp_path / "f.bin", tmp_path / "s.json"
    code = main(["gen", "--n", "300", "--d", "8", "--c", "3", "--clients", "4", *flags,
                 "--out-features", str(features), "--out-scenario", str(scenario)])
    assert code == 2
    assert not features.exists() and not scenario.exists()


def test_gen_is_byte_deterministic(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    f1, s1 = _gen(tmp_path / "a", "--schedule", "churn")
    f2, s2 = _gen(tmp_path / "b", "--schedule", "churn")
    assert f1.read_bytes() == f2.read_bytes()
    assert s1.read_text() == s2.read_text()


@pytest.mark.parametrize("partition", ["dirichlet", "writers"])
@pytest.mark.parametrize("schedule", ["ingest", "chunked", "burst", "burst-addback", "churn"])
def test_gen_lists_each_id_under_the_client_the_partition_assigned_it(tmp_path, schedule, partition):
    _, path = _gen(tmp_path, "--schedule", schedule, "--partition", partition)
    scenario = Scenario.from_json(path.read_text())
    data = gen_synthetic(7, 300, 8, 3, 2.0)  # _gen's data
    if partition == "dirichlet":
        parts = dirichlet_partition(7, data.classes[: data.n_train], 4, 0.5)
    else:
        parts = writer_partition(7, data.n_train, 4, 100)
    check_schedule(scenario)  # raises on an invalid stream
    for spec in scenario.schedule:
        clients = [ev.client for ev in spec.events]
        assert clients == sorted(set(clients)), spec.round
        for ev in spec.events:
            assert set(ev.add) | set(ev.delete) <= set(parts[ev.client]), (spec.round, ev.client)
            assert ev.delete == sorted(ev.delete), (spec.round, ev.client)


def test_gen_server_flags_change_only_their_fields(tmp_path):
    # `run` replays a scenario as written; these settings are changed at `gen`
    flags = ["--variant", "approx", "--precision", "f32", "--rank", "3", "--reset-every", "5", "--gamma", "2"]
    (tmp_path / "plain").mkdir()
    (tmp_path / "set").mkdir()
    f1, s1 = _gen(tmp_path / "plain", "--schedule", "churn")
    f2, s2 = _gen(tmp_path / "set", "--schedule", "churn", *flags)
    assert f1.read_bytes() == f2.read_bytes()
    plain, changed = json.loads(s1.read_text()), json.loads(s2.read_text())
    assert plain.keys() == changed.keys()
    assert {k for k in plain if plain[k] != changed[k]} == {"variant", "precision", "rank", "reset_every", "gamma"}
    assert (changed["variant"], changed["precision"], changed["rank"], changed["reset_every"], changed["gamma"]) == (
        "approx", "f32", 3, 5, 2.0)


def test_run_writes_metrics_and_summary(tmp_path, capsys):
    features, scenario = _gen(tmp_path, "--schedule", "churn", "--rounds", "5",
                              "--adds-per-round", "3", "--dels-per-round", "4")
    out_dir = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario), "--features", str(features),
                 "--out-dir", str(out_dir)])
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["final_dev_A"] <= 1e-9
    assert summary["final_dev_B"] <= 1e-8
    assert summary["max_kl"] <= 1e-9
    csv_text = (out_dir / "metrics.csv").read_text()
    assert csv_text.splitlines()[0] == (
        "round,variant,rel_dev_vs_oracle,reset_flag,scalars_sent,bytes_sent,lambda_max,bound,accuracy,kl"
    )
    # every round's accuracy and KL reach the file
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    assert rows and all(0.0 <= float(r[8]) <= 1.0 and 0.0 <= float(r[9]) <= 1e-9 for r in rows)
    events = (out_dir / "events.jsonl").read_text().strip().splitlines()
    first = json.loads(events[0])
    assert set(first) == {"round", "client_id", "op", "sample_ids", "variant"}


def test_run_burst_addback_stays_exact(tmp_path):
    features, scenario = _gen(tmp_path, "--schedule", "burst-addback", "--count", "30")
    out_dir = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario), "--features", str(features),
                 "--out-dir", str(out_dir)])
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["final_dev_A"] <= 1e-9
    assert summary["final_dev_B"] <= 1e-9


def test_run_determinism_byte_identical_csv(tmp_path):
    features, scenario = _gen(tmp_path, "--schedule", "churn", "--rounds", "4",
                              "--adds-per-round", "2", "--dels-per-round", "3")
    for sub in ("r1", "r2"):
        assert main(["run", "--scenario", str(scenario), "--features", str(features),
                     "--out-dir", str(tmp_path / sub)]) == 0
    assert (tmp_path / "r1" / "metrics.csv").read_bytes() == (tmp_path / "r2" / "metrics.csv").read_bytes()


def test_run_approx_summary_has_bound(tmp_path):
    features, scenario = _gen(tmp_path, "--schedule", "churn", "--rounds", "6",
                              "--adds-per-round", "4", "--dels-per-round", "0",
                              "--variant", "approx", "--rank", "2", "--reset-every", "3")
    out_dir = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario), "--features", str(features),
                 "--out-dir", str(out_dir)])
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert "max_bound" in summary and summary["resets"] >= 1
    assert summary["schema_version"] == 3
    rows = [line.split(",") for line in (out_dir / "metrics.csv").read_text().splitlines()[1:]]
    # every truncated round reports a finite bound; reset rounds report none
    assert all(r[7] != "inf" for r in rows) and "inf_bound_rounds" not in summary
    assert all((r[7] == "") == (r[3] == "1") for r in rows)
    assert summary["max_bound"] == max(float(r[7]) for r in rows if r[7])


def test_run_missing_files_exit_3(tmp_path):
    assert main(["run", "--scenario", "nope.json", "--features", "nope.bin"]) == 3
    features, scenario = _gen(tmp_path)
    assert main(["run", "--scenario", "nope.json", "--features", str(features)]) == 3
    bad = tmp_path / "bad.json"
    for text in ('{"not": "a scenario"}', '"x"', "[1, 2]"):
        bad.write_text(text)
        assert main(["run", "--scenario", str(bad), "--features", str(features)]) == 3


@pytest.mark.parametrize("name", [p.name for p in PROPERTIES])
def test_verify_single_property(name, capsys):
    assert main(["verify", "--only", name]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"PASS {name}")


def test_verify_unknown_property():
    assert main(["verify", "--only", "no-such-suite"]) == 2


def test_verify_tolerance_sweep_reports_failures(capsys):
    assert main(["verify", "--only", "kernel-roundtrip", "--tol", "1e-18"]) == 1
    out = capsys.readouterr().out
    assert "FAIL kernel-roundtrip" in out and "measured=" in out


@pytest.mark.parametrize("name", ["retrain-equivalence", "variant-equivalence", "kl-certificate", "kl-floor"])
def test_verify_fails_a_nan_in_the_churn_run(monkeypatch, capsys, name):
    # the NaN sits in the middle, where built-in max and min would drop it
    import dataclasses

    import fedridge.verify as verify_mod

    real = verify_mod._churn_result(7)
    records = list(real.records)
    middle = len(records) // 2
    variants = {v: dataclasses.replace(m, rel_dev=float("nan"), kl=float("nan"))
                for v, m in records[middle].variants.items()}
    records[middle] = dataclasses.replace(records[middle], variants=variants)
    monkeypatch.setattr(verify_mod, "_churn_result", lambda seed: dataclasses.replace(real, records=records))
    assert main(["verify", "--only", name]) == 1
    assert f"FAIL {name}: measured=nan" in capsys.readouterr().out


def _nan(*_):
    return float("nan")


def _nan_eigenvalues(a):
    return [float("nan")] * len(a), None


@pytest.mark.parametrize(
    "name, target, fake",
    [
        ("kernel-roundtrip", "rel_frobenius_dev", _nan),
        ("qr-gram", "rel_frobenius_dev", _nan),
        ("eig-reconstruction", "rel_frobenius_dev", _nan),
        ("eig-orthogonality", "frobenius_norm", _nan),
        ("order-invariance", "rel_frobenius_dev", _nan),
        ("downdate-lemma", "spectral_norm", _nan),
        ("add-delete-roundtrip", "rel_frobenius_dev", _nan),
        ("psd-monotonicity", "symmetric_eig", _nan_eigenvalues),
        ("perturbation-bound", "spectral_norm", _nan),
        ("comm-accounting", "variant_a_payload_scalars", _nan),
    ],
)
def test_verify_fails_a_nan_measurement(monkeypatch, capsys, name, target, fake):
    # built-in max(0.0, nan) is 0.0, so a reduction that starts from 0.0 would pass the NaN
    import fedridge.verify as verify_mod

    monkeypatch.setattr(verify_mod, target, fake)
    assert main(["verify", "--only", name]) == 1
    assert f"FAIL {name}: measured=nan" in capsys.readouterr().out


def test_report_reads_outputs(tmp_path, capsys):
    features, scenario = _gen(tmp_path, "--schedule", "churn", "--rounds", "3",
                              "--adds-per-round", "2", "--dels-per-round", "2")
    out_dir = tmp_path / "out"
    main(["run", "--scenario", str(scenario), "--features", str(features),
          "--out-dir", str(out_dir)])
    capsys.readouterr()
    code = main(["report", "--summary", str(out_dir / "summary.json"),
                 "--metrics", str(out_dir / "metrics.csv")])
    assert code == 0
    out = capsys.readouterr().out
    assert "final_dev_A" in out and "median_dev" in out
    assert main(["report", "--summary", str(tmp_path / "missing.json")]) == 3


@pytest.mark.parametrize("case", ["list-summary", "unparseable-summary", "non-number-cell"])
def test_report_rejects_malformed_files_exit_3(tmp_path, capsys, case):
    summary = tmp_path / "summary.json"
    metrics = tmp_path / "metrics.csv"
    summary.write_text(json.dumps({"resets": 0}))
    metrics.write_text("round,variant,rel_dev_vs_oracle\n1,A,1e-15\n")
    if case == "list-summary":
        summary.write_text("[1, 2]")
        bad = summary
    elif case == "unparseable-summary":
        summary.write_text("{not json")
        bad = summary
    else:
        metrics.write_text("round,variant,rel_dev_vs_oracle\n1,A,1e-15\n2,A,oops\n")
        bad = metrics
    assert main(["report", "--summary", str(summary), "--metrics", str(metrics)]) == 3
    assert f"malformed file {bad}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_train", -5), ("n_train", 400), ("clients", 0),
        ("gamma", -1.0), ("gamma", float("inf")), ("gamma", float("nan")), ("gamma", True),
        ("sigma2", float("nan")), ("sigma2", float("inf")), ("sigma2", True),
        ("rank", -1), ("rank", 0), ("rank", True), ("rank", 2.5), ("reset_every", -1), ("reset_every", 2.5),
        ("seed", "x"), ("d", 8.0), ("clients", 4.0), ("n_train", 240.0),
    ],
)
def test_run_rejects_invalid_scenario_fields_exit_2(tmp_path, field, value):
    features, scenario = _gen(tmp_path)
    doc = json.loads(scenario.read_text())
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(bad), "--features", str(features),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out").exists()


def test_run_rejects_invalid_config(tmp_path):
    # `run` takes its settings from the scenario file only, and one scenario per call
    features, scenario = _gen(tmp_path)
    for flags in (
        ["--precision", "f32"],
        ["--condition-threshold", "1e9"],
        ["--jobs", "2"],
        ["--scenario", str(scenario)],
    ):
        code = main(["run", "--scenario", str(scenario), "--features", str(features),
                     "--out-dir", str(tmp_path / "out"), *flags])
        assert code == 2, flags
    assert not (tmp_path / "out").exists()


def test_run_rejects_version_1_scenarios_exit_3(tmp_path, capsys):
    # version 1 files carried Variant B's reset policy, fixed since version 2; no writer is left
    features, scenario = _gen(tmp_path, "--schedule", "churn", "--rounds", "3",
                              "--adds-per-round", "2", "--dels-per-round", "2")
    doc = json.loads(scenario.read_text())
    assert doc["version"] == 2
    retired = {"audit_every": 32, "drift_threshold": 1e-6, "condition_threshold": 1e8}

    def run(name, **changes):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**doc, **changes}))
        return main(["run", "--scenario", str(path), "--features", str(features), "--out-dir", str(tmp_path / name)])

    assert run("v2") == 0
    capsys.readouterr()
    for name, changes in (("v1", {"version": 1, **retired}), ("v1-bare", {"version": 1}), ("v99", {"version": 99})):
        assert run(name, **changes) == 3, name
        assert "unsupported scenario version" in capsys.readouterr().err
        assert not (tmp_path / name).exists()


def test_run_rejects_a_feature_file_of_another_shape(tmp_path, capsys):
    features, scenario = _gen(tmp_path)
    for flags in (["--d", "6"], ["--c", "4"]):
        other = tmp_path / flags[0][2:]
        other.mkdir()
        wrong, _ = _gen(other, *flags)
        capsys.readouterr()
        code = main(["run", "--scenario", str(scenario), "--features", str(wrong),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2, flags
        assert "scenario says d=8 and c=3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("row, value", [("training", float("nan")), ("test", float("inf"))])
def test_run_refuses_a_non_finite_feature_file_exit_3(tmp_path, capsys, row, value):
    # rows 0..239 are the training split, 240..299 the test split
    features, scenario = _gen(tmp_path)
    x, y, _ = read_feature_file(features)
    x = x.copy()  # the reader's arrays are read-only
    x[0 if row == "training" else 250, 3] = value
    write_feature_file(features, x, y)
    with pytest.raises(WireError, match="non-finite"):
        read_feature_file(features)
    assert main(["run", "--scenario", str(scenario), "--features", str(features),
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# each bad event stream and the words its exit-4 message holds
_BAD_EVENTS = {
    "past-end": "names ids outside the feature file",
    "negative": "names ids outside the feature file",
    "never-added": "names ids outside the feature file",
    "not-retained": "deletes ids client",
    "re-add": "round 1 re-adds retained ids, or adds one id on two clients",
    "repeated-add": "round 1 repeats an id within one client's event",
    "repeated-delete": "round 2 repeats an id within one client's event",
    "cross-client-delete": "round 2 deletes ids client",
    "move-to-a-lower-client": "round 2 re-adds retained ids",
    "move-to-a-higher-client": "round 2 re-adds retained ids",
    "fractional-add": "names an id that is not an integer",
    "fractional-delete": "round 2 names an id that is not an integer",
    "bare-int-add": "round 1 gives ids that are not a list",
    "nested-add": "round 1 names an id that is not an integer",
    "repeated-client": "round 1 lists a client in more than one event",
    "test-split-add": "round 1 adds ids of the test split (n_train=240)",
    "no-training-split": "round 1 adds ids of the test split (n_train=0)",
    "client-past-end": "round 1 names client 4, not an integer in [0, 4)",
    "negative-client": "round 1 names client -1, not an integer in [0, 4)",
    "float-client": "not an integer in [0, 4)",
    "bool-client": "not an integer in [0, 4)",
}


@pytest.mark.parametrize("case, message", _BAD_EVENTS.items(), ids=list(_BAD_EVENTS))
def test_run_bad_event_ids_exit_4(tmp_path, capsys, case, message):
    # the feature file has ids 0..299; ids 240.. are the test split, never added
    features, scenario = _gen(tmp_path)
    doc = json.loads(scenario.read_text())
    events = doc["schedule"][0]["events"]
    first = events[0]["add"][0]  # retained by events[0]'s client from round 1 on
    if case == "past-end":
        events[0]["add"].append(300)
    elif case == "negative":
        events[0]["add"].append(-1)
    elif case == "never-added":
        events[0]["delete"] = [999999]
    elif case == "not-retained":
        events[0]["delete"] = [299]
    elif case == "re-add":  # two clients add the same id in one round
        events[1]["add"].append(first)
    elif case == "repeated-add":
        events[0]["add"].append(first)
    elif case == "repeated-delete":
        doc["schedule"].append({"round": 2, "events": [{"client": events[0]["client"], "add": [], "delete": [first] * 2}]})
    elif case.startswith("move-to-a-"):
        # one round deletes an id from its client and adds it on another: judged at the
        # round's start the add is a re-add, whichever of the two clients is numbered first
        low, high = events[0], events[-1]
        assert low["client"] < high["client"]
        src, dst = (low, high) if case == "move-to-a-higher-client" else (high, low)
        moved = src["add"][0]
        doc["schedule"].append({"round": 2, "events": [
            {"client": src["client"], "add": [], "delete": [moved]},
            {"client": dst["client"], "add": [moved], "delete": []},
        ]})
    elif case == "fractional-add":  # truncates to 250, an id nobody retains
        events[0]["add"].append(250.5)
    elif case == "fractional-delete":  # truncates to an id this client retains
        doc["schedule"].append({"round": 2, "events": [{"client": events[0]["client"], "add": [], "delete": [first + 0.5]}]})
    elif case == "bare-int-add":
        events[0]["add"] = first
    elif case == "nested-add":
        events[0]["add"] = [[first]]
    elif case == "repeated-client":  # one client, two messages in one round
        events.append({"client": events[0]["client"], "add": [], "delete": []})
    elif case == "test-split-add":  # inside the feature file, but a test sample
        events[0]["add"].append(250)
    elif case == "no-training-split":  # every id is a test sample
        doc["n_train"] = 0
    elif case == "client-past-end":  # the scenario has clients 0..3
        events[0]["client"] = 4
    elif case == "negative-client":
        events[0]["client"] = -1
    elif case == "float-client":  # equals its own id, so the repeated-client check does not trip
        events[0]["client"] = float(events[0]["client"])
    elif case == "bool-client":  # likewise
        assert events[0]["client"] in (0, 1)
        events[0]["client"] = bool(events[0]["client"])
    else:  # events[0]'s client retains the id, events[1]'s client deletes it
        other = {"client": events[1]["client"], "add": [], "delete": [first]}
        doc["schedule"].append({"round": 2, "events": [other]})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(bad), "--features", str(features), "--out-dir", str(out)])
    assert code == 4
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_bad_event_in_the_last_round_exits_4_before_any_round_is_served(tmp_path, monkeypatch, capsys):
    features, scenario = _gen(tmp_path, "--schedule", "churn", "--rounds", "4",
                              "--adds-per-round", "3", "--dels-per-round", "3")
    doc = json.loads(scenario.read_text())
    last = doc["schedule"][-1]["events"][0]
    last["delete"].append(299)  # a test sample, never retained
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    import fedridge.coordinator as coordinator_mod
    import fedridge.simulate as simulate_mod

    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(coordinator_mod.Server, "serve")
    counting(simulate_mod, "oracle_retrain")
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(bad), "--features", str(features), "--out-dir", str(out)])
    assert code == 4
    assert f"round {doc['schedule'][-1]['round']} deletes ids client {last['client']} does not retain" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize(
    "case, rounds, bad",
    [
        ("string", [1, "x", 1, 4], "'x'"),  # also repeats round 1
        ("repeat", [1, 2, 2, 4], "2"),
        ("decreasing", [1, 3, 2, 4], "2"),
        ("float", [1, 2.0, 3, 4], "2.0"),
        ("bool", [True, 2, 3, 4], "True"),
    ],
)
def test_run_refuses_round_numbers_that_do_not_increase_exit_4(tmp_path, capsys, case, rounds, bad):
    # rows of different rounds must never share a label in metrics.csv
    features, scenario = _gen(tmp_path, "--schedule", "churn", "--rounds", "3",
                              "--adds-per-round", "2", "--dels-per-round", "2")
    doc = json.loads(scenario.read_text())
    assert [spec["round"] for spec in doc["schedule"]] == [1, 2, 3, 4]
    for spec, number in zip(doc["schedule"], rounds):
        spec["round"] = number
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(bad_file), "--features", str(features), "--out-dir", str(out)])
    assert code == 4
    assert f"round {bad} is not an integer above the round before it" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("variant", ["A", "B"])
def test_run_with_a_ledger_that_is_not_spd_exits_4(tmp_path, capsys, variant):
    # float32, gamma 1e-6 and six rows near 1e4 at d = 4: S + gamma*I does not factor
    rng = np.random.default_rng(0)
    features = tmp_path / "features.bin"
    write_feature_file(features, 1e4 + rng.standard_normal((6, 4)), np.eye(6, 2), "f32")
    doc = {
        "version": 2, "seed": 0, "d": 4, "c": 2, "clients": 1, "n": 6, "n_train": 6, "gamma": 1e-6,
        "precision": "f32", "variant": variant, "partition": {"kind": "dirichlet", "alpha": 0.5},
        "rank": 2, "reset_every": 0, "sigma2": 1.0,
        "schedule": [
            {"round": 1, "events": [{"client": 0, "add": list(range(6)), "delete": []}]},
            {"round": 2, "events": [{"client": 0, "add": [], "delete": list(range(5))}]},
        ],
    }
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(scenario), "--features", str(features),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 4
    assert f"round 1: {variant}'s ledger or state is not SPD" in capsys.readouterr().err


@pytest.mark.parametrize("reset_row, code", [(True, 4), (False, 0)])
def test_run_holds_approx_reset_rows_to_the_ceiling(tmp_path, monkeypatch, reset_row, code):
    # reset rows are served exactly, so a deviation there is a bug; truncated rows may deviate
    import fedridge.cli as cli_mod

    real = cli_mod.run_scenario

    def deviating(*args):
        result = real(*args)
        row = next(r.variants["approx"] for r in result.records if r.variants["approx"].reset == reset_row)
        row.rel_dev = 1e-3
        return result

    monkeypatch.setattr(cli_mod, "run_scenario", deviating)
    features, scenario = _gen(tmp_path, "--schedule", "churn", "--rounds", "6",
                              "--adds-per-round", "4", "--dels-per-round", "0",
                              "--variant", "approx", "--rank", "2", "--reset-every", "3")
    assert main(["run", "--scenario", str(scenario), "--features", str(features),
                 "--out-dir", str(tmp_path / "out")]) == code


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_run_fails_a_nan_on_an_exact_row(tmp_path, monkeypatch, capsys, precision):
    import fedridge.cli as cli_mod

    real = cli_mod.run_scenario

    def nan_row(*args):
        result = real(*args)
        result.records[-1].variants["A"].rel_dev = float("nan")
        return result

    monkeypatch.setattr(cli_mod, "run_scenario", nan_row)
    features, scenario = _gen(tmp_path, "--schedule", "churn", "--rounds", "3", "--precision", precision)
    assert main(["run", "--scenario", str(scenario), "--features", str(features),
                 "--out-dir", str(tmp_path / "out")]) == 4
    assert "nan" in capsys.readouterr().err


@pytest.mark.parametrize("bad_t", ["indefinite", "nan"])
def test_run_exits_4_when_the_served_t_cannot_be_certified(tmp_path, monkeypatch, capsys, bad_t):
    import dataclasses

    import fedridge.coordinator as coordinator_mod

    real = coordinator_mod.run_round_b

    def corrupting(ledger, state, agg):
        ledger, state, w, info = real(ledger, state, agg)
        t = -state.T if bad_t == "indefinite" else np.full_like(state.T, np.nan)
        return ledger, dataclasses.replace(state, T=t), w, info

    monkeypatch.setattr(coordinator_mod, "run_round_b", corrupting)
    features, scenario = _gen(tmp_path, "--schedule", "churn", "--rounds", "3")
    assert main(["run", "--scenario", str(scenario), "--features", str(features),
                 "--out-dir", str(tmp_path / "out")]) == 4
    assert "served T cannot be certified" in capsys.readouterr().err


def test_usage_errors_exit_2():
    assert main(["gen", "--badflag"]) == 2
    assert main([]) == 2


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["fedridge"]:
                yield words[1:]


def test_readme_commands_parse():
    # a removed or renamed flag must not linger in the documented commands
    commands = list(_readme_commands())
    assert {words[0] for words in commands} == {"gen", "run", "verify", "report"}
    for words in commands:
        _build_parser().parse_args(words)

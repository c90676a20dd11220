"""CLI surface: gen / run / verify / report, exit codes, determinism."""

import json

import pytest

from fedridge.cli import main
from fedridge.verify import PROPERTIES


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


def test_gen_rejects_zero_clients(tmp_path):
    code = main(["gen", "--clients", "0", "--out-features", str(tmp_path / "f.bin"),
                 "--out-scenario", str(tmp_path / "s.json")])
    assert code == 2


def test_gen_is_byte_deterministic(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    f1, s1 = _gen(tmp_path / "a", "--schedule", "churn")
    f2, s2 = _gen(tmp_path / "b", "--schedule", "churn")
    assert f1.read_bytes() == f2.read_bytes()
    assert s1.read_text() == s2.read_text()


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
                              "--adds-per-round", "4", "--dels-per-round", "0")
    out_dir = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario), "--features", str(features),
                 "--out-dir", str(out_dir), "--variant", "approx", "--rank", "2",
                 "--reset-every", "3"])
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert "max_bound" in summary and summary["resets"] >= 1
    assert summary["schema_version"] == 2
    rows = [line.split(",") for line in (out_dir / "metrics.csv").read_text().splitlines()[1:]]
    assert summary["inf_bound_rounds"] == sum(r[7] == "inf" and r[3] != "1" for r in rows)


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


def test_run_rejects_invalid_config(tmp_path):
    features, scenario = _gen(tmp_path)
    for flags in (
        ["--gamma", "-1.0"],
        ["--rank", "-1"],
        ["--rank", "0"],
        ["--reset-every", "-1"],
        ["--condition-threshold", "1e9"],
    ):
        code = main(["run", "--scenario", str(scenario), "--features", str(features),
                     "--out-dir", str(tmp_path / "out"), *flags])
        assert code == 2, flags
    assert not (tmp_path / "out").exists()


def test_run_reads_version_1_scenarios(tmp_path, capsys):
    # version 1 files also carried Variant B's reset policy, fixed since version 2
    features, scenario = _gen(tmp_path, "--schedule", "churn", "--rounds", "3",
                              "--adds-per-round", "2", "--dels-per-round", "2")
    doc = json.loads(scenario.read_text())
    assert doc["version"] == 2
    retired = {"audit_every": 32, "drift_threshold": 1e-6, "condition_threshold": 1e8}

    def run(name, **changes):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**doc, **changes}))
        out = tmp_path / name
        code = main(["run", "--scenario", str(path), "--features", str(features), "--out-dir", str(out)])
        return code, out

    code_v2, out_v2 = run("v2")
    code_v1, out_v1 = run("v1", version=1, **retired)
    assert code_v1 == code_v2 == 0
    assert (out_v1 / "metrics.csv").read_bytes() == (out_v2 / "metrics.csv").read_bytes()
    capsys.readouterr()
    assert run("v1-tuned", version=1, **{**retired, "condition_threshold": 1e9})[0] == 2
    assert "condition_threshold" in capsys.readouterr().err
    assert run("v99", version=99)[0] == 3


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


def test_run_rejects_jobs_below_one(tmp_path):
    features, scenario = _gen(tmp_path)
    for jobs in ("0", "-5"):
        code = main(["run", "--scenario", str(scenario), "--scenario", str(scenario),
                     "--features", str(features), "--out-dir", str(tmp_path / "out"), "--jobs", jobs])
        assert code == 2, jobs
    assert not (tmp_path / "out").exists()


def test_run_multiple_scenarios_with_jobs(tmp_path):
    features, s1 = _gen(tmp_path, "--schedule", "churn", "--rounds", "3",
                        "--adds-per-round", "2", "--dels-per-round", "2")
    s2 = tmp_path / "second.json"
    s2.write_text(s1.read_text())
    code = main(["run", "--scenario", str(s1), "--scenario", str(s2),
                 "--features", str(features), "--out-dir", str(tmp_path / "out"),
                 "--jobs", "2"])
    assert code == 0
    assert (tmp_path / "out" / "scenario" / "summary.json").exists()
    assert (tmp_path / "out" / "second" / "summary.json").exists()


def test_run_invalid_event_stream_exit_4(tmp_path):
    features, scenario = _gen(tmp_path)
    doc = json.loads(scenario.read_text())
    doc["schedule"][0]["events"][0]["delete"] = [999999]  # never added
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(bad), "--features", str(features),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 4


@pytest.mark.parametrize(
    "case",
    [
        "past-end", "negative", "not-retained", "re-add", "repeated-add", "repeated-delete",
        "cross-client-delete", "fractional-add", "fractional-delete", "repeated-client",
    ],
)
def test_run_bad_event_ids_exit_4(tmp_path, case):
    # the feature file has ids 0..299; ids 240.. are the test split, never added
    features, scenario = _gen(tmp_path)
    doc = json.loads(scenario.read_text())
    events = doc["schedule"][0]["events"]
    if case == "past-end":
        events[0]["add"].append(300)
    elif case == "negative":
        events[0]["add"].append(-1)
    elif case == "not-retained":
        events[0]["delete"] = [299]
    elif case == "re-add":
        events[1]["add"].append(events[0]["add"][0])
    elif case == "repeated-add":
        events[0]["add"].append(events[0]["add"][0])
    elif case == "repeated-delete":
        twice = [events[0]["add"][0]] * 2
        doc["schedule"].append({"round": 2, "events": [{"client": events[0]["client"], "add": [], "delete": twice}]})
    elif case == "fractional-add":  # truncates to 250, an id nobody retains
        events[0]["add"].append(250.5)
    elif case == "fractional-delete":  # truncates to an id this client retains
        half = [events[0]["add"][0] + 0.5]
        doc["schedule"].append({"round": 2, "events": [{"client": events[0]["client"], "add": [], "delete": half}]})
    elif case == "repeated-client":  # one client, two messages in one round
        events.append({"client": events[0]["client"], "add": [], "delete": []})
    else:  # events[0]'s client retains the id, events[1]'s client deletes it
        other = {"client": events[1]["client"], "add": [], "delete": [events[0]["add"][0]]}
        doc["schedule"].append({"round": 2, "events": [other]})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(bad), "--features", str(features),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 4


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
                              "--adds-per-round", "4", "--dels-per-round", "0")
    assert main(["run", "--scenario", str(scenario), "--features", str(features),
                 "--out-dir", str(tmp_path / "out"), "--variant", "approx", "--rank", "2",
                 "--reset-every", "3"]) == code


def test_usage_errors_exit_2():
    assert main(["gen", "--badflag"]) == 2
    assert main([]) == 2

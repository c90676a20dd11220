"""CLI surface: gen / run / report, exit codes, determinism."""

import contextlib
import dataclasses
import io
import itertools
import json
import os
import re
import runpy
import shlex
import struct
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedridge.cli import PARTITION_FLAGS, SCHEDULE_FLAGS, VARIANT_FLAGS, _build_parser, main
from fedridge.simulate import (
    METRICS_HEADER,
    SCENARIO_VERSION,
    Scenario,
    check_schedule,
    dirichlet_partition,
    gen_synthetic,
    writer_partition,
)
from fedridge.wire import WireError, read_feature_file, write_feature_file


def _gen(tmp_path, *extra, seed=7):
    features = tmp_path / "features.bin"
    scenario = tmp_path / "scenario.json"
    # --alpha is read only by the Dirichlet partition, and gen refuses it beside --partition writers
    alpha = [] if "writers" in extra else ["--alpha", "0.5"]
    code = main(
        [
            "gen",
            "--n", "300", "--d", "8", "--c", "3", "--clients", "4",
            *alpha, "--seed", str(seed), "--separation", "2.0",
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
        # a fraction that is not a finite number in [0, 1], even with no step to take
        ["--schedule", "chunked", "--fraction", "inf", "--steps", "0"],
        ["--schedule", "chunked", "--fraction", "-inf", "--steps", "0"],
        ["--schedule", "chunked", "--fraction", "nan", "--steps", "0"],
        ["--schedule", "chunked", "--fraction", "1e308", "--steps", "0"],
        ["--schedule", "chunked", "--fraction", "2", "--steps", "0"],
        ["--gamma", "nan"],
        ["--gamma", "inf"],
        # positive and finite as a double, but 0 or inf once cast to the scenario's float32
        ["--precision", "f32", "--gamma", "1e-320"],
        ["--precision", "f32", "--gamma", "1e39"],
        # past the u32 fields of the feature file's header, refused before anything is drawn
        ["--n", "4294967296"],
        ["--d", "4294967296"],
        ["--c", "4294967296"],
        ["--n", "0"],
        # past the MAX_DIM = 8192 a message frame may declare: gen wrote frames the wire refuses
        ["--d", "8193"],
        ["--c", "8193"],
        # a bad setting is refused before 100000 x 256 features are drawn, which takes about 0.7 s
        ["--n", "100000", "--d", "256", "--variant", "approx", "--rank", "0"],
        ["--n", "100000", "--d", "256", "--gamma", "nan"],
        ["--n", "100000", "--d", "256", "--precision", "f32", "--gamma", "1e-320"],
        ["--n", "100000", "--d", "256", "--clients", "0"],
    ],
    ids="_".join,
)
def test_gen_rejects_zero_clients(tmp_path, flags):
    # each bad number is refused before anything is written, never misread, and in at most
    # the time of a 300 x 8 draw's checks
    features, scenario = tmp_path / "f.bin", tmp_path / "s.json"
    start = time.perf_counter()
    code = main(["gen", "--n", "300", "--d", "8", "--c", "3", "--clients", "4", *flags,
                 "--out-features", str(features), "--out-scenario", str(scenario)])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert not features.exists() and not scenario.exists()
    assert elapsed < 0.25


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--fraction", "nan", "--count", "-5"], "--count"),
        (["--schedule", "churn", "--fraction", "inf"], "--fraction"),
        (["--partition", "writers", "--alpha", "nan"], "--alpha"),
        (["--partition", "dirichlet", "--writers", "-1"], "--writers"),
        # a valid value is refused too: the flag would be dropped unread
        (["--partition", "writers", "--alpha", "0.3"], "--alpha"),
        (["--schedule", "ingest", "--steps", "4"], "--steps"),
        (["--schedule", "chunked", "--rounds", "2"], "--rounds"),
        (["--schedule", "burst-addback", "--dels-per-round", "3"], "--dels-per-round"),
        (["--schedule", "churn", "--count", "10"], "--count"),
        # only approx mode truncates and resets; other scenarios would carry both values unread
        (["--rank", "5", "--reset-every", "3"], "--rank"),
        (["--variant", "both", "--reset-every", "3"], "--reset-every"),
        (["--variant", "B", "--rank", "8"], "--rank"),
        (["--variant", "A", "--reset-every", "16"], "--reset-every"),
    ],
    ids=lambda v: "_".join(v) if isinstance(v, list) else None,
)
def test_gen_refuses_a_flag_its_schedule_or_partition_does_not_read(tmp_path, capsys, flags, named):
    features, scenario = tmp_path / "f.bin", tmp_path / "s.json"
    code = main(["gen", "--n", "300", "--d", "8", "--c", "3", "--clients", "4", *flags,
                 "--out-features", str(features), "--out-scenario", str(scenario)])
    assert code == 2
    assert not features.exists() and not scenario.exists()
    assert f"error: {named} applies only to" in capsys.readouterr().err


@pytest.mark.parametrize("out_features, out_scenario", [("X", "X"), ("./X", "X"), ("sub/../X", "./X")])
def test_gen_refuses_one_path_for_both_outputs(tmp_path, monkeypatch, capsys, out_features, out_scenario):
    # the scenario used to overwrite the feature file, which `run` then refused as bad magic
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code = main(["gen", "--n", "300", "--d", "8", "--c", "3", "--clients", "4",
                 "--out-features", out_features, "--out-scenario", out_scenario])
    assert code == 2
    assert not (tmp_path / "X").exists()
    assert "name one file" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["features-dir", "scenario-dir", "scenario-is-a-directory",
                                     "features-is-a-directory"])
def test_gen_writes_both_outputs_or_neither(tmp_path, monkeypatch, capsys, missing):
    # the feature file used to be written first and left behind when the scenario could not be
    monkeypatch.chdir(tmp_path)
    out_features = {"features-dir": "nodir/f.bin", "features-is-a-directory": "taken"}.get(missing, "f.bin")
    out_scenario = {"scenario-dir": "nodir/s.json", "scenario-is-a-directory": "taken"}.get(missing, "s.json")
    (tmp_path / "taken").mkdir()
    code = main(["gen", "--n", "300", "--d", "8", "--c", "3", "--clients", "4",
                 "--out-features", out_features, "--out-scenario", out_scenario])
    assert code == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]  # no output and no temporary file
    assert not any((tmp_path / "taken").iterdir())
    assert capsys.readouterr().err.startswith("error: ")


def test_gen_into_the_same_paths_twice_leaves_the_second_run(tmp_path):
    (tmp_path / "fresh").mkdir()
    _gen(tmp_path, "--schedule", "churn", seed=1)
    features, scenario = _gen(tmp_path, "--schedule", "burst", seed=2)
    fresh_features, fresh_scenario = _gen(tmp_path / "fresh", "--schedule", "burst", seed=2)
    assert features.read_bytes() == fresh_features.read_bytes()
    assert scenario.read_bytes() == fresh_scenario.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features.bin", "fresh", "scenario.json"]


def test_gen_refuses_features_that_overflow_float32(tmp_path, capsys, recwarn):
    # the features used to overflow to inf with a RuntimeWarning, and `run` then refused the file
    features, scenario = tmp_path / "f.bin", tmp_path / "s.json"
    code = main(["gen", "--n", "300", "--d", "8", "--c", "3", "--clients", "4", "--separation", "1e308",
                 "--out-features", str(features), "--out-scenario", str(scenario)])
    assert code == 2
    assert not features.exists() and not scenario.exists()
    assert "not finite in float32" in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


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
    # the checked stream is every event, sorted by client, with its int64 ids id for id in file order
    checked = check_schedule(scenario)
    assert [
        (spec.round, [(ev.client, ev.add.tolist(), ev.delete.tolist()) for ev in spec.events]) for spec in checked
    ] == [
        (spec.round, [(ev.client, ev.add, ev.delete) for ev in sorted(spec.events, key=lambda e: e.client)])
        for spec in scenario.schedule
        if spec.events
    ]
    assert {ids.dtype for spec in checked for ev in spec.events for ids in (ev.add, ev.delete)} == {np.dtype(np.int64)}
    for spec in scenario.schedule:
        clients = [ev.client for ev in spec.events]
        assert clients == sorted(set(clients)), spec.round
        for ev in spec.events:
            assert set(ev.add) | set(ev.delete) <= set(parts[ev.client]), (spec.round, ev.client)
            assert ev.delete == sorted(ev.delete), (spec.round, ev.client)


_WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))["WORKLOADS"]
_SMALL_GEN = ["--n", "300", "--d", "8", "--c", "3", "--clients", "4"]
_PARTITION_GEN = {"dirichlet": ["--alpha", "0.5"], "writers": []}
_WRITER_CASES = {name: list(w.gen_args) for name, w in _WORKLOADS.items()} | {
    f"{schedule}-{partition}": [*_SMALL_GEN, *_PARTITION_GEN[partition], "--schedule", schedule, "--partition", partition]
    for schedule in ("ingest", "chunked", "burst", "burst-addback", "churn")
    for partition in ("dirichlet", "writers")
}


@pytest.mark.parametrize("flags", _WRITER_CASES.values(), ids=list(_WRITER_CASES))
def test_scenario_writer_keeps_the_asdict_document(tmp_path, flags):
    # the writer once deep-copied the scenario with dataclasses.asdict; its document is the reference
    for seed in (1, 2, 3):
        features, path = tmp_path / "f.bin", tmp_path / "s.json"
        argv = ["gen", *flags, "--seed", str(seed), "--out-features", str(features), "--out-scenario", str(path)]
        assert main(argv) == 0
        scenario = Scenario.from_json(path.read_text())
        text = scenario.to_json()
        assert text == path.read_text()
        assert text == json.dumps({**dataclasses.asdict(scenario), "version": SCENARIO_VERSION}, sort_keys=True)
        assert Scenario.from_json(text) == scenario


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


# Each `gen` flag's valid values, all small: a churn of 10^9 rounds or 10^9 rows would exhaust memory.
# The sizes also draw 2^32, one past the feature file's u32 fields.
_SMALL = st.integers(0, 50).map(str)
_PAST_U32 = st.just(str(2**32))
_GEN_VALUES = {
    **dict.fromkeys(["--n", "--d"], _SMALL | _PAST_U32),
    "--c": st.integers(2, 10).map(str) | _PAST_U32,
    **dict.fromkeys(["--clients", "--writers", "--steps", "--count", "--rounds", "--adds-per-round",
                     "--dels-per-round", "--rank", "--reset-every", "--seed"], _SMALL),
    "--target-class": st.integers(0, 9).map(str),
    **dict.fromkeys(["--alpha", "--separation", "--gamma"], st.floats(0.01, 50).map(repr)),
    "--fraction": st.floats(0, 1).map(repr),
}
_ODD_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e308", "2.5", "x"]
_GEN_CHOICES = {"--schedule": SCHEDULE_FLAGS, "--partition": PARTITION_FLAGS, "--variant": VARIANT_FLAGS,
                "--precision": {"f32": {}, "f64": {}}}


@st.composite
def _gen_argv(draw):
    """A `gen` argv, and the flags in it that the chosen schedule, partition or variant does not read.

    Each choice is drawn from its choices or left at its default; each flag is given or not, and each
    given value is valid or one of _ODD_VALUES.  Unread flags are drawn rarely, so most argvs reach `gen`.
    """
    defaults = vars(_build_parser().parse_args(["gen"]))
    argv, reads, owned = [], set(), set()
    for flag, table in _GEN_CHOICES.items():
        kind = draw(st.sampled_from([None, *table]))
        argv += [flag, kind] if kind else []
        reads |= set(table[kind or defaults[flag[2:]]])
        owned |= {name for flags in table.values() for name in flags}
    unread = []
    for flag, valid in _GEN_VALUES.items():
        name = flag[2:].replace("-", "_")
        if draw(st.integers(0, 99)) >= (5 if name in owned - reads else 40):
            continue
        unread += [flag] if name in owned - reads else []
        argv += [flag, draw(st.sampled_from(_ODD_VALUES)) if draw(st.integers(0, 99)) < 5 else draw(valid)]
    return argv, unread


def _quiet_main(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(list(argv)), err.getvalue()


@settings(max_examples=120)
@given(drawn=_gen_argv())
def test_gen_exits_0_2_or_3_and_every_output_replays(drawn):
    argv, unread = drawn
    with tempfile.TemporaryDirectory() as tmp:
        features, scenario = os.path.join(tmp, "f.bin"), os.path.join(tmp, "s.json")
        code, err = _quiet_main("gen", *argv, "--out-features", features, "--out-scenario", scenario)  # raises nothing
        assert code in (0, 2, 3), err
        if unread:
            assert code == 2, err
        if code:
            assert not os.listdir(tmp), err  # no output and no temporary file
        else:
            code, err = _quiet_main("run", "--scenario", scenario, "--features", features,
                                    "--out-dir", os.path.join(tmp, "out"))
            assert code == 0, err


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


@pytest.mark.parametrize("out_dir", ["scenario.json", "scenario.json/out"])
def test_run_refuses_an_out_dir_that_cannot_be_a_directory_before_round_1(tmp_path, monkeypatch, capsys, out_dir):
    # the whole scenario used to be replayed before mkdir failed with "File exists"
    import fedridge.cli as cli_mod

    features, scenario = _gen(tmp_path)
    before = sorted(tmp_path.iterdir()), scenario.read_bytes()
    monkeypatch.setattr(cli_mod, "run_scenario", lambda *args: pytest.fail("a round was replayed"))
    assert main(["run", "--scenario", str(scenario), "--features", str(features),
                 "--out-dir", str(tmp_path / out_dir)]) == 3
    assert (sorted(tmp_path.iterdir()), scenario.read_bytes()) == before
    assert "is not a directory" in capsys.readouterr().err


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


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A churn run's directory, its summary.json and metrics.csv bytes, and report's stdout on them."""
    tmp = tmp_path_factory.mktemp("finished")
    features, scenario = _gen(tmp, "--schedule", "churn", "--rounds", "3",
                              "--adds-per-round", "2", "--dels-per-round", "2")
    assert main(["run", "--scenario", str(scenario), "--features", str(features), "--out-dir", str(tmp)]) == 0
    summary, metrics = (tmp / "summary.json").read_bytes(), (tmp / "metrics.csv").read_bytes()
    code, out, _ = _report(tmp, summary, metrics)
    assert code == 0 and "variant A: rounds=4" in out and "variant B: rounds=4" in out
    return tmp, summary, metrics, out


def _report(tmp, summary: bytes, metrics: bytes) -> tuple[int, str, str]:
    """`report`'s exit code, stdout and stderr on these file contents; stdout encodes UTF-8 as a console does."""
    (tmp / "s.json").write_bytes(summary)
    (tmp / "m.csv").write_bytes(metrics)
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", "--summary", str(tmp / "s.json"), "--metrics", str(tmp / "m.csv")])
    out.flush()
    return code, out.buffer.getvalue().decode(), err.getvalue()


def _permuted(metrics: bytes, order) -> bytes:
    return "".join(",".join(line.split(",")[i] for i in order) + "\n" for line in metrics.decode().splitlines()).encode()


def test_repeated_main_calls_share_one_parser(finished_run, monkeypatch):
    # a parser built per call left Python objects alive after each call, so a process calling
    # main many times, as the benchmark's replay loop does, grew with every call
    import argparse

    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    tmp, summary, metrics, out = finished_run  # the fixture has called main already
    for _ in range(3):
        assert _report(tmp, summary, metrics) == (0, out, "")
        # a usage error leaves the shared parser as it was
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["run", "--scenario", "a", "--scenario", "b", "--features", "f"]) == 2
    assert built == [] and _build_parser() is _build_parser()


def test_report_reads_metrics_columns_by_name(finished_run):
    # by position, reversed columns put `bound` where the deviation was and printed no variant line
    tmp, summary, metrics, out = finished_run
    order = list(reversed(range(len(METRICS_HEADER))))
    assert _report(tmp, summary, _permuted(metrics, order)) == (0, out, "")


@pytest.mark.parametrize("header, missing", [("round,variant,kl", "rel_dev_vs_oracle"),
                                             ("round,rel_dev_vs_oracle", "variant")])
def test_report_refuses_metrics_without_a_column_it_reads(finished_run, header, missing):
    # a file headed round,variant,kl used to print its KL values as median_dev, with exit 0
    tmp, summary, _, _ = finished_run
    code, out, err = _report(tmp, summary, f"{header}\n1,A,0.375\n2,B,0.5\n".encode())
    assert code == 3 and not out
    assert f"no {missing} column" in err


def test_report_prints_nothing_of_a_summary_it_cannot_print(finished_run):
    # `print` used to write "run summary", then raise UnicodeEncodeError, which exited 2
    tmp, _, metrics, _ = finished_run
    code, out, err = _report(tmp, b'{"a": "\\ud800", "b": 1}', metrics)
    assert (code, out) == (3, "")
    assert "malformed file" in err and "surrogates not allowed" in err


def _mangled(data: bytes):
    """`data` whole, truncated, with one byte flipped, with a byte that is not UTF-8 put in,
    or with a lone surrogate's JSON escape put in.

    A flip stays within ASCII, so that most flipped files still decode and reach the parsers.
    """
    n = len(data)
    return st.one_of(
        st.just(data),
        st.integers(0, n - 1).map(lambda k: data[:k]),
        st.tuples(st.integers(0, n - 1), st.integers(1, 127)).map(
            lambda t: data[: t[0]] + bytes([data[t[0]] ^ t[1]]) + data[t[0] + 1 :]
        ),
        st.integers(0, n).map(lambda k: data[:k] + b"\xff" + data[k:]),
        st.tuples(st.integers(0, n), st.integers(0xD800, 0xDFFF)).map(
            lambda t: data[: t[0]] + b"\\u%04x" % t[1] + data[t[0] :]
        ),
    )


@settings(max_examples=200)
@given(draw=st.data())
def test_report_exits_0_or_3_on_mangled_files(finished_run, draw):
    tmp, summary, metrics, out = finished_run
    permuted = _permuted(metrics, draw.draw(st.permutations(range(len(METRICS_HEADER)))))
    # one file is mangled at a time, so that a bad summary does not hide the metrics parser
    if draw.draw(st.booleans()):
        mangled_summary, mangled_metrics = draw.draw(_mangled(summary)), permuted
    else:
        mangled_summary, mangled_metrics = summary, draw.draw(_mangled(permuted))
    code, printed, err = _report(tmp, mangled_summary, mangled_metrics)  # raises nothing
    assert code in (0, 3), err
    assert code == 0 or not printed
    if (mangled_summary, mangled_metrics) == (summary, permuted):
        assert (code, printed) == (0, out)


@pytest.fixture(scope="module")
def replayable(tmp_path_factory):
    """A small churn scenario's feature file and scenario file.

    Paths, not contents: hypothesis puts the fixture's repr in a failure's report.
    """
    return _gen(tmp_path_factory.mktemp("replayable"), "--schedule", "churn", "--rounds", "3",
                "--adds-per-round", "2", "--dels-per-round", "2")


# JSON values a mutated field can take: wrong types, bounds, integers past int64 and
# doubles, and numbers that are not finite
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 400), st.text(max_size=2),
    st.sampled_from([2**31, 2**63, 2**64, 10**400, 0.5, 2.0, 1e-320, 1e308, [], {}]),
    st.floats(), st.lists(st.integers(-1, 300), max_size=3),
)


def _doc_paths(node, path=()):
    """Every path into a JSON document, with at most the first two and the last item of a list."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    items = list(items)
    if isinstance(node, list) and len(items) > 3:
        items = items[:2] + items[-1:]
    for key, child in items:
        yield from _doc_paths(child, (*path, key))


@st.composite
def _mutated_doc(draw, doc):
    """`doc` with one to three of its values replaced or removed; half of them are top-level fields."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_doc_paths(doc))
        path = draw(st.sampled_from(paths) | st.sampled_from([p for p in paths if len(p) < 2]))
        if not path:
            return draw(_JSON_VALUES)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if not draw(st.integers(0, 3)):  # a removed field is always exit 3, so one edit in four
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_JSON_VALUES)
    return doc


def _broken_file(data: bytes):
    """`data` whole, truncated, or with one byte of its header or its body flipped."""
    n = len(data)

    def flipped(at):
        return st.tuples(at, st.integers(1, 255)).map(lambda t: data[: t[0]] + bytes([data[t[0]] ^ t[1]]) + data[t[0] + 1 :])

    # the 19-byte header would be flipped about once in 700 draws over the whole file
    return st.one_of(
        st.just(data), st.integers(0, n - 1).map(lambda k: data[:k]), flipped(st.integers(0, 24)), flipped(st.integers(0, n - 1))
    )


@settings(max_examples=150)
@given(draw=st.data())
def test_run_exits_0_2_3_or_4_on_mutated_inputs(replayable, draw):
    doc, features = json.loads(replayable[1].read_text()), replayable[0].read_bytes()
    # one input is mutated at a time, so that a bad scenario does not hide the feature reader
    if draw.draw(st.booleans()):
        scenario_text, feature_bytes = json.dumps(draw.draw(_mutated_doc(doc))), features
    else:
        scenario_text, feature_bytes = json.dumps(doc), draw.draw(_broken_file(features))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("s.json", "f.bin", "out")]
        Path(paths[0]).write_text(scenario_text)
        Path(paths[1]).write_bytes(feature_bytes)
        code, err = _quiet_main("run", "--scenario", paths[0], "--features", paths[1], "--out-dir", paths[2])  # raises nothing
        assert code in (0, 2, 3, 4), err
        if code in (2, 3):
            assert not os.path.exists(paths[2]), err
        if (json.loads(scenario_text), feature_bytes) == (doc, features):
            assert code == 0, err


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_train", -5), ("n_train", 400), ("clients", 0),
        ("gamma", -1.0), ("gamma", float("inf")), ("gamma", float("nan")), ("gamma", True),
        ("rank", -1), ("rank", 0), ("rank", True), ("rank", 2.5), ("reset_every", -1), ("reset_every", 2.5),
        ("seed", "x"), ("d", 8.0), ("clients", 4.0), ("n_train", 240.0),
        # past what a frame header (d, c) or the feature file's header (n) carries; clients have their own test
        ("d", 8193), ("c", 8193), ("n", 2**32), ("n", 0),
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


@pytest.mark.parametrize("clients, code", [(2**32, 0), (2**32 + 1, 2)])
def test_run_bounds_clients_by_a_headers_client_ids(tmp_path, capsys, clients, code):
    # a frame header's u32 client field holds ids up to 2^32 - 1, so a scenario has at most 2^32 clients;
    # 2^33 clients ran, with client ids no frame could carry
    features, scenario = _gen(tmp_path)
    scenario.write_text(json.dumps({**json.loads(scenario.read_text()), "clients": clients}))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--features", str(features), "--out-dir", str(out)]) == code
    assert out.exists() == (code == 0)
    if code:
        assert "need clients in [1, 2^32]" in capsys.readouterr().err


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
    # version 1 files carried Variant B's reset policy, fixed since version 2, and version 2
    # files the posterior's noise scale sigma2, gone since version 3; no writer is left
    features, scenario = _gen(tmp_path, "--schedule", "churn", "--rounds", "3",
                              "--adds-per-round", "2", "--dels-per-round", "2")
    doc = json.loads(scenario.read_text())
    assert doc["version"] == 3 and "sigma2" not in doc
    retired = {"audit_every": 32, "drift_threshold": 1e-6, "condition_threshold": 1e8}

    def run(name, **changes):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**doc, **changes}))
        return main(["run", "--scenario", str(path), "--features", str(features), "--out-dir", str(tmp_path / name)])

    assert run("v3") == 0
    capsys.readouterr()
    for name, changes in (
        ("v1", {"version": 1, **retired}), ("v1-bare", {"version": 1}),
        ("v2", {"version": 2, "sigma2": 1.0}), ("v2-bare", {"version": 2}), ("v99", {"version": 99}),
    ):
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


_FEATURE_HEADER = struct.Struct("<4sHIIIB")


def _overlong_by_a_row(raw, n, d, size):
    """The file with one more feature row in its body than its header declares."""
    split = _FEATURE_HEADER.size + n * d * size
    return raw[:split] + raw[split - d * size : split] + raw[split:]


def _with_header(raw, **fields):
    """The file under a header with some fields changed, and its body cut to what that header declares."""
    magic, version, n, d, c, code = _FEATURE_HEADER.unpack_from(raw)
    header = {"n": n, "d": d, "c": c, **fields}
    end = _FEATURE_HEADER.size + header["n"] * (header["d"] + header["c"]) * code
    return _FEATURE_HEADER.pack(magic, version, header["n"], header["d"], header["c"], code) + raw[
        _FEATURE_HEADER.size : end
    ]


# each feature file whose body is not the size its header declares, or whose header declares
# no column: the first two exited 0, the last two exited 2 mid-run as a shape mismatch
_MISSIZED = {
    "four-trailing-bytes": lambda raw: raw + b"\0" * 4,
    "an-extra-feature-row": lambda raw: _overlong_by_a_row(raw, 300, 8, 4),
    "d-of-0": lambda raw: _with_header(raw, d=0),
    "c-of-0": lambda raw: _with_header(raw, c=0),
}


@pytest.mark.parametrize("case", list(_MISSIZED))
def test_run_refuses_a_feature_file_body_of_another_size_exit_3(tmp_path, capsys, case):
    features, scenario = _gen(tmp_path)
    raw = features.read_bytes()
    assert len(raw) == _FEATURE_HEADER.size + 300 * (8 + 3) * 4
    features.write_bytes(_MISSIZED[case](raw))
    assert main(["run", "--scenario", str(scenario), "--features", str(features),
                 "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert ("implausible dimensions" if case.endswith("-of-0") else "overlong feature file body") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("gamma", [1e-320, 1e39])
def test_run_refuses_a_gamma_out_of_range_for_its_precision_exit_2(tmp_path, capsys, gamma):
    # in float32 the first is 0, and S + gamma*I was not SPD (exit 1); the second is inf (exit 2 mid-run)
    features, scenario = _gen(tmp_path)
    doc = json.loads(scenario.read_text())
    scenario.write_text(json.dumps({**doc, "precision": "f32", "gamma": gamma}))
    assert main(["run", "--scenario", str(scenario), "--features", str(features),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "gamma must be positive and finite in f32" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# each bad event stream and the words its exit-4 message holds, given the id `first` that the
# lowest-numbered client `low` retains from round 1 on and the next client `next`
_BAD_EVENTS = {
    "past-end": "names ids outside the feature file",
    "negative": "names ids outside the feature file",
    "never-added": "names ids outside the feature file",
    "not-retained": "round 1 deletes id 299, which client {low} does not retain",
    "re-add": "round 1 adds id {first} more than once",  # on two clients
    "repeated-add": "round 1 adds id {first} more than once",  # on one client
    "repeated-delete": "round 2 deletes id {first} more than once",  # by one client
    "deleted-by-two-clients": "round 2 deletes id {first} more than once",
    "repeated-re-add": "round 2 adds id {first} more than once",  # the repeat is named first
    "cross-client-delete": "round 2 deletes id {first}, which client {next} does not retain",
    "move-to-a-lower-client": "round 2 re-adds id {moved}, which client {src} retains",
    "move-to-a-higher-client": "round 2 re-adds id {moved}, which client {src} retains",
    "fractional-add": "names an id that is not an integer",
    "bool-add": "round 1 names an id that is not an integer",
    "string-add": "round 1 names an id that is not an integer",
    "null-delete": "round 1 names an id that is not an integer",
    "float-in-a-later-round": "round 2 names an id that is not an integer",
    "beyond-int64-add": "round 1 names ids outside the feature file",
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
    words = {"first": first, "low": events[0]["client"], "next": events[1]["client"]}
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
    elif case == "deleted-by-two-clients":  # one id, the owner's delete and another client's
        doc["schedule"].append({"round": 2, "events": [
            {"client": events[0]["client"], "add": [], "delete": [first]},
            {"client": events[1]["client"], "add": [], "delete": [first]},
        ]})
    elif case == "repeated-re-add":  # the client adds twice an id it already retains
        doc["schedule"].append({"round": 2, "events": [{"client": events[0]["client"], "add": [first] * 2, "delete": []}]})
    elif case.startswith("move-to-a-"):
        # one round deletes an id from its client and adds it on another: judged at the
        # round's start the add is a re-add, whichever of the two clients is numbered first
        low, high = events[0], events[-1]
        assert low["client"] < high["client"]
        src, dst = (low, high) if case == "move-to-a-higher-client" else (high, low)
        moved = src["add"][0]
        words.update(moved=moved, src=src["client"])
        doc["schedule"].append({"round": 2, "events": [
            {"client": src["client"], "add": [], "delete": [moved]},
            {"client": dst["client"], "add": [moved], "delete": []},
        ]})
    elif case == "fractional-add":  # truncates to 250, an id nobody retains
        events[0]["add"].append(250.5)
    elif case == "fractional-delete":  # truncates to an id this client retains
        doc["schedule"].append({"round": 2, "events": [{"client": events[0]["client"], "add": [], "delete": [first + 0.5]}]})
    elif case == "bool-add":  # JSON true
        events[0]["add"].append(True)
    elif case == "string-add":
        events[0]["add"].append(str(first))
    elif case == "null-delete":
        events[0]["delete"] = [None]
    elif case == "float-in-a-later-round":  # a whole float naming an id the client retains
        doc["schedule"].append({"round": 2, "events": [{"client": events[0]["client"], "add": [], "delete": [float(first)]}]})
    elif case == "beyond-int64-add":
        events[0]["add"].append(2**70)
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
    assert message.format(**words) in capsys.readouterr().err
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
    round_ = doc["schedule"][-1]["round"]
    assert f"round {round_} deletes id 299, which client {last['client']} does not retain" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize(
    "case, rounds, bad",
    [
        ("string", [1, "x", 1, 4], "'x'"),  # also repeats round 1
        ("repeat", [1, 2, 2, 4], "2"),
        ("decreasing", [1, 3, 2, 4], "2"),
        ("float", [1, 2.0, 3, 4], "2.0"),
        ("bool", [True, 2, 3, 4], "True"),
        # a frame header's u32 cannot hold these rounds
        ("past-u32", [1, 2**32, 2**32 + 1, 2**32 + 2], str(2**32)),
        ("negative", [-5, 2, 3, 4], "-5"),
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
    assert f"round {bad} is not an integer in [0, 2^32) above the round before it" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("variant", ["A", "B"])
def test_run_with_a_ledger_that_is_not_spd_exits_4(tmp_path, capsys, variant):
    # float32, gamma 1e-6 and six rows near 1e4 at d = 4: S + gamma*I does not factor
    rng = np.random.default_rng(0)
    features = tmp_path / "features.bin"
    write_feature_file(features, 1e4 + rng.standard_normal((6, 4)), np.eye(6, 2), "f32")
    doc = {
        "version": 3, "seed": 0, "d": 4, "c": 2, "clients": 1, "n": 6, "n_train": 6, "gamma": 1e-6,
        "precision": "f32", "variant": variant, "partition": {"kind": "dirichlet", "alpha": 0.5},
        "rank": 2, "reset_every": 0,
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


def test_run_with_a_retrain_that_is_not_spd_exits_4(tmp_path, capsys):
    # 20 samples at d = 64 with gamma 1e-300: the retrain's own S + gamma*I is singular in round 1
    features, scenario = tmp_path / "features.bin", tmp_path / "scenario.json"
    assert main(["gen", "--n", "20", "--d", "64", "--c", "3", "--clients", "2", "--gamma", "1e-300",
                 "--variant", "both", "--out-features", str(features), "--out-scenario", str(scenario)]) == 0
    capsys.readouterr()
    code = main(["run", "--scenario", str(scenario), "--features", str(features),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 4
    assert "round 1: the retrain's S+γI is not SPD" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _serving(monkeypatch, head):
    """`Server.serve` patched to serve `head(server, report, w)` in place of each head `w` it serves;
    the server's ledger round `t` is then the round's number in a schedule numbered from 1."""
    import fedridge.coordinator as coordinator_mod

    real = coordinator_mod.Server.serve

    def serve(self, messages):
        w, report, comm = real(self, messages)
        return head(self, report, w), report, comm

    monkeypatch.setattr(coordinator_mod.Server, "serve", serve)


@pytest.mark.parametrize("reset_row, code", [(True, 4), (False, 0)])
def test_run_holds_approx_reset_rows_to_the_ceiling(tmp_path, monkeypatch, capsys, reset_row, code):
    # reset rows are served exactly, so a deviation there is a bug; truncated rows may deviate
    deviated = []

    def deviating(server, report, w):
        if report.reset != reset_row:
            return w
        deviated.append(server.ledger.t)
        return w * (1 + 1e-3)

    _serving(monkeypatch, deviating)
    features, scenario = _gen(tmp_path, "--schedule", "churn", "--rounds", "6",
                              "--adds-per-round", "4", "--dels-per-round", "0",
                              "--variant", "approx", "--rank", "2", "--reset-every", "3")
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--features", str(features), "--out-dir", str(out)]) == code
    assert deviated and out.exists() == (code == 0)
    if code:
        # the first deviating reset row stops the run, before any later round is served
        assert len(deviated) == 1
        message = f"round {deviated[0]}: approx's exact row deviates by 1.000e-03, above the f64 ceiling 1e-06"
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_run_fails_a_nan_on_an_exact_row(tmp_path, monkeypatch, capsys, precision):
    # a NaN head in A's last round fails the ceiling in either precision; f32 rows are held to inf
    _serving(monkeypatch, lambda server, report, w: np.full_like(w, np.nan) if server.ledger.t == 4 else w)
    features, scenario = _gen(tmp_path, "--schedule", "churn", "--rounds", "3", "--precision", precision)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--features", str(features), "--out-dir", str(out)]) == 4
    ceiling = "1e-06" if precision == "f64" else "inf"
    assert f"round 4: A's exact row deviates by nan, above the {precision} ceiling {ceiling}" in capsys.readouterr().err
    assert not out.exists()


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
    assert main(["verify"]) == 2


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["verify", "--only", "kl-floor"], ["verify", "--tol", "1e-9"], ["verify", "--seed", "7"]],
    ids=["bare", "only", "tol", "seed"],
)
def test_the_property_suite_command_is_a_usage_error(argv, capsys):
    # the properties it ran are tests now; neither the command nor its options parse
    assert main(argv) == 2
    assert "invalid choice: 'verify'" in capsys.readouterr().err


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
    assert {words[0] for words in commands} == {"gen", "run", "report"}
    for words in commands:
        _build_parser().parse_args(words)


def test_readme_lists_the_metrics_columns_of_the_code_in_order():
    # a column added without its line in the README's table fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.split("`metrics.csv` has one row per round and variant", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))[2:]
    names = [re.fullmatch(r"`(\w+)`", row.split("|")[1].strip()).group(1) for row in rows]
    assert names == list(METRICS_HEADER)

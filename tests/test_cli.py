import contextlib
import csv
import hashlib
import io
import json
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from crossflow.cli import (
    RESULT_COLUMNS,
    load_arrivals,
    run_cli,
    summarize,
)
from crossflow.conflicts import VehicleRecord, build_cdg, build_conflict_sets
from crossflow.scenario import default_intersection
from crossflow.simulation import Algorithm, Mode, SimConfig, run, sample_arrivals

from .conftest import DATA, dump_scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]


def cli(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_single_run_csv(self, capsys, tmp_path):
        out = tmp_path / "result.csv"
        code, _, _ = cli(capsys, "run", "--vehicles", "5", "--lambda", "3",
                         "--seed", "2", "--algorithm", "idfst", "--out", str(out))
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert list(rows[0].keys()) == RESULT_COLUMNS
        assert rows[0]["algorithm"] == "idfst"
        assert float(rows[0]["t_attd"]) >= 0.0

    def test_byte_identical_reruns(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = cli(capsys, "run", "--vehicles", "12", "--lambda", "2",
                             "--seed", "5", "--algorithm", "mcc-greedy",
                             "--mode", "online", "--out", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = cli(capsys, "run", "--vehicles", "3", "--seed", "1",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["n"] == 3

    def test_trace_output(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _, _ = cli(capsys, "run", "--vehicles", "2", "--seed", "1",
                         "--trace", str(trace))
        assert code == 0
        header = trace.read_text().splitlines()[0]
        assert header == "step,vehicle,p,v,u,depth"

    def test_dump_schedule_matches_run(self, capsys):
        """``--dump-schedule`` prints, after the result row, the run's depths and parents."""
        code, out, _ = cli(capsys, "run", "--vehicles", "10", "--seed", "4",
                           "--algorithm", "mcc-greedy", "--mode", "online", "--dump-schedule")
        assert code == 0
        doc = yaml.safe_load("".join(out.splitlines(keepends=True)[2:]))  # past header and row
        result = run(SimConfig(scenario=default_intersection(), algorithm=Algorithm.MCC_GREEDY,
                               n_vehicles=10, mean_headway=3.0, seed=4, mode=Mode.ONLINE))
        assert doc["d_all"] == result.metrics.d_all
        assert doc["depth"] == {str(k): v for k, v in result.depths.items()}
        assert doc["parent"] == {str(k): v for k, v in result.parents.items()}

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = cli(capsys, "run", "--vehicles", "2", "--frobnicate")
        assert code == 1
        assert "frobnicate" in err

    def test_invalid_headway_is_usage_error(self, capsys):
        code, _, err = cli(capsys, "run", "--vehicles", "2", "--lambda", "0")
        assert code == 1
        assert "--lambda" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_headway_is_usage_error(self, capsys, value):
        code, out, err = cli(capsys, "run", "--vehicles", "2", "--lambda", value)
        assert code == 1
        assert out == ""
        assert "--lambda" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_nonfinite_leader_start_is_usage_error(self, capsys, command, value):
        code, out, err = cli(capsys, command, "--vehicles", "2", "--leader-start", value)
        assert code == 1
        assert out == ""
        assert "leader_start" in err

    @pytest.mark.parametrize("command,extra", [("run", ()), ("sweep", ()),
                                               ("sweep", ("--jobs", "2"))],
                             ids=["run", "sweep", "sweep-jobs-2"])
    def test_negative_seed_is_usage_error(self, capsys, command, extra):
        code, out, err = cli(capsys, command, "--vehicles", "2", "--seed", "-1", *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "seed" in err

    def test_invalid_rep_count_is_usage_error(self, capsys):
        code, _, err = cli(capsys, "sweep", "--vehicles", "2", "--reps", "0")
        assert code == 1
        assert "--reps" in err

    def test_online_brute_above_cap_is_usage_error(self, capsys):
        code, out, err = cli(capsys, "run", "--algorithm", "mcc-brute", "--mode", "online",
                             "--vehicles", "40", "--lambda", "1", "--seed", "1")
        assert code == 1
        assert out == ""
        assert "mcc-brute" in err and "12" in err

    def test_online_brute_at_cap_runs(self, capsys):
        code, out, _ = cli(capsys, "run", "--algorithm", "mcc-brute", "--mode", "online",
                           "--vehicles", "12", "--lambda", "1", "--seed", "1")
        assert code == 0
        assert next(csv.DictReader(out.splitlines()))["n"] == "12"

    def test_batch_brute_above_cap_stays_size_limit(self, capsys):
        code, _, err = cli(capsys, "run", "--algorithm", "mcc-brute", "--vehicles", "20",
                           "--seed", "1")
        assert code == 2
        assert "capped" in err

    def test_single_vehicle_row(self, capsys):
        code, out, _ = cli(capsys, "run", "--vehicles", "1", "--seed", "8")
        assert code == 0
        row = next(csv.DictReader(out.splitlines()))
        assert float(row["t_attd"]) >= 0.0
        assert row["d_all"] == "1"


class TestSweepCommand:
    def test_matched_arrivals_and_row_count(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = cli(capsys, "sweep", "--algorithms", "dfst,idfst,mcc-greedy",
                         "--vehicles", "8", "--lambda", "3", "--reps", "3",
                         "--seed", "10", "--out", str(out))
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 9
        # within one repetition all algorithms share the seed, hence arrivals
        seeds = {row["seed"] for row in rows}
        assert seeds == {"10", "11", "12"}

    def test_parallel_equals_serial(self, capsys, tmp_path):
        outs = []
        for jobs in ("1", "2"):
            path = tmp_path / f"sweep{jobs}.csv"
            code, _, _ = cli(capsys, "sweep", "--algorithms", "dfst,idfst",
                             "--vehicles", "6", "--lambda", "3", "--reps", "2",
                             "--seed", "3", "--jobs", jobs, "--out", str(path))
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_vehicle_range(self, capsys):
        code, out, _ = cli(capsys, "sweep", "--algorithms", "dfst", "--vehicles", "3-4")
        assert code == 0
        assert [row["n"] for row in csv.DictReader(io.StringIO(out))] == ["3", "4"]

    def test_unknown_algorithm_is_usage_error(self, capsys):
        code, out, err = cli(capsys, "sweep", "--algorithms", "dfst,bogus", "--vehicles", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: --algorithms") and "'bogus'" in err

    def test_online_brute_above_cap_is_usage_error(self, capsys):
        code, out, err = cli(capsys, "sweep", "--algorithms", "dfst,mcc-brute",
                             "--mode", "online", "--vehicles", "8,40", "--lambda", "1")
        assert code == 1
        assert out == ""
        assert "mcc-brute" in err

    def test_batch_brute_above_cap_refused_before_any_cell(self, capsys, tmp_path,
                                                           monkeypatch):
        """The cells under the cap would run first, then the capped one would fail
        and nothing be written; the cap is refused up front instead."""
        import crossflow.cli

        ran = []
        monkeypatch.setattr(crossflow.cli, "_sweep_cell", ran.append)
        out = tmp_path / "sweep.csv"
        code, stdout, err = cli(capsys, "sweep", "--algorithms", "mcc-brute",
                                "--vehicles", "60,13", "--lambda", "3", "--out", str(out))
        assert code == 2
        assert "capped" in err
        assert ran == [] and stdout == "" and not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_nonpositive_jobs_is_usage_error(self, capsys, jobs):
        code, out, err = cli(capsys, "sweep", "--algorithms", "dfst", "--vehicles", "3",
                             "--jobs", jobs)
        assert code == 1
        assert out == ""
        assert "--jobs" in err

    @pytest.mark.parametrize("flag,value", [
        ("--vehicles", "abc"), ("--vehicles", ""), ("--vehicles", "10-5"),
        ("--vehicles", "3,,4"), ("--vehicles", "2-x"), ("--vehicles", "4,6-5"),
        ("--lambda", "x"), ("--lambda", ","),
        ("--lambda", ""), ("--lambda", "nan"), ("--lambda", "3,inf"),
    ])
    @pytest.mark.parametrize("summary", [False, True])
    def test_bad_list_is_usage_error(self, capsys, tmp_path, flag, value, summary):
        """Malformed lists and lists that parse to nothing fail before any run."""
        lists = {"--vehicles": "3", "--lambda": "3", flag: value}
        extra = ["--summary", str(tmp_path / "summary.csv")] if summary else []
        code, out, err = cli(capsys, "sweep", "--algorithms", "dfst",
                             "--vehicles", lists["--vehicles"], "--lambda", lists["--lambda"],
                             *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and flag in err
        assert not (tmp_path / "summary.csv").exists()

    def test_summary_file(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        summary = tmp_path / "summary.csv"
        code, _, _ = cli(capsys, "sweep", "--algorithms", "dfst", "--vehicles", "5",
                         "--reps", "4", "--seed", "1", "--out", str(out),
                         "--summary", str(summary))
        assert code == 0
        stats = list(csv.DictReader(summary.read_text().splitlines()))
        assert stats[0]["reps"] == "4"
        assert "t_evc_mean" in stats[0]


# SHA-256 of the YAML of ``schedule`` on the worked example's arrivals, written
# before the graphs were built once per command; the --dump-graph rows since
# each edge is written in full, not as an alias
EXAMPLE_YAML_GOLDEN = [
    (None, "dfst", False, "9bad5a3eaf264231856e46dc4ed55be941c6bc4a8e959c29f43d88c19dd1fc26"),
    (None, "dfst", True, "30ad64897456339922daffaf0c137773c8675ed668f4f9e5535711613548d42e"),
    (None, "idfst", False, "db3621b3c7c363080ccd87628ea32115f49acd6a86210d56a1eb4eb9c68b1972"),
    (None, "idfst", True, "351ba977e541f1737ca85c8ac2d30dd76c317143af7a223609029522e2ccbd49"),
    (None, "mcc-greedy", False,
     "b19bb810a17eabfefe3b3808e9a5a79b2e129871533290ec82aa09e9e11c8bac"),
    (None, "mcc-greedy", True,
     "74af560afa4bbe77d56c0ebf886ad133be85d2d420e8d74c749ae5cfb621bbaa"),
    ("example1_scenario.yaml", "dfst", False,
     "1e82170cfa5904e76493c337009ed52432ebf8b24744aa8fc49f8a3da7d9ba67"),
    ("example1_scenario.yaml", "dfst", True,
     "394fd8eee0ea7ea98a80b8760cc290406401d0b09294534c99e6dbc36ea4e149"),
    ("example1_scenario.yaml", "idfst", False,
     "eb984e606c9ecb6fa3231dc89244acf2a4e8d133ddd98803d06422bb7d841d1f"),
    ("example1_scenario.yaml", "idfst", True,
     "c7b01f44e816ade0b6a58b0d84342bd76d31c1d717fd757bea5606ff29598ba5"),
    ("example1_scenario.yaml", "mcc-greedy", False,
     "b629b4576fa59a5efb064d212370db5629f657cd8a662b118fffc1142eac7145"),
    ("example1_scenario.yaml", "mcc-greedy", True,
     "92f4c935c5cb00d502c1f128dc1e7a4e301b9d8425263ef239b8d1fb7cf2fbee"),
    ("example1_scenario.yaml", "mcc-brute", False,
     "80a4fe18c3eb6d313210de87c11ad554ec56f718a284da029f582ad6500cc0f5"),
    ("example1_scenario.yaml", "mcc-brute", True,
     "81fa966bae1a111469acaf96f7c2340b3bccd4322e9980965c293a04d8d56238"),
]


class TestScheduleCommand:
    def test_example_idfst_dump(self, capsys):
        code, out, _ = cli(capsys, "schedule",
                           "--arrivals", str(DATA / "example1_arrivals.csv"),
                           "--scenario", str(DATA / "example1_scenario.yaml"),
                           "--algorithm", "idfst")
        assert code == 0
        doc = yaml.safe_load(out)
        assert doc["d_all"] == 4
        assert doc["feasible"] is True
        assert doc["depth"] == {1: 1, 2: 1, 3: 2, 4: 3, 5: 2, 6: 4, 7: 3}

    def test_example_brute_dump(self, capsys):
        code, out, _ = cli(capsys, "schedule",
                           "--arrivals", str(DATA / "example1_arrivals.csv"),
                           "--scenario", str(DATA / "example1_scenario.yaml"),
                           "--algorithm", "mcc-brute")
        assert code == 0
        doc = yaml.safe_load(out)
        assert doc["layers"] == [[1, 3, 5], [4, 7], [2], [6]]

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        args = ["schedule", "--arrivals", str(DATA / "example1_arrivals.csv"),
                "--scenario", str(DATA / "example1_scenario.yaml"),
                "--algorithm", "mcc-greedy", "--dump-graph"]
        code, out, _ = cli(capsys, *args)
        path = tmp_path / "schedule.yaml"
        code_file, out_file, _ = cli(capsys, *args, "--out", str(path))
        assert (code, code_file, out_file) == (0, 0, "")
        assert path.read_bytes() == out.encode()

    def test_graph_dump(self, capsys):
        code, out, _ = cli(capsys, "schedule",
                           "--arrivals", str(DATA / "example1_arrivals.csv"),
                           "--scenario", str(DATA / "example1_scenario.yaml"),
                           "--algorithm", "dfst", "--dump-graph")
        assert code == 0
        doc = yaml.safe_load(out)
        assert [1, 7] in doc["conflict_graph"]["reachability"]
        assert [3, 7] in doc["coexistence_graph"]["edges"]

    def test_missing_arrival_file(self, capsys, tmp_path):
        code, _, err = cli(capsys, "schedule", "--arrivals", str(tmp_path / "no.csv"))
        assert code == 2

    def test_bad_arrival_header(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("vehicle,road,when\n1,1,0.0\n")
        code, _, err = cli(capsys, "schedule", "--arrivals", str(bad))
        assert code == 2
        assert "id,lane,t_in" in err

    @pytest.mark.parametrize("text", ["", "# arrivals\n# none yet\n"])
    def test_arrival_file_without_rows(self, capsys, tmp_path, text):
        empty = tmp_path / "empty.csv"
        empty.write_text(text)
        code, out, err = cli(capsys, "schedule", "--arrivals", str(empty))
        assert code == 2
        assert out == ""
        assert "validation error" in err and "id,lane,t_in" in err

    @pytest.mark.parametrize("rows,needle", [
        ("1,1,0.0\n3,2,0.5\n", "1..2"),
        ("0,1,0.0\n1,2,0.5\n", "1..2"),
        ("1,1,0.0\n1,2,0.5\n", "1..2"),
        ("1,1,nan\n2,2,0.5\n", "t_in"),
        ("1,1,0.0\n2,2,-1.0\n", "t_in"),
        ("1,1,0.0\n2,2,inf\n", "t_in"),
        ("1,x,0.0\n", "bad row"),
        ("1,1,0.0,9\n", "bad row"),
    ])
    @pytest.mark.parametrize("algorithm", ["dfst", "idfst", "mcc-greedy"])
    def test_bad_arrival_rows_exit_2(self, capsys, tmp_path, rows, needle, algorithm):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,lane,t_in\n" + rows)
        code, out, err = cli(capsys, "schedule", "--arrivals", str(bad),
                             "--algorithm", algorithm)
        assert code == 2
        assert out == ""
        assert needle in err

    # the ids leave the digest out, so a re-capture keeps them
    @pytest.mark.parametrize("scenario,algorithm,dump,digest", EXAMPLE_YAML_GOLDEN, ids=[
        f"{'example1' if scenario else 'default'}-{algorithm}{'-dump' if dump else ''}"
        for scenario, algorithm, dump, _ in EXAMPLE_YAML_GOLDEN])
    def test_example_yaml_bytes_pinned(self, capsys, scenario, algorithm, dump, digest):
        argv = ["schedule", "--arrivals", str(DATA / "example1_arrivals.csv"),
                "--algorithm", algorithm]
        if scenario:
            argv += ["--scenario", str(DATA / scenario)]
        if dump:
            argv.append("--dump-graph")
        code, out, _ = cli(capsys, *argv)
        assert code == 0
        assert not re.search(r"[&*]id\d", out)  # no YAML anchors or aliases
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # SHA-256 of the YAML of a sampled fleet with reachability edges (n=200,
    # mean gap 5 s, arrival seed 3); the ids leave the digest out, so a
    # re-capture keeps them
    @pytest.mark.parametrize("algorithm,digest", [
        ("dfst", "e94e7dfd90db165cb33eaf142ea61355ef3fd344a19f05f2ddc3fe34edfe3edc"),
        ("idfst", "52bad1cfeff8ba165786565e3204a4baa760654fa1997455e54e3f07a97ced3c"),
        ("mcc-greedy", "b4f97443d685bcf2fb39d5d023ec83d70de4f83fddaaff72f782a6c9f88b7630"),
    ], ids=["dfst", "idfst", "mcc-greedy"])
    def test_sampled_fleet_yaml_bytes_pinned(self, capsys, tmp_path, algorithm, digest):
        scenario = default_intersection()
        records = sample_arrivals(SimConfig(scenario=scenario, algorithm=Algorithm.DFST,
                                            n_vehicles=200, mean_headway=5.0, seed=3))
        assert build_cdg(build_conflict_sets(records, scenario)).reach_edges
        arrivals = tmp_path / "arrivals.csv"
        arrivals.write_text("id,lane,t_in\n" + "".join(
            f"{r.id},{r.movement},{r.entry_time!r}\n" for r in records))
        code, out, _ = cli(capsys, "schedule", "--arrivals", str(arrivals),
                           "--algorithm", algorithm, "--dump-graph")
        assert code == 0
        assert not re.search(r"[&*]id\d", out)  # no YAML anchors or aliases
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestValidateCommand:
    def test_valid_scenario(self, capsys, tmp_path):
        path = tmp_path / "scn.yaml"
        path.write_text(dump_scenario(default_intersection()))
        code, out, _ = cli(capsys, "validate", str(path))
        assert code == 0
        doc = yaml.safe_load(out)
        assert doc["summary"]["crossing_pairs"] == 24

    def test_invalid_scenario_exit_2(self, capsys, tmp_path):
        doc = yaml.safe_load(dump_scenario(default_intersection()))
        del doc["parameters"]["D_des"]
        path = tmp_path / "scn.yaml"
        path.write_text(yaml.safe_dump(doc))
        code, _, err = cli(capsys, "validate", str(path))
        assert code == 2
        assert "desired_gap" in err

    @pytest.mark.parametrize("section,edit", [
        ("parameters.L_ctrl", lambda doc: doc["parameters"].update(L_ctrl="abc")),
        ("parameters.D_des", lambda doc: doc["parameters"].update(D_des=[1, 2])),
        ("crossing_pairs[0]", lambda doc: doc["crossing_pairs"].__setitem__(0, ["x", 3])),
        ("crossing_pairs[0]", lambda doc: doc["crossing_pairs"].__setitem__(0, [[1], 3])),
        ("movements", lambda doc: doc.update(movements=5)),
        ("movements[0]", lambda doc: doc["movements"][0].update(id=[1])),
        ("legs", lambda doc: doc.update(legs=[["East"]])),
        ("crossing_pairs", lambda doc: doc.update(crossing_pairs=None)),
        ("parameters.L_ctrl", lambda doc: doc["parameters"].update(L_ctrl=float("nan"))),
        ("parameters.dt", lambda doc: doc["parameters"].update(dt=float("nan"))),
        ("parameters.v_0", lambda doc: doc["parameters"].update(v_0=float("inf"))),
        ("movements[0]", lambda doc: doc["movements"][0].update(approach_lane=2.9)),
        ("crossing_pairs[0]", lambda doc: doc["crossing_pairs"].__setitem__(0, [2.7, 3])),
        ("parameters.D_des", lambda doc: doc["parameters"].update(D_des=True)),
    ], ids=["L_ctrl-text", "D_des-list", "pair-text", "pair-list", "movements-int",
            "movement-id-list", "legs-nested", "crossing_pairs-null", "L_ctrl-nan",
            "dt-nan", "v_0-inf", "lane-float", "pair-float", "D_des-bool"])
    def test_malformed_scenario_exit_2(self, capsys, tmp_path, section, edit):
        """A malformed or non-finite document is a validation error naming its
        section, not a traceback, and a run stops on it before simulating."""
        doc = yaml.safe_load((DATA / "example1_scenario.yaml").read_text())
        edit(doc)
        path = tmp_path / "scn.yaml"
        path.write_text(yaml.safe_dump(doc))
        for argv in (["validate", str(path)], ["run", "--scenario", str(path), "--vehicles", "5"]):
            code, _, err = cli(capsys, *argv)
            assert code == 2
            assert err.startswith(f"validation error: {section}")


class TestSummarize:
    def test_statistics(self):
        rows = [
            {"algorithm": "dfst", "n": "9", "lambda": "3.0", "mode": "batch",
             "t_evc": "10", "t_attd": "1", "d_all": str(v)}
            for v in (3, 4, 4, 5)
        ]
        (cell,) = summarize(rows)
        assert cell["d_all_mean"] == pytest.approx(4.0)
        assert cell["d_all_median"] == pytest.approx(4.0)

    def test_singleton_cell(self):
        rows = [{"algorithm": "dfst", "n": "1", "lambda": "3.0", "mode": "batch",
                 "t_evc": "42", "t_attd": "2", "d_all": "1"}]
        (cell,) = summarize(rows)
        assert cell["t_evc_mean"] == cell["t_evc_median"] == 42.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "crossflow.cli", "run", "--vehicles", "2", "--seed", "1"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == ",".join(RESULT_COLUMNS)


@pytest.mark.parametrize("argv", [
    ("validate", "{dir}"),
    ("run", "--vehicles", "2", "--seed", "1", "--out", "{dir}"),
    ("run", "--vehicles", "2", "--seed", "1", "--trace", "{dir}"),
    ("schedule", "--arrivals", "{dir}"),
    ("schedule", "--arrivals", str(DATA / "example1_arrivals.csv"), "--out", "{dir}"),
])
def test_directory_path_exits_2(capsys, tmp_path, argv):
    """A directory where a file is read or written is an ``OSError``: one
    ``error:`` line and exit 2, as for a missing file, not a traceback."""
    code, _, err = cli(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("sweep", "--vehicles", "3", "--out", "{missing}"),
    ("sweep", "--vehicles", "3", "--out", "{new}", "--summary", "{dir}"),
    ("sweep", "--vehicles", "3", "--summary", "{missing}"),
    ("run", "--vehicles", "3", "--trace", "{dir}"),
    ("run", "--vehicles", "3", "--out", "{kept}", "--trace", "{missing}"),
    ("run", "--vehicles", "3", "--out", "{dir}"),
], ids=["sweep-out", "sweep-summary", "sweep-summary-missing", "run-trace", "run-trace-missing",
        "run-out"])
def test_unwritable_output_fails_before_any_run(capsys, tmp_path, monkeypatch, argv):
    """An output path that cannot be written (``--out``, ``--trace``, ``--summary``)
    exits 2 before any run: nothing on stdout, no file created, a file already
    there left as it was."""
    import crossflow.cli

    ran = []
    monkeypatch.setattr(crossflow.cli, "run_simulation", ran.append)
    monkeypatch.setattr(crossflow.cli, "_sweep_cell", ran.append)
    (tmp_path / "dir").mkdir()
    (tmp_path / "kept.csv").write_text("kept\n")
    paths = {"missing": tmp_path / "missing" / "x.csv", "new": tmp_path / "new.csv",
             "dir": tmp_path / "dir", "kept": tmp_path / "kept.csv"}
    code, stdout, err = cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
    assert ran == []
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "kept.csv"]
    assert (tmp_path / "kept.csv").read_text() == "kept\n"


def test_load_arrivals_round_trip():
    loaded = load_arrivals(str(DATA / "example1_arrivals.csv"), 2.0)
    rows = [(1, 1, 0.0), (2, 2, 0.2), (3, 3, 2.0), (4, 4, 2.2), (5, 5, 2.4), (6, 5, 2.6),
            (7, 6, 53.0)]
    assert loaded == [VehicleRecord(id=i, movement=m, entry_time=t, entry_speed=2.0)
                      for i, m, t in rows]


# --- the CLI contract over generated argv -------------------------------------

USAGE, VALIDATION = 1, 2  # the documented exit codes a generated fault may force

# Per subcommand and numeric flag: values that pass, and values that are usage
# errors.  Fleets stay small and ``--jobs`` stays at 1 or 2.
NUMBERS = {
    "run": {
        "--lambda": (["0.5", "3", "20"], ["0", "-1", "nan", "inf", "-inf", "x", ""]),
        "--seed": (["0", "2"], ["-1", "1.5", ""]),
        "--leader-start": (["0", "-5", "600"], ["nan", "inf", "-inf", "x"]),
    },
    "sweep": {
        "--lambda": (["3", "1,20", "2,"], ["0", "-1", "nan", "inf", "", ",", "x"]),
        "--reps": (["1", "2"], ["0", "-1", "nan", ""]),
        "--jobs": (["1", "2"], ["0", "-2", "x"]),
        "--seed": (["1", "0"], ["-1", "x"]),
        "--leader-start": (["0", "600"], ["nan", "inf"]),
    },
}
VEHICLES = {  # required: valid, invalid
    "run": (["1", "3"], ["0", "-2", "nan", "1.5", ""]),
    "sweep": (["1", "2,3", "1-2"], ["0", "-1", "", "3-1", "2,", "nan", "1-x"]),
}
# Per subcommand: its path flags, each an input (a file read) or an output.
PATHS = {
    "validate": {"": "scenario"},
    "run": {"--scenario": "scenario", "--out": "out", "--trace": "out"},
    "schedule": {"--arrivals": "arrivals", "--scenario": "scenario", "--out": "out"},
    "sweep": {"--scenario": "scenario", "--out": "out", "--summary": "out"},
}
REQUIRED = {"validate": "", "schedule": "--arrivals"}


@st.composite
def cli_argv(draw, command: str):
    """An argv of ``command`` with numbers and paths that are valid or not.

    Returns the argv, with paths as (role, kind) for ``_materialize``, and the
    exit codes of the faults it holds: none for a valid argv."""
    argv: list = [command]
    faults: set[int] = set()

    def value(valid, invalid):
        bad = draw(st.sampled_from(range(8))) == 0  # one value in eight is bad
        if bad:
            faults.add(USAGE)
        return draw(st.sampled_from(invalid if bad else valid))

    if command in VEHICLES:
        argv += ["--vehicles", value(*VEHICLES[command])]
    for flag, choices in NUMBERS.get(command, {}).items():
        if draw(st.booleans()):
            argv += [flag, value(*choices)]
    if command in ("run", "schedule"):
        argv += ["--algorithm", draw(st.sampled_from(sorted(a.value for a in Algorithm)))]
    if command == "sweep" and draw(st.booleans()):
        argv += ["--algorithms", value(["dfst,idfst", "mcc-greedy", "mcc-brute,dfst"],
                                       ["bogus", "", "dfst,"])]
    if command in ("run", "sweep"):
        argv += ["--mode", draw(st.sampled_from([m.value for m in Mode]))]
    for flag, role in PATHS[command].items():
        if REQUIRED.get(command) != flag and draw(st.sampled_from(range(4))) == 0:
            continue  # three optional paths in four are given
        kind = draw(st.sampled_from(("fine", "fine", "missing", "dir")))
        if kind != "fine":
            faults.add(VALIDATION)
        argv += [flag, (role, kind)] if flag else [(role, kind)]
    return argv, faults


def _materialize(argv, root: pathlib.Path) -> tuple[list[str], list[pathlib.Path]]:
    """Each (role, kind) of ``cli_argv`` as a path under ``root``: an input that
    is fine is a valid file, an output that is fine a new path, a missing one
    lies in a directory that does not exist, and a dir is a directory.  Also
    returns the outputs that were fine, which must exist only after a success."""
    (root / "dir").mkdir()
    (root / "scenario.yaml").write_text(dump_scenario(default_intersection()))
    (root / "arrivals.csv").write_text("id,lane,t_in\n1,1,0.0\n2,4,0.5\n3,7,1.0\n")
    out, fresh = [], []
    for arg in argv:
        if isinstance(arg, str):
            out.append(arg)
            continue
        role, kind = arg
        if kind == "dir":
            path = root / "dir"
        elif kind == "missing":
            path = root / "missing" / f"{role}.csv"
        elif role == "out":
            path = root / f"out{len(fresh)}.csv"
            fresh.append(path)
        else:
            path = root / ("arrivals.csv" if role == "arrivals" else "scenario.yaml")
        out.append(str(path))
    return out, fresh


@pytest.mark.parametrize("command", sorted(PATHS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_contract_over_generated_argv(command, data):
    """Any argv of valid and invalid numbers and paths exits with a documented
    code (0 ok, 1 usage, 2 validation) that one of its faults calls for, with no
    traceback; on a non-zero exit nothing is on stdout and no file was made."""
    parts, faults = data.draw(cli_argv(command))
    with tempfile.TemporaryDirectory() as tmp:
        argv, outputs = _materialize(parts, pathlib.Path(tmp))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_cli(argv)
        assert "Traceback" not in stderr.getvalue()
        if not faults:
            assert code == 0, (argv, stderr.getvalue())
            assert all(path.exists() for path in outputs)
            return
        assert code in faults, (argv, code, stderr.getvalue())
        assert stdout.getvalue() == ""
        assert stderr.getvalue().count("\n") == 1
        assert not any(path.exists() for path in outputs)
        assert not (pathlib.Path(tmp) / "missing").exists()

import dataclasses
import json
import subprocess
import sys

import pytest

from graft import TransferConfig, read_graph, synthbench
from graft.cli import _make_parser, main


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    rc = main(
        [
            "synth",
            "--n-source", "40",
            "--n-target", "20",
            "--dynamic-factor", "0.1",
            "--maturity", "0.5",
            "--seed", "0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


class TestSynth:
    def test_writes_graphs_and_meta(self, bench_dir):
        for name in ("source.graph", "target_truth.graph", "target_partial.graph", "meta.json"):
            assert (bench_dir / name).is_file()
        gs = read_graph(bench_dir / "source.graph")
        gt = read_graph(bench_dir / "target_truth.graph")
        hat = read_graph(bench_dir / "target_partial.graph")
        assert gs.n == 40 and gt.n == 20 and hat.n == 10
        meta = json.loads((bench_dir / "meta.json").read_text())
        assert meta["spec"]["n_source"] == 40
        assert "measured_dynamic_factor" in meta["measured"]

    def test_deterministic_bytes(self, bench_dir, tmp_path):
        rc = main(
            [
                "synth", "--n-source", "40", "--n-target", "20",
                "--dynamic-factor", "0.1", "--maturity", "0.5",
                "--seed", "0", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        for name in ("source.graph", "target_truth.graph", "target_partial.graph", "meta.json"):
            assert (tmp_path / name).read_bytes() == (bench_dir / name).read_bytes()

    def test_invalid_spec_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--n-source", "10", "--n-target", "20", "--out", str(tmp_path / "bench")])
        assert exc.value.code == 2
        assert "error: n_target" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--n-source", "10", "--n-target", "5", "--seed", "-1",
                  "--out", str(tmp_path / "bench")])
        assert exc.value.code == 2
        assert "error: seed must be a nonnegative integer" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()


class TestIngest:
    def events_file(self, tmp_path):
        lines = [
            json.dumps({"ts": 0, "attrs": {"process": "p1", "file": "f1"}}),
            json.dumps({"ts": 50, "attrs": {"process": "p1", "file": "f2"}}),
            json.dumps({"ts": 120, "attrs": {"process": "p2", "file": "f2"}}),
        ]
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_single_graph(self, tmp_path):
        events = self.events_file(tmp_path)
        out = tmp_path / "g.graph"
        assert main(["ingest", "--events", str(events), "--out", str(out)]) == 0
        g = read_graph(out)
        assert g.n == 4 and g.edge_count == 3

    def test_windowed_snapshots(self, tmp_path):
        events = self.events_file(tmp_path)
        out = tmp_path / "snaps"
        assert main(["ingest", "--events", str(events), "--window", "60", "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["snapshot_0000.graph", "snapshot_0001.graph", "snapshot_0002.graph"]
        last = read_graph(out / "snapshot_0002.graph")
        assert last.edge_count == 3

    def test_missing_file_exits_one(self, tmp_path, capsys):
        rc = main(["ingest", "--events", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "g")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["0", "-5", "x"])
    def test_window_below_one_exits_two(self, tmp_path, capsys, window):
        # the events file does not exist: a usage error is raised before it is read
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--events", str(tmp_path / "nope.jsonl"), "--window", window,
                  "--out", str(tmp_path / "s")])
        assert exc.value.code == 2
        assert "--window: must be a positive integer" in capsys.readouterr().err


class TestTransferCommand:
    def test_round_trip_with_report(self, bench_dir, tmp_path):
        out = tmp_path / "estimate.graph"
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "transfer",
                "--source", str(bench_dir / "source.graph"),
                "--target", str(bench_dir / "target_partial.graph"),
                "--out", str(out),
                "--report", str(report_path),
            ]
        )
        assert rc == 0
        est = read_graph(out)
        hat = read_graph(bench_dir / "target_partial.graph")
        assert set(hat.entity_ids) <= set(est.entity_ids)
        report = json.loads(report_path.read_text())
        assert report["schema"] == "report_v1"
        assert report["config"]["mu"] is None

    def test_deterministic_output_bytes(self, bench_dir, tmp_path):
        args = [
            "transfer",
            "--source", str(bench_dir / "source.graph"),
            "--target", str(bench_dir / "target_partial.graph"),
        ]
        out1, out2 = tmp_path / "a.graph", tmp_path / "b.graph"
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out1), "--report", str(r1)]) == 0
        assert main(args + ["--out", str(out2), "--report", str(r2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert r1.read_bytes() == r2.read_bytes()

    def test_flag_beats_config_file(self, bench_dir, tmp_path):
        cfg = tmp_path / "graft.cfg"
        cfg.write_text("mu = 0.9\nd2 = 4\n")
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "transfer",
                "--source", str(bench_dir / "source.graph"),
                "--target", str(bench_dir / "target_partial.graph"),
                "--config", str(cfg),
                "--mu", "0.2",
                "--out", str(tmp_path / "est.graph"),
                "--report", str(report_path),
            ]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["mu_used"] == 0.2
        assert report["config"]["d2"] == 4

    def test_explicit_auto_mu_overrides_file(self, bench_dir, tmp_path):
        cfg = tmp_path / "graft.cfg"
        cfg.write_text("mu = 0.9\n")
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "transfer",
                "--source", str(bench_dir / "source.graph"),
                "--target", str(bench_dir / "target_partial.graph"),
                "--config", str(cfg),
                "--mu", "auto",
                "--out", str(tmp_path / "est.graph"),
                "--report", str(report_path),
            ]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["mu"] is None
        hat_n = 10
        merged_n = hat_n + len(report["transferred_entities"])
        assert report["mu_used"] == pytest.approx((merged_n - hat_n) / merged_n)

    def test_bad_config_value_exits_two(self, bench_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "transfer",
                    "--source", str(bench_dir / "source.graph"),
                    "--target", str(bench_dir / "target_partial.graph"),
                    "--out", str(tmp_path / "est.graph"),
                    "--d2", "not-a-number",
                ]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize("knob,msg", [
        (["--seed", "-1"], "seed must be a nonnegative integer"),
        (["--d1", "0"], "d1 must be a positive integer"),
        (["--config", "{cfg}"], "d1 must be a positive integer"),
    ], ids=["seed-flag", "d1-flag", "d1-config-file"])
    def test_out_of_range_config_value_exits_two(self, bench_dir, tmp_path, capsys, knob, msg):
        cfg = tmp_path / "graft.cfg"
        cfg.write_text("d1 = 0\n")
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "transfer",
                    "--source", str(bench_dir / "source.graph"),
                    "--target", str(bench_dir / "target_partial.graph"),
                    "--out", str(tmp_path / "est.graph"),
                    *[arg.format(cfg=cfg) for arg in knob],
                ]
            )
        assert exc.value.code == 2
        assert msg in capsys.readouterr().err
        assert not (tmp_path / "est.graph").exists()

    def test_removed_selection_flag_exits_two(self, bench_dir, tmp_path):
        removed = [("--selection-tol", "1e-3"), ("--theta", "2"), ("--distance-cap", "3"), ("--construction-tol", "1e-2")]
        for flag, value in removed:
            with pytest.raises(SystemExit) as exc:
                main(
                    [
                        "transfer",
                        "--source", str(bench_dir / "source.graph"),
                        "--target", str(bench_dir / "target_partial.graph"),
                        "--out", str(tmp_path / "est.graph"),
                        flag, value,
                    ]
                )
            assert exc.value.code == 2

    @pytest.mark.parametrize("command", [
        ["transfer", "--source", "s", "--target", "t", "--out", "o"],
        ["baseline", "--method", "nt", "--target", "t", "--out", "o"],
        ["sweep", "--axis", "mu", "--values", "0.5", "--methods", "nt", "--out", "o"],
    ], ids=lambda c: c[0])
    def test_every_config_field_has_a_flag(self, command):
        parser = _make_parser()
        for field in dataclasses.fields(TransferConfig):
            args = parser.parse_args(command + [f"--{field.name.replace('_', '-')}", "3"])
            assert getattr(args, f"cfg_{field.name}") == 3


class TestBaselineCommand:
    def test_nt_copies_target(self, bench_dir, tmp_path):
        out = tmp_path / "nt.graph"
        rc = main(
            ["baseline", "--method", "nt", "--target", str(bench_dir / "target_partial.graph"), "--out", str(out)]
        )
        assert rc == 0
        assert out.read_bytes() == (bench_dir / "target_partial.graph").read_bytes()

    def test_dt_union(self, bench_dir, tmp_path):
        out = tmp_path / "dt.graph"
        rc = main(
            [
                "baseline", "--method", "dt",
                "--source", str(bench_dir / "source.graph"),
                "--target", str(bench_dir / "target_partial.graph"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert read_graph(out).n == 40

    def test_rw_runs(self, bench_dir, tmp_path):
        out = tmp_path / "rw.graph"
        rc = main(
            [
                "baseline", "--method", "rw",
                "--source", str(bench_dir / "source.graph"),
                "--target", str(bench_dir / "target_partial.graph"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        est = read_graph(out)
        assert set(read_graph(bench_dir / "target_partial.graph").entity_ids) <= set(est.entity_ids)

    def test_dt_without_source_exits_one(self, bench_dir, tmp_path, capsys):
        rc = main(
            ["baseline", "--method", "dt", "--target", str(bench_dir / "target_partial.graph"), "--out", str(tmp_path / "x")]
        )
        assert rc == 1
        assert "requires --source" in capsys.readouterr().err

    @pytest.mark.parametrize("method,rc", [("nt", 0), ("rw", 1)])
    def test_only_rw_reads_the_config_file(self, bench_dir, tmp_path, method, rc):
        broken = tmp_path / "broken.cfg"
        broken.write_text("d1 = 8\nbogus\n")
        args = ["baseline", "--method", method, "--source", str(bench_dir / "source.graph"),
                "--target", str(bench_dir / "target_partial.graph"), "--config", str(broken),
                "--out", str(tmp_path / "est.graph")]
        assert main(args) == rc


class TestEvalCommand:
    def test_perfect_score_on_self(self, bench_dir, capsys):
        truth = str(bench_dir / "target_truth.graph")
        rc = main(["eval", "--estimate", truth, "--truth", truth])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["combined_f1"] == 1.0

    def test_out_file_matches_stdout(self, bench_dir, tmp_path, capsys):
        truth = str(bench_dir / "target_truth.graph")
        out = tmp_path / "score.json"
        rc = main(
            ["eval", "--estimate", str(bench_dir / "target_partial.graph"), "--truth", truth, "--out", str(out)]
        )
        assert rc == 0
        assert out.read_text() == capsys.readouterr().out


class TestSweepCommand:
    def run_sweep(self, out, values="0.1,0.2", methods="nt,dt", seeds="0", extra=()):
        return main(
            [
                "sweep", "--axis", "dynfactor",
                "--values", values,
                "--methods", methods,
                "--seeds", seeds,
                "--out", str(out),
                *extra,
            ]
        )

    def test_csv_layout_and_order(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert self.run_sweep(out, seeds="1,0") == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# sweep_csv v1"
        assert lines[1] == "axis,value,method,seed,entity_f1,edge_f1,combined_f1,status"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 8
        keys = [(float(r[1]), r[2], int(r[3])) for r in rows]
        assert keys == sorted(keys)
        assert all(r[-1] == "ok" for r in rows)
        f1 = float(rows[0][6])
        assert 0.0 <= f1 <= 1.0

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert self.run_sweep(a, values="0.1", methods="nt") == 0
        assert self.run_sweep(b, values="0.1", methods="nt") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_process_pool_writes_the_serial_bytes(self, tmp_path):
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        assert self.run_sweep(serial, seeds="0,1", extra=("--jobs", "1")) == 0
        assert self.run_sweep(pooled, seeds="0,1", extra=("--jobs", "2")) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_two(self, tmp_path, capsys, jobs):
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            self.run_sweep(out, extra=("--jobs", jobs))
        assert exc.value.code == 2
        assert "--jobs: must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_failing_cell_marks_row_and_exit(self, tmp_path):
        out = tmp_path / "sweep.csv"
        # size axis fixes n_target=900; a smaller source must fail
        rc = main(
            ["sweep", "--axis", "size", "--values", "100", "--methods", "nt", "--out", str(out)]
        )
        assert rc == 1
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[2].startswith("size,100,nt,0,,,,error:")

    @pytest.mark.parametrize(
        "axis,config,flags,msg",
        [
            ("dynfactor", "", ["--seed", "9"], "sweep takes seed from --seeds"),
            ("dynfactor", "seed = 0\n", [], "sweep takes seed from --seeds"),
            ("mu", "", ["--mu", "0.3"], "sweep takes mu from the mu axis"),
            ("mu", "mu = auto\n", [], "sweep takes mu from the mu axis"),
        ],
        ids=["seed-flag", "seed-config-file", "mu-flag", "mu-config-file"],
    )
    def test_value_each_cell_sets_exits_two(self, tmp_path, capsys, monkeypatch, axis, config, flags, msg):
        # each cell overwrites seed, and on the mu axis mu, so a value given here would go unread
        monkeypatch.setattr(synthbench, "generate", lambda spec: pytest.fail("an instance was generated"))
        cfg = tmp_path / "graft.cfg"
        cfg.write_text(config)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", axis, "--values", "0.5", "--methods", "nt", "--seeds", "0",
                  "--config", str(cfg), "--out", str(tmp_path / "s.csv"), *flags])
        assert exc.value.code == 2
        assert msg in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_mu_off_the_mu_axis_is_accepted(self, tmp_path):
        out = tmp_path / "s.csv"
        assert self.run_sweep(out, values="0.1", methods="nt", extra=("--mu", "0.3")) == 0
        assert out.read_text().splitlines()[2].endswith(",ok")

    @pytest.mark.parametrize(
        "extra,msg",
        [
            (["--methods", "bogus"], "unknown method"),
            (["--methods", ""], "no methods"),
            (["--seeds", ""], "no seeds"),
            (["--seeds", "0,x"], "bad seeds"),
            (["--values", ""], "no axis values"),
            (["--values", "0.1,high"], "bad axis values"),
        ],
    )
    def test_bad_grid_exits_two(self, tmp_path, capsys, extra, msg):
        args = ["sweep", "--axis", "dynfactor", "--values", "0.1", "--methods", "nt",
                "--seeds", "0", "--out", str(tmp_path / "s.csv")]
        for i in range(0, len(extra), 2):
            idx = args.index(extra[i])
            args[idx + 1] = extra[i + 1]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert msg in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable, "-m", "graft", "synth",
                "--n-source", "10", "--n-target", "5", "--out", str(tmp_path / "b"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "b" / "meta.json").is_file()

    def test_usage_error_is_exit_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "graft", "transfer", "--source", "x"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

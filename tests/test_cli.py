"""Command line behavior and exit codes."""

import pytest

from lbicasim import load_config
from lbicasim.cli import main
from lbicasim.workload import dump_trace, generate

from conftest import SCENARIOS

CONFIG_TEXT = """
cache_blocks = 8
seed = 5
interval_ms = 10
phase1.duration_ms = 50
phase1.rate = 1000
phase1.read_fraction = 0.6
phase1.address = uniform
phase1.working_set = 64
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(CONFIG_TEXT)
    return path


class TestRun:
    def test_successful_run_writes_reports(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out)]) == 0
        assert (out / "intervals.csv").exists()
        assert (out / "summary.csv").exists()
        assert not (out / "events.log").exists()
        printed = capsys.readouterr().out
        assert "requests" in printed
        assert str(out) in printed

    def test_events_flag_adds_the_log(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out), "--events"]) == 0
        assert (out / "events.log").exists()

    def test_quiet_suppresses_the_summary(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_balancer_override_exits_one(self, config_file, tmp_path, capsys):
        code = main(
            ["run", str(config_file), "--out", str(tmp_path / "out"), "--balancer", "bogus"]
        )
        assert code == 1
        assert "balancer" in capsys.readouterr().err

    def test_malformed_trace_exits_one_and_leaves_no_log(self, tmp_path, capsys):
        (tmp_path / "bad.trace").write_text("0,1,1,R\n5,2,1,X\n")
        config = tmp_path / "trace.cfg"
        config.write_text("cache_blocks = 8\ninterval_ms = 10\ntrace = bad.trace\n")
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out), "--events"]) == 1
        assert "line 2" in capsys.readouterr().err
        assert not (out / "events.log").exists()
        assert not out.exists()

    def test_a_trace_drives_the_same_run_as_the_schedule_it_was_dumped_from(self, tmp_path):
        # the generated schedule is filled by row into pre-sized columns, the
        # loaded one grows its columns line by line
        scenario = SCENARIOS["mixed_rw"]
        config = load_config(scenario)
        dump_trace(generate(config.phases, config.seed), tmp_path / "mixed_rw.trace")
        # mixed_rw's own keys (devices, cache, interval, seed), its phases
        # replaced by the trace
        keys = [
            line
            for line in scenario.read_text().splitlines()
            if line.strip() and not line.startswith(("#", "phase"))
        ]
        traced_cfg = tmp_path / "traced.cfg"
        traced_cfg.write_text("\n".join([*keys, "trace = mixed_rw.trace", ""]))
        generated, traced = tmp_path / "generated", tmp_path / "traced"
        for cfg, out in ((scenario, generated), (traced_cfg, traced)):
            assert main(["run", str(cfg), "--out", str(out), "--events", "--quiet"]) == 0

        def body(path):
            header, *rows = path.read_text().splitlines()
            assert header.startswith("# scenario=")
            return rows

        for name in ("intervals.csv", "events.log"):
            assert body(traced / name) == body(generated / name), name
        summaries = [
            [row for row in body(out / "summary.csv") if not row.startswith("scenario,")]
            for out in (generated, traced)
        ]
        assert summaries[0] == summaries[1]
        assert "app_requests,33660" in summaries[0]

    def test_unwritable_output_exits_two(self, config_file, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(["run", str(config_file), "--out", str(blocker / "sub")])
        assert code == 2

    def test_balancer_and_seed_overrides_apply(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["run", str(config_file), "--out", str(out), "--balancer", "lbica", "--seed", "9"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("lbica:")
        summary = (out / "summary.csv").read_text()
        assert "balancer,lbica" in summary
        assert "seed,9" in summary


class TestCompare:
    def test_compare_two_runs(self, config_file, tmp_path, capsys):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(config_file), "--out", str(dir_a), "--quiet"]) == 0
        assert (
            main(
                [
                    "run",
                    str(config_file),
                    "--out",
                    str(dir_b),
                    "--balancer",
                    "lbica",
                    "--quiet",
                ]
            )
            == 0
        )
        assert main(["compare", str(dir_a), str(dir_b)]) == 0
        printed = capsys.readouterr().out
        assert "lbica vs none-wb" in printed
        assert "mean latency" in printed

    def test_mismatched_runs_exit_one(self, config_file, tmp_path, capsys):
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(CONFIG_TEXT.replace("seed = 5", "seed = 6"))
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(config_file), "--out", str(dir_a), "--quiet"]) == 0
        assert main(["run", str(other_cfg), "--out", str(dir_b), "--quiet"]) == 0
        assert main(["compare", str(dir_a), str(dir_b)]) == 1
        assert "scenario mismatch" in capsys.readouterr().err

    def test_missing_run_directory_exits_two(self, tmp_path, capsys):
        code = main(["compare", str(tmp_path / "a"), str(tmp_path / "b")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

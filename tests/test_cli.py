"""Tests for the command-line interface."""

import subprocess
import sys

import pytest

from repro.cli import main


class TestGenerate:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        assert main(["generate", "--dist", "I1", "-n", "50", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x_low,y_low,x_high,y_high"
        assert len(lines) == 51

    def test_deterministic_with_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--dist", "R2", "-n", "30", "--seed", "7", "-o", str(a)])
        main(["generate", "--dist", "R2", "-n", "30", "--seed", "7", "-o", str(b)])
        assert a.read_text() == b.read_text()

    def test_unknown_dist_rejected(self):
        with pytest.raises(SystemExit):
            main(["generate", "--dist", "Z9", "-n", "10", "-o", "x.csv"])


class TestExperiment:
    def test_from_distribution(self, capsys):
        assert (
            main(
                [
                    "experiment",
                    "--dist",
                    "I1",
                    "-n",
                    "300",
                    "--queries",
                    "3",
                    "--index",
                    "R-Tree",
                    "--no-report",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "log10(QAR)" in out
        assert "R-Tree" in out

    def test_writes_bench_report(self, tmp_path, capsys):
        reports = tmp_path / "reports"
        assert (
            main(
                [
                    "experiment",
                    "--dist",
                    "I1",
                    "-n",
                    "300",
                    "--queries",
                    "3",
                    "--index",
                    "R-Tree",
                    "--report-dir",
                    str(reports),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "report written to" in out
        from repro.obs.report import load_report

        doc = load_report(reports / "BENCH_I1.json")
        assert doc["config"]["dataset_size"] == 300

    def test_from_csv_with_plot_and_csv_out(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        main(["generate", "--dist", "I3", "-n", "200", "-o", str(data)])
        capsys.readouterr()
        series = tmp_path / "series.csv"
        assert (
            main(
                [
                    "experiment",
                    "--input",
                    str(data),
                    "--queries",
                    "3",
                    "--index",
                    "SR-Tree",
                    "--plot",
                    "--csv",
                    str(series),
                    "--no-report",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "log10(QAR)" in out
        assert "& = overlap" in out  # the ASCII plot header
        assert series.read_text().startswith("qar,log10_qar,")

    def test_requires_dist_or_input(self):
        with pytest.raises(SystemExit):
            main(["experiment", "--queries", "3"])

    def test_malformed_csv_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x_low,y_low,x_high,y_high\n1,2,3\n")
        with pytest.raises(SystemExit):
            main(["experiment", "--input", str(bad)])

    def test_empty_csv_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("x_low,y_low,x_high,y_high\n")
        with pytest.raises(SystemExit):
            main(["experiment", "--input", str(empty)])


class TestLoadCsv:
    """The CSV loader must fail loudly, naming the file and line."""

    def test_wrong_column_count_names_line(self, tmp_path):
        from repro.cli import _load_csv

        bad = tmp_path / "bad.csv"
        bad.write_text("x_low,y_low,x_high,y_high\n0,0,1,1\n1,2,3\n")
        with pytest.raises(ValueError) as err:
            _load_csv(bad)
        assert f"{bad}:3" in str(err.value)
        assert "4 comma-separated values" in str(err.value)

    def test_non_numeric_value_names_line(self, tmp_path):
        from repro.cli import _load_csv

        bad = tmp_path / "bad.csv"
        bad.write_text("0,0,1,1\n0,zero,1,1\n")
        with pytest.raises(ValueError) as err:
            _load_csv(bad)
        assert f"{bad}:2" in str(err.value)
        assert "non-numeric" in str(err.value)

    def test_inverted_bounds_name_line(self, tmp_path):
        from repro.cli import _load_csv

        bad = tmp_path / "bad.csv"
        bad.write_text("5,5,1,1\n")
        with pytest.raises(ValueError) as err:
            _load_csv(bad)
        assert f"{bad}:1" in str(err.value)

    def test_cli_converts_to_clean_exit(self, tmp_path):
        # via main(), the ValueError surfaces as SystemExit (no traceback)
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3\n")
        with pytest.raises(SystemExit) as err:
            main(["experiment", "--input", str(bad), "--no-report"])
        assert "bad.csv:1" in str(err.value)

    def test_missing_file_clean_exit(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["experiment", "--input", str(tmp_path / "nope.csv"), "--no-report"])


class TestInspect:
    def test_metrics_output(self, capsys):
        assert main(["inspect", "--dist", "I3", "-n", "500"]) == 0
        out = capsys.readouterr().out
        assert "height=" in out
        assert "spanning_placements=" in out


class TestGraphs:
    def test_single_graph(self, capsys):
        assert (
            main(["graphs", "graph1", "-n", "300", "--queries", "3", "--no-report"])
            == 0
        )
        out = capsys.readouterr().out
        assert "graph1" in out
        assert "Skeleton SR-Tree" in out

    def test_graph_report_written(self, tmp_path, capsys):
        reports = tmp_path / "r"
        assert (
            main(
                [
                    "graphs", "graph1", "-n", "300", "--queries", "3",
                    "--report-dir", str(reports),
                ]
            )
            == 0
        )
        assert (reports / "BENCH_graph1.json").exists()


class TestTrace:
    def test_search_trace_jsonl(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "trace", "--dist", "I3", "-n", "500", "--queries", "5",
                    "--index", "SR-Tree", "-o", str(out),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "wrote" in printed and "events" in printed
        from repro.obs import read_jsonl

        rows = list(read_jsonl(out))
        searches = [r for r in rows if r["type"] == "span_end" and r["op"] == "search"]
        accesses = [r for r in rows if r["type"] == "node_access"]
        assert len(searches) == 5
        assert sum(r["nodes_accessed"] for r in searches) == len(accesses)

    def test_trace_with_buffer_records_page_io(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "trace", "--dist", "I1", "-n", "500", "--queries", "5",
                    "--buffer-bytes", "8192", "-o", str(out),
                ]
            )
            == 0
        )
        from repro.obs import read_jsonl

        rows = list(read_jsonl(out))
        fetches = [r for r in rows if r["type"] == "page_fetch"]
        accesses = [r for r in rows if r["type"] == "node_access"]
        assert fetches and len(fetches) == len(accesses)

    def test_trace_build_phase(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "trace", "--dist", "I1", "-n", "400", "--phase", "build",
                    "--queries", "2", "-o", str(out),
                ]
            )
            == 0
        )
        from repro.obs import read_jsonl

        rows = list(read_jsonl(out))
        assert [r for r in rows if r["type"] == "split"]
        assert not [r for r in rows if r["op"] == "search"]


class TestStats:
    def test_pretty_prints_report(self, tmp_path, capsys):
        reports = tmp_path / "r"
        main(
            [
                "experiment", "--dist", "I1", "-n", "300", "--queries", "3",
                "--index", "R-Tree", "--report-dir", str(reports),
            ]
        )
        capsys.readouterr()
        assert main(["stats", str(reports / "BENCH_I1.json")]) == 0
        out = capsys.readouterr().out
        assert "I1" in out
        assert "wall time" in out
        assert "histogram" in out

    def test_invalid_report_clean_exit(self, tmp_path):
        bad = tmp_path / "BENCH_x.json"
        bad.write_text('{"schema": "wrong"}')
        with pytest.raises(SystemExit):
            main(["stats", str(bad)])

    def test_missing_report_clean_exit(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["stats", str(tmp_path / "BENCH_none.json")])


class TestBadSizes:
    """A size the workload generators refuse ends the run with a one-line
    message, not a traceback."""

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["experiment", "--dist", "I1", "-n", "0", "--no-report"], "dataset size"),
            (
                ["experiment", "--dist", "I1", "-n", "100", "--queries", "0", "--no-report"],
                "query count",
            ),
            (["inspect", "--dist", "I1", "-n", "0"], "dataset size"),
            (["graphs", "graph1", "-n", "0", "--no-report"], "dataset size"),
            (["generate", "--dist", "I1", "-n", "-3", "-o", "{tmp}/x.csv"], "dataset size"),
            (
                ["trace", "--dist", "I1", "-n", "100", "--queries", "0", "-o", "{tmp}/t.jsonl"],
                "query count",
            ),
            (["serve", "--transport", "local", "--buffer-bytes", "0"], "buffer bytes"),
        ],
        ids=["experiment-n", "experiment-queries", "inspect-n", "graphs-n", "generate-n",
             "trace-queries", "serve-buffer-bytes"],
    )
    def test_clean_exit(self, argv, message, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(tmp=tmp_path) for arg in argv])
        assert exc.value.code == f"{message} must be positive"


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "m.csv"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "generate",
                "--dist",
                "I1",
                "-n",
                "10",
                "-o",
                str(out),
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

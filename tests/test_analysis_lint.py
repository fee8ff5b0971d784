"""Fixture tests for the repo's AST lint engine (``repro.analysis``).

Each rule gets at least one positive fixture (the rule fires) and one
negative fixture (the rule stays silent), per the PR's acceptance
criteria.  Fixtures are linted in memory via :func:`lint_source` with a
fake package-shaped path (``src/repro/core/x.py``), which is how the
engine scopes path-restricted rules.
"""

import json

import pytest

from repro.analysis import lint_source, rule_ids
from repro.cli import main
from repro.exceptions import ConfigError, InputFormatError

CORE = "src/repro/core/fixture.py"
STORAGE = "src/repro/storage/fixture.py"
OBS = "src/repro/obs/fixture.py"


def rules_fired(source, path=CORE, select=None):
    return [d.rule for d in lint_source(source, path=path, select=select)]


# ----------------------------------------------------------------------
# R1: trace-event schema conformance
# ----------------------------------------------------------------------
def test_r1_fires_on_unknown_event_name():
    src = "self.tracer.event('node_acess', node_id=1, level=0)\n"
    assert rules_fired(src, select=["R1"]) == ["R1"]


def test_r1_fires_on_undeclared_field():
    src = "self.tracer.event('node_access', node_id=1, level=0, colour='red')\n"
    assert rules_fired(src, select=["R1"]) == ["R1"]


def test_r1_fires_on_missing_required_field():
    src = "tracer.event('node_access', node_id=1)\n"  # level missing
    assert rules_fired(src, select=["R1"]) == ["R1"]


def test_r1_fires_on_non_literal_event_name():
    src = "name = 'node_access'\nself.tracer.event(name, node_id=1, level=0)\n"
    assert rules_fired(src, select=["R1"]) == ["R1"]


def test_r1_fires_on_kwargs_splat():
    src = "self.tracer.event('node_access', **fields)\n"
    assert rules_fired(src, select=["R1"]) == ["R1"]


def test_r1_fires_on_unknown_span_op():
    src = "with self.tracer.span('serach') as sp:\n    pass\n"
    assert rules_fired(src, select=["R1"]) == ["R1"]


def test_r1_silent_on_declared_event_and_span():
    src = (
        "with self.tracer.span('search', mode='fragments') as sp:\n"
        "    self.tracer.event('node_access', node_id=1, level=0)\n"
        "    self.tracer.event('cut', record_id=2, node_id=1, level=0, remnants=2)\n"
    )
    assert rules_fired(src, select=["R1"]) == []


def test_r1_silent_on_non_tracer_receiver():
    src = "self.bus.event('totally-made-up', anything='goes')\n"
    assert rules_fired(src, select=["R1"]) == []


def test_r1_fires_on_duration_ns_as_span_begin_field():
    # duration_ns is the tracer-stamped *closing* field (schema v2); a
    # call site may not pass it when opening a span.
    src = "with tracer.span('search', mode='intersect', duration_ns=1):\n    pass\n"
    assert rules_fired(src, select=["R1"]) == ["R1"]


def test_r1_silent_on_page_fetch_read_ns():
    src = "tracer.event('page_fetch', page_id=1, hit=False, page_bytes=64, read_ns=100)\n"
    assert rules_fired(src, select=["R1"]) == []


# ----------------------------------------------------------------------
# R2: no exact float equality in core/, histogram/, bench/
# ----------------------------------------------------------------------
def test_r2_fires_on_float_literal_compare():
    src = "def f(x):\n    return x == 0.0\n"
    assert rules_fired(src, select=["R2"]) == ["R2"]


def test_r2_fires_on_float_annotated_name():
    src = "def f(area: float, other: float):\n    return area != other\n"
    assert rules_fired(src, select=["R2"]) == ["R2"]


def test_r2_fires_on_known_float_accessor():
    src = "def f(a, b):\n    if a.area == b.area:\n        return 1\n"
    assert rules_fired(src, select=["R2"]) == ["R2"]


def test_r2_fires_on_true_division_result():
    src = "def f(a, b):\n    return (a / b) == 1\n"
    assert rules_fired(src, select=["R2"]) == ["R2"]


def test_r2_silent_on_int_compare():
    src = "def f(n: int):\n    return n == 0\n"
    assert rules_fired(src, select=["R2"]) == []


def test_r2_silent_outside_scoped_dirs():
    src = "def f(x: float):\n    return x == 0.0\n"
    assert rules_fired(src, path="src/repro/workloads/fixture.py", select=["R2"]) == []


def test_r2_silent_in_floatcmp_module():
    src = "def feq(a: float, b: float):\n    return a == b\n"
    assert rules_fired(src, path="src/repro/core/floatcmp.py", select=["R2"]) == []


def test_r2_suppression_comment():
    src = "def f(x: float):\n    return x == 0.0  # lint: ignore[R2]\n"
    assert rules_fired(src, select=["R2"]) == []


def test_star_suppression_comment():
    src = "def f(x: float):\n    return x == 0.0  # lint: ignore[*]\n"
    assert rules_fired(src, select=["R2"]) == []


# ----------------------------------------------------------------------
# R3: exception hygiene
# ----------------------------------------------------------------------
def test_r3_fires_on_bare_valueerror():
    src = "def f():\n    raise ValueError('nope')\n"
    assert rules_fired(src, select=["R3"]) == ["R3"]


def test_r3_fires_on_swallowed_exception_in_storage():
    src = (
        "def f():\n"
        "    try:\n"
        "        g()\n"
        "    except Exception:\n"
        "        pass\n"
    )
    assert rules_fired(src, path=STORAGE, select=["R3"]) == ["R3"]


def test_r3_silent_on_repro_hierarchy():
    src = "from repro.exceptions import ConfigError\ndef f():\n    raise ConfigError('x')\n"
    assert rules_fired(src, select=["R3"]) == []


def test_r3_silent_on_reraise_in_storage():
    src = (
        "def f():\n"
        "    try:\n"
        "        g()\n"
        "    except Exception:\n"
        "        cleanup()\n"
        "        raise\n"
    )
    assert rules_fired(src, path=STORAGE, select=["R3"]) == []


def test_r3_silent_on_local_reproerror_subclass():
    src = (
        "from repro.exceptions import ReproError\n"
        "class LocalError(ReproError):\n"
        "    pass\n"
        "def f():\n"
        "    raise LocalError('x')\n"
    )
    assert rules_fired(src, select=["R3"]) == []


def test_r3_silent_on_notimplementederror():
    src = "def f():\n    raise NotImplementedError\n"
    assert rules_fired(src, select=["R3"]) == []


def test_r3_systemexit_only_in_cli():
    src = "def f():\n    raise SystemExit(2)\n"
    assert rules_fired(src, path="src/repro/cli.py", select=["R3"]) == []
    assert rules_fired(src, path=CORE, select=["R3"]) == ["R3"]


def test_r3_attributeerror_only_in_setattr():
    src = "class C:\n    def __setattr__(self, name, value):\n        raise AttributeError(name)\n"
    assert rules_fired(src, select=["R3"]) == []
    src = "def f():\n    raise AttributeError('x')\n"
    assert rules_fired(src, select=["R3"]) == ["R3"]


# ----------------------------------------------------------------------
# R4: frozen Rect
# ----------------------------------------------------------------------
def test_r4_fires_on_attribute_assignment():
    src = "def f(rect, v):\n    rect.lows = v\n"
    assert rules_fired(src, select=["R4"]) == ["R4"]


def test_r4_fires_on_object_setattr_outside_init():
    src = "def f(rect, v):\n    object.__setattr__(rect, 'highs', v)\n"
    assert rules_fired(src, select=["R4"]) == ["R4"]


def test_r4_fires_on_augmented_assignment():
    src = "def f(rect):\n    rect.lows += (1.0,)\n"
    assert rules_fired(src, select=["R4"]) == ["R4"]


def test_r4_silent_inside_rect_init():
    src = (
        "class Rect:\n"
        "    def __init__(self, lows, highs):\n"
        "        object.__setattr__(self, 'lows', lows)\n"
        "        object.__setattr__(self, 'highs', highs)\n"
    )
    assert rules_fired(src, select=["R4"]) == []


def test_r4_silent_on_reads_and_other_attributes():
    src = "def f(rect, node):\n    x = rect.lows[0]\n    node.level = 3\n"
    assert rules_fired(src, select=["R4"]) == []


# ----------------------------------------------------------------------
# R6: no blocking I/O under an exclusive lock
# ----------------------------------------------------------------------
def test_r6_fires_on_fsync_under_mutex():
    src = (
        "import os\n"
        "class W:\n"
        "    def g(self):\n"
        "        with self._lock:\n"
        "            os.fsync(self._fh.fileno())\n"
    )
    assert rules_fired(src, path=STORAGE, select=["R6"]) == ["R6"]


def test_r6_fires_on_disk_write_under_mutex():
    src = (
        "class W:\n"
        "    def g(self):\n"
        "        with self._cv:\n"
        "            self.disk.write_page(1, b'x')\n"
    )
    assert rules_fired(src, path=STORAGE, select=["R6"]) == ["R6"]


def test_r6_fires_on_sleep_under_write_latch():
    src = (
        "import time\n"
        "class W:\n"
        "    def g(self):\n"
        "        with self._index_latch.write():\n"
        "            time.sleep(0.1)\n"
    )
    assert rules_fired(src, path="src/repro/concurrency/fixture.py", select=["R6"]) == ["R6"]


def test_r6_fires_on_sleep_between_bare_acquire_write_and_release():
    src = (
        "import time\n"
        "class W:\n"
        "    def g(self):\n"
        "        self._index_latch.acquire_write()\n"
        "        try:\n"
        "            time.sleep(0.1)\n"
        "        finally:\n"
        "            self._index_latch.release_write()\n"
    )
    assert rules_fired(src, path="src/repro/concurrency/fixture.py", select=["R6"]) == ["R6"]


def test_r6_sees_through_held_by_convention():
    # _encode_page_locked runs with the WAL mutex held by its caller.
    src = (
        "class WriteAheadLog:\n"
        "    def _encode_page_locked(self, page_id, image):\n"
        "        self.disk.write_page(page_id, image)\n"
    )
    assert rules_fired(src, path="src/repro/storage/wal.py", select=["R6"]) == ["R6"]
    assert rules_fired(src, path=STORAGE, select=["R6"]) == []


def test_r6_silent_on_io_outside_lock():
    src = (
        "import os\n"
        "class W:\n"
        "    def g(self):\n"
        "        with self._lock:\n"
        "            frame = self._frames\n"
        "        os.fsync(self._fh.fileno())\n"
    )
    assert rules_fired(src, path=STORAGE, select=["R6"]) == []


def test_r6_silent_under_shared_read_latch():
    # Readers fault pages under the shared latch by design.
    src = (
        "class W:\n"
        "    def g(self):\n"
        "        with self._index_latch.read():\n"
        "            self.disk.read_page(1)\n"
    )
    assert rules_fired(src, path="src/repro/concurrency/fixture.py", select=["R6"]) == []


def test_r6_allowlist_covers_documented_writeback():
    # buffer.py _make_room's dirty-victim writeback is the documented
    # exception; the same body in an unlisted function fires.
    src = (
        "class BufferPool:\n"
        "    def _make_room(self):\n"
        "        with self._cond:\n"
        "            self.disk.write_page(1, b'x')\n"
    )
    assert rules_fired(src, path="src/repro/storage/buffer.py", select=["R6"]) == []
    src_unlisted = src.replace("_make_room", "_evict")
    assert rules_fired(
        src_unlisted, path="src/repro/storage/buffer.py", select=["R6"]
    ) == ["R6"]


# ----------------------------------------------------------------------
# R8: monotonic-clock discipline
# ----------------------------------------------------------------------
def test_r8_fires_on_wall_clock_in_concurrency():
    src = "import time\ndef deadline():\n    return time.time() + 5.0\n"
    assert rules_fired(src, path="src/repro/concurrency/fixture.py", select=["R8"]) == ["R8"]
    assert rules_fired(src, path=STORAGE, select=["R8"]) == ["R8"]
    assert rules_fired(src, path="src/repro/workloads/fixture.py", select=["R8"]) == ["R8"]


def test_r8_silent_on_monotonic_and_out_of_scope():
    src = (
        "import time\n"
        "def deadline():\n"
        "    return time.monotonic() + time.perf_counter()\n"
    )
    assert rules_fired(src, path=STORAGE, select=["R8"]) == []
    wall = "import time\ndef now():\n    return time.time()\n"
    assert rules_fired(wall, path=CORE, select=["R8"]) == []


# ----------------------------------------------------------------------
# Stale-suppression detection (W1)
# ----------------------------------------------------------------------
def test_stale_ignore_reported():
    src = "x = 1  # lint: ignore[R2]\n"
    diags = lint_source(src, path=CORE, stale_ignores=True)
    assert [d.rule for d in diags] == ["W1"]
    assert "suppresses nothing" in diags[0].message


def test_live_ignore_not_reported():
    src = "def f(x: float):\n    return x == 0.0  # lint: ignore[R2]\n"
    assert lint_source(src, path=CORE, stale_ignores=True) == []


def test_stale_wildcard_reported_and_live_wildcard_not():
    stale = "x = 1  # lint: ignore[*]\n"
    assert [d.rule for d in lint_source(stale, path=CORE, stale_ignores=True)] == ["W1"]
    live = "def f(x: float):\n    return x == 0.0  # lint: ignore[*]\n"
    assert lint_source(live, path=CORE, stale_ignores=True) == []


def test_stale_ignore_respects_select():
    src = "x = 1  # lint: ignore[R8]\n"
    # Under --select R2 the R8 ignore is out of selection: not judged.
    assert lint_source(src, path=STORAGE, select=["R2"], stale_ignores=True) == []
    # Selecting R8 judges it.
    assert [
        d.rule
        for d in lint_source(src, path=STORAGE, select=["R8"], stale_ignores=True)
    ] == ["W1"]


def test_unknown_rule_id_ignore_is_stale():
    src = "x = 1  # lint: ignore[R99]\n"
    assert [d.rule for d in lint_source(src, path=CORE, stale_ignores=True)] == ["W1"]


def test_docstring_mention_is_not_a_suppression():
    # Only real comments suppress; prose mentioning the syntax neither
    # suppresses a finding on its line nor counts as stale.
    src = (
        '"""Suppress with # lint: ignore[R2] when justified."""\n'
        "x = 1\n"
    )
    assert lint_source(src, path=CORE, stale_ignores=True) == []


def test_cli_stale_ignore_warns_but_exits_zero(tmp_path, capsys):
    f = tmp_path / "repro" / "core" / "stale.py"
    f.parent.mkdir(parents=True)
    f.write_text("x = 1  # lint: ignore[R2]\n")
    assert main(["lint", str(f)]) == 0
    out = capsys.readouterr().out
    assert "W1[" in out and "1 stale-ignore warning" in out


def test_cli_strict_ignores_exits_one(tmp_path, capsys):
    f = tmp_path / "repro" / "core" / "stale.py"
    f.parent.mkdir(parents=True)
    f.write_text("x = 1  # lint: ignore[R2]\n")
    assert main(["lint", "--strict-ignores", str(f)]) == 1
    doc_ok = capsys.readouterr()
    assert "W1[" in doc_ok.out


def test_cli_lint_json_counts_stale_separately(tmp_path, capsys):
    f = tmp_path / "repro" / "core" / "stale.py"
    f.parent.mkdir(parents=True)
    f.write_text("x = 1  # lint: ignore[R2]\n")
    assert main(["lint", "--format", "json", str(f)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 0 and doc["stale_ignores"] == 1
    assert [finding["rule"] for finding in doc["findings"]] == ["W1"]


# ----------------------------------------------------------------------
# Lockspec <-> docs consistency
# ----------------------------------------------------------------------
def test_design_lock_table_matches_lockspec():
    from pathlib import Path

    from repro.analysis.lockspec import render_markdown

    design = Path("DESIGN.md").read_text()
    assert render_markdown() in design, (
        "DESIGN.md's lock-hierarchy table is out of date; re-paste "
        "repro.analysis.lockspec.render_markdown() output"
    )


def test_lockspec_ranks_are_dense_and_ordered():
    from repro.analysis.lockspec import LOCK_HIERARCHY, level_for_attr, rank_of

    names = [lv.name for lv in LOCK_HIERARCHY]
    assert names == ["router", "index", "buffer", "wal", "disk"]
    assert [rank_of(name) for name in names] == list(range(len(LOCK_HIERARCHY)))
    assert rank_of("nonsense") == len(LOCK_HIERARCHY)  # unknown ranks last
    assert level_for_attr("_cv") == "wal"
    assert level_for_attr("_index_latch") == "index"
    assert level_for_attr("_page_lock") == "buffer"
    assert level_for_attr("_not_a_lock") is None


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------
def test_registry_exposes_all_rules():
    assert rule_ids() == ["R1", "R2", "R3", "R4", "R6", "R8"]


def test_unknown_rule_id_rejected():
    with pytest.raises(ConfigError, match="unknown rule id"):
        lint_source("x = 1\n", select=["R99"])


def test_syntax_error_reported_as_input_error():
    with pytest.raises(InputFormatError, match="cannot parse"):
        lint_source("def broken(:\n")


def test_diagnostics_sorted_and_formatted():
    src = "def f(x: float):\n    b = x == 2.0\n    a = x == 1.0\n"
    diags = lint_source(src, path=CORE, select=["R2"])
    assert [d.line for d in diags] == [2, 3]
    assert diags[0].format().startswith(f"{CORE}:2:")
    assert "R2[" in diags[0].format()


def test_src_repro_tree_is_clean():
    from repro.analysis import lint_paths

    assert lint_paths(["src/repro"]) == []


# ----------------------------------------------------------------------
# CLI: exit codes and JSON shape
# ----------------------------------------------------------------------
def test_cli_lint_clean_file_exits_zero(tmp_path, capsys):
    f = tmp_path / "clean.py"
    f.write_text("x = 1\n")
    assert main(["lint", str(f)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_lint_findings_exit_one(tmp_path, capsys):
    f = tmp_path / "repro" / "core" / "bad.py"
    f.parent.mkdir(parents=True)
    f.write_text("def f(x: float):\n    return x == 0.0\n")
    assert main(["lint", str(f)]) == 1
    out = capsys.readouterr().out
    assert "R2[" in out and "1 finding" in out


def test_cli_lint_unknown_rule_exits_two(tmp_path, capsys):
    f = tmp_path / "clean.py"
    f.write_text("x = 1\n")
    assert main(["lint", "--select", "R99", str(f)]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_cli_lint_missing_path_exits_two(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nope")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_cli_lint_json_shape(tmp_path, capsys):
    f = tmp_path / "repro" / "core" / "bad.py"
    f.parent.mkdir(parents=True)
    f.write_text("def f(x: float):\n    return x == 0.0\n")
    assert main(["lint", "--format", "json", str(f)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == 1
    assert doc["count"] == 1 and len(doc["findings"]) == 1
    finding = doc["findings"][0]
    assert set(finding) == {"path", "line", "col", "rule", "name", "message"}
    assert finding["rule"] == "R2"
    assert {r["id"] for r in doc["rules"]} == {"R1", "R2", "R3", "R4", "R6", "R8"}


def test_cli_lint_select_filters_rules(tmp_path, capsys):
    f = tmp_path / "repro" / "core" / "bad.py"
    f.parent.mkdir(parents=True)
    f.write_text("def f(x: float):\n    raise ValueError(x == 0.0)\n")
    assert main(["lint", "--select", "R3", str(f)]) == 1
    out = capsys.readouterr().out
    assert "R3[" in out and "R2[" not in out

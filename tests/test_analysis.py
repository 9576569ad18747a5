"""Tests for the determinism-contract static analyzer.

Each rule is proven twice: it fires on a minimal synthetic violation and
stays silent on the equivalent compliant code.  SCOPE003 additionally
re-introduces the PR 8 faults-report-in-digest leak (the sweep runner's
``to_json`` without its deterministic-branch strip) and shows the
analyzer catches it.  CLI tests cover pragma suppression, the
``--format json`` schema and exit codes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, analyze_source
from repro.analysis.cli import main
from repro.analysis.engine import classify_deterministic, module_relpath
from repro.analysis.registry import BUILTIN_DIAGNOSTICS, RULES
from repro.contract import TIMING_SCOPED_FIELDS

REPO = Path(__file__).resolve().parent.parent

#: Marker that forces DET classification on synthetic fixtures (tests
#: are non-deterministic by default).
DET = "# repro: deterministic-module\n"


def rules_fired(source: str, path: str = "repro/synthetic.py") -> set[str]:
    return {f.rule for f in analyze_source(path, source).findings}


def find(source: str, path: str = "repro/synthetic.py"):
    return analyze_source(path, source).findings


# ---------------------------------------------------------------------------
# classification


class TestClassification:
    def test_repro_modules_are_deterministic(self):
        assert classify_deterministic("repro/mpc/runtime.py", False)
        assert classify_deterministic("repro/sweep/tasks.py", False)

    def test_trace_plane_is_timing(self):
        assert not classify_deterministic("repro/trace/recorder.py", False)

    def test_tests_are_not_deterministic(self):
        assert not classify_deterministic("tests/test_x.py", False)

    def test_marker_opts_in(self):
        assert classify_deterministic("tests/test_x.py", True)
        assert classify_deterministic("repro/trace/recorder.py", True)

    def test_module_relpath_anchors_at_repro(self):
        assert (
            module_relpath(Path("src/repro/mpc/runtime.py"))
            == "repro/mpc/runtime.py"
        )
        assert module_relpath(Path("tests/test_x.py")) == "tests/test_x.py"


# ---------------------------------------------------------------------------
# DET rules


class TestDET001UnseededRandom:
    def test_fires_on_global_random(self):
        assert "DET001" in rules_fired(
            DET + "import random\nx = random.random()\n"
        )

    def test_fires_on_unseeded_random_instance(self):
        assert "DET001" in rules_fired(
            DET + "import random\nrng = random.Random()\n"
        )

    def test_fires_on_urandom_and_uuid4(self):
        assert "DET001" in rules_fired(DET + "import os\nx = os.urandom(8)\n")
        assert "DET001" in rules_fired(
            DET + "import uuid\nx = uuid.uuid4()\n"
        )

    def test_silent_on_seeded_random(self):
        source = DET + "import random\nrng = random.Random(42)\nx = rng.random()\n"
        assert "DET001" not in rules_fired(source)

    def test_silent_outside_deterministic_modules(self):
        source = "import random\nx = random.random()\n"
        assert rules_fired(source, path="tests/test_x.py") == set()


class TestDET002WallClock:
    def test_fires_on_perf_counter(self):
        assert "DET002" in rules_fired(
            DET + "import time\nt = time.perf_counter()\n"
        )

    def test_fires_on_sleep(self):
        assert "DET002" in rules_fired(DET + "import time\ntime.sleep(1)\n")

    def test_silent_on_non_clock_time_attrs(self):
        source = DET + "import time\nz = time.struct_time\n"
        assert "DET002" not in rules_fired(source)


class TestDET003SetIteration:
    def test_fires_on_for_loop_over_set(self):
        source = DET + "s = {1, 2}\nfor x in s:\n    print(x)\n"
        assert "DET003" in rules_fired(source)

    def test_fires_on_listcomp_over_set(self):
        source = DET + "s = set([1, 2])\nxs = [x for x in s]\n"
        assert "DET003" in rules_fired(source)

    def test_fires_on_list_materialization(self):
        source = DET + "s = frozenset([1])\nxs = list(s)\n"
        assert "DET003" in rules_fired(source)

    def test_fires_on_annotated_parameter(self):
        source = DET + (
            "def f(s: set) -> list:\n    return [x for x in s]\n"
        )
        assert "DET003" in rules_fired(source)

    def test_fires_on_self_attribute_set(self):
        source = DET + (
            "class C:\n"
            "    def __init__(self):\n"
            "        self.items = set()\n"
            "    def run(self):\n"
            "        for x in self.items:\n"
            "            print(x)\n"
        )
        assert "DET003" in rules_fired(source)

    def test_set_ness_propagates_through_names(self):
        source = DET + (
            "def f():\n"
            "    keep = set([1])\n"
            "    other = keep\n"
            "    for x in other:\n"
            "        print(x)\n"
        )
        assert "DET003" in rules_fired(source)

    def test_silent_on_sorted_iteration(self):
        source = DET + "s = {1, 2}\nfor x in sorted(s):\n    print(x)\n"
        assert "DET003" not in rules_fired(source)

    def test_silent_on_order_insensitive_consumers(self):
        source = DET + (
            "s = {1, 2}\n"
            "a = sum(x for x in s)\n"
            "b = max(s)\n"
            "c = len(s)\n"
        )
        assert "DET003" not in rules_fired(source)

    def test_silent_after_rebind_to_non_set(self):
        source = DET + (
            "def f():\n"
            "    s = {1, 2}\n"
            "    s = sorted(s)\n"
            "    for x in s:\n"
            "        print(x)\n"
        )
        assert "DET003" not in rules_fired(source)

    def test_container_of_sets_is_not_a_set(self):
        source = DET + (
            "def f(adj: dict) -> None:\n"
            "    for v in list(adj):\n"
            "        print(v)\n"
        )
        assert "DET003" not in rules_fired(source)


class TestDET004HashOrderSort:
    def test_fires_on_id_key(self):
        assert "DET004" in rules_fired(
            DET + "xs = sorted([object()], key=id)\n"
        )

    def test_fires_on_hash_in_lambda_key(self):
        assert "DET004" in rules_fired(
            DET + "xs = sorted([1], key=lambda v: hash(v))\n"
        )

    def test_silent_on_stable_key(self):
        assert "DET004" not in rules_fired(
            DET + "xs = sorted([1], key=lambda v: (v, repr(v)))\n"
        )


# ---------------------------------------------------------------------------
# SCOPE rules


class TestSCOPE001TimingKey:
    def test_fires_on_unguarded_timing_key(self):
        source = (
            "def to_json(self, include_timing=True):\n"
            "    data = {'elapsed_s': self.seconds}\n"
            "    return data\n"
        )
        assert "SCOPE001" in rules_fired(source)

    def test_silent_when_guarded(self):
        source = (
            "def to_json(self, include_timing=True):\n"
            "    data = {'cell': 1}\n"
            "    if include_timing:\n"
            "        data['elapsed_s'] = self.seconds\n"
            "    return data\n"
        )
        assert "SCOPE001" not in rules_fired(source)

    def test_guard_applies_inside_loops(self):
        source = (
            "def to_json(self, include_timing=True):\n"
            "    data = {}\n"
            "    if include_timing:\n"
            "        for w in self.ws:\n"
            "            data['workers'] = w\n"
            "    return data\n"
        )
        assert "SCOPE001" not in rules_fired(source)

    def test_fires_in_deterministic_payload_builder(self):
        source = (
            "def deterministic_payload(self):\n"
            "    return {'faults': self.report}\n"
        )
        assert "SCOPE001" in rules_fired(source)

    def test_every_contract_field_is_flagged(self):
        for field_name in TIMING_SCOPED_FIELDS:
            source = (
                "def to_json(self, include_timing=True):\n"
                f"    return {{'{field_name}': 1}}\n"
            )
            assert "SCOPE001" in rules_fired(source), field_name


class TestSCOPE002TimingValue:
    def test_fires_on_timing_value_under_neutral_key(self):
        source = (
            "def to_json(self, include_timing=True):\n"
            "    return {'meta': self.elapsed_s}\n"
        )
        assert "SCOPE002" in rules_fired(source)

    def test_silent_when_guarded(self):
        source = (
            "def to_json(self, include_timing=True):\n"
            "    data = {}\n"
            "    if include_timing:\n"
            "        data['meta'] = self.elapsed_s\n"
            "    return data\n"
        )
        assert "SCOPE002" not in rules_fired(source)


class TestSCOPE003PayloadPassthrough:
    #: The sweep runner's ``CellResult.to_json`` shape, with the PR 8
    #: deterministic-branch strip present.
    SANITIZED = (
        "def to_json(self, include_timing=True):\n"
        "    payload = self.payload\n"
        "    if not include_timing and payload is not None "
        "and 'faults' in payload:\n"
        "        payload = {k: v for k, v in payload.items() "
        "if k != 'faults'}\n"
        "    data = {'cell': 1, 'payload': payload}\n"
        "    if include_timing:\n"
        "        data['seconds'] = self.seconds\n"
        "    return data\n"
    )

    def test_silent_with_sanitizer(self):
        assert "SCOPE003" not in rules_fired(self.SANITIZED)

    def test_silent_with_contract_wide_strip(self):
        # Stripping the contract's whole field list counts too.
        source = (
            "def to_json(self, include_timing=True):\n"
            "    payload = self.payload\n"
            "    if not include_timing and payload is not None:\n"
            "        payload = {k: v for k, v in payload.items() "
            "if k not in TIMING_SCOPED_FIELD_SET}\n"
            "    return {'cell': 1, 'payload': payload}\n"
        )
        assert "SCOPE003" not in rules_fired(source)
        # ...but only in the deterministic branch.
        guarded = source.replace("if not include_timing", "if include_timing")
        assert "SCOPE003" in rules_fired(guarded)

    def test_reintroducing_the_pr8_leak_is_caught(self):
        # Remove the strip: worker-count-dependent fault reports would
        # ride the payload straight into the sweep digest again.
        leaky = (
            "def to_json(self, include_timing=True):\n"
            "    payload = self.payload\n"
            "    data = {'cell': 1, 'payload': payload}\n"
            "    if include_timing:\n"
            "        data['seconds'] = self.seconds\n"
            "    return data\n"
        )
        findings = find(leaky)
        assert "SCOPE003" in {f.rule for f in findings}
        (f,) = [f for f in findings if f.rule == "SCOPE003"]
        assert "PR 8" in f.message

    def test_real_sweep_runner_is_sanitized(self):
        source = (REPO / "src/repro/sweep/runner.py").read_text()
        fired = {
            f.rule
            for f in analyze_source("repro/sweep/runner.py", source).findings
        }
        assert "SCOPE003" not in fired


# ---------------------------------------------------------------------------
# PAR rules


class TestPARRules:
    def test_par001_fires_on_lambda_through_pipe(self):
        source = "def f(conn):\n    conn.send(lambda: 1)\n"
        assert "PAR001" in rules_fired(source)

    def test_par001_fires_on_generator_through_pipe(self):
        source = "def f(conn, xs):\n    conn.send(x for x in xs)\n"
        assert "PAR001" in rules_fired(source)

    def test_par001_silent_on_data(self):
        source = "def f(conn):\n    conn.send(('ok', [1, 2]))\n"
        assert "PAR001" not in rules_fired(source)

    def test_par002_fires_on_global_write_in_shard(self):
        source = (
            "CACHE = {}\n"
            "class ProgramShard:\n"
            "    def run(self):\n"
            "        global CACHE\n"
            "        CACHE = {}\n"
        )
        assert "PAR002" in rules_fired(source)

    def test_par002_silent_on_instance_state(self):
        source = (
            "class ProgramShard:\n"
            "    def run(self):\n"
            "        self.cache = {}\n"
        )
        assert "PAR002" not in rules_fired(source)

    def test_par003_fires_on_raw_exception_send(self):
        source = (
            "def f(conn):\n"
            "    try:\n"
            "        work()\n"
            "    except Exception as exc:\n"
            "        conn.send(('err', exc))\n"
        )
        assert "PAR003" in rules_fired(source)

    def test_par003_silent_on_described_exception(self):
        source = (
            "def f(conn):\n"
            "    try:\n"
            "        work()\n"
            "    except Exception as exc:\n"
            "        conn.send(('err', describe_error(exc)))\n"
        )
        assert "PAR003" not in rules_fired(source)


# ---------------------------------------------------------------------------
# MSG rules


class TestMSGRules:
    def test_msg001_fires_on_network_internal_access(self):
        source = (
            "class Sneaky(NodeAlgorithm):\n"
            "    def on_round(self, inbox):\n"
            "        return self.node.network._inboxes[0]\n"
        )
        assert "MSG001" in rules_fired(source)

    def test_msg001_applies_transitively(self):
        source = (
            "class Base(NodeAlgorithm):\n"
            "    pass\n"
            "class Derived(Base):\n"
            "    def on_round(self, inbox):\n"
            "        return self._engine.state\n"
        )
        assert "MSG001" in rules_fired(source)

    def test_msg001_silent_on_metered_api(self):
        source = (
            "class Fine(NodeAlgorithm):\n"
            "    def on_round(self, inbox):\n"
            "        self.broadcast('x')\n"
            "        return self.send_many({1: 'y'})\n"
        )
        assert "MSG001" not in rules_fired(source)

    def test_msg002_fires_on_direct_handler_call(self):
        source = (
            "class Pushy(NodeAlgorithm):\n"
            "    def on_round(self, inbox):\n"
            "        return self.neighbor.on_round(inbox)\n"
        )
        assert "MSG002" in rules_fired(source)

    def test_msg002_silent_on_super_delegation(self):
        source = (
            "class Stage(NodeAlgorithm):\n"
            "    def on_round(self, inbox):\n"
            "        return super().on_round(inbox)\n"
        )
        assert "MSG002" not in rules_fired(source)

    def test_rules_silent_outside_algorithm_classes(self):
        source = (
            "class Engine:\n"
            "    def run(self):\n"
            "        return self._inboxes[0]\n"
        )
        assert rules_fired(source) == set()


# ---------------------------------------------------------------------------
# pragmas


class TestPragmas:
    def test_same_line_pragma_suppresses(self):
        source = DET + (
            "import time\n"
            "t = time.perf_counter()  "
            "# repro: allow[DET002] timing helper by design\n"
        )
        result = analyze_source("repro/synthetic.py", source)
        assert not result.findings
        assert len(result.suppressions) == 1
        assert result.suppressions[0].reason == "timing helper by design"

    def test_own_line_pragma_covers_next_line(self):
        source = DET + (
            "import time\n"
            "# repro: allow[DET002] timing helper by design\n"
            "t = time.perf_counter()\n"
        )
        result = analyze_source("repro/synthetic.py", source)
        assert not result.findings
        assert len(result.suppressions) == 1

    def test_allow_file_pragma_is_a_finding(self):
        source = DET + (
            "# repro: allow-file[DET002] whole module is a timing helper\n"
            "import time\n"
            "a = time.perf_counter()\n"
        )
        result = analyze_source("repro/synthetic.py", source)
        assert [f.rule for f in result.findings] == ["PRG001", "DET002"]
        assert not result.suppressions

    def test_pragma_without_reason_is_a_finding(self):
        source = DET + (
            "import time\n"
            "t = time.perf_counter()  # repro: allow[DET002]\n"
        )
        fired = rules_fired(source)
        assert "PRG001" in fired
        assert "DET002" in fired  # reason-less pragma suppresses nothing

    def test_pragma_for_other_rule_does_not_suppress(self):
        source = DET + (
            "import time\n"
            "t = time.perf_counter()  # repro: allow[DET003] wrong rule\n"
        )
        assert "DET002" in rules_fired(source)


# ---------------------------------------------------------------------------
# CLI


class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main([str(target)]) == 0

    def test_finding_exits_one(self, tmp_path):
        target = tmp_path / "repro_mod.py"
        target.write_text(DET + "import time\nt = time.time()\n")
        assert main([str(target)]) == 1

    def test_stray_baseline_file_is_ignored(self, tmp_path, monkeypatch):
        target = tmp_path / "repro_mod.py"
        target.write_text(DET + "import time\nt = time.time()\n")
        (tmp_path / "analysis-baseline.json").write_text(json.dumps({
            "schema": "repro.analysis-baseline/1",
            "findings": [{
                "rule": "DET002", "path": target.name, "count": 1,
                "message": find(target.read_text())[0].message,
            }],
        }))
        monkeypatch.chdir(tmp_path)
        assert main([target.name]) == 1

    def test_missing_target_exits_two(self, capsys):
        assert main(["does/not/exist.py"]) == 2
        assert "no such file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [["--baseline", "b.json"], ["--no-baseline"], ["--write-baseline"]],
    )
    def test_removed_baseline_flags_exit_two(self, tmp_path, flag):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        with pytest.raises(SystemExit) as exc:
            main([str(target), *flag])
        assert exc.value.code == 2

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        out_path = tmp_path / "missing" / "report.json"
        assert main([str(target), "--output", str(out_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "yaml", "x.py"])
        assert exc.value.code == 2

    def test_no_targets_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (*RULES, *BUILTIN_DIAGNOSTICS):
            assert rule_id in out

    def test_json_schema(self, tmp_path, capsys):
        target = tmp_path / "repro_mod.py"
        target.write_text(DET + "import time\nt = time.time()\n")
        assert main([str(target), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.analysis-report/2"
        assert set(report) == {"schema", "findings", "suppressions", "counts"}
        assert report["counts"] == {"files": 1, "findings": 1, "suppressed": 0}
        (finding,) = report["findings"]
        assert finding["rule"] == "DET002"
        assert {"rule", "family", "path", "line", "col", "symbol", "message"} \
            <= set(finding)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        out_path = tmp_path / "report.json"
        main(
            [str(target), "--format", "json", "--output", str(out_path)]
        )
        capsys.readouterr()
        assert json.loads(out_path.read_text())["counts"]["findings"] == 0

    def test_syntax_error_is_a_finding(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        result = analyze_paths([str(target)])
        assert [f.rule for f in result.findings] == ["SYN001"]

    def test_module_invocation(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(target)],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the gate itself


class TestSelfScan:
    def test_src_is_clean(self):
        result = analyze_paths([str(REPO / "src")])
        assert not result.findings, "\n".join(
            f.render() for f in result.findings
        )

    def test_suppressions_all_carry_reasons(self):
        result = analyze_paths([str(REPO / "src")])
        assert result.suppressions, "expected documented suppressions"
        for suppression in result.suppressions:
            assert suppression.reason.strip()

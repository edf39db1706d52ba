"""Tests for the repro.analysis static-analysis pass (DESIGN.md S20).

Each rule gets a paired fixture: a known-violation snippet that must
be flagged and a clean counterpart that must not.  On top of that:
inline-suppression handling, the baseline add/suppress round-trip,
the ``repro lint`` CLI contract (exit codes, JSON format), and the
gate the ISSUE demands — ``src/repro`` is clean modulo the checked-in
baseline, which itself stays small and justified.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    all_rules,
    analyze_paths,
    analyze_source,
    fingerprint_findings,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"
BASELINE_FILE = REPO_ROOT / "lint-baseline.json"


def findings_for(source, module, rule=None):
    found = analyze_source(textwrap.dedent(source), module=module)
    if rule is not None:
        found = [f for f in found if f.rule == rule]
    return found


def rule_ids(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# R1 determinism
# ----------------------------------------------------------------------
class TestDeterminismRule:
    VIOLATION = """
        import time
        import numpy as np

        def job_key_parts():
            stamp = time.time()
            noise = np.random.rand(4)
            return stamp, noise
    """
    CLEAN = """
        import time
        import numpy as np

        def job_key_parts(rng: np.random.Generator):
            t0 = time.perf_counter()
            budget = time.monotonic()
            noise = rng.normal(size=4)
            seeded = np.random.default_rng(np.random.SeedSequence(7))
            return t0, budget, noise, seeded
    """

    def test_violation_flagged(self):
        found = findings_for(self.VIOLATION, "repro.runtime.fixture", "R1")
        assert len(found) == 2
        assert "time.time()" in found[0].message
        assert "np.random.rand" in found[1].message

    def test_clean_counterpart(self):
        assert not findings_for(self.CLEAN, "repro.runtime.fixture", "R1")

    def test_out_of_scope_module_not_flagged(self):
        # Presentation-layer wall clock (obs trace timestamps) is legal.
        assert not findings_for(self.VIOLATION, "repro.obs.fixture", "R1")

    def test_stdlib_random_flagged(self):
        source = """
            import random

            def trial():
                return random.randint(0, 10)
        """
        found = findings_for(source, "repro.faults.fixture", "R1")
        assert len(found) == 1
        assert "SeedSequence" in found[0].message

    def test_datetime_now_flagged(self):
        source = """
            from datetime import datetime

            def stamp():
                return datetime.now()
        """
        found = findings_for(source, "repro.accuracy.fixture", "R1")
        assert len(found) == 1


# ----------------------------------------------------------------------
# R2 cache-key purity
# ----------------------------------------------------------------------
class TestCachePurityRule:
    VIOLATION = """
        from repro.runtime.jobs import content_key

        def make_key(config):
            return content_key("kind", lambda: config.size)
    """
    CLEAN = """
        from repro.runtime.jobs import content_key

        def make_key(config, fingerprint):
            return content_key("kind", config.to_dict(), fingerprint)
    """

    def test_violation_flagged(self):
        found = findings_for(self.VIOLATION, "repro.dse.fixture", "R2")
        assert len(found) == 1
        assert "lambda" in found[0].message

    def test_clean_counterpart(self):
        assert not findings_for(self.CLEAN, "repro.dse.fixture", "R2")

    def test_generator_and_function_ref_flagged(self):
        source = """
            from repro.runtime.jobs import canonical_json

            def helper():
                return 3

            def bad(values):
                a = canonical_json(v * 2 for v in values)
                b = canonical_json(helper)
                c = canonical_json(open("weights.json"))
                return a, b, c
        """
        found = findings_for(source, "repro.faults.fixture", "R2")
        messages = " | ".join(f.message for f in found)
        assert len(found) == 3
        assert "generator expression" in messages
        assert "'helper'" in messages
        assert "open()" in messages

    def test_materialized_comprehension_clean(self):
        source = """
            from repro.runtime.jobs import canonical_json

            def good(values):
                return canonical_json([v * 2 for v in values])
        """
        assert not findings_for(source, "repro.faults.fixture", "R2")


# ----------------------------------------------------------------------
# R3 fork-safety
# ----------------------------------------------------------------------
class TestForkSafetyRule:
    VIOLATION = """
        _BUFFER = []

        def record(item):
            _BUFFER.append(item)
    """
    CLEAN = """
        _BUFFER = []

        def record(item):
            _BUFFER.append(item)

        def activate(context):
            _BUFFER.clear()
    """

    def test_violation_flagged(self):
        found = findings_for(self.VIOLATION, "repro.obs.fixture", "R3")
        assert len(found) == 1
        assert "_BUFFER" in found[0].message

    def test_clean_counterpart(self):
        assert not findings_for(self.CLEAN, "repro.obs.fixture", "R3")

    def test_global_rebinding_needs_hook(self):
        source = """
            _POOL = None

            def acquire():
                global _POOL
                _POOL = object()
        """
        found = findings_for(source, "repro.runtime.fixture", "R3")
        assert len(found) == 1
        source_with_hook = source + """
            def shutdown_pool():
                global _POOL
                _POOL = None
        """
        assert not findings_for(
            source_with_hook, "repro.runtime.fixture", "R3"
        )

    def test_import_time_registry_not_flagged(self):
        # Populated only at import (decorators); read-only afterwards.
        source = """
            REGISTRY = {}

            def register(cls):
                pass

            REGISTRY["adc"] = object()

            def lookup(name):
                return REGISTRY[name]
        """
        assert not findings_for(source, "repro.spice.fixture", "R3")

    def test_out_of_scope_package_not_flagged(self):
        # repro.arch never runs inside pool workers.
        assert not findings_for(self.VIOLATION, "repro.arch.fixture", "R3")


# ----------------------------------------------------------------------
# R4 except hygiene
# ----------------------------------------------------------------------
class TestExceptHygieneRule:
    VIOLATION = """
        def swallow(work):
            try:
                work()
            except Exception:
                pass
    """
    CLEAN = """
        import logging

        _log = logging.getLogger(__name__)

        def accounted(work, metrics):
            try:
                work()
            except Exception as exc:
                _log.warning("work failed: %s", exc)
            try:
                work()
            except Exception:
                metrics.count("failures")
            try:
                work()
            except Exception:
                raise
    """

    def test_violation_flagged(self):
        found = findings_for(self.VIOLATION, "repro.arch.fixture", "R4")
        assert len(found) == 1
        assert "broad except" in found[0].message

    def test_bare_except_flagged(self):
        source = """
            def swallow(work):
                try:
                    work()
                except:
                    return None
        """
        found = findings_for(source, "repro.arch.fixture", "R4")
        assert len(found) == 1
        assert "bare except" in found[0].message

    def test_clean_counterpart(self):
        assert not findings_for(self.CLEAN, "repro.arch.fixture", "R4")

    def test_narrow_except_never_flagged(self):
        source = """
            def narrow(work):
                try:
                    work()
                except ValueError:
                    return None
        """
        assert not findings_for(source, "repro.arch.fixture", "R4")

    def test_scope_covers_obs_progress(self):
        """The ETA estimator is product code: R4 applies to it like any
        other repro module."""
        found = findings_for(self.VIOLATION, "repro.obs.progress", "R4")
        assert len(found) == 1


# ----------------------------------------------------------------------
# Job-label discipline (DESIGN.md S23)
# ----------------------------------------------------------------------
class TestJobLabelDiscipline:
    #: Files allowed to mention an explicit ``job=`` label on a metric
    #: record call — the injection machinery itself, nothing else.
    ALLOWLIST = {Path("obs") / "metrics.py"}

    def test_job_labels_only_via_jobcontext(self):
        """No product code passes ``job=`` to inc/set/add/observe:
        per-job labels flow exclusively through the registry's
        JobContext injection, keeping attribution and the rollup
        lifecycle in one place."""
        import re

        pattern = re.compile(
            r"\.(inc|set|add|observe)\([^)]*\bjob\s*=", re.S
        )
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.relative_to(SRC) in self.ALLOWLIST:
                continue
            text = path.read_text(encoding="utf-8")
            for match in pattern.finditer(text):
                line = text[:match.start()].count("\n") + 1
                offenders.append(f"{path.relative_to(REPO_ROOT)}:{line}")
        assert not offenders, (
            "explicit job= metric labels outside the injection "
            f"machinery: {offenders}"
        )


# ----------------------------------------------------------------------
# R5 units discipline
# ----------------------------------------------------------------------
class TestUnitsRule:
    VIOLATION = """
        def delay_seconds(fo4_ps):
            return fo4_ps * 1e-12
    """
    CLEAN = """
        from repro.units import PS

        def delay_seconds(fo4_ps):
            return fo4_ps * PS
    """

    def test_violation_flagged(self):
        found = findings_for(self.VIOLATION, "repro.tech.fixture", "R5")
        assert len(found) == 1
        assert "repro.units" in found[0].message

    def test_clean_counterpart(self):
        assert not findings_for(self.CLEAN, "repro.tech.fixture", "R5")

    def test_non_prefix_literal_not_flagged(self):
        # Model coefficients with a mantissa are not scale factors.
        source = """
            def energy():
                return 3.1e-3 / 1.2e9
        """
        assert not findings_for(source, "repro.circuits.fixture", "R5")

    def test_out_of_scope_module_not_flagged(self):
        assert not findings_for(self.VIOLATION, "repro.arch.fixture", "R5")


# ----------------------------------------------------------------------
# Inline suppression
# ----------------------------------------------------------------------
class TestSuppression:
    def test_same_line_allow(self):
        source = """
            import time

            def stamp():
                return time.time()  # lint: allow=R1 metadata only
        """
        assert not findings_for(source, "repro.runtime.fixture", "R1")

    def test_previous_line_allow(self):
        source = """
            import time

            def stamp():
                # lint: allow=R1 row-creation timestamp, not a key part
                return time.time()
        """
        assert not findings_for(source, "repro.runtime.fixture", "R1")

    def test_allow_other_rule_does_not_silence(self):
        source = """
            import time

            def stamp():
                return time.time()  # lint: allow=R4
        """
        assert findings_for(source, "repro.runtime.fixture", "R1")

    def test_star_allows_everything(self):
        source = """
            import time

            def stamp():
                return time.time()  # lint: allow=*
        """
        assert not findings_for(source, "repro.runtime.fixture")


# ----------------------------------------------------------------------
# Baseline workflow
# ----------------------------------------------------------------------
class TestBaseline:
    def _violating_file(self, tmp_path):
        src_dir = tmp_path / "src" / "repro" / "runtime"
        src_dir.mkdir(parents=True)
        (src_dir / "__init__.py").write_text("")
        (src_dir / "wall.py").write_text(textwrap.dedent("""
            import time

            def stamp():
                return time.time()
        """))
        return tmp_path / "src"

    def test_add_suppress_roundtrip(self, tmp_path):
        src = self._violating_file(tmp_path)
        findings = analyze_paths([src], root=tmp_path)
        assert rule_ids(findings) == ["R1"]

        baseline_path = tmp_path / "lint-baseline.json"
        baseline = Baseline.load(baseline_path)
        baseline.update_from(findings, justification="known, tracked")
        baseline.save(baseline_path)

        # Same findings re-analyzed: everything is grandfathered.
        reloaded = Baseline.load(baseline_path)
        new, matched = reloaded.split(analyze_paths([src], root=tmp_path))
        assert new == []
        assert len(matched) == 1
        entry = next(iter(reloaded.entries.values()))
        assert entry["justification"] == "known, tracked"

    def test_new_violation_not_masked(self, tmp_path):
        src = self._violating_file(tmp_path)
        findings = analyze_paths([src], root=tmp_path)
        baseline = Baseline()
        baseline.update_from(findings)

        # A second, different violation appears: it must surface.
        extra = src / "repro" / "runtime" / "wall2.py"
        extra.write_text(textwrap.dedent("""
            import random

            def draw():
                return random.random()
        """))
        new, matched = baseline.split(analyze_paths([src], root=tmp_path))
        assert len(matched) == 1
        assert len(new) == 1
        assert "random.random" in new[0].message

    def test_fingerprints_survive_line_moves(self, tmp_path):
        src = self._violating_file(tmp_path)
        first = fingerprint_findings(analyze_paths([src], root=tmp_path))
        wall = src / "repro" / "runtime" / "wall.py"
        wall.write_text("# a new leading comment\n\n" + wall.read_text())
        second = fingerprint_findings(analyze_paths([src], root=tmp_path))
        assert [fp for _, fp in first] == [fp for _, fp in second]
        assert second[0][0].line != first[0][0].line

    def test_stale_entries_reported(self, tmp_path):
        src = self._violating_file(tmp_path)
        findings = analyze_paths([src], root=tmp_path)
        baseline = Baseline()
        baseline.update_from(findings)
        # Fix the violation: its baseline entry is now stale.
        (src / "repro" / "runtime" / "wall.py").write_text(
            "def stamp():\n    return 0.0\n"
        )
        stale = baseline.stale_fingerprints(
            analyze_paths([src], root=tmp_path)
        )
        assert len(stale) == 1


# ----------------------------------------------------------------------
# CLI contract
# ----------------------------------------------------------------------
class TestLintCli:
    def _run(self, *argv, cwd):
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *argv],
            cwd=cwd, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )

    def test_clean_tree_exits_zero(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        result = self._run(str(clean), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "clean" in result.stdout

    def test_findings_exit_two_and_json_parses(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "runtime" / "wall.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        result = self._run(
            "src", "--format", "json", cwd=tmp_path,
        )
        assert result.returncode == 2, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["summary"]["new"] == 1
        assert payload["findings"][0]["rule"] == "R1"
        assert payload["findings"][0]["fingerprint"]

    def test_update_baseline_then_clean(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "runtime" / "wall.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        update = self._run("src", "--update-baseline", cwd=tmp_path)
        assert update.returncode == 0, update.stderr
        gated = self._run("src", cwd=tmp_path)
        assert gated.returncode == 0, gated.stdout
        assert "grandfathered" in gated.stdout
        # --no-baseline re-surfaces everything.
        full = self._run("src", "--no-baseline", cwd=tmp_path)
        assert full.returncode == 2

    def test_rules_listing(self, tmp_path):
        result = self._run("--rules", cwd=tmp_path)
        assert result.returncode == 0
        for rule_id in ("R1", "R2", "R3", "R4", "R5", "R6",
                        "R7", "R8", "R9"):
            assert rule_id in result.stdout

    def test_help_names_the_registered_rule_range(self, tmp_path):
        from repro.analysis.core import all_rules

        ids = sorted((rule.rule_id for rule in all_rules()),
                     key=lambda i: (len(i), i))
        result = self._run("--help", cwd=tmp_path)
        assert result.returncode == 0
        text = " ".join(result.stdout.split())
        assert f"({ids[0]}-{ids[-1]})" in text

    def test_parser_build_does_not_import_the_rule_set(self, tmp_path):
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.cli import build_parser; "
             "build_parser(); "
             "print('repro.analysis.rules' in sys.modules)"],
            cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert probe.stdout.strip() == "False", probe.stderr

    def test_graph_flag_controls_project_pass(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "service" / "store.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(textwrap.dedent("""
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}

                def put(self, key, value):
                    with self._lock:
                        self._data[key] = value

                def peek(self, key):
                    return self._data.get(key)
        """))
        with_graph = self._run("src", "--format", "json", cwd=tmp_path)
        assert with_graph.returncode == 2
        payload = json.loads(with_graph.stdout)
        assert payload["findings"][0]["rule"] == "R7"
        assert payload["summary"]["graph_build_seconds"] >= 0.0
        assert payload["summary"]["graph_modules"] >= 1

        without = self._run(
            "src", "--no-graph", "--format", "json", cwd=tmp_path,
        )
        assert without.returncode == 0, without.stdout
        summary = json.loads(without.stdout)["summary"]
        assert "graph_build_seconds" not in summary


# ----------------------------------------------------------------------
# The gate: src/repro is clean modulo the checked-in baseline
# ----------------------------------------------------------------------
class TestRepoIsClean:
    def test_src_repro_clean_modulo_baseline(self):
        findings = analyze_paths([SRC], root=REPO_ROOT)
        baseline = Baseline.load(BASELINE_FILE)
        new, _ = baseline.split(findings)
        assert new == [], "new lint findings:\n" + "\n".join(
            f.format() for f in new
        )

    def test_baseline_is_small_and_justified(self):
        baseline = Baseline.load(BASELINE_FILE)
        assert len(baseline.entries) <= 5
        for entry in baseline.entries.values():
            justification = entry.get("justification", "")
            assert justification, f"unjustified baseline entry: {entry}"
            assert justification != "grandfathered by --update-baseline", (
                "baseline entries need a hand-written justification: "
                f"{entry}"
            )

    def test_no_stale_baseline_entries(self):
        baseline = Baseline.load(BASELINE_FILE)
        stale = baseline.stale_fingerprints(
            analyze_paths([SRC], root=REPO_ROOT)
        )
        assert stale == [], f"fixed entries still in baseline: {stale}"

    def test_seeded_violation_is_caught(self, tmp_path):
        """Negative control: a planted violation must break the gate.

        Mirrors the CI job's seeded-fixture step — guards against the
        analyzer silently matching nothing (e.g. a scope typo turning
        every rule off).
        """
        planted = tmp_path / "src" / "repro" / "runtime" / "planted.py"
        planted.parent.mkdir(parents=True)
        planted.write_text(
            "import time\n\ndef key_part():\n    return time.time()\n"
        )
        baseline = Baseline.load(BASELINE_FILE)
        new, _ = baseline.split(
            analyze_paths([tmp_path / "src"], root=tmp_path)
        )
        assert len(new) == 1
        assert new[0].rule == "R1"

    def test_registered_rule_set(self):
        assert sorted(r.rule_id for r in all_rules()) == [
            "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9",
        ]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))


# ----------------------------------------------------------------------
# R6 hot-loop-solve
# ----------------------------------------------------------------------
class TestHotLoopSolveRule:
    VIOLATION = """
        def sweep(networks, inputs):
            results = []
            for index, network in enumerate(networks):
                results.append(network.solve(inputs[index]))
            return results
    """
    CLEAN = """
        from repro.spice.solver import solve_batch

        def sweep(networks, inputs):
            batch = solve_batch(networks, inputs)
            return [batch[k] for k in range(len(batch))]
    """

    def test_violation_flagged(self):
        found = findings_for(self.VIOLATION, "repro.accuracy.montecarlo",
                             rule="R6")
        assert len(found) == 1
        assert "solve_batch" in found[0].message

    def test_clean_counterpart(self):
        assert not findings_for(self.CLEAN, "repro.accuracy.montecarlo",
                                rule="R6")

    def test_solve_many_in_while_flagged(self):
        source = """
            def drain(queue, inputs):
                while queue:
                    queue.pop().solve_many(inputs)
        """
        found = findings_for(source, "repro.faults.campaign", rule="R6")
        assert len(found) == 1
        assert "while" in found[0].message

    def test_comprehension_flagged(self):
        source = """
            def sweep(networks, inputs):
                return [n.solve(v) for n, v in zip(networks, inputs)]
        """
        found = findings_for(source, "repro.dse.explorer", rule="R6")
        assert len(found) == 1
        assert "comprehension" in found[0].message

    def test_out_of_scope_module_not_flagged(self):
        # The solver itself loops solves legitimately (its own
        # fixed-point rounds); R6 polices only the evaluation layers.
        assert not findings_for(self.VIOLATION, "repro.spice.solver",
                                rule="R6")

    def test_nested_function_not_charged_to_loop(self):
        source = """
            def build_workers(networks):
                workers = []
                for network in networks:
                    def worker(inputs):
                        return network.solve(inputs)
                    workers.append(worker)
                return workers
        """
        assert not findings_for(source, "repro.accuracy.montecarlo",
                                rule="R6")

    def test_loop_free_solve_not_flagged(self):
        source = """
            def one_point(network, inputs):
                return network.solve(inputs)
        """
        assert not findings_for(source, "repro.accuracy.montecarlo",
                                rule="R6")

    def test_suppression_comment_honoured(self):
        source = """
            def sweep(networks, inputs):
                out = []
                for index, network in enumerate(networks):
                    # lint: allow=R6 convergence study needs point-wise
                    out.append(network.solve(inputs[index]))
                return out
        """
        assert not findings_for(source, "repro.faults.campaign",
                                rule="R6")


# ----------------------------------------------------------------------
# R7 lock-discipline (graph rule)
# ----------------------------------------------------------------------
class TestLockDisciplineRule:
    # The PR 6 long-poll bug, rediscovered by hand in PR 9: a bare
    # Condition.wait on a condition shared by every job, so any other
    # job's event wakes it into an early empty return.
    EVENTS_SINCE_BUG = """
        import threading

        class JobManager:
            def __init__(self):
                self._lock = threading.Lock()
                self._wake = threading.Condition(self._lock)
                self._events = {}

            def events_since(self, job_id, cursor, timeout):
                with self._wake:
                    events = self._events.get(job_id, [])[cursor:]
                    if not events:
                        self._wake.wait(timeout)
                        events = self._events.get(job_id, [])[cursor:]
                    return events
    """

    EVENTS_SINCE_FIXED = """
        import threading

        class JobManager:
            def __init__(self):
                self._lock = threading.Lock()
                self._wake = threading.Condition(self._lock)
                self._events = {}

            def events_since(self, job_id, cursor, timeout):
                with self._wake:
                    self._wake.wait_for(
                        lambda: len(self._events.get(job_id, [])) > cursor,
                        timeout,
                    )
                    return self._events.get(job_id, [])[cursor:]
    """

    def test_pr9_events_since_bug_flagged(self):
        found = findings_for(self.EVENTS_SINCE_BUG,
                             "repro.service.fixture", rule="R7")
        assert len(found) == 1
        assert "bare Condition.wait" in found[0].message
        assert "wait_for" in found[0].message

    def test_wait_for_fix_is_clean(self):
        assert not findings_for(self.EVENTS_SINCE_FIXED,
                                "repro.service.fixture", rule="R7")

    def test_while_predicate_loop_is_clean(self):
        source = """
            import threading

            class Queue:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition(self._lock)
                    self._items = []

                def pop(self):
                    with self._cond:
                        while not self._items:
                            self._cond.wait()
                        return self._items.pop()
        """
        assert not findings_for(source, "repro.service.fixture",
                                rule="R7")

    def test_unguarded_read_of_guarded_attr_flagged(self):
        source = """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}

                def put(self, key, value):
                    with self._lock:
                        self._data[key] = value

                def peek(self, key):
                    return self._data.get(key)
        """
        found = findings_for(source, "repro.service.fixture", rule="R7")
        assert len(found) == 1
        assert "_data" in found[0].message
        assert "peek" in found[0].message

    def test_lock_held_helper_fixpoint_clean(self):
        # _append is only ever called from inside the locked region,
        # and nothing outside the class calls it: the "# Caller holds
        # the lock" convention, proven instead of trusted.
        source = """
            import threading

            class Log:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._events = []

                def record(self, event):
                    with self._lock:
                        self._events.append("pre")
                        self._append(event)

                def _append(self, event):
                    self._events.append(event)
        """
        assert not findings_for(source, "repro.service.fixture",
                                rule="R7")

    def test_helper_with_unlocked_call_site_flagged(self):
        source = """
            import threading

            class Log:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._events = []

                def record(self, event):
                    with self._lock:
                        self._events.append("pre")
                        self._append(event)

                def record_unlocked(self, event):
                    self._append(event)

                def _append(self, event):
                    self._events.append(event)
        """
        found = findings_for(source, "repro.service.fixture", rule="R7")
        assert found, "helper with an unlocked call site must be flagged"
        assert any("_events" in f.message for f in found)

    def test_notify_outside_lock_flagged(self):
        source = """
            import threading

            class Waker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition(self._lock)
                    self._ready = False

                def arm(self):
                    with self._cond:
                        self._ready = True
                    self._cond.notify_all()
        """
        found = findings_for(source, "repro.service.fixture", rule="R7")
        assert len(found) == 1
        assert "notify" in found[0].message

    def test_notify_inside_lock_clean(self):
        source = """
            import threading

            class Waker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition(self._lock)
                    self._ready = False

                def arm(self):
                    with self._cond:
                        self._ready = True
                        self._cond.notify_all()
        """
        assert not findings_for(source, "repro.service.fixture",
                                rule="R7")

    def test_inherited_lock_guards_subclass(self):
        # The lock lives in the base class; the subclass writes under
        # it in one method and reads bare in another — inheritance
        # must not launder the discipline (the metrics.py bug family).
        source = """
            import threading

            class Base:
                def __init__(self):
                    self._lock = threading.Lock()

            class Child(Base):
                def __init__(self):
                    super().__init__()
                    self._values = {}

                def inc(self, key):
                    with self._lock:
                        self._values[key] = 1

                def value(self, key):
                    return self._values.get(key)
        """
        found = findings_for(source, "repro.obs.fixture", rule="R7")
        assert len(found) == 1
        assert "_values" in found[0].message

    def test_init_writes_exempt(self):
        source = """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}
                    self._data["boot"] = True

                def put(self, key, value):
                    with self._lock:
                        self._data[key] = value
        """
        assert not findings_for(source, "repro.service.fixture",
                                rule="R7")


# ----------------------------------------------------------------------
# R8 thread/executor lifecycle (graph rule)
# ----------------------------------------------------------------------
class TestThreadLifecycleRule:
    def test_executor_without_shutdown_flagged(self):
        source = """
            from concurrent.futures import ProcessPoolExecutor

            def run(tasks):
                executor = ProcessPoolExecutor(max_workers=2)
                return [executor.submit(t) for t in tasks]
        """
        found = findings_for(source, "repro.runtime.fixture", rule="R8")
        assert len(found) == 1
        assert "ProcessPoolExecutor" in found[0].message

    def test_with_block_clean(self):
        source = """
            from concurrent.futures import ProcessPoolExecutor

            def run(tasks):
                with ProcessPoolExecutor(max_workers=2) as executor:
                    return [f.result() for f in map(executor.submit, tasks)]
        """
        assert not findings_for(source, "repro.runtime.fixture",
                                rule="R8")

    def test_class_scoped_shutdown_clean(self):
        source = """
            from concurrent.futures import ProcessPoolExecutor

            class Pool:
                def start(self):
                    self._executor = ProcessPoolExecutor(max_workers=2)

                def stop(self):
                    self._executor.shutdown(wait=True)
        """
        assert not findings_for(source, "repro.runtime.fixture",
                                rule="R8")

    def test_factory_with_module_teardown_clean(self):
        # The warm-pool pattern: a factory returns the executor and a
        # sibling helper owns the teardown.
        source = """
            from concurrent.futures import ProcessPoolExecutor

            def acquire(workers):
                return ProcessPoolExecutor(max_workers=workers)

            def release(executor):
                executor.shutdown(wait=False)
        """
        assert not findings_for(source, "repro.runtime.fixture",
                                rule="R8")

    def test_bare_factory_without_teardown_flagged(self):
        source = """
            from concurrent.futures import ProcessPoolExecutor

            def acquire(workers):
                return ProcessPoolExecutor(max_workers=workers)
        """
        found = findings_for(source, "repro.runtime.fixture", rule="R8")
        assert len(found) == 1

    def test_project_server_subclass_resolved(self):
        # Constructing a *subclass* of ThreadingHTTPServer is only
        # visible through the index's class hierarchy.
        source = """
            from http.server import ThreadingHTTPServer

            class ApiServer(ThreadingHTTPServer):
                daemon_threads = True

            def serve(address):
                server = ApiServer(address, None)
                server.serve_forever()
        """
        found = findings_for(source, "repro.service.fixture", rule="R8")
        assert len(found) == 1
        assert "ThreadingHTTPServer" in found[0].message

    def test_non_daemon_thread_without_join_flagged(self):
        source = """
            import threading

            def start(worker):
                thread = threading.Thread(target=worker)
                thread.start()
        """
        found = findings_for(source, "repro.service.fixture", rule="R8")
        assert len(found) == 1
        assert "join" in found[0].message

    def test_daemon_thread_clean(self):
        source = """
            import threading

            def start(worker):
                thread = threading.Thread(target=worker, daemon=True)
                thread.start()
        """
        assert not findings_for(source, "repro.service.fixture",
                                rule="R8")

    def test_thread_with_class_join_clean(self):
        source = """
            import threading

            class Runner:
                def start(self, worker):
                    self._thread = threading.Thread(target=worker)
                    self._thread.start()

                def shutdown(self):
                    self._thread.join(timeout=5)
        """
        assert not findings_for(source, "repro.service.fixture",
                                rule="R8")


# ----------------------------------------------------------------------
# R9 cross-module determinism taint (graph rule)
# ----------------------------------------------------------------------
class TestDeterminismTaintRule:
    def _tree(self, tmp_path, files):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        for name, source in files.items():
            (pkg / name).write_text(textwrap.dedent(source))
        return pkg

    def test_cross_module_adjacency_flagged(self, tmp_path):
        pkg = self._tree(tmp_path, {
            "clockmod.py": """
                import time

                def stamp():
                    return time.time()
            """,
            "keys.py": """
                from pkg.clockmod import stamp

                def canonical(value):
                    return repr(value)

                def make_key(payload):
                    meta = stamp()
                    return canonical({"payload": payload, "meta": meta})
            """,
        })
        found = [f for f in analyze_paths([pkg], root=tmp_path)
                 if f.rule == "R9"]
        assert len(found) == 1
        assert found[0].module == "pkg.clockmod"
        assert "time.time()" in found[0].message
        assert "canonical" in found[0].message

    def test_direct_mix_is_zero_hops(self, tmp_path):
        pkg = self._tree(tmp_path, {
            "mix.py": """
                import time

                def canonical(value):
                    return repr(value)

                def make_key(payload):
                    return canonical((payload, time.time()))
            """,
        })
        found = [f for f in analyze_paths([pkg], root=tmp_path)
                 if f.rule == "R9"]
        assert len(found) == 1
        assert "0 hop(s)" in found[0].message

    def test_beyond_hop_bound_invisible(self, tmp_path):
        # stamp <- w1 <- w2 <- w3 <- mixer: 4 hops up, out of range.
        pkg = self._tree(tmp_path, {
            "deep.py": """
                import time

                def canonical(value):
                    return repr(value)

                def stamp():
                    return time.time()

                def w1():
                    return stamp()

                def w2():
                    return w1()

                def w3():
                    return w2()

                def make_key(payload):
                    return canonical((payload, w3()))
            """,
        })
        found = [f for f in analyze_paths([pkg], root=tmp_path)
                 if f.rule == "R9"]
        assert found == []

    def test_no_graph_disables_rule(self, tmp_path):
        pkg = self._tree(tmp_path, {
            "mix.py": """
                import time

                def canonical(value):
                    return repr(value)

                def make_key(payload):
                    return canonical((payload, time.time()))
            """,
        })
        found = [f for f in analyze_paths([pkg], root=tmp_path,
                                          graph=False)
                 if f.rule == "R9"]
        assert found == []


# ----------------------------------------------------------------------
# Suppression of graph rules (multi-rule allow lists, allow=*)
# ----------------------------------------------------------------------
class TestGraphRuleSuppression:
    STORE = """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._data = {}

            def put(self, key, value):
                with self._lock:
                    self._data[key] = value

            def peek(self, key):
                return self._data.get(key)%s
    """

    def test_multi_rule_allow_silences_graph_rule(self):
        source = self.STORE % "  # lint: allow=R1,R7 snapshot read"
        assert not findings_for(source, "repro.service.fixture",
                                rule="R7")

    def test_multi_rule_allow_is_not_a_wildcard(self):
        source = self.STORE % "  # lint: allow=R1,R8 wrong rules"
        assert findings_for(source, "repro.service.fixture", rule="R7")

    def test_star_allows_graph_rule(self):
        source = self.STORE % "  # lint: allow=*"
        assert not findings_for(source, "repro.service.fixture",
                                rule="R7")

    def test_line_above_allow_on_graph_rule(self):
        source = """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}

                def put(self, key, value):
                    with self._lock:
                        self._data[key] = value

                def peek(self, key):
                    # lint: allow=R7 lock-free snapshot by design
                    return self._data.get(key)
        """
        assert not findings_for(source, "repro.service.fixture",
                                rule="R7")

    def test_multi_rule_allow_covers_both_rules_on_one_line(self):
        # One line tripping R1; the same allow list names R1 and R7.
        source = """
            import time

            def stamp():
                return time.time()  # lint: allow=R1,R7 metadata only
        """
        assert not findings_for(source, "repro.runtime.fixture",
                                rule="R1")


# ----------------------------------------------------------------------
# Baseline rename round-trip (justifications survive module renames)
# ----------------------------------------------------------------------
class TestBaselineRename:
    def test_rename_keeps_justification(self, tmp_path):
        src_dir = tmp_path / "src" / "repro" / "runtime"
        src_dir.mkdir(parents=True)
        (src_dir / "__init__.py").write_text("")
        wall = src_dir / "wall.py"
        wall.write_text(
            "import time\n\ndef stamp():\n    return time.time()\n"
        )
        src = tmp_path / "src"
        baseline = Baseline()
        baseline.update_from(analyze_paths([src], root=tmp_path))
        fingerprint = next(iter(baseline.entries))
        baseline.entries[fingerprint]["justification"] = (
            "metadata only, argued in review"
        )

        # Rename the module: the fingerprint changes (module is part
        # of the hash) but the violation is the same one.
        wall.rename(src_dir / "clock.py")
        baseline.update_from(analyze_paths([src], root=tmp_path))

        assert len(baseline.entries) == 1
        entry = next(iter(baseline.entries.values()))
        assert entry["fingerprint"] != fingerprint
        assert entry["module"] == "repro.runtime.clock"
        assert entry["justification"] == "metadata only, argued in review"

    def test_distinct_violations_do_not_cross_match(self, tmp_path):
        src_dir = tmp_path / "src" / "repro" / "runtime"
        src_dir.mkdir(parents=True)
        (src_dir / "__init__.py").write_text("")
        (src_dir / "wall.py").write_text(
            "import time\n\ndef stamp():\n    return time.time()\n"
        )
        src = tmp_path / "src"
        baseline = Baseline()
        baseline.update_from(analyze_paths([src], root=tmp_path))
        for entry in baseline.entries.values():
            entry["justification"] = "wall-clock argued safe"

        # The old violation is *fixed* and an unrelated one appears:
        # the justification must not leak onto the new finding.
        (src_dir / "wall.py").write_text(
            "import random\n\ndef draw():\n    return random.random()\n"
        )
        baseline.update_from(analyze_paths([src], root=tmp_path))
        entry = next(iter(baseline.entries.values()))
        assert "random.random" in entry["message"]
        assert entry["justification"] == (
            "grandfathered by --update-baseline"
        )

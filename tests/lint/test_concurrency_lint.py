"""Tier C concurrency lint: each rule on synthetic trees, clean on ours."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.lint import lint_paths
from repro.lint.concurrency import lint_concurrency
from repro.lint.rules import RULES

REPRO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def write(tmp_path, name: str, code: str) -> Path:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    return path


def rules_of(report):
    return [d.rule for d in report.diagnostics]


class TestLockOrderCycle:
    """An inversion fails as a nesting: the rule is stricter than a
    cycle check."""

    def test_planted_inversion_reported(self, tmp_path):
        write(tmp_path, "inverted.py", """\
            import threading


            class Inverted:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def backward(self):
                    with self._b:
                        with self._a:
                            pass
            """)
        report = lint_concurrency([tmp_path])
        assert not report.ok
        assert rules_of(report) == ["conc.nested-lock"] * 2
        assert {(e.source, e.target) for e in report.edges} == \
            {("Inverted._a", "Inverted._b"), ("Inverted._b", "Inverted._a")}
        assert "Inverted._b is acquired" in report.diagnostics[0].message

    def test_inversion_through_method_calls(self, tmp_path):
        # Neither method nests two `with` statements directly; the
        # inversion only exists across the call graph.
        write(tmp_path, "indirect.py", """\
            import threading


            class Inner:
                def __init__(self):
                    self._lock = threading.Lock()

                def poke(self):
                    with self._lock:
                        pass


            class Outer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._inner = Inner()

                def down(self):
                    with self._lock:
                        self._inner.poke()

                def up(self):
                    with self._inner._lock:
                        self.touch()

                def touch(self):
                    with self._lock:
                        pass
            """)
        report = lint_concurrency([tmp_path])
        assert set(rules_of(report)) == {"conc.nested-lock"}
        assert {(e.source, e.target, e.via) for e in report.edges} == {
            ("Outer._lock", "Inner._lock", "Inner.poke"),
            ("Inner._lock", "Outer._lock", "Outer.touch")}

    def test_consistent_order_is_reported(self, tmp_path):
        write(tmp_path, "ordered.py", """\
            import threading


            class Ordered:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._a:
                        with self._b:
                            pass
            """)
        report = lint_concurrency([tmp_path])
        assert not report.ok
        assert rules_of(report) == ["conc.nested-lock"] * 2
        assert [(e.source, e.target) for e in report.edges] == \
            [("Ordered._a", "Ordered._b")] * 2


class TestSelfDeadlock:
    def test_plain_lock_reacquired_reported(self, tmp_path):
        write(tmp_path, "again.py", """\
            import threading


            class Again:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """)
        report = lint_concurrency([tmp_path])
        assert "conc.self-deadlock" in rules_of(report)

    def test_rlock_reentrancy_allowed(self, tmp_path):
        write(tmp_path, "reentrant.py", """\
            import threading


            class Reentrant:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """)
        assert lint_concurrency([tmp_path]).ok


class TestAcquireRelease:
    def test_acquire_without_release_reported(self, tmp_path):
        write(tmp_path, "leak.py", """\
            import threading


            class Leak:
                def __init__(self):
                    self._lock = threading.Lock()

                def bad(self):
                    self._lock.acquire()
                    self._lock.release()
            """)
        report = lint_concurrency([tmp_path])
        assert "conc.acquire-no-release" in rules_of(report)

    def test_try_finally_release_is_clean(self, tmp_path):
        write(tmp_path, "held.py", """\
            import threading


            class Held:
                GUARDED_BY = {"state": "_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self.state = 0

                def good(self):
                    self._lock.acquire()
                    try:
                        self.state += 1
                    finally:
                        self._lock.release()
            """)
        assert lint_concurrency([tmp_path]).ok


class TestGuardedFields:
    def test_planted_unguarded_write_reported(self, tmp_path):
        write(tmp_path, "racy.py", """\
            import threading


            class Racy:
                GUARDED_BY = {"shared": "_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self.shared = []

                def bad(self):
                    self.shared.append(1)
            """)
        report = lint_concurrency([tmp_path])
        assert not report.ok
        assert rules_of(report) == ["conc.unguarded-field"]
        assert "mutated" in report.diagnostics[0].message

    def test_guarded_comment_annotation_form(self, tmp_path):
        write(tmp_path, "commented.py", """\
            import threading


            class Commented:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.shared = 0  # guarded-by: _lock

                def bad(self):
                    return self.shared
            """)
        report = lint_concurrency([tmp_path])
        assert rules_of(report) == ["conc.unguarded-field"]
        assert "read" in report.diagnostics[0].message

    def test_lockfree_read_waiver(self, tmp_path):
        write(tmp_path, "waived.py", """\
            import threading


            class Waived:
                GUARDED_BY = {"shared": "_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self.shared = {}

                def fast(self):
                    return self.shared.get("x")  # lockfree-read

                def slow(self):
                    with self._lock:
                        self.shared["x"] = 1
            """)
        assert lint_concurrency([tmp_path]).ok

    def test_lockfree_read_never_waives_mutation(self, tmp_path):
        write(tmp_path, "cheat.py", """\
            import threading


            class Cheat:
                GUARDED_BY = {"shared": "_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self.shared = {}

                def sneaky(self):
                    self.shared.update(x=1)  # lockfree-read
            """)
        report = lint_concurrency([tmp_path])
        assert rules_of(report) == ["conc.unguarded-field"]

    def test_condition_guards_and_orders_like_a_lock(self, tmp_path):
        write(tmp_path, "pool.py", """\
            import threading


            class Pool:
                GUARDED_BY = {"idle": "_pool"}

                def __init__(self):
                    self._pool = threading.Condition()
                    self._lock = threading.Lock()
                    self.idle = []

                def take(self):
                    with self._pool:
                        while not self.idle:
                            self._pool.wait()
                        return self.idle.pop()

                def nested(self):
                    with self._pool:
                        with self._lock:
                            pass

                def bad(self):
                    self.idle.append(1)
            """)
        report = lint_concurrency([tmp_path])
        assert sorted(rules_of(report)) == \
            ["conc.nested-lock", "conc.unguarded-field"]
        assert [(e.source, e.target) for e in report.edges] == \
            [("Pool._pool", "Pool._lock")]

    def test_unknown_guard_reported(self, tmp_path):
        write(tmp_path, "ghost.py", """\
            import threading


            class Ghost:
                GUARDED_BY = {"shared": "_no_such_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self.shared = 0
            """)
        report = lint_concurrency([tmp_path])
        assert "conc.unknown-guard" in rules_of(report)


class TestHolds:
    def test_holds_violation_reported(self, tmp_path):
        write(tmp_path, "helper.py", """\
            import threading


            class Helper:
                GUARDED_BY = {"shared": "_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self.shared = 0

                def _bump(self):  # holds: _lock
                    self.shared += 1

                def good(self):
                    with self._lock:
                        self._bump()

                def bad(self):
                    self._bump()
            """)
        report = lint_concurrency([tmp_path])
        assert rules_of(report) == ["conc.holds-violation"]

    def test_holds_does_not_fake_self_deadlock(self, tmp_path):
        # A `# holds:` helper is *entered with* the lock, it does not
        # acquire it — calling it under the lock must stay clean.
        write(tmp_path, "entered.py", """\
            import threading


            class Entered:
                def __init__(self):
                    self._lock = threading.Lock()

                def _inner(self):  # holds: _lock
                    pass

                def run(self):
                    with self._lock:
                        self._inner()
            """)
        assert lint_concurrency([tmp_path]).ok


class TestInventory:
    def test_module_and_attribute_identities(self, tmp_path):
        write(tmp_path, "inv.py", """\
            import threading

            GLOBAL_LOCK = threading.Lock()


            class Owner:
                def __init__(self):
                    self._lock = threading.RLock()
                    self._stop = threading.Event()
            """)
        report = lint_concurrency([tmp_path])
        identities = {p.identity: p.kind for p in report.primitives}
        assert identities == {
            "inv:GLOBAL_LOCK": "Lock",
            "Owner._lock": "RLock",
            "Owner._stop": "Event",
        }

    def test_every_diagnostic_rule_is_catalogued(self, tmp_path):
        write(tmp_path, "mixed.py", """\
            import threading


            class Mixed:
                GUARDED_BY = {"shared": "_a"}

                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self.shared = 0

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._b:
                        with self._a:
                            pass

                def three(self):
                    self.shared = 9
                    self._a.acquire()
                    self._a.release()
            """)
        report = lint_concurrency([tmp_path])
        assert not report.ok
        for diagnostic in report.diagnostics:
            assert diagnostic.rule in RULES
            assert diagnostic.rule.startswith("conc.")
        payload = report.to_dict()
        assert json.dumps(payload)  # JSON-ready
        assert payload["ok"] is False


class TestOnRealSources:
    def test_src_repro_lock_discipline_is_clean(self):
        report = lint_concurrency([REPRO_SRC])
        assert [d.format() for d in report.diagnostics] == []
        assert report.ok

    def test_src_repro_inventory_covers_known_locks(self):
        report = lint_concurrency([REPRO_SRC])
        identities = {p.identity for p in report.primitives}
        assert {"PlanCache._lock",
                "BlockCache._lock", "MetricsRegistry._lock",
                "WorkloadJournal._lock", "ShardedDatabase._pool",
                "ShardWorker.lock", "cli:_SERVE_STOP"} <= identities

    def test_static_graph_is_flat(self):
        """The hierarchy is flat: no lock is held while another is
        taken, so no order can invert."""
        report = lint_concurrency([REPRO_SRC])
        assert report.edges == []
        assert "conc.nested-lock" not in rules_of(report)
        assert "levels" not in report.to_dict()


class TestUntrackedPrimitiveTierB:
    def test_inventoried_positions_are_clean(self, tmp_path):
        write(tmp_path, "fine.py", """\
            import threading

            MODULE_LOCK = threading.Lock()


            class Fine:
                CLASS_LOCK = threading.Lock()

                def __init__(self):
                    self._lock = threading.Lock()
                    thread = threading.Thread(target=print)
                    self._thread = thread
            """)
        assert lint_paths([tmp_path]) == []

    def test_untracked_primitive_reported(self, tmp_path):
        write(tmp_path, "hidden.py", """\
            import threading


            def helper():
                lock = threading.Lock()
                return lock
            """)
        diagnostics = lint_paths([tmp_path])
        assert [d.rule for d in diagnostics] == \
            ["src.untracked-threading-primitive"]

    def test_from_import_alias_tracked(self, tmp_path):
        write(tmp_path, "aliased.py", """\
            from threading import Lock as L


            def helper():
                return [L() for _ in range(2)]
            """)
        diagnostics = lint_paths([tmp_path])
        assert [d.rule for d in diagnostics] == \
            ["src.untracked-threading-primitive"]


class TestCli:
    def test_exit_zero_and_json_on_clean_tree(self, tmp_path):
        import io

        from repro.cli import main
        write(tmp_path, "clean.py", """\
            import threading


            class Clean:
                def __init__(self):
                    self._lock = threading.Lock()
            """)
        out = io.StringIO()
        assert main(["lint-concurrency", str(tmp_path), "--json"],
                    out=out) == 0
        payload = json.loads(out.getvalue())
        assert payload["ok"] is True
        assert payload["primitives"][0]["identity"] == "Clean._lock"

    def test_exit_one_on_planted_inversion(self, tmp_path):
        import io

        from repro.cli import main
        write(tmp_path, "planted.py", """\
            import threading


            class Planted:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._b:
                        with self._a:
                            pass
            """)
        out = io.StringIO()
        assert main(["lint-concurrency", str(tmp_path)],
                    out=out) == 1
        assert "conc.nested-lock" in out.getvalue()

    def test_exit_one_on_planted_unguarded_write(self, tmp_path):
        import io

        from repro.cli import main
        write(tmp_path, "write.py", """\
            import threading


            class Write:
                GUARDED_BY = {"shared": "_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self.shared = 0

                def bad(self):
                    self.shared = 1
            """)
        out = io.StringIO()
        assert main(["lint-concurrency", str(tmp_path)],
                    out=out) == 1
        assert "conc.unguarded-field" in out.getvalue()

    def test_repo_sources_pass_via_cli(self):
        import io

        from repro.cli import main
        out = io.StringIO()
        assert main(["lint-concurrency", str(REPRO_SRC)],
                    out=out) == 0
        assert "0 diagnostic(s)" in out.getvalue()

"""Tier B source lint: each rule on synthetic trees, clean on ours."""

from __future__ import annotations

from pathlib import Path

import textwrap

from repro.lint import lint_paths

REPRO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def write(tmp_path, name: str, code: str) -> Path:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    return path


def rules_of(diagnostics):
    return [d.rule for d in diagnostics]


class TestOperatorInvariants:
    def test_missing_rows_reported(self, tmp_path):
        write(tmp_path, "ops.py", """\
            class Operator:
                def _batches(self, size):
                    raise NotImplementedError

            class Broken(Operator):
                def other(self):
                    return []
            """)
        diagnostics = lint_paths([tmp_path])
        assert rules_of(diagnostics) == ["src.operator-rows"]
        assert "Broken" in diagnostics[0].message

    def test_iter_override_reported(self, tmp_path):
        write(tmp_path, "ops.py", """\
            class Operator:
                def _batches(self, size):
                    raise NotImplementedError

            class Sneaky(Operator):
                def _batches(self, size):
                    return iter(())

                def __iter__(self):
                    return iter(())
            """)
        assert rules_of(lint_paths([tmp_path])) == \
            ["src.operator-iter-override"]

    def test_rows_only_operator_reported(self, tmp_path):
        """A ``_rows`` method is not the protocol: same error."""
        write(tmp_path, "ops.py", """\
            class Operator:
                def _batches(self, size):
                    raise NotImplementedError

            class Legacy(Operator):
                def _rows(self):
                    return iter(())
            """)
        diagnostics = lint_paths([tmp_path])
        assert rules_of(diagnostics) == ["src.operator-rows"]
        assert diagnostics[0].severity == "error"
        assert "Legacy" in diagnostics[0].message

    def test_conforming_operator_is_clean(self, tmp_path):
        write(tmp_path, "ops.py", """\
            class Operator:
                def _batches(self, size):
                    raise NotImplementedError

            class Fine(Operator):
                def _batches(self, size):
                    return iter(())
            """)
        assert lint_paths([tmp_path]) == []


class TestCodecProperties:
    def test_registered_codec_without_properties_reported(self, tmp_path):
        write(tmp_path, "codecs.py", """\
            class Codec:
                properties = None

            class Bare(Codec):
                name = "bare"
            """)
        write(tmp_path, "registry.py", """\
            from codecs import Bare

            _REGISTRY = {Bare.name: Bare}
            """)
        diagnostics = lint_paths([tmp_path])
        assert rules_of(diagnostics) == ["src.codec-properties"]
        assert "Bare" in diagnostics[0].message

    def test_properties_via_ancestor_accepted(self, tmp_path):
        """Declaring the capability tuple on an intermediate base class
        (below the Codec root) satisfies the rule."""
        write(tmp_path, "codecs.py", """\
            class Codec:
                pass

            class StringCodec(Codec):
                properties = "CompressionProperties(eq=True)"

            class Derived(StringCodec):
                name = "derived"
            """)
        write(tmp_path, "registry.py", """\
            _REGISTRY = {"derived": Derived}
            """)
        assert lint_paths([tmp_path]) == []

    def test_unregistered_class_not_required(self, tmp_path):
        write(tmp_path, "codecs.py", """\
            class Codec:
                pass

            class Helper(Codec):
                name = "helper"
            """)
        assert lint_paths([tmp_path]) == []


class TestRawDecode:
    def test_decode_in_operator_body_reported(self, tmp_path):
        write(tmp_path, "query/physical.py", """\
            class Operator:
                def _batches(self, size):
                    raise NotImplementedError

            class Leaky(Operator):
                def _batches(self, size):
                    yield {"v": self._codec.decode(b"x")}
            """)
        diagnostics = lint_paths([tmp_path])
        assert rules_of(diagnostics) == ["src.raw-decode"]
        assert "Leaky" in diagnostics[0].message

    def test_sanctioned_sites_accepted(self, tmp_path):
        write(tmp_path, "query/physical.py", """\
            class Operator:
                def _batches(self, size):
                    raise NotImplementedError

            class Decompress(Operator):
                def _batches(self, size):
                    yield {"v": self._codec.decode(b"x")}

            class TextContent(Operator):
                def _batches(self, size):
                    yield {"v": self._codec.decode(b"x")}
            """)
        assert lint_paths([tmp_path]) == []

    def test_decode_outside_physical_py_not_flagged(self, tmp_path):
        write(tmp_path, "storage.py", """\
            class Operator:
                def _batches(self, size):
                    raise NotImplementedError

            class Container(Operator):
                def _batches(self, size):
                    yield self._codec.decode(b"x")
            """)
        assert lint_paths([tmp_path]) == []


class TestPythonFootguns:
    def test_bare_except_reported(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f():
                try:
                    return 1
                except:
                    return 2
            """)
        diagnostics = lint_paths([tmp_path])
        assert rules_of(diagnostics) == ["src.bare-except"]
        assert diagnostics[0].line == 4

    def test_typed_except_accepted(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f():
                try:
                    return 1
                except ValueError:
                    return 2
            """)
        assert lint_paths([tmp_path]) == []

    def test_mutable_default_reported(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(items=[], *, table={}, factory=list()):
                return items, table, factory
            """)
        diagnostics = lint_paths([tmp_path])
        assert rules_of(diagnostics) == ["src.mutable-default"] * 3

    def test_none_default_accepted(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(items=None, name="x", count=0):
                return items, name, count
            """)
        assert lint_paths([tmp_path]) == []


class TestOnRealSources:
    def test_src_repro_is_clean(self):
        """The issue's acceptance criterion: the lint runs with zero
        diagnostics on src/repro, no exclusions."""
        diagnostics = lint_paths([REPRO_SRC])
        assert diagnostics == []

    def test_diagnostics_are_sorted_and_serializable(self, tmp_path):
        write(tmp_path, "b.py", "def f(x=[]):\n    return x\n")
        write(tmp_path, "a.py", "def g(y={}):\n    return y\n")
        diagnostics = lint_paths([tmp_path])
        files = [Path(d.file).name for d in diagnostics]
        assert files == ["a.py", "b.py"]
        for diagnostic in diagnostics:
            doc = diagnostic.to_dict()
            assert doc["rule"] == "src.mutable-default"
            assert isinstance(doc["line"], int)
            assert diagnostic.format().startswith(diagnostic.file)

"""Tests for ExecutionOptions and the entry points accepting it."""

import dataclasses

import pytest

from repro.obs.telemetry import Telemetry
from repro.query.engine import QueryEngine
from repro.query.options import ExecutionOptions
from repro.service.session import Session
from repro.storage.loader import load_document

DOC = """
<library>
  <book isbn="1"><title>Dune</title><price>9.99</price></book>
  <book isbn="2"><title>Foundation</title><price>7.5</price></book>
</library>
"""


@pytest.fixture(scope="module")
def repository():
    return load_document(DOC)


class TestExecutionOptions:
    def test_defaults(self):
        options = ExecutionOptions()
        assert options.telemetry is None
        assert options.use_plan_cache is True
        assert options.use_block_cache is True
        assert options.bindings is None
        assert [f.name for f in dataclasses.fields(options)] == [
            "telemetry", "use_plan_cache", "use_block_cache", "bindings"]

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionOptions().telemetry = Telemetry()

    def test_with_telemetry(self, repository):
        """``telemetry`` is the one tracing switch: given, the run
        records into it; absent, the run has none."""
        telemetry = Telemetry()
        engine = QueryEngine(repository)
        traced = engine.execute("/library/book/title",
                                ExecutionOptions(telemetry=telemetry))
        assert traced.telemetry is telemetry
        assert telemetry.stats is traced.stats
        assert telemetry.tracer.roots[0].name == "Execute"
        assert engine.execute("/library/book/title").telemetry is None

    def test_binding_environment_wraps_scalars(self):
        options = ExecutionOptions(
            bindings={"who": "Alice", "both": ["a", "b"]})
        env = options.binding_environment()
        assert env == {"who": ["Alice"], "both": ["a", "b"]}

    def test_binding_environment_empty(self):
        assert ExecutionOptions().binding_environment() == {}


class TestLegacyShims:
    """The ``telemetry=`` keyword shims are gone: options travel as
    one object and any other keyword is the signature's TypeError."""

    def test_unknown_keyword_still_typeerror(self, repository):
        telemetry = Telemetry()
        with pytest.raises(TypeError):
            QueryEngine(repository).execute("/library/book",
                                            telemetry=telemetry)
        with pytest.raises(TypeError):
            Session(repository).execute("/library/book", wrong_kwarg=1)
        # the three retired tracing switches
        with pytest.raises(TypeError):
            ExecutionOptions(telemetry_enabled=True)
        with pytest.raises(TypeError):
            Session(repository, telemetry_enabled=True)
        with pytest.raises(TypeError):
            QueryEngine(repository, telemetry_enabled=True)
        with pytest.raises(TypeError):
            Telemetry(enabled=True)

    def test_new_api_emits_no_warning(self, repository, recwarn):
        engine = QueryEngine(repository)
        engine.execute("/library/book/title",
                       ExecutionOptions(
                           telemetry=Telemetry()))
        assert not recwarn.list

"""Staleness regression: cache invalidation must drop array memos.

``ValueContainer.as_arrays()`` memoizes its :class:`ContainerArrays`
on the container itself.  Invalidating the serving caches once evicted
only the block cache's entries — the memo survived, so the bytes stayed
resident and the next batch access resurrected the stale view instead
of rebuilding it.  ``invalidate_caches`` (Session and Database) drops
the memos too; the block cache itself holds decoded records only.
"""

import pytest

from repro.service.session import Database, Session
from repro.storage.loader import load_document

XML = (
    "<site><people>"
    + "".join(f"<person><name>n{i:03d}</name><age>{20 + i}</age>"
              "</person>" for i in range(40))
    + "</people></site>"
)


@pytest.fixture()
def repository():
    return load_document(XML)


def _an_arrays_path(repository):
    for container in repository.containers():
        if not container.is_blob:
            return container.path
    raise AssertionError("no non-blob container in fixture")


class TestContainerDropArrays:
    def test_drop_arrays_forces_rebuild(self, repository):
        container = repository.container(_an_arrays_path(repository))
        first = container.as_arrays()
        assert container.as_arrays() is first  # memoized
        container.drop_arrays()
        rebuilt = container.as_arrays()
        assert rebuilt is not first
        assert (rebuilt.parent_ids == first.parent_ids).all()

    def test_repository_drop_array_views_covers_all(self, repository):
        views = {c.path: c.as_arrays() for c in repository.containers()
                 if not c.is_blob}
        repository.drop_array_views()
        for container in repository.containers():
            if container.is_blob:
                continue
            assert container.as_arrays() is not views[container.path]


    def test_drop_arrays_releases_the_substring_index(self, repository):
        container = repository.container("/site/people/person/name/#text")
        assert container._substring_index is None  # lazy
        found = container.substring_candidates("n00")
        assert len(found) == 10
        index = container._substring_index
        container.substring_candidates("n01")
        assert container._substring_index is index  # memoized
        repository.drop_array_views()
        assert container._substring_index is None
        assert (container.substring_candidates("n00") == found).all()


def test_only_a_substring_term_builds_an_index(tmp_path):
    """Loading, saving, opening and every XMark query but Q14 leave
    every container without a q-gram index: what the index costs is
    paid by the queries it serves, and never stored."""
    from repro.storage.serialization import save_repository
    from repro.xmark.generator import generate_xmark
    from repro.xmark.queries import XMARK_QUERIES, query_text

    def indexed(repo):
        return [c.path for c in repo.containers()
                if c._substring_index is not None]

    loaded = load_document(generate_xmark(0.004, seed=3))
    save_repository(loaded, tmp_path / "x.xqc")
    database = Database.open(tmp_path / "x.xqc")
    session = database.session()
    for query_id in XMARK_QUERIES:
        if query_id != "Q14":
            session.execute(query_text(query_id)).to_xml()
    assert indexed(loaded) == indexed(database.repository) == []
    session.execute(query_text("Q14")).to_xml()
    built = indexed(database.repository)
    assert built and all(path.endswith("/description/text/#text")
                         for path in built)
    # Runs with and without the block cache share it.
    from repro.query.options import ExecutionOptions
    before = [database.repository.container(p)._substring_index
              for p in built]
    session.execute(query_text("Q14"),
                    ExecutionOptions(use_block_cache=False)).to_xml()
    assert all(database.repository.container(p)._substring_index is b
               for p, b in zip(built, before))
    size = (tmp_path / "x.xqc").stat().st_size
    save_repository(database.repository, tmp_path / "y.xqc")
    assert (tmp_path / "y.xqc").stat().st_size == size


class TestServingInvalidation:
    def test_session_invalidate_drops_memoized_views(self, repository):
        session = Session(repository)
        session.execute("/site/people/person/name/text()").to_xml()
        container = repository.container(_an_arrays_path(repository))
        first = container.as_arrays()
        assert container.as_arrays() is first  # memoized
        session.invalidate_caches()
        assert session.block_cache.used_bytes == 0
        assert container.as_arrays() is not first  # memo gone, rebuilt

    def test_database_invalidate_reaches_every_session(self, repository):
        db = Database(repository)
        sessions = [db.session(), db.session()]
        path = _an_arrays_path(repository)
        views = [s.repository.container(path).as_arrays()
                 for s in sessions]
        assert views[0] is views[1]  # one shared repository
        db.invalidate_caches()
        for session in sessions:
            rebuilt = session.repository.container(path).as_arrays()
            assert rebuilt is not views[0]

    def test_rebuild_is_identical(self, repository):
        path = _an_arrays_path(repository)
        first = repository.container(path).as_arrays()
        repository.drop_array_views()
        rebuilt = repository.container(path).as_arrays()
        assert (rebuilt.parent_ids == first.parent_ids).all()
        assert rebuilt.count == first.count

"""``XQueCSystem``: loader/compressor + repository + query processor.

The one-stop public API mirroring the paper's three modules (§1.1):

1. the *loader and compressor* — :meth:`XQueCSystem.load`, optionally
   driven by a query workload through the §3 cost-based greedy search;
2. the *compressed repository* — :attr:`XQueCSystem.repository`;
3. the *query processor* — :meth:`XQueCSystem.query`.

Typical use::

    system = XQueCSystem.load(xml_text, workload_queries=[q1, q2])
    result = system.query(q1)
    print(result.to_xml(), system.compression_factor)
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.partitioning.config import (
    CompressionConfiguration,
    ContainerGroup,
)
from repro.partitioning.cost import ContainerProfile
from repro.partitioning.search import DEFAULT_ALGORITHMS, greedy_search
from repro.partitioning.workload import Predicate, Workload
from repro.query.ast import (
    Comparison,
    Expression,
    FLWOR,
    FunctionCall,
    PathExpr,
    StringLiteral,
    NumberLiteral,
    VarRef,
)
from repro.query.engine import QueryResult
from repro.query.optimizer import leaf_summary_steps
from repro.query.options import ExecutionOptions
from repro.query.parser import parse_query
from repro.storage.loader import load_document
from repro.storage.repository import CompressedRepository, SizeReport


class XQueCSystem:
    """A loaded, compressed, queryable XML document.

    Query evaluation goes through an internal serving
    :class:`~repro.service.session.Session`, so repeated queries hit
    the prepared-plan cache and the decoded-block cache; the session
    (and its metrics registry with the ``cache.*`` counters) is exposed
    as :attr:`session`.
    """

    def __init__(self, repository: CompressedRepository,
                 configuration: CompressionConfiguration | None = None,
                 workload: Workload | None = None,
                 collection: dict[str, CompressedRepository]
                 | None = None):
        from repro.service.session import Session
        self.repository = repository
        self.configuration = configuration
        self.workload = workload
        self.session = Session(repository, collection)

    @property
    def _engine(self):
        """The session's engine (kept for existing internal callers)."""
        return self.session.engine

    # -- loading -------------------------------------------------------------

    @classmethod
    def load(cls, xml_text: str,
             workload_queries: Sequence[str] | None = None,
             algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
             similarity_grouping: bool = False,
             similarity_threshold: float = 0.55,
             seed: int = 0) -> "XQueCSystem":
        """Compress a document, optionally workload-driven.

        With ``workload_queries``, the documents are first shredded to
        discover the containers, the queries' predicates are extracted
        into a :class:`Workload`, the §3.3 greedy search picks a
        configuration, and the document is loaded under it.  Without a
        workload, the §2.1 defaults apply (ALM strings, typed numeric
        codecs); ``similarity_grouping`` additionally shares one ALM
        source model among string containers whose similarity-matrix
        entries exceed ``similarity_threshold`` (fewer, better-trained
        models at no queryability cost).
        """
        if not workload_queries:
            if not similarity_grouping:
                return cls(load_document(xml_text))
            return cls(*_load_similarity_grouped(
                xml_text, similarity_threshold))
        probe = load_document(xml_text)
        workload = extract_workload(workload_queries, probe)
        profiles = [
            ContainerProfile.from_values(
                container.path,
                [v for _, v in container.scan_decoded()])
            for container in probe.containers()
            if container.path in workload.touched_paths()
        ]
        configuration, _ = greedy_search(profiles, workload,
                                         algorithms=algorithms,
                                         seed=seed)
        # Containers no query touches are outside the cost model
        # (§3.2 footnote); give them an order-unaware algorithm with a
        # good ratio — bzip2 — as §3.3 suggests.  String containers
        # only: numeric ones keep their typed codecs.
        covered = set(configuration.paths())
        extra_groups = []
        for container in probe.containers():
            if container.path in covered:
                continue
            if container.value_type != "string":
                continue
            extra_groups.append(
                ContainerGroup((container.path,), "bzip2"))
        configuration = CompressionConfiguration(
            configuration.groups + extra_groups)
        repository = load_document(xml_text,
                                   configuration=configuration)
        return cls(repository, configuration, workload)

    @classmethod
    def load_collection(cls, documents: dict[str, str],
                        default: str | None = None) -> "XQueCSystem":
        """Compress several documents; queries select them with
        ``document("name")/...`` and may join across them.

        ``default`` names the document bare ``/...`` paths address
        (the first one if omitted).
        """
        if not documents:
            raise ValueError("load_collection needs at least one "
                             "document")
        repositories = {name: load_document(text)
                        for name, text in documents.items()}
        default_name = default if default is not None \
            else next(iter(documents))
        return cls(repositories[default_name],
                   collection=repositories)

    # -- querying --------------------------------------------------------------

    def query(self, query_text: str | Expression,
              options: ExecutionOptions | None = None
              ) -> QueryResult:
        """Evaluate a query over the compressed repository.

        ``options`` is an
        :class:`~repro.query.options.ExecutionOptions`.  Runs go
        through the internal session, so re-running a query hits the
        plan cache.
        """
        return self.session.execute(query_text, options)

    def prepare(self, query_text: str | Expression):
        """Parse + verify once; returns a re-runnable
        :class:`~repro.service.session.PreparedQuery`."""
        return self.session.prepare(query_text)

    def explain(self, query_text: str | Expression) -> str:
        """Describe the evaluation strategy without running the query."""
        return self.session.explain(query_text)

    def explain_analyze(self, query_text: str | Expression) -> str:
        """Run the query and render the plan with actual counts."""
        return self.session.explain_analyze(query_text)

    # -- accounting -------------------------------------------------------------

    @property
    def compression_factor(self) -> float:
        """CF = 1 - cs/os, access structures included (§5)."""
        return self.repository.compression_factor

    def size_report(self) -> SizeReport:
        """Per-component storage breakdown (§2.2)."""
        return self.repository.size_report()


def _load_similarity_grouped(xml_text: str, threshold: float
                             ) -> tuple[CompressedRepository,
                                        CompressionConfiguration]:
    """No-workload loading with similarity-clustered source models."""
    from repro.partitioning.similarity import cluster_by_similarity
    probe = load_document(xml_text)
    string_containers = [c for c in probe.containers()
                         if c.value_type == "string"]
    value_lists = [[v for _, v in c.scan_decoded()]
                   for c in string_containers]
    clusters = cluster_by_similarity(value_lists, threshold)
    groups = [ContainerGroup(
        tuple(string_containers[i].path for i in cluster), "alm")
        for cluster in clusters if len(cluster) > 1]
    configuration = CompressionConfiguration(groups)
    repository = load_document(xml_text, configuration=configuration)
    return repository, configuration


def extract_workload(queries: Sequence[str | Expression],
                     repository: CompressedRepository) -> Workload:
    """Extract E/I/D predicates from queries against loaded containers.

    Walks each query's comparisons and ``contains``/``starts-with``
    calls, resolves the operand paths to container paths via the
    structure summary, and classifies each as ``eq``/``ineq``/``wild``
    — the input of the §3.2 cost model.
    """
    workload = Workload()
    for query in queries:
        ast = parse_query(query) if isinstance(query, str) else query
        resolver = _PathResolver(repository)
        resolver.walk(ast)
        for kind, left, right in resolver.predicates:
            for left_path in left or [None]:
                if left_path is None:
                    continue
                if right:
                    for right_path in right:
                        workload.add(Predicate(kind, left_path,
                                               right_path))
                else:
                    workload.add(Predicate(kind, left_path))
    return workload


class _PathResolver:
    """Resolves comparison operands to container paths, per variable."""

    def __init__(self, repository: CompressedRepository):
        self._repository = repository
        #: variable -> absolute summary steps it ranges over.
        self._bindings: dict[str, list[tuple[str, str]]] = {}
        #: (kind, left container paths, right container paths)
        self.predicates: list[tuple[str, list[str], list[str]]] = []

    def walk(self, expr: Expression) -> None:
        if isinstance(expr, FLWOR):
            for clause in expr.clauses:
                steps = self._absolute_steps(clause.source)
                if steps is not None:
                    self._bindings[clause.var] = steps
                self.walk(clause.source)
            if expr.where is not None:
                self.walk(expr.where)
            self.walk(expr.result)
        elif isinstance(expr, Comparison):
            kind = "eq" if expr.op in ("=", "!=") else "ineq"
            self.predicates.append((
                kind,
                self._container_paths(expr.left),
                self._container_paths(expr.right)))
        elif isinstance(expr, FunctionCall):
            # starts-with is the prefix-match ("wild") predicate kind;
            # contains() is full-text — no algorithm evaluates it in
            # the compressed domain, so it adds no E/I/D entry.
            if expr.name == "starts-with" and expr.args:
                self.predicates.append((
                    "wild", self._container_paths(expr.args[0]), []))
            for arg in expr.args:
                self.walk(arg)
        elif hasattr(expr, "__dataclass_fields__"):
            for field in expr.__dataclass_fields__:
                value = getattr(expr, field)
                if isinstance(value, Expression):
                    self.walk(value)
                elif isinstance(value, tuple):
                    for element in value:
                        if isinstance(element, Expression):
                            self.walk(element)

    def _absolute_steps(self, expr) -> list[tuple[str, str]] | None:
        if not isinstance(expr, PathExpr):
            return None
        if isinstance(expr.start, VarRef):
            base = self._bindings.get(expr.start.name)
            if base is None:
                return None
            return base + leaf_summary_steps(expr, ())
        if expr.start is None:
            return leaf_summary_steps(expr, ())
        return None

    def _container_paths(self, expr) -> list[str]:
        if isinstance(expr, (StringLiteral, NumberLiteral)):
            return []
        steps = self._absolute_steps(expr)
        if steps is None:
            return []
        nodes = self._repository.resolve_path(steps)
        return [n.container_path for n in nodes
                if n.container_path is not None]

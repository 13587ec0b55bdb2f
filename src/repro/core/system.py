"""The §3 workload-driven loader: a query workload in, a
:class:`CompressionConfiguration` out.

The paper's three modules (§1.1) are the loader
(:func:`~repro.storage.loader.load_document`), the compressed repository
and the query processor (:class:`~repro.service.session.Database` and
its sessions).  A workload-tuned load passes the configuration this
module computes to the loader::

    configuration = tuned_configuration(load_document(xml_text), [q1, q2])
    database = Database.from_xml(xml_text, configuration=configuration)
    result = database.session().execute(q1)
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.partitioning.config import (
    CompressionConfiguration,
    ContainerGroup,
)
from repro.partitioning.cost import ContainerProfile
from repro.partitioning.search import greedy_search
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
from repro.query.optimizer import leaf_summary_steps
from repro.query.parser import parse_query
from repro.storage.repository import CompressedRepository


def tuned_configuration(repository: CompressedRepository,
                        queries: Sequence[str | Expression]
                        ) -> CompressionConfiguration:
    """The §3.3 greedy search's configuration for ``queries``.

    ``repository`` is a probe load of the document (default
    configuration): it supplies the containers and their values.  The
    queries' predicates are extracted into a :class:`Workload`, the
    touched containers are profiled, and the greedy search picks their
    groups and algorithms.
    """
    workload = extract_workload(queries, repository)
    profiles = [
        ContainerProfile.from_values(
            container.path,
            [v for _, v in container.scan_decoded()])
        for container in repository.containers()
        if container.path in workload.touched_paths()
    ]
    configuration, _ = greedy_search(profiles, workload)
    # Containers no query touches are outside the cost model
    # (§3.2 footnote); give them an order-unaware algorithm with a
    # good ratio — bzip2 — as §3.3 suggests.  String containers
    # only: numeric ones keep their typed codecs.
    covered = set(configuration.paths())
    extra_groups = []
    for container in repository.containers():
        if container.path in covered:
            continue
        if container.value_type != "string":
            continue
        extra_groups.append(
            ContainerGroup((container.path,), "bzip2"))
    return CompressionConfiguration(configuration.groups + extra_groups)


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

"""Compile a query's chosen evaluation strategies into a plan sketch.

The declarative engine (:mod:`repro.query.engine`) never materializes a
physical operator tree — it interprets the AST, consulting the
optimizer for access paths.  To gate execution on the Tier-A plan
verifier anyway, this module re-derives those optimizer decisions
(exactly the analysis :mod:`repro.query.explain` renders) and builds
the *plan sketch* they imply from real
:mod:`repro.query.physical` operators: ``HashJoin`` for equality
conjuncts, ``ThetaJoin`` for inequality conjuncts over numeric
containers, ``StructureSummaryAccess`` for absolute paths,
``XMLSerialize`` on top.  A for-clause's constant selections are the
exception to "sketch": :func:`~repro.query.optimizer.assign_selection`
builds the ``ContAccess → Parent → NodeSet`` tree once for both sides,
so what is verified here is what the engine executes.

:func:`verify_query` is the engine's pre-execution gate and the
``repro lint-plan`` CLI entry point.
"""

from __future__ import annotations

from repro.lint.diagnostics import PlanDiagnostic
from repro.lint.plan import verify_plan
from repro.query.ast import (
    Expression,
    FLWOR,
    ForClause,
    FunctionCall,
    LetClause,
    PathExpr,
)
from repro.query.optimizer import (
    assign_selection,
    assign_theta_join,
    find_join_plan,
    flatten_conjuncts,
    free_vars,
    is_absolute_simple_path,
)
from repro.query.physical import (
    HashJoin,
    NestedLoopJoin,
    Operator,
    StructureSummaryAccess,
    XMLSerialize,
)
from repro.storage.repository import CompressedRepository


def verify_query(expr: Expression, repository: CompressedRepository,
                 collection: dict[str, CompressedRepository] | None = None
                 ) -> list[PlanDiagnostic]:
    """Statically verify the plan sketches a query would evaluate as."""
    diagnostics: list[PlanDiagnostic] = []
    for sketch in compile_plan_sketches(expr, repository, collection):
        diagnostics.extend(verify_plan(sketch))
    return diagnostics


def compile_plan_sketches(expr: Expression,
                          repository: CompressedRepository,
                          collection: dict[str, CompressedRepository]
                          | None = None) -> list[Operator]:
    """Physical plan sketches for every FLWOR/path in ``expr``."""
    compiler = _SketchCompiler(repository, collection or {})
    return compiler.compile(expr)


class OpaqueSource(Operator):
    """Stand-in for a for-clause source the compiler cannot type
    (binding-dependent or predicate-laden paths); the verifier treats
    it as an open schema."""

    def __init__(self, label: str):
        self.label = label

    def _batches(self, size):
        return iter(())


class _SketchCompiler:
    def __init__(self, repository: CompressedRepository,
                 collection: dict[str, CompressedRepository]):
        self._repository = repository
        self._collection = collection

    def _repo(self, doc: str | None) -> CompressedRepository:
        if doc is None:
            return self._repository
        return self._collection.get(doc, self._repository)

    def compile(self, expr: Expression) -> list[Operator]:
        if isinstance(expr, FLWOR):
            sketches = [self._flwor(expr)]
            sketches.extend(self.compile(expr.result))
            return sketches
        if isinstance(expr, PathExpr) and expr.start is None \
                and is_absolute_simple_path(expr) and expr.steps:
            repo = self._repo(expr.document)
            access = StructureSummaryAccess(
                repo, [(s.axis, s.test) for s in expr.steps], "$path")
            return [XMLSerialize(access, ("$path",))]
        if isinstance(expr, FunctionCall):
            return [sketch for arg in expr.args
                    for sketch in self.compile(arg)]
        return []

    # -- FLWOR ----------------------------------------------------------------

    def _flwor(self, flwor: FLWOR) -> Operator:
        plan: Operator | None = None
        pending = flatten_conjuncts(flwor.where)
        bound: set[str] = set()
        for clause in flwor.clauses:
            if isinstance(clause, LetClause):
                bound.add(clause.var)
                continue
            assert isinstance(clause, ForClause)
            decidable = [c for c in pending
                         if free_vars(c) <= bound | {clause.var}]
            pending = [c for c in pending if c not in decidable]
            joined = any(
                find_join_plan(c, clause.var, bound) is not None
                for c in decidable)
            theta = None if plan is None or joined else assign_theta_join(
                clause, decidable, bound, self._repo, left=plan)
            if theta is not None:
                # Inequality conjunct against bound variables: the
                # engine probes the sorted key containers, which also
                # produce the clause variable's nodes.
                plan = theta[1]
                bound.add(clause.var)
                continue
            clause_plan = self._clause_plan(
                clause, None if joined else decidable)
            if plan is None:
                plan = clause_plan
            elif joined:
                # Equality conjunct against bound variables: the engine
                # probes a cached build index.  Key expressions are
                # general, so the sketch leaves the columns undeclared.
                plan = HashJoin(plan, clause_plan,
                                left_key=None, right_key=None)
            else:
                plan = NestedLoopJoin(plan, clause_plan, None)
            bound.add(clause.var)
        if plan is None:
            plan = OpaqueSource("empty FLWOR")
        return XMLSerialize(plan, ())

    def _clause_plan(self, clause: ForClause,
                     decidable: list[Expression] | None) -> Operator:
        """Access path for one for-clause: the tree the evaluator runs
        for its constant selections, else its source (``decidable`` is
        ``None`` for the build side of a hash join: the plain source)."""
        selection = None if decidable is None else \
            assign_selection(clause, decidable, self._repo)
        if selection is not None:
            return selection[1]
        source = clause.source
        if isinstance(source, PathExpr) and source.start is None \
                and is_absolute_simple_path(source) and source.steps:
            repo = self._repo(source.document)
            return StructureSummaryAccess(
                repo, [(s.axis, s.test) for s in source.steps],
                f"${clause.var}")
        return OpaqueSource(f"${clause.var} in opaque source")

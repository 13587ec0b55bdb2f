"""Compile a query's chosen evaluation strategies into a plan sketch.

The declarative engine (:mod:`repro.query.engine`) never materializes a
physical operator tree — it interprets the AST, consulting the
optimizer for access paths.  To gate execution on the Tier-A plan
verifier anyway, this module re-derives those optimizer decisions
(exactly the analysis :mod:`repro.query.explain` renders) and builds
the *plan sketch* they imply from real
:mod:`repro.query.physical` operators: ``ContAccess`` + ``Parent``
hops for range plans, ``HashJoin`` for equality conjuncts,
``ThetaJoin`` for inequality conjuncts over numeric containers,
``StructureSummaryAccess`` for absolute paths, one ``Decompress``
feeding ``XMLSerialize`` on top.  The sketch is verified, never
executed.

:func:`verify_query` is the engine's pre-execution gate and the
``repro lint-plan`` CLI entry point.
"""

from __future__ import annotations

from repro.lint.diagnostics import PlanDiagnostic
from repro.lint.plan import verify_plan
from repro.query.ast import (
    Comparison,
    Expression,
    FLWOR,
    ForClause,
    FunctionCall,
    LetClause,
    PathExpr,
)
from repro.query.context import EvaluationStats
from repro.query.optimizer import (
    RangePlan,
    assign_theta_join,
    find_join_plan,
    find_range_plan,
    flatten_conjuncts,
    free_vars,
    is_absolute_simple_path,
    leaf_summary_steps,
)
from repro.query.physical import (
    ContAccess,
    Decompress,
    HashJoin,
    NestedLoopJoin,
    Operator,
    Parent,
    Select,
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
        compressed_columns: list[str] = []
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
            clause_plan = self._clause_plan(clause, decidable,
                                            compressed_columns)
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
        if compressed_columns:
            plan = Decompress(plan, list(compressed_columns),
                              EvaluationStats())
        return XMLSerialize(plan, tuple(compressed_columns))

    def _clause_plan(self, clause: ForClause,
                     decidable: list[Expression],
                     compressed_columns: list[str]) -> Operator:
        """Access path for one for-clause (mirrors the evaluator)."""
        source = clause.source
        for conjunct in decidable:
            if free_vars(conjunct) != {clause.var}:
                continue
            range_plan = find_range_plan(conjunct, clause.var)
            if range_plan is None:
                continue
            ranged = self._range_sketch(clause, source, conjunct,
                                        range_plan,
                                        compressed_columns)
            if ranged is not None:
                return ranged
        if isinstance(source, PathExpr) and source.start is None \
                and is_absolute_simple_path(source) and source.steps:
            repo = self._repo(source.document)
            return StructureSummaryAccess(
                repo, [(s.axis, s.test) for s in source.steps],
                f"${clause.var}")
        return OpaqueSource(f"${clause.var} in opaque source")

    def _range_sketch(self, clause: ForClause, source: Expression,
                      conjunct: Expression, plan: RangePlan,
                      compressed_columns: list[str]
                      ) -> Operator | None:
        """ContAccess + Parent hops + predicate re-check, or ``None``
        when the bottom-up strategy does not apply to this source."""
        if not (isinstance(source, PathExpr) and source.start is None
                and is_absolute_simple_path(source)):
            return None
        repo = self._repo(source.document)
        container_path = None
        for leaf in repo.resolve_path(
                leaf_summary_steps(source, plan.leaf_steps)):
            if leaf.container_path is not None:
                container_path = leaf.container_path
                break
        if container_path is None:
            return None
        owner_column = f"${clause.var}~owner"
        value_column = f"${clause.var}~value"
        node: Operator = ContAccess(
            repo, container_path, owner_column, value_column,
            plan.low, plan.high, plan.low_inclusive,
            plan.high_inclusive)
        input_column = owner_column
        for hop in range(plan.ascend):
            output_column = (f"${clause.var}" if hop == plan.ascend - 1
                             else f"${clause.var}~up{hop + 1}")
            node = Parent(node, repo, input_column, output_column)
            input_column = output_column
        # The engine re-checks the conjunct after the interval access;
        # in the compressed domain when the codec's capability tuple
        # allows it, after an explicit Decompress otherwise.
        kind = _predicate_kind(conjunct)
        codec = repo.container(container_path).codec
        if kind is not None and codec.properties.supports(kind):
            node = Select(node, None, column=value_column,
                          predicate_kind=kind)
            compressed_columns.append(value_column)
        else:
            node = Decompress(node, [value_column], EvaluationStats())
            node = Select(node, None, column=value_column)
        return node


def _predicate_kind(conjunct: Expression) -> str | None:
    """The §3.2 capability kind a comparison conjunct needs."""
    if not isinstance(conjunct, Comparison):
        return None
    if conjunct.op == "=":
        return "eq"
    if conjunct.op in ("<", "<=", ">", ">="):
        return "ineq"
    return None

"""Static analysis for the XQueC engine (plans and source).

Two tiers, one goal: catch invariant violations *before a single row
flows* (or a PR merges).

* **Tier A — plan verifier** (:mod:`repro.lint.plan`): a visitor over
  physical plans (:mod:`repro.query.physical`) that propagates inferred
  plan properties — column schema, sortedness, compressed-vs-plain
  state, codec capabilities — and emits rule-tagged
  :class:`PlanDiagnostic` objects for violations of the paper's
  capability (§3.2) and order (§4) assumptions.  The engine plans a
  query once (:func:`repro.query.optimizer.plan_query`), binds that
  plan to its repositories (:func:`~repro.query.optimizer.bind_plan`)
  and verifies every resulting tree before executing the same plan
  (:meth:`repro.query.engine.QueryEngine.plan`, a fail-fast gate).
* **Tier B — source lint** (:mod:`repro.lint.source`): an ``ast``-based
  checker for the repo's engine-invariant conventions (operator
  ``_batches``/``_traced`` routing, codec property declarations, sanctioned
  decompression sites, no bare ``except``/mutable defaults), run as
  ``repro lint-src`` and in CI.
"""

from repro.lint.diagnostics import PlanDiagnostic, SourceDiagnostic
from repro.lint.plan import verify_plan
from repro.lint.rules import RULES, Rule
from repro.lint.source import lint_paths

__all__ = [
    "PlanDiagnostic",
    "RULES",
    "Rule",
    "SourceDiagnostic",
    "lint_paths",
    "verify_plan",
]

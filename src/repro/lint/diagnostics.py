"""Structured diagnostics emitted by both lint tiers."""

from __future__ import annotations

from dataclasses import dataclass

from repro.lint.rules import RULES


@dataclass(frozen=True)
class PlanDiagnostic:
    """One plan-verifier finding, tagged with its rule.

    ``operator_path`` locates the offending operator inside the plan
    tree (e.g. ``"MergeJoin/left=Decompress/source=ContScan"``).
    """

    rule: str
    severity: str
    operator_path: str
    message: str
    hint: str = ""

    @classmethod
    def make(cls, rule_id: str, operator_path: str, message: str,
             hint: str = "") -> "PlanDiagnostic":
        """Build a diagnostic with the rule's catalog severity."""
        return cls(rule_id, RULES[rule_id].severity, operator_path,
                   message, hint)

    def to_dict(self) -> dict[str, str]:
        return {"rule": self.rule, "severity": self.severity,
                "operator_path": self.operator_path,
                "message": self.message, "hint": self.hint}

    def format(self) -> str:
        text = (f"{self.severity}[{self.rule}] {self.operator_path}: "
                f"{self.message}")
        if self.hint:
            text += f"  (hint: {self.hint})"
        return text


@dataclass(frozen=True)
class SourceDiagnostic:
    """One source-lint finding, tagged with its rule and location."""

    rule: str
    severity: str
    file: str
    line: int
    message: str
    hint: str = ""

    @classmethod
    def make(cls, rule_id: str, file: str, line: int, message: str,
             hint: str = "") -> "SourceDiagnostic":
        """Build a diagnostic with the rule's catalog severity."""
        return cls(rule_id, RULES[rule_id].severity, file, line,
                   message, hint)

    def to_dict(self) -> dict[str, object]:
        return {"rule": self.rule, "severity": self.severity,
                "file": self.file, "line": self.line,
                "message": self.message, "hint": self.hint}

    def format(self) -> str:
        text = (f"{self.file}:{self.line}: {self.severity}"
                f"[{self.rule}] {self.message}")
        if self.hint:
            text += f"  (hint: {self.hint})"
        return text

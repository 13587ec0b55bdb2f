"""Exception hierarchy for the XQueC reproduction.

Every error raised by the library derives from :class:`XQueCError`, so that
callers can catch one base class.  Sub-hierarchies mirror the package layout:
XML parsing, compression codecs, the storage layer, and the query processor
each own a branch.
"""

from __future__ import annotations


class XQueCError(Exception):
    """Base class of every exception raised by this library."""


class XMLError(XQueCError):
    """Base class for XML tokenizing/parsing problems."""


class XMLSyntaxError(XMLError):
    """Malformed XML input.

    Carries the byte/char offset and (line, column) of the offending input
    so that callers can point at the problem.
    """

    def __init__(self, message: str, offset: int = -1,
                 line: int = -1, column: int = -1):
        location = ""
        if line >= 0:
            location = f" at line {line}, column {column}"
        elif offset >= 0:
            location = f" at offset {offset}"
        super().__init__(f"{message}{location}")
        self.offset = offset
        self.line = line
        self.column = column


class CompressionError(XQueCError):
    """Base class for codec failures."""


class CodecDomainError(CompressionError):
    """A value outside the domain the codec's source model was built for."""


class CorruptDataError(CompressionError):
    """Compressed bytes do not decode under the given source model."""


class UnknownCodecError(CompressionError):
    """A codec name that is not present in the registry."""


class StorageError(XQueCError):
    """Base class for repository/storage-layer failures."""


class PageError(StorageError):
    """A repository file is corrupt, truncated, or carries a bad checksum."""


class NodeNotFoundError(StorageError):
    """A node id that does not exist in the structure tree."""


class ContainerNotFoundError(StorageError):
    """A container path that does not exist in the repository."""


class ServiceError(XQueCError):
    """Base class for serving-plane failures."""


class AdmissionError(ServiceError):
    """The coordinator refused a query: the serving plane is at its
    global in-flight limit or the client exhausted its quota."""


class ShardError(ServiceError):
    """A shard worker failed, died mid-request, or returned a reply
    the coordinator could not decode."""


class QueryError(XQueCError):
    """Base class for query-processing failures."""


class QuerySyntaxError(QueryError):
    """The XQuery text failed to lex or parse."""

    def __init__(self, message: str, position: int = -1):
        location = f" at position {position}" if position >= 0 else ""
        super().__init__(f"{message}{location}")
        self.position = position


class QueryTypeError(QueryError):
    """An operation was applied to a value of the wrong kind."""


class UnsupportedFeatureError(QueryError):
    """The query uses XQuery syntax outside the supported subset."""


class PlanError(QueryError):
    """The optimizer could not build a physical plan for the query."""


class PlanVerificationError(PlanError):
    """The static plan verifier found error-severity violations.

    Raised before a single row flows; ``diagnostics`` carries every
    :class:`repro.lint.PlanDiagnostic` of the failed verification
    (warnings included, for context).
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        errors = [d for d in self.diagnostics if d.severity == "error"]
        lines = [f"plan verification failed "
                 f"({len(errors)} error(s)):"]
        lines += [f"  [{d.rule}] {d.operator_path}: {d.message}"
                  for d in errors]
        super().__init__("\n".join(lines))

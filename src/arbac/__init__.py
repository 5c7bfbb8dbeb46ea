"""ARBAC policy toolkit.

Models administrative role-based access control policies, parses and
serializes a policy text format, compiles separation-of-privilege
constraints into can_assign rule families, generates a multi-branch bank
case-study policy, and answers role-reachability safety queries by exact
search with relevance slicing.

The analyzer (and numpy, which its search engine needs) loads lazily on
first use, so that generating, parsing, validating and describing a
policy do not pay numpy's import time.
"""

from __future__ import annotations

from .bank import (
    BankConfig,
    BranchRoleSet,
    DivisionRoleSet,
    HierarchyMode,
    Instrumentation,
    branch_roles,
    generate_bank,
)
from .model import (
    ActionKind,
    ActionStep,
    ArbacError,
    CanAssignRule,
    CanRevokeRule,
    Diagnostic,
    InvalidPolicy,
    Policy,
    Precondition,
    RoleHierarchy,
    SafetyQuery,
    Severity,
    UserState,
    applicable_actions,
    apply_assign,
    apply_revoke,
    authorized_roles,
    satisfies,
    validate,
    validation_errors,
)
from .sop import (
    SopConstraint,
    SopError,
    compile_sop,
    compile_sop_monitor,
)
from .textio import ParseError, SourceSpan, parse_policy, serialize_policy

__version__ = "0.1.0"

_ANALYZER_EXPORTS = {
    "InvalidQuery",
    "TooLarge",
    "SearchLimits",
    "Outcome",
    "Witness",
    "Verdict",
    "reach",
    "slice_policy",
    "oracle_reach",
    "replay",
}

__all__ = [
    "__version__",
    "ActionKind",
    "ActionStep",
    "ArbacError",
    "BankConfig",
    "BranchRoleSet",
    "CanAssignRule",
    "CanRevokeRule",
    "Diagnostic",
    "DivisionRoleSet",
    "HierarchyMode",
    "Instrumentation",
    "InvalidPolicy",
    "ParseError",
    "Policy",
    "Precondition",
    "RoleHierarchy",
    "SafetyQuery",
    "Severity",
    "SopConstraint",
    "SopError",
    "SourceSpan",
    "UserState",
    "applicable_actions",
    "apply_assign",
    "apply_revoke",
    "authorized_roles",
    "branch_roles",
    "compile_sop",
    "compile_sop_monitor",
    "generate_bank",
    "parse_policy",
    "satisfies",
    "serialize_policy",
    "validate",
    "validation_errors",
    *sorted(_ANALYZER_EXPORTS),
]


def __getattr__(name: str):
    if name in _ANALYZER_EXPORTS:
        from . import analyzer

        return getattr(analyzer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

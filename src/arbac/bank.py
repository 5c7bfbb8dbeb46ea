"""Generator for the multi-branch bank case-study policy.

Each branch has 33 roles: Employee plus, for each of four business
divisions (financial analysis FA, share trading ST, office banking OB,
e-commerce SE), the division role, two managerial roles (HOD, GM) and
five non-managerial roles (Asst, Special, Senior, Junior, Clerk). Role
names carry an ``@<branch>`` suffix so branches never collide. A single
Admin role administers everything.

Per division the non-managerial roles are governed by a
separation-of-privilege constraint with limit 3 (out of 5), compiled to
55 can_assign rules guarded by the division role; the managerial roles
are assignable only to users holding the division role and none of its
non-managerial roles. Two invented bootstrap rules make Employee and the
division roles obtainable in the first place. Every branch role gets an
unconditional can_revoke rule.

Optional query instrumentation turns SOP violation into reachability:
AnyFour_i is assigned exactly when four non-managerial roles of one
division of branch i are held together; Branch_i follows from AnyFour_i
or from Branch_{i+1}; TargetQ1 follows from Branch_1, and TargetQ2 from
holding every Branch_i at once. Because the Branch_i chain lets a single
violating branch satisfy all of Branch_1..Branch_B, the TargetQ2
encoding is weaker than "a violation in every branch"; pass
``corrected_q2`` to instead require every AnyFour_i directly (a
deliberate deviation from the chain construction, kept behind the flag).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import (
    ROLE_NAME_RE,
    RESERVED_WORDS,
    CanAssignRule,
    CanRevokeRule,
    Policy,
    Precondition,
    RoleHierarchy,
    SafetyQuery,
)
from .sop import SopConstraint, compile_sop, compile_sop_monitor

__all__ = [
    "ADMIN_ROLE",
    "DIVISIONS",
    "MANAGERIAL_POSITIONS",
    "NON_MANAGERIAL_POSITIONS",
    "SOP_LIMIT",
    "Instrumentation",
    "HierarchyMode",
    "BankConfig",
    "DivisionRoleSet",
    "BranchRoleSet",
    "branch_roles",
    "generate_bank",
]

ADMIN_ROLE = "Admin"
DIVISIONS = ("FA", "ST", "OB", "SE")
MANAGERIAL_POSITIONS = ("HOD", "GM")
NON_MANAGERIAL_POSITIONS = ("Asst", "Special", "Senior", "Junior", "Clerk")
SOP_LIMIT = 3


class Instrumentation(str, Enum):
    NONE = "none"
    Q1 = "q1"
    Q2 = "q2"
    BOTH = "both"

    @property
    def wants_q1(self) -> bool:
        return self in (Instrumentation.Q1, Instrumentation.BOTH)

    @property
    def wants_q2(self) -> bool:
        return self in (Instrumentation.Q2, Instrumentation.BOTH)

    @property
    def enabled(self) -> bool:
        return self is not Instrumentation.NONE


class HierarchyMode(str, Enum):
    FLAT = "flat"
    HIERARCHICAL = "hierarchical"


@dataclass(frozen=True)
class BankConfig:
    """Parameters for one generated policy instance."""

    branches: int
    instrumentation: Instrumentation = Instrumentation.NONE
    hierarchy_mode: HierarchyMode = HierarchyMode.FLAT
    analysis_user: str = "newUser"
    corrected_q2: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "instrumentation", Instrumentation(self.instrumentation)
        )
        object.__setattr__(self, "hierarchy_mode", HierarchyMode(self.hierarchy_mode))
        if self.branches < 1:
            raise ValueError(f"branches must be >= 1, got {self.branches}")
        if not ROLE_NAME_RE.match(self.analysis_user) or (
            self.analysis_user in RESERVED_WORDS
        ):
            raise ValueError(f"invalid analysis user name {self.analysis_user!r}")
        if self.corrected_q2 and not self.instrumentation.wants_q2:
            raise ValueError("corrected_q2 requires q2 instrumentation")


@dataclass(frozen=True)
class DivisionRoleSet:
    """The eight roles of one division within one branch."""

    division: str
    role: str
    managerial: tuple[str, ...]
    non_managerial: tuple[str, ...]

    def all_roles(self) -> tuple[str, ...]:
        return (self.role, *self.managerial, *self.non_managerial)


@dataclass(frozen=True)
class BranchRoleSet:
    """The 33 roles of one branch."""

    index: int
    employee: str
    divisions: tuple[DivisionRoleSet, ...]

    def all_roles(self) -> tuple[str, ...]:
        names = [self.employee]
        for div in self.divisions:
            names.extend(div.all_roles())
        return tuple(names)


def branch_roles(index: int) -> BranchRoleSet:
    """Role catalog of branch ``index`` (1-based)."""
    divisions = []
    for d in DIVISIONS:
        divisions.append(
            DivisionRoleSet(
                division=d,
                role=f"{d}@{index}",
                managerial=tuple(f"{d}-{p}@{index}" for p in MANAGERIAL_POSITIONS),
                non_managerial=tuple(
                    f"{d}-{p}@{index}" for p in NON_MANAGERIAL_POSITIONS
                ),
            )
        )
    return BranchRoleSet(
        index=index, employee=f"Employee@{index}", divisions=tuple(divisions)
    )


def _branch_assign_rules(branch: BranchRoleSet) -> list[CanAssignRule]:
    rules = [
        CanAssignRule(ADMIN_ROLE, Precondition(), branch.employee),
    ]
    for div in branch.divisions:
        rules.append(
            CanAssignRule(
                ADMIN_ROLE,
                Precondition(positive=frozenset({branch.employee})),
                div.role,
            )
        )
        managerial_pre = Precondition(
            positive=frozenset({div.role}),
            negative=frozenset(div.non_managerial),
        )
        for target in div.managerial:
            rules.append(CanAssignRule(ADMIN_ROLE, managerial_pre, target))
        rules.extend(
            compile_sop(
                SopConstraint(div.non_managerial, SOP_LIMIT),
                guard=frozenset({div.role}),
                admin=ADMIN_ROLE,
            )
        )
    return rules


def _instrumentation(
    config: BankConfig, branches: list[BranchRoleSet]
) -> tuple[list[str], list[CanAssignRule], list[SafetyQuery]]:
    n = config.branches
    anyfour = [f"AnyFour_{i}" for i in range(1, n + 1)]
    chain = [f"Branch_{i}" for i in range(1, n + 1)]
    roles = anyfour + chain
    rules: list[CanAssignRule] = []
    for branch, monitor in zip(branches, anyfour):
        for div in branch.divisions:
            rules.extend(
                compile_sop_monitor(
                    SopConstraint(div.non_managerial, SOP_LIMIT),
                    monitor=monitor,
                    admin=ADMIN_ROLE,
                )
            )
    for i in range(1, n + 1):
        rules.append(
            CanAssignRule(
                ADMIN_ROLE,
                Precondition(positive=frozenset({f"AnyFour_{i}"})),
                f"Branch_{i}",
            )
        )
        if i < n:
            rules.append(
                CanAssignRule(
                    ADMIN_ROLE,
                    Precondition(positive=frozenset({f"Branch_{i + 1}"})),
                    f"Branch_{i}",
                )
            )
    queries: list[SafetyQuery] = []
    if config.instrumentation.wants_q1:
        roles.append("TargetQ1")
        rules.append(
            CanAssignRule(
                ADMIN_ROLE,
                Precondition(positive=frozenset({"Branch_1"})),
                "TargetQ1",
            )
        )
        queries.append(SafetyQuery(config.analysis_user, "TargetQ1"))
    if config.instrumentation.wants_q2:
        roles.append("TargetQ2")
        required = anyfour if config.corrected_q2 else chain
        rules.append(
            CanAssignRule(
                ADMIN_ROLE,
                Precondition(positive=frozenset(required)),
                "TargetQ2",
            )
        )
        queries.append(SafetyQuery(config.analysis_user, "TargetQ2"))
    return roles, rules, queries


def _hierarchy_edges(branches: list[BranchRoleSet]) -> tuple[tuple[str, str], ...]:
    edges: list[tuple[str, str]] = []
    for branch in branches:
        for div in branch.divisions:
            for senior in (*div.managerial, *div.non_managerial):
                edges.append((senior, div.role))
            edges.append((div.role, branch.employee))
    return tuple(edges)


def generate_bank(config: BankConfig) -> Policy:
    """Generate the policy for ``config``. Deterministic: equal configs
    produce equal policies."""
    branches = [branch_roles(i) for i in range(1, config.branches + 1)]

    roles: list[str] = [ADMIN_ROLE]
    for branch in branches:
        roles.extend(branch.all_roles())

    ca: list[CanAssignRule] = []
    for branch in branches:
        ca.extend(_branch_assign_rules(branch))

    queries: list[SafetyQuery] = []
    if config.instrumentation.enabled:
        extra_roles, extra_rules, queries = _instrumentation(config, branches)
        roles.extend(extra_roles)
        ca.extend(extra_rules)

    cr = [
        CanRevokeRule(ADMIN_ROLE, role)
        for branch in branches
        for role in branch.all_roles()
    ]

    edges: tuple[tuple[str, str], ...] = ()
    if config.hierarchy_mode is HierarchyMode.HIERARCHICAL:
        edges = _hierarchy_edges(branches)

    return Policy(
        roles=tuple(roles),
        users=(config.analysis_user,),
        ua=(),
        ca=tuple(ca),
        cr=tuple(cr),
        hierarchy=RoleHierarchy(edges),
        admin_roles=(ADMIN_ROLE,),
        queries=tuple(queries),
    )

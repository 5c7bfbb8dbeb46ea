"""Core ARBAC domain model.

Defines the immutable policy objects (roles, a role hierarchy, can_assign
and can_revoke rules, user-to-role assignments, safety queries) and the
operational semantics of administrative actions under separate
administration: the state of the single user under analysis is just the
set of roles explicitly assigned to them, an action either adds or removes
one role, and preconditions are evaluated against the downward closure of
that set under the hierarchy.

Structural well-formedness is checked by :func:`validate`, which returns
diagnostics instead of raising so that callers (parser, CLI) can report
every problem at once. Constructors deliberately do not enforce the
cross-object invariants; a ``Policy`` can represent an ill-formed input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "ROLE_NAME_RE",
    "RESERVED_WORDS",
    "ArbacError",
    "InvalidPolicy",
    "PreconditionUnsatisfied",
    "AlreadyAssigned",
    "NotAssigned",
    "RoleHierarchy",
    "EMPTY_HIERARCHY",
    "Precondition",
    "CanAssignRule",
    "CanRevokeRule",
    "SafetyQuery",
    "UserState",
    "Policy",
    "ActionKind",
    "ActionStep",
    "Severity",
    "Diagnostic",
    "authorized_roles",
    "satisfies",
    "apply_assign",
    "apply_revoke",
    "applicable_actions",
    "validate",
    "validation_errors",
]

# Identifier shape shared by role and user names in the text format.
# '@' is allowed after the first character for branch-suffixed names
# like FA-Clerk@3.
ROLE_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_@-]*\Z")

# Section keywords and the TRUE literal cannot be used as identifiers,
# otherwise the text format could not be parsed back deterministically.
RESERVED_WORDS = frozenset(
    {"Roles", "Users", "UA", "CR", "CA", "RH", "ADMIN", "SPEC", "TRUE"}
)


class ArbacError(Exception):
    """Base class for errors raised by this package."""


class InvalidPolicy(ArbacError):
    """A policy with error-level diagnostics was passed where a
    well-formed one is required."""

    def __init__(self, message: str, diagnostics: tuple["Diagnostic", ...] = ()):
        super().__init__(message)
        self.diagnostics = diagnostics


class PreconditionUnsatisfied(ArbacError):
    """apply_assign was called in a state that fails the rule's precondition."""


class AlreadyAssigned(ArbacError):
    """apply_assign was called with the target role already assigned."""


class NotAssigned(ArbacError):
    """apply_revoke was called with the target role not assigned."""


@dataclass(frozen=True)
class RoleHierarchy:
    """Seniority relation as explicit (senior, junior) edges.

    Membership of a senior role grants every junior role transitively.
    Edge order is preserved so that policies round-trip through the text
    format byte for byte.
    """

    edges: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple((s, j) for s, j in self.edges))

    def is_empty(self) -> bool:
        return not self.edges

    @cached_property
    def closures(self) -> dict[str, frozenset[str]]:
        """The downward closure of every senior role (every role with a
        junior), itself included; a role with no junior grants only
        itself. Computed once per hierarchy, as every field is immutable.

        One plain walk per senior. A walk steps only onto roles it has
        not met, so it also ends on cyclic edges (a hierarchy exists
        before it is validated). Quadratic on a chain, which no policy
        of the bank case study has.
        """
        juniors_of: dict[str, list[str]] = {}
        for senior, junior in self.edges:
            juniors_of.setdefault(senior, []).append(junior)
        closures: dict[str, frozenset[str]] = {}
        for role in juniors_of:
            seen = {role}
            walk = [role]
            while walk:
                for junior in juniors_of.get(walk.pop(), ()):
                    if junior not in seen:
                        seen.add(junior)
                        walk.append(junior)
            closures[role] = frozenset(seen)
        return closures

    def downward_closure(self, roles: Iterable[str]) -> frozenset[str]:
        """All roles granted by holding ``roles``: the roles themselves
        plus every role reachable through senior-to-junior edges."""
        roles = frozenset(roles)
        closures = self.closures
        return roles.union(*(closures[r] for r in roles if r in closures))


EMPTY_HIERARCHY = RoleHierarchy()


@dataclass(frozen=True)
class Precondition:
    """Conjunction of role literals: every role in ``positive`` must be
    authorized and no role in ``negative`` may be. Both sets empty means
    the unconditional precondition (TRUE)."""

    positive: frozenset[str] = frozenset()
    negative: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "positive", frozenset(self.positive))
        object.__setattr__(self, "negative", frozenset(self.negative))

    @property
    def is_unconditional(self) -> bool:
        return not self.positive and not self.negative

    def roles(self) -> frozenset[str]:
        return self.positive | self.negative


@dataclass(frozen=True)
class CanAssignRule:
    """<admin, precondition, target>: a member of ``admin`` may assign
    ``target`` to a user whose authorized roles satisfy the precondition."""

    admin: str
    pre: Precondition
    target: str


@dataclass(frozen=True)
class CanRevokeRule:
    """<admin, target>: a member of ``admin`` may revoke ``target``
    unconditionally."""

    admin: str
    target: str


@dataclass(frozen=True)
class SafetyQuery:
    """Role-reachability question: can ``user`` ever be authorized for
    ``target``?"""

    user: str
    target: str


@dataclass(frozen=True)
class UserState:
    """Roles explicitly assigned to the user under analysis."""

    assigned: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "assigned", frozenset(self.assigned))


@dataclass(frozen=True)
class Policy:
    """A complete ARBAC policy.

    Declaration order of every component is preserved (tuples, not sets):
    the text serializer relies on it, rule indices in witnesses refer to
    it, and the search enumerates actions in it.
    """

    roles: tuple[str, ...] = ()
    users: tuple[str, ...] = ()
    ua: tuple[tuple[str, str], ...] = ()
    ca: tuple[CanAssignRule, ...] = ()
    cr: tuple[CanRevokeRule, ...] = ()
    hierarchy: RoleHierarchy = EMPTY_HIERARCHY
    admin_roles: tuple[str, ...] = ()
    queries: tuple[SafetyQuery, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "roles", tuple(self.roles))
        object.__setattr__(self, "users", tuple(self.users))
        object.__setattr__(self, "ua", tuple((u, r) for u, r in self.ua))
        object.__setattr__(self, "ca", tuple(self.ca))
        object.__setattr__(self, "cr", tuple(self.cr))
        object.__setattr__(self, "admin_roles", tuple(self.admin_roles))
        object.__setattr__(self, "queries", tuple(self.queries))

    @cached_property
    def role_set(self) -> frozenset[str]:
        return frozenset(self.roles)

    @cached_property
    def user_set(self) -> frozenset[str]:
        return frozenset(self.users)

    def initial_roles(self, user: str) -> frozenset[str]:
        """Roles assigned to ``user`` in the initial state (UA)."""
        return frozenset(r for u, r in self.ua if u == user)

    @cached_property
    def _diagnostics(self) -> tuple[Diagnostic, ...]:
        # computed once per policy: every field is immutable
        return tuple(_diagnose(self))

    @cached_property
    def _slice_index(self) -> _SliceIndex:
        # computed once per policy, like _diagnostics; meaningful only
        # for a well-formed policy
        return _index_for_slicing(self)


class _SliceIndex(NamedTuple):
    """Lookups that relevance slicing reads; shared, so never mutated.

    ``ca_by_target`` maps a role to the can_assign rules targeting it,
    ascending. ``seniors_of`` maps a role to every senior role (one with
    a junior) whose downward closure contains it; a role in no closure,
    as every role of a flat policy, is absent. ``cr_under`` maps a role
    to the can_revoke rules whose target's downward closure contains it,
    ascending: the revokes that can clear it.
    """

    ca_by_target: dict[str, list[int]]
    seniors_of: dict[str, list[str]]
    cr_under: dict[str, list[int]]


def _index_for_slicing(policy: Policy) -> _SliceIndex:
    index = _SliceIndex({}, {}, {})
    for i, rule in enumerate(policy.ca):
        index.ca_by_target.setdefault(rule.target, []).append(i)
    closures = policy.hierarchy.closures
    for senior, juniors in closures.items():
        for junior in juniors:
            index.seniors_of.setdefault(junior, []).append(senior)
    for i, rule in enumerate(policy.cr):
        for role in closures.get(rule.target, (rule.target,)):
            index.cr_under.setdefault(role, []).append(i)
    return index


class ActionKind(str, Enum):
    ASSIGN = "assign"
    REVOKE = "revoke"


@dataclass(frozen=True)
class ActionStep:
    """One administrative action: the rule (by index into ``Policy.ca``
    or ``Policy.cr``) and the role it assigned or revoked."""

    kind: ActionKind
    rule_index: int
    role: str


class Severity(str, Enum):
    ERROR = "error"
    INFO = "info"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity.value}: {self.location}: {self.message}"


def authorized_roles(state: UserState, hierarchy: RoleHierarchy) -> frozenset[str]:
    """Roles the user is authorized for: the downward closure of the
    explicitly assigned set."""
    if hierarchy.is_empty():
        return state.assigned
    return hierarchy.downward_closure(state.assigned)


def satisfies(pre: Precondition, authorized: frozenset[str]) -> bool:
    """Whether an authorized-role set meets a precondition."""
    return pre.positive <= authorized and not (pre.negative & authorized)


def apply_assign(
    state: UserState, rule: CanAssignRule, hierarchy: RoleHierarchy = EMPTY_HIERARCHY
) -> UserState:
    """Apply a can_assign rule, returning the successor state.

    The precondition is checked against authorized roles (closure), while
    the no-op guard is on the explicit assignment: assigning a role the
    user already holds explicitly is rejected, but assigning one they only
    inherit is allowed.
    """
    if not satisfies(rule.pre, authorized_roles(state, hierarchy)):
        raise PreconditionUnsatisfied(
            f"precondition of rule targeting {rule.target} not satisfied"
        )
    if rule.target in state.assigned:
        raise AlreadyAssigned(f"{rule.target} is already assigned")
    return UserState(state.assigned | {rule.target})


def apply_revoke(state: UserState, rule: CanRevokeRule) -> UserState:
    """Apply a can_revoke rule, returning the successor state."""
    if rule.target not in state.assigned:
        raise NotAssigned(f"{rule.target} is not assigned")
    return UserState(state.assigned - {rule.target})


def applicable_actions(policy: Policy, state: UserState) -> list[ActionStep]:
    """Every action applicable in ``state``, in deterministic order: all
    can_assign rules in declaration order, then all can_revoke rules in
    declaration order. The search and the witness tie-break both follow
    this order."""
    auth = authorized_roles(state, policy.hierarchy)
    steps: list[ActionStep] = []
    for i, rule in enumerate(policy.ca):
        if rule.target not in state.assigned and satisfies(rule.pre, auth):
            steps.append(ActionStep(ActionKind.ASSIGN, i, rule.target))
    for i, rule in enumerate(policy.cr):
        if rule.target in state.assigned:
            steps.append(ActionStep(ActionKind.REVOKE, i, rule.target))
    return steps


def validate(policy: Policy) -> list[Diagnostic]:
    """Check structural well-formedness, returning every problem found.

    The diagnostics are computed once per ``Policy`` object and then
    served from it, by one walk over the entries of each section in
    declaration order; each entry's diagnostics come in a fixed order
    (names, then its own checks, then a repeat), located as
    ``section[index]``.

    Error-level diagnostics mark violations that make the policy
    meaningless or non-serializable (undeclared references, bad names,
    duplicate role declarations, overlapping precondition literals, a
    rule target inside its own precondition, hierarchy cycles). Exact
    duplicates of rules, UA pairs, users, or hierarchy edges are merely
    redundant and are reported at info level.
    """
    return list(policy._diagnostics)


def _entries(section: str, items: Iterable) -> Iterator[tuple]:
    """Each entry of a policy section with its location and whether an
    equal entry came before it."""
    seen = set()
    for i, item in enumerate(items):
        size = len(seen)
        seen.add(item)
        yield f"{section}[{i}]", item, len(seen) == size


def _undeclared(
    location: str, names: Iterable[str], declared: frozenset[str], kind: str = "role"
) -> list[Diagnostic]:
    """An error for each of ``names`` (repeats too) not in ``declared``."""
    return [
        Diagnostic(Severity.ERROR, location, f"undeclared {kind} {name!r}")
        for name in names
        if name not in declared
    ]


def _diagnose(policy: Policy) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    roles = policy.role_set
    users = policy.user_set

    def note(severity: Severity, location: str, message: str) -> None:
        diags.append(Diagnostic(severity, location, message))

    declared = (("Roles", "role", policy.roles, Severity.ERROR),
                ("Users", "user", policy.users, Severity.INFO))
    for section, kind, names, repeat_severity in declared:
        for loc, name, repeat in _entries(section, names):
            if not ROLE_NAME_RE.match(name):
                note(Severity.ERROR, loc, f"invalid {kind} name {name!r}")
            elif name in RESERVED_WORDS:
                note(Severity.ERROR, loc, f"{kind} name {name!r} is a reserved word")
            if repeat:
                note(repeat_severity, loc, f"duplicate {kind} declaration {name!r}")
    for loc, (u, r), repeat in _entries("UA", policy.ua):
        diags += _undeclared(loc, (u,), users, "user")
        diags += _undeclared(loc, (r,), roles)
        if repeat:
            note(Severity.INFO, loc, f"duplicate assignment <{u}, {r}>")
    for loc, rule, repeat in _entries("CA", policy.ca):
        pos, neg = rule.pre.positive, rule.pre.negative
        # membership tests spare listing the names of a clean rule
        if not (rule.admin in roles and rule.target in roles
                and pos <= roles and neg <= roles):
            diags += _undeclared(loc, (rule.admin, rule.target, *sorted(pos | neg)), roles)
        if not pos.isdisjoint(neg):
            overlap = ", ".join(sorted(pos & neg))
            message = f"precondition uses roles both positively and negatively: {overlap}"
            note(Severity.ERROR, loc, message)
        if rule.target in pos or rule.target in neg:
            message = f"target {rule.target!r} appears in its own precondition"
            note(Severity.ERROR, loc, message)
        if repeat:
            note(Severity.INFO, loc, "duplicate can_assign rule")
    for loc, rule, repeat in _entries("CR", policy.cr):
        diags += _undeclared(loc, (rule.admin, rule.target), roles)
        if repeat:
            note(Severity.INFO, loc, "duplicate can_revoke rule")
    for loc, (s, j), repeat in _entries("RH", policy.hierarchy.edges):
        diags += _undeclared(loc, (s, j), roles)
        if repeat:
            note(Severity.INFO, loc, f"duplicate edge <{s}, {j}>")
    # a senior is on a cycle exactly when one of its juniors grants it back
    closures = policy.hierarchy.closures
    cycle = sorted({s for s, j in policy.hierarchy.edges if s in closures.get(j, ())})
    if cycle:
        message = "hierarchy contains a cycle involving: " + ", ".join(cycle)
        note(Severity.ERROR, "RH", message)
    for loc, r, repeat in _entries("ADMIN", policy.admin_roles):
        diags += _undeclared(loc, (r,), roles)
        if repeat:
            note(Severity.INFO, loc, f"duplicate admin role {r!r}")
    for loc, q, _ in _entries("SPEC", policy.queries):
        diags += _undeclared(loc, (q.user,), users, "user")
        diags += _undeclared(loc, (q.target,), roles)
    return diags


def validation_errors(policy: Policy) -> list[Diagnostic]:
    """Only the error-level diagnostics; empty means well-formed."""
    return [d for d in policy._diagnostics if d.severity is Severity.ERROR]

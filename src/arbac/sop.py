"""Compiler from separation-of-privilege constraints to can_assign rules.

A constraint (S, t) demands that no user ever holds more than t of the
roles in S. Enforcement is purely preventive: for each role r in S, a
family of can_assign rules grants r exactly when the user already holds
at most t-1 other roles of S, spelled out by enumerating each permitted
subset P positively and forbidding the rest of S negatively. Because
every rule pins down the full membership pattern over S, no sequence of
assignments can push a user past t roles.

For auditing the same constraint, ``compile_sop_monitor`` emits rules
that assign a monitor role exactly when some t+1 roles of S are held
together, i.e. when the constraint has been violated. A reachability
check on the monitor role then decides whether the rest of the policy
can breach the constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .model import ArbacError, CanAssignRule, Precondition

__all__ = [
    "SopError",
    "GuardOverlap",
    "InvalidAdmin",
    "MonitorInSet",
    "SopConstraint",
    "compile_sop",
    "compile_sop_monitor",
]


class SopError(ArbacError):
    """Rejected separation-of-privilege compilation input."""


class GuardOverlap(SopError):
    """The guard roles intersect the constrained set."""


class InvalidAdmin(SopError):
    """The administrative role lies inside the constrained set."""


class MonitorInSet(SopError):
    """The monitor role lies inside the constrained set."""


@dataclass(frozen=True)
class SopConstraint:
    """No user may hold more than ``limit`` of ``roles`` at once.

    ``roles`` keeps its given order; rule emission is deterministic in it.
    """

    roles: tuple[str, ...]
    limit: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "roles", tuple(self.roles))
        if len(set(self.roles)) != len(self.roles):
            raise SopError("constrained roles must be distinct")
        if not 1 <= self.limit <= len(self.roles):
            raise SopError(
                f"limit must be between 1 and {len(self.roles)}, got {self.limit}"
            )


def _check_disjoint(constraint: SopConstraint, guard: frozenset[str], admin: str) -> None:
    members = set(constraint.roles)
    bad_guard = members & guard
    if bad_guard:
        raise GuardOverlap(
            "guard roles inside the constrained set: " + ", ".join(sorted(bad_guard))
        )
    if admin in members:
        raise InvalidAdmin(f"admin role {admin!r} is inside the constrained set")


def compile_sop(
    constraint: SopConstraint,
    guard: frozenset[str] = frozenset(),
    admin: str = "Admin",
) -> tuple[CanAssignRule, ...]:
    """Emit the preventive rule family for ``constraint``.

    For each target r in S (in constraint order) and each subset P of
    S - {r} with |P| <= limit-1 (by ascending size, then lexicographic in
    constraint order), one rule is emitted:

        <admin, guard & P & -(S - {r} - P), r>

    Per target that is sum(C(|S|-1, k) for k in 0..limit-1) rules; the
    guard roles are positive literals on every rule.
    """
    _check_disjoint(constraint, guard, admin)
    rules: list[CanAssignRule] = []
    for target in constraint.roles:
        others = tuple(r for r in constraint.roles if r != target)
        for size in range(constraint.limit):
            for allowed in combinations(others, size):
                pre = Precondition(
                    positive=guard | frozenset(allowed),
                    negative=frozenset(others) - frozenset(allowed),
                )
                rules.append(CanAssignRule(admin, pre, target))
    return tuple(rules)


def compile_sop_monitor(
    constraint: SopConstraint,
    monitor: str,
    admin: str = "Admin",
) -> tuple[CanAssignRule, ...]:
    """Emit one monitor rule per subset of S of size limit+1, in
    lexicographic constraint order:

        <admin, T, monitor>

    If limit+1 exceeds |S| the constraint cannot be overshot by one and
    the family is empty. The monitor role must not belong to S.
    """
    if monitor in constraint.roles:
        raise MonitorInSet(f"monitor role {monitor!r} is inside the constrained set")
    if admin in constraint.roles:
        raise InvalidAdmin(f"admin role {admin!r} is inside the constrained set")
    rules = [
        CanAssignRule(admin, Precondition(positive=frozenset(witness)), monitor)
        for witness in combinations(constraint.roles, constraint.limit + 1)
    ]
    return tuple(rules)

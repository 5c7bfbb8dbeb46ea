"""Safety-query analysis: exact reachability search with relevance
slicing, a deliberately naive oracle for differential testing, and
witness replay for certifying Reachable verdicts.

The search explores the analyzed user's possible role sets breadth
first, so the first hit is a shortest witness, with ties broken by the
policy's action enumeration order (can_assign rules in declaration
order, then can_revoke rules). Unreachable is claimed only after the
whole reachable space was visited within the given limits; any
truncation degrades the verdict to Unknown.

Slicing first shrinks the policy to the query's relevance cone: the
fixpoint of "the target is relevant; preconditions of rules targeting a
relevant role are relevant", extended upward through the hierarchy
(anything senior to a relevant role can grant it). Revoke rules survive
only if revoking their target can clear some kept negative literal.
Dropped rules can never occur on a path that changes the verdict, and
removing a revoke of a role no kept rule tests negatively can only
shorten witnesses never enable them, so verdicts and shortest witness
lengths are preserved; the differential tests check this against the
unsliced search and the oracle.

The lookups slicing reads (the can_assign rules of each target, each
role's seniors, the revokes under each role) are built once per
``Policy`` object from the hierarchy's closures, which are themselves
computed once per hierarchy (``RoleHierarchy.closures``); they then
serve every query on it, so a slice walks only its query's cone.
Memoizing them is sound because every field of a ``Policy`` is
immutable and a slice is always a new ``Policy``, never an edited one.

``reach`` compiles its search program straight from the cone (the kept
roles and the kept rules' indices) without building the sliced
``Policy``. Its closure rows are the policy's closures restricted to the
kept roles. They differ from the sliced hierarchy's only where a path
runs through a dropped role, and then they differ only on a kept role
that no kept rule tests and the goal does not hold (a relevant role's
seniors are all relevant, so none is dropped). The enabled actions and
the goal test are therefore those of ``slice_policy``'s program; a
differential test checks this on every role of the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import _engine
from .model import (
    ActionKind,
    ActionStep,
    ArbacError,
    InvalidPolicy,
    Policy,
    RoleHierarchy,
    SafetyQuery,
    UserState,
    applicable_actions,
    apply_assign,
    apply_revoke,
    authorized_roles,
    validation_errors,
)

__all__ = [
    "ORACLE_ROLE_CAP",
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
]

ORACLE_ROLE_CAP = 20


class InvalidQuery(ArbacError):
    """The query references names the policy does not declare."""


class TooLarge(ArbacError):
    """The policy exceeds the oracle's role cap."""


@dataclass(frozen=True)
class SearchLimits:
    """Caps on the search; None means unlimited."""

    max_states: int | None = None
    max_depth: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_states", "max_depth"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive when finite, got {value}")


class Outcome(str, Enum):
    REACHABLE = "reachable"
    UNREACHABLE = "unreachable"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Witness:
    steps: tuple[ActionStep, ...]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    witness: Witness | None
    states_explored: int
    exhausted: bool
    sliced_role_count: int


def _check_inputs(policy: Policy, query: SafetyQuery) -> None:
    """Raise InvalidPolicy if ``policy`` has validation errors, else
    InvalidQuery if ``query`` names an undeclared user or role."""
    errors = validation_errors(policy)
    if errors:
        raise InvalidPolicy(
            "policy has validation errors: " + str(errors[0]), tuple(errors)
        )
    problems = []
    if query.user not in policy.user_set:
        problems.append(f"user {query.user!r}")
    if query.target not in policy.role_set:
        problems.append(f"role {query.target!r}")
    if problems:
        raise InvalidQuery("query references undeclared " + " and ".join(problems))


def _cone(policy: Policy, query: SafetyQuery) -> tuple[list[str], list[int], list[int]]:
    """The relevance cone of ``query``: the kept roles in declaration
    order, and the kept can_assign and can_revoke rules as ascending
    indices into ``policy``, so witnesses always refer to its rules."""
    ca_by_target, seniors_of, cr_under = policy._slice_index
    relevant = {query.target}
    stack = [query.target]
    while stack:
        role = stack.pop()
        found = set(seniors_of.get(role, ()))
        for i in ca_by_target.get(role, ()):
            found |= policy.ca[i].pre.positive
            found |= policy.ca[i].pre.negative
        found -= relevant
        relevant |= found
        stack.extend(found)

    ca_map = sorted(i for role in relevant for i in ca_by_target.get(role, ()))
    negatives = set().union(*[policy.ca[i].pre.negative for i in ca_map])
    cr_map = sorted({i for role in negatives for i in cr_under.get(role, ())})

    kept_roles = set(relevant)
    kept_roles.update(r for _, r in policy.ua)
    kept_roles.update(policy.ca[i].admin for i in ca_map)
    kept_roles.update(policy.cr[i].admin for i in cr_map)
    kept_roles.update(policy.admin_roles)
    return [r for r in policy.roles if r in kept_roles], ca_map, cr_map


def slice_policy(policy: Policy, query: SafetyQuery) -> Policy:
    """Restrict ``policy`` to the parts that can influence ``query``.

    Verdict-preserving: reach on the slice equals reach on the original,
    including shortest witness lengths.
    """
    _check_inputs(policy, query)
    roles, ca_map, cr_map = _cone(policy, query)
    kept = set(roles)
    return Policy(
        roles=tuple(roles),
        users=policy.users,
        ua=policy.ua,
        ca=tuple(policy.ca[i] for i in ca_map),
        cr=tuple(policy.cr[i] for i in cr_map),
        hierarchy=RoleHierarchy(
            tuple((s, j) for s, j in policy.hierarchy.edges if s in kept and j in kept)
        ),
        admin_roles=policy.admin_roles,
        queries=(query,),
    )


def _compile_masks(
    policy: Policy,
    query: SafetyQuery,
    roles: Sequence[str],
    ca_map: Sequence[int],
    cr_map: Sequence[int],
) -> _engine.Program:
    """The search program of ``query`` on ``policy`` restricted to
    ``roles`` and the rules of ``ca_map`` and ``cr_map``, built from role
    indices: one bit per kept role, one action per kept can_assign rule
    (in the maps' order) then per kept can_revoke rule. Closure rows are
    the hierarchy's closures restricted to the kept roles (see the module
    docstring for why that is sound on a cone).
    """
    index = {role: i for i, role in enumerate(roles)}
    n_ca = len(ca_map)
    n_act = n_ca + len(cr_map)
    n_words = max(1, (len(roles) + 63) // 64)
    width = 64 * n_words

    # one bit row per action in each of four planes (positive literals,
    # negative literals, can_assign target, can_revoke target), then the
    # initial state, the goal and the closure of each senior
    row = [a * width for a in range(n_act)]
    plane = n_act * width
    ca = [(a, policy.ca[i]) for a, i in enumerate(ca_map)]
    cr = [(a, policy.cr[i]) for a, i in enumerate(cr_map, n_ca)]
    cells = [row[a] + index[r] for a, rule in ca for r in rule.pre.positive]
    cells += [plane + row[a] + index[r] for a, rule in ca for r in rule.pre.negative]
    cells += [2 * plane + row[a] + index[rule.target] for a, rule in ca]
    cells += [3 * plane + row[a] + index[r.target] for a, r in cr]
    cells += [4 * plane + index[role] for role in policy.initial_roles(query.user)]
    target = index[query.target]
    # the closure of every kept role with a kept junior, and the roles
    # whose holding authorizes the target
    closures = policy.hierarchy.closures
    seniors, below = [], []
    for s, role in enumerate(roles):
        juniors = [index[j] for j in closures.get(role, ()) if j in index]
        if any(j != s for j in juniors):
            seniors.append(s)
            below.append(juniors)
    granted_by = [s for s, js in zip(seniors, below) if s != target and target in js]
    cells += [4 * plane + width + r for r in (target, *granted_by)]
    cells += [4 * plane + (2 + k) * width + j for k, js in enumerate(below) for j in js]
    bits = _engine.set_bits((4 * n_act + 2 + len(seniors), n_words), cells)
    pos, neg, assigned, revoked = bits[: 4 * n_act].reshape(4, n_act, n_words)
    init, goal, closure = bits[4 * n_act], bits[4 * n_act + 1], bits[4 * n_act + 2 :]
    flip = assigned | revoked
    if not seniors:
        test, need = pos | neg | flip, pos | revoked
        return _engine.Program(init, test.T.copy(), need.T.copy(), flip, goal)
    # the state words test the target bit, the authorized words the
    # precondition
    test = np.concatenate((flip.T, (pos | neg).T))
    need = np.concatenate((revoked.T, pos.T))
    seniors = np.array(seniors)
    held_bit = (seniors >> 6, (seniors & 63).astype(np.uint64))
    return _engine.Program(init, test, need, flip, goal, held_bit, closure)


def reach(
    policy: Policy,
    query: SafetyQuery,
    limits: SearchLimits | None = None,
    use_slicing: bool = True,
) -> Verdict:
    """Decide ``query`` by breadth-first search from the user's initial
    assignments.

    Returns Reachable with a shortest witness, Unreachable only when the
    reachable space was exhausted, or Unknown when ``limits`` truncated
    the search first. With ``use_slicing`` the search runs on
    ``slice_policy(policy, query)``; states_explored and
    sliced_role_count describe the instance actually searched, while
    witness rule indices always refer to ``policy``.
    """
    _check_inputs(policy, query)
    if limits is None:
        limits = SearchLimits()

    if use_slicing:
        roles, ca_map, cr_map = _cone(policy, query)
    else:
        roles, ca_map, cr_map = policy.roles, range(len(policy.ca)), range(len(policy.cr))

    result = _engine.search(
        _compile_masks(policy, query, roles, ca_map, cr_map),
        limits.max_states,
        limits.max_depth,
    )

    if result.action_ids is not None:
        steps = []
        n_ca = len(ca_map)
        for action_id in result.action_ids:
            if action_id < n_ca:
                i = ca_map[action_id]
                steps.append(ActionStep(ActionKind.ASSIGN, i, policy.ca[i].target))
            else:
                i = cr_map[action_id - n_ca]
                steps.append(ActionStep(ActionKind.REVOKE, i, policy.cr[i].target))
        outcome = Outcome.REACHABLE
        witness = Witness(tuple(steps))
    elif result.truncated:
        outcome = Outcome.UNKNOWN
        witness = None
    else:
        outcome = Outcome.UNREACHABLE
        witness = None

    return Verdict(
        outcome=outcome,
        witness=witness,
        states_explored=result.popped,
        exhausted=outcome is Outcome.UNREACHABLE,
        sliced_role_count=len(roles),
    )


def oracle_reach(
    policy: Policy, query: SafetyQuery, max_roles: int = ORACLE_ROLE_CAP
) -> Verdict:
    """Reference implementation for differential testing.

    Explores every reachable role set with the plain model operations
    (no slicing, no bit packing, no early exit), then reads the answer
    off the completed exploration. Kept intentionally simple; the role
    cap bounds the cost.
    """
    _check_inputs(policy, query)
    if len(policy.roles) > max_roles:
        raise TooLarge(
            f"{len(policy.roles)} roles exceed the oracle cap of {max_roles}"
        )

    initial = UserState(policy.initial_roles(query.user))
    states = [initial]
    seen = {initial.assigned}
    parents: list[tuple[int, ActionStep | None]] = [(-1, None)]
    head = 0
    while head < len(states):
        state = states[head]
        for step in applicable_actions(policy, state):
            if step.kind is ActionKind.ASSIGN:
                child = apply_assign(
                    state, policy.ca[step.rule_index], policy.hierarchy
                )
            else:
                child = apply_revoke(state, policy.cr[step.rule_index])
            if child.assigned not in seen:
                seen.add(child.assigned)
                states.append(child)
                parents.append((head, step))
        head += 1

    found = -1
    for i, state in enumerate(states):
        if query.target in authorized_roles(state, policy.hierarchy):
            found = i
            break

    if found < 0:
        return Verdict(
            Outcome.UNREACHABLE, None, len(states), True, len(policy.roles)
        )
    steps = []
    cur = found
    while parents[cur][0] >= 0:
        steps.append(parents[cur][1])
        cur = parents[cur][0]
    steps.reverse()
    return Verdict(
        Outcome.REACHABLE,
        Witness(tuple(steps)),
        len(states),
        True,
        len(policy.roles),
    )


def replay(policy: Policy, query: SafetyQuery, witness: Witness) -> bool:
    """Whether ``witness`` replays legally from the initial state and
    ends with the target authorized. Never raises; every Reachable
    verdict should pass this check."""
    state = UserState(policy.initial_roles(query.user))
    for step in witness.steps:
        try:
            if step.kind is ActionKind.ASSIGN:
                if not 0 <= step.rule_index < len(policy.ca):
                    return False
                rule_a = policy.ca[step.rule_index]
                if rule_a.target != step.role:
                    return False
                state = apply_assign(state, rule_a, policy.hierarchy)
            elif step.kind is ActionKind.REVOKE:
                if not 0 <= step.rule_index < len(policy.cr):
                    return False
                rule_r = policy.cr[step.rule_index]
                if rule_r.target != step.role:
                    return False
                state = apply_revoke(state, rule_r)
            else:
                return False
        except ArbacError:
            return False
    return query.target in authorized_roles(state, policy.hierarchy)

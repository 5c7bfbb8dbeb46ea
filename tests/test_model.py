"""Core model: hierarchy closure, precondition satisfaction, action
application, action enumeration, and structural validation."""

from __future__ import annotations

import random
import re
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arbac.bank import BankConfig, generate_bank
from arbac.model import (
    ActionKind,
    AlreadyAssigned,
    CanAssignRule,
    CanRevokeRule,
    Diagnostic,
    NotAssigned,
    Policy,
    Precondition,
    PreconditionUnsatisfied,
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

from helpers import random_policy, reference_diagnose

CHAIN = RoleHierarchy((("FA-Clerk", "FA"), ("FA", "Employee")))


def ca(admin, pos, neg, target):
    return CanAssignRule(admin, Precondition(frozenset(pos), frozenset(neg)), target)


class TestAuthorizedRoles:
    def test_transitive_closure(self):
        got = authorized_roles(UserState(frozenset({"FA-Clerk"})), CHAIN)
        assert got == {"FA-Clerk", "FA", "Employee"}

    def test_identity_under_empty_hierarchy(self):
        state = UserState(frozenset({"FA"}))
        assert authorized_roles(state, RoleHierarchy()) == {"FA"}

    def test_union_of_closures(self):
        h = RoleHierarchy((("FA-Clerk", "FA"), ("FA", "Employee"), ("ST", "Employee")))
        got = authorized_roles(UserState(frozenset({"FA-Clerk", "ST"})), h)
        assert got == {"FA-Clerk", "FA", "ST", "Employee"}

    def test_empty_state(self):
        assert authorized_roles(UserState(), CHAIN) == frozenset()


@given(
    assigned1=st.frozensets(st.sampled_from(["a", "b", "c", "d"]), max_size=4),
    extra=st.frozensets(st.sampled_from(["a", "b", "c", "d"]), max_size=4),
    edges=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", "d"]), st.sampled_from(["a", "b", "c", "d"])
        ),
        max_size=6,
    ),
)
def test_closure_monotone_and_idempotent(assigned1, extra, edges):
    h = RoleHierarchy(tuple(edges))
    small = authorized_roles(UserState(assigned1), h)
    large = authorized_roles(UserState(assigned1 | extra), h)
    assert small <= large
    assert authorized_roles(UserState(small), h) == small


class TestSatisfies:
    def test_positive_and_negative(self):
        pre = Precondition(frozenset({"FA"}), frozenset({"FA-Asst"}))
        assert satisfies(pre, frozenset({"FA", "FA-Senior"}))
        assert not satisfies(pre, frozenset({"FA", "FA-Asst"}))

    def test_unconditional(self):
        assert satisfies(Precondition(), frozenset())

    def test_missing_positive(self):
        pre = Precondition(frozenset({"FA"}), frozenset())
        assert not satisfies(pre, frozenset({"ST"}))


class TestApplyAssign:
    ROW1 = ca(
        "Admin",
        {"FA"},
        {"FA-Asst", "FA-Specialist", "FA-Senior", "FA-Junior"},
        "FA-Clerk",
    )

    def test_adds_target(self):
        got = apply_assign(UserState(frozenset({"FA"})), self.ROW1)
        assert got.assigned == {"FA", "FA-Clerk"}

    def test_input_not_mutated(self):
        state = UserState(frozenset({"FA"}))
        apply_assign(state, self.ROW1)
        assert state.assigned == {"FA"}

    def test_negative_literal_blocks(self):
        with pytest.raises(PreconditionUnsatisfied):
            apply_assign(UserState(frozenset({"FA", "FA-Asst"})), self.ROW1)

    def test_already_assigned(self):
        rule = ca("Admin", set(), set(), "FA")
        with pytest.raises(AlreadyAssigned):
            apply_assign(UserState(frozenset({"FA"})), rule)

    def test_precondition_sees_inherited_roles(self):
        # FA is only inherited through the hierarchy, yet satisfies the rule
        state = UserState(frozenset({"FA-Clerk"}))
        rule = ca("Admin", {"FA"}, set(), "FA-Asst")
        got = apply_assign(state, rule, CHAIN)
        assert got.assigned == {"FA-Clerk", "FA-Asst"}

    def test_inherited_role_can_still_be_assigned_explicitly(self):
        state = UserState(frozenset({"FA-Clerk"}))
        rule = ca("Admin", set(), set(), "FA")
        assert apply_assign(state, rule, CHAIN).assigned == {"FA-Clerk", "FA"}


class TestApplyRevoke:
    def test_removes_target(self):
        got = apply_revoke(
            UserState(frozenset({"FA", "FA-Clerk"})), CanRevokeRule("Admin", "FA-Clerk")
        )
        assert got.assigned == {"FA"}

    def test_no_cascade(self):
        got = apply_revoke(
            UserState(frozenset({"FA", "FA-Clerk"})), CanRevokeRule("Admin", "FA")
        )
        assert got.assigned == {"FA-Clerk"}

    def test_not_assigned(self):
        with pytest.raises(NotAssigned):
            apply_revoke(UserState(frozenset({"FA"})), CanRevokeRule("Admin", "FA-Clerk"))


@given(
    assigned=st.frozensets(st.sampled_from(["a", "b", "c"]), max_size=3),
    role=st.sampled_from(["a", "b", "c", "d"]),
)
def test_assign_then_revoke_restores_state(assigned, role):
    if role in assigned:
        return
    state = UserState(assigned)
    assigned_state = apply_assign(state, ca("x", set(), set(), role))
    back = apply_revoke(assigned_state, CanRevokeRule("x", role))
    assert back == state


def simple_policy():
    return Policy(
        roles=("Admin", "Employee", "FA"),
        users=("u",),
        ua=(("u", "FA"),),
        ca=(
            ca("Admin", set(), set(), "Employee"),
            ca("Admin", {"Employee"}, set(), "FA"),
        ),
        cr=(CanRevokeRule("Admin", "FA"),),
        admin_roles=("Admin",),
    )


class TestApplicableActions:
    def test_order_is_ca_then_cr(self):
        policy = simple_policy()
        steps = applicable_actions(policy, UserState(frozenset({"FA"})))
        assert [(s.kind, s.rule_index, s.role) for s in steps] == [
            (ActionKind.ASSIGN, 0, "Employee"),
            (ActionKind.REVOKE, 0, "FA"),
        ]

    def test_held_target_not_reassignable(self):
        policy = simple_policy()
        steps = applicable_actions(policy, UserState(frozenset({"Employee", "FA"})))
        assert all(s.role != "FA" or s.kind is ActionKind.REVOKE for s in steps)

    def test_empty_state_single_bootstrap(self):
        policy = simple_policy()
        steps = applicable_actions(policy, UserState())
        assert [(s.kind, s.role) for s in steps] == [(ActionKind.ASSIGN, "Employee")]

    @given(assigned=st.frozensets(st.sampled_from(["Admin", "Employee", "FA"]), max_size=3))
    def test_every_action_applies_cleanly(self, assigned):
        policy = simple_policy()
        state = UserState(assigned)
        for step in applicable_actions(policy, state):
            if step.kind is ActionKind.ASSIGN:
                apply_assign(state, policy.ca[step.rule_index], policy.hierarchy)
            else:
                apply_revoke(state, policy.cr[step.rule_index])


def errors_of(policy):
    return [d for d in validate(policy) if d.severity is Severity.ERROR]


class TestValidate:
    def test_clean_policy(self):
        assert validate(simple_policy()) == []

    def test_empty_policy(self):
        assert validate(Policy()) == []

    def test_undeclared_references(self):
        policy = Policy(
            roles=("A",),
            users=("u",),
            ua=(("ghost", "A"), ("u", "B")),
            ca=(ca("X", {"Y"}, {"Z"}, "A"),),
            cr=(CanRevokeRule("A", "W"),),
            queries=(SafetyQuery("nobody", "nothing"),),
        )
        messages = [d.message for d in errors_of(policy)]
        for name in ("'ghost'", "'B'", "'X'", "'Y'", "'Z'", "'W'", "'nobody'", "'nothing'"):
            assert any(name in m for m in messages), name

    def test_overlap_is_one_diagnostic(self):
        policy = Policy(roles=("A", "B"), ca=(ca("A", {"B"}, {"B"}, "A"),))
        overlaps = [d for d in errors_of(policy) if "positively and negatively" in d.message]
        assert len(overlaps) == 1

    def test_target_in_own_precondition(self):
        policy = Policy(roles=("A", "B"), ca=(ca("A", {"B"}, set(), "B"),))
        assert any("own precondition" in d.message for d in errors_of(policy))

    def test_cycle_is_one_diagnostic(self):
        policy = Policy(
            roles=("A", "B"), hierarchy=RoleHierarchy((("A", "B"), ("B", "A")))
        )
        cycles = [d for d in errors_of(policy) if "cycle" in d.message]
        assert len(cycles) == 1
        assert "A" in cycles[0].message and "B" in cycles[0].message

    def test_cycle_names_only_roles_on_it(self):
        # C lies below the A-B cycle and D above it; neither is on it
        policy = Policy(
            roles=("A", "B", "C", "D"),
            hierarchy=RoleHierarchy((("A", "B"), ("B", "A"), ("B", "C"), ("D", "A"))),
        )
        cycles = [d.message for d in errors_of(policy) if "cycle" in d.message]
        assert cycles == ["hierarchy contains a cycle involving: A, B"]
        loop = Policy(roles=("A", "B"), hierarchy=RoleHierarchy((("A", "A"), ("A", "B"))))
        cycles = [d.message for d in errors_of(loop) if "cycle" in d.message]
        assert cycles == ["hierarchy contains a cycle involving: A"]

    def test_acyclic_hierarchy_ok(self):
        policy = Policy(
            roles=("A", "B", "C"),
            hierarchy=RoleHierarchy((("A", "B"), ("A", "C"), ("B", "C"))),
        )
        assert errors_of(policy) == []

    def test_duplicate_role_declaration_is_error(self):
        policy = Policy(roles=("A", "A"))
        assert any("duplicate role" in d.message for d in errors_of(policy))

    def test_duplicate_rules_are_informational(self):
        rule = ca("A", set(), set(), "B")
        policy = Policy(roles=("A", "B"), ca=(rule, rule))
        diags = validate(policy)
        assert errors_of(policy) == []
        assert any(
            d.severity is Severity.INFO and "duplicate can_assign" in d.message
            for d in diags
        )

    def test_reserved_word_name_is_error(self):
        policy = Policy(roles=("TRUE",))
        assert any("reserved" in d.message for d in errors_of(policy))

    def test_bad_identifier_is_error(self):
        policy = Policy(roles=("1st",))
        assert any("invalid role name" in d.message for d in errors_of(policy))

    def test_validation_errors_helper_filters(self):
        rule = ca("A", set(), set(), "B")
        policy = Policy(roles=("A", "B"), ca=(rule, rule))
        assert validation_errors(policy) == []

    def test_diagnostic_str(self):
        d = Diagnostic(Severity.ERROR, "CA[3]", "boom")
        assert str(d) == "error: CA[3]: boom"


def _ill_formed(seed: int) -> Policy:
    """A corpus policy with one to four seeded faults of the kinds
    validation reports: bad or reserved names, repeated declarations,
    rules and edges, undeclared names in every section, overlapping
    literals, a target in its own precondition, a cycle and a self-loop."""
    rng = random.Random(seed)
    policy, _ = random_policy(seed)
    for _ in range(rng.randint(1, 4)):
        roles, users = list(policy.roles), list(policy.users)
        ua, ca_rules, cr = list(policy.ua), list(policy.ca), list(policy.cr)
        edges, admins = list(policy.hierarchy.edges), list(policy.admin_roles)
        queries = list(policy.queries)
        role, user = rng.choice(roles), rng.choice(users)
        ghost = rng.choice(("ghost", "TRUE", "1st", role))
        fault = rng.randrange(14)
        if fault == 0:
            bad = rng.choice(("TRUE", "CA", "1st", "a b", "", role))
            roles.insert(rng.randrange(len(roles) + 1), bad)
        elif fault == 1:
            users.insert(rng.randrange(len(users) + 1), rng.choice(("SPEC", "9u", user)))
        elif fault == 2:
            ua.append(rng.choice(((user, role), (ghost, role), (user, ghost))))
            ua.insert(rng.randrange(len(ua) + 1), rng.choice(ua))
        elif fault == 3:
            pos, neg = rng.sample(roles + ["ghost", "zz"], 2), rng.sample(roles + ["gone"], 1)
            admin, target = rng.choice((role, ghost)), rng.choice((role, ghost, "gone"))
            ca_rules.append(ca(admin, pos, neg, target))
        elif fault == 4 and ca_rules:
            i = rng.randrange(len(ca_rules))
            ca_rules.insert(rng.randrange(len(ca_rules) + 1), ca_rules[i])
        elif fault == 5 and ca_rules:
            i = rng.randrange(len(ca_rules))
            rule = ca_rules[i]
            shared = {rng.choice(roles), "ghost"} if rng.random() < 0.3 else {rng.choice(roles)}
            pre = Precondition(rule.pre.positive | shared, rule.pre.negative | shared)
            ca_rules[i] = replace(rule, pre=pre)
        elif fault == 6 and ca_rules:
            i = rng.randrange(len(ca_rules))
            rule = ca_rules[i]
            pre = Precondition(rule.pre.positive | {rule.target}, rule.pre.negative)
            if rng.random() < 0.5:
                pre = Precondition(rule.pre.positive, rule.pre.negative | {rule.target})
            ca_rules[i] = replace(rule, pre=pre)
        elif fault == 7:
            cr.append(CanRevokeRule(rng.choice((role, ghost)), rng.choice((role, ghost))))
            cr.insert(rng.randrange(len(cr) + 1), rng.choice(cr))
        elif fault == 8:
            edges.append(rng.choice(((role, ghost), (ghost, role), (ghost, ghost))))
        elif fault == 9:
            edges.append((role, rng.choice(roles)))
            edges.insert(rng.randrange(len(edges) + 1), rng.choice(edges))
        elif fault == 10:
            # close a cycle through an existing edge, or a self-loop
            senior, junior = rng.choice(edges) if edges else (role, role)
            edges.append((junior, senior))
        elif fault == 11:
            admins += rng.sample(roles + ["ghost"], 2)
            admins.insert(rng.randrange(len(admins) + 1), rng.choice(admins))
        elif fault == 12:
            query = SafetyQuery(rng.choice((user, "nobody")), rng.choice((role, ghost)))
            queries.append(query)
        elif fault == 13:
            queries.append(SafetyQuery(user, role))
            queries.insert(rng.randrange(len(queries) + 1), rng.choice(queries))
        policy = Policy(
            roles=tuple(roles),
            users=tuple(users),
            ua=tuple(ua),
            ca=tuple(ca_rules),
            cr=tuple(cr),
            hierarchy=RoleHierarchy(tuple(edges)),
            admin_roles=tuple(admins),
            queries=tuple(queries),
        )
    return policy


def test_validate_equals_the_reference_loops():
    """Every diagnostic, in order, equals that of one hand-written loop
    per section on the corpus, hierarchical bank 2 and seeded faults."""
    policies = [random_policy(seed)[0] for seed in range(500)]
    policies.append(generate_bank(BankConfig(branches=2, hierarchy_mode="hierarchical")))
    policies += [_ill_formed(seed) for seed in range(1000)]
    kinds = set()
    for policy in policies:
        expected = reference_diagnose(policy)
        assert validate(policy) == expected
        kinds.update(
            (d.location.split("[")[0], re.split("[':<]", d.message)[0]) for d in expected
        )
    # the faults reach every (section, kind) pair that validation reports
    assert len(kinds) == 22

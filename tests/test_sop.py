"""SOP compiler: rule family shapes, count laws, monitor rules, and the
interaction of the compiled family with the model semantics."""

from __future__ import annotations

from itertools import combinations
from math import comb

import pytest

from arbac.model import (
    CanAssignRule,
    Precondition,
    UserState,
    applicable_actions,
    Policy,
)
from arbac.sop import (
    GuardOverlap,
    InvalidAdmin,
    MonitorInSet,
    SopConstraint,
    SopError,
    compile_sop,
    compile_sop_monitor,
)

FIVE = ("FA-Asst", "FA-Specialist", "FA-Senior", "FA-Junior", "FA-Clerk")


def family(roles=FIVE, limit=3, guard=frozenset({"FA"}), admin="Admin"):
    return compile_sop(SopConstraint(roles, limit), guard=guard, admin=admin)


class TestConstraint:
    def test_duplicate_roles_rejected(self):
        with pytest.raises(SopError):
            SopConstraint(("A", "A"), 1)

    @pytest.mark.parametrize("limit", [0, -1, 6])
    def test_limit_bounds(self, limit):
        with pytest.raises(SopError):
            SopConstraint(FIVE, limit)

    def test_limit_equal_to_set_size_allowed(self):
        SopConstraint(FIVE, 5)


class TestCompile:
    def test_widget_example(self):
        # two roles, limit 1: each role assignable only without the other
        compiled = compile_sop(SopConstraint(("Creation", "Approval"), 1), admin="SO")
        assert compiled == (
            CanAssignRule("SO", Precondition(frozenset(), frozenset({"Approval"})), "Creation"),
            CanAssignRule("SO", Precondition(frozenset(), frozenset({"Creation"})), "Approval"),
        )

    def test_guard_on_every_rule(self):
        for rule in family():
            assert "FA" in rule.pre.positive
            assert rule.admin == "Admin"

    def test_rule_pins_down_full_membership_pattern(self):
        for rule in family():
            others = set(FIVE) - {rule.target}
            literals = (rule.pre.positive | rule.pre.negative) & set(FIVE)
            assert literals == others

    def test_per_target_count_is_55_total(self):
        rules = family()
        assert len(rules) == 55
        for target in FIVE:
            assert sum(1 for r in rules if r.target == target) == 11

    def test_emission_order(self):
        # targets in constraint order; per target subsets by size then
        # lexicographically in constraint order
        rules = [r for r in family() if r.target == "FA-Clerk"]
        held = [tuple(sorted(r.pre.positive - {"FA"})) for r in rules]
        others = tuple(r for r in FIVE if r != "FA-Clerk")
        expected = [()]
        expected += [(r,) for r in others]
        expected += [
            tuple(sorted(pair)) for pair in combinations(others, 2)
        ]
        assert [tuple(sorted(h)) for h in held] == [
            tuple(sorted(e)) for e in expected
        ]

    def test_determinism(self):
        assert family() == family()

    def test_count_law_by_enumeration(self):
        # rule count per target == number of permitted held-subsets,
        # counted directly by enumerating subsets
        for n in range(1, 7):
            roles = tuple(f"R{i}" for i in range(n))
            for limit in range(1, n + 1):
                compiled = compile_sop(SopConstraint(roles, limit), admin="adm")
                expected_per_target = sum(
                    1
                    for k in range(n)
                    for _ in combinations(range(n - 1), k)
                    if k <= limit - 1
                )
                assert expected_per_target == sum(
                    comb(n - 1, k) for k in range(limit)
                )
                for target in roles:
                    got = sum(1 for r in compiled if r.target == target)
                    assert got == expected_per_target, (n, limit, target)

    def test_guard_overlap_rejected(self):
        with pytest.raises(GuardOverlap):
            family(guard=frozenset({"FA", "FA-Clerk"}))

    def test_admin_inside_set_rejected(self):
        with pytest.raises(InvalidAdmin):
            family(admin="FA-Clerk")


class TestMonitor:
    def test_one_rule_per_overshoot_subset(self):
        rules = compile_sop_monitor(SopConstraint(FIVE, 3), monitor="AnyFour")
        assert len(rules) == comb(5, 4)
        seen = {tuple(sorted(r.pre.positive)) for r in rules}
        assert seen == {tuple(sorted(c)) for c in combinations(FIVE, 4)}
        for rule in rules:
            assert rule.target == "AnyFour"
            assert rule.pre.negative == frozenset()

    def test_empty_when_limit_cannot_be_overshot(self):
        assert compile_sop_monitor(SopConstraint(("A", "B"), 2), monitor="M") == ()

    def test_monitor_must_be_outside_set(self):
        with pytest.raises(MonitorInSet):
            compile_sop_monitor(SopConstraint(FIVE, 3), monitor="FA-Clerk")

    def test_admin_must_be_outside_set(self):
        with pytest.raises(InvalidAdmin):
            compile_sop_monitor(SopConstraint(FIVE, 3), monitor="M", admin="FA-Asst")


def test_exactly_one_rule_applicable_below_threshold():
    # for any held subset X of the five roles with |X| <= 2 exactly one
    # clerk rule fires; with |X| >= 3 none does (checked for all 16
    # subsets of the other four roles)
    rules = [r for r in family() if r.target == "FA-Clerk"]
    policy = Policy(
        roles=("Admin", "FA", *FIVE),
        ca=tuple(rules),
        admin_roles=("Admin",),
    )
    others = tuple(r for r in FIVE if r != "FA-Clerk")
    for k in range(5):
        for held in combinations(others, k):
            state = UserState(frozenset({"FA", *held}))
            applicable = applicable_actions(policy, state)
            assert len(applicable) == (1 if len(held) <= 2 else 0), held

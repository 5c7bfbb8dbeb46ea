"""Reachability analysis: search verdicts, slicing, limits, the engine
against a one-state-at-a-time FIFO reference, the naive oracle, and
witness replay."""

from __future__ import annotations

import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from arbac import (
    InvalidQuery,
    Outcome,
    SearchLimits,
    TooLarge,
    Witness,
    oracle_reach,
    reach,
    replay,
    slice_policy,
)
from arbac import _engine
from arbac.analyzer import _compile_masks, _cone
from arbac.bank import BankConfig, generate_bank
from arbac.model import (
    ActionKind,
    ActionStep,
    CanAssignRule,
    CanRevokeRule,
    InvalidPolicy,
    Policy,
    Precondition,
    RoleHierarchy,
    SafetyQuery,
)

from helpers import (
    fifo_reach,
    mutate_bank,
    random_policy,
    reference_closures,
    reference_slice,
    single_division_policy,
    widen,
)


def assign(target, pos=(), neg=()):
    return CanAssignRule("Admin", Precondition(frozenset(pos), frozenset(neg)), target)


def revoke(target):
    return CanRevokeRule("Admin", target)


def mini(roles, ca=(), cr=(), ua=(), edges=()):
    return Policy(
        roles=("Admin", *roles),
        users=("u",),
        ua=tuple(ua),
        ca=tuple(ca),
        cr=tuple(cr),
        hierarchy=RoleHierarchy(tuple(edges)),
        admin_roles=("Admin",),
    )


CHAIN = mini(("A", "B"), ca=[assign("A"), assign("B", pos=("A",))])
Q_B = SafetyQuery("u", "B")


class TestReachElementary:
    def test_target_initially_assigned(self):
        policy = mini(("A",), ua=[("u", "A")])
        verdict = reach(policy, SafetyQuery("u", "A"))
        assert verdict.outcome is Outcome.REACHABLE
        assert verdict.witness == Witness(())
        assert verdict.states_explored == 1
        assert verdict.exhausted is False

    def test_single_unconditional_rule(self):
        policy = mini(("A",), ca=[assign("A")])
        verdict = reach(policy, SafetyQuery("u", "A"))
        assert verdict.outcome is Outcome.REACHABLE
        assert verdict.witness.steps == (ActionStep(ActionKind.ASSIGN, 0, "A"),)
        assert verdict.states_explored == 2
        assert verdict.sliced_role_count == 2

    def test_two_step_chain(self):
        verdict = reach(CHAIN, Q_B)
        assert verdict.witness.steps == (
            ActionStep(ActionKind.ASSIGN, 0, "A"),
            ActionStep(ActionKind.ASSIGN, 1, "B"),
        )
        assert verdict.states_explored == 3
        assert replay(CHAIN, Q_B, verdict.witness)

    def test_unreachable_when_nothing_targets_the_role(self):
        policy = mini(("A", "B"), ca=[assign("A")])
        verdict = reach(policy, Q_B)
        assert verdict.outcome is Outcome.UNREACHABLE
        assert verdict.witness is None
        assert verdict.exhausted is True
        # the slice drops the A rule, leaving only the initial state
        assert verdict.states_explored == 1
        assert verdict.sliced_role_count == 2

    def test_witness_may_need_a_revoke(self):
        policy = mini(
            ("A", "B"),
            ca=[assign("B", neg=("A",))],
            cr=[revoke("A")],
            ua=[("u", "A")],
        )
        verdict = reach(policy, Q_B)
        assert verdict.witness.steps == (
            ActionStep(ActionKind.REVOKE, 0, "A"),
            ActionStep(ActionKind.ASSIGN, 0, "B"),
        )
        assert replay(policy, Q_B, verdict.witness)

    def test_negative_precondition_blocks_without_revoke(self):
        policy = mini(("A", "B"), ca=[assign("B", neg=("A",))], ua=[("u", "A")])
        assert reach(policy, Q_B).outcome is Outcome.UNREACHABLE


class TestHierarchy:
    def test_senior_role_authorizes_target(self):
        policy = mini(
            ("boss", "worker"),
            ca=[assign("boss")],
            edges=[("boss", "worker")],
        )
        query = SafetyQuery("u", "worker")
        for use_slicing in (True, False):
            verdict = reach(policy, query, use_slicing=use_slicing)
            assert verdict.outcome is Outcome.REACHABLE
            assert verdict.witness.steps == (ActionStep(ActionKind.ASSIGN, 0, "boss"),)
        assert replay(policy, query, Witness((ActionStep(ActionKind.ASSIGN, 0, "boss"),)))

    def test_slice_keeps_rules_granting_seniors(self):
        policy = mini(
            ("boss", "worker"),
            ca=[assign("boss")],
            edges=[("boss", "worker")],
        )
        sliced = slice_policy(policy, SafetyQuery("u", "worker"))
        assert sliced.ca == policy.ca
        assert "boss" in sliced.roles

    def test_precondition_satisfied_through_inheritance(self):
        policy = mini(
            ("boss", "worker", "prize"),
            ca=[assign("boss"), assign("prize", pos=("worker",))],
            edges=[("boss", "worker")],
        )
        verdict = reach(policy, SafetyQuery("u", "prize"))
        assert [s.role for s in verdict.witness.steps] == ["boss", "prize"]

    def test_revoking_senior_clears_inherited_negative(self):
        policy = mini(
            ("boss", "worker", "prize"),
            ca=[assign("prize", neg=("worker",))],
            cr=[revoke("boss")],
            ua=[("u", "boss")],
            edges=[("boss", "worker")],
        )
        query = SafetyQuery("u", "prize")
        # the revoke survives slicing because revoking boss clears worker
        sliced = slice_policy(policy, query)
        assert sliced.cr == policy.cr
        verdict = reach(policy, query)
        assert verdict.witness.steps == (
            ActionStep(ActionKind.REVOKE, 0, "boss"),
            ActionStep(ActionKind.ASSIGN, 0, "prize"),
        )
        assert replay(policy, query, verdict.witness)

    def test_closures_equal_the_reference_walk(self):
        hierarchies = [p.hierarchy for p, _ in map(random_policy, range(500))]
        hierarchies.append(generate_bank(BankConfig(branches=2, hierarchy_mode="hierarchical")).hierarchy)
        # a diamond, a chain deeper than the recursion limit listed junior
        # end first, an A-B cycle with a tail on each side, and a self-loop
        hierarchies.append(RoleHierarchy((("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))))
        chain = [f"r{i}" for i in range(1200)]
        hierarchies.append(RoleHierarchy(tuple(zip(chain[-2::-1], chain[:0:-1]))))
        hierarchies.append(RoleHierarchy((("A", "B"), ("B", "A"), ("B", "C"), ("D", "A"))))
        hierarchies.append(RoleHierarchy((("A", "A"), ("A", "B"))))
        tested = 0
        for hierarchy in hierarchies:
            expected = reference_closures(hierarchy)
            expected["outside"] = frozenset({"outside"})
            roles = sorted(expected)
            assert hierarchy.closures == {
                s: expected[s] for s, _ in hierarchy.edges
            }
            for role in roles:
                assert hierarchy.downward_closure((role,)) == expected[role]
            assert hierarchy.downward_closure(roles[::2]) == frozenset().union(
                *(expected[r] for r in roles[::2])
            )
            assert hierarchy.downward_closure(()) == frozenset()
            tested += len(hierarchy.closures)
        assert tested > 1200


class TestSlicing:
    def test_unrelated_component_is_dropped(self):
        policy = mini(
            ("A", "B", "C", "X", "Y"),
            ca=[
                assign("A"),
                assign("B", pos=("A",)),
                assign("C", pos=("A",), neg=("B",)),
                assign("X"),
                assign("Y", pos=("X",)),
            ],
            cr=[revoke("B"), revoke("X")],
        )
        sliced = slice_policy(policy, SafetyQuery("u", "C"))
        assert [r.target for r in sliced.ca] == ["A", "B", "C"]
        assert [r.target for r in sliced.cr] == ["B"]
        assert sliced.roles == ("Admin", "A", "B", "C")
        assert sliced.queries == (SafetyQuery("u", "C"),)

    def test_witness_indices_refer_to_the_original_policy(self):
        policy = mini(
            ("A", "B", "C", "X", "Y"),
            ca=[
                assign("X"),
                assign("Y", pos=("X",)),
                assign("A"),
                assign("C", pos=("A",), neg=("B",)),
            ],
            cr=[revoke("X"), revoke("B")],
            ua=[("u", "B")],
        )
        query = SafetyQuery("u", "C")
        expected = (
            ActionStep(ActionKind.ASSIGN, 2, "A"),
            ActionStep(ActionKind.REVOKE, 1, "B"),
            ActionStep(ActionKind.ASSIGN, 3, "C"),
        )
        sliced_verdict = reach(policy, query, use_slicing=True)
        assert sliced_verdict.witness.steps == expected
        assert replay(policy, query, sliced_verdict.witness)
        # unsliced search and oracle agree step for step
        assert reach(policy, query, use_slicing=False).witness.steps == expected
        assert oracle_reach(policy, query).witness.steps == expected

    def test_no_slicing_reports_full_role_count(self):
        verdict = reach(CHAIN, Q_B, use_slicing=False)
        assert verdict.sliced_role_count == len(CHAIN.roles)

    @pytest.mark.parametrize("seed", range(120))
    def test_slicing_preserves_verdict_and_witness_length(self, seed):
        policy, query = random_policy(seed)
        sliced = reach(policy, query, use_slicing=True)
        full = reach(policy, query, use_slicing=False)
        assert sliced.outcome is full.outcome
        if sliced.outcome is Outcome.REACHABLE:
            assert len(sliced.witness) == len(full.witness)
            assert replay(policy, query, sliced.witness)
            assert replay(policy, query, full.witness)

    @pytest.mark.parametrize("source", ["corpus", "hierarchical-bank-2", "mutated-bank-3"])
    def test_indexed_slice_equals_the_per_query_reference(self, source):
        if source == "corpus":
            instances = [(random_policy(seed)[0], "u0") for seed in range(500)]
            assert {p.hierarchy.is_empty() for p, _ in instances} == {True, False}
        elif source == "hierarchical-bank-2":
            instances = [(generate_bank(BankConfig(
                branches=2, instrumentation="both", hierarchy_mode="hierarchical"
            )), "newUser")]
        else:
            bank = generate_bank(BankConfig(branches=3, instrumentation="both"))
            instances = [(mutate_bank(bank, 3), "newUser")]
        for policy, user in instances:
            for role in policy.roles:
                query = SafetyQuery(user, role)
                roles, ca_map, cr_map = _cone(policy, query)
                expected, ca_ref, cr_ref = reference_slice(policy, query)
                assert (ca_map, cr_map) == (ca_ref, cr_ref), query
                assert tuple(roles) == expected.roles, query
                assert slice_policy(policy, query) == expected, query

    def test_cone_compiled_reach_equals_reach_on_the_slice(self):
        """reach compiles the cone with the policy's closure rows, not the
        sliced hierarchy's; the rows differ where a path runs through a
        dropped role, yet the search must be the same, target by target."""
        queries = 0
        rows_differ = []
        for seed in range(500):
            policy, query = random_policy(seed)
            for role in policy.roles:
                query = SafetyQuery(query.user, role)
                sliced = slice_policy(policy, query)
                cone = _compile_masks(policy, query, *_cone(policy, query))
                if not np.array_equal(cone.closure, _compile_masks(sliced, query, *whole(sliced)).closure):
                    rows_differ.append((seed, role))
                actual = reach(policy, query)
                expected = reach(sliced, query, use_slicing=False)
                assert actual.outcome is expected.outcome, (seed, role)
                assert actual.states_explored == expected.states_explored, (seed, role)
                assert actual.sliced_role_count == expected.sliced_role_count, (seed, role)
                assert named_rules(policy, actual) == named_rules(sliced, expected), (seed, role)
                queries += 1
        assert queries > 2400
        assert rows_differ == [(158, "boss"), (348, "r2"), (348, "dev_ops")]

    def test_index_is_reused_across_queries(self):
        bank = generate_bank(BankConfig(
            branches=2, instrumentation="both", hierarchy_mode="hierarchical"
        ))
        queries = [SafetyQuery("newUser", role) for role in bank.roles]
        random.Random(7).shuffle(queries)
        # the cap ends the few multi-division searches as unknown
        limits = SearchLimits(max_states=2000)
        fields_hash = hash(bank)
        batch = [reach(bank, query, limits) for query in queries]
        assert {"_slice_index", "role_set", "user_set"} <= vars(bank).keys()
        assert "closures" in vars(bank.hierarchy)
        assert {v.outcome for v in batch} == set(Outcome)
        for query, verdict in zip(queries, batch):
            fresh = dataclasses.replace(bank)
            assert "_slice_index" not in vars(fresh)
            assert reach(fresh, query, limits) == verdict, query
        # memoized attributes are not dataclass fields
        assert bank == dataclasses.replace(bank)
        assert hash(bank) == fields_hash == hash(dataclasses.replace(bank))


class TestLimits:
    def test_max_states_truncates_to_unknown(self):
        verdict = reach(CHAIN, Q_B, limits=SearchLimits(max_states=1))
        assert verdict.outcome is Outcome.UNKNOWN
        assert verdict.witness is None
        assert verdict.exhausted is False
        assert verdict.states_explored == 1

    def test_max_states_boundary(self):
        # target found on the third pop: a cap of 3 just suffices
        assert (
            reach(CHAIN, Q_B, limits=SearchLimits(max_states=2)).outcome
            is Outcome.UNKNOWN
        )
        assert (
            reach(CHAIN, Q_B, limits=SearchLimits(max_states=3)).outcome
            is Outcome.REACHABLE
        )

    def test_max_depth_boundary(self):
        assert (
            reach(CHAIN, Q_B, limits=SearchLimits(max_depth=1)).outcome
            is Outcome.UNKNOWN
        )
        verdict = reach(CHAIN, Q_B, limits=SearchLimits(max_depth=2))
        assert verdict.outcome is Outcome.REACHABLE
        assert len(verdict.witness) == 2

    def test_generous_limits_still_exhaust(self):
        policy = mini(("A", "B"), ca=[assign("A")])
        verdict = reach(policy, Q_B, limits=SearchLimits(max_states=1000, max_depth=50))
        assert verdict.outcome is Outcome.UNREACHABLE
        assert verdict.exhausted is True

    @pytest.mark.parametrize("bad", [0, -1])
    def test_limits_must_be_positive(self, bad):
        with pytest.raises(ValueError):
            SearchLimits(max_states=bad)
        with pytest.raises(ValueError):
            SearchLimits(max_depth=bad)

    @pytest.mark.parametrize("seed", range(40))
    def test_capped_verdicts_are_consistent(self, seed):
        policy, query = random_policy(seed)
        unlimited = reach(policy, query)
        for cap in (1, 4, 16):
            capped = reach(policy, query, limits=SearchLimits(max_states=cap))
            if capped.outcome is Outcome.UNKNOWN:
                assert capped.exhausted is False
                assert capped.witness is None
            else:
                assert capped.outcome is unlimited.outcome
                if capped.outcome is Outcome.REACHABLE:
                    # truncation never costs shortestness
                    assert len(capped.witness) == len(unlimited.witness)


LIMITS = [
    SearchLimits(max_states, max_depth)
    for max_states in (None, 1, 4, 16)
    for max_depth in (None, 1, 2, 3)
]


# word bounds of the packed-key fold: empty, tiny, and at or near 64 bits
BOUNDS = (0, 1, 20, 44, 63, 64)


def assert_matches_reference(policy, query, limits_list=LIMITS):
    """reach on ``policy`` (unsliced) equals the FIFO reference on
    outcome, states explored and witness, under every limit."""
    for limits in limits_list:
        actual = reach(policy, query, limits, use_slicing=False)
        assert actual == fifo_reach(policy, query, limits), limits


def whole(policy):
    """The cone arguments of ``_compile_masks`` that keep every role and
    rule, as ``reach(..., use_slicing=False)`` passes them."""
    return policy.roles, range(len(policy.ca)), range(len(policy.cr))


def named_rules(policy, verdict):
    """The rules a verdict's witness applies, in order; comparable across
    a policy and its slice, whose rule indices differ."""
    if verdict.witness is None:
        return None
    return [
        (policy.ca if step.kind is ActionKind.ASSIGN else policy.cr)[step.rule_index]
        for step in verdict.witness.steps
    ]


class TestEngine:
    @pytest.mark.parametrize("seed", range(60))
    def test_engine_matches_fifo_reference(self, seed):
        policy, query = random_policy(seed)
        sliced = slice_policy(policy, query)
        for limits in LIMITS:
            actual = reach(policy, query, limits)
            expected = fifo_reach(sliced, query, limits)
            assert actual.outcome is expected.outcome
            assert actual.states_explored == expected.states_explored
            assert named_rules(policy, actual) == named_rules(sliced, expected)
        assert_matches_reference(policy, query)

    @pytest.mark.parametrize("seed", range(60))
    def test_depth_limits_agree_with_the_oracle(self, seed):
        policy, query = random_policy(seed)
        oracle = oracle_reach(policy, query)
        for max_depth in (1, 2, 3, 4):
            verdict = reach(policy, query, SearchLimits(max_depth=max_depth))
            if oracle.outcome is Outcome.REACHABLE and len(oracle.witness) <= max_depth:
                assert verdict.outcome is Outcome.REACHABLE
                assert len(verdict.witness) == len(oracle.witness)
                assert replay(policy, query, verdict.witness)
            elif oracle.outcome is Outcome.REACHABLE:
                assert verdict.outcome is Outcome.UNKNOWN
            else:
                assert verdict.outcome in (Outcome.UNREACHABLE, Outcome.UNKNOWN)

    @pytest.mark.parametrize("seed", range(0, 60, 3))
    def test_three_word_states(self, seed):
        # 130 inert roles interleaved with the corpus roles: 3 words
        policy, query = widen(*random_policy(seed), extra=130)
        assert 128 < len(policy.roles) <= 192
        assert_matches_reference(policy, query)
        wide, narrow = reach(policy, query), reach(*random_policy(seed))
        assert (wide.outcome, wide.states_explored, wide.witness) == (
            narrow.outcome,
            narrow.states_explored,
            narrow.witness,
        )

    def test_three_word_states_in_small_chunks(self, monkeypatch):
        # most levels fill a chunk of 4 cells (none fills one of 64), so
        # three-word states fold at the table level and argsort below it
        monkeypatch.setattr(_engine, "CELLS", 4)
        for seed in range(0, 60, 3):
            self.test_three_word_states(seed)

    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_small_chunks(self, cells, monkeypatch):
        monkeypatch.setattr(_engine, "CELLS", cells)
        for seed in range(0, 60, 4):
            assert_matches_reference(*random_policy(seed))
        policy = single_division_policy(mutated=True)
        assert_matches_reference(policy, policy.queries[0], LIMITS[:4])

    def test_two_word_bank_slice(self):
        bank = generate_bank(BankConfig(branches=3, instrumentation="both"))
        sliced = slice_policy(mutate_bank(bank, 1), SafetyQuery("newUser", "TargetQ1"))
        assert 64 < len(sliced.roles) <= 128
        query = SafetyQuery("newUser", "AnyFour_1")
        caps = [SearchLimits(max_states, max_depth)
                for max_states, max_depth in ((None, None), (1, None), (500, None),
                                              (None, 2), (500, 7))]
        assert_matches_reference(sliced, query, caps)
        verdict = reach(sliced, query, use_slicing=False)
        assert verdict.outcome is Outcome.REACHABLE and len(verdict.witness) == 7

    def test_hierarchical_bank_slice(self):
        bank = generate_bank(BankConfig(branches=2, hierarchy_mode="hierarchical"))
        for target in ("FA-Clerk@1", "FA@2", "Employee@2"):
            query = SafetyQuery("newUser", target)
            sliced = slice_policy(bank, query)
            assert not sliced.hierarchy.is_empty()
            assert_matches_reference(sliced, query, LIMITS[::3])

    def test_bank_slices_in_small_chunks(self, monkeypatch):
        # every level fills a chunk, so the enable table tests two-word
        # states and, with a hierarchy, authorized-set words
        monkeypatch.setattr(_engine, "CELLS", 64)
        self.test_two_word_bank_slice()
        self.test_hierarchical_bank_slice()

    @pytest.mark.parametrize("cells", [4, 64, _engine.CELLS])
    def test_wide_single_word_states(self, cells, monkeypatch):
        # 59-64 roles, the top one an inert role every state holds: one
        # word that packs with a position only in lists of at most 32
        monkeypatch.setattr(_engine, "CELLS", cells)
        instances = [random_policy(seed) for seed in range(1, 60, 3)]
        instances += [(p, p.queries[0]) for p in map(single_division_policy, (False, True))]
        for policy, query in instances:
            for top in (61, 64):
                extra = top - len(policy.roles)
                wide, query = widen(policy, query, extra=extra - (extra - 1) % 3)
                assert 58 < len(wide.roles) <= 64
                assert_matches_reference(wide, query)

    @pytest.mark.parametrize("high", [0, 1, 3, 20, 44, 61, 63, 64])
    def test_distinct_keeps_first_occurrences(self, high):
        # word 0 lies below 2**high; each further word (of up to three)
        # below a bound from BOUNDS, so every branch of the fold runs
        rng = np.random.default_rng(high)
        tails = [()] + [(b,) for b in BOUNDS] + [(b, c) for b in BOUNDS for c in BOUNDS]
        for highs in ([high, *tail] for tail in tails):
            words = len(highs)
            for size in (0, 1, 2, 3, 4, 5, 8, 9, 100, 4097):
                pool = np.stack(
                    [rng.integers(0, 2**h, size=max(1, size // 3), dtype=np.uint64) for h in highs],
                    axis=1,
                )
                states = pool[rng.integers(0, len(pool), size)]
                first, keys = _engine._distinct(states, highs)
                expected = {}
                for i, row in enumerate(map(tuple, states.tolist())):
                    expected.setdefault(row, i)
                rows = sorted(expected)
                assert first.tolist() == [expected[row] for row in rows]
                # memcmp order of the big-endian words is the rows' order
                raw = [b"".join(w.to_bytes(8, "big") for w in row) for row in rows]
                assert raw == sorted(raw)
                if words == 1:
                    assert keys.tolist() == [row[0] for row in rows]
                else:
                    assert [bytes(k) for k in keys] == raw

    @pytest.mark.parametrize("high", BOUNDS)
    def test_rank_is_dense_and_ordered(self, high):
        rng = np.random.default_rng(high)
        for size in (1, 2, 3, 9, 100, 4097):
            column = rng.integers(0, 2**high, size=size, dtype=np.uint64)
            column = rng.choice(column, size)  # repeats
            values, inverse = np.unique(column, return_inverse=True)
            out = np.empty_like(column)
            assert _engine._rank(column, out) == (len(values) - 1).bit_length()
            assert out.tolist() == inverse.ravel().tolist()
            assert _engine._rank(column, column) == (len(values) - 1).bit_length()
            assert (column == out).all()

    def test_enable_table_matches_broadcast(self):
        """The table's enable bits equal the broadcast test exactly, on
        random states (reachable or not) of every corpus program."""
        rng = np.random.default_rng(0)
        instances = [random_policy(seed) for seed in range(500)]
        instances += [widen(*random_policy(seed), extra=130) for seed in range(0, 500, 25)]
        tested = hierarchical = 0
        for policy, query in instances:
            for cone in (whole(policy), _cone(policy, query)):
                program = _compile_masks(policy, query, *cone)
                if not len(program.flip):
                    continue
                tested += 1
                hierarchical += program.closure is not None
                states = rng.integers(0, 2**64, size=(200, len(program.init)), dtype=np.uint64)
                states[0], states[1] = 0, ~np.uint64(0)
                words = _engine._tested_words(program, states)
                table = _engine._enable_table(program)
                assert np.array_equal(
                    _engine._enabled(program, words, table),
                    _engine._enabled(program, words, None),
                )
        assert tested > 900 and hierarchical > 150

    def test_enable_table_builds_in_little_more_than_its_size(self):
        """The unsliced hierarchical bank-18 program (5,185 actions, 159
        tested bytes) builds its 25.5 MiB table without a (P, 256, A)
        bool array."""
        policy = generate_bank(
            BankConfig(branches=18, instrumentation="both", hierarchy_mode="hierarchical")
        )
        program = _compile_masks(policy, SafetyQuery("newUser", "Admin"), *whole(policy))
        tracemalloc.start()
        try:
            table = _engine._enable_table(program)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.rows.shape == (159, 256, 82)
        assert peak < 2 * table.rows.nbytes


class TestOracle:
    def test_matches_reach_on_the_chain(self):
        verdict = oracle_reach(CHAIN, Q_B)
        assert verdict.outcome is Outcome.REACHABLE
        assert verdict.witness == reach(CHAIN, Q_B, use_slicing=False).witness
        # three reachable role sets in total, all visited
        assert verdict.states_explored == 3
        assert verdict.exhausted is True

    def test_unreachable_after_full_exploration(self):
        policy = mini(("A", "B"), ca=[assign("B", neg=("A",))], ua=[("u", "A")])
        verdict = oracle_reach(policy, Q_B)
        assert verdict.outcome is Outcome.UNREACHABLE
        assert verdict.states_explored == 1
        assert verdict.exhausted is True

    def test_role_cap(self):
        policy = generate_bank(BankConfig(branches=1))
        with pytest.raises(TooLarge):
            oracle_reach(policy, SafetyQuery("newUser", "Employee@1"))
        with pytest.raises(TooLarge):
            oracle_reach(CHAIN, Q_B, max_roles=2)

    def test_rejects_bad_query(self):
        with pytest.raises(InvalidQuery):
            oracle_reach(CHAIN, SafetyQuery("nobody", "B"))

    @pytest.mark.parametrize("seed", range(80))
    def test_differential_against_reach(self, seed):
        policy, query = random_policy(seed)
        expected = oracle_reach(policy, query)
        actual = reach(policy, query)
        assert actual.outcome is expected.outcome
        if expected.outcome is Outcome.REACHABLE:
            assert len(actual.witness) == len(expected.witness)
            assert replay(policy, query, expected.witness)
            assert replay(policy, query, actual.witness)


class TestSingleDivision:
    def test_four_roles_unobtainable_with_intact_rules(self):
        policy = single_division_policy()
        query = policy.queries[0]
        assert reach(policy, query).outcome is Outcome.UNREACHABLE
        assert reach(policy, query, use_slicing=False).outcome is Outcome.UNREACHABLE
        assert oracle_reach(policy, query).outcome is Outcome.UNREACHABLE

    def test_weakened_clerk_rule_opens_a_path(self):
        policy = single_division_policy(mutated=True)
        query = policy.queries[0]
        verdict = reach(policy, query)
        oracle = oracle_reach(policy, query)
        assert verdict.outcome is Outcome.REACHABLE
        assert len(verdict.witness) == len(oracle.witness) == 7
        assert replay(policy, query, verdict.witness)
        assert [s.role for s in oracle.witness.steps] == [
            "Employee",
            "FA",
            "FA-Asst",
            "FA-Special",
            "FA-Junior",
            "FA-Clerk",
            "AnyFour",
        ]


class TestReplay:
    def test_rejects_tampered_witnesses(self):
        policy = mini(
            ("A", "B"),
            ca=[assign("B", neg=("A",))],
            cr=[revoke("A")],
            ua=[("u", "A")],
        )
        good = (
            ActionStep(ActionKind.REVOKE, 0, "A"),
            ActionStep(ActionKind.ASSIGN, 0, "B"),
        )
        assert replay(policy, Q_B, Witness(good))
        # wrong order: B's rule still sees A assigned
        assert not replay(policy, Q_B, Witness(good[::-1]))
        # rule index out of range, in both directions
        assert not replay(policy, Q_B, Witness((ActionStep(ActionKind.ASSIGN, 5, "B"),)))
        assert not replay(policy, Q_B, Witness((ActionStep(ActionKind.ASSIGN, -1, "B"),)))
        # step role contradicts the rule it names
        assert not replay(
            policy, Q_B, Witness((good[0], ActionStep(ActionKind.ASSIGN, 0, "A")))
        )
        # stopping early leaves the target unauthorized
        assert not replay(policy, Q_B, Witness(good[:1]))

    def test_empty_witness(self):
        policy = mini(("A",), ua=[("u", "A")])
        assert replay(policy, SafetyQuery("u", "A"), Witness(()))
        assert not replay(policy, SafetyQuery("u", "Admin"), Witness(()))


class TestInputChecks:
    def test_unknown_user_or_role(self):
        with pytest.raises(InvalidQuery):
            reach(CHAIN, SafetyQuery("ghost", "B"))
        with pytest.raises(InvalidQuery):
            reach(CHAIN, SafetyQuery("u", "Ghost"))
        with pytest.raises(InvalidQuery):
            slice_policy(CHAIN, SafetyQuery("u", "Ghost"))

    def test_ill_formed_policy_is_rejected(self):
        policy = mini(("A",), ca=[assign("ghost")])
        with pytest.raises(InvalidPolicy):
            reach(policy, SafetyQuery("u", "A"))
        with pytest.raises(InvalidPolicy):
            oracle_reach(policy, SafetyQuery("u", "A"))

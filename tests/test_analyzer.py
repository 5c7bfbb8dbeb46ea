"""Reachability analysis: search verdicts, slicing, limits, the engine
against a one-state-at-a-time FIFO reference, the naive oracle, and
witness replay."""

from __future__ import annotations

import dataclasses
import functools
import math
import random
import threading
import time
import tracemalloc
from unittest import mock

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
from arbac.bank import ADMIN_ROLE, BankConfig, generate_bank
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
    reference_keep,
    reference_slice,
    reference_undo,
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

    def test_running_out_of_memory_ends_unknown(self, monkeypatch):
        """A level whose expansion runs out of memory is dropped: the
        search stops with the states popped before it, levels 0-2."""
        expand, calls = _engine._expand, []

        def failing(*args):
            calls.append(len(args[1]))
            if len(calls) == 3:
                raise MemoryError
            return expand(*args)

        monkeypatch.setattr(_engine, "_expand", failing)
        policy, query = TestLevelChunks.bank_one()
        verdict = reach(policy, query)
        assert verdict.outcome is Outcome.UNKNOWN and not verdict.exhausted
        assert calls == [1, 1, 4] and verdict.states_explored == 6

    @pytest.mark.parametrize("build", ["_enable_table", "_keep", "_undo"])
    def test_running_out_of_memory_building_the_tables_ends_unknown(self, build, monkeypatch):
        """Bank 1 q1 builds its enable table, keep and G when level 8
        first fills a chunk: a build that runs out of memory stops the
        search with the 4,877 states of levels 0-7."""
        monkeypatch.setattr(_engine, build, mock.Mock(side_effect=MemoryError))
        verdict = reach(*TestLevelChunks.bank_one())
        assert verdict.outcome is Outcome.UNKNOWN and not verdict.exhausted
        assert verdict.states_explored == 4_877

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


@functools.cache
def hierarchical_bank_18():
    config = BankConfig(branches=18, instrumentation="both", hierarchy_mode="hierarchical")
    return generate_bank(config)


def traced_build(build):
    """The unsliced hierarchical bank-18 program, ``build`` of it, and
    the peak traced memory of the build."""
    policy = hierarchical_bank_18()
    program = _compile_masks(policy, SafetyQuery("newUser", "Admin"), *whole(policy))
    tracemalloc.start()
    try:
        return program, build(program), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        sliced, query = wide_witness_slice()
        assert 64 < len(sliced.roles) <= 128
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
        # states and, with a hierarchy, authorization bits
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

    @pytest.mark.parametrize("cells", [4, 64, _engine.CELLS])
    def test_authorization_bits_spill_into_a_second_tested_word(self, cells, monkeypatch):
        # hierarchical corpus policies widened to 63 roles: the state fits
        # one word, the role bits plus the authorization bits need two
        monkeypatch.setattr(_engine, "CELLS", cells)
        spilled = 0
        for seed in range(500):
            policy, query = random_policy(seed)
            if policy.hierarchy.is_empty():
                continue
            wide, query = widen(policy, query, extra=63 - len(policy.roles))
            program = _compile_masks(wide, query, *whole(wide))
            if (len(program.init), len(program.test)) != (1, 2):
                continue
            spilled += 1
            assert_matches_reference(wide, query, [SearchLimits(cap) for cap in (None, 1, 4, 16)])
        assert spilled == 68

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

    def test_distinct_ranks_full_words_before_the_key(self, monkeypatch):
        # 2,500 rows of ten 64-bit words: each word after the first needs a
        # rank to fit, and ranking it first leaves room for two more before
        # the key needs one (ranking the key first costs 18 ranks)
        calls = []
        rank = _engine._rank
        monkeypatch.setattr(_engine, "_rank", lambda *a: calls.append(1) or rank(*a))
        rng = np.random.default_rng(5)
        states = rng.integers(0, 2**64, size=(2500, 10), dtype=np.uint64)
        states[1::2] = states[::2]
        first, _ = _engine._distinct(states, [64] * 10)
        assert sorted(first.tolist()) == list(range(0, 2500, 2))
        assert len(calls) <= 12

    @staticmethod
    def resized(program, n_act: int):
        """``program`` with its actions repeated or cut to ``n_act``."""
        pick = np.resize(np.arange(len(program.flip)), n_act)
        return program._replace(
            test=program.test[:, pick], need=program.need[:, pick], flip=program.flip[pick]
        )

    def test_enable_table_matches_broadcast(self):
        """The table's enabled cells equal the broadcast test's exactly,
        alone and under random keep rows whose pad bits are set, on
        random states (reachable or not) of every corpus program, and of
        every tenth one cut or repeated to 63, 64, 65, 127, 128 and 129
        actions."""
        rng = np.random.default_rng(0)
        instances = [random_policy(seed) for seed in range(500)]
        instances += [widen(*random_policy(seed), extra=130) for seed in range(0, 500, 25)]
        tested = hierarchical = 0
        residues = set()
        for policy, query in instances:
            for cone in (whole(policy), _cone(policy, query)):
                program = _compile_masks(policy, query, *cone)
                if not len(program.flip):
                    continue
                programs = [program]
                if tested % 10 == 0:
                    programs += [self.resized(program, n) for n in (63, 64, 65, 127, 128, 129)]
                tested += 1
                hierarchical += len(program.closure) > 0
                for program in programs:
                    n_act = len(program.flip)
                    residues.add(n_act % 64)
                    states = rng.integers(0, 2**64, size=(200, len(program.init)), dtype=np.uint64)
                    states[0], states[1] = 0, ~np.uint64(0)
                    words = _engine._tested_words(program, states)
                    table = _engine._enable_table(program)
                    ok = np.zeros(len(states) * n_act, np.bool_)
                    ok[_engine._enabled(program, words, None)] = True
                    assert np.array_equal(_engine._enabled(program, words, table), ok.nonzero()[0])
                    keep = rng.integers(0, 2**64, size=(len(states), -(-n_act // 64)),
                                        dtype=np.uint64)
                    keep[:, -1] |= ~np.uint64(0) << np.uint64(n_act % 64)  # every pad bit
                    ok &= unpacked(keep, n_act).ravel()
                    assert np.array_equal(
                        _engine._enabled(program, words, table, keep), ok.nonzero()[0]
                    )
        assert tested > 900 and hierarchical > 150
        assert {0, 1, 63} <= residues

    def test_hierarchical_bank_cones_test_one_word(self):
        """A bank-18 cone of one state word tests one word: its roles and
        their authorization bits together fit in 64 bits."""
        policy = hierarchical_bank_18()
        hierarchical = 0
        for role in policy.roles:
            query = SafetyQuery("newUser", role)
            program = _compile_masks(policy, query, *_cone(policy, query))
            if len(program.init) == 1:
                assert len(program.test) == 1, role
                hierarchical += len(program.closure) > 0
        assert hierarchical >= 594

    def test_enable_table_builds_in_little_more_than_its_size(self):
        """The unsliced hierarchical bank-18 program (5,185 actions, 91
        tested bytes) builds its 14.6 MiB table without a (P, 256, A)
        bool array."""
        _, table, peak = traced_build(_engine._enable_table)
        assert table.rows.shape == (91, 256, 82)
        assert peak < 2 * table.rows.nbytes


@functools.lru_cache(maxsize=None)
def search_levels(policy, query, cells: int, paired: bool):
    """Every level of ``reach(policy, query, use_slicing=False)``'s uncapped
    search at ``cells`` per chunk, ``paired`` or not, its action count, and
    the level that builds the enable table (the first but the last that
    fills a chunk, or none). At 4 cells on one thread: the first run."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_engine, "CELLS", cells)
        patch.setattr(_engine, "PAIRED", paired)
        program = _compile_masks(policy, query, *whole(policy))
        levels = list(_engine.levels(program, None))
    n_act = max(1, len(program.flip))
    fills = (d for d, level in enumerate(levels[:-1]) if len(level.states) * n_act >= cells)
    return levels, n_act, next(fills, len(levels))


@functools.lru_cache(maxsize=None)
def same_levels(policy, query, cells: int, paired: bool):
    """``search_levels`` at 4 or more cells, checked once against the first
    run by the chunk lemma: the same hit, states and cells on every level
    (the shorter one's on a level that meets the goal, which ends at the
    chunk that found it), and the same free flags from the table on."""
    levels, n_act, start = search_levels(policy, query, cells, paired)
    first = search_levels(policy, query, 4, False)[0]
    assert len(levels) == len(first)
    for d, (level, expected) in enumerate(zip(levels, first)):
        assert level.hit == expected.hit, d
        n = min(len(level.states), len(expected.states)) if level.hit else None
        assert np.array_equal(level.states[:n], expected.states[:n]), d
        assert np.array_equal(level.cells[:n], expected.cells[:n]), d
        assert np.array_equal(level.free[:n], expected.free[:n] & (d >= start)), d
    return levels, n_act, start


def parent_free(levels, n_act: int) -> list[np.ndarray]:
    """Per level after the first, whether each state's parent is free."""
    offsets = np.cumsum([0] + [len(level.states) for level in levels])
    return [before.free[level.cells // n_act - offset]
            for before, level, offset in zip(levels, levels[1:], offsets)]


def row_keys(states: np.ndarray) -> np.ndarray:
    """Each row of the uint64 ``states`` as one raw byte string."""
    return np.ascontiguousarray(states).view((np.void, 8 * states.shape[1])).ravel()


@functools.cache
def hierarchical_slices():
    bank = generate_bank(BankConfig(branches=2, hierarchy_mode="hierarchical"))
    queries = [SafetyQuery("newUser", target) for target in ("FA-Clerk@1", "FA@2")]
    return [(slice_policy(bank, query), query) for query in queries]


@functools.cache
def wide_witness_bank():
    """Bank 3 with branch 1's clerk rule weakened."""
    return mutate_bank(generate_bank(BankConfig(branches=3, instrumentation="both")), 1)


@functools.cache
def wide_witness_slice():
    sliced = slice_policy(wide_witness_bank(), SafetyQuery("newUser", "TargetQ1"))
    return sliced, SafetyQuery("newUser", "AnyFour_1")


@functools.lru_cache(maxsize=None)
def one_thread(policy, query):
    """``reach``'s verdict on ``query`` and the levels of its search, on one thread."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_engine, "PAIRED", False)
        program = _compile_masks(policy, query, *_cone(policy, query))
        return reach(policy, query), list(_engine.levels(program, None))


class TestLevelChunks:
    """The chunk loop of one BFS level: the stop at the state cap, and
    the worker thread that expands every other chunk."""

    @staticmethod
    def record_worker(monkeypatch):
        """The futures of the chunks handed to the worker, which still
        expands them; it never holds more than one."""
        futures = []
        worker = _engine._worker

        class Recording:
            def submit(self, fn, *args):
                assert all(future.done() for future in futures)
                futures.append(worker().submit(fn, *args))
                return futures[-1]

        monkeypatch.setattr(_engine, "_worker", Recording)
        return futures

    @staticmethod
    @functools.cache
    def bank_one():
        policy = generate_bank(BankConfig(branches=1, instrumentation="q1"))
        return policy, policy.queries[0]

    @staticmethod
    def bank_one_program():
        policy, query = TestLevelChunks.bank_one()
        return _compile_masks(policy, query, *_cone(policy, query))

    @pytest.mark.parametrize("paired", [False, True])
    def test_a_capped_level_stops_at_the_cap(self, paired, monkeypatch):
        """Under a 197,000-state cap, bank 1 q1 pops 558 states of the
        level after its 80,000-state frontier (21 chunks). The first
        chunk already queues more, so no later chunk is taken; the
        worker's chunk, expanded beside it, is dropped."""
        monkeypatch.setattr(_engine, "PAIRED", paired)
        verdict = reach(*self.bank_one(), SearchLimits(max_states=197_000))
        assert verdict.outcome is Outcome.UNKNOWN and verdict.states_explored == 197_000
        program = self.bank_one_program()
        *_, frontier, level = _engine.levels(program, 197_000)
        rows = _engine.CELLS // len(program.flip)
        assert -(-len(frontier.states) // rows) == 21
        assert level.work.chunks == (2 if paired else 1)

    @pytest.mark.parametrize("cells", [4, 64])
    def test_capped_searches_match_the_reference(self, cells, monkeypatch):
        monkeypatch.setattr(_engine, "CELLS", cells)
        for seed in range(0, 120, 3):
            policy, query = random_policy(seed)
            total = reach(policy, query, use_slicing=False).states_explored
            caps = {1, 2, 3, total // 3, total // 2, total - 1, total, total + 1} - {0}
            assert_matches_reference(policy, query, [SearchLimits(cap) for cap in sorted(caps)])

    @pytest.mark.parametrize("cells", [4, 64])
    def test_every_cap_on_one_division_matches_the_reference(self, cells, monkeypatch):
        """Here a cut last level has no unvisited child, so a level that
        stopped at exactly the states the cap leaves would pass for an
        exhausted search."""
        monkeypatch.setattr(_engine, "CELLS", cells)
        for mutated in (False, True):
            policy = single_division_policy(mutated=mutated)
            query = policy.queries[0]
            total = reach(policy, query, use_slicing=False).states_explored
            assert_matches_reference(policy, query, [SearchLimits(cap) for cap in range(1, total + 2)])

    def test_a_cap_at_exhaustion_still_exhausts(self, monkeypatch):
        """A cap equal to the states an unreachable query exhausts gives
        the exhausted verdict, one less gives ``unknown``, although the
        cap falls on the last state of a level of many chunks."""
        monkeypatch.setattr(_engine, "CELLS", 4)
        instances = [random_policy(seed) for seed in range(500)]
        instances.append((single_division_policy(), single_division_policy().queries[0]))
        capped = 0
        for policy, query in instances:
            full = reach(policy, query, use_slicing=False)
            if full.outcome is not Outcome.UNREACHABLE or full.states_explored < 3:
                continue
            capped += 1
            at = reach(policy, query, SearchLimits(full.states_explored), use_slicing=False)
            below = reach(policy, query, SearchLimits(full.states_explored - 1), use_slicing=False)
            assert at == full and at.exhausted
            assert below.outcome is Outcome.UNKNOWN and not below.exhausted
            assert below.states_explored == full.states_explored - 1
        assert capped == 38

    def test_bank_one_cap_at_exhaustion(self):
        policy, query = self.bank_one()
        at = reach(policy, query, SearchLimits(max_states=1 + 27**4))
        below = reach(policy, query, SearchLimits(max_states=27**4))
        assert at.outcome is Outcome.UNREACHABLE and at.exhausted
        assert at.states_explored == 1 + 27**4
        assert below.outcome is Outcome.UNKNOWN and not below.exhausted
        assert below.states_explored == 27**4

    def test_a_level_near_the_cap_merges_a_logarithmic_number_of_times(self, monkeypatch):
        """At the exhaustion cap of bank 1 q1 the summed chunk sizes of
        the last levels pass the room the cap leaves while their distinct
        states do not. With 2^16 cells a level spans up to 425 chunks,
        and merging the chunks so far once per chunk would cost a sort
        of the level per chunk."""
        monkeypatch.setattr(_engine, "CELLS", 1 << 16)
        monkeypatch.setattr(_engine, "PAIRED", False)
        levels = list(_engine.levels(self.bank_one_program(), 1 + 27**4))
        # the search exhausts the states at the cap
        assert not len(levels[-1].states) and sum(len(lv.states) for lv in levels) == 1 + 27**4
        work = [level.work for level in levels[1:]]
        assert max(w.chunks for w in work) == 425
        assert sum(w.merges for w in work) > sum(w.chunks > 1 for w in work)
        for w in work:
            assert w.merges <= 1 + math.log2(w.chunks), w

    @pytest.mark.parametrize("cells", [4, 64])
    def test_paired_and_inline_chunks_agree(self, cells, monkeypatch):
        monkeypatch.setattr(_engine, "CELLS", cells)
        handed = self.record_worker(monkeypatch)
        instances = [(*random_policy(seed), LIMITS) for seed in range(0, 60, 3)]
        instances += [(policy, query, LIMITS[::3]) for policy, query in hierarchical_slices()]
        for policy, query, limits_list in instances:
            program = _compile_masks(policy, query, *whole(policy))
            for limits in limits_list:
                results = []
                for paired in (False, True):
                    monkeypatch.setattr(_engine, "PAIRED", paired)
                    results.append(_engine.search(program, limits.max_states, limits.max_depth))
                    actual = reach(policy, query, limits, use_slicing=False)
                    assert actual == fifo_reach(policy, query, limits), limits
                assert results[0] == results[1], limits
        assert handed

    @pytest.mark.parametrize("paired", [False, True])
    @pytest.mark.parametrize("cells", [4, 64, _engine.CELLS])
    def test_levels_do_not_depend_on_the_chunks(self, cells, paired):
        """The chunk lemma, level by level (see ``same_levels``), on the
        corpus and the hierarchical bank-2 slices."""
        for policy, query in TestSleepLemma.corpus() + hierarchical_slices():
            same_levels(policy, query, cells, paired)

    def test_one_worker_holds_one_chunk_done_before_expand_returns(self, monkeypatch):
        monkeypatch.setattr(_engine, "CELLS", 64)
        monkeypatch.setattr(_engine, "PAIRED", True)
        handed = self.record_worker(monkeypatch)
        lock = threading.Lock()
        running, most, workers = set(), [0], set()
        enabled = _engine._enabled

        def watched_enabled(program, words, *rest):
            me = threading.get_ident()
            with lock:
                running.add(me)
                most[0] = max(most[0], len(running))
                if threading.current_thread() is not threading.main_thread():
                    workers.add(me)
            try:
                return enabled(program, words, *rest)
            finally:
                with lock:
                    running.discard(me)

        monkeypatch.setattr(_engine, "_enabled", watched_enabled)
        policy = single_division_policy(mutated=True)
        program = _compile_masks(policy, policy.queries[0], *whole(policy))
        for _ in _engine.levels(program, None):
            assert all(future.done() for future in handed)
        assert_matches_reference(policy, policy.queries[0], LIMITS[::5])
        assert len(handed) > 1 and len(workers) == 1 and most[0] <= 2

    @pytest.mark.parametrize("failing_thread", ["worker", "main"])
    def test_an_error_ends_the_level_after_the_workers_chunk(self, failing_thread, monkeypatch):
        """An error in either thread reaches the caller of ``reach``, and
        only once the worker's chunk is done."""

        class ChunkFailed(Exception):
            pass

        monkeypatch.setattr(_engine, "CELLS", 4)
        monkeypatch.setattr(_engine, "PAIRED", True)
        handed = self.record_worker(monkeypatch)
        enabled = _engine._enabled

        def failing(program, words, *rest):
            on_main = threading.current_thread() is threading.main_thread()
            if on_main == (failing_thread == "main") and handed:
                raise ChunkFailed
            if not on_main:
                time.sleep(0.05)  # still busy when this thread fails
            return enabled(program, words, *rest)

        policy = single_division_policy()
        with monkeypatch.context() as patched:
            patched.setattr(_engine, "_enabled", failing)
            with pytest.raises(ChunkFailed):
                reach(policy, policy.queries[0], use_slicing=False)
        assert handed and all(future.done() for future in handed)
        # the worker survives the error
        assert_matches_reference(policy, policy.queries[0], LIMITS[:1])

    def test_hierarchical_bank_queries_start_no_thread(self, monkeypatch):
        """Every level of the 595 hierarchical bank-18 role queries fits
        one chunk, so even with two cores no worker starts."""
        monkeypatch.setattr(_engine, "PAIRED", True)
        policy = hierarchical_bank_18()
        roles = [r for r in policy.roles if "@" in r or r == ADMIN_ROLE]
        assert len(roles) == 595
        handed = self.record_worker(monkeypatch)
        before = threading.active_count()
        for role in roles:
            reach(policy, SafetyQuery("newUser", role))
        assert handed == [] and threading.active_count() == before


# a role assigned and revoked again on the way to T: +A +B -A -C +T
DETOUR = mini(
    ("A", "B", "C", "T"),
    ca=[assign("A"), assign("B", pos=("A",)), assign("C"), assign("T", pos=("B",), neg=("A", "C"))],
    cr=[revoke("A"), revoke("B"), revoke("C")],
    ua=[("u", "C")],
)
Q_T = SafetyQuery("u", "T")


def popcounts(words):
    """The set bits of each row of the (n, W) uint64 ``words``."""
    return np.unpackbits(np.ascontiguousarray(words).view(np.uint8), axis=1).sum(axis=1)


@functools.lru_cache(maxsize=None)
def distance_checked(policy, query) -> None:
    """Check the distance lemma once on every level of the first run, which
    each lemma check reads and every other run is compared to."""
    levels = search_levels(policy, query, 4, False)[0]
    init = levels[0].states[0]
    for k, level in enumerate(levels):
        apart = popcounts(level.states ^ init)
        assert (apart <= k).all() and (apart % 2 == k % 2).all(), k
        assert (apart[level.free] == k).all(), k


class TestDistanceLemma:
    """A state queued at level k differs from init in at most k bits,
    with k's parity, and in exactly k bits when the undo lemma flags it
    free; a free state's children (k + 1 bits) are never looked up."""

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_absent_from_no_known_keys(self, width):
        states = np.arange(6, dtype=np.uint64)[:, None].repeat(width, axis=1)
        keys = _engine._keys(states)
        none = _engine._keys(states[:0])
        assert _engine._absent(none, keys).tolist() == [True] * 6
        assert _engine._absent(none, keys[:0]).tolist() == []
        assert _engine._absent(keys[:3], keys).tolist() == [False] * 3 + [True] * 3

    def test_every_action_flips_one_bit_that_it_tests(self):
        """The lemma's premise on compiled programs: an action flips one
        state bit, tests it, and needs it held exactly when it revokes."""
        instances = []
        for seed in range(500):
            policy, query = random_policy(seed)
            instances += [(policy, query, whole(policy)), (policy, query, _cone(policy, query))]
        policy, query = TestLevelChunks.bank_one()
        instances.append((policy, query, _cone(policy, query)))
        bank = generate_bank(BankConfig(branches=2, hierarchy_mode="hierarchical"))
        for target in ("Employee@2", "FA-Clerk@1"):
            query = SafetyQuery("newUser", target)
            instances += [(bank, query, whole(bank)), (bank, query, _cone(bank, query))]
        hierarchical = 0
        for policy, query, cone in instances:
            program = _compile_masks(policy, query, *cone)
            flip, words = program.flip, len(program.init)
            hierarchical += len(program.closure) > 0
            assert (popcounts(flip) == 1).all()
            assert np.array_equal(program.test[:words].T & flip, flip)
            revokes = (program.need[:words].T & flip).any(axis=1)
            assert revokes.tolist() == [a >= len(cone[1]) for a in range(len(flip))]
        assert len(instances) == 1005 and hierarchical > 150

    @pytest.mark.parametrize("cells", [4, 64, _engine.CELLS])
    def test_a_detour_meets_states_two_levels_back(self, cells, monkeypatch):
        """The shortest witness assigns A and revokes it again, so
        children of states that are not free meet states queued two or
        more levels before them, the only ones their parity's keys hold."""
        monkeypatch.setattr(_engine, "CELLS", cells)
        oracle = oracle_reach(DETOUR, Q_T)
        full = reach(DETOUR, Q_T, use_slicing=False)
        assert oracle.outcome is full.outcome is Outcome.REACHABLE
        assert len(full.witness) == len(oracle.witness) == 5
        assert replay(DETOUR, Q_T, full.witness)
        # a child looked up but not queued was visited, or found by an earlier
        # chunk of its level (with 64 cells and more, a level is one chunk)
        levels, n_act, _ = search_levels(DETOUR, Q_T, cells, False)
        looked = sum(level.work.looked_up for level in levels)
        assert looked > sum(int((~free).sum()) for free in parent_free(levels, n_act))
        caps = [
            SearchLimits(max_states, max_depth)
            for max_states in (None, *range(1, full.states_explored + 2))
            for max_depth in (None, *range(1, 7))
        ]
        assert_matches_reference(DETOUR, Q_T, caps)

    @pytest.mark.parametrize("paired", [False, True])
    @pytest.mark.parametrize("cells", [4, 64, _engine.CELLS])
    def test_every_queued_state_obeys_the_lemma(self, cells, paired, monkeypatch):
        monkeypatch.setattr(_engine, "CELLS", cells)
        monkeypatch.setattr(_engine, "PAIRED", paired)
        for seed in range(0, 500, 5):
            assert_matches_reference(*random_policy(seed), LIMITS[::5])
        sliced, query = wide_witness_slice()
        # TestEngine and TestUndoLemma compare the uncapped search with it
        verdict = fifo_reach(sliced, query, LIMITS[0])
        assert (verdict.states_explored, len(verdict.witness)) == (14_407, 7)
        assert_matches_reference(sliced, query, [SearchLimits(500, 7)])
        for policy, query in hierarchical_slices():
            assert_matches_reference(policy, query, LIMITS[::3])
        checked = depth = frees = 0  # levels and free states checked
        instances = TestSleepLemma.corpus() + [wide_witness_slice()] + hierarchical_slices()
        for policy, query in instances:
            levels = same_levels(policy, query, cells, paired)[0]
            distance_checked(policy, query)
            checked += len(levels)
            depth = max(depth, len(levels) - 1)
            frees += sum(int(level.free.sum()) for level in levels)
        assert checked > 300 and depth >= 7
        assert frees >= {4: 1000, 64: 100}.get(cells, 0)

    def test_bank_one_looks_up_at_most_half_its_children(self):
        """Looking every distinct child up among all visited keys takes
        3,193,818 lookups on bank 1 q1, into 307,502 keys on average; on
        one thread, a free state's children skip theirs and 14,241 are
        left."""
        verdict, levels = one_thread(*TestLevelChunks.bank_one())
        assert verdict.outcome is Outcome.UNREACHABLE and verdict.states_explored == 1 + 27**4
        looked = sum(level.work.looked_up for level in levels)
        assert looked <= 3_193_818 // 2
        assert looked <= 15_000
        # a lookup searches only the keys of its parity's levels
        sizes = [len(level.states) for level in levels]
        searched = sum(level.work.looked_up * sum(sizes[d % 2 : d : 2])
                       for d, level in enumerate(levels))
        assert searched <= 200_000 * looked

    def test_a_wide_witness_search_looks_up_a_tenth_of_its_children(self):
        """Bank 3 with branch 1's clerk rule weakened: looking every
        distinct child up among all visited keys takes 575,709 lookups,
        and 5,523 on one thread once a free state's children skip theirs."""
        bank, query = wide_witness_bank(), SafetyQuery("newUser", "TargetQ1")
        verdict, levels = one_thread(bank, query)
        assert verdict.outcome is Outcome.REACHABLE and len(verdict.witness) == 9
        assert verdict.states_explored == 266_539 and replay(bank, query, verdict.witness)
        looked = sum(level.work.looked_up for level in levels)
        assert looked <= 575_709 // 10
        assert looked <= 6_000


def packed(rows) -> np.ndarray:
    """Bool rows as the engine's uint64 bitsets, action a at bit a % 64
    of word a // 64."""
    rows = np.array(rows, np.bool_)
    pad = np.zeros((len(rows), -rows.shape[1] % 64), np.bool_)
    bits = np.packbits(np.hstack([rows, pad]), axis=1, bitorder="little")
    return np.ascontiguousarray(bits).view("<u8").astype(np.uint64)


def unpacked(keep: np.ndarray, n_act: int) -> np.ndarray:
    """The first ``n_act`` bits of each of the uint64 bitset rows."""
    octets = keep.astype("<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, count=n_act, bitorder="little").view(np.bool_)


class TestSleepLemma:
    """A state first queued by action b skips each action a < b that
    commutes with b; the result stays that of the FIFO search."""

    @staticmethod
    def corpus():
        instances = [random_policy(seed) for seed in range(500)]
        instances += [widen(*random_policy(seed), extra=130) for seed in range(0, 500, 25)]
        return instances

    def test_keep_matches_the_pairwise_build(self):
        """On every corpus program (flat, hierarchical and three words
        wide) and on hierarchical bank 2, whose 64-action words the
        a >= b triangle crosses."""
        bank = generate_bank(BankConfig(branches=2, hierarchy_mode="hierarchical"))
        instances = self.corpus() + [(bank, SafetyQuery("newUser", "FA-Clerk@1"))]
        hierarchical = wide = 0
        for policy, query in instances:
            program = _compile_masks(policy, query, *whole(policy))
            n_act = len(program.flip)
            if not n_act:
                continue
            hierarchical += len(program.closure) > 0
            wide += len(program.init) > 1
            keep = _engine._keep(program)
            assert keep.shape == (n_act, -(-n_act // 64))
            expected = np.array(reference_keep(policy, query), np.bool_)
            assert np.array_equal(unpacked(keep, n_act), expected)
        assert len(bank.ca) + len(bank.cr) > 128
        assert hierarchical > 100 and wide >= 20

    def test_pruned_pairs_commute(self):
        """Wherever b then a can run, so can a then b, for every pair
        (b, a) that keep drops, on random states of every corpus program
        and cone."""
        rng = np.random.default_rng(1)
        checked = 0
        for policy, query in self.corpus()[::2]:
            for cone in (whole(policy), _cone(policy, query)):
                program = _compile_masks(policy, query, *cone)
                n_act = len(program.flip)
                if not n_act:
                    continue
                dropped = ~unpacked(_engine._keep(program), n_act)
                if not dropped.any():
                    continue
                states = rng.integers(0, 2**64, size=(100, len(program.init)), dtype=np.uint64)

                def enabled(states):
                    cells = _engine._enabled(program, _engine._tested_words(program, states), None)
                    ok = np.zeros((len(states), n_act), np.bool_)
                    ok.flat[cells] = True
                    return ok

                at_p = enabled(states)
                after = [enabled(states ^ program.flip[x]) for x in range(n_act)]
                for b, a in zip(*np.nonzero(dropped)):
                    both = at_p[:, b] & after[b][:, a]
                    assert (at_p[both, a] & after[a][both, b]).all(), (b, a)
                    checked += int(both.sum())
        assert checked > 1000

    @pytest.mark.parametrize(
        "mutant", [{"one_way": True}, {"later": True}], ids=["one-way", "later"]
    )
    def test_an_unsound_keep_changes_some_search(self, mutant, monkeypatch):
        """A keep table that ignores one direction of the dependency, or
        that drops the later actions instead of the earlier ones, makes
        some corpus search differ from the FIFO reference; the pairwise
        table itself changes none."""
        monkeypatch.setattr(_engine, "CELLS", 4)
        differs = []
        for seed in range(500):
            policy, query = random_policy(seed)
            expected = fifo_reach(policy, query, SearchLimits())
            for variant in ({}, mutant):
                rows = reference_keep(policy, query, **variant)  # none without actions
                monkeypatch.setattr(_engine, "_keep", lambda program, rows=rows: packed(rows))
                if reach(policy, query, use_slicing=False) != expected:
                    assert variant, seed
                    differs.append(seed)
        assert differs

    def test_keep_is_built_with_the_enable_table(self, monkeypatch):
        """So is the undo lemma's G: small searches pay for neither."""
        built = []
        for name in ("_keep", "_enable_table", "_undo"):
            real = getattr(_engine, name)
            monkeypatch.setattr(
                _engine, name, lambda program, real=real, name=name: built.append(name) or real(program)
            )
        for seed in range(0, 500, 10):
            reach(*random_policy(seed))
        assert built == []
        policy, query = TestLevelChunks.bank_one()
        reach(policy, query)
        assert sorted(built) == ["_enable_table", "_keep", "_undo"]

    def test_free_keep_rows_are_built_once_per_search(self, monkeypatch):
        """The doubled keep table, whose second half the undo lemma's free
        states take, is built with the enable table: never on 50 corpus
        searches, and once on bank 1 q1, not once per level."""
        built, doubled = [], _engine._doubled  # the doubled tables
        monkeypatch.setattr(_engine, "_doubled",
                            lambda *args: built.append(doubled(*args)) or built[-1])
        for seed in range(0, 500, 10):
            reach(*random_policy(seed))
        assert built == []
        program = TestLevelChunks.bank_one_program()
        levels = list(_engine.levels(program, None))
        assert [len(keep) for keep in built] == [2 * len(program.flip)]
        # the levels after the table's take free rows: every state is free
        assert sum(bool(level.free.any()) for level in levels) > 1

    def test_bank_one_generates_at_most_two_thirds_of_its_cells(self):
        """Without the lemma, bank 1 q1 generates 8,739,253 children."""
        verdict, levels = one_thread(*TestLevelChunks.bank_one())
        assert verdict.outcome is Outcome.UNREACHABLE and verdict.states_explored == 1 + 27**4
        assert sum(level.work.cells for level in levels) <= 0.65 * 8_739_253

    def test_a_wide_witness_search_generates_under_half_its_cells(self):
        """Bank 3 with branch 1's clerk rule weakened generates 1,229,636
        children without the lemma."""
        bank, query = wide_witness_bank(), SafetyQuery("newUser", "TargetQ1")
        verdict, levels = one_thread(bank, query)
        assert verdict.outcome is Outcome.REACHABLE and len(verdict.witness) == 9
        assert verdict.states_explored == 266_539 and replay(bank, query, verdict.witness)
        assert sum(level.work.cells for level in levels) <= 0.45 * 1_229_636

    def test_keep_builds_in_little_more_than_its_size(self):
        """The unsliced hierarchical bank-18 program (5,185 actions, 594
        roles) builds keep from per-bit bitsets, without an (A, A) array
        or the tested words of all its flips."""
        _, keep, peak = traced_build(_engine._keep)
        assert keep.shape == (5185, 82)
        assert peak < 2 * keep.nbytes


# S, a senior, authorizes the junior J that the rule assigning B needs:
# +S +B -S +T; revoking S from {S, B} reaches a new state
SENIOR = mini(
    ("S", "J", "B", "T"),
    ca=[assign("S"), assign("B", pos=("J",)), assign("T", pos=("B",), neg=("S",))],
    cr=[revoke("S")],
    edges=[("S", "J")],
)
# X is held initially and revoked, and the rule assigning B needs it
# absent: -X +B +X +T; assigning X again to {B} reaches a new state
HELD = mini(
    ("X", "B", "T"),
    ca=[assign("X"), assign("B", neg=("X",)), assign("T", pos=("B", "X"))],
    cr=[revoke("X")],
    ua=[("u", "X")],
)


def as_int(row) -> int:
    """A row of uint64 words as one Python int, word 0 lowest."""
    return int.from_bytes(np.ascontiguousarray(row).astype("<u8").tobytes(), "little")


@functools.lru_cache(maxsize=None)
def flags_checked(policy, query) -> None:
    """Check once that the first run's free flags are clear before the table
    and equal ``reference_undo``'s rule, carried from level 0, from it on."""
    levels, n_act, start = search_levels(policy, query, 4, False)
    rule = reference_undo(policy, query)[1]
    expected, offset = [True], 0  # the initial state is free
    for d, level in enumerate(levels):
        if d:
            expected = [rule(expected[cell // n_act - offset], as_int(state), cell % n_act)
                        for cell, state in zip(level.cells.tolist(), level.states)]
            offset += len(levels[d - 1].states)
        assert level.free.tolist() == [flag and d >= start for flag in expected], d


@functools.lru_cache(maxsize=None)
def free_children_checked(policy, query) -> None:
    """Check once that no state of the first run with a free parent was visited."""
    levels, n_act, _ = search_levels(policy, query, 4, False)
    known = row_keys(levels[0].states)
    for level, free in zip(levels[1:], parent_free(levels, n_act)):
        assert not np.isin(row_keys(level.states[free]), known).any()  # by sorted keys
        known = np.concatenate((known, row_keys(level.states)))


class TestUndoLemma:
    """A free state takes only the actions that move their bit away from
    init; the result stays that of the FIFO search."""

    def test_g_matches_the_pairwise_build(self):
        """On every corpus program (flat, hierarchical and three words
        wide) and on unsliced bank 2: hierarchical, where every division
        role is a grantor, and flat, where its SOP rule families supply
        siblings to 400 actions."""
        instances = TestSleepLemma.corpus() + [
            (generate_bank(BankConfig(branches=2, hierarchy_mode=mode)),
             SafetyQuery("newUser", "FA-Clerk@1"))
            for mode in ("hierarchical", "flat")
        ]
        hierarchical = need_rows_matter = 0
        for policy, query in instances:
            program = _compile_masks(policy, query, *whole(policy))
            if not len(program.flip):
                continue
            roles = (1 << len(policy.roles)) - 1
            actual = [as_int(row) & roles for row in _engine._undo(program)]
            expected, _ = reference_undo(policy, query)
            assert actual == expected
            hierarchical += len(program.closure) > 0
            need_rows_matter += actual != reference_undo(policy, query, loose=True)[0]
        assert hierarchical > 100 and need_rows_matter > 100

    def test_g_builds_in_little_more_than_keeps_size(self):
        """The unsliced hierarchical bank-18 program (5,185 actions, 594
        roles in 10 words, 594 grantors) builds G from per-bit lists,
        without an (A, K, T) array of actions, grantors and tested words."""
        program, undo, peak = traced_build(_engine._undo)
        assert undo.shape == (5185, 10) and len(program.closure) == 594
        assert peak < 2 * 5185 * 82 * 8  # twice the keep table
        assert np.array_equal(undo & program.flip, program.flip)

    @pytest.mark.parametrize("paired", [False, True])
    @pytest.mark.parametrize("cells", [4, 64, _engine.CELLS])
    def test_searches_and_flags_match_the_reference(self, cells, paired, monkeypatch):
        monkeypatch.setattr(_engine, "CELLS", cells)
        monkeypatch.setattr(_engine, "PAIRED", paired)
        checked = 0  # flags the table sets
        instances = TestSleepLemma.corpus() + hierarchical_slices() + [(SENIOR, Q_T), (HELD, Q_T)]
        for policy, query in instances:
            assert_matches_reference(policy, query, LIMITS[::5])
            levels, _, start = same_levels(policy, query, cells, paired)
            flags_checked(policy, query)
            checked += sum(len(level.free) for level in levels[start:])
        assert checked >= {4: 1000, 64: 10}.get(cells, 0)

    @pytest.mark.parametrize("paired", [False, True])
    @pytest.mark.parametrize("cells", [4, 64, _engine.CELLS])
    def test_no_child_of_a_free_parent_was_visited(self, cells, paired, monkeypatch):
        """So skipping their lookup keeps the search that of the FIFO
        reference."""
        monkeypatch.setattr(_engine, "CELLS", cells)
        monkeypatch.setattr(_engine, "PAIRED", paired)
        checked = 0  # children of free parents
        instances = TestSleepLemma.corpus() + [(DETOUR, Q_T), (SENIOR, Q_T), (HELD, Q_T)]
        instances += hierarchical_slices() + [wide_witness_slice()]
        for policy, query in instances:
            assert reach(policy, query, use_slicing=False) == fifo_reach(policy, query, LIMITS[0])
            levels, n_act, _ = same_levels(policy, query, cells, paired)
            free_children_checked(policy, query)
            checked += sum(int(free.sum()) for free in parent_free(levels, n_act))
        assert checked >= {4: 1000, 64: 100}.get(cells, 0)

    @pytest.mark.parametrize("cells", [1, 4])
    @pytest.mark.parametrize("policy", [SENIOR, HELD], ids=["senior", "held"])
    def test_a_state_that_restores_x_is_not_free(self, policy, cells, monkeypatch):
        """The shortest witness restores x after a step that needs x
        away from init, so the state before that step is not free."""
        monkeypatch.setattr(_engine, "CELLS", cells)
        oracle = oracle_reach(policy, Q_T)
        full = reach(policy, Q_T, use_slicing=False)
        assert oracle.outcome is full.outcome is Outcome.REACHABLE
        assert len(full.witness) == len(oracle.witness) == 4
        assert replay(policy, Q_T, full.witness)
        caps = [
            SearchLimits(max_states, max_depth)
            for max_states in (None, *range(1, full.states_explored + 2))
            for max_depth in (None, *range(1, 5))
        ]
        assert_matches_reference(policy, Q_T, caps)

    @pytest.mark.parametrize("mutant", ["every", "loose"])
    def test_an_unsound_g_changes_some_search(self, mutant, monkeypatch):
        """A G holding every role, or one that takes any action with b's
        target and tested roles as a sibling, makes some corpus search
        differ from the FIFO reference; the pairwise G itself changes
        none."""
        monkeypatch.setattr(_engine, "CELLS", 4)
        differs = []
        for seed in range(500):
            policy, query = random_policy(seed)
            expected = fifo_reach(policy, query, SearchLimits())
            for variant in ({}, {mutant: True}):
                table, _ = reference_undo(policy, query, **variant)
                words = len(_compile_masks(policy, query, *whole(policy)).init)
                undo = np.array(
                    [[row >> 64 * w & (2**64 - 1) for w in range(words)] for row in table],
                    np.uint64,
                ).reshape(len(table), words)
                monkeypatch.setattr(_engine, "_undo", lambda program: undo)
                if reach(policy, query, use_slicing=False) != expected:
                    assert variant, seed
                    differs.append(seed)
        assert differs

    def test_bank_one_generates_a_quarter_of_its_cells(self):
        """With the sleep lemma alone, bank 1 q1 generates 5,508,078
        children and looks 1,564,276 of them up among the visited keys,
        finding every one: each comes from a step back toward init."""
        verdict, levels = one_thread(*TestLevelChunks.bank_one())
        assert verdict.outcome is Outcome.UNREACHABLE and verdict.states_explored == 1 + 27**4
        assert sum(level.work.cells for level in levels) <= 0.25 * 5_508_078
        assert sum(level.work.looked_up for level in levels) <= 0.01 * 1_564_276


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
        for index in (1, -1):
            step = ActionStep(ActionKind.REVOKE, index, "A")
            assert not replay(policy, Q_B, Witness((step, good[1])))
        # step role contradicts the rule it names
        assert not replay(
            policy, Q_B, Witness((good[0], ActionStep(ActionKind.ASSIGN, 0, "A")))
        )
        assert not replay(policy, Q_B, Witness((ActionStep(ActionKind.REVOKE, 0, "B"), good[1])))
        # a kind that is no ActionKind
        assert not replay(policy, Q_B, Witness((ActionStep("grant", 0, "B"),)))
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

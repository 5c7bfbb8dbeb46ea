"""Policy text format: grammar coverage, error positions, canonical
serialization, and the round-trip guarantees."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbac.bank import BankConfig, generate_bank
from arbac.model import (
    CanAssignRule,
    CanRevokeRule,
    InvalidPolicy,
    Policy,
    Precondition,
    RoleHierarchy,
    SafetyQuery,
)
from arbac.textio import ParseError, parse_policy, serialize_policy

from helpers import mutate_bank, random_policy, reference_parse


class TestParse:
    def test_minimal_policy(self):
        policy = parse_policy(
            "Roles A B; Users u; UA; CR; CA <A, TRUE, B>; ADMIN A; SPEC u B;"
        )
        assert policy.roles == ("A", "B")
        assert policy.users == ("u",)
        assert policy.ca == (CanAssignRule("A", Precondition(), "B"),)
        assert policy.cr == ()
        assert policy.admin_roles == ("A",)
        assert policy.queries == (SafetyQuery("u", "B"),)

    def test_mixed_precondition_literals(self):
        policy = parse_policy(
            "Roles Admin FA FA-Asst FA-Specialist FA-Senior FA-Junior FA-Clerk ;\n"
            "CA <Admin, FA&-FA-Asst&-FA-Specialist&-FA-Senior&-FA-Junior, FA-Clerk>;"
        )
        (rule,) = policy.ca
        assert rule.pre.positive == {"FA"}
        assert rule.pre.negative == {
            "FA-Asst",
            "FA-Specialist",
            "FA-Senior",
            "FA-Junior",
        }
        assert rule.target == "FA-Clerk"

    def test_sections_concatenate(self):
        policy = parse_policy("Roles A; Roles B; CA <A, TRUE, B>; CA <B, A, A>;")
        assert policy.roles == ("A", "B")
        assert [r.target for r in policy.ca] == ["B", "A"]

    def test_ua_rh_cr_pairs(self):
        policy = parse_policy(
            "Roles A B; Users u;\nUA <u, A> <u, B>;\nCR <A, B>;\nRH <A, B>;"
        )
        assert policy.ua == (("u", "A"), ("u", "B"))
        assert policy.cr == (CanRevokeRule("A", "B"),)
        assert policy.hierarchy.edges == (("A", "B"),)

    def test_comments_and_crlf(self):
        policy = parse_policy("Roles A ; // trailing words < > ;\r\nUsers u ;\r\n")
        assert policy.roles == ("A",)
        assert policy.users == ("u",)

    def test_names_with_suffix_characters(self):
        policy = parse_policy("Roles FA-Clerk@3 x_y _z ;")
        assert policy.roles == ("FA-Clerk@3", "x_y", "_z")

    def test_negation_binds_in_conditions_only(self):
        # "A -B" in a Roles list is not a negated literal, just bad syntax
        with pytest.raises(ParseError):
            parse_policy("Roles A -B ;")

    def test_rule_order_is_textual_order(self):
        policy = parse_policy("Roles A B C; CA <A, TRUE, B> <A, TRUE, C> <A, B, C>;")
        assert [r.target for r in policy.ca] == ["B", "C", "C"]

    def test_peak_memory_stays_below_twice_the_policy(self):
        # the scan must not hold memory per character of input: one
        # repetition match over the whole bank-18 text alone held ~16 MiB
        text = serialize_policy(generate_bank(BankConfig(
            branches=18, instrumentation="both", hierarchy_mode="hierarchical"
        )))
        tracemalloc.start()
        try:
            policy = parse_policy(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert policy.ca
        assert peak < 2 * retained, (peak, retained)


class TestParseErrors:
    def test_truncated_section(self):
        with pytest.raises(ParseError) as exc:
            parse_policy("Roles A; Roles")
        assert exc.value.span.line == 1
        assert "identifier" in str(exc.value)

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_policy("Roles A ;\nCA <A TRUE, A>;")
        assert (exc.value.span.line, exc.value.span.column) == (2, 7)
        assert "','" in str(exc.value)

    def test_reserved_word_as_name(self):
        with pytest.raises(ParseError) as exc:
            parse_policy("Roles CA ;")
        assert "reserved" in str(exc.value)

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            parse_policy("Roles A$ ;")
        assert "'$'" in str(exc.value)

    def test_non_ascii_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_policy("Roles Ä ;")
        assert "ASCII" in str(exc.value)
        assert (exc.value.span.line, exc.value.span.column) == (1, 7)

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_policy("Roles A Users u;")

    def test_true_must_stand_alone(self):
        with pytest.raises(ParseError):
            parse_policy("Roles A B; CA <A, TRUE&B, B>;")

    def test_stray_token_at_top_level(self):
        with pytest.raises(ParseError) as exc:
            parse_policy("Roles A ; <")
        assert "'Roles'" in str(exc.value)  # expected-section hint


def assert_parses_like_reference(text: str) -> None:
    """parse_policy and the char-by-char reference give the same Policy,
    or a ParseError with the same span, message and expected list."""

    def outcome(parse):
        try:
            return parse(text)
        except ParseError as exc:
            return exc.span, exc.message, exc.expected

    assert outcome(parse_policy) == outcome(reference_parse), repr(text)


class TestScannerMatchesReference:
    def test_corpus_canonical_texts(self):
        for seed in range(500):
            assert_parses_like_reference(serialize_policy(random_policy(seed)[0]))

    @pytest.mark.parametrize(
        "branches, hierarchy, mutated",
        [(1, "flat", False), (3, "flat", False), (2, "hierarchical", False),
         (3, "flat", True)],
    )
    def test_bank_texts(self, branches, hierarchy, mutated):
        bank = generate_bank(BankConfig(
            branches=branches, instrumentation="both", hierarchy_mode=hierarchy
        ))
        if mutated:
            bank = mutate_bank(bank, 3)
        assert_parses_like_reference(serialize_policy(bank))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            " \t\r\n",
            "Roles A ; // comment at end of input",
            "Roles A ; //",
            "Roles A ; / B ;",
            "Roles A ; /",
            "Roles A// comment right after a token\n;",
            "CA <A,TRUE,B>// after punctuation\n;",
            "Roles A ;\r\nUsers u ;\r\n",
            "Roles\tA\t;\tUsers\tu\t;",
            "Roles A\f;",
            "Roles 1A ;",
            "Roles @A ;",
            "Roles A ;\nRoles ; Users u $ ;",
            "Roles A B",
            "Roles A ; CA <A, TRUE",
            "Roles A ; CA <A, -B&",
            "// header\nRoles A ; // note\nCA <A B, C> ;",
            "Roles A ; CA <A, B, C>\n// one\n// two",
            "Roles A ; CA <A, B, C>\n// trailing\n\n  ",
            "Roles A ;\nCA <A, TRUE&B, B> ;",
            "Roles A B ;\nCA <A, -B&-C&D, B> ;\nSPEC u B ;",
            "Roles A ;\nSPEC u TRUE ;",
            "Roles A-B--C@@1 _ ;",
            "Roles A ; ; ;",
            # strays whose order in a set and in the text can differ
            "Roles A # $ ;",
            "Roles A $ # ;",
            "Roles A ; // $\nUsers u # ;",
            "Roles A$B ;",
        ],
    )
    def test_edge_cases(self, text):
        assert_parses_like_reference(text)

    def test_long_texts_and_long_lines(self):
        block = 1 << 14
        lines = [f"Roles R{i} ; // ${'$' * (i % 23)}\n" for i in range(3 * block // 20)]
        text = "".join(lines)
        assert len(text) > 3 * block
        assert_parses_like_reference(text)
        assert_parses_like_reference(text + "Users u $ ;\n")
        assert_parses_like_reference(text + "Users u ;\nCA <R1 R2> ;\n")
        one_line = "Roles " + "A " * block
        assert_parses_like_reference(one_line + ";")
        assert_parses_like_reference(one_line + "$ ;")


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            list("RolesUrCAMINTUESP<>,;&-@_/$01ab \t\r\n\f\0é")
            + ["Roles", "Users", "UA", "CA", "CR", "RH", "TRUE", "SPEC", "//"]
        ),
        max_size=60,
    ).map("".join)
)
def test_scanner_matches_reference_on_arbitrary_text(text):
    assert_parses_like_reference(text)


class TestSerialize:
    def test_canonical_form(self):
        policy = Policy(
            roles=("Admin", "A", "B", "C"),
            users=("u",),
            ua=(("u", "A"),),
            ca=(
                CanAssignRule(
                    "Admin", Precondition(frozenset({"A"}), frozenset({"B"})), "C"
                ),
            ),
            cr=(CanRevokeRule("Admin", "A"),),
            hierarchy=RoleHierarchy((("A", "B"),)),
            admin_roles=("Admin",),
            queries=(SafetyQuery("u", "B"),),
        )
        assert serialize_policy(policy) == (
            "Roles Admin A B C ;\n"
            "Users u ;\n"
            "UA\n"
            "<u, A>\n"
            ";\n"
            "CR\n"
            "<Admin, A>\n"
            ";\n"
            "CA\n"
            "<Admin, A&-B, C>\n"
            ";\n"
            "RH\n"
            "<A, B>\n"
            ";\n"
            "ADMIN Admin ;\n"
            "SPEC u B ;\n"
        )

    def test_empty_sections_keep_headers(self):
        assert serialize_policy(Policy(roles=("A",))) == (
            "Roles A ;\nUA ;\nCR ;\nCA ;\nRH ;\n"
        )

    def test_unconditional_precondition_prints_true(self):
        policy = Policy(
            roles=("A", "B"), ca=(CanAssignRule("A", Precondition(), "B"),)
        )
        assert "<A, TRUE, B>" in serialize_policy(policy)

    def test_ill_formed_policy_rejected(self):
        with pytest.raises(InvalidPolicy):
            serialize_policy(Policy(roles=("A", "A")))

    def test_reserved_name_rejected(self):
        with pytest.raises(InvalidPolicy):
            serialize_policy(Policy(roles=("SPEC",)))


class TestRoundTrip:
    def test_parse_serialize_identity_on_corpus(self):
        for seed in range(60):
            policy, _ = random_policy(seed)
            text = serialize_policy(policy)
            assert parse_policy(text) == policy, seed

    def test_reserialization_is_byte_exact(self):
        for seed in range(60):
            policy, _ = random_policy(seed)
            text = serialize_policy(policy)
            assert serialize_policy(parse_policy(text)) == text, seed

    def test_canonicalization_idempotent_on_noncanonical_input(self):
        source = "Roles B A C ; Users u ;\tCA <A, -C&A, B>//c\n<B, TRUE, A> ; UA <u, B> ;"
        once = serialize_policy(parse_policy(source))
        assert serialize_policy(parse_policy(once)) == once


@settings(max_examples=300, deadline=None)
@given(
    st.text(
        alphabet="RolesUrCAMIN<>,;&-@_ \t\r\n\0éab01" ,
        max_size=80,
    )
)
def test_parser_total_on_arbitrary_text(text):
    # any input must produce a Policy or a ParseError, nothing else
    try:
        parse_policy(text)
    except ParseError:
        pass

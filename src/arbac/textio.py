"""Policy text format: parser and canonical serializer.

The format is line-oriented only by convention; the grammar is free-form
over tokens:

    policy   := section*
    section  := "Roles" ident+ ";"
              | "Users" ident+ ";"
              | "UA"    pair*  ";"
              | "CR"    pair*  ";"
              | "CA"    caent* ";"
              | "RH"    pair*  ";"
              | "ADMIN" ident+ ";"
              | "SPEC"  ident ident ";"
    pair     := "<" ident "," ident ">"
    caent    := "<" ident "," cond "," ident ">"
    cond     := "TRUE" | lit ("&" lit)*
    lit      := "-"? ident
    ident    := [A-Za-z_][A-Za-z0-9_@-]*  (not a section keyword, not TRUE)

``//`` starts a comment that runs to end of line. Sections may repeat;
their contents concatenate in order. Input must be 7-bit ASCII.

The scanner is one compiled pattern, run once with ``findall``: it lists
the token texts in order, a comment as an empty text, and each character
that starts no token as a one-character "stray". Blanks match nothing.
Before parsing, the distinct texts are checked for a stray; if there is
one, the first in the text is an unexpected character, reported ahead of
any syntax error. Positions are found only for an error, by scanning the
text again to its token or stray.

``serialize_policy`` emits the canonical form: fixed section order
(Roles, Users, UA, CR, CA, RH, ADMIN, then one SPEC section per query),
one entry per line for UA/CR/CA/RH, precondition literals sorted with
positives before negatives, LF line endings, and a trailing newline.
Parsing the canonical form reproduces the policy exactly, so
serialization is a bijection between well-formed policies and their
canonical texts.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .model import (
    RESERVED_WORDS,
    ROLE_NAME_RE,
    ArbacError,
    CanAssignRule,
    CanRevokeRule,
    InvalidPolicy,
    Policy,
    Precondition,
    RoleHierarchy,
    SafetyQuery,
    validation_errors,
)

__all__ = [
    "SourceSpan",
    "ParseError",
    "parse_policy",
    "serialize_policy",
    "format_ca_rule",
]

_SECTION_KEYWORDS = ("Roles", "Users", "UA", "CR", "CA", "RH", "ADMIN", "SPEC")

# The one-character tokens; every other token is an identifier.
_PUNCTUATION = "<>,;&-"

_TOKEN = ROLE_NAME_RE.pattern.removesuffix(r"\Z") + f"|[{_PUNCTUATION}]"

# Every token in order, and every other character but a blank as a stray.
# A comment matches too, as an empty group, so that no token is looked for
# inside it.
_SCANNER = re.compile(rf"//[^\n]*|({_TOKEN}|[^ \t\r\n])")


@dataclass(frozen=True)
class SourceSpan:
    """1-based position of a token in the input text."""

    line: int
    column: int
    length: int


class ParseError(ArbacError):
    """Syntax error with the offending location and what was expected."""

    def __init__(self, span: SourceSpan, message: str, expected: tuple[str, ...] = ()):
        self.span = span
        self.message = message
        self.expected = expected
        suffix = ""
        if expected:
            suffix = " (expected " + " or ".join(expected) + ")"
        super().__init__(f"{span.line}:{span.column}: {message}{suffix}")


def _is_stray(scanned: str | None) -> bool:
    """Whether what ``_SCANNER`` captured is a character that starts no
    token: neither a comment (None or ""), punctuation nor an identifier."""
    return bool(scanned) and scanned not in _PUNCTUATION and not ROLE_NAME_RE.match(scanned)


def _span_at(text: str, offset: int, length: int) -> SourceSpan:
    line = text.count("\n", 0, offset) + 1
    return SourceSpan(line, offset - text.rfind("\n", 0, offset), length)


class _Parser:
    """Recursive descent over the token texts. The list ends with ""
    for end of input; any other token is an identifier unless it is one
    punctuation character. Positions are found only for an error."""

    def __init__(self, text: str, tokens: list[str]):
        self.text = text
        self.tokens = tokens
        self.pos = 0

    def span(self, k: int) -> SourceSpan:
        """Where token k is, found by scanning the text again."""
        if k == len(self.tokens) - 1:
            return _span_at(self.text, len(self.text), 0)
        found = (m for m in _SCANNER.finditer(self.text) if m.group(1))
        match = next(itertools.islice(found, k, None))
        return _span_at(self.text, match.start(), len(match.group(1)))

    def fail(self, k: int, expected: tuple[str, ...]) -> ParseError:
        tok = self.tokens[k]
        got = repr(tok) if tok else "end of input"
        return ParseError(self.span(k), f"unexpected {got}", expected)

    def expect(self, punct: str) -> None:
        if self.tokens[self.pos] != punct:
            raise self.fail(self.pos, (f"'{punct}'",))
        self.pos += 1

    def at_ident(self) -> bool:
        tok = self.tokens[self.pos]
        return tok != "" and tok not in _PUNCTUATION

    def ident(self) -> str:
        if not self.at_ident():
            raise self.fail(self.pos, ("identifier",))
        tok = self.tokens[self.pos]
        if tok in RESERVED_WORDS:
            raise ParseError(
                self.span(self.pos),
                f"{tok!r} is reserved and cannot be used as a name",
            )
        self.pos += 1
        return tok

    def ident_list(self) -> list[str]:
        names = [self.ident()]
        while self.at_ident():
            names.append(self.ident())
        return names

    def pair(self) -> tuple[str, str]:
        self.expect("<")
        first = self.ident()
        self.expect(",")
        second = self.ident()
        self.expect(">")
        return first, second

    def pair_list(self) -> list[tuple[str, str]]:
        pairs = []
        while self.tokens[self.pos] == "<":
            pairs.append(self.pair())
        return pairs

    def condition(self) -> Precondition:
        if self.tokens[self.pos] == "TRUE":
            self.pos += 1
            return Precondition()
        positive: list[str] = []
        negative: list[str] = []
        while True:
            if self.tokens[self.pos] == "-":
                self.pos += 1
                negative.append(self.ident())
            else:
                positive.append(self.ident())
            if self.tokens[self.pos] != "&":
                break
            self.pos += 1
        return Precondition(frozenset(positive), frozenset(negative))

    def ca_entry(self) -> CanAssignRule:
        self.expect("<")
        admin = self.ident()
        self.expect(",")
        pre = self.condition()
        self.expect(",")
        target = self.ident()
        self.expect(">")
        return CanAssignRule(admin, pre, target)

    def policy(self) -> Policy:
        roles: list[str] = []
        users: list[str] = []
        ua: list[tuple[str, str]] = []
        cr: list[CanRevokeRule] = []
        ca: list[CanAssignRule] = []
        rh: list[tuple[str, str]] = []
        admin: list[str] = []
        queries: list[SafetyQuery] = []
        while True:
            section = self.tokens[self.pos]
            if section == "":
                break
            if section not in _SECTION_KEYWORDS:
                raise self.fail(
                    self.pos, tuple(f"'{k}'" for k in _SECTION_KEYWORDS)
                )
            self.pos += 1
            if section == "Roles":
                roles.extend(self.ident_list())
            elif section == "Users":
                users.extend(self.ident_list())
            elif section == "ADMIN":
                admin.extend(self.ident_list())
            elif section == "UA":
                ua.extend(self.pair_list())
            elif section == "RH":
                rh.extend(self.pair_list())
            elif section == "CR":
                cr.extend(CanRevokeRule(a, t) for a, t in self.pair_list())
            elif section == "CA":
                while self.tokens[self.pos] == "<":
                    ca.append(self.ca_entry())
            else:  # SPEC
                user = self.ident()
                target = self.ident()
                queries.append(SafetyQuery(user, target))
            self.expect(";")
        return Policy(
            roles=tuple(roles),
            users=tuple(users),
            ua=tuple(ua),
            ca=tuple(ca),
            cr=tuple(cr),
            hierarchy=RoleHierarchy(tuple(rh)),
            admin_roles=tuple(admin),
            queries=tuple(queries),
        )


def parse_policy(text: str) -> Policy:
    """Parse policy text into a Policy.

    Raises ParseError on any syntax problem; no other exception escapes.
    The result is not validated: structural violations (undeclared roles
    and the like) are left for ``model.validate`` so that one pass can
    report them all.
    """
    if not text.isascii():
        offset = re.search(r"[^\x00-\x7f]", text).start()
        raise ParseError(_span_at(text, offset, 1), "input is not 7-bit ASCII")
    tokens = _SCANNER.findall(text)
    if any(_is_stray(tok) for tok in set(tokens)):
        at = next(m.start() for m in _SCANNER.finditer(text) if _is_stray(m.group(1)))
        raise ParseError(_span_at(text, at, 1), f"unexpected character {text[at]!r}")
    tokens = [tok for tok in tokens if tok]
    tokens.append("")
    return _Parser(text, tokens).policy()


def _format_condition(pre: Precondition) -> str:
    if pre.is_unconditional:
        return "TRUE"
    lits = sorted(pre.positive) + ["-" + r for r in sorted(pre.negative)]
    return "&".join(lits)


def format_ca_rule(rule: CanAssignRule) -> str:
    """Canonical one-line form of a can_assign rule."""
    return f"<{rule.admin}, {_format_condition(rule.pre)}, {rule.target}>"


def serialize_policy(policy: Policy) -> str:
    """Serialize a well-formed policy to its canonical text.

    Raises InvalidPolicy if the policy has error-level diagnostics, since
    such policies have no faithful textual form (reserved-word names,
    duplicate declarations and so on would not parse back).
    """
    errors = validation_errors(policy)
    if errors:
        raise InvalidPolicy(
            "cannot serialize an ill-formed policy: " + str(errors[0]),
            tuple(errors),
        )
    lines: list[str] = []
    if policy.roles:
        lines.append("Roles " + " ".join(policy.roles) + " ;")
    if policy.users:
        lines.append("Users " + " ".join(policy.users) + " ;")

    def block(header: str, entries: list[str]) -> None:
        if not entries:
            lines.append(f"{header} ;")
            return
        lines.append(header)
        lines.extend(entries)
        lines.append(";")

    block("UA", [f"<{u}, {r}>" for u, r in policy.ua])
    block("CR", [f"<{rule.admin}, {rule.target}>" for rule in policy.cr])
    block("CA", [format_ca_rule(rule) for rule in policy.ca])
    block("RH", [f"<{s}, {j}>" for s, j in policy.hierarchy.edges])
    if policy.admin_roles:
        lines.append("ADMIN " + " ".join(policy.admin_roles) + " ;")
    for q in policy.queries:
        lines.append(f"SPEC {q.user} {q.target} ;")
    return "\n".join(lines) + "\n"

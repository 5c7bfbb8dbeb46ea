"""Shared test fixtures: seeded random policy corpus, the single-division
micro policy, the clerk-rule mutation used by the detection tests, a
one-state-at-a-time FIFO search that the level-synchronous engine must
match exactly, pairwise builds of the sleep lemma's keep table and of
the undo lemma's G table that the engine's must match exactly, a
per-query slice derivation that the indexed slicing must match exactly, a per-role closure walk that the
hierarchy's closure table must match exactly, one loop per section that
validation must match exactly, and a char-by-char parser that the regex
scanner must match exactly."""

from __future__ import annotations

import functools
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator

from arbac.analyzer import Outcome, SearchLimits, Verdict, Witness
from arbac.model import (
    RESERVED_WORDS,
    ROLE_NAME_RE,
    ActionKind,
    ActionStep,
    CanAssignRule,
    CanRevokeRule,
    Diagnostic,
    Policy,
    Precondition,
    RoleHierarchy,
    SafetyQuery,
    Severity,
    validation_errors,
)
from arbac.sop import SopConstraint, compile_sop, compile_sop_monitor
from arbac.textio import ParseError, SourceSpan

# Mix of plain, hyphenated, underscored and suffixed names to keep the
# parser honest in round-trip tests.
_NAME_POOL = (
    "boss",
    "r0",
    "r1",
    "r2",
    "r3",
    "r4",
    "acct-mgr",
    "dev_ops",
    "aud@2",
    "Z9-k",
    "_tmp",
    "lead",
)


@functools.lru_cache(maxsize=None)
def random_policy(seed: int) -> tuple[Policy, SafetyQuery]:
    """Small random policy plus a query against it, deterministic in the
    seed. Always well-formed: at most 8 roles, 12 can_assign rules,
    4 can_revoke rules, occasionally a hierarchy and a second user. Memoized."""
    rng = random.Random(seed)
    n_roles = rng.randint(2, 8)
    roles = tuple(rng.sample(_NAME_POOL, n_roles))
    users = ("u0", "u1") if rng.random() < 0.3 else ("u0",)

    ua = []
    for user in users:
        for role in roles:
            if rng.random() < 0.15:
                ua.append((user, role))

    ca = []
    for _ in range(rng.randint(0, 12)):
        target = rng.choice(roles)
        rest = [r for r in roles if r != target]
        pos_k = rng.randint(0, min(2, len(rest)))
        neg_k = rng.randint(0, min(2, len(rest) - pos_k))
        picked = rng.sample(rest, pos_k + neg_k)
        ca.append(
            CanAssignRule(
                rng.choice(roles),
                Precondition(frozenset(picked[:pos_k]), frozenset(picked[pos_k:])),
                target,
            )
        )

    cr = [
        CanRevokeRule(rng.choice(roles), rng.choice(roles))
        for _ in range(rng.randint(0, 4))
    ]

    edges = []
    if rng.random() < 0.25:
        # edges always point from lower to higher index, hence acyclic
        for i in range(n_roles):
            for j in range(i + 1, n_roles):
                if rng.random() < 0.15:
                    edges.append((roles[i], roles[j]))

    ca_targets = [rule.target for rule in ca]
    if ca_targets and rng.random() < 0.6:
        target = rng.choice(ca_targets)
    else:
        target = rng.choice(roles)
    query = SafetyQuery("u0", target)

    policy = Policy(
        roles=roles,
        users=users,
        ua=tuple(ua),
        ca=tuple(ca),
        cr=tuple(cr),
        hierarchy=RoleHierarchy(tuple(edges)),
        admin_roles=(),
        queries=(query,),
    )
    assert not validation_errors(policy), f"seed {seed} built an ill-formed policy"
    return policy, query


FA_NON_MANAGERIAL = ("FA-Asst", "FA-Special", "FA-Senior", "FA-Junior", "FA-Clerk")


def single_division_policy(mutated: bool = False) -> Policy:
    """One division in isolation: bootstraps, the full SOP family, the
    five monitor rules, and revokes. Small enough for the oracle.

    With ``mutated`` the clerk rule that admits the Asst+Special pair
    loses its FA-Junior prohibition, opening a path to four held roles.
    """
    constraint = SopConstraint(FA_NON_MANAGERIAL, 3)
    ca = [
        CanAssignRule("Admin", Precondition(), "Employee"),
        CanAssignRule("Admin", Precondition(frozenset({"Employee"})), "FA"),
    ]
    ca.extend(compile_sop(constraint, guard=frozenset({"FA"}), admin="Admin"))
    ca.extend(compile_sop_monitor(constraint, monitor="AnyFour", admin="Admin"))
    if mutated:
        ca = [drop_junior_prohibition(rule, "") for rule in ca]
    cr = [CanRevokeRule("Admin", r) for r in ("Employee", "FA", *FA_NON_MANAGERIAL)]
    return Policy(
        roles=("Admin", "Employee", "FA", *FA_NON_MANAGERIAL, "AnyFour"),
        users=("newUser",),
        ua=(),
        ca=tuple(ca),
        cr=tuple(cr),
        admin_roles=("Admin",),
        queries=(SafetyQuery("newUser", "AnyFour"),),
    )


def _clerk_pair_rule_parts(suffix: str):
    pos = frozenset({f"FA{suffix}", f"FA-Asst{suffix}", f"FA-Special{suffix}"})
    neg = frozenset({f"FA-Senior{suffix}", f"FA-Junior{suffix}"})
    return f"FA-Clerk{suffix}", pos, neg


def drop_junior_prohibition(rule: CanAssignRule, suffix: str) -> CanAssignRule:
    """Strip ``-FA-Junior`` from the clerk rule guarded by the
    Asst+Special pair; leave every other rule untouched."""
    target, pos, neg = _clerk_pair_rule_parts(suffix)
    if rule.target != target or rule.pre.positive != pos or rule.pre.negative != neg:
        return rule
    return CanAssignRule(
        rule.admin,
        Precondition(pos, frozenset({f"FA-Senior{suffix}"})),
        target,
    )


def mutate_bank(policy: Policy, branch: int) -> Policy:
    """Weaken one clerk rule of ``branch``; exactly one rule changes."""
    suffix = f"@{branch}"
    new_ca = tuple(drop_junior_prohibition(rule, suffix) for rule in policy.ca)
    changed = sum(1 for a, b in zip(policy.ca, new_ca) if a != b)
    assert changed == 1, f"expected exactly one mutated rule, got {changed}"
    return Policy(
        roles=policy.roles,
        users=policy.users,
        ua=policy.ua,
        ca=new_ca,
        cr=policy.cr,
        hierarchy=policy.hierarchy,
        admin_roles=policy.admin_roles,
        queries=policy.queries,
    )


def _python_masks(policy: Policy, query: SafetyQuery):
    """Actions as (is_assign, positive mask, negative mask, target bit)
    over Python ints, the per-role closure masks (None when flat), the
    initial state and the target's bit index."""
    index = {role: i for i, role in enumerate(policy.roles)}

    def mask(roles) -> int:
        m = 0
        for r in roles:
            m |= 1 << index[r]
        return m

    actions = [
        (True, mask(rule.pre.positive), mask(rule.pre.negative), mask((rule.target,)))
        for rule in policy.ca
    ]
    actions += [(False, 0, 0, mask((rule.target,))) for rule in policy.cr]
    closure = None
    if not policy.hierarchy.is_empty():
        closures = reference_closures(policy.hierarchy)
        closure = [mask(closures.get(r, (r,))) for r in policy.roles]
    return actions, closure, mask(policy.initial_roles(query.user)), index[query.target]


@functools.lru_cache(maxsize=None)
def reference_keep(
    policy: Policy, query: SafetyQuery, one_way: bool = False, later: bool = False
) -> list[list[bool]]:
    """The sleep lemma's keep table of the unsliced program, pair by pair
    over Python-int masks: row b keeps action a when a >= b or when one's
    effect (its target's role bit and the authorization of the roles the
    target grants) meets the other's test (its target's role bit and the
    authorization of its literals). Two unsound variants: ``one_way``
    keeps only the a whose test meets b's effect, and ``later`` keeps
    a <= b instead of a >= b. Memoized: do not modify the result."""
    actions, closure, _, _ = _python_masks(policy, query)
    tests = [(tbit, pos | neg) for _, pos, neg, tbit in actions]
    effects = [
        (tbit, closure[tbit.bit_length() - 1] if closure else tbit)
        for _, _, _, tbit in actions
    ]

    def reads(a: int, b: int) -> bool:  # a's test meets b's effect
        return any(t & e for t, e in zip(tests[a], effects[b]))

    n = len(actions)
    return [
        [(a <= b if later else a >= b) or reads(a, b) or (not one_way and reads(b, a))
         for a in range(n)]
        for b in range(n)
    ]


@functools.lru_cache(maxsize=None)
def reference_undo(policy: Policy, query: SafetyQuery, every: bool = False, loose: bool = False):
    """The undo lemma's G table of the unsliced program, pair by pair over
    Python-int masks, and its free flag. Row b holds b's target bit and
    every role x that b, or a sibling of b, leaves enabled when x returns
    to its initial value: b does when x's closure misses b's positive
    literals, if x starts absent, or its negative ones, if x starts held.
    A sibling is an action with b's kind, target and tested roles that
    needs x at its initial value and otherwise what b needs; it counts
    only for an x that no other role grants and that grants no other
    role. Returns (G, free), where ``free(parent_free, child, b)`` is the
    flag of a state ``child`` first queued by action b from a parent with
    flag ``parent_free``: the bits in which it differs from init and that
    some back action flips must lie in G[b]. Two unsound variants:
    ``every`` puts every role in every row, and ``loose`` takes any
    action with b's kind, target and tested roles as a sibling, b itself
    included. Memoized: do not modify the result."""
    actions, closure, init, _ = _python_masks(policy, query)
    n = len(policy.roles)
    closure = closure or [1 << x for x in range(n)]
    granted = 0  # the roles some other role grants
    for x in range(n):
        granted |= closure[x] & ~(1 << x)
    rows = {  # (target, tested roles, needed roles) of every action
        (tbit, tbit | pos | neg, pos | (0 if is_assign else tbit))
        for is_assign, pos, neg, tbit in actions
    }
    back = 0
    for is_assign, _, _, tbit in actions:
        if is_assign == bool(init & tbit):  # it moves its role toward init
            back |= tbit
    table = []
    for is_assign, pos, neg, tbit in actions:
        test, need = tbit | pos | neg, pos | (0 if is_assign else tbit)
        row = tbit
        for x in range(n):
            bit = 1 << x
            stays = not closure[x] & (neg if init & bit else pos)
            plain = closure[x] == bit and not granted & bit
            sibling = loose or (tbit, test, need & ~bit | init & bit) in rows
            if every or stays or (plain and test & bit and sibling):
                row |= bit
        table.append(row)

    def free(parent_free: bool, child: int, b: int) -> bool:
        return parent_free and not (child ^ init) & back & ~table[b]

    return table, free


def run_python(init, n_roles, actions, closure, target_idx, max_states, max_depth):
    """FIFO breadth-first search popping one state at a time and
    enqueueing its unvisited children in action order. Returns (found
    action ids or None, states popped, truncated)."""
    target_bit = 1 << target_idx
    visited = {init}
    queue = [init]
    parent = [-1]
    pact = [-1]
    head = 0
    found = -1
    truncated = False
    depth = 0
    level_end = 1
    while head < len(queue):
        if max_states is not None and head >= max_states:
            truncated = True
            break
        if head == level_end:
            depth += 1
            level_end = len(queue)
        s = queue[head]
        if closure is not None:
            auth = 0
            for i in range(n_roles):
                if s >> i & 1:
                    auth |= closure[i]
        else:
            auth = s
        if auth & target_bit:
            found = head
            break
        expand = max_depth is None or depth < max_depth
        for a, (is_assign, pos, neg, tbit) in enumerate(actions):
            if is_assign:
                if s & tbit or (auth & pos) != pos or auth & neg:
                    continue
                c = s | tbit
            else:
                if not s & tbit:
                    continue
                c = s & ~tbit
            if c in visited:
                continue
            if not expand:
                truncated = True
                continue
            visited.add(c)
            queue.append(c)
            parent.append(head)
            pact.append(a)
        head += 1
    if found < 0:
        return None, head, truncated
    ids = []
    cur = found
    while parent[cur] >= 0:
        ids.append(pact[cur])
        cur = parent[cur]
    return ids[::-1], head + 1, truncated


@functools.lru_cache(maxsize=None)
def fifo_reach(policy: Policy, query: SafetyQuery, limits: SearchLimits) -> Verdict:
    """``reach(policy, query, limits, use_slicing=False)`` computed by
    ``run_python``; the reference the engine must equal on outcome,
    states explored and witness. Memoized, as a ``Verdict`` is frozen."""
    actions, closure, init, target = _python_masks(policy, query)
    ids, popped, truncated = run_python(
        init, len(policy.roles), actions, closure, target,
        limits.max_states, limits.max_depth,
    )
    witness = None
    if ids is not None:
        n_ca = len(policy.ca)
        witness = Witness(tuple(
            ActionStep(ActionKind.ASSIGN, a, policy.ca[a].target)
            if a < n_ca
            else ActionStep(ActionKind.REVOKE, a - n_ca, policy.cr[a - n_ca].target)
            for a in ids
        ))
        outcome = Outcome.REACHABLE
    else:
        outcome = Outcome.UNKNOWN if truncated else Outcome.UNREACHABLE
    return Verdict(
        outcome, witness, popped, outcome is Outcome.UNREACHABLE, len(policy.roles)
    )


def widen(policy: Policy, query: SafetyQuery, extra: int) -> tuple[Policy, SafetyQuery]:
    """``policy`` with ``extra`` inert roles interleaved among its own,
    every third one held by every user; no rule mentions them, so the
    search explores the same states with wider bit rows."""
    pads = [f"pad{i}" for i in range(extra)]
    roles = list(pads)
    for i, role in enumerate(policy.roles):
        roles.insert((i + 1) * len(roles) // (len(policy.roles) + 1), role)
    ua = policy.ua + tuple((u, p) for u in policy.users for p in pads[::3])
    return (
        Policy(
            roles=tuple(roles),
            users=policy.users,
            ua=ua,
            ca=policy.ca,
            cr=policy.cr,
            hierarchy=policy.hierarchy,
            admin_roles=policy.admin_roles,
            queries=policy.queries,
        ),
        query,
    )


def reference_closures(hierarchy: RoleHierarchy) -> dict[str, frozenset[str]]:
    """Every role of an edge mapped to itself and every role reachable
    from it through senior-to-junior edges, by one plain walk per role:
    the reference for ``RoleHierarchy.closures``, which must not serve
    as its own check."""
    juniors_of: dict[str, list[str]] = defaultdict(list)
    for senior, junior in hierarchy.edges:
        juniors_of[senior].append(junior)
    closures = {}
    for role in {r for edge in hierarchy.edges for r in edge}:
        seen = {role}
        stack = [role]
        while stack:
            for junior in juniors_of[stack.pop()]:
                if junior not in seen:
                    seen.add(junior)
                    stack.append(junior)
        closures[role] = frozenset(seen)
    return closures


def _check_name(kind: str, name: str, location: str) -> Iterator[Diagnostic]:
    if not ROLE_NAME_RE.match(name):
        yield Diagnostic(
            Severity.ERROR, location, f"invalid {kind} name {name!r}"
        )
    elif name in RESERVED_WORDS:
        yield Diagnostic(
            Severity.ERROR, location, f"{kind} name {name!r} is a reserved word"
        )


def reference_diagnose(policy: Policy) -> list[Diagnostic]:
    """Every diagnostic of ``policy`` by one hand-written loop per
    section: the reference ``validate`` must equal, list for list."""
    diags: list[Diagnostic] = []
    roles = policy.role_set
    users = policy.user_set

    seen_roles: set[str] = set()
    for i, r in enumerate(policy.roles):
        loc = f"Roles[{i}]"
        diags.extend(_check_name("role", r, loc))
        if r in seen_roles:
            diags.append(
                Diagnostic(Severity.ERROR, loc, f"duplicate role declaration {r!r}")
            )
        seen_roles.add(r)

    seen_users: set[str] = set()
    for i, u in enumerate(policy.users):
        loc = f"Users[{i}]"
        diags.extend(_check_name("user", u, loc))
        if u in seen_users:
            diags.append(Diagnostic(Severity.INFO, loc, f"duplicate user declaration {u!r}"))
        seen_users.add(u)

    seen_ua: set[tuple[str, str]] = set()
    for i, (u, r) in enumerate(policy.ua):
        loc = f"UA[{i}]"
        if u not in users:
            diags.append(Diagnostic(Severity.ERROR, loc, f"undeclared user {u!r}"))
        if r not in roles:
            diags.append(Diagnostic(Severity.ERROR, loc, f"undeclared role {r!r}"))
        if (u, r) in seen_ua:
            diags.append(Diagnostic(Severity.INFO, loc, f"duplicate assignment <{u}, {r}>"))
        seen_ua.add((u, r))

    seen_ca: set[CanAssignRule] = set()
    for i, rule in enumerate(policy.ca):
        loc = f"CA[{i}]"
        literals = rule.pre.roles()
        if not (rule.admin in roles and rule.target in roles and literals <= roles):
            for name in (rule.admin, rule.target, *sorted(literals)):
                if name not in roles:
                    diags.append(Diagnostic(Severity.ERROR, loc, f"undeclared role {name!r}"))
        if not rule.pre.positive.isdisjoint(rule.pre.negative):
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    loc,
                    "precondition uses roles both positively and negatively: "
                    + ", ".join(sorted(rule.pre.positive & rule.pre.negative)),
                )
            )
        if rule.target in literals:
            diags.append(
                Diagnostic(
                    Severity.ERROR, loc, f"target {rule.target!r} appears in its own precondition"
                )
            )
        size = len(seen_ca)
        seen_ca.add(rule)
        if len(seen_ca) == size:
            diags.append(Diagnostic(Severity.INFO, loc, "duplicate can_assign rule"))

    seen_cr: set[CanRevokeRule] = set()
    for i, rule in enumerate(policy.cr):
        loc = f"CR[{i}]"
        for name in (rule.admin, rule.target):
            if name not in roles:
                diags.append(Diagnostic(Severity.ERROR, loc, f"undeclared role {name!r}"))
        if rule in seen_cr:
            diags.append(Diagnostic(Severity.INFO, loc, "duplicate can_revoke rule"))
        seen_cr.add(rule)

    seen_edges: set[tuple[str, str]] = set()
    for i, (s, j) in enumerate(policy.hierarchy.edges):
        loc = f"RH[{i}]"
        for name in (s, j):
            if name not in roles:
                diags.append(Diagnostic(Severity.ERROR, loc, f"undeclared role {name!r}"))
        if (s, j) in seen_edges:
            diags.append(Diagnostic(Severity.INFO, loc, f"duplicate edge <{s}, {j}>"))
        seen_edges.add((s, j))
    # a senior is on a cycle exactly when one of its juniors grants it back
    closures = policy.hierarchy.closures
    cycle = sorted({s for s, j in policy.hierarchy.edges if s in closures.get(j, ())})
    if cycle:
        diags.append(
            Diagnostic(
                Severity.ERROR,
                "RH",
                "hierarchy contains a cycle involving: " + ", ".join(cycle),
            )
        )

    seen_admin: set[str] = set()
    for i, r in enumerate(policy.admin_roles):
        loc = f"ADMIN[{i}]"
        if r not in roles:
            diags.append(Diagnostic(Severity.ERROR, loc, f"undeclared role {r!r}"))
        if r in seen_admin:
            diags.append(Diagnostic(Severity.INFO, loc, f"duplicate admin role {r!r}"))
        seen_admin.add(r)

    for i, q in enumerate(policy.queries):
        loc = f"SPEC[{i}]"
        if q.user not in users:
            diags.append(Diagnostic(Severity.ERROR, loc, f"undeclared user {q.user!r}"))
        if q.target not in roles:
            diags.append(Diagnostic(Severity.ERROR, loc, f"undeclared role {q.target!r}"))

    return diags


def reference_slice(
    policy: Policy, query: SafetyQuery
) -> tuple[Policy, list[int], list[int]]:
    """``slice_policy(policy, query)`` and the cone's rule maps derived
    from scratch for the one query, scanning every rule: the reference
    the per-policy index must equal on the sliced policy and both rule
    maps."""
    hierarchy = policy.hierarchy
    closures = reference_closures(hierarchy)
    seniors_of: dict[str, set[str]] | None = None
    if not hierarchy.is_empty():
        seniors_of = defaultdict(set)
        for role in policy.roles:
            for junior in closures.get(role, (role,)):
                seniors_of[junior].add(role)
    rules_by_target: dict[str, list[CanAssignRule]] = defaultdict(list)
    for rule in policy.ca:
        rules_by_target[rule.target].append(rule)

    relevant: set[str] = set()
    stack = [query.target]
    while stack:
        role = stack.pop()
        if role in relevant:
            continue
        relevant.add(role)
        if seniors_of is not None:
            stack.extend(seniors_of.get(role, ()))
        for rule in rules_by_target.get(role, ()):
            stack.extend(rule.pre.positive)
            stack.extend(rule.pre.negative)

    ca_map = [i for i, rule in enumerate(policy.ca) if rule.target in relevant]
    kept_ca = tuple(policy.ca[i] for i in ca_map)
    negatives: set[str] = set()
    for rule in kept_ca:
        negatives |= rule.pre.negative
    if hierarchy.is_empty():
        cr_map = [i for i, rule in enumerate(policy.cr) if rule.target in negatives]
    else:
        cr_map = [
            i
            for i, rule in enumerate(policy.cr)
            if closures.get(rule.target, {rule.target}) & negatives
        ]
    kept_cr = tuple(policy.cr[i] for i in cr_map)

    kept_roles = set(relevant)
    kept_roles.update(r for _, r in policy.ua)
    kept_roles.update(rule.admin for rule in kept_ca)
    kept_roles.update(rule.admin for rule in kept_cr)
    kept_roles.update(policy.admin_roles)
    sliced = Policy(
        roles=tuple(r for r in policy.roles if r in kept_roles),
        users=policy.users,
        ua=policy.ua,
        ca=kept_ca,
        cr=kept_cr,
        hierarchy=RoleHierarchy(
            tuple(
                (s, j)
                for s, j in hierarchy.edges
                if s in kept_roles and j in kept_roles
            )
        ),
        admin_roles=policy.admin_roles,
        queries=(query,),
    )
    return sliced, ca_map, cr_map


_SECTION_KEYWORDS = ("Roles", "Users", "UA", "CR", "CA", "RH", "ADMIN", "SPEC")

_PUNCT = {"<": "<", ">": ">", ",": ",", ";": ";", "&": "&", "-": "-"}

_IDENT_START = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
)
_IDENT_CONT = _IDENT_START | frozenset("0123456789-@")


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", one of the punctuation chars, or "eof"
    text: str
    span: SourceSpan


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "/" and text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch in _IDENT_START:
            start = i
            start_col = col
            while i < n and text[i] in _IDENT_CONT:
                i += 1
                col += 1
            word = text[start:i]
            tokens.append(_Token("ident", word, SourceSpan(line, start_col, len(word))))
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, SourceSpan(line, col, 1)))
            i += 1
            col += 1
            continue
        raise ParseError(SourceSpan(line, col, 1), f"unexpected character {ch!r}")
    tokens.append(_Token("eof", "", SourceSpan(line, col, 0)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, tok: _Token, expected: tuple[str, ...]) -> ParseError:
        got = "end of input" if tok.kind == "eof" else repr(tok.text)
        return ParseError(tok.span, f"unexpected {got}", expected)

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.fail(tok, (f"'{kind}'",))
        return self.advance()

    def ident(self) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(tok, ("identifier",))
        if tok.text in RESERVED_WORDS:
            raise ParseError(
                tok.span, f"{tok.text!r} is reserved and cannot be used as a name"
            )
        self.advance()
        return tok.text

    def ident_list(self) -> list[str]:
        names = [self.ident()]
        while self.peek().kind == "ident":
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
        while self.peek().kind == "<":
            pairs.append(self.pair())
        return pairs

    def condition(self) -> Precondition:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "TRUE":
            self.advance()
            return Precondition()
        positive: list[str] = []
        negative: list[str] = []
        while True:
            if self.peek().kind == "-":
                self.advance()
                negative.append(self.ident())
            else:
                positive.append(self.ident())
            if self.peek().kind != "&":
                break
            self.advance()
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
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind != "ident" or tok.text not in _SECTION_KEYWORDS:
                raise self.fail(
                    tok, tuple(f"'{k}'" for k in _SECTION_KEYWORDS)
                )
            self.advance()
            section = tok.text
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
                while self.peek().kind == "<":
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


def reference_parse(text: str) -> Policy:
    """``parse_policy(text)`` by a char-by-char tokenizer that tracks
    line and column for every token: the reference the regex scanner
    must equal on the policy, or on the error's span, message and
    ``expected``."""
    if not text.isascii():
        bad_line = 1
        bad_col = 1
        for ch in text:
            if ord(ch) > 127:
                break
            if ch == "\n":
                bad_line += 1
                bad_col = 1
            else:
                bad_col += 1
        raise ParseError(
            SourceSpan(bad_line, bad_col, 1), "input is not 7-bit ASCII"
        )
    return _Parser(_tokenize(text)).policy()

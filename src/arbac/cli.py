"""Command-line interface.

Subcommands: generate (bank policy text), check (safety queries),
compile-sop (rule family for one constraint), validate, stats.

Stream discipline: standard output carries only policy text or JSON;
everything informational (counts, diagnostics, human-readable reports)
goes to standard error, so `arbac generate ... | arbac check -` composes.

check exit codes: 0 every query unreachable, 2 some query reachable,
3 some query unknown and none reachable, 1 broken input or usage. The
environment variable ARBAC_MAX_STATES supplies a default state cap for
check when --max-states is not given. Every subcommand exits 1, with no
traceback, when the reader of its standard output stops early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from .bank import BankConfig, HierarchyMode, Instrumentation, generate_bank
from .model import ROLE_NAME_RE, RESERVED_WORDS, Policy, SafetyQuery, Severity, validate
from .sop import SopConstraint, SopError, compile_sop, compile_sop_monitor
from .textio import ParseError, format_ca_rule, parse_policy, serialize_policy

if TYPE_CHECKING:  # analyzer pulls in numpy; imported lazily in cmd_check
    from .analyzer import Verdict

__all__ = ["main"]

MAX_STATES_ENV = "ARBAC_MAX_STATES"


def _err(message: str) -> None:
    print(message, file=sys.stderr)


class _ArgumentParser(argparse.ArgumentParser):
    # usage problems exit 1; exit 2 is reserved for "query reachable"
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_policy_text(path: str) -> str:
    # one char per byte, so parse_policy reports where a non-ASCII byte is,
    # and no newline translation, so a lone \r stays a blank
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    return data.decode("latin-1")


def _load_policy(path: str) -> Policy | None:
    try:
        text = _read_policy_text(path)
    except OSError as exc:
        _err(f"error: cannot read {path}: {exc}")
        return None
    try:
        return parse_policy(text)
    except ParseError as exc:
        _err(f"error: {path}: {exc}")
        return None


def cmd_generate(args) -> int:
    try:
        config = BankConfig(
            branches=args.branches,
            instrumentation=Instrumentation(args.queries),
            hierarchy_mode=HierarchyMode(args.hierarchy),
            analysis_user=args.user,
            corrected_q2=args.corrected_q2,
        )
    except ValueError as exc:
        _err(f"error: {exc}")
        return 1
    policy = generate_bank(config)
    text = serialize_policy(policy)
    if args.out:
        try:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            _err(f"error: cannot write {args.out}: {exc}")
            return 1
    else:
        sys.stdout.write(text)
    _err(
        f"roles: {len(policy.roles)}  can_assign: {len(policy.ca)}  "
        f"can_revoke: {len(policy.cr)}  queries: {len(policy.queries)}"
    )
    return 0


def _parse_query_override(text: str) -> SafetyQuery | None:
    user, sep, role = text.partition(":")
    if not sep or not user or not role:
        _err(f"error: query must look like user:role, got {text!r}")
        return None
    return SafetyQuery(user, role)


def _witness_json(verdict: "Verdict") -> list[dict] | None:
    if verdict.witness is None:
        return None
    return [
        {"kind": step.kind.value, "ruleIndex": step.rule_index, "role": step.role}
        for step in verdict.witness.steps
    ]


def _report_human(v: "Verdict", query: SafetyQuery, wall_time_ms: int) -> None:
    detail = (
        f"{v.states_explored} states explored, "
        f"{v.sliced_role_count} roles after slicing, {wall_time_ms} ms"
    )
    _err(f"query {query.user}:{query.target} -> {v.outcome.value} ({detail})")
    if v.witness is not None:
        for n, step in enumerate(v.witness.steps, 1):
            section = "CA" if step.kind.value == "assign" else "CR"
            _err(
                f"  {n}. {step.kind.value} {step.role} "
                f"via {section}[{step.rule_index}]"
            )


def cmd_check(args) -> int:
    if "numpy" not in sys.modules:
        # arbac calls no BLAS routine, and when numpy loads OpenBLAS would
        # start a spinning worker thread for each CPU beyond the first
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .analyzer import InvalidQuery, SearchLimits, reach

    policy = _load_policy(args.policy)
    if policy is None:
        return 1
    errors = [d for d in validate(policy) if d.severity is Severity.ERROR]
    if errors:
        for d in errors:
            _err(f"error: {args.policy}: {d.location}: {d.message}")
        return 1

    if args.query:
        override = _parse_query_override(args.query)
        if override is None:
            return 1
        queries = [override]
    else:
        queries = list(policy.queries)
    if not queries:
        _err("error: the policy declares no SPEC queries and no --query was given")
        return 1

    max_states, source = args.max_states, "--max-states"
    if max_states is None:
        env = os.environ.get(MAX_STATES_ENV)
        if env is not None:
            try:
                max_states = int(env)
            except ValueError:
                _err(f"error: {MAX_STATES_ENV}={env!r} is not an integer")
                return 1
            source = f"{MAX_STATES_ENV}={max_states}"
    try:
        limits = SearchLimits(max_states=max_states)
    except ValueError as exc:
        _err(f"error: {source}: {exc}")
        return 1

    outcomes: list[str] = []
    for query in queries:
        start = time.perf_counter()
        try:
            verdict = reach(
                policy,
                query,
                limits=limits,
                use_slicing=not args.no_slicing,
            )
        except InvalidQuery as exc:
            _err(f"error: {exc}")
            return 1
        elapsed_ms = int(round((time.perf_counter() - start) * 1000))
        outcomes.append(verdict.outcome.value)
        if args.json:
            print(
                json.dumps(
                    {
                        "query": {"user": query.user, "role": query.target},
                        "verdict": verdict.outcome.value,
                        "witness": _witness_json(verdict),
                        "statesExplored": verdict.states_explored,
                        "exhausted": verdict.exhausted,
                        "slicedRoleCount": verdict.sliced_role_count,
                    }
                )
            )
        else:
            _report_human(verdict, query, elapsed_ms)

    if "reachable" in outcomes:
        return 2
    if "unknown" in outcomes:
        return 3
    return 0


def cmd_compile_sop(args) -> int:
    roles = [r.strip() for r in args.roles.split(",") if r.strip()]
    guard = [r.strip() for r in args.guard.split(",") if r.strip()]
    named = {"--roles": roles, "--guard": guard, "--admin": [args.admin],
             "--monitor": [args.monitor] if args.monitor else []}
    for flag, names in named.items():
        for name in names:
            # the names are printed as policy text, which must parse back
            if not ROLE_NAME_RE.match(name) or name in RESERVED_WORDS:
                _err(f"error: {flag}: invalid role name {name!r}")
                return 1
    try:
        constraint = SopConstraint(tuple(roles), args.limit)
        rules = list(compile_sop(constraint, guard=frozenset(guard), admin=args.admin))
        if args.monitor:
            rules.extend(
                compile_sop_monitor(constraint, monitor=args.monitor, admin=args.admin)
            )
    except (SopError, ValueError) as exc:
        _err(f"error: {exc}")
        return 1
    print("CA")
    for rule in rules:
        print(format_ca_rule(rule))
    print(";")
    _err(f"rules: {len(rules)}")
    return 0


def cmd_validate(args) -> int:
    policy = _load_policy(args.policy)
    if policy is None:
        return 1
    diagnostics = validate(policy)
    for d in diagnostics:
        _err(f"{args.policy}: {d}")
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    if errors:
        _err(f"{len(errors)} error(s)")
        return 1
    _err("ok")
    return 0


def cmd_stats(args) -> int:
    policy = _load_policy(args.policy)
    if policy is None:
        return 1
    histogram: dict[str, int] = {}
    mixed = 0
    for rule in policy.ca:
        size = len(rule.pre.positive) + len(rule.pre.negative)
        histogram[str(size)] = histogram.get(str(size), 0) + 1
        if rule.pre.positive and rule.pre.negative:
            mixed += 1
    stats = {
        "roles": len(policy.roles),
        "users": len(policy.users),
        "ua": len(policy.ua),
        "canAssign": len(policy.ca),
        "canRevoke": len(policy.cr),
        "hierarchyEdges": len(policy.hierarchy.edges),
        "adminRoles": len(policy.admin_roles),
        "queries": len(policy.queries),
        "preconditionSizeHistogram": dict(
            sorted(histogram.items(), key=lambda kv: int(kv[0]))
        ),
        "mixedPreconditions": mixed,
    }
    print(json.dumps(stats))
    _err(
        f"{stats['roles']} roles, {stats['canAssign']} can_assign, "
        f"{stats['canRevoke']} can_revoke, {mixed} rules with mixed preconditions"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="arbac", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a bank case-study policy")
    g.add_argument("--branches", type=int, required=True, help="number of branches")
    g.add_argument(
        "--queries",
        choices=[m.value for m in Instrumentation],
        default="none",
        help="query instrumentation to include",
    )
    g.add_argument(
        "--hierarchy",
        choices=[m.value for m in HierarchyMode],
        default="flat",
        help="role hierarchy mode",
    )
    g.add_argument("--user", default="newUser", help="analysis user name")
    g.add_argument(
        "--corrected-q2",
        action="store_true",
        help="use the corrected all-violations encoding for question 2 "
        "(deviates from the chain encoding)",
    )
    g.add_argument("--out", help="output file (default: standard output)")
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("check", help="answer safety queries against a policy")
    c.add_argument("policy", help="policy file, or - for standard input")
    c.add_argument("--query", help="override SPEC queries with user:role")
    c.add_argument(
        "--no-slicing",
        action="store_true",
        help="search the whole policy instead of the query's relevance cone",
    )
    c.add_argument(
        "--max-states",
        type=int,
        default=None,
        help=f"state cap; truncation yields verdict unknown "
        f"(default from ${MAX_STATES_ENV})",
    )
    c.add_argument("--json", action="store_true", help="one JSON object per query")
    c.set_defaults(func=cmd_check)

    s = sub.add_parser("compile-sop", help="compile one constraint to rules")
    s.add_argument("--roles", required=True, help="comma-separated constrained roles")
    s.add_argument("--limit", type=int, required=True, help="most roles held at once")
    s.add_argument("--guard", default="", help="comma-separated guard roles")
    s.add_argument("--admin", default="Admin", help="administrative role")
    s.add_argument("--monitor", help="also emit monitor rules for this role")
    s.set_defaults(func=cmd_compile_sop)

    v = sub.add_parser("validate", help="parse and validate a policy file")
    v.add_argument("policy", help="policy file, or - for standard input")
    v.set_defaults(func=cmd_validate)

    t = sub.add_parser("stats", help="print policy statistics as JSON")
    t.add_argument("policy", help="policy file, or - for standard input")
    t.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:  # the reader stopped early: unflushed output goes nowhere
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())

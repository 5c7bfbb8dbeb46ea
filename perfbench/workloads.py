"""The arbac benchmark workloads, their known answers and the answer gate.

Each workload builds its inputs from the seed in ``setup``, then runs a
fixed unit of work per ``rep``: one ``reach`` (plus ``replay``) call in
process, one batch ``check`` process, or a fixed number of single-query
``check`` processes. Every query of every rep is judged against a known
answer that does not come from the search under test.

The program is treated as a black box: only public functions of
``bank``, ``textio``, ``model``, ``analyzer`` and ``cli`` are called, and
the CLI runs as ``python -m arbac`` with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

from arbac import analyzer, cli
from arbac.analyzer import Outcome, Witness
from arbac.bank import (
    ADMIN_ROLE,
    DIVISIONS,
    NON_MANAGERIAL_POSITIONS,
    SOP_LIMIT,
    BankConfig,
    branch_roles,
    generate_bank,
)
from arbac.model import (
    ActionKind,
    ActionStep,
    CanAssignRule,
    Policy,
    Precondition,
    RoleHierarchy,
    SafetyQuery,
)
from arbac.textio import parse_policy, serialize_policy

from spans import Tracer

USER = "newUser"
SUBPROCESS_TIMEOUT_S = 150

# Public names the traced rep routes through spans. ``validate`` and
# ``validation_errors`` are the names cli and analyzer call, so counting
# these spans counts validations per query.
BOUNDARIES = (
    (cli, "parse_policy", "textio.parse"),
    (cli, "validate", "model.validate"),
    (analyzer, "validation_errors", "model.validate"),
    (analyzer, "reach", "analyzer.reach"),
    (analyzer, "replay", "analyzer.replay"),
)
VALIDATION = ((analyzer, "validation_errors", "model.validate"),)


def cli_env(src: Path) -> dict:
    """Environment for child interpreters: the package comes from
    ``src`` and no state cap leaks in from the caller."""
    env = {k: v for k, v in os.environ.items() if k != cli.MAX_STATES_ENV}
    env["PYTHONPATH"] = str(src)
    return env


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result: its inputs
    failed their own checks, or the traced breakdown disagrees with the
    program's answer."""


@dataclass(frozen=True)
class Answer:
    """Known answer for one query."""

    reachable: bool
    length: int | None = None  # shortest witness length, when reachable
    states: int | None = None  # states explored, when pinned


@dataclass
class Seen:
    """What the program answered for one query."""

    query: SafetyQuery
    outcome: str
    states: int
    witness: Witness | None


@dataclass
class Rep:
    wall_s: float
    latencies_s: list[float]
    attempted: int = 0
    wrong: int = 0
    failed: int = 0
    seen: list[Seen] = field(default_factory=list)


def judge(policy: Policy, query: SafetyQuery, expected: Answer, outcome: str,
          witness: Witness | None, states: int, exhausted: bool) -> str | None:
    """The answer gate: None when the answer is right, "failed" when the
    program gave no answer, "wrong" when it gave a different one."""
    if outcome == Outcome.UNKNOWN.value:
        return "failed"
    if expected.reachable:
        if outcome != Outcome.REACHABLE.value or witness is None:
            return "wrong"
        if len(witness) != expected.length:
            return "wrong"
        return None if analyzer.replay(policy, query, witness) else "wrong"
    if outcome != Outcome.UNREACHABLE.value or witness is not None or not exhausted:
        return "wrong"
    if expected.states is not None and states != expected.states:
        return "wrong"
    # the empty witness must not certify: the target is not held initially
    return "wrong" if analyzer.replay(policy, query, Witness(())) else None


def tally(rep: Rep, status: str | None) -> None:
    rep.attempted += 1
    if status == "wrong":
        rep.wrong += 1
    elif status == "failed":
        rep.failed += 1


def restrict(policy: Policy, drop: set[str]) -> Policy:
    """``policy`` without the roles in ``drop`` and every rule that
    mentions one of them."""

    def kept(*roles: str) -> bool:
        return not drop.intersection(roles)

    return Policy(
        roles=tuple(r for r in policy.roles if kept(r)),
        users=policy.users,
        ua=tuple((u, r) for u, r in policy.ua if kept(r)),
        ca=tuple(
            rule
            for rule in policy.ca
            if kept(rule.admin, rule.target, *rule.pre.roles())
        ),
        cr=tuple(rule for rule in policy.cr if kept(rule.admin, rule.target)),
        hierarchy=RoleHierarchy(
            tuple((s, j) for s, j in policy.hierarchy.edges if kept(s, j))
        ),
        admin_roles=tuple(r for r in policy.admin_roles if kept(r)),
        queries=tuple(q for q in policy.queries if kept(q.target)),
    )


def weaken_clerk_rule(policy: Policy, branch: int) -> Policy:
    """Drop the ``-FA-Junior`` literal from the clerk rule of ``branch``
    that admits the Asst+Special pair; exactly one rule changes."""
    b = f"@{branch}"
    pos = frozenset({f"FA{b}", f"FA-Asst{b}", f"FA-Special{b}"})
    neg = frozenset({f"FA-Senior{b}", f"FA-Junior{b}"})
    weakened = Precondition(pos, frozenset({f"FA-Senior{b}"}))
    ca = tuple(
        CanAssignRule(rule.admin, weakened, rule.target)
        if rule.target == f"FA-Clerk{b}" and rule.pre == Precondition(pos, neg)
        else rule
        for rule in policy.ca
    )
    changed = sum(1 for a, c in zip(policy.ca, ca) if a != c)
    if changed != 1:
        raise BenchmarkError(f"clerk mutation changed {changed} rules, expected 1")
    return dataclasses.replace(policy, ca=ca)


def division_twin(policy: Policy, user: str) -> tuple[Policy, SafetyQuery]:
    """The FA division of branch 1 in isolation, with its monitor role:
    small enough for ``oracle_reach``."""
    branch = branch_roles(1)
    fa = branch.divisions[0]
    keep = {ADMIN_ROLE, branch.employee, fa.role, *fa.non_managerial, "AnyFour_1"}
    query = SafetyQuery(user, "AnyFour_1")
    twin = restrict(policy, set(policy.roles) - keep)
    return dataclasses.replace(twin, queries=(query,)), query


class Workload:
    name = ""
    roadmap = ""
    in_process = True

    def __init__(self, seed: int, smoke: bool, workdir: Path, src: Path):
        self.seed = seed
        self.smoke = smoke
        self.src = src
        self.path = workdir / f"{self.name}-seed{seed}.arbac"
        self.input_bytes = 0

    def write_input(self, tracer: Tracer, policy: Policy) -> Policy:
        """Serialize, write and parse back ``policy``; the parse must
        round-trip exactly."""
        with tracer.span("textio.serialize"):
            text = serialize_policy(policy)
        self.path.write_text(text, encoding="ascii")
        self.input_bytes = len(text)
        with tracer.span("textio.parse"):
            parsed = parse_policy(self.path.read_text(encoding="ascii"))
        if parsed != policy:
            raise BenchmarkError("input file does not parse back to the generated policy")
        return parsed


class SearchWorkload(Workload):
    """One in-process ``reach`` (plus ``replay``) call per rep.

    The instance is fixed: the seed only names the analysis user, which
    leaves the state space and its cost unchanged. (Shuffling the role
    order instead would renumber the state bits, which changes the
    search's cost by up to 10% between seeds.)
    """

    def config(self, **kwargs) -> BankConfig:
        return BankConfig(analysis_user=f"user{self.seed}", **kwargs)

    def bank(self, tracer: Tracer) -> Policy:
        raise NotImplementedError

    def known_answer(self, twin: Policy, twin_query: SafetyQuery) -> Answer:
        raise NotImplementedError

    def setup(self, tracer: Tracer) -> None:
        policy = self.bank(tracer)
        self.query = SafetyQuery(policy.users[0], "TargetQ1")
        policy = dataclasses.replace(policy, queries=(self.query,))
        self.policy = self.write_input(tracer, policy)
        twin, twin_query = division_twin(self.policy, self.query.user)
        self.expected = self.known_answer(twin, twin_query)
        analyzer.reach(twin, twin_query)  # warm-up

    def rep(self, index: int) -> Rep:
        gc.collect()
        rep = Rep(0.0, [])
        start = time.perf_counter()
        try:
            v = analyzer.reach(self.policy, self.query)
            status = judge(self.policy, self.query, self.expected, v.outcome.value,
                           v.witness, v.states_explored, v.exhausted)
        except Exception:
            traceback.print_exc()
            v, status = None, "failed"
        rep.wall_s = time.perf_counter() - start
        rep.latencies_s.append(rep.wall_s)
        tally(rep, status)
        if v is not None:
            rep.seen.append(Seen(self.query, v.outcome.value, v.states_explored, v.witness))
        return rep

    def traced_rep(self, index: int, tracer: Tracer, probes: dict) -> Rep:
        tracer.query = 0
        with tracer.wrapped(BOUNDARIES):
            return self.rep(index)

    def decompose(self, tracer: Tracer, rep: Rep) -> dict:
        return slice_and_search(tracer, self.policy, rep.seen)


class ExhaustQ1(SearchWorkload):
    name = "exhaust-q1"
    roadmap = "W1"

    def divisions(self) -> int:
        return 2 if self.smoke else len(DIVISIONS)

    def bank(self, tracer: Tracer) -> Policy:
        with tracer.span("bank.generate"):
            policy = generate_bank(self.config(branches=1, instrumentation="q1"))
        dropped = branch_roles(1).divisions[self.divisions():]
        return restrict(policy, {r for d in dropped for r in d.all_roles()})

    def known_answer(self, twin, twin_query) -> Answer:
        # one empty state, then per division: the division role off, or
        # on with any subset of at most SOP_LIMIT non-managerial roles
        per_division = 1 + sum(
            comb(len(NON_MANAGERIAL_POSITIONS), k) for k in range(SOP_LIMIT + 1)
        )
        return Answer(False, states=1 + per_division ** self.divisions())


class WitnessB3(SearchWorkload):
    name = "witness-b3"
    roadmap = "W3/W4"

    def bank(self, tracer: Tracer) -> Policy:
        branches = 1 if self.smoke else 3
        with tracer.span("bank.generate"):
            policy = generate_bank(self.config(branches=branches, instrumentation="both"))
        return weaken_clerk_rule(policy, 1)

    def known_answer(self, twin, twin_query) -> Answer:
        oracle = analyzer.oracle_reach(twin, twin_query)
        if oracle.outcome is not Outcome.REACHABLE:
            raise BenchmarkError("the mutated division twin is not reachable")
        # the twin's witness ends holding AnyFour_1; Branch_1 and TargetQ1
        # then take one step each
        return Answer(True, length=len(oracle.witness) + 2)


def role_answers(branches: int) -> dict[str, Answer]:
    """Known shortest witness length of every branch role, plus Admin."""
    answers = {ADMIN_ROLE: Answer(False)}
    for i in range(1, branches + 1):
        branch = branch_roles(i)
        answers[branch.employee] = Answer(True, length=1)
        for div in branch.divisions:
            answers[div.role] = Answer(True, length=2)
            for role in (*div.managerial, *div.non_managerial):
                answers[role] = Answer(True, length=3)
    return answers


def witness_of(steps) -> Witness | None:
    if steps is None:
        return None
    return Witness(tuple(
        ActionStep(ActionKind(s["kind"]), s["ruleIndex"], s["role"]) for s in steps
    ))


class CliWorkload(Workload):
    """``python -m arbac check`` on bank 18 ``both``, hierarchical."""

    in_process = False

    def setup(self, tracer: Tracer) -> None:
        branches = 2 if self.smoke else 18
        with tracer.span("bank.generate"):
            policy = generate_bank(BankConfig(
                branches=branches, instrumentation="both", hierarchy_mode="hierarchical"
            ))
        self.expected = role_answers(branches)
        roles = sorted(self.expected)
        random.Random(self.seed).shuffle(roles)
        queries = tuple(SafetyQuery(USER, r) for r in roles)
        self.policy = self.write_input(tracer, dataclasses.replace(policy, queries=queries))
        self.env = cli_env(self.src)
        warm = self.run_cli(["--query", f"{USER}:{ADMIN_ROLE}"])
        if warm[1] != 0:
            raise BenchmarkError(f"warm-up check exited {warm[1]}")

    def run_cli(self, extra: list[str]) -> tuple[float, int, str]:
        argv = [sys.executable, "-m", "arbac", "check", str(self.path), "--json", *extra]
        start = time.perf_counter()
        proc = subprocess.run(argv, env=self.env, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        return time.perf_counter() - start, proc.returncode, proc.stdout

    def invocations(self, index: int) -> list[tuple[list[SafetyQuery], list[str]]]:
        """The queries and extra ``check`` arguments of each process."""
        raise NotImplementedError

    def judge_output(self, rep: Rep, queries: list[SafetyQuery], code: int, out: str) -> None:
        try:
            records = [json.loads(line) for line in out.splitlines() if line.strip()]
            got = [SafetyQuery(r["query"]["user"], r["query"]["role"]) for r in records]
            answers = [
                (r["verdict"], witness_of(r["witness"]), r["statesExplored"], r["exhausted"])
                for r in records
            ]
        except (ValueError, KeyError, TypeError):
            got = None
        reachable = any(self.expected[q.target].reachable for q in queries)
        if code != (2 if reachable else 0) or got != queries:
            for _ in queries:
                tally(rep, "failed")
            return
        for q, (outcome, witness, states, exhausted) in zip(queries, answers):
            tally(rep, judge(self.policy, q, self.expected[q.target], outcome,
                             witness, states, exhausted))
            rep.seen.append(Seen(q, outcome, states, witness))

    def rep(self, index: int) -> Rep:
        rep = Rep(0.0, [])
        for queries, extra in self.invocations(index):
            wall, code, out = self.run_cli(extra)
            rep.wall_s += wall
            rep.latencies_s.append(wall)
            self.judge_output(rep, queries, code, out)
        return rep

    def traced_rep(self, index: int, tracer: Tracer, probes: dict) -> Rep:
        """The same invocations through ``cli.main`` in this process.
        Interpreter start and import, which an in-process call cannot
        show, are added from the probes. The benchmark's own objects are
        frozen out of the garbage collector's view, as they would be
        absent from a fresh CLI process; otherwise collections walking
        them slow the traced parse by about half."""
        rep = Rep(0.0, [])
        per_process = (probes["cli.interp_start_ms"] + probes["cli.import_ms"]) / 1000
        gc.collect()
        gc.freeze()
        try:
            for n, (queries, extra) in enumerate(self.invocations(index)):
                tracer.query = n
                out = io.StringIO()
                with tracer.wrapped(BOUNDARIES), contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    with tracer.span("cli.main") as span:
                        code = cli.main(["check", str(self.path), "--json", *extra])
                wall = per_process + span.end - span.start
                rep.wall_s += wall
                rep.latencies_s.append(wall)
                self.judge_output(rep, queries, code, out.getvalue())
        finally:
            gc.unfreeze()
        return rep

    def decompose(self, tracer: Tracer, rep: Rep) -> dict:
        stats = slice_and_search(tracer, self.policy, rep.seen)
        # the CLI never replays; its witnesses are replayed here, as the
        # in-process workloads do inside their rep
        for n, seen in enumerate(rep.seen):
            if seen.witness is not None:
                tracer.query = n
                with tracer.span("analyzer.replay"):
                    analyzer.replay(self.policy, seen.query, seen.witness)
        return stats


class CliBatch(CliWorkload):
    name = "cli-batch"
    roadmap = "W2"

    def invocations(self, index: int):
        return [(list(self.policy.queries), [])]


class CliSingle(CliWorkload):
    name = "cli-single"
    roadmap = "W2"

    def invocations(self, index: int):
        rng = random.Random(f"{self.seed}/{index}")
        count = 3 if self.smoke else 30
        picked = [rng.choice(self.policy.queries) for _ in range(count)]
        return [([q], ["--query", f"{q.user}:{q.target}"]) for q in picked]


def slice_and_search(tracer: Tracer, policy: Policy, seen: list[Seen]) -> dict:
    """Time the slice and the search of each answered query separately,
    with public calls only, and check that together they reproduce the
    verdict and state count of the sliced ``reach``."""
    sliced_roles, keep = [], []
    with tracer.wrapped(VALIDATION):
        for n, s in enumerate(seen):
            tracer.query = n
            with tracer.span("analyzer.slice"):
                sliced = analyzer.slice_policy(policy, s.query)
            with tracer.span("engine.search"):
                v = analyzer.reach(sliced, s.query, use_slicing=False)
            if (v.outcome.value, v.states_explored) != (s.outcome, s.states):
                raise BenchmarkError(
                    f"search on the slice of {s.query.target} gave "
                    f"{v.outcome.value}/{v.states_explored}, "
                    f"sliced reach gave {s.outcome}/{s.states}"
                )
            sliced_roles.append(len(sliced.roles))
            keep.append(len(sliced.ca) / len(policy.ca))
    return {
        "analyzer.sliced_roles": statistics.fmean(sliced_roles),
        "analyzer.slice_keep_ratio": statistics.fmean(keep),
    }


WORKLOADS = {w.name: w for w in (ExhaustQ1, WitnessB3, CliBatch, CliSingle)}

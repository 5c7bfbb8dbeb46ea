"""Tests of the benchmark itself: a reduced run of every workload, the
answer gate, and the refusal to run without the arbac sources.

Run from the repository root:

    python -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Answer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_lists_the_workloads_run_accepts():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.NAMES)
    assert sorted(run.NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.NAMES)
def test_smoke_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.2",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    detail = json.loads(detail_line)
    assert detail["wrong_answers"] == 0 and detail["failed_frac"] == 0
    assert set(detail["env"]) == {"python", "numpy", "numba", "nproc", "commit", "src.lines"}


@pytest.mark.parametrize("cls", [workloads.CliBatch, workloads.WitnessB3])
def test_inputs_follow_the_seed(cls, tmp_path):
    def text(seed: int) -> str:
        wl = cls(seed, True, tmp_path, SRC)
        wl.setup(Tracer())
        return wl.path.read_text()

    assert text(3) == text(3)
    assert text(3) != text(4)


def tampered(answer: Answer) -> Answer:
    if answer.reachable:
        return dataclasses.replace(answer, length=answer.length + 1)
    return dataclasses.replace(answer, states=(answer.states or 0) + 1)


@pytest.mark.parametrize("cls", [workloads.ExhaustQ1, workloads.WitnessB3])
def test_wrong_expected_answer_fails_search(cls, tmp_path):
    wl = cls(1, True, tmp_path, SRC)
    wl.setup(Tracer())
    assert wl.rep(0).wrong == 0
    wl.expected = tampered(wl.expected)
    rep = wl.rep(0)
    assert (rep.attempted, rep.wrong, rep.failed) == (1, 1, 0)


@pytest.mark.parametrize("role", ["Employee@2", "FA@1", "ST-Clerk@2", "Admin"])
def test_wrong_expected_answer_fails_cli(role, tmp_path):
    wl = workloads.CliBatch(1, True, tmp_path, SRC)
    wl.setup(Tracer())
    assert wl.rep(0).wrong == 0
    wl.expected[role] = (
        Answer(True, length=1) if role == "Admin" else tampered(wl.expected[role])
    )
    rep = wl.rep(0)
    assert rep.wrong == 1 and rep.failed == 0


def test_wrong_answer_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(workloads.ExhaustQ1, "known_answer",
                        lambda self, twin, query: Answer(False, states=2))
    code = run.main(["--workload", "exhaust-q1", "--seed", "1", "--seconds", "0",
                     "--smoke"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["attempted"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "exhaust-q1", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90.0, 90.0)
    assert run.tail(samples[:5]) == (5.0, 100.0)


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    outer_self, inner_self = tracer.self_times()
    assert inner_self == inner.end - inner.start
    assert outer_self == pytest.approx((outer.end - outer.start) - inner_self)
    assert tracer.top_level_total() == outer.end - outer.start

"""Benchmark for arbac: runs one workload and prints its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload exhaust-q1 --seed 1 --seconds 20 --trace 0

Workloads: exhaust-q1, witness-b3, cli-batch, cli-single (see README.md
in this directory). The inputs come from ``--seed``. The timed part
repeats the workload's rep until ``--seconds`` have passed (at least one
rep) and reports medians. Every answer is checked.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` a separate traced
run reports the per-layer ones. The line before it gives the details:
environment, provenance, wrong answers and the latency percentile used.
Inputs, results and spans are written under ``.perfbench_out/``.

Exit status: 0 when every answer was right and none failed, 1 otherwise
or on a benchmark error, 2 when the arbac sources are missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_ROUNDS = 5
PROBE_ROUNDS = 5
NAMES = ("exhaust-q1", "witness-b3", "cli-batch", "cli-single")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def peak_rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that
    percentile; the maximum when there are too few samples."""
    xs = sorted(samples)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def environment() -> dict:
    numpy = sys.modules.get("numpy")
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy else None,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src.lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
        ),
    }


def probes(env: dict) -> dict:
    """Interpreter start, and import of the CLI and analyzer on top of it,
    each the median of a few fresh processes."""

    def median_ms(code: str) -> float:
        times = []
        for _ in range(PROBE_ROUNDS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, timeout=60)
            times.append(time.perf_counter() - start)
        return 1000 * statistics.median(times)

    interp = median_ms("pass")
    return {
        "cli.interp_start_ms": interp,
        "cli.import_ms": median_ms("import arbac.cli, arbac.analyzer") - interp,
    }


def untraced(wl, seconds: float) -> tuple[list, dict, dict]:
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        reps.append(wl.rep(len(reps)))
    latencies = [x for r in reps for x in r.latencies_s]
    tail_s, tail_pct = tail(latencies)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in reps), "s"),
        "peak_rss_mib": (peak_rss_mib(who), "MiB"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
    }
    detail = {"rep_wall_s": [r.wall_s for r in reps], "latency_samples": len(latencies),
              "latency_tail_percentile": tail_pct}
    return reps, metrics, detail


def traced(wl, setup_tracer: Tracer, env: dict) -> tuple[list, dict, dict, list]:
    """One untraced rep, the same rep traced, then the slice/search
    breakdown of its queries."""
    probe = probes(env)
    rss0 = peak_rss_mib(resource.RUSAGE_SELF)
    plain = wl.rep(0)
    rss_plain = peak_rss_mib(resource.RUSAGE_SELF)
    rep_tracer = Tracer()
    traced_rep = wl.traced_rep(0, rep_tracer, probe)
    decomp = Tracer()
    rss_d0 = peak_rss_mib(resource.RUSAGE_SELF)
    layer = wl.decompose(decomp, traced_rep)
    rss_d1 = peak_rss_mib(resource.RUSAGE_SELF)

    seen = traced_rep.seen
    states = sum(s.states for s in seen)
    # peak RSS rise over the first in-process search phase
    rise_mib = rss_plain - rss0 if wl.in_process else rss_d1 - rss_d0
    per_process_s = (probe["cli.interp_start_ms"] + probe["cli.import_ms"]) / 1000
    accounted = rep_tracer.top_level_total()
    if not wl.in_process:
        accounted += len(traced_rep.latencies_s) * per_process_s
    parses = setup_tracer.durations("textio.parse") + rep_tracer.durations("textio.parse")
    parse_s = statistics.median(parses)
    validations = rep_tracer.durations("model.validate")
    search_s = decomp.self_total("engine.search")
    metrics = {
        "bank.generate_s": (statistics.median(setup_tracer.durations("bank.generate")), "s"),
        "textio.serialize_s": (statistics.median(setup_tracer.durations("textio.serialize")), "s"),
        "textio.parse_s": (parse_s, "s"),
        "textio.parse_mib_per_s": (wl.input_bytes / 2**20 / parse_s, "MiB/s"),
        "cli.interp_start_ms": (probe["cli.interp_start_ms"], "ms"),
        "cli.import_ms": (probe["cli.import_ms"], "ms"),
        "model.validate_s": (statistics.fmean(validations), "s"),
        "model.validations_per_query": (len(validations) / traced_rep.attempted, "ratio"),
        "analyzer.slice_s": (decomp.self_total("analyzer.slice"), "s"),
        "analyzer.sliced_roles": (layer["analyzer.sliced_roles"], "roles"),
        "analyzer.slice_keep_ratio": (layer["analyzer.slice_keep_ratio"], "ratio"),
        "analyzer.reach_s": (rep_tracer.self_total("analyzer.reach"), "s"),
        "analyzer.replay_s": (
            rep_tracer.self_total("analyzer.replay") + decomp.self_total("analyzer.replay"),
            "s",
        ),
        "engine.search_s": (search_s, "s"),
        "engine.states": (states, "states"),
        "engine.states_per_s": (states / search_s, "1/s"),
        "engine.witness_len": (sum(len(s.witness or ()) for s in seen), "steps"),
        "engine.bytes_per_state": (rise_mib * 2**20 / states, "B"),
        "trace.overhead_s": (traced_rep.wall_s - plain.wall_s, "s"),
        "trace.accounted_frac": (accounted / plain.wall_s, "ratio"),
    }
    detail = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced_rep.wall_s,
              "accounted_s": accounted}
    spans = setup_tracer.dump("setup") + rep_tracer.dump("rep") + decomp.dump("decompose")
    return [plain, traced_rep], metrics, detail, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "arbac" / "__init__.py").is_file():
        print(f"perfbench: no arbac package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    start = time.perf_counter()
    import workloads  # arbac and numpy load here, inside set-up time
    import_s = time.perf_counter() - start

    setup_tracer = Tracer()
    rounds = []
    for _ in range(SETUP_ROUNDS):
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, OUT, SRC)
        start = time.perf_counter()
        wl.setup(setup_tracer)
        rounds.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(rounds)

    spans = []
    if args.trace:
        reps, metrics, detail, spans = traced(wl, setup_tracer, workloads.cli_env(SRC))
    else:
        reps, metrics, detail = untraced(wl, args.seconds)
        metrics["setup_s"] = (setup_s, "s")

    attempted = sum(r.attempted for r in reps)
    wrong = sum(r.wrong for r in reps)
    failed = sum(r.failed for r in reps)
    detail = {
        "workload": wl.name,
        "roadmap": wl.roadmap,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "setup_rounds_s": rounds,
        "import_s": import_s,
        "wrong_answers": wrong,
        "failed_frac": failed / attempted,
        **detail,
        "env": environment(),
    }
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"detail": detail, "result": result, "spans": spans}) + "\n"
    )
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0 if wrong == 0 and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

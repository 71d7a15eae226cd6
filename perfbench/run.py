#!/usr/bin/env python3
"""nquasi benchmark: time to a correct verdict, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload confluence --seed 1 --seconds 10 --trace 0

A run imports ``nquasi`` from ``src/`` and repeats passes over the
workload's seeded task list until ``--seconds`` have gone by (at least one
pass).  Each pass imports the package afresh and builds its own inputs, so
no pass inherits another's caches.  Tasks run one after another in this
process, a closed loop with one client; the ``cli`` workload runs one
subprocess at a time.  Every verdict is checked against its known answer;
a wrong one is printed and makes the command exit 1.

``--trace 0`` reports the end-to-end metrics, medians over passes.
``--trace 1`` runs one plain pass, then traced passes, and reports the
per-layer metrics (medians over traced passes) and the tracing overhead;
it writes the spans to ``.perfbench/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import types
from time import perf_counter

import tracing
import workloads
from speedclock import SpeedClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
MODULES = ("terms", "rewriting", "varieties", "algebras", "amalgams", "codescent", "cli")
SETUP_REPEATS = 5  # set-up-only samples before the first pass, besides one per pass
TAIL_BEYOND = 10  # verdict_tail_ms: the slowest task with at least this many beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_nquasi():
    """Import nquasi afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "nquasi" or m.startswith("nquasi.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{m: importlib.import_module("nquasi." + m) for m in MODULES})


class Raised:
    def __init__(self, exc):
        self.text = "%s: %s" % (type(exc).__name__, exc)


def run_pass(speed, setup, seed, workdir, answers, tracer=None):
    """Import, build the inputs, run every task once, timing each, then judge
    the verdicts while this pass's modules are still the loaded ones."""
    clock, resample = speed.now, speed.resample
    t0 = clock()
    nq = load_nquasi()
    if tracer is not None:
        tracer.install(nq)
    try:
        tasks = setup(nq, seed, workdir)
        setup_s = clock() - t0
        raws, times = [], []
        # Objects from earlier passes and the harness are frozen out of the
        # collector, so the collections a task pays for scan only what this
        # pass allocated.
        gc.collect()
        gc.freeze()
        wall, start = perf_counter(), clock()
        for task in tasks:
            t = resample()
            try:
                raws.append(task.run() if tracer is None else tracer.task(task.name, task.run))
            except Exception as exc:  # a failing task is counted; the run goes on
                raws.append(Raised(exc))
            times.append(clock() - t)
        cpu, wall = clock() - start, perf_counter() - wall
        gc.unfreeze()
        if tracer is not None:
            for task in tasks:
                if task.inproc is not None:
                    task.inproc(tracer, clock)
    finally:
        if tracer is not None:
            tracer.uninstall()
    verdicts, failed, breaks, wrong = judge(tasks, raws, answers)
    # Keep no task: its closure holds the pass's inputs and their caches.
    return types.SimpleNamespace(
        kinds=[t.kind for t in tasks], times=times, cpu=cpu, wall=wall, setup_s=setup_s,
        verdicts=verdicts, failed=failed, breaks=breaks, wrong=wrong,
    )  # fmt: skip


def judge(tasks, raws, answers):
    """Verdicts of one pass: (verdicts, failed, contract breaks, wrong)."""
    verdicts, failed, breaks, wrong = [], [], [], []
    for task, raw in zip(tasks, raws):
        if isinstance(raw, Raised):
            failed.append((task.name, raw.text))
            verdicts.append(("raised", raw.text))
            continue
        try:
            got = task.verdict(raw)
        except workloads.ContractBreak as exc:
            (breaks if task.hostile else failed).append((task.name, str(exc)))
            verdicts.append(("contract", str(exc)))
            continue
        except Exception as exc:  # output the verdict cannot read is a wrong answer
            got = "unreadable output: %s: %s" % (type(exc).__name__, exc)
        verdicts.append(got)
        if got != answers[task.name]:
            wrong.append((task.name, got, answers[task.name]))
    return verdicts, failed, breaks, wrong


def tail(times):
    """(value, percentile): the slowest time with TAIL_BEYOND tasks beyond it."""
    ranked = sorted(times)
    index = max(len(ranked) - TAIL_BEYOND - 1, 0)
    return ranked[index], 100.0 * (index + 1) / len(ranked)


def end_to_end(passes, setup_samples, workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": statistics.median(setup_samples),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "verdict_p50_ms": 1000.0 * statistics.median(statistics.median(p.times) for p in passes),
        "verdict_tail_ms": 1000.0 * statistics.median(tail(p.times)[0] for p in passes),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def cli_import_ms(clock):
    samples = []
    for _ in range(3):
        t0 = clock()
        subprocess.run(
            [sys.executable, "-c", "import nquasi.cli"], cwd=ROOT, env=workloads.cli_env(ROOT), check=True, timeout=60
        )
        samples.append(1000.0 * (clock() - t0))
    return statistics.median(samples)


def per_layer(clock, traced, baseline, workload):
    """Medians over traced passes of every declared per-layer metric, and
    any count that did not repeat exactly."""
    problems = []
    overhead = statistics.median(p.cpu for p, _ in traced) - baseline.cpu
    import_ms = cli_import_ms(clock) if workload == "cli" else 0.0
    rows = []
    for run, tracer in traced:
        cli = tracer.stats["cli"]
        if workload == "cli":
            cli["import_ms"] = import_ms
            cli["subprocess_ms"] = 1000.0 * sum(run.times)
            inproc = sum(v["ms"] for k, v in tracer.stats.items() if k.startswith("cli.main."))
            cli["startup_ms"] = cli["subprocess_ms"] - inproc
            cli["contract_breaks"] = len(run.breaks)
        tracer.stats["trace"]["overhead_s"] = overhead
        rows.append(tracing.layer_values(tracer))
    out = {}
    for name, unit, _better, _get in tracing.PER_LAYER:
        values = [row[name] for row in rows]
        if unit == "count" and len(set(values)) > 1:
            problems.append("count %s differs between traced passes: %s" % (name, values))
        out[name] = (statistics.median(values), unit)
    for name, count in workloads.KNOWN_COUNTS.get(workload, {}).items():
        if out[name][0] != count:
            problems.append("count %s is %s, expected %d" % (name, out[name][0], count))
    return out, problems


def git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def source_digest():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "nquasi")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def known_answers(setup, seed, workdir):
    """Each task's answer, from constants and oracles run on inputs of their
    own, outside any timed region."""
    return {t.name: (t.oracle() if t.oracle is not None else t.expected) for t in setup(load_nquasi(), seed, workdir)}


def measure(args, workdir):
    setup = workloads.SETUPS[args.workload]
    answers = known_answers(setup, args.seed, workdir)

    with SpeedClock() as speed:
        clock = speed.now
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            setup(load_nquasi(), args.seed, workdir)
            setup_samples.append(clock() - t0)

        begin = perf_counter()
        passes, traced = [], []
        if args.trace:
            passes.append(run_pass(speed, setup, args.seed, workdir, answers))
            while not traced or perf_counter() - begin < args.seconds:
                tracer = tracing.Tracer()
                traced.append((run_pass(speed, setup, args.seed, workdir, answers, tracer), tracer))
        else:
            while not passes or perf_counter() - begin < args.seconds:
                passes.append(run_pass(speed, setup, args.seed, workdir, answers))
        layers = per_layer(clock, traced, passes[0], args.workload) if args.trace else None
    setup_samples.extend(p.setup_s for p in passes)
    e2e = end_to_end(passes, setup_samples, args.workload)

    runs = passes + [p for p, _ in traced]
    problems, failed, breaks = [], [], []
    for run in runs:
        failed += run.failed
        breaks += run.breaks
        problems += ["wrong verdict for %s: got %r, expected %r" % w for w in run.wrong]
        if run.verdicts != runs[0].verdicts:
            problems.append("verdicts differ between passes (traced or not)")
    metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in e2e.items()}
    if args.trace:
        metrics, count_problems = layers
        problems += count_problems
        os.makedirs(OUT_DIR, exist_ok=True)
        traced[-1][1].write_spans(os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (args.workload, args.seed)))

    attempted = sum(len(r.kinds) for r in runs)
    tasks_per_pass = len(runs[0].kinds)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "tasks_per_pass": tasks_per_pass,
        "task_mix": dict(sorted(collections.Counter(runs[0].kinds).items())),
        "passes": len(passes),
        "traced_passes": len(traced),
        "verdict_tail_percentile": tail(runs[0].times)[1],
        "verdict_tail_tasks": tasks_per_pass,
        "failed_frac": len(failed) / attempted,
        "contract_breaks_per_pass": len(breaks) / len(runs),
        "wall_s_per_pass": [p.wall for p in runs],
    }
    return metrics, attempted, failed, breaks, problems, info, e2e


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.SETUPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nquasi", "__init__.py")):
        print("perfbench: no nquasi package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # One CPU for this process and its children, so that the speed kernel
    # runs on the core that does the work.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        metrics, attempted, failed, breaks, problems, info, e2e = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, why in failed:
        print("FAILED %s: %s" % (name, why))
    for name, why in breaks:
        print("CONTRACT BREAK (known, ROADMAP item 4) %s: %s" % (name, why))
    for problem in problems:
        print("WRONG " + problem)
    print(
        "%s seed %d: setup_s %.4f s | cpu_s %.4f s | verdict_p50_ms %.3f ms | verdict_tail_ms %.3f ms "
        "(p%.1f of %d tasks) | failed_frac %.4f | peak_rss_mb %.1f MB | %d pass(es)%s"
        % (
            args.workload,
            args.seed,
            e2e["setup_s"],
            e2e["cpu_s"],
            e2e["verdict_p50_ms"],
            e2e["verdict_tail_ms"],
            info["verdict_tail_percentile"],
            info["tasks_per_pass"],
            info["failed_frac"],
            e2e["peak_rss_mb"],
            info["passes"],
            ", untraced" if args.trace else "",
        )
    )
    if args.trace:
        print("tracing overhead: %.4f CPU s over a %.4f CPU s untraced pass" % (metrics["trace.overhead_s"][0], e2e["cpu_s"]))
    print("provenance " + json.dumps(info, sort_keys=True))
    correct = not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

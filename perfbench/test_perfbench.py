"""Tests of the benchmark itself: declared names, seed-invariant task mix,
exact traced counts, restored bindings, and refusal without sources.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import collections
import json
import os
import re
import shutil
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from speedclock import SpeedClock  # noqa: E402

DEV_SEED, HELD_OUT_SEED = 1, 9001
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_every_emitted_name_is_declared(declared):
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
    assert per_layer == {name: (unit, better) for name, unit, better, _ in tracing.PER_LAYER}
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    names = list(per_layer) + list(end_to_end) + [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert {w["name"] for w in declared["workloads"]} == set(workloads.SETUPS)
    assert max(m["bound"] for m in declared["end_to_end"]) == next(
        m["bound"] for m in declared["end_to_end"] if m["name"] == "setup_s"
    )


def test_layer_map_covers_every_metric(declared):
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as handle:
        layers = json.load(handle)["layers"]
    prefixes = [p for layer in layers for p in layer["metrics"]]
    for metric in declared["per_layer"]:
        assert sum(metric["name"].startswith(p) for p in prefixes) == 1, metric["name"]
    for layer in layers:
        for metric, workload in layer["should_move"]:
            assert metric in run.END_TO_END_UNITS and workload in workloads.SETUPS
        assert set(layer["should_not_move"]) <= set(workloads.SETUPS)


@pytest.mark.parametrize("workload", sorted(workloads.SETUPS))
def test_held_out_seed_gives_the_same_tasks(workload, tmp_path):
    setup = workloads.SETUPS[workload]
    dev = setup(run.load_nquasi(), DEV_SEED, str(tmp_path))
    held_out = setup(run.load_nquasi(), HELD_OUT_SEED, str(tmp_path))
    assert [t.name for t in dev] == [t.name for t in held_out]
    assert collections.Counter(t.kind for t in dev) == collections.Counter(t.kind for t in held_out)
    assert len({t.name for t in dev}) == len(dev) >= 2 * run.TAIL_BEYOND


def _traced_counts(nq, tasks):
    tracer = tracing.Tracer()
    tracer.install(nq)
    try:
        results = [tracer.task(t.name, t.run) for t in tasks]
    finally:
        tracer.uninstall()
    counts = {n: v for n, v in tracing.layer_values(tracer).items() if n.endswith((".calls", ".items", ".peaks"))}
    return results, counts, tracer


def test_traced_counts_repeat_and_names_are_restored(tmp_path):
    nq = run.load_nquasi()
    originals = {
        (module, name): getattr(getattr(nq, module), name)
        for layer, name, callers in tracing.WRAPS
        for module in (callers if layer == "terms" else (layer,) + callers)
    }
    methods = {attr: nq.algebras.FiniteAlgebra.__dict__[attr] for attr in tracing.METHODS.values()}
    tasks = [
        t for t in workloads.setup_confluence(nq, DEV_SEED, str(tmp_path)) if "(2)" in t.name or "(3)" in t.name
    ]
    first, counts1, tracer = _traced_counts(nq, tasks)
    second, counts2, _ = _traced_counts(nq, tasks)
    assert counts1 == counts2
    assert counts1["rewriting.check_conditions.calls"] > 0 and counts1["terms.match.calls"] > 0
    assert [t.verdict(r) for t, r in zip(tasks, first)] == [t.verdict(r) for t, r in zip(tasks, second)]
    assert [t.verdict(r) for t, r in zip(tasks, first)] == [t.verdict(t.run()) for t in tasks]
    for (module, name), fn in originals.items():
        assert getattr(getattr(nq, module), name) is fn, (module, name)
    for attr, fn in methods.items():
        assert nq.algebras.FiniteAlgebra.__dict__[attr] is fn
    spans = {span[0]: span for span in tracer.spans}
    assert all(s[1] is None or s[1] in spans for s in tracer.spans)
    assert all(s[4] is not None and s[4] >= s[3] for s in tracer.spans)


def test_latin_square_count_through_the_generator_wrapper():
    nq = run.load_nquasi()
    tracer = tracing.Tracer()
    tracer.install(nq)
    try:
        found, info = nq.codescent.search_noncep_monomorphism(4)
    finally:
        tracer.uninstall()
    values = tracing.layer_values(tracer)
    assert found is None
    assert values["codescent.latin_squares.items"] == 2 + 12 + 576 == info["squares"]
    assert values["codescent.embeddings"] == info["embeddings"]
    search = tracer.stats["codescent.search_noncep_monomorphism"]
    assert 0 < search["self_s"] < search["s"]


def test_tail_has_ten_tasks_beyond_it():
    times = [float(i) for i in range(54)]
    value, percentile = run.tail(times)
    assert sum(t > value for t in times) == run.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * 44 / 54)


def test_bell_numbers():
    assert [tracing.bell(m) for m in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_speed_clock_advances_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedClock() as speed:
        t0 = speed.now()
        sum(i * i for i in range(300000))
        t1 = speed.resample()
    assert t1 > t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""

"""Tests of the benchmark itself:  python3 -m pytest certbench

They cover the tracer's arithmetic and patching, a tiny-size run of every
workload, and how the seed drives the inputs.
"""

from __future__ import annotations

import inspect
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from latticeramsey import embedder, lattice, oracle  # noqa: E402


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ("root", -1, 0, 0.0, 10.0),
        ("a", 0, 0, 1.0, 4.0),
        ("a.child", 1, 0, 2.0, 3.0),
        ("b", 0, 0, 4.5, 6.0),
        ("root", -1, 1, 20.0, 21.0),
    ]
    assert tracer.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])
    agg = tracer.aggregate(spans)
    assert agg["root"] == pytest.approx({"calls": 2, "busy_s": 11.0, "self_s": 6.5})
    assert tracer.root_busy(spans) == pytest.approx(11.0)


def test_reference_seconds_scale_with_the_loop_speed():
    nominal = refclock.NOMINAL_S_PER_ITER
    # The loop ran at half its nominal speed around the interval: halve it.
    assert refclock.scale((1000, 2000 * nominal), (3000, 6000 * nominal)) == pytest.approx(0.5)
    assert refclock.slice_iters(0.0) == round(refclock.MIN_SLICE_S / nominal)
    assert refclock.slice_iters(1e6) == round(refclock.MAX_SLICE_S / nominal)
    result, seconds = refclock.timed(lambda: 42, 0.1)
    assert result == 42 and seconds > 0
    assert run.probe_setup() > 0


def _attribute_snapshot():
    _, mods = tracer._package_modules()
    owners = [sys.modules["latticeramsey"], *mods.values()]
    owners += [obj for m in mods.values() for obj in vars(m).values() if inspect.isclass(obj)]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_tracing_restores_every_patched_attribute():
    before = _attribute_snapshot()
    t = tracer.Tracer()
    with t:
        patched = t.patched_attributes()
        assert (oracle, "find_copy") in patched
        assert (embedder, "iter_submasks") in patched  # re-bound by `from .lattice import`
        assert (lattice.Coloring, "color_of") in patched
        assert oracle.find_copy is not before[(id(oracle), "find_copy")]
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_spans_and_counters_are_attributed_to_the_open_span():
    coloring = lattice.Coloring.dense(5, [0b00111, 0b10000])
    perm = lattice.Permutation.identity(3, 2)
    with tracer.Tracer() as t:
        rec = embedder.embed_with_permutation(coloring, 3, 2, perm)
        assert list(lattice.iter_submasks(0b1011)) == sorted([0, 1, 2, 3, 8, 9, 10, 11])
    names = [span[0] for span in t.spans]
    assert "embedder.embed_with_permutation" in names
    assert t.counts[("bench", "lattice.iter_submasks.yields")] == 8
    assert t.counts[("embedder.embed_with_permutation", "lattice.iter_submasks.yields")] > 0
    assert t.counts[("observed", "embedder.embed.subsets")] == 8
    assert t.counts[("observed", "embedder.embed.successes")] == rec.succeeded


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_each_workload_is_error_free(name):
    workdir = HERE / ".work" / f"test-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        jobs = workloads.WORKLOADS[name](3, workdir, tiny=True)
        outputs, digests, errors, walls = run.warm_up(jobs)
        assert errors == []
        for timing in (None, walls):  # wall seconds, then reference seconds
            seconds, latencies, failed = run.run_round(jobs, digests, walls=timing)
            assert failed == [] and set(latencies) == {job.label for job in jobs}
            assert seconds > 0 and all(t > 0 for t in latencies.values())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _inputs(name, seed):
    workdir = HERE / ".work" / f"test-seed-{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        jobs = workloads.WORKLOADS[name](seed, workdir, tiny=True)
        files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
        return [job.label for job in jobs], [job.argv for job in jobs], files
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_seeds_change_embed_and_certify_inputs_but_not_the_scan_set():
    for name in ("embed", "certify"):
        labels1, argv1, files1 = _inputs(name, 1)
        labels2, argv2, files2 = _inputs(name, 2)
        assert labels1 == labels2  # same job list shape ...
        assert (argv1, files1) != (argv2, files2)  # ... different inputs
    assert _inputs("embed", 1) == _inputs("embed", 1)
    scans = {
        seed: [job.label for job in workloads.ramsey_jobs(seed, HERE) if job.label.startswith("scan:")]
        for seed in (1, 2)
    }
    assert scans[1] == scans[2] and len(scans[1]) == len(workloads.scan_set())


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "certbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "certbench/run.py", "--workload", "embed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

"""Certificate-job benchmark for latticeramsey.

    python3 certbench/run.py --workload embed --seed 1 --seconds 30 --trace 0
    python3 certbench/run.py --seconds 30        # every workload, both modes

One client runs certificate jobs in a closed loop: a job starts only when the
previous job's certificate is done.  The workload's job list (one "round") is
built from the seed, run once untimed to check every output and record its
digest, then repeated for the timed run; every timed output must match its
digest byte for byte.  Whole rounds are timed (at least MIN_ROUNDS), so each
run weighs every job equally whatever the window length.

End-to-end times are in reference seconds (refclock.py), so the shared
host's drifting speed cancels out: each job is bracketed by slices of a fixed
pure-Python loop and scaled by how fast that loop ran around it, and each
set-up probe is scaled by a fresh interpreter importing a fixed set of
standard-library modules just before it.  Per-layer times are wall seconds of
the traced rounds.

--trace 0 prints the end-to-end metrics, measured with tracing off:
  setup_s       median time of a fresh interpreter importing
                latticeramsey.cli, probed once after every timed round
  jobs_per_s    correct jobs completed per second of job time
  job_p50_s     median latency of all job runs
  job_tail_s    the highest of p50/p75/p90/p95/p99 of all job runs that
                leaves at least 10 runs above it in MIN_ROUNDS rounds (named
                in the report, with the runs and jobs above it)
  peak_rss_mib  peak resident memory of this process or its pool workers
--trace 1 runs REFERENCE_ROUNDS untraced rounds, which give the trace
overhead and the pool speedup, then traced rounds, and prints per-layer
metrics per round; the spans go to .out/ beside this file.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it is a report with
the run metadata, outputs_sha256 and error_rate.  Each workload runs in its
own interpreter.  Page caches are left warm: dropping them would change
machine settings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REQUIRED = (SRC / "latticeramsey" / "cli.py", ROOT / "tests" / "naive.py")

WORKLOAD_NAMES = ("embed", "ramsey", "certify")
MIN_ROUNDS = 5
MIN_TRACED_ROUNDS = 2
REFERENCE_ROUNDS = 3  # untraced, before the traced rounds of --trace 1
DEADLINE_S = 140.0  # no round starts after this many seconds in the process
PERCENTILES = (50, 75, 90, 95, 99)
TAIL_ABOVE = 10

def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_percentile(jobs_per_round: int) -> int:
    """Highest listed percentile with TAIL_ABOVE job runs above it in MIN_ROUNDS rounds.

    Fixed by the job list, not by how many rounds fit the window, so parent
    and change report the same percentile.
    """
    total = jobs_per_round * MIN_ROUNDS
    return max(q for q in PERCENTILES if total * (100 - q) / 100 >= TAIL_ABOVE)


def probe_setup() -> float:
    """Reference seconds for a fresh interpreter to import latticeramsey.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import latticeramsey.cli"
    return refclock.child_seconds(code, ROOT)


def peak_rss_mib(children_kib: int) -> float:
    """Peak resident set of this process or of its pool workers (KiB on Linux)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, children_kib) / 1024


def digest(code, text: str) -> str:
    from workloads import normalize

    return hashlib.sha256(f"{code}\n{normalize(text)}".encode()).hexdigest()


def metadata(seed: int) -> dict:
    import mpmath
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    lines = {
        p.stem: len(p.read_text().splitlines())
        for p in sorted((SRC / "latticeramsey").glob("*.py"))
    }
    return {
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "git_commit": commit,
        "page_cache": "warm; not dropped, since that would change machine settings",
    }


def run_job(job):
    try:
        return job.run()
    except Exception as exc:  # a job that raises is a failed job, not a crash
        return "raised", f"{type(exc).__name__}: {exc}"


def warm_up(jobs) -> tuple[dict, dict, list, dict]:
    """Run and check every job once; return outputs, digests, errors and wall times."""
    outputs, walls = {}, {}
    for job in jobs:
        t0 = time.perf_counter()
        outputs[job.label] = run_job(job)
        walls[job.label] = time.perf_counter() - t0
    errors = []
    for job in jobs:
        code, text = outputs[job.label]
        if code == "raised":
            errors.append((job.label, text))
            continue
        try:
            err = job.check(code, text, outputs)
        except Exception as exc:
            err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            errors.append((job.label, err))
    digests = {label: digest(*out) for label, out in outputs.items()}
    return outputs, digests, errors, walls


def run_round(jobs, digests, tracer=None, walls=None):
    """One timed pass over the job list: (seconds, latencies by label, failed labels).

    Given `walls` (label -> a wall time of the job, which sizes its slices),
    latencies are reference seconds and the round's seconds their sum;
    otherwise both are wall seconds.
    """
    clock = time.perf_counter
    latencies, failed = {}, []
    start = clock()
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = idx
        if walls is None:
            t0 = clock()
            code, text = run_job(job)
            latencies[job.label] = clock() - t0
        else:
            (code, text), latencies[job.label] = refclock.timed(
                lambda: run_job(job), walls[job.label]
            )
        if code == "raised" or digest(code, text) != digests[job.label]:
            failed.append(job.label)
    seconds = clock() - start if walls is None else sum(latencies.values())
    return seconds, latencies, failed


def run_rounds(
    jobs, digests, seconds, min_rounds, process_start, tracer=None, walls=None, between=None
):
    """Whole rounds until the window is over; `between` runs untimed after each."""
    rounds = []
    window_start = time.perf_counter()
    while True:
        rounds.append(run_round(jobs, digests, tracer, walls))
        if between is not None:
            between()
        now = time.perf_counter()
        if now - process_start > DEADLINE_S:
            break
        if len(rounds) >= min_rounds and now - window_start >= seconds:
            break
    return rounds


def end_to_end(jobs, rounds, setup_times, children_kib) -> tuple[dict, dict]:
    """End-to-end metrics of the timed rounds; percentiles are over every job run."""
    failed = sum(len(bad) for _, _, bad in rounds)
    job_time = sum(s for s, _, _ in rounds)
    runs = [(label, t) for _, lat, _ in rounds for label, t in lat.items()]
    latencies = [t for _, t in runs]
    q = tail_percentile(len(jobs))
    tail = percentile(latencies, q)
    values = {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": (len(runs) - failed) / job_time,
        "job_p50_s": percentile(latencies, 50),
        "job_tail_s": tail,
        "peak_rss_mib": peak_rss_mib(children_kib),
    }
    info = {
        "job_tail": {
            "percentile": f"p{q}",
            "job_runs": len(runs),
            "job_runs_above": sum(t > tail for t in latencies),
            "jobs_above": sorted({label for label, t in runs if t > tail}),
        },
        "setup_probes_s": [round(t, 4) for t in setup_times],
        "job_time_ref_s": job_time,
    }
    return values, info


def per_layer(jobs, rounds, reference, tracer, outputs) -> tuple[dict, dict]:
    """Per-layer metrics per traced round.

    The pool speedup and the trace overhead come from the untraced
    `reference` rounds: forked pool workers inherit the tracer's wrappers,
    which would inflate their work against the pool's fixed costs.
    """
    from tracer import LAYERS, aggregate, root_busy

    n_rounds = len(rounds)
    agg = aggregate(tracer.spans)
    counts = tracer.counts
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def field(key, *names):
        return sum(agg.get(name, zero)[key] for name in names) / n_rounds

    def count(key):
        return sum(v for (owner, k), v in counts.items() if k == key) / n_rounds

    def ratio(num, den):
        return num / den if den else 0.0

    def median_latency(label):
        return statistics.median(by_label[label] for _, by_label, _ in reference)

    labels = {job.label for job in jobs}
    pool = ("cli:ramsey:serial", "cli:ramsey:2-workers")
    speedup = (
        median_latency(pool[0]) / median_latency(pool[1]) if set(pool) <= labels else 0.0
    )
    tampered = sum(job.tampered for job in jobs)
    embed_calls = field("calls", "embedder.embed_with_permutation")
    wall = sum(w for w, _, _ in rounds) / n_rounds
    cli_bytes = sum(len(outputs[job.label][1]) for job in jobs if job.argv)
    record_bytes = sum(_record_bytes(outputs[job.label][1]) for job in jobs if job.argv)

    m = {
        "lattice.color_of.calls": count("lattice.color_of.calls"),
        "lattice.iter_submasks.yields": count("lattice.iter_submasks.yields"),
        "lattice.chain.created": count("lattice.chain.created"),
        "lattice.dense_from_int.calls": count("lattice.dense_from_int.calls"),
        "lattice.family_enum.busy_s": field(
            "busy_s", "lattice.Coloring.blue_family", "lattice.Coloring.red_family"
        ),
        "lattice.elements_of.calls": count("lattice.elements_of.calls"),
        "lattice.layer.yields": count("lattice.layer.yields"),
        "oracle.scan.self_s": field(
            "self_s", "oracle.exhaustive_ramsey_number", "oracle._scan_ground"
        ),
        "oracle.scan.colorings": count("oracle.scan.colorings"),
        "oracle.find_copy.calls": field("calls", "oracle.find_copy"),
        "oracle.find_copy.busy_s": field("busy_s", "oracle.find_copy"),
        "oracle.find_copy.pairs": count("oracle.find_copy.pairs"),
        "oracle.find_copy.hit_ratio": ratio(
            count("oracle.find_copy.hits"), field("calls", "oracle.find_copy")
        ),
        "oracle.coloring_is_ramsey.self_s": field("self_s", "oracle.coloring_is_ramsey"),
        # Counted where the search gives up, not again in every span it unwinds.
        "oracle.exhausted": counts[("oracle.find_copy", "raised:SearchExhausted")] / n_rounds,
        "oracle.pool.speedup": speedup,
        "embedder.embed.calls": embed_calls,
        "embedder.embed.self_s": field("self_s", "embedder.embed_with_permutation"),
        "embedder.embed.subsets": count("embedder.embed.subsets"),
        "embedder.embed.success_ratio": ratio(count("embedder.embed.successes"), embed_calls),
        "embedder.sweep.perms": count("embedder.sweep.perms"),
        "embedder.sweep.self_s": field("self_s", "embedder.sweep_permutations"),
        "embedder.record.bytes": float(record_bytes),
        "constructions.lll_family.calls": field("calls", "constructions.lll_family"),
        "constructions.lll_family.self_s": field("self_s", "constructions.lll_family"),
        "constructions.lll_family.members": count("constructions.lll_family.members"),
        "constructions.greedy_pair_code.self_s": field("self_s", "constructions.greedy_pair_code"),
        "constructions.probabilistic_coloring.self_s": field(
            "self_s", "constructions.probabilistic_coloring"
        ),
        "constructions.code_witness.self_s": field("self_s", "constructions.code_witness"),
        "verifier.verify_embedding.calls": field("calls", "verifier.verify_embedding"),
        "verifier.verify_embedding.self_s": field("self_s", "verifier.verify_embedding"),
        "verifier.verify_embedding.pairs": count("verifier.verify_embedding.pairs"),
        "verifier.verify_embedding.reject_ratio": ratio(
            count("verifier.verify_embedding.rejects"), tampered
        ),
        "verifier.check_code_statement.self_s": field("self_s", "verifier.check_code_statement"),
        "verifier.dp_tables": field("calls", "verifier.build_dp_table"),
        "verifier.check_conditions.self_s": field("self_s", "verifier.check_conditions"),
        "verifier.certify_blue_free.self_s": field("self_s", "verifier.certify_blue_free"),
        "verifier.certify_red_singleton_bound.self_s": field(
            "self_s", "verifier.certify_red_singleton_bound"
        ),
        "verifier.check_min_distance.self_s": field("self_s", "verifier.check_min_distance"),
        "cli.main.calls": field("calls", "cli.main"),
        "cli.main.self_s": field("self_s", "cli.main"),
        "cli.cert.bytes": float(cli_bytes),
    }
    layer_self = {
        layer: sum(row["self_s"] for name, row in agg.items() if name.startswith(layer + "."))
        / n_rounds
        for layer in LAYERS
    }
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = value
    m["bench.self_s"] = wall - root_busy(tracer.spans) / n_rounds
    m["bench.wall_s"] = wall
    m["bench.trace_overhead_s"] = wall - statistics.median(w for w, _, _ in reference)
    busy = sum(layer_self.values())
    info = {
        "traced_rounds": n_rounds,
        "busy_share": {layer: ratio(v, busy) for layer, v in layer_self.items()},
        "accounted_s": busy + m["bench.self_s"],
        "wall_s": wall,
    }
    return m, info


def _record_bytes(text: str) -> int:
    """Compact JSON bytes of the embedding records in an embed certificate."""
    try:
        res = json.loads(text)["result"]
    except (ValueError, KeyError):
        return 0
    records = [res] if "images" in res else [res["success"]] if res.get("success") else []
    return sum(len(json.dumps(r, sort_keys=True, separators=(",", ":"))) for r in records)


def metric_units() -> dict[str, str]:
    """Name -> unit of every metric listed in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def write_spans(workload: str, tracer) -> Path:
    out_dir = HERE / ".out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}.jsonl"
    with path.open("w") as fh:
        counters = [[owner, key, v] for (owner, key), v in sorted(tracer.counts.items())]
        fh.write(json.dumps({"counters": counters}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    process_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer

    setup_times: list[float] = []
    reference: list = []  # untraced rounds run before tracing
    workdir = HERE / ".work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        jobs = workloads.WORKLOADS[name](seed, workdir)
        outputs, digests, errors, walls = warm_up(jobs)
        # The only children so far are pool workers; the set-up probes come later.
        children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        report = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "jobs_per_round": len(jobs),
            "outputs_sha256": hashlib.sha256(
                "".join(digests[job.label] for job in jobs).encode()
            ).hexdigest(),
        }
        if trace:
            reference = [run_round(jobs, digests) for _ in range(REFERENCE_ROUNDS)]
            tracer = Tracer()
            with tracer:
                rounds = run_rounds(
                    jobs, digests, seconds, MIN_TRACED_ROUNDS, process_start, tracer
                )
            values, info = per_layer(jobs, rounds, reference, tracer, outputs)
            info["spans_file"] = str(write_spans(name, tracer).relative_to(ROOT))
        else:
            # Set-up probes run between rounds, so they sample the whole window.
            rounds = run_rounds(
                jobs, digests, seconds, MIN_ROUNDS, process_start, walls=walls,
                between=lambda: setup_times.append(probe_setup()),
            )
            values, info = end_to_end(jobs, rounds, setup_times, children_kib)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = rounds + reference
    round_failed = [label for _, _, bad in checked for label in bad]
    attempted = len(jobs) * (1 + len(checked))
    failed = len(errors) + len(round_failed)
    report.update(info)
    report["rounds"] = len(rounds)
    report["round_seconds"] = [round(s, 4) for s, _, _ in rounds]
    report["process_wall_s"] = round(time.perf_counter() - process_start, 2)
    report["error_rate"] = failed / attempted
    report["errors"] = [f"{label}: {err}" for label, err in errors[:10]] + [
        f"{label}: output differs from the checked round" for label in round_failed[:10]
    ]
    report["metadata"] = metadata(seed)
    print(json.dumps({"report": report}, sort_keys=True))
    units = metric_units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own interpreter, untraced then traced; print a table."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            report = json.loads(lines[-2])["report"]
            result = json.loads(lines[-1])
            print(f"\n== {name}  trace={trace}  correct={result['correct']}  "
                  f"failed={result['failed']}/{result['attempted']}  "
                  f"error_rate={report['error_rate']}  rounds={report['rounds']}")
            print(f"   outputs_sha256={report['outputs_sha256']}")
            if trace:
                shares = ", ".join(f"{k} {v:.1%}" for k, v in report["busy_share"].items())
                print(f"   busy share: {shares}")
                print(f"   accounted {report['accounted_s']:.4f} s of {report['wall_s']:.4f} s per round")
            else:
                tail = report["job_tail"]
                print(f"   job_tail_s is {tail['percentile']} of {tail['job_runs']} job runs: "
                      f"{tail['job_runs_above']} runs of {len(tail['jobs_above'])} jobs above it")
            for key, metric in result["metrics"].items():
                print(f"   {key:45s} {metric['value']:>16.6g} {metric['unit']}")
            for err in report["errors"]:
                print(f"   ERROR {err}")
            status |= not result["correct"]
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="run one workload; without it, run all of them")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"error: package sources not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())

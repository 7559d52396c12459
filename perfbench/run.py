"""Benchmark for fed: one seeded workload, one closed-loop client.

    python3 perfbench/run.py --workload certify-batch --seed 1 --seconds 30 --trace 0

Run from the repository root; it needs `src/fed` and `fixtures/` there and
exits non-zero without a result otherwise. Steps, in order: generate the
workload's input files from the seed (`gen.py`), time how long a fresh
interpreter takes to import fed (several times), run the jobs back to back
in one worker process (`worker.py`) for `--seconds`, check every output
(`check.py`), and print two JSON lines. The first ("report") carries every
end-to-end metric per job kind, the input properties, the run context and
the spread of each gated metric and time within the run. The last is the
result:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
under --trace 0 and the per-layer metrics of traced passes under --trace 1.

BLAS is pinned to one thread, the single-threaded baseline; the setting is
recorded in the report. The gated work metrics count the instructions the
worker retires (`counters.py`), so the run needs a hardware counter that
perf_event_open(2) grants the user; without one it exits non-zero.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import check_job  # noqa: E402
from gen import WORKLOADS, generate  # noqa: E402
from tracer import LAYERS  # noqa: E402

BLAS_THREADS = 1
BLAS_ENV = {
    var: str(BLAS_THREADS) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
SETUP_PROBES = 15
BOOTSTRAP = 200
WORK_DIR = ".perfbench_work"
# CPU time of the import: the probe is single-threaded and reads only cached
# files, so this is its wall time without the stalls other processes cause.
IMPORT_PROBE = (
    "import time; t = time.process_time(); import fed, fed.cli; "
    "print(time.process_time() - t)"
)
COUNTERS = (
    "lp.solves", "lp.tableau_cells", "matching.mwfm_calls", "ratio.solves",
    "ratio.floor_evals", "magic.edges_evaluated", "graph.edges_parsed", "oracle.matvecs",
    "oracle.computed_bytes", "oracle.spectrum_calls", "oracle.build_state_calls",
)
TIMERS = ("oracle.dense", "oracle.iterative", "oracle.statevector", "oracle.variational")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env.update(BLAS_ENV)
    return env


def measure_setup(env: dict) -> list:
    """Import time of fed and fed.cli in fresh interpreters; the first,
    which may compile bytecode, is not kept."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip()))
    return times[1:]


def run_worker(workdir: Path, seconds: int, trace: int, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(workdir), str(seconds), str(trace)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=2 * seconds + 60)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads((workdir / "result.json").read_text())


def tail(values: list) -> tuple:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; (None, None) with fewer than eleven samples."""
    if len(values) < 11:
        return None, None
    return 100 * (len(values) - 10) / len(values), sorted(values)[-11]


def spread(values: list) -> float | None:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def bootstrap_spread(rows: list, stat) -> float | None:
    """Spread of `stat(rows)` over resamples of the rows (passes or probes)
    drawn with replacement from a fixed generator."""
    if len(rows) < 2:
        return None
    rng = random.Random(0)
    return spread([stat(rng.choices(rows, k=len(rows))) for _ in range(BOOTSTRAP)])


def run_context(root: Path, worker: dict) -> dict:
    ctx = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "versions": worker["versions"],
        "git_rev": None,
        "src_sha256": hashlib.sha256(
            b"".join(p.read_bytes() for p in sorted((root / "src" / "fed").glob("*.py")))
        ).hexdigest()[:16],
    }
    if (root / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30, check=True)
            ctx["git_rev"] = rev.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return ctx


def evaluate(workload: str, seed: int, jobs: list, worker: dict) -> tuple:
    """Check outputs; return (per-job failed flags, problems, recorded?)."""
    expected_file = HERE / "expected" / f"{workload}.jsonl"
    rows = []
    if expected_file.exists():
        rows = [json.loads(line) for line in expected_file.read_text().splitlines()]
    recorded = {r["job"]: r["values"] for r in rows if r["seed"] in ("fixed", seed)}
    seed_recorded = any(r["seed"] == seed for r in rows)
    job_failed, problems = [], []
    for job, warm in zip(jobs, worker["warmup"]):
        failed, found = check_job(job, warm["status"], warm["output"], recorded.get(job["id"]))
        job_failed.append(failed)
        problems += found
    return job_failed, problems, seed_recorded


def _ms(ns: int) -> float:
    return ns / 1e6


def _job_medians(latencies: list) -> list:
    """Median latency (ms) of each job over the passes in `latencies`."""
    return [statistics.median(col) for col in zip(*latencies)]


def end_to_end(jobs: list, passes: list, setup: list, worker: dict) -> tuple[dict, dict, dict]:
    """(gated metrics, every end-to-end metric by kind, spread of each
    statistic over the run's passes)."""
    latencies = [[_ms(s[0]) for s in p["samples"]] for p in passes]
    instructions = [[s[3] for s in p["samples"]] for p in passes]

    # A pass with each job at its median latency: a burst of noise that
    # hits one job in one pass does not move it, unlike a median of walls.
    def pass_s(rows):
        return sum(_job_medians(rows)) / 1e3

    def job_gmean_ms(rows):
        return statistics.geometric_mean(_job_medians(rows))

    def pass_ginstr(rows):
        return sum(_job_medians(rows)) / 1e9

    def job_gmean_minstr(rows):
        return statistics.geometric_mean(_job_medians(rows)) / 1e6

    # The gate reads instructions retired, not time: on a shared host the
    # time of a whole run moves with other tenants' load by more than any
    # bound a regression gate could use, and no median over the run removes
    # that. Times are reported beside it.
    gated = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "pass_ginstr": {"value": pass_ginstr(instructions), "unit": "Ginstr"},
        "job_gmean_minstr": {"value": job_gmean_minstr(instructions), "unit": "Minstr"},
        "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
    }
    named = dict(gated)
    named["wall_s"] = {"value": pass_s(latencies), "unit": "s"}
    named["job_gmean_ms"] = {"value": job_gmean_ms(latencies), "unit": "ms"}
    by_kind: dict = {}
    for row in latencies:
        for job, ms in zip(jobs, row):
            by_kind.setdefault(job["kind"], []).append(ms)
    for kind, values in by_kind.items():
        pct, value = tail(values)
        named[f"{kind}_p50_ms"] = {"value": statistics.median(values), "unit": "ms"}
        named[f"{kind}_tail_ms"] = {"value": value, "unit": "ms"}
        named[f"{kind}_tail_pct"] = {"value": pct, "unit": "%"}
        named[f"{kind}_samples"] = {"value": len(values), "unit": "count"}
    energy = [(j, ms) for row in latencies for j, ms in zip(jobs, row) if j["kind"] == "energy"]
    if energy:
        work = sum(j["props"]["edges"] * len(j["kappas"]) for j, _ in energy)
        rate = work / (sum(ms for _, ms in energy) / 1e3)
        named["energy_edges_per_s"] = {"value": rate, "unit": "1/s"}
    # Bootstrap spreads of the reported statistics themselves; peak RSS is
    # one reading per run.
    spreads = {
        "setup_s": bootstrap_spread(setup, statistics.median),
        "pass_ginstr": bootstrap_spread(instructions, pass_ginstr),
        "job_gmean_minstr": bootstrap_spread(instructions, job_gmean_minstr),
        "peak_rss_mb": None,
        "wall_s": bootstrap_spread(latencies, pass_s),
        "job_gmean_ms": bootstrap_spread(latencies, job_gmean_ms),
    }
    return gated, named, spreads


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".share", "_per_certify")):
        return "ratio"
    return "B" if name.endswith("_bytes") else "count"


def per_layer(passes: list) -> dict:
    """Per-layer metrics: medians over the traced passes."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    rows: dict = {}
    for p in traced:
        job_ns = sum(s[0] for s in p["samples"])
        c = p["counters"]
        row = {}
        for layer in LAYERS:
            t = p["layers"][layer]
            row[f"{layer}.self_ms"] = _ms(t["self_ns"])
            row[f"{layer}.share"] = t["self_ns"] / job_ns
            row[f"{layer}.errors"] = t["errors"]
        for name in COUNTERS:
            row[name] = c.get(name, 0)
        for name in TIMERS:
            row[f"{name}_ms"] = _ms(c.get(f"{name}_ns", 0))
        certifies = c.get("certificate.certify_calls", 0)
        mwfm = c.get("matching.mwfm_calls", 0)
        row["matching.mwfm_per_certify"] = mwfm / certifies if certifies else 0
        for k, v in row.items():
            rows.setdefault(k, []).append(v)
    metrics = {k: {"value": statistics.median(v), "unit": _unit(k)} for k, v in rows.items()}
    # Instructions retired per pass, traced over untraced: the tracer's own
    # work, which wall time on a shared host would bury in noise.
    def instructions(p):
        return sum(s[3] for s in p["samples"])

    overhead = (statistics.median(map(instructions, traced))
                / statistics.median(map(instructions, plain)) - 1)
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    # Single-threaded, no queues: nothing waits, so waiting is recorded as zero.
    metrics["trace.wait_ms"] = {"value": 0.0, "unit": "ms"}
    return metrics


def run_one(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    workdir = root / WORK_DIR / workload
    shutil.rmtree(workdir, ignore_errors=True)
    jobs, props = generate(workload, seed, root / "fixtures", workdir.relative_to(root))
    (workdir / "jobs.json").write_text(json.dumps(jobs))
    env = child_env()
    setup = measure_setup(env)
    worker = run_worker(workdir.relative_to(root), seconds, trace, env)
    job_failed, problems, recorded = evaluate(workload, seed, jobs, worker)

    passes = worker["passes"]
    measured = passes if trace else [p for p in passes if not p["traced"]]
    attempted = failed = 0
    for p in measured:
        for job, jf, s in zip(jobs, job_failed, p["samples"]):
            attempted += 1
            if not s[2]:
                problems.append(f"{job['id']}: output changed between passes")
            failed += jf or not s[2]
    plain = [p for p in passes if not p["traced"]]
    gated, named, spreads = end_to_end(jobs, plain, setup, worker)
    named.update(attempted={"value": attempted, "unit": "count"},
                 failed={"value": failed, "unit": "count"},
                 failed_frac={"value": failed / attempted, "unit": "ratio"})
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": len(plain), "traced_passes": len(passes) - len(plain),
        "end_to_end": named, "spread": spreads, "inputs": props,
        "recorded_values": recorded, "problem_count": len(problems), "problems": problems[:20],
        "context": run_context(root, worker),
    }
    print(json.dumps({"report": report}))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": per_layer(passes) if trace else gated,
    }


def main(argv: list | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    missing = [p for p in ("src/fed/__init__.py", "fixtures") if not (root / p).exists()]
    if missing:
        print(f"run from the repository root: {', '.join(missing)} not found", file=sys.stderr)
        return 2
    print(json.dumps(run_one(root, args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark worker: imports fed, then runs the job list back to back.

    python3 perfbench/worker.py <workdir> <seconds> <trace 0|1>

Run from the repository root with `src` on PYTHONPATH; `perfbench/run.py`
starts it. It reads `<workdir>/jobs.json` and writes `<workdir>/result.json`.
One closed-loop client: each job starts when the previous one returns. A
first, untimed pass warms up and captures every output in full; the timed
passes that follow repeat the list until `seconds` would be exceeded and
record, per job, its latency from call to return (failed or not), the
instructions it retired (`counters.py`) and a digest of its output. With
trace 1 the timed passes alternate untraced and traced, and the traced ones
also record per-layer spans and counters.
"""
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import fed
import fed.cli
import numpy
import scipy

from counters import CounterUnavailable, InstructionCounter
from tracer import Tracer, layer_totals


def _energy_job(job: dict) -> list:
    """The energy step of certify at scale, without the LP: load_graph ->
    qhfm -> assign_thetas + total_energy at each kappa, on the graph as
    loaded, parallel copies included."""
    g = fed.graph.load_graph_file(job["graph"])
    fm = fed.matching.qhfm(g)
    return [fed.magic.total_energy(g, fed.magic.assign_thetas(g, fm, k)) for k in job["kappas"]]


def _energy_output(reports) -> dict:
    return {
        "edges": len(reports[0].edges),
        "energies": [r.energy for r in reports],
        "min_floor_slack": min(e.g - e.floor for r in reports for e in r.edges),
    }


class _Clock:
    """One job from call to return: its wall time and the instructions this
    thread retired over the same interval (BLAS runs on this thread)."""

    def __init__(self, counter: InstructionCounter):
        self.counter = counter

    def __enter__(self):
        self.instructions = self.counter.read()
        self.wall_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.wall_ns = time.perf_counter_ns() - self.wall_ns
        self.instructions = self.counter.read() - self.instructions


def run_job(job: dict, counter: InstructionCounter) -> tuple[_Clock, str, dict]:
    """(latency clock, status, output); status is 'ok' or the failure."""
    if job["kind"] == "energy":
        try:
            with _Clock(counter) as clock:
                reports = _energy_job(job)
        except Exception as exc:  # a failed job is a measured sample, not a crash
            return clock, f"raised {type(exc).__name__}", {"error": type(exc).__name__, "message": str(exc)}
        return clock, "ok", _energy_output(reports)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with _Clock(counter) as clock:
            try:
                rc = fed.cli.main(list(job["argv"]))
                status = "ok" if rc == 0 else f"exit {rc}"
            except SystemExit as exc:
                status = f"exit {exc.code}"
            except Exception as exc:  # a failed job is a measured sample, not a crash
                status = f"raised {type(exc).__name__}: {exc}"
    return clock, status, {"stdout": out.getvalue(), "stderr": err.getvalue()}


def _digest(status: str, output: dict) -> str:
    return hashlib.sha256(json.dumps([status, output], sort_keys=True).encode()).hexdigest()


def main(argv: list[str]) -> int:
    workdir, seconds, trace = Path(argv[0]), float(argv[1]), argv[2] == "1"
    src = (Path.cwd() / "src").resolve()
    if src not in Path(fed.__file__).resolve().parents:
        print(f"fed was imported from {fed.__file__}, not from {src}", file=sys.stderr)
        return 3
    jobs = json.loads((workdir / "jobs.json").read_text())
    try:
        counter = InstructionCounter()
    except CounterUnavailable as exc:
        print(f"no instruction counter: {exc}", file=sys.stderr)
        return 4
    try:
        result = run_passes(jobs, workdir, seconds, trace, counter)
    finally:
        counter.close()
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


def run_passes(jobs: list, workdir: Path, seconds: float, trace: bool,
               counter: InstructionCounter) -> dict:
    """Warm-up pass, then timed passes until `seconds` would be exceeded."""
    warm = [run_job(job, counter) for job in jobs]
    digests = [_digest(status, output) for _, status, output in warm]

    tracer = Tracer()
    passes = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        samples = []
        try:
            start = time.perf_counter_ns()
            for job, ref in zip(jobs, digests):
                tracer.job = job["id"]
                clock, status, output = run_job(job, counter)
                samples.append([clock.wall_ns, status, _digest(status, output) == ref,
                                clock.instructions])
            wall_ns = time.perf_counter_ns() - start
        finally:
            if traced:
                tracer.restore()
        record = {"traced": traced, "wall_ns": wall_ns, "samples": samples}
        if traced:
            record["layers"] = layer_totals(tracer.spans)
            record["counters"] = dict(tracer.counters)
            with open(workdir / "trace_spans.jsonl", "a") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.job, s.error]) + "\n")
        passes.append(record)
        elapsed = time.perf_counter() - begin
        typical = statistics.median(p["wall_ns"] for p in passes) / 1e9
        if elapsed + typical > seconds and len(passes) >= (2 if trace else 1):
            break

    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "warmup": [{"status": status, "output": output} for _, status, output in warm],
        "passes": passes,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

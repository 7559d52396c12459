"""Record the compared output values of every job as the reference.

    python3 perfbench/record.py

Run from the repository root at the commit whose outputs later commits must
reproduce. Every job of every workload runs once for each of
`gen.RECORDED_SEEDS`, in this process, and `check.extract` reduces its
output to the compared values. Writes `perfbench/expected/<workload>.jsonl`,
one {"seed", "job", "values"} object per line; jobs whose input does not
depend on the seed are stored once, with seed "fixed".
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]

from check import extract  # noqa: E402
from gen import RECORDED_SEEDS, WORKLOADS, generate  # noqa: E402
from run import BLAS_ENV, WORK_DIR  # noqa: E402

os.environ.update(BLAS_ENV)  # before worker imports numpy

from worker import run_job  # noqa: E402


def main() -> int:
    root = Path.cwd()
    for workload in WORKLOADS:
        fixed, rows = {}, []
        for seed in RECORDED_SEEDS:
            jobs, _ = generate(workload, seed, root / "fixtures", Path(WORK_DIR) / "record" / workload)
            for job in jobs:
                if job.get("fixed") and job["id"] in fixed:
                    continue
                _, status, output = run_job(job)
                row = {"seed": "fixed" if job.get("fixed") else seed, "job": job["id"],
                       "values": extract(job, status, output)}
                if job.get("fixed"):
                    fixed[job["id"]] = row
                else:
                    rows.append(row)
            print(f"{workload} seed {seed}: {len(jobs)} jobs", file=sys.stderr)
        with open(HERE / "expected" / f"{workload}.jsonl", "w") as fh:
            for row in list(fixed.values()) + rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark itself; run from the root of a source checkout:

    python3 bench/selftest.py

It checks that
  * the checker rejects corrupted outputs (shifted lambda_max, raised lower
    bound, wrong em-dash cell, swapped rows, flipped verdict, wrong theta,
    FAIL verdict) for every distinct op of every workload, so
    failed == 0 is never vacuous;
  * two traced runs of the same code and seed give identical per-layer
    call counts and an identical Σn³ eigensolve work count;
  * every run prints exactly the metrics BENCHMARK.json declares;
  * the benchmark refuses to run, with a nonzero exit and no result, in a
    directory holding only BENCHMARK.json and bench/.
Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # pins BLAS threads before anything imports numpy

SEED = 7


def fail(message: str) -> None:
    raise SystemExit(f"selftest FAILED: {message}")


def check_mutations() -> None:
    sys.path.insert(0, str(run.SRC))
    client = run.Client()
    workdir = run.ROOT / ".bench_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for workload in run.WORKLOADS + run.EXTRA_WORKLOADS:
            rejected = 0
            for k, op in enumerate(run.build_ops(workload, SEED, workdir)):
                _, reason, text = client.call(op)
                if reason is not None:
                    fail(f"{workload} op {k} failed at this commit: {reason}")
                for label, bad in run.checker.mutations(op.kind, text, op.pivot):
                    if op.check(bad) is None:
                        fail(f"{workload}: checker accepted corrupted output ({label})")
                    rejected += 1
            print(f"ok   {workload}: {rejected} corrupted outputs rejected")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(workload: str, trace: int, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        fail(f"{what}: exit {proc.returncode}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"} or not out["correct"]:
        fail(f"{what}: bad result line {proc.stdout.splitlines()[-1][:200]}")
    return out["metrics"]


def check_runs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")
    for workload in run.WORKLOADS + run.EXTRA_WORKLOADS:
        if set(result(bench(workload, 0), f"{workload} trace 0")) != e2e:
            fail(f"{workload}: trace 0 metrics differ from BENCHMARK.json end_to_end")
        first, second = (result(bench(workload, 1), f"{workload} trace 1") for _ in range(2))
        if set(first) != layer:
            fail(f"{workload}: trace 1 metrics differ from BENCHMARK.json per_layer")
        counts = [k for k in first if k.endswith(".calls") or k.endswith(".order3_sum")]
        moved = [k for k in counts if first[k]["value"] != second[k]["value"]]
        if moved:
            fail(f"{workload}: counts differ between two traced runs: {moved}")
        print(f"ok   {workload}: metric names match, {len(counts)} counts repeat exactly")


def check_bare_directory() -> None:
    bare = run.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(run.WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("benchmark ran without the sglap sources")
    print("ok   refuses to run without sources")


if __name__ == "__main__":
    check_mutations()
    check_runs()
    check_bare_directory()
    print("selftest passed")

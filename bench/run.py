"""End-to-end and per-layer benchmark of the sglap command line.

Run from the root of a source checkout (sglap need not be installed):

    python3 bench/run.py --workload verify-n10 --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55 --trace 0

One client calls ``sglap.cli.main`` in this process in a closed loop: each
op starts when the previous one has returned and its output has passed the
independent checker (``checker.py``).  Inputs come from ``--seed`` through
``corpus.py``; a workload is a short list of distinct ops, cycled through.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print each metric by name
and unit, and the unscaled median (and p90, from 100 ops) over all calls.

--trace 0 reports the end-to-end metrics with tracing off.  Every time
is scaled to a reference host speed (see ``HostSpeed``):
  graphs_per_s  input graphs (verify trials, switch-check pairs) per second
                over one pass of the distinct ops, each at its median time;
  call_ms.p50   median over the distinct ops of each op's median time;
  setup_s       median of 31 fresh interpreters importing sglap.cli, spread
                over the run;
  peak_rss_mb   peak resident memory of this process.
The info line also gives the host-speed loop's median time.
--trace 1 repeats the round of distinct ops, alternately untraced and traced by
``tracer.py``, and reports per-layer call counts (first traced round, exact)
and self times (best round), the Σn³ eigensolve work and the tracing
overhead (traced over untraced graphs/s, minus one).

BLAS is pinned to one thread so the run uses one core of the two this
benchmark was sized on, and timings do not depend on a thread pool.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before anything imports numpy

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checker
import corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# The workloads BENCHMARK.json gates.  bounds-n60 and report-mixed run the
# same way but are not gated: their calls take 1 to 4 s, so a run holds few
# of them, and scaled to host speed five 24 s runs on a shared 2-vCPU host
# spread by 0.06 and 0.14; gating them too would also cut every run below
# 40 s to keep all runs within their time limit.
WORKLOADS = ("verify-n10", "switch-n5000")
EXTRA_WORKLOADS = ("bounds-n60", "report-mixed")
VERIFY_TRIALS = 10
VERIFY_OPS = 2
SETUP_REPS = 31
# The host-speed loop's time at the reference speed: about its median on the
# 2-vCPU Xeon virtual machine this benchmark was sized on, so scaled times
# read as milliseconds there.
HOST_LOOP_REF_S = 0.033


@dataclass(frozen=True)
class Op:
    argv: list[str]
    graphs: int
    kind: str
    check: Callable[[str], "str | None"]
    pivot: int = 1


def _write(workdir: Path, name: str, g) -> str:
    path = workdir / f"{name}.sg"
    path.write_text(g.text(), encoding="utf-8")
    return str(path)


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The workload's distinct ops, in the order a run cycles through them."""
    if workload == "verify-n10":
        rng = random.Random(seed)
        check = partial(checker.check_verify, VERIFY_TRIALS)
        return [Op(["verify", "--n", "10", "--edge-prob", "0.5", "--neg-prob", "0.5",
                    "--trials", str(VERIFY_TRIALS), "--seed", str(rng.getrandbits(32))],
                   VERIFY_TRIALS, "verify", check)
                for _ in range(VERIFY_OPS)]
    if workload == "bounds-n60":
        return [Op(["bounds", "--input", _write(workdir, e.name, e.graph)], 1, "bounds",
                   partial(checker.check_bounds, checker.Facts(e.graph)))
                for e in corpus.bounds_corpus(seed)]
    if workload == "report-mixed":
        entries = corpus.report_corpus(seed)
        paths = [_write(workdir, e.name, e.graph) for e in entries]
        facts = [(checker.Facts(e.graph), checker.Facts(checker.signed_all(e.graph, 1)),
                  checker.Facts(checker.signed_all(e.graph, -1))) for e in entries]
        names = [e.name for e in entries]
        return [Op(["report", "--format", "csv", "--inputs", *paths], len(entries), "report",
                   partial(checker.check_report, names, facts))]
    if workload == "switch-n5000":
        return [Op(["switch-check", "--a", _write(workdir, p.name + "a", p.a),
                    "--b", _write(workdir, p.name + "b", p.b)], 1, "switch",
                   partial(checker.check_switch, p.a, p.b, p.equivalent),
                   pivot=p.a.edges[0][0])
                for p in corpus.switch_corpus(seed)]
    raise ValueError(workload)


class Client:
    """Calls ``sglap.cli.main`` in-process and checks each output."""

    def __init__(self):
        import sglap.cli

        self.cli = sglap.cli
        self.attempted = 0
        self.failed = 0

    def call(self, op: Op) -> tuple[float, "str | None", str]:
        """Run one op: (seconds, failure reason or None, captured stdout)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(op.argv)  # looked up per call, so tracing applies
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rc = f"raised {exc!r}"
        seconds = time.perf_counter() - start
        text = out.getvalue()
        reason = f"exit {rc}: {err.getvalue().strip()[:200]}" if rc != 0 else op.check(text)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            print(f"FAILED {' '.join(op.argv)[:160]}: {reason}", file=sys.stderr)
        return seconds, reason, text

    def warm_up(self, op: Op) -> None:
        """One untimed op; its output also proves the checker rejects corruptions."""
        _, reason, text = self.call(op)
        if reason is not None:
            return
        for label, bad in checker.mutations(op.kind, text, op.pivot):
            if op.check(bad) is None:
                raise SystemExit(f"checker accepted a corrupted output ({label})")


class HostSpeed:
    """Times a fixed pure-Python loop next to each measured call.

    On a shared host one core's speed drifts by up to 2x over tens of
    seconds and between runs, and CPU time drifts with it, so neither wall
    nor CPU time of a call repeats.  The loop (parse a fixed edge list of
    5000 vertices, then label its components by BFS) does the same kind of
    work as the program but is the benchmark's own code, so a change to
    sglap cannot move it.  A call's time divided by the mean of the loop's
    times just before and just after it, times ``HOST_LOOP_REF_S``, is the
    call's time at the reference speed.  The loop runs with the garbage
    collector off so the program's live heap does not slow it.
    """

    def __init__(self):
        self.text = corpus.sparse(random.Random(0), 5000, 10, 0.5).text()
        self.times: list[float] = []
        self.loop()  # untimed warm-up

    def loop(self) -> int:
        lines = self.text.splitlines()
        edges = [(int(i), int(j), s) for i, j, s in map(str.split, lines[1:])]
        return max(corpus.components(int(lines[0].split()[1]), edges))

    def sample(self) -> float:
        """Seconds the loop takes now."""
        gc.disable()
        try:
            start = time.perf_counter()
            self.loop()
            seconds = time.perf_counter() - start
        finally:
            gc.enable()
        self.times.append(seconds)
        return seconds

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        return seconds * HOST_LOOP_REF_S / ((before + after) / 2)


class SetupTimer:
    """Times a fresh interpreter importing sglap.cli (numpy included).

    Samples are spread over the run, each scaled by the host-speed loop
    around it, and the median is reported.
    """

    def __init__(self, reps: int, seconds: float, speed: HostSpeed):
        pythonpath = filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        self.reps, self.gap, self.speed = reps, seconds / reps, speed
        self.times: list[float] = []
        self.spawn(speed.sample())  # untimed: the first import may also write bytecode caches
        self.times.clear()
        self.next_due = time.perf_counter()

    def spawn(self, before: float) -> float:
        """One timed import; ``before`` is the latest loop time, the new one is returned."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sglap.cli"], env=self.env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
        after = self.speed.sample()
        self.times.append(self.speed.scale(seconds, before, after))
        return after

    def poll(self, before: float) -> float:
        """Take the next sample if it is due; call between ops with the latest loop time."""
        if len(self.times) < self.reps and time.perf_counter() >= self.next_due:
            self.next_due += self.gap
            return self.spawn(before)
        return before

    def median(self) -> float:
        before = self.speed.sample()
        while len(self.times) < self.reps:
            before = self.spawn(before)
        return statistics.median(self.times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_plain(client: Client, ops: list[Op], seconds: float) -> tuple[dict, dict]:
    """Cycle through the ops for ``seconds`` (at least one full pass).

    Each call is scaled to the reference host speed, and each distinct op
    is timed by the median of its scaled calls.
    """
    speed = HostSpeed()
    setup = SetupTimer(SETUP_REPS, seconds, speed)
    scaled: list[list[float]] = [[] for _ in ops]
    all_ms = []
    deadline = time.perf_counter() + seconds
    before = speed.sample()
    k = 0
    while k < len(ops) or time.perf_counter() < deadline:
        dt = client.call(ops[k % len(ops)])[0]
        after = speed.sample()
        scaled[k % len(ops)].append(speed.scale(dt, before, after))
        all_ms.append(dt * 1e3)
        before = setup.poll(after)
        k += 1
    per_op = [statistics.median(times) for times in scaled]
    info = {"ops": len(all_ms), "distinct_ops": len(ops),
            "failed_share": client.failed / client.attempted,
            "unscaled_call_ms.p50": statistics.median(all_ms)}
    if len(all_ms) >= 100:
        info["unscaled_call_ms.p90"] = statistics.quantiles(all_ms, n=10)[-1]
    info["host_loop_ms.p50"] = statistics.median(speed.times) * 1e3
    return {
        "graphs_per_s": metric(sum(op.graphs for op in ops) / sum(per_op), "graphs/s"),
        "call_ms.p50": metric(statistics.median(per_op) * 1e3, "ms"),
        "setup_s": metric(setup.median(), "s"),
    }, info


def run_traced(client: Client, ops: list[Op], seconds: float,
               spans_out: Path) -> tuple[dict, dict]:
    """Repeat one fixed round of ops, alternately untraced and traced.

    Call counts come from the first traced round, so they are exact and the
    same in every run with the seed; self times and the overhead use each
    side's best round.
    """
    from tracer import ORDER3, SPAN_NAMES, SpanRecorder

    plain_s, traced_s, self_ns = [], [], {name: [] for name in SPAN_NAMES}
    first = None
    deadline = time.perf_counter() + seconds
    rnd = 0
    while not traced_s or time.perf_counter() < deadline:
        # Alternate which pass goes first so drift does not bias the overhead.
        for traced in ((False, True) if rnd % 2 == 0 else (True, False)):
            rec = SpanRecorder() if traced else None
            if rec:
                rec.install()
            try:
                total = 0.0
                for k, op in enumerate(ops):
                    if rec:
                        rec.op_id = k
                    total += client.call(op)[0]
            finally:
                if rec:
                    rec.uninstall()
            (traced_s if traced else plain_s).append(total)
            if rec:
                summary = rec.summary()
                for name, (_, ns) in summary.items():
                    self_ns[name].append(ns)
                if first is None:
                    first = (summary, rec.order3_sum, rec.spans)
        rnd += 1
    summary, order3, spans = first
    write_spans(spans, spans_out)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = metric(summary[name][0], "count")
        metrics[f"{name}.self_ms"] = metric(min(self_ns[name]) / 1e6, "ms")
    metrics[ORDER3] = metric(order3, "count")
    # Traced graphs/s over untraced graphs/s, minus one; both rounds do the same work.
    metrics["trace.overhead"] = metric(min(plain_s) / min(traced_s) - 1, "ratio")
    return metrics, {"rounds": len(traced_s), "ops_per_round": len(ops)}


def write_spans(spans, path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for name, start, end, parent, op_id in spans:
            fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                 "parent": parent, "op": op_id}) + "\n")


def run_workload(args) -> int:
    if not (SRC / "sglap" / "cli.py").is_file():
        print(f"error: no sglap sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    client = Client()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = build_ops(args.workload, args.seed, workdir)
        client.warm_up(ops[0])
        if args.trace:
            spans_out = ROOT / ".bench_out" / f"spans-{args.workload}.jsonl"
            metrics, info = run_traced(client, ops, args.seconds, spans_out)
        else:
            metrics, info = run_plain(client, ops, args.seconds)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = metric(rss_kb / 1024, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={client.attempted} failed={client.failed} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": client.failed == 0, "attempted": client.attempted,
                      "failed": client.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process), one table."""
    status = 0
    for workload in WORKLOADS + EXTRA_WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"== {workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for line in lines[:-1]:
            print("   " + line)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())

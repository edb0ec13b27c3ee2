#!/usr/bin/env python3
"""atombell benchmark runner.

    python3 perfbench/run.py --workload gamma-eval --seed 1 --seconds 10 --trace 0

Runs one workload (see `workloads.py`) in this process, single-threaded, as a
closed loop with one caller, against the `atombell` sources in `src/` of the
checkout that holds this file.  Every op is timed alone with
`perf_counter_ns`; its result is checked against `oracle.py` after the clock
stops.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``         median over five fresh interpreters, started at even
                      intervals through the timed part while no op runs, of the
                      time from process start to `import atombell` done and the
                      first round of inputs generated;
* ``ops_per_s``       ops per second of op time over the timing sample;
* ``latency_p50_ms``, ``latency_p90_ms``  percentiles of single-op latency over
                      the timing sample;
* ``peak_rss_mb``     peak resident memory of this process.

Every round is the same mix of ops, so op i of each round is the same kind of
op on fresh inputs.  The timing sample keeps, for each such slot, the fastest
tenth of its latencies across the run.  On a shared 2-core machine the load
from neighbours switches within seconds and changes op times by up to 1.9x; a
median over all ops lands between those states.  Over 20-second windows of
one 200-second gamma-eval recording the median latency moved 31%
(interquartile range over median) and the 10th percentile 3%.  Every op
is still run and checked; the slower ones are only left out of the timing.

With ``--trace 1`` a quarter of the time runs untraced, then as many fresh
rounds (at most 20 000 ops) run with every public layer function wrapped in a
span (`spans.py`); the metrics are the per-layer ones.  Earlier lines carry the
traffic record, a digest of the first rounds' results (equal for equal seeds),
and in traced runs the per-call table.  Spans and the layer table are written
to `.perfbench_out/` at the root of the checkout.
"""

import os

# pin BLAS/OpenMP pools to one thread before NumPy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from array import array  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = workloads.ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
FAST_SHARE = 0.1
MAX_TRACED_OPS = 20_000  # ~30 MB of spans for gamma-eval
MIN_ROUNDS = 2
DIGEST_ROUNDS = 1 + MIN_ROUNDS  # the warm-up and the first timed rounds always run


class Raised:
    """Stands in for the result of an op that raised."""

    def __init__(self, text):
        self.text = "raised " + text


class Runner:
    """Runs rounds of one workload, timing each op and checking it outside the clock."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failures = []
        self.digest = hashlib.sha256()
        self.traffic = {}  # group -> Counter of labels, over every op after the warm-up
        self.traffic_ops = 0

    def run_round(self, r, tracer=None):
        """Run round r; returns the per-op latencies in ns (compact, so memory stays flat)."""
        ops = self.wl.round(r)
        results, latencies = [], array("q")
        for op in ops:
            if tracer is not None:
                tracer.begin_op(self.attempted + len(results))
            start = time.perf_counter_ns()
            try:
                res = self.wl.call(op)
            except Exception:  # the loop must go on; the op counts as failed
                res = Raised(traceback.format_exc(limit=3))
            end = time.perf_counter_ns()
            if tracer is not None:
                tracer.end_op()
            latencies.append(end - start)
            results.append(res)
        self.attempted += len(ops)
        raised = [isinstance(res, Raised) for res in results]
        if any(raised):
            # checks may compare ops of one round with each other, so none run
            errors = [res.text if bad else "not checked: another op of its round raised" for res, bad in zip(results, raised)]
        else:
            errors = self.wl.check(ops, results)
        for i, (op, res, error) in enumerate(zip(ops, results, errors)):
            if error:
                self.failures.append(f"round {r} op {i} ({op.kind}): {error}")
            if r < DIGEST_ROUNDS:
                self.digest.update(f"{r}:{i}:{'raised' if raised[i] else self.wl.digest(op, res)}\n".encode())
            if r > 0:
                for group, label, amount in self.wl.traffic(op):
                    self.traffic.setdefault(group, Counter())[label] += amount
        if r > 0:
            self.traffic_ops += len(ops)
        self.wl.discard(ops)
        return latencies

    def run_phase(self, first_round, seconds=0.0, rounds=None, tracer=None, pause=None, pauses=0):
        """Run `rounds` rounds from first_round, or as many as fit in `seconds` of op time.

        `pause` is called `pauses` times, spread evenly over the op time, between
        rounds.  Returns one list of op latencies (ns) per round.
        """
        gc.collect()
        budget = seconds * 1e9
        spent, done, out = 0, 0, []
        while True:
            while done < pauses and spent >= done * budget / pauses:
                pause()
                done += 1
            lat = self.run_round(first_round + len(out), tracer)
            out.append(lat)
            spent += sum(lat)
            if rounds is not None:
                if len(out) >= rounds:
                    break
            elif len(out) >= MIN_ROUNDS and spent >= budget:
                break
        for _ in range(done, pauses):
            pause()
        return out


def timed_setup(args) -> float:
    """Wall time of a fresh interpreter that imports atombell and builds the first round."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("set-up probe timed out") from None
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
    return elapsed


def setup_probe(args) -> int:
    ab = workloads.load_atombell()
    wl = workloads.make(args.workload, ab, args.seed, OUT_DIR)
    wl.round(0)
    print("ready", flush=True)
    return 0


def timing(rounds):
    """(ops per second, p50 ms, p90 ms, ops summarized) over the fastest tenth of each op slot.

    Op i of every round is the same kind of op on fresh inputs, so each slot
    keeps the fastest tenth of its latencies across the run's rounds.
    """
    lat = np.sort(np.array(rounds, dtype=float), axis=0)
    pool = lat[: max(1, math.ceil(len(rounds) * FAST_SHARE))].ravel()
    p50, p90 = np.percentile(pool, [50, 90]) / 1e6
    return len(pool) / (pool.sum() / 1e9), float(p50), float(p90), len(pool)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args) -> dict:
    ab = workloads.load_atombell()
    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"cli-{os.getpid()}"
    scratch.mkdir()
    setup_times = []
    try:
        wl = workloads.make(args.workload, ab, args.seed, scratch)
        runner = Runner(wl)
        # the CLI reports usage errors and warnings on stderr; keep them out of the log
        with contextlib.redirect_stderr(io.StringIO()):
            runner.run_round(0)  # warm-up: lazy imports and first-call costs, not timed
            if args.trace:
                untraced = runner.run_phase(1, seconds=args.seconds / 4)
                ops_per_round = len(untraced[0])
                traced_rounds = max(1, min(len(untraced), MAX_TRACED_OPS // ops_per_round))
                tracer = spans.Tracer(workloads.traced_targets(ab))
                tracer.install(workloads.traced_modules(ab))
                try:
                    traced = runner.run_phase(1 + len(untraced), rounds=traced_rounds, tracer=tracer)
                finally:
                    tracer.remove()
                metrics = layer_metrics(args, tracer, traced, untraced)
            else:
                rounds = runner.run_phase(
                    1, seconds=args.seconds, pause=lambda: setup_times.append(timed_setup(args)), pauses=SETUP_PROBES
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    traffic = {group: dict(sorted(counts.items())) for group, counts in runner.traffic.items()}
    print("traffic " + json.dumps({"workload": args.workload, "seed": args.seed, "ops": runner.traffic_ops, **traffic}))
    print(f"digest {runner.digest.hexdigest()} rounds 0-{DIGEST_ROUNDS - 1}")
    for failure in runner.failures[:5]:
        print("FAILED " + failure, file=sys.stderr)

    if not args.trace:
        rate, p50, p90, summarized = timing(rounds)
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "ops_per_s": metric(rate, "1/s"),
            "latency_p50_ms": metric(p50, "ms"),
            "latency_p90_ms": metric(p90, "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        ops = sum(map(len, rounds))
        print(f"timed {ops} ops in {len(rounds)} rounds; timing summarizes the fastest {summarized} ops")
    failed = len(runner.failures)
    return {"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}


def layer_metrics(args, tracer, traced, untraced) -> dict:
    recorded = tracer.spans()
    residual = spans.self_time_residual_ns(recorded)
    if residual != 0:
        raise RuntimeError(f"self times do not add up to op durations (off by {residual} ns)")
    ops = sum(map(len, traced))
    table = spans.layer_table(tracer, recorded, ops)
    np.save(OUT_DIR / f"spans-{args.workload}.npy", recorded)
    overhead = 1.0 - timing(traced)[0] / timing(untraced)[0]
    (OUT_DIR / f"layers-{args.workload}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "ops": ops, "trace_overhead_share": overhead, "layers": table}, indent=2)
    )
    print(f"{'layer':28s} {'calls/op':>9s} {'self us/op':>11s} {'us/call incl':>13s} {'us/call self':>13s}")
    for name, row in table.items():
        print(f"{name:28s} {row['calls_per_op']:9.3f} {row['self_us_per_op']:11.2f} {row['incl_us_per_call']:13.2f} {row['self_us_per_call']:13.2f}")
    print(f"traced ops {ops}, {len(recorded)} spans, self-time residual {residual} ns, overhead share {overhead:.3f}")

    out = {}
    for name, _, _ in tracer.targets:
        out[f"{name}.calls_per_op"] = metric(table[name]["calls_per_op"], "count")
        out[f"{name}.self_us_per_op"] = metric(table[name]["self_us_per_op"], "us")
    out["op.self_us_per_op"] = metric(table[spans.ROOT]["self_us_per_op"], "us")
    out["su2.coherent_state.repeat_share"] = metric(tracer.ket_repeats / tracer.ket_calls if tracer.ket_calls else 0.0, "ratio")
    out["ramsey.simulate_shots.shots_per_op"] = metric(tracer.shots / ops, "count")
    out["cli.main.out_bytes_per_op"] = metric(tracer.out_bytes / ops, "bytes")
    out["trace.overhead_share"] = metric(overhead, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    try:
        if args.setup_probe:
            return setup_probe(args)
        result = run(args)
    except (workloads.MissingProgram, RuntimeError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

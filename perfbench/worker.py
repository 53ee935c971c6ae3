"""Run one benchmark workload in this (fresh, single-threaded) process.

    python3 perfbench/worker.py --workload sim_bulk --seed 1 --seconds 25

run.py starts this script; it is not meant to be run by hand.  It sets the
workload up, measures whole passes until both ``--seconds`` have elapsed
and ``--min-ops`` operations have run, and prints one JSON object as its
last line of output.  ``setup_end`` in that object is a CLOCK_MONOTONIC
time stamp, which run.py compares with the time it started this process.
With ``--trace 1`` the run is split in two halves: untraced, then traced,
and the object carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
# The calibration kernel's time at the reference machine speed.  Timings are
# reported in reference seconds, which cancels the slow and fast phases of
# a shared machine (the kernel runs next to every operation).
REFERENCE_S = 0.0006


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


def _kernel():
    d = {}
    for i in range(1500):
        d[(i, i & 7)] = bytes(8)
    s = 0
    for k, v in d.items():
        s += k[0] ^ len(v)
    return s


def calibrate():
    """Seconds the calibration kernel takes now (best of three)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(workload, seconds, min_ops, tracer=None):
    """Run whole passes until seconds have elapsed and min_ops have run.
    Every operation is gated; an exception of any type is a failure.

    Each operation starts from a fully collected heap, so the collections
    inside it do not depend on the operations before it.  Its times are
    scaled to reference seconds by REFERENCE_S / c, with c the mean of the
    calibrations just before and just after it."""
    latencies, raw_latencies, errors, scales = [], [], [], []
    failed = i = 0
    busy = raw_busy = 0.0
    start = time.perf_counter()
    gc.collect()
    cal = calibrate()
    while i < min_ops or time.perf_counter() - start < seconds:
        for _ in range(workload.ops_per_pass):
            if tracer is not None:
                tracer.op = i
                span = tracer.enter("op")
            t0 = time.perf_counter()
            try:
                try:
                    out = workload.op(i)
                finally:
                    t1 = time.perf_counter()
                    if tracer is not None:
                        tracer.exit(span)
                workload.check(i, out)
            except Exception as exc:  # counted, never dropped
                failed += 1
                if len(errors) < 5:
                    errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            t2 = time.perf_counter()
            out = None  # free this operation's outputs before the next one
            gc.collect()
            after = calibrate()
            scale = REFERENCE_S / ((cal + after) / 2)
            cal = after
            scales.append(scale)
            raw_latencies.append(t1 - t0)
            latencies.append((t1 - t0) * scale)
            raw_busy += t2 - t0
            busy += (t2 - t0) * scale
            i += 1
    return {
        "attempted": i,
        "failed": failed,
        "ops_per_s": (i - failed) / busy,
        "op_p50_s": percentile(latencies, 50),
        "op_p90_s": percentile(latencies, 90),
        "busy_s": busy,
        "raw": {
            "ops_per_s": (i - failed) / raw_busy,
            "op_p50_s": percentile(raw_latencies, 50),
            "op_p90_s": percentile(raw_latencies, 90),
            "busy_s": raw_busy,
            "wall_s": time.perf_counter() - start,
            "speed_p50": percentile(scales, 50),
        },
        "scales": scales,
        "errors": errors,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=1, dest="min_ops")
    parser.add_argument("--setup-only", action="store_true", dest="setup_only")
    parser.add_argument("--plant-fault", action="store_true", dest="plant_fault")
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import pdacache

    if not os.path.abspath(pdacache.__file__).startswith(SRC + os.sep):
        sys.exit(f"pdacache was imported from {pdacache.__file__}, not from {SRC}")
    import tracer as tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.plant_fault)
        result = {"setup_end": time.monotonic(), "setup_calibration_s": calibrate()}
        if not args.setup_only:
            if args.trace:
                plain = measure(workload, args.seconds / 2, workload.ops_per_pass)
                tracer = tracing.Tracer()
                tracing.install(tracer, pdacache)
                run = measure(workload, args.seconds / 2, workload.ops_per_pass, tracer)
                layers = tracer.layer_metrics(run["attempted"], run.pop("scales"))
                layers["trace.ops_per_s"] = run["ops_per_s"]
                layers["trace.overhead"] = (plain["attempted"] / plain["busy_s"]) / (
                    run["attempted"] / run["busy_s"]
                )
                result["layers"] = layers
                plain.pop("scales")
                result["untraced"] = plain
                if args.spans:
                    tracer.write(args.spans)
            else:
                run = measure(workload, args.seconds, args.min_ops)
                run.pop("scales")
            result.update(run)
            result["counts"] = workload.counts
            result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

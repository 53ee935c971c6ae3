"""The pdacache benchmark.

    python3 perfbench/run.py --workload sim_bulk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25
    python3 perfbench/run.py --self-test

One workload run starts fresh worker processes (worker.py), one per set-up
sample plus the measured run, so set-up time and peak RSS belong to that
workload alone.  It prints a short report and, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--all`` runs every workload both ways and prints every
metric with its unit; ``--self-test`` makes short runs that check the
benchmark itself.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import LAYER_METRICS
from worker import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("build_ladder", "sim_bulk", "sim_fanout", "cli")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mib": "MiB",
}
SETUP_SAMPLES = 9  # fresh processes per run whose set-up time is timed
MIN_OPS = 100  # at least ten latency samples beyond p90
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """A worker process failed or produced no result."""


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def source_record():
    """Line count and content hash of the pdacache sources."""
    digest, lines = hashlib.sha256(), 0
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "pdacache")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
                lines += data.count(b"\n")
    return digest.hexdigest(), lines


def spawn(args):
    """Run worker.py with args in a fresh process; return its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker {args} printed no result") from exc


def check_counts(workload, counts, src_hash):
    """Counts must repeat exactly for the same sources: compare with the
    record an earlier run of this checkout left, or leave one."""
    path = os.path.join(OUT, f"counts-{workload}.json")
    record = {}
    if os.path.exists(path):
        with open(path) as fh:
            record = json.load(fh)
    if src_hash in record:
        return record[src_hash] == counts
    record[src_hash] = counts
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def run_workload(name, seed, seconds, trace, min_ops=MIN_OPS, fault=False):
    """One benchmark run of one workload; returns a result dict."""
    base = ["--workload", name, "--seed", str(seed)]
    setup, raw_setup = [], []

    def setup_sample(args):
        started = time.monotonic()
        r = spawn(args)
        raw_setup.append(r["setup_end"] - started)
        setup.append(raw_setup[-1] * REFERENCE_S / r["setup_calibration_s"])
        return r

    for _ in range(0 if trace else SETUP_SAMPLES - 1):
        setup_sample([*base, "--setup-only"])
    tag = f"{name}-seed{seed}" + ("-trace" if trace else "") + ("-fault" if fault else "")
    measured = [*base, "--seconds", str(seconds), "--trace", str(trace), "--min-ops", str(min_ops)]
    if trace:
        measured += ["--spans", os.path.join(OUT, f"{tag}-spans.jsonl")]
    if fault:
        measured.append("--plant-fault")
    r = setup_sample(measured)

    attempted = r["attempted"] + r.get("untraced", {}).get("attempted", 0)
    failed = r["failed"] + r.get("untraced", {}).get("failed", 0)
    src_hash, src_lines = source_record()
    counts = dict(r["counts"], src_lines=src_lines)
    counts_repeat = fault or check_counts(name, counts, src_hash)
    if trace:
        metrics = r["layers"]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": r["ops_per_s"],
            "op_p50_s": r["op_p50_s"],
            "op_p90_s": r["op_p90_s"],
            "peak_rss_mib": r["peak_rss_mib"],
        }
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "correct": failed == 0 and counts_repeat and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "errors": r["errors"] + r.get("untraced", {}).get("errors", []),
        "counts_repeat": counts_repeat,
        "computed_counts": counts,
        "raw": dict(r["raw"], setup_s=statistics.median(raw_setup)),
        "setup_samples_s": setup,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def units(trace):
    return LAYER_METRICS if trace else END_TO_END


def report(result):
    """Print a run's record in readable lines."""
    unit = units(result["trace"])
    print(
        f"# workload={result['workload']} seed={result['seed']} "
        f"seconds={result['seconds']} trace={result['trace']}"
    )
    print(f"# environment: {json.dumps(result['environment'])}")
    for name, value in result["metrics"].items():
        print(f"#   {name:<28} {value:>14.6g} {unit[name]}")
    print(
        f"#   failed_frac {result['failed_frac']:.6g} "
        f"({result['failed']}/{result['attempted']} operations failed)"
    )
    raw = result["raw"]
    print(
        f"# unscaled: ops_per_s {raw['ops_per_s']:.6g}, op_p50_s {raw['op_p50_s']:.6g}, "
        f"op_p90_s {raw['op_p90_s']:.6g}, setup_s {raw['setup_s']:.6g}; "
        f"median scale to reference seconds {raw['speed_p50']:.4g}"
    )
    for error in result["errors"]:
        print(f"#   failure: {error}")
    repeat = "repeat exactly" if result["counts_repeat"] else "DIFFER from an earlier run"
    print(f"# computed counts ({repeat}): {json.dumps(result['computed_counts'], sort_keys=True)}")


def final_line(result):
    unit = units(result["trace"])
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": unit[k]} for k, v in result["metrics"].items()},
        }
    )


def layer_checks(traced):
    """The traced runs must show each workload loading its layer."""
    def share(name, layers):
        m = traced[name]["metrics"]
        op = m["op.traced_s"] - m["trace.count.self_s"]
        return sum(m[layer] for layer in layers) / op

    place = share("sim_fanout", ["sim.place.self_s"])
    xor = share("sim_bulk", ["sim.deliver.self_s", "sim.decode.self_s"])
    ladder_sim = {k: v for k, v in traced["build_ladder"]["metrics"].items() if k.startswith("sim.") and v}
    from_json = [w for w in WORKLOADS if traced[w]["metrics"]["pda.from_json.self_s"] > 0]
    return [
        (f"sim.place share of sim_fanout traced op time {place:.3f} >= 0.70", place >= 0.70),
        (f"sim.deliver+decode share of sim_bulk traced op time {xor:.3f} >= 0.80", xor >= 0.80),
        (f"sim.* on build_ladder is zero (non-zero: {sorted(ladder_sim)})", not ladder_sim),
        (f"pda.from_json.self_s non-zero only on cli (on: {from_json})", from_json == ["cli"]),
    ]


def run_all(seed, seconds):
    ok = True
    traced = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, seed, seconds, trace)
            report(result)
            ok &= result["correct"]
            if trace:
                traced[name] = result
    for text, passed in layer_checks(traced):
        print(f"# layer check {'ok  ' if passed else 'FAIL'} {text}")
        ok &= passed
    print(f"# all workloads: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def self_test():
    """Short runs of every workload: metric names and units as declared in
    BENCHMARK.json, no failures, and a planted fault counted as a failure."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    checks = [
        ("BENCHMARK.json names the workloads", [w["name"] for w in declared["workloads"]] == list(WORKLOADS))
    ]
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, 1 + trace, 1, trace, min_ops=1)
            got = json.loads(final_line(result))
            names = {k: v["unit"] for k, v in got["metrics"].items()}
            checks.append((f"{name} trace={trace}: every metric present with its unit", names == want[trace]))
            checks.append((f"{name} trace={trace}: failed_frac == 0 and correct", got["correct"] and got["failed"] == 0))
    for name in ("sim_bulk", "sim_fanout"):
        result = run_workload(name, 3, 1, 0, min_ops=2, fault=True)
        planted = result["failed"] == result["attempted"] > 0 and not result["correct"]
        checks.append((f"{name}: planted fault counted as {result['failed']}/{result['attempted']} failed", planted))
    for text, passed in checks:
        print(f"{'ok  ' if passed else 'FAIL'} {text}")
    return 0 if all(passed for _, passed in checks) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    mode.add_argument("--self-test", action="store_true", dest="self_test")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pdacache", "__init__.py")):
        print(f"error: no pdacache sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.self_test:
            return self_test()
        if args.all:
            return run_all(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(result)
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

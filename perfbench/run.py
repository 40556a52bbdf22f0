#!/usr/bin/env python3
"""QTLS end-to-end benchmark.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds qtls_bench from the checkout's sources (into .bench_build/), starts
the QTLS server in its own process and a closed-loop load process over TCP
loopback, measures a window of S seconds and prints, as its last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
the end-to-end metrics; --trace 1 runs untraced and then traced, and gives
the per-layer metrics with the tracing overhead. A run whose outputs or
conservation checks fail, or that is not a valid measurement, exits
non-zero and names the reason. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from qbench import harness, layers, metrics  # noqa: E402

WORKLOADS = ("full_handshake", "resumed_handshake", "bulk_download")
# Set-ups per run; setup_s is their median.
SETUPS = 11
WARMUP_S = {"full_handshake": 1.0, "resumed_handshake": 1.0,
            "bulk_download": 2.0}
DEADLINE_S = 170  # the whole invocation, build excluded


def on_deadline(signum, frame):
    raise harness.BenchError("run exceeded %d s" % DEADLINE_S)


def run(args):
    run_dir = os.path.join(harness.ROOT, ".bench_build", "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    warmup = WARMUP_S[args.workload]
    passes = [False, True] if args.trace else [False]
    results = {}
    for traced in passes:
        setup_times, server, load, load_ok = harness.measure(
            args.workload, args.seed, args.seconds, warmup, SETUPS, traced,
            os.path.join(run_dir, "traced" if traced else "untraced"))
        failures = server["failures"] + load["failures"]
        if not load_ok or failures:
            raise harness.BenchError("output checks failed: " + "; ".join(failures))
        e2e = metrics.end_to_end(args.workload, setup_times, server, load)
        diag, problems = metrics.diagnostics(args.workload, setup_times,
                                             server, load)
        print("%s diagnostics: %s" % ("traced" if traced else "untraced",
                                      json.dumps(diag, sort_keys=True)))
        if problems:
            raise harness.BenchError("invalid run: " + "; ".join(problems))
        results[traced] = (e2e, diag, setup_times, server, load)

    if args.trace:
        per_layer, report = layers.per_layer(args.workload, results[False],
                                             results[True])
        print("trace report: " + json.dumps(report, sort_keys=True))
        out = {k: {"value": v, "unit": layers.PER_LAYER[k][0]}
               for k, v in per_layer.items()}
        attempted = results[True][1]["units"]
    else:
        out = {k: {"value": v, "unit": metrics.END_TO_END[k][0]}
               for k, v in results[False][0].items()}
        attempted = results[False][1]["units"]
    shutil.rmtree(run_dir, ignore_errors=True)  # kept only when a run fails
    return {"correct": True, "attempted": attempted, "failed": 0, "metrics": out}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        harness.build()
        signal.signal(signal.SIGALRM, on_deadline)
        signal.alarm(DEADLINE_S)
        result = run(args)
        signal.alarm(0)
    except harness.BenchError as e:
        print("perfbench: FAILED: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

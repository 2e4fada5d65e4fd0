"""Run one workload of the slalomcover benchmark and print its metrics.

    python3 perfbench/run.py --workload cover-search --seed 1 --seconds 25 --trace 0

Run from anywhere; the library is imported from ../src relative to this
file.  Workloads: cover-search, cover-verify, tree-query, tree-rewrite
(see README.md).  The workload runs in its own process (worker.py).
With --trace 0 the end-to-end metrics are printed; set-up is measured
in SETUP_PROBES extra processes that stop once their inputs are built,
half started before the measured run and half after it, and setup_s is
the median over those and the measured run.  With --trace 1 a traced
run prints the per-layer table, each metric with the end-to-end metric
it is predicted to move.  Metric names and units come from
BENCHMARK.json, predictions from layers.json.

The last line is one JSON object: correct, attempted, failed, metrics.
The exit code is 1 when an oracle, the output digest recorded for this
seed in expected.json, or a recorded work count disagrees, and 2 when
the run cannot start (no sources, bad arguments, worker crash).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cover-search", "cover-verify", "tree-query", "tree-rewrite")
SETUP_PROBES = 6
DEADLINE_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def worker(args, extra, deadline):
    """Start worker.py, wait for its report; setup time is measured from
    just before the process is started to the moment its inputs are ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} worker passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        fail(f"{args.workload} worker exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["ready"] - start


def check_recorded(args, report):
    """Problems against the digest and work counts recorded for this seed."""
    recorded = json.loads((HERE / "expected.json").read_text())
    entry = recorded["runs"].get(args.workload, {}).get(str(args.seed))
    if entry is None:
        return [], "no digest recorded for this seed"
    out = []
    if entry["digest"] != report["digest"]:
        out.append(f"digest {report['digest'][:16]} != recorded {entry['digest'][:16]}")
    for name, want in entry["counts"].items():
        if report["counts"].get(name) != want:
            out.append(f"count {name} = {report['counts'].get(name)} != recorded {want}")
    return out, "matches the recorded digest and counts" if not out else "MISMATCH"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "slalomcover" / "__init__.py").is_file():
        fail(f"no slalomcover sources under {ROOT / 'src'}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S

    # the probes straddle the measured run, so setup_s samples the machine
    # over the whole run rather than over the first second of it
    probes = 0 if args.trace else SETUP_PROBES
    setups = [worker(args, ["--setup-only"], deadline)[1] for _ in range(probes // 2)]
    report, setup = worker(args, [], deadline)
    setups.append(setup)
    setups += [worker(args, ["--setup-only"], deadline)[1] for _ in range(probes - probes // 2)]

    problems = list(report["problems"])
    recorded_problems, recorded_note = check_recorded(args, report)
    problems += recorded_problems
    correct = report["n_problems"] == 0 and not recorded_problems

    w = args.workload
    print(f"{w} seed {args.seed}: {report['instances_per_pass']} instances per pass, "
          f"{report['passes']} timed passes, closed loop, one client")
    print(f"digest {report['digest']} ({recorded_note})")
    print(f"counts {json.dumps(report['counts'], sort_keys=True)}")
    print(f"failed_ratio = {report['failed_ratio']:.6g} ratio "
          f"({report['undecided']} budget-exhausted of {report['attempted']}; "
          f"{report['failed']} wrong or raised)")
    for p in problems:
        print(f"PROBLEM {p}")

    if args.trace:
        metrics = per_layer(w, report, bench["per_layer"])
    else:
        report["setup_s"] = statistics.median(setups)
        metrics = {m["name"]: {"value": report[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        print(f"  latencies: each instance's upper quartile over {report['passes']} passes; "
              f"throughput_per_s is the rate at the upper quartile of pass times; "
              f"latency_tail_ms is p{report['tail_percentile']:.4g} over "
              f"{report['instances_per_pass']} instances; setup_s is the median of "
              f"{len(setups)} set-ups; the timed phase as a whole ran "
              f"{report['timed_phase_per_s']:.6g} instances/s")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


def per_layer(workload, report, names):
    """Print the per-layer table with its predictions and the stress check;
    return every per-layer metric, 0 for spans this workload never calls."""
    layers = json.loads((HERE / "layers.json").read_text())
    table = report["layers"]
    print(f"{'metric':<42} {'value':>14} unit    predicted to move")
    metrics = {}
    for m in names:
        value = table.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if m["name"] in table:
            print(f"{m['name']:<42} {value:>14.6g} {m['unit']:<7} "
                  f"{layers['predictions'][m['name']]}")
    busy = {k[:-len(".busy_s")]: v for k, v in table.items()
            if k.endswith(".busy_s") and not k.startswith("scales.")}
    stress = layers["stress"][workload]
    share = sum(v for k, v in busy.items()
                if any(k.startswith(s) for s in stress["spans"])) / sum(busy.values())
    print(f"stress: {stress['claim']}: {share:.1%} of traced busy time "
          f"({'holds' if share > 0.5 else 'DOES NOT HOLD'})")
    return metrics


if __name__ == "__main__":
    sys.exit(main())

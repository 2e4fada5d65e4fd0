"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload tree-query --seeds 1-10 [--seconds 25]
    python3 perfbench/spread.py --workload tree-query --seeds 0-15 --record

Prints, per end-to-end metric, the median, the quartiles and the spread
(quartile distance over median, as statistics.quantiles(n=4) gives
them), and checks that every run was correct.  With --record the output
digest and work counts of each seed go into expected.json, which every
later run of that seed is checked against.  With --trace the traced
per-layer table is collected instead and --baseline stores the medians
under the workload in baseline.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    a, _, b = text.partition("-")
    return list(range(int(a), int(b or a) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode not in (0, 1):
        sys.exit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    counts = json.loads(next(l[len("counts "):] for l in lines if l.startswith("counts ")))
    if proc.returncode != 0 or not result["correct"]:
        print("\n".join(l for l in lines if l.startswith("PROBLEM")), file=sys.stderr)
        sys.exit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return result, digest, counts


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args()
    values, recorded = {}, {}
    for seed in args.seeds:
        result, digest, counts = run(args.workload, seed, args.seconds, args.trace)
        recorded[str(seed)] = {"digest": digest, "counts": counts}
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = {} if args.trace else result["metrics"]
        print(f"seed {seed}: correct " + " ".join(f"{n}={m['value']:.5g}"
                                                  for n, m in shown.items()), flush=True)
    summary = {}
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = med
        if not args.trace:
            print(f"{name:<20} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f}")
    if args.record:
        path = HERE / "expected.json"
        doc = json.loads(path.read_text())
        doc["runs"].setdefault(args.workload, {}).update(recorded)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if args.baseline:
        path = HERE / "baseline.json"
        doc = json.loads(path.read_text()) if path.exists() else {}
        key = "per_layer" if args.trace else "end_to_end"
        doc.setdefault(key, {})[args.workload] = {"seeds": args.seeds, "median": summary}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

"""One workload in one single-threaded process.

Draws the workload's inputs from the seed as plain data and builds the
library objects from them, runs one verification pass whose outputs go
through the independent oracles and the output digest, then runs timed
passes over the same inputs as a closed loop with one client until the
requested seconds are used up.  Before each timed pass the library
objects are built afresh, untimed, so work an object saves for later
calls is paid again in every pass.  Every timed pass must reproduce the
verification pass's digest.  Prints one JSON report line.

Run through run.py; `--setup-only` stops once the inputs are built.
"""

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# latency_tail_ms is read at the highest percentile, by nearest rank, that
# has this many instances beyond it: the TAIL_BEYOND+1-th largest latency
TAIL_BEYOND = 10


class Untraced:
    """Calls straight through; the end-to-end runs use this."""

    @staticmethod
    def call(span, fn, *args):
        return fn(*args)


class Tracer:
    """A span around each call the harness makes into a layer.

    Spans are flat (the harness never calls one layer from inside
    another), so a span's busy time is also its self time.  Totals are
    kept per span name; errors are counted per layer, the span name's
    first component.
    """

    def __init__(self):
        self.calls = Counter()
        self.busy = Counter()
        self.errors = Counter()

    def call(self, span, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception:
            self.errors[span.split(".")[0]] += 1
            raise
        finally:
            self.busy[span] += time.perf_counter() - start
            self.calls[span] += 1


class Failed:
    """The raw output of an instance that raised."""

    def __init__(self, exc):
        self.kind = type(exc).__name__
        self.message = str(exc)[:200]


def run_pass(wl, instances, tr):
    raws, latencies = [], []
    start = time.perf_counter()
    for inst in instances:
        t0 = time.perf_counter()
        try:
            raw = wl.run(inst, tr)
        except Exception as exc:  # an instance that raises is counted, not fatal
            raw = Failed(exc)
        latencies.append(time.perf_counter() - t0)
        raws.append(raw)
    return raws, latencies, time.perf_counter() - start


def upper_quartile(xs):
    """The upper quartile by nearest rank."""
    return sorted(xs)[math.ceil(0.75 * len(xs)) - 1]


def summarize(wl, instances, raws):
    return [{"error": r.kind} if isinstance(r, Failed) else wl.summarize(i, r)
            for i, r in zip(instances, raws)]


def digest(summaries):
    h = hashlib.sha256()
    for s in summaries:
        h.update(json.dumps(s, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "slalomcover" / "__init__.py").is_file():
        sys.exit(f"worker: no slalomcover sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from cover_workloads import CoverSearch, CoverVerify
    from tree_workloads import TreeQuery, TreeRewrite

    wl = {"cover-search": CoverSearch, "cover-verify": CoverVerify,
          "tree-query": TreeQuery, "tree-rewrite": TreeRewrite}[args.workload]()
    setup_tr = Tracer() if args.trace else Untraced()
    plan = wl.plan(args.seed)
    instances = wl.build(plan, setup_tr)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    # verification pass: oracles, digest and work counts, untimed
    raws, _, _ = run_pass(wl, instances, Untraced())
    ref_digest = digest(summarize(wl, instances, raws))
    problems, n_failed, undecided = [], 0, 0
    for inst, raw in zip(instances, raws):
        if isinstance(raw, Failed):
            found = [f"raised {raw.kind}: {raw.message}"]
        else:
            found = wl.check(inst, raw)
            undecided += not found and wl.undecided(inst, raw)
        n_failed += bool(found)
        problems.extend(f"{wl.label(inst)}: {p}" for p in found)
    counts = wl.counts(instances, raws)

    passes = []  # (traced, latencies, wall, tracer)
    spent = 0.0
    while spent < args.seconds or (args.trace and len(passes) < 4):
        traced = bool(args.trace) and len(passes) % 2 == 1
        tr = Tracer() if traced else Untraced()
        instances = wl.build(plan, Untraced())
        raws, lat, wall = run_pass(wl, instances, tr)
        spent += wall
        passes.append((traced, lat, wall, tr))
        d = digest(summarize(wl, instances, raws))
        if d != ref_digest:
            problems.append(f"pass {len(passes)} digest {d[:16]} differs from "
                            f"verification pass {ref_digest[:16]}")
        del raws

    # Each instance's latency is the upper quartile of its repetitions
    # over the timed passes, and throughput is the rate of the pass at the
    # upper quartile of pass times.  A shared machine runs mostly at one
    # loaded speed, with bursts of seconds in which the same code runs up
    # to 1.5 times faster; fastest repetitions and medians move with how
    # many bursts a run happens to catch, the upper quartile keeps to the
    # loaded speed.  p50 and the tail are then taken over instances.
    per_pass = len(instances)
    untimed = [p for p in passes if not p[0]]
    latencies = sorted(upper_quartile([p[1][i] for p in untimed]) for i in range(per_pass))
    beyond = min(TAIL_BEYOND, per_pass - 1)
    report = {
        "ready": ready,
        "instances_per_pass": per_pass,
        "passes": len(untimed),
        "attempted": per_pass * len(untimed),
        "failed": n_failed * len(untimed),
        "failed_ratio": (n_failed + undecided) / per_pass,
        "undecided": undecided * len(untimed),
        "digest": ref_digest,
        "counts": counts,
        "throughput_per_s": per_pass / upper_quartile([p[2] for p in untimed]),
        "timed_phase_per_s": per_pass * len(untimed) / sum(p[2] for p in untimed),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": latencies[per_pass - beyond - 1] * 1e3,
        "tail_percentile": 100 * (per_pass - beyond) / per_pass,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        report["layers"] = layer_table(passes, setup_tr, counts, problems)
    report["problems"] = problems[:20]
    report["n_problems"] = len(problems)
    print(json.dumps(report))


def layer_table(passes, setup_tr, counts, problems):
    """Per-pass calls and busy time (median over the traced passes per
    span) from the traced passes, setup spans from the setup tracer, work
    counts from the verification pass."""
    traced = [p[3] for p in passes if p[0]]
    walls_u = [p[2] for p in passes if not p[0]]
    walls_t = [p[2] for p in passes if p[0]]
    out = dict(counts)
    for tr in (traced[0], setup_tr):
        for span, n in tr.calls.items():
            out[f"{span}.calls"] = n
    for span in traced[0].busy:
        out[f"{span}.busy_s"] = statistics.median(tr.busy[span] for tr in traced)
    for span, busy in setup_tr.busy.items():
        out[f"{span}.busy_s"] = busy
    for tr in (traced[0], setup_tr):
        for layer, n in tr.errors.items():
            out[f"{layer}.errors"] = out.get(f"{layer}.errors", 0) + n
    if any(tr.calls != traced[0].calls for tr in traced):
        problems.append("span call counts differ between traced passes")
    out["trace.overhead_ratio"] = statistics.median(walls_t) / statistics.median(walls_u)
    return out


if __name__ == "__main__":
    main()

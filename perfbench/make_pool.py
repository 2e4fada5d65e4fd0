"""Regenerate pool.json, the frozen cover-search pool.

Structural rule: every (f, g) with window 1..3, 1 <= g(k) < f(k) <= 5,
levels sorted (the covering number does not depend on level order).
Each instance gets its exact covering number from the independent solver
below and the library's expected answer: None when the counting bound
exceeds the default budget of 64, which cover_number_exact cannot decide.
An instance is left out only when the library's exact search takes longer
than CAP_S seconds at the commit that froze the pool; it is listed with
its measured time so a later benchmark change can add it back.

    python3 perfbench/make_pool.py      # from the repository root; minutes
"""

import itertools
import json
import math
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from slalomcover import BoundFn, cover_number_exact  # noqa: E402

import oracles  # noqa: E402

CAP_S = 0.3
LIMIT_S = 2.0
BUDGET = 64


class _Timeout(Exception):
    pass


def _alarm(*_):
    raise _Timeout()


def structural_pool():
    pairs = [(f, g) for f in range(2, 6) for g in range(1, f)]
    for w in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(pairs, w):
            yield tuple(c[0] for c in combo), tuple(c[1] for c in combo)


def independent_exact(f, g):
    """Least number of g-slaloms covering prod f: iterative deepening over
    bitmask families with a memo of failed (uncovered, slots) states."""
    lower, upper = oracles.counting_bounds(f, g)
    branches = list(itertools.product(*(range(v) for v in f)))
    index = {b: i for i, b in enumerate(branches)}
    per_level = [list(itertools.combinations(range(fv), min(gv, fv)))
                 for fv, gv in zip(f, g)]
    masks = []
    for cells in itertools.product(*per_level):
        m = 0
        for b in itertools.product(*cells):
            m |= 1 << index[b]
        masks.append(m)
    by_branch = [[m for m in masks if m >> i & 1] for i in range(len(branches))]
    cover = math.prod(min(gv, fv) for fv, gv in zip(f, g))
    failed = set()

    def dfs(uncovered, slots):
        if not uncovered:
            return True
        if uncovered.bit_count() > slots * cover or (uncovered, slots) in failed:
            return False
        pivot = (uncovered & -uncovered).bit_length() - 1
        if any(dfs(uncovered & ~m, slots - 1) for m in by_branch[pivot]):
            return True
        failed.add((uncovered, slots))
        return False

    full = (1 << len(branches)) - 1
    for m in range(lower, upper + 1):
        if dfs(full, m):
            return m
    raise AssertionError("grid bound not reached")


def main():
    signal.signal(signal.SIGALRM, _alarm)
    pool, excluded = [], []
    for f, g in structural_pool():
        lower, upper = oracles.counting_bounds(f, g)
        entry = {"f": list(f), "g": list(g), "lower": lower, "upper": upper}
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
        try:
            got, _ = cover_number_exact(BoundFn(f), BoundFn(g))
        except _Timeout:
            got = "timeout"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        took = time.perf_counter() - start
        if got == "timeout" or took > CAP_S:
            excluded.append({**entry, "reason": (
                f"exact search over {LIMIT_S} s" if got == "timeout" else
                f"exact search took {took:.2f} s > {CAP_S} s")})
            continue
        exact = independent_exact(f, g)
        expected = exact if lower <= BUDGET and exact <= BUDGET else None
        if got != expected:
            raise SystemExit(f"library gives {got} on {f}/{g}, independent solver {exact}")
        pool.append({**entry, "exact": exact, "library": expected})
        print(f"{f}/{g}: exact {exact} in {took:.3f} s", file=sys.stderr)
    doc = {"rule": "window 1..3, 1 <= g(k) < f(k) <= 5, levels sorted",
           "budget": BUDGET, "cap_s": CAP_S, "pool": pool, "excluded": excluded}
    (HERE / "pool.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"kept {len(pool)}, excluded {len(excluded)}", file=sys.stderr)


if __name__ == "__main__":
    main()

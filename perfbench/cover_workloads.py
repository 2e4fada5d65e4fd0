"""The cover-search and cover-verify workloads.

Each workload draws its inputs from the seed as plain data (plan),
makes the library objects from that plan (build, called again before
every timed pass so no object outlives a pass), runs one instance
through the library's public functions, one span per call (run), turns
the raw output into plain data for the digest (summarize), checks it
against the oracles (check) and derives the per-layer work counts from
inputs and outputs (counts).
"""

import itertools
import json
import math
import random
from pathlib import Path

from slalomcover import (BoundFn, Slalom, SlalomFamily, cover_number_bounds,
                         cover_number_exact, covers, greedy_cover)
from slalomcover.reductions import (TransferSystem, addition_lift,
                                    allfunctions_system, block_coding_system,
                                    check_condition_c, family_pushforward,
                                    halving_lift, product_pair,
                                    transitivity_compose)

import oracles
from oracles import prod

POOL = Path(__file__).resolve().parent / "pool.json"


def family_sets(F):
    return [[sorted(s) for s in B.sets] for B in F]


def grid(f, g):
    """The axis-aligned grid cells of side g below f, as per-level lists."""
    per_level = [[list(range(i * gv, min((i + 1) * gv, fv))) for i in range(-(-fv // gv))]
                 for fv, gv in zip(f, g)]
    return [list(cells) for cells in itertools.product(*per_level)]


def make_family(cap, plain):
    return SlalomFamily(tuple(Slalom(cap, tuple(frozenset(s) for s in sets))
                              for sets in plain))


class CoverSearch:
    """Exact covering numbers over the frozen pool, plus greedy covers.

    Every pool instance runs cover_number_bounds and cover_number_exact;
    the window <= 2 instances also run greedy_cover.  The seed fixes the
    order of the instances.
    """

    def plan(self, seed):
        doc = json.loads(POOL.read_text())
        plan = [(kind, entry) for entry in doc["pool"]
                for kind in (("exact", "greedy") if len(entry["f"]) <= 2 else ("exact",))]
        random.Random(seed).shuffle(plan)
        return plan

    def build(self, plan, tr):
        return [(kind, tr.call("scales.validate", BoundFn, tuple(e["f"])),
                 tr.call("scales.validate", BoundFn, tuple(e["g"])), e)
                for kind, e in plan]

    def label(self, inst):
        kind, _, _, e = inst
        return f"{kind} {e['f']}/{e['g']}"

    def run(self, inst, tr):
        kind, f, g, _ = inst
        if kind == "greedy":
            return tr.call("covernum.greedy", greedy_cover, f, g)
        lower, upper, _ = tr.call("covernum.bounds", cover_number_bounds, f, g)
        m, fam = tr.call("covernum.exact", cover_number_exact, f, g)
        return lower, upper, m, fam

    def summarize(self, inst, raw):
        if inst[0] == "greedy":
            return {"greedy": family_sets(raw)}
        lower, upper, m, fam = raw
        return {"lower": lower, "upper": upper, "exact": m,
                "family": family_sets(fam) if fam is not None else None}

    def check(self, inst, raw):
        kind, _, _, e = inst
        f, g = e["f"], e["g"]
        if kind == "greedy":
            return oracles.check_family(family_sets(raw), f, g)
        lower, upper, m, fam = raw
        out = []
        if (lower, upper) != oracles.counting_bounds(f, g):
            out.append(f"bounds {(lower, upper)} disagree with the counting bounds")
        if m != e["library"]:
            out.append(f"exact {m}, frozen table says {e['library']}")
        if fam is not None:
            out.extend(oracles.check_family(family_sets(fam), f, g, max_size=m))
        return out

    def undecided(self, inst, raw):
        return inst[0] == "exact" and raw[2] is None

    def counts(self, insts, raws):
        exact = [(i, r) for i, r in zip(insts, raws) if i[0] == "exact"]
        greedy = [(i, r) for i, r in zip(insts, raws) if i[0] == "greedy"]
        decided = [(i, r) for i, r in exact if r[2] is not None]
        return {
            "covernum.exact.decided_ratio": len(decided) / len(exact),
            "covernum.exact.depths": sum(r[2] - r[0] + 1 for _, r in decided),
            "covernum.exact.candidates": sum(
                prod(math.comb(fv, gv) for fv, gv in zip(i[3]["f"], i[3]["g"]))
                for i, _ in exact),
            "covernum.greedy.useful_ratio":
                sum(i[3]["exact"] for i, _ in greedy) / sum(len(r) for _, r in greedy),
        }


# cover-verify sizes: (f, g) for grids and random families, lift inputs
GRID_SIZES = [((10, 10), (2, 2)), ((5, 5, 5), (2, 2, 2)),
              ((10, 10, 10), (2, 2, 2)), ((10, 10, 10, 10), (5, 5, 5, 5))]
# kept cheaper than the fixed heavy instances, so a random family's cost
# never sets latency_tail_ms
RANDOM_SIZES = [((6, 6, 6), (3, 3, 3)), ((4, 4, 4, 4), (2, 2, 2, 2)),
                ((6, 6, 6), (2, 2, 2)), ((10, 10, 10), (5, 5, 5))]
HALVING = [((6, 6), (3, 3)), ((5, 5, 5), (2, 2, 2)), ((7, 7, 7), (3, 3, 3))]
ADDITION = [((6, 6), (2, 2)), ((5, 5, 5), (2, 2, 2)), ((7, 7, 7), (2, 2, 2))]
COMPOSE = [((6, 6), (3, 3), (1, 1)), ((10, 10, 10), (5, 5, 5), (2, 2, 2)),
           ((20, 20, 20), (10, 10, 10), (5, 5, 5))]
PRODUCT = [((4, 4), (2, 2), (3, 3), (1, 1)), ((4, 4, 4), (2, 2, 2), (3, 3, 3), (2, 2, 2)),
           ((5, 5, 5), (2, 2, 2), (3, 3, 3), (2, 2, 2))]
SYSTEM_BATCHES, SOUND_PER_BATCH, UNSOUND_PER_BATCH = 40, 10, 2
BLOCK_CODINGS = [((3, 4), (2, 2), [0, 2]), ((4, 4), (2, 3), [0, 1, 2]),
                 ((2, 3, 4), (1, 2, 2), [0, 1, 3]), ((3, 3, 2, 2), (2, 1, 1, 1), [0, 2, 4]),
                 ((4, 3, 2), (3, 2, 1), [0, 2, 3])]
ALLFN = [(1, 1), (1, 2), (2, 1), (2, 2)]

LIFTS = {"halving": halving_lift, "addition": addition_lift,
         "compose": transitivity_compose, "product": product_pair}


class CoverVerify:
    """Covering checks, transfer systems and lifts; no exact search.

    Grid covers come whole (verdict True), without the cell holding the
    lex-first branch (witness first) and without the cell holding the
    lex-last branch (witness late).  Random families come alone (a gap
    somewhere) and shuffled into a grid (covering).  The seed draws the
    random slaloms and the random transfer systems and orders the
    instances.  Grids, lift inputs, the share of sound systems and the
    block codings are fixed (the order of a family alone moves the cost
    of a covering check by a fifth), so the cost of a pass hardly depends
    on the seed.
    """

    def plan(self, seed):
        rng = random.Random(seed)
        plan = []
        for f, g in GRID_SIZES:
            cells = grid(f, g)
            plan += [("covers", (f, g, cells)), ("covers", (f, g, cells[1:])),
                     ("covers", (f, g, cells[:-1]))]
        for f, g in RANDOM_SIZES:
            cells = grid(f, g)
            rand = [[sorted(rng.sample(range(fv), gv)) for fv, gv in zip(f, g)]
                    for _ in cells]
            mixed = cells + rand
            rng.shuffle(mixed)
            plan += [("covers", (f, g, rand)), ("covers", (f, g, mixed))]

        # criterion 2 shape: random systems in batches with a fixed share of
        # sound ones, so every batch costs about the same; the batches hold
        # the median instance, and twelve systems a batch keep its cost
        # from following the seed's draws
        for _ in range(SYSTEM_BATCHES):
            want = {True: SOUND_PER_BATCH, False: UNSOUND_PER_BATCH}
            batch = []
            while any(want.values()):
                system = self._random_system(rng)
                sound = oracles.condition_c(*system)
                if want[sound]:
                    want[sound] -= 1
                    batch.append(system)
            rng.shuffle(batch)
            plan.append(("systems", batch))
        plan += [("block", spec) for spec in BLOCK_CODINGS]
        plan += [("allfn", spec) for spec in ALLFN]
        plan += [("lift", ("halving", spec)) for spec in HALVING]
        plan += [("lift", ("addition", spec)) for spec in ADDITION]
        plan += [("lift", ("compose", spec)) for spec in COMPOSE]
        plan += [("lift", ("product", spec)) for spec in PRODUCT]
        rng.shuffle(plan)
        return plan

    @staticmethod
    def _random_system(rng):
        """A random transfer system as plain data (fp, gp, f, g, blocks, maps)."""
        window = rng.randint(1, 3)
        f = tuple(rng.randint(2, 4) for _ in range(window))
        g = tuple(rng.randint(1, v - 1) for v in f)
        n_blocks = rng.randint(1, window)
        cuts = [0] + sorted(rng.sample(range(1, window), n_blocks - 1)) + [window]
        blocks = tuple(tuple(range(a, b)) for a, b in zip(cuts, cuts[1:]))
        fp = tuple(rng.randint(2, 4) for _ in blocks)
        gp = tuple(rng.randint(1, 3) for _ in blocks)
        maps = tuple(tuple(tuple(rng.randrange(f[l]) for _ in range(fp[i])) for l in w)
                     for i, w in enumerate(blocks))
        return fp, gp, f, g, blocks, maps

    def build(self, plan, tr):
        bound = lambda v: tr.call("scales.validate", BoundFn, tuple(v))  # noqa: E731
        return [(kind, getattr(self, f"_build_{kind}")(spec, bound)) for kind, spec in plan]

    @staticmethod
    def _build_covers(spec, bound):
        f, g, plain = spec
        fb = bound(f)
        return {"F": make_family(fb, plain), "f": fb, "g": bound(g), "plain": plain, "fv": f}

    @staticmethod
    def _build_systems(batch, bound):
        out = []
        for plain in batch:
            fp, gp, f, g, blocks, maps = plain
            fb, gb = bound(f), bound(g)
            out.append({"T": TransferSystem(fb, gb, bound(fp), bound(gp), blocks, maps),
                        "G": make_family(fb, grid(f, g)), "plain": plain})
        return out

    @staticmethod
    def _build_block(spec, bound):
        f, g, cuts = spec
        return {"f": bound(f), "g": bound(g), "cuts": cuts, "fv": f}

    @staticmethod
    def _build_allfn(spec, bound):
        n, blocks = spec
        return {"n": n, "blocks": blocks}

    @staticmethod
    def _build_lift(spec, bound):
        name, sizes = spec

        def cover_of(f, g):
            return make_family(bound(f), grid(f, g))

        if name in ("halving", "addition"):
            f, g = sizes
            return {"lift": name, "args": (bound(f), bound(g), cover_of(f, g)),
                    "target": [a * (a // b) if name == "halving" else 2 * a - b
                               for a, b in zip(f, g)],
                    "bound": list(f), "max": prod(-(-a // b) for a, b in zip(f, g))}
        if name == "compose":
            f, g, h = sizes
            G, H = cover_of(f, g), cover_of(g, h)
            return {"lift": name, "args": (G, H, bound(f), bound(g), bound(h)),
                    "target": list(f), "bound": list(h), "max": len(G) * len(H)}
        f, g, f2, g2 = sizes
        G, G2 = cover_of(f, g), cover_of(f2, g2)
        return {"lift": name, "args": (G, G2, bound(f), bound(g), bound(f2), bound(g2)),
                "target": [a * b for a, b in zip(f, f2)],
                "bound": [a * b for a, b in zip(g, g2)], "max": len(G) * len(G2)}

    def label(self, inst):
        kind, d = inst
        return kind if kind == "systems" else f"{kind} {d.get('lift', '')}{d.get('fv', '')}"

    def run(self, inst, tr):
        kind, d = inst
        if kind == "covers":
            ok, wit = tr.call("slaloms.covers", covers, d["F"], d["g"], d["f"])
            return ok, wit.values if wit is not None else None
        if kind == "systems":
            out = []
            for s in d:
                ok, wit = tr.call("reductions.condition_c", check_condition_c, s["T"])
                pushed = (tr.call("reductions.pushforward", family_pushforward, s["T"], s["G"], True)
                          if ok else None)
                out.append((ok, wit, pushed))
            return out
        if kind == "block":
            return tr.call("reductions.system", block_coding_system, d["f"], d["g"], d["cuts"])
        if kind == "allfn":
            return tr.call("reductions.system", allfunctions_system, d["n"], d["blocks"])
        return tr.call(f"reductions.lift.{d['lift']}", LIFTS[d["lift"]], *d["args"])

    def summarize(self, inst, raw):
        kind, _ = inst
        if kind == "covers":
            return {"covers": raw[0], "witness": raw[1]}
        if kind == "systems":
            return [{"c": ok,
                     "witness": None if ok else [wit[0], {str(l): sorted(u) for l, u in wit[1].items()}],
                     "pushed": family_sets(pushed) if pushed is not None else None}
                    for ok, wit, pushed in raw]
        if kind in ("block", "allfn"):
            return {"fp": raw.fp.values, "gp": raw.gp.values, "blocks": raw.blocks,
                    "maps": raw.maps}
        return {"lift": family_sets(raw)}

    def check(self, inst, raw):
        kind, d = inst
        if kind == "covers":
            return oracles.check_cover_verdict(d["plain"], d["fv"], *raw)
        if kind == "systems":
            out = []
            for s, (ok, wit, pushed) in zip(d, raw):
                out += oracles.check_condition_c(*s["plain"], ok, wit)
                if pushed is not None:
                    fp, gp = s["plain"][:2]
                    out += oracles.check_family(family_sets(pushed), fp, gp, max_size=len(s["G"]))
            return out
        if kind in ("block", "allfn"):
            T = raw
            plain = (T.fp.values, T.gp.values, T.f.values, T.g.values, T.blocks, T.maps)
            out = [] if oracles.condition_c(*plain) else ["system fails condition (c)"]
            if kind == "block":
                blocks = [list(range(a, b)) for a, b in zip(d["cuts"], d["cuts"][1:])]
                if list(T.fp.values) != [prod(d["fv"][l] for l in w) for w in blocks]:
                    out.append("block product f' is wrong")
            elif list(T.fp.values) != [2 ** i for i in range(d["blocks"])]:
                out.append("all-functions f' is wrong")
            return out
        return oracles.check_family(family_sets(raw), d["target"], d["bound"], max_size=d["max"])

    def undecided(self, inst, raw):
        return False

    def counts(self, insts, raws):
        cov = [(d, r) for (k, d), r in zip(insts, raws) if k == "covers"]
        sysm = [(s, r) for (k, d), rs in zip(insts, raws) if k == "systems"
                for s, r in zip(d, rs)]
        lifts = [d for k, d in insts if k == "lift"]
        return {
            "slaloms.covers.pass_ratio": sum(r[0] for _, r in cov) / len(cov),
            "slaloms.covers.branches": sum(
                prod(d["fv"]) if r[0] else oracles.lex_rank(r[1], d["fv"]) + 1
                for d, r in cov),
            "reductions.condition_c.pass_ratio": sum(r[0] for _, r in sysm) / len(sysm),
            "reductions.condition_c.subsets": sum(
                oracles.subsets_bound(*d["plain"][:2]) for d, _ in sysm),
            "reductions.pushforward.target_branches": sum(
                prod(d["plain"][0]) for d, r in sysm if r[0]),
            "reductions.lift.target_branches": sum(prod(d["target"]) for d in lifts),
        }

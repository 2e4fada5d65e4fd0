"""The tree-query and tree-rewrite workloads (same interface as
cover_workloads: plan, build, label, run, summarize, check, undecided,
counts)."""

import json
import random

from slalomcover import serde
from slalomcover.conditions import (NormedTree, ProductCondition, level,
                                    level_size_check, linear_tree, prune,
                                    splitting_levels, to_normal_form, trim,
                                    validate_condition)
from slalomcover.extraction import (FiniteName, check_smalllevel,
                                    densify_decide, extract_slalom,
                                    property_III, property_V)
from slalomcover.game import (accountant_bookkeeping,
                              make_thinning_spendthrift, play,
                              spendthrift_minimal, thinning)
from slalomcover.scales import BoundFn, validate_scale, validate_triple

import oracles


def facts(p):
    """The oracle's view of a library condition, from its plain data."""
    trees = {c: (t.depth, t.triple.f.values, t.triple.g.values, t.triple.h.values, t.nodes)
             for c, t in p.trees}
    scale = p.trees[0][1].triple.scale
    return oracles.ConditionFacts(trees, scale.lo, scale.hi)


def node_sets(p):
    return {c: t.nodes for c, t in p.trees}


def scale_and_triple(tr, lo, hi, f, g, h):
    s = tr.call("scales.validate", validate_scale, lo, hi)
    t = tr.call("scales.validate", validate_triple, BoundFn(f), BoundFn(g), BoundFn(h), s)
    return s, t


def triple_dict(f, g, h, lo, hi):
    return {"f": list(f), "g": list(g), "h": list(h), "scale": {"lo": list(lo), "hi": list(hi)}}


def condition_json(depth, triple, trees):
    """JSON text in serde's condition format, written by the harness."""
    return json.dumps({"depth": depth, "coords": {
        c: {"depth": depth, "triple": triple, "nodes": sorted(list(n) for n in nodes)}
        for c, nodes in trees.items()}})


def linear_nodes(values):
    return {tuple(values[:k]) for k in range(len(values) + 1)}


# tree-query shapes: bushy depth-3 trees and single wide splits with a name
GAME_LO, GAME_F = (2, 7, 10 ** 6), (3, 2402, 10 ** 7)
EXT_LO, EXT_HI = (2, 100), (40, 2000)
ZETA = ((32, 2000), (2, 100), (2, 100))
XI = ((16, 2000), (10, 1000), (2, 100))
BUSHY_W = (100, 200)
SPLIT_W = (200, 400)


class TreeQuery:
    """A few large conditions answering many read-only queries.

    Bushy: two root children, each with W level-1 successors, each
    continued linearly to depth 3.  Split: one level-1 split of width w
    carrying a name that decides its first value, so property V and III
    hold and scan every tuple.  The seed draws the node values and the
    name, and orders the queries.
    """

    def __init__(self):
        self._facts = {}

    def plan(self, seed):
        rng = random.Random(seed)
        conds = []
        for w in BUSHY_W:
            nodes = {(), (0,), (1,)}
            for a in (0, 1):
                for v in rng.sample(range(GAME_F[1]), w):
                    nodes.update({(a, v), (a, v, rng.randrange(GAME_F[2]))})
            b_vals = [rng.randrange(x) for x in GAME_F]
            conds.append((f"bushy{w}", "bushy", sorted(nodes), b_vals, None))
        for w in SPLIT_W:
            v0 = rng.randrange(ZETA[0][0])
            nodes = {(), (v0,)} | {(v0, x) for x in rng.sample(range(ZETA[0][1]), w)}
            b_vals = (rng.randrange(ZETA[0][0]), rng.randrange(ZETA[0][1]))
            first = rng.randrange(16)
            labels = tuple(((leaf, b_vals), (first, rng.randrange(100)))
                           for leaf in sorted(n for n in nodes if len(n) == 2))
            conds.append((f"split{w}", "split", sorted(nodes), b_vals, labels))
        order = []
        for name, kind, *_ in conds:
            queries = [("validate",), ("splitting_levels",), ("level_size_check",),
                       ("smalllevel",)] + [("level", k) for k in range(4 if kind == "bushy" else 3)]
            if kind == "split":
                queries += [("property_V",), ("property_III",)]
            order += [(q, name) for q in queries]
        rng.shuffle(order)
        return conds, order

    def build(self, plan, tr):
        conds, order = plan
        _, game = scale_and_triple(tr, GAME_LO, GAME_F, GAME_F, GAME_LO, GAME_LO)
        _, zeta = scale_and_triple(tr, EXT_LO, EXT_HI, *ZETA)
        built = {}
        for name, kind, nodes, b_vals, labels in conds:
            if kind == "bushy":
                p = ProductCondition((("a", NormedTree(3, game, frozenset(nodes))),
                                      ("b", linear_tree(3, game, b_vals))))
                built[name] = (p, None)
            else:
                p = ProductCondition((("a", NormedTree(2, zeta, frozenset(nodes))),
                                      ("b", linear_tree(2, zeta, b_vals))))
                built[name] = (p, FiniteName(p, labels, BoundFn((16, 100))))
        return [(q, name, *built[name]) for q, name in order]

    def label(self, inst):
        return f"{inst[1]} {inst[0]}"

    def run(self, inst, tr):
        q, _, p, tau = inst
        op = q[0]
        if op == "validate":
            return tr.call("conditions.validate", validate_condition, p)
        if op == "level":
            return tr.call("conditions.level", level, p, q[1])
        if op == "splitting_levels":
            return tr.call("conditions.splitting_levels", splitting_levels, p)
        if op == "level_size_check":
            return tr.call("conditions.level_size_check", level_size_check, p)
        if op == "smalllevel":
            return tr.call("extraction.smalllevel", check_smalllevel, p)
        fn = property_V if op == "property_V" else property_III
        return tr.call(f"extraction.{op}", fn, p, tau)

    def summarize(self, inst, raw):
        op = inst[0][0]
        if op == "level":
            return {"size": len(raw), "active": list(raw.active), "tuples": raw.tuples}
        if op == "splitting_levels":
            return raw
        if op in ("validate", "level_size_check", "smalllevel"):
            return {"ok": raw[0], "violations": sorted(map(str, raw[1]))}
        return raw

    def check(self, inst, raw):
        q, name, p, tau = inst
        if name not in self._facts:
            self._facts[name] = facts(p)
        fx = self._facts[name]
        op = q[0]
        if op == "level":
            want = fx.level_tuples(q[1])
            if list(raw.tuples) != want or list(raw.active) != fx.active(q[1]):
                return [f"level {q[1]} differs from the oracle's {len(want)} tuples"]
            return []
        if op == "splitting_levels":
            return [] if list(raw) == fx.splitting_levels() else ["splits differ"]
        if op == "validate":
            got, want = raw[0], fx.valid
        elif op == "level_size_check":
            got, want = raw[0], fx.level_size_ok()
        elif op == "smalllevel":
            got, want = raw[0], fx.smalllevel_ok()
        elif op == "property_V":
            got, want = raw, fx.property_V(dict(tau.labels))
        else:
            got, want = raw, fx.property_III(dict(tau.labels))
        return [] if got == want else [f"verdict {got}, oracle says {want}"]

    def undecided(self, inst, raw):
        return False

    def counts(self, insts, raws):
        return {
            "conditions.validate.nodes": sum(
                len(t.nodes) for (q, _, p, _) in insts if q[0] == "validate" for _, t in p.trees),
            "conditions.level.tuples": sum(
                len(r) for (q, *_), r in zip(insts, raws) if q[0] == "level"),
        }


# tree-rewrite shapes (acceptance criteria 6-8)
T1_LO, T1_HI = (2, 8, 128), (3, 12, 200)
T1_F = (3, 12, 200)
GAME_WIDTHS = {343: 686, 2401: 2402}  # split width -> f(1) = hi_1
GAME_F_SIZE = {343: 49, 2401: 343}    # thinning subsets keeping half the norm
# game conditions per width: with three, the fifteen width-2401 game
# instances, whose cost the seed hardly moves, are the slowest, so they
# and not the seed's largest extraction set latency_tail_ms
GAME_CONDITIONS = 3
REWRITES = 300
EXTRACTIONS = 24
# Round budgets for play.  A round's split lies strictly above the previous
# round's level and the next round starts one level below that split, so a
# depth-2 condition completes at most one round and a budget of 2 reaches
# exhaustion; larger budgets repeat budget 2's work.  A deeper condition
# does not help: round n needs a split of norm above n at level 2n-1 or
# deeper, so of width at least lo_k**(n+2), and a scale has
# lo_{k+1} > lo_k * hi_k, so lo_3 > 676 and round 2 alone needs over
# 10**11 successors.
ROUNDS = (1, 2)


def decode_condition(text):
    return serde.condition_from_dict(json.loads(text))


def decode_name(text, host):
    return serde.name_from_dict(json.loads(text), host)


def encode_condition(p):
    return json.dumps(serde.condition_to_dict(p), sort_keys=True)


def last_successor(p, split):
    _, c, eta = split
    return max(n for n in p[c].nodes if len(n) == len(eta) + 1 and n[:-1] == eta)


class TreeRewrite:
    """Many small conditions decoded from JSON and rewritten.

    Random T1 conditions (criterion 6 shape) go through normal form, trim
    and prune; random single-split conditions with random names
    (criterion 8 shape) through densification and extraction; the game
    conditions (criterion 7 shape, splits of width 343 and 2401) through
    play with round budgets 1 and 2 against both spendthrifts, and
    thinning.  The seed
    draws every tree, name and thinning subset.
    """

    def plan(self, seed):
        rng = random.Random(seed)
        plan = []
        t1 = triple_dict(T1_F, T1_LO, T1_LO, T1_LO, T1_HI)
        for _ in range(REWRITES):
            depth = rng.randint(1, 3)
            trees = {f"c{i}": self._random_t1_tree(rng, depth)
                     for i in range(rng.randint(1, 3))}
            plan.append(("rewrite", {"text": condition_json(depth, t1, trees),
                                     "pick": rng.randrange(1 << 16)}))

        zeta = triple_dict(*ZETA, EXT_LO, EXT_HI)
        for _ in range(EXTRACTIONS):
            plan.append(("extract", self._extraction_instance(rng, zeta)))

        for width, hi1 in sorted(GAME_WIDTHS.items()) * GAME_CONDITIONS:
            hi = (3, hi1, 10 ** 7)
            a0 = rng.randrange(3)
            succ = sorted((a0, x) for x in rng.sample(range(hi1), width))
            trees = {"a": {()} | {(a0,)} | set(succ),
                     "b": linear_nodes((rng.randrange(3), rng.randrange(hi1)))}
            text = condition_json(2, triple_dict(hi, GAME_LO, GAME_LO, GAME_LO, hi), trees)
            F = {("a", (a0,)): sorted(rng.sample(succ, GAME_F_SIZE[width]))}
            for rounds in ROUNDS:
                for name in ("minimal", "thinning"):
                    plan.append(("play", {"text": text, "rounds": rounds, "strategy": name,
                                          "F": F, "width": width, "hi": hi}))
            plan.append(("thinning", {"text": text, "F": F, "width": width}))
        rng.shuffle(plan)
        return plan

    def build(self, plan, tr):
        """Validates the scales and triples the texts name, and makes the
        target triple and the spendthrift strategies; the conditions
        themselves are decoded inside each instance."""
        scale_and_triple(tr, T1_LO, T1_HI, T1_F, T1_LO, T1_LO)
        _, xi = scale_and_triple(tr, EXT_LO, EXT_HI, *XI)
        scale_and_triple(tr, EXT_LO, EXT_HI, *ZETA)
        for hi in sorted({d["hi"] for kind, d in plan if kind == "play"}):
            scale_and_triple(tr, GAME_LO, hi, hi, GAME_LO, GAME_LO)
        insts = []
        for kind, d in plan:
            if kind == "extract":
                d = {**d, "xi": xi}
            elif kind == "play":
                d = {**d, "fn": spendthrift_minimal if d["strategy"] == "minimal"
                     else make_thinning_spendthrift(d["F"])}
            insts.append((kind, d))
        return insts

    @staticmethod
    def _random_t1_tree(rng, depth):
        """At most one split per branch, fan 2-3 (T1 norms are all 0)."""
        nodes, frontier = {()}, [((), False)]
        for k in range(depth):
            nxt = []
            for node, split_seen in frontier:
                fan = rng.randint(2, min(3, T1_F[k])) if not split_seen and rng.random() < 0.4 else 1
                for v in rng.sample(range(T1_F[k]), fan):
                    nodes.add(node + (v,))
                    nxt.append((node + (v,), split_seen or fan > 1))
            frontier = nxt
        return nodes

    @staticmethod
    def _extraction_instance(rng, zeta):
        """One split of width 16-32 among 1-3 coordinates, a random name
        with more values than the target allows, and a random A."""
        width = rng.randint(16, 32)
        coords = [f"c{i}" for i in range(rng.randint(1, 3))]
        split_at = rng.randrange(len(coords))
        f0, f1 = ZETA[0]
        trees = {}
        for i, c in enumerate(coords):
            if i == split_at:
                nodes = {()}
                for v in rng.sample(range(f0), width):
                    nodes |= {(v,), (v, rng.randrange(f1))}
                trees[c] = nodes
            else:
                trees[c] = linear_nodes((rng.randrange(f0), rng.randrange(f1)))
        leaves = [sorted(n for n in trees[c] if len(n) == 2) for c in coords]
        branches = [[]]
        for ls in leaves:
            branches = [b + [list(n)] for b in branches for n in ls]
        name = {"bound": [16, 100], "branches": [
            {"tuple": br, "tau": [rng.randrange(16), rng.randrange(100)]} for br in branches]}
        return {"text": condition_json(2, zeta, trees), "name": json.dumps(name),
                "A": frozenset(c for c in coords if rng.random() < 0.3)}

    def label(self, inst):
        kind, d = inst
        return f"{kind} {d.get('strategy', '')}{d.get('rounds', '')} {d['text'][:40]}"

    def run(self, inst, tr):
        kind, d = inst
        p = tr.call("serde.decode", decode_condition, d["text"])
        if kind == "rewrite":
            q = tr.call("conditions.normal_form", to_normal_form, p)
            top = tr.call("conditions.level", level, q, q.depth)
            r = tr.call("conditions.trim", trim, q, dict(zip(q.coords, top.tuples[0])))
            splits = tr.call("conditions.splitting_levels", splitting_levels, q)
            pr = None
            if splits:
                l = d["pick"] % len(splits)
                pr = tr.call("conditions.prune", prune, q, l, last_successor(q, splits[l]))
            texts = [tr.call("serde.encode", encode_condition, x) for x in (q, r, pr) if x]
            return p, q, len(top), r, pr, texts
        if kind == "extract":
            tau = tr.call("extraction.name", decode_name, d["name"], p)
            q = tr.call("extraction.densify", densify_decide, p, tau)
            q2, cover = tr.call("extraction.extract", extract_slalom, q, tau, d["A"], d["xi"])
            return p, tau, q, q2, cover, tr.call("serde.encode", encode_condition, q2)
        if kind == "play":
            t = tr.call("game.play", play, p, accountant_bookkeeping, d["fn"], d["rounds"])
            return p, t, tr.call("serde.encode", encode_condition, t.fused)
        q = tr.call("game.thinning", thinning, p, d["F"])
        return p, q, tr.call("serde.encode", encode_condition, q)

    def summarize(self, inst, raw):
        kind, _ = inst
        if kind == "rewrite":
            return raw[5]
        if kind == "extract":
            cover = raw[4]
            return {"plain": [[k, sorted(s) if s is not None else None] for k, s in cover.plain],
                    "fibers": [[k, [[list(key), sorted(v)] for key, v in fib]]
                               for k, fib in cover.fibers],
                    "q": raw[5]}
        if kind == "play":
            t = raw[1]
            return {"rounds": len(t.rounds), "exhausted": t.exhausted,
                    "forfeited": t.forfeited, "rule": t.forfeit_rule,
                    "splits": [[list(nu), a] for nu, a in t.designated_splits],
                    "fused": raw[2]}
        return raw[2]

    def check(self, inst, raw):
        kind, d = inst
        p = raw[0]
        if kind == "rewrite":
            _, q, _, r, pr, _ = raw
            fq = facts(q)
            out = [] if fq.valid and fq.is_normal_form() and oracles.leq(node_sets(p), node_sets(q)) \
                else ["normal form is invalid, stacked or not stronger"]
            fr = facts(r)
            if not (fr.valid and fr.level_size(r.depth) == 1 and oracles.leq(node_sets(q), node_sets(r))):
                out.append("trim is not a single valid branch below q")
            if pr is not None and not (facts(pr).valid and oracles.leq(node_sets(q), node_sets(pr))):
                out.append("prune is invalid or not stronger")
            return out
        if kind == "extract":
            _, tau, q, q2, cover, _ = raw
            labels = dict(tau.labels)
            fq, f2 = facts(q), facts(q2)
            out = []
            if not (fq.valid and fq.is_normal_form() and fq.property_V(labels)
                    and oracles.leq(node_sets(p), node_sets(q))):
                out.append("densified condition is invalid, stacked or undecided")
            if not (f2.valid and oracles.leq(node_sets(q), node_sets(q2))):
                out.append("extraction thinned to an invalid condition")
            plain = dict(cover.plain)
            fibers = {k: dict(fib) for k, fib in cover.fibers if plain.get(k) is None}
            return out + oracles.check_cover_of_name(
                f2.coords, f2.level_tuples(q2.depth), labels, plain, fibers, d["A"],
                d["xi"].g.values)
        if kind == "play":
            t = raw[1]
            ok = (not t.forfeited and len(t.rounds) <= d["rounds"]
                  and facts(t.fused).valid and oracles.leq(node_sets(p), node_sets(t.fused)))
            return [] if ok else ["fused condition is invalid, forfeited or not stronger"]
        q = raw[1]
        (c, n), allowed = next(iter(d["F"].items()))
        kept = {x for x in q[c].nodes if len(x) == len(n) + 1 and x[:-1] == n}
        ok = facts(q).valid and kept <= set(allowed) and oracles.leq(node_sets(p), node_sets(q))
        return [] if ok else ["thinning left successors outside F or broke validity"]

    def undecided(self, inst, raw):
        return False

    def counts(self, insts, raws):
        plays = [r[1] for (k, _), r in zip(insts, raws) if k == "play"]
        return {
            "conditions.level.tuples": sum(r[2] for (k, _), r in zip(insts, raws) if k == "rewrite"),
            "extraction.branches": sum(facts(r[3]).level_size(r[3].depth)
                                       for (k, _), r in zip(insts, raws) if k == "extract"),
            "game.play.rounds": sum(len(t.rounds) for t in plays),
            "game.play.exhausted_ratio": sum(t.exhausted for t in plays) / len(plays),
            "game.play.forfeits": sum(t.forfeited for t in plays),
            "serde.decode.bytes": sum(len(d["text"]) for _, d in insts),
        }

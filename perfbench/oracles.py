"""Independent oracles for the benchmark's outputs.

Nothing here imports slalomcover: every check re-derives its answer from
the definitions with plain loops over plain tuples, so the library's code
paths cannot share a bug with the check.  Each function returns a list of
problems; an empty list means the output agrees with the oracle.
"""

import itertools
import math


def prod(xs):
    p = 1
    for x in xs:
        p *= x
    return p


# ---------------------------------------------------------------- covering

def first_uncovered(family, f_values):
    """Lex-least branch below f in no slalom of the family, else None.

    family is a list of per-level sets; plain enumeration of the product.
    """
    for branch in itertools.product(*(range(v) for v in f_values)):
        if not any(all(v in s for v, s in zip(branch, sets)) for sets in family):
            return branch
    return None


def lex_rank(branch, f_values):
    """Position of the branch in the lexicographic order of the product."""
    r = 0
    for v, fv in zip(branch, f_values):
        r = r * fv + v
    return r


def check_cover_verdict(family, f_values, ok, witness):
    """covers() must say True exactly when enumeration finds no gap, and
    its witness must be the lex-least uncovered branch."""
    want = first_uncovered(family, f_values)
    if ok != (want is None):
        return [f"covering verdict {ok}, enumeration finds gap {want}"]
    if want is not None and tuple(witness) != want:
        return [f"witness {tuple(witness)} is not the lex-least gap {want}"]
    return []


def check_family(family, f_values, g_values, max_size=None):
    """A claimed covering family: level sets small, values in range, and
    every branch covered."""
    out = []
    if max_size is not None and len(family) > max_size:
        out.append(f"family of {len(family)} slaloms exceeds {max_size}")
    for i, sets in enumerate(family):
        for k, s in enumerate(sets):
            if not s or len(s) > g_values[k] or min(s) < 0 or max(s) >= f_values[k]:
                out.append(f"slalom {i} level {k} is not a valid set")
    gap = first_uncovered(family, f_values)
    if gap is not None:
        out.append(f"family misses branch {gap}")
    return out


def counting_bounds(f_values, g_values):
    """(ceil(prod f / prod g), prod ceil(f/g)), or (1, 1) when g >= f."""
    if all(fv <= gv for fv, gv in zip(f_values, g_values)):
        return 1, 1
    lower = -(-prod(f_values) // prod(g_values))
    upper = prod(-(-fv // gv) for fv, gv in zip(f_values, g_values))
    return lower, upper


# ------------------------------------------------------------ condition (c)

def condition_c(fp, gp, f, g, blocks, maps):
    """Direct enumeration over all u-choices: a violation is a block i and
    sets u_l of size g(l) with more than g'(i) joint preimages."""
    for i, w in enumerate(blocks):
        choices = [list(itertools.combinations(range(f[l]), min(g[l], f[l])))
                   for l in w]
        for u in itertools.product(*choices):
            sets = [set(x) for x in u]
            count = sum(1 for n in range(fp[i])
                        if all(maps[i][j][n] in sets[j] for j in range(len(w))))
            if count > gp[i]:
                return False
    return True


def check_condition_c(fp, gp, f, g, blocks, maps, ok, witness):
    """The verdict must match enumeration, and a failing verdict's witness
    (block i, u-choice) must really have too many joint preimages."""
    want = condition_c(fp, gp, f, g, blocks, maps)
    if ok != want:
        return [f"condition (c) verdict {ok}, enumeration says {want}"]
    if ok:
        return []
    i, u = witness
    w = blocks[i]
    if any(len(u[l]) > g[l] for l in w):
        return [f"witness u-choice at block {i} has an oversized set"]
    count = sum(1 for n in range(fp[i])
                if all(maps[i][j][n] in u[l] for j, l in enumerate(w)))
    if count <= gp[i]:
        return [f"witness at block {i} has only {count} <= {gp[i]} preimages"]
    return []


# ------------------------------------------------------------------- trees

def norm(g, h, size):
    """Largest m with g*h^m <= size, 0 when even m=1 fails."""
    m = 0
    while g * h ** (m + 1) <= size:
        m += 1
    return m


class TreeFacts:
    """Children, split indices and validity of one tree, by direct loops."""

    def __init__(self, depth, f, g, h, nodes):
        self.depth = depth
        self.nodes = set(nodes)
        self.children = {}
        for n in self.nodes:
            if n:
                self.children.setdefault(n[:-1], []).append(n)
        for kids in self.children.values():
            kids.sort()
        self.problems = []
        if () not in self.nodes:
            self.problems.append("root missing")
        for n in self.nodes:
            if len(n) > depth or (n and n[:-1] not in self.nodes):
                self.problems.append(f"{n} misplaced")
            if any(not 0 <= v < f[i] for i, v in enumerate(n)):
                self.problems.append(f"{n} out of range")
            if len(n) < depth:
                kids = self.children.get(n, [])
                if not kids:
                    self.problems.append(f"{n} has no successor")
                elif len(kids) > 1:
                    index = sum(1 for j in range(len(n))
                                if len(self.children.get(n[:j], [])) > 1)
                    if norm(g[len(n)], h[len(n)], len(kids)) < index:
                        self.problems.append(f"{n} split norm below index")
        self.splits = sorted((n for n in self.nodes
                              if len(n) < depth and len(self.children.get(n, [])) > 1),
                             key=lambda n: (len(n), n))

    def level(self, k):
        return sorted(n for n in self.nodes if len(n) == k)


class ConditionFacts:
    """Oracle view of a product condition given as plain data:
    coords -> (depth, f, g, h, nodes)."""

    def __init__(self, trees, lo, hi):
        self.coords = sorted(trees)
        self.trees = {c: TreeFacts(*trees[c]) for c in self.coords}
        self.params = trees
        self.depth = trees[self.coords[0]][0]
        self.lo, self.hi = lo, hi

    @property
    def valid(self):
        return not any(t.problems for t in self.trees.values())

    def level_size(self, k):
        return prod(len(self.trees[c].level(k)) for c in self.coords)

    def level_tuples(self, k):
        return list(itertools.product(*(self.trees[c].level(k) for c in self.coords)))

    def splitting_levels(self):
        return sorted((len(n), c, n) for c in self.coords for n in self.trees[c].splits)

    def stem_length(self, c):
        t = self.trees[c]
        return len(t.splits[0]) if t.splits else t.depth

    def active(self, k):
        return [c for c in self.coords if self.stem_length(c) <= k]

    def is_normal_form(self):
        levels = [k for k, _, _ in self.splitting_levels()]
        return len(levels) == len(set(levels))

    def split_norm(self, c, n):
        _, _, g, h, _ = self.params[c]
        return norm(g[len(n)], h[len(n)], len(self.trees[c].children[n]))

    def level_size_ok(self):
        lo, hi = self.lo, self.hi
        for k in range(1, self.depth + 1):
            bound = lo[k - 1] * hi[k - 1]
            if not (self.level_size(k) <= bound and (k >= len(lo) or bound < lo[k])):
                return False
        return True

    def smalllevel_ok(self):
        for k, c, n in self.splitting_levels():
            size = self.level_size(k)
            if not (2 * size < self.split_norm(c, n) and size < self.lo[k]):
                return False
        return True

    def decided_at(self, labels, key_len, upto):
        """True iff every level-key_len tuple sees one value of tau|upto
        on all the branches above it."""
        seen = {}
        for br, vals in labels.items():
            key = tuple(n[:key_len] for n in br)
            if seen.setdefault(key, vals[:upto]) != vals[:upto]:
                return False
        return True

    def property_V(self, labels):
        return all(self.decided_at(labels, k, k) for k, _, _ in self.splitting_levels())

    def property_III(self, labels):
        return all(self.decided_at(labels, k + 1, k) for k, _, _ in self.splitting_levels())


def leq(p_nodes, q_nodes):
    """q extends p: same coordinates or more, and every tree shrinks."""
    return set(p_nodes) <= set(q_nodes) and all(
        set(q_nodes[c]) <= set(p_nodes[c]) for c in p_nodes)


def check_cover_of_name(coords, branches, labels, plain, fibers, A, g_values):
    """An extracted cover: each level set small, and every branch's label
    value at every level lies in its level set (or its fiber's set)."""
    out = []
    for k, s in plain.items():
        if s is not None and len(s) > g_values[k]:
            out.append(f"level {k} set has {len(s)} > g={g_values[k]} values")
    for k, fib in fibers.items():
        if any(len(v) > g_values[k] for v in fib.values()):
            out.append(f"level {k} has an oversized fiber")
    for br in branches:
        vals = labels[br]
        for k in range(len(vals)):
            if plain.get(k) is not None:
                here = plain[k]
            else:
                key = tuple(n[:k + 1] for c, n in zip(coords, br) if c in A)
                here = fibers[k].get(key, ())
            if vals[k] not in here:
                out.append(f"branch {br} escapes the cover at level {k}")
                return out
    return out


def subsets_bound(fp, gp):
    """Sum over blocks of C(f'(i), g'(i)+1): the (c) search space size."""
    return sum(math.comb(a, b + 1) for a, b in zip(fp, gp) if b + 1 <= a)

"""Shared toy instances and independent oracles.

The oracles here deliberately re-derive results from first principles
(plain loops over the whole space) so the library implementations are
checked against something that cannot share their bugs.
"""

import itertools
import math

import pytest

from slalomcover.conditions import NormedTree, ProductCondition, level, linear_tree
from slalomcover.errors import GuardExceeded, ValidationFailure
from slalomcover.extraction import FiniteName
from slalomcover.norms import NormSpec, norm_value
from slalomcover.scales import BoundFn, validate_scale, validate_triple


# ---------------------------------------------------------------- oracles

def naive_member(values, sets):
    return all(v in s for v, s in zip(values, sets))


def naive_covers(family_sets, f_values):
    """Plain covering check: the first tuple below f, in lexicographic
    order, that threads no slalom, or None when every tuple threads one."""
    for branch in itertools.product(*(range(v) for v in f_values)):
        if not any(naive_member(branch, sets) for sets in family_sets):
            return branch
    return None


def _level_candidates(f_values, g_values):
    """Per level, every min(g, f)-subset of range(f) as a sorted tuple."""
    return [list(itertools.combinations(range(fv), min(gv, fv)))
            for fv, gv in zip(f_values, g_values)]


def naive_cover_number_exact(f_values, g_values, budget=64):
    """The exact search over lists of branch tuples that the bitset search
    replaced: iterative deepening from the counting bound, each node
    covering the least uncovered branch with every candidate holding it,
    in lexicographic order.  Returns (m, family as level-set tuples), or
    (None, None) when the budget runs out first."""
    if all(fv <= gv for fv, gv in zip(f_values, g_values)):
        return 1, [tuple(tuple(range(fv)) for fv in f_values)]
    lower = -(-math.prod(f_values) // math.prod(g_values))
    upper = math.prod(-(-fv // gv) for fv, gv in zip(f_values, g_values))
    per_level = _level_candidates(f_values, g_values)
    max_cover = math.prod(min(gv, fv) for fv, gv in zip(f_values, g_values))

    def dfs(uncovered, chosen, slots):
        if not uncovered:
            return list(chosen)
        if slots == 0 or len(uncovered) > slots * max_cover:
            return None
        pivot = uncovered[0]
        opts = [[s for s in sets if pivot[k] in s] for k, sets in enumerate(per_level)]
        for cand in itertools.product(*opts):
            rest = [b for b in uncovered if not naive_member(b, cand)]
            chosen.append(cand)
            found = dfs(rest, chosen, slots - 1)
            if found is not None:
                return found
            chosen.pop()
        return None

    everything = list(itertools.product(*(range(fv) for fv in f_values)))
    for m in range(lower, min(upper, budget) + 1):
        found = dfs(everything, [], m)
        if found is not None:
            return m, found
    return None, None


def naive_greedy_cover(f_values, g_values):
    """The greedy loop over a set of branch tuples that the bitset greedy
    replaced: add the candidate holding the most uncovered branches, the
    first in lexicographic order on ties.  Returns level-set tuples."""
    candidates = list(itertools.product(*_level_candidates(f_values, g_values)))
    uncovered = set(itertools.product(*(range(fv) for fv in f_values)))
    chosen = []
    while uncovered:
        best, best_gain = None, -1
        for cand in candidates:
            gain = sum(1 for b in uncovered if naive_member(b, cand))
            if gain > best_gain:
                best, best_gain = cand, gain
        uncovered = {b for b in uncovered if not naive_member(b, best)}
        chosen.append(best)
    return chosen


def condition_c_oracle(T):
    """Direct enumeration over all u-choices, straight off the definition:
    a violation is a block i and g(l)-sized sets u_l with more than g'(i)
    joint preimages."""
    for i, w in enumerate(T.blocks):
        choices_per_level = [
            list(itertools.combinations(range(T.f(l)), min(T.g(l), T.f(l))))
            for l in w
        ]
        for u in itertools.product(*choices_per_level):
            count = sum(
                1 for n in range(T.fp(i))
                if all(T.maps[i][j][n] in set(u[j]) for j in range(len(w)))
            )
            if count > T.gp(i):
                return False, (i, u)
    return True, None


# The transfers of reductions, straight off their definitions on plain level
# sets: each family is a list of per-level frozenset tuples.

def naive_pushforward(T, family_sets):
    """B*_i = {n < f'(i) : H[i][l](n) in B_l for all l in w_i}, {0} if empty."""
    return [tuple(frozenset(n for n in range(T.fp(i))
                            if all(T.maps[i][j][n] in B[l] for j, l in enumerate(w)))
                  or frozenset({0})
                  for i, w in enumerate(T.blocks))
            for B in family_sets]


def naive_halving(f_values, g_values, family_sets):
    """Value i at level k becomes the block [i*s, (i+1)*s), s = f(k)//g(k)."""
    sizes = [fv // gv for fv, gv in zip(f_values, g_values)]
    return [tuple(frozenset(v for i in C[k] for v in range(i * s, (i + 1) * s))
                  for k, s in enumerate(sizes))
            for C in family_sets]


def naive_addition(f_values, g_values, family_sets):
    """Value i < f(k)-g(k) becomes {2i, 2i+1}; a larger i becomes {i + f(k)-g(k)}."""
    def block(i, pairs):
        return {2 * i, 2 * i + 1} if i < pairs else {i + pairs}
    return [tuple(frozenset(v for i in C[k] for v in block(i, fv - gv))
                  for k, (fv, gv) in enumerate(zip(f_values, g_values)))
            for C in family_sets]


def naive_compose(G_sets, H_sets, f_values, g_values):
    """Pad each B to min(g, f) values with the least absent ones, then let
    each D pick positions in B's increasing enumeration (the least value of
    B where D picks none)."""
    out = []
    for B in G_sets:
        enums = []
        for k, s in enumerate(B):
            padded = set(s)
            for v in range(f_values[k]):
                if len(padded) < min(g_values[k], f_values[k]):
                    padded.add(v)
            enums.append(sorted(padded))
        for D in H_sets:
            out.append(tuple(frozenset(e[j] for j in D[k] if j < len(e)) or frozenset({e[0]})
                             for k, e in enumerate(enums)))
    return out


def naive_product(Gf_sets, Gf2_sets, f2_values):
    """Every pair (B, D) gives {a*f2(k) + b : a in B_k, b in D_k} per level."""
    return [tuple(frozenset(a * f2 + b for a in B[k] for b in D[k])
                  for k, f2 in enumerate(f2_values))
            for B in Gf_sets for D in Gf2_sets]


# Test-only norm helpers: a log norm and a labeled-set completeness oracle.

def natural_norm(c: int, d: int):
    """The log_{c/d} cardinality norm: largest m with (c/d)^m <= size."""
    def norm(size: int) -> int:
        if size < 1:
            raise ValidationFailure([("size", f"{size} < 1")])
        m = 0
        # (c/d)^(m+1) <= size, kept in integers: c^(m+1) <= size * d^(m+1)
        while c ** (m + 1) <= size * d ** (m + 1):
            m += 1
        return m
    return norm


def cd_complete_check_sets(norm_of_set, X: frozenset, c: int, d: int):
    """Slow labeled-set oracle for (c,d)-completeness on an explicit ground set.

    norm_of_set maps a nonempty frozenset to an integer.  Enumerates every
    nonempty a <= X and every assignment of a's elements into c labeled
    pieces, and asks for *some* d pieces whose union keeps the norm up.
    Cross-validation only; X must be tiny.
    """
    if len(X) > 6:
        raise GuardExceeded(len(X), 6, "cd_complete_check_sets")
    elems = sorted(X)
    for r in range(1, len(elems) + 1):
        for a in itertools.combinations(elems, r):
            target = norm_of_set(frozenset(a)) - 1
            for assign in itertools.product(range(c), repeat=r):
                pieces = [frozenset(x for x, p in zip(a, assign) if p == i)
                          for i in range(c)]
                ok = any(
                    norm_of_set(frozenset().union(*(pieces[i] for i in combo)))
                    >= target
                    for combo in itertools.combinations(range(c), d)
                    if any(pieces[i] for i in combo)
                )
                if not ok:
                    return False, (frozenset(a), tuple(pieces))
    return True, None


# The full-scan tree and decision queries that the child index and the
# prefix index replaced: each re-scans every node or branch per call.

def naive_succ(tree, node):
    k = len(node)
    return sorted(n for n in tree.nodes if len(n) == k + 1 and n[:k] == node)


def naive_split_nodes(tree):
    return sorted((n for n in tree.nodes
                   if len(n) < tree.depth and len(naive_succ(tree, n)) > 1),
                  key=lambda n: (len(n), n))


def naive_split_index(tree, node):
    return sum(1 for j in range(len(node)) if len(naive_succ(tree, node[:j])) > 1)


def naive_node_norm(tree, node):
    spec = NormSpec(tree.triple.g.values, tree.triple.h.values)
    return norm_value(spec, len(node), len(naive_succ(tree, node)))


def naive_stem(tree):
    splits = naive_split_nodes(tree)
    return splits[0] if splits else max(tree.nodes, key=len)


def naive_violations(tree):
    out = []
    if () not in tree.nodes:
        out.append(("root", "missing"))
    for n in tree.nodes:
        if len(n) > tree.depth:
            out.append((str(n), f"deeper than {tree.depth}"))
        if n and n[:-1] not in tree.nodes:
            out.append((str(n), "prefix missing"))
        for i, v in enumerate(n):
            if v < 0 or v >= tree.triple.f(i):
                out.append((str(n), f"value {v} at level {i} not below f={tree.triple.f(i)}"))
    for n in tree.nodes:
        if len(n) < tree.depth:
            s = naive_succ(tree, n)
            if not s:
                out.append((str(n), "no successor"))
            elif len(s) > 1:
                idx = naive_split_index(tree, n)
                nv = naive_node_norm(tree, n)
                if nv < idx:
                    out.append((str(n), f"split norm {nv} < split index {idx}"))
    return out


def naive_decides(p, eta_bar, tau, k):
    """The common tau|k over the full branches extending eta_bar, or None."""
    m = len(eta_bar[0])
    labels = dict(tau.labels)
    seen = None
    for br in level(p, p.depth).tuples:
        if all(node[:m] == pref for node, pref in zip(br, eta_bar)):
            v = labels[br][:k]
            if seen is None:
                seen = v
            elif v != seen:
                return None
    return seen


def naive_splits_decided(q, tau, offset):
    """Property V (offset 0) or III (offset 1), one tuple at a time."""
    levels = sorted(len(n) for _, tree in q.trees for n in naive_split_nodes(tree))
    return all(naive_decides(q, eta_bar, tau, k) is not None
               for k in levels for eta_bar in level(q, k + offset).tuples)


# ----------------------------------------------------------- toy scales

@pytest.fixture(scope="session")
def ext_scale():
    return validate_scale((2, 100), (40, 2000))


@pytest.fixture(scope="session")
def ext_triples(ext_scale):
    """(zeta, xi): a splitting coordinate's triple and a target triple."""
    zeta = validate_triple(BoundFn((32, 2000)), BoundFn((2, 100)),
                           BoundFn((2, 100)), ext_scale)
    xi = validate_triple(BoundFn((16, 2000)), BoundFn((10, 1000)),
                         BoundFn((2, 100)), ext_scale)
    return zeta, xi


def make_split_condition(zeta, width=16, depth=2, coords=("a", "b")):
    """Condition with one root split of the given width on the first
    coordinate; everything else linear."""
    nodes = {()}
    for v in range(width):
        node = (v,)
        nodes.add(node)
        for _ in range(depth - 1):
            node = node + (0,)
            nodes.add(node)
    trees = [(coords[0], NormedTree(depth, zeta, frozenset(nodes)))]
    for c in coords[1:]:
        trees.append((c, linear_tree(depth, zeta)))
    return ProductCondition(tuple(trees))


def make_name(p, value_fn, bound):
    """Label every full branch; value_fn(branch) -> value tuple."""
    labels = tuple((br, tuple(value_fn(br))) for br in level(p, p.depth).tuples)
    return FiniteName(p, labels, BoundFn(bound))


@pytest.fixture
def split_condition(ext_triples):
    zeta, _ = ext_triples
    return make_split_condition(zeta)


def random_extraction_instance(rng, zeta, xi):
    """A random single-split condition plus a random name and A-set.

    The split is wide enough for the small-level property (norm 3 needs
    width >= 16) and the name bound is wide enough that the hard extraction
    case really thins (more label values than the target allows)."""
    width = rng.randint(16, 32)
    n_coords = rng.randint(1, 3)
    coords = tuple(f"c{i}" for i in range(n_coords))
    split_at = rng.randrange(n_coords)
    trees = []
    for i, c in enumerate(coords):
        if i == split_at:
            nodes = {()}
            for v in range(width):
                nodes.add((v,))
                nodes.add((v, rng.randrange(zeta.f(1))))
            trees.append((c, NormedTree(2, zeta, frozenset(nodes))))
        else:
            vals = (rng.randrange(zeta.f(0)), rng.randrange(zeta.f(1)))
            trees.append((c, linear_tree(2, zeta, vals)))
    p = ProductCondition(tuple(trees))
    bound = (16, 100)
    labels = tuple(
        (br, (rng.randrange(bound[0]), rng.randrange(bound[1])))
        for br in level(p, 2).tuples)
    tau = FiniteName(p, labels, BoundFn(bound))
    A = frozenset(c for c in coords if rng.random() < 0.3)
    return p, tau, A


@pytest.fixture(scope="session")
def game_scale():
    return validate_scale((2, 7, 10 ** 6), (3, 2402, 10 ** 7))


@pytest.fixture(scope="session")
def game_triple(game_scale):
    return validate_triple(BoundFn((3, 2402, 10 ** 7)), BoundFn((2, 7, 10 ** 6)),
                           BoundFn((2, 7, 10 ** 6)), game_scale)


@pytest.fixture
def game_condition(game_triple):
    """Depth-2 condition with one 2401-wide split at level 1 (norm 3)."""
    nodes = {(), (0,)}
    nodes.update((0, j) for j in range(2401))
    tree_a = NormedTree(2, game_triple, frozenset(nodes))
    return ProductCondition((("a", tree_a), ("b", linear_tree(2, game_triple))))

"""Finite-depth normed trees and product conditions.

A normed tree of depth N stores an explicit prefix-closed set of nodes
(integer tuples).  Interior nodes always have a successor; a node that is
the n-th split along its branch must have a successor set of norm >= n,
where the norm at level k is the largest m with g(k)*h(k)**m <= size.
A product condition is a finite family of such trees (one per coordinate)
of common depth.  All values are immutable and every operation returns a new
condition.  Each tree builds one child index (node -> sorted successors) on
first use, and every successor, split and norm query reads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import ValidationFailure
from .norms import NormSpec, norm_value
from .scales import Triple


def _norm_spec(triple: Triple) -> NormSpec:
    return NormSpec(triple.g.values, triple.h.values)


@dataclass(frozen=True)
class NormedTree:
    depth: int
    triple: Triple
    nodes: frozenset

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(tuple(n) for n in self.nodes))

    @cached_property
    def _children(self) -> dict:
        """Each parent tuple -> its sorted successors, built once per tree."""
        kids = {}
        for n in self.nodes:
            if n:
                kids.setdefault(n[:-1], []).append(n)
        return {parent: tuple(sorted(s)) for parent, s in kids.items()}

    def succ(self, node) -> list:
        return list(self._children.get(node, ()))

    def level_nodes(self, k: int) -> list:
        return sorted(n for n in self.nodes if len(n) == k)

    def split_nodes(self) -> list:
        return sorted((n for n, s in self._children.items()
                       if len(s) > 1 and len(n) < self.depth and n in self.nodes),
                      key=lambda n: (len(n), n))

    def split_index(self, node) -> int:
        """Number of splitting proper prefixes of node (its per-branch index)."""
        return sum(len(self._children.get(node[:j], ())) > 1
                   for j in range(len(node)))

    def node_norm(self, node) -> int:
        return norm_value(_norm_spec(self.triple), len(node),
                          len(self._children.get(node, ())))

    def stem(self):
        """The first splitting node; for a split-free tree, the deepest node."""
        splits = self.split_nodes()
        return splits[0] if splits else max(self.nodes, key=len)

    def violations(self) -> list:
        out = []
        if () not in self.nodes:
            out.append(("root", "missing"))
        for n in self.nodes:
            if len(n) > self.depth:
                out.append((str(n), f"deeper than {self.depth}"))
            if n and n[:-1] not in self.nodes:
                out.append((str(n), "prefix missing"))
            for i, v in enumerate(n):
                if v < 0 or v >= self.triple.f(i):
                    out.append((str(n), f"value {v} at level {i} not below f={self.triple.f(i)}"))
        for n in self.nodes:
            if len(n) < self.depth:
                s = self._children.get(n, ())
                if not s:
                    out.append((str(n), "no successor"))
                elif len(s) > 1:
                    idx = self.split_index(n)
                    nv = self.node_norm(n)
                    if nv < idx:
                        out.append((str(n), f"split norm {nv} < split index {idx}"))
        return out

    def trim(self, node) -> "NormedTree":
        """Keep only nodes comparable with node."""
        node = tuple(node)
        keep = frozenset(n for n in self.nodes
                         if n == node[:len(n)] or n[:len(node)] == node)
        return NormedTree(self.depth, self.triple, keep)

    def restrict_succ(self, node, allowed) -> "NormedTree":
        """Keep only the given successors of node (and their subtrees)."""
        node = tuple(node)
        allowed = {tuple(a) for a in allowed}
        k = len(node)
        keep = frozenset(
            n for n in self.nodes
            if len(n) <= k or n[:k] != node or n[:k + 1] in allowed)
        return NormedTree(self.depth, self.triple, keep)


def linear_tree(depth: int, triple: Triple, values=None) -> NormedTree:
    """A split-free tree following the given values (default all zero)."""
    values = tuple(values) if values is not None else (0,) * depth
    return NormedTree(depth, triple,
                      frozenset(values[:k] for k in range(depth + 1)))


@dataclass(frozen=True)
class ProductCondition:
    """Finitely many normed trees of common depth, keyed by coordinate."""

    trees: tuple  # sorted tuple of (coord, NormedTree)

    def __post_init__(self):
        items = tuple(sorted(dict(self.trees).items()))
        object.__setattr__(self, "trees", items)
        if not items:
            raise ValidationFailure([("coords", "a condition needs at least one tree")])
        depths = {t.depth for _, t in items}
        if len(depths) > 1:
            raise ValidationFailure([("depth", f"trees of different depths {sorted(depths)}")])

    @property
    def depth(self) -> int:
        return self.trees[0][1].depth

    @property
    def coords(self) -> tuple:
        return tuple(c for c, _ in self.trees)

    @cached_property
    def _by_coord(self) -> dict:
        return dict(self.trees)

    def __getitem__(self, coord) -> NormedTree:
        return self._by_coord[coord]

    def replace(self, coord, tree: NormedTree) -> "ProductCondition":
        return ProductCondition(tuple((c, tree if c == coord else t)
                                      for c, t in self.trees))

    def with_coord(self, coord, tree: NormedTree) -> "ProductCondition":
        return ProductCondition(self.trees + ((coord, tree),))


@dataclass(frozen=True)
class LevelView:
    level: int
    coords: tuple
    tuples: tuple  # each a tuple of nodes, aligned with coords
    active: tuple

    def __len__(self):
        return len(self.tuples)


def validate_condition(p: ProductCondition):
    """(ok, violations) across all coordinates."""
    out = []
    for coord, tree in p.trees:
        out.extend((f"{coord}:{where}", what) for where, what in tree.violations())
    return (not out), out


def level(p: ProductCondition, k: int) -> LevelView:
    """All level-k tuples, lexicographic in sorted coordinate order."""
    if k > p.depth:
        raise ValidationFailure([("level", f"{k} > depth {p.depth}")])
    per_coord = [tree.level_nodes(k) for _, tree in p.trees]
    tuples = tuple(itertools.product(*per_coord))
    return LevelView(k, p.coords, tuples, active_set(p, k))


def active_set(p: ProductCondition, k: int) -> tuple:
    return tuple(c for c, tree in p.trees if len(tree.stem()) <= k)


def splitting_levels(p: ProductCondition) -> list:
    """All (level, coord, node) splits, sorted by level then coordinate.

    Under normal form (II) this is the k_l / alpha_l / eta_l bookkeeping:
    one entry per splitting level.
    """
    out = []
    for coord, tree in p.trees:
        for n in tree.split_nodes():
            out.append((len(n), coord, n))
    return sorted(out)


def is_normal_form(p: ProductCondition) -> bool:
    """At most one splitting (node, coordinate) pair per level."""
    levels = [k for k, _, _ in splitting_levels(p)]
    return len(levels) == len(set(levels))


def split_norm(p: ProductCondition, entry) -> int:
    """Norm of the successor set at a (level, coord, node) split entry."""
    _, coord, node = entry
    return p[coord].node_norm(node)


def trim(p: ProductCondition, eta_bar, k: int = None) -> ProductCondition:
    """Restrict every coordinate to nodes comparable with eta_bar(coord).

    eta_bar maps coordinates to nodes of a common length; it must be a
    member of that level.
    """
    eta_bar = {c: tuple(n) for c, n in dict(eta_bar).items()}
    lengths = {len(n) for n in eta_bar.values()}
    if len(lengths) != 1:
        raise ValidationFailure([("tuple", "nodes of unequal length")])
    kk = lengths.pop()
    if k is not None and k != kk:
        raise ValidationFailure([("tuple", f"length {kk} != level {k}")])
    for c in p.coords:
        if c not in eta_bar or eta_bar[c] not in p[c].nodes:
            raise ValidationFailure([(str(c), "tuple entry not a node at this level")])
    return ProductCondition(tuple((c, t.trim(eta_bar[c])) for c, t in p.trees))


def prune(p: ProductCondition, l: int, nu_star) -> ProductCondition:
    """Keep only extensions of nu_star above the l-th splitting node."""
    if not is_normal_form(p):
        raise ValidationFailure([("normal form", "condition has stacked splits")])
    splits = splitting_levels(p)
    if not 0 <= l < len(splits):
        raise ValidationFailure([("l", f"{l} not a split index (have {len(splits)})")])
    _, coord, eta = splits[l]
    nu_star = tuple(nu_star)
    if nu_star not in p[coord].succ(eta):
        raise ValidationFailure([("nu*", f"{nu_star} not a successor of {eta}")])
    return p.replace(coord, p[coord].restrict_succ(eta, [nu_star]))


def leq_k(p: ProductCondition, q: ProductCondition, k: int) -> bool:
    """q extends p, agrees with p up to level k, and new coordinates of q
    have stems longer than k."""
    pd, qd = dict(p.trees), dict(q.trees)
    if not set(pd) <= set(qd):
        return False
    for c, pt in pd.items():
        qt = qd[c]
        if not qt.nodes <= pt.nodes:
            return False
        if not {n for n in pt.nodes if len(n) <= k} <= qt.nodes:
            return False
    for c in set(qd) - set(pd):
        if len(qd[c].stem()) <= k:
            return False
    return set(active_set(p, k)) == {c for c in active_set(q, k) if c in pd}


def leq(p: ProductCondition, q: ProductCondition) -> bool:
    """q extends p (trees shrink, domain may grow)."""
    pd, qd = dict(p.trees), dict(q.trees)
    return set(pd) <= set(qd) and all(qd[c].nodes <= pd[c].nodes for c in pd)


def to_normal_form(p: ProductCondition) -> ProductCondition:
    """A stronger condition with at most one splitting pair per level.

    Level sweep: at each level, the first (coordinate, node) split survives
    and every other split at that level is pruned to its least successor.
    Surviving split indices only drop, so validity is preserved.
    """
    q = p
    for k in range(p.depth):
        entries = [(c, n) for kk, c, n in splitting_levels(q) if kk == k]
        for c, n in entries[1:]:
            tree = q[c]
            q = q.replace(c, tree.restrict_succ(n, [tree.succ(n)[0]]))
    return q


def level_size_check(p: ProductCondition) -> tuple:
    """Verify |Level_k| <= lo_{k-1} * hi_{k-1} < lo_k for 1 <= k <= depth.

    Requires every coordinate's triple to live on one common scale.
    """
    scales = {tree.triple.scale for _, tree in p.trees}
    if len(scales) != 1:
        raise ValidationFailure([("scale", "coordinates on different scales")])
    scale = scales.pop()
    failures = []
    for k in range(1, p.depth + 1):
        size = len(level(p, k))
        bound = scale.lo[k - 1] * scale.hi[k - 1]
        if not (size <= bound and (k >= scale.window or bound < scale.lo[k])):
            failures.append((f"k={k}", f"|Level|={size}, bound={bound}"))
    return (not failures), failures

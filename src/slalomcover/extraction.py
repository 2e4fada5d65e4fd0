"""Finite names, decision, densification, slalom avoidance and extraction.

A finite name is a total labeling of a condition's full branches by bounded
value sequences.  A level tuple "decides" a prefix of the name when every
branch above it carries the same prefix.  Densification thins the splitting
successor sets, top split first, so that every tuple at a splitting level k
decides the name up to k; extraction then reads off, level by level, value
sets of size below the target bound that cover the name on every branch,
thinning once more where the completeness chain of the hard case demands it.
Decisions are read from a prefix index: one pass over the full branches maps
every tuple of a level to the set of name prefixes above it.  The extracted
cover is re-verified by exhaustive branch enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .conditions import (ProductCondition, is_normal_form, level,
                         splitting_levels, validate_condition)
from .errors import ValidationFailure
from .norms import NormSpec, cd_select
from .scales import BoundFn, Triple


@dataclass(frozen=True)
class FiniteName:
    """A total labeling of the host's full branches: branch tuple -> values."""

    host: ProductCondition
    labels: tuple  # sorted tuple of (branch tuple, value tuple)
    bound: BoundFn

    def __post_init__(self):
        lab = {tuple(tuple(n) for n in br): tuple(int(v) for v in vals)
               for br, vals in dict(self.labels).items()}
        object.__setattr__(self, "labels", tuple(sorted(lab.items())))
        N = self.host.depth
        want = set(level(self.host, N).tuples)
        have = set(lab)
        bad = []
        if want != have:
            bad.append(("branches", f"{len(have)} labels for {len(want)} branches"))
        for br, vals in lab.items():
            if len(vals) != N:
                bad.append((str(br), f"label length {len(vals)} != depth {N}"))
                continue
            for k, v in enumerate(vals):
                if not 0 <= v < self.bound(k):
                    bad.append((str(br), f"value {v} at k={k} not below {self.bound(k)}"))
        if bad:
            raise ValidationFailure(bad)

    @cached_property
    def _by_branch(self) -> dict:
        return dict(self.labels)

    def label(self, branch) -> tuple:
        return self._by_branch[tuple(branch)]

    def value_map(self) -> dict:
        """Branch tuple -> values; built once and shared, so read only."""
        return self._by_branch


def restrict_name(tau: FiniteName, q: ProductCondition) -> FiniteName:
    """The same name on a stronger condition (labels restricted)."""
    keep = set(level(q, q.depth).tuples)
    labels = tuple((br, v) for br, v in tau.labels if br in keep)
    return FiniteName(q, labels, tau.bound)


def _unique_extension(p: ProductCondition, eta_bar, split_coord, split_node, nu):
    """The level-(k+1) tuple extending eta_bar, sending the splitting node to
    nu; every other entry has a single successor under normal form."""
    out = []
    for (c, tree), node in zip(p.trees, eta_bar):
        if c == split_coord and node == split_node:
            out.append(tuple(nu))
        else:
            out.append(tree.succ(node)[0])
    return tuple(out)


def _prefix_index(q: ProductCondition, tau: FiniteName, k: int, upto: int) -> dict:
    """Map each level-k tuple of q to the set of tau|upto values above it.

    One pass over the branches, so chains over wide splits stay linear.
    """
    labels = tau.value_map()
    idx = {}
    for br in level(q, q.depth).tuples:
        key = tuple(node[:k] for node in br)
        idx.setdefault(key, set()).add(labels[br][:upto])
    return idx


def decides(p: ProductCondition, eta_bar, tau: FiniteName, k: int):
    """The common value of tau|k over all branches above eta_bar, or None."""
    eta_bar = tuple(tuple(n) for n in eta_bar)
    vals = _prefix_index(p, tau, len(eta_bar[0]), k).get(eta_bar, ())
    return next(iter(vals)) if len(vals) == 1 else None


def _decided_values(q: ProductCondition, tau: FiniteName, m: int, k: int,
                    where: str) -> dict:
    """Map each level-m tuple of q to the value tau(k) decided above it; a
    tuple whose branches disagree on tau|k+1 fails, naming where."""
    idx = _prefix_index(q, tau, m, k + 1)
    out = {}
    for eta_bar in level(q, m).tuples:
        dec = idx[eta_bar]
        if len(dec) != 1:
            raise ValidationFailure([(f"k={k}", where)])
        out[eta_bar] = next(iter(dec))[k]
    return out


def _successor_classes(q: ProductCondition, idx: dict, eta_bar, c, n, succs):
    """Group succs, the successors of the split (c, n), by the value idx
    decides above their extensions of eta_bar: the sorted values and their
    successor sets, or None if an extension is undecided."""
    classes = {}
    for nu in succs:
        dec = idx[_unique_extension(q, eta_bar, c, n, nu)]
        if len(dec) != 1:
            return None
        classes.setdefault(next(iter(dec)), []).append(nu)
    values = sorted(classes)
    return values, [frozenset(classes[v]) for v in values]


def densify_decide(p: ProductCondition, tau: FiniteName) -> ProductCondition:
    """Thin p so every tuple at a splitting level k decides tau|k.

    Splits are processed from the deepest down; at each, a chain of
    successor subsets (one completeness step per level-k tuple, drop <= 1
    norm each) groups successors by the decided prefix.  Fails loudly if
    the norm budget leaves a split below its required index.
    """
    if not is_normal_form(p):
        raise ValidationFailure([("normal form", "condition has stacked splits")])
    q = p
    for k, c, n in sorted(splitting_levels(p), reverse=True):
        if n not in q[c].nodes:
            continue
        tree = q[c]
        F = tree.succ(n)
        if len(F) <= 1:
            continue
        spec = NormSpec(tree.triple.g.values, tree.triple.h.values)
        idx = _prefix_index(q, tau, k + 1, k)
        for eta_bar in level(q, k).tuples:
            found = _successor_classes(q, idx, eta_bar, c, n, F)
            if found is None:
                raise AssertionError(
                    f"level-{k + 1} tuple fails to decide the prefix; "
                    "processing order invariant broken")
            _, pieces = found
            if len(pieces) > 1:
                F = sorted(pieces[cd_select(spec, k, pieces, 1)[0]])
        q = q.replace(c, tree.restrict_succ(n, F))
    ok, viol = validate_condition(q)
    if not ok:
        raise ValidationFailure([("norm budget", f"densification broke validity: {viol}")])
    return q


def _splits_decided(q: ProductCondition, tau: FiniteName, offset: int) -> bool:
    """Every tuple at level k+offset of each splitting level k decides tau|k."""
    for k, _, _ in splitting_levels(q):
        idx = _prefix_index(q, tau, k + offset, k)
        if any(len(idx.get(t, ())) != 1 for t in level(q, k + offset).tuples):
            return False
    return True


def property_V(q: ProductCondition, tau: FiniteName) -> bool:
    """Every tuple at a splitting level k decides tau|k."""
    return _splits_decided(q, tau, 0)


def property_III(q: ProductCondition, tau: FiniteName) -> bool:
    """Every tuple at level k+1 of a splitting level k decides tau|k."""
    return _splits_decided(q, tau, 1)


def check_smalllevel(p: ProductCondition):
    """Property (IV): at every split, 2*|Level| < norm and |Level| < lo_k."""
    failures = []
    for entry in splitting_levels(p):
        k, c, n = entry
        size = len(level(p, k))
        nv = p[c].node_norm(n)
        lo_k = p[c].triple.scale.lo[k]
        if not (2 * size < nv and size < lo_k):
            failures.append((f"split at k={k}", f"|Level|={size}, norm={nv}, lo_k={lo_k}"))
    return (not failures), failures


def check_almostall(p: ProductCondition, xi_triple: Triple, kappa, kappa_xi):
    """Property (VI): separation beats 1/|Level| at splits of higher class.

    kappa maps each coordinate to its class rank; only splits whose
    coordinate outranks kappa_xi are constrained.
    """
    missing = [c for c in p.coords if c not in kappa]
    if missing:
        raise ValidationFailure([(str(c), "missing class tag") for c in missing])
    failures = []
    for k, c, _ in splitting_levels(p):
        if not kappa_xi < kappa[c]:
            continue
        zeta = p[c].triple
        size = len(level(p, k))
        val = min(Fraction(zeta.f(k), xi_triple.g(k)),
                  Fraction(xi_triple.f(k), xi_triple.g(k) * zeta.h(k)))
        if not val < Fraction(1, size):
            failures.append((f"split at k={k}", f"min={val} vs 1/{size}"))
    return (not failures), failures


def avoid_slalom(p: ProductCondition, alpha, B):
    """Trim coordinate alpha through a successor value outside the slalom.

    Searches levels bottom-up for a node with a successor whose value at
    that level misses B; a node of positive norm with |B_k| <= g(k) always
    has one.  Returns (q, k); every branch of q(alpha) then disagrees with
    B at k (verified by the caller or test, cheaply re-checkable here).
    """
    tree = p[alpha]
    for k in range(tree.depth):
        if k >= B.window:
            break
        for node in tree.level_nodes(k):
            for child in tree.succ(node):
                if child[k] not in B.sets[k]:
                    return p.replace(alpha, tree.trim(child)), k
    raise ValidationFailure([("avoid", "no level offers a value outside the slalom")])


@dataclass(frozen=True)
class ExtractedCover:
    """Per-level output of the extraction: plain sets or fiber maps."""

    plain: tuple   # tuple of (k, frozenset or None) -- None where fibered
    fibers: tuple  # tuple of (k, tuple of (A-part, frozenset))

    @cached_property
    def _by_level(self) -> tuple:
        return dict(self.plain), {k: dict(fib) for k, fib in self.fibers}

    def set_for(self, k: int, a_part=None):
        plain, fibers = self._by_level
        return plain[k] if plain.get(k) is not None else fibers[k][a_part]

    def level_kind(self, k: int) -> str:
        return "plain" if self._by_level[0].get(k) is not None else "fiber"


def _a_part(coords, A, tuple_at_level):
    return tuple(n for c, n in zip(coords, tuple_at_level) if c in A)


def extract_slalom(q: ProductCondition, tau: FiniteName, A, xi_triple: Triple):
    """Produce per-level covering sets of size <= g_xi(k) for the name.

    Requires a densified, normal-form condition whose splits satisfy the
    small-level and separation properties for xi_triple.  A is the set of
    coordinates whose class does not exceed the target's.  Returns
    (thinned condition, ExtractedCover); covering of every branch is
    verified by full enumeration before returning.
    """
    if not is_normal_form(q):
        raise ValidationFailure([("normal form", "condition has stacked splits")])
    A = frozenset(A)
    N = q.depth
    split_at = {k: (c, n) for k, c, n in splitting_levels(q)}
    plain, fibers = [], []
    for k in range(N):
        g_here = xi_triple.g(k)
        if k not in split_at:
            lv = level(q, k)
            if not len(lv) < g_here:
                raise ValidationFailure(
                    [(f"k={k}", f"level size {len(lv)} not below g={g_here} (plain case)")])
            vals = _decided_values(q, tau, k, k,
                                   "tuple fails to decide the value (densify first)")
            plain.append((k, frozenset(vals.values())))
            fibers.append((k, ()))
            continue

        c, n = split_at[k]
        zeta = q[c].triple
        lv_size = len(level(q, k))

        if c in A:
            # Case 1: index the decided values by the A-part of the branch
            fib = {}
            decided = _decided_values(q, tau, k + 1, k, "undecided tuple in case 1")
            for eta_bar, v in decided.items():
                fib.setdefault(_a_part(q.coords, A, eta_bar), set()).add(v)
            for key, vals in fib.items():
                if len(vals) > lv_size or not lv_size < g_here:
                    raise ValidationFailure(
                        [(f"k={k}", f"case 1 fiber size {len(vals)} vs level {lv_size}, g={g_here}")])
            fibers.append((k, tuple(sorted((key, frozenset(v)) for key, v in fib.items()))))
            plain.append((k, None))
            continue

        if zeta.f(k) * lv_size <= g_here:
            # Case 2: the whole next level is already small enough
            vals = set(_decided_values(q, tau, k + 1, k, "undecided tuple in case 2").values())
            if len(vals) > g_here:
                raise ValidationFailure(
                    [(f"k={k}", f"case 2 bound failed: {len(vals)} > g={g_here}")])
            plain.append((k, frozenset(vals)))
            fibers.append((k, ()))
            continue

        # Case 3: completeness chain, one step per level tuple
        c_param = xi_triple.f(k)
        d_param = g_here // lv_size
        if d_param == 0:
            raise ValidationFailure([(f"k={k}", "case 3: floor(g/|Level|) = 0")])
        if c_param > d_param * zeta.h(k):
            raise ValidationFailure(
                [(f"k={k}", f"case 3: c/d = {c_param}/{d_param} exceeds h={zeta.h(k)}")])
        spec = NormSpec(zeta.g.values, zeta.h.values)
        tree = q[c]
        idx = _prefix_index(q, tau, k + 1, k + 1)
        L = tree.succ(n)
        B_k = set()
        for eta_bar in level(q, k).tuples:
            found = _successor_classes(q, idx, eta_bar, c, n, L)
            if found is None:
                raise ValidationFailure([(f"k={k}", "undecided tuple in case 3")])
            values, pieces = found
            chosen = cd_select(spec, k, pieces, d_param)
            # every level-k tuple decides tau|k here, so tau|k+1 varies only at k
            B_k.update(values[i][k] for i in chosen)
            L = sorted(frozenset().union(*(pieces[i] for i in chosen)))
        if len(B_k) > g_here:
            raise ValidationFailure(
                [(f"k={k}", f"case 3 bound failed: {len(B_k)} > g={g_here}")])
        q = q.replace(c, tree.restrict_succ(n, L))
        plain.append((k, frozenset(B_k)))
        fibers.append((k, ()))

    ok, viol = validate_condition(q)
    if not ok:
        raise ValidationFailure([("norm budget", f"case-3 thinning broke validity: {viol}")])

    cover = ExtractedCover(tuple(plain), tuple(fibers))
    labels = tau.value_map()
    for br in level(q, N).tuples:
        vals = labels[br]
        for k in range(N):
            if cover.level_kind(k) == "plain":
                ok_here = vals[k] in cover.set_for(k)
            else:
                key = _a_part(q.coords, A, tuple(node[:k + 1] for node in br))
                ok_here = vals[k] in cover.set_for(k, key)
            if not ok_here:
                raise AssertionError(f"branch {br} escapes the cover at k={k}")
    return q, cover

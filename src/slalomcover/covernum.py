"""Exact and bounded computation of the finite covering number.

The covering number of (f, g) is the least m such that m slaloms with level
sets of size g(k) cover the whole product space below f.  Instances are
guarded and witnesses are deterministic.  Both searches work on bitsets:
branch b is bit rank(b) in lexicographic order, and each candidate slalom
is the int of the branches it holds.  The exact search is an
iterative-deepening DFS from the fiber lower bound that remembers, for
each uncovered set it failed on, the most slots it failed with.
"""

from __future__ import annotations

import itertools
import math

from .errors import GuardExceeded
from .scales import BoundFn
from .slaloms import Slalom, SlalomFamily, covers

BRUTE_GUARD = 10 ** 6


def _counting_and_sides(f: BoundFn, g: BoundFn):
    """ceil(prod f / prod g), and the grid's cell count ceil(f/g) per level."""
    return (-(-math.prod(f.values) // math.prod(g.values)),
            [-(-f(k) // g(k)) for k in range(f.window)])


def cover_number_bounds(f: BoundFn, g: BoundFn, guard: int = BRUTE_GUARD):
    """(counting lower bound, grid upper bound, grid witness family).

    lower = ceil(prod f / prod g); upper = prod ceil(f/g), witnessed by the
    family of axis-aligned grid cells of side g(k).  Raises GuardExceeded
    when the grid has more than guard members.
    """
    if all(f(k) <= g(k) for k in range(f.window)):
        full = Slalom(f, tuple(frozenset(range(f(k))) for k in range(f.window)))
        return 1, 1, SlalomFamily((full,))
    lower, sides = _counting_and_sides(f, g)
    if math.prod(sides) > guard:
        raise GuardExceeded(math.prod(sides), guard, "grid family")
    per_level = [[frozenset(range(i * g(k), min((i + 1) * g(k), f(k))))
                  for i in range(sides[k])]
                 for k in range(f.window)]
    family = SlalomFamily(tuple(Slalom(f, cells)
                                for cells in itertools.product(*per_level)))
    return lower, len(family), family


def _fiber_bound(f: BoundFn, g: BoundFn) -> int:
    """A lower bound on the covering number, at least the counting bound.

    L(empty) = 1 and L(P) = max over k in P of ceil(f(k) * L(P - k) / g(k)),
    over the levels P with g(k) < f(k); the others constrain nothing.  In
    a cover of size m, the members holding a value x at level k cover the
    product of the other levels, so each of the f(k) values lies in at
    least L(P - k) members, and each member holds at most g(k) of them:
    m * g(k) >= f(k) * L(P - k).  Memoised over sorted (f(k), g(k)) tuples,
    so repeated level types collapse.
    """
    memo = {(): 1}

    def bound(pairs):
        if pairs not in memo:
            memo[pairs] = max(-(-fk * bound(pairs[:i] + pairs[i + 1:]) // gk)
                              for i, (fk, gk) in enumerate(pairs))
        return memo[pairs]

    return bound(tuple(sorted((f(k), g(k)) for k in range(f.window) if g(k) < f(k))))


def _candidate_sets(fk: int, gk: int):
    """All gk-subsets of [0, fk) as sorted tuples, lexicographic."""
    size = min(gk, fk)
    return [tuple(c) for c in itertools.combinations(range(fk), size)]


def _slalom_space_size(f: BoundFn, g: BoundFn) -> int:
    return math.prod(math.comb(f(k), min(g(k), f(k))) for k in range(f.window))


def _candidate_masks(f: BoundFn, g: BoundFn):
    """Every candidate slalom in lexicographic order, with its bitset.

    A candidate is a tuple of level sets of size min(g(k), f(k)).  Its
    bitset has bit rank(b) set for each branch b it holds, where rank is
    the lexicographic position among the branches below f.  Level k's set
    S contributes sum(2^(v * stride_k) for v in S); the product of these
    over the levels has exactly the held ranks as bits, with no carries.
    """
    cands, masks, stride = [()], [1], math.prod(f.values)
    for k in range(f.window):
        stride //= f(k)
        sets = _candidate_sets(f(k), g(k))
        units = [sum(1 << (v * stride) for v in s) for s in sets]
        cands = [c + (s,) for c in cands for s in sets]
        masks = [m * u for m in masks for u in units]
    return cands, masks


def _family(f: BoundFn, g: BoundFn, chosen) -> SlalomFamily:
    fam = SlalomFamily(tuple(Slalom(f, tuple(frozenset(s) for s in c)) for c in chosen))
    ok, _ = covers(fam, g, f)
    assert ok
    return fam


def cover_number_exact(f: BoundFn, g: BoundFn, budget: int = 64, guard: int = BRUTE_GUARD):
    """Least family size covering the product below f, with a witness family.

    Iterative deepening over the family size, starting at the fiber bound
    of _fiber_bound.  Candidate slaloms have exact-cardinality level sets
    (padding makes that lossless).  Each node covers the least uncovered branch
    with every candidate holding it, in lexicographic candidate order, so
    the family returned is the first one in that order.  failed[u] = s
    records that u cannot be covered with s slaloms, hence not with fewer;
    it only skips searches that would fail, so neither it nor the round
    the deepening starts at changes the family found, and it is kept
    across the rounds.  Raises GuardExceeded
    when the candidate space is too large, and returns None if the budget
    is exhausted first.
    """
    space = _slalom_space_size(f, g)
    if space > guard:
        raise GuardExceeded(space, guard, "candidate slalom space")
    if all(f(k) <= g(k) for k in range(f.window)):
        return 1, cover_number_bounds(f, g)[2]
    # no grid is built, and its guard holds: space >= prod ceil(f/g)
    upper = math.prod(_counting_and_sides(f, g)[1])
    cands, masks = _candidate_masks(f, g)
    max_cover = math.prod(min(g(k), f(k)) for k in range(f.window))
    by_pivot = {}
    failed = {}

    def holding(pivot):
        """(index, complement of bitset) of the candidates holding pivot."""
        if pivot not in by_pivot:
            by_pivot[pivot] = [(i, ~m) for i, m in enumerate(masks) if m >> pivot & 1]
        return by_pivot[pivot]

    def dfs(uncovered, chosen, slots):
        if not uncovered:
            return list(chosen)
        if slots == 0 or uncovered.bit_count() > slots * max_cover:
            return None
        if failed.get(uncovered, 0) >= slots:
            return None
        for i, outside in holding((uncovered & -uncovered).bit_length() - 1):
            chosen.append(i)
            found = dfs(uncovered & outside, chosen, slots - 1)
            if found is not None:
                return found
            chosen.pop()
        failed[uncovered] = slots
        return None

    everything = (1 << math.prod(f.values)) - 1
    for m in range(_fiber_bound(f, g), min(upper, budget) + 1):
        found = dfs(everything, [], m)
        if found is not None:
            return m, _family(f, g, [cands[i] for i in found])
    if upper <= budget:
        # the grid witness always covers, so this is unreachable
        raise AssertionError("grid bound not realized")
    return None, None


def greedy_cover(f: BoundFn, g: BoundFn, guard: int = BRUTE_GUARD) -> SlalomFamily:
    """Greedy heuristic: repeatedly add the slalom covering the most new
    branches, ties broken by lexicographic candidate order."""
    if math.prod(f.values) > guard:
        raise GuardExceeded(math.prod(f.values), guard, "branch space")
    space = _slalom_space_size(f, g)
    if space > guard:
        raise GuardExceeded(space, guard, "candidate slalom space")
    cands, masks = _candidate_masks(f, g)
    uncovered = (1 << math.prod(f.values)) - 1
    chosen = []
    while uncovered:
        # max keeps the first of several maxima: the lexicographic tie-break
        best = max(range(len(masks)), key=lambda i: (uncovered & masks[i]).bit_count())
        uncovered &= ~masks[best]
        chosen.append(cands[best])
    return _family(f, g, chosen)

"""Finite slaloms, branches of a product space, and the covering predicate.

A slalom assigns to every level k a nonempty set of values below the ambient
cap f(k).  A family of slaloms covers the product space below f when every
branch threads through at least one of them.  Covering is decided by a
bitset kernel: a depth-first walk over branch prefixes in lexicographic
order that carries the set of members still holding the prefix as one int,
so the first prefix no member holds gives the lexicographically least
witness without visiting the branches below covered prefixes one by one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import le

from .errors import ValidationFailure, WindowMismatch
from .scales import BoundFn


@dataclass(frozen=True)
class Slalom:
    """Per-level value sets, each nonempty and below the cap."""

    cap: BoundFn
    sets: tuple  # tuple of frozensets

    def __post_init__(self):
        sets = tuple(frozenset(map(int, s)) for s in self.sets)
        object.__setattr__(self, "sets", sets)
        if len(sets) != self.cap.window:
            raise WindowMismatch(f"{len(sets)} sets on a window of {self.cap.window}")
        bad = []
        for k, s in enumerate(sets):
            if not s:
                bad.append((f"k={k}", "empty level set"))
            elif min(s) < 0 or max(s) >= self.cap(k):
                bad.append((f"k={k}", f"values outside [0, {self.cap(k)})"))
        if bad:
            raise ValidationFailure(bad)

    @property
    def window(self) -> int:
        return len(self.sets)

    def level_sizes(self) -> tuple:
        return tuple(len(s) for s in self.sets)


@dataclass(frozen=True)
class Branch:
    """One point of the product space: a value below the cap at every level."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))

    @property
    def window(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SlalomFamily:
    slaloms: tuple

    def __post_init__(self):
        sl = tuple(self.slaloms)
        object.__setattr__(self, "slaloms", sl)
        if sl:
            cap = sl[0].cap
            if any(s.cap != cap for s in sl):
                raise WindowMismatch("family members have different caps")

    def __iter__(self):
        return iter(self.slaloms)

    def __len__(self):
        return len(self.slaloms)


def member(s: Branch, B: Slalom) -> bool:
    """True iff the branch value lies in the slalom's set at every level."""
    if s.window != B.window:
        raise WindowMismatch(f"branch window {s.window} vs slalom window {B.window}")
    return all(v in B.sets[k] for k, v in enumerate(s.values))


def branches(f: BoundFn):
    """All branches below f, in lexicographic order."""
    for tup in itertools.product(*(range(f(k)) for k in range(f.window))):
        yield Branch(tup)


def pad_to(B: Slalom, g_bound: BoundFn) -> Slalom:
    """Grow each level set to exactly min(g(k), cap(k)) values.

    Padding uses the least absent values; covering can only improve.
    """
    new_sets = []
    for k, s in enumerate(B.sets):
        target = min(g_bound(k), B.cap(k))
        if len(s) > target:
            raise ValidationFailure([(f"k={k}", f"|B_k|={len(s)} > bound {target}")])
        s = set(s)
        for v in range(B.cap(k)):
            if len(s) >= target:
                break
            s.add(v)
        new_sets.append(frozenset(s))
    return Slalom(B.cap, tuple(new_sets))


def covers(F: SlalomFamily, g_bound: BoundFn, f: BoundFn):
    """Decide whether F covers the product space below f.

    Returns (True, None), or (False, witness) where witness is the
    lexicographically least uncovered branch.  Members violating the
    size bound g_bound are rejected up front with their index.
    """
    if g_bound.window < f.window:
        raise WindowMismatch(f"size bound has {g_bound.window} levels, cap has {f.window}")
    for i, B in enumerate(F):
        if B.cap.values != f.values:
            raise WindowMismatch(f"slalom {i} has cap {B.cap.values}, expected {f.values}")
        if all(map(le, map(len, B.sets), g_bound.values)):
            continue
        for k, s in enumerate(B.sets):
            if len(s) > g_bound(k):
                raise ValidationFailure([(f"slalom {i}, k={k}",
                                          f"|B_k|={len(s)} > g(k)={g_bound(k)}")])
    gap = first_gap([B.sets for B in F], f.values)
    return (True, None) if gap is None else (False, Branch(gap))


def first_gap(family_sets, caps):
    """The lexicographically least tuple below caps that no member holds.

    family_sets lists each member's per-level value sets.  Bit i of
    masks[k][v] is set when member i holds v at level k; a prefix is held
    by the members in the AND of its masks, so the first prefix with an
    empty AND, padded with zeros, is the least gap.  (level, member set)
    pairs already shown to hold every suffix are memoized.  Returns None
    when every tuple is held.
    """
    window = len(caps)
    masks = [[0] * cap for cap in caps]
    for i, sets in enumerate(family_sets):
        for k, s in enumerate(sets):
            for v in s:
                masks[k][v] |= 1 << i
    covered = set()

    def gap_below(k, held):
        for v, mask in enumerate(masks[k]):
            rest = held & mask
            if not rest:
                return (v,) + (0,) * (window - k - 1)
            if k + 1 < window and (k + 1, rest) not in covered:
                tail = gap_below(k + 1, rest)
                if tail is not None:
                    return (v,) + tail
                covered.add((k + 1, rest))
        return None

    if not window:
        # the one empty tuple is held by any member
        return None if family_sets else ()
    return gap_below(0, (1 << len(family_sets)) - 1)

"""The splitting norm and (c,d)-completeness.

norm_value(spec, k, size) is the largest m >= 0 with g(k) * h(k)**m <= size
(0 when even m=0 fails), computed in exact integer arithmetic.  Splitting a
set into c pieces loses at most one norm unit on the union of some d pieces
whenever c/d <= h(k); cd_select realizes that choice deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GuardExceeded, ValidationFailure


@dataclass(frozen=True)
class NormSpec:
    """Per-level norm parameters: divisor g(k) >= 1 and log base h(k) >= 2."""

    g: tuple
    h: tuple

    def __post_init__(self):
        g = tuple(int(v) for v in self.g)
        h = tuple(int(v) for v in self.h)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)
        bad = [(f"k={k}", f"h(k)={v} < 2") for k, v in enumerate(h) if v < 2]
        bad += [(f"k={k}", f"g(k)={v} < 1") for k, v in enumerate(g) if v < 1]
        if bad:
            raise ValidationFailure(bad)


def norm_value(spec: NormSpec, k: int, size: int) -> int:
    """Largest m >= 0 with g*h^m <= size; 0 if size < g*h."""
    if size < 1:
        raise ValidationFailure([("size", f"{size} < 1")])
    g, h = spec.g[k], spec.h[k]
    m, bound = 0, g * h
    while bound <= size:
        m += 1
        bound *= h
    return m


def _compositions(total, max_parts):
    """Nonincreasing positive partitions of total into at most max_parts parts."""
    def rec(rest, parts, cap):
        if rest == 0:
            yield tuple(parts)
            return
        if not parts or len(parts) < max_parts:
            for first in range(min(rest, cap), 0, -1):
                parts.append(first)
                yield from rec(rest - first, parts, first)
                parts.pop()
    yield from rec(total, [], total)


def cd_complete_check(norm, X_size: int, c: int, d: int):
    """Brute-force (c,d)-completeness for a cardinality-determined norm.

    norm maps a size >= 1 to an integer.  Checks that for every a of size
    <= X_size and every split of a into at most c pieces, the d largest
    pieces have union-norm >= norm(a) - 1.  Because the norm depends only
    on cardinality, set decompositions reduce to integer partitions
    (overlapping pieces only enlarge unions).  Returns (True, None) or
    (False, (a_size, partition)).
    """
    if X_size > 12:
        raise GuardExceeded(X_size, 12, "cd_complete_check")
    for a_size in range(1, X_size + 1):
        target = norm(a_size) - 1
        for parts in _compositions(a_size, c):
            if norm(sum(parts[:d])) < target:
                return False, (a_size, parts)
    return True, None


def cd_select(spec: NormSpec, k: int, pieces, d: int) -> list:
    """Indices of the d largest pieces (ties by index); their union keeps
    norm >= norm(union of all) - 1 whenever len(pieces)/d <= h(k) and the
    pieces are pairwise disjoint.  A violated guarantee is an internal bug.
    """
    pieces = [frozenset(p) for p in pieces]
    order = sorted(range(len(pieces)), key=lambda i: (-len(pieces[i]), i))
    chosen = sorted(order[:d])
    union_all = frozenset().union(*pieces) if pieces else frozenset()
    union_sel = frozenset().union(*(pieces[i] for i in chosen)) if chosen else frozenset()
    if not union_sel:
        raise ValidationFailure([("pieces", "selection is empty")])
    full = norm_value(spec, k, len(union_all))
    kept = norm_value(spec, k, len(union_sel))
    if len(pieces) <= d * spec.h[k] and kept < full - 1:
        raise AssertionError(
            f"completeness guarantee violated at k={k}: {kept} < {full} - 1")
    return chosen

"""Scale sequences, bound functions, progressive triples and their generators.

A scale is a pair of fast-growing integer sequences (lo, hi) bracketing all
the bound functions we work with.  A triple (f, g, h) is "progressive" on a
scale when g and f sit inside the per-level band [lo_k, hi_k] with g < f,
and h is at least lo_k.  The asymptotic growth requirements are reported as
diagnostic profiles, never enforced: they are meaningless on a finite window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationFailure, WindowMismatch


def _exact_log2(n: int):
    """log2(n) as an int if n is a power of two, else None."""
    if n >= 1 and n & (n - 1) == 0:
        return n.bit_length() - 1
    return None


def _log_ratio(num: int, den: int, base_num: int):
    """log2(num/den) / log2(base_num), exact Fraction when all are 2-powers."""
    a, b, c = _exact_log2(num), _exact_log2(den), _exact_log2(base_num)
    if a is not None and b is not None and c is not None and c != 0:
        return Fraction(a - b, c)
    return math.log2(num / den) / math.log2(base_num)


@dataclass(frozen=True)
class BoundFn:
    """A finite sequence of positive integer bounds, one per level."""

    values: tuple

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if any(v < 1 for v in vals):
            raise ValidationFailure([(f"k={k}", f"value {v} < 1")
                                     for k, v in enumerate(vals) if v < 1])

    @property
    def window(self) -> int:
        return len(self.values)

    def __call__(self, k: int) -> int:
        return self.values[k]

    def __le__(self, other: "BoundFn") -> bool:
        return all(a <= b for a, b in zip(self.values, other.values))


@dataclass(frozen=True)
class ScaleSeq:
    """A validated scale: lo_k, hi_k with lo fast-growing and lo <= hi."""

    lo: tuple
    hi: tuple

    @property
    def window(self) -> int:
        return len(self.lo)


@dataclass(frozen=True)
class Triple:
    """A validated progressive triple (f, g, h) on a scale."""

    f: BoundFn
    g: BoundFn
    h: BoundFn
    scale: ScaleSeq

    @property
    def window(self) -> int:
        return self.scale.window


def scale_violations(lo, hi) -> list:
    """All violated scale inequalities, as (where, what) pairs."""
    out = []
    K = len(lo)
    for k in range(K):
        prod = 1
        for j in range(k):
            prod *= lo[j]
        if prod > lo[k]:
            out.append((f"k={k}", f"prod(lo[:k])={prod} > lo[k]={lo[k]}"))
        if lo[k] > hi[k]:
            out.append((f"k={k}", f"lo[k]={lo[k]} > hi[k]={hi[k]}"))
    for k in range(K - 1):
        if lo[k] * hi[k] >= lo[k + 1]:
            out.append((f"k={k}", f"lo[k]*hi[k]={lo[k] * hi[k]} >= lo[k+1]={lo[k + 1]}"))
    return out


def validate_scale(lo, hi) -> ScaleSeq:
    """Build a ScaleSeq, or raise ValidationFailure listing every violation."""
    lo, hi = tuple(int(x) for x in lo), tuple(int(x) for x in hi)
    if len(lo) != len(hi):
        raise WindowMismatch(f"lo has {len(lo)} levels, hi has {len(hi)}")
    if not lo:
        raise ValidationFailure([("window", "empty window")])
    bad = [(f"k={k}", f"entry {v} < 2") for seq in (lo, hi) for k, v in enumerate(seq) if v < 2]
    if bad:
        raise ValidationFailure(bad)
    viol = scale_violations(lo, hi)
    if viol:
        raise ValidationFailure(viol)
    return ScaleSeq(lo, hi)


def triple_violations(f: BoundFn, g: BoundFn, h: BoundFn, s: ScaleSeq) -> list:
    out = []
    for k in range(s.window):
        if not s.lo[k] <= g(k):
            out.append((f"k={k}", f"g(k)={g(k)} < lo_k={s.lo[k]}"))
        if not g(k) < f(k):
            out.append((f"k={k}", f"g < f fails: g(k)={g(k)}, f(k)={f(k)}"))
        if not f(k) <= s.hi[k]:
            out.append((f"k={k}", f"f(k)={f(k)} > hi_k={s.hi[k]}"))
        if not s.lo[k] <= h(k):
            out.append((f"k={k}", f"h(k)={h(k)} < lo_k={s.lo[k]}"))
    return out


def validate_triple(f: BoundFn, g: BoundFn, h: BoundFn, s: ScaleSeq) -> Triple:
    """Build a Triple, or raise ValidationFailure listing every violation."""
    if not (f.window == g.window == h.window == s.window):
        raise WindowMismatch(
            f"windows differ: f={f.window} g={g.window} h={h.window} scale={s.window}")
    viol = triple_violations(f, g, h, s)
    if viol:
        raise ValidationFailure(viol)
    return Triple(f, g, h, s)


def progressivity_profile(t: Triple) -> list:
    """Per-level log2(f/g) / log2(h); growth is reported, never asserted."""
    return [_log_ratio(t.f(k), t.g(k), t.h(k)) for k in range(t.window)]


def separation_profile(t_xi: Triple, t_zeta: Triple) -> list:
    """Per-level min(f_zeta/g_xi, (f_xi/g_xi)/h_zeta), exact rationals."""
    if t_xi.window != t_zeta.window:
        raise WindowMismatch("triples on different windows")
    out = []
    for k in range(t_xi.window):
        a = Fraction(t_zeta.f(k), t_xi.g(k))
        b = Fraction(t_xi.f(k), t_xi.g(k) * t_zeta.h(k))
        out.append(min(a, b))
    return out


def blass_levels(scale: ScaleSeq, inner_log_base: float = 2) -> list:
    """The exponent schedule for the Blass-style family, clamped to >= 1.

    level_k = floor(0.5 * sqrt(log_b(log2(hi_k) / log2(lo_k)))) where the
    outer logarithm base b is a parameter (default 2); the inner ratio of
    logs is base-independent.
    """
    out = []
    for k in range(scale.window):
        ratio = math.log2(scale.hi[k]) / math.log2(scale.lo[k])
        inner = math.log(ratio, inner_log_base) if ratio > 0 else 0.0
        lk = math.floor(0.5 * math.sqrt(inner)) if inner > 0 else 0
        out.append(max(1, lk))
    return out


def _perfect_tree_index(path, levels) -> list:
    """1-based index of path|k inside a canonical binary tree of width levels[k].

    The tree is grown level by level: it always contains the given path, and
    remaining slots are filled with the lexicographically least other
    children of the previous level.  Widths are clamped to what a binary
    tree can realize.
    """
    nodes = [()]
    idx = []
    for k in range(len(levels)):
        idx.append(sorted(nodes).index(tuple(path[:k])) + 1)
        want = max(levels[k + 1], len(nodes)) if k + 1 < len(levels) else None
        if want is None:
            break
        want = min(want, 2 * len(nodes), 2 ** (k + 1))
        nxt = {tuple(path[:k + 1])}
        for parent in sorted(nodes):
            for b in (0, 1):
                if len(nxt) >= want:
                    break
                nxt.add(parent + (b,))
        nodes = list(nxt)
    return idx


def gen_blass_family(scale: ScaleSeq, tree_path, inner_log_base: float = 2) -> Triple:
    """One member of the Blass-style family of pairwise-separated triples.

    f(k) = lo_k ** (L_k ** (2i)), g(k) = h(k) = lo_k ** (L_k ** (2i-1)),
    where L_k is the clamped exponent schedule and i is the 1-based index
    of tree_path|k in a canonical width-L_k binary tree.
    """
    K = scale.window
    if len(tree_path) < K:
        raise ValidationFailure([("tree_path", f"length {len(tree_path)} < window {K}")])
    levels = blass_levels(scale, inner_log_base)
    idx = _perfect_tree_index(tuple(tree_path[:K]), levels)
    f_vals, g_vals = [], []
    for k in range(K):
        lk, i = levels[k], idx[k]
        fv = scale.lo[k] ** (lk ** (2 * i))
        gv = scale.lo[k] ** (lk ** (2 * i - 1))
        if fv > scale.hi[k]:
            raise ValidationFailure(
                [(f"k={k}", f"f(k)={fv} exceeds hi_k={scale.hi[k]}; scale too small")])
        f_vals.append(fv)
        g_vals.append(gv)
    g = BoundFn(tuple(g_vals))
    return validate_triple(BoundFn(tuple(f_vals)), g, g, scale)


def square_pair_levels(scale: ScaleSeq) -> list:
    """floor(log2(hi_k / lo_k) / 6) per level, in exact integers.

    For hi >= lo, floor(log2(hi / lo)) is the bit length of hi // lo, less
    one, so no float ever holds the ratio.
    """
    return [((scale.hi[k] // scale.lo[k]).bit_length() - 1) // 6
            for k in range(scale.window)]


def gen_square_pair(scale: ScaleSeq):
    """A pair (f,g,h), (f^2,g^2,h) with f = lo^(3L), g = lo^(2L), h = lo."""
    levels = square_pair_levels(scale)
    for k, lk in enumerate(levels):
        if lk < 1:
            raise ValidationFailure([(f"k={k}", f"exponent schedule gives {lk} < 1")])
    f = BoundFn(tuple(scale.lo[k] ** (3 * levels[k]) for k in range(scale.window)))
    g = BoundFn(tuple(scale.lo[k] ** (2 * levels[k]) for k in range(scale.window)))
    h = BoundFn(scale.lo)
    first = validate_triple(f, g, h, scale)
    second = validate_triple(BoundFn(tuple(v * v for v in f.values)),
                             BoundFn(tuple(v * v for v in g.values)), h, scale)
    return first, second


# Smallest 3-level scale passing the validity inequalities; the default toy.
T1 = validate_scale((2, 8, 128), (3, 12, 200))

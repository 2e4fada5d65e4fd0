"""Witness transfers between covering problems.

Each inequality of the covering-number calculus is realized as an executable
transformation on covering families.  One helper, _lifted, checks that every
input family covers and re-verifies every output family with the bitset
covering kernel of covers.  The central object is a transfer system: a
partition of the source window into blocks w_i together with maps
H[i][l] : [0, f'(i)) -> [0, f(l)) whose joint preimages of small sets stay
small (condition (c)); such a system pushes covering families for (f, g)
forward to covering families for (f', g').
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import GuardExceeded, ValidationFailure, WindowMismatch
from .scales import BoundFn
from .slaloms import Branch, Slalom, SlalomFamily, covers, pad_to

CHECK_GUARD = 10 ** 6


@dataclass(frozen=True)
class TransferSystem:
    """Blocks w_i of source levels plus per-block maps H[i][l].

    blocks[i] is a tuple of source-level indices; maps[i][j] is the value
    table of H for source level blocks[i][j], a tuple of length fp(i) with
    entries below f(blocks[i][j]).  fp/gp are the target bounds, f/g the
    source bounds.
    """

    f: BoundFn
    g: BoundFn
    fp: BoundFn
    gp: BoundFn
    blocks: tuple
    maps: tuple

    def __post_init__(self):
        blocks = tuple(tuple(int(l) for l in w) for w in self.blocks)
        maps = tuple(tuple(tuple(int(v) for v in h) for h in wi) for wi in self.maps)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "maps", maps)
        bad = []
        if len(blocks) != self.fp.window:
            bad.append(("blocks", f"{len(blocks)} blocks on target window {self.fp.window}"))
        seen = [l for w in blocks for l in w]
        if sorted(seen) != list(range(self.f.window)):
            bad.append(("blocks", "blocks do not partition the source window"))
        for i, (w, hs) in enumerate(zip(blocks, maps)):
            if len(hs) != len(w):
                bad.append((f"i={i}", f"{len(hs)} maps for block of size {len(w)}"))
                continue
            for l, h in zip(w, hs):
                if len(h) != self.fp(i):
                    bad.append((f"i={i},l={l}", f"domain size {len(h)} != f'(i)={self.fp(i)}"))
                elif any(v < 0 or v >= self.f(l) for v in h):
                    bad.append((f"i={i},l={l}", f"range exceeds f(l)={self.f(l)}"))
        if bad:
            raise ValidationFailure(bad)


def check_condition_c(T: TransferSystem, guard: int = CHECK_GUARD):
    """Decide condition (c): joint H-preimages of g-small sets are g'-small.

    Equivalent subset form (used here): a violation at block i exists iff
    some (g'(i)+1)-subset X of [0, f'(i)) has |H[i][l](X)| <= g(l) for every
    l in w_i; then u_l := image of X is a violating choice.  Returns
    (True, None) or (False, (i, u_choice)).  A direct enumeration over all
    u-choices is kept in the test suite as the independent oracle.
    """
    for i, w in enumerate(T.blocks):
        need = T.gp(i) + 1
        if need > T.fp(i):
            continue
        size = math.comb(T.fp(i), need)
        if size > guard:
            raise GuardExceeded(size, guard, f"subset space at block {i}")
        tables = [T.maps[i][j] for j in range(len(w))]
        for X in itertools.combinations(range(T.fp(i)), need):
            images = [frozenset(h[x] for x in X) for h in tables]
            if all(len(img) <= T.g(l) for img, l in zip(images, w)):
                u_choice = {l: frozenset(img) for l, img in zip(w, images)}
                return False, (i, u_choice)
    return True, None


def slalom_pushforward(T: TransferSystem, B: Slalom) -> Slalom:
    """B*_i = {n < f'(i) : H[i][l](n) in B_l for all l in w_i}.

    Empty levels are padded with {0}; a cover may legally overshoot.
    """
    sets = []
    for i, w in enumerate(T.blocks):
        si = frozenset(n for n in range(T.fp(i))
                       if all(T.maps[i][j][n] in B.sets[l]
                              for j, l in enumerate(w)))
        sets.append(si if si else frozenset({0}))
    return Slalom(T.fp, tuple(sets))


def branch_pushforward(T: TransferSystem, x: Branch) -> Branch:
    """x*(l) = H[i][l](x(i)) for l in w_i."""
    if x.window != T.fp.window:
        raise WindowMismatch(f"branch window {x.window} vs target {T.fp.window}")
    out = [0] * T.f.window
    for i, w in enumerate(T.blocks):
        for j, l in enumerate(w):
            out[l] = T.maps[i][j][x.values[i]]
    return Branch(tuple(out))


def _lifted(inputs, slaloms, g: BoundFn, f: BoundFn, what: str) -> SlalomFamily:
    """Check the input covers, build the output family, re-verify it.

    inputs lists (label, family, g_i, f_i); a family that does not cover
    the product below f_i with g_i-slaloms is rejected under its label.
    slaloms is a generator of the output members, so nothing is built
    before every input has passed.  The output must cover the product
    below f with g-slaloms; if it does not, the construction is wrong.
    """
    for label, family, gi, fi in inputs:
        ok, wit = covers(family, gi, fi)
        if not ok:
            raise ValidationFailure([(label, f"family does not cover, witness {wit.values}")])
    out = SlalomFamily(tuple(slaloms))
    ok, wit = covers(out, g, f)
    if not ok:
        raise AssertionError(f"{what} lost coverage at {wit.values}")
    return out


def family_pushforward(T: TransferSystem, G: SlalomFamily, verify: bool = True) -> SlalomFamily:
    """Push a covering family for (f, g) to one for (f', g'); re-verified."""
    pushed = (slalom_pushforward(T, B) for B in G)
    if not verify:
        return SlalomFamily(tuple(pushed))
    return _lifted([("input", G, T.g, T.f)], pushed, T.gp, T.fp, "pushforward")


def mixed_radix_decode(n: int, radices) -> tuple:
    """Digits of n, most significant first (row-major, lowest level first)."""
    digits = [0] * len(radices)
    for j in range(len(radices) - 1, -1, -1):
        digits[j] = n % radices[j]
        n //= radices[j]
    return tuple(digits)


def mixed_radix_encode(digits, radices) -> int:
    n = 0
    for d, r in zip(digits, radices):
        n = n * r + d
    return n


def block_coding_system(f: BoundFn, g: BoundFn, cuts) -> TransferSystem:
    """The block-product system: f'(i) and g'(i) are the products over the
    i-th block, and H[i][l] projects the mixed-radix code onto level l."""
    cuts = list(cuts)
    K = f.window
    if cuts[0] != 0 or cuts[-1] != K or any(a >= b for a, b in zip(cuts, cuts[1:])):
        raise ValidationFailure([("cuts", f"{cuts} is not an increasing 0..{K} sequence")])
    blocks = tuple(tuple(range(a, b)) for a, b in zip(cuts, cuts[1:]))
    fp = BoundFn(tuple(math.prod(f(l) for l in w) for w in blocks))
    gp = BoundFn(tuple(math.prod(g(l) for l in w) for w in blocks))
    maps = []
    for i, w in enumerate(blocks):
        radices = [f(l) for l in w]
        tables = [[] for _ in w]
        for n in range(fp(i)):
            for j, d in enumerate(mixed_radix_decode(n, radices)):
                tables[j].append(d)
        maps.append(tuple(tuple(t) for t in tables))
    T = TransferSystem(f, g, fp, gp, blocks, tuple(maps))
    ok, wit = check_condition_c(T)
    if not ok:
        raise AssertionError(f"block coding violated condition (c): {wit}")
    return T


def allfunctions_system(n: int, num_blocks: int, guard: int = CHECK_GUARD,
                        literal_range: bool = False) -> TransferSystem:
    """The constant-bound system: source f = n+1, g = n; target f'(i) = 2^i,
    g'(i) = n; block i enumerates all functions [0, 2^i) -> [0, n+1).

    With literal_range=True the maps range over [0, n) and |w_i| = n^(2^i)
    instead; that variant fails condition (c) (the checker exhibits the
    counterexample), so construction skips the (c) re-verification for it.
    """
    rng = n if literal_range else n + 1
    sizes = [rng ** (2 ** i) for i in range(num_blocks)]
    if any(s > guard for s in sizes):
        raise GuardExceeded(max(sizes), guard, "function enumeration")
    blocks, maps, pos = [], [], 0
    for i in range(num_blocks):
        dom = 2 ** i
        w = tuple(range(pos, pos + sizes[i]))
        pos += sizes[i]
        fns = [tuple(t) for t in itertools.product(range(rng), repeat=dom)]
        blocks.append(w)
        maps.append(tuple(fns))
    K = pos
    f = BoundFn((n + 1,) * K)
    g = BoundFn((n,) * K)
    fp = BoundFn(tuple(2 ** i for i in range(num_blocks)))
    gp = BoundFn((n,) * num_blocks)
    T = TransferSystem(f, g, fp, gp, tuple(blocks), tuple(maps))
    if not literal_range:
        ok, wit = check_condition_c(T, guard)
        if not ok:
            raise AssertionError(f"all-functions system violated condition (c): {wit}")
    return T


def _lift_by_blocks(f: BoundFn, g: BoundFn, G: SlalomFamily, block_fn):
    """Common engine for the halving and addition lifts.

    block_fn(k) returns the list of blocks partitioning the target range at
    level k, indexed by i < f(k).  The input family must cover (f, g); the
    output slaloms A_k = union of blocks picked by C_k cover the target and
    are re-verified.
    """
    per_level_blocks = [block_fn(k) for k in range(f.window)]
    target = BoundFn(tuple(sum(len(b) for b in blocks) for blocks in per_level_blocks))
    lifted = (Slalom(target, tuple(frozenset().union(*(blocks[i] for i in C.sets[k]))
                                   for k, blocks in enumerate(per_level_blocks)))
              for C in G)
    return _lifted([("input", G, g, f)], lifted, f, target, "lift")


def halving_lift(f: BoundFn, g: BoundFn, G: SlalomFamily) -> SlalomFamily:
    """Lift a (f,g)-cover to a (f*floor(f/g), f)-cover via contiguous blocks
    of size floor(f/g)."""
    for k in range(f.window):
        if f(k) // g(k) < 1:
            raise ValidationFailure([(f"k={k}", f"floor(f/g)=0 (f={f(k)}, g={g(k)})")])

    def block_fn(k):
        size = f(k) // g(k)
        return [frozenset(range(i * size, (i + 1) * size)) for i in range(f(k))]

    return _lift_by_blocks(f, g, G, block_fn)


def addition_lift(f: BoundFn, g: BoundFn, G: SlalomFamily) -> SlalomFamily:
    """Lift a (f,g)-cover to a (2f-g, f)-cover: f(k)-g(k) pairs, then
    singletons."""
    for k in range(f.window):
        if not g(k) < f(k):
            raise ValidationFailure([(f"k={k}", f"g < f fails (f={f(k)}, g={g(k)})")])

    def block_fn(k):
        pairs = f(k) - g(k)
        blocks = [frozenset({2 * i, 2 * i + 1}) for i in range(pairs)]
        blocks += [frozenset({i + pairs}) for i in range(pairs, f(k))]
        return blocks

    return _lift_by_blocks(f, g, G, block_fn)


def transitivity_compose(G: SlalomFamily, H: SlalomFamily, f: BoundFn,
                         g: BoundFn, h: BoundFn) -> SlalomFamily:
    """From a g-cover of f and an h-cover of g, an h-cover of f of size
    <= |G|*|H|, via the increasing enumeration of each level set."""
    # pad to exact cardinality so the increasing enumeration is total
    exact = BoundFn(tuple(min(g(k), f(k)) for k in range(f.window)))

    def composed():
        for B in G:
            enums = [sorted(s) for s in pad_to(B, exact).sets]
            for D in H:
                sets = tuple(frozenset(enums[k][j] for j in D.sets[k] if j < len(enums[k]))
                             or frozenset({enums[k][0]})
                             for k in range(f.window))
                yield Slalom(f, sets)

    return _lifted([("G", G, g, f), ("H", H, h, g)], composed(), h, f, "composition")


def product_pair(Gf: SlalomFamily, Gf2: SlalomFamily, f: BoundFn, g: BoundFn,
                 f2: BoundFn, g2: BoundFn) -> SlalomFamily:
    """Pairwise products under the per-level pairing (a,b) -> a*f2(k)+b."""
    if f.window != f2.window:
        raise WindowMismatch("factors on different windows")
    target = BoundFn(tuple(f(k) * f2(k) for k in range(f.window)))
    gt = BoundFn(tuple(g(k) * g2(k) for k in range(f.window)))
    products = (Slalom(target, tuple(frozenset(a * f2(k) + b for a in B.sets[k] for b in D.sets[k])
                                     for k in range(f.window)))
                for B in Gf for D in Gf2)
    return _lifted([("Gf", Gf, g, f), ("Gf2", Gf2, g2, f2)], products, gt, target, "product")


def branch_chain_bound(B: Slalom, depth: int) -> int:
    """Count binary sequences of length depth whose every initial segment,
    coded as an integer, lies in the slalom; asserts count <= |B_depth|.

    Level k of B holds codes of binary strings of length k (value < 2^k).
    """
    if B.window < depth + 1:
        raise ValidationFailure([("depth", f"{depth} exceeds window {B.window - 1}")])
    for k in range(depth + 1):
        if B.cap(k) != 2 ** k:
            raise ValidationFailure([(f"k={k}", f"cap {B.cap(k)} != 2^{k}")])
    count = 0
    frontier = [0] if 0 in B.sets[0] else []
    for k in range(1, depth + 1):
        frontier = [2 * v + b for v in frontier for b in (0, 1)
                    if (2 * v + b) in B.sets[k]]
    count = len(frontier)
    if count > len(B.sets[depth]):
        raise AssertionError("chain count exceeds the top-level set size")
    return count

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from slalomcover.covernum import (_fiber_bound, cover_number_bounds,
                                  cover_number_exact, greedy_cover)
from slalomcover.errors import GuardExceeded
from slalomcover.scales import BoundFn
from slalomcover.slaloms import covers

from conftest import naive_cover_number_exact, naive_greedy_cover

# Frozen oracle values, each re-derivable by hand:
#   (3)/(2): two 2-sets cover [0,3), one cannot -> 2
#   (3,3)/(2,2): one slalom misses a full 1x1 corner, two leave an
#     uncovered 1x1 or 1x3 strip (4 branches can pairwise differ in both
#     coordinates only up to...), three grid cells suffice -> 3
#   (2,2)/(1,1): four singleton branches, one per slalom -> 4
#   (4,4)/(2,2): 16 branches, each slalom holds 4, and 3 slaloms always
#     miss a branch by a diagonal argument -> 4
ORACLE = {
    ((3,), (2,)): 2,
    ((3, 3), (2, 2)): 3,
    ((2, 2), (1, 1)): 4,
    ((4, 4), (2, 2)): 4,
}


@pytest.mark.parametrize("f_vals,g_vals", sorted(ORACLE))
def test_exact_cover_number_matches_oracle(f_vals, g_vals):
    f, g = BoundFn(f_vals), BoundFn(g_vals)
    exact, fam = cover_number_exact(f, g)
    assert exact == ORACLE[(f_vals, g_vals)]
    ok, _ = covers(fam, g, f)
    assert ok
    assert len(fam) == exact


def test_bounds_bracket_and_grid_covers():
    f, g = BoundFn((3, 3)), BoundFn((2, 2))
    lower, upper, grid = cover_number_bounds(f, g)
    assert lower == math.ceil(9 / 4) == 3
    assert upper == 4
    ok, _ = covers(grid, BoundFn((2, 2)), f)
    assert ok


def test_trivial_instance_is_one():
    f, g = BoundFn((2, 3)), BoundFn((2, 3))
    exact, fam = cover_number_exact(f, g)
    assert exact == 1


def test_counting_bound_one_can_be_wrong_sideways():
    # prod f / prod g = 1, yet no single slalom works because f > g at
    # level 0: the exact search must not take the counting shortcut
    f, g = BoundFn((4, 2)), BoundFn((2, 4))
    exact, _ = cover_number_exact(f, g)
    assert exact == 2


def test_guard_trips_on_large_instances():
    with pytest.raises(GuardExceeded):
        cover_number_exact(BoundFn((30, 30, 30)), BoundFn((10, 10, 10)),
                           guard=10)


def test_greedy_returns_verified_cover():
    f, g = BoundFn((3, 3)), BoundFn((2, 2))
    fam = greedy_cover(f, g)
    ok, _ = covers(fam, g, f)
    assert ok
    lower, upper, _ = cover_number_bounds(f, g)
    assert lower <= len(fam) <= upper


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exact_within_bounds_on_random_instances(data):
    window = data.draw(st.integers(1, 2))
    f_vals = tuple(data.draw(st.integers(2, 4)) for _ in range(window))
    g_vals = tuple(data.draw(st.integers(1, fv)) for fv in f_vals)
    f, g = BoundFn(f_vals), BoundFn(g_vals)
    lower, upper, _ = cover_number_bounds(f, g)
    exact, fam = cover_number_exact(f, g)
    assert lower <= exact <= upper
    ok, _ = covers(fam, g, f)
    assert ok
    # greedy is a genuine cover and never beats the optimum
    assert len(greedy_cover(f, g)) >= exact


def test_exact_monotone_in_g():
    # enlarging g can only shrink the cover number
    f = BoundFn((4, 3))
    prev = None
    for gv in ((1, 1), (2, 1), (2, 2), (3, 2)):
        exact, _ = cover_number_exact(f, BoundFn(gv))
        if prev is not None:
            assert exact <= prev
        prev = exact


def test_bounds_use_exact_integer_ceilings():
    # float division would round (2^53 + 1) / 2 down to 2^52
    with pytest.raises(GuardExceeded) as info:
        cover_number_bounds(BoundFn((2 ** 53 + 1,)), BoundFn((2,)))
    assert info.value.size == 2 ** 52 + 1


def test_bounds_guard_trips_before_the_grid_is_built():
    with pytest.raises(GuardExceeded):
        cover_number_bounds(BoundFn((600, 600)), BoundFn((1, 1)), guard=1000)
    lower, upper, grid = cover_number_bounds(BoundFn((6, 6)), BoundFn((2, 2)), guard=9)
    assert (lower, upper, len(grid)) == (9, 9, 9)


# ------------------------------------------- differential tests vs oracles

def level_sets(fam):
    return [tuple(tuple(sorted(s)) for s in B.sets) for B in fam]


# every (f, g) with window <= 2, f(k) <= 5 and g(k) <= f(k)
SMALL = [(f, g) for w in (1, 2) for f in itertools.product(range(1, 6), repeat=w)
         for g in itertools.product(*(range(1, fv + 1) for fv in f))]

# window-3 instances with levels sorted, 1 <= g(k) < f(k) <= 5, on which
# the list search takes under 0.3 s; the four with counting bound above
# the default budget of 64 return (None, None) on both sides
WINDOW3 = [
    ((2, 2, 2), (1, 1, 1)), ((2, 2, 3), (1, 1, 1)), ((2, 2, 3), (1, 1, 2)),
    ((2, 2, 4), (1, 1, 1)), ((2, 2, 4), (1, 1, 2)), ((2, 2, 4), (1, 1, 3)),
    ((2, 2, 5), (1, 1, 1)), ((2, 2, 5), (1, 1, 3)), ((2, 2, 5), (1, 1, 4)),
    ((2, 3, 3), (1, 1, 1)), ((2, 3, 3), (1, 1, 2)), ((2, 3, 4), (1, 1, 1)),
    ((2, 3, 4), (1, 1, 2)), ((2, 3, 5), (1, 1, 1)), ((2, 3, 3), (1, 2, 2)),
    ((2, 3, 4), (1, 2, 3)), ((2, 4, 4), (1, 1, 1)), ((2, 4, 4), (1, 1, 2)),
    ((2, 4, 5), (1, 1, 1)), ((2, 4, 4), (1, 2, 2)), ((2, 4, 5), (1, 2, 1)),
    ((2, 5, 5), (1, 1, 1)), ((3, 3, 3), (1, 1, 1)), ((3, 3, 4), (1, 1, 1)),
    ((3, 3, 4), (1, 1, 2)), ((3, 3, 5), (1, 1, 1)), ((3, 3, 3), (1, 2, 2)),
    ((3, 4, 4), (1, 1, 1)), ((3, 4, 4), (1, 1, 2)), ((3, 4, 5), (1, 1, 1)),
    ((3, 4, 4), (1, 2, 2)), ((3, 4, 5), (1, 2, 1)), ((3, 5, 5), (1, 1, 1)),
    ((3, 3, 3), (2, 2, 2)), ((4, 4, 4), (1, 1, 1)), ((4, 4, 4), (1, 1, 2)),
    ((4, 4, 5), (1, 1, 1)), ((4, 4, 4), (1, 2, 2)), ((4, 4, 5), (1, 2, 1)),
    ((4, 5, 5), (1, 1, 1)), ((4, 4, 4), (2, 2, 2)), ((4, 4, 5), (2, 2, 1)),
    ((4, 5, 5), (2, 1, 1)), ((5, 5, 5), (1, 1, 1)),
]

# the list search needs 0.3 s to over 4 minutes on the window-2 ones; their
# (m, family), as it returns them, frozen.  The window-3 ones were recorded
# from the bitset search when it still started at the counting bound.
FROZEN = {
    ((4, 5), (1, 2)): (12, [
        ((0,), (0, 1)), ((0,), (0, 2)), ((0,), (3, 4)), ((1,), (0, 1)), ((1,), (0, 2)),
        ((1,), (3, 4)), ((2,), (0, 1)), ((2,), (0, 2)), ((2,), (3, 4)), ((3,), (0, 1)),
        ((3,), (0, 2)), ((3,), (3, 4)),
    ]),
    ((5, 4), (2, 1)): (12, [
        ((0, 1), (0,)), ((0, 1), (1,)), ((0, 1), (2,)), ((0, 1), (3,)), ((0, 2), (0,)),
        ((0, 2), (1,)), ((0, 2), (2,)), ((0, 2), (3,)), ((3, 4), (0,)), ((3, 4), (1,)),
        ((3, 4), (2,)), ((3, 4), (3,)),
    ]),
    ((5, 4), (3, 1)): (8, [
        ((0, 1, 2), (0,)), ((0, 1, 2), (1,)), ((0, 1, 2), (2,)), ((0, 1, 2), (3,)),
        ((0, 3, 4), (0,)), ((0, 3, 4), (1,)), ((0, 3, 4), (2,)), ((0, 3, 4), (3,)),
    ]),
    ((5, 5), (1, 2)): (15, [
        ((0,), (0, 1)), ((0,), (0, 2)), ((0,), (3, 4)), ((1,), (0, 1)), ((1,), (0, 2)),
        ((1,), (3, 4)), ((2,), (0, 1)), ((2,), (0, 2)), ((2,), (3, 4)), ((3,), (0, 1)),
        ((3,), (0, 2)), ((3,), (3, 4)), ((4,), (0, 1)), ((4,), (0, 2)), ((4,), (3, 4)),
    ]),
    ((5, 5), (1, 4)): (10, [
        ((0,), (0, 1, 2, 3)), ((0,), (0, 1, 2, 4)), ((1,), (0, 1, 2, 3)),
        ((1,), (0, 1, 2, 4)), ((2,), (0, 1, 2, 3)), ((2,), (0, 1, 2, 4)),
        ((3,), (0, 1, 2, 3)), ((3,), (0, 1, 2, 4)), ((4,), (0, 1, 2, 3)),
        ((4,), (0, 1, 2, 4)),
    ]),
    ((5, 5), (2, 1)): (15, [
        ((0, 1), (0,)), ((0, 1), (1,)), ((0, 1), (2,)), ((0, 1), (3,)), ((0, 1), (4,)),
        ((0, 2), (0,)), ((0, 2), (1,)), ((0, 2), (2,)), ((0, 2), (3,)), ((0, 2), (4,)),
        ((3, 4), (0,)), ((3, 4), (1,)), ((3, 4), (2,)), ((3, 4), (3,)), ((3, 4), (4,)),
    ]),
    ((5, 5), (2, 2)): (8, [
        ((0, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 1), (3, 4)), ((0, 2), (0, 1)),
        ((2, 3), (2, 3)), ((2, 4), (2, 4)), ((3, 4), (0, 1)), ((3, 4), (3, 4)),
    ]),
    ((5, 5), (3, 1)): (10, [
        ((0, 1, 2), (0,)), ((0, 1, 2), (1,)), ((0, 1, 2), (2,)), ((0, 1, 2), (3,)),
        ((0, 1, 2), (4,)), ((0, 3, 4), (0,)), ((0, 3, 4), (1,)), ((0, 3, 4), (2,)),
        ((0, 3, 4), (3,)), ((0, 3, 4), (4,)),
    ]),
    ((5, 5), (4, 1)): (10, [
        ((0, 1, 2, 3), (0,)), ((0, 1, 2, 3), (1,)), ((0, 1, 2, 3), (2,)),
        ((0, 1, 2, 3), (3,)), ((0, 1, 2, 3), (4,)), ((0, 1, 2, 4), (0,)),
        ((0, 1, 2, 4), (1,)), ((0, 1, 2, 4), (2,)), ((0, 1, 2, 4), (3,)),
        ((0, 1, 2, 4), (4,)),
    ]),
    ((5, 5), (4, 2)): (5, [
        ((0, 1, 2, 3), (0, 1)), ((0, 1, 2, 3), (2, 3)), ((0, 1, 2, 4), (0, 4)),
        ((0, 1, 3, 4), (1, 4)), ((0, 1, 2, 4), (2, 3)),
    ]),
    ((3, 3, 5), (2, 2, 2)): (8, [
        ((0, 1), (0, 1), (0, 1)), ((0, 1), (0, 1), (2, 3)), ((0, 1), (0, 2), (0, 4)),
        ((0, 2), (0, 1), (0, 4)), ((0, 2), (0, 2), (0, 1)), ((0, 2), (0, 2), (2, 3)),
        ((1, 2), (1, 2), (1, 4)), ((1, 2), (1, 2), (2, 3)),
    ]),
    ((4, 4, 5), (2, 2, 3)): (8, [
        ((0, 1), (0, 1), (0, 1, 2)), ((0, 1), (0, 1), (0, 3, 4)),
        ((0, 1), (2, 3), (0, 1, 2)), ((0, 1), (2, 3), (0, 3, 4)),
        ((2, 3), (0, 1), (0, 1, 2)), ((2, 3), (0, 1), (0, 3, 4)),
        ((2, 3), (2, 3), (0, 1, 2)), ((2, 3), (2, 3), (0, 3, 4)),
    ]),
}


def assert_bound_brackets(f_vals, g_vals, exact):
    """counting bound <= fiber bound <= exact value (when one was found)."""
    f, g = BoundFn(f_vals), BoundFn(g_vals)
    fiber = _fiber_bound(f, g)
    assert cover_number_bounds(f, g)[0] <= fiber, (f_vals, g_vals)
    assert exact is None or fiber <= exact, (f_vals, g_vals)


def test_exact_search_matches_the_list_oracle():
    for f_vals, g_vals in SMALL + WINDOW3:
        if (f_vals, g_vals) in FROZEN:
            continue
        m, fam = cover_number_exact(BoundFn(f_vals), BoundFn(g_vals))
        want_m, want_fam = naive_cover_number_exact(f_vals, g_vals)
        assert m == want_m, (f_vals, g_vals)
        got = None if fam is None else level_sets(fam)
        assert got == want_fam, (f_vals, g_vals)
        assert_bound_brackets(f_vals, g_vals, want_m)


def test_exact_search_matches_the_frozen_oracle_families():
    for (f_vals, g_vals), (want_m, want_fam) in FROZEN.items():
        m, fam = cover_number_exact(BoundFn(f_vals), BoundFn(g_vals))
        assert (m, level_sets(fam)) == (want_m, want_fam), (f_vals, g_vals)
        assert_bound_brackets(f_vals, g_vals, want_m)


@pytest.mark.parametrize("f_vals,g_vals,counting,fiber", [
    ((5, 5), (2, 2), 7, 8),
    ((3, 4), (2, 1), 6, 8),
    # level 1 has f <= g and constrains nothing: the bound is ceil(4/2)
    ((4, 2), (2, 4), 1, 2),
])
def test_fiber_bound_beats_the_counting_bound(f_vals, g_vals, counting, fiber):
    f, g = BoundFn(f_vals), BoundFn(g_vals)
    assert cover_number_bounds(f, g)[0] == counting
    assert _fiber_bound(f, g) == fiber


def test_fiber_bound_skips_levels_with_f_at_most_g():
    # 1200 levels of which one constrains: only that one is recursed into
    f, g = BoundFn((3,) + (1,) * 1200), BoundFn((2,) * 1201)
    assert _fiber_bound(f, g) == 2


def test_greedy_matches_the_set_oracle():
    for f_vals, g_vals in SMALL:
        fam = greedy_cover(BoundFn(f_vals), BoundFn(g_vals))
        assert level_sets(fam) == naive_greedy_cover(f_vals, g_vals), (f_vals, g_vals)


def test_five_by_five_by_two_by_two_is_eight():
    # the list search needs about a minute here, nearly all of it proving
    # that 7 slaloms cannot cover; the family is the one it returns
    m, fam = cover_number_exact(BoundFn((5, 5)), BoundFn((2, 2)))
    assert m == 8
    assert level_sets(fam)[:2] == [((0, 1), (0, 1)), ((0, 1), (0, 2))]
    assert (m, level_sets(fam)) == FROZEN[((5, 5), (2, 2))]

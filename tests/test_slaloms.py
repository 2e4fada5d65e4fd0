import itertools

import pytest
from hypothesis import given, settings, strategies as st

from slalomcover.errors import ValidationFailure, WindowMismatch
from slalomcover.scales import BoundFn
from slalomcover.slaloms import (Branch, Slalom, SlalomFamily, branches,
                                 covers, member, pad_to)

from conftest import naive_covers


def test_slalom_rejects_values_above_cap():
    with pytest.raises(ValidationFailure):
        Slalom(BoundFn((3, 3)), (frozenset({0, 3}), frozenset({0})))


def test_slalom_rejects_empty_level():
    with pytest.raises(ValidationFailure):
        Slalom(BoundFn((3,)), (frozenset(),))


def test_slalom_lists_every_bad_level():
    with pytest.raises(ValidationFailure) as ei:
        Slalom(BoundFn((3, 3, 3, 3)), ([0], [], [1, 3], [-1, 2]))
    assert ei.value.violations == [("k=1", "empty level set"),
                                   ("k=2", "values outside [0, 3)"),
                                   ("k=3", "values outside [0, 3)")]


def test_member_checks_every_level():
    B = Slalom(BoundFn((3, 3)), (frozenset({0, 1}), frozenset({2})))
    assert member(Branch((1, 2)), B)
    assert not member(Branch((1, 1)), B)
    with pytest.raises(WindowMismatch):
        member(Branch((1,)), B)


def test_branches_are_lexicographic_and_complete():
    f = BoundFn((2, 3))
    got = [b.values for b in branches(f)]
    assert got == sorted(got)
    assert got == list(itertools.product(range(2), range(3)))


def test_pad_to_adds_least_absent_values():
    B = Slalom(BoundFn((5, 5)), (frozenset({3}), frozenset({0, 4})))
    padded = pad_to(B, BoundFn((3, 2)))
    assert padded.sets == (frozenset({0, 1, 3}), frozenset({0, 4}))


def test_pad_to_rejects_oversized_level():
    B = Slalom(BoundFn((5,)), (frozenset({0, 1, 2}),))
    with pytest.raises(ValidationFailure):
        pad_to(B, BoundFn((2,)))


def test_covers_finds_lex_least_witness():
    f, g = BoundFn((2, 2)), BoundFn((1, 1))
    fam = SlalomFamily((
        Slalom(f, (frozenset({0}), frozenset({0}))),
        Slalom(f, (frozenset({1}), frozenset({1}))),
    ))
    ok, wit = covers(fam, g, f)
    assert not ok
    assert wit.values == (0, 1)


def test_covers_rejects_oversized_member():
    f = BoundFn((3,))
    fam = SlalomFamily((Slalom(f, (frozenset({0, 1}),)),))
    with pytest.raises(ValidationFailure):
        covers(fam, BoundFn((1,)), f)


def test_covers_names_the_first_oversized_member_and_level():
    f = BoundFn((3, 3))
    fam = SlalomFamily((Slalom(f, ([0], [0])), Slalom(f, ([1], [0, 1])),
                        Slalom(f, ([0, 1], [0, 1]))))
    with pytest.raises(ValidationFailure) as ei:
        covers(fam, BoundFn((2, 1)), f)
    assert ei.value.violations == [("slalom 1, k=1", "|B_k|=2 > g(k)=1")]


def test_covers_needs_a_size_bound_for_every_level():
    f = BoundFn((3, 3))
    fam = SlalomFamily((Slalom(f, ([0, 1], [0, 1])),))
    with pytest.raises(WindowMismatch):
        covers(fam, BoundFn((2,)), f)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_covers_agrees_with_naive_oracle(data):
    window = data.draw(st.integers(1, 3))
    f_vals = tuple(data.draw(st.integers(1, 4)) for _ in range(window))
    f = BoundFn(f_vals)
    g_vals = tuple(data.draw(st.integers(1, fv)) for fv in f_vals)
    n_slaloms = data.draw(st.integers(0, 3))
    fam_sets = []
    for _ in range(n_slaloms):
        sets = tuple(
            frozenset(data.draw(st.sets(st.integers(0, f_vals[k] - 1),
                                        min_size=1, max_size=g_vals[k])))
            for k in range(window))
        fam_sets.append(sets)
    fam = SlalomFamily(tuple(Slalom(f, s) for s in fam_sets))
    ok, wit = covers(fam, BoundFn(g_vals), f)
    gap = naive_covers(fam_sets, f_vals)
    assert ok == (gap is None)
    if not ok:
        assert wit.values == gap
        assert not any(member(wit, B) for B in fam)


def test_empty_family_misses_the_least_branch():
    f = BoundFn((3, 2))
    ok, wit = covers(SlalomFamily(()), BoundFn((1, 1)), f)
    assert not ok
    assert wit.values == (0, 0)


def test_covered_member_sets_are_remembered_per_level():
    # {A} holds everything below level 2 after the prefix (0, 0), but not
    # everything below level 1 after the prefix (1,): the gap (1, 1, 0)
    # must not be skipped as already covered
    f = BoundFn((2, 2, 1))
    fam = SlalomFamily((
        Slalom(f, (frozenset({0, 1}), frozenset({0}), frozenset({0}))),
        Slalom(f, (frozenset({0}), frozenset({1}), frozenset({0}))),
    ))
    ok, wit = covers(fam, BoundFn((2, 1, 1)), f)
    assert not ok
    assert wit.values == (1, 1, 0)

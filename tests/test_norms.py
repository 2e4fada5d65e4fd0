import random

import pytest
from hypothesis import given, settings, strategies as st

from slalomcover.errors import GuardExceeded, ValidationFailure
from slalomcover.norms import NormSpec, cd_complete_check, cd_select, norm_value

from conftest import cd_complete_check_sets, natural_norm


def test_norm_value_frozen_table():
    spec = NormSpec((2,), (2,))
    # g*h^m <= size: 4 -> 1, 8 -> 2, 15 -> 2, 16 -> 3
    assert [norm_value(spec, 0, s) for s in (1, 2, 3, 4, 8, 15, 16)] == \
        [0, 0, 0, 1, 2, 2, 3]


def test_norm_value_is_clamped_at_zero():
    spec = NormSpec((100,), (7,))
    assert norm_value(spec, 0, 1) == 0
    assert norm_value(spec, 0, 99) == 0
    with pytest.raises(ValidationFailure):
        norm_value(spec, 0, 0)


def test_norm_value_characterization_sampled():
    # the defining inequality g*h^m <= size < g*h^(m+1), sampled widely
    rng = random.Random(20240824)
    spec = NormSpec((3, 17, 2), (2, 5, 11))
    for _ in range(10_000):
        k = rng.randrange(3)
        size = rng.randint(1, 10 ** 6)
        m = norm_value(spec, k, size)
        g, h = spec.g[k], spec.h[k]
        if m > 0:
            assert g * h ** m <= size
        assert size < g * h ** (m + 1) or m == 0 and size < g * h


def test_spec_rejects_degenerate_parameters():
    with pytest.raises(ValidationFailure):
        NormSpec((2,), (1,))
    with pytest.raises(ValidationFailure):
        NormSpec((0,), (2,))


def test_cd_select_keeps_norm_within_one():
    spec = NormSpec((2,), (2,))
    pieces = [frozenset(range(i * 4, i * 4 + 4)) for i in range(4)]
    chosen = cd_select(spec, 0, pieces, 2)
    assert chosen == [0, 1]
    union = frozenset().union(*(pieces[i] for i in chosen))
    assert norm_value(spec, 0, len(union)) >= norm_value(spec, 0, 16) - 1


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_cd_select_guarantee_on_random_partitions(data):
    g = data.draw(st.integers(1, 4))
    h = data.draw(st.integers(2, 5))
    spec = NormSpec((g,), (h,))
    total = data.draw(st.integers(1, 60))
    d = data.draw(st.integers(1, 3))
    c = data.draw(st.integers(d, d * h))  # the regime the guarantee covers
    # random disjoint split of [0, total) into c pieces
    labels = data.draw(st.lists(st.integers(0, c - 1), min_size=total,
                                max_size=total))
    pieces = [frozenset(x for x, l in zip(range(total), labels) if l == i)
              for i in range(c)]
    pieces = [p for p in pieces if p] or [frozenset(range(total))]
    chosen = cd_select(spec, 0, pieces, d)  # raises internally if violated
    union = frozenset().union(*(pieces[i] for i in chosen))
    assert norm_value(spec, 0, len(union)) >= \
        norm_value(spec, 0, total) - 1


def test_cardinality_norm_fails_completeness_at_four():
    # |a| itself is not (2,1)-complete: splitting 4 = 2 + 2 drops the norm
    # from 4 to 2, below 4 - 1
    ok, witness = cd_complete_check(lambda s: s, 4, c=2, d=1)
    assert not ok
    assert witness == (4, (2, 2))
    # and sizes up to 3 are fine
    ok, _ = cd_complete_check(lambda s: s, 3, c=2, d=1)
    assert ok


def test_log_norm_is_complete_where_cardinality_is_not():
    ok, _ = cd_complete_check(natural_norm(2, 1), 12, c=2, d=1)
    assert ok


def test_completeness_oracle_agrees_on_labeled_sets():
    # the labeled-set oracle and the partition reduction must agree for
    # cardinality-determined norms
    X = frozenset(range(5))
    ok_sets, _ = cd_complete_check_sets(lambda a: len(a), X, c=2, d=1)
    ok_sizes, _ = cd_complete_check(lambda s: s, len(X), c=2, d=1)
    assert ok_sets == ok_sizes is False
    log_norm = natural_norm(2, 1)
    ok_sets, _ = cd_complete_check_sets(lambda a: log_norm(len(a)),
                                        frozenset(range(4)), 2, 1)
    ok_sizes, _ = cd_complete_check(log_norm, 4, 2, 1)
    assert ok_sets == ok_sizes is True


def test_completeness_checks_guarded():
    with pytest.raises(GuardExceeded):
        cd_complete_check(lambda s: s, 13, 2, 1)
    with pytest.raises(GuardExceeded):
        cd_complete_check_sets(lambda a: len(a), frozenset(range(7)), 2, 1)

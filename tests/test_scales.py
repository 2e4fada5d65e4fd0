import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from slalomcover.errors import ValidationFailure, WindowMismatch
from slalomcover.scales import (BoundFn, T1, blass_levels, gen_blass_family,
                                gen_square_pair, progressivity_profile,
                                scale_violations, separation_profile,
                                square_pair_levels, validate_scale,
                                validate_triple)


def test_t1_is_a_valid_scale():
    assert T1.lo == (2, 8, 128)
    assert T1.hi == (3, 12, 200)
    assert scale_violations(T1.lo, T1.hi) == []


def test_scale_rejects_slow_growth():
    # lo[0]*hi[0] = 6 is not below lo[1] = 5
    with pytest.raises(ValidationFailure) as ei:
        validate_scale((2, 5), (3, 7))
    assert any("lo[k]*hi[k]" in what for _, what in ei.value.violations)


def test_scale_rejects_crossed_bands():
    with pytest.raises(ValidationFailure):
        validate_scale((4, 100), (3, 200))


def test_scale_window_mismatch():
    with pytest.raises(WindowMismatch):
        validate_scale((2, 8), (3, 12, 200))


def test_triple_validation_on_t1():
    t = validate_triple(BoundFn((3, 12, 200)), BoundFn((2, 8, 128)),
                        BoundFn((2, 8, 128)), T1)
    assert t.window == 3
    with pytest.raises(ValidationFailure):
        # g below the lower scale line
        validate_triple(BoundFn((3, 12, 200)), BoundFn((1, 8, 128)),
                        BoundFn((2, 8, 128)), T1)
    with pytest.raises(ValidationFailure):
        # f above the upper scale line
        validate_triple(BoundFn((4, 12, 200)), BoundFn((2, 8, 128)),
                        BoundFn((2, 8, 128)), T1)


def test_bound_fn_rejects_nonpositive():
    with pytest.raises(ValidationFailure):
        BoundFn((3, 0, 2))


def test_blass_levels_frozen_value():
    # lo = 2, hi = 2^(2^16): ratio of logs is 2^16, so the schedule gives
    # floor(0.5 * sqrt(16)) = 2
    s = validate_scale((2,), (2 ** (2 ** 16),))
    assert blass_levels(s) == [2]


def test_blass_member_exponents():
    s = validate_scale((2,), (2 ** (2 ** 16),))
    t = gen_blass_family(s, (0,))
    # index 1 in the schedule-2 tree: f = lo^(2^2) = 16, g = h = lo^2 = 4
    assert t.f.values == (16,)
    assert t.g.values == (4,)
    assert t.h.values == (4,)


def test_blass_members_separated_on_two_level_tree():
    # a scale with an exponent schedule of 2 at both levels (shrinking the
    # outer log base keeps the integers small enough to print)
    s = validate_scale((2, 2 ** 21), (2 ** 19, 2 ** 400))
    assert blass_levels(s, inner_log_base=1.2) == [2, 2]
    a = gen_blass_family(s, (0, 0), inner_log_base=1.2)
    b = gen_blass_family(s, (1, 0), inner_log_base=1.2)
    assert a.f.values[0] == b.f.values[0]  # same root index at level 0
    # at level 1 the indices differ, so one member dwarfs the other
    assert a.f.values[1] != b.f.values[1]
    lo_memb, hi_memb = sorted([a, b], key=lambda t: t.f.values[1])
    # the separation quantity tends to 0 for a pair in increasing order
    sep = separation_profile(lo_memb, hi_memb)[1]
    assert sep == Fraction(1, 2 ** 126)


def test_progressivity_profile_exact_on_powers_of_two():
    s = validate_scale((2,), (2 ** (2 ** 16),))
    t = gen_blass_family(s, (0,))
    prof = progressivity_profile(t)
    assert prof == [Fraction(1)]
    assert isinstance(prof[0], Fraction)


def test_square_pair_frozen_values():
    s = validate_scale((2,), (2 ** 13,))
    assert square_pair_levels(s) == [2]
    base, square = gen_square_pair(s)
    assert base.f.values == (64,)
    assert base.g.values == (16,)
    assert base.h.values == (2,)
    assert square.f.values == (4096,)
    assert square.g.values == (256,)


def test_square_pair_rejects_small_scale():
    with pytest.raises(ValidationFailure):
        gen_square_pair(T1)


def test_square_pair_levels_are_exact_on_huge_scales():
    # hi / lo as a float overflows here; the schedule is computed in integers
    s = validate_scale((2, 8, 128), (3, 12, 2 ** 2000))
    assert square_pair_levels(s) == [0, 0, 1993 // 6]
    with pytest.raises(ValidationFailure) as ei:
        gen_square_pair(s)
    assert [where for where, _ in ei.value.violations] == ["k=0"]
    base, square = gen_square_pair(validate_scale((2,), (2 ** 2000,)))
    assert base.f.values == (2 ** 999,) and square.f.values == (2 ** 1998,)


def test_square_pair_levels_agree_with_the_float_form():
    def float_form(s):
        return [math.floor(math.log2(s.hi[k] / s.lo[k]) / 6) for k in range(s.window)]

    scales = [T1, validate_scale((2,), (2 ** 13,))]
    scales += [validate_scale((lo,), (hi,)) for lo in range(2, 13)
               for hi in range(lo, 2 ** 12)]
    for s in scales:
        assert square_pair_levels(s) == float_form(s), (s.lo, s.hi)


@given(st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=4))
def test_scale_violations_complete(los):
    """validate_scale accepts exactly the inputs with no reported violation."""
    his = [v + 1 for v in los]
    if scale_violations(tuple(los), tuple(his)):
        with pytest.raises(ValidationFailure):
            validate_scale(los, his)
    else:
        s = validate_scale(los, his)
        assert s.lo == tuple(los)


def test_separation_profile_is_exact_fraction():
    s = validate_scale((2, 100), (40, 2000))
    zeta = validate_triple(BoundFn((32, 2000)), BoundFn((2, 100)),
                           BoundFn((2, 100)), s)
    xi = validate_triple(BoundFn((16, 2000)), BoundFn((10, 1000)),
                         BoundFn((2, 100)), s)
    prof = separation_profile(xi, zeta)
    assert prof[0] == min(Fraction(32, 10), Fraction(16, 10 * 2))
    assert prof[0] == Fraction(4, 5)

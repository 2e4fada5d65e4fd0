import itertools
import random

import pytest

from slalomcover.covernum import cover_number_bounds
from slalomcover.errors import GuardExceeded, ValidationFailure
from slalomcover.reductions import (TransferSystem, _lifted, addition_lift,
                                    allfunctions_system, block_coding_system,
                                    branch_chain_bound, branch_pushforward,
                                    check_condition_c, family_pushforward,
                                    halving_lift, mixed_radix_decode,
                                    mixed_radix_encode, product_pair,
                                    slalom_pushforward, transitivity_compose)
from slalomcover.scales import BoundFn
from slalomcover.slaloms import Branch, Slalom, SlalomFamily, covers

from conftest import (condition_c_oracle, naive_addition, naive_compose,
                      naive_covers, naive_halving, naive_product,
                      naive_pushforward)


def level_sets(F):
    return [B.sets for B in F]


def tiny_system():
    """Two source levels in one block, identity-ish maps, f' = 4."""
    f, g = BoundFn((2, 2)), BoundFn((1, 1))
    fp, gp = BoundFn((4,)), BoundFn((1,))
    maps = (((0, 0, 1, 1), (0, 1, 0, 1)),)
    return TransferSystem(f, g, fp, gp, ((0, 1),), maps)


def test_transfer_validation_catches_bad_partition():
    f, g = BoundFn((2, 2)), BoundFn((1, 1))
    with pytest.raises(ValidationFailure):
        TransferSystem(f, g, BoundFn((4,)), BoundFn((1,)),
                       ((0, 0),), (((0,) * 4, (0,) * 4),))


def test_transfer_validation_catches_range_overflow():
    f, g = BoundFn((2,)), BoundFn((1,))
    with pytest.raises(ValidationFailure):
        TransferSystem(f, g, BoundFn((2,)), BoundFn((1,)),
                       ((0,),), (((0, 5),),))


def test_condition_c_on_tiny_system():
    T = tiny_system()
    # the pair map n -> (n//2, n%2) sends any 2-subset to sets of joint
    # preimage size <= 1, so (c) holds with g' = 1
    ok, _ = check_condition_c(T)
    assert ok
    assert condition_c_oracle(T)[0]


def test_condition_c_violation_found_and_witnessed():
    f, g = BoundFn((2,)), BoundFn((1,))
    # constant map: the single-value preimage is everything
    T = TransferSystem(f, g, BoundFn((3,)), BoundFn((1,)),
                       ((0,),), (((0, 0, 0),),))
    ok, witness = check_condition_c(T)
    assert not ok
    i, u_choice = witness
    assert i == 0
    # the witness is a genuine violation: count preimages directly
    count = sum(1 for n in range(3) if T.maps[0][0][n] in u_choice[0])
    assert count > T.gp(0)
    assert not condition_c_oracle(T)[0]


def _random_system(rng):
    window = rng.randint(1, 3)
    f_vals = tuple(rng.randint(2, 4) for _ in range(window))
    g_vals = tuple(rng.randint(1, fv - 1) for fv in f_vals)
    # random ordered partition of the source levels
    n_blocks = rng.randint(1, window)
    cuts = sorted(rng.sample(range(1, window), n_blocks - 1)) if n_blocks > 1 else []
    cuts = [0] + cuts + [window]
    blocks = tuple(tuple(range(a, b)) for a, b in zip(cuts, cuts[1:]))
    fp = tuple(rng.randint(2, 4) for _ in blocks)
    gp = tuple(rng.randint(1, 3) for _ in blocks)
    maps = tuple(
        tuple(tuple(rng.randrange(f_vals[l]) for _ in range(fp[i])) for l in w)
        for i, w in enumerate(blocks))
    return TransferSystem(BoundFn(f_vals), BoundFn(g_vals), BoundFn(fp),
                          BoundFn(gp), blocks, maps)


def test_condition_c_agrees_with_direct_oracle():
    rng = random.Random(7)
    for _ in range(300):
        T = _random_system(rng)
        assert check_condition_c(T)[0] == condition_c_oracle(T)[0]


def test_pushforward_preserves_covering_on_random_good_systems():
    rng = random.Random(11)
    found = 0
    while found < 200:
        T = _random_system(rng)
        if not check_condition_c(T)[0]:
            continue
        found += 1
        _, _, grid = cover_number_bounds(T.f, T.g)
        pushed = family_pushforward(T, grid, verify=True)
        ok, _ = covers(pushed, T.gp, T.fp)
        assert ok
        assert len(pushed) == len(grid)
        assert level_sets(pushed) == naive_pushforward(T, level_sets(grid))


def test_branch_pushforward_lands_inside_pushed_slalom():
    T = tiny_system()
    B = Slalom(T.f, (frozenset({0}), frozenset({1})))
    pushed = slalom_pushforward(T, B)
    assert pushed.sets[0] == frozenset({1})
    for n in range(T.fp(0)):
        y = branch_pushforward(T, Branch((n,)))
        # membership transfers level by level through the maps
        inside = all(y.values[l] in B.sets[l] for l in range(2))
        assert inside == (n in pushed.sets[0])


def test_mixed_radix_round_trip():
    radices = (3, 2, 4)
    for n in range(3 * 2 * 4):
        digits = mixed_radix_decode(n, radices)
        assert all(0 <= d < r for d, r in zip(digits, radices))
        assert mixed_radix_encode(digits, radices) == n


def test_block_coding_is_a_bijection_per_block():
    f, g = BoundFn((2, 3, 2)), BoundFn((1, 2, 1))
    T = block_coding_system(f, g, (0, 2, 3))
    assert T.fp.values == (6, 2)
    assert T.gp.values == (2, 1)
    # the joint map n -> (H[0][0](n), H[0][1](n)) hits every pair once
    pairs = {(T.maps[0][0][n], T.maps[0][1][n]) for n in range(6)}
    assert len(pairs) == 6


def test_block_coding_passes_condition_c():
    T = block_coding_system(BoundFn((3, 3)), BoundFn((2, 2)), (0, 2))
    assert check_condition_c(T)[0]
    assert condition_c_oracle(T)[0]


@pytest.mark.parametrize("n,blocks", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_allfunctions_system_passes_condition_c(n, blocks):
    T = allfunctions_system(n, blocks)
    ok, _ = check_condition_c(T)
    assert ok


def test_allfunctions_literal_range_fails_at_third_block():
    # with maps ranging over [0, n) instead of [0, n+1), blocks 0 and 1
    # are still fine for n=2 but block 2 admits a violating subset
    T = allfunctions_system(2, 3, literal_range=True)
    ok, witness = check_condition_c(T)
    assert not ok
    assert witness[0] == 2
    T2 = allfunctions_system(2, 2, literal_range=True)
    assert check_condition_c(T2)[0]


def test_allfunctions_guard():
    with pytest.raises(GuardExceeded):
        allfunctions_system(5, 4)


def _grid(f, g):
    return cover_number_bounds(f, g)[2]


def test_halving_lift_bounds_and_coverage():
    rng = random.Random(13)
    for _ in range(200):
        window = rng.randint(1, 2)
        f_vals = tuple(rng.randint(2, 4) for _ in range(window))
        g_vals = tuple(rng.randint(1, fv) for fv in f_vals)
        f, g = BoundFn(f_vals), BoundFn(g_vals)
        G = _grid(f, g)
        lifted = halving_lift(f, g, G)  # verifies coverage internally
        assert len(lifted) <= len(G)
        assert level_sets(lifted) == naive_halving(f_vals, g_vals, level_sets(G))


def test_addition_lift_bounds_and_coverage():
    rng = random.Random(17)
    for _ in range(200):
        window = rng.randint(1, 2)
        f_vals = tuple(rng.randint(2, 4) for _ in range(window))
        g_vals = tuple(rng.randint(1, fv - 1) for fv in f_vals)
        f, g = BoundFn(f_vals), BoundFn(g_vals)
        lifted = addition_lift(f, g, _grid(f, g))
        assert len(lifted) <= len(_grid(f, g))
        assert lifted.slaloms[0].cap.values == tuple(
            2 * fv - gv for fv, gv in zip(f_vals, g_vals))
        assert level_sets(lifted) == naive_addition(f_vals, g_vals, level_sets(_grid(f, g)))


def test_transitivity_compose_bounds_and_coverage():
    rng = random.Random(19)
    for _ in range(200):
        window = rng.randint(1, 2)
        f_vals = tuple(rng.randint(3, 4) for _ in range(window))
        g_vals = tuple(rng.randint(2, fv - 1) for fv in f_vals)
        h_vals = tuple(rng.randint(1, gv - 1) for gv in g_vals)
        f, g, h = BoundFn(f_vals), BoundFn(g_vals), BoundFn(h_vals)
        G, H = _grid(f, g), _grid(g, h)
        composed = transitivity_compose(G, H, f, g, h)
        assert len(composed) <= len(G) * len(H)
        assert level_sets(composed) == naive_compose(level_sets(G), level_sets(H),
                                                     f_vals, g_vals)


def test_product_pair_bounds_and_coverage():
    rng = random.Random(23)
    for _ in range(200):
        window = rng.randint(1, 2)
        f_vals = tuple(rng.randint(2, 3) for _ in range(window))
        g_vals = tuple(rng.randint(1, fv) for fv in f_vals)
        f2_vals = tuple(rng.randint(2, 3) for _ in range(window))
        g2_vals = tuple(rng.randint(1, fv) for fv in f2_vals)
        f, g = BoundFn(f_vals), BoundFn(g_vals)
        f2, g2 = BoundFn(f2_vals), BoundFn(g2_vals)
        fam = product_pair(_grid(f, g), _grid(f2, g2), f, g, f2, g2)
        assert len(fam) <= len(_grid(f, g)) * len(_grid(f2, g2))
        assert level_sets(fam) == naive_product(level_sets(_grid(f, g)),
                                                level_sets(_grid(f2, g2)), f2_vals)


@pytest.mark.parametrize("transfer", ["pushforward", "halving", "addition", "compose-G",
                                      "compose-H", "product-Gf", "product-Gf2"])
def test_transfer_rejects_an_input_that_does_not_cover(transfer):
    f, g, h = BoundFn((3, 3)), BoundFn((2, 2)), BoundFn((1, 1))
    T = tiny_system()
    P, G, H = _grid(T.f, T.g), _grid(f, g), _grid(g, h)
    # each grid without its last member leaves a gap
    bad_P, bad_G, bad_H = (SlalomFamily(F.slaloms[:-1]) for F in (P, G, H))
    label, bad, bad_f, run = {
        "pushforward": ("input", bad_P, T.f, lambda: family_pushforward(T, bad_P)),
        "halving": ("input", bad_G, f, lambda: halving_lift(f, g, bad_G)),
        "addition": ("input", bad_G, f, lambda: addition_lift(f, g, bad_G)),
        "compose-G": ("G", bad_G, f, lambda: transitivity_compose(bad_G, H, f, g, h)),
        "compose-H": ("H", bad_H, g, lambda: transitivity_compose(G, bad_H, f, g, h)),
        "product-Gf": ("Gf", bad_G, f, lambda: product_pair(bad_G, G, f, g, f, g)),
        "product-Gf2": ("Gf2", bad_G, f, lambda: product_pair(G, bad_G, f, g, f, g)),
    }[transfer]
    with pytest.raises(ValidationFailure) as e:
        run()
    gap = naive_covers(level_sets(bad), bad_f.values)
    assert gap is not None
    assert e.value.violations == [(label, f"family does not cover, witness {gap}")]


def test_lift_checks_its_inputs_before_building_and_its_output_after():
    f, g = BoundFn((2, 2)), BoundFn((1, 1))

    def unbuildable():
        raise AssertionError("output built before the inputs were checked")
        yield

    with pytest.raises(ValidationFailure):
        _lifted([("input", SlalomFamily(()), g, f)], unbuildable(), g, f, "probe")
    with pytest.raises(AssertionError, match=r"probe lost coverage at \(0, 0\)"):
        _lifted([], iter(()), g, f, "probe")


def test_branch_chain_bound_counts_chains():
    cap = BoundFn((1, 2, 4))
    B = Slalom(cap, (frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2, 3})))
    # all 4 binary strings of length 2 have all prefixes coded in B
    assert branch_chain_bound(B, 2) == 4
    B2 = Slalom(cap, (frozenset({0}), frozenset({1}), frozenset({2, 3})))
    assert branch_chain_bound(B2, 2) == 2

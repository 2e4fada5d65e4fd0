import random

import pytest

from slalomcover.conditions import (NormedTree, ProductCondition, level,
                                    linear_tree, splitting_levels,
                                    validate_condition)
from slalomcover.errors import ValidationFailure
from slalomcover.extraction import (FiniteName, avoid_slalom, check_almostall,
                                    check_smalllevel, decides, densify_decide,
                                    extract_slalom, property_III, property_V,
                                    restrict_name)
from slalomcover.scales import BoundFn, validate_triple
from slalomcover.slaloms import Slalom

from conftest import make_name, make_split_condition, random_extraction_instance


def test_name_must_label_every_branch(split_condition):
    branches = level(split_condition, 2).tuples
    with pytest.raises(ValidationFailure):
        FiniteName(split_condition, tuple((br, (0, 0)) for br in branches[:-1]),
                   BoundFn((8, 100)))


def test_name_values_must_stay_below_bound(split_condition):
    with pytest.raises(ValidationFailure):
        make_name(split_condition, lambda br: (9, 0), (8, 100))


def test_decides_on_agreeing_and_splitting_prefixes(split_condition):
    tau = make_name(split_condition, lambda br: (br[0][0] % 4, 0), (8, 100))
    root = level(split_condition, 0).tuples[0]
    # tau(0) genuinely depends on the branch, so the root decides nothing
    assert decides(split_condition, root, tau, 1) is None
    # but every level-1 tuple pins the whole label down
    for eta_bar in level(split_condition, 1).tuples:
        assert decides(split_condition, eta_bar, tau, 2) is not None
    assert decides(split_condition, root, tau, 0) == ()


def test_restrict_name_drops_missing_branches(split_condition):
    tau = make_name(split_condition, lambda br: (br[0][0] % 4, 0), (8, 100))
    tree = split_condition["a"]
    q = split_condition.replace("a", tree.restrict_succ((), tree.succ(())[:4]))
    sub = restrict_name(tau, q)
    assert len(sub.labels) == len(level(q, 2))


def test_densify_groups_successors_by_decided_prefix(game_condition):
    # split at level 1: tau|1 varies with the successor, so densification
    # must restrict the split to one class
    branches = level(game_condition, 2).tuples
    labels = tuple((br, (br[0][1] % 3, br[0][1] % 7)) for br in branches)
    tau = FiniteName(game_condition, labels, BoundFn((3, 7)))
    assert not property_V(game_condition, tau)
    q = densify_decide(game_condition, tau)
    assert property_V(q, tau)
    assert property_III(q, tau)
    ok, viol = validate_condition(q)
    assert ok, viol
    # the surviving class is the largest residue class mod 3
    succ = q["a"].succ((0,))
    assert len(succ) == 801  # 2401 values split 801/800/800, largest kept
    assert len({s[1] % 3 for s in succ}) == 1


def test_densify_keeps_the_prefix_index_across_level_tuples(game_triple):
    # a root split puts three tuples at the splitting level 1; only the
    # first of them, above (0,), has successors of different classes
    nodes = {(), (0,), (1,), (2,), (1, 0), (2, 0)}
    nodes.update((0, j) for j in range(2401))
    p = ProductCondition((("a", NormedTree(2, game_triple, frozenset(nodes))),
                          ("b", linear_tree(2, game_triple))))
    tau = make_name(p, lambda br: (br[0][1] % 3 if br[0][0] == 0 else 0, 0), (3, 7))
    assert len(level(p, 1)) == 3
    q = densify_decide(p, tau)
    ok, viol = validate_condition(q)
    assert ok, viol
    assert property_V(q, tau) and property_III(q, tau)
    assert len(q["a"].succ((0,))) == 801


def test_densify_requires_normal_form(split_condition):
    stacked = split_condition.replace("b", split_condition["a"])
    tau = make_name(stacked, lambda br: (0, 0), (8, 100))
    with pytest.raises(ValidationFailure):
        densify_decide(stacked, tau)


def test_small_level_property(split_condition, game_condition):
    ok, _ = check_smalllevel(split_condition)
    assert ok
    ok, _ = check_smalllevel(game_condition)
    assert ok
    # shrinking the split to 4 successors drops the norm to 1 < 2*|Level|
    tree = split_condition["a"]
    narrow = split_condition.replace(
        "a", tree.restrict_succ((), tree.succ(())[:4]))
    ok, failures = check_smalllevel(narrow)
    assert not ok and failures


def test_almost_all_separation_property(ext_scale, ext_triples, split_condition):
    zeta, xi = ext_triples
    kappa = {"a": 2, "b": 1}
    ok, _ = check_almostall(split_condition, xi, kappa, kappa_xi=1)
    assert ok
    # splits of lower class are unconstrained
    ok, _ = check_almostall(split_condition, xi, kappa, kappa_xi=2)
    assert ok
    # a second split at level 1 sees |Level_1| = 16, beating the separation
    nodes = {(), (0,), (0, 0), (0, 1)}
    stacked = split_condition.replace(
        "b", NormedTree(2, zeta, frozenset(nodes)))
    tight_xi = validate_triple(BoundFn((16, 2000)), BoundFn((10, 101)),
                               BoundFn((2, 100)), ext_scale)
    ok, failures = check_almostall(stacked, tight_xi, {"a": 2, "b": 2}, 1)
    assert not ok
    assert any("k=1" in where for where, _ in failures)


def test_avoid_slalom_defeats_a_small_slalom(ext_triples):
    zeta, _ = ext_triples
    p = make_split_condition(zeta)
    B = Slalom(BoundFn((32, 2000)), (frozenset({0, 1}), frozenset({0})))
    q, k = avoid_slalom(p, "a", B)
    assert k == 0
    for node in q["a"].level_nodes(1):
        assert node[0] not in B.sets[0]


def test_avoid_slalom_reports_saturated_slaloms(ext_triples):
    zeta, _ = ext_triples
    p = make_split_condition(zeta, width=2)
    B = Slalom(BoundFn((32, 2000)),
               (frozenset(range(32)), frozenset(range(2000))))
    with pytest.raises(ValidationFailure):
        avoid_slalom(p, "a", B)


def test_extract_case3_thins_to_target_size(ext_triples):
    zeta, xi = ext_triples
    p = make_split_condition(zeta, width=32)
    # 16 distinct labels at level 0 exceed g_xi(0) = 10, so case 3 must
    # select the d = 10 largest classes
    tau = make_name(p, lambda br: (br[0][0] % 16, 0), (16, 100))
    q = densify_decide(p, tau)
    q2, cover = extract_slalom(q, tau, set(), xi)
    assert cover.level_kind(0) == "plain"
    assert len(cover.set_for(0)) <= 10
    # the split survived the thinning
    assert len(splitting_levels(q2)) == 1


def test_extract_case2_takes_the_whole_level(ext_scale):
    zeta2 = validate_triple(BoundFn((16, 2000)), BoundFn((2, 100)),
                            BoundFn((2, 100)), ext_scale)
    xi2 = validate_triple(BoundFn((17, 2000)), BoundFn((16, 1000)),
                          BoundFn((2, 100)), ext_scale)
    p = make_split_condition(zeta2, width=16)
    tau = make_name(p, lambda br: (br[0][0] % 8, 0), (8, 100))
    q2, cover = extract_slalom(densify_decide(p, tau), tau, set(), xi2)
    # f_zeta(0) * |Level_0| = 16 <= g_xi(0) = 16: nothing is thinned
    assert cover.set_for(0) == frozenset(range(8))
    assert q2["a"].succ(()) == p["a"].succ(())


def test_extract_case1_fibers_over_the_a_part(ext_triples):
    zeta, xi = ext_triples
    p = make_split_condition(zeta, width=16)
    tau = make_name(p, lambda br: (br[0][0] % 16, 0), (16, 100))
    q2, cover = extract_slalom(densify_decide(p, tau), tau, {"a"}, xi)
    assert cover.level_kind(0) == "fiber"
    # each fiber is keyed by the level-1 node of the split coordinate and
    # holds exactly the one decided value
    for br in level(q2, 2).tuples:
        key = (br[0][:1],)
        assert cover.set_for(0, key) == frozenset({br[0][0] % 16})


def test_extract_rejects_undecided_names(game_condition):
    branches = level(game_condition, 2).tuples
    labels = tuple((br, (br[0][1] % 3, 0)) for br in branches)
    tau = FiniteName(game_condition, labels, BoundFn((3, 7)))
    game_xi = validate_triple(BoundFn((3, 2402, 10 ** 7)),
                              BoundFn((2, 700, 10 ** 6)),
                              BoundFn((2, 7, 10 ** 6)),
                              game_condition["a"].triple.scale)
    with pytest.raises(ValidationFailure):
        extract_slalom(game_condition, tau, set(), game_xi)
    # after densification the same instance goes through
    q = densify_decide(game_condition, tau)
    q2, cover = extract_slalom(q, tau, set(), game_xi)
    assert len(cover.set_for(1)) <= 700


def test_randomized_instances_end_to_end(ext_triples):
    zeta, xi = ext_triples
    rng = random.Random(41)
    for _ in range(20):
        p, tau, A = random_extraction_instance(rng, zeta, xi)
        ok, _ = check_smalllevel(p)
        assert ok
        q = densify_decide(p, tau)
        assert property_V(q, tau)
        # extract_slalom re-verifies every branch before returning
        q2, cover = extract_slalom(q, tau, A, xi)
        for k in range(q2.depth):
            if cover.level_kind(k) == "plain":
                assert len(cover.set_for(k)) <= xi.g(k)

import pytest

from slalomcover.conditions import (NormedTree, is_normal_form, leq,
                                    splitting_levels, validate_condition)
from slalomcover.errors import ValidationFailure
from slalomcover.game import (AccountantMove, GameState, SpendthriftMove,
                              accountant_bookkeeping, accountant_legal, legal,
                              make_thinning_spendthrift, play,
                              spendthrift_minimal, thinning)
from slalomcover.norms import NormSpec, norm_value


def test_accountant_bookkeeping_is_deterministic(game_condition):
    state = GameState(game_condition, 0, 1)
    move = accountant_bookkeeping(state)
    assert move.alpha == "a"
    assert move.eta == ()
    assert move.demand == 1
    ok, why = accountant_legal(move, state)
    assert ok, why


def test_accountant_illegal_moves_are_named(game_condition):
    state = GameState(game_condition, 0, 1)
    ok, why = accountant_legal(AccountantMove((), "z", 1), state)
    assert not ok and "coordinate" in why
    ok, why = accountant_legal(AccountantMove((0,), "a", 1), state)
    assert not ok and "level" in why


def test_spendthrift_answers_with_the_wide_split(game_condition):
    state = GameState(game_condition, 0, 1)
    acc = accountant_bookkeeping(state)
    move = spendthrift_minimal(state, acc)
    assert move is not None
    assert move.nu == (0,)
    ok, why = legal(move, state, acc)
    assert ok, why
    # the split at (0,) has 2401 successors: norm 3 beats demand 1
    assert move.condition["a"].node_norm((0,)) == 3


def test_rule_violations_are_reported_by_name(game_condition):
    state = GameState(game_condition, 0, 1)
    acc = accountant_bookkeeping(state)
    good = spendthrift_minimal(state, acc)
    # nu must properly extend eta
    bad = SpendthriftMove(good.condition, ())
    ok, why = legal(bad, state, acc)
    assert not ok and "rule (4)" in why
    # a node outside the played condition violates rule (2)
    bad = SpendthriftMove(good.condition, (1,))
    ok, why = legal(bad, state, acc)
    assert not ok and "rule (2)" in why
    # shrinking the successor set below the demand violates rule (3)
    shrunk = good.condition.replace(
        "a", good.condition["a"].restrict_succ((0,), [(0, 0)]))
    ok, why = legal(SpendthriftMove(shrunk, (0,)), state, acc)
    assert not ok and "rule (3)" in why


def test_play_fuses_to_a_valid_condition(game_condition):
    t = play(game_condition, accountant_bookkeeping, spendthrift_minimal,
             rounds=6)
    assert not t.forfeited
    assert len(t.rounds) == 1  # depth 2 supports one substantive round
    assert t.exhausted
    ok, viol = validate_condition(t.fused)
    assert ok, viol
    assert leq(game_condition, t.fused)
    assert t.designated_splits == [((0,), "a")]


def test_play_exhausts_on_toy_scales_without_forfeit(split_condition):
    # the only split sits at the root, which can never serve as nu, so the
    # spendthrift resigns immediately and the play is exhausted, not lost
    t = play(split_condition, accountant_bookkeeping, spendthrift_minimal,
             rounds=6)
    assert t.exhausted and not t.forfeited
    assert t.rounds == []
    assert t.fused is split_condition


def test_thinning_spendthrift_respects_prescribed_sets(game_condition):
    F = {("a", (0,)): [(0, j) for j in range(343)]}
    sp = make_thinning_spendthrift(F)
    t = play(game_condition, accountant_bookkeeping, sp, rounds=6)
    assert not t.forfeited
    assert len(t.rounds) == 1
    fused_succ = set(t.fused["a"].succ((0,)))
    assert fused_succ <= {(0, j) for j in range(343)}
    ok, viol = validate_condition(t.fused)
    assert ok, viol


def test_thinning_spendthrift_prunes_splits_below_nu_inside_F(game_condition, game_triple):
    # b splits at its root, below the level of the chosen nu = (0,) on a, so
    # the spendthrift prunes that split to one successor: the least inside F
    b = NormedTree(2, game_triple, frozenset({()} | {(v,) for v in range(3)}
                                             | {(v, 0) for v in range(3)}))
    p = game_condition.replace("b", b)
    state = GameState(p, 0, 1)
    acc = accountant_bookkeeping(state)
    for F, kept in ((None, (0,)), ({("b", ()): [(2,), (1,)]}, (1,))):
        move = make_thinning_spendthrift(F)(state, acc)
        assert move.nu == (0,)
        assert move.condition["b"].succ(()) == [kept]


def test_thinning_direct_sweep_satisfies_star(game_condition):
    F = {("a", (0,)): [(0, j) for j in range(343)]}
    q = thinning(game_condition, F)
    # (*): the surviving designated split keeps only F-successors
    assert set(q["a"].succ((0,))) == {(0, j) for j in range(343)}
    ok, viol = validate_condition(q)
    assert ok, viol
    assert leq(game_condition, q)


def test_thinning_rejects_half_norm_violation(game_condition):
    # 49 successors have norm 1, and 2*1 < 3 = the split norm
    F = {("a", (0,)): [(0, j) for j in range(49)]}
    with pytest.raises(ValidationFailure):
        thinning(game_condition, F)


def test_thinning_half_norm_boundary(game_condition):
    spec = NormSpec(game_condition["a"].triple.g.values,
                    game_condition["a"].triple.h.values)
    assert norm_value(spec, 1, 49) == 1
    assert norm_value(spec, 1, 343) == 2
    assert norm_value(spec, 1, 2401) == 3
    # 2 * norm(343) = 4 >= 3 passes; 2 * norm(49) = 2 < 3 fails


def test_thinning_requires_normal_form(game_condition, split_condition):
    stacked = split_condition.replace(
        "b", split_condition["a"])  # two splits at level 0
    with pytest.raises(ValidationFailure):
        thinning(stacked, {})


def test_thinning_prunes_split_when_budget_runs_out(game_condition):
    # an F-set of norm >= half but the sweep demands increasing norms as
    # survivors accumulate; with a single split nothing is pruned, so the
    # split survives inside F
    F = {("a", (0,)): [(0, j) for j in range(1000, 1343)]}
    q = thinning(game_condition, F)
    assert len(splitting_levels(q)) == 1
    assert is_normal_form(q)

"""The fusion game on product conditions, and the thinning construction.

Two players alternate: the accountant names a node, a coordinate and a norm
demand; the spendthrift answers with a stronger condition and a node above
the named one whose successor set beats the demand, without touching the
condition below the previous round's level and without growing level sizes
in between.  At finite depth a play runs for a round budget and may exhaust
early (the norm demands outgrow what any desk-scale tree can offer); the
fused condition is the last one played and must validate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .conditions import (ProductCondition, active_set, is_normal_form, level,
                         leq_k, splitting_levels, validate_condition)
from .errors import ValidationFailure
from .norms import NormSpec, norm_value


@dataclass(frozen=True)
class AccountantMove:
    eta: tuple
    alpha: object
    demand: int


@dataclass(frozen=True)
class SpendthriftMove:
    condition: ProductCondition
    nu: tuple

    @property
    def next_level(self) -> int:
        return len(self.nu) + 1


@dataclass(frozen=True)
class GameState:
    condition: ProductCondition
    level: int  # i_{n-1}
    round: int  # 1-based index of the move being played


@dataclass
class Transcript:
    initial: ProductCondition
    rounds: list = field(default_factory=list)  # (AccountantMove, SpendthriftMove)
    fused: ProductCondition = None
    forfeited: bool = False
    forfeit_rule: str = ""
    exhausted: bool = False

    @property
    def designated_splits(self) -> list:
        return [(sm.nu, am.alpha) for am, sm in self.rounds]


def accountant_legal(move: AccountantMove, state: GameState):
    p = state.condition
    if move.alpha not in dict(p.trees):
        return False, "coordinate not in domain"
    if len(move.eta) != state.level:
        return False, f"node length {len(move.eta)} != current level {state.level}"
    if tuple(move.eta) not in p[move.alpha].nodes:
        return False, "node not in the coordinate's tree"
    return True, ""


def legal(move: SpendthriftMove, state: GameState, acc: AccountantMove):
    """Check rules (1)-(6); on failure, name the violated rule."""
    p_prev, p_n, nu = state.condition, move.condition, tuple(move.nu)
    if not leq_k(p_prev, p_n, state.level):
        return False, "rule (1): not a >=_i extension"
    if acc.alpha not in dict(p_n.trees) or nu not in p_n[acc.alpha].nodes:
        return False, "rule (2): nu not in p_n(alpha)"
    tree = p_n[acc.alpha]
    if not (len(nu) > len(acc.eta) and nu[:len(acc.eta)] == tuple(acc.eta)):
        return False, "rule (4): nu does not properly extend eta"
    if tree.node_norm(nu) <= acc.demand:
        return False, f"rule (3): norm {tree.node_norm(nu)} <= demand {acc.demand}"
    new_coords = set(p_n.coords) - set(state.condition.coords)
    for c in new_coords:
        if len(p_n[c].stem()) <= len(nu):
            return False, "rule (5): new coordinate with short stem"
    size_eta_prev = len(level(state.condition, len(acc.eta)))
    if not (len(level(p_n, len(nu))) == len(level(p_n, len(acc.eta))) == size_eta_prev):
        return False, "rule (6): level size changed between eta and nu"
    return True, ""


def play(p: ProductCondition, accountant, spendthrift, rounds: int) -> Transcript:
    """Run up to the given number of rounds; strategies are pure callables.

    accountant(state) -> AccountantMove; spendthrift(state, move) ->
    SpendthriftMove or None when no legal answer exists at this depth
    (the play is then exhausted, not forfeited).
    """
    t = Transcript(initial=p)
    state = GameState(p, 0, 1)
    for n in range(1, rounds + 1):
        if state.level >= p.depth:
            t.exhausted = True
            break
        acc = accountant(state)
        ok, why = accountant_legal(acc, state)
        if not ok:
            t.forfeited, t.forfeit_rule = True, f"accountant: {why}"
            break
        sp = spendthrift(state, acc)
        if sp is None:
            t.exhausted = True
            break
        ok, why = legal(sp, state, acc)
        if not ok:
            t.forfeited, t.forfeit_rule = True, f"spendthrift: {why}"
            break
        t.rounds.append((acc, sp))
        state = GameState(sp.condition, sp.next_level, n + 1)
    t.fused = state.condition
    return t


def accountant_bookkeeping(state: GameState) -> AccountantMove:
    """Round-robin over coordinates, lexicographically least node at the
    current level, demand b_n = n."""
    p = state.condition
    coords = p.coords
    alpha = coords[(state.round - 1) % len(coords)]
    nodes = p[alpha].level_nodes(state.level)
    return AccountantMove(nodes[0], alpha, state.round)


def _restriction(F) -> dict:
    """F as {(coord, node tuple): frozenset of successor tuples}."""
    return {(c, tuple(n)): frozenset(tuple(s) for s in v) for (c, n), v in (F or {}).items()}


def _allowed_succ(tree, coord, node, F) -> list:
    """The successors of node inside F's set for (coord, node), in order;
    all of them when F has no set there."""
    succs = tree.succ(node)
    fset = F.get((coord, node))
    return succs if fset is None else [s for s in succs if s in fset]


def _linearize_between(p: ProductCondition, lo: int, hi: int, alpha, nu: tuple, F):
    """Prune every split at levels in [lo, hi) to a single successor.

    On coordinate alpha the surviving branch stays comparable with nu;
    elsewhere it takes the least successor inside F, or the least one when
    F allows none.
    """
    q = p
    for k in range(lo, hi):
        for kk, c, n in splitting_levels(q):
            if kk != k:
                continue
            tree = q[c]
            if c == alpha and len(nu) > k and n == nu[:k]:
                choice = nu[:k + 1]
            else:
                choice = (_allowed_succ(tree, c, n, F) or tree.succ(n))[0]
            q = q.replace(c, tree.restrict_succ(n, [choice]))
    return q


def make_thinning_spendthrift(F=None):
    """The spendthrift of the thinning construction.

    F maps (coord, split node) to an allowed successor subset; splits not in
    F keep their full successor set.  Each round walks up from the
    accountant's node to the shallowest split whose F-restricted successor
    norm beats the demand, prunes every split strictly in between (choosing
    inside F wherever applicable), and restricts the chosen split to F.
    Returns None when no split within depth can meet the demand.
    """
    F = _restriction(F)

    def spendthrift(state: GameState, acc: AccountantMove) -> SpendthriftMove:
        p = state.condition
        tree = p[acc.alpha]
        eta = tuple(acc.eta)
        spec_g, spec_h = tree.triple.g.values, tree.triple.h.values
        target = None
        # F only shrinks successor sets, so every candidate is a split node
        for n in tree.split_nodes():
            # rule (4): nu must properly extend the accountant's node
            if len(n) <= len(eta) or n[:len(eta)] != eta:
                continue
            cand = _allowed_succ(tree, acc.alpha, n, F)
            if len(cand) <= 1:
                continue
            nv = norm_value(NormSpec(spec_g, spec_h), len(n), len(cand))
            if nv > acc.demand:
                target = (n, cand)
                break
        if target is None:
            return None
        nu, cand = target
        q = _linearize_between(p, state.level, len(nu), acc.alpha, nu, F)
        q = q.replace(acc.alpha, q[acc.alpha].restrict_succ(nu, cand))
        return SpendthriftMove(q, nu)

    return spendthrift


# the "minimal legal extension" spendthrift: thinning with no restriction
spendthrift_minimal = make_thinning_spendthrift(None)


def thinning(p: ProductCondition, F) -> ProductCondition:
    """Shrink designated splitting successor sets to the prescribed subsets.

    F maps (coord, split node) of p's designated splits to nonempty subsets
    of the successors with 2*norm(F) >= norm(successors) (rejected
    otherwise, naming the split).  Output: a stronger condition in which
    every surviving designated split has successors inside its F-set; a
    split whose F-norm falls below its new index is pruned to the least
    F-member, so the result always validates.  Splitting bookkeeping is
    recomputed, not patched.
    """
    if not is_normal_form(p):
        raise ValidationFailure([("normal form", "condition has stacked splits")])
    F = _restriction(F)
    splits = splitting_levels(p)
    for l, (k, c, n) in enumerate(splits):
        if (c, n) not in F:
            continue
        tree = p[c]
        fset = _allowed_succ(tree, c, n, F)
        if not fset:
            raise ValidationFailure([(f"l={l}", "F-set disjoint from successors")])
        spec = NormSpec(tree.triple.g.values, tree.triple.h.values)
        if 2 * norm_value(spec, k, len(fset)) < tree.node_norm(n):
            raise ValidationFailure(
                [(f"l={l}", f"half-norm bound fails: 2*{norm_value(spec, k, len(fset))}"
                            f" < {tree.node_norm(n)}")])
    q = p
    survivors = 0
    for k, c, n in splits:
        if n not in q[c].nodes:
            continue  # removed by an earlier restriction
        tree = q[c]
        succs = tree.succ(n)
        if len(succs) <= 1:
            continue
        fset = _allowed_succ(tree, c, n, F) or succs
        spec = NormSpec(tree.triple.g.values, tree.triple.h.values)
        if norm_value(spec, k, len(fset)) >= survivors and len(fset) > 1:
            q = q.replace(c, tree.restrict_succ(n, fset))
            survivors += 1
        else:
            q = q.replace(c, tree.restrict_succ(n, [fset[0]]))
    ok, viol = validate_condition(q)
    if not ok:
        raise AssertionError(f"thinning produced an invalid condition: {viol}")
    return q

"""Batch front-end: one subcommand per module, JSON-lines reports.

Every run prints one JSON object per line (sorted keys, no timestamps), so
identical arguments and input files give byte-identical output.  Exit codes:
0 all checks pass, 1 a check or verification failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serde
from .conditions import (ProductCondition, NormedTree, is_normal_form, level,
                         level_size_check, linear_tree, splitting_levels,
                         to_normal_form, validate_condition)
from .covernum import BRUTE_GUARD, cover_number_bounds, cover_number_exact, greedy_cover
from .errors import BadInput, GuardExceeded, SlalomError, ValidationFailure
from .extraction import FiniteName, densify_decide, extract_slalom, property_V
from .game import accountant_bookkeeping, play, spendthrift_minimal
from .norms import NormSpec, norm_value
from .reductions import (addition_lift, allfunctions_system,
                         block_coding_system, check_condition_c, halving_lift,
                         product_pair, transitivity_compose)
from .scales import (BoundFn, T1, gen_blass_family, gen_square_pair,
                     progressivity_profile, separation_profile, validate_scale,
                     validate_triple)
from .serde import family_from_dict, family_to_dict, read


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, default=str) + "\n")


def _check(name: str, ok: bool, **extra) -> bool:
    _emit({"check": name, "status": "pass" if ok else "fail", **extra})
    return ok


def _csv_ints(s: str) -> tuple:
    try:
        return tuple(int(x) for x in s.split(","))
    except (AttributeError, ValueError):
        raise BadInput(f"expected comma-separated integers, got {s!r}") from None


def _bound(s: str) -> BoundFn:
    return BoundFn(_csv_ints(s))


def cmd_scale(args) -> int:
    try:
        s = validate_scale(_csv_ints(args.lo), _csv_ints(args.hi))
    except ValidationFailure as e:
        _check("scale.validate", False, violations=e.violations)
        return 1
    _check("scale.validate", True, scale=serde.scale_to_dict(s))
    return 0


def cmd_triple(args) -> int:
    s = validate_scale(_csv_ints(args.lo), _csv_ints(args.hi))
    if args.gen == "blass":
        t = gen_blass_family(s, _csv_ints(args.path))
        _check("triple.generate", True, triple=serde.triple_to_dict(t))
    elif args.gen == "square":
        t, t2 = gen_square_pair(s)
        _check("triple.generate", True, triple=serde.triple_to_dict(t),
               square=serde.triple_to_dict(t2))
        _emit({"separation": [str(v) for v in separation_profile(t2, t)]})
    else:
        try:
            t = validate_triple(_bound(args.f), _bound(args.g), _bound(args.h), s)
        except ValidationFailure as e:
            _check("triple.validate", False, violations=e.violations)
            return 1
        _check("triple.validate", True, triple=serde.triple_to_dict(t))
    _emit({"progressivity": [str(v) for v in progressivity_profile(t)]})
    return 0


def cmd_covernum(args) -> int:
    f, g = _bound(args.f), _bound(args.g)
    lower, upper, _ = cover_number_bounds(f, g, guard=args.guard)
    out = {"lower": lower, "upper": upper, "exact": None, "family": None}
    if args.mode == "exact":
        exact, fam = cover_number_exact(f, g, guard=args.guard)
        out["exact"] = exact
        out["family"] = family_to_dict(fam)["slaloms"] if fam else None
    elif args.mode == "greedy":
        fam = greedy_cover(f, g, guard=args.guard)
        out["family"] = family_to_dict(fam)["slaloms"]
        out["greedy_size"] = len(fam)
    _emit(out)
    # an exact search that ran out of budget decided nothing
    return 1 if args.mode == "exact" and out["exact"] is None else 0


def cmd_reduce(args) -> int:
    ok_all = True
    if args.system:
        if args.system == "allfn":
            T = allfunctions_system(args.n, args.blocks, guard=args.guard,
                                    literal_range=args.literal_range)
        else:
            T = block_coding_system(_bound(args.f), _bound(args.g),
                                    _csv_ints(args.cuts))
        if args.check_c:
            ok, witness = check_condition_c(T, guard=args.guard)
            extra = {}
            if witness is not None:
                i, u = witness
                extra = {"block": i, "u": {str(l): sorted(v) for l, v in u.items()}}
            ok_all &= _check("reduce.condition-c", ok, **extra)
        else:
            _emit({"system": serde.transfer_to_dict(T)})
    elif args.lift:
        G = read(args.infile, family_from_dict)
        f, g = _bound(args.f), _bound(args.g)
        if args.lift == "halving":
            out = halving_lift(f, g, G)
        elif args.lift == "addition":
            out = addition_lift(f, g, G)
        elif args.lift == "compose":
            H = read(args.infile2, family_from_dict)
            out = transitivity_compose(G, H, f, g, _bound(args.h))
        else:
            H = read(args.infile2, family_from_dict)
            out = product_pair(G, H, f, g, _bound(args.f2), _bound(args.g2))
        _emit({"family": family_to_dict(out)["slaloms"], "size": len(out)})
    else:
        raise BadInput("reduce needs --system or --lift")
    return 0 if ok_all else 1


def cmd_norm(args) -> int:
    g, h = _csv_ints(args.g), _csv_ints(args.h)
    spec = NormSpec(g, h)
    for k in range(len(g)):
        _emit({"k": k, "g": g[k], "h": h[k],
               "norms": [norm_value(spec, k, s) for s in range(1, args.max_size + 1)]})
    return 0


def cmd_condition(args) -> int:
    p = read(args.infile, serde.condition_from_dict)
    if args.action == "validate":
        ok, viol = validate_condition(p)
        return 0 if _check("condition.validate", ok, violations=viol) else 1
    if args.action == "normalize":
        q = to_normal_form(p)
        _emit({"condition": serde.condition_to_dict(q),
               "normal_form": is_normal_form(q)})
        return 0
    for k in range(p.depth + 1):
        lv = level(p, k)
        _emit({"k": k, "size": len(lv), "active": [str(c) for c in lv.active]})
    _emit({"splits": [{"k": k, "coord": str(c), "node": list(n)}
                      for k, c, n in splitting_levels(p)]})
    return 0


def cmd_game(args) -> int:
    p = read(args.infile, serde.condition_from_dict)
    t = play(p, accountant_bookkeeping, spendthrift_minimal, args.rounds)
    _emit({"rounds_played": len(t.rounds), "exhausted": t.exhausted,
           "forfeited": t.forfeited, "forfeit_rule": t.forfeit_rule,
           "designated_splits": [{"nu": list(nu), "alpha": str(a)}
                                 for nu, a in t.designated_splits]})
    ok, viol = validate_condition(t.fused)
    return 0 if _check("game.fused-valid", ok and not t.forfeited,
                       violations=viol) else 1


def cmd_extract(args) -> int:
    p = read(args.condition, serde.condition_from_dict)
    tau = read(args.name, serde.name_from_dict, p)
    xi = read(args.xi, serde.triple_from_dict)
    A = set(args.A.split(",")) if args.A else set()
    q = densify_decide(p, tau)
    ok_all = _check("extract.densify", property_V(q, tau))
    try:
        q2, cover = extract_slalom(q, tau, A, xi)
    except (ValidationFailure, AssertionError) as e:
        _check("extract.verify", False, error=str(e))
        return 1
    levels = []
    for k in range(q2.depth):
        if cover.level_kind(k) == "plain":
            levels.append({"k": k, "set": sorted(cover.set_for(k))})
        else:
            levels.append({"k": k, "fibered": True})
    _emit({"levels": levels})
    ok_all &= _check("extract.verify", True)
    return 0 if ok_all else 1


def _demo_scale_big():
    return validate_scale((2,), (2 ** (2 ** 16),))


def _demo_game_instance():
    """A depth-2 condition with one wide level-1 split, so a bookkeeping
    round demanding norm > 1 has a legal answer."""
    s = validate_scale((2, 7, 10 ** 6), (3, 686, 10 ** 7))
    t = validate_triple(BoundFn((3, 686, 10 ** 7)), BoundFn((2, 7, 10 ** 6)),
                        BoundFn((2, 7, 10 ** 6)), s)
    nodes = {(), (0,)}
    nodes.update((0, j) for j in range(343))
    tree_a = NormedTree(2, t, frozenset(nodes))
    return ProductCondition((("a", tree_a), ("b", linear_tree(2, t))))


def _demo_extraction_instance():
    """A two-coordinate depth-2 condition plus a name, sized so every
    extraction case is exercised cheaply."""
    s = validate_scale((2, 100), (40, 2000))
    zeta = validate_triple(BoundFn((32, 2000)), BoundFn((2, 100)),
                           BoundFn((2, 100)), s)
    xi = validate_triple(BoundFn((16, 2000)), BoundFn((10, 1000)),
                         BoundFn((2, 100)), s)
    nodes = {(), }
    for v in range(16):
        nodes.add((v,))
        nodes.add((v, 0))
    tree_a = NormedTree(2, zeta, frozenset(nodes))
    tree_b = linear_tree(2, zeta)
    p = ProductCondition((("a", tree_a), ("b", tree_b)))
    labels = []
    for br in level(p, 2).tuples:
        v = br[0][0]
        labels.append((br, (v % 4, (v * 3) % 7)))
    tau = FiniteName(p, tuple(labels), BoundFn((8, 100)))
    return p, tau, xi


def cmd_demo(args) -> int:
    if args.scale != "T1":
        _emit({"error": f"unknown scale preset {args.scale}"})
        return 2
    ok = True

    big = _demo_scale_big()
    t0 = gen_blass_family(big, (0,))
    ok &= _check("demo.blass-member",
                 t0.f.values == (16,) and t0.g.values == (4,),
                 f=list(t0.f.values), g=list(t0.g.values),
                 progressivity=[str(v) for v in progressivity_profile(t0)])

    sq_scale = validate_scale((2,), (2 ** 13,))
    base, square = gen_square_pair(sq_scale)
    ok &= _check("demo.square-pair",
                 all(v * v <= sq_scale.hi[k] for k, v in enumerate(base.f.values)),
                 f=list(base.f.values), f2=list(square.f.values))

    lower, upper, grid = cover_number_bounds(BoundFn((3, 3)), BoundFn((2, 2)))
    exact, fam = cover_number_exact(BoundFn((3, 3)), BoundFn((2, 2)))
    ok &= _check("demo.covernum", lower <= exact <= upper, exact=exact,
                 lower=lower, upper=upper)

    p, tau, xi = _demo_extraction_instance()
    okc, viol = validate_condition(p)
    ok &= _check("demo.condition-valid", okc, violations=viol)
    okl, viol = level_size_check(p)
    ok &= _check("demo.level-bound", okl, violations=viol)
    q = densify_decide(p, tau)
    ok &= _check("demo.densify", property_V(q, tau))
    try:
        q2, cover = extract_slalom(q, tau, set(), xi)
        ok &= _check("demo.extract", True,
                     sets=[sorted(cover.set_for(k)) for k in range(q2.depth)])
    except (ValidationFailure, AssertionError) as e:
        ok &= _check("demo.extract", False, error=str(e))

    gp = _demo_game_instance()
    t = play(gp, accountant_bookkeeping, spendthrift_minimal, rounds=3)
    okg, viol = validate_condition(t.fused)
    ok &= _check("demo.game", okg and not t.forfeited and len(t.rounds) >= 1,
                 rounds=len(t.rounds), exhausted=t.exhausted)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="slalomcover")
    ap.add_argument("--guard", type=int, default=BRUTE_GUARD,
                    help="brute-force size guard")
    # the same option after the subcommand; SUPPRESS keeps the global value
    # when it is not given there
    guarded = argparse.ArgumentParser(add_help=False)
    guarded.add_argument("--guard", type=int, default=argparse.SUPPRESS,
                         help="brute-force size guard")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("scale")
    sp.add_argument("--lo", required=True)
    sp.add_argument("--hi", required=True)
    sp.set_defaults(fn=cmd_scale)

    sp = sub.add_parser("triple")
    sp.add_argument("--lo", required=True)
    sp.add_argument("--hi", required=True)
    sp.add_argument("--gen", choices=["blass", "square"])
    sp.add_argument("--path", default="0")
    sp.add_argument("--f")
    sp.add_argument("--g")
    sp.add_argument("--h")
    sp.set_defaults(fn=cmd_triple)

    sp = sub.add_parser("covernum", parents=[guarded])
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="mode", action="store_const", const="exact")
    mode.add_argument("--bounds", dest="mode", action="store_const", const="bounds")
    mode.add_argument("--greedy", dest="mode", action="store_const", const="greedy")
    sp.set_defaults(fn=cmd_covernum, mode="bounds")

    sp = sub.add_parser("reduce", parents=[guarded])
    sp.add_argument("--system", choices=["block", "allfn"])
    sp.add_argument("--lift", choices=["halving", "addition", "compose", "product"])
    sp.add_argument("--check-c", dest="check_c", action="store_true")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--blocks", type=int, default=2)
    sp.add_argument("--literal-range", action="store_true")
    sp.add_argument("--cuts", default="0")
    sp.add_argument("--in", dest="infile")
    sp.add_argument("--in2", dest="infile2")
    sp.add_argument("--f")
    sp.add_argument("--g")
    sp.add_argument("--h")
    sp.add_argument("--f2")
    sp.add_argument("--g2")
    sp.set_defaults(fn=cmd_reduce)

    sp = sub.add_parser("norm")
    sp.add_argument("--g", required=True)
    sp.add_argument("--h", required=True)
    sp.add_argument("--max-size", type=int, default=32)
    sp.set_defaults(fn=cmd_norm)

    sp = sub.add_parser("condition")
    sp.add_argument("action", choices=["validate", "normalize", "show-levels"])
    sp.add_argument("--in", dest="infile", required=True)
    sp.set_defaults(fn=cmd_condition)

    sp = sub.add_parser("game")
    sp.add_argument("action", nargs="?", choices=["play"], default="play")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--rounds", type=int, default=3)
    sp.set_defaults(fn=cmd_game)

    sp = sub.add_parser("extract")
    sp.add_argument("--condition", required=True)
    sp.add_argument("--name", required=True)
    sp.add_argument("--xi", required=True)
    sp.add_argument("--A", default="")
    sp.set_defaults(fn=cmd_extract)

    sp = sub.add_parser("demo")
    sp.add_argument("--scale", default="T1")
    sp.set_defaults(fn=cmd_demo)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GuardExceeded as e:
        _emit({"error": "guard exceeded", "detail": str(e)})
        return 1
    except SlalomError as e:
        _emit({"error": type(e).__name__, "detail": str(e)})
        return 1
    except OSError as e:
        # a directory, an unreadable file, or no file at all
        what = ("missing input file" if isinstance(e, FileNotFoundError)
                else "unreadable input file")
        _emit({"error": what, "detail": str(e)})
        return 2
    except BadInput as e:
        _emit({"error": "bad input", "detail": str(e)})
        return 2


if __name__ == "__main__":
    sys.exit(main())

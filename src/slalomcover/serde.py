"""JSON encodings for every value the command line reads or writes.

All encoders produce plain dicts/lists (json-ready); decoders re-validate by
going through the public constructors, so a hand-edited file that breaks an
invariant fails loudly rather than round-tripping.  The command line reads
every file through read(): a file that is not JSON, or lacks a key, or has
a value of the wrong type, raises BadInput.
"""

from __future__ import annotations

import json

from .conditions import NormedTree, ProductCondition
from .errors import BadInput
from .extraction import FiniteName
from .reductions import TransferSystem
from .scales import BoundFn, ScaleSeq, Triple, validate_scale, validate_triple
from .slaloms import Slalom, SlalomFamily


def scale_to_dict(s: ScaleSeq) -> dict:
    return {"lo": list(s.lo), "hi": list(s.hi)}


def scale_from_dict(d: dict) -> ScaleSeq:
    return validate_scale(d["lo"], d["hi"])


def triple_to_dict(t: Triple) -> dict:
    return {"f": list(t.f.values), "g": list(t.g.values), "h": list(t.h.values),
            "scale": scale_to_dict(t.scale)}


def triple_from_dict(d: dict) -> Triple:
    return validate_triple(BoundFn(tuple(d["f"])), BoundFn(tuple(d["g"])),
                           BoundFn(tuple(d["h"])), scale_from_dict(d["scale"]))


def slalom_to_dict(B: Slalom) -> dict:
    return {"cap": list(B.cap.values), "sets": [sorted(s) for s in B.sets]}


def slalom_from_dict(d: dict) -> Slalom:
    return Slalom(BoundFn(tuple(d["cap"])),
                  tuple(frozenset(s) for s in d["sets"]))


def family_to_dict(F: SlalomFamily) -> dict:
    return {"slaloms": [slalom_to_dict(B) for B in F]}


def family_from_dict(d: dict) -> SlalomFamily:
    return SlalomFamily(tuple(slalom_from_dict(b) for b in d["slaloms"]))


def transfer_to_dict(T: TransferSystem) -> dict:
    return {"f": list(T.f.values), "g": list(T.g.values),
            "fp": list(T.fp.values), "gp": list(T.gp.values),
            "blocks": [list(w) for w in T.blocks],
            "maps": [[list(h) for h in wi] for wi in T.maps]}


def transfer_from_dict(d: dict) -> TransferSystem:
    return TransferSystem(BoundFn(tuple(d["f"])), BoundFn(tuple(d["g"])),
                          BoundFn(tuple(d["fp"])), BoundFn(tuple(d["gp"])),
                          tuple(tuple(w) for w in d["blocks"]),
                          tuple(tuple(tuple(h) for h in wi) for wi in d["maps"]))


def tree_to_dict(t: NormedTree) -> dict:
    return {"depth": t.depth, "triple": triple_to_dict(t.triple),
            "nodes": sorted([list(n) for n in t.nodes])}


def tree_from_dict(d: dict) -> NormedTree:
    return NormedTree(d["depth"], triple_from_dict(d["triple"]),
                      frozenset(tuple(n) for n in d["nodes"]))


def condition_to_dict(p: ProductCondition) -> dict:
    return {"depth": p.depth,
            "coords": {str(c): tree_to_dict(t) for c, t in p.trees}}


def condition_from_dict(d: dict) -> ProductCondition:
    return ProductCondition(tuple((c, tree_from_dict(td))
                                  for c, td in d["coords"].items()))


def name_to_dict(tau: FiniteName) -> dict:
    return {"bound": list(tau.bound.values),
            "branches": [{"tuple": [list(n) for n in br], "tau": list(v)}
                         for br, v in tau.labels]}


def name_from_dict(d: dict, host: ProductCondition) -> FiniteName:
    labels = tuple((tuple(tuple(n) for n in entry["tuple"]),
                    tuple(entry["tau"]))
                   for entry in d["branches"])
    return FiniteName(host, labels, BoundFn(tuple(d["bound"])))


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read(path: str, decode, *args):
    """decode(load(path), *args); BadInput when the file's JSON is broken or
    has the wrong shape.  An invariant a decoded value breaks still raises
    the constructor's own error."""
    try:
        return decode(load(path), *args)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
        raise BadInput(f"{path}: {type(e).__name__}: {e}") from None


def dump(obj, path: str):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")

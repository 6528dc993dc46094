"""Shared test utilities: a CLI runner, the documented and seeded
mutations, and reference implementations kept as oracles: the table
loader, the brute-force uniqueness search with its forced arrow map,
the inverse search, the model table builder and the homset listing.

Each mutation rewrites exactly one compose entry of the generated table
over F_5 and is keyed by the check expected to expose it.  The triples
are (first arrow, second arrow, replacement result).
"""

import copy
import itertools
import math
import random
import subprocess
import sys
from typing import Optional

import numpy as np

from projline.candidate import (
    CandidateFormatError,
    CandidateTable,
    Endo,
    NonEndo,
    _check_name,
    parse_arrow,
)
from projline.coordinatize import (
    CoordinatizationError,
    Frame,
    _default_frame,
    _target_model,
)
from projline.model import label_to_arrow, points
from projline.reports import CheckReport, make_check
from projline.scalars import PrimeField


def run_cli(*args, binary=False):
    return subprocess.run(
        [sys.executable, "-m", "projline", *args],
        capture_output=True,
        text=not binary,
    )


MUTATIONS = {
    "one": ("0:1>2:1>1:1", "1:1>2:1>0:1", "0:1#2"),
    "two": ("0:1>3:1>1:1", "1:1>3:1>2:1", "0:1>1:0>2:1"),
    "pappus": ("0:1#2", "0:1#3", "0:1#2"),
    "hex1": ("0:1#3", "0:1>1:1>2:1", "0:1>3:1>2:1"),
    "hex2": ("0:1>2:1>1:1", "1:1>0:1>2:1", "0:1>3:1>2:1"),
    "as": ("0:1>1:1>2:1", "2:1>3:1>0:1", "0:1#2"),
    "field": ("0:1>1:1>2:1", "2:1>4:1>0:1", "0:1#3"),
}


def rewrite_entry(doc: dict, first: str, second: str, replacement: str) -> dict:
    """A deep copy of a table document with the entry for (first, second) rewritten."""
    out = copy.deepcopy(doc)
    hits = [e for e in out["compose"] if e[0] == first and e[1] == second]
    assert len(hits) == 1, f"({first}, {second}) must hit exactly one entry"
    assert hits[0][2] != replacement, f"({first}, {second}) must change the entry"
    hits[0][2] = replacement
    return out


def mutate_doc(doc: dict, name: str) -> dict:
    """A deep copy of a table document with one documented compose entry rewritten."""
    return rewrite_entry(doc, *MUTATIONS[name])


def seeded_mutation(doc: dict, seed: int) -> dict:
    """A deep copy of a table document with one seeded compose entry
    rewritten to another arrow of the same homset, so every composite
    keeps its endpoints."""
    rng = random.Random(seed)
    out = copy.deepcopy(doc)
    entry = rng.choice(out["compose"])
    r = parse_arrow(entry[2])
    if isinstance(r, Endo):
        homset = [f"{r.obj}#{s}" for s in out["scalars"][r.obj]]
    else:
        homset = [f"{r.src}>{lab}>{r.dst}" for lab in out["objects"] if lab not in (r.src, r.dst)]
    entry[2] = rng.choice([x for x in homset if x != entry[2]])
    return out


def _ends(arrow) -> tuple[str, str]:
    return (arrow.obj, arrow.obj) if isinstance(arrow, Endo) else (arrow.src, arrow.dst)


def cross_homset_mutation(doc: dict, seed: int) -> dict:
    """A deep copy of a table document with one seeded compose entry
    rewritten to an arrow of another homset, so the table fails the
    endpoints layer."""
    rng = random.Random(seed)
    out = copy.deepcopy(doc)
    objs = out["objects"]
    arrows = [f"{o}#{s}" for o in objs for s in out["scalars"][o]]
    arrows += [f"{a}>{lab}>{b}" for a, b, lab in itertools.permutations(objs, 3)]
    entry = rng.choice(out["compose"])
    ends = _ends(parse_arrow(entry[2]))
    entry[2] = rng.choice([x for x in arrows if _ends(parse_arrow(x)) != ends])
    return out


def relabel(doc: dict, seed: int) -> dict:
    """A table document with its object names permuted, each object's
    scalar ids permuted and its object list shuffled: the same table
    under other names."""
    rng = random.Random(seed)
    objs = doc["objects"]
    names = dict(zip(objs, rng.sample(objs, len(objs))))
    ids = {}
    for o in objs:
        own = doc["scalars"][o]
        ids[o] = dict(zip(own, rng.sample(own, len(own))))

    def arrow(a: str) -> str:
        x = parse_arrow(a)
        if isinstance(x, Endo):
            return f"{names[x.obj]}#{ids[x.obj][x.scalar]}"
        return f"{names[x.src]}>{names[x.label]}>{names[x.dst]}"

    rename = {a: arrow(a) for a in {a for e in doc["compose"] for a in e}}
    order = rng.sample(objs, len(objs))
    return {
        "format": doc["format"],
        "objects": [names[o] for o in order],
        "scalars": {names[o]: [ids[o][s] for s in doc["scalars"][o]] for o in order},
        "identity": {names[o]: ids[o][doc["identity"][o]] for o in order},
        "compose": [[rename[a], rename[b], rename[r]] for a, b, r in doc["compose"]],
    }


def reference_from_doc(doc) -> CandidateTable:
    """The per-entry loader that ``CandidateTable.from_doc`` replaced.

    It parses every arrow string into an arrow object, validates the
    declared space, then fills a dense table entry by entry, counting
    entries last.  Its errors are the loader's, except that the loader
    reports a wrong entry count first.  Documents with a list where a
    name belongs, or a non-list of scalar ids, make it raise TypeError
    or read a string as its characters.
    """
    if not isinstance(doc, dict):
        raise CandidateFormatError("candidate document must be a JSON object")
    for key in ("format", "objects", "scalars", "identity", "compose"):
        if key not in doc:
            raise CandidateFormatError(f"missing key {key!r}")
    if doc["format"] != CandidateTable.FORMAT:
        raise CandidateFormatError(
            f"unsupported format {doc['format']!r}, want {CandidateTable.FORMAT}"
        )
    if not isinstance(doc["objects"], list) or not isinstance(doc["scalars"], dict):
        raise CandidateFormatError("objects must be a list and scalars a mapping")
    if not isinstance(doc["identity"], dict) or not isinstance(doc["compose"], list):
        raise CandidateFormatError("identity must be a mapping and compose a list")
    entries = []
    for e in doc["compose"]:
        if not isinstance(e, list) or len(e) != 3:
            raise CandidateFormatError(f"compose entries are [a, b, ab] triples, got {e!r}")
        entries.append(tuple(parse_arrow(s) for s in e))

    objects, scalars, identities = list(doc["objects"]), doc["scalars"], doc["identity"]
    if len(objects) < 3:
        raise CandidateFormatError("at least three objects are required")
    if len(set(objects)) != len(objects):
        raise CandidateFormatError("object names must be unique")
    for o in objects:
        _check_name("object", o)
    if set(scalars) != set(objects):
        raise CandidateFormatError("scalars must be declared for exactly the objects")
    norm_scalars = {}
    for o in objects:
        ids = list(scalars[o])
        if not ids or len(set(ids)) != len(ids):
            raise CandidateFormatError(f"scalar ids at {o!r} must be nonempty and unique")
        for s in ids:
            _check_name("scalar", s)
        norm_scalars[o] = ids
    if set(identities) != set(objects):
        raise CandidateFormatError("an identity must be declared for exactly the objects")
    for o in objects:
        if identities[o] not in norm_scalars[o]:
            raise CandidateFormatError(
                f"identity {identities[o]!r} at {o!r} is not a declared scalar"
            )

    t = CandidateTable._bare(objects, norm_scalars, identities)
    comp = np.full((t.n_arrows, t.n_arrows), -1, dtype=np.int32)
    count = 0
    for a, b, r in entries:
        ia, ib, ir = t.arrow_index(a), t.arrow_index(b), t.arrow_index(r)
        if t._dst_i[ia] != t._src_i[ib]:
            raise CandidateFormatError(f"entry ({a}, {b}) is not composable")
        if comp[ia, ib] != -1:
            raise CandidateFormatError(f"duplicate entry for ({a}, {b})")
        comp[ia, ib] = ir
        count += 1
    expected = int(sum(len(t._in[o]) * len(t._out[o]) for o in range(t.n_objects)))
    if count != expected:
        raise CandidateFormatError(
            f"compose table has {count} entries but {expected} composable pairs exist"
        )
    t._comp = comp
    return t


def reference_forced_arrow_map(
    table: CandidateTable, model: CandidateTable, obj_to: list[int]
) -> np.ndarray:
    """Arrow map induced by an object bijection, one arrow at a time.

    The loop that ``coordinatize._Forcing`` replaced, kept as its oracle.

    Arrows between distinct objects go to the arrow with the image
    label.  Each scalar s at X is forced by functoriality through any
    arrow f out of X: the image of s must be (image of s.f) then the
    inverse image of f.  The least outgoing arrow is used.
    """
    F = np.full(table.n_arrows, -1, dtype=np.int32)
    for i, ar in enumerate(table.arrows):
        if isinstance(ar, NonEndo):
            key = (
                obj_to[table._obj_i[ar.src]],
                obj_to[table._obj_i[ar.dst]],
                obj_to[table._obj_i[ar.label]],
            )
            F[i] = model._ne3[key]
    m_inv = model._ensure_inverses()
    comp = table._comp
    for xi in range(table.n_objects):
        f = next(j for j in table._out[xi] if int(table._dst_i[j]) != xi)
        Ff = int(F[f])
        Ff_inv = int(m_inv[Ff])
        for sid in table.scalars[table.objects[xi]]:
            si = table._endo_i[(xi, sid)]
            F[si] = model._comp[int(F[int(comp[si, f])]), Ff_inv]
    return F


def reference_uniqueness(
    table: CandidateTable, frame: Optional[Frame] = None, max_witnesses: int = 5
) -> tuple[CheckReport, Optional[dict[str, str]]]:
    """Check that exactly one structure map extends the frame assignment.

    The brute force that ``verify_uniqueness`` replaced, kept as its
    oracle: every object bijection sending the frame to (0:1, 1:0, 1:1)
    is tried; the induced arrow map is accepted when fully functorial.
    Returns the check plus the unique passing object map, if unique.
    """
    if frame is None:
        frame = _default_frame(table)
    for o in frame.members():
        if o not in table.identities:
            raise CoordinatizationError(f"frame object {o!r} is not in the table")
    model = _target_model(table)
    f0, f1, f2 = frame.members()
    fixed = {f0: "0:1", f1: "1:0", f2: "1:1"}
    others = [o for o in table.objects if o not in fixed]
    targets = [m for m in model.objects if m not in ("0:1", "1:0", "1:1")]
    comp = table._comp
    I, J = np.nonzero(comp >= 0)
    RK = comp[I, J]
    passing: list[dict[str, str]] = []
    checked = 0
    for perm in itertools.permutations(targets):
        checked += 1
        omap = dict(fixed)
        omap.update(zip(others, perm))
        obj_to = [model._obj_i[omap[o]] for o in table.objects]
        F = reference_forced_arrow_map(table, model, obj_to)
        if bool(np.all(model._comp[F[I], F[J]] == F[RK])):
            passing.append(omap)
    assert checked == math.factorial(len(others))
    if len(passing) == 1:
        return make_check("uniqueness", checked, 0, []), passing[0]
    if not passing:
        wit = ["no object bijection extending the frame is structure preserving"]
        return make_check("uniqueness", checked, 1, wit), None
    wit = []
    for extra in passing[1 : 1 + max_witnesses]:
        diff = {k: v for k, v in extra.items() if passing[0][k] != v}
        wit.append(f"a second structure map exists, differing at {diff}")
    return make_check("uniqueness", checked, len(passing) - 1, wit), None


def reference_inverses(table: CandidateTable) -> np.ndarray:
    """Two-sided inverse index per arrow, -1 where none exists.

    The per-arrow loop that ``CandidateTable._ensure_inverses`` replaced,
    kept as its oracle: for each arrow i, the first arrow j out of its
    target that returns to its source with both composites the units.
    """
    comp = table._comp
    inv = np.full(table.n_arrows, -1, dtype=np.int32)
    for i in range(table.n_arrows):
        si, di = int(table._src_i[i]), int(table._dst_i[i])
        want_l, want_r = table._id_idx[si], table._id_idx[di]
        for j in table._out[di]:
            if table._dst_i[j] == si and comp[i, j] == want_l and comp[j, i] == want_r:
                inv[i] = j
                break
    return inv


def reference_from_model(p: int) -> CandidateTable:
    """The candidate table of the projective line over F_p, filled pair by pair.

    The loop that ``from_model`` replaced, kept as its oracle: each
    arrow gets its factor, and the composite of i then j is the arrow
    from the source of i to the target of j whose factor is the product.
    """
    field = PrimeField(p)
    pts = points(field)
    names = [str(q) for q in pts]
    scalar_ids = [str(v) for v in range(1, p)]
    scalars = {nm: list(scalar_ids) for nm in names}
    identities = {nm: "1" for nm in names}
    t = CandidateTable._bare(names, scalars, identities)

    fac: list[int] = [0] * t.n_arrows
    for i, ar in enumerate(t.arrows):
        if isinstance(ar, Endo):
            fac[i] = int(ar.scalar)
        else:
            a = pts[t._obj_i[ar.src]]
            b = pts[t._obj_i[ar.dst]]
            c = pts[t._obj_i[ar.label]]
            fac[i] = int(label_to_arrow(a, b, c).factor.value)
    n = t.n_objects
    by_factor: list[list[dict[int, int]]] = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(t.n_arrows):
        by_factor[int(t._src_i[i])][int(t._dst_i[i])][fac[i]] = i
    comp = np.full((t.n_arrows, t.n_arrows), -1, dtype=np.int32)
    src_l = [int(v) for v in t._src_i]
    dst_l = [int(v) for v in t._dst_i]
    for i in range(t.n_arrows):
        si, fi = src_l[i], fac[i]
        for j in t._out[dst_l[i]]:
            comp[i, j] = by_factor[si][dst_l[j]][(fi * fac[j]) % p]
    t._comp = comp
    return t


def reference_hom(table: CandidateTable, a: str, b: str) -> tuple:
    """The arrows from ``a`` to ``b``, built from the names as ``hom`` once did."""
    ai, bi = table._obj_i[a], table._obj_i[b]
    if ai == bi:
        return tuple(Endo(a, s) for s in table.scalars[a])
    return tuple(
        NonEndo(a, b, lab) for li, lab in enumerate(table.objects) if li not in (ai, bi)
    )

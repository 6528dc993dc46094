"""Shared test utilities: a CLI runner, the documented, seeded and
relabeling mutations, group groupoid tables, and reference
implementations kept as oracles: the table loader, the brute-force
uniqueness search with its forced arrow map, the inverse search, the
model table builder, the format-1 document and its bytes, the homset
listing and the object-level rapport calculus, field reconstruction,
classification and coordinatization, and the model's calculators
composed from arrows on field elements.

Each mutation rewrites exactly one compose entry of the generated table
over F_5 and is keyed by the check expected to expose it.  The triples
are (first arrow, second arrow, replacement result).
"""

import copy
import functools
import itertools
import json
import math
import random
import subprocess
import sys
from typing import Optional

import numpy as np

from projline import candidate
from projline.candidate import (
    CandidateFormatError,
    CandidateTable,
    Endo,
    NonEndo,
    _check_name,
    from_model,
    parse_arrow,
)
from projline.coordinatize import (
    CandidateIso,
    CoordinatizationError,
    Frame,
    _line,
)
from projline.model import (
    CR_ROWS,
    MINUS_ROWS,
    TRI_ROWS,
    DegenerateHarmonicError,
    ModelArrow,
    Point,
    compose,
    points,
)
from projline.reconstruct import (
    Classification,
    FieldTable,
    ReconstructionError,
    _zero_name,
    verify_field,
)
from projline.reports import CheckReport, ReportGroup, make_check
from projline.scalars import PrimeField, is_prime


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


# Entries of the F_7 table rewritten so that it is no groupoid, each with
# the text its reconstruction failure must contain.
NON_GROUPOID = {
    "no-inverse": (("0:1#3", "0:1#5", "0:1#4"), "0:1#3 has no two-sided inverse"),
    "cycle-not-scalar": (
        ("0:1>2:1>3:1", "3:1>6:1>0:1", "0:1>1:0>6:1"),
        "gives 0:1>1:0>6:1, not a scalar",
    ),
    "product-not-scalar": (
        ("0:1#2", "0:1#3", "0:1>1:0>6:1"),
        "0:1#2 then 0:1#3 gives 0:1>1:0>6:1",
    ),
    "product-at-another-object": (
        ("0:1#2", "0:1#3", "1:0#6"),
        "0:1#2 then 0:1#3 gives 1:0#6, not a scalar at 0:1",
    ),
}

# Two arrows of one homset whose names swap_names exchanges.
SWAPPED_NAMES = ("0:1>2:1>1:1", "0:1>3:1>1:1")


def swap_names(doc: dict, a: str, b: str) -> dict:
    """A deep copy of a table document with the arrow names ``a`` and
    ``b``, two arrows of one homset, exchanged in every compose entry.

    Renaming arrows inside a homset keeps the groupoid, so the table
    passes every structure layer, but it moves the labels the axioms
    read.
    """
    ends_a, ends_b = _ends(parse_arrow(a)), _ends(parse_arrow(b))
    assert a != b and ends_a == ends_b, "a and b must be two arrows of one homset"
    swap = {a: b, b: a}
    out = copy.deepcopy(doc)
    out["compose"] = [[swap.get(x, x) for x in e] for e in out["compose"]]
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


def four_object_table() -> CandidateTable:
    """Four objects with one scalar each, built through the constructor.

    The endo counts agree with each other but not with the two arrows
    in every homset between distinct objects.
    """
    objs = ["a", "b", "c", "d"]
    arrows = [Endo(o, "1") for o in objs]
    arrows += [NonEndo(u, w, lab) for u, w, lab in itertools.permutations(objs, 3)]

    def composite(x, y):
        u, w = _ends(x)[0], _ends(y)[1]
        if u == w:
            return Endo(u, "1")
        return NonEndo(u, w, next(o for o in objs if o not in (u, w)))

    entries = [
        (x, y, composite(x, y)) for x in arrows for y in arrows if _ends(x)[1] == _ends(y)[0]
    ]
    return CandidateTable(objs, {o: ["1"] for o in objs}, {o: "1" for o in objs}, entries)


def symmetric_group(m: int) -> list[list[int]]:
    """The multiplication table of the permutations of m points, in
    ``itertools.permutations`` order (the identity first): entry [x][y]
    is x then y."""
    perms = list(itertools.permutations(range(m)))
    index = {q: i for i, q in enumerate(perms)}
    return [[index[tuple(y[i] for i in x)] for y in perms] for x in perms]


def group_groupoid(H: list[list[int]], labels) -> dict:
    """The table document of the group groupoid of H on |H|+2 objects.

    ``H`` is a multiplication table whose element 0 is the unit.  Objects
    are "0" .. "n-1"; the scalar at each object named "h" is the element
    h, so the unit "0" is the identity.  ``labels`` gives the element of
    each arrow a -> b named c: a mapping from object index triples
    (a, b, c), one bijection of the labels onto H per homset, or an int
    seed that draws each bijection at random.  A composite multiplies:
    the elements x of a -> b and y of b -> c give the arrow a -> c whose
    element is H[x][y].  H being a group, the table passes every
    structure layer.
    """
    k = len(H)
    n = k + 2
    if isinstance(labels, int):
        rng = random.Random(labels)
        labels = {}
        for a, b in itertools.permutations(range(n), 2):
            own = [c for c in range(n) if c not in (a, b)]
            labels.update({(a, b, c): h for c, h in zip(own, rng.sample(range(k), k))})
    named = {(a, b, h): c for (a, b, c), h in labels.items()}

    def arrow(a: int, b: int, h: int) -> str:
        return f"{a}#{h}" if a == b else f"{a}>{named[a, b, h]}>{b}"

    # Every arrow as (source, target, element), in no particular order.
    arrows = [(a, a, h) for a in range(n) for h in range(k)]
    arrows += [(a, b, labels[a, b, c]) for a, b, c in itertools.permutations(range(n), 3)]
    out = {a: [x for x in arrows if x[0] == a] for a in range(n)}
    compose = [
        [arrow(*x), arrow(*y), arrow(x[0], y[1], H[x[2]][y[2]])]
        for x in arrows
        for y in out[x[1]]
    ]
    objects = [str(a) for a in range(n)]
    return {
        "format": CandidateTable.FORMAT,
        "objects": objects,
        "scalars": {o: [str(h) for h in range(k)] for o in objects},
        "identity": {o: "0" for o in objects},
        "compose": compose,
    }


def reference_doc(table: CandidateTable) -> dict:
    """The format-1 document of ``table``, its compose entries sorted by
    Python on (first name, second name), one per composable pair."""
    names = [str(a) for a in table.arrows]
    I, J = table._pairs()
    R = table._composite(I, J)
    entries = sorted(
        [names[i], names[j], names[r]] for i, j, r in zip(I.tolist(), J.tolist(), R.tolist())
    )
    return {
        "format": CandidateTable.FORMAT,
        "objects": list(table.objects),
        "scalars": {o: list(table.scalars[o]) for o in table.objects},
        "identity": {o: table.identities[o] for o in table.objects},
        "compose": entries,
    }


def reference_json_bytes(table: CandidateTable) -> bytes:
    """The writer that ``CandidateTable.to_json_bytes`` replaced: compact
    ``json.dumps`` of the whole document, as ASCII, plus a newline."""
    return json.dumps(reference_doc(table), separators=(",", ":")).encode("ascii") + b"\n"


def reference_from_doc(doc) -> CandidateTable:
    """The per-entry loader that ``CandidateTable.from_doc`` replaced.

    It validates the declared space and the entry count, then checks
    the entries one by one, each for its shape, its names parsed into
    arrow objects, their lookup, the composability of its pair and then
    a repeated pair, and stores them.  Its errors are the loader's.  Documents with a list where a name
    belongs, or a non-list of scalar ids, make it raise TypeError or
    read a string as its characters.
    """
    if not isinstance(doc, dict):
        raise CandidateFormatError("candidate document must be a JSON object")
    for key in ("format", "objects", "scalars", "identity", "compose"):
        if key not in doc:
            raise CandidateFormatError(f"missing key {key!r}")
    if type(doc["format"]) is not int or doc["format"] != CandidateTable.FORMAT:
        raise CandidateFormatError(
            f"unsupported format {doc['format']!r}, want {CandidateTable.FORMAT}"
        )
    if not isinstance(doc["objects"], list) or not isinstance(doc["scalars"], dict):
        raise CandidateFormatError("objects must be a list and scalars a mapping")
    if not isinstance(doc["identity"], dict) or not isinstance(doc["compose"], list):
        raise CandidateFormatError("identity must be a mapping and compose a list")

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
        norm_scalars[o] = tuple(ids)
    if set(identities) != set(objects):
        raise CandidateFormatError("an identity must be declared for exactly the objects")
    for o in objects:
        if identities[o] not in norm_scalars[o]:
            raise CandidateFormatError(
                f"identity {identities[o]!r} at {o!r} is not a declared scalar"
            )

    t = CandidateTable._bare(tuple(objects), norm_scalars, dict(identities))
    count = len(doc["compose"])
    expected = sum(len(i) * len(o) for i, o in zip(in_lists(t), out_lists(t)))
    if count != expected:
        raise CandidateFormatError(
            f"compose table has {count} entries but {expected} composable pairs exist"
        )
    index = ObjectCalculus(t).arrow_index
    comp: dict[tuple[int, int], int] = {}
    for e in doc["compose"]:
        if not isinstance(e, list) or len(e) != 3:
            raise CandidateFormatError(f"compose entries are [a, b, ab] triples, got {e!r}")
        a, b, r = (parse_arrow(s) for s in e)
        ia, ib, ir = index(a), index(b), index(r)
        if t._dst_i[ia] != t._src_i[ib]:
            raise CandidateFormatError(f"entry ({a}, {b}) is not composable")
        if (ia, ib) in comp:
            raise CandidateFormatError(f"duplicate entry for ({a}, {b})")
        comp[ia, ib] = ir
    t._store(*zip(*comp), list(comp.values()))
    return t


def out_lists(table: CandidateTable) -> list[list[int]]:
    """The arrow indices out of each object, in increasing order."""
    return [np.flatnonzero(table._src_i == o).tolist() for o in range(table.n_objects)]


def in_lists(table: CandidateTable) -> list[list[int]]:
    """The arrow indices into each object, in increasing order."""
    return [np.flatnonzero(table._dst_i == o).tolist() for o in range(table.n_objects)]


def _endo_index(table: CandidateTable, obj: str, sid: str) -> int:
    return table._name_i[str(Endo(obj, sid))]


def reference_forced_arrow_map(
    table: CandidateTable, model: CandidateTable, obj_to: list[int]
) -> np.ndarray:
    """Arrow map induced by an object bijection, one arrow at a time.

    The loop that ``coordinatize._Forcing`` replaced, kept as its oracle.

    Arrows between distinct objects go to the arrow with the image
    label.  Each scalar s at X is forced by functoriality through any
    arrow f out of X: the image of s must be (image of s.f) then the
    inverse image of f.  The least outgoing arrow is used, and a
    composite s.f that is not an arrow with the endpoints of f raises
    CoordinatizationError with the library's message.
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
    out = out_lists(table)
    for xi, x in enumerate(table.objects):
        f = next(j for j in out[xi] if int(table._dst_i[j]) != xi)
        Ff = int(F[f])
        Ff_inv = int(model._inv[Ff])
        for sid in table.scalars[x]:
            si = _endo_index(table, x, sid)
            r = int(table._composite(si, f))
            s_, f_, r_ = table.arrows[si], table.arrows[f], table.arrows[r]
            if isinstance(r_, Endo):
                raise CoordinatizationError(
                    f"{s_} then {f_} gives {r_}, not an arrow between distinct objects"
                )
            if (r_.src, r_.dst) != (f_.src, f_.dst):
                raise CoordinatizationError(
                    f"{s_} then {f_} gives {r_}, not an arrow from {f_.src} to {f_.dst}"
                )
            F[si] = model._composite(int(F[r]), Ff_inv)
    return F


def reference_model(table: CandidateTable) -> CandidateTable:
    """The model table over F_p, p = n_objects - 1, for the oracles; a
    table whose p is not prime raises as the library does."""
    return from_model(_line(table.n_objects - 1).p)


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
        frame = Frame(*table.objects[:3])
    for o in frame.members():
        if o not in table.identities:
            raise CoordinatizationError(f"frame object {o!r} is not in the table")
    model = reference_model(table)
    f0, f1, f2 = frame.members()
    fixed = {f0: "0:1", f1: "1:0", f2: "1:1"}
    others = [o for o in table.objects if o not in fixed]
    targets = [m for m in model.objects if m not in ("0:1", "1:0", "1:1")]
    comp = table._composite(slice(None), slice(None))
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
        if bool(np.all(model._composite(F[I], F[J]) == F[RK])):
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

    The per-arrow loop kept as the oracle of the search in
    ``CandidateTable._store``: for each arrow i, the first arrow j out of
    its target that returns to its source with both composites the units.
    It scans every arrow out of the target, not only those of hom(b, a).
    """
    comp = table._composite
    out = out_lists(table)
    inv = np.full(table.n_arrows, -1, dtype=np.int32)
    for i in range(table.n_arrows):
        si, di = int(table._src_i[i]), int(table._dst_i[i])
        want_l, want_r = table._id_idx[si], table._id_idx[di]
        for j in out[di]:
            if table._dst_i[j] == si and comp(i, j) == want_l and comp(j, i) == want_r:
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
    scalar_ids = tuple(str(v) for v in range(1, p))
    scalars = {nm: scalar_ids for nm in names}
    identities = {nm: "1" for nm in names}
    t = CandidateTable._bare(tuple(names), scalars, identities)

    fac: list[int] = [0] * t.n_arrows
    for i, ar in enumerate(t.arrows):
        if isinstance(ar, Endo):
            fac[i] = int(ar.scalar)
        else:
            a = pts[t._obj_i[ar.src]]
            b = pts[t._obj_i[ar.dst]]
            c = pts[t._obj_i[ar.label]]
            fac[i] = int(reference_label_to_arrow(a, b, c).factor.value)
    n = t.n_objects
    by_factor: list[list[dict[int, int]]] = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(t.n_arrows):
        by_factor[int(t._src_i[i])][int(t._dst_i[i])][fac[i]] = i
    comp: dict[tuple[int, int], int] = {}
    src_l = [int(v) for v in t._src_i]
    dst_l = [int(v) for v in t._dst_i]
    out = out_lists(t)
    for i in range(t.n_arrows):
        si, fi = src_l[i], fac[i]
        for j in out[dst_l[i]]:
            comp[i, j] = by_factor[si][dst_l[j]][(fi * fac[j]) % p]
    t._store(*zip(*comp), list(comp.values()))
    return t


def reference_hom(table: CandidateTable, a: str, b: str) -> tuple:
    """The arrows from ``a`` to ``b``, built from the names as ``hom`` once did."""
    ai, bi = table._obj_i[a], table._obj_i[b]
    if ai == bi:
        return tuple(Endo(a, s) for s in table.scalars[a])
    return tuple(
        NonEndo(a, b, lab) for li, lab in enumerate(table.objects) if li not in (ai, bi)
    )


# -- object-level rapport calculus, reconstruction and coordinatization ---------
#
# The code that composed frozen arrow objects one pair at a time, kept as
# the oracle of the index-level versions in candidate, reconstruct and
# coordinatize.  Arrows are looked up in a dict from arrow object to index.


class ObjectCalculus:
    """The rapport calculus of one table over arrow objects."""

    def __init__(self, table: CandidateTable):
        self.table = table
        self.index = {a: i for i, a in enumerate(table.arrows)}

    def arrow_index(self, arrow) -> int:
        try:
            return self.index[arrow]
        except KeyError:
            raise CandidateFormatError(f"unknown arrow {arrow}") from None

    def compose(self, f, g):
        i, j = self.arrow_index(f), self.arrow_index(g)
        r = int(self.table._composite(i, j))
        if r < 0:
            raise ValueError(f"cannot compose {f} then {g}")
        return self.table.arrows[r]

    def inverse_arrow(self, f):
        j = int(self.table._inv[self.arrow_index(f)])
        if j < 0:
            raise ValueError(f"{f} has no two-sided inverse in this table")
        return self.table.arrows[j]

    @staticmethod
    def scalar(out, at: str, route: str) -> Endo:
        if not isinstance(out, Endo) or out.obj != at:
            raise ValueError(f"{route} gives {out}, not a scalar at {at}")
        return out

    def cross_ratio_abs(self, a: str, b: str, c: str, d: str) -> Endo:
        if len({a, b, c}) != 3 or len({a, b, d}) != 3:
            raise ValueError(f"cross ratio needs a,b,c and a,b,d distinct: {a},{b};{c},{d}")
        out = self.compose(NonEndo(a, b, c), NonEndo(b, a, d))
        return self.scalar(out, a, f"round trip ({a},{b};{c},{d})")

    def tri_rapport_abs(self, a: str, b: str, c: str, d: str, e: str, f: str) -> Endo:
        if len({a, b, c}) != 3:
            raise ValueError(f"base objects must be pairwise distinct: {a},{b},{c}")
        if d in (a, b) or e in (b, c) or f in (c, a):
            raise ValueError(f"labels must avoid their endpoints: ({a},{b},{c};{d},{e},{f})")
        out = self.compose(self.compose(NonEndo(a, b, d), NonEndo(b, c, e)), NonEndo(c, a, f))
        return self.scalar(out, a, f"cycle ({a},{b},{c};{d},{e},{f})")

    def conjugate(self, sigma: Endo, f: NonEndo) -> Endo:
        if not isinstance(sigma, Endo):
            raise ValueError(f"{sigma} is not a scalar")
        if not isinstance(f, NonEndo):
            raise ValueError(f"{f} is not an arrow between distinct objects")
        if sigma.obj != f.src:
            raise ValueError(f"{sigma} does not live at the source of {f}")
        finv = self.inverse_arrow(f)
        out = self.compose(self.compose(finv, sigma), f)
        return self.scalar(out, f.dst, f"transport of {sigma} along {f}")

    def canonical_scalar(self, sigma: Endo, base: str) -> Endo:
        table = self.table
        self.arrow_index(sigma)
        if base not in table._obj_i:
            raise CandidateFormatError(f"unknown base object {base!r}")
        if not isinstance(sigma, Endo):
            raise ValueError(f"{sigma} is not a scalar")
        if sigma.obj == base:
            return sigma
        ai = table._obj_i[sigma.obj]
        bi = table._obj_i[base]
        li = min(i for i in range(table.n_objects) if i not in (ai, bi))
        return self.conjugate(sigma, NonEndo(sigma.obj, base, table.objects[li]))


def _default_helpers(table: CandidateTable, base: str) -> tuple[str, str]:
    rest = [o for o in table.objects if o != base]
    return rest[0], rest[1]


def _reconstruction(fn):
    """``fn`` raising ReconstructionError with the same message for any ValueError."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ReconstructionError:
            raise
        except ValueError as exc:
            raise ReconstructionError(str(exc)) from exc

    return wrapper


@_reconstruction
def reference_minus_one(
    table: CandidateTable, base: Optional[str] = None, calc: Optional[ObjectCalculus] = None
) -> Endo:
    """The scalar -1 at the base object, checked one helper pair at a time.

    Its message names the default helpers as ``(b,c)``, as the library's does.
    """
    calc = calc or ObjectCalculus(table)
    if base is None:
        base = table.objects[0]
    if base not in table.identities:
        raise ReconstructionError(f"unknown base object {base!r}")

    def cycle_value(a: str) -> Endo:
        b, c = _default_helpers(table, a)
        return calc.tri_rapport_abs(a, b, c, c, a, b)

    m = cycle_value(base)
    for b in table.objects:
        if b == base:
            continue
        for c in table.objects:
            if c in (base, b):
                continue
            got = calc.tri_rapport_abs(base, b, c, c, base, b)
            if got != m:
                b0, c0 = _default_helpers(table, base)
                raise ReconstructionError(
                    f"-1 is not well defined at {base}: helpers ({b},{c}) give {got}, "
                    f"({b0},{c0}) give {m}"
                )
    if calc.compose(m, m) != table.identity_arrow(base):
        raise ReconstructionError(f"candidate -1 at {base} does not square to the identity: {m}")
    for x in table.objects:
        if x == base:
            continue
        moved = calc.canonical_scalar(cycle_value(x), base)
        if moved != m:
            raise ReconstructionError(
                f"-1 differs between objects: at {x} it transports to {moved}, not {m}"
            )
    return m


@_reconstruction
def reference_phi(
    table: CandidateTable,
    base: str,
    mu: Optional[str],
    b: Optional[str] = None,
    c: Optional[str] = None,
    calc: Optional[ObjectCalculus] = None,
) -> Optional[str]:
    """The swap map on scalars at ``base``, trying the fourth objects one at a time."""
    calc = calc or ObjectCalculus(table)
    if base not in table.identities:
        raise ReconstructionError(f"unknown base object {base!r}")
    db, dc = _default_helpers(table, base)
    b = db if b is None else b
    c = dc if c is None else c
    if len({base, b, c}) != 3:
        raise ReconstructionError(f"helpers must be distinct from the base: {base},{b},{c}")
    one = table.identities[base]
    if mu is None:
        return one
    if mu not in table.scalars[base]:
        raise ReconstructionError(f"{mu!r} is not a scalar id at {base!r}")
    if mu == one:
        return None
    want = Endo(base, mu)
    for d in table.objects:
        if d in (base, b):
            continue
        if calc.cross_ratio_abs(base, b, c, d) == want:
            return calc.cross_ratio_abs(base, c, b, d).scalar
    raise ReconstructionError(
        f"no fourth object realizes cross ratio {mu} over ({base},{b};{c},...)"
    )


@_reconstruction
def reference_build_field(table: CandidateTable, base: Optional[str] = None) -> FieldTable:
    """The field at ``base``, multiplied and added one scalar pair at a time."""
    calc = ObjectCalculus(table)
    if base is None:
        base = table.objects[0]
    minus = reference_minus_one(table, base, calc)
    ids = table.scalars[base]
    zero = _zero_name(ids)
    carrier = (zero,) + ids
    pos = {nm: i for i, nm in enumerate(carrier)}
    one = table.identities[base]

    def endo(sid: str) -> Endo:
        return Endo(base, sid)

    def mul2(x: str, y: str) -> str:
        out = calc.compose(endo(x), endo(y))
        return calc.scalar(out, base, f"{endo(x)} then {endo(y)}").scalar

    phi_map: dict[Optional[str], Optional[str]] = {None: one}
    for sid in ids:
        phi_map[sid] = reference_phi(table, base, sid, calc=calc)

    inv_of = {sid: calc.inverse_arrow(endo(sid)).scalar for sid in ids}

    n = len(carrier)
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for i, x in enumerate(carrier):
        for j, y in enumerate(carrier):
            if x == zero or y == zero:
                mul[i][j] = 0
                add[i][j] = j if x == zero else i
                continue
            mul[i][j] = pos[mul2(x, y)]
            t = phi_map[mul2(minus.scalar, mul2(inv_of[x], y))]
            add[i][j] = 0 if t is None else pos[mul2(x, t)]
    return FieldTable(
        base_object=base,
        carrier=carrier,
        zero=zero,
        one=one,
        minus_one=minus.scalar,
        add=tuple(tuple(r) for r in add),
        mul=tuple(tuple(r) for r in mul),
    )


def reference_classify_prime(
    ft: FieldTable, report: Optional[ReportGroup] = None
) -> Classification:
    """The classification, with the residue map checked one pair at a time."""
    if report is None:
        report = verify_field(ft)
    if not report.passed:
        bad = [c.name for c in report.checks if c.status == "fail"]
        raise ReconstructionError(f"field laws fail ({', '.join(bad)}); not a field")
    n = ft.order
    z, e = ft.index(ft.zero), ft.index(ft.one)
    sums = [z]
    cur = z
    for _ in range(n):
        cur = ft.add[cur][e]
        sums.append(cur)
    try:
        characteristic = next(k for k in range(1, len(sums)) if sums[k] == z)
    except StopIteration:
        raise ReconstructionError("1 has infinite additive order; not a finite field") from None
    if not is_prime(n):
        return Classification(n, characteristic, False, None)
    if characteristic != n or len(set(sums[:n])) != n:
        raise ReconstructionError(
            f"order {n} is prime but 1 has additive order {characteristic}"
        )
    to_res = {ft.carrier[sums[k]]: k for k in range(n)}
    for i in range(n):
        for j in range(n):
            if to_res[ft.carrier[ft.add[sums[i]][sums[j]]]] != (i + j) % n:
                raise ReconstructionError("residue map does not respect addition")
            if to_res[ft.carrier[ft.mul[sums[i]][sums[j]]]] != (i * j) % n:
                raise ReconstructionError("residue map does not respect multiplication")
    return Classification(n, n, True, to_res)


def reference_verify_iso(
    table: CandidateTable, iso: CandidateIso, max_witnesses: int = 5
) -> ReportGroup:
    """The isomorphism check on the model table, with the forced map
    and the scalar map built one arrow at a time."""
    cap = max_witnesses
    model = reference_model(table)
    if set(iso.object_map) != set(table.objects):
        raise CoordinatizationError("object map must be defined on exactly the objects")
    if sorted(iso.object_map.values()) != sorted(model.objects):
        raise CoordinatizationError("object map must be a bijection onto the model points")
    if iso.base_object not in table.identities:
        raise CoordinatizationError(f"unknown base object {iso.base_object!r}")
    base_scalars = table.scalars[iso.base_object]
    if set(iso.scalar_map) != set(base_scalars):
        raise CoordinatizationError("scalar map must be defined on exactly the base scalars")
    model_ids = model.scalars[model.objects[0]]
    if sorted(iso.scalar_map.values()) != sorted(model_ids):
        raise CoordinatizationError("scalar map must be a bijection onto the model scalars")

    obj_to = [model._obj_i[iso.object_map[o]] for o in table.objects]
    F = reference_forced_arrow_map(table, model, obj_to)

    checks: list[CheckReport] = []
    img_base = model.objects[obj_to[table._obj_i[iso.base_object]]]
    bad = []
    for sid in base_scalars:
        fi = int(F[_endo_index(table, iso.base_object, sid)])
        want = _endo_index(model, img_base, iso.scalar_map[sid])
        if fi != want:
            bad.append(
                f"scalar-map({iso.base_object}#{sid}): structure forces "
                f"{model.arrows[fi]}, map says {model.arrows[want]}"
            )
    checks.append(make_check("scalar-map", len(base_scalars), len(bad), bad[:cap]))

    distinct = int(np.unique(F).size)
    checks.append(
        make_check(
            "arrows-bijective",
            table.n_arrows,
            table.n_arrows - distinct,
            []
            if distinct == table.n_arrows
            else [f"only {distinct} of {table.n_arrows} arrow images are distinct"],
        )
    )

    comp = table._composite(slice(None), slice(None))
    I, J = np.nonzero(comp >= 0)
    lhs = model._composite(F[I], F[J])
    rhs = F[comp[I, J]]
    bad_at = np.nonzero(lhs != rhs)[0]
    wit = []
    for k in bad_at[:cap]:
        i, j = int(I[k]), int(J[k])
        res = table.arrows[int(comp[i, j])]
        kind = "label-compatibility" if isinstance(res, NonEndo) else "functoriality"
        wit.append(
            f"{kind}({table.arrows[i]}; {table.arrows[j]}): composite maps to "
            f"{model.arrows[int(rhs[k])]} but images compose to {model.arrows[int(lhs[k])]}"
        )
    checks.append(make_check("functorial", int(I.size), int(bad_at.size), wit))
    return ReportGroup("iso", checks)


def reference_coordinatize(table: CandidateTable, frame: Optional[Frame] = None) -> CandidateIso:
    """The verified isomorphism, each object's coordinate read one at a time."""
    calc = ObjectCalculus(table)
    if frame is None:
        frame = Frame(*table.objects[:3])
    for o in frame.members():
        if o not in table.identities:
            raise CoordinatizationError(f"frame object {o!r} is not in the table")
    f0, f1, f2 = frame.members()
    model = reference_model(table)
    p = table.n_objects - 1
    try:
        ft = reference_build_field(table, base=f0)
        cl = reference_classify_prime(ft)
    except ReconstructionError as exc:
        raise CoordinatizationError(f"field reconstruction failed: {exc}") from exc
    if not cl.is_prime_field or cl.order != p:
        raise CoordinatizationError(
            f"reconstructed field has order {cl.order}; the model needs prime order {p}"
        )
    res = cl.residue_map
    omap: dict[str, str] = {}
    for x in table.objects:
        if x == f0:
            omap[x] = "0:1"
        elif x == f1:
            omap[x] = "1:0"
        else:
            try:
                sigma = calc.cross_ratio_abs(f1, f0, f2, x)
                moved = calc.canonical_scalar(sigma, f0)
            except ValueError as exc:
                raise CoordinatizationError(str(exc)) from exc
            omap[x] = f"{res[moved.scalar]}:1"
    if sorted(omap.values()) != sorted(model.objects):
        raise CoordinatizationError("coordinates do not exhaust the model points")
    smap = {sid: str(res[sid]) for sid in table.scalars[f0]}
    iso = CandidateIso(base_object=f0, object_map=omap, scalar_map=smap, verified=False)
    report = reference_verify_iso(table, iso)
    if not report.passed:
        bad = [c for c in report.checks if c.status == "fail"]
        first = bad[0].witnesses[0] if bad and bad[0].witnesses else ""
        raise CoordinatizationError(
            f"candidate map fails verification ({', '.join(c.name for c in bad)}): {first}"
        )
    return CandidateIso(
        base_object=f0, object_map=omap, scalar_map=smap, verified=True
    )


# -- the model's calculators on field elements ---------------------------------
#
# The calculators as they were before they moved to raw coordinates: every
# factor is a FieldElement quotient of determinants, every rapport a
# composite of ModelArrows, distinctness a set of hashed points.


def _reference_det(p: Point, q: Point):
    return p.x * q.y - p.y * q.x


def reference_label_to_arrow(a: Point, b: Point, c: Point) -> ModelArrow:
    if len({a, b, c}) != 3:
        raise ValueError(f"label and endpoints must be three distinct points: {a}, {b}, {c}")
    return ModelArrow(a, b, _reference_det(a, c) / _reference_det(b, c))


def reference_arrow_to_label(f: ModelArrow) -> Point:
    """rep(src) - factor*rep(dst), normalized on field elements."""
    x = f.src.x - f.factor * f.dst.x
    y = f.src.y - f.factor * f.dst.y
    field = x.field
    if y != field.zero():
        return Point.affine(field, x / y)
    if x == field.zero():
        raise ValueError("(0:0) does not name a point")
    return Point.infinity(field)


def reference_cross_ratio(a: Point, b: Point, c: Point, d: Point):
    if len({a, b, c}) != 3 or len({a, b, d}) != 3:
        raise ValueError(f"cross ratio needs a,b,c and a,b,d distinct: {a},{b};{c},{d}")
    return compose(reference_label_to_arrow(a, b, c), reference_label_to_arrow(b, a, d)).factor


def reference_tri_rapport(a: Point, b: Point, c: Point, d: Point, e: Point, f: Point):
    if len({a, b, c}) != 3:
        raise ValueError(f"base points must be pairwise distinct: {a},{b},{c}")
    if d in (a, b) or e in (b, c) or f in (c, a):
        raise ValueError(f"labels must avoid their endpoints: ({a},{b},{c};{d},{e},{f})")
    leg1 = reference_label_to_arrow(a, b, d)
    leg2 = reference_label_to_arrow(b, c, e)
    leg3 = reference_label_to_arrow(c, a, f)
    return (leg1.factor * leg2.factor) * leg3.factor


def reference_harmonic_conjugate(a: Point, b: Point, c: Point) -> Point:
    if len({a, b, c}) != 3:
        raise ValueError(f"need three distinct points, got {a}, {b}, {c}")
    if a.field.characteristic == 2:
        raise DegenerateHarmonicError(
            "harmonic conjugation degenerates in characteristic two: "
            f"the conjugate of {c} over ({a}, {b}) is {c} itself",
            degenerate=c,
        )
    g = compose(reference_label_to_arrow(b, c, a), reference_label_to_arrow(c, a, b))
    return reference_arrow_to_label(g)


def reference_find_quadruple(field: PrimeField, mu) -> Optional[tuple]:
    """The search that ``cli._find_quadruple`` replaced: the first
    quadruple of ``points(field)`` in ``permutations`` order with cross
    ratio mu, None if there is none."""
    for quad in itertools.permutations(points(field), 4):
        if reference_cross_ratio(*quad) == mu:
            return quad
    return None


_REFERENCE_EXPR_VALUES = {
    "mu": lambda mu: mu,
    "1/mu": lambda mu: 1 / mu,
    "1-mu": lambda mu: 1 - mu,
    "1/(1-mu)": lambda mu: 1 / (1 - mu),
    "1-1/mu": lambda mu: 1 - 1 / mu,
    "1/(1-1/mu)": lambda mu: 1 / (1 - 1 / mu),
}


def reference_table_records(quad) -> list[dict]:
    """The eighteen row records of one quadruple, each row a reference
    rapport of the quadruple's points and mu its own cross ratio."""
    a, b, c, d = quad
    if len({a, b, c, d}) != 4:
        raise ValueError("table rows need four pairwise-distinct points")
    rows = [(f"cr:{e}", e, False, reference_cross_ratio, (i,)) for e, i in CR_ROWS]
    rows += [(f"tri:{e}", e, False, reference_tri_rapport, (i,)) for e, i in TRI_ROWS]
    for e, i, j in MINUS_ROWS:
        name = f"-{e}" if e in ("mu", "1/mu", "1/(1-mu)", "1/(1-1/mu)") else f"-({e})"
        rows.append((f"tri:{name}", e, True, reference_tri_rapport, (i, j)))
    mu = reference_cross_ratio(a, b, c, d)
    records = []
    for row, expr, negated, rapport, forms in rows:
        value = _REFERENCE_EXPR_VALUES[expr](mu)
        expected = -value if negated else value
        got = [rapport(*(quad[k] for k in idx)) for idx in forms]
        records.append({
            "row": row,
            "frame": f"{a},{b},{c},{d}",
            "expected": str(expected),
            "got": "|".join(map(str, dict.fromkeys(got))),
            "pass": all(v == expected for v in got),
        })
    return records


def empty_slot(monkeypatch) -> None:
    """Empty the slot that keeps the last header's arrow space and memo
    (``candidate._arrow_space``): the tables built next get a new space
    and memo.  Monkeypatch puts the old slot back."""
    space = candidate._arrow_space
    monkeypatch.setattr(candidate, "_arrow_space", functools.lru_cache(maxsize=1)(space.__wrapped__))


def outcome(fn, *args, **kwargs):
    """("ok", value) when the call returns, else (exception type, message)."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def _model_doc(p: int) -> dict:
    return from_model(p).to_doc()


def _f5_field_doc(kind: str) -> dict:
    """F_5 with field reconstruction at 0:1 broken at its first step:
    the cycle of the default helpers (1:1, 2:1) gives no scalar, or the
    products 0:1#2 then 0:1#1 and 0:1#3 then 0:1#1, which the sum 2 + 1
    reads first and second, give none."""
    t = from_model(5)
    if kind == "default-cycle":
        legs = t.compose(NonEndo("0:1", "1:1", "2:1"), NonEndo("1:1", "2:1", "0:1"))
        return rewrite_entry(t.to_doc(), str(legs), "2:1>1:1>0:1", "2:1>3:1>0:1")
    doc = rewrite_entry(t.to_doc(), "0:1#2", "0:1#1", "0:1>1:0>2:1")
    return rewrite_entry(doc, "0:1#3", "0:1#1", "0:1>1:0>3:1")


def _coordinate_doc(kind: str) -> dict:
    """F_7 with one entry rewritten that only the coordinates of the
    default frame (0:1, 1:1, 2:1) read: a round trip (1:1,0:1;2:1,4:1)
    that is no scalar, or a transport of 1:1#3 to 0:1 that does not
    compose."""
    if kind == "round-trip":
        return rewrite_entry(_model_doc(7), "1:1>2:1>0:1", "0:1>4:1>1:1", "1:1>3:1>0:1")
    t = from_model(7)
    finv = t.arrows[t._inv[t._name_i["1:1>2:1>0:1"]]]
    return rewrite_entry(t.to_doc(), str(finv), "1:1#3", "0:1#2")


# Tables that the index-level reconstruction and coordinatization must
# treat exactly as the object-level references do: model tables,
# relabelings, every documented and seeded mutation, the non-groupoid
# reproducers and relabeled groupoids.  Each builds a document.
REFERENCE_CASES = {
    **{f"model-{p}": (lambda p=p: _model_doc(p)) for p in (2, 3, 5, 7, 11, 13)},
    **{f"relabel-f7-{s}": (lambda s=s: relabel(_model_doc(7), s)) for s in (0, 1)},
    **{f"mutation-{m}": (lambda m=m: mutate_doc(_model_doc(5), m)) for m in MUTATIONS},
    **{
        f"{fn.__name__}-f{p}-{s}": (lambda fn=fn, p=p, s=s: fn(_model_doc(p), s))
        for fn, seeds in ((seeded_mutation, range(6)), (cross_homset_mutation, range(3)))
        for p in (5, 7)
        for s in seeds
    },
    **{
        f"non-groupoid-{name}": (lambda e=entry: rewrite_entry(_model_doc(7), *e))
        for name, (entry, _) in NON_GROUPOID.items()
    },
    **{f"swap-f{p}": (lambda p=p: swap_names(_model_doc(p), *SWAPPED_NAMES)) for p in (5, 7)},
    **{f"coordinate-{k}": (lambda k=k: _coordinate_doc(k)) for k in ("round-trip", "transport")},
    **{f"field-{k}": (lambda k=k: _f5_field_doc(k)) for k in ("default-cycle", "two-products")},
}

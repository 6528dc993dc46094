"""Coordinatizing a candidate table: an explicit isomorphism to the model.

A frame is an ordered triple of objects playing the roles of the
points 0, infinity, and 1.  Every other object gets the coordinate cut
out by its round trip against the frame, the reconstructed field names
the scalars, and the resulting object and scalar maps determine a full
arrow map whose functoriality is checked exhaustively.

The target model over F_p is built once per p and the last one is
kept, so repeated calls at the same p share it; it is only read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .candidate import (
    CandidateTable,
    NonEndo,
    _round_trips,
    _toward,
    _transports,
    canonical_scalar,
    cross_ratio_abs,
    from_model,
)
from .reconstruct import ReconstructionError, build_field, classify_prime
from .reports import CheckReport, ReportGroup, make_check, sweep
from .scalars import is_prime


class CoordinatizationError(ValueError):
    """No verified isomorphism onto the model could be produced."""


@dataclass(frozen=True)
class Frame:
    """Objects chosen to play 0, infinity, and 1, in that order."""

    zero: str
    infinity: str
    one: str

    def __post_init__(self):
        if len({self.zero, self.infinity, self.one}) != 3:
            raise CoordinatizationError("frame objects must be pairwise distinct")

    def members(self) -> tuple[str, str, str]:
        return (self.zero, self.infinity, self.one)


@dataclass(frozen=True)
class CandidateIso:
    """An object and scalar renaming onto the model over F_p."""

    base_object: str
    object_map: dict[str, str]
    scalar_map: dict[str, str]
    verified: bool = False

    def to_doc(self) -> dict:
        return {
            "base": self.base_object,
            "objects": dict(self.object_map),
            "scalars": dict(self.scalar_map),
            "verified": self.verified,
        }


def _frame(table: CandidateTable, frame: Optional[Frame]) -> Frame:
    """``frame``, or the first three objects when it is None; a member
    that is not an object of the table raises CoordinatizationError."""
    if frame is None:
        frame = Frame(*table.objects[:3])
    for o in frame.members():
        if o not in table.identities:
            raise CoordinatizationError(f"frame object {o!r} is not in the table")
    return frame


@functools.lru_cache(maxsize=1)
def _model(p: int) -> CandidateTable:
    """The model over F_p, kept for the next call at the same p."""
    return from_model(p)


def _target_model(table: CandidateTable) -> CandidateTable:
    p = table.n_objects - 1
    if not is_prime(p):
        raise CoordinatizationError(
            f"{table.n_objects} objects would need a field of order {p}, which is not prime"
        )
    return _model(p)


class _Forcing:
    """The forced arrow map of one table, as a function of the object bijection.

    Called with ``obj_to``, which maps each table object index to a model
    object index.  Arrows between distinct objects go to the arrow with
    the image label, all in one gather.  Each scalar s at X is forced by
    functoriality through an arrow f out of X: the image of s must be
    (image of s.f) then the inverse image of f.  The least outgoing
    non-endo arrow f_X is used: the first of hom(X, Y), Y the first
    other object.

    Precondition: every composite s.f_X is an arrow between distinct
    objects, as it is on every groupoid table; otherwise the constructor
    raises CoordinatizationError naming the first scalar where it fails.
    Under it the image of each scalar reads only images of arrows
    between distinct objects, never that of another scalar, so forcing
    the scalars one object at a time, in any order, gives the same map
    as the second gather here.

    The table's composable pairs (I, J) and their composites R are kept
    for the callers that check the map on them.
    """

    def __init__(self, table: CandidateTable, model: CandidateTable):
        ne3, n = table._ne3, table.n_objects
        src, dst = table._src_i, table._dst_i
        self.src, self.dst, self.lab = np.nonzero(ne3 >= 0)
        self.non_endo = ne3[self.src, self.dst, self.lab]
        # Every scalar s, f_X for its object X, and the composite s.f_X.
        self.scal = np.flatnonzero(src == dst)
        x = src[self.scal]
        self.f = table._hom[x * n + (x == 0)]
        self.comp_f = table._composite(self.scal, self.f)
        endo = np.flatnonzero(src[self.comp_f] == dst[self.comp_f])
        if endo.size:
            k = endo[0]
            s, f, r = (table.arrows[a[k]] for a in (self.scal, self.f, self.comp_f))
            raise CoordinatizationError(
                f"{s} then {f} gives {r}, not an arrow between distinct objects"
            )
        self.I, self.J = table._pairs()
        self.R = table._composite(self.I, self.J)
        self.n_arrows = table.n_arrows
        self.model = model
        self.m_inv = model._ensure_inverses()

    def __call__(self, obj_to) -> np.ndarray:
        o = np.asarray(obj_to, dtype=np.intp)
        F = np.full(self.n_arrows, -1, dtype=np.int32)
        F[self.non_endo] = self.model._ne3[o[self.src], o[self.dst], o[self.lab]]
        F[self.scal] = self.model._composite(F[self.comp_f], self.m_inv[F[self.f]])
        return F


def verify_iso(
    table: CandidateTable, iso: CandidateIso, max_witnesses: int = 5
) -> ReportGroup:
    """Exhaustively verify a claimed isomorphism onto the model.

    Malformed maps (not bijections onto the model's objects and scalar
    ids, or an unknown base) raise CoordinatizationError; structural
    failures of a well-formed map are reported as check failures.  A
    table without a forced arrow map (see ``_Forcing``) raises too.
    """
    cap = max_witnesses
    model = _target_model(table)
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
    forced = _Forcing(table, model)
    F = forced(obj_to)

    checks: list[CheckReport] = []
    base_i = table._obj_i[iso.base_object]
    img_i = obj_to[base_i]
    lo = table._hom[base_i * (table.n_objects + 1)]
    got = F[lo : lo + len(base_scalars)]
    img_ids = model.scalars[model.objects[img_i]]
    want = model._hom[img_i * (model.n_objects + 1)] + np.array(
        [img_ids.index(iso.scalar_map[sid]) for sid in base_scalars]
    )
    checks.append(sweep(
        "scalar-map", len(base_scalars), got != want,
        lambda k: f"scalar-map({iso.base_object}#{base_scalars[k]}): structure forces "
        f"{model.arrows[got[k]]}, map says {model.arrows[want[k]]}",
        cap,
    ))

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

    I, J, R = forced.I, forced.J, forced.R
    lhs = model._composite(F[I], F[J])
    rhs = F[R]

    def functorial(k: int) -> str:
        kind = "label-compatibility" if isinstance(table.arrows[R[k]], NonEndo) else "functoriality"
        return (
            f"{kind}({table.arrows[I[k]]}; {table.arrows[J[k]]}): composite maps to "
            f"{model.arrows[rhs[k]]} but images compose to {model.arrows[lhs[k]]}"
        )

    checks.append(sweep("functorial", int(I.size), lhs != rhs, functorial, cap))
    return ReportGroup("iso", checks)


def coordinatize(table: CandidateTable, frame: Optional[Frame] = None) -> CandidateIso:
    """Produce a verified isomorphism onto the model over F_p.

    The frame objects go to 0:1, 1:0, and 1:1.  Every other object X
    gets coordinate d:1 where d is the residue of the round trip scalar
    of (infinity, zero; one, X), transported to the base and read
    through the reconstructed field.  The result is verified before it
    is returned; failure raises CoordinatizationError.
    """
    f0, f1, f2 = _frame(table, frame).members()
    model = _target_model(table)
    p = table.n_objects - 1
    try:
        ft = build_field(table, base=f0)
        cl = classify_prime(ft)
    except ReconstructionError as exc:
        raise CoordinatizationError(f"field reconstruction failed: {exc}") from exc
    if not cl.is_prime_field or cl.order != p:
        raise CoordinatizationError(
            f"reconstructed field has order {cl.order}; the model needs prime order {p}"
        )
    res = cl.residue_map
    # Every other object x: the round trip (f1, f0; f2, x) at f1, moved to f0.
    n = table.n_objects
    i0, i1, i2 = (table._obj_i[o] for o in (f0, f1, f2))
    xs = np.array([i for i in range(n) if i not in (i0, i1)])
    moved = _transports(table, _round_trips(table, i1, i0, i2, xs), _toward(table, i1, i0))
    if (moved < 0).any():
        x = table.objects[xs[np.argmax(moved < 0)]]
        try:
            canonical_scalar(table, cross_ratio_abs(table, f1, f0, f2, x), f0)
        except ValueError as exc:
            raise CoordinatizationError(str(exc)) from exc
    ids = table.scalars[f0]
    coords = {f0: "0:1", f1: "1:0"}
    lo = table._hom[i0 * (n + 1)]
    coords.update(
        (table.objects[x], f"{res[ids[r - lo]]}:1") for x, r in zip(xs.tolist(), moved.tolist())
    )
    omap = {x: coords[x] for x in table.objects}
    if sorted(omap.values()) != sorted(model.objects):
        raise CoordinatizationError("coordinates do not exhaust the model points")
    smap = {sid: str(res[sid]) for sid in table.scalars[f0]}
    iso = CandidateIso(base_object=f0, object_map=omap, scalar_map=smap, verified=False)
    report = verify_iso(table, iso)
    if not report.passed:
        bad = [c for c in report.checks if c.status == "fail"]
        first = bad[0].witnesses[0] if bad and bad[0].witnesses else ""
        raise CoordinatizationError(
            f"candidate map fails verification ({', '.join(c.name for c in bad)}): {first}"
        )
    return CandidateIso(
        base_object=f0, object_map=omap, scalar_map=smap, verified=True
    )


def verify_uniqueness(
    table: CandidateTable, frame: Optional[Frame] = None, max_witnesses: int = 5
) -> tuple[CheckReport, Optional[dict[str, str]]]:
    """Check that exactly one structure map extends the frame assignment.

    Every object bijection sending the frame to (0:1, 1:0, 1:1) is
    covered; its induced arrow map is accepted when fully functorial.
    Returns the check plus the unique passing object map, if unique.
    The forced map requires every scalar s at X, composed with f_X, the
    least arrow out of X to another object, to give an arrow between
    distinct objects; a table where one does not raises
    CoordinatizationError.

    The search is depth first over the non-frame objects ``others``,
    assigning ``others[k]`` at depth k+1 and trying the targets in
    order, so its leaves are the bijections in the order of
    ``itertools.permutations(targets)``.  Frame objects have depth 0.
    An arrow between distinct objects has the largest depth of its
    source, target and label.  A scalar s at X has the largest depth
    of X, f_X and r = s.f_X, since its image is read from those of
    f_X and r only.  A composable pair has the largest depth of its
    two arrows and its composite, and its images depend on the
    objects of at most that depth only.  At a node of
    depth k the unassigned objects take the unused targets in order,
    and the pairs of depth exactly k are checked on the forced map.
    A failing pair refutes every bijection below the node, because
    each gives that pair the same images; those (remaining)! bijections
    are added to ``checked`` and the subtree is skipped.  A leaf passes
    only when the pairs of every depth passed on its path, which is
    every pair.  So ``checked`` counts the bijections covered, always
    (p-2)!, each refuted by a pair it shares with its subtree or fully
    checked, and the passing maps and witnesses are those of trying
    every bijection in turn.
    """
    f0, f1, f2 = _frame(table, frame).members()
    model = _target_model(table)
    fixed = {f0: "0:1", f1: "1:0", f2: "1:1"}
    others = [o for o in table.objects if o not in fixed]
    targets = [m for m in model.objects if m not in ("0:1", "1:0", "1:1")]
    leaf = len(others)
    forced = _Forcing(table, model)

    # Depths are at most the leaf depth, p - 2, so they are small unsigned
    # ints, and a stable sort of those is a radix sort.
    dtype = np.min_scalar_type(leaf)
    obj_depth = np.zeros(table.n_objects, dtype=dtype)
    for k, o in enumerate(others):
        obj_depth[table._obj_i[o]] = k + 1
    depth = np.empty(table.n_arrows, dtype=dtype)
    depth[forced.non_endo] = np.maximum(
        np.maximum(obj_depth[forced.src], obj_depth[forced.dst]), obj_depth[forced.lab]
    )
    # f_X leaves X, so its depth is at least that of X.
    depth[forced.scal] = np.maximum(depth[forced.comp_f], depth[forced.f])
    I, J, R = forced.I, forced.J, forced.R
    pair_depth = np.maximum(np.maximum(depth[I], depth[J]), depth[R])
    order = np.argsort(pair_depth, kind="stable")
    cuts = np.searchsorted(pair_depth[order], np.arange(1, leaf + 1))
    buckets = [(I[sel], J[sel], R[sel]) for sel in np.split(order, cuts)]

    passing: list[dict[str, str]] = []
    checked = 0
    stack: list[list[str]] = [[]]
    while stack:
        prefix = stack.pop()
        k = len(prefix)
        omap = dict(fixed)
        omap.update(zip(others, prefix + [t for t in targets if t not in prefix]))
        F = forced([model._obj_i[omap[o]] for o in table.objects])
        bI, bJ, bR = buckets[k]
        if not np.array_equal(model._composite(F[bI], F[bJ]), F[bR]):
            checked += math.factorial(leaf - k)
        elif k == leaf:
            checked += 1
            passing.append(omap)
        else:
            stack.extend(prefix + [t] for t in reversed(targets) if t not in prefix)
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

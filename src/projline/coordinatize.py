"""Coordinatizing a candidate table: an explicit isomorphism to the model.

A frame is an ordered triple of objects playing the roles of the
points 0, infinity, and 1.  Every other object gets the coordinate cut
out by its round trip against the frame, the reconstructed field names
the scalars, and the resulting object and scalar maps determine a full
arrow map whose functoriality is checked exhaustively.

The target model over F_p is its arithmetic, ``ModelLine``, not a
table; the last one is kept for the next call at the same p.  The
table's part of the forced arrow map (``_Forcing``) is kept by the
table until its composites are written again, so ``verify_iso``,
``coordinatize`` and ``verify_uniqueness`` share one build from every
frame.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .candidate import (
    CandidateTable,
    Endo,
    ModelLine,
    NonEndo,
    _round_trips,
    _toward,
    _transports,
    canonical_scalar,
    cross_ratio_abs,
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
def _line(p: int) -> ModelLine:
    """The model for a table of p + 1 objects, kept for the next call at the same p."""
    if not is_prime(p):
        raise CoordinatizationError(
            f"{p + 1} objects would need a field of order {p}, which is not prime"
        )
    return ModelLine(p)


class _Forcing:
    """The forced arrow map of one table, as a function of the object bijection.

    Called with ``obj_to``, which maps each table object index to an
    object index of the model ``line``, it gives the factor of each
    arrow's image, whose endpoints are the arrow's under ``obj_to``.
    Arrows between distinct objects go to the arrow with the image
    label, all in one gather.  Each scalar s at X is forced by
    functoriality through an arrow f out of X: the image of s must be
    (image of s.f) then the inverse image of f.  The f used is f_X, the
    transport arrow (``_toward``) from X to Y, the first other object.

    Precondition: every composite s.f_X is an arrow X -> Y, as it is on
    every groupoid table; otherwise the constructor raises
    CoordinatizationError naming the first scalar where it fails.
    Under it the image of each scalar reads only images of arrows
    between distinct objects, never that of another scalar, so forcing
    the scalars one object at a time, in any order, gives the same map
    as the second gather here.

    The table's composable pairs (I, J) and their composites R are kept
    for the callers that check the map on them.  A pair holds when the
    image factors of I and J multiply to that of R and R lies in
    hom(src I, dst J), ``ends``, whatever the bijection.

    Nothing here depends on a frame or a model, so a table keeps one
    (``_forced``) for all of its callers, with its arrays read-only.
    """

    def __init__(self, table: CandidateTable):
        ne3 = table._ne3
        src, dst = table._src_i, table._dst_i
        self.src, self.dst, self.lab = np.nonzero(ne3 >= 0)
        self.non_endo = ne3[self.src, self.dst, self.lab]
        # Every scalar s, f_X for its object X, and the composite s.f_X.
        self.scal = np.flatnonzero(src == dst)
        x = src[self.scal]
        # intp: F[self.f] runs at every search node, and int32 gathers are slower.
        self.f = _toward(table, x, (x == 0).astype(np.intp)).astype(np.intp)
        self.comp_f = table._composite(self.scal, self.f)
        off = np.flatnonzero((src[self.comp_f] != x) | (dst[self.comp_f] != dst[self.f]))
        if off.size:
            k = off[0]
            s, f, r = (table.arrows[a[k]] for a in (self.scal, self.f, self.comp_f))
            want = "between distinct objects" if isinstance(r, Endo) else f"from {f.src} to {f.dst}"
            raise CoordinatizationError(f"{s} then {f} gives {r}, not an arrow {want}")
        self.I, self.J = table._pairs()
        self.R = table._composite(self.I, self.J)
        self.ends = table._ends(self.I, self.J, self.R)
        self.n_arrows = table.n_arrows
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    def __call__(self, obj_to, line: ModelLine) -> np.ndarray:
        o = np.asarray(obj_to, dtype=np.intp)
        F = np.empty(self.n_arrows, dtype=np.intp)
        F[self.non_endo] = line.factor[o[self.src], o[self.dst], o[self.lab]]
        F[self.scal] = line.div[F[self.comp_f], F[self.f]]
        return F


def _forced(table: CandidateTable) -> _Forcing:
    """The table's ``_Forcing``, built on first use after ``_store``."""
    if table._forcing is None:
        table._forcing = _Forcing(table)
    return table._forcing


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
    line = _line(table.n_objects - 1)
    for kind, names in (("object", iso.object_map), ("scalar", iso.scalar_map)):
        if not isinstance(names, dict) or not all(isinstance(v, str) for v in names.values()):
            raise CoordinatizationError(f"{kind} map must be a mapping to strings")
    if set(iso.object_map) != set(table.objects):
        raise CoordinatizationError("object map must be defined on exactly the objects")
    if sorted(iso.object_map.values()) != sorted(line.points):
        raise CoordinatizationError("object map must be a bijection onto the model points")
    if not isinstance(iso.base_object, str) or iso.base_object not in table.identities:
        raise CoordinatizationError(f"unknown base object {iso.base_object!r}")
    base_scalars = table.scalars[iso.base_object]
    if set(iso.scalar_map) != set(base_scalars):
        raise CoordinatizationError("scalar map must be defined on exactly the base scalars")
    if sorted(iso.scalar_map.values()) != sorted(line.scalar_ids):
        raise CoordinatizationError("scalar map must be a bijection onto the model scalars")

    o = np.array([line.index[iso.object_map[x]] for x in table.objects])
    forced = _forced(table)
    F = forced(o, line)

    checks: list[CheckReport] = []
    base_i = table._obj_i[iso.base_object]
    img = o[base_i]
    got = F[table._homset(base_i, base_i)]
    want = np.array([line.scalar_ids.index(iso.scalar_map[sid]) + 1 for sid in base_scalars])
    checks.append(sweep(
        "scalar-map", len(base_scalars), got != want,
        lambda k: f"scalar-map({iso.base_object}#{base_scalars[k]}): structure forces "
        f"{line.name(img, img, got[k])}, map says {line.name(img, img, want[k])}",
        cap,
    ))

    # An image is its endpoints and its factor, and o is a bijection.
    src, dst = table._src_i, table._dst_i
    distinct = int(np.unique((src * table.n_objects + dst) * line.p + F).size)
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
    lhs = line.mul[F[I], F[J]]
    rhs = F.take(R)

    def functorial(k: int) -> str:
        kind = "label-compatibility" if isinstance(table.arrows[R[k]], NonEndo) else "functoriality"
        return (
            f"{kind}({table.arrows[I[k]]}; {table.arrows[J[k]]}): composite maps to "
            f"{line.name(o[src[R[k]]], o[dst[R[k]]], rhs[k])} but images compose to "
            f"{line.name(o[src[I[k]]], o[dst[J[k]]], lhs[k])}"
        )

    checks.append(sweep("functorial", int(I.size), ~forced.ends | (lhs != rhs), functorial, cap))
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
    p = table.n_objects - 1
    line = _line(p)
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
    coords = {f0: "0:1", f1: "1:0"}
    coords.update(
        (table.objects[x], f"{res[table.arrows[r].scalar]}:1")
        for x, r in zip(xs.tolist(), moved.tolist())
    )
    omap = {x: coords[x] for x in table.objects}
    if sorted(omap.values()) != sorted(line.points):
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
    transport arrow from X to the first other object Y, to give an arrow
    X -> Y; a table where one does not raises CoordinatizationError.

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
    line = _line(table.n_objects - 1)
    fixed = {f0: "0:1", f1: "1:0", f2: "1:1"}
    others = [o for o in table.objects if o not in fixed]
    targets = [i for i, m in enumerate(line.points) if m not in ("0:1", "1:0", "1:1")]
    leaf = len(others)
    forced = _forced(table)

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
    pair_depth = np.maximum(np.maximum(depth[I], depth[J]), depth.take(R))
    order = np.argsort(pair_depth, kind="stable")
    cuts = np.searchsorted(pair_depth[order], np.arange(1, leaf + 1))
    buckets = [(I[sel], J[sel], R[sel], forced.ends[sel].all()) for sel in np.split(order, cuts)]

    # The bijection of each node, written in place: the frame's images
    # once, then those of ``others`` (at ``at``) as model point indices.
    o = np.empty(table.n_objects, dtype=np.intp)
    for x, m in fixed.items():
        o[table._obj_i[x]] = line.index[m]
    at = [table._obj_i[x] for x in others]
    passing: list[dict[str, str]] = []
    checked = 0
    stack: list[list[int]] = [[]]
    while stack:
        prefix = stack.pop()
        k = len(prefix)
        o[at] = prefix + [t for t in targets if t not in prefix]
        F = forced(o, line)
        bI, bJ, bR, ends = buckets[k]
        if not (ends and np.array_equal(line.mul[F[bI], F[bJ]], F.take(bR))):
            checked += math.factorial(leaf - k)
        elif k == leaf:
            checked += 1
            passing.append({**fixed, **{x: line.points[t] for x, t in zip(others, prefix)}})
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

"""Finite labeled composition tables and their consistency checkers.

A candidate table is a transitive groupoid presented concretely: a
finite object list, per-object scalar names for the endo arrows, and a
complete composition table.  Arrows between two distinct objects are
named by the remaining objects (the label bijection is built into the
arrow space itself), so a table is exactly the data of the composition
map plus the identity designations.

Everything here is exact and deterministic.  Checks report counts and
capped witness samples; every sweep is exhaustive and runs in one process.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import formats
from .model import _cr_legs, _rapport_terms, _tri_legs, points
from .reports import CheckReport, ReportGroup, make_check, sweep
from .scalars import PrimeField


class CandidateFormatError(ValueError):
    """The input does not describe a well-formed candidate table."""


@dataclass(frozen=True)
class NonEndo:
    """An arrow between distinct objects, named by a third object."""

    src: str
    dst: str
    label: str

    def __str__(self) -> str:
        return f"{self.src}>{self.label}>{self.dst}"


@dataclass(frozen=True)
class Endo:
    """A scalar: an arrow from an object to itself, named per object."""

    obj: str
    scalar: str

    def __str__(self) -> str:
        return f"{self.obj}#{self.scalar}"


AbstractArrow = Union[NonEndo, Endo]

_BAD_NAME = re.compile(r"[>#,\s]")


def _check_name(kind: str, name: str) -> None:
    if not isinstance(name, str) or not name or _BAD_NAME.search(name):
        raise CandidateFormatError(
            f"{kind} name {name!r} is invalid (nonempty, no '>', '#', ',' or whitespace)"
        )
    # JSON can spell a lone surrogate, which no UTF-8 output can encode.
    if not name.isascii() and re.search("[\ud800-\udfff]", name):
        raise CandidateFormatError(f"{kind} name {name!r} holds a surrogate code point")


def format_arrow(arrow: AbstractArrow) -> str:
    return str(arrow)


def parse_arrow(text: str) -> AbstractArrow:
    if not isinstance(text, str):
        raise CandidateFormatError(f"arrow must be a string, got {text!r}")
    if "#" in text:
        parts = text.split("#")
        if len(parts) != 2 or ">" in text:
            raise CandidateFormatError(f"bad endo arrow syntax {text!r}, want obj#scalar")
        return Endo(parts[0], parts[1])
    parts = text.split(">")
    if len(parts) != 3:
        raise CandidateFormatError(f"bad arrow syntax {text!r}, want src>label>dst")
    return NonEndo(src=parts[0], dst=parts[2], label=parts[1])


def _hashable(x) -> bool:
    """Whether ``x`` can be hashed: a tuple holding a list is a Hashable that cannot."""
    try:
        hash(x)
    except TypeError:
        return False
    return True


def _check_names(kind: str, names: Sequence, repeated: str) -> None:
    # A name that cannot be hashed cannot go into a set; the name check
    # reports it instead of the uniqueness check.
    if all(map(_hashable, names)) and len(set(names)) != len(names):
        raise CandidateFormatError(repeated)
    for x in names:
        _check_name(kind, x)


def _check_space(
    objects: Sequence[str],
    scalars: dict[str, Sequence[str]],
    identities: dict[str, str],
) -> tuple[tuple[str, ...], dict[str, tuple[str, ...]], dict[str, str]]:
    """The validated objects, scalar ids per object and identities."""
    objects = list(objects)
    if len(objects) < 3:
        raise CandidateFormatError("at least three objects are required")
    _check_names("object", objects, "object names must be unique")
    if set(scalars) != set(objects):
        raise CandidateFormatError("scalars must be declared for exactly the objects")
    norm_scalars: dict[str, tuple[str, ...]] = {}
    for o in objects:
        ids = scalars[o]
        if not isinstance(ids, (list, tuple)):
            raise CandidateFormatError(f"scalar ids at {o!r} must be a list, got {ids!r}")
        repeated = f"scalar ids at {o!r} must be nonempty and unique"
        if not ids:
            raise CandidateFormatError(repeated)
        _check_names("scalar", ids, repeated)
        norm_scalars[o] = tuple(ids)
    if set(identities) != set(objects):
        raise CandidateFormatError("an identity must be declared for exactly the objects")
    for o in objects:
        if identities[o] not in norm_scalars[o]:
            raise CandidateFormatError(
                f"identity {identities[o]!r} at {o!r} is not a declared scalar"
            )
    return tuple(objects), norm_scalars, dict(identities)


def _ranges(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each k paired with each index start[k] .. start[k] + count[k] - 1, in order."""
    k = np.repeat(np.arange(start.size), count)
    # Position within the whole, less the ranges before, plus the start.
    return k, np.arange(k.size) - np.repeat(np.cumsum(count) - count - start, count)


class CandidateTable:
    """A complete composition table over a finite labeled arrow space."""

    def __init__(
        self, objects: Sequence[str], scalars: dict[str, Sequence[str]], identities: dict[str, str],
        entries: Iterable[tuple[AbstractArrow, AbstractArrow, AbstractArrow]],
    ):
        # The entries are read as a parsed document's compose list is.
        names = [list(map(str, e)) for e in entries]
        space = _check_space(objects, scalars, identities)
        self._init_space(*formats._check_count(space, len(names)))
        self._store(*formats._arrays(self, names))

    # -- construction helpers -------------------------------------------------

    def _init_space(
        self, objects: tuple[str, ...], scalars: dict[str, tuple[str, ...]],
        identities: dict[str, str],
    ) -> None:
        """Build the arrow space of a space that passed _check_space."""
        self.objects: tuple[str, ...] = objects
        self.scalars: dict[str, tuple[str, ...]] = scalars
        self.identities: dict[str, str] = identities
        self._obj_i: dict[str, int] = {o: i for i, o in enumerate(self.objects)}
        arrows: list[AbstractArrow] = []
        n = len(self.objects)
        # Index of the arrow src -> dst named by label, -1 unless the
        # three objects are pairwise distinct.
        self._ne3 = np.full((n, n, n), -1, dtype=np.int32)
        hom = [0]
        for si, s in enumerate(self.objects):
            for di, d in enumerate(self.objects):
                if si == di:
                    arrows.extend(Endo(s, sid) for sid in self.scalars[s])
                else:
                    for li, lab in enumerate(self.objects):
                        if li in (si, di):
                            continue
                        self._ne3[si, di, li] = len(arrows)
                        arrows.append(NonEndo(s, d, lab))
                hom.append(len(arrows))
        # Arrows are numbered source-major, then by target: hom(a, b) is
        # the index range _hom[a*n + b] .. _hom[a*n + b + 1] (_homset).
        self._hom = np.array(hom, dtype=np.intp)
        self.arrows: tuple[AbstractArrow, ...] = tuple(arrows)
        self._names: list[str] = [str(a) for a in arrows]
        self._name_i: dict[str, int] = {s: i for i, s in enumerate(self._names)}
        self._hom_i = np.repeat(np.arange(n * n, dtype=np.int32), np.diff(self._hom))
        self._src_i = self._hom_i // n
        self._dst_i = self._hom_i % n
        self._id_idx = np.array(
            [hom[oi * (n + 1)] + self.scalars[o].index(self.identities[o])
             for oi, o in enumerate(self.objects)],
            dtype=np.int32,
        )

    def _composite(self, I, J) -> np.ndarray:
        """The composite of I then J, -1 where either is -1 or they do not compose.

        I and J are broadcasting index arrays, indices or slices.  This
        and _store are the only methods that know the store's layout: a
        dense int32 matrix, n_arrows + 1 square, its last row and column -1.
        """
        return self._comp[I, J]

    def _store(self, I, J, R) -> None:
        """Store R as the composite of each composable pair (I, J), find the
        inverses and drop the forced map kept from earlier composites."""
        comp = np.full((self.n_arrows + 1, self.n_arrows + 1), -1, dtype=np.int32)
        comp[I, J] = R
        self._comp = comp
        # The table's coordinatize._Forcing, built on its first use.
        self._forcing = None
        # The inverse of an arrow a -> b lies in hom(b, a): keep the least
        # arrow there whose composites both ways are the units, -1 if none.
        n, src, dst = self.n_objects, self._src_i, self._dst_i
        start = self._hom[dst * n + src]
        f, g = _ranges(start, self._hom[dst * n + src + 1] - start)
        ok = (comp[f, g] == self._id_idx[src[f]]) & (comp[g, f] == self._id_idx[dst[f]])
        i, first = np.unique(f[ok], return_index=True)
        self._inv = np.full(self.n_arrows, -1, dtype=np.int32)
        self._inv[i] = g[ok][first]

    @classmethod
    def _bare(cls, *space) -> "CandidateTable":
        """The arrow space of a space that passed _check_space, with no composites."""
        t = object.__new__(cls)
        t._init_space(*space)
        return t

    # -- basic accessors -------------------------------------------------------

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)

    def arrow_index(self, arrow: AbstractArrow) -> int:
        """The index of the arrow named ``str(arrow)``, if that arrow is ``arrow``."""
        i = self._name_i.get(str(arrow))
        if i is None or self.arrows[i] != arrow:
            raise CandidateFormatError(f"unknown arrow {arrow}")
        return i

    def identity_arrow(self, obj: str) -> Endo:
        return Endo(obj, self.identities[obj])

    def _homset(self, a: int, b: int) -> slice:
        """hom(a, b) by object index, as an arrow index range; hom(a, a)
        is the scalars at a in declared order."""
        k = a * self.n_objects + b
        return slice(int(self._hom[k]), int(self._hom[k + 1]))

    def hom(self, a: str, b: str) -> tuple[AbstractArrow, ...]:
        return self.arrows[self._homset(self._obj_i[a], self._obj_i[b])]

    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every composable pair (I, J), in row-major order.

        The arrows composable after arrow i are those out of its target,
        one index range, so no n_arrows x n_arrows scan is needed.
        """
        n = self.n_objects
        start = self._hom[self._dst_i * n]
        return _ranges(start, self._hom[self._dst_i * n + n] - start)

    def _ends(self, I: np.ndarray, J: np.ndarray, R: np.ndarray) -> np.ndarray:
        """Where the composite R of each pair (I, J) lies in hom(src I, dst J)."""
        return self._hom_i.take(R) == self._src_i.take(I) * self.n_objects + self._dst_i.take(J)

    def compose(self, f: AbstractArrow, g: AbstractArrow) -> AbstractArrow:
        """Left-to-right composite: ``f`` then ``g``."""
        return self.arrows[_compose_i(self, self.arrow_index(f), self.arrow_index(g))]

    def inverse_arrow(self, f: AbstractArrow) -> AbstractArrow:
        i = self.arrow_index(f)
        if self._inv[i] < 0:
            raise ValueError(f"{self.arrows[i]} has no two-sided inverse in this table")
        return self.arrows[self._inv[i]]

    # -- format 1, read and written by formats -----------------------------------

    FORMAT = formats.FORMAT
    to_doc = formats.to_doc
    to_json_bytes = formats.to_json_bytes

    @classmethod
    def from_doc(cls, doc: Union[dict, bytes, Callable[[], bytes]]) -> "CandidateTable":
        """The table of a format-1 document: see ``formats.from_doc``."""
        return formats.from_doc(doc)

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            self.to_json_bytes(fh)

    @classmethod
    def load(cls, path: str) -> "CandidateTable":
        with open(path, "rb") as fh:
            return cls.from_doc(fh.read)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CandidateTable):
            return NotImplemented
        I, J = self._pairs()
        return (
            self.objects == other.objects
            and self.scalars == other.scalars
            and self.identities == other.identities
            and np.array_equal(self._composite(I, J), other._composite(I, J))
        )

    def __repr__(self) -> str:
        return f"CandidateTable({self.n_objects} objects, {self.n_arrows} arrows)"


class ModelLine:
    """The projective line over F_p as arithmetic, with no table.

    ``points`` are named in ``points(GF(p))`` order: i:1 for i < p, then
    1:0.  ``factor[a, b, c]``, for distinct a, b and c, is the factor of
    the arrow a -> b named c, ``model.label_to_arrow``'s formula mod p;
    scalar ``scalar_ids[v - 1]`` has factor v.  Factors multiply by
    ``mul`` and divide by ``div``, mod p.
    """

    def __init__(self, p: int):
        self.p, n, v = p, p + 1, np.arange(p)
        self.points = tuple(str(q) for q in points(PrimeField(p)))
        self.index = {q: i for i, q in enumerate(self.points)}
        self.scalar_ids = tuple(str(u) for u in range(1, p))
        x, y = np.append(v, 1), np.append(np.ones(p, dtype=np.intp), 0)
        inverse = np.array([0] + [pow(u, -1, p) for u in range(1, p)])
        a, b, c = np.indices((n, n, n))
        num, den = _rapport_terms([((x[a], y[a]), (x[b], y[b]), (x[c], y[c]))])
        self.factor = num % p * inverse[den % p] % p
        self.mul = np.outer(v, v) % p
        self.div = self.mul[:, inverse]

    def name(self, x: int, y: int, v: int) -> str:
        """The name of the arrow x -> y with factor v."""
        pts = self.points
        if x == y:
            return str(Endo(pts[x], self.scalar_ids[v - 1]))
        return str(NonEndo(pts[x], pts[y], pts[int(np.argmax(self.factor[x, y] == v))]))


def from_model(p: int) -> CandidateTable:
    """The candidate table of the projective line over F_p.

    Objects are the p+1 points in canonical order, scalars at every
    object are the nonzero residues, and composition follows
    ``ModelLine`` (factors multiply).  A ``ValueError`` refuses, before
    anything is allocated, a table whose store and factors alone would
    not fit in physical memory.
    """
    store, factors = 4 * ((p + 1) ** 2 * (p - 1)) ** 2, 8 * (p + 1) ** 3
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if store + factors > memory:
        raise ValueError(
            f"the table over F_{p} needs {store} bytes for its store and {factors} for "
            f"the line's factors, more than the {memory} bytes of physical memory"
        )
    line = ModelLine(p)
    t = CandidateTable._bare(
        line.points, dict.fromkeys(line.points, line.scalar_ids), dict.fromkeys(line.points, "1")
    )
    n, src, dst = t.n_objects, t._src_i, t._dst_i
    # Factor of each arrow: its scalar id 1 .. p-1 at an endo, the
    # model's factor between distinct points.
    fac = np.zeros(t.n_arrows, dtype=np.intp)
    fac[src == dst] = np.tile(np.arange(1, p), n)
    ne = t._ne3 >= 0
    fac[t._ne3[ne]] = line.factor[ne]
    # by_factor[x, y, v] is the arrow x -> y with factor v.
    by_factor = np.full((n, n, p), -1, dtype=np.int32)
    by_factor[src, dst, fac] = np.arange(t.n_arrows)
    I, J = t._pairs()
    t._store(I, J, by_factor[src[I], dst[J], line.mul[fac[I], fac[J]]])
    return t


# -- rapport calculus on abstract tables --------------------------------------
#
# The public functions take and return arrow objects and raise with their
# names; under them, composition is index arithmetic on ``_composite``.  The
# array versions below answer for many object tuples at once with -1
# where the public function would raise, so callers name arrows only when
# a message needs them.


def _compose_i(table: CandidateTable, i: int, j: int) -> int:
    r = int(table._composite(i, j))
    if r < 0:
        raise ValueError(f"cannot compose {table.arrows[i]} then {table.arrows[j]}")
    return r


def _scalar_i(table: CandidateTable, r: int, at: str, route: str) -> int:
    """``r``, which a groupoid table makes a scalar at ``at``; ValueError if it is not."""
    if _at(table, r, table._obj_i[at]) < 0:
        raise ValueError(f"{route} gives {table.arrows[r]}, not a scalar at {at}")
    return r


def _at(table: CandidateTable, r: np.ndarray, obj) -> np.ndarray:
    """The arrows ``r`` where they are scalars at the objects ``obj``, else -1."""
    return np.where((r >= 0) & (table._src_i[r] == obj) & (table._dst_i[r] == obj), r, -1)


def _legs(table: CandidateTable, legs) -> np.ndarray:
    """The composite of the arrows a -> b named by c, one per leg (a, b, c)
    of object index arrays in order, as ``model._cr_legs`` and
    ``model._tri_legs`` list them: -1 where a leg names no arrow or a
    pair does not compose."""
    (a, b, c), *rest = legs
    r = table._ne3[a, b, c]
    for a, b, c in rest:
        r = table._composite(r, table._ne3[a, b, c])
    return r


def _round_trips(table: CandidateTable, a, b, c, d) -> np.ndarray:
    """``cross_ratio_abs`` over object index arrays: -1 where it raises."""
    return _at(table, _legs(table, _cr_legs(a, b, c, d)), a)


def _cycles(table: CandidateTable, a, b, c, d, e, f) -> np.ndarray:
    """``tri_rapport_abs`` over object index arrays: -1 where it raises."""
    return _at(table, _legs(table, _tri_legs(a, b, c, d, e, f)), a)


def _toward(table: CandidateTable, x, y) -> np.ndarray:
    """The arrow x -> y named by the least object other than x and y, over
    object index arrays: the arrow that carries a scalar at x to y."""
    lab = np.where((x != 0) & (y != 0), 0, np.where((x != 1) & (y != 1), 1, 2))
    return table._ne3[x, y, lab]


def _transports(table: CandidateTable, sigma: np.ndarray, f) -> np.ndarray:
    """``conjugate`` of the scalars ``sigma`` along the arrows ``f`` out
    of their objects, by index: -1 where it raises or sigma is -1."""
    comp = table._composite
    return _at(table, comp(comp(table._inv[f], sigma), f), table._dst_i[f])


def cross_ratio_abs(table: CandidateTable, a: str, b: str, c: str, d: str) -> Endo:
    """The scalar at ``a`` of the round trip a -> b via c, b -> a via d."""
    if len({a, b, c}) != 3 or len({a, b, d}) != 3:
        raise ValueError(f"cross ratio needs a,b,c and a,b,d distinct: {a},{b};{c},{d}")
    r = _compose_i(table, *(table.arrow_index(NonEndo(*leg)) for leg in _cr_legs(a, b, c, d)))
    return table.arrows[_scalar_i(table, r, a, f"round trip ({a},{b};{c},{d})")]


def tri_rapport_abs(
    table: CandidateTable, a: str, b: str, c: str, d: str, e: str, f: str
) -> Endo:
    """The scalar at ``a`` of the cycle a -> b via d, b -> c via e, c -> a via f."""
    if len({a, b, c}) != 3:
        raise ValueError(f"base objects must be pairwise distinct: {a},{b},{c}")
    if d in (a, b) or e in (b, c) or f in (c, a):
        raise ValueError(f"labels must avoid their endpoints: ({a},{b},{c};{d},{e},{f})")
    x, y, z = (table.arrow_index(NonEndo(*leg)) for leg in _tri_legs(a, b, c, d, e, f))
    r = _compose_i(table, _compose_i(table, x, y), z)
    return table.arrows[_scalar_i(table, r, a, f"cycle ({a},{b},{c};{d},{e},{f})")]


def conjugate(table: CandidateTable, sigma: Endo, f: NonEndo) -> Endo:
    """Transport a scalar along an arrow: the composite f^-1, sigma, f."""
    if sigma.obj != f.src:
        raise ValueError(f"{sigma} does not live at the source of {f}")
    fi = table.arrow_index(f)
    x = _compose_i(table, table.arrow_index(table.inverse_arrow(f)), table.arrow_index(sigma))
    r = _compose_i(table, x, fi)
    return table.arrows[_scalar_i(table, r, f.dst, f"transport of {sigma} along {f}")]


def canonical_scalar(table: CandidateTable, sigma: Endo, base: str) -> Endo:
    """Transport a scalar to the base object along the least-labeled arrow.

    With commutative vertex groups the transported value is independent
    of the chosen path, so this is a canonical form for cross-object
    scalar comparison.
    """
    table.arrow_index(sigma)
    if base not in table._obj_i:
        raise CandidateFormatError(f"unknown base object {base!r}")
    if sigma.obj == base:
        return sigma
    f = table.arrows[_toward(table, table._obj_i[sigma.obj], table._obj_i[base])]
    return conjugate(table, sigma, f)


# -- structure validation ------------------------------------------------------


def _regroupings(
    table: CandidateTable, rows: np.ndarray, start: int, g: slice, far: int
) -> np.ndarray:
    """Where (f.g).h and f.(g.h) differ, as an (f, g, h) mask over the g
    in ``g`` from the f's object to ``far`` and every h out of ``far``.

    ``rows[i, j]`` is the composite of the i-th f with arrow start + j;
    its columns must cover ``g`` and every composite g.h.  Arrows are
    numbered source-major and then by target, so g and h are index ranges.
    """
    hom, n = table._hom, table.n_objects
    h = slice(hom[far * n], hom[far * n + n])
    # Slices: an element-wise gather takes about four times as long.
    left = table._composite(slice(None), h)[rows[:, g.start - start : g.stop - start]]
    right = rows[:, table._composite(g, h) - start]
    return left != right


def _generated_associativity(table: CandidateTable) -> Optional[int]:
    """Light's associativity test on a table that passed ``endpoints``:
    the number of instances examined when the table is shown associative
    from generators, None when it is not shown so.

    Call g associative when (x.g).y = x.(g.y) for every x into its source
    and y out of its target (Light's test; Clifford and Preston, The
    Algebraic Theory of Semigroups I, 1961, section 1.2).  Associative
    elements are closed under composition: for associative a, b and any
    such x, y, using a, b, a and b in turn,
    (x.(a.b)).y = ((x.a).b).y = (x.a).(b.y) = x.(a.(b.y)) = x.((a.b).y).
    Each step composes a pair that the table composes, because the table
    composes every pair whose endpoints meet, and ``endpoints`` makes
    every composite keep the outer endpoints of its factors.  So when a
    set G of arrows generates the table and every g in G is associative,
    every arrow is, which is associativity on every composable triple.

    G is the scalars at object 0 and, for each other X, the transport
    arrows 0 -> X and X -> 0 (``_toward``).  It generates when the
    products (g_a.s).f_b reach every arrow, for s a scalar at 0, g_a the
    transport arrow a -> 0 and f_b the transport arrow 0 -> b, the unit
    at 0 (one of the scalars) standing in for both at object 0.
    """
    comp, hom, n = table._composite, table._hom, table.n_objects
    scalars, others = table._homset(0, 0), np.arange(1, n)
    into = np.append(table._id_idx[0], _toward(table, others, 0))
    out = np.append(table._id_idx[0], _toward(table, 0, others))
    reached = np.zeros(table.n_arrows, dtype=bool)
    reached[comp(comp(into, scalars)[:, :, None], out)] = True
    if not reached.all():
        return None
    checked = 0
    for mid in range(n):
        # The generators out of mid, as index ranges, with their targets.
        if mid == 0:
            gens = [(scalars, 0)] + [(slice(out[x], out[x] + 1), x) for x in range(1, n)]
        else:
            gens = [(slice(into[mid], into[mid] + 1), 0)]
        # Every g and every g.h lies among the arrows out of mid.
        start = hom[mid * n]
        rows = comp(np.flatnonzero(table._dst_i == mid), slice(start, hom[mid * n + n]))
        for g, far in gens:
            bad = _regroupings(table, rows, start, g, far)
            if bad.any():
                return None
            checked += int(bad.size)
    return checked


def _associativity(table: CandidateTable, cap: int, endpoints: bool) -> CheckReport:
    """Associativity, from generators when ``endpoints`` passed and that
    shows it, else over all composable triples.

    ``checked`` counts the instances examined by whichever ran: the
    generators' when they show it, else every composable triple.  The
    full sweep is the only one that reports failures.  Its blocks are
    indexed by (mid, far) object pairs; a block covers every f into mid,
    g from mid to far, h out of far.
    """
    if endpoints:
        checked = _generated_associativity(table)
        if checked is not None:
            return make_check("associativity", checked, 0, [])
    comp, hom = table._composite, table._hom
    n = table.n_objects
    checked = 0
    failures = 0
    # The least failing (f, g, h) keys so far, at most 2 * cap of them.
    least = np.empty((0, 3), dtype=np.intp)
    for mid in range(n):
        f_idx = np.flatnonzero(table._dst_i == mid)
        rows = comp(f_idx, slice(None))
        for far in range(n):
            g = slice(hom[mid * n + far], hom[mid * n + far + 1])
            bad = _regroupings(table, rows, 0, g, far)
            checked += int(bad.size)
            nbad = int(np.count_nonzero(bad))
            if nbad:
                failures += nbad
                # A block's failures come in key order, so only its first
                # cap can be among the reported ones.
                fi, gi, hi = np.unravel_index(np.flatnonzero(bad)[:cap], bad.shape)
                keys = np.stack([f_idx[fi], g.start + gi, hom[far * n] + hi], axis=1)
                least = np.concatenate([least, keys])
                if len(least) > cap:
                    least = least[np.lexsort(least.T[::-1])][:cap]
    least = least[np.lexsort(least.T[::-1])]
    arrows = table.arrows
    witnesses = [
        f"assoc({arrows[f]}, {arrows[g]}, {arrows[h]}): grouping changes the composite"
        for f, g, h in least.tolist()
    ]
    return make_check("associativity", checked, failures, witnesses)


def validate_structure(table: CandidateTable, max_witnesses: int = 5) -> ReportGroup:
    """Groupoid-structure checks, run before any axiom is interpreted.

    Layer order (later layers are only meaningful when earlier ones
    hold, and axiom checks presuppose all of them): objects, endpoints,
    identity, inverses, associativity, transitivity, homsets.
    """
    cap = max_witnesses
    comp = table._composite
    n_arr = table.n_arrows
    checks: list[CheckReport] = []

    checks.append(make_check("objects", 1, 0 if table.n_objects >= 3 else 1, []))

    # Pairs come in row-major order, so the first failures are the least.
    I, J = table._pairs()
    R = comp(I, J)
    src, dst = table._src_i, table._dst_i
    endpoints = sweep(
        "endpoints", int(I.size), ~table._ends(I, J, R),
        lambda k: f"endpoints({table.arrows[I[k]]}, {table.arrows[J[k]]}): "
        f"composite {table.arrows[R[k]]} has wrong endpoints",
        cap,
    )
    checks.append(endpoints)

    arange = np.arange(n_arr)
    unfixed = (comp(table._id_idx[src], arange) != arange) | (
        comp(arange, table._id_idx[dst]) != arange
    )
    checks.append(sweep(
        "identity", 2 * n_arr, unfixed,
        lambda i: f"identity({table.arrows[i]}): declared unit does not fix it", cap,
    ))

    checks.append(sweep(
        "inverses", n_arr, table._inv < 0,
        lambda i: f"inverses({table.arrows[i]}): no two-sided inverse", cap,
    ))

    checks.append(_associativity(table, cap, endpoints.passed))

    # Nonempty homsets are built into the arrow space: with >= 3 objects
    # every distinct pair has a label and every object has an identity.
    checks.append(make_check("transitivity", table.n_objects**2, 0, []))

    # In a groupoid s -> s.f is a bijection from the scalars at a onto
    # the arrows a -> b for any f: a -> b, so every endo count must equal
    # n-2, the size of each homset between distinct objects.
    sizes = {o: len(table.scalars[o]) for o in table.objects}
    want = table.n_objects - 2
    off = [o for o in table.objects if sizes[o] != want]
    wit_t = [] if len(set(sizes.values())) == 1 else [f"endo counts differ: {sizes}"]
    wit_t += [
        f"homsets({o}): endo count {sizes[o]}, but each non-endo homset has {want}" for o in off
    ]
    checks.append(make_check("homsets", table.n_objects, len(off), wit_t[:cap]))

    return ReportGroup("structure", checks)


# -- axiom checks ---------------------------------------------------------------

AXIOM_NAMES = ("one", "two", "pappus", "hex1", "hex2", "as")


def axiom_names(which: Optional[Sequence[str]] = None) -> list[str]:
    """The axioms ``which`` names in canonical order, all six for None;
    ValueError for a name that is not an axiom."""
    unknown = [w for w in which or () if w not in AXIOM_NAMES]
    if unknown:
        raise ValueError(f"unknown axiom names {unknown}; valid: {', '.join(AXIOM_NAMES)}")
    return [n for n in AXIOM_NAMES if which is None or n in which]


def _distinct(n: int, k: int) -> np.ndarray:
    """The k-tuples of distinct indices below n, one per row, in lexicographic order."""
    rows = np.indices((n,) * k, dtype=np.intp).reshape(k, -1)
    keep = np.ones(rows.shape[1], dtype=bool)
    for i, j in combinations(range(k), 2):
        keep &= rows[i] != rows[j]
    return rows.T[keep]


def _name(table: CandidateTable, i: int) -> str:
    """The name of arrow ``i``; -1, where the legs do not compose or name
    no scalar, is "undefined"."""
    return str(table.arrows[i]) if i >= 0 else "undefined"


def _axiom_one(table: CandidateTable, cap: int) -> CheckReport:
    """Round trip through one label: a -> b via c then b -> a via c is the unit."""
    obj = table.objects
    a, b, c = _distinct(table.n_objects, 3).T
    got = _legs(table, _cr_legs(a, b, c, c))
    return sweep(
        "one", got.size, got != table._id_idx[a],
        lambda k: f"one({obj[a[k]]},{obj[b[k]]};{obj[c[k]]}): round trip gives "
        f"{_name(table, got[k])}, not the unit",
        cap,
    )


def _axiom_two(table: CandidateTable, cap: int) -> CheckReport:
    """Chaining through one label skips the midpoint: (a->b via c)(b->d via c) = a->d via c."""
    ne3, obj = table._ne3, table.objects
    a, b, d, c = _distinct(table.n_objects, 4).T
    got = table._composite(ne3[a, b, c], ne3[b, d, c])
    want = ne3[a, d, c]
    return sweep(
        "two", got.size, got != want,
        lambda k: f"two({obj[a[k]]},{obj[b[k]]},{obj[d[k]]};{obj[c[k]]}): chain gives "
        f"{_name(table, got[k])}, want {_name(table, want[k])}",
        cap,
    )


def _axiom_pappus(table: CandidateTable, cap: int) -> CheckReport:
    """Commutativity of every vertex group."""
    arrows = np.arange(table.n_arrows)
    # Every ordered pair of scalars at each object, object by object.
    endos = [arrows[table._homset(o, o)] for o in range(table.n_objects)]
    i = np.concatenate([np.repeat(e, e.size) for e in endos])
    j = np.concatenate([np.tile(e, e.size) for e in endos])
    comp = table._composite
    return sweep(
        "pappus", i.size, comp(i, j) != comp(j, i),
        lambda k: f"pappus({table.arrows[i[k]]}, {table.arrows[j[k]]}): "
        f"products differ by order",
        cap,
    )


def _axiom_hex1(table: CandidateTable, cap: int) -> CheckReport:
    """Row swap of the cross ratio, as a commuting square.

    The scalar of (a,b;c,d) at a, pushed through the arrow a -> c named
    b, must match the scalar of (c,d;a,b) at c pulled the same way.
    """
    quads = _distinct(table.n_objects, 4)
    a, b, c, d = quads.T
    bridge = (a, c, b)
    left = _legs(table, (*_cr_legs(a, b, c, d), bridge))
    right = table._composite(table._ne3[bridge], _legs(table, _cr_legs(c, d, a, b)))
    return sweep(
        "hex1", left.size, left != right,
        lambda k: f"hex1({','.join(table.objects[x] for x in quads[k])}): "
        f"the two routes around the square differ",
        cap,
    )


def _axiom_hex2(table: CandidateTable, cap: int) -> CheckReport:
    """The three-leg cycle a->b->c->a with labels c,a,b names one scalar.

    For each base object the value must not depend on the two helper
    objects; all helper pairs are compared against the least one.
    """
    obj, n = table.objects, table.n_objects
    a, b, c = _distinct(n, 3).T
    val = _legs(table, _tri_legs(a, b, c, c, a, b))
    # The triples with base a start at row a * (n-1)(n-2).
    first = a * ((n - 1) * (n - 2))
    return sweep(
        "hex2", val.size, val != val[first],
        lambda k: f"hex2({obj[a[k]]}): helpers ({obj[b[first[k]]]},{obj[c[first[k]]]}) give "
        f"{_name(table, val[first[k]])} but ({obj[b[k]]},{obj[c[k]]}) give "
        f"{_name(table, val[k])}",
        cap,
    )


def _axiom_as(table: CandidateTable, cap: int) -> CheckReport:
    """Equal cross ratios must stay equal after swapping the inner entries.

    Quadruples are grouped by the canonical form of (a,b;c,d); within a
    group every canonical (a,c;b,d) must agree.  A failing group is
    witnessed by its two least quadruples with different swaps.
    """
    quads = _distinct(table.n_objects, 4)
    a, b, c, d = quads.T
    # Scalars are compared at object 0.  The quadruples at 0 come first
    # and keep theirs; the others are transported there.
    home = int(np.searchsorted(a, 1))

    def canon(endo: np.ndarray) -> np.ndarray:
        there = _transports(table, endo[home:], _toward(table, a[home:], 0))
        return np.concatenate([endo[:home], there])

    key = canon(_legs(table, _cr_legs(a, b, c, d)))
    val = canon(_legs(table, _cr_legs(a, c, b, d)))
    # Distinct (key, val) pairs in sorted order, each with its least
    # quadruple.  Both lie in [-1, n_arrows), so one integer per pair
    # orders the pairs as (key, val) does.
    m = table.n_arrows + 1
    pairs, least = np.unique((key.astype(np.intp) + 1) * m + (val + 1), return_index=True)
    keys, start, count = np.unique(pairs // m - 1, return_index=True, return_counts=True)
    split = np.flatnonzero(count > 1)
    witnesses = []
    for g in split[:cap]:
        q1, q2 = np.sort(least[start[g] : start[g] + count[g]])[:2]
        name1 = ",".join(table.objects[x] for x in quads[q1])
        name2 = ",".join(table.objects[x] for x in quads[q2])
        witnesses.append(
            f"as: ({name1}) and ({name2}) share cross ratio "
            f"{_name(table, keys[g])} but their swaps differ: "
            f"{_name(table, val[q1])} vs {_name(table, val[q2])}"
        )
    return make_check("as", len(quads), int(split.size), witnesses)


_AXIOMS = {
    "one": _axiom_one,
    "two": _axiom_two,
    "pappus": _axiom_pappus,
    "hex1": _axiom_hex1,
    "hex2": _axiom_hex2,
    "as": _axiom_as,
}


def check_axioms(
    table: CandidateTable,
    which: Optional[Sequence[str]] = None,
    max_witnesses: int = 5,
) -> ReportGroup:
    """Run the named axiom sweeps (all six by default) over a table.

    Callers are expected to have passed validate_structure first; the
    sweeps only interpret the table, they do not re-validate it.
    Checks quantifying over more objects than the table has are
    reported as vacuous.
    """
    return ReportGroup("axioms", [_AXIOMS[n](table, max_witnesses) for n in axiom_names(which)])

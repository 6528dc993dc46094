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

import functools
import os
import re
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import formats
from .model import _cr_legs, _rapport_terms, _tri_legs, points
from .reports import CheckReport, ReportGroup, make_check, sweep, witness_cap
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
        return _non_endo_name(self.src, self.label, self.dst)


@dataclass(frozen=True)
class Endo:
    """A scalar: an arrow from an object to itself, named per object."""

    obj: str
    scalar: str

    def __str__(self) -> str:
        return _endo_name(self.obj, self.scalar)


AbstractArrow = Union[NonEndo, Endo]

_BAD_NAME = re.compile(r"[>#,\s]")
# The arrow name syntaxes, which parse_arrow reads: src>label>dst and obj#scalar.
_non_endo_name = lambda src, label, dst: f"{src}>{label}>{dst}"  # noqa: E731
_endo_name = lambda obj, scalar: f"{obj}#{scalar}"  # noqa: E731


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


def _other(x, k):
    """The k-th object other than x, counting from 0, over object index arrays."""
    return k + (k >= x)


@functools.lru_cache(maxsize=1)
def _arrow_space(
    objects: tuple[str, ...], scalars: tuple[tuple[str, ...], ...], identities: tuple[str, ...]
) -> dict:
    """The arrow space of a space that passed _check_space, its scalar
    ids and identities given per object in object order, as a table's
    attributes: the index arrays, read-only, and the names.

    The last space is kept, so the tables read from files with one
    header share one arrow space, built once.  No table changes it.
    """
    n = len(objects)
    # Arrows are numbered source-major, then by target: hom(a, b) is
    # the index range _hom[a*n + b] .. _hom[a*n + b + 1] (_homset), the
    # scalars at a in declared order when a = b, else the n - 2 arrows
    # named by the other objects in object order.  So the arrow s -> d
    # named l has rank l - [l > s] - [l > d] in hom(s, d); _ne3 gives
    # its index, -1 unless the three objects are pairwise distinct.
    size = np.full((n, n), n - 2, dtype=np.intp)
    size[np.diag_indices(n)] = list(map(len, scalars))
    hom = np.concatenate([[0], np.cumsum(size)])
    s, d, l = np.ogrid[:n, :n, :n]
    rank = hom[s * n + d] + l - (l > s) - (l > d)
    ne3 = np.where((s != d) & (l != s) & (l != d), rank, -1).astype(np.int32)
    hom_i = np.repeat(np.arange(n * n, dtype=np.int32), size.ravel())
    unit = [ids.index(u) for ids, u in zip(scalars, identities)]
    names = [name for s, ids in zip(objects, scalars) for d in objects for name in (
        [_endo_name(s, x) for x in ids] if s == d
        else [_non_endo_name(s, l, d) for l in objects if l != s and l != d])]
    space = {
        "_obj_i": {o: i for i, o in enumerate(objects)},
        "_hom": hom,
        "_ne3": ne3,
        "_names": names,
        "_name_i": {s: i for i, s in enumerate(names)},
        "_hom_i": hom_i,
        "_src_i": hom_i // n,
        "_dst_i": hom_i % n,
        "_id_idx": (hom[np.arange(n) * (n + 1)] + unit).astype(np.int32),
    }
    for x in space.values():
        if isinstance(x, np.ndarray):
            x.flags.writeable = False
    return space


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
        """Start a table over a space that passed _check_space: the table
        keeps these objects, scalars and identities, and shares the arrow
        space of ``_arrow_space``."""
        self.objects: tuple[str, ...] = objects
        self.scalars: dict[str, tuple[str, ...]] = scalars
        self.identities: dict[str, str] = identities
        vars(self).update(_arrow_space(
            objects, tuple(scalars[o] for o in objects), tuple(identities[o] for o in objects)
        ))

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
        return len(self._names)

    @functools.cached_property
    def arrows(self) -> tuple[AbstractArrow, ...]:
        """Every arrow as an object, in index order, parsed from its name on first read."""
        return tuple(map(parse_arrow, self._names))

    def _arrow(self, i: int) -> AbstractArrow:
        return parse_arrow(self._names[i])

    def arrow_index(self, arrow: AbstractArrow) -> int:
        """The index of the arrow named ``str(arrow)``, if that arrow is ``arrow``."""
        i = self._name_i.get(str(arrow))
        if i is None or self._arrow(i) != arrow:
            raise CandidateFormatError(f"unknown arrow {arrow}")
        return i

    def _object_i(self, obj: str) -> int:
        if not _hashable(obj) or obj not in self._obj_i:
            raise CandidateFormatError(f"unknown object {obj!r}")
        return self._obj_i[obj]

    def identity_arrow(self, obj: str) -> Endo:
        return self._arrow(self._id_idx[self._object_i(obj)])

    def _homset(self, a: int, b: int) -> slice:
        """hom(a, b) by object index, as an arrow index range; hom(a, a)
        is the scalars at a in declared order."""
        k = a * self.n_objects + b
        return slice(int(self._hom[k]), int(self._hom[k + 1]))

    def hom(self, a: str, b: str) -> tuple[AbstractArrow, ...]:
        return self.arrows[self._homset(self._object_i(a), self._object_i(b))]

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
        return self._arrow(_compose_i(self, self.arrow_index(f), self.arrow_index(g)))

    def inverse_arrow(self, f: AbstractArrow) -> AbstractArrow:
        i = self.arrow_index(f)
        if self._inv[i] < 0:
            raise ValueError(f"{self._names[i]} has no two-sided inverse in this table")
        return self._arrow(self._inv[i])

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
            return _endo_name(pts[x], self.scalar_ids[v - 1])
        return _non_endo_name(pts[x], pts[int(np.argmax(self.factor[x, y] == v))], pts[y])


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
        raise ValueError(f"cannot compose {table._names[i]} then {table._names[j]}")
    return r


def _scalar_i(table: CandidateTable, r: int, at: str, route: str) -> int:
    """``r``, which a groupoid table makes a scalar at ``at``; ValueError if it is not."""
    if _at(table, r, table._obj_i[at]) < 0:
        raise ValueError(f"{route} gives {table._names[r]}, not a scalar at {at}")
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
    """The first arrow of hom(x, y), for x != y, over object index arrays:
    the arrow named by the least other object, which carries a scalar at x to y."""
    return table._hom[x * table.n_objects + y]


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
    return table._arrow(_scalar_i(table, r, a, f"round trip ({a},{b};{c},{d})"))


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
    return table._arrow(_scalar_i(table, r, a, f"cycle ({a},{b},{c};{d},{e},{f})"))


def conjugate(table: CandidateTable, sigma: Endo, f: NonEndo) -> Endo:
    """Transport a scalar along an arrow: the composite f^-1, sigma, f."""
    if not isinstance(sigma, Endo):
        raise ValueError(f"{sigma} is not a scalar")
    if not isinstance(f, NonEndo):
        raise ValueError(f"{f} is not an arrow between distinct objects")
    if sigma.obj != f.src:
        raise ValueError(f"{sigma} does not live at the source of {f}")
    fi = table.arrow_index(f)
    x = _compose_i(table, table.arrow_index(table.inverse_arrow(f)), table.arrow_index(sigma))
    r = _compose_i(table, x, fi)
    return table._arrow(_scalar_i(table, r, f.dst, f"transport of {sigma} along {f}"))


def canonical_scalar(table: CandidateTable, sigma: Endo, base: str) -> Endo:
    """Transport a scalar to the base object along the least-labeled arrow.

    With commutative vertex groups the transported value is independent
    of the chosen path, so this is a canonical form for cross-object
    scalar comparison.
    """
    i = table.arrow_index(sigma)
    if not _hashable(base) or base not in table._obj_i:
        raise CandidateFormatError(f"unknown base object {base!r}")
    if isinstance(sigma, Endo) and sigma.obj == base:
        return sigma
    # conjugate refuses a sigma that is not a scalar.
    f = table._arrow(_toward(table, table._src_i[i], table._obj_i[base]))
    return conjugate(table, sigma, f)


# -- structure validation ------------------------------------------------------


class _Blocks:
    """The composites "an arrow into o, then an arrow out of o", one
    block per object o, in the narrowest signed dtype that holds every
    arrow index.  Together the blocks hold each composable pair twice.

    ``into[o]`` is the arrows into o in index order; the arrows out of
    o are the index range from ``out[o]``.  ``block[o][i, j]`` is the
    composite of into[o][i] then out arrow j, and ``tblock[o][j, i]``
    is the same composite; each has a last row of -1.  ``row[o, a]`` is
    arrow a's row in block[o], and ``col[o, a]`` its row in tblock[o]:
    the -1 row when a does not end at o (start at o), and at a = -1,
    the last entry.  So a gather through them reads -1 exactly where
    the store does.
    """

    def __init__(self, table: CandidateTable):
        n, m, hom, dst = table.n_objects, table.n_arrows, table._hom, table._dst_i
        dtype = np.min_scalar_type(-(m + 1))
        out, stop = hom[: n * n : n], hom[n :: n]
        count = np.bincount(dst, minlength=n)
        start = np.cumsum(count) - count
        by_dst = np.argsort(dst, kind="stable")
        arrows = np.arange(m)
        self.row = np.repeat(count.astype(dtype)[:, None], m + 1, axis=1)
        self.row[dst[by_dst], by_dst] = arrows - np.repeat(start, count)
        self.col = np.repeat((stop - out).astype(dtype)[:, None], m + 1, axis=1)
        self.col[table._src_i, arrows] = arrows - out[table._src_i]
        # The arrows into each object, each group followed by -1, the store's -1 row.
        ext = np.full(m + n, -1)
        ext[arrows + np.repeat(np.arange(n), count)] = by_dst
        self.out, self.into, self.block, self.tblock = out.tolist(), [], [], []
        for o, (a, k, b, e) in enumerate(zip(start.tolist(), count.tolist(), self.out, stop.tolist())):
            self.into.append(by_dst[a : a + k])
            block = table._composite(ext[a + o : a + o + k + 1], slice(b, e)).astype(dtype)
            tblock = np.empty((e - b + 1, k), dtype)
            tblock[:-1] = block[:-1].T
            tblock[-1] = -1
            self.block.append(block)
            self.tblock.append(tblock)


def _regroupings(blocks: _Blocks, mid: int, far: int, g: slice) -> np.ndarray:
    """Where (f.g).h and f.(g.h) differ, as an (f, g, h) mask over every
    f into mid, the g in ``g``, an index range in hom(mid, far), and
    every h out of far.

    Both groupings are row gathers: f.g is a slice of mid's block and
    (f.g).h its rows of far's block; g.h is a slice of far's block, and
    f.(g.h) its rows of mid's transposed block.
    """
    b = blocks
    gf = b.block[mid][:-1, g.start - b.out[mid] : g.stop - b.out[mid]].T
    left = b.block[far].take(b.row[far].take(gf), axis=0)
    at = b.row[far, g.start]
    gh = b.block[far][at : at + g.stop - g.start]
    right = b.tblock[mid].take(b.col[mid].take(gh), axis=0)
    # Both are by g, (g, f, h) and (g, h, f), so the compare transposes
    # one g's matrix at a time, which stays in cache at p=17 (twice as
    # fast there as one transpose of the whole).  The mask is a view.
    return (left != right.transpose(0, 2, 1)).transpose(1, 0, 2)


def _generated_associativity(table: CandidateTable, blocks: _Blocks) -> Optional[int]:
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
    at 0 (one of the scalars) standing in for both at object 0.  Each
    generator is checked on the table's ``blocks`` by ``_regroupings``.
    """
    comp, n = table._composite, table.n_objects
    scalars, others = table._homset(0, 0), np.arange(1, n)
    into = np.append(table._id_idx[0], _toward(table, others, 0))
    out = np.append(table._id_idx[0], _toward(table, 0, others))
    reached = np.zeros(table.n_arrows, dtype=bool)
    reached[comp(comp(into, scalars)[:, :, None], out)] = True
    if not reached.all():
        return None
    # The generators, each an index range in hom(mid, far), with mid and far.
    gens = [(scalars, 0, 0)] + [(slice(out[x], out[x] + 1), 0, x) for x in range(1, n)]
    gens += [(slice(into[x], into[x] + 1), x, 0) for x in range(1, n)]
    checked = 0
    for g, mid, far in gens:
        bad = _regroupings(blocks, mid, far, g)
        if np.count_nonzero(bad):
            return None
        checked += int(bad.size)
    return checked


def _associativity(table: CandidateTable, cap: int, endpoints: bool) -> CheckReport:
    """Associativity, from generators when ``endpoints`` passed and that
    shows it, else over all composable triples.

    ``checked`` counts the instances examined by whichever ran: the
    generators' when they show it, else every composable triple.  The
    full sweep is the only one that reports failures.  It reads one
    ``_regroupings`` mask per (mid, far) object pair, which covers every
    f into mid, g from mid to far and h out of far.
    """
    blocks = _Blocks(table)
    if endpoints:
        checked = _generated_associativity(table, blocks)
        if checked is not None:
            return make_check("associativity", checked, 0, [])
    hom, n = table._hom, table.n_objects
    checked = 0
    failures = 0
    # The least failing (f, g, h) keys so far, at most 2 * cap of them.
    least = np.empty((0, 3), dtype=np.intp)
    for mid in range(n):
        for far in range(n):
            g = slice(hom[mid * n + far], hom[mid * n + far + 1])
            bad = _regroupings(blocks, mid, far, g)
            checked += int(bad.size)
            nbad = int(np.count_nonzero(bad))
            if nbad:
                failures += nbad
                # A block's failures come in key order, so only its first
                # cap can be among the reported ones.
                fi, gi, hi = np.unravel_index(np.flatnonzero(bad)[:cap], bad.shape)
                keys = np.stack([blocks.into[mid][fi], g.start + gi, hom[far * n] + hi], axis=1)
                least = np.concatenate([least, keys])
                if len(least) > cap:
                    least = least[np.lexsort(least.T[::-1])][:cap]
    least = least[np.lexsort(least.T[::-1])]
    arrows = table._names
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
    cap = witness_cap(max_witnesses)
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
        lambda k: f"endpoints({table._names[I[k]]}, {table._names[J[k]]}): "
        f"composite {table._names[R[k]]} has wrong endpoints",
        cap,
    )
    checks.append(endpoints)

    arange = np.arange(n_arr)
    unfixed = (comp(table._id_idx[src], arange) != arange) | (
        comp(arange, table._id_idx[dst]) != arange
    )
    checks.append(sweep(
        "identity", 2 * n_arr, unfixed,
        lambda i: f"identity({table._names[i]}): declared unit does not fix it", cap,
    ))

    checks.append(sweep(
        "inverses", n_arr, table._inv < 0,
        lambda i: f"inverses({table._names[i]}): no two-sided inverse", cap,
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
    return table._names[i] if i >= 0 else "undefined"


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
        lambda k: f"pappus({table._names[i[k]]}, {table._names[j[k]]}): "
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
    cap = witness_cap(max_witnesses)
    return ReportGroup("axioms", [_AXIOMS[n](table, cap) for n in axiom_names(which)])

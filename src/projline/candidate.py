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

import gc
import json
import re
from collections.abc import Hashable
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice, permutations, repeat
from typing import Iterable, Optional, Sequence, Union

import numpy as np

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


def _check_names(kind: str, names: Sequence, repeated: str) -> None:
    # A list or mapping among the names cannot go into a set; the name
    # check reports it instead of the uniqueness check.
    if all(isinstance(x, Hashable) for x in names) and len(set(names)) != len(names):
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


def _check_count(
    objects: tuple[str, ...], scalars: dict[str, tuple[str, ...]], count: int
) -> None:
    """Reject a wrong entry count from the declared sizes alone.

    Through object o pass ((n-1)(n-2) + k_o)^2 composable pairs, k_o
    being its scalar count, so a table that declares many objects but
    few entries is refused before its arrow space is built.
    """
    n = len(objects)
    expected = sum(((n - 1) * (n - 2) + len(scalars[o])) ** 2 for o in objects)
    if count != expected:
        raise CandidateFormatError(
            f"compose table has {count} entries but {expected} composable pairs exist"
        )


def _resolve(entries: list, names: dict[str, int]) -> np.ndarray:
    """Arrow indices of the compose entries, as an (m, 3) int32 array.

    A well-formed name missing from ``names`` resolves to -1.  Shape,
    type and syntax errors are raised for the earliest offending entry.
    Each name costs one dict lookup, in one pass; only missed names are
    parsed, each distinct one once.  A hashable non-string is a miss and
    fails its parse; a list or mapping among the names is searched for
    on that error path only.
    """
    m = len(entries)
    shaped = m
    if not (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {3}):
        shaped = next(
            k for k, e in enumerate(entries) if not isinstance(e, list) or len(e) != 3
        )
    looked_up = 3 * shaped
    try:
        idx = np.fromiter(
            map(names.get, chain.from_iterable(islice(entries, shaped)), repeat(-1)),
            np.int32, looked_up,
        )
    except TypeError:
        # A list or mapping where a name belongs: look up the names before it.
        flat = list(chain.from_iterable(islice(entries, shaped)))
        looked_up = next(k for k, s in enumerate(flat) if not isinstance(s, Hashable))
        idx = np.fromiter(map(names.get, islice(flat, looked_up), repeat(-1)), np.int32, looked_up)
    for s in dict.fromkeys(entries[k // 3][k % 3] for k in np.flatnonzero(idx < 0).tolist()):
        parse_arrow(s)
    if looked_up < 3 * shaped:
        parse_arrow(entries[looked_up // 3][looked_up % 3])
    if shaped < m:
        raise CandidateFormatError(
            f"compose entries are [a, b, ab] triples, got {entries[shaped]!r}"
        )
    return idx.reshape(m, 3)


@contextmanager
def _collector_paused():
    """Keep the cyclic garbage collector off for the block, then restore its state.

    A table document is one list per compose entry and holds no cycle,
    so a collection that starts while it is built or read frees nothing
    and walks every list.  The block must drop the document before it
    ends, or the first collection after it walks the lists anyway.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _parse(path: str):
    """The JSON value in the file at ``path``.

    ``json.load`` reads the file, so its bytes are freed with the parse.
    """
    with open(path, "rb") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            # ValueError covers undecodable bytes as well as bad JSON.
            raise CandidateFormatError(f"not valid JSON: {exc}") from exc


class CandidateTable:
    """A complete composition table over a finite labeled arrow space."""

    def __init__(
        self,
        objects: Sequence[str],
        scalars: dict[str, Sequence[str]],
        identities: dict[str, str],
        entries: Iterable[tuple[AbstractArrow, AbstractArrow, AbstractArrow]],
    ):
        names = [list(map(str, e)) for e in entries]
        objects, scalars, identities = _check_space(objects, scalars, identities)
        _check_count(objects, scalars, len(names))
        self._init_space(objects, scalars, identities)
        self._fill(names, _resolve(names, self._name_i))

    # -- construction helpers -------------------------------------------------

    def _init_space(
        self,
        objects: tuple[str, ...],
        scalars: dict[str, tuple[str, ...]],
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
        # the index range _hom[a*n + b] .. _hom[a*n + b + 1], and the
        # scalars at a, in declared order, start at _hom[a*(n + 1)].
        self._hom = np.array(hom, dtype=np.intp)
        self.arrows: tuple[AbstractArrow, ...] = tuple(arrows)
        self._name_i: dict[str, int] = {str(a): i for i, a in enumerate(arrows)}
        pair = np.repeat(np.arange(n * n), np.diff(self._hom))
        self._src_i = (pair // n).astype(np.int32)
        self._dst_i = (pair % n).astype(np.int32)
        self._id_idx = np.array(
            [hom[oi * (n + 1)] + self.scalars[o].index(self.identities[o])
             for oi, o in enumerate(self.objects)],
            dtype=np.int32,
        )

    def _fill(self, entries: Sequence, idx: np.ndarray) -> None:
        """Store the composites of entries whose count is already checked.

        ``idx`` holds the (a, b, ab) arrow indices per entry, -1 for an
        unknown arrow.  The earliest entry with an unknown arrow, a pair
        that is not composable or a pair given before is reported; with
        none and the right count, every composable pair is filled once.
        """
        ia, ib, ir = idx.T
        m = len(idx)
        known = (ia >= 0) & (ib >= 0)
        composable = self._dst_i[ia] == self._src_i[ib]
        key = np.where(known, ia.astype(np.int64) * self.n_arrows + ib, -1 - np.arange(m))
        order = np.argsort(key, kind="stable")
        repeated = np.zeros(m, dtype=bool)
        repeated[order[1:]] = key[order[1:]] == key[order[:-1]]
        bad = (idx < 0).any(axis=1) | ~composable | repeated
        if bad.any():
            k = int(np.argmax(bad))
            a, b, r = entries[k]
            for arrow, i in zip((a, b, r), idx[k]):
                if i < 0:
                    raise CandidateFormatError(f"unknown arrow {arrow}")
            if not composable[k]:
                raise CandidateFormatError(f"entry ({a}, {b}) is not composable")
            raise CandidateFormatError(f"duplicate entry for ({a}, {b})")
        self._store(ia, ib, ir)

    def _composite(self, I, J) -> np.ndarray:
        """The composite of I then J, -1 where they do not compose.

        I and J are broadcasting index arrays, indices or slices.  This
        and _store are the only methods that know the store's layout: a
        dense n_arrows x n_arrows int32 matrix.
        """
        return self._comp[I, J]

    def _store(self, I, J, R) -> None:
        """Store R as the composite of each composable pair (I, J)."""
        comp = np.full((self.n_arrows, self.n_arrows), -1, dtype=np.int32)
        comp[I, J] = R
        self._comp = comp
        self._inv: Optional[np.ndarray] = None

    @classmethod
    def _bare(
        cls,
        objects: Sequence[str],
        scalars: dict[str, Sequence[str]],
        identities: dict[str, str],
    ) -> "CandidateTable":
        t = object.__new__(cls)
        t._init_space(*_check_space(objects, scalars, identities))
        return t

    # -- basic accessors -------------------------------------------------------

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)

    def arrow_index(self, arrow: AbstractArrow) -> int:
        get, n = self._obj_i.get, self.n_objects
        if isinstance(arrow, Endo):
            o = get(arrow.obj)
            if o is not None and arrow.scalar in self.scalars[arrow.obj]:
                return int(self._hom[o * (n + 1)]) + self.scalars[arrow.obj].index(arrow.scalar)
        elif isinstance(arrow, NonEndo):
            s, d, lab = get(arrow.src, -1), get(arrow.dst, -1), get(arrow.label, -1)
            if min(s, d, lab) >= 0 and self._ne3[s, d, lab] >= 0:
                return int(self._ne3[s, d, lab])
        raise CandidateFormatError(f"unknown arrow {arrow}")

    def identity_arrow(self, obj: str) -> Endo:
        return Endo(obj, self.identities[obj])

    def hom(self, a: str, b: str) -> tuple[AbstractArrow, ...]:
        k = self._obj_i[a] * self.n_objects + self._obj_i[b]
        return self.arrows[self._hom[k] : self._hom[k + 1]]

    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every composable pair (I, J), in row-major order.

        The arrows composable after arrow i are those out of its target,
        one index range, so no n_arrows x n_arrows scan is needed.
        """
        n = self.n_objects
        start = self._hom[self._dst_i * n]
        count = self._hom[self._dst_i * n + n] - start
        I = np.repeat(np.arange(self.n_arrows), count)
        # Position of each pair within its row, added to the row's start.
        J = np.arange(I.size) - np.repeat(np.cumsum(count) - count - start, count)
        return I, J

    def compose(self, f: AbstractArrow, g: AbstractArrow) -> AbstractArrow:
        """Left-to-right composite: ``f`` then ``g``."""
        return self.arrows[_compose_i(self, self.arrow_index(f), self.arrow_index(g))]

    def _ensure_inverses(self) -> np.ndarray:
        """Two-sided inverse index per arrow, -1 where none exists."""
        if self._inv is not None:
            return self._inv
        src, dst = self._src_i, self._dst_i
        I, J = self._pairs()
        ok = (
            (dst[J] == src[I])
            & (self._composite(I, J) == self._id_idx[src[I]])
            & (self._composite(J, I) == self._id_idx[dst[I]])
        )
        # Pairs come in row-major order: keep the least J of each I.
        i, first = np.unique(I[ok], return_index=True)
        inv = np.full(self.n_arrows, -1, dtype=np.int32)
        inv[i] = J[ok][first]
        self._inv = inv
        return inv

    def inverse_arrow(self, f: AbstractArrow) -> AbstractArrow:
        return self.arrows[_inverse_i(self, self.arrow_index(f))]

    # -- serialization ---------------------------------------------------------

    FORMAT = 1

    def to_doc(self) -> dict:
        names = np.array([str(a) for a in self.arrows], dtype=object)
        rank = np.empty(self.n_arrows, dtype=np.intp)
        rank[np.argsort(names)] = np.arange(self.n_arrows)
        I, J = self._pairs()
        # Entries sorted by (first, second) name; each pair occurs once.
        order = np.lexsort((rank[J], rank[I]))
        I, J = I[order], J[order]
        entries = np.stack([names[I], names[J], names[self._composite(I, J)]], axis=1).tolist()
        return {
            "format": self.FORMAT,
            "objects": list(self.objects),
            "scalars": {o: list(self.scalars[o]) for o in self.objects},
            "identity": {o: self.identities[o] for o in self.objects},
            "compose": entries,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "CandidateTable":
        if not isinstance(doc, dict):
            raise CandidateFormatError("candidate document must be a JSON object")
        for key in ("format", "objects", "scalars", "identity", "compose"):
            if key not in doc:
                raise CandidateFormatError(f"missing key {key!r}")
        if doc["format"] != cls.FORMAT:
            raise CandidateFormatError(f"unsupported format {doc['format']!r}, want {cls.FORMAT}")
        if not isinstance(doc["objects"], list) or not isinstance(doc["scalars"], dict):
            raise CandidateFormatError("objects must be a list and scalars a mapping")
        if not isinstance(doc["identity"], dict) or not isinstance(doc["compose"], list):
            raise CandidateFormatError("identity must be a mapping and compose a list")
        compose = doc["compose"]
        try:
            objects, scalars, identities = _check_space(
                doc["objects"], doc["scalars"], doc["identity"]
            )
        except CandidateFormatError:
            # A malformed entry is reported ahead of a malformed space.
            _resolve(compose, {})
            raise
        _check_count(objects, scalars, len(compose))
        t = object.__new__(cls)
        t._init_space(objects, scalars, identities)
        t._fill(compose, _resolve(compose, t._name_i))
        return t

    def to_json_bytes(self) -> bytes:
        with _collector_paused():
            text = json.dumps(self.to_doc(), separators=(",", ":"))
        return text.encode("ascii") + b"\n"

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_json_bytes())

    @classmethod
    def load(cls, path: str) -> "CandidateTable":
        with _collector_paused():
            return cls.from_doc(_parse(path))

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


def from_model(p: int) -> CandidateTable:
    """The candidate table of the projective line over F_p.

    Objects are the p+1 points in canonical order, scalars at every
    object are the nonzero residues, and composition follows the
    concrete arrows (factors multiply).
    """
    names = [str(q) for q in points(PrimeField(p))]
    scalar_ids = [str(v) for v in range(1, p)]
    scalars = {nm: list(scalar_ids) for nm in names}
    identities = {nm: "1" for nm in names}
    t = CandidateTable._bare(names, scalars, identities)

    n, src, dst = t.n_objects, t._src_i, t._dst_i
    # Factor of each arrow: its scalar id 1 .. p-1 at an endo, the
    # model's factor between distinct points.
    fac = np.zeros(t.n_arrows, dtype=np.intp)
    fac[src == dst] = np.tile(np.arange(1, p), n)
    a, b, c = np.nonzero(t._ne3 >= 0)
    fac[t._ne3[a, b, c]] = _label_factors(p, a, b, c)
    # by_factor[x, y, v] is the arrow x -> y with factor v.
    by_factor = np.full((n, n, p), -1, dtype=np.int32)
    by_factor[src, dst, fac] = np.arange(t.n_arrows)
    I, J = t._pairs()
    t._store(I, J, by_factor[src[I], dst[J], fac[I] * fac[J] % p])
    return t


def _label_factors(p: int, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The factor of the model arrow a -> b named by c, for index arrays
    into ``points(GF(p))``, by ``model.label_to_arrow``'s own formula
    taken mod p.  Point i < p is i:1 and point p is 1:0."""
    x = np.append(np.arange(p), 1)
    y = np.append(np.ones(p, dtype=np.intp), 0)
    inverse = np.array([0] + [pow(v, -1, p) for v in range(1, p)])
    num, den = _rapport_terms([((x[a], y[a]), (x[b], y[b]), (x[c], y[c]))])
    return num % p * inverse[den % p] % p


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


def _inverse_i(table: CandidateTable, i: int) -> int:
    j = int(table._ensure_inverses()[i])
    if j < 0:
        raise ValueError(f"{table.arrows[i]} has no two-sided inverse in this table")
    return j


def _scalar_i(table: CandidateTable, r: int, at: str, route: str) -> int:
    """``r``, which a groupoid table makes a scalar at ``at``; ValueError if it is not."""
    o = table._obj_i[at]
    if table._src_i[r] != o or table._dst_i[r] != o:
        raise ValueError(f"{route} gives {table.arrows[r]}, not a scalar at {at}")
    return r


def _at(table: CandidateTable, r: np.ndarray, obj) -> np.ndarray:
    """Where the arrows ``r`` are scalars at the objects ``obj``."""
    return (table._src_i[r] == obj) & (table._dst_i[r] == obj)


def _legs(table: CandidateTable, legs) -> np.ndarray:
    """The composite of the arrows a -> b named by c, one per leg (a, b, c)
    of object index arrays in order, as ``model._cr_legs`` and
    ``model._tri_legs`` list them: -1 from the first pair that does not
    compose."""
    ne3 = table._ne3
    (a, b, c), *rest = legs
    r = ne3[a, b, c]
    for a, b, c in rest:
        r = np.where(r < 0, -1, table._composite(r, ne3[a, b, c]))
    return r


def _round_trips(table: CandidateTable, a, b, c, d) -> np.ndarray:
    """``cross_ratio_abs`` over object index arrays: -1 where it raises."""
    r = _legs(table, _cr_legs(a, b, c, d))
    return np.where(_at(table, r, a), r, -1)


def _cycles(table: CandidateTable, a, b, c, d, e, f) -> np.ndarray:
    """``tri_rapport_abs`` over object index arrays: -1 where it raises."""
    r = _legs(table, _tri_legs(a, b, c, d, e, f))
    return np.where(_at(table, r, a), r, -1)


def _toward(table: CandidateTable, x, y) -> np.ndarray:
    """The arrow x -> y named by the least object other than x and y, over
    object index arrays: the arrow that carries a scalar at x to y."""
    lab = np.where((x != 0) & (y != 0), 0, np.where((x != 1) & (y != 1), 1, 2))
    return table._ne3[x, y, lab]


def _transports(table: CandidateTable, sigma: np.ndarray, f) -> np.ndarray:
    """``conjugate`` of the scalars ``sigma`` along the arrows ``f`` out
    of their objects, by index: -1 where it raises or sigma is -1."""
    comp = table._composite
    finv = table._ensure_inverses()[f]
    x = comp(finv, sigma)
    r = comp(x, f)
    ok = (sigma >= 0) & (finv >= 0) & (x >= 0) & _at(table, r, table._dst_i[f])
    return np.where(ok, r, -1)


def cross_ratio_abs(table: CandidateTable, a: str, b: str, c: str, d: str) -> Endo:
    """The scalar at ``a`` of the round trip a -> b via c, b -> a via d."""
    if len({a, b, c}) != 3 or len({a, b, d}) != 3:
        raise ValueError(f"cross ratio needs a,b,c and a,b,d distinct: {a},{b};{c},{d}")
    r = _compose_i(table, table.arrow_index(NonEndo(a, b, c)), table.arrow_index(NonEndo(b, a, d)))
    return table.arrows[_scalar_i(table, r, a, f"round trip ({a},{b};{c},{d})")]


def tri_rapport_abs(
    table: CandidateTable, a: str, b: str, c: str, d: str, e: str, f: str
) -> Endo:
    """The scalar at ``a`` of the cycle a -> b via d, b -> c via e, c -> a via f."""
    if len({a, b, c}) != 3:
        raise ValueError(f"base objects must be pairwise distinct: {a},{b},{c}")
    if d in (a, b) or e in (b, c) or f in (c, a):
        raise ValueError(f"labels must avoid their endpoints: ({a},{b},{c};{d},{e},{f})")
    x = _compose_i(table, table.arrow_index(NonEndo(a, b, d)), table.arrow_index(NonEndo(b, c, e)))
    r = _compose_i(table, x, table.arrow_index(NonEndo(c, a, f)))
    return table.arrows[_scalar_i(table, r, a, f"cycle ({a},{b},{c};{d},{e},{f})")]


def conjugate(table: CandidateTable, sigma: Endo, f: NonEndo) -> Endo:
    """Transport a scalar along an arrow: the composite f^-1, sigma, f."""
    if sigma.obj != f.src:
        raise ValueError(f"{sigma} does not live at the source of {f}")
    fi = table.arrow_index(f)
    x = _compose_i(table, _inverse_i(table, fi), table.arrow_index(sigma))
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


def _associativity(table: CandidateTable, cap: int) -> CheckReport:
    """Associativity over all composable triples, vectorized per object pair.

    Blocks are indexed by (mid, far) object pairs; a block covers every
    f into mid, g from mid to far, h out of far.  Arrows are numbered
    source-major and then by target, so g and h are index ranges.
    """
    comp, hom = table._composite, table._hom
    n = table.n_objects
    every = slice(None)
    checked = 0
    failures = 0
    witnesses: list[tuple[tuple[int, int, int], str]] = []
    for mid in range(n):
        f_idx = np.flatnonzero(table._dst_i == mid)
        rows = comp(f_idx, every)
        for far in range(n):
            g = slice(hom[mid * n + far], hom[mid * n + far + 1])
            h = slice(hom[far * n], hom[far * n + n])
            # Slices: an element-wise gather takes about four times as long.
            left = comp(every, h)[rows[:, g]]
            right = rows[:, comp(g, h)]
            bad = left != right
            checked += int(bad.size)
            nbad = int(np.count_nonzero(bad))
            if nbad:
                failures += nbad
                # argwhere yields a block's failures in key order, so only
                # its first cap can be among the reported ones.
                for fi, gi, hi in np.argwhere(bad)[:cap]:
                    key = (int(f_idx[fi]), int(g.start + gi), int(h.start + hi))
                    text = (
                        f"assoc({table.arrows[key[0]]}, "
                        f"{table.arrows[key[1]]}, {table.arrows[key[2]]}): "
                        f"grouping changes the composite"
                    )
                    witnesses.append((key, text))
                witnesses.sort(key=lambda w: w[0])
                del witnesses[cap:]
    return make_check("associativity", checked, failures, [t for _, t in witnesses])


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
    checks.append(sweep(
        "endpoints", int(I.size), (src[R] != src[I]) | (dst[R] != dst[J]),
        lambda k: f"endpoints({table.arrows[I[k]]}, {table.arrows[J[k]]}): "
        f"composite {table.arrows[R[k]]} has wrong endpoints",
        cap,
    ))

    arange = np.arange(n_arr)
    unfixed = (comp(table._id_idx[src], arange) != arange) | (
        comp(arange, table._id_idx[dst]) != arange
    )
    checks.append(sweep(
        "identity", 2 * n_arr, unfixed,
        lambda i: f"identity({table.arrows[i]}): declared unit does not fix it", cap,
    ))

    checks.append(sweep(
        "inverses", n_arr, table._ensure_inverses() < 0,
        lambda i: f"inverses({table.arrows[i]}): no two-sided inverse", cap,
    ))

    checks.append(_associativity(table, cap))

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


def _distinct(n: int, k: int) -> np.ndarray:
    """The k-tuples of distinct indices below n, one per row, in lexicographic order."""
    return np.array(list(permutations(range(n), k)), dtype=np.intp).reshape(-1, k)


def _axiom_one(table: CandidateTable, cap: int) -> CheckReport:
    """Round trip through one label: a -> b via c then b -> a via c is the unit."""
    obj = table.objects
    a, b, c = _distinct(table.n_objects, 3).T
    got = _legs(table, _cr_legs(a, b, c, c))
    return sweep(
        "one", got.size, got != table._id_idx[a],
        lambda k: f"one({obj[a[k]]},{obj[b[k]]};{obj[c[k]]}): round trip gives "
        f"{table.arrows[got[k]]}, not the unit",
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
        f"{table.arrows[got[k]]}, want {table.arrows[want[k]]}",
        cap,
    )


def _axiom_pappus(table: CandidateTable, cap: int) -> CheckReport:
    """Commutativity of every vertex group."""
    n, hom = table.n_objects, table._hom
    # Every ordered pair of scalars at each object, object by object.
    endos = [np.arange(hom[o * (n + 1)], hom[o * (n + 1) + 1]) for o in range(n)]
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
        f"{table.arrows[val[first[k]]]} but ({obj[b[k]]},{obj[c[k]]}) give "
        f"{table.arrows[val[k]]}",
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
    # Distinct (key, val) pairs in sorted order, each with its least quadruple.
    pairs, least = np.unique(np.stack([key, val], axis=1), axis=0, return_index=True)
    keys, start, count = np.unique(pairs[:, 0], return_index=True, return_counts=True)
    split = np.flatnonzero(count > 1)
    witnesses = []
    for g in split[:cap]:
        q1, q2 = np.sort(least[start[g] : start[g] + count[g]])[:2]
        name1 = ",".join(table.objects[x] for x in quads[q1])
        name2 = ",".join(table.objects[x] for x in quads[q2])
        witnesses.append(
            f"as: ({name1}) and ({name2}) share cross ratio "
            f"{table.arrows[keys[g]]} but their swaps differ: "
            f"{table.arrows[val[q1]]} vs {table.arrows[val[q2]]}"
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
    if which is None:
        names = list(AXIOM_NAMES)
    else:
        unknown = [w for w in which if w not in AXIOM_NAMES]
        if unknown:
            raise ValueError(f"unknown axiom names {unknown}; valid: {', '.join(AXIOM_NAMES)}")
        names = [n for n in AXIOM_NAMES if n in set(which)]
    return ReportGroup("axioms", [_AXIOMS[name](table, max_witnesses) for name in names])

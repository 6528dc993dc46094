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
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, combinations, islice, repeat
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Sequence, Union

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


def _pair_count(objects: Sequence[str], scalars: dict[str, Sequence[str]]) -> int:
    """The composable pairs of a space, from its declared sizes alone.

    Through object o pass ((n-1)(n-2) + k_o)^2 of them, k_o being its
    scalar count.
    """
    n = len(objects)
    return sum(((n - 1) * (n - 2) + len(scalars[o])) ** 2 for o in objects)


def _check_count(
    objects: tuple[str, ...], scalars: dict[str, tuple[str, ...]], count: int
) -> None:
    """Reject a wrong entry count, so a table that declares many objects
    but few entries is refused before its arrow space is built."""
    expected = _pair_count(objects, scalars)
    if count != expected:
        raise CandidateFormatError(
            f"compose table has {count} entries but {expected} composable pairs exist"
        )


def _resolve(entries: list, names: dict[str, int]) -> np.ndarray:
    """Arrow indices of the leading compose entries, as an (m, 3) int32 array.

    The lookup stops at the first entry that is not an [a, b, ab] list of
    hashable names; a name missing from ``names`` resolves to -1.  Each
    name costs one dict lookup, in one pass.  A name that cannot be
    hashed is searched for on that error path only.
    """
    if set(map(type, entries)) <= {list} and set(map(len, entries)) <= {3}:
        m = len(entries)
    else:
        m = next(k for k, e in enumerate(entries) if not isinstance(e, list) or len(e) != 3)
    try:
        idx = np.fromiter(
            map(names.get, chain.from_iterable(islice(entries, m)), repeat(-1)), np.int32, 3 * m
        )
    except TypeError:
        # A name that cannot be hashed: stop at its entry.
        k = next(k for k, e in enumerate(entries) if not all(map(_hashable, e)))
        return _resolve(entries[:k], names)
    return idx.reshape(-1, 3)


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


# Compose entries that to_json_bytes gathers, and from_doc matches, per
# block.  Past the index arrays, their temporaries are a few times _BLOCK
# times the longest entry, whatever the table's size.
_BLOCK = 1 << 15

_COMPOSE = b',"compose":['

# The fewest bytes a compose entry and the comma after it can take in a
# format-1 file: three names of at least 5 bytes, such as "a#b".
_SHORTEST = 20

# _LAST[k] keeps the last k bytes of a little-endian 8-byte word.
_LAST = np.array([(2**64 - 1) << (8 * (8 - k)) & (2**64 - 1) for k in range(9)], np.uint64)


def _words(buf: bytes, start: np.ndarray, length: np.ndarray, w: int) -> np.ndarray:
    """The w little-endian 8-byte words of ``buf`` that cover each string
    ``buf[start:start + length]``, as a (w, len(start)) array.

    A string of k < 8 bytes is the last k bytes of one word, the others
    masked off.  A longer one is read in words that end at its end and
    then 8, 16, ... bytes earlier, none starting before its start.  So
    two strings of one length, at most 8 * w bytes, are equal exactly
    when their words are.  Every word read must lie inside ``buf``.
    """
    every = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))
    end, over = start + length - 8, np.maximum(length - 8, 0)
    mask = _LAST[np.minimum(length, 8)]
    return np.stack([every[end - np.minimum(8 * i, over)] & mask for i in range(w)])


def _keys(words: np.ndarray, length: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each string's ``_words`` and length."""
    key = length.astype(np.uint64)
    for word in words:
        key = (key + word) * np.uint64(0x9E3779B97F4A7C15)
    return key


def _lookup(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """For each query, the index of a key equal to it, or of some key if none is.

    A direct-address table on the keys' top bits, at most a quarter
    full, answers the queries whose key holds its slot; a binary search
    answers the rest.
    """
    bits = (4 * keys.size).bit_length()
    shift = np.uint64(64 - bits)
    slots = np.zeros(1 << bits, np.intp)
    slots[keys >> shift] = np.arange(keys.size)
    found = slots[queries >> shift]
    miss = np.flatnonzero(keys[found] != queries)
    if miss.size:
        by_key = np.argsort(keys)
        found[miss] = by_key[np.searchsorted(keys[by_key], queries[miss]) % keys.size]
    return found


def _ranges(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each k paired with each index start[k] .. start[k] + count[k] - 1, in order."""
    k = np.repeat(np.arange(start.size), count)
    # Position within the whole, less the ranges before, plus the start.
    return k, np.arange(k.size) - np.repeat(np.cumsum(count) - count - start, count)


def _parse(data: bytes):
    """The JSON value in ``data``."""
    try:
        return json.loads(data)
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

    def _fill(self, entries: Sequence, idx: np.ndarray) -> None:
        """Store the composites of entries whose count is already checked.

        ``idx`` holds the (a, b, ab) arrow indices of the leading entries
        that ``_resolve`` looked up, -1 for a name that is no arrow.  The
        earliest entry with a defect is reported, naming the first of: not
        an [a, b, ab] list, a name that is not a string in arrow syntax (in
        entry order), an unknown arrow, a pair that is not composable, a
        pair given before.  With none, every composable pair is filled once.
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
        k = int(np.argmax(bad)) if bad.any() else m
        if k == len(entries):
            self._store(ia, ib, ir)
            return
        entry = entries[k]
        if not isinstance(entry, list) or len(entry) != 3:
            raise CandidateFormatError(f"compose entries are [a, b, ab] triples, got {entry!r}")
        for name in entry:
            parse_arrow(name)
        for name, i in zip(entry, idx[k]):
            if i < 0:
                raise CandidateFormatError(f"unknown arrow {name}")
        a, b, _ = entry
        if not composable[k]:
            raise CandidateFormatError(f"entry ({a}, {b}) is not composable")
        raise CandidateFormatError(f"duplicate entry for ({a}, {b})")

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
    def _bare(
        cls, objects: tuple[str, ...], scalars: dict[str, tuple[str, ...]], identities: dict[str, str]
    ) -> "CandidateTable":
        """The arrow space of a space that passed _check_space, with no composites."""
        t = object.__new__(cls)
        t._init_space(objects, scalars, identities)
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

    # -- serialization ---------------------------------------------------------

    FORMAT = 1

    def _entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Every composable pair (I, J), by the names of I and then of J:
        the order of the compose list in a format-1 file.

        The arrows composable after i are those out of its target, so this
        order is the arrows by name, each followed by the arrows out of its
        target by name: no sort over the pairs is needed.
        """
        by_name = np.argsort(np.array(self._names, dtype=object))
        rank = np.empty(self.n_arrows, dtype=np.intp)
        rank[by_name] = np.arange(self.n_arrows)
        # Arrows are numbered source-major, so sorting by (source, name)
        # leaves the arrows out of each object in its out-range, by name.
        out = np.lexsort((rank, self._src_i))
        n, dst = self.n_objects, self._dst_i[by_name]
        start = self._hom[dst * n]
        k, at = _ranges(start, self._hom[dst * n + n] - start)
        return by_name[k], out[at]

    def _encodings(self) -> list[bytes]:
        """Each arrow's name as a JSON string, in ASCII.

        They are split out of the encoded list of names at its ", "
        separators, as a name holds no comma.
        """
        return json.dumps(self._names).encode("ascii")[1:-1].split(b", ")

    @classmethod
    def _header(cls, objects: tuple[str, ...], scalars: dict, identities: dict) -> dict:
        return {
            "format": cls.FORMAT,
            "objects": list(objects),
            "scalars": {o: list(scalars[o]) for o in objects},
            "identity": {o: identities[o] for o in objects},
        }

    @classmethod
    def _head(cls, *space) -> bytes:
        """The bytes of a format-1 file of ``space`` before its first compose entry."""
        return json.dumps(cls._header(*space), separators=(",", ":"))[:-1].encode() + _COMPOSE

    def to_doc(self) -> dict:
        names = np.array(self._names, dtype=object)
        I, J = self._entries()
        R = self._composite(I, J)
        entries = np.stack([names[I], names[J], names[R]], axis=1).tolist()
        return {**self._header(self.objects, self.scalars, self.identities), "compose": entries}

    @classmethod
    def from_doc(cls, doc: Union[dict, bytes, Callable[[], bytes]]) -> "CandidateTable":
        """The table of a format-1 document, given parsed, as its JSON bytes
        or as a function that returns them, such as a binary file's read.

        Bytes that ``to_json_bytes`` writes, with or without the final
        newline, are read in place by ``_from_canonical``.  Any other
        bytes are parsed with json.loads, with the cyclic collector
        paused, and give the table or the message of the parsed document.
        A function is called here, so that this call alone holds the bytes
        it returns, even on Python 3.10, which keeps a call's arguments
        alive until the call returns.
        """
        if callable(doc):
            doc = doc()
        if not isinstance(doc, bytes):
            return cls._from_parsed(doc)
        table = cls._from_canonical(doc)
        if table is None:
            with _collector_paused():
                # Drop the bytes while the table is built, the document before gc resumes.
                doc = _parse(doc)
                table = cls._from_parsed(doc)
                del doc
        return table

    @classmethod
    def _check_header(cls, doc: dict) -> tuple:
        """The objects, scalar ids and identities of a format-1 document, checked."""
        if not isinstance(doc, dict):
            raise CandidateFormatError("candidate document must be a JSON object")
        for key in ("format", "objects", "scalars", "identity", "compose"):
            if key not in doc:
                raise CandidateFormatError(f"missing key {key!r}")
        # A JSON integer only: true and 1.0 equal 1 but are no format.
        if type(doc["format"]) is not int or doc["format"] != cls.FORMAT:
            raise CandidateFormatError(f"unsupported format {doc['format']!r}, want {cls.FORMAT}")
        if not isinstance(doc["objects"], list) or not isinstance(doc["scalars"], dict):
            raise CandidateFormatError("objects must be a list and scalars a mapping")
        if not isinstance(doc["identity"], dict) or not isinstance(doc["compose"], list):
            raise CandidateFormatError("identity must be a mapping and compose a list")
        return _check_space(doc["objects"], doc["scalars"], doc["identity"])

    @classmethod
    def _from_parsed(cls, doc: dict) -> "CandidateTable":
        objects, scalars, identities = cls._check_header(doc)
        _check_count(objects, scalars, len(doc["compose"]))
        t = cls._bare(objects, scalars, identities)
        t._fill(doc["compose"], _resolve(doc["compose"], t._name_i))
        return t

    @classmethod
    def _from_canonical(cls, data: bytes) -> Optional["CandidateTable"]:
        """The table whose ``to_json_bytes()`` is ``data``, with or without
        the final newline; None if there is no such table.

        Only the header, up to the first ``,"compose":[``, is parsed with
        json.loads, and ``_check_header`` checks it.  The header fixes the
        arrows and ``_entries`` the first and second arrow of every compose
        entry, so only each entry's third name is data.  The header's bytes,
        and the pair count against the compose list's length at ``_SHORTEST``
        bytes an entry, are checked before the arrow space is built.  Names
        hold no comma, so the commas in the compose list are its separators;
        ``_composites`` compares each entry's names between them in place.

        Every byte of ``data`` is compared exactly: the header with the
        space's, each entry's brackets, its three names (all of each name,
        however long) and the commas between them, and the closing
        ``]}``.  So a table is returned only when ``data`` is its
        canonical bytes.  ``json.loads(data)`` is then its ``to_doc()``,
        and ``from_doc`` of that builds an equal table: the fast path
        accepts nothing that the parsed path would read differently.
        """
        at = data.find(_COMPOSE)
        stop = len(data) - 2 - data.endswith(b"\n")
        if at < 0 or not data.startswith(b"]}", stop):
            return None
        try:
            space = cls._check_header({**json.loads(data[:at] + b"}"), "compose": []})
        except (ValueError, RecursionError):  # CandidateFormatError among them
            return None
        body = at + len(_COMPOSE)
        if data[:body] != cls._head(*space):
            return None
        if stop - body < _SHORTEST * _pair_count(*space[:2]) - 1:
            return None
        t = cls._bare(*space)
        I, J = t._entries()
        R = t._composites(data, body, stop, I, J)
        if R is None:
            return None
        t._store(I, J, R)
        return t

    def _composites(
        self, data: bytes, start: int, stop: int, I: np.ndarray, J: np.ndarray
    ) -> Optional[np.ndarray]:
        """The third arrow of each compose entry in ``data[start:stop]``, if
        the entries are exactly ``[A,B,C]``, comma-separated, with A and B
        the encodings of the arrows I and J and C that of an arrow; else None.

        The entries are read ``_BLOCK`` at a time.  Each name is compared
        by its length and its ``_words``, as many as the longest encoding
        needs; a third name is compared with an arrow that has its hash
        (``_keys``), so two arrows with one hash can make this return None.
        """
        encoded = self._encodings()
        length = np.array([len(e) for e in encoded])
        w = -(-int(length.max()) // 8)
        words = _words(b"\0" * 8 + b"".join(encoded), 8 + np.cumsum(length) - length, length, w)
        keys = _keys(words, length)
        raw = np.frombuffer(data, np.uint8)
        widest = 3 * int(length.max()) + 5  # an entry and the comma after it
        R = np.empty(I.size, np.int32)
        for k in range(0, I.size, _BLOCK):
            i, j = I[k : k + _BLOCK], J[k : k + _BLOCK]
            last = k + _BLOCK >= I.size
            window = raw[start : min(start + widest * i.size, stop)]
            commas = start + np.flatnonzero(window == ord(","))[: 3 * i.size - last]
            if commas.size < 3 * i.size - last:
                return None
            # Each entry's comma after its first name, after its second and after itself.
            a, b, e = (np.append(commas, stop) if last else commas).reshape(-1, 3).T
            begin = np.append(start, e[:-1] + 1)
            start = int(e[-1]) + 1
            la, lb, lr = a - begin - 1, b - a - 1, e - b - 2
            if not (
                (raw[begin] == ord("[")).all() and (raw[e - 1] == ord("]")).all()
                and np.array_equal(la, length[i]) and np.array_equal(lb, length[j])
                and np.array_equal(_words(data, begin + 1, la, w), words[:, i])
                and np.array_equal(_words(data, a + 1, lb, w), words[:, j])
            ):
                return None
            third = _words(data, b + 1, lr, w)
            r = _lookup(keys, _keys(third, lr))
            if not (np.array_equal(lr, length[r]) and np.array_equal(third, words[:, r])):
                return None
            R[k : k + _BLOCK] = r
        return R

    def _json_blocks(self) -> Iterator[bytes]:
        """The bytes of ``to_json_bytes()``, in blocks.

        That call writes the compose list as the comma-join of
        ``"[" + A + "," + B + "," + C + "]"`` over its entries, A, B and C
        being the JSON encodings of the entry's names, and a string's
        encoding does not depend on where it stands.  So each arrow name
        is encoded once, the same way, into one table per place in an
        entry, and the entries are gathered from the three tables by arrow
        index, ``_BLOCK`` at a time.  The encodings are ASCII with every
        control character escaped, so they hold no NUL byte: NUL pads the
        table rows to one width, and is deleted from each gathered block.
        """
        I, J = self._entries()
        R = self._composite(I, J)
        encoded = self._encodings()
        w = max(map(len, encoded)) + 2
        tables = [
            np.frombuffer(b"".join((pre + e + post).ljust(w, b"\0") for e in encoded), f"V{w}")
            for pre, post in ((b"[", b","), (b"", b","), (b"", b"],"))
        ]
        entry = np.dtype([(place, f"V{w}") for place in "IJR"])
        yield self._head(self.objects, self.scalars, self.identities)
        for at in range(0, I.size, _BLOCK):
            block = np.empty(min(_BLOCK, I.size - at), entry)
            for place, X, table in zip("IJR", (I, J, R), tables):
                block[place] = table[X[at : at + _BLOCK]]
            chunk = block.tobytes().translate(None, b"\0")
            # No comma after the last entry.
            yield chunk if at + _BLOCK < I.size else chunk[:-1]
        yield b"]}\n"

    def to_json_bytes(self, fh: Optional[BinaryIO] = None) -> Optional[bytes]:
        """``json.dumps(self.to_doc(), separators=(",", ":"))`` as ASCII
        bytes, plus a newline, built without the document (``_json_blocks``).

        Given a binary file ``fh``, the bytes are written to it a block at
        a time and not returned, so they are never held whole.
        """
        if fh is None:
            return b"".join(self._json_blocks())
        fh.writelines(self._json_blocks())
        return None

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
    o = table._obj_i[at]
    if table._src_i[r] != o or table._dst_i[r] != o:
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

    G is the scalars at object 0, the least arrow 0 -> X and the least
    arrow X -> 0 for each other X.  It generates when the products
    (g_a.s).f_b reach every arrow, for s a scalar at 0, g_a the chosen
    arrow a -> 0 and f_b the chosen arrow 0 -> b, the unit at 0 (one of
    the scalars) standing in for both at object 0.
    """
    comp, hom, n = table._composite, table._hom, table.n_objects
    scalars = np.arange(hom[0], hom[1])
    into = np.append(table._id_idx[0], hom[n : n * n : n])
    out = np.append(table._id_idx[0], hom[1:n])
    reached = np.zeros(table.n_arrows, dtype=bool)
    reached[comp(comp(into[:, None], scalars)[:, :, None], out)] = True
    if not reached.all():
        return None
    checked = 0
    for mid in range(n):
        # The generators out of mid, as index ranges, with their targets.
        start = hom[mid * n]
        if mid == 0:
            gens = [(slice(hom[0], hom[1]), 0)]
            gens += [(slice(hom[x], hom[x] + 1), x) for x in range(1, n)]
        else:
            gens = [(slice(start, start + 1), 0)]
        # Every g and every g.h lies among the arrows out of mid.
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

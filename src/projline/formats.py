"""Format 1: a candidate table as one JSON document, read and written.

A reader checks the header, starts the table with ``CandidateTable._bare``
and hands the compose entries to ``_store`` as (I, J, R) index arrays, or
raises ``CandidateFormatError``.  The writer reads a table only through
its arrow names, its space and ``_composite``.
"""

from __future__ import annotations

import functools
import gc
import json
from itertools import chain, islice, repeat
from typing import BinaryIO, Callable, Iterator, Optional, Sequence, Union

import numpy as np

# A module, not its names: candidate imports this module before it defines them.
from . import candidate

FORMAT = 1

# Compose entries that to_json_bytes gathers, and from_doc matches, per
# block.  Past the index arrays, their temporaries are a few times _BLOCK
# times the longest entry, whatever the table's size.
_BLOCK = 1 << 15

_COMPOSE = b',"compose":['

# The fewest bytes a compose entry and the comma after it can take in a
# format-1 file: three names of at least 5 bytes, such as "a#b".
_SHORTEST = 20


def _pair_count(objects: Sequence[str], scalars: dict[str, Sequence[str]]) -> int:
    """The composable pairs of a space, from its declared sizes alone:
    ((n-1)(n-2) + k_o)^2 pass through an object o with k_o scalars."""
    n = len(objects)
    return sum(((n - 1) * (n - 2) + len(scalars[o])) ** 2 for o in objects)


def _check_count(space: tuple, count: int) -> tuple:
    """``space`` if it has ``count`` composable pairs: a table that declares
    many objects but few entries is refused before its arrow space is built."""
    expected = _pair_count(*space[:2])
    if count != expected:
        raise candidate.CandidateFormatError(
            f"compose table has {count} entries but {expected} composable pairs exist"
        )
    return space


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
        k = next(k for k, e in enumerate(entries) if not all(map(candidate._hashable, e)))
        return _resolve(entries[:k], names)
    return idx.reshape(-1, 3)


def _arrays(t: candidate.CandidateTable, entries: Sequence) -> tuple:
    """The (I, J, R) arrow indices of compose entries, whose count is
    already checked, over the arrow space of ``t``.

    The earliest entry with a defect is reported, naming the first of: not
    an [a, b, ab] list, a name that is not a string in arrow syntax (in
    entry order), an unknown arrow, a pair that is not composable, a
    pair given before.  With none, every composable pair is given once.
    """
    idx = _resolve(entries, t._name_i)
    ia, ib, ir = idx.T
    m = len(idx)
    known = (ia >= 0) & (ib >= 0)
    composable = t._dst_i[ia] == t._src_i[ib]
    key = np.where(known, ia.astype(np.int64) * t.n_arrows + ib, -1 - np.arange(m))
    order = np.argsort(key, kind="stable")
    repeated = np.zeros(m, dtype=bool)
    repeated[order[1:]] = key[order[1:]] == key[order[:-1]]
    bad = (idx < 0).any(axis=1) | ~composable | repeated
    k = int(np.argmax(bad)) if bad.any() else m
    if k == len(entries):
        return ia, ib, ir
    entry = entries[k]
    if not isinstance(entry, list) or len(entry) != 3:
        raise candidate.CandidateFormatError(
            f"compose entries are [a, b, ab] triples, got {entry!r}"
        )
    for name in entry:
        candidate.parse_arrow(name)
    for name, i in zip(entry, idx[k]):
        if i < 0:
            raise candidate.CandidateFormatError(f"unknown arrow {name}")
    a, b, _ = entry
    if not composable[k]:
        raise candidate.CandidateFormatError(f"entry ({a}, {b}) is not composable")
    raise candidate.CandidateFormatError(f"duplicate entry for ({a}, {b})")


def _keys(words: np.ndarray, length: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each string's length and its masked window
    lanes, given one row per lane."""
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


def from_doc(doc: Union[dict, bytes, Callable[[], bytes]]) -> candidate.CandidateTable:
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
        return _from_parsed(doc)
    table = _from_canonical(doc)
    if table is None:
        # The document is one list per compose entry and holds no cycle, so a
        # collection while it exists would walk every list and free nothing.
        enabled = gc.isenabled()
        gc.disable()
        try:
            # Drop the bytes while the table is built, the document before gc resumes.
            try:
                doc = json.loads(doc)
            except (ValueError, RecursionError) as exc:
                # ValueError covers undecodable bytes as well as bad JSON.
                raise candidate.CandidateFormatError(f"not valid JSON: {exc}") from exc
            table = _from_parsed(doc)
            del doc
        finally:
            if enabled:
                gc.enable()
    return table


def _check_header(doc: dict) -> tuple:
    """The objects, scalar ids and identities of a format-1 document, checked."""
    if not isinstance(doc, dict):
        raise candidate.CandidateFormatError("candidate document must be a JSON object")
    for key in ("format", "objects", "scalars", "identity", "compose"):
        if key not in doc:
            raise candidate.CandidateFormatError(f"missing key {key!r}")
    # A JSON integer only: true and 1.0 equal 1 but are no format.
    if type(doc["format"]) is not int or doc["format"] != FORMAT:
        raise candidate.CandidateFormatError(f"unsupported format {doc['format']!r}, want {FORMAT}")
    if not isinstance(doc["objects"], list) or not isinstance(doc["scalars"], dict):
        raise candidate.CandidateFormatError("objects must be a list and scalars a mapping")
    if not isinstance(doc["identity"], dict) or not isinstance(doc["compose"], list):
        raise candidate.CandidateFormatError("identity must be a mapping and compose a list")
    return candidate._check_space(doc["objects"], doc["scalars"], doc["identity"])


def _from_parsed(doc: dict) -> candidate.CandidateTable:
    t = candidate.CandidateTable._bare(*_check_count(_check_header(doc), len(doc["compose"])))
    t._store(*_arrays(t, doc["compose"]))
    return t


def _from_canonical(data: bytes) -> Optional[candidate.CandidateTable]:
    """The table whose ``to_json_bytes()`` is ``data``, with or without
    the final newline; None if there is no such table.

    Only the header, up to the first ``,"compose":[``, is parsed with
    json.loads, and ``_check_header`` checks it.  The header fixes the
    arrows and ``_entries`` the first and second arrow of every compose
    entry, so only each entry's third name is data.  The header's bytes,
    and the pair count against the compose list's length at ``_SHORTEST``
    bytes an entry, are checked before the arrow space is built.  Names
    hold no comma, so the commas in the compose list are its separators;
    from them ``_composites`` reads each column of names in place, as
    one gather of fixed-width windows, without copying ``data``.

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
        space = _check_header({**json.loads(data[:at] + b"}"), "compose": []})
    except (ValueError, RecursionError):  # CandidateFormatError among them
        return None
    body = at + len(_COMPOSE)
    if data[:body] != _head(*space) or stop - body < _SHORTEST * _pair_count(*space[:2]) - 1:
        return None
    t = candidate.CandidateTable._bare(*space)
    arrays = _composites(t, data, body, stop)
    if arrays is None:
        return None
    t._store(*arrays)
    return t


def _composites(t: candidate.CandidateTable, data: bytes, start: int, stop: int) -> Optional[tuple]:
    """The (I, J, R) arrow indices of the compose entries in
    ``data[start:stop]``, if the entries are exactly ``[A,B,C]``,
    comma-separated, with (I, J) the pairs of ``_entries(t)``, A and B
    their encodings and C that of an arrow; else None.

    The entries are read ``_BLOCK`` at a time.  An entry's ``[A,``,
    ``B,`` and ``C]`` spans start at its first byte and one byte past
    its first and second comma, and each column of them is read as one
    gather of ``_windows``.  Under each span's byte mask, the windows
    of the first two columns must equal the spans of I and J
    (``_spans``).  The third window, masked to the length its commas
    give, is hashed (``_keys``) and must equal the span of the arrow
    with its hash, so two arrows with one hash can make this return
    None.
    """
    # The kept spans first: built after the pairs, they would sit above
    # the pairs' freed memory and raise a parsed load's peak.
    length, spans, masks, fill, keys = _layout(t).spans
    I, J = _entries(t)
    windows = _windows(data, 8 * fill.shape[1])
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
        if not (
            np.array_equal(windows(begin) & masks[0].take(i, axis=0), spans[0].take(i, axis=0))
            and np.array_equal(windows(a + 1) & masks[1].take(j, axis=0), spans[1].take(j, axis=0))
        ):
            return None
        lr = e - b - 2
        third = windows(b + 1) & fill.take(np.minimum(lr + 1, len(fill) - 1), axis=0)
        r = _lookup(keys, _keys(third.T, lr))
        if not (np.array_equal(lr, length[r]) and np.array_equal(third, spans[2].take(r, axis=0))):
            return None
        R[k : k + _BLOCK] = r
    return I, J, R


def _spans(encoded: list[bytes]) -> tuple[np.ndarray, ...]:
    """The encodings' lengths, and each arrow's ``[A,``, ``B,`` and
    ``C]`` span with its byte mask, in 8-byte lanes.

    ``spans[place, x]`` is arrow x's span at that place of an entry,
    NUL-padded to W bytes, the longest encoding plus 2 rounded up to 8,
    and ``masks[place, x]`` keeps its bytes; ``fill[k]`` keeps the
    first k bytes of W.
    """
    length = np.fromiter(map(len, encoded), np.intp, len(encoded))
    n, w = length.size, (int(length.max()) + 9) // 8 * 8
    flat = np.frombuffer(b"".join(encoded), np.uint8)
    # Byte k of the join, arrow x's from start[x] on, goes to row x at k - start[x].
    shift = np.repeat(w * np.arange(n) - (np.cumsum(length) - length), length)
    names = np.zeros((n, w), np.uint8)
    names.ravel()[np.arange(flat.size) + shift] = flat
    spans = np.zeros((3, n, w), np.uint8)
    spans[0, :, 0] = ord("[")
    spans[0, :, 1:] = names[:, :-1]
    spans[1:] = names
    # Per place, as rows: the bytes before the name, and the byte after it.
    before, after = np.array([[1], [0], [0]]), np.c_[list(b",,]")]
    spans[np.arange(3)[:, None], np.arange(n), length + before] = after
    fill = (np.arange(w) < np.arange(w + 1)[:, None]) * np.uint8(255)
    masks = fill[length + before + 1]
    return length, *(x.view(np.uint64) for x in (spans, masks, fill))


def _windows(data: bytes, w: int) -> Callable[[np.ndarray], np.ndarray]:
    """A function from increasing positions in ``data`` to the ``w``
    bytes of ``data`` from each, NUL past its end, in 8-byte lanes.

    A window that runs past the end is read from a NUL-padded copy of
    the bytes it covers, so ``data`` itself is not copied.
    """
    cut = max(len(data) - w + 1, 0)
    inside = np.ndarray((cut,), f"V{w}", data, strides=(1,))
    tail = np.ndarray((len(data) - cut + 1,), f"V{w}", data[cut:] + bytes(w), strides=(1,))

    def read(at: np.ndarray) -> np.ndarray:
        k = int(np.searchsorted(at, cut))
        found = inside[at] if k == at.size else np.concatenate((inside[at[:k]], tail[at[k:] - cut]))
        return found.view(np.uint64).reshape(at.size, -1)

    return read


class _Layout:
    """What the reader and the writer derive from an arrow space's names.

    ``by_name`` is the arrows by name, ``out`` the arrows by source and
    then by name, and ``start`` and ``count`` the out-range of each
    arrow's target, in ``by_name`` order: ``_entries`` pairs them.  The
    first two are int32, so the pairs are too: at p=17 that takes 12 MB
    off the peak of a load, which holds them beside the store.
    ``encoded`` is ``_encodings``' bytes, and ``spans`` the reader's
    ``_spans`` of them with the ``_keys`` of the third spans, built on
    first read.  All of it is O(n_arrows).
    """

    def __init__(self, t: candidate.CandidateTable):
        self.names = t._names
        self.by_name = np.argsort(np.array(t._names, dtype=object)).astype(np.int32)
        rank = np.empty(t.n_arrows, dtype=np.intp)
        rank[self.by_name] = np.arange(t.n_arrows)
        # Arrows are numbered source-major, so sorting by (source, name)
        # leaves the arrows out of each object in its out-range, by name.
        self.out = np.lexsort((rank, t._src_i)).astype(np.int32)
        n, dst = t.n_objects, t._dst_i[self.by_name]
        self.start = t._hom[dst * n]
        self.count = t._hom[dst * n + n] - self.start
        # Names hold no comma, so they split at the ", " separators.
        self.encoded = json.dumps(t._names).encode("ascii")[1:-1].split(b", ")

    @functools.cached_property
    def spans(self) -> tuple[np.ndarray, ...]:
        length, spans, masks, fill = _spans(self.encoded)
        return length, spans, masks, fill, _keys(spans[2].T, length)


# The layout of the last arrow space read or written, by the identity of its
# names, which every table over that space shares (``candidate._arrow_space``).
_kept: Optional[_Layout] = None


def _layout(t: candidate.CandidateTable) -> _Layout:
    global _kept
    if _kept is None or _kept.names is not t._names:
        _kept = _Layout(t)
    return _kept


def _entries(t: candidate.CandidateTable) -> tuple[np.ndarray, np.ndarray]:
    """Every composable pair (I, J), by the names of I and then of J:
    the order of the compose list in a format-1 file.

    The arrows composable after i are those out of its target, so this
    order is the arrows by name, each followed by the arrows out of its
    target by name: no sort over the pairs is needed.
    """
    layout = _layout(t)
    k, at = candidate._ranges(layout.start, layout.count)
    return layout.by_name[k], layout.out[at]


def _encodings(t: candidate.CandidateTable) -> list[bytes]:
    """Each arrow's name as a JSON string, in ASCII."""
    return _layout(t).encoded


def _header(objects: tuple[str, ...], scalars: dict, identities: dict) -> dict:
    return {
        "format": FORMAT,
        "objects": list(objects),
        "scalars": {o: list(scalars[o]) for o in objects},
        "identity": {o: identities[o] for o in objects},
    }


def _head(*space) -> bytes:
    """The bytes of a format-1 file of ``space`` before its first compose entry."""
    return json.dumps(_header(*space), separators=(",", ":"))[:-1].encode() + _COMPOSE


def to_doc(t: candidate.CandidateTable) -> dict:
    """The format-1 document of ``t``."""
    I, J = _entries(t)
    entries = np.array(t._names, dtype=object)[np.stack([I, J, t._composite(I, J)], axis=1)]
    return {**_header(t.objects, t.scalars, t.identities), "compose": entries.tolist()}


def _json_blocks(t: candidate.CandidateTable) -> Iterator[bytes]:
    """The bytes of ``to_json_bytes(t)``, in blocks.

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
    I, J = _entries(t)
    R = t._composite(I, J)
    encoded = _encodings(t)
    w = max(map(len, encoded)) + 2
    tables = [
        np.frombuffer(b"".join((pre + e + post).ljust(w, b"\0") for e in encoded), f"V{w}")
        for pre, post in ((b"[", b","), (b"", b","), (b"", b"],"))
    ]
    entry = np.dtype([(place, f"V{w}") for place in "IJR"])
    yield _head(t.objects, t.scalars, t.identities)
    for at in range(0, I.size, _BLOCK):
        block = np.empty(min(_BLOCK, I.size - at), entry)
        for place, X, table in zip("IJR", (I, J, R), tables):
            block[place] = table.take(X[at : at + _BLOCK])
        chunk = block.tobytes().translate(None, b"\0")
        # No comma after the last entry.
        yield chunk if at + _BLOCK < I.size else chunk[:-1]
    yield b"]}\n"


def to_json_bytes(t: candidate.CandidateTable, fh: Optional[BinaryIO] = None) -> Optional[bytes]:
    """``json.dumps(to_doc(t), separators=(",", ":"))`` as ASCII bytes,
    plus a newline, built without the document (``_json_blocks``).

    Given a binary file ``fh``, the bytes are written to it a block at
    a time and not returned, so they are never held whole.
    """
    if fh is None:
        return b"".join(_json_blocks(t))
    fh.writelines(_json_blocks(t))

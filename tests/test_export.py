"""The format-1 writer and the loader's fast path against the document
path.  ``to_doc`` and ``to_json_bytes`` give the reference document and
bytes on model, relabeled, swapped, group groupoid, mutated and
four-object tables, on names that JSON must escape, and across every
block boundary.  ``load`` reads those files in place and gives the
table that ``from_doc`` gives on the parsed bytes; any other bytes give
that table or that message too."""

import functools
import json
import random
import time

import numpy as np
import pytest

from helpers import (
    SWAPPED_NAMES,
    outcome,
    cross_homset_mutation,
    four_object_table,
    group_groupoid,
    reference_doc,
    reference_from_doc,
    reference_json_bytes,
    relabel,
    seeded_mutation,
    swap_names,
    symmetric_group,
)
from projline import cli, formats
from projline.candidate import CandidateFormatError, CandidateTable, Endo, from_model, parse_arrow


@functools.cache
def model_doc(p: int) -> dict:
    return from_model(p).to_doc()


def renamed(doc: dict, objects: dict, scalars: dict) -> dict:
    """The table document with its objects and scalar ids renamed by
    the mappings, which leave out the names they keep."""
    obj = lambda o: objects.get(o, o)
    sid = lambda s: scalars.get(s, s)

    def arrow(a: str) -> str:
        x = parse_arrow(a)
        if isinstance(x, Endo):
            return f"{obj(x.obj)}#{sid(x.scalar)}"
        return f"{obj(x.src)}>{obj(x.label)}>{obj(x.dst)}"

    return {
        "format": doc["format"],
        "objects": [obj(o) for o in doc["objects"]],
        "scalars": {obj(o): [sid(s) for s in ids] for o, ids in doc["scalars"].items()},
        "identity": {obj(o): sid(s) for o, s in doc["identity"].items()},
        "compose": [[arrow(a) for a in e] for e in doc["compose"]],
    }


# Names JSON escapes: a quote, a backslash, a non-ASCII letter, a
# character outside the Basic Multilingual Plane and a NUL.
ODD = ['a"b', "c\\d", "é", "\U0001f600", "x\x00y"]
ODD_OBJECTS = dict(zip(["0:1", "1:1", "2:1", "3:1", "4:1"], ODD))
ODD_SCALARS = dict(zip(["2", "3", "4", "5", "6"], ODD))

# Each case gives a table document, or the table itself.
CASES = {
    **{f"model-{p}": lambda p=p: from_model(p) for p in (2, 3, 5, 7, 11, 13)},
    **{
        f"relabel-{p}-{seed}": lambda p=p, seed=seed: relabel(model_doc(p), seed)
        for p in (5, 7) for seed in range(3)
    },
    **{f"swap-{p}": lambda p=p: swap_names(model_doc(p), *SWAPPED_NAMES) for p in (5, 7)},
    **{
        f"s3-{seed}": lambda seed=seed: group_groupoid(symmetric_group(3), seed)
        for seed in range(3)
    },
    "four-object": four_object_table,
    **{
        f"same-{p}-{seed}": lambda p=p, seed=seed: seeded_mutation(model_doc(p), seed)
        for p in (5, 7) for seed in range(3)
    },
    **{
        f"cross-{p}-{seed}": lambda p=p, seed=seed: cross_homset_mutation(model_doc(p), seed)
        for p in (5, 7) for seed in range(3)
    },
    "odd-objects": lambda: renamed(model_doc(5), ODD_OBJECTS, {}),
    "odd-scalars": lambda: renamed(model_doc(7), {}, ODD_SCALARS),
    "odd-both": lambda: renamed(model_doc(5), ODD_OBJECTS, ODD_SCALARS),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_writer_bytes_equal_the_document_path(case):
    table = CASES[case]()
    if isinstance(table, dict):
        table = CandidateTable.from_doc(table)
    assert table.to_doc() == reference_doc(table)
    assert table.to_json_bytes() == reference_json_bytes(table)


def test_odd_names_are_escaped_and_read_back():
    table = CandidateTable.from_doc(CASES["odd-both"]())
    raw = table.to_json_bytes()
    assert raw.isascii() and b"\0" not in raw
    for name in ODD:
        assert json.dumps(name).encode("ascii") in raw
    assert CandidateTable.from_doc(json.loads(raw)) == table


@pytest.mark.parametrize("block", [1, 7, 64, 255, 256, 257])
def test_writer_bytes_do_not_depend_on_the_block(monkeypatch, block):
    """F_3 has 256 entries, so the blocks divide them, leave a short last
    block or hold them all in one."""
    table = CandidateTable.from_doc(relabel(model_doc(3), 1))
    monkeypatch.setattr(formats, "_BLOCK", block)
    assert table.to_json_bytes() == reference_json_bytes(table)


def parsed(data: bytes) -> CandidateTable:
    """The loader without its fast path: ``from_doc`` of the parsed bytes."""
    try:
        doc = json.loads(data)
    except ValueError as exc:
        raise CandidateFormatError(f"not valid JSON: {exc}") from exc
    return CandidateTable.from_doc(doc)


def loaded(tmp_path, data: bytes):
    """``outcome`` of ``CandidateTable.load`` on a file holding ``data``."""
    path = tmp_path / "table.json"
    path.write_bytes(data)
    return outcome(CandidateTable.load, str(path))


@pytest.mark.parametrize("case", sorted(CASES))
def test_load_reads_canonical_bytes_in_place(tmp_path, case):
    table = CASES[case]()
    if isinstance(table, dict):
        table = CandidateTable.from_doc(table)
    raw = table.to_json_bytes()
    want = parsed(raw)
    for data in (raw, raw[:-1]):
        assert formats._from_canonical(data) == want
        assert loaded(tmp_path, data) == ("ok", want)
    assert want.to_json_bytes() == raw


@pytest.mark.parametrize("p", [5, 13])
def test_gen_files_take_the_fast_path(tmp_path, monkeypatch, p):
    """p=13 has names of 16 bytes, two words each."""
    path = str(tmp_path / f"f{p}.json")
    assert cli.main(["gen", "--p", str(p), "--out", path]) == 0

    def refuse(doc):
        raise AssertionError("a gen file was parsed as a JSON document")

    monkeypatch.setattr(formats, "_from_parsed", refuse)
    assert CandidateTable.load(path) == from_model(p)


def _model_bytes(p: int = 5) -> bytes:
    return from_model(p).to_json_bytes()


def _reordered() -> bytes:
    doc = json.loads(_model_bytes())
    doc["compose"][3], doc["compose"][4] = doc["compose"][4], doc["compose"][3]
    return json.dumps(doc, separators=(",", ":")).encode()


def _duplicated_key(value: int) -> bytes:
    return _model_bytes().replace(b'{"format":1,', b'{"format":%d,"format":1,' % value, 1)


def _bomb(n: int, compose: str = "[]") -> bytes:
    names = [f"o{i}" for i in range(n)]
    head = {
        "format": 1,
        "objects": names,
        "scalars": {o: ["1"] for o in names},
        "identity": {o: "1" for o in names},
    }
    return json.dumps(head, separators=(",", ":"))[:-1].encode() + b',"compose":' + compose.encode() + b"}"


# Names holding the bytes of the compose list's own syntax, JSON escapes
# and non-ASCII text.
BRACKETS = dict(zip(["0:1", "1:1", "2:1", "3:1"], ["a]", "[b", "]]", '"]"']))


def _renamed_table(objects: dict, scalars: dict) -> CandidateTable:
    return CandidateTable.from_doc(renamed(model_doc(5), objects, scalars))


# Each variant gives the bytes and whether they are a table's canonical bytes.
VARIANTS = {
    "reordered": (_reordered, False),
    "indent-1": (lambda: json.dumps(json.loads(_model_bytes()), indent=1).encode(), False),
    "ensure-ascii-off": (lambda: json.dumps(
        _renamed_table(ODD_OBJECTS, ODD_SCALARS).to_doc(), separators=(",", ":"),
        ensure_ascii=False,
    ).encode(), False),
    "escaped-names": (lambda: _renamed_table(ODD_OBJECTS, ODD_SCALARS).to_json_bytes(), True),
    "bracket-names": (lambda: _renamed_table(BRACKETS, {}).to_json_bytes(), True),
    "format-2": (lambda: _model_bytes().replace(b'{"format":1,', b'{"format":2,', 1), False),
    "duplicated-key": (lambda: _duplicated_key(1), False),
    "duplicated-key-other-value": (lambda: _duplicated_key(2), False),
    "trailing-spaces": (lambda: _model_bytes() + b"  ", False),
    "two-newlines": (lambda: _model_bytes() + b"\n", False),
    "leading-space": (lambda: b" " + _model_bytes(), False),
    "bom": (lambda: b"\xef\xbb\xbf" + _model_bytes(), False),
    "bomb": (lambda: _bomb(200), False),
    "bomb-with-entries": (lambda: _bomb(40, '[["o0#1","o0#1","o0#1"]]'), False),
    "entries-as-strings": (lambda: _model_bytes().replace(b'[["', b'["', 1), False),
    "unknown-third-name": (lambda: _model_bytes().replace(b'"]', b'x"]', 1), False),
    "truncated": (lambda: _model_bytes()[:-3], False),
    "unclosed": (lambda: _model_bytes()[:-2] + b"]\n", False),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_other_bytes_give_the_parsed_table_or_message(tmp_path, variant):
    make, canonical = VARIANTS[variant]
    data = make()
    assert (formats._from_canonical(data) is not None) is canonical
    assert loaded(tmp_path, data) == outcome(parsed, data)


@pytest.mark.parametrize("value", [True, 1.0])
def test_format_is_the_integer_1(tmp_path, value):
    """true and 1.0 equal 1 in Python but are no format, as a document
    and as bytes."""
    doc = dict(model_doc(5), format=value)
    data = json.dumps(doc, separators=(",", ":")).encode()
    want = (CandidateFormatError, f"unsupported format {value}, want 1")
    assert outcome(CandidateTable.from_doc, doc) == want
    assert outcome(CandidateTable.from_doc, data) == want
    assert loaded(tmp_path, data) == want
    assert outcome(reference_from_doc, doc) == want


@pytest.mark.parametrize("header, want", [
    (b'{"format":"1",', (CandidateFormatError, "unsupported format '1', want 1")),
    (b'{"format":1,"x":0,', ("ok", from_model(5))),
])
def test_a_header_that_is_not_canonical_is_refused_before_its_space_is_built(
    tmp_path, monkeypatch, header, want
):
    data = _model_bytes().replace(b'{"format":1,', header, 1)
    real = CandidateTable._init_space
    built = []

    def counted(self, *space):
        built.append(space)
        real(self, *space)

    monkeypatch.setattr(CandidateTable, "_init_space", counted)
    assert formats._from_canonical(data) is None
    assert built == []
    assert loaded(tmp_path, data) == outcome(parsed, data) == want


def test_a_declared_size_bomb_is_refused_before_its_space_is_built(tmp_path):
    data = _bomb(400)
    start = time.perf_counter()
    assert loaded(tmp_path, data)[0] is CandidateFormatError
    assert time.perf_counter() - start < 1.0


def _fuzzed(raw: bytes, rng: random.Random) -> bytes:
    at = rng.randrange(len(raw) + 1)
    byte = bytes([rng.choice(b'[]{},:"#>\\ 0123456789x\n' + bytes([rng.randrange(256)]))])
    kind = rng.choice(["edit", "insert", "delete"])
    if kind == "insert":
        return raw[:at] + byte + raw[at:]
    at = min(at, len(raw) - 1)
    if kind == "delete":
        return raw[:at] + raw[at + 1:]
    return raw[:at] + byte + raw[at + 1:]


def test_single_byte_fuzz_gives_the_parsed_table_or_message(tmp_path):
    raw = _model_bytes()
    rng = random.Random(16)
    accepted = 0
    for _ in range(400):
        data = _fuzzed(raw, rng)
        want = outcome(parsed, data)
        assert loaded(tmp_path, data) == want, data
        accepted += want[0] == "ok"
        # The in-place reader accepts only the bytes the writer writes.
        table = formats._from_canonical(data)
        assert table is None or table.to_json_bytes() in (data, data + b"\n"), data
    # Some edits rename a composite and still give a table.
    assert accepted


@pytest.mark.parametrize("block", [1, 7, 64, 255, 256, 257])
def test_fast_path_does_not_depend_on_the_block(monkeypatch, block):
    table = CandidateTable.from_doc(cross_homset_mutation(model_doc(3), 1))
    raw = table.to_json_bytes()
    monkeypatch.setattr(formats, "_BLOCK", block)
    assert formats._from_canonical(raw) == table
    assert formats._from_canonical(raw[:-1]) == table
    assert formats._from_canonical(raw.replace(b"],[", b"], [", 1)) is None


def test_arrows_with_one_hash_are_still_told_apart(monkeypatch):
    """With every key equal, each third name is compared with one arrow;
    a wrong one sends the bytes down the parsed path."""
    table = CandidateTable.from_doc(relabel(model_doc(5), 2))
    raw = table.to_json_bytes()
    monkeypatch.setattr(formats, "_keys", lambda words, length: np.zeros(length.size, np.uint64))
    assert formats._from_canonical(raw) is None
    assert CandidateTable.from_doc(raw) == table

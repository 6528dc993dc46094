"""The format-1 writer against the document path: ``to_doc`` and
``to_json_bytes`` give the reference document and bytes on model,
relabeled, swapped, group groupoid, mutated and four-object tables, on
names that JSON must escape, and across every block boundary."""

import functools
import json

import pytest

from helpers import (
    SWAPPED_NAMES,
    cross_homset_mutation,
    four_object_table,
    group_groupoid,
    reference_doc,
    reference_json_bytes,
    relabel,
    seeded_mutation,
    swap_names,
    symmetric_group,
)
from projline import candidate
from projline.candidate import CandidateTable, Endo, from_model, parse_arrow


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
    monkeypatch.setattr(candidate, "_BLOCK", block)
    assert table.to_json_bytes() == reference_json_bytes(table)

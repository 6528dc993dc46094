"""Shared test utilities: a CLI runner, the documented and seeded
mutations and a reference table loader.

Each mutation rewrites exactly one compose entry of the generated table
over F_5 and is keyed by the check expected to expose it.  The triples
are (first arrow, second arrow, replacement result).
"""

import copy
import random
import subprocess
import sys

import numpy as np

from projline.candidate import (
    CandidateFormatError,
    CandidateTable,
    Endo,
    _check_name,
    parse_arrow,
)


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


def mutate_doc(doc: dict, name: str) -> dict:
    """A deep copy of a table document with one compose entry rewritten."""
    first, second, replacement = MUTATIONS[name]
    out = copy.deepcopy(doc)
    hits = [e for e in out["compose"] if e[0] == first and e[1] == second]
    assert len(hits) == 1, f"mutation {name} must hit exactly one entry"
    assert hits[0][2] != replacement, f"mutation {name} must change the entry"
    hits[0][2] = replacement
    return out


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


def reference_from_doc(doc) -> CandidateTable:
    """The per-entry loader that ``CandidateTable.from_doc`` replaced.

    It parses every arrow string into an arrow object, validates the
    declared space, then fills a dense table entry by entry, counting
    entries last.  Its errors are the loader's, except that the loader
    reports a wrong entry count first.  Documents with a list where a
    name belongs, or a non-list of scalar ids, make it raise TypeError
    or read a string as its characters.
    """
    if not isinstance(doc, dict):
        raise CandidateFormatError("candidate document must be a JSON object")
    for key in ("format", "objects", "scalars", "identity", "compose"):
        if key not in doc:
            raise CandidateFormatError(f"missing key {key!r}")
    if doc["format"] != CandidateTable.FORMAT:
        raise CandidateFormatError(
            f"unsupported format {doc['format']!r}, want {CandidateTable.FORMAT}"
        )
    if not isinstance(doc["objects"], list) or not isinstance(doc["scalars"], dict):
        raise CandidateFormatError("objects must be a list and scalars a mapping")
    if not isinstance(doc["identity"], dict) or not isinstance(doc["compose"], list):
        raise CandidateFormatError("identity must be a mapping and compose a list")
    entries = []
    for e in doc["compose"]:
        if not isinstance(e, list) or len(e) != 3:
            raise CandidateFormatError(f"compose entries are [a, b, ab] triples, got {e!r}")
        entries.append(tuple(parse_arrow(s) for s in e))

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
        norm_scalars[o] = ids
    if set(identities) != set(objects):
        raise CandidateFormatError("an identity must be declared for exactly the objects")
    for o in objects:
        if identities[o] not in norm_scalars[o]:
            raise CandidateFormatError(
                f"identity {identities[o]!r} at {o!r} is not a declared scalar"
            )

    t = CandidateTable._bare(objects, norm_scalars, identities)
    comp = np.full((t.n_arrows, t.n_arrows), -1, dtype=np.int32)
    count = 0
    for a, b, r in entries:
        ia, ib, ir = t.arrow_index(a), t.arrow_index(b), t.arrow_index(r)
        if t._dst_i[ia] != t._src_i[ib]:
            raise CandidateFormatError(f"entry ({a}, {b}) is not composable")
        if comp[ia, ib] != -1:
            raise CandidateFormatError(f"duplicate entry for ({a}, {b})")
        comp[ia, ib] = ir
        count += 1
    expected = int(sum(len(t._in[o]) * len(t._out[o]) for o in range(t.n_objects)))
    if count != expected:
        raise CandidateFormatError(
            f"compose table has {count} entries but {expected} composable pairs exist"
        )
    t._comp = comp
    return t

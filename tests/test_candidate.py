"""Abstract composition tables: construction, serialization, checkers."""

import ast
import contextlib
import copy
import gc
import importlib
import inspect
import io
import itertools
import json
import os
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MUTATIONS,
    NON_GROUPOID,
    REFERENCE_CASES,
    SWAPPED_NAMES,
    ObjectCalculus,
    _ends,
    cross_homset_mutation,
    empty_slot,
    four_object_table,
    mutate_doc,
    outcome,
    reference_from_doc,
    reference_from_model,
    reference_hom,
    reference_inverses,
    relabel,
    rewrite_entry,
    seeded_mutation,
    swap_names,
)
import projline
from projline import candidate, cli, formats
from projline.candidate import (
    AXIOM_NAMES,
    CandidateFormatError,
    CandidateTable,
    Endo,
    ModelLine,
    NonEndo,
    _check_space,
    _legs,
    _other,
    _toward,
    _transports,
    canonical_scalar,
    check_axioms,
    conjugate,
    cross_ratio_abs,
    format_arrow,
    from_model,
    parse_arrow,
    tri_rapport_abs,
    validate_structure,
)
from projline.coordinatize import (
    CoordinatizationError, Frame, coordinatize, verify_iso, verify_uniqueness,
)
from projline.model import cross_ratio, label_to_arrow, points, tri_rapport
from projline.reconstruct import (
    ReconstructionError, build_field, classify_prime, phi, reconstruct_minus_one, verify_field,
)
from projline.scalars import GF


@pytest.fixture(scope="module")
def f5_doc():
    return from_model(5).to_doc()


def table5(f5_doc):
    return CandidateTable.from_doc(f5_doc)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_from_model_counts(p):
    t = from_model(p)
    n = p + 1
    assert t.n_objects == n
    nonendo = sum(isinstance(a, NonEndo) for a in t.arrows)
    endo = sum(isinstance(a, Endo) for a in t.arrows)
    assert nonendo == n * (n - 1) * (n - 2)
    assert endo == n * (p - 1)
    for a in t.objects:
        assert len(t.hom(a, a)) == n - 2
        for b in t.objects:
            if b != a:
                assert len(t.hom(a, b)) == n - 2


def test_from_model_composition_matches_concrete_arrows():
    p = 3
    t = from_model(p)
    pts = points(GF(p))
    by_name = {str(q): q for q in pts}
    for f in t.arrows:
        for g in t.arrows:
            if isinstance(f, Endo) or isinstance(g, Endo):
                continue
            if f.dst != g.src:
                continue
            mf = label_to_arrow(by_name[f.src], by_name[f.dst], by_name[f.label])
            mg = label_to_arrow(by_name[g.src], by_name[g.dst], by_name[g.label])
            got = t.compose(f, g)
            want_factor = mf.factor * mg.factor
            if f.src == g.dst:
                assert got == Endo(f.src, str(want_factor))
            else:
                mh = label_to_arrow(by_name[f.src], by_name[g.dst], by_name[got.label])
                assert mh.factor == want_factor


def test_identity_and_inverse_arrows():
    t = from_model(5)
    assert t.identity_arrow("2:1") == Endo("2:1", "1")
    f = NonEndo("0:1", "1:1", "3:1")
    g = t.inverse_arrow(f)
    assert t.compose(f, g) == t.identity_arrow("0:1")
    assert t.compose(g, f) == t.identity_arrow("1:1")


def test_an_unknown_object_is_named():
    t = from_model(3)
    for name in ("zz", ["zz"]):
        for call in (lambda: t.hom(name, "0:1"), lambda: t.hom("0:1", name),
                     lambda: t.identity_arrow(name)):
            assert outcome(call) == (CandidateFormatError, f"unknown object {name!r}")
    assert outcome(canonical_scalar, t, Endo("0:1", "1"), ["zz"]) == (
        CandidateFormatError, "unknown base object ['zz']"
    )
    assert t.hom("0:1", "0:1") == (Endo("0:1", "1"), Endo("0:1", "2"))


def test_transport_names_an_arrow_of_the_wrong_kind():
    t = from_model(5)
    sigma, f = Endo("0:1", "2"), NonEndo("0:1", "1:0", "1:1")
    assert outcome(conjugate, t, f, f) == (ValueError, "0:1>1:1>1:0 is not a scalar")
    assert outcome(conjugate, t, sigma, sigma) == (
        ValueError, "0:1#2 is not an arrow between distinct objects"
    )
    for base in ("0:1", "1:0", "2:1"):
        assert outcome(canonical_scalar, t, f, base) == (ValueError, "0:1>1:1>1:0 is not a scalar")
    # Unknown arrows and objects are named as before.
    assert outcome(canonical_scalar, t, NonEndo("0:1", "1:0", "9:9"), "1:0") == (
        CandidateFormatError, "unknown arrow 0:1>9:9>1:0"
    )
    assert outcome(canonical_scalar, t, f, "9:9") == (
        CandidateFormatError, "unknown base object '9:9'"
    )


def test_arrow_text_round_trip():
    for s in ("0:1>1:1>1:0", "2:1#4", "a>b>c", "x#one"):
        assert format_arrow(parse_arrow(s)) == s
    with pytest.raises(CandidateFormatError):
        parse_arrow("a>b")
    with pytest.raises(CandidateFormatError):
        parse_arrow("a>b#c")
    with pytest.raises(CandidateFormatError):
        parse_arrow("plain")


def test_json_round_trip_and_determinism(f5_doc, tmp_path):
    t = table5(f5_doc)
    assert CandidateTable.from_doc(t.to_doc()) == t
    assert t.to_json_bytes() == table5(f5_doc).to_json_bytes()
    path = tmp_path / "t.json"
    t.save(str(path))
    assert CandidateTable.load(str(path)) == t
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    assert b": " not in raw  # compact separators


def test_compose_entries_sorted(f5_doc):
    entries = f5_doc["compose"]
    assert entries == sorted(entries, key=lambda e: (e[0], e[1]))


@pytest.mark.parametrize(
    "breakage",
    [
        lambda d: d.pop("compose"),
        lambda d: d.update(format=2),
        lambda d: d.update(objects=d["objects"][:2]),
        lambda d: d["compose"].append(d["compose"][0]),
        lambda d: d["compose"][0].__setitem__(2, "0:1>9:1>1:1"),
        lambda d: d["identity"].update({"0:1": "7"}),
        lambda d: d["scalars"].pop("0:1"),
        lambda d: d["compose"].pop(),
    ],
)
def test_malformed_documents_rejected(f5_doc, breakage):
    doc = json.loads(json.dumps(f5_doc))
    breakage(doc)
    with pytest.raises(CandidateFormatError):
        CandidateTable.from_doc(doc)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_loaded_table_writes_the_same_bytes(p):
    raw = from_model(p).to_json_bytes()
    assert CandidateTable.from_doc(json.loads(raw)).to_json_bytes() == raw


def _collections_inside(call) -> int:
    """The garbage collections that start while ``call()`` runs.

    It starts from an empty young generation, so the few objects a call
    allocates before it pauses the collector cannot start one.
    """
    starts = []

    def probe(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(probe)
    try:
        call()
    finally:
        gc.callbacks.remove(probe)
    return len(starts)


def test_loading_and_exporting_run_no_garbage_collection(tmp_path):
    table = from_model(7)
    path = str(tmp_path / "f7.json")
    table.save(path)
    assert gc.isenabled()
    assert _collections_inside(lambda: CandidateTable.load(path)) == 0
    assert _collections_inside(table.to_json_bytes) == 0


def test_parsing_a_document_runs_no_garbage_collection(tmp_path):
    """Spaced bytes are not canonical, so they are parsed as a document."""
    table = from_model(7)
    path = tmp_path / "f7.json"
    path.write_text(json.dumps(table.to_doc(), indent=1))
    assert formats._from_canonical(path.read_bytes()) is None
    assert _collections_inside(lambda: CandidateTable.load(str(path))) == 0


def test_load_drops_the_bytes_before_the_table_is_built(tmp_path, monkeypatch):
    """Memory traced as the parsed document reaches _from_parsed: through
    load, and through from_doc with the caller holding the bytes."""
    path = tmp_path / "f7.json"
    path.write_text(json.dumps(from_model(7).to_doc(), indent=1))
    traced = []
    real = formats._from_parsed

    def recording(doc):
        traced.append(tracemalloc.get_traced_memory()[0])
        return real(doc)

    monkeypatch.setattr(formats, "_from_parsed", recording)
    tracemalloc.start()
    try:
        CandidateTable.load(str(path))
        data = path.read_bytes()
        CandidateTable.from_doc(data)
    finally:
        tracemalloc.stop()
    assert traced[1] - traced[0] > 0.9 * len(data)


@pytest.mark.parametrize("enabled", [True, False])
def test_loading_and_exporting_restore_the_collector(tmp_path, enabled):
    table = from_model(5)
    good, bad = str(tmp_path / "good.json"), str(tmp_path / "bad.json")
    table.save(good)
    with open(bad, "w") as fh:
        fh.write("{not json")
    calls = [
        (lambda: CandidateTable.load(good), None),
        (lambda: CandidateTable.load(bad), CandidateFormatError),
        (lambda: CandidateTable.load(str(tmp_path / "absent.json")), OSError),
        (table.to_json_bytes, None),
    ]
    (gc.enable if enabled else gc.disable)()
    try:
        for call, raises in calls:
            with contextlib.nullcontext() if raises is None else pytest.raises(raises):
                call()
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("cap", [-1, -3])
def test_every_checker_refuses_a_negative_witness_cap(f5_doc, cap):
    # A negative cap would keep all but the last witnesses of a failing check.
    mutant = CandidateTable.from_doc(seeded_mutation(f5_doc, 0))
    model = from_model(5)
    iso = coordinatize(model)
    calls = {
        "validate_structure": lambda: validate_structure(mutant, max_witnesses=cap),
        "check_axioms": lambda: check_axioms(mutant, max_witnesses=cap),
        "verify_field": lambda: verify_field(build_field(model), max_witnesses=cap),
        "verify_iso": lambda: verify_iso(model, iso, max_witnesses=cap),
        "verify_uniqueness": lambda: verify_uniqueness(model, max_witnesses=cap),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=f"^max_witnesses must be at least 0, got {cap}$"):
            call()
    report = validate_structure(mutant, max_witnesses=0).check("associativity")
    assert report.failures > 0 and report.witnesses == []


def test_declared_size_bomb_is_rejected_before_the_table_is_built():
    # The kept arrow space is warm, and the entry count is still compared first.
    from_model(5)
    names = [f"o{i}" for i in range(200)]
    doc = {
        "format": 1,
        "objects": names,
        "scalars": {o: ["1"] for o in names},
        "identity": {o: "1" for o in names},
        "compose": [],
    }
    start = time.perf_counter()
    with pytest.raises(CandidateFormatError, match="compose table has 0 entries"):
        CandidateTable.from_doc(doc)
    assert time.perf_counter() - start < 1.0


def test_constructor_and_document_loader_agree(f5_doc):
    entries = [tuple(parse_arrow(x) for x in e) for e in f5_doc["compose"]]
    args = (f5_doc["objects"], f5_doc["scalars"], f5_doc["identity"])
    assert CandidateTable(*args, entries) == CandidateTable.from_doc(f5_doc)
    edits = [
        lambda es: es.__setitem__(7, es[3]),
        lambda es: es.__setitem__(7, (es[7][0], es[7][1], Endo("0:1", "9"))),
        lambda es: es.__setitem__(7, (es[7][1], es[7][0], es[7][2])),
        lambda es: es.pop(),
    ]
    for edit in edits:
        bad = list(entries)
        edit(bad)
        doc = dict(f5_doc, compose=[[str(x) for x in e] for e in bad])
        with pytest.raises(CandidateFormatError) as by_doc:
            CandidateTable.from_doc(doc)
        with pytest.raises(CandidateFormatError) as by_args:
            CandidateTable(*args, bad)
        assert str(by_args.value) == str(by_doc.value)


def test_noncomposable_entry_rejected(f5_doc):
    doc = json.loads(json.dumps(f5_doc))
    # retarget a result onto a pair that does not chain
    doc["compose"][0][1] = "2:1>4:1>3:1"
    with pytest.raises(CandidateFormatError):
        CandidateTable.from_doc(doc)


def test_bad_names_rejected():
    with pytest.raises(CandidateFormatError):
        CandidateTable(["a>b", "c", "d"], {"a>b": ["1"], "c": ["1"], "d": ["1"]}, {}, [])
    with pytest.raises(CandidateFormatError):
        CandidateTable(
            ["a", "b", "c"],
            {"a": ["1", "1"], "b": ["1"], "c": ["1"]},
            {"a": "1", "b": "1", "c": "1"},
            [],
        )


@pytest.mark.parametrize("p", [2, 3, 5])
def test_model_tables_validate_and_satisfy_axioms(p):
    t = from_model(p)
    s = validate_structure(t)
    assert s.passed
    assert [c.name for c in s.checks] == [
        "objects",
        "endpoints",
        "identity",
        "inverses",
        "associativity",
        "transitivity",
        "homsets",
    ]
    a = check_axioms(t)
    assert a.passed
    assert [c.name for c in a.checks] == list(AXIOM_NAMES)


def test_homsets_needs_endo_counts_of_n_minus_two():
    homsets = validate_structure(four_object_table()).check("homsets")
    assert (homsets.status, homsets.checked, homsets.failures) == ("fail", 4, 4)
    assert homsets.witnesses[0] == "homsets(a): endo count 1, but each non-endo homset has 2"


def test_vacuity_pattern_smallest_table():
    # with only three objects nothing quantifies over four distinct ones
    a = check_axioms(from_model(2))
    status = {c.name: c.status for c in a.checks}
    assert status == {
        "one": "pass",
        "two": "vacuous",
        "pappus": "pass",
        "hex1": "vacuous",
        "hex2": "pass",
        "as": "vacuous",
    }
    b = check_axioms(from_model(3))
    assert all(c.status == "pass" for c in b.checks)


def test_axiom_subset_and_unknown_names():
    t = from_model(3)
    r = check_axioms(t, which=["hex2", "one"])
    assert [c.name for c in r.checks] == ["one", "hex2"]  # canonical order
    with pytest.raises(ValueError):
        check_axioms(t, which=["bogus"])


def test_arrows_are_numbered_source_major(f5_doc):
    # The associativity sweep and _pairs read each object's outgoing
    # arrows as one index range, and each homset as one subrange.
    reordered = dict(f5_doc, objects=f5_doc["objects"][::-1])
    for t in (from_model(5), CandidateTable.from_doc(reordered)):
        ends = [tuple(t._obj_i[o] for o in _ends(a)) for a in t.arrows]
        assert ends == sorted(ends)
        assert ends == list(zip(t._src_i.tolist(), t._dst_i.tolist()))
        assert len(set(t.arrows)) == t.n_arrows
        for a, b in itertools.product(t.objects, repeat=2):
            assert set(t.hom(a, b)) == {x for x in t.arrows if _ends(x) == (a, b)}


_F5, _F7 = from_model(5).to_doc(), from_model(7).to_doc()
NO_INVERSE = ("0:1#3", "0:1#5", "0:1#4")

# Documents that load but differ from a model table: relabeled, with one
# entry rewritten inside or across homsets, or without an inverse.
EDITED_DOCS = {
    **{f"relabel-f7-{seed}": (relabel, _F7, seed) for seed in (0, 1)},
    **{
        f"{fn.__name__}-f{len(doc['objects']) - 1}-{seed}": (fn, doc, seed)
        for fn in (seeded_mutation, cross_homset_mutation)
        for doc in (_F5, _F7)
        for seed in range(3)
    },
    "no-inverse-f7": (lambda doc, _: rewrite_entry(doc, *NO_INVERSE), _F7, None),
}


def edited_doc(name: str) -> dict:
    fn, doc, seed = EDITED_DOCS[name]
    return fn(doc, seed)


def layout_table(case: str) -> CandidateTable:
    if case.startswith("model-"):
        return from_model(int(case.removeprefix("model-")))
    if case == "four-objects":
        return four_object_table()
    return CandidateTable.from_doc(edited_doc(case))


@pytest.mark.parametrize(
    "case", [f"model-{p}" for p in (2, 3, 5, 7, 11)] + list(EDITED_DOCS) + ["four-objects"]
)
def test_pairs_inverses_and_homsets_match_the_references(case):
    t = layout_table(case)
    pairs = t._pairs()
    want = np.nonzero(t._comp >= 0)
    assert all(np.array_equal(x, y) for x, y in zip(pairs, want))
    assert np.array_equal(t._inv, reference_inverses(t))
    for a, b in itertools.product(t.objects, repeat=2):
        assert t.hom(a, b) == reference_hom(t, a, b)
    if case == "no-inverse-f7":
        assert (t._inv < 0).any()


def _nodes_in(tree: ast.AST, names: tuple[str, ...]) -> set[int]:
    """The ids of every node inside the functions called one of ``names``."""
    return {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in names
        for node in ast.walk(fn)
    }


def test_only_composite_and_store_name_the_composition_store():
    # ... and only _store assigns the inverses, so they always match the store.
    for name in ("candidate", "formats", "reconstruct", "coordinatize"):
        module = importlib.import_module(f"projline.{name}")
        tree = ast.parse(inspect.getsource(module))
        owners = _nodes_in(tree, ("_composite", "_store"))
        stray = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_comp" and id(node) not in owners
        ]
        assert stray == [], f"projline.{name} names _comp on lines {stray}"
        store = _nodes_in(tree, ("_store",))
        # x._inv = ..., x._inv += ... and x._inv[...] = ... all write it.
        targets = [
            node.value if isinstance(node, ast.Subscript) else node
            for node in ast.walk(tree)
            if isinstance(node, (ast.Attribute, ast.Subscript))
            and not isinstance(node.ctx, ast.Load) and id(node) not in store
        ]
        written = [
            node.lineno for node in targets
            if isinstance(node, ast.Attribute) and node.attr == "_inv"
        ]
        assert written == [], f"projline.{name} assigns _inv on lines {written}"


def test_only_store_and_forced_name_the_kept_forced_map():
    # _store drops the forced map whenever it writes the composites, so
    # the map a table keeps cannot outlive the store it was built from.
    for name in ("candidate", "formats", "reconstruct", "coordinatize"):
        module = importlib.import_module(f"projline.{name}")
        tree = ast.parse(inspect.getsource(module))
        owners = _nodes_in(tree, ("_store", "_forced"))
        stray = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_forcing" and id(node) not in owners
        ]
        assert stray == [], f"projline.{name} names _forcing on lines {stray}"


def test_reconstruct_and_coordinatize_read_homsets_through_homset():
    # The arrow numbering is candidate's: these modules read a homset as a
    # CandidateTable._homset range and never index the offsets behind it.
    for name in ("reconstruct", "coordinatize"):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"projline.{name}")))
        stray = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_hom"
        ]
        assert stray == [], f"projline.{name} names _hom on lines {stray}"


def _package_trees() -> dict[str, ast.Module]:
    """The syntax tree of every module of the package, by module name."""
    package = Path(inspect.getfile(projline)).parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


def _imported(tree: ast.Module) -> set[str]:
    """The top-level names of the modules that ``tree`` imports absolutely."""
    return {
        name.split(".")[0]
        for node in ast.walk(tree)
        for name in (
            [a.name for a in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else []
        )
    }


# The format-1 readers' and writer's helpers, which only formats may define or name.
FORMAT_HELPERS = {
    "_from_canonical", "_from_parsed", "_composites", "_json_blocks",
    "_entries", "_encodings", "_fill", "_resolve", "_Layout", "_layout",
}


def test_only_formats_knows_document_bytes():
    # ... and cli imports json only to write its reports.
    trees = _package_trees()
    assert {m for m, tree in trees.items() if "gc" in _imported(tree)} == {"formats"}
    assert {m for m, tree in trees.items() if "json" in _imported(tree)} == {"formats", "cli"}
    uses = {
        node.attr for node in ast.walk(trees["cli"])
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "json"
    }
    assert uses == {"dumps"}
    for name, tree in trees.items():
        if name == "formats":
            continue
        named = [
            node.lineno for node in ast.walk(tree)
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in FORMAT_HELPERS)
            or (isinstance(node, ast.Name) and node.id in FORMAT_HELPERS)
            or (isinstance(node, ast.Attribute) and node.attr in FORMAT_HELPERS)
            or (isinstance(node, ast.alias) and node.name in FORMAT_HELPERS)
        ]
        assert named == [], f"projline.{name} names a format-1 helper on lines {named}"


def test_formats_reaches_the_table_through_bare_store_and_composite():
    """The readers start a table with _bare and fill it with _store; the
    writer reads composites with _composite.  No other private method of
    the table is called from formats."""
    methods = {m for m in dir(CandidateTable) if m.startswith("_") and not m.startswith("__")}
    calls: dict[str, set[str]] = {}
    for fn in ast.walk(ast.parse(inspect.getsource(formats))):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in methods:
                    calls.setdefault(node.func.attr, set()).add(fn.name)
    assert calls == {
        "_bare": {"_from_parsed", "_from_canonical"},
        "_store": {"_from_parsed", "_from_canonical"},
        "_composite": {"to_doc", "_json_blocks"},
    }


# The module of every public function and class.  perfbench names its
# spans and per-layer metrics after it, so no public name may move.
PUBLIC_MODULES = {
    "projline.scalars": [
        "GF", "FieldElement", "FieldMismatchError", "PrimeField", "RationalField",
    ],
    "projline.model": [
        "arrow_to_label", "cross_ratio", "harmonic_conjugate", "label_to_arrow", "minus_one",
        "points", "tri_rapport", "verify_classical_tables", "DegenerateHarmonicError",
        "ModelArrow", "Point",
    ],
    "projline.candidate": [
        "canonical_scalar", "check_axioms", "conjugate", "cross_ratio_abs", "format_arrow",
        "from_model", "parse_arrow", "tri_rapport_abs", "validate_structure",
        "CandidateFormatError", "CandidateTable", "Endo", "NonEndo",
    ],
    "projline.reconstruct": [
        "build_field", "classify_prime", "phi", "reconstruct_minus_one", "verify_field",
        "Classification", "FieldTable", "ReconstructionError",
    ],
    "projline.coordinatize": [
        "coordinatize", "verify_iso", "verify_uniqueness", "CandidateIso",
        "CoordinatizationError", "Frame",
    ],
    "projline.reports": ["CheckReport", "ReportGroup"],
}


def test_public_names_keep_their_modules():
    want = {name: module for module, names in PUBLIC_MODULES.items() for name in names}
    # QQ is a field and AbstractArrow a Union: neither has a module of its own.
    assert set(projline.__all__) == set(want) | {"QQ", "AbstractArrow"}
    got = {
        name: getattr(projline, name).__module__
        for name in projline.__all__
        if inspect.isfunction(getattr(projline, name)) or inspect.isclass(getattr(projline, name))
    }
    assert got == want
    for name in ("from_doc", "load", "save", "to_json_bytes", "to_doc"):
        assert callable(getattr(CandidateTable, name)), name
    assert CandidateTable.FORMAT == formats.FORMAT == 1


# What every table over one space shares: candidate._arrow_space's keys.
SHARED = (
    "_obj_i", "_hom", "_ne3", "_names", "_name_i", "_hom_i", "_src_i", "_dst_i", "_id_idx", "_memo",
)


def _arrays(x) -> list[np.ndarray]:
    """The arrays in ``x``, a memo or a value in one, at any depth."""
    if isinstance(x, np.ndarray):
        return [x]
    items = x.values() if isinstance(x, dict) else x if isinstance(x, (tuple, list)) else []
    return [a for item in items for a in _arrays(item)]


def test_tables_over_one_space_share_its_arrays_and_own_the_rest(f5_doc, tmp_path):
    path = tmp_path / "f5.json"
    from_model(5).save(str(path))
    tables = [
        from_model(5), CandidateTable.from_doc(f5_doc), CandidateTable.load(str(path)),
        CandidateTable.from_doc(seeded_mutation(f5_doc, 0)),
    ]
    first, *rest = tables
    # Fill the memo: a write, a check and a reconstruction.
    CandidateTable.from_doc(first.to_json_bytes())
    validate_structure(first), check_axioms(first), build_field(first)
    for name in SHARED:
        value = getattr(first, name)
        assert all(getattr(t, name) is value for t in rest), name
        for array in _arrays(value):
            with pytest.raises(ValueError, match="read-only"):
                array[..., 0] = 0
    assert len(_arrays(first._memo)) > 20
    for name in ("_comp", "_inv", "scalars", "identities"):
        assert len({id(getattr(t, name)) for t in tables}) == len(tables), name
    # What one table builds or changes stays its own.
    coordinatize(first)
    assert first._forcing is not None and all(t._forcing is None for t in rest)
    assert first.arrows == rest[0].arrows and first.arrows is not rest[0].arrows
    first.scalars["0:1"] = ("9",)
    first.identities["0:1"] = "9"
    first._comp[0, 0] = first._comp[0, 1]
    assert [t.scalars["0:1"] for t in rest] == [("1", "2", "3", "4")] * 3
    assert [t.identities["0:1"] for t in rest] == ["1"] * 3
    assert rest[0] == rest[1] != rest[2] and validate_structure(rest[0]).passed
    assert CandidateTable.from_doc(f5_doc) == rest[0]


# The memo entries of a header: the key of each, its build function and arguments.
MEMO_KEYS = {
    (formats._layout,), (formats._spans,), (formats._placed, b",", 1), (candidate._block_maps,),
    (candidate._inverse_candidates,), (candidate._distinct, 3), (candidate._distinct, 4),
}


def _fill_memo(t: CandidateTable) -> None:
    """Write, check and reconstruct ``t``: every reader of the memo but the in-place loader."""
    t.to_json_bytes()
    validate_structure(t), check_axioms(t), build_field(t)


def test_a_header_builds_each_memo_entry_once(monkeypatch):
    empty_slot(monkeypatch)
    first = from_model(5)
    assert list(first._memo) == [(candidate._inverse_candidates,)]
    second = CandidateTable.from_doc(first.to_json_bytes())
    assert second._memo is first._memo
    _fill_memo(first)
    built = dict(first._memo)
    assert set(built) == MEMO_KEYS
    _fill_memo(second)
    assert second._memo == built and all(second._memo[k] is v for k, v in built.items())
    third = from_model(7)
    assert third._memo is not first._memo
    CandidateTable.from_doc(third.to_json_bytes())
    _fill_memo(third)
    assert set(third._memo) == MEMO_KEYS
    assert all(third._memo[k] is not v for k, v in built.items())
    assert first._memo == built


def test_a_table_whose_header_left_the_slot_keeps_its_own_memo():
    old = from_model(5)
    _fill_memo(old)
    kept = dict(old._memo)
    current = from_model(7)
    _fill_memo(current)
    now = dict(current._memo)
    _fill_memo(old)
    # The old table neither rebuilds its entries nor evicts the current header.
    assert all(old._memo[k] is v for k, v in kept.items())
    assert from_model(7)._memo is current._memo
    assert all(current._memo[k] is v for k, v in now.items())


def test_formats_holds_no_module_level_mutable_state(f5_doc):
    CandidateTable.from_doc(from_model(5).to_json_bytes())
    CandidateTable.from_doc(f5_doc).to_doc()

    def frozen(x) -> bool:
        if isinstance(x, tuple):
            return all(map(frozen, x))
        return isinstance(x, (int, str, bytes, frozenset, type(None)))

    for name, value in vars(formats).items():
        kind = type(value).__module__
        assert (
            name.startswith("__") or inspect.ismodule(value) or inspect.isclass(value)
            or inspect.isroutine(value) or kind in ("typing", "__future__") or frozen(value)
        ), name


def test_every_reader_writes_the_store_once(monkeypatch, f5_doc, tmp_path):
    calls = []
    store = CandidateTable._store

    def counting(self, *args):
        calls.append(self)
        store(self, *args)

    monkeypatch.setattr(CandidateTable, "_store", counting)
    path = tmp_path / "f5.json"
    from_model(5).save(str(path))
    swapped = copy.deepcopy(f5_doc)
    swapped["compose"][:2] = swapped["compose"][1::-1]
    readers = {
        "from_model": lambda: from_model(5),
        "parsed": lambda: CandidateTable.from_doc(f5_doc),
        "canonical": lambda: CandidateTable.from_doc(path.read_bytes()),
        "parsed-bytes": lambda: CandidateTable.from_doc(json.dumps(swapped).encode()),
        "load": lambda: CandidateTable.load(str(path)),
        "constructor": four_object_table,
    }
    for name, read in readers.items():
        calls.clear()
        t = read()
        assert calls == [t], name
        assert t._forcing is None, name


_UNHASHABLE_NAMES = {
    "compose": (lambda d, x: d["compose"][4].__setitem__(1, x), "arrow must be a string, got {!r}"),
    "object": (lambda d, x: d["objects"].__setitem__(2, x),
               "object name {!r} is invalid (nonempty, no '>', '#', ',' or whitespace)"),
    "scalar": (lambda d, x: d["scalars"]["1:0"].__setitem__(1, x),
               "scalar name {!r} is invalid (nonempty, no '>', '#', ',' or whitespace)"),
}


@pytest.mark.parametrize("place", list(_UNHASHABLE_NAMES))
def test_a_name_that_cannot_be_hashed_is_refused_as_a_list_is(f5_doc, place):
    # A tuple holding a list is a collections.abc.Hashable that hash() refuses.
    edit, message = _UNHASHABLE_NAMES[place]
    for name in (["x"], ("0:1", ["x"])):
        doc = copy.deepcopy(f5_doc)
        edit(doc, name)
        assert outcome(CandidateTable.from_doc, doc) == (CandidateFormatError, message.format(name))


# Each entry point given one object name, ``x``, in one of its places.
_NAMED = {
    "reconstruct_minus_one": lambda t, x: reconstruct_minus_one(t, x),
    "build_field": lambda t, x: build_field(t, x),
    "phi-base": lambda t, x: phi(t, x, "2"),
    "phi-b": lambda t, x: phi(t, "0:1", "2", b=x),
    "phi-c": lambda t, x: phi(t, "0:1", "2", c=x),
    "coordinatize": lambda t, x: coordinatize(t, Frame(x, "1:0", "1:1")),
    "coordinatize-infinity": lambda t, x: coordinatize(t, Frame("0:1", x, "1:1")),
    "verify_uniqueness": lambda t, x: verify_uniqueness(t, Frame("0:1", "1:0", x)),
    "cross_ratio_abs-a": lambda t, x: cross_ratio_abs(t, x, "1:0", "1:1", "2:1"),
    "cross_ratio_abs-b": lambda t, x: cross_ratio_abs(t, "0:1", x, "1:1", "2:1"),
    "cross_ratio_abs-c": lambda t, x: cross_ratio_abs(t, "0:1", "1:0", x, "2:1"),
    "tri_rapport_abs-a": lambda t, x: tri_rapport_abs(t, x, "1:0", "1:1", "2:1", "3:1", "2:1"),
    "tri_rapport_abs-b": lambda t, x: tri_rapport_abs(t, "0:1", x, "1:1", "2:1", "3:1", "2:1"),
    "tri_rapport_abs-c": lambda t, x: tri_rapport_abs(t, "0:1", "1:0", x, "2:1", "3:1", "2:1"),
}


@pytest.mark.parametrize("name", [["x"], ("x", ["y"])], ids=["list", "tuple-holding-a-list"])
@pytest.mark.parametrize("call", list(_NAMED))
def test_an_unhashable_name_gets_the_error_of_an_unknown_one(call, name):
    t = from_model(5)
    kind, message = outcome(_NAMED[call], t, "9:9")
    assert kind in (ReconstructionError, CoordinatizationError, CandidateFormatError), message
    assert "unknown" in message or "is not in the table" in message
    want = message.replace("'9:9'", repr(name)).replace("9:9", str(name))
    assert outcome(_NAMED[call], t, name) == (kind, want)
    # A frame compares its members without hashing them.
    assert Frame(name, "1:0", "1:1").zero == name
    with pytest.raises(CoordinatizationError, match="pairwise distinct"):
        Frame(name, "1:0", copy.deepcopy(name))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_label_factors_equal_the_model_factors(p):
    pts = points(GF(p))
    a, b, c = np.array(list(itertools.permutations(range(p + 1), 3))).T
    want = [
        int(label_to_arrow(pts[x], pts[y], pts[z]).factor.value)
        for x, y, z in zip(a.tolist(), b.tolist(), c.tolist())
    ]
    assert ModelLine(p).factor[a, b, c].tolist() == want


@pytest.mark.parametrize("p", [2, 3, 13])
def test_from_model_matches_the_pairwise_reference(p):
    t, ref = from_model(p), reference_from_model(p)
    assert t == ref
    assert t._comp.dtype == ref._comp.dtype


@pytest.mark.parametrize("case", list(EDITED_DOCS))
def test_edited_documents_round_trip(case):
    doc = edited_doc(case)
    assert CandidateTable.from_doc(doc).to_doc() == dict(doc, compose=sorted(doc["compose"]))


def test_constructor_table_round_trips():
    t = four_object_table()
    assert CandidateTable.from_doc(t.to_doc()) == t


@pytest.mark.parametrize("name", ["one", "two", "pappus", "hex1", "hex2", "as"])
def test_each_documented_mutation_trips_its_axiom(f5_doc, name):
    t = CandidateTable.from_doc(mutate_doc(f5_doc, name))
    report = check_axioms(t, which=[name])
    c = report.check(name)
    assert c.status == "fail"
    assert c.failures > 0
    assert c.witnesses and name in c.witnesses[0]


def test_mutations_also_break_structure_or_more(f5_doc):
    # the same single-entry edits are caught by the full pipeline too
    for name in MUTATIONS:
        t = CandidateTable.from_doc(mutate_doc(f5_doc, name))
        s = validate_structure(t)
        a = check_axioms(t)
        assert not (s.passed and a.passed), name


def test_conjugation_is_path_independent():
    t = from_model(5)
    sigma = Endo("1:1", "3")
    values = set()
    for label in t.objects:
        if label in ("1:1", "0:1"):
            continue
        values.add(conjugate(t, sigma, NonEndo("1:1", "0:1", label)))
    assert len(values) == 1
    moved = values.pop()
    assert canonical_scalar(t, sigma, "0:1") == moved
    assert canonical_scalar(t, moved, "0:1") == moved  # already at base
    with pytest.raises(ValueError):
        conjugate(t, sigma, NonEndo("0:1", "1:1", "2:1"))  # wrong source


def test_canonical_scalar_rejects_unknown_objects():
    t = from_model(5)
    sigma = Endo("9:9", "1")
    assert outcome(canonical_scalar, t, sigma, "0:1") == outcome(t.arrow_index, sigma)
    assert outcome(t.arrow_index, sigma) == (CandidateFormatError, "unknown arrow 9:9#1")
    assert outcome(canonical_scalar, t, Endo("1:1", "3"), "9:9") == (
        CandidateFormatError,
        "unknown base object '9:9'",
    )
    # A scalar already at the base is checked like any other.
    for sigma in (Endo("9:9", "1"), Endo("0:1", "x")):
        assert outcome(canonical_scalar, t, sigma, sigma.obj) == (
            CandidateFormatError,
            f"unknown arrow {sigma}",
        )


def _distinct_pairs(n):
    return np.array(list(itertools.permutations(range(n), 2))).T


@pytest.mark.parametrize("n", range(3, 9))
def test_toward_is_the_arrow_named_by_the_least_other_object(n):
    # Names run against index order, so only the index can pick the label.
    objs = [f"o{k}" for k in reversed(range(n))]
    t = CandidateTable._bare(*_check_space(objs, {o: ["1"] for o in objs}, {o: "1" for o in objs}))
    x, y = _distinct_pairs(n)
    got = _toward(t, x, y)
    for xi, yi, arrow in zip(x.tolist(), y.tolist(), got.tolist()):
        least = min(set(range(n)) - {xi, yi})
        assert t.arrows[arrow] == NonEndo(objs[xi], objs[yi], objs[least])
        assert _toward(t, xi, yi) == arrow


# Object names out of index order, and 1 to 4 scalars per object.
UNEVEN = (["c", "a", "d", "b"], {"c": ["1"], "a": ["x", "1"], "d": ["1", "2", "3"],
                                 "b": ["4", "3", "2", "1"]})


def _uneven_space():
    objs, scalars = UNEVEN
    return _check_space(objs, scalars, {o: "1" for o in objs})


def test_arrow_numbering_is_the_rank_rule():
    t = CandidateTable._bare(*_uneven_space())
    O, n = t.objects, t.n_objects
    seen = []
    for s, d, l in itertools.product(range(n), repeat=3):
        i = int(t._ne3[s, d, l])
        if len({s, d, l}) == 3:
            assert t._names[i] == f"{O[s]}>{O[l]}>{O[d]}"
            seen.append(i)
        else:
            assert i == -1
    for o in range(n):
        block = t._homset(o, o)
        assert t._names[block] == [f"{O[o]}#{x}" for x in t.scalars[O[o]]]
        seen += range(block.start, block.stop)
    assert sorted(seen) == list(range(t.n_arrows)) == list(range(len(t._names)))
    assert [t._names[i] for i in t._id_idx] == [f"{o}#1" for o in O]
    x, y = _distinct_pairs(n)
    assert np.array_equal(_toward(t, x, y), [_toward(t, xi, yi) for xi, yi in zip(x, y)])
    for xi, yi in zip(x.tolist(), y.tolist()):
        least = min(set(range(n)) - {xi, yi})
        assert t._names[_toward(t, xi, yi)] == f"{O[xi]}>{O[least]}>{O[yi]}"
    for xi in range(n):
        rest = [o for o in range(n) if o != xi]
        assert [_other(xi, k) for k in range(n - 1)] == rest
        assert _other(np.full(n - 1, xi), np.arange(n - 1)).tolist() == rest
        assert _other(np.arange(n), 0).tolist() == [int(o == 0) for o in range(n)]


def _arrows_one_by_one(t):
    """The arrows of ``t`` in index order, built as objects one homset at a time."""
    arrows = []
    for s in t.objects:
        for d in t.objects:
            if s == d:
                arrows.extend(Endo(s, x) for x in t.scalars[s])
            else:
                arrows.extend(NonEndo(s, d, lab) for lab in t.objects if lab not in (s, d))
    return tuple(arrows)


@pytest.mark.parametrize("case", ["uneven", "model-3", "relabel-f7-0"])
def test_arrows_are_parsed_from_the_names_on_first_read(case):
    if case == "uneven":
        t = CandidateTable._bare(*_uneven_space())
    else:
        t = CandidateTable.from_doc(REFERENCE_CASES[case]())
    assert "arrows" not in vars(t)
    assert t.n_arrows == len(t._names)
    want = _arrows_one_by_one(t)
    assert t.arrows == want and t.arrows is t.arrows
    assert [str(a) for a in want] == t._names
    assert all(type(a) is type(b) for a, b in zip(t.arrows, want))


def test_no_pipeline_stage_builds_arrow_objects(tmp_path):
    def unbuilt(t):
        assert "arrows" not in vars(t)
        return t

    path = tmp_path / "f5.json"
    from_model(5).save(path)
    t = unbuilt(CandidateTable.load(path))
    assert validate_structure(unbuilt(t)).passed and check_axioms(unbuilt(t)).passed
    ft = build_field(unbuilt(t))
    assert classify_prime(ft, verify_field(ft)).is_prime_field
    assert coordinatize(unbuilt(t)).verified
    assert verify_uniqueness(unbuilt(t))[0].passed
    assert unbuilt(t).to_json_bytes() == path.read_bytes()
    assert unbuilt(t).to_doc()["compose"]
    unbuilt(t)

    # A composite with the wrong endpoints fails several layers and axioms,
    # each with witnesses that name arrows.
    doc = rewrite_entry(from_model(5).to_doc(), "1:1>3:1>4:1", "4:1>1:0>1:1", "1:1>4:1>3:1")
    path.write_text(json.dumps(doc))
    t = unbuilt(CandidateTable.load(path))
    groups = [validate_structure(unbuilt(t)), check_axioms(unbuilt(t))]
    unbuilt(t)
    for group in groups:
        failing = [c for c in group.checks if c.status == "fail"]
        assert failing and all(c.witnesses for c in failing)
    # Tables that are no groupoid fail reconstruction with messages that name arrows.
    for entry, text in NON_GROUPOID.values():
        t = unbuilt(CandidateTable.from_doc(rewrite_entry(from_model(7).to_doc(), *entry)))
        kind, message = outcome(build_field, t)
        assert kind is ReconstructionError and text in message
        unbuilt(t)


@pytest.mark.parametrize("case", ["model-2", "model-3", "model-5", "model-7", "relabel-f7-0"])
def test_toward_is_the_arrow_canonical_scalar_conjugates_along(case, monkeypatch):
    t = CandidateTable.from_doc(REFERENCE_CASES[case]())
    along = []

    def recording(table, sigma, f):
        along.append(f)
        return conjugate(table, sigma, f)

    monkeypatch.setattr(candidate, "conjugate", recording)
    x, y = _distinct_pairs(t.n_objects)
    for xi, yi, arrow in zip(x.tolist(), y.tolist(), _toward(t, x, y).tolist()):
        sigma = Endo(t.objects[xi], t.scalars[t.objects[xi]][-1])
        moved = canonical_scalar(t, sigma, t.objects[yi])
        assert along[-1] == t.arrows[arrow]
        assert moved == conjugate(t, sigma, t.arrows[arrow])
    assert len(along) == x.size


@pytest.mark.parametrize("swapped", [False, True])
def test_composite_is_minus_one_for_a_minus_one_operand(swapped):
    doc = from_model(5).to_doc()
    t = CandidateTable.from_doc(swap_names(doc, *SWAPPED_NAMES) if swapped else doc)
    i = np.arange(t.n_arrows)
    assert (t._composite(-1, i) == -1).all() and (t._composite(i, -1) == -1).all()
    assert t._composite(-1, -1) == -1


def test_legs_stay_minus_one_after_a_pair_that_does_not_compose():
    t = from_model(5)
    last = t.n_objects - 1
    # Neither the arrow 0 -> 0 named 1 nor last -> last named 0 exists.
    # Read as the last arrow, a scalar at the last object, each would
    # compose: the first before the arrow last -> 0, the second after 0 -> last.
    assert t._ne3[0, 0, 1] == -1 and t._ne3[last, last, 0] == -1
    assert _legs(t, [(0, 0, 1), (last, 0, 1)]) == -1
    assert _legs(t, [(0, last, 1), (last, last, 0)]) == -1
    a, b = _distinct_pairs(t.n_objects)
    got = _legs(t, [(a, b, 0), (b, a, 0), (a, b, 0)])
    assert np.array_equal(got < 0, (a == 0) | (b == 0))


def test_transports_is_minus_one_where_conjugate_raises():
    # The last arrow, 1:0#4, then the transport arrow 1:0 -> 0:1 rewritten
    # to a scalar at 0:1: reading the composite of a failed first step
    # as that of the last arrow would give a scalar at the target.
    f = NonEndo("1:0", "0:1", "1:1")
    t = CandidateTable.from_doc(rewrite_entry(from_model(5).to_doc(), "1:0#4", str(f), "0:1#2"))
    sigma = Endo("0:1", "3")
    assert outcome(conjugate, t, sigma, f) == (ValueError, f"{sigma} does not live at the source of {f}")
    got = _transports(t, np.array([t.arrow_index(sigma)]), np.array([t.arrow_index(f)]))
    assert got.tolist() == [-1]


def test_as_transports_only_scalars_away_from_object_0(monkeypatch):
    calls = []
    real = candidate._transports

    def recording(table, sigma, f):
        calls.append((sigma, f))
        return real(table, sigma, f)

    monkeypatch.setattr(candidate, "_transports", recording)
    for doc in (REFERENCE_CASES["model-5"](), seeded_mutation(REFERENCE_CASES["model-5"](), 0)):
        t = CandidateTable.from_doc(doc)
        calls.clear()
        check_axioms(t, which=["as"])
        n = t.n_objects
        away = (n - 1) * (n - 1) * (n - 2) * (n - 3)
        assert [s.size for s, _ in calls] == [away, away]
        for sigma, f in calls:
            assert (f >= 0).all() and (t._src_i[f] != 0).all() and (t._dst_i[f] == 0).all()
            assert (t._src_i[sigma] == t._src_i[f]).all()


def test_as_groups_an_undefined_cross_ratio_like_any_other():
    # Three composites of F_5 rewritten to arrows with the wrong endpoints:
    # some cross ratios and swaps come out undefined (-1), and the group
    # keyed by an undefined cross ratio splits.
    doc = from_model(5).to_doc()
    for first, second, replacement in (
        ("1:1>3:1>4:1", "4:1>1:0>1:1", "1:1>4:1>3:1"),
        ("0:1>2:1>1:0", "1:0>1:1>0:1", "0:1>1:1>3:1"),
        ("0:1>3:1>1:0", "1:0#2", "1:0>1:1>4:1"),
    ):
        doc = rewrite_entry(doc, first, second, replacement)
    report = check_axioms(CandidateTable.from_doc(doc), which=["as"], max_witnesses=50).checks[0]
    assert report.to_dict() == {
        "name": "as", "status": "fail", "checked": 360, "failures": 3, "witnesses": [
            "as: (1:1,4:1,3:1,1:0) and (1:0,0:1,1:1,2:1) share cross ratio undefined "
            "but their swaps differ: 0:1#3 vs 0:1#4",
            "as: (0:1,1:1,2:1,3:1) and (1:1,3:1,4:1,1:0) share cross ratio 0:1#3 "
            "but their swaps differ: 0:1#3 vs undefined",
            "as: (0:1,1:1,2:1,4:1) and (0:1,2:1,1:0,1:1) share cross ratio 0:1#4 "
            "but their swaps differ: 0:1#2 vs 0:1>1:1>3:1",
        ],
    }


F5_CASES =["model-5", "swap-f5"] + [
    name for name in REFERENCE_CASES if name.startswith(("mutation-", "cross_homset_mutation-f5"))
]


@pytest.mark.parametrize("case", F5_CASES)
def test_rapport_calculus_matches_the_object_level_reference(case):
    t = CandidateTable.from_doc(REFERENCE_CASES[case]())
    ref = ObjectCalculus(t)
    rng = np.random.default_rng(0)
    names = list(t.objects) + ["9:9"]
    for quad in itertools.product(names, repeat=4):
        assert outcome(cross_ratio_abs, t, *quad) == outcome(ref.cross_ratio_abs, *quad)
    for six in rng.choice(names, size=(400, 6)).tolist():
        assert outcome(tri_rapport_abs, t, *six) == outcome(ref.tri_rapport_abs, *six)
    for a, b, c in itertools.permutations(t.objects, 3):
        args = (a, b, c, c, a, b)
        assert outcome(tri_rapport_abs, t, *args) == outcome(ref.tri_rapport_abs, *args)
    scalars = [a for a in t.arrows if isinstance(a, Endo)] + [Endo(t.objects[0], "x")]
    for sigma in scalars:
        for f in t.hom(sigma.obj, t.objects[1]) + t.hom(t.objects[2], t.objects[0]):
            assert outcome(conjugate, t, sigma, f) == outcome(ref.conjugate, sigma, f)
        for base in t.objects:
            assert outcome(canonical_scalar, t, sigma, base) == outcome(
                ref.canonical_scalar, sigma, base
            )
    unknown = [Endo("0:1", "9"), Endo("9:9", "1"), NonEndo("0:1", "0:1", "1:1"),
               NonEndo("0:1", "1:1", "9:9"), "0:1#1"]
    arrows = list(t.arrows) + unknown
    for f in arrows:
        assert outcome(t.arrow_index, f) == outcome(ref.arrow_index, f)
        assert outcome(t.inverse_arrow, f) == outcome(ref.inverse_arrow, f)
    for i, j in rng.integers(0, len(arrows), size=(3000, 2)).tolist():
        f, g = arrows[i], arrows[j]
        assert outcome(t.compose, f, g) == outcome(ref.compose, f, g)


@pytest.mark.parametrize("case", ["model-5", "model-7", "relabel-f7-0"])
def test_arrow_index_is_the_object_level_lookup(case):
    """The name lookup gives the index or the message of the lookup by
    arrow object, on every arrow and on objects that share a name with
    one or name none."""
    t = CandidateTable.from_doc(REFERENCE_CASES[case]())
    ref = ObjectCalculus(t)
    a, b, c = t.objects[:3]
    s = t.scalars[a][0]
    point = points(GF(t.n_objects - 1))[0]  # its name is 0:1, an object of every case
    look_alikes = [
        Endo(point, s), NonEndo(point, b, c), NonEndo(a, b, point), Endo(a, int(s)), Endo(None, None),
        NonEndo(a, b, a), NonEndo(a, b, b), NonEndo(a, a, b), Endo(a, "x"), Endo("9:9", s),
        NonEndo(a, b, "9:9"), NonEndo(a, b, f"{c}>{c}"), str(Endo(a, s)), str(NonEndo(a, b, c)), 0,
    ]
    for arrow in list(t.arrows) + look_alikes:
        assert outcome(t.arrow_index, arrow) == outcome(ref.arrow_index, arrow), arrow
    assert [t.arrow_index(x) for x in t.arrows] == list(range(t.n_arrows))
    assert all(outcome(t.arrow_index, x)[0] is CandidateFormatError for x in look_alikes)


@pytest.mark.parametrize("p", [3, 5])
def test_abstract_rapports_match_model(p):
    t = from_model(p)
    pts = points(GF(p))
    for a, b, c, d in itertools.permutations(pts, 4):
        abs_val = cross_ratio_abs(t, str(a), str(b), str(c), str(d))
        assert abs_val == Endo(str(a), str(cross_ratio(a, b, c, d)))
    a, b, c, d, e, f = pts[0], pts[1], pts[2], pts[3], pts[0], pts[1]
    want = tri_rapport(a, b, c, d, pts[0], pts[1])
    got = tri_rapport_abs(t, str(a), str(b), str(c), str(d), str(e), str(f))
    assert got == Endo(str(a), str(want))
    with pytest.raises(ValueError):
        cross_ratio_abs(t, str(a), str(a), str(c), str(d))
    with pytest.raises(ValueError):
        tri_rapport_abs(t, str(a), str(b), str(c), str(a), str(e), str(f))


def test_structure_catches_each_kind_of_corruption(f5_doc):
    # retargeted endpoints
    doc = json.loads(json.dumps(f5_doc))
    for e in doc["compose"]:
        if e[0] == "0:1>2:1>1:1" and e[1] == "1:1>2:1>0:1":
            e[2] = "1:1#1"
            break
    s = validate_structure(CandidateTable.from_doc(doc))
    assert s.check("endpoints").status == "fail"
    assert s.check("endpoints").witnesses
    # broken unit row
    doc = json.loads(json.dumps(f5_doc))
    for e in doc["compose"]:
        if e[0] == "0:1#1" and e[1] == "0:1>2:1>1:1":
            e[2] = "0:1>3:1>1:1"
            break
    s = validate_structure(CandidateTable.from_doc(doc))
    assert s.check("identity").status == "fail"


def test_witness_cap_respected(f5_doc):
    doc = mutate_doc(f5_doc, "two")
    t = CandidateTable.from_doc(doc)
    s = validate_structure(t, max_witnesses=2)
    for c in s.checks:
        assert len(c.witnesses) <= 2


def test_endpoints_witnesses_are_the_least_failing_pairs(f5_doc):
    doc = f5_doc
    for seed in range(4):
        doc = cross_homset_mutation(doc, seed)
    t = CandidateTable.from_doc(doc)
    bad = sorted(
        (t.arrow_index(parse_arrow(a)), t.arrow_index(parse_arrow(b)), a, b, r)
        for a, b, r in doc["compose"]
        if _ends(parse_arrow(r)) != (_ends(parse_arrow(a))[0], _ends(parse_arrow(b))[1])
    )
    c = validate_structure(t, max_witnesses=2).check("endpoints")
    assert c.failures == len(bad) > 2
    assert c.witnesses == [
        f"endpoints({a}, {b}): composite {r} has wrong endpoints" for *_, a, b, r in bad[:2]
    ]


# -- loader against the per-entry reference ------------------------------------

_F5_DOC = from_model(5).to_doc()
_F5_ARROWS = sorted({e[2] for e in _F5_DOC["compose"]})
_JUNK = [0, 2.5, None, True, "", ["0:1"], {"a": 1}]
_BAD_NAMES = ["0:1", "0:1>2:1", "0:1#2#3", "0:1>2:1>3:1>4:1", "0:1#9", "9:9>0:1>1:1",
              "0:1>0:1>1:1", "0:1#", ">>", "0:1#2>3:1"]


def _edit(doc: dict, data) -> None:
    """Apply one random edit to a document in place."""
    compose, objects = doc["compose"], doc["objects"]
    names = [o for o in objects if isinstance(o, str)]
    draw = data.draw

    def entry() -> int:
        return draw(st.integers(0, len(compose) - 1)) if compose else 0

    kind = draw(st.sampled_from([
        "drop", "duplicate", "swap", "name", "entry-type", "name-type", "object",
        "scalars", "identity", "resize", "reorder", "top",
    ]))
    if kind == "drop" and compose:
        del compose[entry()]
    elif kind == "duplicate" and compose:
        compose.insert(entry(), copy.deepcopy(compose[entry()]))
    elif kind == "swap" and compose:
        i, j = entry(), entry()
        if isinstance(compose[i], list) and isinstance(compose[j], list):
            compose[i][-1:], compose[j][-1:] = compose[j][-1:], compose[i][-1:]
    elif kind in ("name", "name-type") and compose:
        e = compose[entry()]
        if isinstance(e, list) and e:
            pool = _BAD_NAMES + _F5_ARROWS if kind == "name" else _JUNK
            e[draw(st.integers(0, len(e) - 1))] = draw(st.sampled_from(pool))
    elif kind == "entry-type" and compose:
        compose[entry()] = draw(st.sampled_from(_JUNK + ["a,b,c", ["0:1#1"] * 4]))
    elif kind == "object" and objects:
        objects[draw(st.integers(0, len(objects) - 1))] = draw(
            st.sampled_from(_JUNK + ["a>b", "new", objects[0]])
        )
    elif kind == "scalars" and names:
        doc["scalars"][draw(st.sampled_from(names))] = draw(st.sampled_from(
            _JUNK + ["1234", [["1"]], ["1", "1"], [], ["1", "2", "3", "4", "5"], ["1", "x y"]]
        ))
    elif kind == "identity" and names:
        doc["identity"][draw(st.sampled_from(names))] = draw(st.sampled_from(_JUNK + ["9"]))
    elif kind == "resize":
        n = draw(st.integers(0, 12))
        names = (names + [f"o{i}" for i in range(n)])[:n]
        k = draw(st.integers(1, 3))
        doc["objects"] = names
        doc["scalars"] = {o: [str(v) for v in range(1, k + 1)] for o in names}
        doc["identity"] = {o: "1" for o in names}
        if draw(st.booleans()):
            doc["compose"] = []
    elif kind == "reorder":
        doc["objects"] = draw(st.permutations(objects))
    elif kind == "top":
        key = draw(st.sampled_from(["format", "objects", "scalars", "identity", "compose"]))
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(st.sampled_from(_JUNK + ["1", 1]))


def _outcome(load, doc):
    try:
        return "accepted", load(doc)
    except CandidateFormatError as exc:
        return "rejected", str(exc)


def _scalar_ids_not_lists(doc) -> bool:
    scalars = doc.get("scalars")
    return isinstance(scalars, dict) and any(not isinstance(v, list) for v in scalars.values())


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def test_loader_parses_missed_names_in_entry_order(f5_doc):
    doc = copy.deepcopy(f5_doc)
    doc["compose"][3][0] = "0:1#2#3"
    doc["compose"][1][1] = "0:1>2:1"
    want = outcome(reference_from_doc, doc)
    assert want == (CandidateFormatError, "bad arrow syntax '0:1>2:1', want src>label>dst")
    assert outcome(CandidateTable.from_doc, doc) == want

    # Hashable non-strings, unhashable items and a bad name, two at a
    # time in both orders, ahead of a short entry: the earlier one fails.
    bad = [0, None, True, ["0:1"], {}, "0:1#2#3"]
    for first, second in itertools.permutations(bad, 2):
        doc = copy.deepcopy(f5_doc)
        doc["compose"][1][1] = first
        doc["compose"][3][0] = second
        doc["compose"][5] = ["0:1#1"]
        want = outcome(reference_from_doc, doc)
        assert want[0] is CandidateFormatError and repr(first) in want[1]
        assert outcome(CandidateTable.from_doc, doc) == want, (first, second)
        # With the short entry first, the shape error comes first.
        doc["compose"][0] = ["0:1#1"]
        want = outcome(reference_from_doc, doc)
        assert want[1].startswith("compose entries are [a, b, ab] triples")
        assert outcome(CandidateTable.from_doc, doc) == want, (first, second)


_MALFORMED_SPACES = {
    "object": (lambda d: d["objects"].__setitem__(2, "2:1>x"),
               "object name '2:1>x' is invalid (nonempty, no '>', '#', ',' or whitespace)"),
    "few": (lambda d: d.update(objects=d["objects"][:2]), "at least three objects are required"),
    "identity": (lambda d: d["identity"].update({"0:1": "9"}),
                 "identity '9' at '0:1' is not a declared scalar"),
    "no-scalars": (lambda d: d["scalars"].update({"1:0": []}),
                   "scalar ids at '1:0' must be nonempty and unique"),
    "identity-keys": (lambda d: d["identity"].pop("2:1"),
                      "an identity must be declared for exactly the objects"),
}
_MALFORMED_ENTRIES = {
    "syntax": (lambda c: c[7].__setitem__(2, "0:1>2:1"),
               "bad arrow syntax '0:1>2:1', want src>label>dst"),
    "int-then-syntax": (lambda c: (c[4].__setitem__(1, 7), c[9].__setitem__(0, "a#b#c")),
                        "arrow must be a string, got 7"),
    "list": (lambda c: c[4].__setitem__(1, ["0:1"]), "arrow must be a string, got ['0:1']"),
    "syntax-then-map": (lambda c: (c[3].__setitem__(0, "0:1#2#3"), c[4].__setitem__(1, {"a": 1})),
                        "bad endo arrow syntax '0:1#2#3', want obj#scalar"),
    "short": (lambda c: c.__setitem__(6, ["0:1#1"]),
              "compose entries are [a, b, ab] triples, got ['0:1#1']"),
    "string": (lambda c: c.__setitem__(6, "a,b,c"),
               "compose entries are [a, b, ab] triples, got 'a,b,c'"),
    "syntax-then-short": (
        lambda c: (c[2].__setitem__(2, "0:1>2:1>3:1>4:1"), c.__setitem__(6, ["0:1#1"])),
        "bad arrow syntax '0:1>2:1>3:1>4:1', want src>label>dst",
    ),
}


@pytest.mark.parametrize("space", [None, *_MALFORMED_SPACES])
@pytest.mark.parametrize("entry", [None, *_MALFORMED_ENTRIES])
def test_a_malformed_space_is_reported_ahead_of_a_malformed_entry(f5_doc, space, entry):
    """The messages, pinned: the space's error, else an entry's."""
    if space is None and entry is None:
        return
    doc = copy.deepcopy(f5_doc)
    want = None
    if space is not None:
        edit, want = _MALFORMED_SPACES[space]
        edit(doc)
    if entry is not None:
        edit, message = _MALFORMED_ENTRIES[entry]
        edit(doc["compose"])
        want = want or message
    assert outcome(CandidateTable.from_doc, doc) == (CandidateFormatError, want)


@pytest.mark.parametrize(
    "third, ninth, want",
    [
        ("0:1#9", "0:1>2:1", "unknown arrow 0:1#9"),
        ("0:1>2:1", "0:1#9", "bad arrow syntax '0:1>2:1', want src>label>dst"),
        ("pair", 7, "entry (0:1#1, 1:0>0:1>2:1) is not composable"),
    ],
)
def test_the_earliest_bad_entry_is_named_whatever_its_defect(f5_doc, third, ninth, want):
    """Entry 3 holds one defect and entry 9 another: entry 3's is reported."""
    doc = copy.deepcopy(f5_doc)
    if third == "pair":
        doc["compose"][3][1] = "1:0>0:1>2:1"
    else:
        doc["compose"][3][0] = third
    doc["compose"][9][0] = ninth
    assert outcome(CandidateTable.from_doc, doc) == (CandidateFormatError, want)
    assert outcome(reference_from_doc, doc) == (CandidateFormatError, want)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_loader_matches_reference_on_edited_documents(data):
    doc = json.loads(json.dumps(_F5_DOC))
    for _ in range(data.draw(st.integers(1, 3))):
        if not isinstance(doc, dict) or not all(
            isinstance(doc.get(k), t)
            for k, t in (("objects", list), ("scalars", dict), ("identity", dict),
                         ("compose", list))
        ):
            break
        _edit(doc, data)

    got, new = _outcome(CandidateTable.from_doc, doc)
    try:
        want, ref = _outcome(reference_from_doc, doc)
    except TypeError:
        # The reference's known defect: a list where a name belongs.
        want, ref = "crashed", None
    if want == "crashed" or (_scalar_ids_not_lists(doc) and "must be a list" in str(new)):
        # The reference crashes, or reads a string of scalar ids as its
        # characters; the loader rejects both.
        assert got == "rejected"
    else:
        assert (got, new) == (want, ref)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code = _exit_code(["check", "--in", path, "--format", "json"])
        if got == "rejected":
            assert code == 2
        else:
            assert code in (0, 1)
            assert _exit_code(["classify", "--in", path]) in (0, 1)

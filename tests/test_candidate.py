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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MUTATIONS,
    REFERENCE_CASES,
    ObjectCalculus,
    _ends,
    cross_homset_mutation,
    mutate_doc,
    outcome,
    reference_from_doc,
    reference_from_model,
    reference_hom,
    reference_inverses,
    relabel,
    rewrite_entry,
    seeded_mutation,
)
from projline import candidate, cli
from projline.candidate import (
    AXIOM_NAMES,
    CandidateFormatError,
    CandidateTable,
    Endo,
    NonEndo,
    _label_factors,
    _legs,
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
from projline.model import cross_ratio, label_to_arrow, points, tri_rapport
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


def test_declared_size_bomb_is_rejected_before_the_table_is_built():
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


def four_object_table() -> CandidateTable:
    """Four objects with one scalar each, built through the constructor.

    The endo counts agree with each other but not with the two arrows
    in every homset between distinct objects.
    """
    objs = ["a", "b", "c", "d"]
    arrows = [Endo(o, "1") for o in objs]
    arrows += [NonEndo(u, w, lab) for u, w, lab in itertools.permutations(objs, 3)]

    def ends(x):
        return (x.obj, x.obj) if isinstance(x, Endo) else (x.src, x.dst)

    def composite(x, y):
        u, w = ends(x)[0], ends(y)[1]
        if u == w:
            return Endo(u, "1")
        return NonEndo(u, w, next(o for o in objs if o not in (u, w)))

    entries = [(x, y, composite(x, y)) for x in arrows for y in arrows if ends(x)[1] == ends(y)[0]]
    return CandidateTable(objs, {o: ["1"] for o in objs}, {o: "1" for o in objs}, entries)


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
    assert np.array_equal(t._ensure_inverses(), reference_inverses(t))
    for a, b in itertools.product(t.objects, repeat=2):
        assert t.hom(a, b) == reference_hom(t, a, b)
    if case == "no-inverse-f7":
        assert (t._ensure_inverses() < 0).any()


def test_only_composite_and_store_name_the_composition_store():
    for name in ("candidate", "reconstruct", "coordinatize"):
        module = importlib.import_module(f"projline.{name}")
        tree = ast.parse(inspect.getsource(module))
        owners = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name in ("_composite", "_store")
            for node in ast.walk(fn)
        }
        stray = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_comp" and id(node) not in owners
        ]
        assert stray == [], f"projline.{name} names _comp on lines {stray}"


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_label_factors_equal_the_model_factors(p):
    pts = points(GF(p))
    a, b, c = np.array(list(itertools.permutations(range(p + 1), 3))).T
    want = [
        int(label_to_arrow(pts[x], pts[y], pts[z]).factor.value)
        for x, y, z in zip(a.tolist(), b.tolist(), c.tolist())
    ]
    assert _label_factors(p, a, b, c).tolist() == want


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
    t = CandidateTable._bare(objs, {o: ["1"] for o in objs}, {o: "1" for o in objs})
    x, y = _distinct_pairs(n)
    got = _toward(t, x, y)
    for xi, yi, arrow in zip(x.tolist(), y.tolist(), got.tolist()):
        least = min(set(range(n)) - {xi, yi})
        assert t.arrows[arrow] == NonEndo(objs[xi], objs[yi], objs[least])
        assert _toward(t, xi, yi) == arrow


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


def test_legs_stay_minus_one_after_a_pair_that_does_not_compose():
    t = from_model(5)
    last = t.n_objects - 1
    # The arrow 0 -> 0 named 1 does not exist; the last arrow, a scalar at
    # the last object, does compose with an arrow out of that object.
    assert t._ne3[0, 0, 1] == -1 and t._composite(-1, t._ne3[last, 0, 1]) >= 0
    assert _legs(t, [(0, 0, 1), (last, 0, 1)]) == -1
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


F5_CASES = ["model-5", "swap-f5"] + [
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
    elif got == "rejected" and new.startswith("compose table has"):
        # The entry count is checked first; the reference may report a
        # per-entry error instead.
        assert want == "rejected"
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

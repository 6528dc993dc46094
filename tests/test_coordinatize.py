"""Frame-pinned isomorphisms onto the concrete model."""

import copy
import importlib
import itertools
import math
import random

import numpy as np
import pytest

from helpers import (
    MUTATIONS,
    REFERENCE_CASES,
    cross_homset_mutation,
    four_object_table,
    mutate_doc,
    outcome,
    reference_coordinatize,
    reference_forced_arrow_map,
    reference_model,
    reference_uniqueness,
    reference_verify_iso,
    relabel,
    seeded_mutation,
)
from projline.candidate import (
    CandidateTable,
    ModelLine,
    _check_space,
    from_model,
    validate_structure,
)
from projline.coordinatize import (
    CandidateIso,
    CoordinatizationError,
    Frame,
    _Forcing,
    _forced,
    _line,
    coordinatize,
    verify_iso,
    verify_uniqueness,
)


def test_frame_validation():
    with pytest.raises(CoordinatizationError):
        Frame("a", "a", "b")
    t = from_model(3)
    with pytest.raises(CoordinatizationError):
        coordinatize(t, Frame("0:1", "1:0", "9:9"))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_standard_frame_gives_identity(p):
    t = from_model(p)
    iso = coordinatize(t, Frame("0:1", "1:0", "1:1"))
    assert iso.verified
    assert all(k == v for k, v in iso.object_map.items())
    assert all(k == v for k, v in iso.scalar_map.items())
    assert verify_iso(t, iso).passed


@pytest.mark.parametrize("p", [2, 3, 5])
def test_every_frame_coordinatizes(p):
    t = from_model(p)
    for f in itertools.permutations(t.objects, 3):
        iso = coordinatize(t, Frame(*f))
        assert iso.verified
        assert iso.object_map[f[0]] == "0:1"
        assert iso.object_map[f[1]] == "1:0"
        assert iso.object_map[f[2]] == "1:1"


def test_frame_images_and_export():
    t = from_model(5)
    iso = coordinatize(t, Frame("1:1", "3:1", "1:0"))
    doc = iso.to_doc()
    assert doc["verified"] is True
    assert doc["base"] == "1:1"
    assert doc["objects"]["1:1"] == "0:1"
    assert doc["objects"]["3:1"] == "1:0"
    assert doc["objects"]["1:0"] == "1:1"
    assert sorted(doc["scalars"]) == sorted(t.scalars["1:1"])


def test_default_frame_is_first_three_objects():
    t = from_model(3)
    iso = coordinatize(t)
    assert iso.object_map["0:1"] == "0:1"
    assert iso.object_map["1:1"] == "1:0"
    assert iso.object_map["2:1"] == "1:1"


def test_verify_iso_rejects_malformed_maps():
    t = from_model(3)
    iso = coordinatize(t)
    base, omap, smap = iso.base_object, iso.object_map, iso.scalar_map
    broken = dict(omap)
    broken[t.objects[0]] = broken[t.objects[1]]  # not a bijection
    missing = {o: omap[o] for o in t.objects[1:]}
    cases = [
        (CandidateIso(base, missing, smap), "object map must be defined on exactly the objects"),
        (CandidateIso(base, broken, smap), "object map must be a bijection onto the model points"),
        (CandidateIso("9:9", omap, smap), "unknown base object '9:9'"),
        (CandidateIso(base, omap, {**smap, "9": "1"}),
         "scalar map must be defined on exactly the base scalars"),
        (CandidateIso(base, omap, {k: "1" for k in smap}),
         "scalar map must be a bijection onto the model scalars"),
    ]
    for bad, message in cases:
        assert outcome(verify_iso, t, bad) == (CoordinatizationError, message)
        assert outcome(reference_verify_iso, t, bad) == (CoordinatizationError, message)


def test_verify_iso_rejects_maps_that_are_not_mappings_to_strings():
    t = from_model(5)
    iso = coordinatize(t)
    base, omap, smap = iso.base_object, iso.object_map, iso.scalar_map
    cases = [
        (CandidateIso(base, {**omap, t.objects[0]: 0}, smap),
         "object map must be a mapping to strings"),
        (CandidateIso(base, omap, {**smap, t.scalars[base][0]: None}),
         "scalar map must be a mapping to strings"),
        (CandidateIso([base], omap, smap), f"unknown base object {[base]!r}"),
        (CandidateIso(base, list(omap), smap), "object map must be a mapping to strings"),
        (CandidateIso(base, omap, list(smap)), "scalar map must be a mapping to strings"),
    ]
    for bad, message in cases:
        assert outcome(verify_iso, t, bad) == (CoordinatizationError, message)


def test_swapping_two_objects_breaks_functoriality():
    t = from_model(5)
    good = coordinatize(t, Frame("0:1", "1:0", "1:1"))
    om = dict(good.object_map)
    om["2:1"], om["3:1"] = om["3:1"], om["2:1"]
    report = verify_iso(t, CandidateIso(good.base_object, om, dict(good.scalar_map)))
    assert not report.passed
    fun = report.check("functorial")
    assert fun.status == "fail"
    kinds = {w.split("(")[0] for w in fun.witnesses}
    assert kinds & {"functoriality", "label-compatibility"}


def test_scalar_map_must_match_structure():
    t = from_model(5)
    good = coordinatize(t, Frame("0:1", "1:0", "1:1"))
    sm = dict(good.scalar_map)
    sm["2"], sm["3"] = sm["3"], sm["2"]
    report = verify_iso(t, CandidateIso(good.base_object, good.object_map, sm))
    assert report.check("scalar-map").status == "fail"
    assert report.check("scalar-map").witnesses


@pytest.mark.parametrize(
    "p,count", [(2, 1), (3, 1), (5, 6), (7, 120), (11, 362880), (13, 39916800)]
)
def test_uniqueness_candidate_counts(p, count):
    t = from_model(p)
    report, found = verify_uniqueness(t)
    assert report.status == "pass"
    assert report.checked == count
    assert found == coordinatize(t).object_map


class _EveryMapHolds(_Forcing):
    """A forcing under which every object bijection passes: each arrow's
    image has factor 1, and 1 * 1 = 1."""

    def __call__(self, obj_to, line):
        return np.ones(self.n_arrows, dtype=np.intp)


@pytest.mark.parametrize("p", [5, 7])
def test_uniqueness_reports_every_second_structure_map(monkeypatch, p):
    monkeypatch.setattr(importlib.import_module("projline.coordinatize"), "_Forcing", _EveryMapHolds)
    report, omap = verify_uniqueness(from_model(p))
    count = math.factorial(p - 2)
    assert omap is None
    assert (report.status, report.checked, report.failures) == ("fail", count, count - 1)
    if p == 5:
        assert report.witnesses == [
            f"a second structure map exists, differing at {diff}"
            for diff in (
                {"4:1": "4:1", "1:0": "3:1"},
                {"3:1": "3:1", "4:1": "2:1"},
                {"3:1": "3:1", "4:1": "4:1", "1:0": "2:1"},
                {"3:1": "4:1", "4:1": "2:1", "1:0": "3:1"},
                {"3:1": "4:1", "1:0": "2:1"},
            )
        ]


def test_uniqueness_with_rotated_frame():
    t = from_model(5)
    frame = Frame("4:1", "0:1", "1:0")
    report, found = verify_uniqueness(t, frame)
    assert report.status == "pass"
    assert found == coordinatize(t, frame).object_map


def test_uniqueness_on_relabeled_f11_with_another_frame():
    t = CandidateTable.from_doc(relabel(from_model(11).to_doc(), 3))
    frame = Frame(t.objects[5], t.objects[2], t.objects[9])
    report, found = verify_uniqueness(t, frame)
    assert report.status == "pass"
    assert report.checked == math.factorial(9)
    assert found == coordinatize(t, frame).object_map


def _assert_matches_brute_force(table, frames, seed):
    """The forced map on seeded object bijections, by model arrow name,
    and the uniqueness report and map on each frame equal the brute
    force's."""
    line, model = _line(table.n_objects - 1), reference_model(table)
    forced = _Forcing(table)
    src, dst = table._src_i, table._dst_i
    rng = random.Random(seed)
    for _ in range(4):
        obj_to = rng.sample(range(table.n_objects), table.n_objects)
        o, F = np.array(obj_to), forced(obj_to, line)
        got = [line.name(o[src[a]], o[dst[a]], F[a]) for a in range(table.n_arrows)]
        ref = reference_forced_arrow_map(table, model, obj_to)
        assert got == [str(model.arrows[r]) for r in ref]
    for frame in frames:
        report, found = verify_uniqueness(table, frame)
        ref, ref_found = reference_uniqueness(table, frame)
        assert (report.to_dict(), found) == (ref.to_dict(), ref_found)


def test_uniqueness_matches_brute_force_on_every_frame_of_f5():
    t = from_model(5)
    _assert_matches_brute_force(t, [Frame(*f) for f in itertools.permutations(t.objects, 3)], 0)


@pytest.mark.parametrize("seed", [0, 1])
def test_uniqueness_matches_brute_force_on_relabeled_f7(seed):
    t = CandidateTable.from_doc(relabel(from_model(7).to_doc(), seed))
    rng = random.Random(seed)
    _assert_matches_brute_force(t, [Frame(*rng.sample(t.objects, 3)) for _ in range(3)], seed)


def _own_scalar_rewrite(doc, _):
    """s.f_X rewritten to an earlier scalar of X, where X is the second
    object and f_X its least outgoing arrow between distinct objects."""
    objs = doc["objects"]
    x = objs[1]
    first, second = f"{x}#{doc['scalars'][x][2]}", f"{x}>{objs[2]}>{objs[0]}"
    out = {**doc, "compose": [list(e) for e in doc["compose"]]}
    hit = next(e for e in out["compose"] if e[:2] == [first, second])
    hit[2] = f"{x}#{doc['scalars'][x][1]}"
    return out


def _scalar_composite_rewrite(doc, where):
    """s.f_X rewritten to a scalar of X after s, of an earlier object or
    of a later one, where X is the second object and s its third scalar;
    or, "off-homset", to the arrow from X to the third object named by
    the first, where f_X ends at the first: not an arrow of hom(X, first)."""
    objs = doc["objects"]
    x = objs[1]
    y = {"own-later": x, "earlier": objs[0], "later": objs[3]}.get(where)
    first, second = f"{x}#{doc['scalars'][x][2]}", f"{x}>{objs[2]}>{objs[0]}"
    out = {**doc, "compose": [list(e) for e in doc["compose"]]}
    hit = next(e for e in out["compose"] if e[:2] == [first, second])
    hit[2] = f"{x}>{objs[0]}>{objs[2]}" if y is None else f"{y}#{doc['scalars'][y][3]}"
    return out


MUTATORS = {
    "mutation": mutate_doc,
    "seeded": seeded_mutation,
    "cross": cross_homset_mutation,
    "own-scalar": _own_scalar_rewrite,
    "scalar-composite": _scalar_composite_rewrite,
}
BROKEN = (
    [("mutation", 5, name) for name in MUTATIONS]
    + [("seeded", p, s) for p in (5, 7) for s in range(6)]
    + [("cross", p, s) for p in (5, 7) for s in range(2)]
)


@pytest.mark.parametrize("kind,p,arg", BROKEN)
def test_uniqueness_matches_brute_force_on_broken_tables(kind, p, arg):
    t = CandidateTable.from_doc(MUTATORS[kind](from_model(p).to_doc(), arg))
    if kind == "cross":
        assert validate_structure(t).check("endpoints").status == "fail"
    _assert_matches_brute_force(t, [Frame(*t.objects[:3]), Frame(*t.objects[-3:])], p)


# F_5 with 1:1#3 then 1:1>2:1>0:1 rewritten to a scalar, and that scalar;
# last, to an arrow out of 1:1 that does not end at 0:1.
NO_FORCED_MAP = [("own-scalar", None, "1:1#2")] + [
    ("scalar-composite", where, got)
    for where, got in (
        ("own-later", "1:1#4"), ("earlier", "0:1#4"), ("later", "3:1#4"),
        ("off-homset", "1:1>0:1>2:1"),
    )
]


@pytest.mark.parametrize("kind,arg,got", NO_FORCED_MAP)
def test_tables_without_a_forced_arrow_map_raise(kind, arg, got):
    t = CandidateTable.from_doc(MUTATORS[kind](from_model(5).to_doc(), arg))
    assert validate_structure(t).check("endpoints").status == "fail"
    want = "from 1:1 to 0:1" if arg == "off-homset" else "between distinct objects"
    message = f"1:1#3 then 1:1>2:1>0:1 gives {got}, not an arrow {want}"
    identity = CandidateIso("0:1", {o: o for o in t.objects}, {s: s for s in t.scalars["0:1"]})
    calls = [lambda: _Forcing(t), lambda: verify_iso(t, identity)]
    for frame in (Frame(*t.objects[:3]), Frame(*t.objects[-3:])):
        calls += [lambda f=frame: verify_uniqueness(t, f), lambda f=frame: coordinatize(t, f)]
    for call in calls:
        assert outcome(call) == (CoordinatizationError, message)


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_coordinatize_matches_the_object_level_reference(case):
    t = CandidateTable.from_doc(REFERENCE_CASES[case]())
    rng = random.Random(case)
    frames = [None, Frame(*t.objects[-3:][::-1]), Frame(*rng.sample(t.objects, 3))]
    for frame in frames:
        got = outcome(coordinatize, t, frame)
        assert got == outcome(reference_coordinatize, t, frame)
        if got[0] != "ok":
            continue
        iso = got[1]
        assert verify_iso(t, iso).to_dict() == reference_verify_iso(t, iso).to_dict()
        # Two scalars of the base swapped in the map: the scalar-map check fails.
        sm = dict(iso.scalar_map)
        keys = list(sm)[-2:]
        sm[keys[0]], sm[keys[-1]] = sm[keys[-1]], sm[keys[0]]
        other = CandidateIso(iso.base_object, iso.object_map, sm)
        assert verify_iso(t, other).to_dict() == reference_verify_iso(t, other).to_dict()


@pytest.mark.parametrize(
    "case,message",
    [
        ("round-trip", "round trip (1:1,0:1;2:1,4:1) gives 1:1>3:1>0:1, not a scalar at 1:1"),
        ("transport", "cannot compose 0:1#2 then 1:1>2:1>0:1"),
    ],
)
def test_failed_coordinates_raise_coordinatization_error(case, message):
    t = CandidateTable.from_doc(REFERENCE_CASES[f"coordinate-{case}"]())
    assert outcome(coordinatize, t) == (CoordinatizationError, message)
    assert outcome(reference_coordinatize, t) == (CoordinatizationError, message)


def test_coordinatizer_builds_no_model_table_and_one_line_per_p(monkeypatch):
    built = []

    def counting(p):
        built.append(p)
        return ModelLine(p)

    def refuse(*args):
        raise AssertionError("a composition table was built")

    t5, t7 = from_model(5), from_model(7)
    module = importlib.import_module("projline.coordinatize")
    assert not hasattr(module, "from_model")
    monkeypatch.setattr(module, "ModelLine", counting)
    monkeypatch.setattr(importlib.import_module("projline.candidate"), "from_model", refuse)
    monkeypatch.setattr(CandidateTable, "_store", refuse)
    _line.cache_clear()
    for _ in range(2):
        verify_iso(t5, coordinatize(t5))
        verify_uniqueness(t5)
    assert built == [5]
    coordinatize(t7)
    verify_uniqueness(t7)
    assert built == [5, 7]
    coordinatize(t5)
    assert built == [5, 7, 5]


def test_object_count_must_fit_a_prime_model():
    # five objects would need a field of order four
    objects = ["a", "b", "c", "d", "e"]
    scalars = {o: ["1", "2", "3"] for o in objects}
    identities = {o: "1" for o in objects}
    t = CandidateTable._bare(*_check_space(objects, scalars, identities))
    with pytest.raises(CoordinatizationError, match="not prime"):
        coordinatize(t)
    # four objects need order 3, and the four-object table's field has order 2
    want = (CoordinatizationError, "reconstructed field has order 2; the model needs prime order 3")
    assert outcome(coordinatize, four_object_table()) == want
    assert outcome(reference_coordinatize, four_object_table()) == want


def test_mutated_table_fails_coordinatization():
    doc = mutate_doc(from_model(5).to_doc(), "field")
    t = CandidateTable.from_doc(doc)
    with pytest.raises(CoordinatizationError):
        coordinatize(t)


def test_one_forced_map_per_table_across_calls_and_frames(monkeypatch):
    built = []

    class Counting(_Forcing):
        def __init__(self, table):
            built.append(table)
            super().__init__(table)

    monkeypatch.setattr(importlib.import_module("projline.coordinatize"), "_Forcing", Counting)
    t = from_model(7)
    for frame in (None, Frame("1:1", "2:1", "3:1"), Frame(*t.objects[-3:][::-1])):
        iso = coordinatize(t, frame)
        verify_iso(t, iso)
        verify_uniqueness(t, frame)
    assert built == [t]
    other = from_model(5)
    verify_uniqueness(other)
    assert built == [t, other]
    # Writing the store again drops the kept map.
    I, J = t._pairs()
    t._store(I, J, t._composite(I, J))
    coordinatize(t)
    assert built == [t, other, t]


def test_the_kept_forced_map_is_read_only_until_the_store_is_written():
    t = from_model(5)
    forced = _forced(t)
    assert _forced(t) is forced
    arrays = [a for a in vars(forced).values() if isinstance(a, np.ndarray)]
    assert len(arrays) == 11
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[:1] = 0
    I, J = t._pairs()
    t._store(I, J, t._composite(I, J))
    assert _forced(t) is not forced


def _fresh(table: CandidateTable) -> CandidateTable:
    """The same table with nothing kept: its composites written again."""
    out = copy.copy(table)
    I, J = table._pairs()
    out._store(I, J, table._composite(I, J))
    return out


def _coordinatization(table, frame):
    """coordinatize's map (with its dict orders), verify_iso's report on
    it, and verify_uniqueness's report and map, or the exceptions."""
    got = outcome(coordinatize, table, frame)
    if got[0] == "ok":
        iso = got[1]
        got = (iso.to_doc(), list(iso.object_map.items()), verify_iso(table, iso).to_dict())
    found = outcome(verify_uniqueness, table, frame)
    if found[0] == "ok":
        report, omap = found[1]
        found = (report.to_dict(), omap and list(omap.items()))
    return got, found


def _assert_warm_equals_fresh(table, frames):
    for frame in frames:
        assert _coordinatization(table, frame) == _coordinatization(_fresh(table), frame), frame


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_a_warm_table_coordinatizes_as_a_fresh_one(case):
    t = CandidateTable.from_doc(REFERENCE_CASES[case]())
    rng = random.Random(case)
    frames = [None, Frame(*t.objects[-3:][::-1]), Frame(*rng.sample(t.objects, 3)), None]
    _assert_warm_equals_fresh(t, frames)


@pytest.mark.parametrize("p,seed", [(5, 0), (5, 1), (7, 0), (7, 1)])
def test_a_warm_relabeled_table_coordinatizes_as_a_fresh_one_from_every_frame(p, seed):
    t = CandidateTable.from_doc(relabel(from_model(p).to_doc(), seed))
    frames = [Frame(*f) for f in itertools.permutations(t.objects, 3)]
    _assert_warm_equals_fresh(t, frames)
    # The passing map lists the frame first, then the other objects in table order.
    f0, f1, f2 = frames[-1].members()
    _, found = verify_uniqueness(t, frames[-1])
    assert list(found) == [f0, f1, f2] + [o for o in t.objects if o not in (f0, f1, f2)]


def test_coordinatize_parses_as_many_names_at_every_size(monkeypatch):
    """Scalar ids are read by their place in hom(f0, f0), not parsed from
    arrow names, so the count does not grow with p."""
    module = importlib.import_module("projline.candidate")
    parse, calls = module.parse_arrow, []

    def counting(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(module, "parse_arrow", counting)
    counts = []
    for p in (5, 13):
        t = from_model(p)
        calls.clear()
        assert coordinatize(t).verified
        counts.append(len(calls))
    assert counts[0] == counts[1]

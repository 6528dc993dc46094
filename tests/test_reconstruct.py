"""Field reconstruction from composition data."""

import hashlib
import itertools
import json
import random

import pytest

from helpers import (
    REFERENCE_CASES,
    cross_homset_mutation,
    mutate_doc,
    outcome,
    reference_build_field,
    reference_classify_prime,
    reference_minus_one,
    reference_phi,
    rewrite_entry,
    seeded_mutation,
)
from projline import reconstruct
from projline.candidate import CandidateTable, check_axioms, from_model
from projline.reconstruct import (
    FieldTable,
    ReconstructionError,
    build_field,
    classify_prime,
    phi,
    reconstruct_minus_one,
    verify_field,
)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_minus_one_at_every_base(p):
    t = from_model(p)
    for base in t.objects:
        m = reconstruct_minus_one(t, base)
        assert m.obj == base
        assert m.scalar == str(p - 1)


def test_minus_one_rejects_twisted_table():
    # break well-definedness: twist the cycle of the default helper pair
    doc = rewrite_entry(from_model(5).to_doc(), "0:1>1:0>2:1", "2:1>1:1>0:1", "0:1#2")
    t = CandidateTable.from_doc(doc)
    with pytest.raises(ReconstructionError) as exc:
        reconstruct_minus_one(t, "0:1")
    assert str(exc.value) == (
        "-1 is not well defined at 0:1: helpers (1:1,3:1) give 0:1#4, (1:1,2:1) give 0:1#2"
    )


def test_minus_one_must_square_to_the_identity():
    doc = rewrite_entry(from_model(5).to_doc(), "0:1#4", "0:1#4", "0:1#2")
    t = CandidateTable.from_doc(doc)
    want = (ReconstructionError, "candidate -1 at 0:1 does not square to the identity: 0:1#4")
    assert outcome(reconstruct_minus_one, t, "0:1") == want
    assert outcome(reference_minus_one, t, "0:1") == want


@pytest.mark.parametrize("p", [3, 5, 7])
def test_phi_is_one_minus_mu(p):
    t = from_model(p)
    for base in t.objects:
        one = t.identities[base]
        assert phi(t, base, None) == one
        assert phi(t, base, one) is None
        for sid in t.scalars[base]:
            if sid == one:
                continue
            want = (1 - int(sid)) % p
            got = phi(t, base, sid)
            assert got == str(want)


def test_phi_helper_independence():
    t = from_model(7)
    base = "0:1"
    rest = [o for o in t.objects if o != base]
    for b, c in itertools.permutations(rest, 2):
        assert phi(t, base, "3", b=b, c=c) == "5"  # 1 - 3 mod 7


def test_phi_input_validation():
    t = from_model(5)
    with pytest.raises(ReconstructionError):
        phi(t, "9:1", "2")
    with pytest.raises(ReconstructionError):
        phi(t, "0:1", "7")
    with pytest.raises(ReconstructionError):
        phi(t, "0:1", "2", b="0:1")


@pytest.mark.parametrize("p", [5, 7])
def test_build_field_calls_phi_once_per_scalar(monkeypatch, p):
    calls = []

    def counting(table, base, mu, *rest):
        calls.append(mu)
        return phi(table, base, mu, *rest)

    monkeypatch.setattr(reconstruct, "phi", counting)
    t = from_model(p)
    for base in (t.objects[0], t.objects[-1], t.objects[0]):
        calls.clear()
        build_field(t, base)
        assert calls == list(t.scalars[base])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_build_field_matches_mod_p(p):
    t = from_model(p)
    ft = build_field(t)
    assert ft.order == p
    assert ft.carrier[0] == ft.zero == "0"
    assert ft.one == "1"
    assert ft.minus_one == str(p - 1)
    names = ft.carrier
    for i, x in enumerate(names):
        for j, y in enumerate(names):
            xv = 0 if x == ft.zero else int(x)
            yv = 0 if y == ft.zero else int(y)
            add_want = (xv + yv) % p
            mul_want = (xv * yv) % p
            assert names[ft.add[i][j]] == (ft.zero if add_want == 0 else str(add_want))
            assert names[ft.mul[i][j]] == (ft.zero if mul_want == 0 else str(mul_want))


def test_build_field_at_other_bases():
    t = from_model(5)
    for base in t.objects:
        ft = build_field(t, base=base)
        assert ft.base_object == base
        assert verify_field(ft).passed


def test_field_is_name_agnostic_and_zero_name_dodges():
    # rename scalar id "2" to "0" everywhere; reconstruction must not care
    doc = from_model(5).to_doc()
    s = json.dumps(doc).replace("#2", "#0")
    doc = json.loads(s)
    for o in doc["scalars"]:
        doc["scalars"][o] = ["1" if v == "1" else ("0" if v == "2" else v) for v in doc["scalars"][o]]
    t = CandidateTable.from_doc(doc)
    ft = build_field(t)
    assert ft.zero == "zero0"  # "0" is taken by a scalar now
    assert verify_field(ft).passed
    cl = classify_prime(ft)
    assert cl.is_prime_field and cl.order == 5
    assert cl.residue_map["0"] == 2  # the renamed scalar still means two


def test_field_table_round_trip_and_validation():
    ft = build_field(from_model(3))
    doc = ft.to_doc()
    back = FieldTable.from_doc(doc, ft.base_object)
    assert back == ft
    bad = dict(doc)
    bad["order"] = 7
    with pytest.raises(ReconstructionError):
        FieldTable.from_doc(bad)
    bad = json.loads(json.dumps(doc))
    bad["add"][0][0] = 99
    with pytest.raises(ReconstructionError):
        FieldTable.from_doc(bad)
    bad = json.loads(json.dumps(doc))
    bad["zero"] = "missing"
    with pytest.raises(ReconstructionError):
        FieldTable.from_doc(bad)
    # Entries are JSON integers and names strings; nothing is coerced.
    for op in ("add", "mul"):
        for v in (1.5, "1", True, None, [1]):
            bad = json.loads(json.dumps(doc))
            bad[op][1][1] = v
            with pytest.raises(ReconstructionError, match="must index the carrier"):
                FieldTable.from_doc(bad)
    for v in ([[0], [1], [2]], [{}, {}, {}], ["0", "1", 2], "012", {"0": 0, "1": 1, "2": 2}):
        with pytest.raises(ReconstructionError, match="order-many distinct names"):
            FieldTable.from_doc(dict(doc, carrier=v))
    for v in (3.0, "3", True):
        with pytest.raises(ReconstructionError, match="order-many distinct names"):
            FieldTable.from_doc(dict(doc, order=v))
    for key in ("zero", "one", "minus_one"):
        for v in (1, ["0"]):
            with pytest.raises(ReconstructionError, match="is not in the carrier"):
                FieldTable.from_doc(dict(doc, **{key: v}))
    for v in (None, 3, [[0, 1, 2]] * 2 + [0]):
        with pytest.raises(ReconstructionError):
            FieldTable.from_doc(dict(doc, add=v))
    for op in ("add", "mul"):
        for v in ([[0, 1, 2]] * 2, [[0, 1, 2], [0, 1], [0, 1, 2]], [[0, 1, 2, 0]] * 3):
            with pytest.raises(ReconstructionError, match="^operation tables must be order x order$"):
                FieldTable.from_doc(dict(doc, **{op: v}))
    with pytest.raises(ReconstructionError, match="^'9' is not a field element$"):
        ft.index("9")


@pytest.mark.parametrize(
    "seed, call, message",
    [
        (32, lambda t: reconstruct_minus_one(t), "cannot compose 1:1>3:1>4:1 then 2:1>1:1>0:1"),
        (89, lambda t: phi(t, "0:1", "2"),
         "round trip (0:1,1:1;2:1,4:1) gives 2:1>4:1>1:1, not a scalar at 0:1"),
    ],
)
def test_reconstruction_entry_points_raise_reconstruction_errors(seed, call, message):
    t = CandidateTable.from_doc(cross_homset_mutation(from_model(5).to_doc(), seed))
    with pytest.raises(ReconstructionError) as exc:
        call(t)
    assert str(exc.value) == message


def test_verify_field_pinpoints_broken_addition():
    ft = build_field(from_model(5))
    doc = ft.to_doc()
    doc["add"][2][3] = 1  # 2 + 3 is 0, claim it is 1
    bad = FieldTable.from_doc(doc, ft.base_object)
    report = verify_field(bad)
    assert not report.passed
    failing = {c.name for c in report.checks if c.status == "fail"}
    assert "distributes" in failing
    assert report.check("distributes").witnesses


def test_documented_field_mutation_breaks_laws_not_reconstruction():
    doc = mutate_doc(from_model(5).to_doc(), "field")
    t = CandidateTable.from_doc(doc)
    ft = build_field(t)  # reconstruction itself still goes through
    report = verify_field(ft)
    assert not report.passed
    assert any(c.witnesses for c in report.checks if c.status == "fail")
    with pytest.raises(ReconstructionError):
        classify_prime(ft, report)


def test_classify_prime_fields():
    for p in (2, 3, 5, 7):
        cl = classify_prime(build_field(from_model(p)))
        assert cl.order == p
        assert cl.characteristic == p
        assert cl.is_prime_field
        assert cl.residue_map[str(1)] == 1
        assert cl.to_doc()["prime"] is True


GF4 = FieldTable(
    base_object="x",
    carrier=("0", "1", "a", "b"),
    zero="0",
    one="1",
    minus_one="1",
    add=((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
    mul=((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)),
)


def test_classify_non_prime_field():
    report = verify_field(GF4)
    assert report.passed
    cl = classify_prime(GF4, report)
    assert cl.order == 4
    assert cl.characteristic == 2
    assert not cl.is_prime_field
    assert cl.residue_map is None
    assert cl.to_doc() == {"order": 4, "characteristic": 2, "prime": False, "map": None}


def test_ring_z6_is_rejected():
    n = 6
    names = tuple(str(i) for i in range(n))
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    mul = tuple(tuple((i * j) % n for j in range(n)) for i in range(n))
    z6 = FieldTable("x", names, "0", "1", "5", add, mul)
    report = verify_field(z6)
    assert report.check("mul-inverses").status == "fail"
    with pytest.raises(ReconstructionError):
        classify_prime(z6, report)


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_reconstruction_matches_the_object_level_reference(case):
    t = CandidateTable.from_doc(REFERENCE_CASES[case]())
    for base in (t.objects[0], t.objects[1], t.objects[-1]):
        assert outcome(reconstruct_minus_one, t, base) == outcome(reference_minus_one, t, base)
        helpers = [(None, None)]
        if t.n_objects <= 6:
            rest = [o for o in t.objects if o != base]
            helpers += list(itertools.permutations(rest, 2))
        for b, c in helpers:
            for mu in (None,) + t.scalars[base]:
                got = outcome(phi, t, base, mu, b, c)
                assert got == outcome(reference_phi, t, base, mu, b, c), (b, c, mu)
        got = outcome(build_field, t, base)
        assert got == outcome(reference_build_field, t, base)
        if got[0] == "ok":
            assert outcome(classify_prime, got[1]) == outcome(reference_classify_prime, got[1])
    o, mu = t.objects[0], t.scalars[t.objects[0]][-1]
    for args in (("9:9", None), (o, "x"), (o, None, o), (o, mu, "9:9"), (o, mu, None, "9:9")):
        assert outcome(phi, t, *args) == outcome(reference_phi, t, *args)
    assert outcome(reconstruct_minus_one, t, "9:9") == outcome(reference_minus_one, t, "9:9")
    assert outcome(build_field, t, "9:9") == outcome(reference_build_field, t, "9:9")


@pytest.mark.parametrize("p", [5, 7])
def test_classify_matches_the_reference_on_edited_tables_with_a_passing_report(p):
    # A supplied report is trusted, so every residue-map failure is reachable.
    ft = build_field(from_model(p))
    report = verify_field(ft)
    rng = random.Random(p)
    seen = set()
    for _ in range(60):
        doc = json.loads(json.dumps(ft.to_doc()))
        for _ in range(rng.randint(1, 2)):
            op = rng.choice(["add", "mul"])
            doc[op][rng.randrange(p)][rng.randrange(p)] = rng.randrange(p)
        bad = FieldTable.from_doc(doc, ft.base_object)
        got = outcome(classify_prime, bad, report)
        assert got == outcome(reference_classify_prime, bad, report)
        seen.add(got[1] if got[0] != "ok" else "ok")
    assert {
        "residue map does not respect addition",
        "residue map does not respect multiplication",
    } <= seen


# Seeded homset-preserving mutations (seeds 0-199) in which some arrow has
# no two-sided inverse: there the transport inside `as` meets an arrow
# without one.
NO_INVERSE_SEEDS = {5: (0, 40, 61, 72, 147, 155, 181), 7: (25, 103, 156, 163, 194)}

# SHA-256 of the compact JSON of the reports below, recorded before the
# witness, leg and transport rules were shared between the checks.
REPORT_SHA256 = "62e9cb0fd6aedbdd38fcb1b5f326f2613d6c4c9043c1b64526518882c1d7af24"


def _edited_field_tables(ft: FieldTable, count: int):
    """``count`` copies of a field table, each with one seeded entry of
    its addition or multiplication table changed."""
    for seed in range(count):
        rng = random.Random(seed)
        doc = json.loads(json.dumps(ft.to_doc()))
        op = rng.choice(["add", "mul"])
        row = doc[op][rng.randrange(ft.order)]
        j = rng.randrange(ft.order)
        row[j] = rng.choice([v for v in range(ft.order) if v != row[j]])
        yield f"{op}-{seed}", FieldTable.from_doc(doc, ft.base_object)


def test_field_and_as_reports_are_byte_stable():
    reports = []
    t = CandidateTable.from_doc(mutate_doc(from_model(5).to_doc(), "field"))
    reports.append(["field-mutation", verify_field(build_field(t), max_witnesses=50).to_dict()])
    for name, ft in _edited_field_tables(build_field(from_model(7)), 40):
        reports.append([name, verify_field(ft, max_witnesses=50).to_dict()])
    for p, seeds in NO_INVERSE_SEEDS.items():
        doc = from_model(p).to_doc()
        for seed in seeds:
            t = CandidateTable.from_doc(seeded_mutation(doc, seed))
            assert (t._inv < 0).any()
            report = check_axioms(t, which=["as"], max_witnesses=50)
            reports.append([f"as-{p}-{seed}", report.to_dict()])
    text = json.dumps(reports, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256

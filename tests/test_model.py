"""Concrete projective line: points, arrows, rapport calculus.

The oracles live at the top: a brute-force linear solver for arrow
factors and the classical affine cross-ratio formula with its infinity
conventions.  Everything downstream is checked against them before
being trusted.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projline
import projline.model
from projline.model import (
    CR_ROWS,
    DegenerateHarmonicError,
    ModelArrow,
    Point,
    arrow_to_label,
    compose,
    cross_ratio,
    evaluate_table_rows,
    harmonic_conjugate,
    identity,
    inverse,
    label_to_arrow,
    minus_one,
    points,
    table_row_ids,
    tri_rapport,
    verify_classical_tables,
)
from projline.scalars import GF, QQ, FieldMismatchError

from helpers import (
    outcome,
    reference_cross_ratio,
    reference_harmonic_conjugate,
    reference_label_to_arrow,
    reference_table_records,
    reference_tri_rapport,
)


def solve_factor_brute(a: Point, b: Point, c: Point):
    """Oracle: scan beta, gamma with rep(a) = beta*rep(b) + gamma*rep(c)."""
    F = a.field
    hits = []
    for beta in F.elements():
        for gamma in F.elements():
            if a.x == beta * b.x + gamma * c.x and a.y == beta * b.y + gamma * c.y:
                hits.append((beta, gamma))
    assert len(hits) == 1, "representatives of three distinct points are a basis"
    return hits[0][0]


def affine_cross_ratio(a, b, c, d):
    """Oracle: ((a-c)(b-d)) / ((b-c)(a-d)) with the infinity conventions."""
    if a is None:
        return (b - d) / (b - c)
    if b is None:
        return (a - c) / (a - d)
    if c is None:
        return (b - d) / (a - d)
    if d is None:
        return (a - c) / (b - c)
    return ((a - c) * (b - d)) / ((b - c) * (a - d))


def coord(p: Point):
    """Affine coordinate of a normalized point, None at infinity."""
    return None if p.is_infinity else p.x


@pytest.mark.parametrize("p", [3, 5, 7])
def test_label_factor_matches_brute_solver(p):
    pts = points(GF(p))
    for a, b, c in itertools.permutations(pts, 3):
        assert label_to_arrow(a, b, c).factor == solve_factor_brute(a, b, c)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cross_ratio_matches_affine_oracle(p):
    pts = points(GF(p))
    for a, b, c, d in itertools.permutations(pts, 4):
        expected = affine_cross_ratio(coord(a), coord(b), coord(c), coord(d))
        assert cross_ratio(a, b, c, d) == expected


def test_points_enumeration_order():
    F = GF(5)
    assert [str(q) for q in points(F)] == ["0:1", "1:1", "2:1", "3:1", "4:1", "1:0"]
    with pytest.raises(ValueError, match="^coordinate lists are only for the rationals$"):
        points(F, coords=[0, 1])  # finite fields enumerate themselves
    with pytest.raises(ValueError, match="^the rationals need an explicit finite coordinate list$"):
        points(QQ)
    assert [str(q) for q in points(QQ, [Fraction(1, 2), -3])] == ["1/2:1", "-3:1"]


_A, _B = Point.affine(GF(5), 0), Point.affine(GF(5), 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ModelArrow(_A, _B, GF(5)(0)), "arrow factors are nonzero"),
        (lambda: arrow_to_label(identity(_A)), "endo arrows are scalars, not labeled projections"),
        (lambda: minus_one(_A, [_A, _B]), "need at least two points besides the base point"),
        (lambda: verify_classical_tables(QQ),
         "table sweeps enumerate points, so they need a prime field"),
    ],
    ids=["zero-factor", "endo-label", "minus-one-helpers", "rational-sweep"],
)
def test_model_refusals_raise_value_error(call, message):
    assert outcome(call) == (ValueError, message)


def test_point_parse_and_render():
    F = GF(7)
    assert str(Point.parse(F, "10:2")) == "5:1"
    assert Point.parse(F, "3:0") == Point.infinity(F)
    assert Point.parse(QQ, "-1/2:1").x.value == Fraction(-1, 2)
    with pytest.raises(ValueError):
        Point.parse(F, "0:0")
    with pytest.raises(ValueError):
        Point.parse(F, "nonsense")


def test_frozen_arrow_examples_mod_5():
    F = GF(5)
    a, b = Point.affine(F, 0), Point.infinity(F)
    assert label_to_arrow(a, b, Point.affine(F, 1)).factor == F(4)
    assert label_to_arrow(a, b, Point.affine(F, 2)).factor == F(3)
    f = ModelArrow(a, b, F(4))
    assert arrow_to_label(f) == Point.affine(F, 1)


def test_label_arrow_round_trip_exhaustive():
    pts = points(GF(7))
    for a, b, c in itertools.permutations(pts, 3):
        f = label_to_arrow(a, b, c)
        assert (f.src, f.dst) == (a, b)
        assert arrow_to_label(f) == c
    # factors of hom(a, b) are exactly the nonzero scalars, each hit once
    a, b = pts[0], pts[1]
    factors = {label_to_arrow(a, b, c).factor for c in pts if c not in (a, b)}
    assert len(factors) == len(pts) - 2


def test_composition_multiplies_factors():
    F = GF(11)
    pts = points(F)
    a, b, c = pts[2], pts[5], pts[7]
    f = label_to_arrow(a, b, pts[0])
    g = label_to_arrow(b, c, pts[1])
    assert compose(f, g).factor == f.factor * g.factor
    assert compose(f, inverse(f)) == identity(a)
    assert compose(inverse(f), f) == identity(b)
    with pytest.raises(ValueError):
        compose(f, f)  # endpoints do not chain


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_round_trip_law_exhaustive(p):
    # a -> b then back, both legs through the same label, is the identity
    pts = points(GF(p))
    for a, b, c in itertools.permutations(pts, 3):
        f = label_to_arrow(a, b, c)
        g = label_to_arrow(b, a, c)
        assert compose(f, g) == identity(a)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_chain_law_exhaustive(p):
    # chaining two legs through one label skips the midpoint
    pts = points(GF(p))
    for a, b, d in itertools.permutations(pts, 3):
        for c in pts:
            if c in (a, b, d):
                continue
            lhs = compose(label_to_arrow(a, b, c), label_to_arrow(b, d, c))
            assert lhs == label_to_arrow(a, d, c)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_parallel_arrow_exchange(p):
    # f1 f2^-1 f3 is symmetric in f1, f3 for parallel arrows
    pts = points(GF(p))
    a, b = pts[0], pts[3]
    arrows = [label_to_arrow(a, b, c) for c in pts if c not in (a, b)]
    for f1, f2, f3 in itertools.product(arrows, repeat=3):
        lhs = compose(compose(f1, inverse(f2)), f3)
        rhs = compose(compose(f3, inverse(f2)), f1)
        assert lhs == rhs


def test_cross_ratio_degenerate_pairs_and_range():
    F = GF(7)
    pts = points(F)
    for a, b, c, d in itertools.permutations(pts, 4):
        mu = cross_ratio(a, b, c, d)
        assert mu not in (F(0), F(1))
    a, b, c = pts[0], pts[1], pts[2]
    assert cross_ratio(a, b, c, c) == F(1)
    with pytest.raises(ValueError):
        cross_ratio(a, a, b, c)


def test_cross_ratio_injective_in_last_argument():
    pts = points(GF(7))
    a, b, c = pts[0], pts[4], pts[6]
    seen = {}
    for d in pts:
        if d in (a, b):
            continue
        mu = cross_ratio(a, b, c, d)
        assert mu not in seen
        seen[mu] = d


def test_cross_ratio_row_swap_equal_rows_not_interchangeable():
    F = GF(5)
    pts = points(F)
    a, b, c, d = pts[0], pts[1], pts[2], pts[5]
    assert cross_ratio(a, b, c, d) == cross_ratio(c, d, a, b)
    # swapping within a row changes the value
    assert cross_ratio(a, b, c, d) != cross_ratio(b, a, c, d)


def test_tri_rapport_cyclic_and_inverse():
    F = GF(7)
    pts = points(F)
    a, b, c, d, e, f = pts[0], pts[1], pts[2], pts[3], pts[4], pts[5]
    v = tri_rapport(a, b, c, d, e, f)
    assert tri_rapport(b, c, a, e, f, d) == v
    assert tri_rapport(c, a, b, f, d, e) == v
    assert tri_rapport(a, c, b, f, e, d) == v.inv()
    with pytest.raises(ValueError):
        tri_rapport(a, b, c, a, e, f)  # first label may not touch its leg


def test_tri_rapport_rows_not_interchangeable():
    F = GF(5)
    pts = points(F)
    a, b, c = pts[0], pts[1], pts[2]
    d, e, f = pts[3], pts[5], pts[1]
    assert tri_rapport(a, b, c, d, e, f) == F(1)
    assert tri_rapport(a, b, c, e, d, f) == F(3)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_minus_one_every_choice_squares_to_one(p):
    F = GF(p)
    pts = points(F)
    want = F(-1)
    for a in pts:
        for b, c in itertools.permutations([q for q in pts if q != a], 2):
            v = tri_rapport(a, b, c, c, a, b)
            assert v == want
            assert v * v == F.one()
        assert minus_one(a, pts) == want


@pytest.mark.parametrize("p", [3, 5, 7])
def test_harmonic_both_characterizations_agree(p):
    F = GF(p)
    pts = points(F)
    for a, b, c in itertools.permutations(pts, 3):
        h = harmonic_conjugate(a, b, c)
        assert cross_ratio(a, b, c, h) == F(-1)
        # the defining composite: b -> c through a, then c -> a through b
        g = compose(label_to_arrow(b, c, a), label_to_arrow(c, a, b))
        assert arrow_to_label(g) == h
        # and the unique fourth point with cross ratio -1
        others = [
            d for d in pts if d not in (a, b) and cross_ratio(a, b, c, d) == F(-1)
        ]
        assert others == [h]


def test_harmonic_frozen_value_and_rationals():
    F = GF(5)
    h = harmonic_conjugate(Point.affine(F, 0), Point.infinity(F), Point.affine(F, 1))
    assert str(h) == "4:1"
    hq = harmonic_conjugate(
        Point.affine(QQ, 0), Point.infinity(QQ), Point.affine(QQ, Fraction(1, 3))
    )
    assert hq == Point.affine(QQ, Fraction(-1, 3))


def test_harmonic_characteristic_two_degenerates():
    F = GF(2)
    a, b, c = points(F)
    with pytest.raises(DegenerateHarmonicError) as exc:
        harmonic_conjugate(a, b, c)
    assert exc.value.degenerate == c


def test_classical_table_row_ids():
    ids = table_row_ids()
    assert len(ids) == 18
    assert ids[0] == "cr:mu"
    assert "tri:1-1/mu" in ids
    assert "tri:-(1-mu)" in ids
    assert [r for r, _ in CR_ROWS] == ["mu", "1/mu", "1-mu", "1/(1-mu)", "1-1/mu", "1/(1-1/mu)"]


@pytest.mark.parametrize("p", [3, 5])
def test_classical_tables_exhaustive(p):
    report = verify_classical_tables(GF(p))
    assert report.passed
    assert len(report.checks) == 18
    for row in report.checks:
        assert row.failures == 0
        assert row.checked > 0


def test_classical_table_sweep_reports_failing_rows(monkeypatch):
    # break one row wherever the first point is 0:1: every such record
    # is counted, and the first max_witnesses of them are kept in
    # permutations order
    honest = projline.model.evaluate_table_rows

    def broken(quad):
        records = honest(quad)
        for rec in records:
            if rec["row"] == "tri:-mu" and str(quad[0]) == "0:1":
                rec["pass"] = False
        return records

    monkeypatch.setattr(projline.model, "evaluate_table_rows", broken)
    F = GF(5)
    first = [q for q in itertools.permutations(points(F), 4) if str(q[0]) == "0:1"][:3]
    expected = [
        {**next(r for r in honest(q) if r["row"] == "tri:-mu"), "pass": False} for q in first
    ]
    report = verify_classical_tables(F)
    assert report.name == "table over F5"
    assert not report.passed
    row = report.check("tri:-mu")
    assert (row.status, row.checked, row.failures) == ("fail", 360, 60)
    assert row.witnesses == expected
    assert [w["frame"] for w in row.witnesses] == [
        "0:1,1:1,2:1,3:1",
        "0:1,1:1,2:1,4:1",
        "0:1,1:1,2:1,1:0",
    ]
    others = [c for c in report.checks if c.name != "tri:-mu"]
    assert len(others) == 17
    assert all(c.status == "pass" and c.checked == 360 and not c.witnesses for c in others)

    bare = verify_classical_tables(F, max_witnesses=0).check("tri:-mu")
    assert (bare.status, bare.checked, bare.failures, bare.witnesses) == ("fail", 360, 60, [])


def test_package_exports_are_bound_once():
    # tooling wraps every exported name by looking it up on the package
    assert len(set(projline.__all__)) == len(projline.__all__)
    for name in projline.__all__:
        assert hasattr(projline, name), name


def test_classical_rows_on_rational_frame():
    # the frame 0, infinity, 1, -1/2 has cross ratio -2; the minus row
    # built on 1-mu must come out exactly -3, in both of its forms
    pts = [
        Point.affine(QQ, 0),
        Point.infinity(QQ),
        Point.affine(QQ, 1),
        Point.affine(QQ, Fraction(-1, 2)),
    ]
    assert cross_ratio(*pts) == QQ(-2)
    rows = {r["row"]: r for r in evaluate_table_rows(tuple(pts))}
    row = rows["tri:-(1-mu)"]
    assert row["pass"]
    assert row["expected"] == "-3"
    assert row["got"] == "-3"
    assert all(r["pass"] for r in rows.values())


def _seeded_quadruples(field, seed, count):
    """Pairwise-distinct quadruples drawn from a seeded stream.

    About one draw in five is the point at infinity; over the rationals
    the affine coordinates are fractions with denominators up to 12.
    """
    rng = random.Random(seed)

    def draw():
        if rng.random() < 0.2:
            return Point.infinity(field)
        if field is QQ:
            return Point.affine(field, Fraction(rng.randint(-50, 50), rng.randint(1, 12)))
        return Point.affine(field, rng.randrange(field.p))

    for _ in range(count):
        quad = []
        while len(quad) < 4:
            pt = draw()
            if pt not in quad:
                quad.append(pt)
        yield tuple(quad)


TABLE_RECORDS_SHA256 = "e15fe669005c279d00e823102dbaef0b37de37bfee104f8dcc63bc3325b1ff79"


def test_table_records_are_pinned():
    # the exact records of every row over seeded quadruples in small,
    # medium and word-sized prime fields and the rationals
    digest = hashlib.sha256(json.dumps(table_row_ids()).encode())
    for seed, field in enumerate((GF(3), GF(7), GF(10007), GF(2**31 - 1), QQ)):
        for quad in _seeded_quadruples(field, seed, 60):
            records = evaluate_table_rows(quad)
            digest.update(json.dumps(records, separators=(",", ":")).encode() + b"\n")
    assert digest.hexdigest() == TABLE_RECORDS_SHA256


rational_coords = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)


@settings(max_examples=60, deadline=None)
@given(st.lists(rational_coords, min_size=4, max_size=4, unique=True))
def test_rational_cross_ratio_matches_oracle(coords):
    pts = [Point.affine(QQ, v) for v in coords]
    assert cross_ratio(*pts).value == affine_cross_ratio(*coords)


@settings(max_examples=60, deadline=None)
@given(st.lists(rational_coords, min_size=6, max_size=6, unique=True))
def test_rational_tri_rapport_cyclic(coords):
    a, b, c, d, e, f = [Point.affine(QQ, v) for v in coords]
    v = tri_rapport(a, b, c, d, e, f)
    assert tri_rapport(b, c, a, e, f, d) == v


# -- the raw-value calculators against their element-level references ---------


def _harmonic_outcome(fn, a, b, c):
    # a degenerate conjugate must also name the same point
    try:
        return "ok", fn(a, b, c)
    except DegenerateHarmonicError as exc:
        return DegenerateHarmonicError, str(exc), exc.degenerate
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_calculators_match_the_element_reference_on_every_tuple(p):
    # every ordered triple and quadruple, repeated points included: an
    # input that raises must raise the same type with the same message
    pts = points(GF(p))
    for a, b, c in itertools.product(pts, repeat=3):
        assert outcome(label_to_arrow, a, b, c) == outcome(reference_label_to_arrow, a, b, c)
        assert _harmonic_outcome(harmonic_conjugate, a, b, c) == _harmonic_outcome(
            reference_harmonic_conjugate, a, b, c
        )
    for quad in itertools.product(pts, repeat=4):
        assert outcome(cross_ratio, *quad) == outcome(reference_cross_ratio, *quad)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_table_records_equal_the_reference_records_on_every_quadruple(p):
    pts = points(GF(p))
    for quad in itertools.product(pts, repeat=4):
        assert outcome(evaluate_table_rows, quad) == outcome(reference_table_records, quad)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_tri_rapport_matches_the_element_reference(p):
    # every ordered sextuple, repeated points included
    for args in itertools.product(points(GF(p)), repeat=6):
        assert outcome(tri_rapport, *args) == outcome(reference_tri_rapport, *args)


@pytest.mark.parametrize("field", [QQ, GF(2**31 - 1)], ids=str)
def test_calculators_match_the_element_reference_on_seeded_tuples(field):
    # each tuple draws from a pool of five points, so many repeat one and raise
    rng = random.Random(str(field))
    for _ in range(300):
        pool = [Point.infinity(field)] + [
            Point.affine(field, Fraction(rng.randint(-50, 50), rng.randint(1, 12)))
            if field is QQ
            else Point.affine(field, rng.randrange(field.p))
            for _ in range(4)
        ]
        a, b, c, d, e, f = (rng.choice(pool) for _ in range(6))
        assert outcome(label_to_arrow, a, b, c) == outcome(reference_label_to_arrow, a, b, c)
        assert outcome(cross_ratio, a, b, c, d) == outcome(reference_cross_ratio, a, b, c, d)
        assert outcome(tri_rapport, a, b, c, d, e, f) == outcome(
            reference_tri_rapport, a, b, c, d, e, f
        )
        assert outcome(harmonic_conjugate, a, b, c) == outcome(
            reference_harmonic_conjugate, a, b, c
        )
        quad = (a, b, c, d)
        assert outcome(evaluate_table_rows, quad) == outcome(reference_table_records, quad)


def test_table_rows_are_determinant_products_without_arrows(monkeypatch):
    # 6 two-leg cross-ratio rows, 6 three-leg rows and 6 negated rows of
    # two three-leg forms: one determinant product per form, 24 in all, no
    # model arrow built or composed, and no second cross ratio for mu
    calls = []
    for name in ("ModelArrow", "label_to_arrow", "compose", "cross_ratio", "tri_rapport",
                 "_rapport_terms"):
        honest = getattr(projline.model, name)

        def counted(*args, name=name, honest=honest):
            calls.append(name)
            return honest(*args)

        monkeypatch.setattr(projline.model, name, counted)
    for quad in itertools.permutations(points(GF(5)), 4):
        calls.clear()
        evaluate_table_rows(quad)
        assert calls == ["_rapport_terms"] * 24


def test_points_over_two_fields_raise_field_mismatch_first():
    # every argument but one is the same point of F_5, and the odd one is
    # over F_7 or Q: the field check comes before any distinctness check
    calculators = {
        label_to_arrow: 3,
        cross_ratio: 4,
        tri_rapport: 6,
        harmonic_conjugate: 3,
        lambda *quad: evaluate_table_rows(quad): 4,
    }
    same = Point.affine(GF(5), 1)
    for other in (Point.affine(GF(7), 1), Point.affine(QQ, 1)):
        for fn, arity in calculators.items():
            for k in range(arity):
                args = [same] * arity
                args[k] = other
                with pytest.raises(FieldMismatchError):
                    fn(*args)
    # in characteristic two as well, before the degenerate conjugate
    a, b, _ = points(GF(2))
    with pytest.raises(FieldMismatchError):
        harmonic_conjugate(a, b, Point.affine(GF(3), 2))


def test_point_normalization_check_is_unchanged():
    # a pair is accepted exactly when y = 1, or y = 0 and x = 1, and
    # coordinates from two fields are refused
    for field in (GF(2), GF(5)):
        for x, y in itertools.product(list(field.elements()), repeat=2):
            accepted = y == field.one() or (y == field.zero() and x == field.one())
            if accepted:
                assert str(Point(x, y)) == f"{x}:{y}"
            else:
                with pytest.raises(ValueError, match=r"is not normalized; use from_homogeneous$"):
                    Point(x, y)
    assert Point(QQ(Fraction(1, 2)), QQ(1)).x.value == Fraction(1, 2)
    with pytest.raises(ValueError, match=r"^\(1/2:2\) is not normalized"):
        Point(QQ(Fraction(1, 2)), QQ(2))
    with pytest.raises(ValueError, match="^coordinates of a point must share a field$"):
        Point(GF(5)(1), GF(7)(1))
    with pytest.raises(ValueError, match="^coordinates of a point must share a field$"):
        Point.from_homogeneous(GF(5)(2), GF(7)(2))

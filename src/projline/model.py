"""The projective line over an exact field, with arrows between points.

A point is a one-dimensional subspace of the plane, stored through its
normalized representative: ``(x, 1)`` for affine points and ``(1, 0)``
for the point at infinity.  For distinct points A, B and a third point
C off both, projection of the plane onto B's line along C's line
restricts to a linear isomorphism A -> B; that arrow is what the label
C names.  Relative to normalized representatives an arrow is a single
nonzero scale factor, and composing arrows multiplies factors.
Composites are written left to right throughout: ``compose(f, g)``
applies ``f`` first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Optional, Sequence

from .reports import ReportGroup, make_check
from .scalars import Field, FieldElement, PrimeField, RationalField


class DegenerateHarmonicError(ValueError):
    """Harmonic conjugation collapses in characteristic two.

    There 1 = -1, so the fourth point coincides with the third and no
    new point exists; the degenerate point is reported on the error.
    """

    def __init__(self, message: str, degenerate: "Point"):
        super().__init__(message)
        self.degenerate = degenerate


@dataclass(frozen=True)
class Point:
    """A point of the projective line in normalized coordinates."""

    x: FieldElement
    y: FieldElement

    def __post_init__(self) -> None:
        if self.x.field != self.y.field:
            raise ValueError("coordinates of a point must share a field")
        one = self.field.one()
        if not (self.y == one or (self.y == self.field.zero() and self.x == one)):
            raise ValueError(
                f"({self.x}:{self.y}) is not normalized; use from_homogeneous"
            )

    @property
    def field(self) -> Field:
        return self.x.field

    @property
    def is_infinity(self) -> bool:
        return self.y == self.field.zero()

    @classmethod
    def affine(cls, field: Field, value) -> "Point":
        return cls(field(value), field.one())

    @classmethod
    def infinity(cls, field: Field) -> "Point":
        return cls(field.one(), field.zero())

    @classmethod
    def from_homogeneous(cls, x: FieldElement, y: FieldElement) -> "Point":
        """Normalize an arbitrary nonzero coordinate pair."""
        if x.field != y.field:
            raise ValueError("coordinates of a point must share a field")
        field = x.field
        if y != field.zero():
            return cls.affine(field, x / y)
        if x == field.zero():
            raise ValueError("(0:0) does not name a point")
        return cls.infinity(field)

    @classmethod
    def parse(cls, field: Field, text: str) -> "Point":
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"point syntax is x:y, got {text!r}")
        if isinstance(field, PrimeField):
            x, y = field(int(parts[0])), field(int(parts[1]))
        else:
            from fractions import Fraction

            x, y = field(Fraction(parts[0])), field(Fraction(parts[1]))
        return cls.from_homogeneous(x, y)

    def __str__(self) -> str:
        return f"{self.x}:{self.y}"


def points(field: Field, coords: Optional[Sequence] = None) -> list[Point]:
    """Enumerate points in canonical order.

    Prime fields enumerate completely: the affine points 0:1 through
    (p-1):1 followed by 1:0.  The rationals have no finite enumeration,
    so a coordinate list must be supplied and is used verbatim.
    """
    if isinstance(field, PrimeField):
        if coords is not None:
            raise ValueError("coordinate lists are only for the rationals")
        out = [Point.affine(field, v) for v in range(field.p)]
        out.append(Point.infinity(field))
        return out
    if coords is None:
        raise ValueError("the rationals need an explicit finite coordinate list")
    return [Point.affine(field, c) for c in coords]


@dataclass(frozen=True)
class ModelArrow:
    """A linear isomorphism between two points' lines, as a scale factor."""

    src: Point
    dst: Point
    factor: FieldElement

    def __post_init__(self) -> None:
        if self.factor == self.factor.field.zero():
            raise ValueError("arrow factors are nonzero")

    @property
    def is_endo(self) -> bool:
        return self.src == self.dst

    def __str__(self) -> str:
        return f"{self.src} -> {self.dst} [{self.factor}]"


def identity(a: Point) -> ModelArrow:
    return ModelArrow(a, a, a.field.one())


def inverse(f: ModelArrow) -> ModelArrow:
    return ModelArrow(f.dst, f.src, f.factor.inv())


def compose(f: ModelArrow, g: ModelArrow) -> ModelArrow:
    """Left-to-right composite: apply ``f``, then ``g``."""
    if f.dst != g.src:
        raise ValueError(f"cannot compose {f} then {g}")
    return ModelArrow(f.src, g.dst, f.factor * g.factor)


def _det(p: Point, q: Point) -> FieldElement:
    return p.x * q.y - p.y * q.x


def label_to_arrow(a: Point, b: Point, c: Point) -> ModelArrow:
    """The arrow a -> b named by the label c.

    Solving rep(a) = beta*rep(b) + gamma*rep(c) exactly (a 2x2 system
    with nonzero determinant since the points are distinct), projection
    onto b along c sends rep(a) to beta*rep(b), so the factor is beta.
    """
    if len({a, b, c}) != 3:
        raise ValueError(f"label and endpoints must be three distinct points: {a}, {b}, {c}")
    beta = _det(a, c) / _det(b, c)
    return ModelArrow(a, b, beta)


def arrow_to_label(f: ModelArrow) -> Point:
    """The unique label naming a non-endo arrow.

    Inverts label_to_arrow: rep(src) - factor*rep(dst) spans the
    label's line.
    """
    if f.is_endo:
        raise ValueError("endo arrows are scalars, not labeled projections")
    x = f.src.x - f.factor * f.dst.x
    y = f.src.y - f.factor * f.dst.y
    return Point.from_homogeneous(x, y)


def cross_ratio(a: Point, b: Point, c: Point, d: Point) -> FieldElement:
    """The scalar at ``a`` of the round trip a -> b via c, b -> a via d.

    Defined when a, b, c are distinct and a, b, d are distinct; c = d
    is allowed and gives 1.
    """
    if len({a, b, c}) != 3 or len({a, b, d}) != 3:
        raise ValueError(f"cross ratio needs a,b,c and a,b,d distinct: {a},{b};{c},{d}")
    return compose(label_to_arrow(a, b, c), label_to_arrow(b, a, d)).factor


def tri_rapport(
    a: Point, b: Point, c: Point, d: Point, e: Point, f: Point
) -> FieldElement:
    """The scalar at ``a`` of the three-leg cycle a -> b via d, b -> c via e, c -> a via f.

    The three base points must be pairwise distinct; each label must
    differ from its leg's endpoints (d off a,b; e off b,c; f off c,a).
    Rows are cyclically but not freely permutable.
    """
    if len({a, b, c}) != 3:
        raise ValueError(f"base points must be pairwise distinct: {a},{b},{c}")
    if d in (a, b) or e in (b, c) or f in (c, a):
        raise ValueError(f"labels must avoid their endpoints: ({a},{b},{c};{d},{e},{f})")
    leg1 = label_to_arrow(a, b, d)
    leg2 = label_to_arrow(b, c, e)
    leg3 = label_to_arrow(c, a, f)
    return (leg1.factor * leg2.factor) * leg3.factor


def minus_one(a: Point, pts: Optional[Sequence[Point]] = None) -> FieldElement:
    """The scalar -1 at ``a``, built geometrically from two helper points.

    Uses the first two admissible points in enumeration order (or in
    the supplied list's order); the value does not depend on the
    choice, which the candidate checkers verify separately.
    """
    if pts is None:
        pts = points(a.field)
    helpers = [q for q in pts if q != a]
    if len(helpers) < 2:
        raise ValueError("need at least two points besides the base point")
    b, c = helpers[0], helpers[1]
    return tri_rapport(a, b, c, c, a, b)


def harmonic_conjugate(a: Point, b: Point, c: Point) -> Point:
    """The fourth point h with cross_ratio(a, b, c, h) = -1.

    Equivalently the label of the composite b -> c via a, c -> a via b.
    Characteristic two is degenerate (h would coincide with c) and is
    reported, not returned.
    """
    if len({a, b, c}) != 3:
        raise ValueError(f"need three distinct points, got {a}, {b}, {c}")
    if a.field.characteristic == 2:
        raise DegenerateHarmonicError(
            "harmonic conjugation degenerates in characteristic two: "
            f"the conjugate of {c} over ({a}, {b}) is {c} itself",
            degenerate=c,
        )
    h = arrow_to_label(compose(label_to_arrow(b, c, a), label_to_arrow(c, a, b)))
    return h


# The eighteen-row identity table.  Each quadruple (A,B,C,D) of
# pairwise-distinct points has cross ratio mu outside {0, 1}, and each
# row states one scalar identity: six cross-ratio permutations, six
# three-leg forms of the same six values, and six negated values each
# realized by two distinct three-leg forms.
# Index tuples select from (A, B, C, D) = (0, 1, 2, 3).

_EXPR_VALUES = {
    "mu": lambda mu: mu,
    "1/mu": lambda mu: 1 / mu,
    "1-mu": lambda mu: 1 - mu,
    "1/(1-mu)": lambda mu: 1 / (1 - mu),
    "1-1/mu": lambda mu: 1 - 1 / mu,
    "1/(1-1/mu)": lambda mu: 1 / (1 - 1 / mu),
}

CR_ROWS: tuple[tuple[str, tuple[int, int, int, int]], ...] = (
    ("mu", (0, 1, 2, 3)),
    ("1/mu", (0, 1, 3, 2)),
    ("1-mu", (0, 2, 1, 3)),
    ("1/(1-mu)", (0, 2, 3, 1)),
    ("1-1/mu", (0, 3, 1, 2)),
    ("1/(1-1/mu)", (0, 3, 2, 1)),
)

TRI_ROWS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("mu", (0, 2, 3, 1, 0, 1)),
    ("1/mu", (0, 3, 2, 1, 0, 1)),
    ("1-mu", (0, 1, 3, 2, 0, 2)),
    ("1/(1-mu)", (0, 3, 1, 2, 0, 2)),
    ("1-1/mu", (0, 1, 2, 3, 0, 3)),
    ("1/(1-1/mu)", (0, 2, 1, 3, 0, 3)),
)

MINUS_ROWS: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...] = (
    ("mu", (0, 1, 3, 2, 0, 1), (0, 2, 1, 1, 0, 3)),
    ("1/mu", (0, 1, 2, 3, 0, 1), (0, 3, 1, 1, 0, 2)),
    ("1-mu", (0, 2, 3, 1, 0, 2), (0, 1, 2, 2, 0, 3)),
    ("1/(1-mu)", (0, 2, 1, 3, 0, 2), (0, 3, 2, 2, 0, 1)),
    ("1-1/mu", (0, 3, 2, 1, 0, 3), (0, 1, 3, 3, 0, 2)),
    ("1/(1-1/mu)", (0, 3, 1, 2, 0, 3), (0, 2, 3, 3, 0, 1)),
)


def _neg_name(expr: str) -> str:
    return f"-{expr}" if expr in ("mu", "1/mu", "1/(1-mu)", "1/(1-1/mu)") else f"-({expr})"


# One entry per row, in canonical order:
# (row id, expression, negated, rapport, index tuple of each form).
_ROWS = (
    *((f"cr:{e}", e, False, cross_ratio, (idx,)) for e, idx in CR_ROWS),
    *((f"tri:{e}", e, False, tri_rapport, (idx,)) for e, idx in TRI_ROWS),
    *((f"tri:{_neg_name(e)}", e, True, tri_rapport, (i1, i2)) for e, i1, i2 in MINUS_ROWS),
)


def table_row_ids() -> list[str]:
    """The eighteen row identifiers in canonical order."""
    return [row[0] for row in _ROWS]


def evaluate_table_rows(
    quad: Sequence[Point],
) -> list[dict]:
    """Evaluate all eighteen rows on one pairwise-distinct quadruple.

    Returns one record per row with the fixed shape
    {row, frame, expected, got, pass}.  ``got`` is the row's value, or
    ``v1|v2`` when a negated row's two forms differ; a row passes when
    every form equals ``expected``.
    """
    a, b, c, d = quad
    if len({a, b, c, d}) != 4:
        raise ValueError("table rows need four pairwise-distinct points")
    frame = f"{a},{b},{c},{d}"
    mu = cross_ratio(a, b, c, d)
    values = {expr: value(mu) for expr, value in _EXPR_VALUES.items()}
    records = []
    for row, expr, negated, rapport, forms in _ROWS:
        expected = -values[expr] if negated else values[expr]
        got = [rapport(*(quad[i] for i in idx)) for idx in forms]
        records.append({
            "row": row,
            "frame": frame,
            "expected": str(expected),
            "got": "|".join(map(str, dict.fromkeys(got))),
            "pass": all(v == expected for v in got),
        })
    return records


def verify_classical_tables(field: Field, max_witnesses: int = 3) -> ReportGroup:
    """Sweep the eighteen-row table over every pairwise-distinct quadruple.

    Exhaustive over a prime field.  The group holds one check per row;
    every failure is counted, and the first ``max_witnesses`` failing
    records in sweep order are its witnesses.
    """
    if not isinstance(field, PrimeField):
        raise ValueError("table sweeps enumerate points, so they need a prime field")
    row_ids = table_row_ids()
    checked = 0
    failures = dict.fromkeys(row_ids, 0)
    witnesses: dict[str, list[dict]] = {r: [] for r in row_ids}
    for quad in permutations(points(field), 4):
        checked += 1
        for rec in evaluate_table_rows(quad):
            if not rec["pass"]:
                rid = rec["row"]
                failures[rid] += 1
                if len(witnesses[rid]) < max_witnesses:
                    witnesses[rid].append(rec)
    checks = [make_check(r, checked, failures[r], witnesses[r]) for r in row_ids]
    return ReportGroup(f"table over {field}", checks)

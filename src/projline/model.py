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
from .scalars import Field, FieldElement, FieldMismatchError, PrimeField


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
        if not (self.y.value == 1 or (self.y.value == 0 and self.x.value == 1)):
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
        if y:
            return cls(field._ratio(x.value, y.value), field.one())
        if not x:
            raise ValueError("(0:0) does not name a point")
        return cls.infinity(field)

    @classmethod
    def parse(cls, field: Field, text: str) -> "Point":
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"point syntax is x:y, got {text!r}")
        return cls.from_homogeneous(field(parts[0]), field(parts[1]))

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


def _det(u, v):
    """The determinant of raw coordinate pairs (x, y) of ints, Fractions or numpy arrays."""
    return u[0] * v[1] - u[1] * v[0]


def _rapport_terms(legs):
    """Numerator and denominator of the product of the factors det(a, c) / det(b, c)
    of the arrows a -> b named by c, one per leg (a, b, c) of raw coordinate pairs."""
    num = den = 1
    for a, b, c in legs:
        num = num * _det(a, c)
        den = den * _det(b, c)
    return num, den


def _cr_legs(a, b, c, d):
    """The legs of ``cross_ratio(a, b, c, d)``: a -> b via c, b -> a via d."""
    return (a, b, c), (b, a, d)


def _tri_legs(a, b, c, d, e, f):
    """The legs of ``tri_rapport(a, b, c, d, e, f)``: a -> b via d, b -> c via e, c -> a via f."""
    return (a, b, d), (b, c, e), (c, a, f)


def _shared(pts: Sequence[Point]) -> tuple:
    """The field ``pts`` share, checked before any comparison, and their raw coordinates."""
    field = pts[0].x.field
    for q in pts:
        if q.x.field is not field and q.x.field != field:
            raise FieldMismatchError(f"cannot combine points over {field} and {q.x.field}")
    return field, [(q.x.value, q.y.value) for q in pts]


def label_to_arrow(a: Point, b: Point, c: Point) -> ModelArrow:
    """The arrow a -> b named by the label c.

    Solving rep(a) = beta*rep(b) + gamma*rep(c) exactly (a 2x2 system
    with nonzero determinant since the points are distinct), projection
    onto b along c sends rep(a) to beta*rep(b), so the factor is
    beta = det(a, c) / det(b, c).
    """
    field, (ca, cb, cc) = _shared((a, b, c))
    if ca == cb or cc in (ca, cb):
        raise ValueError(f"label and endpoints must be three distinct points: {a}, {b}, {c}")
    return ModelArrow(a, b, field._ratio(*_rapport_terms([(ca, cb, cc)])))


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


def _text(p: Point) -> str:
    """``str(p)``, or a stand-in when a coordinate is too long for the
    interpreter to print, so that a message naming ``p`` can be built."""
    try:
        return str(p)
    except ValueError:
        return "<a point too long to print>"


def cross_ratio(a: Point, b: Point, c: Point, d: Point) -> FieldElement:
    """The scalar at ``a`` of the round trip a -> b via c, b -> a via d:
    det(a,c)·det(b,d) / (det(b,c)·det(a,d)).

    Defined when a, b, c are distinct and a, b, d are distinct; c = d
    is allowed and gives 1.
    """
    field, (ca, cb, cc, cd) = _shared((a, b, c, d))
    if ca == cb or cc in (ca, cb) or cd in (ca, cb):
        a, b, c, d = map(_text, (a, b, c, d))
        raise ValueError(f"cross ratio needs a,b,c and a,b,d distinct: {a},{b};{c},{d}")
    return field._ratio(*_rapport_terms(_cr_legs(ca, cb, cc, cd)))


def tri_rapport(
    a: Point, b: Point, c: Point, d: Point, e: Point, f: Point
) -> FieldElement:
    """The scalar at ``a`` of the three-leg cycle a -> b via d, b -> c via e, c -> a via f:
    det(a,d)·det(b,e)·det(c,f) / (det(b,d)·det(c,e)·det(a,f)).

    The three base points must be pairwise distinct; each label must
    differ from its leg's endpoints (d off a,b; e off b,c; f off c,a).
    Rows are cyclically but not freely permutable.
    """
    field, (ca, cb, cc, cd, ce, cf) = _shared((a, b, c, d, e, f))
    if ca == cb or ca == cc or cb == cc:
        a, b, c = map(_text, (a, b, c))
        raise ValueError(f"base points must be pairwise distinct: {a},{b},{c}")
    if cd in (ca, cb) or ce in (cb, cc) or cf in (cc, ca):
        a, b, c, d, e, f = map(_text, (a, b, c, d, e, f))
        raise ValueError(f"labels must avoid their endpoints: ({a},{b},{c};{d},{e},{f})")
    return field._ratio(*_rapport_terms(_tri_legs(ca, cb, cc, cd, ce, cf)))


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

    Equivalently the label of the composite b -> c via a, c -> a via b,
    whose factor is det(b,c)/det(c,a); its label spans
    det(c,a)·rep(b) − det(b,c)·rep(a).  Characteristic two is
    degenerate (h would coincide with c) and is reported, not returned.
    """
    field, (ca, cb, cc) = _shared((a, b, c))
    if ca == cb or cc in (ca, cb):
        a, b, c = map(_text, (a, b, c))
        raise ValueError(f"need three distinct points, got {a}, {b}, {c}")
    if field.characteristic == 2:
        raise DegenerateHarmonicError(
            "harmonic conjugation degenerates in characteristic two: "
            f"the conjugate of {c} over ({a}, {b}) is {c} itself",
            degenerate=c,
        )
    s, t = _det(cc, ca), _det(cb, cc)
    return Point.from_homogeneous(
        field._wrap(s * cb[0] - t * ca[0]), field._wrap(s * cb[1] - t * ca[1])
    )


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


# One entry per row, in canonical order: (row id, expression, negated,
# the legs of each form as index triples).
_ROWS = (
    *((f"cr:{e}", e, False, (_cr_legs(*idx),)) for e, idx in CR_ROWS),
    *((f"tri:{e}", e, False, (_tri_legs(*idx),)) for e, idx in TRI_ROWS),
    *((f"tri:{_neg_name(e)}", e, True, (_tri_legs(*i), _tri_legs(*j))) for e, i, j in MINUS_ROWS),
)


def table_row_ids() -> list[str]:
    """The eighteen row identifiers in canonical order."""
    return [row[0] for row in _ROWS]


def evaluate_table_rows(
    quad: Sequence[Point],
) -> list[dict]:
    """Evaluate all eighteen rows on one pairwise-distinct quadruple.

    Returns one record per row with the fixed shape
    {row, frame, expected, got, pass}.  ``got`` is the row's value, the
    product of the factors det(a,c)/det(b,c) along its legs, or ``v1|v2``
    when a negated row's two forms differ; a row passes when every form
    equals ``expected``.  mu is the value of the first row, cr:mu.
    """
    a, b, c, d = quad
    field, coords = _shared(quad)
    if len(set(coords)) != 4:
        raise ValueError("table rows need four pairwise-distinct points")
    frame = f"{a},{b},{c},{d}"
    got_rows = [
        [field._ratio(*_rapport_terms([[coords[i] for i in leg] for leg in legs]))
         for legs in forms]
        for *_, forms in _ROWS
    ]
    mu = got_rows[0][0]
    values = {expr: value(mu) for expr, value in _EXPR_VALUES.items()}
    records = []
    for (row, expr, negated, _), got in zip(_ROWS, got_rows):
        expected = -values[expr] if negated else values[expr]
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

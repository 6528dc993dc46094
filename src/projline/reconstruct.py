"""Rebuilding the scalar field of a candidate table from composition alone.

The vertex group at a chosen base object gives the nonzero elements and
their multiplication.  Addition is recovered through the swap map that
sends the scalar of one round trip to the scalar of the round trip with
the two inner objects exchanged; on the classical line that map is
mu -> 1 - mu, which together with negation generates all sums.  Zero is
adjoined as a fresh element: it is the image of 1 under the swap map,
which no vertex scalar realizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .candidate import (
    CandidateTable,
    Endo,
    _scalar,
    canonical_scalar,
    cross_ratio_abs,
    tri_rapport_abs,
)
from .reports import CheckReport, ReportGroup, make_check
from .scalars import is_prime


class ReconstructionError(ValueError):
    """The table does not support field reconstruction at this base."""


def _default_helpers(table: CandidateTable, base: str) -> tuple[str, str]:
    rest = [o for o in table.objects if o != base]
    return rest[0], rest[1]


def reconstruct_minus_one(table: CandidateTable, base: Optional[str] = None) -> Endo:
    """The scalar -1 at the base object, with its defining laws verified.

    -1 is the value of the three-leg cycle base -> B -> C -> base whose
    legs are labeled C, base, B.  The value must not depend on the
    helper pair, must square to the identity, and must agree across
    objects under transport; violations raise ReconstructionError.
    """
    if base is None:
        base = table.objects[0]
    if base not in table.identities:
        raise ReconstructionError(f"unknown base object {base!r}")

    def cycle_value(a: str) -> Endo:
        b, c = _default_helpers(table, a)
        return tri_rapport_abs(table, a, b, c, c, a, b)

    m = cycle_value(base)
    for b in table.objects:
        if b == base:
            continue
        for c in table.objects:
            if c in (base, b):
                continue
            got = tri_rapport_abs(table, base, b, c, c, base, b)
            if got != m:
                raise ReconstructionError(
                    f"-1 is not well defined at {base}: helpers ({b},{c}) give {got}, "
                    f"({_default_helpers(table, base)}) give {m}"
                )
    if table.compose(m, m) != table.identity_arrow(base):
        raise ReconstructionError(f"candidate -1 at {base} does not square to the identity: {m}")
    for x in table.objects:
        if x == base:
            continue
        moved = canonical_scalar(table, cycle_value(x), base)
        if moved != m:
            raise ReconstructionError(
                f"-1 differs between objects: at {x} it transports to {moved}, not {m}"
            )
    return m


def phi(
    table: CandidateTable,
    base: str,
    mu: Optional[str],
    b: Optional[str] = None,
    c: Optional[str] = None,
) -> Optional[str]:
    """The swap map on scalars at ``base``; None stands for the adjoined zero.

    For mu realized as the round trip scalar of (base,b;c,d), the image
    is the scalar of (base,c;b,d).  Classically this is mu -> 1 - mu:
    phi(1) is the zero (returned as None) and phi(None) is 1.
    """
    if base not in table.identities:
        raise ReconstructionError(f"unknown base object {base!r}")
    db, dc = _default_helpers(table, base)
    b = db if b is None else b
    c = dc if c is None else c
    if len({base, b, c}) != 3:
        raise ReconstructionError(f"helpers must be distinct from the base: {base},{b},{c}")
    one = table.identities[base]
    if mu is None:
        return one
    if mu not in table.scalars[base]:
        raise ReconstructionError(f"{mu!r} is not a scalar id at {base!r}")
    if mu == one:
        return None
    want = Endo(base, mu)
    for d in table.objects:
        if d in (base, b):
            continue
        if cross_ratio_abs(table, base, b, c, d) == want:
            return cross_ratio_abs(table, base, c, b, d).scalar
    raise ReconstructionError(
        f"no fourth object realizes cross ratio {mu} over ({base},{b};{c},...)"
    )


def _zero_name(taken: tuple[str, ...]) -> str:
    if "0" not in taken:
        return "0"
    k = 0
    while f"zero{k}" in taken:
        k += 1
    return f"zero{k}"


@dataclass(frozen=True)
class FieldTable:
    """A finite field presented by name list and index operation tables.

    ``carrier[0]`` is the adjoined zero; the rest are the scalar ids of
    the base vertex group in declared order.  ``add`` and ``mul`` are
    row-major: table[i][j] is the carrier index of carrier[i] op
    carrier[j].
    """

    base_object: str
    carrier: tuple[str, ...]
    zero: str
    one: str
    minus_one: str
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.carrier)

    def index(self, name: str) -> int:
        try:
            return self.carrier.index(name)
        except ValueError:
            raise ReconstructionError(f"{name!r} is not a field element") from None

    def add_name(self, x: str, y: str) -> str:
        return self.carrier[self.add[self.index(x)][self.index(y)]]

    def mul_name(self, x: str, y: str) -> str:
        return self.carrier[self.mul[self.index(x)][self.index(y)]]

    def to_doc(self) -> dict:
        return {
            "order": self.order,
            "zero": self.zero,
            "one": self.one,
            "minus_one": self.minus_one,
            "carrier": list(self.carrier),
            "add": [list(r) for r in self.add],
            "mul": [list(r) for r in self.mul],
        }

    @classmethod
    def from_doc(cls, doc: dict, base_object: str = "") -> "FieldTable":
        try:
            carrier = tuple(doc["carrier"])
            n = len(carrier)
            add = tuple(tuple(int(v) for v in row) for row in doc["add"])
            mul = tuple(tuple(int(v) for v in row) for row in doc["mul"])
            zero, one, minus_one = doc["zero"], doc["one"], doc["minus_one"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ReconstructionError(f"malformed field table document: {exc}") from exc
        if doc.get("order") != n or len(set(carrier)) != n or n < 2:
            raise ReconstructionError("carrier must list order-many distinct names")
        for t in (add, mul):
            if len(t) != n or any(len(r) != n for r in t):
                raise ReconstructionError("operation tables must be order x order")
            if any(v < 0 or v >= n for r in t for v in r):
                raise ReconstructionError("operation table entries must index the carrier")
        for nm in (zero, one, minus_one):
            if nm not in carrier:
                raise ReconstructionError(f"{nm!r} is not in the carrier")
        return cls(base_object, carrier, zero, one, minus_one, add, mul)


def build_field(table: CandidateTable, base: Optional[str] = None) -> FieldTable:
    """Reconstruct the full field at ``base``: nonzero scalars plus a zero.

    Multiplication is endo composition.  Addition comes from
    x + y = x * phi(-1 * x^-1 * y) for nonzero x, with the zero cases
    filled in directly.  A table that is not a groupoid can lack an
    inverse or turn a scalar route into a non-scalar; that raises
    ReconstructionError like any other failed law.
    """
    try:
        return _build_field(table, base)
    except ReconstructionError:
        raise
    except ValueError as exc:
        raise ReconstructionError(str(exc)) from exc


def _build_field(table: CandidateTable, base: Optional[str]) -> FieldTable:
    if base is None:
        base = table.objects[0]
    minus = reconstruct_minus_one(table, base)
    ids = table.scalars[base]
    zero = _zero_name(ids)
    carrier = (zero,) + ids
    pos = {nm: i for i, nm in enumerate(carrier)}
    one = table.identities[base]

    def endo(sid: str) -> Endo:
        return Endo(base, sid)

    def mul2(x: str, y: str) -> str:
        return _scalar(table.compose(endo(x), endo(y)), base, f"{endo(x)} then {endo(y)}").scalar

    phi_map: dict[Optional[str], Optional[str]] = {None: one}
    for sid in ids:
        phi_map[sid] = phi(table, base, sid)

    inv_of = {sid: table.inverse_arrow(endo(sid)).scalar for sid in ids}

    n = len(carrier)
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for i, x in enumerate(carrier):
        for j, y in enumerate(carrier):
            if x == zero or y == zero:
                mul[i][j] = 0
                add[i][j] = j if x == zero else i
                continue
            mul[i][j] = pos[mul2(x, y)]
            t = phi_map[mul2(minus.scalar, mul2(inv_of[x], y))]
            add[i][j] = 0 if t is None else pos[mul2(x, t)]
    return FieldTable(
        base_object=base,
        carrier=carrier,
        zero=zero,
        one=one,
        minus_one=minus.scalar,
        add=tuple(tuple(r) for r in add),
        mul=tuple(tuple(r) for r in mul),
    )


def verify_field(ft: FieldTable, max_witnesses: int = 5) -> ReportGroup:
    """Check every field law on the finished tables, with witnesses."""
    cap = max_witnesses
    n = ft.order
    A = np.array(ft.add, dtype=np.int32)
    M = np.array(ft.mul, dtype=np.int32)
    z = ft.index(ft.zero)
    e = ft.index(ft.one)
    names = ft.carrier
    checks: list[CheckReport] = []

    def law(name: str, bad: np.ndarray, checked: int, render) -> None:
        idx = np.argwhere(bad)
        wit = [render(tuple(int(v) for v in row)) for row in idx[:cap]]
        checks.append(make_check(name, checked, int(bad.sum()), wit))

    checks.append(
        make_check("zero-one-distinct", 1, 0 if z != e else 1, [] if z != e else ["0 = 1"])
    )
    law(
        "zero-identity",
        (A[z, :] != np.arange(n)) | (A[:, z] != np.arange(n)),
        2 * n,
        lambda w: f"0 + {names[w[0]]} or {names[w[0]]} + 0 is not {names[w[0]]}",
    )
    law(
        "add-commutes",
        A != A.T,
        n * n,
        lambda w: f"{names[w[0]]} + {names[w[1]]} != {names[w[1]]} + {names[w[0]]}",
    )
    law(
        "add-associates",
        A[A[:, :, None], np.arange(n)[None, None, :]]
        != A[np.arange(n)[:, None, None], A[None, :, :]],
        n**3,
        lambda w: f"({names[w[0]]} + {names[w[1]]}) + {names[w[2]]} groups differently",
    )
    law(
        "add-inverses",
        A[np.arange(n), M[ft.index(ft.minus_one), :]] != z,
        n,
        lambda w: f"{names[w[0]]} + (-1)*{names[w[0]]} is not 0",
    )
    law(
        "one-identity",
        (M[e, :] != np.arange(n)) | (M[:, e] != np.arange(n)),
        2 * n,
        lambda w: f"1 * {names[w[0]]} or {names[w[0]]} * 1 is not {names[w[0]]}",
    )
    law(
        "mul-commutes",
        M != M.T,
        n * n,
        lambda w: f"{names[w[0]]} * {names[w[1]]} != {names[w[1]]} * {names[w[0]]}",
    )
    law(
        "mul-associates",
        M[M[:, :, None], np.arange(n)[None, None, :]]
        != M[np.arange(n)[:, None, None], M[None, :, :]],
        n**3,
        lambda w: f"({names[w[0]]} * {names[w[1]]}) * {names[w[2]]} groups differently",
    )
    nonzero = np.array([i for i in range(n) if i != z], dtype=np.int32)
    has_inv = (M[np.ix_(nonzero, nonzero)] == e).any(axis=1)
    law(
        "mul-inverses",
        ~has_inv,
        int(nonzero.size),
        lambda w: f"{names[int(nonzero[w[0]])]} has no multiplicative inverse",
    )
    law(
        "zero-absorbs",
        (M[z, :] != z) | (M[:, z] != z),
        2 * n,
        lambda w: f"0 * {names[w[0]]} or {names[w[0]]} * 0 is not 0",
    )
    law(
        "distributes",
        M[np.arange(n)[:, None, None], A[None, :, :]]
        != A[M[:, :, None], M[:, None, :]],
        n**3,
        lambda w: f"{names[w[0]]} * ({names[w[1]]} + {names[w[2]]}) is not the sum of products",
    )
    return ReportGroup("field", checks)


@dataclass(frozen=True)
class Classification:
    """What the reconstructed field is, up to isomorphism."""

    order: int
    characteristic: int
    is_prime_field: bool
    residue_map: Optional[dict[str, int]]

    def to_doc(self) -> dict:
        return {
            "order": self.order,
            "characteristic": self.characteristic,
            "prime": self.is_prime_field,
            "map": dict(self.residue_map) if self.residue_map is not None else None,
        }


def classify_prime(ft: FieldTable, report: Optional[ReportGroup] = None) -> Classification:
    """Identify a verified field table of prime order with Z/pZ.

    Runs verify_field unless a report is supplied; a failing report
    raises ReconstructionError.  For prime order the residue map sends
    the n-fold sum of 1 to n and is checked to be a bijective
    homomorphism for both operations.  Non-prime orders are classified
    by order and characteristic only.
    """
    if report is None:
        report = verify_field(ft)
    if not report.passed:
        bad = [c.name for c in report.checks if c.status == "fail"]
        raise ReconstructionError(f"field laws fail ({', '.join(bad)}); not a field")
    n = ft.order
    z, e = ft.index(ft.zero), ft.index(ft.one)
    sums = [z]
    cur = z
    for _ in range(n):
        cur = ft.add[cur][e]
        sums.append(cur)
    try:
        characteristic = next(k for k in range(1, len(sums)) if sums[k] == z)
    except StopIteration:
        raise ReconstructionError("1 has infinite additive order; not a finite field") from None
    if not is_prime(n):
        return Classification(n, characteristic, False, None)
    if characteristic != n or len(set(sums[:n])) != n:
        raise ReconstructionError(
            f"order {n} is prime but 1 has additive order {characteristic}"
        )
    to_res = {ft.carrier[sums[k]]: k for k in range(n)}
    for i in range(n):
        for j in range(n):
            if to_res[ft.carrier[ft.add[sums[i]][sums[j]]]] != (i + j) % n:
                raise ReconstructionError("residue map does not respect addition")
            if to_res[ft.carrier[ft.mul[sums[i]][sums[j]]]] != (i * j) % n:
                raise ReconstructionError("residue map does not respect multiplication")
    return Classification(n, n, True, to_res)

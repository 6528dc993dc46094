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

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .candidate import (
    CandidateTable,
    Endo,
    NonEndo,
    _cycles,
    _distinct,
    _legs,
    _round_trips,
    _scalar_i,
    _toward,
    _transports,
    canonical_scalar,
    cross_ratio_abs,
    tri_rapport_abs,
)
from .model import _cr_legs
from .reports import ReportGroup, make_check, sweep
from .scalars import is_prime


class ReconstructionError(ValueError):
    """The table does not support field reconstruction at this base."""


def _reconstruction(fn):
    """``fn`` raising ReconstructionError, message unchanged, for any ValueError."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ReconstructionError:
            raise
        except ValueError as exc:
            raise ReconstructionError(str(exc)) from exc

    return wrapper


def _default_helpers(table: CandidateTable, base: str) -> tuple[str, str]:
    rest = [o for o in table.objects if o != base]
    return rest[0], rest[1]


@_reconstruction
def reconstruct_minus_one(table: CandidateTable, base: Optional[str] = None) -> Endo:
    """The scalar -1 at the base object, with its defining laws verified.

    -1 is the value of the three-leg cycle base -> B -> C -> base whose
    legs are labeled C, base, B.  The value must not depend on the
    helper pair, must square to the identity, and must agree across
    objects under transport; violations raise ReconstructionError.
    Each law is read in one gather over all helper pairs or objects; the
    first failing one in object order is reported, worded as the scalar
    calculus words it.
    """
    if base is None:
        base = table.objects[0]
    if base not in table.identities:
        raise ReconstructionError(f"unknown base object {base!r}")
    obj, n = table.objects, table.n_objects
    a = table._obj_i[base]

    # Helper pairs (b, c) in order; the first is the default pair.
    pairs = _distinct(n, 2)
    b, c = pairs[(pairs != a).all(axis=1)].T
    vals = _cycles(table, a, b, c, c, a, b)
    m = int(vals[0])
    bad = np.flatnonzero((vals < 0) | (vals != m))
    if bad.size:
        k = bad[0]
        got = tri_rapport_abs(table, base, obj[b[k]], obj[c[k]], obj[c[k]], base, obj[b[k]])
        raise ReconstructionError(
            f"-1 is not well defined at {base}: helpers ({obj[b[k]]},{obj[c[k]]}) give {got}, "
            f"({obj[b[0]]},{obj[c[0]]}) give {table.arrows[m]}"
        )
    if table._composite(m, m) != table._id_idx[a]:
        raise ReconstructionError(
            f"candidate -1 at {base} does not square to the identity: {table.arrows[m]}"
        )
    # Each other object x: its value with its default helpers, moved to the base.
    x = np.array([i for i in range(n) if i != a])
    bx, cx = (x == 0).astype(np.intp), np.where(x <= 1, 2, 1)
    moved = _transports(table, _cycles(table, x, bx, cx, cx, x, bx), _toward(table, x, a))
    bad = np.flatnonzero(moved != m)
    if bad.size:
        k = bad[0]
        other, hb, hc = obj[x[k]], obj[bx[k]], obj[cx[k]]
        got = canonical_scalar(table, tri_rapport_abs(table, other, hb, hc, hc, other, hb), base)
        raise ReconstructionError(
            f"-1 differs between objects: at {other} it transports to {got}, "
            f"not {table.arrows[m]}"
        )
    return table.arrows[m]


@_reconstruction
def phi(
    table: CandidateTable,
    base: str,
    mu: Optional[str],
    b: Optional[str] = None,
    c: Optional[str] = None,
) -> Optional[str]:
    """The swap map on scalars at ``base``; None stands for the adjoined zero.

    For mu realized as the round trip scalar of (base,b;c,d), the image
    is the scalar of (base,c;b,d), for the first such d in object order.
    Classically this is mu -> 1 - mu: phi(1) is the zero (returned as
    None) and phi(None) is 1.
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
    ids = table.scalars[base]
    if mu not in ids:
        raise ReconstructionError(f"{mu!r} is not a scalar id at {base!r}")
    if mu == one:
        return None
    # An unknown helper names no arrow; arrow_index says which.
    table.arrow_index(NonEndo(base, b, c))
    a, bi, ci = table._obj_i[base], table._obj_i[b], table._obj_i[c]
    block = table._homset(a, a)
    d = np.array([i for i in range(table.n_objects) if i not in (a, bi)])
    vals = _round_trips(table, a, bi, ci, d)
    # The first d that either realizes mu or has no scalar round trip.
    stop = np.flatnonzero((vals < 0) | (vals == block.start + ids.index(mu)))
    if not stop.size:
        raise ReconstructionError(
            f"no fourth object realizes cross ratio {mu} over ({base},{b};{c},...)"
        )
    dk = d[stop[0]]
    if vals[stop[0]] < 0:
        cross_ratio_abs(table, base, b, c, table.objects[dk])
    swapped = int(_legs(table, _cr_legs(a, ci, bi, dk)))
    if not block.start <= swapped < block.stop:
        cross_ratio_abs(table, base, c, b, table.objects[dk])
    return ids[swapped - block.start]


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
            add = tuple(map(tuple, doc["add"]))
            mul = tuple(map(tuple, doc["mul"]))
            zero, one, minus_one = doc["zero"], doc["one"], doc["minus_one"]
        except (KeyError, TypeError) as exc:
            raise ReconstructionError(f"malformed field table document: {exc}") from exc
        n = len(carrier)
        names = isinstance(doc["carrier"], list) and all(isinstance(nm, str) for nm in carrier)
        if (not names or len(set(carrier)) != n or n < 2
                or type(doc.get("order")) is not int or doc["order"] != n):
            raise ReconstructionError("carrier must list order-many distinct names")
        for t in (add, mul):
            if len(t) != n or any(len(r) != n for r in t):
                raise ReconstructionError("operation tables must be order x order")
            # A JSON integer only: no bool, float or string stands for one.
            if any(type(v) is not int or v < 0 or v >= n for r in t for v in r):
                raise ReconstructionError("operation table entries must index the carrier")
        for nm in (zero, one, minus_one):
            if nm not in carrier:
                raise ReconstructionError(f"{nm!r} is not in the carrier")
        return cls(base_object, carrier, zero, one, minus_one, add, mul)


@_reconstruction
def build_field(table: CandidateTable, base: Optional[str] = None) -> FieldTable:
    """Reconstruct the full field at ``base``: nonzero scalars plus a zero.

    Multiplication is endo composition.  Addition comes from
    x + y = x * phi(-1 * x^-1 * y) for nonzero x, with the zero cases
    filled in directly.  A table that is not a groupoid can lack an
    inverse or turn a scalar route into a non-scalar; that raises
    ReconstructionError like any other failed law.
    """
    if base is None:
        base = table.objects[0]
    minus = reconstruct_minus_one(table, base)
    ids = table.scalars[base]
    k = len(ids)
    zero = _zero_name(ids)
    carrier = (zero,) + ids
    pos = {nm: i for i, nm in enumerate(carrier)}
    one = table.identities[base]
    phis = [phi(table, base, sid) for sid in ids]
    # phi on carrier indices; the zero is carrier index 0.
    phi_c = np.array([pos[one]] + [0 if v is None else pos[v] for v in phis])

    # Scalar position s in the block is carrier index s + 1.
    block = table._homset(table._obj_i[base], table._obj_i[base])
    inv = table._inv[block] - block.start
    if (inv < 0).any():
        table.inverse_arrow(Endo(base, ids[int(np.argmax(inv < 0))]))
    M = table._composite(block, block)
    scalar = (M >= block.start) & (M < block.stop)
    mul = np.where(scalar, M - block.start, 0)
    # x + y = x * phi(-1 * (x^-1 * y)) for scalars x, y: four products,
    # each of which must be a scalar, taken in this order.
    x, y = np.indices((k, k))
    minus_x = np.full((k, k), pos[minus.scalar] - 1)
    t1 = mul[inv[x], y]
    t = phi_c[mul[minus_x, t1] + 1] - 1  # -1 where the sum is zero
    steps = [(x, y), (inv[x], y), (minus_x, t1), (x, np.maximum(t, 0))]
    fails = [~scalar[f, g] for f, g in steps]
    fails[3] &= t >= 0
    bad = np.logical_or.reduce(fails)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        f, g = next((f[i, j], g[i, j]) for (f, g), fail in zip(steps, fails) if fail[i, j])
        _scalar_i(table, int(M[f, g]), base, f"{Endo(base, ids[f])} then {Endo(base, ids[g])}")

    mul_c = np.zeros((k + 1, k + 1), dtype=np.intp)
    mul_c[1:, 1:] = mul + 1
    add_c = np.zeros((k + 1, k + 1), dtype=np.intp)
    add_c[0, :] = add_c[:, 0] = np.arange(k + 1)
    add_c[1:, 1:] = np.where(t >= 0, mul[x, np.maximum(t, 0)] + 1, 0)
    return FieldTable(
        base_object=base,
        carrier=carrier,
        zero=zero,
        one=one,
        minus_one=minus.scalar,
        add=tuple(map(tuple, add_c.tolist())),
        mul=tuple(map(tuple, mul_c.tolist())),
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
    nonzero = np.array([i for i in range(n) if i != z], dtype=np.int32)
    has_inv = (M[np.ix_(nonzero, nonzero)] == e).any(axis=1)
    checks = [
        make_check("zero-one-distinct", 1, 0 if z != e else 1, [] if z != e else ["0 = 1"]),
        sweep(
            "zero-identity", 2 * n, (A[z, :] != np.arange(n)) | (A[:, z] != np.arange(n)),
            lambda i: f"0 + {names[i]} or {names[i]} + 0 is not {names[i]}", cap,
        ),
        sweep(
            "add-commutes", n * n, A != A.T,
            lambda i, j: f"{names[i]} + {names[j]} != {names[j]} + {names[i]}", cap,
        ),
        sweep(
            "add-associates", n**3,
            A[A[:, :, None], np.arange(n)[None, None, :]]
            != A[np.arange(n)[:, None, None], A[None, :, :]],
            lambda i, j, k: f"({names[i]} + {names[j]}) + {names[k]} groups differently", cap,
        ),
        sweep(
            "add-inverses", n, A[np.arange(n), M[ft.index(ft.minus_one), :]] != z,
            lambda i: f"{names[i]} + (-1)*{names[i]} is not 0", cap,
        ),
        sweep(
            "one-identity", 2 * n, (M[e, :] != np.arange(n)) | (M[:, e] != np.arange(n)),
            lambda i: f"1 * {names[i]} or {names[i]} * 1 is not {names[i]}", cap,
        ),
        sweep(
            "mul-commutes", n * n, M != M.T,
            lambda i, j: f"{names[i]} * {names[j]} != {names[j]} * {names[i]}", cap,
        ),
        sweep(
            "mul-associates", n**3,
            M[M[:, :, None], np.arange(n)[None, None, :]]
            != M[np.arange(n)[:, None, None], M[None, :, :]],
            lambda i, j, k: f"({names[i]} * {names[j]}) * {names[k]} groups differently", cap,
        ),
        sweep(
            "mul-inverses", int(nonzero.size), ~has_inv,
            lambda i: f"{names[int(nonzero[i])]} has no multiplicative inverse", cap,
        ),
        sweep(
            "zero-absorbs", 2 * n, (M[z, :] != z) | (M[:, z] != z),
            lambda i: f"0 * {names[i]} or {names[i]} * 0 is not 0", cap,
        ),
        sweep(
            "distributes", n**3,
            M[np.arange(n)[:, None, None], A[None, :, :]] != A[M[:, :, None], M[:, None, :]],
            lambda i, j, k: f"{names[i]} * ({names[j]} + {names[k]}) is not the sum of products",
            cap,
        ),
    ]
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
    # res[x] is the residue of carrier index x; the first failing pair
    # (i, j) in row-major order decides the message, addition first.
    s = np.array(sums[:n])
    res = np.empty(n, dtype=np.intp)
    res[s] = np.arange(n)
    i = np.arange(n)
    add_bad = res[np.array(ft.add)[np.ix_(s, s)]] != (i[:, None] + i) % n
    mul_bad = res[np.array(ft.mul)[np.ix_(s, s)]] != (i[:, None] * i) % n
    bad = (add_bad | mul_bad).ravel()
    if bad.any():
        op = "addition" if add_bad.flat[np.argmax(bad)] else "multiplication"
        raise ReconstructionError(f"residue map does not respect {op}")
    return Classification(n, n, True, {ft.carrier[x]: k for k, x in enumerate(sums[:n])})

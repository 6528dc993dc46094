"""Associativity from generators against the full sweep, the group
groupoid tables, the distinct-tuple enumeration and the name of an
undefined composite."""

import functools
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    MUTATIONS,
    NON_GROUPOID,
    SWAPPED_NAMES,
    cross_homset_mutation,
    four_object_table,
    group_groupoid,
    mutate_doc,
    reference_inverses,
    relabel,
    rewrite_entry,
    seeded_mutation,
    swap_names,
    symmetric_group,
)
from projline.candidate import (
    CandidateTable,
    ModelLine,
    _Blocks,
    _associativity,
    _check_space,
    _distinct,
    _generated_associativity,
    _name,
    check_axioms,
    from_model,
    validate_structure,
)
from projline.reports import make_check


@functools.cache
def model_doc(p: int) -> dict:
    return from_model(p).to_doc()


@functools.cache
def s3_doc(seed: int) -> dict:
    return group_groupoid(symmetric_group(3), seed)


# Tables the generators show associative; every other case below fails
# associativity, except the four-object table, which is associative but
# not generated by them (its homsets are larger than its vertex group).
GENERATED = (
    [f"model-{p}" for p in (2, 3, 5, 7, 11)]
    + [f"relabel-{p}-{seed}" for p in (5, 7) for seed in range(3)]
    + [f"swap-{p}" for p in (5, 7)]
    + [f"s3-{seed}" for seed in range(3)]
)
NOT_ASSOCIATIVE = (
    [f"same-{p}-{seed}" for p in (5, 7) for seed in range(12)]
    + [f"cross-{p}-{seed}" for p in (5, 7) for seed in range(12)]
    + [f"doc-{name}" for name in MUTATIONS]
    + [f"nongroupoid-{name}" for name in NON_GROUPOID]
    + [f"s3-same-{seed}" for seed in range(6)]
)


def uneven_table(seed: int) -> CandidateTable:
    """A table over objects with 1 to 4 scalars, so blocks of several
    shapes: each composite is the least arrow between the pair's outer
    ends, which is associative, except three seeded entries rewritten to
    any arrow, whose composites mostly end elsewhere."""
    objs = ["c", "a", "d", "b"]
    scalars = {"c": ["1"], "a": ["x", "1"], "d": ["1", "2", "3"], "b": ["4", "3", "2", "1"]}
    t = CandidateTable._bare(*_check_space(objs, scalars, dict.fromkeys(objs, "1")))
    I, J = t._pairs()
    R = t._hom[t._src_i[I] * t.n_objects + t._dst_i[J]]
    rng = np.random.default_rng(seed)
    R[rng.choice(I.size, 3, replace=False)] = rng.integers(t.n_arrows, size=3)
    t._store(I, J, R)
    return t


def oracle_table(case: str) -> CandidateTable:
    kind, *args = case.split("-", 1)
    arg = args[0] if args else ""
    if kind == "model":
        return from_model(int(arg))
    if kind == "four" and arg == "objects":
        return four_object_table()
    if kind == "uneven":
        return uneven_table(int(arg))
    if kind == "four":
        doc = seeded_mutation(four_object_table().to_doc(), int(arg.removeprefix("same-")))
    elif kind == "doc":
        doc = mutate_doc(model_doc(5), arg)
    elif kind == "nongroupoid":
        doc = rewrite_entry(model_doc(7), *NON_GROUPOID[arg][0])
    elif kind == "swap":
        doc = swap_names(model_doc(int(arg)), *SWAPPED_NAMES)
    elif kind == "s3" and arg.startswith("same-"):
        doc = seeded_mutation(s3_doc(0), int(arg.removeprefix("same-")))
    elif kind == "s3":
        doc = s3_doc(int(arg))
    else:
        fn = {"relabel": relabel, "same": seeded_mutation, "cross": cross_homset_mutation}[kind]
        p, seed = map(int, arg.split("-"))
        doc = fn(model_doc(p), seed)
    return CandidateTable.from_doc(doc)


@pytest.mark.parametrize("case", GENERATED + NOT_ASSOCIATIVE + ["four-objects"])
def test_generators_pass_only_where_the_full_sweep_does(case):
    t = oracle_table(case)
    report = validate_structure(t, max_witnesses=50)
    full = _associativity(t, 50, endpoints=False)
    short = _generated_associativity(t, _Blocks(t)) if report.check("endpoints").passed else None
    if short is not None:
        assert full.failures == 0
        assert report.check("associativity") == make_check("associativity", short, 0, [])
    else:
        # The full sweep reports, failures and witnesses as before.
        assert report.check("associativity") == full
    assert (short is not None) == (case in GENERATED)
    assert (full.failures > 0) == (case in NOT_ASSOCIATIVE)


@pytest.mark.parametrize("case", GENERATED + NOT_ASSOCIATIVE + ["four-objects"])
def test_inverses_found_in_the_reverse_homset_match_the_full_scan(case):
    t = oracle_table(case)
    assert np.array_equal(t._inv, reference_inverses(t))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_generators_examine_k_plus_2n_minus_2_instances_of_nk_squared(p):
    n, k = p + 1, p - 1
    t = from_model(p)
    assert _generated_associativity(t, _Blocks(t)) == (k + 2 * (n - 1)) * (n * k) ** 2


def _failing_triples(t: CandidateTable) -> list[tuple[int, int, int]]:
    """Every composable (f, g, h) that regroups to another composite, in
    key order, read from the dense store one (f, g) at a time."""
    comp = t._comp
    out = [np.flatnonzero(t._src_i == o) for o in range(t.n_objects)]
    triples = []
    for f in range(t.n_arrows):
        for g in out[t._dst_i[f]].tolist():
            h = out[t._dst_i[g]]
            bad = comp[comp[f, g], h] != comp[f, comp[g, h]]
            triples += [(f, g, x) for x in h[bad].tolist()]
    return triples


# Ragged blocks (uneven, four), composites that end elsewhere and so read
# the -1 rows (cross, uneven), tables that are no groupoid, and a vertex
# group that is not commutative (s3).
@pytest.mark.parametrize("case", (
    ["same-5-0", "same-5-1", "cross-5-4", "doc-as", "four-same-2", "s3-same-0"]
    + [f"cross-7-{seed}" for seed in range(4)]
    + [f"uneven-{seed}" for seed in range(4)]
    + [f"nongroupoid-{name}" for name in NON_GROUPOID]
))
def test_full_sweep_reports_the_least_failing_triples(case):
    t = oracle_table(case)
    triples = _failing_triples(t)
    want = [
        f"assoc({t.arrows[f]}, {t.arrows[g]}, {t.arrows[h]}): grouping changes the composite"
        for f, g, h in triples
    ]
    out = [np.flatnonzero(t._src_i == o) for o in range(t.n_objects)]
    composable = sum(out[d].size for f in range(t.n_arrows) for d in t._dst_i[out[t._dst_i[f]]])
    for cap in (0, 1, 3, 50, len(want) + 1):
        report = _associativity(t, cap, endpoints=False)
        assert report.failures == len(triples) > 0 and report.checked == composable
        assert report.witnesses == want[:cap]


@pytest.mark.parametrize("case", ["uneven-0", "cross-7-0", "four-objects", "model-7"])
def test_blocks_read_what_the_store_reads(case):
    """Through ``row`` and ``col``, every arrow and -1 reads its composites
    with the arrows out of o, and with those into o, as ``_composite``
    does: a -1 row where it does not end, or start, at o."""
    t = oracle_table(case)
    b = _Blocks(t)
    arrows = np.arange(-1, t.n_arrows)
    for o in range(t.n_objects):
        out = np.flatnonzero(t._src_i == o)
        assert np.array_equal(b.into[o], np.flatnonzero(t._dst_i == o))
        assert b.block[o].dtype == b.tblock[o].dtype == np.min_scalar_type(-(t.n_arrows + 1))
        assert np.array_equal(b.block[o][b.row[o, arrows]], t._composite(arrows[:, None], out))
        assert np.array_equal(b.tblock[o][b.col[o, arrows]], t._composite(b.into[o], arrows[:, None]))


@pytest.mark.parametrize("seed", range(3))
def test_s3_groupoids_are_associative_with_a_noncommutative_vertex_group(seed):
    t = oracle_table(f"s3-{seed}")
    assert (t.n_objects, t.n_arrows) == (8, 384)
    structure = validate_structure(t)
    assert structure.passed
    assert structure.check("associativity").checked == 20 * 48**2
    pappus = check_axioms(t, which=["pappus"]).check("pappus")
    assert (pappus.status, pappus.failures) == ("fail", 144)


def test_group_groupoid_of_the_model_factors_is_the_line():
    # F_7's table is the group groupoid of its cyclic unit group, each
    # arrow naming its factor's discrete logarithm to the base 3.
    p = 7
    log = {pow(3, h, p): h for h in range(p - 1)}
    cyclic = [[(x + y) % (p - 1) for y in range(p - 1)] for x in range(p - 1)]
    a, b, c = _distinct(SimpleNamespace(n_objects=p + 1), 3).T
    factors = ModelLine(p).factor[a, b, c]
    labels = {(x, y, z): log[f] for x, y, z, f in zip(*(v.tolist() for v in (a, b, c, factors)))}
    t = CandidateTable.from_doc(group_groupoid(cyclic, labels))
    assert validate_structure(t).passed
    assert check_axioms(t).passed
    # Seeded labels on the same group fail `one`.
    seeded = CandidateTable.from_doc(group_groupoid(cyclic, 0))
    assert validate_structure(seeded).passed
    assert not check_axioms(seeded, which=["one"]).passed


@pytest.mark.parametrize("k", range(1, 5))
def test_distinct_lists_the_permutations_in_order(k):
    for n in range(10):
        want = np.array(list(itertools.permutations(range(n), k)), dtype=np.intp).reshape(-1, k)
        got = _distinct(SimpleNamespace(n_objects=n), k)
        assert got.dtype == np.intp
        assert got.shape == want.shape and np.array_equal(got, want), (n, k)


def test_undefined_composites_are_named_undefined():
    t = oracle_table("cross-5-4")
    assert (_name(t, -1), _name(t, t.n_arrows - 1)) == ("undefined", "1:0#4")
    hex2 = check_axioms(t, which=["hex2"], max_witnesses=50).check("hex2")
    assert "hex2(1:0): helpers (0:1,1:1) give 1:0#4 but (0:1,3:1) give undefined" in hex2.witnesses
    as_ = check_axioms(oracle_table("cross-7-0"), which=["as"], max_witnesses=50).check("as")
    assert as_.witnesses[0] == (
        "as: (0:1,1:1,2:1,4:1) and (4:1,1:1,5:1,6:1) share cross ratio 0:1#5 "
        "but their swaps differ: 0:1#3 vs undefined"
    )

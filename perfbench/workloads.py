"""The four benchmark workloads: seeded inputs, operations and output oracles.

Every workload is a closed loop with one client in one process.  Inputs
are generated from the seed before any operation is timed; the program
only ever sees the generated files, argument lists and points.  Each
operation is a ``(label, run, oracle)`` triple: ``run()`` is the timed
call and ``oracle(result)`` returns ``None`` when the output is right or
a one-line reason when it is not.  Oracles check verdicts, exit codes,
witnesses and values; they never pin ``checked`` counts, which a faster
sweep may legitimately change.

The program is reached only through ``projline``'s public API and its
CLI (``projline.cli.main``, run in process).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction

import projline
import projline.cli

# The documented single-entry mutations of the F_5 table, keyed by the
# check each one must fail (the same triples as tests/helpers.py).
MUTATIONS = {
    "one": ("0:1>2:1>1:1", "1:1>2:1>0:1", "0:1#2"),
    "two": ("0:1>3:1>1:1", "1:1>3:1>2:1", "0:1>1:0>2:1"),
    "pappus": ("0:1#2", "0:1#3", "0:1#2"),
    "hex1": ("0:1#3", "0:1>1:1>2:1", "0:1>3:1>2:1"),
    "hex2": ("0:1>2:1>1:1", "1:1>0:1>2:1", "0:1>3:1>2:1"),
    "as": ("0:1>1:1>2:1", "2:1>3:1>0:1", "0:1#2"),
    "field": ("0:1>1:1>2:1", "2:1>4:1>0:1", "0:1#3"),
}


class Inputs:
    """Collects generated inputs and hashes them in generation order."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._hash = hashlib.sha256()

    def record(self, data) -> None:
        if not isinstance(data, bytes):
            data = json.dumps(data, sort_keys=True, default=str).encode()
        self._hash.update(len(data).to_bytes(8, "little"))
        self._hash.update(data)

    def write(self, name: str, data: bytes) -> str:
        self.record(data)
        path = os.path.join(self.workdir, name)
        with open(path, "wb") as fh:
            fh.write(data)
        return path

    def digest(self) -> str:
        return self._hash.hexdigest()


def _dumps(doc) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode()


# -- the CLI pipeline every workload runs -----------------------------------


def _all_pass(report: dict) -> bool:
    return report["passed"] and all(c["status"] == "pass" for c in report["checks"])


def _classify_oracle(p: int):
    def oracle(out) -> str | None:
        code, stdout = out[0], out[1]
        if code != 0:
            return f"classify exit {code}"
        doc = json.loads(stdout)
        if doc["order"] != p or doc["characteristic"] != p or doc["prime"] is not True:
            return f"classify gave order {doc['order']} characteristic {doc['characteristic']}"
        if sorted(doc["map"].values()) != list(range(p)):
            return "classify residue map is not a bijection onto 0..p-1"
        return None

    return oracle


def _check_pass_oracle(out) -> str | None:
    code, stdout = out[0], out[1]
    if code != 0:
        return f"check exit {code} on the valid table"
    doc = json.loads(stdout)
    if not _all_pass(doc["structure"]) or doc["axioms"] is None or not _all_pass(doc["axioms"]):
        return "check did not pass every structure layer and axiom on the valid table"
    return None


def pipeline_ops(inputs: Inputs, rng: random.Random, p: int):
    """gen, check, check --jobs 2 and classify on the F_p table.

    Each command runs in process through ``in_process_cli``.  The seed
    picks the base object handed to ``classify``.
    """
    table = os.path.join(inputs.workdir, f"line-f{p}.json")
    names = [str(q) for q in projline.points(projline.GF(p))]
    base = rng.choice(names)
    argvs = {
        "gen": ["gen", "--p", str(p), "--out", table],
        "check": ["check", "--in", table, "--format", "json"],
        "check_jobs2": ["check", "--in", table, "--format", "json", "--jobs", "2"],
        "classify": ["classify", "--in", table, "--format", "json", "--base", base],
    }
    # Paths differ between checkouts, so the digest sees file names only.
    inputs.record([[os.path.basename(a) for a in v] for v in argvs.values()])
    first_check = {}

    def gen_oracle(res) -> str | None:
        if res[0] != 0:
            return f"gen exit {res[0]}"
        if os.path.getsize(table) == 0:
            return "gen wrote an empty table"
        return None

    def check_oracle(res) -> str | None:
        first_check["stdout"] = res[1]
        return _check_pass_oracle(res)

    def jobs2_oracle(res) -> str | None:
        bad = _check_pass_oracle(res)
        if bad is None and res[1] != first_check.get("stdout"):
            bad = "check --jobs 2 changed the report bytes"
        return bad

    oracles = {
        "gen": gen_oracle,
        "check": check_oracle,
        "check_jobs2": jobs2_oracle,
        "classify": _classify_oracle(p),
    }
    return [
        (name, (lambda argv=argv: in_process_cli(argv)), oracles[name])
        for name, argv in argvs.items()
    ]


def in_process_cli(argv: list[str]):
    """Run ``projline.cli.main`` in this process; returns (code, stdout, stderr).

    The function is looked up at call time, so a traced run sees the
    wrapped ``cli.main``.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = projline.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue().encode(), err.getvalue().encode()


# -- mutants: a seeded document stream through the check command ----------


def _endpoints(arrow: str) -> tuple[str, str]:
    if "#" in arrow:
        obj = arrow.split("#")[0]
        return obj, obj
    src, _, dst = arrow.split(">")
    return src, dst


def _mutate(doc: dict, index: int, replacement: str) -> dict:
    compose = list(doc["compose"])
    a, b, _ = compose[index]
    compose[index] = [a, b, replacement]
    return dict(doc, compose=compose)


def _documented(f5: dict, name: str) -> dict:
    """The F_5 document with the documented mutation ``name`` applied."""
    first, second, repl = MUTATIONS[name]
    k = next(i for i, e in enumerate(f5["compose"]) if e[0] == first and e[1] == second)
    return _mutate(f5, k, repl)


def _expect_fail_oracle(named_problem: str | None = None):
    """A mutated table: exit 1, some check fails with a witness.

    ``named_problem`` carries the set-up verdict on a documented
    mutation: whether the axiom it is named for fails with a witness.
    """

    def oracle(out) -> str | None:
        code, stdout = out[0], out[1]
        if code != 1:
            return f"mutated table gave exit {code}, want 1"
        doc = json.loads(stdout)
        groups = [doc["structure"]] + ([doc["axioms"]] if doc["axioms"] else [])
        failed = [c for g in groups for c in g["checks"] if c["status"] == "fail"]
        if not failed or not any(c["witnesses"] for c in failed):
            return "mutated table failed without a witness"
        return named_problem

    return oracle


def _field_fail_oracle(out) -> str | None:
    code, stdout = out[0], out[1]
    if code != 1:
        return f"field mutation gave reconstruct exit {code}, want 1"
    failed = [c for c in json.loads(stdout)["report"]["checks"] if c["status"] == "fail"]
    if not failed or not failed[0]["witnesses"]:
        return "field mutation failed no field law with a witness"
    return None


def _rejected_oracle(out) -> str | None:
    code, stdout, stderr = out[0], out[1], out[2]
    if code != 2:
        return f"malformed document gave exit {code}, want 2"
    if stdout or not stderr.strip():
        return "malformed document was rejected without a message, or printed a report"
    return None


def _bomb(rng: random.Random, n: int) -> dict:
    """A tiny document that declares n one-scalar objects and no entries."""
    names = [f"{rng.choice('pqrs')}{i}" for i in range(n)]
    return {
        "format": 1,
        "objects": names,
        "scalars": {o: ["1"] for o in names},
        "identity": {o: "1" for o in names},
        "compose": [],
    }


def mutants_ops(inputs: Inputs, rng: random.Random, p: int, same: int, cross: int):
    """One round of the mutant stream; its class mix is fixed, the seed picks the details.

    Classes: the valid F_p table (exit 0); ``same`` single-entry
    mutations inside the entry's homset and ``cross`` across homsets
    (exit 1); the seven documented F_5 mutations (exit 1, each failing
    the check it is named for); and malformed or hostile documents
    (exit 2): bad names, wrong JSON types, a dropped and a duplicated
    entry, and declared-size bombs of at most 20 objects.
    """
    valid = projline.from_model(p).to_doc()
    f5 = projline.from_model(5).to_doc()
    compose = valid["compose"]
    arrows = sorted({e[2] for e in compose})
    by_hom: dict[tuple[str, str], list[str]] = {}
    for a in arrows:
        by_hom.setdefault(_endpoints(a), []).append(a)

    docs: list[tuple[str, dict | list, str, object]] = [
        ("valid", valid, "check", _check_pass_oracle)
    ]
    for kind, count in (("same", same), ("cross", cross)):
        for _ in range(count):
            k = rng.randrange(len(compose))
            old = compose[k][2]
            if kind == "same":
                pool = [a for a in by_hom[_endpoints(old)] if a != old]
            else:
                pool = [a for a in arrows if _endpoints(a) != _endpoints(old)]
            docs.append((f"mut-{kind}", _mutate(valid, k, rng.choice(pool)), "check",
                         _expect_fail_oracle()))
    for name in MUTATIONS:
        doc = _documented(f5, name)
        if name == "field":
            docs.append((f"doc-{name}", doc, "reconstruct", _field_fail_oracle))
            continue
        # `check` stops at the structure layer on these tables, so the
        # named axiom is checked on its own here, before anything is timed.
        got = projline.check_axioms(projline.CandidateTable.from_doc(doc), which=[name]).check(name)
        problem = None if got.status == "fail" and got.witnesses else (
            f"mutation {name!r} does not fail check {name!r} with a witness")
        docs.append((f"doc-{name}", doc, "check", _expect_fail_oracle(problem)))

    objs = valid["objects"]
    victim = rng.choice(objs)
    k = rng.randrange(len(compose))
    hostile = [
        ("bad-object-name", dict(valid, objects=[o if o != victim else victim + ">x" for o in objs])),
        ("bad-scalar-name", dict(valid, scalars=dict(valid["scalars"], **{victim: ["1", "2 3"]}))),
        ("bad-arrow-syntax", _mutate(valid, k, compose[k][2].replace(">", "").replace("#", ""))),
        ("unknown-arrow", _mutate(valid, k, f"{victim}#{p + rng.randrange(1, 50)}")),
        ("objects-as-map", dict(valid, objects={o: 1 for o in objs})),
        ("format-as-string", dict(valid, format="1")),
        ("entry-as-string", dict(valid, compose=compose[:k] + ["a,b,c"] + compose[k + 1:])),
        ("identity-as-list", dict(valid, identity={o: ["1"] for o in objs})),
        ("document-as-list", [valid["objects"]]),
        ("dropped-entry", dict(valid, compose=compose[:k] + compose[k + 1:])),
        ("duplicated-entry", dict(valid, compose=compose + [compose[k]])),
    ]
    for n in (12, 16, 20):
        hostile.append((f"bomb-{n}", _bomb(rng, n)))
    for label, doc in hostile:
        docs.append((label, doc, "check", _rejected_oracle))

    order = list(range(len(docs)))
    rng.shuffle(order)
    ops = []
    for i in order:
        label, doc, cmd, oracle = docs[i]
        path = inputs.write(f"mut-{i:03d}.json", _dumps(doc))
        argv = [cmd, "--in", path, "--format", "json"]
        ops.append((label, (lambda argv=argv: in_process_cli(argv)), oracle))
    return ops


# -- coordinatization: relabeled tables and seeded frames -----------------


def _relabel(doc: dict, rng: random.Random):
    """Permute object names and each object's scalar ids; returns (doc, obj_map, scalar_maps)."""
    objs = doc["objects"]
    shuffled = list(objs)
    rng.shuffle(shuffled)
    omap = dict(zip(objs, shuffled))
    smap = {}
    for o in objs:
        ids = list(doc["scalars"][o])
        perm = list(ids)
        rng.shuffle(perm)
        smap[o] = dict(zip(ids, perm))

    def arrow(a: str) -> str:
        if "#" in a:
            o, s = a.split("#")
            return f"{omap[o]}#{smap[o][s]}"
        src, lab, dst = a.split(">")
        return f"{omap[src]}>{omap[lab]}>{omap[dst]}"

    new = {
        "format": doc["format"],
        "objects": [omap[o] for o in objs],
        "scalars": {omap[o]: [smap[o][s] for s in doc["scalars"][o]] for o in objs},
        "identity": {omap[o]: smap[o][doc["identity"][o]] for o in objs},
        "compose": sorted([arrow(a), arrow(b), arrow(c)] for a, b, c in doc["compose"]),
    }
    return new, omap, smap


def coord_ops(inputs: Inputs, rng: random.Random, p: int, tables: int, frames: int):
    """coordinatize then verify_uniqueness on seeded relabelings and frames."""
    field = projline.GF(p)
    model = projline.from_model(p).to_doc()
    ops = []
    for t in range(tables):
        doc, omap, smap = _relabel(model, rng)
        inputs.record(_dumps(doc))
        table = projline.CandidateTable.from_doc(doc)
        back = {v: k for k, v in omap.items()}
        for _ in range(frames):
            frame = projline.Frame(*rng.sample(doc["objects"], 3))
            inputs.record(list(frame.members()))
            ops.append((f"coord-{t}", (lambda table=table, frame=frame: (
                projline.coordinatize(table, frame), projline.verify_uniqueness(table, frame))),
                _coord_oracle(field, p, frame, back, smap)))
    return ops


def _coord_oracle(field, p: int, frame, back: dict, smap: dict):
    def point(name: str):
        return projline.Point.parse(field, back[name])

    def oracle(out) -> str | None:
        iso, (report, found) = out
        f0, f1, f2 = frame.members()
        if not iso.verified:
            return "coordinatize returned an unverified map"
        if (iso.object_map[f0], iso.object_map[f1], iso.object_map[f2]) != ("0:1", "1:0", "1:1"):
            return "the frame was not sent to 0:1, 1:0, 1:1"
        # The relabeled table is the model renamed, so the coordinate of x
        # is the model cross ratio of the original points (f1, f0; f2, x).
        for x, got in iso.object_map.items():
            if x in (f0, f1):
                continue
            want = projline.cross_ratio(point(f1), point(f0), point(f2), point(x))
            if got != f"{want}:1":
                return f"{x} coordinatized to {got}, the relabeling says {want}:1"
        # A Moebius map fixes every cross ratio, so scalar k maps back to k.
        orig = {v: k for k, v in smap[back[f0]].items()}
        if any(iso.scalar_map[s] != orig[s] for s in iso.scalar_map):
            return "the scalar map does not undo the relabeling"
        if report.status != "pass" or report.failures != 0:
            return f"uniqueness reported {report.failures} failures"
        if report.checked != math.factorial(p - 2):
            return f"uniqueness covered {report.checked} bijections, want (p-2)!"
        if found != iso.object_map:
            return "uniqueness found another map than coordinatize"
        return None

    return oracle


# -- calculators ------------------------------------------------------------

CALC_FIELDS = (("gf", 7), ("gf", 10007), ("gf", 2**31 - 1), ("qq", None))


def _distinct_points(rng: random.Random, field, kind: str, p, n: int):
    pts: list = []
    while len(pts) < n:
        if kind == "qq":
            num, den = rng.randint(-60, 60), rng.randint(1, 60)
            q = projline.Point.affine(field, Fraction(num, den))
        elif rng.random() < 0.1:
            q = projline.Point.infinity(field)
        else:
            q = projline.Point.affine(field, rng.randrange(p))
        if q not in pts:
            pts.append(q)
    return pts


def _calc_op(name: str, field, a, b, c, d):
    """One calculator call and the identity its result must satisfy."""
    # The timed calls look each function up when they run, so a traced run
    # sees the wrapped one; the oracles keep the unwrapped ``cr`` and so
    # record no spans.
    one, minus, cr = field.one(), -field.one(), projline.cross_ratio
    if name == "cross_ratio":
        return (lambda: projline.cross_ratio(a, b, c, d),
                lambda v: None if v * cr(a, b, d, c) == one else "cr(a,b;c,d) * cr(a,b;d,c) != 1")
    if name == "tri_rapport":
        # The cycle (a, c, d; b, a, b) realizes the cross ratio (a, b; c, d).
        return (lambda: projline.tri_rapport(a, c, d, b, a, b),
                lambda v: None if v == cr(a, b, c, d) else "tri(a,c,d;b,a,b) != cr(a,b;c,d)")
    if name == "harmonic_conjugate":
        return (lambda: projline.harmonic_conjugate(a, b, c),
                lambda h: None if h not in (a, b, c) and cr(a, b, c, h) == minus
                else "cr(a,b;c,h) != -1 for the harmonic conjugate h")
    return (lambda: projline.model.evaluate_table_rows((a, b, c, d)),
            lambda rows: None if len(rows) == 18 and all(r["pass"] for r in rows)
            else "not all 18 table rows pass")


def calc_ops(inputs: Inputs, rng: random.Random, per_field: dict[str, int]):
    """A fixed mix of the four calculator operations over four fields.

    ``per_field`` gives how many of each operation run per field in one
    round; the seed picks the points.
    """
    ops = []
    for kind, p in CALC_FIELDS:
        field = projline.QQ if kind == "qq" else projline.GF(p)
        for name, count in per_field.items():
            for _ in range(count):
                pts = _distinct_points(rng, field, kind, p, 4)
                inputs.record([name, str(field), *map(str, pts)])
                ops.append((f"{name}.{kind}", *_calc_op(name, field, *pts)))
    rng.shuffle(ops)
    return ops



def probe_ops(inputs: Inputs, rng: random.Random):
    """A fixed p=5 pass that enters every layer once: the CLI pipeline in
    process, one mutated and one rejected document, one coordinatization
    and each calculator."""
    f5 = projline.from_model(5).to_doc()
    mutant = inputs.write("mutant.json", _dumps(_documented(f5, "hex1")))
    bomb = inputs.write("bomb.json", _dumps(_bomb(rng, 6)))
    return (
        pipeline_ops(inputs, rng, 5)
        + [("mutant", lambda: in_process_cli(["check", "--in", mutant, "--format", "json"]),
            _expect_fail_oracle()),
           ("reject", lambda: in_process_cli(["check", "--in", bomb]), _rejected_oracle)]
        + coord_ops(inputs, rng, 5, 1, 1)
        + calc_ops(inputs, rng, dict.fromkeys(
            ("cross_ratio", "tri_rapport", "harmonic_conjugate", "evaluate_table_rows"), 1))
    )

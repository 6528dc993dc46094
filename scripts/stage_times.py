"""Time each stage of the projline pipeline per p and store the rows in a JSON file.

    python scripts/stage_times.py --src ../parent/src --out BENCH_11.json --label before-1
    python scripts/stage_times.py --out BENCH_11.json --label after-1
    python scripts/stage_times.py --src ../parent/src --out BENCH_11.json --label before-2
    ...                                                       (through after-3)

Run from the repository root; it imports ``projline`` from ``--src``
(default ``src``).  Every stage runs in this process on the table of
the projective line over F_p, p in ``PRIMES``, and is timed over
``REPEAT`` calls at every p, unscaled wall time.  Each row holds the
median (``seconds``) and the first and third quartiles (``q1``,
``q3``) of those calls.

Those quartiles are one process's spread, and the host's speed drifts
between processes by more than that.  So a before/after comparison is
three alternating runs per side, labeled ``before-1``, ``after-1``,
``before-2`` and so on, and a stage counts as changed only when all
three of its ``after`` medians lie on one side of all three ``before``
medians.

The calculator rows time ``cross_ratio``, ``tri_rapport``,
``harmonic_conjugate`` and ``model.evaluate_table_rows`` over GF(10007)
and the rationals.  Each timed call runs the calculator once on each of
``CALC_TUPLES`` seeded quadruples of distinct points, and the row holds
seconds per calculator call; its ``field`` is ``F10007`` or ``Q`` in
place of ``p``.  They run after every pipeline stage, so the stage rows
are taken in the same process state as in files without them.

After that p's stages, one child script (``CHILD``) runs four jobs,
each in a fresh process, and ``child_row`` makes each job's row.  The
child's ``kib`` is its peak resident set size at the end, its
``VmHWM`` from ``/proc/self/status``, not ``ru_maxrss``: Linux carries
``ru_maxrss`` across ``exec``, so a child would report this process's
peak.  ``peak_rss`` loads the saved table and runs
``validate_structure``, ``check_axioms`` and ``build_field`` on it, the
work of ``projline check`` and ``projline reconstruct``.  ``gen`` does
the work of ``projline gen``: ``from_model`` and ``save``, which writes
the file; its ``seconds`` are one wall time of those two steps, not a
median.  ``coord`` builds the table with ``from_model``, reads its
``VmHWM`` into ``table_kib``, then runs ``coordinatize`` and
``verify_uniqueness``; its ``seconds`` are one wall time of those two
calls.  ``parsed_load`` loads the saved table with its first two
compose entries swapped (``swap_first_entries``), a valid file that is
not canonical, so ``CandidateTable.load`` parses it; its ``seconds``
are one wall time of that call.  The ``--src`` tree is byte-compiled
afresh before any child starts, so no child's peak holds the compile of
a source whose bytecode is missing or stale, and every tree runs
bytecode that this script wrote: bytecode that an import through
another path had written was seen to move the p=11 ``peak_rss`` row by
about 3 MB.

After the stages, ``kept_row`` loads, checks, reconstructs and writes
that p's table in this process and records in ``bytes`` what the kept
slot (``candidate._arrow_space``) then holds for its header: the
nbytes of the arrays of its arrow space and memo, plus the name
encodings.

``load`` is ``CandidateTable.load`` of the saved file, the path the
CLI takes; the file is canonical, so ``load`` reads it in place.
``json.loads`` and ``from_doc`` time the two halves of the parsed path,
which ``load`` takes for any other file.  Each call gets a fresh argument: a fresh document for
``from_doc`` and a fresh table from ``from_model`` for the checkers.
A table finds its arrows' inverses when it is built, so that search
is timed in the ``from_model``, ``from_doc`` and ``load`` rows.
``coordinatize`` and ``verify_uniqueness`` reuse the target model,
the line's arithmetic, which ``coordinatize_first_call`` builds anew
every time.  ``cli_check`` is ``projline.cli.main(["check", "--in",
saved, "--format", "json"])`` in this process with its stdout captured,
after one untimed call: parsing the arguments, loading the saved file,
both checkers and the report, as a caller that runs the CLI in process
sees them.  It runs after the other stages, so their rows are taken in
the same process state as in files without it.  ``structure_failing``
runs last: ``validate_structure`` of a fresh table read from the saved
document with one compose entry rewritten within its homset
(``failing_doc``, which is ``tests/helpers.seeded_mutation`` with seed
0), so the associativity check runs its full sweep.  No parsed
document outlives the call it is made for, so no stage's garbage
collections walk another stage's document.  The rows go into the file
under ``--label`` next to the rows of other labels, so one file holds
every run, each with its host and a digest of the code it ran.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

STAGES = (
    "from_model", "to_json_bytes", "json.loads", "from_doc", "load", "validate_structure",
    "check_axioms", "build_field", "coordinatize_first_call", "coordinatize",
    "verify_uniqueness", "cli_check", "structure_failing",
)
PRIMES = (5, 7, 11, 13, 17)
REPEAT = 7
CALCULATORS = ("cross_ratio", "tri_rapport", "harmonic_conjugate", "evaluate_table_rows")
CALC_TUPLES = 50


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _source_digest(package: str) -> str:
    """SHA-256 over the package's .py files in name order: which code ran."""
    digest = hashlib.sha256()
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _quartile_seconds(setup, stage, repeat: int) -> list[float]:
    """First quartile, median and third quartile of the wall time of
    ``stage(setup())``; only the stage is timed."""
    times = []
    for _ in range(repeat):
        arg = setup()
        start = time.perf_counter()
        stage(arg)
        times.append(time.perf_counter() - start)
        del arg
    return statistics.quantiles(times, n=4)


def failing_doc(table) -> dict:
    """The document of ``table`` with one compose entry rewritten to another
    arrow of its homset: ``tests/helpers.seeded_mutation``, seed 0."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
    try:
        from helpers import seeded_mutation
    finally:
        del sys.path[0]
    return seeded_mutation(table.to_doc(), 0)


def stage_rows(p: int, repeat: int, path: str) -> list[dict]:
    import projline

    coordinatize_module = importlib.import_module("projline.coordinatize")
    cli = importlib.import_module("projline.cli")
    table = projline.from_model(p)
    table.save(path)
    data = table.to_json_bytes()
    failing = failing_doc(table)

    def fresh():
        return projline.from_model(p)

    def first_call(t):
        coordinatize_module._line.cache_clear()
        projline.coordinatize(t)

    def nothing():
        return None

    def cli_check(_):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["check", "--in", path, "--format", "json"])
        if code != 0:
            raise SystemExit(f"check of the table over F_{p} exited {code}")

    timed = {
        "from_model": (nothing, lambda _: fresh()),
        "to_json_bytes": (nothing, lambda _: table.to_json_bytes()),
        "json.loads": (nothing, lambda _: json.loads(data)),
        "from_doc": (lambda: json.loads(data), projline.CandidateTable.from_doc),
        "load": (nothing, lambda _: projline.CandidateTable.load(path)),
        "validate_structure": (fresh, projline.validate_structure),
        "check_axioms": (fresh, projline.check_axioms),
        "build_field": (fresh, projline.build_field),
        "coordinatize_first_call": (fresh, first_call),
        "coordinatize": (fresh, projline.coordinatize),
        "verify_uniqueness": (fresh, projline.verify_uniqueness),
        "cli_check": (nothing, cli_check),
        "structure_failing": (
            lambda: projline.CandidateTable.from_doc(failing), projline.validate_structure
        ),
    }
    projline.coordinatize(fresh())
    rows = []
    for name in STAGES:
        if name == "cli_check":
            cli_check(None)
        q1, median, q3 = (round(t, 6) for t in _quartile_seconds(*timed[name], repeat))
        rows.append(
            {"p": p, "stage": name, "seconds": median, "q1": q1, "q3": q3, "repeat": repeat}
        )
    return rows


CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import projline

def vmhwm():
    with open("/proc/self/status") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))

job, p, path = sys.argv[2], int(sys.argv[3]), sys.argv[4]
row = {}
if job == "peak_rss":
    table = projline.CandidateTable.load(path)
    projline.validate_structure(table)
    projline.check_axioms(table)
    projline.build_field(table)
elif job == "gen":
    start = time.perf_counter()
    projline.from_model(p).save(path)
    row["seconds"] = round(time.perf_counter() - start, 6)
elif job == "coord":
    table = projline.from_model(p)
    row["table_kib"] = vmhwm()
    start = time.perf_counter()
    iso = projline.coordinatize(table)
    report, _ = projline.verify_uniqueness(table)
    row["seconds"] = round(time.perf_counter() - start, 6)
    assert iso.verified and report.status == "pass"
elif job == "parsed_load":
    start = time.perf_counter()
    projline.CandidateTable.load(path)
    row["seconds"] = round(time.perf_counter() - start, 6)
else:
    raise SystemExit(f"unknown job {job!r}")
print(json.dumps({"kib": vmhwm(), **row}))
"""


def child_row(job: str, p: int, src: str, path: str) -> dict:
    """The row of ``job`` (``peak_rss``, ``gen``, ``coord`` or
    ``parsed_load``) at p, from a fresh process that imports projline from
    ``src``: ``peak_rss`` checks the table saved at ``path`` and
    ``parsed_load`` loads it, ``gen`` writes the table over F_p there."""
    out = subprocess.run(
        [sys.executable, "-c", CHILD, src, job, str(p), path],
        check=True, capture_output=True, text=True,
    ).stdout
    return {"p": p, "stage": job, **json.loads(out)}


def _held(x) -> int:
    """The nbytes of the arrays in ``x`` plus the length of its bytes, at any depth."""
    import numpy

    if isinstance(x, numpy.ndarray):
        return x.nbytes
    if isinstance(x, bytes):
        return len(x)
    items = x.values() if isinstance(x, dict) else x if isinstance(x, (tuple, list)) else ()
    return sum(map(_held, items))


def kept_row(p: int, path: str) -> dict:
    """The bytes that the kept slot (``candidate._arrow_space``) holds
    once the table saved at ``path`` is loaded, checked, reconstructed and
    written: its arrays' nbytes plus its name encodings."""
    import projline
    from projline import candidate

    table = projline.CandidateTable.load(path)
    projline.validate_structure(table)
    projline.check_axioms(table)
    projline.build_field(table)
    table.to_json_bytes()
    objects = table.objects
    space = candidate._arrow_space(
        objects, *(tuple(x[o] for o in objects) for x in (table.scalars, table.identities))
    )
    return {"p": p, "stage": "kept", "bytes": _held(space)}


def swap_first_entries(path: str, out: str) -> str:
    """Write the table document at ``path`` to ``out``, compact, with its
    first two compose entries swapped; return ``out``."""
    with open(path, "rb") as fh:
        doc = json.load(fh)
    doc["compose"][:2] = doc["compose"][1::-1]
    with open(out, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return out


def _seeded_quadruples(field, seed: int) -> list[tuple]:
    """Quadruples of distinct points: about one point in ten is infinity;
    rational coordinates are fractions with numerators in -60..60 and
    denominators in 1..60."""
    import random
    from fractions import Fraction

    import projline

    rng = random.Random(seed)
    quads = []
    while len(quads) < CALC_TUPLES:
        quad: list = []
        while len(quad) < 4:
            if rng.random() < 0.1:
                q = projline.Point.infinity(field)
            elif field == projline.QQ:
                q = projline.Point.affine(field, Fraction(rng.randint(-60, 60), rng.randint(1, 60)))
            else:
                q = projline.Point.affine(field, rng.randrange(field.p))
            if q not in quad:
                quad.append(q)
        quads.append(tuple(quad))
    return quads


def calculator_rows(repeat: int) -> list[dict]:
    import projline
    import projline.model

    calls = {
        "cross_ratio": lambda a, b, c, d: projline.cross_ratio(a, b, c, d),
        # the cycle (a, c, d; b, a, b) realizes the cross ratio (a, b; c, d)
        "tri_rapport": lambda a, b, c, d: projline.tri_rapport(a, c, d, b, a, b),
        "harmonic_conjugate": lambda a, b, c, d: projline.harmonic_conjugate(a, b, c),
        "evaluate_table_rows": lambda *quad: projline.model.evaluate_table_rows(quad),
    }
    rows = []
    for seed, field in enumerate((projline.GF(10007), projline.QQ)):
        quads = _seeded_quadruples(field, seed)
        for name in CALCULATORS:
            call = calls[name]

            def batch(_, call=call):
                for quad in quads:
                    call(*quad)

            batch(None)
            q1, median, q3 = (
                round(t / len(quads), 9) for t in _quartile_seconds(lambda: None, batch, repeat)
            )
            rows.append({
                "field": str(field), "stage": name, "seconds": median, "q1": q1, "q3": q3,
                "repeat": repeat, "calls": len(quads),
            })
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", default="src", help="directory holding the projline package")
    parser.add_argument("--out", required=True, help="JSON file to create or update")
    parser.add_argument("--label", required=True, help="name of this run in the file")
    args = parser.parse_args()

    src = os.path.abspath(args.src)
    compileall.compile_dir(src, quiet=1, force=True)
    sys.path.insert(0, src)
    import numpy
    import projline

    if not os.path.abspath(projline.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported projline from {projline.__file__}, not from {src}")
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for p in PRIMES:
            path = os.path.join(tmp, f"f{p}.json")
            rows += stage_rows(p, REPEAT, path)
            rows.append(kept_row(p, path))
            rows.append(child_row("peak_rss", p, src, path))
            rows.append(child_row("gen", p, src, os.path.join(tmp, f"gen{p}.json")))
            rows.append(child_row("coord", p, src, path))
            swapped = swap_first_entries(path, os.path.join(tmp, f"swapped{p}.json"))
            rows.append(child_row("parsed_load", p, src, swapped))
    rows += calculator_rows(REPEAT)
    run = {
        "source_sha256": _source_digest(os.path.dirname(projline.__file__)),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rows": rows,
    }
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault("runs", {})[args.label] = run
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

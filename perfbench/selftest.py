"""Quick self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload untraced and traced at p=5 with a handful of
operations, checks that each prints every metric BENCHMARK.json names,
that the same seed gives the same input digest, and that each oracle
rejects a deliberately wrong output.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import sys

import run as bench

TINY = {
    "line-p13": {"line_p": 5, "line_passes": 1},
    "mutants-p7": {"line_p": 5, "line_passes": 1, "p": 5, "same": 2, "cross": 2},
    "coord-p7": {"line_p": 5, "line_passes": 1, "p": 5, "tables": 1, "frames": 2},
    "calc": {"line_p": 5, "line_passes": 1, "per_field": dict.fromkeys(
        ("cross_ratio", "tri_rapport", "harmonic_conjugate", "evaluate_table_rows"), 1)},
}

# The per-layer metrics each workload exists to measure.
OWN_LAYER = {"mutants-p7": "candidate.", "coord-p7": "coordinatize.", "calc": "model."}


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def workdir(tag: str) -> str:
    path = os.path.join(bench.WORK, f"selftest-{tag}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def workloads_run(spec: dict) -> None:
    for name in bench.WORKLOADS:
        for runner, section in ((bench.measure, "end_to_end"), (bench.trace, "per_layer")):
            tally, values, context = runner(name, 3, 0.1, workdir(name), TINY[name])
            check(tally.attempted > 0 and tally.failed == 0,
                  f"{name} {section}: {tally.attempted} ops, no oracle failures {tally.messages}")
            names = [m["name"] for m in spec[section]]
            check(all(n in values for n in names), f"{name} {section}: every metric measured")
            if section == "end_to_end":
                check(all(values[n] > 0 for n in names), f"{name}: every end-to-end metric > 0")
            else:
                zero = [n for n in names if not values[n] > 0]
                check(not zero, f"{name}: every per-layer metric > 0 {zero}")
                with open(os.path.join(bench.ROOT, context["trace_file"])) as fh:
                    record = json.load(fh)
                check(record["rounds"] and all(len(s) == 5 for s in record["rounds"][0]),
                      f"{name}: spans written as [name, start, end, parent, tag]")
                own = OWN_LAYER.get(name)
                check(not own or not any(k.startswith(own) for k in record["probed_metrics"]),
                      f"{name}: {own}* measured on the workload itself, not on the probe")


def digests() -> None:
    a = bench.build("mutants-p7", 5, workdir("d1"), TINY["mutants-p7"])[2]
    b = bench.build("mutants-p7", 5, workdir("d2"), TINY["mutants-p7"])[2]
    c = bench.build("mutants-p7", 6, workdir("d3"), TINY["mutants-p7"])[2]
    check(a == b != c, "the input digest depends on the seed only")


def rejects(oracle, out, what: str) -> None:
    check(oracle(out) is not None, f"oracle rejects {what}")


def oracles() -> None:
    import workloads as wl

    rng = random.Random(1)
    inputs = wl.Inputs(workdir("oracle"))
    line = {label: (call, oracle) for label, call, oracle in
            wl.pipeline_ops(inputs, rng, 5)}
    outs = {}
    for label, (call, oracle) in line.items():
        outs[label] = call()
        check(oracle(outs[label]) is None, f"pipeline {label} passes its oracle")
    code, stdout, stderr = outs["classify"]
    doc = json.loads(stdout)
    doc["map"][next(iter(doc["map"]))] = 1
    rejects(line["classify"][1], (code, json.dumps(doc).encode(), stderr),
            "a residue map that is not a bijection")
    rejects(line["check_jobs2"][1], (0, outs["check"][1] + b" ", b""),
            "check --jobs 2 bytes that differ from check")
    rejects(line["check"][1], (1, outs["check"][1], b""), "exit 1 on the valid table")

    stream = wl.mutants_ops(inputs, rng, 5, 1, 1)
    by_label = {label: (call, oracle) for label, call, oracle in stream}
    valid_out = by_label["valid"][0]()
    rejects(by_label["mut-same"][1], valid_out, "a mutation that passes")
    rejects(by_label["doc-hex1"][1], (1, valid_out[1], b""), "a failure without a witness")
    rejects(by_label["bomb-20"][1], (3, b"", b"internal error"), "exit 3 on hostile input")
    rejects(by_label["dropped-entry"][1], (2, b"", b""), "a rejection without a message")

    label, call, oracle = wl.coord_ops(inputs, rng, 5, 1, 1)[0]
    iso, (report, found) = call()
    check(oracle((iso, (report, found))) is None, "coordinatization passes its oracle")
    objs = [o for o, v in iso.object_map.items() if v not in ("0:1", "1:0", "1:1")]
    swapped = dict(iso.object_map, **{objs[0]: iso.object_map[objs[1]],
                                      objs[1]: iso.object_map[objs[0]]})
    rejects(oracle, (dataclasses.replace(iso, object_map=swapped), (report, found)),
            "coordinates that do not match the relabeling")
    rejects(oracle, (iso, (dataclasses.replace(report, checked=report.checked - 1), found)),
            "uniqueness that misses a bijection")

    calc = {}
    for label, call, oracle in wl.calc_ops(inputs, rng, dict.fromkeys(TINY["calc"]["per_field"], 1)):
        calc.setdefault(label, (call, oracle))
    call, oracle = calc["cross_ratio.gf"]
    rejects(oracle, call() + 1, "a cross ratio off by one")
    call, oracle = calc["harmonic_conjugate.qq"]
    h = call()
    rejects(oracle, type(h).affine(h.field, 0 if h.is_infinity else h.x.value + 1),
            "a wrong harmonic conjugate")
    call, oracle = calc["evaluate_table_rows.gf"]
    rows = call()
    rejects(oracle, rows[:-1] + [dict(rows[-1], **{"pass": False})], "a failing table row")


def main() -> int:
    try:
        spec = bench.load_spec()
        bench.import_program()
        workloads_run(spec)
        digests()
        oracles()
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        for tag in os.listdir(bench.WORK) if os.path.isdir(bench.WORK) else ():
            if tag.startswith("selftest-"):
                shutil.rmtree(os.path.join(bench.WORK, tag), ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

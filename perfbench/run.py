"""projline benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json;
with ``--trace 1`` it prints every per-layer metric and writes the spans
to ``.bench_work/trace-<workload>-<seed>.json``.  The last line of
stdout is the result object; the line before it records the seed, the
digest of the generated inputs, the sample counts and the environment.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# line-p13 is not in BENCHMARK.json: its multi-second timings follow the
# host's speed drift, which nothing inside a run cancels.  It is there for
# a traced view of the pipeline at p=13, run by hand.
WORKLOADS = ("line-p13", "mutants-p7", "coord-p7", "calc")

# Sizes of each workload.  Every workload runs the CLI pipeline over
# F_<line_p> in process through cli.main.  The other keys size one round
# of the workload's own operation stream; line-p13 has none.
SIZES = {
    "line-p13": {"line_p": 13, "line_passes": 1},
    "mutants-p7": {"line_p": 7, "line_passes": 12, "p": 7, "same": 39, "cross": 39},
    "coord-p7": {"line_p": 7, "line_passes": 12, "p": 7, "tables": 4, "frames": 6},
    "calc": {"line_p": 7, "line_passes": 12, "per_field": {
        "cross_ratio": 48, "tri_rapport": 24, "harmonic_conjugate": 24, "evaluate_table_rows": 8}},
}
MIN_OPS = 100  # p90 has at least ten samples beyond it
SETUP_REPEATS = 7
SETUP_REFERENCE_S = 0.4  # set-up is scaled to a host where REFERENCE_PROCESS takes this
# A fixed job for a fresh interpreter that needs no projline: start-up,
# the numpy import, JSON encoding and dict and str work, as set-up does.
REFERENCE_PROCESS = """
import json, numpy
doc = [[f"{i % 97}:{j}>{j % 13}:1>{i % 89}:1" for j in range(40)] for i in range(800)]
for _ in range(6):
    json.dumps(doc, separators=(",", ":"))
counts = {}
for i in range(300000):
    key = str(i % 331)
    counts[key] = counts.get(key, 0) + i
"""
REFERENCE_S = 0.002  # reported times are scaled to a host where the reference loop takes this
STALE_S = 0.05  # a reference timing older than this is taken again before it is used


def reference_loop() -> int:
    """Fixed interpreter work: dict updates, int-to-str conversions and a join."""
    counts: dict[str, int] = {}
    parts = []
    for i in range(6000):
        key = str(i % 331)
        counts[key] = counts.get(key, 0) + i
        parts.append(key)
    return len("".join(parts))


class HostSpeed:
    """Tracks how fast this host runs right now by timing ``reference_loop``.

    On a shared virtual machine the same code runs up to twice as slow
    from one minute to the next.  An in-process operation's time is
    divided by the mean of the reference timings taken just before and
    just after it, on the same CPU, and multiplied by REFERENCE_S, which
    cancels most of that drift.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._taken = -math.inf

    def sample(self) -> float:
        if time.perf_counter() - self._taken > STALE_S:
            start = time.perf_counter()
            reference_loop()
            self._taken = time.perf_counter()
            self.samples.append(self._taken - start)
        return self.samples[-1]

    def timed(self, call):
        """Run ``call()``; returns (result or exception, wall seconds, scaled seconds)."""
        self.sample()
        first = len(self.samples) - 1
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # the caller decides what a raising call means
            out = exc
        took = time.perf_counter() - start
        self.sample()
        window = self.samples[first:]
        return out, took, took * REFERENCE_S * len(window) / sum(window)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_program():
    """Byte-compile the sources once, so no timed run pays for it, and import them."""
    if not os.path.isfile(os.path.join(SRC, "projline", "__init__.py")):
        raise RuntimeError(f"no projline sources under {SRC}")
    compileall.compile_dir(SRC, quiet=1)
    sys.path.insert(0, SRC)
    import projline

    if not os.path.abspath(projline.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported projline from {projline.__file__}, not from {SRC}")
    return projline


def build(name: str, seed: int, workdir: str, sizes: dict):
    """Generate the workload's inputs from the seed.

    Returns (line_ops, stream_ops, digest); ``line_ops`` is the CLI pipeline.
    """
    import workloads as wl

    rng = random.Random(f"{name}:{seed}")
    inputs = wl.Inputs(workdir)
    inputs.record([name, seed])
    line = wl.pipeline_ops(inputs, rng, sizes["line_p"])
    if name.startswith("mutants"):
        stream = wl.mutants_ops(inputs, rng, sizes["p"], sizes["same"], sizes["cross"])
    elif name.startswith("coord"):
        stream = wl.coord_ops(inputs, rng, sizes["p"], sizes["tables"], sizes["frames"])
    elif name == "calc":
        stream = wl.calc_ops(inputs, rng, sizes["per_field"])
    else:
        stream = []
    return line, stream, inputs.digest()


class Tally:
    """Latencies and oracle verdicts of the operations run.

    ``run`` times the calls; ``judge`` applies the oracles afterwards, so
    that in a traced run the oracles' own library calls record no spans.
    ``latency`` holds host-speed-scaled seconds, ``raw`` wall seconds.
    """

    def __init__(self, host: HostSpeed):
        self.host = host
        self.latency: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._pending: list[tuple] = []

    def run(self, ops) -> None:
        """Run each op once, timing only the call."""
        for label, call, oracle in ops:
            out, took, scaled = self.host.timed(call)
            problem = None
            if isinstance(out, Exception):  # an operation that raises is a failed operation
                out, problem = None, f"raised {type(out).__name__}: {out}"
            self.latency.setdefault(label, []).append(scaled)
            self.raw.setdefault(label, []).append(took)
            self._pending.append((label, out, oracle, problem))

    def judge(self) -> None:
        for label, out, oracle, problem in self._pending:
            self.attempted += 1
            if problem is None:
                try:
                    problem = oracle(out)
                except Exception as exc:
                    problem = f"oracle could not read the output: {type(exc).__name__}: {exc}"
            if problem is not None:
                self.failed += 1
                if len(self.messages) < 10:
                    self.messages.append(f"{label}: {problem}")
        self._pending.clear()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_rounds(tally: Tally, ops, seconds: float, min_ops: int) -> int:
    """Whole rounds until ``seconds`` have passed and ``min_ops`` ops ran; returns the rounds."""
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds or rounds * len(ops) < min_ops:
        tally.run(ops)
        tally.judge()
        rounds += 1
    return rounds


def setup_probe(name: str, seed: int, sizes: dict) -> None:
    """Child side of a set-up measurement: import, generate inputs, report the clock."""
    workdir = os.path.join(WORK, f"probe-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        import_program()
        build(name, seed, workdir, sizes)
        print(time.monotonic())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def reference_process() -> float:
    """Wall seconds of one fresh interpreter running REFERENCE_PROCESS."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", REFERENCE_PROCESS], capture_output=True,
                          text=True, cwd=ROOT, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"reference process failed: {done.stderr.strip()[-500:]}")
    return time.monotonic() - start


def measure_setup(name: str, seed: int) -> tuple[float, list[float], list[float]]:
    """Set-up time of fresh processes: (scaled seconds, wall samples, reference samples).

    A wall sample runs from process start to inputs ready: CLOCK_MONOTONIC
    is shared by all processes, so the child's clock at the end of set-up
    minus ours just before the spawn is its set-up time.  The probes
    alternate with runs of the reference process, and the result is
    median(wall) * SETUP_REFERENCE_S / median(reference).  The in-process
    reference loop does not serve here: set-up is mostly start-up, import
    and allocation, which the host's slow phases slow less than that loop.
    """
    wall, refs = [], [reference_process()]
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--setup-probe"],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        wall.append(float(done.stdout.strip().splitlines()[-1]) - start)
        refs.append(reference_process())
    return statistics.median(wall) * SETUP_REFERENCE_S / statistics.median(refs), wall, refs


def environment() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "projline")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            digest.update(fname.encode())
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_digest": digest.hexdigest(),
    }


def end_to_end(setup: float, line: dict, ops: dict, rss: float) -> dict:
    """The end-to-end metrics from the set-up time and per-label latencies."""
    every = [t for ts in ops.values() for t in ts]
    return {
        "setup_s": setup,
        "gen_s": statistics.median(line["gen"]),
        "check_s": statistics.median(line["check"]),
        "check_jobs2_s": statistics.median(line["check_jobs2"]),
        "classify_s": statistics.median(line["classify"]),
        "peak_rss_mb": rss,
        "op_p50_ms": 1e3 * statistics.median(every),
        "op_p90_ms": 1e3 * percentile(every, 0.9),
        "ops_per_s": len(every) / sum(every),
    }


def measure(name: str, seed: int, seconds: float, workdir: str, sizes: dict):
    """The untraced run: end-to-end metrics plus the context record.

    In-process times are scaled to reference host speed (see HostSpeed);
    the unscaled values go to the context record.  A workload without a
    stream (line-p13) reports its pipeline commands as its operations.
    """
    setup, setup_wall, setup_refs = measure_setup(name, seed)
    line, stream, digest = build(name, seed, workdir, sizes)
    host = HostSpeed()
    tally = Tally(host)
    for _ in range(sizes["line_passes"]):
        tally.run(line)
        tally.judge()
    ops = Tally(host)
    rounds = run_rounds(ops, stream, seconds, MIN_OPS) if stream else 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = end_to_end(setup, tally.latency, ops.latency or tally.latency, rss)
    unscaled = end_to_end(statistics.median(setup_wall), tally.raw, ops.raw or tally.raw, rss)
    context = {
        "input_digest": digest,
        "unscaled": unscaled,
        "reference_s": statistics.median(host.samples),
        "setup_samples_s": setup_wall,
        "setup_reference_s": setup_refs,
        "line_samples_s": tally.latency,
        "op_samples": sum(map(len, (ops.latency or tally.latency).values())),
        "rounds": rounds,
    }
    tally.attempted += ops.attempted
    tally.failed += ops.failed
    tally.messages += ops.messages
    return tally, metrics, context


def trace(name: str, seed: int, seconds: float, workdir: str, sizes: dict):
    """The traced run: per-layer metrics, the spans and the tracing overhead.

    Rounds alternate untraced and traced over the same operations: one
    pass of the CLI pipeline, then one round of the stream.  Times are
    per-round medians over the traced rounds and counts come from the
    first traced round.  The tracing overhead, traced minus untraced
    wall time, goes to the context record and the trace file: host
    drift between two rounds can make it negative, so it is no metric.
    """
    import tracing
    import workloads as wl

    line, stream, digest = build(name, seed, workdir, sizes)
    ops = line + stream
    host = HostSpeed()
    tally = Tally(host)
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        tally.run(ops)
        untraced.append(time.perf_counter() - t0)
        tally.judge()
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            t0 = time.perf_counter()
            tally.run(ops)
            traced.append(time.perf_counter() - t0)
        tally.judge()
        tracers.append(tracer)
    rounds = [tracing.summarize(t) for t in tracers]
    metrics = dict(rounds[0])
    for key in metrics:
        if key.endswith("_s") or key.endswith("_us") or key.endswith("_frac"):
            metrics[key] = statistics.median(r[key] for r in rounds)
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.spans"] = len(tracers[0].spans)

    # A layer this workload never enters is measured on a fixed p=5
    # probe, so that no per-layer time or count reads as a constant zero.
    # The trace file lists which metrics came from the probe.
    probe_tracer = tracing.Tracer()
    probe_dir = os.path.join(workdir, "probe")
    os.makedirs(probe_dir)
    with tracing.instrument(probe_tracer):
        tally.run(wl.probe_ops(wl.Inputs(probe_dir), random.Random(seed)))
    tally.judge()
    probe = tracing.summarize(probe_tracer)
    probed = sorted(k for k, v in metrics.items() if v == 0 and probe.get(k))
    for key in probed:
        metrics[key] = probe[key]

    record = {
        "workload": name,
        "seed": seed,
        "input_digest": digest,
        "untraced_round_s": untraced,
        "traced_round_s": traced,
        "trace_overhead_s": overhead,
        "probed_metrics": probed,
        "metrics": metrics,
        "self_s": {layer: metrics[f"{layer}.self_s"] for layer in tracing.LAYERS},
        "span_fields": ["name", "start", "end", "parent", "tag"],
        "rounds": [t.spans for t in tracers],
        "probe": probe_tracer.spans,
    }
    path = os.path.join(WORK, f"trace-{name}-{seed}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    context = {"input_digest": digest, "traced_rounds": len(traced), "probed_metrics": probed,
               "trace_overhead_s": overhead,
               "trace_overhead_frac": overhead / statistics.median(untraced),
               "reference_s": statistics.median(host.samples),
               "trace_file": os.path.relpath(path, ROOT)}
    return tally, metrics, context


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sizes = SIZES[args.workload]
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, sizes)
            return 0
        spec = load_spec()
        import_program()
    except (OSError, RuntimeError, ValueError, ImportError) as exc:
        return fail(str(exc))

    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        runner = trace if args.trace else measure
        tally, values, context = runner(args.workload, args.seed, args.seconds, workdir, sizes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")
    context.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        fail_frac=tally.failed / tally.attempted, failures=tally.messages, env=environment(),
    )
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

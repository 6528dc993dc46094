"""Spans around the public entry points of each projline layer.

The benchmark's own code wraps public names at run time; no file of the
program changes.  Wrapped are the functions in ``projline.__all__``
(plus ``model.evaluate_table_rows``, which the calculators use), the
``CandidateTable.load``, ``from_doc`` and ``to_json_bytes`` methods and
``cli.main``.  The wrappers are installed in the ``projline`` namespace
and in ``cli``, ``reconstruct`` and ``coordinatize``, where those
modules look the names up, so nested calls become child spans.  Calls a
module makes to its own functions stay unwrapped, which keeps per-entry
loops such as ``parse_arrow`` inside ``from_doc`` free of tracing cost.

A span is ``[name, start, end, parent, tag]``; ``parent`` is the index
of the enclosing span or -1, and ``tag`` is the field kind of a
calculator call or the exception a call raised.  Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import time
from collections import Counter, defaultdict

import importlib

import projline
import projline.cli
import projline.model

LAYERS = ("candidate", "reconstruct", "coordinatize", "model", "cli")
CALC_OPS = ("cross_ratio", "tri_rapport", "harmonic_conjugate", "evaluate_table_rows")
STRUCTURE_LAYERS = (
    "objects", "endpoints", "identity", "inverses", "associativity", "transitivity", "homsets",
)
AXIOMS = ("one", "two", "pappus", "hex1", "hex2", "as")

# Per-round seconds of the named spans, reported as "<layer>.<fn>_s".
SPAN_SECONDS = (
    "candidate.load", "candidate.from_doc", "candidate.from_model", "candidate.to_json_bytes",
    "candidate.validate_structure", "candidate.check_axioms",
    "reconstruct.build_field", "reconstruct.reconstruct_minus_one", "reconstruct.phi",
    "reconstruct.verify_field", "reconstruct.classify_prime",
    "coordinatize.coordinatize", "coordinatize.verify_iso", "coordinatize.verify_uniqueness",
    "cli.main",
)


def composable_pairs(table) -> int:
    """Entries a complete table stores: sum over objects of in-degree times out-degree."""
    objs = table.objects
    return sum(
        sum(len(table.hom(x, o)) for x in objs) * sum(len(table.hom(o, x)) for x in objs)
        for o in objs
    )


class Tracer:
    """In-memory spans plus counts taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, before=None, observe=None):
        """Wrap ``fn`` in a span named ``name``.

        ``before(args)`` runs ahead of the call and its result becomes the
        span's tag; ``observe(args, result)`` runs after a call returns.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, before(args) if before else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[4] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if observe is not None:
                observe(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- observers: counts read off arguments and results --------------------

    def _table(self, args, table) -> None:
        n = table.n_arrows
        self.counts["candidate.n_arrows"] += n
        self.counts["candidate.n_arrows_sq"] += n * n
        self.counts["candidate.compose_entries"] += composable_pairs(table)

    def _load_bytes(self, args) -> None:
        with contextlib.suppress(OSError, TypeError):
            self.counts["candidate.doc_bytes"] += os.path.getsize(args[1])

    def _structure(self, args, group) -> None:
        for c in group.checks:
            self.counts[f"candidate.structure.{c.name}.checked"] += c.checked

    def _axioms(self, args, group) -> None:
        for c in group.checks:
            self.counts[f"candidate.axioms.{c.name}.checked"] += c.checked

    def _uniqueness(self, args, out) -> None:
        report, found = out
        self.counts["coordinatize.uniqueness.checked"] += report.checked
        self.counts["coordinatize.uniqueness.passing"] += found is not None

    def _exit(self, args, code) -> None:
        self.counts[f"cli.exit.{code}"] += 1


def _field_kind(point) -> str:
    return "gf" if isinstance(point.field, projline.PrimeField) else "qq"


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore every name."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        old = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, old))
        setattr(owner, attr, new)

    observers = {
        "from_model": tracer._table,
        "validate_structure": tracer._structure,
        "check_axioms": tracer._axioms,
        "verify_uniqueness": tracer._uniqueness,
    }
    functions = {
        name: getattr(projline, name)
        for name in projline.__all__
        if inspect.isfunction(getattr(projline, name))
    }
    functions["evaluate_table_rows"] = projline.model.evaluate_table_rows
    # projline.coordinatize is the function, so the modules come from importlib.
    modules = [importlib.import_module(f"projline.{m}") for m in ("cli", "reconstruct", "coordinatize")]
    sites = (projline, *modules, projline.model)
    try:
        for name, fn in functions.items():
            layer = fn.__module__.rsplit(".", 1)[-1]
            kind = None
            if name in CALC_OPS:
                kind = (lambda a: _field_kind(a[0][0])) if name == "evaluate_table_rows" else (
                    lambda a: _field_kind(a[0]))
            wrapped = tracer.wrap(f"{layer}.{name}", fn, kind, observers.get(name))
            for site in sites:
                # The model module itself is patched only for the one name
                # it does not re-export.
                if site is projline.model and name != "evaluate_table_rows":
                    continue
                if getattr(site, name, None) is fn:
                    patch(site, name, wrapped)
        table_cls = projline.CandidateTable
        load = vars(table_cls)["load"].__func__
        from_doc = vars(table_cls)["from_doc"].__func__
        patch(table_cls, "load", classmethod(
            tracer.wrap("candidate.load", load, before=tracer._load_bytes)))
        patch(table_cls, "from_doc", classmethod(
            tracer.wrap("candidate.from_doc", from_doc, observe=tracer._table)))
        patch(table_cls, "to_json_bytes",
              tracer.wrap("candidate.to_json_bytes", vars(table_cls)["to_json_bytes"]))
        patch(projline.cli, "main", tracer.wrap("cli.main", projline.cli.main, observe=tracer._exit))
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - child[i] for i, s in enumerate(spans)]


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round (times in seconds per round)."""
    spans = tracer.spans
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    reject = 0.0
    calc_total: dict[str, float] = defaultdict(float)
    calc_calls: Counter = Counter()
    for name, start, end, parent, tag in spans:
        total[name] += end - start
        calls[name] += 1
        if name == "candidate.load" and tag == "CandidateFormatError":
            reject += end - start
        if name.startswith("model.") and tag in ("gf", "qq"):
            calc_total[f"{name}.{tag}"] += end - start
            calc_calls[f"{name}.{tag}"] += 1
    self_by_layer: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        self_by_layer[span[0].split(".", 1)[0]] += own

    out: dict[str, float] = {f"{name}_s": total[name] for name in SPAN_SECONDS}
    out["candidate.reject_s"] = reject
    out["candidate.from_model.calls"] = calls["candidate.from_model"]
    out["reconstruct.phi.calls"] = calls["reconstruct.phi"]
    for op in CALC_OPS:
        for kind in ("gf", "qq"):
            key = f"model.{op}.{kind}"
            out[f"{key}_us"] = 1e6 * calc_total[key] / calc_calls[key] if calc_calls[key] else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer]
    main = total["cli.main"]
    out["cli.covered_frac"] = 1.0 - self_by_layer["cli"] / main if main else 0.0
    c = tracer.counts
    for key in ("candidate.doc_bytes", "candidate.n_arrows", "candidate.compose_entries",
                "coordinatize.uniqueness.checked", "coordinatize.uniqueness.passing"):
        out[key] = c[key]
    sq = c["candidate.n_arrows_sq"]
    out["candidate.comp_fill"] = c["candidate.compose_entries"] / sq if sq else 0.0
    for layer in STRUCTURE_LAYERS:
        out[f"candidate.structure.{layer}.checked"] = c[f"candidate.structure.{layer}.checked"]
    for axiom in AXIOMS:
        out[f"candidate.axioms.{axiom}.checked"] = c[f"candidate.axioms.{axiom}.checked"]
    # Exit 3 is an internal error, which the oracles count as a failure.
    for code in range(3):
        out[f"cli.exit.{code}"] = c[f"cli.exit.{code}"]
    return out

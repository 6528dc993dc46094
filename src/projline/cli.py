"""Command line interface.

Exit codes: 0 all requested checks pass, 1 a check or mathematical
precondition fails, 2 unusable input (bad file, bad arguments, or more
memory than the process may use), 3 unexpected internal error.  JSON
output is deterministic: same input and flags give the same bytes.
``check --jobs N`` is accepted for compatibility; every sweep runs in
one process whatever N is.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Optional, Sequence

from .candidate import (
    AXIOM_NAMES,
    CandidateFormatError,
    CandidateTable,
    axiom_names,
    check_axioms,
    from_model,
    validate_structure,
)
from .model import (
    DegenerateHarmonicError,
    Point,
    cross_ratio,
    evaluate_table_rows,
    harmonic_conjugate,
    tri_rapport,
)
from .reconstruct import ReconstructionError, build_field, classify_prime, verify_field
from .scalars import QQ, PrimeField

GEN_CAP = 13


def _emit(doc, args, render_text) -> None:
    if args.format == "json":
        sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")
    else:
        sys.stdout.write(render_text())


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _prime_arg(p: int) -> PrimeField:
    try:
        return PrimeField(p)
    except ValueError as exc:
        raise _InputError(f"bad --p: {exc}") from exc


class _InputError(Exception):
    pass


def _load_table(path: str) -> CandidateTable:
    try:
        return CandidateTable.load(path)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except CandidateFormatError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _load_with_base(args) -> CandidateTable:
    table = _load_table(getattr(args, "in"))
    if args.base is not None and args.base not in table.objects:
        raise _InputError(f"unknown base object {args.base!r}")
    return table


# Fraction builds 10**e to read a coordinate written with exponent e; the
# interpreter's default int-string digit limit bounds |e|, and so the time.
EXPONENT_BOUND = 4300
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _parse_point(text: str, field) -> Point:
    try:
        if field is QQ:
            for coord in text.split(":"):
                m = _EXPONENT.search(coord)
                if m and abs(int(m[1])) > EXPONENT_BOUND:
                    raise ValueError(f"the exponent {m[1]} exceeds {EXPONENT_BOUND} in magnitude")
        return Point.parse(field, text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"bad point {text!r}: {exc}") from exc


def _printable(value) -> str:
    """``str(value)``, refused as input when it is too long for the interpreter to print."""
    try:
        return str(value)
    except ValueError as exc:
        raise _InputError(
            f"the result has more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's limit for printing an integer"
        ) from exc


def _field_of(args):
    if getattr(args, "field", None) == "rationals":
        return QQ
    return _prime_arg(args.p)


# -- subcommand handlers -------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.p > args.cap:
        raise _InputError(f"p={args.p} exceeds the size cap {args.cap}; pass --cap to override")
    p = _prime_arg(args.p).p
    try:
        table = from_model(p)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if args.out == "-":
        # A text stream without a binary buffer, such as io.StringIO, takes the text.
        out = getattr(sys.stdout, "buffer", None)
        if out is None:
            sys.stdout.write(table.to_json_bytes().decode("ascii"))
        else:
            table.to_json_bytes(out)
    else:
        try:
            table.save(args.out)
        except OSError as exc:
            raise _InputError(f"cannot write {args.out}: {exc}") from exc
    return 0


def _cmd_check(args) -> int:
    table = _load_table(getattr(args, "in"))
    which: Optional[list[str]] = None
    if args.axioms is not None:
        which = [w.strip() for w in args.axioms.split(",") if w.strip()]
        try:
            which = axiom_names(which)
        except ValueError as exc:
            raise _InputError(str(exc)) from exc
        if not which:
            raise _InputError(f"--axioms names no axiom; valid: {', '.join(AXIOM_NAMES)}")
    structure = validate_structure(table, max_witnesses=args.max_witnesses)
    axioms = None
    if structure.passed:
        axioms = check_axioms(table, which=which, max_witnesses=args.max_witnesses)
    doc = {
        "structure": structure.to_dict(),
        "axioms": axioms.to_dict() if axioms is not None else None,
    }

    def text() -> str:
        out = structure.render() + "\n"
        if axioms is None:
            out += "axioms: skipped (structure failed)\n"
        else:
            out += axioms.render() + "\n"
        return out

    _emit(doc, args, text)
    ok = structure.passed and (axioms is None or axioms.passed)
    return 0 if ok else 1


def _cmd_reconstruct(args) -> int:
    table = _load_with_base(args)
    try:
        ft = build_field(table, base=args.base)
    except ReconstructionError as exc:
        return _fail(f"reconstruction failed: {exc}", 1)
    report = verify_field(ft, max_witnesses=args.max_witnesses)
    doc = {"field": ft.to_doc(), "report": report.to_dict()}

    def text() -> str:
        d = ft.to_doc()
        out = [
            f"base object {ft.base_object}",
            f"order {d['order']}  zero {d['zero']}  one {d['one']}  minus_one {d['minus_one']}",
            "carrier " + " ".join(d["carrier"]),
            "add:",
        ]
        for row in d["add"]:
            out.append("  " + " ".join(ft.carrier[v] for v in row))
        out.append("mul:")
        for row in d["mul"]:
            out.append("  " + " ".join(ft.carrier[v] for v in row))
        return "\n".join(out) + "\n" + report.render() + "\n"

    _emit(doc, args, text)
    return 0 if report.passed else 1


def _cmd_classify(args) -> int:
    table = _load_with_base(args)
    try:
        ft = build_field(table, base=args.base)
        report = verify_field(ft, max_witnesses=args.max_witnesses)
        cl = classify_prime(ft, report)
    except ReconstructionError as exc:
        return _fail(f"classification failed: {exc}", 1)
    doc = cl.to_doc()

    def text() -> str:
        out = [
            f"order {cl.order}",
            f"characteristic {cl.characteristic}",
            f"prime {'yes' if cl.is_prime_field else 'no'}",
        ]
        if cl.residue_map is not None:
            pairs = sorted(cl.residue_map.items(), key=lambda kv: kv[1])
            out.append("map " + " ".join(f"{k}->{v}" for k, v in pairs))
        return "\n".join(out) + "\n"

    _emit(doc, args, text)
    return 0


def _cmd_rapport(args) -> int:
    """``cr`` and ``tri``: one rapport of the given points."""
    field = _field_of(args)
    pts = [_parse_point(t, field) for t in args.points]
    try:
        value = (cross_ratio if args.command == "cr" else tri_rapport)(*pts)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    text = _printable(value)
    _emit({"value": text}, args, lambda: f"{text}\n")
    return 0


def _cmd_harmonic(args) -> int:
    field = _field_of(args)
    pts = [_parse_point(t, field) for t in args.points]
    try:
        h = harmonic_conjugate(*pts)
    except DegenerateHarmonicError as exc:
        _emit(
            {"degenerate": True, "point": str(exc.degenerate)},
            args,
            lambda: f"degenerate: {exc.degenerate}\n",
        )
        return 1
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    text = _printable(h)
    _emit({"degenerate": False, "point": text}, args, lambda: f"{text}\n")
    return 0


def _find_quadruple(field: PrimeField, mu) -> tuple:
    """The first quadruple of points(field), in permutations order, with
    cross ratio mu (not 0 or 1): (0:1, 1:1, 2:1, d) with 2(d - 1)/d = mu."""
    two = field(2)
    d = Point.infinity(field) if mu == two else Point.affine(field, two / (two - mu))
    return (*(Point.affine(field, v) for v in range(3)), d)


def _cmd_tables(args) -> int:
    field = _prime_arg(args.p)
    try:
        mu = field(int(args.mu))
    except ValueError as exc:
        raise _InputError(f"bad --mu {args.mu!r}: {exc}") from exc
    if mu in (field.zero(), field.one()):
        raise _InputError(f"--mu must avoid 0 and 1, got {mu}")
    quad = _find_quadruple(field, mu)
    rows = evaluate_table_rows(quad)
    ok = all(r["pass"] for r in rows)
    doc = {
        "field": str(field),
        "mu": str(mu),
        "quad": [str(q) for q in quad],
        "rows": rows,
        "pass": ok,
    }

    def text() -> str:
        head = f"{field} mu={mu} quad=({', '.join(str(q) for q in quad)})\n"
        lines = [
            f"{'ok' if r['pass'] else 'FAIL'} {r['row']:<16} expected {r['expected']:>4} got {r['got']}"
            for r in rows
        ]
        return head + "\n".join(lines) + "\n"

    _emit(doc, args, text)
    return 0 if ok else 1


# -- parser --------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.

    Reusing it is safe: ``parse_args`` fills a fresh namespace and leaves
    the parser unchanged, the ``fn`` defaults are this module's handlers,
    which look the library functions up when they run, and argparse finds
    ``sys.stdout`` and ``sys.stderr`` when it prints.
    """
    parser = argparse.ArgumentParser(
        prog="projline",
        description="Exact projective-line groupoid calculator and checker.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )

    def add_witnesses(sp):
        sp.add_argument(
            "--max-witnesses", type=int, default=5, metavar="K",
            help="cap on reported counterexamples per check",
        )

    sp = sub.add_parser("gen", help="write the model table over F_p as JSON")
    sp.add_argument("--p", type=int, required=True, help="prime field size")
    sp.add_argument("--out", default="-", help="output file, - for stdout")
    sp.add_argument(
        "--cap", type=int, default=GEN_CAP,
        help=f"refuse p above this size (default {GEN_CAP})",
    )
    sp.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("check", help="validate structure and axioms of a table file")
    sp.add_argument("--in", required=True, help="candidate table JSON file")
    sp.add_argument(
        "--axioms", default=None,
        help=f"comma separated subset of: {','.join(AXIOM_NAMES)} (default all)",
    )
    sp.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility; sweeps run in one process",
    )
    add_witnesses(sp)
    add_format(sp)
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("reconstruct", help="rebuild the scalar field from a table file")
    sp.add_argument("--in", required=True, help="candidate table JSON file")
    sp.add_argument("--base", default=None, help="base object (default: first)")
    add_witnesses(sp)
    add_format(sp)
    sp.set_defaults(fn=_cmd_reconstruct)

    sp = sub.add_parser("classify", help="identify the reconstructed field up to isomorphism")
    sp.add_argument("--in", required=True, help="candidate table JSON file")
    sp.add_argument("--base", default=None, help="base object (default: first)")
    add_witnesses(sp)
    add_format(sp)
    sp.set_defaults(fn=_cmd_classify)

    for name, npts, doc in (
        ("cr", 4, "cross ratio of four points (a b; c d)"),
        ("tri", 6, "three-leg cycle value of six points (a b c; d e f)"),
        ("harmonic", 3, "harmonic conjugate of c with respect to a, b"),
    ):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--p", type=int, default=None, help="prime field size")
        sp.add_argument(
            "--field", choices=("rationals",), default=None,
            help="use exact rationals instead of --p",
        )
        sp.add_argument(
            "points", nargs=npts, metavar="x:y",
            help="points as x:y (rationals allow fractions; put -- before negatives)",
        )
        sp.set_defaults(fn=_cmd_harmonic if name == "harmonic" else _cmd_rapport)
        add_format(sp)

    sp = sub.add_parser("tables", help="evaluate the classical relation table at one cross ratio")
    sp.add_argument("--p", type=int, required=True, help="prime field size")
    sp.add_argument("--mu", required=True, help="cross ratio value, not 0 or 1")
    add_format(sp)
    sp.set_defaults(fn=_cmd_tables)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("cr", "tri", "harmonic"):
        if (args.p is None) == (args.field is None):
            print("exactly one of --p or --field is required", file=sys.stderr)
            return 2
    if getattr(args, "max_witnesses", 0) < 0:
        return _fail(f"--max-witnesses must be at least 0, got {args.max_witnesses}", 2)
    try:
        return args.fn(args)
    except _InputError as exc:
        return _fail(str(exc), 2)
    except MemoryError:
        return _fail("out of memory: the input needs more memory than this process may use", 2)
    except Exception as exc:  # pragma: no cover - defensive
        return _fail(f"internal error: {type(exc).__name__}: {exc}", 3)


if __name__ == "__main__":
    sys.exit(main())

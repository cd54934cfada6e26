"""Command-line front end.

Subcommands: ``check`` evaluates every check statement of a source file,
``normalize`` prints the matrix form of a named term as JSON, ``render``
writes a drawing of a named term's canonical matrix, ``protocol`` runs the
bundled protocol verifications.  Exit status is 0 on success, 1 when some
checked equality fails, 2 on usage, file, parse or type errors, and 3 on
any other error, such as running out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import interp
from . import matcat as mc
from . import protocols
from . import render
from . import syntax as sx
from .cobsum import to_jsonable as cobsum_json
from .hilboracle import agree
from .syntax import ParseError, TypeCheckError

SCHEMA_VERSION = 1


def _load(path: str) -> sx.Document:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return sx.parse_document(text)


def _named_term(doc: sx.Document, name: str):
    if name not in doc.lets:
        raise KeyError(f"no term named {name!r} in the input file")
    return doc.lets[name]


def run_check(path: str) -> int:
    doc = _load(path)
    context = interp.EvalContext(doc.alphabet)
    failures = 0
    for stmt in doc.checks:
        try:
            verdict = interp.equal(stmt.left, stmt.right, doc.alphabet, context)
        except TypeCheckError as exc:
            raise TypeCheckError(f"{path}:{stmt.line}: {exc}") from None
        status = "EQUAL" if verdict.equal else "UNEQUAL"
        print(f"{path}:{stmt.line}: {status}")
        if not verdict.equal:
            failures += 1
            i, j = verdict.diff_at
            src = interp.interp_object(verdict.source, context)[j]
            tgt = interp.interp_object(verdict.target, context)[i]
            print(f"  first difference at entry ({i},{j}):")
            for side, entry in (("left: ", verdict.left_entry), ("right:", verdict.right_entry)):
                payload = cobsum_json(entry, src, tgt, doc.alphabet)
                print(f"    {side} {json.dumps(payload, sort_keys=True)}")
    return 1 if failures else 0


def run_normalize(path: str, name: str) -> int:
    doc = _load(path)
    term = _named_term(doc, name)
    form = interp.matrix_form(term, doc.alphabet)
    entries = []
    for row in form.entries:
        out_row = []
        for cell in row:
            if len(cell.tgt) == 1 and len(cell.src) == 1:
                out_row.append(cobsum_json(cell.entries[0][0], cell.src[0],
                                           cell.tgt[0], doc.alphabet))
            else:
                out_row.append(None)
        entries.append(out_row)
    payload = {
        "schema": SCHEMA_VERSION,
        "term": name,
        "rows": [sx.print_obj(c) for c in form.row_components],
        "cols": [sx.print_obj(c) for c in form.col_components],
        "entries": entries,
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def run_render(path: str, name: str, fmt: str, output: str | None,
               direction: str) -> int:
    doc = _load(path)
    term = _named_term(doc, name)
    mat = interp.H(term, doc.alphabet)
    if fmt == "svg":
        content = render.to_svg(mat, doc.alphabet, direction)
    elif fmt == "dot":
        content = render.to_dot(mat, doc.alphabet, direction)
    elif fmt == "json":
        payload = {"schema": SCHEMA_VERSION, "term": name}
        payload.update(mc.to_jsonable(mat, doc.alphabet))
        content = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    target = output or f"{name}.{fmt}"
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(content)
    print(target)
    return 0


def run_protocol(name: str, oracle: bool) -> int:
    names = list(protocols.PROTOCOL_NAMES) if name == "all" else [name]
    for n in names:
        if n not in protocols.PROTOCOL_NAMES:
            raise KeyError(f"unknown protocol {n!r}")
    status = 0
    for n in names:
        report = protocols.verify(n)
        verdict = "EQUAL" if report.equal else "UNEQUAL"
        line = f"{n}: {verdict} ({report.elapsed:.3f}s)"
        if report.equal:
            shape = f"{len(report.common.tgt)}x{len(report.common.src)}"
            line += f" common value {shape}"
        else:
            status = 1
            line += f" first difference at {report.diff_at}"
        if oracle:
            ok = agree(*report.legs, 1e-9)
            line += f", oracle {'agrees' if ok else 'DISAGREES'}"
            if not ok:
                status = 1
        print(line)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cobeq",
        description="decide equality of dagger compact closed arrow terms "
                    "in the labeled cobordism matrix model")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate the check statements of a file")
    p_check.add_argument("file")

    p_norm = sub.add_parser("normalize", help="print a named term's matrix form")
    p_norm.add_argument("file")
    p_norm.add_argument("name")

    p_render = sub.add_parser("render", help="draw a named term's canonical matrix")
    p_render.add_argument("file")
    p_render.add_argument("name")
    p_render.add_argument("--format", choices=("svg", "dot", "json"), default="svg")
    p_render.add_argument("--output", "-o", default=None)
    p_render.add_argument("--direction", choices=("tb", "bt"), default="tb")

    p_proto = sub.add_parser("protocol", help="verify a bundled protocol")
    p_proto.add_argument("name", help="teleportation, swap, superdense, or all")
    p_proto.add_argument("--oracle", action="store_true",
                         help="also compare both legs numerically")

    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return run_check(args.file)
        if args.command == "normalize":
            return run_normalize(args.file, args.name)
        if args.command == "render":
            return run_render(args.file, args.name, args.format, args.output,
                              args.direction)
        if args.command == "protocol":
            return run_protocol(args.name, args.oracle)
        raise AssertionError(args.command)
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror}", file=sys.stderr)
        return 2
    except (ParseError, TypeCheckError, KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Status 1 would read as a refutation, so no error may end with it.
        print(": ".join(["error", type(exc).__name__, *str(exc).splitlines()[:1]]),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

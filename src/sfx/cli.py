"""Command-line surface: validate, extend, reduce, extract, tau, corpus.

Exit codes: 0 success, 1 mathematical validation failure, 2 precondition or
usage failure, 3 parse failure.  Set SFX_COLOR=0 to disable ANSI colors;
pass --json for machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import corpus
from .documents import (
    DocumentError, LoadedExtension, algebra_to_document,
    compare_reference_table, extension_to_document, load_algebra_document,
    load_extension_document, loads_json, model_to_document,
    ALGEBRA_SCHEMA, EXTENSION_SCHEMA,
)
from .doubleext import (
    ConditionFailure, DegenerateBaseError, build_model, check_conditions,
    extract_standard, quadruple_from_ideal, tau_equivalence_map, tau_transform,
    TauMap, verify_equivalence,
)
from .expressions import ExpressionError, parse_tau_map
from .reports import Report
from .superlinalg import Subspace

EXIT_OK = 0
EXIT_MATH = 1
EXIT_PRECONDITION = 2
EXIT_PARSE = 3


class _Output:
    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.payload: dict = {}
        self.color = (not as_json and sys.stdout.isatty()
                      and os.environ.get("SFX_COLOR") != "0")

    def text(self, line: str = "") -> None:
        if not self.as_json:
            print(line)

    def report(self, report: Report, key: str = "report") -> None:
        if self.as_json:
            self.payload[key] = report.to_dict()
        else:
            print(report.render(self.color))

    def emit(self, **kv) -> None:
        self.payload.update(kv)

    def finish(self, code: int) -> int:
        if self.as_json:
            self.payload["exit_code"] = code
            self.payload.setdefault("ok", code == 0)
            print(json.dumps(self.payload, indent=2, ensure_ascii=False))
        return code


def _read_doc(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"{path}: {exc}")
    return loads_json(text, path)


def _load_extension(path: str) -> LoadedExtension:
    doc = _read_doc(path)
    return load_extension_document(doc, path, base_dir=Path(path).parent)


def _print_table(out: _Output, model) -> list[dict]:
    rows = []
    for left, right, v in model.bracket_table():
        rows.append({"left": left, "right": right,
                     "value": model.space.format_vector(v)})
    if not out.as_json:
        out.text("bracket table:")
        for r in rows:
            out.text(f"  [{r['left']},{r['right']}] = {r['value']}")
    return rows


def _print_reference(out: _Output, records: list[dict]) -> bool:
    clean = True
    if not out.as_json and records:
        out.text("reference table comparison:")
    for r in records:
        status = r["status"]
        if status != "match":
            clean = False
        if not out.as_json:
            line = f"  {r['bracket']}: {status}"
            if status not in ("match",):
                line += (f" (printed: {r.get('printed')}, "
                         f"computed: {r.get('computed')})")
            out.text(line)
    return clean


def _write_or_show(out: _Output, doc: dict, out_path: str | None, key: str) -> None:
    text = json.dumps(doc, indent=2, ensure_ascii=False)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
        out.text(f"wrote {out_path}")
        out.emit(**{key: doc, "out": out_path})
    else:
        out.emit(**{key: doc})
        if not out.as_json:
            print(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(args, out: _Output) -> int:
    doc = _read_doc(args.file)
    schema = doc.get("schema")
    if schema == EXTENSION_SCHEMA:
        loaded = load_extension_document(doc, args.file,
                                         base_dir=Path(args.file).parent)
        base_report = loaded.data.base.validate()
        out.report(base_report, "base_report")
        cond = check_conditions(loaded.data)
        out.report(cond, "conditions")
        return EXIT_OK if base_report.ok and cond.ok else EXIT_MATH
    if schema != ALGEBRA_SCHEMA:
        raise DocumentError(f"{args.file}: unknown schema {schema!r}")
    loaded = load_algebra_document(doc, args.file)
    if loaded.reordered:
        out.text("note: basis was re-sorted into even-before-odd order")
        out.emit(reordered=True)
    if loaded.form is not None:
        report = loaded.qf.validate()
    else:
        report = loaded.algebra.validate()
    out.report(report)
    return EXIT_OK if report.ok else EXIT_MATH


def cmd_extend(args, out: _Output) -> int:
    loaded = _load_extension(args.file)
    model = build_model(loaded.data)
    out.report(model.conditions, "conditions")
    rows = _print_table(out, model)
    out.emit(table=rows)
    if loaded.reference:
        records = compare_reference_table(model, loaded.reference)
        out.emit(reference=records)
        _print_reference(out, records)
        for note in loaded.reference_notes:
            out.text(f"note: {note}")
    doc = model_to_document(model, name=(loaded.document.get("name") or "") + " (extended)")
    _write_or_show(out, doc, args.out, "document")
    return EXIT_OK


def _load_qf(path: str, out: _Output):
    doc = _read_doc(path)
    loaded = load_algebra_document(doc, path)
    if loaded.form is None:
        raise DocumentError(f"{path}: a form is required for this command")
    report = loaded.qf.validate()
    if not report.ok:
        out.report(report)
        return loaded, False
    return loaded, True


def _ideal_from_labels(space, labels_csv: str) -> Subspace:
    labels = [l.strip() for l in labels_csv.split(",") if l.strip()]
    return Subspace.from_labels(space, labels)


def cmd_reduce(args, out: _Output) -> int:
    loaded, ok = _load_qf(args.file, out)
    if not ok:
        return EXIT_MATH
    qf = loaded.qf
    if args.balanced:
        try:
            ideal = qf.balanced_ideal()
        except ValueError as exc:
            out.text(f"error: {exc}")
            out.emit(error=str(exc))
            return EXIT_PRECONDITION
    else:
        try:
            ideal = _ideal_from_labels(qf.space, args.ideal)
        except KeyError as exc:
            raise DocumentError(f"{args.file}: {exc}")
    try:
        classification = sorted(qf.classify_ideal(ideal))
    except ValueError as exc:
        out.text(f"error: {exc}")
        out.emit(error=str(exc))
        return EXIT_PRECONDITION
    out.text(f"ideal classification: {', '.join(classification)}")
    out.emit(classification=classification)
    try:
        result = qf.reduce(ideal)
    except ValueError as exc:
        out.text(f"error: {exc}")
        out.emit(error=str(exc))
        return EXIT_PRECONDITION
    dims = {
        "ambient": qf.space.dim_pair,
        "ideal": ideal.dim,
        "orthogonal": qf.orthogonal(ideal).dim,
        "reduced": result.reduced.space.dim_pair,
    }
    out.text(f"dimensions: ambient {dims['ambient']}, ideal {dims['ideal']}, "
             f"orthogonal {dims['orthogonal']}, reduced {dims['reduced']}")
    out.emit(dimensions=dims)
    doc = algebra_to_document(result.reduced.algebra, result.reduced.form,
                              name=(loaded.document.get("name") or "") + " (reduced)")
    _write_or_show(out, doc, args.out, "document")
    return EXIT_OK


def cmd_extract(args, out: _Output) -> int:
    loaded, ok = _load_qf(args.file, out)
    if not ok:
        return EXIT_MATH
    qf = loaded.qf
    try:
        ideal = _ideal_from_labels(qf.space, args.ideal)
        quad = quadruple_from_ideal(qf, ideal)
    except KeyError as exc:
        raise DocumentError(f"{args.file}: {exc}")
    except ValueError as exc:
        out.text(f"error: {exc}")
        out.emit(error=str(exc))
        return EXIT_PRECONDITION
    try:
        result = extract_standard(quad)
    except (ValueError, AssertionError) as exc:
        out.text(f"extraction failed: {exc}")
        out.emit(error=str(exc))
        return EXIT_MATH
    out.report(result.report, "verification")
    equiv = result.report.ok
    out.text(f"round-trip: rebuilt standard model is equivalent to the input "
             f"({'yes' if equiv else 'NO'})")
    out.emit(round_trip_equivalent=equiv)
    phi_rows = [[str(x) for x in row] for row in result.phi.rows]
    out.emit(phi=phi_rows)
    if not out.as_json:
        out.text("phi matrix (rows = images of the standard basis):")
        for lab, row in zip(result.model.space.labels, phi_rows):
            out.text(f"  {lab}: [{', '.join(row)}]")
    doc = extension_to_document(
        result.data,
        base_doc=algebra_to_document(result.data.base.algebra,
                                     result.data.base.form, name="extracted base"),
        name=(loaded.document.get("name") or "") + " (extracted)")
    _write_or_show(out, doc, args.out, "document")
    return EXIT_OK if equiv else EXIT_MATH


def cmd_tau(args, out: _Output) -> int:
    loaded = _load_extension(args.file)
    data = loaded.data
    try:
        tau_map = parse_tau_map(args.tau, data.ell, data.base.space)
        tau = TauMap(data.ell, data.base, tau_map)
    except (ExpressionError, KeyError) as exc:
        raise DocumentError(f"--tau: {exc}")
    except ValueError as exc:
        out.text(f"error: {exc}")
        out.emit(error=str(exc))
        return EXIT_PRECONDITION
    transformed = tau_transform(data, tau)
    model2 = build_model(transformed)
    out.report(model2.conditions, "conditions")
    model1 = build_model(data)
    phi = tau_equivalence_map(model1, model2, tau)
    equiv = verify_equivalence(model1, model2, phi)
    out.report(equiv, "equivalence")
    phi_rows = [[str(x) for x in row] for row in phi.rows]
    out.emit(phi=phi_rows)
    if not out.as_json:
        out.text("phi matrix (rows = images of the first model's basis):")
        for lab, row in zip(model1.space.labels, phi_rows):
            out.text(f"  {lab}: [{', '.join(row)}]")
    doc = extension_to_document(
        transformed,
        base_doc=loaded.document.get("base"),
        name=(loaded.document.get("name") or "") + " (tau-transformed)")
    _write_or_show(out, doc, args.out, "document")
    return EXIT_OK if equiv.ok else EXIT_MATH


def cmd_corpus(args, out: _Output) -> int:
    if args.action == "list":
        entries = [{"name": n, "description": corpus.DESCRIPTIONS[n]}
                   for n in corpus.corpus_names()]
        out.emit(corpus=entries)
        for e in entries:
            out.text(f"{e['name']}: {e['description']}")
        return EXIT_OK
    try:
        text = corpus.corpus_text(args.name)
    except KeyError as exc:
        out.text(str(exc))
        out.emit(error=str(exc))
        return EXIT_PRECONDITION
    if out.as_json:
        out.emit(document=json.loads(text))
    else:
        print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON output")

    parser = argparse.ArgumentParser(
        prog="sfx",
        description="Exact-arithmetic toolkit for symplectic double extensions "
                    "of Lie superalgebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="validate an algebra or extension document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("extend", parents=[common],
                       help="build the standard-model double extension")
    p.add_argument("file")
    p.add_argument("--out", help="write the resulting algebra document here")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("reduce", parents=[common],
                       help="symplectic reduction by an isotropic ideal")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ideal", help="comma-separated basis labels")
    group.add_argument("--balanced", action="store_true",
                       help="use the canonical ideal of a degenerate center")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("extract", parents=[common],
                       help="extract standard-model data from an ideal")
    p.add_argument("file")
    p.add_argument("--ideal", required=True, help="comma-separated basis labels")
    p.add_argument("--out")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("tau", parents=[common],
                       help="apply a tau-equivalence to extension data")
    p.add_argument("file")
    p.add_argument("--tau", required=True, help="expression like 'e2(x)L1*'")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("corpus", parents=[common],
                       help="list or show bundled example documents")
    corpus_sub = p.add_subparsers(dest="action", required=True)
    corpus_sub.add_parser("list", parents=[common]).set_defaults(
        func=cmd_corpus, action="list")
    show = corpus_sub.add_parser("show", parents=[common])
    show.add_argument("name")
    show.set_defaults(func=cmd_corpus, action="show")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Output(args.json)
    try:
        code = args.func(args, out)
    except DocumentError as exc:
        out.text(f"parse error: {exc}")
        out.emit(error=str(exc), ok=False)
        return out.finish(EXIT_PARSE)
    except ConditionFailure as exc:
        out.report(exc.report, "conditions")
        out.emit(error=str(exc), ok=False)
        return out.finish(EXIT_MATH)
    except DegenerateBaseError as exc:
        out.text(f"error: {exc}")
        out.emit(error=str(exc), ok=False)
        return out.finish(EXIT_PRECONDITION)
    return out.finish(code)


if __name__ == "__main__":
    sys.exit(main())

"""UTF-8 JSON document formats for algebras and extensions.

Two schemas, both versioned:

``sfx.algebra/1``
    basis declarations (label, parity), bracket relations as
    (left, right, linear-combination) triples, an optional homogeneous form
    (wedge expression or Gram matrix), and free metadata.  Unstated
    brackets default to zero; redundant super-antisymmetric mirrors must be
    consistent.  Basis input in non-canonical order is re-sorted on load
    (even before odd) and the reorder is reported.

``sfx.extension/1``
    a base algebra (inline document or relative path), the l basis, xi
    entries in e(x)e* / ad(e) notation, gamma in L*(x)e*(x)L* notation
    (l-argument, base-argument, value), epsilon as an entry table or a
    V∧(A∧B) wedge expression, the model kind, and an optional reference
    bracket table used by the CLI to flag discrepancies against a published
    presentation (duplicate printed lines are detected, never silently
    matched).

Printing is canonical: loading a dumped document reproduces it exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

from .doubleext import ExtensionData, StandardModel
from .expressions import (
    ExpressionError, format_gamma_tensor, format_endo, parse_combo,
    parse_endo, parse_eps_wedge, parse_gamma_tensor, parse_wedge_form,
)
from .liesuper import LieSuperAlgebra, structure_constants_from_relations
from .superlinalg import (
    EVEN, ODD, SuperSpace, Vector, vec_is_zero, vec_scale,
)
from .symplectic import QuasiFrobenius, SuperForm

__all__ = [
    "DocumentError", "LoadedAlgebra", "LoadedExtension", "ReferenceLine",
    "load_algebra_document", "load_extension_document",
    "algebra_to_document", "model_to_document", "extension_to_document",
    "compare_reference_table", "loads_json",
]

ALGEBRA_SCHEMA = "sfx.algebra/1"
EXTENSION_SCHEMA = "sfx.extension/1"


class DocumentError(ValueError):
    """Malformed document: schema, syntax, or declaration errors."""


def loads_json(text: str, where: str = "<string>") -> dict:
    if not text.strip():
        raise DocumentError(f"{where}: empty document")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"{where}: JSON syntax error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: document must be a JSON object")
    return doc


def _parse_basis(doc: dict, key: str, where: str) -> tuple[SuperSpace, bool]:
    entries = doc.get(key)
    if not isinstance(entries, list):
        raise DocumentError(f"{where}: missing {key!r} list")
    labels, parities = [], []
    for e in entries:
        try:
            labels.append(str(e["label"]))
            p = e["parity"]
        except (TypeError, KeyError):
            raise DocumentError(f"{where}: each {key} entry needs label and parity")
        if p in (0, "0", "even"):
            parities.append(EVEN)
        elif p in (1, "1", "odd"):
            parities.append(ODD)
        else:
            raise DocumentError(f"{where}: bad parity {p!r}")
    if len(set(labels)) != len(labels):
        raise DocumentError(f"{where}: duplicate basis labels")
    space, _, changed = SuperSpace.sorted_from(labels, parities)
    return space, changed


def _wrap_expr(fn, where):
    def run(*args):
        try:
            return fn(*args)
        except ExpressionError as exc:
            raise DocumentError(f"{where}: {exc}") from None
        except KeyError as exc:
            raise DocumentError(f"{where}: unknown label {exc}") from None
    return run


@dataclass
class LoadedAlgebra:
    algebra: LieSuperAlgebra
    form: SuperForm | None
    document: dict
    reordered: bool

    @property
    def qf(self) -> QuasiFrobenius:
        if self.form is None:
            raise DocumentError("document carries no form")
        return QuasiFrobenius(self.algebra, self.form)


def load_algebra_document(doc: dict, where: str = "<algebra>") -> LoadedAlgebra:
    if doc.get("schema") != ALGEBRA_SCHEMA:
        raise DocumentError(f"{where}: expected schema {ALGEBRA_SCHEMA!r}")
    space, reordered = _parse_basis(doc, "basis", where)
    combo = _wrap_expr(parse_combo, where)

    relations: dict[tuple[int, int], Vector] = {}
    for entry in doc.get("brackets", []):
        try:
            left, right = str(entry["left"]), str(entry["right"])
            value = str(entry["value"])
        except (TypeError, KeyError):
            raise DocumentError(f"{where}: bracket entries need left/right/value")
        try:
            i, j = space.index(left), space.index(right)
        except KeyError:
            raise DocumentError(f"{where}: bracket references undeclared label "
                                f"({left!r}, {right!r})")
        v = combo(value, space)
        if (i, j) in relations and relations[(i, j)] != v:
            raise DocumentError(f"{where}: conflicting values for [{left},{right}]")
        relations[(i, j)] = v
    # redundant mirrors must be consistent
    for (i, j), v in relations.items():
        if (j, i) in relations:
            s = -1 if (space.parities[i] * space.parities[j]) % 2 else 1
            if relations[(j, i)] != vec_scale(Fraction(-s), v):
                raise DocumentError(
                    f"{where}: [{space.labels[j]},{space.labels[i]}] inconsistent "
                    f"with its super-antisymmetric mirror")

    algebra = LieSuperAlgebra(space, structure_constants_from_relations(space, relations))

    form = None
    fdoc = doc.get("form")
    if fdoc is not None:
        parity = {"even": EVEN, "odd": ODD}.get(fdoc.get("parity"))
        if parity is None:
            raise DocumentError(f"{where}: form parity must be 'even' or 'odd'")
        if "wedge" in fdoc:
            gram = _wrap_expr(parse_wedge_form, where)(str(fdoc["wedge"]), space)
        elif "gram" in fdoc:
            raw = fdoc["gram"]
            try:
                gram = tuple(tuple(Fraction(str(x)) for x in row) for row in raw)
            except (ValueError, TypeError, ZeroDivisionError):
                raise DocumentError(f"{where}: bad Gram matrix entries")
        else:
            raise DocumentError(f"{where}: form needs 'wedge' or 'gram'")
        try:
            form = SuperForm(space, gram, parity)
        except ValueError as exc:
            raise DocumentError(f"{where}: {exc}") from None

    return LoadedAlgebra(algebra, form, algebra_to_document(
        algebra, form, name=doc.get("name"), metadata=doc.get("metadata")),
        reordered)


def algebra_to_document(algebra: LieSuperAlgebra, form: SuperForm | None = None,
                        name: str | None = None,
                        metadata: dict | None = None) -> dict:
    """Canonical document for an algebra (zero brackets omitted, pairs in
    lexicographic basis order, one representative per unordered pair)."""
    space = algebra.space
    doc: dict[str, Any] = {"schema": ALGEBRA_SCHEMA}
    if name:
        doc["name"] = name
    doc["basis"] = [{"label": l, "parity": p}
                    for l, p in zip(space.labels, space.parities)]
    brackets = []
    for i in range(space.dim):
        for j in range(i, space.dim):
            v = algebra.c[i][j]
            if not vec_is_zero(v):
                brackets.append({"left": space.labels[i], "right": space.labels[j],
                                 "value": space.format_vector(v)})
    doc["brackets"] = brackets
    if form is not None:
        doc["form"] = {
            "parity": "even" if form.parity == EVEN else "odd",
            "gram": [[str(x) for x in row] for row in form.gram],
        }
    if metadata:
        doc["metadata"] = metadata
    return doc


# ---------------------------------------------------------------------------
# extension documents
# ---------------------------------------------------------------------------

@dataclass
class ReferenceLine:
    left: str
    right: str
    value: str


@dataclass
class LoadedExtension:
    data: ExtensionData
    model_kind: str
    document: dict
    base_loaded: LoadedAlgebra
    reference: list[ReferenceLine] = field(default_factory=list)
    reference_notes: list[str] = field(default_factory=list)


def load_extension_document(doc: dict, where: str = "<extension>",
                            base_dir: Path | None = None) -> LoadedExtension:
    if doc.get("schema") != EXTENSION_SCHEMA:
        raise DocumentError(f"{where}: expected schema {EXTENSION_SCHEMA!r}")

    base_ref = doc.get("base")
    if isinstance(base_ref, str):
        path = Path(base_ref)
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise DocumentError(f"{where}: cannot read base algebra: {exc}")
        base_loaded = load_algebra_document(loads_json(text, str(path)), str(path))
    elif isinstance(base_ref, dict):
        base_loaded = load_algebra_document(base_ref, f"{where}.base")
    else:
        raise DocumentError(f"{where}: 'base' must be a path or an inline document")
    if base_loaded.form is None:
        raise DocumentError(f"{where}: base algebra must carry a form")
    base = base_loaded.qf

    ell, _ = _parse_basis(doc, "ell_basis", where)
    kind = doc.get("model")
    expected = "orthosymplectic" if base.form.parity == EVEN else "periplectic"
    if kind not in ("orthosymplectic", "periplectic"):
        raise DocumentError(f"{where}: model must be orthosymplectic or periplectic")
    if kind != expected:
        raise DocumentError(f"{where}: model {kind!r} does not match the base "
                            f"form parity (expected {expected!r})")

    xi_doc = doc.get("xi", {})
    if not isinstance(xi_doc, dict):
        raise DocumentError(f"{where}: 'xi' must map l labels to endomorphisms")
    endo = _wrap_expr(parse_endo, where)
    xi = []
    for lab in ell.labels:
        xi.append(endo(str(xi_doc.get(lab, "0")), base.algebra))

    gamma_doc = doc.get("gamma", "0")
    if isinstance(gamma_doc, str):
        gamma = _wrap_expr(parse_gamma_tensor, where)(gamma_doc, ell, base.space)
    else:
        raise DocumentError(f"{where}: 'gamma' must be a tensor expression string")

    eps_doc = doc.get("epsilon", {})
    if isinstance(eps_doc, str):
        eps = _wrap_expr(parse_eps_wedge, where)(eps_doc, ell)
    elif isinstance(eps_doc, dict):
        eps = _parse_eps_entries(eps_doc, ell, where)
    else:
        raise DocumentError(f"{where}: 'epsilon' must be a string or entry table")

    data = ExtensionData(base, ell, tuple(xi), gamma, eps)
    shapes = data.validate_shapes()
    if not shapes.ok:
        raise DocumentError(f"{where}: illegal extension data:\n{shapes.render()}")

    reference = []
    notes = []
    ref = doc.get("reference")
    if isinstance(ref, dict):
        for entry in ref.get("table", []):
            try:
                reference.append(ReferenceLine(str(entry["left"]), str(entry["right"]),
                                               str(entry["value"])))
            except (TypeError, KeyError):
                raise DocumentError(f"{where}: reference entries need left/right/value")
        notes = [str(x) for x in ref.get("notes", [])]

    normalized = extension_to_document(
        data, base_doc=doc.get("base") if isinstance(doc.get("base"), str)
        else base_loaded.document,
        name=doc.get("name"), reference=reference, reference_notes=notes,
        metadata=doc.get("metadata"))
    return LoadedExtension(data, kind, normalized, base_loaded, reference, notes)


def _parse_eps_entries(entries: dict, ell: SuperSpace, where: str):
    m = ell.dim
    dual = SuperSpace(tuple(f"{l}*" for l in ell.labels), ell.parities)
    combo = _wrap_expr(parse_combo, where)
    given: dict[tuple[int, int], Vector] = {}
    for key, value in entries.items():
        parts = [p.strip() for p in str(key).split(",")]
        if len(parts) != 2:
            raise DocumentError(f"{where}: epsilon keys look like 'L1,L2'")
        try:
            i, j = ell.index(parts[0]), ell.index(parts[1])
        except KeyError:
            raise DocumentError(f"{where}: epsilon references undeclared label {key!r}")
        given[(i, j)] = combo(str(value), dual)
    eps = []
    for i in range(m):
        row = []
        for j in range(m):
            if (i, j) in given:
                row.append(given[(i, j)])
            elif (j, i) in given:
                s = -1 if (ell.parities[i] * ell.parities[j]) % 2 else 1
                row.append(vec_scale(Fraction(-s), given[(j, i)]))
            else:
                row.append(tuple([Fraction(0)] * m))
        eps.append(tuple(row))
    return tuple(eps)


def extension_to_document(data: ExtensionData, base_doc,
                          name: str | None = None,
                          reference: list[ReferenceLine] | None = None,
                          reference_notes: list[str] | None = None,
                          metadata: dict | None = None) -> dict:
    ell = data.ell
    dual = SuperSpace(tuple(f"{l}*" for l in ell.labels), ell.parities)
    doc: dict[str, Any] = {"schema": EXTENSION_SCHEMA}
    if name:
        doc["name"] = name
    doc["base"] = base_doc
    doc["model"] = data.model_kind
    doc["ell_basis"] = [{"label": l, "parity": p}
                        for l, p in zip(ell.labels, ell.parities)]
    doc["xi"] = {ell.labels[i]: format_endo(data.xi[i]) for i in range(ell.dim)}
    doc["gamma"] = format_gamma_tensor(data.gamma, ell, data.base.space)
    eps_entries = {}
    for i in range(ell.dim):
        for j in range(i, ell.dim):
            if not vec_is_zero(data.eps[i][j]):
                eps_entries[f"{ell.labels[i]},{ell.labels[j]}"] = \
                    dual.format_vector(data.eps[i][j])
    doc["epsilon"] = eps_entries
    if reference:
        doc["reference"] = {"table": [{"left": r.left, "right": r.right,
                                       "value": r.value} for r in reference]}
        if reference_notes:
            doc["reference"]["notes"] = list(reference_notes)
    if metadata:
        doc["metadata"] = metadata
    return doc


def model_to_document(model: StandardModel, name: str | None = None) -> dict:
    meta = {"blocks": {"dual": list(model.z_labels),
                       "base": list(model.a_labels),
                       "ext": list(model.l_labels)}}
    return algebra_to_document(model.qf.algebra, model.qf.form,
                               name=name, metadata=meta)


# ---------------------------------------------------------------------------
# reference-table comparison
# ---------------------------------------------------------------------------

def compare_reference_table(model: StandardModel,
                            reference: list[ReferenceLine]) -> list[dict]:
    """Line-by-line comparison of the built table against a printed one.

    Returns one record per reference line plus one per computed nonzero
    bracket missing from the reference.  Duplicate printed assignments to
    one bracket are flagged, never silently matched.
    """
    space = model.space
    order = list(model.a_labels) + list(model.l_labels)

    def normalize(left: str, right: str, value: Vector) -> tuple[str, str, Vector]:
        if left in order and right in order and order.index(left) > order.index(right):
            s = -1 if (space.parity_of(left) * space.parity_of(right)) % 2 else 1
            return right, left, vec_scale(Fraction(-s), value)
        return left, right, value

    computed: dict[tuple[str, str], Vector] = {}
    for left, right, v in model.bracket_table():
        computed[(left, right)] = v

    seen: dict[tuple[str, str], int] = {}
    for line in reference:
        pair = normalize(line.left, line.right, ())[:2]
        seen[pair] = seen.get(pair, 0) + 1

    records = []
    matched_pairs = set()
    for line in reference:
        try:
            value = parse_combo(line.value, space)
        except (ExpressionError, KeyError) as exc:
            records.append({"bracket": f"[{line.left},{line.right}]",
                            "printed": line.value, "status": "unparseable",
                            "detail": str(exc)})
            continue
        left, right, value = normalize(line.left, line.right, value)
        pair = (left, right)
        comp = computed.get(pair, parse_combo("0", space))
        matched_pairs.add(pair)
        record = {
            "bracket": f"[{left},{right}]",
            "printed": space.format_vector(value),
            "computed": space.format_vector(comp),
        }
        if seen[pair] > 1:
            record["status"] = "duplicate-printed-line" + \
                (":match" if comp == value else ":mismatch")
        else:
            record["status"] = "match" if comp == value else "mismatch"
        records.append(record)

    for pair, v in computed.items():
        if pair not in matched_pairs:
            records.append({"bracket": f"[{pair[0]},{pair[1]}]",
                            "printed": "(absent)",
                            "computed": space.format_vector(v),
                            "status": "unlisted"})
    return records

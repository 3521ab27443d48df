"""Spans around sfx's public functions, installed from outside the package.

The benchmark wraps module functions (and every name a ``from ... import``
re-bound to them in another sfx module) and class methods.  A span records
(group, start, end, parent span, op id); spans stay in memory until the
run ends.  Hot helpers get count-only wrappers, because a span on each of
their millions of calls would swamp what it measures.

Nothing under ``src/`` knows about this module.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# group -> (module, qualified name) of each function whose calls form the span group
SPANS = {
    "documents.load": [("documents", "loads_json"),
                       ("documents", "load_algebra_document"),
                       ("documents", "load_extension_document")],
    "documents.dump": [("documents", "algebra_to_document"),
                       ("documents", "extension_to_document"),
                       ("documents", "model_to_document")],
    "documents.compare_reference_table": [("documents", "compare_reference_table")],
    "expressions": [("expressions", n) for n in (
        "parse_combo", "parse_wedge_form", "parse_endo", "parse_gamma_tensor",
        "parse_tau_map", "parse_eps_wedge", "format_gamma_tensor", "format_endo",
        "format_tau_map")],
    "doubleext.check_conditions": [("doubleext", "check_conditions")],
    "doubleext.derive": [("doubleext", "derive_beta"), ("doubleext", "derive_alpha")],
    "doubleext.build_model": [("doubleext", "build_model")],
    "doubleext.extract_standard": [("doubleext", "extract_standard")],
    "doubleext.ExtensionQuadruple.validate": [("doubleext", "ExtensionQuadruple.validate")],
    "doubleext.quadruple_from_ideal": [("doubleext", "quadruple_from_ideal")],
    "doubleext.tau_transform": [("doubleext", "tau_transform")],
    "doubleext.tau_equivalence_map": [("doubleext", "tau_equivalence_map")],
    "doubleext.verify_equivalence": [("doubleext", "verify_equivalence")],
    "doubleext.StandardModel.bracket_table": [("doubleext", "StandardModel.bracket_table")],
    "cohomology.commutator_pairing": [("cohomology", "commutator_pairing")],
    "cohomology.ev_pairing": [("cohomology", "ev_pairing")],
    "cohomology.wedge": [("cohomology", "wedge")],
    "cohomology.d_ce": [("cohomology", "d_ce")],
    "cohomology.d_xi": [("cohomology", "d_xi")],
    "liesuper.LieSuperAlgebra.validate": [("liesuper", "LieSuperAlgebra.validate")],
    "liesuper.LieSuperAlgebra.is_derivation": [("liesuper", "LieSuperAlgebra.is_derivation")],
    "liesuper.LieSuperAlgebra.center": [("liesuper", "LieSuperAlgebra.center")],
    "liesuper.LieSuperAlgebra.is_homogeneous_ideal": [
        ("liesuper", "LieSuperAlgebra.is_homogeneous_ideal")],
    "liesuper.LieSuperAlgebra.quotient": [("liesuper", "LieSuperAlgebra.quotient")],
    "symplectic.QuasiFrobenius.validate": [("symplectic", "QuasiFrobenius.validate")],
    "symplectic.QuasiFrobenius.is_closed": [("symplectic", "QuasiFrobenius.is_closed")],
    "symplectic.QuasiFrobenius.orthogonal": [("symplectic", "QuasiFrobenius.orthogonal")],
    "symplectic.QuasiFrobenius.classify_ideal": [("symplectic", "QuasiFrobenius.classify_ideal")],
    "symplectic.QuasiFrobenius.reduce": [("symplectic", "QuasiFrobenius.reduce")],
    "symplectic.QuasiFrobenius.balanced_ideal": [("symplectic", "QuasiFrobenius.balanced_ideal")],
    "superlinalg.rref": [("superlinalg", "rref")],
    "superlinalg.solve_linear": [("superlinalg", "solve_linear")],
}

COUNTS = {
    "superlinalg.vec_is_zero": ("superlinalg", "vec_is_zero"),
    "superlinalg.GradedLinearMap.then": ("superlinalg", "GradedLinearMap.then"),
    "liesuper.LieSuperAlgebra.bracket": ("liesuper", "LieSuperAlgebra.bracket"),
    "symplectic.SuperForm.value": ("symplectic", "SuperForm.value"),
    "symplectic.SuperForm.is_nondegenerate": ("symplectic", "SuperForm.is_nondegenerate"),
    "cohomology.EquivariantPairing.value": ("cohomology", "EquivariantPairing.value"),
}


def _cells_rref(args, kwargs):
    rows = [list(r) for r in args[0]]
    return (rows,) + args[1:], len(rows) * len(rows[0]) if rows else 0


def _cells_commutator(args, kwargs):
    return args, args[0].space.dim ** 2


# groups whose size is recorded as a cell count; the hook may also
# materialize an iterable argument it needs to measure
CELLS = {"superlinalg.rref": _cells_rref,
         "cohomology.commutator_pairing": _cells_commutator}


class Tracer:
    """Span and count recorder for one process; install() patches sfx."""

    def __init__(self):
        self.spans: list[tuple | None] = []   # (group, start, end, parent, op)
        self.counts: Counter = Counter()      # group -> calls, incl. span groups
        self.cells: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, group: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        cells_hook = CELLS.get(group)
        cells = self.cells

        def wrapper(*args, **kwargs):
            if cells_hook is not None:
                args, size = cells_hook(args, kwargs)
                cells[group] += size
            counts[group] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (group, start, end, parent, self.op)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, group: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[group] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        plan = [(group, mod, qual, self._span)
                for group, targets in SPANS.items() for mod, qual in targets]
        plan += [(group, mod, qual, self._count) for group, (mod, qual) in COUNTS.items()]
        modules = [m for name, m in sys.modules.items()
                   if name == "sfx" or name.startswith("sfx.")]
        for group, mod, qual, make in plan:
            module = sys.modules[f"sfx.{mod}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, make(group, original))
                continue
            original = getattr(module, qual)
            wrapper = make(group, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, name, wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patched):
            setattr(owner, name, value)
        self._patched.clear()

    # -- reading ----------------------------------------------------------

    def self_times(self) -> tuple[Counter, dict[int, float]]:
        """Self seconds per group, and top-level span seconds per op."""
        child = [0.0] * len(self.spans)
        top: Counter = Counter()
        for group, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top[op] += end - start
        selfs: Counter = Counter()
        for idx, (group, start, end, _, _) in enumerate(self.spans):
            selfs[group] += end - start - child[idx]
        return selfs, top

    def dump(self, path) -> None:
        """Write every span, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for group, start, end, parent, op in self.spans:
                fh.write(json.dumps([group, round(start, 7), round(end, 7), parent, op]))
                fh.write("\n")

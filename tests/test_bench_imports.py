"""Every sfx name the benchmark binds still resolves.

``bench/tracing.py`` wraps each (module, qualified name) of ``SPANS`` and
``COUNTS``, ``bench/run.py`` reads ``cache_info()`` of both derive
functions in every run, and ``bench/generate.py`` imports from
``sfx.doubleext`` and ``sfx.expressions``.  If one of these goes missing,
every benchmark run fails; this test fails first.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_bench(name: str):
    key = f"_bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, ROOT / "bench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


def _targets():
    tracing = _load_bench("tracing")
    spans = [(group, mod, qual) for group, targets in tracing.SPANS.items()
             for mod, qual in targets]
    counts = [(group, mod, qual) for group, (mod, qual) in tracing.COUNTS.items()]
    return spans + counts


@pytest.mark.parametrize("group,mod,qual", _targets())
def test_traced_name_resolves(group, mod, qual):
    module = importlib.import_module(f"sfx.{mod}")
    if "." in qual:
        cls_name, attr = qual.split(".")
        # tracing patches the class's own attribute, not an inherited one
        assert callable(getattr(module, cls_name).__dict__[attr])
    else:
        assert callable(getattr(module, qual))


def test_cell_hooks_name_span_groups():
    tracing = _load_bench("tracing")
    assert set(tracing.CELLS) <= set(tracing.SPANS)
    assert "cohomology.commutator_pairing" in tracing.CELLS


def test_derive_caches_report_their_state():
    from sfx import doubleext
    for fn in (doubleext.derive_beta, doubleext.derive_alpha):
        info = fn.cache_info()
        assert info.hits >= 0 and info.misses >= 0


def test_generator_imports_and_serves_every_workload():
    from sfx.expressions import format_tau_map
    generate = _load_bench("generate")
    assert generate.format_tau_map is format_tau_map
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert {w["name"] for w in workloads} <= set(generate.WORKLOADS)

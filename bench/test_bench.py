"""Self-tests of the benchmark: python3 -m pytest bench -q

They check the generator and the harness, not sfx itself: the same seed
writes byte-identical documents, generated level-1 data passes the seven
conditions, perturbed models fail validation, tower rounds run extend
before the ops that read its output, the stopwatch samples the machine
during a call and leaves its samples out of the call's time, and
BENCHMARK.json lists exactly the metrics run.py prints.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import generate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from sfx import cli  # noqa: E402
from sfx.documents import algebra_to_document  # noqa: E402
from sfx.doubleext import build_model, check_conditions  # noqa: E402


def _files(work: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("make", [
    generate.CorpusInputs,
    lambda work, seed: generate.TowerInputs(work, seed, count=2),
    lambda work, seed: generate.ChainInputs(work, seed, count=1),
])
def test_same_seed_writes_identical_documents(tmp_path, make):
    runs = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / name).mkdir()
        make(tmp_path / name, seed)
        runs.append(_files(tmp_path / name))
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]


def test_level_one_towers_pass_the_conditions():
    base = build_model(generate.load_corpus(generate.TOWER_BASE).data)
    rng = random.Random(3)
    for _ in range(2):
        data = generate.level_up(base.qf, "M", rng)
        assert check_conditions(data).ok


def test_perturbed_models_fail_validate(tmp_path):
    rng = random.Random(5)
    base = build_model(generate.load_corpus("c112a").data)
    tower = build_model(generate.level_up(base.qf, "M", rng), force=True)
    for k, model in enumerate((base, tower)):
        for t in range(3):
            algebra = generate.perturb(model.qf, rng)
            path = generate.write(tmp_path / f"p{k}{t}.json",
                                  algebra_to_document(algebra, model.qf.form))
            assert cli.main(["validate", str(path), "--json"]) == 1


def test_tower_rounds_read_extend_output_after_extend(tmp_path):
    ops = generate.TowerInputs(tmp_path, 1, count=1).round(0)
    assert [op.slot for op in ops] == list(range(len(ops)))
    long_ops = ("validate", "extend", "extract", "tau")
    assert [op.command for op in ops if op.command in long_ops] == list(long_ops)
    written = next(i for i, op in enumerate(ops) if op.command == "extend")
    readers = [i for i, op in enumerate(ops) if ops[written].out in op.inputs]
    assert len(readers) == 3 and min(readers) > written
    # the short commands are dealt out between the long ops, not all after tau
    tau = next(i for i, op in enumerate(ops) if op.command == "tau")
    assert {"reject", "reduce", "balanced"} <= {op.command for op in ops[:tau]}


def test_stopwatch_samples_during_the_call_and_leaves_its_units_out():
    before = signal.getsignal(signal.SIGALRM)
    seconds, units = run.Stopwatch().time(lambda: time.sleep(0.3))
    assert 0.25 < seconds < 0.6
    assert len(units) > run.CAL_UNITS + 5      # sampled while it slept
    assert signal.getsignal(signal.SIGALRM) is before


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(generate.WORKLOADS)
    assert set(run.SELF_MS) == set(tracing.SPANS)


@pytest.mark.parametrize("trace", [0, 1])
def test_one_round_prints_every_metric(capsys, trace):
    assert run.main(["--workload", "corpus-cli", "--seed", "1",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] == 28 * (1 + trace)   # a traced run adds a traced round
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(names)

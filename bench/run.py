#!/usr/bin/env python3
"""Benchmark every sfx CLI command end to end, and each module in a traced run.

    python3 bench/run.py --workload corpus-cli --seed 1 --seconds 20 --trace 0

One client in one process runs a closed loop: each op calls
``sfx.cli.main(argv)`` on a generated document, waits for it, and checks
its output.  Ops come in rounds, and every round of a workload runs the
same mix of commands.  A run measures whole rounds until the ops have
taken ``--seconds``, and at least one.  Every time is scaled to
a reference machine speed, measured with a calibration loop before and
during each op (``Stopwatch``), and timing metrics use each op slot's
mean over the rounds (``slot_means``).

``--trace 0`` times the ops with nothing wrapped and prints the end-to-end
metrics.  ``--trace 1`` first runs untraced rounds for half the time,
then installs the span wrappers of ``tracing.py`` and runs fresh rounds
for the other half (at least one round each).  It prints the per-layer metrics, per round, and
writes the spans to ``.bench_out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3      # set-ups in a --trace 0 run; setup_s is their median
CAL_UNITS = 8          # calibration units timed before every op (see Stopwatch)
SAMPLE_EVERY_S = 0.02  # and one every this often while it runs
CAL_REFERENCE_S = 4e-4  # a calibration unit's time at the reference speed

EXPECTED_EXIT = {
    "validate": (0,), "reject": (1,), "extend": (0,), "extract": (0,),
    "tau": (0,), "reduce": (0,), "balanced": (0,), "malformed": (2, 3),
}
COMMANDS = ("validate", "reject", "extend", "extract", "tau", "reduce", "balanced")

END_TO_END = {
    "setup_s": "s",
    "validate_ms": "ms",
    "reject_ms": "ms",
    "reduce_ms": "ms",
    "balanced_ms": "ms",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# span groups reported by self time; every group of tracing.SPANS is one
SELF_MS = (
    "documents.load", "documents.dump", "documents.compare_reference_table",
    "expressions",
    "doubleext.check_conditions", "doubleext.derive", "doubleext.build_model",
    "doubleext.extract_standard", "doubleext.ExtensionQuadruple.validate",
    "doubleext.quadruple_from_ideal", "doubleext.tau_transform",
    "doubleext.tau_equivalence_map", "doubleext.verify_equivalence",
    "doubleext.StandardModel.bracket_table",
    "cohomology.commutator_pairing", "cohomology.ev_pairing", "cohomology.wedge",
    "cohomology.d_ce", "cohomology.d_xi",
    "liesuper.LieSuperAlgebra.validate", "liesuper.LieSuperAlgebra.is_derivation",
    "liesuper.LieSuperAlgebra.center", "liesuper.LieSuperAlgebra.is_homogeneous_ideal",
    "liesuper.LieSuperAlgebra.quotient",
    "symplectic.QuasiFrobenius.validate", "symplectic.QuasiFrobenius.is_closed",
    "symplectic.QuasiFrobenius.orthogonal", "symplectic.QuasiFrobenius.classify_ideal",
    "symplectic.QuasiFrobenius.reduce", "symplectic.QuasiFrobenius.balanced_ideal",
    "superlinalg.rref", "superlinalg.solve_linear",
)
CALLS = (
    "doubleext.check_conditions", "doubleext.derive",
    "cohomology.EquivariantPairing.value", "liesuper.LieSuperAlgebra.bracket",
    "symplectic.SuperForm.value", "symplectic.SuperForm.is_nondegenerate",
    "symplectic.QuasiFrobenius.orthogonal", "superlinalg.rref",
    "superlinalg.solve_linear", "superlinalg.vec_is_zero",
    "superlinalg.GradedLinearMap.then",
)
CELLS = ("cohomology.commutator_pairing", "superlinalg.rref")

PER_LAYER = {"cli.self_ms": "ms"}
PER_LAYER.update({f"{g}.self_ms": "ms" for g in SELF_MS})
PER_LAYER.update({f"{g}.calls": "count" for g in CALLS})
PER_LAYER.update({f"{g}.cells": "count" for g in CELLS})
PER_LAYER.update({
    "doubleext.derive.cache_hit_ratio": "ratio",
    "documents.out_bytes": "B",
    "extend_ms": "ms",
    "extract_ms": "ms",
    "tau_ms": "ms",
    "op_fail_ratio": "ratio",
    "input_repeat_share": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "src_lines": "count",
    "host.load": "ratio",
})


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_program():
    """Import sfx and the generator afresh from this checkout's sources."""
    for name in [n for n in sys.modules
                 if n in ("sfx", "generate") or n.startswith("sfx.")]:
        del sys.modules[name]
    try:
        import sfx.cli
        import generate
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import sfx from {SRC}: {exc}")
    if SRC.resolve() not in Path(sfx.__file__).resolve().parents:
        raise SystemExit(f"bench: imported sfx from {sfx.__file__}, not {SRC}")
    return sfx.cli, generate


def setup(workload: str, seed: int, repeats: int, watch: Stopwatch):
    """Import, generate and write the inputs ``repeats`` times; keep the last.

    Generation runs sfx (tau_transform, build_model), which fills the
    module-level caches of the copy it imported.  The ops must not start
    with caches a user's fresh process would not have, so sfx is imported
    once more, afresh, for them.  Returns the set-up times, raw and at
    the reference speed (see ``Stopwatch``), and the last set-up.
    """
    times, adjusted, work = [], [], None

    def once():
        nonlocal cli, gen, inputs, work
        _, gen = import_program()
        work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        inputs = gen.WORKLOADS[workload](work, seed)
        cli, _ = import_program()

    cli = gen = inputs = None
    for _ in range(repeats):
        if work is not None:
            shutil.rmtree(work)
        seconds, units = watch.time(once)
        times.append(seconds)
        adjusted.append(seconds * CAL_REFERENCE_S / statistics.fmean(units))
    return times, adjusted, cli, gen, inputs, work


def src_lines() -> int:
    """Non-blank, non-comment lines of the package sources."""
    return sum(1 for path in (SRC / "sfx").rglob("*.py")
               for line in path.read_text(encoding="utf-8").splitlines()
               if line.strip() and not line.strip().startswith("#"))


# ---------------------------------------------------------------------------
# ops and their checks
# ---------------------------------------------------------------------------

class Result:
    __slots__ = ("command", "slot", "seconds", "failure", "code", "stdout", "out_text",
                 "repeated", "argv", "op_id", "derive_hits", "derive_calls", "calibration",
                 "adjusted")


def calibration_unit() -> float:
    """Seconds taken by one fixed piece of exact arithmetic, like sfx's own."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 80):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(2, 3)
    return perf_counter() - start


class Stopwatch:
    """Times a call, and how fast the machine ran while it did.

    On a shared host other tenants' load changes how fast this process
    runs, by tens of per cent from one second or minute to the next, and
    every op slows down with it.  So a calibration unit, a fixed piece of
    exact arithmetic that uses no sfx code, is timed CAL_UNITS times
    before the call and every SAMPLE_EVERY_S during it (from a SIGALRM
    handler, between two bytecodes of the call).  ``time`` returns the
    call's time without the units run inside it, and all unit times.
    An op's time at the reference speed, at which a unit takes
    CAL_REFERENCE_S, is its time scaled by CAL_REFERENCE_S over the mean
    unit time.  A change to sfx moves the op's time and not the units,
    so it shows in full.
    """

    def __init__(self):
        self._inside: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        self._inside.append((perf_counter(), calibration_unit()))

    def time(self, call, sample: bool = True) -> tuple[float, list[float]]:
        units = [calibration_unit() for _ in range(CAL_UNITS)]
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        if sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = perf_counter()
        try:
            call()
        finally:
            end = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = sum(t for at, t in self._inside if start <= at < end)
        return end - start - inside, units + [t for _, t in self._inside]


def adjust(results: list[Result]) -> float:
    """Set each op's ``adjusted`` time, at the reference speed (``Stopwatch``).

    Returns the load over ``results``: their mean unit time over
    CAL_REFERENCE_S.
    """
    for r in results:
        r.adjusted = r.seconds * CAL_REFERENCE_S / statistics.fmean(r.calibration)
    return statistics.fmean(t for r in results for t in r.calibration) / CAL_REFERENCE_S


def check(op, code, error, text, out_text, reduced_view) -> str | None:
    """None when the op's output is right, else why not."""
    if error is not None:
        return f"exception {error}"
    want = EXPECTED_EXIT[op.command]
    if code not in want:
        return f"exit code {code}, expected {' or '.join(map(str, want))}"
    try:
        payload = json.loads(text)
    except ValueError:
        return "--json output does not parse"
    try:
        if op.command == "validate" and payload["ok"] is not True:
            return "valid input reported not ok"
        if op.command == "reject":
            if sum(len(c["witnesses"]) for c in payload["report"]["checks"]) < 1:
                return "rejected without a witness"
        if op.command == "extend" and out_text != op.expect["out_text"]:
            return "--out document differs from the standard model"
        if op.command == "extract" and payload["round_trip_equivalent"] is not True:
            return "round trip not equivalent"
        if op.command == "tau" and payload["equivalence"]["ok"] is not True:
            return "tau equivalence not verified"
        if op.command == "reduce" and reduced_view(payload["document"]) != op.expect["reduced"]:
            return "reduction by the dual block is not the base algebra"
        if op.command == "balanced":
            dims = payload["dimensions"]
            ideal = dims["ideal"]
            if not (ideal >= 1 and "isotropic" in payload["classification"]
                    and sum(dims["reduced"]) == sum(dims["ambient"]) - 2 * ideal):
                return "balanced reduction has inconsistent dimensions"
    except (KeyError, TypeError) as exc:
        return f"output lacks {exc}"
    return None


class Runner:
    """Runs ops in this process; one client, closed loop."""

    def __init__(self, cli, gen, work: Path, watch: Stopwatch, sample: bool):
        self.cli, self.gen, self.work, self.watch = cli, gen, work, watch
        self.sample = sample
        doubleext = sys.modules["sfx.doubleext"]
        self.derive = (doubleext.derive_beta, doubleext.derive_alpha)
        self.seen: set[str] = set()
        self.ops = 0

    def _derive_state(self) -> tuple[int, int]:
        infos = [f.cache_info() for f in self.derive]
        return sum(i.hits for i in infos), sum(i.hits + i.misses for i in infos)

    def _input_key(self, op) -> str:
        h = hashlib.sha256()
        argv = [a for a in op.argv if op.out is None or a != str(op.out)]
        h.update(json.dumps(argv).encode())
        for path in op.inputs:
            h.update(path.read_bytes())
        return h.hexdigest()

    def run_op(self, op, tracer=None) -> Result:
        res = Result()
        res.command, res.slot, res.argv, res.op_id = op.command, op.slot, op.argv, self.ops
        self.ops += 1
        key = self._input_key(op)
        res.repeated = key in self.seen
        self.seen.add(key)
        if op.out is not None:
            op.out.unlink(missing_ok=True)
        hits0, calls0 = self._derive_state()
        gc.collect()
        stdout, stderr = io.StringIO(), io.StringIO()
        error, code = None, None

        def call():
            nonlocal code, error
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = self.cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"

        if tracer is not None:
            tracer.op = res.op_id
        res.seconds, res.calibration = self.watch.time(call, sample=self.sample)
        if tracer is not None:
            tracer.op = -1
        hits1, calls1 = self._derive_state()
        res.derive_hits, res.derive_calls = hits1 - hits0, calls1 - calls0
        res.code = code if error is None else error.split(":")[0]
        res.stdout = stdout.getvalue()
        res.out_text = (op.out.read_text(encoding="utf-8")
                        if op.out is not None and op.out.exists() else None)
        res.failure = check(op, code, error, res.stdout, res.out_text,
                            self.gen.reduced_view)
        return res

    def rounds(self, inputs, first: int, seconds: float, tracer=None) -> list[list[Result]]:
        """Whole rounds from index ``first`` until ops have taken ``seconds``
        (at least one round, at most as many as the inputs hold)."""
        out: list[list[Result]] = []
        spent = 0.0
        while not out or spent < seconds:
            ops = inputs.round(first + len(out))
            if ops is None:
                break
            out.append([self.run_op(op, tracer) for op in ops])
            spent += sum(r.seconds for r in out[-1])
        return out

    def digest(self, results: list[Result]) -> str:
        """sha256 over the canonical outputs, without paths or timings."""
        work = str(self.work)

        def clean(x):
            if isinstance(x, dict):
                return {k: clean(v) for k, v in x.items()
                        if k not in ("out", "trace") and not k.endswith("_ms")}
            if isinstance(x, list):
                return [clean(v) for v in x]
            return x.replace(work, "<work>") if isinstance(x, str) else x

        h = hashlib.sha256()
        for r in results:
            try:
                stdout = json.loads(r.stdout)
            except ValueError:
                stdout = r.stdout
            h.update(json.dumps(clean({"argv": r.argv, "exit": r.code, "stdout": stdout,
                                       "out": r.out_text}),
                                sort_keys=True).encode())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def slot_means(rounds: list[list[Result]]) -> list[tuple[str, float]]:
    """Per slot of the round template: its command and its mean adjusted time.

    The set of slots is fixed by the workload, so every timing metric is
    made from the same values in every run, however many rounds fit.
    """
    by_slot: dict[int, list[Result]] = {}
    for rnd in rounds:
        for r in rnd:
            by_slot.setdefault(r.slot, []).append(r)
    return [(ops[0].command, statistics.fmean(r.adjusted for r in ops))
            for _, ops in sorted(by_slot.items())]


def command_ms(slots: list[tuple[str, float]], command: str) -> float | None:
    """Mean of one command's slot means, in ms."""
    times = [t for c, t in slots if c == command]
    return 1000 * statistics.fmean(times) if times else None


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it: the 11th largest.

    Below 21 samples that percentile would not reach the median, and the
    maximum (percentile 100) is reported instead.
    """
    s = sorted(values)
    if len(s) < 21:
        return 100.0, s[-1]
    return 100 * (1 - 10 / len(s)), s[-11]


def end_to_end(rounds, setup_times) -> tuple[dict, dict]:
    """The end-to-end metrics, times at the reference speed (``Stopwatch``)."""
    flat = [r for rnd in rounds for r in rnd]
    load = adjust(flat)
    slots = slot_means(rounds)
    ms = [1000 * t for _, t in slots]
    p, tail_ms = tail(ms)
    values = {
        "setup_s": statistics.median(setup_times),
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": tail_ms,
        "ops_per_s": sum(r.failure is None for r in flat) / sum(r.adjusted for r in flat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for c in ("validate", "reject", "reduce", "balanced"):
        values[f"{c}_ms"] = command_ms(slots, c)
    return values, {"tail_percentile": p, "samples": len(ms), "load": load}


def per_layer(plain, traced, tracer) -> dict:
    flat_plain = [r for rnd in plain for r in rnd]
    flat_traced = [r for rnd in traced for r in rnd]
    every = flat_plain + flat_traced
    n = len(traced)
    selfs, top = tracer.self_times()
    op_seconds = sum(r.seconds for r in flat_traced)
    library = sum(top.values())
    values = {
        "cli.self_ms": 1000 * (op_seconds - library) / n,
        "trace.coverage": library / op_seconds,
        "trace.overhead_ratio": (
            statistics.median(sum(r.seconds for r in rnd) for rnd in traced)
            / statistics.median(sum(r.seconds for r in rnd) for rnd in plain) - 1),
        "doubleext.derive.cache_hit_ratio": (
            sum(r.derive_hits for r in flat_traced)
            / max(1, sum(r.derive_calls for r in flat_traced))),
        "documents.out_bytes": sum(len(r.out_text.encode()) for r in flat_traced
                                   if r.out_text is not None) / n,
        "op_fail_ratio": sum(r.failure is not None for r in every) / len(every),
        "input_repeat_share": sum(r.repeated for r in every) / len(every),
        "src_lines": src_lines(),
        "host.load": adjust(flat_plain),
    }
    for c in ("extend", "extract", "tau"):
        values[f"{c}_ms"] = command_ms(slot_means(plain), c) or 0.0
    for g in SELF_MS:
        values[f"{g}.self_ms"] = 1000 * selfs[g] / n
    for g in CALLS:
        values[f"{g}.calls"] = tracer.counts[g] / n
    for g in CELLS:
        values[f"{g}.cells"] = tracer.cells[g] / n
    return values


def explain(traced, tracer) -> list[str]:
    """Per command: time per op and the condition passes inside it."""
    by_op: dict[int, list] = {}
    for group, start, end, parent, op in tracer.spans:
        if group == "doubleext.check_conditions":
            by_op.setdefault(op, []).append(end - start)
    lines = ["per command (traced): ms/op, check_conditions calls/op, ms/op inside them"]
    for c in COMMANDS + ("malformed",):
        ops = [r for rnd in traced for r in rnd if r.command == c]
        if ops:
            passes = [by_op.get(r.op_id, []) for r in ops]
            lines.append(
                f"  {c:9s} {1000 * statistics.fmean(r.seconds for r in ops):10.1f}"
                f" {statistics.fmean(len(p) for p in passes):6.2f}"
                f" {1000 * statistics.fmean(sum(p) for p in passes):10.1f}")
    return lines


# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("corpus-cli", "tower-extend", "bigalg-reduce"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = None
    try:
        watch = Stopwatch()
        raw_setup, setup_times, cli, gen, inputs, work = setup(
            args.workload, args.seed, 1 if args.trace else SETUP_REPEATS, watch)
        # the generator's objects stay alive; keep them out of the program's
        # collections, and start every op from a collected heap, as a fresh
        # CLI process would
        gc.collect()
        gc.freeze()
        # a traced run samples no op, so that no calibration unit sits inside a
        # span and its plain and traced rounds are timed alike
        runner = Runner(cli, gen, work, watch, sample=not args.trace)
        if args.trace:
            plain = runner.rounds(inputs, 0, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.rounds(inputs, len(plain), args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            rounds = plain + traced
            values = per_layer(plain, traced, tracer)
            units = PER_LAYER
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(spans_path)
            notes = explain(traced, tracer) + [f"spans: {spans_path.relative_to(ROOT)}"]
        else:
            rounds = runner.rounds(inputs, 0, args.seconds)
            values, extra = end_to_end(rounds, setup_times)
            units = END_TO_END
            notes = [
                f"op_ms_tail is percentile {extra['tail_percentile']:.1f} "
                f"of {extra['samples']} op slots",
                f"machine load (mean calibration unit / {CAL_REFERENCE_S * 1e3} ms): "
                f"{extra['load']:.3f}",
                "other commands (ms): " + ", ".join(
                    f"{c} {command_ms(slot_means(rounds), c):.1f}"
                    for c in ("extend", "extract", "tau")
                    if command_ms(slot_means(rounds), c) is not None),
                f"setup runs (s): {', '.join(f'{t:.3f}' for t in raw_setup)}",
            ]
        flat = [r for rnd in rounds for r in rnd]
        print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
              f"{len(flat)} ops, {len(inputs.round(0))} ops per round")
        print(f"output sha256 (round 0): {runner.digest(rounds[0])}")
        print(f"repeated inputs: {sum(r.repeated for r in flat) / len(flat):.3f}; "
              f"src_lines: {src_lines()}")
        for line in notes:
            print(line)
        failures = Counter((r.command, r.failure) for r in flat if r.failure is not None)
        for (command, why), count in sorted(failures.items()):
            print(f"FAILED {count} x {command}: {why}")
        for name, unit in units.items():
            print(f"  {name:52s} {values[name]:14.4f} {unit}")
        result = {
            "correct": all(r.failure is None for r in flat if r.command != "malformed"),
            "attempted": len(flat),
            "failed": sum(r.failure is not None for r in flat),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        }
        print(json.dumps(result))
    finally:
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())

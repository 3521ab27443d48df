"""Seeded inputs for the sfx benchmark.

Everything here is a pure function of the seed: the same seed writes
byte-identical documents.  The program under test only ever sees the
written documents, never the generator's objects.

Three families of input:

* the bundled corpus (c3a, c112a, 2a11), copied into the work directory,
  with seeded tau expressions, one-bracket perturbations of the built
  models and the four malformed documents of ROADMAP item 4;
* level-1 towers: zero extension data over a built corpus model (dim 8),
  moved by a seeded even tau.  tau-transforms preserve the seven
  conditions, so the data is valid by construction;
* tower models of levels 1-3 (dim 12, 16 and 20), assembled with
  ``build_model(..., force=True)`` so that set-up never pays for the
  condition checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from sfx.corpus import NAMES, corpus_path
from sfx.documents import (
    algebra_to_document, extension_to_document, load_extension_document,
    loads_json, model_to_document,
)
from sfx.doubleext import ExtensionData, StandardModel, TauMap, build_model, tau_transform
from sfx.expressions import format_tau_map
from sfx.liesuper import LieSuperAlgebra
from sfx.superlinalg import GradedLinearMap, SuperSpace, vec_is_zero, zero_vector
from sfx.symplectic import QuasiFrobenius

COEFFS = (Fraction(-2), Fraction(-1), Fraction(1), Fraction(2), Fraction(1, 2))
TOWER_LABELS = ("M", "N", "P")       # l-basis prefixes of tower levels 1, 2, 3
TOWER_BASE = "c3a"                   # level-1 towers all sit over this model
POOL = 4                             # tau expressions / perturbations per corpus entry
MAX_TOWERS = 4                       # tower-extend rounds written per run
SIDE_MODELS = 4                      # extra level-1 models per tower-extend round
MAX_CHAIN_ROUNDS = 2                 # bigalg-reduce rounds written per run (3 chains each)


@dataclass
class Op:
    """One CLI command and what its output must satisfy.

    ``command`` is the metric class (validate, reject, extend, extract,
    tau, reduce, balanced, malformed); ``argv`` is passed to
    ``sfx.cli.main`` as is.  ``expect`` holds the oracle data the check
    needs; ``inputs`` are the files the command reads, for the
    repeated-input share.  ``slot`` is the op's place in the workload's
    round template, the same in every round.
    """

    command: str
    argv: list[str]
    inputs: tuple[Path, ...]
    out: Path | None = None
    expect: dict = field(default_factory=dict)
    slot: int = -1


def numbered(ops: list[Op]) -> list[Op]:
    for slot, op in enumerate(ops):
        op.slot = slot
    return ops


def dumps(doc: dict) -> str:
    """Document text exactly as ``sfx --out`` writes it."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def write(path: Path, doc: dict) -> Path:
    path.write_text(dumps(doc), encoding="utf-8")
    return path


def reduced_view(doc: dict) -> dict:
    """The parts of an algebra document a reduction must reproduce."""
    return {k: doc[k] for k in ("schema", "basis", "brackets", "form") if k in doc}


# ---------------------------------------------------------------------------
# seeded maps and perturbations
# ---------------------------------------------------------------------------

def random_tau(rng: random.Random, ell: SuperSpace, base: SuperSpace) -> GradedLinearMap:
    """An even map l -> a with one or two terms per l basis vector."""
    rows = []
    for k in range(ell.dim):
        same = [i for i in range(base.dim) if base.parities[i] == ell.parities[k]]
        row = [Fraction(0)] * base.dim
        for i in rng.sample(same, min(len(same), rng.choice((1, 2)))):
            row[i] = rng.choice(COEFFS)
        rows.append(tuple(row))
    return GradedLinearMap(ell, base, tuple(rows))


def tau_expression(rng: random.Random, ell: SuperSpace, base: SuperSpace) -> str:
    return format_tau_map(random_tau(rng, ell, base))


def level_up(qf: QuasiFrobenius, prefix: str, rng: random.Random) -> ExtensionData:
    """Extension data over ``qf`` by l = (1|1): a seeded tau applied to zero data.

    Redrawn until xi, gamma and eps are all nonzero.  Over an odd
    (periplectic) form, a tau applied to zero data leaves eps zero, so
    there only xi and gamma must be nonzero.
    """
    ell = SuperSpace((f"{prefix}1", f"{prefix}2"), (0, 1))
    n, m = qf.space.dim, ell.dim
    zero = ExtensionData(
        qf, ell,
        tuple(GradedLinearMap.zero(qf.space, qf.space) for _ in range(m)),
        tuple(tuple(zero_vector(m) for _ in range(n)) for _ in range(m)),
        tuple(tuple(zero_vector(m) for _ in range(m)) for _ in range(m)))
    for _ in range(100):
        data = tau_transform(zero, TauMap(ell, qf, random_tau(rng, ell, qf.space)))
        if (any(not vec_is_zero(r) for op in data.xi for r in op.rows)
                and any(not vec_is_zero(v) for row in data.gamma for v in row)
                and (qf.form.parity == 1
                     or any(not vec_is_zero(v) for row in data.eps for v in row))):
            return data
    raise RuntimeError(f"no tau with nonzero xi, gamma and eps over {qf.space.labels}")


def perturb(qf: QuasiFrobenius, rng: random.Random) -> LieSuperAlgebra:
    """Add a nonzero multiple of e_k to one bracket [e_x, e_y].

    k has the parity of [e_x, e_y], and some e_z outside {e_x, e_y} pairs
    with e_k under the form.  The closedness residual of (x, y, z) then
    moves by a nonzero amount and no other term of it changes, so the
    perturbed structure always fails validation.
    """
    space, gram = qf.space, qf.form.gram
    par, n = space.parities, space.dim
    while True:
        x = rng.randrange(n)
        y = rng.randrange(x, n)
        if x == y and par[x] == 0:
            continue
        k = rng.choice([t for t in range(n) if par[t] == (par[x] + par[y]) % 2])
        if any(gram[z][k] != 0 for z in range(n) if z not in (x, y)):
            break
    c = [list(row) for row in qf.algebra.c]
    v = list(c[x][y])
    v[k] += rng.choice(COEFFS)
    c[x][y] = tuple(v)
    if x != y:
        sign = -1 if par[x] * par[y] % 2 else 1
        c[y][x] = tuple(-sign * t for t in v)
    return LieSuperAlgebra(space, tuple(tuple(row) for row in c))


def dual_ideal(model: StandardModel) -> str:
    return ",".join(model.z_labels)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def load_corpus(name: str):
    path = corpus_path(f"{name}.ext")
    return load_extension_document(
        loads_json(path.read_text(encoding="utf-8"), str(path)), str(path),
        base_dir=path.parent)


def malformed_documents(work: Path) -> list[Op]:
    """The four inputs of ROADMAP item 4; each should exit 2 or 3."""
    alg = json.loads(corpus_path("c3a.alg").read_text(encoding="utf-8"))
    ext = json.loads(corpus_path("c3a.ext").read_text(encoding="utf-8"))
    ops = []

    degenerate = json.loads(json.dumps(alg))
    gram = degenerate["form"]["gram"]
    for i in range(len(gram)):
        gram[0][i] = gram[i][0] = gram[1][i] = gram[i][1] = "0"
    doc = dict(ext, base=degenerate)
    path = write(work / "bad-degenerate-base.ext.json", doc)
    ops.append(Op("malformed", ["validate", str(path), "--json"], (path,)))

    short = json.loads(json.dumps(alg))
    short["form"]["gram"] = short["form"]["gram"][:-1]
    path = write(work / "bad-gram-shape.alg.json", short)
    ops.append(Op("malformed", ["validate", str(path), "--json"], (path,)))

    zero_div = json.loads(json.dumps(alg))
    zero_div["form"]["gram"][0][1] = "1/0"
    path = write(work / "bad-gram-entry.alg.json", zero_div)
    ops.append(Op("malformed", ["validate", str(path), "--json"], (path,)))

    no_right = json.loads(json.dumps(ext))
    del no_right["reference"]["table"][0]["right"]
    path = write(work / "bad-reference.ext.json", no_right)
    ops.append(Op("malformed", ["extend", str(path), "--json"], (path,)))
    return ops


class CorpusInputs:
    """The three corpus examples, replayed in a seeded order every round."""

    def __init__(self, work: Path, seed: int):
        self.rng = random.Random(f"corpus-cli/{seed}")
        self.per_entry = []
        for name in NAMES:
            loaded = load_corpus(name)
            alg = work / f"{name}.alg.json"
            alg.write_text(corpus_path(f"{name}.alg").read_text(encoding="utf-8"),
                           encoding="utf-8")
            ext = work / f"{name}.ext.json"
            ext.write_text(corpus_path(f"{name}.ext").read_text(encoding="utf-8"),
                           encoding="utf-8")
            model = build_model(loaded.data)
            built_text = dumps(model_to_document(
                model, name=(loaded.document.get("name") or "") + " (extended)"))
            built = work / f"{name}.built.json"
            built.write_text(built_text, encoding="utf-8")
            base_view = reduced_view(loaded.base_loaded.document)
            taus = [tau_expression(self.rng, loaded.data.ell, loaded.data.base.space)
                    for _ in range(POOL)]
            perturbed = [write(work / f"{name}.perturbed{k}.json", algebra_to_document(
                perturb(model.qf, self.rng), model.qf.form, name=f"{name} perturbed {k}"))
                for k in range(POOL)]
            self.per_entry.append(dict(
                name=name, alg=alg, ext=ext, built=built, built_text=built_text,
                dual=dual_ideal(model), base_view=base_view, taus=taus,
                perturbed=perturbed, out=work / f"{name}.extended.json"))
        self.malformed = malformed_documents(work)

    def round(self, r: int) -> list[Op] | None:
        ops = []
        for e in self.per_entry:
            ops += [
                Op("validate", ["validate", str(e["alg"]), "--json"], (e["alg"],)),
                Op("validate", ["validate", str(e["ext"]), "--json"], (e["ext"], e["alg"])),
                Op("extend", ["extend", str(e["ext"]), "--out", str(e["out"]), "--json"],
                   (e["ext"], e["alg"]), e["out"], {"out_text": e["built_text"]}),
                Op("reduce", ["reduce", str(e["built"]), "--ideal", e["dual"], "--json"],
                   (e["built"],), expect={"reduced": e["base_view"]}),
                Op("balanced", ["reduce", str(e["built"]), "--balanced", "--json"],
                   (e["built"],)),
                Op("extract", ["extract", str(e["built"]), "--ideal", e["dual"], "--json"],
                   (e["built"],)),
                Op("tau", ["tau", str(e["ext"]), "--tau", e["taus"][r % POOL], "--json"],
                   (e["ext"], e["alg"])),
                Op("reject", ["validate", str(e["perturbed"][r % POOL]), "--json"],
                   (e["perturbed"][r % POOL],)),
            ]
        ops += self.malformed
        ops = numbered(ops)
        self.rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

def model_ops(stem: Path, model: StandardModel, lower: StandardModel,
              rng: random.Random, validate: bool = True) -> list[Op]:
    """validate, reject, reduce and balanced on one built model.

    Reducing a built model by its dual block must give the algebra it
    extends (criterion 6 of the acceptance suite).
    """
    doc = write(stem.with_suffix(".json"), model_to_document(model, name=stem.name))
    pert = write(stem.with_suffix(".perturbed.json"), algebra_to_document(
        perturb(model.qf, rng), model.qf.form, name=f"{stem.name} perturbed"))
    dual = dual_ideal(model)
    ops = [Op("validate", ["validate", str(doc), "--json"], (doc,))] if validate else []
    return ops + [
        Op("reject", ["validate", str(pert), "--json"], (pert,)),
        Op("reduce", ["reduce", str(doc), "--ideal", dual, "--json"], (doc,),
           expect={"reduced": reduced_view(model_to_document(lower))}),
        Op("balanced", ["reduce", str(doc), "--balanced", "--json"], (doc,)),
    ]


class TowerInputs:
    """Fresh level-1 towers over one built corpus model, one per round.

    A round runs validate, extend, extract (on extend's output) and tau on
    its tower, and reduce, balanced and reject on that tower's model and
    on SIDE_MODELS more fresh level-1 models, so that the short commands
    get several samples next to the long ones (see ``spread``).
    """

    def __init__(self, work: Path, seed: int, count: int = MAX_TOWERS):
        rng = random.Random(f"tower-extend/{seed}")
        base_model = build_model(load_corpus(TOWER_BASE).data)
        base = write(work / "tower-base.alg.json",
                     model_to_document(base_model, name="tower base"))
        base_view = reduced_view(model_to_document(base_model))
        self.rounds = []
        for t in range(count):
            data = level_up(base_model.qf, TOWER_LABELS[0], rng)
            name = f"tower{t}"
            ext = write(work / f"{name}.ext.json",
                        extension_to_document(data, base_doc=base.name, name=name))
            model = build_model(data, force=True)
            built_text = dumps(model_to_document(model, name=f"{name} (extended)"))
            extended = work / f"{name}.extended.json"
            pert = write(work / f"{name}.perturbed.json", algebra_to_document(
                perturb(model.qf, rng), model.qf.form, name=f"{name} perturbed"))
            dual = dual_ideal(model)
            tau = tau_expression(rng, data.ell, data.base.space)
            long_ops = [
                Op("validate", ["validate", str(ext), "--json"], (ext, base)),
                Op("extend", ["extend", str(ext), "--out", str(extended), "--json"],
                   (ext, base), extended, {"out_text": built_text}),
                Op("extract", ["extract", str(extended), "--ideal", dual, "--json"],
                   (extended,)),
                Op("tau", ["tau", str(ext), "--tau", tau, "--json"], (ext, base)),
            ]
            per_model = [
                model_ops(work / f"{name}-side{k}",
                          build_model(level_up(base_model.qf, TOWER_LABELS[0], rng),
                                      force=True),
                          base_model, rng, validate=False)
                for k in range(SIDE_MODELS)]
            # last, so that they run after extend has written their input
            per_model.append([
                Op("reject", ["validate", str(pert), "--json"], (pert,)),
                Op("reduce", ["reduce", str(extended), "--ideal", dual, "--json"],
                   (extended,), expect={"reduced": base_view}),
                Op("balanced", ["reduce", str(extended), "--balanced", "--json"],
                   (extended,)),
            ])
            self.rounds.append(numbered(spread(long_ops, per_model)))

    def round(self, r: int) -> list[Op] | None:
        return self.rounds[r] if r < len(self.rounds) else None


def spread(long_ops: list[Op], per_model: list[list[Op]]) -> list[Op]:
    """The long ops in order, with the short ops dealt out between them.

    Model m's three short commands are rotated by m, so each stretch
    between two long ops holds a mix of commands.  A command's samples
    then lie all over the round, not in one stretch of a few seconds
    that a burst of load on the machine could cover.
    """
    short = [op for m, ops in enumerate(per_model) for op in ops[m % 3:] + ops[:m % 3]]
    per_gap = -(-len(short) // len(long_ops))
    out = []
    for i, op in enumerate(long_ops):
        out += [op] + short[i * per_gap:(i + 1) * per_gap]
    return out


class ChainInputs:
    """Tower models of levels 1-3 (dim 12, 16, 20), one chain per corpus base
    per round.

    Levels 2 and 3 are the large algebras.  Level 1 is there so that the
    pooled median op falls inside the level-2 ops rather than in the gap
    between two equal-sized groups of level-2 and level-3 ops, where it
    would jump between them.
    """

    def __init__(self, work: Path, seed: int, count: int = MAX_CHAIN_ROUNDS):
        rng = random.Random(f"bigalg-reduce/{seed}")
        bases = [build_model(load_corpus(name).data) for name in NAMES]
        self.rounds = []
        for r in range(count):
            ops = []
            for name, model in zip(NAMES, bases):
                lower = model
                for level, prefix in enumerate(TOWER_LABELS, start=1):
                    upper = build_model(level_up(lower.qf, prefix, rng), force=True)
                    ops += model_ops(work / f"{name}-r{r}-level{level}", upper, lower, rng)
                    lower = upper
            self.rounds.append(numbered(ops))

    def round(self, r: int) -> list[Op] | None:
        return self.rounds[r] if r < len(self.rounds) else None


WORKLOADS = {
    "corpus-cli": CorpusInputs,
    "tower-extend": TowerInputs,
    "bigalg-reduce": ChainInputs,
}

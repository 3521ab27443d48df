"""CLI surface: commands, exit codes, JSON mode."""

from __future__ import annotations

import json

import pytest

from sfx.cli import main
from sfx.corpus import corpus_path


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("SFX_COLOR", "0")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_validate_corpus_algebras_exit_zero(capsys):
    for name in ("c3a", "c112a", "2a11"):
        code, out = run(capsys, "validate", str(corpus_path(f"{name}.alg")))
        assert code == 0
        assert "PASS" in out


def test_validate_extension_document(capsys):
    code, payload = run_json(capsys, "validate", str(corpus_path("c3a.ext")))
    assert code == 0 and payload["ok"]
    assert payload["conditions"]["ok"]


def test_validate_broken_jacobi_exits_one(tmp_path, capsys):
    doc = {
        "schema": "sfx.algebra/1",
        "basis": [{"label": "a", "parity": 0}, {"label": "b", "parity": 0},
                  {"label": "c", "parity": 0}],
        # [a,b] = a breaks Jacobi together with [b,c] = c? craft a violation:
        "brackets": [{"left": "a", "right": "b", "value": "b"},
                     {"left": "b", "right": "c", "value": "a"},
                     {"left": "a", "right": "c", "value": "0"}],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, "validate", str(path))
    assert code == 1
    assert "FAIL" in out and "Jacobi" in out


def test_validate_empty_file_is_parse_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("", encoding="utf-8")
    code, out = run(capsys, "validate", str(path))
    assert code == 3
    assert "parse error" in out


def test_extend_writes_a_loadable_document(tmp_path, capsys):
    out_path = tmp_path / "built.json"
    code, out = run(capsys, "extend", str(corpus_path("c3a.ext")),
                    "--out", str(out_path))
    assert code == 0
    assert "[e1,e4] = 2 L2* + e3" in out
    code2, out2 = run(capsys, "validate", str(out_path))
    assert code2 == 0


def test_extend_reports_reference_discrepancies(capsys):
    code, payload = run_json(capsys, "extend", str(corpus_path("2a11.ext")))
    assert code == 0
    statuses = {}
    for r in payload["reference"]:
        statuses.setdefault(r["bracket"], []).append(r["status"])
    assert sorted(statuses["[L1,L2]"]) == [
        "duplicate-printed-line:match", "duplicate-printed-line:mismatch"]
    assert statuses["[e3,e4]"] == ["mismatch"]


def test_extend_condition_failure_names_the_equation(tmp_path, capsys):
    doc = json.loads(corpus_path("c3a.ext").read_text(encoding="utf-8"))
    doc["base"] = json.loads(corpus_path("c3a.alg").read_text(encoding="utf-8"))
    doc["epsilon"] = {"L1,L2": "L2*"}  # cyclicity requires the L2,L2 partner
    path = tmp_path / "bad.ext.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    code, out = run(capsys, "extend", str(path))
    assert code == 1
    assert "qzz4" in out and "FAIL" in out
    code, payload = run_json(capsys, "extend", str(path))
    assert code == 1
    assert payload["ok"] is False and "qzz4" in payload["error"]
    assert payload["conditions"]["ok"] is False
    assert "table" not in payload


def test_reduce_by_the_dual_block_recovers_the_base(tmp_path, capsys):
    built = tmp_path / "built.json"
    assert run(capsys, "extend", str(corpus_path("c3a.ext")),
               "--out", str(built))[0] == 0
    code, payload = run_json(capsys, "reduce", str(built), "--ideal", "L1*,L2*")
    assert code == 0
    assert payload["classification"] == ["degenerate", "isotropic"]
    labels = [b["label"] for b in payload["document"]["basis"]]
    assert labels == ["e1", "e2", "e3", "e4"]
    values = {(b["left"], b["right"]): b["value"]
              for b in payload["document"]["brackets"]}
    assert values == {("e1", "e4"): "e3", ("e4", "e4"): "e2"}


def test_reduce_balanced_on_the_built_model(tmp_path, capsys):
    built = tmp_path / "built.json"
    run(capsys, "extend", str(corpus_path("c3a.ext")), "--out", str(built))
    code, payload = run_json(capsys, "reduce", str(built), "--balanced")
    assert code == 0
    assert payload["dimensions"]["ideal"] == 4
    assert payload["document"]["basis"] == []


def test_reduce_balanced_error_on_nondegenerate_center(tmp_path, capsys):
    doc = {
        "schema": "sfx.algebra/1",
        "basis": [{"label": "a", "parity": 0}, {"label": "b", "parity": 0}],
        "brackets": [],
        "form": {"parity": "even", "wedge": "a*^b*"},
    }
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, "reduce", str(path), "--balanced")
    assert code == 2
    assert "nondegenerate" in out


def test_extract_recovers_the_bundled_data(tmp_path, capsys):
    built = tmp_path / "built.json"
    run(capsys, "extend", str(corpus_path("c3a.ext")), "--out", str(built))
    code, payload = run_json(capsys, "extract", str(built), "--ideal", "L1*,L2*")
    assert code == 0
    assert payload["round_trip_equivalent"]
    bundled = json.loads(corpus_path("c3a.ext").read_text(encoding="utf-8"))
    assert payload["document"]["gamma"] == bundled["gamma"]
    assert payload["document"]["epsilon"] == bundled["epsilon"]
    assert payload["document"]["xi"] == bundled["xi"]
    # phi is the identity for the canonical block complement
    n = len(payload["phi"])
    assert all(payload["phi"][i][j] == ("1" if i == j else "0")
               for i in range(n) for j in range(n))


def test_tau_zero_is_byte_identical_modulo_name(capsys):
    code, payload = run_json(capsys, "tau", str(corpus_path("c3a.ext")),
                             "--tau", "0")
    assert code == 0
    original = json.loads(corpus_path("c3a.ext").read_text(encoding="utf-8"))
    doc = payload["document"]
    for key in ("xi", "gamma", "epsilon", "ell_basis", "model"):
        assert doc[key] == original[key]


def test_tau_transform_passes_conditions_and_equivalence(capsys):
    code, payload = run_json(capsys, "tau", str(corpus_path("c3a.ext")),
                             "--tau", "e2(x)L1*")
    assert code == 0
    assert payload["conditions"]["ok"]
    assert payload["equivalence"]["ok"]


def test_tau_shape_mismatch_is_a_parse_error(capsys):
    code, _ = run(capsys, "tau", str(corpus_path("c3a.ext")),
                  "--tau", "e9(x)L1*")
    assert code == 3


def test_corpus_list_and_show(capsys):
    code, out = run(capsys, "corpus", "list")
    assert code == 0
    for name in ("c3a", "c112a", "2a11"):
        assert name in out
    code, out = run(capsys, "corpus", "show", "c3a.alg")
    assert code == 0
    assert json.loads(out)["schema"] == "sfx.algebra/1"
    code, _ = run(capsys, "corpus", "show", "nope")
    assert code == 2


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["reduce", "somefile"])  # neither --ideal nor --balanced
    assert err.value.code == 2


# -- malformed documents: defined exit codes, no traceback ---------------------

def _corpus_doc(name):
    return json.loads(corpus_path(name).read_text(encoding="utf-8"))


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    return str(path)


def test_degenerate_base_is_a_precondition_error(tmp_path, capsys):
    alg = _corpus_doc("c3a.alg")
    gram = alg["form"]["gram"]
    for i in range(len(gram)):
        gram[0][i] = gram[i][0] = gram[1][i] = gram[i][1] = "0"
    path = _write(tmp_path, "degenerate.ext.json", dict(_corpus_doc("c3a.ext"), base=alg))
    for command in ("validate", "extend"):
        code, payload = run_json(capsys, command, path)
        assert code == 2 and not payload["ok"]
        assert "degenerate" in payload["error"]
    code, _ = run_json(capsys, "tau", path, "--tau", "e2(x)L1*")
    assert code == 2


def test_gram_with_a_missing_row_is_a_parse_error(tmp_path, capsys):
    alg = _corpus_doc("c3a.alg")
    alg["form"]["gram"] = alg["form"]["gram"][:-1]
    code, payload = run_json(capsys, "validate", _write(tmp_path, "short.json", alg))
    assert code == 3
    assert "dim x dim" in payload["error"]


def test_gram_entry_dividing_by_zero_is_a_parse_error(tmp_path, capsys):
    alg = _corpus_doc("c3a.alg")
    alg["form"]["gram"][0][1] = "1/0"
    code, payload = run_json(capsys, "validate", _write(tmp_path, "zerodiv.json", alg))
    assert code == 3
    assert "Gram" in payload["error"]


def test_reference_entry_without_right_is_a_parse_error(tmp_path, capsys):
    ext = dict(_corpus_doc("c3a.ext"), base=_corpus_doc("c3a.alg"))
    del ext["reference"]["table"][0]["right"]
    code, payload = run_json(capsys, "extend", _write(tmp_path, "noright.ext.json", ext))
    assert code == 3
    assert "reference" in payload["error"]

"""Each CLI command evaluates the extension conditions once per data set.

``check_conditions`` is wrapped where ``cli`` and ``doubleext`` bind it,
and the calls are counted per command.  The ``extend`` and ``tau`` JSON
outputs on the corpus are compared byte for byte with ``tests/golden/``,
written by the version that checked the conditions two and three times.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import sfx.cli as cli
import sfx.doubleext as doubleext
from sfx.cli import main
from sfx.corpus import corpus_path

GOLDEN = Path(__file__).parent / "golden"
TAUS = {"c3a": "e2(x)L1* + 2 e4(x)L2*", "c112a": "e1(x)L1* - e3(x)L2*",
        "2a11": "e3(x)L1* + 1/2 e4(x)L2*"}


@pytest.fixture
def passes(monkeypatch):
    calls = []
    original = doubleext.check_conditions

    def counting(ext):
        calls.append(ext)
        return original(ext)

    monkeypatch.setattr(cli, "check_conditions", counting)
    monkeypatch.setattr(doubleext, "check_conditions", counting)
    return calls


def test_one_pass_per_command_and_two_for_tau(passes, tmp_path, capsys):
    ext = str(corpus_path("c3a.ext"))
    built = tmp_path / "built.json"
    expected = [
        (["validate", ext], 1),
        (["extend", ext, "--out", str(built)], 1),
        (["extract", str(built), "--ideal", "L1*,L2*"], 1),
        (["tau", ext, "--tau", TAUS["c3a"]], 2),
    ]
    for argv, count in expected:
        passes.clear()
        assert main(argv + ["--json"]) == 0, argv
        assert len(passes) == count, argv
    capsys.readouterr()


def test_tau_checks_the_data_and_the_transformed_data(passes, c3a_ext, capsys):
    assert main(["tau", str(corpus_path("c3a.ext")), "--tau", TAUS["c3a"], "--json"]) == 0
    capsys.readouterr()
    assert len(passes) == 2 and c3a_ext.data in passes and passes[0] != passes[1]


@pytest.mark.parametrize("name", sorted(TAUS))
@pytest.mark.parametrize("command", ["extend", "tau"])
def test_json_output_is_unchanged(capsys, name, command):
    extra = ["--tau", TAUS[name]] if command == "tau" else []
    assert main([command, str(corpus_path(f"{name}.ext")), *extra, "--json"]) == 0
    out = capsys.readouterr().out
    assert '"conditions"' in out
    assert out == (GOLDEN / f"{name}.{command}.json").read_text(encoding="utf-8")

"""Golden reports: `ctcsim experiment` results against stored copies.

Each file in data/cli_reports holds a command line (`argv`) and the
`results` block its report printed when the file was written. Keys and
non-float values must match exactly and floats within 1e-9, so a change
that alters what a command reports for a fixed command line and seed fails
here. Runs without options are also checked against the experiment function
called with its own defaults.
"""

import json
from pathlib import Path

import pytest

from ctcsim.cli import _round_floats, main
from ctcsim.experiments import REGISTRY

DATA = Path(__file__).resolve().parent / "data" / "cli_reports"
GOLDEN = sorted(DATA.glob("*.json"))
FLOAT_TOL = 1e-9


def assert_matches(got, want, where="results"):
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert abs(got - want) <= FLOAT_TOL, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def test_golden_set_covers_every_experiment():
    argvs = [json.loads(p.read_text(encoding="utf-8"))["argv"] for p in GOLDEN]
    assert {argv[1] for argv in argvs if len(argv) == 2} == set(REGISTRY)


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_report_matches_golden(path, capsys, monkeypatch):
    monkeypatch.delenv("CTC_SIM_SEED", raising=False)
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert main(golden["argv"]) == 0
    assert_matches(json.loads(capsys.readouterr().out)["results"],
                   golden["results"])
    if len(golden["argv"]) == 2:
        run = REGISTRY[golden["argv"][1]]
        assert_matches(_round_floats(run()), golden["results"])

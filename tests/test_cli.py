"""Tests for the command line interface, run in-process through main()."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from ctcsim.circuit import (Circuit, Gate, _matrix_to_json, build_bhw2,
                            build_epr_swap, complete_unitary, serialize_circuit)
from ctcsim.cli import EXPERIMENTS, _round_floats, main
from ctcsim.ctc import SolverError, ctc_evolve
from ctcsim.oracle import random_density, random_unitary

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def write_circuit(tmp_path, circuit, name="circuit.json"):
    path = tmp_path / name
    path.write_text(serialize_circuit(circuit), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def report_sigma(fp):
    return np.array([[complex(c[0], c[1]) for c in row] for row in fp["sigma"]])


# --- fixed-point subcommand --------------------------------------------------

def test_fixed_point_epr(tmp_path, capsys):
    path = write_circuit(tmp_path, build_epr_swap())
    code, report = run_cli(capsys, ["fixed-point", path, "--input", "bell"])
    assert code == 0
    assert report["schema_version"] == 1
    assert report["command"] == "fixed-point"
    assert report["parameters"]["input"] == "bell"
    fp = report["results"]["fixed_point"]
    assert fp["fixed_space_dim"] == 1
    assert fp["residual"] <= 1e-9
    sigma = np.array([[complex(c[0], c[1]) for c in row]
                      for row in fp["sigma"]])
    assert np.allclose(sigma, np.eye(2) / 2, atol=1e-9)


def test_fixed_point_default_input_is_maximally_mixed(tmp_path, capsys):
    circuit = Circuit(cr_dims=(2,), ctc_dims=(2,), gates=())
    path = write_circuit(tmp_path, circuit)
    code, report = run_cli(capsys, ["fixed-point", path])
    assert code == 0
    assert report["parameters"]["input"] == "mixed"
    # identity interaction: every state is consistent, canonical pick is I/2
    fp = report["results"]["fixed_point"]
    assert fp["fixed_space_dim"] == 4
    sigma = np.array([[complex(c[0], c[1]) for c in row]
                      for row in fp["sigma"]])
    assert np.allclose(sigma, np.eye(2) / 2, atol=1e-9)


def test_fixed_point_verify_cross_checks(tmp_path, capsys):
    path = write_circuit(tmp_path, build_bhw2(PLUS))
    code, report = run_cli(
        capsys, ["fixed-point", path, "--input", "plus", "--verify"])
    assert code == 0
    verify = report["results"]["verify"]
    assert verify["oracle"]["trials"] == 8
    assert verify["oracle"]["converged"] == 8
    assert verify["oracle"]["distinct_limits"] == 1
    assert verify["oracle"]["max_distance_to_exact"] < 1e-6
    assert verify["cesaro"]["distance_to_exact"] < 1e-7


def test_fixed_point_reads_matrix_file(tmp_path, capsys):
    path = write_circuit(tmp_path, build_bhw2(PLUS))
    state = tmp_path / "state.json"
    grid = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    state.write_text(json.dumps(grid), encoding="utf-8")
    code, report = run_cli(capsys, ["fixed-point", path,
                                    "--input", f"@{state}"])
    assert code == 0
    sigma = np.array([[complex(c[0], c[1]) for c in row]
                      for row in report["results"]["fixed_point"]["sigma"]])
    # |1> is not a designated state; its consistent sigma is still unique
    assert report["results"]["fixed_point"]["fixed_space_dim"] == 1
    assert abs(np.trace(sigma) - 1.0) < 1e-9


def test_non_psd_matrix_file_is_input_error(tmp_path, capsys):
    circuit = Circuit(cr_dims=(2, 2), ctc_dims=(2,),
                      gates=(Gate("swap", (1, 2)),))
    path = write_circuit(tmp_path, circuit)
    state = tmp_path / "state.json"
    # Hermitian with unit trace, but one eigenvalue is -0.5
    grid = [[[1.5 if i == j == 0 else -0.5 if i == j == 1 else 0.0, 0.0]
             for j in range(4)] for i in range(4)]
    state.write_text(json.dumps(grid), encoding="utf-8")
    assert main(["fixed-point", path, "--input", f"@{state}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rho_cr" in captured.err
    assert "positive semidefinite" in captured.err


def test_fixed_point_max_entropy_selection(tmp_path, capsys):
    circuit = Circuit(cr_dims=(2,), ctc_dims=(2,), gates=())
    path = write_circuit(tmp_path, circuit)
    code, report = run_cli(capsys, ["fixed-point", path,
                                    "--selection", "max-entropy"])
    assert code == 0
    fp = report["results"]["fixed_point"]
    assert fp["selection"] == "max_entropy"
    # identity interaction: every state is consistent, the entropy maximum is I/2
    assert fp["fixed_space_dim"] == 4
    assert np.allclose(report_sigma(fp), np.eye(2) / 2, rtol=0, atol=1e-10)


def test_fixed_point_max_entropy_on_leak_circuit(tmp_path, capsys):
    # CR |0> with a CTC qutrit: |0,0> -> |0,0>, |0,1> -> |0,1>, |0,2> -> |1,1>
    e = np.eye(6)
    u = complete_unitary([(e[0], e[0]), (e[1], e[1]), (e[2], e[4])], 6)
    circuit = Circuit(cr_dims=(2,), ctc_dims=(3,), gates=(Gate("leak", (0, 1), u),))
    path = write_circuit(tmp_path, circuit)
    expected = {"canonical": np.diag([1 / 3, 2 / 3, 0]),
                "max-entropy": np.diag([0.5, 0.5, 0.0])}
    for selection, sigma in expected.items():
        code, report = run_cli(capsys, ["fixed-point", path, "--input", "zero",
                                        "--selection", selection])
        assert code == 0
        fp = report["results"]["fixed_point"]
        assert fp["fixed_space_dim"] == 4
        assert np.allclose(report_sigma(fp), sigma, rtol=0, atol=1e-10)


def test_fixed_point_reports_the_sigma_of_ctc_evolve(tmp_path, capsys):
    e = np.eye(6)
    u = complete_unitary([(e[0], e[0]), (e[1], e[1]), (e[2], e[4])], 6)
    leak = Circuit(cr_dims=(2,), ctc_dims=(3,), gates=(Gate("leak", (0, 1), u),))
    cases = [(build_bhw2(PLUS), "plus", np.outer(PLUS, PLUS)),
             (leak, "zero", np.diag([1.0 + 0j, 0.0]))]
    for circuit, name, rho in cases:
        path = write_circuit(tmp_path, circuit)
        for selection in ("canonical", "max-entropy"):
            _, fp = ctc_evolve(circuit, rho, selection.replace("-", "_"))
            for verify in ([], ["--verify"]):
                code, report = run_cli(capsys, ["fixed-point", path, "--input", name,
                                                "--selection", selection] + verify)
                assert code == 0
                assert report["results"]["fixed_point"]["sigma"] == _round_floats(
                    _matrix_to_json(fp.sigma))


# --- input errors exit with code 2 -------------------------------------------

def test_missing_circuit_file_is_input_error(tmp_path, capsys):
    code = main(["fixed-point", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_malformed_circuit_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["fixed-point", str(path)]) == 2
    capsys.readouterr()


def test_unknown_input_name_is_input_error(tmp_path, capsys):
    path = write_circuit(tmp_path, build_bhw2(PLUS))
    assert main(["fixed-point", path, "--input", "sideways"]) == 2
    assert "zero|one|plus|minus|bell|mixed" in capsys.readouterr().err


def test_wrong_size_matrix_file_is_input_error(tmp_path, capsys):
    path = write_circuit(tmp_path, build_bhw2(PLUS))
    state = tmp_path / "state.json"
    state.write_text(json.dumps([[[1.0, 0.0]]]), encoding="utf-8")
    assert main(["fixed-point", path, "--input", f"@{state}"]) == 2
    capsys.readouterr()


def test_ragged_or_undecodable_files_are_input_errors(tmp_path, capsys):
    path = write_circuit(tmp_path, build_bhw2(PLUS))
    state = tmp_path / "state.json"

    def assert_input_error(argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("ctcsim: error: ") and message in err

    state.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]),
                     encoding="utf-8")
    assert_input_error(["fixed-point", path, "--input", f"@{state}"],
                       "state.json: $[1]: row length 1 != 2")
    state.write_bytes(b"[[[1, 0], [0, 0]], [[0, 0], [0, 0]]] \xff")
    assert_input_error(["fixed-point", path, "--input", f"@{state}"],
                       "state.json: not valid JSON")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"cr_dims": [2], "ctc_dims": [2], "gates": [],'
                       b' "labels": ["\xe9", "b"]}')
    assert_input_error(["fixed-point", str(latin1)],
                       "latin1.json: not valid JSON")


def test_bell_input_needs_two_qubit_register(tmp_path, capsys):
    path = write_circuit(tmp_path, build_bhw2(PLUS))
    assert main(["fixed-point", path, "--input", "bell"]) == 2
    capsys.readouterr()


def test_theta_out_of_range_is_input_error(capsys):
    assert main(["experiment", "bhw2", "--theta", "0"]) == 2
    assert main(["experiment", "bhw2", "--theta", "1.5707963268"]) == 2
    capsys.readouterr()


def test_probs_out_of_range_is_input_error(capsys):
    assert main(["experiment", "mixture", "--probs", "1.0"]) == 2
    capsys.readouterr()


def test_sweep_only_for_mixture(capsys):
    assert main(["experiment", "epr", "--sweep", "theta=0.1:0.5:0.2"]) == 2
    assert "mixture" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["epr", "--theta", "0.3"],
    ["identical-mixtures", "--selection", "max-entropy"],
    ["identical-mixtures", "--selection", "canonical"],
    ["bhw4", "--probs", "0.3"],
    ["computation", "--trials", "3"],
    ["sim-equivalence", "--theta", "0.5"],
], ids=lambda argv: " ".join(argv))
def test_option_the_experiment_does_not_take_is_an_input_error(capsys, argv):
    assert main(["experiment"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[1]} does not apply to '{argv[0]}'" in captured.err


def test_report_echoes_given_options_and_defaults(capsys):
    code, report = run_cli(capsys, ["experiment", "bhw2"])
    assert code == 0
    assert report["parameters"] == {"selection": "canonical",
                                    "theta": float(f"{math.pi / 4:.12g}")}
    code, report = run_cli(capsys, ["experiment", "identical-mixtures"])
    assert code == 0
    assert report["parameters"] == {"selection": "canonical"}
    code, report = run_cli(capsys, ["experiment", "epr",
                                    "--selection", "max-entropy"])
    assert code == 0
    assert report["parameters"] == {"selection": "max-entropy"}


def test_csv_requires_sweep(capsys):
    assert main(["experiment", "mixture", "--csv", "rows.csv"]) == 2
    assert "--sweep" in capsys.readouterr().err


def test_theta_beside_sweep_is_an_input_error(capsys):
    assert main(["experiment", "mixture", "--theta", "5",
                 "--sweep", "theta=0.5:0.6:0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--theta and --sweep" in captured.err
    # a valid angle beside the sweep is refused too: the sweep sets theta
    assert main(["experiment", "mixture", "--theta", "0.3",
                 "--sweep", "theta=0.5:0.6:0.1"]) == 2
    assert "--theta and --sweep" in capsys.readouterr().err


def test_bad_sweep_specs(capsys):
    assert main(["experiment", "mixture", "--sweep", "0.1:0.5:0.2"]) == 2
    assert main(["experiment", "mixture", "--sweep", "phi=0.1:0.5:0.2"]) == 2
    assert main(["experiment", "mixture", "--sweep", "theta=0.5:0.1:0.2"]) == 2
    assert main(["experiment", "mixture", "--sweep", "theta=0.1:0.5:0"]) == 2
    assert main(["experiment", "mixture", "--sweep", "theta=nan:1:0.1"]) == 2
    assert main(["experiment", "mixture", "--sweep", "theta=0.1:0.2:nan"]) == 2
    # 1,401 points: over the grid cap (a step of 1e-300 would never finish)
    assert main(["experiment", "mixture", "--sweep", "theta=0.1:1.5:1e-3"]) == 2
    capsys.readouterr()


def test_unknown_experiment_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "warp-drive"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    for name in EXPERIMENTS:
        assert name in err


def test_bad_env_seed_is_input_error(monkeypatch, capsys):
    monkeypatch.setenv("CTC_SIM_SEED", "not-a-number")
    assert main(["experiment", "epr"]) == 2
    assert "CTC_SIM_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sim-equivalence", "epr", "fixed-point"])
def test_negative_seed_is_input_error(tmp_path, monkeypatch, capsys, command):
    # numpy's generators take no negative seed; from --seed or CTC_SIM_SEED
    # it is refused for every command, before anything runs
    argv = (["fixed-point", write_circuit(tmp_path, build_epr_swap()), "--verify"]
            if command == "fixed-point" else ["experiment", command])
    monkeypatch.delenv("CTC_SIM_SEED", raising=False)
    assert main(argv + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "non-negative, got -1" in captured.err
    monkeypatch.setenv("CTC_SIM_SEED", "-5")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "non-negative, got -5" in captured.err


def test_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    import ctcsim.ctc as ctc_mod

    def explode(*args, **kwargs):
        raise SolverError("no consistent state found", residual=1.0)

    monkeypatch.setattr(ctc_mod, "_fixed_points", explode)
    path = write_circuit(tmp_path, build_epr_swap())
    assert main(["fixed-point", path, "--input", "bell"]) == 3
    assert "no consistent state" in capsys.readouterr().err


def test_verify_that_verified_nothing_exits_3(tmp_path, capsys, monkeypatch):
    import ctcsim.cli as cli_mod
    from ctcsim.oracle import MAX_ITERS, OracleReport

    def nothing_converged(circuit, rho, trials, seed):
        return OracleReport(trials=trials, converged=0, distinct_limits=(),
                            max_pairwise_distance=0.0)

    monkeypatch.setattr(cli_mod, "fixed_point_bruteforce", nothing_converged)
    path = write_circuit(tmp_path, build_epr_swap())
    code = main(["fixed-point", path, "--input", "bell", "--verify"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "0 of 8 trials" in captured.err
    assert f"within {MAX_ITERS} iterations" in captured.err


# --- experiments -------------------------------------------------------------

def test_experiment_epr(capsys):
    code, report = run_cli(capsys, ["experiment", "epr"])
    assert code == 0
    res = report["results"]
    assert res["sigma_vs_half_identity"] < 1e-9
    assert res["output_vs_quarter_identity"] < 1e-9
    assert abs(res["input_mutual_info_bits"] - 2.0) < 1e-9
    assert res["output_mutual_info_bits"] < 1e-9


def test_experiment_bhw2(capsys):
    code, report = run_cli(capsys, ["experiment", "bhw2", "--theta", "0.7"])
    assert code == 0
    res = report["results"]
    assert abs(res["output_trace_distance"] - 1.0) < 1e-9
    assert res["output_zero_vs_proj0"] < 1e-9
    assert res["output_psi_vs_proj1"] < 1e-9
    assert res["fixed_point_zero"]["vs_proj0"] < 1e-9
    assert res["fixed_point_psi"]["vs_proj1"] < 1e-9


def test_experiment_bhw4(capsys):
    code, report = run_cli(capsys, ["experiment", "bhw4"])
    assert code == 0
    res = report["results"]
    assert abs(res["min_pairwise_distance"] - 1.0) < 1e-9
    assert len(res["pairwise_output_distances"]) == 6
    for fp in res["fixed_points"].values():
        assert fp["fixed_space_dim"] == 1


def test_experiment_mixture(capsys):
    code, report = run_cli(capsys, ["experiment", "mixture",
                                    "--theta", "0.5", "--probs", "0.3"])
    assert code == 0
    res = report["results"]
    assert res["success"] is False
    assert res["mutual_info_bits"] < 1e-9
    assert res["product_distance"] < 1e-9
    assert res["per_pure_vs_targets"]["0"] < 1e-9
    assert res["per_pure_vs_targets"]["1"] < 1e-9
    assert 0.5 < res["helstrom_bound"] < 1.0
    assert report["parameters"]["theta"] == 0.5
    assert report["parameters"]["probs"] == 0.3


def test_experiment_superposition(capsys):
    code, report = run_cli(capsys, ["experiment", "superposition",
                                    "--theta", "0.9"])
    assert code == 0
    res = report["results"]
    assert res["mutual_info_bits"] < 1e-6
    assert res["success"] is False


def test_experiment_sim_equivalence(capsys):
    code, report = run_cli(capsys, ["experiment", "sim-equivalence",
                                    "--trials", "5", "--seed", "7"])
    assert code == 0
    res = report["results"]
    assert res["trials"] == 5
    assert len(res["per_trial_distances"]) == 5
    assert res["max_trace_distance"] < 1e-8
    assert res["max_fixed_point_residual"] < 1e-9


def test_experiment_identical_mixtures(capsys):
    code, report = run_cli(capsys, ["experiment", "identical-mixtures"])
    assert code == 0
    for selection in ("canonical", "max_entropy"):
        block = report["results"][selection]
        assert block["output_trace_distance"] < 1e-9


def test_experiment_computation(capsys):
    code, report = run_cli(capsys, ["experiment", "computation"])
    assert code == 0
    res = report["results"]
    assert res["truth_table"] == [0, 1, 2, 3]
    assert res["success"] is False
    assert res["mutual_info_bits"] < 1e-9
    assert len(res["per_input_output_vs_truth"]) == 4
    for dist in res["per_input_output_vs_truth"].values():
        assert dist < 1e-9


def test_sim_equivalence_rejects_zero_trials(capsys):
    assert main(["experiment", "sim-equivalence", "--trials", "0"]) == 2
    capsys.readouterr()


def test_sim_equivalence_refuses_more_than_max_trials(monkeypatch, capsys):
    # the bound is checked before any instance is drawn
    import ctcsim.experiments as experiments_mod

    def never(seed, trials):
        raise AssertionError("instances were drawn")

    monkeypatch.setattr(experiments_mod, "random_instances", never)
    assert main(["experiment", "sim-equivalence", "--trials",
                 str(experiments_mod.MAX_TRIALS + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--trials must be in 1..{experiments_mod.MAX_TRIALS}" in captured.err


# --- sweeps and CSV ----------------------------------------------------------

def test_mixture_sweep_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code, report = run_cli(capsys, [
        "experiment", "mixture", "--sweep", "theta=0.1:0.5:0.2",
        "--csv", str(csv_path)])
    assert code == 0
    rows = report["results"]["sweep"]
    assert [r["theta"] for r in rows] == pytest.approx([0.1, 0.3, 0.5])
    assert report["results"]["max_mutual_info"] < 1e-9
    assert report["results"]["max_product_distance"] < 1e-9
    lines = csv_path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "theta,mutual_info,product_distance,helstrom"
    assert len(lines) == 4
    for line, theta in zip(lines[1:], (0.1, 0.3, 0.5)):
        fields = line.split(",")
        assert len(fields) == 4
        assert float(fields[0]) == pytest.approx(theta)
        assert 0.5 < float(fields[3]) <= 1.0


# --- determinism and seeds ---------------------------------------------------

def test_reports_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["experiment", "sim-equivalence", "--trials", "3", "--seed", "11"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert capsys.readouterr().out == ""  # --out suppresses stdout
    assert a.read_bytes() == b.read_bytes()


def test_options_of_one_call_do_not_reach_the_next(tmp_path, capsys,
                                                   monkeypatch):
    # main reuses one parser; every call must still start from the defaults
    monkeypatch.delenv("CTC_SIM_SEED", raising=False)
    path = write_circuit(tmp_path, build_epr_swap())
    _, first = run_cli(capsys, ["fixed-point", path, "--input", "bell",
                                "--verify", "--selection", "max-entropy",
                                "--seed", "7"])
    _, second = run_cli(capsys, ["fixed-point", path])
    assert first["parameters"]["verify"] and first["seed"] == 7
    assert second["parameters"] == {"circuit_file": path, "input": "mixed",
                                    "selection": "canonical", "verify": False}
    assert second["seed"] == 0 and "verify" not in second["results"]


def test_seed_resolution(monkeypatch, capsys):
    monkeypatch.delenv("CTC_SIM_SEED", raising=False)
    _, report = run_cli(capsys, ["experiment", "epr"])
    assert report["seed"] == 0
    monkeypatch.setenv("CTC_SIM_SEED", "123")
    _, report = run_cli(capsys, ["experiment", "epr"])
    assert report["seed"] == 123
    _, report = run_cli(capsys, ["experiment", "epr", "--seed", "5"])
    assert report["seed"] == 5


def test_seed_changes_sim_equivalence_instances(capsys):
    _, rep_a = run_cli(capsys, ["experiment", "sim-equivalence",
                                "--trials", "3", "--seed", "1"])
    _, rep_b = run_cli(capsys, ["experiment", "sim-equivalence",
                                "--trials", "3", "--seed", "2"])
    assert (rep_a["results"]["per_trial_distances"]
            != rep_b["results"]["per_trial_distances"])


def test_seed_reaches_sim_equivalence_instances(monkeypatch, capsys):
    import ctcsim.experiments as experiments_mod

    calls = []
    draw = experiments_mod.random_instances

    def recording(seed, trials):
        calls.append((seed, trials))
        return draw(seed, trials)

    monkeypatch.setattr(experiments_mod, "random_instances", recording)
    monkeypatch.setenv("CTC_SIM_SEED", "9")
    assert main(["experiment", "sim-equivalence", "--trials", "2"]) == 0
    assert main(["experiment", "sim-equivalence", "--trials", "2",
                 "--seed", "5"]) == 0
    capsys.readouterr()
    assert calls == [(9, 2), (5, 2)]


def test_floats_are_rounded_for_stability(capsys):
    _, report = run_cli(capsys, ["experiment", "epr"])
    text = json.dumps(report)
    # 12-significant-digit rounding keeps reports reproducible across runs
    for token in text.replace("{", " ").replace("}", " ").split(","):
        if "e-" in token and ":" in token:
            digits = token.split(":")[1].strip().split("e")[0]
            assert len(digits.replace("-", "").replace(".", "")) <= 12


def test_cli_loads_scipy_linalg_only_where_lapack_runs(tmp_path):
    # importing scipy.linalg is about 0.3 s of a CLI call; only the Schur
    # path and loops with n = dc^2 > 16 need its LAPACK routines, so every
    # experiment and a --verify on a unique 2+2-qubit loop run without it.
    # Nothing needs scipy.optimize, not even a degenerate max-entropy solve
    haar = write_circuit(tmp_path, Circuit(
        cr_dims=(2, 2), ctc_dims=(2, 2),
        gates=(Gate("u", (0, 1, 2, 3), random_unitary(16, 3)),)), "haar.json")
    untouched = write_circuit(tmp_path, Circuit(
        cr_dims=(2,), ctc_dims=(2, 2), gates=(Gate("x", (0,)),)),
        "untouched.json")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = ("import contextlib, io, sys, numpy as np, ctcsim.cli\n"
            "from ctcsim.ctc import Superoperator, fixed_point_exact\n"
            "from ctcsim.experiments import REGISTRY\n"
            "def run(*argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert ctcsim.cli.main(list(argv)) == 0, argv\n"
            "loaded = lambda: 'scipy.linalg' in sys.modules\n"
            "seen = [loaded()]\n"
            "for name in REGISTRY:\n"
            "    run('experiment', name)\n"
            "    seen.append(loaded())\n"
            f"run('fixed-point', {haar!r}, '--verify')\n"
            "print(seen + [loaded()])\n"
            f"run('fixed-point', {untouched!r})\n"
            "fp = fixed_point_exact(Superoperator(2, np.eye(4)), 'max_entropy')\n"
            "assert fp.fixed_space_dim == 4\n"
            "print(loaded(), 'scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                         capture_output=True, text=True, check=True)
    unloaded, schur = out.stdout.splitlines()
    assert unloaded == str([False] * (len(EXPERIMENTS) + 2))
    assert schur == "True False"


def test_fixed_point_on_untouched_ctc_wires_writes_nothing_to_stderr(tmp_path):
    # an x on the CR wire and the mixed input give E = I exactly, so the
    # bordered LU system is exactly singular; the solver must fall back to
    # Schur without printing a LinAlgWarning
    circuit = Circuit(cr_dims=(2,), ctc_dims=(2, 2), gates=(Gate("x", (0,)),))
    path = write_circuit(tmp_path, circuit)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONWARNINGS", None)
    out = subprocess.run([sys.executable, "-m", "ctcsim.cli", "fixed-point",
                          path], env=env, cwd=root, capture_output=True,
                         text=True)
    assert out.returncode == 0
    assert out.stderr == ""
    assert json.loads(out.stdout)["results"]["fixed_point"]["fixed_space_dim"] == 16


def test_fixed_point_on_a_decaying_mode_in_the_window_exits_3(tmp_path):
    # U = expm(-i eps H) at eps = 3e-5 puts a decaying eigenvalue of the loop
    # map 9e-10 from 1, inside the window: the Schur cluster's spread refuses
    # it, where a point 0.26 from the fixed point used to be printed
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u = scipy.linalg.expm(-3e-5j * (g + g.conj().T) / 2)
    circuit = Circuit(cr_dims=(2,), ctc_dims=(2,), gates=(Gate("u", (0, 1), u),))
    path = write_circuit(tmp_path, circuit)
    state = tmp_path / "rho.json"
    state.write_text(json.dumps([[[z.real, z.imag] for z in row]
                                 for row in random_density(2, 5)]),
                     encoding="utf-8")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-m", "ctcsim.cli", "fixed-point",
                          path, "--input", f"@{state}"], env=env, cwd=root,
                         capture_output=True, text=True)
    assert out.returncode == 3
    assert out.stdout == ""
    assert "cluster spread too large: spread 9." in out.stderr
    assert "Traceback" not in out.stderr

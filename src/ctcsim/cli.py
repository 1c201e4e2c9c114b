"""Command-line front end.

Two subcommands:

    ctcsim fixed-point CIRCUIT.json --input SPEC [--verify] [...]
    ctcsim experiment NAME [...]

Reports are JSON with frozen field names and a schema version; floats are
rounded to 12 significant digits so that identical (command line, seed)
pairs produce byte-identical output. Exit codes: 0 success, 2 input or
validation error, 3 numerical solver failure.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .circuit import (_basis, _matrix_to_json, _parse_matrix, compile_unitary,
                      parse_circuit)
from .ctc import (SolverError, ctc_evolve, fixed_point_cesaro,
                  induced_superoperator)
from .experiments import REGISTRY, fixed_point_record
from .oracle import MAX_ITERS, fixed_point_bruteforce
from .qmat import ValidationError, _square, trace_distance

SCHEMA_VERSION = 1
EXPERIMENTS = tuple(REGISTRY)

# the per-experiment options of `ctcsim experiment`: the parameters the
# experiments take but seed. The parser leaves each None, so an option given
# explicitly can be told apart; the experiment's signature holds its default
EXPERIMENT_OPTIONS = ("theta", "probs", "selection", "trials", "sweep")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _round_floats(obj):
    """Round every float to 12 significant digits, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _selection(arg: str) -> str:
    return "max_entropy" if arg == "max-entropy" else arg


# the named inputs of one CR dimension, by their amplitudes times sqrt(2)
_FIXED_INPUTS = {"plus": [1.0, 1.0], "minus": [1.0, -1.0], "bell": [1.0, 0.0, 0.0, 1.0]}


def _named_input(name: str, dim: int) -> np.ndarray:
    if name == "mixed":
        return np.eye(dim, dtype=complex) / dim
    if name in ("zero", "one"):  # Circuit makes every CR dimension >= 2
        vec = _basis(int(name == "one"), dim)
    elif name in _FIXED_INPUTS:
        vec = np.array(_FIXED_INPUTS[name], dtype=complex) / math.sqrt(2)
        if dim != len(vec):
            raise ValidationError(
                f"input '{name}' needs CR dimension {len(vec)}, got {dim}")
    else:
        raise ValidationError(
            f"unknown input spec '{name}'; use zero|one|plus|minus|bell|mixed"
            " or @file.json")
    return np.outer(vec, vec.conj())


def _load_json(path: str):
    """Decode a UTF-8 JSON file; undecodable bytes are a ValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc


def _input_state(spec: str, dim: int) -> np.ndarray:
    """Resolve --input: a named state or @file.json holding a density matrix
    in the [[re, im], ...] grid format used for gate matrices."""
    if spec.startswith("@"):
        path = spec[1:]
        return _square(_parse_matrix(_load_json(path), f"{path}: $"), dim,
                       f"{path}: CR input")
    return _named_input(spec, dim)


# --- subcommand drivers ----------------------------------------------------

def _cmd_fixed_point(args, seed: int) -> dict:
    circuit = parse_circuit(_load_json(args.circuit_file))
    rho = _input_state(args.input, circuit.cr_dim)
    fp = ctc_evolve(circuit, rho, _selection(args.selection))[1]
    results = {"fixed_point": dict(fixed_point_record(fp),
                                   sigma=_matrix_to_json(fp.sigma))}
    if args.verify:
        oracle = fixed_point_bruteforce(circuit, rho, trials=8, seed=seed)
        if oracle.converged == 0:
            raise SolverError(
                f"--verify verified nothing: the brute-force oracle converged "
                f"on 0 of {oracle.trials} trials within {MAX_ITERS} "
                f"iterations each")
        to_exact = [trace_distance(lim, fp.sigma)
                    for lim in oracle.distinct_limits]
        cesaro = fixed_point_cesaro(induced_superoperator(
            compile_unitary(circuit), rho, circuit.cr_dims, circuit.ctc_dims))
        results["verify"] = {
            "oracle": {
                "trials": oracle.trials,
                "converged": oracle.converged,
                "distinct_limits": len(oracle.distinct_limits),
                "max_pairwise_distance": oracle.max_pairwise_distance,
                "max_distance_to_exact": max(to_exact, default=math.inf),
            },
            "cesaro": {
                "residual": cesaro.residual,
                "distance_to_exact": trace_distance(cesaro.sigma, fp.sigma),
            },
        }
    return results


def _cmd_experiment(args, seed: int) -> tuple[dict, dict]:
    """Run the registered experiment with the arguments its function takes;
    return its results and the parameters the report echoes: those it takes
    but seed, and the selection. An option the experiment does not take is
    an input error when given; one it takes defaults to its signature's."""
    run = REGISTRY[args.name]
    takes = inspect.signature(run).parameters
    given = {k: getattr(args, k) for k in EXPERIMENT_OPTIONS
             if getattr(args, k) is not None}
    for option in given:
        if option not in takes:
            users = [name for name, f in REGISTRY.items()
                     if option in inspect.signature(f).parameters]
            raise ValidationError(f"--{option} does not apply to "
                                  f"'{args.name}', only to {', '.join(users)}")
    if args.csv is not None and args.sweep is None:
        raise ValidationError("--csv requires --sweep")
    # identical-mixtures runs both rules and echoes the default one
    parameters = {"selection": "canonical", **{
        k: given.get(k, p.default) for k, p in takes.items() if k != "seed"}}
    values = dict(parameters, seed=seed,
                  selection=_selection(parameters["selection"]))
    results = run(**{k: v for k, v in values.items() if k in takes})
    if args.csv is not None:
        _write_csv(args.csv, results["sweep"])
    return results, {k: v for k, v in parameters.items() if v is not None}


def _write_csv(path: str, rows: list[dict]) -> None:
    columns = ("theta", "mutual_info", "product_distance", "helstrom")
    lines = [",".join(columns)]
    lines += [",".join(f"{r[c]:.12g}" for c in columns) for r in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit(report: dict, out_path) -> None:
    text = json.dumps(_round_floats(report), indent=2, sort_keys=True) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctcsim",
        description="Simulate quantum circuits interacting with a Deutsch-model"
                    " closed timelike curve.")
    sub = parser.add_subparsers(dest="command", required=True)

    fp = sub.add_parser("fixed-point",
                        help="solve the self-consistency condition for a"
                             " circuit file and input state")
    fp.add_argument("circuit_file", help="circuit JSON file")
    fp.add_argument("--input", default="mixed",
                    help="zero|one|plus|minus|bell|mixed or @file.json"
                         " (default: mixed)")
    fp.add_argument("--selection", choices=("canonical", "max-entropy"),
                    default="canonical")
    fp.add_argument("--verify", action="store_true",
                    help="cross-check with brute-force and Cesaro solvers")

    ex = sub.add_parser("experiment", help="run a named experiment")
    ex.add_argument("name", choices=EXPERIMENTS)
    ex.add_argument("--theta", type=float,
                    help="designated-state angle for bhw2-based experiments"
                         " (default: pi/4)")
    ex.add_argument("--probs", type=float,
                    help="probability of label 0 (label 1 gets the rest;"
                         " default: 0.5)")
    ex.add_argument("--selection", choices=("canonical", "max-entropy"),
                    help="degeneracy rule (default: canonical)")
    ex.add_argument("--trials", type=int,
                    help="trial count for sim-equivalence (default: 50)")
    ex.add_argument("--sweep", default=None, metavar="theta=START:STOP:STEP",
                    help="sweep theta (mixture experiment only)")
    ex.add_argument("--csv", default=None,
                    help="with --sweep: also write rows as CSV to this path")
    for command in (fp, ex):
        command.add_argument("--seed", type=int, default=None,
                             help="master seed (default: $CTC_SIM_SEED or 0)")
        command.add_argument("--out", default=None, help="write report to this path")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call; parse_args returns a
    fresh Namespace each time, so calls share nothing else."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        seed = (args.seed if args.seed is not None
                else int(os.environ.get("CTC_SIM_SEED", "0")))
    except ValueError:
        print("ctcsim: CTC_SIM_SEED must be an integer", file=sys.stderr)
        return EXIT_INPUT
    if seed < 0:   # numpy's generators take non-negative seeds only
        print(f"ctcsim: error: --seed or CTC_SIM_SEED must be non-negative, "
              f"got {seed}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.command == "fixed-point":
            results = _cmd_fixed_point(args, seed)
            report = {"parameters": {"circuit_file": args.circuit_file,
                                     "input": args.input,
                                     "selection": args.selection,
                                     "verify": bool(args.verify)}}
        else:
            results, parameters = _cmd_experiment(args, seed)
            report = {"experiment": args.name, "parameters": parameters}
        report.update(schema_version=SCHEMA_VERSION, tool_version=__version__,
                      command=args.command, seed=seed, results=results)
        _emit(report, args.out)
    except (ValidationError, OSError) as exc:
        print(f"ctcsim: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"ctcsim: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

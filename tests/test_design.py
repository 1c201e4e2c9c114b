"""The design rules that CI checks by grep, run on the package source.

Each rule mirrors one step of .github/workflows/tests.yml, from "Protocols
reach the loop only through ctc" to "The solver runs in real arithmetic",
so that a local run of the suite sees a broken rule too. A rule lists
(modules, pattern, lines allowed to match); the workflow keeps its steps.
"""

import re
from pathlib import Path

import pytest

import ctcsim

PACKAGE = Path(ctcsim.__file__).resolve().parent
ALL_BUT_QMAT = ("__init__", "circuit", "ctc", "protocol", "experiments", "cli",
                "oracle")


def matching_lines(modules, pattern, skip=None):
    """`module.py:line: text` of each line of the modules that matches
    pattern, and not skip."""
    hits = []
    for module in modules:
        path = PACKAGE / f"{module}.py"
        for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if re.search(pattern, line) and not (skip and re.search(skip, line)):
                hits.append(f"{path.name}:{k}: {line.strip()}")
    return hits


def protocols_reach_the_loop_only_through_ctc():
    # the kernel's operand layout and the vec convention live in ctc alone
    return matching_lines(("protocol", "experiments"),
                          r"_operands|_loop_map|\b_output\b|_fixed_points|ctc\._evolve")


def tolerances_are_named_in_qmat_alone():
    # the sweep grid's slack is the one literal allowed; the oracle keeps its
    # own 1e-6 and 1e-7, as an independent solver
    return (matching_lines(("circuit", "ctc", "protocol", "experiments", "cli",
                            "oracle"), r"1e-(8|9|10|12)\b", skip="SWEEP_SLACK = ")
            + matching_lines(("circuit", "ctc", "protocol", "experiments", "cli"),
                             r"1e-(6|7)\b")
            + matching_lines(ALL_BUT_QMAT, r"\bHERMITICITY_TOL\b")
            + matching_lines(("__init__", "circuit", "protocol", "experiments",
                              "cli", "oracle"), r"\bPSD_FLOOR\b"))


def projectors_are_built_in_qmat_alone():
    return matching_lines(ALL_BUT_QMAT, r"np\.outer\(([^,]+), \1\.conj\(\)\)"
                          r"|None\] \* [A-Za-z_][A-Za-z_0-9]*\[[^]]*\]\.conj\(\)")


def argument_rules_are_stated_in_qmat_alone():
    definition = r"^def (_is_integer|_require_integer|_square|_sequence)\("
    defined = matching_lines(("qmat",), definition)
    return (([] if len(defined) == 4 else [f"qmat defines {defined}"])
            + matching_lines(ALL_BUT_QMAT,
                             definition + r"|must be an integer >=|np\.integer")
            + matching_lines(("qmat",), r"\bint\((?!np\.)"))


def the_lu_acceptance_rule_is_stated_once():
    cuts = matching_lines(("ctc",), re.escape("EIGENVALUE_ONE_WINDOW / 1e-3"))
    return [] if len(cuts) == 1 else [f"{len(cuts)} cuts: {cuts}"]


def the_solver_runs_in_real_arithmetic():
    return matching_lines(("ctc",), r'lapack\.z|output="complex"')


@pytest.mark.parametrize("rule", [
    protocols_reach_the_loop_only_through_ctc,
    tolerances_are_named_in_qmat_alone,
    projectors_are_built_in_qmat_alone,
    argument_rules_are_stated_in_qmat_alone,
    the_lu_acceptance_rule_is_stated_once,
    the_solver_runs_in_real_arithmetic,
], ids=lambda rule: rule.__name__)
def test_design_rule_holds(rule):
    assert rule() == []

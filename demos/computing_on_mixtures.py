"""A 'computer' that answers every question alone but fails the exam.

Take the identity function F(x) = x on four inputs, implemented by routing
each basis state |x> through the multi-state discriminator. Any single
input produces the right answer exactly. Presented with the uniform labeled
mixture of all four questions at once, the loop's fixed point erases the
correlation between question and answer: the machine computed nothing
usable. Contrast with a plain register gate computing a bit flip, which
works equally well on mixtures because it never touches the loop.
"""

from ctcsim import (Circuit, ComputationTask, Gate, experiments,
                    run_computation_mixture)


def main():
    res = experiments.computation()
    print("identity function on four inputs via the loop")
    print("  per-input runs:")
    for x, d in res["per_input_output_vs_truth"].items():
        fx = res["truth_table"][int(x)]
        print(f"    F({x}) -> distance to |{fx}><{fx}| = {d:.3e}")
    print("  uniform mixture of all four inputs:")
    print(f"    question-answer mutual information: "
          f"{res['mutual_info_bits']:.3e} bits")
    print(f"    counts as success: {res['success']}")

    flip = Circuit(cr_dims=(2,), ctc_dims=(2,), gates=(Gate("x", (0,), None),))
    task2 = ComputationTask(domain_size=2, truth_table=(1, 0), circuit=flip)
    outcome2 = run_computation_mixture(task2)
    print("bit flip on two inputs via a plain register gate")
    print(f"    question-answer mutual information: "
          f"{outcome2.mutual_info_bits:.6f} bits")
    print(f"    counts as success: {outcome2.success}")


if __name__ == "__main__":
    main()

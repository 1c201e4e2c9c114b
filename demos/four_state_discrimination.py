"""Map four states that span only two dimensions to four orthogonal flags.

The states |0>, |1>, |+>, |-> live in a single qubit, so no linear process
can tell all four apart. The multi-state discriminator pads the qubit into
a four-dimensional register and routes each designated state to its own
basis flag through the loop's self-consistent response.
"""

from ctcsim import experiments

LABELS = dict(zip(experiments.FOUR_STATE_NAMES, ("|0>", "|1>", "|+>", "|->")))


def main():
    res = experiments.bhw4()
    for name, fp in res["fixed_points"].items():
        print(f"  {LABELS[name]}  loop residual {fp['residual']:.1e}")

    print()
    print("pairwise output distances (1 means perfectly distinguishable):")
    for pair, d in res["pairwise_output_distances"].items():
        first, second = pair.split("-")
        print(f"  {LABELS[first]} vs {LABELS[second]}   {d:.4f}")
    print(f"smallest pairwise distance: {res['min_pairwise_distance']:.4f}")


if __name__ == "__main__":
    main()
